"""The mutant list in tests/mutants.py still fits the code and the suite.

The runner itself is too slow for the suite; these checks are cheap.  A
refactor that moves or rewrites a mutated snippet fails here, and the list
is updated with the code, as tests/test_bench_hooks.py does for the hooks.
"""

import re

from mutants import MUTANTS, ROOT


def test_the_list_has_at_least_twelve_named_mutants():
    assert len(MUTANTS) >= 12
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)


def test_every_snippet_occurs_exactly_once_in_its_file():
    for m in MUTANTS:
        text = (ROOT / "src" / "fmvc" / m.file).read_text(encoding="utf-8")
        assert text.count(m.snippet) == 1, m.name
        assert m.replacement != m.snippet, m.name


def test_every_named_test_is_defined():
    for m in MUTANTS:
        assert m.tests, m.name
        for node in m.tests:
            path, *scopes = node.split("[")[0].split("::")
            text = (ROOT / path).read_text(encoding="utf-8")
            for scope in scopes:
                assert re.search(rf"^\s*(def|class) {re.escape(scope)}\b", text, re.M), node
