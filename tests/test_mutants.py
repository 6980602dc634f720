"""The mutant list in tests/mutants.py still fits the code and the suite.

The runner itself is too slow for the suite; these checks are cheap.  A
refactor that moves or rewrites a mutated snippet fails here, and the list
is updated with the code, as tests/test_bench_hooks.py does for the hooks.
"""

import subprocess
import sys

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
    """Each named id is one pytest collects, parameters and all: the runner
    matches failed ids exactly, so a parametrized test named by its bare id
    could never count as failing."""
    named = {node for m in MUTANTS for node in m.tests}
    assert all(m.tests for m in MUTANTS)
    files = sorted({node.partition("::")[0] for node in named})
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", *files],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    assert sorted(named - set(run.stdout.splitlines())) == []
