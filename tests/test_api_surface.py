"""Every public top-level function and class in fmvc is used by something.

A name counts as used when it appears, as a whole word, anywhere in the
package, the benchmark or the acceptance tests other than at its own
definition.  The unit tests do not count: a function that only its tests
call is API the codec never calls.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "fmvc").glob("*.py"))
CORPUS = SOURCES + sorted((ROOT / "perfbench").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]


def public_definitions():
    """(name, module) of every top-level public def and class in src/fmvc."""
    for path in SOURCES:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield node.name, path.stem


def test_every_public_name_is_referenced():
    definitions = list(public_definitions())
    assert len(definitions) > 20  # the scan found the package
    texts = [path.read_text(encoding="utf-8") for path in CORPUS]
    defined = Counter(name for name, _ in definitions)
    unused = [
        f"{module}.{name}"
        for name, module in definitions
        if sum(len(re.findall(rf"\b{name}\b", text)) for text in texts) <= defined[name]
    ]
    assert unused == []
