"""Every public top-level function and class in fmvc is used by something,
and every private top-level function, class and assignment is used by the
package itself.

A public name counts as used when it appears, as a whole word, anywhere in
the package, the benchmark or the acceptance tests other than at its own
definition.  A private name counts as used when the package's code (not
its comments or docstrings) reads it or imports it.  The unit tests do not
count: a function that only its tests call is API the codec never calls,
and a helper that a refactor strands is dead code.
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


def private_definitions():
    """(name, module) of every top-level private def, class and assigned name in src/fmvc."""
    for path in SOURCES:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]
            else:
                continue
            yield from ((name, path.stem) for name in names if name.startswith("_") and not name.startswith("__"))


def package_reads():
    """Every name the package's code loads, reads as an attribute or imports."""
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                yield node.id
            elif isinstance(node, ast.Attribute):
                yield node.attr
            elif isinstance(node, ast.alias):
                yield node.name


def test_every_private_name_is_referenced():
    definitions = list(private_definitions())
    assert len(definitions) > 20  # the scan found the package
    read = set(package_reads())
    assert [f"{module}.{name}" for name, module in definitions if name not in read] == []
