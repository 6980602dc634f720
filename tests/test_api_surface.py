"""Every public top-level function, class and assigned name in fmvc is used
by something, and every private one is used by the package itself.

A name counts as used when the package's code (not its comments or
docstrings) reads it or imports it; a public name also when it appears, as
a whole word, in the benchmark or the acceptance tests.  The unit tests do
not count: a function that only its tests call is API the codec never
calls, and a helper that a refactor strands is dead code.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "fmvc").glob("*.py"))
CALLERS = sorted((ROOT / "perfbench").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]


def top_level_definitions(private: bool):
    """(name, module) of every top-level def, class and assigned name in src/fmvc,
    the private ones or the public ones; dunder names are neither."""
    for path in SOURCES:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]
            else:
                continue
            yield from ((name, path.stem) for name in names
                        if name.startswith("_") == private and not name.startswith("__"))


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


def test_every_public_name_is_referenced():
    definitions = list(top_level_definitions(private=False))
    assert len(definitions) > 20  # the scan found the package
    read = set(package_reads())
    text = "\n".join(path.read_text(encoding="utf-8") for path in CALLERS)
    unused = [f"{module}.{name}" for name, module in definitions
              if name not in read and not re.search(rf"\b{name}\b", text)]
    assert unused == []


def test_every_private_name_is_referenced():
    definitions = list(top_level_definitions(private=True))
    assert len(definitions) > 20  # the scan found the package
    read = set(package_reads())
    assert [f"{module}.{name}" for name, module in definitions if name not in read] == []


def test_records_share_one_equality_rule():
    """Only the two bitstreams, which compare their wire form, write an __eq__;
    every other record uses dataclass equality or sets __eq__ = fields_equal."""
    written, assigned = [], []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {id(item): f"{path.stem}.{cls.name}" for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                 for item in cls.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "__eq__":
                written.append(owner.get(id(node), f"{path.stem}:{node.lineno}"))
            elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__eq__" for t in node.targets):
                assigned.append(ast.unparse(node.value))
    assert sorted(written) == ["codec.FrameBitstream", "codec.SequenceBitstream"]
    assert set(assigned) == {"fields_equal"}
