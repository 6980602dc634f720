"""fmvc runs on numpy alone: its modules import nothing beyond the standard
library, numpy and fmvc itself, and no command loads scipy, which only the
tests and perfbench/ use."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fmvc.cli import main
from fmvc.video_io import write_y4m

from conftest import natural_clip

SRC = Path(__file__).resolve().parent.parent / "src"


def imported_roots(path: Path) -> set[str]:
    """The top-level package of every absolute import in a module."""
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.partition(".")[0])
    return roots


@pytest.mark.parametrize("module", sorted(p.name for p in (SRC / "fmvc").glob("*.py")))
def test_a_module_imports_only_the_stdlib_numpy_and_fmvc(module):
    outside = imported_roots(SRC / "fmvc" / module) - set(sys.stdlib_module_names) - {"numpy", "fmvc"}
    assert not outside


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A clip and its stream, in a directory for each command's output."""
    tmp = tmp_path_factory.mktemp("deps")
    with open(tmp / "clip.y4m", "wb") as fh:
        write_y4m(natural_clip(32, 24, 2, seed=5), fh)
    assert main(["encode", "--input", str(tmp / "clip.y4m"), "--output", str(tmp / "clip.fmvc")]) == 0
    return tmp


COMMANDS = {
    "import": [],
    "encode": ["encode", "--input", "{tmp}/clip.y4m", "--output", "{tmp}/out.fmvc"],
    "decode": ["decode", "--input", "{tmp}/clip.fmvc", "--output", "{tmp}/out.y4m"],
    "metrics": ["metrics", "--ref", "{tmp}/clip.y4m", "--test", "{tmp}/clip.y4m", "--out", "{tmp}/m.csv"],
    "rd-sweep": ["rd-sweep", "--input", "{tmp}/clip.y4m", "--out", "{tmp}/s.csv", "--fmsc-set", "H/4"],
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_a_fresh_process_loads_no_scipy(files, command):
    script = ("import sys, fmvc.cli\n"
              "status = fmvc.cli.main(sys.argv[1:]) if sys.argv[1:] else 0\n"
              "print(status, sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
    argv = [arg.format(tmp=files) for arg in COMMANDS[command]]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    run = subprocess.run([sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "0 []"
