"""The benchmark's own passes run on toy workloads.

``perfbench/run.py`` calls the codec through its public names
(``encode_frame``, ``decode_frame``, ``FrameRecord``, ``SequenceBitstream``,
``QuantSchedule(q_base=)``, ``midgray_frame`` and ``cli.main``).  A change
to any of them that breaks the benchmark fails here first.  The module is
loaded with bytecode writing off, and the inputs are built here rather than
by ``make_inputs``, so nothing is written under ``perfbench/``.
"""

import importlib.util
import math
import sys
from pathlib import Path

import pytest

from fmvc.video_io import write_y4m

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def run():
    saved_path, saved_modules = list(sys.path), set(sys.modules)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "dont_write_bytecode", True)
        mp.setenv("OMP_NUM_THREADS", "1")  # run.py pins both at import; restored on exit
        mp.setenv("OPENBLAS_NUM_THREADS", "1")
        sys.path.insert(0, str(BENCH))
        try:
            spec = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
        finally:
            sys.path[:] = saved_path
            for name in set(sys.modules) - saved_modules:  # the bench's clock, inputs and spans
                if not name.startswith("fmvc"):
                    del sys.modules[name]
    return module


def toy_inputs(run, wl, seed=1, y4m=None):
    return run.Inputs(run.natural_clip(wl.width, wl.height, wl.frames, seed), run.gaze_track(wl, seed), y4m)


@pytest.mark.parametrize(
    "kw",
    [dict(q_base=4, fmsc_divisor=4), dict(q_base=32, gaze="walk")],
    ids=["gaussian-q4-centre", "csf-q32-walk"],
)
def test_codec_pass_and_quality(run, kw):
    wl = run.Workload("toy", "codec", 48, 40, 3, **kw)
    inputs = toy_inputs(run, wl)
    p = run.codec_pass(wl, inputs)
    assert len(p.decoded) == len(p.recons) == wl.frames
    assert all(got == want for got, want in zip(p.decoded, p.recons))
    quality = run.codec_quality(inputs, p)
    assert quality["bpp"] > 0 and all(math.isfinite(v) for v in quality.values())
    checks = run.Checks()
    again = run.run_pass(wl, inputs, checks, None)
    assert checks.failed == 0 and checks.attempted == wl.frames + 1
    assert again.digest == p.digest


def test_sweep_pass(run, tmp_path):
    wl = run.Workload("toy_sweep", "sweep", 48, 40, 2)
    inputs = toy_inputs(run, wl, y4m=tmp_path / "toy.y4m")
    with open(inputs.y4m, "wb") as fh:
        write_y4m(inputs.seq, fh)
    checks = run.Checks()
    p = run.sweep_pass(inputs, checks)
    assert checks.failed == 0 and checks.attempted == 1
    quality = run.sweep_quality(p.csv)
    assert quality["bpp"] > 0 and all(math.isfinite(v) for v in quality.values())
