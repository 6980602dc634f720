"""Peak memory of scoring one 1280x720 frame, and of an encode's level maps,
as tracemalloc sees numpy's allocations.  A 720p float64 plane is 7.03 MiB:
ssim_map returns one and fw_ssim_from_map sums one, and each may add only
row strips to it; FWQI on plain planes holds a few quarter-size bands at a
time; a level map of an encode is built without one."""

import tracemalloc

import numpy as np
import pytest

from fmvc import cli
from fmvc.cli import main
from fmvc.foveation import DisplayGeometry, foveation_map
from fmvc.metrics import fw_ssim_from_map, fwqi_approx, ssim_map
from fmvc.video_io import write_y4m

from conftest import natural_clip

MIB = 2**20
H, W = 720, 1280
GAZE = (400.0, 300.0)
GEOM = DisplayGeometry(0.02, 0.012, W, H)


def peak_bytes(fn, *args):
    """Peak traced bytes allocated while fn(*args) runs, over what was live before."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()


@pytest.fixture(scope="module")
def planes():
    rng = np.random.default_rng(17)
    ref = rng.integers(0, 256, (H, W), dtype=np.uint8)
    test = np.clip(ref.astype(np.int16) + rng.integers(-9, 10, (H, W)), 0, 255).astype(np.uint8)
    return ref, test


def test_ssim_map_peak(planes):
    assert peak_bytes(ssim_map, *planes) <= 20 * MIB


def test_fw_ssim_from_map_peak(planes):
    smap, fmap = ssim_map(*planes), foveation_map(GEOM, GAZE)
    fmap.values  # a built map gathers its values on their first read: that plane is the map's, not scoring's
    assert peak_bytes(fw_ssim_from_map, smap, fmap) <= 10 * MIB


def test_fwqi_approx_peak(planes):
    assert peak_bytes(fwqi_approx, *planes, GAZE, GEOM) <= 20 * MIB


def test_each_sweep_point_costs_less_than_a_float_map(tmp_path):
    """An FMSC point's encode chain holds its level map and reconstruction,
    never its W x H float64 gaussian map, so each point beyond the first
    adds less than one float map to the sweep's traced peak."""
    w, h = 352, 288
    clip = tmp_path / "cif.y4m"
    with open(clip, "wb") as fh:
        write_y4m(natural_clip(w, h, 3), fh)

    def sweep(specs):
        assert main(["rd-sweep", "--input", str(clip), "--out", str(tmp_path / "sweep.csv"), "--fmsc-set", specs]) == 0

    sweep("H/4")  # first-use set-up (imports, caches) out of the measured runs
    one, four = peak_bytes(sweep, "H/4"), peak_bytes(sweep, "H/10,H/6,H/4,H/2")
    assert (four - one) / 3 < w * h * 8


@pytest.mark.parametrize("fmsc", ["csf", "H/4"])
def test_a_720p_encode_gathers_no_float_map(tmp_path, monkeypatch, fmsc):
    """Each (level map, gaze) pair that a 720p encode takes from cli._level_maps, around a
    moving gaze, costs less than one W x H float64 map on top of what was live: a built map's
    values are gathered only when read, and the encode path reads its table alone."""
    clip, track = tmp_path / "hd.y4m", tmp_path / "gaze.csv"
    with open(clip, "wb") as fh:
        write_y4m(natural_clip(W, H, 3), fh)
    track.write_text("0,640,360\n1,601,392\n2,655,331\n")
    peaks, level_maps = [], cli._level_maps

    def measured(*args):
        chain = level_maps(*args)
        while True:
            taken = []
            peaks.append(peak_bytes(lambda: taken.append(next(chain, None))))
            if taken[0] is None:
                return
            yield taken[0]

    monkeypatch.setattr(cli, "_level_maps", measured)
    argv = ["encode", "--input", str(clip), "--output", str(tmp_path / "out.fmvc"), "--gaze", str(track)]
    assert main(argv + (["--fmsc", fmsc] if fmsc != "csf" else [])) == 0
    assert len(peaks) == 4 and max(peaks) < W * H * 8
