"""Peak memory of scoring one 1280x720 frame, as tracemalloc sees numpy's
allocations.  A 720p float64 plane is 7.03 MiB: ssim_map returns one and
fw_ssim_from_map sums one, and each may add only row strips to it; FWQI on
plain planes holds a few quarter-size bands at a time."""

import tracemalloc

import numpy as np
import pytest

from fmvc.foveation import DisplayGeometry, foveation_map
from fmvc.metrics import fw_ssim_from_map, fwqi_approx, ssim_map

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
    assert peak_bytes(fw_ssim_from_map, smap, fmap) <= 10 * MIB


def test_fwqi_approx_peak(planes):
    assert peak_bytes(fwqi_approx, *planes, GAZE, GEOM) <= 20 * MIB
