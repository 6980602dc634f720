"""Differential tests: scoring through a FrameReference, or through plain
planes, against the whole-plane oracle in metricref.

Sides run from 16 to 48 px, so FWQI crops are partial, and gazes are integer
and fractional.  One reference is scored against several test planes under
alternating gazes and geometries, so every kept part is reused and rebuilt.
Heights of up to three row strips and more cross every strip boundary.
Every comparison is exact.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import metricref as oracle
from fmvc.errors import ContractViolation
from fmvc.foveation import DisplayGeometry, foveation_map
from fmvc.metrics import STRIP_ROWS, FrameReference, fw_ssim_from_map, fwqi_approx, ssim_map


@st.composite
def scoring_cases(draw):
    """A reference, test planes equal to it, near it and far from it, and
    (gaze, geometry) pairs that change one of the two at a time."""
    w, h = draw(st.integers(16, 48)), draw(st.integers(16, 48))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ref = rng.integers(0, 256, (h, w), dtype=np.uint8)
    tests = [ref.copy(), rng.integers(0, 256, (h, w), dtype=np.uint8)]
    tests.append(np.clip(ref.astype(np.int16) + rng.integers(-9, 10, (h, w)), 0, 255).astype(np.uint8))
    gaze_x = st.one_of(st.integers(0, w - 1), st.floats(0.0, w - 1.0))
    gaze_y = st.one_of(st.integers(0, h - 1), st.floats(0.0, h - 1.0))
    gazes = draw(st.lists(st.tuples(gaze_x, gaze_y), min_size=1, max_size=3))
    geoms = [DisplayGeometry(width_m, 0.012, w, h) for width_m in (0.02, 0.3)]
    return ref, tests, [(gaze, geom) for gaze in gazes for geom in geoms]


@pytest.mark.parametrize("shared", [True, False], ids=["frame_reference", "plain_plane"])
@settings(max_examples=30)  # each example scores up to 18 (test plane, gaze, geometry) triples
@given(case=scoring_cases())
def test_scores_match_plane_pair_oracle(shared, case):
    plane, tests, views = case
    ref = FrameReference(plane) if shared else plane
    for test in tests:
        smap = ssim_map(ref, test)
        expected = oracle.ssim_map(plane, test)
        assert np.array_equal(smap, expected)
        for gaze, geom in views:
            fmap = foveation_map(geom, gaze)
            assert fw_ssim_from_map(smap, fmap) == oracle.fw_ssim_from_map(expected, fmap)
            assert fwqi_approx(ref, test, gaze, geom) == oracle.fwqi_approx(plane, test, gaze, geom)


# Heights next to each strip boundary, and last strips shorter than the
# SSIM halo of five rows, besides any height up to three strips and more.
_EDGE_HEIGHTS = sorted({k * STRIP_ROWS + d for k in (1, 2, 3) for d in (-1, 0, 1, 2, 4)})


@pytest.mark.parametrize("shared", [True, False], ids=["frame_reference", "plain_plane"])
@settings(max_examples=40, deadline=None)
@given(h=st.one_of(st.sampled_from(_EDGE_HEIGHTS), st.integers(1, 3 * STRIP_ROWS + 11)),
       w=st.one_of(st.integers(1, 15), st.integers(16, 24)), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_scores_across_strip_boundaries_match_oracle(shared, h, w, seed, data):
    rng = np.random.default_rng(seed)
    plane = rng.integers(0, 256, (h, w), dtype=np.uint8)
    test = np.clip(plane.astype(np.int16) + rng.integers(-40, 41, (h, w)), 0, 255).astype(np.uint8)
    ref = FrameReference(plane) if shared else plane
    smap = ssim_map(ref, test)
    expected = oracle.ssim_map(plane, test)
    assert np.array_equal(smap, expected)
    gaze = (data.draw(st.floats(0.0, w - 1.0)), data.draw(st.floats(0.0, h - 1.0)))
    geom = DisplayGeometry(0.02, 0.012, w, h)
    fmap = foveation_map(geom, gaze)
    assert fw_ssim_from_map(smap, fmap) == oracle.fw_ssim_from_map(expected, fmap)
    if min(h, w) >= 16:
        assert fwqi_approx(ref, test, gaze, geom) == oracle.fwqi_approx(plane, test, gaze, geom)


@pytest.mark.parametrize("shared", [True, False], ids=["frame_reference", "plain_plane"])
def test_fwqi_holds_a_gaze_to_the_one_gaze_rule(shared):
    # a gaze that is not two finite real numbers is named, not blamed on the display or left to numpy
    plane = np.random.default_rng(5).integers(0, 256, (32, 48), dtype=np.uint8)
    ref = FrameReference(plane) if shared else plane
    geom = DisplayGeometry(0.02, 0.012, 48, 32)
    for gaze in [(math.nan, 3), (math.inf, 3), (1, 2, 3), ("a", 3), None]:
        named = re.escape(f"gaze {gaze!r} must be two finite real numbers")
        with pytest.raises(ContractViolation, match=named):
            fwqi_approx(ref, plane[::-1], gaze, geom)
        if shared:  # as is the gaze its weights are kept under
            with pytest.raises(ContractViolation, match=named):
                ref.weighted_bands(gaze, geom)
    # a finite gaze off the frame still scores
    for gaze in [(100, -50), (np.int64(-3), np.float32(40.5))]:
        assert fwqi_approx(ref, plane[::-1], gaze, geom) == oracle.fwqi_approx(plane, plane[::-1], gaze, geom)


@pytest.mark.parametrize("shared", [True, False], ids=["frame_reference", "plain_plane"])
def test_zero_reference_energy_rejected(shared):
    zero = np.zeros((32, 40), np.uint8)
    ref = FrameReference(zero) if shared else zero
    geom = DisplayGeometry(0.02, 0.012, 40, 32)
    for _ in range(2):  # a rejected reference keeps rejecting
        with pytest.raises(ContractViolation, match="weighted reference energy is zero"):
            fwqi_approx(ref, np.full((32, 40), 9, np.uint8), (20, 16), geom)


@pytest.mark.parametrize("shared", [True, False], ids=["frame_reference", "plain_plane"])
def test_a_display_that_shows_nothing_is_named(shared):
    # a 2**-40 m pixel pitch seen from 1 m: the coarsest subband's frequency is far past every cutoff
    plane = np.random.default_rng(3).integers(0, 256, (32, 32), dtype=np.uint8)
    ref = FrameReference(plane) if shared else plane
    geom = DisplayGeometry(32 * 2**-40, 1.0, 32, 32)
    with pytest.raises(ContractViolation, match="nothing is visible at any FWQI scale on this display, whose "
                                                 "Nyquist frequency is 9.59505e[+]09 cycles/degree"):
        fwqi_approx(ref, plane, (16, 16), geom)


def test_reference_checks_test_plane_shape():
    ref = FrameReference(np.zeros((16, 16), np.uint8))
    with pytest.raises(ContractViolation):
        ssim_map(ref, np.zeros((16, 17), np.uint8))
    with pytest.raises(ContractViolation):
        fwqi_approx(ref, np.zeros((17, 16), np.uint8), (8, 8), DisplayGeometry(0.02, 0.012, 16, 16))
