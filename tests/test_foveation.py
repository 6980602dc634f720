import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fmvc.errors import ContractViolation
from fmvc.foveation import (
    CsfParams,
    DEFAULT_CSF,
    DisplayGeometry,
    FoveationMap,
    LevelMap,
    contrast_threshold,
    cutoff_frequency,
    default_geometry,
    display_nyquist,
    eccentricity,
    error_sensitivity,
    foveation_map,
    gaussian_map,
    quantize_map,
)

HD_GEOMETRY = DisplayGeometry(0.02, 0.012, 1920, 1080)


def bisect_full_contrast_frequency(ecc_deg, params=DEFAULT_CSF, tol=1e-12):
    """Independent oracle: solve contrast_threshold(f, e) = 1 by bisection."""
    lo, hi = 0.0, 1000.0
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        if params.ct0 * math.exp(params.alpha * mid * (ecc_deg + params.e2) / params.e2) > 1.0:
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2.0


def test_threshold_at_zero_frequency_is_floor():
    for e in (0.0, 1.0, 10.0):
        assert contrast_threshold(0.0, e) == 1.0 / 64.0


def test_threshold_direct_evaluation():
    # frozen: 0.015625 * exp(0.106 * 10 * (0 + 2.3) / 2.3)
    assert contrast_threshold(10.0, 0.0) == pytest.approx(0.04509954670731185, abs=1e-15)


def test_threshold_monotone_in_eccentricity():
    assert contrast_threshold(10.0, 10.0) > contrast_threshold(10.0, 0.0)


def test_threshold_rejects_negative_inputs():
    with pytest.raises(ContractViolation):
        contrast_threshold(-1.0, 0.0)
    with pytest.raises(ContractViolation):
        contrast_threshold(0.0, -0.5)


def test_sensitivity_is_reciprocal():
    # sensitivity is the reciprocal of the threshold
    assert 1 / contrast_threshold(0.0, 5.0) == 64.0
    for f, e in ((0.0, 0.0), (3.0, 1.5), (10.0, 0.0), (7.7, 21.0)):
        assert (1 / contrast_threshold(f, e)) * contrast_threshold(f, e) == pytest.approx(1.0, abs=1e-12)
    assert 1 / contrast_threshold(10.0, 0.0) == pytest.approx(1.0 / 0.04509954670731185, rel=1e-13)


def test_cutoff_at_fovea():
    # frozen: ln(64) / 0.106
    assert cutoff_frequency(0.0) == pytest.approx(39.23474606943086, abs=1e-9)
    assert cutoff_frequency(0.0) == pytest.approx(bisect_full_contrast_frequency(0.0), abs=1e-6)


def test_cutoff_halves_at_half_resolution_eccentricity():
    assert cutoff_frequency(2.3) == pytest.approx(cutoff_frequency(0.0) / 2.0, abs=1e-9)


def test_cutoff_decreasing_and_vanishing():
    eccs = np.linspace(0.0, 80.0, 50)
    values = cutoff_frequency(eccs)
    assert np.all(np.diff(values) < 0)
    assert cutoff_frequency(1e9) < 1e-6


def test_error_sensitivity_foveal_is_one():
    fm0 = cutoff_frequency(0.0)
    for f in (0.0, 1.0, 10.0, fm0 * 0.999, fm0):
        assert error_sensitivity(f, 0.0) == 1.0


def test_error_sensitivity_exponential_branch():
    # frozen: exp(-0.106 * 10 * 2.3 / 2.3); cutoff at e=2.3 is 19.6 > 10
    assert error_sensitivity(10.0, 2.3) == pytest.approx(0.3464558103300574, abs=1e-15)


def test_error_sensitivity_beyond_cutoff_is_zero():
    # frozen: cutoff_frequency(10) = 7.3365785 < 10
    assert cutoff_frequency(10.0) == pytest.approx(7.3365785333082085, abs=1e-12)
    assert error_sensitivity(10.0, 10.0) == 0.0


def test_error_sensitivity_bounds(rng):
    f = rng.uniform(0, 50, 200)
    e = rng.uniform(0, 80, 200)
    v = error_sensitivity(f, e)
    assert np.all((v >= 0.0) & (v <= 1.0))


def test_eccentricity_at_gaze_is_zero():
    assert eccentricity((640, 360), (640, 360), HD_GEOMETRY) == 0.0


def test_eccentricity_oracle():
    # frozen: atan((960 px * 0.02/1920 m) / 0.012 m) in degrees
    e = eccentricity((960 + 640, 360), (640, 360), HD_GEOMETRY)
    assert e == pytest.approx(39.8055710922652, abs=1e-10)


def test_eccentricity_radial_symmetry():
    g = (900.0, 500.0)
    for a in (1, 17, 333):
        left = eccentricity((g[0] - a, g[1]), g, HD_GEOMETRY)
        right = eccentricity((g[0] + a, g[1]), g, HD_GEOMETRY)
        assert left == right


def test_display_nyquist_oracle():
    # frozen: ((pi/180) * 0.012 / (0.02/1920)) / 2
    assert display_nyquist(HD_GEOMETRY) == pytest.approx(10.05309649148734, abs=1e-12)


def test_display_nyquist_scalings():
    base = display_nyquist(HD_GEOMETRY)
    farther = DisplayGeometry(0.02, 0.024, 1920, 1080)
    denser = DisplayGeometry(0.02, 0.012, 3840, 1080)
    assert display_nyquist(farther) == pytest.approx(2 * base, rel=1e-12)
    assert display_nyquist(denser) == pytest.approx(2 * base, rel=1e-12)


def test_foveation_map_gaze_is_one_and_radially_nonincreasing():
    geom = default_geometry(64, 48)
    fmap = foveation_map(geom, (32, 24))
    assert fmap.values[24, 32] == 1.0
    row = fmap.values[24, 32:]
    col = fmap.values[24:, 32]
    diag = fmap.values[24 + np.arange(24), 32 + np.arange(24)]
    for ray in (row, col, diag):
        assert np.all(np.diff(ray) <= 1e-15)


def test_foveation_map_zero_beyond_cutoff():
    geom = default_geometry(352, 288)
    fmap = foveation_map(geom, (0, 0))
    corner_ecc = eccentricity((351, 287), (0, 0), geom)
    assert cutoff_frequency(corner_ecc) < display_nyquist(geom)
    assert fmap.values[287, 351] == 0.0


def test_foveation_map_gaze_bounds():
    geom = default_geometry(64, 48)
    with pytest.raises(ContractViolation):
        foveation_map(geom, (64, 0))
    with pytest.raises(ContractViolation):
        foveation_map(geom, (0, -1))


def test_quantize_examples():
    vals = np.array([[1.0, 0.031, 0.0625, 0.9374, 0.9375]])
    lm = quantize_map(FoveationMap(vals, (0, 0)), 16)
    assert lm.levels.tolist() == [[15, 0, 1, 14, 15]]


@given(st.integers(2, 256), st.lists(st.floats(0.0, 1.0), max_size=20))
def test_quantize_matches_floor_formula(n, extra):
    # every threshold j/n, one ulp either side of it, 0.0 and 1.0
    thresholds = np.arange(n + 1) / n
    near = [thresholds, np.nextafter(thresholds, -np.inf), np.nextafter(thresholds, np.inf)]
    values = np.clip(np.concatenate([*near, [0.0, 1.0], extra]), 0.0, 1.0)
    got = quantize_map(FoveationMap(values[None, :], (0, 0)), n).levels[0]
    assert np.array_equal(got, np.minimum(np.floor(values * n), n - 1))


def test_quantize_has_at_most_n_values(rng):
    fmap = FoveationMap(rng.uniform(0, 1, (20, 30)), (0, 0))
    lm = quantize_map(fmap, 16)
    assert len(np.unique(lm.levels)) <= 16
    assert lm.levels.max() <= 15
    with pytest.raises(ContractViolation):
        quantize_map(fmap, 1)


def test_quantize_rejects_levels_beyond_uint8(rng):
    # levels are uint8: 257 levels would wrap (300 sends 1.0 to 43), not clamp
    fmap = FoveationMap(rng.uniform(0, 1, (4, 5)), (0, 0))
    assert quantize_map(fmap, 256).levels.max() <= 255
    # n past int64 is rejected before the uint8 cast could warn
    for n in (257, 300, 2**70, 10**30, -(10**30)):
        with pytest.raises(ContractViolation):
            quantize_map(fmap, n)
    with pytest.raises(ContractViolation):
        LevelMap(np.zeros((4, 5), np.uint8), 257)


def test_gaussian_map_shape():
    fmap = gaussian_map((0, 0), 16.0, 64, 32)
    assert fmap.values[0, 0] == 1.0
    assert fmap.values[0, 16] == pytest.approx(0.6065306597126334, abs=1e-15)  # exp(-1/2)
    assert fmap.values[16, 0] == pytest.approx(0.6065306597126334, abs=1e-15)


def test_gaussian_fmsc_dominance():
    wide = gaussian_map((32, 24), 24.0, 64, 48)
    narrow = gaussian_map((32, 24), 12.0, 64, 48)
    assert np.all(wide.values >= narrow.values)
    with pytest.raises(ContractViolation):
        gaussian_map((0, 0), 0.0, 8, 8)


@pytest.mark.parametrize("sigma", [1e-300, 1e-170, -1.0, 1e160, math.inf, math.nan])
def test_gaussian_sigma_with_degenerate_variance_rejected(sigma):
    # 2 * sigma**2 underflows to zero or is not finite: rejected before any division
    with pytest.raises(ContractViolation):
        gaussian_map((1, 1), sigma, 4, 4)


def test_gaussian_with_tiny_variance_is_a_point():
    # 2 * sigma**2 is subnormal but nonzero: far samples overflow to -inf in
    # the exponent, which is exactly 0, and no warning is raised
    fmap = gaussian_map((1, 1), 1e-160, 4, 4)
    expected = np.zeros((4, 4))
    expected[1, 1] = 1.0
    assert np.array_equal(fmap.values, expected)


def test_quantized_gaussian_dominance():
    wide = quantize_map(gaussian_map((32, 24), 24.0, 64, 48), 16)
    narrow = quantize_map(gaussian_map((32, 24), 12.0, 64, 48), 16)
    assert np.all(wide.levels >= narrow.levels)


def test_csf_params_validation():
    with pytest.raises(ContractViolation):
        CsfParams(alpha=0.0)
    with pytest.raises(ContractViolation):
        CsfParams(ct0=1.0)
    with pytest.raises(ContractViolation):
        DisplayGeometry(0.0, 0.012, 10, 10)


@pytest.mark.parametrize(
    "screen_width, distance",
    [(-0.1, 0.012), (math.nan, 0.012), (math.inf, 0.012), (0.02, math.nan), (0.02, math.inf)],
)
def test_geometry_must_be_positive_and_finite(screen_width, distance):
    with pytest.raises(ContractViolation):
        DisplayGeometry(screen_width, distance, 10, 10)


@pytest.mark.parametrize("bad", [math.nan, -0.5, 1.5])
def test_map_values_must_lie_in_unit_range(bad):
    values = np.full((4, 5), 0.5)
    values[2, 3] = bad
    with pytest.raises(ContractViolation):
        FoveationMap(values, (0, 0))
