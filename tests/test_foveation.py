import gc
import hashlib
import math
import re
import warnings
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fmvc.allocation
import fmvc.foveation
from fmvc.allocation import block_levels
from fmvc.cli import main
from fmvc.errors import ContractViolation
from fmvc.foveation import (
    ALPHA,
    CT0,
    DEFAULT_SCREEN_WIDTH_M,
    E2,
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
    _quantized,
    radial_gather,
)
from fmvc.metrics import fwqi_approx
from fmvc.transform import tile_reduce
from fmvc.video_io import write_y4m

from conftest import pan_clip

HD_GEOMETRY = DisplayGeometry(0.02, 0.012, 1920, 1080)
EMPTY_SLOT = (None, np.empty((0, 0)))  # fmvc.foveation._slot before any whole-pixel map is built


def bisect_full_contrast_frequency(ecc_deg, tol=1e-12):
    """Independent oracle: solve contrast_threshold(f, e) = 1 by bisection."""
    lo, hi = 0.0, 1000.0
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        if CT0 * math.exp(ALPHA * mid * (ecc_deg + E2) / E2) > 1.0:
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


def test_foveation_map_evaluates_only_inside_the_visibility_radius(monkeypatch):
    # at the 720p default the map is 0 beyond r* = 151.6 px, so the window is |dx|, |dy| <= 153
    seen = []

    def counting_gather(dx, dy, fn):
        seen.append(dx.size * dy.size)
        return radial_gather(dx, dy, fn)

    monkeypatch.setattr(fmvc.foveation, "radial_gather", counting_gather)
    monkeypatch.setattr(fmvc.foveation, "_slot", EMPTY_SLOT)  # so the geometry's offset table is built here
    fmap = foveation_map(default_geometry(1280, 720), (640, 360))
    assert len(seen) == 1 and seen[0] <= (2 * 153 + 1) ** 2
    assert fmap.values[360, 640 + 151] > 0.0 and fmap.values[360, 640 + 152] == 0.0


# SHA-256 of quantize_map(foveation_map(default_geometry(w, h), gaze), 16).levels,
# taken before the map was pruned to its visibility radius and quantized in strips
LEVEL_DIGESTS = {
    (1280, 720, (640, 360)): "10c3e55f9166199353fc8f14f00ce84fe7ec960e7331852db417e34bc0929b8d",
    (1280, 720, (619, 336)): "cb9300d1ee27b7e6e3245c27824f54b9ff6c4364fa089c7b904a66c31d239cdd",
    (1280, 720, (0, 0)): "a28892991a99f9dd46ab665a29e8fdacafee3ddfac8da08cd78512c76a749d91",
    (1280, 720, (1279, 719)): "770804e64833e03ee094eb75f4b53b0809043f69db5c46b0834307036a0ebe09",
    (352, 288, (176, 144)): "a73df73c47141636c0267543447fe210b56148b3b0177c5c35f85fbb1ead00c1",
}


@pytest.mark.parametrize("w, h, gaze", LEVEL_DIGESTS)
def test_csf_level_map_digests(w, h, gaze):
    levels = quantize_map(foveation_map(default_geometry(w, h), gaze), 16).levels
    assert levels.shape == (h, w) and levels.dtype == np.uint8
    assert hashlib.sha256(levels.tobytes()).hexdigest() == LEVEL_DIGESTS[w, h, gaze]


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


@pytest.mark.parametrize("shape", [(300, 257), (3, 70000)])
def test_quantize_matches_floor_formula_across_strips(shape, rng):
    # values-only maps larger than the hypothesis test below draws, one of them with 70000-sample rows
    values = rng.uniform(0, 1, shape)
    values[0, :3] = [0.0, 1.0, np.nextafter(1.0, 0.0)]
    got = quantize_map(FoveationMap(values, (0, 0)), 16).levels
    assert np.array_equal(got, np.minimum(np.floor(values * 16), 15))


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


@pytest.mark.parametrize("n", [2.5, 16.0, "16", None], ids=["fraction", "float", "text", "none"])
def test_a_level_count_is_an_integer(n):
    fmap = gaussian_map((2, 2), 3.0, 5, 4)
    with pytest.raises(ContractViolation, match=re.escape(f"level count must be an integer in [2, 256], got {n!r}")):
        quantize_map(fmap, n)
    with pytest.raises(ContractViolation, match="level count must be an integer"):
        LevelMap(np.zeros((4, 5), np.uint8), n)
    assert quantize_map(fmap, np.int64(16)) == quantize_map(fmap, 16)


def test_levels_must_lie_below_n():
    # checked over the whole grid of a level map given only levels, its last row and column included
    levels = np.zeros((4, 5), np.uint8)
    levels[3, 4] = 15
    assert LevelMap(levels, 16).n == 16
    levels[3, 4] = 16
    with pytest.raises(ContractViolation, match="exceed"):
        LevelMap(levels, 16)
    with pytest.raises(ContractViolation, match="exceed"):
        replace(quantize_map(gaussian_map((0, 0), 1.0, 5, 4), 16), levels=levels)


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
        DisplayGeometry(0.0, 0.012, 10, 10)


@pytest.mark.parametrize(
    "screen_width, distance",
    [(-0.1, 0.012), (math.nan, 0.012), (math.inf, 0.012), (0.02, math.nan), (0.02, math.inf)],
)
def test_geometry_must_be_positive_and_finite(screen_width, distance):
    with pytest.raises(ContractViolation):
        DisplayGeometry(screen_width, distance, 10, 10)


POSITIVE_LENGTHS = st.floats(min_value=5e-324, max_value=np.finfo(np.float64).max) | st.floats(1e-4, 10.0)
FRAME_32 = np.random.default_rng(32).integers(0, 256, (2, 32, 32), dtype=np.uint8)


@settings(max_examples=200)
@given(screen_width=POSITIVE_LENGTHS, distance=POSITIVE_LENGTHS,
       gaze=st.sampled_from([(16, 16), (0, 31), (3.5, 30.25)]))
@example(screen_width=5e-324, distance=0.012, gaze=(16, 16)).via("a pixel pitch of 0")
@example(screen_width=0.02, distance=5e-324, gaze=(16, 16)).via("a display Nyquist frequency of 0")
@example(screen_width=1e308, distance=1e-308, gaze=(16, 16)).via("a viewing distance of 0 px")
@example(screen_width=0.02, distance=1e-320, gaze=(16, 16)).via("a subnormal viewing distance")
@example(screen_width=1e-300, distance=1e300, gaze=(16, 16)).via("an infinite viewing distance in pixels")
def test_a_geometry_is_rejected_or_maps_and_scores_in_range(screen_width, distance, gaze):
    try:
        geom = DisplayGeometry(screen_width, distance, 32, 32)
    except ContractViolation:
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = foveation_map(geom, gaze).values
        assert 0.0 <= values.min() and values.max() <= 1.0
        try:
            score = fwqi_approx(FRAME_32[0], FRAME_32[1], gaze, geom)
        except ContractViolation as exc:  # a geometry under which the reference shows nothing
            assert "nothing is visible at any FWQI scale on this display" in str(exc)
        else:
            assert 0.0 <= score <= 1.0


@pytest.mark.parametrize("bad", [math.nan, -0.5, 1.5])
def test_map_values_must_lie_in_unit_range(bad):
    values = np.full((4, 5), 0.5)
    values[2, 3] = bad
    with pytest.raises(ContractViolation):
        FoveationMap(values, (0, 0))


def gazes(w, h):
    """Integer gazes, gazes between samples, and gazes on the frame's edges."""
    edge = st.sampled_from([0.0, float(np.nextafter(w, 0))]), st.sampled_from([0.0, float(np.nextafter(h, 0))])
    return st.one_of(
        st.tuples(st.integers(0, w - 1), st.integers(0, h - 1)),
        st.tuples(st.floats(0, w, exclude_max=True), st.floats(0, h, exclude_max=True)),
        st.tuples(*edge),
        st.tuples(edge[0], st.integers(0, h - 1)),
    )


@st.composite
def built_maps(draw):
    """Maps as foveation_map and gaussian_map build them, over geometries, sizes, gazes and widths
    where the map is 0 nearly everywhere, nowhere, or (an underflowing gaussian) but at one point."""
    w, h = draw(st.integers(1, 200)), draw(st.integers(1, 150))
    gaze = draw(gazes(w, h))
    if draw(st.booleans()):
        geom = DisplayGeometry(draw(st.floats(0.002, 2.0)), draw(st.floats(0.002, 5.0)), w, h)
        return foveation_map(geom, gaze)
    return gaussian_map(gaze, draw(st.one_of(st.floats(0.05, 400.0), st.just(1e-150))), w, h)


@settings(max_examples=150, deadline=None)
@given(built_maps(), st.integers(2, 16))
def test_built_maps_quantize_as_their_values_do(m, n):
    # a built map's table gives the levels and block levels of the identity table over its
    # values, and equality ignores the table
    values_only = FoveationMap(m.values.copy(), m.gaze)
    levels = quantize_map(m, n)
    assert np.array_equal(levels.levels, quantize_map(values_only, n).levels)
    assert np.array_equal(block_levels(levels), tile_reduce(levels.levels, np.maximum))
    assert m == values_only and levels == quantize_map(values_only, n)


@pytest.mark.parametrize("build", [
    lambda: foveation_map(default_geometry(1280, 720), (619.5, 336)),
    lambda: gaussian_map((176, 144), 72.0, 352, 288),
])
def test_built_maps_never_take_the_dense_paths(monkeypatch, build):
    # quantize_map must quantize the map's small table, not an identity table over its W x H
    # values, and block_levels must reduce no more than the level map's window widened to whole tiles
    m = build()
    quantized, reduced = [], []
    monkeypatch.setattr(fmvc.foveation, "_quantized", lambda v, n: quantized.append(v.shape) or _quantized(v, n))
    monkeypatch.setattr(fmvc.allocation, "tile_reduce", lambda p, f: reduced.append(p.shape) or tile_reduce(p, f))
    levels = quantize_map(m, 16)
    grid = block_levels(levels)
    table = m._table[0]
    assert quantized == [table.shape] and table.size < m.values.size / 3
    rows, cols = m._table[3]
    tiles = [-(-stop // 8) * 8 - start // 8 * 8 for start, stop in ((rows.start, rows.stop), (cols.start, cols.stop))]
    assert len(reduced) == 1 and reduced[0][0] <= tiles[0] and reduced[0][1] <= tiles[1]
    assert np.array_equal(grid, tile_reduce(levels.levels, np.maximum))


def test_a_replaced_map_takes_the_dense_paths():
    # the table and the window describe the values they were built with: replace must drop them
    # for the identity table over the new values and the whole grid
    flat = replace(gaussian_map((8, 8), 4.0, 16, 16), values=np.full((16, 16), 0.5))
    assert (quantize_map(flat, 16).levels == 8).all()
    levels = quantize_map(foveation_map(default_geometry(640, 360), (5, 5)), 16)
    assert not block_levels(levels)[-1].any()  # the map is 0 past r*, about 76 px here
    assert (block_levels(replace(levels, levels=np.full((360, 640), 15, np.uint8))) == 15).all()


@st.composite
def maps_of_every_kind(draw):
    """(map, n): a map given only values, a built map, or a built map given new values by replace.
    New values lie in [0, 1] and hold every j/n and its two float neighbours, as far as the grid has room."""
    n = draw(st.integers(2, 16))
    kind = draw(st.sampled_from(["values", "built", "replaced"]))
    if kind == "built":
        return draw(built_maps()), n
    built = draw(built_maps()) if kind == "replaced" else None
    h, w = built.values.shape if built else (draw(st.integers(1, 150)), draw(st.integers(1, 200)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    steps = np.arange(n + 1) / n
    edges = np.clip(np.concatenate([steps, np.nextafter(steps, -1.0), np.nextafter(steps, 2.0)]), 0.0, 1.0)
    flat = np.where(rng.random(h * w) < draw(st.floats(0, 1)), rng.choice(edges, h * w), rng.random(h * w))
    flat[: len(edges)] = rng.permutation(edges)[: h * w]
    values = rng.permutation(flat).reshape(h, w)
    return (replace(built, values=values) if built else FoveationMap(values, (0, 0))), n


def tile_maxima(levels: np.ndarray) -> np.ndarray:
    """The maximum of each 8 x 8 tile, partial edge tiles included, by zero padding."""
    h, w = levels.shape
    padded = np.zeros((-(-h // 8) * 8, -(-w // 8) * 8), levels.dtype)
    padded[:h, :w] = levels
    return padded.reshape(padded.shape[0] // 8, 8, padded.shape[1] // 8, 8).max(axis=(1, 3))


@settings(max_examples=120, deadline=None)
@given(maps_of_every_kind())
def test_every_kind_of_map_takes_the_one_path(case):
    # values-only maps, built maps and replace results all quantize through their table into
    # min(floor(v * n), n - 1), and block_levels is the tile maximum, for level maps given only levels too
    m, n = case
    levels = quantize_map(m, n)
    expected = np.minimum(np.floor(m.values * n), n - 1)
    assert levels.levels.dtype == np.uint8 and np.array_equal(levels.levels, expected)
    assert np.array_equal(block_levels(levels), tile_maxima(expected))
    flipped = levels.levels[::-1, ::-1].copy()
    for given_levels in (replace(levels, levels=flipped), LevelMap(flipped, n)):
        assert np.array_equal(block_levels(given_levels), tile_maxima(flipped))


@pytest.mark.parametrize("width, height", [(2.5, 4), (4, 2.5), (4.0, 4), (0, 4), (4, -1), ("4", 4), (None, 4)])
def test_a_frame_size_is_two_positive_integers(width, height):
    # a fractional size used to be accepted and fail later in numpy's bare TypeError
    with pytest.raises(ContractViolation, match="positive integers"):
        DisplayGeometry(0.02, 0.012, width, height)
    with pytest.raises(ContractViolation, match="positive integers"):
        gaussian_map((0, 0), 4.0, width, height)
    assert DisplayGeometry(0.02, 0.012, np.int64(4), 3).width_px == 4
    assert gaussian_map((0, 0), 4.0, np.int16(3), 2).values.shape == (2, 3)


# --- whole-pixel gazes read offset tables -------------------------------

# two geometries that differ only in viewing distance: at 3.5 m the map is 0 past about 13 px,
# so its table is clipped to the visibility radius inside a 24 x 17 frame
SMALL = (24, 17)
NEAR, FAR = default_geometry(*SMALL), DisplayGeometry(DEFAULT_SCREEN_WIDTH_M, 3.5, *SMALL)


def direct_csf(geom, gaze) -> np.ndarray:
    """foveation_map's values as radial_gather evaluates them over every offset: no window, no table."""
    dx, dy = (np.arange(n, dtype=np.float64) - g for n, g in zip((geom.width_px, geom.height_px), gaze))
    freq = display_nyquist(geom)
    table, iy, ix = radial_gather(dx, dy, lambda x, y: error_sensitivity(freq, eccentricity((x, y), (0.0, 0.0), geom)))
    return table.take(iy, axis=0).take(ix, axis=1)


def direct_gaussian(gaze, sigma, width, height) -> np.ndarray:
    """gaussian_map's values as radial_gather evaluates them over every offset, with no table."""
    dx, dy = np.arange(width, dtype=np.float64) - gaze[0], np.arange(height, dtype=np.float64) - gaze[1]
    denom = 2.0 * sigma * sigma
    with np.errstate(over="ignore"):
        table, iy, ix = radial_gather(dx, dy, lambda x, y: np.exp(-(x**2 + y**2) / denom))
    return table.take(iy, axis=0).take(ix, axis=1)


def from_a_cached_table(m) -> bool:
    return np.shares_memory(m._table[0], fmvc.foveation._slot[1])


def test_whole_pixel_maps_are_the_direct_evaluation_at_every_gaze(monkeypatch):
    # the slot's key alternates between both geometries and two gaussian widths as the gazes walk the
    # frame; every map is byte for byte the direct evaluation, for each geometry with its own viewing distance
    monkeypatch.setattr(fmvc.foveation, "_slot", EMPTY_SLOT)
    w, h = SMALL
    assert 0.0 in direct_csf(FAR, (0, 0))[-1] and 0.0 not in direct_csf(NEAR, (0, 0))
    for gaze in ((x, y) for y in range(h) for x in range(w)):
        for geom in (NEAR, FAR):
            m = foveation_map(geom, gaze)
            assert from_a_cached_table(m) and m.values.tobytes() == direct_csf(geom, gaze).tobytes()
        for sigma in (2.0, h / 4):
            m = gaussian_map(gaze, sigma, w, h)
            assert from_a_cached_table(m) and m.values.tobytes() == direct_gaussian(gaze, sigma, w, h).tobytes()


@pytest.mark.parametrize("w, h, stride", [(352, 288, 41), (1280, 720, 213)])
def test_whole_pixel_maps_are_the_direct_evaluation_on_a_gaze_grid(w, h, stride):
    geom = default_geometry(w, h)
    for gaze in ((x, y) for y in [*range(0, h, stride), h - 1] for x in [*range(0, w, stride), w - 1]):
        assert foveation_map(geom, gaze).values.tobytes() == direct_csf(geom, gaze).tobytes()
        for k in (10, 4):
            assert gaussian_map(gaze, h / k, w, h).values.tobytes() == direct_gaussian(gaze, h / k, w, h).tobytes()


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_other_gazes_keep_the_direct_evaluation(data):
    # a gaze off the pixel grid, or (for a gaussian) off the frame, is evaluated as before the tables
    w, h = data.draw(st.integers(1, 60)), data.draw(st.integers(1, 40))
    inside = st.tuples(st.floats(0, w, exclude_max=True), st.floats(0, h, exclude_max=True))
    gaze = data.draw(inside.filter(lambda g: not (g[0].is_integer() and g[1].is_integer())))
    geom = data.draw(st.sampled_from([default_geometry(w, h), DisplayGeometry(DEFAULT_SCREEN_WIDTH_M, 3.5, w, h)]))
    m = foveation_map(geom, gaze)
    assert not from_a_cached_table(m) and m.values.tobytes() == direct_csf(geom, gaze).tobytes()
    sigma = data.draw(st.floats(0.05, 400.0))
    gaze = data.draw(st.one_of(inside, st.tuples(st.integers(-3 * w, 4 * w), st.integers(-3 * h, 4 * h))))
    m = gaussian_map(gaze, sigma, w, h)
    whole = all(float(v).is_integer() for v in gaze) and 0 <= gaze[0] < w and 0 <= gaze[1] < h
    assert from_a_cached_table(m) == whole and m.values.tobytes() == direct_gaussian(gaze, sigma, w, h).tobytes()


def test_the_slot_keeps_one_read_only_table_that_grows_for_a_farther_gaze(monkeypatch):
    monkeypatch.setattr(fmvc.foveation, "_slot", EMPTY_SLOT)
    geom = default_geometry(16, 12)
    maps = [gaussian_map((5, 5), 1.0 + k, 16, 12) for k in range(3)]
    maps.append(foveation_map(geom, (3, 4)))
    key, table = fmvc.foveation._slot
    assert key == geom and [from_a_cached_table(m) for m in maps] == [False, False, False, True]
    for t in [table, *(m._table[0] for m in maps)]:
        assert not t.flags.writeable
        with pytest.raises(ValueError):
            t[0, 0] = 0.5
    # a farther gaze widens the table to every offset read so far; a nearer one reads a slice of it
    gaussian_map((5, 5), 3.0, 16, 12)
    assert fmvc.foveation._slot[0] == 2.0 * 3.0 * 3.0 and fmvc.foveation._slot[1].shape == (7, 11)
    gaussian_map((0, 0), 3.0, 16, 12)
    table = fmvc.foveation._slot[1]
    assert table.shape == (12, 16)
    assert gaussian_map((8, 6), 3.0, 16, 12)._table[0].shape == (7, 9) and fmvc.foveation._slot[1] is table
    # once its maps are gone, no earlier table is kept anywhere
    built = [weakref.ref(m._table[0].base) for m in maps]
    del maps, t
    gc.collect()
    assert [ref() is None for ref in built] == [True] * 4


def table_builds(monkeypatch) -> list:
    """Weak references to the offset tables built from here on, from an empty slot, as a radial_gather
    spy sees them: a table is its function over the offsets 0, 1, 2, ... on each axis."""
    monkeypatch.setattr(fmvc.foveation, "_slot", EMPTY_SLOT)
    built = []

    def spy(dx, dy, fn):
        gathered = radial_gather(dx, dy, fn)
        if all(np.array_equal(d, np.arange(d.size)) for d in (dx, dy)):
            built.append(weakref.ref(gathered[0]))
        return gathered

    monkeypatch.setattr(fmvc.foveation, "radial_gather", spy)
    return built


def test_map_traffic_builds_one_table_per_run_of_a_key(monkeypatch):
    # the benchmark's map traffic: every frame's centre-gaze CIF gaussian at H/4, and the 720p
    # CSF maps around a walk that starts at the centre and moves 8 to 40 px per axis per frame
    built = table_builds(monkeypatch)
    for _ in range(8):
        assert gaussian_map((176, 144), 288 / 4, 352, 288).values.shape == (288, 352)
    assert len(built) == 1
    built.clear()
    for gaze in [(640, 360), (628, 322), (619, 336), (593, 315)]:
        assert foveation_map(default_geometry(1280, 720), gaze).values.shape == (720, 1280)
    assert len(built) == 1


@pytest.mark.parametrize("fmsc_set", ["H/4", "H/4,H/2", "H/10,H/8,H/6,H/4,H/3,H/2"])
def test_a_centre_gaze_sweep_builds_a_table_per_key_and_keeps_one(monkeypatch, tmp_path, fmsc_set):
    clip = tmp_path / "small.y4m"
    with open(clip, "wb") as fh:
        write_y4m(pan_clip(64, 64, 3, step=3, seed=5), fh)
    built = table_builds(monkeypatch)
    argv = ["rd-sweep", "--input", str(clip), "--out", str(tmp_path / "sweep.csv"), "--gaze", "center"]
    assert main([*argv, "--fmsc-set", fmsc_set]) == 0
    gc.collect()
    # the CSF map, then each chain's gaussian, built once for the whole clip
    assert len(built) == len(fmsc_set.split(",")) + 1
    assert [ref() is not None for ref in built] == [False] * (len(built) - 1) + [True]
    assert built[-1]() is fmvc.foveation._slot[1]


def test_a_built_map_gathers_its_values_on_their_first_read():
    m = gaussian_map((7, 3), 4.0, 16, 12)
    assert "values" not in vars(m)
    values = m.values
    assert m.values is values and values.dtype == np.float64 and values.shape == (12, 16)
    assert [f.name for f in fields(m)] == ["values", "gaze"]
    assert m == FoveationMap(values.copy(), (7.0, 3.0)) == gaussian_map((7, 3), 4.0, 16, 12)
    moved = replace(gaussian_map((7, 3), 4.0, 16, 12), gaze=(1, 1))
    assert moved.gaze == (1, 1) and np.array_equal(moved.values, values)
    with pytest.raises(AttributeError):
        m.no_such_field
