"""Differential tests: each vectorized kernel against its reference in kernelref.

Sizes run from 1 to 40 px, so partial edge tiles and shifts longer than the
plane are covered.  Every comparison is exact.
"""

import functools
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kernelref as ref
from fmvc.codec import MAX_Q_BASE, QuantSchedule, _ENVELOPE, _SAD_MARGIN, _T32, _round_div_half_away
from fmvc.displacement import (
    CATALOGUE,
    Axis,
    Displacement,
    DisplacementField,
    choose_displacements,
    displaced_difference,
    predicted_plane,
)
from fmvc.errors import ContractViolation
from fmvc.foveation import DEFAULT_CSF, CsfParams, DisplayGeometry, display_nyquist, foveation_map, gaussian_map
from fmvc.metrics import _subband_weights
from fmvc.transform import (
    FORWARD_INT32_LIMIT,
    FORWARD_MATRIX,
    FORWARD_ROUNDING,
    INVERSE_INT32_LIMIT,
    _FP,
    _fwd8,
    _inv8,
    _lifting_input,
    edge_padded,
    forward_blocks,
    grid_shape,
    inverse_blocks,
    tile_reduce,
)
from fmvc.video_io import FramePlane

sides = st.integers(1, 40)
seeds = st.integers(0, 2**32 - 1)


def _rng(seed):
    return np.random.default_rng(seed)


# --- tiles and shifts -----------------------------------------------------


@given(sides, sides, seeds, st.sampled_from([np.uint8, np.int32, np.int64]))
def test_tile_reduce_matches_double_reduceat(h, w, seed, dtype):
    plane = _rng(seed).integers(0, 256, (h, w)).astype(dtype)
    for ufunc in (np.add, np.maximum):
        got, want = tile_reduce(plane, ufunc), ref.tile_reduce(plane, ufunc)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


@given(sides, sides, seeds, st.sampled_from([0, 7]), st.integers(0, 9), st.integers(0, 9),
       st.sampled_from([np.uint8, np.int16, np.float64]))
def test_edge_padded_matches_np_pad(h, w, seed, before, below, right, dtype):
    plane = _rng(seed).integers(-300, 300, (h, w)).astype(dtype)
    got = edge_padded(plane, before + h + below, before + w + right, before)
    want = np.pad(plane, ((before, below), (before, right)), mode="edge")
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    assert got.flags.c_contiguous and not np.shares_memory(got, plane)


@given(sides, sides, seeds)
def test_displaced_difference_matches_gather(h, w, seed):
    # every entry, on planes shorter and longer than the shift, against the gather oracle
    rng = _rng(seed)
    cur = rng.integers(0, 256, (h, w), dtype=np.uint8)
    prev = rng.integers(0, 256, (h, w), dtype=np.uint8)
    for d in CATALOGUE:
        got = displaced_difference(FramePlane.from_array(cur), FramePlane.from_array(prev), d).samples
        want = cur.astype(np.int16) - ref.shift_plane(prev, d.axis, d.s)
        assert got.dtype == np.int16
        assert np.array_equal(got, want)


@given(sides, sides, seeds)
def test_choose_displacements_matches_reference(h, w, seed):
    rng = _rng(seed)
    prev = rng.integers(0, 256, (h, w), dtype=np.uint8)
    cur = rng.integers(0, 256, (h, w), dtype=np.uint8)
    if rng.integers(2):  # a shifted copy, so nonzero choices win somewhere
        d = CATALOGUE[rng.integers(len(CATALOGUE))]
        cur = ref.shift_plane(prev, d.axis, d.s).copy()
        cur[: h // 2] = rng.integers(0, 256, (h // 2, w))
    assert choose_displacements(cur, prev) == ref.choose_displacements(cur, prev)


@given(sides, sides)
def test_choose_displacements_at_the_sse_bound(h, w):
    # every difference is 255, so a full block's SSE is 64 * 255**2, the largest there is
    cur, prev = np.full((h, w), 255, np.uint8), np.zeros((h, w), np.uint8)
    assert choose_displacements(cur, prev) == ref.choose_displacements(cur, prev)
    assert not choose_displacements(cur, prev).indices.any()


@given(sides, sides)
def test_choose_displacements_at_the_sse_bound_on_a_searched_reference(h, w):
    # a 0/255 checkerboard reference is not flat, so the search runs; against its
    # complement every zero-shift difference is 255, and each full block's SSE the largest
    prev = (np.indices((h, w)).sum(axis=0) % 2 * 255).astype(np.uint8)
    cur = 255 - prev
    assert choose_displacements(cur, prev) == ref.choose_displacements(cur, prev)


@given(st.integers(2, 40), sides, seeds)
def test_choose_displacements_ties_on_a_searched_reference(h, w, seed):
    # rows of the reference are constant but differ, so the search runs and every
    # horizontal shift ties with the zero shift in every block: none of them may win
    rng = _rng(seed)
    prev = np.repeat(rng.permutation(256)[:h, None], w, axis=1).astype(np.uint8)
    cur = rng.integers(0, 256, (h, w), dtype=np.uint8)
    got = choose_displacements(cur, prev)
    assert got == ref.choose_displacements(cur, prev)
    assert not np.isin(got.indices, [i for i, d in enumerate(CATALOGUE) if d.axis is Axis.HORIZONTAL]).any()


@given(sides, sides, st.integers(0, 255), st.integers(0, 255))
def test_choose_displacements_ties_go_to_zero_shift(h, w, a, b):
    # on constant planes every candidate has the same SSE in every block
    cur, prev = np.full((h, w), a, np.uint8), np.full((h, w), b, np.uint8)
    got = choose_displacements(cur, prev)
    assert got == ref.choose_displacements(cur, prev)
    assert np.array_equal(got.indices, np.zeros(grid_shape((h, w)), np.int8))


@pytest.mark.parametrize("side", range(1, 41))
def test_choose_displacements_partial_tiles(side):
    # side x 40 and 40 x side planes: every partial tile height and width, shifts past the plane
    rng = _rng(side)
    for h, w in ((side, 40), (40, side), (side, side)):
        for _ in range(3):
            prev = rng.integers(0, 256, (h, w), dtype=np.uint8)
            cur = rng.integers(0, 256, (h, w), dtype=np.uint8)
            assert choose_displacements(cur, prev) == ref.choose_displacements(cur, prev)


# --- prediction -----------------------------------------------------------


def _check_prediction(h, w, seed, halve):
    rng = _rng(seed)
    prev = rng.integers(0, 256, (h, w), dtype=np.uint8)
    field = DisplacementField(rng.integers(0, len(CATALOGUE), grid_shape((h, w))).astype(np.int8))
    _check_field(prev, field, halve)


def _check_field(prev, field, halve):
    got = predicted_plane(prev, field, halve_offsets=halve)
    want = ref.predicted_plane(prev, field, halve_offsets=halve)
    assert got.dtype == want.dtype == np.uint8
    assert got.shape == prev.shape
    assert np.array_equal(got, want)
    assert got.flags.c_contiguous
    assert not np.shares_memory(got, prev)


@given(sides, sides, seeds, st.booleans())
def test_predicted_plane_matches_tile_oracle(h, w, seed, halve):
    _check_prediction(h, w, seed, halve)


# Halving maps +-3, +-5, +-7 to +-1, +-2, +-3.  No two entries then share an
# offset, but a halved +-7 reads where an unhalved +-3 does; these pairs mix
# the two entries of one axis and sign in a field.
_PAIRED = [
    [CATALOGUE.index(Displacement(axis, sign * 3)), CATALOGUE.index(Displacement(axis, sign * 7))]
    for axis in (Axis.HORIZONTAL, Axis.VERTICAL)
    for sign in (1, -1)
]


@st.composite
def prediction_fields(draw):
    """A plane and a field that is uniform, uniform but for one block, random,
    tied between two entries for the most blocks, or mixes +-3 with +-7."""
    h, w, kind = draw(sides), draw(sides), draw(st.sampled_from(["uniform", "outlier", "random", "tied", "paired"]))
    rng = _rng(draw(seeds))
    shape = grid_shape((h, w))
    a, b = rng.choice(len(CATALOGUE), 2, replace=False)
    if kind == "paired":
        a, b = _PAIRED[rng.integers(len(_PAIRED))]
    indices = np.full(shape, a)
    if kind == "outlier":
        indices.flat[rng.integers(indices.size)] = b
    elif kind == "random":
        indices = rng.integers(0, len(CATALOGUE), shape)
    elif kind in ("tied", "paired"):
        indices.flat[rng.permutation(indices.size)[: indices.size // 2]] = b
    return rng.integers(0, 256, (h, w), dtype=np.uint8), DisplacementField(indices.astype(np.int8))


@settings(max_examples=300)
@given(prediction_fields(), st.booleans())
def test_predicted_plane_matches_oracle_on_field_kinds(case, halve):
    _check_field(*case, halve)


@pytest.mark.parametrize("h, w", [(1, 1), (5, 7), (8, 8), (9, 17)])
@pytest.mark.parametrize("halve", [False, True])
def test_predicted_plane_small_frames(h, w, halve):
    for seed in range(20):
        _check_prediction(h, w, seed, halve)


def test_predicted_plane_rejects_wrong_grid():
    prev = np.zeros((16, 16), np.uint8)
    with pytest.raises(ContractViolation):
        predicted_plane(prev, DisplacementField(np.zeros((1, 2), np.int8)))


# --- transform ------------------------------------------------------------


def _extreme_planes(rng, n, limit):
    """n blocks laid out (8, 8, n): +-limit in random sign patterns, with some random interiors."""
    blocks = rng.choice([-limit, limit], (8, 8, n))
    blocks[:, :, : n // 2] = rng.integers(-limit, limit + 1, (8, 8, n // 2))
    blocks[:, :, 0] = limit
    blocks[:, :, 1] = -limit
    return blocks


@given(seeds, st.integers(2, 64))
def test_forward_blocks_matches_int64_reference(seed, n):
    blocks = _extreme_planes(_rng(seed), n, FORWARD_INT32_LIMIT)
    assert _lifting_input(blocks, FORWARD_INT32_LIMIT).dtype == np.int32
    got = forward_blocks(blocks)
    assert got.dtype == np.int32
    assert np.array_equal(got, ref.forward_blocks(blocks))


@given(seeds, st.integers(2, 64))
def test_inverse_blocks_matches_int64_reference(seed, n):
    coeffs = _extreme_planes(_rng(seed), n, INVERSE_INT32_LIMIT)
    assert _lifting_input(coeffs, INVERSE_INT32_LIMIT).dtype == np.int32
    got = inverse_blocks(coeffs)
    assert got.dtype == np.int32
    assert np.array_equal(got, ref.inverse_blocks(coeffs))


def test_zero_blocks_invert_to_zero():
    # the reconstruction skips all-zero blocks on this identity
    assert not inverse_blocks(np.zeros((8, 8, 3), np.int64)).any()


@given(seeds, st.integers(1, 64))
def test_hostile_coefficients_take_the_int64_path(seed, n):
    # a decoded int16 codeword times the largest step any schedule holds
    step = max(QuantSchedule(q_base=MAX_Q_BASE).steps)
    rng = _rng(seed)
    coeffs = rng.integers(-(2**15), 2**15, (8, 8, n)) * step
    coeffs[0, 0, 0] = (2**15 - 1) * step
    assert _lifting_input(coeffs, INVERSE_INT32_LIMIT).dtype == np.int64
    assert inverse_blocks(coeffs).dtype == np.int64
    assert np.array_equal(inverse_blocks(coeffs), ref.inverse_blocks(coeffs))
    blocks = rng.integers(-(2**20), 2**20, (8, 8, n))
    blocks[0, 0, 0] = 2**20
    assert forward_blocks(blocks).dtype == np.int64
    assert np.array_equal(forward_blocks(blocks), ref.forward_blocks(blocks))


class _Magnitude:
    """An integer interval; the class records the largest magnitude of any interval made."""

    peak = 0

    def __init__(self, lo, hi):
        self.lo, self.hi = lo, hi
        _Magnitude.peak = max(_Magnitude.peak, -lo, hi)

    @staticmethod
    def _of(v):
        return v if isinstance(v, _Magnitude) else _Magnitude(v, v)

    def __add__(self, other):
        other = self._of(other)
        return _Magnitude(self.lo + other.lo, self.hi + other.hi)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._of(other)
        return _Magnitude(self.lo - other.hi, self.hi - other.lo)

    def __rsub__(self, other):
        return self._of(other) - self

    def __neg__(self):
        return _Magnitude(-self.hi, -self.lo)

    def __mul__(self, k):
        return _Magnitude(min(self.lo * k, self.hi * k), max(self.lo * k, self.hi * k))

    __rmul__ = __mul__

    def __rshift__(self, k):
        return _Magnitude(self.lo >> k, self.hi >> k)


def _peak_intermediate(two_passes, limit):
    """Largest magnitude any lifting intermediate (products included) can
    reach on an 8x8 block of inputs within +-limit."""
    _Magnitude.peak = 0
    block = np.empty((8, 8), dtype=object)
    for i in range(8):
        for j in range(8):
            block[i, j] = _Magnitude(-limit, limit)
    two_passes(block)
    return _Magnitude.peak


def test_int32_bounds_by_magnitude_propagation():
    # the same _fwd8/_inv8 code, run on intervals instead of integers
    forward = _peak_intermediate(lambda b: _fwd8(_fwd8(b.swapaxes(0, 1)).swapaxes(0, 1)), FORWARD_INT32_LIMIT)
    inverse = _peak_intermediate(lambda c: _inv8(_inv8(c).swapaxes(0, 1)), INVERSE_INT32_LIMIT)
    assert forward < 6.6e7 < 2**31
    assert inverse < 1.26e9 < 2**31


def test_inverse_limit_covers_every_dequantized_coefficient():
    # DC and the (4, 4) coefficient are exact sums, 64 * 255 at most; no
    # other coefficient exceeds them
    extremes = np.stack([np.full((8, 8), 255), np.where(np.indices((8, 8)).sum(0) % 2, -255, 255)], axis=-1)
    assert np.abs(forward_blocks(extremes)).max() == 16320
    # a coefficient survives quantization only if step <= 2|c|, and then
    # dequantizes to at most |c| + step / 2; q * step is nondecreasing in |c|
    steps = np.arange(1, 3 * 16320, dtype=np.int64)
    dequantized = _round_div_half_away(np.int64(16320), steps) * steps
    assert dequantized.max() == INVERSE_INT32_LIMIT


def test_float_quotient_matches_integer_division():
    # every coefficient an encoder can produce, at the smallest step, the
    # largest step of any schedule and every step of the default schedule
    values = np.arange(-16320, 16321)
    largest = max(QuantSchedule(q_base=MAX_Q_BASE).steps)
    for step in sorted({1, largest, *QuantSchedule().steps}):
        got = _round_div_half_away(values, np.int64(step))
        assert np.array_equal(got, ref.round_div_half_away(values, step)), step


# --- the linear part and rounding envelope of the forward transform -------


class _Rounding:
    """The rounding a lifting value carries: exact gains on independent
    errors e_s in [-1/2, 1/2], one error per shear."""

    def __init__(self, gains):
        self.gains = gains

    def __add__(self, other):
        gains = dict(self.gains)
        for s, g in other.gains.items():
            gains[s] = gains.get(s, 0) + g
        return _Rounding(gains)

    def __neg__(self):
        return _Rounding({s: -g for s, g in self.gains.items()})

    def __sub__(self, other):
        return self + -other

    def __mul__(self, k):
        return _Rounding({s: g * k for s, g in self.gains.items()})

    __rmul__ = __mul__

    def __truediv__(self, k):
        return _Rounding({s: g / k for s, g in self.gains.items()})


def _forward_2d(block, shear):
    return _fwd8(_fwd8(block.swapaxes(0, 1), shear=shear).swapaxes(0, 1), shear=shear)


@functools.cache
def _exact_linear_part():
    """T as (64, 64) Fractions: the lifting's response to each unit impulse
    with every shear's rounding removed."""
    impulses = np.full((8, 8, 64), Fraction(0), dtype=object)
    for n in range(64):
        impulses[n // 8, n % 8, n] = Fraction(1)
    return _forward_2d(impulses, lambda k, x: k * x / 2**_FP).reshape(64, 64)


@functools.cache
def _exact_envelope():
    """eps as (64,) Fractions: each shear's rounding error, within 1/2,
    carried through the rest of _fwd8 and the column pass, as intervals on
    independent errors.  One interval per value, as _peak_intermediate
    propagates, would treat a value's two uses inside a rotation as
    independent and roughly triple the bound."""
    ids = itertools.count()

    def shear(k, x):
        fresh = np.empty(np.shape(x), dtype=object)
        for i in np.ndindex(fresh.shape):
            fresh[i] = _Rounding({next(ids): Fraction(1)})
        return k * x / 2**_FP + fresh

    block = np.empty((8, 8), dtype=object)
    for i in np.ndindex(8, 8):
        block[i] = _Rounding({})
    out = _forward_2d(block, shear)
    return np.array([sum(map(abs, v.gains.values())) / 2 for v in out.flat], dtype=object)


def test_linear_part_is_the_unrounded_impulse_response():
    exact = _exact_linear_part()
    assert np.abs(FORWARD_MATRIX - exact.astype(np.float64)).max() <= 2.0**-40
    # the SAD stage needs every |T| <= 1 exactly; float32 would read a
    # value just above 1 as 1.0, so the check runs on Fractions
    assert max(abs(v) for v in exact.flat) == 1
    assert all(exact[0] == 1)  # the DC row is the block sum
    assert all(abs(Fraction(float(t)) - v) <= Fraction(1, 2**23) for t, v in zip(_T32.flat, exact.flat))


def test_rounding_envelope_covers_every_shear():
    exact = _exact_envelope()
    assert np.abs(FORWARD_ROUNDING - exact.astype(np.float64)).max() <= 1e-9
    assert _SAD_MARGIN >= 2 * max(exact)
    # the matmul envelope keeps 1/2 over eps for the float32 error (< 1/4 + 2**-10)
    assert all(Fraction(float(e)) >= v + Fraction(1, 2) for e, v in zip(_ENVELOPE[:, 0], exact))


@given(seeds, st.integers(2, 64))
def test_forward_blocks_within_envelope_of_linear_part(seed, n):
    rng = _rng(seed)
    blocks = _extreme_planes(rng, n, FORWARD_INT32_LIMIT)
    blocks[:, :, -1] = rng.integers(-3, 4, (8, 8))  # small residuals too
    flat = blocks.reshape(64, n)
    error = forward_blocks(blocks).reshape(64, n) - FORWARD_MATRIX @ flat
    assert (np.abs(error) <= FORWARD_ROUNDING[:, None] + 1e-9).all()


def test_forward_blocks_within_envelope_on_structured_blocks():
    signs = np.where(np.indices((8, 8)).sum(0) % 2, -1, 1)
    impulses = np.eye(64, dtype=np.int64).reshape(8, 8, 64)
    blocks = np.concatenate(
        [impulses * 255, impulses * -255, np.stack([signs * 255, -signs * 255, np.full((8, 8), 255)], axis=-1)],
        axis=-1,
    )
    error = forward_blocks(blocks).reshape(64, -1) - FORWARD_MATRIX @ blocks.reshape(64, -1)
    assert (np.abs(error) <= FORWARD_ROUNDING[:, None] + 1e-9).all()


# --- foveation maps -------------------------------------------------------

GEOM_SIZES = [(1, 1), (7, 5), (40, 23), (64, 48)]


def _gazes(rng, w, h, n):
    """Integer and fractional gazes, some on the frame's centre lines."""
    out = [(w // 2, h // 2), ((w - 1) / 2, (h - 1) / 2)]
    for k in range(n):
        if k % 2:
            out.append((rng.uniform(0, w), rng.uniform(0, h)))
        else:
            out.append((int(rng.integers(0, w)), int(rng.integers(0, h))))
    return out


@pytest.mark.parametrize("w, h", GEOM_SIZES)
def test_foveation_map_matches_per_pixel_formula(w, h, rng):
    for screen in (0.02, 0.5):
        geom = DisplayGeometry(screen, 0.012, w, h)
        for gaze in _gazes(rng, w, h, 20):
            got = foveation_map(geom, gaze).values
            assert np.array_equal(got, ref.foveation_map_values(geom, gaze, DEFAULT_CSF))


@pytest.mark.parametrize("w, h", GEOM_SIZES)
def test_gaussian_map_matches_per_pixel_formula(w, h, rng):
    for gaze in _gazes(rng, w, h, 20) + [(-3.5, h + 2.25)]:
        sigma = float(rng.uniform(0.3, 2.0 * max(w, h)))
        got = gaussian_map(gaze, sigma, w, h).values
        assert np.array_equal(got, ref.gaussian_map_values(gaze, sigma, w, h))


@pytest.mark.parametrize("w, h", [(16, 16), (48, 32), (64, 48)])
def test_subband_weights_match_per_pixel_formula(w, h, rng):
    geom = DisplayGeometry(0.02, 0.012, w, h)
    for gaze in _gazes(rng, w, h, 10):
        for scale in range(1, 5):
            shape = (max(1, h >> scale), max(1, w >> scale))
            got = _subband_weights(scale, shape, gaze, geom, DEFAULT_CSF)
            assert np.array_equal(got, ref.subband_weights(scale, shape, gaze, geom, DEFAULT_CSF))


@st.composite
def csf_crossing_cases(draw, scale):
    """(geometry, CsfParams, gaze) whose visibility radius at display_nyquist / 2**scale
    is drawn first, mostly inside the frame diagonal, and alpha solved for it."""
    w, h = draw(st.integers(1, 200)), draw(st.integers(1, 200))
    geom = DisplayGeometry(draw(st.floats(0.5e-3, 50e-3)), draw(st.floats(5e-3, 200e-3)), w, h)
    e2, ct0 = draw(st.floats(0.5, 10.0)), draw(st.floats(1e-3, 0.5))
    kind = draw(st.sampled_from(["crossing", "crossing", "under 1 px", "nothing visible", "near 90 degrees"]))
    if kind == "nothing visible":
        e_star = -draw(st.floats(0.0, 0.99)) * e2
    elif kind == "near 90 degrees":
        e_star = 90.0 - draw(st.floats(1e-9, 1e-3))
    else:
        r_star = draw(st.floats(0.0, 1.0 if kind == "under 1 px" else math.hypot(w, h)))
        e_star = math.degrees(math.atan(r_star * geom.pixel_pitch_m / geom.viewing_distance_m))
    freq = display_nyquist(geom) / 2**scale
    params = CsfParams(e2 * math.log(1.0 / ct0) / (freq * (e_star + e2)), e2, ct0)
    gaze = draw(
        st.one_of(
            st.tuples(st.integers(0, w - 1), st.integers(0, h - 1)),
            st.tuples(st.floats(0.0, w, exclude_max=True), st.floats(0.0, h, exclude_max=True)),
            st.sampled_from([(0, 0), (w - 1, 0), (0, h - 1), (w - 1, h - 1)]),
        )
    )
    return geom, params, gaze


@settings(max_examples=300)
@given(csf_crossing_cases(0))
def test_foveation_map_matches_per_pixel_formula_where_the_radius_crosses_the_frame(case):
    geom, params, gaze = case
    got = foveation_map(geom, gaze, params).values
    assert np.array_equal(got, ref.foveation_map_values(geom, gaze, params))


@settings(max_examples=200)
@given(st.integers(1, 4).flatmap(lambda s: st.tuples(st.just(s), csf_crossing_cases(s))))
def test_subband_weights_match_per_pixel_formula_where_the_radius_crosses_the_frame(scale_case):
    scale, (geom, params, gaze) = scale_case
    shape = (max(1, geom.height_px >> scale), max(1, geom.width_px >> scale))
    got = _subband_weights(scale, shape, gaze, geom, params)
    assert np.array_equal(got, ref.subband_weights(scale, shape, gaze, geom, params))
