"""Differential tests: each vectorized kernel against its reference in kernelref.

Sizes run from 1 to 40 px, so partial edge tiles and shifts longer than the
plane are covered.  Every comparison is exact.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import kernelref as ref
from fmvc.codec import MAX_Q_BASE, QuantSchedule, _round_div_half_away
from fmvc.displacement import (
    CATALOGUE,
    Axis,
    DisplacementField,
    choose_displacements,
    predicted_plane,
    shift_plane,
)
from fmvc.errors import ContractViolation
from fmvc.foveation import DEFAULT_CSF, DisplayGeometry, foveation_map, gaussian_map
from fmvc.metrics import _subband_weights
from fmvc.transform import (
    FORWARD_INT32_LIMIT,
    INVERSE_INT32_LIMIT,
    _fwd8,
    _inv8,
    _lifting_input,
    forward_blocks,
    grid_shape,
    inverse_blocks,
    tile_reduce,
)

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


@given(sides, sides, seeds, st.sampled_from(list(Axis)), st.integers(-45, 45))
def test_shift_plane_matches_gather(h, w, seed, axis, s):
    plane = _rng(seed).integers(0, 256, (h, w), dtype=np.uint8)
    if axis is Axis.NONE:
        s = 0
    want = ref.shift_plane(plane, axis, s)
    assert np.array_equal(shift_plane(plane, axis, s), want)
    out = np.full_like(plane, 7)
    assert shift_plane(plane, axis, s, out=out) is out
    assert np.array_equal(out, want)


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


# --- prediction -----------------------------------------------------------


def _check_prediction(h, w, seed, halve):
    rng = _rng(seed)
    prev = rng.integers(0, 256, (h, w), dtype=np.uint8)
    field = DisplacementField(rng.integers(0, len(CATALOGUE), grid_shape((h, w))).astype(np.int8))
    got = predicted_plane(prev, field, halve_offsets=halve)
    want = ref.predicted_plane(prev, field, halve_offsets=halve)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


@given(sides, sides, seeds, st.booleans())
def test_predicted_plane_matches_tile_oracle(h, w, seed, halve):
    _check_prediction(h, w, seed, halve)


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
    assert got.dtype == np.int64
    assert np.array_equal(got, ref.forward_blocks(blocks))


@given(seeds, st.integers(2, 64))
def test_inverse_blocks_matches_int64_reference(seed, n):
    coeffs = _extreme_planes(_rng(seed), n, INVERSE_INT32_LIMIT)
    assert _lifting_input(coeffs, INVERSE_INT32_LIMIT).dtype == np.int32
    got = inverse_blocks(coeffs)
    assert got.dtype == np.int64
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
    assert np.array_equal(inverse_blocks(coeffs), ref.inverse_blocks(coeffs))
    blocks = rng.integers(-(2**20), 2**20, (8, 8, n))
    blocks[0, 0, 0] = 2**20
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
