import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmvc import displacement
from fmvc.displacement import (
    CATALOGUE,
    Axis,
    Displacement,
    DisplacementField,
    ZERO_DISPLACEMENT,
    choose_displacements,
    displaced_difference,
    reconstruct_frame,
    residual_set,
    select_displacement_per_block,
)
from fmvc.errors import ContractViolation
from fmvc.video_io import FramePlane

from conftest import pan_clip, shift_with_replication


def plane(arr):
    return FramePlane.from_array(np.asarray(arr, dtype=np.uint8))


def brute_force_residual(cur, prev, d):
    """Independent oracle: per-pixel loops with clamped source coordinates."""
    h, w = cur.shape
    out = np.zeros((h, w), dtype=np.int16)
    for i in range(h):
        for j in range(w):
            si, sj = i, j
            if d.axis is Axis.HORIZONTAL:
                sj = min(max(j - d.s, 0), w - 1)
            elif d.axis is Axis.VERTICAL:
                si = min(max(i - d.s, 0), h - 1)
            out[i, j] = int(cur[i, j]) - int(prev[si, sj])
    return out


def test_catalogue_shape_and_order():
    assert len(CATALOGUE) == 13
    assert CATALOGUE[0] == ZERO_DISPLACEMENT
    assert CATALOGUE[1] == Displacement(Axis.HORIZONTAL, 3)
    assert CATALOGUE[2] == Displacement(Axis.HORIZONTAL, -3)
    assert CATALOGUE[6] == Displacement(Axis.HORIZONTAL, -7)
    assert CATALOGUE[7] == Displacement(Axis.VERTICAL, 3)
    horizontals = [d for d in CATALOGUE if d.axis is Axis.HORIZONTAL]
    verticals = [d for d in CATALOGUE if d.axis is Axis.VERTICAL]
    assert len(horizontals) == len(verticals) == 6


def test_displacement_invariants():
    with pytest.raises(ContractViolation):
        Displacement(Axis.NONE, 3)
    with pytest.raises(ContractViolation):
        Displacement(Axis.HORIZONTAL, 0)
    with pytest.raises(ContractViolation):
        Displacement(Axis.VERTICAL, 4)


def test_identical_frames_zero_difference():
    a = plane(np.arange(64).reshape(8, 8))
    res = displaced_difference(a, a, ZERO_DISPLACEMENT)
    assert not res.samples.any()


def test_pan_gives_zero_residual_at_matching_displacement(rng):
    prev = rng.integers(0, 256, (16, 20), dtype=np.uint8)
    cur = shift_with_replication(prev, 3, axis=1)
    res = displaced_difference(plane(cur), plane(prev), Displacement(Axis.HORIZONTAL, 3))
    assert not res.samples.any()


def test_single_pixel_frames_clamp():
    cur, prev = plane([[200]]), plane([[55]])
    for d in CATALOGUE:
        assert displaced_difference(cur, prev, d).samples[0, 0] == 145


def test_matches_brute_force_oracle(rng):
    cur = rng.integers(0, 256, (11, 13), dtype=np.uint8)
    prev = rng.integers(0, 256, (11, 13), dtype=np.uint8)
    for d in CATALOGUE:
        got = displaced_difference(plane(cur), plane(prev), d).samples
        assert np.array_equal(got, brute_force_residual(cur, prev, d))


def test_dimension_mismatch():
    with pytest.raises(ContractViolation):
        displaced_difference(plane(np.zeros((4, 4))), plane(np.zeros((4, 5))), ZERO_DISPLACEMENT)


def test_residual_set_contents(rng):
    cur = rng.integers(0, 256, (8, 8), dtype=np.uint8)
    prev = rng.integers(0, 256, (8, 8), dtype=np.uint8)
    rset = residual_set(plane(cur), plane(prev))
    assert set(rset) == set(CATALOGUE)
    plain = cur.astype(np.int16) - prev.astype(np.int16)
    assert np.array_equal(rset[ZERO_DISPLACEMENT].samples, plain)
    keys = list(rset)
    assert keys[0] == ZERO_DISPLACEMENT
    hor = [d.s for d in keys if d.axis is Axis.HORIZONTAL]
    assert hor == sorted(hor)  # s ascending within axis
    steps = [-7, -5, -3, 3, 5, 7]
    assert keys[1:] == [Displacement(axis, s) for axis in (Axis.HORIZONTAL, Axis.VERTICAL) for s in steps]


def test_identical_frames_all_zero_planes():
    a = plane(np.full((12, 12), 99))
    rset = residual_set(a, a)
    assert all(not rset[d].samples.any() for d in rset)


def test_pan_minimizes_energy_at_true_shift(rng):
    prev = rng.integers(0, 256, (32, 32), dtype=np.uint8)
    cur = shift_with_replication(prev, 3, axis=1)
    rset = residual_set(plane(cur), plane(prev))
    energies = {d: int(np.abs(rset[d].samples.astype(np.int64)).sum()) for d in rset}
    best = Displacement(Axis.HORIZONTAL, 3)
    assert all(energies[best] < e for d, e in energies.items() if d != best)


def test_static_selection_is_zero_displacement():
    a = plane(np.full((16, 16), 77))
    field = select_displacement_per_block(residual_set(a, a), 8)
    assert (field.indices == 0).all()


def brute_force_selection(rset, block_size):
    h, w = rset[ZERO_DISPLACEMENT].samples.shape
    nby, nbx = -(-h // block_size), -(-w // block_size)
    out = np.zeros((nby, nbx), dtype=np.int8)
    for bi in range(nby):
        for bj in range(nbx):
            sl = np.s_[
                bi * block_size : min((bi + 1) * block_size, h),
                bj * block_size : min((bj + 1) * block_size, w),
            ]
            best, best_sse = 0, None
            for k, d in enumerate(CATALOGUE):
                sse = int((rset[d].samples[sl].astype(np.int64) ** 2).sum())
                if best_sse is None or sse < best_sse:
                    best, best_sse = k, sse
            out[bi, bj] = best
    return out


def test_pan_selection_matches_brute_force():
    clip = pan_clip(64, 64, 3, step=3)
    cur, prev = clip.frames[1].y, clip.frames[0].y
    rset = residual_set(cur, prev)
    field = select_displacement_per_block(rset, 8)
    assert np.array_equal(field.indices, brute_force_selection(rset, 8))
    interior = field.indices[:, 1:]  # entering-edge column may replicate
    target = CATALOGUE.index(Displacement(Axis.HORIZONTAL, 3))
    assert (interior == target).all()


def test_selection_beyond_range_prefers_largest_shift():
    # 10 px/frame exceeds the displacement set; on correlated texture the
    # +7 shift leaves the least misalignment.
    clip = pan_clip(96, 64, 2, step=10, smooth=6.0, seed=1)
    cur, prev = clip.frames[1].y, clip.frames[0].y
    rset = residual_set(cur, prev)
    field = select_displacement_per_block(rset, 8)
    target = CATALOGUE.index(Displacement(Axis.HORIZONTAL, 7))
    interior = field.indices[:, 2:]
    assert np.mean(interior == target) >= 0.85
    # graceful degradation: +7 strictly beats no displacement per block
    sse7 = rset[Displacement(Axis.HORIZONTAL, 7)].samples.astype(np.int64) ** 2
    sse0 = rset[ZERO_DISPLACEMENT].samples.astype(np.int64) ** 2
    for bj in range(2, 96 // 8):
        sl = np.s_[:, bj * 8 : (bj + 1) * 8]
        assert sse7[sl].sum() < sse0[sl].sum()


def test_selection_matches_brute_force_on_random_pairs(rng):
    for _ in range(3):
        cur = rng.integers(0, 256, (24, 40), dtype=np.uint8)
        prev = rng.integers(0, 256, (24, 40), dtype=np.uint8)
        rset = residual_set(plane(cur), plane(prev))
        field = select_displacement_per_block(rset, 8)
        assert np.array_equal(field.indices, brute_force_selection(rset, 8))


def test_encoder_choice_matches_residual_set_selection(rng):
    for h, w in ((1, 1), (5, 7), (13, 23), (24, 40)):
        cur = rng.integers(0, 256, (h, w), dtype=np.uint8)
        prev = rng.integers(0, 256, (h, w), dtype=np.uint8)
        rset = residual_set(plane(cur), plane(prev))
        assert choose_displacements(cur, prev) == select_displacement_per_block(rset, 8)
        assert np.array_equal(choose_displacements(cur, prev).indices, brute_force_selection(rset, 8))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 70), st.integers(1, 70), st.floats(0.5, 1.0), st.booleans(), st.integers(0, 2**32 - 1))
def test_search_matches_brute_force_at_the_extremes(h, w, extreme, invert, seed):
    # samples mostly 0 or 255: differences of +-255, whole blocks at the largest SSE
    # (64 * 255**2 = 4161600) and exact ties; up to 9 x 9 blocks, so several strips
    # and partial edge blocks
    rng = np.random.default_rng(seed)

    def draw():
        return np.where(rng.random((h, w)) < extreme, rng.choice([0, 255], (h, w)), rng.integers(0, 256, (h, w)))

    prev = draw().astype(np.uint8)
    cur = (255 - prev if invert else draw()).astype(np.uint8)
    want = brute_force_selection(residual_set(plane(cur), plane(prev)), 8)
    assert np.array_equal(choose_displacements(cur, prev).indices, want)


@given(st.integers(1, 40), st.integers(1, 40), st.integers(0, 255), st.integers(0, 2**32 - 1))
def test_flat_reference_chooses_no_displacement(h, w, value, seed):
    # every window of a constant plane holds the constant, so all 13 SSEs tie in every block
    cur = np.random.default_rng(seed).integers(0, 256, (h, w), dtype=np.uint8)
    prev = np.full((h, w), value, np.uint8)
    got = choose_displacements(cur, prev)
    assert not got.indices.any()
    assert got == select_displacement_per_block(residual_set(plane(cur), plane(prev)))


def test_flat_reference_runs_no_search(monkeypatch, rng):
    def refuse(*args):
        raise AssertionError("the search ran")

    cur = rng.integers(0, 256, (29, 37), dtype=np.uint8)
    prev = np.full(cur.shape, 128, np.uint8)
    bumped = prev.copy()
    bumped[13, 21] = 129  # a single sample differs: the reference is no longer flat
    want = select_displacement_per_block(residual_set(plane(cur), plane(bumped)))
    monkeypatch.setattr(displacement, "edge_padded", refuse)
    assert not choose_displacements(cur, prev).indices.any()
    with pytest.raises(AssertionError, match="the search ran"):
        choose_displacements(cur, bumped)
    monkeypatch.undo()
    assert choose_displacements(cur, bumped) == want


def test_block_size_other_than_8_rejected():
    a = plane(np.full((16, 16), 77))
    with pytest.raises(ContractViolation):
        select_displacement_per_block(residual_set(a, a), 4)
    with pytest.raises(ContractViolation):
        DisplacementField.uniform(ZERO_DISPLACEMENT, 2, 2, 16)


def test_residual_range_invariant(rng):
    cur = plane(rng.integers(0, 256, (16, 16), dtype=np.uint8))
    prev = plane(rng.integers(0, 256, (16, 16), dtype=np.uint8))
    for d in CATALOGUE:
        res = displaced_difference(cur, prev, d).samples
        assert res.min() >= -255 and res.max() <= 255


def test_reconstruct_identity_zero_residual():
    prev = plane(np.arange(256).reshape(16, 16) % 256)
    field = DisplacementField.uniform(ZERO_DISPLACEMENT, 2, 2, 8)
    from fmvc.displacement import ResidualPlane

    zero = ResidualPlane(16, 16, np.zeros((16, 16), np.int16))
    assert reconstruct_frame(prev, field, zero) == prev


def test_reconstruct_inverts_displaced_difference(rng):
    for _ in range(4):
        cur = plane(rng.integers(0, 256, (17, 23), dtype=np.uint8))
        prev = plane(rng.integers(0, 256, (17, 23), dtype=np.uint8))
        for d in CATALOGUE:
            field = DisplacementField.uniform(d, 3, 3, 8)
            res = displaced_difference(cur, prev, d)
            assert reconstruct_frame(prev, field, res) == cur


def test_reconstruct_dimension_mismatch():
    from fmvc.displacement import ResidualPlane

    prev = plane(np.zeros((16, 16)))
    field = DisplacementField.uniform(ZERO_DISPLACEMENT, 2, 2, 8)
    bad = ResidualPlane(8, 8, np.zeros((8, 8), np.int16))
    with pytest.raises(ContractViolation):
        reconstruct_frame(prev, field, bad)

