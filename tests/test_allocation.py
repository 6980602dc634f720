import numpy as np
import pytest

from fmvc.allocation import block_levels, expand_masks
from fmvc.errors import ContractViolation
from fmvc.foveation import FoveationMap, LevelMap, gaussian_map


def flat_map(value, w=4, h=3):
    return FoveationMap(np.full((h, w), float(value)), (0, 0))


def brute_force_active_channels(p, c=128, L=16):
    """Independent enumeration of the mask rule over every channel."""
    return sum(1 for k in range(c) if p >= (k // (c // L)) / L)


@pytest.mark.parametrize(
    "p,expected",
    [(0.0, 8), (0.25, 40), (0.5, 72), (0.75, 104), (1.0, 128)],
)
def test_active_channel_counts(p, expected):
    stack = expand_masks(flat_map(p), 128, 16)
    counts = stack.active_channels()
    assert (counts == expected).all()
    assert brute_force_active_channels(p) == expected


def test_enumeration_oracle_on_random_values(rng):
    for p in rng.uniform(0, 1, 25):
        stack = expand_masks(flat_map(p), 128, 16)
        assert int(stack.active_channels()[0, 0]) == brute_force_active_channels(float(p))


@pytest.mark.parametrize("c,L", [(128, 16), (120, 12), (30, 10), (7, 7)])
def test_active_channels_match_channel_enumeration(rng, c, L):
    # values on every group threshold j/L and one ulp to either side of it
    thresholds = np.arange(L) / L
    edges = np.concatenate([thresholds, np.nextafter(thresholds, -1.0), np.nextafter(thresholds, 2.0), [1.0]])
    values = np.concatenate([rng.uniform(0, 1, 60), np.clip(edges, 0.0, 1.0)])
    rng.shuffle(values)
    fmap = FoveationMap(values.reshape(1, -1), (0, 0))
    counts = expand_masks(fmap, c, L).active_channels()
    for v, count in zip(fmap.values.ravel(), counts.ravel()):
        assert count == brute_force_active_channels(float(v), c, L)


def channel_masks(stack):
    """Per-channel boolean masks, shape (c, h, w), as the group counts imply them."""
    group_of_channel = np.arange(stack.c) // (stack.c // stack.L)
    return group_of_channel[:, None, None] < stack.groups[None, :, :]


def test_mask_nesting(rng):
    fmap = FoveationMap(rng.uniform(0, 1, (6, 7)), (0, 0))
    masks = channel_masks(expand_masks(fmap, 128, 16))
    assert np.all(np.diff(masks.astype(np.int8), axis=0) <= 0)
    # every channel follows its own threshold rule, so the nesting is the rule's
    for k in range(128):
        assert np.array_equal(masks[k], fmap.values >= (k // 8) / 16)


def test_groups_of_eight_identical(rng):
    fmap = FoveationMap(rng.uniform(0, 1, (5, 5)), (0, 0))
    masks = channel_masks(expand_masks(fmap, 128, 16))
    grouped = masks.reshape(16, 8, 5, 5)
    assert np.all(grouped == grouped[:, :1, :, :])


def test_threshold_equality_is_on():
    # map exactly at a group threshold: comparison is >=, the group turns on
    stack = expand_masks(flat_map(8.0 / 16.0), 128, 16)
    assert int(stack.active_channels()[0, 0]) == 72


def test_channel_count_must_divide():
    with pytest.raises(ContractViolation):
        expand_masks(flat_map(0.5), 100, 16)


@pytest.mark.parametrize("c, L", [(12.5, 2.5), (128.0, 16), (128, 16.0), ("128", 16)],
                         ids=["fractions", "float_c", "float_L", "text_c"])
def test_channel_counts_are_integers(c, L):
    with pytest.raises(ContractViolation, match="must be a positive integer multiple"):
        expand_masks(flat_map(0.5), c, L)


def test_rate_estimate_trivial_cases():
    # the rate estimate is the map's total mass
    assert flat_map(0.0, 10, 8).values.sum() == 0.0
    assert flat_map(1.0, 10, 8).values.sum() == 80.0


def test_rate_estimate_monotone_in_fmsc():
    wide = gaussian_map((40, 30), 40.0, 80, 60)
    narrow = gaussian_map((40, 30), 15.0, 80, 60)
    assert wide.values.sum() > narrow.values.sum()


def test_rate_estimate_monotone_under_dominance(rng):
    small = rng.uniform(0, 0.5, (9, 9))
    big = np.clip(small + rng.uniform(0, 0.5, (9, 9)), 0, 1)
    assert FoveationMap(big, (0, 0)).values.sum() >= FoveationMap(small, (0, 0)).values.sum()


def uniform_levels(value, w=16, h=16, n=16):
    return LevelMap(np.full((h, w), value, dtype=np.uint8), n)


def test_level_for_block_uniform():
    assert (block_levels(uniform_levels(7)) == 7).all()
    assert (block_levels(uniform_levels(7, 13, 5)) == 7).all()


def test_level_for_block_takes_max_on_boundary():
    levels = np.full((16, 16), 14, dtype=np.uint8)
    levels[:, 7] = 15  # the last column of the first block column
    grid = block_levels(LevelMap(levels, 16))
    assert grid.tolist() == [[15, 14], [15, 14]]


def test_level_for_block_matches_scan_oracle(rng):
    levels = LevelMap(rng.integers(0, 16, (24, 31), dtype=np.uint8), 16)
    grid = block_levels(levels)
    for by in range(3):
        for bx in range(4):
            expected = max(
                int(levels.levels[yy, xx])
                for yy in range(by * 8, by * 8 + 8)
                for xx in range(bx * 8, min(bx * 8 + 8, 31))
            )
            assert grid[by, bx] == expected


def test_level_for_block_out_of_bounds():
    # the grid covers the map exactly: partial edge blocks see only in-map samples
    levels = np.zeros((9, 17), dtype=np.uint8)
    levels[8, 16] = 3
    grid = block_levels(LevelMap(levels, 16))
    assert grid.shape == (2, 3)
    assert grid.tolist() == [[0, 0, 0], [0, 0, 3]]


def test_block_levels_grid_matches_per_block_op(rng):
    levels = LevelMap(rng.integers(0, 16, (20, 27), dtype=np.uint8), 16)
    grid = block_levels(levels)
    assert grid.shape == (3, 4)
    for bi in range(3):
        for bj in range(4):
            assert grid[bi, bj] == levels.levels[bi * 8 : bi * 8 + 8, bj * 8 : bj * 8 + 8].max()
