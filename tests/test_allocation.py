import numpy as np
import pytest

from fmvc.allocation import block_levels, expand_masks, level_for_block, rate_estimate
from fmvc.errors import ContractViolation
from fmvc.foveation import FoveationMap, LevelMap, gaussian_map


def flat_map(value, w=4, h=3):
    return FoveationMap(np.full((h, w), float(value)), (0, 0))


def brute_force_active_channels(p, c=128, L=16):
    """Independent enumeration of the mask rule over every channel."""
    return sum(1 for k in range(c) if p >= (k // (c // L)) * (1.0 / L))


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


def test_mask_nesting(rng):
    fmap = FoveationMap(rng.uniform(0, 1, (6, 7)), (0, 0))
    masks = expand_masks(fmap, 128, 16).masks
    assert np.all(np.diff(masks.astype(np.int8), axis=0) <= 0)


def test_groups_of_eight_identical(rng):
    fmap = FoveationMap(rng.uniform(0, 1, (5, 5)), (0, 0))
    masks = expand_masks(fmap, 128, 16).masks
    grouped = masks.reshape(16, 8, 5, 5)
    assert np.all(grouped == grouped[:, :1, :, :])


def test_threshold_equality_is_on():
    # map exactly at a group threshold: comparison is >=, the group turns on
    stack = expand_masks(flat_map(8.0 / 16.0), 128, 16)
    assert int(stack.active_channels()[0, 0]) == 72


def test_channel_count_must_divide():
    with pytest.raises(ContractViolation):
        expand_masks(flat_map(0.5), 100, 16)


def test_rate_estimate_trivial_cases():
    assert rate_estimate(flat_map(0.0, 10, 8)) == 0.0
    assert rate_estimate(flat_map(1.0, 10, 8)) == 80.0


def test_rate_estimate_monotone_in_fmsc():
    wide = gaussian_map((40, 30), 40.0, 80, 60)
    narrow = gaussian_map((40, 30), 15.0, 80, 60)
    assert rate_estimate(wide) > rate_estimate(narrow)


def test_rate_estimate_monotone_under_dominance(rng):
    small = rng.uniform(0, 0.5, (9, 9))
    big = np.clip(small + rng.uniform(0, 0.5, (9, 9)), 0, 1)
    assert rate_estimate(FoveationMap(big, (0, 0))) >= rate_estimate(FoveationMap(small, (0, 0)))


def uniform_levels(value, w=16, h=16, n=16):
    return LevelMap(np.full((h, w), value, dtype=np.uint8), n)


def test_level_for_block_uniform():
    assert level_for_block(uniform_levels(7), (0, 0, 8, 8)) == 7


def test_level_for_block_takes_max_on_boundary():
    levels = np.full((16, 16), 14, dtype=np.uint8)
    levels[:, 8:] = 15
    lm = LevelMap(levels, 16)
    assert level_for_block(lm, (4, 0, 8, 8)) == 15


def test_level_for_block_matches_scan_oracle(rng):
    levels = LevelMap(rng.integers(0, 16, (24, 31), dtype=np.uint8), 16)
    for _ in range(50):
        w = int(rng.integers(1, 9))
        h = int(rng.integers(1, 9))
        x = int(rng.integers(0, 31 - w + 1))
        y = int(rng.integers(0, 24 - h + 1))
        expected = max(
            int(levels.levels[yy, xx]) for yy in range(y, y + h) for xx in range(x, x + w)
        )
        assert level_for_block(levels, (x, y, w, h)) == expected


def test_level_for_block_out_of_bounds():
    lm = uniform_levels(3)
    with pytest.raises(ContractViolation):
        level_for_block(lm, (10, 10, 8, 8))
    with pytest.raises(ContractViolation):
        level_for_block(lm, (0, 0, 0, 4))


def test_block_levels_grid_matches_per_block_op(rng):
    levels = LevelMap(rng.integers(0, 16, (20, 27), dtype=np.uint8), 16)
    grid = block_levels(levels, 8)
    assert grid.shape == (3, 4)
    for bi in range(3):
        for bj in range(4):
            w = min(8, 27 - bj * 8)
            h = min(8, 20 - bi * 8)
            assert grid[bi, bj] == level_for_block(levels, (bj * 8, bi * 8, w, h))


def test_block_levels_block_size_is_fixed(rng):
    levels = LevelMap(rng.integers(0, 16, (16, 16), dtype=np.uint8), 16)
    with pytest.raises(ContractViolation):
        block_levels(levels, 4)
