import numpy as np
import pytest
from scipy.fftpack import dct

from fmvc.errors import ContractViolation
from fmvc.transform import (
    ZIGZAG,
    forward_blocks,
    grid_shape,
    grid_tiles,
    inverse_blocks,
    require_block,
    tile_reduce,
)

from bitref import zigzag_scan, zigzag_unscan
from kernelref import from_tiles, stack

# Per-axis output gains of the lifting network relative to the orthonormal
# DCT-II (unnormalized butterflies contribute sqrt(2) each, the odd cascade
# sqrt(2) overall).
GAINS_1D = np.array([np.sqrt(8), np.sqrt(2), 2.0, np.sqrt(2), np.sqrt(8), np.sqrt(2), 2.0, np.sqrt(2)])


def reference_scaled_dct2(block):
    rows = dct(block.astype(float), axis=1, norm="ortho") * GAINS_1D[None, :]
    return dct(rows, axis=0, norm="ortho") * GAINS_1D[:, None]


def test_zero_block_maps_to_zero():
    assert not forward_blocks(np.zeros((8, 8), np.int64)).any()


@pytest.mark.parametrize("value", [1, -1, 77, 255, -255])
def test_constant_block_is_dc_only(value):
    coeffs = forward_blocks(np.full((8, 8), value, np.int64))
    assert coeffs[0, 0] != 0
    ac = coeffs.copy()
    ac[0, 0] = 0
    assert not ac.any()


def test_round_trip_on_admissible_range(rng):
    blocks = rng.integers(-255, 256, (8, 8, 10_000))
    coeffs = forward_blocks(blocks)
    assert np.array_equal(inverse_blocks(coeffs), blocks)


def test_round_trip_extremes():
    for v in (-255, 255):
        b = np.full((8, 8), v, np.int64)
        assert np.array_equal(inverse_blocks(forward_blocks(b)), b)
    checker = np.fromfunction(lambda i, j: ((i + j) % 2) * 510 - 255, (8, 8)).astype(np.int64)
    assert np.array_equal(inverse_blocks(forward_blocks(checker)), checker)


def test_inverse_is_total_and_deterministic(rng):
    # dequantized coefficients are arbitrary integers; the inverse must be a
    # fixed deterministic map on them (lockstep), not only on forward outputs
    coeffs = rng.integers(-20_000, 20_000, (8, 8, 64))
    first = inverse_blocks(coeffs)
    second = inverse_blocks(coeffs)
    assert np.array_equal(first, second)
    assert first.dtype == np.int32


def test_approximates_scaled_dct(rng):
    blocks = rng.integers(-255, 256, (8, 8, 500))
    got = forward_blocks(blocks).astype(float)
    worst = 0.0
    for b, g in zip(stack(blocks), stack(got)):
        worst = max(worst, np.max(np.abs(g - reference_scaled_dct2(b))))
    # rounding noise from ~21 lifting steps per axis stays within a few units
    assert worst < 16.0


def test_forward_validates_range_and_shape():
    with pytest.raises(ContractViolation):
        forward_blocks(np.zeros((4, 4), np.int64))
    with pytest.raises(ContractViolation):
        inverse_blocks(np.zeros((8, 4), np.int64))


def test_zigzag_is_a_permutation():
    assert sorted(ZIGZAG.tolist()) == list(range(64))
    assert ZIGZAG[:8].tolist() == [0, 1, 8, 16, 9, 2, 3, 10]


def test_zigzag_unscan_inverts_scan(rng):
    block = rng.integers(-100, 100, (8, 8))
    assert np.array_equal(zigzag_unscan(zigzag_scan(block)), block)


def test_zigzag_orders_by_frequency():
    block = np.zeros((8, 8), np.int64)
    block[0, 0], block[0, 1], block[1, 0] = 5, 3, 2
    zz = zigzag_scan(block)
    assert zz[:3].tolist() == [5, 3, 2]
    assert not zz[3:].any()


class TestBlockGrid:
    def test_grid_shape_counts_partial_tiles(self):
        assert grid_shape((1, 1)) == (1, 1)
        assert grid_shape((16, 24)) == (2, 3)
        assert grid_shape((17, 9)) == (3, 2)

    def test_tiles_round_trip_with_edge_replication(self, rng):
        for h, w in ((1, 1), (5, 7), (13, 23), (16, 24)):
            plane = rng.integers(0, 256, (h, w), dtype=np.uint8)
            tiles = grid_tiles(plane)[1]
            nby, nbx = grid_shape((h, w))
            assert tiles.shape == (8, 8, nby, nbx)
            assert np.array_equal(from_tiles(tiles, (h, w)), plane)
        plane = np.arange(9 * 10).reshape(9, 10)
        padded = np.pad(plane, ((0, 7), (0, 6)), mode="edge")
        tiles = grid_tiles(plane)[1]
        for k, (bi, bj) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):  # raster order
            assert np.array_equal(tiles[:, :, bi, bj], padded[bi * 8 : bi * 8 + 8, bj * 8 : bj * 8 + 8])
            assert np.array_equal(stack(tiles)[k], tiles[:, :, bi, bj])

    def test_tile_reduce_counts_only_inside_samples(self, rng):
        plane = rng.integers(0, 100, (13, 20))
        sums = tile_reduce(plane, np.add)
        maxima = tile_reduce(plane, np.maximum)
        assert sums.shape == maxima.shape == (2, 3)
        for bi in range(2):
            for bj in range(3):
                tile = plane[bi * 8 : bi * 8 + 8, bj * 8 : bj * 8 + 8]
                assert sums[bi, bj] == tile.sum()
                assert maxima[bi, bj] == tile.max()

    def test_block_size_is_fixed(self):
        require_block(8)
        for bad in (0, 4, 16):
            with pytest.raises(ContractViolation):
                require_block(bad)
