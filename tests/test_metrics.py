import numpy as np
import pytest

from fmvc.errors import ContractViolation
from fmvc.foveation import DisplayGeometry, FoveationMap, default_geometry, gaussian_map
from fmvc.metrics import (
    bits_ssim_profile,
    foveation_weighted_ssim,
    fwqi_approx,
    haar_lowpass_2x2,
    mean_ssim,
    ssim_map,
)

C1 = (0.01 * 255.0) ** 2
C2 = (0.03 * 255.0) ** 2


def gaussian_window(size=11, sigma=1.5):
    half = size // 2
    x = np.arange(-half, half + 1, dtype=np.float64)
    k = np.exp(-(x * x) / (2 * sigma * sigma))
    return np.outer(k, k)


def ssim_direct(ref, test):
    """Independent per-pixel oracle: truncated window, renormalized weights."""
    ref = ref.astype(np.float64)
    test = test.astype(np.float64)
    h, w = ref.shape
    win = gaussian_window()
    half = 5
    out = np.zeros((h, w))
    for i in range(h):
        for j in range(w):
            i0, i1 = max(0, i - half), min(h, i + half + 1)
            j0, j1 = max(0, j - half), min(w, j + half + 1)
            k = win[i0 - i + half : i1 - i + half, j0 - j + half : j1 - j + half]
            k = k / k.sum()
            x = ref[i0:i1, j0:j1]
            y = test[i0:i1, j0:j1]
            mx, my = (k * x).sum(), (k * y).sum()
            vx = (k * x * x).sum() - mx * mx
            vy = (k * y * y).sum() - my * my
            cov = (k * x * y).sum() - mx * my
            out[i, j] = ((2 * mx * my + C1) * (2 * cov + C2)) / (
                (mx * mx + my * my + C1) * (vx + vy + C2)
            )
    return out


def test_identity_map_is_one(rng):
    x = rng.integers(0, 256, (24, 31), dtype=np.uint8)
    m = ssim_map(x, x)
    assert np.allclose(m, 1.0, atol=1e-12)


def test_uniform_luminance_shift():
    ref = np.full((32, 32), 128, np.uint8)
    m1 = ssim_map(ref, np.full((32, 32), 129, np.uint8))
    m3 = ssim_map(ref, np.full((32, 32), 131, np.uint8))
    assert np.all(m1 < 1.0)
    assert np.all(m3 < m1)


def test_matches_direct_formula_oracle(rng):
    for _ in range(3):
        ref = rng.integers(0, 256, (32, 32), dtype=np.uint8)
        test = rng.integers(0, 256, (32, 32), dtype=np.uint8)
        fast = ssim_map(ref, test)
        slow = ssim_direct(ref, test)
        assert np.max(np.abs(fast - slow)) < 1e-9


def test_dimension_mismatch():
    with pytest.raises(ContractViolation):
        ssim_map(np.zeros((4, 4)), np.zeros((4, 5)))


def test_haar_lowpass_semantics():
    s = np.array([[1.0, 3.0], [5.0, 7.0]])
    out = haar_lowpass_2x2(s)
    assert out[0, 0] == 4.0  # mean of all four
    assert out[1, 1] == 7.0  # bottom-right replicated
    assert out[0, 1] == 5.0  # right column replicated


def test_fw_ssim_identity(rng):
    x = rng.integers(0, 256, (16, 16), dtype=np.uint8)
    fmap = gaussian_map((8, 8), 4.0, 16, 16)
    assert foveation_weighted_ssim(x, x, fmap) == pytest.approx(1.0, abs=1e-12)


def test_fw_ssim_uniform_weights_reduce_to_mean(rng):
    ref = rng.integers(0, 256, (20, 20), dtype=np.uint8)
    test = rng.integers(0, 256, (20, 20), dtype=np.uint8)
    uniform = FoveationMap(np.full((20, 20), 0.7), (10, 10))
    expected = haar_lowpass_2x2(ssim_map(ref, test)).mean()
    assert foveation_weighted_ssim(ref, test, uniform) == pytest.approx(expected, abs=1e-12)


def test_fw_ssim_discounts_peripheral_distortion(rng):
    ref = rng.integers(100, 156, (64, 64), dtype=np.uint8)
    test = ref.copy()
    test[48:, 48:] = rng.integers(0, 256, (16, 16), dtype=np.uint8)  # far corner
    fmap = gaussian_map((8, 8), 6.0, 64, 64)  # narrow gaze far from distortion
    fw = foveation_weighted_ssim(ref, test, fmap)
    assert fw > mean_ssim(ref, test)


def test_fw_ssim_monotone_under_mass_shift(rng):
    ref = rng.integers(0, 256, (16, 16), dtype=np.uint8)
    test = ref.copy()
    test[:8, :] = 255 - test[:8, :]  # trash the top half
    smooth = haar_lowpass_2x2(ssim_map(ref, test))
    top_mass = np.zeros((16, 16))
    top_mass[:8, :] = 1.0
    bottom_mass = np.zeros((16, 16))
    bottom_mass[8:, :] = 1.0
    low = foveation_weighted_ssim(ref, test, FoveationMap(top_mass, (0, 0)))
    high = foveation_weighted_ssim(ref, test, FoveationMap(bottom_mass, (0, 0)))
    assert smooth[8:, :].mean() > smooth[:8, :].mean()
    assert high > low


def test_fw_ssim_zero_mass_rejected(rng):
    x = rng.integers(0, 256, (8, 8), dtype=np.uint8)
    with pytest.raises(ContractViolation):
        foveation_weighted_ssim(x, x, FoveationMap(np.zeros((8, 8)), (0, 0)))


class TestFwqi:
    GEOM = DisplayGeometry(0.1, 1.0, 512, 512)

    def test_identity(self, rng):
        x = rng.integers(0, 256, (64, 64), dtype=np.uint8)
        geom = default_geometry(64, 64)
        assert fwqi_approx(x, x, (32, 32), geom) == 1.0

    def test_foveal_distortion_scores_lower(self, rng):
        base = rng.integers(80, 176, (128, 128), dtype=np.uint8)
        geom = default_geometry(128, 128)
        gaze = (64, 64)
        foveal = base.copy()
        peripheral = base.copy()
        patch = rng.integers(-40, 41, (8, 8))
        foveal[60:68, 60:68] = np.clip(foveal[60:68, 60:68] + patch, 0, 255)
        peripheral[0:8, 0:8] = np.clip(peripheral[0:8, 0:8] + patch, 0, 255)
        s_fov = fwqi_approx(base, foveal, gaze, geom)
        s_per = fwqi_approx(base, peripheral, gaze, geom)
        assert s_fov < s_per

    def test_invariant_to_zero_weight_distortion(self, rng):
        # with this geometry the finest subband's frequency exceeds the
        # cutoff beyond ~1.75 degrees (~156 px), so a pure finest-scale
        # pattern in the far corner carries zero weight
        base = rng.integers(100, 156, (512, 512), dtype=np.uint8)
        test = base.copy().astype(np.int16)
        hh = np.array([[1, -1], [-1, 1]], dtype=np.int16) * 12
        for bi in range(400, 500, 2):
            for bj in range(400, 500, 2):
                test[bi : bi + 2, bj : bj + 2] += hh
        test = np.clip(test, 0, 255).astype(np.uint8)
        assert (test != base).any()
        score = fwqi_approx(base, test, (0, 0), self.GEOM)
        assert score == 1.0

    def test_rejects_zero_reference_energy(self):
        zero = np.zeros((32, 32), np.uint8)
        geom = default_geometry(32, 32)
        with pytest.raises(ContractViolation):
            fwqi_approx(zero, zero, (16, 16), geom)

    def test_rejects_tiny_frames(self):
        geom = default_geometry(8, 8)
        with pytest.raises(ContractViolation):
            fwqi_approx(np.zeros((8, 8), np.uint8), np.zeros((8, 8), np.uint8), (4, 4), geom)


class TestBitsProfile:
    def test_uniform_bits_flat_profile(self):
        grid = np.full((4, 5), 80.0)
        smap = np.ones((32, 40))
        col_bits, col_ssim = bits_ssim_profile(grid, smap)
        assert col_bits.shape == (40,)
        assert np.allclose(col_bits, col_bits[0])
        assert np.allclose(col_ssim, 1.0)

    def test_conservation_exact(self, rng):
        grid = rng.integers(1, 5000, (6, 9)).astype(np.float64)
        smap = rng.uniform(-1, 1, (48, 72))
        col_bits, _ = bits_ssim_profile(grid, smap)
        assert col_bits.sum() == grid.sum()

    def test_partial_edge_block_spreading(self):
        grid = np.array([[64.0, 40.0]])
        smap = np.zeros((8, 12))  # second block covers only 4 columns
        col_bits, _ = bits_ssim_profile(grid, smap)
        assert np.allclose(col_bits[:8], 8.0)
        assert np.allclose(col_bits[8:], 10.0)
        assert col_bits.sum() == 104.0

    def test_grid_consistency_checked(self):
        with pytest.raises(ContractViolation):
            bits_ssim_profile(np.ones((2, 2)), np.zeros((8, 8)))
