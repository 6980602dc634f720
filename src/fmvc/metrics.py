"""Quality measurement: SSIM maps, foveation-weighted SSIM, a wavelet-domain
eccentricity-weighted quality score, and per-column bit/SSIM profiles."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.ndimage import convolve1d

from .errors import ContractViolation
from .foveation import (
    CsfParams,
    DEFAULT_CSF,
    DisplayGeometry,
    FoveationMap,
    display_nyquist,
    eccentricity,
    error_sensitivity,
    radial_gather,
)
from .transform import BLOCK, grid_shape, tile_reduce
from .video_io import FramePlane

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
_C1 = (0.01 * 255.0) ** 2
_C2 = (0.03 * 255.0) ** 2


def _gaussian_kernel_1d() -> np.ndarray:
    half = SSIM_WINDOW // 2
    x = np.arange(-half, half + 1, dtype=np.float64)
    k = np.exp(-(x * x) / (2.0 * SSIM_SIGMA * SSIM_SIGMA))
    return k / k.sum()


_SSIM_KERNEL = _gaussian_kernel_1d()


def _windowed(img: np.ndarray) -> np.ndarray:
    """Separable gaussian filter with zero padding (renormalized by caller)."""
    tmp = convolve1d(img, _SSIM_KERNEL, axis=0, mode="constant", cval=0.0)
    return convolve1d(tmp, _SSIM_KERNEL, axis=1, mode="constant", cval=0.0)


def _as_float_plane(plane) -> np.ndarray:
    if isinstance(plane, FramePlane):
        return plane.samples.astype(np.float64)
    arr = np.asarray(plane, dtype=np.float64)
    if arr.ndim != 2:
        raise ContractViolation(f"expected a 2-D plane, got shape {arr.shape}")
    return arr


def ssim_map(ref, test) -> np.ndarray:
    """Per-pixel SSIM with an 11x11 gaussian window (sigma 1.5).

    Borders truncate the window and renormalize its weights, implemented by
    dividing zero-padded filter responses by the filtered all-ones plane.
    """
    x = _as_float_plane(ref)
    y = _as_float_plane(test)
    if x.shape != y.shape:
        raise ContractViolation(f"plane shapes differ: {x.shape} vs {y.shape}")

    # Moments are centred in place and the inputs dropped once used, so at
    # most ten planes are alive at a time; the arithmetic is unchanged.
    weight = _windowed(np.ones_like(x))
    mu_x = _windowed(x) / weight
    mu_y = _windowed(y) / weight
    var_x = _windowed(x * x) / weight
    var_x -= mu_x * mu_x
    var_y = _windowed(y * y) / weight
    var_y -= mu_y * mu_y
    cov = _windowed(x * y) / weight
    cov -= mu_x * mu_y
    del x, y, weight

    num = (2.0 * mu_x * mu_y + _C1) * (2.0 * cov + _C2)
    den = (mu_x * mu_x + mu_y * mu_y + _C1) * (var_x + var_y + _C2)
    return num / den


def mean_ssim(ref, test) -> float:
    return float(ssim_map(ref, test).mean())


def haar_lowpass_2x2(values: np.ndarray) -> np.ndarray:
    """2x2 box average, stride 1, replicating the bottom/right border."""
    padded = np.pad(values, ((0, 1), (0, 1)), mode="edge")
    return (
        padded[:-1, :-1] + padded[:-1, 1:] + padded[1:, :-1] + padded[1:, 1:]
    ) / 4.0


def fw_ssim_from_map(smap: np.ndarray, fmap: FoveationMap) -> float:
    """Foveation-weighted score of an already-computed SSIM map."""
    if smap.shape != fmap.values.shape:
        raise ContractViolation(
            f"foveation map {fmap.values.shape} does not match frames {smap.shape}"
        )
    total = fmap.values.sum()
    if total == 0:
        raise ContractViolation("foveation map has zero mass")
    smooth = haar_lowpass_2x2(smap)
    return float((smooth * fmap.values).sum() / total)


def foveation_weighted_ssim(ref, test, fmap: FoveationMap) -> float:
    """Low-passed SSIM map averaged under foveation-map weights."""
    return fw_ssim_from_map(ssim_map(ref, test), fmap)


# --- wavelet-domain foveated quality -------------------------------------

FWQI_LEVELS = 4


def _haar_dwt2(img: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One orthonormal Haar analysis step: returns (LL, LH, HL, HH)."""
    s = 1.0 / np.sqrt(2.0)
    lo_r = (img[:, 0::2] + img[:, 1::2]) * s
    hi_r = (img[:, 0::2] - img[:, 1::2]) * s
    ll = (lo_r[0::2, :] + lo_r[1::2, :]) * s
    lh = (lo_r[0::2, :] - lo_r[1::2, :]) * s
    hl = (hi_r[0::2, :] + hi_r[1::2, :]) * s
    hh = (hi_r[0::2, :] - hi_r[1::2, :]) * s
    return ll, lh, hl, hh


def _haar_decompose(img: np.ndarray, levels: int):
    """Full decomposition: [(scale, subband array), ...] plus the final LL."""
    bands = []
    ll = img
    for s in range(1, levels + 1):
        ll, lh, hl, hh = _haar_dwt2(ll)
        bands.extend([(s, lh), (s, hl), (s, hh)])
    bands.append((levels, ll))
    return bands


def _subband_weights(scale: int, shape, gaze, geom: DisplayGeometry, params: CsfParams) -> np.ndarray:
    """Error sensitivity at the subband's center frequency, per coefficient.

    Each coefficient at scale s supports a 2^s x 2^s pixel patch; its weight
    is evaluated at the patch center's eccentricity.
    """
    size = 2 ** scale
    h, w = shape
    xs = (np.arange(w) + 0.5) * size - 0.5
    ys = (np.arange(h) + 0.5) * size - 0.5
    freq = display_nyquist(geom) / (2.0 ** scale)
    values = radial_gather(
        xs - gaze[0],
        ys - gaze[1],
        lambda x, y: error_sensitivity(freq, eccentricity((x, y), (0.0, 0.0), geom), params),
    )
    return np.asarray(values, dtype=np.float64)


def fwqi_approx(
    ref,
    test,
    gaze,
    geom: DisplayGeometry,
    params: CsfParams = DEFAULT_CSF,
) -> float:
    """Wavelet-domain, eccentricity-weighted relative error score in [0, 1].

    A declared approximation: 4-level Haar decomposition, each subband
    weighted by error sensitivity at its center frequency, scored as
    1 - ||weighted difference|| / ||weighted reference||.
    """
    x = _as_float_plane(ref)
    y = _as_float_plane(test)
    if x.shape != y.shape:
        raise ContractViolation(f"plane shapes differ: {x.shape} vs {y.shape}")
    unit = 2 ** FWQI_LEVELS
    ch, cw = (x.shape[0] // unit) * unit, (x.shape[1] // unit) * unit
    if ch == 0 or cw == 0:
        raise ContractViolation(f"frames of shape {x.shape} cannot host a {FWQI_LEVELS}-level decomposition")
    x, y = x[:ch, :cw], y[:ch, :cw]

    err_energy = 0.0
    ref_energy = 0.0
    for (scale, ref_band), (_, test_band) in zip(
        _haar_decompose(x, FWQI_LEVELS), _haar_decompose(y, FWQI_LEVELS)
    ):
        wts = _subband_weights(scale, ref_band.shape, gaze, geom, params)
        err_energy += float(((wts * (ref_band - test_band)) ** 2).sum())
        ref_energy += float(((wts * ref_band) ** 2).sum())
    if ref_energy == 0.0:
        raise ContractViolation("weighted reference energy is zero")
    score = 1.0 - np.sqrt(err_energy) / np.sqrt(ref_energy)
    return float(min(max(score, 0.0), 1.0))


# --- profiles and reports -------------------------------------------------


def bits_ssim_profile(block_bits: np.ndarray, smap: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-column bit totals and mean SSIM.

    Block bits are spread uniformly over the image columns the block covers,
    so the column totals conserve the frame total exactly.
    """
    block_bits = np.asarray(block_bits, dtype=np.float64)
    h, w = smap.shape
    if block_bits.shape != grid_shape((h, w)):
        raise ContractViolation(
            f"bits grid {block_bits.shape} does not tile a {h}x{w} frame with {BLOCK}px blocks"
        )
    widths = tile_reduce(np.ones((1, w), dtype=np.int64), np.add)[0]  # columns per block
    return np.repeat(block_bits.sum(axis=0) / widths, widths), smap.mean(axis=0)


@dataclass(frozen=True)
class QualityReport:
    """Per-frame evaluation record, one CSV row."""

    frame_idx: int
    bpp: float
    mean_ssim: float
    fw_ssim: float
    fwqi: float

    CSV_HEADER = "frame_idx,bpp,mean_ssim,fw_ssim,fwqi_approx"

    def csv_row(self) -> str:
        return (
            f"{self.frame_idx},{self.bpp:.6f},{self.mean_ssim:.6f},"
            f"{self.fw_ssim:.6f},{self.fwqi:.6f}"
        )
