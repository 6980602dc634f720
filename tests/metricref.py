"""Reference scoring: SSIM maps, FW-SSIM and FWQI computed from whole planes.

These are the module-level ``ssim_map`` and ``fwqi_approx`` as they stood
before ``fmvc.metrics.FrameReference`` shared the reference-side work across
test planes and before scoring went in row strips, kept as the oracle for
both.  The filter, the Haar step and the 2x2 low-pass are this module's own
whole-frame copies, so the oracle does not change with the code under test.
Every call filters and decomposes both planes from scratch.
"""

from __future__ import annotations

import numpy as np
from scipy.ndimage import convolve1d

from fmvc.errors import ContractViolation
from fmvc.foveation import DisplayGeometry, FoveationMap
from fmvc.metrics import FWQI_LEVELS, _C1, _C2, _subband_weights
from fmvc.video_io import FramePlane


def _gaussian_kernel_1d(size: int = 11, sigma: float = 1.5) -> np.ndarray:
    x = np.arange(-(size // 2), size // 2 + 1, dtype=np.float64)
    k = np.exp(-(x * x) / (2.0 * sigma * sigma))
    return k / k.sum()


_KERNEL = _gaussian_kernel_1d()


def _windowed(img: np.ndarray) -> np.ndarray:
    """Separable gaussian filter with zero padding, axis 0 then axis 1."""
    tmp = convolve1d(img, _KERNEL, axis=0, mode="constant", cval=0.0)
    return convolve1d(tmp, _KERNEL, axis=1, mode="constant", cval=0.0)


def _as_float_plane(plane) -> np.ndarray:
    if isinstance(plane, FramePlane):
        return plane.samples.astype(np.float64)
    arr = np.asarray(plane, dtype=np.float64)
    if arr.ndim != 2:
        raise ContractViolation(f"expected a 2-D plane, got shape {arr.shape}")
    return arr


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


def fwqi_approx(ref, test, gaze, geom: DisplayGeometry) -> float:
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
        wts = _subband_weights(scale, ref_band.shape, gaze, geom)
        err_energy += float(((wts * (ref_band - test_band)) ** 2).sum())
        ref_energy += float(((wts * ref_band) ** 2).sum())
    if ref_energy == 0.0:
        raise ContractViolation("weighted reference energy is zero")
    score = 1.0 - np.sqrt(err_energy) / np.sqrt(ref_energy)
    return float(min(max(score, 0.0), 1.0))


def fw_ssim_from_map(smap: np.ndarray, fmap: FoveationMap) -> float:
    """The SSIM map low-passed by a 2x2 box (bottom and right edges
    replicated), averaged under the foveation map's weights."""
    padded = np.pad(smap, ((0, 1), (0, 1)), mode="edge")
    smooth = (padded[:-1, :-1] + padded[:-1, 1:] + padded[1:, :-1] + padded[1:, 1:]) / 4.0
    return float((smooth * fmap.values).sum() / fmap.values.sum())
