"""Reference scoring: SSIM maps and FWQI computed from the two planes alone.

These are the module-level ``ssim_map`` and ``fwqi_approx`` as they stood
before ``fmvc.metrics.FrameReference`` shared the reference-side work across
test planes, kept verbatim as the oracle for it.  Every call filters and
decomposes both planes from scratch.
"""

from __future__ import annotations

import numpy as np

from fmvc.errors import ContractViolation
from fmvc.foveation import DEFAULT_CSF, CsfParams, DisplayGeometry
from fmvc.metrics import (
    FWQI_LEVELS,
    _C1,
    _C2,
    _as_float_plane,
    _haar_decompose,
    _subband_weights,
    _windowed,
)


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
