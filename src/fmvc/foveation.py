"""Eccentricity-based contrast sensitivity and foveation map generation.

The sensitivity model: detection threshold grows exponentially with the
product of spatial frequency and eccentricity, so per-pixel error visibility
falls off radially from the point of gaze.  Maps come in three forms: the
continuous sensitivity map evaluated at the display Nyquist frequency, its
n-level quantization, and an isotropic gaussian test map whose width (the
mask space constant) acts as a rate-control knob.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation


@dataclass(frozen=True)
class DisplayGeometry:
    """Physical viewing setup used to convert pixels to visual degrees."""

    screen_width_m: float
    viewing_distance_m: float
    width_px: int
    height_px: int

    def __post_init__(self):
        if not (0 < self.screen_width_m < math.inf and 0 < self.viewing_distance_m < math.inf):
            raise ContractViolation("screen width and viewing distance must be positive and finite")
        if self.width_px <= 0 or self.height_px <= 0:
            raise ContractViolation("pixel dimensions must be positive")

    @property
    def pixel_pitch_m(self) -> float:
        return self.screen_width_m / self.width_px


# Evaluation defaults: a 0.02 m wide screen viewed from 0.012 m.
DEFAULT_SCREEN_WIDTH_M = 0.02
DEFAULT_VIEWING_DISTANCE_M = 0.012


def default_geometry(width_px: int, height_px: int) -> DisplayGeometry:
    return DisplayGeometry(DEFAULT_SCREEN_WIDTH_M, DEFAULT_VIEWING_DISTANCE_M, width_px, height_px)


@dataclass(frozen=True)
class CsfParams:
    """Contrast-threshold model constants.

    alpha: spatial-frequency decay (per cycle/degree); e2: half-resolution
    eccentricity in degrees; ct0: minimum contrast threshold.
    """

    alpha: float = 0.106
    e2: float = 2.3
    ct0: float = 1.0 / 64.0

    def __post_init__(self):
        if self.alpha <= 0 or self.e2 <= 0:
            raise ContractViolation("alpha and e2 must be positive")
        if not 0 < self.ct0 < 1:
            raise ContractViolation(f"ct0 must lie in (0, 1), got {self.ct0}")


DEFAULT_CSF = CsfParams()


def _check_nonnegative(name, value):
    if np.any(np.asarray(value) < 0):
        raise ContractViolation(f"{name} must be nonnegative")


def contrast_threshold(freq_cpd, ecc_deg, params: CsfParams = DEFAULT_CSF):
    """Minimum detectable contrast at a spatial frequency and eccentricity.

    Unclamped: values above 1 mean the signal is invisible at full contrast.
    """
    _check_nonnegative("frequency", freq_cpd)
    _check_nonnegative("eccentricity", ecc_deg)
    freq_cpd = np.asarray(freq_cpd, dtype=np.float64)
    ecc_deg = np.asarray(ecc_deg, dtype=np.float64)
    out = params.ct0 * np.exp(params.alpha * freq_cpd * (ecc_deg + params.e2) / params.e2)
    return out if out.ndim else float(out)


def cutoff_frequency(ecc_deg, params: CsfParams = DEFAULT_CSF):
    """Frequency at which the threshold reaches full contrast; decreasing in e."""
    _check_nonnegative("eccentricity", ecc_deg)
    ecc_deg = np.asarray(ecc_deg, dtype=np.float64)
    out = params.e2 * math.log(1.0 / params.ct0) / (params.alpha * (ecc_deg + params.e2))
    return out if out.ndim else float(out)


def error_sensitivity(freq_cpd, ecc_deg, params: CsfParams = DEFAULT_CSF):
    """Relative error visibility in [0, 1]; zero above the cutoff frequency."""
    _check_nonnegative("frequency", freq_cpd)
    _check_nonnegative("eccentricity", ecc_deg)
    freq_cpd = np.asarray(freq_cpd, dtype=np.float64)
    ecc_deg = np.asarray(ecc_deg, dtype=np.float64)
    visible = freq_cpd <= cutoff_frequency(ecc_deg, params)
    out = np.where(visible, np.exp(-params.alpha * freq_cpd * ecc_deg / params.e2), 0.0)
    return out if out.ndim else float(out)


def eccentricity(pixel, gaze, geom: DisplayGeometry):
    """Angular distance in degrees between a pixel and the gaze point.

    Uses atan of the on-screen distance, which stays exact at the very wide
    angles implied by near viewing distances.
    """
    px = np.asarray(pixel[0], dtype=np.float64)
    py = np.asarray(pixel[1], dtype=np.float64)
    r_px = np.hypot(px - gaze[0], py - gaze[1])
    r_m = r_px * geom.pixel_pitch_m
    out = np.degrees(np.arctan(r_m / geom.viewing_distance_m))
    return out if out.ndim else float(out)


def display_nyquist(geom: DisplayGeometry) -> float:
    """Highest spatial frequency (cycles/degree) the display can show."""
    pixels_per_degree = math.radians(1.0) * geom.viewing_distance_m / geom.pixel_pitch_m
    return pixels_per_degree / 2.0


@dataclass(frozen=True, eq=False)
class FoveationMap:
    """Per-pixel weight in [0, 1] plus the gaze it was built around."""

    values: np.ndarray  # float64, shape (height, width)
    gaze: tuple[float, float]  # (x, y) pixel coordinates

    def __post_init__(self):
        if self.values.ndim != 2:
            raise ContractViolation(f"map values must be 2-D, got shape {self.values.shape}")
        if self.values.size == 0:
            raise ContractViolation("map must not be empty")
        lo, hi = float(self.values.min()), float(self.values.max())
        if not (lo >= 0.0 and hi <= 1.0):  # false for NaN too
            raise ContractViolation(f"map values out of [0, 1]: min {lo}, max {hi}")

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def height(self) -> int:
        return self.values.shape[0]

    def __eq__(self, other):
        return (
            isinstance(other, FoveationMap)
            and self.gaze == other.gaze
            and np.array_equal(self.values, other.values)
        )


def _check_level_count(n: int) -> None:
    if not 2 <= n <= 256:  # every level must fit the uint8 grid
        raise ContractViolation(f"level count must lie in [2, 256], got {n}")


@dataclass(frozen=True, eq=False)
class LevelMap:
    """n-level quantization of a foveation map; level 0 is never dropped."""

    levels: np.ndarray  # uint8, shape (height, width)
    n: int

    def __post_init__(self):
        _check_level_count(self.n)
        if self.levels.dtype != np.uint8 or self.levels.ndim != 2:
            raise ContractViolation("levels must be a 2-D uint8 grid")
        if int(self.levels.max(initial=0)) > self.n - 1:
            raise ContractViolation(f"levels exceed n-1 = {self.n - 1}")

    @property
    def width(self) -> int:
        return self.levels.shape[1]

    @property
    def height(self) -> int:
        return self.levels.shape[0]

    def __eq__(self, other):
        return (
            isinstance(other, LevelMap)
            and self.n == other.n
            and np.array_equal(self.levels, other.levels)
        )


def radial_gather(dx: np.ndarray, dy: np.ndarray, fn) -> np.ndarray:
    """fn over the grid of offsets (dx[j], dy[i]), for fn symmetric in their signs.

    fn(x, y) gets a row of unique |dx| and a column of unique |dy| and must
    evaluate elementwise; each unique pair is evaluated once and gathered
    into the (len(dy), len(dx)) result, which is bit-identical to
    fn(dx[None, :], dy[:, None]) when fn depends on its arguments only
    through |x| and |y|.
    """
    ux, ix = np.unique(np.abs(dx), return_inverse=True)
    uy, iy = np.unique(np.abs(dy), return_inverse=True)
    return fn(ux[None, :], uy[:, None]).take(iy, axis=0).take(ix, axis=1)


def foveation_map(geom: DisplayGeometry, gaze, params: CsfParams = DEFAULT_CSF) -> FoveationMap:
    """Continuous sensitivity map at the display Nyquist frequency.

    Eccentricity depends on the pixel offsets from the gaze only through
    their magnitudes, so each (|dx|, |dy|) pair is evaluated once.
    """
    gx, gy = float(gaze[0]), float(gaze[1])
    if not (0 <= gx < geom.width_px and 0 <= gy < geom.height_px):
        raise ContractViolation(
            f"gaze ({gx}, {gy}) outside frame {geom.width_px}x{geom.height_px}"
        )
    nyquist = display_nyquist(geom)
    values = radial_gather(
        np.arange(geom.width_px, dtype=np.float64) - gx,
        np.arange(geom.height_px, dtype=np.float64) - gy,
        lambda x, y: error_sensitivity(nyquist, eccentricity((x, y), (0.0, 0.0), geom), params),
    )
    return FoveationMap(np.asarray(values, dtype=np.float64), (gx, gy))


def quantize_map(fmap: FoveationMap, n: int = 16) -> LevelMap:
    """Floor quantization with top clamp: level = min(floor(value * n), n - 1)."""
    _check_level_count(n)  # before the cast, which a huge n would overflow
    # values lie in [0, 1], so the cast's truncation is the floor
    levels = fmap.values * n
    np.minimum(levels, n - 1, out=levels)
    return LevelMap(levels.astype(np.uint8), n)


def gaussian_map(gaze, fmsc_px: float, width: int, height: int) -> FoveationMap:
    """Isotropic gaussian map with sigma equal to the mask space constant."""
    denom = 2.0 * fmsc_px * fmsc_px
    if not (fmsc_px > 0 and 0 < denom < math.inf):  # false for NaN too
        raise ContractViolation(
            f"mask space constant must be positive with a finite, nonzero 2*sigma^2, got {fmsc_px}"
        )
    gx, gy = float(gaze[0]), float(gaze[1])
    with np.errstate(over="ignore"):  # a tiny denom sends far samples to -inf, and exp(-inf) is exactly 0
        values = radial_gather(
            np.arange(width, dtype=np.float64) - gx,
            np.arange(height, dtype=np.float64) - gy,
            lambda x, y: np.exp(-(x**2 + y**2) / denom),
        )
    return FoveationMap(values, (gx, gy))
