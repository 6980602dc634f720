"""Eccentricity-based contrast sensitivity and foveation map generation.

The sensitivity model: detection threshold grows exponentially with the
product of spatial frequency and eccentricity, so per-pixel error visibility
falls off radially from the point of gaze.  Maps come in three forms: the
continuous sensitivity map evaluated at the display Nyquist frequency, its
n-level quantization, and an isotropic gaussian test map whose width (the
mask space constant) acts as a rate-control knob.

The sensitivity map is exactly 0 beyond the visibility radius r*, where the
cutoff frequency drops below the display Nyquist frequency: eccentricity
only grows with distance from the gaze, so no farther pixel is visible.  At
the default geometry r* is about 152 px at 720p and 224 px at CIF, and only
the offsets within it are evaluated.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from numbers import Integral, Real

import numpy as np

from .errors import ContractViolation
from .video_io import fields_equal


def viewing_length(metres: float) -> bool:
    """Whether a screen width or viewing distance is positive and finite (false for NaN)."""
    return 0 < metres < math.inf


# The geometry rule.  The model sees a display through two derived quantities:
# its pixel pitch in metres and its viewing distance in pixels, distance / pitch,
# to which the display Nyquist frequency is proportional.  Both must lie within
# [2**-40, 2**40].  Then the distance, the Nyquist frequency and its subband
# fractions are normal floats, and no on-screen distance, eccentricity or
# sensitivity formed over the offsets of a 65535 x 65535 frame overflows or
# divides by zero.
_SCALE_RANGE = 2.0**40


def geometry_in_range(screen_width_m: float, viewing_distance_m: float, width_px: int) -> bool:
    """Whether a screen this wide in metres and pixels, seen from this far, meets the geometry rule (false for NaN)."""
    pitch = screen_width_m / width_px
    return 1 / _SCALE_RANGE <= pitch <= _SCALE_RANGE and 1 / _SCALE_RANGE <= viewing_distance_m / pitch <= _SCALE_RANGE


def _check_size(width, height) -> None:
    """Reject a frame size in pixels that is not two positive integers."""
    if not all(isinstance(v, Integral) and v > 0 for v in (width, height)):
        raise ContractViolation(f"pixel dimensions {width!r} x {height!r} must be positive integers")


@dataclass(frozen=True)
class DisplayGeometry:
    """Physical viewing setup used to convert pixels to visual degrees."""

    screen_width_m: float
    viewing_distance_m: float
    width_px: int
    height_px: int

    def __post_init__(self):
        _check_size(self.width_px, self.height_px)
        if not geometry_in_range(self.screen_width_m, self.viewing_distance_m, self.width_px):
            raise ContractViolation(f"a {self.screen_width_m} m, {self.width_px} px wide screen seen from "
                                    f"{self.viewing_distance_m} m breaks the geometry rule")

    @property
    def pixel_pitch_m(self) -> float:
        return self.screen_width_m / self.width_px


# Evaluation defaults: a 0.02 m wide screen viewed from 0.012 m.
DEFAULT_SCREEN_WIDTH_M = 0.02
DEFAULT_VIEWING_DISTANCE_M = 0.012


def default_geometry(width_px: int, height_px: int) -> DisplayGeometry:
    return DisplayGeometry(DEFAULT_SCREEN_WIDTH_M, DEFAULT_VIEWING_DISTANCE_M, width_px, height_px)


# The contrast-threshold model's fixed (Geisler-Perry) constants:
# spatial-frequency decay per cycle/degree, half-resolution eccentricity
# in degrees, and minimum contrast threshold.
ALPHA = 0.106
E2 = 2.3
CT0 = 1.0 / 64.0


def _nonnegative(name, value) -> np.ndarray:
    value = np.asarray(value, dtype=np.float64)
    if np.any(value < 0):
        raise ContractViolation(f"{name} must be nonnegative")
    return value


def contrast_threshold(freq_cpd, ecc_deg):
    """Minimum detectable contrast at a spatial frequency and eccentricity.

    Unclamped: values above 1 mean the signal is invisible at full contrast.
    """
    freq_cpd, ecc_deg = _nonnegative("frequency", freq_cpd), _nonnegative("eccentricity", ecc_deg)
    out = CT0 * np.exp(ALPHA * freq_cpd * (ecc_deg + E2) / E2)
    return out if out.ndim else float(out)


def cutoff_frequency(ecc_deg):
    """Frequency at which the threshold reaches full contrast; decreasing in e."""
    ecc_deg = _nonnegative("eccentricity", ecc_deg)
    out = E2 * math.log(1.0 / CT0) / (ALPHA * (ecc_deg + E2))
    return out if out.ndim else float(out)


def error_sensitivity(freq_cpd, ecc_deg):
    """Relative error visibility in [0, 1]; zero above the cutoff frequency."""
    freq_cpd, ecc_deg = _nonnegative("frequency", freq_cpd), _nonnegative("eccentricity", ecc_deg)
    visible = freq_cpd <= cutoff_frequency(ecc_deg)
    out = np.where(visible, np.exp(-ALPHA * freq_cpd * ecc_deg / E2), 0.0)
    return out if out.ndim else float(out)


def eccentricity(pixel, gaze, geom: DisplayGeometry):
    """Angular distance in degrees between a pixel and the gaze point.

    Uses atan of the on-screen distance, which stays exact at the very wide
    angles implied by near viewing distances.
    """
    px, py = (np.asarray(p, dtype=np.float64) for p in pixel)
    r_m = np.hypot(px - gaze[0], py - gaze[1]) * geom.pixel_pitch_m
    out = np.degrees(np.arctan(r_m / geom.viewing_distance_m))
    return out if out.ndim else float(out)


def display_nyquist(geom: DisplayGeometry) -> float:
    """Highest spatial frequency (cycles/degree) the display can show."""
    return math.radians(1.0) * geom.viewing_distance_m / geom.pixel_pitch_m / 2.0  # half the pixels per degree


def _gaze(gaze) -> tuple[float, float]:
    """gaze as (x, y) floats if it is two finite real numbers, else ContractViolation."""
    try:
        if len(gaze) == 2 and all(isinstance(v, Real) and -math.inf < v < math.inf for v in gaze):
            return float(gaze[0]), float(gaze[1])
    except (TypeError, OverflowError):  # no length, or an int too large for a float
        pass
    raise ContractViolation(f"gaze {gaze!r} must be two finite real numbers")


@dataclass(frozen=True, eq=False)
class FoveationMap:
    """Per-pixel weight in [0, 1] plus the gaze it was built around."""

    values: np.ndarray  # float64, shape (height, width); a built map gathers them from _table when first read
    gaze: tuple[float, float]  # (x, y) pixel coordinates
    _built: InitVar[tuple | None] = None  # _spread's arguments, kept as _table (values alone: the identity table)

    def __post_init__(self, _built):
        _gaze(self.gaze)
        if _built is None:
            if self.values.ndim != 2 or self.values.size == 0:
                raise ContractViolation(f"map values must be a non-empty 2-D grid, got shape {self.values.shape}")
            h, w = self.values.shape
            _built = (self.values, np.arange(h), np.arange(w), np.s_[0:h, 0:w], (h, w))
        else:  # built, with values None
            object.__delattr__(self, "values")
        object.__setattr__(self, "_table", _built)
        lo, hi = float(self._table[0].min()), float(self._table[0].max())
        if not (lo >= 0.0 and hi <= 1.0):  # false for NaN too
            raise ContractViolation(f"map values out of [0, 1]: min {lo}, max {hi}")

    def __getattr__(self, name):  # reached by a built map's values until their first read, then never
        if name == "values":
            object.__setattr__(self, "values", _spread(*self._table))
        return object.__getattribute__(self, name)

    __eq__ = fields_equal


def _check_level_count(n: int) -> None:
    if not (isinstance(n, Integral) and 2 <= n <= 256):  # every level must fit the uint8 grid
        raise ContractViolation(f"level count must be an integer in [2, 256], got {n!r}")


@dataclass(frozen=True, eq=False)
class LevelMap:
    """n-level quantization of a foveation map; level 0 is never dropped."""

    levels: np.ndarray  # uint8, shape (height, width)
    n: int
    _built: InitVar[tuple[slice, slice] | None] = None  # kept as _window: levels are 0 outside it (else the whole grid)

    def __post_init__(self, _built):
        _check_level_count(self.n)
        if self.levels.dtype != np.uint8 or self.levels.ndim != 2:
            raise ContractViolation("levels must be a 2-D uint8 grid")
        object.__setattr__(self, "_window", _built or np.s_[0 : self.levels.shape[0], 0 : self.levels.shape[1]])
        if int(self.levels[self._window].max(initial=0)) > self.n - 1:
            raise ContractViolation(f"levels exceed n-1 = {self.n - 1}")

    __eq__ = fields_equal


def radial_gather(dx: np.ndarray, dy: np.ndarray, fn):
    """fn over the grid of offsets (dx[j], dy[i]), for fn symmetric in their signs, as (table, iy, ix).

    fn(x, y) gets a row of unique |dx| and a column of unique |dy| and must
    evaluate elementwise; each unique pair is evaluated once, into the table,
    and table.take(iy, axis=0).take(ix, axis=1) is bit-identical to
    fn(dx[None, :], dy[:, None]) when fn depends on x and y only through |x| and |y|.
    """
    ux, ix = np.unique(np.abs(dx), return_inverse=True)
    uy, iy = np.unique(np.abs(dy), return_inverse=True)
    return fn(ux[None, :], uy[:, None]), iy, ix


def _spread(table: np.ndarray, iy: np.ndarray, ix: np.ndarray, window, shape) -> np.ndarray:
    """A zeroed grid in table's dtype with the gathered table in window, a pair of slices."""
    out = np.zeros(shape, table.dtype)
    table.take(iy, axis=0).take(ix, axis=1, out=out[window], mode="clip")  # no W x H temporary; clip never acts
    return out


# One table: encoding builds each chain's map once per gaze change, so a key's builds come in one run.
_slot: tuple = (None, np.empty((0, 0)))  # _gathered's last key and its table, over the widest offsets read under it


def _gathered(dx: np.ndarray, dy: np.ndarray, fn, reach: float = math.inf, key=None) -> tuple:
    """fn over the grid of ascending offsets (dx[j], dy[i]) within reach, past which it is 0, as _spread's arguments
    (fn symmetric in their signs): by radial_gather, or for whole offsets from fn's read-only table kept under key."""
    global _slot
    (j0, j1), (i0, i1) = np.searchsorted(dx, (-reach, reach)), np.searchsorted(dy, (-reach, reach))
    shape, window, dx, dy = (len(dy), len(dx)), np.s_[i0:i1, j0:j1], dx[j0:j1], dy[i0:i1]
    if key is None:
        return (*radial_gather(dx, dy, fn), window, shape)
    iy, ix = np.abs(dy).astype(np.intp), np.abs(dx).astype(np.intp)
    table, (ky, kx) = _slot[1] if _slot[0] == key else np.empty((0, 0)), (iy.max() + 1, ix.max() + 1)
    if table.shape[0] < ky or table.shape[1] < kx:
        ty, tx = np.maximum(table.shape, (ky, kx))
        table = radial_gather(np.arange(tx, dtype=np.float64), np.arange(ty, dtype=np.float64), fn)[0]
        table.flags.writeable = False
        _slot = key, table
    return table[:ky, :kx], iy, ix, window, shape


def _csf_grid(dx: np.ndarray, dy: np.ndarray, freq: float, geom: DisplayGeometry, key=None) -> tuple:
    """error_sensitivity(freq, eccentricity) over the grid of ascending offsets (dx[j], dy[i]), as
    _gathered gives it: the window, past which it is exactly 0, is the visibility radius."""
    # Why the window is exact.  In real arithmetic a sample is visible iff
    # e(r) + e2 <= Q = e2*ln(1/ct0) / (alpha*freq), and e(r) = degrees(atan(r*pitch/d))
    # rises with r, so visibility is monotone in r: visible iff r <= (d/pitch)*tan(Q - e2).
    # eccentricity and cutoff_frequency (hypot, *, /, arctan, degrees, +, /) each err by a
    # few ulps relative to e + e2 <= Q, and both sides use the same float e2*log(1/ct0), so
    # a sample the float path calls visible has e(r) < Q*(1 + 2**-20) - e2 with room to
    # spare.  Turning that angle into r* (tan and the products) errs by a few ulps times
    # tan's condition number, under 2**-29 while tan < 2**20; widening r* by a relative
    # 2**-20 and 1 px covers that, so no sample outside the window can come out nonzero.
    # Past tan = 2**20 (within 5.5e-5 degrees of 90) the window is unbounded.
    reach_deg = E2 * math.log(1.0 / CT0) / (ALPHA * freq) * (1 + 2**-20) - E2
    tan = math.tan(math.radians(min(max(reach_deg, 0.0), 90.0)))
    reach = tan * geom.viewing_distance_m / geom.pixel_pitch_m * (1 + 2**-20) + 1 if tan < 2**20 else math.inf
    fn = lambda x, y: error_sensitivity(freq, eccentricity((x, y), (0.0, 0.0), geom))
    return _gathered(dx, dy, fn, reach, key)


def foveation_map(geom: DisplayGeometry, gaze) -> FoveationMap:
    """Continuous sensitivity map at the display Nyquist frequency.

    Eccentricity depends on the pixel offsets from the gaze only through
    their magnitudes: a whole-pixel gaze gathers them from the geometry's
    table, any other evaluates each (|dx|, |dy|) pair once; either only
    inside the visibility radius, past which the map is exactly 0.
    """
    gx, gy = _gaze(gaze)
    if not (0 <= gx < geom.width_px and 0 <= gy < geom.height_px):
        raise ContractViolation(f"gaze ({gx}, {gy}) outside frame {geom.width_px}x{geom.height_px}")
    dx, dy = np.arange(geom.width_px, dtype=np.float64) - gx, np.arange(geom.height_px, dtype=np.float64) - gy
    key = geom if gx.is_integer() and gy.is_integer() else None
    return FoveationMap(None, (gx, gy), _csf_grid(dx, dy, display_nyquist(geom), geom, key))


def _quantized(values: np.ndarray, n: int) -> np.ndarray:
    """min(floor(values * n), n - 1) as uint8, for values in [0, 1]: the cast's truncation is the floor."""
    return np.minimum(values * n, n - 1).astype(np.uint8)


def quantize_map(fmap: FoveationMap, n: int = 16) -> LevelMap:
    """Floor quantization with top clamp: level = min(floor(value * n), n - 1).

    The map's table is quantized, then spread into its window of a zeroed
    grid, which the level map keeps: quantizing commutes with the gather.
    """
    _check_level_count(n)  # before the cast, which a huge n would overflow
    table, iy, ix, window, shape = fmap._table
    return LevelMap(_spread(_quantized(table, n), iy, ix, window, shape), n, window)


def gaussian_map(gaze, fmsc_px: float, width: int, height: int) -> FoveationMap:
    """Isotropic gaussian map with sigma equal to the mask space constant."""
    denom = 2.0 * fmsc_px * fmsc_px
    if not (fmsc_px > 0 and 0 < denom < math.inf):  # false for NaN too
        raise ContractViolation(
            f"mask space constant must be positive with a finite, nonzero 2*sigma^2, got {fmsc_px}"
        )
    gx, gy = _gaze(gaze)
    _check_size(width, height)
    whole = gx.is_integer() and gy.is_integer() and 0 <= gx < width and 0 <= gy < height
    dx, dy = np.arange(width, dtype=np.float64) - gx, np.arange(height, dtype=np.float64) - gy
    with np.errstate(over="ignore"):  # a tiny denom sends far samples to -inf, and exp(-inf) is exactly 0
        built = _gathered(dx, dy, lambda x, y: np.exp(-(x**2 + y**2) / denom), key=float(denom) if whole else None)
    return FoveationMap(None, (gx, gy), built)
