"""Quality measurement: SSIM maps, foveation-weighted SSIM, a wavelet-domain
eccentricity-weighted quality score, and per-column bit/SSIM profiles."""

from __future__ import annotations

import numpy as np

from .errors import ContractViolation
from .foveation import DisplayGeometry, FoveationMap, _csf_grid, _spread, display_nyquist
from .transform import BLOCK, edge_padded, grid_shape, tile_reduce
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


# Scoring works in row strips of STRIP_ROWS output rows, so its temporaries
# grow with the frame width, not its area: beyond what it returns, what a
# FrameReference keeps and the arrays the sums below need, it makes no
# frame-sized float plane.  Each strip reads _HALO rows either side of its
# own, the SSIM window's half, and is bit-identical to whole-frame scoring:
# _filtered_rows sums each sample from the same taps in one order (centre,
# then the pairs outermost first) whatever the line length, and a halo row
# past the frame edge is zero just as the padding is, so a strip's own rows
# equal the full frame's; every other step works sample by sample; and every
# reduction (smap.mean(), the FW-SSIM weighted sum, each FWQI band sum) still
# runs over one whole array, so numpy's pairwise summation sees the same array.
STRIP_ROWS = 64
_HALO = SSIM_WINDOW // 2


def _plane(plane) -> np.ndarray:
    """The samples of a FramePlane or a 2-D array, not converted."""
    arr = plane.samples if isinstance(plane, FramePlane) else np.asarray(plane)
    if arr.ndim != 2:
        raise ContractViolation(f"expected a 2-D plane, got shape {arr.shape}")
    return arr


def _strips(plane: np.ndarray):
    """(rows, own, strip) per STRIP_ROWS output rows: the float64 samples of
    those rows and up to _HALO rows either side, own selecting the strip's own."""
    h = plane.shape[0]
    for r0 in range(0, h, STRIP_ROWS):
        r1, a = min(r0 + STRIP_ROWS, h), max(r0 - _HALO, 0)
        yield slice(r0, r1), slice(r0 - a, r1 - a), np.asarray(plane[a : r1 + _HALO], dtype=np.float64)


def _filtered_rows(a: np.ndarray, rows: slice) -> np.ndarray:
    """Rows ``rows`` of ``a`` filtered down its columns by the SSIM kernel over
    zeros past its ends.  Each sample is summed in one fixed order, the one
    scipy.ndimage uses for a symmetric kernel: the centre tap's product, then
    (x[i-j] + x[i+j]) * w[j] added for j from the outermost tap in."""
    padded = np.zeros((a.shape[0] + 2 * _HALO, a.shape[1]))
    padded[_HALO : _HALO + a.shape[0]] = a
    r0, r1 = (r + _HALO for r in rows.indices(a.shape[0])[:2])
    out = padded[r0:r1] * _SSIM_KERNEL[_HALO]
    for j in range(_HALO, 0, -1):
        out += (padded[r0 - j : r1 - j] + padded[r0 + j : r1 + j]) * _SSIM_KERNEL[_HALO - j]
    return out


def _windowed(strip: np.ndarray, own: slice) -> np.ndarray:
    """The strip's own rows of a separable zero-padded gaussian filter (renormalized by caller):
    down the columns, then down the columns of the transposed result, so both passes read whole rows."""
    tmp = _filtered_rows(strip, own)
    return _filtered_rows(tmp.T, slice(None)).T


def _local_moments(x: np.ndarray, own: slice) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Window weight, local mean and local variance of a strip's own rows."""
    weight = _windowed(np.ones_like(x), own)
    mu_x = _windowed(x, own) / weight
    var_x = _windowed(x * x, own) / weight
    var_x -= mu_x * mu_x
    return weight, mu_x, var_x


def _plane_pair(ref, test) -> tuple[np.ndarray, np.ndarray]:
    """The reference's and the test plane's samples, checked to agree in shape."""
    x, y = ref.plane if isinstance(ref, FrameReference) else _plane(ref), _plane(test)
    if x.shape != y.shape:
        raise ContractViolation(f"plane shapes differ: {x.shape} vs {y.shape}")
    return x, y


def ssim_map(ref, test) -> np.ndarray:
    """Per-pixel SSIM with an 11x11 gaussian window (sigma 1.5).

    Borders truncate the window and renormalize its weights, implemented by
    dividing zero-padded filter responses by the filtered all-ones plane.
    ``ref`` is a plane or a FrameReference, which keeps its moments.
    """
    x, y = _plane_pair(ref, test)
    kept = ref.moments() if isinstance(ref, FrameReference) else None
    smap = np.empty(y.shape)
    for (rows, own, xs), (_, _, ys) in zip(_strips(x), _strips(y)):
        weight, mu_x, var_x = _local_moments(xs, own) if kept is None else (m[rows] for m in kept)
        mu_y = _windowed(ys, own) / weight
        cov = _windowed(xs * ys, own) / weight
        cov -= mu_x * mu_y
        var_y = _windowed(ys * ys, own) / weight
        var_y -= mu_y * mu_y
        num = (2.0 * mu_x * mu_y + _C1) * (2.0 * cov + _C2)
        np.divide(num, (mu_x * mu_x + mu_y * mu_y + _C1) * (var_x + var_y + _C2), out=smap[rows])
    return smap


def mean_ssim(ref, test) -> float:
    return float(ssim_map(ref, test).mean())


def haar_lowpass_2x2(values: np.ndarray) -> np.ndarray:
    """2x2 box average, stride 1, replicating the bottom/right border."""
    padded = edge_padded(values, values.shape[0] + 1, values.shape[1] + 1, 0)
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
    h, weighted = smap.shape[0], np.empty(smap.shape)
    for r0 in range(0, h, STRIP_ROWS):
        rows = slice(r0, min(r0 + STRIP_ROWS, h))
        # one row past the strip, so only the frame's last row is replicated
        smooth = haar_lowpass_2x2(smap[r0 : rows.stop + 1])[: rows.stop - r0]
        np.multiply(smooth, fmap.values[rows], out=weighted[rows])
    return float(weighted.sum() / total)


def foveation_weighted_ssim(ref, test, fmap: FoveationMap) -> float:
    """Low-passed SSIM map averaged under foveation-map weights."""
    return fw_ssim_from_map(ssim_map(ref, test), fmap)


# --- wavelet-domain foveated quality -------------------------------------

FWQI_LEVELS = 4
_HAAR_GAIN = 1.0 / np.sqrt(2.0)
# (across columns, across rows) of each orthonormal Haar band, in scoring order
_LH, _HL, _HH, _LL = (np.add, np.subtract), (np.subtract, np.add), (np.subtract, np.subtract), (np.add, np.add)


def _haar_band(plane: np.ndarray, ops) -> np.ndarray:
    """One band of one orthonormal Haar analysis step, built from row strips."""
    band = np.empty((plane.shape[0] // 2, plane.shape[1] // 2))
    for r0 in range(0, plane.shape[0], STRIP_ROWS):
        img = np.asarray(plane[r0 : r0 + STRIP_ROWS], dtype=np.float64)
        half = ops[0](img[:, 0::2], img[:, 1::2]) * _HAAR_GAIN
        band[r0 // 2 : (r0 + STRIP_ROWS) // 2] = ops[1](half[0::2, :], half[1::2, :]) * _HAAR_GAIN
    return band


def _haar_bands(plane: np.ndarray):
    """(scale, band) of the decomposition of the plane's top-left part whose
    sides are multiples of 2**FWQI_LEVELS: LH, HL and HH at each scale, then
    the final LL.  Each band is built only when asked for."""
    unit = 2 ** FWQI_LEVELS
    ch, cw = (plane.shape[0] // unit) * unit, (plane.shape[1] // unit) * unit
    if ch == 0 or cw == 0:
        raise ContractViolation(f"frames of shape {plane.shape} cannot host a {FWQI_LEVELS}-level decomposition")
    ll = plane[:ch, :cw]
    for scale in range(1, FWQI_LEVELS + 1):
        for ops in (_LH, _HL, _HH):
            yield scale, _haar_band(ll, ops)
        ll = _haar_band(ll, _LL)
    yield FWQI_LEVELS, ll


def _subband_weights(scale: int, shape, gaze, geom: DisplayGeometry) -> np.ndarray:
    """Error sensitivity at the subband's center frequency, per coefficient.

    Each coefficient at scale s supports a 2^s x 2^s pixel patch; its weight
    is evaluated at the patch center's eccentricity.
    """
    size = 2 ** scale
    h, w = shape
    xs = (np.arange(w) + 0.5) * size - 0.5
    ys = (np.arange(h) + 0.5) * size - 0.5
    return _spread(*_csf_grid(xs - gaze[0], ys - gaze[1], display_nyquist(geom) / (2.0 ** scale), geom))


def _zero_energy(shape, gaze, geom: DisplayGeometry) -> ContractViolation:
    """The error for a plane of this shape whose weighted energy is zero: it
    names the display when every subband weight is zero, the plane otherwise."""
    unit = 2 ** FWQI_LEVELS
    ch, cw = (shape[0] // unit) * unit, (shape[1] // unit) * unit
    if any(_subband_weights(s, (ch >> s, cw >> s), gaze, geom).any() for s in range(1, FWQI_LEVELS + 1)):
        return ContractViolation("weighted reference energy is zero")
    return ContractViolation(f"nothing is visible at any FWQI scale on this display, whose Nyquist frequency is "
                             f"{display_nyquist(geom):.6g} cycles/degree: every subband weight is zero")


class FrameReference:
    """A reference plane plus the scoring work that depends on it alone, each
    part built on first use and then kept: the SSIM window weight, local mean
    and variance; the cropped Haar bands, and their weights and weighted
    energy for the last gaze and geometry FWQI was asked for.  The plane's
    samples are kept as given and converted a strip at a time."""

    def __init__(self, plane):
        self.plane = _plane(plane)
        self._moments = self._bands = self._weighted = None

    def moments(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Window weight, local mean and local variance."""
        if self._moments is None:
            self._moments = tuple(np.empty(self.plane.shape) for _ in range(3))
            for rows, own, strip in _strips(self.plane):
                for kept, part in zip(self._moments, _local_moments(strip, own)):
                    kept[rows] = part
        return self._moments

    def weighted_bands(self, gaze, geom: DisplayGeometry):
        """(bands, weights by scale, weighted energy); rejects a plane FWQI cannot score."""
        if self._bands is None:
            self._bands = list(_haar_bands(self.plane))
        key = (tuple(gaze), geom)
        if self._weighted is None or self._weighted[0] != key:
            # a band's weights depend on its scale and shape alone, so each scale's are built once
            weights = {scale: _subband_weights(scale, band.shape, gaze, geom)
                       for scale, band in dict(self._bands).items()}
            energy = 0.0
            for scale, band in self._bands:
                energy += float(((weights[scale] * band) ** 2).sum())
            if energy == 0.0:
                raise _zero_energy(self.plane.shape, gaze, geom)
            self._weighted = key, weights, energy
        return self._bands, self._weighted[1], self._weighted[2]


def fwqi_approx(ref, test, gaze, geom: DisplayGeometry) -> float:
    """Wavelet-domain, eccentricity-weighted relative error score in [0, 1].

    A declared approximation: 4-level Haar decomposition, each subband
    weighted by error sensitivity at its center frequency, scored as
    1 - ||weighted difference|| / ||weighted reference||.  ``ref`` is a
    plane or a FrameReference, which keeps its bands and weights; a plane's
    bands, like the test plane's, are built and dropped one at a time.
    """
    x, y = _plane_pair(ref, test)
    shared = isinstance(ref, FrameReference)
    bands, weights, ref_energy = ref.weighted_bands(gaze, geom) if shared else (_haar_bands(x), {}, 0.0)
    err_energy = 0.0
    for (scale, ref_band), (_, test_band) in zip(bands, _haar_bands(y)):
        if scale not in weights:  # a plain reference's, built a scale at a time
            weights = {scale: _subband_weights(scale, ref_band.shape, gaze, geom)}
        err_energy += float(((weights[scale] * (ref_band - test_band)) ** 2).sum())
        if not shared:
            ref_energy += float(((weights[scale] * ref_band) ** 2).sum())
        del ref_band, test_band  # so only zip still holds them while it builds the next pair
    if ref_energy == 0.0:  # a plain reference's; a FrameReference has checked its own
        raise _zero_energy(x.shape, gaze, geom)
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
