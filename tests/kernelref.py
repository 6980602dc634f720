"""Reference kernels: the earlier, plainer formulations of the per-pixel layers.

Each function here restates what a vectorized kernel in ``fmvc`` must
compute, the way the codec once computed it: tiles reduced with two
``reduceat`` passes, shifts as fancy-index gathers, predictions assembled
one displacement at a time, the lifting transform in int64 throughout on
an (n, 8, 8) stack of blocks, and foveation maps evaluated at every pixel.
``tests/test_kernels.py`` checks the kernels against them bit for bit.
``planes`` and ``stack`` convert between the codec's (8, 8, ...) block
layout and such a stack.
"""

from __future__ import annotations

import numpy as np

from fmvc.displacement import CATALOGUE, Axis, DisplacementField
from fmvc.foveation import display_nyquist, eccentricity, error_sensitivity
from fmvc.transform import _EVEN_P, _EVEN_U, _FP, _HALF, _ODD_OPS, BLOCK, from_tiles, to_tiles


def planes(blocks: np.ndarray) -> np.ndarray:
    """An (n, 8, 8) stack of blocks in the codec's (8, 8, n) layout."""
    return np.ascontiguousarray(np.asarray(blocks).transpose(1, 2, 0))


def stack(blocks: np.ndarray) -> np.ndarray:
    """Inverse of planes: blocks laid out (8, 8, ...) as an (n, 8, 8) stack in raster order."""
    blocks = np.asarray(blocks)
    return blocks.reshape(BLOCK, BLOCK, -1).transpose(2, 0, 1)


def tile_reduce(plane: np.ndarray, ufunc: np.ufunc) -> np.ndarray:
    rows = np.arange(0, plane.shape[0], BLOCK)
    cols = np.arange(0, plane.shape[1], BLOCK)
    return ufunc.reduceat(ufunc.reduceat(plane, rows, axis=0), cols, axis=1)


def shift_plane(samples: np.ndarray, axis: Axis, s: int) -> np.ndarray:
    if axis is Axis.NONE or s == 0:
        return samples
    h, w = samples.shape
    if axis is Axis.HORIZONTAL:
        cols = np.clip(np.arange(w) - s, 0, w - 1)
        return samples[:, cols]
    rows = np.clip(np.arange(h) - s, 0, h - 1)
    return samples[rows, :]


def choose_displacements(cur: np.ndarray, prev_recon: np.ndarray) -> DisplacementField:
    cur = cur.astype(np.int16)
    sse = np.stack(
        [
            tile_reduce(np.square(cur - shift_plane(prev_recon, d.axis, d.s), dtype=np.int32), np.add)
            for d in CATALOGUE
        ]
    )
    return DisplacementField(np.argmin(sse, axis=0).astype(np.int8))


def predicted_plane(prev_recon: np.ndarray, field: DisplacementField, halve_offsets: bool = False) -> np.ndarray:
    choice = field.indices
    tiles = np.empty((BLOCK, BLOCK) + choice.shape, dtype=prev_recon.dtype)
    for k in np.unique(choice):
        d = CATALOGUE[int(k)]
        s = int(d.s / 2) if halve_offsets else d.s
        picked = choice == k
        tiles[:, :, picked] = to_tiles(shift_plane(prev_recon, d.axis, s))[:, :, picked]
    return from_tiles(tiles, prev_recon.shape)


def _rot_fwd(a, b, p, u):
    y1 = a + ((p * b + _HALF) >> _FP)
    y2 = b + ((u * y1 + _HALF) >> _FP)
    y3 = y1 + ((p * y2 + _HALF) >> _FP)
    return y3, y2


def _rot_inv(y3, y2, p, u):
    y1 = y3 - ((p * y2 + _HALF) >> _FP)
    b = y2 - ((u * y1 + _HALF) >> _FP)
    a = y1 - ((p * b + _HALF) >> _FP)
    return a, b


def _fwd8(x: np.ndarray) -> np.ndarray:
    """The lifting transform along the last axis (length 8)."""
    lo, hi = x[..., :4], x[..., 4:][..., ::-1]
    s = lo + hi
    o = [lo[..., i] - hi[..., i] for i in range(4)]
    a0, a1 = s[..., 0] + s[..., 3], s[..., 1] + s[..., 2]
    a3, a2 = s[..., 0] - s[..., 3], s[..., 1] - s[..., 2]
    x2, neg_x6 = _rot_fwd(a3, a2, _EVEN_P, _EVEN_U)
    for op in _ODD_OPS:
        if op[0] == "rot":
            _, i, j, p, u = op
            o[i], o[j] = _rot_fwd(o[i], o[j], p, u)
        else:
            _, i, j = op
            o[i], o[j] = -o[i], -o[j]
    return np.stack([a0 + a1, o[0], x2, o[1], a0 - a1, o[2], -neg_x6, o[3]], axis=-1)


def _inv8(c: np.ndarray) -> np.ndarray:
    """Exact inverse of _fwd8 along the last axis."""
    o = [c[..., 1], c[..., 3], c[..., 5], c[..., 7]]
    for op in reversed(_ODD_OPS):
        if op[0] == "rot":
            _, i, j, p, u = op
            o[i], o[j] = _rot_inv(o[i], o[j], p, u)
        else:
            _, i, j = op
            o[i], o[j] = -o[i], -o[j]
    a3, a2 = _rot_inv(c[..., 2], -c[..., 6], _EVEN_P, _EVEN_U)
    a0, a1 = (c[..., 0] + c[..., 4]) >> 1, (c[..., 0] - c[..., 4]) >> 1
    s = [(a0 + a3) >> 1, (a1 + a2) >> 1, (a1 - a2) >> 1, (a0 - a3) >> 1]
    out = np.empty(c.shape, dtype=c.dtype)
    for i in range(4):
        out[..., i] = (s[i] + o[i]) >> 1
        out[..., 7 - i] = (s[i] - o[i]) >> 1
    return out


def forward_blocks(blocks: np.ndarray) -> np.ndarray:
    """Rows, then columns, of every block of an (8, 8, n) layout, one stack in int64."""
    b = stack(blocks).astype(np.int64)
    return planes(_fwd8(_fwd8(b).swapaxes(-1, -2)).swapaxes(-1, -2)).reshape(np.shape(blocks))


def inverse_blocks(coeffs: np.ndarray) -> np.ndarray:
    c = stack(coeffs).astype(np.int64)
    return planes(_inv8(_inv8(c.swapaxes(-1, -2)).swapaxes(-1, -2))).reshape(np.shape(coeffs))


def round_div_half_away(values, steps):
    """values / steps rounded half away from zero, in integer arithmetic."""
    values, steps = np.asarray(values, dtype=np.int64), np.asarray(steps, dtype=np.int64)
    return np.sign(values) * ((2 * np.abs(values) + steps) // (2 * steps))


def _pixel_grid(width: int, height: int):
    ys, xs = np.mgrid[0:height, 0:width]
    return xs.astype(np.float64), ys.astype(np.float64)


def foveation_map_values(geom, gaze, params) -> np.ndarray:
    xs, ys = _pixel_grid(geom.width_px, geom.height_px)
    ecc = eccentricity((xs, ys), (float(gaze[0]), float(gaze[1])), geom)
    return np.asarray(error_sensitivity(display_nyquist(geom), ecc, params), dtype=np.float64)


def gaussian_map_values(gaze, fmsc_px: float, width: int, height: int) -> np.ndarray:
    gx, gy = float(gaze[0]), float(gaze[1])
    xs, ys = _pixel_grid(width, height)
    r2 = (xs - gx) ** 2 + (ys - gy) ** 2
    return np.exp(-r2 / (2.0 * fmsc_px * fmsc_px))


def subband_weights(scale: int, shape, gaze, geom, params) -> np.ndarray:
    size = 2**scale
    h, w = shape
    xs = (np.arange(w) + 0.5) * size - 0.5
    ys = (np.arange(h) + 0.5) * size - 0.5
    ecc = eccentricity(np.meshgrid(xs, ys), gaze, geom)
    freq = display_nyquist(geom) / (2.0**scale)
    return np.asarray(error_sensitivity(freq, ecc, params), dtype=np.float64)
