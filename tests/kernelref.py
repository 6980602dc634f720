"""Reference kernels: the earlier, plainer formulations of the per-pixel layers.

Each function here restates what a vectorized kernel in ``fmvc`` must
compute, the way the codec once computed it: tiles reduced with two
``reduceat`` passes, shifts as fancy-index gathers, predictions assembled
one displacement at a time, the lifting transform in int64 throughout, and
foveation maps evaluated at every pixel.  ``tests/test_kernels.py`` checks
the kernels against them bit for bit.
"""

from __future__ import annotations

import numpy as np

from fmvc.displacement import CATALOGUE, Axis, DisplacementField
from fmvc.foveation import display_nyquist, eccentricity, error_sensitivity
from fmvc.transform import BLOCK, _fwd8, _inv8, from_tiles, to_tiles


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
    choice = field.indices.reshape(-1)
    tiles = np.empty((choice.size, BLOCK, BLOCK), dtype=prev_recon.dtype)
    for k in np.unique(choice):
        d = CATALOGUE[int(k)]
        s = int(d.s / 2) if halve_offsets else d.s
        picked = choice == k
        tiles[picked] = to_tiles(shift_plane(prev_recon, d.axis, s))[picked]
    return from_tiles(tiles, prev_recon.shape)


def forward_blocks(blocks: np.ndarray) -> np.ndarray:
    b = np.asarray(blocks, dtype=np.int64)
    return _fwd8(_fwd8(b).swapaxes(-1, -2)).swapaxes(-1, -2)


def inverse_blocks(coeffs: np.ndarray) -> np.ndarray:
    c = np.asarray(coeffs, dtype=np.int64)
    return _inv8(_inv8(c.swapaxes(-1, -2)).swapaxes(-1, -2))


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
