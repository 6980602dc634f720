"""Spatially displaced frame differences and per-block displacement selection.

Instead of motion search, each frame is differenced against 13 fixed spatial
shifts of the previous reconstruction (no shift, and +/-3, +/-5, +/-7 pixels
along each axis).  A per-block argmin over the residual energies stands in
for a motion model; its inverse rebuilds the frame from a decoded residual.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ContractViolation
from .transform import BLOCK, edge_padded, grid_shape, require_block, tile_reduce
from .video_io import FramePlane, fields_equal

DISPLACEMENT_STEPS = (3, 5, 7)


class Axis(Enum):
    NONE = "none"
    HORIZONTAL = "horizontal"
    VERTICAL = "vertical"


@dataclass(frozen=True)
class Displacement:
    """One member of the fixed 13-entry displacement catalogue."""

    axis: Axis
    s: int

    def __post_init__(self):
        if self.axis is Axis.NONE:
            if self.s != 0:
                raise ContractViolation(f"axis NONE requires s == 0, got {self.s}")
        elif abs(self.s) not in DISPLACEMENT_STEPS:
            raise ContractViolation(f"|s| must be one of {DISPLACEMENT_STEPS}, got {self.s}")


ZERO_DISPLACEMENT = Displacement(Axis.NONE, 0)

# Canonical catalogue: zero first, horizontal before vertical, |s| ascending,
# positive before negative.  Index into this tuple is the coded 4-bit id and
# the tie-break rank for per-block selection.
CATALOGUE = (ZERO_DISPLACEMENT,) + tuple(
    Displacement(axis, sign * step)
    for axis in (Axis.HORIZONTAL, Axis.VERTICAL)
    for step in DISPLACEMENT_STEPS
    for sign in (1, -1)
)


@dataclass(frozen=True, eq=False)
class ResidualPlane:
    """Signed difference plane; every sample lies in [-255, 255]."""

    width: int
    height: int
    samples: np.ndarray  # int16, shape (height, width)

    def __post_init__(self):
        if self.samples.dtype != np.int16:
            raise ContractViolation(f"residual samples must be int16, got {self.samples.dtype}")
        if self.samples.shape != (self.height, self.width):
            raise ContractViolation(
                f"residual shape {self.samples.shape} does not match {self.height}x{self.width}"
            )
        lo, hi = int(self.samples.min()), int(self.samples.max())
        if lo < -255 or hi > 255:
            raise ContractViolation(f"residual samples out of [-255, 255]: min {lo}, max {hi}")


def displaced_difference(cur: FramePlane, prev_recon: FramePlane, d: Displacement) -> ResidualPlane:
    """Residual of the current frame against the previous reconstruction shifted by d,
    its border replicated: the prediction of a field that is d in every block."""
    if (cur.width, cur.height) != (prev_recon.width, prev_recon.height):
        raise ContractViolation(
            f"frame dimensions differ: {cur.width}x{cur.height} vs {prev_recon.width}x{prev_recon.height}"
        )
    field = DisplacementField.uniform(d, *grid_shape((cur.height, cur.width)))
    diff = cur.samples.astype(np.int16) - predicted_plane(prev_recon.samples, field)
    return ResidualPlane(cur.width, cur.height, diff)


def residual_set(cur: FramePlane, prev_recon: FramePlane) -> dict[Displacement, ResidualPlane]:
    """All 13 displaced differences, keyed in order: zero first, then s ascending per axis."""
    order = sorted(CATALOGUE, key=lambda d: (list(Axis).index(d.axis), d.s))
    return {d: displaced_difference(cur, prev_recon, d) for d in order}


@dataclass(frozen=True, eq=False)
class DisplacementField:
    """Per-block displacement choices on the 8x8 grid, stored as catalogue indices."""

    indices: np.ndarray  # int8, shape (blocks_y, blocks_x)

    def __post_init__(self):
        if self.indices.min() < 0 or self.indices.max() >= len(CATALOGUE):
            raise ContractViolation("displacement field contains out-of-catalogue indices")

    @classmethod
    def uniform(cls, d: Displacement, blocks_y: int, blocks_x: int, block_size: int = BLOCK):
        require_block(block_size)
        return cls(np.full((blocks_y, blocks_x), CATALOGUE.index(d), dtype=np.int8))

    __eq__ = fields_equal


def select_displacement_per_block(
    dset: dict[Displacement, ResidualPlane], block_size: int = BLOCK
) -> DisplacementField:
    """Pick, per block, the displacement with minimum sum of squared residuals.

    Ties go to the earliest in CATALOGUE order, so static content
    degenerates to the plain frame difference.  Partial edge blocks count
    only their samples inside the frame.
    """
    require_block(block_size)
    sse = np.stack([tile_reduce(np.square(dset[d].samples, dtype=np.int32), np.add) for d in CATALOGUE])
    return DisplacementField(np.argmin(sse, axis=0).astype(np.int8))  # first minimum wins


def _block_offsets(halve: bool) -> tuple[np.ndarray, np.ndarray]:
    """Per catalogue index, the (rows, columns) shift a block reads at.

    With halve, shift amounts are halved toward zero.
    """
    steps = [int(d.s / 2) if halve else d.s for d in CATALOGUE]  # int() truncates toward zero
    dy = [s if d.axis is Axis.VERTICAL else 0 for d, s in zip(CATALOGUE, steps)]
    dx = [s if d.axis is Axis.HORIZONTAL else 0 for d, s in zip(CATALOGUE, steps)]
    return np.array(dy), np.array(dx)


_OFFSETS = {halve: _block_offsets(halve) for halve in (False, True)}


# Windows lie in the plane edge-padded by _PAD, the largest shift: a row or column
# shifted by s reads at _PAD - s.  A selection strip of 2 block rows holds the 13
# differences in about 0.5 MB of int16 at 720p, which stays in a core's L2 cache.
_PAD = max(DISPLACEMENT_STEPS)
_STRIP = 2


def choose_displacements(cur: np.ndarray, prev_recon: np.ndarray) -> DisplacementField:
    """The encoder's per-block choice, as select_displacement_per_block makes it.

    Both planes get one row stride, a multiple of 8, so each candidate's
    rows of a strip are one contiguous run of the flat padded reference.
    Per strip, the 13 differences are squared in place in int16, then block-summed
    by two float32 matmuls with a ones vector: the 8 rows of each block row, then
    each 8 columns.  Rows and columns past the frame (where a run wraps) are zeroed
    first, so a partial edge block counts only its own samples.  One argmin follows.

    Every step is exact.  A difference lies in [-255, 255]; its int16 square
    wraps, but read as uint16 it is exact (at most 65025 < 2**16) and
    converts exactly to float32.  A block's SSE is at most 64 * 65025 =
    4161600 < 2**24, and every partial sum is a non-negative integer below
    that bound, so any order of summation, FMA included, gives the integer
    sum; the argmin therefore keeps the first minimum of the integer SSEs.
    """
    h, w = cur.shape
    nby, nbx = grid_shape((h, w))
    if prev_recon.min() == prev_recon.max():
        # Every window of a constant plane holds that constant, so each block's
        # 13 integer SSEs are equal and the first minimum, index 0, is the choice.
        return DisplacementField(np.zeros((nby, nbx), dtype=np.int8))
    stride = -(-(w + 2 * _PAD) // BLOCK) * BLOCK
    # one spare row: a run that starts past column 0 ends in the row below
    ref = edge_padded(prev_recon, nby * BLOCK + 2 * _PAD + 1, stride, _PAD).astype(np.int16).reshape(-1)
    cur = np.pad(cur, ((0, nby * BLOCK - h), (0, stride - w))).astype(np.int16).reshape(-1)
    dy, dx = _OFFSETS[False]
    starts = (_PAD - dy) * stride + _PAD - dx
    diff = np.empty((len(CATALOGUE), _STRIP * BLOCK * stride), dtype=np.int16)
    ones = np.ones(BLOCK, dtype=np.float32)
    sse = np.empty((len(CATALOGUE), nby, nbx), dtype=np.float32)
    for by in range(0, nby, _STRIP):
        rows = min(_STRIP, nby - by) * BLOCK
        lo, size = by * BLOCK * stride, rows * stride
        d = diff[:, :size]
        for k, start in enumerate(starts):
            np.subtract(cur[lo : lo + size], ref[lo + start : lo + start + size], out=d[k])
        d = d.reshape(len(CATALOGUE), rows, stride)
        d[:, h - by * BLOCK :] = 0
        np.square(d, out=d)
        column_sums = ones @ d.view(np.uint16).reshape(-1, BLOCK, stride)  # cast to float32 for the matmul
        column_sums[:, w:] = 0
        sums = column_sums.reshape(-1, BLOCK) @ ones
        sse[:, by : by + rows // BLOCK] = sums.reshape(len(CATALOGUE), rows // BLOCK, -1)[..., :nbx]
    return DisplacementField(np.argmin(sse, axis=0).astype(np.int8))  # first minimum wins


def predicted_plane(prev_recon: np.ndarray, field: DisplacementField, halve_offsets: bool = False) -> np.ndarray:
    """The prediction, a new (h, w) uint8 plane: each block reads prev_recon at its displacement.

    With halve_offsets, shift amounts are halved toward zero (4:2:0 chroma
    reuse of a luma field).  Pixel (i, j) of a block shifted by (dy, dx)
    reads prev_recon at (clip(i - dy), clip(j - dx)), replicating the border:
    each block is one 8x8 window of the edge-padded plane.  One slice of
    it, at the offset most blocks take, fills the plane; then each block
    whose offset (not catalogue entry) differs takes its own window.  The
    plane is C-contiguous and shares no memory with prev_recon.
    """
    h, w = prev_recon.shape
    nby, nbx = grid_shape((h, w))
    if field.indices.shape != (nby, nbx):
        raise ContractViolation(f"field grid {field.indices.shape} does not cover {nby}x{nbx} blocks")
    dy, dx = _OFFSETS[halve_offsets]
    common = np.bincount(field.indices.reshape(-1)).argmax()
    y0, x0 = _PAD - dy[common], _PAD - dx[common]
    padded = edge_padded(prev_recon, nby * BLOCK + 2 * _PAD, nbx * BLOCK + 2 * _PAD, _PAD)
    out = padded[y0 : y0 + nby * BLOCK, x0 : x0 + nbx * BLOCK].copy()
    moved = np.flatnonzero(((dy != dy[common]) | (dx != dx[common])).take(field.indices))
    k = field.indices.take(moved)
    by, bx = np.divmod(moved, nbx)
    # runs[y, x] is padded[y, x : x + 8] as one uint64; a block moves as 8 runs
    runs = sliding_window_view(padded, BLOCK, axis=1).view(np.uint64)[..., 0]
    windows = sliding_window_view(runs, BLOCK, axis=0)[BLOCK * by + _PAD - dy[k], BLOCK * bx + _PAD - dx[k]]
    out.view(np.uint64).reshape(nby, BLOCK, nbx)[by, :, bx] = windows
    return np.ascontiguousarray(out[:h, :w])


def reconstruct_frame(
    prev_recon: FramePlane, field: DisplacementField, decoded_residual: ResidualPlane
) -> FramePlane:
    """Inverse of the displaced difference: prediction plus residual, clamped."""
    if (prev_recon.width, prev_recon.height) != (decoded_residual.width, decoded_residual.height):
        raise ContractViolation(
            f"residual is {decoded_residual.width}x{decoded_residual.height}, "
            f"frame is {prev_recon.width}x{prev_recon.height}"
        )
    pred = predicted_plane(prev_recon.samples, field)
    out = np.clip(pred + decoded_residual.samples, 0, 255).astype(np.uint8)
    return FramePlane(prev_recon.width, prev_recon.height, out)
