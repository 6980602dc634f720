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

from .errors import ContractViolation
from .transform import BLOCK, grid_shape, require_block, tile_reduce
from .video_io import FramePlane

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

# Iteration order of a residual set: zero first, then s ascending per axis.
_SET_ORDER = (ZERO_DISPLACEMENT,) + tuple(
    Displacement(axis, s)
    for axis in (Axis.HORIZONTAL, Axis.VERTICAL)
    for s in sorted(step * sign for step in DISPLACEMENT_STEPS for sign in (1, -1))
)

CATALOGUE_INDEX = {d: i for i, d in enumerate(CATALOGUE)}


def shift_plane(samples: np.ndarray, axis: Axis, s: int, out: np.ndarray | None = None) -> np.ndarray:
    """Sample a plane at coordinates displaced by s, replicating the border.

    Horizontal: out(i, j) = samples(i, j - s); vertical: out(i, j) =
    samples(i - s, j).  Accepts any integer s (chroma uses halved offsets).
    With no shift and no out, returns samples itself.  Writes into out, a
    plane of the same shape, when one is given.
    """
    if axis is Axis.NONE or s == 0:
        if out is None:
            return samples
        out[...] = samples
        return out
    if out is None:
        out = np.empty_like(samples)
    src, dst = (samples, out) if axis is Axis.VERTICAL else (samples.T, out.T)
    n = len(src)
    k = min(abs(s), n)
    if s > 0:
        dst[k:] = src[: n - k]
        dst[:k] = src[:1]
    else:
        dst[: n - k] = src[k:]
        dst[n - k :] = src[n - 1 :]
    return out


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

    def __eq__(self, other):
        return (
            isinstance(other, ResidualPlane)
            and (self.width, self.height) == (other.width, other.height)
            and np.array_equal(self.samples, other.samples)
        )


def displaced_difference(cur: FramePlane, prev_recon: FramePlane, d: Displacement) -> ResidualPlane:
    """Residual of the current frame against a shifted previous reconstruction."""
    if (cur.width, cur.height) != (prev_recon.width, prev_recon.height):
        raise ContractViolation(
            f"frame dimensions differ: {cur.width}x{cur.height} vs {prev_recon.width}x{prev_recon.height}"
        )
    shifted = shift_plane(prev_recon.samples, d.axis, d.s)
    diff = cur.samples.astype(np.int16) - shifted.astype(np.int16)
    return ResidualPlane(cur.width, cur.height, diff)


def residual_set(cur: FramePlane, prev_recon: FramePlane) -> dict[Displacement, ResidualPlane]:
    """All 13 displaced differences, keyed and ordered deterministically."""
    return {d: displaced_difference(cur, prev_recon, d) for d in _SET_ORDER}


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
        return cls(np.full((blocks_y, blocks_x), CATALOGUE_INDEX[d], dtype=np.int8))

    def __eq__(self, other):
        return isinstance(other, DisplacementField) and np.array_equal(self.indices, other.indices)


def _least_sse(residuals) -> DisplacementField:
    """Per block, the index of the residual with minimum sum of squares.

    Residuals come one plane at a time in CATALOGUE order; ties go to the
    earliest, so static content degenerates to the plain frame difference.
    Partial edge blocks count only their samples inside the frame.
    """
    sse = np.stack([tile_reduce(np.square(r, dtype=np.int32), np.add) for r in residuals])
    return DisplacementField(np.argmin(sse, axis=0).astype(np.int8))  # first minimum wins


def choose_displacements(cur: np.ndarray, prev_recon: np.ndarray) -> DisplacementField:
    """The encoder's per-block choice, straight from the 13 shifted planes.

    Every candidate is shifted into, and differenced in, the same two int16
    buffers.
    """
    cur = cur.astype(np.int16)
    prev = prev_recon.astype(np.int16)
    shifted = np.empty_like(prev)
    diff = np.empty_like(prev)
    return _least_sse(
        np.subtract(cur, shift_plane(prev, d.axis, d.s, out=shifted), out=diff) for d in CATALOGUE
    )


def select_displacement_per_block(
    dset: dict[Displacement, ResidualPlane], block_size: int = BLOCK
) -> DisplacementField:
    """Pick, per block, the displacement with minimum sum of squared residuals."""
    require_block(block_size)
    return _least_sse(dset[d].samples for d in CATALOGUE)


def _block_offsets(halve: bool) -> tuple[np.ndarray, np.ndarray]:
    """Per catalogue index, the (rows, columns) shift a block reads at.

    With halve, shift amounts are halved toward zero.
    """
    steps = [int(d.s / 2) if halve else d.s for d in CATALOGUE]  # int() truncates toward zero
    dy = [s if d.axis is Axis.VERTICAL else 0 for d, s in zip(CATALOGUE, steps)]
    dx = [s if d.axis is Axis.HORIZONTAL else 0 for d, s in zip(CATALOGUE, steps)]
    return np.array(dy), np.array(dx)


_OFFSETS = {halve: _block_offsets(halve) for halve in (False, True)}


def predicted_plane(prev_recon: np.ndarray, field: DisplacementField, halve_offsets: bool = False) -> np.ndarray:
    """Assemble the prediction: each block reads prev_recon at its displacement.

    With halve_offsets, shift amounts are halved toward zero (4:2:0 chroma
    reuse of a luma field).  Pixel (i, j) of a block shifted by (dy, dx)
    reads prev_recon at (clip(i - dy), clip(j - dx)), as shift_plane does;
    the plane is gathered in one take over flat indices, int32 unless the
    plane has 2**31 samples or more.
    """
    h, w = prev_recon.shape
    nby, nbx = grid_shape((h, w))
    if field.indices.shape != (nby, nbx):
        raise ContractViolation(f"field grid {field.indices.shape} does not cover {nby}x{nbx} blocks")
    dtype = np.int32 if h * w <= 2**31 else np.int64
    dy, dx = (table[field.indices].astype(dtype) for table in _OFFSETS[halve_offsets])
    # source row of every pixel row, per block column, pre-multiplied by w
    rows = np.arange(nby * BLOCK, dtype=dtype).reshape(nby, BLOCK, 1) - dy[:, None, :]
    np.clip(rows, 0, h - 1, out=rows)
    rows *= w
    # source column of every pixel column, per block row
    cols = np.arange(nbx * BLOCK, dtype=dtype).reshape(nbx, BLOCK) - dx[:, :, None]
    np.clip(cols, 0, w - 1, out=cols)
    index = np.empty((nby, BLOCK, nbx, BLOCK), dtype=dtype)
    np.add(rows[:, :, :, None], cols[:, None, :, :], out=index)
    index = index.reshape(nby * BLOCK, nbx * BLOCK)[:h, :w]
    return prev_recon.reshape(-1).take(index)


def reconstruct_frame(
    prev_recon: FramePlane, field: DisplacementField, decoded_residual: ResidualPlane
) -> FramePlane:
    """Inverse of the displaced difference: prediction plus residual, clamped."""
    if (prev_recon.width, prev_recon.height) != (decoded_residual.width, decoded_residual.height):
        raise ContractViolation(
            f"residual is {decoded_residual.width}x{decoded_residual.height}, "
            f"frame is {prev_recon.width}x{prev_recon.height}"
        )
    pred = predicted_plane(prev_recon.samples, field).astype(np.int32)
    out = np.clip(pred + decoded_residual.samples, 0, 255).astype(np.uint8)
    return FramePlane(prev_recon.width, prev_recon.height, out)
