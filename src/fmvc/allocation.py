"""Bit allocation: channel counts of the mask expansion, block levels."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation
from .foveation import FoveationMap, LevelMap
from .transform import BLOCK, grid_shape, tile_reduce


@dataclass(frozen=True, eq=False)
class MaskStack:
    """Nested binary channel masks expanded from a foveation map, kept as counts.

    Channels come in c/L groups of identical masks; a channel is on wherever
    the map meets its group threshold, so masks are nonincreasing in channel
    index and the threshold-0 group keeps the periphery from going dark.
    So the per-pixel count of groups that are on determines every mask.
    """

    c: int
    L: int
    groups: np.ndarray  # int64 in [1, L], shape (height, width)

    def active_channels(self) -> np.ndarray:
        """Per-pixel count of enabled channels."""
        return self.groups * (self.c // self.L)


def expand_masks(fmap: FoveationMap, c: int = 128, L: int = 16) -> MaskStack:
    """Channel k is on at (i, j) iff map >= floor(k/(c/L)) / L."""
    if c < 1 or L < 1 or c % L != 0:
        raise ContractViolation(f"channel count {c} must be a positive multiple of L={L}")
    # group j's threshold is j/L; count the thresholds at or below each value
    return MaskStack(c, L, np.searchsorted(np.arange(L) / L, fmap.values, side="right"))


def block_levels(levels: LevelMap) -> np.ndarray:
    """Per-block maxima over the whole 8x8 grid; partial edge blocks included.
    Only the tiles that meet the level map's window are reduced: the rest are 0."""
    rows, cols = levels._window
    (t0, s0), (t1, s1) = (rows.start // BLOCK, cols.start // BLOCK), grid_shape((rows.stop, cols.stop))
    out = np.zeros(grid_shape(levels.levels.shape), np.uint8)
    out[t0:t1, s0:s1] = tile_reduce(levels.levels[t0 * BLOCK : t1 * BLOCK, s0 * BLOCK : s1 * BLOCK], np.maximum)
    return out
