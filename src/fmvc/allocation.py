"""Bit allocation: channel mask expansion, rate estimation, block levels."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation
from .foveation import FoveationMap, LevelMap
from .transform import BLOCK, require_block, tile_reduce


@dataclass(frozen=True, eq=False)
class MaskStack:
    """Nested binary channel masks expanded from a foveation map.

    Channels come in c/L groups of identical masks; a channel is on wherever
    the map meets its group threshold, so masks are nonincreasing in channel
    index and the threshold-0 group keeps the periphery from going dark.
    """

    c: int
    L: int
    masks: np.ndarray  # uint8 in {0, 1}, shape (c, height, width)

    def __post_init__(self):
        if self.c < 1 or self.L < 1 or self.c % self.L != 0:
            raise ContractViolation(f"channel count {self.c} must be a positive multiple of L={self.L}")
        if self.masks.shape[0] != self.c or self.masks.ndim != 3:
            raise ContractViolation(f"mask stack shape {self.masks.shape} does not match c={self.c}")

    def active_channels(self) -> np.ndarray:
        """Per-pixel count of enabled channels."""
        return self.masks.sum(axis=0, dtype=np.int64)


def expand_masks(fmap: FoveationMap, c: int = 128, L: int = 16) -> MaskStack:
    """Binary masks: channel k is on at (i, j) iff map >= floor(k/(c/L)) / L."""
    if c < 1 or L < 1 or c % L != 0:
        raise ContractViolation(f"channel count {c} must be a positive multiple of L={L}")
    group = c // L
    thresholds = (np.arange(c) // group) / L
    masks = (fmap.values[None, :, :] >= thresholds[:, None, None]).astype(np.uint8)
    return MaskStack(c, L, masks)


def rate_estimate(fmap: FoveationMap) -> float:
    """Map mass: the continuous stand-in for coded rate."""
    return float(fmap.values.sum())


def level_for_block(levels: LevelMap, block: tuple[int, int, int, int]) -> int:
    """Maximum level inside a block given as (x, y, width, height)."""
    x, y, w, h = block
    if w < 1 or h < 1:
        raise ContractViolation(f"block extent must be positive, got {w}x{h}")
    if x < 0 or y < 0 or x + w > levels.width or y + h > levels.height:
        raise ContractViolation(
            f"block ({x}, {y}, {w}, {h}) outside level map {levels.width}x{levels.height}"
        )
    return int(levels.levels[y : y + h, x : x + w].max())


def block_levels(levels: LevelMap, block_size: int = BLOCK) -> np.ndarray:
    """Per-block maxima over the whole grid; partial edge blocks included."""
    require_block(block_size)
    return tile_reduce(levels.levels, np.maximum)
