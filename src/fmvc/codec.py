"""Residual codec: level-indexed quantization, entropy coding, bitstreams.

Given the per-block levels, the coding path runs in integers only
(transform, quantizer, entropy code), so identical inputs produce
byte-identical streams.  The levels are the one float-to-integer step:
they come from a foveation map built with libm exp and arctan (or exp for
a gaussian map).  Of every value a whole-pixel gaze reads at CIF and 720p
(the default CSF tables; gaussians of sigma H/10 to H/2), the closest to a
level boundary j/16 lies 7.7e-10, some 1e8 ulps, from it
(tests/level_margin.py), so a libm or SIMD kernel off by a few ulps moves
no level there: measured, not proved.  Before transforming, the encoder proves which
blocks quantize to all zeros with a float32 pre-test (_may_be_nonzero).
That test only decides what to skip and is provably conservative: every
block it skips is zero through the full path, so streams do not depend
on it.  A frame's Y, Cb and Cr residual blocks form one (8, 8, n) block
array in payload order, Y then Cb then Cr, and each side gathers their
steps once; the pre-test, both transforms, the quantizer and the entropy
coder each run once per frame.  The decoder's output is bit-exactly the
encoder's own reconstruction; both sides share one prediction and one
reconstruction routine so the recurrent frame chain cannot drift.
"""

from __future__ import annotations

import struct
import zlib
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from numbers import Integral
from typing import ClassVar

import numpy as np

from .allocation import block_levels
from .bitio import decode_blocks, encode_blocks, payload_bounds
from .displacement import CATALOGUE, DisplacementField, choose_displacements, predicted_plane
from .errors import BitstreamError, ConfigError, ContractViolation, UnsupportedFormat, UnsupportedVersion
from .foveation import (DEFAULT_SCREEN_WIDTH_M, DEFAULT_VIEWING_DISTANCE_M, DisplayGeometry, FoveationMap, LevelMap,
                        _gaze, geometry_in_range, quantize_map, viewing_length)
from .transform import (
    BLOCK,
    FORWARD_MATRIX,
    FORWARD_ROUNDING,
    forward_blocks,
    grid_shape,
    grid_tiles,
    inverse_blocks,
)
from .video_io import MAX_PIXELS, Frame, FramePlane, VideoSequence

MAGIC = b"FMVC"
VERSION = 2
_HEADER = struct.Struct("<4sHHHHHI3dB")  # magic, version, W, H, fps, count, geometry, level count (16)
_FRAME_HEAD = struct.Struct("<HHBI")  # gaze_x, gaze_y, fmsc_code, payload bytes
# CRC-32 after the header over it, and after each frame head over it and its payload
_CRC = struct.Struct("<I")

# The codec codes 16 levels, and each luma block prefix holds its level in 4 bits.
MAX_LEVELS = 16
# Coefficients stay within +-16320, so every base above 32640 already zeroes
# them all; the bound keeps the stored base an exact, finite integer.
MAX_Q_BASE = 65535


def _check_schedule(q_base) -> None:
    """Reject a base step that no schedule, and so no stream header, can
    hold: an integer within the header's bound."""
    if not (isinstance(q_base, Integral) and 1 <= q_base <= MAX_Q_BASE):
        raise ContractViolation(f"base step must be an integer in [1, {MAX_Q_BASE}], got {q_base}")


@dataclass(frozen=True)
class QuantSchedule:
    """Per-level quantizer steps: geometric in the level, q_base at the top.

    steps[l] = max(1, round(q_base * 2**((15 - l) / 2))) over the codec's 16
    levels mirrors the exponential falloff of peripheral sensitivity, so each
    level buys a roughly equal perceptual increment.
    """

    n_levels: ClassVar[int] = MAX_LEVELS
    q_base: int = 4
    steps: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        _check_schedule(self.q_base)
        steps = tuple(max(1, int(self.q_base * 2.0 ** ((MAX_LEVELS - 1 - l) / 2.0) + 0.5)) for l in range(MAX_LEVELS))
        object.__setattr__(self, "steps", steps)

    def steps_array(self) -> np.ndarray:
        """The steps in the dequantization lane: an int16 coefficient times a
        step below 2**16 stays below 2**31, so int32 until then, else int64."""
        return np.asarray(self.steps, np.int32 if max(self.steps) < 1 << 16 else np.int64)


@dataclass(frozen=True)
class CodecConfig:
    """Encoder knobs; decoding needs none of them."""

    force_zero_displacement: bool = False


def _quantize_plane_blocks(coeffs: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """Quantize (8, 8, n) coefficients at their blocks' steps (n,), rounding
    half away from zero: sign(c) * ((2|c| + s) // 2s).

    Residuals of 8-bit planes keep |c| <= 16320 and no step exceeds
    11863102, so 2|c| + s stays in the lifting's int32 lane, and the
    quotient, at most |c|, fits int16.
    """
    q = np.abs(coeffs, dtype=np.int32)
    q *= 2
    q += steps
    q //= 2 * steps
    q *= np.sign(coeffs)
    return q.astype(np.int16)


def _most(blocks: np.ndarray) -> bool:
    """Whether at least 3/4 of a frame's blocks are flagged: then one pass
    over every block costs less than gathering the flagged ones."""
    return 4 * np.count_nonzero(blocks) >= 3 * blocks.size


# The all-zero pre-test (_may_be_nonzero).  A block's coefficients are
# c = T x + d, with T = FORWARD_MATRIX (within 2**-40 of the exact linear
# part) and |d| <= FORWARD_ROUNDING = eps, and no exact entry of T exceeds
# 1 in magnitude (the DC row is all ones).  Residuals of 8-bit planes lie
# within +-255, so a block's SAD S is at most 64 * 255 = 16320, and a
# coefficient quantizes to zero exactly when 2|c| < step.
#
# Stage 1: |c| <= S + max(eps), so a block with 2S + _SAD_MARGIN < step is
# all zeros; the margin is 2 max(eps) rounded up to an integer.
#
# Stage 2: y = T32 x in float32, T32 the float32 rounding of T, so each
# T32 entry is within 2**-23 of the exact one and at most 1 in magnitude.
# A float32 sum of 64 products, in any order and with or without FMA, is
# within gamma_64 = 64u / (1 - 64u) < 2**-17 (u = 2**-24) of exact per
# unit of sum |T32 x| <= S.  So |T x - y| < 2**-16 S < 1/4, and
# |c| < |y| + eps + 1/4.  The envelope adds 1/2 to eps and rounds up to a
# multiple of 1/16, which float32 holds exactly; |y| + envelope stays
# below 2**15, so its float32 sum z is within 2**-10 of exact, and |c| < z.
# A block whose every 2z is below its step is all zeros.  z is at least
# the envelope, so only blocks with a step above _MATMUL_STEP can pass; the
# others skip the matmul.  A frame where stage 1 keeps at least 3/4 of the
# blocks is busy (every CIF frame at q_base 4 keeps over 9/10; 720p frames
# at q_base 32 keep about 3/10): _quantized_frame then transforms every
# block, so the matmul is skipped, as its result would change nothing.
#
# The float arithmetic only decides what to skip.  A skipped block is
# provably zero, and every other block is transformed and quantized as
# before, so streams do not depend on it.
_SAD_MARGIN = int(np.ceil(2 * FORWARD_ROUNDING.max()))
_T32 = FORWARD_MATRIX.astype(np.float32)
_ENVELOPE = (np.ceil((FORWARD_ROUNDING + 0.5) * 16) / 16).astype(np.float32)[:, None]
_MATMUL_STEP = 2 * float(_ENVELOPE.max())


def _may_be_nonzero(blocks: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """Which residual blocks, laid out (64, n), may quantize to a nonzero
    coefficient at their steps (n,); the others provably quantize to zeros."""
    live = np.abs(blocks).sum(axis=0, dtype=blocks.dtype) >= (steps - _SAD_MARGIN + 1) // 2
    tested = np.flatnonzero(live & (steps > _MATMUL_STEP))
    if tested.size and not _most(live):
        z = _T32 @ blocks[:, tested].astype(np.float32)
        np.abs(z, out=z)
        z += _ENVELOPE
        live[tested] = 2 * z.max(axis=0) >= steps[tested]
    return live


def _quantized_frame(planes, preds, steps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Transform and quantize the residuals of planes against their raster
    predictions, as one (8, 8, n) block array in plane order, each block at
    its step in steps (n,), and the mask of the blocks that hold a nonzero
    coefficient, found among those quantized.

    Only the blocks _may_be_nonzero keeps are transformed and quantized, and
    the rest stay zero; but with at least 3/4 of the blocks kept, the whole
    array is transformed, as that costs less than gathering them.
    """
    residual = np.empty((BLOCK, BLOCK, len(steps)), dtype=np.int16)
    start = 0
    for cur, pred in zip(planes, preds):
        tiles = grid_tiles(np.subtract(cur, pred, dtype=np.int16))[1]
        stop = start + tiles[0, 0].size
        residual[:, :, start:stop].reshape(tiles.shape)[...] = tiles
        start = stop
    live = _may_be_nonzero(residual.reshape(BLOCK * BLOCK, -1), steps)
    if _most(live):
        qblocks = _quantize_plane_blocks(forward_blocks(residual), steps)
        return qblocks, qblocks.any(axis=(0, 1))
    qblocks = np.zeros(residual.shape, dtype=np.int16)
    qblocks[:, :, live] = quantized = _quantize_plane_blocks(forward_blocks(residual[:, :, live]), steps[live])
    live[live] = quantized.any(axis=(0, 1))  # live narrows to the coded blocks
    return qblocks, live


def _chroma_grid(luma_grid: np.ndarray) -> np.ndarray:
    """Per chroma block, the value of the luma block covering its top-left.

    Chroma block i spans luma blocks 2i and 2i+1 along each axis, and a
    chroma plane of ceil(n/2) samples holds ceil(n/16) blocks, one per even
    luma block of the ceil(n/8); so the even rows and columns of the luma
    grid are exactly the chroma grid.
    """
    return luma_grid[::2, ::2]


def _block_counts(width: int, height: int) -> tuple[int, int]:
    """Blocks in the luma plane and in each chroma plane of a frame."""
    nby, nbx = grid_shape((height, width))
    return nby * nbx, ((nby + 1) // 2) * ((nbx + 1) // 2)  # the size of _chroma_grid


def _frame_levels(luma_levels: np.ndarray) -> np.ndarray:
    """Per-block levels of Y, Cb and Cr, in payload order; chroma takes the luma choices."""
    chroma_levels = _chroma_grid(luma_levels).reshape(-1)
    return np.concatenate([luma_levels.reshape(-1), chroma_levels, chroma_levels])


def _predict(prev: Frame, fld: DisplacementField) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Y, Cb and Cr raster predictions from the previous reconstruction.

    Chroma reuses each luma block choice with halved offsets.
    """
    cfield = DisplacementField(_chroma_grid(fld.indices))
    return (
        predicted_plane(prev.y.samples, fld),
        predicted_plane(prev.cb.samples, cfield, halve_offsets=True),
        predicted_plane(prev.cr.samples, cfield, halve_offsets=True),
    )


def _reconstruct(qblocks: np.ndarray, coded: np.ndarray, steps: np.ndarray, preds) -> Frame:
    """Rebuild the frame from its (8, 8, n) Y, Cb, Cr blocks, a mask that holds
    every block with a nonzero coefficient (and maybe zero blocks), their steps in
    the dequantization lane and the raster predictions; must stay bit-deterministic.

    Each prediction, padded to whole tiles, becomes its plane in place
    through a tile view.  Only the masked blocks are dequantized, inverse
    transformed and added, as a zero block's residual is exactly zero; but
    a frame with at least 3/4 of its blocks masked transforms them all, as
    that costs less than gathering them.  Either way, one inverse transform
    serves the three planes.
    """
    whole = _most(coded)
    at = np.s_[:] if whole else coded
    residual = inverse_blocks(qblocks[:, :, at] * steps[at])
    planes, start, done = [], 0, 0
    for pred in preds:
        plane, tiles = grid_tiles(pred)
        stop = start + tiles[0, 0].size
        mine = np.s_[...] if whole else coded[start:stop].reshape(tiles.shape[2:])
        dest = tiles[:, :, mine]
        taken = done + dest[0, 0].size
        share = residual[:, :, done:taken].reshape(dest.shape)
        share += dest
        tiles[:, :, mine] = np.clip(share, 0, 255, out=share)
        planes.append(FramePlane.from_array(np.ascontiguousarray(plane[: pred.shape[0], : pred.shape[1]])))
        start, done = stop, taken
    return Frame(*planes)


# Which of the 256 luma block prefixes (displacement << 4 | level) are valid:
# those of a catalogue displacement, as every 4-bit level is one of the 16.
_PREFIX_TABLE = np.arange(256) >> 4 < len(CATALOGUE)


@dataclass(frozen=True, eq=False)
class FrameBitstream:
    """One coded frame: byte-aligned payload plus encoder-side bit accounting.

    block_bits is a luma-block grid; each chroma block's bits are split
    evenly among the luma blocks covering the same area, so the grid sums
    exactly to total_bits.  Both fields are None on parsed (received)
    frames, where only the payload is known.
    """

    payload: bytes
    block_bits: np.ndarray | None = None
    total_bits: int | None = None

    def __eq__(self, other):
        return isinstance(other, FrameBitstream) and self.payload == other.payload


def _block_bits(luma_bits: np.ndarray, chroma_bits: np.ndarray) -> np.ndarray:
    """Each luma block's bits (a grid) plus an even split of its chroma
    block's bits (in raster order).

    Shares are integers over 1, 2 or 4, so every sum is exact.
    """
    rows, cols = (np.arange(n) // 2 for n in luma_bits.shape)  # covering chroma block
    span = np.bincount(rows)[:, None] * np.bincount(cols)[None, :]
    return luma_bits + (chroma_bits.reshape(span.shape) / span)[rows[:, None], cols[None, :]]


def _check_level_map(level_map: LevelMap, w: int, h: int) -> None:
    """Reject a level map whose size is not the frame's or whose level count is not the codec's 16."""
    if level_map.levels.shape != (h, w):
        raise ContractViolation(f"level map is {level_map.levels.shape[1]}x{len(level_map.levels)}, frame is {w}x{h}")
    if level_map.n != MAX_LEVELS:
        raise ContractViolation(f"level map has {level_map.n} levels, the codec codes {MAX_LEVELS}")


def encode_frame(
    cur: Frame,
    prev_recon: Frame,
    level_map: LevelMap,
    sched: QuantSchedule,
    cfg: CodecConfig = CodecConfig(),
) -> tuple[FrameBitstream, Frame]:
    """Code one frame against the previous reconstruction.

    Per luma block: pick the lowest-energy displacement, transform that
    residual, quantize at the block's foveation level, entropy-code.  Chroma
    reuses the luma choices with halved offsets.  Returns the bitstream and
    the reconstruction the decoder will reproduce bit-exactly.
    """
    w, h = cur.y.width, cur.y.height
    if (prev_recon.y.width, prev_recon.y.height) != (w, h):
        raise ContractViolation("current and previous frames disagree on dimensions")
    _check_level_map(level_map, w, h)

    if cfg.force_zero_displacement:
        fld = DisplacementField.uniform(CATALOGUE[0], *grid_shape((h, w)))
    else:
        fld = choose_displacements(cur.y.samples, prev_recon.y.samples)
    luma_levels = block_levels(level_map)
    steps = np.take(sched.steps_array(), _frame_levels(luma_levels))
    preds = _predict(prev_recon, fld)
    qblocks, coded = _quantized_frame((cur.y.samples, cur.cb.samples, cur.cr.samples), preds, steps)
    prefixes = (fld.indices.astype(np.uint8) << 4 | luma_levels.astype(np.uint8)).reshape(-1)
    payload, bits = encode_blocks(qblocks, prefixes, coded)
    n_luma = len(prefixes)
    block_bits = _block_bits(bits[:n_luma].reshape(luma_levels.shape), bits[n_luma:].reshape(2, -1).sum(axis=0))
    stream = FrameBitstream(payload, block_bits, int(bits.sum()))
    return stream, _reconstruct(qblocks, coded, steps, preds)


def decode_frame(
    bits: FrameBitstream | bytes,
    prev_recon: Frame,
    sched: QuantSchedule,
) -> Frame:
    """Decode one frame; output is bit-identical to the encoder reconstruction."""
    payload = bits.payload if isinstance(bits, FrameBitstream) else bytes(bits)
    if len(payload) == 0:
        raise ContractViolation("frame payload records zero blocks")
    grid = grid_shape(prev_recon.y.samples.shape)
    w, h = prev_recon.y.width, prev_recon.y.height
    n_luma, n_chroma = _block_counts(w, h)
    most = payload_bounds(n_luma + 2 * n_chroma, n_luma)[1]
    if len(payload) > most:  # before decode_blocks, whose memory grows with the payload
        raise BitstreamError(f"payload of {len(payload)} bytes is longer than {w}x{h} allows", byte_offset=most)
    qblocks, prefixes, coded = decode_blocks(payload, n_luma + 2 * n_chroma, n_luma, _PREFIX_TABLE)
    fld = DisplacementField((prefixes >> 4).reshape(grid).astype(np.int8))
    steps = np.take(sched.steps_array(), _frame_levels((prefixes & 0x0F).reshape(grid)))
    return _reconstruct(qblocks, coded, steps, _predict(prev_recon, fld))


# --- sequence container -------------------------------------------------


def _check_fits(**fields: tuple[int, int]) -> None:
    """Reject a (value, bits) pair that its unsigned integer container field cannot hold."""
    for name, (value, bits) in fields.items():
        if not (isinstance(value, Integral) and 0 <= value < 1 << bits):
            raise ConfigError(f"{name} {value!r} does not fit the stream's {bits}-bit integer field")


def _check_crc(data: bytes, at: int, crc: int, what: str) -> None:
    """Reject a stream whose CRC-32 stored at `at` is not `crc`."""
    if _CRC.unpack_from(data, at)[0] != crc:
        raise BitstreamError(f"{what} fails its CRC-32 check", byte_offset=at)


def _check_header_fits(width: int, height: int, fps_num: int, fps_den: int, frame_count: int) -> None:
    """Reject header fields that their slots cannot hold, and frames over the decode budget."""
    _check_fits(
        width=(width, 16),
        height=(height, 16),
        fps_num=(fps_num, 16),
        fps_den=(fps_den, 16),
        frame_count=(frame_count, 32),
    )
    if width * height > MAX_PIXELS:
        raise UnsupportedFormat(f"{width}x{height} frames exceed the {MAX_PIXELS}-pixel decode budget")


@dataclass(frozen=True)
class FrameRecord:
    gaze_x: int
    gaze_y: int
    fmsc_code: int
    bitstream: FrameBitstream

    def __post_init__(self):
        _check_fits(gaze_x=(self.gaze_x, 16), gaze_y=(self.gaze_y, 16), fmsc_code=(self.fmsc_code, 8),
                    payload_bytes=(len(self.bitstream.payload), 32))


@dataclass(frozen=True, eq=False)
class SequenceBitstream:
    """Coded sequence: header, per-frame gaze records, per-frame payloads.

    The third geometry double is a parameter slot; it carries the quantizer
    base step, so streams decode without out-of-band configuration.  The
    header's last byte holds the level count, always 16.
    """

    width: int
    height: int
    fps_num: int
    fps_den: int
    screen_width_m: float
    viewing_distance_m: float
    q_base: int
    frames: tuple[FrameRecord, ...]

    def __post_init__(self):
        if len(self.frames) < 1:
            raise ContractViolation("a sequence bitstream must contain at least one frame")
        if 0 in (self.width, self.height, self.fps_num, self.fps_den):  # from_bytes rejects them
            raise ContractViolation("width, height, fps_num and fps_den must not be 0")
        _check_header_fits(self.width, self.height, self.fps_num, self.fps_den, self.frame_count)
        _check_schedule(self.q_base)  # so that from_bytes accepts what to_bytes writes
        # DisplayGeometry rejects a screen width or viewing distance no display has
        DisplayGeometry(self.screen_width_m, self.viewing_distance_m, self.width, self.height)
        if any(rec.gaze_x >= self.width or rec.gaze_y >= self.height for rec in self.frames):
            raise ContractViolation(f"a frame's gaze lies outside the {self.width}x{self.height} frame")

    @property
    def frame_count(self) -> int:
        return len(self.frames)

    def payload_bits(self) -> int:
        return 8 * sum(len(f.bitstream.payload) for f in self.frames)

    def bpp(self) -> float:
        return self.payload_bits() / (self.width * self.height * self.frame_count)

    def to_bytes(self) -> bytes:
        header = _HEADER.pack(
            MAGIC,
            VERSION,
            self.width,
            self.height,
            self.fps_num,
            self.fps_den,
            self.frame_count,
            self.screen_width_m,
            self.viewing_distance_m,
            float(self.q_base),
            MAX_LEVELS,
        )
        parts = [header, _CRC.pack(zlib.crc32(header))]
        for rec in self.frames:
            head = _FRAME_HEAD.pack(rec.gaze_x, rec.gaze_y, rec.fmsc_code, len(rec.bitstream.payload))
            parts += [head, _CRC.pack(zlib.crc32(rec.bitstream.payload, zlib.crc32(head))), rec.bitstream.payload]
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data: bytes) -> "SequenceBitstream":
        """Parse a stream: magic and version, then each CRC-32 before the fields it covers."""
        if len(data) < _HEADER.size + _CRC.size:
            raise BitstreamError("stream shorter than the sequence header", byte_offset=len(data))
        magic, version, w, h, fps_num, fps_den, count, screen_w, distance, q_base, n_levels = (
            _HEADER.unpack_from(data, 0)
        )
        if magic != MAGIC:
            raise BitstreamError(f"bad magic {magic!r}, expected {MAGIC!r}", byte_offset=0)
        if version != VERSION:
            raise UnsupportedVersion(f"version {version} not supported", byte_offset=4)
        _check_crc(data, _HEADER.size, zlib.crc32(data[: _HEADER.size]), "sequence header")
        if w < 1 or h < 1 or fps_num < 1 or fps_den < 1 or count < 1:
            raise BitstreamError("header declares empty geometry or frame count", byte_offset=6)
        _check_header_fits(w, h, fps_num, fps_den, count)  # the decode budget, before any frame is read
        # the range test fails NaN and runs before int() could raise
        if not 1 <= q_base <= MAX_Q_BASE or q_base != int(q_base):
            raise BitstreamError(f"invalid quantizer base {q_base}", byte_offset=_HEADER.size - 9)
        if n_levels != MAX_LEVELS:
            raise BitstreamError(f"invalid level count {n_levels}, not {MAX_LEVELS}", byte_offset=_HEADER.size - 1)
        for name, value, at in (("screen width", screen_w, _HEADER.size - 25),
                                ("viewing distance", distance, _HEADER.size - 17)):
            if not viewing_length(value):
                raise BitstreamError(f"invalid {name} {value}", byte_offset=at)
        if not geometry_in_range(screen_w, distance, w):
            raise BitstreamError(f"screen width {screen_w} at distance {distance} breaks the geometry rule",
                                 byte_offset=_HEADER.size - 25)
        n_luma, n_chroma = _block_counts(w, h)
        fewest, most = payload_bounds(n_luma + 2 * n_chroma, n_luma)

        offset = _HEADER.size + _CRC.size
        frames = []
        for i in range(count):
            crc_at = offset + _FRAME_HEAD.size
            if crc_at + _CRC.size > len(data):
                raise BitstreamError(f"frame {i} header truncated", byte_offset=offset)
            gx, gy, fmsc_code, payload_len = _FRAME_HEAD.unpack_from(data, offset)
            payload_at = crc_at + _CRC.size
            if payload_at + payload_len > len(data):
                raise BitstreamError(f"frame {i} payload truncated", byte_offset=payload_at)
            payload = data[payload_at : payload_at + payload_len]
            _check_crc(data, crc_at, zlib.crc32(payload, zlib.crc32(data[offset:crc_at])), f"frame {i}")
            if not fewest <= payload_len <= most:
                side = "shorter" if payload_len < fewest else "longer"
                raise BitstreamError(
                    f"frame {i} payload of {payload_len} bytes is {side} than {w}x{h} allows", byte_offset=crc_at - 4
                )
            if gx >= w or gy >= h:
                at = offset if gx >= w else offset + 2
                raise BitstreamError(f"frame {i} gaze ({gx}, {gy}) lies outside {w}x{h}", byte_offset=at)
            frames.append(FrameRecord(gx, gy, fmsc_code, FrameBitstream(payload)))
            offset = payload_at + payload_len
        if offset != len(data):
            raise BitstreamError(
                f"{len(data) - offset} trailing bytes after the last frame", byte_offset=offset
            )
        return cls(w, h, fps_num, fps_den, screen_w, distance, int(q_base), tuple(frames))

    def __eq__(self, other):
        return isinstance(other, SequenceBitstream) and self.to_bytes() == other.to_bytes()


def midgray_frame(width: int, height: int) -> Frame:
    """Synthetic reference used before the first coded frame."""
    return Frame.gray(width, height, 128)


def encode_frames(
    seq: VideoSequence,
    levels: Iterable[tuple[LevelMap, tuple[float, float]]],
    sched: QuantSchedule,
    cfg: CodecConfig = CodecConfig(),
    fmsc_codes: list[int] | None = None,
) -> Iterator[tuple[FrameRecord, Frame]]:
    """Code a sequence one frame at a time, yielding each record and reconstruction.

    Each frame takes one (level map, gaze) pair, when it is coded; its gaze
    is rounded and clamped into the frame for the record.  Pairs that run
    out before the frames raise ContractViolation on the first frame left
    without one; pairs that outlast the frames raise it on the next() after
    the last frame.  The sequence-level checks, the fmsc codes' among them,
    run on the first next(), and each level map is checked before its frame
    is coded.  Each record keeps its fmsc code as given.
    """
    if fmsc_codes is None:
        fmsc_codes = [0] * len(seq)
    if len(fmsc_codes) != len(seq):
        raise ContractViolation("fmsc codes must match the frame count")
    if not all(isinstance(code, Integral) and 0 <= code <= 255 for code in fmsc_codes):
        raise ContractViolation("every fmsc code must be an integer in [0, 255]")
    _check_header_fits(seq.width, seq.height, seq.fps_num, seq.fps_den, len(seq))

    w, h = seq.width, seq.height
    levels = iter(levels)
    prev = midgray_frame(w, h)
    for i, (frame, code) in enumerate(zip(seq.frames, fmsc_codes)):
        if (taken := next(levels, None)) is None:
            raise ContractViolation(f"{i} level maps supplied for {len(seq)} frames")
        level_map, gaze = taken
        _check_level_map(level_map, w, h)
        gx, gy = (min(max(int(round(v)), 0), n - 1) for v, n in zip(_gaze(gaze), (w, h)))
        stream, prev = encode_frame(frame, prev, level_map, sched, cfg)
        yield FrameRecord(gx, gy, code, stream), prev
    if next(levels, None) is not None:
        raise ContractViolation(f"more level maps supplied than the {len(seq)} frames")


def sequence_bitstream(seq: VideoSequence, records: Iterable[FrameRecord], sched: QuantSchedule,
                       screen_width_m: float, viewing_distance_m: float) -> SequenceBitstream:
    """The container of seq's coded frame records, under sched and the display's geometry."""
    return SequenceBitstream(seq.width, seq.height, seq.fps_num, seq.fps_den, screen_width_m, viewing_distance_m,
                             sched.q_base, tuple(records))


def encode_sequence(
    seq: VideoSequence,
    maps: Iterable[FoveationMap],
    sched: QuantSchedule,
    cfg: CodecConfig = CodecConfig(),
    fmsc_codes: list[int] | None = None,
    screen_width_m: float = DEFAULT_SCREEN_WIDTH_M,
    viewing_distance_m: float = DEFAULT_VIEWING_DISTANCE_M,
) -> tuple[SequenceBitstream, VideoSequence]:
    """Code a whole sequence; returns the bitstream and the recon chain.

    Each map is quantized when its frame is coded.
    """
    levels = ((quantize_map(fmap, MAX_LEVELS), fmap.gaze) for fmap in maps)
    records, recons = zip(*encode_frames(seq, levels, sched, cfg, fmsc_codes))
    sbs = sequence_bitstream(seq, records, sched, screen_width_m, viewing_distance_m)
    return sbs, VideoSequence(recons, seq.fps_num, seq.fps_den)


def decode_sequence(source: SequenceBitstream | bytes) -> VideoSequence:
    """Decode a sequence bitstream back into frames."""
    sbs = source if isinstance(source, SequenceBitstream) else SequenceBitstream.from_bytes(source)
    sched = QuantSchedule(sbs.q_base)
    prev = midgray_frame(sbs.width, sbs.height)
    frames = []
    for rec in sbs.frames:
        prev = decode_frame(rec.bitstream, prev, sched)
        frames.append(prev)
    return VideoSequence(tuple(frames), sbs.fps_num, sbs.fps_den)
