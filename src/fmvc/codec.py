"""Residual codec: level-indexed quantization, entropy coding, bitstreams.

Given the per-block levels, the coding path is integer-exact (transform,
quantizer, entropy code), so identical inputs produce byte-identical
streams.  The levels themselves are the one float-to-integer step: they
come from a foveation map built with libm exp and arctan (or exp for a
gaussian map), so a platform whose libm rounds differently could move a
block to another level.  Before transforming, the encoder proves which
blocks quantize to all zeros with a float32 pre-test (_may_be_nonzero).
That test only decides what to skip and is provably conservative: every
block it skips is zero through the full path, so streams do not depend
on it.  A frame's Y, Cb and Cr residual blocks form one (8, 8, n) block
array in payload order, Y then Cb then Cr, so the pre-test, the forward
and inverse transforms and the quantizer each run once per frame; the
entropy coder takes per-plane views of it.  The decoder's output is
bit-exactly the encoder's own reconstruction; both sides share one
prediction and one reconstruction routine so the recurrent frame chain
cannot drift.
"""

from __future__ import annotations

import struct
import zlib
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .allocation import block_levels
from .bitio import decode_blocks, encode_blocks
from .displacement import CATALOGUE, DisplacementField, choose_displacements, predicted_plane
from .errors import BitstreamError, ConfigError, ContractViolation, UnsupportedVersion
from .foveation import DEFAULT_SCREEN_WIDTH_M, DEFAULT_VIEWING_DISTANCE_M, FoveationMap, LevelMap, quantize_map
from .transform import (
    BLOCK,
    FORWARD_MATRIX,
    FORWARD_ROUNDING,
    forward_blocks,
    grid_shape,
    grid_tiles,
    inverse_blocks,
)
from .video_io import Frame, FramePlane, VideoSequence

MAGIC = b"FMVC"
VERSION = 2
_HEADER = struct.Struct("<4sHHHHHI3dB")  # magic, version, W, H, fps, count, geometry, n_levels
_FRAME_HEAD = struct.Struct("<HHBI")  # gaze_x, gaze_y, fmsc_code, payload bytes
# CRC-32 after the header over it, and after each frame head over it and its payload
_CRC = struct.Struct("<I")

# Each luma block prefix holds the level in 4 bits.
MAX_LEVELS = 16
# Coefficients stay within +-16320, so every base above 32640 already zeroes
# them all; the bound keeps the stored base an exact, finite integer.
MAX_Q_BASE = 65535


def _check_schedule(n_levels, q_base) -> None:
    """Reject a level count or base step that no schedule, and so no stream
    header, can hold: both are integers, the level count fits the prefix's
    4-bit field and the base step the header's bound."""
    if not (isinstance(n_levels, Integral) and 2 <= n_levels <= MAX_LEVELS):
        raise ContractViolation(f"level count must be an integer in [2, {MAX_LEVELS}], got {n_levels}")
    if not (isinstance(q_base, Integral) and 1 <= q_base <= MAX_Q_BASE):
        raise ContractViolation(f"base step must be an integer in [1, {MAX_Q_BASE}], got {q_base}")


@dataclass(frozen=True)
class QuantSchedule:
    """Per-level quantizer steps: geometric in the level, q_base at the top.

    steps[l] = max(1, round(q_base * 2**((n - 1 - l) / 2))) mirrors the
    exponential falloff of peripheral sensitivity, so each level buys a
    roughly equal perceptual increment.
    """

    n_levels: int = 16
    q_base: int = 4
    steps: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        _check_schedule(self.n_levels, self.q_base)
        steps = tuple(
            max(1, int(self.q_base * 2.0 ** ((self.n_levels - 1 - l) / 2.0) + 0.5))
            for l in range(self.n_levels)
        )
        object.__setattr__(self, "steps", steps)

    def steps_array(self) -> np.ndarray:
        return np.asarray(self.steps, dtype=np.int64)


@dataclass(frozen=True)
class CodecConfig:
    """Encoder knobs; decoding needs none of them."""

    force_zero_displacement: bool = False


def _round_div_half_away(values: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """values / steps rounded half away from zero, as int16: sign(v) * floor((2|v| + s) / 2s).

    The quotient is taken in float64 and floors as integer division does:
    for integers a >= 0 and b > 0 with a + b < 2**53, both convert exactly,
    a / b lies at least 1/b below floor(a / b) + 1, and rounding moves it by
    at most (a / b) * 2**-53 < (a + b) / b * 2**-53 < 1/b, so
    floor(a / b) == a // b.  Here a = 2|v| + s and b = 2s, with |v| <= 16320
    and every step below 2**24; 2|v| and a are exact in float64 too.  The
    quotient is built in one buffer and is at most |v|, so it fits int16.
    """
    steps = np.asarray(steps, dtype=np.float64)
    quotient = np.abs(values, dtype=np.float64)
    quotient *= 2
    quotient += steps
    quotient /= 2 * steps
    np.floor(quotient, out=quotient)
    np.copysign(quotient, values, out=quotient)
    return quotient.astype(np.int16)


# --- plane helpers ------------------------------------------------------


def _quantize_plane_blocks(coeffs: np.ndarray, levels: np.ndarray, sched: QuantSchedule) -> np.ndarray:
    """Quantize (8, 8, ...) coefficients, each block at its level's step.

    No value grows in magnitude, so coefficients within the block code's
    int16 range quantize to int16.
    """
    if coeffs.size and max(coeffs.max(), -coeffs.min()) >= 1 << 15:
        raise ContractViolation("the block code carries int16 coefficients only")
    return _round_div_half_away(coeffs, sched.steps_array()[levels])


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


def _quantized_frame(planes, preds, levels: np.ndarray, sched: QuantSchedule) -> np.ndarray:
    """Transform and quantize the residuals of planes against their raster
    predictions, as one (8, 8, n) block array in plane order, each block at
    its level in levels (n,).

    Only the blocks _may_be_nonzero keeps are transformed and quantized, and
    the rest stay zero; but with at least 3/4 of the blocks kept, the whole
    array is transformed, as that costs less than gathering them.
    """
    residual = np.empty((BLOCK, BLOCK, len(levels)), dtype=np.int16)
    start = 0
    for cur, pred in zip(planes, preds):
        tiles = grid_tiles(np.subtract(cur, pred, dtype=np.int16))[1]
        stop = start + tiles[0, 0].size
        residual[:, :, start:stop].reshape(tiles.shape)[...] = tiles
        start = stop
    live = _may_be_nonzero(residual.reshape(BLOCK * BLOCK, -1), sched.steps_array()[levels])
    if _most(live):
        return _quantize_plane_blocks(forward_blocks(residual), levels, sched)
    qblocks = np.zeros(residual.shape, dtype=np.int16)
    qblocks[:, :, live] = _quantize_plane_blocks(forward_blocks(residual[:, :, live]), levels[live], sched)
    return qblocks


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


def _reconstruct(qblocks: np.ndarray, levels: np.ndarray, preds, sched: QuantSchedule) -> Frame:
    """Rebuild the frame from its (8, 8, n) Y, Cb, Cr blocks and raster predictions; must stay bit-deterministic.

    Each prediction, padded to whole tiles, becomes its plane in place
    through a tile view.  Only blocks with a nonzero coefficient are
    dequantized, inverse transformed and added, as a zero block's residual
    is exactly zero; but a frame with at least 3/4 of its blocks coded
    transforms them all, as that costs less than gathering them.  Either
    way, one inverse transform serves the three planes.
    """
    coded = qblocks.any(axis=(0, 1))
    whole = _most(coded)
    at = np.s_[:] if whole else coded
    # Coefficients are int16, so |q| <= 2**15, and 2**15 * (2**16 - 1) < 2**31:
    # below 2**16 every step dequantizes exactly in int32.
    steps = np.asarray(sched.steps, np.int32 if max(sched.steps) < 1 << 16 else np.int64)
    residual = inverse_blocks(qblocks[:, :, at] * steps[levels[at]])
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


def _prefix_table(sched: QuantSchedule) -> np.ndarray:
    """Which of the 256 luma block prefixes (displacement << 4 | level) are valid."""
    prefix = np.arange(256)
    return (prefix >> 4 < len(CATALOGUE)) & (prefix & 0x0F < sched.n_levels)


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
    if (level_map.width, level_map.height) != (w, h):
        raise ContractViolation(
            f"level map is {level_map.width}x{level_map.height}, frame is {w}x{h}"
        )
    if level_map.n != sched.n_levels:
        raise ContractViolation(f"level map has {level_map.n} levels, schedule has {sched.n_levels}")

    if cfg.force_zero_displacement:
        fld = DisplacementField.uniform(CATALOGUE[0], *grid_shape((h, w)))
    else:
        fld = choose_displacements(cur.y.samples, prev_recon.y.samples)
    luma_levels = block_levels(level_map)
    levels = _frame_levels(luma_levels)
    preds = _predict(prev_recon, fld)
    qblocks = _quantized_frame((cur.y.samples, cur.cb.samples, cur.cr.samples), preds, levels, sched)
    n_luma, n_chroma = _block_counts(w, h)
    q_y, q_cb, q_cr = np.split(qblocks, [n_luma, n_luma + n_chroma], axis=2)
    prefixes = (fld.indices.astype(np.uint8) << 4 | luma_levels.astype(np.uint8)).reshape(-1)
    payload, (bits_y, bits_cb, bits_cr) = encode_blocks([(q_y, prefixes), (q_cb, None), (q_cr, None)])
    block_bits = _block_bits(bits_y.reshape(luma_levels.shape), bits_cb + bits_cr)
    stream = FrameBitstream(payload, block_bits, int(bits_y.sum() + bits_cb.sum() + bits_cr.sum()))
    return stream, _reconstruct(qblocks, levels, preds, sched)


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
    n_luma, n_chroma = _block_counts(prev_recon.y.width, prev_recon.y.height)
    qblocks, (prefixes, _, _) = decode_blocks(
        payload, [(n_luma, _prefix_table(sched)), (n_chroma, None), (n_chroma, None)]
    )
    fld = DisplacementField((prefixes >> 4).reshape(grid).astype(np.int8))
    levels = _frame_levels((prefixes & 0x0F).reshape(grid))
    return _reconstruct(qblocks, levels, _predict(prev_recon, fld), sched)


# --- sequence container -------------------------------------------------


def _check_fits(**fields: tuple[int, int]) -> None:
    """Reject a (value, bits) pair that its unsigned container field cannot hold."""
    for name, (value, bits) in fields.items():
        if not 0 <= value < 1 << bits:
            raise ConfigError(f"{name} {value} does not fit the stream's {bits}-bit field")


def _check_crc(data: bytes, at: int, crc: int, what: str) -> None:
    """Reject a stream whose CRC-32 stored at `at` is not `crc`."""
    if _CRC.unpack_from(data, at)[0] != crc:
        raise BitstreamError(f"{what} fails its CRC-32 check", byte_offset=at)


def _check_header_fits(width: int, height: int, fps_num: int, fps_den: int, frame_count: int) -> None:
    _check_fits(
        width=(width, 16),
        height=(height, 16),
        fps_num=(fps_num, 16),
        fps_den=(fps_den, 16),
        frame_count=(frame_count, 32),
    )


@dataclass(frozen=True)
class FrameRecord:
    gaze_x: int
    gaze_y: int
    fmsc_code: int
    bitstream: FrameBitstream


@dataclass(frozen=True, eq=False)
class SequenceBitstream:
    """Coded sequence: header, per-frame gaze records, per-frame payloads.

    The third geometry double is a parameter slot; it carries the quantizer
    base step, and the header records the level count, so streams decode
    without out-of-band configuration.
    """

    width: int
    height: int
    fps_num: int
    fps_den: int
    screen_width_m: float
    viewing_distance_m: float
    q_base: int
    frames: tuple[FrameRecord, ...]
    n_levels: int = MAX_LEVELS

    def __post_init__(self):
        if len(self.frames) < 1:
            raise ContractViolation("a sequence bitstream must contain at least one frame")
        _check_schedule(self.n_levels, self.q_base)  # so that from_bytes accepts what to_bytes writes

    @property
    def frame_count(self) -> int:
        return len(self.frames)

    def payload_bits(self) -> int:
        return 8 * sum(len(f.bitstream.payload) for f in self.frames)

    def bpp(self) -> float:
        return self.payload_bits() / (self.width * self.height * self.frame_count)

    def to_bytes(self) -> bytes:
        _check_header_fits(self.width, self.height, self.fps_num, self.fps_den, self.frame_count)
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
            self.n_levels,
        )
        parts = [header, _CRC.pack(zlib.crc32(header))]
        for rec in self.frames:
            _check_fits(
                gaze_x=(rec.gaze_x, 16),
                gaze_y=(rec.gaze_y, 16),
                fmsc_code=(rec.fmsc_code, 8),
                payload_bytes=(len(rec.bitstream.payload), 32),
            )
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
        # the range test fails NaN and runs before int() could raise
        if not 1 <= q_base <= MAX_Q_BASE or q_base != int(q_base):
            raise BitstreamError(f"invalid quantizer base {q_base}", byte_offset=_HEADER.size - 9)
        if not 2 <= n_levels <= MAX_LEVELS:
            raise BitstreamError(f"invalid level count {n_levels}", byte_offset=_HEADER.size - 1)
        n_luma, n_chroma = _block_counts(w, h)
        # at least a prefix byte and an end-of-block bit per luma block and
        # an end-of-block bit per chroma block
        min_payload = (9 * n_luma + 2 * n_chroma + 7) // 8

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
            if payload_len < min_payload:
                raise BitstreamError(
                    f"frame {i} payload of {payload_len} bytes is shorter than {w}x{h} allows",
                    byte_offset=crc_at - 4,
                )
            frames.append(FrameRecord(gx, gy, fmsc_code, FrameBitstream(payload)))
            offset = payload_at + payload_len
        if offset != len(data):
            raise BitstreamError(
                f"{len(data) - offset} trailing bytes after the last frame", byte_offset=offset
            )
        return cls(w, h, fps_num, fps_den, screen_w, distance, int(q_base), tuple(frames), n_levels)

    def __eq__(self, other):
        return isinstance(other, SequenceBitstream) and self.to_bytes() == other.to_bytes()


def midgray_frame(width: int, height: int) -> Frame:
    """Synthetic reference used before the first coded frame."""
    return Frame.gray(width, height, 128)


def encode_frames(
    seq: VideoSequence,
    maps: Iterable[FoveationMap],
    sched: QuantSchedule,
    cfg: CodecConfig = CodecConfig(),
    fmsc_codes: list[int] | None = None,
) -> Iterator[tuple[FrameRecord, Frame]]:
    """Code a sequence one frame at a time, yielding each record and reconstruction.

    Maps are taken one per frame, each dropped once the next is taken; a
    frame given the previous frame's map object again reuses its
    quantization.  Maps that run out before the frames raise
    ContractViolation on the first frame left without one; maps that
    outlast the frames raise it on the next() after the last frame.  The
    sequence-level checks run on the first next(), before any frame is
    coded.
    """
    if fmsc_codes is None:
        fmsc_codes = [0] * len(seq)
    if len(fmsc_codes) != len(seq):
        raise ContractViolation("fmsc codes must match the frame count")
    _check_header_fits(seq.width, seq.height, seq.fps_num, seq.fps_den, len(seq))

    w, h = seq.width, seq.height

    def levels(fmap: FoveationMap | None, coded: int) -> tuple[LevelMap, tuple[int, int]]:
        if fmap is None:
            raise ContractViolation(f"{coded} foveation maps supplied for {len(seq)} frames")
        if (fmap.width, fmap.height) != (w, h):
            raise ContractViolation("foveation map dimensions must match the sequence")
        gaze = (min(max(int(round(fmap.gaze[0])), 0), w - 1), min(max(int(round(fmap.gaze[1])), 0), h - 1))
        return quantize_map(fmap, sched.n_levels), gaze

    maps = iter(maps)
    prev = midgray_frame(w, h)
    fmap = None
    for i, (frame, code) in enumerate(zip(seq.frames, fmsc_codes)):
        taken = next(maps, None)
        if taken is None or taken is not fmap:
            fmap = taken
            level_map, (gx, gy) = levels(fmap, i)
        stream, prev = encode_frame(frame, prev, level_map, sched, cfg)
        yield FrameRecord(gx, gy, int(code), stream), prev
    if next(maps, None) is not None:
        raise ContractViolation(f"more foveation maps supplied than the {len(seq)} frames")


def encode_sequence(
    seq: VideoSequence,
    maps: Iterable[FoveationMap],
    sched: QuantSchedule,
    cfg: CodecConfig = CodecConfig(),
    fmsc_codes: list[int] | None = None,
    screen_width_m: float = DEFAULT_SCREEN_WIDTH_M,
    viewing_distance_m: float = DEFAULT_VIEWING_DISTANCE_M,
) -> tuple[SequenceBitstream, VideoSequence]:
    """Code a whole sequence; returns the bitstream and the recon chain."""
    records, recons = zip(*encode_frames(seq, maps, sched, cfg, fmsc_codes))
    sbs = SequenceBitstream(seq.width, seq.height, seq.fps_num, seq.fps_den,
                            screen_width_m, viewing_distance_m, sched.q_base, records, sched.n_levels)
    return sbs, VideoSequence(recons, seq.fps_num, seq.fps_den)


def decode_sequence(source: SequenceBitstream | bytes) -> VideoSequence:
    """Decode a sequence bitstream back into frames."""
    sbs = source if isinstance(source, SequenceBitstream) else SequenceBitstream.from_bytes(source)
    sched = QuantSchedule(sbs.n_levels, sbs.q_base)
    prev = midgray_frame(sbs.width, sbs.height)
    frames = []
    for rec in sbs.frames:
        prev = decode_frame(rec.bitstream, prev, sched)
        frames.append(prev)
    return VideoSequence(tuple(frames), sbs.fps_num, sbs.fps_den)
