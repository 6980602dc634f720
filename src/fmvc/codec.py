"""Residual codec: level-indexed quantization, entropy coding, bitstreams.

The coding path is integer-only end to end (transform, quantizer, entropy
code), so identical inputs produce byte-identical streams on any platform.
The decoder's output is bit-exactly the encoder's own reconstruction; both
sides share one prediction and one reconstruction routine so the recurrent
frame chain cannot drift.
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
from .foveation import FoveationMap, LevelMap, quantize_map
from .transform import forward_blocks, from_tiles, grid_shape, inverse_blocks, to_tiles
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
    """values / steps rounded half away from zero: sign(v) * floor((2|v| + s) / 2s).

    The quotient is taken in float64 and floors as integer division does:
    for integers a >= 0 and b > 0 with a + b < 2**53, both convert exactly,
    a / b lies at least 1/b below floor(a / b) + 1, and rounding moves it by
    at most (a / b) * 2**-53 < (a + b) / b * 2**-53 < 1/b, so
    floor(a / b) == a // b.  Here a = 2|v| + s and b = 2s, with |v| <= 16320
    and every step below 2**24.
    """
    quotient = (2 * np.abs(values) + steps) / (2 * steps)
    return np.copysign(np.floor(quotient), values).astype(np.int64)


# --- plane helpers ------------------------------------------------------


def _quantize_plane_blocks(coeffs: np.ndarray, levels_grid: np.ndarray, sched: QuantSchedule) -> np.ndarray:
    """Quantize a plane's (8, 8, nby, nbx) coefficients, each block at its level's step.

    A coefficient rounds to zero exactly when twice its magnitude is below
    the step, so only blocks whose largest coefficient reaches half a step
    are divided; the rest stay zero.  No value grows in magnitude, so
    coefficients within the block code's int16 range quantize to int16.
    """
    peak = np.maximum(coeffs.max(axis=(0, 1)), -coeffs.min(axis=(0, 1)))
    if peak.size and peak.max() >= 1 << 15:
        raise ContractViolation("the block code carries int16 coefficients only")
    steps = sched.steps_array()[levels_grid]
    live = 2 * peak >= steps
    qblocks = np.zeros(coeffs.shape, dtype=np.int16)
    qblocks[:, :, live] = _round_div_half_away(coeffs[:, :, live], steps[live])
    return qblocks


def _quantized_residual(
    cur: np.ndarray, pred: np.ndarray, levels_grid: np.ndarray, sched: QuantSchedule
) -> np.ndarray:
    """Transform and quantize one plane's residual against its prediction."""
    residual = cur.astype(np.int32) - pred
    coeffs = forward_blocks(to_tiles(residual))
    return _quantize_plane_blocks(coeffs, levels_grid, sched)


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


def _level_grids(luma_levels: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-block levels of Y, Cb and Cr; chroma takes the luma choices."""
    chroma_levels = _chroma_grid(luma_levels)
    return luma_levels, chroma_levels, chroma_levels


def _predict(prev: Frame, fld: DisplacementField) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Y, Cb and Cr predictions from the previous reconstruction.

    Chroma reuses each luma block choice with halved offsets.
    """
    cfield = DisplacementField(_chroma_grid(fld.indices))
    return (
        predicted_plane(prev.y.samples, fld),
        predicted_plane(prev.cb.samples, cfield, halve_offsets=True),
        predicted_plane(prev.cr.samples, cfield, halve_offsets=True),
    )


def _reconstruct(qplanes, preds, level_grids, sched: QuantSchedule) -> Frame:
    """Rebuild the frame from its Y, Cb, Cr blocks and predictions; must stay bit-deterministic.

    Only blocks with a nonzero coefficient are dequantized, inverse
    transformed and added to their prediction: an all-zero block's residual
    is exactly zero.
    """
    planes = []
    for qblocks, pred, levels_grid in zip(qplanes, preds, level_grids):
        coded = qblocks.any(axis=(0, 1))
        steps = sched.steps_array()[levels_grid[coded]]
        tiles = to_tiles(pred)
        residual = inverse_blocks(qblocks[:, :, coded] * steps)
        tiles[:, :, coded] = np.clip(residual + tiles[:, :, coded], 0, 255)
        planes.append(FramePlane.from_array(np.ascontiguousarray(from_tiles(tiles, pred.shape))))
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
    """Each luma block's bits plus an even split of its chroma block's bits.

    Shares are integers over 1, 2 or 4, so every sum is exact.
    """
    rows, cols = (np.arange(n) // 2 for n in luma_bits.shape)  # covering chroma block
    span = np.bincount(rows)[:, None] * np.bincount(cols)[None, :]
    return luma_bits + (chroma_bits / span)[rows[:, None], cols[None, :]]


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
    level_grids = _level_grids(block_levels(level_map))
    preds = _predict(prev_recon, fld)
    qplanes = [
        _quantized_residual(plane.samples, pred, levels_grid, sched)
        for plane, pred, levels_grid in zip((cur.y, cur.cb, cur.cr), preds, level_grids)
    ]
    prefixes = (fld.indices.astype(np.uint8) << 4 | level_grids[0].astype(np.uint8)).reshape(-1)
    payload, (bits_y, bits_cb, bits_cr) = encode_blocks(
        [(qplanes[0], prefixes), (qplanes[1], None), (qplanes[2], None)]
    )
    block_bits = _block_bits(
        bits_y.reshape(level_grids[0].shape), (bits_cb + bits_cr).reshape(level_grids[1].shape)
    )
    stream = FrameBitstream(payload, block_bits, int(bits_y.sum() + bits_cb.sum() + bits_cr.sum()))
    return stream, _reconstruct(qplanes, preds, level_grids, sched)


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
    (q_y, prefixes), (q_cb, _), (q_cr, _) = decode_blocks(
        payload, [(n_luma, _prefix_table(sched)), (n_chroma, None), (n_chroma, None)]
    )
    fld = DisplacementField((prefixes >> 4).reshape(grid).astype(np.int8))
    level_grids = _level_grids((prefixes & 0x0F).reshape(grid))
    qplanes = [q.reshape(8, 8, *g.shape) for q, g in zip((q_y, q_cb, q_cr), level_grids)]
    return _reconstruct(qplanes, _predict(prev_recon, fld), level_grids, sched)


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
    maps: list[FoveationMap],
    sched: QuantSchedule,
    cfg: CodecConfig = CodecConfig(),
    fmsc_codes: list[int] | None = None,
    screen_width_m: float = 0.02,
    viewing_distance_m: float = 0.012,
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
