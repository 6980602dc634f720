"""Residual codec: level-indexed quantization, entropy coding, bitstreams.

The coding path is integer-only end to end (transform, quantizer, entropy
code), so identical inputs produce byte-identical streams on any platform.
The decoder's output is bit-exactly the encoder's own reconstruction; both
sides share one prediction and one reconstruction routine so the recurrent
frame chain cannot drift.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .allocation import block_levels
from .bitio import decode_blocks, encode_blocks
from .displacement import CATALOGUE, DisplacementField, choose_displacements, predicted_plane
from .errors import BitstreamError, ConfigError, ContractViolation, UnsupportedVersion
from .foveation import FoveationMap, LevelMap, quantize_map
from .transform import forward_blocks, from_tiles, grid_shape, inverse_blocks, to_tiles
from .video_io import Frame, FramePlane, VideoSequence

MAGIC = b"FMVC"
VERSION = 1
_HEADER = struct.Struct("<4sHHHHHI3d")  # magic, version, W, H, fps, count, geometry
_FRAME_HEAD = struct.Struct("<HHBI")  # gaze_x, gaze_y, fmsc_code, payload bytes

# Each luma block prefix holds the level in 4 bits; the v1 header does not
# record the level count, so the decoder assumes MAX_LEVELS.
MAX_LEVELS = 16
# Coefficients stay within +-16320, so every base above 32640 already zeroes
# them all; the bound keeps the stored base an exact, finite integer.
MAX_Q_BASE = 65535


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
        if not 2 <= self.n_levels <= MAX_LEVELS:
            raise ContractViolation(f"level count must lie in [2, {MAX_LEVELS}], got {self.n_levels}")
        if not 1 <= self.q_base <= MAX_Q_BASE:
            raise ContractViolation(f"base step must lie in [1, {MAX_Q_BASE}], got {self.q_base}")
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
    return np.sign(values) * ((2 * np.abs(values) + steps) // (2 * steps))


def quantize_coeffs(coeffs: np.ndarray, level: int, sched: QuantSchedule) -> np.ndarray:
    """Divide by the level's step, rounding half away from zero."""
    if not 0 <= level < sched.n_levels:
        raise ContractViolation(f"level {level} outside [0, {sched.n_levels - 1}]")
    c = np.asarray(coeffs, dtype=np.int64)
    return _round_div_half_away(c, np.int64(sched.steps[level]))


def dequantize_coeffs(qcoeffs: np.ndarray, level: int, sched: QuantSchedule) -> np.ndarray:
    if not 0 <= level < sched.n_levels:
        raise ContractViolation(f"level {level} outside [0, {sched.n_levels - 1}]")
    return np.asarray(qcoeffs, dtype=np.int64) * sched.steps[level]


# --- plane helpers ------------------------------------------------------


def _quantize_plane_blocks(coeffs: np.ndarray, levels_flat: np.ndarray, sched: QuantSchedule) -> np.ndarray:
    """Quantize a plane's (n, 8, 8) coefficient stack, each block at its level's step.

    A coefficient rounds to zero exactly when twice its magnitude is below
    the step, so only blocks whose largest coefficient reaches half a step
    are divided; the rest stay zero.
    """
    steps = sched.steps_array()[levels_flat]
    live = 2 * np.abs(coeffs).reshape(len(coeffs), -1).max(axis=1) >= steps
    qblocks = np.zeros(coeffs.shape, dtype=np.int64)
    qblocks[live] = _round_div_half_away(coeffs[live], steps[live][:, None, None])
    return qblocks


def _quantized_residual(
    cur: np.ndarray, pred: np.ndarray, levels_grid: np.ndarray, sched: QuantSchedule
) -> np.ndarray:
    """Transform and quantize one plane's residual against its prediction."""
    residual = cur.astype(np.int32) - pred
    coeffs = forward_blocks(to_tiles(residual))
    return _quantize_plane_blocks(coeffs, levels_grid.reshape(-1), sched)


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

    Only blocks with a nonzero coefficient are dequantized and inverse
    transformed: an all-zero block's residual is exactly zero.
    """
    planes = []
    for qblocks, pred, levels_grid in zip(qplanes, preds, level_grids):
        coded = qblocks.reshape(len(qblocks), -1).any(axis=1)
        steps = sched.steps_array()[levels_grid.reshape(-1)[coded]][:, None, None]
        residual = np.zeros(qblocks.shape, dtype=np.int16)
        # Clamping the residual at +-255 never changes the clamped sum below,
        # because pred lies in [0, 255].
        residual[coded] = np.clip(inverse_blocks(qblocks[coded] * steps), -255, 255)
        recon = np.clip(from_tiles(residual, pred.shape) + pred, 0, 255).astype(np.uint8)
        planes.append(FramePlane.from_array(recon))
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
    return _reconstruct((q_y, q_cb, q_cr), _predict(prev_recon, fld), level_grids, sched)


# --- sequence container -------------------------------------------------


def _check_fits(**fields: tuple[int, int]) -> None:
    """Reject a (value, bits) pair that its unsigned container field cannot hold."""
    for name, (value, bits) in fields.items():
        if not 0 <= value < 1 << bits:
            raise ConfigError(f"{name} {value} does not fit the stream's {bits}-bit field")


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
    base step so streams decode without out-of-band configuration.
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

    @property
    def frame_count(self) -> int:
        return len(self.frames)

    def payload_bits(self) -> int:
        return 8 * sum(len(f.bitstream.payload) for f in self.frames)

    def bpp(self) -> float:
        return self.payload_bits() / (self.width * self.height * self.frame_count)

    def to_bytes(self) -> bytes:
        _check_header_fits(self.width, self.height, self.fps_num, self.fps_den, self.frame_count)
        parts = [
            _HEADER.pack(
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
            )
        ]
        for rec in self.frames:
            _check_fits(
                gaze_x=(rec.gaze_x, 16),
                gaze_y=(rec.gaze_y, 16),
                fmsc_code=(rec.fmsc_code, 8),
                payload_bytes=(len(rec.bitstream.payload), 32),
            )
            parts.append(
                _FRAME_HEAD.pack(rec.gaze_x, rec.gaze_y, rec.fmsc_code, len(rec.bitstream.payload))
            )
            parts.append(rec.bitstream.payload)
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data: bytes) -> "SequenceBitstream":
        if len(data) < _HEADER.size:
            raise BitstreamError("stream shorter than the sequence header", byte_offset=len(data))
        magic, version, w, h, fps_num, fps_den, count, screen_w, distance, reserved = _HEADER.unpack_from(
            data, 0
        )
        if magic != MAGIC:
            raise BitstreamError(f"bad magic {magic!r}, expected {MAGIC!r}", byte_offset=0)
        if version != VERSION:
            raise UnsupportedVersion(f"version {version} not supported", byte_offset=4)
        if w < 1 or h < 1 or fps_num < 1 or fps_den < 1 or count < 1:
            raise BitstreamError("header declares empty geometry or frame count", byte_offset=6)
        # the range test fails NaN and runs before int() could raise
        if not 1 <= reserved <= MAX_Q_BASE or reserved != int(reserved):
            raise BitstreamError(f"invalid quantizer base {reserved}", byte_offset=_HEADER.size - 8)
        n_luma, n_chroma = _block_counts(w, h)
        # at least a prefix byte and an end-of-block bit per luma block and
        # an end-of-block bit per chroma block
        min_payload = (9 * n_luma + 2 * n_chroma + 7) // 8

        offset = _HEADER.size
        frames = []
        for i in range(count):
            if offset + _FRAME_HEAD.size > len(data):
                raise BitstreamError(f"frame {i} header truncated", byte_offset=offset)
            gx, gy, fmsc_code, payload_len = _FRAME_HEAD.unpack_from(data, offset)
            if payload_len < min_payload:
                raise BitstreamError(
                    f"frame {i} payload of {payload_len} bytes is shorter than {w}x{h} allows",
                    byte_offset=offset + _FRAME_HEAD.size - 4,
                )
            offset += _FRAME_HEAD.size
            if offset + payload_len > len(data):
                raise BitstreamError(f"frame {i} payload truncated", byte_offset=offset)
            frames.append(
                FrameRecord(gx, gy, fmsc_code, FrameBitstream(data[offset : offset + payload_len]))
            )
            offset += payload_len
        if offset != len(data):
            raise BitstreamError(
                f"{len(data) - offset} trailing bytes after the last frame", byte_offset=offset
            )
        return cls(w, h, fps_num, fps_den, screen_w, distance, int(reserved), tuple(frames))

    def __eq__(self, other):
        return isinstance(other, SequenceBitstream) and self.to_bytes() == other.to_bytes()


def midgray_frame(width: int, height: int) -> Frame:
    """Synthetic reference used before the first coded frame."""
    return Frame.gray(width, height, 128)


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
    if len(maps) != len(seq):
        raise ContractViolation(f"{len(maps)} maps supplied for {len(seq)} frames")
    if sched.n_levels != MAX_LEVELS:
        raise ContractViolation(f"the v1 stream records no level count; it must be {MAX_LEVELS}")
    if fmsc_codes is None:
        fmsc_codes = [0] * len(seq)
    if len(fmsc_codes) != len(seq):
        raise ContractViolation("fmsc codes must match the frame count")
    _check_header_fits(seq.width, seq.height, seq.fps_num, seq.fps_den, len(seq))

    w, h = seq.width, seq.height
    prev = midgray_frame(w, h)
    records = []
    recons = []
    for frame, fmap, code in zip(seq.frames, maps, fmsc_codes):
        if (fmap.width, fmap.height) != (w, h):
            raise ContractViolation("foveation map dimensions must match the sequence")
        level_map = quantize_map(fmap, sched.n_levels)
        stream, recon = encode_frame(frame, prev, level_map, sched, cfg)
        gx = min(max(int(round(fmap.gaze[0])), 0), w - 1)
        gy = min(max(int(round(fmap.gaze[1])), 0), h - 1)
        records.append(FrameRecord(gx, gy, int(code), stream))
        recons.append(recon)
        prev = recon

    sbs = SequenceBitstream(
        w, h, seq.fps_num, seq.fps_den, screen_width_m, viewing_distance_m, sched.q_base, tuple(records)
    )
    return sbs, VideoSequence(tuple(recons), seq.fps_num, seq.fps_den)


def decode_sequence(source: SequenceBitstream | bytes) -> VideoSequence:
    """Decode a sequence bitstream back into frames."""
    sbs = source if isinstance(source, SequenceBitstream) else SequenceBitstream.from_bytes(source)
    sched = QuantSchedule(q_base=sbs.q_base)
    prev = midgray_frame(sbs.width, sbs.height)
    frames = []
    for rec in sbs.frames:
        prev = decode_frame(rec.bitstream, prev, sched)
        frames.append(prev)
    return VideoSequence(tuple(frames), sbs.fps_num, sbs.fps_den)
