"""Order-0 exponential-Golomb block code over whole planes of 8x8 blocks.

A block is coded as its zigzag-ordered values up to the last nonzero
coefficient, each as the exp-Golomb codeword (ITU-T H.264 section 9.1) of
its signed symbol + 1, then the codeword of 0, a single '1' bit, as the
end-of-block marker; the +1 shift keeps in-run zeros distinct from the
marker.  A block may carry a raw 8-bit prefix.

A payload holds three runs, MSB first and zero-padded to a whole byte:
every block prefix, one byte each; then the first half of every codeword
in stream order, its leadingZeroBits zeros and its '1'; then the second
half of every codeword, its leadingZeroBits info bits.  The end-of-block
codeword is the only one without leading zeros, so a block ends at every
'1' of the second run that directly follows a '1' (or opens the run).

Both directions work on arrays, with a plane's blocks laid out (8, 8, ...)
as the transform leaves them: viewed as (64, n), each column is a block in
raster order and the zigzag scan is a permutation of the rows.  The encoder
scans only the blocks that hold a nonzero value, lays the three runs out as
one bit array and packs it.  The decoder reads the prefixes as bytes, finds
every codeword as a set bit of the second run and its zero count as the
gap to the previous one, and every info field from a running sum of those
counts.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import BitstreamError, ContractViolation
from .transform import ZIGZAG

# A codeword of value v (symbol v - 1) is 2 * bit_length(v) - 1 bits long.
_EOB_VALUE = 1
_MAX_COEFFS = 64


def signed_to_symbol(value):
    """Signed-to-unsigned mapping 0, +1, -1, +2, -2, ... -> 0, 1, 2, 3, 4, ...

    Works on Python ints and on integer arrays alike.
    """
    return 2 * abs(value) - (value > 0)


def symbol_to_signed(symbol):
    """Inverse of signed_to_symbol, for Python ints and integer arrays."""
    return ((symbol + 1) >> 1) * (2 * (symbol & 1) - 1)


# Codeword value of the most negative int16 coefficient.  The block code
# carries int16 coefficients (the encoder's own stay within +-64 * 255), so
# a larger value, or a run of more than 16 leading zeros, is a corrupt
# payload.
_MAX_VALUE = signed_to_symbol(-(1 << 15)) + 2
_MAX_ZEROS = _MAX_VALUE.bit_length() - 1


def _bit_length(values: np.ndarray) -> np.ndarray:
    """Bit length of each non-negative integer (exact below 2**53)."""
    return np.frexp(values.astype(np.float64))[1]


# --- encode ------------------------------------------------------------


def _plane_codewords(blocks: np.ndarray, prefixes: np.ndarray | None):
    """Values and leading zero counts of one plane's codewords in stream
    order, end-of-block markers included, and each block's length in bits,
    prefix included."""
    blocks = np.asarray(blocks)
    if blocks.shape[:2] != (8, 8):
        raise ContractViolation(f"expected leading 8x8 block axes, got {blocks.shape}")
    raster = blocks.reshape(64, -1)
    n = raster.shape[1]
    if prefixes is not None:
        prefixes = np.asarray(prefixes)
        if prefixes.shape != (n,) or ((prefixes < 0) | (prefixes > 255)).any():
            raise ContractViolation("need one 8-bit prefix per block")
    coded = np.flatnonzero(raster.any(axis=0))
    scans = raster.take(coded, axis=1)
    if scans.size and not -(1 << 15) <= scans.min() <= scans.max() < 1 << 15:
        raise ContractViolation("the block code carries int16 coefficients only")
    scans = scans.astype(np.int16)[ZIGZAG]
    counts = np.zeros(n, dtype=np.intp)
    counts[coded] = 64 - np.argmax(scans[::-1] != 0, axis=0)
    # the transposed views walk block by block, each in scan order
    coeffs = scans.T[np.arange(64) < counts[coded, None]].astype(np.int32)
    del scans

    eob = np.cumsum(counts + 1) - 1
    values = np.full(len(coeffs) + n, _EOB_VALUE, dtype=np.int32)
    is_coeff = np.ones(len(values), dtype=bool)
    is_coeff[eob] = False
    values[is_coeff] = signed_to_symbol(coeffs) + 2
    zeros = _bit_length(values) - 1
    block_bits = np.add.reduceat(2 * zeros + 1, eob - counts)  # every block has its end-of-block codeword
    return values, zeros, block_bits + (0 if prefixes is None else 8)


def encode_blocks(planes: Sequence[tuple[np.ndarray, np.ndarray | None]]) -> tuple[bytes, list[np.ndarray]]:
    """Code planes of blocks, in order, into one payload.

    Each plane is (blocks, prefixes): blocks holds int16 coefficients laid
    out (8, 8, ...), the trailing axes running over the plane's n blocks in
    raster order; prefixes holds each block's 8-bit prefix, or is None for
    none.  Returns the payload and, per plane, each block's bit count,
    prefix included; the counts sum to the payload's length in bits before
    padding.
    """
    coded = [_plane_codewords(blocks, prefixes) for blocks, prefixes in planes]
    values = np.concatenate([values for values, _, _ in coded])
    zeros = np.concatenate([zeros for _, zeros, _ in coded])
    ends = np.cumsum(zeros, dtype=np.int32)  # where each codeword's info bits end
    n, n_info = len(values), int(zeros.sum())
    bits = np.zeros(n + 2 * n_info, dtype=np.uint8)
    bits[ends + np.arange(n, dtype=np.int32)] = 1  # the '1' after each codeword's zeros
    # info bit k of a codeword with z zeros is bit z - 1 - k of its value
    shifts = np.repeat(ends - 1, zeros)
    shifts -= np.arange(n_info, dtype=np.int32)
    info = np.repeat(values, zeros) >> shifts
    bits[n + n_info :] = np.bitwise_and(info, 1, out=info)
    head = b"".join(np.asarray(p, dtype=np.uint8).tobytes() for _, p in planes if p is not None)
    return head + np.packbits(bits).tobytes(), [block_bits for _, _, block_bits in coded]


# --- decode ------------------------------------------------------------


def _read_fields(windows: np.ndarray, at: np.ndarray, width: np.ndarray | int) -> np.ndarray:
    """The width-bit fields starting at bit positions `at`; windows holds the
    32 bits from each byte on, so width + at % 8 must not exceed 32."""
    window = windows[at >> 3].astype(np.int64)
    return (window >> (32 - (at & 7) - width)) & ((1 << width) - 1)


def decode_blocks(
    data: bytes, layout: Sequence[tuple[int, np.ndarray | None]]
) -> list[tuple[np.ndarray, np.ndarray | None]]:
    """Inverse of encode_blocks.

    Each layout entry is (block count, allowed prefixes): a 256-entry
    boolean table of the prefix values the plane's blocks may carry, or None
    when they carry no prefix.  Returns per plane (blocks, prefixes), blocks
    as (8, 8, n) int16 coefficients.  After the last block fewer than 8 bits
    may remain, all zero.  Any other payload raises BitstreamError with a
    byte offset inside it.
    """
    raw = np.frombuffer(data, dtype=np.uint8)
    short = BitstreamError("payload ends inside a block", byte_offset=max(len(data) - 1, 0))
    prefixes, head = [], 0
    for n, allowed in layout:
        if allowed is None:
            prefixes.append(None)
            continue
        if head + n > len(raw):
            raise short
        bad = np.flatnonzero(~np.asarray(allowed)[raw[head : head + n]])
        if len(bad):
            at = head + int(bad[0])
            raise BitstreamError(f"block prefix {int(raw[at]):#04x} not allowed", byte_offset=at)
        prefixes.append(raw[head : head + n].copy())
        head += n

    n_blocks = sum(n for n, _ in layout)
    bits = np.unpackbits(raw)
    ends = np.flatnonzero(bits[8 * head :])  # the '1' after each codeword's zeros
    ends += 8 * head
    zeros = np.diff(ends, prepend=8 * head - 1) - 1
    eob = np.flatnonzero(zeros == 0)[:n_blocks]
    if len(eob) < n_blocks:
        raise short
    n_codes = int(eob[-1]) + 1 if n_blocks else 0
    zeros = zeros[:n_codes].copy()  # a copy, so the info run's share can be freed
    starts = ends[:n_codes] - zeros
    counts = np.diff(eob, prepend=-1) - 1  # coefficient codewords per block
    over = np.flatnonzero(counts > _MAX_COEFFS)
    if len(over):
        first = int(eob[over[0]] - counts[over[0]])
        raise BitstreamError(
            f"block carries more than {_MAX_COEFFS} coefficients", byte_offset=int(starts[first + _MAX_COEFFS]) // 8
        )
    info_start = 8 * head + n_codes + int(zeros.sum())  # where the unary run ends
    end = info_start + int(zeros.sum())
    if end > len(bits):
        raise short
    if len(bits) - end >= 8 or bits[end:].any():
        raise BitstreamError(f"{len(bits) - end} bits after the last block are not zero padding", byte_offset=end // 8)
    del bits, ends
    padded = np.frombuffer(data + bytes(4), dtype=np.uint8)
    windows = np.ascontiguousarray(sliding_window_view(padded, 4)).view(">u4")[:, 0]
    width = np.minimum(zeros, _MAX_ZEROS)
    values = _read_fields(windows, info_start + np.cumsum(zeros) - zeros, width) | (1 << width)
    bad = np.flatnonzero((zeros > _MAX_ZEROS) | (values > _MAX_VALUE))
    if len(bad):
        raise BitstreamError("coefficient codeword beyond the int16 range", byte_offset=int(starts[bad[0]]) // 8)
    del windows, width, starts

    coded = zeros > 0
    scan = np.arange(len(zeros)) - np.repeat(eob - counts, counts + 1)
    flat = np.zeros((64, n_blocks), dtype=np.int16)
    flat.reshape(-1)[ZIGZAG[scan[coded]] * n_blocks + np.repeat(np.arange(n_blocks), counts)] = symbol_to_signed(
        values[coded] - 2
    )
    blocks = np.split(flat.reshape(8, 8, n_blocks), np.cumsum([n for n, _ in layout])[:-1], axis=2)
    return list(zip(blocks, prefixes))
