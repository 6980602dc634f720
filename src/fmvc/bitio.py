"""Order-0 exponential-Golomb block code over whole stacks of 8x8 blocks.

A block is coded as its zigzag-ordered values up to the last nonzero
coefficient, each as the exp-Golomb codeword (ITU-T H.264 section 9.1) of
its signed symbol + 1, then the codeword of 0, a single '1' bit, as the
end-of-block marker; the +1 shift keeps in-run zeros distinct from the
marker.  A block may carry a raw 8-bit prefix in front of its codewords.
Bits run MSB first and the payload is zero-padded to a whole byte.

Both directions work on arrays.  The encoder computes the value and length
of every codeword that is emitted and packs the whole payload at once.  The
decoder finds, for every bit position, where a codeword starting there
would end, walks the codeword starts in one loop, and then pulls every
value out at once.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import BitstreamError, ContractViolation
from .transform import ZIGZAG

# A codeword of value v (symbol v - 1) is 2 * bit_length(v) - 1 bits long.
_EOB_VALUE = 1
_PREFIX_BITS = 8
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
    """Values and lengths of one plane's codewords in stream order, and each
    block's length in bits."""
    n = len(blocks)
    if prefixes is not None:
        prefixes = np.asarray(prefixes)
        if prefixes.shape != (n,) or ((prefixes < 0) | (prefixes > 255)).any():
            raise ContractViolation("need one 8-bit prefix per block")
    raster = np.asarray(blocks).reshape(n, 64)
    if raster.size and not -(1 << 15) <= raster.min() <= raster.max() < 1 << 15:
        raise ContractViolation("the block code carries int16 coefficients only")
    scans = raster.astype(np.int16)[:, ZIGZAG]
    nonzero = scans != 0
    counts = np.where(nonzero.any(axis=1), 64 - np.argmax(nonzero[:, ::-1], axis=1), 0)
    coeffs = scans[np.arange(64) < counts[:, None]].astype(np.int32)
    del scans, nonzero

    per_block = counts + (1 if prefixes is None else 2)
    eob = np.cumsum(per_block) - 1
    total = int(per_block.sum())
    values = np.empty(total, dtype=np.int32)
    lengths = np.empty(total, dtype=np.int32)
    is_coeff = np.ones(total, dtype=bool)
    is_coeff[eob] = False
    values[eob], lengths[eob] = _EOB_VALUE, 1
    if prefixes is not None:
        head = eob - counts - 1
        is_coeff[head] = False
        values[head], lengths[head] = prefixes, _PREFIX_BITS
    codes = signed_to_symbol(coeffs) + 2
    values[is_coeff] = codes
    lengths[is_coeff] = 2 * _bit_length(codes) - 1
    return values, lengths, np.diff(np.cumsum(lengths, dtype=np.int64)[eob], prepend=0)


def _pack(values: np.ndarray, lengths: np.ndarray) -> bytes:
    """Write each value in its codeword's bits, MSB first, zero-padded.

    Codewords are at most 33 bits long, so each one, shifted to its offset
    in the 16-bit word where it starts, lies within that word and the next
    two.  Codewords share no bits, so summing their parts per word, exactly
    in float64, is the same as OR-ing them.
    """
    starts = np.cumsum(lengths, dtype=np.int64)
    nbits = int(starts[-1]) if len(starts) else 0
    starts -= lengths
    aligned = values.astype(np.int64) << (48 - lengths - (starts & 15))
    starts >>= 4  # now the 16-bit word each codeword starts in
    n_words = (nbits + 15) // 16 + 2
    out = np.bincount(starts, weights=aligned >> 32, minlength=n_words)
    out[1:] += np.bincount(starts, weights=(aligned >> 16) & 0xFFFF, minlength=n_words)[:-1]
    out[2:] += np.bincount(starts, weights=aligned & 0xFFFF, minlength=n_words)[:-2]
    return out.astype(">u2").tobytes()[: (nbits + 7) // 8]


def encode_blocks(planes: Sequence[tuple[np.ndarray, np.ndarray | None]]) -> tuple[bytes, list[np.ndarray]]:
    """Code planes of blocks, in order, into one payload.

    Each plane is (blocks, prefixes): blocks is an (n, 8, 8) stack of int16
    coefficients, prefixes holds each block's 8-bit prefix, or is None for
    none.  Returns the payload and, per plane, each block's bit count,
    prefix included; the counts sum to the payload's length in bits before
    padding.
    """
    coded = [_plane_codewords(blocks, prefixes) for blocks, prefixes in planes]
    values = np.concatenate([values for values, _, _ in coded])
    lengths = np.concatenate([lengths for _, lengths, _ in coded])
    block_bits = [bits for _, _, bits in coded]
    del coded
    return _pack(values, lengths), block_bits


# --- decode ------------------------------------------------------------


def _read_fields(windows: np.ndarray, at: np.ndarray, width: np.ndarray | int) -> np.ndarray:
    """The width-bit fields starting at bit positions `at`; windows holds the
    32 bits from each byte on, so width + at % 8 must not exceed 32."""
    window = windows[at >> 3].astype(np.int64)
    return (window >> (32 - (at & 7) - width)) & ((1 << width) - 1)


def _codeword_ends(bits: np.ndarray) -> np.ndarray:
    """For each bit position p, where a coefficient codeword starting at p
    ends, or 0 where the walk leaves the block.

    A codeword starting at p has lead - p zeros, where lead is the first
    set bit at or after p, then as many bits again after that one.  A set
    bit at p is a whole end-of-block codeword, so its entry is 0.  So is
    every entry from the end of the data on; and a codeword that would run
    past the data ends at `trap`, past the last position a prefix can
    reach.  A walk that runs out of data therefore leaves its block like
    one at an end-of-block, but past the data.
    """
    nbits = len(bits)
    trap = nbits + _PREFIX_BITS
    dtype = np.int32 if 4 * trap < 1 << 31 else np.int64
    pos = np.arange(nbits, dtype=dtype)
    clear = 1 - bits
    end = np.zeros(trap + 1, dtype=dtype)
    head = end[:nbits]
    # lead, as a reverse running minimum over p at set bits, p + nbits at clear ones
    np.multiply(clear, nbits, out=head, dtype=dtype)
    head += pos
    np.minimum.accumulate(head[::-1], out=head[::-1])
    head *= 2  # and on to 2 * lead - p + 1
    head -= pos
    head += 1
    np.minimum(head, trap, out=head)
    head *= clear
    return end


def _walk(ends: memoryview, layout, nbits: int):
    """Follow the codeword chain from bit 0 through every block.

    Returns masks of the coefficient codeword starts and of the bit
    positions where blocks end, and where the last block ends.  Every block
    takes at least its end-of-block bit, so no two blocks end together.
    """
    coded = bytearray(nbits)
    block_end = bytearray(nbits + 1)
    p = 0
    for n, allowed in layout:
        for _ in range(n):
            block_start = p
            if allowed is not None:
                p += _PREFIX_BITS
            q = ends[p]
            while q:
                coded[p] = 1
                p = q
                q = ends[p]
            p += 1  # past the end-of-block bit
            if p > nbits:
                at = max(0, min(block_start, nbits - 1))
                raise BitstreamError("payload ends inside a block", byte_offset=at // 8)
            block_end[p] = 1
    return np.frombuffer(coded, dtype=bool), np.frombuffer(block_end, dtype=bool), p


def decode_blocks(
    data: bytes, layout: Sequence[tuple[int, np.ndarray | None]]
) -> list[tuple[np.ndarray, np.ndarray | None]]:
    """Inverse of encode_blocks.

    Each layout entry is (block count, allowed prefixes): a 256-entry
    boolean table of the prefix values the plane's blocks may carry, or None
    when they carry no prefix.  Returns per plane (blocks, prefixes), blocks
    as an (n, 8, 8) int16 stack.  After the last block fewer than 8 bits may
    remain, all zero.  Any other payload raises BitstreamError with a byte
    offset inside it.
    """
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
    nbits = len(bits)
    end = _codeword_ends(bits)
    coded, block_end, p = _walk(memoryview(end), layout, nbits)
    tail_is_padding = nbits - p < 8 and not bits[p:].any()
    starts = np.flatnonzero(coded)
    bounds = np.flatnonzero(block_end)
    zeros = (end[starts] + starts - 1) // 2 - starts
    del bits, end, coded, block_end
    marks = np.searchsorted(starts, bounds)  # codewords before each block's end
    counts = np.diff(marks, prepend=0)
    over = np.flatnonzero(counts > _MAX_COEFFS)
    if len(over):
        first = int(marks[over[0]] - counts[over[0]])
        raise BitstreamError(
            f"block carries more than {_MAX_COEFFS} coefficients",
            byte_offset=int(starts[first + _MAX_COEFFS]) // 8,
        )
    padded = np.frombuffer(data + bytes(4), dtype=np.uint8)
    windows = np.ascontiguousarray(sliding_window_view(padded, 4)).view(">u4")[:, 0]
    values = _read_fields(windows, starts + zeros, np.minimum(zeros, _MAX_ZEROS) + 1)
    bad = np.flatnonzero((zeros > _MAX_ZEROS) | (values > _MAX_VALUE))
    if len(bad):
        raise BitstreamError("coefficient codeword beyond the int16 range", byte_offset=int(starts[bad[0]]) // 8)

    n_blocks = len(bounds)
    scan = np.arange(len(starts)) - np.repeat(marks - counts, counts)
    flat = np.zeros((n_blocks, 64), dtype=np.int16)
    flat.reshape(-1)[np.repeat(np.arange(n_blocks) * 64, counts) + ZIGZAG[scan]] = symbol_to_signed(values - 2)
    blocks = flat.reshape(n_blocks, 8, 8)

    block_start = np.concatenate([[0], bounds[:-1]])
    out = []
    b = 0
    for n, allowed in layout:
        prefixes = None
        if allowed is not None:
            heads = block_start[b : b + n]
            prefixes = _read_fields(windows, heads, _PREFIX_BITS).astype(np.uint8)
            bad = np.flatnonzero(~np.asarray(allowed)[prefixes])
            if len(bad):
                raise BitstreamError(
                    f"block prefix {int(prefixes[bad[0]]):#04x} not allowed", byte_offset=int(heads[bad[0]]) // 8
                )
        out.append((blocks[b : b + n], prefixes))
        b += n
    if not tail_is_padding:
        raise BitstreamError(f"{nbits - p} bits after the last block are not zero padding", byte_offset=p // 8)
    return out
