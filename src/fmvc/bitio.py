"""Order-0 exponential-Golomb block code over one array of 8x8 blocks.

A block is coded as its zigzag-ordered values up to the last nonzero
coefficient, each as the exp-Golomb codeword (ITU-T H.264 section 9.1) of
its signed symbol + 1, then the codeword of 0, a single '1' bit, as the
end-of-block marker; the +1 shift keeps in-run zeros distinct from the
marker.  The first m blocks each carry a raw 8-bit prefix.

A payload holds three runs, MSB first and zero-padded to a whole byte:
the m prefixes, one byte each; then the first half of every codeword
in stream order, its leadingZeroBits zeros and its '1'; then the second
half of every codeword, its leadingZeroBits info bits.  The end-of-block
codeword is the only one without leading zeros, so a block ends at every
'1' of the second run that directly follows a '1' (or opens the run).

Both directions work on a frame's one (8, 8, n) block array, as the
transform leaves it: viewed as (64, n), each column is a block and the
zigzag scan is a permutation of the rows.  The encoder scans only the
blocks of its coded set, a mask of every block with a nonzero value (and
maybe others), sets the second run's '1's in a bit array and sums the
third run's fields into 32-bit words.  The decoder finds every codeword
as a set bit of the second run, its zero count as the gap to the one
before, and its info field in the 24-bit window from the field's first
byte, then scatters all values to their blocks at once.

The decoder rejects a payload in four passes, each of which first needs
its part of the payload whole and then looks at that part in stream
order: the m prefixes, for a value the table does not allow; the second
run, for a block of more than 64 coefficients; the third run, for bits
after it that are not zero padding; and the values, for one outside
int16.  A rejection's byte_offset names the byte that holds the first bit
of what it rejects: the prefix, the 65th codeword, the first bit after
the third run, or the codeword, a codeword's first bit being the first
zero of its second-run half.  A payload that ends before a pass's part
does ends inside a block, and the offset names its last byte (0 when it
is empty).
"""

from __future__ import annotations

import numpy as np

from .errors import BitstreamError, ContractViolation
from .transform import ZIGZAG

_MAX_COEFFS = 64


def signed_to_symbol(value):
    """Signed-to-unsigned mapping 0, +1, -1, +2, -2, ... -> 0, 1, 2, 3, 4, ...

    Works on Python ints and on integer arrays alike.
    """
    return 2 * abs(value) - (value > 0)


def symbol_to_signed(symbol):
    """Inverse of signed_to_symbol, for Python ints and integer arrays."""
    return ((symbol + 1) >> 1) * (2 * (symbol & 1) - 1)


# The block code carries int16 coefficients (the encoder's own stay within
# +-64 * 255).  The longest codeword, that of -32768, has 16 leading zeros;
# a codeword with more, or of any other value outside int16 (65537 codes
# +32768), is a corrupt payload.
_MAX_ZEROS = (signed_to_symbol(-(1 << 15)) + 2).bit_length() - 1


def payload_bounds(n_blocks: int, m: int) -> tuple[int, int]:
    """The fewest and the most bytes a payload of n_blocks blocks, the first m
    with a prefix, can take: every block holds its end-of-block bit, and at
    most 64 codewords of 2 * _MAX_ZEROS + 1 bits before it."""
    longest = _MAX_COEFFS * (2 * _MAX_ZEROS + 1) + 1
    return (8 * m + n_blocks + 7) // 8, (8 * m + n_blocks * longest + 7) // 8


# Bit positions are int32 while they all fit; a frame payload may reach 2**32 bytes.
_INT32_BITS = 1 << 31


def _index_dtype(n_bits: int) -> type:
    """The integer type of positions within a run of n_bits bits."""
    return np.int32 if n_bits < _INT32_BITS else np.int64


# --- encode ------------------------------------------------------------


def encode_blocks(blocks: np.ndarray, prefixes: np.ndarray, coded: np.ndarray) -> tuple[bytes, np.ndarray]:
    """Code n blocks, in order, into one payload.

    blocks holds int16 coefficients laid out (8, 8, n); prefixes holds the
    8-bit prefixes of the first m blocks; coded, a boolean array of shape
    (n,), masks every block with a nonzero value, and maybe all-zero ones,
    which code as empty.  Only coded's form is checked: a nonzero block it
    misses codes as empty, as finding one would take a pass over every
    block.  Returns the payload and each block's bit count, prefix included;
    the counts sum to the payload's length in bits before padding.
    """
    blocks = np.asarray(blocks)
    if blocks.shape[:2] != (8, 8) or blocks.dtype.kind not in "iu":
        raise ContractViolation(f"expected integer blocks with leading 8x8 axes, got {blocks.dtype} {blocks.shape}")
    prefixes, raster = np.asarray(prefixes), blocks.reshape(64, -1)
    n = raster.shape[1]
    if (prefixes.ndim != 1 or len(prefixes) > n or (prefixes.size and prefixes.dtype.kind not in "iu")
            or ((prefixes < 0) | (prefixes > 255)).any()):
        raise ContractViolation("need one integer 8-bit prefix per block")
    coded = np.asarray(coded)
    if coded.shape != (n,) or coded.dtype != bool:
        raise ContractViolation(f"coded must be a boolean mask of shape ({n},), got {coded.dtype} {coded.shape}")
    coded = np.flatnonzero(coded)
    scans = raster.take(coded, axis=1)
    if scans.size and not -(1 << 15) <= scans.min() <= scans.max() < 1 << 15:
        raise ContractViolation("the block code carries int16 coefficients only")
    scans = scans.astype(np.int16)[ZIGZAG]
    counts = np.zeros(n, dtype=np.intp)
    nonzero = scans[::-1] != 0
    counts[coded] = (64 - nonzero.argmax(axis=0)) * nonzero.any(axis=0)  # a masked all-zero block is empty
    # the transposed views walk block by block, each in scan order
    values = signed_to_symbol(scans.T[np.arange(64) < counts[coded, None]].astype(np.int32)) + 2

    zeros = np.frexp(values.astype(np.float32))[1] - 1  # bit lengths, exact below 2**24, less one
    n_codes, n_info = len(values) + n, int(zeros.sum())
    n_bits = n_codes + 2 * n_info
    pos = _index_dtype(n_bits)
    ends = np.zeros(len(values) + 1, dtype=pos)
    np.cumsum(zeros, out=ends[1:])  # where each coefficient's info bits end
    through = np.cumsum(counts)  # coefficients up to each block's end
    block_zeros = ends[through]
    # a block's bits: its prefix, its zeros, once more as info bits, and a '1' per codeword
    block_bits = 2 * np.diff(block_zeros, prepend=pos(0)) + counts + 1
    block_bits[: len(prefixes)] += 8

    # codeword i's '1' follows its own zeros and every earlier codeword's zeros and '1';
    # coefficient k in block b is codeword k + b, and b's end-of-block codeword through[b] + b
    unary = np.zeros(n_codes + n_info, dtype=np.uint8)
    unary[ends[1:] + np.arange(len(values)) + np.repeat(np.arange(n), counts)] = 1
    unary[block_zeros + through + np.arange(n)] = 1
    # info field k ends at bit `last`; placed below 2**47 in the 64 bits ending with that bit's 32-bit word,
    # it adds its low half to the word and its high half to the one before, and float64 sums stay exact
    last = ends[1:] + (n_codes + n_info - 1)
    sums = np.bincount(last >> 5, np.ldexp(values - (1 << zeros), 31 - (last & 31)), (n_bits + 31) // 32 + 1)
    sums = sums.astype(np.int64)
    payload = ((sums[:-1] & 0xFFFFFFFF) + (sums[1:] >> 32)).astype(">u4").view(np.uint8)
    packed = np.packbits(unary)
    payload[: len(packed)] |= packed
    return prefixes.astype(np.uint8).tobytes() + payload[: (n_bits + 7) // 8].tobytes(), block_bits


# --- decode ------------------------------------------------------------


def decode_blocks(data: bytes, n_blocks: int, m: int, allowed: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inverse of encode_blocks for n_blocks blocks, the first m with a prefix.

    allowed is a 256-entry boolean table of the prefix values those blocks
    may carry.  Returns the (8, 8, n_blocks) int16 blocks, the m prefixes
    and the mask of the blocks with a coefficient codeword (maybe an explicit
    zero).  After the last block fewer than 8 bits may remain, all zero.
    Any other payload raises BitstreamError with a byte offset inside it.
    """
    raw = np.frombuffer(data, dtype=np.uint8)
    short = BitstreamError("payload ends inside a block", byte_offset=max(len(data) - 1, 0))
    if m > len(raw):
        raise short
    bad = np.flatnonzero(~np.asarray(allowed)[raw[:m]])
    if len(bad):
        raise BitstreamError(f"block prefix {int(raw[bad[0]]):#04x} not allowed", byte_offset=int(bad[0]))
    prefixes = raw[:m].copy()

    pos = _index_dtype(8 * len(data))
    bits = np.unpackbits(raw[m:]).view(bool)  # bit positions count from after the prefixes
    ends = np.flatnonzero(bits).astype(pos)  # the '1' after each codeword's zeros
    zeros = np.diff(ends, prepend=pos(-1)) - 1
    eob = np.flatnonzero(zeros == 0)[:n_blocks].astype(pos)
    if len(eob) < n_blocks:
        raise short
    n_codes = int(eob[-1]) + 1 if n_blocks else 0
    zeros = zeros[:n_codes]
    starts = ends[:n_codes] - zeros
    counts = np.diff(eob, prepend=pos(-1)) - 1  # coefficient codewords per block
    over = np.flatnonzero(counts > _MAX_COEFFS)
    if len(over):
        extra = int(starts[eob[over[0]] - counts[over[0]] + _MAX_COEFFS])  # where the 65th coefficient starts
        raise BitstreamError(f"block carries more than {_MAX_COEFFS} coefficients", byte_offset=m + extra // 8)
    info_start = n_codes + int(zeros.sum())  # where the unary run ends
    end = 2 * info_start - n_codes  # the info run has a bit per zero of the unary run
    if end > len(bits):
        raise short
    if len(bits) - end >= 8 or bits[end:].any():
        excess = len(bits) - end
        raise BitstreamError(f"{excess} bits after the last block are not zero padding", byte_offset=m + end // 8)
    del bits, ends

    # info field k starts after the info bits of the codewords before it; the 24 bits
    # from its byte on hold it, as a field of up to 17 bits from bit 7 ends at bit 23,
    # and a wider one reads as too large
    at = starts - np.arange(n_codes, dtype=pos) + (8 * m + info_start)
    padded = np.frombuffer(data + bytes(3), dtype=np.uint8).astype(np.int32)
    windows = padded[:-2] << 16 | padded[1:-1] << 8 | padded[2:]
    width = np.minimum(zeros, _MAX_ZEROS + 1)
    values = windows.take(at >> 3)
    values <<= at & 7
    values &= 0xFFFFFF
    values >>= 24 - width
    values |= 1 << width
    signed = symbol_to_signed(values - 2)
    if len(signed) and not -(1 << 15) <= signed.min() <= signed.max() < 1 << 15:
        bad = int(np.argmax((signed < -(1 << 15)) | (signed >= 1 << 15)))
        raise BitstreamError("coefficient codeword beyond the int16 range", byte_offset=m + int(starts[bad]) // 8)
    del windows, width, at, starts, values

    # each codeword goes to its zigzag row in its block's column; an end-of-block
    # (signed 0) to the zero after its block's coefficients, or to a spare 65th row
    scan = np.arange(n_codes, dtype=pos) - np.repeat(eob - counts, counts + 1)
    flat = np.zeros((65, n_blocks), dtype=np.int16)
    index = (np.append(ZIGZAG, 64) * n_blocks).take(scan) + np.repeat(np.arange(n_blocks), counts + 1)
    flat.reshape(-1)[index] = signed
    return flat[:64].reshape(8, 8, n_blocks), prefixes, counts > 0
