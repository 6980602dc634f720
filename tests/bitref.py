"""Reference coder: the scalar, one-symbol-at-a-time exp-Golomb bit I/O.

This is the string-based writer and reader the codec once used, kept
verbatim as the oracle for the array coder in ``fmvc.bitio``.  The block
code and the stack helpers below restate, one block and one symbol at a
time, what ``encode_blocks`` and ``decode_blocks`` must produce, in the
payload's three runs: the 8-bit prefixes, then every codeword's zeros and
its '1', then every codeword's info bits.  They take and give planes of
blocks in the codec's (8, 8, n) layout, each with its prefixes or None, and
walk them as (n, 8, 8) stacks; the tests split fmvc.bitio's one block array
into its m prefixed blocks and the rest.
"""

from __future__ import annotations

import numpy as np

from fmvc.bitio import signed_to_symbol, symbol_to_signed
from fmvc.errors import BitstreamError
from fmvc.transform import BLOCK, ZIGZAG
from kernelref import planes, stack

# Precomputed codewords for small symbols; the hot path is table lookups.
_UE_CACHE_SIZE = 1024


def ue_bits(symbol: int) -> str:
    """Exp-Golomb(k=0) codeword for an unsigned symbol, as a '01' string."""
    v = symbol + 1
    n = v.bit_length()
    return format(v, f"0{2 * n - 1}b")


_UE_CACHE = [ue_bits(i) for i in range(_UE_CACHE_SIZE)]


class BitWriter:
    """Accumulates bits MSB-first; bytes are zero-padded at the end."""

    def __init__(self):
        self._parts: list[str] = []
        self._nbits = 0

    @property
    def bit_length(self) -> int:
        return self._nbits

    def write_bits(self, value: int, nbits: int) -> None:
        self._parts.append(format(value, f"0{nbits}b"))
        self._nbits += nbits

    def write_ue(self, symbol: int) -> None:
        code = _UE_CACHE[symbol] if symbol < _UE_CACHE_SIZE else ue_bits(symbol)
        self._parts.append(code)
        self._nbits += len(code)

    def getvalue(self) -> bytes:
        bits = "".join(self._parts)
        pad = -len(bits) % 8
        bits += "0" * pad
        if not bits:
            return b""
        return int(bits, 2).to_bytes(len(bits) // 8, "big")


class BitReader:
    """Reads an MSB-first bit stream; errors carry the current byte offset."""

    def __init__(self, data: bytes):
        self._nbits = len(data) * 8
        if data:
            self._bits = bin(int.from_bytes(data, "big"))[2:].zfill(self._nbits)
        else:
            self._bits = ""
        self._pos = 0

    @property
    def bit_position(self) -> int:
        return self._pos

    @property
    def bits_left(self) -> int:
        return self._nbits - self._pos

    def read_bits(self, nbits: int) -> int:
        end = self._pos + nbits
        if end > self._nbits:
            raise BitstreamError("bit stream exhausted", byte_offset=self._pos // 8)
        value = int(self._bits[self._pos : end], 2) if nbits else 0
        self._pos = end
        return value

    def read_ue(self) -> int:
        one = self._bits.find("1", self._pos)
        if one < 0:
            raise BitstreamError("unterminated exp-golomb codeword", byte_offset=self._pos // 8)
        zeros = one - self._pos
        end = one + zeros + 1
        if end > self._nbits:
            raise BitstreamError("truncated exp-golomb codeword", byte_offset=self._pos // 8)
        value = int(self._bits[one:end], 2)
        self._pos = end
        return value - 1


class PayloadWriter:
    """Writes a payload's three runs: prefixes, codeword zeros and '1's, info bits.

    Each codeword is split as ITU-T H.264 section 9.1 reads it: its
    leadingZeroBits zeros and a '1' go to the second run, its
    leadingZeroBits info bits to the third.
    """

    def __init__(self):
        self._runs: tuple[list[str], list[str], list[str]] = ([], [], [])

    @property
    def bit_length(self) -> int:
        return sum(len(part) for run in self._runs for part in run)

    def write_prefix(self, value: int) -> None:
        self._runs[0].append(format(value, "08b"))

    def write_ue(self, symbol: int) -> None:
        code = ue_bits(symbol)
        zeros = len(code) // 2
        self._runs[1].append(code[: zeros + 1])
        self._runs[2].append(code[zeros + 1 :])

    def getvalue(self) -> bytes:
        w = BitWriter()
        for part in (part for run in self._runs for part in run if part):
            w.write_bits(int(part, 2), len(part))
        return w.getvalue()


# --- block code, one block at a time ------------------------------------

INVERSE_ZIGZAG = np.argsort(ZIGZAG)


def zigzag_scan(block: np.ndarray) -> np.ndarray:
    """Flatten an 8x8 block in zigzag order."""
    return np.asarray(block).reshape(64)[ZIGZAG]


def zigzag_unscan(values: np.ndarray) -> np.ndarray:
    """Rebuild an 8x8 block from its zigzag-ordered values."""
    return np.asarray(values).reshape(64)[INVERSE_ZIGZAG].reshape(BLOCK, BLOCK)


def entropy_encode_block(writer: PayloadWriter, qblock: np.ndarray) -> None:
    zz = zigzag_scan(qblock)
    nonzero = np.nonzero(zz)[0]
    if len(nonzero):
        for v in zz[: nonzero[-1] + 1].tolist():
            writer.write_ue(signed_to_symbol(v) + 1)
    writer.write_ue(0)


def read_zeros(reader: BitReader) -> int:
    """The first half of a codeword: its zeros, counted, and the '1' after them."""
    zeros = 0
    while reader.read_bits(1) == 0:
        zeros += 1
    return zeros


def read_block_zeros(reader: BitReader) -> list[tuple[int, int]]:
    """(first bit, zero count) of each of one block's coefficient codewords, from the second run."""
    block = []
    while True:
        start = reader.bit_position
        if not (zeros := read_zeros(reader)):
            return block
        block.append((start, zeros))


def read_block_info(reader: BitReader, block_zeros: list[tuple[int, int]]) -> list[int]:
    """One block's signed values, in scan order, from its codewords' info bits in the third run."""
    return [symbol_to_signed(((1 << zeros) | reader.read_bits(zeros)) - 2) for _, zeros in block_zeros]


# --- stacks, as lists of planes ----------------------------------------


def encode_stack(coded_planes) -> tuple[bytes, list[np.ndarray]]:
    """Reference for ``encode_blocks``: payload and each plane's bits per block."""
    w = PayloadWriter()
    per_plane = []
    for blocks, prefixes in coded_planes:
        blocks = stack(blocks)
        bits = np.empty(len(blocks), dtype=np.int64)
        for i, block in enumerate(blocks):
            start = w.bit_length
            if prefixes is not None:
                w.write_prefix(int(prefixes[i]))
            entropy_encode_block(w, block)
            bits[i] = w.bit_length - start
        per_plane.append(bits)
    return w.getvalue(), per_plane


def decode_stack(data: bytes, layout) -> list[tuple[np.ndarray, np.ndarray | None]]:
    """Reference for ``decode_blocks``: per plane (blocks, prefixes).

    After the last block fewer than 8 bits may remain, and they must be zero.
    A payload is rejected as fmvc.bitio's docstring states: in four passes,
    each of which first needs its part of the payload whole and then looks at
    that part in stream order, at the byte that holds the first bit of what
    it rejects, or at the last byte when the payload ends too early.
    """
    r = BitReader(data)
    short = BitstreamError("payload ends inside a block", byte_offset=max(len(data) - 1, 0))

    # pass 1: the prefixes
    prefixes = [None if allowed is None else np.empty(n, dtype=np.uint8) for n, allowed in layout]
    if r.bits_left < 8 * sum(len(p) for p in prefixes if p is not None):
        raise short
    for plane_prefixes, (_, allowed) in zip(prefixes, layout):
        for i in range(0 if plane_prefixes is None else len(plane_prefixes)):
            at = r.bit_position // 8
            plane_prefixes[i] = r.read_bits(8)
            if not allowed[plane_prefixes[i]]:
                raise BitstreamError("prefix not allowed", byte_offset=at)

    # pass 2: every block's codeword zeros, up to its end of block
    try:
        zeros = [[read_block_zeros(r) for _ in range(n)] for n, _ in layout]
    except BitstreamError:
        raise short from None
    for block in (block for plane in zeros for block in plane):
        if len(block) > 64:
            raise BitstreamError("block carries more than 64 coefficients", byte_offset=block[64][0] // 8)

    # pass 3: every codeword's info bits, then the padding
    try:
        values = [[read_block_info(r, block) for block in plane] for plane in zeros]
    except BitstreamError:
        raise short from None
    at = r.bit_position // 8  # the byte that holds the first bit after the last block
    if r.bits_left >= 8 or r.read_bits(r.bits_left):
        raise BitstreamError("trailing data: not zero padding", byte_offset=at)

    # pass 4: the values
    for plane_zeros, plane_values in zip(zeros, values):
        for block_zeros, block_values in zip(plane_zeros, plane_values):
            for (start, _), value in zip(block_zeros, block_values):
                if not -(1 << 15) <= value < 1 << 15:
                    raise BitstreamError(f"coefficient {value} outside int16", byte_offset=start // 8)

    out = []
    for plane_values, plane_prefixes in zip(values, prefixes):
        blocks = np.empty((len(plane_values), 8, 8), dtype=np.int64)
        for i, block_values in enumerate(plane_values):
            flat = np.zeros(64, dtype=np.int64)
            flat[: len(block_values)] = block_values
            blocks[i] = zigzag_unscan(flat)
        out.append((planes(blocks), plane_prefixes))
    return out
