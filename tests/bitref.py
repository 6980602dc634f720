"""Reference coder: the scalar, one-symbol-at-a-time exp-Golomb bit I/O.

This is the string-based writer and reader the codec once used, kept
verbatim as the oracle for the array coder in ``fmvc.bitio``.  The block
code and the stack helpers below restate, one block and one symbol at a
time, what ``encode_blocks`` and ``decode_blocks`` must produce, in the
payload's three runs: the 8-bit prefixes, then every codeword's zeros and
its '1', then every codeword's info bits.  They take and give blocks in the
codec's (8, 8, n) layout and walk them as an (n, 8, 8) stack.
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


# The block code carries int16 coefficients; a longer codeword can only
# come from a corrupt payload.
_MAX_SYMBOL = signed_to_symbol(-(1 << 15)) + 1


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


def read_block_zeros(reader: BitReader) -> list[int]:
    """The zero counts of one block's coefficient codewords, from the second run."""
    block = []
    while zeros := read_zeros(reader):
        if len(block) >= 64:
            raise BitstreamError(
                "block carries more than 64 coefficients", byte_offset=reader.bit_position // 8
            )
        block.append(zeros)
    return block


def read_block_info(reader: BitReader, block_zeros: list[int]) -> np.ndarray:
    """One block from its codewords' info bits in the third run."""
    values = []
    for zeros in block_zeros:
        symbol = ((1 << zeros) | reader.read_bits(zeros)) - 1
        if symbol > _MAX_SYMBOL:
            raise BitstreamError(
                f"coefficient symbol {symbol} exceeds {_MAX_SYMBOL}", byte_offset=reader.bit_position // 8
            )
        values.append(symbol_to_signed(symbol - 1))
    flat = np.zeros(64, dtype=np.int64)
    flat[: len(values)] = values
    return zigzag_unscan(flat)


# --- stacks, with the same arguments as fmvc.bitio ----------------------


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
    """
    r = BitReader(data)
    prefixes = []
    for n, allowed in layout:
        if allowed is None:
            prefixes.append(None)
            continue
        prefixes.append(np.empty(n, dtype=np.uint8))
        for i in range(n):
            prefixes[-1][i] = r.read_bits(8)
            if not allowed[prefixes[-1][i]]:
                raise BitstreamError("prefix not allowed", byte_offset=r.bit_position // 8 - 1)
    zeros = [[read_block_zeros(r) for _ in range(n)] for n, _ in layout]
    out = []
    for plane_zeros, plane_prefixes in zip(zeros, prefixes):
        blocks = np.empty((len(plane_zeros), 8, 8), dtype=np.int64)
        for i, block_zeros in enumerate(plane_zeros):
            blocks[i] = read_block_info(r, block_zeros)
        out.append((planes(blocks), plane_prefixes))
    if r.bits_left >= 8 or r.read_bits(r.bits_left):
        raise BitstreamError("trailing data", byte_offset=r.bit_position // 8)
    return out
