"""Reference coder: the scalar, one-symbol-at-a-time exp-Golomb bit I/O.

This is the string-based writer and reader the codec once used, kept
verbatim as the oracle for the array coder in ``fmvc.bitio``.  The block
code and the stack helpers below restate, one block and one symbol at a
time, what ``encode_blocks`` and ``decode_blocks`` must produce.
"""

from __future__ import annotations

import numpy as np

from fmvc.bitio import signed_to_symbol, symbol_to_signed
from fmvc.errors import BitstreamError
from fmvc.transform import BLOCK, ZIGZAG

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


def entropy_encode_block(writer: BitWriter, qblock: np.ndarray) -> None:
    zz = zigzag_scan(qblock)
    nonzero = np.nonzero(zz)[0]
    if len(nonzero):
        for v in zz[: nonzero[-1] + 1].tolist():
            writer.write_ue(signed_to_symbol(v) + 1)
    writer.write_ue(0)


def entropy_decode_block(reader: BitReader) -> np.ndarray:
    values = []
    while True:
        symbol = reader.read_ue()
        if symbol == 0:
            break
        if symbol > _MAX_SYMBOL:
            raise BitstreamError(
                f"coefficient symbol {symbol} exceeds {_MAX_SYMBOL}", byte_offset=reader.bit_position // 8
            )
        if len(values) >= 64:
            raise BitstreamError(
                "block carries more than 64 coefficients", byte_offset=reader.bit_position // 8
            )
        values.append(symbol_to_signed(symbol - 1))
    flat = np.zeros(64, dtype=np.int64)
    flat[: len(values)] = values
    return zigzag_unscan(flat)


# --- stacks, with the same arguments as fmvc.bitio ----------------------


def encode_stack(planes) -> tuple[bytes, list[np.ndarray]]:
    """Reference for ``encode_blocks``: payload and each plane's bits per block."""
    w = BitWriter()
    per_plane = []
    for blocks, prefixes in planes:
        bits = np.empty(len(blocks), dtype=np.int64)
        for i, block in enumerate(blocks):
            start = w.bit_length
            if prefixes is not None:
                w.write_bits(int(prefixes[i]), 8)
            entropy_encode_block(w, block)
            bits[i] = w.bit_length - start
        per_plane.append(bits)
    return w.getvalue(), per_plane


def decode_stack(data: bytes, layout) -> list[tuple[np.ndarray, np.ndarray | None]]:
    """Reference for ``decode_blocks``: per plane (blocks, prefixes).

    After the last block fewer than 8 bits may remain, and they must be zero.
    """
    r = BitReader(data)
    out = []
    for n, allowed in layout:
        prefixes = np.empty(n, dtype=np.uint8) if allowed is not None else None
        blocks = np.empty((n, 8, 8), dtype=np.int64)
        for i in range(n):
            if allowed is not None:
                prefixes[i] = r.read_bits(8)
                if not allowed[prefixes[i]]:
                    raise BitstreamError("prefix not allowed", byte_offset=r.bit_position // 8 - 1)
            blocks[i] = entropy_decode_block(r)
        out.append((blocks, prefixes))
    if r.bits_left >= 8 or r.read_bits(r.bits_left):
        raise BitstreamError("trailing data", byte_offset=r.bit_position // 8)
    return out
