import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmvc import bitio
from fmvc.bitio import decode_blocks, encode_blocks, signed_to_symbol, symbol_to_signed
from fmvc.errors import BitstreamError, ContractViolation

from bitref import BitReader, BitWriter, PayloadWriter, decode_stack, encode_stack, ue_bits
from kernelref import planes as as_planes


def decode_planes(data, layout):
    """decode_blocks' one block array split per plane: per plane (blocks, prefixes), as decode_stack gives them."""
    blocks, prefixes = decode_blocks(data, layout)
    assert blocks.shape == (8, 8, sum(n for n, _ in layout))
    return list(zip(np.split(blocks, np.cumsum([n for n, _ in layout])[:-1], axis=2), prefixes))


def test_ue_codewords():
    assert ue_bits(0) == "1"
    assert ue_bits(1) == "010"
    assert ue_bits(2) == "011"
    assert ue_bits(3) == "00100"
    assert ue_bits(6) == "00111"
    assert ue_bits(7) == "0001000"


def test_signed_mapping():
    # 0, +1, -1, +2, -2, ... -> 0, 1, 2, 3, 4, ...
    values = [0, 1, -1, 2, -2, 3, -3]
    assert [signed_to_symbol(v) for v in values] == list(range(7))
    for v in range(-200, 201):
        assert symbol_to_signed(signed_to_symbol(v)) == v


def test_writer_bit_layout():
    w = BitWriter()
    w.write_bits(0b1011, 4)
    w.write_ue(0)
    w.write_ue(2)
    assert w.bit_length == 8
    assert w.getvalue() == bytes([0b10111011])


def test_writer_pads_to_byte():
    w = BitWriter()
    w.write_bits(1, 1)
    assert w.getvalue() == bytes([0b10000000])
    assert BitWriter().getvalue() == b""


def test_round_trip_symbols(rng):
    symbols = rng.integers(0, 5000, 10_000).tolist()
    w = BitWriter()
    for s in symbols:
        w.write_ue(s)
    r = BitReader(w.getvalue())
    assert [r.read_ue() for _ in symbols] == symbols


def test_round_trip_mixed_fields(rng):
    w = BitWriter()
    fields = []
    for _ in range(500):
        if rng.integers(0, 2):
            v, n = int(rng.integers(0, 256)), 8
            w.write_bits(v, n)
            fields.append(("raw", v, n))
        else:
            s = int(rng.integers(0, 100))
            w.write_ue(s)
            fields.append(("ue", s, None))
    r = BitReader(w.getvalue())
    for kind, v, n in fields:
        if kind == "raw":
            assert r.read_bits(n) == v
        else:
            assert r.read_ue() == v


def test_reader_exhaustion_reports_offset():
    r = BitReader(bytes([0xFF, 0xFF]))
    r.read_bits(16)
    with pytest.raises(BitstreamError) as info:
        r.read_bits(1)
    assert info.value.byte_offset == 2


def test_reader_unterminated_codeword():
    r = BitReader(bytes([0x00]))
    with pytest.raises(BitstreamError):
        r.read_ue()


def test_reader_truncated_codeword():
    # "0000 0001" starts a codeword needing 7 more value bits than available
    r = BitReader(bytes([0x01]))
    with pytest.raises(BitstreamError):
        r.read_ue()


# --- the array block coder against the reference ------------------------

INT16_EXTREMES = np.array([-(1 << 15), (1 << 15) - 1])


@st.composite
def block_planes(draw, max_blocks=300):
    """1-3 planes of random blocks laid out (8, 8, n), 0-300 blocks in all, each plane with or
    without 8-bit prefixes.  Coefficients mix zero runs, small values, the
    whole int16 range and its two extremes."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    total = draw(st.integers(0, max_blocks))
    cuts = sorted(draw(st.lists(st.integers(0, total), max_size=2)))
    planes = []
    for n in np.diff([0, *cuts, total]):
        blocks = np.zeros((n, 64), np.int64)
        density = draw(st.sampled_from([0.0, 0.05, 0.3, 1.0]))
        nonzero = rng.random((n, 64)) < density
        kind = rng.integers(0, 3, (n, 64))
        small = rng.integers(-5, 6, (n, 64))
        wide = rng.integers(-(1 << 15), 1 << 15, (n, 64))
        extreme = INT16_EXTREMES[rng.integers(0, 2, (n, 64))]
        blocks[nonzero] = np.choose(kind, [small, wide, extreme])[nonzero]
        prefixes = rng.integers(0, 256, n).astype(np.uint8) if draw(st.booleans()) else None
        planes.append((as_planes(blocks.reshape(n, 8, 8)), prefixes))
    return planes


def layout_of(planes):
    return [(b.shape[2], None if p is None else np.ones(256, bool)) for b, p in planes]


@given(block_planes())
def test_array_encoder_matches_reference(planes):
    payload, bits = encode_blocks(planes)
    ref_payload, ref_bits = encode_stack(planes)
    assert payload == ref_payload
    assert [b.tolist() for b in bits] == [b.tolist() for b in ref_bits]


@given(block_planes())
def test_array_decoder_inverts_encoder(planes):
    payload, _ = encode_blocks(planes)
    decoded = decode_planes(payload, layout_of(planes))
    assert len(decoded) == len(planes)
    for (blocks, prefixes), (want_blocks, want_prefixes) in zip(decoded, planes):
        assert np.array_equal(blocks, want_blocks)
        assert (prefixes is None) == (want_prefixes is None)
        if prefixes is not None:
            assert np.array_equal(prefixes, want_prefixes)


def outcome(decode, data, layout):
    try:
        return decode(data, layout)
    except BitstreamError as exc:
        return exc


@st.composite
def payloads_and_layouts(draw):
    """Small layouts with random prefix tables, and payloads that are random
    bytes, random bits with long zero or one runs, or a valid payload with
    bits flipped, bytes cut off or bytes appended."""
    planes = draw(block_planes(max_blocks=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    allowed_share = draw(st.sampled_from([1.0, 0.9, 0.5]))
    layout = [(b.shape[2], None if p is None else rng.random(256) < allowed_share) for b, p in planes]
    kind = draw(st.sampled_from(["bytes", "runs", "mutated"]))
    if kind == "bytes":
        return draw(st.binary(max_size=40)), layout
    if kind == "runs":
        ones = rng.random(8 * draw(st.integers(0, 60))) < draw(st.sampled_from([0.03, 0.2, 0.8]))
        return np.packbits(ones).tobytes(), layout
    data = bytearray(encode_blocks(planes)[0])
    for bit in draw(st.lists(st.integers(0, max(8 * len(data) - 1, 0)), max_size=3)) if data else []:
        data[bit // 8] ^= 0x80 >> (bit % 8)
    cut = draw(st.integers(0, len(data)))
    return bytes(data[:cut]) + draw(st.binary(max_size=3)), layout


@settings(max_examples=300)
@given(payloads_and_layouts())
def test_array_decoder_rejects_exactly_when_reference_does(case):
    data, layout = case
    got = outcome(decode_planes, data, layout)
    want = outcome(decode_stack, data, layout)
    assert isinstance(got, BitstreamError) == isinstance(want, BitstreamError)
    if isinstance(got, BitstreamError):
        assert 0 <= got.byte_offset < max(len(data), 1)
    else:
        for (blocks, prefixes), (ref_blocks, ref_prefixes) in zip(got, want):
            assert np.array_equal(blocks, ref_blocks)
            assert (prefixes is None and ref_prefixes is None) or np.array_equal(prefixes, ref_prefixes)


def test_encoder_rejects_coefficients_beyond_int16():
    block = np.zeros((8, 8, 1), np.int64)
    block[0, 0, 0] = 1 << 15
    with pytest.raises(ContractViolation):
        encode_blocks([(block, None)])


def test_decoder_rejects_trailing_bits():
    block = np.zeros((8, 8, 1), np.int64)
    block[0, 0, 0] = 3  # symbol 5 + 1, codeword 00111, then end of block: 6 bits, 2 pad bits
    payload, [bits] = encode_blocks([(block, None)])
    assert bits.tolist() == [6] and payload == bytes([0b00111100])
    assert np.array_equal(decode_planes(payload, [(1, None)])[0][0], block)
    with pytest.raises(BitstreamError, match="zero padding") as info:
        decode_planes(bytes([0b00111101]), [(1, None)])  # a set pad bit
    assert info.value.byte_offset == 0
    with pytest.raises(BitstreamError, match="zero padding") as info:
        decode_planes(payload + b"\x00", [(1, None)])  # a whole byte more
    assert info.value.byte_offset == 0


def test_payload_runs_are_prefixes_then_zeros_then_info_bits():
    luma = np.zeros((8, 8, 2), np.int64)
    luma[0, 0, 0] = 1  # symbol 1 + 1: codeword 011, zeros and '1' 01, info 1
    chroma = np.zeros((8, 8, 1), np.int64)
    chroma[0, 0, 0] = -1  # symbol 2 + 1: codeword 00100, zeros and '1' 001, info 00
    payload, bits = encode_blocks([(luma, np.array([0xA5, 0x3C], np.uint8)), (chroma, None)])
    # prefixes A5 3C; then 01 1 | 1 | 001 1 (the end-of-block codewords are '1'); then 1 | 00; then padding
    assert payload == bytes([0xA5, 0x3C, 0b01110011, 0b10000000])
    assert [b.tolist() for b in bits] == [[12, 9], [6]]


def test_decoder_bounds_codewords_by_the_int16_range():
    # +32768 is ue 65536, one codeword short of -32768's: it must not decode as a second -32768
    bounds = ((-(1 << 15), True), ((1 << 15) - 1, True), (-(1 << 15) - 1, False), (1 << 15, False), (1 << 16, False))
    for value, accepted in bounds:
        w = PayloadWriter()
        w.write_ue(signed_to_symbol(value) + 1)
        w.write_ue(0)
        for decode in (decode_planes, decode_stack):
            if accepted:
                [(blocks, _)] = decode(w.getvalue(), [(1, None)])
                assert blocks[0, 0, 0] == value
            else:
                with pytest.raises(BitstreamError, match="int16") as info:
                    decode(w.getvalue(), [(1, None)])
                assert 0 <= info.value.byte_offset < len(w.getvalue())
    w = PayloadWriter()
    w.write_ue(2**70)  # a 141-bit codeword
    w.write_ue(0)
    with pytest.raises(BitstreamError, match="int16") as info:
        decode_planes(w.getvalue(), [(1, None)])
    assert info.value.byte_offset == 0


def test_decoder_checks_prefixes_against_the_table():
    payload, _ = encode_blocks([(np.zeros((8, 8, 2), np.int64), np.array([7, 9], np.uint8))])
    allowed = np.ones(256, bool)
    assert decode_planes(payload, [(2, allowed)])[0][1].tolist() == [7, 9]
    allowed[9] = False
    with pytest.raises(BitstreamError, match="0x09") as info:
        decode_planes(payload, [(2, allowed)])
    assert info.value.byte_offset == 1  # the second prefix byte


def corrupt_payloads():
    """About 500 (payload, layout) cases from a seeded rng: bit flips, cuts
    and appended bytes of a CIF-sized high-rate payload and of small ones,
    plus random bytes."""
    rng = np.random.default_rng(0xB17)
    allowed = (np.arange(256) >> 4 < 13) & (np.arange(256) & 0x0F < 8)
    prefix_values = np.flatnonzero(allowed)

    def payload(n_luma, n_chroma, scale):
        planes = []
        for n, prefixed in ((n_luma, True), (n_chroma, False), (n_chroma, False)):
            # Laplacian coefficients whose spread falls along the zigzag scan
            spread = scale * np.exp(-np.arange(64) / 12)[:, None]
            blocks = np.clip(np.round(rng.laplace(0.0, spread, (64, n))), -(1 << 15), (1 << 15) - 1).astype(np.int64)
            blocks[:, rng.random(n) < 0.2] = 0
            prefixes = rng.choice(prefix_values, n).astype(np.uint8) if prefixed else None
            planes.append((blocks.reshape(8, 8, n), prefixes))
        layout = [(b.shape[2], None if p is None else allowed) for b, p in planes]
        return encode_blocks(planes)[0], layout

    sources = [payload(1584, 396, 12.0)] + [
        payload(int(rng.integers(0, 5)), int(rng.integers(0, 3)), scale) for scale in [3.0, 3e5] * 20
    ]
    cases = []
    for i in range(500):
        data, layout = sources[0] if i % 4 == 0 else sources[int(rng.integers(1, len(sources)))]
        kind = i % 5
        if kind == 4:
            cases.append((rng.bytes(int(rng.integers(0, 64))), layout))
            continue
        data = bytearray(data)
        if kind in (0, 3) and data:
            # odd cases flip only the payload's second half, mostly info bits
            for bit in rng.integers(4 * len(data) * (i % 2), 8 * len(data), int(rng.integers(1, 4))):
                data[bit // 8] ^= 0x80 >> (bit % 8)
        if kind in (1, 3):
            del data[int(rng.integers(0, len(data) + 1)) :]
        if kind == 2:
            data += rng.bytes(int(rng.integers(1, 5)))
        cases.append((bytes(data), layout))
    return cases


# SHA-256 over every outcome of corrupt_payloads(): each error's message and
# byte offset, or the decoded blocks and prefixes.
REJECTION_DIGEST = "5cb29401b7665d69d854978b1df8fa793726bc8bcea29c4ae9dc9ac56fcfbcb3"


@pytest.mark.parametrize("int32_bits", [bitio._INT32_BITS, 8], ids=["int32", "int64"])
def test_decoder_outcomes_on_corrupt_payloads_are_pinned(int32_bits, monkeypatch):
    # the int64 case lowers the bit count up to which positions are int32
    monkeypatch.setattr(bitio, "_INT32_BITS", int32_bits)
    digest = hashlib.sha256()
    for data, layout in corrupt_payloads():
        try:
            decoded = decode_planes(data, layout)
        except BitstreamError as exc:
            digest.update(f"{type(exc).__name__}: {exc} at {exc.byte_offset}\n".encode())
            continue
        digest.update(b"blocks\n")
        for blocks, prefixes in decoded:
            digest.update(blocks.astype("<i2").tobytes())
            digest.update(b"-" if prefixes is None else prefixes.tobytes())
    assert digest.hexdigest() == REJECTION_DIGEST


def test_position_width_follows_the_bit_count():
    assert bitio._index_dtype(0) is np.int32
    assert bitio._index_dtype((1 << 31) - 1) is np.int32
    assert bitio._index_dtype(1 << 31) is np.int64
    assert bitio._index_dtype(8 * ((1 << 32) - 1)) is np.int64  # a frame payload's largest bit count


def test_int64_positions_code_exactly_as_int32(rng, monkeypatch):
    planes = []
    for n, prefixed in ((300, True), (75, False), (75, False)):
        blocks = np.round(rng.laplace(0.0, 20.0 * np.exp(-np.arange(64) / 12)[:, None], (64, n))).astype(np.int64)
        blocks[:, rng.random(n) < 0.3] = 0
        blocks[0, :3] = INT16_EXTREMES[[0, 1, 0]]
        planes.append((blocks.reshape(8, 8, n), rng.integers(0, 256, n).astype(np.uint8) if prefixed else None))
    payload, bits = encode_blocks(planes)
    decoded = decode_planes(payload, layout_of(planes))
    monkeypatch.setattr(bitio, "_INT32_BITS", 8)
    assert bitio._index_dtype(len(payload)) is np.int64
    wide_payload, wide_bits = encode_blocks(planes)
    assert wide_payload == payload
    assert [b.tolist() for b in wide_bits] == [b.tolist() for b in bits]
    for (blocks, prefixes), (want_blocks, want_prefixes) in zip(decode_planes(payload, layout_of(planes)), decoded):
        assert np.array_equal(blocks, want_blocks)
        assert np.array_equal(prefixes, want_prefixes) if want_prefixes is not None else prefixes is None


@st.composite
def aligned_field_payloads(draw):
    """One-plane payloads whose info fields take every width from 1 to 16 at
    every offset mod 8 from the info run's start, and so at all 8 byte
    alignments, however far into its byte the run starts.  End-of-block
    codewords are the width-0 fields.  The last field ends in the payload's
    last byte, so its window reads past the end.  Width-16 fields hold
    int16 values, unless one is drawn to be beyond them."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    widths, at = [], 0
    for width in range(1, 17):
        for offset in range(8):
            while at % 8 != offset:
                filler = int(rng.integers(1, 4))
                widths.append(filler)
                at += filler
            widths.append(width)
            at += width
    widths.append(draw(st.integers(1, 16)))
    # width 16 holds -32767 (info 0) and -32768 (info 2); info 1 would be +32768
    infos = [int(rng.choice([0, 2])) if width == 16 else int(rng.integers(0, 1 << width)) for width in widths]
    if draw(st.booleans()):
        infos[int(rng.choice(np.flatnonzero(np.array(widths) == 16)))] = int(rng.integers(3, 1 << 16))
    w, n_blocks = PayloadWriter(), 0
    while n_blocks == 0 or infos:
        take = int(rng.integers(1, 65))
        for width, info in zip(widths[:take], infos[:take]):
            w.write_ue(((1 << width) | info) - 1)
        del widths[:take], infos[:take]
        w.write_ue(0)
        n_blocks += 1
    for _ in range(draw(st.integers(0, 7))):  # moves the info run's start
        w.write_ue(0)
        n_blocks += 1
    return w.getvalue(), [(n_blocks, None)]


@settings(max_examples=40)
@given(aligned_field_payloads())
def test_decoder_reads_fields_of_every_width_at_every_alignment(case):
    data, layout = case
    got = outcome(decode_planes, data, layout)
    want = outcome(decode_stack, data, layout)
    assert isinstance(got, BitstreamError) == isinstance(want, BitstreamError)
    if not isinstance(got, BitstreamError):
        assert np.array_equal(got[0][0], want[0][0])
