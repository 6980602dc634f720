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
ALL_PREFIXES = np.ones(256, bool)


def split(blocks, prefixes):
    """The one block array as bitref's plane list: the m prefixed blocks, then the rest."""
    m = len(prefixes)
    return [(blocks[..., :m], prefixes), (blocks[..., m:], None)]


def decode_reference(data, n, m, allowed):
    """decode_stack on the split, joined back into the (blocks, prefixes) that decode_blocks returns first."""
    (head, prefixes), (rest, _) = decode_stack(data, [(m, allowed), (n - m, None)])
    return np.concatenate([head, rest], axis=2), prefixes


@st.composite
def coded_blocks(draw, max_blocks=300):
    """n random blocks laid out (8, 8, n), n in 0-300, and 8-bit prefixes
    for the first m, m anywhere in 0..n.  Coefficients mix zero runs, small
    values, the whole int16 range and its two extremes."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(0, max_blocks))
    m = draw(st.integers(0, n))
    blocks = np.zeros((n, 64), np.int64)
    density = np.array(draw(st.lists(st.sampled_from([0.0, 0.05, 0.3, 1.0]), min_size=1, max_size=3)))
    nonzero = rng.random((n, 64)) < density[rng.integers(0, len(density), (n, 1))]
    kind = rng.integers(0, 3, (n, 64))
    small = rng.integers(-5, 6, (n, 64))
    wide = rng.integers(-(1 << 15), 1 << 15, (n, 64))
    extreme = INT16_EXTREMES[rng.integers(0, 2, (n, 64))]
    blocks[nonzero] = np.choose(kind, [small, wide, extreme])[nonzero]
    return as_planes(blocks.reshape(n, 8, 8)), rng.integers(0, 256, m).astype(np.uint8)


@given(coded_blocks())
def test_array_encoder_matches_reference(case):
    blocks, prefixes = case
    payload, bits = encode_blocks(blocks, prefixes, blocks.any(axis=(0, 1)))
    ref_payload, ref_bits = encode_stack(split(blocks, prefixes))
    assert payload == ref_payload
    assert bits.shape == (blocks.shape[2],)
    assert bits.tolist() == np.concatenate(ref_bits).tolist()


@given(coded_blocks())
def test_array_decoder_inverts_encoder(case):
    blocks, prefixes = case
    payload, _ = encode_blocks(blocks, prefixes, blocks.any(axis=(0, 1)))
    decoded, decoded_prefixes, coded = decode_blocks(payload, blocks.shape[2], len(prefixes), ALL_PREFIXES)
    assert decoded.shape == blocks.shape and np.array_equal(decoded, blocks)
    assert np.array_equal(decoded_prefixes, prefixes)
    assert np.array_equal(coded, blocks.any(axis=(0, 1)))  # the encoder codes no explicit zero block


@given(coded_blocks(), st.integers(0, 2**32 - 1))
def test_every_superset_of_the_nonzero_blocks_codes_alike(case, seed):
    """The coded set holds every nonzero block and maybe others: the exact set, every
    block and random supersets give the same payload and the same bit counts."""
    blocks, prefixes = case
    exact = blocks.any(axis=(0, 1))
    payload, bits = encode_blocks(blocks, prefixes, exact)
    rng = np.random.default_rng(seed)
    for coded in (np.ones_like(exact), exact | (rng.random(exact.shape) < 0.5), exact | (rng.random(exact.shape) < 0.05)):
        superset_payload, superset_bits = encode_blocks(blocks, prefixes, coded)
        assert superset_payload == payload
        assert superset_bits.tolist() == bits.tolist()


def outcome(decode, data, n, m, allowed):
    try:
        return decode(data, n, m, allowed)
    except BitstreamError as exc:
        return exc


@st.composite
def corrupt_cases(draw):
    """Up to 6 blocks with a random prefix table, and payloads that are
    random bytes, random bits with long zero or one runs, a valid payload
    with bits flipped, bytes cut off or bytes appended, or a valid payload
    followed by padding that is not zero."""
    blocks, prefixes = draw(coded_blocks(max_blocks=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    allowed = rng.random(256) < draw(st.sampled_from([1.0, 0.9, 0.5]))
    args = (blocks.shape[2], len(prefixes), allowed)  # decode_blocks' n, m and table
    kind = draw(st.sampled_from(["bytes", "runs", "mutated", "padded"]))
    if kind == "bytes":
        return draw(st.binary(max_size=40)), *args
    if kind == "runs":
        ones = rng.random(8 * draw(st.integers(0, 60))) < draw(st.sampled_from([0.03, 0.2, 0.8]))
        return np.packbits(ones).tobytes(), *args
    if kind == "padded":
        tail = draw(st.sampled_from([b"\x01", b"\x80", b"\x00\x01"]))
        return encode_blocks(blocks, prefixes, blocks.any(axis=(0, 1)))[0] + tail, blocks.shape[2], len(prefixes), ALL_PREFIXES
    data = bytearray(encode_blocks(blocks, prefixes, blocks.any(axis=(0, 1)))[0])
    for bit in draw(st.lists(st.integers(0, max(8 * len(data) - 1, 0)), max_size=3)) if data else []:
        data[bit // 8] ^= 0x80 >> (bit % 8)
    cut = draw(st.integers(0, len(data)))
    return bytes(data[:cut]) + draw(st.binary(max_size=3)), *args


# What each rejection is about, as words both decoders' messages hold.
REJECTION_KINDS = ("ends inside a block", "not allowed", "more than 64", "not zero padding", "int16")


def rejection_kind(exc: BitstreamError) -> str:
    (kind,) = [kind for kind in REJECTION_KINDS if kind in str(exc)]
    return kind


def assert_decoded_as_reference(case):
    """decode_blocks and the reference reject case for the same fault at the same
    byte, or decode it to the same blocks and prefixes."""
    got = outcome(decode_blocks, *case)
    want = outcome(decode_reference, *case)
    assert type(got) is type(want)
    if isinstance(got, BitstreamError):
        assert rejection_kind(got) == rejection_kind(want)
        assert got.byte_offset == want.byte_offset
        assert 0 <= got.byte_offset < max(len(case[0]), 1)
    else:
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert not (got[0].any(axis=(0, 1)) & ~got[2]).any()  # the coded set holds every nonzero block


@settings(max_examples=300)
@given(corrupt_cases())
def test_array_decoder_rejects_exactly_when_reference_does(case):
    assert_decoded_as_reference(case)


def test_encoder_rejects_coefficients_beyond_int16():
    block = np.zeros((8, 8, 1), np.int64)
    block[0, 0, 0] = 1 << 15
    with pytest.raises(ContractViolation):
        encode_blocks(block, [], block.any(axis=(0, 1)))


def test_encoder_takes_at_most_one_prefix_per_block():
    with pytest.raises(ContractViolation):
        encode_blocks(np.zeros((8, 8, 2), np.int64), np.zeros(3, np.uint8), np.zeros(2, bool))
    with pytest.raises(ContractViolation):
        encode_blocks(np.zeros((8, 8, 2), np.int64), np.array([256]), np.zeros(2, bool))


@pytest.mark.parametrize("prefixes", [np.array([1.7, 200.9]), np.array([True, False]), np.array(["1", "2"])])
def test_encoder_takes_only_integer_prefixes(prefixes):
    # a float prefix used to be truncated into the stream, and a bool one taken as 0 or 1
    with pytest.raises(ContractViolation):
        encode_blocks(np.zeros((8, 8, 2), np.int64), prefixes, np.zeros(2, bool))
    # no prefixes at all need no integer dtype
    assert encode_blocks(np.zeros((8, 8, 2), np.int64), np.array([]), np.zeros(2, bool))[1].tolist() == [1, 1]


@pytest.mark.parametrize(
    "coded",
    [np.array([False, True]), np.array([False, True, False, False]), np.array([0, 1, 0]),
     np.array([[False, True, False]])],
    ids=["too-short", "too-long", "integer-dtype", "2-D"],
)
def test_encoder_takes_one_boolean_flag_per_block(coded):
    # three blocks, block 1 nonzero: a short mask used to code the missing block as empty, a long one
    # to raise IndexError, and integers (say the index list [1]) to be read as truthiness
    blocks = np.zeros((8, 8, 3), np.int64)
    blocks[0, 0, 1] = 5
    with pytest.raises(ContractViolation, match=r"boolean mask of shape \(3,\)"):
        encode_blocks(blocks, [], coded)


def test_decoder_rejects_trailing_bits():
    block = np.zeros((8, 8, 1), np.int64)
    block[0, 0, 0] = 3  # symbol 5 + 1, codeword 00111, then end of block: 6 bits, 2 pad bits
    payload, bits = encode_blocks(block, [], block.any(axis=(0, 1)))
    assert bits.tolist() == [6] and payload == bytes([0b00111100])
    assert np.array_equal(decode_blocks(payload, 1, 0, ALL_PREFIXES)[0], block)
    with pytest.raises(BitstreamError, match="zero padding") as info:
        decode_blocks(bytes([0b00111101]), 1, 0, ALL_PREFIXES)  # a set pad bit
    assert info.value.byte_offset == 0
    with pytest.raises(BitstreamError, match="zero padding") as info:
        decode_blocks(payload + b"\x00", 1, 0, ALL_PREFIXES)  # a whole byte more
    assert info.value.byte_offset == 0


def test_payload_runs_are_prefixes_then_zeros_then_info_bits():
    blocks = np.zeros((8, 8, 3), np.int64)
    blocks[0, 0, 0] = 1  # symbol 1 + 1: codeword 011, zeros and '1' 01, info 1
    blocks[0, 0, 2] = -1  # symbol 2 + 1: codeword 00100, zeros and '1' 001, info 00
    payload, bits = encode_blocks(blocks, np.array([0xA5, 0x3C], np.uint8), blocks.any(axis=(0, 1)))
    # prefixes A5 3C; then 01 1 | 1 | 001 1 (the end-of-block codewords are '1'); then 1 | 00; then padding
    assert payload == bytes([0xA5, 0x3C, 0b01110011, 0b10000000])
    assert bits.tolist() == [12, 9, 6]


def test_decoder_bounds_codewords_by_the_int16_range():
    # +32768 is ue 65536, one codeword short of -32768's: it must not decode as a second -32768
    bounds = ((-(1 << 15), True), ((1 << 15) - 1, True), (-(1 << 15) - 1, False), (1 << 15, False), (1 << 16, False))
    for value, accepted in bounds:
        w = PayloadWriter()
        w.write_ue(signed_to_symbol(value) + 1)
        w.write_ue(0)
        for decode in (decode_blocks, decode_reference):
            if accepted:
                blocks = decode(w.getvalue(), 1, 0, ALL_PREFIXES)[0]
                assert blocks[0, 0, 0] == value
            else:
                with pytest.raises(BitstreamError, match="int16") as info:
                    decode(w.getvalue(), 1, 0, ALL_PREFIXES)
                assert 0 <= info.value.byte_offset < len(w.getvalue())
    w = PayloadWriter()
    w.write_ue(2**70)  # a 141-bit codeword
    w.write_ue(0)
    with pytest.raises(BitstreamError, match="int16") as info:
        decode_blocks(w.getvalue(), 1, 0, ALL_PREFIXES)
    assert info.value.byte_offset == 0


def test_decoder_checks_prefixes_against_the_table():
    payload, _ = encode_blocks(np.zeros((8, 8, 3), np.int64), np.array([7, 9], np.uint8), np.zeros(3, bool))
    allowed = np.ones(256, bool)
    assert decode_blocks(payload, 3, 2, allowed)[1].tolist() == [7, 9]
    allowed[9] = False
    with pytest.raises(BitstreamError, match="0x09") as info:
        decode_blocks(payload, 3, 2, allowed)
    assert info.value.byte_offset == 1  # the second prefix byte


PREFIX_TABLE = (np.arange(256) >> 4 < 13) & (np.arange(256) & 0x0F < 8)


def corrupt_payloads():
    """About 500 (payload, luma blocks, chroma blocks per plane) cases from
    a seeded rng: bit flips, cuts and appended bytes of a CIF-sized
    high-rate payload and of small ones, plus random bytes.  The luma blocks
    carry prefixes from PREFIX_TABLE."""
    rng = np.random.default_rng(0xB17)
    prefix_values = np.flatnonzero(PREFIX_TABLE)

    def plane(n, scale):
        # Laplacian coefficients whose spread falls along the zigzag scan
        spread = scale * np.exp(-np.arange(64) / 12)[:, None]
        blocks = np.clip(np.round(rng.laplace(0.0, spread, (64, n))), -(1 << 15), (1 << 15) - 1).astype(np.int64)
        blocks[:, rng.random(n) < 0.2] = 0
        return blocks.reshape(8, 8, n)

    def payload(n_luma, n_chroma, scale):
        luma = plane(n_luma, scale)
        prefixes = rng.choice(prefix_values, n_luma).astype(np.uint8)
        blocks = np.concatenate([luma, plane(n_chroma, scale), plane(n_chroma, scale)], axis=2)
        return encode_blocks(blocks, prefixes, blocks.any(axis=(0, 1)))[0], n_luma, n_chroma

    sources = [payload(1584, 396, 12.0)] + [
        payload(int(rng.integers(0, 5)), int(rng.integers(0, 3)), scale) for scale in [3.0, 3e5] * 20
    ]
    cases = []
    for i in range(500):
        data, *counts = sources[0] if i % 4 == 0 else sources[int(rng.integers(1, len(sources)))]
        kind = i % 5
        if kind == 4:
            cases.append((rng.bytes(int(rng.integers(0, 64))), *counts))
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
        cases.append((bytes(data), *counts))
    return cases


# SHA-256 over every outcome of corrupt_payloads(): each error's message and
# byte offset, or each plane's decoded blocks and the luma prefixes.
REJECTION_DIGEST = "5cb29401b7665d69d854978b1df8fa793726bc8bcea29c4ae9dc9ac56fcfbcb3"


@pytest.mark.parametrize("int32_bits", [bitio._INT32_BITS, 8], ids=["int32", "int64"])
def test_decoder_outcomes_on_corrupt_payloads_are_pinned(int32_bits, monkeypatch):
    # the int64 case lowers the bit count up to which positions are int32
    monkeypatch.setattr(bitio, "_INT32_BITS", int32_bits)
    digest = hashlib.sha256()
    for data, n_luma, n_chroma in corrupt_payloads():
        try:
            blocks, prefixes, _ = decode_blocks(data, n_luma + 2 * n_chroma, n_luma, PREFIX_TABLE)
        except BitstreamError as exc:
            digest.update(f"{type(exc).__name__}: {exc} at {exc.byte_offset}\n".encode())
            continue
        digest.update(b"blocks\n")
        cb = n_luma + n_chroma
        for plane, tail in zip((blocks[..., :n_luma], blocks[..., n_luma:cb], blocks[..., cb:]), (prefixes, b"-", b"-")):
            digest.update(plane.astype("<i2").tobytes())
            digest.update(bytes(tail))
    assert digest.hexdigest() == REJECTION_DIGEST


def test_position_width_follows_the_bit_count():
    assert bitio._index_dtype(0) is np.int32
    assert bitio._index_dtype((1 << 31) - 1) is np.int32
    assert bitio._index_dtype(1 << 31) is np.int64
    assert bitio._index_dtype(8 * ((1 << 32) - 1)) is np.int64  # a frame payload's largest bit count


def test_int64_positions_code_exactly_as_int32(rng, monkeypatch):
    blocks = np.round(rng.laplace(0.0, 20.0 * np.exp(-np.arange(64) / 12)[:, None], (64, 450))).astype(np.int64)
    blocks[:, rng.random(450) < 0.3] = 0
    blocks[0, :3] = INT16_EXTREMES[[0, 1, 0]]
    blocks = blocks.reshape(8, 8, 450)
    prefixes = rng.integers(0, 256, 300).astype(np.uint8)
    payload, bits = encode_blocks(blocks, prefixes, blocks.any(axis=(0, 1)))
    decoded = decode_blocks(payload, 450, 300, ALL_PREFIXES)
    monkeypatch.setattr(bitio, "_INT32_BITS", 8)
    assert bitio._index_dtype(len(payload)) is np.int64
    wide_payload, wide_bits = encode_blocks(blocks, prefixes, blocks.any(axis=(0, 1)))
    assert wide_payload == payload
    assert wide_bits.tolist() == bits.tolist()
    wide_decoded = decode_blocks(payload, 450, 300, ALL_PREFIXES)
    assert np.array_equal(wide_decoded[0], decoded[0]) and np.array_equal(wide_decoded[0], blocks)
    assert np.array_equal(wide_decoded[1], decoded[1]) and np.array_equal(wide_decoded[1], prefixes)


@st.composite
def aligned_field_payloads(draw):
    """Payloads whose info fields take every width from 1 to 16 at
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
    return w.getvalue(), n_blocks, 0, ALL_PREFIXES


@settings(max_examples=40)
@given(aligned_field_payloads())
def test_decoder_reads_fields_of_every_width_at_every_alignment(case):
    assert_decoded_as_reference(case)
