import functools
import math
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmvc import codec
from fmvc.bitio import decode_blocks, encode_blocks
from fmvc.codec import (
    MAX_LEVELS,
    MAX_Q_BASE,
    CodecConfig,
    FrameBitstream,
    QuantSchedule,
    SequenceBitstream,
    decode_frame,
    decode_sequence,
    encode_frame,
    encode_frames,
    encode_sequence,
    midgray_frame,
)
from fmvc.errors import BitstreamError, ConfigError, ContractViolation, FmvcError, UnsupportedVersion
from fmvc.foveation import FoveationMap, LevelMap, gaussian_map, quantize_map
from fmvc.metrics import mean_ssim
from fmvc.video_io import VideoSequence
from bitref import PayloadWriter
from kernelref import planes
from conftest import (
    FRAME_HEAD_BYTES,
    HEADER_BYTES,
    LENGTH_AT,
    N_LEVELS_AT,
    Q_BASE_AT,
    frame_payloads,
    pan_clip,
    random_clip,
    reseal,
)


def uniform_map(value, w, h):
    return FoveationMap(np.full((h, w), float(value)), (w // 2, h // 2))


def level_map_for(value, w, h, sched=None):
    n = (sched or QuantSchedule()).n_levels
    # value just below (level+1)/n quantizes to exactly `value`
    return quantize_map(uniform_map((value + 0.5) / n, w, h), n)


DEFAULT_SCHED = QuantSchedule()


class TestQuantSchedule:
    def test_default_steps(self):
        # frozen: max(1, round(4 * 2**((15-l)/2)))
        assert DEFAULT_SCHED.steps == (724, 512, 362, 256, 181, 128, 91, 64, 45, 32, 23, 16, 11, 8, 6, 4)

    def test_top_step_is_base(self):
        for q in (1, 2, 4, 9):
            assert QuantSchedule(q_base=q).steps[-1] == q

    def test_nonincreasing_and_positive(self):
        for q in (1, 3, 4, 10):
            steps = QuantSchedule(q_base=q).steps
            assert all(a >= b for a, b in zip(steps, steps[1:]))
            assert min(steps) >= 1

    def test_validation(self):
        with pytest.raises(ContractViolation):
            QuantSchedule(q_base=0)
        with pytest.raises(ContractViolation):
            QuantSchedule(n_levels=1)

    def test_base_fits_the_header(self):
        # the header stores the base as a double; above 32640 every
        # coefficient already quantizes to zero
        assert QuantSchedule(q_base=65535).steps[-1] == 65535
        for q_base in (65536, 9007199254740993, 10**20):
            with pytest.raises(ContractViolation):
                QuantSchedule(q_base=q_base)

    def test_levels_beyond_the_prefix_field_rejected(self):
        # a level >= 16 would spill into the 4-bit displacement field
        QuantSchedule(n_levels=16)
        with pytest.raises(ContractViolation):
            QuantSchedule(n_levels=17)
        with pytest.raises(ContractViolation):
            QuantSchedule(n_levels=32)

    def test_level_map_must_match_schedule(self):
        clip = random_clip(16, 16, 1, seed=6)
        lm = level_map_for(13, 16, 16)  # 16 levels
        with pytest.raises(ContractViolation):
            encode_frame(clip.frames[0], midgray_frame(16, 16), lm, QuantSchedule(n_levels=8))


def quantize_at(values, level):
    """Quantize each value alone in the DC slot of its own block, all at one level."""
    blocks = np.zeros((8, 8, len(values)), dtype=np.int64)
    blocks[0, 0] = values
    return codec._quantize_plane_blocks(blocks, np.full(len(values), level), DEFAULT_SCHED)[0, 0]


class TestQuantizer:
    def test_round_half_away(self):
        # the top level's step is 4; 1 is below half a step, so its block is skipped
        assert quantize_at([6, -6, 5, 2, 1, -2], 15).tolist() == [2, -2, 1, 1, 0, -1]
        assert quantize_at([6], 15)[0] * DEFAULT_SCHED.steps[15] == 8  # dequantized

    def test_zero_fixed_point(self):
        for level in range(16):
            assert quantize_at([0], level)[0] == 0

    def test_coarse_levels_zero_more(self, rng):
        blocks = rng.integers(-400, 400, (8, 8, 50))
        fine = codec._quantize_plane_blocks(blocks, np.full(50, 15), DEFAULT_SCHED)
        coarse = codec._quantize_plane_blocks(blocks, np.zeros(50, np.int64), DEFAULT_SCHED)
        assert np.count_nonzero(coarse) <= np.count_nonzero(fine)


class TestEntropyCode:
    def roundtrip(self, block):
        payload, _ = encode_blocks([(block[:, :, None], None)])
        [(blocks, _)] = decode_blocks(payload, [(1, None)])
        return blocks[:, :, 0]

    def test_all_zero_block_is_one_bit(self):
        _, [bits] = encode_blocks([(np.zeros((8, 8, 1), np.int64), None)])
        assert bits.tolist() == [1]  # bare end-of-block marker

    def test_single_dc(self):
        block = np.zeros((8, 8), np.int64)
        block[0, 0] = 1
        _, [bits] = encode_blocks([(block[:, :, None], None)])
        # +1 maps to symbol 1, shifted to stream symbol 2 ("011"), then EOB ("1")
        assert bits.tolist() == [4]
        assert np.array_equal(self.roundtrip(block), block)

    def test_round_trip_random_blocks(self, rng):
        # mixture of sparse and dense blocks, values across the coded range
        n = 100_000
        blocks = np.zeros((n, 64), np.int64)
        blocks[: n // 2] = rng.integers(-5, 6, (n // 2, 64))
        # 0-11 coefficients per sparse block, at random (possibly repeated) positions
        rows = n // 2 + np.repeat(np.arange(n - n // 2), rng.integers(0, 12, n - n // 2))
        blocks[rows, rng.integers(0, 64, len(rows))] = rng.integers(-30_000, 30_000, len(rows))
        blocks = planes(blocks.reshape(n, 8, 8))
        payload, _ = encode_blocks([(blocks, None)])
        [(decoded, _)] = decode_blocks(payload, [(n, None)])
        assert np.array_equal(decoded, blocks)

    def test_decode_rejects_overlong_block(self):
        w = PayloadWriter()
        for _ in range(70):
            w.write_ue(2)
        with pytest.raises(BitstreamError):
            decode_blocks(w.getvalue(), [(1, None)])
        w.write_ue(0)  # now a complete block of 70 coefficients
        with pytest.raises(BitstreamError, match="more than 64"):
            decode_blocks(w.getvalue(), [(1, None)])


class TestFrameCodec:
    def test_lockstep_exact(self, rng):
        clip = random_clip(40, 24, 2, seed=5)
        prev = midgray_frame(40, 24)
        lm = level_map_for(9, 40, 24)
        stream, recon = encode_frame(clip.frames[0], prev, lm, DEFAULT_SCHED)
        assert decode_frame(stream, prev, DEFAULT_SCHED) == recon
        stream2, recon2 = encode_frame(clip.frames[1], recon, lm, DEFAULT_SCHED)
        assert decode_frame(stream2, recon, DEFAULT_SCHED) == recon2

    def test_first_frame_determinism(self):
        clip = random_clip(32, 32, 1, seed=9)
        prev = midgray_frame(32, 32)
        lm = level_map_for(12, 32, 32)
        a, _ = encode_frame(clip.frames[0], prev, lm, DEFAULT_SCHED)
        b, _ = encode_frame(clip.frames[0], prev, lm, DEFAULT_SCHED)
        assert a.payload == b.payload

    def test_static_clip_high_level_quality(self):
        # truly static content: selection ties to zero displacement, the
        # chain converges onto the source within a couple of frames
        clip = random_clip(64, 64, 1, seed=17)
        frame = clip.frames[0]
        lm = level_map_for(15, 64, 64)
        prev = midgray_frame(64, 64)
        for _ in range(3):
            stream, prev = encode_frame(frame, prev, lm, DEFAULT_SCHED)
        assert mean_ssim(frame.y, prev.y) >= 0.99

    def test_pan_clip_quality_and_selection_gain(self):
        clip = pan_clip(64, 64, 5, step=3)
        lm = level_map_for(15, 64, 64)
        prev_sel = prev_zero = midgray_frame(64, 64)
        bits_sel = bits_zero = 0
        for frame in clip.frames:
            s, prev_sel = encode_frame(frame, prev_sel, lm, DEFAULT_SCHED)
            bits_sel += s.total_bits
            z, prev_zero = encode_frame(
                frame, prev_zero, lm, DEFAULT_SCHED, CodecConfig(force_zero_displacement=True)
            )
            bits_zero += z.total_bits
        assert mean_ssim(clip.frames[-1].y, prev_sel.y) >= 0.99
        assert bits_sel < bits_zero

    def test_level_extremes_rate_and_quality(self):
        clip = pan_clip(64, 64, 2, step=3)
        prev = midgray_frame(64, 64)
        hi, lo = level_map_for(15, 64, 64), level_map_for(0, 64, 64)
        s_hi, r_hi = encode_frame(clip.frames[1], prev, hi, DEFAULT_SCHED)
        s_lo, r_lo = encode_frame(clip.frames[1], prev, lo, DEFAULT_SCHED)
        assert s_hi.total_bits > s_lo.total_bits
        assert mean_ssim(clip.frames[1].y, r_hi.y) >= mean_ssim(clip.frames[1].y, r_lo.y)

    def test_rate_monotone_in_levels(self, rng):
        clip = random_clip(48, 32, 1, seed=21)
        prev = midgray_frame(48, 32)
        small = rng.uniform(0.0, 0.5, (32, 48))
        big = np.clip(small + rng.uniform(0.0, 0.5, (32, 48)), 0.0, 1.0)
        lm_small = quantize_map(FoveationMap(small, (0, 0)), 16)
        lm_big = quantize_map(FoveationMap(big, (0, 0)), 16)
        s_small, _ = encode_frame(clip.frames[0], prev, lm_small, DEFAULT_SCHED)
        s_big, _ = encode_frame(clip.frames[0], prev, lm_big, DEFAULT_SCHED)
        assert s_big.total_bits >= s_small.total_bits

    def test_block_bits_account_for_everything(self):
        clip = random_clip(24, 16, 1, seed=2)
        prev = midgray_frame(24, 16)
        stream, _ = encode_frame(clip.frames[0], prev, level_map_for(8, 24, 16), DEFAULT_SCHED)
        assert stream.block_bits.shape == (2, 3)
        assert stream.block_bits.sum() == stream.total_bits
        assert len(stream.payload) == (stream.total_bits + 7) // 8

    def test_truncated_payload_raises(self):
        clip = random_clip(32, 32, 1, seed=4)
        prev = midgray_frame(32, 32)
        stream, _ = encode_frame(clip.frames[0], prev, level_map_for(13, 32, 32), DEFAULT_SCHED)
        with pytest.raises(BitstreamError):
            decode_frame(FrameBitstream(stream.payload[: len(stream.payload) // 2]), prev, DEFAULT_SCHED)

    def test_overlong_codeword_is_bitstream_error(self):
        # a 141-bit codeword decodes to a symbol far beyond any int16 coefficient
        w = PayloadWriter()
        w.write_prefix(0)  # luma prefix: zero displacement, level 0
        w.write_ue(2**70)
        for _ in range(3):
            w.write_ue(0)  # end of the luma, Cb and Cr blocks
        with pytest.raises(BitstreamError, match="byte offset"):
            decode_frame(FrameBitstream(w.getvalue()), midgray_frame(8, 8), DEFAULT_SCHED)

    def test_empty_payload_is_contract_violation(self):
        with pytest.raises(ContractViolation):
            decode_frame(FrameBitstream(b""), midgray_frame(16, 16), DEFAULT_SCHED)

    def test_wrong_reference_detected_by_checksum(self):
        clip = pan_clip(32, 32, 3, step=3)
        prev = midgray_frame(32, 32)
        lm = level_map_for(10, 32, 32)
        s0, r0 = encode_frame(clip.frames[0], prev, lm, DEFAULT_SCHED)
        s1, r1 = encode_frame(clip.frames[1], r0, lm, DEFAULT_SCHED)
        wrong = decode_frame(s1, prev, DEFAULT_SCHED)  # stale reference
        assert wrong != r1

    @given(
        w=st.integers(1, 40),
        h=st.integers(1, 40),
        n_levels=st.integers(2, 16),
        q_base=st.integers(1, 64),
        force_zero=st.booleans(),
        pan=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_lockstep_any_configuration(self, w, h, n_levels, q_base, force_zero, pan, seed):
        # decoding the payload alone rebuilds the encoder's chain, frame by frame
        rng = np.random.default_rng(seed)
        sched = QuantSchedule(n_levels=n_levels, q_base=q_base)
        cfg = CodecConfig(force_zero_displacement=force_zero)
        clip = pan_clip(w, h, 3, step=int(rng.integers(-5, 6)), seed=seed) if pan else random_clip(w, h, 3, seed)
        enc = dec = midgray_frame(w, h)
        for frame in clip.frames:
            lm = LevelMap(rng.integers(0, n_levels, (h, w), dtype=np.uint8), n_levels)
            stream, enc = encode_frame(frame, enc, lm, sched, cfg)
            dec = decode_frame(stream.payload, dec, sched)
            assert dec == enc

    def test_odd_dimensions_lockstep(self):
        clip = random_clip(23, 13, 2, seed=6)
        prev = midgray_frame(23, 13)
        lm = level_map_for(11, 23, 13)
        for frame in clip.frames:
            stream, recon = encode_frame(frame, prev, lm, DEFAULT_SCHED)
            assert decode_frame(stream, prev, DEFAULT_SCHED) == recon
            prev = recon


@functools.cache
def small_stream() -> bytes:
    """A three-frame 32x32 stream of about 4.6 kB."""
    seq = random_clip(32, 32, 3, seed=11)
    return encode_sequence(seq, [gaussian_map((16, 16), 8.0, 32, 32)] * 3, DEFAULT_SCHED)[0].to_bytes()


class TestSequenceCodec:
    def maps_for(self, seq, fmsc_frac=0.25):
        g = (seq.width // 2, seq.height // 2)
        return [gaussian_map(g, seq.height * fmsc_frac, seq.width, seq.height)] * len(seq)

    def one_frame_stream(self):
        seq = random_clip(16, 16, 1, seed=1)
        return encode_sequence(seq, self.maps_for(seq), DEFAULT_SCHED)[0]

    def test_single_frame_round_trip(self):
        seq = random_clip(32, 32, 1, seed=13)
        sbs, recon = encode_sequence(seq, self.maps_for(seq), DEFAULT_SCHED)
        assert decode_sequence(sbs.to_bytes()) == recon

    def test_pan_clip_lockstep_chain(self):
        seq = pan_clip(64, 48, 7, step=3, chroma_noise=True)
        sbs, recon = encode_sequence(seq, self.maps_for(seq), DEFAULT_SCHED)
        decoded = decode_sequence(sbs.to_bytes())
        assert decoded == recon
        assert len(decoded) == 7

    def test_bpp_definition(self):
        seq = random_clip(16, 16, 3, seed=8)
        sbs, _ = encode_sequence(seq, self.maps_for(seq), DEFAULT_SCHED)
        payload_bits = 8 * sum(len(r.bitstream.payload) for r in sbs.frames)
        assert sbs.bpp() == payload_bits / (16 * 16 * 3)

    def test_header_round_trip(self):
        seq = random_clip(20, 12, 2, seed=3)
        sched = QuantSchedule(q_base=7)
        sbs, _ = encode_sequence(
            seq, self.maps_for(seq), sched, fmsc_codes=[4, 4], screen_width_m=0.5, viewing_distance_m=1.25
        )
        parsed = SequenceBitstream.from_bytes(sbs.to_bytes())
        assert parsed == sbs
        assert (parsed.width, parsed.height) == (20, 12)
        assert (parsed.fps_num, parsed.fps_den) == (30, 1)
        assert parsed.q_base == 7
        assert parsed.screen_width_m == 0.5
        assert parsed.frames[0].fmsc_code == 4
        assert parsed.frames[0].gaze_x == 10

    def test_decoder_reads_quantizer_from_stream(self):
        seq = pan_clip(32, 32, 3, step=5)
        sched = QuantSchedule(q_base=9)
        sbs, recon = encode_sequence(seq, self.maps_for(seq), sched)
        assert decode_sequence(sbs.to_bytes()) == recon

    def test_bad_magic_names_offset(self):
        seq = random_clip(16, 16, 1, seed=1)
        sbs, _ = encode_sequence(seq, self.maps_for(seq), DEFAULT_SCHED)
        data = bytearray(sbs.to_bytes())
        data[0] = ord("X")
        with pytest.raises(BitstreamError) as info:
            SequenceBitstream.from_bytes(bytes(data))
        assert info.value.byte_offset == 0

    def test_future_version_rejected(self):
        seq = random_clip(16, 16, 1, seed=1)
        sbs, _ = encode_sequence(seq, self.maps_for(seq), DEFAULT_SCHED)
        data = bytearray(sbs.to_bytes())
        struct.pack_into("<H", data, 4, codec.VERSION + 1)
        with pytest.raises(UnsupportedVersion):
            SequenceBitstream.from_bytes(bytes(data))

    def test_truncation_and_trailing_garbage(self):
        seq = random_clip(16, 16, 2, seed=1)
        sbs, _ = encode_sequence(seq, self.maps_for(seq), DEFAULT_SCHED)
        data = sbs.to_bytes()
        with pytest.raises(BitstreamError):
            SequenceBitstream.from_bytes(data[:-3])
        with pytest.raises(BitstreamError):
            SequenceBitstream.from_bytes(data + b"\x00")

    def test_map_count_must_match(self):
        seq = random_clip(16, 16, 2, seed=1)
        with pytest.raises(ContractViolation):
            encode_sequence(seq, self.maps_for(seq)[:1], DEFAULT_SCHED)

    def test_header_fields_range_checked(self):
        seq = random_clip(16, 16, 2, seed=8)
        sbs, _ = encode_sequence(seq, self.maps_for(seq), DEFAULT_SCHED)
        for field, value in (("fps_num", 120000), ("width", 1 << 16), ("height", -1)):
            with pytest.raises(ConfigError, match=field):
                replace(sbs, **{field: value}).to_bytes()
        rec = replace(sbs.frames[0], fmsc_code=256)
        with pytest.raises(ConfigError, match="fmsc_code"):
            replace(sbs, frames=(rec,) + sbs.frames[1:]).to_bytes()

    @pytest.mark.parametrize("q_base", [math.nan, math.inf, -math.inf, 0.0, 2.5, 65536.0, 2.0**63, 1e300])
    def test_quantizer_base_checked(self, q_base):
        data = bytearray(self.one_frame_stream().to_bytes())
        struct.pack_into("<d", data, Q_BASE_AT, q_base)
        with pytest.raises(BitstreamError, match="quantizer base") as info:
            SequenceBitstream.from_bytes(reseal(data))
        assert info.value.byte_offset == Q_BASE_AT

    @pytest.mark.parametrize("n_levels", [0, 1, 17, 255])
    def test_level_count_checked(self, n_levels):
        data = bytearray(self.one_frame_stream().to_bytes())
        data[N_LEVELS_AT] = n_levels
        with pytest.raises(BitstreamError, match="level count") as info:
            SequenceBitstream.from_bytes(reseal(data))
        assert info.value.byte_offset == N_LEVELS_AT

    def test_unsealed_field_poke_fails_the_crc(self):
        sbs = self.one_frame_stream()
        # a valid base step, a gaze the decoder never checks
        for at, pack, value, crc_at in (
            (Q_BASE_AT, "<d", 5.0, HEADER_BYTES - 4),
            (HEADER_BYTES, "<H", 3, HEADER_BYTES + FRAME_HEAD_BYTES - 4),
        ):
            data = bytearray(sbs.to_bytes())
            struct.pack_into(pack, data, at, value)
            with pytest.raises(BitstreamError, match="CRC-32") as info:
                SequenceBitstream.from_bytes(bytes(data))
            assert info.value.byte_offset == crc_at
            assert SequenceBitstream.from_bytes(reseal(data)) != sbs

    @settings(max_examples=300)
    @given(data=st.data())
    def test_every_flip_of_up_to_three_bits_is_detected(self, data):
        stream = bytearray(small_stream())
        for bit in data.draw(st.lists(st.integers(0, 8 * len(stream) - 1), min_size=1, max_size=3, unique=True)):
            stream[bit // 8] ^= 0x80 >> (bit % 8)
        with pytest.raises(BitstreamError):
            decode_sequence(bytes(stream))

    @given(
        w=st.integers(1, 24),
        h=st.integers(1, 24),
        n_levels=st.integers(2, 16),
        q_base=st.integers(1, 64),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_level_count_round_trips(self, w, h, n_levels, q_base, seed):
        seq = random_clip(w, h, 2, seed)
        sched = QuantSchedule(n_levels=n_levels, q_base=q_base)
        sbs, recon = encode_sequence(seq, self.maps_for(seq), sched)
        data = sbs.to_bytes()
        assert SequenceBitstream.from_bytes(data).n_levels == n_levels
        assert decode_sequence(data) == recon

    def test_payload_shorter_than_geometry_allows(self):
        # 16x16: four luma blocks of at least 9 bits and two chroma planes of
        # one block of at least 1 bit, so at least 5 bytes
        sbs = self.one_frame_stream()

        def with_payload(size):
            rec = replace(sbs.frames[0], bitstream=FrameBitstream(b"\0" * size))
            return replace(sbs, frames=(rec,)).to_bytes()

        SequenceBitstream.from_bytes(with_payload(5))
        for size in (0, 4):
            with pytest.raises(BitstreamError, match="shorter") as info:
                SequenceBitstream.from_bytes(with_payload(size))
            assert info.value.byte_offset == HEADER_BYTES + LENGTH_AT

    def test_huge_geometry_with_short_payload_rejected(self):
        # caught in the container, before a 65535x65535 reference frame exists
        sbs = replace(self.one_frame_stream(), width=65535, height=65535)
        with pytest.raises(BitstreamError, match="shorter"):
            SequenceBitstream.from_bytes(sbs.to_bytes())

    @settings(max_examples=150)
    @given(data=st.data())
    def test_corrupt_headers_raise_only_fmvc_errors(self, data):
        # overwrite 1-4 bytes of the sequence header or of a frame head
        seq = random_clip(16, 16, 2, seed=data.draw(st.integers(0, 3)))
        stream = bytearray(encode_sequence(seq, self.maps_for(seq), DEFAULT_SCHED)[0].to_bytes())
        first_payload = struct.unpack_from("<I", stream, HEADER_BYTES + LENGTH_AT)[0]
        second = HEADER_BYTES + FRAME_HEAD_BYTES + first_payload
        heads = [*range(HEADER_BYTES + FRAME_HEAD_BYTES), *range(second, second + FRAME_HEAD_BYTES)]
        for _ in range(data.draw(st.integers(1, 4))):
            stream[data.draw(st.sampled_from(heads))] = data.draw(st.integers(0, 255))
        try:
            decode_sequence(SequenceBitstream.from_bytes(reseal(stream)))
        except FmvcError:
            pass

    @given(
        q_base=st.one_of(st.integers(-2, MAX_Q_BASE + 2), st.floats(), st.sampled_from([4.0, True])),
        n_levels=st.one_of(st.integers(-2, 258), st.floats(0, 20)),
        gaze=st.tuples(st.integers(0, 65535), st.integers(0, 65535)),
        fmsc_code=st.integers(0, 255),
        geometry=st.tuples(st.floats(allow_nan=False), st.floats(allow_nan=False)),
    )
    def test_every_stream_that_constructs_round_trips(self, q_base, n_levels, gaze, fmsc_code, geometry):
        base = SequenceBitstream.from_bytes(small_stream())
        frames = tuple(replace(rec, gaze_x=gaze[0], gaze_y=gaze[1], fmsc_code=fmsc_code) for rec in base.frames)
        args = (base.width, base.height, base.fps_num, base.fps_den, *geometry, q_base, frames, n_levels)
        in_range = (
            isinstance(q_base, int) and 1 <= q_base <= MAX_Q_BASE
            and isinstance(n_levels, int) and 2 <= n_levels <= MAX_LEVELS
        )
        if not in_range:
            with pytest.raises(ContractViolation):
                SequenceBitstream(*args)
            return
        sbs = SequenceBitstream(*args)
        parsed = SequenceBitstream.from_bytes(sbs.to_bytes())
        assert parsed == sbs
        assert (parsed.q_base, parsed.n_levels) == (q_base, n_levels)


class TestEncodeFrames:
    @given(
        w=st.integers(1, 40),
        h=st.integers(1, 40),
        q_base=st.sampled_from([1, 4, 32, 300]),
        seed=st.integers(0, 1000),
    )
    def test_matches_frame_chain_and_sequence(self, w, h, q_base, seed):
        seq = random_clip(w, h, 3, seed=seed)
        sched = QuantSchedule(q_base=q_base)
        maps = [gaussian_map((w // 3, h // 2), max(1.0, h / (k + 2)), w, h) for k in range(len(seq))]
        taken = []

        def lazy_maps():
            for fmap in maps:
                taken.append(fmap)
                yield fmap

        sbs, recon = encode_sequence(seq, maps, sched, fmsc_codes=[3, 4, 5])
        prev = midgray_frame(w, h)
        frames = encode_frames(seq, lazy_maps(), sched, fmsc_codes=[3, 4, 5])
        for i, (frame, fmap) in enumerate(zip(seq.frames, maps)):
            rec, out = next(frames)
            assert len(taken) == i + 1  # one map is taken per frame coded
            stream, prev = encode_frame(frame, prev, quantize_map(fmap, sched.n_levels), sched)
            assert rec.bitstream.payload == stream.payload == sbs.frames[i].bitstream.payload
            assert np.array_equal(rec.bitstream.block_bits, stream.block_bits)
            assert np.array_equal(rec.bitstream.block_bits, sbs.frames[i].bitstream.block_bits)
            assert rec == sbs.frames[i] and rec.fmsc_code == 3 + i
            assert out == prev == recon.frames[i]
        assert next(frames, None) is None

    def test_a_repeated_map_object_is_quantized_once(self, monkeypatch):
        seq = random_clip(24, 16, 4, seed=3)
        fmap = gaussian_map((12, 8), 6.0, 24, 16)
        same = [fmap] * 4
        equal = [gaussian_map((12, 8), 6.0, 24, 16) for _ in range(4)]  # equal values, distinct objects
        calls = []
        monkeypatch.setattr(codec, "quantize_map", lambda *a: calls.append(a[0]) or quantize_map(*a))
        reused = encode_sequence(seq, same, DEFAULT_SCHED)[0].to_bytes()
        assert calls == [fmap]
        assert encode_sequence(seq, equal, DEFAULT_SCHED)[0].to_bytes() == reused
        assert calls[1:] == equal
        alternating = [fmap, equal[0], fmap, fmap]
        assert encode_sequence(seq, alternating, DEFAULT_SCHED)[0].to_bytes() == reused
        assert calls[5:] == [fmap, equal[0], fmap]

    def test_mismatched_map_count_rejected(self):
        seq = random_clip(16, 16, 2, seed=1)
        for n_maps in (1, 3):  # maps that run out, maps that outlast the frames
            maps = [gaussian_map((8, 8), 4.0, 16, 16)] * n_maps
            with pytest.raises(ContractViolation, match="maps supplied"):
                list(encode_frames(seq, iter(maps), DEFAULT_SCHED))

    @pytest.mark.parametrize(
        "bad, error",
        [("fps_num", ConfigError), ("map_size", ContractViolation), ("fmsc_codes", ContractViolation)],
    )
    def test_every_check_runs_before_the_first_frame(self, monkeypatch, bad, error):
        seq = random_clip(16, 16, 2, seed=1)
        codes = None
        maps = [gaussian_map((8, 8), 4.0, 16, 16)] * 2
        if bad == "fps_num":
            seq = VideoSequence(seq.frames, 120000, 1001)
        elif bad == "map_size":
            maps = [gaussian_map((8, 8), 4.0, 16, 17)] * 2
        else:
            codes = [0]
        calls = []
        original = codec.encode_frame
        monkeypatch.setattr(codec, "encode_frame", lambda *a, **k: calls.append(1) or original(*a, **k))
        frames = encode_frames(seq, iter(maps), DEFAULT_SCHED, fmsc_codes=codes)
        with pytest.raises(error):
            next(frames)
        assert calls == []


class TestDecodeAnyBytes:
    @settings(max_examples=200)
    @given(frame_payloads())
    def test_decode_frame_raises_only_fmvc_errors(self, case):
        w, h, payload = case
        try:
            frame = decode_frame(FrameBitstream(payload), midgray_frame(w, h), DEFAULT_SCHED)
        except BitstreamError as exc:
            assert exc.byte_offset is not None and 0 <= exc.byte_offset < len(payload)
        except FmvcError:
            pass
        else:
            assert (frame.y.width, frame.y.height) == (w, h)

    def encoded(self):
        clip = random_clip(24, 16, 1, seed=3)
        for level in range(16):
            stream, recon = encode_frame(
                clip.frames[0], midgray_frame(24, 16), level_map_for(level, 24, 16), DEFAULT_SCHED
            )
            if stream.total_bits % 8:
                return stream, recon
        raise AssertionError("every level filled whole bytes")

    def test_trailing_bytes_rejected(self):
        stream, recon = self.encoded()
        prev = midgray_frame(24, 16)
        assert decode_frame(stream, prev, DEFAULT_SCHED) == recon
        for tail in (b"\xff\xff", b"\x00"):
            with pytest.raises(BitstreamError, match="zero padding") as info:
                decode_frame(stream.payload + tail, prev, DEFAULT_SCHED)
            assert info.value.byte_offset == len(stream.payload) - 1

    def test_nonzero_pad_bit_rejected(self):
        stream, _ = self.encoded()
        payload = stream.payload[:-1] + bytes([stream.payload[-1] | 1])  # last bit is padding
        with pytest.raises(BitstreamError, match="zero padding") as info:
            decode_frame(payload, midgray_frame(24, 16), DEFAULT_SCHED)
        assert info.value.byte_offset == len(payload) - 1
