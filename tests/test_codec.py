import bisect
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
from fmvc.displacement import CATALOGUE, DisplacementField
from fmvc.foveation import FoveationMap, LevelMap, gaussian_map, quantize_map
from fmvc.metrics import mean_ssim
from fmvc.video_io import Frame, VideoSequence
from bitref import PayloadWriter, decode_stack
import kernelref
from kernelref import from_tiles, planes
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
        # the top level's step is 4; 1 is below half a step, so it quantizes to zero
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


# Every step of these schedules is covered by the all-zero pre-test's tests.
PRETEST_SCHEDULES = [QuantSchedule(n, q) for n in (2, 16) for q in (1, 4, 32, MAX_Q_BASE)]


def _adversarial_blocks(steps) -> np.ndarray:
    """Residual blocks (8, 8, n) in +-255 at the edges of the pre-test's bounds.

    Zero, constant +-255, one +-255 impulse at each of the 64 positions,
    checkerboards of both phases, and, for each step, blocks whose SAD sits
    at the SAD stage's bound or whose DC sits at half a step, spread evenly,
    packed into whole 255s, or with alternating signs.
    """
    signs = np.where(np.indices((8, 8)).sum(0) % 2, -1, 1)
    impulses = np.eye(64, dtype=np.int64).reshape(8, 8, 64) * 255
    out = [np.zeros((8, 8, 1), np.int64), np.stack([np.full((8, 8), 255), np.full((8, 8), -255)], -1)]
    out += [impulses, -impulses, np.stack([255 * signs, -255 * signs], -1)]
    for step in steps:
        first_kept = (step - codec._SAD_MARGIN + 1) // 2  # smallest SAD the SAD stage keeps
        for sad in {first_kept - 1, first_kept, step // 2 - 1, step // 2, (step + 1) // 2}:
            if not 0 < sad <= 64 * 255:
                continue
            even = (np.arange(64) < sad % 64) + sad // 64
            packed = np.clip(sad - 255 * np.arange(64), 0, 255)
            out.append(np.stack([even.reshape(8, 8), packed.reshape(8, 8), signs * even.reshape(8, 8)], -1))
    return np.concatenate(out, axis=-1)


def _quantized_residual_of(residual, levels_grid, sched):
    """codec._quantized_frame on one plane pair whose difference is residual (8, 8, nby, nbx)."""
    shape = (8 * residual.shape[2], 8 * residual.shape[3])
    cur, pred = (from_tiles(np.maximum(r, 0).astype(np.uint8), shape) for r in (residual, -residual))
    return codec._quantized_frame([cur], [pred], levels_grid.reshape(-1), sched).reshape(residual.shape)


def _check_against_unskipped_path(blocks, sched):
    """Code residual blocks (8, 8, n) at every level of sched; the pre-test
    may skip only blocks that quantize to zero through the full integer path.

    As many zero blocks again sit at level 0, whose step is the largest:
    where that step exceeds the matmul's floor, the SAD stage clears half of
    the frame, so the matmul stage runs on the rest.
    """
    residual = np.broadcast_to(blocks[:, :, None], (8, 8, sched.n_levels, blocks.shape[2]))
    residual = np.concatenate([residual, np.zeros_like(residual)], axis=2)
    levels = np.concatenate([np.arange(sched.n_levels), np.zeros(sched.n_levels, int)])
    levels_grid = np.broadcast_to(levels[:, None], residual.shape[2:])
    got = _quantized_residual_of(residual, levels_grid, sched)
    full = codec._quantize_plane_blocks(kernelref.forward_blocks(residual), levels_grid, sched)
    assert got.dtype == np.int16
    assert np.array_equal(got, full)


class TestAllZeroPretest:
    @pytest.mark.parametrize("sched", PRETEST_SCHEDULES, ids=lambda s: f"n{s.n_levels}-q{s.q_base}")
    def test_adversarial_blocks_match_the_unskipped_path(self, sched):
        _check_against_unskipped_path(_adversarial_blocks(sched.steps), sched)

    @pytest.mark.parametrize("sched", PRETEST_SCHEDULES, ids=lambda s: f"n{s.n_levels}-q{s.q_base}")
    @settings(max_examples=25)
    @given(seed=st.integers(0, 2**32 - 1), amplitude=st.integers(1, 255), sparse=st.booleans())
    def test_random_blocks_match_the_unskipped_path(self, sched, seed, amplitude, sparse):
        rng = np.random.default_rng(seed)
        blocks = rng.integers(-amplitude, amplitude + 1, (8, 8, 32))
        if sparse:
            blocks *= rng.random((8, 8, 32)) < 0.1
        blocks[:, :, 0] = 0  # a cleared block, so that the matmul stage runs
        _check_against_unskipped_path(blocks, sched)

    def test_both_stages_clear_blocks(self):
        # at q_base 32 the SAD stage clears small residuals and the matmul
        # clears some it keeps; every cleared block is zero through the full path
        sched = QuantSchedule(q_base=32)
        rng = np.random.default_rng(3)
        residual = rng.integers(-6, 7, (8, 8, 16, 40))
        levels_grid = np.broadcast_to(np.arange(16)[:, None], (16, 40))
        steps = sched.steps_array()[levels_grid].reshape(-1)
        blocks = residual.reshape(64, -1)
        sad_kept = np.abs(blocks).sum(axis=0) * 2 + codec._SAD_MARGIN >= steps
        kept = codec._may_be_nonzero(blocks, steps)
        full = codec._quantize_plane_blocks(kernelref.forward_blocks(residual), levels_grid, sched)
        assert not (kept & ~sad_kept).any()
        assert (~sad_kept).any()
        assert (sad_kept & ~kept).any()
        assert not full.reshape(64, -1)[:, ~kept].any()

    def test_matmul_stage_keeps_blocks_past_a_quarter_envelope(self):
        # the matmul stage's whole envelope is needed: random +-255 blocks
        # whose true coefficients sit more than a quarter envelope off T x,
        # each at a step that keeps one of them nonzero but that |T x| plus
        # a quarter envelope (and the float32 error bound) would clear
        blocks = np.random.default_rng(1).integers(-255, 256, (64, 4096))
        coeffs = kernelref.forward_blocks(blocks.reshape(8, 8, -1)).reshape(64, -1)
        linear = np.abs(codec.FORWARD_MATRIX @ blocks) + codec._ENVELOPE / 4
        steps = np.floor(2 * (linear.max(axis=0) + np.abs(blocks).sum(axis=0) * 2.0**-16) + 0.01).astype(int) + 1
        picked = 2 * np.abs(coeffs).max(axis=0) >= steps
        assert picked.sum() >= 50 and (steps[picked] > codec._MATMUL_STEP).all()
        k = int(picked.sum())
        # three zero blocks per picked one: the SAD stage clears them, so the frame is not busy
        padded = np.concatenate([blocks[:, picked], np.zeros((64, 3 * k), int)], axis=1)
        live = codec._may_be_nonzero(padded, np.tile(steps[picked], 4))
        assert live[:k].all() and not live[k:].any()

    def _lockstep_blocks_transformed(self, monkeypatch, clip, sched, level_map):
        """Code clip frame by frame; return the block count of each forward_blocks call.

        Each frame decodes to the encoder's reconstruction, and the payloads
        and reconstructions equal those of the unskipped path, where every
        block is transformed and quantized.
        """
        seen = []
        forward = codec.forward_blocks
        monkeypatch.setattr(codec, "forward_blocks", lambda blocks: seen.append(blocks[0, 0].size) or forward(blocks))
        enc = dec = midgray_frame(clip.width, clip.height)
        coded = []
        for frame in clip.frames:
            stream, enc = encode_frame(frame, enc, level_map, sched)
            dec = decode_frame(stream.payload, dec, sched)
            assert dec == enc
            coded.append((stream.payload, enc))
        counts = seen.copy()
        monkeypatch.setattr(codec, "_may_be_nonzero", lambda blocks, steps: np.ones(steps.shape, bool))
        prev = midgray_frame(clip.width, clip.height)
        for frame, (payload, recon) in zip(clip.frames, coded):
            stream, prev = encode_frame(frame, prev, level_map, sched)
            assert stream.payload == payload
            assert prev == recon
        return counts

    @pytest.mark.parametrize("flat", [True, False])
    def test_every_block_cleared(self, monkeypatch, flat):
        # no residual of 8-bit planes survives the coarsest base step
        w, h = 37, 29
        clip = VideoSequence((Frame.gray(w, h, 200),) * 3, 30, 1) if flat else random_clip(w, h, 3, seed=8)
        sched = QuantSchedule(q_base=MAX_Q_BASE)
        level_map = LevelMap(np.random.default_rng(1).integers(0, 16, (h, w), dtype=np.uint8), 16)
        assert not any(self._lockstep_blocks_transformed(monkeypatch, clip, sched, level_map))

    def test_no_block_cleared(self, monkeypatch):
        # every step is 1, so neither stage can clear a block
        w, h = 37, 29
        sched = QuantSchedule(n_levels=2, q_base=1)
        level_map = LevelMap(np.random.default_rng(1).integers(0, 2, (h, w), dtype=np.uint8), 2)
        counts = self._lockstep_blocks_transformed(monkeypatch, random_clip(w, h, 3, seed=8), sched, level_map)
        n_luma, n_chroma = codec._block_counts(w, h)
        assert counts == [n_luma + 2 * n_chroma] * 3  # one call per frame, over its three planes


def _reconstruction_oracle(payload, prev, sched):
    """prev's planes as kernelref predicts them, plus the inverse transform of
    the payload's dequantized coefficients, clipped: each decoded plane."""
    grid = codec.grid_shape((prev.y.height, prev.y.width))
    n_luma, n_chroma = codec._block_counts(prev.y.width, prev.y.height)
    (q_y, prefixes), (q_cb, _), (q_cr, _) = decode_stack(
        payload, [(n_luma, codec._prefix_table(sched)), (n_chroma, None), (n_chroma, None)]
    )
    luma_field = (prefixes >> 4).reshape(grid).astype(np.int8)
    levels = (prefixes & 0x0F).reshape(grid)
    out = []
    for q, ref, halve in zip((q_y, q_cb, q_cr), (prev.y, prev.cb, prev.cr), (False, True, True)):
        pick = np.s_[::2, ::2] if halve else np.s_[:, :]
        pred = kernelref.predicted_plane(ref.samples, DisplacementField(luma_field[pick]), halve_offsets=halve)
        coeffs = q.reshape(8, 8, *levels[pick].shape) * sched.steps_array()[levels[pick]]
        residual = from_tiles(kernelref.inverse_blocks(coeffs), pred.shape)
        out.append(np.clip(residual + pred, 0, 255).astype(np.uint8))
    return out


class TestReconstructPaths:
    """_reconstruct takes a frame's blocks whole, or gathers its coded
    blocks, or finds none; each way, the encoder's reconstruction, the
    decoder's output and the oracle agree."""

    def _lockstep(self, monkeypatch, clip, sched, level_map):
        """Code clip frame by frame against the oracle; return, per frame,
        how its one inverse_blocks call was fed on each side: "whole",
        "some" blocks or "none"."""
        seen = []
        inverse = codec.inverse_blocks
        n_luma, n_chroma = codec._block_counts(clip.width, clip.height)

        def spy(coeffs):
            n = coeffs.shape[2]
            seen.append("whole" if n == n_luma + 2 * n_chroma else "some" if n else "none")
            return inverse(coeffs)

        monkeypatch.setattr(codec, "inverse_blocks", spy)
        enc = dec = midgray_frame(clip.width, clip.height)
        paths = []
        for frame in clip.frames:
            seen.clear()
            stream, recon = encode_frame(frame, enc, level_map, sched)
            dec = decode_frame(stream.payload, dec, sched)
            assert dec == recon
            want = _reconstruction_oracle(stream.payload, enc, sched)
            assert all(np.array_equal(p.samples, o) for p, o in zip((recon.y, recon.cb, recon.cr), want))
            assert len(seen) == 2 and seen[0] == seen[1]  # the encoder's call, then the decoder's
            paths.append(seen[0])
            enc = recon
        return paths

    @pytest.mark.parametrize(
        "w, h, coding",
        [(37, 29, "all"), (37, 29, "none"), (37, 29, "mixed"), (9, 17, "all"), (9, 17, "none"),
         (9, 17, "mixed"), (1, 1, "all"), (1, 1, "none")],
    )  # a 1x1 frame has one block per plane
    def test_each_path_matches_the_oracle(self, monkeypatch, w, h, coding):
        clip = random_clip(w, h, 3, seed=8)
        rng = np.random.default_rng(1)
        if coding == "all":  # every step is 1: noise leaves no block all zero
            sched = QuantSchedule(n_levels=2, q_base=1)
            level_map = LevelMap(rng.integers(0, 2, (h, w), dtype=np.uint8), 2)
        elif coding == "none":
            sched = QuantSchedule(q_base=MAX_Q_BASE)
            level_map = LevelMap(rng.integers(0, 16, (h, w), dtype=np.uint8), 16)
        else:  # fine steps near the gaze, none of the periphery coded
            sched = QuantSchedule(q_base=64)
            level_map = quantize_map(gaussian_map((w // 4, h // 4), 3.0, w, h), sched.n_levels)
        paths = self._lockstep(monkeypatch, clip, sched, level_map)
        if coding == "mixed":
            assert "some" in paths
        else:
            assert paths == [{"all": "whole", "none": "none"}[coding]] * len(clip.frames)


def _lane_boundary(n_levels):
    """The smallest base step whose schedule holds a step of 2**16 or more."""
    bases = range(1, MAX_Q_BASE + 1)
    i = bisect.bisect_left(bases, True, key=lambda q: max(QuantSchedule(n_levels, q).steps) >= 1 << 16)
    return bases[i]


def _hand_built_payload(rng, w, h, sched, dc):
    """A payload of sparse int16 codewords, extremes among them, at random
    levels and displacements; the first luma block carries dc at level 0."""
    n_luma, n_chroma = codec._block_counts(w, h)
    shape = (8, 8, n_luma + 2 * n_chroma)
    q = rng.integers(-(2**15), 2**15, shape) * (rng.random(shape) < 0.05)
    q[rng.random(q.shape) < 0.02] = rng.choice([-(2**15), 2**15 - 1])
    q[0, 0, 0] = dc
    prefixes = rng.integers(0, len(CATALOGUE), n_luma) << 4 | rng.integers(0, sched.n_levels, n_luma)
    prefixes[0] &= 0xF0
    planes = np.split(q, [n_luma, n_luma + n_chroma], axis=2)
    return encode_blocks(list(zip(planes, [prefixes, None, None])))[0]


def _decodes_as_the_oracle(payload, prev, sched):
    got = decode_frame(payload, prev, sched)
    want = _reconstruction_oracle(payload, prev, sched)
    return all(np.array_equal(p.samples, o) for p, o in zip((got.y, got.cb, got.cr), want))


class TestDequantizationLanes:
    """_reconstruct dequantizes in int32 while every step is below 2**16 and
    in int64 from there on; hostile int16 codewords decode as the int64
    oracle does on both sides of that boundary."""

    @settings(max_examples=40)
    @given(
        n_levels=st.integers(2, MAX_LEVELS),
        offset=st.integers(-2, 1),
        w=st.integers(1, 24),
        h=st.integers(1, 24),
        dc=st.sampled_from([-(2**15), 2**15 - 1]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_lockstep_with_the_int64_oracle_across_the_boundary(self, n_levels, offset, w, h, dc, seed):
        rng = np.random.default_rng(seed)
        sched = QuantSchedule(n_levels, _lane_boundary(n_levels) + offset)
        payload = _hand_built_payload(rng, w, h, sched, dc)
        assert _decodes_as_the_oracle(payload, random_clip(w, h, 1, seed).frames[0], sched)

    @pytest.mark.parametrize("q_base, step, lane", [(362, 65529, np.int32), (363, 65710, np.int64)])
    def test_most_negative_codeword_at_level_0(self, monkeypatch, q_base, step, lane):
        # -32768 * 65710 is beyond int32; -32768 * 65529 is not
        sched = QuantSchedule(16, q_base)
        assert max(sched.steps) == step and _lane_boundary(16) == 363
        dequantized = []
        inverse = codec.inverse_blocks
        monkeypatch.setattr(codec, "inverse_blocks", lambda c: dequantized.append(c.dtype) or inverse(c))
        payload = _hand_built_payload(np.random.default_rng(5), 24, 16, sched, -(2**15))
        assert _decodes_as_the_oracle(payload, random_clip(24, 16, 1, seed=5).frames[0], sched)
        assert dequantized == [lane]


class TestPerFrameKernels:
    """A frame's three planes are one block array: each kernel runs once per frame."""

    @pytest.mark.parametrize("w, h, q_base", [(37, 29, 1), (37, 29, 64), (64, 48, 8), (9, 17, MAX_Q_BASE)])
    def test_one_transform_call_per_frame_and_side(self, monkeypatch, w, h, q_base):
        calls = []
        for name in ("forward_blocks", "inverse_blocks"):
            original = getattr(codec, name)
            monkeypatch.setattr(codec, name, lambda blocks, _f=original, _n=name: calls.append(_n) or _f(blocks))
        sched = QuantSchedule(q_base=q_base)
        level_map = quantize_map(gaussian_map((w // 3, h // 3), w / 4, w, h), sched.n_levels)
        enc = dec = midgray_frame(w, h)
        for frame in pan_clip(w, h, 3, step=3).frames:
            calls.clear()
            stream, enc = encode_frame(frame, enc, level_map, sched)
            assert calls.count("forward_blocks") <= 1 and calls.count("inverse_blocks") <= 1
            calls.clear()
            dec = decode_frame(stream.payload, dec, sched)
            assert calls in ([], ["inverse_blocks"])
            assert dec == enc


class TestEntropyCode:
    def roundtrip(self, block):
        payload, _ = encode_blocks([(block[:, :, None], None)])
        blocks, _ = decode_blocks(payload, [(1, None)])
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
        decoded, _ = decode_blocks(payload, [(n, None)])
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
