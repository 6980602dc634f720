import bisect
import functools
import math
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fmvc import codec
from fmvc.bitio import decode_blocks, encode_blocks, payload_bounds, signed_to_symbol
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
from fmvc.errors import BitstreamError, ConfigError, ContractViolation, FmvcError, UnsupportedFormat, UnsupportedVersion
from fmvc.displacement import CATALOGUE, DisplacementField
from fmvc.foveation import (DisplayGeometry, FoveationMap, LevelMap, default_geometry, foveation_map, gaussian_map,
                            geometry_in_range, quantize_map)
from fmvc.metrics import mean_ssim
from fmvc.video_io import MAX_PIXELS, Frame, FramePlane, VideoSequence
from bitref import PayloadWriter, decode_stack
import kernelref
from kernelref import from_tiles, planes
from conftest import (
    DISTANCE_AT,
    FRAME_HEAD_BYTES,
    HEADER_BYTES,
    SCREEN_WIDTH_AT,
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


def level_map_for(value, w, h):
    # value just below (level+1)/16 quantizes to exactly `value`
    return quantize_map(uniform_map((value + 0.5) / MAX_LEVELS, w, h), MAX_LEVELS)


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

    def test_base_fits_the_header(self):
        # the header stores the base as a double; above 32640 every
        # coefficient already quantizes to zero
        assert QuantSchedule(q_base=65535).steps[-1] == 65535
        for q_base in (65536, 9007199254740993, 10**20):
            with pytest.raises(ContractViolation):
                QuantSchedule(q_base=q_base)

    def test_the_codec_codes_sixteen_levels_only(self):
        # the level count is no setting: a schedule has one step per level of the 4-bit prefix field
        for q in (1, 4, MAX_Q_BASE):
            sched = QuantSchedule(q_base=q)
            assert sched.n_levels == QuantSchedule.n_levels == MAX_LEVELS == len(sched.steps) == 16
        for args, kwargs in (((), {"n_levels": 16}), ((), {"n_levels": 8}), ((16, 4), {})):
            with pytest.raises(TypeError):
                QuantSchedule(*args, **kwargs)

    def test_level_map_of_another_count_rejected(self):
        clip = random_clip(16, 16, 1, seed=6)
        lm = quantize_map(uniform_map(0.5, 16, 16), 8)
        assert lm.n == 8
        with pytest.raises(ContractViolation, match="8 levels"):
            encode_frame(clip.frames[0], midgray_frame(16, 16), lm, DEFAULT_SCHED)


def quantize_at(values, level):
    """Quantize each value alone in the DC slot of its own block, all at one level."""
    blocks = np.zeros((8, 8, len(values)), dtype=np.int64)
    blocks[0, 0] = values
    return codec._quantize_plane_blocks(blocks, np.full(len(values), DEFAULT_SCHED.steps_array()[level]))[0, 0]


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
        steps = DEFAULT_SCHED.steps_array()
        fine = codec._quantize_plane_blocks(blocks, np.full(50, steps[15]))
        coarse = codec._quantize_plane_blocks(blocks, np.full(50, steps[0]))
        assert np.count_nonzero(coarse) <= np.count_nonzero(fine)


# Every step of these schedules is covered by the all-zero pre-test's tests;
# base 363, the int64 lane's first, adds seven steps between base 32's
# largest, 5793, and 65535, where no other base has one.
PRETEST_SCHEDULES = [QuantSchedule(q) for q in (1, 4, 32, 363, MAX_Q_BASE)]


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
    qblocks, _ = codec._quantized_frame([cur], [pred], sched.steps_array()[levels_grid.reshape(-1)])
    return qblocks.reshape(residual.shape)


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
    full = codec._quantize_plane_blocks(kernelref.forward_blocks(residual), sched.steps_array()[levels_grid])
    assert got.dtype == np.int16
    assert np.array_equal(got, full)


class TestAllZeroPretest:
    @pytest.mark.parametrize("sched", PRETEST_SCHEDULES, ids=lambda s: f"q{s.q_base}")
    def test_adversarial_blocks_match_the_unskipped_path(self, sched):
        _check_against_unskipped_path(_adversarial_blocks(sched.steps), sched)

    @pytest.mark.parametrize("sched", PRETEST_SCHEDULES, ids=lambda s: f"q{s.q_base}")
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
        full = codec._quantize_plane_blocks(kernelref.forward_blocks(residual), steps.reshape(levels_grid.shape))
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
        # levels 14 and 15 at base 1 step by 1, so neither stage can clear a block
        w, h = 37, 29
        sched = QuantSchedule(q_base=1)
        level_map = LevelMap(np.random.default_rng(1).integers(14, 16, (h, w), dtype=np.uint8), 16)
        counts = self._lockstep_blocks_transformed(monkeypatch, random_clip(w, h, 3, seed=8), sched, level_map)
        n_luma, n_chroma = codec._block_counts(w, h)
        assert counts == [n_luma + 2 * n_chroma] * 3  # one call per frame, over its three planes


def _reconstruction_oracle(payload, prev, sched):
    """prev's planes as kernelref predicts them, plus the inverse transform of
    the payload's dequantized coefficients, clipped: each decoded plane."""
    grid = codec.grid_shape((prev.y.height, prev.y.width))
    n_luma, n_chroma = codec._block_counts(prev.y.width, prev.y.height)
    (q_y, prefixes), (q_cb, _), (q_cr, _) = decode_stack(
        payload, [(n_luma, codec._PREFIX_TABLE), (n_chroma, None), (n_chroma, None)]
    )
    luma_field = (prefixes >> 4).reshape(grid).astype(np.int8)
    levels = (prefixes & 0x0F).reshape(grid)
    out = []
    for q, ref, halve in zip((q_y, q_cb, q_cr), (prev.y, prev.cb, prev.cr), (False, True, True)):
        pick = np.s_[::2, ::2] if halve else np.s_[:, :]
        pred = kernelref.predicted_plane(ref.samples, DisplacementField(luma_field[pick]), halve_offsets=halve)
        coeffs = q.reshape(8, 8, *levels[pick].shape) * np.asarray(sched.steps, np.int64)[levels[pick]]
        residual = from_tiles(kernelref.inverse_blocks(coeffs), pred.shape)
        out.append(np.clip(residual + pred, 0, 255).astype(np.uint8))
    return out


ANY_CONFIGURATION = dict(
    w=st.integers(1, 40),
    h=st.integers(1, 40),
    q_base=st.integers(1, 64),
    force_zero=st.booleans(),
    pan=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)


def code_in_lockstep(w, h, q_base, force_zero, pan, seed):
    """Code three frames of a drawn configuration; decoding the payload alone
    rebuilds the encoder's chain, frame by frame."""
    rng = np.random.default_rng(seed)
    sched = QuantSchedule(q_base=q_base)
    cfg = CodecConfig(force_zero_displacement=force_zero)
    clip = pan_clip(w, h, 3, step=int(rng.integers(-5, 6)), seed=seed) if pan else random_clip(w, h, 3, seed)
    enc = dec = midgray_frame(w, h)
    for frame in clip.frames:
        lm = LevelMap(rng.integers(0, MAX_LEVELS, (h, w), dtype=np.uint8), MAX_LEVELS)
        stream, enc = encode_frame(frame, enc, lm, sched, cfg)
        dec = decode_frame(stream.payload, dec, sched)
        assert dec == enc


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

    @given(**ANY_CONFIGURATION)
    def test_each_side_hands_over_a_coded_set_that_rebuilds_the_dense_frame(
        self, w, h, q_base, force_zero, pan, seed
    ):
        # the encoder's set is exactly its blocks with a nonzero coefficient, and the decoder's holds
        # them all; each rebuilds the frame that the mask found by any over the dense array would
        reconstruct, exact = codec._reconstruct, []

        def checked(qblocks, coded, steps, preds):
            nonzero = qblocks.any(axis=(0, 1))
            want = reconstruct(qblocks, nonzero, steps, [p.copy() for p in preds])  # preds become the planes
            got = reconstruct(qblocks, coded, steps, preds)
            assert got == want and not (nonzero & ~coded).any()
            exact.append(np.array_equal(coded, nonzero))
            return got

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(codec, "_reconstruct", checked)
            code_in_lockstep(w, h, q_base, force_zero, pan, seed)
        assert len(exact) == 6 and all(exact[::2])  # the encoder's call, then the decoder's, per frame

    def test_explicit_zero_coefficients_leave_a_coded_block_all_zero(self):
        # a hand-built 32x32 payload (16 luma blocks, 4 per chroma plane): luma block 0 codes two explicit
        # zeros and Cb block 0 one, so their counts are above 0 and the blocks all zero; luma block 5 codes
        # a single 3.  The decoder hands all three to _reconstruct, which takes the gathering path
        w = PayloadWriter()
        for _ in range(16):
            w.write_prefix(0)
        coded = {0: [0, 0], 5: [3], 16: [0]}
        for block in range(24):
            for value in coded.get(block, []):
                w.write_ue(signed_to_symbol(value) + 1)
            w.write_ue(0)
        payload = w.getvalue()
        blocks, _, mask = decode_blocks(payload, 24, 16, codec._PREFIX_TABLE)
        assert np.flatnonzero(mask).tolist() == [0, 5, 16] and np.flatnonzero(blocks.any(axis=(0, 1))).tolist() == [5]
        prev = random_clip(32, 32, 1, seed=9).frames[0]
        assert _decodes_as_the_oracle(payload, prev, DEFAULT_SCHED)

    @pytest.mark.parametrize(
        "w, h, coding",
        [(37, 29, "all"), (37, 29, "none"), (37, 29, "mixed"), (9, 17, "all"), (9, 17, "none"),
         (9, 17, "mixed"), (1, 1, "all"), (1, 1, "none")],
    )  # a 1x1 frame has one block per plane
    def test_each_path_matches_the_oracle(self, monkeypatch, w, h, coding):
        clip = random_clip(w, h, 3, seed=8)
        rng = np.random.default_rng(1)
        if coding == "all":  # levels 14 and 15 at base 1 step by 1: noise leaves no block all zero
            sched = QuantSchedule(q_base=1)
            level_map = LevelMap(rng.integers(14, 16, (h, w), dtype=np.uint8), 16)
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


def _lane_boundary():
    """The smallest base step whose schedule holds a step of 2**16 or more."""
    bases = range(1, MAX_Q_BASE + 1)
    i = bisect.bisect_left(bases, True, key=lambda q: max(QuantSchedule(q).steps) >= 1 << 16)
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
    return encode_blocks(q, prefixes, q.any(axis=(0, 1)))[0]


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
        offset=st.integers(-2, 1),
        w=st.integers(1, 24),
        h=st.integers(1, 24),
        dc=st.sampled_from([-(2**15), 2**15 - 1]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_lockstep_with_the_int64_oracle_across_the_boundary(self, offset, w, h, dc, seed):
        rng = np.random.default_rng(seed)
        sched = QuantSchedule(_lane_boundary() + offset)
        payload = _hand_built_payload(rng, w, h, sched, dc)
        assert _decodes_as_the_oracle(payload, random_clip(w, h, 1, seed).frames[0], sched)

    @pytest.mark.parametrize("q_base, step, lane", [(362, 65529, np.int32), (363, 65710, np.int64)])
    def test_most_negative_codeword_at_level_0(self, monkeypatch, q_base, step, lane):
        # -32768 * 65710 is beyond int32; -32768 * 65529 is not
        sched = QuantSchedule(q_base)
        assert max(sched.steps) == step and _lane_boundary() == 363
        dequantized = []
        inverse = codec.inverse_blocks
        monkeypatch.setattr(codec, "inverse_blocks", lambda c: dequantized.append(c.dtype) or inverse(c))
        payload = _hand_built_payload(np.random.default_rng(5), 24, 16, sched, -(2**15))
        assert _decodes_as_the_oracle(payload, random_clip(24, 16, 1, seed=5).frames[0], sched)
        assert dequantized == [lane]


class TestPerFrameKernels:
    """A frame's three planes are one block array: each kernel runs once per
    frame, and each side gathers the blocks' steps once."""

    @pytest.mark.parametrize("w, h, q_base", [(37, 29, 1), (37, 29, 64), (64, 48, 8), (9, 17, MAX_Q_BASE)])
    def test_one_transform_call_per_frame_and_side(self, monkeypatch, w, h, q_base):
        calls = []
        for name in ("forward_blocks", "inverse_blocks"):
            original = getattr(codec, name)
            monkeypatch.setattr(codec, name, lambda blocks, _f=original, _n=name: calls.append(_n) or _f(blocks))
        steps_array = QuantSchedule.steps_array
        monkeypatch.setattr(QuantSchedule, "steps_array", lambda s: calls.append("steps_array") or steps_array(s))
        sched = QuantSchedule(q_base=q_base)
        level_map = quantize_map(gaussian_map((w // 3, h // 3), w / 4, w, h), sched.n_levels)
        enc = dec = midgray_frame(w, h)
        for frame in pan_clip(w, h, 3, step=3).frames:
            calls.clear()
            stream, enc = encode_frame(frame, enc, level_map, sched)
            assert calls.count("forward_blocks") <= 1 and calls.count("inverse_blocks") <= 1
            assert calls.count("steps_array") == 1
            calls.clear()
            dec = decode_frame(stream.payload, dec, sched)
            assert calls in (["steps_array"], ["steps_array", "inverse_blocks"])
            assert dec == enc


    def test_one_block_code_call_per_frame_and_side(self, monkeypatch):
        # looked up through fmvc.codec, so a spy or a timer there sees every frame
        calls = []
        for name in ("encode_blocks", "decode_blocks"):
            original = getattr(codec, name)
            monkeypatch.setattr(codec, name, lambda *a, _f=original, _n=name: calls.append(_n) or _f(*a))
        seq = pan_clip(37, 29, 3, step=3)
        sbs, recon = encode_sequence(seq, [gaussian_map((12, 9), 9.0, 37, 29)] * 3, DEFAULT_SCHED)
        assert calls == ["encode_blocks"] * 3
        calls.clear()
        assert decode_sequence(sbs.to_bytes()) == recon
        assert calls == ["decode_blocks"] * 3


ALL_PREFIXES = np.ones(256, bool)


class TestEntropyCode:
    def roundtrip(self, block):
        payload, _ = encode_blocks(block[:, :, None], [], np.ones(1, bool))
        blocks, _, _ = decode_blocks(payload, 1, 0, ALL_PREFIXES)
        return blocks[:, :, 0]

    def test_all_zero_block_is_one_bit(self):
        _, bits = encode_blocks(np.zeros((8, 8, 1), np.int64), [], np.zeros(1, bool))
        assert bits.tolist() == [1]  # bare end-of-block marker

    def test_single_dc(self):
        block = np.zeros((8, 8), np.int64)
        block[0, 0] = 1
        _, bits = encode_blocks(block[:, :, None], [], np.ones(1, bool))
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
        payload, _ = encode_blocks(blocks, [], blocks.any(axis=(0, 1)))
        decoded, _, _ = decode_blocks(payload, n, 0, ALL_PREFIXES)
        assert np.array_equal(decoded, blocks)

    def test_decode_rejects_overlong_block(self):
        w = PayloadWriter()
        for _ in range(70):
            w.write_ue(2)
        with pytest.raises(BitstreamError):
            decode_blocks(w.getvalue(), 1, 0, ALL_PREFIXES)
        w.write_ue(0)  # now a complete block of 70 coefficients
        with pytest.raises(BitstreamError, match="more than 64"):
            decode_blocks(w.getvalue(), 1, 0, ALL_PREFIXES)


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

    @given(**ANY_CONFIGURATION)
    def test_lockstep_any_configuration(self, w, h, q_base, force_zero, pan, seed):
        code_in_lockstep(w, h, q_base, force_zero, pan, seed)

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
        with pytest.raises(ConfigError, match="fmsc_code"):
            rec = replace(sbs.frames[0], fmsc_code=256)
            replace(sbs, frames=(rec,) + sbs.frames[1:]).to_bytes()

    @pytest.mark.parametrize("field", ["width", "height", "fps_num", "fps_den"])
    @pytest.mark.parametrize("value", [-16, 1 << 16])
    def test_header_fields_checked_on_construction(self, field, value):
        sbs = self.one_frame_stream()
        with pytest.raises(ConfigError, match=field):
            replace(sbs, **{field: value})

    @pytest.mark.parametrize(
        "record, field, value",
        [(True, "gaze_x", v) for v in (1.5, 4.0, -1, 1 << 16)]
        + [(True, "gaze_y", v) for v in (np.float64(2), "2", -1, 1 << 16)]
        + [(True, "fmsc_code", v) for v in (0.5, None, -1, 256)]
        + [(False, "width", 16.0), (False, "fps_num", 25.5), (False, "fps_den", np.float32(1))],
    )
    def test_fields_are_integers_their_slots_hold_on_construction(self, record, field, value):
        # so no struct.error can escape to_bytes
        sbs = self.one_frame_stream()
        with pytest.raises(ConfigError, match=field):
            replace(sbs.frames[0] if record else sbs, **{field: value})

    @settings(max_examples=60)
    @given(w=st.integers(1, 65535), h=st.integers(1, 65535))
    @example(w=7680, h=4320).via("the budget")
    @example(w=7680, h=4321).via("one row over")
    @example(w=65535, h=65535).via("the largest header")
    def test_decode_budget_is_checked_before_any_frame(self, w, h):
        data = bytearray(self.one_frame_stream().to_bytes())
        struct.pack_into("<HH", data, 6, w, h)
        reached, over = [], False
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(codec, "decode_blocks", lambda *a: reached.append(1) or decode_blocks(*a))
            try:
                decode_sequence(reseal(data))
            except UnsupportedFormat:
                over = True
                assert reached == []
            except FmvcError:  # a payload too short for the declared frames
                pass
        assert over == (w * h > MAX_PIXELS)

    @pytest.mark.parametrize("q_base", [math.nan, math.inf, -math.inf, 0.0, 2.5, 65536.0, 2.0**63, 1e300])
    def test_quantizer_base_checked(self, q_base):
        data = bytearray(self.one_frame_stream().to_bytes())
        struct.pack_into("<d", data, Q_BASE_AT, q_base)
        with pytest.raises(BitstreamError, match="quantizer base") as info:
            SequenceBitstream.from_bytes(reseal(data))
        assert info.value.byte_offset == Q_BASE_AT

    def test_level_count_byte_holds_sixteen_only(self):
        # every stream codes 16 levels; each other value of the byte is rejected at it
        data = bytearray(self.one_frame_stream().to_bytes())
        assert data[N_LEVELS_AT] == 16
        for n_levels in set(range(256)) - {16}:
            data[N_LEVELS_AT] = n_levels
            with pytest.raises(BitstreamError, match="level count") as info:
                SequenceBitstream.from_bytes(reseal(data))
            assert info.value.byte_offset == N_LEVELS_AT

    # a geometry no display has, and a gaze outside the 16x16 frame: each is
    # rejected when the stream is built and, at its own byte, when it is read
    @pytest.mark.parametrize("side", ["built", "read"])
    @pytest.mark.parametrize(
        "field, at, pack, value",
        [("screen_width_m", SCREEN_WIDTH_AT, "<d", math.nan), ("viewing_distance_m", DISTANCE_AT, "<d", -1.0),
         ("screen_width_m", SCREEN_WIDTH_AT, "<d", 5e-324),
         ("gaze_x", HEADER_BYTES, "<H", 65535), ("gaze_y", HEADER_BYTES + 2, "<H", 60000)],
    )
    def test_metadata_must_fit_a_display_and_the_frame(self, side, field, at, pack, value):
        sbs = self.one_frame_stream()
        if side == "built":
            with pytest.raises(ContractViolation):
                if field.startswith("gaze"):
                    replace(sbs, frames=(replace(sbs.frames[0], **{field: value}),))
                else:
                    replace(sbs, **{field: value})
            return
        data = bytearray(sbs.to_bytes())
        struct.pack_into(pack, data, at, value)
        with pytest.raises(BitstreamError) as info:
            SequenceBitstream.from_bytes(reseal(data))
        assert info.value.byte_offset == at

    # any two doubles as the screen width and viewing distance, and realistic ones
    @settings(max_examples=100)
    @given(screen_width=st.floats() | st.floats(1e-3, 10.0), distance=st.floats() | st.floats(1e-3, 10.0))
    @example(screen_width=5e-324, distance=0.012).via("a pixel pitch of 0")
    @example(screen_width=1e308, distance=1e-308).via("a viewing distance of 0 px")
    @example(screen_width=0.02, distance=1e-320).via("a subnormal viewing distance")
    @example(screen_width=1e-300, distance=1e300).via("an infinite viewing distance in pixels")
    def test_header_geometry_is_a_display_geometry_or_a_bitstream_error(self, screen_width, distance):
        data = bytearray(self.one_frame_stream().to_bytes())
        struct.pack_into("<dd", data, SCREEN_WIDTH_AT, screen_width, distance)
        try:
            DisplayGeometry(screen_width, distance, 16, 16)
        except ContractViolation:
            with pytest.raises(BitstreamError) as info:
                SequenceBitstream.from_bytes(reseal(data))
            assert info.value.byte_offset in (SCREEN_WIDTH_AT, DISTANCE_AT)
        else:
            assert SequenceBitstream.from_bytes(reseal(data)).viewing_distance_m == distance

    def test_unsealed_field_poke_fails_the_crc(self):
        sbs = self.one_frame_stream()
        # a valid base step, and a gaze that stays inside the frame
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
        q_base=st.integers(1, 64),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_schedule_round_trips(self, w, h, q_base, seed):
        seq = random_clip(w, h, 2, seed)
        sbs, recon = encode_sequence(seq, self.maps_for(seq), QuantSchedule(q_base=q_base))
        data = sbs.to_bytes()
        assert data[N_LEVELS_AT] == MAX_LEVELS and SequenceBitstream.from_bytes(data).q_base == q_base
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

    def payload_decoder(self, entry):
        """Decode a 16x16 frame's payload through the container, whose stream
        must first parse back to the one written, or through decode_frame;
        and the byte offset and message with which either rejects a 1590-byte
        payload: at the stream's length field naming the frame, or at the
        first byte past the bound."""
        if entry == "decode_frame":
            return (lambda payload: decode_frame(payload, midgray_frame(16, 16), DEFAULT_SCHED), 1589,
                    "payload of 1590 bytes is longer than 16x16 allows")
        sbs = self.one_frame_stream()

        def through_container(payload):
            stream = replace(sbs, frames=(replace(sbs.frames[0], bitstream=FrameBitstream(payload)),))
            parsed = SequenceBitstream.from_bytes(stream.to_bytes())
            assert parsed == stream
            return decode_sequence(parsed)

        return through_container, HEADER_BYTES + LENGTH_AT, "frame 0 payload of 1590 bytes is longer than 16x16"

    @pytest.mark.parametrize("entry", ["container", "decode_frame"])
    def test_longest_payload_is_exactly_the_bound(self, entry):
        # 16x16: six blocks of 64 codewords of -32768, the longest, and four prefixes
        payload, _ = encode_blocks(np.full((8, 8, 6), -(1 << 15), np.int16), np.zeros(4, np.uint8), np.ones(6, bool))
        assert payload_bounds(6, 4) == (5, len(payload)) == (5, 1589)
        decode, offset, message = self.payload_decoder(entry)
        decode(payload)
        with pytest.raises(BitstreamError, match=message) as info:
            decode(payload + b"\0")
        assert info.value.byte_offset == offset

    @pytest.mark.parametrize("entry", ["container", "decode_frame"])
    def test_oversized_payload_is_rejected_before_decoding(self, monkeypatch, entry):
        # a CRC-valid 1 MiB payload: valid prefixes, then random bytes
        payload = bytes(4) + np.random.default_rng(1).integers(0, 256, (1 << 20) - 4, dtype=np.uint8).tobytes()
        decode, offset, _ = self.payload_decoder(entry)
        reached = []
        monkeypatch.setattr(codec, "decode_blocks", lambda *a: reached.append(1) or decode_blocks(*a))
        with pytest.raises(BitstreamError, match="longer than 16x16 allows") as info:
            decode(payload)
        assert info.value.byte_offset == offset
        assert reached == []

    def test_huge_geometry_with_short_payload_rejected(self):
        # caught in the container, before a 65535x65535 reference frame exists;
        # such a stream cannot be constructed, so its header is written directly
        data = bytearray(self.one_frame_stream().to_bytes())
        struct.pack_into("<HH", data, 6, 65535, 65535)
        with pytest.raises(UnsupportedFormat, match="budget"):
            SequenceBitstream.from_bytes(reseal(data))

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
        gaze=st.tuples(st.integers(0, 65535) | st.integers(0, 31), st.integers(0, 65535) | st.integers(0, 31)),
        fmsc_code=st.integers(0, 255),
        geometry=st.tuples(st.floats(allow_nan=False) | st.floats(1e-3, 10.0),
                           st.floats(allow_nan=False) | st.floats(1e-3, 10.0)),
    )
    @example(q_base=4, gaze=(3, 31), fmsc_code=7, geometry=(0.5, 0.6)).via("a stream that constructs")
    def test_every_stream_that_constructs_round_trips(self, q_base, gaze, fmsc_code, geometry):
        base = SequenceBitstream.from_bytes(small_stream())
        frames = tuple(replace(rec, gaze_x=gaze[0], gaze_y=gaze[1], fmsc_code=fmsc_code) for rec in base.frames)
        args = (base.width, base.height, base.fps_num, base.fps_den, *geometry, q_base, frames)
        fits = (isinstance(q_base, int) and 1 <= q_base <= MAX_Q_BASE and gaze[0] < base.width
                and gaze[1] < base.height and geometry_in_range(*geometry, base.width))
        if not fits:
            with pytest.raises(ContractViolation):
                SequenceBitstream(*args)
            return
        sbs = SequenceBitstream(*args)
        parsed = SequenceBitstream.from_bytes(sbs.to_bytes())
        assert parsed == sbs
        assert parsed.q_base == q_base

    @pytest.mark.parametrize("field", ["width", "height", "fps_num", "fps_den"])
    def test_zero_header_field_rejected(self, field):
        # to_bytes would write a header that from_bytes rejects, and bpp() would divide by zero
        with pytest.raises(ContractViolation):
            replace(self.one_frame_stream(), **{field: 0})

    @given(
        gaze=st.tuples(st.floats(), st.floats()),
        gaussian=st.booleans(),
    )
    def test_any_float_gaze_is_rejected_or_encodes(self, gaze, gaussian):
        # a gaze of inf or NaN used to build a valid map and fail in int(round(gaze))
        seq = random_clip(16, 16, 2, seed=2)
        try:
            fmap = gaussian_map(gaze, 4.0, 16, 16) if gaussian else FoveationMap(np.zeros((16, 16)), gaze)
        except ContractViolation:
            assert not all(map(math.isfinite, gaze))
            return
        sbs, _ = encode_sequence(seq, [fmap] * 2, DEFAULT_SCHED)
        assert SequenceBitstream.from_bytes(sbs.to_bytes()) == sbs


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

        def lazy_levels():
            for fmap in maps:
                taken.append(fmap)
                yield quantize_map(fmap, sched.n_levels), fmap.gaze

        sbs, recon = encode_sequence(seq, maps, sched, fmsc_codes=[3, 4, 5])
        prev = midgray_frame(w, h)
        frames = encode_frames(seq, lazy_levels(), sched, fmsc_codes=[3, 4, 5])
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

    def test_streams_do_not_depend_on_map_identity(self):
        # one map object repeated, equal maps that are distinct objects, and the two alternating
        seq = random_clip(24, 16, 4, seed=3)
        fmap = gaussian_map((12, 8), 6.0, 24, 16)
        equal = [gaussian_map((12, 8), 6.0, 24, 16) for _ in range(4)]
        streams = {encode_sequence(seq, maps, DEFAULT_SCHED)[0].to_bytes()
                   for maps in ([fmap] * 4, equal, [fmap, equal[0], fmap, fmap])}
        assert len(streams) == 1

    def test_fmsc_codes_are_stored_as_given(self):
        # a code of 1.7 used to be coded as 1
        seq = random_clip(16, 16, 2, seed=1)
        maps = [gaussian_map((8, 8), 4.0, 16, 16)] * 2
        for codes in ([0, 255], [np.uint8(7), np.int64(200)]):
            sbs, _ = encode_sequence(seq, maps, DEFAULT_SCHED, fmsc_codes=codes)
            assert [rec.fmsc_code for rec in sbs.frames] == codes
            assert [rec.fmsc_code for rec in SequenceBitstream.from_bytes(sbs.to_bytes()).frames] == codes

    def test_mismatched_map_count_rejected(self):
        seq = random_clip(16, 16, 2, seed=1)
        for n_maps in (1, 3):  # maps that run out, maps that outlast the frames
            levels = [(quantize_map(gaussian_map((8, 8), 4.0, 16, 16)), (8, 8))] * n_maps
            with pytest.raises(ContractViolation, match="maps supplied"):
                list(encode_frames(seq, iter(levels), DEFAULT_SCHED))

    @pytest.mark.parametrize(
        "bad, error",
        [("fps_num", ConfigError), ("map_size", ContractViolation), ("map_levels", ContractViolation),
         ("gaze", ContractViolation), ("fmsc_codes", ContractViolation), ("budget", UnsupportedFormat),
         ("code_fraction", ContractViolation), ("code_text", ContractViolation), ("code_range", ContractViolation)],
    )
    def test_every_check_runs_before_the_first_frame(self, monkeypatch, bad, error):
        seq = random_clip(16, 16, 2, seed=1)
        codes = None
        levels = [(quantize_map(gaussian_map((8, 8), 4.0, 16, 16)), (8, 8))] * 2
        if bad == "fps_num":
            seq = VideoSequence(seq.frames, 120000, 1001)
        elif bad == "map_size":
            levels = [(quantize_map(gaussian_map((8, 8), 4.0, 16, 17)), (8, 8))] * 2
        elif bad == "map_levels":
            levels = [(quantize_map(gaussian_map((8, 8), 4.0, 16, 16), 8), (8, 8))] * 2
        elif bad == "gaze":
            levels = [(levels[0][0], (8.0, math.nan))] * 2
        elif bad == "budget":  # one pixel column over, in broadcast planes that allocate nothing
            y, c = (FramePlane.from_array(np.broadcast_to(np.uint8(0), s)) for s in ((4320, 7681), (2160, 3841)))
            seq = VideoSequence((Frame(y, c, c),) * 2, 25, 1)
        elif bad.startswith("code_"):  # each fmsc code must be an integer in [0, 255]; the bad one comes second
            codes = [3, {"code_fraction": 1.7, "code_text": "x", "code_range": 256}[bad]]
        else:
            codes = [0]
        calls = []
        original = codec.encode_frame
        monkeypatch.setattr(codec, "encode_frame", lambda *a, **k: calls.append(1) or original(*a, **k))
        frames = encode_frames(seq, iter(levels), DEFAULT_SCHED, fmsc_codes=codes)
        with pytest.raises(error):
            next(frames)
        assert calls == []


    @pytest.mark.parametrize("gaze", [(1.0,), (1.0, 2.0, 3.0), ("a", 1), ("1", "2"), (1, None), 5.0, (math.inf, 1.0)])
    def test_a_gaze_is_two_finite_real_numbers(self, gaze):
        # one rule for the maps and the encoder: a short gaze used to fail later in a bare
        # ValueError, a long one was coded from its first two numbers, and text raised TypeError
        for build in (lambda: FoveationMap(np.full((16, 16), 0.5), gaze), lambda: gaussian_map(gaze, 4.0, 16, 16),
                      lambda: foveation_map(default_geometry(16, 16), gaze)):
            with pytest.raises(ContractViolation, match="two finite real numbers"):
                build()
        levels = [(quantize_map(gaussian_map((8, 8), 4.0, 16, 16)), gaze)] * 2
        with pytest.raises(ContractViolation, match="two finite real numbers"):
            next(encode_frames(random_clip(16, 16, 2, seed=1), iter(levels), DEFAULT_SCHED))

    def test_a_gaze_of_numpy_numbers_is_accepted(self):
        levels = [(quantize_map(gaussian_map((8, 8), 4.0, 16, 16)), np.array([8.4, 7.6]))] * 2
        records = [rec for rec, _ in encode_frames(random_clip(16, 16, 2, seed=1), iter(levels), DEFAULT_SCHED)]
        assert [(rec.gaze_x, rec.gaze_y) for rec in records] == [(8, 8)] * 2
        assert FoveationMap(np.zeros((2, 2)), (np.int64(1), np.float32(0.5))).gaze == (1, 0.5)


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
