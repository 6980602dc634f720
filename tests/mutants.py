"""Mutants the suite must kill: a committed list and its runner.

    python3 tests/mutants.py            # every mutant
    python3 tests/mutants.py NAME ...   # the named ones

Each mutant replaces one exact snippet of one file under src/fmvc and names
the tests that must fail under it.  The runner copies src/ to a temporary
directory, runs every named test once against the unmutated copy (they must
pass), then for each mutant writes the mutated file into the copy and runs
that mutant's tests against it.  A mutant is killed when every test it names
fails; it survives when any of them passes.  The exit status is non-zero when
a mutant survives or a run goes wrong.  The repository is never written to.

tests/test_mutants.py checks in tier-1 that every snippet occurs exactly once
in its file, so a refactor that moves the code must update this list, and
that every named test is an id pytest collects, with the [...] part of a
parametrized test.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/fmvc
    snippet: str  # occurs exactly once in file
    replacement: str
    tests: tuple[str, ...]  # node ids, relative to the repository root, that must fail


MUTANTS = (
    Mutant(
        "pretest envelope a quarter", "codec.py",
        "        z += _ENVELOPE\n", "        z += _ENVELOPE / 4\n",
        ("tests/test_codec.py::TestAllZeroPretest::test_matmul_stage_keeps_blocks_past_a_quarter_envelope",),
    ),
    Mutant(
        "quantizer rounds half toward zero", "codec.py",
        "    q += steps\n", "    q += steps - 1\n",
        ("tests/test_codec.py::TestQuantizer::test_round_half_away",
         "tests/test_kernels.py::test_quantizer_matches_the_reference_division"),
    ),
    Mutant(
        "no gaze bounds check", "foveation.py",
        "    if not (0 <= gx < geom.width_px and 0 <= gy < geom.height_px):\n", "    if False:\n",
        ("tests/test_foveation.py::test_foveation_map_gaze_bounds",),
    ),
    Mutant(
        "no gaze length check", "foveation.py",
        "if len(gaze) == 2 and all(", "if all(",
        ("tests/test_codec.py::TestEncodeFrames::test_a_gaze_is_two_finite_real_numbers[gaze0]",
         "tests/test_codec.py::TestEncodeFrames::test_a_gaze_is_two_finite_real_numbers[gaze1]"),
    ),
    Mutant(
        "CSF window at 0.99 of its reach", "foveation.py",
        "geom.pixel_pitch_m * (1 + 2**-20) + 1 if", "geom.pixel_pitch_m * 0.99 if",
        ("tests/test_foveation.py::test_foveation_map_evaluates_only_inside_the_visibility_radius",
         "tests/test_kernels.py::test_foveation_map_matches_per_pixel_formula_where_the_radius_crosses_the_frame",
         "tests/test_kernels.py::test_subband_weights_match_per_pixel_formula_where_the_radius_crosses_the_frame"),
    ),
    Mutant(
        "encode_blocks without its dtype check", "bitio.py",
        'blocks.shape[:2] != (8, 8) or blocks.dtype.kind not in "iu"', "blocks.shape[:2] != (8, 8)",
        ("tests/test_transform.py::test_non_integer_blocks_are_rejected_not_truncated[0.7-float64-encode_blocks]",
         "tests/test_transform.py::test_non_integer_blocks_are_rejected_not_truncated[1-bool-encode_blocks]"),
    ),
    Mutant(
        "prefix bits credited to the last blocks", "bitio.py",
        "    block_bits[: len(prefixes)] += 8\n", "    block_bits[-len(prefixes) :] += 8\n",
        ("tests/test_bitio.py::test_array_encoder_matches_reference",
         "tests/test_bitio.py::test_payload_runs_are_prefixes_then_zeros_then_info_bits"),
    ),
    Mutant(
        "record fields not checked for integers", "codec.py",
        "if not (isinstance(value, Integral) and 0 <= value < 1 << bits):", "if not (0 <= value < 1 << bits):",
        ("tests/test_codec.py::TestSequenceCodec::test_fields_are_integers_their_slots_hold_on_construction[True-fmsc_code-0.5]",
         "tests/test_codec.py::TestSequenceCodec::test_fields_are_integers_their_slots_hold_on_construction[True-gaze_x-1.5]"),
    ),
    Mutant(
        "no payload length budget", "codec.py",
        "            if not fewest <= payload_len <= most:\n", "            if False:\n",
        ("tests/test_codec.py::TestSequenceCodec::test_oversized_payload_is_rejected_before_decoding[container]",
         "tests/test_codec.py::TestSequenceCodec::test_payload_shorter_than_geometry_allows"),
    ),
    Mutant(
        "search squares without the uint16 view", "displacement.py",
        "ones @ d.view(np.uint16).reshape(", "ones @ d.reshape(",
        ("tests/test_displacement.py::test_search_matches_brute_force_at_the_extremes",
         "tests/test_displacement.py::test_encoder_choice_matches_residual_set_selection"),
    ),
    Mutant(
        "block_levels floors the window's end tile", "allocation.py",
        "grid_shape((rows.stop, cols.stop))", "(rows.stop // BLOCK, cols.stop // BLOCK)",
        ("tests/test_allocation.py::test_block_levels_grid_matches_per_block_op",
         "tests/test_foveation.py::test_every_kind_of_map_takes_the_one_path"),
    ),
    Mutant(
        "identity window one row short", "foveation.py",
        "np.s_[0 : self.levels.shape[0], 0 :", "np.s_[0 : self.levels.shape[0] - 1, 0 :",
        ("tests/test_allocation.py::test_level_for_block_out_of_bounds",
         "tests/test_foveation.py::test_every_kind_of_map_takes_the_one_path",
         "tests/test_foveation.py::test_levels_must_lie_below_n"),
    ),
    Mutant(
        "no fmsc code check", "codec.py",
        "    if not all(isinstance(code, Integral) and 0 <= code <= 255 for code in fmsc_codes):\n",
        "    if False:\n",
        ("tests/test_codec.py::TestEncodeFrames::test_every_check_runs_before_the_first_frame[code_fraction-ContractViolation]",
         "tests/test_codec.py::TestEncodeFrames::test_every_check_runs_before_the_first_frame[code_text-ContractViolation]",
         "tests/test_codec.py::TestEncodeFrames::test_every_check_runs_before_the_first_frame[code_range-ContractViolation]"),
    ),
    Mutant(
        "no pixel size check", "foveation.py",
        "    if not all(isinstance(v, Integral) and v > 0 for v in (width, height)):\n", "    if False:\n",
        ("tests/test_foveation.py::test_a_frame_size_is_two_positive_integers[2.5-4]",
         "tests/test_foveation.py::test_a_frame_size_is_two_positive_integers[4-2.5]",
         "tests/test_foveation.py::test_a_frame_size_is_two_positive_integers[0-4]"),
    ),
    Mutant(
        "container reads a gaze outside the frame", "codec.py",
        "            if gx >= w or gy >= h:\n", "            if False:\n",
        ("tests/test_codec.py::TestSequenceCodec::test_metadata_must_fit_a_display_and_the_frame[gaze_x-47-<H-65535-read]",
         "tests/test_codec.py::TestSequenceCodec::test_metadata_must_fit_a_display_and_the_frame[gaze_y-49-<H-60000-read]"),
    ),
    Mutant(
        "no decode budget on the header", "codec.py",
        "    if width * height > MAX_PIXELS:\n", "    if False:\n",
        ("tests/test_codec.py::TestSequenceCodec::test_decode_budget_is_checked_before_any_frame",
         "tests/test_codec.py::TestEncodeFrames::test_every_check_runs_before_the_first_frame[budget-UnsupportedFormat]"),
    ),
    Mutant(
        "level count not checked before the cast", "foveation.py",
        "    _check_level_count(n)  # before the cast", "    pass  # before the cast",
        ("tests/test_foveation.py::test_quantize_rejects_levels_beyond_uint8",),
    ),
    Mutant(
        "level check one level too lax", "foveation.py",
        "max(initial=0)) > self.n - 1:", "max(initial=0)) > self.n:",
        ("tests/test_foveation.py::test_levels_must_lie_below_n",),
    ),
    Mutant(
        "decode_frame without its payload length budget", "codec.py",
        "    if len(payload) > most:", "    if False:",
        ("tests/test_codec.py::TestSequenceCodec::test_oversized_payload_is_rejected_before_decoding[decode_frame]",
         "tests/test_codec.py::TestSequenceCodec::test_longest_payload_is_exactly_the_bound[decode_frame]"),
    ),
    Mutant(
        "an empty FMSC set runs the default points", "cli.py",
        "if args.fmsc_set is not None else", "if args.fmsc_set else",
        ("tests/test_cli.py::TestRdSweep::test_every_spec_checked_before_encoding[]",),
    ),
    Mutant(
        "level maps quantized every frame", "cli.py",
        "    return _per_gaze(gazes, lambda g: (codec.quantize_map(build(g), codec.MAX_LEVELS), g))\n",
        "    return ((codec.quantize_map(m, codec.MAX_LEVELS), g) for m, g in zip(_per_gaze(gazes, build), gazes))\n",
        ("tests/test_cli.py::test_encode_builds_each_map_as_its_frame_is_coded[center-H/4]",
         "tests/test_cli.py::test_encode_builds_each_map_as_its_frame_is_coded[center-None]",
         "tests/test_cli.py::TestRdSweep::test_center_gaze_builds_one_map_per_chain"),
    ),
    Mutant(
        "a failed write is not an IoError", "cli.py",
        '        raise IoError(f"cannot write {path!r}: {exc}") from exc\n', "        raise\n",
        ("tests/test_cli.py::test_unwritable_output_exits_4[encode-directory]",
         "tests/test_cli.py::test_unwritable_output_exits_4[decode-directory]",
         "tests/test_cli.py::test_unwritable_output_exits_4[metrics-directory]",
         "tests/test_cli.py::test_unwritable_output_exits_4[rd-sweep-directory]",
         "tests/test_cli.py::test_unwritable_output_exits_4[decode-write]"),
    ),
    Mutant(
        "SSIM filter adds its tap pairs innermost first", "metrics.py",
        "    for j in range(_HALO, 0, -1):\n", "    for j in range(1, _HALO + 1):\n",
        ("tests/test_metrics.py::test_ssim_filter_is_scipys_bit_for_bit[axis0]",
         "tests/test_metrics.py::test_ssim_filter_is_scipys_bit_for_bit[axis1]",
         "tests/test_metrics.py::test_ssim_filter_is_scipys_bit_for_bit[windowed]",
         "tests/test_frame_reference.py::test_scores_across_strip_boundaries_match_oracle[plain_plane]",
         "tests/test_golden.py::test_golden_scores[metrics_track]",
         "tests/test_golden.py::test_golden_scores[rd_sweep_center]",
         "tests/test_golden.py::test_golden_scores[rd_sweep_track]"),
    ),
    Mutant(
        "offset table cache keyed without the viewing distance", "foveation.py",
        "    key = geom if gx.is_integer()", "    key = (geom.screen_width_m, geom.width_px, geom.height_px) if gx.is_integer()",
        ("tests/test_foveation.py::test_whole_pixel_maps_are_the_direct_evaluation_at_every_gaze",),
    ),
    Mutant(
        "decoder's coded set misses blocks of one coefficient", "bitio.py",
        "prefixes, counts > 0\n", "prefixes, counts > 1\n",
        ("tests/test_codec.py::TestReconstructPaths::test_explicit_zero_coefficients_leave_a_coded_block_all_zero",
         "tests/test_codec.py::TestReconstructPaths::test_each_path_matches_the_oracle[9-17-mixed]",
         "tests/test_codec.py::TestSequenceCodec::test_pan_clip_lockstep_chain",
         "tests/test_golden.py::test_golden_output[pan_64x64_chroma]"),
    ),
    Mutant(
        "encoder codes a masked all-zero block as 64 coefficients", "bitio.py",
        "(64 - nonzero.argmax(axis=0)) * nonzero.any(axis=0)", "64 - nonzero.argmax(axis=0)",
        ("tests/test_bitio.py::test_every_superset_of_the_nonzero_blocks_codes_alike",),
    ),
    Mutant(
        "truncation reported at the payload's first byte", "bitio.py",
        'short = BitstreamError("payload ends inside a block", byte_offset=max(len(data) - 1, 0))',
        'short = BitstreamError("payload ends inside a block", byte_offset=0)',
        ("tests/test_bitio.py::test_array_decoder_rejects_exactly_when_reference_does",
         "tests/test_bitio.py::test_decoder_outcomes_on_corrupt_payloads_are_pinned[int32]"),
    ),
    Mutant(
        "no geometry rule, only positive finite lengths", "foveation.py",
        "    return 1 / _SCALE_RANGE <= pitch <= _SCALE_RANGE and 1 / _SCALE_RANGE <= viewing_distance_m / pitch <= _SCALE_RANGE\n",
        "    return 0 < screen_width_m < math.inf and 0 < viewing_distance_m < math.inf\n",
        ("tests/test_foveation.py::test_a_geometry_is_rejected_or_maps_and_scores_in_range",
         "tests/test_cli.py::test_geometry_outside_the_rule_exits_2[pitch-0-encode]",
         "tests/test_cli.py::test_geometry_outside_the_rule_exits_2[distance-0-metrics]",
         "tests/test_cli.py::test_geometry_outside_the_rule_exits_2[distance-inf-px-rd-sweep]",
         "tests/test_codec.py::TestSequenceCodec::test_metadata_must_fit_a_display_and_the_frame[screen_width_m-18-<d-5e-324-built]",
         "tests/test_codec.py::TestSequenceCodec::test_metadata_must_fit_a_display_and_the_frame[screen_width_m-18-<d-5e-324-read]"),
    ),
    Mutant(
        "encode_blocks without its coded-set check", "bitio.py",
        "    if coded.shape != (n,) or coded.dtype != bool:\n", "    if False:\n",
        ("tests/test_bitio.py::test_encoder_takes_one_boolean_flag_per_block[too-short]",
         "tests/test_bitio.py::test_encoder_takes_one_boolean_flag_per_block[too-long]",
         "tests/test_bitio.py::test_encoder_takes_one_boolean_flag_per_block[integer-dtype]",
         "tests/test_bitio.py::test_encoder_takes_one_boolean_flag_per_block[2-D]"),
    ),
    Mutant(
        "container accepts level counts below 16", "codec.py",
        "        if n_levels != MAX_LEVELS:\n", "        if n_levels > MAX_LEVELS:\n",
        ("tests/test_codec.py::TestSequenceCodec::test_level_count_byte_holds_sixteen_only",),
    ),
    Mutant(
        "FWQI blames the plane for a display that shows nothing", "metrics.py",
        "    if any(_subband_weights(s, (ch >> s, cw >> s), gaze, geom).any() for s in range(1, FWQI_LEVELS + 1)):\n",
        "    if True:\n",
        ("tests/test_frame_reference.py::test_a_display_that_shows_nothing_is_named[frame_reference]",
         "tests/test_frame_reference.py::test_a_display_that_shows_nothing_is_named[plain_plane]",
         "tests/test_cli.py::test_a_display_that_shows_nothing_exits_2[metrics]",
         "tests/test_cli.py::test_a_display_that_shows_nothing_exits_2[rd-sweep]"),
    ),
)


def failed_tests(src: Path, tests: list[str]) -> tuple[int, set[str]]:
    """pytest's exit status and the ids that failed, running tests against the fmvc package under src."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")  # no stale bytecode for a rewritten file
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", "-o", f"pythonpath={src}", *tests],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    return proc.returncode, {
        line[len("FAILED "):].split(" - ")[0] for line in proc.stdout.splitlines() if line.startswith("FAILED ")
    }


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    if names and len(chosen) != len(set(names)):
        print(f"unknown mutants: {sorted(set(names) - {m.name for m in chosen})}")
        return 2
    started = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        baseline = sorted({test for m in chosen for test in m.tests})
        status, failed = failed_tests(src, baseline)
        if status != 0:
            print(f"the unmutated copy fails (pytest exit {status}): {sorted(failed)}")
            return 2
        survivors, errors = [], []
        for m in chosen:
            path = src / "fmvc" / m.file
            original = path.read_text(encoding="utf-8")
            if original.count(m.snippet) != 1:
                errors.append(m.name)
                print(f"ERROR    {m.name}: its snippet does not occur exactly once in {m.file}")
                continue
            path.write_text(original.replace(m.snippet, m.replacement), encoding="utf-8")
            try:
                status, failed = failed_tests(src, list(m.tests))
            finally:
                path.write_text(original, encoding="utf-8")
            alive = [test for test in m.tests if test not in failed]
            if status not in (0, 1):  # not a test run that passed or failed: a collection or usage error
                errors.append(m.name)
                print(f"ERROR    {m.name}: pytest exit {status}")
            elif alive:
                survivors.append(m.name)
                print(f"SURVIVED {m.name}: {alive} passed")
            else:
                print(f"killed   {m.name}")
    print(f"{len(chosen) - len(survivors) - len(errors)} of {len(chosen)} mutants killed, "
          f"{len(survivors)} survived, {len(errors)} errors, in {time.perf_counter() - started:.0f} s")
    return 1 if survivors or errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
