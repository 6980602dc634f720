import gc
import math
import os
import struct
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fmvc import cli, codec
from fmvc.cli import build_parser, densify_gaze, main, parse_fmsc, read_gaze_track
from fmvc.codec import FrameBitstream, FrameRecord, SequenceBitstream, decode_sequence
from fmvc.errors import ConfigError, ParseError
from fmvc.foveation import (DEFAULT_SCREEN_WIDTH_M, DEFAULT_VIEWING_DISTANCE_M, DisplayGeometry, foveation_map,
                            gaussian_map)
from fmvc.video_io import VideoSequence, read_y4m, write_y4m

from bitref import PayloadWriter
from conftest import (HEADER_BYTES, LENGTH_AT, N_LEVELS_AT, Q_BASE_AT, frame_payloads, natural_clip, pan_clip, reseal,
                      y4m_files)
from test_golden import GAZE_TRACK


@pytest.fixture(scope="module")
def clip_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("clips") / "pan.y4m"
    seq = pan_clip(64, 48, 7, step=3, chroma_noise=True)
    with open(path, "wb") as fh:
        write_y4m(seq, fh)
    return path


class TestFmscParsing:
    def test_height_divisor(self):
        assert parse_fmsc("H/4", 288) == (72.0, 4)
        assert parse_fmsc("h/2", 100) == (50.0, 2)

    def test_pixels(self):
        assert parse_fmsc("36.5", 288) == (36.5, 0)

    def test_non_integer_divisor_codes_zero(self):
        sigma, code = parse_fmsc("H/2.5", 100)
        assert sigma == 40.0 and code == 0

    def test_rejects_garbage(self):
        for bad in ("H/x", "H/0", "-3", "fovea", "H/nan", "H/inf", "H/-inf", "nan", "inf"):
            with pytest.raises(ConfigError):
                parse_fmsc(bad, 100)


class TestDefaults:
    def test_encode_and_sweep_defaults(self):
        for command in ("encode", "rd-sweep"):
            argv = [command, "--input", "a.y4m", "--output" if command == "encode" else "--out", "b"]
            args = build_parser().parse_args(argv)
            assert args.qbase == 4
            assert args.gaze == "center"
            assert codec.QuantSchedule(q_base=args.qbase).n_levels == 16


class TestGazeTrack:
    def test_parse_rows(self):
        track = read_gaze_track("0,10,20\n2,30,40\n")
        assert track == [(0, 10, 20), (2, 30, 40)]

    def test_non_numeric_field_names_line(self):
        with pytest.raises(ParseError) as info:
            read_gaze_track("0,10,20\n1,x,40\n")
        assert info.value.line == 2

    @pytest.mark.parametrize("row", ["0,inf,5", "0,1e400,5", "0,5,-inf", "0,-1e999,5"])
    def test_infinite_coordinate_names_line(self, row):
        with pytest.raises(ParseError) as info:
            read_gaze_track("0,10,20\n" + row.replace("0,", "1,", 1) + "\n")
        assert info.value.line == 2

    def test_row_arity_checked(self):
        with pytest.raises(ParseError):
            read_gaze_track("0,10\n")

    def test_non_ascii_row_names_line(self):
        with pytest.raises(ParseError, match="line 2"):
            read_gaze_track("0,10,20\n1,2\u00e9,40\n")

    def test_indices_strictly_increasing(self):
        with pytest.raises(ParseError):
            read_gaze_track("0,1,1\n0,2,2\n")

    def test_hold_last_extension(self):
        gazes = densify_gaze([(0, 100, 100)], 3, 1920, 1080)
        assert gazes == [(100, 100)] * 3

    def test_interior_gap_holds_previous(self):
        gazes = densify_gaze([(0, 1, 2), (2, 5, 6)], 4, 64, 64)
        assert gazes == [(1, 2), (1, 2), (5, 6), (5, 6)]

    def test_clamping(self):
        gazes = densify_gaze([(0, 5000, -3)], 1, 1920, 1080)
        assert gazes == [(1919, 0)]

    def test_empty_track_rejected(self):
        with pytest.raises(ConfigError):
            densify_gaze([], 3, 64, 64)


class TestEncodeDecode:
    def test_round_trip(self, clip_path, tmp_path, capsys):
        out = tmp_path / "clip.fmvc"
        dec = tmp_path / "out.y4m"
        assert main(["encode", "--input", str(clip_path), "--output", str(out), "--fmsc", "H/4"]) == 0
        printed = capsys.readouterr().out
        assert "bpp" in printed and "frame 0:" in printed
        assert main(["decode", "--input", str(out), "--output", str(dec)]) == 0
        with open(out, "rb") as fh:
            recon = decode_sequence(fh.read())
        with open(dec, "rb") as fh:
            decoded = read_y4m(fh.read())
        assert decoded == recon

    def test_runs_are_reproducible(self, clip_path, tmp_path):
        outs = []
        for name in ("a.fmvc", "b.fmvc"):
            out = tmp_path / name
            assert main(["encode", "--input", str(clip_path), "--output", str(out), "--fmsc", "H/4"]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        csvs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert main(
                ["rd-sweep", "--input", str(clip_path), "--out", str(out), "--fmsc-set", "H/4"]
            ) == 0
            csvs.append(out.read_text())
        assert csvs[0] == csvs[1]

    def test_fmsc_rate_ordering(self, clip_path, tmp_path):
        bpps = {}
        for spec in ("H/6", "H/2"):
            out = tmp_path / f"{spec.replace('/', '_')}.fmvc"
            assert main(["encode", "--input", str(clip_path), "--output", str(out), "--fmsc", spec]) == 0
            with open(out, "rb") as fh:
                bpps[spec] = SequenceBitstream.from_bytes(fh.read()).bpp()
        assert bpps["H/2"] > bpps["H/6"]

    def test_gaze_track_file(self, clip_path, tmp_path):
        track = tmp_path / "gaze.csv"
        track.write_text("0,10,10\n3,50,30\n")  # short track: hold-last
        out = tmp_path / "g.fmvc"
        assert main(
            ["encode", "--input", str(clip_path), "--output", str(out), "--fmsc", "H/4",
             "--gaze", str(track)]
        ) == 0
        with open(out, "rb") as fh:
            sbs = SequenceBitstream.from_bytes(fh.read())
        assert (sbs.frames[0].gaze_x, sbs.frames[0].gaze_y) == (10, 10)
        assert (sbs.frames[6].gaze_x, sbs.frames[6].gaze_y) == (50, 30)

    def test_malformed_gaze_track_is_config_error(self, clip_path, tmp_path):
        track = tmp_path / "bad.csv"
        track.write_text("0,a,b\n")
        code = main(
            ["encode", "--input", str(clip_path), "--output", str(tmp_path / "x.fmvc"),
             "--fmsc", "H/4", "--gaze", str(track)]
        )
        assert code == 2

    def test_empty_gaze_track_is_config_error(self, clip_path, tmp_path, capsys):
        track = tmp_path / "empty.csv"
        track.write_text("")
        out = tmp_path / "never.fmvc"
        code = main(
            ["encode", "--input", str(clip_path), "--output", str(out), "--fmsc", "H/4",
             "--gaze", str(track)]
        )
        assert code == 2
        assert not out.exists()

    def test_missing_input_is_io_error(self, tmp_path):
        assert main(["encode", "--input", str(tmp_path / "no.y4m"), "--output", str(tmp_path / "x")]) == 4

    def test_bad_qbase_is_config_error(self, clip_path, tmp_path):
        assert (
            main(["encode", "--input", str(clip_path), "--output", str(tmp_path / "x"), "--qbase", "0"])
            == 2
        )

    # Each setting is checked once, by the type that owns it: QuantSchedule,
    # parse_fmsc, DisplayGeometry, or FoveationMap for a map it makes NaN.
    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--qbase", "65536"),
            ("--qbase", "100000000000000000000"),
            ("--qbase", "9007199254740993"),
            ("--fmsc", "H/0"),
            ("--fmsc", "H/nan"),
            ("--fmsc", "H/inf"),
            ("--fmsc", "nan"),
            ("--fmsc", "1e-300"),
            ("--screen-width", "-0.1"),
            ("--screen-width", "nan"),
            ("--screen-width", "inf"),
            ("--distance", "nan"),
        ],
    )
    def test_bad_setting_is_config_error(self, clip_path, tmp_path, capsys, flag, value):
        out = tmp_path / "x.fmvc"
        assert main(["encode", "--input", str(clip_path), "--output", str(out), flag, value]) == 2
        assert "error: " in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_fmsc_divisor_is_rejected_by_parse_fmsc(self, clip_path, tmp_path, capsys):
        out = tmp_path / "x.fmvc"
        assert main(["encode", "--input", str(clip_path), "--output", str(out), "--fmsc", "H/1e-320"]) == 2
        assert "is too small for a finite sigma" in capsys.readouterr().err
        assert not out.exists()

    def test_largest_qbase_round_trips(self, clip_path, tmp_path):
        out = tmp_path / "coarse.fmvc"
        assert main(["encode", "--input", str(clip_path), "--output", str(out), "--qbase", "65535"]) == 0
        assert SequenceBitstream.from_bytes(out.read_bytes()).q_base == 65535
        assert main(["decode", "--input", str(out), "--output", str(tmp_path / "y.y4m")]) == 0

    @pytest.mark.parametrize("q_base", [math.nan, math.inf, 2.0**63, 65536.0])
    def test_bad_stream_qbase_exit_code(self, clip_path, tmp_path, capsys, q_base):
        out = tmp_path / "q.fmvc"
        main(["encode", "--input", str(clip_path), "--output", str(out), "--fmsc", "H/4"])
        data = bytearray(out.read_bytes())
        struct.pack_into("<d", data, Q_BASE_AT, q_base)  # the header's last double
        out.write_bytes(reseal(data))
        capsys.readouterr()
        assert main(["decode", "--input", str(out), "--output", str(tmp_path / "y.y4m")]) == 3
        assert f"byte offset {Q_BASE_AT}" in capsys.readouterr().err

    def test_stream_of_another_level_count_exit_code(self, clip_path, tmp_path, capsys):
        out = tmp_path / "levels.fmvc"
        main(["encode", "--input", str(clip_path), "--output", str(out), "--fmsc", "H/4"])
        data = bytearray(out.read_bytes())
        data[N_LEVELS_AT] = 8  # the codec codes 16 levels only
        out.write_bytes(reseal(data))
        capsys.readouterr()
        assert main(["decode", "--input", str(out), "--output", str(tmp_path / "y.y4m")]) == 3
        err = capsys.readouterr().err
        assert f"byte offset {N_LEVELS_AT}" in err and "level count" in err and "Traceback" not in err

    def test_empty_payload_exit_code(self, tmp_path, capsys):
        rec = FrameRecord(4, 4, 0, FrameBitstream(b""))
        out = tmp_path / "empty.fmvc"
        out.write_bytes(SequenceBitstream(8, 8, 25, 1, 0.02, 0.012, 4, (rec,)).to_bytes())
        assert main(["decode", "--input", str(out), "--output", str(tmp_path / "y.y4m")]) == 3
        assert f"byte offset {HEADER_BYTES + LENGTH_AT}" in capsys.readouterr().err  # the frame's length field

    def test_corrupted_magic_exit_code_and_offset(self, clip_path, tmp_path, capsys):
        out = tmp_path / "c.fmvc"
        main(["encode", "--input", str(clip_path), "--output", str(out), "--fmsc", "H/4"])
        data = bytearray(out.read_bytes())
        data[1] = 0
        bad = tmp_path / "bad.fmvc"
        bad.write_bytes(bytes(data))
        assert main(["decode", "--input", str(bad), "--output", str(tmp_path / "y.y4m")]) == 3
        assert "byte offset 0" in capsys.readouterr().err

    def test_overlong_codeword_exit_code(self, tmp_path, capsys):
        w = PayloadWriter()
        w.write_prefix(0)
        w.write_ue(2**70)  # 141-bit codeword
        for _ in range(3):
            w.write_ue(0)  # end of the luma, Cb and Cr blocks
        rec = FrameRecord(4, 4, 0, FrameBitstream(w.getvalue()))
        out = tmp_path / "long.fmvc"
        out.write_bytes(SequenceBitstream(8, 8, 25, 1, 0.02, 0.012, 4, (rec,)).to_bytes())
        assert main(["decode", "--input", str(out), "--output", str(tmp_path / "y.y4m")]) == 3
        assert "byte offset" in capsys.readouterr().err

    # tmp_path and capsys are shared by the examples: each one overwrites
    # the file and drains the captured output.
    @settings(max_examples=40, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=frame_payloads())
    def test_decode_of_any_payload_exits_cleanly(self, tmp_path, capsys, case):
        w, h, payload = case
        rec = FrameRecord(0, 0, 0, FrameBitstream(payload))
        path = tmp_path / "any.fmvc"
        path.write_bytes(SequenceBitstream(w, h, 25, 1, 0.02, 0.012, 4, (rec,)).to_bytes())
        code = main(["decode", "--input", str(path), "--output", str(path.with_suffix(".y4m"))])
        err = capsys.readouterr().err
        assert code in (0, 2, 3)
        assert "Traceback" not in err
        if code:
            assert "error: " in err

    def test_unpackable_frame_rate_is_config_error(self, tmp_path, capsys, monkeypatch):
        seq = pan_clip(16, 16, 1, step=3)
        path = tmp_path / "fast.y4m"
        with open(path, "wb") as fh:
            write_y4m(VideoSequence(seq.frames, 120000, 1001), fh)
        calls = []
        original = codec.encode_frame
        monkeypatch.setattr(codec, "encode_frame", lambda *a, **k: calls.append(1) or original(*a, **k))
        assert main(["encode", "--input", str(path), "--output", str(tmp_path / "x.fmvc")]) == 2
        assert "fps_num 120000" in capsys.readouterr().err
        assert calls == []  # the header is checked before any frame is coded

    def test_header_over_the_decode_budget_exit_code(self, tmp_path, capsys):
        # a CRC-valid sequence header alone, declaring 65535x65535 frames
        header = struct.pack("<4sHHHHHI3dB", b"FMVC", codec.VERSION, 65535, 65535, 25, 1, 1, 0.5, 0.6, 4.0, 16)
        path = tmp_path / "huge.fmvc"
        path.write_bytes(reseal(header + bytes(4)))
        assert len(path.read_bytes()) == HEADER_BYTES
        assert main(["decode", "--input", str(path), "--output", str(tmp_path / "y.y4m")]) == 4
        err = capsys.readouterr().err
        assert "decode budget" in err and "Traceback" not in err

    def test_oversized_payload_exit_code(self, tmp_path, capsys):
        # a CRC-valid 16x16 frame whose payload is far longer than six blocks can be
        rec = FrameRecord(8, 8, 0, FrameBitstream(bytes(4) + b"\xa5" * (1 << 20)))
        path = tmp_path / "long.fmvc"
        path.write_bytes(SequenceBitstream(16, 16, 25, 1, 0.5, 0.6, 4, (rec,)).to_bytes())
        assert main(["decode", "--input", str(path), "--output", str(tmp_path / "y.y4m")]) == 3
        err = capsys.readouterr().err
        assert "longer than 16x16 allows" in err and f"byte offset {HEADER_BYTES + LENGTH_AT}" in err
        assert "Traceback" not in err

    def test_future_version_exit_code(self, clip_path, tmp_path, capsys):
        out = tmp_path / "v.fmvc"
        main(["encode", "--input", str(clip_path), "--output", str(out), "--fmsc", "H/4"])
        data = bytearray(out.read_bytes())
        struct.pack_into("<H", data, 4, codec.VERSION + 1)
        out.write_bytes(bytes(data))
        assert main(["decode", "--input", str(out), "--output", str(tmp_path / "y.y4m")]) == 3


def y4m_commands(clip, tmp_path):
    return {
        "encode": ["encode", "--input", clip, "--output", str(tmp_path / "x.fmvc")],
        "metrics": ["metrics", "--ref", clip, "--test", clip, "--out", str(tmp_path / "m.csv")],
        "rd-sweep": ["rd-sweep", "--input", clip, "--out", str(tmp_path / "s.csv"), "--fmsc-set", "H/4"],
    }


@pytest.mark.parametrize("command", ["encode", "metrics", "rd-sweep"])
def test_y4m_is_parsed_from_the_open_file(clip_path, tmp_path, monkeypatch, command):
    # read_y4m reads plane by plane from the file: no bytes copy of the whole file is made
    sources = []
    monkeypatch.setattr(cli, "read_y4m", lambda source: sources.append(source) or read_y4m(source))
    assert main(y4m_commands(str(clip_path), tmp_path)[command]) == 0
    assert sources and all(hasattr(s, "readline") and not isinstance(s, (bytes, bytearray)) for s in sources)


@pytest.mark.parametrize("command", ["encode", "metrics", "rd-sweep"])
@pytest.mark.parametrize("fault", ["open", "read", "gaze"])
def test_unreadable_y4m_exits_4(clip_path, tmp_path, capsys, monkeypatch, command, fault):
    clip = str(tmp_path if fault == "open" else clip_path)  # a directory cannot be opened for reading
    gaze = ["--gaze", str(tmp_path)] if fault == "gaze" else []

    def failing_read(source):
        source.read(10)
        raise OSError(5, "Input/output error")

    monkeypatch.setattr(cli, "read_y4m", failing_read if fault == "read" else read_y4m)
    assert main(y4m_commands(clip, tmp_path)[command] + gaze) == 4
    err = capsys.readouterr().err
    named = f" {str(tmp_path)!r}" if fault == "gaze" else ""  # the gaze track, not the clip
    assert err.startswith(f"input error: cannot read{named}") and "Traceback" not in err


@pytest.mark.parametrize("command", ["encode", "metrics", "rd-sweep"])
@pytest.mark.parametrize(
    "geometry",
    [["--screen-width", "5e-324"], ["--distance", "5e-324"], ["--screen-width", "1e308", "--distance", "1e-308"],
     ["--distance", "1e-320"], ["--screen-width", "1e-300", "--distance", "1e300"]],
    ids=["pitch-0", "distance-0", "distance-0-px", "distance-subnormal", "distance-inf-px"],
)
def test_geometry_outside_the_rule_exits_2(clip_path, tmp_path, capsys, command, geometry):
    assert main(y4m_commands(str(clip_path), tmp_path)[command] + geometry) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "geometry rule" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["metrics", "rd-sweep"])
def test_a_display_that_shows_nothing_exits_2(tmp_path, capsys, command):
    # a 32 * 2**-40 m wide screen seen from 1 m meets the geometry rule, but FWQI sees nothing on it
    clip = tmp_path / "small.y4m"
    with open(clip, "wb") as fh:
        write_y4m(pan_clip(32, 32, 2, step=3, seed=5), fh)
    out = tmp_path / "scores.csv"
    inputs = ["--input", str(clip)] if command == "rd-sweep" else ["--ref", str(clip), "--test", str(clip)]
    display = ["--screen-width", repr(32 * 2**-40), "--distance", "1.0"]
    assert main([command, *inputs, "--out", str(out), *display]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: nothing is visible at any FWQI scale on this display, whose Nyquist frequency is ")
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("command, fault", [("encode", "directory"), ("decode", "directory"), ("metrics", "directory"),
                                            ("rd-sweep", "directory"), ("decode", "write")])
def test_unwritable_output_exits_4(clip_path, tmp_path, capsys, monkeypatch, command, fault):
    clip, stream = str(clip_path), str(tmp_path / "in.fmvc")
    assert main(["encode", "--input", clip, "--output", stream]) == 0
    out = str(tmp_path if fault == "directory" else tmp_path / "out.y4m")  # a directory cannot be opened for writing

    def write_first_frame(seq, sink):
        write_y4m(VideoSequence(seq.frames[:1], seq.fps_num, seq.fps_den), sink)
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "write_y4m", write_first_frame if fault == "write" else write_y4m)
    argv = {
        "encode": ["encode", "--input", clip, "--output", out],
        "decode": ["decode", "--input", stream, "--output", out],
        "metrics": ["metrics", "--ref", clip, "--test", clip, "--out", out],
        "rd-sweep": ["rd-sweep", "--input", clip, "--out", out, "--fmsc-set", "H/4"],
    }[command]
    capsys.readouterr()
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"input error: cannot write {out!r}") and "Traceback" not in err


class TestMetricsCommand:
    def test_self_comparison(self, clip_path, tmp_path):
        out = tmp_path / "report.csv"
        code = main(["metrics", "--ref", str(clip_path), "--test", str(clip_path), "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == "frame_idx,bpp,mean_ssim,fw_ssim,fwqi_approx"
        assert len(lines) == 2 + 7
        first = lines[2].split(",")
        assert float(first[2]) == pytest.approx(1.0, abs=1e-9)
        assert float(first[3]) == pytest.approx(1.0, abs=1e-9)
        assert float(first[4]) == pytest.approx(1.0, abs=1e-9)

    def test_non_finite_geometry_is_config_error(self, clip_path, tmp_path):
        out = tmp_path / "report.csv"
        argv = ["metrics", "--ref", str(clip_path), "--test", str(clip_path), "--out", str(out)]
        assert main(argv + ["--distance", "nan"]) == 2
        assert main(argv + ["--screen-width", "inf"]) == 2
        assert not out.exists()

    def test_geometry_mismatch(self, clip_path, tmp_path):
        other = tmp_path / "small.y4m"
        with open(other, "wb") as fh:
            write_y4m(pan_clip(32, 32, 2, step=3), fh)
        assert main(["metrics", "--ref", str(clip_path), "--test", str(other)]) == 2


def _check_bad_gaze_track(clip_path, tmp_path, capsys, command, track_bytes):
    """command with a gaze track whose second row is bad exits 2, names the line and writes nothing."""
    track = tmp_path / "gaze.csv"
    track.write_bytes(track_bytes)
    out = tmp_path / "out"
    argv = {
        "encode": ["--input", str(clip_path), "--output", str(out)],
        "metrics": ["--ref", str(clip_path), "--test", str(clip_path), "--out", str(out)],
        "rd-sweep": ["--input", str(clip_path), "--out", str(out)],
    }[command]
    assert main([command, *argv, "--gaze", str(track)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "line 2" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["encode", "metrics", "rd-sweep"])
def test_non_ascii_gaze_track_is_config_error(clip_path, tmp_path, capsys, command):
    _check_bad_gaze_track(clip_path, tmp_path, capsys, command, b"0,10,10\n1,2\xc3\xa9,3\n")


@pytest.mark.parametrize("command", ["encode", "metrics", "rd-sweep"])
@pytest.mark.parametrize("row", [b"1,inf,5", b"1,1e400,5"])
def test_infinite_gaze_coordinate_is_config_error(clip_path, tmp_path, capsys, command, row):
    _check_bad_gaze_track(clip_path, tmp_path, capsys, command, b"0,10,10\n" + row + b"\n")


def test_zero_frame_rate_input_is_parse_error(tmp_path, capsys):
    clip = tmp_path / "still.y4m"
    clip.write_bytes(b"YUV4MPEG2 W8 H8 F0:1 Ip C420jpeg\nFRAME\n" + bytes(64 + 16 + 16))
    out = tmp_path / "never.fmvc"
    assert main(["encode", "--input", str(clip), "--output", str(out)]) == 4
    assert "frame-rate" in capsys.readouterr().err
    assert not out.exists()


# --- every parser the CLI feeds ends in an FmvcError --------------------------

# Fields of gaze rows and FMSC specs: numbers of every kind, and any text.
_FIELDS = st.one_of(
    st.integers().map(str),
    st.floats().map(repr),
    st.sampled_from(["inf", "-inf", "nan", "1e400", "1_0", " 7 ", "0x10", ""]),
    st.text(max_size=6),
)


@st.composite
def gaze_texts(draw):
    """Any text, rows of any fields, or well-formed rows with increasing frame indices."""
    kind = draw(st.integers(0, 2))
    if kind == 0:
        return draw(st.text())
    if kind == 1:
        return "\n".join(",".join(row) for row in draw(st.lists(st.lists(_FIELDS, min_size=2, max_size=4))))
    coord = st.one_of(st.integers(-100, 100).map(str), st.floats(-1e3, 1e3).map(repr))
    return "\n".join(f"{i}, {draw(coord)},{draw(coord)}" for i in sorted(draw(st.sets(st.integers(0, 30)))))


@given(gaze_texts())
def test_gaze_track_parsing_is_total(text):
    try:
        track = read_gaze_track(text)
    except ParseError:
        return
    assert all(type(v) is int for row in track for v in row)
    assert [row[0] for row in track] == sorted({row[0] for row in track})


@given(gaze_texts(), st.integers(0, 20), st.integers(1, 64), st.integers(1, 64))
def test_densify_of_any_parsed_track(text, frame_count, width, height):
    try:
        track = read_gaze_track(text)
    except ParseError:
        return
    try:
        gazes = densify_gaze(track, frame_count, width, height)
    except ConfigError:
        assert track == []
        return
    for frame, gaze in enumerate(gazes):
        earlier = [row for row in track if row[0] <= frame]
        _, x, y = earlier[-1] if earlier else track[0]
        assert gaze == (min(max(x, 0), width - 1), min(max(y, 0), height - 1))
    assert len(gazes) == frame_count


@given(st.one_of(st.text(), st.tuples(st.sampled_from(["", "H/", "h/", " H/"]), _FIELDS).map("".join)),
       st.integers(1, 4096))
@example("H/1e-320", 288)  # a finite divisor whose quotient overflows
@example("H/1e-306", 288)
def test_fmsc_parsing_is_total(text, height):
    try:
        sigma, code = parse_fmsc(text, height)
    except ConfigError:
        return
    assert math.isfinite(sigma) and sigma > 0 and type(code) is int and 0 <= code <= 255
    if code:
        assert sigma == height / code


# tmp_path and capsys are shared by the examples, as in the decode test above.
@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=y4m_files())
def test_encode_of_any_y4m_exits_cleanly(tmp_path, capsys, case):
    data, expected = case
    clip = tmp_path / "any.y4m"
    clip.write_bytes(data)
    code = main(["encode", "--input", str(clip), "--output", str(tmp_path / "any.fmvc")])
    err = capsys.readouterr().err
    assert code in ((0,) if expected is not None else (0, 2, 3, 4))
    assert "Traceback" not in err
    if code:
        assert "error: " in err


def test_oversized_frame_header_exits_4_without_traceback(tmp_path):
    clip = tmp_path / "huge.y4m"
    clip.write_bytes(b"YUV4MPEG2 W99999999999999999999 H2 F1:1\nFRAME\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    argv = [sys.executable, "-m", "fmvc.cli", "encode", "--input", str(clip), "--output", str(tmp_path / "x.fmvc")]
    run = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 4
    assert run.stderr.startswith("input error: ") and "Traceback" not in run.stderr


@pytest.mark.parametrize("fmsc", ["H/4", None])
@pytest.mark.parametrize("gaze", ["track", "center"])
def test_encode_builds_each_map_as_its_frame_is_coded(clip_path, tmp_path, monkeypatch, fmsc, gaze):
    # a gaze that moves every frame: one map built and quantized, then that frame's encode, and so
    # on; the centre gaze: one map built and quantized, then every frame's encode
    track = tmp_path / "gaze.csv"
    track.write_text("".join(f"{i},{4 + 5 * i},{3 + 4 * i}\n" for i in range(7)))
    build = "foveation_map" if fmsc is None else "gaussian_map"
    events = []
    for owner, name in ((cli, build), (codec, "quantize_map"), (codec, "encode_frame")):
        original = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, _f=original, _n=name, **k: events.append(_n) or _f(*a, **k))
    out = tmp_path / "coded.fmvc"
    argv = ["encode", "--input", str(clip_path), "--output", str(out), "--gaze", str(track) if gaze == "track" else gaze]
    assert main(argv + (["--fmsc", fmsc] if fmsc else [])) == 0
    built = [build, "quantize_map"]
    assert events == ((built + ["encode_frame"]) * 7 if gaze == "track" else built + ["encode_frame"] * 7)
    monkeypatch.undo()
    # the same bytes as coding from every map built up front
    with open(clip_path, "rb") as fh:
        seq = read_y4m(fh.read())
    w, h = seq.width, seq.height
    if gaze == "track":
        gazes = densify_gaze(read_gaze_track(track.read_text()), len(seq), w, h)
    else:
        gazes = [(w // 2, h // 2)] * len(seq)
    geom = DisplayGeometry(DEFAULT_SCREEN_WIDTH_M, DEFAULT_VIEWING_DISTANCE_M, w, h)
    maps = [gaussian_map(g, h / 4, w, h) if fmsc else foveation_map(geom, g) for g in gazes]
    listed, _ = codec.encode_sequence(
        seq, maps, codec.QuantSchedule(q_base=4), fmsc_codes=[4 if fmsc else 0] * len(seq),
        screen_width_m=DEFAULT_SCREEN_WIDTH_M, viewing_distance_m=DEFAULT_VIEWING_DISTANCE_M,
    )
    assert out.read_bytes() == listed.to_bytes()


def test_encode_keeps_no_reconstruction_chain(clip_path, tmp_path, monkeypatch):
    # when a frame is coded, the only earlier reconstruction still alive is its reference
    recons, alive = [], []
    original = codec.encode_frame

    def encode_frame(*args):
        gc.collect()
        alive.append(sum(ref() is not None for ref in recons))
        stream, recon = original(*args)
        recons.append(weakref.ref(recon))
        return stream, recon

    monkeypatch.setattr(codec, "encode_frame", encode_frame)
    assert main(["encode", "--input", str(clip_path), "--output", str(tmp_path / "x.fmvc")]) == 0
    assert alive == [0] + [1] * 6


class TestRdSweep:
    def test_default_sweep_rows(self, tmp_path):
        clip = tmp_path / "small.y4m"
        with open(clip, "wb") as fh:
            write_y4m(pan_clip(64, 64, 3, step=3, seed=5), fh)
        out = tmp_path / "sweep.csv"
        assert main(["rd-sweep", "--input", str(clip), "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[1] == "fmsc,bpp,mean_ssim,fw_ssim,fwqi_approx"
        rows = [line.split(",") for line in lines[2:]]
        assert len(rows) == 6
        sigmas = [float(r[0]) for r in rows]
        assert sigmas == sorted(sigmas)
        assert sigmas == pytest.approx([64 / k for k in (10, 8, 6, 4, 3, 2)], abs=1e-3)

    def test_center_gaze_builds_one_map_per_chain(self, tmp_path, monkeypatch):
        # the gaze never moves, so each chain's one map, quantized once, serves every frame
        clip = tmp_path / "small.y4m"
        with open(clip, "wb") as fh:
            write_y4m(pan_clip(64, 64, 3, step=3, seed=5), fh)
        calls = []
        for module, name in ((cli, "gaussian_map"), (codec, "quantize_map")):
            original = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, _f=original, _n=name: calls.append(_n) or _f(*a))
        out = tmp_path / "sweep.csv"
        assert main(["rd-sweep", "--input", str(clip), "--out", str(out), "--gaze", "center"]) == 0
        assert calls.count("gaussian_map") == calls.count("quantize_map") == 6

    def test_moving_gaze_builds_one_map_per_chain_per_gaze_change(self, tmp_path, monkeypatch):
        # the golden rd_sweep_track clip and track: frames 0-3 look at (3, 2), (40, 27), (40, 27), (12, 20)
        clip = tmp_path / "ref.y4m"
        with open(clip, "wb") as fh:
            write_y4m(natural_clip(45, 34, 4, seed=31), fh)
        track = tmp_path / "gaze.csv"
        track.write_text(GAZE_TRACK)
        changes = [(3, 2), (40, 27), (12, 20)]
        calls = {"gaussian_map": [], "quantize_map": [], "foveation_map": []}
        for module, name, key in ((cli, "gaussian_map", lambda a: (tuple(a[0]), a[1])),
                                  (codec, "quantize_map", lambda a: a[0].gaze),
                                  (cli, "foveation_map", lambda a: tuple(a[1]))):
            original = getattr(module, name)
            monkeypatch.setattr(module, name,
                                lambda *a, _f=original, _n=name, _k=key: calls[_n].append(_k(a)) or _f(*a))
        argv = ["rd-sweep", "--input", str(clip), "--out", str(tmp_path / "sweep.csv"),
                "--gaze", str(track), "--fmsc-set", "H/4,H/2"]
        assert main(argv) == 0
        sigmas = [34 / 4, 34 / 2]
        assert sorted(calls["gaussian_map"]) == sorted((g, s) for g in changes for s in sigmas)
        assert sorted(calls["quantize_map"]) == sorted((float(x), float(y)) for x, y in changes for _ in sigmas)
        assert calls["foveation_map"] == changes

    @pytest.mark.parametrize("command", ["rd-sweep", "metrics"])
    def test_center_gaze_scores_against_one_csf_map(self, tmp_path, monkeypatch, command):
        clip = tmp_path / "small.y4m"
        with open(clip, "wb") as fh:
            write_y4m(pan_clip(64, 64, 3, step=3, seed=5), fh)
        calls = []
        original = cli.foveation_map
        monkeypatch.setattr(cli, "foveation_map", lambda *a: calls.append(1) or original(*a))
        inputs = ["--input", str(clip)] if command == "rd-sweep" else ["--ref", str(clip), "--test", str(clip)]
        assert main([command, *inputs, "--out", str(tmp_path / "out.csv"), "--gaze", "center"]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("fmsc_set", ["H/4,H/nan", "H/inf", "H/4,H/0", ""])
    def test_every_spec_checked_before_encoding(self, tmp_path, capsys, monkeypatch, fmsc_set):
        clip = tmp_path / "small.y4m"
        with open(clip, "wb") as fh:
            write_y4m(pan_clip(16, 16, 1, step=3), fh)
        calls = []
        original = codec.encode_frame
        monkeypatch.setattr(codec, "encode_frame", lambda *a, **k: calls.append(1) or original(*a, **k))
        out = tmp_path / "sweep.csv"
        assert main(["rd-sweep", "--input", str(clip), "--out", str(out), "--fmsc-set", fmsc_set]) == 2
        assert "error: " in capsys.readouterr().err
        assert calls == [] and not out.exists()

    def test_unscorable_clip_rejected_before_encoding(self, tmp_path, capsys, monkeypatch):
        # 8 rows cannot host the 4-level FWQI decomposition
        clip = tmp_path / "flat.y4m"
        with open(clip, "wb") as fh:
            write_y4m(pan_clip(24, 8, 3, step=1), fh)
        calls = []
        original = codec.encode_frame
        monkeypatch.setattr(codec, "encode_frame", lambda *a, **k: calls.append(1) or original(*a, **k))
        out = tmp_path / "sweep.csv"
        assert main(["rd-sweep", "--input", str(clip), "--out", str(out)]) == 2
        assert "cannot host a 4-level decomposition" in capsys.readouterr().err
        assert calls == [] and not out.exists()
        report = tmp_path / "report.csv"
        assert main(["metrics", "--ref", str(clip), "--test", str(clip), "--out", str(report)]) == 2
        assert not report.exists()

    def test_custom_fmsc_set(self, tmp_path):
        clip = tmp_path / "small.y4m"
        with open(clip, "wb") as fh:
            write_y4m(pan_clip(32, 32, 2, step=3, seed=5), fh)
        out = tmp_path / "sweep.csv"
        assert main(["rd-sweep", "--input", str(clip), "--out", str(out), "--fmsc-set", "H/4,H/2"]) == 0
        assert len(out.read_text().strip().splitlines()) == 4
