import math
import struct

import pytest
from hypothesis import HealthCheck, given, settings

from fmvc import cli, codec
from fmvc.cli import build_parser, densify_gaze, main, parse_fmsc, read_gaze_track
from fmvc.codec import FrameBitstream, FrameRecord, SequenceBitstream, decode_sequence
from fmvc.errors import ConfigError, ParseError
from fmvc.video_io import VideoSequence, read_y4m, write_y4m

from bitref import PayloadWriter
from conftest import HEADER_BYTES, LENGTH_AT, Q_BASE_AT, frame_payloads, pan_clip, reseal


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

    def test_future_version_exit_code(self, clip_path, tmp_path, capsys):
        out = tmp_path / "v.fmvc"
        main(["encode", "--input", str(clip_path), "--output", str(out), "--fmsc", "H/4"])
        data = bytearray(out.read_bytes())
        struct.pack_into("<H", data, 4, codec.VERSION + 1)
        out.write_bytes(bytes(data))
        assert main(["decode", "--input", str(out), "--output", str(tmp_path / "y.y4m")]) == 3


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


@pytest.mark.parametrize("command", ["encode", "metrics", "rd-sweep"])
def test_non_ascii_gaze_track_is_config_error(clip_path, tmp_path, capsys, command):
    track = tmp_path / "gaze.csv"
    track.write_bytes(b"0,10,10\n1,2\xc3\xa9,3\n")
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

    @pytest.mark.parametrize("fmsc_set", ["H/4,H/nan", "H/inf", "H/4,H/0"])
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
