"""Command-line front end: encode, decode, metrics, and the FMSC rate sweep.

Exit codes: 0 ok, 2 configuration error, 3 bitstream error, 4 I/O or input
parsing error.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import codec, metrics
from .errors import (
    BitstreamError,
    ConfigError,
    FmvcError,
    IoError,
    ParseError,
    TruncatedStream,
    UnsupportedFormat,
)
from .foveation import (
    DEFAULT_SCREEN_WIDTH_M,
    DEFAULT_VIEWING_DISTANCE_M,
    DisplayGeometry,
    foveation_map,
    gaussian_map,
)
from .video_io import read_y4m, write_y4m

DEFAULT_FMSC_DIVISORS = (10, 8, 6, 4, 3, 2)


def parse_fmsc(text: str, frame_height: int) -> tuple[float, int]:
    """Parse an FMSC flag: 'H/k' (height divisor) or a pixel count.

    Returns (sigma in pixels, code) where code is the divisor for H/k forms
    with integer k in [1, 255], else 0.
    """
    text = text.strip()
    divided = text.upper().startswith("H/")
    try:
        value = float(text[2:] if divided else text)
    except ValueError:
        raise ConfigError(f"FMSC must be 'H/k' or a pixel count, got {text!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise ConfigError(f"FMSC must be positive and finite, got {text!r}")
    sigma = frame_height / value if divided else value
    if not math.isfinite(sigma):
        raise ConfigError(f"FMSC divisor in {text!r} is too small for a finite sigma")
    return sigma, int(value) if divided and value == int(value) and 1 <= value <= 255 else 0


def read_gaze_track(text: str) -> list[tuple[int, int, int]]:
    """Parse ASCII 'frame_idx,x,y' rows with strictly increasing frame indices."""
    track = []
    prev_idx = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.isascii():
            raise ParseError(f"non-ASCII character in {raw!r}", line=lineno)
        line = raw.strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 3:
            raise ParseError(f"expected 'frame_idx,x,y', got {raw!r}", line=lineno)
        try:
            idx, x, y = int(parts[0]), int(float(parts[1])), int(float(parts[2]))
        except (ValueError, OverflowError):  # int() of an infinite coordinate overflows
            raise ParseError(f"non-numeric or infinite field in {raw!r}", line=lineno) from None
        if idx <= prev_idx:
            raise ParseError(f"frame indices must be strictly increasing, got {idx}", line=lineno)
        prev_idx = idx
        track.append((idx, x, y))
    return track


def densify_gaze(
    track: list[tuple[int, int, int]], frame_count: int, width: int, height: int
) -> list[tuple[int, int]]:
    """Per-frame gaze from a sparse track: hold the last row through gaps and
    past the end; frames before the first row take its gaze.  Coordinates are
    clamped into the frame."""
    if not track:
        raise ConfigError("gaze track contains no rows")
    gazes = []
    pos = 0
    current = (track[0][1], track[0][2])
    for frame in range(frame_count):
        while pos < len(track) and track[pos][0] <= frame:
            current = (track[pos][1], track[pos][2])
            pos += 1
        x = min(max(current[0], 0), width - 1)
        y = min(max(current[1], 0), height - 1)
        gazes.append((x, y))
    return gazes


def _resolve_gazes(gaze_arg: str, frame_count: int, width: int, height: int) -> list[tuple[int, int]]:
    if gaze_arg == "center":
        return [(width // 2, height // 2)] * frame_count
    # undecodable bytes become lone surrogates, which read_gaze_track
    # rejects with the line they sit on
    text = _read(gaze_arg, lambda fh: fh.read().decode("ascii", "surrogateescape"))
    try:
        track = read_gaze_track(text)
    except ParseError as exc:
        raise ConfigError(f"gaze track {gaze_arg!r}: {exc}") from exc
    return densify_gaze(track, frame_count, width, height)


def _read(path: str, parse):
    """parse(the file at path, opened for binary reading); an OSError from
    the open or from any read is an IoError."""
    try:
        with open(path, "rb") as fh:
            return parse(fh)
    except OSError as exc:
        raise IoError(f"cannot read {path!r}: {exc}") from exc


def _write(path: str, write):
    """write(the file at path, opened for binary writing); an OSError from
    the open or from any write is an IoError."""
    try:
        with open(path, "wb") as fh:
            return write(fh)
    except OSError as exc:
        raise IoError(f"cannot write {path!r}: {exc}") from exc


def _per_gaze(gazes: list[tuple[int, int]], build):
    """build(gaze) once per gaze change, yielded for every frame: while the
    gaze repeats, the previous frame's object is yielded again."""
    last = built = None
    for g in gazes:
        if g != last:
            built, last = build(g), g
        yield built


def _level_maps(gazes: list[tuple[int, int]], sigma: float | None, geom: DisplayGeometry):
    """A (level map, gaze) pair for every frame, the map built and quantized
    once per gaze change, and only its level map kept: a gaussian map of
    width sigma, or with sigma None the contrast-sensitivity map of geom."""
    def build(g):
        return foveation_map(geom, g) if sigma is None else gaussian_map(g, sigma, geom.width_px, geom.height_px)

    return _per_gaze(gazes, lambda g: (codec.quantize_map(build(g), codec.MAX_LEVELS), g))


def cmd_encode(args) -> int:
    seq = _read(args.input, read_y4m)
    sched = codec.QuantSchedule(q_base=args.qbase)
    geom = DisplayGeometry(args.screen_width, args.distance, seq.width, seq.height)
    sigma, code = parse_fmsc(args.fmsc, seq.height) if args.fmsc is not None else (None, 0)
    gazes = _resolve_gazes(args.gaze, len(seq), seq.width, seq.height)
    levels = _level_maps(gazes, sigma, geom)
    records = (rec for rec, _ in codec.encode_frames(seq, levels, sched, fmsc_codes=[code] * len(seq)))
    sbs = codec.sequence_bitstream(seq, records, sched, geom.screen_width_m, geom.viewing_distance_m)
    data = sbs.to_bytes()
    _write(args.output, lambda fh: fh.write(data))
    print(f"encoded {sbs.frame_count} frames {sbs.width}x{sbs.height} -> {len(data)} bytes")
    print(f"bpp {sbs.bpp():.6f}")
    for i, rec in enumerate(sbs.frames):
        print(f"frame {i}: {8 * len(rec.bitstream.payload)} bits")
    return 0


def cmd_decode(args) -> int:
    sbs = codec.SequenceBitstream.from_bytes(_read(args.input, lambda fh: fh.read()))
    seq = codec.decode_sequence(sbs)
    count = _write(args.output, lambda fh: write_y4m(seq, fh))
    print(f"decoded {len(seq)} frames {seq.width}x{seq.height} -> {count} bytes")
    return 0


# The foveation-weighted SSIM column is computed against the continuous
# (unquantized) sensitivity map; the CSV header records that choice.
_REPORT_PREAMBLE = "# fw_ssim weighted by the continuous foveation map"


def _scores(ref, test, fmap, gaze, geom) -> tuple[float, float, float]:
    """Mean SSIM, foveation-weighted SSIM and FWQI of one test plane against a
    reference plane or a FrameReference."""
    smap = metrics.ssim_map(ref, test)
    fwqi = metrics.fwqi_approx(ref, test, gaze, geom)
    return float(smap.mean()), metrics.fw_ssim_from_map(smap, fmap), fwqi


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        _write(path, lambda fh: fh.write(text.encode("ascii")))


def cmd_metrics(args) -> int:
    ref_seq = _read(args.ref, read_y4m)
    test_seq = _read(args.test, read_y4m)
    if (ref_seq.width, ref_seq.height, len(ref_seq)) != (
        test_seq.width,
        test_seq.height,
        len(test_seq),
    ):
        raise ConfigError("reference and test sequences disagree on geometry or length")
    geom = DisplayGeometry(args.screen_width, args.distance, ref_seq.width, ref_seq.height)
    gazes = _resolve_gazes(args.gaze, len(ref_seq), ref_seq.width, ref_seq.height)
    lines = [_REPORT_PREAMBLE, "frame_idx,bpp,mean_ssim,fw_ssim,fwqi_approx"]
    maps = _per_gaze(gazes, lambda g: foveation_map(geom, g))
    for i, (ref, test, gaze, fmap) in enumerate(zip(ref_seq.frames, test_seq.frames, gazes, maps)):
        ms, fw, fq = _scores(ref.y, test.y, fmap, gaze, geom)
        lines.append(f"{i},{0.0:.6f},{ms:.6f},{fw:.6f},{fq:.6f}")
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_rd_sweep(args) -> int:
    seq = _read(args.input, read_y4m)
    specs = args.fmsc_set.split(",") if args.fmsc_set is not None else [f"H/{k}" for k in DEFAULT_FMSC_DIVISORS]
    sched = codec.QuantSchedule(q_base=args.qbase)
    geom = DisplayGeometry(args.screen_width, args.distance, seq.width, seq.height)
    fmscs = [parse_fmsc(spec, seq.height) for spec in specs]  # all checked before the first encode
    gazes = _resolve_gazes(args.gaze, len(seq), seq.width, seq.height)

    # The chains run in lockstep, one clip frame at a time, so each frame's
    # reference is built once, before any chain codes the frame, scored
    # against every chain's reconstruction and dropped before the next.
    steps = zip(*[codec.encode_frames(seq, _level_maps(gazes, sigma, geom), sched, fmsc_codes=[code] * len(seq))
                  for sigma, code in fmscs])
    bits, scores = [0] * len(fmscs), [[] for _ in fmscs]
    for frame, gaze, fmap in zip(seq.frames, gazes, _per_gaze(gazes, lambda g: foveation_map(geom, g))):
        ref = metrics.FrameReference(frame.y)
        metrics.fwqi_weights(ref.plane.shape, gaze, geom)  # rejects a clip FWQI cannot score
        for k, (rec, recon) in enumerate(next(steps)):
            bits[k] += 8 * len(rec.bitstream.payload)
            scores[k].append(_scores(ref, recon.y, fmap, gaze, geom))
        del ref

    pixels = seq.width * seq.height * len(seq)
    lines = [_REPORT_PREAMBLE, "fmsc,bpp,mean_ssim,fw_ssim,fwqi_approx"]
    for (sigma, _), total, point in zip(fmscs, bits, scores):
        ms, fw, fq = (float(np.mean(column)) for column in zip(*point))
        lines.append(f"{sigma:.3f},{total / pixels:.6f},{ms:.6f},{fw:.6f},{fq:.6f}")
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fmvc",
        description="Gaze-contingent video codec and rate-distortion harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_geometry(p):
        p.add_argument("--screen-width", type=float, default=DEFAULT_SCREEN_WIDTH_M,
                       help="screen width in meters (default %(default)s)")
        p.add_argument("--distance", type=float, default=DEFAULT_VIEWING_DISTANCE_M,
                       help="viewing distance in meters (default %(default)s)")

    def add_gaze(p):
        p.add_argument("--gaze", default="center",
                       help="'center' or a CSV gaze track 'frame_idx,x,y'; short "
                            "tracks hold their last gaze through remaining frames")

    enc = sub.add_parser("encode", help="encode a .y4m file to a .fmvc bitstream")
    enc.add_argument("--input", required=True)
    enc.add_argument("--output", required=True)
    enc.add_argument("--fmsc", default=None,
                     help="gaussian map width: 'H/k' or pixels; omit to use the "
                          "contrast-sensitivity map")
    enc.add_argument("--qbase", type=int, default=4, help="base quantizer step (default 4)")
    add_gaze(enc)
    add_geometry(enc)
    enc.set_defaults(func=cmd_encode)

    dec = sub.add_parser("decode", help="decode a .fmvc bitstream to .y4m")
    dec.add_argument("--input", required=True)
    dec.add_argument("--output", required=True)
    dec.set_defaults(func=cmd_decode)

    met = sub.add_parser("metrics", help="quality report between two .y4m files")
    met.add_argument("--ref", required=True)
    met.add_argument("--test", required=True)
    met.add_argument("--out", default=None, help="CSV output path (default stdout)")
    add_gaze(met)
    add_geometry(met)
    met.set_defaults(func=cmd_metrics)

    sweep = sub.add_parser("rd-sweep", help="rate-distortion sweep over FMSC values")
    sweep.add_argument("--input", required=True)
    sweep.add_argument("--out", default=None, help="CSV output path (default stdout)")
    sweep.add_argument("--fmsc-set", default=None,
                       help="comma-separated FMSC specs (default H/10,H/8,H/6,H/4,H/3,H/2)")
    sweep.add_argument("--qbase", type=int, default=4)
    add_gaze(sweep)
    add_geometry(sweep)
    sweep.set_defaults(func=cmd_rd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BitstreamError as exc:
        print(f"bitstream error: {exc}", file=sys.stderr)
        return 3
    except (IoError, ParseError, UnsupportedFormat, TruncatedStream) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 4
    except FmvcError as exc:  # ConfigError, ContractViolation and the rest
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
