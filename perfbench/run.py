"""fmvc benchmark: per-frame encode/decode latency and rate-distortion sweep time.

    python3 perfbench/run.py --workload cif_natural --seed 1 --seconds 25 --trace 0

Runs one workload (or ``all``) in this process with one thread, checks the
outputs, prints every metric by name with its unit and sample count, and ends
with one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the JSON metrics are the end-to-end ones, measured with no
hooks installed; with ``--trace 1`` they are the per-layer ones from a
traced run.  The workloads and metrics are described in perfbench/README.md.
Exits non-zero when any check fails or when the fmvc sources are missing.
"""

import os
import sys
import time

# Thread pools size themselves when numpy loads, so pin them first.
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKDIR = HERE / "_work"

if not (SRC / "fmvc" / "__init__.py").is_file():
    sys.exit(f"perfbench: fmvc sources not found under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from fmvc import cli, codec, foveation, metrics  # noqa: E402
from fmvc.video_io import VideoSequence, write_y4m  # noqa: E402

from clock import REFERENCE_S, reference_seconds  # noqa: E402
from inputs import WORKLOADS, Workload, gaze_track, natural_clip  # noqa: E402
from spans import COUNTED, TIMED, Tracer  # noqa: E402

SETUP_REPEATS = 3
# Times the imports in a fresh interpreter, so that set-up can be repeated.
_IMPORT_PROBE = (
    "import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
    "import numpy, scipy.ndimage, fmvc.cli; print(time.perf_counter() - t)"
)
MIN_PASSES = 2  # the stream-hash check compares passes

# Metric names and units as BENCHMARK.json lists them.
END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "peak_rss_mb": "MB",
    "bpp": "bit/px",
    "fw_ssim": "score",
    "fwqi": "score",
}
PER_LAYER = {**{m: "ms" for m in TIMED}, **{m: u for m, (u, _a) in COUNTED.items()}}
PER_LAYER["trace.overhead_pct"] = "%"


@dataclass
class Checks:
    """Output checks: every one is an attempt, every mismatch a failure."""

    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)

    def error(self, what: str) -> None:
        self.check(False, what)
        traceback.print_exc(file=sys.stderr)


@dataclass
class Inputs:
    seq: VideoSequence
    gazes: list
    y4m: Path | None


@dataclass
class Pass:
    wall_s: float
    digest: str
    scale: float = 1.0  # REFERENCE_S over the reference kernel's time around this pass
    encode_s: float = 0.0
    decode_s: float = 0.0
    encode_ms: list = field(default_factory=list)
    decode_ms: list = field(default_factory=list)
    data: bytes = b""
    recons: list = field(default_factory=list)
    decoded: list = field(default_factory=list)
    csv: str = ""


# --- inputs -------------------------------------------------------------


def make_inputs(wl: Workload, seed: int, tag: str) -> Inputs:
    seq = natural_clip(wl.width, wl.height, wl.frames, seed)
    gazes = gaze_track(wl, seed)
    y4m = None
    if wl.kind == "sweep":
        y4m = WORKDIR / f"{tag}.y4m"
        with open(y4m, "wb") as fh:
            write_y4m(seq, fh)
    return Inputs(seq, gazes, y4m)


def import_seconds() -> float:
    """Import time of numpy, scipy and fmvc in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout)


def timed_setup(wl: Workload, seed: int, tag: str) -> tuple[Inputs, list[float], list[float]]:
    """Set up SETUP_REPEATS times: each sample is one fresh import plus one
    input generation.  Returns the inputs, the wall times, and the wall
    times scaled to reference speed."""
    walls, scaled = [], []
    before = reference_seconds()
    for _ in range(SETUP_REPEATS):
        imports = import_seconds()
        t = time.perf_counter()
        inputs = make_inputs(wl, seed, tag)
        walls.append(imports + time.perf_counter() - t)
        after = reference_seconds()
        scaled.append(walls[-1] * REFERENCE_S / ((before + after) / 2))
        before = after
    return inputs, walls, scaled


# --- passes -------------------------------------------------------------


def _map(wl: Workload, gaze, geom):
    # Looked up through the module at call time, so the tracer's hooks apply.
    if wl.fmsc_divisor is None:
        return foveation.foveation_map(geom, gaze)
    return foveation.gaussian_map(gaze, wl.height / wl.fmsc_divisor, wl.width, wl.height)


def codec_pass(wl: Workload, inputs: Inputs, tracer: Tracer | None = None, frames=None) -> Pass:
    """Encode frame by frame, store the stream, then decode it frame by frame.

    Encode time per frame covers the map build, quantize_map and
    encode_frame; decode time covers decode_frame.  The pass times include
    the container's to_bytes and from_bytes.
    """
    seq = inputs.seq
    frames = seq.frames if frames is None else frames
    w, h = seq.width, seq.height
    geom = foveation.default_geometry(w, h)
    sched = codec.QuantSchedule(q_base=wl.q_base)
    code = wl.fmsc_divisor or 0
    p = Pass(0.0, "")

    t_pass = time.perf_counter()
    prev = codec.midgray_frame(w, h)
    records = []
    for i, (frame, gaze) in enumerate(zip(frames, inputs.gazes)):
        if tracer is not None:
            tracer.frame = i
        t = time.perf_counter()
        level_map = foveation.quantize_map(_map(wl, gaze, geom), sched.n_levels)
        stream, prev = codec.encode_frame(frame, prev, level_map, sched)
        p.encode_ms.append(1e3 * (time.perf_counter() - t))
        records.append(codec.FrameRecord(gaze[0], gaze[1], code, stream))
        p.recons.append(prev)
    p.data = codec.SequenceBitstream(
        w, h, seq.fps_num, seq.fps_den, geom.screen_width_m, geom.viewing_distance_m,
        sched.q_base, tuple(records),
    ).to_bytes()
    t_mid = time.perf_counter()

    sbs = codec.SequenceBitstream.from_bytes(p.data)
    dsched = codec.QuantSchedule(q_base=sbs.q_base)
    prev = codec.midgray_frame(sbs.width, sbs.height)
    for i, rec in enumerate(sbs.frames):
        if tracer is not None:
            tracer.frame = i
        t = time.perf_counter()
        prev = codec.decode_frame(rec.bitstream, prev, dsched)
        p.decode_ms.append(1e3 * (time.perf_counter() - t))
        p.decoded.append(prev)
    t_end = time.perf_counter()

    p.encode_s, p.decode_s, p.wall_s = t_mid - t_pass, t_end - t_mid, t_end - t_pass
    p.digest = hashlib.sha256(p.data).hexdigest()
    return p


def sweep_pass(inputs: Inputs, checks: Checks, tracer: Tracer | None = None) -> Pass:
    """One ``fmvc rd-sweep`` with the default six FMSC points, in-process."""
    out = inputs.y4m.with_suffix(".csv")
    if tracer is not None:
        tracer.frame = -1
    t = time.perf_counter()
    rc = cli.main(["rd-sweep", "--input", str(inputs.y4m), "--out", str(out)])
    wall = time.perf_counter() - t
    checks.check(rc == 0, f"rd-sweep exit code {rc}")
    csv = out.read_text(encoding="ascii")
    return Pass(wall, hashlib.sha256(csv.encode("ascii")).hexdigest(), csv=csv)


def run_pass(wl: Workload, inputs: Inputs, checks: Checks, tracer: Tracer | None) -> Pass | None:
    """One pass with its output checks; None when it raised."""
    gc.collect()
    if tracer is not None:
        tracer.install()
    try:
        if wl.kind == "sweep":
            return sweep_pass(inputs, checks, tracer)
        p = codec_pass(wl, inputs, tracer)
    except (Exception, SystemExit):  # argparse exits on a bad command line
        checks.error(f"{wl.name} pass raised")
        return None
    finally:
        if tracer is not None:
            tracer.remove()
    for i, (got, want) in enumerate(zip(p.decoded, p.recons)):
        checks.check(got == want, f"frame {i} decodes differently from the encoder's reconstruction")
    checks.check(len(p.decoded) == len(p.recons), "decoded frame count differs")
    p.decoded = []
    return p


def warm_up(wl: Workload, inputs: Inputs) -> None:
    """One untimed frame pair, so lazy set-up is not timed."""
    codec_pass(wl, inputs, frames=inputs.seq.frames[:1])


# --- quality ------------------------------------------------------------


def codec_quality(inputs: Inputs, p: Pass) -> dict[str, float]:
    """bpp of the stream; FW-SSIM and FWQI of the reconstruction, weighted as
    ``fmvc metrics`` weights them (the continuous map around each gaze)."""
    seq = inputs.seq
    geom = foveation.default_geometry(seq.width, seq.height)
    fw, fq = [], []
    for frame, recon, gaze in zip(seq.frames, p.recons, inputs.gazes):
        smap = metrics.ssim_map(frame.y, recon.y)
        fw.append(metrics.fw_ssim_from_map(smap, foveation.foveation_map(geom, gaze)))
        fq.append(metrics.fwqi_approx(frame.y, recon.y, gaze, geom))
    bpp = codec.SequenceBitstream.from_bytes(p.data).bpp()
    return {"bpp": bpp, "fw_ssim": float(np.mean(fw)), "fwqi": float(np.mean(fq))}


def sweep_quality(csv: str) -> dict[str, float]:
    """Means over the sweep's rows."""
    lines = [ln for ln in csv.splitlines() if ln and not ln.startswith("#")]
    cols = lines[0].split(",")
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    mean = dict(zip(cols, rows.mean(axis=0)))
    return {"bpp": mean["bpp"], "fw_ssim": mean["fw_ssim"], "fwqi": mean["fwqi_approx"]}


# --- one workload -------------------------------------------------------


def environment() -> dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, warm up, run passes for `seconds`, check, and reduce.

    Returns the report rows {name: (value, unit, samples)}, the JSON metrics
    and the check counts.  With trace, passes alternate untraced and traced.
    """
    WORKDIR.mkdir(exist_ok=True)
    tag = f"{wl.name}-{os.getpid()}"
    checks = Checks()
    report: dict[str, tuple[float, str, int]] = {}
    try:
        inputs, setup_wall, setup = timed_setup(wl, seed, tag)
        report["setup_s"] = (statistics.median(setup), "s", len(setup))
        report["setup_wall_s"] = (statistics.median(setup_wall), "s", len(setup))
        try:
            warm_up(wl, inputs)
        except Exception:
            checks.error("warm-up frame pair raised")

        tracer = Tracer() if trace else None
        plain, traced = [], []
        refs = [reference_seconds()]
        deadline = time.perf_counter() + seconds
        k = 0
        while k < MIN_PASSES or time.perf_counter() < deadline:
            on = trace and k % 2 == 1
            p = run_pass(wl, inputs, checks, tracer if on else None)
            k += 1
            refs.append(reference_seconds())
            if p is None:
                continue
            p.scale = REFERENCE_S / ((refs[-2] + refs[-1]) / 2)
            if plain or traced:
                first = (plain or traced)[0]
                checks.check(p.digest == first.digest, f"pass {k} output hash differs")
                p.data, p.recons = b"", []  # only the first pass's output is scored
            (traced if on else plain).append(p)
    finally:
        for suffix in (".y4m", ".csv"):
            (WORKDIR / f"{tag}{suffix}").unlink(missing_ok=True)

    n = len(plain)
    if trace:
        layers = tracer.layer_metrics(len(traced) * wl.frames)
        if plain and traced:
            base = statistics.median(p.wall_s for p in plain)
            over = 100.0 * (statistics.median(p.wall_s for p in traced) / base - 1.0)
        else:
            over = 0.0
        layers["trace.overhead_pct"] = (over, "%")
        tracer.write(WORKDIR / f"spans_{wl.name}_seed{seed}.jsonl")
        for name, (value, unit) in layers.items():
            report[name] = (value, unit, len(traced))
        absent = tracer.absent()
    else:
        absent = []
        if n:
            report["pass_s"] = (statistics.median(p.wall_s * p.scale for p in plain), "s", n)
            report["pass_wall_s"] = (statistics.median(p.wall_s for p in plain), "s", n)
            report["reference_ms"] = (1e3 * statistics.median(refs), "ms", len(refs))
            if wl.kind == "codec":
                enc = [x for p in plain for x in p.encode_ms]
                dec = [x for p in plain for x in p.decode_ms]
                report["encode_fps"] = (statistics.median(wl.frames / p.encode_s for p in plain), "frames/s", n)
                report["decode_fps"] = (statistics.median(wl.frames / p.decode_s for p in plain), "frames/s", n)
                for stage, samples in (("encode", enc), ("decode", dec)):
                    for q in (50, 90):
                        report[f"{stage}_frame_ms_p{q}"] = (float(np.percentile(samples, q)), "ms", len(samples))
                quality = codec_quality(inputs, plain[0])
            else:
                report["sweep_s"] = (statistics.median(p.wall_s for p in plain), "s", n)
                quality = sweep_quality(plain[0].csv)
            for name, value in quality.items():
                report[name] = (value, END_TO_END[name], 1)
        report["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1)

    report["error_rate"] = (checks.failed / max(checks.attempted, 1), "share", checks.attempted)
    names = PER_LAYER if trace else END_TO_END
    return {
        "workload": wl.name,
        "seed": seed,
        "trace": trace,
        "sha256": (plain + traced)[0].digest if plain + traced else "",
        "report": report,
        "absent": absent,
        "notes": checks.notes,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "correct": checks.failed == 0 and all(m in report for m in names),
        "metrics": {m: {"value": report[m][0], "unit": u} for m, u in names.items() if m in report},
    }


def print_report(res: dict, env: dict) -> None:
    print(f"workload {res['workload']}  seed {res['seed']}  trace {int(res['trace'])}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, unit, samples) in res["report"].items():
        tag = "  absent" if name in res["absent"] else ""
        print(f"  {name:32s} {value:14.6f} {unit:9s} n={samples}{tag}")
    print(f"  {'sha256':32s} {res['sha256']}")
    for note in res["notes"]:
        print(f"  FAILED: {note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1, help="workload seed (held-out seed: 424242)")
    parser.add_argument("--seconds", type=float, default=25.0, help="measured time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1 for the traced per-layer run")
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        if name not in WORKLOADS:
            parser.error(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)} or all")

    env = environment()
    results = []
    for name in names:
        res = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        print_report(res, env)
        results.append(res)
    if len(results) == 1:
        metrics_out = results[0]["metrics"]
    else:
        metrics_out = {f"{r['workload']}.{m}": v for r in results for m, v in r["metrics"].items()}
    correct = all(r["correct"] for r in results)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "metrics": metrics_out,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
