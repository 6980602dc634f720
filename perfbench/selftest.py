"""Toy-size self-test of the benchmark harness.

    python3 perfbench/selftest.py

On 64x48 clips of 3 frames it checks that:
- the metric names and units in run.py match BENCHMARK.json;
- each workload emits every end-to-end metric, plus the report rows it
  names, with --trace 0, and every per-layer metric with --trace 1;
- a wrong reconstruction is caught by the lockstep check and counted in
  error_rate;
- a hook whose name is gone from the program reports its metric as absent
  instead of crashing.
Exits non-zero when any check fails.
"""

import dataclasses
import json
import sys

import run  # first: pins the thread pools and puts the fmvc sources on the path
import spans
from fmvc import codec
from fmvc.video_io import Frame, FramePlane
from inputs import WORKLOADS

CODEC_ROWS = {
    "encode_fps", "decode_fps",
    "encode_frame_ms_p50", "encode_frame_ms_p90",
    "decode_frame_ms_p50", "decode_frame_ms_p90",
}
SWEEP_ROWS = {"sweep_s"}

failures = []


def check(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def toy(name: str):
    return dataclasses.replace(WORKLOADS[name], width=64, height=48, frames=3)


def check_names() -> None:
    bench = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    check(e2e == run.END_TO_END, "end-to-end names and units match BENCHMARK.json")
    check(layers == run.PER_LAYER, "per-layer names and units match BENCHMARK.json")
    check([w["name"] for w in bench["workloads"]] == list(WORKLOADS), "workload names match BENCHMARK.json")


def check_emitted(name: str) -> None:
    wl = toy(name)
    res = run.run_workload(wl, seed=1, seconds=0, trace=False)
    rows = set(run.END_TO_END) | {"error_rate"} | (CODEC_ROWS if wl.kind == "codec" else SWEEP_ROWS)
    check(res["correct"] and res["failed"] == 0, f"{name}: untraced run is correct")
    check(set(res["metrics"]) == set(run.END_TO_END), f"{name}: every end-to-end metric in the JSON")
    check(rows <= set(res["report"]), f"{name}: every report row it names, missing {sorted(rows - set(res['report']))}")
    check(all(res["metrics"][m]["value"] > 0 for m in run.END_TO_END), f"{name}: end-to-end metrics nonzero")

    res = run.run_workload(wl, seed=1, seconds=0, trace=True)
    check(res["correct"], f"{name}: traced run is correct")
    check(set(res["metrics"]) == set(run.PER_LAYER), f"{name}: every per-layer metric in the JSON")
    metric_ms = sum(res["metrics"][m]["value"] for m in run.PER_LAYER if m.startswith("metrics."))
    check((metric_ms > 0) == (wl.kind == "sweep"), f"{name}: metrics.* nonzero only on the sweep")


def check_lockstep_failure() -> None:
    original = codec.decode_frame

    def wrong_decode(*args, **kwargs):
        frame = original(*args, **kwargs)
        y = frame.y.samples.copy()
        y[0, 0] ^= 1
        return Frame(FramePlane(frame.y.width, frame.y.height, y), frame.cb, frame.cr)

    codec.decode_frame = wrong_decode
    try:
        res = run.run_workload(toy("cif_natural"), seed=1, seconds=0, trace=False)
    finally:
        codec.decode_frame = original
    check(res["failed"] > 0 and not res["correct"], "wrong reconstruction fails the lockstep check")
    check(res["report"]["error_rate"][0] > 0, "wrong reconstruction counts in error_rate")


def check_absent_hook() -> None:
    saved = spans.HOOKS
    spans.HOOKS = tuple(
        (o, "entropy_encode_block_gone" if a == "entropy_encode_block" else a, n, p) for o, a, n, p in saved
    )
    try:
        res = run.run_workload(toy("cif_natural"), seed=1, seconds=0, trace=True)
    finally:
        spans.HOOKS = saved
    check(res["correct"], "a missing hook does not fail the run")
    check(res["absent"] == ["codec.entropy_encode_ms"], "a missing hook reports its metric absent")
    check(res["metrics"]["codec.entropy_encode_ms"]["value"] == 0, "an absent metric reads 0")


def main() -> int:
    check_names()
    for name in WORKLOADS:
        check_emitted(name)
    check_lockstep_failure()
    check_absent_hook()
    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
