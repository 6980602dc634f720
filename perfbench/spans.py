"""Per-layer timing for the traced benchmark run.

The tracer wraps fmvc's module-level names from outside, on the
``(owner, name)`` pair through which the caller looks them up: codec calls
``forward_blocks`` through ``fmvc.codec``, the CLI calls ``ssim_map`` through
``fmvc.metrics``.  Nothing under ``src/`` is edited.  These hooks are a
stopgap: in-program counters (ROADMAP item 5) are meant to replace them, and
the layer metrics below should then read those counters instead.

Each wrapped call becomes a span ``[name, start_ns, end_ns, parent, frame,
child_ns, leaves]`` kept in memory and written out at the end.  A span's
self time is its duration minus the time its child spans cover.  The
per-block entropy calls run thousands of times per frame, so they are not
recorded one by one: each is summed into its parent span's ``leaves`` as
``{name: [calls, ns]}``, which still counts toward the parent's ``child_ns``.
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict
from time import perf_counter_ns

import numpy as np


def _count_nonzero_shifts(tracer, args, field):
    tracer.counts["luma_blocks"] += field.indices.size
    tracer.counts["nonzero_shift_blocks"] += int(np.count_nonzero(field.indices))


def _count_transform_blocks(tracer, args, coeffs):
    tracer.counts["transform_blocks"] += len(coeffs)


def _count_payload(tracer, args, result):
    tracer.counts["frames_encoded"] += 1
    tracer.counts["payload_bits"] += 8 * len(result[0].payload)


def _count_zero_blocks(tracer, args, qblocks):
    tracer.counts["quantized_blocks"] += len(qblocks)
    tracer.counts["zero_blocks"] += int(np.count_nonzero(~qblocks.reshape(len(qblocks), -1).any(axis=1)))


def _count_bytes_read(tracer, args, seq):
    source = args[0]
    tracer.counts["bytes_read"] += len(source) if isinstance(source, (bytes, bytearray)) else 0


def _gaussian_key(tracer, args, fmap):
    tracer.map_keys["gaussian"].append((tuple(args[0]), float(args[1]), args[2], args[3]))


def _csf_key(tracer, args, fmap):
    tracer.map_keys["csf"].append((args[0], tuple(args[1])))


# (owner, attribute, span name, probe).  Owner is a module path, or a
# module path plus a class name.  A span name of None makes a count-only
# hook, whose time stays in its caller's self time.
HOOKS = (
    ("fmvc.foveation", "foveation_map", "foveation.csf_map", _csf_key),
    ("fmvc.cli", "foveation_map", "foveation.csf_map", _csf_key),
    ("fmvc.foveation", "gaussian_map", "foveation.gaussian_map", _gaussian_key),
    ("fmvc.cli", "gaussian_map", "foveation.gaussian_map", _gaussian_key),
    ("fmvc.foveation", "quantize_map", "foveation.quantize_map", None),
    ("fmvc.codec", "quantize_map", "foveation.quantize_map", None),
    ("fmvc.codec", "block_levels", "allocation.block_levels", None),
    ("fmvc.codec", "residual_set", "displacement.residual_set", None),
    ("fmvc.codec", "select_displacement_per_block", "displacement.select", _count_nonzero_shifts),
    ("fmvc.codec", "predicted_plane", "displacement.predict", None),
    ("fmvc.codec", "forward_blocks", "transform.forward", _count_transform_blocks),
    ("fmvc.codec", "inverse_blocks", "transform.inverse", None),
    ("fmvc.codec", "_quantize_plane_blocks", None, _count_zero_blocks),
    ("fmvc.codec", "entropy_encode_block", "codec.entropy_encode", None),
    ("fmvc.codec", "entropy_decode_block", "codec.entropy_decode", None),
    ("fmvc.codec", "encode_frame", "codec.encode_frame", _count_payload),
    ("fmvc.codec", "decode_frame", "codec.decode_frame", None),
    ("fmvc.codec.SequenceBitstream", "to_bytes", "codec.container", None),
    ("fmvc.codec.SequenceBitstream", "from_bytes", "codec.container", None),
    ("fmvc.metrics", "ssim_map", "metrics.ssim_map", None),
    ("fmvc.metrics", "fwqi_approx", "metrics.fwqi", None),
    ("fmvc.metrics", "fw_ssim_from_map", "metrics.fw_ssim", None),
    ("fmvc.cli", "read_y4m", "video_io.read", _count_bytes_read),
    ("fmvc.cli", "main", "cli.main", None),
)

# Per-block calls, summed into the parent span instead of recorded singly.
LEAVES = frozenset({"codec.entropy_encode", "codec.entropy_decode"})

# Timed layer metric -> the span whose self time it reports, in ms per frame.
TIMED = {
    "foveation.csf_map_ms": "foveation.csf_map",
    "foveation.gaussian_map_ms": "foveation.gaussian_map",
    "foveation.quantize_map_ms": "foveation.quantize_map",
    "allocation.block_levels_ms": "allocation.block_levels",
    "displacement.residual_set_ms": "displacement.residual_set",
    "displacement.select_ms": "displacement.select",
    "displacement.predict_ms": "displacement.predict",
    "transform.forward_ms": "transform.forward",
    "transform.inverse_ms": "transform.inverse",
    "codec.entropy_encode_ms": "codec.entropy_encode",
    "codec.entropy_decode_ms": "codec.entropy_decode",
    "codec.encode_self_ms": "codec.encode_frame",
    "codec.decode_self_ms": "codec.decode_frame",
    "codec.container_ms": "codec.container",
    "metrics.ssim_map_ms": "metrics.ssim_map",
    "metrics.fwqi_ms": "metrics.fwqi",
    "metrics.fw_ssim_ms": "metrics.fw_ssim",
    "video_io.read_ms": "video_io.read",
    "cli.sweep_self_ms": "cli.main",
}

# Counted layer metric -> (unit, the hook attribute whose probe feeds it).
COUNTED = {
    "foveation.map_reuse_share": ("share", "gaussian_map"),
    "displacement.nonzero_share": ("share", "select_displacement_per_block"),
    "transform.blocks": ("count", "forward_blocks"),
    "codec.payload_bits": ("count", "encode_frame"),
    "codec.zero_block_share": ("share", "_quantize_plane_blocks"),
    "video_io.bytes_read": ("count", "read_y4m"),
}


def _resolve(owner_path: str):
    """Import a module path, or a module path ending in a class name."""
    try:
        return importlib.import_module(owner_path)
    except ImportError:
        module_path, _, cls = owner_path.rpartition(".")
        return getattr(importlib.import_module(module_path), cls, None)


class Tracer:
    """Installs the hooks, records spans and counts, and reduces them to layer metrics."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.map_keys: defaultdict[str, list] = defaultdict(list)
        self.frame = -1  # id stamped on new spans; the harness sets it
        self.missing: set[str] = set()  # hook attributes not found
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # --- hooks ---------------------------------------------------------

    def install(self) -> None:
        for owner_path, attr, name, probe in HOOKS:
            owner = _resolve(owner_path)
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                self.missing.add(attr)
                continue
            if isinstance(original, (classmethod, staticmethod)):
                wrapped = type(original)(self._wrap(original.__func__, name, probe))
            else:
                wrapped = self._wrap(original, name, probe)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapped)

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name, probe):
        spans, stack, tracer = self.spans, self._stack, self

        if name is None:

            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                probe(tracer, args, result)
                return result

            return counted

        if name in LEAVES:

            def leaf(*args, **kwargs):
                start = perf_counter_ns()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = perf_counter_ns() - start
                    if stack:
                        parent = spans[stack[-1]]
                        parent[5] += elapsed
                        agg = parent[6].setdefault(name, [0, 0])
                        agg[0] += 1
                        agg[1] += elapsed
                    else:
                        spans.append([name, start, start + elapsed, -1, tracer.frame, 0, {}])

            return leaf

        def span(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, tracer.frame, 0, {}]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = end = perf_counter_ns()
                stack.pop()
                if rec[3] >= 0:
                    spans[rec[3]][5] += end - rec[1]
            if probe is not None:
                probe(tracer, args, result)
            return result

        return span

    # --- reduction -----------------------------------------------------

    def self_ns(self) -> dict[str, int]:
        """Total self time per span name, leaves included."""
        totals: defaultdict[str, int] = defaultdict(int)
        for name, start, end, _parent, _frame, child, leaves in self.spans:
            totals[name] += end - start - child
            for leaf, (_calls, ns) in leaves.items():
                totals[leaf] += ns
        return totals

    def absent(self) -> list[str]:
        """Layer metrics whose every hook is missing from the program."""
        stems_present = {name for _o, attr, name, _p in HOOKS if attr not in self.missing}
        out = [m for m, stem in TIMED.items() if stem not in stems_present]
        out += [m for m, (_u, attr) in COUNTED.items() if attr in self.missing]
        return sorted(out)

    def layer_metrics(self, frames: int) -> dict[str, tuple[float, str]]:
        """Layer metrics as {name: (value, unit)}.

        Times are ms of self time per clip frame processed.  Counts are per
        encoded frame; shares are ratios of two counts.  An absent metric
        reads 0.
        """
        totals = self.self_ns()
        c = self.counts
        out = {m: (totals.get(stem, 0) / 1e6 / max(frames, 1), "ms") for m, stem in TIMED.items()}
        pairs = sum(max(len(keys) - 1, 0) for keys in self.map_keys.values())
        repeats = sum(
            sum(a == b for a, b in zip(keys, keys[1:])) for keys in self.map_keys.values()
        )
        encoded = max(c["frames_encoded"], 1)
        out["foveation.map_reuse_share"] = (repeats / pairs if pairs else 0.0, "share")
        out["displacement.nonzero_share"] = (
            c["nonzero_shift_blocks"] / c["luma_blocks"] if c["luma_blocks"] else 0.0,
            "share",
        )
        out["transform.blocks"] = (c["transform_blocks"] / encoded, "count")
        out["codec.payload_bits"] = (c["payload_bits"] / encoded, "count")
        out["codec.zero_block_share"] = (
            c["zero_blocks"] / c["quantized_blocks"] if c["quantized_blocks"] else 0.0,
            "share",
        )
        out["video_io.bytes_read"] = (c["bytes_read"] / max(frames, 1), "count")
        for m in self.absent():
            out[m] = (0.0, out[m][1])
        return out

    def write(self, path) -> None:
        """Dump the spans as JSON lines, one span per line."""
        with open(path, "w", encoding="ascii") as fh:
            for i, (name, start, end, parent, frame, child, leaves) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                            "parent": parent,
                            "frame": frame,
                            "self_ns": end - start - child,
                            "leaves": leaves,
                        }
                    )
                    + "\n"
                )
