"""The traced benchmark's hooks still reach the codec's per-block kernels.

``perfbench/spans.py`` wraps each kernel on the ``(owner, name)`` pair
through which its caller looks it up.  A refactor that renames a kernel, or
stops calling it through that owner, would blank that layer's traced timing
without an error; these tests read ``HOOKS`` and fail instead.  The file is
read, not imported, so nothing is written under ``perfbench/``.
"""

import types
from pathlib import Path

from fmvc import codec
from fmvc.codec import decode_sequence, encode_sequence
from fmvc.foveation import gaussian_map

from conftest import pan_clip

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
KERNELS = {"forward_blocks", "inverse_blocks", "_quantize_plane_blocks", "predicted_plane", "block_levels", "quantize_map"}


def _spans():
    module = types.ModuleType("spans")
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


def test_kernel_hooks_resolve():
    spans = _spans()
    hooked = [(owner, name) for owner, name, *_ in spans.HOOKS if name in KERNELS]
    assert {name for _, name in hooked} == KERNELS
    for owner, name in hooked:
        assert callable(getattr(spans._resolve(owner), name, None)), f"{owner}.{name}"


def test_codec_calls_each_kernel_through_its_hook(monkeypatch):
    # wrap every fmvc.codec-owned kernel hook as the tracer does, then code and decode a clip
    names = {name for owner, name, *_ in _spans().HOOKS if name in KERNELS and owner == "fmvc.codec"}
    calls = set()
    for name in names:
        original = getattr(codec, name)
        monkeypatch.setattr(codec, name, lambda *a, _f=original, _n=name, **k: calls.add(_n) or _f(*a, **k))
    seq = pan_clip(32, 24, 2, step=3)
    sbs, recon = encode_sequence(seq, [gaussian_map((16, 12), 8.0, 32, 24)] * 2, codec.QuantSchedule(q_base=2))
    assert decode_sequence(sbs.to_bytes()) == recon
    assert calls == names == KERNELS
