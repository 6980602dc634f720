"""Golden outputs: refactors of the coding path must keep streams,
reconstructions and bit accounting byte-identical.

Each clip has three SHA-256 digests over six encodes (q_base 1, 4, 32,
each with displacement selection on and off): one of the serialized
streams, one of every reconstructed plane, and one of every frame's
block_bits grid.  Every stream must also decode to exactly the encoder's
reconstruction.  A deliberate format change regenerates only the stream
literals and says so in CHANGES.md; the reconstructions and the bit
accounting do not depend on the byte layout.

The CSV digests pin the report commands the same way: SHA-256 over the
``fmvc rd-sweep`` and ``fmvc metrics`` CSV files for clips whose sides are
not multiples of 16, so every FWQI crop and block grid is partial.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fmvc import cli
from fmvc.cli import main
from fmvc.codec import CodecConfig, QuantSchedule, decode_sequence, encode_sequence
from fmvc.foveation import gaussian_map
from fmvc.video_io import write_y4m

from conftest import natural_clip, pan_clip, random_clip

CLIPS = {
    "random_1x1": lambda: random_clip(1, 1, 3, seed=21),
    "random_7x5": lambda: random_clip(7, 5, 3, seed=22),
    "random_23x13": lambda: random_clip(23, 13, 3, seed=23),
    "random_17x9": lambda: random_clip(17, 9, 3, seed=24),
    "random_64x48": lambda: random_clip(64, 48, 3, seed=25),
    "pan_64x64_chroma": lambda: pan_clip(64, 64, 3, step=3, chroma_noise=True, seed=26),
    "natural_cif": lambda: natural_clip(352, 288, 2),
}

GOLDEN_STREAM = {
    "random_1x1": "705065592bf2f9f1160ca2dc904c21c7767895982df03a1c661c5633c510f9d3",
    "random_7x5": "2ec803a4678713007ac029779b49cf04ad5edb9f233d2b99c33a36c96be41395",
    "random_23x13": "8ce1d306ed1c7e09556b9ac620438e0095165c63d45c411bdf1d388d55d61605",
    "random_17x9": "a6293602251de411c29d8ca97172ba784f9c5e5c4f9315cb9622683b24caed11",
    "random_64x48": "00b17b97065543ac6a3d8d03e399352043371a7a04d601fc6066aca8942a940a",
    "pan_64x64_chroma": "c8ed52c3459e46d3fbde5dd4ae796e8976dba1a83c62b487f22e21de113de1d7",
    "natural_cif": "e4a3563d749a5ee250f0cdb89779dce9644e0e3faa7e4652af5b1b228121b5dd",
}
GOLDEN_RECON = {
    "random_1x1": "3ff8149a3bad79ab2c9d89504489725c02d45a713f0bac9eb255e989e3d39a38",
    "random_7x5": "521c9c5bc840bfc6d3e13aa22decc31f7d7fc3abbcb330905048935fea97a770",
    "random_23x13": "b4a804332165a9d7da33460b0b7aa0ee912a460747172fcddd8c84d9fc93c19e",
    "random_17x9": "ba5b3014d7420e5acdcd4440b7117b242c25c29bebd626291ddb9c7480526ac1",
    "random_64x48": "71e3c088e013e8d84207405099088df84713cf02867aea3808ebd8c970bceed5",
    "pan_64x64_chroma": "5b72a714ca433ae220cf6f35f28c90b2abe41143abd8f67fa82d922636c56bd9",
    "natural_cif": "6ffe2026c7a683dbf5cbe7eaee9d431bec8650189b415b405635ccbc404bba88",
}
GOLDEN_BLOCK_BITS = {
    "random_1x1": "f1895ae875c2dd83b4d228e8548fe7c82f66978b40d6cb682ed608a18ce8b137",
    "random_7x5": "c9340a044a8ddc70c627320e144e3c3760b3cb0d73ca4047cca741d1517e62e6",
    "random_23x13": "fd0cf3120753c2171627deb0672a5832cff38526b5f92163ef1b2b7b3388ab91",
    "random_17x9": "6916581ffba5d5796073db2f40ed480dcb61d4fe4d4b4ec3a2f51028cd3e0ef1",
    "random_64x48": "260284f8e87c6412e6c2cef63e20ead417aa738917c93a1cacff7cccb26c0c20",
    "pan_64x64_chroma": "35ca4202ec810319682902d075021251efbef22a445791f41ff7131bb891e17c",
    "natural_cif": "3af39b6b7b8ed32d92794de9ee359ffb69bf3d89fb6ccd698bf6fd3e85eef3c7",
}


def clip_digests(seq) -> dict[str, str]:
    w, h = seq.width, seq.height
    maps = [gaussian_map((w // 2, h // 2), max(1.0, h / 4), w, h)] * len(seq)
    digests = {part: hashlib.sha256() for part in ("stream", "recon", "block_bits")}
    for q_base in (1, 4, 32):
        for zero in (False, True):
            sbs, recon = encode_sequence(
                seq, maps, QuantSchedule(q_base=q_base), CodecConfig(force_zero_displacement=zero)
            )
            data = sbs.to_bytes()
            assert decode_sequence(data) == recon
            digests["stream"].update(data)
            for frame in recon.frames:
                for plane in (frame.y, frame.cb, frame.cr):
                    digests["recon"].update(plane.samples.tobytes())
            for rec in sbs.frames:
                digests["block_bits"].update(rec.bitstream.block_bits.tobytes())
    return {part: d.hexdigest() for part, d in digests.items()}


@pytest.mark.parametrize("name", sorted(CLIPS))
def test_golden_output(name):
    assert clip_digests(CLIPS[name]()) == {
        "stream": GOLDEN_STREAM[name],
        "recon": GOLDEN_RECON[name],
        "block_bits": GOLDEN_BLOCK_BITS[name],
    }


GOLDEN_CSV = {
    "rd_sweep_center": "d8a3dcab657186e09494ae2b001ac126b63cb7db5e4b92e7e131d3720ddf5049",
    "rd_sweep_track": "f0e4f7806dd34fc9215a04e7896a29043bf1415bcc54805880ab0272eabbc8aa",
    "metrics_track": "aad39b9f74c51a7ed26cfd22833d0b6929ab5bbefca9151cbecd79f6890f2991",
}
# a gaze that jumps across the frame, with a gap and a row past the end
GAZE_TRACK = "0,3,2\n1,40,27\n3,12,20\n9,44,30\n"


def _write_clip(path, seq):
    with open(path, "wb") as fh:
        write_y4m(seq, fh)
    return str(path)


def csv_digest(name, tmp_path) -> str:
    clip = _write_clip(tmp_path / "ref.y4m", natural_clip(45, 34, 4, seed=31))
    track = tmp_path / "gaze.csv"
    track.write_text(GAZE_TRACK)
    out = tmp_path / "out.csv"
    if name == "rd_sweep_center":
        argv = ["rd-sweep", "--input", clip, "--out", str(out)]
    elif name == "rd_sweep_track":
        argv = ["rd-sweep", "--input", clip, "--out", str(out), "--gaze", str(track), "--fmsc-set", "H/4,H/2"]
    else:
        seq = natural_clip(45, 34, 4, seed=31)
        maps = [gaussian_map((10, 8), 9.0, 45, 34)] * len(seq)
        test = _write_clip(tmp_path / "test.y4m", encode_sequence(seq, maps, QuantSchedule(q_base=12))[1])
        argv = ["metrics", "--ref", clip, "--test", test, "--out", str(out), "--gaze", str(track)]
    assert main(argv) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN_CSV))
def test_golden_csv(name, tmp_path):
    assert csv_digest(name, tmp_path) == GOLDEN_CSV[name]


# The CSVs print six decimals, so they do not pin scoring's last bits; these digests do, over the
# unrounded scores of the same runs: float.hex of every (mean SSIM, FW-SSIM, FWQI) that cli._scores
# returns, in call order, which the CSV rows are the means (rd-sweep) or the values (metrics) of.
# Map values, which FW-SSIM and FWQI read, differ in their last bits between numpy's AVX-512
# (X86_V4) kernels for exp and arctan and its others, and so do the sweeps' digests: each is
# given (with X86_V4, without), as x86 CPUs compute them.
GOLDEN_SCORES = {
    "rd_sweep_center": ("7b30f54c96c0356fa0b78a15494e40cbd3eef0b9310b90f04ed31332204f5b03",
                        "5a54feaf8221716dd865624f0577dad03d680927f35c247f612d3c7411693322"),
    "rd_sweep_track": ("c4aeaacdcf454adfc8805f7b0f2bcaf5343954f21d32ef8b9bd966532c069f1e",
                       "4f9bb7cd05956fcfd8896f597b042c289ce44c67bd6623996fec5a2069cf476d"),
    "metrics_track": ("5f6f00e422eca24777ac29ad23e5555369ed72a0751d01e00d05d54dc1ef46c5",) * 2,
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SCORES))
def test_golden_scores(name, tmp_path, monkeypatch):
    scores, score = [], cli._scores
    monkeypatch.setattr(cli, "_scores", lambda *args: scores.append(score(*args)) or scores[-1])
    csv_digest(name, tmp_path)
    assert scores and all(type(v) is float for row in scores for v in row)
    text = "\n".join(" ".join(v.hex() for v in row) for row in scores)
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == GOLDEN_SCORES[name][not cpu_features().get("X86_V4")]


# OpenBLAS and numpy's CPU dispatch read these when they load, so each runs
# in a fresh process.  In the codec, float arithmetic decides only which
# blocks the encoder may skip, a provably conservative test, and each
# block's level, which holds by a measured margin of about 1e8 ulps
# (tests/level_margin.py); so no BLAS kernel, thread count or SIMD path may
# move a stream byte, nor a score at the six decimals the CSVs print.  Each
# numpy setting names the feature group it switches off, which the child
# first checks is off.
NO_AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"
SETTINGS = {
    "openblas-2-threads": ({"OPENBLAS_NUM_THREADS": "2"}, None),
    "openblas-prescott": ({"OPENBLAS_CORETYPE": "Prescott"}, None),
    "numpy-no-x86-v4": ({"NPY_DISABLE_CPU_FEATURES": NO_AVX512}, "X86_V4"),
    "numpy-no-x86-v3": ({"NPY_DISABLE_CPU_FEATURES": f"{NO_AVX512} X86_V3"}, "X86_V3"),
}


def cpu_features() -> dict[str, bool]:
    from numpy._core._multiarray_umath import __cpu_features__

    return __cpu_features__


@pytest.mark.parametrize("name", sorted(SETTINGS))
def test_outputs_do_not_depend_on_the_blas_or_simd_path(name, tmp_path):
    setting, feature = SETTINGS[name]
    if feature is not None and not cpu_features().get(feature, False):
        pytest.skip(f"this CPU has no {feature} kernels to switch off")
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tests), str(tests.parent / "src")]), **setting)
    script = ("import json, pathlib, sys, test_golden as g; "
              "assert not any(g.cpu_features()[f] for f in sys.argv[2:]), sys.argv[2:]; "
              "print(json.dumps([{n: g.clip_digests(c())['stream'] for n, c in g.CLIPS.items()}, "
              "{n: g.csv_digest(n, pathlib.Path(sys.argv[1])) for n in g.GOLDEN_CSV}]))")
    run = subprocess.run([sys.executable, "-c", script, str(tmp_path), *([feature] if feature else [])],
                         env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == [GOLDEN_STREAM, GOLDEN_CSV]
