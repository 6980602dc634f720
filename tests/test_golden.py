"""Golden outputs: refactors of the coding path must keep streams,
reconstructions and bit accounting byte-identical.

Each digest is SHA-256 over six encodes of one clip (q_base 1, 4, 32, each
with displacement selection on and off): the serialized stream, every
reconstructed plane, and every frame's block_bits grid.  Every stream must
also decode to exactly the encoder's reconstruction.  A deliberate format
change regenerates these literals and says so in CHANGES.md.

The CSV digests pin the report commands the same way: SHA-256 over the
``fmvc rd-sweep`` and ``fmvc metrics`` CSV files for clips whose sides are
not multiples of 16, so every FWQI crop and block grid is partial.
"""

import hashlib

import pytest

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

GOLDEN = {
    "random_1x1": "d9dee8ed55a815bbec596238442aa6f8e1f48080c187e3d49d8525e1e3f88800",
    "random_7x5": "0575a5a198d9d695b8b6574ff67b477972c70fd04e87865ffa88beaf63f63310",
    "random_23x13": "e5f252c30a95c608b615982cc260a729f1d2b8ad752675129309b7954ab2adcb",
    "random_17x9": "62c89999644393b5ff5361a60d9d0fbd142a3bd1bb654c6352c3af81b75b97b7",
    "random_64x48": "f6a26df351d9b03202fee7cf699c9b2675463a713bf108f74e6cf2d2b68b34d5",
    "pan_64x64_chroma": "ce83f8fc83ef876de2ec4ab48224c56acdd2a8e3a9677e5e4252955243761244",
    "natural_cif": "e57568381b8991b855b19dac5d30d7619a69c20a01c150b8c03a151b0b8f32f4",
}


def clip_digest(seq) -> str:
    w, h = seq.width, seq.height
    maps = [gaussian_map((w // 2, h // 2), max(1.0, h / 4), w, h)] * len(seq)
    digest = hashlib.sha256()
    for q_base in (1, 4, 32):
        for zero in (False, True):
            sbs, recon = encode_sequence(
                seq, maps, QuantSchedule(q_base=q_base), CodecConfig(force_zero_displacement=zero)
            )
            data = sbs.to_bytes()
            assert decode_sequence(data) == recon
            digest.update(data)
            for frame in recon.frames:
                for plane in (frame.y, frame.cb, frame.cr):
                    digest.update(plane.samples.tobytes())
            for rec in sbs.frames:
                digest.update(rec.bitstream.block_bits.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(CLIPS))
def test_golden_output(name):
    assert clip_digest(CLIPS[name]()) == GOLDEN[name]


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
