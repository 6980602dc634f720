"""Golden outputs: refactors of the coding path must keep streams,
reconstructions and bit accounting byte-identical.

Each digest is SHA-256 over six encodes of one clip (q_base 1, 4, 32, each
with displacement selection on and off): the serialized stream, every
reconstructed plane, and every frame's block_bits grid.  Every stream must
also decode to exactly the encoder's reconstruction.  A deliberate format
change regenerates these literals and says so in CHANGES.md.
"""

import hashlib

import pytest

from fmvc.codec import CodecConfig, QuantSchedule, decode_sequence, encode_sequence
from fmvc.foveation import gaussian_map

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
