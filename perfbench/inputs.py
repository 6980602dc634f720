"""Workload definitions and seeded input generation for the fmvc benchmark.

The clip recipe is the benchmark's own copy of ``natural_clip`` from
``tests/conftest.py`` (grain over gradients, panning 2 px/frame), so that an
edit to the test fixtures cannot change what the benchmark measures.  fmvc
receives only the generated frames and gazes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.ndimage import gaussian_filter

from fmvc.video_io import Frame, FramePlane, VideoSequence, chroma_dims


@dataclass(frozen=True)
class Workload:
    """One benchmark input set.

    kind is "codec" (frame-by-frame encode pass, then a decode pass of the
    stored stream) or "sweep" (``fmvc rd-sweep`` through ``fmvc.cli.main``).
    fmsc_divisor selects a gaussian map of sigma H/k; None selects the
    contrast-sensitivity map.  gaze is "center" or "walk" (a seeded gaze that
    moves every frame).
    """

    name: str
    kind: str
    width: int
    height: int
    frames: int
    q_base: int = 4
    fmsc_divisor: int | None = None
    gaze: str = "center"


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cif_natural", "codec", 352, 288, 8, q_base=4, fmsc_divisor=4),
        Workload("hd720_lowrate_gaze", "codec", 1280, 720, 4, q_base=32, gaze="walk"),
        Workload("cif_rd_sweep", "sweep", 352, 288, 6),
    )
}


def natural_clip(width: int, height: int, n_frames: int, seed: int) -> VideoSequence:
    """Grain-over-gradients content translating 2 px/frame, cut from a larger
    master image so no synthetic border enters the frame.  The fine texture
    is normalized by its local energy envelope, keeping per-block statistics
    stationary so bit allocation is map-driven."""
    rng = np.random.default_rng(seed)
    margin = 2 * n_frames + 8
    mh, mw = height + margin, width + margin
    smooth = gaussian_filter(rng.normal(0.0, 1.0, (mh, mw)), sigma=12.0)
    smooth = smooth / (np.abs(smooth).max() + 1e-9) * 10
    texture = gaussian_filter(rng.normal(0.0, 1.0, (mh, mw)), sigma=1.2)
    envelope = np.sqrt(gaussian_filter(texture * texture, 16.0)) + 1e-9
    texture = texture / envelope * 55
    grain = rng.uniform(-25.0, 25.0, (mh, mw))
    master = np.clip(128 + smooth + texture + grain, 0, 255).astype(np.uint8)
    chroma_master = gaussian_filter(rng.normal(0.0, 1.0, ((mh + 1) // 2, (mw + 1) // 2)), sigma=6.0)
    chroma_master = np.clip(
        128 + 40 * chroma_master / (np.abs(chroma_master).max() + 1e-9), 0, 255
    ).astype(np.uint8)
    cw, ch = chroma_dims(width, height)
    frames = []
    for t in range(n_frames):
        off = 2 * t
        y = master[4 : 4 + height, 4 + off : 4 + off + width]
        c_off = off // 2
        cb = chroma_master[2 : 2 + ch, 2 + c_off : 2 + c_off + cw]
        frames.append(
            Frame(
                FramePlane.from_array(y.copy()),
                FramePlane.from_array(cb.copy()),
                FramePlane.from_array(255 - cb),
            )
        )
    return VideoSequence(tuple(frames), 30, 1)


def gaze_track(wl: Workload, seed: int) -> list[tuple[int, int]]:
    """Per-frame gaze in pixels.  A "walk" gaze starts at the centre and moves
    by 8 to 40 px on each axis every frame, so no two consecutive frames
    share a foveation map.  It stays inside the central half of each axis,
    so that every seed puts a similar share of the map on screen."""
    w, h = wl.width, wl.height
    if wl.gaze == "center":
        return [(w // 2, h // 2)] * wl.frames
    rng = np.random.default_rng([seed, 0x6A2E])
    lo, hi = np.array([w // 4, h // 4]), np.array([3 * w // 4, 3 * h // 4])
    pos = np.array([w // 2, h // 2])
    track = []
    for _ in range(wl.frames):
        track.append((int(pos[0]), int(pos[1])))
        step = rng.integers(8, 41, size=2) * rng.choice((-1, 1), size=2)
        # reflect off the box edges; the clip only matters for tiny frames
        pos = np.where((pos + step >= lo) & (pos + step < hi), pos + step, pos - step)
        pos = np.clip(pos, lo, hi - 1)
    return track
