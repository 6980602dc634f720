import struct
import zlib

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from scipy.ndimage import gaussian_filter

from fmvc.codec import QuantSchedule, encode_frame, midgray_frame
from fmvc.foveation import FoveationMap, quantize_map
from fmvc.video_io import Frame, FramePlane, VideoSequence, chroma_dims

# Property tests draw the same examples on every run and have no per-example
# time limit; each test's example count is fixed here or in its own settings.
settings.register_profile("fmvc", derandomize=True, deadline=None, max_examples=60, database=None)
settings.load_profile("fmvc")


@pytest.fixture
def rng():
    return np.random.default_rng(0xF0EA)


def frame_from_luma(y: np.ndarray, chroma_value: int = 128) -> Frame:
    h, w = y.shape
    cw, ch = chroma_dims(w, h)
    return Frame(
        FramePlane.from_array(y),
        FramePlane.filled(cw, ch, chroma_value),
        FramePlane.filled(cw, ch, chroma_value),
    )


def frame_from_planes(y: np.ndarray, cb: np.ndarray, cr: np.ndarray) -> Frame:
    return Frame(
        FramePlane.from_array(y),
        FramePlane.from_array(cb),
        FramePlane.from_array(cr),
    )


def shift_with_replication(plane: np.ndarray, step: int, axis: int) -> np.ndarray:
    """Translate content by `step` pixels along an axis, replicating the
    trailing edge, so frame t equals frame t-1 sampled at displaced, clamped
    coordinates."""
    out = np.empty_like(plane)
    n = plane.shape[axis]
    src = np.clip(np.arange(n) - step, 0, n - 1)
    if axis == 1:
        out[:] = plane[:, src]
    else:
        out[:] = plane[src, :]
    return out


def pan_clip(
    width: int,
    height: int,
    n_frames: int,
    step: int,
    axis: int = 1,
    seed: int = 7,
    chroma_noise: bool = False,
    smooth: float = 0.0,
) -> VideoSequence:
    """Textured clip panning `step` px/frame, cut from a wider master image
    (a camera pan): frame t equals frame t-1 sampled `step` pixels away
    everywhere except the entering edge, where fresh scene content appears.
    A nonzero `smooth` sigma swaps the iid noise for spatially correlated
    texture (needed when the pan exceeds the displacement range, where
    partial alignment only helps on correlated content)."""
    rng = np.random.default_rng(seed)
    travel = abs(step) * (n_frames - 1)
    mshape = (height, width + travel) if axis == 1 else (height + travel, width)
    if smooth:
        master = gaussian_filter(rng.normal(0.0, 1.0, mshape), sigma=smooth)
        master = np.clip(128 + 90 * master / (np.abs(master).max() + 1e-9), 0, 255).astype(np.uint8)
    else:
        master = rng.integers(0, 256, mshape, dtype=np.uint8)
    cw, ch = chroma_dims(width, height)
    c_step = int(step / 2)
    c_travel = abs(c_step) * (n_frames - 1)
    if chroma_noise:
        cshape = (ch, cw + c_travel) if axis == 1 else (ch + c_travel, cw)
        cb_master = rng.integers(64, 192, cshape, dtype=np.uint8)
        cr_master = rng.integers(64, 192, cshape, dtype=np.uint8)
    else:
        cb_master = cr_master = None

    def window(arr, off, w, h):
        return arr[off:off + h, :w] if axis == 0 else arr[:h, off:off + w]

    frames = []
    for t in range(n_frames):
        # content moves toward positive s: the window slides backwards
        off = travel - abs(step) * t if step > 0 else abs(step) * t
        c_off = c_travel - abs(c_step) * t if step > 0 else abs(c_step) * t
        y = window(master, off, width, height)
        if cb_master is None:
            cb = np.full((ch, cw), 128, dtype=np.uint8)
            cr = np.full((ch, cw), 128, dtype=np.uint8)
        else:
            cb = window(cb_master, c_off, cw, ch)
            cr = window(cr_master, c_off, cw, ch)
        frames.append(frame_from_planes(y.copy(), cb.copy(), cr.copy()))
    return VideoSequence(tuple(frames), 25, 1)


def random_clip(width: int, height: int, n_frames: int, seed: int = 3) -> VideoSequence:
    rng = np.random.default_rng(seed)
    frames = []
    for _ in range(n_frames):
        cw, ch = chroma_dims(width, height)
        frames.append(
            frame_from_planes(
                rng.integers(0, 256, (height, width), dtype=np.uint8),
                rng.integers(0, 256, (ch, cw), dtype=np.uint8),
                rng.integers(0, 256, (ch, cw), dtype=np.uint8),
            )
        )
    return VideoSequence(tuple(frames), 30, 1)


def natural_clip(width: int = 352, height: int = 288, n_frames: int = 6, seed: int = 11) -> VideoSequence:
    """Grain-over-gradients content translating 2 px/frame, sampled from a
    larger master image so no synthetic border content enters the frame.
    The fine texture is normalized by its local energy envelope, keeping
    per-block statistics stationary so bit allocation is map-driven."""
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
    chroma_master = gaussian_filter(
        rng.normal(0.0, 1.0, ((mh + 1) // 2, (mw + 1) // 2)), sigma=6.0
    )
    chroma_master = np.clip(128 + 40 * chroma_master / (np.abs(chroma_master).max() + 1e-9), 0, 255).astype(
        np.uint8
    )
    frames = []
    cw, ch = chroma_dims(width, height)
    for t in range(n_frames):
        off = 2 * t
        y = master[4 : 4 + height, 4 + off : 4 + off + width]
        c_off = off // 2
        cb = chroma_master[2 : 2 + ch, 2 + c_off : 2 + c_off + cw]
        cr = 255 - cb
        frames.append(frame_from_planes(y.copy(), cb.copy(), cr.copy()))
    return VideoSequence(tuple(frames), 30, 1)


@st.composite
def frame_payloads(draw, max_size=120):
    """A frame size of 1-40 px a side and a payload: random bytes, or that
    size's valid payload with bits flipped, bytes cut off or bytes appended."""
    w, h = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    if draw(st.booleans()):
        return w, h, draw(st.binary(max_size=max_size))
    clip = random_clip(w, h, 1, seed=draw(st.integers(0, 1000)))
    lm = quantize_map(FoveationMap(np.full((h, w), draw(st.floats(0.0, 1.0))), (0, 0)), 16)
    data = bytearray(encode_frame(clip.frames[0], midgray_frame(w, h), lm, QuantSchedule())[0].payload)
    for bit in draw(st.lists(st.integers(0, 8 * len(data) - 1), max_size=4)):
        data[bit // 8] ^= 0x80 >> (bit % 8)
    return w, h, bytes(data[: draw(st.integers(0, len(data)))]) + draw(st.binary(max_size=4))


_NUMBERS = st.integers(-(2**70), 2**70)  # zero, negative and past every field width
_HUGE = st.sampled_from([2**16 - 1, 2**16, 2**31, 2**32, 2**63, 10**20]) | st.integers(2**16, 2**70)


@st.composite
def y4m_files(draw):
    """A YUV4MPEG2 file, and (width, height, fps, payloads) when it was drawn
    well formed, else None.  Half the files are well formed.  The rest have
    one part drawn from bad values, or all of them: W or H huge, zero,
    negative or any text (non-ASCII included); F, C or I invalid or any
    text; FRAME lines whose parameters may hold a newline, and payloads cut
    short or running long."""
    mode = draw(st.just("valid") | st.sampled_from(["W", "H", "F", "C", "I", "frames", "all"]))

    def bad(part):
        return mode in (part, "all")

    def side(part):
        return draw((_HUGE | _NUMBERS | st.text(max_size=4)) if bad(part) else st.integers(1, 12))

    def token(tag, good, invalid):
        if bad(tag):
            return tag + draw(invalid | st.text(max_size=4))
        return draw(st.just("") | good.map(lambda v: tag + v))  # left out, or valid

    w, h = side("W"), side("H")
    fps = token("F", st.sampled_from(["25:1", "30000:1001", "1:1"]),
                st.tuples(_NUMBERS, _NUMBERS).map(lambda f: f"{f[0]}:{f[1]}"))
    chroma = token("C", st.sampled_from(["420jpeg", "420", "420mpeg2", "420paldv"]),
                   st.sampled_from(["444", "422", "mono", "420p10"]))
    scan = token("I", st.just("p"), st.sampled_from(["t", "b", "m", "?"]))
    tokens = draw(st.permutations([f"W{w}", f"H{h}", fps, chroma, scan]))
    data = ("YUV4MPEG2 " + " ".join(tokens) + "\n").encode("utf-8")
    known = isinstance(w, int) and isinstance(h, int) and 1 <= w <= 12 and 1 <= h <= 12
    payloads = []
    for _ in range(draw(st.integers(0 if bad("frames") else 1, 3))):
        params = draw(st.sampled_from([b"", b" Ixyz", b" X=1"]) | st.binary(max_size=6))
        if not bad("frames"):
            params = params.replace(b"\n", b"")
        if known:
            cw, ch = chroma_dims(w, h)
            cut = draw(st.sampled_from([0, -1, -3, 1, 2])) if bad("frames") else 0
            size = max(w * h + 2 * cw * ch + cut, 0)
            payload = draw(st.binary(min_size=size, max_size=size))
        else:
            payload = draw(st.binary(max_size=40))
        payloads.append(payload)
        data += b"FRAME" + params + b"\n" + payload
    if mode != "valid":
        return data, None
    num, den = map(int, fps[1:].split(":")) if fps else (25, 1)
    return data, (w, h, (num, den), payloads)


# Container layout: a 47-byte sequence header, 43 bytes of fields with the
# screen width and viewing distance (f64) at bytes 18 and 26, the quantizer
# base (f64) at byte 34 and the level count (u8) at byte 42, then their
# CRC-32; per frame a 13-byte head, 9 bytes of fields with the u16 gaze x
# and y at bytes 0 and 2 and the u32 payload length at byte 5, then the
# CRC-32 over them and the payload.
HEADER_BYTES, Q_BASE_AT, N_LEVELS_AT, FRAME_HEAD_BYTES, LENGTH_AT = 47, 34, 42, 13, 5
SCREEN_WIDTH_AT, DISTANCE_AT = 18, 26


def reseal(stream) -> bytes:
    """The stream with every CRC-32 recomputed, so that a poked field
    reaches its own check.  Frames are found through their own length
    fields, up to the first one that runs past the end."""
    data = bytearray(stream)
    struct.pack_into("<I", data, HEADER_BYTES - 4, zlib.crc32(data[: HEADER_BYTES - 4]))
    at = HEADER_BYTES
    while at + FRAME_HEAD_BYTES <= len(data):
        end = at + FRAME_HEAD_BYTES + struct.unpack_from("<I", data, at + LENGTH_AT)[0]
        if end > len(data):
            break
        crc = zlib.crc32(data[at + FRAME_HEAD_BYTES : end], zlib.crc32(data[at : at + FRAME_HEAD_BYTES - 4]))
        struct.pack_into("<I", data, at + FRAME_HEAD_BYTES - 4, crc)
        at = end
    return bytes(data)
