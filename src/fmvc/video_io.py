"""Raw planar 4:2:0 video: frame containers and YUV4MPEG2 (.y4m) read/write."""

from __future__ import annotations

import io
from dataclasses import dataclass, fields

import numpy as np

from .errors import ContractViolation, IoError, ParseError, TruncatedStream, UnsupportedFormat

Y4M_SIGNATURE = b"YUV4MPEG2 "
_ACCEPTED_CHROMA_TAGS = {"420", "420jpeg", "420mpeg2", "420paldv"}
# An fmvc stream's header stores W and H in 16-bit fields.
_MAX_SIDE = 65535
# The decode budget: decoding takes about 3.75 bytes per pixel, so frames
# up to 8K UHD are accepted, and no header can demand gigabytes.
MAX_PIXELS = 7680 * 4320
# The most asked of one read, so planes a header declares over a short file
# are never allocated whole by a file object.
_READ_CHUNK = 1 << 24


def fields_equal(a, b) -> bool:
    """The equality of fmvc's array-holding records: b is a record of a's class
    and every field is equal, arrays by shape and content."""
    return isinstance(b, type(a)) and all(
        np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
        for x, y in ((getattr(a, f.name), getattr(b, f.name)) for f in fields(a))
    )


@dataclass(frozen=True, eq=False)
class FramePlane:
    """One 8-bit sample plane, row-major.  Treated as immutable once built."""

    width: int
    height: int
    samples: np.ndarray  # uint8, shape (height, width)

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ContractViolation(f"plane dimensions must be positive, got {self.width}x{self.height}")
        if self.samples.dtype != np.uint8:
            raise ContractViolation(f"plane samples must be uint8, got {self.samples.dtype}")
        if self.samples.shape != (self.height, self.width):
            raise ContractViolation(
                f"plane shape {self.samples.shape} does not match {self.height}x{self.width}"
            )

    @classmethod
    def from_array(cls, arr) -> "FramePlane":
        """A plane over a uint8 array as it is, or over a cast of an integer array
        whose samples all lie in [0, 255]; any other array is rejected."""
        arr = np.asarray(arr)
        if arr.dtype != np.uint8:
            if arr.dtype.kind not in "iu" or not np.all((arr >= 0) & (arr <= 255)):
                raise ContractViolation(f"plane samples must be integers in [0, 255], got {arr.dtype}")
            arr = arr.astype(np.uint8)
        if arr.ndim != 2:
            raise ContractViolation(f"plane array must be 2-D, got shape {arr.shape}")
        return cls(width=arr.shape[1], height=arr.shape[0], samples=arr)

    @classmethod
    def filled(cls, width: int, height: int, value: int) -> "FramePlane":
        return cls(width, height, np.full((height, width), value, dtype=np.uint8))

    __eq__ = fields_equal


def chroma_dims(width: int, height: int) -> tuple[int, int]:
    """4:2:0 chroma plane dimensions for a luma plane of the given size."""
    return (width + 1) // 2, (height + 1) // 2


@dataclass(frozen=True)
class Frame:
    """One 4:2:0 frame: full-resolution luma plus half-resolution Cb/Cr."""

    y: FramePlane
    cb: FramePlane
    cr: FramePlane

    def __post_init__(self):
        cw, ch = chroma_dims(self.y.width, self.y.height)
        for name, plane in (("cb", self.cb), ("cr", self.cr)):
            if (plane.width, plane.height) != (cw, ch):
                raise ContractViolation(
                    f"{name} plane is {plane.width}x{plane.height}, expected {cw}x{ch}"
                )

    @classmethod
    def gray(cls, width: int, height: int, value: int = 128) -> "Frame":
        cw, ch = chroma_dims(width, height)
        return cls(
            FramePlane.filled(width, height, value),
            FramePlane.filled(cw, ch, value),
            FramePlane.filled(cw, ch, value),
        )


@dataclass(frozen=True)
class VideoSequence:
    """An ordered run of 4:2:0 frames with a rational frame rate."""

    frames: tuple[Frame, ...]
    fps_num: int = 25
    fps_den: int = 1

    def __post_init__(self):
        object.__setattr__(self, "frames", tuple(self.frames))
        if len(self.frames) < 1:
            raise ContractViolation("a sequence must contain at least one frame")
        if self.fps_num <= 0 or self.fps_den <= 0:
            raise ContractViolation(f"frame rate {self.fps_num}:{self.fps_den} must be positive")
        w, h = self.width, self.height
        for i, frame in enumerate(self.frames):
            if (frame.y.width, frame.y.height) != (w, h):
                raise ContractViolation(f"frame {i} is {frame.y.width}x{frame.y.height}, expected {w}x{h}")

    @property
    def width(self) -> int:
        return self.frames[0].y.width

    @property
    def height(self) -> int:
        return self.frames[0].y.height

    def __len__(self):
        return len(self.frames)


def _parse_header(line: bytes) -> tuple[int, int, int, int]:
    width = height = None
    fps_num, fps_den = 25, 1
    for token in line.split(b" "):
        if not token:
            continue
        tag, rest = token[:1], token[1:].decode("ascii", "replace")
        if tag == b"W":
            if not rest.isdigit():
                raise ParseError(f"bad width token {token!r}")
            width = int(rest)
        elif tag == b"H":
            if not rest.isdigit():
                raise ParseError(f"bad height token {token!r}")
            height = int(rest)
        elif tag == b"F":
            parts = rest.split(":")
            if len(parts) != 2 or not all(p.isdigit() for p in parts) or 0 in map(int, parts):
                raise ParseError(f"bad frame-rate token {token!r}")
            fps_num, fps_den = int(parts[0]), int(parts[1])
        elif tag == b"C":
            if rest.lower() not in _ACCEPTED_CHROMA_TAGS:
                raise UnsupportedFormat(f"only 8-bit 4:2:0 input is accepted, got C{rest}")
        elif tag == b"I":
            if rest != "p":
                raise UnsupportedFormat(f"interlaced or unknown scan mode I{rest} is not accepted")
        # A (aspect) and X (comment) tokens are ignored.
    if width is None or height is None or width <= 0 or height <= 0:
        raise ParseError("header does not declare positive W and H")
    if max(width, height) > _MAX_SIDE or width * height > MAX_PIXELS:
        raise UnsupportedFormat(f"{width}x{height} frames exceed fmvc's {_MAX_SIDE}-sample sides or {MAX_PIXELS} pixels")
    return width, height, fps_num, fps_den


def _read_exact(stream, count: int, what: str) -> bytes:
    data = stream.read(min(count, _READ_CHUNK))
    while len(data) < count and (more := stream.read(min(count - len(data), _READ_CHUNK))):
        data += more
    if len(data) != count:
        raise TruncatedStream(f"stream ended inside {what}: wanted {count} bytes, got {len(data)}")
    return data


def read_y4m(source) -> VideoSequence:
    """Parse a YUV4MPEG2 stream (bytes or binary file object) into a sequence.

    Only progressive 8-bit 4:2:0 input is accepted; anything else raises
    UnsupportedFormat rather than being converted.
    """
    stream = io.BytesIO(source) if isinstance(source, (bytes, bytearray)) else source

    head = stream.read(len(Y4M_SIGNATURE))
    if head != Y4M_SIGNATURE:
        raise ParseError(f"not a YUV4MPEG2 stream (signature {head!r})")
    line = stream.readline(4097)
    if not line.endswith(b"\n"):
        raise ParseError("stream header exceeds 4096 bytes" if len(line) > 4096 else "unterminated stream header")
    width, height, fps_num, fps_den = _parse_header(line[:-1])

    cw, ch = chroma_dims(width, height)
    ysize, csize = width * height, cw * ch
    frames = []
    while True:
        marker = stream.read(5)
        if marker == b"":
            break
        if marker != b"FRAME":
            raise ParseError(f"expected FRAME marker at frame {len(frames)}, got {marker!r}")
        while not (part := stream.readline(4097)).endswith(b"\n"):  # optional parameters, ignored
            if not part:
                raise TruncatedStream("stream ended inside a FRAME header")
        y = _read_exact(stream, ysize, f"frame {len(frames)} luma")
        cb = _read_exact(stream, csize, f"frame {len(frames)} cb")
        cr = _read_exact(stream, csize, f"frame {len(frames)} cr")
        frames.append(
            Frame(
                FramePlane(width, height, np.frombuffer(y, np.uint8).reshape(height, width)),
                FramePlane(cw, ch, np.frombuffer(cb, np.uint8).reshape(ch, cw)),
                FramePlane(cw, ch, np.frombuffer(cr, np.uint8).reshape(ch, cw)),
            )
        )
    if not frames:
        raise ParseError("stream contains no frames")
    return VideoSequence(tuple(frames), fps_num, fps_den)


def write_y4m(seq: VideoSequence, sink) -> int:
    """Serialize a sequence as YUV4MPEG2; returns the number of bytes written.

    The emitted header is canonical, so write -> read -> write is byte-stable.
    """
    if not isinstance(seq, VideoSequence):
        raise ContractViolation("write_y4m expects a VideoSequence")
    header = f"YUV4MPEG2 W{seq.width} H{seq.height} F{seq.fps_num}:{seq.fps_den} Ip A1:1 C420jpeg\n"
    written = 0
    try:
        written += sink.write(header.encode("ascii"))
        for frame in seq.frames:
            written += sink.write(b"FRAME\n")
            written += sink.write(frame.y.samples.tobytes())
            written += sink.write(frame.cb.samples.tobytes())
            written += sink.write(frame.cr.samples.tobytes())
    except OSError as exc:
        raise IoError(f"write failed: {exc}") from exc
    return written
