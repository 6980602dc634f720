import io

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fmvc.errors import ContractViolation, FmvcError, ParseError, TruncatedStream, UnsupportedFormat
from fmvc.video_io import Frame, FramePlane, VideoSequence, chroma_dims, read_y4m, write_y4m

from conftest import frame_from_planes, y4m_files


def build_y4m(header: bytes, frames: list[bytes]) -> bytes:
    return header + b"".join(b"FRAME\n" + f for f in frames)


def ramp_sequence(width=16, height=16, n_frames=3):
    frames = []
    for t in range(n_frames):
        y = ((np.arange(height)[:, None] + np.arange(width)[None, :] + 7 * t) % 256).astype(np.uint8)
        cw, ch = chroma_dims(width, height)
        cb = ((np.arange(ch)[:, None] * 3 + t) % 256).astype(np.uint8) * np.ones((1, cw), np.uint8)
        cr = 255 - cb
        frames.append(frame_from_planes(y, cb, cr))
    return VideoSequence(tuple(frames), 30, 1)


def test_parse_single_zero_frame():
    payload = bytes(16) + bytes(4) + bytes(4)
    data = build_y4m(b"YUV4MPEG2 W4 H4 F25:1 Ip A1:1 C420jpeg\n", [payload])
    seq = read_y4m(data)
    assert len(seq) == 1
    assert (seq.width, seq.height) == (4, 4)
    assert seq.frames[0].y.samples.sum() == 0
    assert seq.frames[0].y.samples.size == 16


def test_c444_rejected():
    data = build_y4m(b"YUV4MPEG2 W4 H4 F25:1 C444\n", [bytes(16 * 3)])
    with pytest.raises(UnsupportedFormat):
        read_y4m(data)


@pytest.mark.parametrize("tag", [b"C422", b"C420p10", b"Cmono"])
def test_other_subsamplings_rejected(tag):
    with pytest.raises(UnsupportedFormat):
        read_y4m(build_y4m(b"YUV4MPEG2 W4 H4 F25:1 " + tag + b"\n", []))


@pytest.mark.parametrize("tag", [b"It", b"Ib", b"Im"])
def test_interlaced_rejected(tag):
    with pytest.raises(UnsupportedFormat):
        read_y4m(build_y4m(b"YUV4MPEG2 W4 H4 F25:1 " + tag + b"\n", []))


def test_ramp_clip_round_trips_byte_exactly():
    seq = ramp_sequence()
    sink = io.BytesIO()
    write_y4m(seq, sink)
    first = sink.getvalue()
    again = io.BytesIO()
    write_y4m(read_y4m(first), again)
    assert again.getvalue() == first


def test_read_write_round_trip_identity(rng):
    for _ in range(5):
        w = int(rng.integers(1, 33))
        h = int(rng.integers(1, 33))
        cw, ch = chroma_dims(w, h)
        frames = tuple(
            frame_from_planes(
                rng.integers(0, 256, (h, w), dtype=np.uint8),
                rng.integers(0, 256, (ch, cw), dtype=np.uint8),
                rng.integers(0, 256, (ch, cw), dtype=np.uint8),
            )
            for _ in range(int(rng.integers(1, 4)))
        )
        seq = VideoSequence(frames, 24, 1)
        sink = io.BytesIO()
        write_y4m(seq, sink)
        assert read_y4m(sink.getvalue()) == seq


def test_empty_sequence_is_contract_violation():
    with pytest.raises(ContractViolation):
        VideoSequence((), 25, 1)


def test_write_byte_count_for_4x4():
    seq = VideoSequence((Frame.gray(4, 4),), 25, 1)
    sink = io.BytesIO()
    count = write_y4m(seq, sink)
    header_len = len(b"YUV4MPEG2 W4 H4 F25:1 Ip A1:1 C420jpeg\n")
    assert count == header_len + len(b"FRAME\n") + 16 + 2 * 4
    assert count == len(sink.getvalue())


def test_bad_signature():
    with pytest.raises(ParseError):
        read_y4m(b"JUNKMPEG2 W4 H4\n")


def test_missing_dimensions():
    with pytest.raises(ParseError):
        read_y4m(b"YUV4MPEG2 F25:1\nFRAME\n")


def test_truncated_frame_payload():
    data = build_y4m(b"YUV4MPEG2 W4 H4 F25:1\n", [bytes(16 + 8)])
    with pytest.raises(TruncatedStream):
        read_y4m(data[:-5])


@pytest.mark.parametrize("rate", [b"F0:1", b"F0:1001", b"F00:25"])
def test_zero_frame_rate_is_parse_error(rate):
    data = build_y4m(b"YUV4MPEG2 W4 H4 " + rate + b"\n", [bytes(16 + 8)])
    with pytest.raises(ParseError, match="frame-rate"):
        read_y4m(data)


def test_zero_frames_is_error():
    with pytest.raises(ParseError):
        read_y4m(b"YUV4MPEG2 W4 H4 F25:1\n")


def test_garbage_after_header():
    data = b"YUV4MPEG2 W4 H4 F25:1\nGRAME\n" + bytes(24)
    with pytest.raises(ParseError):
        read_y4m(data)


def test_parsing_is_total_under_corruption(rng):
    seq = ramp_sequence(8, 8, 2)
    sink = io.BytesIO()
    write_y4m(seq, sink)
    clean = bytearray(sink.getvalue())
    for _ in range(200):
        data = bytearray(clean)
        pos = int(rng.integers(0, len(data)))
        data[pos] = int(rng.integers(0, 256))
        if rng.integers(0, 2):
            data = data[: int(rng.integers(0, len(data)))]
        try:
            read_y4m(bytes(data))
        except FmvcError:
            pass  # any typed error is acceptable; partial states are not


def test_plane_invariants():
    with pytest.raises(ContractViolation):
        FramePlane(0, 4, np.zeros((4, 0), np.uint8))
    with pytest.raises(ContractViolation):
        FramePlane(4, 4, np.zeros((4, 4), np.int16))
    with pytest.raises(ContractViolation):
        FramePlane(4, 3, np.zeros((4, 4), np.uint8))


_plane_shapes = hnp.array_shapes(min_dims=2, max_dims=2, max_side=4)


@given(
    st.one_of(
        hnp.arrays(hnp.integer_dtypes() | hnp.unsigned_integer_dtypes(), _plane_shapes),
        hnp.arrays(st.sampled_from([np.int16, np.uint16, np.int64]), _plane_shapes, elements=st.integers(-2, 257)),
        hnp.arrays(hnp.floating_dtypes(), _plane_shapes),
    )
)
def test_from_array_keeps_every_sample_or_raises(arr):
    try:
        plane = FramePlane.from_array(arr)
    except ContractViolation:
        assert arr.dtype.kind == "f" or arr.min() < 0 or arr.max() > 255
        return
    assert plane.samples.dtype == np.uint8 and np.array_equal(plane.samples, arr)


def test_from_array_takes_uint8_as_it_is_and_rejects_what_it_cannot_hold():
    samples = np.arange(12, dtype=np.uint8).reshape(3, 4)
    assert FramePlane.from_array(samples).samples is samples
    with pytest.raises(ContractViolation):
        FramePlane.from_array(np.array([[300, -1], [255.7, 0]]))


def test_failing_sink_raises_io_error():
    from fmvc.errors import IoError

    class BrokenSink:
        def write(self, data):
            raise OSError("disk full")

    seq = VideoSequence((Frame.gray(4, 4),), 25, 1)
    with pytest.raises(IoError):
        write_y4m(seq, BrokenSink())


def test_chroma_dims_must_match():
    with pytest.raises(ContractViolation):
        Frame(
            FramePlane.filled(4, 4, 0),
            FramePlane.filled(4, 4, 0),
            FramePlane.filled(2, 2, 0),
        )


def _outcome(source):
    try:
        return read_y4m(source)
    except FmvcError as exc:
        return type(exc)


@given(y4m_files())
def test_read_y4m_of_any_file(case):
    data, expected = case
    got = _outcome(data)
    assert got == _outcome(io.BytesIO(data))  # bytes and a file object read alike
    if expected is not None:
        w, h, (num, den), payloads = expected
        cw, ch = chroma_dims(w, h)
        planes = [np.frombuffer(p, np.uint8) for p in payloads]
        frames = [
            frame_from_planes(p[: w * h].reshape(h, w), p[w * h : w * h + cw * ch].reshape(ch, cw),
                              p[w * h + cw * ch :].reshape(ch, cw))
            for p in planes
        ]
        assert got == VideoSequence(tuple(frames), num, den)


class RecordingStream(io.BytesIO):
    """A binary file object that records the size asked of every read."""

    def __init__(self, data):
        super().__init__(data)
        self.sizes = []

    def read(self, size=-1):
        self.sizes.append(size)
        return super().read(size)

    def readline(self, size=-1):
        self.sizes.append(size)
        return super().readline(size)


@given(st.integers(2**8, 2**70), st.integers(1, 2**70), st.binary(max_size=64))
def test_declared_planes_are_never_read_whole(w, h, payload):
    # a short file behind a header that declares huge planes: no read may ask
    # for them at once, as a file object would allocate what it is asked for
    stream = RecordingStream(b"YUV4MPEG2 W%d H%d F25:1\nFRAME\n" % (w, h) + payload)
    with pytest.raises((UnsupportedFormat, TruncatedStream)):
        read_y4m(stream)
    assert all(0 <= size <= 1 << 24 for size in stream.sizes)


@pytest.mark.parametrize(
    "dims", [b"W99999999999999999999 H2", b"W65536 H2", b"W2 H65536", b"W7681 H4320", b"W65535 H507"]
)  # the last two are within the sides but over the MAX_PIXELS budget
def test_sides_a_stream_cannot_hold_are_unsupported(dims):
    data = b"YUV4MPEG2 " + dims + b" F1:1\nFRAME\n"
    for source in (data, io.BytesIO(data)):
        with pytest.raises(UnsupportedFormat):
            read_y4m(source)


def test_largest_side_is_read_until_the_file_ends():
    # 65535 x 506 is the widest side's tallest frame within the pixel budget, and 8K UHD the budget itself
    for dims in (b"W65535 H506", b"W7680 H4320"):
        with pytest.raises(TruncatedStream):
            read_y4m(b"YUV4MPEG2 " + dims + b" F1:1\nFRAME\n" + bytes(100))


@pytest.mark.parametrize(
    "length, error", [(4096, None), (4097, "exceeds 4096 bytes"), (9000, "exceeds 4096 bytes")]
)
def test_stream_header_length_bound(length, error):
    head = b"YUV4MPEG2 "
    line = b"W2 H2 X" + b"x" * (length - 7)  # the header after the signature
    data = head + line + b"\nFRAME\n" + bytes(6)
    if error is None:
        assert len(read_y4m(data)) == 1
    else:
        with pytest.raises(ParseError, match=error):
            read_y4m(data)


def test_unterminated_stream_header():
    with pytest.raises(ParseError, match="unterminated"):
        read_y4m(b"YUV4MPEG2 W2 H2")


def test_frame_parameters_of_any_length_are_skipped():
    data = b"YUV4MPEG2 W2 H2\nFRAME" + b" X" * 5000 + b"\n" + bytes(6) + b"FRAME\n" + bytes(6)
    assert len(read_y4m(io.BytesIO(data))) == 2
    with pytest.raises(TruncatedStream, match="FRAME header"):
        read_y4m(b"YUV4MPEG2 W2 H2\nFRAME" + b" X" * 5000)
