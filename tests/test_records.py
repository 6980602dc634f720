"""Equality of fmvc's frozen records: a record equals another of its class
when every field is equal, arrays by shape and content; any other type
compares unequal, and no record is hashable."""

from dataclasses import replace

import numpy as np
import pytest

from fmvc.displacement import DisplacementField
from fmvc.foveation import FoveationMap, LevelMap
from fmvc.video_io import Frame, FramePlane, VideoSequence


def samples(width, height, seed):
    return np.random.default_rng(seed).integers(0, 256, (height, width), dtype=np.uint8)


def bumped(a):
    """A copy of a with its last element changed."""
    b = a.copy()
    b.reshape(-1)[-1] = (b.reshape(-1)[-1] + 1) % 2
    return b


def plane(seed=0):
    return FramePlane.from_array(samples(6, 4, seed))


def frame(seed=0):
    return Frame(plane(seed), FramePlane.from_array(samples(3, 2, seed + 1)), FramePlane.from_array(samples(3, 2, seed + 2)))


def sequence():
    return VideoSequence((frame(0), frame(3)), 30, 1)


def fmap():
    return FoveationMap(np.linspace(0.0, 1.0, 24).reshape(4, 6), (2.0, 1.5))


def level_map():
    return LevelMap((np.arange(24, dtype=np.uint8) % 4).reshape(4, 6), 4)


def field():
    return DisplacementField((np.arange(12, dtype=np.int8) % 13).reshape(3, 4))


# per record: a builder giving an equal copy with fresh arrays on every call,
# and copies that differ from it in one field
RECORDS = {
    "FramePlane": (plane, {
        "one sample": lambda: FramePlane.from_array(bumped(plane().samples)),
        "shape": lambda: FramePlane.from_array(plane().samples.reshape(6, 4)),
    }),
    "Frame": (frame, {
        "y": lambda: replace(frame(), y=FramePlane.from_array(bumped(frame().y.samples))),
        "cb": lambda: replace(frame(), cb=FramePlane.from_array(bumped(frame().cb.samples))),
        "cr": lambda: replace(frame(), cr=FramePlane.from_array(bumped(frame().cr.samples))),
    }),
    "VideoSequence": (sequence, {
        "one frame": lambda: VideoSequence((frame(0), frame(9)), 30, 1),
        "frame count": lambda: VideoSequence((frame(0), frame(3), frame(3)), 30, 1),
        "fps_num": lambda: replace(sequence(), fps_num=25),
        "fps_den": lambda: replace(sequence(), fps_den=2),
    }),
    "FoveationMap": (fmap, {
        "one value": lambda: replace(fmap(), values=bumped(fmap().values)),
        "shape": lambda: replace(fmap(), values=fmap().values.reshape(6, 4)),
        "gaze x": lambda: replace(fmap(), gaze=(2.5, 1.5)),
        "gaze y": lambda: replace(fmap(), gaze=(2.0, 1.0)),
    }),
    "LevelMap": (level_map, {
        "one level": lambda: replace(level_map(), levels=bumped(level_map().levels)),
        "shape": lambda: replace(level_map(), levels=level_map().levels.reshape(6, 4)),
        "n": lambda: replace(level_map(), n=5),
    }),
    "DisplacementField": (field, {
        "one index": lambda: DisplacementField(bumped(field().indices)),
        "shape": lambda: DisplacementField(field().indices.reshape(4, 3)),
    }),
}


def arrays(record):
    return [v for v in vars(record).values() if isinstance(v, np.ndarray)]


@pytest.mark.parametrize("name", RECORDS)
def test_copy_with_fresh_arrays_is_equal(name):
    build, _ = RECORDS[name]
    a, b = build(), build()
    assert all(x is not y for x, y in zip(arrays(a), arrays(b)))
    assert a == b and not a != b
    assert a == a


@pytest.mark.parametrize(
    "name, change", [(name, change) for name, (_, changes) in RECORDS.items() for change in changes]
)
def test_any_single_field_change_is_unequal(name, change):
    build, changes = RECORDS[name]
    a, b = build(), changes[change]()
    assert type(b) is type(a)
    assert a != b and not a == b
    assert b != a and not b == a


@pytest.mark.parametrize("name", RECORDS)
def test_other_types_compare_unequal(name):
    a = RECORDS[name][0]()
    others = [build() for other, (build, _) in RECORDS.items() if other != name]
    for other in [*others, None, 0, "a", (), tuple(vars(a).values())]:
        assert not a == other and a != other
        assert not other == a and other != a


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_unhashable(name):
    with pytest.raises(TypeError):
        hash(RECORDS[name][0]())
