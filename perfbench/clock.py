"""A fixed reference kernel that measures how fast the host runs right now.

On a 2-core VM that shares its host, speed drifts by tens of percent over
seconds to minutes, as other tenants load the host.  The benchmark times
this kernel around every pass and every set-up, and scales those times to
the speed at which the kernel takes REFERENCE_S.  The kernel never calls fmvc, so a change to fmvc
cannot move it: a slower codec shows in full in the scaled times.

Its mix follows the codec's: an exp-Golomb bit-string loop in pure Python,
and shifted differences, block sums and a separable filter on a CIF plane
and on a 640x360 plane, whose working set exceeds L2.  The arrays stay small
next to the codec's, so that the kernel does not set the peak memory.
"""

import time

import numpy as np
from scipy.ndimage import convolve1d

REFERENCE_S = 0.070  # about its median time on a 2-core x86-64 VM, Python 3.11, numpy 2.4

_rng = np.random.default_rng(0x5EED)
_VALUES = _rng.integers(-6, 7, 20000).tolist()
_CIF = _rng.integers(0, 256, (288, 352)).astype(np.uint8)
_WIDE = _rng.integers(0, 256, (360, 640)).astype(np.uint8)
_KERNEL = np.exp(-np.arange(-5, 6) ** 2 / 4.5)


def _bit_strings() -> int:
    parts = []
    for v in _VALUES:
        s = (2 * v - 1 if v > 0 else -2 * v) + 1
        parts.append(format(s, f"0{2 * s.bit_length() - 1}b"))
    bits = "".join(parts)
    pos, count = 0, 0
    while pos < len(bits):
        zeros = bits.find("1", pos) - pos
        count += int(bits[pos + zeros : pos + 2 * zeros + 1], 2)
        pos += 2 * zeros + 1
    return count


def _arrays(plane: np.ndarray) -> float:
    h, w = plane.shape
    rows, cols = np.arange(0, h, 8), np.arange(0, w, 8)
    shifted = np.take(plane, np.clip(np.arange(w) - 3, 0, w - 1), axis=1)
    diff = plane.astype(np.int32) - shifted
    sums = np.add.reduceat(np.add.reduceat(diff * diff, rows, axis=0), cols, axis=1)
    smooth = convolve1d(convolve1d(plane.astype(np.float32), _KERNEL, axis=0), _KERNEL, axis=1)
    return float(sums.min() + smooth[0, 0])


def reference_seconds() -> float:
    """Wall time of one run of the kernel."""
    t = time.perf_counter()
    _bit_strings()
    _arrays(_CIF)
    for _ in range(4):
        _arrays(_WIDE)
    return time.perf_counter() - t
