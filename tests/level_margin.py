"""How far the map values that level maps read lie from a level boundary.

    python3 tests/level_margin.py

Levels are the codec's one float-to-integer step: level = min(floor(v * 16),
15) for a map value v, as the codec codes 16 levels, so a libm (or a numpy
SIMD kernel) that rounds v differently can move a block to another level
only when v lies within its rounding error of a boundary j/16.  Every whole-pixel gaze reads its values
from one offset table, so this enumerates every value such gazes can read:
each integer squared radius r^2 of a CIF and a 720p frame through the
gaussian maps of the default FMSC set (sigma = H/10 to H/2), and each default
geometry's CSF table over every whole offset.  For each it prints the value
closest to a boundary j/16, in absolute terms and in ulps.
Values exactly 0 or 1 are exact under any libm and are left out.  Not a
tier-1 test: it prints a measurement, and runs in seconds.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fmvc.cli import DEFAULT_FMSC_DIVISORS  # noqa: E402
from fmvc.codec import MAX_LEVELS  # noqa: E402
from fmvc.foveation import default_geometry, foveation_map  # noqa: E402

SIZES = ((352, 288), (1280, 720))


def closest(values: np.ndarray) -> tuple[float, float, int]:
    """(value, distance, j) of the value closest to a level boundary j/MAX_LEVELS, 0 < j < MAX_LEVELS."""
    v = np.unique(values[(values > 0.0) & (values < 1.0)])
    j = np.clip(np.rint(v * MAX_LEVELS), 1, MAX_LEVELS - 1)
    gap = np.abs(v - j / MAX_LEVELS)
    k = int(np.argmin(gap))
    return float(v[k]), float(gap[k]), int(j[k])


def report(name: str, values: np.ndarray) -> float:
    value, gap, j = closest(values)
    print(f"{name:34s} {value:.17g}  {gap:.3g} from {j}/{MAX_LEVELS}  ({gap / np.spacing(value):.3g} ulps)")
    return gap


def main() -> int:
    gaps = []
    for w, h in SIZES:
        r2 = np.arange((w - 1) ** 2 + (h - 1) ** 2 + 1, dtype=np.float64)
        for k in DEFAULT_FMSC_DIVISORS:
            sigma = h / k
            gaps.append(report(f"gaussian {w}x{h} sigma H/{k}", np.exp(-r2 / (2.0 * sigma * sigma))))
        geom = default_geometry(w, h)
        gaps.append(report(f"CSF table {w}x{h} default geometry", foveation_map(geom, (0, 0))._table[0]))
    print(f"closest to a level boundary: {min(gaps):.3g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
