"""The 8x8 block grid and the integer block transform with an exact inverse.

A lifting realization of the 8-point DCT-II flowgraph: unnormalized
butterflies split even/odd halves (invertible because sums and differences
share parity), and every rotation is three fixed-point lifting shears, so
inverse(forward(x)) == x for any integer block regardless of constant
precision.  Arithmetic is integer-only, so the coefficients are the same
on every platform.  The grid helpers below are the only
place that tiles a plane, replicates its edge or reduces over its tiles.

Planes, predictions included, are raster; residuals and coefficients are
tiled, block-last: (8, 8, nby, nbx), the row and column in the block, then
the block row and column.  Coefficients are indexed (vertical frequency,
horizontal frequency, by, bx).  Each lifting step then reads and writes
whole (8, nby, nbx) slabs, runs of blocks that are contiguous in memory,
instead of strided 8-sample rows.

Outputs approximate the true DCT-II scaled per 1-D index by
(sqrt(8), sqrt(2), 2, sqrt(2), sqrt(8), sqrt(2), 2, sqrt(2)); the 2-D gain
is the outer product (8 at DC).  Constants use 12-bit fixed point.

The lifting runs in int32 whenever that is exact, else in int64, and its
result stays in that lane: the intermediates of the forward pass stay below
6.6e7 for residuals in +-255, and those of the inverse below 1.26e9 for
coefficients in +-32640, the largest dequantized value an encoder emits
(|coefficient| <= 16320 plus half of a step that does not zero it).  Both
bounds come from propagating magnitudes through the butterflies and _ODD_OPS.

FORWARD_MATRIX and FORWARD_ROUNDING describe forward_blocks as a linear
map plus bounded rounding, for the encoder's all-zero pre-test.  Both are
derived at import by running _fwd8 itself, unrounded, on gain vectors
(_linear_forward); no coded value is computed from them.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolation

BLOCK = 8

_FP = 12
_HALF = 1 << (_FP - 1)

# Largest input magnitudes for which the int32 lifting cannot overflow.
FORWARD_INT32_LIMIT = 255
INVERSE_INT32_LIMIT = 32640

# Even-half rotation by -pi/8 applied to (a3, a2), yielding (X2, -X6):
# P = round(-tan(theta/2) * 2^12), U = round(sin(theta) * 2^12).
_EVEN_P, _EVEN_U = 815, -1567

# Odd half: Givens cascade equal to the 4-point odd DCT basis over the
# differences o_i = x_i - x_{7-i}, normalized by 1/sqrt(2) (so the odd
# outputs carry gain sqrt(2) versus the orthonormal DCT).  Derived once by
# QR-factoring that orthogonal 4x4 into plane rotations; near-pi rotations
# are reduced by pair negations to keep the lifting constants small.
# Entries: ("rot", i, j, P, U) or ("neg", i, j), applied in order.
_ODD_OPS = (
    ("rot", 2, 3, 698, -1357),
    ("rot", 1, 2, 1303, -2367),
    ("neg", 1, 2),
    ("rot", 2, 3, -507, 998),
    ("neg", 2, 3),
    ("rot", 0, 1, -1742, 2951),
    ("rot", 1, 2, -1303, 2367),
    ("rot", 2, 3, -698, 1357),
)

# Conventional zigzag scan of an 8x8 block (row-major flat indices).
ZIGZAG = np.array(
    [
        0, 1, 8, 16, 9, 2, 3, 10,
        17, 24, 32, 25, 18, 11, 4, 5,
        12, 19, 26, 33, 40, 48, 41, 34,
        27, 20, 13, 6, 7, 14, 21, 28,
        35, 42, 49, 56, 57, 50, 43, 36,
        29, 22, 15, 23, 30, 37, 44, 51,
        58, 59, 52, 45, 38, 31, 39, 46,
        53, 60, 61, 54, 47, 55, 62, 63,
    ],
    dtype=np.intp,
)


def _shear(k, x):
    """round(k * x / 2**_FP), in one temporary."""
    t = k * x
    t += _HALF
    t >>= _FP
    return t


def _rot_fwd(a, b, p, u, shear=_shear):
    y1 = shear(p, b)
    y1 += a
    y2 = shear(u, y1)
    y2 += b
    y3 = shear(p, y2)
    y3 += y1
    return y3, y2


def _rot_inv(y3, y2, p, u):
    y1 = _shear(p, y2)
    np.subtract(y3, y1, out=y1)
    b = _shear(u, y1)
    np.subtract(y2, b, out=b)
    a = _shear(p, b)
    np.subtract(y1, a, out=a)
    return a, b


def _fwd8(x: np.ndarray, shear=_shear) -> np.ndarray:
    """Forward transform along the leading axis (length 8), in x's dtype; shear(k, v)
    stands in for each rounded shear, so the same steps can run unrounded."""
    lo, hi = x[:4], x[4:][::-1]
    s = lo + hi
    o = [lo[i] - hi[i] for i in range(4)]

    a0 = s[0] + s[3]
    a1 = s[1] + s[2]
    a3 = s[0] - s[3]
    a2 = s[1] - s[2]
    x0 = a0 + a1
    x4 = a0 - a1
    x2, neg_x6 = _rot_fwd(a3, a2, _EVEN_P, _EVEN_U, shear)

    for op in _ODD_OPS:
        if op[0] == "rot":
            _, i, j, p, u = op
            o[i], o[j] = _rot_fwd(o[i], o[j], p, u, shear)
        else:
            _, i, j = op
            o[i], o[j] = -o[i], -o[j]

    return np.stack([x0, o[0], x2, o[1], x4, o[2], -neg_x6, o[3]])


def _inv8(c: np.ndarray) -> np.ndarray:
    """Exact inverse of _fwd8 along the leading axis."""
    o = [c[1], c[3], c[5], c[7]]
    for op in reversed(_ODD_OPS):
        if op[0] == "rot":
            _, i, j, p, u = op
            o[i], o[j] = _rot_inv(o[i], o[j], p, u)
        else:
            _, i, j = op
            o[i], o[j] = -o[i], -o[j]

    a3, a2 = _rot_inv(c[2], -c[6], _EVEN_P, _EVEN_U)
    a0, a1 = c[0] + c[4], c[0] - c[4]
    a0 >>= 1  # forward butterflies share parity,
    a1 >>= 1  # so these halvings are exact
    s = [a0 + a3, a1 + a2, a1 - a2, a0 - a3]

    out = np.empty(c.shape, dtype=c.dtype)
    for i in range(4):
        s[i] >>= 1
        np.add(s[i], o[i], out=out[i])
        np.subtract(s[i], o[i], out=out[7 - i])
    out >>= 1
    return out


def _lifting_input(values, limit: int) -> np.ndarray:
    """values as an (8, 8, ...) integer array in the dtype its lifting runs in:
    int32 while every magnitude is at most limit, otherwise int64."""
    a = np.asarray(values)
    if a.dtype.kind not in "iu":
        a = a.astype(np.int64)
    if a.shape[:2] != (BLOCK, BLOCK):
        raise ContractViolation(f"expected leading 8x8 block axes, got {a.shape}")
    fits = a.size == 0 or (-limit <= int(a.min()) and int(a.max()) <= limit)
    return a.astype(np.int32 if fits else np.int64, copy=False)


def forward_blocks(blocks: np.ndarray) -> np.ndarray:
    """Transform blocks laid out (8, 8, ...): rows first, then columns; out in the lane the lifting ran in.

    Axis 0 is the row in the block and axis 1 the column; out[l, k, ...] is
    the coefficient of vertical frequency l and horizontal frequency k.
    """
    b = _lifting_input(blocks, FORWARD_INT32_LIMIT)
    rows = _fwd8(b.swapaxes(0, 1))  # (k, row, ...)
    return _fwd8(rows.swapaxes(0, 1))


def inverse_blocks(coeffs: np.ndarray) -> np.ndarray:
    """Exact inverse of forward_blocks (column pass undone first); out in the lane the lifting ran in."""
    cols = _inv8(_lifting_input(coeffs, INVERSE_INT32_LIMIT))  # (row, k, ...)
    return _inv8(cols.swapaxes(0, 1)).swapaxes(0, 1)


def _linear_forward() -> tuple[np.ndarray, np.ndarray]:
    """forward_blocks as a linear map plus rounding: (T, eps) with
    |forward_blocks(x) - T x| <= eps for every integer block x.

    T is (64, 64), from a block's samples (row-major) to its coefficients
    (l, k) in row-major order; eps is (64,) in the same coefficient order.
    _fwd8 runs once on gain vectors instead of samples: each holds its gain
    on the 8 inputs and on the rounding error of each shear.  A shear is
    unrounded, k v / 2**_FP, plus a new error term e = floor(y + 1/2) - y
    in (-1/2, 1/2].  Every other step is linear, so one 1-D pass gives
    T1 x + sum_s g_s e_s, off its linear part by at most
    e1_l = sum_s |g_ls| / 2.  The row pass leaves each sample of row m,
    column k, within e1_k of linear; the column pass carries that through
    T1 and adds its own rounding: eps_lk = sum_m |T1_lm| e1_k + e1_l.
    """
    width = BLOCK + 3 * (1 + sum(op[0] == "rot" for op in _ODD_OPS))  # inputs, then shears
    errors = iter(np.eye(width)[BLOCK:])
    gains = _fwd8(np.eye(BLOCK, width), shear=lambda k, v: k * v / (1 << _FP) + next(errors))
    t1, e1 = gains[:, :BLOCK], np.abs(gains[:, BLOCK:]).sum(axis=1) / 2
    eps = np.abs(t1).sum(axis=1)[:, None] * e1 + e1[:, None]
    return (t1[:, None, :, None] * t1[None, :, None, :]).reshape(BLOCK * BLOCK, -1), eps.reshape(-1)


FORWARD_MATRIX, FORWARD_ROUNDING = _linear_forward()


# --- the block grid -------------------------------------------------------
# Every layer codes, predicts and allocates on one grid of 8x8 tiles laid
# from the top-left corner; the last row and column of tiles may be partial.


def require_block(block_size: int) -> None:
    """Reject block sizes other than the grid's fixed BLOCK."""
    if block_size != BLOCK:
        raise ContractViolation(f"block size is fixed at {BLOCK}, got {block_size}")


def grid_shape(shape: tuple[int, int]) -> tuple[int, int]:
    """Tiles down and across a (height, width) plane, partial edge tiles included."""
    return -(-shape[0] // BLOCK), -(-shape[1] // BLOCK)


def edge_padded(plane: np.ndarray, height: int, width: int, before: int) -> np.ndarray:
    """plane edge-padded to a new C-contiguous height x width array, with before
    samples above and to the left: out[i, j] is plane at (clip(i - before), clip(j - before))."""
    h, w = plane.shape
    out = np.empty((height, width), plane.dtype)  # twice as fast as np.pad
    rows = out[before : before + h]
    rows[:, :before], rows[:, before : before + w], rows[:, before + w :] = plane[:, :1], plane, plane[:, -1:]
    out[:before], out[before + h :] = rows[0], rows[-1]
    return out


def grid_tiles(plane: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The plane edge-padded to whole tiles (a copy unless its sides are multiples
    of 8), and a view of it as tiles (8, 8, nby, nbx), tiles[i, j, by, bx] being
    padded[8 by + i, 8 bx + j]; writes through the view land in a C-contiguous one."""
    h, w = plane.shape
    nby, nbx = grid_shape((h, w))
    if h % BLOCK or w % BLOCK:
        plane = edge_padded(plane, nby * BLOCK, nbx * BLOCK, 0)
    return plane, plane.reshape(nby, BLOCK, nbx, BLOCK).transpose(1, 3, 0, 2)


def tile_reduce(plane: np.ndarray, ufunc: np.ufunc) -> np.ndarray:
    """Reduce each tile to one value with a ufunc such as np.add or np.maximum.

    Only samples inside the plane take part: a partial edge tile is not
    padded, so sums count its real samples alone.  The 8 rows of each tile
    row are combined first, then each run of 8 columns, in the dtype
    ufunc.reduce gives (np.add widens small integers).
    """
    acc = plane[::BLOCK].astype(ufunc.reduce(plane[:1, :1], axis=0).dtype)
    for k in range(1, BLOCK):
        rows = plane[k::BLOCK]  # one row short of acc when the last tile row is partial
        ufunc(acc[: len(rows)], rows, out=acc[: len(rows)])
    return ufunc.reduceat(acc, np.arange(0, plane.shape[1], BLOCK), axis=1)
