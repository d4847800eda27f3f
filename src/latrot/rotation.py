"""The discretized rotation maps: exact rotate, then quantize.

For a resolved angle the exact image of a lattice point (x, y) is
(x*cos - y*sin, x*sin + y*cos).  Quantizing componentwise gives the
three discretized maps:

* floor  -- nearest lattice point down-left; the residual lies in the
  half-open unit cell [0,1) x [0,1).
* round  -- nearest node, ties at .5 going up (round(x) = floor(x+1/2)),
  which makes it a translate of floor and keeps it a quantizer.
* trunc  -- componentwise truncation toward the origin.
"""

from __future__ import annotations

from enum import Enum

from .angle import AngleContext
from .exactnum import (
    HALF,
    Scalar,
    compare,
    floor_exact,
    frac_part,
    rational,
)

LatticePoint = tuple[int, int]
RealPoint = tuple[Scalar, Scalar]


class RoundingMode(Enum):
    FLOOR = "floor"
    ROUND = "round"
    TRUNC = "trunc"


def rotate(ctx: AngleContext, p: LatticePoint) -> RealPoint:
    x, y = p
    c, s = ctx.cos, ctx.sin
    return c * x - s * y, s * x + c * y


def rotate_inverse(ctx: AngleContext, p: LatticePoint) -> RealPoint:
    """Image under the rotation by the opposite angle."""
    x, y = p
    c, s = ctx.cos, ctx.sin
    return c * x + s * y, c * y - s * x


def _trunc_scalar(s: Scalar) -> int:
    f = floor_exact(s)
    if f >= 0:
        return f
    return f if compare(frac_part(s), rational(0)) == 0 else f + 1


def quantize(rp: RealPoint, mode: RoundingMode = RoundingMode.FLOOR) -> LatticePoint:
    x, y = rp
    if mode is RoundingMode.FLOOR:
        return floor_exact(x), floor_exact(y)
    if mode is RoundingMode.ROUND:
        return floor_exact(x + HALF), floor_exact(y + HALF)
    return _trunc_scalar(x), _trunc_scalar(y)


def discrete_rotate(
    ctx: AngleContext, p: LatticePoint, mode: RoundingMode = RoundingMode.FLOOR
) -> LatticePoint:
    return quantize(rotate(ctx, p), mode)


_CORNER_ORDER = ((0, 0), (1, 0), (0, 1), (1, 1))


def cell_corners(ctx: AngleContext, cell: LatticePoint) -> tuple[RealPoint, ...]:
    """Rotated images of the cell's four corners, in the fixed order
    (0,0), (1,0), (0,1), (1,1) so census code is deterministic."""
    a, b = cell
    return tuple(rotate(ctx, (a + ea, b + eb)) for ea, eb in _CORNER_ORDER)
