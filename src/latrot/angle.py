"""Angle resolution and arithmetic classification.

An angle enters as one of four spec variants (multiple of pi with
denominator in {1,2,3,4,6}, a primitive Pythagorean triple, explicit
exact sin/cos in a quadratic field, or a numeric radian value) and is
resolved into exact (or high-precision) sine and cosine plus a
classification of the rational relations among 1, sin, cos:

* CardinalMultiple      -- the angle is a multiple of pi/2; the
  discretized map is the exact rotation, hence bijective.
* RationalPythagorean   -- sin = p1/q, cos = p2/q with p1^2+p2^2 = q^2.
* LinearRelation        -- cos = r1*sin + r2 with r1, r2 rational and
  sin irrational (or the mirrored relation, flagged ``swapped``).
  ``exceptional`` marks r1 = +-1 (sin = +-cos + r), the relation singled
  out in the paper's density statement.  Census growth is still
  quadratic there: with cos irrational, the rotated lattice is
  equidistributed mod Z^2 and both densities are 2(1-|cos|)(1-|sin|).
* GenericIndependent    -- 1, sin, cos rationally independent.
* UnknownNumeric        -- numeric angles are never classified by
  heuristics; census tools still run.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .errors import InvalidSpec
from .exactnum import (
    HighPrec,
    Scalar,
    _mpf_bounds,
    compare,
    format_scalar,
    parse_scalar,
    quad,
    rational,
)

from mpmath.libmp import mpf_cos, mpf_sin, round_nearest


# --------------------------------------------------------------------------
# Specs
# --------------------------------------------------------------------------

_PI_DENS = (1, 2, 3, 4, 6)


class Orientation(Enum):
    SIN_ODD = "sin_odd"  # sin = (u^2 - v^2)/q
    SIN_EVEN = "sin_even"  # sin = 2uv/q


@dataclass(frozen=True)
class PiMultiple:
    k: int
    den: int = 1

    def __post_init__(self):
        if self.den not in _PI_DENS:
            raise InvalidSpec(f"pi-multiple denominator must be in {_PI_DENS}")


@dataclass(frozen=True)
class Pythagorean:
    u: int
    v: int
    orientation: Orientation = Orientation.SIN_ODD
    sin_sign: int = 1
    cos_sign: int = 1

    def __post_init__(self):
        u, v = self.u, self.v
        if not (u > v >= 1):
            raise InvalidSpec("need u > v >= 1")
        if math.gcd(u, v) != 1:
            raise InvalidSpec(f"gcd({u},{v}) != 1: triple not primitive")
        if (u - v) % 2 == 0:
            raise InvalidSpec(f"u={u}, v={v} have equal parity")
        if self.sin_sign not in (1, -1) or self.cos_sign not in (1, -1):
            raise InvalidSpec("quadrant signs must be +-1")


@dataclass(frozen=True)
class QuadField:
    sin: Scalar
    cos: Scalar


@dataclass(frozen=True)
class Numeric:
    radians: HighPrec


AngleSpec = PiMultiple | Pythagorean | QuadField | Numeric


# --------------------------------------------------------------------------
# Classes
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CardinalMultiple:
    k: int  # angle = k * pi/2 (mod 2pi), k in 0..3


@dataclass(frozen=True)
class RationalPythagorean:
    p1: int  # sin = p1/q (signed)
    p2: int  # cos = p2/q (signed)
    q: int


@dataclass(frozen=True)
class LinearRelation:
    r1: Fraction
    r2: Fraction
    exceptional: bool
    swapped: bool = False  # relation reads sin = r1*cos + r2


@dataclass(frozen=True)
class GenericIndependent:
    pass


@dataclass(frozen=True)
class UnknownNumeric:
    pass


AngleClass = (
    CardinalMultiple
    | RationalPythagorean
    | LinearRelation
    | GenericIndependent
    | UnknownNumeric
)


@dataclass(frozen=True)
class AngleContext:
    spec: AngleSpec
    sin: Scalar
    cos: Scalar
    classification: AngleClass

    def canonical_text(self) -> str:
        return angle_text(self)


# --------------------------------------------------------------------------
# Resolution
# --------------------------------------------------------------------------

# sin/cos at j*15 degrees for the j reachable from denominators {1,2,3,4,6}:
# even j (multiples of 30 degrees) and odd multiples of 45 degrees.
def _pi12_sincos(j: int) -> tuple[Scalar, Scalar]:
    j %= 24
    quadrant, base = divmod(j, 6)
    table = {
        0: (rational(0), rational(1)),
        2: (rational(1, 2), quad(0, 1, 3, 2)),
        3: (quad(0, 1, 2, 2), quad(0, 1, 2, 2)),
        4: (quad(0, 1, 3, 2), rational(1, 2)),
    }
    if base not in table:
        raise InvalidSpec(f"angle {j}*pi/12 is outside the supported grid")
    s, c = table[base]
    for _ in range(quadrant):  # rotate by pi/2: (s, c) -> (c, -s)
        s, c = c, -s
    return s, c


def resolve(spec: AngleSpec) -> AngleContext:
    """Exact sin/cos (HighPrec for Numeric) plus classification."""
    if isinstance(spec, PiMultiple):
        j = spec.k * (12 // spec.den)
        sin, cos = _pi12_sincos(j)
    elif isinstance(spec, Pythagorean):
        u, v = spec.u, spec.v
        odd, even, q = u * u - v * v, 2 * u * v, u * u + v * v
        if spec.orientation is Orientation.SIN_ODD:
            sin, cos = rational(spec.sin_sign * odd, q), rational(spec.cos_sign * even, q)
        else:
            sin, cos = rational(spec.sin_sign * even, q), rational(spec.cos_sign * odd, q)
    elif isinstance(spec, QuadField):
        sin, cos = spec.sin, spec.cos
        _check_unit_circle(sin, cos)
    elif isinstance(spec, Numeric):
        sin, cos = _numeric_sincos(spec.radians)
    else:
        raise InvalidSpec(f"unknown angle spec {spec!r}")
    return AngleContext(spec, sin, cos, classify(sin, cos))


def _check_unit_circle(sin: Scalar, cos: Scalar) -> None:
    if not (isinstance(sin, Scalar) and isinstance(cos, Scalar)):
        raise InvalidSpec("sin/cos must be exact scalars")
    if compare(sin * sin + cos * cos, rational(1)) != 0:
        raise InvalidSpec("sin^2 + cos^2 != 1")


def _numeric_sincos(theta: HighPrec) -> tuple[HighPrec, HighPrec]:
    if not isinstance(theta, HighPrec):
        raise InvalidSpec("Numeric angle needs a HighPrec radian value")
    bits = theta.precision_bits

    def make(fun):
        def shown(b):
            return fun(theta.shown(b + 16), b + 16, round_nearest)

        def fn(b):
            # the libmp value at b + 16 bits, widened by theta's width
            # (|sin'|, |cos'| <= 1, and theta.shown lies in theta's
            # enclosure) plus one unit at b for libmp's rounding
            tlo, thi = theta.eval(b + 16)
            lo, hi = _mpf_bounds(shown(b), b + 16)
            slack = thi - tlo + (1 << 16)
            return (lo - slack) >> 16, -(-(hi + slack) >> 16)

        return HighPrec(fn, bits, shown)

    return make(mpf_sin), make(mpf_cos)


# --------------------------------------------------------------------------
# Classification
# --------------------------------------------------------------------------

def classify(sin: Scalar, cos: Scalar) -> AngleClass:
    """Arithmetic classification; exact inputs only, Numeric stays unknown."""
    if isinstance(sin, HighPrec) or isinstance(cos, HighPrec):
        return UnknownNumeric()

    # sin = s0 + s1*sqrt(ds), cos = c0 + c1*sqrt(dc); d None when rational
    ps, qs, ns, ds = sin.p, sin.q, sin.den, sin.d
    pc, qc, nc, dc = cos.p, cos.q, cos.den, cos.d
    s0, s1, c0, c1 = Fraction(ps, ns), Fraction(qs, ns), Fraction(pc, nc), Fraction(qc, nc)
    if ds is None and dc is None:
        pair = {(0, 1): 0, (1, 0): 1, (0, -1): 2, (-1, 0): 3}.get((s0, c0))
        if pair is not None:
            return CardinalMultiple(pair)
        # denominators agree for exact points on the unit circle
        return RationalPythagorean(ps, pc, ns)

    if ds is not None and dc is not None and ds != dc:
        # e.g. sin = sqrt(3)/3, cos = sqrt(6)/3: no rational relation
        return GenericIndependent()
    if s1 != 0:
        r1 = c1 / s1
        r2 = c0 - r1 * s0
        return LinearRelation(r1, r2, exceptional=(abs(r1) == 1))
    # sin rational, cos irrational: mirrored relation sin = 0*cos + sin
    return LinearRelation(Fraction(0), s0, exceptional=False, swapped=True)


# --------------------------------------------------------------------------
# Text grammar:  pi/4  pi*3/4  0  pyth:3,4,5  quad:sin=...,cos=...  rad:~1.0
# --------------------------------------------------------------------------

def parse_angle(text: str) -> AngleSpec:
    t = text.strip().replace(" ", "")
    if t == "0":
        return PiMultiple(0, 1)
    if t.startswith("pi"):
        rest = t[2:]
        k, den = 1, 1
        if rest.startswith("*"):
            body = rest[1:]
            if "/" in body:
                ks, dens = body.split("/", 1)
                k, den = int(ks), int(dens)
            else:
                k = int(body)
        elif rest.startswith("/"):
            den = int(rest[1:])
        elif rest:
            raise InvalidSpec(f"cannot parse angle {text!r}")
        return PiMultiple(k, den)
    if t.startswith("pyth:"):
        parts = t[5:].split(",")
        if len(parts) != 3:
            raise InvalidSpec("pyth: wants three comma-separated legs p1,p2,q")
        p1, p2, q = (int(p) for p in parts)
        return _pyth_spec_from_triple(p1, p2, q)
    if t.startswith("quad:"):
        fields = dict(
            part.split("=", 1) for part in t[5:].split(",") if "=" in part
        )
        if set(fields) != {"sin", "cos"}:
            raise InvalidSpec("quad: wants sin=...,cos=...")
        return QuadField(parse_scalar(fields["sin"]), parse_scalar(fields["cos"]))
    if t.startswith("rad:"):
        value = parse_scalar(t[4:])
        if not isinstance(value, HighPrec):
            raise InvalidSpec("rad: wants a ~decimal high-precision value")
        return Numeric(value)
    raise InvalidSpec(f"cannot parse angle {text!r}")


def _pyth_spec_from_triple(p1: int, p2: int, q: int) -> Pythagorean:
    if q <= 0 or p1 == 0 or p2 == 0:
        raise InvalidSpec("triple legs must be nonzero with q > 0")
    if p1 * p1 + p2 * p2 != q * q:
        raise InvalidSpec(f"{abs(p1)},{abs(p2)},{q} is not a Pythagorean triple")
    a, b = abs(p1), abs(p2)
    if math.gcd(a, q) != 1:
        raise InvalidSpec(f"{a},{b},{q} is not primitive")
    odd, even = (a, b) if a % 2 == 1 else (b, a)
    # odd = u^2 - v^2, even = 2uv, q = u^2 + v^2  =>  u^2 = (q + odd)/2
    u = math.isqrt((q + odd) // 2)
    v = math.isqrt((q - odd) // 2)
    if u * u != (q + odd) // 2 or v * v != (q - odd) // 2:
        raise InvalidSpec(f"{a},{b},{q} is not a primitive triple")
    orientation = Orientation.SIN_ODD if a % 2 == 1 else Orientation.SIN_EVEN
    sign = lambda x: 1 if x > 0 else -1
    return Pythagorean(u, v, orientation, sign(p1), sign(p2))


def angle_text(ctx: AngleContext) -> str:
    spec = ctx.spec
    if isinstance(spec, PiMultiple):
        if spec.k == 0:
            return "0"
        if spec.den == 1:
            return "pi" if spec.k == 1 else f"pi*{spec.k}"
        if spec.k == 1:
            return f"pi/{spec.den}"
        return f"pi*{spec.k}/{spec.den}"
    if isinstance(spec, Pythagorean):
        s = ctx.sin
        c = ctx.cos
        return f"pyth:{s.numerator},{c.numerator},{s.denominator}"
    if isinstance(spec, QuadField):
        return f"quad:sin={format_scalar(spec.sin)},cos={format_scalar(spec.cos)}"
    if isinstance(spec, Numeric):
        return f"rad:{format_scalar(spec.radians)}"
    raise InvalidSpec(f"unknown spec {spec!r}")


def context_from_text(text: str) -> AngleContext:
    return resolve(parse_angle(text))


# --------------------------------------------------------------------------
# Bit-exact JSON serialization (report headers)
# --------------------------------------------------------------------------

def _class_to_dict(c: AngleClass) -> dict:
    if isinstance(c, CardinalMultiple):
        return {"type": "cardinal_multiple", "k": c.k}
    if isinstance(c, RationalPythagorean):
        return {"type": "rational_pythagorean", "p1": c.p1, "p2": c.p2, "q": c.q}
    if isinstance(c, LinearRelation):
        return {
            "type": "linear_relation",
            "r1": str(c.r1),
            "r2": str(c.r2),
            "exceptional": c.exceptional,
            "swapped": c.swapped,
        }
    if isinstance(c, GenericIndependent):
        return {"type": "generic_independent"}
    return {"type": "unknown_numeric"}


def context_to_dict(ctx: AngleContext) -> dict:
    return {
        "angle": angle_text(ctx),
        "sin": format_scalar(ctx.sin),
        "cos": format_scalar(ctx.cos),
        "class": _class_to_dict(ctx.classification),
    }


def context_to_json(ctx: AngleContext) -> str:
    return json.dumps(context_to_dict(ctx))
