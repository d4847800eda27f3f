"""Exact and adaptive-precision real scalars with provably correct floors.

Three representations cover everything the lattice machinery needs:

* ``QuadIrr``     -- (p + q*sqrt(d))/den with integer p, q != 0, den > 0
  and squarefree d >= 2.
* ``Rational``    -- its q = 0 case: p/den in lowest terms, q = 0, d None.
  Exact arithmetic, floors and comparisons are one integer formula each
  over both, decided by integer square comparisons, never by floats.
* ``HighPrec``    -- a lazily re-evaluable value that yields, at any
  precision bits, integers lo <= value*2^bits <= hi: the same integer
  enclosures the kernels decide flagged floors from.  Floor/comparison
  decisions escalate precision (doubling, up to a cap) until they are
  certain.  If a value sits exactly on a boundary the operation raises
  :class:`UndecidableAtPrecision` rather than guessing.

Arithmetic between exact variants over one radicand stays exact.
Anything mixed with a ``HighPrec`` degrades to ``HighPrec``, and so do
sums, products and comparisons of quadratic irrationals over different
radicands: a*sqrt(d1) + b*sqrt(d2) + c with a, b != 0 is irrational, so
its floors and comparisons with single-field values are always decided.

All values are immutable and safe to share between threads.  HighPrec
arithmetic is Python-int arithmetic on enclosure endpoints, with every
shift rounded outward; mpmath's libmp only parses and prints leaves
(and evaluates the rad: sine and cosine, in angle.py), always at an
explicit precision, never mpmath's process-global one.
"""

from __future__ import annotations

import math
import numbers
import os
import re
from fractions import Fraction

from mpmath.libmp import (
    fzero,
    from_float,
    from_int,
    from_man_exp,
    from_str,
    mpf_neg,
    round_nearest,
    to_float,
    to_str,
)

from .errors import InvalidSpec, UndecidableAtPrecision

DEFAULT_PRECISION_BITS = 128
MAX_PRECISION_BITS = 2048
_ENV_BITS = "LATTICE_ROT_PRECISION_BITS"


def default_precision_bits() -> int:
    """HighPrec starting precision; overridable via LATTICE_ROT_PRECISION_BITS."""
    env = os.environ.get(_ENV_BITS)
    if env:
        try:
            bits = int(env)
        except ValueError:
            raise InvalidSpec(f"{_ENV_BITS}={env!r}: expected an integer") from None
        if bits < 8:
            raise InvalidSpec(f"{_ENV_BITS}={env!r}: need at least 8 bits")
        return bits
    return DEFAULT_PRECISION_BITS


def _is_squarefree(d: int) -> bool:
    if d < 2:
        return False
    i = 2
    while i * i <= d:
        if d % (i * i) == 0:
            return False
        i += 1
    return True


def _floor_sqrt_multiple(q: int, d: int) -> int:
    """floor(q * sqrt(d)) for integer q and non-square d >= 2; 0 at q = 0.

    q*sqrt(d) is irrational for q != 0, so the negative branch never sits
    on an integer.
    """
    if q == 0:
        return 0
    r = math.isqrt(q * q * d)
    return r if q > 0 else -r - 1


class Scalar:
    """Common operator surface; concrete subclasses below."""

    __slots__ = ()

    def __add__(self, other):
        return _binary(_add, self, other)

    def __radd__(self, other):
        return _binary(_add, other, self)

    def __sub__(self, other):
        return _binary(_sub, self, other)

    def __rsub__(self, other):
        return _binary(_sub, other, self)

    def __mul__(self, other):
        return _binary(_mul, self, other)

    def __rmul__(self, other):
        return _binary(_mul, other, self)

    def __neg__(self):
        return _neg(self)

    def __lt__(self, other):
        return compare(self, other) < 0

    def __le__(self, other):
        return compare(self, other) <= 0

    def __gt__(self, other):
        return compare(self, other) > 0

    def __ge__(self, other):
        return compare(self, other) >= 0

    def __str__(self):
        return format_scalar(self)


class Rational(Scalar):
    """p/den in lowest terms, den > 0: QuadIrr's (p + q*sqrt(d))/den at
    q = 0, with the same fields (q = 0, d None)."""

    __slots__ = ("p", "den")
    q = 0
    d = None

    def __init__(self, numerator, denominator=1):
        if type(numerator) is int is type(denominator) and denominator:
            g = math.gcd(numerator, denominator)
            g = -g if denominator < 0 else g
            self.p, self.den = numerator // g, denominator // g
        else:  # Fractions and other rationals, and den = 0's error
            f = Fraction(numerator, denominator)
            self.p, self.den = f.numerator, f.denominator

    @property
    def numerator(self) -> int:
        return self.p

    @property
    def denominator(self) -> int:
        return self.den

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Rational(other)
        if isinstance(other, Rational):
            return self.p == other.p and self.den == other.den
        return NotImplemented

    def __hash__(self):
        return hash(("latrot.Rational", self.p, self.den))

    def __float__(self):
        return self.p / self.den

    def __repr__(self):
        return f"Rational({self.p}, {self.den})"


class QuadIrr(Scalar):
    """(p + q*sqrt(d))/den in canonical form: gcd(p,q,den)=1, den>0, q!=0."""

    __slots__ = ("p", "q", "d", "den")

    def __init__(self, p: int, q: int, d: int, den: int = 1):
        if q == 0:
            raise InvalidSpec("q=0 is rational; use quad() which canonicalizes")
        if den == 0:
            raise ZeroDivisionError("den=0")
        if not _is_squarefree(d):
            raise InvalidSpec(f"radicand {d} is not squarefree >= 2")
        if den < 0:
            p, q, den = -p, -q, -den
        g = math.gcd(math.gcd(abs(p), abs(q)), den)
        self.p = p // g
        self.q = q // g
        self.d = d
        self.den = den // g

    def __eq__(self, other):
        if isinstance(other, QuadIrr):
            return (self.p, self.q, self.d, self.den) == (
                other.p,
                other.q,
                other.d,
                other.den,
            )
        if isinstance(other, (Rational, int, Fraction)):
            return False  # q != 0 means irrational
        return NotImplemented

    def __hash__(self):
        return hash(("latrot.QuadIrr", self.p, self.q, self.d, self.den))

    def __float__(self):
        return (self.p + self.q * math.sqrt(self.d)) / self.den

    def __repr__(self):
        return f"QuadIrr({self.p}, {self.q}, {self.d}, {self.den})"


def rational(numerator, denominator=1) -> Rational:
    return Rational(numerator, denominator)

def quad(p: int, q: int, d: int, den: int = 1) -> Scalar:
    """Canonical (p + q*sqrt(d))/den; collapses to Rational when q == 0."""
    if q == 0:
        return Rational(p, den)
    return QuadIrr(p, q, d, den)


ZERO = Rational(0)
ONE = Rational(1)
HALF = Rational(1, 2)


# --------------------------------------------------------------------------
# HighPrec: lazily re-evaluable integer enclosures.
#
# A node carries fn(bits) -> (lo, hi), integers with lo <= value*2^bits
# <= hi.  Each operation widens the enclosure by a few units, so
# escalation terminates for any value that is not exactly on the decision
# boundary.  A dyadic leaf encloses exactly once 2^bits clears its
# exponent, and sums and products of exact enclosures stay exact.
# --------------------------------------------------------------------------

def _mpf_bounds(x, bits: int) -> tuple[int, int]:
    """Floor and ceiling of the libmp value x times 2^bits."""
    sign, man, exp, _ = x
    n, k = -man if sign else man, exp + bits
    if k >= 0:
        return n << k, n << k
    return n >> -k, -(-n >> -k)


class HighPrec(Scalar):
    __slots__ = ("_fn", "precision_bits", "_cache", "_shown")

    def __init__(self, fn, precision_bits: int, shown=None):
        self._fn = fn
        self.precision_bits = precision_bits
        self._shown = shown
        self._cache = {}

    def eval(self, bits: int) -> tuple[int, int]:
        """Integers lo <= value*2^bits <= hi."""
        got = self._cache.get(bits)
        if got is None:  # threads racing here compute equal values
            got = self._fn(bits)
            self._cache[bits] = got
        return got

    def shown(self, bits: int):
        """The libmp value that text and float() show, read at precision
        `bits`: the node's own when it has one (a leaf's dyadic, a rad:
        sine's libmp value), else the midpoint of eval(bits)."""
        if self._shown is not None:
            return self._shown(bits)
        lo, hi = self.eval(bits)
        return from_man_exp(lo + hi, -bits - 1)

    def __float__(self):
        return to_float(self.shown(max(64, self.precision_bits)), rnd=round_nearest)

    def __eq__(self, other):
        return self is other

    def __hash__(self):
        return id(self)

    def __repr__(self):
        return f"HighPrec(~{to_str(self.shown(self.precision_bits), 12)}, bits={self.precision_bits})"


def highprec(value, precision_bits: int | None = None) -> HighPrec:
    """Leaf HighPrec from a decimal string, int or float.

    The stored value is the dyadic obtained by rounding at
    ``precision_bits``; from then on it is treated as exact.
    """
    bits = precision_bits or default_precision_bits()
    if isinstance(value, str):
        x = from_str(value, bits, round_nearest)
    elif isinstance(value, int):
        x = from_int(value, bits, round_nearest)
    elif isinstance(value, float):
        x = from_float(value, bits, round_nearest)
    else:
        raise InvalidSpec(f"cannot build HighPrec from {type(value).__name__}")
    if not x[1] and x != fzero:  # libmp's inf, -inf and nan
        raise InvalidSpec("HighPrec values must be finite")
    return HighPrec(lambda b: _mpf_bounds(x, b), bits, lambda _bits: x)


def as_highprec(s: Scalar | int | Fraction, precision_bits: int | None = None) -> HighPrec:
    """Render any scalar as a lazily re-evaluable HighPrec node."""
    s = _coerce_strict(s)
    if isinstance(s, HighPrec):
        return s
    if not isinstance(s, (Rational, QuadIrr)):
        raise InvalidSpec(f"cannot render {type(s).__name__} as HighPrec")
    return HighPrec(lambda b: dyadic_enclosure(s, b), precision_bits or default_precision_bits())


def _hp_add(a: HighPrec, b: HighPrec) -> HighPrec:
    def fn(req):
        (al, ah), (bl, bh) = a.eval(req), b.eval(req)
        return al + bl, ah + bh

    return HighPrec(fn, max(a.precision_bits, b.precision_bits))


def _hp_mul(a: HighPrec, b: HighPrec) -> HighPrec:
    def fn(req):
        (al, ah), (bl, bh) = a.eval(req), b.eval(req)
        ends = (al * bl, al * bh, ah * bl, ah * bh)  # the product at 2^(2*req)
        return min(ends) >> req, -(-max(ends) >> req)

    return HighPrec(fn, max(a.precision_bits, b.precision_bits))


def _hp_neg(a: HighPrec) -> HighPrec:
    def fn(req):
        lo, hi = a.eval(req)
        return -hi, -lo

    return HighPrec(fn, a.precision_bits, lambda bits: mpf_neg(a.shown(bits)))


# --------------------------------------------------------------------------
# Arithmetic: one formula over (p + q*sqrt(d))/den, a Rational's q = 0
# --------------------------------------------------------------------------

def _coerce(x):
    if isinstance(x, Scalar):
        return x
    if isinstance(x, numbers.Integral):
        return Rational(int(x))
    if isinstance(x, Fraction):
        return Rational(x)
    return None  # floats deliberately rejected: wrap them via highprec()


def _coerce_strict(x) -> Scalar:
    s = _coerce(x)
    if s is None:
        raise TypeError(
            f"cannot use {type(x).__name__} as an exact scalar; "
            "wrap floats explicitly with highprec()"
        )
    return s


def _binary(op, a, b):
    """op on the coerced operands; NotImplemented when one is not exact."""
    a, b = _coerce(a), _coerce(b)
    if a is None or b is None:
        return NotImplemented
    return op(a, b)


def _inexact(a: Scalar, b: Scalar) -> bool:
    """Whether a op b leaves the exact variants: either is a HighPrec, or
    both are quadratic irrationals over different radicands."""
    if isinstance(a, QuadIrr) and isinstance(b, QuadIrr):
        return a.d != b.d
    return isinstance(a, HighPrec) or isinstance(b, HighPrec)


def _add(a: Scalar, b: Scalar) -> Scalar:
    if _inexact(a, b):
        return _hp_add(as_highprec(a), as_highprec(b))
    return quad(
        a.p * b.den + b.p * a.den, a.q * b.den + b.q * a.den, a.d or b.d, a.den * b.den
    )


def _sub(a: Scalar, b: Scalar) -> Scalar:
    return _add(a, _neg(b))


def _mul(a: Scalar, b: Scalar) -> Scalar:
    if _inexact(a, b):
        return _hp_mul(as_highprec(a), as_highprec(b))
    d = a.d or b.d or 0  # 0 when both are rational, where a.q * b.q = 0
    return quad(
        a.p * b.p + a.q * b.q * d, a.p * b.q + a.q * b.p, d, a.den * b.den
    )


def _neg(a: Scalar) -> Scalar:
    if isinstance(a, HighPrec):
        return _hp_neg(a)
    return quad(-a.p, -a.q, a.d, a.den)


# --------------------------------------------------------------------------
# Decisions: floor, comparison, fractional-part membership
# --------------------------------------------------------------------------

def _sign_p_plus_q_sqrt(A: int, B: int, d: int) -> int:
    """Sign of A + B*sqrt(d); for B != 0 the value is irrational, so it
    is positive exactly when A + floor(B*sqrt(d)) >= 0."""
    if B == 0:
        return (A > 0) - (A < 0)
    return 1 if A + _floor_sqrt_multiple(B, d) >= 0 else -1


def refine(decide, start: int, what: str):
    """decide(bits) from the start precision (at least 16 bits), doubling
    while it returns None; UndecidableAtPrecision if still None at the cap."""
    bits = max(16, start)
    while True:
        got = decide(bits)
        if got is not None:
            return got
        if bits >= MAX_PRECISION_BITS:
            raise UndecidableAtPrecision(f"{what} undecided at {bits} bits")
        bits *= 2


def floor_exact(s: Scalar) -> int:
    """Provably correct floor(s).

    Rational and QuadIrr: integer division of p + floor(q*sqrt(d)).
    HighPrec: its integer enclosure at doubling precision (refine);
    raises UndecidableAtPrecision when the enclosure still straddles an
    integer at the cap (the value may actually be an integer).
    """
    if isinstance(s, (QuadIrr, Rational)):
        return (s.p + _floor_sqrt_multiple(s.q, s.d)) // s.den
    if isinstance(s, HighPrec):

        def decide(bits):
            lo, hi = s.eval(bits)
            F = lo >> bits
            return F if hi >> bits == F else None

        return refine(decide, s.precision_bits, "floor")
    raise TypeError(f"not a Scalar: {type(s).__name__}")


def _quad_bounds(p: int, q: int, d: int, den: int, bits: int) -> tuple[int, int]:
    """Integers lo <= (p + q*sqrt(d))/den * 2^bits <= hi, equal when the
    scaled value is an integer."""
    n = (p << bits) + _floor_sqrt_multiple(q << bits, d)
    return n // den, -(-(n + (q != 0)) // den)


def dyadic_enclosure(s: Scalar, bits: int) -> tuple[int, int]:
    """Integers lo <= s*2^bits <= hi.

    Exact for Rational and QuadIrr (floor and ceiling of the scaled
    value, an integer square root for the irrational part); HighPrec
    evaluates its own enclosure at bits.
    """
    if isinstance(s, HighPrec):
        return s.eval(bits)
    return _quad_bounds(s.p, s.q, s.d, s.den, bits)


def compare(s1, s2) -> int:
    """-1, 0 or +1.  Exact within one field; HighPrec and cross-field
    comparisons escalate, then error."""
    s1, s2 = _coerce_strict(s1), _coerce_strict(s2)
    if _inexact(s1, s2):
        diff = _hp_add(as_highprec(s1), _hp_neg(as_highprec(s2)))

        def decide(bits):
            lo, hi = diff.eval(bits)
            if lo > 0 or hi < 0:
                return 1 if lo > 0 else -1
            return 0 if lo == hi else None  # lo == hi == 0: exactly equal

        return refine(decide, diff.precision_bits, "comparison")
    # (p1 + q1 r)/den1 vs (p2 + q2 r)/den2  <=>  sign of cross difference
    A = s1.p * s2.den - s2.p * s1.den
    B = s1.q * s2.den - s2.q * s1.den
    return _sign_p_plus_q_sqrt(A, B, s1.d or s2.d)


def frac_part(s: Scalar) -> Scalar:
    """{s} = s - floor(s); exact for exact variants."""
    return _coerce_strict(s) - floor_exact(_coerce_strict(s))


def frac_in(
    s: Scalar,
    lo: Scalar | int | Fraction,
    hi: Scalar | int | Fraction,
    lo_closed: bool = True,
    hi_closed: bool = False,
) -> bool:
    """Decide {s} in the interval [lo,hi] / [lo,hi) / (lo,hi] / (lo,hi)."""
    f = frac_part(s)
    c_lo = compare(f, lo)
    if not (c_lo > 0 or (lo_closed and c_lo == 0)):
        return False
    c_hi = compare(f, hi)
    return c_hi < 0 or (hi_closed and c_hi == 0)


# --------------------------------------------------------------------------
# Text syntax:  "3/5"  "sqrt(2)/2"  "(1+2*sqrt(5))/4"  "~0.7390851[@bits]"
# --------------------------------------------------------------------------

_RAT_RE = re.compile(r"^([+-]?\d+)(?:/(\d+))?$")
_SQRT_RE = re.compile(r"^([+-]?\d*)\*?sqrt\((\d+)\)(?:/(\d+))?$")
_COMBO_RE = re.compile(
    r"^\(([+-]?\d+)([+-]\d*)\*?sqrt\((\d+)\)\)(?:/(\d+))?$"
)
_HP_RE = re.compile(
    r"^~([+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)(?:@(\d+))?$"
)


def _coeff(text: str) -> int:
    if text in ("", "+"):
        return 1
    if text == "-":
        return -1
    return int(text)


def parse_scalar(text: str) -> Scalar:
    t = text.replace(" ", "")
    m = _HP_RE.match(t)
    if m:
        bits = int(m.group(2)) if m.group(2) else None
        return highprec(m.group(1), bits)
    m = _RAT_RE.match(t)
    if m:
        return Rational(int(m.group(1)), int(m.group(2) or 1))
    m = _SQRT_RE.match(t)
    if m:
        return quad(0, _coeff(m.group(1)), int(m.group(2)), int(m.group(3) or 1))
    m = _COMBO_RE.match(t)
    if m:
        return quad(
            int(m.group(1)),
            _coeff(m.group(2)),
            int(m.group(3)),
            int(m.group(4) or 1),
        )
    raise InvalidSpec(f"cannot parse scalar {text!r}")


def _dyadic_decimal(num: int, exp: int) -> str:
    """Exact decimal expansion of num * 2^exp (always finite)."""
    if exp >= 0:
        return str(num << exp)
    k = -exp
    sign = "-" if num < 0 else ""
    scaled = abs(num) * 5**k  # /10^k
    ipart, fpart = divmod(scaled, 10**k)
    if fpart == 0:
        return f"{sign}{ipart}"
    digits = str(fpart).rjust(k, "0").rstrip("0")
    return f"{sign}{ipart}.{digits}"


def format_scalar(s: Scalar) -> str:
    """Canonical text; parse_scalar(format_scalar(s)) reproduces exact
    variants structurally and HighPrec leaves value-exactly."""
    if isinstance(s, Rational):
        if s.denominator == 1:
            return str(s.numerator)
        return f"{s.numerator}/{s.denominator}"
    if isinstance(s, QuadIrr):
        if s.p == 0:
            if s.q == 1:
                core = f"sqrt({s.d})"
            elif s.q == -1:
                core = f"-sqrt({s.d})"
            else:
                core = f"{s.q}*sqrt({s.d})"
        else:
            core = f"({s.p}{'+' if s.q > 0 else '-'}{abs(s.q)}*sqrt({s.d}))"
        return core if s.den == 1 else f"{core}/{s.den}"
    if isinstance(s, HighPrec):
        sign, man, exp, _ = s.shown(s.precision_bits)
        if man == 0 and exp == 0:
            dec = "0"
        else:
            dec = _dyadic_decimal(-man if sign else man, exp)
        return f"~{dec}@{s.precision_bits}"
    raise TypeError(f"not a Scalar: {type(s).__name__}")
