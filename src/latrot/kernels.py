"""Evaluation of the linear forms behind every lattice scan and orbit step.

Every census / solution counter reduces to floors and fractional-part
tests of L(x, y) = alpha*x + beta*y + gamma over integer windows, where
the coefficients are the (exact or high-precision) sine/cosine of one
angle; an orbit step is the floor of the same forms at one point.  Two
kernel families, each with vector methods for windows and one scalar
point evaluator for orbit steps:

* one quadratic field    -- L = (P + Q*sqrt(d))/D with integer P, Q
  (rational coefficients are the Q = 0 case): floor(L) =
  (P + floor(Q*sqrt(d))) // D, and floor(Q*sqrt(d)) is an integer square
  root, so everything stays exact.  A fractional test against a rational
  bound t = tp/tden is one remainder: with N = P*tden +
  floor(Q*tden*sqrt(d)), {L} < t iff N mod (D*tden) < tp*D.  One routine,
  _numerator, builds N = m*P + floor(m*Q*sqrt(d)) for floor (m = 1),
  frac_lt and split_frac_lt, with Q built over only the axes it varies
  on.  When Q depends on one coordinate (sin or cos rational), its roots
  are taken once per column or row, and N splits as F(x) + G(y)
  (split_frac_lt): the test depends on x and y only through F mod m and
  G mod m.  When Q depends on both (as at pi/4), each root is taken once
  from a table over the call's own Q range if that range is smaller
  than the call, else point by point.  floor divides N by D, by a shift
  when D is a power of two, and its integer points read the same N: L
  is an integer iff Q = 0 and D divides N.
* float prefilter        -- for high-precision or cross-field angles:
  evaluate in float64 and flag any decision within a conservative slack
  of a boundary.  The slack dominates the float64 error bound
  (~6*|L|*2^-53) by >100x, so unflagged decisions are provably correct,
  and an integer L is always flagged.

Flagged points are re-decided in one batch per form, in Python-int
interval arithmetic: with integer enclosures lo <= c*2^k <= hi of the
coefficients at k bits (exactnum.dyadic_enclosure; k is the
coefficients' own precision, 128 by default), a point's sums give
integers lo <= L*2^k <= hi, and floor(L) is decided when lo and hi have
the same floor at 2^k.  A quadratic form encloses each point exactly
from its P and Q, so an integer L has lo == hi.  decide_floor also
tells whether L is an integer: it is when lo == hi at the floor, and
is not when lo lies above it; the points left open are enclosed again
at doubling precision (exactnum.refine), until UndecidableAtPrecision
on a true boundary.
{L} < t when the enclosures of L - floor(L) and of t lie apart; only a
point they cannot separate goes on to exact_frac_lt.

The quadratic vector methods run in int64, guarded at construction by
the window bound (and in frac_lt by the bound's denominator).  A window
past the guard, or a frac_lt bound that is not rational, runs through
the float prefilter over the same coefficients, and its flagged points
are re-decided as above; the quadratic point evaluator uses Python ints
and needs no guard.

_exact_images is the one image kernel every scan runs: the censuses'
image grids, _square_images (the brute-force histogram, the trunc
census's quadrant and the orbit sweeps' successor arrays) and the
period-8 chains all read their images from it.  It takes one floor
of each form under every mode (round floors the form shifted by 1/2),
and is the one vector place that truncates: trunc(L) is the floor + 1
below 0, except at the points where L is an integer, which are also
the image grid's ties.  It asks the forms for those points: an exact
form reads them off its floor's numerator, and under the float
prefilter they are flagged points that decide_floor tells apart.
_exact_box is udist's fractional-part box test.  Both re-decide
flagged points as above.  Every scan numbers window points one way,
_window_index's (y, x) order, which _sorted_points, a plain sort, reads.

Banding lives here too.  Every vector scan walks its window through
_bands (on worker threads through _run_bands), in bands of about
_BAND_POINTS points: small enough that a band's int64 temporaries (512
KiB each) stay in a core's L2 cache, and large enough that numpy's
per-call overhead stays small.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from functools import cached_property

import numpy as np

from .angle import AngleContext
from .exactnum import (
    HALF,
    HighPrec,
    QuadIrr,
    Rational,
    Scalar,
    ZERO,
    _floor_sqrt_multiple,
    _quad_bounds,
    compare,
    default_precision_bits,
    dyadic_enclosure,
    floor_exact,
    frac_part,
    refine,
)
from .rotation import RoundingMode

_INT64_SAFE = 1 << 62
_SQRT_SAFE = 1 << 52  # float-assisted isqrt is exact below this
_REL_SLACK = 1e-12  # float slack per unit of |alpha*x| + |beta*y| + |gamma| + 1
_MIN_SLACK = 1e-9
_BAND_POINTS = 1 << 16  # points per band of every vector scan
_NONE = np.empty(0, dtype=np.int64)


def visqrt(x: np.ndarray) -> np.ndarray:
    """Elementwise floor(sqrt(x)) for nonnegative int64 x < 2**52 (every
    caller checks its arguments against _SQRT_SAFE).

    One float square root is exact there.  x < 2^52 converts to float64
    exactly, and IEEE sqrt rounds correctly, so with k = floor(sqrt(x)) the
    root rounds to no less than k.  And x <= (k+1)^2 - 1 gives
    sqrt(x) < (k+1) - 1/(2(k+1)), a gap of at least 2^-27 below k+1 since
    k+1 <= 2^26, where floats below k+1 lie at most 2^-27 apart: more
    than half a spacing, so the root rounds below k+1 and truncates to k.
    """
    f = x.astype(np.float64)
    np.sqrt(f, out=f)
    return f.astype(np.int64)


def vfloor_sqrt_multiple(q: np.ndarray, d: int) -> np.ndarray:
    """Elementwise floor(q * sqrt(d)) for d not a perfect square, by one
    XOR: with r = isqrt(q*q*d), floor(q*sqrt(d)) is r for q >= 0, and
    -r - 1 = ~r for q < 0, where q*q*d is not a perfect square either;
    q >> 63 is -1 exactly where q < 0, and 0 elsewhere."""
    r = q * q
    r *= d
    r = visqrt(r)
    r ^= q >> 63
    return r


def _compact(X: np.ndarray) -> np.ndarray:
    """X with every broadcast (stride-0) axis cut to length 1."""
    return X[tuple(slice(0, 1) if s == 0 else slice(None) for s in X.strides)]


def _affine(a, b, c, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """a*X + b*Y + c, summed in that order.  On broadcast views such as
    _band's, the products are taken over one row or column each, and
    only the sums run over the full shape."""
    aX, bY = a * _compact(X), b * _compact(Y)
    shape = np.broadcast_shapes(X.shape, Y.shape)
    out = np.add(aX, bY, out=np.empty(shape, np.result_type(aX, bY)))
    if c:
        out += c
    return out


def _mod_inplace(N: np.ndarray, m: int) -> np.ndarray:
    """N mod m for m > 0, written over N; numpy's int64 % by a scalar
    runs several times slower than // by one."""
    q = N // m
    q *= m
    N -= q
    return N


class LinearForm:
    """L(x, y) = alpha*x + beta*y + gamma over integer points.

    Vector methods return (values, uncertain) where `uncertain` is None
    when every entry is exact, else a boolean mask of entries the caller
    must re-decide.  floor(X, Y, ties) returns (floor(L), uncertain,
    integer points): with ties, the flat indices, in order, of the
    points where L is an integer, else None, which it also is when they
    are left among the flagged points.  The decide_* methods re-decide a
    batch of points from integer enclosures of L*2^bits: decide_floor
    settles every point's floor and whether L is an integer there,
    decide_frac_lt leaves None where the enclosures cannot separate a
    point, which exact_frac_lt then decides.  point(trunc) is the scalar
    evaluator (x, y) -> floor(L), or L truncated toward 0 when trunc.
    """

    def __init__(self, alpha: Scalar, beta: Scalar, gamma: Scalar):
        self.alpha, self.beta, self.gamma = alpha, beta, gamma
        self._bounds: dict[int, tuple] = {}

    # batched decisions from integer enclosures of L*2^bits

    @cached_property
    def _bits(self) -> int:
        """The enclosures' precision: the coefficients' own (the default
        when none is high-precision)."""
        hp = [c.precision_bits for c in (self.alpha, self.beta, self.gamma) if isinstance(c, HighPrec)]
        return max(hp) if hp else default_precision_bits()

    def _coeff_bounds(self, bits: int) -> tuple:
        """The coefficients' enclosures at 2^bits; built whole before they
        are published, so threads can share them."""
        got = self._bounds.get(bits)
        if got is None:
            got = tuple(dyadic_enclosure(c, bits) for c in (self.alpha, self.beta, self.gamma))
            self._bounds[bits] = got
        return got

    def enclose(self, xs: list[int], ys: list[int], bits: int) -> list[tuple[int, int]]:
        """Integers lo <= L(x, y)*2^bits <= hi at each point (x, y)."""
        (al, ah), (bl, bh), (gl, gh) = self._coeff_bounds(bits)
        return [
            ((al if x >= 0 else ah) * x + (bl if y >= 0 else bh) * y + gl,
             (ah if x >= 0 else al) * x + (bh if y >= 0 else bl) * y + gh)
            for x, y in zip(xs, ys)
        ]

    def decide_floor(self, xs, ys):
        """(floors, integral) at the points: floor(L), and whether L is an
        integer there.  One pass at the form's precision, then the points
        left open at doubling precision (exactnum.refine, which raises
        UndecidableAtPrecision at its cap).  A point whose enclosure
        reaches down to its floor F stays open until L is known to be F
        (lo == hi) or above it."""
        out = [None] * len(xs)
        integral = [False] * len(xs)

        def settle(bits):
            todo = [i for i, v in enumerate(out) if v is None]
            got = self.enclose([xs[i] for i in todo], [ys[i] for i in todo], bits)
            for i, (lo, hi) in zip(todo, got):
                F = lo >> bits
                if hi >> bits != F:
                    continue
                if lo == F << bits:
                    if hi != lo:  # L = F only if lo == hi
                        continue
                    integral[i] = True
                out[i] = F
            return None if None in out else out

        return refine(settle, self._bits, "floor"), integral

    def decide_frac_lt(self, xs, ys, t: Scalar) -> list:
        """{L} < t at each point where the enclosures of L - floor(L) and
        of t lie apart; None where they overlap or the floor is open."""
        bits = self._bits
        tlo, thi = dyadic_enclosure(t, bits)
        out = []
        for lo, hi in self.enclose(xs, ys, bits):
            base = lo >> bits << bits
            f_lo, f_hi = lo - base, hi - base  # {L}*2^bits, if the floor is fixed
            if f_hi >= 1 << bits:
                out.append(None)
            else:
                out.append(True if f_hi < tlo else False if f_lo >= thi else None)
        return out

    # exact single-point decisions (shared by every kernel family)

    def exact_value(self, x: int, y: int) -> Scalar:
        return self.alpha * x + self.beta * y + self.gamma

    def exact_floor(self, x: int, y: int) -> int:
        return floor_exact(self.exact_value(x, y))

    def exact_frac_lt(self, x: int, y: int, t: Scalar) -> bool:
        return compare(frac_part(self.exact_value(x, y)), t) < 0

    def exact_frac_zero(self, x: int, y: int) -> bool:
        return compare(frac_part(self.exact_value(x, y)), ZERO) == 0


class QuadForm(LinearForm):
    """Single-field exact kernel; rational coefficients are the q=0 case."""

    def __init__(self, alpha, beta, gamma, d: int | None, max_abs: int):
        super().__init__(alpha, beta, gamma)
        pa, qa, da = alpha.p, alpha.q, alpha.den
        pb, qb, db = beta.p, beta.q, beta.den
        pg, qg, dg = gamma.p, gamma.q, gamma.den
        D = math.lcm(da, db, dg)
        self.pure_rational = d is None
        self.d = d or 2
        self.D = D
        self.max_abs = max_abs
        self.pA, self.qA = pa * (D // da), qa * (D // da)
        self.pB, self.qB = pb * (D // db), qb * (D // db)
        self.pG, self.qG = pg * (D // dg), qg * (D // dg)
        self._maxP = (abs(self.pA) + abs(self.pB)) * max_abs + abs(self.pG)
        self._maxQ = (abs(self.qA) + abs(self.qB)) * max_abs + abs(self.qG)
        self._shift = D.bit_length() - 1 if D & (D - 1) == 0 else None  # D = 2^shift
        self.vector_ok = self._fits(1)

    def _fits(self, m: int) -> bool:
        """The int64 guard for P*m + floor(Q*m*sqrt(d)) over the window."""
        mQ2d = (self._maxQ * m) ** 2 * self.d
        return mQ2d < _SQRT_SAFE and self._maxP * m + math.isqrt(mQ2d) + 1 < _INT64_SAFE

    @cached_property
    def _prefilter(self) -> "FloatForm":
        """The float prefilter over the same coefficients and window, for
        vector calls past the int64 guard."""
        return FloatForm(self.alpha, self.beta, self.gamma, self.max_abs)

    def enclose(self, xs, ys, bits):
        # exact at each point, so an integer L encloses as lo == hi
        pA, pB, pG, qA, qB, qG = self.pA, self.pB, self.pG, self.qA, self.qB, self.qG
        d, D = self.d, self.D
        return [
            _quad_bounds(pA * x + pB * y + pG, qA * x + qB * y + qG, d, D, bits)
            for x, y in zip(xs, ys)
        ]

    def _q(self, X, Y):
        """Q = qA*X + qB*Y + qG over only the axes it varies on (a compact
        view that broadcasts against the call); a plain int when Q is
        constant."""
        qA, qB, qG = self.qA, self.qB, self.qG
        if qA and qB:
            return _affine(qA, qB, qG, X, Y)
        if not (qA or qB):
            return qG
        Q = qA * _compact(X) if qA else qB * _compact(Y)
        if qG:
            Q += qG
        return Q

    def _q_range(self, X, Y) -> tuple[int, int]:
        """Bounds lo <= Q <= hi over the call, from the least and greatest
        coordinate on each axis Q varies on (its compact axes)."""
        lo = hi = self.qG
        for q, V in ((self.qA, X), (self.qB, Y)):
            if q:
                V = _compact(V)
                a, b = q * int(V.min()), q * int(V.max())
                lo, hi = lo + min(a, b), hi + max(a, b)
        return lo, hi

    def _numerator(self, X, Y, m: int):
        """(N, Q): N = m*P + floor(m*Q*sqrt(d)) at the points (X, Y), so
        that L = (N + phi)/(m*D) for some 0 <= phi < 1 with phi = 0 only
        where Q = 0, and Q as _q builds it (0 for a rational form).

        Each root is taken once: from a table over Q's range on this call
        when the range has fewer entries than Q (Q varies on both axes,
        as at pi/4), else at each entry of Q (a row or column when Q
        varies on one axis only, each point of a wide 1-D array).  The
        window the form was built for bounds Q's range by 2*maxQ, so the
        call's own range is taken only when that bound is below Q's size.
        """
        Pm = (self.pA * m, self.pB * m, self.pG * m)
        Q = self._q(X, Y)
        if isinstance(Q, int):
            N = _affine(*Pm, X, Y)
            if Q:
                N += _floor_sqrt_multiple(Q * m, self.d)
            return N, Q
        table = 2 * self._maxQ < Q.size
        if table:
            lo, hi = self._q_range(X, Y)
            table = hi - lo < Q.size
        if table:
            Q -= lo
            roots = vfloor_sqrt_multiple(np.arange(lo, hi + 1, dtype=np.int64) * m, self.d)[Q]
            Q += lo
        else:
            roots = vfloor_sqrt_multiple(Q * m if m != 1 else Q, self.d)
        if self.pA or self.pB or roots.shape != np.broadcast_shapes(X.shape, Y.shape):
            N = _affine(*Pm, X, Y)
            N += roots
        else:  # P is constant (0 at pi/4): N is the roots themselves
            N = roots
            if Pm[2]:
                N += Pm[2]
        return N, Q

    def floor(self, X, Y, ties: bool = False):
        if not self.vector_ok:
            return self._prefilter.floor(X, Y, ties)
        N, Q = self._numerator(X, Y, 1)
        at = None
        # L is an integer iff Q = 0 and D divides N (= P there)
        if ties and not isinstance(Q, int):
            # Q = 0 on a line of the window, found on Q's compact axes; its
            # N is tested before the floor overwrites N
            at = _flat_nonzero(Q == 0, N.shape)
            at = at[_mod_inplace(N.reshape(-1)[at], self.D) == 0]
        rem = ties and at is None  # Q is constant: the remainders N - F*D are read
        if self._shift is None:
            F = np.floor_divide(N, self.D, out=None if rem else N)
        else:
            F = np.right_shift(N, self._shift, out=None if rem else N)
        if rem:
            N -= F * self.D
            at = _NONE if Q else np.flatnonzero(N == 0)
        return F, None, at

    def _frac_test(self, t: Scalar):
        """(tden, modulus, bound) of the one-remainder test {L} < t, or
        None when t is not rational (for a form with an irrational
        coefficient) or the test would overflow int64."""
        if self.pure_rational and not isinstance(t, Rational):
            # {L} is a multiple of 1/D, so {L} < t iff {L} < ceil(t*D)/D
            t = Rational(-floor_exact(-t * self.D), self.D)
        if not isinstance(t, Rational):
            return None
        tden = t.denominator
        modulus, bound = self.D * tden, self.D * t.numerator
        if not self._fits(tden) or modulus >= _INT64_SAFE or abs(bound) >= _INT64_SAFE:
            return None
        return tden, modulus, bound

    def frac_lt(self, X, Y, t: Scalar):
        # with N = _numerator(X, Y, tden), L = (N + phi)/(D*tden) for some
        # 0 <= phi < 1, so {L} < t = tp/tden iff N mod (D*tden) < tp*D
        test = self._frac_test(t)
        if test is None:
            return self._prefilter.frac_lt(X, Y, t)
        tden, modulus, bound = test
        return _mod_inplace(self._numerator(X, Y, tden)[0], modulus) < bound, None

    def split_frac_lt(self, cols: np.ndarray, rows: np.ndarray, t: Scalar):
        """frac_lt's test {L} < t split by axis, when Q depends on one
        coordinate only (sin or cos rational): N(x, y) = F(x) + G(y), so
        {L(x, y)} < t iff (F(x) + G(y)) mod m < bound.  Returns (F mod m
        over cols, G mod m over rows, m, bound), or None when Q depends
        on both coordinates or the test would run the prefilter."""
        test = self._frac_test(t)
        if test is None or (self.qA and self.qB):
            return None
        tden, m, bound = test
        # the axis Q varies on carries Q and the constant terms
        if self.qA:
            F, G = self._numerator(cols, 0 * cols, tden)[0], self.pB * tden * rows
        else:
            F, G = self.pA * tden * cols, self._numerator(0 * rows, rows, tden)[0]
        return _mod_inplace(F, m), _mod_inplace(G, m), m, bound

    def frac_zero(self, X, Y):
        # no caller in latrot (floor(ties=True) finds the integers itself);
        # kept because perfbench/tracer.py patches it by name
        # L is an integer iff Q = 0 and D divides P
        if not self.vector_ok:
            return self._prefilter.frac_zero(X, Y)
        zero = _mod_inplace(_affine(self.pA, self.pB, self.pG, X, Y), self.D) == 0
        if not self.pure_rational and zero.size:
            zero &= self._q(X, Y) == 0
        return zero, None

    def point(self, trunc: bool = False):
        pA, pB, pG, qA, qB, qG = self.pA, self.pB, self.pG, self.qA, self.qB, self.qG
        D, d, isqrt = self.D, self.d, math.isqrt
        if self.pure_rational and not trunc:  # Q is 0: skip it on the orbit hot path
            return lambda x, y: (pA * x + pB * y + pG) // D

        def value(x, y):
            P = pA * x + pB * y + pG
            Q = qA * x + qB * y + qG
            if Q == 0:
                F = P // D
            else:
                r = isqrt(Q * Q * d)
                F = (P + r) // D if Q > 0 else (P - r - 1) // D
            # below 0, truncation is floor + 1 unless L is the integer F
            return F + 1 if trunc and F < 0 and (Q or F * D != P) else F

        return value


class FloatForm(LinearForm):
    """float64 prefilter with conservative slack; callers re-decide the
    flagged points through decide_* (integer enclosures)."""

    def __init__(self, alpha, beta, gamma, max_abs: int):
        super().__init__(alpha, beta, gamma)
        self.fa, self.fb, self.fg = float(alpha), float(beta), float(gamma)
        span = (abs(self.fa) + abs(self.fb)) * max_abs + abs(self.fg) + 1
        self.slack = max(_MIN_SLACK, span * _REL_SLACK)

    def _floors(self, X, Y):
        """floor(L), {L}, and the entries within the slack of an integer."""
        L = _affine(self.fa, self.fb, self.fg, X, Y)
        F = np.floor(L)
        L -= F  # {L}
        unc = L < self.slack
        unc |= L > 1 - self.slack
        return F, L, unc

    def floor(self, X, Y, ties: bool = False):
        F, _, unc = self._floors(X, Y)
        # outside the slack L is never an integer: the integer points are
        # among the flagged ones, where decide_floor finds them
        return F.astype(np.int64), unc, None

    def frac_lt(self, X, Y, t: Scalar):
        _, f, unc = self._floors(X, Y)
        ft = float(t)
        return f < ft, unc | (np.abs(f - ft) < self.slack)

    def frac_zero(self, X, Y):  # no caller in latrot; see QuadForm.frac_zero
        _, f, unc = self._floors(X, Y)
        return np.zeros(f.shape, dtype=bool), unc

    def point(self, trunc: bool = False):
        fa, fb, fg, floor = self.fa, self.fb, self.fg, math.floor
        # the window slack with |x| + |y| >= max(|x|, |y|) as the window
        k = (abs(fa) + abs(fb)) * _REL_SLACK
        k0 = (abs(fg) + 1) * _REL_SLACK

        def value(x, y):
            L = fa * x + fb * y + fg
            F = floor(L)
            s = max(_MIN_SLACK, (abs(x) + abs(y)) * k + k0)
            integral = False  # outside the slack L is not an integer
            if not s <= L - F <= 1 - s:
                (F,), (integral,) = self.decide_floor([x], [y])
            return F + 1 if trunc and F < 0 and not integral else F

        return value


def make_form(
    alpha: Scalar, beta: Scalar, gamma: Scalar = ZERO, *, max_abs: int
) -> LinearForm:
    """Pick the cheapest exact kernel for the coefficient types."""
    coeffs = (alpha, beta, gamma)
    if any(isinstance(c, HighPrec) for c in coeffs):
        return FloatForm(alpha, beta, gamma, max_abs)
    ds = {c.d for c in coeffs if isinstance(c, QuadIrr)}
    if len(ds) > 1:
        return FloatForm(alpha, beta, gamma, max_abs)  # cross-field
    return QuadForm(alpha, beta, gamma, ds.pop() if ds else None, max_abs)


def image_forms(
    ctx: AngleContext, mode: RoundingMode, *, max_abs: int
) -> tuple[LinearForm, LinearForm]:
    """The two coordinate forms of the rotation whose floors are the
    images under mode: round is the floor of the form shifted by 1/2;
    trunc adds 1 to the floor where the value is negative and not an
    integer."""
    gamma = HALF if mode is RoundingMode.ROUND else ZERO
    return (
        make_form(ctx.cos, -ctx.sin, gamma, max_abs=max_abs),
        make_form(ctx.sin, ctx.cos, gamma, max_abs=max_abs),
    )


# --------------------------------------------------------------------------
# Lattice points to images: the one kernel every scan runs
# --------------------------------------------------------------------------

def _ceil_sqrt2(m: int) -> int:
    return 0 if m == 0 else math.isqrt(2 * m * m) + 1


def _domain_radius(M: int) -> int:
    """Radius of the domain window that holds every preimage of the
    window |x|,|y| <= M + 1."""
    return _ceil_sqrt2(M + 2) + 2


def _bands(lo: int, hi: int, width: int):
    """Consecutive spans (blo, bhi) that cover lo..hi, each of as many
    rows of width points as _BAND_POINTS holds (at least one)."""
    rows = max(1, _BAND_POINTS // max(1, width))
    for blo in range(lo, hi + 1, rows):
        yield blo, min(hi, blo + rows - 1)


def _run_bands(lo, hi, width, worker, threads):
    """worker(span) for each span of _bands, in band order."""
    spans = list(_bands(lo, hi, width))
    if threads <= 1 or len(spans) <= 1:
        return [worker(span) for span in spans]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(worker, spans))


def _grid_index(x, y, side: int) -> np.ndarray:
    """The index of (x, y) in the square 0 <= x, y < side, row by row from
    y = 0, x fastest, or the sink side^2 for a point outside it."""
    x, y = np.asarray(x), np.asarray(y)
    I = np.asarray(y * side)
    I += x
    np.copyto(I, side * side, where=_outside(x, y, side))
    return I


def _outside(x: np.ndarray, y: np.ndarray, side: int) -> np.ndarray:
    """Mask of the points (x, y) outside the square 0 <= x, y < side:
    read as unsigned, a negative coordinate is past side too, so it
    takes one compare per axis."""
    u = np.dtype(f"u{x.dtype.itemsize}")
    return (x.view(u) >= side) | (y.view(u) >= side)


def _window_index(X, Y, M: int) -> np.ndarray:
    """The index of (X, Y) in the window |x|,|y| <= M, row by row from
    y = -M, x fastest, or the sink (2M+1)^2 for a point outside it."""
    return _grid_index(X + M, Y + M, 2 * M + 1)


def _flat_nonzero(mask: np.ndarray, shape) -> np.ndarray:
    """np.flatnonzero of mask broadcast to shape, without the broadcast
    pass when mask is one row or one column of a 2-D shape."""
    if mask.shape == shape or len(shape) != 2:
        return np.flatnonzero(np.broadcast_to(mask, shape))
    m, n = shape
    rows = np.flatnonzero(mask[:, 0]) if mask.shape[0] > 1 else np.arange(m * bool(mask.any()))
    cols = np.flatnonzero(mask[0]) if mask.shape[1] > 1 else np.arange(n)
    return (rows[:, None] * n + cols).reshape(-1)


def _sorted_points(idx: np.ndarray, M: int) -> list[tuple[int, int]]:
    """The points (x, y) of the window indices idx (_window_index),
    sorted by (y, x)."""
    ys, xs = np.divmod(np.sort(idx), 2 * M + 1)
    return list(zip((xs - M).tolist(), (ys - M).tolist()))


def _band(cols: np.ndarray, blo: int, bhi: int):
    """Lattice points of rows blo..bhi as broadcast (A, B) views of shape
    (rows, cols); A[i, j] = cols[j], B[i, j] = blo + i."""
    rows = np.arange(blo, bhi + 1, dtype=np.int64)
    return np.broadcast_arrays(cols[None, :], rows[:, None])


def _exact_images(forms, A, B, mode, ties: bool = False):
    """Exact images (X, Y) of the points (A, B) under mode, and how many
    flagged points they hold: one floor of each form, with the points
    its float prefilter flags re-decided in one batch per form
    (decide_floor).  Under trunc, truncation is the floor + 1 below 0,
    except at the points where the form's value is an integer.

    With ties, a fourth item: per form, the flat indices, in order, of
    those integer points.  An exact vector form reads them off its
    floor's numerator; elsewhere they are among the flagged points,
    where decide_floor tells them apart."""
    trunc = mode is RoundingMode.TRUNC
    (X, unc, t1), (Y, u2, t2) = (k.floor(A, B, ties or trunc) for k in forms)
    if unc is None:
        unc = u2
    elif u2 is not None:
        unc |= u2
    found = [t1, t2]
    redecided = 0
    if unc is not None and unc.any():
        idx = np.nonzero(unc)
        xs, ys = A[idx].tolist(), B[idx].tolist()
        for i, (k, V) in enumerate(zip(forms, (X, Y))):
            V[idx], integral = k.decide_floor(xs, ys)
            if found[i] is None:
                found[i] = np.ravel_multi_index(idx, unc.shape)[np.array(integral, dtype=bool)]
        redecided = len(xs)
    found = [_NONE if f is None else f for f in found]
    if trunc:
        for V, at in zip((X, Y), found):
            up = V < 0
            up.reshape(-1)[at] = False  # trunc(L) = L = floor(L)
            V += up
    if not ties:
        return X, Y, redecided
    return X, Y, redecided, found


def _square_images(forms, mode, R: int, M: int, threads: int = 1, dtype=np.int64,
                   corner=None):
    """(images, redecided): images[i] is the window index in |x|,|y| <= M
    (_window_index, sink included) of the image of point i of the square
    |a|,|b| <= R, or with corner (a0, b0) of its part a >= a0, b >= b0,
    in (b, a) order, plus one trailing sink entry, so that at M = R the
    sink is its own successor; redecided counts the flagged points.
    images has the given dtype, by default int64, the index type bincount
    and fancy indexing read without a copy; a narrower one must hold the
    sink."""
    a0, b0 = (-R, -R) if corner is None else corner
    cols = np.arange(a0, R + 1, dtype=np.int64)
    W = cols.size
    out = np.empty((R - b0 + 1) * W + 1, dtype=dtype)
    out[-1] = (2 * M + 1) ** 2

    def worker(span):
        blo, bhi = span
        X, Y, redecided = _exact_images(forms, *_band(cols, blo, bhi), mode)
        out[(blo - b0) * W:(bhi - b0 + 1) * W] = _window_index(X, Y, M).ravel()
        return redecided

    return out, sum(_run_bands(b0, R, W, worker, threads))


def _exact_box(forms, A, B, ts):
    """Mask of the points (A, B) with {L} < t for both forms and their
    bounds ts, and how many flagged points the forms' enclosures decided
    and how many went to the scalar exact_frac_lt (a tie {L} = t, or a
    floor the enclosure left open)."""
    (m1, u1), (m2, u2) = (k.frac_lt(A, B, t) for k, t in zip(forms, ts))
    m = m1 & m2
    flags = [u for u in (u1, u2) if u is not None]
    if not flags:
        return m, 0, 0
    idx = np.nonzero(np.logical_or.reduce(flags))
    xs, ys = A[idx].tolist(), B[idx].tolist()
    batches = [k.decide_frac_lt(xs, ys, t) for k, t in zip(forms, ts)]
    out, scalar = [], 0
    for x, y, *got in zip(xs, ys, *batches):
        if None in got:
            got = [k.exact_frac_lt(x, y, t) for k, t in zip(forms, ts)]
            scalar += 1
        out.append(all(got))
    m[idx] = out
    return m, len(xs) - scalar, scalar


def make_step(ctx: AngleContext, mode: RoundingMode = RoundingMode.FLOOR):
    """A fast exact (x, y) -> (x', y') closure for one angle and mode.

    Each coordinate is its image form's point evaluator: exact integer
    arithmetic whenever sin/cos live in one quadratic field (every
    pi-multiple, Pythagorean and same-field angle), else float64 whose
    decisions are provably correct outside the slack, with a point
    inside it re-decided by its form's enclosure batch (decide_floor).
    """
    if not isinstance(mode, RoundingMode):
        raise TypeError(f"mode must be a RoundingMode, got {mode!r}")
    trunc = mode is RoundingMode.TRUNC
    k1, k2 = image_forms(ctx, mode, max_abs=0)
    f1, f2 = k1.point(trunc), k2.point(trunc)

    def step(p):
        x, y = p
        return f1(x, y), f2(x, y)

    return step
