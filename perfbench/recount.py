"""Reference answers, recounted without the program under test.

Every answer the benchmark checks is recomputed here from the definition
of the discretized rotation, with numpy and mpmath only; nothing from
`latrot` is imported.

* Exact angles (multiples of pi, Pythagorean triples, quadratic sin/cos):
  sin and cos are sums c_r*sqrt(r) over squarefree radicands r with
  rational c_r.  Rational angles are counted in int64 integer arithmetic.
  Otherwise a float64 pass decides every floor whose fractional part lies
  farther than EPS from a boundary (its rounding error stays below 1e-8
  for |x|,|y| < 10^6), and each remaining point is decided exactly: a
  value sum c_r*sqrt(r) is zero iff every c_r is zero, and its sign is
  otherwise read from a 256-bit evaluation checked against its error.
* `rad:~d[@bits]` angles: theta is the decimal d rounded at `bits` bits
  (128 by default), the documented meaning of the input; sin and cos are
  evaluated at 4*bits bits.  Near-boundary points are decided at that
  precision.  x*cos - y*sin + g is never exactly an integer unless
  x = y = 0 (cos and sin of a nonzero algebraic angle are transcendental).

A point that cannot be decided raises RecountUndecided; the caller then
falls back to the program's own invariants for that job.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np
from mpmath import mp, mpf

EPS = 1e-7
_BAND = 1 << 19  # points per band


class RecountUndecided(Exception):
    pass


@dataclass(frozen=True)
class Angle:
    text: str
    sin: dict | None  # radicand -> Fraction; None for rad: angles
    cos: dict | None
    hp: tuple | None = None  # (cos, sin, prec) as mpf for rad: angles

    @property
    def rational(self) -> bool:
        return self.hp is None and set(self.sin) | set(self.cos) <= {1}


def _surd_float(s: dict) -> float:
    return sum(float(c) * math.sqrt(r) for r, c in s.items())


_PI = {
    "pi/2": ({1: Fraction(1)}, {}),
    "pi/3": ({3: Fraction(1, 2)}, {1: Fraction(1, 2)}),
    "pi/4": ({2: Fraction(1, 2)}, {2: Fraction(1, 2)}),
    "pi/6": ({1: Fraction(1, 2)}, {3: Fraction(1, 2)}),
}
_SURD_RE = re.compile(r"^(?:(-?\d+)\*)?sqrt\((\d+)\)(?:/(\d+))?$")
_RAT_RE = re.compile(r"^(-?\d+)(?:/(\d+))?$")
_RAD_RE = re.compile(r"^rad:~([0-9.eE+-]+)(?:@(\d+))?$")


def _parse_surd(text: str) -> dict:
    m = _RAT_RE.match(text)
    if m:
        return {1: Fraction(int(m.group(1)), int(m.group(2) or 1))}
    m = _SURD_RE.match(text)
    if not m:
        raise ValueError(f"unsupported scalar {text!r}")
    r = int(m.group(2))
    if any(r % (k * k) == 0 for k in range(2, math.isqrt(r) + 1)):
        raise ValueError(f"radicand {r} is not squarefree")
    return {r: Fraction(int(m.group(1) or 1), int(m.group(3) or 1))}


def parse_angle(text: str) -> Angle:
    if text in _PI:
        sin, cos = _PI[text]
        return Angle(text, sin, cos)
    if text.startswith("pyth:"):
        p1, p2, q = (int(v) for v in text[5:].split(","))
        if p1 * p1 + p2 * p2 != q * q:
            raise ValueError(f"{text} is not a Pythagorean triple")
        return Angle(text, {1: Fraction(p1, q)}, {1: Fraction(p2, q)})
    if text.startswith("quad:"):
        fields = dict(part.split("=", 1) for part in text[5:].split(","))
        sin, cos = _parse_surd(fields["sin"]), _parse_surd(fields["cos"])
        return Angle(text, sin, cos)
    m = _RAD_RE.match(text)
    if m:
        bits = int(m.group(2) or 128)
        with mp.workprec(bits):
            theta = mpf(m.group(1))
        prec = 4 * bits
        with mp.workprec(prec):
            return Angle(text, None, None, (mpmath.cos(theta), mpmath.sin(theta), prec))
    raise ValueError(f"unsupported angle {text!r}")


# --------------------------------------------------------------------------
# Exact decisions for single points
# --------------------------------------------------------------------------

def _sign(ang: Angle, ac: int, as_: int, g: Fraction) -> int:
    """Sign of ac*cos + as_*sin + g, exactly."""
    if ang.hp is not None:
        if ac == 0 and as_ == 0:
            return (g > 0) - (g < 0)
        c, s, prec = ang.hp
        with mp.workprec(prec):
            v = ac * c + as_ * s + mpf(g.numerator) / g.denominator
        bound = (abs(ac) + abs(as_) + abs(g) + 1) * mpf(2) ** (8 - prec)
    else:
        coeffs = Counter({1: g})
        for r, k in ang.cos.items():
            coeffs[r] += ac * k
        for r, k in ang.sin.items():
            coeffs[r] += as_ * k
        if all(k == 0 for r, k in coeffs.items() if r != 1):
            k = coeffs[1]
            return (k > 0) - (k < 0)
        with mp.workprec(256):
            v = sum(mpf(k.numerator) / k.denominator * mpmath.sqrt(r)
                    for r, k in coeffs.items())
        bound = sum(abs(k) for k in coeffs.values()) * mpf(2) ** -240
    if abs(v) <= bound:
        raise RecountUndecided(f"{ang.text}: sign of {ac}*cos + {as_}*sin + {g}")
    return 1 if v > 0 else -1


def _floor_at(ang, ac, as_, g, guess):
    """(floor, is_integer) of ac*cos + as_*sin + g; guess is within 1."""
    s0 = _sign(ang, ac, as_, g - guess)
    if s0 < 0:
        return guess - 1, _sign(ang, ac, as_, g - guess + 1) == 0
    s1 = _sign(ang, ac, as_, g - guess - 1)
    if s1 >= 0:
        return guess + 1, s1 == 0
    return guess, s0 == 0


# --------------------------------------------------------------------------
# Vector floors of L = AC*cos + AS*sin + g
# --------------------------------------------------------------------------

def _rational_num(ang, AC, AS, g):
    """L*D as int64 numerators for a rational angle."""
    c, s = ang.cos.get(1, Fraction(0)), ang.sin.get(1, Fraction(0))
    D = math.lcm(c.denominator, s.denominator, g.denominator)
    return AC * int(c * D) + AS * int(s * D) + int(g * D), D


def _float_value(ang, AC, AS, g):
    if ang.hp is not None:
        cf, sf = float(ang.hp[0]), float(ang.hp[1])
    else:
        cf, sf = _surd_float(ang.cos), _surd_float(ang.sin)
    return AC * cf + AS * sf + float(g)


def floor_form(ang: Angle, AC, AS, g: Fraction = Fraction(0)):
    """Exact (floor(L), L is an integer) elementwise."""
    if ang.rational:
        num, D = _rational_num(ang, AC, AS, g)
        return num // D, num % D == 0
    L = _float_value(ang, AC, AS, g)
    F = np.floor(L)
    f = L - F
    F = F.astype(np.int64)
    isint = np.zeros(F.shape, dtype=bool)
    for i in np.flatnonzero((f < EPS) | (f > 1 - EPS)):
        F[i], isint[i] = _floor_at(ang, int(AC[i]), int(AS[i]), g, int(F[i]))
    return F, isint


def frac_below(ang: Angle, AC, AS, t: Fraction):
    """Exact {L} < t elementwise, for rational 0 < t <= 1."""
    if ang.rational:
        num, D = _rational_num(ang, AC, AS, Fraction(0))
        return (num % D) * t.denominator < t.numerator * D
    L = _float_value(ang, AC, AS, Fraction(0))
    F = np.floor(L)
    f = L - F
    out = f < float(t)
    near = (f < EPS) | (f > 1 - EPS) | (np.abs(f - float(t)) < EPS)
    for i in np.flatnonzero(near):
        ac, as_ = int(AC[i]), int(AS[i])
        fl, _ = _floor_at(ang, ac, as_, Fraction(0), int(F[i]))
        out[i] = _sign(ang, ac, as_, -fl - t) < 0
    return out


def images(ang: Angle, X, Y, mode: str = "floor"):
    """Discretized rotation of the points (X, Y) under floor/round/trunc."""
    forms = ((X, -Y), (Y, X))  # x*cos - y*sin, x*sin + y*cos
    g = Fraction(1, 2) if mode == "round" else Fraction(0)
    out = []
    for AC, AS in forms:
        F, isint = floor_form(ang, AC, AS, g)
        if mode == "trunc":
            F = F + ((F < 0) & ~isint)
        out.append(F)
    return out[0], out[1]


# --------------------------------------------------------------------------
# Answers per job kind
# --------------------------------------------------------------------------

def _bands(lo, hi, width):
    rows = max(1, _BAND // width)
    for b in range(lo, hi + 1, rows):
        yield b, min(hi, b + rows - 1)


def census(ang: Angle, M: int, kind: str, mode: str = "floor", points: bool = False):
    """Image histogram over a domain holding every preimage of the window.

    The rotation is an isometry and quantization moves a point by less
    than sqrt(2), so preimages of |x|,|y| <= M lie within sqrt(2)*(M+1).
    """
    R = math.isqrt(2 * (M + 1) ** 2) + 2
    W = 2 * M + 1
    cols = np.arange(-R, R + 1, dtype=np.int64)
    counts = np.zeros(W * W, dtype=np.int64)
    for lo, hi in _bands(-R, R, cols.size):
        A, B = np.meshgrid(cols, np.arange(lo, hi + 1, dtype=np.int64))
        X, Y = images(ang, A.ravel(), B.ravel(), mode)
        inwin = (np.abs(X) <= M) & (np.abs(Y) <= M)
        counts += np.bincount((X[inwin] + M) * W + Y[inwin] + M, minlength=W * W)
    idx = np.flatnonzero(counts >= 2 if kind == "collisions" else counts == 0)
    ref = {"count": int(idx.size)}
    if points:
        ref["points"] = sorted([int(i // W) - M, int(i % W) - M] for i in idx)
    return ref


def udist(ang: Angle, M: int, t1: Fraction, t2: Fraction):
    """Pairs |x|,|y| <= M with {x*cos - y*sin} < t1 and {x*sin + y*cos} < t2."""
    vals = np.arange(-M, M + 1, dtype=np.int64)
    total = 0
    for lo, hi in _bands(-M, M, vals.size):
        X, Y = np.meshgrid(vals, np.arange(lo, hi + 1, dtype=np.int64))
        X, Y = X.ravel(), Y.ravel()
        total += int((frac_below(ang, X, -Y, t1) & frac_below(ang, Y, X, t2)).sum())
    return {"count": total}


def sweep(ang: Angle, M: int, mode: str, max_steps: int):
    """Period histogram of every start in |x|,|y| <= M.

    Builds the map's functional graph on a box (growing it until no start
    leaves), finds each start's cycle by pointer doubling and each
    cycle's length by min-label propagation.
    """
    B = math.isqrt(2 * M * M) + 2
    while True:
        W = 2 * B + 1
        N = W * W
        node = np.arange(N, dtype=np.int64)
        X, Y = images(ang, node // W - B, node % W - B, mode)
        inbox = (np.abs(X) <= B) & (np.abs(Y) <= B)
        succ = np.append(np.where(inbox, (X + B) * W + Y + B, N), N)  # N: sink
        sx, sy = np.meshgrid(np.arange(-M, M + 1), np.arange(-M, M + 1))
        starts = ((sx + B) * W + sy + B).ravel()
        jump, label, hop = succ.copy(), np.arange(N + 1), 1
        while hop <= N:
            label = np.minimum(label, label[jump])
            jump = jump[jump]
            hop *= 2
        end = jump[starts]
        if (end == N).any():
            B *= 2
            continue
        break
    on_cycle = np.zeros(N + 1, dtype=bool)
    on_cycle[np.unique(jump)] = True
    period_of = np.bincount(label[on_cycle])
    periods = period_of[label[end]]
    cur, tail = starts.copy(), 0
    alive = ~on_cycle[cur]
    while alive.any():
        cur[alive] = succ[cur[alive]]
        tail += 1
        alive = ~on_cycle[cur]
    if tail + int(periods.max()) >= max_steps:
        raise RecountUndecided(f"orbits up to {tail} + {periods.max()} steps")
    hist = Counter(periods.tolist())
    ref = {"histogram": sorted([int(p), c] for p, c in hist.items()),
           "undetermined": 0, "escaped": 0}
    if mode == "trunc":
        origin = B * W + B
        ref["absorbed_all"] = bool(
            on_cycle[origin] and succ[origin] == origin and (label[end] == label[origin]).all()
        )
    return ref


def _visqrt(v):
    s = np.sqrt(v.astype(np.float64)).astype(np.int64)
    s = np.where((s + 1) * (s + 1) <= v, s + 1, s)
    return np.where(s * s > v, s - 1, s)


def period8(amax: int):
    """Candidates a <= amax by their defining conditions, each checked by
    eight exact steps of the pi/4 floor map from (a, 0).

    w = floor(a/sqrt2) must satisfy floor(sqrt2*w) = a - 1 and {a/sqrt2}
    must lie in [1 - 1/sqrt2, sqrt2 - 1]; both bounds are irrational
    comparisons decided by integer squaring.
    """
    a = np.arange(1, amax + 1, dtype=np.int64)
    w = _visqrt(a * a // 2)
    ok = _visqrt(2 * w * w) == a - 1
    ok &= (a + 1) ** 2 >= 2 * (w + 1) ** 2  # (a+1)/sqrt2 >= w+1
    s, t = a - 2, w - 1  # a - 2 <= sqrt2*(w - 1)
    ok &= np.where(t >= 0, (s <= 0) | (s * s <= 2 * t * t), (s < 0) & (s * s >= 2 * t * t))
    cand = a[ok]
    ang = parse_angle("pi/4")
    X, Y = cand.copy(), np.zeros_like(cand)
    for _ in range(8):
        X, Y = images(ang, X, Y)
    verified = int(((X == cand) & (Y == 0)).sum())
    return {"candidates": int(cand.size), "verified": verified,
            "boundary": [1], "violators": int(cand.size) - verified}
