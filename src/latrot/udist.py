"""Solution counting for the fractional-part inequality systems, and the
residue machinery that makes the rational-angle case exactly countable.

The basic question: how many lattice pairs (x1, x2) in |x1|,|x2| <= M
put both rotation forms' fractional parts into a half-open box
[0,t1) x [0,t2)?  count_solutions answers it for any angle, optionally
restricted to odd-odd pairs, by one of two routes:

* separable, when sin or cos is rational and both sides are rational:
  each form's test is (F(x) + G(y)) mod m < bound
  (QuadForm.split_frac_lt), so a pair passes by its column class and
  its row class alone, and the count sums products of class sizes over
  the class pairs that pass;
* scan, for every other form or bound: every pair is box-tested in
  bands (kernels._exact_box), which is also the separable route's
  oracle.

count_solutions_residue is a third counter, for angles with sin = p1/q,
cos = p2/q.  With h the inverse of p2 modulo q scaled by p1 (2uv*h ==
u^2-v^2 mod q in triple coordinates), the residue d1 = (a - h*b) mod q
determines both fractional parts exactly:
    {L1(a,b)} = {p2*d1/q},   {L2(a,b)} = {p1*d1/q},
so counting reduces to describing the admissible residue classes and
counting lattice points per class.

The residue counter and count_solutions are independent algorithms;
their exact agreement is a primary correctness oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .angle import AngleContext, RationalPythagorean
from .errors import InvalidSpec
from .exactnum import Rational, Scalar, ZERO, ONE, compare, rational
from .kernels import _INT64_SAFE, QuadForm, _bands, _exact_box, _mod_inplace, image_forms
from .rotation import RoundingMode


class Parity(Enum):
    ALL = "all"
    ODD_ODD = "odd_odd"


@dataclass(frozen=True)
class InequalityBox:
    t1: Scalar
    t2: Scalar

    def __post_init__(self):
        for t in (self.t1, self.t2):
            if compare(t, ZERO) <= 0 or compare(t, ONE) > 0:
                raise InvalidSpec("box sides must lie in (0, 1]")


@dataclass(frozen=True)
class PythTriple:
    u: int
    v: int
    p1: int  # u^2 - v^2
    p2: int  # 2uv
    q: int  # u^2 + v^2
    h: int  # 2uv*h == u^2 - v^2  (mod q)

    @classmethod
    def from_uv(cls, u: int, v: int) -> "PythTriple":
        if not (u > v >= 1) or math.gcd(u, v) != 1 or (u - v) % 2 == 0:
            raise InvalidSpec(f"(u,v)=({u},{v}) does not generate a primitive triple")
        p1, p2, q = u * u - v * v, 2 * u * v, u * u + v * v
        h = p1 * pow(p2, -1, q) % q
        return cls(u, v, p1, p2, q, h)


def gen_primitive_triples(q_max: int) -> list[PythTriple]:
    """All primitive triples with hypotenuse q <= q_max, sorted by q."""
    if q_max < 5:
        raise InvalidSpec("q_max must be at least 5")
    out = []
    u = 2
    while u * u + 1 <= q_max:
        for v in range(1, u):
            if (u - v) % 2 == 0 or math.gcd(u, v) != 1:
                continue
            if u * u + v * v <= q_max:
                out.append(PythTriple.from_uv(u, v))
        u += 1
    out.sort(key=lambda t: (t.q, t.p1))
    return out


def residue_d1(a: int, b: int, triple: PythTriple) -> int:
    return (a - triple.h * b) % triple.q


@dataclass
class CongruenceCheck:
    a: int
    b: int
    d1: int
    main_ok: bool  # a*p1 + b*p2 == d1*p1  (mod q)
    companion_ok: bool  # a*p2 - b*p1 == d1*p2  (mod q)


@dataclass
class CongruenceReport:
    triple: PythTriple
    checks: list[CongruenceCheck]

    @property
    def all_passed(self) -> bool:
        return all(c.main_ok and c.companion_ok for c in self.checks)


def verify_case3_congruences(
    triple: PythTriple, samples: list[tuple[int, int]]
) -> CongruenceReport:
    """Failures are reported, not raised."""
    p1, p2, q = triple.p1, triple.p2, triple.q
    checks = []
    for a, b in samples:
        d1 = residue_d1(a, b, triple)
        checks.append(
            CongruenceCheck(
                a,
                b,
                d1,
                main_ok=(a * p1 + b * p2 - d1 * p1) % q == 0,
                companion_ok=(a * p2 - b * p1 - d1 * p2) % q == 0,
            )
        )
    return CongruenceReport(triple, checks)


# --------------------------------------------------------------------------
# Counters
# --------------------------------------------------------------------------

def _coord_values(M: int, parity: Parity) -> np.ndarray:
    if parity is Parity.ALL:
        return np.arange(-M, M + 1, dtype=np.int64)
    lo = -M if M % 2 == 1 else -M + 1
    return np.arange(lo, M + 1, 2, dtype=np.int64)


def count_solutions(
    ctx: AngleContext,
    box: InequalityBox,
    M: int,
    parity: Parity = Parity.ALL,
    counters: dict | None = None,
) -> int:
    """Direct windowed count of {L1} in [0,t1) and {L2} in [0,t2).

    A counters dict receives method ("separable" or "scan"), scanned_pts
    (the class pairs tested, or the points box-tested), and
    redecided_pts and scalar_pts: the points the float prefilter flagged
    that the forms' enclosures decided, and those the scalar exact layer
    decided."""
    forms = image_forms(ctx, RoundingMode.FLOOR, max_abs=M)
    vals, ts = _coord_values(M, parity), (box.t1, box.t2)
    total, tally = _separable_count(forms, ts, vals) or _scan_count(forms, ts, vals)
    if counters is not None:
        counters.update(tally)
    return total


def _scan_count(forms, ts, vals):
    """Box-test every pair of vals: the route of every form the
    separable route cannot split, and its oracle."""
    total = redecided = scalar = 0
    # banded over row indices, so odd-odd rows keep their step of 2
    for i0, i1 in _bands(0, len(vals) - 1, len(vals)):
        A, B = np.broadcast_arrays(vals[None, :], vals[i0 : i1 + 1, None])
        m, r, s = _exact_box(forms, A, B, ts)
        total += int(np.count_nonzero(m))
        redecided += r
        scalar += s
    return total, dict(method="scan", scanned_pts=len(vals) ** 2,
                       redecided_pts=redecided, scalar_pts=scalar)


def _classes(a: np.ndarray, b: np.ndarray, mb: int):
    """The distinct pairs (a[i], b[i]), 0 <= b < mb, and how often each
    occurs; the caller keeps a*mb + b inside int64."""
    keys, counts = np.unique(a * mb + b, return_counts=True)
    return keys // mb, keys % mb, counts


def _separable_count(forms, ts, vals):
    """(count, counters) when both forms split by axis
    (QuadForm.split_frac_lt), else None.

    With N_k(x, y) = F_k(x) + G_k(y), a pair passes when (F_k(x) +
    G_k(y)) mod m_k < bound_k for k = 1, 2; that depends on x only
    through its column class (F1(x) mod m1, F2(x) mod m2) and on y only
    through its row class.  Each class pair that passes adds the product
    of the classes' sizes.  There are never more class pairs than
    points, so this never does more work than the scan."""
    if not all(isinstance(k, QuadForm) for k in forms):
        return None
    splits = [k.split_frac_lt(vals, vals, t) for k, t in zip(forms, ts)]
    if None in splits:
        return None
    (F1, G1, m1, b1), (F2, G2, m2, b2) = splits
    if m1 * m2 >= _INT64_SAFE:  # a class's key would overflow
        return None
    c1, c2, wc = _classes(F1, F2, m2)
    r1, r2, wr = _classes(G1, G2, m2)
    total = 0
    for i0, i1 in _bands(0, len(wr) - 1, len(wc)):
        ok = _mod_inplace(c1[None, :] + r1[i0 : i1 + 1, None], m1) < b1
        ok &= _mod_inplace(c2[None, :] + r2[i0 : i1 + 1, None], m2) < b2
        total += int(wr[i0 : i1 + 1] @ (ok @ wc))
    return total, dict(method="separable", scanned_pts=len(wc) * len(wr),
                       redecided_pts=0, scalar_pts=0)


def _count_residue_class(M: int, s: int, modulus: int) -> int:
    """|{a in [-M, M] : a == s (mod modulus)}| for 0 <= s < modulus."""
    return (M - s) // modulus + (M + s) // modulus + 1


def count_solutions_residue(
    ctx: AngleContext,
    box: InequalityBox,
    M: int,
    parity: Parity = Parity.ALL,
) -> int:
    """Residue-class counter for rational (Pythagorean) angles.

    Independent of the direct scan: admissible residues d1 are read off
    the exact fractional values {p2*d1/q}, {p1*d1/q}, then lattice pairs
    are counted per class in closed form.
    """
    cls = ctx.classification
    if not isinstance(cls, RationalPythagorean):
        raise InvalidSpec("residue counting needs a rational Pythagorean angle")
    p1, p2, q = cls.p1, cls.p2, cls.q
    h = p1 * pow(p2, -1, q) % q
    valid = [
        d1
        for d1 in range(q)
        if compare(rational((p2 * d1) % q, q), box.t1) < 0
        and compare(rational((p1 * d1) % q, q), box.t2) < 0
    ]
    if not valid:
        return 0
    total = 0
    bs = range(-M, M + 1) if parity is Parity.ALL else range(-M + (1 - M % 2), M + 1, 2)
    for b in bs:
        rb = (h * b) % q
        for d1 in valid:
            r = (rb + d1) % q
            if parity is Parity.ALL:
                total += _count_residue_class(M, r, q)
            else:
                s = r if r % 2 == 1 else r + q  # q odd: CRT with a == 1 (mod 2)
                total += _count_residue_class(M, s, 2 * q)
    return total
