"""Solution counting for the fractional-part inequality systems, and the
residue machinery that makes the rational-angle case exactly countable.

The basic question: how many lattice pairs (x1, x2) in |x1|,|x2| <= M
put both rotation forms' fractional parts into a half-open box
[0,t1) x [0,t2)?  count_solutions answers it for any angle, optionally
restricted to odd-odd pairs, by one of two routes:

* separable, when sin or cos is rational and both sides are rational,
  or both forms have rational coefficients (cardinal and Pythagorean
  angles; {L} is a multiple of 1/D, so any side t acts as ceil(t*D)/D):
  each form's test is (F(x) + G(y)) mod m < bound
  (QuadForm.split_frac_lt), so a pair passes by its column class and
  its row class alone, and the count sums products of class sizes over
  the class pairs that pass, while they are fewer than the arcs' work;
* arcs, for every other form or bound: with u = {a*x} per column and
  v = {b*y + c} per row from the forms' float coefficients, a pair
  passes a form iff u lies in the arc [-v, t - v) mod 1.  Sorting the
  columns by u1 and ranking their u2 turns each row's count into
  rectangle counts over a merge-sort tree, O(n log^2 n) for n window
  values; the columns within a float slack of an arc's end are
  box-tested exactly (kernels._exact_box): the strip pairs of all
  forms, each once, deduplicated by key.

The tests check both routes against a reference that box-tests every
pair (kernels._exact_box) in bands.

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
from .exactnum import Scalar, ZERO, ONE, compare, floor_exact
from .kernels import (
    _BAND_POINTS, FloatForm, QuadForm, _bands, _exact_box, _mod_inplace, image_forms,
)
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

    A counters dict receives method ("separable" or "arcs"), scanned_pts
    (the class pairs tested, or the strip pairs box-tested), and
    redecided_pts and scalar_pts: the points the float prefilter flagged
    that the forms' enclosures decided, and those the scalar exact layer
    decided."""
    if M < 0:
        raise ValueError(f"window M={M} is negative")
    forms = image_forms(ctx, RoundingMode.FLOOR, max_abs=M)
    vals, ts = _coord_values(M, parity), (box.t1, box.t2)
    total, tally = _separable_count(forms, ts, vals) or _arc_count(forms, ts, vals)
    if counters is not None:
        counters.update(tally)
    return total


def _frac(z: np.ndarray) -> np.ndarray:
    return z - np.floor(z)


def _arc_count(forms, ts, vals):
    """(count, counters) for any pair of forms, by arc range counting.

    With the float coefficients of each form's prefilter (FloatForm, or
    QuadForm._prefilter), u(x) = {a*x} per column and v(y) = {b*y + c}
    per row, {L(x, y)} = {u + v}, so a pair passes iff u lies in the arc
    [-v, t - v) mod 1.  _arc_cuts splits each row's circle of columns,
    sorted by u, into passes (the arc shrunk by the form's slack), fails
    (its complement shrunk by the slack) and two strips of width
    2*slack around the arc's ends.  The pairs that pass both forms
    certainly are counted by rectangle counting over the columns' ranks
    (_torus_dominance); the strip pairs of all forms are each box-tested
    once (_strips, kernels._exact_box), and scanned_pts counts them.

    Exactness.  Let e = 2^-53 and S = |a*x| + |b*y| + |c| + 1.  The
    coefficient floats lie within a few ulps of a, b, c (the prefilter's
    premise); a*x and b*y + c are rounded once or twice each; z - floor(z)
    is exact except for z in (-1, 0), where it rounds once; the cut
    points s - v, t - s - v, t + s - v, 1 - s - v and their fractional
    parts are rounded a few times at magnitudes below 2; searchsorted
    compares exactly.  So each column's place among the cuts is off from
    the exact {L} by under 16*e*S, while the slack is at least
    1e-12*S, about 9000*e*S: the prefilter's own margin of more than 100
    times.  A pass therefore has 0 < {L} < t and a fail {L} >= t."""
    n = len(vals)
    orders, cuts = [], []
    for k, t in zip(forms, ts):
        f = k if isinstance(k, FloatForm) else k._prefilter
        u = _frac(f.fa * vals)
        order = np.argsort(u, kind="stable")
        orders.append(order)
        cuts.append(_arc_cuts(u[order], _frac(f.fb * vals + f.fg), t, f.slack))
    total = redecided = scalar = scanned = 0
    if n:
        rank = np.empty(n, np.int64)
        rank[orders[1]] = np.arange(n)
        (a1, b1), (a2, b2) = ((c[:, 1], c[:, 2]) for c in cuts)
        e = _torus_dominance(rank[orders[0]], np.concatenate([b1, a1, b1, a1]),
                             np.concatenate([b2, b2, a2, a2])).reshape(4, n)
        total = int((e[0] - e[1] - e[2] + e[3]).sum())
    for rows, cols in _strips(orders, cuts):
        m, r, s = _exact_box(forms, vals[cols], vals[rows], ts)
        total += int(np.count_nonzero(m))
        scanned += len(rows)
        redecided += r
        scalar += s
    return total, dict(method="arcs", scanned_pts=scanned,
                       redecided_pts=redecided, scalar_pts=scalar)


def _search_sorted(keys: np.ndarray, needles: np.ndarray) -> np.ndarray:
    """np.searchsorted(keys, needles), for needles of any shape, searched
    in sorted order and scattered back: binary searches for ascending
    needles walk nearby paths of keys and stay in cache, which repays
    the argsort several times over for needles in random order."""
    flat = needles.reshape(-1)
    order = np.argsort(flat)
    out = np.empty(flat.size, dtype=np.intp)
    out[order] = np.searchsorted(keys, flat[order])
    return out.reshape(needles.shape)


def _arc_cuts(us: np.ndarray, v: np.ndarray, t: Scalar, slack: float) -> np.ndarray:
    """Each row's cuts through the columns sorted by u (us), as a
    (rows, 6) array c0 <= ... <= c5 = c0 + n of indices into those
    columns repeated once per period: index j stands for the column at
    place j mod n, at us[j mod n] + j // n.  [c1, c2) passes, [c3, c4)
    fails, and [c0, c1), [c2, c3) and [c4, c5) are the strips.  The cuts
    are the places of -s - v, s - v, t - s - v, t + s - v and 1 - s - v
    for s the slack, made monotone and clipped to one period, which only
    shrinks the passes and fails; a side t = 1 passes every column."""
    n = len(us)
    if compare(t, ONE) == 0:
        return np.broadcast_to(np.array([0, 0, n, n, n, n]), (len(v), 6))
    ft = float(t)
    c = np.array([-slack, slack, ft - slack, ft + slack, 1 - slack]) - v[:, None]
    F = np.floor(c)
    cut = F.astype(np.int64) * n + _search_sorted(us, c - F)
    np.maximum.accumulate(cut, axis=1, out=cut)
    cut = np.minimum(cut, cut[:, :1] + n)
    return np.column_stack([cut, cut[:, 0] + n])


def _torus_dominance(seq: np.ndarray, I: np.ndarray, R: np.ndarray) -> np.ndarray:
    """E(I, R) = sum over positions p of N(p, I) * N(seq[p], R), where
    N(p, I) counts the indices p + k*n below I from a fixed k on; for
    index ranges of at most n, E(b1, b2) - E(a1, b2) - E(b1, a2) +
    E(a1, a2) counts the positions in [a1, b1) mod n whose seq lies in
    [a2, b2) mod n.  With I = a*n + i and R = b*n + r, E = n*a*b + a*r
    + b*i + D(i, r) for D the dominance count #{p < i : seq[p] < r}.

    D comes from a merge-sort tree over seq, one level at a time: at
    level l the keys (p >> l)*n + seq[p] sorted hold every block of 2^l
    positions in place, sorted by seq, so one searchsorted answers the
    level for every query whose prefix [0, i) holds a block there (bit l
    of i).  O(n log^2 n) time for n queries, O(n) memory."""
    n = len(seq)
    a, i = np.divmod(I, n)
    b, r = np.divmod(R, n)
    out = n * a * b + a * r + b * i
    keys = np.arange(n, dtype=np.int64) * n + seq
    for lev in range((n - 1).bit_length()):
        if lev:
            # a level's blocks are pairs of the last level's sorted runs
            keys = np.sort(keys // (2 * n) * n + keys % n, kind="stable")
        hit = np.flatnonzero(i >> lev & 1)
        start = i[hit] >> (lev + 1) << (lev + 1)
        out[hit] += _search_sorted(keys, (start >> lev) * n + r[hit]) - start
    return out


def _strips(orders, cuts):
    """Banded (rows, cols) index arrays of the strip pairs of any number
    of forms (_arc_cuts), each pair once: every form's pairs come from
    its own cuts and column order, and a pair in the strips of several
    forms is kept once, deduplicated by its key row*n + col."""
    n = len(orders[0])
    sizes = [c[:, 1::2] - c[:, 0::2] for c in cuts]  # each row's three strips
    per_row = sum(sizes).sum(axis=1)
    if not per_row.any():
        return
    for r0, r1 in _bands(0, n - 1, int(per_row.max())):
        keys = []
        for order, c, size in zip(orders, cuts, sizes):
            size = size[r0 : r1 + 1].ravel()
            strip = np.repeat(np.arange(size.size), size)  # each pair's strip
            j = c[r0 : r1 + 1, 0::2].ravel()[strip] + np.arange(len(strip))
            j -= np.repeat(np.cumsum(size) - size, size)
            keys.append(strip // 3 * n + order[j % n])  # (row - r0)*n + col
        # sorted, not np.unique: numpy 2's hashing unique is ~20x slower here
        key = np.sort(np.concatenate(keys))
        yield np.divmod(key[np.diff(key, prepend=-1) > 0] + r0 * n, n)


def _classes(a: np.ndarray, b: np.ndarray, ma: int, mb: int):
    """The distinct pairs (a[i], b[i]), 0 <= a < ma and 0 <= b < mb, and
    how often each occurs, keyed as a*mb + b, or as the pair of the
    ranks of a and b among their values when a*mb + b passes int64."""
    if ma * mb > 1 << 63:
        (ua, ia), (ub, ib) = (np.unique(v, return_inverse=True) for v in (a, b))
        ka, kb, counts = _classes(ia, ib, len(ua), len(ub))
        return ua[ka], ub[kb], counts
    keys, counts = np.unique(a * mb + b, return_counts=True)
    return keys // mb, keys % mb, counts


def _separable_count(forms, ts, vals):
    """(count, counters) when both forms split by axis
    (QuadForm.split_frac_lt) into few enough class pairs, else None.

    With N_k(x, y) = F_k(x) + G_k(y), a pair passes when (F_k(x) +
    G_k(y)) mod m_k < bound_k for k = 1, 2; that depends on x only
    through its column class (F1(x) mod m1, F2(x) mod m2) and on y only
    through its row class.  Each class pair that passes adds the product
    of the classes' sizes.  There are never more class pairs than
    points, but with moduli near n they are about n^2: past one band and
    past n*bit_length(n)^2, the arc route's order of work, it returns
    None and the arcs count."""
    if not all(isinstance(k, QuadForm) for k in forms):
        return None
    splits = [k.split_frac_lt(vals, vals, t) for k, t in zip(forms, ts)]
    if None in splits:
        return None
    (F1, G1, m1, b1), (F2, G2, m2, b2) = splits
    c1, c2, wc = _classes(F1, F2, m1, m2)
    r1, r2, wr = _classes(G1, G2, m1, m2)
    n = len(vals)
    if len(wc) * len(wr) > max(_BAND_POINTS, n * n.bit_length() ** 2):
        return None
    total = 0
    for i0, i1 in _bands(0, len(wr) - 1, len(wc)):
        ok = _mod_inplace(c1[None, :] + r1[i0 : i1 + 1, None], m1) < b1
        ok &= _mod_inplace(c2[None, :] + r2[i0 : i1 + 1, None], m2) < b2
        total += int(wr[i0 : i1 + 1] @ (ok @ wc))
    return total, dict(method="separable", scanned_pts=len(wc) * len(wr),
                       redecided_pts=0, scalar_pts=0)


def _count_residue_class(M: int, s: int, modulus: int) -> int:
    """|{a in [-M, M] : a == s (mod modulus)}| for 0 <= s < modulus, elementwise."""
    return (M - s) // modulus + (M + s) // modulus + 1


def count_solutions_residue(
    ctx: AngleContext,
    box: InequalityBox,
    M: int,
    parity: Parity = Parity.ALL,
) -> int:
    """Residue-class counter for rational (Pythagorean) angles.

    Independent of count_solutions: admissible residues d1 are read off
    the exact fractional values {p2*d1/q}, {p1*d1/q}, then lattice pairs
    are counted per class in closed form: {p*d1/q} < t iff p*d1 mod q <
    ceil(q*t), one integer test over d1 = 0..q-1 per side.
    """
    if M < 0:
        raise ValueError(f"window M={M} is negative")
    cls = ctx.classification
    if not isinstance(cls, RationalPythagorean):
        raise InvalidSpec("residue counting needs a rational Pythagorean angle")
    p1, p2, q = cls.p1, cls.p2, cls.q
    if q >= 1 << 31:  # residue products below q^2 must fit int64
        raise InvalidSpec(f"residue counting needs a hypotenuse q < 2^31, got {q}")
    h = p1 * pow(p2, -1, q) % q
    B1, B2 = (-floor_exact(-q * t) for t in (box.t1, box.t2))
    valid = []
    for lo in range(0, q, _BAND_POINTS):
        d1 = np.arange(lo, min(q, lo + _BAND_POINTS), dtype=np.int64)
        valid.append(d1[(p2 * d1 % q < B1) & (p1 * d1 % q < B2)])
    valid = np.concatenate(valid)
    if not len(valid):
        return 0
    # the rows b by their residue h*b mod q, each distinct one summed once
    rb, rows = np.unique(_coord_values(M, parity) % q * h % q, return_counts=True)
    total = 0
    for i0, i1 in _bands(0, len(rb) - 1, len(valid)):
        r = _mod_inplace(rb[i0 : i1 + 1, None] + valid, q)
        if parity is Parity.ALL:
            per = _count_residue_class(M, r, q)
        else:
            r[r % 2 == 0] += q  # q odd: CRT with a == 1 (mod 2)
            per = _count_residue_class(M, r, 2 * q)
        total += int(rows[i0 : i1 + 1] @ per.sum(axis=1))
    return total
