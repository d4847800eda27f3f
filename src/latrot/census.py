"""Collision and hole censuses over symmetric windows, plus growth fits.

A *collision point* is a lattice point that is the image of two distinct
lattice points under the discretized rotation; a *hole* has no preimage
at all.  Both are counted over |x|,|y| <= M by three routes; the angle's
classification and the rounding mode pick one, and the other two check
it.  Round is the floor of the rotation shifted by (1/2, 1/2), and the
first two routes hold for every such translate of the floor map:

* separable (floor and round at a rational slope): cardinal and
  Pythagorean angles, and the slopes cos = r1*sin with r1 rational and
  sin irrational (pi/4, tan^-1(1/2)).  With sin = s0/sqrt(D) and
  cos = c0/sqrt(D) the images are (floor(u/sqrt(D)), floor(v/sqrt(D)))
  of (u, v) = (c0*x - s0*y, s0*x + c0*y), which runs over the lattice
  c0*u + s0*v == 0 (mod D).  The multiplicity of image (n, m) depends
  only on the classes of n and m: residues mod q for D = q^2
  (residue_histogram), the start mod D and length of n's interval of u
  otherwise.  A census sums the class pairs, in time independent of M at
  Pythagorean angles and linear in M at the others (Nouvel and Remila,
  Configurations induced by discrete rotations, Discrete Appl. Math.
  2005).  A residue table larger than the window goes to the grid.
* characterization (floor and round, every other angle), read off the
  image grid of a domain window that holds every preimage of the target
  window (the rotation is an isometry and quantization moves points by
  less than sqrt(2)):
  - collisions: every colliding pair is a unit-distance neighbor pair
    and no image has more than two preimages, so the collision images
    are the shared images of right and up neighbor pairs.
  - holes: the multiplicities over the window sum to N, the number of
    lattice points imaged into it, and each is 0, 1 or 2, so
    (2M+1)^2 - holes + collisions = N: the pass that finds the pairs
    counts N too, and the hole points are the window points no image
    hits.  (A single point is tested by hole_test_exact; the weaker
    test "no corner of the cell *containing* the inverse-rotated point
    maps onto (n, m)" is necessary but not sufficient.)
* brute force (any rounding mode): histogram the images and read off
  multiplicities.  Trunc always runs it: truncation is not a translate
  of floor, and its collisions can have more than two preimages.

The characterization clips its domain to the rotated square that holds
every preimage of the window, half the area of the bounding square it
sits in; brute force scans the whole bounding square, so it stays
independent of that clip.

Scans run over rows in kernels._bands' cache-sized bands, which
kernels._run_bands hands to worker threads; the merge (integer sums and
kernels._window_index lists, sorted at the end) is independent of the
thread count.  Each band re-decides the points its float prefilter
flags exactly, on its own thread, from its forms' integer enclosures
(kernels._exact_images); discrete_rotate stays an independent oracle.
The separable route scans no images and ignores the thread count.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .angle import AngleContext, CardinalMultiple, LinearRelation, RationalPythagorean, angle_text
from .errors import CapExceeded, DegenerateCounts
from .exactnum import ZERO, _floor_sqrt_multiple, compare, floor_exact
from .kernels import (
    _SQRT_SAFE, _band, _bands, _domain_radius, _exact_images, _mod_inplace, _run_bands,
    _sorted_points, _square_images, _window_index, image_forms, vfloor_sqrt_multiple,
)
from .rotation import RoundingMode, cell_corners, discrete_rotate, quantize, rotate_inverse
from .udist import _count_residue_class

DEFAULT_ORACLE_CAP = 512


class CensusKind(Enum):
    COLLISIONS = "collisions"
    HOLES = "holes"


class Method(Enum):
    SEPARABLE = "separable"
    CHARACTERIZATION = "characterization"
    BRUTE_FORCE = "brute_force"


@dataclass
class CensusReport:
    angle: str
    mode: RoundingMode
    M: int
    kind: CensusKind
    count: int
    points: list[tuple[int, int]] | None
    method: Method
    elapsed_ms: float
    pair_count: int | None = None
    scanned_pts: int = field(default=0, compare=False)  # points imaged, or values classified
    redecided_pts: int = field(default=0, compare=False)  # flagged, decided by enclosures


@dataclass
class GrowthFit:
    Ms: list[int]
    counts: list[int]
    exponent: float
    r_squared: float


def collision_site_exact(ctx: AngleContext, a: int, b: int):
    """Exact per-point evaluation: the floor image of (a, b) and the
    neighbor steps whose floor image equals it (a scalar reference; the
    census re-decides flagged points with _exact_images)."""
    image = discrete_rotate(ctx, (a, b))
    steps = ((0, 1), (1, 0), (0, -1), (-1, 0))
    fired = [e for e in steps if discrete_rotate(ctx, (a + e[0], b + e[1])) == image]
    return image, fired


def hole_test_exact(ctx: AngleContext, n: int, m: int) -> bool:
    """Exact single-point hole test.

    Every preimage of (n, m) lies in the inverse-rotated unit square,
    whose points sit within sqrt(2) of the inverse-rotated corner; that
    confines candidates to the 4x4 lattice block around the containing
    cell.  (The four cell corners alone are not enough: for
    sin, cos = 5/13, 12/13 the point (1, 0) has containing cell (0, -1)
    with no corner mapping onto it, yet (2, 0) does.)
    """
    ax, bx = rotate_inverse(ctx, (n, m))
    a, b = floor_exact(ax), floor_exact(bx)
    return not any(
        discrete_rotate(ctx, (a + i, b + j)) == (n, m)
        for i in (-1, 0, 1, 2)
        for j in (-1, 0, 1, 2)
    )


# Corner-image offsets around a hole, per quadrant of the angle: the
# images of cell corners (0,0), (1,0), (0,1), (1,1) occupy the four
# horizontal/vertical neighbors of the hole in this fixed order.
_HOLE_PATTERNS = {
    1: ((0, -1), (1, 0), (-1, 0), (0, 1)),
    2: ((1, 0), (0, 1), (0, -1), (-1, 0)),
    3: ((0, 1), (-1, 0), (1, 0), (0, -1)),
    4: ((-1, 0), (0, -1), (0, 1), (1, 0)),
}


def _quadrant(ctx: AngleContext) -> int:
    s = compare(ctx.sin, ZERO)
    c = compare(ctx.cos, ZERO)
    if s > 0:
        return 1 if c > 0 else 2
    if c > 0:
        return 4
    return 3


def hole_pattern_exact(ctx: AngleContext, a: int, b: int) -> tuple[int, int] | None:
    """If the corner images of cell (a, b) surround a lattice point as
    its four orthogonal neighbors (quadrant order), return that point."""
    pattern = _HOLE_PATTERNS[_quadrant(ctx)]
    imgs = [quantize(c) for c in cell_corners(ctx, (a, b))]
    n = imgs[0][0] - pattern[0][0]
    m = imgs[0][1] - pattern[0][1]
    for (x, y), (dx, dy) in zip(imgs, pattern):
        if (x, y) != (n + dx, m + dy):
            return None
    return n, m


# --------------------------------------------------------------------------
# Characterization censuses: one pass over the image grid
# --------------------------------------------------------------------------

def _row_spans(ctx, M, R):
    """Column spans (lo, hi) of the domain rows b = -R..R, at index b + R:
    row b's span holds every a whose rotated point A(a, b) = (a*cos -
    b*sin, a*sin + b*cos) lies in [-M-2, M+3]^2; an empty span is
    (R + 1, -R - 1).

    A superset filter, not a floor decision.  The census needs every
    preimage of the window in its row's span, both points of each
    colliding pair among them; the box holds more.  A point whose image
    lies in [-M-1, M+1]^2, a unit past the window, has A(a, b) in
    [-M-1, M+2)^2 under floor, a unit inside that box on every side.
    Under round the image is floor(A + 1/2), which puts A(a, b) in
    [-M-3/2, M+3/2)^2, half a unit inside the box on the low side.  The
    spans solve each coordinate a*k + off in [-M-2, M+3] for a, with
    float cos and sin (k is one of them, off the other's term in b).
    Over |a|, |b| <= R the float coordinate is off from the exact one by
    at most R*(|cos - cos_f| + |sin - sin_f|) plus the rounding of off,
    far below that half unit for any window a scan can hold (the float
    prefilter's much finer slack assumes the same accuracy of cos_f and
    sin_f), so every such a solves it.  Each bound on a, a quotient by k,
    is rounded outward and widened by one column, which covers the
    rounding of the quotient.  A k that is 0 in float bounds the row
    instead.
    """
    b = np.arange(-R, R + 1, dtype=np.float64)
    c, s = float(ctx.cos), float(ctx.sin)
    lo = np.full(b.size, -R, dtype=np.float64)
    hi = np.full(b.size, R, dtype=np.float64)
    L, H = -M - 2, M + 3
    for k, off in ((c, -s * b), (s, c * b)):  # the coordinate a*k + off
        if k == 0:
            hi[(off < L) | (off > H)] = -R - 1
            continue
        t1, t2 = (L - off) / k, (H - off) / k
        np.maximum(lo, np.floor(np.minimum(t1, t2)) - 1, out=lo)
        np.minimum(hi, np.ceil(np.maximum(t1, t2)) + 1, out=hi)
    empty = lo > hi
    lo[empty], hi[empty] = R + 1, -R - 1
    return lo.astype(np.int64), hi.astype(np.int64)


def _grid_census(ctx, M, mode, kind, keep_points, threads):
    """(count, window indices or None, counters) of collision images or
    holes; the counters are the report's scanned_pts and redecided_pts.

    One banded pass computes the images of the domain under mode once
    per point and tallies, over the window, the colliding right and up
    neighbour pairs and N, the points imaged into it.  Each band reads a
    one-row halo above it, so every pair anchored in the band is read
    there; it scans only the columns of its rows' spans, halo row
    included (_row_spans), and a band whose spans are all empty is
    skipped: every preimage of the window lies inside its row's span.
    No image has more than two preimages and the two of a collision are
    unit neighbours, so the collisions are the pairs, and summing the
    multiplicities over the window, (2M+1)^2 - holes + collisions = N.
    Hole points are the window entries no image of the band's own rows
    marks.  Each band re-decides the points its float prefilter flags,
    halo row included, and reads exact images.
    """
    R = _domain_radius(M)
    W = 2 * M + 1
    sink = W * W
    forms = image_forms(ctx, mode, max_abs=R)
    lo, hi = _row_spans(ctx, M, R)
    collisions = kind is CensusKind.COLLISIONS
    # the window's entries an image marks, and the sink
    imaged = np.zeros(sink + 1, dtype=bool) if keep_points and not collisions else None

    def worker(span):
        blo, bhi = span
        top = min(bhi + 1, R)
        c0, c1 = lo[blo + R:top + R + 1].min(), hi[blo + R:top + R + 1].max()
        if c0 > c1:
            return (0, 0, 0, 0), []
        A, B = _band(np.arange(c0, c1 + 1, dtype=np.int64), blo, top)
        X, Y, redecided = _exact_images(forms, A, B, mode)
        I = _window_index(X, Y, M)
        inside = I != sink
        rows = bhi - blo + 1
        pairs, parts = 0, []
        # (anchor, partner) of the right pairs in the band's own rows and
        # of the up pairs, whose anchors stop below the last row read; a
        # pair collides when I[a] == I[b] != sink
        for a, b in ((np.s_[:rows, :-1], np.s_[:rows, 1:]), (np.s_[:-1], np.s_[1:])):
            hit = (I[a] == I[b]) & inside[a]
            pairs += int(np.count_nonzero(hit))
            if keep_points and collisions:
                parts.append(I[a][hit])
        if imaged is not None:
            imaged[I[:rows]] = True
        return (X.size, redecided, pairs, int(np.count_nonzero(inside[:rows]))), parts

    bands = _run_bands(-R, R, 2 * R + 1, worker, threads)
    scanned, redecided, pairs, n_imaged = map(sum, zip(*(t for t, _ in bands)))
    counters = dict(scanned_pts=scanned, redecided_pts=redecided)
    count = pairs if collisions else W * W - n_imaged + pairs
    if not keep_points:
        return count, None, counters
    if collisions:
        return count, np.concatenate([p for _, parts in bands for p in parts]), counters
    return count, np.flatnonzero(~imaged[:sink]), counters


# --------------------------------------------------------------------------
# Separable censuses: rational slopes, counted over residue classes
# --------------------------------------------------------------------------

# The separable route's residue table (H over q, the arc counts over D)
# holds at most this many entries; a larger modulus runs the grid.
_TABLE_MAX = 1 << 20


def _rational_slope(ctx):
    """(classes, s0, c0, modulus) for an angle of rational slope, with
    sin = s0/sqrt(D), cos = c0/sqrt(D) and s0, c0 coprime: cardinal and
    Pythagorean angles (D = q^2) take the residue histogram mod q, the
    other rational slopes the interval types mod D.  None when the slope
    is irrational."""
    cls = ctx.classification
    if isinstance(cls, (CardinalMultiple, RationalPythagorean)):
        return _pythagorean_classes, ctx.sin.numerator, ctx.cos.numerator, ctx.sin.denominator
    if isinstance(cls, LinearRelation) and cls.r2 == 0 and not cls.swapped:
        # cos = r1*sin: tan = 1/r1, and s0 carries the sign of sin
        sign = compare(ctx.sin, ZERO)
        s0, c0 = sign * cls.r1.denominator, sign * cls.r1.numerator
        return _interval_types, s0, c0, s0 * s0 + c0 * c0
    return None


def residue_histogram(s0: int, c0: int, q: int, mode: RoundingMode) -> np.ndarray:
    """H with H[k] the number of preimages of every image (n, m) with
    -(c0*n + s0*m) == k (mod q), at sin = s0/q, cos = c0/q under floor or
    round.

    The floor image of (x, y) is (floor(u/q), floor(v/q)) with
    (u, v) = (c0*x - s0*y, s0*x + c0*y), which runs over the lattice
    c0*u + s0*v == 0 (mod q^2); round adds 1/2 to u/q and v/q.  The u of
    image row n are the q integers n*q - e + i, i < q (e = 0 for floor,
    (q-1)/2 for round: q is odd), and likewise the v of column m with
    offsets j.  Mod q the lattice fixes j(i) = ((c0 + s0)*e - c0*i)/s0
    mod q; the remaining condition mod q^2 reads t(i) == k, with
    q*t(i) = c0*(i - e) + s0*(j(i) - e).
    """
    e = (q - 1) // 2 if mode is RoundingMode.ROUND else 0
    inv = pow(s0, -1, q)
    # j(i) = b + g*i - q*f(i) with f(i) = (b + g*i) // q; both c0 + s0*g
    # and s0*b - (c0 + s0)*e are multiples of q, so t(i) is an integer
    # combination of i and f(i), built in place
    b, g = (c0 + s0) * e * inv % q, -c0 * inv % q
    i = np.arange(q, dtype=np.int64)
    f = g * i
    f += b
    f //= q
    f *= s0
    t = (c0 + s0 * g) // q * i
    t += (s0 * b - (c0 + s0) * e) // q
    t -= f
    return np.bincount(_mod_inplace(t, q), minlength=q)


def _interval_starts(n: np.ndarray, D: int, mode: RoundingMode) -> np.ndarray:
    """ceil((n - g)*sqrt(D)) for a non-square D: the first u whose image
    coordinate floor(u/sqrt(D) + g) is n (g = 1/2 for round, else 0).

    With t = 2(n - g) and F = floor(t*sqrt(D)), exact by integer square
    root, the start is F // 2 + 1, since t*sqrt(D) is irrational for
    t != 0; it is 0 at t = 0."""
    t = 2 * n - (mode is RoundingMode.ROUND)
    if int(np.abs(t).max()) ** 2 * D < _SQRT_SAFE:
        F = vfloor_sqrt_multiple(t, D)
    else:
        F = np.array([_floor_sqrt_multiple(x, D) for x in t.tolist()], dtype=np.int64)
    return np.where(t == 0, 0, (F >> 1) + 1)


def _arc_counts(rho: int, D: int, la: int, lb: int) -> np.ndarray:
    """g with g[d] = #{i < la : (rho*i - d) mod D < lb}, for every d mod D.

    Point i lies in the arcs d in (rho*i - lb, rho*i] mod D; a difference
    array sums the arcs, each wrapped one adding 1 from d = 0."""
    ends = rho * np.arange(la, dtype=np.int64) % D
    starts = (ends - lb + 1) % D
    diff = np.bincount(starts, minlength=D + 1) - np.bincount(ends + 1, minlength=D + 1)
    diff[0] += np.count_nonzero(starts > ends)
    return np.cumsum(diff[:D])


def _bad(mult: np.ndarray, kind: CensusKind) -> np.ndarray:
    return mult >= 2 if kind is CensusKind.COLLISIONS else mult == 0


def _pythagorean_classes(s0, c0, q, M, mode, kind):
    """Classes of the window's values for the residue histogram: n's class
    is (n + M) mod P with P = min(q, 2M + 1), so the classes are the
    residues mod q, or the window's values themselves when q > 2M + 1."""
    H = residue_histogram(s0, c0, q, mode)
    P = min(q, 2 * M + 1)
    reps = np.arange(P, dtype=np.int64) - M
    weights = _count_residue_class(M, reps % P, P)
    lens = np.zeros(P, dtype=np.int64)
    table = _bad(H, kind)[None, None, :]
    cls_of = lambda n: (n + M) % P
    return table, (-c0 * reps) % q, (-s0 * reps) % q, lens, weights, cls_of, q


def _interval_types(s0, c0, D, M, mode, kind):
    """Classes of the window's values by the type of their interval I_n,
    the u with image coordinate n: its start mod D and its length, one of
    floor(sqrt(D)) and that plus 1.  The multiplicity of the images of
    type pair (a, b) is the number of u in I_a with rho*u mod D in I_b,
    where rho = -c0/s0 mod D, which depends on the lengths and on
    d = (B - rho*A) mod D for the starts A and B."""
    L0 = math.isqrt(D)
    ids = np.empty(2 * M + 1, dtype=np.int64)  # start mod D, then the length
    for lo, hi in _bands(-M, M, 1):
        a = _interval_starts(np.arange(lo, hi + 2, dtype=np.int64), D, mode)
        ids[lo + M:hi + M + 1] = a[:-1] % D * 2 + (np.diff(a) - L0)
    counts = np.bincount(ids, minlength=2 * D)
    present = np.flatnonzero(counts)
    remap = np.cumsum(counts > 0) - 1
    starts, lens = present // 2, present % 2
    rho = -c0 * pow(s0, -1, D) % D
    table = np.array([[_bad(_arc_counts(rho, D, L0 + x, L0 + y), kind) for y in (0, 1)]
                      for x in (0, 1)])
    cls_of = lambda n: remap[ids[n + M]]
    return table, (-rho * starts) % D, starts, lens, counts[present], cls_of, 2 * M + 1


def _separable_census(ctx, M, mode, kind, keep_points, slope):
    """(count, window indices or None, counters) from residue classes.

    The window's values n in [-M, M] fall into classes c, each of weight
    w_c values, such that the multiplicity of image (n, m) is a table
    entry, table[l_c, l_c', (Y_c + X_c') mod modulus] for the classes c
    of n and c' of m.  The census is the sum of w_c*w_c' over the pairs
    whose entry is a collision or a hole; point lists read the classes of
    each window row.  Pythagorean and cardinal angles (D = q^2) take the
    residue histogram, other rational slopes the interval types; either
    returns the table, Y, X, l and w per class, the class of each window
    value, and how many residues or values it classified.
    """
    classes, s0, c0, modulus = slope
    table, Y, X, lens, weights, cls_of, scanned = classes(s0, c0, modulus, M, mode, kind)

    def bad(rows, cols):
        return table[lens[rows, None], lens[None, cols], (Y[rows, None] + X[None, cols]) % modulus]

    count = 0
    for lo, hi in _bands(0, len(weights) - 1, len(weights)):
        rows = slice(lo, hi + 1)
        count += int(weights[rows] @ (bad(rows, slice(None)) @ weights))
    counters = dict(scanned_pts=scanned, redecided_pts=0)
    if not keep_points:
        return count, None, counters
    cols = cls_of(np.arange(-M, M + 1, dtype=np.int64))
    parts = []
    for lo, hi in _bands(-M, M, 2 * M + 1):
        n, m = np.nonzero(bad(cls_of(np.arange(lo, hi + 1, dtype=np.int64)), cols))
        parts.append(_window_index(n + lo, m - M, M))
    return count, np.concatenate(parts), counters


def collision_census(
    ctx: AngleContext,
    M: int,
    mode: RoundingMode = RoundingMode.FLOOR,
    *,
    oracle: bool = False,
    keep_points: bool = False,
    count_pairs: bool = False,
    threads: int = 1,
    oracle_cap: int = DEFAULT_ORACLE_CAP,
) -> CensusReport:
    return _census(ctx, M, mode, CensusKind.COLLISIONS, oracle, keep_points,
                   count_pairs, threads, oracle_cap)


def hole_census(
    ctx: AngleContext,
    M: int,
    mode: RoundingMode = RoundingMode.FLOOR,
    *,
    oracle: bool = False,
    keep_points: bool = False,
    threads: int = 1,
    oracle_cap: int = DEFAULT_ORACLE_CAP,
) -> CensusReport:
    return _census(ctx, M, mode, CensusKind.HOLES, oracle, keep_points,
                   False, threads, oracle_cap)


def _census(ctx, M, mode, kind, oracle, keep_points, count_pairs, threads, oracle_cap):
    # ROUND is FLOOR of the forms shifted by 1/2, so the grid's pairs and
    # counting identity, and the separable route's residue classes, hold
    # for it; TRUNC is not a translate of FLOOR, and its collisions can
    # have more than two preimages.
    if M < 0:
        raise ValueError(f"window M={M} is negative")
    if oracle or mode is RoundingMode.TRUNC:
        return brute_force_census(
            ctx, M, mode, kind, cap=oracle_cap, keep_points=keep_points,
            threads=threads, count_pairs=count_pairs,
        )
    start = time.perf_counter()
    slope = _rational_slope(ctx)
    # a residue table larger than the window costs more to build than the
    # grid's images of the window
    if slope is not None and slope[-1] <= min(_TABLE_MAX, (2 * M + 1) ** 2):
        method = Method.SEPARABLE
        count, idx, counters = _separable_census(ctx, M, mode, kind, keep_points, slope)
    else:
        method = Method.CHARACTERIZATION
        count, idx, counters = _grid_census(ctx, M, mode, kind, keep_points, threads)
    return CensusReport(
        angle=angle_text(ctx),
        mode=mode,
        M=M,
        kind=kind,
        count=count,
        points=_sorted_points(idx, M) if keep_points else None,
        method=method,
        elapsed_ms=(time.perf_counter() - start) * 1000,
        pair_count=count if count_pairs else None,
        **counters,
    )


# --------------------------------------------------------------------------
# Brute-force oracle
# --------------------------------------------------------------------------

def brute_force_census(
    ctx: AngleContext,
    M: int,
    mode: RoundingMode,
    kind: CensusKind,
    *,
    cap: int | None = DEFAULT_ORACLE_CAP,
    keep_points: bool = False,
    count_pairs: bool = False,
    threads: int = 1,
) -> CensusReport:
    """Independent oracle: enumerate the map, histogram the images."""
    if M < 0:
        raise ValueError(f"window M={M} is negative")
    if cap is not None and M > cap:
        raise CapExceeded(f"brute-force window M={M} exceeds the cap {cap}")
    start = time.perf_counter()
    counts, redecided = _image_histogram(ctx, M, mode, threads)
    pair_count = None
    if kind is CensusKind.COLLISIONS:
        mask = counts >= 2
        if count_pairs:  # a trunc image can have more than two preimages
            c = counts[mask]
            pair_count = int((c * (c - 1) // 2).sum())
    else:
        mask = counts == 0
    idx = np.nonzero(mask)[0]
    elapsed = (time.perf_counter() - start) * 1000
    return CensusReport(
        angle=angle_text(ctx),
        mode=mode,
        M=M,
        kind=kind,
        count=int(idx.size),
        points=_sorted_points(idx, M) if keep_points else None,
        method=Method.BRUTE_FORCE,
        elapsed_ms=elapsed,
        pair_count=pair_count,
        scanned_pts=(2 * _domain_radius(M) + 1) ** 2,
        redecided_pts=redecided,
    )


def _image_histogram(ctx, M, mode, threads):
    """(histogram of the window's images, flagged points re-decided)."""
    R = _domain_radius(M)
    I, redecided = _square_images(image_forms(ctx, mode, max_abs=R), mode, R, M, threads)
    return np.bincount(I)[:-1], redecided


def collision_preimages(
    ctx: AngleContext, M: int, mode: RoundingMode = RoundingMode.FLOOR
) -> dict[tuple[int, int], list[tuple[int, int]]]:
    """Brute-force map image -> list of preimages, for images inside the
    window with multiplicity >= 2 (oracle-side diagnostics), in the
    domain's (b, a) order."""
    R = _domain_radius(M)
    I, _ = _square_images(image_forms(ctx, mode, max_abs=R), mode, R, M)
    counts = np.bincount(I)
    counts[-1] = 0  # the sink
    hot = np.flatnonzero(counts[I] >= 2)  # preimages' window indices at R
    keys = np.unique(I[hot])
    point = dict(zip(keys.tolist(), _sorted_points(keys, M)))
    out: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for i, pre in zip(I[hot].tolist(), _sorted_points(hot, R)):
        out.setdefault(point[i], []).append(pre)
    return out


# --------------------------------------------------------------------------
# Growth fitting
# --------------------------------------------------------------------------

def growth_fit(
    ctx: AngleContext,
    Ms: list[int],
    mode: RoundingMode = RoundingMode.FLOOR,
    kind: CensusKind = CensusKind.COLLISIONS,
    *,
    oracle: bool = False,
    threads: int = 1,
    oracle_cap: int | None = None,
) -> GrowthFit:
    """Least-squares slope of log(count) against log(M).

    Explicitly requested windows configure the brute-force cap, so trunc
    and oracle fits work beyond the default oracle cap; the cap matters
    only for those, since floor and round fits run the uncapped
    separable route or grid."""
    if len(Ms) < 3:
        raise ValueError("need at least three window sizes")
    if sorted(Ms) != list(Ms) or len(set(Ms)) != len(Ms):
        raise ValueError("window sizes must be strictly increasing")
    if Ms[0] < 1:
        raise ValueError("window sizes must be positive: log M fits need M >= 1")
    run = collision_census if kind is CensusKind.COLLISIONS else hole_census
    cap = oracle_cap if oracle_cap is not None else max(Ms)
    counts = [
        run(ctx, M, mode, oracle=oracle, threads=threads, oracle_cap=cap).count
        for M in Ms
    ]
    if any(c == 0 for c in counts):
        raise DegenerateCounts(f"zero counts in {dict(zip(Ms, counts))}")
    lx = np.log(np.asarray(Ms, dtype=float))
    ly = np.log(np.asarray(counts, dtype=float))
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_tot = float(((ly - ly.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0 else 1.0 - float((resid**2).sum()) / ss_tot
    return GrowthFit(list(Ms), counts, float(slope), r2)
