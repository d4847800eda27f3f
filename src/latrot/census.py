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
* brute force (trunc, and any rounding mode under oracle): histogram
  the images and read off multiplicities.  Truncation is not a
  translate of floor, and its collisions can have more than two
  preimages, so trunc takes this route; it images one quadrant of the
  bounding square and reads the other three off the quarter turn,
  which commutes with truncation (_image_histogram).  The oracle images
  the whole square, so it checks trunc too.

The characterization clips its domain to the rotated square that holds
every preimage of the window, half the area of the bounding square it
sits in, and images only the rows b >= 0 of it: the forms are linear,
so with floor(-x) = -floor(x) - 1 + [x integer] the rows b < 0 follow
from the point symmetry

    image(-p) = -image(p) - (d, d) + t(p),

d = 1 under floor and 0 under round (whose forms carry the 1/2, so
L(-p) = 1 - L(p)), with the tie bit t(p) in {0, 1}^2 set in each
coordinate whose form value is an exact integer.  Row 0 is its own
mirror, so its points and right pairs count once.  The oracle scans
the whole bounding square, so it stays independent of that clip and
of both symmetries.

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
    _SQRT_SAFE, _band, _bands, _domain_radius, _exact_images, _grid_index, _mod_inplace,
    _outside, _run_bands, _sorted_points, _square_images, _window_index, image_forms,
    vfloor_sqrt_multiple,
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
    b*sin, a*sin + b*cos) lies in [-M-3, M+3]^2; an empty span is
    (R + 1, -R - 1).

    A superset filter, not a floor decision.  The census needs every
    preimage of the window in its row's span, both points of each
    colliding pair among them; the box holds more.  A point whose image
    lies in [-M-1, M+1]^2, a unit past the window, has A(a, b) in
    [-M-1, M+2)^2 under floor; under round the image is floor(A + 1/2),
    which puts A(a, b) in [-M-3/2, M+3/2)^2.  Either way the box leaves
    at least one unit on every side.  The spans solve each coordinate
    a*k + off in [-M-3, M+3] for a, with float cos and sin (k is one of
    them, off the other's term in b).  Over |a|, |b| <= R the float
    coordinate is off from the exact one by at most R*(|cos - cos_f| +
    |sin - sin_f|) plus the rounding of off, far below that unit for any
    window a scan can hold (the float prefilter's much finer slack
    assumes the same accuracy of cos_f and sin_f), so every such a
    solves it.  Each bound on a, a quotient by k, is rounded outward and
    widened by one column, which covers the rounding of the quotient.
    A k that is 0 in float bounds the row instead.

    The box is symmetric and float negation is exact, so row -b's span
    is row b's negated, lo == -hi[::-1], as the grid's mirrored rows
    need.
    """
    b = np.arange(-R, R + 1, dtype=np.float64)
    c, s = float(ctx.cos), float(ctx.sin)
    lo = np.full(b.size, -R, dtype=np.float64)
    hi = np.full(b.size, R, dtype=np.float64)
    L, H = -M - 3, M + 3
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
    """(count, window indices or None, colliding pairs, counters) of
    collision images or holes; the counters are the report's scanned_pts
    and redecided_pts.

    One banded pass images the rows b >= 0 of the domain under mode once
    per point, and reads the rows b < 0 off the point symmetry: the
    forms are linear, so with floor(-x) = -floor(x) - 1 + [x integer],

        image(-p) = -image(p) - (d, d) + t(p),

    with d = 1 under floor and d = 0 under round (whose forms carry the
    1/2, so L(-p) = 1 - L(p)), and t(p) in {0, 1}^2 set in each
    coordinate whose form value at p is an integer, a tie
    (_exact_images finds them).  The pass tallies, over the window W,
    the colliding right and up neighbour pairs and N, the points imaged
    into it.  Row 0 is its own mirror: its points and right pairs, and
    the up pairs anchored in rows -1 and 0, count once, directly (row -1
    is read as the first band's lower halo).  The rows b >= 1 count
    directly and mirrored: a point or right pair in row b mirrors to one
    in row -b, an up pair anchored in row b to one anchored in row -b-1.
    The mirrored tally reads the images moved by their tie bits,
    image(p) - t(p), whose mirrors are the images of -p: a mirrored pair
    collides iff its moved images agree and lie in W' = -W - (d, d).

    Each band reads a one-row halo above it, so every pair anchored in
    the band is read there; it scans only the columns of its rows'
    spans, halo rows included (_row_spans: each row's span is its
    mirror's negated, so it holds the mirrors' points too), and a band
    whose spans are all empty is skipped: every preimage of the window
    lies inside its row's span.  No image has more than two preimages
    and the two of a collision are unit neighbours, so the collisions
    are the pairs, and summing the multiplicities over the window,
    (2M+1)^2 - holes + collisions = N.  Hole points are the window
    entries that no image of the bands' own rows, and no mirror of one
    from the rows b >= 1, marks.  Each band re-decides the points its
    float prefilter flags, halo rows included, and reads exact images.
    """
    R = _domain_radius(M)
    W = 2 * M + 1
    sink = W * W
    d = int(mode is RoundingMode.FLOOR)
    forms = image_forms(ctx, mode, max_abs=R)
    lo, hi = _row_spans(ctx, M, R)
    collisions = kind is CensusKind.COLLISIONS
    # the window cells that the rows' images mark, and those that the
    # mirrored rows' moved images mark, each with its sink: cell k of the
    # latter is imaged at cell sink - 1 - k
    marks = [np.zeros(sink + 1, dtype=bool) for _ in range(2)] if keep_points and not collisions \
        else None

    def worker(span):
        blo, bhi = span
        first = int(blo == 0)
        r0, top = blo - first, min(bhi + 1, R)  # the rows read
        c0, c1 = lo[r0 + R:top + R + 1].min(), hi[r0 + R:top + R + 1].max()
        if c0 > c1:
            return (0, 0, 0, 0), []
        A, B = _band(np.arange(c0, c1 + 1, dtype=np.int64), r0, top)
        X, Y, redecided, (t1, t2) = _exact_images(forms, A, B, mode, ties=True)
        n = X.shape[1]
        own = slice(first, first + bhi - blo + 1)  # the band's own rows, locally
        m = 2 * first  # the local row of b = 1: the rows from m on are mirrored
        t1, t2 = t1[t1 >= m * n], t2[t2 >= m * n]

        def equal(C):
            """C[a] == C[b] over the right pairs (a, b) of the own rows,
            flat, and over the up pairs."""
            flat = C[own].reshape(-1)
            right = flat[:-1] == flat[1:]
            right[n - 1::n] = False  # a row's last point and the next row's first
            return right, C[:-1] == C[1:]

        def tally(eq, inside, r, mirrored):
            """(pairs, [their window cells]) of the right pairs of the own
            rows from local row r on and of the up pairs anchored there
            that collide in the window, by their codes' equality eq and
            the window mask inside of the (moved) images."""
            rr = max(r, own.start)
            right = eq[0][(rr - own.start) * n:] & inside[rr:own.stop].reshape(-1)[:-1]
            up = eq[1][r:] & inside[r:-1]
            count = np.count_nonzero(right) + np.count_nonzero(up)
            if not (keep_points and collisions):
                return count, []
            at = np.concatenate([np.flatnonzero(right) + rr * n, np.flatnonzero(up) + r * n])
            I = _grid_index(X.reshape(-1)[at], Y.reshape(-1)[at], W)
            return count, [sink - 1 - I if mirrored else I]

        # the window is 0 <= x, y < W; C is equal on neighbours exactly when
        # their images are, which differ by at most 1 in each coordinate
        X += M
        Y += M
        inside = ~_outside(X, Y, W)
        C = Y * 3
        C += X
        eq = equal(C)
        pairs, parts = tally(eq, inside, 0, False)
        n_imaged = np.count_nonzero(inside[own])
        if marks is not None:
            marks[0][_grid_index(X[own], Y[own], W)] = True
        # the mirrored rows: image(-p) = -(image(p) - t(p)) - (d, d) lies in
        # W iff image(p) - t(p) + (d, d) does
        if t1.size or t2.size:
            X.reshape(-1)[t1] -= 1
            Y.reshape(-1)[t2] -= 1
            C.reshape(-1)[t1] -= 1
            C.reshape(-1)[t2] -= 3
            eq = equal(C)
        X += d
        Y += d
        inside = ~_outside(X, Y, W)
        more, parts_m = tally(eq, inside, m, True)
        pairs += more
        n_imaged += np.count_nonzero(inside[m:own.stop])
        if marks is not None:
            marks[1][_grid_index(X[m:own.stop], Y[m:own.stop], W)] = True
        return (X.size, redecided, pairs, n_imaged), parts + parts_m

    bands = _run_bands(0, R, 2 * R + 1, worker, threads)
    scanned, redecided, pairs, n_imaged = (int(sum(v)) for v in zip(*(t for t, _ in bands)))
    counters = dict(scanned_pts=scanned, redecided_pts=redecided)
    count = pairs if collisions else W * W - n_imaged + pairs
    if not keep_points:
        return count, None, pairs, counters
    if collisions:
        return count, np.concatenate([p for _, parts in bands for p in parts]), pairs, counters
    return count, np.flatnonzero(~(marks[0][:-1] | marks[1][-2::-1])), pairs, counters


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


def _separable_census(M, mode, kind, keep_points, slope):
    """(count, window indices or None, colliding pairs, counters) from
    residue classes; no image has more than two preimages, so a collision
    census counts its pairs.

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
        return count, None, count, counters
    cols = cls_of(np.arange(-M, M + 1, dtype=np.int64))
    parts = []
    for lo, hi in _bands(-M, M, 2 * M + 1):
        n, m = np.nonzero(bad(cls_of(np.arange(lo, hi + 1, dtype=np.int64)), cols))
        parts.append(_window_index(n + lo, m - M, M))
    return count, np.concatenate(parts), count, counters


def collision_census(
    ctx: AngleContext,
    M: int,
    mode: RoundingMode = RoundingMode.FLOOR,
    *,
    oracle: bool = False,
    keep_points: bool = False,
    threads: int = 1,
    oracle_cap: int = DEFAULT_ORACLE_CAP,
) -> CensusReport:
    return _census(ctx, M, mode, CensusKind.COLLISIONS, oracle, keep_points, threads, oracle_cap)


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
    return _census(ctx, M, mode, CensusKind.HOLES, oracle, keep_points, threads, oracle_cap)


def brute_force_census(
    ctx: AngleContext,
    M: int,
    mode: RoundingMode,
    kind: CensusKind,
    *,
    cap: int | None = DEFAULT_ORACLE_CAP,
    keep_points: bool = False,
    threads: int = 1,
) -> CensusReport:
    """Independent oracle: enumerate the map, histogram the images."""
    return _census(ctx, M, mode, kind, True, keep_points, threads, cap)


def _census(ctx, M, mode, kind, oracle, keep_points, threads, oracle_cap):
    """The report of one census, by the route the angle and mode pick or,
    under oracle, by brute force; a collision report carries its colliding
    pairs, a hole report None."""
    if M < 0:
        raise ValueError(f"window M={M} is negative")
    # ROUND is FLOOR of the forms shifted by 1/2, so the grid's pairs and
    # counting identity, and the separable route's residue classes, hold
    # for it; TRUNC is not a translate of FLOOR, and its collisions can
    # have more than two preimages: it runs the histogram, over one
    # quadrant and its quarter turns unless the oracle asks for all.
    brute = oracle or mode is RoundingMode.TRUNC
    if brute and oracle_cap is not None and M > oracle_cap:
        raise CapExceeded(f"brute-force window M={M} exceeds the cap {oracle_cap}")
    start = time.perf_counter()
    # the oracle reads no slope; a residue table larger than the window
    # costs more to build than the grid's images of the window
    slope = None if brute else _rational_slope(ctx)
    if brute:
        method = Method.BRUTE_FORCE
        count, idx, pairs, counters = _histogram_census(ctx, M, mode, kind, keep_points,
                                                        threads, quarter=not oracle)
    elif slope is not None and slope[-1] <= min(_TABLE_MAX, (2 * M + 1) ** 2):
        method = Method.SEPARABLE
        count, idx, pairs, counters = _separable_census(M, mode, kind, keep_points, slope)
    else:
        method = Method.CHARACTERIZATION
        count, idx, pairs, counters = _grid_census(ctx, M, mode, kind, keep_points, threads)
    return CensusReport(
        angle=angle_text(ctx),
        mode=mode,
        M=M,
        kind=kind,
        count=count,
        points=_sorted_points(idx, M) if keep_points else None,
        method=method,
        elapsed_ms=(time.perf_counter() - start) * 1000,
        pair_count=pairs if kind is CensusKind.COLLISIONS else None,
        **counters,
    )


# --------------------------------------------------------------------------
# Brute-force oracle
# --------------------------------------------------------------------------

def _histogram_census(ctx, M, mode, kind, keep_points, threads, quarter):
    """(count, window indices or None, colliding pairs, counters) from the
    histogram of the window's images (_image_histogram).  A trunc image
    can have more than two preimages, so the pairs sum C(c, 2) over the
    images counted."""
    counts, redecided, scanned = _image_histogram(ctx, M, mode, threads, quarter)
    mask = _bad(counts, kind)
    c = counts[mask]
    counters = dict(scanned_pts=scanned, redecided_pts=redecided)
    idx = np.flatnonzero(mask) if keep_points else None
    return int(c.size), idx, int((c * (c - 1) // 2).sum()), counters


def _image_histogram(ctx, M, mode, threads, quarter=False):
    """(histogram of the window's images, flagged points re-decided,
    points imaged) over the whole bounding square |a|,|b| <= R.

    With quarter (trunc only) it images the quadrant 1 <= a <= R,
    0 <= b <= R alone, R(R+1) points, and reads the other three off the
    quarter turn s(x, y) = (-y, x): the rotation commutes with s and
    trunc(-x) = -trunc(x), so T(s(p)) = s(T(p)) exactly, and the square,
    the window and T(0) = 0 are s-invariant.  The quadrant's turns by
    0, 1, 2 and 3 quarters and the origin tile the square, so the
    histogram is the quadrant's plus its turns, plus the origin once."""
    R = _domain_radius(M)
    forms = image_forms(ctx, mode, max_abs=R)
    if not quarter:
        I, redecided = _square_images(forms, mode, R, M, threads)
        return np.bincount(I)[:-1], redecided, I.size - 1
    I, redecided = _square_images(forms, mode, R, M, threads, corner=(1, 0))
    W = 2 * M + 1
    # H[y + M, x + M]; int32 holds every count (a trunc image's
    # preimages lie in one rotated 2x2 box) and halves the bytes the
    # turns move
    H = np.bincount(I)[:-1].astype(np.int32).reshape(W, W)
    H += H[::-1, ::-1]  # the half turn, p -> -p
    H += np.rot90(H)  # a quarter turn; H is now invariant under the half
    H[M, M] += 1
    return H.reshape(-1), redecided, I.size - 1


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
    # sorted, not np.unique: numpy 2's hashing unique is ~20x slower here
    keys = np.sort(I[hot])
    keys = keys[np.diff(keys, prepend=-1) > 0]
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
    cap = oracle_cap if oracle_cap is not None else max(Ms)
    counts = [_census(ctx, M, mode, kind, oracle, False, threads, cap).count for M in Ms]
    if any(c == 0 for c in counts):
        raise DegenerateCounts(f"zero counts in {dict(zip(Ms, counts))}")
    lx = np.log(np.asarray(Ms, dtype=float))
    ly = np.log(np.asarray(counts, dtype=float))
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_tot = float(((ly - ly.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0 else 1.0 - float((resid**2).sum()) / ss_tot
    return GrowthFit(list(Ms), counts, float(slope), r2)
