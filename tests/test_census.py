import math
import sys
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from latrot import kernels
from latrot.angle import context_from_text
from latrot.census import (
    CensusKind,
    Method,
    brute_force_census,
    collision_census,
    collision_preimages,
    collision_site_exact,
    growth_fit,
    hole_census,
    hole_test_exact,
    residue_histogram,
    _grid_census,
    _row_spans,
    _sorted_points,
)
from latrot import census
from latrot.errors import CapExceeded, DegenerateCounts, UndecidableAtPrecision
from latrot.exactnum import compare, quad, rational
from latrot.kernels import _band, _domain_radius, _exact_images, image_forms
from latrot.orbits import detect_cycle
from latrot.rotation import RoundingMode, discrete_rotate

FLOAT_PI4 = "rad:~" + repr(math.pi / 4)
FLOAT_ATAN_3_4 = "rad:~" + repr(math.atan2(3, 4))
CROSS_FIELD = "quad:sin=sqrt(3)/3,cos=sqrt(6)/3"
BIG_TRIPLE = "pyth:39999,400,40001"
EXACT_ANGLES = ["pi/4", "pi/6", "pi/3", "pyth:3,4,5", "pyth:5,12,13"]
QUADRANT_ANGLES = ["pi*3/4", "pi*7/6", "pi*7/4", "pyth:-3,4,5", "pyth:3,-4,5"]


def grid(ctx, M, mode, kind, threads=1):
    """(count, points) read off the image grid, whatever the angle's route."""
    count, idx, _, _ = _grid_census(ctx, M, mode, kind, True, threads)
    return count, _sorted_points(idx, M)


def test_cardinal_censuses_are_zero():
    for text in ["0", "pi/2", "pi", "pi*3/2"]:
        ctx = context_from_text(text)
        for M in (0, 10):
            assert collision_census(ctx, M).count == 0
            assert hole_census(ctx, M).count == 0
            assert brute_force_census(
                ctx, M, RoundingMode.FLOOR, CensusKind.COLLISIONS
            ).count == 0


def test_pi_quarter_collision_contains_origin():
    ctx = context_from_text("pi/4")
    rep = collision_census(ctx, 2, keep_points=True)
    assert (0, 0) in rep.points
    assert discrete_rotate(ctx, (0, 0)) == discrete_rotate(ctx, (1, 0)) == (0, 0)


@pytest.mark.parametrize("text", EXACT_ANGLES + QUADRANT_ANGLES)
def test_characterization_equals_oracle(text):
    ctx = context_from_text(text)
    for M in (3, 17):
        c = collision_census(ctx, M, keep_points=True)
        co = brute_force_census(
            ctx, M, RoundingMode.FLOOR, CensusKind.COLLISIONS, keep_points=True
        )
        assert (c.count, c.points) == (co.count, co.points)
        h = hole_census(ctx, M, keep_points=True)
        ho = brute_force_census(
            ctx, M, RoundingMode.FLOOR, CensusKind.HOLES, keep_points=True
        )
        assert (h.count, h.points) == (ho.count, ho.points)


def test_characterization_equals_oracle_numeric():
    # float pi/4 and float atan2(3, 4) flag whole diagonals and lattices
    # for exact re-decision
    for text in ["rad:~1.0", "quad:sin=sqrt(3)/3,cos=sqrt(6)/3", FLOAT_PI4, FLOAT_ATAN_3_4]:
        ctx = context_from_text(text)
        for M in (5, 20):
            assert (
                collision_census(ctx, M).count
                == brute_force_census(
                    ctx, M, RoundingMode.FLOOR, CensusKind.COLLISIONS
                ).count
            )
            assert (
                hole_census(ctx, M).count
                == brute_force_census(
                    ctx, M, RoundingMode.FLOOR, CensusKind.HOLES
                ).count
            )


def test_colliding_pairs_are_unit_neighbors():
    for text in ["pi/4", "pyth:3,4,5", "rad:~1.0"]:
        ctx = context_from_text(text)
        groups = collision_preimages(ctx, 12)
        assert groups  # collisions exist away from cardinal angles
        for image, pres in groups.items():
            assert len(pres) == 2
            (a1, b1), (a2, b2) = pres
            assert (a1 - a2) ** 2 + (b1 - b2) ** 2 == 1


def test_hole_corner_test_counterexample():
    # The containing cell's corners all miss (1,0), yet (2,0) maps there:
    # a hole test restricted to those four corners would be wrong.
    ctx = context_from_text("pyth:5,12,13")
    assert discrete_rotate(ctx, (2, 0)) == (1, 0)
    assert not hole_test_exact(ctx, 1, 0)


def test_hole_exact_test_matches_census():
    ctx = context_from_text("pyth:3,4,5")
    rep = hole_census(ctx, 8, keep_points=True)
    holes = set(rep.points)
    for n in range(-8, 9):
        for m in range(-8, 9):
            assert hole_test_exact(ctx, n, m) == ((n, m) in holes)


def test_hole_closed_form_systems_match():
    # Per-quadrant double inequalities on the hole cell, cross-checked
    # against the census (one angle per quadrant).
    cases = {
        "pyth:3,4,5": (
            (rational(1, 5), rational(3, 5)),  # X in [1-cos, sin)
            (rational(-2, 5), rational(0)),  # Y in [1-sin-cos, 0)
        ),
        "pyth:-4,3,5": (  # quadrant 4 (sin<0<cos): X in [1+sin-cos, 0), Y in [1-cos, -sin)
            (rational(-2, 5), rational(0)),
            (rational(2, 5), rational(4, 5)),
        ),
    }
    M = 12
    for text, ((lox, hix), (loy, hiy)) in cases.items():
        ctx = context_from_text(text)
        holes = set(hole_census(ctx, M, keep_points=True).points)
        found = set()
        R = 2 * M
        for a in range(-R, R + 1):
            for b in range(-R, R + 1):
                x = ctx.cos * a - ctx.sin * b
                y = ctx.sin * a + ctx.cos * b
                # n with X = x - n in [lox, hix): n in (x - hix, x - lox]
                from latrot.exactnum import floor_exact

                n = floor_exact(x - lox)
                m = floor_exact(y - loy)
                okx = compare(x - n, lox) >= 0 and compare(x - n, hix) < 0
                oky = compare(y - m, loy) >= 0 and compare(y - m, hiy) < 0
                if okx and oky and abs(n) <= M and abs(m) <= M:
                    found.add((n, m))
        assert found == holes, text


def test_monotone_in_window():
    ctx = context_from_text("pyth:3,4,5")
    counts = [collision_census(ctx, M).count for M in (4, 8, 16, 24)]
    assert counts == sorted(counts)
    counts = [hole_census(ctx, M).count for M in (4, 8, 16, 24)]
    assert counts == sorted(counts)


def test_pair_count_diagnostics():
    # under floor and round every collision image has two preimages, so
    # each route's pair count is its count; hole reports carry none
    for text, method in (("pi/4", Method.SEPARABLE), ("pi/6", Method.CHARACTERIZATION)):
        ctx = context_from_text(text)
        for mode in (RoundingMode.FLOOR, RoundingMode.ROUND):
            for oracle in (False, True):
                rep = collision_census(ctx, 16, mode, oracle=oracle)
                assert rep.method is (Method.BRUTE_FORCE if oracle else method)
                assert rep.pair_count == rep.count > 0, (text, mode, oracle)
        for mode in RoundingMode:
            for oracle in (False, True):
                assert hole_census(ctx, 16, mode, oracle=oracle).pair_count is None


@pytest.mark.parametrize("text", ["pi/4", "pi/6", "pyth:3,4,5", "rad:~1.0"])
def test_trunc_pair_count_sums_preimage_pairs(text):
    # a trunc image can have more than two preimages: the pair count is
    # the sum of C(k, 2) over the window's images, tallied point by point
    ctx = context_from_text(text)
    for M in (0, 3, 8):
        R = _domain_radius(M)
        images = (discrete_rotate(ctx, (a, b), RoundingMode.TRUNC)
                  for a in range(-R, R + 1) for b in range(-R, R + 1))
        tally = Counter(p for p in images if max(map(abs, p)) <= M)
        rep = collision_census(ctx, M, RoundingMode.TRUNC)
        assert rep.pair_count == sum(k * (k - 1) // 2 for k in tally.values()), M
        assert rep.count == sum(k >= 2 for k in tally.values()) < rep.pair_count, M


def test_census_route_follows_the_mode():
    # round is a translate of floor: rational slopes count residue classes
    # and other angles read the image grid; trunc is not, and runs the
    # histogram of one quadrant and its quarter turns, which the oracle's
    # histogram of the whole square checks
    ctx = context_from_text("pyth:3,4,5")
    rep = collision_census(ctx, 8, RoundingMode.ROUND, keep_points=True)
    assert rep.method is Method.SEPARABLE
    assert hole_census(context_from_text("pi/6"), 8, RoundingMode.ROUND).method \
        is Method.CHARACTERIZATION
    oracle = collision_census(ctx, 8, RoundingMode.ROUND, oracle=True, keep_points=True)
    assert oracle.method is Method.BRUTE_FORCE
    assert (rep.count, rep.points) == (oracle.count, oracle.points)
    assert grid(ctx, 8, RoundingMode.ROUND, CensusKind.COLLISIONS) == (oracle.count, oracle.points)
    # rounding to the nearest node is bijective for twin triples (a leg
    # one less than the hypotenuse, as 3-4-5), not for every rational
    # angle: 8-15-17 at M=48 has 2212 collisions and 2212 holes
    assert rep.count == 0
    assert grid(ctx, 8, RoundingMode.ROUND, CensusKind.HOLES) == (0, [])
    R = _domain_radius(8)
    for run in (collision_census, hole_census):
        trunc = run(ctx, 8, RoundingMode.TRUNC, keep_points=True)
        oracle = run(ctx, 8, RoundingMode.TRUNC, oracle=True, keep_points=True)
        assert trunc.method is oracle.method is Method.BRUTE_FORCE
        assert (trunc.scanned_pts, oracle.scanned_pts) == (R * (R + 1), (2 * R + 1) ** 2)
        assert (trunc.count, trunc.points, trunc.pair_count) == (
            oracle.count, oracle.points, oracle.pair_count)
        assert trunc.count > 0


def test_oracle_cap():
    ctx = context_from_text("pi/4")
    with pytest.raises(CapExceeded):
        brute_force_census(ctx, 600, RoundingMode.FLOOR, CensusKind.HOLES)
    rep = brute_force_census(
        ctx, 600, RoundingMode.FLOOR, CensusKind.HOLES, cap=1024
    )
    assert rep.count > 0


def test_growth_fit_exponents_small():
    ctx = context_from_text("pyth:3,4,5")
    fit = growth_fit(ctx, [16, 32, 64, 128], kind=CensusKind.HOLES)
    assert 1.7 <= fit.exponent <= 2.2
    assert fit.r_squared > 0.99
    with pytest.raises(DegenerateCounts):
        growth_fit(context_from_text("pi/2"), [16, 32, 64])
    with pytest.raises(ValueError):
        growth_fit(ctx, [16, 32])
    for Ms in ([0, 2, 3], [-1, 2, 3]):
        with pytest.raises(ValueError, match="positive"):
            growth_fit(ctx, Ms)


def test_negative_windows_are_rejected():
    # W = 2M + 1 = -1 is no window; the grid's identity would read W^2 = 1
    ctx = context_from_text("pi/6")
    for run in (collision_census, hole_census):
        with pytest.raises(ValueError, match="negative"):
            run(ctx, -1)
    for kind in CensusKind:
        for mode in (RoundingMode.FLOOR, RoundingMode.TRUNC):
            with pytest.raises(ValueError, match="negative"):
                brute_force_census(ctx, -1, mode, kind, cap=None)


def test_threads_do_not_change_results(monkeypatch):
    # One-row bands, so every up pair straddles a band edge, and
    # angles whose float prefilter flags points for exact re-decision,
    # which runs in the pool threads; a short switch interval interleaves
    # their evaluations of the shared sin/cos nodes; pi/6 has a tie on
    # every other row of the mirrored half.
    monkeypatch.setattr(kernels, "_BAND_POINTS", 1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for text in ["pyth:5,12,13", "rad:~1.0", FLOAT_PI4, CROSS_FIELD, "pi/6"]:
            ctx = context_from_text(text)
            for mode in RoundingMode:
                for run, kind in (
                    (collision_census, CensusKind.COLLISIONS),
                    (hole_census, CensusKind.HOLES),
                ):
                    a = run(ctx, 20, mode, keep_points=True, threads=1)
                    b = run(ctx, 20, mode, keep_points=True, threads=4)
                    o = brute_force_census(ctx, 20, mode, kind, keep_points=True, threads=4)
                    assert (a.count, a.points, a.pair_count) == (b.count, b.points, b.pair_count) \
                        == (o.count, o.points, o.pair_count), (text, mode)
    finally:
        sys.setswitchinterval(interval)


def test_points_sorted_by_y_then_x():
    ctx = context_from_text("pi/4")
    pts = hole_census(ctx, 10, keep_points=True).points
    assert pts == sorted(pts, key=lambda p: (p[1], p[0]))


def test_kernels_match_exact_layer():
    # Census and oracle share one kernel; this checks it against the
    # scalar exact layer, on flat samples and on 2-D band-shaped views.
    rng = np.random.default_rng(11)
    cols = np.arange(-200, 201, 37, dtype=np.int64)
    rows = np.arange(-190, 201, 41, dtype=np.int64)
    bandA, bandB = np.broadcast_arrays(cols[None, :], rows[:, None])
    # sqrt(3)/3 lies over another field than the sqrt(2) and cross-field forms
    bounds = (rational(20000, 40001), quad(0, 1, 3, 3))
    # floor(Q*tden*sqrt(d)) at tden near 1e5 and |x|, |y| <= 1000 is past
    # the square-root guard of the pi/4 and pi/6 forms
    guard = rational(50000, 100003)
    cases = [
        (text, 200, bounds)
        for text in EXACT_ANGLES + ["rad:~1.0", QUADRANT_ANGLES[1], CROSS_FIELD, BIG_TRIPLE]
    ] + [(text, 1000, (guard,)) for text in ("pi/4", "pi/6")]
    for text, R, bnds in cases:
        ctx = context_from_text(text)
        k1, k2 = image_forms(ctx, RoundingMode.FLOOR, max_abs=R)
        flat = (rng.integers(-R, R + 1, size=150), rng.integers(-R, R + 1, size=150))
        for X, Y in (flat, (bandA, bandB)):
            F1, u1, _ = k1.floor(X, Y)
            F2, u2, _ = k2.floor(X, Y)
            lts = [k1.frac_lt(X, Y, t) for t in bnds]
            assert F1.shape == F2.shape == X.shape
            assert all(L.shape == X.shape for L, _ in lts)
            if text == BIG_TRIPLE:
                # one remainder decides 20000/40001 exactly at q = 40001
                assert lts[0][1] is None
            if R == 1000:
                # past the guard the float prefilter decides; it flags
                # only the points it cannot (integral values, {L} = t)
                u3 = lts[0][1]
                assert u3 is not None and np.count_nonzero(u3) < 0.01 * X.size
            for i in np.ndindex(X.shape):
                x, y = int(X[i]), int(Y[i])
                e = discrete_rotate(ctx, (x, y))
                got = (
                    F1[i] if (u1 is None or not u1[i]) else k1.exact_floor(x, y),
                    F2[i] if (u2 is None or not u2[i]) else k2.exact_floor(x, y),
                )
                assert got == e, (text, x, y)
                for t, (L, u) in zip(bnds, lts):
                    if u is None or not u[i]:
                        assert L[i] == k1.exact_frac_lt(x, y, t), (text, x, y, t)


def test_exact_frac_lt_across_fields():
    # the value lies over sqrt(6) and the bound over sqrt(3)
    ctx = context_from_text(CROSS_FIELD)
    k1, _ = image_forms(ctx, RoundingMode.FLOOR, max_abs=10)
    assert k1.exact_frac_lt(2, 0, ctx.sin) is False  # {2*sqrt(6)/3} ~ 0.633
    assert k1.exact_frac_lt(1, 0, ctx.sin) is False  # sqrt(6)/3 ~ 0.816
    assert k1.exact_frac_lt(0, -1, ctx.sin) is False  # equal: the box is half-open


def test_collision_site_exact_agrees_with_neighbors():
    for text in ["pi/4", "pyth:3,4,5", "rad:~1.0"]:
        ctx = context_from_text(text)
        for a in range(-6, 7, 3):
            for b in range(-6, 7, 2):
                image, fired = collision_site_exact(ctx, a, b)
                truth = [
                    (da, db)
                    for da, db in ((0, 1), (1, 0), (0, -1), (-1, 0))
                    if discrete_rotate(ctx, (a + da, b + db)) == image
                ]
                assert fired == truth, (text, a, b)


# every quadrant: exact, numeric (near-cardinal ones included) and cross-field
SPAN_ANGLES = [
    "pi/2", "pi", "pi*3/2", "pi/4", "pi*3/4", "pi*5/4", "pi*7/4", "pi*7/6",
    "pyth:3,4,5", "pyth:-20,21,29", "pyth:3,-4,5", "pyth:-3,-4,5",
    "rad:~1.0", "rad:~2.5", "rad:~-0.7", "rad:~-2.2",
    "rad:~0.001", "rad:~1.5707", "rad:~1.5707963", "rad:~-0.0005",
    CROSS_FIELD, "quad:sin=sqrt(3)/3,cos=-sqrt(6)/3",
    "quad:sin=-sqrt(3)/3,cos=-sqrt(6)/3", "quad:sin=-sqrt(3)/3,cos=sqrt(6)/3",
]


@settings(max_examples=200, deadline=None)
@given(text=st.sampled_from(SPAN_ANGLES + EXACT_ANGLES + [FLOAT_PI4, FLOAT_ATAN_3_4]),
       a=st.integers(-10**6, 10**6), b=st.integers(-10**6, 10**6))
def test_trunc_commutes_with_the_quarter_turn(text, a, b):
    # the trunc census images one quadrant and reads the rest off
    # T(s(p)) = s(T(p)) for s(x, y) = (-y, x): the rotation commutes with
    # s, and trunc(-x) = -trunc(x) with no tie term
    ctx = context_from_text(text)
    x, y = discrete_rotate(ctx, (a, b), RoundingMode.TRUNC)
    assert discrete_rotate(ctx, (-b, a), RoundingMode.TRUNC) == (-y, x)


@settings(max_examples=120, deadline=None)
@given(text=st.sampled_from(SPAN_ANGLES), M=st.integers(0, 40))
def test_row_spans_hold_every_needed_point(text, M):
    # a point whose exact floor or round image lies in [-M-1, M+1]^2 lies
    # in its row's span; the grid needs this for every preimage of the
    # window, both points of each colliding pair among them
    ctx = context_from_text(text)
    R = _domain_radius(M)
    A, B = _band(np.arange(-R, R + 1, dtype=np.int64), -R, R)
    lo, hi = _row_spans(ctx, M, R)
    # the grid images only the rows b >= 0 and reads each row -b off row
    # b's span, so the spans are closed under p -> -p
    full = lo <= hi
    assert (full == full[::-1]).all()
    assert (lo[full] == -hi[::-1][full]).all()
    inside = (A >= lo[B + R]) & (A <= hi[B + R])
    for mode in (RoundingMode.FLOOR, RoundingMode.ROUND):
        forms = image_forms(ctx, mode, max_abs=R)
        X, Y, _ = _exact_images(forms, A, B, mode)
        needed = (np.abs(X) <= M + 1) & (np.abs(Y) <= M + 1)
        assert not (needed & ~inside).any(), mode


@settings(max_examples=120, deadline=None)
@given(text=st.sampled_from(SPAN_ANGLES), M=st.integers(0, 40),
       mode=st.sampled_from([RoundingMode.FLOOR, RoundingMode.ROUND]))
def test_counting_identity_premise(text, M, mode):
    # the grid's hole count reads (2M+1)^2 - holes + collisions = N(M), the
    # points imaged into the window: it needs every image to have at most
    # two preimages, which the brute-force histogram checks
    ctx = context_from_text(text)
    hist, _, _ = census._image_histogram(ctx, M, mode, 1)
    assert hist.max(initial=0) <= 2
    holes = int(np.count_nonzero(hist == 0))
    collisions = int(np.count_nonzero(hist == 2))
    assert (2 * M + 1) ** 2 - holes + collisions == int(hist.sum())
    for kind, want in ((CensusKind.HOLES, holes), (CensusKind.COLLISIONS, collisions)):
        assert _grid_census(ctx, M, mode, kind, False, 1)[0] == want, kind


@pytest.mark.parametrize("band_points", [1, 300, None, 1 << 40],
                         ids=["one-row", "300-point", "default", "one-band"])
def test_band_geometry_keeps_censuses(monkeypatch, band_points):
    # one-row bands read every up pair across a band edge; one band
    # holds the whole clipped domain; the trunc route's quadrant and the
    # oracle's square split into bands of different rows
    if band_points is not None:
        monkeypatch.setattr(kernels, "_BAND_POINTS", band_points)
    # pi/2, pi/4, 20-21-29, pi/6 and pi/3 make every point, a diagonal, a
    # sublattice or an axis a tie; float pi/4 flags its diagonals
    for text in ["pi/4", "pi/2", "pyth:20,21,29", "pi*7/6", "rad:~-2.2", CROSS_FIELD,
                 "pi/6", "pi/3", FLOAT_PI4, BIG_TRIPLE]:
        ctx = context_from_text(text)
        for M in (0, 1, 2, 17, 100):
            for mode in (RoundingMode.FLOOR, RoundingMode.ROUND):
                for kind in CensusKind:
                    want = brute_force_census(ctx, M, mode, kind, keep_points=True)
                    assert grid(ctx, M, mode, kind) == (want.count, want.points), (
                        text, M, mode, kind)
            for run, kind in ((collision_census, CensusKind.COLLISIONS),
                              (hole_census, CensusKind.HOLES)):
                want = brute_force_census(ctx, M, RoundingMode.TRUNC, kind, keep_points=True)
                for threads in (1, 2):
                    got = run(ctx, M, RoundingMode.TRUNC, keep_points=True, threads=threads)
                    assert (got.count, got.points, got.pair_count) == (
                        want.count, want.points, want.pair_count), (text, M, kind, threads)


def test_characterization_scans_the_rotated_square():
    def scanned(ctx, kind):
        return _grid_census(ctx, 256, RoundingMode.FLOOR, kind, False, 1)[3]["scanned_pts"]

    # the rows b >= 0 of the rotated square, half its bounding square,
    # plus the halo rows; the rows b < 0 are read off the symmetry
    full = (2 * _domain_radius(256) + 1) ** 2
    for text in ("pi/4", "pi/6", "rad:~1.0"):
        assert scanned(context_from_text(text), CensusKind.HOLES) <= 0.34 * full, text
    oracle = brute_force_census(context_from_text("pi/4"), 256, RoundingMode.FLOOR, CensusKind.HOLES)
    assert oracle.scanned_pts == full
    # at pi/2 the rows past the window hold no preimage at all
    assert scanned(context_from_text("pi/2"), CensusKind.COLLISIONS) < 0.36 * full


@pytest.mark.parametrize("text", ["pi/6", "pi/4", "pi/2", "pyth:3,4,5", CROSS_FIELD, FLOAT_PI4,
                                  BIG_TRIPLE])
def test_mirrored_ties_are_the_integer_values(text):
    # the grid reads image(-p) = -image(p) - (d, d) + t(p): the ties t it
    # gets from the image kernel are every point of the half domain where
    # a form's exact value is an integer, and nothing else.  An exact form
    # reads them off its floor's numerator (D = 40001 at the big triple is
    # no power of two); past the int64 guard, which max_abs = 2^62 trips
    # for every form here, they are flagged points
    ctx = context_from_text(text)
    M = 6
    R = _domain_radius(M)
    A, B = _band(np.arange(-R, R + 1, dtype=np.int64), -1, R)
    points = list(zip(A.ravel().tolist(), B.ravel().tolist()))
    for mode in (RoundingMode.FLOOR, RoundingMode.ROUND):
        for max_abs in (R, 2**62):
            forms = image_forms(ctx, mode, max_abs=max_abs)
            vector = max_abs == R and text not in (CROSS_FIELD, FLOAT_PI4)
            assert [getattr(k, "vector_ok", False) for k in forms] == [vector] * 2
            X, Y, _, ties = _exact_images(forms, A, B, mode, ties=True)
            for k, V, t in zip(forms, (X, Y), ties):
                want = [i for i, (x, y) in enumerate(points) if k.exact_frac_zero(x, y)]
                assert t.tolist() == want, (mode, max_abs, k.alpha)
                assert V.ravel().tolist() == [k.exact_floor(x, y) for x, y in points]


def test_census_counts_the_redecided_points():
    # float pi/4 flags its diagonals, and the enclosures decide them all;
    # exact pi/4 flags nothing
    floated, exact = context_from_text(FLOAT_PI4), context_from_text("pi/4")
    for run, kind in ((collision_census, CensusKind.COLLISIONS), (hole_census, CensusKind.HOLES)):
        for threads in (1, 2):
            rep = run(floated, 16, threads=threads)
            assert rep.redecided_pts > 0
            assert rep.redecided_pts < rep.scanned_pts
        rep = brute_force_census(floated, 16, RoundingMode.FLOOR, kind)
        assert rep.redecided_pts > 0
        for rep in (run(exact, 16), brute_force_census(exact, 16, RoundingMode.FLOOR, kind)):
            assert rep.redecided_pts == 0


def test_true_boundaries_stay_undecidable():
    # sin(0) is known only as an interval about 0, so x*sin + y*cos
    # straddles an integer at every precision: the enclosure batch raises
    # at its cap, in the censuses and in an orbit step alike
    ctx = context_from_text("rad:~0")
    with pytest.raises(UndecidableAtPrecision):
        collision_census(ctx, 2)
    with pytest.raises(UndecidableAtPrecision):
        brute_force_census(ctx, 2, RoundingMode.FLOOR, CensusKind.COLLISIONS)
    with pytest.raises(UndecidableAtPrecision):
        detect_cycle(ctx, (1, 0))


# ROUND (collisions, holes) at M=64, the same in both orientations: the
# map is bijective exactly at the twin triples, whose hypotenuse is the
# larger leg plus 1
ROUND_COUNTS_M64 = {
    (3, 4, 5): (0, 0),
    (5, 12, 13): (0, 0),
    (7, 24, 25): (0, 0),
    (9, 40, 41): (0, 0),
    (11, 60, 61): (0, 0),
    (8, 15, 17): (3912, 3916),
    (20, 21, 29): (2300, 2292),
    (12, 35, 37): (1800, 1800),
    (28, 45, 53): (2512, 2512),
}


def test_round_is_bijective_exactly_at_twin_triples():
    for (p1, p2, q), want in ROUND_COUNTS_M64.items():
        twin = q == max(p1, p2) + 1
        assert (want == (0, 0)) == twin
        for text in (f"pyth:{p1},{p2},{q}", f"pyth:{p2},{p1},{q}"):
            ctx = context_from_text(text)
            got = tuple(
                brute_force_census(ctx, 64, RoundingMode.ROUND, kind).count
                for kind in (CensusKind.COLLISIONS, CensusKind.HOLES)
            )
            assert got == want, text
            if twin:  # and at M=256, through the image grid
                for kind in CensusKind:
                    assert grid(ctx, 256, RoundingMode.ROUND, kind) == (0, []), text


# --------------------------------------------------------------------------
# Separable censuses at rational slopes
# --------------------------------------------------------------------------

TAN_HALF = "quad:sin=sqrt(5)/5,cos=2*sqrt(5)/5"  # D = 5
TAN_THIRD = "quad:sin=sqrt(10)/10,cos=3*sqrt(10)/10"  # D = 10
# each triple in both orientations and all four sign quadrants
SEPARABLE_ANGLES = [
    f"pyth:{sa * a},{sb * b},{q}"
    for p1, p2, q in ((3, 4, 5), (8, 15, 17), (20, 21, 29), (5, 12, 13))
    for a, b in ((p1, p2), (p2, p1))
    for sa in (1, -1)
    for sb in (1, -1)
] + ["0", "pi/2", "pi", "pi*3/2", "pi/4", "pi*3/4", "pi*5/4", "pi*7/4", TAN_HALF, TAN_THIRD,
      "quad:sin=-sqrt(5)/5,cos=-2*sqrt(5)/5"]


@pytest.mark.parametrize("text", SEPARABLE_ANGLES)
def test_separable_agrees_with_grid_and_oracle(text):
    ctx = context_from_text(text)
    slope = census._rational_slope(ctx)
    for M in (0, 1, 2, 17, 100):
        for mode in (RoundingMode.FLOOR, RoundingMode.ROUND):
            for kind in CensusKind:
                n, idx, _, counters = census._separable_census(M, mode, kind, True, slope)
                assert counters["redecided_pts"] == 0
                want = brute_force_census(ctx, M, mode, kind, keep_points=True)
                assert (n, _sorted_points(idx, M)) == (want.count, want.points), (M, mode, kind)
                assert grid(ctx, M, mode, kind) == (want.count, want.points), (M, mode, kind)
    rep = collision_census(ctx, 100, RoundingMode.ROUND)
    assert rep.method is Method.SEPARABLE and rep.pair_count == rep.count


@pytest.mark.parametrize("text", ["pyth:3,4,5", "pyth:-15,8,17", "pyth:20,-21,29",
                                  "pyth:-12,-5,13", "pi/4", "pi*3/4", TAN_HALF, TAN_THIRD])
def test_separable_agrees_with_grid_at_large_windows(text):
    ctx = context_from_text(text)
    slope = census._rational_slope(ctx)
    for M in (255, 512):
        for mode in (RoundingMode.FLOOR, RoundingMode.ROUND):
            for kind in CensusKind:
                n, idx, _, _ = census._separable_census(M, mode, kind, True, slope)
                gn, gidx, _, _ = _grid_census(ctx, M, mode, kind, True, 1)
                assert n == gn and np.array_equal(np.sort(idx), np.sort(gidx)), (M, mode, kind)


def test_residue_tables_larger_than_the_window_run_the_grid(monkeypatch):
    # q = 29 against 25 window points at M = 2 and 49 at M = 3
    ctx = context_from_text("pyth:20,21,29")
    assert hole_census(ctx, 2).method is Method.CHARACTERIZATION
    assert hole_census(ctx, 3).method is Method.SEPARABLE
    # q = 40001 against 4225 window points at M = 32 and 40401 at M = 100;
    # the separable route answers with the grid's point either way
    ctx = context_from_text(BIG_TRIPLE)
    slope = census._rational_slope(ctx)
    rep = collision_census(ctx, 32, keep_points=True)
    assert rep.method is Method.CHARACTERIZATION and rep.count == 1
    n, idx, _, counters = census._separable_census(
        32, RoundingMode.FLOOR, CensusKind.COLLISIONS, True, slope)
    assert (n, _sorted_points(idx, 32)) == (rep.count, rep.points)
    assert counters["scanned_pts"] == 40001
    rep = collision_census(ctx, 100, keep_points=True)
    assert rep.method is Method.SEPARABLE
    assert (rep.count, rep.points) == grid(ctx, 100, RoundingMode.FLOOR, CensusKind.COLLISIONS)
    # and so do tables past the cap
    monkeypatch.setattr(census, "_TABLE_MAX", 16)
    assert hole_census(context_from_text("pyth:8,15,17"), 4).method is Method.CHARACTERIZATION
    assert hole_census(context_from_text(TAN_THIRD), 4).method is Method.SEPARABLE
    # D = 50, a rational slope whose sqrt(D) is not squarefree
    assert hole_census(context_from_text("quad:sin=sqrt(2)/10,cos=-7*sqrt(2)/10"), 4).method \
        is Method.CHARACTERIZATION


def test_interval_types_past_the_vector_guard(monkeypatch):
    # the interval starts take Python integer square roots past the guard
    ctx = context_from_text("quad:sin=sqrt(2)/10,cos=-7*sqrt(2)/10")
    cases = [(run, mode) for run in (collision_census, hole_census)
             for mode in (RoundingMode.FLOOR, RoundingMode.ROUND)]
    want = [run(ctx, 40, mode, keep_points=True) for run, mode in cases]
    monkeypatch.setattr(census, "_SQRT_SAFE", 1)
    for (run, mode), w in zip(cases, want):
        got = run(ctx, 40, mode, keep_points=True)
        assert (got.count, got.points) == (w.count, w.points) and got.count > 0


# The exact densities over one period, #{k : H[k] = 2}/q = #{k : H[k] = 0}/q,
# under (floor, round); none is the equidistribution value
# 2(1-|cos|)(1-|sin|), which is 0.16 at 3-4-5
RESIDUE_DENSITIES = {
    (3, 4, 5): (Fraction(1, 5), 0),
    (5, 12, 13): (Fraction(1, 13), 0),
    (7, 24, 25): (Fraction(1, 25), 0),
    (8, 15, 17): (Fraction(1, 17), Fraction(4, 17)),
    (20, 21, 29): (Fraction(5, 29), Fraction(4, 29)),
    (12, 35, 37): (Fraction(1, 37), Fraction(4, 37)),
    (9, 40, 41): (Fraction(1, 41), 0),
    (28, 45, 53): (Fraction(9, 53), Fraction(8, 53)),
}


def test_residue_histogram_densities():
    modes = (RoundingMode.FLOOR, RoundingMode.ROUND)
    for (p1, p2, q), densities in RESIDUE_DENSITIES.items():
        for s0, c0 in ((p1, p2), (p2, p1), (-p1, p2), (-p2, -p1)):
            for mode, density in zip(modes, densities):
                H = residue_histogram(s0, c0, q, mode)
                assert H.sum() == q and H.max() <= 2
                assert Fraction(int(np.count_nonzero(H == 2)), q) == density, (s0, c0, mode)
                assert Fraction(int(np.count_nonzero(H == 0)), q) == density, (s0, c0, mode)
        # over one period, 2M + 1 = q, the oracle counts q^2 times the density
        ctx = context_from_text(f"pyth:{p1},{p2},{q}")
        for mode, density in zip(modes, densities):
            for kind in CensusKind:
                assert brute_force_census(ctx, (q - 1) // 2, mode, kind).count == density * q * q


def _pi4_closed_forms(lo, hi, W):
    """(collisions, holes) at pi/4 over a window of width W, from the n
    integers of [lo, hi] and its e even and o odd ones: (n - W)^2, and
    that minus e^2 + o^2 - W^2."""
    n = hi - lo + 1
    e = hi // 2 - (lo - 1) // 2
    collisions = (n - W) ** 2
    return collisions, collisions - (e * e + (n - e) ** 2 - W * W)


def test_pi4_closed_forms():
    ctx = context_from_text("pi/4")

    def counts(M, mode=RoundingMode.FLOOR):
        return collision_census(ctx, M, mode).count, hole_census(ctx, M, mode).count

    for M in range(301):  # [-floor(M*sqrt(2)), floor((M+1)*sqrt(2))]
        lo, hi = -math.isqrt(2 * M * M), math.isqrt(2 * (M + 1) ** 2)
        assert counts(M) == _pi4_closed_forms(lo, hi, 2 * M + 1), M
    for M in range(201):  # [-K, K], K = floor((2M+1)/sqrt(2))
        K = math.isqrt((2 * M + 1) ** 2 // 2)
        assert counts(M, RoundingMode.ROUND) == _pi4_closed_forms(-K, K, 2 * M + 1), M


def test_separable_census_runs_in_the_window_size_not_its_area():
    W = 2 * 10**9 + 1
    t0 = time.perf_counter()
    rep = collision_census(context_from_text("pyth:3,4,5"), 10**9)
    assert time.perf_counter() - t0 < 1.0
    assert abs(5 * rep.count - W * W) < 5 * W  # density 1/5
    M = 10**6
    got = []
    for run in (collision_census, hole_census):
        t0 = time.perf_counter()
        got.append(run(context_from_text("pi/4"), M).count)
        assert time.perf_counter() - t0 < 1.0
    lo, hi = -math.isqrt(2 * M * M), math.isqrt(2 * (M + 1) ** 2)
    assert tuple(got) == _pi4_closed_forms(lo, hi, 2 * M + 1)
