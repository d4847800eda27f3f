import random
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from latrot import kernels
from latrot.angle import RationalPythagorean, context_from_text
from latrot.errors import InvalidSpec
from latrot.exactnum import parse_scalar, quad, rational
from latrot.rotation import RoundingMode
from latrot.udist import (
    InequalityBox,
    Parity,
    PythTriple,
    count_solutions,
    count_solutions_residue,
    gen_primitive_triples,
    residue_d1,
    _arc_cuts,
    _coord_values,
    _frac,
    _search_sorted,
    _strips,
    verify_case3_congruences,
)


def test_full_box_counts_everything():
    box = InequalityBox(rational(1), rational(1))
    for text in ["pi/4", "pyth:3,4,5", "rad:~1.0"]:
        ctx = context_from_text(text)
        M = 9
        assert count_solutions(ctx, box, M) == (2 * M + 1) ** 2


def test_cardinal_angle_all_fractions_zero():
    ctx = context_from_text("pi/2")
    box = InequalityBox(rational(1, 1000), rational(1, 1000))
    M = 11
    assert count_solutions(ctx, box, M) == (2 * M + 1) ** 2


def test_box_validation():
    with pytest.raises(InvalidSpec):
        InequalityBox(rational(0), rational(1, 2))
    with pytest.raises(InvalidSpec):
        InequalityBox(rational(1, 2), rational(3, 2))
    InequalityBox(rational(1), quad(0, 1, 2, 2))  # sqrt2/2 is fine


def test_triple_generation():
    fives = gen_primitive_triples(5)
    assert len(fives) == 1
    t = fives[0]
    assert (t.u, t.v, t.p1, t.p2, t.q, t.h) == (2, 1, 3, 4, 5, 2)
    assert (2 * t.u * t.v * t.h - (t.u**2 - t.v**2)) % t.q == 0

    thirteens = gen_primitive_triples(13)
    assert [(t.p1, t.p2, t.q) for t in thirteens] == [(3, 4, 5), (5, 12, 13)]
    assert thirteens[1].h == 8 and (12 * 8) % 13 == 5

    # (3,1) has equal parity and generates no primitive triple
    assert all((t.u, t.v) != (3, 1) for t in gen_primitive_triples(100))
    with pytest.raises(InvalidSpec):
        PythTriple.from_uv(3, 1)


def test_triple_invariants_bulk():
    import math

    triples = gen_primitive_triples(2000)
    qs = [t.q for t in triples]
    assert qs == sorted(qs)
    for t in triples:
        assert t.p1**2 + t.p2**2 == t.q**2
        assert math.gcd(t.p1, t.q) == math.gcd(t.p2, t.q) == 1
        assert 1 <= t.h <= t.q - 1
        assert (2 * t.u * t.v * t.h - (t.u**2 - t.v**2)) % t.q == 0


def test_residue_d1_examples():
    t = PythTriple.from_uv(2, 1)
    assert residue_d1(t.h, 1, t) == 0
    assert residue_d1(7, 1, t) == 0  # 7 - 2 = 5 == 0 (mod 5)
    assert residue_d1(1, 0, t) == 1
    # {L1(1,0)} = {cos} = 4/5 = {p2 * d1 / q}
    assert (t.p2 * 1) % t.q == 4


def test_congruence_examples_and_random():
    t = PythTriple.from_uv(2, 1)
    rep = verify_case3_congruences(t, [(1, 0), (0, 0), (7, 1)])
    assert rep.all_passed
    assert rep.checks[0].d1 == 1
    assert rep.checks[1].d1 == 0

    t2 = PythTriple.from_uv(3, 2)
    rng = random.Random(7)
    samples = [(rng.randint(-500, 500), rng.randint(-500, 500)) for _ in range(100)]
    assert verify_case3_congruences(t2, samples).all_passed


def _scan_count(forms, ts, vals):
    """The reference count for the separable and arc routes: every pair
    of vals box-tested (kernels._exact_box), banded over row indices so
    that odd-odd rows keep their step of 2."""
    total = 0
    for i0, i1 in kernels._bands(0, len(vals) - 1, len(vals)):
        A, B = np.broadcast_arrays(vals[None, :], vals[i0 : i1 + 1, None])
        total += int(np.count_nonzero(kernels._exact_box(forms, A, B, ts)[0]))
    return total


def _routes(ctx, box, M, parity):
    """The count from count_solutions, the route it took, and the
    reference scan's count for the same window."""
    counters = {}
    got = count_solutions(ctx, box, M, parity, counters)
    forms = kernels.image_forms(ctx, RoundingMode.FLOOR, max_abs=M)
    scan = _scan_count(forms, (box.t1, box.t2), _coord_values(M, parity))
    return got, counters["method"], scan


def test_direct_and_residue_counters_agree():
    # separable count, banded scan and (where Pythagorean) residue counter
    boxes = [InequalityBox(rational(*a), rational(*b))
             for a, b in (((1, 2), (1, 2)), ((1, 2), (1, 3)), ((1,), (2, 7)), ((3, 5), (1,)))]
    triples = [f"pyth:{a},{b},5" for a, b in ((3, 4), (4, 3), (-3, 4), (-4, 3), (3, -4), (4, -3),
                                                (-3, -4), (-4, -3))]
    cases = [(text, boxes) for text in
             ["pi/6", "pi/3", "pi*2/3", "pi*5/6", "pi*-1/6", "pi/2", "pi",
              *triples, "pyth:5,12,13", "pyth:20,21,29"]]
    # a bound with denominator q = 40001: one remainder in int64 decides it
    cases.append(("pyth:39999,400,40001", [InequalityBox(rational(20000, 40001), rational(1, 2))]))
    # each remainder fits int64, the pair of them as one class key does
    # not: the classes key on their ranks
    cases.append(("pyth:3,4,5", [InequalityBox(rational(1, 10**9 + 7), rational(1, 10**9 + 9))]))
    # forms with rational coefficients put {L} on multiples of 1/D, so
    # they take any side exactly: irrational and decimal ones too
    sides = [InequalityBox(quad(0, 1, 2, 2), rational(1, 1000)),
             InequalityBox(quad(0, 1, 3, 3), parse_scalar("~0.3")),
             InequalityBox(parse_scalar("~0.5"), quad(0, 1, 5, 5)),
             InequalityBox(rational(1), parse_scalar("~0.25"))]
    cases += [(text, sides) for text in
              ("pi/2", "pi", "pi*3/2", "pyth:3,4,5", "pyth:-5,12,13", "pyth:20,21,29")]
    for text, bs in cases:
        ctx = context_from_text(text)
        pyth = isinstance(ctx.classification, RationalPythagorean)
        for box in bs:
            for M in (0, 1, 2, 7, 30):
                for parity in Parity:
                    got, method, scan = _routes(ctx, box, M, parity)
                    where = (text, box, M, parity)
                    assert method == "separable" and got == scan, where
                    if pyth:
                        assert got == count_solutions_residue(ctx, box, M, parity), where


def test_unsplittable_forms_take_the_arcs():
    half = InequalityBox(rational(1, 2), rational(1, 3))
    cases = [(text, half, 30) for text in ("pi/4", "rad:~1.0", "quad:sin=sqrt(3)/3,cos=sqrt(6)/3")]
    cases += [
        ("pi/6", InequalityBox(quad(0, 1, 3, 3), rational(1, 2)), 30),  # irrational bound
        # the int64 guard: the square roots of Q*100003 leave float range
        ("pi/6", InequalityBox(rational(50000, 100003), rational(1, 2)), 1000),
    ]
    for text, box, M in cases:
        got, method, scan = _routes(context_from_text(text), box, M, Parity.ALL)
        assert method == "arcs" and got == scan, text


CROSS_FIELD = "quad:sin=sqrt(3)/3,cos=sqrt(6)/3"
# pi/6 takes the arc route with a side that is not rational or a tiny
# one, the others always, but 3-4-5: its coefficients are rational, so it
# takes every side on the separable route, which the scan checks here
# too; {L} = 0 at the origin, and {L} = t for
# t = 4/5 = cos on 3-4-5's x axis, sqrt(3)/2 = cos on pi/6's and
# sqrt(3)/3 = sin on the cross-field angle's y axis
ARC_ANGLES = ["pi/4", "pi*3/4", "pi*-1/4", CROSS_FIELD, "rad:~1.0", "rad:~0.3",
              "rad:~-2.2", "rad:~0.7853981633974483", "pi/6", "pyth:3,4,5"]
ARC_SIDES = [
    rational(1),
    rational(1, 10**9 + 7),  # below 2 * slack; at pi/4 past the int64 guard
    rational(50000, 100003),  # pi/4's guard-trip side, which trips from M=238
    rational(1, 2),
    rational(4, 5),
    quad(0, 1, 3, 3),  # irrational, a tie at the cross-field angle
    quad(0, 1, 3, 2),  # irrational, a tie at pi/6
    parse_scalar("~0.3"),
]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(ARC_ANGLES), st.sampled_from(ARC_SIDES), st.sampled_from(ARC_SIDES),
       st.sampled_from([0, 1, 2, 30]), st.sampled_from(list(Parity)))
def test_arc_route_matches_the_scan(text, t1, t2, M, parity):
    ctx = context_from_text(text)
    box = InequalityBox(t1, t2)
    counters = {}
    got = count_solutions(ctx, box, M, parity, counters)
    forms = kernels.image_forms(ctx, RoundingMode.FLOOR, max_abs=M)
    want = _scan_count(forms, (t1, t2), _coord_values(M, parity))
    assert got == want
    if counters["method"] == "arcs":
        assert counters["scanned_pts"] <= len(_coord_values(M, parity)) ** 2


def test_arc_route_at_large_windows():
    # the scan would box-test 4 * 10^8 pairs at each angle
    box = InequalityBox(rational(1, 2), rational(1, 3))
    for text in ("rad:~1.0", CROSS_FIELD):
        counters = {}
        t0 = time.perf_counter()
        count = count_solutions(context_from_text(text), box, 10**4, Parity.ALL, counters)
        assert time.perf_counter() - t0 < 2.0, text
        assert counters["method"] == "arcs" and counters["scanned_pts"] < 1000, text
        assert abs(count / 20001**2 - 1 / 6) < 1e-3, text


def test_negative_windows_are_rejected():
    box = InequalityBox(rational(1, 2), rational(1, 3))
    for text in ("pi/4", "pyth:3,4,5"):
        with pytest.raises(ValueError, match="M=-2 is negative"):
            count_solutions(context_from_text(text), box, -2)
    with pytest.raises(ValueError, match="M=-2 is negative"):
        count_solutions_residue(context_from_text("pyth:3,4,5"), box, -2)


def test_separable_count_runs_in_the_window_side_not_its_area():
    half = InequalityBox(rational(1, 2), rational(1, 3))
    M = 10**6
    for text, box in (("pi/6", half), ("pyth:3,4,5", half),
                      # irrational sides of forms with rational coefficients
                      ("pi/2", InequalityBox(quad(0, 1, 2, 2), rational(1, 1000))),
                      ("pyth:3,4,5", InequalityBox(rational(1), quad(0, 1, 2, 2)))):
        counters = {}
        t0 = time.perf_counter()
        count_solutions(context_from_text(text), box, M, Parity.ALL, counters)
        assert time.perf_counter() - t0 < 1.0, (text, box)
        assert counters["method"] == "separable" and counters["scanned_pts"] <= 100, (text, box)
        assert counters["redecided_pts"] == 0, (text, box)


def test_one_row_bands_keep_counts(monkeypatch):
    # odd-odd rows step by 2, so a one-row band holds every other row;
    # the arc route (its strips) and the reference scan run for these
    # angles, the separable route for 3-4-5
    box = InequalityBox(rational(1, 2), rational(1, 3))
    for text in ["pi/4", "quad:sin=sqrt(3)/3,cos=sqrt(6)/3", "rad:~1.0", "pyth:3,4,5"]:
        ctx = context_from_text(text)
        forms = kernels.image_forms(ctx, RoundingMode.FLOOR, max_abs=21)
        want = {p: count_solutions(ctx, box, 21, p) for p in Parity}
        with monkeypatch.context() as m:
            m.setattr(kernels, "_BAND_POINTS", 1)
            assert {p: count_solutions(ctx, box, 21, p) for p in Parity} == want, text
            if text != "pyth:3,4,5":
                scan = {p: _scan_count(forms, (box.t1, box.t2), _coord_values(21, p))
                        for p in Parity}
                assert scan == want, text
        if text == "pyth:3,4,5":
            assert want == {p: count_solutions_residue(ctx, box, 21, p) for p in Parity}


def test_strips_take_any_number_of_forms(monkeypatch):
    # each form's strip pairs come from its own cuts and column order, so
    # the pairs of several forms are the union of each form's, each pair
    # once, and a repeated form adds none; pi/4's forms share the origin
    vals = _coord_values(30, Parity.ALL)
    orders, cuts = [], []
    forms = kernels.image_forms(context_from_text("pi/4"), RoundingMode.FLOOR, max_abs=30)
    for k, t in zip(forms, (rational(1, 2), rational(1, 3))):
        f = k._prefilter
        u = _frac(f.fa * vals)
        orders.append(np.argsort(u, kind="stable"))
        cuts.append(_arc_cuts(u[orders[-1]], _frac(f.fb * vals + f.fg), t, f.slack))

    def pairs(*ks):
        got = [p for rows, cols in _strips([orders[k] for k in ks], [cuts[k] for k in ks])
               for p in zip(rows.tolist(), cols.tolist())]
        assert len(got) == len(set(got)), ks
        return set(got)

    one, two = pairs(0), pairs(1)
    assert (30, 30) in one & two
    assert pairs(0, 1) == pairs(0, 1, 0) == one | two
    with monkeypatch.context() as m:
        m.setattr(kernels, "_BAND_POINTS", 1)
        assert pairs(1, 0, 1) == one | two


@settings(max_examples=150, deadline=None)
@given(
    keys=st.lists(st.integers(-8, 8), max_size=40),
    needles=st.lists(st.integers(-10, 10), max_size=60),
    scale=st.sampled_from([None, 0.25]),
    rows=st.sampled_from([None, 1, 3]),
)
def test_search_sorted_equals_searchsorted(keys, needles, scale, rows):
    # small ranges repeat keys and needles; integer keys (the merge-sort
    # tree's) and float ones (the arc cuts'), flat and by rows
    keys, needles = np.sort(np.array(keys, dtype=np.int64)), np.array(needles, dtype=np.int64)
    if scale is not None:
        keys, needles = keys * scale, needles * scale
    if rows is not None and needles.size % rows == 0:
        needles = needles.reshape(rows, -1)
    got = _search_sorted(keys, needles)
    assert got.shape == needles.shape
    assert np.array_equal(got, np.searchsorted(keys, needles))


def test_residue_counter_rejects_irrational():
    with pytest.raises(InvalidSpec):
        count_solutions_residue(
            context_from_text("pi/4"), InequalityBox(rational(1, 2), rational(1, 2)), 5
        )


def test_odd_odd_never_exceeds_all():
    box = InequalityBox(rational(2, 5), rational(4, 7))
    for text in ["pi/4", "pyth:3,4,5", "rad:~1.0"]:
        ctx = context_from_text(text)
        assert count_solutions(ctx, box, 25, Parity.ODD_ODD) <= count_solutions(
            ctx, box, 25, Parity.ALL
        )


def test_equidistribution_ratio_generic():
    # rationally independent 1, sin, cos: density of the box
    ctx = context_from_text("quad:sin=sqrt(3)/3,cos=sqrt(6)/3")
    box = InequalityBox(rational(1, 2), rational(1, 2))
    M = 2000
    count = count_solutions(ctx, box, M)
    ratio = count / (2 * M + 1) ** 2
    assert abs(ratio - 0.25) < 0.03


def test_quadratic_bound_boxes_match_census_thresholds():
    # the neighbor-system thresholds 1-cos, 1-sin of a quadrant-1 angle
    # are legal box sides
    ctx = context_from_text("pyth:3,4,5")
    box = InequalityBox(rational(1, 5), rational(2, 5))  # 1-cos, 1-sin
    d = count_solutions(ctx, box, 30)
    r = count_solutions_residue(ctx, box, 30)
    assert d == r > 0


def test_count_reports_its_redecided_points():
    # past the square-root guard (a bound with a denominator near 10^5 at
    # M=1000) pi/4's float twin flags the diagonal x = y, where L1 = 0;
    # the form's exact enclosures decide all 2001 points.  The strips hold
    # the diagonal and the antidiagonal, where L2 = 0: 4001 points
    counters = {}
    box = InequalityBox(rational(50000, 100003), rational(1, 2))
    assert count_solutions(context_from_text("pi/4"), box, 1000, Parity.ALL, counters) == 1002001
    assert counters == {"method": "arcs", "scanned_pts": 4001, "redecided_pts": 2001,
                        "scalar_pts": 0}
    # {L1} = sqrt(3)/3 at (0, -1): intervals cannot separate an equality,
    # so the scalar layer decides that point
    ctx = context_from_text("quad:sin=sqrt(3)/3,cos=sqrt(6)/3")
    box = InequalityBox(quad(0, 1, 3, 3), rational(1, 2))
    count_solutions(ctx, box, 30, counters=counters)
    assert counters["scalar_pts"] == 1 and counters["redecided_pts"] >= 1
    assert counters["scanned_pts"] == 2
