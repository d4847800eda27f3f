"""Censuses, udist counts and sweeps against perfbench/recount.py.

recount recomputes each answer from the definition of the discretized
rotation with numpy and mpmath alone; it imports nothing from latrot, so
a fault in the kernels the image grid and the brute-force histogram
share shows here even when those two routes agree with each other.
recount cannot read pi*k/n angles, so none are drawn; a draw it cannot
decide is rejected.
"""

import math
from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

from latrot.angle import context_from_text
from latrot.census import collision_census, hole_census
from latrot.exactnum import rational
from latrot.orbits import OrbitCaps, orbit_sweep
from latrot.rotation import RoundingMode
from latrot.udist import InequalityBox, count_solutions
from perfbench import recount

MAX_STEPS = 10**6


def _squarefree(n: int) -> tuple[int, int]:
    """(s, r) with n = s*s*r and r squarefree."""
    s = next(k for k in range(math.isqrt(n), 0, -1) if n % (k * k) == 0)
    return s, n // (s * s)


# every primitive triple up to q = 10^4, and one whose residue table is
# past census._TABLE_MAX (u, v = 1024, 1), which takes the grid at any M
TRIPLES = [
    (u * u - v * v, 2 * u * v, u * u + v * v)
    for u in range(2, 100)
    for v in range(1, u)
    if (u - v) % 2 and math.gcd(u, v) == 1 and u * u + v * v <= 10**4
] + [(1048575, 2048, 1048577)]
_sign = st.sampled_from([1, -1])


@st.composite
def pythagorean(draw):
    """A triple of TRIPLES in any of four quadrants and either
    orientation (the odd leg on sin or on cos)."""
    a, b, q = draw(st.sampled_from(TRIPLES))
    if draw(st.booleans()):
        a, b = b, a
    return f"pyth:{draw(_sign) * a},{draw(_sign) * b},{q}"


def _surd(c: int, r: int, den: int) -> str:
    return f"{c}/{den}" if r == 1 else f"{c}*sqrt({r})/{den}"


@st.composite
def one_axis(draw):
    """sin or cos rational a/b, the other s*sqrt(r)/b: Q varies on one
    coordinate of each form."""
    b = draw(st.integers(3, 40))
    a = draw(st.integers(1, b - 1))
    s, r = _squarefree(b * b - a * a)
    assume(r > 1)
    rat, irr = _surd(draw(_sign) * a, 1, b), _surd(draw(_sign) * s, r, b)
    sin, cos = (rat, irr) if draw(st.booleans()) else (irr, rat)
    return f"quad:sin={sin},cos={cos}"


@st.composite
def two_axis(draw):
    """(sin, cos) = (p, c)/sqrt(p^2 + c^2) off the rational points: both
    irrational in one field, so Q varies on both coordinates."""
    p, c = (draw(st.integers(1, 12)) * draw(_sign) for _ in range(2))
    s, r = _squarefree(p * p + c * c)
    assume(r > 1)
    return f"quad:sin={_surd(p, r, s * r)},cos={_surd(c, r, s * r)}"


# float64 angles within ulps of angles whose forms take integer values
# on a line of points, which the float prefilter flags.  (Near a
# Pythagorean angle a fifth of the window is flagged, and the recount
# decides each such point in mpmath, about 1 s a census.)
NEAR_SPECIAL = [math.pi / 4, math.pi / 6, math.pi / 3]


@st.composite
def numeric(draw):
    """rad:~ angles at 32 to 200 bits: near a special angle in any
    quadrant, or at least 0.05 from a multiple of pi/2 (near one the
    floor map's orbits run thousands of steps, and a sweep at 0.001
    takes tens of seconds on either side)."""
    if draw(st.booleans()):
        theta = draw(st.sampled_from(NEAR_SPECIAL)) + draw(st.integers(-2, 1)) * math.pi / 2
    else:
        theta = draw(st.integers(-6283, 6283)) / 1000
        assume(abs(theta - round(theta / (math.pi / 2)) * math.pi / 2) >= 0.05)
    # up to about 56 bits, the angle rounded at `bits` is off the special
    # angle by about 2^-bits, the width of the enclosures at the form's
    # precision, so the flagged points' enclosures straddle an integer
    # and escalate
    bits = draw(st.one_of(st.integers(32, 56), st.integers(57, 200)))
    return f"rad:~{theta!r}@{bits}"


angles = st.one_of(pythagorean(), one_axis(), two_axis(), numeric())
windows = st.integers(0, 60)
modes = st.sampled_from(list(RoundingMode))


def _recounted(job, *args):
    try:
        return job(*args)
    except recount.RecountUndecided:
        assume(False)


@settings(max_examples=150, deadline=None)
@given(text=angles, M=windows, mode=modes, kind=st.sampled_from(["collisions", "holes"]),
       oracle=st.booleans())
def test_census_matches_the_recount(text, M, mode, kind, oracle):
    want = _recounted(recount.census, recount.parse_angle(text), M, kind, mode.value, True)
    run = collision_census if kind == "collisions" else hole_census
    rep = run(context_from_text(text), M, mode, oracle=oracle, keep_points=True)
    assert rep.count == want["count"], (text, M, mode, kind, rep.method)
    assert sorted([x, y] for x, y in rep.points) == want["points"], (text, M, mode, kind)


_side = st.integers(1, 30).flatmap(lambda den: st.tuples(st.integers(1, den), st.just(den)))


@settings(max_examples=100, deadline=None)
@given(text=angles, M=windows, t1=_side, t2=_side)
def test_udist_matches_the_recount(text, M, t1, t2):
    want = _recounted(recount.udist, recount.parse_angle(text), M, Fraction(*t1), Fraction(*t2))
    box = InequalityBox(rational(*t1), rational(*t2))
    counters = {}
    got = count_solutions(context_from_text(text), box, M, counters=counters)
    assert got == want["count"], (text, M, t1, t2, counters["method"])


@settings(max_examples=40, deadline=None)
@given(text=angles, M=windows, mode=modes)
def test_sweep_matches_the_recount(text, M, mode):
    want = _recounted(recount.sweep, recount.parse_angle(text), M, mode.value, MAX_STEPS)
    summary = orbit_sweep(context_from_text(text), M, mode, OrbitCaps(max_steps=MAX_STEPS))
    got = {"histogram": sorted([p, c] for p, c in summary.histogram.items()),
           "undetermined": summary.undetermined, "escaped": summary.escaped}
    if mode is RoundingMode.TRUNC:
        got["absorbed_all"] = summary.absorbed_all
    assert got == want, (text, M, mode)
