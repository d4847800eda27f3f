import dataclasses
import functools
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from latrot import kernels, orbits
from latrot.angle import context_from_text
from latrot.errors import HypothesisViolated
from latrot.exactnum import floor_exact, quad
from latrot.kernels import _domain_radius, make_step
from latrot.orbits import (
    PERIOD8_AMAX_LIMIT,
    OrbitCaps,
    OrbitStatus,
    brute_force_period8_filter,
    detect_cycle,
    orbit_path,
    orbit_sweep,
    period8_candidates,
    quarter_turn_context,
    verify_helper_identities,
    verify_period8,
)
from latrot.rotation import RoundingMode, discrete_rotate

FLOAT_PI4 = "rad:~" + repr(math.pi / 4)
CROSS_FIELD = "quad:sin=sqrt(3)/3,cos=sqrt(6)/3"
EXACT_ANGLES = ["pi/4", "pi/6", "pi/3", "pyth:3,4,5", "pyth:5,12,13"]
QUADRANT_ANGLES = ["pi*3/4", "pi*7/6", "pi*7/4", "pyth:-3,4,5", "pyth:3,-4,5"]

PI4_CHAIN_9 = [
    (9, 0), (6, 6), (0, 8), (-6, 5), (-8, -1), (-5, -7), (1, -9), (7, -6), (9, 0),
]


def test_detect_cycle_examples():
    ctx = context_from_text("pi/2")
    rec = detect_cycle(ctx, (1, 0))
    assert (rec.status, rec.preperiod, rec.period) == (OrbitStatus.PERIODIC, 0, 4)
    quarter = quarter_turn_context()
    rec = detect_cycle(quarter, (9, 0))
    assert (rec.status, rec.preperiod, rec.period) == (OrbitStatus.PERIODIC, 0, 8)
    assert orbit_path(quarter, (9, 0), n_steps=8) == PI4_CHAIN_9
    rec = detect_cycle(quarter, (0, 0))
    assert rec.period == 1 and rec.preperiod == 0


def test_detect_cycle_reverification():
    quarter = quarter_turn_context()
    for start in [(9, 0), (5, 3), (-7, 11), (40, -3)]:
        rec = detect_cycle(quarter, start)
        assert rec.status is OrbitStatus.PERIODIC
        path = orbit_path(quarter, start, n_steps=rec.preperiod + 2 * rec.period)
        entry = path[rec.preperiod]
        assert path[rec.preperiod + rec.period] == entry
        # minimality: no proper divisor of the period closes the cycle
        for p in range(1, rec.period):
            if rec.period % p == 0:
                assert path[rec.preperiod + p] != entry


def test_brent_fallback_agrees():
    # Brent's search answers with the visited map's whole record: status,
    # preperiod, period, max norm and steps used
    quarter = quarter_turn_context()
    brent_caps = OrbitCaps(max_steps=10**6, memory_states=8)
    for start in [(9, 0), (5, 3), (17, -29), (100, 3)]:
        assert detect_cycle(quarter, start) == detect_cycle(quarter, start, caps=brent_caps)
    for text, start in (("pi/4", (9, 0)), ("pyth:3,4,5", (55, 56)), ("rad:~1.0", (30, 7))):
        ctx = context_from_text(text)
        assert detect_cycle(ctx, start) == detect_cycle(ctx, start, caps=brent_caps), text
    # Under a binding step budget or a max_radius too: Brent searches past
    # max_steps and answers undetermined by mu + lam > max_steps.
    ctx = context_from_text("pyth:3,4,5")
    for memory_states in (10**6, 8):
        rec = detect_cycle(ctx, (-12, -12), caps=OrbitCaps(max_steps=50, memory_states=memory_states))
        assert (rec.status, rec.period) == (OrbitStatus.PERIODIC, 39)
    starts = [(x, y) for x in range(-12, 13, 4) for y in range(-12, 13, 4)]
    capped = [OrbitCaps(max_steps=n) for n in (3, 8, 50)]
    capped += [OrbitCaps(max_radius=9), OrbitCaps(max_steps=8, max_radius=9)]
    for text in ("pi/4", "pyth:3,4,5", "rad:~1.0"):
        ctx = context_from_text(text)
        for mode in RoundingMode:
            for caps in capped:
                brent = dataclasses.replace(caps, memory_states=1)
                for start in starts:
                    a = detect_cycle(ctx, start, mode, caps)
                    b = detect_cycle(ctx, start, mode, brent)
                    assert a == b, (text, mode, caps, start)


def test_caps_statuses():
    quarter = quarter_turn_context()
    rec = detect_cycle(quarter, (1000, 1), caps=OrbitCaps(max_steps=3))
    assert rec.status is OrbitStatus.UNDETERMINED and rec.period is None
    rec = detect_cycle(quarter, (1000, 1), caps=OrbitCaps(max_radius=10))
    assert rec.status is OrbitStatus.ESCAPED


def test_period8_candidate_examples():
    cands = period8_candidates(20)
    assert 9 in cands  # w=6, floor(6*sqrt2)=8, {9/sqrt2}~0.364
    assert 3 not in cands  # {3/sqrt2}~0.121 below the interval
    assert 4 not in cands  # floor(2*sqrt2)=2 != 3
    assert 5 not in cands  # {5/sqrt2}~0.536 above sqrt2-1: chain breaks
    assert 2 in cands  # sits exactly on the closed right endpoint
    assert 1 not in cands
    assert period8_candidates(20, closed_endpoints=False) == [
        a for a in cands if a != 2
    ]


def test_period8_candidates_match_brute_filter():
    assert period8_candidates(800) == brute_force_period8_filter(800)


def test_period8_candidate_counts_are_pinned():
    # the benchmark's a_max: a = 2 is the one candidate on the closed endpoint
    assert len(period8_candidates(10**6)) == 121_321
    assert len(period8_candidates(10**6, closed_endpoints=False)) == 121_320
    for a_max in (0, 1, 2, 3):
        assert period8_candidates(a_max) == brute_force_period8_filter(a_max)
        assert period8_candidates(a_max, closed_endpoints=False) == []


def test_helper_identities():
    for a in (9, 2, 3, 12, 141):
        checks = verify_helper_identities(a)
        assert len(checks) == 6
        bad = [c for c in checks if not c.ok]
        assert not bad, (a, bad)
    special = verify_helper_identities(1)  # the a=1 branch of the second identity
    assert all(c.ok for c in special)
    with pytest.raises(HypothesisViolated):
        verify_helper_identities(4)  # floor(sqrt2*2) = 2 != 3


def test_helper_identity_values_spot():
    # floor(-9/sqrt2 + 1/sqrt2) = floor(-4*sqrt2) = -6 = -w
    assert floor_exact(quad(0, -8, 2, 2)) == -6
    checks = {c.name: c for c in verify_helper_identities(9)}
    assert checks["floor((1-a)/sqrt2) == -w"].value == -6


def test_verify_period8_reports():
    rep = verify_period8(1000)
    assert rep.ok and rep.boundary == [1]
    assert rep.verified == len(rep.candidates)
    strict = verify_period8(1000, strict_boundary=True)
    assert [a for a, _ in strict.violators] == [1]
    assert strict.violators[0][1][1] == (0, 0)  # (1,0) -> (0,0) immediately
    openrep = verify_period8(1000, open_endpoints=True)
    assert 2 not in openrep.candidates and openrep.ok


def test_period8_lockstep_chains_match_scalar_steps():
    # every checked a, stepped one at a time: the same verified count and
    # the same violators, each with its orbit_path chain
    quarter = quarter_turn_context()
    for strict in (False, True):
        for open_ in (False, True):
            rep = verify_period8(3000, strict_boundary=strict, open_endpoints=open_)
            check = sorted(set(rep.candidates) | ({1} if strict else set()))
            chains = {a: orbit_path(quarter, (a, 0), n_steps=8) for a in check}
            bad = [(a, c) for a, c in chains.items() if c[-1] != (a, 0)]
            assert rep.verified == len(check) - len(bad)
            assert rep.violators == bad
            assert ([a for a, _ in bad] == [1]) is strict
            # the report's candidates: an array that takes len, in and iteration
            assert len(rep.candidates) == rep.verified - strict + len(bad)
            assert (2 in rep.candidates) is not open_ and 1 not in rep.candidates
            assert list(rep.candidates) == period8_candidates(3000, closed_endpoints=not open_)
    strict = verify_period8(3000, strict_boundary=True)
    assert strict.violators == [(1, orbit_path(quarter, (1, 0), n_steps=8))]
    assert len(strict.violators[0][1]) == 9


def test_period8_violators_carry_their_chains(monkeypatch):
    # the lockstep keeps only each band's last step, so a violator's chain
    # is run again from its a: a = 4 and 5 break the chain (4 fails the
    # floor hypothesis, 5 passes the right endpoint), planted among the
    # candidates with bands of seven, so they fall in different bands
    quarter = quarter_turn_context()
    real = orbits._period8_candidates

    def planted(a_max, closed_endpoints):
        return np.sort(np.concatenate([real(a_max, closed_endpoints), [4, 5, 2999]]))

    monkeypatch.setattr(orbits, "_period8_candidates", planted)
    monkeypatch.setattr(kernels, "_BAND_POINTS", 7)
    rep = verify_period8(3000, strict_boundary=True)
    check = [1] + planted(3000, True).tolist()
    chains = {a: orbit_path(quarter, (a, 0), n_steps=8) for a in check}
    bad = [(a, c) for a, c in chains.items() if c[-1] != (a, 0)]
    assert [a for a, _ in bad] == [1, 4, 5, 2999]
    assert rep.violators == bad and rep.verified == len(check) - 4


def test_period8_amax_past_the_isqrt_bound_is_rejected():
    with pytest.raises(ValueError, match="exceeds"):
        period8_candidates(PERIOD8_AMAX_LIMIT + 1)
    with pytest.raises(ValueError, match="exceeds"):
        verify_period8(PERIOD8_AMAX_LIMIT + 1)


def test_sweep_cardinal():
    ctx = context_from_text("pi/2")
    s = orbit_sweep(ctx, 1)
    assert s.histogram == {1: 1, 4: 8}
    assert s.total == 9
    assert s.undetermined == s.escaped == 0


def test_cardinal_orbits_period_124_no_preperiod():
    for text, allowed in [("0", {1}), ("pi", {1, 2}), ("pi/2", {1, 4}),
                          ("pi*3/2", {1, 4})]:
        ctx = context_from_text(text)
        for start in [(0, 0), (3, 1), (-2, 5), (7, -7)]:
            rec = detect_cycle(ctx, start)
            assert rec.status is OrbitStatus.PERIODIC
            assert rec.preperiod == 0
            assert rec.period in allowed, (text, start, rec)


def _per_start_summary(ctx, M, mode, caps):
    hist, statuses = Counter(), Counter()
    for x in range(-M, M + 1):
        for y in range(-M, M + 1):
            rec = detect_cycle(ctx, (x, y), mode, caps)
            statuses[rec.status] += 1
            if rec.status is OrbitStatus.PERIODIC:
                hist[rec.period] += 1
    return dict(hist), statuses[OrbitStatus.UNDETERMINED], statuses[OrbitStatus.ESCAPED]


def test_sweep_matches_per_start_detection():
    # Both sides share one escape radius.  A binding step budget makes a
    # start undetermined exactly when detect_cycle alone needs more steps
    # than the budget: its tail plus its period.
    M = 12
    radius = 10**6 * M + 10**3
    for text in ("pi/4", "pyth:3,4,5", "rad:~1.0"):
        ctx = context_from_text(text)
        for mode in RoundingMode:
            for max_steps in (3, 8, 50, 10**6):
                caps = OrbitCaps(max_steps=max_steps, max_radius=radius)
                s = orbit_sweep(ctx, M, mode, caps)
                assert s.total == (2 * M + 1) ** 2
                want = _per_start_summary(ctx, M, mode, caps)
                assert (s.histogram, s.undetermined, s.escaped) == want, (text, mode, max_steps)
    caps = OrbitCaps(max_steps=50, max_radius=10**6 * 40 + 10**3)
    s = orbit_sweep(quarter_turn_context(), 40, RoundingMode.TRUNC, caps)
    want = _per_start_summary(quarter_turn_context(), 40, RoundingMode.TRUNC, caps)
    assert s.undetermined == want[1] == 3292


def test_sweep_deterministic():
    quarter = quarter_turn_context()
    a = orbit_sweep(quarter, 9)
    b = orbit_sweep(quarter, 9)
    assert a == b


def test_trunc_absorption_small():
    for text in ["pi/4", "rad:~1.0"]:
        ctx = context_from_text(text)
        s = orbit_sweep(ctx, 10, RoundingMode.TRUNC, OrbitCaps(max_steps=10**4))
        assert s.absorbed_all is True
        assert s.histogram == {1: 21 * 21}
    # floor sweeps report no absorption flag
    assert orbit_sweep(quarter_turn_context(), 2).absorbed_all is None


def test_trunc_absorption_not_assumed():
    # a cardinal trunc orbit is NOT absorbed (the map is the exact rotation)
    ctx = context_from_text("pi/2")
    s = orbit_sweep(ctx, 2, RoundingMode.TRUNC)
    assert s.absorbed_all is False


def test_numeric_angle_orbit():
    ctx = context_from_text("rad:~1.0")
    rec = detect_cycle(ctx, (5, 0), caps=OrbitCaps(max_steps=10**5))
    assert rec.status is OrbitStatus.PERIODIC
    # re-verify through the scalar-exact map
    path = [(5, 0)]
    for _ in range(rec.preperiod + rec.period):
        path.append(discrete_rotate(ctx, path[-1]))
    assert path[rec.preperiod + rec.period] == path[rec.preperiod]


def test_step_matches_discrete_rotate():
    # Exact angles step in integers.  The cross-field and float angles step
    # in float64 and re-decide points inside the slack (the float pi/4
    # diagonals, the origin); their discrete_rotate costs ~0.5 ms a point,
    # so they take every third row and column of the window.
    window = range(-30, 31)
    huge = [(2**40, 3), (-(2**40) + 7, 2**40 - 1), (5, -(2**40)), (2**40 + 12345, -(2**39))]
    cases = [(text, window, []) for text in EXACT_ANGLES + QUADRANT_ANGLES]
    cases += [(text, window[::3], []) for text in (CROSS_FIELD, "rad:~1.0")]
    cases += [(FLOAT_PI4, window[::3], huge)]
    cases += [(text, [], huge) for text in ("pi/4", "pyth:39999,400,40001")]
    for text, coords, extra in cases:
        ctx = context_from_text(text)
        points = [(x, y) for x in coords for y in coords] + extra
        for mode in RoundingMode:
            step = make_step(ctx, mode)
            for p in points:
                assert step(p) == discrete_rotate(ctx, p, mode), (text, mode, p)


@pytest.fixture
def memo_steps(monkeypatch):
    """detect_cycle with each step map memoized; the map is pure, so no
    answer changes."""
    maps = {}

    def cached(ctx, mode=RoundingMode.FLOOR):
        key = (id(ctx), mode)
        if key not in maps:
            maps[key] = (ctx, functools.cache(make_step(ctx, mode)))
        return maps[key][1]

    monkeypatch.setattr(orbits, "make_step", cached)


SWEEPS_M40 = json.loads((Path(__file__).parent / "data" / "sweep_m40.json").read_text())


@pytest.mark.parametrize("text", EXACT_ANGLES + QUADRANT_ANGLES + ["rad:~1.0", FLOAT_PI4, CROSS_FIELD])
def test_vector_sweep_matches_detect_cycle(text, memo_steps):
    # Default caps, a binding step budget and a max_radius inside the
    # window, against detect_cycle start by start; at M=40, against the
    # summaries the memoized scalar walk gave, each of which equals
    # detect_cycle start by start.  The successor array answers every
    # start of these windows itself, except 14 floor orbits of rad:~1.0 at
    # M=12 that drift past the retry window; a max_radius inside the
    # window makes them escapes.
    ctx = context_from_text(text)
    for mode in RoundingMode:
        for M in (0, 1, 5, 12, 40):
            for label, caps in (("default", OrbitCaps()), ("max_steps=50", OrbitCaps(max_steps=50)),
                                (f"max_radius={M + 1}", OrbitCaps(max_radius=M + 1))):
                got = orbit_sweep(ctx, M, mode, caps)
                if M == 40:
                    hist, undetermined, escaped, absorbed = SWEEPS_M40[f"{text}|{mode.value}|{label}"]
                    want = ({p: c for p, c in hist}, undetermined, escaped)
                    assert got.absorbed_all == absorbed, (mode, M, caps)
                else:
                    want = _per_start_summary(ctx, M, mode, caps)
                assert (got.histogram, got.undetermined, got.escaped) == want, (mode, M, caps)
                handed = 14 if (text, mode, M) == ("rad:~1.0", RoundingMode.FLOOR, 12) else 0
                assert got.scalar_starts == (0 if caps.max_radius is not None else handed), (mode, M, caps)


@st.composite
def functional_graphs(draw):
    """A successor array: short cycles (self-loops among them), at most one
    cycle of up to 5000 nodes, one long tail, trees hung on random nodes,
    and a last node that is its own successor and that some tree nodes
    feed, like a sweep's sink; all but the last node shuffled."""
    cycles = draw(st.lists(st.integers(1, 6), min_size=1, max_size=40))
    cycles += [draw(st.integers(1, 5000))] * draw(st.booleans())
    tail, trees = draw(st.integers(0, 3000)), draw(st.integers(0, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    succ = []
    for size in cycles:
        succ += [len(succ) + (i + 1) % size for i in range(size)]
    prev = int(rng.integers(len(succ)))
    for _ in range(tail):
        succ.append(prev)
        prev = len(succ) - 1
    sink = len(succ) + trees
    succ += [sink if rng.random() < 0.1 else int(rng.integers(len(succ))) for _ in range(trees)]
    succ.append(sink)
    order = np.append(rng.permutation(sink), sink)  # node i becomes order[i]
    shuffled = np.empty(sink + 1, dtype=draw(st.sampled_from([np.int32, np.int64])))
    shuffled[order] = order[succ]
    return shuffled


def _walk(succ):
    """Each node's cycle, named by its smallest node, and its steps to that
    cycle, by walking the graph in Python."""
    least, steps = [None] * len(succ), [None] * len(succ)
    for start in range(len(succ)):
        path, seen, x = [], {}, start
        while least[x] is None and x not in seen:
            seen[x] = len(path)
            path.append(x)
            x = int(succ[x])
        if least[x] is None:  # the walk closed a new cycle
            cycle = path[seen[x]:]
            for y in cycle:
                least[y], steps[y] = min(cycle), 0
            path = path[:seen[x]]
        for y in reversed(path):
            least[y], steps[y] = least[int(succ[y])], steps[int(succ[y])] + 1
    return np.array(least), np.array(steps)


@settings(max_examples=40, deadline=None)
@given(functional_graphs())
def test_cycles_and_tails_match_a_walk(succ):
    least, steps = _walk(succ)
    kept = succ.copy()
    jump, label, on_cycle, depth, rounds = orbits._cycles(succ)
    assert (succ == kept).all() and jump.dtype == label.dtype == succ.dtype
    assert (on_cycle == (steps == 0)).all()
    assert (np.flatnonzero(on_cycle)[label[on_cycle]] == least[on_cycle]).all()
    assert on_cycle[jump].all() and (least[jump] == least).all()
    # succ^depth lands on the cycles, and no smaller power of two does
    assert depth == 1 << max(int(steps.max()) - 1, 0).bit_length()
    assert rounds >= 2
    assert (orbits._tails(succ, on_cycle) == steps).all()


def test_sweep_meta_counts_cycle_nodes_and_rounds():
    # 3-4-5 floor orbits run into few cycles down tails up to 1183 steps
    # long; pi/4's cycles hold over a third of the window
    s = orbit_sweep(quarter_turn_context(), 300)
    assert (s.cycle_nodes, s.doubling_rounds) == (277_739, 9)
    s = orbit_sweep(context_from_text("pyth:3,4,5"), 200)
    assert (s.cycle_nodes, s.doubling_rounds) == (6_928, 23)


def test_sweep_counts_its_redecided_points():
    # float pi/4's prefilter flags points near the diagonals, where the
    # exact forms have integer values; exact pi/4 flags none.  M=37 fits
    # the first window, so the count is that window's
    s = orbit_sweep(context_from_text(FLOAT_PI4), 37)
    assert s.redecided_pts == 241
    exact = orbit_sweep(quarter_turn_context(), 37)
    assert exact.redecided_pts == 0 and exact == s


def test_negative_windows_are_rejected():
    with pytest.raises(ValueError, match="M=-2 is negative"):
        orbit_sweep(quarter_turn_context(), -2)


def test_caps_inside_the_window_keep_their_answers():
    # the windows that the memoized scalar walk used to answer whole
    s = orbit_sweep(context_from_text("pyth:3,4,5"), 100, RoundingMode.ROUND, OrbitCaps(max_steps=1000))
    assert s.histogram == {
        1: 1, 8: 16, 10: 260, 12: 12, 39: 2052, 48: 288, 68: 952, 78: 936, 88: 5244,
        108: 216, 127: 1796, 166: 2824, 205: 820, 224: 224, 244: 3932, 264: 792,
        293: 1172, 322: 68, 400: 908, 420: 4308, 498: 1348, 576: 4004, 596: 96,
        732: 744, 752: 1128, 908: 1972,
    }
    assert (s.undetermined, s.escaped, s.scalar_starts) == (4288, 0, 0)
    s = orbit_sweep(quarter_turn_context(), 100, caps=OrbitCaps(max_radius=101))
    assert (s.histogram, s.undetermined, s.escaped, s.scalar_starts) == ({1: 4, 8: 33350}, 0, 7047, 0)
    caps = OrbitCaps(max_steps=50, max_radius=10**6 * 40 + 10**3)
    s = orbit_sweep(quarter_turn_context(), 40, RoundingMode.TRUNC, caps)
    assert (s.undetermined, s.scalar_starts) == (3292, 0)
    # a start beyond the radius escapes at its first step, an inner one at
    # its first step beyond the radius, each under the step budget
    for text in ("pi/4", "pyth:3,4,5", "rad:~1.0"):
        ctx = context_from_text(text)
        for mode in RoundingMode:
            for caps in (OrbitCaps(max_radius=5), OrbitCaps(max_steps=1, max_radius=5),
                         OrbitCaps(max_steps=3, max_radius=5)):
                s = orbit_sweep(ctx, 12, mode, caps)
                assert (s.histogram, s.undetermined, s.escaped) == _per_start_summary(ctx, 12, mode, caps)


def test_starts_leaving_the_window_go_to_detect_cycle(monkeypatch):
    # pyth:39,760,761 turns by about 3 degrees, and the floor orbits of
    # 33 of the 49 starts at M=3 drift past the wider retry window.
    ctx = context_from_text("pyth:39,760,761")
    M = 3
    R = _domain_radius(M) + 8 + M // 8
    leaving = {
        (x, y)
        for x in range(-M, M + 1)
        for y in range(-M, M + 1)
        if detect_cycle(ctx, (x, y)).max_norm > R
    }
    assert len(leaving) == 33
    handed = []

    def per_start(ctx, start, mode, caps):
        handed.append(start)
        return detect_cycle(ctx, start, mode, caps)

    monkeypatch.setattr(orbits, "detect_cycle", per_start)
    for caps in (OrbitCaps(), OrbitCaps(max_steps=50), OrbitCaps(max_radius=10**4)):
        handed.clear()
        s = orbit_sweep(ctx, M, RoundingMode.FLOOR, caps)
        assert (s.histogram, s.undetermined, s.escaped) == _per_start_summary(
            ctx, M, RoundingMode.FLOOR, caps), caps
        assert s.scalar_starts == len(handed) == 33 and set(handed) == leaving, caps


def test_tiny_bands_keep_sweeps_and_period8(monkeypatch):
    # seven-point bands: one successor row per band, seven chains at a time
    cases = [(text, mode) for text in ("pi/4", "pyth:3,4,5", "rad:~1.0") for mode in RoundingMode]
    sweeps = [orbit_sweep(context_from_text(text), 12, mode) for text, mode in cases]
    period8 = [verify_period8(3000, strict_boundary=True), verify_period8(3000, open_endpoints=True)]
    monkeypatch.setattr(kernels, "_BAND_POINTS", 7)
    assert [orbit_sweep(context_from_text(text), 12, mode) for text, mode in cases] == sweeps
    assert [
        verify_period8(3000, strict_boundary=True), verify_period8(3000, open_endpoints=True)
    ] == period8
