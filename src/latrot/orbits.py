"""Orbit iteration, cycle detection, and the period-8 family at 45 degrees.

Cycle detection of one start uses a visited-map (giving preperiod and
period in one pass) with Brent's constant-memory algorithm as the
fallback for runs whose step budget exceeds the memory budget.

Window sweeps read every start's eventual period off one successor
array, kernels._square_images at M = R, which the brute-force census
histograms too: it maps every point of a window |x|,|y| <= R, a margin
past the domain radius of the start window, to its image's index; an
image outside the window goes to a sink, its own successor.  Pointer
doubling runs in two phases.  The first doubles jump = jump[jump] alone
until its image stops shrinking: that image is then the cycle nodes, so
jump lands every node on its cycle and the previous round's 2^k bounds
every node's depth.  The second runs over the cycle nodes only, numbered
in node order, rounds of label = min(label, label[next]) and
next = next[next] until no label changes, which labels each cycle by its
smallest node's number; a cycle's period is the count of its label among
the cycle nodes.

The caps are read off the same array, so every start is answered as
detect_cycle answers it.  A max_radius inside the window turns the sink
into an escape, and a binding max_steps is checked against each node's
exact tail, from a breadth-first search back from the cycle nodes.
Only starts whose orbits leave the wider retry window go to
detect_cycle one by one.

The period-8 family is checked in lockstep: every candidate's
eight-step chain runs through the same image kernel.  All 45-degree
arithmetic is exact: floors of k/sqrt(2) and k*sqrt(2) are integer
square-root comparisons, never floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .angle import AngleContext, PiMultiple, resolve
from .errors import HypothesisViolated
from .exactnum import compare, floor_exact, frac_in, frac_part, quad, rational
from .kernels import (
    _SQRT_SAFE, _bands, _domain_radius, _exact_images, _sorted_points, _square_images,
    _window_index, image_forms, make_step, visqrt,
)
from .rotation import LatticePoint, RoundingMode, discrete_rotate


class OrbitStatus(Enum):
    PERIODIC = "periodic"
    UNDETERMINED = "undetermined"
    ESCAPED = "escaped"


@dataclass(frozen=True)
class OrbitCaps:
    max_steps: int = 10**6
    max_radius: int | None = None  # default: 10^6 * |start|_inf + 10^3
    memory_states: int = 2 * 10**6  # beyond this, Brent's algorithm

    def radius_for(self, start: LatticePoint) -> int:
        if self.max_radius is not None:
            return self.max_radius
        return 10**6 * max(abs(start[0]), abs(start[1])) + 10**3


@dataclass
class OrbitRecord:
    start: LatticePoint
    preperiod: int
    period: int | None
    status: OrbitStatus
    max_norm: int
    steps_used: int


@dataclass
class SweepSummary:
    M: int
    histogram: dict[int, int]
    undetermined: int
    escaped: int
    absorbed_all: bool | None = None  # trunc mode: every orbit reached (0,0)?
    scalar_starts: int = field(default=0, compare=False)  # starts detect_cycle answered alone
    redecided_pts: int = field(default=0, compare=False)  # flagged images re-decided exactly
    doubling_rounds: int = field(default=0, compare=False)  # pointer doubling's array rounds
    cycle_nodes: int = field(default=0, compare=False)  # nodes on a cycle, the sink included

    @property
    def total(self) -> int:
        return sum(self.histogram.values()) + self.undetermined + self.escaped


def _norm(p: LatticePoint) -> int:
    return max(abs(p[0]), abs(p[1]))


def detect_cycle(
    ctx: AngleContext,
    start: LatticePoint,
    mode: RoundingMode = RoundingMode.FLOOR,
    caps: OrbitCaps = OrbitCaps(),
) -> OrbitRecord:
    """First revisited state wins; caps turn non-termination into a
    reported status instead of a hang."""
    step = make_step(ctx, mode)
    radius = caps.radius_for(start)
    if caps.max_steps > caps.memory_states:
        return _detect_brent(start, step, caps, radius)
    seen = {start: 0}
    p = start
    maxn = _norm(start)
    steps = 0
    while steps < caps.max_steps:
        p = step(p)
        steps += 1
        maxn = max(maxn, _norm(p))
        if maxn > radius:
            return OrbitRecord(start, 0, None, OrbitStatus.ESCAPED, maxn, steps)
        if p in seen:
            pre = seen[p]
            return OrbitRecord(
                start, pre, steps - pre, OrbitStatus.PERIODIC, maxn, steps
            )
        seen[p] = steps
    return OrbitRecord(start, 0, None, OrbitStatus.UNDETERMINED, maxn, steps)


def _detect_brent(start, step, caps, radius) -> OrbitRecord:
    """Brent's search, answered as the visited map answers: a cycle is
    periodic when mu + lam <= max_steps, and the search, which finds any
    such cycle within 3 * max_steps steps, runs that far."""
    limit = 3 * caps.max_steps
    power = lam = 1
    tortoise = start
    hare = step(start)
    steps = 1
    maxn = max(_norm(start), _norm(hare))
    while maxn <= radius and tortoise != hare and steps < limit:
        if power == lam:
            tortoise = hare
            power *= 2
            lam = 0
        hare = step(hare)
        steps += 1
        lam += 1
        maxn = max(maxn, _norm(hare))
    if maxn > radius:  # no cycle closes before the first step beyond the radius
        status = OrbitStatus.ESCAPED if steps <= caps.max_steps else OrbitStatus.UNDETERMINED
        return OrbitRecord(start, 0, None, status, maxn, steps)
    if tortoise != hare:
        return OrbitRecord(start, 0, None, OrbitStatus.UNDETERMINED, maxn, steps)
    tortoise = hare = start
    for _ in range(lam):
        hare = step(hare)
        steps += 1
    mu = 0
    while tortoise != hare:
        tortoise = step(tortoise)
        hare = step(hare)
        steps += 2
        mu += 1
    if mu + lam > caps.max_steps:
        return OrbitRecord(start, 0, None, OrbitStatus.UNDETERMINED, maxn, steps)
    return OrbitRecord(start, mu, lam, OrbitStatus.PERIODIC, maxn, steps)


def orbit_path(
    ctx: AngleContext,
    start: LatticePoint,
    mode: RoundingMode = RoundingMode.FLOOR,
    n_steps: int = 16,
) -> list[LatticePoint]:
    """start and its first n_steps images (length n_steps + 1)."""
    step = make_step(ctx, mode)
    out = [start]
    p = start
    for _ in range(n_steps):
        p = step(p)
        out.append(p)
    return out


def orbit_sweep(
    ctx: AngleContext,
    M: int,
    mode: RoundingMode = RoundingMode.FLOOR,
    caps: OrbitCaps = OrbitCaps(),
) -> SweepSummary:
    """Eventual period of every start in |x|,|y| <= M, each answered as
    detect_cycle answers it under the same caps.

    Read off the successor array of a window |x|,|y| <= R that holds
    every start with a margin for the orbits' drift; a window where some
    start's orbit leaves it is retried once with the wider margin.

    A max_radius inside the window makes the sink an escape: every state
    beyond the radius, and every image beyond it, goes there, so a start
    escapes at its steps to the sink.  A periodic start is answered at its
    tail plus its period.  Either answer is undetermined past max_steps;
    the exact tails are computed only when the depth bound plus the
    longest period passes it.  Otherwise the sink means the orbit left
    the window: detect_cycle answers those starts one by one, and
    scalar_starts counts them.  redecided_pts counts the flagged images
    the successor arrays re-decided exactly, and doubling_rounds the
    rounds of both doubling phases, over every window tried; cycle_nodes
    counts the cycle nodes of the window that answered.
    """
    if M < 0:
        raise ValueError(f"window M={M} is negative")
    redecided = rounds = 0
    # Floor orbits at generic angles drift further as M grows: rad:~0.3
    # needs 16 rows at M=200 and 32 at M=600, which the retry holds.
    for margin in (2, 8 + M // 8):
        R = _domain_radius(M) + margin
        W = 2 * R + 1
        sink = W * W
        escapes = caps.max_radius is not None and caps.max_radius < R
        # int32 halves the pointer doubling's arrays
        dtype = np.int32 if sink < 2**31 - 1 else np.int64
        succ, flagged = _square_images(image_forms(ctx, mode, max_abs=R), mode, R, R, dtype=dtype)
        redecided += flagged
        if escapes:  # points beyond the radius, and their preimages, go to the sink
            beyond = np.abs(np.arange(-R, R + 1)) > caps.max_radius
            far = np.append(beyond[:, None] | beyond, True)
            succ[far | far[succ]] = sink
        jump, label, on_cycle, depth, passes = _cycles(succ)
        rounds += passes
        ends = label[_starts(jump, R, M)]  # the places in C of the starts' cycles
        del jump
        if escapes or not (ends == label[sink]).any():
            break
    to_sink = ends == label[sink]
    handed = np.zeros_like(to_sink) if escapes else to_sink
    # (0, 0) is fixed, so it labels its own cycle
    origin = label[_window_index(0, 0, R)]
    label = label[on_cycle]  # frees the node-sized labels before counting
    period = np.bincount(label)[ends]  # nodes on each start's cycle
    del label
    late = np.zeros_like(to_sink)
    if depth + int(period.max()) > caps.max_steps:
        tail = _starts(_tails(succ, on_cycle), R, M)
        late = np.where(to_sink, tail, tail + period) > caps.max_steps
    periodic = ~to_sink & ~late
    period[~periodic] = 0
    counts = np.bincount(period.ravel())
    values = np.flatnonzero(counts[1:]) + 1
    histogram = dict(zip(values.tolist(), counts[values].tolist()))
    undetermined = int(np.count_nonzero(late & ~handed))
    escaped = int(np.count_nonzero(to_sink & ~handed & ~late))
    absorbed = None
    if mode is RoundingMode.TRUNC:
        # trunc never grows a point's norm, so no trunc orbit leaves the window
        absorbed = bool((periodic & (ends == origin)).all())
    for start in _sorted_points(np.flatnonzero(handed), M):
        rec = detect_cycle(ctx, start, mode, caps)
        if rec.status is OrbitStatus.PERIODIC:
            histogram[rec.period] = histogram.get(rec.period, 0) + 1
        undetermined += rec.status is OrbitStatus.UNDETERMINED
        escaped += rec.status is OrbitStatus.ESCAPED
    return SweepSummary(
        M, dict(sorted(histogram.items())), undetermined, escaped, absorbed,
        scalar_starts=int(np.count_nonzero(handed)), redecided_pts=redecided,
        doubling_rounds=rounds, cycle_nodes=int(np.count_nonzero(on_cycle)),
    )


def _starts(a, R, M):
    """The entries of a, an array over the window |x|,|y| <= R (and the
    sink), at the starts |x|,|y| <= M, as a (2M+1, 2M+1) view."""
    W = 2 * R + 1
    return a[:W * W].reshape(W, W)[R - M:R + M + 1, R - M:R + M + 1]


def _cycles(succ):
    """Cycles of the functional graph succ, by pointer doubling in two
    phases; succ is not written.

    Phase 1 doubles jump = succ^(2^k) alone.  The images of succ^m shrink
    as m grows, and once two in a row agree they stay put, at the cycle
    nodes C.  So when the image of succ^(2^k) is no smaller than that of
    succ^(2^(k-1)), the latter is C: every node lies at most
    depth = 2^(k-1) steps before its cycle, and jump lands every node on C.

    Phase 2 runs over C alone, numbered by place in node order, with
    next = succ on C: rounds of label = min(label, label[next]) and
    next = next[next] leave label[i] the least place among i's next 2^r
    nodes, and stop on the first round that changes no label.  While some
    cycle is longer than 2^r, the node 2^r steps before its least place
    still changes, so by then every cycle node carries the place of its
    cycle's smallest node.

    Returns (jump, label, on_cycle, depth, rounds), where label, set on
    the cycle nodes only, holds places in C, and rounds counts the rounds
    of both phases.
    """
    on_cycle = np.zeros(succ.size, dtype=bool)
    size, rounds = _mark(on_cycle, succ), 0
    jump, spare = succ, np.empty_like(succ)
    while True:  # the first round's jump is succ, which must not become the spare
        jump, spare = _gather(jump, jump, spare), jump if rounds else np.empty_like(succ)
        rounds += 1
        shrunk, size = size, _mark(on_cycle, jump)
        if size == shrunk:
            break
    depth = 2 ** (rounds - 1)
    # the spare array maps each cycle node to its place in C, and then
    # holds the labels
    label = spare
    least = np.arange(size, dtype=succ.dtype)
    label[on_cycle] = least
    nxt = _gather(label, succ[on_cycle], np.empty_like(least))
    got = np.empty_like(least)
    while True:
        _gather(least, nxt, got)
        rounds += 1
        if not (got < least).any():
            break
        np.minimum(least, got, out=least)
        nxt, got = _gather(nxt, nxt, got), nxt
    label[on_cycle] = least
    return jump, label, on_cycle, depth, rounds


def _gather(a, idx, out):
    """out = a[idx] for node numbers idx, each in range by construction.
    Band by band, since np.take copies its indices to intp and a band's
    copy stays small where an int32 array's would double it; with
    mode="clip", since mode="raise" also buffers out."""
    for lo, hi in _bands(0, idx.size - 1, 1):
        np.take(a, idx[lo:hi + 1], out=out[lo:hi + 1], mode="clip")
    return out


def _mark(flags, idx) -> int:
    """Set flags to the image of idx and return its size.  Indexed
    assignment is twice as fast with intp indices, cast band by band."""
    flags[:] = False
    for lo, hi in _bands(0, idx.size - 1, 1):
        flags[idx[lo:hi + 1].astype(np.intp, copy=False)] = True
    return int(np.count_nonzero(flags))


def _tails(succ, on_cycle) -> np.ndarray:
    """tail[i], the steps from node i to its cycle, by a breadth-first
    search back from the cycle nodes: the tail nodes, sorted by successor,
    list each node's predecessors from offsets counted per successor, and
    each level is the predecessors of the last."""
    tail = np.zeros(succ.size, dtype=succ.dtype)
    preds = np.flatnonzero(~on_cycle)
    to = succ[preds]
    preds = preds[np.argsort(to, kind="stable")]  # timsort gains on the runs rotations leave
    first = np.zeros(succ.size + 1, dtype=np.intp)
    np.cumsum(np.bincount(to, minlength=succ.size), out=first[1:])
    del to
    level, steps = np.flatnonzero(on_cycle), 0
    while level.size:
        steps += 1
        lo = first[level]
        count = first[level + 1] - lo
        ends = np.cumsum(count)
        level = preds[np.repeat(lo - ends + count, count) + np.arange(ends[-1])]
        tail[level] = steps
    return tail


# --------------------------------------------------------------------------
# The period-8 family at 45 degrees
# --------------------------------------------------------------------------

_SQRT2 = quad(0, 1, 2)
_INV_SQRT2 = quad(0, 1, 2, 2)
_ONE_MINUS_INV = quad(2, -1, 2, 2)  # 1 - 1/sqrt(2)


def quarter_turn_context() -> AngleContext:
    return resolve(PiMultiple(1, 4))


# a*a <= 2^51: visqrt(a*a // 2) stays inside visqrt's exact range, x < 2^52
PERIOD8_AMAX_LIMIT = math.isqrt(_SQRT_SAFE // 2)


def period8_candidates(a_max: int, closed_endpoints: bool = True) -> list[int]:
    """All a in [1, a_max] with w = floor(a/sqrt2) satisfying
    floor(sqrt2*w) = a-1 and {a/sqrt2} in [1-1/sqrt2, sqrt2-1].

    The interval test implies the floor one: with a/sqrt2 = w + f and
    f in [1-1/sqrt2, sqrt2-1], sqrt2*w = a - sqrt2*f lies in
    [a-(2-sqrt2), a-(sqrt2-1)], inside (a-1, a); so only the interval is
    tested (brute_force_period8_filter tests both).

    The right endpoint matters: the eight-step return chain branches on
    {a/sqrt2} against sqrt2-1 at its fifth step, and every a beyond that
    threshold demonstrably breaks the chain (a = 5 already does).  Pure
    integer square comparisons throughout, vectorized in int64 below
    PERIOD8_AMAX_LIMIT; the left endpoint is never attained, the right one
    exactly at a = 2, which closed_endpoints keeps (the chain does close
    there).
    """
    return _period8_candidates(a_max, closed_endpoints).tolist()


def _period8_candidates(a_max: int, closed_endpoints: bool) -> np.ndarray:
    """period8_candidates as one int64 array."""
    if a_max > PERIOD8_AMAX_LIMIT:
        raise ValueError(
            f"a_max={a_max} exceeds {PERIOD8_AMAX_LIMIT}, past which the integer "
            "square roots are no longer exact"
        )
    # settled by hand: a = 1 fails the right endpoint's test (a - 2 = -1 >
    # sqrt2*(w - 1) = -sqrt2), and a = 2 sits exactly on that endpoint
    out = [np.array([2] if closed_endpoints and a_max >= 2 else [], dtype=np.int64)]
    for lo, hi in _bands(3, a_max, 1):
        a = np.arange(lo, hi + 1, dtype=np.int64)
        u = a * a
        u >>= 1
        w = visqrt(u)  # floor(a/sqrt2) = isqrt(floor(a*a/2))
        # {a/sqrt2} >= 1 - 1/sqrt2  <=>  (a+1)^2 >= 2(w+1)^2
        np.add(a, 1, out=u)
        u *= u
        v = w + 1
        v *= v
        v <<= 1
        ok = u >= v
        # {a/sqrt2} <= sqrt2 - 1  <=>  a - 2 <= sqrt2*(w - 1), where both
        # sides are positive for a >= 3 and never equal
        np.subtract(a, 2, out=u)
        u *= u
        np.subtract(w, 1, out=v)
        v *= v
        v <<= 1
        ok &= u < v
        out.append(a[ok])
    return np.concatenate(out)


_SQRT2_MINUS_1 = quad(-1, 1, 2)


def brute_force_period8_filter(a_max: int) -> list[int]:
    """Independent route: the same conditions evaluated through the
    generic exact-scalar machinery, plus an actual 8-fold iteration of
    the scalar-level discretized map."""
    ctx = quarter_turn_context()
    out = []
    for a in range(1, a_max + 1):
        s = _INV_SQRT2 * a
        w = floor_exact(s)
        if floor_exact(_SQRT2 * w) != a - 1:
            continue
        if not frac_in(s, _ONE_MINUS_INV, _SQRT2_MINUS_1, True, True):
            continue
        p = (a, 0)
        for _ in range(8):
            p = discrete_rotate(ctx, p)
        if p == (a, 0):
            out.append(a)
    return out


@dataclass
class IdentityCheck:
    name: str
    value: int
    expected: int

    @property
    def ok(self) -> bool:
        return self.value == self.expected


def verify_helper_identities(a: int) -> list[IdentityCheck]:
    """The floor identities behind the period-8 argument, with their
    case splits, all in exact sqrt(2) arithmetic.

    Requires floor(sqrt2 * floor(a/sqrt2)) = a - 1; raises
    HypothesisViolated otherwise.
    """
    s = _INV_SQRT2 * a
    w = floor_exact(s)
    if floor_exact(_SQRT2 * w) != a - 1:
        raise HypothesisViolated(f"floor(sqrt2*floor(a/sqrt2)) != {a - 1}")
    f = frac_part(s)
    fw = _SQRT2 * w - (a - 1)  # {sqrt2*w} under the hypothesis
    checks = [
        IdentityCheck(
            "floor((1-a)/sqrt2) == -w",
            floor_exact(_INV_SQRT2 * (1 - a)),
            -w,
        ),
        IdentityCheck(
            "floor((a-1)/sqrt2) == w-1 (w at a=1)",
            floor_exact(_INV_SQRT2 * (a - 1)),
            w if a == 1 else w - 1,
        ),
        IdentityCheck(
            "floor((a+1)/sqrt2) == w or w+1 by {a/sqrt2} vs 1-1/sqrt2",
            floor_exact(_INV_SQRT2 * (a + 1)),
            w if compare(f, _ONE_MINUS_INV) < 0 else w + 1,
        ),
        IdentityCheck(
            "floor(sqrt2 - a/sqrt2) == -w or -w+1 by {a/sqrt2} vs sqrt2-1",
            floor_exact(_SQRT2 - _INV_SQRT2 * a),
            -w if compare(f, _SQRT2 - rational(1)) > 0 else -w + 1,
        ),
        IdentityCheck(
            "floor(sqrt2*(w+1)) == a or a+1 by {sqrt2*w}+{sqrt2} vs 1",
            floor_exact(_SQRT2 * (w + 1)),
            a if compare(fw + _SQRT2 - rational(1), rational(1)) < 0 else a + 1,
        ),
        IdentityCheck(
            "floor(1/sqrt2 - sqrt2*w) == -a or -a+1 by {sqrt2*w} vs 1/sqrt2",
            floor_exact(_INV_SQRT2 - _SQRT2 * w),
            -a if compare(fw, _INV_SQRT2) > 0 else -a + 1,
        ),
    ]
    return checks


@dataclass
class Period8Report:
    a_max: int
    candidates: np.ndarray  # int64, ascending
    verified: int
    boundary: list[int]
    violators: list[tuple[int, list[LatticePoint]]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violators

    def __eq__(self, other):
        # the generated __eq__ would compare the candidates entry by entry
        if not isinstance(other, Period8Report):
            return NotImplemented
        return np.array_equal(self.candidates, other.candidates) and (
            self.a_max, self.verified, self.boundary, self.violators
        ) == (other.a_max, other.verified, other.boundary, other.violators)


def verify_period8(
    a_max: int, strict_boundary: bool = False, open_endpoints: bool = False
) -> Period8Report:
    """Check r^8(a,0) = (a,0) for every candidate (minimal period may
    divide 8).

    a = 1 is the known boundary case: it satisfies the floor hypothesis
    and sits exactly on the endpoint of the wider interval
    [1-1/sqrt2, 1/sqrt2], yet (1,0) falls onto the fixed point (0,0)
    after one step.  It is reported separately; strict_boundary=True
    treats it as a candidate so its failure shows up as a violation.

    The chains run in lockstep, a band of candidates at a time, keeping
    only their last step; a violator's chain is run again alone.
    """
    candidates = _period8_candidates(a_max, closed_endpoints=not open_endpoints)
    check = candidates
    boundary: list[int] = []
    if a_max >= 1:
        if strict_boundary:
            check = np.concatenate(([1], candidates))  # 1 is never a candidate
        else:
            boundary.append(1)
    ctx = quarter_turn_context()
    max_abs = a_max + 12  # eight steps drift at most 8*sqrt2 from |(a, 0)|
    forms = image_forms(ctx, RoundingMode.FLOOR, max_abs=max_abs)
    verified = 0
    violators: list[tuple[int, list[LatticePoint]]] = []
    for lo, hi in _bands(0, check.size - 1, 1):
        a = check[lo:hi + 1]
        for X, Y in _eight_steps(forms, a, max_abs):
            pass  # each step frees the one before
        back = (X == a) & (Y == 0)
        verified += int(np.count_nonzero(back))
        bad = a[~back]
        if bad.size:
            chain = [(bad, np.zeros_like(bad)), *_eight_steps(forms, bad, max_abs)]
            for i, start in enumerate(bad.tolist()):
                violators.append((start, [(int(cx[i]), int(cy[i])) for cx, cy in chain]))
    return Period8Report(a_max, candidates, verified, boundary, violators)


def _eight_steps(forms, a, max_abs):
    """The points (X, Y) after each of eight steps from every (a, 0), in
    lockstep through the image kernel."""
    X, Y = a, np.zeros_like(a)
    for _ in range(8):
        X, Y, _ = _exact_images(forms, X, Y, RoundingMode.FLOOR)
        if max(X.max(), Y.max(), -X.min(), -Y.min()) > max_abs:
            raise ArithmeticError("a period-8 chain left the window its forms are exact on")
        yield X, Y
