"""Orbit iteration, cycle detection, and the period-8 family at 45 degrees.

Cycle detection of one start uses a visited-map (giving preperiod and
period in one pass) with Brent's constant-memory algorithm as the
fallback for runs whose step budget exceeds the memory budget.

Window sweeps read every start's eventual period off one successor
array.  The exact image kernel the censuses run (kernels._exact_images)
maps every point of a window |x|,|y| <= R, a margin past the domain
radius of the start window, to its image's index; an image outside the
window goes to a sink, its own successor.  Pointer doubling, rounds of
label = min(label, label[jump]) and jump = jump[jump] until 2^k steps
cover every node's depth and every cycle, lands every node on its cycle
and labels each cycle by its smallest node, so a cycle's period is the
count of its label among the cycle nodes.

The caps are read off the same array, so every start is answered as
detect_cycle answers it.  A max_radius inside the window turns the sink
into an escape, and a binding max_steps is checked against each node's
exact tail, from one pass back from the cycle nodes.  Only starts whose
orbits leave the wider retry window go to detect_cycle one by one.

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
from .kernels import _SQRT_SAFE, _band, _bands, _domain_radius, _exact_images, image_forms, make_step, visqrt
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
    the successor arrays re-decided exactly, over every window tried.
    """
    if M < 0:
        raise ValueError(f"window M={M} is negative")
    redecided = 0
    # Floor orbits at generic angles drift further as M grows: rad:~0.3
    # needs 16 rows at M=200 and 32 at M=600, which the retry holds.
    for margin in (2, 8 + M // 8):
        R = _domain_radius(M) + margin
        W = 2 * R + 1
        sink = W * W
        escapes = caps.max_radius is not None and caps.max_radius < R
        succ, flagged = _successors(ctx, mode, R, caps.max_radius)
        redecided += flagged
        jump, label, on_cycle, depth = _cycles(succ)
        ends = label[_starts(jump, R, M)]
        del jump
        if escapes or not (ends == sink).any():
            break
    to_sink = ends == sink
    handed = np.zeros_like(to_sink) if escapes else to_sink
    label = label[on_cycle]
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
        # (0, 0) is fixed, so it labels its own cycle; trunc never grows a
        # point's norm, so no trunc orbit leaves the window
        absorbed = bool((periodic & (ends == R * W + R)).all())
    for i in np.flatnonzero(handed):
        y, x = divmod(int(i), 2 * M + 1)
        rec = detect_cycle(ctx, (x - M, y - M), mode, caps)
        if rec.status is OrbitStatus.PERIODIC:
            histogram[rec.period] = histogram.get(rec.period, 0) + 1
        undetermined += rec.status is OrbitStatus.UNDETERMINED
        escaped += rec.status is OrbitStatus.ESCAPED
    return SweepSummary(
        M, dict(sorted(histogram.items())), undetermined, escaped, absorbed,
        scalar_starts=int(np.count_nonzero(handed)), redecided_pts=redecided,
    )


def _starts(a, R, M):
    """The entries of a, an array over the window |x|,|y| <= R (and the
    sink), at the starts |x|,|y| <= M, as a (2M+1, 2M+1) view."""
    W = 2 * R + 1
    return a[:W * W].reshape(W, W)[R - M:R + M + 1, R - M:R + M + 1]


def _successors(ctx, mode, R, radius) -> tuple[np.ndarray, int]:
    """(succ, redecided): succ[i] is the index of the image of point i of
    |x|,|y| <= R (row by row, x fastest); every image outside the window
    goes to the sink, index (2R+1)^2, which is its own successor.  A
    radius (None for none) inside the window sends every point beyond
    it, and every image beyond it, to the sink too.  redecided counts
    the flagged points whose images were re-decided exactly."""
    W = 2 * R + 1
    sink = W * W
    bound = R if radius is None else min(R, radius)
    succ = np.empty(sink + 1, dtype=np.int32 if sink < 2**31 - 1 else np.int64)
    succ[sink] = sink
    forms = image_forms(ctx, mode, max_abs=R)
    cols = np.arange(-R, R + 1, dtype=np.int64)
    redecided = 0
    for blo, bhi in _bands(-R, R, W):
        A, B = _band(cols, blo, bhi)
        X, Y, flagged = _exact_images(forms, A, B, mode)
        redecided += flagged
        inside = (np.abs(X) <= bound) & (np.abs(Y) <= bound)
        if bound < R:
            inside &= (np.abs(A) <= bound) & (np.abs(B) <= bound)
        succ[(blo + R) * W:(bhi + R + 1) * W] = np.where(inside, (Y + R) * W + X + R, sink).ravel()
    return succ, redecided


def _cycles(succ):
    """Pointer doubling on the functional graph succ.

    Round k sets label = min(label, label[jump]) and then jump = jump[jump],
    so jump = succ^(2^k) and label[i] is the smallest node among i's next
    2^k.  The image of jump shrinks to the cycle nodes; once it stops
    shrinking every node of the previous image is on a cycle, and once label
    agrees along every cycle each cycle node carries its cycle's smallest
    node.  Returns (jump, label, on_cycle, depth), where every node lies at
    most depth steps before its cycle.
    """
    jump = succ.copy()
    label = np.arange(succ.size, dtype=succ.dtype)
    on_cycle = np.zeros(succ.size, dtype=bool)
    on_cycle[succ] = True
    size = np.count_nonzero(on_cycle)
    rounds = 0
    while True:
        np.minimum(label, label[jump], out=label)
        jump = jump[jump]
        rounds += 1
        on_cycle[:] = False
        on_cycle[jump] = True
        shrunk, size = size, np.count_nonzero(on_cycle)
        if size == shrunk and ((label[succ] == label) | ~on_cycle).all():
            return jump, label, on_cycle, 2 ** (rounds - 1)


def _tails(succ, on_cycle) -> np.ndarray:
    """tail[i], the steps from node i to its cycle, by one pass back from
    the cycle nodes: a node is one step further than its successor."""
    tail = np.full(succ.size, -1, dtype=succ.dtype)
    tail[on_cycle] = 0
    todo = np.flatnonzero(~on_cycle)
    level = 0
    while todo.size:
        level += 1
        ready = tail[succ[todo]] == level - 1
        tail[todo[ready]] = level
        todo = todo[~ready]
    return tail


# --------------------------------------------------------------------------
# The period-8 family at 45 degrees
# --------------------------------------------------------------------------

_SQRT2 = quad(0, 1, 2)
_INV_SQRT2 = quad(0, 1, 2, 2)
_ONE_MINUS_INV = quad(2, -1, 2, 2)  # 1 - 1/sqrt(2)


def quarter_turn_context() -> AngleContext:
    return resolve(PiMultiple(1, 4))


PERIOD8_AMAX_LIMIT = math.isqrt(_SQRT_SAFE // 2)  # 2*a^2 stays where visqrt is exact


def period8_candidates(a_max: int, closed_endpoints: bool = True) -> list[int]:
    """All a in [1, a_max] with w = floor(a/sqrt2) satisfying
    floor(sqrt2*w) = a-1 and {a/sqrt2} in [1-1/sqrt2, sqrt2-1].

    The right endpoint matters: the eight-step return chain branches on
    {a/sqrt2} against sqrt2-1 at its fifth step, and every a beyond that
    threshold demonstrably breaks the chain (a = 5 already does).  Pure
    integer square comparisons throughout, vectorized in int64 below
    PERIOD8_AMAX_LIMIT; the left endpoint is never attained, the right one
    exactly at a = 2, which closed_endpoints keeps (the chain does close
    there).
    """
    if a_max > PERIOD8_AMAX_LIMIT:
        raise ValueError(
            f"a_max={a_max} exceeds {PERIOD8_AMAX_LIMIT}, past which the integer "
            "square roots are no longer exact"
        )
    out: list[int] = []
    for lo, hi in _bands(1, a_max, 1):
        a = np.arange(lo, hi + 1, dtype=np.int64)
        w = visqrt(a * a // 2)  # floor(a/sqrt2)
        ok = ((a - 1) ** 2 <= 2 * w * w) & (2 * w * w < a * a)  # floor(sqrt2*w) = a-1
        ok &= (a + 1) ** 2 >= 2 * (w + 1) ** 2  # {a/sqrt2} >= 1 - 1/sqrt2
        # {a/sqrt2} <= sqrt2 - 1  <=>  a - 2 <= sqrt2*(w - 1)
        s, t = a - 2, w - 1
        ok &= np.where(t >= 0, (s <= 0) | (s * s < 2 * t * t), (s < 0) & (s * s > 2 * t * t))
        if not closed_endpoints:
            ok &= (s != 0) | (t != 0)  # a = 2 sits exactly on the endpoint
        out += a[ok].tolist()
    return out


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
    candidates: list[int]
    verified: int
    boundary: list[int]
    violators: list[tuple[int, list[LatticePoint]]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violators


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
    """
    candidates = period8_candidates(a_max, closed_endpoints=not open_endpoints)
    check = list(candidates)
    boundary: list[int] = []
    if a_max >= 1:
        if strict_boundary:
            check = sorted(set(check) | {1})
        else:
            boundary.append(1)
    ctx = quarter_turn_context()
    max_abs = a_max + 12  # eight steps drift at most 8*sqrt2 from |(a, 0)|
    forms = image_forms(ctx, RoundingMode.FLOOR, max_abs=max_abs)
    verified = 0
    violators: list[tuple[int, list[LatticePoint]]] = []
    for lo, hi in _bands(0, len(check) - 1, 1):
        a = np.asarray(check[lo:hi + 1], dtype=np.int64)
        X, Y = a, np.zeros_like(a)
        chain = [(X, Y)]
        for _ in range(8):
            X, Y, _ = _exact_images(forms, X, Y, RoundingMode.FLOOR)
            if max(np.abs(X).max(), np.abs(Y).max()) > max_abs:
                raise ArithmeticError("a period-8 chain left the window its forms are exact on")
            chain.append((X, Y))
        back = (X == a) & (Y == 0)
        verified += int(np.count_nonzero(back))
        for i in np.flatnonzero(~back):
            violators.append((int(a[i]), [(int(cx[i]), int(cy[i])) for cx, cy in chain]))
    return Period8Report(a_max, candidates, verified, boundary, violators)
