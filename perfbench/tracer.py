"""Per-layer spans for the traced run, installed from outside the program.

`Tracer.install()` wraps the public entry points of each latrot module at
every module that holds a reference to them: census and kernels import
floor_exact, compare and discrete_rotate by name, so each of those names
is replaced where it is bound.  The program's code is unchanged, and
`uninstall()` puts every original back.

Each span's self time is its duration minus the time of the wrapped spans
it called.  A bucket re-entered from inside itself counts one call; its
time is still counted once, as self time.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict

import latrot
from latrot import angle, census, cli, exactnum, kernels, orbits, rotation, udist

_MODULES = (latrot, cli, angle, census, kernels, exactnum, rotation, udist, orbits)


def _ceil_sqrt2(m: int) -> int:
    return 0 if m == 0 else math.isqrt(2 * m * m) + 1


def _census_domain(report) -> int:
    """Points in the window the census scans, as census.py sizes it."""
    M = report.M
    if report.method is census.Method.BRUTE_FORCE:
        R = _ceil_sqrt2(M + 2) + 2
    elif report.kind is census.CensusKind.COLLISIONS:
        R = _ceil_sqrt2(M) + 2
    else:
        R = _ceil_sqrt2(M + 1) + 2
    return (2 * R + 1) ** 2


def _udist_pairs(args) -> int:
    M = args[2]
    parity = args[3] if len(args) > 3 else udist.Parity.ALL
    n = 2 * M + 1 if parity is udist.Parity.ALL else 2 * ((M + 1) // 2)
    return n * n


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.work = defaultdict(int)
        self._child = []  # time of wrapped children, per open span
        self._depth = defaultdict(int)
        self._undo = []
        self.reset()

    def reset(self):
        for d in (self.self_s, self.incl_s, self.calls, self.work, self._depth):
            d.clear()
        self._child.clear()
        self.max_bits = 0
        self.escalations = 0
        self._eval_depth = 0

    # ------------------------------------------------------------------

    def wrap(self, bucket, fn, work=None):
        """Span around fn; work(args, result) -> units of work done."""
        perf = time.perf_counter
        child, depth = self._child, self._depth
        self_s, incl_s, calls, work_n = self.self_s, self.incl_s, self.calls, self.work

        def span(*args, **kwargs):
            t0 = perf()
            child.append(0.0)
            depth[bucket] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                self_s[bucket] += dt - child.pop()
                if child:
                    child[-1] += dt
                depth[bucket] -= 1
            if not depth[bucket]:
                calls[bucket] += 1
                incl_s[bucket] += dt
                if work is not None:
                    work_n[bucket] += work(args, result)
            return result

        span.__wrapped__ = fn
        return span

    def _set(self, owner, name, value):
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _patch(self, home, name, bucket, work=None):
        original = getattr(home, name)
        wrapped = self.wrap(bucket, original, work)
        for mod in _MODULES:
            if mod.__dict__.get(name) is original:
                self._set(mod, name, wrapped)

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        P = self._patch
        P(cli, "main", "cli")
        P(angle, "context_from_text", "angle")
        for name in ("collision_census", "hole_census", "brute_force_census"):
            P(census, name, "census", lambda a, r: _census_domain(r))
        for name in ("discrete_rotate", "rotate", "quantize"):
            P(rotation, name, "rotation")
        for name in ("collision_site_exact", "hole_pattern_exact"):
            P(census, name, "census.redecide")
        # census's own discrete_rotate re-decides flagged points; elsewhere
        # the name stays a plain rotation span
        self._set(census, "discrete_rotate",
                  self.wrap("census.redecide", census.discrete_rotate))
        P(exactnum, "floor_exact", "exactnum.floor")
        P(exactnum, "compare", "exactnum.compare")
        for name in ("count_solutions", "count_solutions_residue"):
            P(udist, name, "udist", lambda a, r: _udist_pairs(a))
        P(orbits, "orbit_sweep", "orbits", lambda a, r: (2 * a[1] + 1) ** 2)
        P(orbits, "verify_period8", "orbits", lambda a, r: len(r.candidates))

        points = lambda a, r: a[1].size
        for cls, bucket in ((kernels.QuadForm, "kernels.quad"), (kernels.FloatForm, "kernels.float")):
            for name in ("floor", "frac_lt", "frac_zero"):
                self._set(cls, name, self.wrap(bucket, cls.__dict__[name], points))
        for name in ("exact_floor", "exact_frac_lt", "exact_frac_zero"):
            self._set(kernels.LinearForm, name,
                      self.wrap("kernels.fallback", kernels.LinearForm.__dict__[name]))

        make_step = kernels.make_step

        def traced_make_step(*args, **kwargs):
            return self.wrap("kernels.step", make_step(*args, **kwargs))

        for mod in _MODULES:
            if mod.__dict__.get("make_step") is make_step:
                self._set(mod, "make_step", traced_make_step)

        hp_eval = exactnum.HighPrec.eval

        def traced_eval(hp, bits):
            # only evals asked for by a decision (not by a parent node) count
            if self._eval_depth == 0:
                self.max_bits = max(self.max_bits, bits)
                if bits > hp.precision_bits:
                    self.escalations += 1
            self._eval_depth += 1
            try:
                return hp_eval(hp, bits)
            finally:
                self._eval_depth -= 1

        self._set(exactnum.HighPrec, "eval", traced_eval)
        return self

    def uninstall(self):
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # ------------------------------------------------------------------

    def metrics(self) -> dict:
        s, c, w = self.self_s, self.calls, self.work
        rate = lambda n, t: n / t if t > 0 else 0.0
        kernel_s = sum(s[b] for b in ("kernels.quad", "kernels.float",
                                      "kernels.fallback", "kernels.step"))
        return {
            "kernels.quad.pts": w["kernels.quad"],
            "kernels.quad.busy_s": s["kernels.quad"],
            "kernels.quad.pts_per_s": rate(w["kernels.quad"], s["kernels.quad"]),
            "kernels.float.pts": w["kernels.float"],
            "kernels.float.busy_s": s["kernels.float"],
            "kernels.float.pts_per_s": rate(w["kernels.float"], s["kernels.float"]),
            "kernels.fallback_pts": c["kernels.fallback"],
            "kernels.fallback_s": s["kernels.fallback"],
            "kernels.steps": c["kernels.step"],
            "kernels.step_s": s["kernels.step"],
            "kernels.busy_s": kernel_s,
            "census.calls": c["census"],
            "census.self_s": s["census"],
            "census.domain_pts": w["census"],
            "census.redecided": c["census.redecide"],
            "census.redecide_s": s["census.redecide"],
            "census.redecided_frac": rate(c["census.redecide"], w["census"]),
            "exactnum.floor_calls": c["exactnum.floor"],
            "exactnum.compare_calls": c["exactnum.compare"],
            "exactnum.busy_s": s["exactnum.floor"] + s["exactnum.compare"],
            "exactnum.max_bits": self.max_bits,
            "exactnum.escalations": self.escalations,
            "rotation.calls": c["rotation"],
            "rotation.busy_s": s["rotation"],
            "udist.calls": c["udist"],
            "udist.self_s": s["udist"],
            "udist.pairs": w["udist"],
            "orbits.starts": w["orbits"],
            "orbits.self_s": s["orbits"],
            "orbits.steps_per_s": rate(c["kernels.step"], self.incl_s["orbits"]),
            "angle.resolve_calls": c["angle"],
            "angle.resolve_s": s["angle"],
            "cli.self_s": s["cli"],
            "trace.self_sum_s": sum(s.values()),
        }
