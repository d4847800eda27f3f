"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.

Criterion 3 checks the growth law of each angle class: collision and
hole counts grow quadratically (fitted exponent in [1.7, 2.2]) at 45
degrees, at the rational 3-4-5 angle and at 1 radian.  For the two
irrational angles it also checks the density.  By Weyl's criterion the
rotated lattice points (x*cos - y*sin, x*sin + y*cos) mod Z^2 are
equidistributed unless integers (a, b) != (0, 0) make both
a*cos + b*sin and b*cos - a*sin integers; when cos is irrational no such
pair exists, even when sin = +-cos + r.  Both densities are then
2(1-|cos|)(1-|sin|) (3 - 2*sqrt(2) at 45 degrees), which the counts must
match within 0.5% at M = 1024.  Rational angles are left out of the
density check: there the points are not equidistributed, and 3-4-5
measures 0.2000 against the formula's 0.16.
"""

import random
import time

import pytest

from latrot.angle import Numeric, context_from_text, resolve
from latrot.census import (
    CensusKind,
    brute_force_census,
    collision_census,
    collision_preimages,
    growth_fit,
    hole_census,
)
from latrot.exactnum import floor_exact, highprec, rational
from latrot.kernels import make_step
from latrot.orbits import (
    OrbitCaps,
    brute_force_period8_filter,
    orbit_sweep,
    period8_candidates,
    verify_period8,
)
from latrot.rotation import RoundingMode, rotate_inverse
from latrot.udist import (
    InequalityBox,
    Parity,
    count_solutions,
    count_solutions_residue,
    gen_primitive_triples,
    verify_case3_congruences,
)

CARDINALS = ["0", "pi/2", "pi", "pi*3/2"]
ORACLE_ANGLES = ["pi/4", "pi/6", "pi/3", "pyth:3,4,5", "pyth:5,12,13"]
ORACLE_MS = [16, 32, 64]


def _criterion(n: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {n}: {detail}")
    assert ok, f"criterion {n}: {detail}"


def test_criterion_1_cardinal_bijectivity():
    t0 = time.perf_counter()
    worst = 0
    for text in CARDINALS:
        ctx = context_from_text(text)
        for M in (16, 64, 256):
            for run in (
                collision_census(ctx, M).count,
                hole_census(ctx, M).count,
                brute_force_census(ctx, M, RoundingMode.FLOOR, CensusKind.COLLISIONS).count,
                brute_force_census(ctx, M, RoundingMode.FLOOR, CensusKind.HOLES).count,
            ):
                worst = max(worst, run)
    dt = time.perf_counter() - t0
    _criterion(
        1, worst == 0 and dt < 5.0,
        f"cardinal censuses all zero (max={worst}) in {dt:.1f}s",
    )


def test_criterion_2_oracle_equivalence():
    t0 = time.perf_counter()
    mismatches = []
    modes = (RoundingMode.FLOOR, RoundingMode.ROUND)
    for text in ORACLE_ANGLES:
        ctx = context_from_text(text)
        for M in ORACLE_MS:
            for mode in modes:
                c = collision_census(ctx, M, mode, keep_points=True)
                co = brute_force_census(
                    ctx, M, mode, CensusKind.COLLISIONS, keep_points=True
                )
                h = hole_census(ctx, M, mode, keep_points=True)
                ho = brute_force_census(
                    ctx, M, mode, CensusKind.HOLES, keep_points=True
                )
                if (c.count, c.points) != (co.count, co.points):
                    mismatches.append((text, M, mode.value, "collisions"))
                if (h.count, h.points) != (ho.count, ho.points):
                    mismatches.append((text, M, mode.value, "holes"))
    dt = time.perf_counter() - t0
    _criterion(
        2, not mismatches and dt < 30.0,
        f"characterization == oracle for {len(ORACLE_ANGLES)} angles x "
        f"{ORACLE_MS} x floor, round (count and point set) in {dt:.1f}s"
        + (f"; mismatches={mismatches}" if mismatches else ""),
    )


def test_criterion_3_growth_dichotomy():
    t0 = time.perf_counter()
    Ms = [128, 256, 512, 1024]
    contexts = {
        "pi/4": context_from_text("pi/4"),
        "pyth:3,4,5": context_from_text("pyth:3,4,5"),
        "rad:~1.0@256": resolve(Numeric(highprec("1.0", 256))),
    }
    fits = {}
    for label, ctx in contexts.items():
        for kind in CensusKind:
            fit = growth_fit(ctx, Ms, RoundingMode.FLOOR, kind)
            fits[(label, kind.value)] = fit
            print(
                f"  growth {label} {kind.value}: counts={fit.counts} "
                f"exponent={fit.exponent:.3f} r2={fit.r_squared:.5f}"
            )
    dt = time.perf_counter() - t0
    quad_ok = all(1.7 <= fit.exponent <= 2.2 for fit in fits.values())
    density_ok = True
    shown = {}
    for label in ("pi/4", "rad:~1.0@256"):
        ctx = contexts[label]
        c, s = abs(float(ctx.cos)), abs(float(ctx.sin))
        expected = 2 * (1 - c) * (1 - s)
        for k in ("collisions", "holes"):
            fit = fits[(label, k)]
            measured = fit.counts[-1] / (2 * fit.Ms[-1] + 1) ** 2
            density_ok &= abs(measured - expected) <= 0.005 * expected
            shown[f"{label} {k}"] = f"{measured:.5f} vs {expected:.5f}"
    _criterion(
        3, quad_ok and density_ok and dt < 180.0,
        f"all six exponents in [1.7,2.2] ok={quad_ok}; irrational-angle "
        f"densities at M={Ms[-1]} within 0.5% of 2(1-|cos|)(1-|sin|) "
        f"ok={density_ok} ({shown}) in {dt:.1f}s",
    )


def test_criterion_4_colliding_pairs_unit_distance():
    t0 = time.perf_counter()
    bad = 0
    total = 0
    for text in ORACLE_ANGLES:
        ctx = context_from_text(text)
        for M in ORACLE_MS:
            for image, pres in collision_preimages(ctx, M).items():
                total += 1
                if len(pres) != 2:
                    bad += 1
                    continue
                (a1, b1), (a2, b2) = pres
                if (a1 - a2) ** 2 + (b1 - b2) ** 2 != 1:
                    bad += 1
    dt = time.perf_counter() - t0
    _criterion(
        4, bad == 0 and total > 0,
        f"{total} colliding preimage pairs, all at squared distance 1, "
        f"in {dt:.1f}s",
    )


def test_criterion_5_hole_corner_geometry():
    t0 = time.perf_counter()
    missing = []
    checked = 0
    for text in ORACLE_ANGLES:
        ctx = context_from_text(text)
        step = make_step(ctx)
        for M in ORACLE_MS:
            holes = brute_force_census(
                ctx, M, RoundingMode.FLOOR, CensusKind.HOLES, keep_points=True
            ).points
            for n, m in holes:
                checked += 1
                ax, bx = rotate_inverse(ctx, (n, m))
                a0, b0 = floor_exact(ax), floor_exact(bx)
                found = False
                for da in range(-2, 3):
                    for db in range(-2, 3):
                        a, b = a0 + da, b0 + db
                        imgs = {
                            step((a, 0 + b)),
                            step((a + 1, b)),
                            step((a, b + 1)),
                            step((a + 1, b + 1)),
                        }
                        if imgs == {(n - 1, m), (n + 1, m), (n, m - 1), (n, m + 1)}:
                            found = True
                            break
                    if found:
                        break
                if not found:
                    missing.append((text, M, (n, m)))
    dt = time.perf_counter() - t0
    _criterion(
        5, not missing and checked > 0,
        f"{checked} holes, each surrounded by a cell whose four corners "
        f"occupy its four orthogonal neighbor cells, in {dt:.1f}s"
        + (f"; missing={missing[:3]}" if missing else ""),
    )


def test_criterion_6_period8_family():
    t0 = time.perf_counter()
    rep = verify_period8(100_000)
    filt = brute_force_period8_filter(10_000)
    cands = period8_candidates(10_000)
    dt = time.perf_counter() - t0
    ok = rep.ok and rep.boundary == [1] and filt == cands and dt < 60.0
    _criterion(
        6, ok,
        f"{len(rep.candidates)} candidates <= 1e5 all return in 8 steps "
        f"(violators={len(rep.violators)}), boundary {rep.boundary} reported; "
        f"candidate set at 1e4 == independent filter: {filt == cands}; "
        f"in {dt:.1f}s",
    )


def test_criterion_7_case3_machinery():
    t0 = time.perf_counter()
    triples = gen_primitive_triples(10_000)
    import math

    structural = all(
        t.p1**2 + t.p2**2 == t.q**2
        and math.gcd(t.p1, t.q) == 1
        and math.gcd(t.p2, t.q) == 1
        and (2 * t.u * t.v * t.h - (t.u**2 - t.v**2)) % t.q == 0
        for t in triples
    )
    rng = random.Random(2026)
    cong_ok = True
    for t in rng.sample(triples, 50):
        samples = [
            (rng.randint(-10_000, 10_000), rng.randint(-10_000, 10_000))
            for _ in range(1000)
        ]
        if not verify_case3_congruences(t, samples).all_passed:
            cong_ok = False
    ctx = context_from_text("pyth:3,4,5")
    box = InequalityBox(rational(1, 2), rational(1, 2))
    direct = count_solutions(ctx, box, 200)
    residue = count_solutions_residue(ctx, box, 200)
    dt = time.perf_counter() - t0
    _criterion(
        7, structural and cong_ok and direct == residue,
        f"{len(triples)} triples structurally sound; congruences hold on "
        f"50x1000 samples; direct==residue count at M=200: "
        f"{direct}=={residue}; in {dt:.1f}s",
    )


def test_criterion_8_equidistribution_ratio():
    t0 = time.perf_counter()
    ctx = context_from_text("rad:~1.0")
    box = InequalityBox(rational(1, 2), rational(1, 2))
    M = 1000
    count = count_solutions(ctx, box, M)
    ratio = count / (2 * M + 1) ** 2
    dt = time.perf_counter() - t0
    _criterion(
        8, abs(ratio - 0.25) <= 0.02,
        f"solution ratio {ratio:.4f} within 0.25 +- 0.02 in {dt:.1f}s",
    )


def test_criterion_9_trunc_absorption():
    t0 = time.perf_counter()
    results = {}
    for text in ["pi/4", "rad:~1.0"]:
        ctx = context_from_text(text)
        s = orbit_sweep(ctx, 50, RoundingMode.TRUNC, OrbitCaps(max_steps=10_000))
        results[text] = s.absorbed_all
    dt = time.perf_counter() - t0
    _criterion(
        9, all(results.values()),
        f"every trunc orbit from |x|,|y|<=50 reaches (0,0) within 1e4 steps: "
        f"{results}; in {dt:.1f}s",
    )


def test_criterion_10_conjecture_probe():
    # At 45 degrees every orbit of the window is periodic: the paper's
    # period-8 family plus the 4 fixed points, nothing undetermined.
    t0 = time.perf_counter()
    ctx = context_from_text("pi/4")
    s = orbit_sweep(ctx, 300, caps=OrbitCaps(max_steps=10**6))
    dt = time.perf_counter() - t0
    ok = s.undetermined == s.escaped == 0 and set(s.histogram) == {1, 8} and s.histogram[1] == 4
    _criterion(
        10, ok,
        f"periodicity probe at M=300: undetermined={s.undetermined}, escaped="
        f"{s.escaped}, periods={s.histogram} in {dt:.1f}s",
    )
