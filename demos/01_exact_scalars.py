#!/usr/bin/env python3
"""Exact scalars: rationals, quadratic irrationals, adaptive precision.

Everything downstream (rotations, censuses, orbit checks) rests on
provably correct floor decisions, so this demo pokes exactly at the
places where floating point would lie.
"""

from latrot import (
    UndecidableAtPrecision,
    as_highprec,
    compare,
    floor_exact,
    format_scalar,
    frac_in,
    highprec,
    parse_scalar,
    quad,
    rational,
)

print("== arithmetic stays in the smallest exact representation ==")
half_sqrt2 = quad(0, 1, 2, 2)  # sqrt(2)/2
print("sqrt(2)/2 + sqrt(2)/2 =", format_scalar(half_sqrt2 + half_sqrt2))
prod = quad(1, 1, 2) * quad(1, -1, 2)
print("(1+sqrt2)(1-sqrt2)    =", format_scalar(prod), "  (collapsed to a rational)")

print()
print("== floors decided by integer squaring, not by float rounding ==")
nine_over_sqrt2 = quad(0, 9, 2, 2)
print("floor(9/sqrt2) =", floor_exact(nine_over_sqrt2), " (12^2 = 144 <= 162 < 169 = 13^2)")
print("floor(-9/sqrt2) =", floor_exact(-nine_over_sqrt2))
print("{9/sqrt2} in [1-1/sqrt2, 1/sqrt2] (closed):",
      frac_in(nine_over_sqrt2, quad(2, -1, 2, 2), half_sqrt2, True, True))

print()
print("== two radicands: a high-precision value, still decided ==")
cross = quad(0, 1, 2) + quad(0, 1, 3)
print("sqrt2 + sqrt3 =", repr(cross), " floor", floor_exact(cross))

print()
print("== text round-trips ==")
for text in ["3/5", "sqrt(2)/2", "(1+2*sqrt(5))/4", "~0.7390851"]:
    s = parse_scalar(text)
    print(f"  {text!r:22s} -> {format_scalar(s)}")

print()
print("== adaptive precision refuses to guess ==")
r2 = as_highprec(quad(0, 1, 2), 64)
near_two = r2 * r2  # exactly 2, but carried as an interval
print("compare(sqrt2 * sqrt2, 2 - 1/10^30) =",
      compare(near_two, rational(10**30 - 1, 10**30) + rational(1)))
try:
    floor_exact(near_two - 2)
except UndecidableAtPrecision as exc:
    print("floor(sqrt2*sqrt2 - 2) ->", type(exc).__name__, "(the value sits on a boundary)")

theta = highprec("1.0", 256)
print("a 256-bit dyadic leaf:", format_scalar(theta))
