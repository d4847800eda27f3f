import ast
import math
import pathlib
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp
from mpmath import iv
from mpmath.libmp import from_str, round_nearest

from latrot.angle import context_from_text
from latrot.errors import InvalidSpec, UndecidableAtPrecision
from latrot.exactnum import (
    HighPrec,
    QuadIrr,
    Rational,
    as_highprec,
    compare,
    dyadic_enclosure,
    floor_exact,
    format_scalar,
    frac_in,
    frac_part,
    highprec,
    parse_scalar,
    quad,
    rational,
)


def oracle_floor_quad(p, q, d, den):
    """Independent floor of (p + q*sqrt(d))/den by pure integer bisection.

    Never calls the library's square-comparison logic: tests n <= x via
    (n*den - p) vs q*sqrt(d) squared out by hand on both sign branches.
    """

    def le_value(n):  # n <= (p + q*sqrt(d))/den ?
        lhs = n * den - p  # compare lhs <= q*sqrt(d)
        if q >= 0:
            if lhs <= 0:
                return True
            return lhs * lhs <= q * q * d
        if lhs >= 0:
            return False
        return lhs * lhs >= q * q * d

    n = 0
    while le_value(n):
        n += 1
    while not le_value(n):
        n -= 1
    return n


def test_rational_arith_examples():
    assert rational(1, 2) + rational(1, 3) == rational(5, 6)
    s = quad(0, 1, 2, 2) + quad(0, 1, 2, 2)  # sqrt2/2 + sqrt2/2
    assert s == quad(0, 1, 2, 1)
    prod = quad(1, 1, 2) * quad(1, -1, 2)  # (1+sqrt2)(1-sqrt2) = -1
    assert isinstance(prod, Rational)
    assert prod == rational(-1)


def test_floor_examples():
    assert floor_exact(rational(3, 2)) == 1
    assert floor_exact(quad(0, 1, 2)) == 1  # 1^2 < 2 < 2^2
    # floor(9*sqrt(2)/2) = 6: 12^2 = 144 <= 162 < 169 = 13^2
    assert floor_exact(quad(0, 9, 2, 2)) == oracle_floor_quad(0, 9, 2, 2) == 6
    assert floor_exact(rational(-3, 2)) == -2
    assert floor_exact(quad(0, -1, 2)) == -2


def test_floor_matches_oracle_spread():
    for p in range(-9, 10, 3):
        for q in range(-7, 8):
            if q == 0:
                continue
            for den in (1, 2, 3, 7):
                for d in (2, 3, 5):
                    assert floor_exact(quad(p, q, d, den)) == oracle_floor_quad(
                        p, q, d, den
                    )


def test_frac_in_examples():
    # {3/2} = 1/2, excluded from the half-open [0, 1/2)
    assert not frac_in(rational(3, 2), rational(0), rational(1, 2))
    assert frac_in(rational(5, 4), rational(0), rational(1, 2))
    # {9/sqrt(2)} in [1 - 1/sqrt2, 1/sqrt2], closed
    lo = quad(2, -1, 2, 2)  # (2 - sqrt2)/2 = 1 - 1/sqrt2
    hi = quad(0, 1, 2, 2)
    assert frac_in(quad(0, 9, 2, 2), lo, hi, True, True)
    # integers have zero fractional part
    assert frac_in(rational(7), rational(0), rational(1, 1000))


def test_compare_examples():
    assert compare(rational(1, 2), rational(1, 3)) > 0
    assert compare(quad(0, 1, 2), rational(3, 2)) < 0  # 8 < 9
    assert compare(rational(1), rational(1)) == 0
    assert compare(quad(1, 2, 5, 3), quad(1, 2, 5, 3)) == 0


def test_cross_field_arithmetic():
    r2, r3, r5 = quad(0, 1, 2), quad(0, 1, 3), quad(0, 1, 5)
    # sums and products over two radicands are HighPrec, decided exactly
    assert isinstance(r2 + r3, HighPrec)
    assert floor_exact(r2 + r3) == 3  # 3.146...
    assert floor_exact(r2 * r5) == 3  # sqrt(10) = 3.162...
    assert compare(r2, r3) == -1
    assert compare(3 * r2, 2 * r3) == 1  # 18 > 12
    # a cross-field value exactly equal to a single-field one never guesses
    with pytest.raises(UndecidableAtPrecision):
        compare((r2 + r3) - r3, r2)
    # rational operands stay exact
    assert quad(0, 1, 2) + rational(1) == quad(1, 1, 2)


def test_canonical_form():
    s = quad(2, 4, 2, 6)
    assert (s.p, s.q, s.den) == (1, 2, 3)
    assert quad(2, 4, 2, 6) == quad(1, 2, 2, 3)
    assert quad(1, -1, 2, -2) == quad(-1, 1, 2, 2)
    with pytest.raises(InvalidSpec):
        QuadIrr(1, 1, 4)  # 4 not squarefree
    with pytest.raises(InvalidSpec):
        QuadIrr(1, 0, 2)  # rational payloads go through quad()
    assert isinstance(quad(3, 0, 2, 6), Rational)


def test_trunc_like_identities_on_floor():
    # 0 <= s - floor(s) < 1 for a spread of exact scalars
    vals = [rational(-7, 3), rational(9, 4), quad(-3, 5, 3, 4), quad(2, -9, 5, 7)]
    for s in vals:
        f = frac_part(s)
        assert compare(f, rational(0)) >= 0
        assert compare(f, rational(1)) < 0


@settings(max_examples=300, deadline=None)
@given(
    st.fractions(min_value=-1000, max_value=1000, max_denominator=10**6),
    st.fractions(min_value=-1000, max_value=1000, max_denominator=10**6),
)
def test_rational_add_sub_roundtrip(a, b):
    sa, sb = rational(a), rational(b)
    assert (sa + sb) - sb == sa


@settings(max_examples=300, deadline=None)
@given(
    st.integers(-10**6, 10**6),
    st.integers(-10**6, 10**6),
    st.integers(-10**6, 10**6),
    st.integers(-10**6, 10**6),
    st.sampled_from([2, 3, 5]),
    st.integers(1, 10**3),
    st.integers(1, 10**3),
)
def test_quad_add_sub_roundtrip(p1, q1, p2, q2, d, den1, den2):
    a = quad(p1, q1, d, den1)
    b = quad(p2, q2, d, den2)
    assert (a + b) - b == a


@settings(max_examples=300, deadline=None)
@given(
    st.integers(-10**6, 10**6),
    st.integers(-10**6, 10**6).filter(lambda q: q != 0),
    st.sampled_from([2, 3, 5]),
    st.integers(1, 10**4),
)
def test_quad_floor_bound_property(p, q, d, den):
    s = quad(p, q, d, den)
    f = floor_exact(s)
    assert compare(s - rational(f), rational(0)) >= 0
    assert compare(s - rational(f), rational(1)) < 0


def _sign_ref(A: Fraction, B: Fraction, d: int) -> int:
    """Sign of A + B*sqrt(d) from the squares A^2 and B^2*d, which never
    tie for B != 0 since d is not a square."""
    sa, sb = (A > 0) - (A < 0), (B > 0) - (B < 0)
    if sb == 0 or sa == sb:
        return sa
    if sa == 0:
        return sb
    return sa if A * A > B * B * d else sb


def _parts_ref(s):
    """s as the Fraction pair (A, B) with s = A + B*sqrt(d)."""
    if isinstance(s, Rational):
        return Fraction(s.numerator, s.denominator), Fraction(0)
    assert isinstance(s, QuadIrr)
    return Fraction(s.p, s.den), Fraction(s.q, s.den)


@st.composite
def _same_field_pair(draw):
    d = draw(st.sampled_from([2, 3, 5, 6, 7]))
    nonzero = st.integers(-60, 60).filter(bool)

    def operand():
        p, q, den = draw(st.integers(-10**4, 10**4)), draw(st.integers(-50, 50)), draw(nonzero)
        ref = (Fraction(p, den), Fraction(q, den))
        if q == 0 and draw(st.booleans()):
            return Rational(Fraction(p, den)), ref
        return quad(p, q, d, den), ref

    a = operand()
    b = a if draw(st.integers(0, 4)) == 0 else operand()
    return d, a, b


@settings(max_examples=400, deadline=None)
@given(_same_field_pair())
def test_mixed_exact_arithmetic_matches_fraction_pairs(case):
    d, (a, (A1, B1)), (b, (A2, B2)) = case
    want = {
        "sum": (A1 + A2, B1 + B2),
        "difference": (A1 - A2, B1 - B2),
        "product": (A1 * A2 + B1 * B2 * d, A1 * B2 + A2 * B1),
        "negation": (-A1, -B1),
    }
    got = {"sum": a + b, "difference": a - b, "product": a * b, "negation": -a}
    for op, (A, B) in want.items():
        assert _parts_ref(got[op]) == (A, B), op
        assert isinstance(got[op], Rational) == (B == 0), op
    assert compare(a, b) == _sign_ref(A1 - A2, B1 - B2, d)
    assert (a < b, a == b, a > b) == tuple(_sign_ref(A1 - A2, B1 - B2, d) == c for c in (-1, 0, 1))
    f = floor_exact(a)
    assert _sign_ref(A1 - f, B1, d) >= 0 and _sign_ref(A1 - f - 1, B1, d) < 0
    if B1 == 0:  # a Rational equals the int and Fraction of its value only
        assert a == A1 and a != A1 + Fraction(1, 7)
        assert (a == f) == (A1 == f)


def test_quad_floor_agrees_with_highprec_rendering():
    import random

    rng = random.Random(20260809)
    for _ in range(100_000):
        p = rng.randint(-10**6, 10**6)
        q = rng.randint(-10**6, 10**6)
        if q == 0:
            continue
        d = rng.choice([2, 3, 5])
        den = rng.randint(1, 10**4)
        s = QuadIrr(p, q, d, den)
        hp = as_highprec(s, 256)
        assert floor_exact(s) == floor_exact(hp), (p, q, d, den)


def test_highprec_basics():
    x = highprec("0.7390851")
    assert floor_exact(x) == 0
    assert abs(float(x) - 0.7390851) < 1e-12
    y = highprec("2.5", 64) + highprec("0.75", 64)
    assert floor_exact(y) == 3
    assert compare(y, rational(13, 4)) == 0  # both dyadic: decided exactly


def test_highprec_escalation_and_undecidable():
    # sqrt(2)^2 - 2 is exactly 0; floor of an exact-zero interval is fine,
    # but floor of sqrt(2)*sqrt(2) - 2 rendered with nonzero radii must
    # refuse rather than guess.
    r2 = as_highprec(quad(0, 1, 2), 64)
    z = r2 * r2 - rational(2)
    with pytest.raises(UndecidableAtPrecision):
        floor_exact(z)
    # mixed exact/HighPrec degrades to HighPrec but stays decidable away
    # from boundaries
    w = r2 * r2 - rational(3, 2)
    assert floor_exact(w) == 0


def test_highprec_compare_escalates():
    a = as_highprec(quad(0, 1, 2), 64)  # sqrt(2)
    assert compare(a, rational(3, 2)) < 0
    assert compare(a, rational(7, 5)) > 0
    with pytest.raises(UndecidableAtPrecision):
        compare(a * a, rational(2))  # exactly equal, radii never vanish


def test_highprec_decisions_keep_full_precision():
    # -16 - 1.06e-16 rounds to -16.0 at mpmath's ambient 53 bits; the
    # leaf, exact sums and products, floors and comparisons must all use
    # the value's own 128 bits.
    x = highprec("-16.000000000000000106", 128)
    assert floor_exact(x) == -17
    assert floor_exact(-x) == 16
    assert compare(x, rational(-16)) < 0
    assert floor_exact(x + 16) == -1
    assert floor_exact(x * 1 + highprec("16", 128)) == -1
    assert compare(x * 2, rational(-32)) < 0


def test_highprec_evaluation_ignores_global_precision():
    # Two threads flip mpmath's process-global precision while this thread
    # parses fresh rad: angles and evaluates nodes over their libmp sines
    # at 1024 bits; every enclosure must still hold.  The angle 1 + 2^-500
    # is exact at 1024 bits and rounds to 1 at 20.
    text = f"rad:~1.{str(5**500).rjust(500, '0')}@1024"
    with mp.workprec(4000):
        ref = mp.sin(1 + mp.mpf(2) ** -500) * 3 + (1 + 3 * mp.sqrt(2)) / 7
        scaled = int(mp.floor(mp.ldexp(ref, 1024)))  # the value is irrational
    saved, stop = mp.prec, threading.Event()

    def churn():
        while not stop.is_set():
            with mp.workprec(20):
                pass

    threads = [threading.Thread(target=churn, daemon=True) for _ in range(2)]
    for t in threads:
        t.start()
    try:
        broken = 0
        for _ in range(4000):
            node = context_from_text(text).sin * 3 + as_highprec(quad(1, 3, 2, 7))
            lo, hi = node.eval(1024)
            broken += not lo <= scaled < hi
    finally:
        stop.set()
        for t in threads:
            t.join(timeout=10)
        mp.prec = saved  # interleaved workprec exits can leave it at 20
    assert not any(t.is_alive() for t in threads)
    assert broken == 0


def test_src_never_touches_global_precision():
    # Evaluation is thread-safe only while no code reads or sets mpmath's
    # process-global precision: only explicit-precision libmp calls.
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "latrot"
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        for word in ("workprec", "mp.prec", "mp.dps"):
            assert word not in text, (path.name, word)
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                names = [f"{node.value.id}.{node.attr}"]
            else:
                continue
            for name in names:
                libmp = (name + ".").startswith("mpmath.libmp.")
                assert libmp or not name.startswith("mpmath."), (path.name, node.lineno, name)


def test_src_reads_every_module_level_import():
    # An import its own module never reads is dead code; __init__.py
    # imports to re-export, and __future__ imports set compiler flags.
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "latrot"
    paths = sorted(src.glob("*.py"))
    assert paths, src
    for path in paths:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                assert bound in read, (path.name, node.lineno, bound)


def test_parse_format_roundtrip_exact():
    cases = [
        "3/5",
        "-3/5",
        "7",
        "0",
        "sqrt(2)/2",
        "-sqrt(3)",
        "2*sqrt(5)",
        "(1+2*sqrt(5))/4",
        "(-3-1*sqrt(2))/7",
    ]
    for text in cases:
        s = parse_scalar(text)
        again = parse_scalar(format_scalar(s))
        assert again == s, text


def test_parse_format_roundtrip_highprec():
    s = parse_scalar("~0.7390851")
    t = parse_scalar(format_scalar(s))
    assert compare(s, t) == 0
    u = parse_scalar("~1.0@256")
    assert u.precision_bits == 256
    assert compare(u, rational(1)) == 0


def test_parse_rejects_garbage():
    for text in ["sqrt(4)", "1/0", "~abc", "(1+sqrt(2)", "2**3"]:
        with pytest.raises((InvalidSpec, ZeroDivisionError)):
            parse_scalar(text)


def test_float_coercion_rejected():
    with pytest.raises(TypeError):
        rational(1, 2) + 0.25


def test_scalar_ordering_operators():
    assert rational(1, 3) < rational(1, 2)
    assert quad(0, 1, 2) > rational(7, 5)
    assert quad(0, 1, 2, 2) <= quad(0, 1, 2, 2)


@settings(max_examples=200, deadline=None)
@given(
    p=st.integers(-10**6, 10**6),
    q=st.integers(-1000, 1000),
    d=st.sampled_from([2, 3, 5, 6]),
    den=st.integers(1, 1000),
    bits=st.integers(0, 80),
)
def test_dyadic_enclosure_brackets_the_scaled_value(p, q, d, den, bits):
    s = quad(p, q, d, den)
    scaled = s * (1 << bits)
    lo, hi = dyadic_enclosure(s, bits)
    assert compare(scaled, lo) >= 0 and compare(scaled, hi) <= 0
    assert hi - lo <= 1  # exact types: a floor and a ceiling
    assert (lo == hi) == (q == 0 and (p << bits) % den == 0)
    lo, hi = dyadic_enclosure(as_highprec(s, 64), bits)
    assert compare(scaled, lo) >= 0 and compare(scaled, hi) <= 0


def test_dyadic_enclosure_of_highprec_reads_the_interval():
    leaf = highprec("0.1", 64)  # a dyadic, radius 0
    assert dyadic_enclosure(leaf, 20) == (104857, 104858)
    assert dyadic_enclosure(-leaf, 20) == (-104858, -104857)
    assert dyadic_enclosure(highprec("0.5", 64), 8) == (128, 128)
    assert dyadic_enclosure(parse_scalar("~1.0@64") * rational(3), 64) == (3 << 64, 3 << 64)
    # sin(1) at its 128 bits: the interval's endpoints, a few units apart
    sin1 = context_from_text("rad:~1.0").sin
    lo, hi = dyadic_enclosure(sin1, 128)
    assert 0 < hi - lo <= 64
    assert abs((lo >> 76) - math.sin(1.0) * 2**52) <= 2
    r2 = as_highprec(quad(0, 1, 2), 64)
    lo, hi = dyadic_enclosure(r2 * r2 - rational(2), 64)
    assert lo < 0 < hi  # exactly 0, but only as an interval


def test_as_highprec_reads_the_environment_only_to_build(monkeypatch):
    h = highprec("0.5", 64)
    monkeypatch.setenv("LATTICE_ROT_PRECISION_BITS", "4")  # rejected: under 8 bits
    assert as_highprec(h) is h
    with pytest.raises(InvalidSpec):
        as_highprec(rational(1, 3))


# Random +, - and * trees over the four kinds of HighPrec leaf, with
# enclosure widths bounded in units of 2^-bits: a leaf's floor and ceiling
# are 1 apart at most, a rad: sine or cosine is within 4, a sum adds its
# children's widths, and a product's endpoint products are at most
# A*wb + B*wa apart at 2^(2*bits) (A, B bound the children's endpoints),
# plus 2 for shifting them outward.  A child evaluated at fewer bits and
# scaled up would be wider than these bounds allow.
_DECIMALS = st.builds(lambda n, k: f"{n}e-{k}", st.integers(-10**9, 10**9), st.integers(0, 9))
_TREE_LEAVES = st.one_of(
    st.tuples(st.just("leaf"), _DECIMALS, st.integers(32, 256)),
    st.tuples(st.just("rational"), st.integers(-10**6, 10**6), st.integers(1, 10**4)),
    st.tuples(st.just("quad"), st.integers(-10**4, 10**4), st.integers(-10**3, 10**3).filter(bool),
              st.sampled_from([2, 3, 5]), st.integers(1, 10**3)),
    st.tuples(st.sampled_from(["sin", "cos"]), _DECIMALS, st.integers(32, 256)),
)
_TREES = st.recursive(
    _TREE_LEAVES,
    lambda kids: st.tuples(st.sampled_from(["+", "-", "*"]), kids, kids),
    max_leaves=6,
)


def _build(tree, bits):
    """(node, mpmath interval of its value, width bound at bits)."""
    op = tree[0]
    if op in ("+", "-", "*"):
        a, ra, wa = _build(tree[1], bits)
        b, rb, wb = _build(tree[2], bits)
        if op == "+":
            return a + b, ra + rb, wa + wb
        if op == "-":
            return a - b, ra - rb, wa + wb
        A, B = (max(map(abs, _endpoints(r))) for r in (ra, rb))
        return a * b, ra * rb, ((A * 2**bits + wa) * wb + (B * 2**bits + wb) * wa) / 2**bits + 2
    if op == "rational":
        return as_highprec(rational(tree[1], tree[2])), iv.mpf(tree[1]) / tree[2], 1
    if op == "quad":
        p, q, d, den = tree[1:]
        return as_highprec(quad(p, q, d, den)), (p + q * iv.sqrt(d)) / den, 1
    text, prec = tree[1:]
    theta = iv.mpf(mp.make_mpf(from_str(text, prec, round_nearest)))
    if op == "leaf":
        return highprec(text, prec), theta, 1
    ctx = context_from_text(f"rad:~{text}@{prec}")
    if op == "sin":
        return ctx.sin, iv.sin(theta), 4
    return ctx.cos, iv.cos(theta), 4


def _endpoints(ref) -> tuple[Fraction, Fraction]:
    """The exact endpoints of an mpmath interval."""
    return tuple((-man if sign else man) * Fraction(2) ** exp for sign, man, exp, _ in ref._mpi_)


@settings(max_examples=200, deadline=None)
@given(tree=_TREES, bits=st.sampled_from([8, 53, 128, 300]))
def test_highprec_enclosures_are_tight(tree, bits):
    saved = iv.prec
    iv.prec = 4 * bits  # the reference: mpmath's interval arithmetic
    try:
        node, ref, width = _build(tree, bits)
        lo, hi = dyadic_enclosure(node, bits)
        ref_lo, ref_hi = (e * 2**bits for e in _endpoints(ref))
    finally:
        iv.prec = saved
    assert lo <= ref_hi and ref_lo <= hi
    assert hi - lo <= width
