import json
from fractions import Fraction

import pytest

from latrot.angle import (
    CardinalMultiple,
    GenericIndependent,
    LinearRelation,
    Numeric,
    Orientation,
    PiMultiple,
    Pythagorean,
    QuadField,
    RationalPythagorean,
    UnknownNumeric,
    angle_text,
    classify,
    context_from_text,
    context_to_json,
    parse_angle,
    resolve,
)
from latrot.errors import InvalidSpec
from latrot.exactnum import compare, highprec, quad, rational


def test_resolve_cardinal():
    ctx = resolve(PiMultiple(1, 2))
    assert ctx.sin == rational(1) and ctx.cos == rational(0)
    assert ctx.classification == CardinalMultiple(1)
    assert resolve(PiMultiple(0)).classification == CardinalMultiple(0)
    assert resolve(PiMultiple(3, 2)).classification == CardinalMultiple(3)
    assert resolve(PiMultiple(1)).classification == CardinalMultiple(2)
    assert resolve(PiMultiple(2)).classification == CardinalMultiple(0)


def test_resolve_pythagorean():
    ctx = resolve(Pythagorean(2, 1, Orientation.SIN_ODD))
    assert ctx.sin == rational(3, 5) and ctx.cos == rational(4, 5)
    assert ctx.classification == RationalPythagorean(3, 4, 5)
    flipped = resolve(Pythagorean(2, 1, Orientation.SIN_EVEN, -1, 1))
    assert flipped.sin == rational(-4, 5) and flipped.cos == rational(3, 5)
    assert flipped.classification == RationalPythagorean(-4, 3, 5)


def test_resolve_pi_quarter_exceptional():
    ctx = resolve(PiMultiple(1, 4))
    half_sqrt2 = quad(0, 1, 2, 2)
    assert ctx.sin == half_sqrt2 and ctx.cos == half_sqrt2
    assert ctx.classification == LinearRelation(Fraction(1), Fraction(0), True)


def test_unit_circle_holds_for_all_specs():
    specs = [PiMultiple(k, den) for den in (1, 2, 3, 4, 6) for k in range(-3, 9)]
    specs += [Pythagorean(u, v) for u, v in [(2, 1), (3, 2), (4, 1), (4, 3)]]
    for spec in specs:
        ctx = resolve(spec)
        assert compare(ctx.sin * ctx.sin + ctx.cos * ctx.cos, rational(1)) == 0


def test_classify_examples():
    assert classify(rational(3, 5), rational(4, 5)) == RationalPythagorean(3, 4, 5)
    r = quad(0, 1, 2, 2)
    assert classify(r, r) == LinearRelation(Fraction(1), Fraction(0), True)
    mirrored = classify(rational(1, 2), quad(0, 1, 3, 2))
    assert mirrored == LinearRelation(Fraction(0), Fraction(1, 2), False, swapped=True)
    plain = classify(quad(0, 1, 3, 2), rational(1, 2))  # pi/3
    assert plain == LinearRelation(Fraction(0), Fraction(1, 2), False, swapped=False)


def test_classify_cross_field_independent():
    ctx = resolve(QuadField(quad(0, 1, 3, 3), quad(0, 1, 6, 3)))
    assert ctx.classification == GenericIndependent()


def test_classify_numeric_unknown():
    ctx = resolve(Numeric(highprec("1.0")))
    assert ctx.classification == UnknownNumeric()
    assert abs(float(ctx.sin) - 0.8414709848) < 1e-9
    assert abs(float(ctx.cos) - 0.5403023058) < 1e-9


def test_invalid_specs():
    with pytest.raises(InvalidSpec):
        Pythagorean(3, 1)  # both odd
    with pytest.raises(InvalidSpec):
        Pythagorean(4, 2)  # not coprime
    with pytest.raises(InvalidSpec):
        Pythagorean(1, 2)  # u <= v
    with pytest.raises(InvalidSpec):
        Pythagorean(2, 1, sin_sign=2)  # a sign is +-1
    with pytest.raises(InvalidSpec):
        PiMultiple(1, 5)
    with pytest.raises(InvalidSpec):
        resolve(QuadField(rational(1, 2), rational(1, 2)))  # not on unit circle
    for sin, cos in ((0.6, 0.8), ("a", "b")):
        with pytest.raises(InvalidSpec, match="exact scalars"):
            resolve(QuadField(sin, cos))
    # over two radicands sin^2 + cos^2 is irrational, so never 1
    with pytest.raises(InvalidSpec, match=r"sin\^2 \+ cos\^2 != 1"):
        context_from_text("quad:sin=(1+sqrt(2))/3,cos=(1+sqrt(3))/3")


def test_parse_angle_grammar():
    assert parse_angle("pi/4") == PiMultiple(1, 4)
    assert parse_angle("pi*3/4") == PiMultiple(3, 4)
    assert parse_angle("pi") == PiMultiple(1, 1)
    assert parse_angle("pi*3") == PiMultiple(3, 1)
    assert parse_angle("0") == PiMultiple(0, 1)
    assert parse_angle("pyth:3,4,5") == Pythagorean(2, 1, Orientation.SIN_ODD, 1, 1)
    assert parse_angle("pyth:4,3,5") == Pythagorean(2, 1, Orientation.SIN_EVEN, 1, 1)
    assert parse_angle("pyth:-3,4,5").sin_sign == -1
    spec = parse_angle("quad:sin=sqrt(2)/2,cos=sqrt(2)/2")
    assert spec == QuadField(quad(0, 1, 2, 2), quad(0, 1, 2, 2))
    rad = parse_angle("rad:~1.0")
    assert isinstance(rad, Numeric)
    with pytest.raises(InvalidSpec):
        parse_angle("pyth:3,4,6")  # 9 + 16 != 36
    with pytest.raises(InvalidSpec):
        parse_angle("pyth:6,8,10")  # not primitive
    with pytest.raises(InvalidSpec):
        parse_angle("grad:100")


def test_angle_text_roundtrip():
    for text in ["pi/4", "pi*3/2", "pi", "0", "pyth:3,4,5", "pyth:-5,12,13",
                 "quad:sin=sqrt(2)/2,cos=sqrt(2)/2", "rad:~1@128"]:
        ctx = context_from_text(text)
        again = context_from_text(angle_text(ctx))
        assert angle_text(again) == angle_text(ctx)


def test_context_json_roundtrip():
    ctx = context_from_text("pyth:3,4,5")
    assert json.loads(context_to_json(ctx)) == {
        "angle": "pyth:3,4,5", "sin": "3/5", "cos": "4/5",
        "class": {"type": "rational_pythagorean", "p1": 3, "p2": 4, "q": 5},
    }


def test_half_pi_multiples_always_cardinal():
    for k in range(-4, 9):
        assert isinstance(resolve(PiMultiple(k, 1)).classification, CardinalMultiple)
        assert isinstance(resolve(PiMultiple(k, 2)).classification, CardinalMultiple)


def test_classification_deterministic():
    a = context_from_text("pi/6")
    b = context_from_text("pi/6")
    assert a.classification == b.classification == LinearRelation(
        Fraction(0), Fraction(1, 2), False, swapped=True
    )
