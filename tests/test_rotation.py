import itertools
import math

from mpmath import mp, mpf

from latrot.angle import context_from_text
from latrot.exactnum import compare, floor_exact, frac_in, quad, rational
from latrot.rotation import (
    RoundingMode,
    cell_corners,
    discrete_rotate,
    quantize,
    rotate,
    rotate_inverse,
)


def test_rotate_examples():
    ctx = context_from_text("pi/2")
    assert rotate(ctx, (5, 3)) == (rational(-3), rational(5))
    pyth = context_from_text("pyth:3,4,5")
    assert rotate(pyth, (5, 0)) == (rational(4), rational(3))
    quarter = context_from_text("pi/4")
    expected = quad(0, 9, 2, 2)
    assert rotate(quarter, (9, 0)) == (expected, expected)


def test_rotate_inverse_composes_to_identity():
    pyth = context_from_text("pyth:3,4,5")
    for p in [(7, -3), (0, 0), (-5, 11)]:
        x, y = rotate(pyth, p)
        back = (x * rational(4, 5) + y * rational(3, 5),)
        # cheaper: rotate_inverse on lattice points only, so check via floors
        fx, fy = rotate_inverse(pyth, discrete_rotate(pyth, p))
        assert floor_exact(fx) in range(p[0] - 2, p[0] + 3)
        assert floor_exact(fy) in range(p[1] - 2, p[1] + 3)


def test_quantize_examples():
    rp = (rational(3, 2), rational(-1, 2))
    assert quantize(rp, RoundingMode.FLOOR) == (1, -1)
    assert quantize(rp, RoundingMode.TRUNC) == (1, 0)
    assert quantize(rp, RoundingMode.ROUND) == (2, 0)  # half-up ties
    assert quantize((rational(-2), rational(2)), RoundingMode.TRUNC) == (-2, 2)


def test_discrete_rotate_examples():
    ctx = context_from_text("pi/2")
    for a, b in [(3, 4), (-2, 5), (0, 0)]:
        assert discrete_rotate(ctx, (a, b)) == (-b, a)
    quarter = context_from_text("pi/4")
    assert discrete_rotate(quarter, (9, 0)) == (6, 6)
    for mode in RoundingMode:
        assert discrete_rotate(quarter, (0, 0), mode) == (0, 0)


def test_cell_corners_example_and_geometry():
    ctx = context_from_text("pi/2")
    corners = cell_corners(ctx, (0, 0))
    assert corners == (
        (rational(0), rational(0)),
        (rational(0), rational(1)),
        (rational(-1), rational(0)),
        (rational(-1), rational(1)),
    )
    quarter = context_from_text("pi/4")
    corners = cell_corners(quarter, (0, 0))
    half = quad(0, 1, 2, 2)
    assert corners[1] == (half, half)
    assert corners[3] == (rational(0), quad(0, 1, 2))
    # pairwise squared distances are 1 or 2 (isometry of the unit cell)
    for ctx in [quarter, context_from_text("pyth:3,4,5")]:
        pts = cell_corners(ctx, (3, -2))
        for (x1, y1), (x2, y2) in itertools.combinations(pts, 2):
            d2 = (x1 - x2) * (x1 - x2) + (y1 - y2) * (y1 - y2)
            assert d2 == rational(1) or d2 == rational(2)


def test_isometry_exact():
    for text in ["pi/4", "pi/6", "pyth:3,4,5", "pyth:-5,12,13"]:
        ctx = context_from_text(text)
        for p in [(3, 7), (-11, 2), (0, -6)]:
            x, y = rotate(ctx, p)
            assert compare(x * x + y * y, rational(p[0] ** 2 + p[1] ** 2)) == 0


def test_floor_residual_in_unit_cell():
    for text in ["pi/4", "pi/3", "pyth:3,4,5", "pi*7/6"]:
        ctx = context_from_text(text)
        for p in [(5, 3), (-4, 9), (12, -12), (0, 1)]:
            x, y = rotate(ctx, p)
            fx, fy = discrete_rotate(ctx, p)
            assert frac_in(x, rational(0), rational(1)) is True
            assert compare(x - rational(fx), rational(1)) < 0
            assert compare(x - rational(fx), rational(0)) >= 0
            assert compare(y - rational(fy), rational(1)) < 0
            assert compare(y - rational(fy), rational(0)) >= 0


def test_round_residual_band():
    ctx = context_from_text("pyth:3,4,5")
    half = rational(1, 2)
    for p in [(7, 2), (-3, -8), (1, 0)]:
        x, y = rotate(ctx, p)
        rx, ry = discrete_rotate(ctx, p, RoundingMode.ROUND)
        for value, node in ((x, rx), (y, ry)):
            resid = value - rational(node)
            assert compare(resid, -half) >= 0
            assert compare(resid, half) < 0


def test_cardinal_discrete_equals_linear():
    ctx = context_from_text("pi*3/2")
    for p in [(4, 9), (-7, 3)]:
        x, y = rotate(ctx, p)
        assert (floor_exact(x), floor_exact(y)) == discrete_rotate(ctx, p)
        assert discrete_rotate(ctx, p) == (p[1], -p[0])


def test_float_angle_images_match_a_512_bit_floor():
    # rad:~ angles a few ulps from a rational one put images within
    # 1e-16 of an integer: (-16, -8) maps to y = -16 - 1.06e-16.
    text = repr(math.atan2(3, 4))
    ctx = context_from_text("rad:~" + text)
    with mp.workprec(128):
        theta = mpf(text)  # the angle as the 128-bit spec stores it
    with mp.workprec(512):
        c, s = mp.cos(theta), mp.sin(theta)
        for x, y in itertools.product(range(-16, 17), repeat=2):
            want = (int(mp.floor(x * c - y * s)), int(mp.floor(x * s + y * c)))
            assert discrete_rotate(ctx, (x, y)) == want, (x, y)
    assert discrete_rotate(ctx, (-16, -8))[1] == -17
