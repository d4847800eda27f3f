"""The exact quadratic kernel: fractional-part tests by one remainder,
checked against the scalar exact layer, and one numerator routine
checked against exact roots on every view the scans pass it; the
batched re-decision of flagged points from integer enclosures, checked
against discrete_rotate, which is not on its path."""

import ast
import functools
import math
import pathlib
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from latrot import kernels, rotation, udist
from latrot.angle import context_from_text
from latrot.census import CensusKind, _grid_census, _sorted_points, brute_force_census
from latrot.exactnum import (
    ZERO,
    _floor_sqrt_multiple,
    compare,
    frac_part,
    highprec,
    parse_scalar,
    quad,
    rational,
)
from latrot.kernels import (
    QuadForm,
    _band,
    _exact_box,
    _exact_images,
    _square_images,
    _window_index,
    image_forms,
    make_form,
    make_step,
    vfloor_sqrt_multiple,
    visqrt,
)
from latrot.rotation import RoundingMode, discrete_rotate, quantize

# quadratic fields sqrt(2) and sqrt(3), and rational angles (Q = 0)
ANGLES = ["pi/4", "pi/6", "pi/3", "pi*7/6", "pi*3/4", "pyth:3,4,5", "pyth:-20,21,29"]
R = 12
MODES = [RoundingMode.FLOOR, RoundingMode.ROUND]


def _window(R):
    cols = np.arange(-R, R + 1, dtype=np.int64)
    return _band(cols, -R, R)


def _flagged(forms, A, B, mode):
    """The points (A, B) either form's float prefilter flags, or None."""
    flags = [k.floor(A, B)[1] for k in forms]
    flags = [u for u in flags if u is not None]
    return np.logical_or.reduce(flags) if flags else None


def _decided(k, xs, ys, mode):
    """k.decide_floor at the points, truncated under trunc: floor + 1
    below 0 except where the batch finds L an integer."""
    floors, integral = k.decide_floor(xs, ys)
    trunc = mode is RoundingMode.TRUNC
    return [F + 1 if trunc and F < 0 and not i else F for F, i in zip(floors, integral)]


@settings(max_examples=150, deadline=None)
@given(
    angle=st.sampled_from(ANGLES),
    mode=st.sampled_from(MODES),
    points=st.lists(st.tuples(st.integers(-R, R), st.integers(-R, R)), min_size=1, max_size=12),
    tden=st.integers(1, 13),
    data=st.data(),
)
def test_frac_lt_matches_exact_layer(angle, mode, points, tden, data):
    t = rational(data.draw(st.integers(1, tden), label="tp"), tden)  # t = 1 included
    X = np.array([x for x, _ in points], dtype=np.int64)
    Y = np.array([y for _, y in points], dtype=np.int64)
    # the same points alone (roots point by point) and ahead of the whole
    # window (enough points for a table over their Q range)
    A, B = _window(R)
    big = (np.concatenate([X, A.ravel()]), np.concatenate([Y, B.ravel()]))
    for k in image_forms(context_from_text(angle), mode, max_abs=R):
        assert isinstance(k, QuadForm)
        want = [k.exact_frac_lt(x, y, t) for x, y in points]
        for PX, PY in ((X, Y), big):
            got, unc = k.frac_lt(PX, PY, t)
            assert unc is None
            assert got[: len(points)].tolist() == want, (angle, mode, t)


def test_frac_lt_at_the_bound_itself():
    # pi/6 at x = 0: L1 = -y/2, so {L1} = 1/2 exactly at odd y (Q = 0 and
    # the remainder equals tp*D); 3-4-5 at x = 0: L1 = -3y/5 hits 2/5.
    # The box is half-open: the tie {L} = t reads False.
    A, B = _window(R)
    column = (A[R + 1 : R + 4, R], B[R + 1 : R + 4, R])  # x = 0, y = 1..3
    for angle, t in (("pi/6", rational(1, 2)), ("pyth:3,4,5", rational(2, 5))):
        k1, _ = image_forms(context_from_text(angle), RoundingMode.FLOOR, max_abs=R)
        for X, Y in ((A, B), column):  # the whole window and one column
            got, _ = k1.frac_lt(X, Y, t)
            on = 0
            for i in np.ndindex(X.shape):
                x, y = int(X[i]), int(Y[i])
                assert got[i] == k1.exact_frac_lt(x, y, t)
                if compare(frac_part(k1.exact_value(x, y)), t) == 0:
                    assert not got[i]
                    on += 1
            assert on > 0, angle  # some point has {L} = t


ONE_AXIS = ["pi/6", "pi*7/6", "pi/3"]
TWO_AXIS = ["pi/4", "pi*3/4", "quad:sin=sqrt(5)/5,cos=2*sqrt(5)/5"]


def _exact_numerators(k, X, Y, m):
    """P*m + floor(Q*m*sqrt(d)) at each point, the roots taken in Python
    ints (exactnum._floor_sqrt_multiple) once per distinct Q."""
    X, Y = np.broadcast_arrays(X, Y)
    P = k.pA * X + k.pB * Y + k.pG
    Q = k.qA * X + k.qB * Y + k.qG
    values, inverse = np.unique(Q, return_inverse=True)
    roots = np.array([_floor_sqrt_multiple(int(q) * m, k.d) for q in values], dtype=np.int64)
    return P * m + roots[inverse.reshape(Q.shape)]


def test_numerators_match_exact_roots_on_every_view(monkeypatch):
    # one routine serves floor, frac_lt and split_frac_lt: on _band views
    # (a default band of a census at M = 256, and one row), on broadcast
    # views of step 2 (udist's odd-odd scan) and on plain 1-D arrays of
    # wide range (the period-8 chains)
    sizes = []

    def spy(q, d):
        sizes.append(np.size(q))
        return vfloor_sqrt_multiple(q, d)

    monkeypatch.setattr(kernels, "vfloor_sqrt_multiple", spy)
    R0 = kernels._domain_radius(256)
    cols = np.arange(-R0, R0 + 1, dtype=np.int64)
    blo, bhi = next(kernels._bands(-R0, R0, cols.size))
    odd = udist._coord_values(201, udist.Parity.ODD_ODD)
    rng = np.random.default_rng(17)
    wide = 10**5
    chain = (rng.integers(-wide, wide + 1, 400), rng.integers(-wide, wide + 1, 400))
    views = [
        ("band", R0, _band(cols, blo, bhi)),
        ("row", R0, _band(cols, 5, 5)),
        ("odd", 201, np.broadcast_arrays(odd[None, :], odd[3:40, None])),
        ("chain", wide, chain),
        ("axis", wide, (chain[0], np.zeros_like(chain[0]))),
    ]
    for angle in ONE_AXIS + TWO_AXIS:
        ctx = context_from_text(angle)
        for mode in MODES:
            for name, max_abs, (X, Y) in views:
                for k in image_forms(ctx, mode, max_abs=max_abs):
                    assert isinstance(k, QuadForm) and (bool(k.qA and k.qB) == (angle in TWO_AXIS))
                    # floor: the point evaluator at sampled points, and the
                    # exact numerators everywhere
                    sizes.clear()
                    F, unc, at = k.floor(X, Y)
                    assert unc is None and at is None
                    assert (F == _exact_numerators(k, X, Y, 1) // k.D).all(), (angle, mode, name)
                    if name == "band":
                        rows, ncols = X.shape
                        # each root once: over a row or a column, or over
                        # the band's Q range |qA|*(cols-1) + |qB|*(rows-1) + 1
                        bound = abs(k.qA) * ncols + abs(k.qB) * rows
                        assert max(sizes) <= bound, (angle, mode, sizes)
                        if max(abs(k.qA), abs(k.qB)) == 1:
                            assert bound <= ncols + rows
                    A, B = np.broadcast_arrays(X, Y)
                    step = k.point()
                    for i in rng.integers(0, A.size, 25):
                        x, y = int(A.flat[i]), int(B.flat[i])
                        assert F.flat[i] == step(x, y), (angle, mode, name, x, y)
                    for m in (1, 3, 7):
                        t = rational(m // 2 + 1, m)
                        N = _exact_numerators(k, X, Y, m)
                        want = N % (k.D * m) < (m // 2 + 1) * k.D
                        got, unc = k.frac_lt(X, Y, t)
                        assert unc is None and (got == want).all(), (angle, mode, name, m)
                        if name in ("chain", "axis"):
                            continue
                        split = k.split_frac_lt(X[0], Y[:, 0], t)
                        if angle in TWO_AXIS:
                            assert split is None
                            continue
                        Fm, Gm, modulus, bound = split
                        assert (((Fm[None, :] + Gm[:, None]) % modulus < bound) == want).all()
    # no values at all (udist's odd-odd scan at M = 0)
    empty = np.zeros(0, dtype=np.int64)
    for angle in ONE_AXIS:
        for k in image_forms(context_from_text(angle), RoundingMode.FLOOR, max_abs=0):
            F, _, at = k.floor(empty, empty, ties=True)
            assert k.floor(empty, empty)[0].size == F.size == at.size == 0
            assert k.frac_zero(empty, empty)[0].size == 0
            Fm, Gm, _, _ = k.split_frac_lt(empty, empty, rational(1, 3))
            assert Fm.size == Gm.size == 0


def test_census_is_the_same_on_one_and_two_threads(monkeypatch):
    # bands of four rows, shared by two pool threads, at pi/4 (whose
    # roots come from each band's own table)
    monkeypatch.setattr(kernels, "_BAND_POINTS", 4 * (2 * kernels._domain_radius(30) + 1))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        ctx = context_from_text("pi/4")
        for kind in CensusKind:
            a, b = (_grid_census(ctx, 30, RoundingMode.FLOOR, kind, True, threads)
                    for threads in (1, 2))
            o = brute_force_census(ctx, 30, RoundingMode.FLOOR, kind, keep_points=True)
            assert a[0] == b[0] == o.count
            assert _sorted_points(a[1], 30) == _sorted_points(b[1], 30) == o.points
    finally:
        sys.setswitchinterval(interval)


def test_visqrt_is_exact_where_its_proof_is_tightest():
    # one float square root: the gap below (k+1)^2 shrinks as k grows, so
    # the top 2^20 roots below 2^26 are the closest calls, and powers of
    # two sit on the float grid's steps
    k = np.arange(2**26 - 2**20, 2**26, dtype=np.int64)
    sq = k * k
    assert (visqrt(sq - 1) == k - 1).all()
    assert (visqrt(sq) == k).all()
    assert (visqrt(sq + 1) == k).all()
    for x in (int(sq[0]) - 1, int(sq[-1]) + 1):
        assert math.isqrt(x) == visqrt(np.array([x]))[0]
    xs = [x for j in range(52) for x in (2**j - 1, 2**j, 2**j + 1)]
    assert visqrt(np.array(xs, dtype=np.int64)).tolist() == [math.isqrt(x) for x in xs]


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 2**52 - 1), min_size=1, max_size=40))
def test_visqrt_matches_isqrt_below_2_52(xs):
    assert visqrt(np.array(xs, dtype=np.int64)).tolist() == [math.isqrt(x) for x in xs]


def test_band_size_is_defined_only_in_kernels():
    # every vector scan walks its window through kernels._bands; a second
    # band-size constant or band iterator would fork a second band loop
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "latrot"
    for path in sorted(src.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.FunctionDef):
                names = [node.name]
            else:
                continue
            for name in names:
                if "BAND" in name or name == "_bands":  # constants are upper case
                    assert path.name == "kernels.py", (path.name, node.lineno, name)


SQUARE_ANGLES = ["pi/6", "pi/4", "pyth:3,4,5", "quad:sin=sqrt(3)/3,cos=sqrt(6)/3", "rad:~1.0",
                 "rad:~" + repr(math.pi / 4)]


@functools.cache
def _rotated(angle, mode):
    """discrete_rotate over |a|,|b| <= 12, the scalar oracle."""
    ctx = context_from_text(angle)
    square = range(-12, 13)
    return {(a, b): discrete_rotate(ctx, (a, b), mode) for a in square for b in square}


@settings(max_examples=60, deadline=None)
@given(
    angle=st.sampled_from(SQUARE_ANGLES),
    mode=st.sampled_from(list(RoundingMode)),
    R=st.integers(0, 12),
    data=st.data(),
    threads=st.sampled_from([1, 2]),
    one_row_bands=st.booleans(),
)
def test_square_images_match_discrete_rotate(angle, mode, R, data, threads, one_row_bands):
    M = data.draw(st.integers(0, R), label="M")
    # the whole square, the trunc census's quadrant, or any corner's part
    corner = data.draw(st.sampled_from([None, (1, 0)])
                       | st.tuples(st.integers(-R, R), st.integers(-R, R)), label="corner")
    a0, b0 = (-R, -R) if corner is None else corner
    W, sink = 2 * M + 1, (2 * M + 1) ** 2
    with pytest.MonkeyPatch.context() as mp:
        if one_row_bands:
            mp.setattr(kernels, "_BAND_POINTS", 1)
        forms = image_forms(context_from_text(angle), mode, max_abs=R)
        I, _ = _square_images(forms, mode, R, M, threads, corner=corner)
    assert I.shape == ((R + 1 - a0) * (R + 1 - b0) + 1,) and I[-1] == sink
    # the points in (b, a) order, a fastest
    want = []
    for b in range(b0, R + 1):
        for a in range(a0, R + 1):
            x, y = _rotated(angle, mode)[a, b]
            want.append((y + M) * W + x + M if max(abs(x), abs(y)) <= M else sink)
    assert I[:-1].tolist() == want, (angle, mode, R, M)
    # _window_index numbers the window's points row by row, x fastest,
    # and _sorted_points reads any set of indices back in that order
    ys, xs = np.mgrid[-M:M + 1, -M:M + 1]
    idx = _window_index(xs, ys, M).ravel()
    assert idx.tolist() == list(range(W * W))
    # int32 coordinates and Python ints index alike, and every point past
    # the window, on either side, goes to the sink
    ys2, xs2 = np.mgrid[-M - 2:M + 3, -M - 2:M + 3]
    wide = _window_index(xs2, ys2, M)
    assert np.array_equal(_window_index(xs2.astype(np.int32), ys2.astype(np.int32), M), wide)
    assert np.count_nonzero(wide == sink) == xs2.size - W * W
    assert _window_index(-M - 1, 0, M) == sink and _window_index(M, -M, M) == W - 1
    points = list(zip(xs.ravel().tolist(), ys.ravel().tolist()))
    assert _sorted_points(idx[::-1], M) == points
    hit = np.unique(I[I < sink])
    assert _sorted_points(hit, M) == [points[i] for i in hit]


def test_window_indices_are_encoded_only_in_kernels():
    # one window index layout: kernels._window_index encodes it and
    # kernels._sorted_points, a plain sort, decodes it; an affine
    # (u + k)*w + v outside kernels would be a second layout
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "latrot"
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        assert "lexsort" not in text, path.name
        if path.name == "kernels.py":
            continue
        for node in ast.walk(ast.parse(text)):
            if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
                    and isinstance(node.left, ast.BinOp) and isinstance(node.left.op, ast.Mult)
                    and isinstance(node.left.left, ast.BinOp)
                    and isinstance(node.left.left.op, (ast.Add, ast.Sub))):
                raise AssertionError((path.name, node.lineno, ast.unparse(node)))


# angles the float prefilter serves: float angles ulps from pi/4, the
# 3-4-5 angle and pi/6, and a cross-field angle
FLOAT_ANGLES = [
    "rad:~" + repr(math.pi / 4),
    "rad:~" + repr(math.atan2(3, 4)),
    "rad:~" + repr(math.pi / 6),
    "quad:sin=sqrt(3)/3,cos=sqrt(6)/3",
]
BIG = 10**4
_coord = st.integers(-BIG, BIG)
_k = st.integers(-BIG // 5, BIG // 5)
# random points, and the lines where these angles' forms come within
# ulps of an integer: the diagonals (pi/4), the axes (pi/6, and the
# origin) and the preimages of lattice points under the 3-4-5 rotation
_point = st.one_of(
    st.tuples(_coord, _coord),
    _coord.map(lambda x: (x, x)),
    _coord.map(lambda x: (x, -x)),
    _coord.map(lambda x: (x, 0)),
    _coord.map(lambda y: (0, y)),
    _k.map(lambda k: (4 * k, -3 * k)),
    _k.map(lambda k: (3 * k, 4 * k)),
)
BOUNDS = ["1/2", "1/3", "sqrt(2)/2", "~0.25"]


@settings(max_examples=120, deadline=None)
@given(
    angle=st.sampled_from(FLOAT_ANGLES),
    mode=st.sampled_from(list(RoundingMode)),
    points=st.lists(_point, min_size=1, max_size=8),
    bound=st.sampled_from(BOUNDS),
)
def test_enclosure_batch_matches_discrete_rotate(angle, mode, points, bound):
    ctx = context_from_text(angle)
    forms = image_forms(ctx, mode, max_abs=BIG)
    want = [discrete_rotate(ctx, p, mode) for p in points]
    xs, ys = [x for x, _ in points], [y for _, y in points]
    A, B = np.array(xs, dtype=np.int64), np.array(ys, dtype=np.int64)
    X, Y, redecided = _exact_images(forms, A, B, mode)
    assert list(zip(X.tolist(), Y.tolist())) == want
    # every point, flagged or not: the coefficients' 128 bits decide it
    for c, k in enumerate(forms):
        assert _decided(k, xs, ys, mode) == [w[c] for w in want]
        assert k.decide_floor(xs, ys)[1] == [k.exact_frac_zero(x, y) for x, y in points]
    if mode is RoundingMode.FLOOR:
        t = parse_scalar(bound)
        for k in forms:
            got = k.decide_frac_lt(xs, ys, t)
            assert got == [k.exact_frac_lt(x, y, t) for x, y in points]
        m, _, scalar = _exact_box(forms, A, B, (t, t))
        assert m.tolist() == [all(k.exact_frac_lt(x, y, t) for k in forms) for x, y in points]
        assert scalar == 0


def test_quadratic_enclosures_decide_every_point():
    # a quadratic form encloses each point exactly (lo == hi at integral
    # values), so its batch decides what a guard-tripped window flags,
    # with nothing left for the scalar layer but {L} = t at a t that is
    # not a dyadic (3-4-5 hits 2/5 and 1/5 exactly)
    A, B = _window(R)
    xs, ys = A.ravel().tolist(), B.ravel().tolist()
    bounds = [rational(1, 2), rational(2, 5), rational(1, 5), rational(1)]
    for angle in ["pi/4", "pi/6", "pi*7/6", "pyth:3,4,5", "pyth:-20,21,29"]:
        ctx = context_from_text(angle)
        for mode in RoundingMode:
            want = [discrete_rotate(ctx, p, mode) for p in zip(xs, ys)]
            for c, k in enumerate(image_forms(ctx, mode, max_abs=R)):
                assert _decided(k, xs, ys, mode) == [w[c] for w in want], (angle, mode)
                integral = [k.exact_frac_zero(x, y) for x, y in zip(xs, ys)]
                assert k.decide_floor(xs, ys)[1] == integral, (angle, mode)
                if mode is not RoundingMode.FLOOR:
                    continue
                for t in bounds:
                    dyadic = t.denominator & (t.denominator - 1) == 0
                    for x, y, g in zip(xs, ys, k.decide_frac_lt(xs, ys, t)):
                        on = compare(frac_part(k.exact_value(x, y)), t) == 0
                        if g is None:
                            assert on and not dyadic, (angle, x, y, t)
                        else:
                            assert g == k.exact_frac_lt(x, y, t), (angle, x, y, t)


def test_quadratic_forms_past_the_int64_guard():
    # 39999-400-40001 turned by pi/4: D is about 3.2e9, so the census takes
    # the grid, and at M = 450 both image forms are past the int64 guard,
    # so their vector floor runs the float prefilter
    ctx = context_from_text("quad:sin=40399*sqrt(2)/80002,cos=-39599*sqrt(2)/80002")
    M = 450
    R = kernels._domain_radius(M)
    for mode in (RoundingMode.FLOOR, RoundingMode.ROUND):
        assert not any(k.vector_ok for k in image_forms(ctx, mode, max_abs=R))
        for kind in CensusKind:
            count, idx, _, _ = _grid_census(ctx, M, mode, kind, True, 1)
            o = brute_force_census(ctx, M, mode, kind, cap=None, keep_points=True)
            assert count == o.count > 0 and _sorted_points(idx, M) == o.points
    # trunc's images, truncated by floor itself, against the scalar map: at every
    # point the prefilter flags and at sampled points of the window
    mode = RoundingMode.TRUNC
    forms = image_forms(ctx, mode, max_abs=R)
    assert not any(k.vector_ok for k in forms)
    A, B = _window(R)
    unc = _flagged(forms, A, B, mode)
    rng = np.random.default_rng(20261019)
    A = np.concatenate([A[unc], rng.integers(-R, R + 1, 300)])
    B = np.concatenate([B[unc], rng.integers(-R, R + 1, 300)])
    X, Y, redecided = _exact_images(forms, A, B, mode)
    assert redecided >= unc.sum() > 0
    want = [discrete_rotate(ctx, p, mode) for p in zip(A.tolist(), B.tolist())]
    assert list(zip(X.tolist(), Y.tolist())) == want


def test_enclosures_of_general_forms():
    # -1 + 2^-10 encloses as [-256, -255] at 8 bits: the floor is -1, but
    # whether L is the integer -1 stays open until a finer enclosure,
    # which the batch reaches from an 8-bit start too
    for value, want, trunc in (("-0.9990234375", ([-1], [False]), 0), ("-1", ([-1], [True]), -1),
                               ("-1.5", ([-2], [False]), -1)):
        k = make_form(highprec(value), ZERO, ZERO, max_abs=1)
        assert k.decide_floor([1], [0]) == want, value
        assert _decided(k, [1], [0], RoundingMode.TRUNC) == [trunc], value
        k._bits = 8
        assert k.decide_floor([1], [0]) == want, value
    # an irrational constant term: L = x + sqrt(2)/2
    k = make_form(rational(1), ZERO, quad(0, 1, 2, 2), max_abs=5)
    xs = list(range(-5, 6))
    assert k.decide_floor(xs, [0] * 11) == (xs, [False] * 11)
    assert k.decide_frac_lt(xs, [0] * 11, rational(1, 2)) == [False] * 11
    assert k.decide_frac_lt(xs, [0] * 11, rational(3, 4)) == [True] * 11


def _spy_enclosures(k):
    """Record (bits, points) of each enclose call on the form k."""
    calls, enclose = [], k.enclose

    def spy(xs, ys, bits):
        calls.append((bits, len(xs)))
        return enclose(xs, ys, bits)

    k.enclose = spy
    return calls


def test_open_points_escalate_to_the_exact_answer():
    # from a low start the enclosures cannot separate most flagged
    # points; the batch encloses only those again, at doubling
    # precision, until each is settled at discrete_rotate's answer
    cases = 0
    for angle in FLOAT_ANGLES[::2]:  # pi/4 flags in floor and trunc, pi/6 in round
        ctx = context_from_text(angle)
        for mode in RoundingMode:
            forms = image_forms(ctx, mode, max_abs=40)
            A, B = _window(40)
            unc = _flagged(forms, A, B, mode)
            if unc is None or not unc.any():
                continue
            cases += 1
            idx = np.nonzero(unc)
            xs, ys = A[idx].tolist(), B[idx].tolist()
            want = [discrete_rotate(ctx, p, mode) for p in zip(xs, ys)]
            full = _exact_images(forms, A, B, mode)
            escalated = False
            for c, k in enumerate(forms):
                k._bits = 8
                calls = _spy_enclosures(k)
                assert _decided(k, xs, ys, mode) == [w[c] for w in want], (angle, mode)
                bits, sizes = zip(*calls)
                assert sizes[0] == len(xs) and list(sizes) == sorted(sizes, reverse=True)
                assert all(b == 2 * a for a, b in zip(bits, bits[1:])), bits
                escalated |= len(calls) > 1 and sizes[-1] < len(xs)
            assert escalated, (angle, mode)
            X, Y, redecided = _exact_images(forms, A, B, mode)
            assert redecided == len(xs) == full[2]
            assert list(zip(X[idx].tolist(), Y[idx].tolist())) == want
            assert (X == full[0]).all() and (Y == full[1]).all()
    assert cases >= 3
    # the box test too: a floor the enclosure leaves open leaves {L} open
    ctx = context_from_text(FLOAT_ANGLES[0])
    forms = image_forms(ctx, RoundingMode.FLOOR, max_abs=40)
    A, B = _window(40)
    ts = (rational(1, 2), rational(1, 3))
    full, _, _ = _exact_box(forms, A, B, ts)
    diagonal = list(range(-40, 41))
    for k, t in zip(forms, ts):
        k._bits = 8
        got = k.decide_frac_lt(diagonal, diagonal, t)
        want = [k.exact_frac_lt(x, x, t) for x in diagonal]
        assert None in got
        assert all(g is None or g == w for g, w in zip(got, want))
    m, _, scalar = _exact_box(forms, A, B, ts)
    assert scalar > 0 and (m == full).all()


def test_flagged_points_are_redecided_only_in_kernels():
    # one re-decision path: the batch in kernels, then its scalar residual
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "latrot"
    for path in sorted(src.glob("*.py")):
        if path.name != "kernels.py":
            assert "zip(*np.nonzero(" not in path.read_text(), path.name


def test_flagged_points_never_reach_the_scalar_map(monkeypatch):
    # the orbit step and the image batch settle flagged points from
    # their forms' enclosures alone, even from an 8-bit start; the
    # scalar map stays an independent oracle
    def images(text, mode):
        forms = image_forms(context_from_text(text), mode, max_abs=40)
        for k in forms:
            k._bits = 8
        X, Y, redecided = _exact_images(forms, *_window(40), mode)
        return X.tolist(), Y.tolist(), redecided

    angles = [FLOAT_ANGLES[0], FLOAT_ANGLES[2], "quad:sin=sqrt(3)/3,cos=sqrt(6)/3"]
    cases = [(text, mode) for text in angles for mode in RoundingMode]
    step = lambda: make_step(context_from_text("rad:~0.7853981633974483"))((5, 5))
    want_step, want = step(), [images(*case) for case in cases]
    assert sum(r for _, _, r in want) > 0

    def boom(*args, **kwargs):
        raise AssertionError("the scalar map was called")

    monkeypatch.setattr(rotation, "rotate", boom)
    assert step() == want_step
    assert [images(*case) for case in cases] == want
    assert not hasattr(kernels, "discrete_rotate")


def _floor_q_sqrt_d(q, d):
    """floor(q*sqrt(d)) by math.isqrt: q*q*d is not a square for q != 0."""
    r = math.isqrt(q * q * d)
    return r if q >= 0 else -r - 1


def _near_squares(d):
    """Every q > 0 with q*q*d = x*x +- 1 and q*q*d < 2^52, from the powers of
    the fundamental unit x + q*sqrt(d): the closest calls for floor(q*sqrt(d))."""
    a, b = {2: (1, 1), 3: (2, 1), 5: (2, 1), 6: (5, 2)}[d]
    x, q, out = a, b, []
    while q * q * d < 2**52:
        out.append(q)
        x, q = x * a + q * b * d, x * b + q * a
    return out


@pytest.mark.parametrize("d", [2, 3, 5, 6])
def test_vfloor_sqrt_multiple_matches_isqrt(d):
    # the sign fix is one XOR, ~r = -r - 1, where q < 0: checked at 0, +-1,
    # the top of visqrt's range (q*q*d just under 2^52, roots near 2^26),
    # and around every q whose q*q*d is next to a perfect square
    top = math.isqrt((2**52 - 1) // d)
    qs = {0, 1, top, top - 1}
    for q in _near_squares(d):
        qs |= {q - 1, q, q + 1}
    qs = sorted(q for q in qs if q <= top)
    qs += [-q for q in qs]
    assert len(_near_squares(d)) >= 8
    got = vfloor_sqrt_multiple(np.array(qs, dtype=np.int64), d)
    assert got.tolist() == [_floor_q_sqrt_d(q, d) for q in qs]


@settings(max_examples=50, deadline=None)
@given(d=st.sampled_from([2, 3, 5, 6]), data=st.data())
def test_vfloor_sqrt_multiple_matches_isqrt_anywhere(d, data):
    top = math.isqrt((2**52 - 1) // d)
    qs = data.draw(st.lists(st.integers(-top, top), min_size=1, max_size=40))
    got = vfloor_sqrt_multiple(np.array(qs, dtype=np.int64), d)
    assert got.tolist() == [_floor_q_sqrt_d(q, d) for q in qs]


def _point_values(k, A, B, trunc):
    step = k.point(trunc)
    return [step(x, y) for x, y in zip(A.ravel().tolist(), B.ravel().tolist())]


def test_quad_floor_divides_by_shifts_or_floor_division():
    # D = 2 (pi/4, pi/6) floors N by a shift, D = 10 (3-4-5 rounded) by //;
    # both against the Python-int point evaluator, on a band (pi/4 takes
    # its roots from a table there) and on a 1-D chain of wide range
    rng = np.random.default_rng(22)
    wide = 10**5
    chain = (rng.integers(-wide, wide + 1, 500), rng.integers(-wide, wide + 1, 500))
    cases = [("pi/4", RoundingMode.FLOOR, 2), ("pi/4", RoundingMode.ROUND, 2),
             ("pi/6", RoundingMode.FLOOR, 2), ("pyth:3,4,5", RoundingMode.ROUND, 10)]
    for angle, mode, D in cases:
        for max_abs, (A, B) in ((R, _window(R)), (wide, chain)):
            for k in image_forms(context_from_text(angle), mode, max_abs=max_abs):
                assert isinstance(k, QuadForm) and k.D == D
                assert (k._shift is None) == (D == 10)
                F, unc, _ = k.floor(A, B)
                assert unc is None
                assert F.ravel().tolist() == _point_values(k, *np.broadcast_arrays(A, B), False)


GUARDED = "quad:sin=40399*sqrt(2)/80002,cos=-39599*sqrt(2)/80002"
# angles whose forms take integer values inside the window: 3-4-5 where 5
# divides 4x - 3y or 3x + 4y, pi/2 everywhere, pi/6 on its Q = 0 lines
# x = 0 (L1 = -y/2) and y = 0 (L2 = x/2), pi/4 on its diagonals, where
# Q = 0 and L = 0; the float forms are integers at the origin only
TRUNC_ANGLES = ["pyth:3,4,5", "pi/2", "pi/4", "pi/6"]


def _integer_points(k, A, B):
    """Flat indices of the points (A, B) where L is an integer."""
    points = zip(A.ravel().tolist(), B.ravel().tolist())
    return [i for i, (x, y) in enumerate(points) if k.exact_frac_zero(x, y)]


def test_truncating_floor_matches_the_point_evaluator_and_discrete_rotate():
    # floor(ties=True) reads the integer points off the floor's own
    # numerator, Q = 0 and D dividing N; _exact_images truncates to
    # floor + 1 below 0 everywhere else
    mode = RoundingMode.TRUNC
    rng = np.random.default_rng(2022)
    wide = 10**5
    chain = (rng.integers(-wide, wide + 1, 300), rng.integers(-wide, wide + 1, 300))
    negative_integers = dict.fromkeys(TRUNC_ANGLES, 0)
    for angle in TRUNC_ANGLES:
        ctx = context_from_text(angle)
        for max_abs, (A, B) in ((R, _window(R)), (wide, chain)):
            forms = image_forms(ctx, mode, max_abs=max_abs)
            A, B = np.broadcast_arrays(A, B)
            X, Y, redecided = _exact_images(forms, A, B, mode)
            assert redecided == 0
            for k, V in zip(forms, (X, Y)):
                assert isinstance(k, QuadForm)
                F, unc, at = k.floor(A, B, ties=True)
                assert unc is None
                assert at.tolist() == _integer_points(k, A, B), angle
                assert V.ravel().tolist() == _point_values(k, A, B, True), angle
                negative_integers[angle] += int(np.count_nonzero(F.reshape(-1)[at] < 0))
            if max_abs == R:
                want = [discrete_rotate(ctx, p, mode) for p in zip(A.ravel().tolist(), B.ravel().tolist())]
                assert list(zip(X.ravel().tolist(), Y.ravel().tolist())) == want, angle
    # the integer test decided points below 0, except at pi/4, whose only
    # integer value is 0
    assert negative_integers.pop("pi/4") == 0
    assert min(negative_integers.values()) > 10, negative_integers


def test_truncating_floor_of_the_float_prefilter():
    # outside the slack L is never an integer: the prefilter flags every
    # integer point, floor(ties=True) leaves them there (None), and
    # _exact_images truncates to floor + 1 below 0 off the points
    # decide_floor finds integral.  Float angles, and a quadratic form
    # past the int64 guard, which runs the prefilter over its own
    # coefficients.  Their image forms are integers only where they are 0
    # (the origin, and the guarded form's Q = 0 lines, out to
    # |x| = 2*40399 here); shifted by -1 they are -1 there, which the
    # images and the point evaluators keep, against the scalar exact layer
    mode = RoundingMode.TRUNC
    rng = np.random.default_rng(7)
    line = np.arange(-2, 3, dtype=np.int64)
    for angle, max_abs in ((FLOAT_ANGLES[0], R), ("rad:~1.0", R), (GUARDED, 2 * 40399)):
        ctx = context_from_text(angle)
        forms = image_forms(ctx, mode, max_abs=max_abs)
        A, B = np.broadcast_arrays(*_window(R))
        if angle == GUARDED:
            assert not any(k.vector_ok for k in forms)
            A = rng.integers(-max_abs, max_abs + 1, (20, 20))
            B = rng.integers(-max_abs, max_abs + 1, (20, 20))
        for k in forms:
            F, unc, at = k.floor(A, B, ties=True)
            assert at is None
            assert unc.reshape(-1)[_integer_points(k, A, B)].all()
            sure = ~unc
            T = F[sure] + (F[sure] < 0)
            assert T.tolist() == _point_values(k, A[sure], B[sure], True), angle
        X, Y, _ = _exact_images(forms, A, B, mode)
        want = [discrete_rotate(ctx, p, mode) for p in zip(A.ravel().tolist(), B.ravel().tolist())]
        assert list(zip(X.ravel().tolist(), Y.ravel().tolist())) == want, angle
        A, B = np.append(A, 0), np.append(B, 0)
        if angle == GUARDED:
            A = np.concatenate([A, 40399 * line, 39599 * line])
            B = np.concatenate([B, -39599 * line, 40399 * line])
        points = list(zip(A.tolist(), B.tolist()))
        shifted = [make_form(k.alpha, k.beta, k.gamma + rational(-1), max_abs=max_abs) for k in forms]
        want = [quantize(tuple(k.exact_value(x, y) for k in shifted), mode) for x, y in points]
        X, Y, _ = _exact_images(shifted, A, B, mode)
        assert list(zip(X.tolist(), Y.tolist())) == want, angle
        steps = [k.point(True) for k in shifted]
        assert [tuple(f(x, y) for f in steps) for x, y in points] == want, angle
        negative = [i for k in shifted for i in _integer_points(k, A, B)]
        assert len(negative) >= (12 if angle == GUARDED else 2), angle
