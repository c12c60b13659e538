"""The constructors and the curve functions read every number exactly or refuse it.

Integer rows (``LatticeSet``, ``Incidence``, ``CellSet``) take Python and
numpy integers and numbers with an integer value; float rows
(``TubeFamilySpec`` from arrays or from ``CurveParams`` tubes) take numbers.
A boolean or text in either, or a non-integral value in integer rows, raises
``PreconditionViolation`` instead of being read as 1, 0, the number the text
spells or a truncation.  The curve functions (points, tangents, intersections,
the locus, diameters and a ``TubeSpec``'s delta) read a Python int or
``Fraction`` exactly and any other number as its float, and also refuse NaN
and infinities.  So does the ``eps`` of the slice calculators; a float row's
value past the float range is refused.  Every size (a resolution k, a dimension
n, the hairbrush N, a scale, a count of trials, a seed, the generators' sizes)
is read as the int it is and refused outside its range.
"""

import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kakeya_lab as kl
from kakeya_lab.curves import tubes_to_json
from kakeya_lab.exact import _integer as read_integer

POOL = [True, False, np.bool_(True), np.bool_(False), 1.5, -0.25, 0.7, "0.5", "3", np.str_("1"), math.nan,
        2**70, 0, -3, 7, 2.0, -4.0, np.int32(5), np.int64(-2), np.float64(0.75), np.float64(3.0)]
coords = st.sampled_from(POOL)
FAMILY = kl.CurveFamily(n=3, C=kl.RationalMatrix.zero(2))


def _refused(c) -> bool:
    return isinstance(c, (bool, np.bool_, str))


def _integer(c):
    """The exact integer reading of c, or the error the integer rows raise for it."""
    if _refused(c) or isinstance(c, float) and not (math.isfinite(c) and c == int(c)):
        return kl.PreconditionViolation
    return int(c)


def _expect_rows(points, build, read, past_int64=None):
    """build(points) reads each point's exact integers; a refused coordinate raises PreconditionViolation and
    a coordinate past int64 raises past_int64 when it is given."""
    want = [tuple(_integer(c) for c in p) for p in points]
    if any(c is kl.PreconditionViolation for p in want for c in p):
        with pytest.raises(kl.PreconditionViolation):
            build(points)
    elif past_int64 and any(abs(c) >= 2**63 for p in want for c in p):
        with pytest.raises(past_int64):
            build(points)
    else:
        got = read(build(points))
        assert got == set(want) and all(type(c) is int for p in got for c in p)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(coords, coords), max_size=4))
def test_integer_rows_are_exact_or_refused(points):
    _expect_rows(points, lambda p: kl.LatticeSet.of(p, dim=2), lambda s: set(s.points))
    _expect_rows(points, lambda p: kl.Incidence(pairs=[(q, q[::-1]) for q in p]),
                 lambda g: {a for a, b in g.pairs if b == a[::-1]})
    _expect_rows(points, lambda p: kl.CellSet(n=2, k=3, occupied=p), lambda c: c.occupied, OverflowError)


PAST_FLOATS = 10**400
float_coords = st.sampled_from(POOL + [PAST_FLOATS])


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(*[float_coords] * 4), min_size=1, max_size=4))
def test_float_rows_are_exact_or_refused(rows):
    Y, W = [r[:2] for r in rows], [r[2:] for r in rows]
    by_arrays = lambda: kl.TubeFamilySpec(FAMILY, Y=Y, W=W, delta=0.25)  # noqa: E731
    by_tubes = lambda: kl.TubeFamilySpec(FAMILY, [kl.TubeSpec(params=kl.CurveParams(y=y, omega=w),  # noqa: E731
                                                              delta=0.25) for y, w in zip(Y, W)])
    values = [c for r in rows for c in r]
    for build in (by_arrays, by_tubes):
        if any(map(_refused, values)) or any(c is PAST_FLOATS for c in values):
            with pytest.raises(kl.PreconditionViolation):
                build()
        elif any(math.isnan(c) for c in values):
            with pytest.raises(ValueError, match="finite"):
                build()
        else:
            spec = build()
            assert spec.Y.tolist() == [[float(c) for c in y] for y in Y]
            assert spec.W.tolist() == [[float(c) for c in w] for w in W]


@pytest.mark.parametrize("delta", POOL, ids=repr)
def test_delta_is_exact_or_refused(delta):
    build = lambda: kl.TubeFamilySpec(FAMILY, Y=[[0.25, 0]], W=[[0, 0]], delta=delta)  # noqa: E731
    if _refused(delta):
        with pytest.raises(kl.PreconditionViolation):
            build()
    elif not 0 < delta < 1:  # NaN fails both comparisons
        with pytest.raises(ValueError, match="delta"):
            build()
    else:
        assert build().delta.tolist() == [float(delta)]


@pytest.mark.parametrize("build", [
    lambda: kl.LatticeSet.of([(1.5, 0), (True, 2)]),
    lambda: kl.Incidence(pairs=[((0.7, 0), (0, 0))]),
    lambda: kl.CellSet(n=3, k=2, occupied=[(0.9, 1, 2), (True, 0, 0)]),
    lambda: kl.TubeFamilySpec(FAMILY, Y=[[True, False]], W=[[0, 0]], delta=0.25),
    lambda: kl.TubeFamilySpec(FAMILY, [kl.TubeSpec(params=kl.CurveParams(y=("0.5", 0), omega=(0, 0)), delta=0.25)]),
    lambda: kl.TubeFamilySpec(FAMILY, Y=[[PAST_FLOATS, 0]], W=[[0, 0]], delta=0.25),
    lambda: kl.TubeFamilySpec(FAMILY, Y=[[0.25, 0]], W=[[0, 0]], delta=PAST_FLOATS),
    lambda: kl.build_worstcase_kakeya(kl.companion([0, 0]), 3, [(PAST_FLOATS, 0)]),
    lambda: kl.gen_secular_counterexample((True, 0), (0, 1), [1], 2),
    lambda: kl.gen_secular_counterexample(("1.5", 0), (0, 1), [1], 2),
    lambda: kl.iterate_epsilon("0.5"),
    lambda: kl.dimension_lower_bound(3, "0.5", False),
    lambda: kl.iterate_epsilon(True),
    lambda: kl.dimension_lower_bound(3, True, False),
    lambda: kl.random_instance(0, 2, 3.5, 4),
    lambda: kl.gen_line_counterexample(kl.RationalMatrix([[1, 1], [0, 1]]), True),
    lambda: tubes_to_json([kl.TubeSpec(params=kl.CurveParams(y=(True, 0), omega=(0, 0)), delta=0.25)]),
], ids=["lattice float and bool", "incidence float", "cell float and bool", "direction bools", "direction text",
        "direction past floats", "delta past floats", "worst-case direction past floats", "secular bool",
        "secular text", "iterate text", "bound text", "iterate bool", "bound bool", "random float box", "line bool M",
        "tube json bool"])
def test_silent_coercions_are_refused(build):
    # each of these used to truncate a float, read a boolean as 1 or 0 or parse text, or raise a bare
    # OverflowError, ValueError or TypeError
    with pytest.raises(kl.PreconditionViolation):
        build()



# ----------------------------------------------------------------- curves

CURVE_POOL = POOL + [math.inf, -math.inf]
curve_numbers = st.sampled_from(CURVE_POOL)
CURVED = kl.CurveFamily(n=3, C=kl.RationalMatrix([[F(1, 4), F(-1, 3)], [F(1, 5), 0]]))


def _read(c):
    """How the curve functions read c: a Python int or Fraction exactly, any other number as its float, and a
    boolean, text, NaN or an infinity not at all."""
    if _refused(c) or isinstance(c, (float, np.floating)) and not math.isfinite(c):
        return kl.PreconditionViolation
    return c if isinstance(c, (int, F)) else float(c)


def _outcome(call):
    """repr of call()'s value, so that types count, or the type of the error it raises."""
    try:
        return repr(call())
    except (kl.KakeyaLabError, ValueError) as e:
        return type(e)


def _reads_as(call, *values):
    """call(*values) refuses when a value is refused, and otherwise does what it does on their readings."""
    read = [_read(v) for v in values]
    if kl.PreconditionViolation in read:
        with pytest.raises(kl.PreconditionViolation):
            call(*values)
    else:
        assert _outcome(lambda: call(*values)) == _outcome(lambda: call(*read))


def _params(y0, y1, w0, w1):
    return kl.CurveParams(y=(y0, y1), omega=(w0, w1))


OTHER = kl.CurveParams(y=(F(1, 3), F(-1, 5)), omega=(F(1, 7), 0))  # no reading of a POOL value gives it


@settings(max_examples=150, deadline=None)
@given(st.tuples(*[curve_numbers] * 7))
def test_curve_inputs_are_read_or_refused(v):
    y0, y1, w0, w1, t, u, s = v
    _reads_as(lambda *a: kl.curve_point(CURVED, _params(*a[:4]), a[4]), y0, y1, w0, w1, t)
    _reads_as(lambda *a: kl.curve_tangent(CURVED, _params(*a[:2], 0, 0), a[2]), y0, y1, t)  # omega is not read
    _reads_as(lambda *a: kl.intersect_curves(CURVED, _params(*a), OTHER), y0, y1, w0, w1)
    _reads_as(lambda *a: kl.locus_curve_params(CURVED, a[:2], *a[2:]), y0, y1, t, u, s)
    _reads_as(lambda *a: kl.locus_point(CURVED, a[:2], *a[2:]), y0, y1, t, u, s, w0)
    tube = lambda *a: kl.TubeSpec(params=_params(*a), delta=2.0**-4)  # noqa: E731
    fixed = tube(0.25, 0.0, 0.0, 0.0)
    _reads_as(lambda *a: kl.intersection_diameter(CURVED, tube(*a), fixed), y0, y1, w0, w1)
    _reads_as(lambda d: float(kl.TubeSpec(params=OTHER, delta=d).delta), t)


def _formula(y, w, t):
    """The point's and the tangent's first two components, omega - t*y - t^2*C*y and -y - 2t*C*y for
    C = CURVED.C, exactly on the Fractions given, and for each the sum of the absolute values of its terms."""
    C = CURVED.C.rows
    c = [C[i][0] * y[0] + C[i][1] * y[1] for i in range(2)]
    ac = [abs(C[i][0] * y[0]) + abs(C[i][1] * y[1]) for i in range(2)]
    values = [w[i] - t * y[i] - t * t * c[i] for i in range(2)] + [-y[i] - 2 * t * c[i] for i in range(2)]
    scales = [abs(w[i]) + abs(t * y[i]) + t * t * ac[i] for i in range(2)] + [abs(y[i]) + 2 * abs(t) * ac[i]
                                                                              for i in range(2)]
    return values, scales


@settings(max_examples=150, deadline=None)
@given(st.tuples(*[st.sampled_from([c for c in POOL if _read(c) is not kl.PreconditionViolation]
                                   + [F(1, 3), F(-5, 7)])] * 4),
       st.sampled_from([0, 1, -1, F(1, 2), F(-2, 3), 0.5, -0.75, np.float64(0.1), np.int64(-1)]))
def test_points_follow_the_formula(v, t):
    # exact input gives the exact formula in Fractions, with the tangent's last component Fraction(1); any
    # float input gives Python floats within 1e-12 (relative to its terms) of the exact formula at those floats.
    # The tangent reads y and t only.
    p = _params(*v)
    read = [_read(c) for c in (*v, t)]
    values, terms = _formula([F(c) for c in read[:2]], [F(c) for c in read[2:4]], F(read[4]))
    for got, want, scales, inputs, last in ((kl.curve_point(CURVED, p, t), values[:2], terms[:2], read, read[4]),
                                            (kl.curve_tangent(CURVED, p, t), values[2:], terms[2:],
                                             read[:2] + read[4:], 1)):
        if all(isinstance(c, (int, F)) for c in inputs):
            assert list(got[:2]) == want and got[2] == last and all(type(c) is F for c in got)
        else:
            assert all(type(c) is float for c in got) and got[2] == float(last)
            assert all(abs(F(g) - w) <= F(1e-12) * sc for g, w, sc in zip(got, want, scales))


FAMILY3 = kl.CurveFamily(n=3, C=kl.companion([0, 0]))
TUBE = lambda y, w=(0, 0), delta=2.0**-6: kl.TubeSpec(params=kl.CurveParams(y=y, omega=w), delta=delta)  # noqa: E731
LINE = kl.CurveParams(y=(1, 0), omega=(0, 0))


@pytest.mark.parametrize("call", [
    lambda: kl.intersection_diameter(FAMILY3, TUBE((math.inf, 0)), TUBE((0.25, 0))),
    lambda: kl.intersection_diameter(FAMILY3, TUBE((0.25, 0), (math.nan, 0)), TUBE((0.25, 0))),
    lambda: kl.curve_point(FAMILY3, kl.CurveParams(y=(math.inf, 0), omega=(0, 0)), 0.5),
    lambda: kl.curve_tangent(FAMILY3, kl.CurveParams(y=(math.inf, 0), omega=(0, 0)), 0.5),
    lambda: kl.curve_point(FAMILY3, LINE, "0.5"),
    lambda: kl.curve_point(FAMILY3, kl.CurveParams(y=(True, 0), omega=(0, 0)), F(1, 2)),
    lambda: kl.curve_tangent(FAMILY3, kl.CurveParams(y=(True, 0), omega=(0, 0)), F(1, 2)),
    lambda: kl.intersect_curves(FAMILY3, kl.CurveParams(y=("0.5", 0), omega=(0, 0)), LINE),
    lambda: kl.intersect_curves(FAMILY3, kl.CurveParams(y=(True, 0), omega=(0, 0)), LINE),
    lambda: kl.intersect_curves(FAMILY3, kl.CurveParams(y=(math.inf, 0), omega=(0, 0)), LINE),
    lambda: kl.intersect_curves(FAMILY3, kl.CurveParams(y=(math.nan, 0), omega=(0, 0)), LINE),
    lambda: kl.locus_curve_params(FAMILY3, (True, 0), F(1, 2), F(1, 4), F(-1, 4)),
    lambda: kl.locus_point(FAMILY3, ("1", 0), "0.5", 0.25, -0.25, 0.1),
    lambda: kl.locus_point(FAMILY3, (1, 0), math.inf, 0.25, -0.25, 0.1),
    lambda: TUBE((0.25, 0), delta="0.25"),
    lambda: kl.hairbrush_claim_check(FAMILY3, TUBE((0, 0), ("0", 0)), TUBE((0.25, 0)), TUBE((0.25, 0.1)), 2, 3, 0),
], ids=["diameter inf direction", "diameter nan centre", "point inf", "tangent inf", "point text height",
        "point bool", "tangent bool", "intersect text", "intersect bool", "intersect inf", "intersect nan",
        "locus params bool", "locus point text", "locus point inf t0", "tube text delta", "claim text centre"])
def test_curve_repros_are_refused(call):
    # each of these used to answer (a NaN point, a silent "disjoint", a parsed text, True read as 1) or raise
    # a bare TypeError, OverflowError or ValueError
    with pytest.raises(kl.PreconditionViolation):
        call()


@pytest.mark.parametrize("y, t", [((0.5, 0.25), 0.5), ((F(1, 2), 0), 0.5), ((np.float64(0.5), 0), F(1, 2)),
                                  ((np.int64(1), 0), 0)])
def test_float_points_are_python_floats(y, t):
    # the float path returned numpy floats; an exact height with a float direction returned a Fraction tangent
    p = kl.CurveParams(y=y, omega=(0, 0))
    for got in (kl.curve_point(FAMILY3, p, t), kl.curve_tangent(FAMILY3, p, t)):
        assert all(type(c) is float for c in got)


# ------------------------------------------------------------------ sizes

WORST = kl.companion([0, 0])
CLAIM = [TUBE(y, w, 2.0**-8) for y, w in (((0, 0), (0, 0)), ((0.1125, 0), (0.045, 0)),
                                          ((0.0723, 0.0862), (0.042712, 0.03448)))]


@pytest.mark.parametrize("call", [
    lambda: kl.union_volume(kl.build_worstcase_kakeya(WORST, 1), True),
    lambda: kl.build_worstcase_kakeya(WORST, 2.5),
    lambda: kl.ball_lattice_directions(2, 2.5),
    lambda: kl.hairbrush_decompose(kl.build_worstcase_kakeya(WORST, 2), 2.5),
    lambda: kl.hairbrush_decompose(kl.build_worstcase_kakeya(WORST, 2), True),
    lambda: kl.LatticeSet.of([(1, 2)], scale=1.5),
    lambda: kl.LatticeSet.of([(1, 2)], scale=True),
    lambda: kl.LatticeSet.of([(1, 2)], scale=0),
    lambda: kl.CellSet(n=2, k=2.5, occupied=[(0, 0)]),
    lambda: kl.dimension_lower_bound(3.5, 0.1, True),
    lambda: kl.genfail_exponents(3.5, 0),
    lambda: kl.locus_dichotomy_test(FAMILY3, (0, 1), F(1, 2), trials=100.5),
    lambda: kl.locus_dichotomy_test(FAMILY3, (0, 1), F(1, 2), trials=100, seed=-1),
    lambda: kl.random_instance(True),
    lambda: kl.box_dimension(lambda k: 2.0**-k, [3, 4, 5], n=True),
    lambda: kl.hairbrush_claim_check(FAMILY3, *CLAIM, 3, 3.5, 0),
    lambda: kl.covering_norm(kl.build_worstcase_kakeya(WORST, 3), True, 3),
    lambda: kl.covering_norm(kl.build_worstcase_kakeya(WORST, 3), "2", 3),
    lambda: kl.hairbrush_claim_check(FAMILY3, *CLAIM, 3, 3, 0, K=True),
    lambda: kl.hairbrush_claim_check(FAMILY3, *CLAIM, 3, 3, 0, K="2"),
    lambda: kl.RationalMatrix([[1, 1], [0, 1]]).power(True),
], ids=["union_volume bool k", "worst-case float k", "ball lattice float k", "hairbrush float N", "hairbrush bool N",
        "lattice float scale", "lattice bool scale", "lattice zero scale", "cell set float k", "bound float n",
        "exponents float n", "locus float trials", "locus negative seed", "random bool seed", "box bool n",
        "claim float l", "covering bool p'", "covering text p'", "claim bool K", "claim text K", "matrix bool power"])
def test_sizes_are_read_or_refused(call):
    # each of these used to answer, reading True as 1 or keeping a non-integer size, or raise a bare error
    with pytest.raises(kl.PreconditionViolation):
        call()


def test_integral_sizes_are_read_as_ints():
    assert type(kl.CurveFamily(n=3.0, C=WORST).n) is int
    spec = kl.build_worstcase_kakeya(WORST, 3)
    assert kl.union_volume(spec, 3.0) == kl.union_volume(spec, np.int64(3)) == kl.union_volume(spec, 3)
    assert kl.CellSet(n=2.0, k=np.int32(3), occupied=[(0, 0)]) == kl.CellSet(n=2, k=3, occupied=[(0, 0)])


@settings(max_examples=300, deadline=None)
@given(st.integers(-5, 5), st.one_of(st.none(), st.integers(0, 3)), st.data())
def test_integer_reader_bounds(lo, width, data):
    # lo - 1, lo, hi and hi + 1, as ints, integral floats and numpy ints, among the pool; no hi when width is None
    hi = None if width is None else lo + width
    edges = [v for v in (lo - 1, lo, hi, None if hi is None else hi + 1) if v is not None]
    c = data.draw(st.sampled_from(POOL + edges + [float(v) for v in edges] + [np.int64(v) for v in edges]))
    want = _integer(c)
    if want is not kl.PreconditionViolation and lo <= want <= (want if hi is None else hi):
        got = read_integer(c, lo, hi, "size")
        assert got == want and type(got) is int
    else:
        with pytest.raises(kl.PreconditionViolation, match="^size (must|.* is not an integer)"):
            read_integer(c, lo, hi, "size")
