"""The constructors read every coordinate exactly or refuse it.

Integer rows (``LatticeSet``, ``Incidence``, ``CellSet``) take Python and
numpy integers and numbers with an integer value; float rows
(``TubeFamilySpec`` from arrays or from ``CurveParams`` tubes) take numbers.
A boolean or text in either, or a non-integral value in integer rows, raises
``PreconditionViolation`` instead of being read as 1, 0, the number the text
spells or a truncation.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kakeya_lab as kl

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


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(coords, coords, coords, coords), min_size=1, max_size=4))
def test_float_rows_are_exact_or_refused(rows):
    Y, W = [r[:2] for r in rows], [r[2:] for r in rows]
    by_arrays = lambda: kl.TubeFamilySpec(FAMILY, Y=Y, W=W, delta=0.25)  # noqa: E731
    by_tubes = lambda: kl.TubeFamilySpec(FAMILY, [kl.TubeSpec(params=kl.CurveParams(y=y, omega=w),  # noqa: E731
                                                              delta=0.25) for y, w in zip(Y, W)])
    values = [c for r in rows for c in r]
    for build in (by_arrays, by_tubes):
        if any(map(_refused, values)):
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
], ids=["lattice float and bool", "incidence float", "cell float and bool", "direction bools", "direction text"])
def test_silent_coercions_are_refused(build):
    # each of these used to truncate a float, read a boolean as 1 or 0, or parse text
    with pytest.raises(kl.PreconditionViolation):
        build()

