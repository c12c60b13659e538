import math
import warnings
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kakeya_lab as kl
from kakeya_lab.exact import _squarefree_part, char_poly
from kakeya_lab.slices import (
    _in_region,
    _lambda_of_mu,
    _quartic_coeffs,
    _sum_product,
    aux_matrix,
    companion_blocks,
)

from conftest import float_T, float_X_of_lambda, within_one_ulp_of_a_root

I2 = kl.RationalMatrix.identity(2)
NIL = kl.companion([0, 0])
SMALL = st.fractions(-2, 2, max_denominator=4)  # small enough that singular draws are common
SQUARE = lambda n: st.lists(st.lists(SMALL, min_size=n, max_size=n), min_size=n, max_size=n)


def outcome(build):
    """build()'s value, or the type and message of the error it raises."""
    try:
        return build()
    except kl.KakeyaLabError as e:
        return type(e), str(e)


class TestSliceMatrices:
    def test_scalar_case(self):
        sm = kl.slice_matrices(kl.RationalMatrix.zero(2), F(1, 4), F(3, 4), F(1, 2))
        assert sm.X == I2
        assert sm.T == F(1, 3) * I2
        assert sm.M == kl.RationalMatrix.zero(2)

    def test_square_zero_closed_form(self):
        sm = kl.slice_matrices(NIL, 0, 1, F(1, 2))
        assert sm.X == I2 - NIL == kl.RationalMatrix([[1, -1], [0, 1]])
        assert sm.T is None  # undefined through height zero

    def test_parallel_collapse(self):
        # lam/(1-lam) = t0/t1 forces X = T when C^2 = 0
        sm = kl.slice_matrices(NIL, F(1, 3), F(2, 3), F(1, 3))
        assert sm.T is not None
        assert sm.X * sm.T.inverse() == I2

    @pytest.mark.parametrize("lam", [F(1, 5), F(1, 2), F(7, 8), F(-1, 3)])
    def test_zero_matrix_gives_scalar(self, lam):
        sm = kl.slice_matrices(kl.RationalMatrix.zero(2), F(-1, 2), F(1, 4), lam)
        assert sm.X == (lam / (1 - lam)) * I2

    def test_equal_heights_rejected(self):
        with pytest.raises(kl.SingularConfiguration):
            kl.slice_matrices(NIL, F(1, 2), F(1, 2), F(1, 3))

    def test_lambda_one_rejected(self):
        with pytest.raises(kl.SingularConfiguration):
            kl.slice_matrices(NIL, 0, F(1, 2), 1)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 3).flatmap(lambda n: st.tuples(SQUARE(n), SQUARE(n))), SMALL, SMALL, SMALL)
    @example((((-1, 0), (0, -1)), ((1, 0), (0, 1))), F(1, 4), F(3, 4), F(1, 2))  # I + (t0+t1)C singular
    @example((((-2, 0), (0, -2)), ((1, 0), (0, 1))), F(-1, 2), F(1, 2), F(1, 2))  # I + lam M and I + t1 C
    @example((((0, 1), (0, 0)), ((1, 0), (0, 1))), F(0), F(1, 2), F(1))  # lam = 1, t0 = 0
    def test_matrices_follow_their_definitions(self, pair, t0, t1, lam):
        # M, X(lam) and T against their definitions composed from matrix operations, errors included
        C, D = (kl.RationalMatrix(rows) for rows in pair)
        I = kl.RationalMatrix.identity(C.dim)

        def inverse(A, message):
            if A.det() == 0:
                raise kl.SingularConfiguration(message)
            return A.inverse()

        def M():
            return (t1 - t0) * (C * inverse(I + (t0 + t1) * C, f"I + (t0+t1)C is singular at t0+t1={t0 + t1}"))

        def X():
            m = M()
            if lam == 1:
                raise kl.SingularConfiguration("lam = 1")
            return (lam / (1 - lam)) * (inverse(I + lam * m, "I + lam*M is singular") * (I - (1 - lam) * m))

        def T():
            if t0 == 0 or t1 == 0:
                raise kl.SingularConfiguration("T requires t0, t1 != 0")
            return (t0 / t1) * ((I + t0 * C) * inverse(I + t1 * C, "I + t1*C is singular"))

        for got, want in ((lambda: aux_matrix(C, t0, t1), M), (lambda: kl.x_of_lambda(C, t0, t1, lam), X),
                          (lambda: kl.centre_matrix(C, t0, t1), T)):
            assert outcome(got) == outcome(want)
        n = C.dim
        assert (C * D).rows == tuple(tuple(sum(C[i, k] * D[k, j] for k in range(n)) for j in range(n))
                                     for i in range(n))

    def test_matches_float_formulas(self):
        C = kl.RationalMatrix([[F(1, 4), F(-1, 8)], [F(1, 8), F(1, 4)]])
        t0, t1, lam = F(-1, 3), F(1, 2), F(2, 5)
        sm = kl.slice_matrices(C, t0, t1, lam)
        Cf = C.to_float()
        assert np.allclose(sm.X.to_float(), float_X_of_lambda(Cf, float(t0), float(t1), float(lam)), atol=1e-12)
        assert np.allclose(sm.T.to_float(), float_T(Cf, float(t0), float(t1)), atol=1e-12)


class TestNondegeneracy:
    def test_zero(self):
        assert kl.check_nondegenerate(kl.RationalMatrix.zero(2))

    def test_large_real_eigenvalue(self):
        # det(I + 2t diag(3/5, 0)) vanishes at t = -5/6 inside the support
        assert not kl.check_nondegenerate(kl.RationalMatrix.diagonal([F(3, 5), 0]))

    def test_nilpotent(self):
        assert kl.check_nondegenerate(NIL)

    def test_boundary_eigenvalue(self):
        # eigenvalue exactly 1/2 makes det(I + 2tC) vanish at t = -1
        assert not kl.check_nondegenerate(kl.RationalMatrix.diagonal([F(1, 2), 0]))

    def test_complex_pair_large_modulus(self):
        # no real eigenvalues, so nondegenerate regardless of modulus
        assert kl.check_nondegenerate(kl.RationalMatrix([[F(5, 2), -1], [1, F(5, 2)]]))


class TestNikodymSolver:
    def test_square_zero_canonical_solution(self):
        sol = kl.solve_nikodym_three_slice(NIL)
        assert sol.kind == "nikodym3"
        assert sol.heights == (F(1, 3), F(2, 3), F(4, 9))
        assert sol.lam == F(1, 3)
        assert sol.residual == 0.0
        assert sol.t0_range is not None

    def test_complex_pair_branch(self):
        C = kl.RationalMatrix([[F(5, 2), -1], [1, F(5, 2)]])
        sol = kl.solve_nikodym_three_slice(C)
        t0, t1, t2 = (float(h) for h in sol.heights)
        a2b2 = 2.5**2 + 1.0
        assert abs(t0 - math.sqrt(3 * 2.5**2 - 1.0) / a2b2) < 1e-12
        assert t1 == -t0
        assert abs(t2 - (-2 * 2.5 / a2b2)) < 1e-12
        # reciprocal-sum identity
        assert abs(2 * 2.5 / a2b2 + (t0 + t1 + t2)) < 1e-8
        assert sol.residual <= 1e-9
        assert sol.t0_range is not None

    def test_repeated_real_eigenvalue_blocked(self):
        with pytest.raises(kl.NoSolution) as e:
            kl.solve_nikodym_three_slice(kl.RationalMatrix.diagonal([F(2, 5), F(2, 5)]))
        assert e.value.reason == "reciprocal_sum_out_of_range"

    def test_real_pair_region_walk(self):
        C = kl.RationalMatrix.diagonal([F(1, 4), F(-2, 5)])
        sol = kl.solve_nikodym_three_slice(C)
        assert sol.residual <= 1e-9
        t0, t1, t2 = (float(h) for h in sol.heights)
        assert abs((4 - 2.5) + (t0 + t1 + t2)) < 1e-8  # 1/h + 1/k = 4 - 5/2
        assert sol.t0_range is not None

    def test_zero_eigenvalue_blocked(self):
        with pytest.raises(kl.NoSolution):
            kl.solve_nikodym_three_slice(kl.RationalMatrix.diagonal([F(1, 4), 0]))

    @pytest.mark.parametrize("h,k", [
        (F(1, 4), F(-2, 5)), (F(2, 5), F(-1, 4)), (F(9, 20), F(-7, 20)),
        (F(-2, 5), F(3, 10)), (F(3, 10), F(-9, 20)), (F(1, 3), F(-5, 12)),
        # 1 + h/k = 3/5 - 10^-17: the exact gate takes it, while 1 + h/k in floats rounds to 0.6
        (F(-2, 5) - F(1, 10**17), F(1)),
        # the first heights in the region (j = 22) have the gap 1.009e-9; certified ones follow at j = 24
        (-2 - F(1, 10**12), F(5)),
    ])
    def test_real_pair_sweep(self, h, k):
        # opposite-sign pairs with |1/h + 1/k| < 3, swept across the region
        assert abs(1 / h + 1 / k) < 3
        tau = 1 + min(h, k, key=abs) / max(h, k, key=abs)
        assert 0 < tau < F(3, 5)
        sol = kl.solve_nikodym_three_slice(kl.RationalMatrix.diagonal([h, k]))
        assert sol.regime == "real_pair" and sol.residual <= 1e-9
        t0, t1, t2 = (float(x) for x in sol.heights)
        assert abs((1 / float(h) + 1 / float(k)) + (t0 + t1 + t2)) < 1e-8
        assert_in_reference_region(sol)

    @pytest.mark.parametrize("h,k", [(F(-2), F(5)), (F(-1), F(1))])
    def test_real_pair_gate_ends_refused(self, h, k):
        # 1 + h/k = 3/5 and 1 + h/k = 0: the ends of the open interval (0, 3/5)
        with pytest.raises(kl.NoSolution) as e:
            kl.solve_nikodym_three_slice(kl.RationalMatrix.diagonal([h, k]))
        assert e.value.reason == "real_region_empty"

    def test_range_containing_zero_refused(self):
        # t0 = 7.8e-4 < RANGE_PROBE: T is undefined at t0 = 0, so no range is reported
        sol = kl.solve_nikodym_three_slice(kl.RationalMatrix([[F(7, 3), F(-11, 3)], [-12, F(-9, 4)]]))
        assert sol.regime == "real_pair" and sol.residual <= 1e-9
        assert 0 < sol.heights[0] < 1e-3 and sol.t0_range is None

    def test_range_refused_when_a_probe_fails(self):
        # t2 = 0.99926 lies within RANGE_PROBE of 1: at t0 + 1e-3 the heights nearest t1 have t2 = 1.00016,
        # outside (-1, 1), so that probe is not certified and no range is reported
        sol = kl.solve_nikodym_three_slice(kl.RationalMatrix([[F(-9, 8), F(-993, 1000)], [F(993, 1000), F(-9, 8)]]))
        assert sol.regime == "complex_symmetric" and sol.residual <= 1e-9
        assert sol.heights[0] > 1e-3 and 1 - 1e-3 < sol.heights[2] < 1 and sol.t0_range is None

    def test_diagonal_three_by_three(self):
        # repeated eigenvalue is fine as long as only two distinct values occur
        C = kl.RationalMatrix.diagonal([F(1, 4), F(1, 4), F(-2, 5)])
        sol = kl.solve_nikodym_three_slice(C)
        assert sol.residual <= 1e-9

    def test_residual_recomputed_independently(self):
        for C in (NIL, kl.RationalMatrix([[F(5, 2), -1], [1, F(5, 2)]]),
                  kl.RationalMatrix.diagonal([F(1, 4), F(-2, 5)])):
            sol = kl.solve_nikodym_three_slice(C)
            t0, t1, t2 = (float(h) for h in sol.heights)
            lam = (t0 - t2) / (t0 - t1)
            Cf = C.to_float()
            res = np.max(np.abs(float_X_of_lambda(Cf, t0, t1, lam) - float_T(Cf, t0, t1)))
            assert res <= 1e-9

    def test_heights_satisfy_matrix_quadratic(self):
        # independent check straight against the height-quadratic matrix identity
        for C in (kl.RationalMatrix([[F(5, 2), -1], [1, F(5, 2)]]),
                  kl.RationalMatrix.diagonal([F(1, 4), F(-2, 5)]),
                  kl.RationalMatrix.diagonal([F(9, 20), F(-7, 20)])):
            sol = kl.solve_nikodym_three_slice(C)
            t0, t1, t2 = (float(h) for h in sol.heights)
            Cf = C.to_float()
            quad = ((t0**2 * t2**2 + t1**2 * t2**2 - 2 * t0**2 * t1**2) * (Cf @ Cf)
                    + (t0 + t1 + t2) * (t0 * t2 + t1 * t2 - 2 * t0 * t1) * Cf
                    + (t0 * t2 + t1 * t2 - 2 * t0 * t1) * np.eye(C.dim))
            assert np.max(np.abs(quad)) <= 1e-9


def exact_X(C, t0, t1, lam):
    """X(lam) in Fractions, written out longhand."""
    I = kl.RationalMatrix.identity(C.dim)
    M = (t1 - t0) * (C * (I + (t0 + t1) * C).inverse())
    return (lam / (1 - lam)) * ((I + lam * M).inverse() * (I - (1 - lam) * M))


def exact_T(C, t0, t1):
    I = kl.RationalMatrix.identity(C.dim)
    return (t0 / t1) * ((I + t0 * C) * (I + t1 * C).inverse())


def max_gap(A, B) -> float:
    return float(max(abs(a - b) for ra, rb in zip(A.rows, B.rows) for a, b in zip(ra, rb)))


ROT10 = kl.RationalMatrix([[0, -10], [10, 0]])
NIKODYM_CASES = [
    NIL, kl.RationalMatrix([[F(5, 2), -1], [1, F(5, 2)]]), kl.RationalMatrix.diagonal([F(1, 4), F(-2, 5)]),
    kl.RationalMatrix.diagonal([F(1, 4), F(1, 4), F(-2, 5)]), kl.RationalMatrix([[-3, -1], [1, -3]]),
    kl.RationalMatrix([[37, F(-5, 2)], [F(5, 2), 37]]), kl.RationalMatrix([[F(7, 3), -2], [-1, F(-8, 3)]]),
]
KAKEYA_CASES = [
    ROT10, kl.RationalMatrix([[-2, F(-1, 2)], [F(1, 2), -2]]),
    kl.RationalMatrix([[F(13, 10), F(-1, 10)], [F(1, 10), F(13, 10)]]),
    kl.RationalMatrix([[0, -10, 0, 0], [10, 0, 0, 0], [0, 0, 0, -10], [0, 0, 10, 0]]),
]


class TestCertifiedResiduals:
    """Residuals are the exact gap at the returned values, each taken as the rational it is."""

    @pytest.mark.parametrize("C", NIKODYM_CASES)
    def test_nikodym_residual_is_the_exact_gap(self, C):
        sol = kl.solve_nikodym_three_slice(C)
        t0, t1, lam = F(sol.heights[0]), F(sol.heights[1]), F(sol.lam)
        assert sol.residual == max_gap(exact_X(C, t0, t1, lam), exact_T(C, t0, t1)) <= 1e-9

    @pytest.mark.parametrize("C", KAKEYA_CASES)
    def test_kakeya_residual_is_the_exact_gap(self, C):
        sol = kl.solve_kakeya_four_slice(C)
        t0, t1 = sol.heights
        X_lam, X_mu = exact_X(C, t0, t1, F(sol.lam)), exact_X(C, t0, t1, F(sol.mu))
        assert sol.residual == max_gap(X_lam - X_mu, kl.RationalMatrix.identity(C.dim)) <= 1e-9

    def test_diverging_range_probe_stops_without_warnings(self):
        # float Newton steps from (t1, t2) overflow at t0 - 1e-3; the quartic's root next to t1 is certified
        C = kl.RationalMatrix([[F(-3, 4), 0], [F(5, 4), F(7, 4)]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = kl.solve_nikodym_three_slice(C)
        t0 = sol.heights[0]
        assert sol.t0_range == (t0 - 1e-3, t0 + 1e-3) and sol.residual <= 1e-9
        assert_probes_certified(C, sol)

    @pytest.mark.parametrize("C", NIKODYM_CASES[1:])
    def test_range_probes_are_certified(self, C):
        sol = kl.solve_nikodym_three_slice(C)
        assert sol.t0_range is not None
        assert_probes_certified(C, sol)


def assert_probes_certified(C, sol):
    """At t0 -/+ 1e-3, heights summing to -S and solving the product identity pass the exact gap.

    The quartic in t1 is rebuilt in floats with numpy, apart from the library's exact one.
    """
    s, p = sum_product(C)
    S, P = float(s / p), float(p)
    t0, t1, _ = sol.heights
    t = np.polynomial.Polynomial([0, 1])
    for t0p in (t0 - 1e-3, t0 + 1e-3):
        t2 = -S - t0p - t
        c = t0p * t2 + t * t2 - 2 * t0p * t
        a = t0p**2 * t2**2 + t**2 * t2**2 - 2 * t0p**2 * t**2
        roots = [r.real for r in (c - P * a).roots() if abs(r.imag) < 1e-9 and -1 < r.real < 1]
        u1 = min(roots, key=lambda r: abs(r - t1))
        lam = (t0p - (-S - t0p - u1)) / (t0p - u1)
        assert max_gap(exact_X(C, F(t0p), F(u1), F(lam)), exact_T(C, F(t0p), F(u1))) <= 1e-9


def sum_product(C):
    return _sum_product(_squarefree_part(char_poly(C)))


def region_c_bounds(b: float) -> tuple[float, float]:
    """The real-pair region (lo, up) of c = t2/t0 on the line t1 = b t0, in floats from its closed form."""
    lo = (-6 - 4 * b - 2 * b * b
          + 2 * math.sqrt(7 * b**4 + 28 * b**3 + 52 * b**2 + 48 * b + 9)) / (2 * (b * b + 2 * b + 3))
    return lo, 2 * b / (1 + b)


GRID = [1 - 0.5**j for j in range(1, 45)]


def assert_in_reference_region(sol):
    """t1/t0 is a grid value b, up to the rounding of t1, and t2/t0 lies in the float region for b.

    The closed form is good to a few 1e-16 on the grid, and near b = 1 the region narrows below
    that: the heights of a pair with 1 + h/k just under 3/5 lie within 1e-15 of lo(b).
    """
    t0, t1, t2 = (F(t) for t in sol.heights)
    b = min(GRID, key=lambda g: abs(t1 / t0 - F(g)))
    assert abs(t1 / t0 - F(b)) <= F(1, 2**52)
    lo, up = region_c_bounds(b)
    assert F(lo) - F(1e-15) < t2 / t0 < F(up) + F(1e-15)


class TestRealPairRegion:
    """The exact region test against the float closed form of its bounds."""

    @pytest.mark.parametrize("b", GRID)
    def test_exact_region_matches_the_closed_form(self, b):
        lo, up = region_c_bounds(b)
        # samples stay away from the ends by far more than the closed form's rounding, a few 1e-16
        margin = max((up - lo) / 10, 1e-9)
        outside = [lo - margin, up + margin, -3.0, -1.0, 0.0, 1.0]
        inside = [lo + f * (up - lo) for f in (0.1, 0.25, 0.5, 0.75, 0.9)] if up - lo > 1e-9 else []
        assert not any(_in_region(F(b), F(c)) for c in outside)
        assert all(_in_region(F(b), F(c)) for c in inside)

    def test_real_pair_heights_lie_in_the_region(self):
        sols = [kl.solve_nikodym_three_slice(C) for C in NIKODYM_CASES]
        real = [sol for sol in sols if sol.regime == "real_pair"]
        assert len(real) == 3
        for sol in real:
            assert_in_reference_region(sol)


class TestEigenvalueCount:
    """s = h + k and p = hk of the distinct eigenvalues are read off the squarefree part exactly."""

    def test_merged_pair_reports_true_reciprocal_sum(self):
        # within 1e-8 of each other, so float clustering at 1e-8 merged them and reported 2e9
        C = kl.RationalMatrix.diagonal([F(-1, 10**9), F(16668, 10**13)])
        assert sum_product(C) == (F(6668, 10**13), F(-16668, 10**22))
        with pytest.raises(kl.NoSolution) as e:
            kl.solve_nikodym_three_slice(C)
        assert e.value.reason == "reciprocal_sum_out_of_range" and "4.00048e+08" in str(e.value)

    def test_one_eigenvalue_with_a_split_float_spectrum(self):
        # a conjugated 3x3 Jordan block for 1: its float eigenvalues lie about 4e-6 apart
        J = kl.RationalMatrix([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
        P = kl.RationalMatrix([[1, 2, 0], [0, 1, 3], [1, 0, 1]])
        C = P * J * P.inverse()
        assert len({complex(z) for z in np.linalg.eigvals(C.to_float())}) == 3
        assert sum_product(C) == (2, 1)  # the single eigenvalue 1, twice
        with pytest.raises(kl.NoSolution) as e:
            kl.solve_nikodym_three_slice(C)
        assert e.value.reason == "real_region_empty"
        with pytest.raises(kl.NoSolution) as e:
            kl.solve_kakeya_four_slice(C)
        assert e.value.reason == "real_spectrum_blocked"

    def test_tiny_conjugate_pair_kept_apart(self):
        e9 = F(1, 10**9)
        s, p = sum_product(kl.RationalMatrix([[e9, -e9], [e9, e9]]))
        assert (s, p) == (2 * e9, 2 * e9 * e9) and s * s < 4 * p  # 1e-9 (1 +- i)

    def test_three_values_refused(self):
        C = kl.RationalMatrix.diagonal([F(1, 4), F(1, 3), F(-1, 2)])
        assert sum_product(C) is None
        with pytest.raises(kl.NoSolution) as e:
            kl.solve_nikodym_three_slice(C)
        assert e.value.reason == "too_many_eigenvalues"


B11 = F(1, 10**11)


class TestExactRegimes:
    """Regimes and reason codes follow the exact spectrum, however small its imaginary part."""

    @pytest.mark.parametrize("b", [B11, F(1, 10**9)])
    @pytest.mark.parametrize("rows", [
        lambda b: [[0, -b], [b, 0]],
        lambda b: [[F(1, 2), -b, 0], [b, F(1, 2), 0], [0, 0, F(1, 2)]],
    ])
    def test_kakeya_small_rotation_region_violated(self, rows, b):
        with pytest.raises(kl.NoSolution) as e:
            kl.solve_kakeya_four_slice(kl.RationalMatrix(rows(b)))
        assert e.value.reason == "region_violated"

    @pytest.mark.parametrize("b", [B11, F(1, 10**9)])
    @pytest.mark.parametrize("a", [1, -1, 0])
    def test_nikodym_small_imaginary_part_is_complex(self, a, b):
        with pytest.raises(kl.NoSolution) as e:
            kl.solve_nikodym_three_slice(kl.RationalMatrix([[a, -b], [b, a]]))
        assert e.value.reason == "complex_region_empty"

    def test_reciprocal_sum_exactly_three_refused(self):
        # trace 45/14 over det 15/14: |1/h + 1/k| = 3, which floats put just below 3
        with pytest.raises(kl.NoSolution) as e:
            kl.solve_nikodym_three_slice(kl.RationalMatrix([[F(12, 7), -2], [F(-3, 4), F(3, 2)]]))
        assert e.value.reason == "reciprocal_sum_out_of_range" and e.value.detail == "|1/h + 1/k| = 3 >= 3"

    @pytest.mark.parametrize("C", KAKEYA_CASES)
    def test_mu_is_a_root_of_the_quartic_of_exact_m(self, C):
        # lam and the quartic come from M's exact (s, p), read here off char_poly(M)
        sol = kl.solve_kakeya_four_slice(C)
        s, p = sum_product(aux_matrix(C, *sol.heights))
        assert sol.lam == _lambda_of_mu(sol.mu, float(s))
        assert within_one_ulp_of_a_root(kl.Polynomial(_quartic_coeffs(s, p)[::-1]), sol.mu)


class TestKakeyaSolver:
    def test_pure_rotation(self):
        C = kl.RationalMatrix([[0, -10], [10, 0]])
        sol = kl.solve_kakeya_four_slice(C)
        assert sol.kind == "kakeya4"
        assert sol.residual <= 1e-9
        assert 0 < sol.lam < 1 and 0 < sol.mu < 1
        assert sol.t0_range is not None
        # the recovered eigenvalue pair satisfies the sum/product relations
        M = aux_matrix(C, sol.heights[0], sol.heights[1])
        ev = np.linalg.eigvals(M.to_float())
        s_, p_ = ev.sum().real, (ev[0] * ev[1]).real
        lam, mu = sol.lam, sol.mu
        assert abs((2 / mu + 1 / (1 - mu) - 1 / (1 - lam)) + s_) < 1e-8
        assert abs((1 / (lam * mu) - 1 / (mu * (1 - lam)) + 1 / (lam * (1 - mu))) - p_) < 1e-8

    def test_nilpotent_blocked(self):
        with pytest.raises(kl.NoSolution) as e:
            kl.solve_kakeya_four_slice(NIL)
        assert e.value.reason == "nilpotent_M"

    def test_real_spectrum_blocked(self):
        with pytest.raises(kl.NoSolution) as e:
            kl.solve_kakeya_four_slice(kl.RationalMatrix.diagonal([F(1, 4), F(1, 8)]))
        assert e.value.reason == "real_spectrum_blocked"

    def test_small_rotation_region_violated(self):
        with pytest.raises(kl.NoSolution) as e:
            kl.solve_kakeya_four_slice(kl.RationalMatrix([[0, -1], [1, 0]]))
        assert e.value.reason == "region_violated"

    def test_negative_alpha_branch(self):
        C = kl.RationalMatrix([[-2, F(-1, 2)], [F(1, 2), -2]])
        sol = kl.solve_kakeya_four_slice(C)
        assert sol.residual <= 1e-9

    def test_positive_alpha_uses_swapped_heights(self):
        # real part just above (1+sqrt(2))/2 only works with the outer heights swapped
        C = kl.RationalMatrix([[F(13, 10), F(-1, 10)], [F(1, 10), F(13, 10)]])
        sol = kl.solve_kakeya_four_slice(C)
        assert sol.residual <= 1e-9
        assert sol.regime == "complex_pair_swapped"
        assert float(sol.heights[0]) > 0 > float(sol.heights[1])

    def test_repeated_conjugate_pair_higher_dimension(self):
        # two identical rotation blocks: still a single conjugate pair
        C = kl.RationalMatrix([
            [0, -10, 0, 0],
            [10, 0, 0, 0],
            [0, 0, 0, -10],
            [0, 0, 10, 0],
        ])
        sol = kl.solve_kakeya_four_slice(C)
        assert sol.residual <= 1e-9

    @pytest.mark.parametrize("p, j, k", [(F(195, 2), 8, 9), (F(117, 2), 10, 11), (F(585, 34), 16, 17)])
    def test_root_sum_tie_goes_to_the_least_eps(self, p, j, k):
        # spectrum +-i sqrt(p): the least root sum on the grid eps = 2i/195 is reached at i = j and i = k,
        # and the solver takes the least eps, as a min over (root sum, eps, swap) does
        C = kl.RationalMatrix([[0, -p], [1, 0]])
        x = lambda e: (2 - 3 * e) * (-2 * e * p) / (1 + e * e * p)  # the root sum at s = 0
        grid = [F(2 * i, 195) for i in range(1, 65)]
        least = min(min(x(e), -x(e)) for e in grid)
        assert [e for e in grid if x(e) == least] == [F(2 * j, 195), F(2 * k, 195)]
        sol = kl.solve_kakeya_four_slice(C)
        assert sol.heights == (-1 + F(2 * j, 195), 1 - F(4 * j, 195)) and sol.regime == "complex_pair"


class TestQuarticQ:
    def test_mu_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            l = F(int(rng.integers(-8, 9)), int(rng.integers(1, 7)))
            m = F(int(rng.integers(-8, 9)), int(rng.integers(1, 7)))
            assert kl.quartic_q(0, l, m) == -4

    def test_mu_one_m_minus_one(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            l = F(int(rng.integers(-8, 9)), int(rng.integers(1, 7)))
            assert kl.quartic_q(1, l, F(-1)) == 0

    def test_mu_one_general(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            l = F(int(rng.integers(-8, 9)), int(rng.integers(1, 7)))
            m = F(int(rng.integers(-8, 9)), int(rng.integers(1, 7)))
            assert kl.quartic_q(1, l, m) == -(l + 1) * (m + 1)

    def test_symmetric_in_l_m(self):
        assert kl.quartic_q(F(1, 3), F(2, 5), F(-7, 2)) == kl.quartic_q(F(1, 3), F(-7, 2), F(2, 5))

    def test_conjugate_pair_is_real(self):
        val = kl.quartic_q(0.3, complex(-8.6, 10.5), complex(-8.6, -10.5))
        assert isinstance(val, float)

    @pytest.mark.parametrize("mu, l, m", [
        (0.3, complex(-8.6, 10.5), complex(-8.6, -10.4)), (0.3, complex(1, 2), 3.0), (complex(0.3, 1), 0.5, 0.25),
    ])
    def test_complex_input_that_is_not_real_refused(self, mu, l, m):
        with pytest.raises(kl.PreconditionViolation):
            kl.quartic_q(mu, l, m)

    def test_float_input_matches_the_exact_value(self):
        mu, l, m = 0.3, -8.6, 1.25
        assert kl.quartic_q(mu, l, m) == pytest.approx(float(kl.quartic_q(F(mu), F(l), F(m))), rel=1e-12)

    def test_solver_coefficients_match_q_exactly(self):
        # the root-finding polynomial written in (s, p) = (l+m, lm) is the same
        # function as the quadratic-in-l form of q
        from kakeya_lab.slices import _quartic_coeffs

        rng = np.random.default_rng(9)
        for _ in range(50):
            l = F(int(rng.integers(-9, 10)), int(rng.integers(1, 7)))
            m = F(int(rng.integers(-9, 10)), int(rng.integers(1, 7)))
            mu = F(int(rng.integers(-6, 7)), int(rng.integers(1, 9)))
            coeffs = _quartic_coeffs(l + m, l * m)
            poly_val = sum(F(c) * mu ** (4 - i) for i, c in enumerate(coeffs))
            assert poly_val == kl.quartic_q(mu, l, m)


class TestIteration:
    def test_zero(self):
        assert kl.iterate_epsilon(F(0)) == F(1, 4)

    def test_quarter(self):
        assert kl.iterate_epsilon(F(1, 4)) == F(31, 101)

    def test_convergence_from_one_sixth(self):
        e = 1 / 6
        for _ in range(50):
            e = kl.iterate_epsilon(e)
        assert abs(e - 0.32486) <= 1e-4

    def test_monotone_below_fixed_point(self):
        xs = np.linspace(0, 0.32486, 50)
        vals = [kl.iterate_epsilon(float(x)) for x in xs]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_fixed_point_residual(self):
        p = kl.iteration_fixed_point()
        assert abs(kl.iterate_epsilon(p) - p) <= 1e-10
        assert kl.iterate_epsilon(p) == p
        # e = (2 - e^2)/(8 - 7e + e^2) is e^3 - 6e^2 + 8e - 2 = 0, which changes sign between p's float neighbours
        cubic = kl.Polynomial([-2, 8, -6, 1])
        assert cubic(F(math.nextafter(p, 0.0))) < 0 < cubic(F(math.nextafter(p, 1.0)))

    def test_domain(self):
        with pytest.raises(ValueError):
            kl.iterate_epsilon(1.0)


class TestOneFormula:
    """Floats get the former float formulas bit for bit."""

    FLOATS = [0.0, 5e-324, 0.32486, math.nextafter(1.0, 0.0)] + list(np.random.default_rng(5).uniform(0, 1, 996))

    def test_iterate_epsilon(self):
        for e in map(float, self.FLOATS):
            assert kl.iterate_epsilon(e).hex() == ((2.0 - e * e) / (8.0 - 7.0 * e + e * e)).hex()

    def test_dimension_lower_bound(self):
        for e in map(float, self.FLOATS):
            for n in (3, 4, 7, 10):
                for has_range in (False, True):
                    old = (n - 1) / (2.0 - e) + (1.0 if has_range else 0.0)
                    assert kl.dimension_lower_bound(n, e, has_range).hex() == old.hex()

    @pytest.mark.parametrize("eps", [-1e-300, 1.0, F(1), F(-1, 7), -1])
    def test_range_checked_once(self, eps):
        for call in (lambda: kl.iterate_epsilon(eps), lambda: kl.dimension_lower_bound(3, eps, True)):
            with pytest.raises(ValueError):
                call()


class TestDimensionLowerBound:
    def test_trivial_bound(self):
        assert kl.dimension_lower_bound(7, F(0), True) == F(8, 2)

    def test_large_n_value(self):
        val = kl.dimension_lower_bound(10, 0.32486, True)
        assert abs(val - 6.372) <= 1e-3

    def test_exact_small_case(self):
        assert kl.dimension_lower_bound(3, F(1, 6), False) == F(12, 11)


class TestGenfailExponents:
    def test_base_case(self):
        out = kl.genfail_exponents(3, 0)
        assert out.p_max == F(5, 2)

    def test_trace_flag(self):
        out = kl.genfail_exponents(3, 0, tr_adj_zero=True)
        assert out.p_max == F(7, 3)

    def test_generic_n(self):
        for n in range(3, 10):
            assert kl.genfail_exponents(n, 0).p_max == n - F(1, 2)

    def test_full_exponent_iff_top_multiplicity(self):
        for n in range(3, 10):
            for k in range(0, n - 1):
                p = kl.genfail_exponents(n, k).p_max
                assert (p == n) == (k == n - 2)

    def test_huge_n_to_json(self):
        # m is an int here; comparing it with math.inf, not math.isinf(m), takes any size
        assert kl.genfail_exponents(10**400, 0).to_json()["m"] == 2 * 10**400 - 3

    def test_m_values(self):
        assert kl.genfail_exponents(3, 0).m == 3
        assert kl.genfail_exponents(3, 0, tr_adj_zero=True).m == 4
        assert math.isinf(kl.genfail_exponents(3, 0, tr_adj_zero=True, det_zero=True).m)

    def test_k_range_validated(self):
        with pytest.raises(ValueError):
            kl.genfail_exponents(3, 2)


class TestWMatrix:
    def test_l2_example(self):
        C = kl.companion([3, 5])
        W = kl.w_matrix(C)
        assert W == kl.RationalMatrix([[0, 0], [-1, 0]])
        assert kl.direction_map_det(C, W) == kl.Polynomial([0, 0, 0, 3, -5])

    def test_l1_block(self):
        C = kl.companion([F(7, 2)])
        W = kl.w_matrix(C)
        assert W == kl.RationalMatrix([[0]])
        assert kl.direction_map_det(C, W) == kl.Polynomial([0, -1, F(-7, 2)])

    def test_l3_block_coefficients(self):
        c1, c2, c3 = F(2), F(-3), F(5)
        C = kl.companion([c1, c2, c3])
        det = kl.direction_map_det(C, kl.w_matrix(C))
        assert all(det[i] == 0 for i in range(5))
        assert det[5] == c2 and det[6] == -c3

    def test_block_diagonal_assembly(self):
        # direct sum of a 2-block and a 1-block
        rows = [[F(3), 1, 0], [F(5), 0, 0], [0, 0, F(2)]]
        C = kl.RationalMatrix(rows)
        W = kl.w_matrix(C)
        assert W == kl.RationalMatrix([[0, 0, 0], [-1, 0, 0], [0, 0, 0]])
        det = kl.direction_map_det(C, W)
        # product of per-block dets: (3t^3 - 5t^4) * (-t - 2t^2)
        expect = kl.Polynomial([0, 0, 0, 3, -5]) * kl.Polynomial([0, -1, -2])
        assert det == expect

    def test_not_companion_form(self):
        with pytest.raises(kl.NotCompanionForm):
            kl.w_matrix(kl.RationalMatrix([[0, 0], [1, 0]]))
        with pytest.raises(kl.NotCompanionForm):
            kl.w_matrix(kl.RationalMatrix([[1, 2], [3, 4]]))

    @pytest.mark.parametrize("i,j", [(0, 2), (2, 0), (1, 3), (3, 1)])
    def test_entry_outside_a_block_rejected(self, i, j):
        rows = [list(r) for r in kl.RationalMatrix([[3, 1, 0, 0], [5, 0, 0, 0], [0, 0, 2, 1], [0, 0, 7, 0]]).rows]
        assert [l for l, _ in companion_blocks(kl.RationalMatrix(rows))] == [2, 2]
        rows[i][j] = F(1, 2)
        with pytest.raises(kl.NotCompanionForm, match=rf"\({i}, {j}\)"):
            companion_blocks(kl.RationalMatrix(rows))

    @pytest.mark.parametrize("i,j", [(0, 2), (1, 1), (2, 1), (2, 2)])
    def test_entry_inside_a_block_off_its_layout_rejected(self, i, j):
        # a 3-block: only its first column and its superdiagonal of ones may be nonzero
        rows = [list(r) for r in kl.companion([1, 2, 3]).rows]
        rows[i][j] = F(4)
        with pytest.raises(kl.NotCompanionForm, match=rf"\({i}, {j}\)"):
            companion_blocks(kl.RationalMatrix(rows))

    def test_vanishing_order(self):
        C = kl.companion([3, 5])
        assert kl.vanishing_order(C, kl.w_matrix(C)) == 3
        Z = kl.companion([0, 0])
        assert math.isinf(kl.vanishing_order(Z, kl.w_matrix(Z)))


def test_heights_solution_json():
    sol = kl.solve_nikodym_three_slice(NIL)
    j = sol.to_json()
    assert j["kind"] == "nikodym3"
    assert j["heights"] == ["1/3", "2/3", "4/9"]
    assert j["lambda"] == "1/3"
    assert j["range"] is not None


@pytest.mark.parametrize("call, error, match", [
    (lambda: kl.solve_nikodym_three_slice(kl.RationalMatrix([[1, 1], [0, 0]])), kl.NoSolution,
     "unsupported_matrix_shape"),
    (lambda: kl.centre_matrix(kl.companion([0, 0]), 0, F(1, 2)), kl.SingularConfiguration, "t0, t1 != 0"),
    (lambda: kl.aux_matrix(-kl.RationalMatrix.identity(2), F(1, 4), F(3, 4)), kl.SingularConfiguration,
     "singular at t0\\+t1=1"),
    (lambda: kl.dimension_lower_bound(2, F(1, 6), False), ValueError, "at least 3"),
], ids=["nikodym3 shape", "centre t=0", "aux singular", "n < 3"])
def test_slices_typed_errors(call, error, match):
    with pytest.raises(error, match=match):
        call()
