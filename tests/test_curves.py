import math
import warnings
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import kakeya_lab as kl
from kakeya_lab.curves import MAX_K, _minimax_line_residual

from conftest import crossing_tube_pair, diameter_oracle


def fam(C):
    return kl.CurveFamily(n=C.dim + 1, C=C)


ZERO2 = kl.RationalMatrix.zero(2)
WORST = kl.companion([0, 0])  # 2x2 nilpotent block [[0,1],[0,0]]


class TestCurvePoint:
    def test_straight_line(self):
        f = fam(ZERO2)
        p = kl.CurveParams(y=(1, 0), omega=(0, 0))
        assert kl.curve_point(f, p, F(1, 2)) == (F(-1, 2), 0, F(1, 2))

    def test_worst_case_on_surface(self):
        f = fam(WORST)
        p = kl.CurveParams(y=(1, 1), omega=(0, -1))
        pt = kl.curve_point(f, p, F(1, 2))
        assert pt == (F(-3, 4), F(-3, 2), F(1, 2))
        assert pt[0] == pt[1] * pt[2]

    def test_direct_substitution(self):
        f = fam(WORST)
        p = kl.CurveParams(y=(0, 1), omega=(1, 1))
        assert kl.curve_point(f, p, 1) == (0, 0, 1)

    def test_out_of_support(self):
        f = fam(ZERO2)
        with pytest.raises(kl.HeightOutOfSupport):
            kl.curve_point(f, kl.CurveParams(y=(0, 0), omega=(0, 0)), F(3, 2))


class TestCurveTangent:
    def test_line_constant_tangent(self):
        f = fam(ZERO2)
        p = kl.CurveParams(y=(1, 0), omega=(0, 0))
        for t in (F(-1), F(0), F(1, 3)):
            assert kl.curve_tangent(f, p, t) == (-1, 0, 1)

    def test_worst_case_tangent(self):
        f = fam(WORST)
        p = kl.CurveParams(y=(0, 1), omega=(0, 0))
        assert kl.curve_tangent(f, p, F(1, 2)) == (-1, -1, 1)

    def test_vertical_curve(self):
        f = fam(WORST)
        p = kl.CurveParams(y=(0, 0), omega=(F(1, 3), F(-1, 4)))
        assert kl.curve_tangent(f, p, F(2, 3)) == (0, 0, 1)

    def test_last_component_exactly_one(self):
        f = fam(kl.RationalMatrix([[F(1, 5), F(1, 3)], [0, F(-1, 4)]]))
        assert kl.curve_tangent(f, kl.CurveParams(y=(0.3, 0.4), omega=(0, 0)), 0.7)[-1] == 1.0

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        f = fam(kl.RationalMatrix([[F(1, 4), F(-1, 3)], [F(1, 5), 0]]))
        h = 1e-6
        for _ in range(100):
            y = tuple(rng.uniform(-1, 1, 2))
            w = tuple(rng.uniform(-1, 1, 2))
            t = float(rng.uniform(-0.9, 0.9))
            p = kl.CurveParams(y=y, omega=w)
            fwd = np.array(kl.curve_point(f, p, t + h))
            bwd = np.array(kl.curve_point(f, p, t - h))
            numeric = (fwd - bwd) / (2 * h)
            exact = np.array(kl.curve_tangent(f, p, t), dtype=float)
            assert np.max(np.abs(numeric - exact)) < 1e-6


class TestIntersectCurves:
    def test_parallel_distinct(self):
        f = fam(ZERO2)
        p1 = kl.CurveParams(y=(F(1, 2), 0), omega=(0, 0))
        p2 = kl.CurveParams(y=(F(1, 2), 0), omega=(F(1, 4), 0))
        assert kl.intersect_curves(f, p1, p2) == []

    def test_linear_solve(self):
        f = fam(ZERO2)
        p1 = kl.CurveParams(y=(1, 0), omega=(0, 0))
        p2 = kl.CurveParams(y=(0, 0), omega=(F(-1, 2), 0))
        assert kl.intersect_curves(f, p1, p2) == [F(1, 2)]

    def test_quadratic_solve(self):
        f = fam(kl.RationalMatrix.diagonal([F(1, 4), 0]))
        p1 = kl.CurveParams(y=(1, 0), omega=(F(9, 16), 0))
        p2 = kl.CurveParams(y=(0, 0), omega=(0, 0))
        # t + t^2/4 = 9/16 has roots 1/2 and -9/2; only 1/2 in support
        assert kl.intersect_curves(f, p1, p2) == [F(1, 2)]

    def test_identical_raises(self):
        f = fam(ZERO2)
        p = kl.CurveParams(y=(1, 0), omega=(0, 0))
        with pytest.raises(kl.IdenticalCurves):
            kl.intersect_curves(f, p, p)

    def test_tiny_float_differences_take_the_exact_path(self):
        # both curves pass through (-1/8, -1/4, 1/2); dy = (1e-15, 0) is below any absolute float threshold
        f = fam(WORST)
        p1 = kl.CurveParams(y=(1e-15, 0.5), omega=(5e-16, 0.0))
        p2 = kl.CurveParams(y=(0.0, 0.5), omega=(0.0, 0.0))
        heights = kl.intersect_curves(f, p1, p2)
        assert heights == [0.5] and type(heights[0]) is float

    @settings(max_examples=200, deadline=None)
    @given(t0=st.integers(-64, 64), scale=st.sampled_from([1.0, 2.0**-20, 2.0**-50]),
           C=st.lists(st.integers(-4, 4), min_size=4, max_size=4),
           coords=st.lists(st.integers(-1024, 1024), min_size=6, max_size=6))
    def test_float_pairs_meeting_at_a_dyadic_height(self, t0, scale, C, coords):
        # every value is a dyadic rational with at most about 40 significant bits, so the centres
        # omega = p + t0 y + t0^2 C y that put both curves through p at t0 are exact floats
        C = kl.RationalMatrix([[F(C[0], 4), F(C[1], 4)], [F(C[2], 4), F(C[3], 4)]])
        t0 = F(t0, 64)
        p, y1, y2 = ([F(v, 1024) * F(scale) for v in coords[i:i + 2]] for i in (0, 2, 4))
        assume(y1 != y2)

        def params(y):
            cy = C.mat_vec(y)
            omega = [pi + t0 * yi + t0 * t0 * ci for pi, yi, ci in zip(p, y, cy)]
            assert all(F(float(w)) == w for w in omega)
            return kl.CurveParams(y=tuple(float(v) for v in y), omega=tuple(float(w) for w in omega))

        heights = kl.intersect_curves(fam(C), params(y1), params(y2))
        assert float(t0) in heights and all(type(t) is float for t in heights)

    def test_irrational_heights_checked_exactly(self):
        # t + t^2 = 1/2 in both components: heights (-1 +- sqrt 3)/2, of which one lies in [-1, 1]
        f = fam(kl.RationalMatrix.diagonal([1, 1]))
        zero = kl.CurveParams(y=(0, 0), omega=(0, 0))
        root = (math.sqrt(3) - 1) / 2
        for half in (F(1, 2), 0.5):
            heights = kl.intersect_curves(f, kl.CurveParams(y=(1, 1), omega=(half, half)), zero)
            assert len(heights) == 1 and abs(heights[0] - root) <= 1e-16 and type(heights[0]) is float
        # the second component asks t + t^2 = 1/4, so no height solves both
        assert kl.intersect_curves(f, kl.CurveParams(y=(1, 1), omega=(F(1, 2), F(1, 4))), zero) == []

    @pytest.mark.parametrize("seed", range(10))
    def test_points_coincide_exactly_at_heights(self, seed):
        rng = np.random.default_rng(seed)
        C = kl.RationalMatrix([[F(int(rng.integers(-1, 2)), 4) for _ in range(2)] for _ in range(2)])
        f = fam(C)
        # force a rational crossing at a chosen height
        t0 = F(int(rng.integers(-3, 4)), 8)
        y1 = (F(int(rng.integers(-4, 5)), 8), F(int(rng.integers(-4, 5)), 8))
        y2 = (F(int(rng.integers(-4, 5)), 8), F(int(rng.integers(-4, 5)), 8))
        if y1 == y2:
            return
        pt = (F(1, 8), F(-1, 8))
        cy1 = C.mat_vec(y1)
        cy2 = C.mat_vec(y2)
        om1 = tuple(pt[i] + t0 * y1[i] + t0 * t0 * cy1[i] for i in range(2))
        om2 = tuple(pt[i] + t0 * y2[i] + t0 * t0 * cy2[i] for i in range(2))
        p1 = kl.CurveParams(y=y1, omega=om1)
        p2 = kl.CurveParams(y=y2, omega=om2)
        heights = kl.intersect_curves(f, p1, p2)
        assert t0 in heights
        for t in heights:
            if isinstance(t, F):
                assert kl.curve_point(f, p1, t) == kl.curve_point(f, p2, t)


class TestIntersectionDiameter:
    def test_identical_tubes_full_overlap(self):
        f = fam(ZERO2)
        t = kl.TubeSpec(params=kl.CurveParams(y=(0.25, 0.0), omega=(0.1, 0.0)), delta=2.0**-5)
        diam, sep = kl.intersection_diameter(f, t, t)
        assert sep == 0.0
        assert diam > 1.8  # about the tube length

    def test_crossing_lines_bound(self):
        f = fam(ZERO2)
        delta = 2.0**-6
        t1 = kl.TubeSpec(params=kl.CurveParams(y=(0.25, 0.0), omega=(0.0, 0.0)), delta=delta)
        t2 = kl.TubeSpec(params=kl.CurveParams(y=(0.0, 0.0), omega=(0.0, 0.0)), delta=delta)
        diam, sep = kl.intersection_diameter(f, t1, t2)
        assert sep == 0.25
        # slices overlap for |t| < 2*delta/sep; the exact diameter is 0.251946
        # (the height extent 4*delta/sep plus the slight tilt of the lens midpoints)
        assert 0.24 <= diam <= 0.252
        assert diam <= 4.04 * delta / sep

    def test_disjoint(self):
        f = fam(ZERO2)
        delta = 2.0**-6
        t1 = kl.TubeSpec(params=kl.CurveParams(y=(0.0, 0.0), omega=(0.9, 0.9)), delta=delta)
        t2 = kl.TubeSpec(params=kl.CurveParams(y=(0.0, 0.0), omega=(-0.9, -0.9)), delta=delta)
        diam, sep = kl.intersection_diameter(f, t1, t2)
        assert diam == 0.0

    def test_fitted_constant_stable_across_resolutions(self):
        f = fam(WORST)
        fitted = {}
        for k in (6, 8):
            delta = 2.0**-k
            rng = np.random.default_rng(11)
            worst = 0.0
            for _ in range(100):
                t1, t2 = crossing_tube_pair(rng, f, delta, min_sep=8 * delta)
                diam, sep = kl.intersection_diameter(f, t1, t2)
                worst = max(worst, diam * sep / delta)
            fitted[k] = worst
        ratio = fitted[6] / fitted[8]
        assert 0.25 <= ratio <= 4.0

    @staticmethod
    def _assert_oracle(f, t1, t2):
        diam, sep = kl.intersection_diameter(f, t1, t2)
        want, want_sep = diameter_oracle(f, t1, t2)
        assert abs(diam - want) <= 1e-12 * want and sep == pytest.approx(want_sep, rel=1e-12, abs=0.0)
        return diam

    def test_matches_oracle_on_crossing_pairs(self):
        f = fam(WORST)
        delta = 2.0**-6
        rng = np.random.default_rng(99)
        for _ in range(100):
            assert self._assert_oracle(f, *crossing_tube_pair(rng, f, delta, min_sep=8 * delta)) > 0.0

    def test_matches_oracle_in_four_dimensions(self):
        # d = 3 axes, so the lens perpendicular really depends on the argmin axis
        f = fam(kl.companion([F(1, 3), F(-1, 5), F(2, 7)]))
        Cf = f.C.to_float()
        delta = 2.0**-5
        rng = np.random.default_rng(4)
        axes_used = set()
        for i in range(30):
            y1, y2 = rng.uniform(-0.5, 0.5, 3), rng.uniform(-0.5, 0.5, 3)
            if i % 3 == 0:
                y2 = y1 + rng.uniform(-2 * delta, 2 * delta, 3)  # nearly parallel: a long lens
            tstar, p = rng.uniform(-0.8, 0.8), rng.uniform(-0.3, 0.3, 3)
            t1, t2 = (kl.TubeSpec(params=kl.CurveParams(y=tuple(y), omega=tuple(p + tstar * y + tstar**2 * (Cf @ y))),
                                  delta=delta) for y in (y1, y2))
            assert self._assert_oracle(f, t1, t2) > 0.0
            # near the crossing the centres differ along (I + 2 t* C)(y2 - y1)
            axes_used.add(int(np.argmin(np.abs((y2 - y1) + 2 * tstar * (Cf @ (y2 - y1))))))
        assert len(axes_used) == 3

    @pytest.mark.parametrize("C", [WORST, kl.companion([F(1, 3), F(-1, 5), F(2, 7)])])
    def test_identical_tubes_match_oracle(self, C):
        f = fam(C)
        y = (0.25, -0.125, 0.5)[:C.dim]
        # 4 or 6 lens points per height: 129 heights at 2^-4 take one all-pairs chunk of 2^20 floats,
        # 513 heights at 2^-6 (2,052 or 3,078 points) take several
        for delta in (2.0**-4, 2.0**-6):
            t = kl.TubeSpec(params=kl.CurveParams(y=y, omega=(0.1,) * C.dim), delta=delta)
            assert self._assert_oracle(f, t, t) > 1.8

    def test_pair_distances_stay_within_the_cell_budget(self, monkeypatch):
        # identical tubes in R^3 give 4 points per height: 4 * 1025 at delta = 2^-7 match the oracle;
        # 4 * 8193 at 2^-10 have more than CELL_BUDGET pairs and are refused before any pair distance
        f, tube = fam(WORST), lambda delta: kl.TubeSpec(params=kl.CurveParams(y=(0.25, -0.125), omega=(0.1, 0.1)),
                                                         delta=delta)
        assert self._assert_oracle(f, tube(2.0**-7), tube(2.0**-7)) > 1.9
        assert (4 * 8193) ** 2 > kl.curves.CELL_BUDGET == kl.raster.CELL_BUDGET

        def pair_norms(*args):
            raise AssertionError("a pair distance was taken")

        monkeypatch.setattr(kl.curves, "_pair_norms", pair_norms)
        with pytest.raises(kl.ResolutionTooFine, match="32772 lens points"):
            kl.intersection_diameter(f, tube(2.0**-10), tube(2.0**-10))


class TestLocus:
    def test_plane_case(self):
        f = fam(ZERO2)
        y0 = (F(1), F(0))
        t0, u, s, t = F(1, 2), F(-1, 4), F(3, 4), F(1, 8)
        pt = kl.locus_point(f, y0, t0, u, s, t)
        r = (s - t) * (t0 - u) / (s - u)
        assert pt == (r * y0[0], r * y0[1], t)

    def test_t_equals_s_vanishes(self):
        f = fam(WORST)
        pt = kl.locus_point(f, (F(1), F(1, 2)), F(1, 2), F(0), F(1, 4), F(1, 4))
        assert pt[:2] == (0, 0) and pt[2] == F(1, 4)

    def test_singular_configuration(self):
        f = fam(WORST)
        with pytest.raises(kl.SingularConfiguration):
            kl.locus_point(f, (1, 0), F(1, 2), F(1, 4), F(1, 4), F(0))

    def test_square_zero_centres_on_predicted_line(self):
        f = fam(WORST)
        y0 = (F(0), F(1))
        t0, u, s = F(1, 2), F(0), F(1, 4)
        y, omega = kl.locus_curve_params(f, y0, t0, u, s)
        line = (kl.RationalMatrix.identity(2) + t0 * f.C).mat_vec(y0)
        # omega is an exact rational multiple of the line vector
        assert omega[0] * line[1] == omega[1] * line[0]

    def test_locus_point_at_u_meets_second_curve(self):
        # at t = u the locus point lies on the curve through (y0, t0)'s meeting point
        f = fam(WORST)
        y0 = (F(1, 2), F(1, 3))
        t0, u, s = F(1, 2), F(-1, 8), F(1, 4)
        pt = kl.locus_point(f, y0, t0, u, s, u)
        # second curve: centre omega0 = t0(I + t0 C) y0, meets axis at t0
        omega0 = tuple((t0 * v) for v in (kl.RationalMatrix.identity(2) + t0 * f.C).mat_vec(y0))
        second = kl.curve_point(f, kl.CurveParams(y=y0, omega=omega0), u)
        assert pt == second

    @pytest.mark.parametrize("C", [WORST, kl.RationalMatrix([[F(1, 3), F(-2, 5)], [F(3, 7), F(1, 5)]]),
                                   kl.companion([F(1, 3), F(-1, 5), F(2, 7)])])
    def test_float_inputs_give_the_exact_results_rounded(self, C):
        f = fam(C)
        rng = np.random.default_rng(C.dim)
        for _ in range(20):
            y0 = tuple(rng.uniform(-1, 1, C.dim))
            t0, u, s, t = rng.uniform(-1, 1, 4)
            exact = [F(v) for v in (t0, u, s, t)]
            y, omega = kl.locus_curve_params(f, y0, t0, u, s)
            ye, omegae = kl.locus_curve_params(f, tuple(map(F, y0)), *exact[:3])
            assert y == tuple(map(float, ye)) and omega == tuple(map(float, omegae))
            pt = kl.locus_point(f, y0, t0, u, s, t)
            assert pt == tuple(map(float, kl.locus_point(f, tuple(map(F, y0)), *exact)))
            # one float among exact inputs is enough for float results
            assert kl.locus_point(f, tuple(map(F, y0)), *exact[:3], float(t)) == pt

    def test_singular_float_inputs_raise(self):
        # I + (s + u) C = 0 for C = I, u = -1/4, s = -3/4
        f = fam(kl.RationalMatrix.identity(2))
        with pytest.raises(kl.SingularMatrix):
            kl.locus_curve_params(f, (0.5, 0.5), 0.5, -0.25, -0.75)
        with pytest.raises(kl.SingularMatrix):
            kl.locus_point(f, (0.5, 0.5), 0.5, -0.25, -0.75, 0.5)


class TestMinimaxLineResidual:
    @staticmethod
    def _grid(points, m=100_001):
        """min over m evenly spaced line angles in [0, pi] of the max relative distance."""
        phi = np.linspace(0.0, math.pi, m)
        norms = np.linalg.norm(points, axis=1)[:, None]
        rel = np.abs(points[:, :1] * np.sin(phi) - points[:, 1:] * np.cos(phi)) / norms
        return float(rel.max(axis=0).min()), math.pi / (m - 1)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_a_brute_force_grid(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 30))
        if seed % 3 == 0:  # all over the plane
            points = rng.normal(size=(n, 2))
        else:  # in a narrow cone about a line, straddling the angle 0 = pi when seed % 3 == 2
            ang = (0.0 if seed % 3 == 2 else rng.uniform(0, math.pi)) + rng.uniform(-0.2, 0.2, n)
            points = np.stack([np.cos(ang), np.sin(ang)], axis=1) * rng.choice([-1, 1], (n, 1)) * rng.uniform(0.1, 2, (n, 1))
        got = _minimax_line_residual(points)
        grid, step = self._grid(points)
        # the closed form is the minimum; a grid angle lies within step/2 of the best one
        assert got - 1e-12 <= grid <= got + step / 2 + 1e-12

    @pytest.mark.parametrize("d", [(1, 0), (0, 1), (3, -7), (-5, 2), (1, 1)])
    def test_collinear_points_read_zero(self, d):
        points = np.array([[k * d[0], k * d[1]] for k in (-9, -2, -1, 1, 3, 8)], dtype=float)
        assert _minimax_line_residual(points) <= 4 * 2.0**-52


class TestLocusDichotomy:
    @pytest.mark.parametrize("y0,t0", [((0.0, 1.0), 0.5), ((0.7, 0.3), -0.25), ((0.2, -0.6), 0.75)])
    def test_square_zero(self, y0, t0):
        f = fam(WORST)
        rep = kl.locus_dichotomy_test(f, y0, t0, trials=200, seed=3)
        assert rep.omega_one_param and not rep.y_one_param
        assert rep.max_line_residual <= 1e-9

    def test_scalar_multiple_of_identity(self):
        f = fam(kl.RationalMatrix.diagonal([F(1, 4), F(1, 4)]))
        rep = kl.locus_dichotomy_test(f, (1.0, 0.5), 0.25, trials=200, seed=3)
        assert rep.omega_one_param and rep.y_one_param
        assert rep.max_line_residual <= 1e-12

    def test_generic_diagonal_two_parameters(self):
        f = fam(kl.RationalMatrix.diagonal([F(1, 4), F(-1, 4)]))
        rep = kl.locus_dichotomy_test(f, (1.0, 1.0), 0.5, trials=500, seed=3)
        assert not rep.omega_one_param and not rep.y_one_param
        assert rep.max_line_residual >= 0.01

    def test_square_zero_higher_dimension(self):
        # one nilpotent 2x2 block plus a zero block, ambient dimension 4
        C = kl.RationalMatrix([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
        f = kl.CurveFamily(n=4, C=C)
        rep = kl.locus_dichotomy_test(f, (0.3, 0.8, 0.4), 0.5, trials=200, seed=6)
        assert rep.omega_one_param and not rep.y_one_param
        assert rep.max_line_residual <= 1e-9

    def test_centres_off_the_line_by_1e_12(self):
        f = fam(kl.RationalMatrix([[0, 1], [F(1, 10**12), 0]]))
        rep = kl.locus_dichotomy_test(f, (0, 1), F(1, 2), seed=1)
        assert not rep.omega_one_param and 0 < rep.max_line_residual < 1e-11

    def test_collinear_centres_give_a_zero_witness(self):
        rep = kl.locus_dichotomy_test(fam(WORST), (0, 1), F(1, 2), seed=1)
        assert rep.omega_one_param and rep.omega_offline_witness <= 1e-15

    def test_zero_predicted_line_holds_no_centre(self):
        # (I + t0 C) y0 = 0 for C = 2I and t0 = -1/2: every minor against it is zero, but the centres,
        # all on span{y0} and nonzero, are not on it: each lies at relative distance 1 from {0}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = kl.locus_dichotomy_test(fam(kl.RationalMatrix.diagonal([2, 2])), (1, 0), F(-1, 2), seed=1)
        assert not rep.omega_one_param and rep.y_one_param and rep.max_line_residual == 1.0

    def test_zero_y0_refused_up_front(self):
        with pytest.raises(kl.PreconditionViolation, match="y0 = 0"):
            kl.locus_dichotomy_test(fam(WORST), (0, 0), 0.5, seed=1)

    def test_flags_and_samples_do_not_depend_on_the_scale_of_y0(self):
        # centres and directions of norm about 1e-12 are kept: only an exact zero drops a sample
        for y in (F(1, 10**12), 1):
            rep = kl.locus_dichotomy_test(fam(WORST), (0, y), 0.5, trials=100, seed=1)
            assert (rep.omega_one_param, rep.y_one_param, rep.samples) == (True, False, 100)
        # y0 is scaled by a power of two first, so every field is the same at any power of two, and the
        # float diagnostics stay finite at 1e-400, where the centres themselves would underflow
        reps = [kl.locus_dichotomy_test(fam(WORST), (0, y), F(1, 2), trials=100, seed=1)
                for y in (1, F(1, 2**700), 2**700)]
        assert reps[0] == reps[1] == reps[2] and reps[0].max_line_residual < 1e-15
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tiny = kl.locus_dichotomy_test(fam(WORST), (0, F(1, 10**400)), F(1, 2), trials=100, seed=1)
        assert math.isfinite(tiny.max_line_residual) and math.isfinite(tiny.omega_offline_witness)
        assert (tiny.omega_one_param, tiny.y_one_param, tiny.samples) == (True, False, 100)


class TestHairbrushClaim:
    @staticmethod
    def _exact_triple(family, k, l, m, delta, seed):
        """Triple meeting pairwise exactly, with the dyadic shells satisfied."""
        Cf = family.C.to_float()
        I = np.eye(2)
        rng = np.random.default_rng(seed)
        for _ in range(200):
            yj = rng.uniform(-1, 1, 2)
            r = np.linalg.norm(yj)
            if r == 0:
                continue
            yj = yj / r * rng.uniform(2.0**-k * 0.55, 2.0**-k * 0.95)
            tj = rng.uniform(-0.85, 0.85)
            omj = tj * (I + tj * Cf) @ yj
            gap = rng.uniform(delta * 2 ** (l + m) * 1.05, delta * 2 ** (l + m + 1) * 0.95)
            s = tj + gap * rng.choice([-1, 1])
            if not -0.9 < s < 0.9:
                continue
            P = omj - s * yj - s * s * (Cf @ yj)
            for ti in np.linspace(tj - 0.3, tj + 0.3, 400):
                if abs(ti - s) < 1e-3 or not -0.9 < ti < 0.9:
                    continue
                yi = np.linalg.solve((ti - s) * (I + (ti + s) * Cf), P)
                if (2.0**-k * 0.5 < np.linalg.norm(yi) <= 2.0**-k
                        and 2.0**-l * 0.5 < np.linalg.norm(yi - yj) <= 2.0**-l):
                    omi = ti * (I + ti * Cf) @ yi
                    mk = lambda y, w: kl.TubeSpec(
                        params=kl.CurveParams(y=tuple(y), omega=tuple(w)), delta=delta)
                    return (mk((0.0, 0.0), (0.0, 0.0)), mk(yj, omj), mk(yi, omi))
        return None

    def test_straight_line_configuration_tight_constant(self):
        family = fam(ZERO2)
        triple = self._exact_triple(family, k=2, l=3, m=2, delta=2.0**-8, seed=1)
        assert triple is not None
        rep = kl.hairbrush_claim_check(family, *triple, k=2, l=3, m=2, K=2.0)
        assert rep.passed

    def test_square_zero_monte_carlo(self):
        family = fam(WORST)
        checked = 0
        for seed in range(40):
            triple = self._exact_triple(family, k=2, l=3, m=2, delta=2.0**-8, seed=seed)
            if triple is None:
                continue
            rep = kl.hairbrush_claim_check(family, *triple, k=2, l=3, m=2, K=16.0)
            assert rep.passed
            checked += 1
        assert checked >= 10

    def test_trivial_regime_passes(self):
        # l = k, m = 0: comparable directions, meeting within tube thickness of
        # the axis hit; the bounds are weaker than the diameters involved
        family = fam(WORST)
        delta = 2.0**-8
        k = l = 3
        r = 0.9 * 2.0**-k
        yj = np.array([r, 0.0])
        theta = math.radians(50.0)
        rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
        yi = rot @ yj
        assert 2.0 ** (-k - 1) < np.linalg.norm(yi - yj) <= 2.0**-k
        Cf = family.C.to_float()
        I = np.eye(2)
        tj = 0.4
        mk = lambda y: kl.TubeSpec(
            params=kl.CurveParams(y=tuple(y), omega=tuple(tj * (I + tj * Cf) @ y)), delta=delta)
        central = kl.TubeSpec(params=kl.CurveParams(y=(0.0, 0.0), omega=(0.0, 0.0)), delta=delta)
        rep = kl.hairbrush_claim_check(family, central, mk(yj), mk(yi), k=k, l=l, m=0, K=16.0)
        assert rep.passed

    def test_configuration_violations(self):
        family = fam(WORST)
        delta = 2.0**-8
        mk = lambda y, w: kl.TubeSpec(params=kl.CurveParams(y=y, omega=w), delta=delta)
        central = mk((0.0, 0.0), (0.0, 0.0))
        bad_shell = mk((0.9, 0.0), (0.0, 0.0))
        with pytest.raises(kl.ConfigurationViolation):
            kl.hairbrush_claim_check(family, central, bad_shell, bad_shell, k=2, l=3, m=2)
        off_center = mk((0.1, 0.0), (0.5, 0.5))
        with pytest.raises(kl.ConfigurationViolation):
            kl.hairbrush_claim_check(family, off_center, bad_shell, bad_shell, k=2, l=3, m=2)
        family_bad = fam(kl.RationalMatrix.diagonal([F(1, 4), F(1, 8)]))
        with pytest.raises(kl.ConfigurationViolation):
            kl.hairbrush_claim_check(family_bad, central, bad_shell, bad_shell, k=2, l=3, m=2)

    def test_central_tube_normalised_exactly(self):
        # the trivial-regime triple passes with the central tube at 0, and is refused 1e-13 off it
        family, delta, k = fam(WORST), 2.0**-8, 3
        yj = np.array([0.9 * 2.0**-k, 0.0])
        theta = math.radians(50.0)
        yi = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]) @ yj
        Cf, tj = family.C.to_float(), 0.4
        mk = lambda y, w: kl.TubeSpec(params=kl.CurveParams(y=tuple(y), omega=tuple(w)), delta=delta)
        tube = lambda y: mk(y, tj * (np.eye(2) + tj * Cf) @ y)
        assert kl.hairbrush_claim_check(family, mk((0.0, 0.0), (0.0, 0.0)), tube(yj), tube(yi), k=k, l=k, m=0).passed
        for y, w in (((1e-13, 0.0), (0.0, 0.0)), ((0.0, 0.0), (0.0, -1e-13))):
            with pytest.raises(kl.ConfigurationViolation, match="normalised"):
                kl.hairbrush_claim_check(family, mk(y, w), tube(yj), tube(yi), k=k, l=k, m=0)


def test_family_json_roundtrip():
    f = fam(WORST)
    assert kl.CurveFamily.from_json(f.to_json()) == f


def test_tubes_json_roundtrip():
    tubes = [kl.TubeSpec(params=kl.CurveParams(y=(0.1, 0.2), omega=(0.0, -0.5)), delta=0.25)]
    from kakeya_lab.curves import tubes_from_json, tubes_to_json

    assert tubes_from_json(tubes_to_json(tubes)) == tubes


@pytest.mark.parametrize("key, value", [("y", [True, 0]), ("omega", [0, False]), ("delta", True)])
def test_tube_json_booleans_are_not_numbers(key, value):
    # JSON's true and false are Python's ints 1 and 0: "y": [true, 0] was kept as the direction (True, 0)
    from kakeya_lab.curves import tubes_from_json

    with pytest.raises(kl.PreconditionViolation, match="boolean"):
        tubes_from_json([{"y": [0.2, 0.1], "omega": [0, 0], "delta": 0.25, key: value}])


def test_nondegeneracy_flag():
    assert fam(WORST).nondegenerate
    assert not kl.CurveFamily(n=3, C=kl.RationalMatrix.diagonal([F(3, 5), 0])).nondegenerate


def _centres_full_plane(family, Y, W, ts):
    """The centre formula through one full-size scratch plane per axis, as _centres computed it before
    it worked in place: the same float operations in the same order."""
    CY = family._cf @ Y.T
    out = np.empty((Y.shape[1], len(Y), len(ts)))
    tmp = np.empty(out.shape[1:])
    for plane, w, y, cy in zip(out, W.T, Y.T, CY):
        np.subtract(w[:, None], np.multiply(ts, y[:, None], out=tmp), out=plane)
        plane -= np.multiply(ts * ts, cy[:, None], out=tmp)
    return out


class TestCentres:
    @pytest.mark.parametrize("C", [
        WORST,                                            # a zero C y row: the skipped term
        kl.RationalMatrix([[F(1, 3), -2], [F(5, 7), 1]]),
        kl.RationalMatrix.zero(3),                        # every row skipped
        kl.RationalMatrix([[0, 0, 0], [1, 0, 0], [0, F(-1, 2), 0]]),
    ])
    @pytest.mark.parametrize("curves, heights", [(0, 5), (1, 1), (7, 257), (300, 257), (5000, 9), (40000, 1)])
    def test_bit_identical_to_full_plane(self, C, curves, heights):
        # slabs of _SLAB // heights rows: several full slabs and a partial one for the larger shapes
        rng = np.random.default_rng(curves * 31 + heights)
        d = C.dim
        Y = rng.uniform(-1, 1, size=(curves, d))
        W = rng.uniform(-2, 2, size=(curves, d))
        ts = np.sort(rng.uniform(-1, 1, size=heights))
        if curves >= 7:  # signed zeros and exact edges, where skipping or reordering a term would show
            Y[:3], W[:3] = -0.0, -0.0
            Y[3, 0], W[4, -1] = 0.0, -0.0
            ts[0] = -0.0 if heights > 1 else ts[0]
            ts[-1] = 1.0
        f = fam(C)
        got, want = kl.curves._centres(f, Y, W, ts), _centres_full_plane(f, Y, W, ts)
        assert np.array_equal(got, want)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _claim_tube(y, omega, delta=2.0**-8):
    return kl.TubeSpec(params=kl.CurveParams(y=y, omega=omega), delta=delta)


CLAIM_FAMILY = kl.CurveFamily(n=3, C=kl.companion([0, 0]))
CLAIM_CENTRAL = _claim_tube((0, 0), (0, 0))
# both meet the central tube at t = 0.4, |y_j| and |y_i| in the 2^-3 shell and |y_j - y_i| in the 2^-3 shell too
CLAIM_J = _claim_tube((0.1125, 0), (0.045, 0))
CLAIM_I = _claim_tube((0.0723, 0.0862), (0.042712, 0.03448))


def test_claim_triple_passes():
    assert kl.hairbrush_claim_check(CLAIM_FAMILY, CLAIM_CENTRAL, CLAIM_J, CLAIM_I, 3, 3, 0).passed


def test_height_sampling_stops_at_the_finest_resolution():
    # 8 / delta + 1 heights at delta = 2^-MAX_K are sampled; one float finer is refused before any allocation
    finest = [_claim_tube(y, (0, 0), 2.0**-MAX_K) for y in ((0.25, 0), (0, 0))]
    assert kl.intersection_diameter(CLAIM_FAMILY, *finest)[0] > 0
    finer = [_claim_tube(y, (0, 0), math.nextafter(2.0**-MAX_K, 0)) for y in ((0.25, 0), (0, 0))]
    with pytest.raises(kl.ResolutionTooFine, match="finest supported resolution"):
        kl.intersection_diameter(CLAIM_FAMILY, *finer)


@pytest.mark.parametrize("call, error, match", [
    (lambda: kl.CurveParams(y=(0.1, 0.2), omega=(0.0,)), ValueError, "equal length"),
    (lambda: kl.TubeSpec(params=kl.CurveParams(y=(0.1,), omega=(0.0,)), delta=0.0), ValueError, "delta"),
    (lambda: kl.TubeSpec(params=kl.CurveParams(y=(0.1,), omega=(0.0,)), delta=1.0), ValueError, "delta"),
    (lambda: kl.CurveFamily(n=2, C=kl.RationalMatrix.zero(1)), ValueError, "between 3 and 9"),
    (lambda: kl.CurveFamily(n=10, C=kl.RationalMatrix.zero(8)), ValueError, "between 3 and 9"),
    (lambda: kl.CurveFamily(n=4, C=kl.RationalMatrix.zero(2)), ValueError, "size n-1"),
    (lambda: kl.intersection_diameter(CLAIM_FAMILY, CLAIM_J, _claim_tube((0.0723, 0.0862), (0.042712, 0.03448),
                                                                          2.0**-7)),
     kl.ConfigurationViolation, "share delta"),
    (lambda: kl.intersection_diameter(CLAIM_FAMILY, *[_claim_tube((0.1, 0), (0, 0), 1e-300)] * 2),
     kl.ResolutionTooFine, "finest supported resolution"),
    (lambda: kl.locus_dichotomy_test(CLAIM_FAMILY, (0, 1), F(1, 2), trials=99), ValueError, "100 trials"),
    # zip dropped the third coordinates and answered [0]
    (lambda: kl.intersect_curves(CLAIM_FAMILY, kl.CurveParams(y=(0.5, 0), omega=(0, 0)),
                                 kl.CurveParams(y=(0, 0, 5), omega=(0, 0, 7))), ValueError, "longer"),
    (lambda: kl.hairbrush_claim_check(CLAIM_FAMILY, CLAIM_CENTRAL, CLAIM_J,
                                      _claim_tube((0.0723, 0.0862), (0.042712, 0.03448), 2.0**-7), 3, 3, 0),
     kl.ConfigurationViolation, "share delta"),
    # without a bound, delta = 1e-7 would sample 1.6e8 heights per approach: 2.38 GiB of centres
    (lambda: kl.hairbrush_claim_check(CLAIM_FAMILY, *(_claim_tube(y, (0, 0), 1e-7) for y in
                                                      ((0, 0), (0.2, 0), (0.2, 0.05))), 2, 4, 0),
     kl.ResolutionTooFine, "finest supported resolution"),
    # |y_j - y_i| <= 2 * 2^-k bounds l from below by k - 1, so l < k - 2 fails a dyadic shell first
    (lambda: kl.hairbrush_claim_check(CLAIM_FAMILY, CLAIM_CENTRAL, CLAIM_J, CLAIM_I, 3, 0, 0),
     kl.ConfigurationViolation, "dyadic shell"),
    (lambda: kl.hairbrush_claim_check(CLAIM_FAMILY, CLAIM_CENTRAL, _claim_tube((0.1125, 0), (0.045, 0.5)),
                                      CLAIM_I, 3, 3, 0),
     kl.ConfigurationViolation, "meet the central tube"),
    # at |s - t_j| >= 2^-2 the curves of i and j are about |y_j - y_i| / 4 > 2 delta apart
    (lambda: kl.hairbrush_claim_check(CLAIM_FAMILY, CLAIM_CENTRAL, CLAIM_J, CLAIM_I, 3, 3, 3),
     kl.ConfigurationViolation, "do not meet"),
    # delta 2^(l+m) >= 2 is past every gap of two heights in [-1, 1]: m = 6 reaches 2 exactly, m = 7 is the
    # first the window check refuses, and at m = 1074 the window's ends are past the float range
    *((lambda m=m: kl.hairbrush_claim_check(CLAIM_FAMILY, CLAIM_CENTRAL, CLAIM_J, CLAIM_I, 3, 3, m),
       kl.ConfigurationViolation, "do not meet") for m in (6, 7, 1074)),
], ids=["params length", "delta 0", "delta 1", "n=2", "n=10", "C size", "diameter deltas", "diameter too fine",
        "trials", "intersect lengths", "claim deltas", "claim too fine", "l < k-2", "misses central", "no i-j meeting", "window at 2",
        "window past 2", "window past floats"])
def test_curves_typed_errors(call, error, match):
    with pytest.raises(error, match=match):
        call()
