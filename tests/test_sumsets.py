import hashlib
import json
import math
import time
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import kakeya_lab as kl
from kakeya_lab.sumsets import (_discard_to_distinct_differences, _keys, _log_less, _ratio_holds, _sums,
                               _trapezia, instance_from_json, instance_to_json)

from conftest import sumset_oracle, trapezium_oracle

I2 = kl.RationalMatrix.identity(2)
SHEAR = kl.RationalMatrix([[1, 1], [0, 1]])


def full(A, B):
    return kl.Incidence.full(A, B)


class TestXSumset:
    def test_classical_sumset(self):
        A = kl.LatticeSet.of([(0,), (1,)])
        B = kl.LatticeSet.of([(0,), (1,)])
        out = kl.x_sumset(A, B, full(A, B), kl.RationalMatrix.identity(1))
        assert out.points == {(0,), (1,), (2,)} and out.scale == 1

    def test_shear_counterexample_sizes(self):
        B = kl.LatticeSet.of([(0, k) for k in range(1, 4)])
        A = kl.LatticeSet.of([(k, k) for k in range(1, 4)])
        G = full(A, B)
        assert kl.x_sumset(A, B, G, SHEAR).size == 5
        assert kl.difference_set(A, B, G).size == 9

    def test_rational_scaling(self):
        A = kl.LatticeSet.of([(0,)])
        B = kl.LatticeSet.of([(1,), (3,)])
        half = kl.RationalMatrix([[F(1, 2)]])
        out = kl.x_sumset(A, B, full(A, B), half)
        assert out.scale == 2 and out.points == {(1,), (3,)} and out.size == 2

    def test_bigint_fallback(self):
        big = 2**70
        A = kl.LatticeSet.of([(big, 0)])
        B = kl.LatticeSet.of([(0, big)])
        out = kl.x_sumset(A, B, full(A, B), I2)
        assert out.points == {(big, big)}

    @pytest.mark.parametrize("x", [1, 2, 3])
    def test_int64_guard_edges(self, x):
        # dim * |X| * |b| near 2^62 (int64 path), 2^63 and 1.5 * 2^63 (exact fallback), in dimension 8
        a, b = (2**59 - 1,) * 8, (-(2**59) + 1,) * 8
        X = kl.RationalMatrix([[x] * 8 for _ in range(8)])
        out = kl.x_sumset(kl.LatticeSet.of([a]), kl.LatticeSet.of([b]), kl.Incidence(pairs=frozenset({(a, b)})), X)
        assert out.points == {tuple(ai + sum(x * bj for bj in b) for ai in a)}

    @pytest.mark.parametrize("points, message", [([(0, 1), (2,)], "dimension mismatch"), ([(0, "x")], "x")])
    def test_bad_points_rejected(self, points, message):
        with pytest.raises(ValueError, match=message):
            kl.LatticeSet.of(points, dim=2)

    def test_empty_incidence(self):
        A = kl.LatticeSet.of([(0, 0)])
        B = kl.LatticeSet.of([(1, 1)])
        out = kl.x_sumset(A, B, kl.Incidence(pairs=frozenset()), I2)
        assert out.size == 0


class TestDifferenceSet:
    def test_diagonal_only(self):
        A = kl.LatticeSet.of([(0, 0), (1, 2)])
        G = kl.Incidence(pairs=frozenset((p, p) for p in A.points))
        assert kl.difference_set(A, A, G).points == {(0, 0)}

    def test_line_counterexample_m3(self):
        A, B, G = kl.gen_line_counterexample(SHEAR, 3)
        assert kl.difference_set(A, B, G).size == 9

    def test_secular_m5(self):
        A, B, G, _ = kl.gen_secular_counterexample((1, 0), (0, 1), [F(1), F(2)], 5)
        assert kl.difference_set(A, B, G).size == 25

    @given(st.integers(-40, 40), st.integers(-40, 40), st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_translation_invariance(self, dx, dy, seed):
        A, B, G = kl.random_instance(seed % 4096, box=6, max_size=12)
        shift = (dx, dy)
        A2 = kl.LatticeSet.of([tuple(c + s for c, s in zip(p, shift)) for p in A.points])
        B2 = kl.LatticeSet.of([tuple(c + s for c, s in zip(p, shift)) for p in B.points])
        G2 = kl.Incidence(pairs=frozenset(
            (tuple(c + s for c, s in zip(a, shift)), tuple(c + s for c, s in zip(b, shift)))
            for a, b in G.pairs))
        assert kl.difference_set(A, B, G).size == kl.difference_set(A2, B2, G2).size
        assert kl.x_sumset(A, B, G, SHEAR).size == kl.x_sumset(A2, B2, G2, SHEAR).size


class TestCheckRatio:
    def test_singleton(self):
        A = kl.LatticeSet.of([(0, 0)])
        rep = kl.check_ratio(A, A, full(A, A), [I2], F(1, 6))
        assert rep.holds and rep.achieved_exponent is None

    def test_line_counterexample_exponent(self):
        A, B, G = kl.gen_line_counterexample(SHEAR, 4)
        rep = kl.check_ratio(A, B, G, [SHEAR], F(0))
        assert rep.size_diff == 16 and rep.max_side == 7
        assert abs(rep.achieved_exponent - math.log(16) / math.log(7)) < 1e-12

    def test_secular_exponent(self):
        A, B, G, _ = kl.gen_secular_counterexample((1, 0), (0, 1), [F(1), F(2)], 5)
        X1 = kl.RationalMatrix([[0, 0], [1, 0]])
        X2 = kl.RationalMatrix([[0, 0], [2, 0]])
        rep = kl.check_ratio(A, B, G, [X1, X2], F(0))
        assert rep.size_diff == 25 and rep.max_side == 13
        assert abs(rep.achieved_exponent - math.log(25) / math.log(13)) < 1e-12

    def test_degenerate_instance_detected(self):
        A = kl.LatticeSet.of([(0, 0)])
        B = kl.LatticeSet.of([(0, 0)])
        # corrupted G referencing phantom points
        G = kl.Incidence(pairs=frozenset({((0, 0), (0, 0)), ((5, 5), (1, 1))}))
        with pytest.raises(kl.DegenerateInstance):
            kl.check_ratio(A, B, G, [], F(1, 6))

    def test_empty_incidence(self):
        A, B = kl.LatticeSet.of([(0, 0), (1, 0)]), kl.LatticeSet.of([(1, 1)])
        rep = kl.check_ratio(A, B, kl.Incidence(pairs=frozenset()), [I2, SHEAR], F(1, 6))
        assert rep.sumset_sizes == (0, 0) and rep.size_diff == 0 and rep.max_side == 2
        assert rep.holds and rep.achieved_exponent is None

    def test_exact_boundary_comparison(self):
        # 2^(11/6) = 3.56...: a difference set of size 3 must pass, 4 must fail
        A = kl.LatticeSet.of([(0, 0), (7, 3)])
        B = kl.LatticeSet.of([(0, 0), (1, 0)])
        G = full(A, B)
        rep = kl.check_ratio(A, B, G, [], F(1, 6))
        assert rep.size_diff == 4 and rep.max_side == 2
        assert not rep.holds

    @pytest.mark.parametrize("eps", [1 / 6, 0.0, float("nan")])
    def test_float_eps_refused(self, eps):
        A = kl.LatticeSet.of([(0, 0)])
        with pytest.raises(kl.PreconditionViolation, match="eps must be rational"):
            kl.check_ratio(A, A, full(A, A), [I2], eps)

    def test_string_eps_is_exact(self):
        A, B = kl.LatticeSet.of([(0, 0), (7, 3)]), kl.LatticeSet.of([(0, 0), (1, 0)])
        assert kl.check_ratio(A, B, full(A, B), [], "1/6") == kl.check_ratio(A, B, full(A, B), [], F(1, 6))

    @pytest.mark.parametrize("digits", [400, 4000])
    def test_huge_eps_denominator_is_decided_without_its_powers(self, digits):
        # eps = 10^-digits, whose n_diff^q would have about 10^digits bits; #(A - B) = 9 = 3^2 > 3^(2 - eps)
        A = kl.LatticeSet.of([(0, 0), (1, 0), (2, 0)])
        for B, size_diff, holds in ((A, 5, True), (kl.LatticeSet.of([(0, 0), (0, 1), (0, 2)]), 9, False)):
            start = time.perf_counter()
            rep = kl.check_ratio(A, B, full(A, B), [], F(1, 10**digits))
            assert time.perf_counter() - start < 1.0
            assert (rep.size_diff, rep.max_side, rep.holds) == (size_diff, 3, holds)

    @pytest.mark.parametrize("seed", range(200))
    def test_sixth_power_inequality_smoke(self, seed):
        A, B, G = kl.random_instance(seed)
        assert kl.check_ratio(A, B, G, [I2], F(1, 6)).holds

    @pytest.mark.parametrize("seed", range(200, 400))
    def test_quarter_power_inequality_smoke(self, seed):
        A, B, G = kl.random_instance(seed)
        two = kl.RationalMatrix.diagonal([2, 2])
        assert kl.check_ratio(A, B, G, [I2, two], F(1, 4)).holds


class TestLineCounterexample:
    def test_sizes_m3(self):
        A, B, G = kl.gen_line_counterexample(SHEAR, 3)
        assert (A.size, B.size) == (3, 3)
        assert kl.x_sumset(A, B, G, SHEAR).size == 5
        assert B.points == {(0, 1), (0, 2), (0, 3)}
        assert A.points == {(1, 1), (2, 2), (3, 3)}

    def test_m2(self):
        A, B, G = kl.gen_line_counterexample(kl.RationalMatrix([[2, 0], [1, 1]]), 2)
        assert kl.difference_set(A, B, G).size == 4
        assert kl.x_sumset(A, B, G, kl.RationalMatrix([[2, 0], [1, 1]])).size == 3

    def test_m1_degenerate(self):
        A, B, G = kl.gen_line_counterexample(SHEAR, 1)
        assert A.size == B.size == G.size == 1

    def test_rational_matrix_scaled(self):
        X = kl.RationalMatrix([[1, F(1, 3)], [0, 1]])
        A, B, G = kl.gen_line_counterexample(X, 4)
        assert kl.x_sumset(A, B, G, X).size == 7
        assert kl.difference_set(A, B, G).size == 16

    def test_multiple_of_identity_rejected(self):
        with pytest.raises(kl.NoSuchVector):
            kl.gen_line_counterexample(kl.RationalMatrix.diagonal([2, 2]), 3)

    def test_exponent_monotone_in_m(self):
        prev = 0.0
        for M in range(2, 30):
            A, B, G = kl.gen_line_counterexample(SHEAR, M)
            rep = kl.check_ratio(A, B, G, [SHEAR], F(0))
            assert rep.achieved_exponent > prev
            prev = rep.achieved_exponent
        assert prev < 2.0


class TestSecularCounterexample:
    def test_spec_instance(self):
        A, B, G, pred = kl.gen_secular_counterexample((1, 0), (0, 1), [F(1), F(2)], 5)
        assert pred == [13, 9]
        X1 = kl.RationalMatrix([[0, 0], [1, 0]])
        X2 = kl.RationalMatrix([[0, 0], [2, 0]])
        assert kl.x_sumset(A, B, G, X1).size == 13
        assert kl.x_sumset(A, B, G, X2).size == 9

    def test_minimum_legal_m(self):
        fr = [F(2), F(3, 2)]
        prod = 2 * 3 * 2  # prod |p_i q_i|
        A, B, G, pred = kl.gen_secular_counterexample((1, 0), (0, 1), fr, prod + 1)
        for f, expect in zip(fr, pred):
            X = kl.RationalMatrix([[0, 0], [f, 0]])
            assert kl.x_sumset(A, B, G, X).size == expect

    def test_single_fraction_reduces_to_classical(self):
        A, B, G, pred = kl.gen_secular_counterexample((1, 0), (0, 1), [F(1)], 6)
        assert pred == [2 * 6 - 1]
        X = kl.RationalMatrix([[0, 0], [1, 0]])
        assert kl.x_sumset(A, B, G, X).size == 11

    def test_m_too_small(self):
        with pytest.raises(kl.PreconditionViolation):
            kl.gen_secular_counterexample((1, 0), (0, 1), [F(2), F(3)], 6)

    def test_parallel_vectors_rejected(self):
        with pytest.raises(kl.PreconditionViolation):
            kl.gen_secular_counterexample((1, 0), (2, 0), [F(1)], 5)


class TestBlockEmbedding:
    def test_cardinalities_preserved(self):
        # zero-padding a dim-2 instance into dim-4 block-diagonal matrices
        A, B, G = kl.random_instance(17, box=5, max_size=10)
        X = SHEAR
        pad = lambda p: p + (0, 0)
        A4 = kl.LatticeSet.of([pad(p) for p in A.points])
        B4 = kl.LatticeSet.of([pad(p) for p in B.points])
        G4 = kl.Incidence(pairs=frozenset((pad(a), pad(b)) for a, b in G.pairs))
        X4 = kl.RationalMatrix([
            [1, 1, 0, 0],
            [0, 1, 0, 0],
            [0, 0, 1, 1],
            [0, 0, 0, 1],
        ])
        assert kl.x_sumset(A, B, G, X).size == kl.x_sumset(A4, B4, G4, X4).size
        assert kl.difference_set(A, B, G).size == kl.difference_set(A4, B4, G4).size


class TestTrapezia:
    Y = kl.RationalMatrix([[2, 1], [0, 2]])
    X = kl.RationalMatrix([[1, 1], [0, 1]])

    def literal_quadruple_loop(self, G):
        return trapezium_oracle(_discard_to_distinct_differences(G).pairs, self.Y)

    def test_single_pair(self):
        A = kl.LatticeSet.of([(0, 0)])
        B = kl.LatticeSet.of([(1, 1)])
        rep = kl.count_trapezia(A, B, full(A, B), self.X, self.Y)
        assert rep.count == 1 and rep.identity_verified and rep.bracketed()

    def test_full_grid_against_literal_loop(self):
        pts = [(i, j) for i in range(2) for j in range(2)]
        A = kl.LatticeSet.of(pts)
        B = kl.LatticeSet.of(pts)
        G = full(A, B)
        rep = kl.count_trapezia(A, B, G, self.X, self.Y)
        assert rep.count == self.literal_quadruple_loop(G)
        assert rep.identity_verified and rep.bracketed()

    @pytest.mark.parametrize("seed", range(15))
    def test_random_instances_match_literal_loop(self, seed):
        A, B, G = kl.random_instance(seed, box=3, max_size=6)
        rep = kl.count_trapezia(A, B, G, self.X, self.Y)
        assert rep.count == self.literal_quadruple_loop(G)
        assert rep.identity_verified and rep.bracketed()

    def test_every_tuple_checked(self):
        A, B, G = kl.random_instance(7, box=2, max_size=12)
        rep = kl.count_trapezia(A, B, G, self.X, self.Y)
        assert rep.identities_checked == rep.count > 0 and rep.identity_verified

    def test_wrong_inverse_fails_identity(self, monkeypatch):
        inverse = kl.RationalMatrix.inverse
        off = kl.RationalMatrix([[0, 1], [0, 0]])
        monkeypatch.setattr(kl.RationalMatrix, "inverse", lambda M: inverse(M) + off)
        A, B, G = kl.random_instance(7, box=2, max_size=12)
        assert not kl.count_trapezia(A, B, G, self.X, self.Y).identity_verified

    @pytest.mark.parametrize("seed", range(4))
    def test_bigint_scaled_instance(self, seed):
        # coordinates up to 6 * 2^58 push the identity arithmetic onto Python ints
        A, B, G = kl.random_instance(seed, box=6, max_size=15)
        up = lambda p: tuple(2**58 * c for c in p)
        A2 = kl.LatticeSet.of([up(p) for p in A.points], dim=2)
        B2 = kl.LatticeSet.of([up(p) for p in B.points], dim=2)
        G2 = kl.Incidence(pairs=frozenset((up(a), up(b)) for a, b in G.pairs))
        rep, big = (kl.count_trapezia(*inst, self.X, self.Y) for inst in ((A, B, G), (A2, B2, G2)))
        fields = lambda r: (r.count, r.g_size, r.max_side, r.identity_verified, r.identities_checked)
        assert fields(big) == fields(rep) and rep.identity_verified

    def test_empty_incidence(self):
        A, B = kl.LatticeSet.of([(0, 0), (1, 0)]), kl.LatticeSet.of([(1, 1)])
        rep = kl.count_trapezia(A, B, kl.Incidence(pairs=frozenset()), self.X, self.Y)
        assert (rep.count, rep.identities_checked, rep.g_size, rep.max_side) == (0, 0, 0, 2)
        assert rep.identity_verified and rep.bracketed()

    def test_precondition(self):
        with pytest.raises(kl.PreconditionViolation):
            kl.count_trapezia(kl.LatticeSet.of([(0, 0)]), kl.LatticeSet.of([(0, 0)]),
                              kl.Incidence(pairs=frozenset()), self.X, self.X)
        singular = kl.RationalMatrix([[0, 0], [0, 0]])
        with pytest.raises(kl.PreconditionViolation):
            kl.count_trapezia(kl.LatticeSet.of([(0, 0)]), kl.LatticeSet.of([(0, 0)]),
                              kl.Incidence(pairs=frozenset()), singular, I2)


class TestSlicesFromConstruction:
    def test_two_lines_through_origin(self):
        fam = kl.CurveFamily(n=3, C=kl.RationalMatrix.zero(2))
        dirs = [(F(1, 4), 0), (0, F(1, 4))]
        omega = lambda y: (0, 0)
        A, B, G = kl.slices_from_construction(fam, dirs, omega, F(-1, 2), F(1, 2), F(1, 32))
        assert G.size == 2
        # slices at opposite heights are mirror images through the origin
        assert A.points == {tuple(-c for c in p) for p in B.points}

    def test_middle_slice_equals_x_sumset(self):
        C = kl.companion([0, 0])
        fam = kl.CurveFamily(n=3, C=C)
        W = kl.w_matrix(C)
        dirs = [(F(i, 4), F(j, 4)) for i in range(-2, 2) for j in range(-2, 2)]
        t0, t1, lam = F(0), F(1), F(1, 2)
        A, B, G = kl.slices_from_construction(fam, dirs, W, t0, t1, F(1, 32))
        X = kl.x_of_lambda(C, t0, t1, lam)
        lhs = kl.x_sumset(A, B, G, X).size
        t_mid = (1 - lam) * t0 + lam * t1
        mids = set()
        for y in dirs:
            om = tuple(W.mat_vec([F(c) for c in y]))
            mids.add(kl.curve_point(fam, kl.CurveParams(y=y, omega=om), t_mid)[:-1])
        assert lhs == len(mids)

    def test_difference_set_counts_directions(self):
        C = kl.companion([0, 0])
        fam = kl.CurveFamily(n=3, C=C)
        W = kl.w_matrix(C)
        dirs = [(F(i, 4), F(j, 4)) for i in range(-1, 2) for j in range(-1, 2)]
        A, B, G = kl.slices_from_construction(fam, dirs, W, F(0), F(1), F(1, 32))
        assert kl.difference_set(A, B, G).size == len(set(dirs))


class TestInstanceIO:
    def test_roundtrip(self):
        A, B, G = kl.random_instance(23, box=4, max_size=8)
        A2, B2, G2 = instance_from_json(instance_to_json(A, B, G))
        assert A2.points == A.points and B2.points == B.points and G2.pairs == G.pairs

    def test_validation(self):
        doc = {"dim": 2, "A": [[0, 0]], "B": [[1, 1]], "G": [[0, 0]]}
        A, B, G = instance_from_json(doc)
        assert G.size == 1

    def test_integral_float_coordinates_are_read(self):
        # JSON 2.0 reads as 2, as LatticeSet.of reads it
        A, B, G = instance_from_json({"dim": 2.0, "A": [[2.0, 0]], "B": [[0, 1]], "G": [[0, 0.0]]})
        assert A.points == {(2, 0)} and G.pairs == {((2, 0), (0, 1))}

    @pytest.mark.parametrize("G", [[[0, 1]], [[-1, 0]], [[1, 0]], [[0, -1]]])
    def test_index_outside_range(self, G):
        with pytest.raises(kl.PreconditionViolation):
            instance_from_json({"dim": 2, "A": [[0, 0]], "B": [[1, 1]], "G": G})

    # JSON's true and false are Python's ints 1 and 0: "dim": true ended in a TypeError, [[true, false]]
    # was read as the pair (1, 0); a float coordinate was truncated to an int
    @pytest.mark.parametrize("doc", [
        {"dim": True, "A": [[0], [1]], "B": [[1]], "G": [[0, 0]]},
        {"dim": 2, "A": [[True, 0], [1, 0]], "B": [[1, 1]], "G": [[0, 0]]},
        {"dim": 2, "A": [[0, 0], [1, 0]], "B": [[1, 1]], "G": [[True, False]]},
        {"dim": 2, "A": [[1.5, 0], [1, 0]], "B": [[1, 1]], "G": [[0, 0]]},
    ], ids=["dim", "coordinate", "G pair", "float coordinate"])
    def test_booleans_are_not_numbers(self, doc):
        with pytest.raises(kl.PreconditionViolation, match="integer|index"):
            instance_from_json(doc)

    def test_incidence_outside_sets(self):
        A, B = kl.LatticeSet.of([(0, 0), (1, 1)]), kl.LatticeSet.of([(2, 2)])
        G = kl.Incidence(pairs=[((0, 0), (2, 2)), ((5, 5), (2, 2))])
        with pytest.raises(kl.PreconditionViolation):
            G.validate(A, B)
        with pytest.raises(kl.PreconditionViolation):
            instance_to_json(A, B, G)

    @pytest.mark.parametrize("A, B", [([[0, 0, 0]], [[1, 1]]), ([[0, 0]], [[1]])])
    def test_point_length_not_dim(self, A, B):
        with pytest.raises(kl.PreconditionViolation):
            instance_from_json({"dim": 2, "A": A, "B": B, "G": [[0, 0]]})


# sha256 over the canonical JSON of random_instance(s) for s in 0..9999, then
# of random_instance(s, 2, box, max_size) for s in 0..999 with box, max_size
# drawn as the benchmark's trapezium mix draws them; recorded when
# random_instance drew one coin per pair in a Python loop.
DRAWS_DIGEST = "27e53676fb4c7e8c6ab6ce4ec8fef035f4bef4800ffb7eb3356b60d09117ed45"


@pytest.mark.parametrize("kwargs", [{"dim": 0}, {"box": -1}, {"max_size": 0}])
def test_random_instance_rejects_bad_arguments(kwargs):
    with pytest.raises(kl.PreconditionViolation):
        kl.random_instance(3, **kwargs)


@pytest.mark.parametrize("kwargs", [{"box": 0}, {"max_size": 1}, {"dim": 1}])
def test_random_instance_edge_arguments(kwargs):
    A, B, G = kl.random_instance(3, **kwargs)
    assert G.size >= 1 and A.size >= 1 and B.size >= 1


def test_random_instance_draws_pinned():
    h = hashlib.sha256()

    def feed(instance):
        h.update(json.dumps(instance_to_json(*instance), sort_keys=True, separators=(",", ":")).encode())
        h.update(b"\n")

    for s in range(10_000):
        feed(kl.random_instance(s))
    rng = np.random.default_rng(0)
    for s in range(1000):
        box, max_size = int(rng.integers(2, 7)), int(rng.integers(2, 16))
        feed(kl.random_instance(s, 2, box, max_size))
    assert h.hexdigest() == DRAWS_DIGEST


small_ints = st.integers(-6, 6)
rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def sumset_instances(draw):
    """(dim, pairs, X): small points, all scaled by 1 or by 2^60 (the Python-int path), and a rational X."""
    dim = draw(st.integers(1, 4))
    point = st.tuples(*[small_ints] * dim)
    pairs = draw(st.lists(st.tuples(point, point), min_size=1, max_size=12))
    X = kl.RationalMatrix(draw(st.lists(st.lists(rationals, min_size=dim, max_size=dim), min_size=dim, max_size=dim)))
    scale = draw(st.sampled_from([1, 2**60]))
    return dim, [(tuple(scale * c for c in a), tuple(scale * c for c in b)) for a, b in pairs], X


class TestAgainstPlainSets:
    @given(sumset_instances())
    @settings(max_examples=150, deadline=None)
    def test_sumset_and_difference_set(self, inst):
        dim, pairs, X = inst
        A = kl.LatticeSet.of([a for a, _ in pairs], dim=dim)
        B = kl.LatticeSet.of([b for _, b in pairs], dim=dim)
        G = kl.Incidence(pairs=frozenset(pairs))
        S, Dset = kl.x_sumset(A, B, G, X), kl.difference_set(A, B, G)
        assert {tuple(F(c, S.scale) for c in p) for p in S.points} == sumset_oracle(pairs, X)
        assert S.size == len(sumset_oracle(pairs, X))
        assert Dset.size == len(sumset_oracle(pairs)) == len(Dset.points)

    @given(sumset_instances())
    @settings(max_examples=100, deadline=None)
    def test_trapezia(self, inst):
        dim, pairs, X = inst
        assume(X.det() != 0)
        Y = X + kl.RationalMatrix.identity(dim)
        A = kl.LatticeSet.of([a for a, _ in pairs], dim=dim)
        B = kl.LatticeSet.of([b for _, b in pairs], dim=dim)
        G = kl.Incidence(pairs=frozenset(pairs))
        rep = kl.count_trapezia(A, B, G, X, Y)
        assert rep.count == rep.identities_checked == trapezium_oracle(_discard_to_distinct_differences(G).pairs, Y)
        assert rep.identity_verified


def _plain_ratio(pairs, Xs, eps):
    """check_ratio's report from plain Python sets."""
    sums = tuple(len(sumset_oracle(pairs, X)) for X in Xs)
    n_diff = len(sumset_oracle(pairs))
    mx = max((len({a for a, _ in pairs}), len({b for _, b in pairs})) + sums)
    p, q = eps.numerator, eps.denominator
    return kl.RatioReport(
        holds=n_diff**q <= mx ** (2 * q - p),
        achieved_exponent=math.log(n_diff) / math.log(mx) if mx >= 2 else None,
        size_A=len({a for a, _ in pairs}), size_B=len({b for _, b in pairs}),
        sumset_sizes=sums, size_diff=n_diff, max_side=mx)


def _plain_trapezia(pairs, Y) -> tuple[int, list]:
    """(count, thinned pairs): the least pair per difference kept, then the ordered quadruples counted
    as sum over pairs p, q with a_p + Y b_p == a_q + Y b_q of the b' shared by a_p and a_q."""
    kept = {}
    for a, b in sorted(pairs):
        kept.setdefault(tuple(x - y for x, y in zip(a, b)), (a, b))
    kept = list(kept.values())
    bs = {}
    for a, b in kept:
        bs.setdefault(a, set()).add(b)
    side = [tuple(F(x) + v for x, v in zip(a, Y.mat_vec(b))) for a, b in kept]
    count = sum(len(bs[p[0]] & bs[q[0]]) for p, sp in zip(kept, side) for q, sq in zip(kept, side) if sp == sq)
    return count, kept


@st.composite
def wide_instances(draw):
    """(dim, pairs, X): dim 1-8, coordinates k * step + o with |k| <= 6 and |o| <= 1, where the step
    runs from 1 to 2^59 (coordinates up to about 2^61.6, keys far past int64) and on to 2^99 (coordinates
    past int64); X integral or rational."""
    dim = draw(st.integers(1, 8))
    step = draw(st.sampled_from([1, 3, 2**20 + 1, 2**31, 2**40, 2**59, 2**99]))
    coord = st.builds(lambda k, o: k * step + o, st.integers(-6, 6), st.integers(-1, 1))
    point = st.tuples(*[coord] * dim)
    pairs = draw(st.lists(st.tuples(point, point), min_size=1, max_size=10))
    entry = draw(st.sampled_from([st.integers(-2, 2), rationals]))
    X = kl.RationalMatrix(draw(st.lists(st.lists(entry, min_size=dim, max_size=dim), min_size=dim, max_size=dim)))
    return dim, pairs, X


class TestKeysAgainstPlainSets:
    @given(wide_instances())
    @settings(max_examples=120, deadline=None)
    def test_rows_and_reports(self, inst):
        dim, pairs, X = inst
        A = kl.LatticeSet.of([a for a, _ in pairs], dim=dim)
        B = kl.LatticeSet.of([b for _, b in pairs], dim=dim)
        G = kl.Incidence(pairs=pairs)
        assert A.rows.tolist() == sorted(map(list, {a for a, _ in pairs}))
        assert [a + b for a, b in zip(G.a.tolist(), G.b.tolist())] == sorted(map(list, {a + b for a, b in pairs}))
        S, Dset = kl.x_sumset(A, B, G, X), kl.difference_set(A, B, G)
        assert [tuple(F(c, S.scale) for c in p) for p in S.rows.tolist()] == sorted(sumset_oracle(pairs, X))
        assert [tuple(p) for p in Dset.rows.tolist()] == sorted(sumset_oracle(pairs))
        I = kl.RationalMatrix.identity(dim)
        for Xs, eps in (([I], F(1, 6)), ([I, X], F(1, 4)), ([], F(0))):
            assert kl.check_ratio(A, B, G, Xs, eps) == _plain_ratio(pairs, Xs, eps)
        assume(X.det() != 0)
        rep = kl.count_trapezia(A, B, G, X, X + I)
        count, kept = _plain_trapezia(pairs, X + I)
        g, M = len(kept), max(A.size, B.size, len(sumset_oracle(kept, X)), len(sumset_oracle(kept, X + I)))
        assert (rep.count, rep.identities_checked, rep.g_size, rep.max_side, rep.upper_bound) == (count, count, g, M, M**3)
        assert rep.lower_bound == g**4 / M**4 and rep.identity_verified


class TestIncidenceRows:
    """Incidence(pairs=...) keeps the distinct pairs in (a, b) order, ranking a and b apart."""

    @pytest.mark.parametrize("dim,box,scale", [(8, 20, 1), (2, 12, 2**60), (2, 12, -(2**60)), (1, 3, 1)])
    def test_rows_match_sorted_plain_set(self, dim, box, scale):
        rng = np.random.default_rng(dim * 1000 + box)
        pts = [tuple(scale * int(c) for c in rng.integers(-box, box + 1, dim)) for _ in range(40)]
        pairs = [(pts[i], pts[j]) for i, j in rng.integers(0, len(pts), (300, 2))]  # with repeats
        G = kl.Incidence(pairs=pairs)
        want = sorted(set(pairs))
        assert list(zip(map(tuple, G.a.tolist()), map(tuple, G.b.tolist()))) == want
        peaks = tuple(max(abs(c) for p in side for c in p) for side in zip(*want))
        assert (G.peak_a, G.peak_b) == peaks
        assert G.a.dtype == G.b.dtype == (object if max(peaks) >= 2**63 else np.int64)  # 12 * 2^60 is past int64

    def test_empty(self):
        G = kl.Incidence(pairs=[])
        assert G.size == 0 and G.pairs == frozenset()


def _edge_peak(dim: int) -> int:
    """The largest peak P whose keys fit int64: (S^dim - 1)/2 <= 2^63 - 1 with S = 2P + 1."""
    S = math.isqrt(2**64) if dim == 2 else int((2**64 - 1) ** (1 / dim))
    while S**dim > 2**64 - 1:
        S -= 1
    while (S + 1) ** dim <= 2**64 - 1:
        S += 1
    return (S - 1) // 2 if S % 2 else (S - 2) // 2


def assert_keys_order_like(keys, horner):
    """``keys`` sort as ``horner`` does, and are equal exactly where ``horner`` is: the same order, injective."""
    order = sorted(range(len(keys)), key=keys.__getitem__)
    assert order == sorted(range(len(horner)), key=horner.__getitem__)
    ks, hs = [keys[i] for i in order], [horner[i] for i in order]
    assert [x == y for x, y in zip(ks, ks[1:])] == [x == y for x, y in zip(hs, hs[1:])]


class TestKeyBound:
    """Keys at the int64 edge: the bound (S^dim - 1)/2 just below, at and just above 2^63 - 1."""

    @pytest.mark.parametrize("dim", range(1, 9))
    @pytest.mark.parametrize("step", [-1, 0, 1])
    def test_keys_exact_and_ordered(self, dim, step):
        P = _edge_peak(dim) + step
        S = 2 * P + 1
        rng = np.random.default_rng(dim * 3 + step)
        values = [-P, -P + 1, -1, 0, 1, P - 1, P]
        pts = {tuple(values[i] for i in rng.integers(0, len(values), size=dim)) for _ in range(300)}
        pts |= {(P,) * dim, (-P,) * dim, (0,) * (dim - 1) + (P,), (1,) + (-P,) * (dim - 1)}
        rows = kl.LatticeSet.of(pts, dim=dim).rows
        horner = [sum(c * S ** (dim - 1 - j) for j, c in enumerate(p)) for p in rows.tolist()]
        assert all(x < y for x, y in zip(horner, horner[1:]))
        assert max(map(abs, horner)) == (S**dim - 1) // 2  # the bound is reached by (P, ..., P)
        # shuffled, with repeats: int64 rows get int64 keys, Horner's up to the bound and rank keys past it
        pick = np.concatenate([rng.permutation(len(rows)), rng.integers(0, len(rows), 60)])
        keys = _keys(rows[pick], P)
        assert keys.dtype == (np.int64 if rows.dtype == np.int64 else object)
        assert (rows.dtype == np.int64) == (dim > 1 or step <= 0)  # only (2^63,) is past int64
        if (S**dim - 1) // 2 <= 2**63 - 1 or rows.dtype == object:
            assert keys.tolist() == [horner[i] for i in pick]
        assert_keys_order_like(keys.tolist(), [horner[i] for i in pick])

    def test_bound_reached_exactly_in_dim_one(self):
        P = 2**63 - 1  # (S - 1)/2 = 2^63 - 1: the largest int64 coordinate, and int64 keys
        rows = kl.LatticeSet.of([(P,), (-P,), (0,), (P - 1,)]).rows
        assert rows.dtype == np.int64 and _keys(rows, P).tolist() == [-P, 0, P - 1, P]

    @pytest.mark.parametrize("dim", [2, 5, 8])
    def test_edge_sets_and_reports(self, dim):
        # sums and differences of points at the edge peak: P + P needs Python-int keys, P - 0 fits
        P = _edge_peak(dim)
        pts = [(P,) * dim, (-P,) * dim, (0,) * dim, (P - 1,) + (1,) * (dim - 1), (1 - P,) + (-1,) * (dim - 1)]
        pairs = [(a, b) for a in pts for b in pts[:3]]
        A = kl.LatticeSet.of(pts, dim=dim)
        B = kl.LatticeSet.of(pts[:3], dim=dim)
        G = kl.Incidence(pairs=pairs)
        I = kl.RationalMatrix.identity(dim)
        assert [tuple(p) for p in kl.x_sumset(A, B, G, I).rows.tolist()] == sorted(sumset_oracle(pairs, I))
        assert [tuple(p) for p in kl.difference_set(A, B, G).rows.tolist()] == sorted(sumset_oracle(pairs))
        assert kl.check_ratio(A, B, G, [I], F(1, 6)) == _plain_ratio(pairs, [I], F(1, 6))

    def test_loose_bound_falls_back_to_the_rows_own_peak(self):
        # a derived bound of 10^6 in dim 8 is past int64 keys; the rows themselves (|c| <= 100) are not
        rows = np.random.default_rng(0).integers(-100, 101, size=(50, 8))
        keys = _keys(rows, 10**6)
        assert keys.dtype == np.int64 and keys.tolist() == _keys(rows, 100).tolist()
        assert rows[np.argsort(keys, kind="stable")].tolist() == sorted(rows.tolist())


def _signed_rows(dim: int) -> list:
    """A dim x dim integer matrix with zero and negative entries whose largest row sum of |entries| is odd."""
    rows = [[(3 * i + 5 * j) % 7 - 3 for j in range(dim)] for i in range(dim)]
    if max(sum(map(abs, r)) for r in rows) % 2 == 0:
        rows[0][0] += 1 if rows[0][0] >= 0 else -1
    return rows


class TestRowSumBound:
    """``_sums`` bounds each entry by L (|a| + 1) + (the largest row sum of |L X|) (|b| + 1): int64 below 2^63."""

    @pytest.mark.parametrize("dim", [2, 8])
    @pytest.mark.parametrize("half", [False, True])
    @pytest.mark.parametrize("step", [-1, 0, 1])
    def test_bound_edges(self, dim, half, step):
        rows = _signed_rows(dim)
        X = kl.RationalMatrix([[F(v, 2 if half else 1) for v in r] for r in rows])
        L = 2 if half else 1
        top, i_top = max((sum(map(abs, r)), i) for i, r in enumerate(rows))
        assert top % 2 and 0 in (v for r in rows for v in r) and min(min(r) for r in rows) < 0
        target = 2**63 + step  # = L (pa + 1) + top (pb + 1)
        pb = 2**40 + ((target + 1) % 2 if half else 0)  # top is odd: makes target - top (pb + 1) divisible by L
        pa = (target - top * (pb + 1)) // L - 1
        assert L * (pa + 1) + top * (pb + 1) == target
        b = tuple(pb if v >= 0 else -pb for v in rows[i_top])  # reaches L pa + top pb on row i_top
        a = tuple(pa if k % 2 == 0 else -pa for k in range(dim))
        pairs = [(a, b), (a, tuple(-c for c in b)), (tuple(-c for c in a), b), ((0,) * dim, b)]
        A = kl.LatticeSet.of([p for p, _ in pairs], dim=dim)
        B = kl.LatticeSet.of([q for _, q in pairs], dim=dim)
        G = kl.Incidence(pairs=pairs)
        sums, bound = _sums(G, X, dim)
        assert bound == target and (sums.dtype == np.int64) == (step < 0)
        assert max(abs(int(v)) for v in sums.ravel()) == L * pa + top * pb
        S = kl.x_sumset(A, B, G, X)
        assert [tuple(F(c, S.scale) for c in p) for p in S.rows.tolist()] == sorted(sumset_oracle(pairs, X))
        I = kl.RationalMatrix.identity(dim)
        for Xs, eps in (([X], F(1, 6)), ([I, X], F(1, 4))):
            assert kl.check_ratio(A, B, G, Xs, eps) == _plain_ratio(pairs, Xs, eps)


class TestRankKeys:
    """int64 rows whose Horner keys are past int64 get rank keys: int64, ordered as the rows, injective."""

    @pytest.mark.parametrize("dim,spread,count", [(2, 2**62, 200), (3, 2**40, 300), (8, 2**40, 400), (8, 3, 400)])
    def test_order_and_injectivity(self, dim, spread, count):
        # (8, 2^40): 400 distinct values per column, 400^8 > 2^63, so the keys are re-ranked on the way
        rng = np.random.default_rng(dim + count)
        rows = rng.integers(-spread, spread + 1, size=(count, dim))
        rows[-1] = spread  # the peak, so the Horner bound is past int64 in every case but the last
        rows = np.concatenate([rows, rows[rng.integers(0, count, 80)]])  # with repeats
        keys = _keys(rows, spread)
        assert keys.dtype == np.int64
        assert_keys_order_like(keys.tolist(), list(map(tuple, rows.tolist())))


def _instance_scaled(seed: int, box: int, scale: int):
    A, B, G = kl.random_instance(seed, 2, box, 10)
    return [(tuple(scale * c for c in a), tuple(scale * c for c in b)) for a, b in G.pairs]


@pytest.mark.parametrize("e, box", [(58, 12), (60, 6), (62, 1), (99, 12)])
@pytest.mark.parametrize("seed", range(3))
def test_scaled_reports_match_plain_sets(e, box, seed):
    # coordinates box * 2^e: int64 rows with rank keys up to 2^62, Python-int rows at 2^99
    pairs = _instance_scaled(seed, box, 2**e)
    A = kl.LatticeSet.of([a for a, _ in pairs], dim=2)
    B = kl.LatticeSet.of([b for _, b in pairs], dim=2)
    G = kl.Incidence(pairs=pairs)
    assert A.rows.dtype == (np.int64 if box * 2**e < 2**63 else object)
    I2, two = kl.RationalMatrix.identity(2), kl.RationalMatrix.diagonal([2, 2])
    for Xs, eps in (([I2], F(1, 6)), ([I2, two], F(1, 4))):
        assert kl.check_ratio(A, B, G, Xs, eps) == _plain_ratio(pairs, Xs, eps)
    X = kl.RationalMatrix([[2, 1], [1, 1]])
    rep = kl.count_trapezia(A, B, G, X, X + I2)
    count, kept = _plain_trapezia(pairs, X + I2)
    assert (rep.count, rep.identities_checked, rep.g_size) == (count, count, len(kept)) and rep.identity_verified


class TestTrapeziumBound:
    """``_trapezia``'s int64 bound (D + 2r) U + D^2 (|b| + 1), U = D (|a| + 1) + r (|b| + 1), r the largest
    row sum of |D X|, |D Y| and |D X^-1|: counts and identities exact at its edge and past it."""

    X = kl.RationalMatrix([[1, 0], [0, F(1, 8)]])  # D = 8: D X^-1 = [[8, 0], [0, 64]] holds the largest row sum
    # with every |coordinate| <= 2c: r = 64, U = 72 (2c + 1), and the bound is (8 + 128) U + 64 (2c + 1)
    EDGE = ((2**63 - 1) // 9856 - 1) // 2  # the largest c with 9856 (2c + 1) < 2^63

    @pytest.mark.parametrize("c", [EDGE, EDGE + 1, 2**63 // 1000, 2**63 // 100])
    def test_matches_plain_sets(self, c):
        pts = [(2, 2), (2, -1), (-2, 1), (1, 2), (0, 0)]
        pairs = [(tuple(c * v for v in a), tuple(c * v for v in b)) for a in pts for b in pts[:3]]
        A = kl.LatticeSet.of([a for a, _ in pairs], dim=2)
        B = kl.LatticeSet.of([b for _, b in pairs], dim=2)
        G = kl.Incidence(pairs=pairs)
        Gd = _discard_to_distinct_differences(G)
        assert (Gd.peak_a, Gd.peak_b) == (2 * c, 2 * c)
        Y = self.X + kl.RationalMatrix.identity(2)
        rep = kl.count_trapezia(A, B, G, self.X, Y)
        count, kept = _plain_trapezia(pairs, Y)
        assert (rep.count, rep.g_size) == (count, len(kept)) and rep.identity_verified

    def test_wrong_inverse_with_error_a_multiple_of_2_64_fails(self):
        # X^-1 + E with E = 2^62 e_12: the identity's error on a tuple is E X (b0 - b0'), which is a multiple
        # of 2^64 when every b's second coordinate is a multiple of 4.  The row sums of D X^-1 put the true
        # bound past 2^63, so the values are Python ints and the error shows; a bound that missed X^-1's
        # row sums would take int64, where every value wraps alike and the identity would pass.
        X = kl.RationalMatrix([[1, 1], [0, 1]])
        wrong = X.inverse() + kl.RationalMatrix([[0, 2**62], [0, 0]])
        pairs = [((a0, a1), (b0, 4 * b1)) for a0 in range(-1, 2) for a1 in range(2)
                 for b0 in range(-1, 2) for b1 in range(-1, 2) if (a0 + 2 * a1 + b0 + b1) % 3]
        G = kl.Incidence(pairs=pairs)
        count, ok, *_ = _trapezia(G, X, wrong)
        assert count == _trapezia(G, X, X.inverse())[0] > 0
        assert not ok


@st.composite
def ratio_cases(draw):
    """(n_diff, mx, p, q): eps = p/q in [0, 2] in lowest terms with q <= 60, and n_diff <= mx^2 with mx >= 2
    when n_diff >= 2; a third of them exact ties n_diff = c^(2q - p), mx = c^q or one off them."""
    e = F(draw(st.integers(0, 120)), draw(st.integers(1, 60)))
    assume(e <= 2)
    p, q = e.numerator, e.denominator
    if draw(st.integers(0, 2)) == 0:
        c, off = draw(st.integers(2, 5)), draw(st.sampled_from((-1, 0, 1)))
        return c ** (2 * q - p) + off, c**q, p, q
    mx = draw(st.integers(2, 70) | st.integers(2, 2**64))  # small ones take the logarithm branch
    return draw(st.integers(0, mx * mx)), mx, p, q


@settings(max_examples=400, deadline=None)
@example((9, 3, 1, 59))  # #(A - B) = mx^2 and eps = 1/59: n_diff^59 = 3^118 > 3^117, a relative gap of 1/236
@example((8, 3, 1, 59))
@example((1, 0, 1, 6))  # 1^6 > 0^11
@example((0, 0, 2, 1))  # 0^1 <= 0^0 = 1
@given(ratio_cases())
def test_ratio_verdict_matches_the_exact_powers(case):
    n_diff, mx, p, q = case
    want = n_diff**q <= mx ** (2 * q - p)
    assert _ratio_holds(n_diff, mx, p, q) == want
    if n_diff >= 2 and q >= mx.bit_length():  # the powers differ; _ratio_holds calls _log_less only past q = 63
        assert _log_less(n_diff, q, mx, 2 * q - p) == want


LINE_3 = kl.gen_line_counterexample(SHEAR, 3)  # (A, B, G)


@pytest.mark.parametrize("call, error, match", [
    (lambda: kl.difference_set(kl.LatticeSet.of([(0, 0)]), kl.LatticeSet.of([(0, 0, 0)]),
                               kl.Incidence([((0, 0), (0, 0))])), kl.PreconditionViolation, "dimension"),
    (lambda: kl.x_sumset(kl.LatticeSet.of([(0, 0)]), kl.LatticeSet.of([(0, 0)]), kl.Incidence([((0, 0), (0, 0))]),
                         kl.RationalMatrix.identity(3)), kl.PreconditionViolation, "dimension"),
    (lambda: kl.difference_set(kl.LatticeSet.of([(0, 0)]), kl.LatticeSet.of([(0, 0)], scale=2),
                               kl.Incidence([((0, 0), (0, 0))])), kl.PreconditionViolation, "scale"),
    (lambda: kl.gen_line_counterexample(kl.RationalMatrix([[1, 1], [0, 1]]), 0), kl.PreconditionViolation,
     "positive"),
    (lambda: kl.gen_secular_counterexample((1, 0), (0, 1, 0), [F(1)], 5), kl.PreconditionViolation,
     "equal dimension"),
    (lambda: kl.gen_secular_counterexample((1, 0), (0, 1), [F(1), F(0)], 5), kl.PreconditionViolation, "non-zero"),
    # int() would read 3/2 as 1 and build the instance for v = (1, 0)
    (lambda: kl.gen_secular_counterexample((F(3, 2), 0), (0, 1), [F(1)], 5), kl.PreconditionViolation,
     "integer coordinates"),
    # 2 - eps < 0 made mx^(2 - eps) a float (OverflowError for a huge eps); eps < 0 asks less than #A #B
    *((lambda eps=eps: kl.check_ratio(*LINE_3, [], eps), kl.PreconditionViolation, "\\[0, 2\\]")
      for eps in (F(-1), F(3), 10**400)),
    (lambda: kl.slices_from_construction(kl.CurveFamily(n=3, C=kl.companion([0, 0])), [(F(1, 4), 0)],
                                         kl.RationalMatrix.zero(2), F(1, 2), F(1, 2), F(1, 8)),
     kl.PreconditionViolation, "differ"),
    (lambda: kl.slices_from_construction(kl.CurveFamily(n=3, C=kl.companion([0, 0])), [(F(1, 4), 0)],
                                         kl.RationalMatrix.zero(2), F(1, 4), F(1, 2), F(2, 5)),
     kl.PreconditionViolation, "reciprocal of an integer"),
    (lambda: kl.LatticeSet.of([]), ValueError, "empty set"),
], ids=["dimension A/B", "dimension X", "scale", "line M < 1", "secular v/w", "zero fraction",
         "secular v not integer", "eps < 0", "eps > 2", "eps huge", "t0 = t1",
        "delta not 1/integer", "empty without dim"])
def test_sumsets_typed_errors(call, error, match):
    with pytest.raises(error, match=match):
        call()
