import itertools
import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kakeya_lab as kl
from kakeya_lab.exact import Polynomial, det_poly, real_roots

from conftest import rational_det_by_elimination, within_one_ulp_of_a_root


class TestRationalMatrix:
    def test_identity_inverse(self):
        I = kl.RationalMatrix.identity(3)
        assert I.inverse() == I

    def test_rank_deficient_det(self):
        assert kl.RationalMatrix([[0, 1], [0, 0]]).det() == 0

    def test_shear_inverse(self):
        a = kl.RationalMatrix([[1, 1], [0, 1]])
        inv = a.inverse()
        assert inv == kl.RationalMatrix([[1, -1], [0, 1]])
        assert a * inv == kl.RationalMatrix.identity(2)

    def test_singular_raises(self):
        m = kl.RationalMatrix([[1, 2], [2, 4]])
        assert m.det() == 0
        with pytest.raises(kl.SingularMatrix):
            m.inverse()

    @given(st.lists(st.integers(-9, 9), min_size=9, max_size=9),
           st.integers(1, 30))
    @settings(max_examples=60, deadline=None)
    def test_inverse_roundtrip(self, ents, den):
        rows = [[F(ents[3 * i + j], den) for j in range(3)] for i in range(3)]
        a = kl.RationalMatrix(rows)
        if a.det() == 0:
            return
        assert a * a.inverse() == kl.RationalMatrix.identity(3)

    def test_json_roundtrip(self):
        a = kl.RationalMatrix([[F(1, 2), 3], [F(-5, 7), 0]])
        j = a.to_json()
        assert j["entries"][0][0] == "1/2" and j["entries"][0][1] == 3
        assert kl.RationalMatrix.from_json(j) == a

    def test_dim_cap(self):
        with pytest.raises(ValueError):
            kl.RationalMatrix([[0] * 9 for _ in range(9)])

    def test_bigint_entries_are_exact(self):
        big = 10**40
        a = kl.RationalMatrix([[big, 1], [0, big]])
        assert a.det() == big * big

    def test_det_against_leibniz_expansion(self):
        # against the permutation expansion: seeded matrices of dimension 1-6, a zero (0, 0) entry,
        # a matrix that needs two row swaps and a rank-deficient one
        rng = np.random.default_rng(25)
        cases = [_random_matrix(rng, dim) for dim in range(1, 7) for _ in range(3)]
        zero_corner = [list(r) for r in _random_matrix(rng, 4).rows]
        zero_corner[0][0] = 0
        deficient = [list(r) for r in _random_matrix(rng, 5).rows]
        deficient[2] = [x - F(3, 2) * y for x, y in zip(deficient[0], deficient[4])]
        two_swaps = kl.RationalMatrix([[0, 2, 3], [0, 0, 5], [7, 1, 4]])  # a swap at column 0, another at column 1
        cases += [kl.RationalMatrix(zero_corner), kl.RationalMatrix(deficient), two_swaps]
        for m in cases:
            assert m.det() == _leibniz_det([m])[0]
        assert two_swaps.det() == 70 and cases[-2].det() == 0 != cases[-3].det()

    def test_inverse_is_exact_up_to_dimension_8(self):
        rng = np.random.default_rng(8)
        cases = [_random_matrix(rng, dim) for dim in range(1, 9) for _ in range(4)]
        big = kl.RationalMatrix([[2**60 // 3 + int(rng.integers(-9, 10)) for _ in range(8)] for _ in range(8)])
        assert big.det() != 0
        inverted = 0
        for m in cases + [big]:
            if m.det() != 0:
                assert m * m.inverse() == kl.RationalMatrix.identity(m.dim) == m.inverse() * m
                inverted += 1
        assert inverted >= 30

    def test_singular_found_partway(self):
        # column 0 has a pivot, column 1 needs a row swap, and column 2 has none left
        m = kl.RationalMatrix([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
        assert m.det() == 0
        with pytest.raises(kl.SingularMatrix):
            m.inverse()


class TestCompanion:
    def test_degenerate_size(self):
        assert kl.companion([F(7)]) == kl.RationalMatrix([[7]])

    def test_layout_l2(self):
        assert kl.companion([3, 5]) == kl.RationalMatrix([[3, 1], [5, 0]])

    def test_layout_l3(self):
        c = kl.companion([F(1, 2), -2, 4])
        assert c == kl.RationalMatrix([[F(1, 2), 1, 0], [-2, 0, 1], [4, 0, 0]])

    @pytest.mark.parametrize("l", [1, 2, 3, 4, 5])
    def test_char_poly_matches_coefficients(self, l):
        # det(C - tI) = +/- (t^l - c1 t^{l-1} - ... - c_l), checked symbolically
        rng = np.random.default_rng(l)
        cs = [F(int(rng.integers(-5, 6)), int(rng.integers(1, 4))) for _ in range(l)]
        C = kl.companion(cs)
        p = kl.char_poly(C)
        expect = [-cs[l - 1 - i] for i in range(l)] + [1]  # low degree first
        target = Polynomial(expect)
        assert p == target or p == -1 * target

    def test_size_validation(self):
        with pytest.raises(ValueError):
            kl.companion([])


def _random_matrix(rng, dim):
    return kl.RationalMatrix([[F(int(rng.integers(-4, 5)), int(rng.integers(1, 4))) for _ in range(dim)]
                              for _ in range(dim)])


def _leibniz_det(parts):
    """det(sum_k t^k parts[k]) as the signed sum over permutations of products of polynomial entries."""
    dim = parts[0].dim
    entry = [[Polynomial([a[i, j] for a in parts]) for j in range(dim)] for i in range(dim)]
    total = Polynomial([])
    for perm in itertools.permutations(range(dim)):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        term = Polynomial([(-1) ** inversions])
        for i, j in enumerate(perm):
            term = term * entry[i][j]
        total = total + term
    return total


class TestPolyMatrixDet:
    """det_poly: the determinant of a matrix polynomial, interpolated from RationalMatrix.det."""

    def test_diagonal(self):
        assert det_poly([kl.RationalMatrix.zero(2), kl.RationalMatrix.identity(2)]) == Polynomial([0, 0, 1])

    def test_det_poly_matches_manual(self):
        # det(I + 2tC) for C = [[1, 2], [3, 4]]: (1 + 2t)(1 + 8t) - 4t * 6t
        C = kl.RationalMatrix([[1, 2], [3, 4]])
        assert det_poly([kl.RationalMatrix.identity(2), 2 * C]) == Polynomial([1, 10, -8])

    def test_w_construction_example(self):
        C = kl.RationalMatrix([[3, 1], [5, 0]])
        W = kl.RationalMatrix([[0, 0], [-1, 0]])
        d = kl.direction_map_det(C, W)
        assert d == Polynomial([0, 0, 0, 3, -5])

    def test_zero_row(self):
        assert det_poly([kl.RationalMatrix.zero(2), kl.RationalMatrix([[0, 0], [1, 1]])]).is_zero()

    @pytest.mark.parametrize("parts", [2, 3])
    def test_full_degree(self, parts):
        # the t^(dim (parts - 1)) coefficient is det(last part): one interpolation node short loses it
        rng = np.random.default_rng(parts)
        for dim in range(1, 5):
            last = kl.RationalMatrix([[F(int(rng.integers(1, 5)), int(rng.integers(1, 4))) if i == j else
                                       (F(int(rng.integers(-4, 5))) if j > i else 0) for j in range(dim)]
                                      for i in range(dim)])
            p = det_poly([_random_matrix(rng, dim) for _ in range(parts - 1)] + [last])
            assert p.degree == dim * (parts - 1) and p.coeffs[-1] == last.det() != 0

    def test_against_leibniz_expansion(self):
        rng = np.random.default_rng(24)
        for dim in range(1, 5):
            for count in range(1, 4):
                for _ in range(3):
                    parts = [_random_matrix(rng, dim) for _ in range(count)]
                    assert det_poly(parts) == _leibniz_det(parts)

    @pytest.mark.parametrize("C", [kl.RationalMatrix([[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]]),
                                   kl.companion([0, 0])], ids=["two blocks", "square zero"])
    def test_identically_zero_direction_map(self, C):
        # det(W - tI - t^2 C) vanishes at every node, so the interpolant is the zero polynomial
        W = kl.w_matrix(C)
        assert det_poly([W, -kl.RationalMatrix.identity(C.dim), -C]).is_zero()
        assert kl.direction_map_det(C, W).is_zero() and kl.vanishing_order(C, W) == math.inf

    def test_against_pointwise_rational_determinants(self):
        # evaluate the polynomial det at 20 rational points and compare with
        # an elimination-based determinant of the evaluated matrix: exact equality
        rng = np.random.default_rng(11)
        for trial in range(4):
            dim = int(rng.integers(2, 5))
            C = kl.RationalMatrix(
                [[F(int(rng.integers(-4, 5)), int(rng.integers(1, 4))) for _ in range(dim)]
                 for _ in range(dim)])
            W = kl.RationalMatrix(
                [[F(int(rng.integers(-4, 5)), int(rng.integers(1, 4))) for _ in range(dim)]
                 for _ in range(dim)])
            p = kl.direction_map_det(C, W)
            for j in range(20):
                t = F(int(rng.integers(-20, 21)), int(rng.integers(1, 15)))
                rows = [[W[i, jj] - (t if i == jj else 0) - t * t * C[i, jj]
                         for jj in range(dim)] for i in range(dim)]
                assert p(t) == rational_det_by_elimination(rows)


class TestNilpotency:
    def test_canonical(self):
        assert kl.nilpotency(kl.RationalMatrix([[0, 1], [0, 0]])) == (True, 2)

    def test_identity(self):
        assert kl.nilpotency(kl.RationalMatrix.identity(2)) == (False, None)

    def test_transposed_block(self):
        assert kl.nilpotency(kl.RationalMatrix([[0, 0], [1, 0]])) == (True, 2)

    def test_index_three(self):
        c = kl.companion([0, 0, 0])
        assert kl.nilpotency(c) == (True, 3)

    @pytest.mark.parametrize("seed", range(8))
    def test_consistent_with_float_spectrum(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 5))
        c = kl.RationalMatrix([[int(rng.integers(-2, 3)) for _ in range(dim)] for _ in range(dim)])
        nil, _ = kl.nilpotency(c)
        eigs = np.linalg.eigvals(c.to_float())
        spectrum_zero = all(abs(z) < 1e-8 for z in eigs)
        assert nil == (spectrum_zero and c.power(dim).is_zero())


class TestPolynomialUtilities:
    def test_trailing_zeros_trimmed(self):
        assert Polynomial([1, 2, 0, 0]).degree == 1

    def test_count_real_roots(self):
        p = Polynomial([-1, 0, 1])  # roots +-1
        assert kl.count_real_roots(p, F(-2), F(2)) == 2
        assert kl.count_real_roots(p, F(0), F(2)) == 1
        assert kl.count_real_roots(p, F(-1), F(1)) == 2  # endpoints count
        assert kl.count_real_roots(p, F(-1, 2), F(1, 2)) == 0

    def test_count_real_roots_multiple(self):
        p = Polynomial([1, -2, 1])  # (t-1)^2
        assert kl.count_real_roots(p, F(0), F(2)) == 1

    @given(st.floats(allow_nan=True, allow_infinity=True))
    @settings(max_examples=200, deadline=None)
    def test_float_evaluation_is_the_float_horner_loop(self, x):
        # out * x + c adds float(c) once out is a float, so p(x) is Horner over the rounded coefficients
        p = Polynomial([F(1, 3), -2, F(5, 7), F(-1, 10**20), F(10**30, 3)])
        want = 0.0
        for c in reversed(p.coeffs):
            want = want * x + float(c)
        got = p(x)
        assert type(got) is float and got.hex() == want.hex()


class TestRealRoots:
    def test_matches_np_roots_on_separated_roots(self):
        rng = np.random.default_rng(11)
        checked = 0
        for _ in range(300):
            coeffs = [int(c) for c in rng.integers(-9, 10, size=int(rng.integers(2, 6)))]
            if coeffs[-1] == 0:
                continue
            z = np.roots(coeffs[::-1])
            if any(abs(a - b) < 0.5 for i, a in enumerate(z) for b in z[i + 1:]):
                continue
            p = Polynomial(coeffs)
            got = real_roots(p, -10.0, 10.0)
            assert got == sorted(got)
            assert got == pytest.approx(sorted(r.real for r in z if r.imag == 0), rel=1e-12, abs=0)
            assert all(within_one_ulp_of_a_root(p, x) for x in got)
            checked += len(got)
        assert checked > 200

    def test_rational_roots_round_to_the_nearest_float(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            # two dyadic roots serve as the ends lo < hi: floats, so the open interval excludes them
            ends = sorted({F(int(rng.integers(-64, 65)), 32) for _ in range(2)})
            roots = sorted({F(int(rng.integers(-999, 1000)), int(rng.integers(1, 1000))) for _ in range(4)} | {*ends})
            p = Polynomial([1, 0, 1])  # no real roots of its own
            for r in roots:  # each root once to three times: the squarefree part keeps it once
                for _ in range(int(rng.integers(1, 4))):
                    p = p * Polynomial([-r, 1])
            assert real_roots(p, -2.0, 2.0) == [float(r) for r in roots if -2 < r < 2]
            lo, hi = ends[0], ends[-1] + (len(ends) == 1)  # equal draws: hi = lo + 1
            assert real_roots(p, float(lo), float(hi)) == [float(r) for r in roots if lo < r < hi]
            assert kl.count_real_roots(p, lo, hi) == sum(lo <= r <= hi for r in roots)
        # one root in (1/4, 1), whose left end is a double root: halved by the sign just right of 1/4
        p = Polynomial([-F(1, 4), 1]) * Polynomial([-F(1, 4), 1]) * Polynomial([-F(1, 2), 1])
        assert real_roots(p, 0.25, 1.0) == [0.5] and real_roots(p, 0.0, 0.5) == [0.25]
        assert kl.count_real_roots(p, F(1, 4), F(1)) == 2

    def test_roots_1e_12_apart_stay_apart(self):
        # float clustering at 1e-8 merges these; the Sturm chain keeps them apart
        a, b = F(1, 3), F(1, 3) + F(1, 10**12)
        got = real_roots(Polynomial([-a, 1]) * Polynomial([-b, 1]) * Polynomial([2, 0, 1]), 0.0, 1.0)
        assert got == [float(a), float(b)] and got[0] < got[1]

    def test_open_interval_excludes_endpoint_roots(self):
        # q(1, l, m) = -(l+1)(m+1): mu = 1 is a root of the solver's quartic when M has eigenvalue -1
        from kakeya_lab.slices import _quartic_coeffs

        l, m = F(-1), F(-7, 3)
        q = Polynomial(_quartic_coeffs(l + m, l * m)[::-1])
        assert q(1) == 0 == kl.quartic_q(1, l, m)
        assert 1.0 not in real_roots(q, 0.0, 1.0) and 1.0 in real_roots(q, 0.0, 2.0)
        assert real_roots(Polynomial([-1, 0, 1]), -1.0, 1.0) == []
        assert real_roots(Polynomial([-1, 0, 1]), -1.0, 1.5) == [1.0]

    def test_repeated_float_and_tiny_roots(self):
        p = Polynomial([0, 1]) * Polynomial([-F(1, 4), 1]) * Polynomial([-F(1, 4), 1])  # t (t - 1/4)^2
        assert real_roots(p, -1.0, 1.0) == [0.0, 0.25]
        assert real_roots(Polynomial([-F(1, 10**300), 1]), 0.0, 1.0) == [1e-300]
        assert real_roots(Polynomial([-2, 0, 1]), -2.0, 2.0) == [-math.sqrt(2), math.sqrt(2)]

    def test_bad_input_rejected(self):
        with pytest.raises(ValueError):
            real_roots(Polynomial([]), 0.0, 1.0)
        with pytest.raises(ValueError):
            real_roots(Polynomial([1, 1]), 1.0, 1.0)


@pytest.mark.parametrize("call, error, match", [
    (lambda: kl.RationalMatrix([[1, "x"], [0, 1]]), ValueError, "Invalid literal"),
    (lambda: kl.RationalMatrix([[1, None], [0, 1]]), TypeError, "as a rational"),
    (lambda: kl.RationalMatrix([[1, 0.5], [0, 1]]), TypeError, "float"),
    # JSON's true and false are Python's ints 1 and 0: refused, or [[true, 0], [0, false]] would be diag(1, 0)
    (lambda: kl.RationalMatrix([[True, 0], [0, False]]), TypeError, "bool"),
    (lambda: kl.RationalMatrix.from_json({"dim": 2, "entries": [[True, 0], [0, False]]}), kl.PreconditionViolation,
     "bool"),
    (lambda: kl.RationalMatrix([[1, 2]]), ValueError, "square"),
    (lambda: kl.RationalMatrix([]), ValueError, "square"),
    (lambda: kl.RationalMatrix.identity(2).mat_vec((1, 2, 3)), ValueError, "dimension mismatch"),
    (lambda: kl.RationalMatrix([[1, "2/0"], [0, 1]]), kl.PreconditionViolation, "zero denominator"),
    (lambda: kl.RationalMatrix.from_json({"dim": 3, "entries": [[1, 0], [0, 1]]}), ValueError, "declared dimension"),
    (lambda: kl.RationalMatrix.from_json({"dim": 2, "entries": [[10**400, 0], [0, 1]]}), kl.PreconditionViolation,
     "past the float range"),
    (lambda: det_poly([kl.RationalMatrix([[1, 1]])]), ValueError, "square"),
    (lambda: det_poly([kl.RationalMatrix.identity(9)]), ValueError, "maximum 8"),
    (lambda: det_poly([kl.RationalMatrix.identity(2), kl.RationalMatrix.identity(3)]), ValueError,
     "dimension mismatch"),
    (lambda: kl.count_real_roots(Polynomial([0]), F(0), F(1)), ValueError, "zero polynomial"),
    (lambda: kl.count_real_roots(Polynomial([-1, 1]), F(1), F(0)), ValueError, "empty interval"),
], ids=["rat text", "rat None", "rat float", "rat bool", "from_json bool", "not square", "empty", "mat_vec", "rat p/0",
         "from_json dim", "from_json past floats",
        "poly not square", "poly too big", "poly parts mismatch", "count zero", "count empty"])
def test_exact_typed_errors(call, error, match):
    with pytest.raises(error, match=match):
        call()
