"""Slice matrices, nondegeneracy, height solvers and exponent calculators.

The algebra relates two horizontal slices of a curved tube family to
intermediate slices (matrix ``X(lam)``), to the set of tube centres (matrix
``T``) and to the auxiliary matrix ``M``, each (aI + bC)(I + qC)^{-1}.  The two
solvers look for height configurations that collapse these matrices onto the
identities needed by three- and four-slice sum/difference arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

from .errors import NoSolution, NotCompanionForm, PreconditionViolation, SingularConfiguration, SingularMatrix
from .exact import (
    Polynomial,
    RationalMatrix,
    _integer,
    _number,
    _rat_to_json,
    _squarefree_part,
    char_poly,
    companion,
    count_real_roots,
    det_poly,
    rat,
    real_roots,
)

RESIDUAL_TOL = 1e-9
RANGE_PROBE = 1e-3


@dataclass(frozen=True)
class SliceMatrices:
    """The exact matrices relating two slices at heights t0 < t1."""

    X: RationalMatrix
    T: Optional[RationalMatrix]
    M: RationalMatrix
    heights: tuple[Fraction, Fraction, Fraction]  # (t0, t1, lam)


@dataclass(frozen=True)
class HeightsSolution:
    """Heights solving a slice identity, with the verified residual.

    ``residual`` is the largest entry of the identity's gap at the returned
    heights, lam and mu, each taken as the exact rational it is: computed
    exactly and rounded once.
    """

    kind: str  # "nikodym3" | "kakeya4"
    heights: tuple  # (t0, t1, t2) or (t0, t1)
    lam: float | Fraction
    mu: Optional[float] = None
    residual: float = 0.0
    t0_range: Optional[tuple[float, float]] = None
    regime: str = ""

    def to_json(self) -> dict:
        num = lambda x: _rat_to_json(x) if isinstance(x, Fraction) else float(x)

        return {
            "kind": self.kind,
            "heights": [num(h) for h in self.heights],
            "lambda": num(self.lam),
            "mu": None if self.mu is None else num(self.mu),
            "residual": float(self.residual),
            "range": None if self.t0_range is None else [float(a) for a in self.t0_range],
            "regime": self.regime,
        }


def _affine(C: RationalMatrix, a, b) -> RationalMatrix:
    """aI + bC."""
    return RationalMatrix([[a * (i == j) + b * e for j, e in enumerate(r)] for i, r in enumerate(C.rows)])


def _over(C: RationalMatrix, a, b, q, message: str) -> RationalMatrix:
    """(aI + bC)(I + qC)^{-1}, with one inverse and one product; both factors are polynomials in C, so they
    commute.  Raises :class:`SingularConfiguration` (message) when I + qC is singular."""
    try:
        return _affine(C, a, b) * _affine(C, 1, q).inverse()
    except SingularMatrix as e:
        raise SingularConfiguration(message) from e


def aux_matrix(C: RationalMatrix, t0, t1) -> RationalMatrix:
    """M = (t1-t0) C (I + (t0+t1)C)^{-1}."""
    t0, t1 = rat(t0), rat(t1)
    return _over(C, 0, t1 - t0, t0 + t1, f"I + (t0+t1)C is singular at t0+t1={t0 + t1}")


def x_of_lambda(C: RationalMatrix, t0, t1, lam) -> RationalMatrix:
    """X(lam) = lam/(1-lam) [I + lam M]^{-1} [I - (1-lam) M] for M = aux_matrix(C, t0, t1), built from C.

    With A = I + (t0+t1)C, M = (t1-t0) C A^{-1}, r = lam/(1-lam) and s = t0 + lam(t1-t0), I + lam M =
    (I + (t1+s)C) A^{-1} and I - (1-lam) M = (I + (t0+s)C) A^{-1}; all commute, so X(lam) = r (I + (t0+s)C)
    (I + (t1+s)C)^{-1}.  Once A (checked first) is invertible, I + lam M is singular exactly when I + (t1+s)C is.
    """
    t0, t1 = rat(t0), rat(t1)
    if _affine(C, 1, t0 + t1).det() == 0:
        raise SingularConfiguration(f"I + (t0+t1)C is singular at t0+t1={t0 + t1}")
    lam = rat(lam)
    if lam == 1:
        raise SingularConfiguration("lam = 1")
    r, s = lam / (1 - lam), t0 + lam * (t1 - t0)
    return _over(C, r, r * (t0 + s), t1 + s, "I + lam*M is singular")


def centre_matrix(C: RationalMatrix, t0, t1) -> RationalMatrix:
    """T = (t0/t1) (I + t0 C)(I + t1 C)^{-1}; needs t0, t1 != 0."""
    t0, t1 = rat(t0), rat(t1)
    if t0 == 0 or t1 == 0:
        raise SingularConfiguration("T requires t0, t1 != 0")
    return _over(C, t0 / t1, t0 * t0 / t1, t1, "I + t1*C is singular")


def slice_matrices(C: RationalMatrix, t0, t1, lam) -> SliceMatrices:
    """All three slice matrices at heights (t0, t1) and interpolation lam.

    ``T`` is left undefined (``None``) when either height is zero.
    """
    t0, t1, lam = rat(t0), rat(t1), rat(lam)
    if t0 == t1:
        raise SingularConfiguration("t0 and t1 must differ")
    M = aux_matrix(C, t0, t1)
    X = x_of_lambda(C, t0, t1, lam)
    T = None if (t0 == 0 or t1 == 0) else centre_matrix(C, t0, t1)
    return SliceMatrices(X=X, T=T, M=M, heights=(t0, t1, lam))


def check_nondegenerate(C: RationalMatrix) -> bool:
    """det(I + 2tC) != 0 for all t in [-1, 1], decided exactly.

    Equivalent to every real eigenvalue of C lying in (-1/2, 1/2).
    """
    p = det_poly([RationalMatrix.identity(C.dim), 2 * C])  # p(0) = 1
    return count_real_roots(p, Fraction(-1), Fraction(1)) == 0


# --------------------------------------------------------------------------- solvers

def _gap(A: RationalMatrix, B: RationalMatrix) -> float:
    """The largest |A_ij - B_ij|, exact and rounded once."""
    return float(max(abs(a - b) for ra, rb in zip(A.rows, B.rows) for a, b in zip(ra, rb)))


def _nikodym_gap(C: RationalMatrix, t0, t1, lam) -> float:
    """The gap between X(lam) and T at float or rational values, each taken as the exact rational it is."""
    t0, t1, lam = Fraction(t0), Fraction(t1), Fraction(lam)
    return _gap(x_of_lambda(C, t0, t1, lam), centre_matrix(C, t0, t1))


def _sum_product(q: Polynomial) -> Optional[tuple[Fraction, Fraction]]:
    """(s, p) = (h + k, hk) for the distinct roots h, k of a squarefree q of degree <= 2, exactly.

    A single root h counts twice: s = 2h, p = h^2.  None when deg q > 2.
    """
    if q.degree > 2:
        return None
    if q.degree == 1:
        h = -q[0] / q[1]
        return 2 * h, h * h
    return -q[1] / q[2], q[0] / q[2]


def _valid_heights(*ts: float) -> bool:
    if any(not (-1.0 < t < 1.0) or t == 0.0 for t in ts):
        return False
    return all(abs(a - b) > 1e-12 for i, a in enumerate(ts) for b in ts[i + 1:])


_X = Polynomial([0, 1])  # x, the parameter along a line of heights


def _heights_on(S: Fraction, p: Fraction, t0: Polynomial, t1: Polynomial) -> Iterator[tuple[float, float, float]]:
    """Float heights (t0, t1, t2) at each root in (-1, 1) of the product identity along a line x -> (t0(x), t1(x)).

    The heights sum to -S, so t2 = -S - t0 - t1, and they obey c = p a with
    c = (t0 + t1) t2 - 2 t0 t1 and a = (t0^2 + t1^2) t2^2 - 2 t0^2 t1^2: a rational
    polynomial in x.  At each root t0 and t1 are rounded once, and t2 is the exact
    -S - t0 - t1 of those floats, rounded once.
    """
    t2 = Polynomial([-S]) - t0 - t1
    c = (t0 + t1) * t2 - 2 * t0 * t1
    a = (t0 * t0 + t1 * t1) * t2 * t2 - 2 * t0 * t0 * t1 * t1
    for x in real_roots(c - p * a, -1.0, 1.0):
        u0, u1 = float(t0(Fraction(x))), float(t1(Fraction(x)))
        yield u0, u1, float(-S - Fraction(u0) - Fraction(u1))


def _certified(C, t0: float, t1: float, t2: float) -> bool:
    """Valid float heights whose exact gap, with lam = (t0 - t2)/(t0 - t1), is at most RESIDUAL_TOL."""
    return _valid_heights(t0, t1, t2) and _nikodym_gap(C, t0, t1, (t0 - t2) / (t0 - t1)) <= RESIDUAL_TOL


def _nikodym_range(C, S: Fraction, p: Fraction, t0: float, t1: float) -> Optional[tuple[float, float]]:
    """(t0 - RANGE_PROBE, t0 + RANGE_PROBE) when heights persist at both ends, else None.

    None too when the range contains 0, where T is undefined.  At each end t0' (a float, so an
    exact rational) the heights on the line (t0', x) nearest t1, at a root of a quartic (its
    x^4 term is -p x^4, and p != 0), are kept and certified by the exact gap.
    """
    if abs(t0) <= RANGE_PROBE:
        return None
    for t0p in (t0 - RANGE_PROBE, t0 + RANGE_PROBE):
        near = min(_heights_on(S, p, Polynomial([Fraction(t0p)]), _X), key=lambda h: abs(h[1] - t1), default=None)
        if near is None or not _certified(C, *near):
            return None
    return (t0 - RANGE_PROBE, t0 + RANGE_PROBE)


def _in_region(b: Fraction, c: Fraction) -> bool:
    """lo(b) < c < 2b/(1 + b), the real-pair region of c = t2/t0 on the line t1 = b t0, decided exactly.

    lo(b) = -1 + sqrt((7b^2 + 14b + 3)/(b^2 + 2b + 3)), so c > lo(b) is c > -1 and
    (c + 1)^2 (b^2 + 2b + 3) > 7b^2 + 14b + 3.
    """
    return c * (1 + b) < 2 * b and c > -1 and (c + 1) ** 2 * (b * b + 2 * b + 3) > 7 * b * b + 14 * b + 3


def _real_pair_heights(C, S: Fraction, p: Fraction) -> Optional[tuple[float, float, float]]:
    """The first certified heights on the lines t1 = b t0, b = 1 - 2^-j (j = 1..44), with t2/t0 in the region."""
    for b in (1 - Fraction(1, 2**j) for j in range(1, 45)):
        for t0, t1, t2 in _heights_on(S, p, _X, b * _X):
            # x = 0 is always a root; there t0 = 0
            if t0 and _in_region(b, Fraction(t2) / Fraction(t0)) and _certified(C, t0, t1, t2):
                return t0, t1, t2
    return None


def solve_nikodym_three_slice(C: RationalMatrix) -> HeightsSolution:
    """Find heights (t0, t1, t2) making X(lam) equal to T, with lam = (t0-t2)/(t0-t1).

    Supported inputs: C with C^2 = 0 (exact branch), and diagonal or invertible C whose
    spectrum consists of at most two values.  Raises :class:`NoSolution` with a reason code
    otherwise.  The branch and every reason code are decided exactly from s = h + k and
    p = hk of the distinct eigenvalues h, k.  Only the heights are floats: roots of rational
    polynomials (``_heights_on``), or sqrt(s^2 - p)/p for the symmetric complex heights.
    """
    if (C * C).is_zero():
        # X(lam) and T are parallel; lam/(1-lam) = t0/t1 makes them equal.
        t0, t1, lam = Fraction(1, 3), Fraction(2, 3), Fraction(1, 3)
        t2 = (1 - lam) * t0 + lam * t1
        return HeightsSolution(
            kind="nikodym3",
            heights=(t0, t1, t2),
            lam=lam,
            residual=_nikodym_gap(C, t0, t1, lam),
            t0_range=(float(t0) - RANGE_PROBE, float(t0) + RANGE_PROBE),
            regime="square_zero",
        )

    if not (C.is_diagonal() or C.det() != 0):
        raise NoSolution("unsupported_matrix_shape", "need C diagonal or invertible, or C^2 = 0")

    sp = _sum_product(_squarefree_part(char_poly(C)))
    if sp is None:
        raise NoSolution("too_many_eigenvalues", "spectrum must have at most two values")
    s, p = sp
    if p == 0:
        raise NoSolution("reciprocal_sum_out_of_range", "zero eigenvalue")
    S = s / p  # 1/h + 1/k
    if abs(S) >= 3:
        raise NoSolution("reciprocal_sum_out_of_range", f"|1/h + 1/k| = {float(abs(S)):.6g} >= 3")

    if s * s < 4 * p:  # complex conjugate pair alpha +/- i beta: s = 2 alpha, p = alpha^2 + beta^2
        heights = None
        third = float(-S)  # -2 alpha / (alpha^2 + beta^2); the heights sum to it
        if s * s > p:  # 3 alpha^2 - beta^2 > 0
            t0 = math.sqrt(s * s - p) / float(p)
            if _valid_heights(t0, -t0, third):
                heights, regime = (t0, -t0, third), "complex_symmetric"
        if heights is None:
            # fallback branch on the line (x, -S), where t2 = -x
            heights = next((hs for hs in _heights_on(S, p, _X, Polynomial([-S])) if _valid_heights(*hs)), None)
            regime = "complex_antisymmetric"
        if heights is None:
            raise NoSolution("complex_region_empty", "no admissible heights for this (alpha, beta)")
    else:
        # 0 < 1 + h/k < 3/5 with |h| <= |k| is h/k in (-1, -2/5), so s^2/p = h/k + 2 + k/h in (-9/10, 0)
        heights = _real_pair_heights(C, S, p) if p < 0 and 0 < 10 * s * s < -9 * p else None
        if heights is None:
            raise NoSolution("real_region_empty", "1 + h/k outside (0, 3/5) or walk failed")
        regime = "real_pair"

    t0, t1, t2 = heights
    lam = (t0 - t2) / (t0 - t1)
    residual = _nikodym_gap(C, t0, t1, lam)
    if residual > RESIDUAL_TOL:
        raise NoSolution("residual_check_failed", f"residual {residual:.3g}")
    return HeightsSolution(
        kind="nikodym3",
        heights=(t0, t1, t2),
        lam=lam,
        residual=residual,
        t0_range=_nikodym_range(C, S, p, t0, t1),
        regime=regime,
    )


def quartic_q(mu, l, m):
    """The root-compatibility function q(mu, l, m): quartic in mu, quadratic in l.

    Evaluated through s = l + m and p = lm: exact (``Fraction``) when all
    inputs are rational, a float otherwise.  A real or conjugate pair (l, m)
    gives real s and p exactly; any other complex input raises
    :class:`PreconditionViolation`.
    """
    if all(isinstance(v, (int, Fraction)) for v in (mu, l, m)):
        mu, l, m = rat(mu), rat(l), rat(m)
    s, p = l + m, l * m
    if any(isinstance(v, complex) and v.imag for v in (mu, s, p)):
        raise PreconditionViolation("q(mu, l, m) is only real for real mu and a real or conjugate pair (l, m)")
    val = 0
    for c in _quartic_coeffs(s.real, p.real):
        val = val * mu.real + c
    return val


def _quartic_coeffs(s, p) -> list:
    # q as a polynomial in mu, written through s = l+m and p = lm (degree 4..0).
    return [
        p * (s - 1),
        -p * s + s * s + 2 * p - s,
        -s * s - 2 * p + 4 * s - 1,
        -4 * (s - 1),
        -4,
    ]


def _lambda_of_mu(mu: float, s: float) -> float:
    return 1.0 - mu * (1.0 - mu) / (2.0 - mu + mu * (1.0 - mu) * s)


def solve_kakeya_four_slice(C: RationalMatrix) -> HeightsSolution:
    """Find (t0, t1, lam, mu) with X(lam) - X(mu) equal to the identity.

    Works when C is invertible with a single complex-conjugate eigenvalue pair
    whose root-sum can be pushed below -2(1+sqrt(2)) by the height family
    t0 = -1+eps, t1 = 1-2eps.  Raises :class:`NoSolution` with reason
    ``nilpotent_M`` / ``real_spectrum_blocked`` / ``region_violated``.  Every
    branch is decided exactly: the real spectrum by a Sturm count, the root
    sums on the rational eps grid, and the candidate mu are the roots of the
    rational quartic q(mu, l, m) in (0, 1), each bisected exactly to a float.
    """
    q = _squarefree_part(char_poly(C))
    if q.degree == 1 and q[0] == 0:  # the spectrum is {0}
        raise NoSolution("nilpotent_M", "C (hence M) is nilpotent; no combination can reach I")
    bound = 1 + max(abs(c) for c in q.coeffs[:-1]) / abs(q.coeffs[-1])  # Cauchy's bound on |roots|
    if count_real_roots(q, -bound, bound) == q.degree:
        raise NoSolution("real_spectrum_blocked", "real spectrum cannot solve the quadratic in (-1,1)")
    sp = _sum_product(q)
    if sp is None:
        raise NoSolution("region_violated", "need exactly one complex-conjugate eigenvalue pair")
    s, p = sp  # of the conjugate pair h, conj(h)
    L, S, P = s.denominator * p.denominator, s.numerator * p.denominator, p.numerator * s.denominator

    def heights(eps: Fraction, swap: bool) -> tuple[Fraction, Fraction]:
        return (1 - 2 * eps, -1 + eps) if swap else (-1 + eps, 1 - 2 * eps)

    # Root-sum of M's pair, (t1-t0) h / (1 + (t0+t1) h) summed over h, along the height family
    # t0 = -1 + eps, t1 = 1 - 2 eps, exact on the grid eps = 2j/195, in both orientations (a swap negates
    # it).  With s = S/L and p = P/L it is N/D: N = (390 - 6j)(195 S - 4jP) and
    # D = 38025 L - 390 jS + 4 j^2 P = 38025 L |1 - eps h|^2 > 0.  x < -2(1 + sqrt 2) is x + 2 < 0 and (x + 2)^2 > 8.
    sums = []
    for j in range(1, 65):
        N, D = (390 - 6 * j) * (195 * S - 4 * j * P), 38025 * L - 390 * j * S + 4 * j * j * P
        sums += [(N, D, j, False), (-N, D, j, True)]
    admissible = [(j, swap) for N, D, j, swap in sums if N + 2 * D < 0 and (N + 2 * D) ** 2 > 8 * D * D]
    if not admissible:
        raise NoSolution("region_violated", "root-sum never falls below -2(1+sqrt(2)) on the grid")
    N, D, j, best_swap = min(sums, key=lambda c: Fraction(c[0], c[1]))  # D > 0; ties: the first, least (eps, swap)
    sm = Fraction(N, D)

    t0, t1 = heights(Fraction(2 * j, 195), best_swap)
    pm = Fraction((390 - 6 * j) ** 2 * P, D)  # the product of M's pair
    mu = None
    for r in real_roots(Polynomial(_quartic_coeffs(sm, pm)[::-1]), 0.0, 1.0):
        lam = _lambda_of_mu(r, float(sm))
        if 0.0 < lam < 1.0:
            X_lam, X_mu = (x_of_lambda(C, t0, t1, Fraction(z)) for z in (lam, r))
            residual = _gap(X_lam - X_mu, RationalMatrix.identity(C.dim))
            if residual <= RESIDUAL_TOL:
                mu = r
                break
    if mu is None:
        raise NoSolution("region_violated", "no quartic root gave an admissible (lam, mu)")

    same_side = [Fraction(2 * j, 195) for j, swap in admissible if swap == best_swap]
    t0_range = tuple(sorted(float(heights(e, best_swap)[0]) for e in (min(same_side), max(same_side))))
    return HeightsSolution(
        kind="kakeya4",
        heights=(t0, t1),
        lam=lam,
        mu=mu,
        residual=residual,
        t0_range=t0_range,
        regime="complex_pair_swapped" if best_swap else "complex_pair",
    )


# --------------------------------------------------------------------- calculators

def _epsilon(eps):
    """eps read by _number (exact for an int or Fraction, else a float); must lie in [0, 1)."""
    e = _number(eps)
    if not 0 <= e < 1:
        raise ValueError("eps must lie in [0, 1)")
    return e


def iterate_epsilon(eps: float) -> float:
    """One application of the improvement map eps -> (2 - eps^2)/(8 - 7 eps + eps^2).

    Exact for int or Fraction eps; a float gets the float formula bit for bit (2 == 2.0, 7*e == 7.0*e).
    """
    e = _epsilon(eps)
    return (2 - e * e) / (8 - 7 * e + e * e)


def iteration_fixed_point() -> float:
    """Fixed point of the improvement map in (0, 1): the root there of e^3 - 6e^2 + 8e - 2, as a float."""
    return real_roots(Polynomial([-2, 8, -6, 1]), 0.0, 1.0)[0]  # its other roots lie in (1, 2) and (4, 5)


def dimension_lower_bound(n: int, eps, has_range: bool):
    """Lower bound (n-1)/(2-eps) for the box dimension, plus 1 given a height range."""
    n = _integer(n, 3, name="n")
    return (n - 1) / (2 - _epsilon(eps)) + (1 if has_range else 0)


@dataclass(frozen=True)
class ExponentThresholds:
    """Maximal exponents below which the small-set construction rules out estimates."""

    p_max: Fraction
    s_max: Fraction
    m: float  # vanishing order used; math.inf when the determinant vanishes identically

    def to_json(self) -> dict:
        return {
            "p_max": str(self.p_max),
            "s_max": str(self.s_max),
            "m": "inf" if self.m == math.inf else int(self.m),
        }


def genfail_exponents(n: int, k: int, tr_adj_zero: bool = False, det_zero: bool = False) -> ExponentThresholds:
    """Exponent thresholds for dimension n with repeated-factor multiplicity k.

    The flags select the strengthened variants available when k = 0; they are
    ignored for k > 0, where only the generic threshold applies.
    """
    n = _integer(n, 2, name="n")
    k = _integer(k, 0, n - 2, name="k")
    if k == 0 and tr_adj_zero and det_zero:
        p_max = Fraction(n - 1)
        s_max = Fraction(2 * n, n - 1) + Fraction(2, (n - 1) * (2 * n - 3))
        m: float = math.inf
    elif k == 0 and tr_adj_zero:
        p_max = n - Fraction(n - 1, 2 * n - 3)
        s_max = Fraction(2 * n, n - 1) + Fraction(2 * n - 2, 2 * (n - 1) ** 2 * (2 * n - 3))
        m = 2 * (n - 1)
    else:
        if k == n - 2:
            p_max = Fraction(n)
        else:
            p_max = n - Fraction(n - k - 2, 2 * n - k - 4)
        s_max = Fraction(2 * n, n - 1) + Fraction(2 * n - 2 * k - 2, (2 * n - k - 3) * (n - 1) * (2 * n - 3))
        m = 2 * (n - 1) - k - 1
    return ExponentThresholds(p_max=p_max, s_max=s_max, m=m)


# ----------------------------------------------------------------- W construction

def companion_blocks(C: RationalMatrix) -> list[tuple[int, list[Fraction]]]:
    """Split a companion-block direct sum into (size, coefficient list) blocks.

    Raises :class:`NotCompanionForm` if the matrix is not such a direct sum.
    """
    n = C.dim
    blocks, rebuilt, r = [], [[Fraction(0)] * n for _ in range(n)], 0
    while r < n:
        l = 1
        while r + l < n and C[r + l - 1, r + l] == 1:
            l += 1
        cs = [C[r + i, r] for i in range(l)]
        for i, row in enumerate(companion(cs).rows):  # C must equal the direct sum of these blocks
            rebuilt[r + i][r:r + l] = row
        blocks.append((l, cs))
        r += l
    bad = next(((i, j) for i in range(n) for j in range(n) if C[i, j] != rebuilt[i][j]), None)
    if bad is not None:
        raise NotCompanionForm(f"entry {bad} breaks the companion-block layout")
    return blocks


def w_matrix(C: RationalMatrix) -> RationalMatrix:
    """The linear centre map W for a companion-block matrix.

    Per block of size l with the first column (c_1, ..., c_l), W is zero except
    for its own first column (0, -1, c_1, ..., c_{l-2}); det(W - tI - t^2 C)
    then vanishes to order 2l-1 in t on that block.
    """
    blocks = companion_blocks(C)
    n = C.dim
    rows = [[Fraction(0)] * n for _ in range(n)]
    r = 0
    for l, cs in blocks:
        if l >= 2:
            rows[r + 1][r] = Fraction(-1)
        for i in range(2, l):
            rows[r + i][r] = cs[i - 2]
        r += l
    return RationalMatrix(rows)


def direction_map_det(C: RationalMatrix, W: RationalMatrix) -> Polynomial:
    """det(W - tI - t^2 C), exactly."""
    return det_poly([W, -RationalMatrix.identity(C.dim), -C])


def vanishing_order(C: RationalMatrix, W: RationalMatrix) -> float:
    """Order of det(W - tI - t^2 C) at t = 0; ``inf`` when it vanishes identically."""
    order = direction_map_det(C, W).order_at_zero()
    return math.inf if order is None else order
