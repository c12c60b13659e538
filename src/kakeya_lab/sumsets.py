"""Finite lattice sets with incidence relations and matrix sumsets.

Points live in Z^{n-1}.  A rational matrix X acts by first scaling the whole
computation by L, the lcm of the denominators of its entries, so results stay
on an integer lattice; the returned set records that scale (coordinates are
point/scale).  All cardinalities are exact.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .curves import CurveFamily, CurveParams, curve_point
from .errors import (
    DegenerateInstance,
    NoSuchVector,
    PreconditionViolation,
)
from .exact import RationalMatrix, rat

Point = tuple


@dataclass(frozen=True)
class LatticeSet:
    """Deduplicated finite set of integer vectors; coordinates are point/scale."""

    dim: int
    points: frozenset
    scale: int = 1

    def __post_init__(self):
        object.__setattr__(self, "points", frozenset(tuple(int(c) for c in p) for p in self.points))
        if any(len(p) != self.dim for p in self.points):
            raise ValueError("point dimension mismatch")

    @property
    def size(self) -> int:
        return len(self.points)

    @classmethod
    def of(cls, points: Iterable, dim: Optional[int] = None, scale: int = 1) -> "LatticeSet":
        pts = [tuple(int(c) for c in p) for p in points]
        if dim is None:
            if not pts:
                raise ValueError("cannot infer dimension of an empty set")
            dim = len(pts[0])
        return cls(dim=dim, points=frozenset(pts), scale=scale)


@dataclass(frozen=True)
class Incidence:
    """A relation G between two lattice sets, stored as (a, b) point pairs."""

    pairs: frozenset

    def __post_init__(self):
        object.__setattr__(
            self,
            "pairs",
            frozenset((tuple(int(c) for c in a), tuple(int(c) for c in b)) for a, b in self.pairs),
        )

    @property
    def size(self) -> int:
        return len(self.pairs)

    @classmethod
    def full(cls, A: LatticeSet, B: LatticeSet) -> "Incidence":
        return cls(pairs=frozenset((a, b) for a in A.points for b in B.points))

    def validate(self, A: LatticeSet, B: LatticeSet):
        for a, b in self.pairs:
            if a not in A.points or b not in B.points:
                raise PreconditionViolation("incidence references a point outside A or B")


def _pair_arrays(G: Incidence, dim: int):
    """(a, b) int64 arrays for the incidence pairs, or None when values overflow."""
    pairs = list(G.pairs)
    peak = max((abs(c) for pa, pb in pairs for p in (pa, pb) for c in p), default=0)
    if peak >= _INT64_GUARD:
        return None
    a = np.array([pa for pa, _ in pairs], dtype=np.int64)
    b = np.array([pb for _, pb in pairs], dtype=np.int64)
    return a, b


def _x_scale(X: RationalMatrix) -> int:
    return math.lcm(*[e.denominator for r in X.rows for e in r]) if X.dim else 1


_INT64_GUARD = 2**60


def x_sumset(A: LatticeSet, B: LatticeSet, G: Incidence, X: RationalMatrix) -> LatticeSet:
    """{a + X b : (a, b) in G} on the lattice (1/L) Z^{n-1}, L = lcm of X's denominators."""
    if A.dim != B.dim or X.dim != A.dim:
        raise PreconditionViolation("dimension mismatch")
    if A.scale != B.scale:
        raise PreconditionViolation("A and B must share a scale")
    L = _x_scale(X)
    XL = [[int(e * L) for e in r] for r in X.rows]
    if not G.pairs:
        return LatticeSet(dim=A.dim, points=frozenset(), scale=L * A.scale)
    arrays = _pair_arrays(G, A.dim)
    if arrays is not None:
        a, b = arrays
        x_max = max(abs(v) for r in XL for v in r)
        # every entry and partial sum of L*a + b @ XL.T is <= L*|a| + dim*|XL|*|b|; +1s keep L, XL in int64
        bound = L * (int(np.abs(a).max(initial=0)) + 1) + A.dim * x_max * (int(np.abs(b).max(initial=0)) + 1)
    if arrays is not None and bound < 2**63:
        pts = L * a + b @ np.array(XL, dtype=np.int64).T
        out = frozenset(map(tuple, pts.tolist()))
    else:  # exact big-integer fallback
        out = frozenset(
            tuple(L * ai + sum(XL[i][j] * bj for j, bj in enumerate(pb)) for i, ai in enumerate(pa))
            for pa, pb in G.pairs
        )
    return LatticeSet(dim=A.dim, points=out, scale=L * A.scale)


def difference_set(A: LatticeSet, B: LatticeSet, G: Incidence) -> LatticeSet:
    """{a - b : (a, b) in G}."""
    if A.dim != B.dim:
        raise PreconditionViolation("dimension mismatch")
    if A.scale != B.scale:
        raise PreconditionViolation("A and B must share a scale")
    if not G.pairs:
        return LatticeSet(dim=A.dim, points=frozenset(), scale=A.scale)
    arrays = _pair_arrays(G, A.dim)
    if arrays is not None and max(int(np.abs(arrays[0]).max()), int(np.abs(arrays[1]).max())) < _INT64_GUARD // 2:
        pts = frozenset(map(tuple, (arrays[0] - arrays[1]).tolist()))
    else:
        pts = frozenset(tuple(x - y for x, y in zip(pa, pb)) for pa, pb in G.pairs)
    return LatticeSet(dim=A.dim, points=pts, scale=A.scale)


@dataclass(frozen=True)
class RatioReport:
    holds: bool
    achieved_exponent: Optional[float]
    size_A: int
    size_B: int
    sumset_sizes: tuple
    size_diff: int
    max_side: int


def check_ratio(A: LatticeSet, B: LatticeSet, G: Incidence, Xs: Sequence[RationalMatrix],
                eps) -> RatioReport:
    """Test #(A-B) <= max(#A, #B, max_j #(A + X_j B))^(2 - eps), exactly for rational eps."""
    sum_sizes = tuple(x_sumset(A, B, G, X).size for X in Xs)
    n_diff = difference_set(A, B, G).size
    mx = max((A.size, B.size) + sum_sizes)
    if mx <= 1 and n_diff > 1:
        raise DegenerateInstance("max side is 1 but the difference set is larger")
    e = rat(eps) if isinstance(eps, (int, Fraction, str)) else None
    if e is not None:
        # n_diff <= mx^(2 - p/q)  <=>  n_diff^q <= mx^(2q - p)
        p, q = e.numerator, e.denominator
        holds = n_diff**q <= mx ** (2 * q - p)
    else:
        holds = n_diff <= mx ** (2.0 - float(eps)) * (1 + 1e-12)
    exponent = math.log(n_diff) / math.log(mx) if mx >= 2 and n_diff >= 1 else None
    return RatioReport(
        holds=bool(holds),
        achieved_exponent=exponent,
        size_A=A.size,
        size_B=B.size,
        sumset_sizes=sum_sizes,
        size_diff=n_diff,
        max_side=mx,
    )


# ----------------------------------------------------------- counterexamples

def gen_line_counterexample(X: RationalMatrix, M: int) -> tuple[LatticeSet, LatticeSet, Incidence]:
    """Progressions B along a non-eigenvector v and A = X B, with G = A x B.

    Gives #(A + X B) = 2M - 1 against #(A - B) = M^2.  v is the first standard
    basis vector that X does not fix as an eigendirection.
    """
    if M < 1:
        raise PreconditionViolation("M must be positive")
    d = X.dim
    col = None
    for i in range(d):
        column = [X[r, i] for r in range(d)]
        if any(column[r] != 0 for r in range(d) if r != i):
            col = i
            break
    if col is None:
        raise NoSuchVector("every standard basis vector is an eigendirection; X is diagonal-like")
    c = math.lcm(*[X[r, col].denominator for r in range(d)])
    xv = [int(c * X[r, col]) for r in range(d)]
    bs = [tuple(j * c if r == col else 0 for r in range(d)) for j in range(1, M + 1)]
    as_ = [tuple(j * xv[r] for r in range(d)) for j in range(1, M + 1)]
    A = LatticeSet.of(as_, dim=d)
    B = LatticeSet.of(bs, dim=d)
    return A, B, Incidence.full(A, B)


def gen_secular_counterexample(
    v: Sequence[int],
    w: Sequence[int],
    fracs: Sequence[Fraction],
    M: int,
) -> tuple[LatticeSet, LatticeSet, Incidence, list[int]]:
    """Two progressions whose X_j-sumsets stay near-minimal for every X_j v = (p_j/q_j) w.

    Returns (A, B, G, predicted) with predicted[j] = Q_j (M-1) + M where
    Q_j = |q_j * prod_{i != j} p_i|.  Requires v, w linearly independent,
    non-zero coprime p_j/q_j, and M > prod |p_i q_i|.
    """
    v = tuple(int(c) for c in v)
    w = tuple(int(c) for c in w)
    d = len(v)
    if len(w) != d:
        raise PreconditionViolation("v and w must have equal dimension")
    gram = sum(a * a for a in v) * sum(b * b for b in w) - sum(a * b for a, b in zip(v, w)) ** 2
    if gram == 0:
        raise PreconditionViolation("v and w must be linearly independent")
    ps, qs = [], []
    for f in fracs:
        f = rat(f)
        if f == 0:
            raise PreconditionViolation("fractions must be non-zero")
        ps.append(f.numerator)
        qs.append(f.denominator)
    prod_pq = math.prod(abs(p * q) for p, q in zip(ps, qs))
    if M <= prod_pq:
        raise PreconditionViolation(f"need M > prod |p_i q_i| = {prod_pq}")
    wa = math.prod(ps) * math.prod(qs)
    vb = math.prod(qs)
    A = LatticeSet.of([tuple(n * wa * c for c in w) for n in range(1, M + 1)], dim=d)
    B = LatticeSet.of([tuple(n * vb * c for c in v) for n in range(1, M + 1)], dim=d)
    predicted = []
    for j in range(len(ps)):
        Qj = abs(qs[j] * math.prod(p for i, p in enumerate(ps) if i != j))
        predicted.append(Qj * (M - 1) + M)
    return A, B, Incidence.full(A, B), predicted


# --------------------------------------------------------------- trapezia

@dataclass(frozen=True)
class TrapeziumReport:
    """Trapezium count, its bracket, and the reconstruction identity check.

    ``identity_verified`` covers only the first ``identities_checked`` counted
    tuples.  When that is less than ``count`` the check was capped, and a
    failure among the remaining tuples would go unseen.
    """

    count: int
    lower_bound: float
    upper_bound: int
    identity_verified: bool
    g_size: int           # after the discard pass
    max_side: int
    identities_checked: int

    def bracketed(self) -> bool:
        return self.lower_bound <= self.count <= self.upper_bound


def _discard_to_distinct_differences(G: Incidence) -> Incidence:
    # keep the lexicographically least pair for each difference value
    best = {}
    for a, b in sorted(G.pairs):
        dkey = tuple(x - y for x, y in zip(a, b))
        if dkey not in best:
            best[dkey] = (a, b)
    return Incidence(pairs=frozenset(best.values()))


def count_trapezia(
    A: LatticeSet,
    B: LatticeSet,
    G: Incidence,
    X: RationalMatrix,
    Y: RationalMatrix,
    identity_check_cap: int = 200_000,
) -> TrapeziumReport:
    """Count ordered trapezia in G under the sum maps X and Y = X + I.

    A trapezium is an ordered 4-tuple ((a0,b0), (a0,b0'), (a1,b1), (a1,b1'))
    of incidences with a0 + Y b0 = a1 + Y b1 and b0' = b1'.  The incidence set
    is first thinned until distinct pairs give distinct differences.  Also
    checks the reconstruction identity
    a1 - b1' = (I + X^-1)(a0 + X b0) - X^-1 (a0 + X b0') - Y b1
    on the counted tuples, stopping after ``identity_check_cap`` of them; the
    report says how many were checked.
    """
    I = RationalMatrix.identity(X.dim)
    if Y - X != I:
        raise PreconditionViolation("need Y - X = I")
    if X.det() == 0:
        raise PreconditionViolation("X must be invertible")
    Gd = _discard_to_distinct_differences(G)
    sX = x_sumset(A, B, Gd, X).size
    sY = x_sumset(A, B, Gd, Y).size
    M = max(A.size, B.size, sX, sY)

    L = _x_scale(Y)
    YL = [[int(e * L) for e in r] for r in Y.rows]

    def ykey(a, b):
        return tuple(L * ai + sum(YL[i][j] * bj for j, bj in enumerate(b)) for i, ai in enumerate(a))

    by_a: dict = {}
    for a, b in Gd.pairs:
        by_a.setdefault(a, []).append(b)
    sides: dict = {}
    for a, bs in by_a.items():
        keys = [ykey(a, b) for b in bs]
        for i, b0 in enumerate(bs):
            for b0p in bs:
                sides.setdefault((keys[i], b0p), []).append((a, b0, b0p))
    count = sum(len(v) ** 2 for v in sides.values())

    Xinv = X.inverse()
    IX = I + Xinv
    identity_ok = True
    checked = 0
    for group in sides.values():
        for (a0, b0, b0p) in group:
            for (a1, b1, b1p) in group:
                if checked >= identity_check_cap:
                    break
                checked += 1
                lhs = tuple(rat(x) - rat(y) for x, y in zip(a1, b1p))
                axb0 = [rat(x) + v for x, v in zip(a0, X.mat_vec(b0))]
                axb0p = [rat(x) + v for x, v in zip(a0, X.mat_vec(b0p))]
                rhs = tuple(
                    p - q - r
                    for p, q, r in zip(IX.mat_vec(axb0), Xinv.mat_vec(axb0p), Y.mat_vec(b1))
                )
                if lhs != rhs:
                    identity_ok = False
            if checked >= identity_check_cap:
                break
        if checked >= identity_check_cap:
            break

    g = Gd.size
    lower = g**4 / M**4 if M else 0.0
    return TrapeziumReport(
        count=count,
        lower_bound=lower,
        upper_bound=M**3,
        identity_verified=identity_ok,
        g_size=g,
        max_side=M,
        identities_checked=checked,
    )


# ----------------------------------------------------- slices of a curve family

def slices_from_construction(
    family: CurveFamily,
    directions: Sequence,
    omega_map: Callable | RationalMatrix,
    t0,
    t1,
    delta: Fraction,
) -> tuple[LatticeSet, LatticeSet, Incidence]:
    """Slice a concrete curve family at heights t0 and t1 onto the delta-lattice.

    ``omega_map`` assigns a centre to each direction (a callable, or a matrix W
    meaning omega = W y).  Points are computed exactly and snapped with
    round(coord/delta); the returned sets carry scale = 1/delta.  G pairs the
    two slice points of each curve.
    """
    t0, t1, delta = rat(t0), rat(t1), rat(delta)
    if t0 == t1:
        raise PreconditionViolation("t0 and t1 must differ")
    if isinstance(omega_map, RationalMatrix):
        W = omega_map
        omega_of = lambda y: W.mat_vec(y)
    else:
        omega_of = omega_map

    def snap(coord: Fraction) -> int:
        q = coord / delta + Fraction(1, 2)
        return math.floor(q)

    inv = 1 / delta
    if inv.denominator != 1:
        raise PreconditionViolation("delta must be the reciprocal of an integer (2^-k preferred)")
    a_pts, b_pts, pairs = [], [], []
    for y in directions:
        yv = [rat(c) for c in y]
        om = tuple(rat(c) for c in omega_of(yv))
        ppar = CurveParams(y=tuple(yv), omega=om)
        a = curve_point(family, ppar, t0)[:-1]
        b = curve_point(family, ppar, t1)[:-1]
        ai = tuple(snap(c) for c in a)
        bi = tuple(snap(c) for c in b)
        a_pts.append(ai)
        b_pts.append(bi)
        pairs.append((ai, bi))
    scale = int(inv)
    A = LatticeSet.of(a_pts, dim=family.n - 1, scale=scale)
    B = LatticeSet.of(b_pts, dim=family.n - 1, scale=scale)
    return A, B, Incidence(pairs=frozenset(pairs))


# ------------------------------------------------------------ random instances

def random_instance(
    seed: int,
    dim: int = 2,
    box: int = 12,
    max_size: int = 64,
    density: float | None = None,
) -> tuple[LatticeSet, LatticeSet, Incidence]:
    """Reproducible random instance: uniform points in a box, G by coin flips."""
    rng = np.random.default_rng(seed)
    nA = int(rng.integers(1, max_size + 1))
    nB = int(rng.integers(1, max_size + 1))
    A = LatticeSet.of(map(tuple, rng.integers(-box, box + 1, size=(nA, dim)).tolist()), dim=dim)
    B = LatticeSet.of(map(tuple, rng.integers(-box, box + 1, size=(nB, dim)).tolist()), dim=dim)
    rho = float(rng.uniform(0.05, 1.0)) if density is None else density
    pairs = [(a, b) for a in sorted(A.points) for b in sorted(B.points) if rng.random() < rho]
    if not pairs:
        a0, b0 = sorted(A.points)[0], sorted(B.points)[0]
        pairs = [(a0, b0)]
    return A, B, Incidence(pairs=frozenset(pairs))


# ----------------------------------------------------------------------- io

def instance_to_json(A: LatticeSet, B: LatticeSet, G: Incidence) -> dict:
    As = sorted(A.points)
    Bs = sorted(B.points)
    ai = {p: i for i, p in enumerate(As)}
    bi = {p: i for i, p in enumerate(Bs)}
    return {
        "dim": A.dim,
        "A": [list(p) for p in As],
        "B": [list(p) for p in Bs],
        "G": sorted([ai[a], bi[b]] for a, b in G.pairs),
    }


def instance_from_json(obj: dict) -> tuple[LatticeSet, LatticeSet, Incidence]:
    dim = obj["dim"]
    As = [tuple(p) for p in obj["A"]]
    Bs = [tuple(p) for p in obj["B"]]
    A = LatticeSet.of(As, dim=dim)
    B = LatticeSet.of(Bs, dim=dim)
    G = Incidence(pairs=frozenset((As[i], Bs[j]) for i, j in obj["G"]))
    G.validate(A, B)
    return A, B, G


def load_instance(path: str) -> tuple[LatticeSet, LatticeSet, Incidence]:
    with open(path) as fh:
        return instance_from_json(json.load(fh))
