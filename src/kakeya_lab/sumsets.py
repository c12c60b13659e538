"""Finite lattice sets with incidence relations and matrix sumsets.

Points live in Z^{n-1}.  A rational matrix X acts by first scaling the whole
computation by L, the lcm of the denominators of its entries, so results stay
on an integer lattice; the returned set records that scale (coordinates are
point/scale).  All cardinalities are exact.

Sets and incidences are stored as rows: an (n, dim) int64 array of the
distinct points (or pairs) in lexicographic order, or an object array of
Python ints when a coordinate is outside int64.  Each operation derives from
the stored coordinate bounds whether its arithmetic stays inside int64, and
otherwise runs the same array code on Python ints.  Rows are compared through
one key per row (``_keys``), injective and sorted as the rows: Horner's scheme
in the balanced base 2P + 1, P a bound on the coordinates, while it fits int64;
past that, int64 rows pack each column's ranks into int64 keys, and only object
rows get Python-int keys.  Cardinalities are counted on the keys without
building a set.  The frozensets of tuples (``points``, ``pairs``) are built on
each access and not kept.
"""

from __future__ import annotations

import decimal
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
    SingularMatrix,
    reading_json,
)
from .exact import RationalMatrix, _integer, _rows, rat

Point = tuple


def _peak(rows: np.ndarray) -> int:
    return max(int(rows.max(initial=0)), -int(rows.min(initial=0)))


def _exact(bound: int, *arrays: np.ndarray) -> tuple:
    """The arrays as they are when ``bound`` < 2^63, else as Python-int object arrays."""
    return arrays if bound < 2**63 else tuple(x.astype(object) for x in arrays)


def _keys(rows: np.ndarray, peak: int) -> np.ndarray:
    """One key per row, injective and in the rows' lexicographic order; ``peak`` bounds every |coordinate|.

    Horner's scheme in the balanced base S = 2 peak + 1 is injective and keeps the order, and every
    partial key is within (S^dim - 1)/2.  int64 rows always get int64 keys: they take their own peak
    when the given one is too loose, and rank keys (``_rank_keys``) when even that is past int64.
    Object rows get Python-int keys past int64.  Compare only the keys of one call.
    """
    dim = rows.shape[1]
    if rows.dtype != object and ((2 * peak + 1) ** dim - 1) // 2 >= 2**63:
        peak = _peak(rows)
        if ((2 * peak + 1) ** dim - 1) // 2 >= 2**63:
            return _rank_keys(rows)
    S = 2 * peak + 1
    dtype = np.int64 if (S**dim - 1) // 2 < 2**63 else object
    keys = rows[:, 0].astype(dtype) if dim else np.zeros(len(rows), dtype=dtype)
    for column in rows.T[1:]:
        keys = keys * S + column.astype(dtype, copy=False)  # a column at a time: no Python-int copy of the rows
    return keys


def _rank_keys(rows: np.ndarray) -> np.ndarray:
    """int64 keys of int64 rows: column ranks packed in mixed radix, re-ranked before they would pass int64."""
    keys, size = np.zeros(len(rows), dtype=np.int64), 1
    for column in rows.T:
        values, ranks = np.unique(column, return_inverse=True)
        if size * len(values) > 2**63:
            size, keys = len(rows), np.unique(keys, return_inverse=True)[1]
        keys, size = keys * len(values) + ranks, size * len(values)
    return keys


def _distinct(rows: np.ndarray, peak: Optional[int] = None) -> np.ndarray:
    """The distinct rows in lexicographic order; ``peak`` bounds every |coordinate| (default: the rows' own)."""
    keys = _keys(rows, _peak(rows) if peak is None else peak)
    return rows.take(np.unique(keys, return_index=True)[1], axis=0)


def _count(rows: np.ndarray, peak: int) -> int:
    """Number of distinct rows: int64 keys sorted, Python ints in a set (6x faster than their sort)."""
    keys = _keys(rows, peak)
    if keys.dtype == object:
        return len(set(keys.tolist()))
    keys = np.sort(keys)
    return int(np.count_nonzero(keys[1:] != keys[:-1])) + (len(keys) > 0)


def _ranks(rows: np.ndarray, peak: int) -> np.ndarray:
    """Rank of each row among the distinct rows in lexicographic order."""
    return np.unique(_keys(rows, peak), return_inverse=True)[1]


class LatticeSet:
    """Deduplicated finite set of integer vectors; coordinates are point/scale.

    ``rows`` holds the distinct points in lexicographic order (see the module
    docstring); ``points`` builds the same set as a frozenset of tuples.
    """

    __slots__ = ("dim", "scale", "rows")

    def __init__(self, dim: int, points: Iterable, scale: int = 1):
        self._init(dim, _distinct(_rows(points, dim)), scale)

    def _init(self, dim: int, rows: np.ndarray, scale: int):
        self.dim, self.rows, self.scale = dim, rows, scale

    @classmethod
    def _of_rows(cls, dim: int, rows: np.ndarray, scale: int = 1) -> "LatticeSet":
        """A set from rows that are already distinct and lexicographically sorted."""
        out = cls.__new__(cls)
        out._init(dim, rows, scale)
        return out

    @property
    def points(self) -> frozenset:
        return frozenset(map(tuple, self.rows.tolist()))

    @property
    def size(self) -> int:
        return len(self.rows)

    def __eq__(self, other):
        return isinstance(other, LatticeSet) and (self.dim, self.scale, self.points) == (
            other.dim, other.scale, other.points)

    def __hash__(self):
        return hash((self.dim, self.scale, self.points))

    def __repr__(self):
        return f"LatticeSet(dim={self.dim}, size={self.size}, scale={self.scale})"

    @classmethod
    def of(cls, points: Iterable, dim: Optional[int] = None, scale: int = 1) -> "LatticeSet":
        pts = list(points)
        if dim is None:
            if not pts:
                raise ValueError("cannot infer dimension of an empty set")
            dim = len(pts[0])
        return cls(dim=dim, points=pts, scale=scale)


class Incidence:
    """A relation G between two lattice sets, stored as (a, b) point pairs.

    ``a`` and ``b`` are row arrays of equal shape holding the distinct pairs in
    lexicographic (a, b) order (see the module docstring); ``peak_a`` and
    ``peak_b`` bound their coordinates' absolute values.  ``pairs`` builds the
    same relation as a frozenset of tuple pairs.
    """

    __slots__ = ("a", "b", "peak_a", "peak_b")

    def __init__(self, pairs: Iterable):
        pairs = list(pairs)
        dim = len(pairs[0][0]) if pairs else 0
        a, b = _rows([p[0] for p in pairs], dim), _rows([p[1] for p in pairs], dim)
        keys = _ranks(a, _peak(a)) * len(b) + _ranks(b, _peak(b))  # int64, in (a, b) order
        first = np.unique(keys, return_index=True)[1]
        self._init(a[first], b[first])

    def _init(self, a: np.ndarray, b: np.ndarray):
        if a.dtype != b.dtype:
            a, b = a.astype(object), b.astype(object)
        self.a, self.b = a, b
        self.peak_a, self.peak_b = _peak(a), _peak(b)

    @classmethod
    def _of_rows(cls, a: np.ndarray, b: np.ndarray) -> "Incidence":
        """A relation from pair rows that are already distinct and sorted by (a, b)."""
        out = cls.__new__(cls)
        out._init(a, b)
        return out

    @property
    def pairs(self) -> frozenset:
        return frozenset(zip(map(tuple, self.a.tolist()), map(tuple, self.b.tolist())))

    @property
    def size(self) -> int:
        return len(self.a)

    def __eq__(self, other):
        return isinstance(other, Incidence) and self.pairs == other.pairs

    def __hash__(self):
        return hash(self.pairs)

    def __repr__(self):
        return f"Incidence(size={self.size})"

    @classmethod
    def full(cls, A: LatticeSet, B: LatticeSet) -> "Incidence":
        return cls._of_rows(np.repeat(A.rows, B.size, axis=0), np.tile(B.rows, (A.size, 1)))

    def validate(self, A: LatticeSet, B: LatticeSet):
        _indices(A, self.a)
        _indices(B, self.b)


def _indices(S: LatticeSet, rows: np.ndarray) -> np.ndarray:
    """Index in S.rows of each of ``rows``, which must all be points of S."""
    keys = _keys(np.vstack([S.rows, rows]), max(_peak(S.rows), _peak(rows)))
    own, want = keys[:S.size], keys[S.size:]
    at = np.searchsorted(own, want)
    if len(want) and (at.max() == S.size or (own[at] != want).any()):
        raise PreconditionViolation("incidence references a point outside A or B")
    return at


def _check(A: LatticeSet, B: LatticeSet, *Xs: RationalMatrix):
    if A.dim != B.dim or any(X.dim != A.dim for X in Xs):
        raise PreconditionViolation("dimension mismatch")
    if A.scale != B.scale:
        raise PreconditionViolation("A and B must share a scale")


def _sums(G: Incidence, X: RationalMatrix, dim: int) -> tuple[np.ndarray, int]:
    """The rows L a + (L X) b over G's pairs, L the lcm of X's denominators, and a bound on their entries."""
    if not G.size:
        return np.empty((0, dim), dtype=np.int64), 0
    L, XL = X.integer_form()
    # each entry and partial sum of L*a + b @ XL.T is <= L*|a| + (max row sum of |XL|)*|b|; +1s keep L, XL in int64
    bound = L * (G.peak_a + 1) + max(sum(map(abs, r)) for r in XL) * (G.peak_b + 1)
    a, b = _exact(bound, G.a, G.b)
    return L * a + b @ np.array(XL, dtype=a.dtype).T, bound


def _differences(G: Incidence, dim: int) -> tuple[np.ndarray, int]:
    """The rows a - b over G's pairs and a bound on their coordinates."""
    if not G.size:
        return np.empty((0, dim), dtype=np.int64), 0
    a, b = _exact(G.peak_a + G.peak_b, G.a, G.b)
    return a - b, G.peak_a + G.peak_b


def x_sumset(A: LatticeSet, B: LatticeSet, G: Incidence, X: RationalMatrix) -> LatticeSet:
    """{a + X b : (a, b) in G} on the lattice (1/L) Z^{n-1}, L = lcm of X's denominators."""
    _check(A, B, X)
    return LatticeSet._of_rows(A.dim, _distinct(*_sums(G, X, A.dim)), X.integer_form()[0] * A.scale)


def difference_set(A: LatticeSet, B: LatticeSet, G: Incidence) -> LatticeSet:
    """{a - b : (a, b) in G}."""
    _check(A, B)
    return LatticeSet._of_rows(A.dim, _distinct(*_differences(G, A.dim)), A.scale)


@dataclass(frozen=True)
class RatioReport:
    holds: bool
    achieved_exponent: Optional[float]
    size_A: int
    size_B: int
    sumset_sizes: tuple
    size_diff: int
    max_side: int


def _ratio_holds(n_diff: int, mx: int, p: int, q: int) -> bool:
    """n_diff <= mx^(2 - p/q), that is n_diff^q <= mx^r with r = 2q - p, decided exactly without building
    powers of a huge q; p/q in [0, 2] is in lowest terms, and 2 <= mx and n_diff <= mx^2 when n_diff >= 2."""
    r = 2 * q - p
    if n_diff <= 1:  # n_diff^q is n_diff, and mx^r >= 1 unless mx = 0 < r
        return n_diff <= min(mx, 1) ** r
    if n_diff == mx * mx:  # mx^(2q) <= mx^r only for p = 0; the logarithms would need about log10 q digits
        return p == 0
    if q < max(mx.bit_length(), 64):  # both powers have fewer than 2 max(bitlen(mx), 64) bitlen(mx) bits
        return n_diff**q <= mx**r
    # Equal powers would need n_diff = c^r and mx = c^q >= 2^q, as gcd(q, r) = gcd(q, p) = 1; here mx < 2^q
    return _log_less(n_diff, q, mx, r)


def _log_less(a: int, q: int, b: int, r: int) -> bool:
    """a^q < b^r for integers a, b >= 2 and q, r >= 1 whose powers differ, from the sign of
    x - y, x = q ln a and y = r ln b.  At P digits Decimal's ln and each product round correctly, so
    x and y are each within a relative 3u, u = 5 * 10^-P, of their values, and a computed |x - y| above
    10^(2-P) (x + y) has the exact sign.  x != y, so a doubling P decides."""
    P = 30
    while True:
        ctx = decimal.Context(prec=P, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
        x, y = ctx.multiply(ctx.ln(a), q), ctx.multiply(ctx.ln(b), r)
        gap = ctx.subtract(x, y)
        if ctx.abs(gap) > ctx.scaleb(ctx.add(x, y), 2 - P):
            return gap < 0
        P *= 2


def check_ratio(A: LatticeSet, B: LatticeSet, G: Incidence, Xs: Sequence[RationalMatrix],
                eps) -> RatioReport:
    """Test #(A-B) <= max(#A, #B, max_j #(A + X_j B))^(2 - eps), exactly.

    ``eps`` is an int, ``Fraction`` or ``"p/q"`` string in [0, 2]; anything else is a :class:`PreconditionViolation`.
    """
    try:
        e = rat(eps)
    except TypeError as err:
        raise PreconditionViolation(f"eps must be rational, not {eps!r}") from err
    if not 0 <= e <= 2:
        raise PreconditionViolation(f"eps must lie in [0, 2], got {e}")
    _check(A, B, *Xs)
    sum_sizes = tuple(_count(*_sums(G, X, A.dim)) for X in Xs)
    n_diff = _count(*_differences(G, A.dim))
    mx = max((A.size, B.size) + sum_sizes)
    if mx <= 1 and n_diff > 1:
        raise DegenerateInstance("max side is 1 but the difference set is larger")
    holds = _ratio_holds(n_diff, mx, e.numerator, e.denominator)
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
    if (M := _integer(M)) < 1:
        raise PreconditionViolation("M must be positive")
    d = X.dim
    col = next((i for i in range(d) if any(X[r, i] != 0 for r in range(d) if r != i)), None)
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
    non-zero coprime p_j/q_j, M > prod |p_i q_i|, and integer coordinates in v and w.
    """
    try:
        v, w = tuple(map(_integer, v)), tuple(map(_integer, w))
    except PreconditionViolation as e:
        raise PreconditionViolation(f"v and w must have integer coordinates: {e}") from None
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
    if (M := _integer(M)) <= prod_pq:
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

    ``identity_verified`` says whether the reconstruction identity held, in
    exact integer arithmetic, on every counted tuple; ``identities_checked``
    is the number of tuples checked, which equals ``count``.
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
    # keep the lexicographically least pair for each difference value: G's rows
    # are in that order and np.unique returns each key's first index
    if not G.size:
        return G
    keep = np.sort(np.unique(_keys(*_differences(G, G.a.shape[1])), return_index=True)[1])
    return Incidence._of_rows(G.a.take(keep, axis=0), G.b.take(keep, axis=0))


def _trapezia(G: Incidence, X: RationalMatrix, Z: RationalMatrix) -> tuple[int, bool, int, int]:
    """(trapezium count, identity holds, #(A + X B), #(A + Y B)) of a non-empty incidence, Y = X + I.

    The tuples are the triples (a, b0, b0') of pairs (a, b0), (a, b0') in G,
    taken in ordered pairs p, q within a side group of equal (a + Y b0, b0').
    For p = (a0, b0, b0') and q = (a1, b1, b1') the identity reads F_p == H_q
    with F = (I + X^-1)(a0 + X b0) - X^-1 (a0 + X b0') and H = a1 - b1' + Y b1,
    so it holds on a whole group iff all its F and H are one value.  Both are
    computed scaled by D^2, D the lcm of the denominators of X and Z = X^-1 (Y's are X's).
    """
    forms = [m.integer_form() for m in (X, Z)]
    D = math.lcm(*(L for L, _ in forms))
    XD, ZD = ([[v * (D // L) for v in r] for r in rows] for L, rows in forms)
    YD = [[v + D * (i == j) for j, v in enumerate(r)] for i, r in enumerate(XD)]  # D Y = D X + D I: bound only
    top = max(sum(map(abs, r)) for m in (XD, YD, ZD) for r in m)  # the largest row sum of |XD|, |YD|, |ZD|
    U = D * (G.peak_a + 1) + top * (G.peak_b + 1)  # bounds D (a + X b) and D (a + Y b)
    # |F| <= (D + 2 top) U and |H| <= D U + D^2 |b|, partial sums included
    a, b = _exact((D + 2 * top) * U + D * D * (G.peak_b + 1), G.a, G.b)
    XD, ZD = (np.array(m, dtype=a.dtype) for m in (XD, ZD))
    u = D * a + b @ XD.T  # D (a + X b)
    Q = u @ ZD.T          # D^2 X^-1 (a + X b)
    P = D * u + Q         # D^2 (I + X^-1)(a + X b)
    S = D * D * b
    R = D * u + S         # D^2 (a + Y b)

    # triples (i, j): rows i, j of G with a_i == a_j; each a is one run of G's sorted rows
    _, starts, run, m = np.unique(_keys(G.a, G.peak_a), return_index=True, return_inverse=True,
                                  return_counts=True)
    m = m[run]
    i = np.repeat(np.arange(len(a)), m)
    j = np.repeat(starts[run] - (np.cumsum(m) - m), m) + np.arange(len(i))

    y_rank = _ranks(R, D * U)  # of each a + Y b among the distinct ones
    side = y_rank[i] * len(a) + _ranks(G.b, G.peak_b)[j]
    _, first, group, sizes = np.unique(side, return_index=True, return_inverse=True, return_counts=True)
    F = P.take(i, axis=0) - Q.take(j, axis=0)
    H = R.take(i, axis=0) - S.take(j, axis=0)
    ref = F.take(first[group], axis=0)
    ok = bool((F == ref).all() and (H == ref).all())
    return int((sizes * sizes).sum()), ok, _count(u, U), int(y_rank.max()) + 1


def count_trapezia(
    A: LatticeSet,
    B: LatticeSet,
    G: Incidence,
    X: RationalMatrix,
    Y: RationalMatrix,
) -> TrapeziumReport:
    """Count ordered trapezia in G under the sum maps X and Y = X + I.

    A trapezium is an ordered 4-tuple ((a0,b0), (a0,b0'), (a1,b1), (a1,b1'))
    of incidences with a0 + Y b0 = a1 + Y b1 and b0' = b1'.  The incidence set
    is first thinned until distinct pairs give distinct differences.  Also
    checks the reconstruction identity
    a1 - b1' = (I + X^-1)(a0 + X b0) - X^-1 (a0 + X b0') - Y b1
    exactly on every counted tuple.
    """
    _check(A, B, X, Y)
    L, XL = X.integer_form()  # Y - X = I exactly when Y's integer form is (L, XL + L I)
    if Y.integer_form() != (L, tuple(tuple(x + L * (i == j) for j, x in enumerate(r)) for i, r in enumerate(XL))):
        raise PreconditionViolation("need Y - X = I")
    try:
        Z = X.inverse()
    except SingularMatrix:
        raise PreconditionViolation("X must be invertible") from None
    Gd = _discard_to_distinct_differences(G)
    count, identity_ok, sX, sY = _trapezia(Gd, X, Z) if Gd.size else (0, True, 0, 0)
    M = max(A.size, B.size, sX, sY)
    g = Gd.size
    lower = g**4 / M**4 if M else 0.0
    return TrapeziumReport(
        count=count,
        lower_bound=lower,
        upper_bound=M**3,
        identity_verified=identity_ok,
        g_size=g,
        max_side=M,
        identities_checked=count,
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
    omega_of = omega_map.mat_vec if isinstance(omega_map, RationalMatrix) else omega_map
    inv = 1 / delta
    if inv.denominator != 1:
        raise PreconditionViolation("delta must be the reciprocal of an integer (2^-k preferred)")
    pairs = []
    for y in directions:
        yv = [rat(c) for c in y]
        ppar = CurveParams(y=tuple(yv), omega=tuple(rat(c) for c in omega_of(yv)))
        a, b = (tuple(math.floor(c / delta + Fraction(1, 2)) for c in curve_point(family, ppar, t)[:-1])
                for t in (t0, t1))
        pairs.append((a, b))
    A = LatticeSet.of([a for a, _ in pairs], dim=family.n - 1, scale=int(inv))
    B = LatticeSet.of([b for _, b in pairs], dim=family.n - 1, scale=int(inv))
    return A, B, Incidence(pairs=frozenset(pairs))


# ------------------------------------------------------------ random instances

def random_instance(seed: int, dim: int = 2, box: int = 12,
                    max_size: int = 64) -> tuple[LatticeSet, LatticeSet, Incidence]:
    """Reproducible random instance: uniform points in a box, G by coin flips.

    One coin per (a, b) in lexicographic order of the distinct points, at one density drawn from [0.05, 1).
    """
    if (dim := _integer(dim)) < 1 or (box := _integer(box)) < 0 or (max_size := _integer(max_size)) < 1:
        raise PreconditionViolation(f"need dim >= 1, box >= 0 and max_size >= 1, got {dim, box, max_size}")
    rng = np.random.default_rng(seed)
    nA = int(rng.integers(1, max_size + 1))
    nB = int(rng.integers(1, max_size + 1))
    A = LatticeSet._of_rows(dim, _distinct(rng.integers(-box, box + 1, size=(nA, dim)), box))
    B = LatticeSet._of_rows(dim, _distinct(rng.integers(-box, box + 1, size=(nB, dim)), box))
    rho = float(rng.uniform(0.05, 1.0))
    ia, ib = np.divmod(np.flatnonzero(rng.random(A.size * B.size) < rho), B.size)
    if not len(ia):
        ia = ib = np.zeros(1, dtype=np.intp)
    return A, B, Incidence._of_rows(A.rows.take(ia, axis=0), B.rows.take(ib, axis=0))


# ----------------------------------------------------------------------- io

def instance_to_json(A: LatticeSet, B: LatticeSet, G: Incidence) -> dict:
    # G's rows are sorted by (a, b) and A, B's rows are sorted, so the index pairs come out sorted
    return {
        "dim": A.dim,
        "A": A.rows.tolist(),
        "B": B.rows.tolist(),
        "G": np.stack([_indices(A, G.a), _indices(B, G.b)], axis=1).tolist(),
    }


def instance_from_json(obj: dict) -> tuple[LatticeSet, LatticeSet, Incidence]:
    with reading_json("instance"):
        dim = _integer(obj["dim"])
        A, B, G = _rows(obj["A"], dim), _rows(obj["B"], dim), _rows(obj["G"], 2)
    for i, j in G.tolist():
        if not (0 <= i < len(A) and 0 <= j < len(B)):
            raise PreconditionViolation(f"G pair [{i}, {j}] does not index A ({len(A)}) and B ({len(B)})")
    return LatticeSet(dim, A), LatticeSet(dim, B), Incidence(pairs=zip(A[G[:, 0]], B[G[:, 1]]))


def load_instance(path: str) -> tuple[LatticeSet, LatticeSet, Incidence]:
    with open(path) as fh:
        return instance_from_json(json.load(fh))
