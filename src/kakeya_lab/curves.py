"""Parabolic curve families, their tubes, intersections and the two-curve locus.

A family is determined by a square matrix C of size n-1; the curve with
direction y and centre omega is t -> (omega - t*y - t^2*C*y, t) for t in
[-1, 1].  Tubes thicken curves by a radius delta in every horizontal slice.

Numbers are read by the readers in exact: a scalar by _number (an int or
Fraction exactly, any other number as its float) and the tube arrays by
_float_rows.  Each call reads its scalars in one pass: _numbers for the points
and tangents, which are exact for exact input and Python floats when any input
is a float, and _exact for intersection heights and the locus, which are
computed exactly for any input, a float taken as the dyadic rational it is, and
rounded to floats only for float input.  The locus has one exact core, _locus,
giving the curve (y, omega) through (u, s): locus_point is curve_point on that
curve, and the locus dichotomy takes its samples from _locus and decides its
flags exactly, with no tolerance.  Tube centres are sampled in floats by
_centres; the claim check samples its three tubes with one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import (
    ConfigurationViolation,
    HeightOutOfSupport,
    IdenticalCurves,
    PreconditionViolation,
    ResolutionTooFine,
    SingularConfiguration,
    reading_json,
)
from .exact import RationalMatrix, _float_rows, _integer, _number

_SLAB = 2**15  # float64 elements of _centres' scratch: 256 KB, a slab that stays in cache
MAX_K = 12  # the finest supported resolution is delta = 2^-MAX_K, for grids and height samples alike
CELL_BUDGET = 2**30  # the most cells a grid, or pair distances a diameter, may take
_DYADIC_INDICES = (-1, 1074)  # a claim-check index i scales by 2^-i: below 2 (|y| <= 1, |t| <= 1), above 2^-1074

Vector = tuple


def _exact(*groups: Sequence) -> tuple[list, bool]:
    """Each group of numbers read by _number, as a list of the exact rationals they are (a float is
    dyadic), and whether every number was an int or a Fraction."""
    read = [[_number(v) for v in g] for g in groups]
    return [[Fraction(v) for v in g] for g in read], all(isinstance(v, Fraction) for g in read for v in g)


def _floats(v: Sequence) -> tuple:
    """The values as floats; one past the float range raises PreconditionViolation."""
    try:
        return tuple(float(x) for x in v)
    except OverflowError:
        raise PreconditionViolation("a value past the float range") from None


def _numbers(*values) -> list:
    """The values read by _number: Fractions, or all floats when any of them is a float."""
    out = [_number(v) for v in values]
    return out if all(isinstance(v, Fraction) for v in out) else list(_floats(out))


@dataclass(frozen=True)
class CurveParams:
    """Direction y and centre omega, both in the unit ball of R^{n-1}."""

    y: Vector
    omega: Vector

    def __post_init__(self):
        object.__setattr__(self, "y", tuple(self.y))
        object.__setattr__(self, "omega", tuple(self.omega))
        if len(self.y) != len(self.omega):
            raise ValueError("y and omega must have equal length")


@dataclass(frozen=True)
class TubeSpec:
    """A delta-thickened curve; cross-sections are (n-1)-balls of radius delta."""

    params: CurveParams
    delta: float

    def __post_init__(self):
        if not 0 < _number(self.delta) < 1:
            raise ValueError("delta must lie in (0, 1)")


@dataclass(frozen=True)
class CurveFamily:
    """All curves sharing the quadratic coefficient matrix C (ambient dimension n)."""

    n: int
    C: RationalMatrix
    _cf: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "n", _integer(self.n, 3, 9, "the ambient dimension n (between 3 and 9)"))
        if self.C.dim != self.n - 1:
            raise ValueError("C must have size n-1")
        object.__setattr__(self, "_cf", self.C.to_float())

    @property
    def nondegenerate(self) -> bool:
        """Whether the direction-derivative determinant avoids zero on the support."""
        from .slices import check_nondegenerate

        return check_nondegenerate(self.C)

    def to_json(self) -> dict:
        return {"n": self.n, "C": self.C.to_json()}

    @classmethod
    def from_json(cls, obj: dict) -> "CurveFamily":
        with reading_json("curve family"):
            return cls(n=obj["n"], C=RationalMatrix.from_json(obj["C"]))


def _param_arrays(params: Sequence[CurveParams]) -> tuple[np.ndarray, np.ndarray]:
    """Float (curves, n-1) arrays of the directions y and the centres omega, read by _float_rows."""
    d = len(params[0].y)
    return _float_rows([p.y for p in params], d), _float_rows([p.omega for p in params], d)


def _centres(family: CurveFamily, Y: np.ndarray, W: np.ndarray, ts: np.ndarray,
             CY: Optional[np.ndarray] = None) -> np.ndarray:
    """omega - t*y - t^2*C*y for direction rows Y and centre rows W at finite heights ts, axis-major:
    shape (n-1, curves, heights), one contiguous plane per axis.  The one vectorised copy of the curve
    formula; curve_point and curve_tangent evaluate it on scalars.  CY holds the products C y as
    (n-1, curves) rows, ``family._cf @ Y.T`` when not given.  Each plane is built in place; its t^2*C*y
    term is formed a cache-sized slab of rows at a time, and skipped on an axis whose C y row is all
    +0.0, where it would change no bit (t^2 * +0.0 is +0.0, and x - +0.0 is x for every x, -0.0 included)."""
    if CY is None:
        CY = family._cf @ Y.T
    out = np.empty((Y.shape[1], len(Y), len(ts)))
    tt = ts * ts
    rows = max(1, _SLAB // max(1, len(ts)))
    slab = np.empty((min(rows, len(Y)), len(ts)))
    for plane, w, y, cy in zip(out, W.T, Y.T, CY):
        np.subtract(w[:, None], np.multiply(ts, y[:, None], out=plane), out=plane)
        if cy.view(np.uint64).any():
            for r in range(0, len(plane), rows):
                part = plane[r:r + rows]
                part -= np.multiply(tt, cy[r:r + rows, None], out=slab[:len(part)])
    return out


def _pair_norms(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(r, w) Euclidean norms of a[:, i] - b[:, j] for axis-major a (d, r) and b (d, w), the squared
    axis terms summed in axis order (as ``np.sum`` over an axis of fewer than 8 does)."""
    sq, term = np.zeros((a.shape[1], b.shape[1])), np.empty((a.shape[1], b.shape[1]))
    for x, y in zip(a, b):
        sq += np.square(np.subtract(x[:, None], y, out=term), out=term)
    return np.sqrt(sq, out=sq)


def _check_height(t):
    if not -1 <= t <= 1:
        raise HeightOutOfSupport(f"t = {t} outside [-1, 1]")


def curve_point(family: CurveFamily, params: CurveParams, t) -> tuple:
    """The point (omega - t*y - t^2*C*y, t): Fractions for int and Fraction input, Python floats when
    any input is a float (see _numbers)."""
    d = len(params.y)
    t, *v = _numbers(t, *params.y, *params.omega)
    _check_height(t)
    y, omega = v[:d], v[d:]
    return tuple(w - t * u - t * t * c for w, u, c in zip(omega, y, family.C.mat_vec(y))) + (t,)


def curve_tangent(family: CurveFamily, params: CurveParams, t) -> tuple:
    """The tangent (-y - 2t*C*y, 1), read as :func:`curve_point` reads; the last component is exactly 1."""
    t, *y = _numbers(t, *params.y)
    _check_height(t)
    return tuple(-u - 2 * t * c for u, c in zip(y, family.C.mat_vec(y))) + (type(t)(1),)


def _exact_sqrt(x: Fraction) -> Optional[Fraction]:
    if x < 0:
        return None
    pn, pd = math.isqrt(x.numerator), math.isqrt(x.denominator)
    if pn * pn == x.numerator and pd * pd == x.denominator:
        return Fraction(pn, pd)
    return None


def _sqrt_le(s: int, disc: Fraction, x: Fraction) -> bool:
    """Whether s * sqrt(disc) <= x, exactly, for s = +-1 and disc >= 0 not a rational square."""
    if s > 0:
        return x >= 0 and disc <= x * x
    return x >= 0 or disc >= x * x


def intersect_curves(family: CurveFamily, p1: CurveParams, p2: CurveParams) -> list:
    """Heights t in [-1, 1] at which the two curves meet.

    Solves (t*I + t^2*C)(y1 - y2) = omega1 - omega2 in exact arithmetic, a float
    input taken as the dyadic rational it is: on the first component with a
    non-trivial coefficient, then every component is checked exactly.  Exact
    inputs give exact heights when the discriminant is a rational square and
    floats otherwise; float inputs give float heights.  Only the square root of
    a non-square discriminant is taken in floats, after the root has been
    verified and placed in [-1, 1] exactly.
    """
    (y1, w1, y2, w2), exact = _exact(p1.y, p1.omega, p2.y, p2.omega)
    dy = [a - b for a, b in zip(y1, y2, strict=True)]  # curves of two lengths raise ValueError
    dw = [a - b for a, b in zip(w1, w2, strict=True)]
    if not any(dy) and not any(dw):
        raise IdenticalCurves("curve parameters coincide")
    cdy = family.C.mat_vec(dy)
    comp = next((i for i in range(len(dy)) if dy[i] != 0 or cdy[i] != 0), None)
    if comp is None:
        # identical direction: parallel curves meet nowhere (or everywhere,
        # which the parameter check above already excluded)
        return []
    a, b, c = cdy[comp], dy[comp], dw[comp]  # a t^2 + b t = c
    if a < 0:
        a, b, c = -a, -b, -c
    disc = b * b + 4 * a * c
    sq = None if a == 0 else _exact_sqrt(disc)
    if a == 0 or sq is not None:
        roots = [c / b] if a == 0 else [(-b + s * sq) / (2 * a) for s in (1, -1)]
        out = [t for t in roots
               if -1 <= t <= 1 and all(t * u + t * t * v == w for u, v, w in zip(dy, cdy, dw))]
    elif disc < 0:
        return []
    else:
        # An irrational root has minimal polynomial a t^2 + b t - c, so it solves another
        # component exactly when that component's coefficients are proportional to (a, b, c).
        # It lies in [-1, 1] when b - 2a <= s sqrt(disc) <= b + 2a.  Its float value is taken
        # from whichever of the two root formulas does not cancel.
        if any(v * b != u * a or v * c != w * a for u, v, w in zip(dy, cdy, dw)):
            return []
        r = math.sqrt(float(disc))
        out = [(-float(b) + s * r) / (2 * float(a)) if s * b <= 0 else 2 * float(c) / (float(b) + s * r)
               for s in (1, -1) if _sqrt_le(s, disc, b + 2 * a) and _sqrt_le(-s, disc, 2 * a - b)]
    return sorted({t if exact else float(t) for t in out})


def intersection_diameter(family: CurveFamily, tube1: TubeSpec, tube2: TubeSpec) -> tuple[float, float]:
    """Measured diameter of the intersection of two tubes, plus |y1 - y2|.

    Heights are sampled at step delta/4, ceil(8 / delta) + 1 of them (a delta
    below 2^-MAX_K raises :class:`ResolutionTooFine` before any is sampled);
    each slice is the lens cut from two radius-delta discs, represented by its
    extreme points, all slices at once; past sqrt(CELL_BUDGET) points,
    :class:`ResolutionTooFine` before any pair.  Returns (0.0, separation) when
    the tubes are disjoint.
    """
    if float(tube1.delta) != float(tube2.delta):
        raise ConfigurationViolation("tubes must share delta")
    delta = float(tube1.delta)
    Y, W = _param_arrays([tube1.params, tube2.params])
    sep = float(np.linalg.norm(Y[0] - Y[1]))
    ts = np.linspace(-1.0, 1.0, _height_samples(8.0, delta))
    c1, c2 = _centres(family, Y, W, ts).transpose(1, 2, 0)
    diff = c2 - c1
    dist = np.linalg.norm(diff, axis=1)
    on = dist < 2.0 * delta
    if not on.any():
        return 0.0, sep
    mid, diff, g, t = 0.5 * (c1[on] + c2[on]), diff[on], dist[on], ts[on]
    lens = g > 1e-12
    u = diff[lens] / g[lens, None]
    half = np.sqrt(np.maximum(delta * delta - 0.25 * g[lens] ** 2, 0.0))[:, None]
    # one perpendicular direction suffices for the extreme points: the unit axis of the
    # smallest |u| component, minus its projection on u (its norm is at least sqrt(1 - 1/d))
    rows, axis = np.arange(len(u)), np.argmin(np.abs(u), axis=1)
    perp = -u[rows, axis][:, None] * u
    perp[rows, axis] += 1.0
    perp /= np.linalg.norm(perp, axis=1)[:, None]
    d = c1.shape[1]
    disc = delta * np.concatenate([np.eye(d), -np.eye(d)])  # coincident centres: the disc's axis points
    pts = [mid[lens] + half * perp, mid[lens] - half * perp] + [mid[~lens] + e for e in disc]
    heights = [t[lens]] * 2 + [t[~lens]] * len(disc)
    P = np.vstack([np.concatenate(pts).T, np.concatenate(heights)])  # axis-major (d + 1, points)
    if P.shape[1] ** 2 > CELL_BUDGET:
        raise ResolutionTooFine(f"{P.shape[1]} lens points: their pair distances exceed the budget {CELL_BUDGET}")
    # max pairwise distance, in blocks of about 2^20 pairs to bound memory
    best, rows = 0.0, max(1, 2**20 // P.shape[1])
    for i in range(0, P.shape[1], rows):
        best = max(best, float(_pair_norms(P[:, i:i + rows], P).max()))
    return best, sep


# ----------------------------------------------------------------------- locus

def _one_plus(C: RationalMatrix, x: Fraction, v: Sequence) -> list:
    """(I + x*C) v"""
    return [a + x * c for a, c in zip(v, C.mat_vec(v))]


def _locus(C: RationalMatrix, y0: Sequence, t0, u, s) -> tuple[list, list]:
    """The exact direction y = a w and centre omega = s a (I + sC) w of the locus curve through (u, s), for
    w = (I + (s+u)C)^-1 (I + (t0+u)C) y0 and a = (t0 - u)/(s - u)."""
    if s == u:
        raise SingularConfiguration("s = u")
    w = (RationalMatrix.identity(C.dim) + (s + u) * C).inverse().mat_vec(_one_plus(C, t0 + u, y0))
    a = (t0 - u) / (s - u)
    return [a * x for x in w], [s * a * x for x in _one_plus(C, s, w)]


def locus_curve_params(family: CurveFamily, y0: Sequence, t0, u, s) -> tuple[tuple, tuple]:
    """Direction and centre of the curve meeting the axis curve at s and the
    (y0, t0)-curve at u, as functions of the free parameters (u, s).

    Computed exactly, a float input taken as the dyadic rational it is; any
    float input gives the exact results rounded to floats."""
    (y0, (t0, u, s)), exact = _exact(y0, (t0, u, s))
    y, omega = _locus(family.C, y0, t0, u, s)
    return (tuple(y), tuple(omega)) if exact else (_floats(y), _floats(omega))


def locus_point(family: CurveFamily, y0: Sequence, t0, u, s, t) -> tuple:
    """Point at height t of the locus curve through (u, s): :func:`curve_point` of that curve (so t outside
    [-1, 1] raises :class:`HeightOutOfSupport`), exact as :func:`locus_curve_params` is."""
    (y0, (t0, u, s, t)), exact = _exact(y0, (t0, u, s, t))
    pt = curve_point(family, CurveParams(*_locus(family.C, y0, t0, u, s)), t)
    return pt if exact else _floats(pt)


def _rel_residual_to_line(points: np.ndarray, direction: np.ndarray) -> np.ndarray:
    u = direction / np.linalg.norm(direction)
    res = points - np.outer(points @ u, u)
    return np.linalg.norm(res, axis=1) / np.maximum(np.linalg.norm(points, axis=1), 1e-300)


def _minimax_line_residual(points: np.ndarray) -> float:
    """min over lines through 0 of the max relative distance of the nonzero points.

    Exact in 2-d: a point at angle a lies |sin(a - b)| (relative) from the line
    at angle b, so the best line bisects the shortest arc mod pi holding every
    angle, of length w = pi less the largest gap between the sorted angles mod
    pi, and the value is sin(w/2).  Above 2-d the best-fit (SVD) direction
    gives an upper bound."""
    if points.shape[1] == 2:
        a = np.sort(np.mod(np.arctan2(points[:, 1], points[:, 0]), math.pi))
        gap = max(float(np.diff(a).max(initial=0.0)), a[0] + math.pi - a[-1])
        return math.sin((math.pi - gap) / 2)
    return float(_rel_residual_to_line(points, np.linalg.svd(points, full_matrices=False)[2][0]).max())


def _parallel(a: Sequence, b: Sequence) -> bool:
    """Whether every 2x2 minor of the rows a and b is zero."""
    return all(a[i] * b[j] == a[j] * b[i] for i in range(len(a)) for j in range(i + 1, len(a)))


@dataclass(frozen=True)
class LocusDichotomy:
    omega_one_param: bool
    y_one_param: bool
    max_line_residual: float
    omega_offline_witness: float  # min over all lines of the max relative residual (an upper bound above 2-d)
    samples: int


def locus_dichotomy_test(
    family: CurveFamily,
    y0: Sequence,
    t0,
    trials: int = 200,
    seed: int = 0,
) -> LocusDichotomy:
    """Sample (u, s) pairs and decide whether the locus centres and directions
    are confined to one line.

    Each sample, y0 and t0 are taken as the exact rationals they are (a float
    is dyadic), and both flags are decided exactly: the centres lie on the
    predicted line span{(I + t0*C) y0} when every 2x2 minor of each omega
    against it is zero, and the directions lie on one line when every y is
    parallel to the first.  ``max_line_residual`` is the largest relative
    distance of the float centres from the predicted line (1.0 when that line
    is {0}), and ``omega_offline_witness`` their :func:`_minimax_line_residual`.
    A sample is dropped only when its centre or direction is exactly zero, so no sample
    depends on the scale of y0.  The samples are linear in y0, which is first scaled by the
    power of two that puts its largest |coordinate| in [1/2, 1): the flags and samples do not
    move, and the float centres stay in range at any scale of y0.
    Raises :class:`PreconditionViolation` for y0 = 0.
    """
    trials = _integer(trials, 100, name="trials (a locus test takes 100 trials or more)")
    rng = np.random.default_rng(_integer(seed, 0, name="seed"))
    (y0, (t0,)), _ = _exact(y0, (t0,))
    if not any(y0):
        raise PreconditionViolation("y0 = 0: every locus centre and direction is 0")
    top = max(map(abs, y0))  # top = a/b lies in (2^(e-1), 2^(e+1)) for e = bitlen(a) - bitlen(b)
    e = top.numerator.bit_length() - top.denominator.bit_length()
    e += top >= Fraction(2) ** e  # now 2^(e-1) <= top < 2^e
    y0 = [v / Fraction(2) ** e for v in y0]
    t0f = float(t0)
    omegas, ys = [], []
    attempts = 0
    while len(omegas) < trials and attempts < 50 * trials:
        attempts += 1
        u, s = rng.uniform(-1.0, 1.0, size=2)
        if abs(s - u) < 0.05 or abs(s - t0f) < 0.05 or abs(u - t0f) < 0.05 or abs(s) < 0.025:
            continue
        y, omega = _locus(family.C, y0, t0, Fraction(u), Fraction(s))
        if not any(omega) or not any(y):
            continue
        omegas.append(omega)
        ys.append(y)
    line = _one_plus(family.C, t0, y0)
    O = np.array(omegas, dtype=float)
    return LocusDichotomy(
        omega_one_param=any(line) and all(_parallel(w, line) for w in omegas),
        y_one_param=all(_parallel(y, ys[0]) for y in ys),
        # a kept centre is nonzero, so it lies at relative distance 1 from the line {0}
        max_line_residual=float(_rel_residual_to_line(O, np.array(line, dtype=float)).max()) if any(line) else 1.0,
        omega_offline_witness=_minimax_line_residual(O),
        samples=len(omegas),
    )


# ------------------------------------------------------------------ claim check

@dataclass(frozen=True)
class ClaimReport:
    dist_centres: float
    dist_to_line: float
    k_centres: float  # dist_centres / 2^{-l}
    k_line: float     # dist_to_line / 2^{-(l+m)}
    passed: bool
    meet_heights: tuple[float, float, float]  # (t_j, t_i, s)


def _height_samples(per_unit: float, delta: float) -> int:
    """ceil(per_unit / delta) + 1 heights; :class:`ResolutionTooFine` past their count at delta = 2^-MAX_K."""
    if delta < 2.0**-MAX_K:
        raise ResolutionTooFine(f"delta = {delta:.3g} is below 2^-{MAX_K}, the finest supported resolution")
    return math.ceil(per_unit / delta) + 1


def hairbrush_claim_check(
    family: CurveFamily,
    central: TubeSpec,
    tube_j: TubeSpec,
    tube_i: TubeSpec,
    k: int,
    l: int,
    m: int,
    K: float = 16.0,
) -> ClaimReport:
    """Check the two quantitative hairbrush distance bounds on one tube triple.

    Requires C^2 = 0, the central tube normalised to direction 0 / centre 0,
    and the dyadic direction and meeting-height preconditions indexed by
    (k, l, m).  Reports |omega_j - omega_i|, the distance of omega_i from the
    line span{(I + t_j C) y_j}, the fitted constants, and whether both are
    within K times their dyadic bounds.  k, l and m lie in _DYADIC_INDICES.
    The three tubes are sampled once, at ceil(16 / delta) + 1 heights (a delta below
    2^-MAX_K raises :class:`ResolutionTooFine` first): each meeting is the least sampled
    distance of its pair, the i-j one among the heights inside the window.
    """
    k, l, m = (_integer(i, *_DYADIC_INDICES, name) for i, name in ((k, "k"), (l, "l"), (m, "m")))
    K = _number(K)
    C = family.C
    if not (C * C).is_zero():
        raise ConfigurationViolation("claim check requires C^2 = 0")
    Y, W = _param_arrays([central.params, tube_j.params, tube_i.params])
    if Y[0].any() or W[0].any():
        raise ConfigurationViolation("central tube must be normalised to T_0(0)")
    deltas = {float(central.delta), float(tube_j.delta), float(tube_i.delta)}
    if len(deltas) != 1:
        raise ConfigurationViolation("all three tubes must share delta")
    delta = deltas.pop()

    yj, yi = Y[1], Y[2]
    for name, v, idx in (("y_j", yj, k), ("y_i", yi, k), ("y_j - y_i", yj - yi, l)):
        r = float(np.linalg.norm(v))
        if not 2.0 ** (-idx - 1) < r <= 2.0 ** (-idx):
            raise ConfigurationViolation(f"|{name}| = {r:.4g} outside dyadic shell 2^-{idx}")

    # the three curves at every height: the distances of j and i from the central curve, and of i from j
    ts = np.linspace(-1.0, 1.0, _height_samples(16.0, delta))
    c = _centres(family, Y, W, ts)
    dj, di, dij = (np.linalg.norm(c[:, a] - c[:, b], axis=0) for a, b in ((1, 0), (2, 0), (2, 1)))
    t_j, t_i = (float(ts[np.argmin(dist)]) for dist in (dj, di))
    if max(dj.min(), di.min()) > 2.0 * delta:
        raise ConfigurationViolation("tube_j and tube_i must both meet the central tube")
    # the i-j meeting is sought inside the prescribed dyadic distance window [lo, 2 lo]; heights in [-1, 1] are
    # at most 2 apart, and lo = delta 2^(l+m) > 2 once l + m > 2 - e for delta = f 2^e, f in [1/2, 1)
    lo = math.ldexp(delta, l + m) if l + m <= 2 - math.frexp(delta)[1] else math.inf  # 2 lo < 8: no overflow
    gap = np.abs(ts - t_j)
    dij[(gap < lo) | (gap > 2 * lo)] = np.inf
    if dij.min() > 2.0 * delta:
        raise ConfigurationViolation(
            "tubes i and j do not meet at any height with |s - t_j| in "
            "[delta*2^(l+m), delta*2^(l+m+1)]")
    s = float(ts[np.argmin(dij)])

    wj, wi = W[1], W[2]
    dist_centres = float(np.linalg.norm(wj - wi))
    line = (np.eye(C.dim) + t_j * family._cf) @ yj
    u = line / np.linalg.norm(line)
    dist_to_line = float(np.linalg.norm(wi - np.dot(wi, u) * u))
    k_centres = dist_centres / 2.0 ** (-l)
    k_line = dist_to_line / 2.0 ** (-(l + m))
    return ClaimReport(
        dist_centres=dist_centres,
        dist_to_line=dist_to_line,
        k_centres=k_centres,
        k_line=k_line,
        passed=(k_centres <= K and k_line <= K),
        meet_heights=(t_j, t_i, s),
    )


# ------------------------------------------------------------------------- io

def tubes_to_json(tubes: Sequence[TubeSpec]) -> list:
    """Tubes as JSON, each coordinate read by _float_rows."""
    return [{"y": Y[0].tolist(), "omega": W[0].tolist(), "delta": float(t.delta)}
            for t in tubes for Y, W in [_param_arrays([t.params])]]


def tubes_from_json(obj: list) -> list[TubeSpec]:
    """Tubes from parsed JSON: each coordinate read by _number, and delta by TubeSpec."""
    with reading_json("tube list"):
        return [TubeSpec(params=CurveParams(y=map(_number, d["y"]), omega=map(_number, d["omega"])), delta=d["delta"])
                for d in obj]
