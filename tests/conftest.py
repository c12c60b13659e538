"""Shared helpers: independent re-implementations used as oracles."""

import itertools
import math
from collections import Counter
from fractions import Fraction as F

import numpy as np
import pytest

import kakeya_lab as kl


def float_X_of_lambda(Cf: np.ndarray, t0: float, t1: float, lam: float) -> np.ndarray:
    """X(lam) written out longhand, independent of the library path."""
    I = np.eye(Cf.shape[0])
    inner = np.linalg.inv(I + (t0 + t1) * Cf)
    M = (t1 - t0) * Cf @ inner
    return lam / (1 - lam) * np.linalg.inv(I + lam * M) @ (I - (1 - lam) * M)


def float_T(Cf: np.ndarray, t0: float, t1: float) -> np.ndarray:
    I = np.eye(Cf.shape[0])
    return (t0 / t1) * (I + t0 * Cf) @ np.linalg.inv(I + t1 * Cf)


def within_one_ulp_of_a_root(p: kl.Polynomial, x: float) -> bool:
    """p vanishes at x, or changes sign between the floats on either side of it, decided exactly."""
    lo, hi = (p(F(math.nextafter(x, d))) for d in (-math.inf, math.inf))
    return p(F(x)) == 0 or (lo > 0) != (hi > 0)


def rational_det_by_elimination(rows):
    """Fraction determinant via elimination; used to cross-check polynomial dets."""
    m = [list(map(F, r)) for r in rows]
    n = len(m)
    sign = 1
    det = F(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            return F(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            sign = -sign
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            for j in range(c, n):
                m[r][j] -= f * m[c][j]
    return sign * det


def reduced_ball_net(k: int, zero_axes, dim: int):
    """Lattice net of the unit ball restricted to a coordinate subspace."""
    delta = 2.0**-k
    r = int(1 / delta)
    free = [a for a in range(dim) if a not in zero_axes]
    vals = np.arange(-r, r + 1) * delta
    grids = np.stack(np.meshgrid(*([vals] * len(free)), indexing="ij"), axis=-1)
    grids = grids.reshape(-1, len(free))
    keep = (grids * grids).sum(axis=1) <= 1.0 + 1e-12
    out = []
    for g in grids[keep]:
        y = [0.0] * dim
        for a, v in zip(free, g):
            y[a] = v
        out.append(tuple(y))
    return out


def crossing_tube_pair(rng, family, delta, min_sep):
    """Two tubes whose curves meet at a common random point, directions min_sep apart."""
    Cf = family.C.to_float()
    while True:
        y1 = rng.uniform(-0.8, 0.8, 2)
        y2 = rng.uniform(-0.8, 0.8, 2)
        if np.linalg.norm(y1 - y2) >= min_sep:
            break
    tstar = rng.uniform(-0.8, 0.8)
    p = rng.uniform(-0.5, 0.5, 2)
    om1 = p + tstar * y1 + tstar**2 * (Cf @ y1)
    om2 = p + tstar * y2 + tstar**2 * (Cf @ y2)
    t1 = kl.TubeSpec(params=kl.CurveParams(y=tuple(y1), omega=tuple(om1)), delta=delta)
    t2 = kl.TubeSpec(params=kl.CurveParams(y=tuple(y2), omega=tuple(om2)), delta=delta)
    return t1, t2


def stamp_oracle(spec, k: int) -> Counter:
    """Cell (j_1, ..., j_d, band) -> number of tubes occupying it, by brute force.

    Per height band and per tube: the curve point at the band centre, in cell
    units u, occupies every cell of the padded box [-2^k-1, 2^k]^d whose centre
    j + 1/2 is within one cell of u.  Such cells have j in floor(u)-1 ..
    floor(u)+1 on each axis, so only those 3^d are tested; squared distances
    are summed axis by axis.
    """
    delta = 2.0**-k
    R = 2**k
    Cf = spec.family.C.to_float()
    d = Cf.shape[0]
    lo, hi = spec.t_range
    offsets = np.array(list(itertools.product((-1, 0, 1), repeat=d)))
    counts = Counter()
    for band in range(-R - 1, R + 1):
        t = (band + 0.5) * delta
        if not lo <= t <= hi:
            continue
        for tube in spec.tubes:
            y = np.array([float(v) for v in tube.params.y])
            w = np.array([float(v) for v in tube.params.omega])
            u = (w - t * y - t * t * (Cf @ y)) / delta
            j = np.floor(u).astype(np.int64) + offsets
            dist2 = np.zeros(len(j))
            for axis in range(d):
                dist2 = dist2 + (j[:, axis] + 0.5 - u[axis]) ** 2
            keep = (dist2 < 1.0) & ((j >= -R - 1) & (j <= R)).all(axis=1)
            counts.update(tuple(c) + (band,) for c in j[keep].tolist())
    return counts


def meet_oracle(spec) -> np.ndarray:
    """(tubes, tubes) bool meets of the hairbrush decomposition, pair by pair.

    Curves are sampled at H = max(257, ceil((hi - lo) / min delta) + 1) evenly
    spaced heights of the t-range.  Two tubes meet when the square root of the
    least squared distance over those heights, squared axis terms summed in
    axis order, is at most twice the larger delta.
    """
    tubes = list(spec.tubes)
    lo, hi = spec.t_range
    step = min(float(t.delta) for t in tubes)
    ts = np.linspace(lo, hi, max(257, math.ceil((hi - lo) / step) + 1))
    Cf = spec.family.C.to_float()

    def path(tube):  # (heights, n-1) curve points
        y = np.array([float(v) for v in tube.params.y])
        w = np.array([float(v) for v in tube.params.omega])
        return w - ts[:, None] * y - (ts * ts)[:, None] * (Cf @ y)

    tube_paths = np.array([path(t) for t in tubes]).reshape(len(tubes), len(ts), Cf.shape[0])
    tube_deltas = np.array([float(t.delta) for t in tubes])
    meets = []
    for c in tubes:  # one tube against every tube at once, pair by pair
        pc = path(c)
        sq = np.zeros(tube_paths.shape[:2])
        for axis in range(pc.shape[1]):
            sq = sq + (pc[None, :, axis] - tube_paths[:, :, axis]) ** 2
        meets.append(np.sqrt(sq.min(axis=1)) <= 2.0 * np.maximum(float(c.delta), tube_deltas))
    return np.array(meets).reshape(len(tubes), len(tubes))


def hairbrush_oracle(spec, N: int, meets=None) -> tuple:
    """(brushes, bad, centrals) of the greedy hairbrush decomposition over the
    meets of meet_oracle (or the given ones): the tube meeting the most
    remaining tubes (lowest index on ties) takes them as a brush while it meets
    at least N."""
    meets = meet_oracle(spec) if meets is None else meets
    remaining = set(range(meets.shape[1]))
    brushes, centrals = [], []
    while True:
        counts = meets[:, sorted(remaining)].sum(axis=1).tolist()
        best = counts.index(max(counts))
        if counts[best] < N:
            break
        members = tuple(sorted(i for i in remaining if meets[best][i]))
        brushes.append(members)
        centrals.append(best)
        remaining -= set(members)
    return tuple(brushes), tuple(sorted(remaining)), tuple(centrals)


def diameter_oracle(family, tube1, tube2) -> tuple:
    """(diameter, |y1 - y2|) of two equal-delta tubes, height by height.

    Centres omega - t*y - t^2*C*y are sampled at ceil(8/delta)+1 heights of
    [-1, 1].  At each height whose centres are closer than 2*delta, the lens
    cut from the two discs adds its two extreme points, found along the unit
    axis of the smallest |u| component of the centre direction u, minus its
    projection on u; coincident centres (closer than 1e-12) add the disc's 2*d
    axis points instead.  The diameter is the largest distance between all
    points, height included.
    """
    delta = float(tube1.delta)
    Cf = family.C.to_float()
    y1, y2 = (np.array([float(v) for v in t.params.y]) for t in (tube1, tube2))
    sep = float(np.linalg.norm(y1 - y2))
    ts = np.linspace(-1.0, 1.0, math.ceil(8.0 / delta) + 1)

    def path(tube, y):  # (heights, n-1) curve points
        w = np.array([float(v) for v in tube.params.omega])
        return w - ts[:, None] * y - (ts * ts)[:, None] * (Cf @ y)

    c1, c2 = path(tube1, y1), path(tube2, y2)
    d = c1.shape[1]
    pts = []
    for idx in range(len(ts)):
        diff = c2[idx] - c1[idx]
        g = math.sqrt(sum(x * x for x in diff))
        if g >= 2.0 * delta:
            continue
        mid, t = 0.5 * (c1[idx] + c2[idx]), ts[idx]
        if g > 1e-12:
            u = diff / g
            half = math.sqrt(max(delta * delta - 0.25 * g * g, 0.0))
            axis = int(np.argmin(np.abs(u)))
            perp = -u[axis] * u
            perp[axis] += 1.0
            perp /= math.sqrt(sum(x * x for x in perp))
            pts += [np.append(mid + half * perp, t), np.append(mid - half * perp, t)]
        else:
            for axis in range(d):
                e = np.zeros(d)
                e[axis] = delta
                pts += [np.append(mid + e, t), np.append(mid - e, t)]
    if not pts:
        return 0.0, sep
    P = np.array(pts)
    return float(np.sqrt(max(((P - p) ** 2).sum(axis=1).max() for p in P))), sep  # one row of pairs at a time


def sumset_oracle(pairs, X=None) -> set:
    """{a + X b : (a, b) in pairs}, or {a - b} when X is None, as tuples of Fractions in plain Python sets."""
    if X is None:
        return {tuple(F(x) - y for x, y in zip(a, b)) for a, b in pairs}
    return {tuple(F(x) + sum(e * y for e, y in zip(row, b)) for x, row in zip(a, X.rows)) for a, b in pairs}


def trapezium_oracle(pairs, Y) -> int:
    """Ordered trapezia ((a0,b0), (a0,b0'), (a1,b1), (a1,b1')) with a0 + Y b0 = a1 + Y b1, b0' = b1',
    by the literal quadruple loop over the (already thinned) pairs."""
    pairs = sorted(pairs)

    def ykey(a, b):
        return tuple(F(x) + v for x, v in zip(a, Y.mat_vec(b)))

    count = 0
    for (a0, b0) in pairs:
        for (a0p, b0p) in pairs:
            if a0p != a0:
                continue
            for (a1, b1) in pairs:
                if ykey(a0, b0) != ykey(a1, b1):
                    continue
                for (a1p, b1p) in pairs:
                    if a1p == a1 and b1p == b0p:
                        count += 1
    return count


@pytest.fixture
def worst_case_matrix():
    return kl.companion([0, 0])
