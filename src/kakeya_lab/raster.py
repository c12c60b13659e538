"""Voxel rasterization of tube families, union volumes and box-counting slopes.

Cells are indexed by integer coordinates: cell j covers [j*delta, (j+1)*delta)
per axis, with delta = 2^-k, inside [-1,1]^n padded by one cell.  A cell is
occupied when its centre lies within delta of a curve point sampled at the
cell's height band.  Scaling claims downstream are slope-based, so stamping
constants are not chased.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .curves import CELL_BUDGET, MAX_K, CurveFamily, CurveParams, TubeSpec, _centres, _height_samples, _pair_norms
from .errors import PreconditionViolation, ResolutionTooFine
from .exact import RationalMatrix, _float_rows, _rows
from .slices import vanishing_order, w_matrix
from .sumsets import _distinct as _distinct_rows

_BLOCK_ROWS = 2**14  # (tube, band or height) rows per pass of the stamping and meet loops; bounds their memory


class CellSet:
    """Occupied cells of the delta-dyadic grid at resolution exponent k.

    ``cells`` holds the distinct cells as (cells, n) int64 rows in
    lexicographic order, as ``LatticeSet.rows`` does, read as its points are (a
    coordinate past int64 raises ``OverflowError``); ``occupied`` builds the
    same set as a frozenset of tuples on each access and does not keep it.
    """

    __slots__ = ("n", "k", "cells")

    def __init__(self, n: int, k: int, occupied: Iterable):
        self.n, self.k, self.cells = n, k, _distinct_rows(_rows(occupied, n).astype(np.int64, copy=False))
        self.cells.flags.writeable = False

    @classmethod
    def _of_rows(cls, n: int, k: int, cells: np.ndarray) -> "CellSet":
        """A cell set from rows that are already distinct and lexicographically sorted."""
        out = cls.__new__(cls)
        out.n, out.k, out.cells = n, k, cells
        cells.flags.writeable = False
        return out

    @property
    def occupied(self) -> frozenset:
        return frozenset(map(tuple, self.cells.tolist()))

    @property
    def delta(self) -> float:
        return 2.0 ** (-self.k)

    @property
    def cell_count(self) -> int:
        return len(self.cells)

    def volume(self) -> float:
        return self.delta**self.n * len(self.cells)

    def __eq__(self, other):
        return isinstance(other, CellSet) and (self.n, self.k) == (other.n, other.k) and np.array_equal(
            self.cells, other.cells)

    def __hash__(self):
        return hash((self.n, self.k, self.cells.tobytes()))

    def __repr__(self):
        return f"CellSet(n={self.n}, k={self.k}, cell_count={self.cell_count})"

    def to_json(self) -> dict:
        return {"n": self.n, "k": self.k, "cells": self.cells.tolist()}

    @classmethod
    def from_json(cls, obj: dict) -> "CellSet":
        return cls(n=obj["n"], k=obj["k"], occupied=obj["cells"])


class TubeFamilySpec:
    """A curve family, its tubes and the height interval in play.

    The tubes are held as columns: ``Y`` (directions) and ``W`` (centres
    omega) are (tubes, n-1) float64 arrays and ``delta`` the (tubes,)
    thicknesses.  Build it from ``tubes`` (a sequence of :class:`TubeSpec`)
    or from ``Y``, ``W`` and ``delta`` (a scalar applies to every tube);
    ``tubes`` builds float :class:`TubeSpec` objects on each access and does
    not keep them.
    """

    __slots__ = ("family", "Y", "W", "delta", "t_range")

    def __init__(self, family: CurveFamily, tubes: Optional[Sequence[TubeSpec]] = None,
                 t_range: tuple[float, float] = (-1.0, 1.0), *, Y=None, W=None, delta=None):
        if (tubes is None) == (Y is None):
            raise ValueError("pass either tubes or the arrays Y, W and delta")
        if tubes is not None:
            tubes = list(tubes)
            Y, W, delta = [t.params.y for t in tubes], [t.params.omega for t in tubes], [t.delta for t in tubes]
        d = family.n - 1
        Y, W = _float_rows(Y, d), _float_rows(W, d)
        if W.shape != Y.shape:
            raise ValueError("Y and W must hold one row per tube")
        delta = np.array(np.broadcast_to(_float_rows(delta), len(Y)))
        if not ((delta > 0) & (delta < 1)).all():  # NaN fails both comparisons
            raise ValueError("delta must lie in (0, 1)")
        lo, hi = t_range
        if not (-1.0 <= lo < hi <= 1.0):
            raise ValueError("t_range must be a sub-interval of [-1, 1]")
        for a in (Y, W, delta):
            a.flags.writeable = False
        self.family, self.Y, self.W, self.delta, self.t_range = family, Y, W, delta, t_range

    @property
    def tubes(self) -> tuple:
        return tuple(TubeSpec(params=CurveParams(y=tuple(y), omega=tuple(w)), delta=dt)
                     for y, w, dt in zip(self.Y.tolist(), self.W.tolist(), self.delta.tolist()))

    def __repr__(self):
        return f"TubeFamilySpec(n={self.family.n}, tubes={len(self.Y)}, t_range={self.t_range})"


def _band_indices(k: int, t_range) -> np.ndarray:
    if k > MAX_K:  # the one check, before any band is allocated
        raise ResolutionTooFine(f"k = {k} exceeds the supported maximum {MAX_K}")
    lo = max(-1.0, float(t_range[0]))
    hi = min(1.0, float(t_range[1]))
    delta = 2.0**-k
    bands = np.arange(-(2**k) - 1, 2**k + 1, dtype=np.int64)
    centres = (bands + 0.5) * delta
    return bands[(centres >= lo) & (centres <= hi)]


def _symmetries(C: RationalMatrix, YR: np.ndarray, WR: np.ndarray, CY: np.ndarray, bands: np.ndarray):
    """(tubes, paired, flip): stamp the tubes ``tubes`` (indices, or all); the first ``paired``
    of them stand also for their central mirrors (-y, -omega, -C y).  ``flip`` lists the axes
    with D_a = -1 when C D = -D C for a sign vector D, the bands are symmetric and the tubes
    are invariant under (y, omega, C y) -> (-D y, D omega, D C y); only bands b >= 0 are then
    stamped.  Both checks compare the arrays the kernel stamps from exactly, a column at a time;
    delta is not among them, as every tube is stamped at 2^-k."""
    cols, tubes, paired, flip = [*YR.T, *WR.T, *CY], slice(None), 0, None
    order = np.lexsort(cols)  # negating every column reverses a lexicographic order: pair by rank
    if all(np.array_equal(c := col[order], np.negative(c[::-1])) for col in cols):
        tubes, paired = order[:(len(YR) + 1) // 2], len(YR) // 2  # an odd middle tube is its own mirror
    # D_i = -D_j for every nonzero C_ij (a 2-colouring of C's nonzero rationals), the first in (+1, -1) order
    D = next((np.array(D) for D in itertools.product((1, -1), repeat=len(CY)) if all(
        D[i] == -D[j] for i, row in enumerate(C.rows) for j, c in enumerate(row) if c)), None)
    if D is not None and np.array_equal(bands, -1 - bands[::-1]):
        for a, s in ((YR, -D), (WR, D), (CY.T, D)):  # the images, in place on _stamp's own copies
            a *= s
        image = np.lexsort(cols)  # the images (-D y, D omega, D C y) of the tubes, sorted
        for a, s in ((YR, -D), (WR, D), (CY.T, D)):  # and back, bit for bit
            a *= s
        if all(np.array_equal(col[order], col[image] * s) for col, s in zip(cols, np.concatenate([-D, D, D]))):
            flip = np.flatnonzero(D < 0).tolist()
    return tubes, paired, flip


def _stamp(spec: TubeFamilySpec, k: int):
    """Yield (first band, occupied cell keys, tubes occupying each, flip) for blocks
    of whole height bands; each block's keys are distinct, and blocks come in any order.

    A block holds about _BLOCK_ROWS (tube, band) rows: several bands when tubes
    are few, one band when they are many.  A key packs (band - first band,
    j_1 + R + 3, ..., j_d + R + 3) in base K = 2^(k+1) + 6.  A block with at most
    2^d key slots per row adds its hit tests into a dense count; others gather
    their hit keys (int32 below 2^31) for _distinct.  A point at u (in cell
    units) can only occupy, per axis, the cells j0 = rint(u) - 1 and j0 + 1, and
    rint(u) is clipped to [-R-2, R+2], so every digit lies in [0, K) and both
    cells of a clipped window lie outside the box [-R-1, R].  No row is
    range-tested: when some window leaves the box, out-of-box cells are dropped
    from the block's distinct keys.

    Symmetric families stamp a quarter of their rows (see _symmetries): a central mirror's cells are
    j -> -1 - j in the same band.  ``flip`` is None, or the flipped axes when the block stands also
    for its band reflection, whose cells are j -> -1 - j on those axes and on the band; that block
    is yielded once, and each reduction weights it.
    """
    bands = _band_indices(k, spec.t_range)  # refuses k > MAX_K before anything else
    Y, W = spec.Y, spec.W
    m, d = len(Y), spec.family.n - 1
    if m * 2**d > CELL_BUDGET:
        raise ResolutionTooFine(f"per-band stamp budget exceeded: {m} tubes x {2**d} candidates")
    if not m:
        return
    if (spec.delta != 2.0**-k).any():
        raise ValueError("tube delta must equal 2^-k")
    R = 2**k
    K = 2 * R + 6
    Kd = K**d
    if Kd >= 2**63:
        raise ResolutionTooFine(
            f"cell keys exceed int64: (2^{k + 1} + 6)^{d} >= 2^63 at n = {d + 1}, k = {k}")
    per_block = min(max(1, _BLOCK_ROWS // m), 2**63 // Kd)  # band offset * K^d stays in int64
    bits = (np.arange(2**d)[:, None] >> np.arange(d)) & 1  # candidate -> which axes take j0+1
    step = [K**e for e in range(d - 1, -1, -1)]  # Python ints, so int32 keys stay int32
    cand_off = (bits @ step).tolist()
    # exact (R = 2^k) centres in cell units; column-major, so _centres reads each axis contiguously
    YR, WR = (np.multiply(a, float(R), order="F") for a in (Y, W))
    CY = spec.family._cf @ YR.T
    tubes, paired, flip = _symmetries(spec.family.C, YR, WR, CY, bands)
    YR, WR, CY = YR.T[:, tubes].T, WR.T[:, tubes].T, CY[:, tubes]
    bands = bands if flip is None else bands[bands >= 0]
    # Per axis the window is j0 = rint(u) - 1 (it holds every cell within one cell of u, as
    # |u - rint(u)| <= 1/2) and the terms are ((j0 + 1/2) - u)^2 and ((j0 + 3/2) - u)^2, as in
    # stamp_oracle: rint and j0 +- 1/2 are exact and each difference and square rounds once, to
    # nearest, which is odd.  So a centre -u gets the window {-2 - j0, -1 - j0} with the two terms
    # swapped and hits the mirrored cells bit for bit; _centres is odd too (each operation rounds
    # once; band -1 - b has height -t exactly).  Keys pack r = j0 + 1 in place of j0.
    for first in range(0, bands.size, per_block):
        block = bands[first:first + per_block]
        u = _centres(spec.family, YR, WR, (block + 0.5) * 2.0**-k, CY).reshape(d, -1)  # rows run tube-major
        space = block.size * Kd
        counted = space <= 2**d * m * block.size  # decided from all the tubes' rows, before stamping
        itype = np.int64 if counted or space >= 2**31 else np.int32
        band_key = np.tile((np.arange(block.size) * Kd + (R + 2) * sum(step)).astype(itype), len(YR))
        if counted:
            counts, hits = np.zeros(space, dtype=np.int64), np.empty(min(u.shape[1], _BLOCK_ROWS), dtype=np.int64)
        else:
            keys, used = np.empty(2**d * m * block.size, dtype=itype), 0
        split = paired * block.size  # the rows of paired tubes come first
        for lo, hi, mirrored in ((0, split, True), (split, u.shape[1], False)):
            for s in range(lo, hi, _BLOCK_ROWS):
                us = u[:, s:min(s + _BLOCK_ROWS, hi)]
                r = np.rint(us)
                sq = [np.square(np.subtract(a, us, out=a), out=a) for a in (r - 0.5, r + 0.5)]  # at j0 and j0 + 1
                r = np.clip(r, -R - 2, R + 2, out=r).astype(itype)
                base = reduce(lambda b, j: np.add(np.multiply(b, K, out=b), j, out=b), r)  # Horner, in r[0]
                base += band_key[s:s + base.size]  # every |partial sum| is below (R+2) sum(step) < space
                for c, off in zip(bits, cand_off):
                    near = reduce(np.add, (sq[b][axis] for axis, b in enumerate(c)))  # axes summed in order
                    hit = np.less(near, 1.0, out=hits[:near.size] if counted else None)
                    if counted:
                        np.add.at(counts[off:], base, hit)
                        continue
                    out = keys[used:used + np.count_nonzero(hit)]
                    np.add(np.compress(hit, base, out=out), off, out=out)
                    used += out.size
            if mirrored and split:  # add the central mirrors of the paired tubes
                if counted:  # the axis digits of a key's mirror are K^d - 1 less its own
                    rows = counts.reshape(block.size, Kd)
                    rows[:, :Kd // 2] += rows[:, :Kd // 2 - 1:-1]
                    rows[:, :Kd // 2 - 1:-1] = rows[:, :Kd // 2]
                else:  # a key's axis digits q become K^d - 1 - q: twice its band offset * K^d, less it, plus K^d - 1
                    mirror = np.multiply(keys[:used] // Kd, Kd, out=keys[used:2 * used])  # band offset * K^d
                    mirror += (Kd - 1) + mirror - keys[:used]  # no partial sum leaves the key space
                    used *= 2
        del r, sq, base  # free the last rows' temporaries before deduplicating
        if counted:
            keys = np.flatnonzero(counts != 0)  # a bool scan is about 4x faster than an int64 one
            counts = counts[keys]
        else:
            keys, counts = _distinct(keys[:used])
        if not (-R - 0.5 < u.min() and u.max() < R + 0.5):  # some window leaves the box; NaN lands here too
            axes = _digits(keys, K, d)[1:]
            inside = ((axes >= 2) & (axes < K - 2)).all(axis=0)
            keys, counts = keys[inside], counts[inside]
        yield int(block[0]), keys, counts, flip


def _digits(keys: np.ndarray, K: int, d: int) -> np.ndarray:
    """(d + 1, keys) int64 base-K digits of keys: band offset, then one row per axis."""
    out = np.empty((d + 1, keys.size), dtype=np.int64)
    for axis in range(d, 0, -1):
        keys, out[axis] = np.divmod(keys, K)
    out[0] = keys
    return out


def _distinct(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct keys and their multiplicities, both int64.  The sort beats np.unique's hash
    path about 10x here (numpy 2.4), and sorts int32 keys 2.2-2.7x faster than int64 ones."""
    keys = np.sort(keys)
    first = np.empty(keys.size, dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    first = np.flatnonzero(first)
    return keys[first].astype(np.int64, copy=False), np.diff(first, append=keys.size)


def rasterize(spec: TubeFamilySpec, k: int) -> CellSet:
    """Voxelize the union of the tubes at delta = 2^-k.

    Each block of height bands from the stamping kernel is deduplicated on its
    own, so stamping memory is bounded per block, not per grid; the cells of
    all blocks are then sorted once.  Keys pack in base 2^(k+1) + 6; _stamp
    counts each block in place (the n = 3 worst case) or sorts its keys.
    Raises :class:`ResolutionTooFine` when the stamping budget (2^30 candidate
    cells) would be exceeded, or when packed cell keys would not fit in int64;
    use :func:`union_volume` for larger counting-only experiments.
    """
    n = spec.family.n
    m = len(spec.Y)
    nb = _band_indices(k, spec.t_range).size
    if m * nb * (2 ** (n - 1)) > CELL_BUDGET:
        raise ResolutionTooFine(f"stamp budget exceeded: {m} tubes x {nb} bands x {2 ** (n - 1)} candidates")
    blocks = [np.empty((0, n), dtype=np.int64)]
    for b0, keys, _, flip in _stamp(spec, k):
        digits = _digits(keys, 2 ** (k + 1) + 6, n - 1)
        blocks.append(np.column_stack([*(digits[1:] - (2**k + 3)), digits[0] + b0]))
        if flip is not None:  # the band reflection: j -> -1 - j on the flipped axes and the band
            blocks.append(np.where(np.isin(np.arange(n), [*flip, n - 1]), -1 - blocks[-1], blocks[-1]))
    cells = np.concatenate(blocks)  # distinct: blocks hold disjoint bands
    return CellSet._of_rows(n, k, cells[np.lexsort(cells.T[::-1])])


def union_volume(spec: TubeFamilySpec, k: int) -> tuple[int, float]:
    """(cell count, volume) of the union, summed over the stamping kernel's
    band blocks, with :meth:`CellSet.volume`'s volume.

    No :class:`CellSet` is built and nothing larger than one block's keys is
    held, so this handles unions too large for one; the sweep commands count
    cells this way.  Blocks are deduplicated as in :func:`rasterize`; a block
    that stands also for its band reflection counts twice.
    """
    total = sum(keys.size * (1 if flip is None else 2) for _, keys, _, flip in _stamp(spec, k))
    return total, (2.0**-k) ** spec.family.n * total


@dataclass(frozen=True)
class DimensionFit:
    slope: float          # estimated box dimension
    fit_residual: float   # rms residual of the log-log fit
    volumes: tuple        # (k, volume) pairs
    n: int


def box_dimension(builder: Callable, ks: Sequence[int], n: int) -> DimensionFit:
    """Fit |N_delta| ~ delta^(n-d) over the given resolutions and return d.

    ``builder(k)`` returns the volume in R^n at delta = 2^-k, such as
    :meth:`CellSet.volume` or :func:`union_volume`'s.  Unweighted least squares
    on (log2 delta, log2 volume); the rms residual of the fit is reported
    alongside.
    """
    ks = list(ks)
    if len(ks) < 3 or any(b <= a for a, b in zip(ks, ks[1:])):
        raise ValueError("need at least 3 strictly increasing resolutions")
    vols = []
    for k in ks:
        v = float(builder(k))
        if not 0 < v < math.inf:
            raise ValueError(f"volume {v} at k={k} is not positive and finite; cannot fit a slope")
        vols.append(v)
    x = np.array([-k for k in ks], dtype=float)          # log2 delta
    y = np.log2(np.array(vols))
    coeff = np.polyfit(x, y, 1)
    resid = y - np.polyval(coeff, x)
    return DimensionFit(
        slope=float(n - coeff[0]),
        fit_residual=float(np.sqrt(np.mean(resid**2))),
        volumes=tuple(zip(ks, vols)),
        n=n,
    )


def _ball_lattice(dim: int, k: int) -> np.ndarray:
    """(points, dim) rows of the direction net (2^-k Z)^dim in the closed unit ball, decided
    exactly on the integer points g: |g 2^-k| <= 1 when |g|^2 <= 4^k."""
    axes = [np.arange(-(2**k), 2**k + 1, dtype=np.int64)] * dim
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)
    return grid[(grid * grid).sum(axis=1) <= 4**k] * 2.0**-k


def ball_lattice_directions(dim: int, k: int) -> list:
    """The direction net (2^-k Z)^dim intersected with the closed unit ball."""
    return [tuple(p) for p in _ball_lattice(dim, k)]


def build_worstcase_kakeya(
    C: RationalMatrix,
    k: int,
    directions: Optional[Sequence] = None,
) -> TubeFamilySpec:
    """The small-volume construction for a companion-block matrix C.

    Centres are the linear images omega = W y; heights are restricted to
    [-delta^(1/m), delta^(1/m)] where m is the vanishing order of the
    direction-map determinant (the full range when it vanishes identically).
    Directions default to the 2^-k lattice net of the unit ball; callers must
    supply a thinner net in higher dimensions.  All centres come from one
    matmul, which matches the per-tube products bit for bit because every row
    of W has at most one nonzero entry.
    """
    W = w_matrix(C)
    m = vanishing_order(C, W)
    delta = 2.0**-k
    n = C.dim + 1
    if directions is None:
        if C.dim > 2 and (2 ** (k + 1) + 1) ** C.dim > 2**22:
            raise ResolutionTooFine(
                "full lattice net too large in this dimension; pass explicit directions")
        Y = _ball_lattice(C.dim, k)
    else:
        Y = _float_rows(directions, C.dim)
    cap = 1.0 if math.isinf(m) else min(1.0, delta ** (1.0 / m))
    family = CurveFamily(n=n, C=C)
    return TubeFamilySpec(family, t_range=(-cap, cap), Y=Y, W=Y @ W.to_float().T, delta=delta)


def covering_norm(spec: TubeFamilySpec, p_prime: float, k: int) -> float:
    """The L^{p'} norm of the tube overlap function on the grid:
    (delta^n * sum_cells count^{p'})^{1/p'}.

    A tube occupies a cell at most once per band, so a key's multiplicity in a
    band block is its overlap count.  The block totals are added with
    ``math.fsum``, so the result does not depend on the order in which the
    kernel yields its blocks (and is exact for p' = 2, whose totals are
    integers).  A block that stands also for its band reflection adds twice its
    total, which ``fsum`` adds exactly as it would the two equal totals.
    ``p_prime`` must be finite and at least 1: the L^inf norm, the
    largest overlap count, is not a limit this sum can reach in floats."""
    if not 1 <= p_prime < math.inf:
        raise ValueError(f"p_prime must be finite and at least 1, got {p_prime}")
    total = math.fsum(float(np.sum(counts.astype(float) ** p_prime)) * (1 if flip is None else 2)
                      for _, _, counts, flip in _stamp(spec, k))
    return float(((2.0**-k) ** spec.family.n * total) ** (1.0 / p_prime))


@dataclass(frozen=True)
class HairbrushDecomposition:
    brushes: tuple        # tuple of sorted index tuples
    bad: tuple            # sorted indices not in any brush
    centrals: tuple       # index of the tube chosen as each brush's central tube


def _meet_heights(spec: TubeFamilySpec) -> tuple[np.ndarray, np.ndarray]:
    """The H heights of the meet test and the indices of its coarse samples: every
    stride-th height and the last one."""
    lo, hi = spec.t_range
    # sample at the finest tube scale so transversal crossings are not missed
    step = spec.delta.min()
    H = max(257, _height_samples(hi - lo, step))
    # The coarse pass costs about h / gap of the fine one per pair, for the height step h and
    # the sample gap = stride * h.  It leaves undecided the pairs that come within reach only
    # between samples, few while gap <= 1.5 reach (least reach 2 * step) and many beyond, and
    # the pairs whose sampled minimum lies within L gap / 2 of the reach, a share that grows
    # with gap.  So the gap is the smaller of 1.5 reach and sqrt(h / 2): strides 8, 8, 6 and 3
    # at k = 4, 5, 6 and >= 7 on [-1, 1], which a sweep of strides 4..16 on the n=3 worst case
    # at k = 4..6 found fastest or within noise of it.
    h = (hi - lo) / (H - 1)
    stride = max(1, round(min(3.0 * step, math.sqrt(h / 2)) / h))
    return np.linspace(lo, hi, H), np.append(np.arange(0, H - 1, stride), H - 1)


def _meets(spec: TubeFamilySpec) -> np.ndarray:
    """Packed meet rows of hairbrush_decompose: bit j of row i is set when tube i meets tube j."""
    m = len(spec.Y)
    ts, idx = _meet_heights(spec)
    Y = spec.Y.T
    CY = spec.family._cf @ Y
    tr = _centres(spec.family, spec.Y, spec.W, ts, CY)  # (n-1, curves, H): a contiguous plane per axis
    d, H, samples = len(tr), len(ts), len(idx)

    # Coarse pass: the same squared distances at the samples only.  A sample within reach is a
    # meet, as the fine minimum is no larger.  No meet is certain when the least sampled
    # distance, less what the distance can drop between samples, still clears the reach.  For
    # D(t) = dw - t dy - t^2 dcy (the difference of two curves, dcy from the product C y that
    # _centres takes), |D'(t)| <= L = |dy| + 2T|dcy| with T = max |t|, and every height lies
    # within gap/2 of a sample, so the least |D| over all heights is at least the least over
    # the samples minus L gap/2.
    # Margin, with u = 2^-53 and S >= |w| + T|y| + T^2|cy| for every curve and axis: a centre
    # coordinate takes five roundings, so it is within 3u(1+2u)S < 4uS of its exact value; an
    # axis difference adds one more (within 11uS, and |D| per axis <= 2S); the sum of n-1 squares
    # has relative error at most (n-1)u(1+u).  So each computed distance is within
    # eta = (12 + 3(n-1)) sqrt(n-1) u S of |D| at its height: once at the coarse minimum and once
    # at the fine one, hence margin = 2 eta.  The threshold (L from two norms, products and sums
    # of non-negative terms), the coarse square root and the fine one carry at most
    # (n-1)/2 + 11 roundings of relative error u, which the factor `grow` covers twice over.
    T = np.abs(ts).max()
    S = float((np.abs(spec.W.T) + T * np.abs(Y) + T * T * np.abs(CY)).max())
    u = 2.0**-53
    margin = 2 * (12 + 3 * d) * math.sqrt(d) * u * S
    grow = 1 + 2 * (d + 22) * u
    half_gap = float(np.diff(ts[idx]).max()) / 2

    # Fine pass: all H heights for the undecided pairs only, gathered, with the same arithmetic.
    # Both passes take column tubes in blocks of about _BLOCK_ROWS (tube, sample) rows and row
    # tubes a chunk at a time, so every buffer stays cache-sized; fresh temporaries each time are
    # mostly page faults.  Each (chunk, block) view of a flat buffer is contiguous, which numpy
    # runs as one loop.  Blocks and chunks start at multiples of 8 tubes, so each owns whole
    # bytes of the packed rows.
    per_block = max(8, _BLOCK_ROWS // samples // 8 * 8)
    per_chunk = max(8, _BLOCK_ROWS // per_block // 8 * 8)
    per_fine = max(1, _BLOCK_ROWS // H)
    diff, sq, cmin = np.empty((3, per_chunk * per_block))
    hit = np.empty(per_chunk * per_block, dtype=bool)
    frow, fcol, fsq = np.empty((3, per_fine, H))
    # The coarse differences come from a matmul, [c, -1] @ [1; t] = c - t: both products are
    # exact, so the sum rounds once, as np.subtract does, and BLAS keeps short rows fast.
    row_aug = np.empty((d, samples, per_chunk, 2))
    row_aug[..., 1] = -1.0
    col_aug = np.empty((d, samples, 2, per_block))
    col_aug[:, :, 0] = 1.0
    meets = np.zeros((m, (m + 7) // 8), dtype=np.uint8)
    for s in range(0, m, per_block):
        e = min(s + per_block, m)
        col_aug[:, :, 1, :e - s] = tr[:, s:e][:, :, idx].transpose(0, 2, 1)
        # The meets are symmetric bit for bit: (a-b)^2 == (b-a)^2, the axis order is fixed and
        # the reach is symmetric.  So a chunk is computed only against the tubes from its own
        # start on, and those columns are mirrored into its rows' columns.
        for r0 in range(0, e, per_chunk):
            r1 = min(r0 + per_chunk, e)
            c0 = max(s, r0)
            r, w = r1 - r0, e - c0
            cm, sq_, diff_, ht = (a[:r * w].reshape(r, w) for a in (cmin, sq, diff, hit))
            ra, ca = row_aug[:, :, :r], col_aug[..., c0 - s:e - s]
            ra[..., 0] = tr[:, r0:r1][:, :, idx].transpose(0, 2, 1)
            for h in range(samples):
                acc = sq_ if h else cm
                np.square(np.matmul(ra[0, h], ca[0, h], out=acc), out=acc)
                for axis in range(1, d):
                    acc += np.square(np.matmul(ra[axis, h], ca[axis, h], out=diff_), out=diff_)
                if h:
                    np.minimum(cm, sq_, out=cm)
            dist = np.sqrt(cm)
            reach = 2.0 * np.maximum(spec.delta[r0:r1, None], spec.delta[c0:e])
            np.less_equal(dist, reach, out=ht)
            lip = _pair_norms(Y[:, r0:r1], Y[:, c0:e]) + 2 * T * _pair_norms(CY[:, r0:r1], CY[:, c0:e])
            pi, pj = np.nonzero((dist <= (reach + margin + lip * half_gap) * grow) & ~ht)
            for f in range(0, len(pi), per_fine):
                i, j = pi[f:f + per_fine], pj[f:f + per_fine]
                fr, fc, fs = frow[:len(i)], fcol[:len(i)], fsq[:len(i)]
                for axis in range(d):  # (mode="raise" would copy through a temporary)
                    np.subtract(np.take(tr[axis], r0 + i, axis=0, out=fr, mode="clip"),
                                np.take(tr[axis], c0 + j, axis=0, out=fc, mode="clip"), out=fr)
                    if axis:
                        fs += np.square(fr, out=fr)
                    else:
                        np.square(fr, out=fs)
                ht[i, j] = np.sqrt(fs.min(axis=1)) <= reach[i, j]
            meets[r0:r1, c0 // 8:(e + 7) // 8] = np.packbits(ht, axis=1)
            meets[c0:e, r0 // 8:(r1 + 7) // 8] = np.packbits(ht.T, axis=1)
    return meets


def hairbrush_decompose(spec: TubeFamilySpec, N: int) -> HairbrushDecomposition:
    """Greedy extraction of hairbrushes of size at least N >= 1, their central
    tubes drawn from the family itself.

    Repeatedly pick the tube (in a brush already or not) meeting the most
    remaining tubes, ties to the lowest index; if it meets at least N of them,
    remove them as one brush.  Tubes meet when their curves pass within twice
    the larger thickness at one of H = max(257, ceil((hi - lo) / min delta) + 1)
    evenly spaced heights of the t-range, squared axis terms summed in axis
    order; a delta below 2^-MAX_K raises :class:`ResolutionTooFine` before any
    height is sampled, and an empty family ``ValueError``.  On return no tube
    meets N of the leftover ("bad") tubes.
    The meets come out bit for bit as if every height were tested, in two
    passes.  The coarse pass tests every stride-th height and the last one: a
    sample within reach is a meet, and a pair whose least sampled distance,
    less a Lipschitz bound on how far the distance can drop between samples
    and a rounding margin, still clears the reach meets nowhere.  The fine pass
    tests all H heights of the few pairs left.  The meets are symmetric, so for
    m tubes this costs O(m^2 / 2 * (H / stride + H * undecided share) * (n - 1))
    and holds m^2 / 8 bytes of packed bits.
    """
    if N < 1:
        raise PreconditionViolation(f"brush size threshold N = {N} must be at least 1")
    m = len(spec.Y)
    if not m:
        raise ValueError("need at least one tube")
    meets = _meets(spec)  # the trajectories are released on return

    remaining = np.ones(m, dtype=bool)
    brushes, centrals = [], []
    # meets & remaining is counted a cache-sized slab of rows at a time
    per_slab = max(1, _BLOCK_ROWS // meets.shape[1])
    slab = np.empty((per_slab, meets.shape[1]), dtype=np.uint8)
    totals = np.empty(len(meets), dtype=np.int64)
    while True:
        packed = np.packbits(remaining)
        for r0 in range(0, len(meets), per_slab):
            rows = meets[r0:r0 + per_slab]
            part = np.bitwise_and(rows, packed, out=slab[:len(rows)])
            totals[r0:r0 + len(rows)] = np.bitwise_count(part, out=part).sum(axis=1)
        best = int(np.argmax(totals))
        if totals[best] < N:
            break
        members = np.flatnonzero(np.unpackbits(meets[best], count=m).astype(bool) & remaining)
        brushes.append(tuple(int(i) for i in members))
        centrals.append(best)
        remaining[members] = False
    return HairbrushDecomposition(
        brushes=tuple(brushes),
        bad=tuple(int(i) for i in np.nonzero(remaining)[0]),
        centrals=tuple(centrals),
    )


def surface_residual(points: Sequence) -> float:
    """max |x1 - x2*x3| over the given R^3 points (0 for an empty list)."""
    worst = 0.0
    for p in points:
        if len(p) != 3:
            raise ValueError("surface residual is defined for R^3 points")
        x1, x2, x3 = (float(c) for c in p)
        worst = max(worst, abs(x1 - x2 * x3))
    return worst
