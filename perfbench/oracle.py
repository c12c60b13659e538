"""Brute-force stamping oracle for the raster goldens.

Follows the convention of the ``raster`` module docstring cell by cell, with
none of its packed keys: a cell (j_1, ..., j_d, b) of the box
[-2^k-1, 2^k]^n is occupied by a tube when the tube's curve point at the centre
of height band b lies within delta of the cell's centre. Every cell within two
cells of the curve point is tested.
"""

from __future__ import annotations

import itertools

import numpy as np


def tube_cells(spec, k: int) -> np.ndarray:
    """Unique rows (tube index, j_1, ..., j_d, band) of every cell each tube occupies."""
    delta = 2.0**-k
    R = 2**k
    Cf = spec.family.C.to_float()
    Y = np.array([[float(v) for v in t.params.y] for t in spec.tubes])
    Om = np.array([[float(v) for v in t.params.omega] for t in spec.tubes])
    d = Y.shape[1]
    lo, hi = spec.t_range
    offsets = np.array(list(itertools.product(range(-2, 3), repeat=d)))
    ids = np.arange(len(spec.tubes))
    rows = []
    for band in range(-R - 1, R + 1):
        t = (band + 0.5) * delta
        if not lo <= t <= hi:
            continue
        u = (Om - t * Y - t * t * (Y @ Cf.T)) / delta  # curve points in cell units
        base = np.floor(u).astype(np.int64)
        for off in offsets:
            j = base + off
            inside = ((j >= -R - 1) & (j <= R)).all(axis=1)
            near = ((j + 0.5 - u) ** 2).sum(axis=1) < 1.0
            keep = inside & near
            rows.append(np.column_stack([ids[keep], j[keep], np.full(keep.sum(), band)]))
    return np.unique(np.concatenate(rows), axis=0)


def union_count(spec, k: int) -> int:
    """Cells occupied by at least one tube."""
    return len(np.unique(tube_cells(spec, k)[:, 1:], axis=0))


def covering_norm(spec, p_prime: float, k: int) -> float:
    """(delta^n * sum over cells of (tubes occupying it)^p')^(1/p')."""
    _, counts = np.unique(tube_cells(spec, k)[:, 1:], axis=0, return_counts=True)
    return float(((2.0**-k) ** spec.family.n * np.sum(counts.astype(float) ** p_prime)) ** (1.0 / p_prime))
