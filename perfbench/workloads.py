"""The benchmark's workloads: seeded inputs and one timed, checked pass.

A workload is two functions:

- ``inputs(seed, size)`` builds everything the pass needs from the seed.
  It is counted in ``setup_s``, not in ``wall_s``.
- ``run(inputs, golden, p)`` is one pass. Its operations are library calls made
  through ``p.attempt`` and each through its module attribute
  (``raster.rasterize``, not a saved reference), so the traced run can wrap
  them. Each result is checked at once inside ``p.unclocked()``, so checks
  stay out of the pass's wall time and results are not kept. ``p.span(name)``
  marks the pass's phases for the trace. ``run`` returns the pass's
  seed-independent outputs, which ``record_golden.py`` stores in ``golden.json``.

Seed-independent outputs are compared with ``golden.json``. Seeded outputs are
checked against invariants or an independent reference. Size ``full`` is what
the benchmark measures; ``small`` is the reduced size its own test runs.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

# The default single-thread rasterize path is what gets measured; the threaded
# path would need a workload of its own.
os.environ.pop("KAKEYA_LAB_THREADS", None)

if not (SRC / "kakeya_lab" / "__init__.py").is_file():
    raise SystemExit(f"perfbench: no kakeya_lab sources under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import kakeya_lab  # noqa: E402
from kakeya_lab import cli, curves, exact, raster, sumsets  # noqa: E402

if Path(kakeya_lab.__file__).resolve().parent != SRC / "kakeya_lab":
    raise SystemExit(f"perfbench: imported kakeya_lab from {kakeya_lab.__file__}, not {SRC}")

SIZES = ("full", "small")
KEY_EXACT_LIMIT = 2**53  # packed cell keys are built in float64

CONFIG = {
    "worstcase_cli": {
        "full": {"ks": (5, 6, 7)},
        "small": {"ks": (3, 4, 5)},
    },
    "tube_overlap": {
        "full": {"union_ks": (4, 5, 6), "cover_k": 6, "hair_k": 4, "pairs": 500, "pair_k": 6},
        "small": {"union_ks": (2, 3, 4), "cover_k": 4, "hair_k": 3, "pairs": 20, "pair_k": 5},
    },
    "sumset_sweep": {
        "full": {"instances": 500, "scaled": 50, "trapezia": 200},
        "small": {"instances": 20, "scaled": 5, "trapezia": 10},
    },
}

HAIRBRUSH_N = 8
COVER_P = 2.0
BIGINT_SCALE = 2**58  # pushes coordinates past the int64 guard of x_sumset and difference_set
BIGINT_PHASE = "bench.bigint"  # the span of the scaled instances, which the trace reports apart
FLOAT_REL = 1e-12


class Failed:
    """An operation that raised; it counts as failed."""

    def __init__(self, exc: Exception):
        self.exc = exc

    def __repr__(self):
        return f"raised {self.exc!r}"


class Pass:
    """One pass: its clock, its span marker, and its tally of operations.

    The pass's wall time is the time since construction minus the time spent
    inside ``unclocked()`` blocks.
    """

    def __init__(self, span=contextlib.nullcontext):
        self.span = span
        self.attempted = 0
        self.failures: list[str] = []
        self._start = time.perf_counter()
        self._unclocked = 0.0

    @contextlib.contextmanager
    def unclocked(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._unclocked += time.perf_counter() - t0

    def wall(self) -> float:
        return time.perf_counter() - self._start - self._unclocked

    def attempt(self, ops: int, fn: Callable, *args):
        """``fn(*args)``, counted as ``ops`` checked operations; a raise becomes ``Failed``."""
        self.attempted += ops
        try:
            return fn(*args)
        except Exception as exc:  # a raising operation is a counted failure, not a crash
            return Failed(exc)

    def fail(self, msg: str, ops: int = 1):
        self.failures += [msg] * ops

    def expect(self, golden, got, label: str):
        """One failure if ``got`` raised or differs from ``golden`` (skipped while recording)."""
        if isinstance(got, Failed):
            self.fail(f"{label}: {got!r}")
        elif golden is not None:
            self.failures += _same(golden, got, label)[:1]


def key_bound(n: int, k: int) -> int:
    """Largest packed cell key + 1 at resolution k in dimension n: (2^(k+1)+2)^n."""
    return (2 ** (k + 1) + 2) ** n


def _same(expected, got, path: str) -> list[str]:
    """Differences between a golden value and an output; floats to FLOAT_REL."""
    if isinstance(expected, dict):
        if not isinstance(got, dict) or expected.keys() != got.keys():
            return [f"{path}: keys differ"]
        return [m for key in expected for m in _same(expected[key], got[key], f"{path}.{key}")]
    if isinstance(expected, list):
        if not isinstance(got, list) or len(expected) != len(got):
            return [f"{path}: length differs"]
        return [m for i, (e, g) in enumerate(zip(expected, got)) for m in _same(e, g, f"{path}[{i}]")]
    if isinstance(expected, float) and isinstance(got, (int, float)):
        if abs(got - expected) <= FLOAT_REL * abs(expected):
            return []
        return [f"{path}: {got!r} != {expected!r}"]
    return [] if expected == got else [f"{path}: {got!r} != {expected!r}"]


# ------------------------------------------------------------------ worstcase_cli

def worstcase_inputs(seed: int, size: str) -> dict:
    ks = CONFIG["worstcase_cli"][size]["ks"]
    OUT_DIR.mkdir(exist_ok=True)
    return {
        "argv": ["worstcase", "--n", "3", "--ks", ",".join(map(str, ks)),
                 "--out", str(OUT_DIR / f"worstcase-{os.getpid()}.csv")],
        "stamp_calls": [("rasterize", 3, k) for k in ks],
    }


def _worstcase_fields(rc, stdout: str, csv: str):
    """The CSV body after the timestamped ``# config:`` line and the fit summary."""
    if rc != 0 or not csv.startswith("# config: "):
        return Failed(RuntimeError(f"cli.main returned {rc!r} and wrote {csv[:40]!r}"))
    try:
        summary = json.loads(stdout)["result"]
    except (ValueError, KeyError) as exc:
        return Failed(exc)
    return {"csv_body": csv.split("\n", 1)[1], "slope": summary["slope"], "fit_residual": summary["fit_residual"]}


def worstcase_run(inp: dict, golden: Optional[dict], p: Pass) -> dict:
    csv = Path(inp["argv"][-1])
    buf = io.StringIO()
    with p.span("bench.cli"), contextlib.redirect_stdout(buf):
        rc = p.attempt(1, cli.main, inp["argv"])
    with p.unclocked():
        fields = _worstcase_fields(rc, buf.getvalue(), csv.read_text() if csv.exists() else "")
        csv.unlink(missing_ok=True)
        p.expect(golden, fields, "worstcase_cli")
    return fields


# ------------------------------------------------------------------- tube_overlap

TWO_BLOCK = [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]]


def subspace_net(k: int, free: tuple, dim: int) -> list:
    """The 2^-k lattice net of the unit ball inside the coordinate subspace ``free``."""
    delta = 2.0**-k
    r = 2**k
    vals = np.arange(-r, r + 1) * delta
    grid = np.stack(np.meshgrid(*([vals] * len(free)), indexing="ij"), axis=-1).reshape(-1, len(free))
    keep = (grid * grid).sum(axis=1) <= 1.0 + 1e-12
    out = []
    for g in grid[keep]:
        y = [0.0] * dim
        for axis, v in zip(free, g):
            y[axis] = float(v)
        out.append(tuple(y))
    return out


def crossing_pair(rng, family, delta: float, min_sep: float):
    """Two tubes whose curves meet at a random common point; directions >= min_sep apart."""
    Cf = family.C.to_float()
    while True:
        y1 = rng.uniform(-0.8, 0.8, 2)
        y2 = rng.uniform(-0.8, 0.8, 2)
        sep = float(np.linalg.norm(y1 - y2))
        if sep >= min_sep:
            break
    tstar = rng.uniform(-0.8, 0.8)
    p = rng.uniform(-0.5, 0.5, 2)
    om1 = p + tstar * y1 + tstar**2 * (Cf @ y1)
    om2 = p + tstar * y2 + tstar**2 * (Cf @ y2)
    t1 = curves.TubeSpec(params=curves.CurveParams(y=tuple(y1), omega=tuple(om1)), delta=delta)
    t2 = curves.TubeSpec(params=curves.CurveParams(y=tuple(y2), omega=tuple(om2)), delta=delta)
    return t1, t2, sep


def lens_diameter(Cf: np.ndarray, t1, t2) -> float:
    """``curves.intersection_diameter`` of two tubes in R^3, recomputed from its
    documented convention: centres omega - t*y - t^2*C*y sampled at
    ceil(8/delta)+1 heights in [-1, 1]; where the centres are closer than
    2*delta, the slice's lens contributes its two extreme points (the whole
    disc's four axis points when the centres coincide); the diameter is the
    largest distance between the points."""
    delta = float(t1.delta)
    ts = np.linspace(-1.0, 1.0, math.ceil(8.0 / delta) + 1)

    def centres(t):
        y = np.array(t.params.y, dtype=float)
        return np.array(t.params.omega, dtype=float) - np.outer(ts, y) - np.outer(ts * ts, Cf @ y)

    c1, c2 = centres(t1), centres(t2)
    diff = c2 - c1
    g = np.linalg.norm(diff, axis=1)
    on = g < 2.0 * delta
    if not on.any():
        return 0.0
    mid, g, diff, t = 0.5 * (c1 + c2)[on], g[on], diff[on], ts[on]
    lens = g > 1e-12
    half = np.sqrt(np.maximum(delta * delta - 0.25 * g[lens] ** 2, 0.0))[:, None]
    perp = np.column_stack([-diff[lens, 1], diff[lens, 0]]) / g[lens, None]
    disc = np.array([[delta, 0.0], [-delta, 0.0], [0.0, delta], [0.0, -delta]])
    pts = [np.column_stack([mid[lens] + half * perp, t[lens]]),
           np.column_stack([mid[lens] - half * perp, t[lens]])]
    pts += [np.column_stack([mid[~lens] + e, t[~lens]]) for e in disc]
    P = np.concatenate(pts)
    return float(np.sqrt(((P[:, None, :] - P[None, :, :]) ** 2).sum(axis=2).max()))


def overlap_inputs(seed: int, size: str) -> dict:
    cfg = CONFIG["tube_overlap"][size]
    worst = exact.companion([0, 0])
    family = curves.CurveFamily(n=3, C=worst)
    rng = np.random.default_rng(seed)
    delta = 2.0 ** -cfg["pair_k"]
    return {
        "cfg": cfg,
        "two_block": exact.RationalMatrix(TWO_BLOCK),
        "worst": worst,
        "nets": {k: subspace_net(k, (0, 2), 4) for k in cfg["union_ks"]},
        "family": family,
        "cf": worst.to_float(),
        "pairs": [crossing_pair(rng, family, delta, 8 * delta) for _ in range(cfg["pairs"])],
        "stamp_calls": [("union_volume", 5, k) for k in cfg["union_ks"]]
        + [("covering_norm", 3, cfg["cover_k"])],
    }


def overlap_run(inp: dict, golden: Optional[dict], p: Pass) -> dict:
    cfg = inp["cfg"]
    golden = golden or {"unions": [None] * len(cfg["union_ks"]), "covering_norm": None, "hairbrush": None}
    fields = {"unions": []}

    def union(k):
        return raster.union_volume(raster.build_worstcase_kakeya(inp["two_block"], k, inp["nets"][k]), k)

    def cover(k):
        return raster.covering_norm(raster.build_worstcase_kakeya(inp["worst"], k), COVER_P, k)

    def hairbrush(k):
        brush = raster.hairbrush_decompose(raster.build_worstcase_kakeya(inp["worst"], k), HAIRBRUSH_N)
        return {"brushes": [list(b) for b in brush.brushes], "bad": list(brush.bad),
                "centrals": list(brush.centrals)}

    with p.span("bench.union"):
        for k, want in zip(cfg["union_ks"], golden["unions"]):
            got = p.attempt(1, union, k)
            with p.unclocked():
                got = got if isinstance(got, Failed) else list(got)
                fields["unions"].append(got)
                p.expect(want, got, f"union_volume k={k}")
    with p.span("bench.covering"):
        fields["covering_norm"] = p.attempt(1, cover, cfg["cover_k"])
    with p.unclocked():
        p.expect(golden["covering_norm"], fields["covering_norm"], "covering_norm")
    with p.span("bench.hairbrush"):
        fields["hairbrush"] = p.attempt(1, hairbrush, cfg["hair_k"])
    with p.unclocked():
        p.expect(golden["hairbrush"], fields["hairbrush"], "hairbrush_decompose")
    with p.span("bench.pairs"):
        for i, (t1, t2, sep) in enumerate(inp["pairs"]):
            got = p.attempt(1, curves.intersection_diameter, inp["family"], t1, t2)
            with p.unclocked():
                if isinstance(got, Failed):
                    p.fail(f"intersection_diameter pair {i}: {got!r}")
                elif not got[0] > 0.0:
                    p.fail(f"intersection_diameter pair {i}: empty intersection")
                elif abs(got[1] - sep) > FLOAT_REL * sep:
                    p.fail(f"intersection_diameter pair {i}: separation {got[1]!r} != {sep!r}")
                elif abs(got[0] - (want := lens_diameter(inp["cf"], t1, t2))) > FLOAT_REL * want:
                    p.fail(f"intersection_diameter pair {i}: diameter {got[0]!r} != {want!r}")
    return fields


# ------------------------------------------------------------------- sumset_sweep

TRAPEZIUM_XS = ([[1, 1], [0, 1]], [[2, 1], [1, 1]], [[0, -1], [1, 0]], [[1, 0], [3, 1]])
EPS_ONE = Fraction(1, 6)  # Xs = [I], exponent 11/6
EPS_TWO = Fraction(1, 4)  # Xs = [I, 2I], exponent 7/4


def sumset_inputs(seed: int, size: str) -> dict:
    cfg = CONFIG["sumset_sweep"][size]
    rng = np.random.default_rng(seed)
    I2 = exact.RationalMatrix.identity(2)
    two = exact.RationalMatrix.diagonal([2, 2])
    xs = [exact.RationalMatrix(rows) for rows in TRAPEZIUM_XS]
    trap = []
    for i in range(cfg["trapezia"]):
        s, box, max_size = (int(v) for v in (rng.integers(0, 2**31), rng.integers(2, 7), rng.integers(2, 16)))
        trap.append((s, box, max_size, xs[i % len(xs)], xs[i % len(xs)] + I2))
    return {
        "seeds": [int(s) for s in rng.integers(0, 2**31, size=cfg["instances"])],
        "scaled": cfg["scaled"],
        "xs_one": [I2],
        "xs_two": [I2, two],
        "trapezia": trap,
        "stamp_calls": [],
    }


def _scaled(A, B, G, c: int):
    def up(p):
        return tuple(c * v for v in p)

    return (sumsets.LatticeSet.of([up(p) for p in A.points], dim=A.dim),
            sumsets.LatticeSet.of([up(p) for p in B.points], dim=B.dim),
            sumsets.Incidence(pairs=frozenset((up(a), up(b)) for a, b in G.pairs)))


def _plain_ratio_fields(A, B, G, Xs, eps: Fraction, sums_by_matrix: dict) -> tuple:
    """check_ratio's cardinalities and verdict, recomputed with plain Python sets.

    The workload's matrices are 2x2 and integral, so a + X b needs no lcm
    scaling; ``sums_by_matrix`` caches the sumset sizes of one instance.
    """
    pairs = G.pairs
    for X in Xs:
        if X not in sums_by_matrix:
            (x00, x01), (x10, x11) = ((int(e) for e in row) for row in X.rows)
            sums_by_matrix[X] = len({(a0 + x00 * b0 + x01 * b1, a1 + x10 * b0 + x11 * b1)
                                     for (a0, a1), (b0, b1) in pairs})
    if "diff" not in sums_by_matrix:
        sums_by_matrix["diff"] = len({(a0 - b0, a1 - b1) for (a0, a1), (b0, b1) in pairs})
    sums = tuple(sums_by_matrix[X] for X in Xs)
    n_diff = sums_by_matrix["diff"]
    size_a, size_b = len(set(A.points)), len(set(B.points))
    mx = max((size_a, size_b) + sums)
    p, q = eps.numerator, eps.denominator
    return size_a, size_b, sums, n_diff, mx, n_diff**q <= mx ** (2 * q - p)


def _report_fields(r) -> tuple:
    return r.size_A, r.size_B, tuple(r.sumset_sizes), r.size_diff, r.max_side, r.holds


def _distinct_differences(G) -> list:
    best = {}
    for a, b in sorted(G.pairs):
        best.setdefault(tuple(x - y for x, y in zip(a, b)), (a, b))
    return sorted(best.values())


def einsum_trapezia(G, Y) -> int:
    """The definitional ordered-quadruple count on the thinned incidence set."""
    pairs = _distinct_differences(G)
    a = np.array([p[0] for p in pairs], dtype=np.int64)
    b = np.array([p[1] for p in pairs], dtype=np.int64)
    L = math.lcm(*(e.denominator for row in Y.rows for e in row))
    YL = np.array([[int(e * L) for e in row] for row in Y.rows], dtype=np.int64)
    key = L * a + b @ YL.T
    Ea = (a[:, None, :] == a[None, :, :]).all(-1).astype(np.int64)
    Ek = (key[:, None, :] == key[None, :, :]).all(-1).astype(np.int64)
    Eb = (b[:, None, :] == b[None, :, :]).all(-1).astype(np.int64)
    return int(np.einsum("pq,rs,pr,qs->", Ea, Ea, Ek, Eb))


def sumset_run(inp: dict, golden: Optional[dict], p: Pass) -> dict:
    checks = ((inp["xs_one"], EPS_ONE), (inp["xs_two"], EPS_TWO))

    def ratio(A, B, G):
        return [sumsets.check_ratio(A, B, G, Xs, eps) for Xs, eps in checks]

    def instance_ratio(s):
        A, B, G = sumsets.random_instance(s)
        return (A, B, G), ratio(A, B, G)

    def trapezia(s, box, max_size, X, Y):
        A, B, G = sumsets.random_instance(s, 2, box, max_size)
        return G, sumsets.count_trapezia(A, B, G, X, Y)

    kept = []  # the first instances and their reports, for the scaled pass
    with p.span("bench.ratio"):
        for s in inp["seeds"]:
            got = p.attempt(2, instance_ratio, s)
            with p.unclocked():
                if isinstance(got, Failed):
                    p.fail(f"check_ratio seed {s}: {got!r}", 2)
                    continue
                (A, B, G), reports = got
                sums_by_matrix = {}
                for (Xs, eps), r in zip(checks, reports):
                    want = _plain_ratio_fields(A, B, G, Xs, eps, sums_by_matrix)
                    if _report_fields(r) != want:
                        p.fail(f"check_ratio seed {s} eps {eps}: {_report_fields(r)} != {want}")
                if len(kept) < inp["scaled"]:
                    kept.append((s, (A, B, G), reports))
    with p.span(BIGINT_PHASE):
        for s, instance, reports in kept:
            with p.unclocked():  # building the scaled instance is the benchmark's work
                instance = _scaled(*instance, BIGINT_SCALE)
            got = p.attempt(2, ratio, *instance)
            with p.unclocked():
                if isinstance(got, Failed):
                    p.fail(f"scaled check_ratio seed {s}: {got!r}", 2)
                    continue
                for r_big, r in zip(got, reports):
                    if _report_fields(r_big) != _report_fields(r):
                        p.fail(f"scaled check_ratio seed {s}: {_report_fields(r_big)} != {_report_fields(r)}")
    with p.span("bench.trapezia"):
        for s, box, max_size, X, Y in inp["trapezia"]:
            got = p.attempt(1, trapezia, s, box, max_size, X, Y)
            with p.unclocked():
                if isinstance(got, Failed):
                    p.fail(f"count_trapezia seed {s}: {got!r}")
                    continue
                G, rep = got
                if not (rep.bracketed() and rep.identity_verified):
                    p.fail(f"count_trapezia seed {s}: not bracketed or identity failed")
                elif rep.g_size <= 24 and rep.count != einsum_trapezia(G, Y):
                    p.fail(f"count_trapezia seed {s}: count {rep.count} != einsum count")
    return {}


# ----------------------------------------------------------------------- registry

@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable[[int, str], dict]
    run: Callable[[dict, Optional[dict], Pass], dict]
    golden: bool  # whether ``run`` returns seed-independent outputs kept in golden.json


WORKLOADS = {
    w.name: w
    for w in (
        Workload("worstcase_cli", worstcase_inputs, worstcase_run, True),
        Workload("tube_overlap", overlap_inputs, overlap_run, True),
        Workload("sumset_sweep", sumset_inputs, sumset_run, False),
    )
}


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())
