"""Per-layer tracing from outside the library.

While a :class:`Tracer` is installed, every public function of each
``kakeya_lab`` module is replaced, under every module attribute that names it,
by a wrapper that records a span. So ``kakeya_lab.raster.w_matrix`` is caught
as well as ``kakeya_lab.slices.w_matrix``, and the spans of cross-module calls
nest. The public methods of ``RationalMatrix`` are wrapped on the class.
A layer is a module, and a span is named ``<module>.<function>``.

Spans stay in memory as columns (name, parent id, start, end) and are written
out once, by :meth:`Tracer.dump`. Self time is a span's duration minus the
durations of its children.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import workloads  # also puts the checkout's src/ first on sys.path

import kakeya_lab
from kakeya_lab import cli, curves, exact, raster, slices, sumsets

LAYER_MODULES = (cli, curves, exact, raster, slices, sumsets)
# exact.rat converts one scalar and runs per coordinate; a span per call would
# cost more than the work it measures.
UNTRACED = {"exact.rat"}

# Every per-layer metric the traced run reports, with its unit.
UNITS = {
    "cli.worstcase_s": "s",
    "cli.self_s": "s",
    "raster.build_s": "s",
    "raster.rasterize_s": "s",
    "raster.union_volume_s": "s",
    "raster.covering_norm_s": "s",
    "raster.hairbrush_s": "s",
    "raster.box_dimension_s": "s",
    "raster.tubes": "count",
    "raster.tube_bands": "count",
    "raster.cells": "count",
    "raster.cells_per_tube_band": "ratio",
    "raster.tube_bands_per_s": "1/s",
    "slices.self_s": "s",
    "slices.calls": "count",
    "curves.intersection_diameter_s": "s",
    "curves.calls": "count",
    "exact.self_s": "s",
    "exact.calls": "count",
    "sumsets.instance_s": "s",
    "sumsets.x_sumset_s": "s",
    "sumsets.difference_set_s": "s",
    "sumsets.check_ratio_s": "s",
    "sumsets.count_trapezia_s": "s",
    "sumsets.bigint_s": "s",
    "sumsets.instances": "count",
    "sumsets.pairs": "count",
    "sumsets.trapezia": "count",
    "sumsets.instances_per_s": "1/s",
    "trace.overhead_s": "s",
}

STAMPING = ("raster.rasterize", "raster.union_volume", "raster.covering_norm")


def band_count(k: int, t_range) -> int:
    """Height bands stamped at resolution k: band j covers [j, j+1) * 2^-k, runs
    over the padded range -2^k-1 <= j <= 2^k, and is stamped when its centre
    lies in ``t_range`` (the convention in the ``raster`` module docstring)."""
    delta = 2.0**-k
    lo, hi = max(-1.0, float(t_range[0])), min(1.0, float(t_range[1]))
    return sum(1 for j in range(-(2**k) - 1, 2**k + 1) if lo <= (j + 0.5) * delta <= hi)


def _count_raster(counts: Counter, name: str, args: dict, out):
    spec, k = args["spec"], args.get("k")
    counts["raster.tubes"] += len(spec.tubes)
    if name not in STAMPING:
        return
    tube_bands = len(spec.tubes) * band_count(k, spec.t_range)
    counts["raster.tube_bands"] += tube_bands
    if name == "raster.rasterize":
        counts["raster.cells"] += out.cell_count
    elif name == "raster.union_volume":
        counts["raster.cells"] += out[0]
    else:
        return
    counts["raster.cell_tube_bands"] += tube_bands


def _count_instance(counts: Counter, name: str, args: dict, out):
    counts["sumsets.instances"] += 1
    counts["sumsets.pairs"] += out[2].size


def _count_trapezia(counts: Counter, name: str, args: dict, out):
    counts["sumsets.trapezia"] += out.count


HOOKS = {
    "raster.rasterize": _count_raster,
    "raster.union_volume": _count_raster,
    "raster.covering_norm": _count_raster,
    "raster.hairbrush_decompose": _count_raster,
    "sumsets.random_instance": _count_instance,
    "sumsets.count_trapezia": _count_trapezia,
}


class Tracer:
    """Spans and counters of traced passes; a context manager that installs the wrappers."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._patches: list = []

    def __len__(self) -> int:
        return len(self.parent)

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.parent)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid: int):
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        sid = self._open(name)
        try:
            yield
        finally:
            self._close(sid)

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        sig = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if hook:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self.counts, name, bound.arguments, out)
            return out

        return traced

    def __enter__(self):
        for module in LAYER_MODULES:
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not obj.__module__.startswith("kakeya_lab."):
                    continue
                name = f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__name__}"
                if name not in UNTRACED:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, self._wrap(name, obj))
        cls = exact.RationalMatrix
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"exact.RationalMatrix.{attr}"
            if isinstance(obj, classmethod):
                self._patches.append((cls, attr, obj))
                setattr(cls, attr, classmethod(self._wrap(name, obj.__func__)))
            elif inspect.isfunction(obj):
                self._patches.append((cls, attr, obj))
                setattr(cls, attr, self._wrap(name, obj))
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, obj = self._patches.pop()
            setattr(owner, attr, obj)
        return False

    def self_times(self, lo: int = 0, hi: int | None = None) -> list[float]:
        """Self time of spans lo..hi-1; their parents must lie in the same range or be roots."""
        hi = len(self) if hi is None else hi
        own = [self.end[i] - self.start[i] for i in range(lo, hi)]
        for i in range(lo, hi):
            p = self.parent[i]
            if p >= lo:
                own[p - lo] -= self.end[i] - self.start[i]
        return own

    def layer_metrics(self, lo: int, hi: int, counts: Counter) -> dict:
        """The per-layer metrics of the spans lo..hi-1 (one traced pass) and its counters."""
        own = self.self_times(lo, hi)
        self_by = Counter()
        incl_by = Counter()
        calls_by_layer = Counter()
        self_by_layer = Counter()
        root_sumsets = 0.0
        phase = {}
        for i in range(lo, hi):
            name = self.names[self.name_id[i]]
            layer = name.split(".", 1)[0]
            p = self.parent[i]
            phase[i] = phase[p] if p >= lo else name  # the pass phase (a bench.* span) it ran in
            dur = self.end[i] - self.start[i]
            bigint = layer == "sumsets" and phase[i] == workloads.BIGINT_PHASE
            self_by["bigint:" + name if bigint else name] += own[i - lo]
            incl_by[name] += dur
            calls_by_layer[layer] += 1
            self_by_layer[layer] += own[i - lo]
            if layer == "sumsets" and p >= lo and self.names[self.name_id[p]].startswith("bench."):
                root_sumsets += dur
        stamping_s = sum(self_by[n] for n in STAMPING)
        return {
            "cli.worstcase_s": incl_by["cli.main"],
            "cli.self_s": self_by_layer["cli"],
            "raster.build_s": self_by["raster.build_worstcase_kakeya"],
            "raster.rasterize_s": self_by["raster.rasterize"],
            "raster.union_volume_s": self_by["raster.union_volume"],
            "raster.covering_norm_s": self_by["raster.covering_norm"],
            "raster.hairbrush_s": self_by["raster.hairbrush_decompose"],
            "raster.box_dimension_s": self_by["raster.box_dimension"],
            "raster.tubes": counts["raster.tubes"],
            "raster.tube_bands": counts["raster.tube_bands"],
            "raster.cells": counts["raster.cells"],
            "raster.cells_per_tube_band": _ratio(counts["raster.cells"], counts["raster.cell_tube_bands"]),
            "raster.tube_bands_per_s": _ratio(counts["raster.tube_bands"], stamping_s),
            "slices.self_s": self_by_layer["slices"],
            "slices.calls": calls_by_layer["slices"],
            "curves.intersection_diameter_s": self_by["curves.intersection_diameter"],
            "curves.calls": calls_by_layer["curves"],
            "exact.self_s": self_by_layer["exact"],
            "exact.calls": calls_by_layer["exact"],
            "sumsets.instance_s": self_by["sumsets.random_instance"],
            "sumsets.x_sumset_s": self_by["sumsets.x_sumset"],
            "sumsets.difference_set_s": self_by["sumsets.difference_set"],
            "sumsets.check_ratio_s": self_by["sumsets.check_ratio"] + self_by["bigint:sumsets.check_ratio"],
            "sumsets.count_trapezia_s": self_by["sumsets.count_trapezia"],
            "sumsets.bigint_s": self_by["bigint:sumsets.x_sumset"] + self_by["bigint:sumsets.difference_set"],
            "sumsets.instances": counts["sumsets.instances"],
            "sumsets.pairs": counts["sumsets.pairs"],
            "sumsets.trapezia": counts["sumsets.trapezia"],
            "sumsets.instances_per_s": _ratio(counts["sumsets.instances"], root_sumsets),
        }

    def dump(self, path):
        """Write every span recorded, once, as columns of one JSON document."""
        doc = {
            "library": kakeya_lab.__file__,
            "names": self.names,
            "name_id": self.name_id.tolist(),
            "parent": self.parent.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
        }
        path.write_text(json.dumps(doc, separators=(",", ":")))


def _ratio(num, den) -> float:
    return num / den if den else 0.0
