"""The benchmark's own test: every workload at reduced size, fault injection,
raster goldens against the brute-force oracle, and the result-line contract.

    python3 -m pytest -q perfbench
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import oracle
import run
import tracer
import workloads
from kakeya_lab import curves, exact, raster, sumsets
from kakeya_lab.errors import KakeyaLabError

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _golden(name, size):
    return workloads.load_golden()[name][size] if workloads.WORKLOADS[name].golden else None


def _measure(name, trace=False, seed=7):
    wl = workloads.WORKLOADS[name]
    return run.measure(wl, wl.inputs(seed, "small"), _golden(name, "small"), 0, trace)


def test_benchmark_json_names_every_metric_and_workload():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == tracer.UNITS


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_reduced_workload_has_zero_error_rate(name):
    res = _measure(name)
    assert res["attempted"] > 0
    assert res["failures"] == []


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_pass_reports_every_layer_metric(name):
    res = _measure(name, trace=True)
    assert res["failures"] == []
    assert len(res["traced_walls"]) == 1
    assert set(res["layers"][0]) == set(tracer.UNITS) - {"trace.overhead_s"}


def test_trace_catches_cross_module_calls_and_restores_the_library():
    originals = (raster.w_matrix, sumsets.x_sumset, exact.RationalMatrix.mat_vec)
    t = tracer.Tracer()
    wl = workloads.WORKLOADS["sumset_sweep"]
    inp = wl.inputs(3, "small")
    with t:
        assert raster.w_matrix is not originals[0]
        raster.build_worstcase_kakeya(exact.companion([0, 0]), 3)
        wl.run(inp, None, workloads.Pass(t.span))
    assert (raster.w_matrix, sumsets.x_sumset, exact.RationalMatrix.mat_vec) == originals
    names = {t.names[i] for i in t.name_id}
    assert {"slices.w_matrix", "sumsets.x_sumset", "exact.RationalMatrix.mat_vec"} <= names
    own = t.self_times()
    assert all(s >= -1e-9 for s in own)
    assert math.isclose(sum(own), sum(t.end[i] - t.start[i] for i in range(len(t)) if t.parent[i] < 0),
                        rel_tol=1e-9)


def _drop_one_cell(fn):
    def wrong(spec, k, *args):
        cells = fn(spec, k, *args)
        return raster.CellSet(n=cells.n, k=cells.k, occupied=frozenset(sorted(cells.occupied)[1:]))
    return wrong


def _one_more_cell(fn):
    def wrong(spec, k):
        count, volume = fn(spec, k)
        return count + 1, volume
    return wrong


def _wider_diameter(fn):
    def wrong(family, t1, t2):
        diameter, sep = fn(family, t1, t2)
        return diameter * (1 + 1e-9), sep
    return wrong


def _drop_one_difference(fn):
    def wrong(A, B, G):
        out = fn(A, B, G)
        return sumsets.LatticeSet(dim=out.dim, points=frozenset(sorted(out.points)[1:]), scale=out.scale)
    return wrong


@pytest.mark.parametrize("name, module, attr, fault", [
    ("worstcase_cli", raster, "rasterize", _drop_one_cell),
    ("tube_overlap", raster, "union_volume", _one_more_cell),
    ("tube_overlap", curves, "intersection_diameter", _wider_diameter),
    ("sumset_sweep", sumsets, "difference_set", _drop_one_difference),
])
def test_injected_wrong_result_raises_error_rate(monkeypatch, name, module, attr, fault):
    monkeypatch.setattr(module, attr, fault(getattr(module, attr)))
    res = _measure(name)
    assert len(res["failures"]) / res["attempted"] > 0


def test_injected_exception_counts_as_failed(monkeypatch):
    def boom(*args):
        raise KakeyaLabError("injected")
    monkeypatch.setattr(sumsets, "count_trapezia", boom)
    res = _measure("sumset_sweep")
    assert len(res["failures"]) == workloads.CONFIG["sumset_sweep"]["small"]["trapezia"]


@pytest.mark.parametrize("size", workloads.SIZES)
def test_raster_goldens_match_stamping_oracle(size):
    worst = exact.companion([0, 0])
    k = min(workloads.CONFIG["worstcase_cli"][size]["ks"])
    body = workloads.load_golden()["worstcase_cli"][size]["csv_body"]
    counts = {int(r.split(",")[0]): int(r.split(",")[1]) for r in body.splitlines()[1:]}
    assert counts[k] == oracle.union_count(raster.build_worstcase_kakeya(worst, k), k)

    cfg = workloads.CONFIG["tube_overlap"][size]
    golden = workloads.load_golden()["tube_overlap"][size]
    k = min(cfg["union_ks"])
    spec = raster.build_worstcase_kakeya(exact.RationalMatrix(workloads.TWO_BLOCK), k,
                                         workloads.subspace_net(k, (0, 2), 4))
    assert golden["unions"][0][0] == oracle.union_count(spec, k)
    k = cfg["cover_k"]
    want = oracle.covering_norm(raster.build_worstcase_kakeya(worst, k), workloads.COVER_P, k)
    assert math.isclose(golden["covering_norm"], want, rel_tol=workloads.FLOAT_REL)


def test_every_raster_call_keys_stay_below_float_exact_range():
    for name, wl in workloads.WORKLOADS.items():
        for size in workloads.SIZES:
            for _, n, k in wl.inputs(0, size)["stamp_calls"]:
                assert workloads.key_bound(n, k) < workloads.KEY_EXACT_LIMIT


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_contract(trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "worstcase_cli", "--seed", "5",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=180)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in want}


def test_fails_without_library_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, str(Path(HERE.name) / "run.py"), "--workload", "worstcase_cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
