"""kakeya-lab benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload worstcase_cli --seed 1 --seconds 36 --trace 0

Run from any directory; the library is imported from ``src/`` next to this
directory. ``--trace 0`` times passes with tracing off for ``--seconds``
seconds and reports the end-to-end metrics; ``--trace 1`` spends half the time
on untraced passes and half on traced ones and reports the per-layer metrics.
Every operation's result is checked outside the pass's timed region. The last line of
standard output is the result as one JSON object; the lines before it name
each metric with its unit, the machine, and the key bound of every raster call.
Spans of a traced run are written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracer import UNITS as PER_LAYER_UNITS
from tracer import Tracer

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
SETUP_PROBES = 15
PROBE = Path(__file__).resolve().parent / "setup_probe.py"


def machine_info() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": workloads.np.__version__}


def setup_seconds(workload: str, seed: int) -> float:
    """Time from a fresh interpreter's start to its inputs being ready."""
    t0 = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    done = subprocess.run([sys.executable, str(PROBE), workload, str(seed)],
                          capture_output=True, text=True, timeout=120, check=True)
    return (int(done.stdout.split()[-1]) - t0) / 1e9


def measure(wl, inputs: dict, golden, seconds: float, trace: bool, span_path=None, probe=None) -> dict:
    """Timed passes for about ``seconds`` (at least one); with ``trace``, the second half traced.

    A new pass starts while the run would end nearer ``seconds`` with it than
    without it. Each pass starts after a full garbage collection, so it does
    not pay for the previous pass's garbage. Without ``trace``, ``probe`` (a
    function timing one set-up) is called SETUP_PROBES times, spread evenly
    over the run between the passes, so the set-up times see the same machine
    as the passes.
    """
    walls, traced_walls, layers, setups = [], [], [], []
    attempted, failures = 0, []

    def one_pass(span):
        nonlocal attempted
        gc.collect()
        p = workloads.Pass(span)
        wl.run(inputs, golden, p)
        wall = p.wall()
        attempted += p.attempted
        failures.extend(p.failures)
        return wall

    def passes(budget, span, out, after=None, probe=None):
        start = time.perf_counter()
        while True:
            while probe and len(setups) < min(SETUP_PROBES,
                                              SETUP_PROBES * (time.perf_counter() - start) / budget):
                setups.append(probe())
            out.append(one_pass(span))
            if after:
                after()
            elapsed = time.perf_counter() - start
            if elapsed + 0.5 * elapsed / len(out) >= budget:
                return

    if not trace:
        passes(seconds, contextlib.nullcontext, walls, probe=probe)
        while probe and len(setups) < SETUP_PROBES:
            setups.append(probe())
    else:
        passes(seconds / 2, contextlib.nullcontext, walls)
        tracer = Tracer()
        lo = 0

        def collect():
            nonlocal lo
            layers.append(tracer.layer_metrics(lo, len(tracer), tracer.counts))
            lo = len(tracer)
            tracer.counts.clear()

        with tracer:
            passes(seconds / 2, tracer.span, traced_walls, collect)
        if span_path is not None:
            tracer.dump(span_path)
    return {"walls": walls, "traced_walls": traced_walls, "layers": layers, "setups": setups,
            "attempted": attempted, "failures": failures}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = workloads.WORKLOADS[args.workload]

    print("# machine: " + json.dumps(machine_info(), sort_keys=True))
    golden = workloads.load_golden()[args.workload]["full"] if wl.golden else None
    inputs = wl.inputs(args.seed, "full")
    for fn, n, k in inputs["stamp_calls"]:
        bound = workloads.key_bound(n, k)
        print(f"# raster call {fn} n={n} k={k}: key bound (2^(k+1)+2)^n = {bound} = 2^{math.log2(bound):.2f}")
        if bound >= workloads.KEY_EXACT_LIMIT:
            print(f"perfbench: key bound {bound} is not below 2^53", file=sys.stderr)
            return 2

    workloads.OUT_DIR.mkdir(exist_ok=True)
    span_path = workloads.OUT_DIR / f"spans-{args.workload}.json"
    res = measure(wl, inputs, golden, args.seconds, bool(args.trace), span_path,
                  probe=lambda: setup_seconds(args.workload, args.seed))
    attempted, failed = res["attempted"], len(res["failures"])
    for msg in res["failures"][:20]:
        print(f"perfbench: FAILED {msg}", file=sys.stderr)

    walls = res["walls"]
    if args.trace:
        values = {name: statistics.median(row[name] for row in res["layers"]) for name in PER_LAYER_UNITS
                  if name != "trace.overhead_s"}
        values["trace.overhead_s"] = statistics.median(res["traced_walls"]) - statistics.median(walls)
        units = PER_LAYER_UNITS
        print(f"# {len(res['traced_walls'])} traced and {len(walls)} untraced passes; spans in {span_path}")
    else:
        values = {"wall_s": statistics.median(walls), "setup_s": statistics.median(res["setups"]),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        units = END_TO_END_UNITS
        print(f"# {len(walls)} passes, wall_s each: " + " ".join(f"{w:.4f}" for w in walls))
        print(f"# {len(res['setups'])} set-ups, setup_s each: " + " ".join(f"{s:.4f}" for s in res["setups"]))
    for name, unit in units.items():
        print(f"# {args.workload} {name} = {values[name]:.6g} {unit}")
    print(f"# {args.workload} error_rate = {failed / attempted:.6g} ({failed} of {attempted} operations)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
