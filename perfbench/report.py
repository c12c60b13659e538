"""Run every workload once with tracing off and once with it on, each in a
fresh process, and print every metric by name and unit, with the error rate.

    python3 perfbench/report.py

Seed 0, and ``run_seconds`` of BENCHMARK.json for every run.
"""

import json
import subprocess
import sys
from pathlib import Path

import workloads

RUN = Path(__file__).resolve().parent / "run.py"
SECONDS = json.loads((RUN.parent.parent / "BENCHMARK.json").read_text())["run_seconds"]


def main() -> int:
    status = 0
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(RUN), "--workload", name, "--seed", "0",
                 "--seconds", str(SECONDS), "--trace", str(trace)],
                capture_output=True, text=True, timeout=600)
            if done.returncode != 0:
                print(f"{name} trace={trace}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
                status = 1
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            for metric, m in result["metrics"].items():
                print(f"{name:14} {metric:32} {m['value']:>16.6g} {m['unit']}")
            rate = result["failed"] / result["attempted"]
            print(f"{name:14} {'error_rate':32} {rate:>16.6g} ({result['failed']} of {result['attempted']})")
            status |= not result["correct"]
    return status


if __name__ == "__main__":
    sys.exit(main())
