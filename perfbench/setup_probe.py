"""Set-up probe: start an interpreter, import numpy and kakeya_lab, build a
workload's inputs, and print the CLOCK_MONOTONIC time in ns at which they are
ready. ``run.py`` reads the same clock before starting this process, so the
difference is the set-up time up to the first timed call.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys
import time

import workloads

workloads.WORKLOADS[sys.argv[1]].inputs(int(sys.argv[2]), "full")
print(time.clock_gettime_ns(time.CLOCK_MONOTONIC))
