"""Record ``golden.json``: the seed-independent outputs of each workload, per size.

    python3 perfbench/record_golden.py

Run it only when the library's intended outputs change; the benchmark's test
checks the raster goldens against a brute-force stamping oracle.
"""

import workloads


def main():
    golden = {}
    for name, wl in workloads.WORKLOADS.items():
        if wl.golden:
            golden[name] = {size: wl.run(wl.inputs(0, size), None, workloads.Pass()) for size in workloads.SIZES}
    workloads.GOLDEN_PATH.write_text(workloads.json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
