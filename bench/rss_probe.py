"""Peak resident memory of one pass of a workload, in a fresh process.

    python3 bench/rss_probe.py <workload> <seed> <out dir>

Runs the pass exactly as ``run.py`` times it, on the configs ``run.py``
wrote to the out dir, and prints one JSON object: ``peak_rss_mb`` and the
SHA-256 of the CSVs it wrote. Only the package and the pass are in this
process, so the figure is the workload's and not the benchmark's.
"""
import json
import sys
from pathlib import Path

import run
from spans import LIGHT, Recorder
from workloads import WORKLOADS


def peak_rss_mb() -> float:
    """This process's own high-water resident set (Linux). `ru_maxrss` would
    not do: the kernel carries the parent's peak across fork and exec."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise SystemExit("error: no VmHWM in /proc/self/status")


if __name__ == "__main__":
    name, seed, out_dir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    _, cli = run._import_package()
    workload = WORKLOADS[name](seed)
    config_paths = [out_dir / f"config-{i:02d}.json" for i in range(len(workload.configs))]
    csv_paths = [out_dir / f"rss-{i:02d}.csv" for i in range(len(workload.configs))]
    rec = Recorder()
    rec.install(LIGHT)
    run._run_pass(cli, workload, config_paths, csv_paths, rec)
    print(json.dumps({"peak_rss_mb": peak_rss_mb(), "digest": run._csv_digest(csv_paths)}))
