"""Measure the run-to-run spread of every end-to-end metric.

Usage (from the repository root)::

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json

Runs ``run.py --trace 0`` once per workload and seed, each in its own
process, and records for every end-to-end metric its values, median,
quartiles (``statistics.quantiles(values, n=4)``) and spread (quartile
distance over the median) next to the metric's bound from
``BENCHMARK.json`` (none for the ungated ones the result file also holds).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from record_fingerprints import parse_seeds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=parse_seeds, required=True, help="e.g. 1-10")
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {metric["name"]: metric["bound"] for metric in benchmark["end_to_end"]}
    workloads = args.workload or [workload["name"] for workload in benchmark["workloads"]]
    seconds = str(benchmark["run_seconds"])
    report: dict = {"seeds": args.seeds, "run_seconds": benchmark["run_seconds"], "workloads": {}}
    for workload in workloads:
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            completed = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", seconds, "--trace", "0"],
                capture_output=True, text=True, cwd=ROOT,
            )
            if completed.returncode != 0:
                raise SystemExit(f"{workload} seed {seed} failed:\n{completed.stderr[-3000:]}")
            result = json.loads(
                (HERE / "out" / f"result-{workload}-seed{seed}-trace0.json").read_text(encoding="utf-8")
            )
            for name, metric in result["end_to_end"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: done", flush=True)
        rows = {}
        for name, series in values.items():
            median = statistics.median(series)
            first, _, third = statistics.quantiles(series, n=4)
            spread = (third - first) / median if median else 0.0
            rows[name] = {
                "median": median, "q1": first, "q3": third, "spread": spread,
                "bound": bounds.get(name), "values": series,
            }
            print(f"  {name:26} median {median:12.6g}  spread {spread:6.1%}  bound {bounds.get(name)}")
        report["workloads"][workload] = rows
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
