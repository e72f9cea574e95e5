"""Record the plan fingerprints the benchmark's correctness check compares.

Usage (from the repository root)::

    python3 perfbench/record_fingerprints.py --seeds 0-29 [--workload plan-tpcc]

For every workload and input seed it builds the plan exactly as ``run.py``
does at full size and stores ``content_fingerprint()`` plus the plan's
distributed fraction in ``perfbench/fingerprints.json``.  Run it only when
a change is meant to alter the plans; a change that must keep them
byte-identical is checked against the recorded values.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=parse_seeds, required=True, help="e.g. 0-39")
    parser.add_argument("--workload", action="append", help="default: every workload")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE.parent / "src"))

    from plan_workloads import PLAN_WORKLOADS, TRAIN_FRACTION, build_plan, cli_options
    from serve_workload import SIZES, generate, train
    from spans import NullRecorder

    from repro.cli import WORKLOADS
    from repro.utils.rng import SeededRng
    from repro.workload.splitter import split_workload

    path = HERE / "fingerprints.json"
    recorded = json.loads(path.read_text(encoding="utf-8"))
    recorder = NullRecorder()
    for seed in args.seeds:
        plans = {}
        for workload, (cli_name, scales) in PLAN_WORKLOADS.items():
            if args.workload and workload not in args.workload:
                continue
            bundle = WORKLOADS[cli_name](scales["full"], seed)
            training, test = split_workload(
                bundle.workload, TRAIN_FRACTION, rng=SeededRng(seed)
            )
            plans[workload], _ = build_plan(
                recorder, cli_options(seed, bundle.hash_columns), bundle.database,
                training, test, None, bundle.name,
            )
        if not args.workload or "serve-tpcc" in args.workload:
            # The serve plan depends on the first ``train`` transactions only.
            bundle = generate(seed, "full", SIZES["full"]["train"])
            plans["serve-tpcc"], _ = train(recorder, seed, "full", bundle, None)
        for workload, plan in plans.items():
            recorded.setdefault(workload, {})[str(seed)] = {
                "fingerprint": plan.content_fingerprint(),
                "plan_distributed_fraction": plan.provenance.metrics["distributed_fraction"],
            }
        print(f"seed {seed}: " + ", ".join(
            f"{w} {p.content_fingerprint()[:12]}" for w, p in plans.items()
        ), flush=True)
        path.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
