"""Tests of the benchmark itself, at the tiny input size.

Each benchmark run is a fresh process (``run.py`` as the driver runs it),
so ``peak_rss_mb`` and the worker processes belong to that run alone.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]
#: every workload run.py accepts: plan-epinions runs outside BENCHMARK.json's set.
RUNNABLE = [*WORKLOADS, "plan-epinions"]


class Runner:
    """Runs ``run.py --size tiny`` once per (workload, trace, seed, tag)."""

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = out_dir
        self._cache: dict = {}

    def __call__(self, workload: str, trace: int, seed: int = 1, tag: str = "a") -> dict:
        key = (workload, trace, seed, tag)
        if key not in self._cache:
            out_dir = self.out_dir / tag
            completed = subprocess.run(
                [
                    sys.executable, str(HERE / "run.py"),
                    "--workload", workload, "--seed", str(seed), "--seconds", "1",
                    "--trace", str(trace), "--size", "tiny", "--out-dir", str(out_dir),
                ],
                capture_output=True, text=True, cwd=ROOT, timeout=300,
            )
            assert completed.returncode == 0, completed.stderr[-3000:]
            stem = f"{workload}-seed{seed}"
            self._cache[key] = {
                "line": json.loads(completed.stdout.strip().splitlines()[-1]),
                "result": json.loads(
                    (out_dir / f"result-{stem}-trace{trace}.json").read_text(encoding="utf-8")
                ),
                "trace_file": out_dir / f"trace-{stem}.json",
            }
        return self._cache[key]


@pytest.fixture(scope="module")
def run(tmp_path_factory) -> Runner:
    return Runner(tmp_path_factory.mktemp("perfbench"))


@pytest.mark.storage
@pytest.mark.parametrize("workload", RUNNABLE)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_declared_metric_is_emitted_with_its_unit(run, workload, trace):
    line = run(workload, trace)["line"]
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["attempted"] >= 1 and line["failed"] == 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: metric["unit"] for name, metric in line["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in declared
    }
    for metric in line["metrics"].values():
        assert isinstance(metric["value"], (int, float))


@pytest.mark.storage
def test_same_seed_reproduces_the_exact_metrics(run):
    first, second = run("serve-tpcc", 1, tag="a"), run("serve-tpcc", 1, tag="b")
    for name in ("storage.rpc_read_per_txn", "storage.rpc_apply_per_txn"):
        assert first["line"]["metrics"][name] == second["line"]["metrics"][name]
    assert first["line"]["metrics"]["storage.rpc_read_per_txn"]["value"] > 0
    assert (
        first["result"]["end_to_end"]["distributed_fraction"]
        == second["result"]["end_to_end"]["distributed_fraction"]
    )
    plans = run("plan-tpcc", 1, tag="a"), run("plan-tpcc", 1, tag="b")
    assert (
        plans[0]["line"]["metrics"]["plan_distributed_fraction"]
        == plans[1]["line"]["metrics"]["plan_distributed_fraction"]
    )
    assert plans[0]["result"]["detail"]["fingerprint"] == plans[1]["result"]["detail"]["fingerprint"]


def test_a_different_seed_changes_the_inputs(run):
    digest = {seed: run("plan-tpcc", 0, seed=seed)["result"]["detail"]["inputs_digest"] for seed in (1, 2)}
    assert digest[1] != digest[2]
    assert digest[1] == run("plan-tpcc", 1, seed=1)["result"]["detail"]["inputs_digest"]


@pytest.mark.storage
def test_traced_layers_account_for_the_transaction_latency(run):
    trace_file = run("serve-tpcc", 1)["trace_file"]
    summary = subprocess.run(
        [sys.executable, str(HERE / "summarize.py"), str(trace_file)],
        capture_output=True, text=True, check=True, cwd=ROOT,
    ).stdout
    assert "[storage.txn accounting]" in summary
    total = next(line for line in summary.splitlines() if "sum of layers" in line)
    assert total.strip().endswith("100.0%")
    assert "layers account for" in summary


def test_a_wrong_recorded_fingerprint_is_a_failed_check():
    sys.path.insert(0, str(ROOT / "src"))
    from plan_workloads import build_plan, check_plan, cli_options
    from spans import NullRecorder

    from repro.workloads import TpccConfig, generate_tpcc

    bundle = generate_tpcc(
        TpccConfig(warehouses=2, districts_per_warehouse=1, customers_per_district=4, items=10),
        num_transactions=40,
    )
    plan, _ = build_plan(
        NullRecorder(), cli_options(0, bundle.hash_columns), bundle.database,
        bundle.workload, None, None, bundle.name,
    )
    problems: list[str] = []
    check_plan(
        plan,
        {"fingerprint": plan.content_fingerprint(), "plan_distributed_fraction":
         plan.provenance.metrics["distributed_fraction"]},
        problems, "same",
    )
    assert problems == []
    check_plan(plan, {"fingerprint": "0" * 64, "plan_distributed_fraction": 2.0}, problems, "wrong")
    assert len(problems) == 2


def test_without_the_program_source_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "plan-tpcc", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=180,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout


def session_processes(session: int) -> list[int]:
    """Live or unreaped processes of ``session``, from ``/proc``."""
    found = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                stat = (entry / "stat").read_text()
            except OSError:
                continue
            # Fields after the parenthesised command: state ppid pgrp session ...
            if int(stat.rsplit(")", 1)[1].split()[3]) == session:
                found.append(int(entry.name))
    return found


@pytest.mark.storage
@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_a_serve_run_leaves_no_process_behind(tmp_path):
    process = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload", "serve-tpcc", "--seed", "1",
         "--seconds", "1", "--trace", "0", "--size", "tiny", "--out-dir", str(tmp_path)],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, cwd=ROOT, start_new_session=True,
    )
    assert process.wait(timeout=300) == 0
    assert session_processes(process.pid) == []
