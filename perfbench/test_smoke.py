"""Smoke test of the benchmark harness at toy sizes (8x8 and 10x10 grids).

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import reference
import run
import tracing

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_workloads_match_benchmark_json():
    assert tuple(w["name"] for w in SPEC["workloads"]) == run.WORKLOADS


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted(workload, trace):
    record = run.run(workload, 3, 0.0, trace, toy=True)
    result = record["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    if trace:
        calls = result["metrics"]["cooccur.enumerate_pairs_calls"]["value"]
        assert calls == (5 if workload == "experiment-default" else 1)
    else:
        assert record["extra"]["error_rate"]["value"] == 0.0


def _corrupt(out: Path) -> None:
    """Nudge the mutual information of the first grid in a CLI output."""
    if out.is_dir():
        path = out / "results_long.csv"
        lines = path.read_text(encoding="ascii").splitlines()
        i = next(i for i, line in enumerate(lines) if ",mutual_information," in line)
        head, _, value = lines[i].rpartition(",")
        lines[i] = f"{head},{float(value) + 1e-6!r}"
        path.write_text("\n".join(lines) + "\n", encoding="ascii")
    else:
        dec = json.loads(out.read_text(encoding="ascii"))
        dec["mutual_information"] += 1e-6
        out.write_text(json.dumps(dec), encoding="ascii")


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_corrupted_output_counts_as_error(workload, monkeypatch):
    cli = run.import_spatent().cli
    real_main = cli.main

    def corrupting_main(argv):
        code = real_main(argv)
        _corrupt(Path(argv[argv.index("--out") + 1]))
        return code

    monkeypatch.setattr(cli, "main", corrupting_main)
    record = run.run(workload, 3, 0.0, False, toy=True)
    result = record["result"]
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert record["extra"]["error_rate"]["value"] == 1.0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "decompose-large",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ["cli.main", -1, 0, 0, 100],
        ["cooccur.enumerate_pairs", 0, 0, 10, 40],
        ["prob.shannon", 0, 0, 30, 50],  # overlaps its sibling by 10
        ["prob.as_pmf", 2, 0, 35, 45],
    ]
    assert tracing.self_times(spans) == [60, 30, 10, 10]
    assert tracing.outermost(spans, {"prob.shannon", "prob.as_pmf"}) == [2]


def test_ref_seconds_uses_the_samples_around_an_operation():
    sampler = reference.ReferenceSampler([(np.ones((6, 6), dtype=int), 1)])
    per_ref = len(sampler._slices)
    # one slice took 1 s for the first 5 s, then 2 s
    sampler.samples = [(i / 10, 1.0 if i < 50 else 2.0) for i in range(100)]
    assert sampler.ref_seconds(1.0, 2.0) == per_ref
    assert sampler.ref_seconds(7.0, 8.0) == 2 * per_ref
    # far from every sample: the nearest MIN_SAMPLES decide
    assert sampler.ref_seconds(100.0, 101.0) == 2 * per_ref


def test_kernel_time_is_taken_out_of_operation_times():
    work = run.WORK / "test-kernel-time"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workload = run.make_workload(
            "decompose-many-categories", run.import_spatent(), 3, work, toy=True
        )
        sampler = reference.ReferenceSampler(workload.reference_grids())
        ops = run.run_ops(workload, run.import_spatent().cli, 0.5, sampler=sampler)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    assert sampler.samples and not any(op["failures"] for op in ops)
    kernel_s = sum(s[1] for s in sampler.samples)
    wall_s = ops[-1]["end"] - ops[0]["start"]
    assert sum(op["s"] for op in ops) < wall_s - 0.5 * kernel_s
