"""Tests of the benchmark itself, in its seconds-long smoke mode.

    python3 -m pytest perfbench/test_perfbench.py -q

Each test runs ``perfbench/run.py`` as a subprocess with ``--seconds 1``.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

#: per-layer counts that must repeat exactly for a fixed seed
EXACT = ("model.decomps_per_rep", "screening.conditional_transform.calls_per_call",
         "multisplit.split_p1_frac", "lrt.t3_test.t2_fire_frac")

#: workload-specific names printed next to the generic end-to-end metrics
NAMED = {"mc_sweep": ("mc_reps_per_s",),
         "multisplit_hd": ("ms_splits_per_s", "ms_call_p50_s"),
         "tall_fit": ("fit_call_p50_s", "fit_call_p90_s", "cli_test_p50_s")}


def bench(workload, trace, seed=7, root=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=300)
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    return last


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_printed_with_unit(workload):
    proc = bench(workload, trace=0)
    metrics = result(proc)["metrics"]
    lines = proc.stdout.splitlines()
    for m in SPEC["end_to_end"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert metrics[m["name"]]["value"] > 0
    for name in [m["name"] for m in SPEC["end_to_end"]] + list(NAMED[workload]) + ["error_frac"]:
        assert any(line.startswith(f"{name} = ") and len(line.split()) == 4 for line in lines), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counts_repeat(workload):
    first = result(bench(workload, trace=1))["metrics"]
    second = result(bench(workload, trace=1))["metrics"]
    assert set(first) == {m["name"] for m in SPEC["per_layer"]}
    for name in EXACT + tuple(n for n in first if n.endswith(".calls")):
        assert first[name] == second[name], name
    if workload == "mc_sweep":
        assert first["model.decomps_per_rep"]["value"] == 6
    if workload == "multisplit_hd":
        assert first["screening.conditional_transform.calls_per_call"]["value"] == 200


def test_refuses_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(WORKLOADS[0], trace=0, root=str(tmp_path))
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
