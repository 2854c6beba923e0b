"""Self-tests of the benchmark: ``python3 -m pytest -q perfbench``.

They run shortened plans (3 rounds per experiment) in fresh workload
processes, exactly as the benchmark does, and check the per-layer counts
against invariants that follow from the configs.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import pytest

import layers
import run
import spans
import workloads

SMOKE_ROUNDS = 3


def _traced_twice(plan):
    untraced = run.run_pass(plan, trace=False)
    traced = [run.run_pass(plan, trace=True) for _ in range(2)]
    for report in [untraced, *traced]:
        assert "error" not in report, report.get("error")
        for exp in report["experiments"]:
            assert exp["failures"] == [], (exp["id"], exp["failures"])
    return untraced, traced


def _distinct_budgets(plan) -> int:
    keys = set()
    for entry in plan:
        cfg = dict(line.split(" = ", 1) for line in entry["config"].splitlines())
        eps = cfg.get("heterogeneous_epsilons", cfg["epsilon"]).split(",")
        keys |= {(cfg["mechanism"], float(e), entry["rounds"]) for e in eps}
    return len(keys)


def test_benchmark_json_matches_the_code():
    record = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in record["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in record["workloads"]] == [workloads.WHY[w] for w in workloads.WORKLOADS]
    assert [(m["name"], m["unit"]) for m in record["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in record["per_layer"]] == list(layers.METRICS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_traced_counts_repeat_and_match_the_config(workload):
    plan = workloads.plan(workload, seed=0, rounds=SMOKE_ROUNDS)
    untraced, traced = _traced_twice(plan)

    assert run._hashes(traced[0]) == run._hashes(untraced) == run._hashes(traced[1])
    assert traced[0]["span_calls"] == traced[1]["span_calls"]
    for name, unit, _ in layers.METRICS:
        if unit != "s" and name not in layers.OVERHEAD:
            assert traced[0]["layers"][name] == traced[1]["layers"][name], name
    nulls = {name for name, value in traced[0]["layers"].items() if value is None}
    assert nulls == set(traced[0]["layer_reasons"])

    calls = traced[0]["span_calls"]
    assert calls["fl_core.run_round"] == sum(e["rounds"] for e in plan)
    assert calls["fl_core.local_update"] == sum(e["rounds"] * e["selected"] for e in plan)
    assert traced[0]["layers"]["accountant.calibrate_noise.calls"] == _distinct_budgets(plan)
    aggregate = "mode_connectivity.mode_connect_aggregate.calls"
    assert (traced[0]["layers"][aggregate] > 0) == (workload == "modeconnect")


def test_missing_names_report_null_with_reason():
    assert layers._resolve("json", "no_such_name")[2] == "json has no no_such_name"
    missing = {"accountant.cached_rdp_curve": "dpfed.accountant has no cached_rdp_curve"}
    tracer = spans.Tracer()
    values, reasons = layers.layer_metrics(tracer.summary(), tracer.counts, missing, 0.1)
    for name in ("accountant.cached_rdp_curve.calls", "accountant.cached_rdp_curve.hit_ratio"):
        assert values[name] is None
        assert reasons[name] == missing["accountant.cached_rdp_curve"]
    assert values["mechanisms.rdp.calls"] == 0


def test_partial_selection_and_cached_budgets():
    # 35% of 10 clients selects ceil(3.5) = 4; the second experiment reuses
    # the first one's budget, so only two calibrations run.
    base = {"rounds": SMOKE_ROUNDS, "clients": 10, "selection_fraction": 0.35, "sample_rate": 0.2}
    plan = [
        workloads._entry("a", base | {"mechanism": "laplace", "epsilon": 6.0, "seed": 1}, 6.0),
        workloads._entry("b", base | {"mechanism": "laplace", "epsilon": 6.0, "seed": 2}, 6.0),
        workloads._entry("c", base | {"mechanism": "gaussian", "epsilon": 6.0, "seed": 3}, 6.0),
    ]
    _, traced = _traced_twice(plan)
    assert traced[0]["span_calls"]["fl_core.local_update"] == 3 * SMOKE_ROUNDS * math.ceil(0.35 * 10)
    assert traced[0]["layers"]["accountant.calibrate_noise.calls"] == _distinct_budgets(plan) == 2


def test_exits_nonzero_without_the_program():
    bare = run.OUT / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "dense-fedavg", "--seed", "0", "--seconds", "1"],
            cwd=bare,
            capture_output=True,
            text=True,
            timeout=60,
        )
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
