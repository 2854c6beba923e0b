"""The benchmark's per-layer contract, checked against this source tree.

``perfbench/layers.py`` traces names of the package from outside it.  A name
it no longer finds, or one a workload never calls where a ratio needs calls,
reads as ``null`` in the benchmark's result line, which makes that line
malformed.  Each workload's plan is run here, shortened to two rounds, in a
traced workload process exactly as the benchmark starts one.
"""

import importlib.util
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _perfbench_module(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _perfbench_module("workloads")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_workload_reports_every_layer(workload):
    spec = {
        "src": str(ROOT / "src"),
        "plan": workloads.plan(workload, 1, rounds=2),
        "trace": True,
        "spans_path": None,
        "launch": time.monotonic(),
    }
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "child.py")],
        input=json.dumps(spec),
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
        cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["layer_reasons"] == {}
    bad = {
        name: value
        for name, value in report["layers"].items()
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value)
    }
    assert bad == {}
    for exp in report["experiments"]:
        assert exp["failures"] == [], (exp["id"], exp["failures"])
