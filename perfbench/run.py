"""dpfed benchmark: federated workloads measured end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload dense-fedavg --seed 1 --seconds 30 --trace 0

Load shape: a closed loop with one client.  Each workload process is a fresh
interpreter (``perfbench/child.py``) that imports ``dpfed`` from ``src/``
and calls ``dpfed.cli.run_experiment`` once per config of the workload's plan,
each experiment starting when the previous one returns.  Processes run one
after another until ``--seconds`` have passed (at least ``MIN_PASSES``), so
memo caches fill within a process, as in a sweep, but never carry over.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced processes on the same plan, reports the per-layer
metrics from the traced ones and the tracing overhead, and checks that
tracing leaves every CSV byte-identical.

Output checks, each failing the experiment it concerns: the experiment's exit
code is 0 and it ran every round; ``cumulative_epsilon`` never decreases and
never exceeds the budget (the largest client budget); every process of a run
writes byte-identical CSVs for the same plan.  The last stdout line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it are a readable report.  Full results, the environment and each
experiment's CSV sha256 go to ``perfbench/out/``.  The exit code is 0 only
when every check passed.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# One thread: the matrices are tiny, and BLAS worker threads would only
# contend with the loop on a small shared machine.
BLAS_THREADS = 1
MIN_PASSES = 3
MIN_TRACED_PAIRS = 2
CHILD_TIMEOUT_S = 120

# The end-to-end metrics in the result line, as listed in BENCHMARK.json.
# Round times are gated by upper percentiles.  On a shared 2-core VM the CPU
# speed swings by up to 1.6x between states lasting seconds to minutes; over
# ten 30 s runs that moved medians and means by 19-38% (IQR over median)
# against 10-19% for the 75th and 90th percentiles of round time.
END_TO_END = (
    ("setup_s", "s"),
    ("round_ms_p75", "ms"),
    ("round_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
    ("final_accuracy_mean", "fraction"),
)
# Printed and saved with every run, but too unsteady there to gate on.
REPORT_ONLY = (
    ("experiment_s", "s"),
    ("round_ms_p50", "ms"),
    ("client_rounds_per_s", "1/s"),
)


def run_pass(plan: list[dict], trace: bool, spans_path: Path | None = None) -> dict:
    """Run ``plan`` in a fresh interpreter; returns the child's report, or
    ``{"error": ...}`` when the process failed."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    spec = {
        "src": str(SRC),
        "plan": plan,
        "trace": trace,
        "spans_path": str(spans_path) if spans_path else None,
        "launch": time.monotonic(),
    }
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py")],
            input=json.dumps(spec),
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
            env=env,
            cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"workload process exceeded {CHILD_TIMEOUT_S} s"}
    if proc.returncode != 0:
        return {"error": f"workload process exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _hashes(report: dict) -> list[str]:
    return [exp["csv_sha256"] for exp in report["experiments"]]


class Checks:
    """Counts experiments attempted and failed, with the reasons."""

    def __init__(self, plan_size: int):
        self.plan_size = plan_size
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add_pass(self, label: str, report: dict, reference: list[str] | None) -> None:
        self.attempted += self.plan_size
        if "error" in report:
            self.failed += self.plan_size
            self.problems.append(f"{label}: {report['error']}")
            return
        for i, exp in enumerate(report["experiments"]):
            failures = list(exp["failures"])
            if reference is not None and exp["csv_sha256"] != reference[i]:
                failures.append("CSV differs from the reference process")
            if failures:
                self.failed += 1
                self.problems.append(f"{label} {exp['id']}: {'; '.join(failures)}")

    def fail_run(self, message: str) -> None:
        self.failed = self.attempted
        self.problems.append(message)


def _end_to_end(passes: list[dict]) -> tuple[dict, dict]:
    exps = [exp for report in passes for exp in report["experiments"]]
    intervals_ms = [1000.0 * dt for exp in exps for dt in exp["intervals_s"]]
    walls = [exp["wall_s"] for exp in exps]
    values = {
        "setup_s": statistics.median(report["setup_s"] for report in passes),
        "experiment_s": statistics.median(walls),
        "round_ms_p50": statistics.median(intervals_ms),
        "round_ms_p75": statistics.quantiles(intervals_ms, n=4)[2],
        "round_ms_p90": statistics.quantiles(intervals_ms, n=10)[8],
        "client_rounds_per_s": sum(exp["client_rounds"] for exp in exps) / sum(walls),
        "peak_rss_mb": statistics.median(report["peak_rss_mb"] for report in passes),
        "final_accuracy_mean": statistics.fmean(exp["final_accuracy"] for exp in passes[0]["experiments"]),
    }
    samples = {
        "setup_s": f"median of {len(passes)} processes",
        "experiment_s": f"median of {len(walls)} experiments",
        "round_ms_p50": f"median of {len(intervals_ms)} round intervals",
        "round_ms_p75": f"75th percentile of {len(intervals_ms)} round intervals",
        "round_ms_p90": f"90th percentile of {len(intervals_ms)} round intervals",
        "client_rounds_per_s": f"{sum(exp['client_rounds'] for exp in exps)} client-rounds",
        "peak_rss_mb": f"median of {len(passes)} processes",
        "final_accuracy_mean": f"mean of {len(passes[0]['experiments'])} experiments",
    }
    return values, samples


def _per_layer(untraced: list[dict], traced: list[dict], checks: Checks) -> tuple[dict, dict]:
    values, reasons = {}, dict(traced[0]["layer_reasons"])
    for name, unit, _ in layers.METRICS:
        if name in layers.OVERHEAD:
            continue
        seen = [report["layers"][name] for report in traced]
        if unit == "s" and None not in seen:
            values[name] = statistics.median(seen)
        else:
            values[name] = seen[0]
            if any(v != seen[0] for v in seen):
                checks.fail_run(f"per-layer count {name} differs between traced processes: {seen}")
    base = statistics.median(sum(e["wall_s"] for e in r["experiments"]) for r in untraced)
    with_trace = statistics.median(sum(e["wall_s"] for e in r["experiments"]) for r in traced)
    values["trace.overhead_s"] = with_trace - base
    values["trace.overhead_frac"] = (with_trace - base) / base
    return values, reasons


def _environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "dpfed").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "blas_threads": BLAS_THREADS,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dpfed" / "__init__.py").is_file():
        print(f"error: no dpfed package under {SRC}; run from a dpfed checkout", file=sys.stderr)
        return 2
    compileall.compile_dir(str(SRC / "dpfed"), quiet=1)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    env = _environment()
    env["loadavg_1m_start"] = os.getloadavg()[0]

    plan = workloads.plan(args.workload, args.seed)
    checks = Checks(len(plan))
    deadline = time.monotonic() + args.seconds
    untraced, traced = [], []
    reference = None
    while True:
        report = run_pass(plan, trace=False)
        checks.add_pass(f"process {len(untraced) + len(traced)}", report, reference)
        if "error" in report:
            break
        untraced.append(report)
        reference = reference or _hashes(report)
        if args.trace:
            spans = OUT / f"{stem}-spans.jsonl.gz" if not traced else None
            report = run_pass(plan, trace=True, spans_path=spans)
            checks.add_pass(f"traced process {len(traced)}", report, reference)
            if "error" in report:
                break
            traced.append(report)
        enough = len(traced) >= MIN_TRACED_PAIRS if args.trace else len(untraced) >= MIN_PASSES
        if enough and time.monotonic() >= deadline:
            break
    env["loadavg_1m_end"] = os.getloadavg()[0]
    if untraced:
        env.update(untraced[0]["env"])

    metrics, reported, samples, reasons = {}, {}, {}, {}
    if checks.failed == 0:
        if args.trace:
            values, reasons = _per_layer(untraced, traced, checks)
            gated = [(name, unit) for name, unit, _ in layers.METRICS]
        else:
            values, samples = _end_to_end(untraced)
            gated = END_TO_END
            reported = {name: {"value": values[name], "unit": unit} for name, unit in REPORT_ONLY}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in gated}
    correct = checks.failed == 0 and bool(metrics)

    lines = [
        f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
        f"processes {len(untraced)} untraced + {len(traced)} traced  experiments {checks.attempted}",
    ]
    for name, metric in (metrics | reported).items():
        value = "null" if metric["value"] is None else f"{metric['value']:.6g}"
        note = samples.get(name) or reasons.get(name, "")
        if name in reported:
            note += " (report only)"
        lines.append(f"  {name:48s} {value:>12s} {metric['unit']:9s} {note}")
    lines.append(
        f"  {'failed_frac':48s} {checks.failed / max(checks.attempted, 1):>12.6g} {'fraction':9s} "
        f"{checks.failed} of {checks.attempted} experiments"
    )
    lines += [f"  FAIL {problem}" for problem in checks.problems]
    if untraced:
        lines += [f"  csv sha256 {e['id']} {e['csv_sha256']}" for e in untraced[0]["experiments"]]
    lines.append("  env " + json.dumps(env))
    print("\n".join(lines))

    record = {
        "workload": args.workload,
        "why": workloads.WHY[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "metrics": metrics,
        "report_only": reported,
        "samples": samples,
        "null_reasons": reasons,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "problems": checks.problems,
        "plan": plan,
        "processes": [],
    }
    for report in untraced + traced:
        # per-round intervals are summarised in the metrics, not kept
        experiments = [{k: v for k, v in exp.items() if k != "intervals_s"} for exp in report["experiments"]]
        record["processes"].append(report | {"traced": "layers" in report, "experiments": experiments})
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(json.dumps({"correct": correct, "attempted": checks.attempted, "failed": checks.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
