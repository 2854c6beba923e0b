"""One workload process: a fresh interpreter that runs one plan and reports.

Reads a JSON spec on stdin::

    {"src": ".../src", "plan": [...], "trace": false, "launch": <time.monotonic()>,
     "spans_path": null}

imports ``dpfed`` from ``src`` (and only from there), runs every experiment of
the plan back to back through ``dpfed.cli.run_experiment``, and prints one
JSON line with timings, CSV hashes, output checks and, when traced, the
per-layer metrics.  The CSV goes to an in-memory stream that timestamps each
write, so per-round intervals are measured without patching program code.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time


class StampedStream:
    """Write-only text sink keeping the text and a ``perf_counter`` stamp per write."""

    def __init__(self):
        self.parts: list[str] = []
        self.stamps: list[float] = []

    def write(self, text: str) -> int:
        self.stamps.append(time.perf_counter())
        self.parts.append(text)
        return len(text)

    def text(self) -> str:
        return "".join(self.parts)


def _check(entry: dict, result, cli) -> list[str]:
    """Output checks for one experiment; returns the failures."""
    failures = []
    if result.exit_code != cli.EXIT_OK:
        failures.append(f"exit code {result.exit_code}")
    if len(result.metrics) != entry["rounds"]:
        failures.append(f"{len(result.metrics)} of {entry['rounds']} rounds ran")
    eps = [m.cumulative_epsilon for m in result.metrics]
    if any(b < a for a, b in zip(eps, eps[1:])):
        failures.append("cumulative_epsilon decreased")
    if any(not e <= entry["budget"] for e in eps):
        failures.append(f"cumulative_epsilon above the budget {entry['budget']}")
    return failures


def main() -> int:
    spec = json.load(sys.stdin)
    mono0, pc0 = time.monotonic(), time.perf_counter()
    src = os.path.realpath(spec["src"])
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import dpfed.cli as cli

    import_s = time.perf_counter() - t0
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"dpfed was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = missing = None
    if spec["trace"]:
        from layers import instrument
        from spans import Tracer

        tracer = Tracer()
        missing = instrument(tracer)

    experiments, first_header = [], None
    for entry in spec["plan"]:
        cfg = cli.parse_config(entry["config"])
        stream = StampedStream()
        if tracer is not None:
            tracer.experiment = entry["id"]
        start = time.perf_counter()
        result = cli.run_experiment(cfg, csv_stream=stream)
        wall = time.perf_counter() - start
        if first_header is None and stream.stamps:
            first_header = stream.stamps[0]
        experiments.append(
            {
                "id": entry["id"],
                "wall_s": wall,
                "intervals_s": [b - a for a, b in zip(stream.stamps, stream.stamps[1:])],
                "csv_sha256": hashlib.sha256(stream.text().encode("utf-8")).hexdigest(),
                "rounds_run": len(result.metrics),
                "client_rounds": len(result.metrics) * entry["selected"],
                "final_accuracy": result.summary["final_accuracy"],
                "failures": _check(entry, result, cli),
            }
        )

    report = {
        "setup_s": None if first_header is None else (mono0 - spec["launch"]) + (first_header - pc0),
        "import_s": import_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "experiments": experiments,
    }
    if tracer is not None:
        from layers import layer_metrics

        summary = tracer.summary()
        report["layers"], report["layer_reasons"] = layer_metrics(summary, tracer.counts, missing, import_s)
        report["span_calls"] = dict(summary[0])
        report["spans"] = len(tracer.spans)
        if spec.get("spans_path"):
            tracer.write(spec["spans_path"])
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    report["env"] = {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
