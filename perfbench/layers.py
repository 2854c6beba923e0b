"""Per-layer instrumentation of ``dpfed`` from outside the package.

``instrument`` wraps each traced name in a span and rebinds the wrapper in
every ``dpfed`` module namespace that binds the original (``calibrate_noise``
is looked up in ``dpfed.cli``, ``sample_noise_array`` in ``dpfed.fl_core``,
and so on); methods are patched on their class.  A name the package no longer
has is reported, with the reason, instead of raising.  No program code is
edited and the CSV output is unchanged.
"""

from __future__ import annotations

import functools
import sys

# (span name, module, attribute or Class.method, counter taken from the result)
TRACED = (
    ("cli.run_experiment", "dpfed.cli", "run_experiment", None),
    ("cli.make_synthetic_federation", "dpfed.fl_core", "make_synthetic_federation", None),
    ("cli.format_metrics_row", "dpfed.cli", "format_metrics_row", None),
    ("accountant.calibrate_noise", "dpfed.accountant", "calibrate_noise", ("iterations", lambda r: r.iterations)),
    ("accountant.rdp_curve", "dpfed.accountant", "rdp_curve", None),
    ("accountant.cached_rdp_curve", "dpfed.accountant", "cached_rdp_curve", None),
    ("accountant.RdpLedger.spend", "dpfed.accountant", "RdpLedger.spend", ("halted", lambda r: int(r.halted))),
    ("accountant.RdpLedger.to_dp", "dpfed.accountant", "RdpLedger.to_dp", None),
    ("mechanisms.rdp", "dpfed.mechanisms", "rdp", None),
    ("mechanisms.sample_noise_array", "dpfed.mechanisms", "sample_noise_array", ("draws", lambda r: r.size)),
    ("fl_core.run_round", "dpfed.fl_core", "run_round", None),
    ("fl_core.local_update", "dpfed.fl_core", "local_update", ("noise_draws", lambda r: r.noise_draws)),
    (
        "fl_core.per_example_gradients",
        "dpfed.fl_core",
        "LogisticRegressionModel.per_example_gradients",
        ("rows", lambda r: r.shape[0]),
    ),
    ("fl_core.gradient", "dpfed.fl_core", "LogisticRegressionModel.gradient", None),
    ("fl_core.loss", "dpfed.fl_core", "LogisticRegressionModel.loss", None),
    ("fl_core.accuracy", "dpfed.fl_core", "LogisticRegressionModel.accuracy", None),
    ("fl_core.fedavg_aggregate", "dpfed.fl_core", "fedavg_aggregate", None),
    ("fl_core.shuffle_updates", "dpfed.fl_core", "shuffle_updates", None),
    ("mode_connectivity.mode_connect_aggregate", "dpfed.mode_connectivity", "mode_connect_aggregate", None),
    ("mode_connectivity.train_curve", "dpfed.mode_connectivity", "train_curve", None),
)

# (counter name, module, class) whose instances are counted, not timed
CREATED = (
    ("accountant.RdpLedger.created", "dpfed.accountant", "RdpLedger"),
    ("mechanisms.NoiseStream.created", "dpfed.mechanisms", "NoiseStream"),
    ("fl_core.DatasetShard.created", "dpfed.fl_core", "DatasetShard"),
)

# Every per-layer metric, in report order: (name, unit, better).  Times and
# counts are per workload process, i.e. per run of the workload's plan.
METRICS = (
    ("cli.import_s", "s", "lower"),
    ("cli.run_experiment.s", "s", "lower"),
    ("cli.make_synthetic_federation.s", "s", "lower"),
    ("cli.format_metrics_row.s", "s", "lower"),
    ("accountant.calibrate_noise.calls", "count", "lower"),
    ("accountant.calibrate_noise.s", "s", "lower"),
    ("accountant.calibrate_noise.iterations", "count", "lower"),
    ("accountant.rdp_curve.calls", "count", "lower"),
    ("accountant.rdp_curve.s", "s", "lower"),
    ("accountant.cached_rdp_curve.calls", "count", "lower"),
    ("accountant.cached_rdp_curve.hit_ratio", "fraction", "higher"),
    ("accountant.RdpLedger.created", "count", "lower"),
    ("accountant.RdpLedger.spend.calls", "count", "lower"),
    ("accountant.RdpLedger.spend.s", "s", "lower"),
    ("accountant.RdpLedger.spend.halted", "count", "lower"),
    ("accountant.RdpLedger.to_dp.s", "s", "lower"),
    ("mechanisms.rdp.calls", "count", "lower"),
    ("mechanisms.rdp.s", "s", "lower"),
    ("mechanisms.sample_noise_array.calls", "count", "lower"),
    ("mechanisms.sample_noise_array.s", "s", "lower"),
    ("mechanisms.sample_noise_array.draws", "count", "lower"),
    ("mechanisms.NoiseStream.created", "count", "lower"),
    ("fl_core.run_round.s", "s", "lower"),
    ("fl_core.local_update.calls", "count", "lower"),
    ("fl_core.local_update.s", "s", "lower"),
    ("fl_core.local_update.noise_draws", "count", "lower"),
    ("fl_core.per_example_gradients.calls", "count", "lower"),
    ("fl_core.per_example_gradients.rows", "count", "lower"),
    ("fl_core.per_example_gradients.s", "s", "lower"),
    ("fl_core.gradient.calls", "count", "lower"),
    ("fl_core.gradient.s", "s", "lower"),
    ("fl_core.loss.s", "s", "lower"),
    ("fl_core.accuracy.s", "s", "lower"),
    ("fl_core.DatasetShard.created", "count", "lower"),
    ("fl_core.fedavg_aggregate.s", "s", "lower"),
    ("fl_core.shuffle_updates.s", "s", "lower"),
    ("mode_connectivity.mode_connect_aggregate.calls", "count", "lower"),
    ("mode_connectivity.mode_connect_aggregate.s", "s", "lower"),
    ("mode_connectivity.train_curve.calls", "count", "lower"),
    ("mode_connectivity.train_curve.s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
)

# Metrics computed by the parent from untraced and traced passes together.
OVERHEAD = ("trace.overhead_s", "trace.overhead_frac")


def _dpfed_modules():
    return [mod for name, mod in sorted(sys.modules.items()) if name == "dpfed" or name.startswith("dpfed.")]


def _resolve(module: str, path: str):
    owner = sys.modules.get(module)
    if owner is None:
        return None, None, f"module {module} is not imported"
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None, f"{module} has no {path}"
    if not hasattr(owner, parts[-1]):
        return None, None, f"{module} has no {path}"
    return owner, parts[-1], None


def _rebind(owner, attr: str, original, replacement) -> None:
    if isinstance(owner, type):
        setattr(owner, attr, replacement)
        return
    for mod in _dpfed_modules():
        for name, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, name, replacement)


def _timed(tracer, span_name: str, fn, counter):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(span_name):
            out = fn(*args, **kwargs)
        if counter is not None:
            tracer.counts[f"{span_name}.{counter[0]}"] += counter[1](out)
        return out

    return wrapper


def _counted(tracer, counter_name: str, init):
    @functools.wraps(init)
    def wrapper(self, *args, **kwargs):
        tracer.counts[counter_name] += 1
        return init(self, *args, **kwargs)

    return wrapper


def instrument(tracer) -> dict[str, str]:
    """Wrap every traced name; returns {span or counter name: why it is missing}."""
    missing = {}
    for span_name, module, path, counter in TRACED:
        owner, attr, reason = _resolve(module, path)
        if reason:
            missing[span_name] = reason
            continue
        original = getattr(owner, attr)
        _rebind(owner, attr, original, _timed(tracer, span_name, original, counter))
    for counter_name, module, cls_name in CREATED:
        owner, attr, reason = _resolve(module, cls_name)
        if reason:
            missing[counter_name] = reason
            continue
        cls = getattr(owner, attr)
        cls.__init__ = _counted(tracer, counter_name, cls.__init__)
    return missing


def layer_metrics(summary, counts, missing: dict[str, str], import_s: float) -> tuple[dict, dict]:
    """Per-layer values (None where unavailable) and the reasons for each None,
    from ``Tracer.summary()`` and ``Tracer.counts``."""
    calls, self_s, child_names = summary
    values, reasons = {"cli.import_s": import_s}, {}
    for name, _, _ in METRICS:
        if name in values or name in OVERHEAD:
            continue
        source, suffix = name.rsplit(".", 1)
        if suffix == "created":
            source = name
        if source in missing:
            values[name], reasons[name] = None, missing[source]
        elif suffix == "s":
            values[name] = self_s.get(source, 0.0)
        elif suffix == "calls":
            values[name] = calls[source]
        elif suffix == "hit_ratio":
            if calls[source]:
                misses = child_names[(source, "accountant.rdp_curve")]
                values[name] = 1.0 - misses / calls[source]
            else:
                values[name], reasons[name] = None, f"{source} was never called"
        else:
            values[name] = counts[name]
    return values, reasons
