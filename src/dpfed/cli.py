"""Experiment runner and calibration command line.

Subcommands: ``calibrate`` (minimal noise for a budget, one JSON object per
line), ``run`` (calibrate + simulate, streaming CSV metrics plus a single-line
JSON summary), ``sweep`` (several runs concatenated with an ``experiment_id``
column) and ``bounds`` (closed-form l1 perturbation queries).

Configs are ``key = value`` lines with ``#`` comments; command-line flags
mirror the keys in kebab case and override file values.  The env var
``UDPFL_SEED`` is the lowest-precedence seed source.  Exit codes: 0 all
configured rounds completed within budget, 1 run halted on an exhausted
budget, 2 invalid config or infeasible calibration.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .accountant import InfeasibleBudgetError, PrivacyBudget, calibrate_noise
from .fl_core import (
    Aggregator,
    BudgetExhaustedError,
    ClientConfig,
    ClientTable,
    DatasetShard,
    Federation,
    LogisticRegressionModel,
    RoundMetrics,
    ServerState,
    client_ledger,
    load_csv_shard,
    make_synthetic_federation,
    run_round,
)
from .mechanisms import MechanismKind, MechanismParams, NoiseStream
from .utility_bounds import BOUND_MODES, l1_bound, optimal_nu

CSV_HEADER = "round,cumulative_epsilon,train_loss,eval_accuracy,mechanism,noise_scale,seed"
SWEEP_HEADER = "experiment_id," + CSV_HEADER

# Reference-task constants (desk-scale synthetic blobs).
SYNTH_FEATURES = 20
SYNTH_CLASSES = 10
SYNTH_SAMPLES_PER_CLIENT = 200
SYNTH_CENTER_SCALE = 3.0
EVAL_FRACTION = 0.05

EXIT_OK = 0
EXIT_BUDGET_HALT = 1
EXIT_CONFIG = 2


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the key."""


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "false"):
        return low == "true"
    raise ValueError("expected true or false")


def _positive(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v) and v > 0


def _one_of(names: tuple[str, ...]) -> tuple:
    return (lambda raw: raw.strip().lower(), lambda v: v in names, f"expected one of: {', '.join(names)}")


_POSITIVE = (float, _positive, "must be positive")
_UNIT = (float, lambda v: _positive(v) and v <= 1.0, "must lie in (0, 1]")
_COUNT = (int, lambda v: type(v) is int and v >= 1, "must be a positive integer")
_STAIRCASE_NU = (float, lambda v: 0.0 < v < 1.0, "must lie in (0, 1)")

# One rule per config key: (text -> value, check on the value, reason).  The
# parser runs both on every file, flag and env value; ExperimentConfig runs the
# check on every config, however it was built.
_RULES = {
    "mechanism": _one_of(tuple(k.value for k in MechanismKind)),
    "epsilon": (float, lambda v: v == math.inf or _positive(v), "must be positive"),
    "delta": (float, lambda v: _positive(v) and v < 1.0, "must lie in (0, 1)"),
    "rounds": _COUNT,
    "clients": _COUNT,
    "selection_fraction": _UNIT,
    "sample_rate": _UNIT,
    "clip": _POSITIVE,
    "local_epochs": _COUNT,
    "learning_rate": _POSITIVE,
    "aggregator": _one_of(tuple(a.value for a in Aggregator)),
    "shuffle": (_parse_bool, lambda v: isinstance(v, bool), "expected true or false"),
    "heterogeneous_epsilons": (
        lambda raw: tuple(float(v) for v in raw.split(",") if v.strip()) if raw.strip() else None,
        lambda v: v is None or (type(v) is tuple and v != () and all(map(_positive, v))),
        "must be a non-empty list of positive finite reals",
    ),
    "dataset": (str.strip, lambda v: isinstance(v, str), "must be 'synthetic' or a CSV path"),
    "seed": (
        int,
        lambda v: type(v) is int and 0 <= v < 2**64,
        "must lie in [0, 2**64), as streams key on its low 64 bits",
    ),
    "output": (lambda raw: raw.strip() or None, lambda v: v is None or isinstance(v, str), "must be a CSV path"),
}


def _apply_rule(rule: tuple, raw: str):
    """Convert ``raw`` by a rule triple and check it; a bad value raises ValueError or TypeError."""
    convert, ok, reason = rule
    value = convert(raw)
    if not ok(value):
        raise ValueError(reason)
    return value


@dataclass(frozen=True)
class ExperimentConfig:
    """One run's settings, one field per config key, checked when built."""

    mechanism: str = "staircase"
    epsilon: float = 8.0
    delta: float = 1e-5
    rounds: int = 150
    clients: int = 10
    selection_fraction: float = 1.0
    sample_rate: float = 0.05
    clip: float = 1.0
    local_epochs: int = 2
    learning_rate: float = 0.01
    aggregator: str = "fedavg"
    shuffle: bool = False
    heterogeneous_epsilons: tuple[float, ...] | None = None
    dataset: str = "synthetic"
    seed: int = 0
    output: str | None = None

    def __post_init__(self) -> None:
        # Checked here, so a config built directly fails before any
        # calibration; frozen, so no later assignment skips the checks.
        for key, (_, ok, reason) in _RULES.items():
            if not ok(value := getattr(self, key)):
                raise ConfigError(f"invalid value for '{key}': {value!r} ({reason})")
        if self.heterogeneous_epsilons is not None:
            if len(self.heterogeneous_epsilons) != self.clients:
                raise ConfigError(
                    "invalid value for 'heterogeneous_epsilons': need exactly one epsilon per client "
                    f"({self.clients} clients, {len(self.heterogeneous_epsilons)} values)"
                )
            if self.noise_disabled:
                raise ConfigError("invalid value for 'heterogeneous_epsilons': incompatible with epsilon = inf")

    @property
    def noise_disabled(self) -> bool:
        return math.isinf(self.epsilon)

    @property
    def horizon(self) -> int:
        # every local epoch is one accounted mechanism application
        return self.rounds * self.local_epochs


def parse_config(text: str, flag_overrides: dict[str, str] | None = None) -> ExperimentConfig:
    """Build a validated config from ``key = value`` text plus flag overrides."""
    values: dict[str, object] = {}

    def assign(key: str, raw: str, where: str) -> None:
        if key not in _RULES:
            raise ConfigError(f"unknown key '{key}' in {where}")
        try:
            values[key] = _apply_rule(_RULES[key], raw)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"invalid value for '{key}' in {where}: {raw!r} ({exc})") from None

    seen: set[str] = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno} is not a 'key = value' assignment: {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key in seen:
            raise ConfigError(f"duplicate key '{key}' at line {lineno}")
        seen.add(key)
        assign(key, raw, f"config line {lineno}")

    for key, raw in (flag_overrides or {}).items():
        if raw is not None:
            assign(key, raw, "command-line flag")

    if "seed" not in values and "UDPFL_SEED" in os.environ:
        assign("seed", os.environ["UDPFL_SEED"], "UDPFL_SEED environment variable")

    return ExperimentConfig(**values)


def _format_value(value: float) -> str:
    return f"{value:.6g}"


def format_metrics_row(m: RoundMetrics, run_cells: str) -> str:
    """One CSV row: the round's values, then ``run_cells``, the
    ``mechanism,noise_scale,seed`` cells that hold for the whole run."""
    values = (m.cumulative_epsilon, m.train_loss, m.eval_accuracy)
    return ",".join([str(m.round_index), *map(_format_value, values), run_cells])


def _build_federation(cfg: ExperimentConfig) -> Federation:
    if cfg.dataset == "synthetic":
        return make_synthetic_federation(
            cfg.clients,
            SYNTH_SAMPLES_PER_CLIENT,
            SYNTH_FEATURES,
            SYNTH_CLASSES,
            cfg.seed,
            eval_fraction=EVAL_FRACTION,
            center_scale=SYNTH_CENTER_SCALE,
        )
    rows = load_csv_shard(cfg.dataset)
    order = NoiseStream(cfg.seed, 0, 0, "csv-deal").rng.permutation(rows.n)
    eval_n = max(1, round(EVAL_FRACTION * rows.n / (1.0 + EVAL_FRACTION)))
    if rows.n - 2 * eval_n < cfg.clients:
        raise ConfigError(f"invalid value for 'dataset': {cfg.dataset!r} has too few rows for {cfg.clients} clients")
    eval_idx, val_idx, train_idx = np.split(order, [eval_n, 2 * eval_n])
    roles = [train_idx[k :: cfg.clients] for k in range(cfg.clients)] + [val_idx, eval_idx]
    role_order = np.concatenate([np.sort(r) for r in roles])
    data = DatasetShard(rows.features[role_order], rows.labels[role_order])
    return Federation.deal(data, [len(r) for r in roles[: cfg.clients]], eval_n)


@dataclass
class ExperimentResult:
    """A run's exit code, its per-round metrics and its JSON summary."""

    exit_code: int
    metrics: list[RoundMetrics]
    summary: dict


def run_experiment(cfg: ExperimentConfig, csv_stream=None) -> ExperimentResult:
    """Calibrate, simulate up to ``cfg.rounds`` rounds and stream CSV rows.

    Propagates :class:`InfeasibleBudgetError`; an exhausted budget mid-run
    stops the loop with exit code 1 (the documented halt signal).
    """
    kind = MechanismKind(cfg.mechanism)
    fed = _build_federation(cfg)
    # Every row counts: a label only validation or eval rows carry needs a class.
    classes = SYNTH_CLASSES if cfg.dataset == "synthetic" else int(fed.data.labels.max()) + 1
    model = LogisticRegressionModel(classes, fed.data.features.shape[1])

    # A noise-disabled run has epsilon = inf and no heterogeneous epsilons.
    eps_list = cfg.heterogeneous_epsilons or (cfg.epsilon,) * cfg.clients
    budgets = [PrivacyBudget(eps_k, cfg.delta, cfg.horizon) for eps_k in eps_list]
    # One calibration per distinct budget of this run, kept for this run only.
    mechs = {b: None if cfg.noise_disabled else calibrate_noise(kind, cfg.clip, b).mechanism for b in set(budgets)}
    clients = [ClientConfig(budget=b, mechanism=mechs[b]) for b in budgets]
    ledger = client_ledger(clients)
    scale = max((c.mechanism.scale for c in clients if c.mechanism), default=math.inf)
    table = ClientTable.build(clients, cfg.clip)
    run_cells = f"{cfg.mechanism},{_format_value(scale)},{cfg.seed}"

    server = ServerState(
        global_model=model.init_params(),
        round_t=0,
        aggregator=Aggregator(cfg.aggregator),
        selection_fraction=cfg.selection_fraction,
        clip_c=cfg.clip,
        sample_rate_q=cfg.sample_rate,
        local_epochs_I=cfg.local_epochs,
        learning_rate=cfg.learning_rate,
        shuffle=cfg.shuffle,
    )

    if csv_stream is not None:
        csv_stream.write(CSV_HEADER + "\n")
    metrics: list[RoundMetrics] = []
    exit_code = EXIT_OK
    for _ in range(cfg.rounds):
        try:
            result = run_round(server, table, model, ledger, cfg.seed, fed)
        except BudgetExhaustedError:
            exit_code = EXIT_BUDGET_HALT
            break
        server = result.server
        metrics.append(result.metrics)
        if csv_stream is not None:
            csv_stream.write(format_metrics_row(result.metrics, run_cells) + "\n")

    last = metrics[-1] if metrics else None
    summary = {
        "final_accuracy": last.eval_accuracy if last else None,
        "final_epsilon": (
            None if last is None or math.isinf(last.cumulative_epsilon) else last.cumulative_epsilon
        ),
        "rounds_run": len(metrics),
        "calibrated_scale": None if math.isinf(scale) else scale,
    }
    return ExperimentResult(exit_code=exit_code, metrics=metrics, summary=summary)


def sweep(configs, ids, csv_stream) -> int:
    """Run several experiments and concatenate their CSV rows under an
    ``experiment_id`` column (buffered per experiment, emitted atomically).
    Returns the largest exit code of the runs."""
    configs, ids = list(configs), [str(i) for i in ids]
    if len(ids) != len(configs):
        raise ValueError("need exactly one experiment id per config")
    if len(set(ids)) != len(ids):
        raise ValueError("experiment ids must be unique")
    csv_stream.write(SWEEP_HEADER + "\n")
    exit_code = EXIT_OK
    for exp_id, cfg in zip(ids, configs):
        buffered = io.StringIO()
        exit_code = max(exit_code, run_experiment(cfg, csv_stream=buffered).exit_code)
        csv_stream.write("".join(f"{exp_id},{line}\n" for line in buffered.getvalue().splitlines()[1:]))
    return exit_code


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("config", nargs="?", help="config file of 'key = value' lines")
    for key in _RULES:
        parser.add_argument(f"--{key.replace('_', '-')}", dest=key, default=None, metavar="V")


def _collect_config(args: argparse.Namespace) -> ExperimentConfig:
    text = ""
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    overrides = {key: getattr(args, key) for key in _RULES if getattr(args, key, None) is not None}
    return parse_config(text, overrides)


def _write_csv(path: str | None, write):
    """Return ``write(stream)``, which writes a command's CSV to ``stream``:
    stdout without a ``path``.  With one, the rows go to a file beside it,
    which replaces ``path`` only when ``write`` returns, that is when every run
    has finished (exit 0 or 1).  On any other outcome the file is removed and
    ``path`` is left as it was, so a failing config leaves no CSV that looks
    complete."""
    if not path:
        return write(sys.stdout)
    partial = path + ".partial"
    try:
        with open(partial, "w", encoding="utf-8", newline="") as fh:
            result = write(fh)
        os.replace(partial, path)
    finally:
        if os.path.exists(partial):
            os.remove(partial)
    return result


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _collect_config(args)
    result = _write_csv(cfg.output, lambda stream: run_experiment(cfg, csv_stream=stream))
    print(json.dumps(result.summary))
    return result.exit_code


def _cmd_sweep(args: argparse.Namespace) -> int:
    seeds = [s.strip() for s in args.seeds.split(",")] if args.seeds else [None]
    configs, ids = [], []
    for path in args.configs:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        stem = os.path.splitext(os.path.basename(path))[0]
        for seed in seeds:
            configs.append(parse_config(text, {"seed": seed}))
            ids.append(stem if seed is None else f"{stem}-s{configs[-1].seed}")
    if len(set(ids)) != len(ids):
        ids = [f"{i:03d}-{name}" for i, name in enumerate(ids)]
    return _write_csv(args.output, lambda stream: sweep(configs, ids, stream))


def _cmd_calibrate(args: argparse.Namespace) -> int:
    budget = PrivacyBudget(args.epsilon, args.delta, args.rounds)
    for name in args.mechanism:
        kind = MechanismKind(name)
        result = calibrate_noise(kind, args.sensitivity, budget, tolerance=args.tolerance)
        print(
            json.dumps(
                {
                    "mechanism": kind.value,
                    "sensitivity": result.mechanism.sensitivity,
                    "scale": result.mechanism.scale,
                    "nu": result.mechanism.nu,
                    "achieved_epsilon": result.achieved_epsilon,
                    "minimizing_alpha": result.minimizing_alpha,
                    "iterations": result.iterations,
                    "target_epsilon": budget.epsilon,
                    "delta": budget.delta,
                    "rounds": budget.horizon_T,
                }
            )
        )
    return EXIT_OK


def _cmd_bounds(args: argparse.Namespace) -> int:
    kind = MechanismKind(args.mechanism)
    nu = args.nu
    if kind is not MechanismKind.STAIRCASE and nu is not None:
        raise ValueError(f"--nu applies to the staircase mechanism only, not {kind.value}")
    if kind is MechanismKind.STAIRCASE and nu is None:
        nu = optimal_nu(args.scale)[0]
    params = MechanismParams(kind, args.sensitivity, args.scale, nu=nu)
    print(
        json.dumps(
            {
                "mechanism": kind.value,
                "sensitivity": params.sensitivity,
                "scale": params.scale,
                "nu": params.nu,
                "loss_length_m": args.loss_length,
                "rounds_T": args.rounds,
                "mode": args.mode,
                "l1_bound": l1_bound(params, args.loss_length, args.rounds, args.mode),
            }
        )
    )
    return EXIT_OK


def _flag_type(rule: tuple):
    """Argparse ``type`` reading a flag by a config rule, so a bad value exits 2 naming the flag."""

    def read(raw: str):
        try:
            return _apply_rule(rule, raw)
        except (ValueError, TypeError) as exc:
            raise argparse.ArgumentTypeError(f"invalid value {raw!r} ({exc})") from None

    return read


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dpfed", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="calibrate and run one experiment")
    _add_run_flags(run_p)
    run_p.set_defaults(func=_cmd_run)

    sweep_p = sub.add_parser("sweep", help="run several experiments into one CSV")
    sweep_p.add_argument("configs", nargs="+", help="config files")
    sweep_p.add_argument("--seeds", default=None, help="comma-separated seed repetitions")
    sweep_p.add_argument("--output", default=None, help="aggregated CSV path (default: stdout)")
    sweep_p.set_defaults(func=_cmd_sweep)

    mechanism = _flag_type(_RULES["mechanism"])
    cal_p = sub.add_parser("calibrate", help="minimal noise scale for a budget")
    cal_p.add_argument("--mechanism", required=True, type=lambda raw: [mechanism(name) for name in raw.split(",")],
                       help="mechanism name(s), comma-separated")
    cal_p.add_argument("--epsilon", required=True, type=_flag_type(_RULES["epsilon"]))
    cal_p.add_argument("--delta", default="1e-5", type=_flag_type(_RULES["delta"]))
    cal_p.add_argument("--rounds", required=True, type=_flag_type(_COUNT), help="number of composed applications")
    cal_p.add_argument("--sensitivity", default="1.0", type=_flag_type(_POSITIVE))
    cal_p.add_argument("--tolerance", default="1e-4", type=_flag_type(_POSITIVE))
    cal_p.set_defaults(func=_cmd_calibrate)

    bounds_p = sub.add_parser("bounds", help="expected l1 perturbation of a mechanism")
    bounds_p.add_argument("--mechanism", required=True, type=mechanism)
    bounds_p.add_argument("--scale", required=True, type=_flag_type(_POSITIVE))
    bounds_p.add_argument("--nu", default=None, type=_flag_type(_STAIRCASE_NU), help="staircase only")
    bounds_p.add_argument("--sensitivity", default="1.0", type=_flag_type(_POSITIVE))
    bounds_p.add_argument("-m", "--loss-length", dest="loss_length", default="1", type=_flag_type(_COUNT))
    bounds_p.add_argument("-T", "--rounds", dest="rounds", default="1", type=_flag_type(_COUNT))
    bounds_p.add_argument("--mode", choices=BOUND_MODES, default="numeric")
    bounds_p.set_defaults(func=_cmd_bounds)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, InfeasibleBudgetError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
