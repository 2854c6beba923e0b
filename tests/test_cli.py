import dataclasses
import io
import json
import math
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from dpfed import cli
from dpfed.cli import (
    CSV_HEADER,
    SWEEP_HEADER,
    ConfigError,
    ExperimentConfig,
    _build_federation,
    parse_config,
    run_experiment,
    sweep,
)


def write_csv_dataset(tmp_path, rows):
    """A CSV of ``rows`` rows, three features and a binary label; returns its path."""
    rng = np.random.default_rng(0)
    lines = ["f0,f1,f2,label"]
    for _ in range(rows):
        lines.append(",".join([f"{v:.4f}" for v in rng.normal(size=3)] + [str(int(rng.integers(0, 2)))]))
    path = tmp_path / "data.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def client_views(fed):
    """Each client's rows of the federation's pool, as row-range views."""
    return [fed.pool.row_range(*fed.bounds[j : j + 2]) for j in range(len(fed.bounds) - 1)]


def small_cfg(**kw):
    args = dict(mechanism="gaussian", rounds=5, seed=3)
    args.update(kw)
    return ExperimentConfig(**args)


class TestParseConfig:
    def test_empty_all_defaults(self):
        cfg = parse_config("")
        assert cfg == ExperimentConfig()
        assert cfg.clients == 10 and cfg.rounds == 150
        assert cfg.sample_rate == 0.05 and cfg.local_epochs == 2 and cfg.learning_rate == 0.01

    def test_file_values_and_comments(self):
        cfg = parse_config("epsilon = 4  # target budget\n\nmechanism = laplace\nrounds=25\n")
        assert cfg.epsilon == 4.0 and cfg.mechanism == "laplace" and cfg.rounds == 25

    def test_negative_epsilon_names_key(self):
        with pytest.raises(ConfigError, match="epsilon"):
            parse_config("epsilon = -1\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="momentum"):
            parse_config("momentum = 0.9\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("epsilon = 2\nepsilon = 4\n")

    def test_flag_overrides_file(self):
        cfg = parse_config("epsilon = 2\n", {"epsilon": "8"})
        assert cfg.epsilon == 8.0

    def test_env_seed_lowest_precedence(self, monkeypatch):
        monkeypatch.setenv("UDPFL_SEED", "99")
        assert parse_config("").seed == 99
        assert parse_config("seed = 5\n").seed == 5
        assert parse_config("seed = 5\n", {"seed": "7"}).seed == 7

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
    def test_seed_outside_64_bits_rejected(self, seed, monkeypatch):
        # Streams keep the seed's low 64 bits: -1 and 2**64 would alias 2**64 - 1 and 0.
        message = "invalid value for 'seed' in {}: '" + seed + "' \\(must lie in \\[0, 2\\*\\*64\\), as streams"
        with pytest.raises(ConfigError, match=message.format("config line 1")):
            parse_config(f"seed = {seed}\n")
        with pytest.raises(ConfigError, match=message.format("command-line flag")):
            parse_config("", {"seed": seed})
        monkeypatch.setenv("UDPFL_SEED", seed)
        with pytest.raises(ConfigError, match=message.format("UDPFL_SEED environment variable")):
            parse_config("")

    def test_infinite_epsilon(self):
        cfg = parse_config("epsilon = inf\n")
        assert cfg.noise_disabled

    def test_heterogeneous_length_checked(self):
        with pytest.raises(ConfigError, match="heterogeneous_epsilons"):
            parse_config("clients = 3\nheterogeneous_epsilons = 1,2\n")
        cfg = parse_config("clients = 3\nheterogeneous_epsilons = 1,2,3\n")
        assert cfg.heterogeneous_epsilons == (1.0, 2.0, 3.0)

    def test_bool_and_aggregator(self):
        cfg = parse_config("shuffle = true\naggregator = modeconnect\n")
        assert cfg.shuffle and cfg.aggregator == "modeconnect"
        with pytest.raises(ConfigError, match="shuffle"):
            parse_config("shuffle = maybe\n")

    @pytest.mark.parametrize(
        "key, raw, want",
        [
            ("clip", "0.5", 0.5),
            ("clip", "0", None),
            ("clip", "inf", None),
            ("clip", "wide", None),
            ("learning_rate", "1e-3", 1e-3),
            ("learning_rate", "-0.1", None),
            ("learning_rate", "nan", None),
            ("delta", "1e-6", 1e-6),
            ("delta", "0", None),
            ("delta", "1", None),
            ("selection_fraction", "1", 1.0),
            ("selection_fraction", "0", None),
            ("sample_rate", "1.5", None),
            ("rounds", "3", 3),
            ("rounds", "0", None),
            ("clients", "-2", None),
            ("local_epochs", "1.5", None),
            ("heterogeneous_epsilons", "2, 4.5", (2.0, 4.5)),
            ("heterogeneous_epsilons", ",", None),
            ("heterogeneous_epsilons", "2,-1", None),
            ("heterogeneous_epsilons", "2,inf", None),
        ],
    )
    def test_value_parsers(self, key, raw, want):
        # From the file and from a flag: a good value round-trips, a bad one names its key.
        base = "clients = 2\n" if key == "heterogeneous_epsilons" else ""
        routes = [(base + f"{key} = {raw}\n", None, "config line"), (base, {key: raw}, "command-line flag")]
        for text, flags, where in routes:
            if want is None:
                with pytest.raises(ConfigError, match=f"^invalid value for '{key}' in {where}"):
                    parse_config(text, flags)
            else:
                assert getattr(parse_config(text, flags), key) == want

    def test_line_without_assignment_rejected(self):
        with pytest.raises(ConfigError, match="^line 2 is not a 'key = value' assignment: 'rounds 3'$"):
            parse_config("epsilon = 4\nrounds 3\n")

    # Good and bad texts for every key; heterogeneous ones are read with clients = 2.
    ROUTE_TEXTS = {
        "mechanism": ["gaussian", " Laplace ", "cauchy", ""],
        "epsilon": ["8", "inf", "Infinity", "0", "-1", "nan", "-inf", "x"],
        "delta": ["1e-5", "0", "1", "nan"],
        "rounds": ["3", "0", "-2", "1.5"],
        "clients": ["2", "0", "two"],
        "selection_fraction": ["1", "0.5", "0", "1.5", "nan"],
        "sample_rate": ["0.05", "0", "1.5", "inf"],
        "clip": ["0.5", "0", "inf", "nan", "-1"],
        "local_epochs": ["1", "0", "1.5"],
        "learning_rate": ["1e-3", "0", "inf", "nan", "-0.1"],
        "aggregator": ["fedavg", "ModeConnect", "median"],
        "shuffle": ["true", "False", "maybe", "1"],
        "heterogeneous_epsilons": ["2, 4.5", "", ",", "2,-1", "2,inf", "2,nan", "2,x"],
        "dataset": ["synthetic", "data.csv"],
        "seed": ["0", "007", "-1", "18446744073709551616", "1.5"],
        "output": ["out.csv", ""],
    }

    def test_parsed_and_built_configs_keep_the_same_rule(self, monkeypatch):
        # A text parses exactly when the value it converts to builds a config,
        # and both routes refuse it for the same reason.
        monkeypatch.delenv("UDPFL_SEED", raising=False)
        assert list(self.ROUTE_TEXTS) == list(cli._RULES)
        for key, texts in self.ROUTE_TEXTS.items():
            base = {"clients": 2} if key == "heterogeneous_epsilons" else {}
            for raw in texts:
                text = "".join(f"{k} = {v}\n" for k, v in base.items()) + f"{key} = {raw}\n"
                parse_prefix = f"invalid value for '{key}' in config line {len(base) + 1}: {raw.strip()!r} ("
                try:
                    value = cli._RULES[key][0](raw)
                except ValueError as exc:
                    with pytest.raises(ConfigError) as refused:
                        parse_config(text)
                    assert str(refused.value) == parse_prefix + f"{exc})"
                    continue
                try:
                    built = ExperimentConfig(**base, **{key: value})
                except ConfigError as exc:
                    prefix = f"invalid value for '{key}': {value!r} ("
                    assert str(exc).startswith(prefix), (key, raw)
                    with pytest.raises(ConfigError) as refused:
                        parse_config(text)
                    assert str(refused.value) == parse_prefix + str(exc).removeprefix(prefix), (key, raw)
                else:
                    assert parse_config(text) == built, (key, raw)

    @pytest.mark.parametrize("key", ["heterogeneous_epsilons", "output"])
    def test_empty_value_means_none(self, key):
        # From the file and from a flag, an empty value gives the None default.
        for text, flags in ((f"{key} =\n", None), ("", {key: " "})):
            assert getattr(parse_config(text, flags), key) is None

    def test_readme_key_list_matches_the_config(self, monkeypatch):
        # Same keys in the same order as the rules and the dataclass, and the
        # block, saved as a config file, gives the default config.
        monkeypatch.delenv("UDPFL_SEED", raising=False)
        readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        block = readme.split("Keys and defaults:\n\n```\n", 1)[1].split("```", 1)[0]
        listed = [line.split("=", 1)[0].strip() for line in block.splitlines()]
        fields = [f.name for f in dataclasses.fields(ExperimentConfig)]
        assert listed == list(cli._RULES) == fields
        assert parse_config(block) == ExperimentConfig()

    def test_config_is_frozen(self):
        # Assignment would skip the checks that ran when the config was built.
        cfg = parse_config("clients = 2\nheterogeneous_epsilons = 1,2\n")
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.clients = 5
        assert cfg.clients == 2


class TestRunExperiment:
    @pytest.mark.parametrize(
        "kw, message",
        [
            (dict(clients=5, heterogeneous_epsilons=(7.0, 8.0, 9.0, 10.0)), "\\(5 clients, 4 values\\)$"),
            (dict(epsilon=math.inf, clients=2, heterogeneous_epsilons=(7.0, 8.0)), "incompatible with epsilon = inf$"),
        ],
    )
    def test_directly_built_config_fails_before_any_output(self, monkeypatch, kw, message):
        # The config's own checks run before calibration and before the CSV header.
        calibrated = []
        monkeypatch.setattr(cli, "calibrate_noise", lambda *args: calibrated.append(args))
        buf = io.StringIO()
        with pytest.raises(ConfigError, match="^invalid value for 'heterogeneous_epsilons': .*" + message):
            run_experiment(small_cfg(**kw), csv_stream=buf)
        assert buf.getvalue() == "" and calibrated == []

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5])
    def test_directly_built_config_rejects_a_seed_outside_64_bits(self, monkeypatch, seed):
        # Streams reduce the seed mod 2**64, so -1 and 2**64 + 5 would run the
        # streams of 2**64 - 1 and 5 under another seed cell.
        calibrated = []
        monkeypatch.setattr(cli, "calibrate_noise", lambda *args: calibrated.append(args))
        buf = io.StringIO()
        with pytest.raises(ConfigError, match=f"^invalid value for 'seed': {seed} \\(must lie in \\[0, 2\\*\\*64\\)"):
            run_experiment(small_cfg(seed=seed), csv_stream=buf)
        assert buf.getvalue() == "" and calibrated == []
        assert small_cfg(seed=2**64 - 1).seed == 2**64 - 1

    @pytest.mark.parametrize(
        "key, value",
        [
            ("mechanism", "cauchy"),
            ("mechanism", "Laplace"),
            ("epsilon", 0.0),
            ("epsilon", math.nan),
            ("epsilon", "8"),
            ("delta", 0.0),
            ("delta", 1.0),
            ("rounds", 0),
            ("rounds", 2.0),
            ("clients", -2),
            ("selection_fraction", 0.0),
            ("selection_fraction", 1.5),
            ("sample_rate", math.inf),
            ("clip", math.inf),
            ("clip", 0),
            ("local_epochs", 1.5),
            ("learning_rate", math.inf),
            ("learning_rate", -0.1),
            ("learning_rate", True),
            ("aggregator", "median"),
            ("aggregator", "FedAvg"),
            ("shuffle", "yes"),
            ("shuffle", 1),
            ("heterogeneous_epsilons", ()),
            ("heterogeneous_epsilons", (2.0, math.inf)),
            ("heterogeneous_epsilons", [2.0, 4.0]),
            ("dataset", None),
            ("seed", 1.0),
            ("output", 5),
        ],
    )
    def test_directly_built_config_keeps_every_rule(self, monkeypatch, key, value):
        # Each value the parser would refuse (or never produce) fails as the
        # config is built: before calibration and before the CSV header.
        calibrated = []
        monkeypatch.setattr(cli, "calibrate_noise", lambda *args: calibrated.append(args))
        buf = io.StringIO()
        clients = {"clients": 2} if key == "heterogeneous_epsilons" else {}
        with pytest.raises(ConfigError, match=f"^invalid value for '{key}': "):
            run_experiment(small_cfg(**clients, **{key: value}), csv_stream=buf)
        assert buf.getvalue() == "" and calibrated == []

    def test_csv_schema_and_determinism(self):
        outs = []
        for _ in range(2):
            buf = io.StringIO()
            run_experiment(small_cfg(), csv_stream=buf)
            outs.append(buf.getvalue())
        assert outs[0] == outs[1]
        lines = outs[0].splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 5

    def test_cumulative_epsilon_monotone_and_capped(self):
        cfg = small_cfg(rounds=30, epsilon=4.0)
        result = run_experiment(cfg)
        eps = [m.cumulative_epsilon for m in result.metrics]
        assert all(b >= a for a, b in zip(eps, eps[1:]))
        assert all(e <= 4.0 for e in eps)
        assert result.exit_code == 0
        assert result.summary["rounds_run"] == 30
        assert result.summary["final_epsilon"] == pytest.approx(eps[-1])

    def test_noise_disabled_run(self):
        buf = io.StringIO()
        result = run_experiment(small_cfg(epsilon=math.inf), csv_stream=buf)
        assert result.exit_code == 0
        assert result.summary["final_epsilon"] is None
        assert result.summary["calibrated_scale"] is None
        assert ",inf," in buf.getvalue().splitlines()[1]

    def test_batches_do_not_depend_on_the_noise(self, monkeypatch):
        # Runs that differ only in mechanism, epsilon or noise on/off train on
        # the same rows in every epoch of every round.  Three epochs, so the
        # masks of later epochs come after a noise draw; half the clients
        # selected, so selection is exercised too.
        batches = []
        kernel = cli.LogisticRegressionModel.clipped_gradient_sum

        def recording(self, w, rows, labels, ghost_term, c, bounds):
            batches[-1].append((rows.copy(), labels.copy(), np.asarray(bounds).copy()))
            return kernel(self, w, rows, labels, ghost_term, c, bounds)

        monkeypatch.setattr(cli.LogisticRegressionModel, "clipped_gradient_sum", recording)
        variants = [
            dict(mechanism=mech, epsilon=eps)
            for mech in ("gaussian", "laplace", "staircase")
            for eps in (2.0, 8.0, math.inf)
        ] + [dict(mechanism="staircase", epsilon=16.0, heterogeneous_epsilons=(4.0, 16.0, 8.0, 2.0))]
        for kw in variants:
            batches.append([])
            cfg = small_cfg(rounds=4, clients=4, selection_fraction=0.5, local_epochs=3, sample_rate=0.3, **kw)
            assert run_experiment(cfg).exit_code == 0
        want = batches[0]
        assert len(want) == 4 * 3
        for kw, got in zip(variants[1:], batches[1:]):
            assert len(got) == len(want), kw
            for (rows, labels, bounds), (rows0, labels0, bounds0) in zip(got, want):
                assert np.array_equal(rows, rows0) and np.array_equal(labels, labels0), kw
                assert np.array_equal(bounds, bounds0), kw

    def test_seed_changes_output(self):
        a = run_experiment(small_cfg(seed=1))
        b = run_experiment(small_cfg(seed=2))
        assert a.metrics != b.metrics

    def test_mechanisms_complete_within_budget(self):
        for mech in ("gaussian", "staircase"):
            buf = io.StringIO()
            result = run_experiment(small_cfg(mechanism=mech, rounds=10, epsilon=8.0), csv_stream=buf)
            assert result.exit_code == 0
            assert result.metrics[-1].cumulative_epsilon <= 8.0
            assert buf.getvalue().splitlines()[-1].split(",")[4] == mech

    def test_budget_halt_exit_code(self, monkeypatch):
        # inject an uncalibrated (too small) scale: the run must halt with exit 1
        from dpfed import cli as cli_mod
        from dpfed.accountant import CalibrationResult
        from dpfed.mechanisms import MechanismKind, MechanismParams

        def fake_calibrate(kind, sensitivity, budget):
            return CalibrationResult(
                MechanismParams(MechanismKind.GAUSSIAN, sensitivity, 0.5), 0.0, 2.0, 0
            )

        monkeypatch.setattr(cli_mod, "calibrate_noise", fake_calibrate)
        result = run_experiment(small_cfg(rounds=50))
        assert result.exit_code == 1
        assert result.summary["rounds_run"] < 50

    @pytest.mark.parametrize("epsilons, distinct", [(None, 1), ((7, 7, 8, 8, 8, 9, 9, 9, 9, 9), 3)])
    def test_calibrates_once_per_distinct_budget_of_each_run(self, monkeypatch, epsilons, distinct):
        # No calibration outlives its run: the same config run again calibrates again.
        budgets = []
        real_calibrate = cli.calibrate_noise

        def counting(kind, sensitivity, budget, **kw):
            budgets.append(budget)
            return real_calibrate(kind, sensitivity, budget, **kw)

        monkeypatch.setattr(cli, "calibrate_noise", counting)
        cfg = small_cfg(clients=10, rounds=1, heterogeneous_epsilons=epsilons)
        for runs in (1, 2):
            run_experiment(cfg)
            assert len(budgets) == runs * distinct
        assert len(set(budgets)) == distinct

    def test_csv_dataset(self, tmp_path):
        cfg = small_cfg(dataset=write_csv_dataset(tmp_path, 80), clients=4, rounds=3, sample_rate=1.0)
        result = run_experiment(cfg)
        assert result.exit_code == 0
        assert len(result.metrics) == 3

    def test_pooled_train_loss_is_the_size_weighted_shard_mean(self, tmp_path, monkeypatch):
        from dpfed import cli as cli_mod

        rounds = []
        real_run_round = cli_mod.run_round

        def recording(server, clients, model, ledger, seed, fed):
            result = real_run_round(server, clients, model, ledger, seed, fed)
            rounds.append((result, clients, model, fed))
            return result

        monkeypatch.setattr(cli_mod, "run_round", recording)
        # 83 rows: 4 eval, 4 validation, 75 dealt to 4 clients as 19, 19, 19, 18
        cfg = small_cfg(dataset=write_csv_dataset(tmp_path, 83), clients=4, rounds=3, sample_rate=0.5)
        assert run_experiment(cfg).exit_code == 0
        assert len(rounds) == 3
        for result, clients, model, fed in rounds:
            views = client_views(fed)
            assert [s.n for s in views] == [19, 19, 19, 18]
            w = result.server.global_model
            want = sum(fed.weights[j] * model.loss(w, views[j]) for j in range(len(clients)))
            assert result.metrics.train_loss == pytest.approx(want, rel=1e-12)


def row_span(view, data) -> range:
    """The rows of the shard ``data`` that the row-range view ``view`` holds."""
    assert view.augmented.base is data.augmented
    offset = view.augmented.__array_interface__["data"][0] - data.augmented.__array_interface__["data"][0]
    start = offset // data.augmented.strides[0]
    return range(start, start + view.n)


class TestDataRoles:
    @pytest.mark.parametrize("aggregator", ["fedavg", "modeconnect"])
    @pytest.mark.parametrize("dataset", ["synthetic", "csv"])
    def test_no_eval_row_reaches_training(self, aggregator, dataset, tmp_path, monkeypatch):
        from dpfed import cli as cli_mod
        from dpfed import fl_core

        built, batches, curve_shards = [], [], []
        real_build = cli_mod._build_federation
        real_kernel = fl_core.LogisticRegressionModel.clipped_gradient_sum
        real_bind = fl_core.LogisticRegressionModel.stack_gradient

        def build(cfg):
            built.append(real_build(cfg))
            return built[-1]

        def kernel(self, w, rows, *args):
            batches.append(rows.copy())
            return real_kernel(self, w, rows, *args)

        def stack_gradient(self, shard, k):
            curve_shards.append(shard)
            return real_bind(self, shard, k)

        monkeypatch.setattr(cli_mod, "_build_federation", build)
        monkeypatch.setattr(fl_core.LogisticRegressionModel, "clipped_gradient_sum", kernel)
        monkeypatch.setattr(fl_core.LogisticRegressionModel, "stack_gradient", stack_gradient)
        path = "synthetic" if dataset == "synthetic" else write_csv_dataset(tmp_path, 90)
        cfg = small_cfg(dataset=path, clients=4, rounds=2, aggregator=aggregator, sample_rate=0.5)
        assert run_experiment(cfg).exit_code == 0

        [fed] = built
        data = fed.data
        views = client_views(fed)
        clients = [row_span(s, data) for s in views]
        validation, evaluation = row_span(fed.validation, data), row_span(fed.eval, data)
        # the roles cover every row exactly once, in role order
        assert [i for span in [*clients, validation, evaluation] for i in span] == list(range(data.n))
        assert row_span(fed.pool, data) == range(0, clients[-1].stop)
        assert np.array_equal(fed.pool.augmented, np.concatenate([s.augmented for s in views]))
        assert np.array_equal(fed.pool.labels, np.concatenate([s.labels for s in views]))
        for shard in [*views, fed.pool, fed.validation]:
            assert not set(row_span(shard, data)) & set(evaluation)
            for name in ("augmented", "features", "labels", "ghost_term"):
                assert not np.shares_memory(getattr(shard, name), getattr(fed.eval, name)), name

        # Every row the kernel trained on is a client row, and none is a
        # validation or eval row.
        roles = {}
        for role, span in [("client", range(0, clients[-1].stop)), ("validation", validation), ("eval", evaluation)]:
            for i in span:
                roles.setdefault(data.augmented[i].tobytes(), set()).add(role)
        trained = [row.tobytes() for batch in batches for row in batch]
        assert trained and all(roles.get(row) == {"client"} for row in trained)
        if aggregator == "modeconnect":
            assert curve_shards and all(row_span(s, data) == validation for s in curve_shards)
        else:
            assert curve_shards == []


class TestSweep:
    def test_single_config_matches_run_plus_id(self):
        cfg = small_cfg()
        buf_single = io.StringIO()
        run_experiment(cfg, csv_stream=buf_single)
        buf_sweep = io.StringIO()
        sweep([cfg], ids=["exp0"], csv_stream=buf_sweep)
        single = buf_single.getvalue().splitlines()
        swept = buf_sweep.getvalue().splitlines()
        assert swept[0] == SWEEP_HEADER
        assert swept[1:] == [f"exp0,{line}" for line in single[1:]]

    def test_empty_sweep_header_only(self):
        buf = io.StringIO()
        sweep([], csv_stream=buf)
        assert buf.getvalue() == SWEEP_HEADER + "\n"

    def test_grid_counting(self):
        configs, ids = [], []
        for mech in ("gaussian", "laplace", "staircase"):
            for eps in (2.0, 4.0, 6.0, 8.0):
                for seed in range(5):
                    configs.append(small_cfg(mechanism=mech, epsilon=eps, seed=seed, rounds=1))
                    ids.append(f"{mech}-e{int(eps)}-s{seed}")
        result = sweep(configs, ids=ids)
        assert len({i for i, _ in result.rows}) == 60

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            sweep([small_cfg(), small_cfg()], ids=["a", "a"])

    @pytest.mark.parametrize("seeds", [[], ["--seeds", "0,1"]])
    def test_same_stem_configs_are_numbered_and_written_to_output(self, tmp_path, capsys, seeds):
        # a.cfg in two directories: the ids would collide, so each is numbered.
        paths = []
        for folder, mech in (("one", "gaussian"), ("two", "laplace")):
            (tmp_path / folder).mkdir()
            paths.append(tmp_path / folder / "a.cfg")
            paths[-1].write_text(f"rounds = 1\nmechanism = {mech}\n", encoding="utf-8")
        assert cli.main(["sweep", *map(str, paths), *seeds]) == 0
        printed = capsys.readouterr().out
        out = tmp_path / "sweep.csv"
        assert cli.main(["sweep", *map(str, paths), *seeds, "--output", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_text(encoding="utf-8") == printed
        header, *lines = printed.splitlines()
        rows = [line.split(",") for line in lines]
        names = ["a"] * 2 if not seeds else ["a-s0", "a-s1"] * 2
        assert header == SWEEP_HEADER
        assert [row[0] for row in rows] == [f"{i:03d}-{name}" for i, name in enumerate(names)]
        assert [row[5] for row in rows] == [mech for mech in ("gaussian", "laplace") for _ in names[::2]]


    def test_seeds_go_through_the_seed_rule(self, tmp_path, capsys):
        # Each --seeds entry is the seed key's text: a bad one names the key,
        # and a good one's id carries the parsed seed.
        path = tmp_path / "a.cfg"
        path.write_text("rounds = 1\nmechanism = gaussian\n", encoding="utf-8")
        assert cli.main(["sweep", str(path), "--seeds", "1,x"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid value for 'seed' in command-line flag: 'x' (")
        assert cli.main(["sweep", str(path), "--seeds", " 007, 1"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["a-s7", "a-s1"]
        assert [row.split(",")[-1] for row in rows] == ["7", "1"]


def run_cli(*argv, env=None):
    import os

    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "dpfed.cli", *argv],
        capture_output=True,
        text=True,
        env=full_env,
    )


class TestCommandLine:
    def test_run_subcommand_stdout(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("mechanism = gaussian\nrounds = 3\nepsilon = 8\nseed = 1\n", encoding="utf-8")
        proc = run_cli("run", str(cfg))
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[0] == CSV_HEADER
        summary = json.loads(lines[-1])
        assert summary["rounds_run"] == 3

    def test_run_flag_overrides(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("epsilon = 2\nrounds = 2\nmechanism = gaussian\n", encoding="utf-8")
        proc = run_cli("run", str(cfg), "--epsilon", "8", "--output", str(tmp_path / "out.csv"))
        assert proc.returncode == 0, proc.stderr
        rows = (tmp_path / "out.csv").read_text().splitlines()
        assert rows[0] == CSV_HEADER
        # final epsilon close to 8, not 2: flag took precedence
        assert json.loads(proc.stdout.splitlines()[-1])["final_epsilon"] > 2.0

    def test_parse_error_exit_code(self):
        proc = run_cli("run", "--epsilon", "-3")
        assert proc.returncode == 2
        assert "epsilon" in proc.stderr

    def test_infeasible_budget_message(self):
        proc = run_cli("run", "--epsilon", "0.05", "--rounds", "2")
        assert proc.returncode == 2
        assert "infeasible" in proc.stderr.lower()

    def test_tiny_selection_fraction_runs_one_client(self):
        proc = run_cli("run", "--rounds", "2", "--mechanism", "gaussian", "--selection-fraction", "1e-12")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1])["rounds_run"] == 2

    def test_calibrate_rejects_infinite_epsilon(self):
        proc = run_cli("calibrate", "--mechanism", "laplace", "--epsilon", "inf", "--rounds", "5")
        assert proc.returncode == 2 and proc.stdout == ""
        assert "finite budget epsilon" in proc.stderr

    def test_env_seed(self, tmp_path):
        out0 = run_cli("run", "--rounds", "2", "--mechanism", "gaussian", env={"UDPFL_SEED": "4"})
        out1 = run_cli("run", "--rounds", "2", "--mechanism", "gaussian", "--seed", "4")
        assert out0.stdout == out1.stdout

    def test_seeds_that_alias_modulo_2_64_are_rejected(self, tmp_path):
        # 2**64 and -1 once ran the streams of 0 and 2**64 - 1; now only the
        # seeds in [0, 2**64) run.
        for valid, alias in (("0", "18446744073709551616"), ("18446744073709551615", "-1")):
            ran = run_cli("run", "--rounds", "1", "--mechanism", "gaussian", "--seed", valid)
            assert ran.returncode == 0, ran.stderr
            assert ran.stdout.splitlines()[1].endswith(f",{valid}")
            refused = run_cli("run", "--rounds", "1", "--mechanism", "gaussian", "--seed", alias)
            assert refused.returncode == 2 and refused.stdout == ""
            assert f"invalid value for 'seed' in command-line flag: '{alias}'" in refused.stderr
        cfg = tmp_path / "a.cfg"
        cfg.write_text("rounds = 1\n", encoding="utf-8")
        refused = run_cli("sweep", str(cfg), "--seeds", "1,-1")
        assert refused.returncode == 2 and "'seed'" in refused.stderr

    def test_calibrate_json_lines(self):
        proc = run_cli(
            "calibrate", "--mechanism", "gaussian,staircase", "--epsilon", "8", "--rounds", "300"
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert len(lines) == 2
        gauss = json.loads(lines[0])
        stair = json.loads(lines[1])
        assert gauss["achieved_epsilon"] <= 8.0
        assert stair["nu"] is not None

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["calibrate", "--mechanism", "gaussian", "--epsilon", "x", "--rounds", "5"], "--epsilon"),
            (["calibrate", "--mechanism", "gaussian", "--epsilon", "8", "--rounds", "1.5"], "--rounds"),
            (["calibrate", "--mechanism", "gaussian", "--epsilon", "8", "--rounds", "5", "--tolerance", "-1"], "--tolerance"),
            (["calibrate", "--mechanism", "gaussian,cauchy", "--epsilon", "8", "--rounds", "5"], "--mechanism"),
            (["bounds", "--mechanism", "gaussian", "--scale", "2", "-T", "1.5"], "-T/--rounds"),
            (["bounds", "--mechanism", "gaussian", "--scale", "0"], "--scale"),
        ],
    )
    def test_calibrate_and_bounds_flags_go_through_the_rules(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exited:
            cli.main(argv)
        out, err = capsys.readouterr()
        assert exited.value.code == 2 and out == ""
        assert f"error: argument {flag}: invalid value" in err

    def test_bounds_json(self):
        proc = run_cli(
            "bounds", "--mechanism", "staircase", "--scale", "2.0", "-m", "3", "-T", "7"
        )
        assert proc.returncode == 0, proc.stderr
        obj = json.loads(proc.stdout)
        want = 3 * 7 * math.e / (math.e**2 - 1.0)
        assert obj["l1_bound"] == pytest.approx(want, rel=1e-9)

    def test_modeconnect_with_a_label_only_held_out_rows_carry(self, tmp_path):
        # Mode-connect curves train on the server's validation rows, so a
        # label that only they and the eval rows carry still needs a class.
        path = write_csv_dataset(tmp_path, 80)
        cfg = small_cfg(dataset=path, clients=2, rounds=2, aggregator="modeconnect")
        lines = (tmp_path / "data.csv").read_text(encoding="utf-8").splitlines()
        fed = _build_federation(cfg)
        for held_out in (fed.validation, fed.eval):
            row_text = ",".join(f"{v:.4f}" for v in held_out.features[0])
            [row] = [i for i, line in enumerate(lines) if line.startswith(row_text + ",")]
            lines[row] = row_text + ",2"
        (tmp_path / "data.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        fed = _build_federation(cfg)
        assert 2 in fed.validation.labels and 2 in fed.eval.labels
        assert 2 not in fed.pool.labels

        proc = run_cli(
            "run", "--dataset", path, "--clients", "2", "--rounds", "2", "--seed", "3",
            "--mechanism", "gaussian", "--aggregator", "modeconnect",
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1])["rounds_run"] == 2

    def test_sweep_subcommand(self, tmp_path):
        a = tmp_path / "a.cfg"
        a.write_text("rounds = 2\nmechanism = gaussian\n", encoding="utf-8")
        proc = run_cli("sweep", str(a), "--seeds", "0,1")
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[0] == SWEEP_HEADER
        assert len(lines) == 1 + 2 * 2
        assert lines[1].startswith("a-s0,")
