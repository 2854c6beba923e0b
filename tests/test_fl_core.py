import dataclasses
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dpfed import accountant, fl_core
from dpfed.accountant import PrivacyBudget, calibrate_noise, default_alpha_grid, rdp_curve
from dpfed.fl_core import (
    CURVE_TRAIN_LR,
    CURVE_TRAIN_STEPS,
    Aggregator,
    BudgetExhaustedError,
    ClientConfig,
    ClientTable,
    DatasetShard,
    Federation,
    LogisticRegressionModel,
    ServerState,
    client_ledger,
    fedavg_aggregate,
    heterogeneity_penalty,
    heterogeneous_update,
    load_csv_shard,
    local_update,
    local_updates,
    make_synthetic_federation,
    round_draws,
    run_round,
    selection_count,
    shuffle_updates,
)
from dpfed.mode_connectivity import CurveTrainConfig, mode_connect_aggregate
from dpfed.mechanisms import MechanismKind, MechanismParams, NoiseStream
from oracles import (
    central_difference_gradient,
    cumulative_epsilon,
    published_softmax_oracle,
    run_round_reference,
    softmax_loss_and_accuracy_reference,
    stacked_gradient_parent,
)


def tiny_shard(seed=0, n=40, f=4, classes=3):
    rng = np.random.default_rng(seed)
    return DatasetShard(rng.normal(size=(n, f)), rng.integers(0, classes, n))


def client_view(fed, j):
    """Client j's rows of the federation's pool, as a row-range view."""
    return fed.pool.row_range(*fed.bounds[j : j + 2])


def make_client(mech=None, budget=PrivacyBudget(8.0, 1e-5, 1)):
    return ClientConfig(budget, mech)


def client_slices(uniforms, noise, cfgs, sizes):
    """Each client's ``(masks, noise)`` slices of a round's arrays: its noise
    is its ``(epochs, 1, dim)`` rows of the block, none if it is noise-disabled."""
    slices, bounds = [], np.cumsum([0, *sizes])
    noised = [cfg.mechanism is not None for cfg in cfgs]
    for a, b, slot, width in zip(bounds[:-1], bounds[1:], np.cumsum(noised) - noised, noised):
        slices.append((uniforms[:, a:b], noise[:, slot : slot + width]))
    return slices


def solo_update(plan, cfg, shard, model, seed, **kw):
    """One client's ``local_update`` on the arrays a round of ``plan`` with it alone draws."""
    table = ClientTable.build([cfg], plan.clip_c)
    return local_update(plan, cfg, shard, model, *round_draws(seed, plan, table, shard.n, model.dim), **kw)


def make_plan(w0, **kw):
    """A server broadcasting ``w0``, with the local-training plan q = 1, one
    epoch, c = 1 and step 0.1 unless ``kw`` overrides it."""
    args = dict(
        global_model=w0,
        round_t=0,
        aggregator=Aggregator.FEDAVG,
        selection_fraction=1.0,
        clip_c=1.0,
        sample_rate_q=1.0,
        local_epochs_I=1,
        learning_rate=0.1,
    )
    args.update(kw)
    return ServerState(**args)


class TestShard:
    def test_validation(self):
        with pytest.raises(ValueError):
            DatasetShard(np.zeros((0, 3)), np.zeros(0, dtype=int))
        with pytest.raises(ValueError):
            DatasetShard(np.zeros((2, 3)), np.array([0.5, 1.0]))
        with pytest.raises(ValueError):
            DatasetShard(np.array([[np.inf, 0.0]]), np.array([0]))

    @pytest.mark.parametrize(
        "labels, message",
        [
            (np.array([0]), "labels must be a vector matching the feature rows"),
            (np.array([[0], [1]]), "labels must be a vector matching the feature rows"),
            (np.array([0, -1]), "labels must be non-negative"),
        ],
    )
    def test_label_guards(self, labels, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            DatasetShard(np.zeros((2, 3)), labels)

    def test_csv_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "shard.csv"
        path.write_text("x0,label\n1.0,0\n\n2.0,1\n\n", encoding="utf-8")
        shard = load_csv_shard(path)
        assert shard.features[:, 0].tolist() == [1.0, 2.0]
        assert shard.labels.tolist() == [0, 1]

    @pytest.mark.parametrize(
        "rows, bad_line", [("1.0,2.0,0\n", 2), ("1.0,0\n0.5\n", 3), ("1.0,0\n2.0,3.0,1\n", 3)]
    )
    def test_csv_row_must_match_the_header(self, tmp_path, rows, bad_line):
        path = tmp_path / "shard.csv"
        path.write_text("x0,label\n" + rows, encoding="utf-8")
        with pytest.raises(ValueError, match=f"line {bad_line} has \\d cells, but the header has 2"):
            load_csv_shard(path)

    @pytest.mark.parametrize(
        "rows, where",
        [
            ("0.5,-1.25,0\n2.0,3.5,1.5\n", "line 3, column 3 \\('label'\\): '1.5' is not an integer"),
            ("0.5,abc,0\n", "line 2, column 2 \\('x1'\\): 'abc' is not a number"),
        ],
    )
    def test_csv_cell_that_does_not_parse_is_named(self, tmp_path, rows, where):
        path = tmp_path / "shard.csv"
        path.write_text("x0,x1,label\n" + rows, encoding="utf-8")
        with pytest.raises(ValueError, match=where):
            load_csv_shard(path)

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "shard.csv"
        path.write_text("x0,x1,label\n0.5,-1.25,0\n2.0,3.5,2\n", encoding="utf-8")
        shard = load_csv_shard(path)
        assert shard.n == 2
        assert shard.features[1, 1] == 3.5
        assert shard.labels.tolist() == [0, 2]

    def test_ghost_term_indexes_like_recomputed(self):
        fed = make_synthetic_federation(2, 200, 20, 10, seed=3)
        rng = np.random.default_rng(4)
        for shard in (client_view(fed, 0), client_view(fed, 1)):
            assert np.array_equal(shard.ghost_term, ghost_term(shard.features))
            for q in (0.05, 0.5):
                idx = np.flatnonzero(rng.random(shard.n) < q)
                assert np.array_equal(shard.ghost_term[idx], ghost_term(shard.features[idx]))

    def test_pool_is_a_view_of_dealt_rows(self):
        fed = make_synthetic_federation(3, 7, 2, 3, seed=5)
        pool, shards = fed.pool, [client_view(fed, j) for j in range(3)]
        for name in ("augmented", "features", "labels", "ghost_term"):
            assert np.shares_memory(getattr(pool, name), getattr(fed.data, name)), name
        assert np.array_equal(pool.features, np.concatenate([s.features for s in shards]))
        assert np.array_equal(pool.labels, np.concatenate([s.labels for s in shards]))

    def test_deal_splits_rows_in_role_order(self):
        data = tiny_shard(4, n=12)
        fed = Federation.deal(data, [3, 5], 2)
        assert fed.bounds.tolist() == [0, 3, 8]
        assert [client_view(fed, j).n for j in range(2)] == [3, 5]
        assert np.array_equal(client_view(fed, 1).features, data.features[3:8])
        assert np.array_equal(fed.pool.features, data.features[:8])
        assert np.array_equal(fed.validation.features, data.features[8:10])
        assert np.array_equal(fed.eval.features, data.features[10:])
        assert fed.data is data

    @pytest.mark.parametrize("sizes", [[19, 19, 19, 18], [3, 9, 5, 12], [200] * 10])
    def test_deal_weights_are_the_pool_shares_bit_for_bit(self, sizes):
        fed = Federation.deal(tiny_shard(6, n=sum(sizes) + 2), sizes, 1)
        floats = np.array(sizes, dtype=float)
        assert fed.weights.tobytes() == (floats / floats.sum()).tobytes()

    @pytest.mark.parametrize("n_clients, samples", [(0, 7), (3, 0)])
    def test_synthetic_needs_a_client_and_a_sample(self, n_clients, samples):
        with pytest.raises(ValueError, match="^need at least one client and one sample per client$"):
            make_synthetic_federation(n_clients, samples, 2, 3, seed=5)

    def test_synthetic_validation_rows_leave_the_data_stream_alone(self):
        # Client and eval rows are the "synthetic-data" draws exactly as if
        # there were no validation split, which draws from its own stream.
        fed = make_synthetic_federation(3, 7, 2, 3, seed=5, eval_fraction=0.2)
        rng = NoiseStream(5, 0, 0, "synthetic-data").rng
        centers = rng.normal(0.0, 3.0, (3, 2))
        labels = rng.integers(0, 3, 25)
        feats = centers[labels] + rng.normal(0.0, 1.0, (25, 2))
        assert np.array_equal(fed.pool.features, feats[:21]) and np.array_equal(fed.pool.labels, labels[:21])
        assert np.array_equal(fed.eval.features, feats[21:]) and np.array_equal(fed.eval.labels, labels[21:])
        val = NoiseStream(5, 0, 0, "server-validation").rng
        val_labels = val.integers(0, 3, 4)
        assert np.array_equal(fed.validation.labels, val_labels)
        assert np.array_equal(fed.validation.features, centers[val_labels] + val.normal(0.0, 1.0, (4, 2)))

    def test_row_range_shares_every_row_term(self):
        shard = tiny_shard(3, n=10)
        view = shard.row_range(2, 7)
        assert view.n == 5
        for name in ("augmented", "features", "labels", "ghost_term"):
            assert np.shares_memory(getattr(view, name), getattr(shard, name)), name
            assert np.array_equal(getattr(view, name), getattr(shard, name)[2:7]), name
        assert sorted(vars(view)) == ["augmented", "features", "ghost_term", "labels"]
        for start, stop in ((3, 3), (-1, 4), (5, 11)):
            with pytest.raises(ValueError):
                shard.row_range(start, stop)

    def test_csv_header_required(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_csv_shard(path)


class TestLossModel:
    @pytest.mark.parametrize("classes, features", [(1, 3), (2, 0)])
    def test_needs_two_classes_and_a_feature(self, classes, features):
        with pytest.raises(ValueError, match="^need at least 2 classes and 1 feature$"):
            LogisticRegressionModel(classes, features)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            f = int(rng.integers(2, 10))
            classes = int(rng.integers(2, 5))
            model = LogisticRegressionModel(classes, f)
            if model.dim > 50:
                continue
            shard = DatasetShard(rng.normal(size=(12, f)), rng.integers(0, classes, 12))
            stack = rng.normal(scale=0.5, size=(3, model.dim))
            stacked = model.gradient(stack, shard)
            assert stacked.shape == stack.shape
            for w, row in zip(stack, stacked):
                got = model.gradient(w, shard)
                assert np.allclose(row, got, rtol=1e-12)
                want = central_difference_gradient(lambda v: model.loss(v, shard), w)
                denom = max(np.max(np.abs(want)), 1e-8)
                assert np.max(np.abs(got - want)) / denom < 1e-4

    def test_per_example_gradients_average(self):
        model = LogisticRegressionModel(3, 4)
        shard = tiny_shard(3)
        stack = np.random.default_rng(1).normal(size=(4, model.dim))
        stacked = model.gradient(stack, shard)
        for w, row in zip(stack, stacked):
            per = model.per_example_gradients(w, shard)
            single = model.gradient(w, shard)
            assert per.shape == (shard.n, model.dim)
            assert np.allclose(per.mean(axis=0), single, rtol=1e-12)
            assert np.allclose(row, single, rtol=1e-12)

    def test_gradient_shape_checked(self):
        model = LogisticRegressionModel(3, 4)
        shard = tiny_shard(3)
        for shape in [(model.dim - 1,), (2, model.dim + 1), (2, 2, model.dim), ()]:
            with pytest.raises(ValueError):
                model.gradient(np.zeros(shape), shard)

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_gradient_is_the_bound_gradient_bit_for_bit(self, k):
        rng = np.random.default_rng(k)
        model = LogisticRegressionModel(4, 6)
        shard = tiny_shard(k, n=50, f=6, classes=4)
        grad = model.stack_gradient(shard, k)
        out = np.empty((model.classes, k, model.features + 1))
        for _ in range(3):
            # The bound buffers carry nothing from one call to the next; the
            # bound gradient reads and writes the class-major layout.
            stack = rng.normal(scale=2.0, size=(k, model.dim))
            assert grad(np.ascontiguousarray(model.to_layout(stack)), out) is out
            assert np.array_equal(model.from_layout(out), model.gradient(stack, shard))
            assert np.array_equal(model.from_layout(out), stacked_gradient_parent(model, stack, shard))
        assert np.array_equal(model.gradient(stack[0], shard), stacked_gradient_parent(model, stack[0], shard))

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_class_major_layout_round_trip_keeps_every_bit(self, k):
        model = LogisticRegressionModel(4, 6)
        stack = np.random.default_rng(k).normal(size=(k, model.dim))
        stack[0, :6] = [-0.0, np.inf, -np.inf, np.nan, 5e-324, -1e308]
        level = np.ascontiguousarray(model.to_layout(stack))
        back = model.from_layout(level)
        assert back.shape == stack.shape and back.tobytes() == stack.tobytes()
        assert not np.shares_memory(back, level) and not np.shares_memory(back, stack)

    def test_class_major_layout_puts_class_c_of_model_j_in_row_c_j(self):
        model, k = LogisticRegressionModel(3, 2), 4
        stack = np.arange(k * model.dim, dtype=float).reshape(k, model.dim)
        level = model.to_layout(stack)
        flat = np.ascontiguousarray(level).reshape(model.classes * k, model.features + 1)
        assert level.shape == (model.classes, k, model.features + 1)
        for j in range(k):
            for c, class_row in enumerate(stack[j].reshape(model.classes, model.features + 1)):
                assert np.array_equal(level[c, j], class_row)
                assert np.array_equal(flat[c * k + j], class_row)

    def test_loss_and_accuracy_match_row_major_reference(self):
        rng = np.random.default_rng(29)
        for classes, f, n in [(2, 1, 1), (3, 4, 40), (10, 20, 2000)]:
            model = LogisticRegressionModel(classes, f)
            shard = DatasetShard(rng.normal(scale=3.0, size=(n, f)), rng.integers(0, classes, n))
            w = rng.normal(size=model.dim)
            rows = w.reshape(classes, f + 1)
            want_loss, want_acc = softmax_loss_and_accuracy_reference(
                rows[:, :f], rows[:, f], shard.features, shard.labels
            )
            assert model.loss(w, shard) == pytest.approx(want_loss, rel=1e-12)
            assert model.accuracy(w, shard) == want_acc

    def test_one_vector_logits_are_one_matmul(self):
        # A (dim,) vector is the one-segment case of the stacked logits, with
        # the bits of one plain matmul over all rows.
        rng = np.random.default_rng(41)
        for _ in range(200):
            classes, f, n = int(rng.integers(2, 11)), int(rng.integers(1, 25)), int(rng.integers(1, 300))
            model = LogisticRegressionModel(classes, f)
            rows = augment(rng.normal(scale=3.0, size=(n, f)))
            w = rng.normal(size=model.dim)
            want = w.reshape(classes, f + 1) @ rows.T
            assert np.array_equal(model._logits(w, rows), want)
            assert np.array_equal(model._logits(w[None], rows, (0, n)), want)
        for shape in [(model.dim - 1,), (1, model.dim), ()]:
            with pytest.raises(ValueError, match=f"expected a parameter vector of length {model.dim}"):
                model.loss(np.zeros(shape), DatasetShard(rows[:, :-1], np.zeros(n, dtype=int)))

    def test_accuracy_range(self):
        model = LogisticRegressionModel(3, 4)
        shard = tiny_shard(4)
        acc = model.accuracy(model.init_params(), shard)
        assert 0.0 <= acc <= 1.0

    def test_row_layout_holds_each_class_weights_then_bias(self):
        model = LogisticRegressionModel(3, 2)
        published = np.arange(model.dim)  # W = [[0, 1], [2, 3], [4, 5]], b = [6, 7, 8]
        assert published[model.from_published].tolist() == [0, 1, 6, 2, 3, 7, 4, 5, 8]

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        k=st.integers(1, 4),
        classes=st.integers(2, 6),
        f=st.integers(1, 8),
        n=st.integers(1, 30),
        c=st.floats(1e-3, 10.0),
        w_scale=st.floats(0.0, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property_matches_published_oracle(self, k, classes, f, n, c, w_scale, seed):
        # Parameters are drawn in the published [W | b] packing and moved to
        # the row layout by the model's index map; the oracle's gradients are
        # moved the same way.
        rng = np.random.default_rng(seed)
        model = LogisticRegressionModel(classes, f)
        shard = DatasetShard(rng.normal(size=(n, f)), rng.integers(0, classes, n))
        published = rng.normal(scale=w_scale, size=(k, model.dim))
        stack = published[:, model.from_published]
        oracles = [published_softmax_oracle(p, shard.features, shard.labels, classes) for p in published]
        for got, (per_example, _, _) in zip(model.gradient(stack, shard), oracles):
            assert_matches_oracle(got, per_example.mean(axis=0)[model.from_published])
        w, (per_example, loss, acc) = stack[0], oracles[0]
        assert model.loss(w, shard) == pytest.approx(loss, rel=1e-12)
        assert model.accuracy(w, shard) == acc
        assert_matches_oracle(model.per_example_gradients(w, shard), per_example[:, model.from_published])
        got = one_segment(model, w, shard.augmented, shard.labels, shard.ghost_term, c)
        assert_matches_oracle(got, clip_rows_and_sum(per_example, c)[model.from_published])


def one_segment(model, w, rows, labels, ghost_term, c):
    """``clipped_gradient_sum`` of one model over one batch: its one-segment case."""
    return model.clipped_gradient_sum(w[None], rows, labels, ghost_term, c, (0, len(rows)))[0]


def clip_rows_and_sum(grads, c):
    """The rows of ``grads``, each clipped to l2 norm c by an explicit norm, summed."""
    norms = np.linalg.norm(grads, axis=1, keepdims=True)
    return (grads * np.minimum(1.0, c / np.maximum(norms, 1e-300))).sum(axis=0)


def clipped_sum_oracle(model, w, shard, c):
    """Per-example gradients, each clipped to l2 norm c by an explicit norm, summed."""
    return clip_rows_and_sum(model.per_example_gradients(w, shard), c)


def augment(x):
    """The rows ``x`` with a trailing ones column, as :attr:`DatasetShard.augmented` holds them."""
    return np.hstack([x, np.ones((len(x), 1))])


def ghost_term(x):
    """The ghost-norm data term ``||x_i||^2 + 1``, recomputed on the rows given."""
    return (x * x).sum(axis=1) + 1.0


def assert_matches_oracle(got, want):
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


def saturated_row_model():
    """A model under which the row ``(5, 0, 0, 0)`` with label 0 has a logit
    margin of 1000: its softmax is exactly one-hot and its residual zero."""
    model = LogisticRegressionModel(3, 4)
    w = np.zeros(model.dim)
    w[0] = 200.0
    return model, w, np.array([5.0, 0.0, 0.0, 0.0]), 0


class TestGhostClipping:
    def test_matches_oracle_when_clipping_binds(self):
        model = LogisticRegressionModel(3, 4)
        shard = tiny_shard(21)
        w = np.random.default_rng(6).normal(scale=2.0, size=model.dim)
        c = 0.05
        norms = np.linalg.norm(model.per_example_gradients(w, shard), axis=1)
        assert (norms > c).any() and (norms < c).any()  # binds on some rows, not all
        got = one_segment(model, w, shard.augmented, shard.labels, shard.ghost_term, c)
        assert_matches_oracle(got, clipped_sum_oracle(model, w, shard, c))

    def test_matches_plain_sum_when_clipping_is_slack(self):
        model = LogisticRegressionModel(3, 4)
        shard = tiny_shard(22)
        w = np.random.default_rng(7).normal(scale=0.3, size=model.dim)
        norms = np.linalg.norm(model.per_example_gradients(w, shard), axis=1)
        c = 2.0 * norms.max()
        got = one_segment(model, w, shard.augmented, shard.labels, shard.ghost_term, c)
        assert_matches_oracle(got, model.per_example_gradients(w, shard).sum(axis=0))
        assert_matches_oracle(got, shard.n * model.gradient(w, shard))

    def test_single_row(self):
        model = LogisticRegressionModel(4, 3)
        shard = tiny_shard(23, n=1, f=3, classes=4)
        w = np.random.default_rng(8).normal(size=model.dim)
        for c in (0.01, 1.0, 100.0):
            got = one_segment(model, w, shard.augmented, shard.labels, shard.ghost_term, c)
            assert got.shape == (model.dim,)
            assert_matches_oracle(got, clipped_sum_oracle(model, w, shard, c))

    def test_zero_residual_row(self):
        model, w, x0, y0 = saturated_row_model()
        rng = np.random.default_rng(9)
        features = np.vstack([x0, rng.normal(scale=0.01, size=(9, 4))])
        labels = np.concatenate([[y0], rng.integers(0, 3, 9)])
        shard = DatasetShard(features, labels)
        assert not model.per_example_gradients(w, shard)[0].any()
        for c in (0.1, 10.0):
            got = one_segment(model, w, shard.augmented, labels, shard.ghost_term, c)
            assert_matches_oracle(got, clipped_sum_oracle(model, w, shard, c))

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(1, 30),
        f=st.integers(1, 8),
        classes=st.integers(2, 5),
        c=st.floats(1e-3, 10.0),
        w_scale=st.floats(0.0, 5.0),
        x_scale=st.floats(1e-2, 10.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property_rows_bounded_and_sum_matches(self, n, f, classes, c, w_scale, x_scale, seed):
        rng = np.random.default_rng(seed)
        model = LogisticRegressionModel(classes, f)
        shard = DatasetShard(rng.normal(scale=x_scale, size=(n, f)), rng.integers(0, classes, n))
        w = rng.normal(scale=w_scale, size=model.dim)
        for i in range(n):
            row = one_segment(
                model, w, shard.augmented[i : i + 1], shard.labels[i : i + 1], shard.ghost_term[i : i + 1], c
            )
            assert np.linalg.norm(row) <= c + 1e-12
        got = one_segment(model, w, shard.augmented, shard.labels, shard.ghost_term, c)
        assert_matches_oracle(got, clipped_sum_oracle(model, w, shard, c))

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(1, 30),
        f=st.integers(1, 8),
        classes=st.integers(2, 5),
        c=st.floats(1e-3, 10.0),
        w_scale=st.floats(0.0, 5.0),
        x_scale=st.floats(1e-2, 10.0),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_property_one_row_moves_the_sum_by_at_most_c(self, n, f, classes, c, w_scale, x_scale, seed, data):
        # The sensitivity the ledger charges for: adding or removing any one
        # row of a batch moves the clipped sum by at most c in l2.
        rng = np.random.default_rng(seed)
        model = LogisticRegressionModel(classes, f)
        shard = DatasetShard(rng.normal(scale=x_scale, size=(n + 1, f)), rng.integers(0, classes, n + 1))
        w = rng.normal(scale=w_scale, size=model.dim)
        with_row = one_segment(model, w, shard.augmented, shard.labels, shard.ghost_term, c)
        keep = np.delete(np.arange(n + 1), data.draw(st.integers(0, n), label="row"))
        without = one_segment(model, w, shard.augmented[keep], shard.labels[keep], shard.ghost_term[keep], c)
        assert np.linalg.norm(with_row - without) <= c + 1e-12


class TestClip:
    """Clipping of single gradients, through the kernel on one-row batches."""

    @staticmethod
    def one_row(seed, x_scale=1.0):
        rng = np.random.default_rng(seed)
        model = LogisticRegressionModel(3, 4)
        x = rng.normal(scale=x_scale, size=(1, 4))
        y = rng.integers(0, 3, 1)
        w = rng.normal(size=model.dim)
        g = model.per_example_gradients(w, DatasetShard(x, y))[0]
        return model, w, x, y, g

    def test_forced_scaling(self):
        model, w, x, y, g = self.one_row(0)
        c = 0.5 * np.linalg.norm(g)
        out = one_segment(model, w, augment(x), y, ghost_term(x), c)
        assert np.allclose(out, g * (c / np.linalg.norm(g)), rtol=1e-15)
        assert np.linalg.norm(out) == pytest.approx(c, rel=1e-14)

    def test_unchanged_inside_ball(self):
        model, w, x, y, g = self.one_row(1)
        out = one_segment(model, w, augment(x), y, ghost_term(x), 2.0 * np.linalg.norm(g))
        assert np.array_equal(out, g)

    def test_zero_vector(self):
        model, w, x0, y0 = saturated_row_model()
        out = one_segment(model, w, augment(x0[None]), np.array([y0]), ghost_term(x0[None]), 1.0)
        assert np.array_equal(out, np.zeros(model.dim))

    def test_norm_bound_random(self):
        rng = np.random.default_rng(2)
        for seed in range(50):
            model, w, x, y, g = self.one_row(seed, x_scale=rng.uniform(0.1, 10))
            c = rng.uniform(0.1, 3)
            out = one_segment(model, w, augment(x), y, ghost_term(x), c)
            assert np.linalg.norm(out) <= c + 1e-12
            if np.linalg.norm(g) > 0:
                cos = np.dot(out, g) / (np.linalg.norm(out) * np.linalg.norm(g) + 1e-300)
                assert cos == pytest.approx(1.0, abs=1e-12)


class TestLocalUpdate:
    def test_noise_free_reduction(self):
        # q=1, I=1, one step: exactly global - eta * mean clipped gradient
        model = LogisticRegressionModel(3, 4)
        shard = tiny_shard(5)
        w0 = np.random.default_rng(3).normal(scale=0.3, size=model.dim)
        plan = make_plan(w0, clip_c=100.0)
        upd = solo_update(plan, make_client(), shard, model, 0)
        grads = model.per_example_gradients(w0, shard)
        norms = np.linalg.norm(grads, axis=1, keepdims=True)
        clipped = grads * np.minimum(1.0, 100.0 / norms)
        want = w0 - 0.1 * clipped.mean(axis=0)
        assert np.allclose(upd.params, want, rtol=1e-12)
        assert upd.noise_draws == 0

    def test_per_example_clipping_binds(self):
        model = LogisticRegressionModel(3, 4)
        shard = tiny_shard(21)
        c = 0.05
        w0 = np.random.default_rng(6).normal(scale=2.0, size=model.dim)
        upd = solo_update(make_plan(w0, clip_c=c), make_client(), shard, model, 2)
        grads = model.per_example_gradients(w0, shard)
        norms = np.linalg.norm(grads, axis=1, keepdims=True)
        assert (norms > c).any()  # clipping is actually active
        clipped = grads * np.minimum(1.0, c / norms)
        assert np.all(np.linalg.norm(clipped, axis=1) <= c + 1e-12)
        want = w0 - 0.1 * clipped.mean(axis=0)
        assert np.allclose(upd.params, want, rtol=1e-12)

    def test_heterogeneous_step(self):
        # q=1, I=1: exactly one heterogeneous_update step on the mean clipped gradient
        model = LogisticRegressionModel(3, 4)
        shard = tiny_shard(24)
        cfg = make_client(budget=PrivacyBudget(2.0, 1e-5, 1))
        rng = np.random.default_rng(4)
        w0, w_max = rng.normal(scale=0.5, size=(2, model.dim))
        upd = solo_update(make_plan(w0, clip_c=0.5), cfg, shard, model, 0, w_max=w_max, eps_max=8.0)
        mean = clipped_sum_oracle(model, w0, shard, 0.5) / shard.n
        want = heterogeneous_update(w0, mean, w_max, heterogeneity_penalty(2.0, 8.0), 0.1)
        assert np.allclose(upd.params, want, rtol=1e-12)
        assert not np.allclose(upd.params, w0 - 0.1 * mean, rtol=1e-6)

    def test_noise_lands_through_the_index_map(self):
        # q = 1, one epoch, lam = 0: one noisy step.  The oracle takes it in
        # the published [W | b] packing, with the noise the round's
        # local-noise stream draws, and then moves it to the row layout.
        model = LogisticRegressionModel(3, 4)
        shard = tiny_shard(26)
        mech = MechanismParams(MechanismKind.LAPLACE, 1.0, 2.0)
        published = np.random.default_rng(27).normal(scale=0.5, size=model.dim)
        plan = make_plan(published[model.from_published])
        upd = solo_update(plan, make_client(mech), shard, model, 4)
        assert upd.noise_draws == 1

        noise = NoiseStream(4, 0, 0, "local-noise").rng.laplace(0.0, 1.0, model.dim) * 2.0
        per_example, _, _ = published_softmax_oracle(published, shard.features, shard.labels, 3)
        want = published - 0.1 * (clip_rows_and_sum(per_example, 1.0) + noise) / shard.n
        assert_matches_oracle(upd.params, want[model.from_published])

    def test_creates_no_shard(self, monkeypatch):
        created = []
        init = DatasetShard.__init__

        def counting_init(self, *args, **kwargs):
            created.append(1)
            init(self, *args, **kwargs)

        model = LogisticRegressionModel(3, 4)
        mech = MechanismParams(MechanismKind.GAUSSIAN, 1.0, 5.0)
        shard = tiny_shard(25)
        monkeypatch.setattr(DatasetShard, "__init__", counting_init)
        w0 = model.init_params()
        plan = make_plan(w0, sample_rate_q=0.5, local_epochs_I=3)
        upd = solo_update(plan, make_client(mech), shard, model, 5)
        assert upd.noise_draws == 3
        assert created == []
        assert not np.array_equal(upd.params, w0)

    def test_determinism(self):
        model = LogisticRegressionModel(3, 4)
        shard = tiny_shard(6)
        cfg = make_client(MechanismParams(MechanismKind.GAUSSIAN, 1.0, 5.0))
        a, b, c = (
            solo_update(make_plan(model.init_params(), round_t=t, sample_rate_q=0.3, local_epochs_I=3), cfg, shard, model, 9)
            for t in (2, 2, 3)
        )
        assert np.array_equal(a.params, b.params)
        assert not np.array_equal(a.params, c.params)

    def test_huge_noise_gives_chance_accuracy(self):
        fed = make_synthetic_federation(1, 400, 20, 10, seed=55, eval_fraction=2.5)
        model = LogisticRegressionModel(10, 20)
        cfg = make_client(MechanismParams(MechanismKind.GAUSSIAN, 1.0, 1e6))
        # One noise-dominated model scores like a random map of the 10 blobs
        # onto the classes, anywhere from 0 to about 0.4; its mean over
        # seeds is the chance level.
        accuracies = []
        for seed in range(13, 53):
            w = model.init_params()
            for r in range(3):
                plan = make_plan(w, round_t=r, sample_rate_q=0.5, local_epochs_I=2)
                w = solo_update(plan, cfg, client_view(fed, 0), model, seed).params
            accuracies.append(model.accuracy(w, fed.eval))
        assert np.mean(accuracies) == pytest.approx(0.1, abs=0.05)

    def test_noise_draw_counting(self):
        model = LogisticRegressionModel(3, 4)
        cfg = make_client(MechanismParams(MechanismKind.LAPLACE, 1.0, 2.0))
        plan = make_plan(model.init_params(), local_epochs_I=4, sample_rate_q=1.0)
        upd = solo_update(plan, cfg, tiny_shard(7), model, 1)
        assert upd.noise_draws == 4

    def test_mechanism_sensitivity_must_match_clip(self):
        model = LogisticRegressionModel(3, 4)
        cfg = make_client(MechanismParams(MechanismKind.LAPLACE, 2.0, 1.0))
        plan = make_plan(model.init_params(), clip_c=1.0)
        with pytest.raises(ValueError, match="^mechanism sensitivity 2.0 must equal the clip bound 1.0$"):
            solo_update(plan, cfg, tiny_shard(8), model, 0)
        # A noise-disabled client has no sensitivity to check.
        solo_update(plan, make_client(), tiny_shard(8), model, 0)


class TestServerState:
    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("selection_fraction", 0.0, "selection fraction must lie in \\(0, 1\\], got 0.0"),
            ("selection_fraction", 1.5, "selection fraction must lie in \\(0, 1\\], got 1.5"),
            ("clip_c", 0.0, "clip bound must be positive, got 0.0"),
            ("clip_c", -1.0, "clip bound must be positive, got -1.0"),
            ("clip_c", math.nan, "clip bound must be positive, got nan"),
            ("clip_c", math.inf, "clip bound must be positive, got inf"),
            ("sample_rate_q", 0.0, "sample rate must lie in \\(0, 1\\], got 0.0"),
            ("sample_rate_q", 1.5, "sample rate must lie in \\(0, 1\\], got 1.5"),
            ("sample_rate_q", -0.25, "sample rate must lie in \\(0, 1\\], got -0.25"),
            ("local_epochs_I", 0, "local epochs must be >= 1, got 0"),
            ("local_epochs_I", -2, "local epochs must be >= 1, got -2"),
            ("learning_rate", 0.0, "learning rate must be positive, got 0.0"),
            ("learning_rate", -0.1, "learning rate must be positive, got -0.1"),
            ("learning_rate", math.nan, "learning rate must be positive, got nan"),
            ("learning_rate", math.inf, "learning rate must be positive, got inf"),
        ],
    )
    def test_rejects_an_invalid_plan(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            make_plan(np.zeros(3), **{field: value})

    def test_plan_is_frozen(self):
        # A plan cannot change past its checks: every value a round reads was checked.
        plan = make_plan(np.zeros(3))
        for name, value in [("clip_c", -1.0), ("shuffle", True), ("global_model", np.ones(3))]:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(plan, name, value)
        assert plan.clip_c == 1.0 and plan.shuffle is False
        # The one coercion still happens as the state is built.
        assert make_plan([0, 1]).global_model.dtype == float

    def test_models_are_read_only_copies(self):
        # Neither the caller's array nor a write through the state changes the
        # model a round broadcasts or the models it remembers.
        w0, w1 = np.zeros(3), np.ones(3)
        plan = make_plan(w0, client_models={0: w1})
        w0[:], w1[:] = np.nan, np.nan
        assert np.array_equal(plan.global_model, np.zeros(3))
        with pytest.raises(ValueError, match="read-only"):
            plan.global_model[:] = np.nan
        with pytest.raises(ValueError, match="read-only"):
            plan.client_models[0][:] = np.nan
        with pytest.raises(TypeError):
            plan.client_models[1] = np.ones(3)
        assert np.array_equal(plan.client_models[0], np.ones(3)) and list(plan.client_models) == [0]

    def test_a_round_remembers_read_only_models(self):
        server, clients, model, ledger, fed = build_federation(mech_kind=MechanismKind.GAUSSIAN)
        server = run_round(server, clients, model, ledger, 12, fed).server
        assert not server.global_model.flags.writeable
        assert sorted(server.client_models) == [0, 1, 2, 3]
        assert not any(w.flags.writeable for w in server.client_models.values())

    def test_a_round_shares_the_models_it_left_alone(self):
        # Half the clients train each round: only their models are new, each
        # a read-only row of the round's stack, and the others are the very
        # arrays the previous state held.
        server, clients, model, ledger, fed = build_federation(n_clients=6, mech_kind=MechanismKind.GAUSSIAN)
        server = dataclasses.replace(server, selection_fraction=0.5)
        for t in range(4):
            before = dict(server.client_models)
            after = run_round(server, clients, model, ledger, 8, fed).server
            chosen = set(NoiseStream(8, t, 0, "client-selection").rng.permutation(6)[:3].tolist())
            assert set(after.client_models) == set(before) | chosen
            for j, w in after.client_models.items():
                assert (w is before.get(j)) == (j not in chosen)
                assert not w.flags.writeable
            assert not after.global_model.flags.writeable
            assert (after.round_t, after.selection_fraction, after.clip_c) == (t + 1, 0.5, server.clip_c)
            server = after

    def test_accepts_the_plan_edges(self):
        plan = make_plan(np.zeros(3), clip_c=1e-9, sample_rate_q=1.0, local_epochs_I=1, learning_rate=1e-9)
        assert (plan.clip_c, plan.sample_rate_q, plan.local_epochs_I, plan.learning_rate) == (1e-9, 1.0, 1, 1e-9)

    def test_run_round_rejects_a_mechanism_off_the_clip(self):
        server, clients, model, ledger, fed = build_federation(mech_kind=MechanismKind.GAUSSIAN)
        server = dataclasses.replace(server, clip_c=0.5)
        with pytest.raises(ValueError, match="must equal the clip bound 0.5$"):
            run_round(server, clients, model, ledger, 3, fed)


class TestClientTable:
    KINDS = [MechanismKind.LAPLACE, None, MechanismKind.STAIRCASE, MechanismKind.GAUSSIAN, MechanismKind.LAPLACE]

    def mixed_clients(self):
        budgets = [PrivacyBudget(eps, 1e-5, 40) for eps in (3.0, 8.0, 5.0, 8.0, 2.0)]
        return [
            make_client(None if kind is None else calibrate_noise(kind, 1.0, b).mechanism, b)
            for kind, b in zip(self.KINDS, budgets)
        ]

    def test_build_checks_each_sensitivity(self):
        table = ClientTable.build(self.mixed_clients(), 1.0)
        assert table.epsilon.tolist() == [3.0, 8.0, 5.0, 8.0, 2.0]
        assert table.noised.tolist() == [True, False, True, True, True] and len(table.noise) == 4
        off = [make_client(), make_client(MechanismParams(MechanismKind.LAPLACE, 2.0, 1.0))]
        with pytest.raises(ValueError, match="^mechanism sensitivity 2.0 must equal the clip bound 1.0$"):
            ClientTable.build(off, 1.0)

    def test_take_is_the_table_of_those_clients(self):
        clients = self.mixed_clients()
        table = ClientTable.build(clients, 1.0)
        for rows in ([0, 1, 2, 3, 4], [1, 3], [1], [4, 2]):
            got, want = table.take(np.array(rows)), ClientTable.build([clients[j] for j in rows], 1.0)
            for name in ("epsilon", "noised"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
            for name in ("kind", "scale", "delta", "band_p", "inner_p", "nu"):
                assert getattr(got.noise, name).tobytes() == getattr(want.noise, name).tobytes(), name

    def test_a_round_rejects_a_table_built_for_another_clip_bound(self):
        server, clients, model, ledger, fed = build_federation(mech_kind=MechanismKind.GAUSSIAN)
        for clip in (0.5, 1.0 + 1e-12):
            with pytest.raises(ValueError, match=f"^mechanism sensitivity 1.0 must equal the clip bound {clip}$"):
                run_round(dataclasses.replace(server, clip_c=clip), clients, model, ledger, 3, fed)
        assert ledger.rounds_composed.tolist() == [0, 0, 0, 0]
        # A table with no noised client has no sensitivity to check.
        server, clients, model, ledger, fed = build_federation()
        run_round(dataclasses.replace(server, clip_c=0.5), clients, model, ledger, 3, fed)


class TestLocalUpdates:
    """The segmented batch against one ``local_update`` call per client."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        q=st.one_of(st.sampled_from([1e-3, 1.0]), st.floats(0.05, 1.0)),  # empty, all, between
        epochs=st.integers(1, 3),
        c=st.floats(0.05, 5.0),  # clip bound
        lr=st.floats(0.01, 1.0),
        clients=st.lists(
            st.tuples(
                st.integers(1, 12),  # rows
                st.floats(0.5, 8.0),  # epsilon
                st.booleans(),  # mechanism on
                st.booleans(),  # selected
            ),
            min_size=1,
            max_size=5,
        ).filter(lambda clients: any(selected for *_, selected in clients)),
        anchored=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    # Uneven sizes: the first and the last client unselected, then every
    # other client with both ends selected.
    @example(
        q=0.6, epochs=3, c=0.7, lr=0.2, anchored=True, seed=17,
        clients=[(3, 2.0, True, False), (9, 4.0, True, True), (1, 6.0, True, True), (6, 8.0, True, False)],
    )
    @example(
        q=0.6, epochs=3, c=0.7, lr=0.2, anchored=True, seed=18,
        clients=[
            (1, 8.0, True, True), (8, 2.0, True, False), (4, 5.0, False, True),
            (12, 3.0, True, False), (2, 7.0, True, True),
        ],
    )
    def test_property_matches_one_client_at_a_time(self, q, epochs, c, lr, clients, anchored, seed):
        # A one-row client at q = 1 makes a one-row segment every epoch, and
        # q = 1e-3 mostly an empty one.  Unselected clients' rows lie between
        # and around the selected ones in the pool.
        rng = np.random.default_rng(seed)
        model = LogisticRegressionModel(3, 4)
        sizes = [n for n, *_ in clients]
        # The pool is the clients' rows in order, then one validation and one eval row.
        n = sum(sizes) + 2
        fed = Federation.deal(DatasetShard(rng.normal(size=(n, 4)), rng.integers(0, 3, n)), sizes, 1)
        cfgs, spans, views = [], [], []
        for j, (_, eps, noisy, selected) in enumerate(clients):
            if selected:
                mech = MechanismParams(MechanismKind.LAPLACE, c, 0.5) if noisy else None
                cfgs.append(ClientConfig(PrivacyBudget(eps, 1e-5, 1), mech))
                spans.append((fed.bounds[j], fed.bounds[j + 1]))
                views.append(client_view(fed, j))
        w0 = rng.normal(scale=0.5, size=model.dim)
        plan = make_plan(w0, round_t=1, clip_c=c, sample_rate_q=q, local_epochs_I=epochs, learning_rate=lr)
        if anchored:
            w_max, eps_max = rng.normal(scale=0.5, size=model.dim), 8.0
            solo = dict(w_max=w_max, eps_max=eps_max)
        else:
            # local_update's defaults: no pull, toward the broadcast model.
            w_max, eps_max, solo = w0, math.inf, {}
        sizes = [view.n for view in views]
        table = ClientTable.build(cfgs, plan.clip_c)
        uniforms, noise = round_draws(seed, plan, table, sum(sizes), model.dim)
        stack, draws = local_updates(plan, table, fed.pool, spans, model, uniforms, noise, w_max, eps_max)
        assert stack.shape == (len(cfgs), model.dim) and draws.shape == (len(cfgs),)
        assert np.issubdtype(draws.dtype, np.integer)
        slices = client_slices(uniforms, noise, cfgs, sizes)
        for cfg, view, (masks, own), params, n_draws in zip(cfgs, views, slices, stack, draws):
            want = local_update(plan, cfg, view, model, masks, own, **solo)
            assert n_draws == want.noise_draws
            assert_matches_oracle(params, want.params)

    @pytest.mark.parametrize("q, kind", [(0.5, MechanismKind.GAUSSIAN), (0.05, MechanismKind.STAIRCASE)])
    def test_bit_equal_at_the_benchmark_shapes(self, q, kind):
        # 10 clients of 200 rows, 20 features, 10 classes, two local epochs:
        # the dense (q = 0.5) and sparse (q = 0.05, heterogeneous budgets) shapes.
        fed = make_synthetic_federation(10, 200, 20, 10, seed=31)
        model = LogisticRegressionModel(10, 20)
        eps = np.linspace(8.0, 16.0, 10) if q < 0.5 else np.full(10, 8.0)
        budgets = [PrivacyBudget(e, 1e-5, 300) for e in eps]
        cfgs = [make_client(calibrate_noise(kind, 1.0, budget).mechanism, budget) for budget in budgets]
        table = ClientTable.build(cfgs, 1.0)
        spans = np.stack([fed.bounds[:-1], fed.bounds[1:]], axis=1)
        w = np.random.default_rng(32).normal(scale=0.1, size=model.dim)
        w_max = np.random.default_rng(33).normal(scale=0.1, size=model.dim)
        for round_t in range(3):
            plan = make_plan(w, round_t=round_t, sample_rate_q=q, local_epochs_I=2)
            uniforms, noise = round_draws(7, plan, table, 2000, model.dim)
            stack, draws = local_updates(plan, table, fed.pool, spans, model, uniforms, noise, w_max, eps.max())
            slices = client_slices(uniforms, noise, cfgs, [200] * 10)
            for j, (cfg, (masks, own), params, n_draws) in enumerate(zip(cfgs, slices, stack, draws)):
                view = client_view(fed, j)
                x = local_update(plan, cfg, view, model, masks, own, w_max=w_max, eps_max=eps.max())
                assert n_draws == x.noise_draws == 2
                assert np.array_equal(params, x.params)
            w = fedavg_aggregate(stack, np.full(10, 0.1))

    def test_returned_models_outlive_the_next_round(self):
        # Round t's client models are rows of one stack, and round t + 1
        # pulls toward the anchor's (a view of that stack).
        server, clients, model, ledger, fed = build_federation(
            mech_kind=MechanismKind.GAUSSIAN, eps_list=[2.0, 4.0, 6.0, 8.0]
        )
        for _ in range(3):
            server = run_round(server, clients, model, ledger, 12, fed).server
            kept = {j: w.copy() for j, w in server.client_models.items()}
            run_round(server, clients, model, ledger, 12, fed)
            for j, w in kept.items():
                assert np.array_equal(server.client_models[j], w)

    def test_draw_shapes_checked(self):
        # Masks cover every span row in every epoch; the noise block has one
        # row per noised client and no more.
        model = LogisticRegressionModel(3, 4)
        shard = tiny_shard(44, n=6)
        plan = make_plan(model.init_params(), local_epochs_I=2)
        noised = make_client(MechanismParams(MechanismKind.GAUSSIAN, 1.0, 1.0))
        masks, noise = np.zeros((2, 6)), np.zeros((2, 1, model.dim))
        for cfg, u, z in [(noised, masks[:, :5], noise), (noised, masks[:1], noise), (noised, masks, noise[:, :0])]:
            with pytest.raises(ValueError, match="^masks and noise must have shapes"):
                local_update(plan, cfg, shard, model, u, z)
        message = "shapes \\(2, 6\\) and \\(2, 0, 15\\), got \\(2, 6\\) and \\(2, 1, 15\\)$"
        with pytest.raises(ValueError, match=message):
            local_update(plan, make_client(), shard, model, masks, noise)
        assert local_update(plan, noised, shard, model, masks, noise).noise_draws == 2

    def test_segment_bounds_checked(self):
        model = LogisticRegressionModel(3, 4)
        shard = tiny_shard(43, n=6)
        stack = np.zeros((2, model.dim))
        for bounds in ([0, 6], [0, 2, 5], [1, 3, 6], [0, 3, 4, 6]):
            with pytest.raises(ValueError):
                model.clipped_gradient_sum(stack, shard.augmented, shard.labels, shard.ghost_term, 1.0, bounds)

    def test_empty_subsample_skips_the_step_and_the_noise(self):
        # The 1-row client's segment is empty in the first and last of three
        # epochs, the 60-row client's never is.
        model = LogisticRegressionModel(3, 4)
        mech = MechanismParams(MechanismKind.GAUSSIAN, 1.0, 5.0)
        q, epochs = 0.05, 3
        fed = Federation.deal(tiny_shard(40, n=63), [1, 60], 1)
        # The empty client's budget is below eps_max, so a step would move it.
        cfgs = [make_client(mech, PrivacyBudget(2.0, 1e-5, 1)), make_client(mech)]
        w0 = np.random.default_rng(42).normal(size=model.dim)
        plan = make_plan(w0, sample_rate_q=q, local_epochs_I=epochs)
        table = ClientTable.build(cfgs, plan.clip_c)
        uniforms, noise = round_draws(3, plan, table, 61, model.dim)
        # The 1-row client's uniform is not below q in epochs 0 and 2; the
        # other client always samples its first row.
        uniforms[:, 0], uniforms[:, 1] = [q, 0.0, 1.0], 0.0
        spans = [(0, 1), (1, 61)]
        stack, draws = local_updates(plan, table, fed.pool, spans, model, uniforms, noise, np.zeros(model.dim), 8.0)
        # One step, on the one epoch it sampled its row: the same as a round whose
        # other two noise rows are any others.
        assert draws[0] == 1
        for other in (noise[[0, 2], :1] * 0.0, noise[[0, 2], :1] + 1.0):
            own = noise[:, :1].copy()
            own[[0, 2]] = other
            view = client_view(fed, 0)
            alone = local_update(plan, cfgs[0], view, model, uniforms[:, :1], own, np.zeros(model.dim), 8.0)
            assert alone.noise_draws == 1 and np.array_equal(stack[0], alone.params)
        assert not np.array_equal(stack[0], w0)
        # Three draws: the 60-row client's segment is non-empty in every epoch.
        assert draws[1] == epochs and not np.array_equal(stack[1], w0)
        # Never sampled, the client neither steps nor draws.
        uniforms[:, 0] = 1.0
        stack, draws = local_updates(plan, table, fed.pool, spans, model, uniforms, noise, np.zeros(model.dim), 8.0)
        assert draws[0] == 0 and np.array_equal(stack[0], w0)


class TestHeterogeneousUpdate:
    def test_equal_epsilon_collapses_to_sgd(self):
        w = np.array([1.0, -1.0, 0.0, 2.0] * 4, dtype=float)[: 1 * 4]
        g = np.array([0.1, 0.2, 0.3, 0.4])
        w_max = np.zeros(4)
        out = heterogeneous_update(w[:4], g, w_max, heterogeneity_penalty(4.0, 4.0), 0.5)
        assert np.allclose(out, w[:4] - 0.5 * g, rtol=1e-15)

    def test_tiny_epsilon_maximal_pull(self):
        w = np.ones(4)
        out = heterogeneous_update(w, np.zeros(4), np.zeros(4), heterogeneity_penalty(1e-9, 1.0), 1.0)
        # lam -> 1: w - (w - w_max) = w_max
        assert np.allclose(out, np.zeros(4), atol=1e-8)

    def test_at_anchor_no_penalty(self):
        w = np.array([0.5, 0.5, -0.5, 1.0])
        g = np.array([1.0, 0.0, 0.0, 0.0])
        out = heterogeneous_update(w, g, w, heterogeneity_penalty(2.0, 8.0), 0.7)
        assert np.allclose(out, w - 0.7 * g, rtol=1e-15)

    def test_eps_max_domination(self):
        with pytest.raises(ValueError):
            heterogeneity_penalty(4.0, 2.0)


class TestFedAvg:
    def test_identical_models(self):
        m = np.array([1.0, 2.0])
        assert np.array_equal(fedavg_aggregate([m, m, m], [0.2, 0.3, 0.5]), m)

    def test_midpoint(self):
        out = fedavg_aggregate([np.array([0.0, 0.0]), np.array([2.0, 4.0])], [1.0, 1.0])
        assert np.allclose(out, [1.0, 2.0], rtol=1e-15)

    def test_degenerate_weight(self):
        a, b = np.array([1.0]), np.array([5.0])
        assert np.array_equal(fedavg_aggregate([a, b], [1.0, 0.0]), a)

    def test_subset_renormalization(self):
        # weights that do not sum to 1 over the subset are rescaled
        out = fedavg_aggregate([np.array([0.0]), np.array([1.0])], [0.1, 0.3])
        assert out[0] == pytest.approx(0.75, rel=1e-12)

    def test_single_model_identity(self):
        m = np.array([3.0, -1.0])
        assert np.array_equal(fedavg_aggregate([m], [0.4]), m)

    def test_errors(self):
        for empty in ([], np.zeros((0, 3))):
            with pytest.raises(ValueError, match="non-empty \\(k, dim\\) stack"):
                fedavg_aggregate(empty, [])
        with pytest.raises(ValueError):
            fedavg_aggregate([np.zeros(2), np.zeros(3)], [1.0, 1.0])
        for flat_or_deep in (np.zeros(3), np.zeros((2, 2, 2))):
            with pytest.raises(ValueError, match="non-empty \\(k, dim\\) stack"):
                fedavg_aggregate(flat_or_deep, [1.0, 1.0])
        with pytest.raises(ValueError):
            fedavg_aggregate([np.zeros(2)], [0.0])

    def test_weight_guards(self):
        # One weight for two models would broadcast; a negative one would renormalize.
        with pytest.raises(ValueError, match="^weights must match the number of models$"):
            fedavg_aggregate([np.zeros(2), np.ones(2)], [1.0])
        with pytest.raises(ValueError, match="^weights must be non-negative$"):
            fedavg_aggregate([np.zeros(2), np.ones(2)], [1.0, -0.5])


class TestShuffle:
    def test_single_unchanged(self):
        ids, stack = shuffle_updates(np.array([3]), np.array([[1.0, 2.0]]), NoiseStream(0, purpose="shuffle"))
        assert ids.tolist() == [3] and stack.tolist() == [[1.0, 2.0]]

    def test_ids_stay_with_their_rows(self):
        ids = np.array([4, 0, 7, 2, 9, 5])
        stack = np.stack([ids * 1.0, -ids * 1.0], axis=1)
        out_ids, out_stack = shuffle_updates(ids, stack, NoiseStream(1, purpose="shuffle"))
        assert sorted(out_ids.tolist()) == sorted(ids.tolist())
        assert np.array_equal(out_stack[:, 0], out_ids) and np.array_equal(out_stack[:, 1], -out_ids)
        # One permutation of k from the stream, applied to both.
        perm = NoiseStream(1, purpose="shuffle").rng.permutation(len(ids))
        assert np.array_equal(out_ids, ids[perm]) and np.array_equal(out_stack, stack[perm])
        assert not np.array_equal(perm, np.arange(len(ids)))

    def test_uniformity_chi_square(self):
        ids, stack = np.arange(3), np.arange(3.0)[:, None]
        counts = Counter()
        for trial in range(10_000):
            out_ids, out_stack = shuffle_updates(ids, stack, NoiseStream(12345, trial, 0, "shuffle"))
            assert np.array_equal(out_stack[:, 0], out_ids)
            counts[tuple(out_ids.tolist())] += 1
        assert len(counts) == 6
        for perm, count in counts.items():
            assert count / 10_000 == pytest.approx(1.0 / 6.0, abs=0.02)

    def test_empty_round_and_mismatch_rejected(self):
        stream = NoiseStream(0, purpose="shuffle")
        with pytest.raises(ValueError, match="at least one"):
            shuffle_updates(np.array([], dtype=int), np.zeros((0, 2)), stream)
        with pytest.raises(ValueError, match="one id per model row"):
            shuffle_updates(np.arange(3), np.zeros((2, 2)), stream)


def federation_clients(n_clients=4, mech_kind=None, epsilon=8.0, horizon=40, eps_list=None, horizons=None):
    """The client configs of :func:`build_federation` under the same arguments."""
    clients = []
    for cid in range(n_clients):
        eps_k = eps_list[cid] if eps_list else epsilon
        budget = PrivacyBudget(eps_k if mech_kind else math.inf, 1e-5, horizons[cid] if horizons else horizon)
        mech = None
        if mech_kind is not None:
            mech = calibrate_noise(mech_kind, 1.0, budget).mechanism
        clients.append(ClientConfig(budget=budget, mechanism=mech))
    return clients


def build_federation(
    n_clients=4,
    mech_kind=None,
    epsilon=8.0,
    horizon=40,
    aggregator=Aggregator.FEDAVG,
    eps_list=None,
    seed=100,
    horizons=None,
):
    """A run's server, client table, model, ledger and federation; the table
    is built for the server's clip bound, 1."""
    fed = make_synthetic_federation(n_clients, 60, 5, 3, seed=seed)
    model = LogisticRegressionModel(3, 5)
    clients = federation_clients(n_clients, mech_kind, epsilon, horizon, eps_list, horizons)
    ledger = client_ledger(clients)
    server = make_plan(
        model.init_params(), aggregator=aggregator, sample_rate_q=0.5, local_epochs_I=2, learning_rate=0.05
    )
    return server, ClientTable.build(clients, server.clip_c), model, ledger, fed


class TestClientLedger:
    @pytest.mark.parametrize("kind", list(MechanismKind))
    @pytest.mark.parametrize("epsilon", [0.5, 2.0, 8.0, 32.0, 128.0])
    @pytest.mark.parametrize("horizon", [1, 15, 300])
    def test_calibration_is_the_ledger_at_the_horizon(self, kind, epsilon, horizon):
        # Zero plus T times the curve is exact, so the two agree bit for bit
        # only if calibration and the ledger share one grid and one conversion.
        # Laplace and Staircase minimize at order 64 for T = 1, and every kind
        # at order 1.5 for epsilon 128, T = 300: both ends of the grid count.
        budget = PrivacyBudget(epsilon, 1e-5, horizon)
        result = calibrate_noise(kind, 1.0, budget)
        ledger = client_ledger([ClientConfig(budget, result.mechanism)])
        assert not ledger.spend([horizon]).halted
        (eps,), (alpha,) = ledger.to_dp()
        assert (eps, alpha) == (result.achieved_epsilon, result.minimizing_alpha)

    @pytest.mark.parametrize(
        "epsilons, distinct", [([8.0] * 10, 1), ([7.0, 7.0, 8.0, 8.0, 8.0, 9.0, 9.0, 9.0, 9.0, 9.0], 3)]
    )
    def test_one_curve_per_distinct_mechanism_per_ledger(self, monkeypatch, epsilons, distinct):
        # Clients that share a mechanism share one curve within a ledger; a
        # second ledger of the same clients computes its own, as nothing
        # outlives the first.
        budgets = [PrivacyBudget(eps, 1e-5, 40) for eps in epsilons]
        mechs = {b: calibrate_noise(MechanismKind.GAUSSIAN, 1.0, b).mechanism for b in set(budgets)}
        clients = [ClientConfig(b, mechs[b]) for b in budgets]
        real_curve, calls = accountant.rdp_curve, []

        def counted(params, grid):
            calls.append(params)
            return real_curve(params, grid)

        monkeypatch.setattr(accountant, "rdp_curve", counted)
        first = client_ledger(clients)
        assert Counter(calls) == Counter(mechs.values()) and len(calls) == distinct
        second = client_ledger(clients)
        assert Counter(calls) == Counter({mech: 2 for mech in mechs.values()})
        grid = default_alpha_grid()
        want = np.array([real_curve(c.mechanism, grid) for c in clients])
        assert first.curves.tobytes() == second.curves.tobytes() == want.tobytes()


class TestRunRound:
    def test_noiseless_full_participation_loss_non_increasing(self):
        server, clients, model, ledger, fed = build_federation()
        server = dataclasses.replace(server, sample_rate_q=1.0, local_epochs_I=1, clip_c=1000.0)
        losses = []
        for _ in range(20):
            result = run_round(server, clients, model, ledger, 7, fed)
            server = result.server
            losses.append(result.metrics.train_loss)
        assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))

    def test_budget_ceiling_and_halt(self):
        horizon = 10  # 5 rounds x 2 local epochs
        server, clients, model, ledger, fed = build_federation(mech_kind=MechanismKind.GAUSSIAN, horizon=horizon)
        metrics = []
        for _ in range(5):
            result = run_round(server, clients, model, ledger, 3, fed)
            server = result.server
            metrics.append(result.metrics)
        assert all(m.cumulative_epsilon <= 8.0 for m in metrics)
        assert metrics[-1].cumulative_epsilon == pytest.approx(8.0, abs=1e-3)
        with pytest.raises(BudgetExhaustedError):
            run_round(server, clients, model, ledger, 3, fed)
        # ledger rows unchanged by the aborted round
        eps_after = ledger.to_dp()[0][0]
        assert eps_after <= 8.0

    def test_metrics_count_and_determinism(self):
        rows = []
        for attempt in range(2):
            server, clients, model, ledger, fed = build_federation(mech_kind=MechanismKind.STAIRCASE)
            acc = []
            for _ in range(3):
                result = run_round(server, clients, model, ledger, 11, fed)
                server = result.server
                acc.append(result.metrics)
            rows.append(acc)
        assert len(rows[0]) == 3
        for a, b in zip(rows[0], rows[1]):
            assert a == b

    def test_clients_of_different_mechanisms_share_a_round(self):
        # Gaussian, Laplace, Staircase and Gaussian clients: each trains on
        # its slices of the round's draws, and every ledger row is charged.
        server, clients, model, _, fed = build_federation(
            mech_kind=MechanismKind.GAUSSIAN, eps_list=[2.0, 4.0, 6.0, 8.0]
        )
        kinds = [MechanismKind.GAUSSIAN, MechanismKind.LAPLACE, MechanismKind.STAIRCASE, MechanismKind.GAUSSIAN]
        gauss = federation_clients(mech_kind=MechanismKind.GAUSSIAN, eps_list=[2.0, 4.0, 6.0, 8.0])
        clients = [ClientConfig(c.budget, calibrate_noise(k, 1.0, c.budget).mechanism) for c, k in zip(gauss, kinds)]
        ledger, table = client_ledger(clients), ClientTable.build(clients, server.clip_c)
        result = run_round(server, table, model, ledger, 6, fed)
        sizes = [client_view(fed, j).n for j in range(4)]
        slices = client_slices(*round_draws(6, server, table, sum(sizes), model.dim), clients, sizes)
        for j, (masks, own) in enumerate(slices):
            want = local_update(server, clients[j], client_view(fed, j), model, masks, own, server.global_model, 8.0)
            assert want.noise_draws == 2
            assert_matches_oracle(result.server.client_models[j], want.params)
        assert ledger.rounds_composed.tolist() == [1, 1, 1, 1]

    def test_selection_fraction(self):
        server, clients, model, ledger, fed = build_federation(mech_kind=MechanismKind.LAPLACE)
        server = dataclasses.replace(server, selection_fraction=0.5)
        result = run_round(server, clients, model, ledger, 4, fed)
        # only ceil(0.5 * 4) = 2 clients trained: the others left no local model
        assert len(result.server.client_models) == 2
        # each trained on its own rows of the pool, with its own slices of the round's draws
        chosen = sorted(result.server.client_models)
        cfgs = federation_clients(mech_kind=MechanismKind.LAPLACE)
        selected, sizes = [cfgs[j] for j in chosen], [client_view(fed, j).n for j in chosen]
        drawn = round_draws(4, server, clients.take(np.array(chosen)), sum(sizes), model.dim)
        slices = client_slices(*drawn, selected, sizes)
        for j, (masks, own) in zip(chosen, slices):
            params = result.server.client_models[j]
            want = local_update(server, cfgs[j], client_view(fed, j), model, masks, own, server.global_model, 8.0)
            assert_matches_oracle(params, want.params)

    @pytest.mark.parametrize("fraction, want", [(0.07, 7), (0.14, 14), (0.28, 28), (0.55, 55), (0.56, 56)])
    def test_selection_count_ignores_round_off(self, fraction, want):
        # fraction * 100 lies just above want in floating point: 0.07 * 100 == 7.000000000000001.
        assert fraction * 100 > want
        server, clients, model, ledger, fed = build_federation(n_clients=100)
        server = dataclasses.replace(server, selection_fraction=fraction)
        result = run_round(server, clients, model, ledger, 2, fed)
        assert len(result.server.client_models) == want

    def test_selection_count_is_the_ceiling_at_the_grid_sizes(self):
        # The acceptance grid and CI run 4, 10 or 20 clients: there no
        # fraction of hundredths changes its count.
        for clients in (4, 10, 20):
            for fraction in np.arange(1, 101) / 100:  # 0.01 ... 1.00, the doubles the config parses
                assert selection_count(fraction, clients) == math.ceil(fraction * clients)
        assert selection_count(0.07, 100) == 7 and selection_count(0.071, 100) == 8

    @pytest.mark.parametrize("fraction", [1e-12, 4e-11])
    def test_a_tiny_fraction_selects_one_client(self, fraction):
        # The product rounds to 0 at 9 decimals; a positive fraction still selects a client.
        assert selection_count(fraction, 10) == 1
        server, clients, model, ledger, fed = build_federation(n_clients=10)
        server = dataclasses.replace(server, selection_fraction=fraction)
        assert len(run_round(server, clients, model, ledger, 2, fed).server.client_models) == 1

    def test_client_counts_must_agree(self):
        # One client list, one ledger row each and one row range each, or no round.
        server, clients, model, ledger, fed = build_federation()
        _, five_clients, _, five_rows, five_ranges = build_federation(n_clients=5)
        for cfgs, rows, ranges, counts in [
            (clients, ledger, five_ranges, (4, 4, 5)),
            (clients, five_rows, fed, (4, 5, 4)),
            (five_clients, ledger, fed, (5, 4, 4)),
        ]:
            message = "^{} clients, {} ledger rows and {} client row ranges must agree$".format(*counts)
            with pytest.raises(ValueError, match=message):
                run_round(server, cfgs, model, rows, 1, ranges)
        assert ledger.rounds_composed.tolist() == [0, 0, 0, 0]

    def test_shuffled_round_keeps_each_weight_with_its_client(self):
        # Uneven clients, so unequal weights, with heterogeneous Gaussian budgets.
        sizes, seed = [3, 9, 5, 12], 23
        fed = Federation.deal(tiny_shard(50, n=sum(sizes) + 8, f=5), sizes, 4)
        model = LogisticRegressionModel(3, 5)
        budgets = [PrivacyBudget(eps, 1e-5, 40) for eps in (2.0, 8.0, 4.0, 6.0)]
        clients = [ClientConfig(b, calibrate_noise(MechanismKind.GAUSSIAN, 1.0, b).mechanism) for b in budgets]
        weights = np.array(sizes) / sum(sizes)
        perm = NoiseStream(seed, 0, 0, "shuffle").rng.permutation(len(sizes))
        assert not np.array_equal(perm, np.arange(len(sizes)))

        def shuffled_round(aggregator):
            server = make_plan(
                np.random.default_rng(51).normal(scale=0.3, size=model.dim),
                aggregator=aggregator, sample_rate_q=0.7, local_epochs_I=2, shuffle=True,
            )
            ledger, table = client_ledger(clients), ClientTable.build(clients, server.clip_c)
            result = run_round(server, table, model, ledger, seed, fed)
            models = result.server.client_models
            slices = client_slices(*round_draws(seed, server, table, sum(sizes), model.dim), clients, sizes)
            for j, (cfg, (masks, own)) in enumerate(zip(clients, slices)):
                want = local_update(server, cfg, client_view(fed, j), model, masks, own, server.global_model, 8.0)
                assert_matches_oracle(models[j], want.params)
            return result, np.stack([models[j] for j in range(len(clients))])

        result, stack = shuffled_round(Aggregator.FEDAVG)
        want = fedavg_aggregate(stack[perm], weights[perm])
        assert np.array_equal(result.server.global_model, want)
        # Rows shuffled without their ids would weigh each model by another client's weight.
        assert not np.allclose(fedavg_aggregate(stack[perm], weights), want, rtol=1e-9)

        curve_cfg = CurveTrainConfig(CURVE_TRAIN_STEPS, CURVE_TRAIN_LR, model, fed.validation)
        result, stack = shuffled_round(Aggregator.MODE_CONNECT)
        stream = NoiseStream(seed, 0, 0, "curve-train")
        want = mode_connect_aggregate(stack[perm], curve_cfg, stream=stream)
        assert np.array_equal(result.server.global_model, want)
        assert not np.allclose(mode_connect_aggregate(stack, curve_cfg, stream=stream), want, rtol=1e-9)

    @pytest.mark.parametrize("noised", [True, False])
    @pytest.mark.parametrize("shuffle", [False, True])
    @pytest.mark.parametrize("fraction", [1.0, 0.5])
    def test_stream_count_does_not_grow_with_clients(self, monkeypatch, noised, shuffle, fraction):
        # The masks and the noise block: two round-wide streams, one more
        # with the shuffle, one fewer with noise disabled, and one more, the
        # selection, when fewer than all clients are selected.
        partial = fraction < 1.0
        for n_clients in (4, 20):
            server, clients, model, ledger, fed = build_federation(
                n_clients=n_clients, mech_kind=MechanismKind.GAUSSIAN if noised else None
            )
            built = []

            class RecordingStream(NoiseStream):
                def __post_init__(self):
                    built.append(self.purpose)
                    super().__post_init__()

            monkeypatch.setattr(fl_core, "NoiseStream", RecordingStream)
            plan = dataclasses.replace(server, shuffle=shuffle, selection_fraction=fraction)
            run_round(plan, clients, model, ledger, 14, fed)
            assert len(built) == 2 + partial + shuffle - (not noised), (n_clients, built)
            assert len(set(built)) == len(built) and "local-update" not in built
            assert ("local-noise" in built) == noised
            assert ("client-selection" in built) == partial

    def test_mode_connect_round_trains_the_run_curves_on_the_validation_rows(self):
        # The aggregator alone asks for curve training: the round merges its
        # stack along curves trained under the run's settings, not by midpoints.
        server, clients, model, ledger, fed = build_federation(aggregator=Aggregator.MODE_CONNECT)
        result = run_round(server, clients, model, ledger, 5, fed)
        stack = np.stack([result.server.client_models[j] for j in range(len(clients))])
        curves = CurveTrainConfig(CURVE_TRAIN_STEPS, CURVE_TRAIN_LR, model, fed.validation)
        want = mode_connect_aggregate(stack, curves, NoiseStream(5, 0, 0, "curve-train"))
        assert want.shape == server.global_model.shape
        assert np.array_equal(result.server.global_model, want)
        midpoints = CurveTrainConfig(0, CURVE_TRAIN_LR, model, fed.validation)
        plain = mode_connect_aggregate(stack, midpoints, NoiseStream(5, 0, 0, "curve-train"))
        assert not np.allclose(plain, want, rtol=1e-9)

    def test_heterogeneous_epsilons_round(self):
        server, clients, model, ledger, fed = build_federation(
            mech_kind=MechanismKind.GAUSSIAN, eps_list=[2.0, 4.0, 6.0, 8.0]
        )
        result = run_round(server, clients, model, ledger, 6, fed)
        # system epsilon is the per-client maximum
        assert result.metrics.cumulative_epsilon == pytest.approx(ledger.to_dp()[0].max(), rel=1e-12)
        # weaker-budget clients got more noise
        scales = clients.noise.scale.ravel().tolist()
        assert scales == sorted(scales, reverse=True)

    def test_shuffled_round_fedavg_invariant(self):
        a_server, clients, model, ledger, fed = build_federation()
        a = run_round(a_server, clients, model, ledger, 9, fed)
        b_server, clients2, model2, ledger2, fed2 = build_federation()
        b = run_round(dataclasses.replace(b_server, shuffle=True), clients2, model2, ledger2, 9, fed2)
        # equal weights: FedAvg is order-invariant, so shuffling changes nothing
        assert np.allclose(a.server.global_model, b.server.global_model, rtol=1e-12)

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(
        eps_list=st.lists(st.floats(1.0, 8.0), min_size=2, max_size=4),
        rounds=st.lists(st.integers(1, 3), min_size=2, max_size=4),
        first_extra=st.integers(1, 2),
        epochs=st.integers(1, 2),
    )
    def test_property_halt_rolls_back_the_whole_round(self, eps_list, rounds, first_extra, epochs):
        # Client k is calibrated to exactly rounds[k] rounds.  Client 0 is
        # charged first and outlasts some later client, so in the halting
        # round it has been charged before the halt.
        n = min(len(eps_list), len(rounds))
        eps_list, rounds = eps_list[:n], rounds[:n]
        rounds[0] = min(rounds[1:]) + first_extra
        server, clients, model, ledger, fed = build_federation(
            n_clients=n,
            mech_kind=MechanismKind.GAUSSIAN,
            eps_list=eps_list,
            horizons=[r * epochs for r in rounds],
        )
        cfgs = federation_clients(n, MechanismKind.GAUSSIAN, eps_list=eps_list, horizons=[r * epochs for r in rounds])
        # every epoch draws noise once
        server = dataclasses.replace(server, sample_rate_q=1.0, local_epochs_I=epochs)
        grid = default_alpha_grid()
        for t in range(min(rounds) + 1):
            before = [(ledger.gamma[j].copy(), ledger.rounds_composed[j]) for j in range(n)]
            if t == min(rounds):
                # The halt names the first client, in position order, that is out of rounds.
                with pytest.raises(BudgetExhaustedError, match=f"for client {rounds.index(t)}$"):
                    run_round(server, clients, model, ledger, 21, fed)
                for j, (gamma, composed) in enumerate(before):
                    assert np.array_equal(ledger.gamma[j], gamma)
                    assert ledger.rounds_composed[j] == composed
                return
            server = run_round(server, clients, model, ledger, 21, fed).server
            for j, cfg in enumerate(cfgs):
                charge = epochs * rdp_curve(cfg.mechanism, grid)
                assert np.array_equal(ledger.gamma[j], before[j][0] + charge)
                assert ledger.rounds_composed[j] == before[j][1] + 1


class TestRoundReference:
    """``run_round`` against the plain-loop round of ``oracles.run_round_reference``."""

    KINDS = (None, MechanismKind.GAUSSIAN, MechanismKind.LAPLACE, MechanismKind.STAIRCASE)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        clients=st.lists(
            st.tuples(
                st.integers(1, 12),  # rows
                st.floats(0.5, 8.0),  # epsilon
                st.sampled_from(KINDS),  # mechanism, None for noise disabled
                st.floats(0.3, 4.0),  # scale: sigma / c, b / c or lam
            ),
            min_size=1,
            max_size=6,
        ),
        fraction=st.one_of(st.just(1.0), st.floats(0.1, 0.99)),
        q=st.one_of(st.sampled_from([1e-3, 1.0]), st.floats(0.05, 1.0)),  # empty, all, between
        epochs=st.integers(1, 3),
        c=st.floats(0.05, 5.0),  # clip bound
        lr=st.floats(0.01, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    # Full selection over every kind, and a partial one whose later round
    # pulls toward a remembered anchor.
    @example(
        clients=[(5, 2.0, MechanismKind.GAUSSIAN, 2.0), (3, 8.0, MechanismKind.STAIRCASE, 1.0),
                 (7, 4.0, None, 1.0), (2, 6.0, MechanismKind.LAPLACE, 3.0)],
        fraction=1.0, q=0.5, epochs=2, c=1.0, lr=0.3, seed=5,
    )
    @example(
        clients=[(4, 3.0, MechanismKind.LAPLACE, 3.0), (6, 7.5, MechanismKind.LAPLACE, 3.5),
                 (1, 5.0, MechanismKind.STAIRCASE, 2.0), (9, 7.5, MechanismKind.GAUSSIAN, 4.0)],
        fraction=0.5, q=0.7, epochs=3, c=0.5, lr=0.2, seed=9,
    )
    def test_property_rounds_match_the_reference(self, clients, fraction, q, epochs, c, lr, seed):
        rng = np.random.default_rng(seed)
        model = LogisticRegressionModel(3, 4)
        sizes = [n for n, *_ in clients]
        n = sum(sizes) + 2
        fed = Federation.deal(DatasetShard(rng.normal(size=(n, 4)), rng.integers(0, 3, n)), sizes, 1)
        cfgs = []
        for _, eps, kind, scale in clients:
            if kind is MechanismKind.STAIRCASE:
                mech = MechanismParams(kind, c, scale, nu=accountant.optimal_staircase_nu(scale))
            else:
                mech = None if kind is None else MechanismParams(kind, c, scale * c)
            cfgs.append(ClientConfig(PrivacyBudget(eps, 1e-5, 1), mech))
        ledger = client_ledger(cfgs)
        server = make_plan(
            rng.normal(scale=0.5, size=model.dim), selection_fraction=fraction, clip_c=c,
            sample_rate_q=q, local_epochs_I=epochs, learning_rate=lr,
        )
        all_noised = all(cfg.mechanism is not None for cfg in cfgs)
        table = ClientTable.build(cfgs, c)
        for _ in range(3):
            models, global_model, gamma, composed, halted = run_round_reference(server, cfgs, model, ledger, seed, fed)
            if halted is not None:
                with pytest.raises(BudgetExhaustedError, match=f"for client {halted}$"):
                    run_round(server, table, model, ledger, seed, fed)
                assert ledger.gamma.tobytes() == gamma.tobytes()
                assert ledger.rounds_composed.tolist() == composed.tolist()
                return
            remembered = set(server.client_models)
            result = run_round(server, table, model, ledger, seed, fed)
            server = result.server
            assert set(server.client_models) == remembered | set(models)
            for j, w in models.items():
                assert_matches_oracle(server.client_models[j], w)
            assert_matches_oracle(server.global_model, global_model)
            np.testing.assert_allclose(ledger.gamma, gamma, rtol=1e-12, atol=0.0)
            assert ledger.rounds_composed.tolist() == composed.tolist()
            want = cumulative_epsilon(gamma, ledger.budgets, ledger.alpha_grid) if all_noised else math.inf
            assert result.metrics.cumulative_epsilon == pytest.approx(want, rel=1e-12)
