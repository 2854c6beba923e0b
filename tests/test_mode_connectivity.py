import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dpfed import mode_connectivity
from dpfed.fl_core import DatasetShard, LogisticRegressionModel
from dpfed.mechanisms import NoiseStream
from dpfed.mode_connectivity import (
    CurveKind,
    CurveSpec,
    CurveTrainConfig,
    bezier_fedavg_update,
    curve_point,
    mode_connect_aggregate,
    theta_star,
    train_curve,
)
from oracles import (
    QuadraticBowl,
    curve_loss_monte_carlo,
    mode_connect_parent,
    mode_connect_reference,
    train_bends_parent,
    train_curve_reference,
)


def make_spec(kind=CurveKind.POLYGONAL_CHAIN, theta=None):
    return CurveSpec(kind, np.array([1.0, 0.0]), np.array([-1.0, 0.0]), theta)


def logistic_setup(n_models, seed=0, classes=3, features=5, n=40):
    """A logistic loss oracle, its shard of ``n`` rows and ``n_models`` random
    parameter vectors."""
    rng = np.random.default_rng(seed)
    model = LogisticRegressionModel(classes, features)
    shard = DatasetShard(rng.normal(size=(n, features)), rng.integers(0, classes, n))
    models = list(rng.normal(scale=0.5, size=(n_models, model.dim)))
    return CurveTrainConfig(steps=100, learning_rate=0.05, model=model, shard=shard), models


class TestCurvePoint:
    @pytest.mark.parametrize("kind", list(CurveKind))
    def test_endpoints_exact(self, kind):
        rng = np.random.default_rng(0)
        for _ in range(10):
            w1, w2, th = rng.normal(size=(3, 7))
            spec = CurveSpec(kind, w1, w2, th)
            assert np.array_equal(curve_point(spec, 0.0), w1)
            assert np.array_equal(curve_point(spec, 1.0), w2)

    def test_polygonal_midpoint_is_bend(self):
        spec = make_spec(theta=np.array([0.3, 0.7]))
        assert np.allclose(curve_point(spec, 0.5), [0.3, 0.7], rtol=1e-15)

    def test_polygonal_three_quarters(self):
        # midpoint of the segment between theta and w2
        spec = make_spec(theta=np.array([0.3, 0.7]))
        want = 0.5 * spec.endpoint_w2 + 0.5 * spec.bend_theta
        assert np.allclose(curve_point(spec, 0.75), want, rtol=1e-12)

    def test_polygonal_continuous_at_half(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            w1, w2, th = rng.normal(size=(3, 5))
            spec = CurveSpec(CurveKind.POLYGONAL_CHAIN, w1, w2, th)
            left = 2.0 * (0.5 * th + 0.0 * w1)
            right = 2.0 * (0.0 * w2 + 0.5 * th)
            assert np.allclose(left, right, rtol=1e-15)
            assert np.allclose(curve_point(spec, 0.5), th, rtol=1e-12)

    def test_bezier_formula(self):
        spec = make_spec(CurveKind.QUADRATIC_BEZIER, np.array([0.0, 1.0]))
        p = 0.25
        want = (1 - p) ** 2 * spec.endpoint_w1 + 2 * p * (1 - p) * spec.bend_theta + p**2 * spec.endpoint_w2
        assert np.allclose(curve_point(spec, p), want, rtol=1e-15)

    def test_domain(self):
        spec = make_spec()
        with pytest.raises(ValueError):
            curve_point(spec, -0.01)
        with pytest.raises(ValueError):
            curve_point(spec, 1.01)

    def test_shape_guards(self):
        two, three = np.zeros(2), np.zeros(3)
        with pytest.raises(ValueError, match="^curve endpoints must share one dimension$"):
            CurveSpec(CurveKind.POLYGONAL_CHAIN, two, three)
        with pytest.raises(ValueError, match="^bend must share the endpoints' dimension$"):
            CurveSpec(CurveKind.POLYGONAL_CHAIN, two, two, three)

    def test_default_bend_is_midpoint(self):
        spec = make_spec()
        assert np.array_equal(spec.bend_theta, np.zeros(2))


class TestTrainCurve:
    @pytest.mark.parametrize(
        "steps, rate, message",
        [
            (-1, 0.1, "steps must be non-negative, got -1"),
            (1, -0.1, "learning_rate must be non-negative, got -0.1"),
            (1, math.nan, "learning_rate must be non-negative, got nan"),
        ],
    )
    def test_config_guards(self, steps, rate, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            CurveTrainConfig(steps=steps, learning_rate=rate, model=QuadraticBowl(np.zeros(2)))

    def test_quadratic_bowl_descent(self):
        bowl = QuadraticBowl(np.zeros(2))
        spec = CurveSpec(
            CurveKind.POLYGONAL_CHAIN, np.array([1.0, 0.0]), np.array([-1.0, 0.0]), np.array([0.5, 0.5])
        )
        cfg = CurveTrainConfig(steps=500, learning_rate=0.05, model=bowl)
        theta = train_curve(spec, cfg, NoiseStream(0, purpose="curve"))
        before = curve_loss_monte_carlo(spec, bowl.loss)
        after_spec = CurveSpec(spec.kind, spec.endpoint_w1, spec.endpoint_w2, theta)
        after = curve_loss_monte_carlo(after_spec, bowl.loss)
        assert after < before
        assert np.linalg.norm(theta) < np.linalg.norm(spec.bend_theta)
        # endpoints preserved exactly
        assert np.array_equal(curve_point(after_spec, 0.0), spec.endpoint_w1)
        assert np.array_equal(curve_point(after_spec, 1.0), spec.endpoint_w2)

    def test_zero_learning_rate(self):
        spec = make_spec(theta=np.array([0.4, -0.2]))
        cfg = CurveTrainConfig(steps=100, learning_rate=0.0, model=QuadraticBowl(np.ones(2)))
        theta = train_curve(spec, cfg, NoiseStream(1, purpose="curve"))
        assert np.array_equal(theta, spec.bend_theta)

    def test_stationary_at_shared_minimum(self):
        w = np.array([2.0, -1.0])
        spec = CurveSpec(CurveKind.QUADRATIC_BEZIER, w, w, w)
        cfg = CurveTrainConfig(steps=50, learning_rate=0.1, model=QuadraticBowl(w))
        theta = train_curve(spec, cfg, NoiseStream(2, purpose="curve"))
        assert np.array_equal(theta, w)

    @pytest.mark.parametrize("kind", list(CurveKind))
    def test_matches_one_curve_reference(self, kind):
        cfg, (w1, w2, th) = logistic_setup(3, seed=4)
        spec = CurveSpec(kind, w1, w2, th)
        got = train_curve(spec, cfg, NoiseStream(4, purpose="curve"))
        want = train_curve_reference(spec, cfg, NoiseStream(4, purpose="curve"))
        assert not np.allclose(got, th)
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_input_spec_not_mutated(self):
        spec = make_spec(theta=np.array([0.4, -0.2]))
        before = spec.bend_theta.copy()
        train_curve(spec, CurveTrainConfig(10, 0.1, QuadraticBowl(np.zeros(2))), NoiseStream(3, purpose="c"))
        assert np.array_equal(spec.bend_theta, before)


class FixedDraws:
    """A generator stand-in whose ``random`` draws cycle through ``ps``."""

    def __init__(self, ps):
        self.ps = np.asarray(ps, dtype=float)

    def random(self, size):
        return np.resize(self.ps, size)


def stacked_spec(kind, k, seed, shape=(3, 5, 40)):
    """A ``(k, d)`` curve spec with random ends and bends, and its logistic
    config at ``shape`` = (classes, features, rows)."""
    classes, features, n = shape
    cfg, models = logistic_setup(3 * k, seed=seed, classes=classes, features=features, n=n)
    w1, w2, theta = np.stack(models).reshape(3, k, -1)
    return CurveSpec(kind, w1, w2, theta), cfg


def pair_rngs(k, seed):
    return [NoiseStream(seed, 0, pair, "curve-train:level0").rng for pair in range(k)]


class TestLevelBuffers:
    """Curve training in level-owned buffers keeps the bits of the allocating
    per-step arithmetic it replaced (``oracles.train_bends_parent``)."""

    # (10, 20, 100) is the benchmark's shape, where a contiguous copy of the
    # transposed rows would change the logits' last bits.
    @pytest.mark.parametrize("shape", [(3, 5, 40), (10, 20, 100)])
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    @pytest.mark.parametrize("kind", list(CurveKind))
    def test_train_bends_bit_equal_to_parent(self, kind, k, shape):
        """Bit-equal at (classes, features, rows) = (3, 5, 40) and at the
        synthetic runs' (10, 20, 100), the benchmark's, for k = 1, 2, 3 and 5
        curves (a 10-client merge trains levels of 5, 2, 1 and 1); not at
        every shape (see :meth:`test_property_close_to_parent_over_shapes`)."""
        spec, cfg = stacked_spec(kind, k, seed=10 + k, shape=shape)
        got = mode_connectivity._train_bends(spec, cfg, pair_rngs(k, 7))
        assert not np.allclose(got, spec.bend_theta)
        assert np.array_equal(got, train_bends_parent(spec, cfg, pair_rngs(k, 7)))

    @pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("k", [1, 2, 5])
    @pytest.mark.parametrize("kind", list(CurveKind))
    def test_exact_curve_parameters_bit_equal_to_parent(self, kind, k, p):
        # Curve j draws p on every other step, starting at step j, and the
        # stream's values in between.
        spec, cfg = stacked_spec(kind, k, seed=20 + k)
        fill = np.random.default_rng(k).random((k, cfg.steps))
        draws = [FixedDraws(np.where(np.arange(cfg.steps) % 2 == j % 2, p, fill[j])) for j in range(k)]
        got = mode_connectivity._train_bends(spec, cfg, draws)
        assert np.array_equal(got, train_bends_parent(spec, cfg, draws))

    @pytest.mark.parametrize("p", [0.0, 1.0])
    @pytest.mark.parametrize("kind", list(CurveKind))
    def test_endpoint_parameters_leave_the_bends(self, kind, p):
        # At p = 0 or 1 the chain-rule factor dphi/dtheta is exactly 0.
        spec, cfg = stacked_spec(kind, 2, seed=3)
        got = mode_connectivity._train_bends(spec, cfg, [FixedDraws([p])] * 2)
        assert np.array_equal(got, spec.bend_theta)

    @pytest.mark.parametrize("n_models", [2, 4, 10])
    def test_mode_connect_aggregate_bit_equal_to_parent(self, n_models):
        # Ten models merge in levels of 5, 2, 1 and 1 curves.
        cfg, models = logistic_setup(n_models, seed=30 + n_models)
        stream = NoiseStream(9, 4, 0, "curve-train")
        got = mode_connect_aggregate(models, cfg, stream)
        assert np.array_equal(got, mode_connect_parent(models, cfg, stream, CurveKind.POLYGONAL_CHAIN))

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        k=st.integers(1, 6),
        classes=st.integers(2, 6),
        features=st.integers(1, 8),
        n=st.integers(1, 60),
        kind=st.sampled_from(list(CurveKind)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property_bit_equal_to_parent(self, k, classes, features, n, kind, seed):
        """Bit-equal on this fixed derandomized draw of 40 shapes (k 1-6,
        classes 2-6, features 1-8, rows 1-60, 20 steps) only: other shapes in
        the same range, such as k = 6, 3 classes, 2 features, 60 rows, differ
        in the last bits."""
        rng = np.random.default_rng(seed)
        model = LogisticRegressionModel(classes, features)
        shard = DatasetShard(rng.normal(size=(n, features)), rng.integers(0, classes, n))
        cfg = CurveTrainConfig(steps=20, learning_rate=0.5, model=model, shard=shard)
        w1, w2, theta = rng.normal(scale=2.0, size=(3, k, model.dim))
        spec = CurveSpec(kind, w1, w2, theta)
        got = mode_connectivity._train_bends(spec, cfg, pair_rngs(k, seed))
        assert np.array_equal(got, train_bends_parent(spec, cfg, pair_rngs(k, seed)))

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        k=st.integers(1, 6),
        classes=st.integers(2, 12),
        features=st.integers(1, 8),
        n=st.sampled_from([1, 2, 3, 60, 150]),
        kind=st.sampled_from(list(CurveKind)),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(k=5, classes=10, features=1, n=60, kind=CurveKind.POLYGONAL_CHAIN, seed=1)
    def test_property_close_to_parent_over_shapes(self, k, classes, features, n, kind, seed):
        """Within rtol 1e-12 plus atol 1e-15 of the parent at any shape.  At
        some shapes BLAS gives a product row's last bits by its position in the
        matrix, and at one row numpy sums a ``(k, classes, 1)`` block over the
        classes in another order than a ``(classes, k)`` one; the explicit
        example is such a shape, which differs in the last bits."""
        rng = np.random.default_rng(seed)
        model = LogisticRegressionModel(classes, features)
        shard = DatasetShard(rng.normal(size=(n, features)), rng.integers(0, classes, n))
        cfg = CurveTrainConfig(steps=10, learning_rate=0.5, model=model, shard=shard)
        w1, w2, theta = rng.normal(scale=2.0, size=(3, k, model.dim))
        spec = CurveSpec(kind, w1, w2, theta)
        got = mode_connectivity._train_bends(spec, cfg, pair_rngs(k, seed))
        np.testing.assert_allclose(got, train_bends_parent(spec, cfg, pair_rngs(k, seed)), rtol=1e-12, atol=1e-15)

    def test_bends_do_not_alias_the_level_workspace(self):
        spec, cfg = stacked_spec(CurveKind.POLYGONAL_CHAIN, 2, seed=5)
        buffers = []
        bind = cfg.model.stack_gradient

        class RecordingModel(LogisticRegressionModel):
            def stack_gradient(self, shard, k):
                grad = bind(shard, k)

                def recorded(w, out):
                    buffers.extend([w, out])
                    return grad(w, out)

                return recorded

        model = RecordingModel(cfg.model.classes, cfg.model.features)
        cfg = CurveTrainConfig(cfg.steps, cfg.learning_rate, model, cfg.shard)
        got = mode_connectivity._train_bends(spec, cfg, pair_rngs(2, 1))
        assert got.flags.owndata and got.shape == spec.bend_theta.shape
        assert buffers and not any(np.shares_memory(got, buf) for buf in buffers)
        for given_array in (spec.endpoint_w1, spec.endpoint_w2, spec.bend_theta):
            assert not np.shares_memory(got, given_array)


class TestThetaStar:
    def test_plug_in(self):
        out = theta_star(1.0, np.zeros(4), np.zeros(4))
        assert np.allclose(out, 1.2, rtol=1e-15)

    def test_residual_identity(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            L = rng.uniform(0.5, 10.0)
            w = rng.normal(size=6)
            v = rng.normal(size=6)
            ts = theta_star(L, w, v)
            residual = -1.0 / L + (5.0 / 6.0) * ts + v / 12.0 - (11.0 / 12.0) * w
            assert np.max(np.abs(residual)) < 1e-12

    def test_equal_inputs(self):
        w = np.array([0.5, -2.0])
        assert np.allclose(theta_star(2.0, w, w), 0.6 + w, rtol=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            theta_star(0.0, np.zeros(2), np.zeros(2))
        with pytest.raises(ValueError, match="^w_bar and v_bar must share one dimension$"):
            theta_star(1.0, np.zeros(2), np.zeros(3))


class TestBezierUpdate:
    def test_boundary_values(self):
        v, th, w = np.array([1.0, 2.0]), np.array([3.0, 4.0]), np.array([5.0, 6.0])
        assert np.array_equal(bezier_fedavg_update(v, th, w, 0.0), v)
        assert np.array_equal(bezier_fedavg_update(v, th, w, 1.0), w)
        assert np.allclose(bezier_fedavg_update(v, th, w, 0.5), 0.25 * v + 0.5 * th + 0.25 * w, rtol=1e-15)

    def test_coefficients_sum_to_one(self):
        ones = np.ones(3)
        rng = np.random.default_rng(2)
        for r in rng.random(50):
            assert np.allclose(bezier_fedavg_update(ones, ones, ones, float(r)), ones, rtol=1e-12)

    def test_domain(self):
        z = np.zeros(2)
        with pytest.raises(ValueError):
            bezier_fedavg_update(z, z, z, 1.5)


def midpoints():
    """A zero-step curve config: every bend stays at its pair's midpoint."""
    return CurveTrainConfig(steps=0, learning_rate=0.0, model=QuadraticBowl(np.zeros(1)))


MERGE_STREAM = NoiseStream(4, purpose="agg")


class TestModeConnectAggregate:
    def test_single_model(self):
        m = np.array([1.0, 2.0])
        assert np.array_equal(mode_connect_aggregate([m], midpoints(), MERGE_STREAM), m)

    def test_zero_steps_dyadic_midpoints(self):
        models = [np.array([float(i)]) for i in range(4)]
        out = mode_connect_aggregate(models, midpoints(), MERGE_STREAM)
        # ((0+1)/2 + (2+3)/2) / 2 = 1.5
        assert out[0] == 1.5

    def test_odd_leftover_carries(self):
        models = [np.array([0.0]), np.array([1.0]), np.array([4.0])]
        out = mode_connect_aggregate(models, midpoints(), MERGE_STREAM)
        # level 1: [0.5, 4.0]; level 2: 2.25
        assert out[0] == 2.25

    def test_zero_steps_are_the_pairwise_midpoints_bit_for_bit(self):
        rng = np.random.default_rng(12)
        models = rng.normal(size=(5, 3))
        pairs = 0.5 * (models[0:4:2] + models[1:4:2])
        want = 0.5 * (0.5 * (pairs[0] + pairs[1]) + models[4])
        assert np.array_equal(mode_connect_aggregate(models, midpoints(), MERGE_STREAM), want)

    def test_identical_models_fixed_point(self):
        w = np.array([0.7, -0.3])
        cfg = CurveTrainConfig(steps=40, learning_rate=0.1, model=QuadraticBowl(w))
        out = mode_connect_aggregate([w, w], cfg, NoiseStream(5, purpose="agg"))
        assert np.array_equal(out, w)

    def test_training_moves_toward_off_center_minimum(self):
        # midpoint merging alone cannot reach a minimum off the midpoint chain
        bowl = QuadraticBowl(np.array([0.0, 2.0]))
        models = [np.array([1.0, 0.0]), np.array([-1.0, 0.0]), np.array([0.0, 1.0]), np.array([0.0, -1.0])]
        cfg = CurveTrainConfig(steps=300, learning_rate=0.05, model=bowl)
        trained = mode_connect_aggregate(models, cfg, NoiseStream(6, purpose="agg"))
        plain = mode_connect_aggregate(models, midpoints(), MERGE_STREAM)
        assert bowl.loss(trained) < bowl.loss(plain)

    @pytest.mark.parametrize("n_models", [5, 7])
    def test_stacked_levels_match_pairwise_reference(self, n_models):
        cfg, models = logistic_setup(n_models, seed=n_models)
        stream = NoiseStream(8, 3, 0, "curve-train")
        got = mode_connect_aggregate(models, cfg, stream)
        want = mode_connect_reference(models, cfg, stream, CurveKind.POLYGONAL_CHAIN)
        assert not np.allclose(got, mode_connect_aggregate(models, midpoints(), stream))
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_pair_streams_never_collide(self, monkeypatch):
        # 1026 models make a first level large enough that a key of
        # level * 1024 + model index would repeat across levels.  Every
        # trained pair must own a distinct stream.
        keys = []

        class RecordingStream(NoiseStream):
            def __post_init__(self):
                super().__post_init__()
                keys.append((self.master_seed, self.round_index, self.client_index, self.purpose))

        monkeypatch.setattr(mode_connectivity, "NoiseStream", RecordingStream)
        models = [np.array([float(i), 0.0]) for i in range(1026)]
        cfg = CurveTrainConfig(steps=1, learning_rate=0.01, model=QuadraticBowl(np.zeros(2)))
        mode_connect_aggregate(models, cfg, NoiseStream(3, 1, 0, "curve-train"))
        assert len(keys) == len(models) - 1
        assert len(set(keys)) == len(keys)

    def test_empty_rejected(self):
        for empty in ([], np.zeros((0, 3))):
            with pytest.raises(ValueError, match="non-empty \\(k, d\\) stack"):
                mode_connect_aggregate(empty, midpoints(), MERGE_STREAM)

    def test_ragged_or_flat_rejected(self):
        with pytest.raises(ValueError):
            mode_connect_aggregate([np.zeros(2), np.zeros(3)], midpoints(), MERGE_STREAM)
        for flat_or_deep in (np.zeros(3), np.zeros((2, 2, 2))):
            with pytest.raises(ValueError, match="non-empty \\(k, d\\) stack"):
                mode_connect_aggregate(flat_or_deep, midpoints(), MERGE_STREAM)
