"""Curve parameterizations between model parameter pairs and curve training.

A curve ``phi_theta : [0, 1] -> R^d`` joins two parameter vectors w1, w2 with
a trainable bend theta:

* polygonal chain: ``2 (p theta + (0.5 - p) w1)`` for p <= 0.5 and
  ``2 ((p - 0.5) w2 + (1 - p) theta)`` for p > 0.5;
* quadratic Bezier: ``(1-p)^2 w1 + 2 p (1-p) theta + p^2 w2``.

Training minimizes the expected loss along the curve by stochastic descent on
theta (endpoints never move): sample p ~ U(0, 1), step along
``dphi/dtheta * grad_loss(phi(p))`` where the chain-rule factor is ``2p`` /
``2(1-p)`` for the polygonal chain and ``2p(1-p)`` for the Bezier curve.

Also provided: the closed-form optimal bend for L-smooth losses, the Bezier
form of the averaged model update, pairwise merging along polygonal chains,
and the worst-case extra-rounds diagnostic ``Delta^2 e^eps / (e^eps - 1)^2``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .mechanisms import NoiseStream


class CurveKind(enum.Enum):
    POLYGONAL_CHAIN = "polygonal"
    QUADRATIC_BEZIER = "bezier"


@dataclass
class CurveSpec:
    """Endpoints plus the bend; the bend defaults to the midpoint."""

    kind: CurveKind
    endpoint_w1: np.ndarray
    endpoint_w2: np.ndarray
    bend_theta: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.endpoint_w1 = np.asarray(self.endpoint_w1, dtype=float)
        self.endpoint_w2 = np.asarray(self.endpoint_w2, dtype=float)
        if self.endpoint_w1.shape != self.endpoint_w2.shape:
            raise ValueError("curve endpoints must share one dimension")
        if self.bend_theta is None:
            self.bend_theta = 0.5 * (self.endpoint_w1 + self.endpoint_w2)
        else:
            self.bend_theta = np.asarray(self.bend_theta, dtype=float)
            if self.bend_theta.shape != self.endpoint_w1.shape:
                raise ValueError("bend must share the endpoints' dimension")


@dataclass
class CurveTrainConfig:
    """Stochastic curve-training settings with a loss oracle.

    ``model`` needs ``stack_gradient(shard, k)``, ``to_layout(stack)`` and
    ``from_layout(layout)`` (and ``loss(w, shard)`` for evaluation);
    ``shard`` is passed through opaquely.  ``to_layout`` views a ``(k, d)``
    stack of parameter vectors in the ``(groups, k, m)`` layout, ``groups * m
    = d``, that the gradient reads, and ``from_layout`` returns a new
    ``(k, d)`` stack of such a layout.  ``stack_gradient`` is called once per
    merge level and returns ``grad(w, out)``, which writes the gradients of
    the k vectors of the C-contiguous layout ``w`` into ``out`` in the same
    layout and returns it: every curve of a level trains in one call per
    step, and each step writes into buffers that the level allocates once.
    A model without a layout of its own takes ``stack[None]``, one group.

    For :class:`dpfed.fl_core.LogisticRegressionModel` a vector holds one
    ``(w_c, b_c)`` row per class, and the layout is class-major,
    ``(classes, k, features + 1)``; the shard (a
    :class:`dpfed.fl_core.DatasetShard`) keeps its rows with a trailing ones
    column.  A step's logits for all k curve points are one matrix product,
    a ``(classes, k * n)`` softmax, and one more product gives their
    gradients.
    """

    steps: int
    learning_rate: float
    model: object
    shard: object = None

    def __post_init__(self) -> None:
        if self.steps < 0:
            raise ValueError(f"steps must be non-negative, got {self.steps}")
        if not self.learning_rate >= 0:
            raise ValueError(f"learning_rate must be non-negative, got {self.learning_rate}")


def curve_point(spec: CurveSpec, p: float) -> np.ndarray:
    """Evaluate the curve at parameter ``p`` in [0, 1]."""
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"curve parameter must lie in [0, 1], got {p}")
    a, b, c = _coefficients(spec.kind, p)
    return a * spec.endpoint_w1 + b * spec.bend_theta + c * spec.endpoint_w2


def _coefficients(kind: CurveKind, p):
    """Weights of (w1, theta, w2) in the curve point at ``p`` (a scalar or an
    array).  The curve is linear in theta, so the theta weight is also the
    chain-rule factor ``dphi/dtheta`` of bend training."""
    if kind is CurveKind.QUADRATIC_BEZIER:
        return (1.0 - p) ** 2, 2.0 * p * (1.0 - p), p**2
    left = p <= 0.5
    return (
        np.where(left, 2.0 * (0.5 - p), 0.0),
        np.where(left, 2.0 * p, 2.0 * (1.0 - p)),
        np.where(left, 0.0, 2.0 * (p - 0.5)),
    )


def train_curve(spec: CurveSpec, cfg: CurveTrainConfig, stream: NoiseStream) -> np.ndarray:
    """Stochastically train the bend; returns the trained theta.

    The input spec is not mutated and the endpoints never move.
    """
    one = CurveSpec(spec.kind, spec.endpoint_w1[None], spec.endpoint_w2[None], spec.bend_theta[None])
    return _train_bends(one, cfg, [stream.rng])[0]


def _train_bends(spec: CurveSpec, cfg: CurveTrainConfig, rngs) -> np.ndarray:
    """Train the k bends of a stacked ``(k, d)`` spec together; curve j draws
    its ``cfg.steps`` curve parameters from ``rngs[j]``.  Returns a new
    ``(k, d)`` array.

    The level allocates its buffers once.  ``(w1, theta, w2)`` move once into
    the model's layout (``cfg.model.to_layout``), as one ``(3, groups, k, m)``
    array whose row 1, theta, moves in place; each step's curve points are one
    multiply by the step's ``(3, 1, k, 1)`` coefficients and one reduce over
    the three rows, ``(a w1 + b theta) + c w2``, and one call of the gradient
    ``cfg.model.stack_gradient`` bound to the level's shard and k.  The
    trained bends move back once (``cfg.model.from_layout``).
    """
    model = cfg.model
    ends = np.array([model.to_layout(w) for w in (spec.endpoint_w1, spec.bend_theta, spec.endpoint_w2)])
    theta = ends[1]
    p_hat = np.stack([rng.random(cfg.steps) for rng in rngs], axis=1)[:, :, None]
    coef = np.stack(_coefficients(spec.kind, p_hat), axis=1)[:, :, None]
    rate = cfg.learning_rate * coef[:, 1]
    terms, point, grad = np.empty_like(ends), np.empty_like(theta), np.empty_like(theta)
    gradient = model.stack_gradient(cfg.shard, len(rngs))
    for step in range(cfg.steps):
        np.add.reduce(np.multiply(coef[step], ends, out=terms), axis=0, out=point)
        theta -= np.multiply(rate[step], gradient(point, grad), out=grad)
    return model.from_layout(theta)


def theta_star(smoothness_L: float, w_bar: np.ndarray, v_bar: np.ndarray) -> np.ndarray:
    """Closed-form optimal bend ``1.2/L + 1.1 w_bar - 0.1 v_bar``.

    The scalar 1.2/L broadcasts to every coordinate.
    """
    if not smoothness_L > 0:
        raise ValueError(f"smoothness constant must be positive, got {smoothness_L}")
    w_bar = np.asarray(w_bar, dtype=float)
    v_bar = np.asarray(v_bar, dtype=float)
    if w_bar.shape != v_bar.shape:
        raise ValueError("w_bar and v_bar must share one dimension")
    return 1.2 / smoothness_L + 1.1 * w_bar - 0.1 * v_bar


def bezier_fedavg_update(v: np.ndarray, theta: np.ndarray, w: np.ndarray, r: float) -> np.ndarray:
    """Bezier-form model update ``(1-r)^2 v + 2(r - r^2) theta + r^2 w``: the
    quadratic Bezier curve from v to w with bend theta, at ``r``."""
    return curve_point(CurveSpec(CurveKind.QUADRATIC_BEZIER, v, w, theta), r)


def mode_connect_aggregate(models, cfg: CurveTrainConfig, stream: NoiseStream) -> np.ndarray:
    """Merge the rows of a ``(k, d)`` model stack (or k equal-length
    vectors) pairwise along trained polygonal chains until one survives.

    Callers supply models ordered as they should be paired (ascending client
    id unless an upstream shuffle reordered them); adjacent models pair up and
    an odd leftover carries to the next level.  All curves of one level train
    together as one ``(pairs, d)`` stack, each pair on its own stream derived
    from ``stream``.  A zero-step ``cfg`` leaves every bend at its pair's
    midpoint, so the merge reduces to iterated pairwise midpoints.
    """
    level = np.asarray(models, dtype=float)
    if level.ndim != 2 or len(level) == 0:
        raise ValueError(f"models must be a non-empty (k, d) stack, got shape {level.shape}")
    merge_round = 0
    while len(level) > 1:
        paired = len(level) - len(level) % 2
        spec = CurveSpec(CurveKind.POLYGONAL_CHAIN, level[0:paired:2], level[1:paired:2])
        # Keyed by (level, pair): a stream per pair whatever the level's size.
        rngs = [
            NoiseStream(stream.master_seed, stream.round_index, pair, f"{stream.purpose}:level{merge_round}").rng
            for pair in range(paired // 2)
        ]
        level = np.concatenate([_train_bends(spec, cfg, rngs), level[paired:]])
        merge_round += 1
    return level[0]


def extra_rounds_bound(sensitivity: float, epsilon: float) -> float:
    """Worst-case extra training rounds ``Delta^2 e^eps / (e^eps - 1)^2``."""
    if not sensitivity > 0:
        raise ValueError(f"sensitivity must be positive, got {sensitivity}")
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    # e^eps / (e^eps - 1)^2 == 1 / (4 sinh(eps/2)^2), stable for large eps
    return sensitivity**2 / (4.0 * math.sinh(epsilon / 2.0) ** 2)
