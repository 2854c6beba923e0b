"""Deterministic federated-learning simulator.

One training round: the server selects a client subset, broadcasts the global
model, each selected client runs privatized local epochs (the per-example
gradients are clipped to l2 norm c and summed, one noise draw is added per
coordinate per epoch at sensitivity c, the sum is averaged and an SGD step
taken), the ledger charges one Renyi curve per noise application, and the
server aggregates by FedAvg or pairwise mode-connectivity merging.

A client is its position j in the run's client list: ``clients[j]`` holds
its budget and mechanism, ``fed.bounds[j]`` and ``fed.weights[j]`` its rows
and FedAvg weight, and ``server.client_models[j]`` its last trained model.
A run keeps one :class:`RdpLedger` with a row per client, row j for client j
(:func:`client_ledger`): its per-application curves are computed at set-up,
once per distinct mechanism, and a round charges every selected client's
draws in one all-or-nothing ``spend``, so a halt leaves every row as it was.
FedAvg is one reduce over the weighted ``(k, dim)`` client stack.

The model's parameters are laid out one row per class, ``(w_c, b_c)``: a
vector is a ``(classes, features + 1)`` matrix and a stack of k vectors a
``(k * classes, features + 1)`` one.  Each shard keeps its rows with a
trailing ones column, ``(x_i, 1)``, so the logits of one model or of a whole
stack are one matmul, bias included, and so is each gradient.  Noise is drawn
in the published ``[W | b]`` coordinate order and gathered into the row
layout through the model's ``from_published`` index map.

Clipping uses ghost norms: for logistic regression the per-example gradient
is the outer product of the softmax residual ``p_i`` with ``(x_i, 1)``, so
``||g_i||^2 = ||p_i||^2 (||x_i||^2 + 1)``.  The clipped sum then takes two
matmuls over the batch, and the ``(n, dim)`` per-example matrix is never
built (Goodfellow, arXiv:1510.01799; Li et al., arXiv:2110.05679).  Each
shard computes its data term ``||x_i||^2 + 1`` once, when it is built.  The
softmax is laid out class-major, ``(classes, columns)`` with a column per
example (per model and example in a stack), so its reductions run over whole
rows; one in-place softmax helper serves the clipped sum, the stacked mean
gradient and the per-example reference.  The residuals subtract 1 at each
label entry, or, in the stacked mean gradient, the dense one-hot labels it
builds once.  The stacked mean gradient is bound once to a shard and a stack
size (:meth:`LogisticRegressionModel.stack_gradient`), owns its buffers and
reads and writes a class-major ``(classes, k, features + 1)`` layout of the
k models (:meth:`LogisticRegressionModel.to_layout`), so each step of
mode-connect curve training is one ``(classes, k * n)`` softmax between two
matrix products and allocates nothing; a merge level moves its curves into
that layout once and out once.

A run has one plan, kept on the frozen :class:`ServerState`: selection,
the local-training plan every client shares (clip bound, sampling rate,
epochs, step), shuffling and the aggregator; only budgets and mechanisms
differ per client.
A round's client epochs run as one segmented batch (:func:`local_updates`):
each epoch every selected client samples its own row range of the pool, and
the sampled pool rows are one ``take``, one segment per client.  The logits
and clipped-sum matmuls stay per client, so each client's update keeps its
bits; the softmax, ghost norms, clip factors, averaging and the
heterogeneous step run once over the batch and the ``(k, dim)`` stack of
client models, which then goes as it is, with the ``(k,)`` noise-draw
counts, to the ledger, the shuffle, the aggregators and the remembered models.
The round's randomness is drawn before training by :func:`round_draws`, in
one call per stream: the subsample uniforms of every selected row for every
epoch, and the noised clients' ``(epochs, k_noised, dim)`` noise block,
gathered once into the row layout.

A run's rows are built once, as one shard whose row ranges are its data roles
(:class:`Federation`): the client pool, which gives the CSV ``train_loss``
and whose ``bounds`` split it by client, the server's validation rows that
curves train on, and the eval rows.

Every random decision flows through a :class:`NoiseStream` keyed by (master
seed, round, client, purpose), so a configuration plus master seed fully
determines the run.  :func:`run_round` builds a fixed set of streams,
whatever the number of clients, each keyed by client 0:
``"client-selection"`` (only when fewer than all clients are selected; with
all of them the round takes every client in order, which is what the sorted
permutation would give), ``"subsample"`` for the masks, ``"local-noise"`` for
the noise (only when a selected client is noised), ``"shuffle"`` with
shuffling and ``"curve-train"`` under mode-connect merging, which derives one
stream per merged pair from it.  Only the local-noise stream depends on the
mechanism, its scale or noise being on: data, selection, masks, shuffle and
curve training do not, so runs that differ only there train on the same
batches and are paired.

A run's per-client facts are built once, at set-up, into its
:class:`ClientTable`: the budget epsilons, which clients are noised and the
noised clients' sampler constants (:class:`NoiseTable`), with each
mechanism's sensitivity checked against the clip bound there.  A round only
indexes the table: the anchor and the heterogeneity penalties are one
vector expression over the epsilons, the noise block is drawn from the
table's columns, and the next :class:`ServerState` shares every remembered
model the round left alone.

Clients with heterogeneous privacy budgets are pulled toward the model of the
weakest-budget client: the local step becomes
``w - eta * (g + lam_k (w - w_max))`` with ``lam_k = (eps_max - eps_k) /
eps_max``.
"""

from __future__ import annotations

import copy
import csv
import enum
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .accountant import PrivacyBudget, RdpLedger, cached_rdp_curve, default_alpha_grid
from .mechanisms import MechanismParams, NoiseStream, NoiseTable
from .mode_connectivity import CurveTrainConfig, mode_connect_aggregate

CURVE_TRAIN_STEPS = 100
CURVE_TRAIN_LR = 0.01


class BudgetExhaustedError(RuntimeError):
    """Documented halt signal: a client's privacy budget cannot cover the round."""


@dataclass(eq=False)
class DatasetShard:
    """Feature matrix plus integer labels.

    Two per-row terms are built once, with the shard, and shared by its
    row-range views:

    * ``augmented``: the rows with a trailing ones column, ``(x_i, 1)``, which
      one matmul with the model's per-class ``(w_c, b_c)`` rows turns into
      logits; ``features`` is a view of its leading columns;
    * ``ghost_term``: each row's ghost-norm data term ``||x_i||^2 + 1``.
    """

    features: np.ndarray
    labels: np.ndarray
    augmented: np.ndarray = field(init=False, repr=False)
    ghost_term: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=float)
        self.labels = np.asarray(self.labels)
        if self.features.ndim != 2 or self.features.shape[0] < 1:
            raise ValueError("features must be a non-empty (n, f) matrix")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("features must be finite")
        if self.labels.shape != (self.features.shape[0],):
            raise ValueError("labels must be a vector matching the feature rows")
        if not np.issubdtype(self.labels.dtype, np.integer):
            raise ValueError("labels must be integers")
        if np.any(self.labels < 0):
            raise ValueError("labels must be non-negative")
        # The ghost term's temporary is freed before ``augmented`` is made.
        self.ghost_term = (self.features * self.features).sum(axis=1) + 1.0
        self.augmented = np.ones((self.n, self.features.shape[1] + 1))
        self.augmented[:, :-1] = self.features
        self.features = self.augmented[:, :-1]

    @property
    def n(self) -> int:
        return self.features.shape[0]

    def row_range(self, start: int, stop: int) -> "DatasetShard":
        """Rows ``start:stop`` as a view that builds nothing anew."""
        if not 0 <= start < stop <= self.n:
            raise ValueError(f"row range {start}:{stop} is empty or outside the shard's {self.n} rows")
        view = object.__new__(DatasetShard)
        view.augmented = self.augmented[start:stop]
        view.features = view.augmented[:, :-1]
        view.labels = self.labels[start:stop]
        view.ghost_term = self.ghost_term[start:stop]
        return view


def load_csv_shard(path) -> DatasetShard:
    """Read a shard from CSV: header row, feature columns, then a ``label``
    column of integers; comma-separated UTF-8."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[-1].strip() != "label":
            raise ValueError("shard CSV needs a header whose last column is 'label'")
        feats, labels = [], []
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(
                    f"shard CSV line {reader.line_num} has {len(row)} cells, but the header has {len(header)}"
                )
            cells = []
            for col, (name, cell) in enumerate(zip(header, row), start=1):
                parse, kind = (int, "an integer") if col == len(header) else (float, "a number")
                try:
                    cells.append(parse(cell))
                except ValueError:
                    raise ValueError(
                        f"shard CSV line {reader.line_num}, column {col} ({name.strip()!r}): {cell!r} is not {kind}"
                    ) from None
            feats.append(cells[:-1])
            labels.append(cells[-1])
    return DatasetShard(np.array(feats), np.array(labels, dtype=np.int64))


class LogisticRegressionModel:
    """Multinomial logistic regression with cross-entropy loss.

    The flat parameter vector holds one row per class, ``(w_c, b_c)``: the
    class's feature weights followed by its bias.  A vector is thus a
    ``(classes, features + 1)`` matrix and a ``(k, dim)`` stack a
    ``(k * classes, features + 1)`` one, and a single matmul with a shard's
    :attr:`DatasetShard.augmented` rows ``(x_i, 1)`` gives every logit, bias
    included.  ``from_published`` gathers a vector in the published
    ``[W | b]`` packing (the ``(classes, features)`` weight matrix, then the
    ``(classes,)`` bias) into this layout: ``rows = published[from_published]``.
    """

    def __init__(self, classes: int, features: int):
        if classes < 2 or features < 1:
            raise ValueError("need at least 2 classes and 1 feature")
        self.classes = classes
        self.features = features
        self.dim = classes * (features + 1)
        weights = np.arange(classes * features).reshape(classes, features)
        bias = np.arange(classes * features, self.dim)[:, None]
        self.from_published = np.hstack([weights, bias]).ravel()

    def init_params(self) -> np.ndarray:
        return np.zeros(self.dim)

    def _logits(self, w: np.ndarray, rows: np.ndarray, bounds=None) -> np.ndarray:
        """``(classes, n)`` logits on the augmented ``rows`` of the
        ``(k, dim)`` stack ``w``, model j on rows ``bounds[j]:bounds[j + 1]``
        only; one ``(dim,)`` vector is the one-segment case ``(w[None], (0, n))``.
        Each segment keeps its own matmul: one over the whole batch differs in
        the last bits from the per-segment ones."""
        w = np.asarray(w, dtype=float)
        if bounds is None:
            w, bounds = w[None], (0, rows.shape[0])
        if w.shape[-1:] != (self.dim,) or w.ndim != 2:
            raise ValueError(f"expected a parameter vector of length {self.dim} or a stack of them, got {w.shape}")
        logits = np.empty((self.classes, rows.shape[0]))
        for w_j, a, b in zip(w.reshape(-1, self.classes, self.features + 1), bounds[:-1], bounds[1:]):
            np.matmul(w_j, rows[a:b].T, out=logits[:, a:b])
        return logits

    def _residuals(self, w: np.ndarray, rows: np.ndarray, labels: np.ndarray, bounds=None) -> np.ndarray:
        """``(classes, n)`` softmax residuals, probabilities minus the
        one-hot ``labels``, of one model on the augmented ``rows``.  With
        segment ``bounds`` (see :meth:`_logits`), column i is the residual of
        row i under its own segment's model.  Only the label entries take
        the subtraction, as a one-hot matrix's zeros change nothing.
        """
        resid = _softmax(self._logits(w, rows, bounds))
        resid[labels, np.arange(len(labels))] -= 1.0
        return resid

    def loss(self, w: np.ndarray, shard: DatasetShard) -> float:
        # Exponentiates in place: the pooled train loss then holds one
        # (classes, n) array at a time.
        logits = _max_shift(self._logits(w, shard.augmented))
        picked = logits[shard.labels, np.arange(shard.n)]
        log_norm = np.log(np.exp(logits, out=logits).sum(axis=0))
        return float((log_norm - picked).mean())

    def per_example_gradients(self, w: np.ndarray, shard: DatasetShard) -> np.ndarray:
        """(n, dim) matrix of per-example cross-entropy gradients (the
        reference the ghost-norm kernel is tested against)."""
        resid = self._residuals(w, shard.augmented, shard.labels)
        return np.einsum("cn,nf->ncf", resid, shard.augmented).reshape(shard.n, self.dim)

    def clipped_gradient_sum(
        self, w: np.ndarray, rows: np.ndarray, labels: np.ndarray, ghost_term: np.ndarray, c: float, bounds
    ) -> np.ndarray:
        """Per segment, the sum over its augmented ``rows`` of each
        per-example gradient clipped to l2 norm ``c``.

        The batch is split into segments ``bounds[j]:bounds[j + 1]``, each
        with its own model, row j of the ``(k, dim)`` stack ``w``; the result
        is the ``(k, dim)`` stack of the segments' clipped sums.  One batch
        alone is the one-segment case: ``w[None]`` and bounds ``(0, n)``.

        Row i's gradient is the outer product of its residual ``p_i`` with
        ``(x_i, 1)``, so its norm is ``||p_i|| sqrt(ghost_term[i])`` with
        ``ghost_term`` the rows' ``||x_i||^2 + 1``
        (:attr:`DatasetShard.ghost_term`); scaling the residual columns by
        their clip factors gives each segment's clipped sum as one matmul
        ``P[:, a:b] @ rows[a:b]``, without the ``(n, dim)`` per-example
        matrix.  Everything but the two matmuls per segment runs once over
        the whole batch.  A one-row segment inside a wider batch may differ
        in the last bits from the same row alone, whose class sums numpy
        takes pairwise rather than in sequence.
        """
        if len(bounds) != len(w) + 1 or bounds[0] != 0 or bounds[-1] != rows.shape[0]:
            raise ValueError(f"{len(w)} models need {len(w) + 1} segment bounds from 0 to {rows.shape[0]}")
        resid = self._residuals(w, rows, labels, bounds)
        norms = np.sqrt((resid * resid).sum(axis=0) * ghost_term)
        resid *= np.minimum(1.0, c / np.maximum(norms, 1e-300))
        sums = np.empty((len(w), self.classes, self.features + 1))
        for out, a, b in zip(sums, bounds[:-1], bounds[1:]):
            np.matmul(resid[:, a:b], rows[a:b], out=out)
        return sums.reshape(len(w), self.dim)

    def to_layout(self, stack: np.ndarray) -> np.ndarray:
        """The class-major layout of a ``(k, dim)`` stack that
        :meth:`stack_gradient` reads and writes: a ``(classes, k, features +
        1)`` view whose row ``(c, j)`` is model j's class-c row ``(w_c, b_c)``.
        Its C-contiguous copy is one ``(classes * k, features + 1)`` matrix."""
        return stack.reshape(len(stack), self.classes, self.features + 1).swapaxes(0, 1)

    def from_layout(self, layout: np.ndarray) -> np.ndarray:
        """The new ``(k, dim)`` stack of a class-major ``layout`` (see
        :meth:`to_layout`): the class blocks side by side."""
        return np.concatenate(layout, axis=1)

    def stack_gradient(self, shard: DatasetShard, k: int):
        """Bind the mean cross-entropy gradient of k models on ``shard``:
        returns ``grad(w, out)``, which reads the k models from the
        C-contiguous class-major ``w`` (:meth:`to_layout`), writes their
        gradients into ``out`` in the same layout and returns it.

        The bound function owns its buffers, the ``(classes * k, n)`` logits
        (a ``(classes, k * n)`` softmax with a column per model and example)
        and the column max and sum, and the k models' one-hot labels are
        built once, so a loop of calls allocates nothing.  All k models share
        two products with the shard's augmented rows; the ``(n, dim)``
        per-example matrix is never built.  ``w`` is not checked
        (:meth:`gradient` checks it).
        """
        rows, n, width = shard.augmented, shard.n, self.features + 1
        rows_t = rows.T
        logits = np.empty((self.classes * k, n))
        probs = logits.reshape(self.classes, k * n)
        col = np.empty((1, k * n))
        hot = np.tile(_one_hot(shard.labels, self.classes), k)

        def grad(w: np.ndarray, out: np.ndarray) -> np.ndarray:
            np.dot(w.reshape(-1, width), rows_t, out=logits)
            np.subtract(_softmax(probs, col), hot, out=probs)
            np.dot(logits, rows, out=out.reshape(-1, width))
            out /= n
            return out

        return grad

    def gradient(self, w: np.ndarray, shard: DatasetShard) -> np.ndarray:
        """Mean cross-entropy gradient of one ``(dim,)`` vector, or of each row
        of a ``(k, dim)`` stack (one row of the result per model): one call of
        the gradient that :meth:`stack_gradient` binds, on the stack moved to
        the class-major layout and back."""
        w = np.asarray(w, dtype=float)
        if w.shape[-1:] != (self.dim,) or w.ndim not in (1, 2):
            raise ValueError(f"expected a parameter vector of length {self.dim} or a stack of them, got {w.shape}")
        stack = w.reshape(-1, self.dim)
        level = np.ascontiguousarray(self.to_layout(stack))
        return self.from_layout(self.stack_gradient(shard, len(stack))(level, np.empty_like(level))).reshape(w.shape)

    def accuracy(self, w: np.ndarray, shard: DatasetShard) -> float:
        pred = self._logits(w, shard.augmented).argmax(axis=0)
        return float((pred == shard.labels).mean())


def _one_hot(labels: np.ndarray, classes: int) -> np.ndarray:
    """The ``(classes, n)`` one-hot matrix of ``labels``: 1.0 at
    ``(labels[i], i)``, 0.0 elsewhere."""
    hot = np.zeros((classes, len(labels)))
    hot[labels, np.arange(len(labels))] = 1.0
    return hot


def _max_shift(logits: np.ndarray, col: np.ndarray | None = None) -> np.ndarray:
    """Subtract from each column of ``(classes, columns)`` logits its max
    over the classes, in place; ``col`` is an optional ``(1, columns)``
    buffer for the maxima."""
    logits -= np.maximum.reduce(logits, axis=0, keepdims=True, out=col)
    return logits


def _softmax(logits: np.ndarray, col: np.ndarray | None = None) -> np.ndarray:
    """Turn ``(classes, columns)`` logits into softmax probabilities in
    place: max-shift each column, exponentiate and normalise.  A column is
    one example under one model.  ``col`` is an optional ``(1, columns)``
    buffer for the column max and sum."""
    np.exp(_max_shift(logits, col), out=logits)
    logits /= np.add.reduce(logits, axis=0, keepdims=True, out=col)
    return logits


@dataclass
class ClientConfig:
    """One client, known only by its position in the run's client list: what
    differs per client.  Its mechanism is calibrated against ``budget`` and its
    ledger charged against it; a noise-disabled client has no mechanism and a
    budget of epsilon = inf."""

    budget: PrivacyBudget
    mechanism: MechanismParams | None


@dataclass(frozen=True, eq=False)
class ClientTable:
    """A run's clients as arrays, row j for client j, built once at set-up
    (:meth:`build`) so that a round only indexes them: each budget's
    ``epsilon``, which clients are ``noised``, and the noised clients'
    mechanisms as sampler constants, ``noise``, in client order.  Every
    noised client's sensitivity was checked, as the table was built, to
    equal the clip bound ``clip_c``.
    A round's selected clients are :meth:`take` of the run's table, or the
    table itself when every client is selected."""

    clip_c: float
    epsilon: np.ndarray
    noised: np.ndarray
    noise: NoiseTable

    @classmethod
    def build(cls, clients, clip_c: float) -> "ClientTable":
        """The table of a list of :class:`ClientConfig` under clip bound ``clip_c``."""
        mechs = [cfg.mechanism for cfg in clients if cfg.mechanism is not None]
        for mech in mechs:
            if not math.isclose(mech.sensitivity, clip_c):
                raise ValueError(f"mechanism sensitivity {mech.sensitivity} must equal the clip bound {clip_c}")
        return cls(
            clip_c,
            np.array([cfg.budget.epsilon for cfg in clients], dtype=float),
            np.array([cfg.mechanism is not None for cfg in clients], dtype=bool),
            NoiseTable.of(mechs),
        )

    def __len__(self) -> int:
        return len(self.epsilon)

    def take(self, rows) -> "ClientTable":
        """The table of the clients ``rows``, in that order."""
        noised = self.noised[rows]
        slot = np.cumsum(self.noised) - 1  # each noised client's row of ``noise``
        return ClientTable(self.clip_c, self.epsilon[rows], noised, self.noise.take(slot[rows][noised]))


class Aggregator(enum.Enum):
    FEDAVG = "fedavg"
    MODE_CONNECT = "modeconnect"


@dataclass(frozen=True, eq=False)
class ServerState:
    """The global model and round, each client's last trained model keyed by
    its position, and the run's whole plan: selection, the one local-training
    plan of every client (clip bound, sampling rate, epochs and step),
    shuffling and aggregation.  Frozen, so the checks below hold for every
    value a round reads.  Every model is read-only and the client models a
    read-only mapping, so neither the caller's arrays nor a write through
    the state can change them: a state built directly holds rows of one
    copy of the models it is given.  A round returns the next state by
    :meth:`successor`, which keeps the checked plan, holds the round's
    models uncopied, as rows of its ``(k, dim)`` stack, and shares each
    remembered model the round left alone.  A remembered row keeps its whole
    stack alive, so under partial selection up to one stack per client may
    be held.  The run's per-client facts are not part of the state: they
    live in its :class:`ClientTable`, which every round is handed."""

    global_model: np.ndarray
    round_t: int
    aggregator: Aggregator
    selection_fraction: float
    clip_c: float
    sample_rate_q: float
    local_epochs_I: int
    learning_rate: float
    shuffle: bool = False
    client_models: Mapping[int, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        models = np.array([self.global_model, *self.client_models.values()], dtype=float)
        models.flags.writeable = False
        object.__setattr__(self, "global_model", models[0])
        object.__setattr__(self, "client_models", MappingProxyType(dict(zip(self.client_models, models[1:]))))
        if not (0.0 < self.selection_fraction <= 1.0):
            raise ValueError(f"selection fraction must lie in (0, 1], got {self.selection_fraction}")
        if not (math.isfinite(self.clip_c) and self.clip_c > 0):
            raise ValueError(f"clip bound must be positive, got {self.clip_c}")
        if not (0.0 < self.sample_rate_q <= 1.0):
            raise ValueError(f"sample rate must lie in (0, 1], got {self.sample_rate_q}")
        if self.local_epochs_I < 1:
            raise ValueError(f"local epochs must be >= 1, got {self.local_epochs_I}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning rate must be positive, got {self.learning_rate}")

    def successor(self, global_model: np.ndarray, chosen, stack: np.ndarray) -> "ServerState":
        """The next round's state under this plan: ``global_model``, and row
        i of the ``(k, dim)`` ``stack`` remembered as client ``chosen[i]``'s
        model.  Both arrays are made read-only, not copied; the other
        remembered models are shared, and the plan is not checked again."""
        global_model.flags.writeable = False
        stack.flags.writeable = False
        # A copy of this state, which skips __post_init__: it would copy
        # every model again and re-check a plan that is unchanged.
        state = copy.copy(self)
        object.__setattr__(state, "global_model", global_model)
        object.__setattr__(state, "round_t", self.round_t + 1)
        models = self.client_models | dict(zip(chosen.tolist(), stack))
        object.__setattr__(state, "client_models", MappingProxyType(models))
        return state


@dataclass(frozen=True)
class RoundMetrics:
    """One CSV row's values: the round, the largest client epsilon so far
    (inf if a client is not noised), and the new global model's pool loss
    and eval accuracy."""

    round_index: int
    cumulative_epsilon: float
    train_loss: float
    eval_accuracy: float


@dataclass(eq=False)
class ClientUpdate:
    """One client's trained model and the noise draws it took."""

    params: np.ndarray
    noise_draws: int


@dataclass
class RoundResult:
    """The state after a round and the round's metrics."""

    server: ServerState
    metrics: RoundMetrics


def round_draws(
    master_seed: int, server: ServerState, selected: ClientTable, rows_n: int, dim: int
) -> tuple[np.ndarray, np.ndarray]:
    """The randomness of a round's local training, each round-wide stream
    drawn once: the ``"subsample"`` stream's ``(epochs, rows_n)`` uniforms,
    the masks of the ``selected`` clients' ``rows_n`` rows, and the
    ``"local-noise"`` stream's ``(epochs, k_noised, dim)`` block of the noised
    clients' draws (:meth:`NoiseTable.sample`), in ``selected`` order.  With
    no noised client the block is empty and no noise stream is built."""
    epochs, round_t = server.local_epochs_I, server.round_t
    noise = selected.noise
    uniforms = NoiseStream(master_seed, round_t, 0, "subsample").rng.random((epochs, rows_n))
    if not len(noise):
        return uniforms, np.empty((epochs, 0, dim))
    stream = NoiseStream(master_seed, round_t, 0, "local-noise")
    return uniforms, noise.sample(stream.rng, (epochs, len(noise), dim))


def local_update(
    server: ServerState,
    cfg: ClientConfig,
    shard: DatasetShard,
    model,
    uniforms: np.ndarray,
    noise: np.ndarray,
    w_max: np.ndarray | None = None,
    eps_max: float = math.inf,
) -> ClientUpdate:
    """Run one client's privatized local epochs on its rows ``shard``: the one-client case
    of :func:`local_updates`.  ``uniforms`` is its ``(epochs, shard.n)`` slice of the round's
    masks and ``noise`` its ``(epochs, 1, dim)`` slice of the noise block, ``(epochs, 0, dim)``
    for a noise-disabled client, as :func:`round_draws` draws them for a round of this client
    alone, from its one-row :class:`ClientTable`; ``w_max`` is the broadcast model and
    ``eps_max`` inf unless given."""
    w_max = server.global_model if w_max is None else w_max
    table = ClientTable.build([cfg], server.clip_c)
    stack, draws = local_updates(server, table, shard, [(0, shard.n)], model, uniforms, noise, w_max, eps_max)
    return ClientUpdate(params=stack[0], noise_draws=int(draws[0]))


def local_updates(
    server: ServerState,
    clients: ClientTable,
    rows: DatasetShard,
    spans,
    model,
    uniforms: np.ndarray,
    noise: np.ndarray,
    w_max: np.ndarray,
    eps_max: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Run each client's privatized local epochs from the broadcast
    ``server.global_model`` under the server's plan, every epoch of all
    clients as one segmented batch.  Returns the ``(k, dim)`` stack of client
    models and the ``(k,)`` counts of their noise draws, in ``clients`` order.

    Client j of the :class:`ClientTable` ``clients``, which must have been
    built for the server's clip bound, owns rows ``spans[j][0]:spans[j][1]``
    of ``rows`` (ascending, disjoint).  The round's randomness comes drawn:
    ``uniforms`` is the ``(epochs, m)`` array of masks, one column per span
    row in span order, and ``noise`` the ``(epochs, k_noised, dim)`` block of
    the noised clients' draws, in ``clients`` order and the published
    ``[W | b]`` packing, gathered here once into the row layout.  In each
    epoch a client's subsample is its rows whose uniform lies below the rate
    q; the sampled rows form one batch, one segment per client.  The
    ghost-norm kernel ``model.clipped_gradient_sum`` sums each segment's
    per-example gradients clipped at c.  Each noised client then adds its
    epoch's noise row (sensitivity c), the sums are divided by the batch
    sizes and one :func:`heterogeneous_update` step moves the stack, pulling
    toward ``w_max`` each client whose budget is below ``eps_max``.  A
    client whose subsample is empty skips the epoch: its noise row is
    discarded and not counted.

    Client j's update depends only on its own slices of the two arrays, so
    it is the one :func:`local_update` makes from them alone, to the bit
    except after a one-row subsample (see ``clipped_gradient_sum``).
    """
    if len(clients.noise) and clients.clip_c != server.clip_c:
        # The table checked each sensitivity against its own clip bound.
        raise ValueError(f"mechanism sensitivity {clients.noise.delta[0, 0]} must equal the clip bound {server.clip_c}")
    epochs, k = server.local_epochs_I, len(clients)
    starts, stops = np.asarray(spans).T
    offsets = np.concatenate([[0], np.cumsum(stops - starts)])
    want = (epochs, int(offsets[-1])), (epochs, len(clients.noise), model.dim)
    if (uniforms.shape, noise.shape) != want:
        shapes = (*want, uniforms.shape, noise.shape)
        raise ValueError("masks and noise must have shapes {} and {}, got {} and {}".format(*shapes))
    # Mask column i of client j's span is pool row i + shift[j].
    shift = starts - offsets[:-1]
    # The noised clients' rows of the stack: a slice when that is all of them.
    noisy = slice(None) if len(clients.noise) == k else clients.noised
    noise = noise.take(model.from_published, axis=-1)
    lam = heterogeneity_penalty(clients.epsilon, eps_max)[:, None]
    stack = np.repeat(server.global_model[None], k, axis=0)
    draws = np.zeros(k, dtype=int)
    for epoch, hit in enumerate(uniforms < server.sample_rate_q):
        picked = hit.nonzero()[0]
        bounds = picked.searchsorted(offsets)
        sizes = bounds[1:] - bounds[:-1]
        stepped = sizes > 0
        if not stepped.any():
            continue
        idx = picked + np.repeat(shift, sizes)
        summed = model.clipped_gradient_sum(
            stack, rows.augmented.take(idx, axis=0), rows.labels[idx], rows.ghost_term[idx], server.clip_c, bounds
        )
        # Every noised client's sum takes its noise row, but only a client
        # that steps uses its sum, so only its draw counts.
        summed[noisy] += noise[epoch]
        draws[noisy] += stepped[noisy]
        # An empty segment's sum is zero, and its client does not step.
        summed /= np.maximum(sizes, 1)[:, None]
        moved = heterogeneous_update(stack, summed, w_max, lam, server.learning_rate)
        stack = moved if stepped.all() else np.where(stepped[:, None], moved, stack)
    return stack, draws


def heterogeneity_penalty(eps_k, eps_max: float):
    """The pull ``lam_k = (eps_max - eps_k) / eps_max`` of a client budget
    ``eps_k``, or of each of an array of them (an array back); 0 when
    ``eps_max`` is inf."""
    eps_k = np.asarray(eps_k, dtype=float)
    over = eps_max < eps_k
    if over.any():
        raise ValueError(f"eps_max {eps_max} must dominate the client epsilon {eps_k[over].flat[0]}")
    lam = np.zeros_like(eps_k) if math.isinf(eps_max) else (eps_max - eps_k) / eps_max
    return lam if lam.ndim else float(lam)


def heterogeneous_update(
    w_k: np.ndarray, g_clipped: np.ndarray, w_max: np.ndarray, lam_k, eta
) -> np.ndarray:
    """One penalized step ``w_k - eta (g + lam_k (w_k - w_max))``, with
    ``lam_k`` from :func:`heterogeneity_penalty`.  ``lam_k`` broadcasts
    against ``w_k``: a scalar for one ``(dim,)`` vector, a ``(k, 1)`` column
    for a ``(k, dim)`` stack of client models.  The step is taken in one
    buffer, each operation as the formula orders it."""
    step = np.subtract(w_k, w_max)
    step *= lam_k
    step += g_clipped
    step *= eta
    return w_k - step


def fedavg_aggregate(models, weights) -> np.ndarray:
    """Weighted average of the rows of a ``(k, dim)`` model stack (or of k
    equal-length vectors), with weights renormalized over the given subset.
    One reduce adds the weighted rows in order, as a running sum would."""
    stack = np.asarray(models, dtype=float)
    if stack.ndim != 2 or len(stack) == 0:
        raise ValueError(f"models must be a non-empty (k, dim) stack, got shape {stack.shape}")
    w = np.asarray(weights, dtype=float)
    if w.shape != (len(stack),):
        raise ValueError("weights must match the number of models")
    if np.any(w < 0):
        raise ValueError("weights must be non-negative")
    total = w.sum()
    if total <= 0:
        raise ValueError("weights must not all be zero")
    return np.add.reduce((w / total)[:, None] * stack, axis=0)


def selection_count(fraction: float, clients: int) -> int:
    """``max(1, ceil(fraction * clients))`` with the product rounded to 9 decimals first,
    so that round-off (``0.07 * 100 == 7.000000000000001``) selects no extra client."""
    return max(1, math.ceil(round(fraction * clients, 9)))


def shuffle_updates(ids: np.ndarray, stack: np.ndarray, stream: NoiseStream) -> tuple[np.ndarray, np.ndarray]:
    """Uniformly permute a round's client positions ``ids`` and the rows of
    their ``(k, dim)`` model ``stack`` together, by one permutation of k."""
    if len(ids) == 0 or len(ids) != len(stack):
        raise ValueError(f"need one id per model row and at least one, got {len(ids)} ids and {len(stack)} rows")
    perm = stream.rng.permutation(len(ids))
    return ids[perm], stack[perm]


def run_round(
    server: ServerState,
    clients: ClientTable,
    model,
    ledger: RdpLedger,
    master_seed: int,
    fed: Federation,
) -> RoundResult:
    """Execute one federated round; raises ``BudgetExhaustedError`` when any
    selected client's ledger row cannot cover its noise applications, and
    then leaves every row as it was before the round.

    Client j is row j of ``clients``, the run's :class:`ClientTable` built
    for the server's clip bound, ledger row j (:func:`client_ledger`), rows
    ``fed.bounds[j]:fed.bounds[j + 1]`` of ``fed.pool`` and weight
    ``fed.weights[j]``; the three client counts must agree.  When fewer than
    all clients are selected, the ``"client-selection"`` stream picks them;
    otherwise every client takes part, in order.  The selected
    clients' local epochs run under the server's plan as one segmented batch
    of pool rows (:func:`local_updates`): the matmuls stay per client,
    everything else is shared.  Their randomness is drawn first by
    :func:`round_draws`, from two round-wide streams, once each: the
    ``"subsample"`` stream gives the masks of the selected clients' rows and,
    if any selected client is noised, the ``"local-noise"`` stream gives the
    noised clients' noise block, so the masks never depend on the mechanism,
    its scale or noise being on.  The noised clients may use different
    mechanism kinds (see :meth:`NoiseTable.sample`).  The noise
    applications made (an empty subsample discards its noise row) are
    charged in one all-or-nothing :meth:`RdpLedger.spend`, and the returned
    server state remembers the clients' models.  The whole plan is read from
    ``server``: with ``server.shuffle`` the client stack is permuted before
    aggregation, and ``server.aggregator`` alone picks FedAvg or
    mode-connect merging, whose curves train ``CURVE_TRAIN_STEPS`` steps at
    ``CURVE_TRAIN_LR`` on ``fed.validation``.
    ``train_loss`` is the mean cross-entropy over ``fed.pool`` (every client
    row) and ``eval_accuracy`` is scored on the held-out ``fed.eval``, on
    which nothing trains.
    """
    counts = (len(clients), len(ledger.budgets), len(fed.bounds) - 1)
    if len(set(counts)) != 1:
        raise ValueError("{} clients, {} ledger rows and {} client row ranges must agree".format(*counts))
    n_sel = selection_count(server.selection_fraction, len(clients))
    if n_sel == len(clients):
        # Every client, in order: a sorted permutation of them all.
        chosen, selected = np.arange(n_sel), clients
    else:
        sel_rng = NoiseStream(master_seed, server.round_t, 0, "client-selection").rng
        chosen = np.sort(sel_rng.permutation(len(clients))[:n_sel])
        selected = clients.take(chosen)

    # The anchor is the first selected client with the largest budget.
    top = int(selected.epsilon.argmax())
    eps_max = selected.epsilon[top]
    w_max = server.client_models.get(int(chosen[top]), server.global_model)

    spans = fed.bounds[chosen[:, None] + (0, 1)]
    drawn = round_draws(master_seed, server, selected, int((spans[:, 1] - spans[:, 0]).sum()), model.dim)
    stack, applied = local_updates(server, selected, fed.pool, spans, model, *drawn, w_max, eps_max)

    # A noise-disabled client draws no noise, so only noised clients are charged.
    draws = np.zeros(len(clients), dtype=int)
    draws[chosen] = applied
    decision = ledger.spend(draws)
    if decision.halted:
        raise BudgetExhaustedError(
            f"privacy budget exhausted at round {server.round_t} for client {decision.row}"
        )

    if server.shuffle:
        chosen, stack = shuffle_updates(chosen, stack, NoiseStream(master_seed, server.round_t, 0, "shuffle"))
    if server.aggregator is Aggregator.FEDAVG:
        new_global = fedavg_aggregate(stack, fed.weights[chosen])
    else:
        curves = CurveTrainConfig(CURVE_TRAIN_STEPS, CURVE_TRAIN_LR, model, fed.validation)
        new_global = mode_connect_aggregate(stack, curves, NoiseStream(master_seed, server.round_t, 0, "curve-train"))

    metrics = RoundMetrics(
        round_index=server.round_t,
        cumulative_epsilon=float(ledger.to_dp()[0].max()) if len(clients.noise) == len(clients) else math.inf,
        train_loss=model.loss(new_global, fed.pool),
        eval_accuracy=model.accuracy(new_global, fed.eval),
    )
    return RoundResult(server=server.successor(new_global, chosen, stack), metrics=metrics)


def client_ledger(clients) -> RdpLedger:
    """One ledger row per client, row j for ``clients[j]``: its budget and its
    per-application curve on ``default_alpha_grid()``, the grid
    ``calibrate_noise`` calibrates on, zero for a noise-disabled client
    (which draws no noise and is never charged).  Clients that share a
    mechanism share one curve, computed once in a memo that only this call
    holds."""
    grid, memo = default_alpha_grid(), {}
    curves = [np.zeros(grid.shape) if c.mechanism is None else cached_rdp_curve(c.mechanism, grid, memo)
              for c in clients]
    return RdpLedger(grid, curves, [c.budget for c in clients])


@dataclass(frozen=True, eq=False)
class Federation:
    """Every data role of a run as a row range of ``data``, whose rows are in
    role order: clients 0..K-1 (together, the ``pool``), the server's
    ``validation`` rows, then the held-out ``eval`` rows.  Client j's rows
    are ``bounds[j]:bounds[j + 1]`` of the ``pool``; their share of it is its FedAvg weight ``weights[j]``."""

    data: DatasetShard
    bounds: np.ndarray
    weights: np.ndarray
    pool: DatasetShard
    validation: DatasetShard
    eval: DatasetShard

    @classmethod
    def deal(cls, data: DatasetShard, client_sizes, validation_n: int) -> "Federation":
        """Client ranges of ``client_sizes`` rows, ``validation_n`` validation rows, the rest eval."""
        bounds = np.cumsum([0, *client_sizes])
        pool_n = int(bounds[-1])
        return cls(
            data=data,
            bounds=bounds,
            weights=np.diff(bounds) / pool_n,
            pool=data.row_range(0, pool_n),
            validation=data.row_range(pool_n, pool_n + validation_n),
            eval=data.row_range(pool_n + validation_n, data.n),
        )


def _blobs(rng: np.random.Generator, centers: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``n`` labels drawn uniformly, then their rows: center plus unit Gaussian noise."""
    labels = rng.integers(0, len(centers), n)
    return centers[labels] + rng.normal(0.0, 1.0, (n, centers.shape[1])), labels


def make_synthetic_federation(
    n_clients: int,
    samples_per_client: int,
    features: int,
    classes: int,
    seed: int,
    eval_fraction: float = 0.05,
    center_scale: float = 3.0,
) -> Federation:
    """IID Gaussian-blob rows dealt to clients, then validation (own stream) and
    held-out eval splits, each ``eval_fraction`` of the client pool size."""
    if n_clients < 1 or samples_per_client < 1:
        raise ValueError("need at least one client and one sample per client")
    rng = NoiseStream(seed, 0, 0, "synthetic-data").rng
    centers = rng.normal(0.0, center_scale, (classes, features))
    pool_n = n_clients * samples_per_client
    eval_n = max(1, round(eval_fraction * pool_n))
    feats, labels = _blobs(rng, centers, pool_n + eval_n)
    val_feats, val_labels = _blobs(NoiseStream(seed, 0, 0, "server-validation").rng, centers, eval_n)
    # Rebinding frees the drawn rows before the shard copies the role-ordered ones.
    feats = np.concatenate([feats[:pool_n], val_feats, feats[pool_n:]])
    labels = np.concatenate([labels[:pool_n], val_labels, labels[pool_n:]])
    return Federation.deal(DatasetShard(feats, labels), [samples_per_client] * n_clients, eval_n)
