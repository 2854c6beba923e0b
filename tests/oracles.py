"""Independent numerical oracles used by the test suite.

Everything here recomputes expected values from first principles (quadrature,
Monte Carlo, band geometry) without touching the package's closed forms, so
the tests compare two genuinely separate routes to each number.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate


# --- log densities, written independently of the package ---

def gaussian_logpdf(sigma):
    c = math.log(sigma * math.sqrt(2.0 * math.pi))
    return lambda x: -np.square(x) / (2.0 * sigma**2) - c


def laplace_logpdf(b):
    c = math.log(2.0 * b)
    return lambda x: -np.abs(x) / b - c


def staircase_logpdf(delta, lam, nu):
    log_y = math.log1p(-math.exp(-lam)) - math.log(2.0 * delta * (nu + math.exp(-lam) * (1.0 - nu)))

    def logpdf(x):
        ax = np.abs(np.asarray(x, dtype=float))
        rho = np.floor(ax / delta)
        inner = (ax - rho * delta) < nu * delta
        return np.where(inner, -rho * lam, -(rho + 1.0) * lam) + log_y

    return logpdf


def staircase_knots(delta, nu, lo, hi):
    """Discontinuity locations of the shifted-pair staircase integrand.

    Edges of the band structure and its shift coincide up to 1 ulp, so the
    list is deduplicated with a width tolerance; zero-width slivers would
    otherwise poison the segmented quadrature.
    """
    n = int(math.ceil(max(abs(lo), abs(hi)) / delta)) + 2
    base = []
    for r in range(n):
        base.extend((r * delta, (r + nu) * delta))
    edges = np.array(base)
    all_edges = np.concatenate([edges, -edges, edges + delta, -edges + delta])
    all_edges = np.sort(all_edges[(all_edges > lo) & (all_edges < hi)])
    keep = np.concatenate([[True], np.diff(all_edges) > 1e-9 * delta])
    return all_edges[keep]


def renyi_divergence_quad(logpdf, delta, alpha, lo, hi, knots=()):
    """D_alpha(P || P(. - delta)) by segmented quadrature of the log integrand.

    The integrand is rescaled by its maximum (found on a dense scan) so the
    result is overflow-free for any parameter range.
    """
    def logf(x):
        return alpha * logpdf(x) + (1.0 - alpha) * logpdf(x - delta)

    scan = np.linspace(lo, hi, 40001)
    shift = float(np.max(logf(scan)))

    pts = np.unique(np.concatenate([[lo, hi, 0.0, delta], np.asarray(knots, dtype=float)]))
    pts = pts[(pts >= lo) & (pts <= hi)]
    total = 0.0
    for a, b in zip(pts[:-1], pts[1:]):
        if b - a < 1e-12 * (1.0 + abs(a)):
            continue
        val, _ = integrate.quad(lambda x: math.exp(float(logf(x)) - shift), a, b, limit=100)
        total += val
    return (shift + math.log(total)) / (alpha - 1.0)


def staircase_band_edges_and_cdf(density_fn, delta, nu, tail_mass=1e-12):
    """Piecewise-linear CDF knots of a symmetric staircase density.

    Evaluates the density only pointwise (at piece midpoints); exact because
    the density is constant on each piece.
    """
    edges = [0.0]
    masses = []
    r = 0
    half = 0.0
    while half < 0.5 - tail_mass and r < 100000:
        for lo_off, hi_off in ((r, r + nu), (r + nu, r + 1.0)):
            lo, hi = lo_off * delta, hi_off * delta
            mid = 0.5 * (lo + hi)
            masses.append(float(density_fn(mid)) * (hi - lo))
            edges.append(hi)
            half += masses[-1]
        r += 1
    pos_edges = np.array(edges)
    pos_cdf = 0.5 + np.concatenate([[0.0], np.cumsum(masses)])
    x = np.concatenate([-pos_edges[::-1], pos_edges[1:]])
    cdf = np.concatenate([(1.0 - pos_cdf)[::-1], pos_cdf[1:]])
    return x, np.clip(cdf, 0.0, 1.0)


def integrated_density_cdf(density_fn, half_width, points=400_001):
    """CDF knots of a density on ``[-half_width, half_width]`` by cumulative
    trapezoid quadrature of pointwise density values (no closed-form CDF).
    The grid is symmetric with an odd point count, so 0 is a knot."""
    x = np.linspace(-half_width, half_width, points)
    return x, integrate.cumulative_trapezoid(density_fn(x), x, initial=0.0)


def ks_statistic(samples, cdf_x, cdf_y):
    s = np.sort(np.asarray(samples))
    model = np.interp(s, cdf_x, cdf_y)
    n = s.size
    ecdf_hi = np.arange(1, n + 1) / n
    ecdf_lo = np.arange(0, n) / n
    return float(max(np.max(np.abs(ecdf_hi - model)), np.max(np.abs(model - ecdf_lo))))


def staircase_sample_parent(params, rng, size):
    """The staircase sampler as first written: four draw calls, both band
    pieces computed everywhere, and a +-1 sign multiplied in."""
    delta, lam, nu = params.sensitivity, params.scale, params.nu
    e = math.exp(-lam)
    rho = rng.geometric(1.0 - e, size) - 1
    inner = rng.random(size) < nu / (nu + e * (1.0 - nu))
    u = rng.random(size)
    mag = np.where(inner, (rho + u * nu) * delta, (rho + nu + u * (1.0 - nu)) * delta)
    sign = np.where(rng.random(size) < 0.5, -1.0, 1.0)
    return sign * mag


def rdp_parent(params, alpha):
    """Renyi divergence at one order, frozen as the package computed it
    before ``rdp`` took an array of orders: a scalar closed form, or a
    Python log-sum-exp over the Laplace terms and the Staircase tails and
    band pieces."""
    from dpfed.mechanisms import MechanismKind, _staircase_log_y

    def logsumexp(terms):
        m = max(terms)
        if math.isinf(m):
            return m
        return m + math.log(sum(math.exp(t - m) for t in terms))

    delta = params.sensitivity
    if params.kind is MechanismKind.GAUSSIAN:
        return alpha * delta**2 / (2.0 * params.scale**2)
    if params.kind is MechanismKind.LAPLACE:
        t = delta / params.scale
        log_terms = [
            math.log(alpha / (2.0 * alpha - 1.0)) + t * (alpha - 1.0),
            math.log((alpha - 1.0) / (2.0 * alpha - 1.0)) - t * alpha,
        ]
        return logsumexp(log_terms) / (alpha - 1.0)
    lam, nu = params.scale, params.nu
    log_y = _staircase_log_y(delta, lam, nu)
    log_terms = [math.log(0.5) + (alpha - 1.0) * lam, math.log(0.5) - alpha * lam]

    def log_p(x):  # density of P on (0, delta)
        return log_y if x < nu * delta else log_y - lam

    def log_q(x):  # density of P(. - delta), via symmetry
        return log_y if delta - x < nu * delta else log_y - lam

    cuts = [0.0, min(nu, 1.0 - nu) * delta, max(nu, 1.0 - nu) * delta, delta]
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        if hi <= lo:
            continue
        mid = 0.5 * (lo + hi)
        log_terms.append(math.log(hi - lo) + alpha * log_p(mid) + (1.0 - alpha) * log_q(mid))
    return logsumexp(log_terms) / (alpha - 1.0)


def row_epsilon(gamma, budget, grid):
    """One composed curve's epsilon at the budget's delta, order by order."""
    return min(g + math.log(1.0 / budget.delta) / (a - 1.0) for g, a in zip(gamma, grid))


def cumulative_epsilon(gamma, budgets, grid):
    """The largest row epsilon of a ledger, each row at its own delta."""
    return max(row_epsilon(g, b, grid) for g, b in zip(gamma, budgets))


def sequential_spend(gamma, composed, curves, budgets, grid, draws):
    """One round's charges, spent one client at a time in row order, as
    separate per-client ledgers did: row k takes ``draws[k] * curves[k]``
    unless that would exceed its budget epsilon, in which case every row
    spent this round is restored.  Returns the new ``(gamma, composed,
    halting row or None)``; the inputs are not modified."""
    gamma, composed = gamma.copy(), composed.copy()
    spent = []
    for k, n in enumerate(draws):
        if n == 0:
            continue
        trial = gamma[k] + n * curves[k]
        if row_epsilon(trial, budgets[k], grid) > budgets[k].epsilon:
            for row, old_gamma, old_composed in spent:
                gamma[row], composed[row] = old_gamma, old_composed
            return gamma, composed, k
        spent.append((k, gamma[k].copy(), composed[k]))
        gamma[k], composed[k] = trial, composed[k] + 1
    return gamma, composed, None


def central_difference_gradient(fn, w, h=1e-6):
    w = np.asarray(w, dtype=float)
    grad = np.zeros_like(w)
    for i in range(w.size):
        up, down = w.copy(), w.copy()
        up[i] += h
        down[i] -= h
        grad[i] = (fn(up) - fn(down)) / (2.0 * h)
    return grad


def softmax_loss_and_accuracy_reference(weights, bias, features, labels):
    """Mean cross-entropy and accuracy of multinomial logistic regression,
    row-major: ``(n, classes)`` logits reduced over the trailing class axis."""
    logits = features @ weights.T + bias
    logits = logits - logits.max(axis=1, keepdims=True)
    log_probs = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
    loss = -log_probs[np.arange(len(labels)), labels].mean()
    return float(loss), float((log_probs.argmax(axis=1) == labels).mean())


def published_softmax_oracle(w, features, labels, classes):
    """Per-example cross-entropy gradients ``(n, dim)``, mean loss and
    accuracy of multinomial logistic regression, one example at a time.

    ``w`` uses the published ``[W | b]`` packing: the ``(classes, features)``
    weight matrix row by row, then the ``(classes,)`` bias; so does each
    gradient row.
    """
    n, f = features.shape
    weights, bias = w[: classes * f].reshape(classes, f), w[classes * f :]
    grads, losses, hits = [], [], 0
    for x, y in zip(features, labels):
        z = weights @ x + bias
        z = z - z.max()
        e = np.exp(z)
        losses.append(math.log(e.sum()) - z[y])
        hits += int(z.argmax() == y)
        p = e / e.sum()
        p[y] -= 1.0
        grads.append(np.concatenate([np.outer(p, x).ravel(), p]))
    return np.array(grads), float(np.mean(losses)), hits / n


class QuadraticBowl:
    """Loss oracle ``||w - center||^2`` satisfying the LossModel contract."""

    def __init__(self, center):
        self.center = np.asarray(center, dtype=float)

    def loss(self, w, shard=None):
        return float(np.sum((np.asarray(w) - self.center) ** 2))

    def gradient(self, w, shard=None):
        return 2.0 * (np.asarray(w, dtype=float) - self.center)

    def to_layout(self, stack):
        # The identity layout: the (k, d) stack as one group.
        return stack[None]

    def from_layout(self, layout):
        return layout[0].copy()

    def stack_gradient(self, shard, k):
        return lambda w, out: np.multiply(2.0, np.subtract(w, self.center, out=out), out=out)


def train_curve_reference(spec, cfg, stream):
    """Bend training one curve at a time: a scalar ``p`` and one single-vector
    ``gradient`` call per step, with the chain-rule factor written out here."""
    from dpfed.mode_connectivity import CurveKind, CurveSpec, curve_point

    theta = spec.bend_theta.copy()
    work = CurveSpec(spec.kind, spec.endpoint_w1, spec.endpoint_w2, theta)
    rng = stream.rng
    for _ in range(cfg.steps):
        p = float(rng.random())
        if spec.kind is CurveKind.QUADRATIC_BEZIER:
            factor = 2.0 * p * (1.0 - p)
        else:
            factor = 2.0 * min(p, 1.0 - p)
        theta -= cfg.learning_rate * factor * cfg.model.gradient(curve_point(work, p), cfg.shard)
    return theta


def stacked_gradient_parent(model, w, shard):
    """Mean cross-entropy gradient of a ``(k, dim)`` stack, frozen as the
    package computed it before curve training moved into level-owned
    buffers: every call allocates its logits and rebuilds the k models'
    one-hot positions.  Any other model answers through ``model.gradient``."""
    from dpfed.fl_core import LogisticRegressionModel

    if not isinstance(model, LogisticRegressionModel):
        return model.gradient(w, shard)
    n = shard.n
    logits = (w.reshape(-1, model.features + 1) @ shard.augmented.T).reshape(-1, model.classes, n)
    logits -= logits.max(axis=1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=1, keepdims=True)
    hot = (np.arange(0, logits.size, logits[0].size)[:, None] + shard.labels * n + np.arange(n)).ravel()
    logits.reshape(-1)[hot] -= 1.0
    grad = logits.reshape(-1, n) @ shard.augmented
    grad /= n
    return grad.reshape(w.shape)


def train_bends_parent(spec, cfg, rngs):
    """Bend training of a stacked ``(k, d)`` spec, frozen as the package
    computed it before level-owned buffers: each step assembles the curve
    points as ``a w1 + b theta + c w2`` in place and calls the allocating
    :func:`stacked_gradient_parent`."""
    from dpfed.mode_connectivity import CurveKind

    w1, w2, theta = spec.endpoint_w1, spec.endpoint_w2, spec.bend_theta.copy()
    p = np.stack([rng.random(cfg.steps) for rng in rngs], axis=1)[:, :, None]
    if spec.kind is CurveKind.QUADRATIC_BEZIER:
        a, b, c = (1.0 - p) ** 2, 2.0 * p * (1.0 - p), p**2
    else:
        left = p <= 0.5
        a = np.where(left, 2.0 * (0.5 - p), 0.0)
        b = np.where(left, 2.0 * p, 2.0 * (1.0 - p))
        c = np.where(left, 0.0, 2.0 * (p - 0.5))
    rate = cfg.learning_rate * b
    point, term = np.empty_like(theta), np.empty_like(theta)
    for step in range(cfg.steps):
        np.multiply(a[step], w1, out=point)
        point += np.multiply(b[step], theta, out=term)
        point += np.multiply(c[step], w2, out=term)
        theta -= np.multiply(rate[step], stacked_gradient_parent(cfg.model, point, cfg.shard), out=term)
    return theta


def mode_connect_parent(models, cfg, stream, kind):
    """Pairwise merge with each level's curves stacked, frozen as the package
    computed it before level-owned buffers (through :func:`train_bends_parent`)."""
    from dpfed.mechanisms import NoiseStream
    from dpfed.mode_connectivity import CurveSpec

    level = np.stack([np.asarray(m, dtype=float) for m in models])
    merge_round = 0
    while len(level) > 1:
        paired = len(level) - len(level) % 2
        spec = CurveSpec(kind, level[0:paired:2], level[1:paired:2])
        rngs = [
            NoiseStream(stream.master_seed, stream.round_index, pair, f"{stream.purpose}:level{merge_round}").rng
            for pair in range(paired // 2)
        ]
        level = np.concatenate([train_bends_parent(spec, cfg, rngs), level[paired:]])
        merge_round += 1
    return level[0]


def mode_connect_reference(models, cfg, stream, kind):
    """Pairwise merge, one pair after another through ``train_curve_reference``."""
    from dpfed.mechanisms import NoiseStream
    from dpfed.mode_connectivity import CurveSpec

    level = [np.asarray(m, dtype=float) for m in models]
    merge_round = 0
    while len(level) > 1:
        nxt = []
        for i in range(0, len(level) - 1, 2):
            pair_stream = NoiseStream(
                stream.master_seed, stream.round_index, i // 2, f"{stream.purpose}:level{merge_round}"
            )
            nxt.append(train_curve_reference(CurveSpec(kind, level[i], level[i + 1]), cfg, pair_stream))
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
        merge_round += 1
    return level[0]


def curve_loss_monte_carlo(spec, loss_fn, n=10_000, seed=123):
    """E_{p~U(0,1)} loss(phi(p)) estimated on a fixed uniform sample."""
    from dpfed.mode_connectivity import curve_point

    rng = np.random.default_rng(seed)
    return float(np.mean([loss_fn(curve_point(spec, float(p))) for p in rng.random(n)]))


def run_round_reference(server, clients, model, ledger, seed, fed):
    """One FedAvg round of :func:`dpfed.fl_core.run_round`, taken as plain
    loops over the selected clients and their epochs, in the published
    ``[W | b]`` packing.

    Selection is every client in order, or, for a fraction below 1, the
    sorted head of the round's ``"client-selection"`` permutation.  The masks
    and noise come from the same :func:`dpfed.fl_core.round_draws` arrays.
    Per client and epoch: the sampled rows' per-example gradients
    (:func:`published_softmax_oracle`), each clipped to l2 norm c by an
    explicit norm, summed, the client's noise row added, divided by the
    batch size, then one heterogeneous step toward the anchor.  An empty
    subsample skips the epoch and its noise.  The charge is
    :func:`sequential_spend`, and the global model a Python sum of the
    renormalized FedAvg weights times the client models.

    The inputs are not modified.  Returns ``(client models, global model,
    gamma, composed, halting row or None)``: the models in the row layout,
    client models keyed by position, and the global model None on a halt.
    """
    from dpfed.fl_core import ClientTable, round_draws, selection_count
    from dpfed.mechanisms import NoiseStream

    k_all, t = len(clients), server.round_t
    n_sel = selection_count(server.selection_fraction, k_all)
    if n_sel == k_all:
        chosen = list(range(k_all))
    else:
        chosen = sorted(NoiseStream(seed, t, 0, "client-selection").rng.permutation(k_all)[:n_sel].tolist())
    selected = [clients[j] for j in chosen]

    def published(rows):
        out = np.empty(model.dim)
        out[model.from_published] = rows
        return out

    eps = [cfg.budget.epsilon for cfg in selected]
    eps_max = max(eps)
    anchor = chosen[eps.index(eps_max)]
    w_max = published(server.client_models.get(anchor, server.global_model))
    w0 = published(server.global_model)

    sizes = [int(fed.bounds[j + 1] - fed.bounds[j]) for j in chosen]
    uniforms, noise = round_draws(seed, server, ClientTable.build(selected, server.clip_c), sum(sizes), model.dim)
    c, eta, q = server.clip_c, server.learning_rate, server.sample_rate_q
    models, draws, col, slot = {}, [0] * k_all, 0, 0
    for j, cfg, size in zip(chosen, selected, sizes):
        lam = 0.0 if math.isinf(eps_max) else (eps_max - cfg.budget.epsilon) / eps_max
        w = w0.copy()
        start = int(fed.bounds[j])
        for epoch in range(server.local_epochs_I):
            rows = [start + i for i in range(size) if uniforms[epoch, col + i] < q]
            if not rows:
                continue
            grads, _, _ = published_softmax_oracle(w, fed.pool.features[rows], fed.pool.labels[rows], model.classes)
            total = np.zeros(model.dim)
            for g in grads:
                total += g * min(1.0, c / max(math.sqrt(float(g @ g)), 1e-300))
            if cfg.mechanism is not None:
                total += noise[epoch, slot]
                draws[j] += 1
            w = w - eta * (total / len(rows) + lam * (w - w_max))
        models[j] = w[model.from_published]
        col += size
        slot += cfg.mechanism is not None

    gamma, composed, halted = sequential_spend(
        ledger.gamma, ledger.rounds_composed, ledger.curves, ledger.budgets, ledger.alpha_grid, draws
    )
    if halted is not None:
        return models, None, gamma, composed, halted
    total_weight = sum(float(fed.weights[j]) for j in chosen)
    global_model = sum((float(fed.weights[j]) / total_weight) * models[j] for j in chosen)
    return models, global_model, gamma, composed, None
