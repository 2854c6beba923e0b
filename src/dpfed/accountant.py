"""Renyi-divergence privacy accountant and noise calibration.

The accountant composes per-application Renyi divergences additively on a
fixed grid of orders alpha, converts the composed curve to an (epsilon,
delta)-DP guarantee via

    epsilon(delta) = min_alpha { gamma_alpha + log(1/delta) / (alpha - 1) },

and calibrates the minimal noise scale whose T-fold composition stays inside
a target budget.  Calibration bisects a monotone privacy knob: sigma for
Gaussian, b for Laplace and 1/lam for Staircase (with nu pinned to the
amplitude-optimal 1 / (1 + e^{lam/2}) for each candidate lam).  Composed
epsilon is strictly decreasing in the knob, so bisection brackets the minimal
feasible noise; on return, one relative tolerance step toward less noise
violates the budget.

Shuffle-model amplification bounds (integer alpha >= 2, per-application pure
DP level gamma, N clients) are provided as a sandwich:

    gamma_u = log(1 + C(alpha,2) * 4 (e^gamma - 1)^2 / N) / (alpha - 1)
    gamma_l = log(1 + C(alpha,2) * (e^gamma - 1)^2 / (N e^gamma)) / (alpha - 1)

They are reported, not used to calibrate: gamma must be the pure-DP level of
a whole report, here a d-dimensional noisy update, while
``mechanisms.pure_dp_epsilon`` is the level of one coordinate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .mechanisms import MechanismKind, MechanismParams, rdp

KNOB_BOUNDS = (1e-4, 1e6)


class InfeasibleBudgetError(ValueError):
    """No noise scale within the knob search bounds satisfies the budget."""


def default_alpha_grid() -> np.ndarray:
    """Integers 2..64 plus {1.25, 1.5, 1.75}."""
    return np.concatenate(([1.25, 1.5, 1.75], np.arange(2.0, 65.0)))


def validate_alpha_grid(grid) -> np.ndarray:
    arr = np.asarray(grid, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("alpha grid must be a non-empty 1-D sequence")
    if not np.all(arr > 1.0):
        raise ValueError("all alpha grid entries must exceed 1")
    if not np.all(np.diff(arr) > 0):
        raise ValueError("alpha grid must be strictly increasing (no duplicates)")
    return arr


@dataclass(frozen=True)
class PrivacyBudget:
    """Target (epsilon, delta) pair plus composition horizon."""

    epsilon: float
    delta: float
    horizon_T: int

    def __post_init__(self) -> None:
        if not self.epsilon > 0:
            raise ValueError(f"budget epsilon must be positive, got {self.epsilon}")
        if not (0.0 < self.delta < 1.0):
            raise ValueError(f"budget delta must lie in (0, 1), got {self.delta}")
        if not (isinstance(self.horizon_T, int) and self.horizon_T > 0):
            raise ValueError(f"horizon_T must be a positive integer, got {self.horizon_T}")


@dataclass
class SpendDecision:
    """Outcome of a tentative spend: Continue with headroom, or Halt naming
    the first charged ``row`` that its budget cannot cover."""

    halted: bool
    remaining_epsilon: float = math.nan
    row: int | None = None

    def __bool__(self) -> bool:  # truthy when training may continue
        return not self.halted


def _finite_non_negative(name: str, values) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(arr)) or np.any(arr < 0):
        raise ValueError(f"{name} entries must be finite and non-negative")
    return arr


@dataclass
class RdpLedger:
    """Composed Renyi divergence of every client, one row each, per grid order.

    Row k composes ``curves[k]``, its client's per-application curve,
    computed once when the ledger is set up, and is charged against
    ``budgets[k]``.  ``gamma`` is the ``(rows, orders)`` matrix of composed
    divergences and ``rounds_composed`` counts each row's committed spends.

    Single-writer: gamma entries never decrease.  ``spend`` commits a round's
    charges to every row or to none, and replaces ``gamma`` with a new matrix
    rather than writing into it, so a reference to the old one is a snapshot.
    """

    alpha_grid: np.ndarray
    curves: np.ndarray
    budgets: tuple[PrivacyBudget, ...]
    gamma: np.ndarray = field(default=None)  # type: ignore[assignment]
    rounds_composed: np.ndarray = field(init=False)
    _epsilon: np.ndarray = field(init=False, repr=False, compare=False)
    _log_conv: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.alpha_grid = validate_alpha_grid(self.alpha_grid)
        self.curves = _finite_non_negative("curve", self.curves)
        if self.curves.ndim != 2 or len(self.curves) < 1 or self.curves.shape[1] != self.alpha_grid.size:
            raise ValueError(
                f"curves {self.curves.shape} must be one row per client over the ledger grid {self.alpha_grid.shape}"
            )
        rows = len(self.curves)
        self.budgets = tuple(self.budgets)
        if len(self.budgets) != rows:
            raise ValueError(f"need one budget per row: {rows} rows, {len(self.budgets)} budgets")
        if self.gamma is None:
            self.gamma = np.zeros_like(self.curves)
        else:
            self.gamma = _finite_non_negative("gamma", self.gamma)
        if self.gamma.shape != self.curves.shape:
            raise ValueError(f"gamma {self.gamma.shape} must match the curves {self.curves.shape}")
        self.rounds_composed = np.zeros(rows, dtype=int)
        self._epsilon = np.array([b.epsilon for b in self.budgets])
        self._log_conv = np.array([math.log(1.0 / b.delta) / (self.alpha_grid - 1.0) for b in self.budgets])

    def to_dp(self) -> tuple[np.ndarray, np.ndarray]:
        """Convert every row at its budget's delta: the ``(rows,)`` epsilons
        and their minimizing alphas.

        Ties resolve to the smallest alpha.
        """
        candidates = self.gamma + self._log_conv
        return candidates.min(axis=1), self.alpha_grid[candidates.argmin(axis=1)]

    def spend(self, draws) -> SpendDecision:
        """Tentatively compose ``draws[k]`` applications of row k's curve, for
        every row at once.  Halt, leaving every row unchanged, if a charged
        row (``draws[k] > 0``) would exceed its budget epsilon, naming the
        first such row; else commit every row and report the least headroom
        over the rows."""
        draws = np.asarray(draws)
        if draws.shape != self._epsilon.shape or not np.issubdtype(draws.dtype, np.integer) or np.any(draws < 0):
            raise ValueError(f"draws must be {self._epsilon.size} non-negative integers, one per row")
        trial = self.gamma + draws[:, None] * self.curves
        eps_after = (trial + self._log_conv).min(axis=1)
        charged = draws > 0
        over = (charged & (eps_after > self._epsilon)).nonzero()[0]
        if over.size:
            return SpendDecision(halted=True, row=int(over[0]))
        self.gamma = trial
        self.rounds_composed = self.rounds_composed + charged
        return SpendDecision(halted=False, remaining_epsilon=float((self._epsilon - eps_after).min()))


def rdp_curve(params: MechanismParams, grid) -> np.ndarray:
    """Per-application Renyi divergence on every grid order: one ``rdp`` call."""
    return rdp(params, validate_alpha_grid(grid))


_CURVE_CACHE: dict[tuple, np.ndarray] = {}


def cached_rdp_curve(params: MechanismParams, grid) -> np.ndarray:
    """Memoized :func:`rdp_curve` for hot composition loops."""
    key = (params, np.asarray(grid, dtype=float).tobytes())
    hit = _CURVE_CACHE.get(key)
    if hit is None:
        hit = _CURVE_CACHE[key] = rdp_curve(params, grid)
    return hit


@dataclass(frozen=True)
class CalibrationResult:
    mechanism: MechanismParams
    achieved_epsilon: float
    minimizing_alpha: float
    iterations: int


def optimal_staircase_nu(lam: float) -> float:
    """Amplitude-minimizing band fraction nu = 1 / (1 + e^{lam/2})."""
    if not lam > 0:
        raise ValueError(f"lam must be positive, got {lam}")
    z = math.exp(-lam / 2.0)
    # clamp into the open interval (0, 1) when e^{-lam/2} underflows
    return max(z / (1.0 + z), 1e-300)


def _params_from_knob(kind: MechanismKind, sensitivity: float, knob: float) -> MechanismParams:
    if kind is MechanismKind.STAIRCASE:
        lam = 1.0 / knob
        return MechanismParams(kind, sensitivity, lam, nu=optimal_staircase_nu(lam))
    return MechanismParams(kind, sensitivity, knob)


def calibrate_noise(
    kind: MechanismKind,
    sensitivity: float,
    budget: PrivacyBudget,
    grid=None,
    tolerance: float = 1e-4,
) -> CalibrationResult:
    """Minimal-noise scale whose ``budget.horizon_T``-fold composition meets
    the budget.

    Bisects the privacy knob in log space inside ``KNOB_BOUNDS`` until the
    bracket is within the relative ``tolerance``; the returned scale sits on
    the feasible side, and perturbing it one tolerance step toward less noise
    violates the budget.  Each knob's curve is one :func:`rdp_curve`, a single
    ``rdp`` call over the grid.  Raises :class:`InfeasibleBudgetError` when even the
    maximum-noise knob cannot meet the budget (never clamps silently); an infinite epsilon is a ``ValueError``.
    """
    if not math.isfinite(budget.epsilon):
        raise ValueError(f"calibration needs a finite budget epsilon, got {budget.epsilon}")
    arr = validate_alpha_grid(default_alpha_grid() if grid is None else grid)
    if not tolerance > 0:
        raise ValueError(f"tolerance must be positive, got {tolerance}")

    log_conv = math.log(1.0 / budget.delta) / (arr - 1.0)
    evals = 0

    def composed_epsilon(knob: float) -> float:
        nonlocal evals
        evals += 1
        curve = rdp_curve(_params_from_knob(kind, sensitivity, knob), arr)
        return float(np.min(budget.horizon_T * curve + log_conv))

    lo, hi = KNOB_BOUNDS
    if composed_epsilon(hi) > budget.epsilon:
        raise InfeasibleBudgetError(
            f"budget (epsilon={budget.epsilon}, delta={budget.delta}, T={budget.horizon_T}) "
            f"is infeasible for {kind.value} within knob bounds {KNOB_BOUNDS}"
        )
    if composed_epsilon(lo) <= budget.epsilon:
        # Budget so loose that the minimum-noise bound already satisfies it;
        # minimality is then limited by the search floor.
        hi = lo
    while hi / lo > 1.0 + tolerance:
        mid = math.sqrt(lo * hi)
        if composed_epsilon(mid) <= budget.epsilon:
            hi = mid
        else:
            lo = mid
    params = _params_from_knob(kind, sensitivity, hi)
    candidates = budget.horizon_T * rdp_curve(params, arr) + log_conv
    idx = int(np.argmin(candidates))
    return CalibrationResult(
        mechanism=params,
        achieved_epsilon=float(candidates[idx]),
        minimizing_alpha=float(arr[idx]),
        iterations=evals,
    )


def _binom2(alpha: int) -> float:
    return alpha * (alpha - 1) / 2.0


def _check_shuffle_args(gamma: float, alpha, n_clients: int) -> int:
    if not (isinstance(alpha, (int, np.integer)) or float(alpha).is_integer()):
        raise ValueError(f"shuffle amplification is stated for integer alpha, got {alpha}")
    alpha = int(alpha)
    if alpha < 2:
        raise ValueError(f"shuffle amplification needs alpha >= 2, got {alpha}")
    if gamma < 0:
        raise ValueError(f"gamma must be non-negative, got {gamma}")
    if n_clients < 1:
        raise ValueError(f"n_clients must be positive, got {n_clients}")
    return alpha


def shuffle_amplify_upper(gamma: float, alpha, n_clients: int) -> float:
    """Upper bound on the shuffle model's Renyi divergence of order alpha."""
    alpha = _check_shuffle_args(gamma, alpha, n_clients)
    if gamma > 350.0:  # expm1 would overflow; the bound is vacuous anyway
        return math.inf
    excess = _binom2(alpha) * 4.0 * math.expm1(gamma) ** 2 / n_clients
    return math.log1p(excess) / (alpha - 1)


def shuffle_amplify_lower(gamma: float, alpha, n_clients: int) -> float:
    """Lower bound on the shuffle model's Renyi divergence of order alpha."""
    alpha = _check_shuffle_args(gamma, alpha, n_clients)
    if gamma > 350.0:
        return math.inf
    # (e^g - 1)^2 / e^g == 4 sinh(g/2)^2, stable for large gamma
    excess = _binom2(alpha) * 4.0 * math.sinh(gamma / 2.0) ** 2 / n_clients
    return math.log1p(excess) / (alpha - 1)
