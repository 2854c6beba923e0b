"""Renyi-divergence privacy accountant and noise calibration.

The accountant composes per-application Renyi divergences additively on
one grid of orders alpha, ``default_alpha_grid()``, converts the composed
curve to an (epsilon, delta)-DP guarantee via

    epsilon(delta) = min_alpha { gamma_alpha + log(1/delta) / (alpha - 1) },

and calibrates the minimal noise scale whose T-fold composition stays inside
a target budget.  Calibration and the ledger share the grid and the one
conversion term, :meth:`PrivacyBudget.conversion`, so a ledger row charged
its calibrated horizon reports the calibrated epsilon.  Calibration bisects a
monotone privacy knob: sigma for Gaussian, b for Laplace and 1/lam for
Staircase (with nu pinned to the amplitude-optimal 1 / (1 + e^{lam/2}) for
each candidate lam).  Composed epsilon is strictly decreasing in the knob, so
bisection brackets the minimal feasible noise; on return, one relative
tolerance step toward less noise violates the budget.

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

    def conversion(self, grid: np.ndarray) -> np.ndarray:
        """The RDP-to-DP term ``log(1/delta) / (alpha - 1)`` on every order of
        ``grid``; a composed curve plus this term, minimized over the grid, is
        its epsilon at ``delta``."""
        return math.log(1.0 / self.delta) / (grid - 1.0)


@dataclass
class SpendDecision:
    """Outcome of a tentative spend: Continue, or Halt naming the first
    charged ``row`` that its budget cannot cover."""

    halted: bool
    row: int | None = None


@dataclass
class RdpLedger:
    """Composed Renyi divergence of every client, one row each, per grid order.

    Row k composes ``curves[k]``, its client's per-application curve on
    ``alpha_grid``, computed once when the ledger is set up, and is charged
    against ``budgets[k]``, converting at its delta by
    :meth:`PrivacyBudget.conversion`.  ``gamma`` is the ``(rows, orders)``
    matrix of composed divergences, zero when the ledger is built, and
    ``rounds_composed`` counts each row's committed spends.

    Single-writer: gamma entries never decrease.  ``spend`` commits a round's
    charges to every row or to none, and replaces ``gamma`` with a new matrix
    rather than writing into it, so a reference to the old one is a snapshot.
    """

    alpha_grid: np.ndarray
    curves: np.ndarray
    budgets: tuple[PrivacyBudget, ...]
    gamma: np.ndarray = field(init=False)
    rounds_composed: np.ndarray = field(init=False)
    _epsilon: np.ndarray = field(init=False, repr=False, compare=False)
    _log_conv: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.alpha_grid = validate_alpha_grid(self.alpha_grid)
        self.curves = np.asarray(self.curves, dtype=float)
        if not np.all(np.isfinite(self.curves)) or np.any(self.curves < 0):
            raise ValueError("curve entries must be finite and non-negative")
        if self.curves.ndim != 2 or len(self.curves) < 1 or self.curves.shape[1] != self.alpha_grid.size:
            raise ValueError(
                f"curves {self.curves.shape} must be one row per client over the ledger grid {self.alpha_grid.shape}"
            )
        rows = len(self.curves)
        self.budgets = tuple(self.budgets)
        if len(self.budgets) != rows:
            raise ValueError(f"need one budget per row: {rows} rows, {len(self.budgets)} budgets")
        self.gamma = np.zeros_like(self.curves)
        self.rounds_composed = np.zeros(rows, dtype=int)
        self._epsilon = np.array([b.epsilon for b in self.budgets])
        self._log_conv = np.array([b.conversion(self.alpha_grid) for b in self.budgets])

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
        first such row; else commit every row."""
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
        return SpendDecision(halted=False)


def rdp_curve(params: MechanismParams, grid) -> np.ndarray:
    """Per-application Renyi divergence on every grid order: one ``rdp`` call."""
    return rdp(params, validate_alpha_grid(grid))


def cached_rdp_curve(params: MechanismParams, grid, memo: dict) -> np.ndarray:
    """:func:`rdp_curve`, looked up first in the caller's ``memo`` and added
    to it on a miss, so the memo's owner computes each distinct curve once."""
    key = (params, np.asarray(grid, dtype=float).tobytes())
    hit = memo.get(key)
    if hit is None:
        hit = memo[key] = rdp_curve(params, grid)
    return hit


@dataclass(frozen=True)
class CalibrationResult:
    mechanism: MechanismParams
    achieved_epsilon: float
    minimizing_alpha: float
    iterations: int


def optimal_staircase_nu(lam: float) -> float:
    """Amplitude-minimizing band fraction nu = 1 / (1 + e^{lam/2})."""
    if not (math.isfinite(lam) and lam > 0):
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
    tolerance: float = 1e-4,
) -> CalibrationResult:
    """Minimal-noise scale whose ``budget.horizon_T``-fold composition meets
    the budget on ``default_alpha_grid()``, the ledger's grid.

    Bisects the privacy knob in log space inside ``KNOB_BOUNDS`` until the
    bracket is within the relative ``tolerance``; the returned scale sits on
    the feasible side, and perturbing it one tolerance step toward less noise
    violates the budget.  Each knob is evaluated once: its curve is one
    :func:`rdp_curve` call, composed and converted as the ledger does, and
    the last feasible knob's candidates give ``achieved_epsilon`` and
    ``minimizing_alpha``.  Raises :class:`InfeasibleBudgetError` when even the
    maximum-noise knob cannot meet the budget (never clamps silently); an
    infinite epsilon is a ``ValueError``.
    """
    if not math.isfinite(budget.epsilon):
        raise ValueError(f"calibration needs a finite budget epsilon, got {budget.epsilon}")
    if not tolerance > 0:
        raise ValueError(f"tolerance must be positive, got {tolerance}")
    grid = default_alpha_grid()
    log_conv = budget.conversion(grid)
    evals = 0

    def candidates(knob: float) -> np.ndarray:
        nonlocal evals
        evals += 1
        return budget.horizon_T * rdp_curve(_params_from_knob(kind, sensitivity, knob), grid) + log_conv

    lo, hi = KNOB_BOUNDS
    feasible = candidates(hi)
    if feasible.min() > budget.epsilon:
        raise InfeasibleBudgetError(
            f"budget (epsilon={budget.epsilon}, delta={budget.delta}, T={budget.horizon_T}) "
            f"is infeasible for {kind.value} within knob bounds {KNOB_BOUNDS}"
        )
    trial = candidates(lo)
    if trial.min() <= budget.epsilon:
        # Budget so loose that the minimum-noise bound already satisfies it;
        # minimality is then limited by the search floor.
        hi, feasible = lo, trial
    while hi / lo > 1.0 + tolerance:
        mid = math.sqrt(lo * hi)
        trial = candidates(mid)
        if trial.min() <= budget.epsilon:
            hi, feasible = mid, trial
        else:
            lo = mid
    idx = int(np.argmin(feasible))
    return CalibrationResult(
        mechanism=_params_from_knob(kind, sensitivity, hi),
        achieved_epsilon=float(feasible[idx]),
        minimizing_alpha=float(grid[idx]),
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
