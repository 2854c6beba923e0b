"""Differentially private federated learning with harmonized noise accounting.

Gaussian, Laplace and Staircase noise mechanisms share one Renyi-divergence
accountant that composes per-application privacy loss, converts it to
(epsilon, delta)-DP and calibrates minimal noise for a budget; a deterministic
federated simulator exercises them with FedAvg or mode-connectivity
aggregation.
"""

from .accountant import (
    CalibrationResult,
    InfeasibleBudgetError,
    PrivacyBudget,
    RdpLedger,
    SpendDecision,
    calibrate_noise,
    default_alpha_grid,
    rdp_curve,
    shuffle_amplify_lower,
    shuffle_amplify_upper,
)
from .fl_core import (
    Aggregator,
    BudgetExhaustedError,
    ClientConfig,
    DatasetShard,
    LogisticRegressionModel,
    RoundMetrics,
    ServerState,
    fedavg_aggregate,
    heterogeneous_update,
    load_csv_shard,
    local_update,
    make_synthetic_federation,
    run_round,
    shuffle_updates,
)
from .mechanisms import (
    MechanismKind,
    MechanismParams,
    NoiseStream,
    density,
    density_as_published,
    expected_abs_noise,
    pure_dp_epsilon,
    rdp,
    rdp_as_published,
    sample_noise,
    sample_noise_array,
)
from .mode_connectivity import (
    CurveKind,
    CurveSpec,
    CurveTrainConfig,
    bezier_fedavg_update,
    curve_point,
    extra_rounds_bound,
    mode_connect_aggregate,
    theta_star,
    train_curve,
)
from .utility_bounds import (
    BoundQuery,
    l1_bound_gaussian,
    l1_bound_laplace,
    l1_bound_staircase,
    optimal_nu,
)

__all__ = [name for name in dir() if not name.startswith("_")]
