import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpfed.accountant import (
    KNOB_BOUNDS,
    InfeasibleBudgetError,
    PrivacyBudget,
    RdpLedger,
    calibrate_noise,
    default_alpha_grid,
    optimal_staircase_nu,
    rdp_curve,
    shuffle_amplify_lower,
    shuffle_amplify_upper,
    validate_alpha_grid,
)
from dpfed.mechanisms import MechanismKind, MechanismParams, pure_dp_epsilon, rdp

INT_GRID = np.arange(2.0, 65.0)
DELTA = 1e-5


def composed_epsilon(params, T, delta, grid):
    ledger = RdpLedger(grid)
    curve = rdp_curve(params, grid)
    for _ in range(T):
        ledger.compose(curve)
    return ledger.to_dp(delta)


class TestGrid:
    def test_default_grid(self):
        g = default_alpha_grid()
        assert g[0] == 1.25 and g[-1] == 64.0 and len(g) == 66

    def test_validation(self):
        with pytest.raises(ValueError):
            validate_alpha_grid([])
        with pytest.raises(ValueError):
            validate_alpha_grid([1.0, 2.0])
        with pytest.raises(ValueError):
            validate_alpha_grid([2.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            validate_alpha_grid([3.0, 2.0])


class TestCompose:
    def test_identity(self):
        ledger = RdpLedger(np.array([2.0, 4.0]), np.array([1.0, 2.0]))
        ledger.compose([0.0, 0.0])
        assert ledger.gamma.tolist() == [1.0, 2.0]
        assert ledger.rounds_composed == 1

    def test_additive(self):
        ledger = RdpLedger(np.array([2.0, 4.0]), np.array([1.0, 2.0]))
        ledger.compose([0.5, 0.5])
        assert ledger.gamma.tolist() == [1.5, 2.5]

    def test_repeated_equals_scaled(self):
        # dyadic curve values keep float addition exact
        curve = np.array([0.5, 0.25, 1.75])
        ledger = RdpLedger(np.array([2.0, 3.0, 4.0]))
        for _ in range(150):
            ledger.compose(curve)
        assert np.array_equal(ledger.gamma, 150 * curve)
        assert ledger.rounds_composed == 150

    def test_grid_mismatch(self):
        ledger = RdpLedger(np.array([2.0, 4.0]))
        with pytest.raises(ValueError):
            ledger.compose([1.0])

    def test_negative_curve_rejected(self):
        ledger = RdpLedger(np.array([2.0, 4.0]))
        with pytest.raises(ValueError):
            ledger.compose([-0.1, 0.0])

    def test_order_independent(self):
        rng = np.random.default_rng(5)
        curves = rng.uniform(0.0, 1.0, (6, 4))
        a = RdpLedger(np.array([2.0, 3.0, 4.0, 5.0]))
        b = RdpLedger(np.array([2.0, 3.0, 4.0, 5.0]))
        for c in curves:
            a.compose(c)
        for c in curves[::-1]:
            b.compose(c)
        assert np.allclose(a.gamma, b.gamma, rtol=1e-15)


class TestToDp:
    def test_zero_ledger(self):
        ledger = RdpLedger(INT_GRID)
        eps, alpha = ledger.to_dp(DELTA)
        assert alpha == 64.0
        assert eps == pytest.approx(math.log(1e5) / 63.0, rel=1e-12)

    def test_gaussian_spot(self):
        # independent script: min over 2..64 of a/2 + ln(1e5)/(a-1) = 5.302585 at a=6
        params = MechanismParams(MechanismKind.GAUSSIAN, 1.0, 1.0)
        eps, alpha = composed_epsilon(params, 1, DELTA, INT_GRID)
        assert eps == pytest.approx(5.302585092994046, abs=1e-3)
        assert alpha == 6.0

    def test_zero_scaling_argmin_at_largest_alpha(self):
        ledger = RdpLedger(INT_GRID, 0.0 * np.arange(63.0))
        assert ledger.to_dp(DELTA)[1] == 64.0

    def test_monotone_in_ledger(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            g = rng.uniform(0.0, 2.0, INT_GRID.size)
            bump = rng.uniform(0.0, 0.5, INT_GRID.size)
            eps_small, _ = RdpLedger(INT_GRID, g).to_dp(DELTA)
            eps_large, _ = RdpLedger(INT_GRID, g + bump).to_dp(DELTA)
            assert eps_large >= eps_small

    def test_delta_domain(self):
        ledger = RdpLedger(INT_GRID)
        with pytest.raises(ValueError):
            ledger.to_dp(0.0)
        with pytest.raises(ValueError):
            ledger.to_dp(1.0)


calibrated_mechanisms = st.lists(
    st.tuples(st.sampled_from(list(MechanismKind)), st.floats(0.5, 16.0), st.integers(1, 40)),
    min_size=1,
    max_size=3,
)


class TestSpend:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        mechanisms=calibrated_mechanisms,
        budget_eps=st.floats(0.5, 16.0),
        spends=st.lists(st.tuples(st.integers(0, 2), st.integers(1, 3)), min_size=1, max_size=40),
    )
    def test_property_random_spend_sequences(self, mechanisms, budget_eps, spends):
        # Curves of calibrated mechanisms, each charged 1-3 times per spend
        # (one charge per noise draw), against a budget of their own.
        grid = default_alpha_grid()
        curves = [
            rdp_curve(calibrate_noise(kind, 1.0, PrivacyBudget(eps, DELTA, horizon)).mechanism, grid)
            for kind, eps, horizon in mechanisms
        ]
        budget = PrivacyBudget(budget_eps, DELTA, 1)
        ledger = RdpLedger(grid)
        last_eps, _ = ledger.to_dp(DELTA)
        for which, draws in spends:
            gamma, composed = ledger.gamma.copy(), ledger.rounds_composed
            decision = ledger.spend(draws * curves[which % len(curves)], budget)
            eps, _ = ledger.to_dp(DELTA)
            assert eps >= last_eps
            if decision.halted:
                assert np.array_equal(ledger.gamma, gamma)
                assert ledger.rounds_composed == composed
            else:
                assert eps <= budget.epsilon
                assert ledger.rounds_composed == composed + 1
            last_eps = eps

    def test_continue_with_headroom(self):
        ledger = RdpLedger(INT_GRID)
        budget = PrivacyBudget(1.0, DELTA, 10)
        decision = ledger.spend(np.zeros(INT_GRID.size), budget)
        assert not decision.halted
        assert decision  # truthy: training may continue
        assert decision.remaining_epsilon == pytest.approx(1.0 - math.log(1e5) / 63.0, rel=1e-12)

    def test_halt_leaves_ledger_unchanged(self):
        params = MechanismParams(MechanismKind.GAUSSIAN, 1.0, 1.0)
        curve = rdp_curve(params, INT_GRID)
        ledger = RdpLedger(INT_GRID)
        budget = PrivacyBudget(6.0, DELTA, 1)
        assert not ledger.spend(curve, budget).halted
        before = ledger.gamma.copy()
        decision = ledger.spend(curve, budget)
        assert decision.halted
        assert not decision
        assert np.array_equal(ledger.gamma, before)
        assert ledger.rounds_composed == 1

    def test_calibrated_horizon_is_exact(self):
        budget = PrivacyBudget(4.0, DELTA, 50)
        result = calibrate_noise(MechanismKind.GAUSSIAN, 1.0, budget, grid=INT_GRID)
        curve = rdp_curve(result.mechanism, INT_GRID)
        ledger = RdpLedger(INT_GRID)
        for _ in range(50):
            assert not ledger.spend(curve, budget).halted
        assert ledger.spend(curve, budget).halted

    def test_spend_at_the_boundary(self):
        # a halt leaves the same, unmodified array; a commit replaces it and
        # leaves the old array intact as a snapshot
        params = MechanismParams(MechanismKind.GAUSSIAN, 1.0, 1.0)
        curve = rdp_curve(params, INT_GRID)
        start = np.random.default_rng(3).uniform(0.0, 0.5, INT_GRID.size)
        eps_after, _ = RdpLedger(INT_GRID, start + curve).to_dp(DELTA)
        for eps, affordable in [
            (eps_after * (1.0 - 1e-9), False),
            (eps_after, True),
            (eps_after * (1.0 + 1e-9), True),
        ]:
            budget = PrivacyBudget(eps, DELTA, 1)
            ledger = RdpLedger(INT_GRID, start.copy())
            gamma = ledger.gamma
            assert ledger.spend(curve, budget).halted is not affordable
            assert np.array_equal(gamma, start)
            if affordable:
                assert ledger.gamma is not gamma
                assert np.array_equal(ledger.gamma, start + curve)
                assert ledger.rounds_composed == 1
            else:
                assert ledger.gamma is gamma
                assert ledger.rounds_composed == 0

    def test_spend_checks_the_curve(self):
        ledger = RdpLedger(np.array([2.0, 4.0]))
        budget = PrivacyBudget(1.0, DELTA, 1)
        with pytest.raises(ValueError):
            ledger.spend([1.0], budget)
        with pytest.raises(ValueError):
            ledger.spend([-0.1, 0.0], budget)
        assert np.array_equal(ledger.gamma, np.zeros(2))
        assert ledger.rounds_composed == 0


class TestCalibration:
    def test_gaussian_spot_inverse(self):
        budget = PrivacyBudget(5.3026, DELTA, 1)
        result = calibrate_noise(MechanismKind.GAUSSIAN, 1.0, budget, grid=INT_GRID, tolerance=1e-5)
        assert result.mechanism.scale == pytest.approx(1.0, abs=1e-4)
        assert result.minimizing_alpha == 6.0
        assert result.achieved_epsilon <= 5.3026

    def test_doubling_horizon_increases_noise(self):
        s1 = calibrate_noise(MechanismKind.GAUSSIAN, 1.0, PrivacyBudget(2.0, DELTA, 50)).mechanism.scale
        s2 = calibrate_noise(MechanismKind.GAUSSIAN, 1.0, PrivacyBudget(2.0, DELTA, 100)).mechanism.scale
        assert s2 > s1

    @pytest.mark.parametrize("kind", list(MechanismKind))
    @pytest.mark.parametrize("eps_mid", [2.0, 8.0])
    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(
        eps_factor=st.floats(0.25, 2.0),
        delta=st.floats(1e-9, 1e-3),
        horizon=st.integers(1, 500),
        sensitivity=st.floats(0.05, 20.0),
    )
    def test_round_trip_minimality(self, kind, eps_mid, eps_factor, delta, horizon, sensitivity):
        # Every kind, and budgets eps in [0.5, 4] and [2, 16] around the two
        # anchors, at any delta, horizon and sensitivity.
        eps = eps_mid * eps_factor
        tol = 1e-4
        budget = PrivacyBudget(eps, delta, horizon)
        result = calibrate_noise(kind, sensitivity, budget, tolerance=tol)
        grid = default_alpha_grid()
        assert composed_epsilon(result.mechanism, horizon, delta, grid)[0] <= eps
        # one tolerance step toward less noise violates the target
        if kind is MechanismKind.STAIRCASE:
            lam = result.mechanism.scale * (1.0 + tol)
            worse = MechanismParams(kind, sensitivity, lam, nu=optimal_staircase_nu(lam))
        else:
            worse = MechanismParams(kind, sensitivity, result.mechanism.scale / (1.0 + tol))
        assert composed_epsilon(worse, horizon, delta, grid)[0] > eps

    @pytest.mark.parametrize("kind", list(MechanismKind))
    def test_loose_budget_returns_the_knob_floor(self, kind):
        # The least-noise knob already meets the budget: no bisection, and
        # only the two bracket ends are evaluated.
        budget = PrivacyBudget(1e9, DELTA, 1)
        result = calibrate_noise(kind, 1.0, budget)
        floor = 1.0 / KNOB_BOUNDS[0] if kind is MechanismKind.STAIRCASE else KNOB_BOUNDS[0]
        assert result.mechanism.scale == pytest.approx(floor, rel=1e-12)
        assert result.achieved_epsilon <= budget.epsilon
        assert result.iterations == 2

    def test_staircase_nu_pinned_to_optimum(self):
        result = calibrate_noise(MechanismKind.STAIRCASE, 1.0, PrivacyBudget(8.0, DELTA, 10))
        assert result.mechanism.nu == pytest.approx(optimal_staircase_nu(result.mechanism.scale), rel=1e-12)

    def test_infeasible_budget_raises(self):
        # epsilon below the conversion floor log(1/delta)/(alpha_max - 1)
        with pytest.raises(InfeasibleBudgetError):
            calibrate_noise(MechanismKind.GAUSSIAN, 1.0, PrivacyBudget(0.1, DELTA, 1))

    def test_epsilon_monotone_in_knob(self):
        # bisection premise: composed epsilon strictly decreasing in the knob
        budgetless_grid = default_alpha_grid()
        for kind in MechanismKind:
            knobs = np.logspace(-2, 3, 24)
            eps = []
            for knob in knobs:
                if kind is MechanismKind.STAIRCASE:
                    lam = 1.0 / knob
                    params = MechanismParams(kind, 1.0, lam, nu=optimal_staircase_nu(lam))
                else:
                    params = MechanismParams(kind, 1.0, knob)
                eps.append(composed_epsilon(params, 25, DELTA, budgetless_grid)[0])
            assert all(b < a for a, b in zip(eps, eps[1:])), kind


class TestShuffleBounds:
    def test_zero_gamma(self):
        for alpha in (2, 3, 8):
            assert shuffle_amplify_upper(0.0, alpha, 5) == 0.0
            assert shuffle_amplify_lower(0.0, alpha, 5) == 0.0

    def test_spot_values(self):
        # C(2,2)=1; upper: log(1 + 4*(e^ln2 - 1)^2 / 4) = log 2
        assert shuffle_amplify_upper(math.log(2.0), 2, 4) == pytest.approx(math.log(2.0), abs=1e-9)
        # lower: log(1 + (e^ln2 - 1)^2 / (4 e^ln2)) = log(1.125)
        assert shuffle_amplify_lower(math.log(2.0), 2, 4) == pytest.approx(math.log(1.125), abs=1e-9)

    def test_quadrupling_clients(self):
        g = 0.7
        base = math.expm1(shuffle_amplify_upper(g, 2, 100) * 1.0)  # log arg excess, alpha=2
        quad = math.expm1(shuffle_amplify_upper(g, 2, 400) * 1.0)
        assert base / quad == pytest.approx(4.0, rel=1e-9)

    def test_sandwich_ordering(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            g = rng.uniform(0.0, 3.0)
            alpha = int(rng.integers(2, 12))
            n = int(rng.integers(1, 10_000))
            lo = shuffle_amplify_lower(g, alpha, n)
            hi = shuffle_amplify_upper(g, alpha, n)
            assert 0.0 <= lo <= hi

    def test_vanishes_with_many_clients(self):
        assert shuffle_amplify_upper(1.0, 2, 10**8) < 1e-6
        assert shuffle_amplify_lower(1.0, 2, 10**8) < 1e-6

    def test_non_integer_alpha_rejected(self):
        with pytest.raises(ValueError):
            shuffle_amplify_upper(1.0, 2.5, 10)
        with pytest.raises(ValueError):
            shuffle_amplify_lower(1.0, 1, 10)

    def test_pure_dp_feeds_the_bounds(self):
        params = MechanismParams(MechanismKind.LAPLACE, 1.0, 2.0)
        g = pure_dp_epsilon(params)
        assert shuffle_amplify_upper(g, 2, 50) < g  # amplification helps at this size


class TestRefusalInvariant:
    def test_reported_epsilon_never_undershoots(self):
        # recompute the conversion from raw composed gammas; to_dp must match
        rng = np.random.default_rng(21)
        grid = default_alpha_grid()
        params = MechanismParams(MechanismKind.LAPLACE, 1.0, rng.uniform(1.0, 5.0))
        ledger = RdpLedger(grid)
        curve = rdp_curve(params, grid)
        for t in range(1, 30):
            ledger.compose(curve)
            eps, _ = ledger.to_dp(DELTA)
            truth = min(
                t * rdp(params, a) + math.log(1e5) / (a - 1.0) for a in grid
            )
            assert eps >= truth - 1e-12
