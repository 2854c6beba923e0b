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
from oracles import cumulative_epsilon, rdp_parent, sequential_spend

INT_GRID = np.arange(2.0, 65.0)
DELTA = 1e-5
UNBOUNDED = PrivacyBudget(math.inf, DELTA, 1)


def one_row(grid, curve=None, budget=UNBOUNDED, gamma=None):
    """A one-row ledger charging ``curve`` (zero by default) against
    ``budget``, its composed row set to ``gamma`` (a ledger starts at zero)."""
    grid = np.asarray(grid, dtype=float)
    curve = np.zeros_like(grid) if curve is None else curve
    ledger = RdpLedger(grid, [curve], [budget])
    if gamma is not None:
        ledger.gamma = np.array([gamma], dtype=float)
    return ledger


def composed_epsilon(params, T, delta, grid):
    ledger = one_row(grid, rdp_curve(params, grid), PrivacyBudget(math.inf, delta, T))
    for _ in range(T):
        ledger.spend([1])
    (eps,), (alpha,) = ledger.to_dp()
    return eps, alpha


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


class TestBudget:
    @pytest.mark.parametrize("epsilon", [0.0, -1.0, math.nan])
    def test_epsilon_must_be_positive(self, epsilon):
        with pytest.raises(ValueError, match=f"^budget epsilon must be positive, got {epsilon}$"):
            PrivacyBudget(epsilon, DELTA, 1)

    @pytest.mark.parametrize("horizon", [0, -3, 1.5])
    def test_horizon_must_be_a_positive_integer(self, horizon):
        with pytest.raises(ValueError, match=f"^horizon_T must be a positive integer, got {horizon}$"):
            PrivacyBudget(1.0, DELTA, horizon)


class TestCompose:
    def test_identity(self):
        ledger = one_row(np.array([2.0, 4.0]), [0.0, 0.0], gamma=[1.0, 2.0])
        ledger.spend([1])
        assert ledger.gamma.tolist() == [[1.0, 2.0]]
        assert ledger.rounds_composed.tolist() == [1]

    def test_additive(self):
        ledger = one_row(np.array([2.0, 4.0]), [0.5, 0.5], gamma=[1.0, 2.0])
        ledger.spend([1])
        assert ledger.gamma.tolist() == [[1.5, 2.5]]

    def test_repeated_equals_scaled(self):
        # dyadic curve values keep float addition exact
        curve = np.array([0.5, 0.25, 1.75])
        ledger = one_row(np.array([2.0, 3.0, 4.0]), curve)
        for _ in range(150):
            ledger.spend([1])
        assert np.array_equal(ledger.gamma[0], 150 * curve)
        assert ledger.rounds_composed.tolist() == [150]

    def test_grid_mismatch(self):
        with pytest.raises(ValueError):
            one_row(np.array([2.0, 4.0]), [1.0])

    def test_negative_curve_rejected(self):
        with pytest.raises(ValueError):
            one_row(np.array([2.0, 4.0]), [-0.1, 0.0])

    def test_order_independent(self):
        # Rounds of charges, composed in one order and in the reverse one.
        rng = np.random.default_rng(5)
        grid = np.array([2.0, 3.0, 4.0, 5.0])
        curves = rng.uniform(0.0, 1.0, (3, 4))
        rounds = rng.integers(0, 4, (6, 3))
        a = RdpLedger(grid, curves, [UNBOUNDED] * 3)
        b = RdpLedger(grid, curves, [UNBOUNDED] * 3)
        for draws in rounds:
            a.spend(draws)
        for draws in rounds[::-1]:
            b.spend(draws)
        assert np.allclose(a.gamma, b.gamma, rtol=1e-15)
        assert np.array_equal(a.rounds_composed, b.rounds_composed)


class TestLedgerSetUp:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_curve_rejected(self, bad):
        with pytest.raises(ValueError, match="curve"):
            one_row(np.array([2.0, 4.0]), [bad, 0.0])

    def test_one_budget_and_one_gamma_row_per_curve(self):
        grid = np.array([2.0, 4.0])
        with pytest.raises(ValueError):
            RdpLedger(grid, np.zeros((2, 2)), [UNBOUNDED])
        with pytest.raises(ValueError):
            RdpLedger(grid, np.zeros((0, 2)), [])


class TestToDp:
    def test_zero_ledger(self):
        (eps,), (alpha,) = one_row(INT_GRID).to_dp()
        assert alpha == 64.0
        assert eps == pytest.approx(math.log(1e5) / 63.0, rel=1e-12)

    def test_gaussian_spot(self):
        # independent script: min over 2..64 of a/2 + ln(1e5)/(a-1) = 5.302585 at a=6
        params = MechanismParams(MechanismKind.GAUSSIAN, 1.0, 1.0)
        eps, alpha = composed_epsilon(params, 1, DELTA, INT_GRID)
        assert eps == pytest.approx(5.302585092994046, abs=1e-3)
        assert alpha == 6.0

    def test_zero_scaling_argmin_at_largest_alpha(self):
        ledger = one_row(INT_GRID, gamma=0.0 * np.arange(63.0))
        assert ledger.to_dp()[1][0] == 64.0

    def test_monotone_in_ledger(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            g = rng.uniform(0.0, 2.0, INT_GRID.size)
            bump = rng.uniform(0.0, 0.5, INT_GRID.size)
            eps_small = one_row(INT_GRID, gamma=g).to_dp()[0][0]
            eps_large = one_row(INT_GRID, gamma=g + bump).to_dp()[0][0]
            assert eps_large >= eps_small

    def test_delta_domain(self):
        # Each row converts at its own budget's delta, which lies in (0, 1).
        for delta in (0.0, 1.0):
            with pytest.raises(ValueError):
                one_row(INT_GRID, budget=PrivacyBudget(1.0, delta, 1))
        ledger = RdpLedger(INT_GRID, np.zeros((2, 63)), [UNBOUNDED, PrivacyBudget(math.inf, 1e-3, 1)])
        eps, alpha = ledger.to_dp()
        assert eps.tolist() == pytest.approx([math.log(1e5) / 63.0, math.log(1e3) / 63.0], rel=1e-12)
        assert alpha.tolist() == [64.0, 64.0]


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
        # One row per calibrated mechanism, each spend charging one row 1-3
        # times (one charge per noise draw), against a budget of their own.
        grid = default_alpha_grid()
        curves = [
            rdp_curve(calibrate_noise(kind, 1.0, PrivacyBudget(eps, DELTA, horizon)).mechanism, grid)
            for kind, eps, horizon in mechanisms
        ]
        budget = PrivacyBudget(budget_eps, DELTA, 1)
        ledger = RdpLedger(grid, curves, [budget] * len(curves))
        last_eps, _ = ledger.to_dp()
        for which, draws in spends:
            row = which % len(curves)
            charge = np.zeros(len(curves), dtype=int)
            charge[row] = draws
            gamma, composed = ledger.gamma.copy(), ledger.rounds_composed.copy()
            decision = ledger.spend(charge)
            eps, _ = ledger.to_dp()
            assert np.all(eps >= last_eps)
            if decision.halted:
                assert decision.row == row
                assert np.array_equal(ledger.gamma, gamma)
                assert np.array_equal(ledger.rounds_composed, composed)
            else:
                assert np.all(eps <= budget.epsilon)
                assert np.array_equal(ledger.rounds_composed, composed + (charge > 0))
            last_eps = eps

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(
        rows=st.lists(
            st.tuples(st.sampled_from(list(MechanismKind)), st.floats(0.3, 8.0), st.floats(0.5, 16.0)),
            min_size=1,
            max_size=4,
        ),
        rounds=st.lists(st.lists(st.integers(0, 3), min_size=4, max_size=4), min_size=1, max_size=30),
    )
    def test_property_one_step_matches_sequential_spends(self, rows, rounds):
        # The all-or-nothing spend of a round's draws against charging one
        # row at a time in row order, restoring the round's rows on a halt.
        grid = default_alpha_grid()
        curves = []
        for kind, scale, _ in rows:
            nu = optimal_staircase_nu(scale) if kind is MechanismKind.STAIRCASE else None
            curves.append(rdp_curve(MechanismParams(kind, 1.0, scale, nu=nu), grid))
        budgets = [PrivacyBudget(eps, DELTA, 1) for _, _, eps in rows]
        ledger = RdpLedger(grid, curves, budgets)
        gamma, composed = ledger.gamma.copy(), ledger.rounds_composed.copy()
        for draws in rounds:
            draws = np.array(draws[: len(rows)])
            decision = ledger.spend(draws)
            gamma, composed, halting = sequential_spend(gamma, composed, curves, budgets, grid, draws)
            assert np.array_equal(ledger.gamma, gamma)
            assert np.array_equal(ledger.rounds_composed, composed)
            assert decision.halted == (halting is not None)
            assert decision.row == halting
            assert ledger.to_dp()[0].max() == cumulative_epsilon(gamma, budgets, grid)

    def test_continue_with_headroom(self):
        ledger = one_row(INT_GRID, budget=PrivacyBudget(1.0, DELTA, 10))
        decision = ledger.spend([1])
        assert not decision.halted
        assert 1.0 - ledger.to_dp()[0][0] == pytest.approx(1.0 - math.log(1e5) / 63.0, rel=1e-12)

    def test_halt_leaves_ledger_unchanged(self):
        params = MechanismParams(MechanismKind.GAUSSIAN, 1.0, 1.0)
        curve = rdp_curve(params, INT_GRID)
        ledger = one_row(INT_GRID, curve, PrivacyBudget(6.0, DELTA, 1))
        assert not ledger.spend([1]).halted
        before = ledger.gamma.copy()
        decision = ledger.spend([1])
        assert decision.halted
        assert decision.row == 0
        assert np.array_equal(ledger.gamma, before)
        assert ledger.rounds_composed.tolist() == [1]

    def test_halt_names_the_first_row_over_budget_and_commits_no_row(self):
        params = MechanismParams(MechanismKind.GAUSSIAN, 1.0, 1.0)
        curve = rdp_curve(params, INT_GRID)
        tight, loose = PrivacyBudget(6.0, DELTA, 1), PrivacyBudget(100.0, DELTA, 1)
        ledger = RdpLedger(INT_GRID, [curve] * 4, [loose, tight, loose, tight])
        assert not ledger.spend([1, 1, 1, 1]).halted
        gamma = ledger.gamma
        decision = ledger.spend([1, 1, 1, 1])
        assert decision.halted and decision.row == 1
        assert ledger.gamma is gamma
        assert ledger.rounds_composed.tolist() == [1, 1, 1, 1]
        # Only charged rows count a round.
        assert not ledger.spend([2, 0, 1, 0]).halted
        assert ledger.rounds_composed.tolist() == [2, 1, 2, 1]
        assert np.array_equal(ledger.gamma[1], gamma[1])

    def test_calibrated_horizon_is_exact(self):
        budget = PrivacyBudget(4.0, DELTA, 50)
        result = calibrate_noise(MechanismKind.GAUSSIAN, 1.0, budget)
        grid = default_alpha_grid()
        ledger = one_row(grid, rdp_curve(result.mechanism, grid), budget)
        for _ in range(50):
            assert not ledger.spend([1]).halted
        assert ledger.spend([1]).halted

    def test_spend_at_the_boundary(self):
        # a halt leaves the same, unmodified array; a commit replaces it and
        # leaves the old array intact as a snapshot
        params = MechanismParams(MechanismKind.GAUSSIAN, 1.0, 1.0)
        curve = rdp_curve(params, INT_GRID)
        start = np.random.default_rng(3).uniform(0.0, 0.5, INT_GRID.size)
        eps_after = one_row(INT_GRID, gamma=start + curve).to_dp()[0][0]
        for eps, affordable in [
            (eps_after * (1.0 - 1e-9), False),
            (eps_after, True),
            (eps_after * (1.0 + 1e-9), True),
        ]:
            budget = PrivacyBudget(eps, DELTA, 1)
            ledger = one_row(INT_GRID, curve, budget, gamma=start.copy())
            gamma = ledger.gamma
            assert ledger.spend([1]).halted is not affordable
            assert np.array_equal(gamma[0], start)
            if affordable:
                assert ledger.gamma is not gamma
                assert np.array_equal(ledger.gamma[0], start + curve)
                assert ledger.rounds_composed.tolist() == [1]
            else:
                assert ledger.gamma is gamma
                assert ledger.rounds_composed.tolist() == [0]

    def test_spend_checks_the_draws(self):
        ledger = RdpLedger(np.array([2.0, 4.0]), np.ones((2, 2)), [PrivacyBudget(1.0, DELTA, 1)] * 2)
        for bad in ([1], [1, 1, 1], [-1, 0], [0.5, 0.0]):
            with pytest.raises(ValueError):
                ledger.spend(bad)
        assert np.array_equal(ledger.gamma, np.zeros((2, 2)))
        assert ledger.rounds_composed.tolist() == [0, 0]


class TestCalibration:
    def test_gaussian_spot_inverse(self):
        budget = PrivacyBudget(5.3026, DELTA, 1)
        result = calibrate_noise(MechanismKind.GAUSSIAN, 1.0, budget, tolerance=1e-5)
        assert result.mechanism.scale == pytest.approx(1.0, abs=1e-4)
        assert result.minimizing_alpha == 6.0
        assert result.achieved_epsilon <= 5.3026

    @pytest.mark.parametrize("tolerance", [math.nan, 0.0, -1e-4])
    def test_tolerance_must_be_positive(self, tolerance):
        with pytest.raises(ValueError, match=f"^tolerance must be positive, got {tolerance}$"):
            calibrate_noise(MechanismKind.GAUSSIAN, 1.0, PrivacyBudget(1.0, DELTA, 1), tolerance=tolerance)

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

    @pytest.mark.parametrize("kind", list(MechanismKind))
    def test_infinite_epsilon_rejected(self, kind):
        # No noise scale answers epsilon = inf; the knob floor is not one.
        with pytest.raises(ValueError, match="^calibration needs a finite budget epsilon, got inf$"):
            calibrate_noise(kind, 1.0, PrivacyBudget(math.inf, DELTA, 5))

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


    def test_bisection_matches_the_per_order_parent(self, monkeypatch):
        # A flipped bisection step would move a calibrated scale, and with it
        # the CSV bytes, so each scale must be the one the per-order curves
        # of the parent pick, bit for bit.
        def calibrate_all():
            return [
                calibrate_noise(kind, 1.0, PrivacyBudget(eps, DELTA, horizon))
                for kind in MechanismKind
                for eps in (0.5, 2.0, 8.0, 32.0)
                for horizon in (1, 15, 300)
            ]

        got = calibrate_all()
        orders = []

        def per_order(params, grid):
            orders.append(len(grid))
            return np.array([rdp_parent(params, a) for a in grid])

        monkeypatch.setattr("dpfed.accountant.rdp_curve", per_order)
        want = calibrate_all()
        assert orders and set(orders) == {default_alpha_grid().size}
        for g, w in zip(got, want, strict=True):
            assert (g.mechanism.scale, g.mechanism.nu, g.iterations) == (w.mechanism.scale, w.mechanism.nu, w.iterations)
            assert g.achieved_epsilon == pytest.approx(w.achieved_epsilon, rel=1e-13)


class TestStaircaseNu:
    @pytest.mark.parametrize("lam", [0.0, -1.0, math.inf, math.nan])
    def test_lam_must_be_positive_and_finite(self, lam):
        # An infinite lam would give the clamp's 1e-300, not a band fraction.
        with pytest.raises(ValueError, match=f"^lam must be positive, got {lam}$"):
            optimal_staircase_nu(lam)


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

    @pytest.mark.parametrize("bound", [shuffle_amplify_upper, shuffle_amplify_lower])
    def test_negative_gamma_and_no_clients_rejected(self, bound):
        with pytest.raises(ValueError, match="^gamma must be non-negative, got -0.5$"):
            bound(-0.5, 2, 10)
        with pytest.raises(ValueError, match="^n_clients must be positive, got 0$"):
            bound(1.0, 2, 0)

    @pytest.mark.parametrize("bound", [shuffle_amplify_upper, shuffle_amplify_lower])
    def test_vacuous_beyond_gamma_350(self, bound):
        assert bound(350.5, 2, 10) == math.inf
        assert math.isfinite(bound(350.0, 2, 10**6))

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
        ledger = one_row(grid, rdp_curve(params, grid))
        for t in range(1, 30):
            ledger.spend([1])
            (eps,), _ = ledger.to_dp()
            truth = min(
                t * rdp(params, a) + math.log(1e5) / (a - 1.0) for a in grid
            )
            assert eps >= truth - 1e-12
