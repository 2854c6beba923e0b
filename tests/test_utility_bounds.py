import math

import numpy as np
import pytest

from dpfed.mechanisms import (
    MechanismKind,
    MechanismParams,
    NoiseStream,
    expected_abs_noise,
    sample_noise_array,
)
from dpfed.utility_bounds import l1_bound, optimal_nu


def mc_abs_mean(params, n=1_000_000, seed=77):
    return float(np.abs(sample_noise_array(params, NoiseStream(seed, purpose="mc"), n)).mean())


class TestGaussianBound:
    def test_small_sigma_limit(self):
        q = (MechanismParams(MechanismKind.GAUSSIAN, 1.0, 1e-12), 3, 5)
        assert l1_bound(*q) < 1e-10

    def test_unit_spot(self):
        q = (MechanismParams(MechanismKind.GAUSSIAN, 1.0, 1.0), 1, 1)
        want = math.sqrt(2.0 / math.pi)
        assert l1_bound(*q) == pytest.approx(want, rel=1e-12)
        assert l1_bound(*q) == pytest.approx(
            mc_abs_mean(MechanismParams(MechanismKind.GAUSSIAN, 1.0, 1.0)), rel=0.01
        )

    def test_linear_in_m_and_T(self):
        p = MechanismParams(MechanismKind.GAUSSIAN, 1.0, 2.0)
        base = l1_bound(p, 1, 1)
        assert l1_bound(p, 7, 1) == pytest.approx(7 * base, rel=1e-12)
        assert l1_bound(p, 1, 13) == pytest.approx(13 * base, rel=1e-12)


class TestLaplaceBound:
    def test_values(self):
        p = MechanismParams(MechanismKind.LAPLACE, 1.0, 0.5)
        assert l1_bound(p, 2, 3) == 3.0
        tiny = MechanismParams(MechanismKind.LAPLACE, 1.0, 1e-12)
        assert l1_bound(tiny, 5, 5) < 1e-9

    def test_matches_sampling(self):
        p = MechanismParams(MechanismKind.LAPLACE, 1.0, 1.7)
        got = l1_bound(p, 4, 9)
        assert got == pytest.approx(4 * 9 * mc_abs_mean(p), rel=0.01)


class TestStaircaseBound:
    def test_numeric_matches_lemma_at_optimal_nu(self):
        lam = 2.0
        nu, per_delta = optimal_nu(lam)
        p = MechanismParams(MechanismKind.STAIRCASE, 1.0, lam, nu=nu)
        got = l1_bound(p, 3, 7, mode="numeric")
        assert got == pytest.approx(3 * 7 * per_delta, abs=1e-9)

    def test_numeric_spot_and_sampling(self):
        lam = 2.0
        nu = 1.0 / (1.0 + math.e)
        p = MechanismParams(MechanismKind.STAIRCASE, 1.0, lam, nu=nu)
        want = math.e / (math.e**2 - 1.0)
        q = (p, 1, 1)
        assert l1_bound(*q) == pytest.approx(want, rel=1e-9)
        assert l1_bound(*q) == pytest.approx(mc_abs_mean(p), rel=0.01)

    def test_as_published_reported_not_asserted_equal(self):
        p = MechanismParams(MechanismKind.STAIRCASE, 1.0, 1.3, nu=0.4)
        q = (p, 2, 5)
        published = l1_bound(*q, mode="as_published")
        numeric = l1_bound(*q, mode="numeric")
        # both computable and positive; the discrepancy is reported, never forced to zero
        assert published > 0 and numeric > 0
        lam, nu, d = 1.3, 0.4, 1.0
        e = math.exp(-lam)
        want = 2 * 5 / (1 - e) * (nu**2 * d**2 + e * d**2 - e * nu**2 * d**2 + d * e)
        assert published == pytest.approx(want, rel=1e-12)

    def test_mode_validation(self):
        for kind in MechanismKind:
            p = MechanismParams(kind, 1.0, 1.0, nu=0.5 if kind is MechanismKind.STAIRCASE else None)
            with pytest.raises(ValueError, match="mode must be one of"):
                l1_bound(p, 1, 1, mode="wrong")

    def test_linearity(self):
        p = MechanismParams(MechanismKind.STAIRCASE, 1.0, 0.8, nu=0.3)
        base = l1_bound(p, 1, 1)
        rng = np.random.default_rng(4)
        for _ in range(5):
            m, t = int(rng.integers(1, 50)), int(rng.integers(1, 50))
            assert l1_bound(p, m, t) == pytest.approx(m * t * base, rel=1e-12)


class TestOneBound:
    @pytest.mark.parametrize(
        "params",
        [
            MechanismParams(MechanismKind.GAUSSIAN, 1.0, 1.3),
            MechanismParams(MechanismKind.LAPLACE, 0.5, 2.1),
            MechanismParams(MechanismKind.STAIRCASE, 1.0, 1.3, nu=0.4),
        ],
    )
    def test_numeric_is_m_T_times_the_expected_amplitude(self, params):
        assert l1_bound(params, 4, 9) == 4 * 9 * expected_abs_noise(params)

    @pytest.mark.parametrize(
        "m, t, message",
        [
            (0, 1, "loss_length_m must be a positive integer, got 0"),
            (2.0, 1, "loss_length_m must be a positive integer, got 2.0"),
            (1, -3, "rounds_T must be a positive integer, got -3"),
            (1, 1.5, "rounds_T must be a positive integer, got 1.5"),
        ],
    )
    def test_m_and_T_must_be_positive_integers(self, m, t, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            l1_bound(MechanismParams(MechanismKind.LAPLACE, 1.0, 1.0), m, t)

    @pytest.mark.parametrize("kind", [MechanismKind.GAUSSIAN, MechanismKind.LAPLACE])
    def test_other_kinds_have_one_form(self, kind):
        q = (MechanismParams(kind, 1.0, 0.7), 3, 5)
        assert l1_bound(*q, mode="as_published") == l1_bound(*q, mode="numeric")


class TestOptimalNu:
    def test_small_lambda_limit(self):
        nu, _ = optimal_nu(1e-9)
        assert nu == pytest.approx(0.5, abs=1e-9)

    def test_spot(self):
        nu, amp = optimal_nu(2.0)
        assert nu == pytest.approx(0.2689414213699951, rel=1e-12)
        assert amp == pytest.approx(math.e / (math.e**2 - 1.0), rel=1e-12)

    @pytest.mark.parametrize("lam", [0.0, -1.0, math.inf, math.nan])
    def test_domain(self, lam):
        # The Staircase nu rule's own guard refuses these.
        with pytest.raises(ValueError, match=f"^lam must be positive, got {lam}$"):
            optimal_nu(lam)

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0, 4.0])
    def test_argmin_against_nu_grid(self, lam):
        nu_star, _ = optimal_nu(lam)
        star = expected_abs_noise(MechanismParams(MechanismKind.STAIRCASE, 1.0, lam, nu=nu_star))
        grid = np.linspace(0.005, 0.995, 101)
        best_on_grid = min(
            expected_abs_noise(MechanismParams(MechanismKind.STAIRCASE, 1.0, lam, nu=float(v)))
            for v in grid
        )
        assert star <= best_on_grid + 1e-12
        # and the neighborhood check from the contract
        for off in (-0.05, 0.05):
            v = min(max(nu_star + off, 1e-6), 1 - 1e-6)
            assert star <= expected_abs_noise(
                MechanismParams(MechanismKind.STAIRCASE, 1.0, lam, nu=v)
            ) + 1e-12
