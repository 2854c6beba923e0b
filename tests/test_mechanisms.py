import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpfed.accountant import default_alpha_grid
from dpfed.cli import _RULES, _apply_rule
from dpfed.mechanisms import (
    MechanismKind,
    MechanismParams,
    NoiseStream,
    NoiseTable,
    density,
    density_as_published,
    expected_abs_noise,
    rdp,
    rdp_as_published,
    sample_noise_array,
)
from oracles import (
    gaussian_logpdf,
    integrated_density_cdf,
    laplace_logpdf,
    rdp_parent,
    renyi_divergence_quad,
    staircase_band_edges_and_cdf,
    staircase_knots,
    staircase_logpdf,
    staircase_sample_parent,
    ks_statistic,
)


def gauss(sigma, delta=1.0):
    return MechanismParams(MechanismKind.GAUSSIAN, delta, sigma)


def lap(b, delta=1.0):
    return MechanismParams(MechanismKind.LAPLACE, delta, b)


def stair(lam, nu, delta=1.0):
    return MechanismParams(MechanismKind.STAIRCASE, delta, lam, nu=nu)


def quad_window(params, alpha):
    """Integration window wide enough for < 1e-10 truncation of the oracle."""
    if params.kind is MechanismKind.GAUSSIAN:
        w = abs(1.0 - alpha) * params.sensitivity + 14.0 * params.scale
    elif params.kind is MechanismKind.LAPLACE:
        w = (alpha + 2.0) * params.sensitivity + 60.0 * params.scale
    else:
        bands = (alpha - 1.0) + 40.0 / params.scale + 4.0
        w = bands * params.sensitivity
    return -w, w + params.sensitivity


def rdp_oracle(params, alpha):
    lo, hi = quad_window(params, alpha)
    if params.kind is MechanismKind.GAUSSIAN:
        logpdf, knots = gaussian_logpdf(params.scale), ()
    elif params.kind is MechanismKind.LAPLACE:
        logpdf, knots = laplace_logpdf(params.scale), ()
    else:
        logpdf = staircase_logpdf(params.sensitivity, params.scale, params.nu)
        knots = staircase_knots(params.sensitivity, params.nu, lo, hi)
    return renyi_divergence_quad(logpdf, params.sensitivity, alpha, lo, hi, knots)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            MechanismParams(MechanismKind.GAUSSIAN, -1.0, 1.0)
        with pytest.raises(ValueError):
            MechanismParams(MechanismKind.LAPLACE, 1.0, 0.0)
        with pytest.raises(ValueError):
            MechanismParams(MechanismKind.STAIRCASE, 1.0, 1.0)  # nu missing
        with pytest.raises(ValueError):
            MechanismParams(MechanismKind.STAIRCASE, 1.0, 1.0, nu=1.0)

    @pytest.mark.parametrize("round_index, client_index", [(-1, 0), (0, -1)])
    def test_stream_indices_must_be_non_negative(self, round_index, client_index):
        with pytest.raises(ValueError, match="^round and client indices must be non-negative$"):
            NoiseStream(1, round_index, client_index, "t")

    def test_nu_ignored_for_non_staircase(self):
        p = MechanismParams(MechanismKind.GAUSSIAN, 1.0, 1.0, nu=0.3)
        assert p.nu is None

    def test_kind_parse(self):
        # Names are read by the config's mechanism rule, the one rule for every route.
        assert MechanismKind(_apply_rule(_RULES["mechanism"], " Staircase ")) is MechanismKind.STAIRCASE
        with pytest.raises(ValueError):
            _apply_rule(_RULES["mechanism"], "exponential")


class TestDensity:
    def test_gaussian_at_zero(self):
        # standard normal density at 0, high-precision reference 1/sqrt(2 pi)
        assert density(gauss(1.0), 0.0) == pytest.approx(0.3989422804014327, abs=1e-12)

    def test_staircase_normalizes(self):
        p = stair(1.0, 0.5)
        x, cdf = staircase_band_edges_and_cdf(lambda v: density(p, v), 1.0, 0.5)
        assert cdf[-1] == pytest.approx(1.0, abs=1e-6)

    def test_staircase_shift_ratio(self):
        # f(x + Delta) = e^-lam f(x) for x >= 0
        p = stair(1.0, 0.5)
        for x in np.linspace(0.0, 7.3, 40):
            assert density(p, x + 1.0) / density(p, x) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_non_finite_input_rejected(self):
        with pytest.raises(ValueError):
            density(gauss(1.0), math.nan)
        with pytest.raises(ValueError):
            density(stair(1.0, 0.5), math.inf)

    @pytest.mark.parametrize("params", [gauss(0.7), lap(1.3), stair(0.9, 0.3), stair(2.0, 0.7, delta=1.5)])
    def test_unit_mass(self, params):
        # window covering >= 1 - 1e-9 of the mass, integrated to 1e-6
        if params.kind is MechanismKind.STAIRCASE:
            x, cdf = staircase_band_edges_and_cdf(
                lambda v: density(params, v), params.sensitivity, params.nu, tail_mass=1e-10
            )
            total = cdf[-1] - cdf[0]
        else:
            from scipy import integrate

            w = 50.0 * params.scale
            total, _ = integrate.quad(lambda v: density(params, v), -w, w, limit=200)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_likelihood_ratio_bounded(self):
        for lam, nu in [(0.5, 0.3), (1.0, 0.5), (2.0, 0.8)]:
            p = stair(lam, nu)
            xs = np.linspace(-6.0, 6.0, 4001)
            ratio = density(p, xs) / density(p, xs - 1.0)
            assert ratio.max() <= math.exp(lam) + 1e-9

    def test_as_published_mode_differs(self):
        p = stair(2.0, 0.5)
        published = density_as_published(p, 0.2)
        corrected = density(p, 0.2)
        # ratio is exactly (1 - e^-1) / (1 - e^-lam)
        assert published / corrected == pytest.approx((1 - math.exp(-1)) / (1 - math.exp(-2)), rel=1e-12)
        # identical for the other mechanisms
        assert density_as_published(gauss(1.0), 0.3) == density(gauss(1.0), 0.3)

    @pytest.mark.parametrize("x", [math.inf, math.nan, np.array([0.0, -math.inf])])
    def test_as_published_rejects_non_finite_input(self, x):
        with pytest.raises(ValueError, match="^density input must be finite$"):
            density_as_published(stair(1.0, 0.5), x)


class TestSampling:
    def test_gaussian_mean(self):
        xs = sample_noise_array(gauss(1.0), NoiseStream(7, purpose="t"), 1_000_000)
        assert abs(xs.mean()) < 0.004  # 4 sigma / sqrt(n)

    def test_laplace_abs_mean(self):
        xs = sample_noise_array(lap(2.0), NoiseStream(8, purpose="t"), 1_000_000)
        assert np.abs(xs).mean() == pytest.approx(2.0, rel=0.02)

    def test_staircase_band_mass_ratio(self):
        p = stair(1.0, 0.5)
        xs = np.abs(sample_noise_array(p, NoiseStream(9, purpose="t"), 1_000_000))
        m0 = np.mean((xs >= 0.0) & (xs < 1.0))
        m1 = np.mean((xs >= 1.0) & (xs < 2.0))
        # oracle: integrate the density over each band
        from scipy import integrate

        b0, _ = integrate.quad(lambda v: density(p, v), 0.0, 1.0, points=[0.5], limit=60)
        b1, _ = integrate.quad(lambda v: density(p, v), 1.0, 2.0, points=[1.5], limit=60)
        assert b0 / b1 == pytest.approx(math.e, rel=1e-9)
        assert m0 / m1 == pytest.approx(b0 / b1, rel=0.05)

    def test_staircase_ks_against_integrated_density(self):
        p = stair(1.0, 0.5)
        xs = sample_noise_array(p, NoiseStream(10, purpose="t"), 1_000_000)
        cdf_x, cdf_y = staircase_band_edges_and_cdf(lambda v: density(p, v), 1.0, 0.5)
        assert ks_statistic(xs, cdf_x, cdf_y) < 0.002

    @settings(max_examples=12, deadline=None, derandomize=True, database=None)
    @given(
        kind=st.sampled_from([MechanismKind.GAUSSIAN, MechanismKind.LAPLACE]),
        scale=st.floats(0.05, 20.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property_ks_against_integrated_density(self, kind, scale, seed):
        # The sampler's empirical CDF against the integral of ``density``,
        # at the 0.001 level of the one-sample KS test.
        n = 50_000
        params = MechanismParams(kind, 1.0, scale)
        xs = sample_noise_array(params, NoiseStream(seed, purpose="ks"), n)
        critical = 1.95 / math.sqrt(n)
        half_width = 60.0 * scale
        cdf_x, cdf_y = integrated_density_cdf(lambda v: density(params, v), half_width)
        assert cdf_y[-1] == pytest.approx(1.0, abs=1e-6)
        assert ks_statistic(xs, cdf_x, cdf_y) < critical
        # The test has power: a 20% wider density is rejected.
        wider = MechanismParams(kind, 1.0, 1.2 * scale)
        cdf_x, cdf_y = integrated_density_cdf(lambda v: density(wider, v), half_width)
        assert ks_statistic(xs, cdf_x, cdf_y) > critical

    def test_stream_determinism(self):
        p = stair(0.7, 0.4)
        a = sample_noise_array(p, NoiseStream(42, 3, 5, "noise"), 64)
        b = sample_noise_array(p, NoiseStream(42, 3, 5, "noise"), 64)
        assert np.array_equal(a, b)
        c = sample_noise_array(p, NoiseStream(42, 3, 6, "noise"), 64)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("seed", [0, -1, 2**32 - 1, 2**32, 2**64 - 1, 12345])
    @pytest.mark.parametrize("round_index, client_index", [(0, 0), (0, 2**32), (2**32, 0), (2**40 + 3, 2**33 + 7)])
    def test_stream_draws_are_those_of_tuple_seeding(self, seed, round_index, client_index):
        # Seeding from the words of (seed mod 2**64, round, client, purpose
        # digest) must draw exactly what seeding from the tuple of ints does.
        for purpose in ("noise", "local-update", "client-selection", ""):
            digest = int.from_bytes(hashlib.blake2s(purpose.encode("utf-8"), digest_size=8).digest(), "big")
            seq = np.random.SeedSequence((seed & (2**64 - 1), round_index, client_index, digest))
            want = np.random.default_rng(seq)
            got = NoiseStream(seed, round_index, client_index, purpose).rng
            assert np.array_equal(got.random(8), want.random(8)), purpose
            assert np.array_equal(got.integers(0, 2**63, 4), want.integers(0, 2**63, 4)), purpose

    @pytest.mark.parametrize("lam, nu, delta", [(0.02, 0.49, 1.0), (0.7, 0.4, 1.0), (3.0, 0.18, 2.5), (12.0, 0.9, 0.3)])
    def test_staircase_draws_are_those_of_the_four_call_sampler(self, lam, nu, delta):
        # Same values to the bit (zero signs included), and the stream ends
        # at the same position.
        p = stair(lam, nu, delta)
        for seed in range(20):
            got_stream, want_stream = NoiseStream(seed, 1, 2, "noise"), NoiseStream(seed, 1, 2, "noise")
            got = sample_noise_array(p, got_stream, 500)
            want = staircase_sample_parent(p, want_stream.rng, 500)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))
            assert got_stream.rng.random() == want_stream.rng.random()

    @pytest.mark.parametrize(
        "sets",
        [
            [gauss(0.5), gauss(2.0), gauss(1.0)],
            [lap(0.5), lap(2.0), lap(1.0)],
            [stair(0.3, 0.4), stair(2.0, 0.2), stair(0.9, 0.7, delta=1.5)],
            [stair(0.05, 0.3), stair(0.2, 0.6), stair(0.35, 0.45, delta=1.5)],
        ],
        ids=["gaussian", "laplace", "staircase", "staircase-small-lam"],
    )
    def test_block_rows_follow_their_own_parameters(self, sets):
        # Two epochs of three rows: each row's draws pass the KS test against
        # its own density and fail it against the next row's.
        block = NoiseTable.of(sets).sample(NoiseStream(5, 2, 0, "local-noise").rng, (2, 3, 25_000))
        assert block.shape == (2, 3, 25_000)
        critical = 1.95 / math.sqrt(50_000)

        def cdf(p):
            if p.kind is MechanismKind.STAIRCASE:
                return staircase_band_edges_and_cdf(lambda v: density(p, v), p.sensitivity, p.nu)
            return integrated_density_cdf(lambda v: density(p, v), 60.0 * p.scale)

        for j, p in enumerate(sets):
            row = block[:, j].ravel()
            assert ks_statistic(row, *cdf(p)) < critical, p
            assert ks_statistic(row, *cdf(sets[(j + 1) % 3])) > critical, p

    @pytest.mark.parametrize("lams", [(0.05, 0.2, 0.39), (0.05, 0.2, 0.7), (0.7, 3.0, 12.0)])
    def test_staircase_block_bands_are_numpys_geometric_draws(self, lams):
        # Every band index is the one numpy's geometric draws from the same
        # stream with the block's column of p = 1 - e^-lam.
        sets = [stair(lam, 0.4) for lam in lams]
        got = NoiseTable.of(sets).sample(NoiseStream(3, 1, 0, "local-noise").rng, (2, 3, 400))
        p = np.array([[1.0 - math.exp(-lam)] for lam in lams])
        rho = NoiseStream(3, 1, 0, "local-noise").rng.geometric(p, (2, 3, 400)) - 1
        assert np.array_equal(np.floor(np.abs(got)), rho)

    def test_mixed_kinds_draw_each_kind_in_turn(self):
        # A Laplace and a Staircase row between Gaussian rows: the Gaussian
        # rows are drawn first, as a block of their own, then the Laplace row
        # and the Staircase row, each from where the stream has got to.
        sets = [gauss(1.0), lap(2.0), gauss(3.0), stair(0.5, 0.3)]
        got = NoiseTable.of(sets).sample(NoiseStream(4, 1, 0, "local-noise").rng, (2, 4, 50))
        stream = NoiseStream(4, 1, 0, "local-noise")
        for rows in ([0, 2], [1], [3]):
            want = NoiseTable.of([sets[j] for j in rows]).sample(stream.rng, (2, len(rows), 50))
            assert np.array_equal(got[:, rows], want)

    def test_table_rows_draw_as_the_table_of_those_rows(self):
        # A table built once and cut to some of its rows draws, bit for bit,
        # what a table of those sets alone draws from the same stream; its
        # Staircase constants are each set's own, in Python floats.
        sets = [gauss(1.0), stair(0.5, 0.3), lap(2.0), stair(2.0, 0.6, delta=1.5), gauss(3.0)]
        table = NoiseTable.of(sets)
        assert table.inner_p[1, 0] == 0.3 / (0.3 + math.exp(-0.5) * (1.0 - 0.3))
        assert table.band_p[3, 0] == 1.0 - math.exp(-2.0) and math.isnan(table.band_p[0, 0])
        for rows in ([0, 1, 2, 3, 4], [1, 3], [4, 2, 0], [2], []):
            shape = (2, len(rows), 30)
            got = table.take(rows).sample(NoiseStream(6, 2, 0, "local-noise").rng, shape)
            want = NoiseTable.of([sets[j] for j in rows]).sample(NoiseStream(6, 2, 0, "local-noise").rng, shape)
            assert got.tobytes() == want.tobytes()
        kinds = [MechanismKind.GAUSSIAN, MechanismKind.STAIRCASE, MechanismKind.LAPLACE]
        assert [kind for kind, _ in table.groups] == kinds
        assert [(kind, rows.tolist()) for kind, rows in table.take([3, 1]).groups] == [(kinds[1], [0, 1])]

    def test_block_needs_one_set_per_row(self):
        with pytest.raises(ValueError, match="^a noise block needs one parameter set per row: got 2 for shape"):
            NoiseTable.of([gauss(1.0), gauss(2.0)]).sample(NoiseStream(0, purpose="local-noise").rng, (1, 3, 4))

    def test_scalar_draw_matches_stream(self):
        p = gauss(2.0)
        a = sample_noise_array(p, NoiseStream(1, purpose="x"), 1)
        assert a.shape == (1,)
        assert np.array_equal(a, sample_noise_array(p, NoiseStream(1, purpose="x"), 1))


class TestRdp:
    def test_gaussian_spot(self):
        # quadrature oracle gave 1.0000000 for alpha=2, Delta=1, sigma=1
        assert rdp(gauss(1.0), 2.0) == pytest.approx(1.0, abs=1e-3)
        assert rdp_oracle(gauss(1.0), 2.0) == pytest.approx(1.0, rel=1e-6)

    def test_laplace_spot(self):
        expected = math.log(2.0 / 3.0 * math.e + 1.0 / 3.0 * math.exp(-2.0))
        assert rdp(lap(1.0), 2.0) == pytest.approx(expected, abs=1e-3)
        assert rdp_oracle(lap(1.0), 2.0) == pytest.approx(expected, rel=1e-6)

    def test_staircase_band_sum_vs_quadrature_spot(self):
        p = stair(1.0, 0.5)
        assert rdp(p, 2.0) == pytest.approx(rdp_oracle(p, 2.0), rel=1e-6)

    def test_alpha_domain(self):
        with pytest.raises(ValueError):
            rdp(gauss(1.0), 1.0)
        with pytest.raises(ValueError):
            rdp(stair(1.0, 0.5), 0.5)

    @pytest.mark.parametrize("kind", list(MechanismKind))
    def test_matches_quadrature_on_random_grid(self, kind):
        rng = np.random.default_rng(2024)
        for _ in range(20):
            delta = rng.uniform(0.5, 2.0)
            if kind is MechanismKind.GAUSSIAN:
                params = gauss(rng.uniform(1.0, 3.0) * delta, delta)
            elif kind is MechanismKind.LAPLACE:
                params = lap(rng.uniform(0.5, 3.0) * delta, delta)
            else:
                params = stair(rng.uniform(0.8, 4.0), rng.uniform(0.1, 0.9), delta)
            for alpha in (1.5, 2.0, 4.0, 8.0, 16.0, 32.0):
                got = rdp(params, alpha)
                want = rdp_oracle(params, alpha)
                assert got == pytest.approx(want, rel=1e-3), (params, alpha)

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(7)
        alphas = [1.5, 2.0, 4.0, 8.0, 16.0, 32.0]
        for _ in range(10):
            params = [
                gauss(rng.uniform(0.5, 3.0)),
                lap(rng.uniform(0.5, 3.0)),
                stair(rng.uniform(0.3, 3.0), rng.uniform(0.1, 0.9)),
            ]
            for p in params:
                vals = [rdp(p, a) for a in alphas]
                assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:])), p

    def test_vanishes_at_huge_scale(self):
        assert rdp(gauss(1e4), 2.0) < 1e-6
        assert rdp(lap(1e4), 2.0) < 1e-6

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        kind=st.sampled_from(list(MechanismKind)),
        delta=st.floats(0.01, 100.0),
        knob=st.floats(1e-4, 1e4),
        nu=st.floats(1e-3, 1.0 - 1e-3),
    )
    def test_grid_matches_the_per_order_parent(self, kind, delta, knob, nu):
        # Sigma and b scale with Delta; lam is the knob itself.  The atol
        # covers curves near 0, where the log-sum-exp cancels terms of order
        # 1 in both forms and numpy's exp and libm's differ in the last bit.
        scale = knob if kind is MechanismKind.STAIRCASE else knob * delta
        params = MechanismParams(kind, delta, scale, nu=nu)
        grid = default_alpha_grid()
        curve = rdp(params, grid)
        assert isinstance(curve, np.ndarray) and curve.shape == grid.shape
        want = [rdp_parent(params, a) for a in grid]
        np.testing.assert_allclose(curve, want, rtol=1e-13, atol=1e-15)
        if kind is MechanismKind.GAUSSIAN:
            assert curve.tolist() == want  # the same closed form, bit for bit
        one = rdp(params, float(grid[7]))
        assert type(one) is float and one == pytest.approx(want[7], rel=1e-13, abs=1e-15)
        for bad in (1.0, 0.5, math.nan, math.inf):
            with pytest.raises(ValueError, match=f"alpha .* got {bad}$"):
                rdp(params, np.append(grid, bad))

    def test_as_published_staircase_is_the_raw_moment(self):
        # literal expression, nu >= 1/2 branch
        p = stair(1.0, 0.5)
        lam, nu, alpha = 1.0, 0.5, 2.0
        bracket = (math.exp((alpha - 1) * lam) + math.exp(-alpha * lam)) * (1 - nu)
        bracket += abs(2 * nu - 1) * math.exp(-lam)
        expected = (
            0.5 * math.exp((alpha - 1) * lam)
            + 0.5 * math.exp(-alpha * lam)
            + bracket * (1 - math.exp(-1)) / (2 * (nu + math.exp(-lam) * (1 - nu)))
        )
        assert rdp_as_published(p, alpha) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("alpha", [1.0, 0.5, math.inf, math.nan])
    def test_as_published_needs_a_finite_order_above_one(self, alpha):
        # Gaussian: its published form would compute a value at any order.
        with pytest.raises(ValueError, match=f"^alpha must be a finite real > 1, got {alpha}$"):
            rdp_as_published(gauss(1.0), alpha)

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 7.0])
    def test_as_published_laplace_is_rdp(self, alpha):
        assert rdp_as_published(lap(1.3), alpha) == rdp(lap(1.3), alpha)

    def test_as_published_gaussian_drops_the_square(self):
        p = gauss(2.0, delta=3.0)
        assert rdp_as_published(p, 2.0) == pytest.approx(rdp(p, 2.0) / 3.0, rel=1e-12)


class TestExpectedAbsNoise:
    def test_gaussian(self):
        p = gauss(1.0)
        assert expected_abs_noise(p) == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-12)
        xs = sample_noise_array(p, NoiseStream(11, purpose="t"), 1_000_000)
        assert np.abs(xs).mean() == pytest.approx(expected_abs_noise(p), rel=0.01)

    def test_laplace(self):
        assert expected_abs_noise(lap(3.0)) == 3.0

    def test_staircase_optimal_nu_closed_form(self):
        lam = 2.0
        p = stair(lam, 1.0 / (1.0 + math.e))
        want = math.e / (math.e**2 - 1.0)
        assert expected_abs_noise(p) == pytest.approx(want, abs=1e-9)
        xs = sample_noise_array(p, NoiseStream(12, purpose="t"), 1_000_000)
        assert np.abs(xs).mean() == pytest.approx(want, rel=0.01)

    def test_staircase_general_nu_matches_sampling(self):
        p = stair(1.3, 0.7)
        xs = sample_noise_array(p, NoiseStream(13, purpose="t"), 1_000_000)
        assert np.abs(xs).mean() == pytest.approx(expected_abs_noise(p), rel=0.01)
