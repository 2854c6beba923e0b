"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one pass/fail line (written straight to the real stdout so
it survives pytest capture).  Criteria 8-10 share one deterministic
experiment grid built by a session fixture: the desk-scale synthetic task at
the high-sampling-rate setting (q = 0.5) where privacy/utility trends are
visible; at the default q = 0.05 the pinned task geometry is noise-dominated
for every mechanism and no ordering is stable.
"""

import hashlib
import io
import math
import pathlib
import time

import numpy as np
import pytest

from dpfed.accountant import (
    PrivacyBudget,
    RdpLedger,
    calibrate_noise,
    default_alpha_grid,
    optimal_staircase_nu,
    rdp_curve,
    shuffle_amplify_lower,
    shuffle_amplify_upper,
)
from dpfed.cli import ExperimentConfig, run_experiment
from dpfed.fl_core import BudgetExhaustedError
from dpfed.mechanisms import (
    MechanismKind,
    MechanismParams,
    NoiseStream,
    density,
    expected_abs_noise,
    rdp,
    sample_noise_array,
)
from dpfed.mode_connectivity import (
    CurveKind,
    CurveSpec,
    CurveTrainConfig,
    bezier_fedavg_update,
    curve_point,
    theta_star,
    train_curve,
)
from dpfed.utility_bounds import l1_bound, optimal_nu
from oracles import (
    QuadraticBowl,
    curve_loss_monte_carlo,
    gaussian_logpdf,
    ks_statistic,
    laplace_logpdf,
    renyi_divergence_quad,
    staircase_band_edges_and_cdf,
    staircase_knots,
    staircase_logpdf,
)

DELTA = 1e-5


def announce(num: int, ok: bool, detail: str) -> None:
    from conftest import ACCEPTANCE_LINES

    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def quad_window(params, alpha):
    if params.kind is MechanismKind.GAUSSIAN:
        w = abs(1.0 - alpha) * params.sensitivity + 14.0 * params.scale
    elif params.kind is MechanismKind.LAPLACE:
        w = (alpha + 2.0) * params.sensitivity + 60.0 * params.scale
    else:
        w = ((alpha - 1.0) + 40.0 / params.scale + 4.0) * params.sensitivity
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


def test_criterion_1_rdp_oracle_equivalence():
    start = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    for kind in MechanismKind:
        for _ in range(20):
            delta = rng.uniform(0.5, 2.0)
            if kind is MechanismKind.GAUSSIAN:
                params = MechanismParams(kind, delta, rng.uniform(1.0, 3.0) * delta)
            elif kind is MechanismKind.LAPLACE:
                params = MechanismParams(kind, delta, rng.uniform(0.5, 3.0) * delta)
            else:
                params = MechanismParams(kind, delta, rng.uniform(0.8, 4.0), nu=rng.uniform(0.1, 0.9))
            for alpha in (1.5, 2.0, 4.0, 8.0, 16.0, 32.0):
                got = rdp(params, alpha)
                want = rdp_oracle(params, alpha)
                worst = max(worst, abs(got - want) / abs(want))
    elapsed = time.time() - start
    announce(
        1,
        worst < 1e-3 and elapsed < 60.0,
        f"rdp vs quadrature, 20 settings x 3 mechanisms: worst rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_staircase_density_suite():
    start = time.time()
    lam, nu = 1.0, 0.5
    params = MechanismParams(MechanismKind.STAIRCASE, 1.0, lam, nu=nu)

    cdf_x, cdf_y = staircase_band_edges_and_cdf(lambda v: density(params, v), 1.0, nu)
    norm_ok = abs((cdf_y[-1] - cdf_y[0]) - 1.0) < 1e-6

    xs = np.linspace(0.0, 8.3, 200)
    analytic_ok = np.allclose(
        density(params, xs + 1.0) / density(params, xs), math.exp(-lam), rtol=1e-9
    )

    samples = sample_noise_array(params, NoiseStream(2024, purpose="acceptance"), 1_000_000)
    ax = np.abs(samples)
    ratio = np.mean((ax >= 1.0) & (ax < 2.0)) / np.mean((ax >= 0.0) & (ax < 1.0))
    sample_ok = abs(ratio - math.exp(-lam)) / math.exp(-lam) < 0.05

    ks = ks_statistic(samples, cdf_x, cdf_y)
    ks_ok = ks < 0.002

    grid = np.linspace(-6.0, 6.0, 8001)
    lr = np.max(density(params, grid) / density(params, grid - 1.0))
    lr_ok = lr <= math.exp(lam) + 1e-9

    elapsed = time.time() - start
    announce(
        2,
        norm_ok and analytic_ok and sample_ok and ks_ok and lr_ok and elapsed < 60.0,
        f"normalization/decay/KS/likelihood-ratio: KS={ks:.4f}, {elapsed:.1f}s",
    )


def test_criterion_3_calibration_round_trip():
    start = time.time()
    tol = 1e-4
    grid = default_alpha_grid()
    conv = math.log(1.0 / DELTA) / (grid - 1.0)
    ok = True
    for kind in MechanismKind:
        for eps in (2.0, 4.0, 6.0, 8.0):
            for horizon in (1, 50, 150):
                result = calibrate_noise(kind, 1.0, PrivacyBudget(eps, DELTA, horizon), tolerance=tol)
                achieved = float(np.min(horizon * rdp_curve(result.mechanism, grid) + conv))
                ok &= achieved <= eps
                if kind is MechanismKind.STAIRCASE:
                    lam = result.mechanism.scale * (1.0 + tol)
                    worse = MechanismParams(kind, 1.0, lam, nu=optimal_staircase_nu(lam))
                else:
                    worse = MechanismParams(kind, 1.0, result.mechanism.scale / (1.0 + tol))
                violated = float(np.min(horizon * rdp_curve(worse, grid) + conv))
                ok &= violated > eps
    elapsed = time.time() - start
    announce(
        3,
        ok and elapsed < 30.0,
        f"calibration round-trip over 3 mechanisms x 4 eps x 3 horizons, {elapsed:.1f}s",
    )


def test_criterion_4_conversion_spot_value():
    grid = np.arange(2.0, 65.0)
    curve = rdp_curve(MechanismParams(MechanismKind.GAUSSIAN, 1.0, 1.0), grid)
    ledger = RdpLedger(grid, [curve], [PrivacyBudget(math.inf, DELTA, 1)])
    ledger.spend([1])
    (eps,), (alpha,) = ledger.to_dp()
    ok = abs(eps - 5.3026) <= 1e-3 and alpha == 6.0
    announce(4, ok, f"Gaussian T=1 conversion: eps={eps:.6f} at alpha={alpha:g}")


def test_criterion_5_shuffle_bounds():
    rng = np.random.default_rng(55)
    sandwich_ok = True
    for _ in range(100):
        g = rng.uniform(0.0, 3.0)
        alpha = int(rng.integers(2, 16))
        n = int(rng.integers(1, 100_000))
        lo = shuffle_amplify_lower(g, alpha, n)
        hi = shuffle_amplify_upper(g, alpha, n)
        sandwich_ok &= 0.0 <= lo <= hi
    spot_u = shuffle_amplify_upper(math.log(2.0), 2, 4)
    spot_l = shuffle_amplify_lower(math.log(2.0), 2, 4)
    spots_ok = abs(spot_u - math.log(2.0)) < 1e-9 and abs(spot_l - math.log(1.125)) < 1e-9
    huge_n_ok = (
        shuffle_amplify_upper(1.0, 2, 10**8) < 1e-6 and shuffle_amplify_lower(1.0, 2, 10**8) < 1e-6
    )
    announce(
        5,
        sandwich_ok and spots_ok and huge_n_ok,
        f"sandwich on 100 triples; spots {spot_u:.6f}/{spot_l:.6f}; vanishing at N=1e8",
    )


def test_criterion_6_utility_bound_oracles():
    n = 1_000_000
    ok = True
    details = []
    cases = [
        MechanismParams(MechanismKind.GAUSSIAN, 1.0, 1.7),
        MechanismParams(MechanismKind.LAPLACE, 1.0, 0.8),
        MechanismParams(MechanismKind.STAIRCASE, 1.0, 1.2, nu=optimal_staircase_nu(1.2)),
    ]
    for i, params in enumerate(cases):
        mc = float(np.abs(sample_noise_array(params, NoiseStream(66 + i, purpose="bound"), n)).mean())
        closed = expected_abs_noise(params)  # the m=T=1 bound
        rel = abs(closed - mc) / mc
        ok &= rel < 0.01
        details.append(f"{params.kind.value}={rel:.3%}")
    lam = 2.0
    nu_s, per_delta = optimal_nu(lam)
    stair = MechanismParams(MechanismKind.STAIRCASE, 1.0, lam, nu=nu_s)
    lemma_ok = (
        abs(l1_bound(stair, 5, 7, "numeric") - 5 * 7 * per_delta) < 1e-9
    )
    announce(6, ok and lemma_ok, "closed forms vs Monte Carlo: " + ", ".join(details))


def test_criterion_7_mode_connectivity():
    rng = np.random.default_rng(77)
    endpoint_ok = True
    for kind in CurveKind:
        for _ in range(20):
            w1, w2, th = rng.normal(size=(3, 9))
            spec = CurveSpec(kind, w1, w2, th)
            endpoint_ok &= np.array_equal(curve_point(spec, 0.0), w1)
            endpoint_ok &= np.array_equal(curve_point(spec, 1.0), w2)

    residual_ok = True
    for _ in range(100):
        L = rng.uniform(0.5, 10.0)
        w, v = rng.normal(size=(2, 8))
        ts = theta_star(L, w, v)
        residual = -1.0 / L + (5.0 / 6.0) * ts + v / 12.0 - (11.0 / 12.0) * w
        residual_ok &= float(np.max(np.abs(residual))) < 1e-12

    bowl = QuadraticBowl(np.zeros(2))
    spec = CurveSpec(
        CurveKind.POLYGONAL_CHAIN, np.array([1.0, 0.0]), np.array([-1.0, 0.0]), np.array([0.5, 0.5])
    )
    theta = train_curve(spec, CurveTrainConfig(500, 0.05, bowl), NoiseStream(7, purpose="curve"))
    before = curve_loss_monte_carlo(spec, bowl.loss)
    after = curve_loss_monte_carlo(
        CurveSpec(spec.kind, spec.endpoint_w1, spec.endpoint_w2, theta), bowl.loss
    )
    descent_ok = after < before

    v, th, w = np.array([1.0, 2.0]), np.array([3.0, 4.0]), np.array([5.0, 6.0])
    bezier_ok = (
        np.array_equal(bezier_fedavg_update(v, th, w, 0.0), v)
        and np.array_equal(bezier_fedavg_update(v, th, w, 1.0), w)
        and np.allclose(bezier_fedavg_update(v, th, w, 0.5), 0.25 * v + 0.5 * th + 0.25 * w)
    )
    announce(
        7,
        endpoint_ok and residual_ok and descent_ok and bezier_ok,
        f"endpoints exact; theta* residual < 1e-12; curve loss {before:.4f} -> {after:.4f}; Bezier spots",
    )


# --- criteria 8-10: shared experiment grid -------------------------------

MECHS = ("gaussian", "laplace", "staircase")
EPS_GRID = (2.0, 4.0, 8.0)
SEEDS = tuple(range(10))
TREND_SAMPLE_RATE = 0.5


def _trend_config(mechanism, epsilon, seed):
    return ExperimentConfig(
        mechanism=mechanism,
        epsilon=epsilon,
        rounds=150,
        seed=seed,
        sample_rate=TREND_SAMPLE_RATE,
    )


@pytest.fixture(scope="session")
def experiment_grid():
    """The 102 grid runs: their metrics, keyed as the criteria read them; each
    run's CSV text, keyed by ``(mechanism, epsilon, seed)``; and the wall time."""
    start = time.time()
    runs, csvs = {}, {}

    def run(key, mech, eps, seed):
        stream = io.StringIO()
        runs[key] = run_experiment(_trend_config(mech, eps, seed), csv_stream=stream).metrics
        csvs[(mech, eps, seed)] = stream.getvalue()

    for seed in SEEDS:
        run(("disabled", "gaussian", seed), "gaussian", math.inf, seed)
    for mech in ("laplace", "staircase"):
        run(("disabled", mech, 0), mech, math.inf, 0)
    for mech in MECHS:
        for eps in EPS_GRID:
            for seed in SEEDS:
                run((mech, eps, seed), mech, eps, seed)
    return runs, csvs, time.time() - start


GRID_MANIFEST = pathlib.Path(__file__).parent / "golden" / "grid.sha256"


def running_toolchain() -> dict[str, str]:
    """The numpy and BLAS this process runs, as the manifest header names them."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}"}


def read_manifest(text: str) -> tuple[dict[str, str], dict[str, str]]:
    """A manifest's ``# key value`` header lines, naming the toolchain it was
    recorded on, and its ``run -> sha256`` lines."""
    header, runs = {}, {}
    for line in text.splitlines():
        if line.startswith("#"):
            key, value = line[1:].strip().split(" ", 1)
            header[key] = value
        else:
            run, sha = line.rsplit(" ", 1)
            runs[run] = sha
    return header, runs


def toolchain_note(recorded: dict[str, str], running: dict[str, str]) -> str:
    """Whether the running toolchain differs from the recorded one, and where."""
    differs = [
        f"{key} {running.get(key)} (recorded {recorded.get(key)})"
        for key in sorted(recorded.keys() | running.keys())
        if running.get(key) != recorded.get(key)
    ]
    if differs:
        return "the running toolchain differs from the recorded one: " + ", ".join(differs)
    return "the running toolchain is the recorded one: " + ", ".join(f"{k} {v}" for k, v in running.items())


def test_grid_csv_bytes_match_the_manifest(experiment_grid, tmp_path):
    # One line per grid CSV: mechanism, epsilon, seed and the sha256 of its
    # bytes, under a header naming the numpy and BLAS that wrote them.  A
    # change that moves a CSV on purpose commits the manifest this test
    # writes, so the moved runs, and any new toolchain, show as a reviewed diff.
    _, csvs, _ = experiment_grid
    got = {
        f"{mech} {eps:g} {seed}": hashlib.sha256(text.encode()).hexdigest()
        for (mech, eps, seed), text in csvs.items()
    }
    running = running_toolchain()
    fresh = tmp_path / "grid.sha256"
    fresh.write_text(
        "".join(f"# {key} {value}\n" for key, value in running.items())
        + "".join(f"{run} {sha}\n" for run, sha in got.items()),
        encoding="utf-8",
    )
    print(f"this run's manifest: {fresh}")
    recorded, want = read_manifest(GRID_MANIFEST.read_text(encoding="utf-8"))
    moved = sorted(run for run in got.keys() | want.keys() if got.get(run) != want.get(run))
    assert not moved, (
        f"{len(moved)} grid CSVs differ from {GRID_MANIFEST.name}: {moved}; "
        f"{toolchain_note(recorded, running)}; this run's manifest is {fresh}"
    )


def test_manifest_header_names_the_recorded_toolchain():
    recorded, runs = read_manifest(GRID_MANIFEST.read_text(encoding="utf-8"))
    assert set(recorded) == {"numpy", "blas"} and len(runs) == 102
    other = {**recorded, "numpy": "1.26.4"}
    assert toolchain_note(other, recorded) == (
        f"the running toolchain differs from the recorded one: numpy {recorded['numpy']} (recorded 1.26.4)"
    )
    assert toolchain_note(recorded, recorded).startswith("the running toolchain is the recorded one: numpy ")


def test_criterion_8_trend_reproduction(experiment_grid):
    runs, _, elapsed = experiment_grid
    wins = sum(
        runs[("staircase", 8.0, s)][-1].eval_accuracy >= runs[("laplace", 8.0, s)][-1].eval_accuracy
        for s in SEEDS
    )
    disabled = [runs[("disabled", m, 0)][-1].eval_accuracy for m in MECHS]
    agree = max(disabled) - min(disabled) <= 0.02
    announce(
        8,
        wins >= 7 and agree and elapsed < 600.0,
        f"staircase >= laplace at eps=8 in {wins}/10 seeds; "
        f"noise-disabled spread {max(disabled) - min(disabled):.3f}; grid {elapsed:.0f}s",
    )


def test_criterion_9_convergence_trend(experiment_grid):
    runs, _, elapsed = experiment_grid

    def crossing(metrics, threshold):
        for m in metrics:
            if m.eval_accuracy >= threshold:
                return m.round_index + 1
        return len(metrics) + 1

    ok = True
    details = []
    for mech in MECHS:
        medians = []
        for eps in EPS_GRID:
            crossings = [
                crossing(
                    runs[(mech, eps, s)],
                    0.9 * runs[("disabled", "gaussian", s)][-1].eval_accuracy,
                )
                for s in SEEDS
            ]
            medians.append(float(np.median(crossings)))
        ok &= medians[0] >= medians[1] >= medians[2]
        details.append(f"{mech}: {medians}")
    announce(9, ok and elapsed < 600.0, "rounds-to-90%-threshold medians " + "; ".join(details))


def test_criterion_10_privacy_ceiling(experiment_grid):
    runs, _, _ = experiment_grid
    over = 0
    rows = 0
    for key, metrics in runs.items():
        if key[0] == "disabled":
            continue
        _, eps, _ = key
        for m in metrics:
            rows += 1
            over += m.cumulative_epsilon > eps

    # exhausted budgets halt with the documented signal
    from dpfed.fl_core import run_round
    from test_fl_core import build_federation

    server, clients, model, ledger, fed = build_federation(mech_kind=MechanismKind.GAUSSIAN, horizon=4)
    halted = False
    try:
        for _ in range(3):
            server = run_round(server, clients, model, ledger, 1, fed).server
    except BudgetExhaustedError:
        halted = True
    announce(
        10,
        over == 0 and halted,
        f"{rows} metric rows, {over} over budget; exhausted budget raised the halt signal",
    )
