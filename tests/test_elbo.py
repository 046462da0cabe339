import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dictolearn import elbo, sparse
from dictolearn.elbo import (
    ElboReport,
    ModelParams,
    dense_matrix,
    elbo_lower_bound,
    elbo_monte_carlo,
    evidence_chain,
    f_value,
    gaussian_logpdf,
    joint_log_density,
    laplace_logpdf,
    log_evidence_quadrature,
    mode_gap,
    posterior_mode,
    sample_laplace,
)
from dictolearn.operators import ContractError, Dictionary, ImageGrid
from conftest import cd_sparse_solve


PARAMS = ModelParams(sigma=0.3, b=0.4, b_star=0.05, n=16, m=6)


@pytest.fixture(scope="module")
def instance():
    d = Dictionary.random(6, 4, 11)
    x = np.random.default_rng(7).standard_normal(16) * 0.5
    return d, x


def test_laplace_logpdf_at_center_unit_normalizer():
    # m = 1, b = 0.5: -ln(2b) = 0 at the center.
    assert laplace_logpdf(np.array([0.7]), np.array([0.7]), 0.5) == pytest.approx(0.0, abs=1e-15)


def test_laplace_logpdf_normalizes_by_quadrature():
    b = 0.37
    grid = np.linspace(-20 * b, 20 * b, 400001)
    vals = np.exp([laplace_logpdf(np.array([t]), np.array([0.0]), b) for t in grid[::400]])
    # Coarse check plus a fine vectorized one.
    dense = np.exp(-np.abs(grid) / b) / (2 * b)
    assert abs(np.trapezoid(dense, grid) - 1.0) < 1e-6
    assert np.all(np.isfinite(vals))


def test_laplace_logpdf_shift_invariance(rng):
    z = rng.standard_normal(5)
    mu = rng.standard_normal(5)
    shift = rng.standard_normal(5)
    a = laplace_logpdf(z, mu, 0.8)
    b = laplace_logpdf(z + shift, mu + shift, 0.8)
    assert a == pytest.approx(b, rel=1e-14)


def test_gaussian_logpdf_standard_value():
    assert gaussian_logpdf(np.array([0.0]), 1.0) == pytest.approx(-0.5 * np.log(2 * np.pi), abs=1e-15)


def test_gaussian_logpdf_normalizes_by_quadrature():
    sigma = 0.6
    grid = np.linspace(-12 * sigma, 12 * sigma, 200001)
    dense = np.exp(-(grid ** 2) / (2 * sigma ** 2)) / (np.sqrt(2 * np.pi) * sigma)
    assert abs(np.trapezoid(dense, grid) - 1.0) < 1e-8


def test_gaussian_logpdf_permutation_invariance(rng):
    v = rng.standard_normal(8)
    assert gaussian_logpdf(v, 0.7) == pytest.approx(gaussian_logpdf(v[::-1].copy(), 0.7), rel=1e-15)


def test_joint_density_matches_f_identity(instance, rng):
    # log rho(x, z) = -f(x, z) * (2 sigma^2 scale folded in) + constants.
    d, x = instance
    for _ in range(5):
        z = rng.standard_normal(6) * 0.3
        joint = joint_log_density(x, z, d, PARAMS)
        const = (-0.5 * PARAMS.n * np.log(2 * np.pi * PARAMS.sigma ** 2)
                 - PARAMS.m * np.log(2 * PARAMS.b))
        assert joint == pytest.approx(const - f_value(x, z, d, PARAMS), rel=1e-12)


def test_joint_density_decreasing_in_l1(instance):
    d, x = instance
    z = np.zeros(6)
    z_big = z.copy()
    z_big[0] = 1.0
    # Same residual cannot hold with different z in general; compare the
    # prior part directly instead: larger ||z||_1 lowers the joint.
    base = joint_log_density(x, z, d, PARAMS)
    moved = joint_log_density(x, z_big, d, PARAMS)
    f_gap = f_value(x, z_big, d, PARAMS) - f_value(x, z, d, PARAMS)
    assert moved == pytest.approx(base - f_gap, rel=1e-12)
    assert laplace_logpdf(z_big, np.zeros(6), PARAMS.b) < laplace_logpdf(z, np.zeros(6), PARAMS.b)


def test_posterior_mode_zero_signal(instance):
    d, _ = instance
    assert np.all(posterior_mode(np.zeros(16), d, PARAMS) == 0.0)


def test_posterior_mode_matches_coordinate_descent(instance):
    d, x = instance
    z_star = posterior_mode(x, d, PARAMS)
    lam = 2 * PARAMS.sigma ** 2 / PARAMS.b
    z_cd = cd_sparse_solve(dense_matrix(d), x, lam, iters=100000, tol=1e-16)
    assert f_value(x, z_star, d, PARAMS) - f_value(x, z_cd, d, PARAMS) < 1e-8


def test_posterior_mode_does_not_restart_on_rounding_noise(monkeypatch):
    # On this overcomplete instance, restarting on every rise of rounding
    # size restarted about half of the iterations. posterior_mode stops
    # once its mode is certified, so the solver runs the same problem
    # (lambda = 2 sigma^2 / b) without a stop test for all 2000 iterations.
    d = Dictionary.random(16, 4, 5)
    x = np.random.default_rng(7).standard_normal(16) * 0.5
    params = ModelParams(sigma=0.3, b=0.4, b_star=0.05, n=16, m=16)
    runs = []
    descent = sparse.accelerated_descent

    def recorded(*args):
        state, run = descent(*args)
        runs.append(run)
        return state, run

    monkeypatch.setattr(sparse, "accelerated_descent", recorded)
    iters, restart_allowance = 2000, 10
    cfg = sparse.SparseCodeConfig(lam=2 * params.sigma ** 2 / params.b, max_iters=iters)
    sparse.fista_sparse_code(d, ImageGrid(x.reshape(4, 4)), cfg)
    assert len(runs) == 1 and len(runs[0].parts) == iters
    assert runs[0].restarts + runs[0].halvings <= restart_allowance
    assert mode_gap(x, posterior_mode(x, d, params), d, params) <= elbo.MODE_GAP_TOL


def test_posterior_mode_is_the_iterate_of_an_unstopped_run(instance):
    d, x = instance
    z_star = posterior_mode(x, d, PARAMS)
    cfg = sparse.SparseCodeConfig(lam=2 * PARAMS.sigma ** 2 / PARAMS.b, max_iters=2000)
    image = ImageGrid(x.reshape(4, 4))
    _, trace = sparse.fista_sparse_code(d, image, cfg, gap_tol=elbo.MODE_GAP_TOL)
    assert len(trace) < cfg.max_iters
    cfg.max_iters = len(trace)
    z_ref, _ = sparse.fista_sparse_code(d, image, cfg)
    assert np.array_equal(z_star, z_ref.ravel())
    assert elbo_lower_bound(x, d, PARAMS, z_star).mode_gap <= elbo.MODE_GAP_TOL


def test_mode_gap_zero_signal(instance):
    d, _ = instance
    assert mode_gap(np.zeros(16), np.zeros(6), d, PARAMS) == 0.0
    assert elbo_lower_bound(np.zeros(16), d, PARAMS,
                            posterior_mode(np.zeros(16), d, PARAMS)).certified


def c05_instances():
    """The five models of acceptance criterion 5."""
    for trial, m in enumerate((1, 2, 2, 1, 2)):
        rng = np.random.default_rng(500 + trial)
        k = 2 if m == 2 else 1
        d = Dictionary.random(m, k, 500 + trial)
        params = ModelParams(sigma=float(rng.uniform(0.2, 0.5)), b=float(rng.uniform(0.3, 0.7)),
                             b_star=float(rng.uniform(0.02, 0.15)), n=k * k, m=m)
        yield d, params, rng.standard_normal(k * k) * 0.5


def test_c05_modes_certify():
    for d, params, x in c05_instances():
        report = elbo_lower_bound(x, d, params, posterior_mode(x, d, params))
        assert report.certified, report.mode_gap


def test_violations_name_each_failure():
    for d, params, x in c05_instances():
        report = elbo_lower_bound(x, d, params, posterior_mode(x, d, params))
        assert report.violations == []
        # Each failure alone yields exactly its own named violation.
        below = replace(report, lower_bound=report.elbo_exact + 1e-9)
        wide = replace(report, gap_bound=report.gap - 1e-9)
        uncertified = replace(report, mode_gap=2 * elbo.MODE_GAP_TOL)
        assert below.violations == ["ELBO below its lower bound"]
        assert wide.violations == ["gap above the gap bound"]
        assert uncertified.violations == ["z* uncertified"]


def test_evidence_chain_equals_the_separate_calls():
    d = Dictionary.random(2, 2, 5)
    params = ModelParams(sigma=0.3, b=0.4, b_star=0.05, n=4, m=2)
    x = np.random.default_rng(3).standard_normal(4) * 0.6
    z_star = posterior_mode(x, d, params)
    report, mc, se, evidence, violations = evidence_chain(x, d, params, 2000, 9)
    assert report == elbo_lower_bound(x, d, params, z_star)
    assert (mc, se) == elbo_monte_carlo(x, d, params, z_star, 2000, seed=9)
    assert evidence == log_evidence_quadrature(x, d, params)
    assert violations == []
    # Without Monte Carlo the chain stops at the report.
    report0, *rest = evidence_chain(x, d, params, 0, 9)
    assert report0 == report and np.isnan(rest[:3]).all() and rest[3] == []


def test_evidence_chain_names_the_cross_check_failures(monkeypatch):
    d = Dictionary.random(1, 2, 4)
    params = ModelParams(sigma=0.3, b=0.4, b_star=0.05, n=4, m=1)
    x = np.array([0.3, -0.2, 0.5, 0.1])
    report, mc, se, evidence, _ = evidence_chain(x, d, params, 1000, 1)
    assert evidence > mc
    # Each failure alone yields exactly its own named violation; the
    # thresholds are 4 SE and, for the evidence, MC - 3 SE - 1e-3.
    for z, named in ((-3.9, []), (-4.1, ["Monte-Carlo ELBO more than 4 SE off"])):
        monkeypatch.setattr(elbo, "elbo_monte_carlo",
                            lambda *a, z=z: (report.elbo_exact + z * se, se))
        assert evidence_chain(x, d, params, 1000, 1)[-1] == named
    monkeypatch.setattr(elbo, "elbo_monte_carlo", lambda *a: (mc, se))
    floor, below = mc - 3 * se - 1e-3, ["log evidence below the Monte-Carlo ELBO"]
    for ev, named in ((floor + 1e-6, []), (floor - 1e-6, below), (np.nan, below),
                      (np.inf, below)):
        monkeypatch.setattr(elbo, "log_evidence_quadrature", lambda *a, ev=ev: ev)
        assert evidence_chain(x, d, params, 1000, 1)[-1] == named


def test_report_values_are_plain_numbers(instance):
    d, x = instance
    z_star = posterior_mode(x, d, PARAMS)
    report = elbo_lower_bound(x, d, PARAMS, z_star)
    assert {key: type(v) for key, v in report.as_dict().items()} == {
        key: int if key == "support_size" else float for key in ElboReport.COLUMNS}
    assert [type(v) for v in elbo_monte_carlo(x, d, PARAMS, z_star, 1000, seed=1)] == [float, float]


def test_lambda_mapping_preserves_argmin(instance):
    # The sparse-coding objective is 2 sigma^2 times f, so both have the
    # same minimizer.
    d, x = instance
    lam = 2 * PARAMS.sigma ** 2 / PARAMS.b
    z_cd = cd_sparse_solve(dense_matrix(d), x, lam)
    sparse_obj = float(np.sum((dense_matrix(d) @ z_cd - x) ** 2) + lam * np.sum(np.abs(z_cd)))
    assert sparse_obj == pytest.approx(2 * PARAMS.sigma ** 2 * f_value(x, z_cd, d, PARAMS), rel=1e-12)


def test_elbo_tight_at_zero_mode(instance):
    d, _ = instance
    report = elbo_lower_bound(np.zeros(16), d, PARAMS, posterior_mode(np.zeros(16), d, PARAMS))
    assert report.support_size == 0
    assert report.gap_bound == 0.0
    assert report.elbo_exact == pytest.approx(report.lower_bound, abs=1e-12)


def test_elbo_monte_carlo_matches_exact_route_1d():
    d = Dictionary(np.ones((1, 1, 1)))  # n = m = 1, trivially unit norm
    params = ModelParams(sigma=0.4, b=0.3, b_star=0.06, n=1, m=1)
    x = np.array([0.9])
    z_star = posterior_mode(x, d, params)
    report = elbo_lower_bound(x, d, params, z_star)
    est, se = elbo_monte_carlo(x, d, params, z_star, 1_000_000, seed=5)
    assert abs(est - report.elbo_exact) < 3 * se


def test_gap_bound_holds_on_random_instances(rng):
    for seed in range(8):
        k = int(rng.integers(2, 5))
        m = int(rng.integers(2, 12))
        d = Dictionary.random(m, k, seed)
        params = ModelParams(sigma=float(rng.uniform(0.1, 0.6)),
                             b=float(rng.uniform(0.2, 0.8)),
                             b_star=float(rng.uniform(0.01, 0.2)),
                             n=k * k, m=m)
        x = rng.standard_normal(k * k) * 0.7
        report = elbo_lower_bound(x, d, params, posterior_mode(x, d, params))
        assert report.elbo_exact >= report.lower_bound - 1e-12
        assert report.gap <= report.gap_bound + 1e-10


def test_monte_carlo_collapsing_posterior(instance):
    # As b* -> 0 the estimate approaches log joint at the mode plus the
    # entropy constant, up to the vanishing O(b*) expansion terms.
    d, x = instance
    params = ModelParams(sigma=0.3, b=0.4, b_star=1e-6, n=16, m=6)
    z_star = posterior_mode(x, d, params)
    est, se = elbo_monte_carlo(x, d, params, z_star, 100_000, seed=3)
    ref = joint_log_density(x, z_star, d, params) + 6 * np.log(2e-6) + 6
    slack = params.m * params.b_star ** 2 / params.sigma ** 2 \
        + params.m * params.b_star / params.b
    assert abs(est - ref) <= 3 * se + slack


def test_monte_carlo_deterministic_per_seed(instance):
    d, x = instance
    z_star = posterior_mode(x, d, PARAMS)
    a = elbo_monte_carlo(x, d, PARAMS, z_star, 50_000, seed=11)
    b = elbo_monte_carlo(x, d, PARAMS, z_star, 50_000, seed=11)
    c = elbo_monte_carlo(x, d, PARAMS, z_star, 50_000, seed=12)
    assert a == b
    assert a != c


def test_monte_carlo_is_mean_joint_density_over_laplace_samples(instance, monkeypatch):
    # A small block size makes 2,500 samples span three blocks, the last one short.
    monkeypatch.setattr(elbo, "_MC_BLOCK", 1000)
    d, x = instance
    z_star = posterior_mode(x, d, PARAMS)
    est, _ = elbo_monte_carlo(x, d, PARAMS, z_star, 2500, seed=4)
    samples = sample_laplace(z_star, PARAMS.b_star, 2500, seed=4)
    mean_logp = np.mean([joint_log_density(x, z, d, PARAMS) for z in samples])
    entropy = PARAMS.m * np.log(2.0 * PARAMS.b_star) + PARAMS.m
    assert abs(est - (mean_logp + entropy)) <= 1e-12 * max(1.0, abs(est))


@pytest.mark.parametrize("m", [1, 2])
def test_log_evidence_dominates_elbo(m):
    k = 2 if m == 2 else 1
    d = Dictionary.random(m, k, 31 + m)
    params = ModelParams(sigma=0.25, b=0.5, b_star=0.08, n=k * k, m=m)
    rng = np.random.default_rng(m)
    x = rng.standard_normal(k * k) * 0.4
    z_star = posterior_mode(x, d, params)
    evidence = log_evidence_quadrature(x, d, params, points=2001)
    mc, se = elbo_monte_carlo(x, d, params, z_star, 100_000, seed=2)
    report = elbo_lower_bound(x, d, params, z_star)
    assert evidence >= mc - 3 * se - 1e-6
    assert evidence >= report.elbo_exact - 1e-6


def test_quadrature_streams_the_bench_grid():
    # m = 2, k = 4 at 2001 points is the benchmark's quadrature. The
    # reference evaluates every node's log weight and density as the
    # whole-grid formula does, one grid row at a time, then takes a
    # single logsumexp over all 2001^2 nodes.
    import tracemalloc
    from scipy.special import logsumexp
    d = Dictionary.random(2, 4, 17)
    params = ModelParams(sigma=0.3, b=0.4, b_star=0.05, n=16, m=2)
    x = np.random.default_rng(5).standard_normal(16) * 0.6
    points, span = 2001, 30.0
    axis = np.linspace(-span * params.b, span * params.b, points)
    stepw = np.full(points, axis[1] - axis[0])
    stepw[0] *= 0.5
    stepw[-1] *= 0.5
    dm = dense_matrix(d)
    rows = []
    for i in range(points):
        z = np.stack([np.full(points, axis[i]), axis], axis=1)
        residual = z @ dm.T - x[None, :]
        logp = (-0.5 * params.n * np.log(2.0 * np.pi * params.sigma ** 2)
                - np.sum(residual * residual, axis=1) / (2.0 * params.sigma ** 2)
                - 2 * np.log(2.0 * params.b)
                - np.sum(np.abs(z), axis=1) / params.b)
        rows.append(logp + np.log(stepw[i]) + np.log(stepw))
    expected = float(logsumexp(np.concatenate(rows)))
    del rows
    tracemalloc.start()
    try:
        got = log_evidence_quadrature(x, d, params, points=points)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == pytest.approx(expected, rel=1e-12)
    assert peak <= 100e6


def test_quadrature_budget_guard():
    d = Dictionary.random(4, 2, 3)
    params = ModelParams(sigma=0.3, b=0.4, b_star=0.05, n=4, m=4)
    with pytest.raises(ContractError):
        log_evidence_quadrature(np.zeros(4), d, params, points=2001)


@pytest.mark.parametrize("points", [1, 0])
def test_quadrature_rejects_bad_grid(points):
    d = Dictionary.random(1, 2, 3)
    params = ModelParams(sigma=0.3, b=0.4, b_star=0.05, n=4, m=1)
    with pytest.raises(ContractError):
        log_evidence_quadrature(np.zeros(4), d, params, points=points)


def test_params_validation():
    with pytest.raises(ContractError):
        ModelParams(sigma=0.0, b=1.0, b_star=1.0, n=1, m=1)
    with pytest.raises(ContractError):
        elbo_monte_carlo(np.zeros(1), Dictionary(np.ones((1, 1, 1))),
                         ModelParams(sigma=1, b=1, b_star=1, n=1, m=1),
                         np.zeros(1), n_samples=10)


def test_verify_bounds_script_reports_no_violations():
    # The script runs posterior_mode, the closed-form and Monte-Carlo
    # ELBOs and the quadrature on random small models.
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run([sys.executable, "scripts/verify_bounds.py", "--instances", "4",
                           "--mc-samples", "5000", "--seed", "0"],
                          cwd=root, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    assert "\n0 violations" in proc.stdout


@pytest.mark.parametrize("flags", [["--instances", "0"], ["--instances", "-3"],
                                   ["--mc-samples", "10"]])
def test_verify_bounds_script_refuses_bad_counts(flags):
    # argparse refuses them before any work: no table, exit 2.
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run([sys.executable, "scripts/verify_bounds.py", *flags],
                          cwd=root, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2 and proc.stdout == ""
    assert f"{flags[0]} must be at least" in proc.stderr
