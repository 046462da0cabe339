import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dictolearn.operators import ContractError, ConvSynthesis, Dictionary, ImageGrid, PatchSynthesis
from dictolearn.analytics import random_ellipse_phantom
from dictolearn.sparse import (
    GAP_CHECK_EVERY,
    DivergenceError,
    SparseCodeConfig,
    SynthesisCoupling,
    accelerated_descent,
    duality_gap,
    fista_sparse_code,
    soft_threshold,
    sparse_objective,
)
from dictolearn.elbo import dense_matrix
from conftest import cd_sparse_solve, estimate_lipschitz


def tiny_patch_instance(seed, m=6, k=4):
    """n = k*k pixel signal coded as a single patch tile."""
    r = np.random.default_rng(seed)
    d = Dictionary.random(m, k, seed)
    x = r.standard_normal(k * k) * 0.5
    return d, x


def test_soft_threshold_trivials():
    np.testing.assert_array_equal(soft_threshold(np.array([0.0, 0.0]), 1.0), [0.0, 0.0])
    u = np.array([0.3, -2.0, 1.1])
    np.testing.assert_array_equal(soft_threshold(u, 0.0), u)
    np.testing.assert_allclose(soft_threshold(np.array([1.5, -0.3, 0.7]), 0.5),
                               [1.0, 0.0, 0.2], atol=1e-15)


def test_soft_threshold_matches_scalar_prox_grid_search():
    grid = np.arange(-3.0, 3.0 + 1e-9, 1e-4)
    for u in (1.5, -0.3, 0.7):
        for tau in (0.5, 1.2):
            vals = tau * np.abs(grid) + 0.5 * (grid - u) ** 2
            best = grid[np.argmin(vals)]
            assert abs(best - soft_threshold(np.array([u]), tau)[0]) <= 1e-4


def test_soft_threshold_negative_tau_rejected():
    with pytest.raises(ContractError):
        soft_threshold(np.array([1.0]), -0.1)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.floats(0, 2))
def test_soft_threshold_nonexpansive(seed, tau):
    r = np.random.default_rng(seed)
    u = r.standard_normal(20)
    v = r.standard_normal(20)
    lhs = np.linalg.norm(soft_threshold(u, tau) - soft_threshold(v, tau))
    assert lhs <= np.linalg.norm(u - v) + 1e-12


@pytest.mark.parametrize("tau", [0.0, 0.4, 1.3])
def test_soft_threshold_matches_sign_formula(rng, tau):
    u = rng.standard_normal((5, 7, 9))
    u.flat[:6] = [tau, -tau, 0.0, -0.0, tau, -tau]
    before = u.copy()
    got = soft_threshold(u, tau)
    np.testing.assert_array_equal(got, np.sign(u) * np.maximum(np.abs(u) - tau, 0.0))
    np.testing.assert_array_equal(u, before)


def test_soft_threshold_scalars_lists_and_dtypes():
    assert soft_threshold(1.5, 0.5) == 1.0
    assert soft_threshold(np.float64(-0.2), 0.5) == 0.0
    assert soft_threshold(np.array(-2.0), 0.5) == -1.5
    np.testing.assert_array_equal(soft_threshold([1.5, -0.3, -2.0], 0.5), [1.0, 0.0, -1.5])
    ints = soft_threshold(np.array([3, -1, 0]), 1)
    assert ints.dtype == np.float64
    np.testing.assert_array_equal(ints, [2.0, 0.0, 0.0])
    singles = soft_threshold(np.array([1.5, -0.25], dtype=np.float32), 0.5)
    assert singles.dtype == np.float32
    np.testing.assert_array_equal(singles, np.array([1.0, 0.0], dtype=np.float32))


def test_estimate_lipschitz_matches_dense_eigensolver(rng):
    d = Dictionary.random(2, 3, 41)
    # Assemble S^T S for the 8x8 convolutional operator explicitly.
    cols = []
    for i in range(2):
        for r in range(8):
            for c in range(8):
                e = np.zeros((2, 8, 8))
                e[i, r, c] = 1.0
                cols.append(ConvSynthesis(d, (8, 8)).apply(e).ravel())
    S = np.stack(cols, axis=1)
    true = np.linalg.eigvalsh(S.T @ S).max()
    est = estimate_lipschitz(ConvSynthesis(d, (8, 8)), power_iters=100)
    assert abs(est - true) / true < 0.01


def test_fista_zero_signal():
    d, _ = tiny_patch_instance(5)
    z, trace = fista_sparse_code(d, ImageGrid(np.zeros((4, 4))),
                                 SparseCodeConfig(lam=0.3, max_iters=20))
    assert z.shape == (6, 1, 1) and np.all(z == 0.0)
    assert trace[-1] == 0.0


def test_fista_matches_coordinate_descent_oracle():
    for seed in range(3):
        d, x = tiny_patch_instance(seed)
        z_cd = cd_sparse_solve(dense_matrix(d), x, 0.1)
        obj_cd = float(np.sum((dense_matrix(d) @ z_cd - x) ** 2) + 0.1 * np.sum(np.abs(z_cd)))
        _, trace = fista_sparse_code(d, ImageGrid(x.reshape(4, 4)),
                                     SparseCodeConfig(lam=0.1, max_iters=400))
        assert (trace[-1] - obj_cd) / abs(obj_cd) < 1e-6


def test_fista_kill_threshold(rng):
    d, x = tiny_patch_instance(9)
    kill = 2.0 * float(np.max(np.abs(dense_matrix(d).T @ x)))
    z, _ = fista_sparse_code(d, ImageGrid(x.reshape(4, 4)),
                             SparseCodeConfig(lam=kill * 1.000001, max_iters=50))
    assert np.count_nonzero(z) == 0


def test_fista_trace_monotone(rng):
    d = Dictionary.random(4, 3, 43)
    x = ImageGrid(rng.standard_normal((9, 9)))
    _, trace = fista_sparse_code(d, x, SparseCodeConfig(lam=0.05, max_iters=120))
    assert trace[-1] <= trace[0]
    assert np.all(np.diff(trace) <= 1e-10 * trace[0])


def count_synthesis_calls(monkeypatch, op_class):
    """Count ``apply`` and ``adjoint`` calls of ``op_class`` in the returned dict."""
    calls = {"apply": 0, "adjoint": 0}

    def counted(name):
        method = getattr(op_class, name)

        def wrapper(self, arg):
            calls[name] += 1
            return method(self, arg)
        return wrapper

    monkeypatch.setattr(op_class, "apply", counted("apply"))
    monkeypatch.setattr(op_class, "adjoint", counted("adjoint"))
    return calls


def phantom_crop():
    """64x64 crop of a 128x128 phantom, coded with 64 random 8x8 atoms."""
    x = ImageGrid(random_ellipse_phantom(128, seed=3).values[32:96, 40:104])
    return Dictionary.random(64, 8, 47), x


def test_patch_fista_makes_no_synthesis_round_trip(monkeypatch):
    # Sparse coding runs in Gram form: S^T x once per solve, then one
    # (tiles x m)(m x m) product per iteration and no apply of S.
    calls = count_synthesis_calls(monkeypatch, PatchSynthesis)
    d, x = phantom_crop()
    fista_sparse_code(d, x, SparseCodeConfig(lam=0.05, max_iters=40))
    assert calls == {"apply": 0, "adjoint": 1}


def test_patch_fista_gram_form_matches_residual_form():
    d, x = phantom_crop()
    lam, iters = 0.05, 40
    z, trace = fista_sparse_code(d, x, SparseCodeConfig(lam=lam, max_iters=iters))

    reference = SynthesisCoupling(PatchSynthesis(d, x.shape), 1.0, lam)

    def step(point, scale):
        return reference.step(x.values, *point, scale)

    start, parts = reference.start(x.values)
    (z_ref, _), _ = accelerated_descent(step, start, sum(parts), iters)
    assert np.max(np.abs(z - z_ref)) <= 1e-12
    assert trace[-1] == pytest.approx(sparse_objective(d, z, x, lam), rel=1e-12)


def dense_relative_gap(D, x, z, lam):
    """``(P(z) - D(s r)) / P(z)`` from the residual r = x - D z, with no Gram form."""
    r = x - D @ z
    primal = float(r @ r + lam * np.sum(np.abs(z)))
    s = min(1.0, lam / (2.0 * float(np.max(np.abs(D.T @ r)))))
    dual = 2.0 * s * float(x @ r) - s * s * float(r @ r)
    return (primal - dual) / primal


def test_duality_gap_matches_dense_computation(rng):
    d, x = tiny_patch_instance(21)
    D, image = dense_matrix(d), ImageGrid(x.reshape(4, 4))
    for lam in (0.05, 0.3, 2.0):
        for scale in (0.01, 0.3, 3.0):
            z = rng.standard_normal(6) * scale
            gap = duality_gap(d, image, z, lam)
            assert gap >= -1e-13
            assert gap == pytest.approx(dense_relative_gap(D, x, z, lam), rel=1e-9, abs=1e-13)


def test_duality_gap_bounds_the_suboptimality():
    d, x = tiny_patch_instance(13)
    D, lam = dense_matrix(d), 0.2
    z_star = cd_sparse_solve(D, x, lam, iters=200000, tol=1e-16)
    p_star = float(np.sum((D @ z_star - x) ** 2) + lam * np.sum(np.abs(z_star)))
    image = ImageGrid(x.reshape(4, 4))
    assert abs(duality_gap(d, image, z_star, lam)) < 1e-12
    for z in (np.zeros(6), z_star + 0.01, 0.5 * z_star):
        primal = float(np.sum((D @ z - x) ** 2) + lam * np.sum(np.abs(z)))
        assert duality_gap(d, image, z, lam) * primal >= primal - p_star - 1e-12


def test_duality_gap_zero_signal():
    d, _ = tiny_patch_instance(5)
    assert duality_gap(d, ImageGrid(np.zeros((4, 4))), np.zeros(6), 0.3) == 0.0


def test_gap_stop_truncates_the_trajectory():
    # The stopped iterate is bit for bit the one a run of as many
    # iterations without a stop test returns, and it is certified.
    d, x = phantom_crop()
    cfg = SparseCodeConfig(lam=0.05, max_iters=2000)
    z, trace = fista_sparse_code(d, x, cfg, gap_tol=1e-6)
    done = len(trace)
    assert done < cfg.max_iters and done % GAP_CHECK_EVERY == 0
    assert duality_gap(d, x, z, cfg.lam) <= 1e-6
    z_ref, trace_ref = fista_sparse_code(d, x, SparseCodeConfig(lam=0.05, max_iters=done))
    assert np.array_equal(z, z_ref) and np.array_equal(trace, trace_ref)
    _, earlier = fista_sparse_code(d, x, SparseCodeConfig(lam=0.05, max_iters=done - GAP_CHECK_EVERY),
                                   gap_tol=1e-6)
    assert len(earlier) == done - GAP_CHECK_EVERY


def test_gap_tolerance_needs_patch_mode(rng):
    # Sparse coding synthesizes by patches: any other mode is refused, with
    # or without a gap tolerance, and a "patch" passed by position (as
    # perfbench's training workload does) is the default call bit for bit.
    d = Dictionary.random(4, 3, 43)
    x, cfg = ImageGrid(rng.standard_normal((9, 9))), SparseCodeConfig(lam=0.05)
    for gap_tol in (None, 1e-6):
        with pytest.raises(ContractError):
            fista_sparse_code(d, x, cfg, "convolutional", gap_tol=gap_tol)
    z, trace = fista_sparse_code(d, x, cfg, "patch")
    z_ref, trace_ref = fista_sparse_code(d, x, cfg)
    assert np.array_equal(z, z_ref) and np.array_equal(trace, trace_ref)


def test_descent_stop_test_sees_each_state():
    seen = []

    def stop(done, state, parts):
        seen.append((done, state[0][0], parts[0]))
        return done == 4

    state, run = accelerated_descent(quadratic_step(1.0, 1.0), (np.ones(3),), 1.5, 10, stop)
    assert [s[0] for s in seen] == [1, 2, 3, 4] and len(run.parts) == 4
    assert seen[-1][1] == state[0][0] and seen[-1][2] == run.parts[-1][0]


def test_fista_fixed_point():
    d, x = tiny_patch_instance(13)
    D = dense_matrix(d)
    lam = 0.2
    z_star = cd_sparse_solve(D, x, lam, iters=200000, tol=1e-16)
    # One proximal-gradient step from the optimum returns the optimum.
    lip = np.linalg.eigvalsh(D.T @ D).max()
    step = 1.0 / (2.0 * lip)
    grad = 2.0 * D.T @ (D @ z_star - x)
    z_next = np.sign(z_star - step * grad) * np.maximum(np.abs(z_star - step * grad) - lam * step, 0.0)
    assert np.max(np.abs(z_next - z_star)) < 1e-12


def test_sparse_objective_trivials(rng):
    d, x = tiny_patch_instance(17)
    z0 = PatchSynthesis(d, (4, 4)).zeros()
    img = ImageGrid(x.reshape(4, 4))
    assert abs(sparse_objective(d, z0, img, 0.7) - np.sum(x * x)) < 1e-12


def test_sparse_objective_least_squares_oracle():
    d, x = tiny_patch_instance(19, m=6, k=4)
    D = dense_matrix(d)
    z_ls, *_ = np.linalg.lstsq(D, x, rcond=None)
    obj = sparse_objective(d, z_ls.reshape(6, 1, 1), ImageGrid(x.reshape(4, 4)), 0.0)
    resid = float(np.sum((D @ z_ls - x) ** 2))
    assert abs(obj - resid) < 1e-12


def test_sparse_objective_hand_instance():
    # x equals the first atom, z = e1, lam = 1: exact fit, ||z||_1 = 1.
    d = Dictionary.random(3, 4, 23)
    x = ImageGrid(d.atoms[0])
    z = np.zeros((3, 1, 1))
    z[0, 0, 0] = 1.0
    obj = sparse_objective(d, z, x, 1.0)
    assert abs(obj - 1.0) < 1e-12


def test_config_validation():
    with pytest.raises(ContractError):
        SparseCodeConfig(lam=-1.0)
    with pytest.raises(ContractError):
        SparseCodeConfig(max_iters=0)


def test_divergence_error_carries_iterate_dump(monkeypatch):
    d, x = tiny_patch_instance(29)
    # A bogus tiny curvature bound makes the step size explode; the
    # overflow on the way to inf is the scenario under test.
    monkeypatch.setattr(PatchSynthesis, "norm_sq", lambda self: 1e-12)
    with pytest.raises(DivergenceError) as err, np.errstate(over="ignore"):
        fista_sparse_code(d, ImageGrid(x.reshape(4, 4)),
                          SparseCodeConfig(lam=0.1, max_iters=200))
    dump = err.value.dump
    assert {"iteration", "objective", "max_abs_z", "lipschitz"} <= set(dump)
    assert dump["lipschitz"] == 1e-12


def quadratic_step(curvature, lipschitz):
    """Gradient step on ``0.5 * sum(curvature * z**2)`` with bound ``lipschitz * scale``."""
    def step(point, scale):
        (z,) = point
        z_new = z - curvature * z / (lipschitz * scale)
        return (z_new,), (0.5 * float(np.sum(curvature * z_new * z_new)),)
    return step


def test_descent_restarts_momentum_on_extrapolated_rise():
    curvature = np.array([1.0, 100.0])
    start = np.array([1.0, 1.0])
    f_start = 0.5 * float(np.sum(curvature * start ** 2))
    _, run = accelerated_descent(quadratic_step(curvature, 100.0), (start,), f_start, 200)
    obj = np.array([p[0] for p in run.parts])
    assert run.restarts > 0
    assert run.halvings == run.unresolved == 0
    assert np.all(np.diff(obj) <= 1e-12 * f_start)


@pytest.mark.parametrize("too_small, unresolved", [(3.0, 0), (5.0, 6)])
def test_descent_halves_once_then_counts_kept_rises(too_small, unresolved):
    # With a bound too_small times below the curvature a plain step
    # rises. Doubling the bound repairs a factor below 4; past that every
    # step rises even without momentum, and each kept rise is counted.
    _, run = accelerated_descent(quadratic_step(1.0, 1.0 / too_small), (np.ones(3),), 1.5, 6)
    obj = np.array([1.5] + [p[0] for p in run.parts])
    assert run.halvings == 1
    assert run.unresolved == unresolved == int(np.sum(np.diff(obj) > 0.0))


def test_descent_ignores_rises_within_slack():
    # Each objective sits 4e-12 above the last accepted one, inside the
    # slack 1e-12 * |f_start| = 1e-11; over 20 iterations the rises add
    # up to 8e-11, beyond it, so the reference is the last accepted value.
    scales = []

    def step(point, scale):
        scales.append(scale)
        return (0.5 * point[0],), (10.0 + 4e-12 * len(scales),)

    _, run = accelerated_descent(step, (np.ones(3),), 10.0, 20)
    assert scales == [1.0] * 20
    assert run.restarts == run.halvings == run.unresolved == 0


def test_descent_non_finite_objective_raises_with_dump():
    calls = []

    def step(point, scale):
        calls.append(scale)
        return (point[0] + 1.0,), (np.inf if len(calls) == 3 else -float(len(calls)),)

    with pytest.raises(DivergenceError) as err:
        accelerated_descent(step, (np.zeros(2),), 0.0, 10)
    dump = err.value.dump
    assert dump["iteration"] == 2
    assert dump["objective"] == np.inf
    assert dump["trace"] == [-1.0, -2.0]
    assert len(dump["max_abs"]) == 1 and dump["max_abs"][0] > 2.0
