import dataclasses
import threading
from concurrent.futures import Future

import numpy as np
import pytest

from dictolearn import recon, sparse
from dictolearn.analytics import shepp_logan
from dictolearn.operators import ContractError, ConvSynthesis, Dictionary, ImageGrid, PatchSynthesis
from dictolearn.recon import (
    HuberConfig,
    ReconConfig,
    _HuberPenalty,
    _OverlapPatchCoupling,
    _accelerated_recon,
    huber_loss_and_gradient,
    huber_value,
    image_gradient,
    image_gradient_adjoint,
    reconstruct_dict,
    reconstruct_dict_patch,
    reconstruct_huber,
)
from dictolearn.sparse import SparseCodeConfig, SynthesisCoupling, fista_sparse_code, soft_threshold
from dictolearn.tomo import (
    AcquisitionGeometry,
    NoiseModel,
    Sinogram,
    forward_project,
    get_projector,
    likelihood_weights,
    linearize,
    simulate_counts,
)
from dictolearn import tomo
from conftest import adjoint_rel_err


GEOM = AcquisitionGeometry(num_angles=60, num_bins=72, detector_spacing=2.0)
N = 48
SPACING = 2.0


@pytest.fixture(scope="module")
def noisy_problem():
    ph = ImageGrid(shepp_logan(N, "modified").values * 0.04, SPACING)
    counts = simulate_counts(ph, GEOM, NoiseModel(50_000.0, seed=3))
    y = linearize(counts, 50_000.0, GEOM)
    return ph, y


@pytest.fixture(scope="module")
def dictionary():
    return Dictionary.random(12, 8, 77)


def _layout_problem():
    # 5 atoms of side 4 on a 12x12 grid: 3x3 tiles, 15x15 patch positions.
    d = Dictionary.random(5, 4, 41)
    x = ImageGrid(np.random.default_rng(41).random((12, 12)) * 0.05)
    return d, x, forward_project(x, AcquisitionGeometry(num_angles=8, num_bins=16,
                                                        detector_spacing=1.0))


LAYOUT_PRODUCERS = {
    "zeros-conv": (lambda d, x, y: ConvSynthesis(d, x.shape).zeros(), 12),
    "zeros-patch": (lambda d, x, y: PatchSynthesis(d, x.shape).zeros(), 3),
    "adjoint-conv": (lambda d, x, y: ConvSynthesis(d, x.shape).adjoint(x.values), 12),
    "adjoint-patch": (lambda d, x, y: PatchSynthesis(d, x.shape).adjoint(x.values), 3),
    "fista-patch": (lambda d, x, y: fista_sparse_code(
        d, x, SparseCodeConfig(lam=0.01, max_iters=3))[0], 3),
    "reconstruct-dict": (lambda d, x, y: reconstruct_dict(
        y, d, ReconConfig(iters=2), x.shape, return_coefficients=True)[2], 12),
    "reconstruct-dict-patch": (lambda d, x, y: reconstruct_dict_patch(
        y, d, ReconConfig(iters=2), x.shape, return_coefficients=True)[2], 12 + 4 - 1),
}


@pytest.mark.parametrize("name", LAYOUT_PRODUCERS)
def test_coefficients_are_channel_first(name):
    # Every producer of z gives one map per atom: (m, rows, cols).
    producer, rows = LAYOUT_PRODUCERS[name]
    assert producer(*_layout_problem()).shape == (5, rows, rows)


def test_reconstruct_dict_huge_lambda2_kills_coefficients(noisy_problem, dictionary):
    _, y = noisy_problem
    cfg = ReconConfig(lambda1=100.0, lambda2=1e9, iters=25, lowpass_cutoff=0.10, seed=0)
    _, trace = reconstruct_dict(y, dictionary, cfg, (N, N), SPACING)
    data, _, l1 = zip(*trace.parts)
    assert max(l1) == 0.0
    assert data[-1] <= data[0]


def _leaves(value):
    """Every non-container value reachable from ``value`` through dicts, lists and tuples."""
    if isinstance(value, dict):
        return [leaf for v in value.values() for leaf in _leaves(v)]
    if isinstance(value, (list, tuple)):
        return [leaf for v in value for leaf in _leaves(v)]
    return [value]


@pytest.mark.parametrize("solver", [reconstruct_dict, reconstruct_dict_patch])
def test_trace_is_a_state_free_record(solver, noisy_problem, dictionary):
    # The objective is the sum of the parts, bit for bit, and the record
    # holds numbers only: no iterate outlives the solve through it.
    _, y = noisy_problem
    cfg = ReconConfig(lambda1=500.0, lambda2=0.1, iters=6, lowpass_cutoff=0.10)
    _, trace = solver(y, dictionary, cfg, (N, N), SPACING)
    assert len(trace.parts) == cfg.iters and all(len(p) == 3 for p in trace.parts)
    assert trace.objective == [sum(p) for p in trace.parts]
    leaves = _leaves(vars(trace))
    assert not any(isinstance(leaf, np.ndarray) for leaf in leaves)
    assert all(type(leaf) in (int, float) for leaf in leaves)


@pytest.mark.parametrize("solver", [reconstruct_dict, reconstruct_dict_patch])
def test_trace_reports_the_minimized_objective(solver, noisy_problem, dictionary):
    # The last trace entry, recomputed term by term from the returned image
    # and z with independent formulas: the data term on A(image) - y by
    # linearity, and the coupling on the high-pass part of the image.
    _, y = noisy_problem
    cfg = ReconConfig(lambda1=500.0, lambda2=0.1, iters=20, lowpass_cutoff=0.10)
    image, trace, z = solver(y, dictionary, cfg, (N, N), SPACING, return_coefficients=True)
    proj = get_projector(GEOM, (N, N), SPACING)
    d = proj.forward(image.values) - y.values
    data = np.sum(np.exp(-y.values) * d * d)
    x_hf = image.values - tomo.fbp(y, (N, N), SPACING, window="hann",
                                   cutoff=cfg.lowpass_cutoff).values
    k = dictionary.atom_side
    if solver is reconstruct_dict:
        synth = ConvSynthesis(dictionary, (N, N)).apply(z)
        coupling = cfg.lambda1 * np.sum((x_hf - synth) ** 2)
        l1 = cfg.lambda2 * np.sum(np.abs(z))
    else:
        padded = np.pad(x_hf, k - 1)
        coupling = 0.0
        for r in range(N + k - 1):
            for c in range(N + k - 1):
                tile = np.tensordot(z[:, r, c], dictionary.atoms, axes=1)
                coupling += np.sum((padded[r:r + k, c:c + k] - tile) ** 2)
        coupling *= cfg.lambda1 / k ** 2
        l1 = cfg.lambda2 / k ** 2 * np.sum(np.abs(z))
    assert np.max(np.abs(z)) > 0
    expected = data + coupling + l1
    assert abs(trace.objective[-1] - expected) <= 1e-10 * abs(expected)


def test_reconstruct_traces_monotone(noisy_problem, dictionary):
    _, y = noisy_problem
    cfg = ReconConfig(lambda1=500.0, lambda2=0.1, iters=60, lowpass_cutoff=0.10, seed=0)
    traces = [solver(y, dictionary, cfg, (N, N), SPACING)[1].objective
              for solver in (reconstruct_dict, reconstruct_dict_patch)]
    huber_cfg = HuberConfig(lam=0.2, gamma=2e-4, iters=60)
    traces.append(reconstruct_huber(y, huber_cfg, (N, N), SPACING, return_trace=True)[1])
    for trace in traces:
        obj = np.asarray(trace)
        assert np.all(np.diff(obj) <= 1e-8 * abs(obj[0]))


def test_reconstruct_double_iterations_runs(noisy_problem, dictionary):
    # The iteration count is part of the method (early stopping); doubling
    # it must still run to completion without diverging.
    _, y = noisy_problem
    cfg = ReconConfig(lambda1=500.0, lambda2=0.1, iters=40, lowpass_cutoff=0.10, seed=0)
    img, trace = reconstruct_dict(y, dictionary, cfg, (N, N), SPACING)
    assert len(trace.objective) == 40
    assert np.all(np.isfinite(img.values))
    cfg2 = ReconConfig(lambda1=500.0, lambda2=0.1, iters=80, lowpass_cutoff=0.10, seed=0)
    img2, trace2 = reconstruct_dict(y, dictionary, cfg2, (N, N), SPACING)
    assert len(trace2.objective) == 80
    assert np.all(np.isfinite(img2.values))


def test_reconstruct_dict_synthesis_call_count(noisy_problem, dictionary, monkeypatch):
    # One synthesis per iteration plus the initial one, one adjoint per
    # iteration: the z step size costs no operator applications.
    _, y = noisy_problem
    calls = {"apply": 0, "adjoint": 0}

    def counted(name):
        method = getattr(ConvSynthesis, name)

        def wrapper(self, arg):
            calls[name] += 1
            return method(self, arg)
        return wrapper

    monkeypatch.setattr(ConvSynthesis, "apply", counted("apply"))
    monkeypatch.setattr(ConvSynthesis, "adjoint", counted("adjoint"))
    cfg = ReconConfig(lambda1=500.0, lambda2=0.1, iters=5, lowpass_cutoff=0.10, seed=0)
    _, trace = reconstruct_dict(y, dictionary, cfg, (N, N), SPACING)
    assert trace.restarts == 0
    assert calls == {"apply": 6, "adjoint": 5}


DICT_CFG = ReconConfig(lambda1=500.0, lambda2=0.1, iters=40, lowpass_cutoff=0.10)
HUBER_CFG = HuberConfig(lam=0.2, gamma=2e-4, iters=40)


def _driver_inputs(name, y, dictionary):
    """The projector, weights, data target, start and penalty each solver hands the driver.

    The couplings start from the low-pass split at ``DICT_CFG``; Huber
    from its FBP, with the whole sinogram as the target.
    """
    proj = get_projector(GEOM, (N, N), SPACING)
    if name == "huber":
        x = tomo.fbp(y, (N, N), SPACING, window="hann", cutoff=0.75).values
        return proj, likelihood_weights(y), y.values, x, _HuberPenalty(HUBER_CFG)
    x_lf = tomo.fbp(y, (N, N), SPACING, window="hann", cutoff=DICT_CFG.lowpass_cutoff).values
    x = tomo.fbp(y, (N, N), SPACING, window="hann", cutoff=1.0).values - x_lf
    penalty = COUPLINGS[name](dictionary, (N, N), DICT_CFG.lambda1, DICT_CFG.lambda2)
    return proj, likelihood_weights(y), y.values - proj.forward(x_lf), x, penalty


def test_unresolved_rises_are_counted(noisy_problem, dictionary):
    # A z step bound five times too small stays invalid after the single
    # halving, so rises survive both retries; each kept rise is counted.
    _, y = noisy_problem
    *inputs, coupling = _driver_inputs("convolutional", y, dictionary)
    coupling.lz *= 0.2
    _, trace = _accelerated_recon(*inputs, coupling, 12)
    obj = np.asarray(trace.objective)
    assert np.all(np.isfinite(obj))
    slack = 1e-12 * max(1.0, abs(obj[0]))
    rises = int(np.sum(np.diff(obj) > slack))
    assert rises > 0
    assert trace.unresolved == rises
    assert trace.halvings == 1


class _InlineExecutor:
    """Test stand-in for ``ThreadPoolExecutor``: ``submit`` runs the call at once."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        done = Future()
        try:
            done.set_result(fn(*args))
        except Exception as exc:
            done.set_exception(exc)
        return done


@pytest.mark.parametrize("solver", [reconstruct_dict, reconstruct_dict_patch])
def test_overlapped_forward_is_bit_identical(solver, noisy_problem, dictionary, monkeypatch):
    # The forward, data term and adjoint on the worker compute what the
    # calling thread computes when each call runs at once: nothing moves by a bit,
    # neither the iterates nor any field of the record.
    _, y = noisy_problem
    cfg = ReconConfig(lambda1=500.0, lambda2=0.1, iters=25, lowpass_cutoff=0.10)
    runs = []
    for executor in (recon.ThreadPoolExecutor, _InlineExecutor):
        monkeypatch.setattr(recon, "ThreadPoolExecutor", executor)
        image, trace, z = solver(y, dictionary, cfg, (N, N), SPACING, return_coefficients=True)
        runs.append((image.values, z, trace))
    (x_pool, z_pool, pool), (x_inline, z_inline, inline) = runs
    np.testing.assert_array_equal(x_pool, x_inline)
    np.testing.assert_array_equal(z_pool, z_inline)
    for field in ("objective", "parts", "restarts", "halvings", "unresolved"):
        assert getattr(pool, field) == getattr(inline, field)
    assert np.max(np.abs(z_pool)) > 0


class _ThirdForward(RuntimeError):
    pass


def test_no_thread_outlives_a_solve(noisy_problem, dictionary, monkeypatch):
    # The worker is joined when a solve returns and when it raises; an
    # exception raised on the worker reaches the caller as it was raised.
    _, y = noisy_problem
    cfg = ReconConfig(lambda1=500.0, lambda2=0.1, iters=4, lowpass_cutoff=0.10)
    get_projector(GEOM, (N, N), SPACING).norm_sq()  # cached: no forward of its own below
    before = threading.active_count()
    reconstruct_dict(y, dictionary, cfg, (N, N), SPACING)
    assert threading.active_count() == before

    caller = threading.current_thread()
    raised = _ThirdForward("third forward")
    forward = tomo.Projector.forward
    on_caller = []

    def failing(self, values):
        on_caller.append(threading.current_thread() is caller)
        if len(on_caller) == 3:
            raise raised
        return forward(self, values)

    monkeypatch.setattr(tomo.Projector, "forward", failing)
    with pytest.raises(_ThirdForward) as caught:
        reconstruct_dict(y, dictionary, cfg, (N, N), SPACING)
    assert caught.value is raised
    # The low-pass residual and the start run on the caller, the first step's on the worker.
    assert on_caller == [True, True, False]
    assert threading.active_count() == before


SOLVES = {
    "dict": lambda y, d, iters: reconstruct_dict(y, d, dataclasses.replace(DICT_CFG, iters=iters),
                                                 (N, N), SPACING),
    "dict-patch": lambda y, d, iters: reconstruct_dict_patch(
        y, d, dataclasses.replace(DICT_CFG, iters=iters), (N, N), SPACING),
    "huber": lambda y, d, iters: reconstruct_huber(
        y, dataclasses.replace(HUBER_CFG, iters=iters), (N, N), SPACING),
}


@pytest.mark.parametrize("solve, forwards, adjoints", [("dict", 2, 3), ("dict-patch", 2, 3),
                                                       ("huber", 1, 2)],
                         ids=["reconstruct_dict", "reconstruct_dict_patch", "reconstruct_huber"])
def test_a_step_runs_its_projector_products_on_the_worker(solve, forwards, adjoints,
                                                          noisy_problem, dictionary, monkeypatch):
    # Before the first step the caller makes its start's products: for the
    # dictionary methods two forwards (the low-pass residual and the start)
    # and three adjoints (the two FBPs and the start's data gradient), for
    # Huber one forward and two adjoints (its FBP and the start's gradient).
    # Each step then makes one forward and one adjoint, both on the worker,
    # so the x step takes no product of A; a restart would add a step.
    _, y = noisy_problem
    iters = 5
    get_projector(GEOM, (N, N), SPACING).norm_sq()  # cached: no products of its own below
    caller = threading.current_thread()
    on_caller = {"forward": [], "adjoint": []}

    def recorded(name):
        method = getattr(tomo.Projector, name)

        def wrapper(self, values):
            on_caller[name].append(threading.current_thread() is caller)
            return method(self, values)
        return wrapper

    for name in on_caller:
        monkeypatch.setattr(tomo.Projector, name, recorded(name))
    SOLVES[solve](y, dictionary, iters)
    assert on_caller["forward"] == [True] * forwards + [False] * iters
    assert on_caller["adjoint"] == [True] * adjoints + [False] * iters


@pytest.mark.parametrize("name", ["convolutional", "overlap", "huber"])
def test_carried_data_gradient_stays_exact(name, noisy_problem, dictionary, monkeypatch):
    # A step bound five times too small forces restarts and the halving:
    # a coupling's z step bound, or Huber's x step bound, data part and
    # penalty part alike. Through all of them the data gradient at every
    # point a step starts from, extrapolated or not, and in the final state
    # is the gradient at that x up to rounding: g is affine in x, and the
    # extrapolation weights sum to 1.
    _, y = noisy_problem
    proj, w, target, x, penalty = _driver_inputs(name, y, dictionary)
    if name == "huber":
        monkeypatch.setattr(recon, "data_lipschitz", lambda *args: 0.2 * tomo.data_lipschitz(*args))
        penalty.lx *= 0.2
    else:
        penalty.lz *= 0.2
    points = []

    def recording(step, *args):
        def recorded(point, scale):
            points.append(point[:2])
            return step(point, scale)
        state, run = sparse.accelerated_descent(recorded, *args)
        points.append(state[:2])
        return state, run

    monkeypatch.setattr(recon, "accelerated_descent", recording)
    iters = 40
    _, trace = _accelerated_recon(proj, w, target, x, penalty, iters)
    assert trace.halvings == 1 and trace.restarts > 0
    errors = []
    for x, g in points:
        fresh = tomo.data_gradient(proj, proj.forward(x), target, w)
        errors.append(np.linalg.norm(g - fresh) / np.linalg.norm(fresh))
    assert len(points) == iters + trace.restarts + trace.halvings + 1
    assert max(errors) <= 1e-9


COUPLINGS = {
    "convolutional": lambda d, shape, l1=1.3, l2=0.2: SynthesisCoupling(ConvSynthesis(d, shape),
                                                                        l1, l2),
    "patch": lambda d, shape, l1=1.3, l2=0.2: SynthesisCoupling(PatchSynthesis(d, shape), l1, l2),
    "overlap": lambda d, shape, l1=1.3, l2=0.2: _OverlapPatchCoupling(d, shape, l1, l2),
}


@pytest.mark.parametrize("name", COUPLINGS)
def test_z_step_leaves_its_inputs_alone(name, rng):
    # The worker reads x while grad_z, synth_value and the z step run on the
    # calling thread, so none of them may write x, z or sz.
    shape = (12, 12)
    coupling = COUPLINGS[name](Dictionary.random(4, 3, 43), shape)
    x = rng.standard_normal(shape)
    z = rng.standard_normal(coupling.z_zero().shape)
    sz = rng.standard_normal(shape)
    inputs = [a.copy() for a in (x, z, sz)]
    coupling.grad_z(x, z, sz)
    coupling.synth_value(x, z)
    coupling.step(x, z, sz, 1.0)
    for kept, now in zip(inputs, (x, z, sz)):
        np.testing.assert_array_equal(now, kept)


def test_clinical_scale_operating_points_are_defaults():
    cfg = ReconConfig()
    assert cfg.lambda1 == 50.0 and cfg.lambda2 == 0.0016
    hcfg = HuberConfig()
    assert hcfg.lam == 5e-4 and hcfg.gamma == 4e-4 and hcfg.iters == 70


def test_patch_and_conv_identical_when_z_dead(noisy_problem, dictionary):
    _, y = noisy_problem
    cfg = ReconConfig(lambda1=200.0, lambda2=1e9, iters=15, lowpass_cutoff=0.10, seed=0)
    img_c, tr_c = reconstruct_dict(y, dictionary, cfg, (N, N), SPACING)
    img_p, tr_p = reconstruct_dict_patch(y, dictionary, cfg, (N, N), SPACING)
    np.testing.assert_array_equal(img_c.values, img_p.values)
    assert max(p[2] for p in tr_c.parts) == max(p[2] for p in tr_p.parts) == 0.0


def test_stationary_point_is_fixed():
    # Engineer an exact stationary pair (x, z) for a problem with an
    # impulse atom (so S is the identity on its single channel), then run
    # the solver's update maps once: nothing may move beyond 1e-10.
    geom = AcquisitionGeometry(num_angles=20, num_bins=16, detector_spacing=1.0)
    n = 8
    lam1, lam2 = 3.0, 0.05
    atom = np.zeros((1, 3, 3))
    atom[0, 1, 1] = 1.0
    d = Dictionary(atom)

    rng = np.random.default_rng(0)
    z_bar = np.zeros((1, n, n))
    z_bar[0, 2:5, 3:6] = rng.standard_normal((3, 3))
    # z prox stationarity forces the coupling residual x - S(z) to equal
    # (lam2 / (2 lam1)) sign(z) on the support (zero elsewhere);
    # x stationarity then pins A^T(w (A x - y)) = -lam1 (x - S(z)).
    r_bar = (lam2 / (2.0 * lam1)) * np.sign(z_bar[0])
    x_bar = z_bar[0] + r_bar

    proj = get_projector(geom, (n, n), 1.0)
    A = proj.matrix.toarray()
    u, *_ = np.linalg.lstsq(A.T, (-lam1 * r_bar).ravel(), rcond=None)
    assert np.linalg.norm(A.T @ u + lam1 * r_bar.ravel()) < 1e-10
    # Weights depend on y which depends on the raw residual v = u / w;
    # the perturbation is tiny, so a short fixed-point loop converges.
    ax = (A @ x_bar.ravel()).reshape(geom.shape)
    y_values = ax.copy()
    for _ in range(60):
        w = np.exp(-y_values)
        y_values = ax - (u.reshape(geom.shape) / w)
    y = Sinogram(y_values, geom)
    w = likelihood_weights(y)
    gx_check = 2.0 * proj.adjoint(w * (ax - y.values)) + 2.0 * lam1 * (x_bar - z_bar[0])
    assert np.max(np.abs(gx_check)) < 1e-9

    # Sanity: the impulse atom makes S the identity on its channel.
    synth = ConvSynthesis(d, (n, n)).apply(z_bar)
    np.testing.assert_allclose(synth, z_bar[0], atol=1e-15)

    # One x gradient step (no momentum on the first iteration).
    lx = 2.0 * float(np.max(w)) * proj.norm_sq() + 2.0 * lam1
    x_next = x_bar - gx_check / lx
    assert np.max(np.abs(x_next - x_bar)) < 1e-10

    # One z proximal step at the updated x.
    lz = 2.0 * lam1
    gz = 2.0 * lam1 * (z_bar - x_next[None])
    z_next = soft_threshold(z_bar - gz / lz, lam2 / lz)
    assert np.max(np.abs(z_next - z_bar)) < 1e-10


def test_overlap_coupling_derivatives(rng):
    # The x step of _accelerated_recon takes 2 lambda1 (x - S z) as the
    # x-derivative of the coupling value; that holds only if the fold in
    # synth_value is the exact adjoint of the patch extraction and every pixel
    # lies in exactly k^2 patches.
    lambda1 = 1.7
    coupling = _OverlapPatchCoupling(Dictionary.random(4, 3, 37), (9, 7), lambda1, 0.3)
    x = rng.standard_normal((9, 7))
    z = rng.standard_normal(coupling.z_zero().shape)
    sz, _ = coupling.synth_value(x, z)

    def central(fun, point, step=1e-3):
        # The value is quadratic, so central differences carry only rounding error.
        fd = np.empty_like(point)
        for idx in np.ndindex(point.shape):
            up = point.copy()
            up[idx] += step
            dn = point.copy()
            dn[idx] -= step
            fd[idx] = (fun(up) - fun(dn)) / (2 * step)
        return fd

    grad_z = coupling.grad_z(x, z, sz)
    fd_z = central(lambda v: coupling.synth_value(x, v)[1], z)
    np.testing.assert_allclose(grad_z, fd_z, rtol=0, atol=1e-8 * np.max(np.abs(fd_z)))
    fd_x = central(lambda v: coupling.synth_value(v, z)[1], x)
    grad_x = 2.0 * lambda1 * (x - sz)
    np.testing.assert_allclose(grad_x, fd_x, rtol=0, atol=1e-8 * np.max(np.abs(fd_x)))


def test_overlap_coupling_leaves_its_inputs_alone(rng):
    # grad_z and synth_value work in place in buffers they allocate; the
    # window view of x's patches and the reshaped z must never be written.
    k, m, shape = 3, 4, (9, 7)
    d = Dictionary.random(m, k, 41)
    coupling = _OverlapPatchCoupling(d, shape, 1.3, 0.2)
    x = rng.standard_normal(shape)
    z = rng.standard_normal(coupling.z_zero().shape)
    sz = rng.standard_normal(shape)
    inputs = [a.copy() for a in (x, z, sz)]

    grad = coupling.grad_z(x, z, sz)
    synth, value = coupling.synth_value(x, z)
    for kept, now in zip(inputs, (x, z, sz)):
        np.testing.assert_array_equal(now, kept)
    np.testing.assert_array_equal(coupling.grad_z(x, z, sz), grad)
    again_synth, again_value = coupling.synth_value(x, z)
    np.testing.assert_array_equal(again_synth, synth)
    assert again_value == value

    # S z is the fold of the tiles D^T z, each patch added back at its
    # offset, cropped to the image and divided by the k^2 coverage.
    atoms = d.atoms
    hp, wp = z.shape[1:]
    canvas = np.zeros((hp + k - 1, wp + k - 1))
    for i in range(hp):
        for j in range(wp):
            canvas[i:i + k, j:j + k] += np.tensordot(z[:, i, j], atoms, axes=1)
    expected = canvas[k - 1:k - 1 + shape[0], k - 1:k - 1 + shape[1]] / k ** 2
    np.testing.assert_allclose(synth, expected, rtol=0, atol=1e-12)
    padded = np.pad(x, k - 1)
    value_ref = sum(np.sum((np.tensordot(z[:, i, j], atoms, axes=1) - padded[i:i + k, j:j + k]) ** 2)
                    for i in range(hp) for j in range(wp))
    assert value == pytest.approx(1.3 / k ** 2 * value_ref, rel=1e-12)


def test_image_gradient_adjoint_exact(rng):
    x = rng.standard_normal((9, 11))
    gh = rng.standard_normal((9, 11))
    gv = rng.standard_normal((9, 11))
    err = adjoint_rel_err(
        lambda v: np.stack(image_gradient(v)),
        lambda g: image_gradient_adjoint(g[0], g[1]),
        x, np.stack([gh, gv]))
    assert err < 1e-12


def test_huber_knee_continuity():
    gamma = 0.37
    below = gamma * (1 - 1e-15)
    v_quad = huber_value(np.array([gamma]), gamma)
    v_lin = gamma - gamma / 2.0
    assert v_quad == pytest.approx(v_lin, abs=1e-15)
    assert huber_value(np.array([below]), gamma) == pytest.approx(below ** 2 / (2 * gamma), abs=1e-18)


def test_huber_gradient_matches_finite_differences(rng):
    geom = AcquisitionGeometry(num_angles=10, num_bins=14, detector_spacing=1.0)
    cfg = HuberConfig(lam=0.3, gamma=0.05, iters=5)
    x = ImageGrid(rng.standard_normal((8, 8)) * 0.2)
    y = Sinogram(rng.standard_normal(geom.shape) * 0.2, geom)
    _, grad = huber_loss_and_gradient(x, y, cfg)
    step = 1e-5
    for i in range(0, 8, 3):
        for j in range(0, 8, 3):
            up = x.values.copy()
            up[i, j] += step
            dn = x.values.copy()
            dn[i, j] -= step
            lp, _ = huber_loss_and_gradient(ImageGrid(up), y, cfg)
            lm, _ = huber_loss_and_gradient(ImageGrid(dn), y, cfg)
            fd = (lp - lm) / (2 * step)
            assert abs(fd - grad.values[i, j]) / max(abs(fd), 1e-8) < 1e-4


def test_huber_large_gamma_equals_quadratic_solver(noisy_problem):
    _, y = noisy_problem
    # Gamma far above any gradient magnitude keeps the whole trajectory
    # on the quadratic branch, where Huber and Tikhonov-on-gradient agree.
    gamma = 1e6
    lam = 0.5
    cfg = HuberConfig(lam=lam, gamma=gamma, iters=30)
    img = reconstruct_huber(y, cfg, (N, N), SPACING)

    # Independent quadratic solver: same Nesterov loop with R = ||grad x||^2/(2 gamma).
    from dictolearn.tomo import fbp
    proj = get_projector(GEOM, (N, N), SPACING)
    w = likelihood_weights(y)
    lip = 2.0 * float(np.max(w)) * proj.norm_sq() + 8.0 * lam / gamma
    x = fbp(y, (N, N), SPACING, window="hann", cutoff=0.75).values
    xp, t = x, 1.0
    for _ in range(30):
        gh, gv = image_gradient(xp)
        grad = 2.0 * proj.adjoint(w * (proj.forward(xp) - y.values))
        grad += lam * image_gradient_adjoint(gh / gamma, gv / gamma)
        x_new = xp - grad / lip
        t_next = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
        xp = x_new + ((t - 1.0) / t_next) * (x_new - x)
        x, t = x_new, t_next
    assert np.max(np.abs(img.values - x)) < 1e-6
    assert np.max(np.abs(image_gradient(img.values)[0])) * 10 < gamma


def test_recon_config_validation():
    with pytest.raises(ContractError):
        ReconConfig(lambda1=0.0)
    with pytest.raises(ContractError):
        ReconConfig(iters=0)
    with pytest.raises(ContractError):
        HuberConfig(gamma=0.0)


def test_reconstruct_independent_of_norm_sq_call_order(monkeypatch):
    # ||A||^2 is cached per projector, so it must not depend on who asks first.
    geom = AcquisitionGeometry(num_angles=40, num_bins=48, detector_spacing=1.0)
    ph = ImageGrid(shepp_logan(32, "modified").values * 0.04, 1.0)
    y = linearize(simulate_counts(ph, geom, NoiseModel(50_000.0, seed=3)), 50_000.0, geom)
    d = Dictionary.random(4, 4, 5)
    cfg = ReconConfig(lambda1=50.0, lambda2=0.002, iters=10, seed=7)
    monkeypatch.setattr(tomo, "_projector_cache", {})
    cold, _ = reconstruct_dict(y, d, cfg, (32, 32), 1.0)
    monkeypatch.setattr(tomo, "_projector_cache", {})
    get_projector(geom, (32, 32), 1.0).norm_sq()
    warm, _ = reconstruct_dict(y, d, cfg, (32, 32), 1.0)
    assert np.array_equal(cold.values, warm.values)
