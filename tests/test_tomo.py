import tracemalloc

import numpy as np
import pytest
from scipy import sparse as ssp
from scipy import stats
from scipy.sparse.linalg import LinearOperator, eigsh

from dictolearn import desk, tomo
from dictolearn.analytics import psnr, shepp_logan
from dictolearn.operators import ContractError, ImageGrid
from dictolearn.tomo import (
    AcquisitionGeometry,
    NoiseModel,
    Projector,
    Sinogram,
    data_loss_and_gradient,
    fbp,
    forward_project,
    get_projector,
    likelihood_weights,
    linearize,
    simulate_counts,
)
from conftest import adjoint_rel_err, coo_projector_block


PAR = AcquisitionGeometry(num_angles=24, num_bins=40, detector_spacing=1.0)


def disk_image(n=128, radius_mm=40.0, value=0.02, spacing=1.0):
    yy, xx = np.mgrid[0:n, 0:n]
    c = (n - 1) / 2
    mask = (xx - c) ** 2 + (yy - c) ** 2 <= (radius_mm / spacing) ** 2
    return ImageGrid(mask * value, spacing)


def test_forward_project_zero():
    sino = forward_project(ImageGrid(np.zeros((16, 16))), PAR)
    assert np.all(sino.values == 0.0)


def test_central_ray_chord_length():
    geom = AcquisitionGeometry(num_angles=8, num_bins=169, detector_spacing=1.0)
    img = disk_image(128, radius_mm=40.0, value=0.02)
    sino = forward_project(img, geom)
    center = (geom.num_bins - 1) // 2
    expected = 2 * 40.0 * 0.02
    assert abs(sino.values[0, center] - expected) / expected < 0.01


FULL = AcquisitionGeometry(num_angles=20, num_bins=30, detector_spacing=1.5,
                           angular_range=2 * np.pi)


def streamed_projector(monkeypatch, geom, grid_shape, block_angles):
    """A projector that keeps no matrix and rebuilds blocks of ``block_angles`` angles."""
    monkeypatch.setattr(tomo, "_SPARSE_NNZ_BUDGET", 0)
    monkeypatch.setattr(tomo, "_BLOCK_NNZ", block_angles * 2 * geom.num_bins * max(grid_shape))
    proj = Projector(geom, grid_shape, 1.0)
    assert proj.matrix is None
    return proj


@pytest.mark.parametrize("geom, block_angles", [
    pytest.param(PAR, None, id="geom0"),
    pytest.param(FULL, None, id="geom1"),
    pytest.param(FULL, 3, id="streamed"),
])
def test_projector_adjoint_identity(geom, block_angles, rng, monkeypatch):
    if block_angles is None:
        proj = get_projector(geom, (16, 16), 1.0)
    else:
        proj = streamed_projector(monkeypatch, geom, (16, 16), block_angles)
    x = rng.standard_normal((16, 16))
    s = rng.standard_normal(geom.shape)
    assert adjoint_rel_err(proj.forward, proj.adjoint, x, s) < 1e-6


@pytest.mark.parametrize("geom, block_angles", [
    pytest.param(PAR, 5, id="parallel"),
    pytest.param(FULL, 3, id="full-rotation"),
])
def test_streamed_blocks_match_kept_matrix(geom, block_angles, rng, monkeypatch):
    kept = Projector(geom, (16, 16), 1.0)
    streamed = streamed_projector(monkeypatch, geom, (16, 16), block_angles)
    sizes = [a1 - a0 for a0, a1, _, _ in streamed._blocks()]
    assert len(sizes) >= 4 and set(sizes[:-1]) == {block_angles} and sizes[-1] < block_angles
    assert sum(sizes) == geom.num_angles
    x = rng.standard_normal((16, 16))
    s = rng.standard_normal(geom.shape)
    assert np.array_equal(streamed.forward(x), kept.forward(x))
    ref = kept.adjoint(s)
    assert np.max(np.abs(streamed.adjoint(s) - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert streamed.norm_sq() == pytest.approx(kept.norm_sq(), rel=1e-12)


@pytest.mark.parametrize("geom, n, zero_columns", [
    pytest.param(PAR, 16, False, id="parallel"),
    pytest.param(FULL, 16, False, id="full-rotation"),
    pytest.param(AcquisitionGeometry(num_angles=1, num_bins=23), 16, False, id="single-angle"),
    pytest.param(AcquisitionGeometry(num_angles=2, num_bins=5), 12, True, id="small-detector"),
    pytest.param(AcquisitionGeometry(num_angles=4, num_bins=5, detector_spacing=0.5), 12, True,
                 id="small-detector-fine"),
    pytest.param(AcquisitionGeometry(num_angles=3, num_bins=2, detector_spacing=100.0), 12, True,
                 id="no-ray-hits"),
])
def test_norm_sq_is_certified_and_tight(geom, n, zero_columns):
    proj = Projector(geom, (n, n), 1.0)
    A = proj.matrix.toarray()
    assert A.min() >= 0.0
    assert bool(np.any(~A.any(axis=0))) == zero_columns
    true = np.linalg.eigvalsh(A.T @ A).max()
    assert true * (1.0 - 1e-12) <= proj.norm_sq() <= 1.01 * true


def test_norm_sq_desk_steps_and_lanczos(monkeypatch):
    proj = Projector(desk.GEOM, desk.GRID, desk.SPACING)
    calls = []
    forward = proj.forward
    monkeypatch.setattr(proj, "forward", lambda x: calls.append(1) or forward(x))
    bound = proj.norm_sq()
    assert len(calls) <= 10
    A = proj.matrix
    gram = LinearOperator((A.shape[1],) * 2, matvec=lambda v: A.T @ (A @ v), dtype=np.float64)
    lanczos = eigsh(gram, k=1, which="LA", tol=1e-10, return_eigenvectors=False)[0]
    assert lanczos * (1.0 - 1e-9) <= bound <= 1.01 * lanczos


def test_kept_matrix_is_stacked_blocks(monkeypatch):
    monkeypatch.setattr(tomo, "_BLOCK_NNZ", 5 * 2 * PAR.num_bins * 16)
    proj = Projector(PAR, (16, 16), 1.0)
    assert len(proj._spans) == 5
    whole = proj._block(0, PAR.num_angles)
    for attr in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(proj.matrix, attr), getattr(whole, attr))


ODD = AcquisitionGeometry(num_angles=37, num_bins=45, detector_spacing=1.0)


@pytest.mark.parametrize("geom, grid_shape, spacing", [
    pytest.param(desk.GEOM, desk.GRID, desk.SPACING, id="desk"),
    pytest.param(ODD, (20, 28), 1.0, id="odd"),
])
def test_matrix_matches_coo_assembly(geom, grid_shape, spacing):
    proj = Projector(geom, grid_shape, spacing)
    ref = ssp.vstack([coo_projector_block(proj, *span) for span in proj._spans], format="csr")
    if geom is ODD:
        # The detector is wider than the grid's diagonal, so edge rays miss.
        assert np.any(np.diff(ref.indptr) == 0)
    for got, want in ((proj.matrix, ref), (proj._matrix_t, ref.T.tocsr())):
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, attr), getattr(want, attr))


def test_rebuilt_blocks_match_kept_matrix_bitwise(rng, monkeypatch):
    kept = Projector(ODD, (20, 28), 1.0)
    monkeypatch.setattr(tomo, "_SPARSE_NNZ_BUDGET", 0)
    rebuilt = Projector(ODD, (20, 28), 1.0)
    # One block holds all 37 angles, so its adjoint adds the rays of each
    # pixel in the kept transpose's order.
    assert rebuilt.matrix is None and len(rebuilt._spans) == 1
    x = rng.standard_normal((20, 28))
    s = rng.standard_normal(ODD.shape)
    assert np.array_equal(rebuilt.forward(x), kept.forward(x))
    assert np.array_equal(rebuilt.adjoint(s), kept.adjoint(s))


def test_projector_build_memory_peak():
    # Blocks bound the assembly temporaries: the build peaks near the
    # size of what the projector keeps, the matrix and its transpose.
    tracemalloc.start()
    try:
        proj = Projector(desk.GEOM, desk.GRID, desk.SPACING)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = sum(a.nbytes for m in (proj.matrix, proj._matrix_t)
               for a in (m.data, m.indices, m.indptr))
    assert peak <= 1.25 * kept


def test_back_project_zero():
    img = get_projector(PAR, (16, 16), 1.0).adjoint(np.zeros(PAR.shape))
    assert np.all(img == 0.0)


def test_single_angle_impulse_streak():
    # One nonzero bin at angle 0 back-projects to one constant column.
    geom = AcquisitionGeometry(num_angles=4, num_bins=17, detector_spacing=1.0)
    sino = np.zeros(geom.shape)
    sino[0, 10] = 1.0
    img = get_projector(geom, (17, 17), 1.0).adjoint(sino)
    hit_cols = np.nonzero(np.abs(img).sum(axis=0))[0]
    assert len(hit_cols) == 1
    col = img[:, hit_cols[0]]
    np.testing.assert_allclose(col, col[0])
    assert col[0] > 0


def test_fbp_zero():
    img = fbp(Sinogram(np.zeros(PAR.shape), PAR), (16, 16), 1.0)
    assert np.all(img.values == 0.0)


def test_fbp_shepp_logan_regression():
    # Noise-free desk-scale baseline; value recorded as a regression floor.
    phantom = shepp_logan(256, "standard", pixel_spacing=1.0)
    geom = AcquisitionGeometry(num_angles=360, num_bins=735, detector_spacing=0.5)
    sino = forward_project(phantom, geom)
    rec = fbp(sino, (256, 256), 1.0, window="hann", cutoff=0.75)
    data_range = phantom.values.max() - phantom.values.min()
    assert psnr(rec, phantom, data_range) > 25.0


def test_fbp_lowpass_cutoff_spectral_energy():
    phantom = shepp_logan(128, "standard", pixel_spacing=1.0)
    geom = AcquisitionGeometry(num_angles=180, num_bins=192, detector_spacing=1.0)
    sino = forward_project(phantom, geom)
    rec75 = fbp(sino, (128, 128), 1.0, window="hann", cutoff=0.75)
    rec10 = fbp(sino, (128, 128), 1.0, window="hann", cutoff=0.10)

    def energy_above(img, f_lo):
        spec = np.abs(np.fft.fft2(img)) ** 2
        f = np.fft.fftfreq(img.shape[0], d=1.0)
        radial = np.sqrt(f[:, None] ** 2 + f[None, :] ** 2)
        return float(spec[radial > f_lo].sum())

    threshold = 0.2 * geom.nyquist
    assert energy_above(rec10.values, threshold) < 0.05 * energy_above(rec75.values, threshold)


def test_fbp_linearity(rng):
    s1 = Sinogram(rng.standard_normal(PAR.shape), PAR)
    s2 = Sinogram(rng.standard_normal(PAR.shape), PAR)
    a, b = 0.7, -1.3
    combo = Sinogram(a * s1.values + b * s2.values, PAR)
    lhs = fbp(combo, (16, 16), 1.0).values
    rhs = a * fbp(s1, (16, 16), 1.0).values + b * fbp(s2, (16, 16), 1.0).values
    np.testing.assert_allclose(lhs, rhs, atol=1e-10 * max(1.0, np.max(np.abs(rhs))))


def test_fbp_rejects_bad_cutoff():
    with pytest.raises(ContractError):
        fbp(Sinogram(np.zeros(PAR.shape), PAR), (16, 16), 1.0, cutoff=0.0)


def test_simulate_counts_empty_scanner_mean():
    geom = AcquisitionGeometry(num_angles=50, num_bins=64, detector_spacing=1.0)
    noise = NoiseModel(incident_photons=50_000.0, seed=2)
    counts = simulate_counts(ImageGrid(np.zeros((16, 16))), geom, noise)
    n_rays = counts.size
    # Sample mean of Poisson(N0) within 3 sigma / sqrt(rays).
    assert abs(counts.mean() - 50_000.0) < 3.0 * np.sqrt(50_000.0 / n_rays)


def test_noise_model_default_photon_budget():
    assert NoiseModel().incident_photons == 50_000.0


def test_simulate_counts_poisson_variance_chi2():
    # All rays share one rate; test s^2 against chi-square bounds at 1%.
    geom = AcquisitionGeometry(num_angles=100, num_bins=100, detector_spacing=1.0)
    counts = simulate_counts(ImageGrid(np.zeros((8, 8))), geom, NoiseModel(1000.0, seed=7))
    sample = counts.ravel()[:10_000]
    lam = 1000.0
    stat = (sample.size - 1) * sample.var(ddof=1) / lam
    lo = stats.chi2.ppf(0.005, sample.size - 1)
    hi = stats.chi2.ppf(0.995, sample.size - 1)
    assert lo < stat < hi


def test_simulate_counts_warns_on_negative_values():
    img = ImageGrid(np.full((8, 8), -0.001))
    with pytest.warns(UserWarning):
        simulate_counts(img, PAR, NoiseModel(1000.0, seed=0))


def test_simulate_counts_rejects_overflow():
    img = ImageGrid(np.full((16, 16), -3.0))
    geom = AcquisitionGeometry(num_angles=4, num_bins=24, detector_spacing=1.0)
    with pytest.raises(ContractError), pytest.warns(UserWarning):
        simulate_counts(img, geom, NoiseModel(1000.0, seed=0))


def test_linearize_trivials():
    geom = AcquisitionGeometry(num_angles=1, num_bins=2, detector_spacing=1.0)
    y = linearize(np.array([[50_000.0, 50_000.0 * np.exp(-1.0)]]), 50_000.0, geom)
    np.testing.assert_allclose(y.values, [[0.0, 1.0]], atol=1e-12)


def test_linearize_round_trip_identity(rng):
    geom = AcquisitionGeometry(num_angles=12, num_bins=24, detector_spacing=1.0)
    x = ImageGrid(rng.random((16, 16)) * 0.02)
    ax = forward_project(x, geom).values
    y = linearize(50_000.0 * np.exp(-ax), 50_000.0, geom)
    np.testing.assert_allclose(y.values, ax, atol=1e-12)


def test_linearize_clamps_zero_counts():
    geom = AcquisitionGeometry(num_angles=1, num_bins=1, detector_spacing=1.0)
    y = linearize(np.array([[0.0]]), 100.0, geom)
    assert np.isfinite(y.values[0, 0])
    np.testing.assert_allclose(y.values[0, 0], -np.log(0.5 / 100.0))


def test_linearize_rejects_negative_counts():
    geom = AcquisitionGeometry(num_angles=1, num_bins=1, detector_spacing=1.0)
    with pytest.raises(ContractError):
        linearize(np.array([[-1.0]]), 100.0, geom)


def test_likelihood_weights(rng):
    geom = AcquisitionGeometry(num_angles=1, num_bins=2, detector_spacing=1.0)
    w = likelihood_weights(Sinogram(np.array([[0.0, np.log(2.0)]]), geom))
    np.testing.assert_allclose(w, [[1.0, 0.5]])
    # Monotonically decreasing in y.
    geom2 = AcquisitionGeometry(num_angles=1, num_bins=50, detector_spacing=1.0)
    y = np.sort(rng.random((1, 50)) * 5.0)
    w = likelihood_weights(Sinogram(y, geom2))
    assert np.all(np.diff(w[0]) <= 0)


def test_data_loss_zero_at_exact_fit(rng):
    geom = AcquisitionGeometry(num_angles=10, num_bins=14, detector_spacing=1.0)
    x = ImageGrid(rng.random((8, 8)) * 0.05)
    y = forward_project(x, geom)
    loss, grad = data_loss_and_gradient(x, y)
    assert loss < 1e-20
    assert np.max(np.abs(grad.values)) < 1e-12


def test_data_loss_gradient_matches_finite_differences(rng):
    geom = AcquisitionGeometry(num_angles=10, num_bins=14, detector_spacing=1.0)
    x = ImageGrid(rng.standard_normal((8, 8)) * 0.1)
    y = Sinogram(rng.standard_normal(geom.shape) * 0.3, geom)
    _, grad = data_loss_and_gradient(x, y)
    step = 1e-5
    for i in range(0, 8, 3):
        for j in range(0, 8, 3):
            up = x.values.copy()
            dn = x.values.copy()
            up[i, j] += step
            dn[i, j] -= step
            lp, _ = data_loss_and_gradient(ImageGrid(up), y)
            lm, _ = data_loss_and_gradient(ImageGrid(dn), y)
            fd = (lp - lm) / (2 * step)
            assert abs(fd - grad.values[i, j]) / max(abs(fd), 1e-8) < 1e-4


def test_data_loss_linear_in_weights(rng):
    geom = AcquisitionGeometry(num_angles=6, num_bins=10, detector_spacing=1.0)
    x = ImageGrid(rng.random((8, 8)) * 0.1)
    y = Sinogram(rng.random(geom.shape), geom)
    w = likelihood_weights(y)
    ax = forward_project(x, geom).values
    l1 = tomo.data_loss(ax, y.values, w)
    l2 = tomo.data_loss(ax, y.values, 2.0 * w)
    assert abs(l2 - 2.0 * l1) < 1e-10 * max(abs(l1), 1.0)
    assert l1 == data_loss_and_gradient(x, y)[0]


def test_sinogram_shape_validation():
    with pytest.raises(ContractError):
        Sinogram(np.zeros((3, 3)), PAR)
