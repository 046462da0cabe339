import math

import numpy as np
import pytest

from dictolearn.analytics import (
    MODIFIED_GRAYS,
    SHEPP_LOGAN_ELLIPSES,
    atom_montage,
    atom_significance,
    phantom_from_ellipses,
    psnr,
    random_ellipse_phantom,
    shepp_logan,
    ssim,
)
from dictolearn.operators import ContractError, Dictionary, ImageGrid


def test_psnr_identical_images_sentinel(rng):
    a = ImageGrid(rng.random((16, 16)))
    assert psnr(a, ImageGrid(a.values.copy()), 1.0) == math.inf


def test_psnr_constant_offset():
    a = ImageGrid(np.zeros((32, 32)))
    b = ImageGrid(np.full((32, 32), 0.1))
    assert psnr(a, b, 1.0) == pytest.approx(20.0, abs=1e-12)


def test_psnr_matches_direct_recomputation(rng):
    a = ImageGrid(rng.random((16, 16)))
    b = ImageGrid(rng.random((16, 16)))
    mse = np.mean((a.values - b.values) ** 2)
    assert psnr(a, b, 2.5) == pytest.approx(10 * np.log10(2.5 ** 2 / mse), abs=1e-10)


def test_psnr_symmetry_and_validation(rng):
    a = ImageGrid(rng.random((16, 16)))
    b = ImageGrid(rng.random((16, 16)))
    assert psnr(a, b, 1.0) == psnr(b, a, 1.0)
    with pytest.raises(ContractError):
        psnr(a, ImageGrid(np.zeros((8, 8))), 1.0)
    with pytest.raises(ContractError):
        psnr(a, b, 0.0)


@pytest.mark.parametrize("data_range", [-1.0, float("nan"), float("inf")])
def test_psnr_rejects_bad_data_range(data_range, rng):
    # An infinite range would give a PSNR of +inf for any pair of images.
    with pytest.raises(ContractError):
        psnr(ImageGrid(rng.random((16, 16))), ImageGrid(rng.random((16, 16))), data_range)


@pytest.mark.parametrize("data_range", [0.0, -1.0, float("nan"), float("inf")])
def test_ssim_rejects_nonpositive_data_range(data_range):
    zero = ImageGrid(np.zeros((16, 16)))
    with pytest.raises(ContractError):
        ssim(zero, ImageGrid(np.zeros((16, 16))), data_range)


def test_ssim_identical_images(rng):
    a = ImageGrid(rng.random((32, 32)))
    assert ssim(a, ImageGrid(a.values.copy()), 1.0) == pytest.approx(1.0, abs=1e-12)


def test_ssim_anticorrelation_negative():
    # Zero local mean keeps the luminance factor positive, so the flipped
    # covariance drives the index negative.
    i, j = np.mgrid[0:32, 0:32]
    v = ((-1.0) ** (i + j))
    assert ssim(ImageGrid(v), ImageGrid(-v), 2.0) < 0


@pytest.mark.parametrize("shape", [
    pytest.param((11, 11), id="single-window-defaults"),
    pytest.param((23, 17), id="non-square"),
])
def test_ssim_matches_bruteforce_windows(shape, rng):
    # The 2-D weighted-window formula at every fully valid position,
    # against the separable passes, with the published 11x11, sigma 1.5 window.
    a = rng.random(shape)
    b = rng.random(shape)
    side, sigma, data_range = 11, 1.5, 1.0
    ax = np.arange(side) - (side - 1) / 2.0
    g = np.exp(-(ax ** 2) / (2 * sigma ** 2))
    win = np.outer(g, g)
    win /= win.sum()
    c1, c2 = (0.01 * data_range) ** 2, (0.03 * data_range) ** 2
    values = []
    for r in range(shape[0] - side + 1):
        for c in range(shape[1] - side + 1):
            pa = a[r:r + side, c:c + side]
            pb = b[r:r + side, c:c + side]
            mu_a, mu_b = np.sum(win * pa), np.sum(win * pb)
            var_a = np.sum(win * pa * pa) - mu_a ** 2
            var_b = np.sum(win * pb * pb) - mu_b ** 2
            cov = np.sum(win * pa * pb) - mu_a * mu_b
            values.append((2 * mu_a * mu_b + c1) * (2 * cov + c2)
                          / ((mu_a ** 2 + mu_b ** 2 + c1) * (var_a + var_b + c2)))
    got = ssim(ImageGrid(a), ImageGrid(b), data_range)
    assert got == pytest.approx(np.mean(values), abs=1e-13)


def test_ssim_symmetry(rng):
    a = ImageGrid(rng.random((24, 24)))
    b = ImageGrid(rng.random((24, 24)))
    assert ssim(a, b, 1.0) == pytest.approx(ssim(b, a, 1.0), abs=1e-14)


def test_shepp_logan_bounds():
    std = shepp_logan(128, "standard")
    assert std.values.min() >= 0.0 and std.values.max() <= 2.0
    mod = shepp_logan(128, "modified")
    assert mod.values.min() >= 0.0 and mod.values.max() <= 1.0
    with pytest.raises(ContractError):
        shepp_logan(16)
    with pytest.raises(ContractError):
        shepp_logan(64, "sepia")


def test_shepp_logan_mirror_rebuild():
    # Mirroring the image equals rendering the x-mirrored ellipse table.
    ph = shepp_logan(96, "standard")
    mirrored_table = [(sa, sb, -x0, y0, -phi, g)
                      for (sa, sb, x0, y0, phi, g) in SHEPP_LOGAN_ELLIPSES]
    rebuilt = phantom_from_ellipses(96, mirrored_table)
    np.testing.assert_allclose(ph.values[:, ::-1], rebuilt.values, atol=1e-12)


def test_shepp_logan_all_ellipses_have_support():
    n = 128
    for (sa, sb, x0, y0, phi, _), gray in zip(SHEPP_LOGAN_ELLIPSES, MODIFIED_GRAYS):
        single = phantom_from_ellipses(n, [(sa, sb, x0, y0, phi, gray)])
        assert np.count_nonzero(single.values) > 0


def test_random_phantom_deterministic():
    a = random_ellipse_phantom(64, seed=5)
    b = random_ellipse_phantom(64, seed=5)
    c = random_ellipse_phantom(64, seed=6)
    np.testing.assert_array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def zeros_maps(m, shape=(6, 6)):
    return np.zeros((m,) + shape)


def test_atom_significance_zero_coefficients_identity_order():
    d = Dictionary.random(5, 3, 1)
    order, scores = atom_significance(d, [zeros_maps(5)])
    np.testing.assert_array_equal(order, np.arange(5))
    np.testing.assert_array_equal(scores, np.zeros(5))


def test_atom_significance_single_hot_channel():
    d = Dictionary.random(5, 3, 2)
    v = np.zeros((5, 6, 6))
    v[3, 2, 2] = -2.0
    order, scores = atom_significance(d, [v])
    assert order[0] == 3
    assert scores[0] == pytest.approx(2.0)


def test_atom_significance_matches_bruteforce(rng):
    d = Dictionary.random(4, 3, 3)
    sets = [rng.standard_normal((4, 5, 5)) for _ in range(3)]
    order, scores = atom_significance(d, sets)
    brute = np.zeros(4)
    for z in sets:
        for i in range(4):
            brute[i] += np.abs(z[i]).sum()
    expected_order = np.lexsort((np.arange(4), -brute))
    np.testing.assert_array_equal(order, expected_order)
    np.testing.assert_allclose(scores, brute[expected_order], rtol=1e-13)


def test_atom_significance_duplicate_invariance(rng):
    d = Dictionary.random(4, 3, 4)
    sets = [rng.standard_normal((4, 5, 5))]
    order1, _ = atom_significance(d, sets)
    order2, _ = atom_significance(d, sets + sets)
    np.testing.assert_array_equal(order1, order2)


def test_atom_montage_contains_all_atoms():
    d = Dictionary.random(7, 4, 5)
    sheet = atom_montage(d, np.arange(7))
    # 7 atoms on a 3x3 grid of 4x4 tiles with 1px separators.
    assert sheet.shape == (3 * 5 + 1, 3 * 5 + 1)
    np.testing.assert_allclose(sheet[1:5, 1:5], d.atoms[0])
    np.testing.assert_allclose(sheet[1:5, 6:10], d.atoms[1])
