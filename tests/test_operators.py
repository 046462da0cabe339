import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dictolearn.operators import (
    ContractError,
    ConvSynthesis,
    Dictionary,
    ImageGrid,
    PatchSynthesis,
    ZeroAtomError,
    dict_gradient,
    normalize_atoms,
)
from conftest import dense_conv_reference, adjoint_rel_err, estimate_lipschitz


def impulse_dictionary(k=3):
    atom = np.zeros((1, k, k))
    atom[0, (k - 1) // 2, (k - 1) // 2] = 1.0
    return Dictionary(atom)


def dense_conv_matrix(d, shape):
    """S assembled column by column from indicator maps."""
    m = d.atom_count
    h, w = shape
    cols = []
    for i in range(m):
        for r in range(h):
            for c in range(w):
                e = np.zeros((m, h, w))
                e[i, r, c] = 1.0
                cols.append(ConvSynthesis(d, shape).apply(e).ravel())
    return np.stack(cols, axis=1)


def test_synthesize_conv_zero_coefficients():
    d = Dictionary.random(3, 3, 0)
    op = ConvSynthesis(d, (9, 9))
    assert op.zeros().shape == (3, 9, 9)
    assert np.all(op.apply(op.zeros()) == 0.0)


def test_synthesize_conv_impulse_identity(rng):
    d = impulse_dictionary(3)
    img = rng.standard_normal((10, 12))
    out = ConvSynthesis(d, (10, 12)).apply(img[None])
    np.testing.assert_allclose(out, img, atol=1e-14)


def test_synthesize_conv_matches_assembled_matrix(rng):
    # Assemble the dense matrix column by column from indicator maps,
    # then compare against the operator on a sparse z (two nonzeros per map).
    d = Dictionary.random(2, 3, 3)
    h = w = 8
    matrix = dense_conv_matrix(d, (h, w))

    z = np.zeros((2, h, w))
    for i in range(2):
        idx = rng.choice(h * w, size=2, replace=False)
        z[i].ravel()[idx] = rng.standard_normal(2)
    out = ConvSynthesis(d, (h, w)).apply(z)
    np.testing.assert_allclose(out.ravel(), matrix @ z.ravel(), rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("m, k, shape", [(3, 4, (9, 7)), (3, 1, (9, 7)), (3, 5, (9, 7)),
                                         (3, 5, (3, 3)), (64, 8, (128, 128))],
                         ids=["k4", "k1", "k5", "k5-grid3", "desk"])
def test_synthesize_conv_matches_loop_reference(m, k, shape, rng):
    d = Dictionary.random(m, k, 5)
    op = ConvSynthesis(d, shape)
    z = rng.standard_normal((m,) + shape)
    ref = dense_conv_reference(d.atoms, z)
    np.testing.assert_allclose(op.apply(z), ref, rtol=1e-12, atol=1e-13)
    assert adjoint_rel_err(op.apply, op.adjoint, z, rng.standard_normal(shape)) < 1e-10


def test_conv_norm_sq_impulse_atom():
    # A corner impulse has an all-ones spectrum in exact FFT arithmetic;
    # a centred one differs from 1 only by twiddle-factor rounding.
    corner = np.zeros((1, 3, 3))
    corner[0, 0, 0] = 1.0
    assert ConvSynthesis(Dictionary(corner), (8, 8)).norm_sq() == 1.0
    for shape in ((8, 8), (10, 12)):
        assert ConvSynthesis(impulse_dictionary(3), shape).norm_sq() == pytest.approx(1.0, rel=1e-14)


@pytest.mark.parametrize("m, k, shape", [(1, 3, (6, 6)), (2, 4, (6, 6)), (3, 3, (5, 7)),
                                         (2, 2, (7, 7)), (3, 5, (8, 6))])
def test_conv_norm_sq_bounds_dense_eigenvalue(m, k, shape):
    d = Dictionary.random(m, k, 100 * m + k)
    S = dense_conv_matrix(d, shape)
    true = np.linalg.eigvalsh(S.T @ S).max()
    assert ConvSynthesis(d, shape).norm_sq() >= true * (1.0 - 1e-12)


@pytest.mark.parametrize("shape", [(64, 64), (48, 80)])
def test_conv_norm_sq_tight_against_power_iteration(shape):
    d = Dictionary.random(64, 8, 5)
    bound = ConvSynthesis(d, shape).norm_sq()
    est = estimate_lipschitz(ConvSynthesis(d, shape), power_iters=100)
    assert est <= bound <= 1.05 * est


@pytest.mark.parametrize("m, k, shape", [(1, 3, (6, 6)), (6, 4, (8, 12)), (20, 3, (9, 9)),
                                         (64, 8, (16, 8))])
def test_patch_norm_sq_is_sigma_max_squared(m, k, shape):
    d = Dictionary.random(m, k, 10 * m + k)
    D = d.flat()
    true = np.linalg.eigvalsh(D @ D.T).max()
    assert PatchSynthesis(d, shape).norm_sq() == pytest.approx(true, rel=1e-12)


def test_synthesize_patch_zero():
    d = Dictionary.random(4, 4, 1)
    op = PatchSynthesis(d, (8, 8))
    assert op.zeros().shape == (4, 2, 2)
    assert np.all(op.apply(op.zeros()) == 0.0)


def test_synthesize_patch_single_tile_dense_matmul(rng):
    # One 16x16 tile with 512 atoms: the operator is a plain matrix product.
    d = Dictionary.random(512, 16, 7)
    z = rng.standard_normal((512, 1, 1))
    out = PatchSynthesis(d, (16, 16)).apply(z)
    dense = d.flat().T  # (256, 512)
    np.testing.assert_allclose(out.ravel(), dense @ z.ravel(), rtol=1e-12, atol=1e-13)


def test_patch_equals_conv_on_stride_lattice(rng):
    d = Dictionary.random(6, 16, 2)
    k, h, w = 16, 32, 32
    zp = rng.standard_normal((6, 2, 2))
    patch_out = PatchSynthesis(d, (h, w)).apply(zp)

    s = (k - 1) // 2
    zc = np.zeros((6, h, w))
    for ty in range(2):
        for tx in range(2):
            zc[:, ty * k + s, tx * k + s] = zp[:, ty, tx]
    conv_out = ConvSynthesis(d, (h, w)).apply(zc)
    np.testing.assert_allclose(patch_out, conv_out, rtol=1e-12, atol=1e-13)


def test_adjoint_conv_zero_and_impulse(rng):
    d = impulse_dictionary(5)
    zero = ConvSynthesis(d, (7, 7)).adjoint(np.zeros((7, 7)))
    assert zero.shape == (1, 7, 7) and np.all(zero == 0.0)
    r = rng.standard_normal((7, 7))
    np.testing.assert_allclose(ConvSynthesis(d, (7, 7)).adjoint(r)[0], r, atol=1e-14)


def test_adjoint_identity_conv(rng):
    d = Dictionary.random(3, 3, 11)
    z = rng.standard_normal((3, 10, 10))
    r = rng.standard_normal((10, 10))
    err = adjoint_rel_err(
        ConvSynthesis(d, (10, 10)).apply, ConvSynthesis(d, (10, 10)).adjoint, z, r)
    assert err < 1e-10


def test_adjoint_identity_patch(rng):
    d = Dictionary.random(5, 4, 13)
    z = rng.standard_normal((5, 3, 2))
    r = rng.standard_normal((12, 8))
    err = adjoint_rel_err(
        PatchSynthesis(d, (12, 8)).apply, PatchSynthesis(d, (12, 8)).adjoint, z, r)
    assert err < 1e-10


def test_dict_gradient_zero_coefficients(rng):
    d = Dictionary.random(2, 3, 17)
    g = dict_gradient(d, np.zeros((2, 8, 8)), ImageGrid(rng.standard_normal((8, 8))),
                      "convolutional")
    assert np.all(g == 0.0)


def test_dict_gradient_zero_residual(rng):
    d = Dictionary.random(2, 3, 19)
    z = rng.standard_normal((2, 8, 8))
    x = ImageGrid(ConvSynthesis(d, (8, 8)).apply(z))
    g = dict_gradient(d, z, x, "convolutional")
    assert np.max(np.abs(g)) < 1e-12


def test_dict_gradient_refuses_unknown_mode(rng):
    d = Dictionary.random(2, 3, 19)
    with pytest.raises(ContractError):
        dict_gradient(d, np.zeros((2, 6, 6)), ImageGrid(rng.standard_normal((6, 6))), "bogus")


@pytest.mark.parametrize("mode", ["convolutional", "patch"])
def test_dict_gradient_matches_finite_differences(mode, rng):
    # FD differentiates an independent loop-reference objective; the
    # operators are separately pinned to that reference above.
    m, k = 2, 3
    d = Dictionary.random(m, k, 23)
    if mode == "convolutional":
        z = rng.standard_normal((m, 8, 8)) * (rng.random((m, 8, 8)) < 0.4)
        shape = (8, 8)
    else:
        z = rng.standard_normal((m, 2, 2))
        shape = (6, 6)
    x = ImageGrid(rng.standard_normal(shape))
    grad = dict_gradient(d, z, x, mode)

    def objective(atoms):
        if mode == "convolutional":
            synth = dense_conv_reference(atoms, z)
        else:
            flat = atoms.reshape(m, k * k)
            tiles = np.tensordot(z, flat, axes=(0, 0))
            synth = tiles.reshape(2, 2, k, k).swapaxes(1, 2).reshape(shape)
        r = synth - x.values
        return np.sum(r * r)

    step = 1e-5
    for i in range(m):
        for a in range(k):
            for b in range(k):
                up = d.atoms.copy()
                dn = d.atoms.copy()
                up[i, a, b] += step
                dn[i, a, b] -= step
                fd = (objective(up) - objective(dn)) / (2 * step)
                assert abs(fd - grad[i, a, b]) / max(abs(fd), 1e-8) < 1e-4


def test_normalize_atoms_unit_unchanged():
    d = impulse_dictionary(3)
    out = normalize_atoms(d)
    np.testing.assert_allclose(out.atoms, d.atoms, atol=1e-15)


def test_normalize_atoms_scaling():
    atoms = np.zeros((1, 2, 2))
    atoms[0, 0, 0] = 2.0
    out = normalize_atoms(atoms)
    expected = np.zeros((2, 2))
    expected[0, 0] = 1.0
    np.testing.assert_allclose(out.atoms[0], expected)


def test_normalize_atoms_random_norms(rng):
    out = normalize_atoms(rng.standard_normal((7, 5, 5)) * 3.0)
    norms = np.linalg.norm(out.flat(), axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-12)


def test_normalize_atoms_zero_raises():
    atoms = np.zeros((2, 3, 3))
    atoms[0, 0, 0] = 1.0
    with pytest.raises(ZeroAtomError) as err:
        normalize_atoms(atoms)
    assert err.value.indices == [1]


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.floats(-3, 3), st.floats(-3, 3))
def test_linearity_conv(seed, alpha, beta):
    r = np.random.default_rng(seed)
    d = Dictionary.random(2, 3, seed)
    z1 = r.standard_normal((2, 6, 6))
    z2 = r.standard_normal((2, 6, 6))
    op = ConvSynthesis(d, (6, 6))
    lhs = op.apply(alpha * z1 + beta * z2)
    rhs = alpha * op.apply(z1) + beta * op.apply(z2)
    scale = max(np.max(np.abs(rhs)), 1.0)
    np.testing.assert_allclose(lhs, rhs, atol=1e-10 * scale)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_adjointness_randomized_both_modes(seed):
    r = np.random.default_rng(seed)
    d = Dictionary.random(3, 3, seed)
    z = r.standard_normal((3, 9, 9))
    res = r.standard_normal((9, 9))
    err = adjoint_rel_err(
        ConvSynthesis(d, (9, 9)).apply, ConvSynthesis(d, (9, 9)).adjoint, z, res)
    assert err < 1e-8
    zp = r.standard_normal((3, 3, 3))
    err = adjoint_rel_err(
        PatchSynthesis(d, (9, 9)).apply, PatchSynthesis(d, (9, 9)).adjoint, zp, res)
    assert err < 1e-8


def test_channel_mismatch_rejected(rng):
    d = Dictionary.random(3, 3, 29)
    with pytest.raises(ContractError):
        ConvSynthesis(d, (6, 6)).apply(rng.standard_normal((2, 6, 6)))
    with pytest.raises(ContractError):
        ConvSynthesis(d, (6, 6)).apply(rng.standard_normal((3, 6, 5)))
    with pytest.raises(ContractError):
        PatchSynthesis(d, (6, 6)).apply(rng.standard_normal((2, 2, 2)))


@pytest.mark.parametrize("cls, z_shape, r_shape", [
    (ConvSynthesis, (4, 6, 6), (12, 12)), (ConvSynthesis, (4, 12, 12), ()),
    (ConvSynthesis, (4, 12, 12), (1, 12)), (PatchSynthesis, (4, 2, 2), (12, 12)),
    (PatchSynthesis, (4, 4, 4), (6, 24))])
def test_mismatched_coefficients_or_residual_rejected(cls, z_shape, r_shape, rng):
    op = cls(Dictionary.random(4, 3, 37), (12, 12))
    z, r = rng.standard_normal(z_shape), rng.standard_normal(r_shape)
    with pytest.raises(ContractError):
        op.dict_gradient(z, r)
    if r_shape != (12, 12):
        with pytest.raises(ContractError):
            op.adjoint(r)


def test_non_divisible_patch_shape_rejected():
    d = Dictionary.random(2, 4, 31)
    with pytest.raises(ContractError):
        PatchSynthesis(d, (10, 8))
    with pytest.raises(ContractError):
        PatchSynthesis(d, (12, 8)).apply(np.zeros((2, 2, 2)))


def test_dictionary_invariants():
    with pytest.raises(ContractError):
        Dictionary(np.ones((2, 3, 3)))  # not unit norm
    with pytest.raises(ContractError):
        Dictionary(np.full((1, 2, 2), np.nan))
    with pytest.raises(ContractError):
        ImageGrid(np.zeros((4, 4)), pixel_spacing=0.0)
