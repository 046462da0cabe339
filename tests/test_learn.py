from dataclasses import astuple, fields

import numpy as np
import pytest

from dictolearn.analytics import random_ellipse_phantom
from dictolearn.elbo import dense_matrix
from dictolearn import fileio, learn
from dictolearn.learn import (
    AdamState,
    TrainConfig,
    adam_update,
    adapt_lambda,
    remove_low_frequency,
    train_dictionary,
)
from dictolearn.operators import ContractError, Dictionary, ImageGrid
from dictolearn.sparse import SparseCodeConfig, duality_gap, fista_sparse_code
from dictolearn.tomo import AcquisitionGeometry
from conftest import cd_sparse_solve


GEOM = AcquisitionGeometry(num_angles=90, num_bins=96, detector_spacing=2.0)


def small_dataset(count=8, n=64, scale=0.04):
    return [ImageGrid(random_ellipse_phantom(n, seed=50 + i).values * scale, 2.0)
            for i in range(count)]


def test_remove_low_frequency_zero():
    out = remove_low_frequency(ImageGrid(np.zeros((64, 64)), 2.0), GEOM, 0.10)
    assert np.all(out.values == 0.0)


def test_remove_low_frequency_centers_disk():
    n = 64
    yy, xx = np.mgrid[0:n, 0:n]
    c = (n - 1) / 2
    disk = (((xx - c) ** 2 + (yy - c) ** 2) <= (n * 0.35) ** 2) * 0.02
    out = remove_low_frequency(ImageGrid(disk, 2.0), GEOM, 0.10)
    assert abs(out.values.mean()) < 0.05 * 0.02


def test_remove_low_frequency_rejects_bad_cutoff():
    with pytest.raises(ContractError):
        remove_low_frequency(ImageGrid(np.zeros((64, 64)), 2.0), GEOM, 0.0)


def test_adapt_lambda_on_target_unchanged():
    assert adapt_lambda(0.5, 3.0, 3.0, c=0.01, t=10) == 0.5


def test_adapt_lambda_inside_band_unchanged():
    # 10% deviation is below the 20% trigger.
    assert adapt_lambda(0.5, 3.3, 3.0, c=0.01, t=10) == 0.5


def test_adapt_lambda_documented_case():
    assert adapt_lambda(0.5, 6.0, 3.0, c=0.001, t=10) == pytest.approx(0.503, abs=1e-12)


def test_adapt_lambda_requires_tenth_step():
    assert adapt_lambda(0.5, 6.0, 3.0, c=0.001, t=7) == 0.5


def test_adapt_lambda_clamped_at_zero():
    assert adapt_lambda(0.001, 1.0, 100.0, c=1.0, t=10) == 0.0


def test_adam_zero_gradient_is_identity(rng):
    atoms = rng.standard_normal((3, 4, 4))
    state = AdamState.zeros(atoms.shape)
    new_state, new_atoms = adam_update(state, np.zeros_like(atoms), atoms, 1e-3)
    np.testing.assert_array_equal(new_atoms, atoms)
    assert new_state.step == 1


def test_adam_single_step_hand_computed(rng):
    atoms = np.zeros((1, 1, 1))
    grad = np.array([[[0.3]]])
    lr, b1, b2, eps = 0.01, learn.ADAM_BETA1, learn.ADAM_BETA2, learn.ADAM_EPSILON
    assert (b1, b2, eps) == (0.9, 0.999, 1e-8)
    _, new_atoms = adam_update(AdamState.zeros(atoms.shape), grad, atoms, lr)
    m_hat = (1 - b1) * 0.3 / (1 - b1)
    v_hat = (1 - b2) * 0.09 / (1 - b2)
    expected = -lr * m_hat / (np.sqrt(v_hat) + eps)
    np.testing.assert_allclose(new_atoms[0, 0, 0], expected, rtol=1e-15)


def test_adam_two_identical_steps_shrink(rng):
    atoms = np.zeros((2, 3, 3))
    grad = rng.standard_normal(atoms.shape)
    state = AdamState.zeros(atoms.shape)
    state1, atoms1 = adam_update(state, grad, atoms, 1e-3)
    state2, atoms2 = adam_update(state1, grad, atoms1, 1e-3)
    step1 = np.abs(atoms1 - atoms)
    step2 = np.abs(atoms2 - atoms1)
    assert np.all(step2 <= step1 + 1e-12)


def test_adam_shape_mismatch(rng):
    with pytest.raises(ContractError):
        adam_update(AdamState.zeros((1, 2, 2)), np.zeros((2, 2, 2)), np.zeros((1, 2, 2)), 1e-3)


def test_measure_sparsity_trivials():
    # One 32x32 validation crop of 4 atoms x 16 tiles. A weight far above the
    # kill threshold codes it as z = 0: no support and every atom dead; a
    # negligible weight leaves all 64 coefficients nonzero and no atom dead.
    data = small_dataset(2, n=32)
    for lam, expected in ((1e6, (0.0, 4)), (1e-12, (64.0, 0))):
        cfg = TrainConfig(atom_count=4, atom_side=8, target_sparsity=4.0, crop_size=32,
                          steps=1, validation_interval=1, fista_iters=5, initial_lambda=lam,
                          seed=3)
        _, log = train_dictionary(data, cfg, geom=None)
        assert [(r.sparsity, r.dead_atoms) for r in log.records] == [expected]


def test_measure_sparsity_matches_oracle_support():
    d = Dictionary.random(6, 4, 3)
    x = np.random.default_rng(3).standard_normal(16) * 0.5
    lam = 0.3
    z_cd = cd_sparse_solve(dense_matrix(d), x, lam)
    z, _ = fista_sparse_code(d, ImageGrid(x.reshape(4, 4)),
                             SparseCodeConfig(lam=lam, max_iters=500))
    thr = 1e-8 * max(float(np.max(np.abs(z))), 1e-300)
    assert np.count_nonzero(np.abs(z) > thr) == np.count_nonzero(np.abs(z_cd) > thr)


def test_train_zero_steps_returns_initialization():
    data = small_dataset(4)
    cfg = TrainConfig(atom_count=6, atom_side=8, target_sparsity=10.0,
                      crop_size=32, steps=0, seed=21)
    dic, log = train_dictionary(data, cfg, geom=None)
    expected_seed = int(np.random.default_rng(21).integers(2 ** 31))
    np.testing.assert_array_equal(dic.atoms, Dictionary.random(6, 8, expected_seed).atoms)
    assert log.records == []


def test_train_deterministic_given_seed():
    data = small_dataset(6)
    cfg = TrainConfig(atom_count=6, atom_side=8, target_sparsity=15.0, crop_size=32,
                      steps=60, validation_interval=20, fista_iters=10, seed=4)
    d1, l1 = train_dictionary(data, cfg, geom=GEOM)
    d2, l2 = train_dictionary(data, cfg, geom=GEOM)
    np.testing.assert_array_equal(d1.atoms, d2.atoms)
    assert [(r.step, r.lam, r.sparsity, r.objective, r.dead_atoms) for r in l1.records] == \
           [(r.step, r.lam, r.sparsity, r.objective, r.dead_atoms) for r in l2.records]


def test_train_atom_norms_and_log_schema():
    data = small_dataset(6)
    cfg = TrainConfig(atom_count=6, atom_side=8, target_sparsity=15.0, crop_size=32,
                      steps=80, validation_interval=20, fista_iters=10, seed=8)
    dic, log = train_dictionary(data, cfg, geom=None)
    norms = np.linalg.norm(dic.flat(), axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-6)
    steps = [r.step for r in log.records]
    assert steps == sorted(steps) and len(set(steps)) == len(steps)
    for r in log.records:
        assert 0 <= r.dead_atoms <= cfg.atom_count
        assert np.isfinite(r.objective) and np.isfinite(r.lam)


def test_train_logs_the_validation_duality_gap(tmp_path):
    # One 32x32 image is both the training set and the validation crop,
    # and the last step's dictionary is the one returned.
    image = small_dataset(1, n=32)[0]
    cfg = TrainConfig(atom_count=6, atom_side=8, target_sparsity=15.0, crop_size=32,
                      steps=20, validation_interval=20, fista_iters=10, seed=8)
    dic, log = train_dictionary([image], cfg, geom=None)
    (rec,) = log.records
    z, _ = fista_sparse_code(dic, image, SparseCodeConfig(lam=rec.lam, max_iters=10))
    assert rec.duality_gap == duality_gap(dic, image, z, rec.lam) > 0.0
    # train_log.csv holds each record's fields in order, and reads back exactly.
    assert [f.name for f in fields(rec)] == ["step", "lam", "sparsity", "objective",
                                            "dead_atoms", "duality_gap"]
    fileio.write_csv(tmp_path / "train_log.csv", ("step", "lambda", "sparsity", "objective",
                                                  "dead_atoms", "duality_gap"), [astuple(rec)])
    header, row = (tmp_path / "train_log.csv").read_text().splitlines()
    assert header == "step,lambda,sparsity,objective,dead_atoms,duality_gap"
    values = row.split(",")
    assert float(values[-1]) == rec.duality_gap
    assert (int(values[0]), *map(float, values[1:4]), int(values[4])) == astuple(rec)[:5]


def test_train_gap_changes_nothing_else(monkeypatch):
    data = small_dataset(6)
    cfg = TrainConfig(atom_count=6, atom_side=8, target_sparsity=15.0, crop_size=32,
                      steps=60, validation_interval=20, fista_iters=10, seed=4)
    d1, l1 = train_dictionary(data, cfg, geom=None)
    monkeypatch.setattr(learn, "duality_gap", lambda *args: 0.0)
    d2, l2 = train_dictionary(data, cfg, geom=None)
    np.testing.assert_array_equal(d1.atoms, d2.atoms)
    assert [(r.step, r.lam, r.sparsity, r.objective, r.dead_atoms) for r in l1.records] == \
           [(r.step, r.lam, r.sparsity, r.objective, r.dead_atoms) for r in l2.records]


def test_train_lambda_frozen_inside_band():
    data = small_dataset(6)
    cfg = TrainConfig(atom_count=6, atom_side=8, target_sparsity=15.0, adjust_constant=0.01,
                      crop_size=32, steps=400, validation_interval=10, fista_iters=10, seed=5)
    _, log = train_dictionary(data, cfg, geom=None)
    recs = log.records
    for prev, cur in zip(recs, recs[1:]):
        if abs(cur.sparsity - cfg.target_sparsity) <= 0.2 * cfg.target_sparsity:
            assert cur.lam == prev.lam


def test_train_rejects_bad_inputs():
    with pytest.raises(ContractError):
        train_dictionary([], TrainConfig(atom_count=2, atom_side=8, target_sparsity=2.0,
                                         crop_size=32, steps=1), geom=None)
    data = small_dataset(2, n=24)
    with pytest.raises(ContractError):
        train_dictionary(data, TrainConfig(atom_count=2, atom_side=8, target_sparsity=2.0,
                                           crop_size=32, steps=1), geom=None)


def test_train_config_validation():
    with pytest.raises(ContractError):
        TrainConfig(atom_count=4, atom_side=8, target_sparsity=4.0, crop_size=30)
    with pytest.raises(ContractError):
        TrainConfig(atom_count=4, atom_side=8, target_sparsity=0.0, crop_size=32)
    with pytest.raises(ContractError):
        TrainConfig(atom_count=4, atom_side=8, target_sparsity=4.0, crop_size=32,
                    adjust_constant=-1.0)


@pytest.mark.parametrize("key, value", [("learning_rate", -1e-3), ("learning_rate", 0.0)])
def test_train_config_rejects_adam_and_validation_constants(key, value):
    with pytest.raises(ContractError, match=key):
        TrainConfig(atom_count=4, atom_side=8, target_sparsity=4.0, crop_size=32, **{key: value})


def test_full_scale_configuration_accepted():
    # 512 atoms of side 16 at 3-nonzeros-per-patch density: the clinical
    # operating point must construct and initialize cleanly.
    tiles = (128 // 16) ** 2
    cfg = TrainConfig(atom_count=512, atom_side=16, target_sparsity=3.0 * tiles,
                      crop_size=128, steps=0, seed=0)
    img = ImageGrid(np.random.default_rng(0).standard_normal((128, 128)) * 0.01)
    dic, _ = train_dictionary([img], cfg, geom=None)
    assert dic.atom_count == 512 and dic.atom_side == 16


def test_lowpass_cutoff_default_is_ten_percent():
    import inspect
    sig = inspect.signature(remove_low_frequency)
    assert sig.parameters["cutoff_fraction"].default == 0.10
    sig = inspect.signature(train_dictionary)
    assert sig.parameters["cutoff_fraction"].default == 0.10
