import csv
import json
import math

import numpy as np
import pytest

from dictolearn import cli
from dictolearn.fileio import read_dictionary, read_grid, write_dictionary, write_grid
from dictolearn.operators import Dictionary


GEOM_FLAGS = ["--num-angles", "24", "--num-bins", "48", "--detector-spacing", "1.0"]


def run(*argv):
    return cli.main([str(a) for a in argv])


def simulate(tmp_path, seed=7, out="sim"):
    out_dir = tmp_path / out
    code = run("simulate", "--out", out_dir, "--seed", seed,
               "--phantom-size", 32, "--attenuation-scale", 0.05,
               *GEOM_FLAGS)
    assert code == 0
    return out_dir


def test_simulate_outputs_and_manifest(tmp_path):
    out = simulate(tmp_path)
    for name in ("phantom.dlgrid", "clean_sinogram.dlgrid", "counts.dlgrid",
                 "sinogram.dlgrid", "manifest.json"):
        assert (out / name).exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["seed"] == 7
    assert len(manifest["outputs"]) == 4
    values, spacing = read_grid(out / "phantom.dlgrid")
    assert values.shape == (32, 32)
    # zero phantom -> zero clean sinogram holds by linearity; spot-check scale
    clean, _ = read_grid(out / "clean_sinogram.dlgrid")
    assert clean.shape == (24, 48)


def test_simulate_deterministic_bytes(tmp_path):
    a = simulate(tmp_path, seed=9, out="a")
    b = simulate(tmp_path, seed=9, out="b")
    for name in ("phantom.dlgrid", "clean_sinogram.dlgrid", "counts.dlgrid", "sinogram.dlgrid"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    c = simulate(tmp_path, seed=10, out="c")
    assert (a / "counts.dlgrid").read_bytes() != (c / "counts.dlgrid").read_bytes()


def test_reconstruct_fbp_ignores_dictionary(tmp_path):
    sim = simulate(tmp_path)
    out = tmp_path / "rec"
    code = run("reconstruct", "--sinogram", sim / "sinogram.dlgrid",
               "--method", "fbp", "--grid-size", 32, "--out", out)
    assert code == 0
    values, _ = read_grid(out / "recon.dlgrid")
    assert values.shape == (32, 32)
    assert (out / "trace.csv").exists()


def test_reconstruct_dict_requires_dictionary(tmp_path):
    sim = simulate(tmp_path)
    code = run("reconstruct", "--sinogram", sim / "sinogram.dlgrid",
               "--method", "dict", "--out", tmp_path / "r")
    assert code == cli.EXIT_CONFIG


def test_reconstruct_dict_trace_monotone(tmp_path):
    sim = simulate(tmp_path)
    dict_path = tmp_path / "d.dldict"
    from dictolearn.fileio import write_dictionary
    write_dictionary(dict_path, Dictionary.random(6, 4, 3))
    out = tmp_path / "recd"
    code = run("reconstruct", "--sinogram", sim / "sinogram.dlgrid",
               "--dictionary", dict_path, "--method", "dict",
               "--grid-size", 32, "--lambda1", 100, "--lambda2", 0.05,
               "--iters", 25, "--out", out, "--save-coefficients")
    assert code == 0
    with open(out / "trace.csv") as fh:
        rows = list(csv.DictReader(fh))
    obj = np.array([float(r["objective"]) for r in rows])
    assert len(obj) == 25
    assert np.all(np.diff(obj) <= 1e-8 * abs(obj[0]))
    coeff, _ = read_grid(out / "coefficients.dlgrid")
    assert coeff.shape == (6 * 32, 32)


def test_evaluate_identical_inputs(tmp_path):
    sim = simulate(tmp_path)
    out = tmp_path / "ev"
    code = run("evaluate", "--recon", sim / "phantom.dlgrid",
               "--truth", sim / "phantom.dlgrid", "--out", out)
    assert code == 0
    with open(out / "metrics.csv") as fh:
        row = list(csv.DictReader(fh))[0]
    assert math.isinf(float(row["psnr"]))
    assert float(row["ssim"]) == pytest.approx(1.0, abs=1e-12)


def test_sweep_single_cell_matches_reconstruct(tmp_path):
    sim = simulate(tmp_path)
    dict_path = tmp_path / "d.dldict"
    from dictolearn.fileio import write_dictionary
    write_dictionary(dict_path, Dictionary.random(6, 4, 3))

    out_r = tmp_path / "single"
    assert run("reconstruct", "--sinogram", sim / "sinogram.dlgrid",
               "--dictionary", dict_path, "--method", "dict", "--grid-size", 32,
               "--lambda1", 100, "--lambda2", 0.05, "--iters", 20,
               "--out", out_r) == 0
    assert run("evaluate", "--recon", out_r / "recon.dlgrid",
               "--truth", sim / "phantom.dlgrid", "--out", tmp_path / "ev1") == 0
    with open(tmp_path / "ev1" / "metrics.csv") as fh:
        single = list(csv.DictReader(fh))[0]

    out_s = tmp_path / "sweep"
    assert run("sweep", "--sinogram", sim / "sinogram.dlgrid",
               "--truth", sim / "phantom.dlgrid", "--dictionary", dict_path,
               "--lambda1-grid", "100", "--lambda2-grid", "0.05",
               "--grid-size", 32, "--iters", 20, "--out", out_s) == 0
    with open(out_s / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    # The single-shot path round-trips the image through 32-bit storage,
    # so agreement is up to storage quantization.
    assert float(rows[0]["psnr"]) == pytest.approx(float(single["psnr"]), rel=1e-4)
    assert float(rows[0]["ssim"]) == pytest.approx(float(single["ssim"]), abs=1e-5)


def test_sweep_row_count_matches_grid(tmp_path):
    sim = simulate(tmp_path)
    dict_path = tmp_path / "d.dldict"
    from dictolearn.fileio import write_dictionary
    write_dictionary(dict_path, Dictionary.random(4, 4, 5))
    out = tmp_path / "sweep2"
    assert run("sweep", "--sinogram", sim / "sinogram.dlgrid",
               "--truth", sim / "phantom.dlgrid", "--dictionary", dict_path,
               "--lambda1-grid", "50,100", "--lambda2-grid", "0.01,0.05,0.1",
               "--grid-size", 32, "--iters", 5, "--out", out) == 0
    with open(out / "sweep.csv") as fh:
        assert len(list(csv.DictReader(fh))) == 6


def test_train_zero_steps_yields_initial_dictionary(tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    r = np.random.default_rng(0)
    for i in range(3):
        write_grid(data / f"img{i}.dlgrid", r.standard_normal((24, 24)) * 0.01, 1.0)
    cfg = tmp_path / "train.cfg"
    cfg.write_text("remove_low_frequency=0\natom_count=5\natom_side=4\n"
                   "crop_size=16\ntarget_sparsity=8\n")
    out1 = tmp_path / "t1"
    out2 = tmp_path / "t2"
    for out in (out1, out2):
        assert run("train", "--data", data, "--config", cfg, "--steps", 0,
                   "--seed", 4, "--out", out) == 0
    assert (out1 / "dictionary.dldict").read_bytes() == (out2 / "dictionary.dldict").read_bytes()
    d = read_dictionary(out1 / "dictionary.dldict")
    train_seed = cli._substream(4, "train")
    expected = Dictionary.random(5, 4, int(np.random.default_rng(train_seed).integers(2 ** 31)))
    np.testing.assert_allclose(d.atoms, expected.atoms.astype(np.float32), atol=1e-7)


def test_flag_overrides_config(tmp_path):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("phantom_size=48\n")
    out = tmp_path / "simcfg"
    assert run("simulate", "--config", cfg, "--out", out, "--phantom-size", 32,
               *GEOM_FLAGS) == 0
    values, _ = read_grid(out / "phantom.dlgrid")
    assert values.shape == (32, 32)


def test_unknown_config_key_exits_with_config_code(tmp_path, capsys):
    sim = simulate(tmp_path)
    cfg = tmp_path / "recon.cfg"
    cfg.write_text("lambda2=0.05\nlamda1=1000\n")
    out = tmp_path / "rec"
    code = run("reconstruct", "--sinogram", sim / "sinogram.dlgrid", "--method", "fbp",
               "--config", cfg, "--grid-size", 32, "--out", out)
    assert code == cli.EXIT_CONFIG
    assert "lamda1" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_verify_elbo_report_and_determinism(tmp_path):
    from dictolearn.fileio import write_dictionary
    dict_path = tmp_path / "d.dldict"
    write_dictionary(dict_path, Dictionary.random(6, 3, 9))
    out1 = tmp_path / "ve1"
    out2 = tmp_path / "ve2"
    for out in (out1, out2):
        code = run("verify-elbo", "--dictionary", dict_path, "--sigma", 0.3,
                   "--b", 0.4, "--b-star", 0.05, "--count", 4,
                   "--mc-samples", 5000, "--seed", 3, "--out", out)
        assert code == 0
    assert (out1 / "elbo_report.csv").read_bytes() == (out2 / "elbo_report.csv").read_bytes()
    with open(out1 / "elbo_report.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    assert all(r["violation"] == "0" for r in rows)


def test_atoms_zero_coefficients_index_order(tmp_path):
    from dictolearn.fileio import write_dictionary
    dict_path = tmp_path / "d.dldict"
    write_dictionary(dict_path, Dictionary.random(9, 4, 2))
    out = tmp_path / "atoms"
    assert run("atoms", "--dictionary", dict_path, "--out", out) == 0
    with open(out / "significance.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["atom_index"]) for r in rows] == list(range(9))
    assert (out / "atoms.pgm").read_bytes().startswith(b"P5\n")


def test_missing_input_exits_with_io_code(tmp_path):
    code = run("reconstruct", "--sinogram", tmp_path / "nope.dlgrid",
               "--method", "fbp", "--out", tmp_path / "x")
    assert code == cli.EXIT_IO


def test_removed_geometry_key_exits_with_config_code(tmp_path, capsys):
    # Parallel-beam is the only geometry; its former kind key is unknown now.
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("geometry_kind=fan\n")
    out = tmp_path / "sim"
    code = run("simulate", "--config", cfg, "--out", out, "--phantom-size", 32, *GEOM_FLAGS)
    assert code == cli.EXIT_CONFIG
    assert "geometry_kind" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("command", ["reconstruct", "sweep"])
def test_sinogram_file_sets_the_geometry(command, tmp_path, capsys):
    # The file sets the angle count, bin count and detector spacing, so a
    # flag or config key that could contradict it is refused with exit 2.
    sim = simulate(tmp_path)
    write_dictionary(tmp_path / "d.dldict", Dictionary.random(4, 8, 1))
    out = tmp_path / "out"
    argv = [command, "--sinogram", sim / "sinogram.dlgrid", "--grid-size", 32,
            "--iters", 2, "--out", out]
    if command == "reconstruct":
        argv += ["--method", "fbp"]
    else:
        argv += ["--truth", sim / "phantom.dlgrid", "--dictionary", tmp_path / "d.dldict"]
    cfg = tmp_path / "geom.cfg"
    for key, value in (("num_angles", 10), ("num_bins", 7), ("detector_spacing", 9.0)):
        with pytest.raises(SystemExit) as exited:
            run(*argv, "--" + key.replace("_", "-"), value)
        assert exited.value.code == 2
        capsys.readouterr()
        cfg.write_text(f"{key}={value}\n")
        assert run(*argv, "--config", cfg) == cli.EXIT_CONFIG
        assert key in capsys.readouterr().err
    assert not (out / "manifest.json").exists()
    assert run(*argv, "--angular-range", math.pi) == 0


@pytest.mark.parametrize("command", ["evaluate", "verify-elbo", "atoms"])
def test_config_free_commands_reject_config_keys(command, tmp_path, capsys):
    from dictolearn.fileio import write_dictionary
    image = tmp_path / "img.dlgrid"
    write_grid(image, np.zeros((16, 16)), 1.0)
    dict_path = tmp_path / "d.dldict"
    write_dictionary(dict_path, Dictionary.random(4, 3, 1))
    argv = {
        "evaluate": ["--recon", image, "--truth", image],
        "verify-elbo": ["--dictionary", dict_path, "--sigma", 0.3, "--b", 0.4,
                        "--b-star", 0.05, "--count", 1],
        "atoms": ["--dictionary", dict_path],
    }[command]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("data_rnage=5\n")
    out = tmp_path / "out"
    assert run(command, *argv, "--config", cfg, "--out", out) == cli.EXIT_CONFIG
    assert "data_rnage" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_sweep_default_grid_axes(tmp_path):
    # Without grid flags the sweep covers the documented 2x3 default axes.
    sim = simulate(tmp_path)
    dict_path = tmp_path / "d.dldict"
    from dictolearn.fileio import write_dictionary
    write_dictionary(dict_path, Dictionary.random(4, 4, 5))
    out = tmp_path / "defsweep"
    assert run("sweep", "--sinogram", sim / "sinogram.dlgrid",
               "--truth", sim / "phantom.dlgrid", "--dictionary", dict_path,
               "--grid-size", 32, "--iters", 2, "--out", out) == 0
    with open(out / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [(float(r["lambda1"]), float(r["lambda2"])) for r in rows] == [
        (10.0, 0.0012), (10.0, 0.0016), (10.0, 0.0024),
        (50.0, 0.0012), (50.0, 0.0016), (50.0, 0.0024)]
