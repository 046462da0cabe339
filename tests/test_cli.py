import csv
import dataclasses
import json
import math
import os
import platform
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from dictolearn import cli, elbo, learn
from dictolearn.fileio import read_dictionary, read_grid, write_dictionary, write_grid
from dictolearn.operators import Dictionary
from dictolearn.sparse import DivergenceError


GEOM_FLAGS = ["--num-angles", "24", "--num-bins", "48", "--detector-spacing", "1.0"]


def run(*argv):
    return cli.main([str(a) for a in argv])


def exit_code(*argv):
    """Exit status of a run, whether argparse or the command ends it."""
    try:
        return run(*argv)
    except SystemExit as exited:
        return exited.code


def simulate(tmp_path, seed=7, out="sim"):
    out_dir = tmp_path / out
    code = run("simulate", "--out", out_dir, "--seed", seed,
               "--phantom-size", 32, "--attenuation-scale", 0.05,
               *GEOM_FLAGS)
    assert code == 0
    return out_dir


def test_simulate_outputs_and_manifest(tmp_path, monkeypatch):
    # The thread variables are recorded as the environment holds them.
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.setenv("MKL_NUM_THREADS", "1")
    out = simulate(tmp_path)
    for name in ("phantom.dlgrid", "clean_sinogram.dlgrid", "counts.dlgrid",
                 "sinogram.dlgrid", "manifest.json"):
        assert (out / name).exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["seed"] == 7
    assert len(manifest["outputs"]) == 4
    assert manifest["versions"] == {"python": platform.python_version(),
                                    "numpy": np.__version__, "scipy": scipy.__version__}
    assert manifest["threads"] == {"OMP_NUM_THREADS": "3", "OPENBLAS_NUM_THREADS": None,
                                   "MKL_NUM_THREADS": "1"}
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


@pytest.mark.parametrize("method", ["dict", "dict-patch"])
def test_reconstruct_trace_rows_sum_their_terms(tmp_path, method):
    # One row per iteration, each objective the sum of its three terms bit
    # for bit: the CSV writes floats by repr, which reads back exactly.
    sim = simulate(tmp_path)
    dict_path = tmp_path / "d.dldict"
    write_dictionary(dict_path, Dictionary.random(6, 4, 3))
    out = tmp_path / method
    assert run("reconstruct", "--sinogram", sim / "sinogram.dlgrid",
               "--dictionary", dict_path, "--method", method,
               "--grid-size", 32, "--lambda1", 100, "--lambda2", 0.05,
               "--iters", 7, "--out", out) == 0
    with open(out / "trace.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["iter"]) for r in rows] == list(range(7))
    for r in rows:
        data, coupling, l1 = (float(r[k]) for k in ("data_term", "coupling_term", "l1_term"))
        assert float(r["objective"]) == data + coupling + l1


def test_dict_patch_coefficients_are_ranked_by_atoms(tmp_path):
    # dict-patch z has one map per atom over the 32 + 4 - 1 patch positions.
    sim = simulate(tmp_path)
    dict_path = tmp_path / "d.dldict"
    write_dictionary(dict_path, Dictionary.random(6, 4, 3))
    out = tmp_path / "recp"
    assert run("reconstruct", "--sinogram", sim / "sinogram.dlgrid",
               "--dictionary", dict_path, "--method", "dict-patch",
               "--grid-size", 32, "--lambda1", 100, "--lambda2", 0.05,
               "--iters", 5, "--out", out, "--save-coefficients") == 0
    coeff, _ = read_grid(out / "coefficients.dlgrid")
    assert coeff.shape == (6 * 35, 35)
    sums = np.abs(coeff).reshape(6, 35, 35).sum(axis=(1, 2))
    assert np.count_nonzero(sums) > 0
    ranked = tmp_path / "atoms"
    assert run("atoms", "--dictionary", dict_path,
               "--coefficients", out / "coefficients.dlgrid", "--out", ranked) == 0
    with open(ranked / "significance.csv") as fh:
        rows = list(csv.DictReader(fh))
    order = [int(r["atom_index"]) for r in rows]
    np.testing.assert_array_equal(order, np.lexsort((np.arange(6), -sums)))
    np.testing.assert_allclose([float(r["score"]) for r in rows], sums[order], rtol=1e-12)


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
    assert (out1 / "elbo_report.csv").read_text().splitlines()[0] == (
        "sample,f_at_mode,penalty_quad,penalty_lin,constant_c,expected_f,elbo_exact,"
        "lower_bound,gap,gap_bound,support_size,mode_gap,mc_estimate,mc_stderr,violation")
    with open(out1 / "elbo_report.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    assert all(r["violation"] == "0" for r in rows)
    assert all(float(r["mode_gap"]) <= elbo.MODE_GAP_TOL for r in rows)
    integral = ("sample", "support_size", "violation")
    for r in rows:
        for key, value in r.items():
            (int if key in integral else float)(value)


def test_verify_elbo_uncertified_mode_exits_5(tmp_path, monkeypatch):
    # No gap is at most -1, so every z* runs to the iteration cap uncertified.
    monkeypatch.setattr(elbo, "MODE_GAP_TOL", -1.0)
    dict_path = tmp_path / "d.dldict"
    write_dictionary(dict_path, Dictionary.random(6, 3, 9))
    out = tmp_path / "ve"
    code = run("verify-elbo", "--dictionary", dict_path, "--sigma", 0.3, "--b", 0.4,
               "--b-star", 0.05, "--count", 2, "--mc-samples", 0, "--out", out)
    assert code == cli.EXIT_VERIFY
    with open(out / "elbo_report.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["violation"] for r in rows] == ["1", "1"]
    # A verification failure still reports, so its manifest is written.
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"] == [str(out / "elbo_report.csv")]


def _verify_elbo_rows(tmp_path, dictionary, capsys):
    """Exit code, violation column and printed lines of a 2-sample Monte-Carlo run."""
    dict_path = tmp_path / "d.dldict"
    write_dictionary(dict_path, dictionary)
    out = tmp_path / "ve"
    code = run("verify-elbo", "--dictionary", dict_path, "--sigma", 0.3, "--b", 0.4,
               "--b-star", 0.05, "--count", 2, "--mc-samples", 1000, "--out", out)
    with open(out / "elbo_report.csv") as fh:
        return code, [r["violation"] for r in csv.DictReader(fh)], capsys.readouterr().out


def test_verify_elbo_monte_carlo_disagreement_exits_5(tmp_path, monkeypatch, capsys):
    real = elbo.elbo_monte_carlo

    def off(*args):
        mc, se = real(*args)
        return mc + 10 * se, se

    monkeypatch.setattr(elbo, "elbo_monte_carlo", off)
    code, violations, printed = _verify_elbo_rows(tmp_path, Dictionary.random(6, 3, 9), capsys)
    assert code == cli.EXIT_VERIFY and violations == ["1", "1"]
    assert "sample 1: Monte-Carlo ELBO more than 4 SE off" in printed


def test_verify_elbo_quadrature_failure_exits_5(tmp_path, monkeypatch, capsys):
    # m <= 2, so the chain runs the quadrature; an evidence below the
    # Monte-Carlo ELBO fails it.
    real, estimates = elbo.elbo_monte_carlo, []

    def record(*args):
        estimates.append(real(*args))
        return estimates[-1]

    monkeypatch.setattr(elbo, "elbo_monte_carlo", record)
    monkeypatch.setattr(elbo, "log_evidence_quadrature", lambda *args: estimates[-1][0] - 1.0)
    code, violations, printed = _verify_elbo_rows(tmp_path, Dictionary.random(2, 2, 9), capsys)
    assert code == cli.EXIT_VERIFY and violations == ["1", "1"]
    assert "sample 0: log evidence below the Monte-Carlo ELBO" in printed


def test_verify_elbo_certifies_c07_sized_modes(tmp_path):
    # m = n = 64: one of these 40 samples needs more than 2000 iterations to certify.
    dict_path = Path(__file__).parents[1] / "perfbench" / "data" / "dict_c07.dldict"
    out = tmp_path / "ve"
    assert run("verify-elbo", "--dictionary", dict_path, "--sigma", 0.3, "--b", 0.4,
               "--b-star", 0.05, "--count", 40, "--seed", 0, "--out", out) == cli.EXIT_OK
    with open(out / "elbo_report.csv") as fh:
        assert [r["violation"] for r in csv.DictReader(fh)] == ["0"] * 40


def test_failed_solve_writes_no_manifest(tmp_path, monkeypatch):
    # The manifest is written after the outputs, so a run that raises leaves none.
    sim = simulate(tmp_path)
    write_dictionary(tmp_path / "d.dldict", Dictionary.random(6, 4, 3))

    def diverge(*args, **kwargs):
        raise DivergenceError("objective is not finite", {})

    monkeypatch.setattr(cli.recon, "reconstruct_dict", diverge)
    out = tmp_path / "rec"
    assert run("reconstruct", "--sinogram", sim / "sinogram.dlgrid",
               "--dictionary", tmp_path / "d.dldict", "--method", "dict",
               "--grid-size", 32, "--out", out) == cli.EXIT_CONTRACT
    assert not (out / "manifest.json").exists()
    assert not out.exists()


# Every CSV the pipeline writes, by output directory, with its documented header.
CSV_HEADERS = {
    "train/train_log.csv": "step,lambda,sparsity,objective,dead_atoms,duality_gap",
    "dict/trace.csv": "iter,objective,data_term,coupling_term,l1_term",
    "dict-patch/trace.csv": "iter,objective,data_term,coupling_term,l1_term",
    "fbp/trace.csv": "iter,objective",
    "huber/trace.csv": "iter,objective",
    "eval/metrics.csv": "psnr,ssim",
    "sweep/sweep.csv": "lambda1,lambda2,psnr,ssim",
    "elbo/elbo_report.csv": "sample,f_at_mode,penalty_quad,penalty_lin,constant_c,expected_f,"
                            "elbo_exact,lower_bound,gap,gap_bound,support_size,mode_gap,"
                            "mc_estimate,mc_stderr,violation",
    "atoms/significance.csv": "rank,atom_index,score",
}


def test_every_csv_is_plain_numbers_with_lf(tmp_path):
    sim = simulate(tmp_path)
    sino, truth = sim / "sinogram.dlgrid", sim / "phantom.dlgrid"
    runs = tmp_path / "runs"
    assert run("train", "--data", _train_data(tmp_path), "--atom-count", 4, "--atom-side", 4,
               "--crop-size", 16, "--target-sparsity", 4, "--steps", 4,
               "--validation-interval", 2, *GEOM_FLAGS, "--out", runs / "train") == 0
    dict_path = runs / "train" / "dictionary.dldict"
    for method in ("dict", "dict-patch", "fbp", "huber"):
        assert run("reconstruct", "--sinogram", sino, "--dictionary", dict_path,
                   "--method", method, "--grid-size", 32, "--iters", 3, "--huber-iters", 3,
                   "--save-coefficients", "--out", runs / method) == 0
    assert run("evaluate", "--recon", runs / "dict" / "recon.dlgrid", "--truth", truth,
               "--out", runs / "eval") == 0
    assert run("sweep", "--sinogram", sino, "--truth", truth, "--dictionary", dict_path,
               "--lambda1-grid", "50,100", "--lambda2-grid", "0.05", "--grid-size", 32,
               "--iters", 2, "--out", runs / "sweep") == 0
    assert run("verify-elbo", "--dictionary", dict_path, "--sigma", 0.3, "--b", 0.4,
               "--b-star", 0.05, "--count", 2, "--mc-samples", 1000,
               "--out", runs / "elbo") == 0
    assert run("atoms", "--dictionary", dict_path,
               "--coefficients", runs / "dict-patch" / "coefficients.dlgrid",
               "--out", runs / "atoms") == 0

    written = sorted(p.relative_to(runs).as_posix() for p in runs.glob("*/*.csv"))
    assert written == sorted(CSV_HEADERS)
    for name, header in CSV_HEADERS.items():
        data = (runs / name).read_bytes()
        assert b"\r" not in data, name
        lines = data.decode().split("\n")
        assert lines[0] == header and lines[-1] == "" and len(lines) > 2, name
        for line in lines[1:-1]:
            fields = line.split(",")
            assert len(fields) == len(header.split(",")), name
            for field in fields:
                try:
                    int(field)
                except ValueError:
                    float(field)


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


# Arguments that each command needs besides its option table; only parsed here.
REQUIRED = {
    "simulate": [],
    "train": ["--data", "d"],
    "reconstruct": ["--sinogram", "s.dlgrid", "--method", "fbp"],
    "sweep": ["--sinogram", "s.dlgrid", "--truth", "t.dlgrid", "--dictionary", "d.dldict"],
}


def _other_value(key, default):
    """Config text for a value that differs from the default, and that value."""
    if isinstance(default, bool):
        return str(not default).lower(), not default
    if isinstance(default, tuple):
        return "1,2.5", (1.0, 2.5)
    if isinstance(default, str):
        choice = next(c for c in cli.CHOICES[key] if c != default)
        return choice, choice
    value = type(default)(default * 2 + 1)
    return repr(value), value


@pytest.mark.parametrize("command", sorted(REQUIRED))
def test_flag_and_config_key_parse_alike(command, tmp_path):
    parser = cli.build_parser()
    table = parser.parse_args([command, *REQUIRED[command], "--out", "o"]).table
    assert len(table) == {"simulate": 11, "train": 16, "reconstruct": 12, "sweep": 7}[command]
    cfg = tmp_path / "run.cfg"
    for key, default in table.items():
        text, value = _other_value(key, default)
        flag = parser.parse_args([command, *REQUIRED[command], "--out", "o",
                                  "--" + key.replace("_", "-"), text])
        cfg.write_text(f"{key}={text}\n")
        file = parser.parse_args([command, *REQUIRED[command], "--out", "o", "--config", str(cfg)])
        assert cli._options(flag)[key] == cli._options(file)[key] == value != default, key


def _train_data(tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    r = np.random.default_rng(0)
    for i in range(3):
        write_grid(data / f"img{i}.dlgrid", r.standard_normal((24, 24)) * 0.01, 1.0)
    return data


def _command_argv(command, tmp_path):
    """A quick run of each command; its files are made on demand."""
    if command == "simulate":
        return ["simulate", "--phantom-size", 32, *GEOM_FLAGS]
    if command == "train":
        return ["train", "--data", _train_data(tmp_path), "--atom-count", 4, "--atom-side", 4,
                "--crop-size", 16, "--target-sparsity", 4, "--validation-interval", 1]
    sim = simulate(tmp_path)
    if command == "evaluate":
        return ["evaluate", "--recon", sim / "phantom.dlgrid", "--truth", sim / "phantom.dlgrid"]
    dict_path = tmp_path / "d.dldict"
    write_dictionary(dict_path, Dictionary.random(4, 3, 1))
    if command == "atoms":
        return ["atoms", "--dictionary", dict_path]
    if command == "verify-elbo":
        return ["verify-elbo", "--dictionary", dict_path, "--sigma", 0.3,
                "--b", 0.4, "--b-star", 0.05, "--count", 1]
    if command == "sweep":
        return ["sweep", "--sinogram", sim / "sinogram.dlgrid", "--truth", sim / "phantom.dlgrid",
                "--dictionary", dict_path, "--grid-size", 32, "--iters", 2]
    return ["reconstruct", "--sinogram", sim / "sinogram.dlgrid", "--dictionary", dict_path,
            "--grid-size", 32]


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command, key, value, extra", [
    ("train", "steps", "2.5", []),
    ("reconstruct", "lambda1", "abc", ["--method", "fbp"]),
    ("reconstruct", "lambda1", "abc", ["--method", "huber"]),
    ("train", "remove_low_frequency", "ture", ["--steps", 0]),
    ("reconstruct", "fbp_window", "bogus", ["--method", "fbp"]),
    ("simulate", "contrast", "bogus", []),
    ("simulate", "phantom", "bogus", []),
], ids=["int", "float", "float-huber", "bool", "fbp-window", "contrast", "phantom"])
def test_bad_option_value_exits_2_without_manifest(command, key, value, extra, source,
                                                   tmp_path, capsys):
    argv = _command_argv(command, tmp_path) + extra
    out = tmp_path / "out"
    if source == "flag":
        argv += ["--" + key.replace("_", "-"), value]
    else:
        (tmp_path / "bad.cfg").write_text(f"{key}={value}\n")
        argv += ["--config", tmp_path / "bad.cfg"]
    assert exit_code(*argv, "--out", out) == cli.EXIT_CONFIG
    assert key in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("command, extra, code", [
    ("reconstruct", ["--method", "huber", "--huber-iters", 0], cli.EXIT_CONTRACT),
    ("reconstruct", ["--method", "dict", "--iters", 0], cli.EXIT_CONTRACT),
    ("reconstruct", ["--method", "dict-patch", "--dictionary", "bad.dldict"], cli.EXIT_IO),
    ("verify-elbo", ["--mc-samples", 10], cli.EXIT_CONTRACT),
    ("sweep", ["--lambda1-grid", "-1"], cli.EXIT_CONTRACT),
    ("simulate", ["--incident-photons", 0], cli.EXIT_CONTRACT),
    ("reconstruct", ["--method", "fbp", "--fbp-cutoff", 2], cli.EXIT_CONTRACT),
    ("train", ["--lowpass-cutoff", 2], cli.EXIT_CONTRACT),
    ("train", ["--adjust-constant", -1], cli.EXIT_CONTRACT),
    ("train", ["--initial-lambda", -5], cli.EXIT_CONTRACT),
    ("train", ["--learning-rate", -1e-3], cli.EXIT_CONTRACT),
    ("verify-elbo", ["--count", 0], cli.EXIT_CONFIG),
    ("verify-elbo", ["--count", -1], cli.EXIT_CONFIG),
    ("sweep", ["--lambda1-grid", ""], cli.EXIT_CONFIG),
    ("sweep", ["--lambda2-grid", ""], cli.EXIT_CONFIG),
    ("sweep", ["--truth", "bad.dlgrid"], cli.EXIT_CONTRACT),
    ("evaluate", ["--data-range", -1], cli.EXIT_CONTRACT),
    ("evaluate", ["--data-range", "inf"], cli.EXIT_CONTRACT),
    ("evaluate", ["--recon", "bad.dlgrid"], cli.EXIT_CONTRACT),
    ("atoms", ["--coefficients", "bad.dlgrid"], cli.EXIT_CONFIG),
    ("train", ["--crop-size", 64], cli.EXIT_CONTRACT),
    ("simulate", ["--attenuation-scale", -10], cli.EXIT_CONTRACT),
    ("verify-elbo", ["--mc-samples", -5], cli.EXIT_CONTRACT),
    ("atoms", ["--coefficients", "nan.dlgrid"], cli.EXIT_CONTRACT),
    ("reconstruct", ["--method", "fbp", "--grid-size", 0], cli.EXIT_CONTRACT),
    ("reconstruct", ["--method", "fbp", "--grid-size", -4], cli.EXIT_CONTRACT),
    ("reconstruct", ["--method", "fbp", "--pixel-spacing", 0], cli.EXIT_CONTRACT),
    ("reconstruct", ["--method", "fbp", "--pixel-spacing", "inf"], cli.EXIT_CONTRACT),
    ("simulate", ["--detector-spacing", "inf"], cli.EXIT_CONTRACT),
    ("simulate", ["--incident-photons", "inf"], cli.EXIT_CONTRACT),
    ("simulate", ["--incident-photons", 1e20], cli.EXIT_CONTRACT),
    ("verify-elbo", ["--b-star", "inf"], cli.EXIT_CONTRACT),
], ids=["huber-iters", "dict-iters", "bad-dictionary", "mc-samples", "sweep-grid",
        "incident-photons", "fbp-cutoff", "lowpass-cutoff", "adjust-constant",
        "initial-lambda", "learning-rate", "count-zero",
        "count-negative", "sweep-empty-grid", "sweep-empty-lambda2-grid", "sweep-truth-shape",
        "data-range", "data-range-inf", "shape-mismatch", "coefficient-rows", "crop-size", "attenuation-scale",
        "mc-samples-negative", "coefficient-nan", "grid-size-zero", "grid-size-negative",
        "fbp-pixel-spacing-zero", "fbp-pixel-spacing-inf", "detector-spacing-inf", "incident-photons-inf",
        "incident-photons-beyond-poisson", "b-star-inf"])
def test_out_of_range_option_writes_no_manifest(command, extra, code, tmp_path, monkeypatch):
    # The run ends before its manifest, so no manifest claims unwritten outputs.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.dldict").write_bytes(b"not a dictionary")
    # 5 x 32: not the 32 x 32 phantom's shape, and 5 rows for 4 atoms.
    write_grid(tmp_path / "bad.dlgrid", np.zeros((5, 32)), 1.0)
    # 4 atoms x 2 rows, with one entry that is not finite.
    nan_coefficients = np.zeros((8, 3))
    nan_coefficients[5, 1] = np.nan
    write_grid(tmp_path / "nan.dlgrid", nan_coefficients, 1.0)
    out = tmp_path / "out"
    assert run(*_command_argv(command, tmp_path), *extra, "--out", out) == code
    assert not out.exists()


def test_removed_train_knobs_are_refused(tmp_path, capsys):
    # Adam's beta1, beta2 and epsilon are module constants: neither a flag
    # nor a config key sets them.
    argv = _command_argv("train", tmp_path)
    out = tmp_path / "out"
    assert exit_code(*argv, "--beta1", 0.8, "--out", out) == cli.EXIT_CONFIG
    assert "--beta1" in capsys.readouterr().err
    (tmp_path / "adam.cfg").write_text("epsilon=1e-8\n")
    assert exit_code(*argv, "--config", tmp_path / "adam.cfg", "--out", out) == cli.EXIT_CONFIG
    assert "epsilon" in capsys.readouterr().err
    assert not out.exists()


def test_train_table_matches_train_config():
    # Every training knob is both a train option and a TrainConfig field,
    # so one cannot be dropped from one side and left on the other.
    split = {*cli.GEOMETRY, "lowpass_cutoff", "remove_low_frequency"}
    config_fields = {f.name for f in dataclasses.fields(learn.TrainConfig)}
    assert set(cli.TRAIN) - split == config_fields - {"seed"}


def test_manifest_records_every_option_in_effect(tmp_path):
    sim = simulate(tmp_path)
    out = tmp_path / "rec"
    assert run("reconstruct", "--sinogram", sim / "sinogram.dlgrid", "--method", "fbp",
               "--fbp-cutoff", 0.5, "--grid-size", 32, "--out", out) == 0
    params = json.loads((out / "manifest.json").read_text())["parameters"]
    assert params["fbp_cutoff"] == 0.5
    assert params["method"] == "fbp"
    assert params["lambda1"] == cli.RECONSTRUCT["lambda1"] == 50.0
    assert set(params) == set(cli.RECONSTRUCT) | {"sinogram", "dictionary", "method",
                                                  "save_coefficients"}


def test_readme_commands_parse():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Command-line pipeline")[1].split("```sh\n")[1].split("```")[0]
    block = block.replace("\\\n", " ")
    commands = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("dictolearn ")]
    assert len(commands) == 7
    for argv in commands:
        cli._options(cli.build_parser().parse_args(argv))


def test_make_dataset_script_writes_phantoms(tmp_path):
    # Step 2 of the README pipeline: a directory of phantom grids for train.
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run([sys.executable, "scripts/make_dataset.py", str(tmp_path / "data"),
                           "--count", "2", "--size", "32"],
                          cwd=root, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    paths = sorted((tmp_path / "data").iterdir())
    assert [p.name for p in paths] == ["phantom0000.dlgrid", "phantom0001.dlgrid"]
    for path in paths:
        values, spacing = read_grid(path)
        assert values.shape == (32, 32)
        assert spacing == pytest.approx(2.8)
        assert values.max() > 0


def test_desk_experiment_script_prints_every_method():
    # A short run of the desk comparison: four method rows, each finite.
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run([sys.executable, "scripts/desk_experiment.py", "--train-steps", "50",
                           "--train-images", "4", "--iters", "3"],
                          cwd=root, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    lines = proc.stdout.splitlines()
    table = lines[lines.index(f"{'method':<16} {'PSNR (dB)':>10} {'SSIM':>8}") + 1:]
    assert [line[:16].strip() for line in table] == [
        "fbp (hann 0.75)", "huber", "dict (conv)", "dict (patch)"]
    for line in table:
        psnr_db, ssim = map(float, line[16:].split())
        assert math.isfinite(psnr_db) and math.isfinite(ssim)
