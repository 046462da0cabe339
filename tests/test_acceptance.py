"""Acceptance suite: one test per criterion, each printing a PASS line.

Heavy desk-scale artifacts (trained dictionaries, reconstructions) are
built once in session fixtures and shared across criteria. Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import dataclasses
import hashlib
import json
import math
import platform
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
import scipy

from dictolearn import desk
from dictolearn.analytics import psnr, random_ellipse_phantom
from dictolearn.elbo import (
    ElboReport,
    ModelParams,
    dense_matrix,
    evidence_chain,
    elbo_lower_bound,
    elbo_monte_carlo,
    log_evidence_quadrature,
    posterior_mode,
)
from dictolearn.learn import TrainConfig, train_dictionary
from dictolearn.operators import (
    ConvSynthesis,
    Dictionary,
    ImageGrid,
    PatchSynthesis,
    dict_gradient,
)
from dictolearn.recon import (
    HuberConfig,
    huber_loss_and_gradient,
    reconstruct_dict,
    reconstruct_dict_patch,
    reconstruct_huber,
)
from dictolearn.fileio import read_dictionary, read_grid, write_csv, write_dictionary, write_grid
from dictolearn.sparse import SparseCodeConfig, fista_sparse_code
from dictolearn.tomo import (
    AcquisitionGeometry,
    Sinogram,
    data_loss_and_gradient,
    fbp,
    forward_project,
    get_projector,
)
from conftest import adjoint_rel_err, cd_sparse_solve


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {number:>2} {name}: {status}  {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


# ---------------------------------------------------------------- criterion 1

def test_c01_adjoint_suite():
    rng = np.random.default_rng(101)
    start = time.time()
    worst = 0.0
    for trial in range(20):
        if trial % 2 == 0:
            geom = AcquisitionGeometry(
                num_angles=int(rng.integers(5, 30)), num_bins=int(rng.integers(12, 48)),
                detector_spacing=float(rng.uniform(0.5, 2.0)))
        else:
            geom = AcquisitionGeometry(
                num_angles=int(rng.integers(5, 24)), num_bins=int(rng.integers(12, 40)),
                detector_spacing=float(rng.uniform(0.5, 2.0)), angular_range=2 * np.pi)
        side = int(rng.integers(8, 24))
        proj = get_projector(geom, (side, side), float(rng.uniform(0.5, 1.5)))
        x = rng.standard_normal((side, side))
        s = rng.standard_normal(geom.shape)
        worst = max(worst, adjoint_rel_err(proj.forward, proj.adjoint, x, s))

    for trial in range(20):
        m = int(rng.integers(1, 8))
        k = int(rng.integers(2, 7))
        d = Dictionary.random(m, k, int(rng.integers(2 ** 31)))
        h, w = int(rng.integers(8, 20)), int(rng.integers(8, 20))
        z = rng.standard_normal((m, h, w))
        r = rng.standard_normal((h, w))
        worst = max(worst, adjoint_rel_err(
            ConvSynthesis(d, (h, w)).apply, ConvSynthesis(d, (h, w)).adjoint, z, r))
        hp, wp = k * int(rng.integers(1, 5)), k * int(rng.integers(1, 5))
        zp = rng.standard_normal((m, hp // k, wp // k))
        rp = rng.standard_normal((hp, wp))
        worst = max(worst, adjoint_rel_err(
            PatchSynthesis(d, (hp, wp)).apply, PatchSynthesis(d, (hp, wp)).adjoint, zp, rp))
    elapsed = time.time() - start
    report(1, "adjoint suite", worst < 1e-6 and elapsed < 10.0,
           f"worst rel err {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------- criterion 2

def test_c02_gradient_suite():
    rng = np.random.default_rng(102)
    start = time.time()
    step = 1e-5
    worst = 0.0

    # dict_gradient, both modes, via the synthesis-residual objective.
    for mode in ("convolutional", "patch"):
        m, k = 2, 4
        d = Dictionary.random(m, k, 5)
        if mode == "convolutional":
            z = rng.standard_normal((m, 8, 8))
            synth = lambda dd, zz: ConvSynthesis(dd, (8, 8)).apply(zz)
        else:
            z = rng.standard_normal((m, 2, 2))
            synth = lambda dd, zz: PatchSynthesis(dd, (8, 8)).apply(zz)
        x = ImageGrid(rng.standard_normal((8, 8)))
        grad = dict_gradient(d, z, x, mode)

        def objective(atoms):
            dd = Dictionary.__new__(Dictionary)
            dd.atoms = atoms
            residual = synth(dd, z) - x.values
            return float(np.sum(residual * residual))

        for i in range(m):
            for a in range(k):
                for b in range(k):
                    up = d.atoms.copy(); up[i, a, b] += step
                    dn = d.atoms.copy(); dn[i, a, b] -= step
                    fd = (objective(up) - objective(dn)) / (2 * step)
                    worst = max(worst, abs(fd - grad[i, a, b]) / max(abs(fd), 1e-8))

    # data term and Huber objective gradients on 8x8 images.
    geom = AcquisitionGeometry(num_angles=12, num_bins=14, detector_spacing=1.0)
    x = ImageGrid(rng.standard_normal((8, 8)) * 0.2)
    y = Sinogram(rng.standard_normal(geom.shape) * 0.3, geom)
    _, grad_data = data_loss_and_gradient(x, y)
    hcfg = HuberConfig(lam=0.4, gamma=0.05, iters=1)
    _, grad_hub = huber_loss_and_gradient(x, y, hcfg)
    for i in range(8):
        for j in range(8):
            up = x.values.copy(); up[i, j] += step
            dn = x.values.copy(); dn[i, j] -= step
            lp, _ = data_loss_and_gradient(ImageGrid(up), y)
            lm, _ = data_loss_and_gradient(ImageGrid(dn), y)
            fd = (lp - lm) / (2 * step)
            worst = max(worst, abs(fd - grad_data.values[i, j]) / max(abs(fd), 1e-8))
            hp, _ = huber_loss_and_gradient(ImageGrid(up), y, hcfg)
            hm, _ = huber_loss_and_gradient(ImageGrid(dn), y, hcfg)
            fd = (hp - hm) / (2 * step)
            worst = max(worst, abs(fd - grad_hub.values[i, j]) / max(abs(fd), 1e-8))
    elapsed = time.time() - start
    report(2, "gradient suite", worst < 1e-4 and elapsed < 30.0,
           f"worst rel err {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------- criterion 3

def test_c03_sparse_coding_oracle():
    start = time.time()
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(300 + seed)
        d = Dictionary.random(6, 4, 300 + seed)
        x = rng.standard_normal(16) * 0.6
        lam = float(rng.uniform(0.05, 0.4))
        z_cd = cd_sparse_solve(dense_matrix(d), x, lam)
        obj_cd = float(np.sum((dense_matrix(d) @ z_cd - x) ** 2) + lam * np.sum(np.abs(z_cd)))
        _, trace = fista_sparse_code(d, ImageGrid(x.reshape(4, 4)),
                                     SparseCodeConfig(lam=lam, max_iters=500))
        worst = max(worst, (trace[-1] - obj_cd) / abs(obj_cd))
    elapsed = time.time() - start
    report(3, "sparse-coding oracle", worst < 1e-6 and elapsed < 10.0,
           f"worst rel objective gap {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------- criterion 4

def test_c04_evidence_bound_suite():
    rng = np.random.default_rng(104)
    start = time.time()
    violations = 0
    mc_checked = 0
    mc_ok = 0
    for trial in range(50):
        k = int(rng.integers(2, 5))           # n = k*k <= 16
        m = int(rng.integers(2, 33))          # m <= 32
        d = Dictionary.random(m, k, int(rng.integers(2 ** 31)))
        params = ModelParams(sigma=float(rng.uniform(0.1, 0.7)),
                             b=float(rng.uniform(0.2, 0.9)),
                             b_star=float(rng.uniform(0.005, 0.25)),
                             n=k * k, m=m)
        x = rng.standard_normal(k * k) * float(rng.uniform(0.2, 1.0))
        z_star = posterior_mode(x, d, params, fista_iters=800)
        rep = elbo_lower_bound(x, d, params, z_star)
        if rep.elbo_exact < rep.lower_bound - 1e-10:
            violations += 1
        if rep.gap > rep.gap_bound + 1e-10:
            violations += 1
        if trial < 10:
            mc, se = elbo_monte_carlo(x, d, params, z_star, 100_000,
                                      seed=int(rng.integers(2 ** 31)))
            mc_checked += 1
            if abs(mc - rep.elbo_exact) <= 3 * se:
                mc_ok += 1
    elapsed = time.time() - start
    report(4, "evidence-bound suite",
           violations == 0 and mc_ok >= mc_checked - 0 and elapsed < 120.0,
           f"0 bound violations expected, got {violations}; MC {mc_ok}/{mc_checked}, {elapsed:.0f}s")


# ---------------------------------------------------------------- criterion 5

def test_c05_evidence_chain():
    start = time.time()
    ok = True
    details = []
    for trial, m in enumerate((1, 2, 2, 1, 2)):
        rng = np.random.default_rng(500 + trial)
        k = 2 if m == 2 else 1
        d = Dictionary.random(m, k, 500 + trial)
        params = ModelParams(sigma=float(rng.uniform(0.2, 0.5)),
                             b=float(rng.uniform(0.3, 0.7)),
                             b_star=float(rng.uniform(0.02, 0.15)),
                             n=k * k, m=m)
        x = rng.standard_normal(k * k) * 0.5
        z_star = posterior_mode(x, d, params)
        evidence = log_evidence_quadrature(x, d, params, points=2001)
        mc, se = elbo_monte_carlo(x, d, params, z_star, 100_000, seed=trial)
        # Trapezoid grid at this resolution is accurate well below 1e-3.
        ok = ok and (evidence >= mc - 3 * se - 1e-3)
        details.append(f"{evidence - mc:+.4f}")
    elapsed = time.time() - start
    report(5, "evidence chain", ok and elapsed < 120.0,
           f"log-evidence minus MC ELBO: {', '.join(details)}; {elapsed:.0f}s")


# ---------------------------------------------------------------- criterion 6

@dataclass
class PlantedRun:
    generators: np.ndarray
    dictionary: Dictionary
    log: object
    target: float
    elapsed: float


@pytest.fixture(scope="module")
def planted_run():
    rng = np.random.default_rng(606)
    gens = rng.standard_normal((4, 8, 8))
    gens /= np.linalg.norm(gens.reshape(4, -1), axis=1)[:, None, None]

    def planted_image(seed):
        r = np.random.default_rng(seed)
        img = np.zeros((64, 64))
        for _ in range(6):
            g = r.integers(0, 4)
            ty, tx = r.integers(0, 8, 2)
            img[ty * 8:(ty + 1) * 8, tx * 8:(tx + 1) * 8] += r.laplace(0, 1.0) * gens[g]
        return ImageGrid(img)

    dataset = [planted_image(1000 + i) for i in range(200)]
    cfg = TrainConfig(atom_count=8, atom_side=8, target_sparsity=6.0,
                      adjust_constant=0.005, crop_size=64, steps=6000,
                      learning_rate=3e-3, validation_interval=25,
                      fista_iters=30, seed=1)
    start = time.time()
    dictionary, log = train_dictionary(dataset, cfg, geom=None)
    return PlantedRun(gens, dictionary, log, cfg.target_sparsity, time.time() - start)


def test_c06_atom_recovery(planted_run):
    G = planted_run.generators.reshape(4, -1)
    A = planted_run.dictionary.flat()
    M = np.abs(G @ A.T)
    used = set()
    recovered = 0
    overlaps = []
    for gi in np.argsort(-M.max(axis=1)):
        ai = max((a for a in range(A.shape[0]) if a not in used), key=lambda a: M[gi, a])
        used.add(ai)
        overlaps.append(M[gi, ai])
        recovered += M[gi, ai] > 0.95
    report(6, "atom recovery", recovered >= 3 and planted_run.elapsed < 600.0,
           f"{recovered}/4 recovered, overlaps {[f'{v:.3f}' for v in sorted(overlaps)]}, "
           f"{planted_run.elapsed:.0f}s (6000 steps <= 20000)")


# ---------------------------------------------------------------- criterion 10

def test_c10_adaptive_lambda(planted_run):
    records = planted_run.log.records
    tail = records[int(0.8 * len(records)):]
    s = planted_run.target
    in_band = [abs(r.sparsity - s) <= 0.2 * s for r in tail]
    frac = sum(in_band) / len(in_band)
    report(10, "adaptive lambda band", frac >= 0.8,
           f"{sum(in_band)}/{len(in_band)} final checkpoints within +-20% of target")


# ------------------------------------------------------- criteria 7, 8, and 9

@dataclass
class DeskRun:
    dictionary: Dictionary
    psnr_dict: float
    psnr_fbp: float
    psnr_huber: float
    huber_image: np.ndarray
    huber_objective: list
    traces: list
    elapsed: float


@pytest.fixture(scope="module")
def desk_run():
    start = time.time()
    train_set = [desk.phantom(seed) for seed in desk.TRAIN_PHANTOM_SEEDS]
    dictionary, _ = train_dictionary(train_set, desk.TRAIN, geom=desk.GEOM)

    phantom = desk.phantom()
    y = desk.scan(phantom, desk.C07_NOISE_SEED)
    data_range = float(phantom.values.max() - phantom.values.min())

    img_fbp = fbp(y, desk.GRID, desk.SPACING, window="hann", cutoff=0.75)
    img_hub, hub_objective = reconstruct_huber(y, desk.HUBER, desk.GRID, desk.SPACING,
                                               return_trace=True)
    img_dict, trace = reconstruct_dict(y, dictionary, desk.CONV, desk.GRID, desk.SPACING)

    return DeskRun(
        dictionary=dictionary,
        psnr_dict=psnr(img_dict, phantom, data_range),
        psnr_fbp=psnr(img_fbp, phantom, data_range),
        psnr_huber=psnr(img_hub, phantom, data_range),
        huber_image=img_hub.values,
        huber_objective=hub_objective,
        traces=[trace],
        elapsed=time.time() - start,
    )


def test_c07_end_to_end_ordering(desk_run):
    ok = (desk_run.psnr_dict >= desk_run.psnr_fbp + 3.0
          and desk_run.psnr_dict >= desk_run.psnr_huber
          and desk_run.elapsed < 900.0)
    report(7, "end-to-end ordering", ok,
           f"dict {desk_run.psnr_dict:.2f} dB vs fbp {desk_run.psnr_fbp:.2f} "
           f"(+{desk_run.psnr_dict - desk_run.psnr_fbp:.2f}, need >= 3) vs huber "
           f"{desk_run.psnr_huber:.2f}; {desk_run.elapsed:.0f}s")


@dataclass
class OrderingRun:
    conv_psnrs: list
    patch_psnrs: list
    traces: list
    elapsed: float


@pytest.fixture(scope="module")
def ordering_run(desk_run):
    start = time.time()
    conv_psnrs, patch_psnrs, traces = [], [], []
    for phantom_seed, noise_seed in desk.C08_SCANS:
        phantom = desk.phantom(phantom_seed)
        y = desk.scan(phantom, noise_seed)
        data_range = float(phantom.values.max() - phantom.values.min())
        img_c, tr_c = reconstruct_dict(y, desk_run.dictionary, desk.CONV, desk.GRID, desk.SPACING)
        img_p, tr_p = reconstruct_dict_patch(y, desk_run.dictionary, desk.PATCH,
                                             desk.GRID, desk.SPACING)
        conv_psnrs.append(psnr(img_c, phantom, data_range))
        patch_psnrs.append(psnr(img_p, phantom, data_range))
        traces.extend([tr_c, tr_p])
    return OrderingRun(conv_psnrs, patch_psnrs, traces, time.time() - start)


def test_c08_patch_variant_ordering(ordering_run):
    mean_conv = float(np.mean(ordering_run.conv_psnrs))
    mean_patch = float(np.mean(ordering_run.patch_psnrs))
    ok = mean_conv >= mean_patch and ordering_run.elapsed < 600.0
    report(8, "overlapping-patch ordering", ok,
           f"conv mean {mean_conv:.2f} dB >= patch mean {mean_patch:.2f} dB; "
           f"{ordering_run.elapsed:.0f}s")


def test_c09_monotonicity_gate(desk_run, ordering_run):
    worst = -np.inf
    halvings = 0
    for trace in desk_run.traces + ordering_run.traces:
        obj = np.asarray(trace.objective)
        rises = np.diff(obj)
        worst = max(worst, float(rises.max() / abs(obj[0])))
        halvings = max(halvings, trace.halvings)
    ok = worst <= 1e-8 and halvings <= 1
    report(9, "monotonicity gate", ok,
           f"worst normalized rise {worst:.2e} (allow 1e-8), max halvings {halvings}")


# ---------------------------------------------------------------- criterion 11

def run_cli(*argv):
    proc = subprocess.run([sys.executable, "-m", "dictolearn.cli", *map(str, argv)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc


def pipeline(base: Path, seed: int):
    data_dir = base / "data"
    data_dir.mkdir(parents=True)
    for i in range(5):
        ph = random_ellipse_phantom(48, seed=700 + i)
        write_grid(data_dir / f"ph{i}.dlgrid", ph.values * 0.05, 2.0)
    sim = base / "sim"
    tr = base / "train"
    rec = base / "rec"
    ev = base / "eval"
    geom = ["--num-angles", "60", "--num-bins", "72", "--detector-spacing", "2.0"]
    run_cli("simulate", "--out", sim, "--seed", seed,
            "--phantom-size", 48, "--attenuation-scale", 0.05,
            "--pixel-spacing", "2.0", *geom)
    run_cli("train", "--data", data_dir, "--out", tr, "--seed", seed,
            "--atom-count", 8, "--atom-side", 8, "--crop-size", 32,
            "--target-sparsity", 12, "--steps", 500, "--fista-iters", 15,
            "--validation-interval", 100, *geom)
    run_cli("reconstruct", "--sinogram", sim / "sinogram.dlgrid",
            "--dictionary", tr / "dictionary.dldict", "--method", "dict",
            "--grid-size", 48, "--pixel-spacing", "2.0",
            "--lambda1", 500, "--lambda2", 0.05, "--iters", 40,
            "--out", rec, "--seed", seed)
    run_cli("evaluate", "--recon", rec / "recon.dlgrid",
            "--truth", sim / "phantom.dlgrid", "--out", ev,
            "--seed", seed)
    return [sim / "phantom.dlgrid", sim / "clean_sinogram.dlgrid",
            sim / "counts.dlgrid", sim / "sinogram.dlgrid",
            tr / "dictionary.dldict", tr / "train_log.csv",
            rec / "recon.dlgrid", rec / "trace.csv", ev / "metrics.csv"]


def test_c11_pipeline_determinism(tmp_path):
    start = time.time()
    files_a = pipeline(tmp_path / "a", seed=42)
    files_b = pipeline(tmp_path / "b", seed=42)
    mismatched = [fa.name for fa, fb in zip(files_a, files_b)
                  if fa.read_bytes() != fb.read_bytes()]
    elapsed = time.time() - start
    report(11, "pipeline determinism", not mismatched,
           f"{len(files_a)} outputs byte-identical across reruns "
           f"({elapsed:.0f}s){'; mismatch: ' + ','.join(mismatched) if mismatched else ''}")


# ------------------------------------------------------------ output digests

DIGESTS = Path(__file__).resolve().parent / "digests.json"
PINNED_DICTIONARY = DIGESTS.parents[1] / "perfbench" / "data" / "dict_c07.dldict"
SUMMARY_RTOL = 1e-9


def cpu_model() -> str:
    try:
        lines = Path("/proc/cpuinfo").read_text().splitlines()
    except OSError:
        return platform.processor()
    return next((line.split(":", 1)[1].strip() for line in lines
                 if line.startswith("model name")), platform.processor())


def fingerprint() -> dict:
    """What the bits depend on: numpy, scipy, the BLAS build and the CPU.

    The OpenBLAS wheels pick their kernels by CPU at run time, so the CPU
    model is part of the build. The BLAS entry leaves out its directories.
    """
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
            "cpu": cpu_model()}


def read_numbers(path: Path) -> np.ndarray:
    if path.suffix == ".dlgrid":
        return read_grid(path)[0]
    if path.suffix == ".dldict":
        return read_dictionary(path).atoms
    if path.suffix == ".npy":
        return np.load(path)
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def elbo_chain_rows() -> list:
    """``evidence_chain`` rows on models drawn as ``scripts/verify_bounds.py`` draws them.

    1000 Monte-Carlo samples each. Seed 2's first eight models have 1 to 14
    atoms and none has 2, so no 2-D quadrature runs. The evidence is left
    out: it is nan above 2 atoms.
    """
    rng = np.random.default_rng(2)
    rows = []
    for i in range(8):
        k = int(rng.integers(1, 5))
        m = int(rng.integers(1, 17))
        d = Dictionary.random(m, k, int(rng.integers(2 ** 31)))
        params = ModelParams(sigma=float(rng.uniform(0.15, 0.6)), b=float(rng.uniform(0.2, 0.8)),
                             b_star=float(rng.uniform(0.01, 0.2)), n=k * k, m=m)
        x = rng.standard_normal(k * k) * 0.6
        report, mc, se, _, found = evidence_chain(x, d, params, 1000, int(rng.integers(2 ** 31)))
        rows.append((i, k * k, m, *report.as_dict().values(), mc, se, len(found)))
    return rows


def output_files(desk_run: DeskRun, base: Path) -> dict:
    """The outputs the digest file covers, by key, each written to a file.

    c11's nine pipeline outputs at seed 42; the c07 dictionary as DLDICT1
    bytes; 30-iteration conv and patch solves of c07's scan with the
    benchmark's pinned dictionary, and c07's 70-iteration Huber solve,
    each image as .npy and its trace.csv; and :func:`elbo_chain_rows`.
    """
    files = {f"c11 {path.parent.name}/{path.name}": path
             for path in pipeline(base / "c11", seed=42)}
    files["c07 dictionary.dldict"] = base / "dict_c07.dldict"
    write_dictionary(files["c07 dictionary.dldict"], desk_run.dictionary)
    pinned = read_dictionary(PINNED_DICTIONARY)
    y = desk.scan(desk.phantom(), desk.C07_NOISE_SEED)
    for name, solver, cfg in (("conv30", reconstruct_dict, desk.CONV),
                              ("patch30", reconstruct_dict_patch, desk.PATCH)):
        image, trace = solver(y, pinned, dataclasses.replace(cfg, iters=30),
                              desk.GRID, desk.SPACING)
        image_path, trace_path = base / f"{name}.npy", base / f"{name}.csv"
        np.save(image_path, image.values)
        write_csv(trace_path, ("iter", "objective", "data_term", "coupling_term", "l1_term"),
                  [(i, f, *parts) for i, (f, parts) in enumerate(zip(trace.objective, trace.parts))])
        files[f"desk {name} image.npy"] = image_path
        files[f"desk {name} trace.csv"] = trace_path
    files["desk huber70 image.npy"] = base / "huber70.npy"
    np.save(files["desk huber70 image.npy"], desk_run.huber_image)
    files["desk huber70 trace.csv"] = base / "huber70.csv"
    write_csv(files["desk huber70 trace.csv"], ("iter", "objective"),
              list(enumerate(desk_run.huber_objective)))
    files["elbo chain.csv"] = base / "elbo_chain.csv"
    write_csv(files["elbo chain.csv"],
              ("instance", "n", "m", *ElboReport.COLUMNS, "mc_estimate", "mc_stderr", "violations"),
              elbo_chain_rows())
    return files


def digest_record(files: dict) -> dict:
    outputs = {}
    for key, path in files.items():
        values = read_numbers(path).astype(np.float64)
        outputs[key] = {"sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
                        "sum": float(np.sum(values)), "sum_sq": float(np.sum(values * values))}
    return {"fingerprint": fingerprint(), "outputs": outputs}


def test_output_digests(desk_run, tmp_path):
    stored = json.loads(DIGESTS.read_text())
    current = digest_record(output_files(desk_run, tmp_path))
    if stored["fingerprint"] == current["fingerprint"]:
        how = "fingerprint matches: every SHA-256 must match"
        same = lambda a, b: a["sha256"] == b["sha256"]
    else:
        how = (f"fingerprint differs ({stored['fingerprint']} stored, {current['fingerprint']} "
               f"here): fallback ran, sum and sum_sq compared at {SUMMARY_RTOL:g} relative")
        same = lambda a, b: all(math.isclose(a[k], b[k], rel_tol=SUMMARY_RTOL)
                                for k in ("sum", "sum_sq"))
    old, new = stored["outputs"], current["outputs"]
    differ = [key for key in sorted(old.keys() | new.keys())
              if key not in old or key not in new or not same(old[key], new[key])]
    print(f"\nOUTPUT DIGESTS {len(new)} outputs; {how}")
    if differ:
        print(f"recomputed {DIGESTS.name}:\n{json.dumps(current, indent=1)}")
    assert not differ, f"{how}; differing keys: {differ} (recomputed file in stdout)"
