"""The four desk-scale workloads: recon-conv, recon-patch, train, elbo.

Every workload is a closed loop with one caller: the next op starts when
the previous one has returned. Inputs come from the workload seed only.
An op is one scan (recon-*), one training run (train) or one block of
ELBO instances (elbo); ``OpResult.units`` says how many units of work
(scans, training steps, instances) its timed calls covered.

The desk scale is the README's: a 128x128 grid at 2.8 mm, 180 x 192
parallel rays, 5e4 incident photons, 64 atoms of 8x8.
"""

from __future__ import annotations

import contextlib
import hashlib
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from dictolearn import (
    AcquisitionGeometry,
    Dictionary,
    HuberConfig,
    ImageGrid,
    NoiseModel,
    ReconConfig,
    Sinogram,
    SparseCodeConfig,
    TrainConfig,
    fbp,
    fista_sparse_code,
    linearize,
    psnr,
    random_ellipse_phantom,
    read_dictionary,
    reconstruct_dict,
    reconstruct_dict_patch,
    reconstruct_huber,
    remove_low_frequency,
    simulate_counts,
    train_dictionary,
)
from dictolearn.elbo import (
    ModelParams,
    elbo_lower_bound,
    elbo_monte_carlo,
    log_evidence_quadrature,
    posterior_mode,
)
from dictolearn.operators import PatchSynthesis
from dictolearn.tomo import Projector, get_projector

N = 128
SPACING = 2.8
GRID = (N, N)
ATTENUATION_SCALE = 0.05
PHOTONS = 50_000.0
GEOM = AcquisitionGeometry(num_angles=180, num_bins=192, detector_spacing=SPACING)

# Trained once by make_dictionary.py; the hash pins the recon inputs.
DICT_PATH = Path(__file__).resolve().parent / "data" / "dict_c07.dldict"
DICT_SHA256 = "3170ca22fb6ad5fc165eca330c356cba4d7417f98271cb46c0a6d3296fb4c618"

# Tuned points of the README and acceptance criteria c07/c08.
CONV_CFG = ReconConfig(lambda1=1000.0, lambda2=0.1, iters=300, lowpass_cutoff=0.10, seed=0)
PATCH_CFG = ReconConfig(lambda1=400.0, lambda2=0.075, iters=300, lowpass_cutoff=0.10, seed=0)
HUBER_CFG = HuberConfig(lam=0.2, gamma=2e-4, iters=70)
SCAN_POOL = 2
TRAIN_STEPS = 500
TRAIN_IMAGES = 20
MC_SAMPLES = 100_000
QUADRATURE_POINTS = 2001


class BenchError(RuntimeError):
    """The benchmark's own inputs are not what it expects."""


@dataclass
class OpResult:
    units: int
    work_s: float
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)


def load_dictionary() -> Dictionary:
    digest = hashlib.sha256(DICT_PATH.read_bytes()).hexdigest()
    if digest != DICT_SHA256:
        raise BenchError(f"{DICT_PATH.name} has sha256 {digest}, expected {DICT_SHA256}")
    return read_dictionary(DICT_PATH)


def set_up_projector(cached: bool) -> Projector:
    """Assemble the desk projector and compute its ||A||^2.

    The cached one is the projector the library's calls use. Repeated
    set-ups build a standalone ``Projector`` so they pay the same cost.
    """
    proj = get_projector(GEOM, GRID, SPACING) if cached else Projector(GEOM, GRID, SPACING)
    proj.norm_sq()
    return proj


def matrix_mb(proj: Projector) -> float:
    """Computed bytes of the cached CSR matrix plus its CSR transpose."""
    mat = proj.matrix
    if mat is None:
        return 0.0
    index = mat.indices.itemsize
    both = 2 * mat.nnz * (mat.data.itemsize + index) + (sum(mat.shape) + 2) * index
    return both / 2 ** 20


def phantom(seed: int) -> ImageGrid:
    return ImageGrid(random_ellipse_phantom(N, seed=seed).values * ATTENUATION_SCALE, SPACING)


def snr_db(signal: np.ndarray, error: np.ndarray) -> float:
    """``20 log10(||signal|| / ||error||)``."""
    return float(20.0 * np.log10(np.linalg.norm(signal) / np.linalg.norm(error)))


def recon_problems(image: ImageGrid, trace) -> list[str]:
    """Failure conditions of one dictionary reconstruction (gate c09)."""
    if not np.all(np.isfinite(image.values)):
        return ["non-finite image"]
    obj = np.asarray(trace.objective)
    if not np.all(np.isfinite(obj)):
        return ["non-finite objective"]
    problems = []
    if obj.size > 1:
        rise = float(np.max(np.diff(obj)) / abs(obj[0]))
        if rise > 1e-8:
            problems.append(f"objective rose by {rise:.2e} of its start (gate 1e-8)")
    if trace.halvings > 1:
        problems.append(f"{trace.halvings} step halvings (gate 1)")
    return problems


class Workload:
    """Set-up, ops and result checks of one workload."""

    name = ""
    rate_name = ""  # the issue's name for units per second
    host_kernel = ""  # kind of reference kernel in hostspeed.py

    def __init__(self, seed: int, tiny: bool, op_span=contextlib.nullcontext,
                 clock=time.perf_counter):
        self.tiny = tiny
        self.op_span = op_span
        self.clock = clock
        self.rng_seed = [seed, WORKLOADS.index(type(self))]
        self.info: dict[str, float] = {}
        self.facts: dict[str, float] = {}
        self.results: list = []

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.rng_seed)

    def set_up(self, first: bool):
        """Build the inputs; repeatable, and the same every time."""
        raise NotImplementedError

    def op(self, index: int) -> OpResult:
        raise NotImplementedError

    def finish(self) -> list[str]:
        """Record the quality fingerprints of the first op; return failed checks.

        The first op alone, so a fingerprint repeats exactly at a seed
        whatever the run's length.
        """
        raise NotImplementedError


@dataclass
class Scan:
    truth: ImageGrid
    y: Sinogram
    data_range: float


class _Recon(Workload):
    host_kernel = "stream"

    def set_up(self, first: bool):
        self.dictionary = load_dictionary()
        proj = set_up_projector(cached=first)
        rng = self.rng()
        self.scans = []
        for _ in range(1 if self.tiny else SCAN_POOL):
            truth = phantom(int(rng.integers(2 ** 31)))
            noise = NoiseModel(PHOTONS, seed=int(rng.integers(2 ** 31)))
            y = linearize(simulate_counts(truth, GEOM, noise), PHOTONS, GEOM)
            self.scans.append(Scan(truth, y, float(truth.values.max() - truth.values.min())))
        self.facts["tomo.matrix_mb"] = matrix_mb(proj)

    def config(self, base: ReconConfig) -> ReconConfig:
        return ReconConfig(base.lambda1, base.lambda2, 5 if self.tiny else base.iters,
                           base.lowpass_cutoff, base.seed)

    def scan_op(self, index, reconstruct, cfg, extra=None) -> OpResult:
        scan = self.scans[index % len(self.scans)]
        record = {}
        try:
            with self.op_span():
                if extra is not None:
                    record.update(extra(scan))
                t0 = self.clock()
                image, trace = reconstruct(scan.y, self.dictionary, cfg, GRID, SPACING)
                work_s = self.clock() - t0
        except Exception as exc:  # an op that raises counts as failed
            return OpResult(1, 0.0, 1, 1, [f"scan {index}: {exc!r}"])
        problems = [f"scan {index}: {p}" for p in recon_problems(image, trace)]
        if not problems:
            record.update(
                scan_s=work_s, trace=trace,
                psnr=psnr(image, scan.truth, scan.data_range),
                snr=snr_db(scan.truth.values, image.values - scan.truth.values),
                fbp_psnr=psnr(fbp(scan.y, GRID, SPACING, window="hann", cutoff=0.75),
                              scan.truth, scan.data_range))
            self.results.append(record)
        return OpResult(1, work_s, 1, 1 if problems else 0, problems)

    def finish(self):
        if not self.results:
            return ["no scan completed"]
        recs = self.results
        traces = [r["trace"] for r in recs]
        self.info.update(
            scan_s=float(np.median([r["scan_s"] for r in recs])),
            psnr_db=float(np.mean([r["psnr"] for r in recs])),
            fbp_psnr_db=float(np.mean([r["fbp_psnr"] for r in recs])))
        self.facts.update({
            "recon.restarts": float(np.mean([t.restarts for t in traces])),
            "recon.halvings": float(np.mean([t.halvings for t in traces])),
            "recon.final_objective": float(np.mean([t.objective[-1] for t in traces])),
            "recon.psnr_db": recs[0]["psnr"],
            "recon.snr_db": recs[0]["snr"],
        })
        problems = []
        if not self.tiny and self.info["psnr_db"] <= self.info["fbp_psnr_db"]:
            problems.append(f"dictionary PSNR {self.info['psnr_db']:.2f} dB does not beat "
                            f"FBP {self.info['fbp_psnr_db']:.2f} dB")
        return problems


class ReconConv(_Recon):
    """reconstruct_dict at lambda1=1000, lambda2=0.1, 300 iterations."""

    name = "recon-conv"
    rate_name = "scans_per_s"

    def op(self, index):
        return self.scan_op(index, reconstruct_dict, self.config(CONV_CFG))


class ReconPatch(_Recon):
    """FBP, reconstruct_huber and reconstruct_dict_patch of each scan."""

    name = "recon-patch"
    rate_name = "scans_per_s"

    def op(self, index):
        huber_cfg = HuberConfig(HUBER_CFG.lam, HUBER_CFG.gamma, 5 if self.tiny else HUBER_CFG.iters)
        self.facts["huber_iters"] = huber_cfg.iters

        def fbp_and_huber(scan):
            fbp(scan.y, GRID, SPACING, window="hann", cutoff=0.75)
            t0 = self.clock()
            image = reconstruct_huber(scan.y, huber_cfg, GRID, SPACING)
            huber_s = self.clock() - t0
            if not np.all(np.isfinite(image.values)):
                raise FloatingPointError("non-finite Huber image")
            return {"huber_s": huber_s, "huber_psnr": psnr(image, scan.truth, scan.data_range)}

        return self.scan_op(index, reconstruct_dict_patch, self.config(PATCH_CFG), fbp_and_huber)

    def finish(self):
        problems = super().finish()
        if self.results:
            self.info["huber_s"] = float(np.median([r["huber_s"] for r in self.results]))
            self.info["huber_psnr_db"] = float(np.mean([r["huber_psnr"] for r in self.results]))
            self.facts["recon.huber_s"] = self.info["huber_s"]
        return problems


def _center_crop(values: np.ndarray, size: int) -> np.ndarray:
    r0 = (values.shape[0] - size) // 2
    c0 = (values.shape[1] - size) // 2
    return values[r0:r0 + size, c0:c0 + size]


class Train(Workload):
    """train_dictionary on 20 phantoms with geom set, at the c07 config."""

    name = "train"
    rate_name = "train_steps_per_s"
    host_kernel = "patch"

    def set_up(self, first: bool):
        self.facts["tomo.matrix_mb"] = matrix_mb(set_up_projector(cached=first))
        rng = self.rng()
        self.images = [phantom(int(rng.integers(2 ** 31))) for _ in range(TRAIN_IMAGES)]
        # Held-out crops on which the trained dictionary's fit is scored.
        self.held_out = [_center_crop(remove_low_frequency(phantom(int(rng.integers(2 ** 31))),
                                                           GEOM, 0.10).values, 64)
                         for _ in range(2)]
        self.cfg = TrainConfig(atom_count=64, atom_side=8, target_sparsity=64.0, crop_size=64,
                               steps=20 if self.tiny else TRAIN_STEPS, learning_rate=1e-3,
                               validation_interval=10 if self.tiny else 50, fista_iters=40,
                               seed=int(rng.integers(2 ** 31)))

    def op(self, index):
        try:
            with self.op_span():
                t0 = self.clock()
                dictionary, log = train_dictionary(self.images, self.cfg, geom=GEOM,
                                                   cutoff_fraction=0.10)
                work_s = self.clock() - t0
        except Exception as exc:  # an op that raises counts as failed
            return OpResult(self.cfg.steps, 0.0, 1, 1, [f"run {index}: {exc!r}"])
        last = log.records[-1] if log.records else None
        problems = []
        if len(log.records) != self.cfg.steps // self.cfg.validation_interval:
            problems.append(f"run {index}: {len(log.records)} log records")
        elif not all(np.isfinite([r.lam, r.sparsity, r.objective]).all() for r in log.records):
            problems.append(f"run {index}: non-finite log record")
        if not np.all(np.isfinite(dictionary.atoms)):
            problems.append(f"run {index}: non-finite atoms")
        if self.results and not problems and not np.array_equal(dictionary.atoms, self.results[0][0].atoms):
            problems.append(f"run {index}: atoms differ from run 0 on the same inputs")
        if not problems:
            self.results.append((dictionary, last, work_s))
        return OpResult(self.cfg.steps, work_s, 1, 1 if problems else 0, problems)

    def finish(self):
        if not self.results:
            return ["no training run completed"]
        dictionary, last, _ = self.results[0]
        self.info["train_objective"] = last.objective
        self.facts.update({
            "learn.objective": last.objective,
            "learn.final_lambda": last.lam,
            "learn.final_sparsity": last.sparsity,
            "learn.dead_atoms": float(last.dead_atoms),
        })
        # Fit of the held-out crops at the final sparsity weight.
        sc = SparseCodeConfig(lam=last.lam, max_iters=self.cfg.fista_iters, seed=0)
        signal, error = [], []
        for crop in self.held_out:
            z, _ = fista_sparse_code(dictionary, ImageGrid(crop), sc, "patch")
            signal.append(crop)
            error.append(PatchSynthesis(dictionary, crop.shape).apply(z) - crop)
        snr = snr_db(np.stack(signal), np.stack(error))
        self.facts["learn.heldout_snr_db"] = snr
        return [] if np.isfinite(snr) else ["non-finite held-out fit"]


@dataclass
class Instance:
    dictionary: Dictionary
    params: ModelParams
    x: np.ndarray
    mc_seed: int


class Elbo(Workload):
    """Random dense models drawn as in scripts/verify_bounds.py.

    Each block holds every (k, m) with k in 1..4 and m in 1..16 once, in
    seeded order, so each block has the draw's mix exactly and includes
    the m=2, k=4 quadrature that sets the memory peak.
    """

    name = "elbo"
    rate_name = "elbo_instances_per_s"
    host_kernel = "mixed"

    def set_up(self, first: bool):
        self.rng_stream = self.rng()
        self.blocks = [self.draw_block()]

    def draw_block(self) -> list[Instance]:
        rng = self.rng_stream
        ks, ms = (range(1, 3), range(1, 4)) if self.tiny else (range(1, 5), range(1, 17))
        shapes = [(k, m) for k in ks for m in ms]
        block = []
        for i in rng.permutation(len(shapes)):
            k, m = shapes[i]
            d = Dictionary.random(m, k, int(rng.integers(2 ** 31)))
            params = ModelParams(sigma=float(rng.uniform(0.15, 0.6)),
                                 b=float(rng.uniform(0.2, 0.8)),
                                 b_star=float(rng.uniform(0.01, 0.2)), n=k * k, m=m)
            x = rng.standard_normal(k * k) * 0.6
            block.append(Instance(d, params, x, int(rng.integers(2 ** 31))))
        return block

    def op(self, index):
        if index >= len(self.blocks):
            self.blocks.append(self.draw_block())
        block = self.blocks[index]
        failed, problems = 0, []
        t0 = self.clock()
        for j, inst in enumerate(block):
            try:
                with self.op_span():
                    outcome = self.instance(inst)
            except Exception as exc:  # an instance that raises counts as failed
                outcome = [repr(exc)]
            if isinstance(outcome, list):
                failed += 1
                problems += [f"block {index} instance {j}: {p}" for p in outcome]
            else:
                self.results.append((index, *outcome))
        work_s = self.clock() - t0
        return OpResult(len(block), work_s, len(block), failed, problems)

    @staticmethod
    def instance(inst: Instance):
        """(elbo, gap, gap ratio) of one model, or its violations as in verify_bounds."""
        d, params, x = inst.dictionary, inst.params, inst.x
        z_star = posterior_mode(x, d, params)
        rep = elbo_lower_bound(x, d, params, z_star)
        mc, se = elbo_monte_carlo(x, d, params, z_star, MC_SAMPLES, seed=inst.mc_seed)
        values = [rep.elbo_exact, rep.lower_bound, rep.gap, rep.gap_bound, mc, se]
        if not np.all(np.isfinite(values)) or not np.all(np.isfinite(z_star)):
            return ["non-finite output"]
        violations = []
        if rep.elbo_exact < rep.lower_bound - 1e-10:
            violations.append("ELBO below its lower bound")
        if rep.gap > rep.gap_bound + 1e-10:
            violations.append("gap above the sparsity gap bound")
        if abs((mc - rep.elbo_exact) / se) > 4:
            violations.append("Monte-Carlo ELBO more than 4 standard errors off")
        if params.m <= 2:
            ev = log_evidence_quadrature(x, d, params, points=QUADRATURE_POINTS)
            if not np.isfinite(ev) or ev < mc - 3 * se - 1e-3:
                violations.append("log evidence below the Monte-Carlo ELBO")
        if violations:
            return violations
        return rep.elbo_exact, rep.gap, rep.gap / rep.gap_bound if rep.gap_bound > 0 else 0.0

    def finish(self):
        first = [r for r in self.results if r[0] == 0]
        if not first:
            return ["no instance completed"]
        self.facts["elbo.max_gap_ratio"] = max(r[3] for r in self.results)
        self.facts["elbo.mc_samples"] = float(MC_SAMPLES * len(self.results))
        self.facts["elbo.bound_snr_db"] = snr_db(np.array([r[1] for r in first]),
                                                 np.array([r[2] for r in first]))
        return []


WORKLOADS = [ReconConv, ReconPatch, Train, Elbo]
BY_NAME = {w.name: w for w in WORKLOADS}
