"""Stochastic dictionary learning on non-overlapping patches.

One random image per step: random tile-aligned crop, FISTA sparse
coding, an Adam step on the atoms, renormalization. The sparsity weight
adapts at validation checkpoints so the measured nonzero count tracks a
target. Training data are high-pass residuals; the low-frequency part of
each image is removed CT-consistently by subtracting a low-pass FBP of
its noise-free forward projection.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .operators import (
    ContractError,
    Dictionary,
    ImageGrid,
    PatchSynthesis,
    normalize_atoms,
)
from .sparse import SparseCodeConfig, duality_gap, fista_sparse_code
from .tomo import AcquisitionGeometry, check_cutoff, fbp, forward_project

__all__ = [
    "TrainConfig",
    "AdamState",
    "TrainRecord",
    "TrainLog",
    "remove_low_frequency",
    "adapt_lambda",
    "adam_update",
    "train_dictionary",
]

# FISTA outputs exact zeros; downstream arithmetic may perturb them, so
# support counting treats |z| <= 1e-8 * max|z| as zero.
SPARSITY_EPS = 1e-8

# Share of the dataset held out for validation, at least one image.
VALIDATION_FRACTION = 0.01

# Adam's moment decay rates and denominator guard (Kingma & Ba, ICLR 2015).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass
class TrainConfig:
    """Configuration of one training run.

    ``target_sparsity`` is the desired mean nonzero count per sample
    (a whole cropped image, i.e. per-patch sparsity times tiles per crop).
    ``adjust_constant`` and ``initial_lambda`` default to values derived
    from the first sample when left as None.
    """

    atom_count: int = 64
    atom_side: int = 8
    target_sparsity: float = 48.0
    adjust_constant: float | None = None
    crop_size: int = 128
    steps: int = 50_000
    learning_rate: float = 1e-3
    validation_interval: int = 50
    fista_iters: int = 50
    seed: int = 0
    initial_lambda: float | None = None

    def __post_init__(self):
        if self.atom_count < 1 or self.atom_side < 1:
            raise ContractError("atom_count and atom_side must be positive")
        if not 0 < self.target_sparsity <= self.atom_count * (self.crop_size // self.atom_side) ** 2:
            raise ContractError("target_sparsity must be positive and at most the coefficient count")
        for name in ("adjust_constant", "initial_lambda"):
            value = getattr(self, name)
            if value is not None and not value > 0:
                raise ContractError(f"{name} must be positive")
        if self.crop_size % self.atom_side:
            raise ContractError("crop_size must be divisible by atom_side")
        if self.steps < 0 or self.fista_iters < 1 or self.validation_interval < 1:
            raise ContractError("steps, fista_iters, validation_interval out of range")
        if not self.learning_rate > 0:
            raise ContractError("learning_rate must be positive")


@dataclass
class AdamState:
    """First/second moment accumulators shaped like the atoms."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def zeros(cls, shape) -> "AdamState":
        return cls(np.zeros(shape), np.zeros(shape), 0)


@dataclass
class TrainRecord:
    step: int
    lam: float
    sparsity: float
    objective: float
    dead_atoms: int
    duality_gap: float


@dataclass
class TrainLog:
    records: list[TrainRecord] = field(default_factory=list)

    def append(self, rec: TrainRecord):
        if self.records and rec.step <= self.records[-1].step:
            raise ContractError("log steps must be strictly increasing")
        self.records.append(rec)


def remove_low_frequency(x: ImageGrid, geom: AcquisitionGeometry,
                         cutoff_fraction: float = 0.10) -> ImageGrid:
    """High-pass residual ``x - FBP_lowpass(A(x))``.

    The low-frequency component comes from a noise-free forward
    projection reconstructed with a Hann-windowed kernel cut off at
    ``cutoff_fraction`` of the detector Nyquist frequency, i.e. the same
    procedure a reconstruction has available when no image is at hand.
    """
    check_cutoff(cutoff_fraction, "cutoff_fraction")
    clean = forward_project(x, geom)
    low = fbp(clean, x.shape, x.pixel_spacing, window="hann", cutoff=cutoff_fraction)
    return x.like(x.values - low.values)


def adapt_lambda(lam: float, s_hat: float, s: float, c: float, t: int) -> float:
    """Sparsity-tracking update of the l1 weight at validation step ``t``.

    ``lam + c * (s_hat - s)`` when the measured count is more than 20%
    off target and ``t`` is a multiple of 10; otherwise unchanged.
    Clamped below at 0.
    """
    if abs(s_hat - s) > 0.2 * s and t % 10 == 0:
        lam = lam + c * (s_hat - s)
    return max(lam, 0.0)


def adam_update(state: AdamState, grad: np.ndarray, atoms: np.ndarray,
                learning_rate: float):
    """One bias-corrected Adam step on the atoms, with the ``ADAM_*`` constants.

    Returns updated ``(AdamState, atoms)`` without mutating the inputs.
    """
    if grad.shape != atoms.shape or state.m.shape != atoms.shape:
        raise ContractError("gradient/state shape mismatch")
    step = state.step + 1
    m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * grad
    v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * grad * grad
    m_hat = m / (1.0 - ADAM_BETA1 ** step)
    v_hat = v / (1.0 - ADAM_BETA2 ** step)
    new_atoms = atoms - learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)
    return AdamState(m, v, step), new_atoms


def _center_crop(values: np.ndarray, size: int) -> np.ndarray:
    h, w = values.shape
    r0 = (h - size) // 2
    c0 = (w - size) // 2
    return values[r0:r0 + size, c0:c0 + size]


def train_dictionary(dataset, cfg: TrainConfig,
                     geom: AcquisitionGeometry | None = None,
                     cutoff_fraction: float = 0.10):
    """Learn a dictionary from images by stochastic alternating steps.

    Parameters
    ----------
    dataset : sequence of ImageGrid
        Training images. When ``geom`` is given, low-frequency components
        are removed once per image (CT-consistently) and cached; pass
        ``geom=None`` for data that is already high-pass.
    cfg : TrainConfig
    geom, cutoff_fraction
        Acquisition geometry and relative cutoff of the low-pass split.

    Returns
    -------
    (Dictionary, TrainLog)
        Unit-norm atoms and one log record per validation checkpoint,
        which also holds the mean certified relative duality gap of the
        validation solves (:func:`~dictolearn.sparse.duality_gap`),
        computed after them so that it changes nothing they return.
        Deterministic given the seed and dataset.
    """
    dataset = list(dataset)
    if not dataset:
        raise ContractError("dataset is empty")
    if any(img.height < cfg.crop_size or img.width < cfg.crop_size for img in dataset):
        raise ContractError("crop_size exceeds an image in the dataset")
    k = cfg.atom_side

    rng = np.random.default_rng(cfg.seed)
    dictionary = Dictionary.random(cfg.atom_count, k, int(rng.integers(2 ** 31)))

    n_val = max(1, round(VALIDATION_FRACTION * len(dataset)))
    order = rng.permutation(len(dataset))
    val_idx = order[:n_val]
    train_idx = order[n_val:] if len(dataset) > n_val else order

    if geom is not None:
        highpass = [remove_low_frequency(img, geom, cutoff_fraction).values for img in dataset]
    else:
        highpass = [img.values for img in dataset]
    val_crops = [_center_crop(highpass[i], cfg.crop_size) for i in val_idx]

    def random_crop(values):
        max_row = (values.shape[0] - cfg.crop_size) // k
        max_col = (values.shape[1] - cfg.crop_size) // k
        r0 = int(rng.integers(0, max_row + 1)) * k
        c0 = int(rng.integers(0, max_col + 1)) * k
        return values[r0:r0 + cfg.crop_size, c0:c0 + cfg.crop_size]

    first_crop = random_crop(highpass[train_idx[0]])
    op0 = PatchSynthesis(dictionary, first_crop.shape)
    lam = cfg.initial_lambda
    if lam is None:
        # 2 ||S^T x||_inf is the threshold above which FISTA returns z = 0;
        # starting at a tenth of it guarantees a nonzero first support.
        lam = 0.2 * float(np.max(np.abs(op0.adjoint(first_crop))))
    c = cfg.adjust_constant
    if c is None:
        c = 1e-3 * lam / cfg.target_sparsity

    adam = AdamState.zeros(dictionary.atoms.shape)
    log = TrainLog()
    t_val = 0

    def code(dict_, values, iters):
        sc = SparseCodeConfig(lam=lam, max_iters=iters)
        return fista_sparse_code(dict_, ImageGrid(values), sc)

    for step in range(1, cfg.steps + 1):
        crop = random_crop(highpass[int(rng.choice(train_idx))])
        z, _ = code(dictionary, crop, cfg.fista_iters)
        op = PatchSynthesis(dictionary, crop.shape)
        grad = op.dict_gradient(z, op.apply(z) - crop)
        adam, atoms = adam_update(adam, grad, dictionary.atoms, cfg.learning_rate)

        norms = np.linalg.norm(atoms.reshape(cfg.atom_count, -1), axis=1)
        for i in np.nonzero(norms < 1e-12)[0]:
            # Atom collapsed to zero: restart it from image content.
            r0 = int(rng.integers(0, cfg.crop_size - k + 1))
            c0 = int(rng.integers(0, cfg.crop_size - k + 1))
            patch = crop[r0:r0 + k, c0:c0 + k]
            if np.linalg.norm(patch) < 1e-12:
                patch = rng.standard_normal((k, k))
            atoms[i] = patch
        dictionary = normalize_atoms(atoms)

        if step % cfg.validation_interval == 0:
            t_val += 1
            counts = []
            objectives = []
            gaps = []
            used = np.zeros(cfg.atom_count, dtype=bool)
            for vc in val_crops:
                zv, trace = code(dictionary, vc, cfg.fista_iters)
                mag = np.abs(zv)
                thr = SPARSITY_EPS * max(float(np.max(mag)), 1e-300)
                counts.append(np.count_nonzero(mag > thr))
                objectives.append(trace[-1])
                gaps.append(duality_gap(dictionary, ImageGrid(vc), zv, lam))
                used |= mag.sum(axis=(1, 2)) > thr
            s_hat = float(np.mean(counts))
            lam = adapt_lambda(lam, s_hat, cfg.target_sparsity, c, t_val)
            log.append(TrainRecord(step, lam, s_hat, float(np.mean(objectives)),
                                   int(cfg.atom_count - used.sum()), float(np.mean(gaps))))

    return dictionary, log
