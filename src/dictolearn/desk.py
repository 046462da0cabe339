"""The desk scale, defined once: what acceptance c07-c09 and the scripts run.

The benchmark's pinned ``perfbench/data/dict_c07.dldict`` is its first
build's output of ``TRAIN``; training's rounding has changed since, so
``TRAIN`` now gives different atoms.
"""

from .analytics import random_ellipse_phantom, shepp_logan
from .learn import TrainConfig
from .operators import ImageGrid
from .recon import HuberConfig, ReconConfig
from .tomo import AcquisitionGeometry, NoiseModel, Sinogram, linearize, simulate_counts

__all__ = ["N", "SPACING", "GRID", "ATTENUATION_SCALE", "PHOTONS", "GEOM", "TRAIN",
           "TRAIN_PHANTOM_SEEDS", "CONV", "PATCH", "HUBER", "C07_NOISE_SEED", "C08_SCANS",
           "phantom", "scan"]

N = 128
SPACING = 2.8
GRID = (N, N)
ATTENUATION_SCALE = 0.05
PHOTONS = 50_000.0
GEOM = AcquisitionGeometry(num_angles=180, num_bins=192, detector_spacing=SPACING)

TRAIN = TrainConfig(atom_count=64, atom_side=8, target_sparsity=64.0, crop_size=64, steps=5000,
                    learning_rate=1e-3, validation_interval=50, fista_iters=40, seed=2)
TRAIN_PHANTOM_SEEDS = range(500, 520)
CONV = ReconConfig(lambda1=1000.0, lambda2=0.1, iters=300, lowpass_cutoff=0.10)
PATCH = ReconConfig(lambda1=400.0, lambda2=0.075, iters=300, lowpass_cutoff=0.10)
HUBER = HuberConfig(lam=0.2, gamma=2e-4, iters=70)

C07_NOISE_SEED = 11
C08_SCANS = ((900, 300), (901, 301), (902, 302), (903, 303), (904, 304))


def phantom(seed: int | None = None) -> ImageGrid:
    """Modified Shepp-Logan when ``seed`` is None, else random ellipses."""
    base = shepp_logan(N, "modified") if seed is None else random_ellipse_phantom(N, seed=seed)
    return ImageGrid(base.values * ATTENUATION_SCALE, SPACING)


def scan(phantom: ImageGrid, noise_seed: int) -> Sinogram:
    """Poisson counts of ``phantom`` at ``PHOTONS``, log-linearized."""
    counts = simulate_counts(phantom, GEOM, NoiseModel(PHOTONS, seed=noise_seed))
    return linearize(counts, PHOTONS, GEOM)
