"""2D tomographic forward model, FBP, and low-dose data simulation.

The projector uses Joseph's linear-interpolation line integrals. The
weights form one sparse matrix A, built in blocks of angles; desk-scale
problems keep A once, larger ones rebuild each block whenever they apply
it. Back projection reads the same entries through A's CSC view, so the
pair is an exact numerical adjoint and A is never stored twice.

The data chain follows the Beer-Lambert law: expected counts
``N0 * exp(-A(x))`` per ray, Poisson noise, then log-linearization back to
line integrals. The Poisson log-likelihood is approximated by a weighted
least-squares term with weights ``w_i = exp(-y_i)``. Every reconstruction
takes that term, its gradient and its step bound from :func:`data_loss`,
:func:`data_gradient` and :func:`data_lipschitz`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import sparse as ssp

from .operators import ContractError, ImageGrid

__all__ = [
    "AcquisitionGeometry",
    "Sinogram",
    "NoiseModel",
    "Projector",
    "get_projector",
    "forward_project",
    "check_cutoff",
    "fbp",
    "simulate_counts",
    "linearize",
    "likelihood_weights",
    "data_loss",
    "data_gradient",
    "data_lipschitz",
    "data_loss_and_gradient",
]

# Above this estimated nonzero count a projector keeps no weight matrix.
_SPARSE_NNZ_BUDGET = 25_000_000
# numpy's Generator.poisson refuses expected counts above this (about 9.2e18).
_POISSON_LAM_MAX = np.iinfo(np.int64).max - 10 * np.sqrt(np.iinfo(np.int64).max)
# Estimated nonzeros per angle block, bounding the assembly temporaries, whose
# frees move glibc's mmap threshold. After them a desk recon-conv iteration takes
# 1.2-1.4 minor faults and a solve's start about 5,900 (3M blocks: 0-1.2, 2,500-3,700).
_BLOCK_NNZ = 500_000


@dataclass(frozen=True)
class AcquisitionGeometry:
    """Parallel-beam ray sampling of the scanner.

    Angles sample ``[0, angular_range)`` without the endpoint. Detector
    bins are centered on the axis with ``detector_spacing`` pitch, and
    every ray of an angle runs in the same direction.
    """

    num_angles: int = 180
    num_bins: int = 192
    detector_spacing: float = 1.0
    angular_range: float = np.pi

    def __post_init__(self):
        if self.num_angles < 1 or self.num_bins < 1:
            raise ContractError("angle and bin counts must be positive")
        if not (0 < self.detector_spacing < np.inf and 0 < self.angular_range < np.inf):
            raise ContractError("detector spacing and angular range must be positive and finite")

    @property
    def angles(self) -> np.ndarray:
        return np.arange(self.num_angles) * (self.angular_range / self.num_angles)

    @property
    def nyquist(self) -> float:
        """Detector Nyquist frequency, 1/(2 * detector_spacing), in 1/mm."""
        return 1.0 / (2.0 * self.detector_spacing)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.num_angles, self.num_bins)


@dataclass
class Sinogram:
    """Log-domain line integrals on a geometry's (angle, bin) lattice."""

    values: np.ndarray
    geometry: AcquisitionGeometry

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != self.geometry.shape:
            raise ContractError(
                f"sinogram shape {self.values.shape} != geometry shape {self.geometry.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ContractError("sinogram values must be finite")


@dataclass
class NoiseModel:
    """Photon budget for Beer-Lambert/Poisson simulation."""

    incident_photons: float = 50_000.0
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.incident_photons < np.inf:
            raise ContractError("incident_photons must be positive and finite")


def _ray_tables(geom: AcquisitionGeometry, grid_shape, pixel_spacing, angle_index):
    """Joseph interpolation tables ``(idx0, idx1, w0, w1)`` for one angle.

    The rays of an angle share the direction u = (-sin, cos) and start at
    t * (cos, sin) for detector offset t. They march over rows when
    ``|cos| >= |sin|`` and over columns otherwise. Arrays are shaped
    (slices, num_bins); indices are flat image indices, and weights include
    the per-slab ray length and are zeroed outside the grid.
    """
    h = pixel_spacing
    height, width = grid_shape
    cy, cx = (height - 1) / 2.0, (width - 1) / 2.0
    nb = geom.num_bins
    t = (np.arange(nb) - (nb - 1) / 2.0) * geom.detector_spacing
    theta = geom.angles[angle_index]
    c, s = np.cos(theta), np.sin(theta)
    ox, oy = t * c, t * s

    if np.abs(c) >= np.abs(s):
        r = np.arange(height)
        tau = (((cy - r) * h)[:, None] - oy[None, :]) / c
        coord = (ox[None, :] - tau * s) / h + cx
        base = r[:, None] * width
        limit, stride, dl = width, 1, h / np.abs(c)
    else:
        col = np.arange(width)
        tau = (((col - cx) * h)[:, None] - ox[None, :]) / -s
        coord = cy - (oy[None, :] + tau * c) / h
        base = col[:, None]
        limit, stride, dl = height, width, h / np.abs(s)
    i0 = np.floor(coord).astype(np.int64)
    frac = coord - i0
    ok0 = (i0 >= 0) & (i0 < limit)
    ok1 = (i0 + 1 >= 0) & (i0 + 1 < limit)
    idx0 = base + stride * np.clip(i0, 0, limit - 1)
    idx1 = base + stride * np.clip(i0 + 1, 0, limit - 1)
    w0 = np.where(ok0, (1.0 - frac) * dl, 0.0)
    w1 = np.where(ok1, frac * dl, 0.0)
    return idx0, idx1, w0, w1


class Projector:
    """Joseph projector A (kept once, as CSR) and its exact adjoint through A's CSC view."""

    def __init__(self, geom: AcquisitionGeometry, grid_shape, pixel_spacing: float = 1.0):
        if not 0 < pixel_spacing < np.inf:
            raise ContractError("pixel_spacing must be positive and finite")
        self.geom = geom
        self.grid_shape = (int(grid_shape[0]), int(grid_shape[1]))
        if min(self.grid_shape) < 1:
            raise ContractError("grid sides must be at least 1")
        self.pixel_spacing = float(pixel_spacing)
        nnz_per_angle = 2 * geom.num_bins * max(self.grid_shape)
        step, na = max(1, _BLOCK_NNZ // nnz_per_angle), geom.num_angles
        self._spans = [(a0, min(a0 + step, na)) for a0 in range(0, na, step)]
        self._matrix = None
        if nnz_per_angle * na <= _SPARSE_NNZ_BUDGET:
            # Exact per-ray counts size A's arrays; one span's block at a time is copied in.
            nb = geom.num_bins
            counts = [np.count_nonzero(self._taps(a)[2], axis=1) for a in range(na)]
            indptr = np.concatenate(([0], np.cumsum(np.concatenate(counts)))).astype(np.int32)
            indices, data = np.empty(indptr[-1], dtype=np.int32), np.empty(indptr[-1])
            for a0, a1 in self._spans:
                block, lo, hi = self._block(a0, a1), indptr[a0 * nb], indptr[a1 * nb]
                indices[lo:hi], data[lo:hi] = block.indices, block.data
                del block
            self._matrix = ssp.csr_matrix((data, indices, indptr),
                                          shape=(na * nb, self.grid_shape[0] * self.grid_shape[1]))
        self._norm_sq = None

    def _taps(self, a: int):
        """Angle ``a``'s ``(idx, w, keep)``, a row per ray; A's entries are taps with w != 0."""
        idx0, idx1, w0, w1 = _ray_tables(self.geom, self.grid_shape, self.pixel_spacing, a)
        idx = np.stack((idx0, idx1), axis=1).reshape(-1, self.geom.num_bins).T
        w = np.stack((w0, w1), axis=1).reshape(-1, self.geom.num_bins).T
        return idx, w, w != 0.0

    def _block(self, a0: int, a1: int) -> ssp.csr_matrix:
        """Rows of A for angles ``[a0, a1)``, numbered from 0.

        A ray lists its two taps slab by slab, in column order already for
        rays that march over rows, which keeps the sort cheap. Two kept taps
        are distinct pixels, so no entry repeats.
        """
        counts, cols, data = [], [], []
        for idx, w, keep in map(self._taps, range(a0, a1)):
            counts.append(np.count_nonzero(keep, axis=1))
            cols.append(idx[keep])
            data.append(w[keep])
        indptr = np.concatenate(([0], np.cumsum(np.concatenate(counts))))
        shape = ((a1 - a0) * self.geom.num_bins, self.grid_shape[0] * self.grid_shape[1])
        block = ssp.csr_matrix((np.concatenate(data), np.concatenate(cols), indptr), shape=shape)
        block.sort_indices()
        return block

    def _blocks(self):
        """Yield ``(a0, a1, block)`` over the angle blocks; the adjoint reads ``block.T``."""
        if self._matrix is not None:
            yield 0, self.geom.num_angles, self._matrix
            return
        for a0, a1 in self._spans:
            yield a0, a1, self._block(a0, a1)

    def forward(self, image_values: np.ndarray) -> np.ndarray:
        image_values = np.asarray(image_values, dtype=np.float64)
        if image_values.shape != self.grid_shape:
            raise ContractError(f"image shape {image_values.shape} != {self.grid_shape}")
        flat = image_values.ravel()
        out = np.empty(self.geom.shape)
        for a0, a1, block in self._blocks():
            out[a0:a1] = (block @ flat).reshape(a1 - a0, -1)
        return out

    def adjoint(self, sino_values: np.ndarray) -> np.ndarray:
        sino_values = np.asarray(sino_values, dtype=np.float64)
        if sino_values.shape != self.geom.shape:
            raise ContractError(f"sinogram shape {sino_values.shape} != {self.geom.shape}")
        acc = np.zeros(self.grid_shape[0] * self.grid_shape[1])
        for a0, a1, block in self._blocks():
            acc += block.T @ sino_values[a0:a1].ravel()
        return acc.reshape(self.grid_shape)

    def norm_sq(self) -> float:
        """Certified upper bound on ||A||^2, the largest eigenvalue of M = A^T A; cached.

        The Joseph weights are all >= 0, so M is entrywise nonnegative and
        every q > 0 gives lambda_max(M) <= max_j (M q)_j / q_j (the
        Collatz-Wielandt bound; Horn & Johnson, Matrix Analysis, ch. 8).
        Steps q <- M q from q = 1 tighten it, and the Rayleigh quotient
        q^T M q / q^T q bounds lambda_max from below. The steps stop once
        the upper bound is within 1% of the lower, or after 50 steps, and
        return the upper bound. A pixel no ray hits is a zero row and
        column of M with eigenvalue 0; the maximum runs over the pixels
        with (M q)_j > 0, which leaves out exactly those.
        """
        if self._norm_sq is None:
            q = np.ones(self.grid_shape)
            for _ in range(50):
                mq = self.adjoint(self.forward(q))
                live = mq > 0
                upper = float(np.max(mq[live] / q[live], initial=0.0))
                if upper <= 1.01 * float(np.vdot(q, mq) / np.vdot(q, q)):
                    break
                q = mq / upper
            self._norm_sq = upper
        return self._norm_sq

    @property
    def matrix(self):
        """The kept CSR matrix A; None above ``_SPARSE_NNZ_BUDGET`` estimated nonzeros."""
        return self._matrix


_projector_cache: dict = {}


def get_projector(geom: AcquisitionGeometry, grid_shape, pixel_spacing: float = 1.0) -> Projector:
    """Cached projector lookup; at most four live at a time."""
    key = (geom, (int(grid_shape[0]), int(grid_shape[1])), float(pixel_spacing))
    if key not in _projector_cache:
        if len(_projector_cache) >= 4:
            _projector_cache.pop(next(iter(_projector_cache)))
        _projector_cache[key] = Projector(geom, grid_shape, pixel_spacing)
    return _projector_cache[key]


def forward_project(x: ImageGrid, geom: AcquisitionGeometry) -> Sinogram:
    """Line integrals of x along the geometry's rays (Joseph kernel)."""
    proj = get_projector(geom, x.shape, x.pixel_spacing)
    return Sinogram(proj.forward(x.values), geom)


def _ramp_kernel(nfft: int, spacing: float) -> np.ndarray:
    """Band-limited ramp filter, sampled in real space (wrapped layout).

    Built from the analytic impulse response so the DC behaviour of the
    discrete filter matches the continuous ramp; its FFT approximates
    |f| in 1/mm.
    """
    lag = np.rint(np.fft.fftfreq(nfft) * nfft).astype(np.int64)
    kernel = np.zeros(nfft)
    kernel[0] = 0.25
    odd = (np.abs(lag) % 2) == 1
    kernel[odd] = -1.0 / (np.pi * lag[odd]) ** 2
    return kernel / spacing


def _filter_response(geom: AcquisitionGeometry, nfft: int, window: str, cutoff: float) -> np.ndarray:
    freq = np.fft.rfftfreq(nfft, d=geom.detector_spacing)
    response = np.fft.rfft(_ramp_kernel(nfft, geom.detector_spacing)).real
    fmax = cutoff * geom.nyquist
    if window == "ramp":
        taper = np.ones_like(freq)
    elif window == "hann":
        taper = 0.5 * (1.0 + np.cos(np.pi * freq / fmax))
    else:
        raise ContractError(f"unknown filter window {window!r}")
    return response * taper * (freq <= fmax)


def check_cutoff(cutoff: float, name: str = "cutoff"):
    """Raise :class:`ContractError` unless a relative frequency cutoff lies in (0, 1]."""
    if not 0.0 < cutoff <= 1.0:
        raise ContractError(f"{name} must lie in (0, 1]")


def fbp(sino: Sinogram, grid_shape, pixel_spacing: float = 1.0,
        window: str = "hann", cutoff: float = 1.0) -> ImageGrid:
    """Filtered back-projection with a windowed, frequency-capped ramp.

    Parameters
    ----------
    window : {"ramp", "hann"}
        Spectral taper applied to the ramp; both are zeroed (hard cutoff)
        above ``cutoff`` times the detector Nyquist frequency.
    cutoff : float
        Relative frequency cutoff in (0, 1].
    """
    check_cutoff(cutoff)
    geom = sino.geometry
    nfft = 1 << int(np.ceil(np.log2(max(2 * geom.num_bins, 16))))
    response = _filter_response(geom, nfft, window, cutoff)
    spectra = np.fft.rfft(sino.values, n=nfft, axis=1)
    filtered = np.fft.irfft(spectra * response[None, :], n=nfft, axis=1)[:, :geom.num_bins]

    dtheta = geom.angular_range / geom.num_angles
    # Redundant coverage beyond a half rotation is averaged out.
    if geom.angular_range > np.pi + 1e-9:
        dtheta *= np.pi / geom.angular_range
    proj = get_projector(geom, grid_shape, pixel_spacing)
    scale = dtheta * geom.detector_spacing / pixel_spacing ** 2
    return ImageGrid(scale * proj.adjoint(filtered), pixel_spacing)


def simulate_counts(x: ImageGrid, geom: AcquisitionGeometry, noise: NoiseModel) -> np.ndarray:
    """Poisson photon counts ``Poisson(N0 * exp(-A(x)))`` per ray."""
    if np.any(x.values < 0):
        warnings.warn("image has negative attenuation values", stacklevel=2)
    ax = forward_project(x, geom).values
    if np.min(ax) < -20.0:
        raise ContractError("strongly negative line integrals would overflow the photon model")
    lam = noise.incident_photons * np.exp(-ax)
    if np.max(lam) > _POISSON_LAM_MAX:
        raise ContractError("expected counts exceed what the Poisson sampler can draw")
    rng = np.random.default_rng(noise.seed)
    return rng.poisson(lam).astype(np.float64)


def linearize(counts: np.ndarray, incident_photons: float, geom: AcquisitionGeometry) -> Sinogram:
    """Log-linearized data ``y = -ln(counts / N0)``.

    Zero counts are clamped to 0.5 before the logarithm so y stays finite.
    """
    counts = np.asarray(counts, dtype=np.float64)
    if np.any(counts < 0):
        raise ContractError("counts must be non-negative")
    return Sinogram(-np.log(np.maximum(counts, 0.5) / incident_photons), geom)


def likelihood_weights(y: Sinogram) -> np.ndarray:
    """Quadratic-approximation weights ``w_i = exp(-y_i)``."""
    return np.exp(-y.values)


def data_loss(ax: np.ndarray, target: np.ndarray, w: np.ndarray) -> float:
    """Weighted least-squares data term ``sum_i w_i (ax_i - target_i)^2``."""
    d = ax - target
    return float(np.sum(w * d * d))


def data_gradient(proj: Projector, ax: np.ndarray, target: np.ndarray,
                  w: np.ndarray) -> np.ndarray:
    """Gradient of :func:`data_loss` in the image, ``2 A^T(w * (ax - target))``."""
    return 2.0 * proj.adjoint(w * (ax - target))


def data_lipschitz(proj: Projector, w: np.ndarray) -> float:
    """Step bound of :func:`data_gradient`: ``2 max(w) ||A||^2``, with ||A||^2 certified."""
    return 2.0 * float(np.max(w)) * proj.norm_sq()


def data_loss_and_gradient(x: ImageGrid, y: Sinogram):
    """Weighted least-squares data term and its gradient.

    Returns ``(sum_i w_i (A(x)_i - y_i)^2, 2 A^T(w * (A(x) - y)))`` with
    the weights :func:`likelihood_weights` fixes from ``y``.
    """
    w = likelihood_weights(y)
    proj = get_projector(y.geometry, x.shape, x.pixel_spacing)
    ax = proj.forward(x.values)
    return data_loss(ax, y.values, w), x.like(data_gradient(proj, ax, y.values, w))
