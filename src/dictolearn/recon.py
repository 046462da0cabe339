"""Dictionary-regularized CT reconstruction and the Huber baseline.

The dictionary methods split the image into a fixed low-frequency part
(low-pass FBP of the data) and a high-frequency part solved from

    min_{x, z}  L(A(x), y) + lambda1 * ||x - S(z)||^2 + lambda2 * ||z||_1

by alternating accelerated steps: a gradient step in x and a proximal
gradient step in z, each with its own step size. The baseline solves
min_x L(A(x), y) + lam * H_gamma(grad x) from an FBP start. All three run
one driver, ``_accelerated_recon``, on a penalty: ``_HuberPenalty`` or a
coupling. A penalty gives ``start(x)`` and ``step(x, *rest, scale)``,
which return its state entries and objective terms, and the x-gradient
``grad_x(x, *rest)`` with its Lipschitz bound ``lx``; the driver never
asks which penalty it holds. The couplings, a
:class:`dictolearn.sparse.SynthesisCoupling` over :class:`ConvSynthesis`
and ``_OverlapPatchCoupling`` here over all overlapping patches, step z by
:meth:`dictolearn.sparse.Coupling.step`, as FISTA sparse coding does. Both
keep z channel-first: (m, H, W) and (m, H+k-1, W+k-1). The z step bounds are
closed forms that need no safety factor: the spectral bound
:meth:`ConvSynthesis.norm_sq` and the exact sigma_max(D)^2 of
:meth:`PatchSynthesis.norm_sq`. The data term L, its gradient and its step
bound are :func:`dictolearn.tomo.data_loss`, ``data_gradient`` and
``data_lipschitz``; the bound rests on the certified ||A||^2 of
:meth:`Projector.norm_sq`, again with no safety factor. The
overlapping-patch variant normalizes its per-patch terms by the patch
coverage, so its z = 0 path coincides with the convolutional one.

The driver runs :func:`accelerated_descent`, so all three share its
restart policy and its ``Descent`` record; with valid bounds traces are
non-increasing.

Each step runs the projector forward A x_new, its data term and the
adjoint that gives the data gradient g(x_new) on one worker thread while
the calling thread runs the penalty's step. The state carries g, affine in
x, so its extrapolation stays exact and the x step takes no product of A.
The threads only read x_new and write arrays of their own, and scipy's
sparse products and BLAS release the interpreter lock, so they overlap and
give bit for bit the results of running in turn. The worker lives for one
solve and re-raises its exceptions unchanged on the caller.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .operators import ContractError, ConvSynthesis, Dictionary, ImageGrid, PatchSynthesis, _fold
from .sparse import Coupling, SynthesisCoupling, accelerated_descent
from .tomo import (Sinogram, check_cutoff, data_gradient, data_lipschitz, data_loss, fbp,
                   get_projector, likelihood_weights)

__all__ = [
    "ReconConfig",
    "HuberConfig",
    "reconstruct_dict",
    "reconstruct_dict_patch",
    "reconstruct_huber",
    "huber_value",
    "huber_loss_and_gradient",
    "image_gradient",
    "image_gradient_adjoint",
]

@dataclass
class ReconConfig:
    """Dictionary-reconstruction parameters.

    ``lambda1`` weights the synthesis coupling (1/sigma role),
    ``lambda2`` the coefficient sparsity (1/b role). The iteration count
    is part of the method: running to full convergence is intentionally
    not attempted. ``seed`` no longer affects the solve: the ``||A||^2``
    bound of :meth:`Projector.norm_sq` is deterministic, with nothing random.
    """

    lambda1: float = 50.0
    lambda2: float = 0.0016
    iters: int = 300
    lowpass_cutoff: float = 0.10
    seed: int = 0

    def __post_init__(self):
        if not (self.lambda1 > 0 and self.lambda2 > 0):
            raise ContractError("lambda1 and lambda2 must be positive")
        if self.iters < 1:
            raise ContractError("iters must be >= 1")
        check_cutoff(self.lowpass_cutoff, "lowpass_cutoff")


@dataclass
class HuberConfig:
    """Huber-regularized baseline parameters."""

    lam: float = 5e-4
    gamma: float = 4e-4
    iters: int = 70

    def __post_init__(self):
        if not (self.lam > 0 and self.gamma > 0 and self.iters >= 1):
            raise ContractError("HuberConfig values must be positive")


class _OverlapPatchCoupling(Coupling):
    """Per-patch coupling over all overlapping k-by-k patches.

    Patches are taken at every offset of the zero-padded image, so every
    pixel is covered by exactly k^2 patches; both penalty terms are
    normalized by that coverage. z is (m, H+k-1, W+k-1), one map per atom
    over the patch positions. Tiles and patches are (k, k, H+k-1, W+k-1):
    plane (dy, dx) holds pixel (dy, dx) of every patch. The tiles are
    D^T z; the patches are a zero-copy window view of the padded x.
    ``synth_value`` returns the coverage-averaged patch recomposition S z,
    making the x-gradient 2*lambda1*(x - S z), and the coupling value.
    ``grad_z`` and ``synth_value`` each compute the tiles once and do their
    elementwise work in place in them.
    """

    def __init__(self, dict_: Dictionary, grid_shape, lambda1, lambda2):
        k = dict_.atom_side
        self.k = k
        self.m = dict_.atom_count
        self.flat = dict_.flat()
        self.lambda1 = lambda1
        self.l1_weight = lambda2 / k ** 2
        self.grid_shape = tuple(grid_shape)
        self.n_pos = (grid_shape[0] + k - 1, grid_shape[1] + k - 1)
        self.lz = 2.0 * lambda1 / k ** 2 * PatchSynthesis(dict_, (k, k)).norm_sq()

    def z_zero(self):
        return np.zeros((self.m,) + self.n_pos)

    def _tiles(self, z):
        """D^T z as (k, k, H+k-1, W+k-1) planes, in a fresh buffer."""
        return (self.flat.T @ z.reshape(self.m, -1)).reshape((self.k, self.k) + self.n_pos)

    def _minus_patches(self, tiles, x):
        """``tiles`` minus the patches of x, written over ``tiles``."""
        return np.subtract(tiles, sliding_window_view(np.pad(x, self.k - 1), self.n_pos), out=tiles)

    def synth_value(self, x, z):
        k, (h, w) = self.k, self.grid_shape
        tiles = self._tiles(z)
        canvas = _fold(tiles)
        diff = self._minus_patches(tiles, x)
        np.multiply(diff, diff, out=diff)
        return (canvas[k - 1:k - 1 + h, k - 1:k - 1 + w] / k ** 2,
                self.lambda1 / k ** 2 * float(np.sum(diff)))

    def grad_z(self, x, z, sz):
        grad = self.flat @ self._minus_patches(self._tiles(z), x).reshape(self.k ** 2, -1)
        return np.multiply(grad, 2.0 * self.lambda1 / self.k ** 2, out=grad).reshape(z.shape)


def _accelerated_recon(proj, w, target, x, penalty, iters):
    """Minimize ``L(A x, target) + penalty`` from x; returns ``((x, g, *rest), Descent)``."""
    lx = data_lipschitz(proj, w) + penalty.lx

    def data(x_new):
        ax_new = proj.forward(x_new)
        return data_gradient(proj, ax_new, target, w), data_loss(ax_new, target, w)

    # The state carries the data gradient g(x) and the penalty's entries
    # beside x; g is affine in x, so its extrapolation is g at the
    # extrapolated point. Each step costs one forward and one adjoint of A
    # at x_new on the worker, beside the penalty's step on the caller.
    def step(point, scale):
        xp, gp, *rest = point
        x_new = xp - (gp + penalty.grad_x(xp, *rest)) / (scale * lx)
        forward = worker.submit(data, x_new)
        rest_new, parts = penalty.step(x_new, *rest, scale)
        g_new, loss = forward.result()
        return (x_new, g_new) + rest_new, (loss,) + parts

    g, loss = data(x)
    rest, parts = penalty.start(x)
    with ThreadPoolExecutor(max_workers=1) as worker:
        return accelerated_descent(step, (x, g) + rest, sum((loss,) + parts), iters)


def _reconstruct_split(y: Sinogram, cfg: ReconConfig, grid_shape, pixel_spacing, coupling,
                       return_coefficients: bool):
    """Solve for the high-pass part above the fixed low-pass FBP x_lf of ``y``."""
    proj = get_projector(y.geometry, grid_shape, pixel_spacing)
    x_lf = fbp(y, grid_shape, pixel_spacing, window="hann", cutoff=cfg.lowpass_cutoff).values
    target = y.values - proj.forward(x_lf)
    x = fbp(y, grid_shape, pixel_spacing, window="hann", cutoff=1.0).values - x_lf
    (x, _, z, _), run = _accelerated_recon(proj, likelihood_weights(y), target, x, coupling,
                                           cfg.iters)
    image = ImageGrid(x_lf + x, pixel_spacing)
    return (image, run, z) if return_coefficients else (image, run)


def reconstruct_dict(y: Sinogram, dict_: Dictionary, cfg: ReconConfig,
                     grid_shape, pixel_spacing: float = 1.0,
                     return_coefficients: bool = False):
    """Reconstruct with the convolutional synthesis regularizer.

    Returns ``(image, trace)`` where the image is the fixed low-pass FBP
    component plus the optimized high-frequency part and the trace is the
    solve's :class:`~dictolearn.sparse.Descent`, with the parts
    (data, coupling, l1) per iteration; with ``return_coefficients`` also
    the final channel-first coefficients.
    """
    coupling = SynthesisCoupling(ConvSynthesis(dict_, grid_shape), cfg.lambda1, cfg.lambda2)
    return _reconstruct_split(y, cfg, grid_shape, pixel_spacing, coupling, return_coefficients)


def reconstruct_dict_patch(y: Sinogram, dict_: Dictionary, cfg: ReconConfig,
                           grid_shape, pixel_spacing: float = 1.0,
                           return_coefficients: bool = False):
    """Reconstruct with the overlapping-patch regularizer variant."""
    coupling = _OverlapPatchCoupling(dict_, grid_shape, cfg.lambda1, cfg.lambda2)
    return _reconstruct_split(y, cfg, grid_shape, pixel_spacing, coupling, return_coefficients)


def image_gradient(x: np.ndarray):
    """Forward differences with symmetric boundary (zero at the far edge)."""
    gh = np.zeros_like(x)
    gv = np.zeros_like(x)
    gh[:, :-1] = x[:, 1:] - x[:, :-1]
    gv[:-1, :] = x[1:, :] - x[:-1, :]
    return gh, gv


def image_gradient_adjoint(gh: np.ndarray, gv: np.ndarray):
    """Exact adjoint of :func:`image_gradient`."""
    out = np.zeros_like(gh)
    out[:, 0] -= gh[:, 0]
    out[:, 1:-1] += gh[:, :-2] - gh[:, 1:-1]
    out[:, -1] += gh[:, -2]
    out[0, :] -= gv[0, :]
    out[1:-1, :] += gv[:-2, :] - gv[1:-1, :]
    out[-1, :] += gv[-2, :]
    return out


def huber_value(values: np.ndarray, gamma: float) -> float:
    """Sum of the Huber penalty: quadratic below the knee, linear above."""
    a = np.abs(values)
    quad = a < gamma
    return float(np.sum(np.where(quad, values * values / (2.0 * gamma), a - gamma / 2.0)))


class _HuberPenalty:
    """``lam * H_gamma(grad x)``: a penalty of ``_accelerated_recon`` with no state of its own."""

    def __init__(self, cfg: HuberConfig):
        self.lam, self.gamma = cfg.lam, cfg.gamma
        # ||grad||^2 <= 8 for forward differences; the Huber slope is (1/gamma)-Lipschitz.
        self.lx = 8.0 * cfg.lam / cfg.gamma

    def value(self, x):
        gh, gv = image_gradient(x)
        return self.lam * (huber_value(gh, self.gamma) + huber_value(gv, self.gamma))

    def grad_x(self, x):
        gh, gv = image_gradient(x)
        return self.lam * image_gradient_adjoint(np.clip(gh / self.gamma, -1.0, 1.0),
                                                 np.clip(gv / self.gamma, -1.0, 1.0))

    def start(self, x):
        return (), (self.value(x),)

    def step(self, x, scale):
        return self.start(x)


def huber_loss_and_gradient(x: ImageGrid, y: Sinogram, cfg: HuberConfig):
    """Full Huber objective ``L(A(x), y) + lam * H_gamma(grad x)`` and its gradient."""
    proj = get_projector(y.geometry, x.shape, x.pixel_spacing)
    w = likelihood_weights(y)
    ax = proj.forward(x.values)
    penalty = _HuberPenalty(cfg)
    return (data_loss(ax, y.values, w) + penalty.value(x.values),
            x.like(data_gradient(proj, ax, y.values, w) + penalty.grad_x(x.values)))


def reconstruct_huber(y: Sinogram, cfg: HuberConfig, grid_shape,
                      pixel_spacing: float = 1.0, return_trace: bool = False):
    """Weighted least squares plus Huber-of-gradient, by accelerated descent.

    Runs exactly ``cfg.iters`` iterations of the reconstruction driver
    from an FBP warm start. With ``return_trace`` also returns the
    per-iteration objective values.
    """
    proj = get_projector(y.geometry, grid_shape, pixel_spacing)
    x = fbp(y, grid_shape, pixel_spacing, window="hann", cutoff=0.75).values
    (x, _), run = _accelerated_recon(proj, likelihood_weights(y), y.values, x,
                                     _HuberPenalty(cfg), cfg.iters)
    image = ImageGrid(x, pixel_spacing)
    return (image, run.objective) if return_trace else image
