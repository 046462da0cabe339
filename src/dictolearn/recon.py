"""Dictionary-regularized CT reconstruction and the Huber baseline.

The dictionary methods split the image into a fixed low-frequency part
(low-pass FBP of the data) and a high-frequency part solved from

    min_{x, z}  L(A(x), y) + lambda1 * ||x - S(z)||^2 + lambda2 * ||z||_1

by alternating accelerated steps: a gradient step in x and a proximal
gradient step in z, each with its own step size. The z step is
:func:`dictolearn.sparse.z_step`, the one that FISTA sparse coding takes;
it returns the new (z, S z) with the step's coupling and l1 terms. The
convolutional variant couples through
:class:`dictolearn.sparse.SynthesisCoupling`; the variant regularizing
all overlapping patches through ``_OverlapPatchCoupling`` here, which has
the same interface: ``z_zero``, ``lz``, ``l1_weight``, ``grad_z`` and
``synth_value``, which gives S z and the coupling value from one
synthesis. Both keep z channel-first: (m, H, W) and (m, H+k-1, W+k-1).
The z step bounds are closed forms that need no safety factor: the
spectral bound :meth:`ConvSynthesis.norm_sq` and the exact
sigma_max(D)^2 of :meth:`PatchSynthesis.norm_sq`. The data term
L, its gradient and its step bound are :func:`dictolearn.tomo.data_loss`,
``data_gradient`` and ``data_lipschitz``, which the Huber baseline uses
too; the bound rests on the certified ||A||^2 of :meth:`Projector.norm_sq`,
again with no safety factor. The overlapping-patch variant normalizes its
per-patch terms by the patch coverage, so its z = 0 path coincides with
the convolutional one.

Both methods and the Huber baseline run :func:`accelerated_descent`, so
they share one restart policy. An objective rise beyond rounding restarts
the momentum from the last iterate; a rise from a plain step doubles the
step bounds once per solve; a rise after that is kept and counted in
``Descent.unresolved``. With valid bounds traces are non-increasing.

Each dictionary-method step runs the projector forward A x_new, its data
term and the adjoint that gives the data gradient g(x_new) on one worker
thread while the calling thread runs the z step. The state carries g,
affine in x, so its extrapolation stays exact and the x step takes no
product of A. The threads only read x_new and write arrays of their own,
and scipy's sparse products and BLAS release the interpreter lock, so they
overlap and give bit for bit the results of running in turn. The worker
lives for one solve and re-raises its exceptions unchanged on the caller.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .operators import ContractError, Dictionary, ImageGrid, PatchSynthesis, _fold
from .sparse import SynthesisCoupling, accelerated_descent, z_state, z_step
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


class _OverlapPatchCoupling:
    """Per-patch coupling over all overlapping k-by-k patches.

    Patches are taken at every offset of the zero-padded image, so every
    pixel is covered by exactly k^2 patches; both penalty terms are
    normalized by that coverage. z is (m, H+k-1, W+k-1), one map per atom
    over the patch positions. Tiles and patches are (k, k, H+k-1, W+k-1):
    plane (dy, dx) holds pixel (dy, dx) of every patch. The tiles are
    D^T z; the patches are a zero-copy window view of the padded x. Like
    every coupling it gives ``z_zero``, ``lz``, ``l1_weight``, ``grad_z``
    and ``synth_value``, which returns the coverage-averaged patch
    recomposition S z, making the x-gradient 2*lambda1*(x - S z), and the
    coupling value. ``grad_z`` and ``synth_value`` each compute the tiles
    once and do their elementwise work in place in them.
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


def _accelerated_recon(y: Sinogram, cfg: ReconConfig, grid_shape, pixel_spacing, coupling,
                       return_coefficients: bool = False):
    proj = get_projector(y.geometry, grid_shape, pixel_spacing)
    w = likelihood_weights(y)

    x_lf = fbp(y, grid_shape, pixel_spacing, window="hann", cutoff=cfg.lowpass_cutoff).values
    y_res = y.values - proj.forward(x_lf)
    x = fbp(y, grid_shape, pixel_spacing, window="hann", cutoff=1.0).values - x_lf

    lx = data_lipschitz(proj, w) + 2.0 * cfg.lambda1

    def forward_loss(x_new):
        ax_new = proj.forward(x_new)
        return data_gradient(proj, ax_new, y_res, w), data_loss(ax_new, y_res, w)

    # The state carries the data gradient g(x) and S(z) beside (x, z); g is
    # affine in x, so its extrapolation is g at the extrapolated point. Each
    # step costs, on the worker beside the z step, one forward and one
    # adjoint of A at x_new, and on the caller one grad_z and one
    # synth_value: products with the flat atoms D, two for S the convolution
    # (adjoint and apply) and three for the overlap coupling, and in both
    # one fold of the tiles.
    def step(point, scale):
        xp, gp, zp, szp = point
        x_new = xp - (gp + 2.0 * cfg.lambda1 * (xp - szp)) / (scale * lx)
        forward = worker.submit(forward_loss, x_new)
        z_new, parts = z_step(coupling, x_new, zp, szp, scale)
        g_new, data = forward.result()
        return (x_new, g_new) + z_new, (data,) + parts

    g, data = forward_loss(x)
    zs, parts = z_state(coupling, x, coupling.z_zero())
    with ThreadPoolExecutor(max_workers=1) as worker:
        (x, _, z, _), run = accelerated_descent(step, (x, g) + zs, sum((data,) + parts), cfg.iters)
    image = ImageGrid(x_lf + x, pixel_spacing)
    if return_coefficients:
        return image, run, z
    return image, run


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
    coupling = SynthesisCoupling(dict_, "convolutional", grid_shape, cfg.lambda1, cfg.lambda2)
    return _accelerated_recon(y, cfg, grid_shape, pixel_spacing, coupling, return_coefficients)


def reconstruct_dict_patch(y: Sinogram, dict_: Dictionary, cfg: ReconConfig,
                           grid_shape, pixel_spacing: float = 1.0,
                           return_coefficients: bool = False):
    """Reconstruct with the overlapping-patch regularizer variant."""
    coupling = _OverlapPatchCoupling(dict_, grid_shape, cfg.lambda1, cfg.lambda2)
    return _accelerated_recon(y, cfg, grid_shape, pixel_spacing, coupling, return_coefficients)


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


def _huber_slope(values: np.ndarray, gamma: float) -> np.ndarray:
    return np.clip(values / gamma, -1.0, 1.0)


def _huber_objective(x: np.ndarray, ax: np.ndarray, y: Sinogram, w: np.ndarray,
                     cfg: HuberConfig) -> float:
    """``L(A x, y) + lam * H_gamma(grad x)``, given x and its projection ``ax``."""
    gh, gv = image_gradient(x)
    return data_loss(ax, y.values, w) \
        + cfg.lam * (huber_value(gh, cfg.gamma) + huber_value(gv, cfg.gamma))


def _huber_gradient(proj, x: np.ndarray, ax: np.ndarray, y: Sinogram, w: np.ndarray,
                    cfg: HuberConfig) -> np.ndarray:
    """Gradient in x of :func:`_huber_objective`."""
    gh, gv = image_gradient(x)
    return data_gradient(proj, ax, y.values, w) \
        + cfg.lam * image_gradient_adjoint(_huber_slope(gh, cfg.gamma),
                                           _huber_slope(gv, cfg.gamma))


def huber_loss_and_gradient(x: ImageGrid, y: Sinogram, cfg: HuberConfig):
    """Full Huber objective ``L(A(x), y) + lam * H_gamma(grad x)`` and its gradient."""
    proj = get_projector(y.geometry, x.shape, x.pixel_spacing)
    w = likelihood_weights(y)
    ax = proj.forward(x.values)
    return (_huber_objective(x.values, ax, y, w, cfg),
            x.like(_huber_gradient(proj, x.values, ax, y, w, cfg)))


def reconstruct_huber(y: Sinogram, cfg: HuberConfig, grid_shape,
                      pixel_spacing: float = 1.0, return_trace: bool = False):
    """Weighted least squares plus Huber-of-gradient, by accelerated descent.

    Runs exactly ``cfg.iters`` iterations of :func:`accelerated_descent`
    on the state ``(x, A x)`` from an FBP warm start. With
    ``return_trace`` also returns the per-iteration objective values.
    """
    proj = get_projector(y.geometry, grid_shape, pixel_spacing)
    w = likelihood_weights(y)
    # ||grad||^2 <= 8 for forward differences; the Huber slope is
    # (1/gamma)-Lipschitz.
    lip = data_lipschitz(proj, w) + 8.0 * cfg.lam / cfg.gamma

    def step(point, scale):
        xp, axp = point
        x_new = xp - _huber_gradient(proj, xp, axp, y, w, cfg) / (scale * lip)
        ax_new = proj.forward(x_new)
        return (x_new, ax_new), (_huber_objective(x_new, ax_new, y, w, cfg),)

    x = fbp(y, grid_shape, pixel_spacing, window="hann", cutoff=0.75).values
    start = (x, proj.forward(x))
    (x, _), run = accelerated_descent(step, start, _huber_objective(*start, y, w, cfg), cfg.iters)
    image = ImageGrid(x, pixel_spacing)
    if return_trace:
        return image, run.objective
    return image
