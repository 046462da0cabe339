"""L1-regularized sparse coding with FISTA.

Solves ``min_z ||S(z) - x||^2 + lambda * ||z||_1`` for either synthesis
mode. The step size is ``1 / (2 L)`` for an upper bound L on the largest
eigenvalue of S^T S. Callers that know L pass it in (training uses the
exact patch-mode value sigma_max(D)^2); otherwise
:func:`estimate_lipschitz` approximates it by power iteration, which
approaches the eigenvalue from below, times a safety factor. An adaptive
restart keeps the recorded objective trace non-increasing despite
momentum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import (
    ContractError,
    CoefficientMaps,
    Dictionary,
    ImageGrid,
    make_synthesis,
)

__all__ = [
    "SparseCodeConfig",
    "DivergenceError",
    "soft_threshold",
    "power_iteration_norm",
    "estimate_lipschitz",
    "sparse_objective",
    "fista_sparse_code",
]


@dataclass
class SparseCodeConfig:
    """Knobs for one sparse-coding solve.

    ``lipschitz_safety``, ``power_iters`` and ``seed`` are used only when
    :func:`fista_sparse_code` estimates the Lipschitz bound itself (no
    ``lipschitz`` argument): the safety factor multiplies the
    power-iteration estimate, which approaches the largest eigenvalue of
    S^T S from below.
    """

    lam: float = 0.1
    max_iters: int = 50
    lipschitz_safety: float = 1.05
    power_iters: int = 30
    seed: int = 0

    def __post_init__(self):
        if self.lam < 0:
            raise ContractError("lam must be >= 0")
        if self.max_iters < 1:
            raise ContractError("max_iters must be >= 1")
        if self.lipschitz_safety < 1:
            raise ContractError("lipschitz_safety must be >= 1")
        if self.power_iters < 1:
            raise ContractError("power_iters must be >= 1")


class DivergenceError(RuntimeError):
    """The objective became non-finite; carries an iterate dump."""

    def __init__(self, message: str, dump: dict):
        self.dump = dump
        super().__init__(message)


def soft_threshold(u: np.ndarray, tau: float) -> np.ndarray:
    """Elementwise ``sign(u) * max(|u| - tau, 0)``.

    Closed-form minimizer of ``tau*|z| + 0.5*(z - u)^2`` per entry.
    Computed as ``u - clip(u, -tau, tau)`` in one output array. Integer
    input gives float64.
    """
    if tau < 0:
        raise ContractError("tau must be >= 0")
    u = np.asarray(u)
    if u.dtype.kind != "f":
        u = u.astype(np.float64)
    out = np.maximum(u, -tau)
    if out.ndim == 0:
        # 0-d input yields a NumPy scalar, which cannot take ``out=``.
        return u - np.minimum(out, tau)
    np.minimum(out, tau, out=out)
    return np.subtract(u, out, out=out)


def power_iteration_norm(apply, apply_t, shape, iters: int = 30, seed: int = 0) -> float:
    """Largest eigenvalue of ``apply_t(apply(.))`` by power iteration.

    ``shape`` is the domain shape; the starting vector is seeded so runs
    are reproducible. Returns 0.0 for the zero operator.
    """
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(shape)
    nv = np.linalg.norm(v)
    if nv == 0:
        return 0.0
    v /= nv
    lam = 0.0
    for _ in range(iters):
        w = apply_t(apply(v))
        nw = np.linalg.norm(w)
        if nw == 0:
            return 0.0
        lam = float(np.vdot(v, w).real)
        v = w / nw
    return max(lam, 0.0)


def estimate_lipschitz(dict_: Dictionary, grid_shape, mode: str,
                       power_iters: int = 30, safety: float = 1.05, seed: int = 0) -> float:
    """Safety-scaled largest eigenvalue of S^T S for the given mode.

    The gradient of ``||S(z) - x||^2`` is 2 S^T(S z - x), so solvers use
    step size ``1 / (2 * estimate)``.
    """
    if power_iters < 1:
        raise ContractError("power_iters must be >= 1")
    op = make_synthesis(dict_, mode, grid_shape)
    z0 = op.zeros()

    def fwd(v):
        return op.apply(CoefficientMaps(z0.mode, v, z0.grid_shape))

    def bwd(r):
        return op.adjoint(r).maps

    return safety * power_iteration_norm(fwd, bwd, z0.maps.shape, power_iters, seed)


def sparse_objective(dict_: Dictionary, z: CoefficientMaps, x: ImageGrid, lam: float) -> float:
    """``||S(z) - x||^2 + lam * ||z||_1``."""
    op = make_synthesis(dict_, z.mode, x.shape)
    residual = op.apply(z) - x.values
    return float(np.sum(residual * residual) + lam * np.sum(np.abs(z.maps)))


def fista_sparse_code(dict_: Dictionary, x: ImageGrid, cfg: SparseCodeConfig, mode: str,
                      lipschitz: float | None = None):
    """Approximately minimize ``||S(z) - x||^2 + lam*||z||_1`` from a cold start.

    Runs a fixed number of accelerated proximal-gradient iterations with
    the standard momentum rule t_{k+1} = (1 + sqrt(1 + 4 t_k^2)) / 2 and
    an objective-value restart that guarantees a non-increasing trace.

    Parameters
    ----------
    lipschitz : float, optional
        Precomputed :func:`estimate_lipschitz` value; estimated when absent.

    Returns
    -------
    (CoefficientMaps, ndarray)
        The final iterate and the objective value after each iteration.
    """
    op = make_synthesis(dict_, mode, x.shape)
    if lipschitz is None:
        lipschitz = estimate_lipschitz(dict_, x.shape, mode,
                                       cfg.power_iters, cfg.lipschitz_safety, cfg.seed)
    target = x.values

    z = op.zeros().maps
    if lipschitz == 0.0:
        # Zero operator: the residual term is constant and z = 0 is optimal.
        zc = CoefficientMaps(mode, z, x.shape)
        return zc, np.full(cfg.max_iters, sparse_objective(dict_, zc, x, cfg.lam))

    step = 1.0 / (2.0 * lipschitz)
    tau = cfg.lam * step

    def objective(zm):
        r = op.apply(CoefficientMaps(mode, zm, x.shape)) - target
        return float(np.sum(r * r) + cfg.lam * np.sum(np.abs(zm)))

    y = z
    t = 1.0
    best = objective(z)
    trace = np.empty(cfg.max_iters)
    for it in range(cfg.max_iters):
        grad = 2.0 * op.adjoint(op.apply(CoefficientMaps(mode, y, x.shape)) - target).maps
        z_new = soft_threshold(y - step * grad, tau)
        obj = objective(z_new)
        if not np.isfinite(obj):
            raise DivergenceError(
                f"non-finite objective at iteration {it}",
                {"iteration": it, "objective": obj,
                 "max_abs_z": float(np.max(np.abs(z_new))), "lipschitz": lipschitz},
            )
        if obj > best:
            # Momentum overshoot: restart from the last iterate. A plain
            # proximal step with a valid Lipschitz bound cannot increase
            # the objective, so the trace stays monotone.
            y = z
            t = 1.0
            grad = 2.0 * op.adjoint(op.apply(CoefficientMaps(mode, y, x.shape)) - target).maps
            z_new = soft_threshold(y - step * grad, tau)
            obj = objective(z_new)
        t_new = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
        y = z_new + ((t - 1.0) / t_new) * (z_new - z)
        z, t = z_new, t_new
        best = min(best, obj)
        trace[it] = obj
    return CoefficientMaps(mode, z, x.shape), trace
