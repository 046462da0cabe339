"""L1-regularized sparse coding and the shared accelerated proximal-gradient loop.

Solves ``min_z ||S(z) - x||^2 + lambda * ||z||_1`` for either synthesis
mode with step size ``1 / (2 L)``, L an upper bound on the largest
eigenvalue of S^T S. Callers that know L pass it in; otherwise it is the
operator's closed-form ``norm_sq()``: sigma_max(D)^2 in patch mode
(exact), the spectral bound in convolutional mode. Neither needs a safety
factor, and no power iteration runs here.

:func:`accelerated_descent` runs this solver, both dictionary
reconstructions and the Huber baseline under one restart policy: a rise
beyond rounding restarts the momentum, a rise from a plain step doubles
the bounds once per solve, and a rise after that is kept and counted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    "sparse_objective",
    "Descent",
    "accelerated_descent",
    "fista_sparse_code",
]


@dataclass
class SparseCodeConfig:
    """Knobs for one sparse-coding solve.

    ``seed`` no longer affects the solve: the default step bound is the
    synthesis operator's closed-form ``norm_sq()``, with nothing random.
    """

    lam: float = 0.1
    max_iters: int = 50
    seed: int = 0

    def __post_init__(self):
        if self.lam < 0:
            raise ContractError("lam must be >= 0")
        if self.max_iters < 1:
            raise ContractError("max_iters must be >= 1")


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


def sparse_objective(dict_: Dictionary, z: CoefficientMaps, x: ImageGrid, lam: float) -> float:
    """``||S(z) - x||^2 + lam * ||z||_1``."""
    op = make_synthesis(dict_, z.mode, x.shape)
    residual = op.apply(z) - x.values
    return float(np.sum(residual * residual) + lam * np.sum(np.abs(z.maps)))


@dataclass
class Descent:
    """Final state, objective parts per iteration and restart counters of a solve."""

    state: tuple
    parts: list = field(default_factory=list)
    restarts: int = 0
    halvings: int = 0
    unresolved: int = 0


def accelerated_descent(step, start, f_start: float, iters: int) -> Descent:
    """Accelerated proximal gradient with function-value restart.

    ``start`` is a tuple of arrays: the iterate plus any linear images of
    it the caller keeps (such as ``A x``); every array is extrapolated
    alike, which keeps the images exact. ``step(point, scale)`` takes one
    proximal-gradient step from ``point`` with every Lipschitz bound
    multiplied by ``scale`` and returns ``(new_state, objective_parts)``;
    the objective is their sum, and ``f_start`` its value at ``start``.

    Momentum follows FISTA (Beck & Teboulle 2009). A rise counts only if
    it exceeds the last accepted objective by more than
    ``1e-12 * max(1, |f_start|)``. A rise from an extrapolated point
    resets the momentum and retries from the last iterate (``restarts``;
    O'Donoghue & Candes 2015). A rise from a plain step means a bound is
    too small: ``scale`` becomes 2, once per solve, and the step is
    retried (``halvings``). A rise after that is kept (``unresolved``).
    A non-finite objective raises :class:`DivergenceError`.
    """
    slack = 1e-12 * max(1.0, abs(f_start))
    state = point = start
    f_last, t, scale = f_start, 1.0, 1.0
    run = Descent(start)
    for it in range(iters):
        while True:
            new, parts = step(point, scale)
            f = sum(parts)
            if not math.isfinite(f):
                raise DivergenceError(
                    f"non-finite objective at iteration {it}",
                    {"iteration": it, "objective": f, "trace": [sum(p) for p in run.parts],
                     "max_abs": [float(np.max(np.abs(a))) for a in new]},
                )
            if f <= f_last + slack:
                break
            if point is not state:
                run.restarts += 1
                point, t = state, 1.0
            elif scale == 1.0:
                run.halvings += 1
                scale = 2.0
            else:
                run.unresolved += 1
                break
        t_next = (1.0 + math.sqrt(1.0 + 4.0 * t * t)) / 2.0
        mom = (t - 1.0) / t_next
        point = new if mom == 0.0 else tuple(a + mom * (a - b) for a, b in zip(new, state))
        state, f_last, t = new, f, t_next
        run.parts.append(parts)
    run.state = state
    return run


def fista_sparse_code(dict_: Dictionary, x: ImageGrid, cfg: SparseCodeConfig, mode: str,
                      lipschitz: float | None = None):
    """Approximately minimize ``||S(z) - x||^2 + lam*||z||_1`` from a cold start.

    Runs ``cfg.max_iters`` iterations of :func:`accelerated_descent` on
    the state ``(z,)``; with a valid bound the objective trace does not
    rise beyond rounding.

    Parameters
    ----------
    lipschitz : float, optional
        Upper bound on the largest eigenvalue of S^T S. Defaults to the
        operator's closed-form ``norm_sq()``: exact in patch mode, the
        spectral bound in convolutional mode. Unit-norm atoms keep both
        at 1 or more; a bound that is not positive and finite raises
        :class:`ContractError`.

    Returns
    -------
    (CoefficientMaps, ndarray)
        The final iterate and the objective value after each iteration.
    """
    op = make_synthesis(dict_, mode, x.shape)
    if lipschitz is None:
        lipschitz = op.norm_sq()
    if not (lipschitz > 0.0 and math.isfinite(lipschitz)):
        raise ContractError(f"lipschitz must be positive and finite, got {lipschitz!r}")
    target = x.values
    z = op.zeros().maps
    step_size = 1.0 / (2.0 * lipschitz)

    def residual(zm):
        return op.apply(CoefficientMaps(mode, zm, x.shape)) - target

    def objective(zm):
        r = residual(zm)
        return float(np.sum(r * r) + cfg.lam * np.sum(np.abs(zm)))

    def step(point, scale):
        (y,) = point
        h = step_size / scale
        z_new = soft_threshold(y - h * (2.0 * op.adjoint(residual(y)).maps), cfg.lam * h)
        return (z_new,), (objective(z_new),)

    try:
        run = accelerated_descent(step, (z,), objective(z), cfg.max_iters)
    except DivergenceError as err:
        err.dump.update(max_abs_z=err.dump["max_abs"][0], lipschitz=lipschitz)
        raise
    return CoefficientMaps(mode, run.state[0], x.shape), np.array([p[0] for p in run.parts])
