"""L1-regularized sparse coding, its z-step, and the shared accelerated proximal-gradient loop.

:class:`SynthesisCoupling` is ``lambda1 ||x - S(z)||^2 + lambda2 ||z||_1``
over a given synthesis operator S, with the closed-form step bound
``2 lambda1 norm_sq()``: the spectral bound of :class:`ConvSynthesis` or
the exact sigma_max(D)^2 of :class:`PatchSynthesis`; no safety factor and
no power iteration. Every coupling derives from :class:`Coupling`, whose
``step`` is the one proximal z-step of both dictionary reconstructions in
``recon`` and of FISTA sparse coding, which synthesizes by patches and
runs it on a coupling in Gram form: one (m x m)(m x tiles) product per
iteration and no apply or adjoint of S. ``state``, ``start`` and ``step``
return the state entries (z, S z) with the objective terms (coupling, l1),
so no caller synthesizes the same z twice. Every coupling's z, and the z
:func:`fista_sparse_code` returns, is a channel-first (m, rows, cols)
array whose shape the synthesis operator fixes.

:func:`accelerated_descent` runs this solver and ``recon``'s one
reconstruction driver under one restart policy: a rise beyond rounding
restarts the momentum, a rise from a plain step doubles the bounds once
per solve, and a rise after that is kept and counted. It
takes an optional stop test; only sparse coding given a gap
tolerance passes one, which ends the solve once :func:`duality_gap`'s
certificate is small enough, so every other solve runs its full
iteration count.

:func:`duality_gap` certifies how far a sparse code z is from the optimum:
with r = x - S z scaled into the dual set, P(z) - D(s r) >= P(z) - P*
(Fercoq, Gramfort & Salmon, ICML 2015). In Gram form every term of it is
already at hand, so it costs no product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .operators import ContractError, Dictionary, ImageGrid, PatchSynthesis

__all__ = [
    "SparseCodeConfig",
    "DivergenceError",
    "soft_threshold",
    "sparse_objective",
    "Descent",
    "accelerated_descent",
    "SynthesisCoupling",
    "fista_sparse_code",
    "duality_gap",
]

# A stop test runs after every GAP_CHECK_EVERY-th iteration of a
# sparse-coding solve that is given a gap tolerance.
GAP_CHECK_EVERY = 5


@dataclass
class SparseCodeConfig:
    """Knobs for one sparse-coding solve.

    ``seed`` no longer affects the solve: the step bound is the synthesis
    operator's closed-form ``norm_sq()``, with nothing random.
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


def sparse_objective(dict_: Dictionary, z: np.ndarray, x: ImageGrid, lam: float) -> float:
    """``||S(z) - x||^2 + lam * ||z||_1``, S the patch synthesis."""
    op = PatchSynthesis(dict_, x.shape)
    residual = op.apply(z) - x.values
    return float(np.sum(residual * residual) + lam * np.sum(np.abs(z)))


@dataclass
class Descent:
    """Record of a solve: per iteration the objective parts and their sum, and restart counters."""

    parts: list = field(default_factory=list)
    objective: list = field(default_factory=list)
    restarts: int = 0
    halvings: int = 0
    unresolved: int = 0


def accelerated_descent(step, start, f_start: float, iters: int,
                        stop=None) -> tuple[tuple, Descent]:
    """Accelerated proximal gradient with function-value restart.

    ``start`` is a tuple of arrays: the iterate plus any affine images of
    it the caller keeps (such as a data gradient); every array is
    extrapolated alike, by weights that sum to 1, which keeps affine images
    exact up to rounding. ``step(point, scale)`` takes one
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

    ``stop(done, state, parts)``, when given, is called after each
    iteration with the iteration count, the new state and its objective
    parts; the solve ends early when it returns true. It only truncates
    the trajectory: the state at the stop is the state a run without a
    stop test holds after ``done`` iterations.

    Returns ``(state, Descent)``: the final state, a tuple like ``start``,
    and the record of the solve.
    """
    slack = 1e-12 * max(1.0, abs(f_start))
    state = point = start
    f_last, t, scale = f_start, 1.0, 1.0
    run = Descent()
    for it in range(iters):
        while True:
            new, parts = step(point, scale)
            f = sum(parts)
            if not math.isfinite(f):
                raise DivergenceError(
                    f"non-finite objective at iteration {it}",
                    {"iteration": it, "objective": f, "trace": run.objective,
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
        run.objective.append(f)
        if stop is not None and stop(len(run.parts), state, parts):
            break
    return state, run


class Coupling:
    """The z step and x terms shared by every coupling of x and coefficients z.

    A subclass gives the step bound ``lz``, the ``l1_weight``, the zero
    start ``z_zero()``, the z-gradient ``grad_z(x, z, sz)`` and
    ``synth_value(x, z)``, which returns S z and the coupling value
    together. ``grad_x`` and ``lx``, the x-gradient of ``lambda1 ||x - S z||^2``
    and its Lipschitz bound, make a coupling a penalty of ``recon``'s
    reconstruction driver (not the Gram form, whose x is fixed).
    """

    def state(self, x, z):
        """``((z, S z), (coupling, l1))``: z, its synthesis and its objective terms at image x."""
        sz, value = self.synth_value(x, z)
        return (z, sz), (value, self.l1_weight * float(np.sum(np.abs(z))))

    def start(self, x):
        """:meth:`state` at z = 0."""
        return self.state(x, self.z_zero())

    def step(self, x, z, sz, scale: float):
        """One proximal-gradient z step from ``(z, sz = S z)`` at image ``x``, as :meth:`state`.

        z_new = soft_threshold(z - grad_z / lz, l1_weight / lz), lz = scale * self.lz.
        """
        lz = scale * self.lz
        return self.state(x, soft_threshold(z - self.grad_z(x, z, sz) / lz, self.l1_weight / lz))

    def grad_x(self, x, z, sz):
        return 2.0 * self.lambda1 * (x - sz)

    @property
    def lx(self):
        return 2.0 * self.lambda1


class SynthesisCoupling(Coupling):
    """``lambda1 ||x - S(z)||^2 + lambda2 ||z||_1`` for a synthesis operator ``op``.

    z is channel-first, (m, rows, cols), in this coupling as in every other.
    """

    def __init__(self, op, lambda1, lambda2):
        self.op = op
        self.lambda1 = lambda1
        self.l1_weight = lambda2
        self.lz = 2.0 * lambda1 * self.op.norm_sq()

    def z_zero(self):
        return self.op.zeros()

    def synth_value(self, x, z):
        sz = self.op.apply(z)
        r = x - sz
        return sz, self.lambda1 * float(np.sum(r * r))

    def grad_z(self, x, z, sz):
        return 2.0 * self.lambda1 * self.op.adjoint(sz - x)


class _GramCoupling(Coupling):
    """Patch-synthesis coupling for one fixed x: ``G z`` in place of ``S z``, G = D D^T.

    z is (m, H/k, W/k); ``G z`` multiplies its (m, tiles) view. With
    c = S^T x, the gradient is 2 (Gz - c) and the value <z, Gz - 2c> + ||x||^2,
    which is ||r||^2 for the residual r = x - S z.
    """

    def __init__(self, dict_: Dictionary, x: ImageGrid, lam: float):
        op = PatchSynthesis(dict_, x.shape)
        self.gram = dict_.flat() @ dict_.flat().T
        self.c = op.adjoint(x.values)
        self.x_sq = float(np.vdot(x.values, x.values))
        self.l1_weight = lam
        self.lz = 2.0 * op.norm_sq()

    def z_zero(self):
        return np.zeros_like(self.c)

    def synth_value(self, x, z):
        gz = (self.gram @ z.reshape(len(z), -1)).reshape(z.shape)
        return gz, float(np.vdot(z, gz - 2.0 * self.c)) + self.x_sq

    def grad_z(self, x, z, gz):
        return 2.0 * (gz - self.c)

    def relative_gap(self, z, gz, parts) -> float:
        """Certified duality gap of ``||S z - x||^2 + lam ||z||_1`` over its value.

        The dual point s r, s = min(1, lam / (2 ||S^T r||_inf)), is
        feasible, so P(z) - (2 s <x, r> - s^2 ||r||^2) >= P(z) - P*. Every
        term is at hand: S^T r = c - G z, ||r||^2 is the coupling value
        ``parts[0]``, and <x, r> = ||x||^2 - <c, z>. P(z) = 0 only at
        x = 0 and z = 0, which is optimal: the gap is 0 there.
        """
        r_sq, l1 = parts
        primal = r_sq + l1
        if primal == 0.0:
            return 0.0
        corr = 2.0 * float(np.max(np.abs(self.c - gz)))
        s = 1.0 if corr <= self.l1_weight else self.l1_weight / corr
        x_r = self.x_sq - float(np.vdot(self.c, z))
        return (primal - (2.0 * s * x_r - s * s * r_sq)) / primal


def fista_sparse_code(dict_: Dictionary, x: ImageGrid, cfg: SparseCodeConfig,
                      mode: str = "patch", gap_tol: float | None = None):
    """Approximately minimize ``||S(z) - x||^2 + lam*||z||_1`` from a cold start.

    S is the patch synthesis; ``mode`` accepts only "patch", for callers
    that pass it by position. Runs ``cfg.max_iters`` iterations of
    :func:`accelerated_descent`, each one :meth:`Coupling.step` with l1
    weight ``cfg.lam``, carrying ``(z, D D^T z)`` in Gram form: one adjoint
    of S per solve, none per iteration. The objective trace does not rise
    beyond rounding.

    With ``gap_tol``, the solve also stops at the first check, every
    ``GAP_CHECK_EVERY`` iterations, where the relative duality gap (see
    :func:`duality_gap`) is at most ``gap_tol``; the iterate it returns is
    then bit for bit the one a run of that many iterations returns.

    Returns
    -------
    (ndarray, ndarray)
        The final iterate, channel-first like the operator's
        ``coefficient_shape``, and the objective value after each iteration.
    """
    if mode != "patch":
        raise ContractError(f"sparse coding synthesizes by patches, not mode {mode!r}")
    coupling = _GramCoupling(dict_, x, cfg.lam)

    def stop(done, state, parts):
        return done % GAP_CHECK_EVERY == 0 and coupling.relative_gap(*state, parts) <= gap_tol

    def step(point, scale):
        return coupling.step(x.values, *point, scale)

    start, parts = coupling.start(x.values)
    try:
        (z, _), run = accelerated_descent(step, start, sum(parts), cfg.max_iters,
                                          None if gap_tol is None else stop)
    except DivergenceError as err:
        err.dump.update(max_abs_z=err.dump["max_abs"][0], lipschitz=coupling.lz / 2.0)
        raise
    return z, np.array(run.objective)


def duality_gap(dict_: Dictionary, x: ImageGrid, z: np.ndarray, lam: float) -> float:
    """Certified relative duality gap of sparse-code coefficients z for image x.

    ``(P(z) - D(s r)) / P(z)`` with P(z) = ``||S z - x||^2 + lam ||z||_1``
    and the dual point of :meth:`_GramCoupling.relative_gap`, the same
    test that stops :func:`fista_sparse_code` at ``gap_tol``. It bounds
    ``(P(z) - P*) / P(z)``, so a value at most ``tol`` certifies
    ``P(z) - P* <= tol * P(z)``. It is >= 0 up to the rounding of its
    Gram-form terms, a few machine epsilons times ``||x||^2 / P(z)``.
    """
    coupling = _GramCoupling(dict_, x, lam)
    z = np.asarray(z, dtype=np.float64).reshape(coupling.c.shape)
    state, parts = coupling.state(x.values, z)
    return coupling.relative_gap(*state, parts)
