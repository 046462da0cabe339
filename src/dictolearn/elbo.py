"""Numerical verification of the evidence-bound theory.

Model: a signal x in R^n is a unit-column dense dictionary matrix D
(n x m) applied to Laplace(0, b) coefficients plus Gaussian(sigma) noise.
The approximate posterior q is a Laplace centered at the joint-density
mode z* with scale b_star. This module evaluates, in closed form,

    ELBO(q)(x) = -E_q[f(x, z~)] + C(sigma, b, b_star),
    f(x, z)    = ||D z - x||^2 / (2 sigma^2) + ||z||_1 / b,

its lower bound obtained by bounding the folded-Laplace expectation, and
the bound on their gap, (b_star / b) * ||z*||_0. All three assume that
z* is the mode; :func:`posterior_mode` stops once the Lasso duality gap
certifies that, and :class:`ElboReport` carries the certificate of the
z* it was computed from (``mode_gap``, certified when at most
``MODE_GAP_TOL``). :func:`evidence_chain` runs the chain for one signal,
cross-checked by Monte Carlo and by tensor-grid quadrature of the evidence.

The additive constant uses the full entropy of the m-dimensional Laplace
posterior approximation, -E_q[log q] = m log(2 b_star) + m; the
Monte-Carlo cross-checks in the tests pin this convention down.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import ContractError, Dictionary, ImageGrid
from .sparse import SparseCodeConfig, duality_gap, fista_sparse_code

__all__ = [
    "ModelParams",
    "ElboReport",
    "dense_matrix",
    "laplace_logpdf",
    "gaussian_logpdf",
    "joint_log_density",
    "posterior_mode",
    "mode_gap",
    "elbo_lower_bound",
    "elbo_monte_carlo",
    "log_evidence_quadrature",
    "evidence_chain",
    "sample_laplace",
]

MC_MIN_SAMPLES = 1000  # fewest draws elbo_monte_carlo accepts
# Relative duality gap at which a z* counts as the mode (certified).
MODE_GAP_TOL = 1e-10
# posterior_mode's iteration cap: m = n = 64 models need up to about 3200.
MODE_MAX_ITERS = 10_000
_MC_BLOCK = 1 << 16
_QUAD_BLOCK = 1 << 16
# Half-width of the quadrature box, in units of the prior scale b.
QUADRATURE_SPAN = 30.0
# Quadrature nodes stream in blocks, so this caps time, not memory: 5e7
# nodes (m = 3, n = 4) took about 7 s on one x86-64 core.
_GRID_BUDGET = 50_000_000


@dataclass
class ModelParams:
    """Noise scale sigma, prior scale b, posterior scale b_star, dims n, m."""

    sigma: float
    b: float
    b_star: float
    n: int
    m: int

    def __post_init__(self):
        if not all(0 < v < np.inf for v in (self.sigma, self.b, self.b_star)):
            raise ContractError("sigma, b, b_star must be positive and finite")
        if self.n < 1 or self.m < 1:
            raise ContractError("dimensions must be positive")


@dataclass
class ElboReport:
    """All terms of the closed-form bound for one signal.

    ``mode_gap`` is the certified relative duality gap of the z* the
    terms were computed from (see :func:`mode_gap`); the z* is certified
    as the mode when it is at most ``MODE_GAP_TOL``.
    """

    f_at_mode: float
    penalty_quad: float
    penalty_lin: float
    constant_c: float
    expected_f: float
    elbo_exact: float
    lower_bound: float
    gap_bound: float
    support_size: int
    mode_gap: float

    @property
    def gap(self) -> float:
        return self.elbo_exact - self.lower_bound

    @property
    def certified(self) -> bool:
        return self.mode_gap <= MODE_GAP_TOL

    @property
    def violations(self) -> list[str]:
        return [name for name, ok in {
            "z* uncertified": self.certified,
            "ELBO below its lower bound": self.elbo_exact >= self.lower_bound - 1e-10,
            "gap above the gap bound": self.gap <= self.gap_bound + 1e-10}.items() if not ok]

    COLUMNS = ("f_at_mode", "penalty_quad", "penalty_lin", "constant_c", "expected_f",
               "elbo_exact", "lower_bound", "gap", "gap_bound", "support_size", "mode_gap")

    def as_dict(self) -> dict:
        return {key: getattr(self, key) for key in self.COLUMNS}


def dense_matrix(dict_: Dictionary) -> np.ndarray:
    """Single-tile dense synthesis matrix: (k*k, m), unit-norm columns."""
    return dict_.flat().T.copy()


def _check_dims(x, dict_, params):
    x = np.asarray(x, dtype=np.float64).ravel()
    if params.n != dict_.atom_side ** 2 or params.m != dict_.atom_count:
        raise ContractError("params dimensions do not match the dictionary")
    if x.size != params.n:
        raise ContractError(f"signal has {x.size} entries, expected {params.n}")
    return x


def laplace_logpdf(z: np.ndarray, mu: np.ndarray, b: float) -> float:
    """Log density of an i.i.d. Laplace vector: -m ln(2b) - ||z - mu||_1 / b."""
    if not b > 0:
        raise ContractError("b must be positive")
    z = np.asarray(z, dtype=np.float64).ravel()
    mu = np.broadcast_to(np.asarray(mu, dtype=np.float64), z.shape)
    return float(-z.size * np.log(2.0 * b) - np.sum(np.abs(z - mu)) / b)


def gaussian_logpdf(v: np.ndarray, sigma: float) -> float:
    """Log density of an isotropic Gaussian: -(n/2) ln(2 pi sigma^2) - ||v||^2 / (2 sigma^2)."""
    if not sigma > 0:
        raise ContractError("sigma must be positive")
    v = np.asarray(v, dtype=np.float64).ravel()
    return float(-0.5 * v.size * np.log(2.0 * np.pi * sigma ** 2)
                 - np.sum(v * v) / (2.0 * sigma ** 2))


def f_value(x, z, dict_, params: ModelParams) -> float:
    """``||D z - x||^2 / (2 sigma^2) + ||z||_1 / b``."""
    x = _check_dims(x, dict_, params)
    z = np.asarray(z, dtype=np.float64).ravel()
    r = dense_matrix(dict_) @ z - x
    return float(np.sum(r * r) / (2.0 * params.sigma ** 2) + np.sum(np.abs(z)) / params.b)


def joint_log_density(x, z, dict_: Dictionary, params: ModelParams) -> float:
    """Log of the model joint: Gaussian residual times Laplace prior."""
    x = _check_dims(x, dict_, params)
    z = np.asarray(z, dtype=np.float64).ravel()
    residual = x - dense_matrix(dict_) @ z
    return gaussian_logpdf(residual, params.sigma) + laplace_logpdf(z, 0.0, params.b)


def _log_joint_rows(x: np.ndarray, z: np.ndarray, d: np.ndarray,
                    params: ModelParams) -> np.ndarray:
    """:func:`joint_log_density` of x at each row of ``z``, with ``d = dense_matrix``."""
    const = -0.5 * params.n * np.log(2.0 * np.pi * params.sigma ** 2) \
        - params.m * np.log(2.0 * params.b)
    residual = z @ d.T - x[None, :]
    return (const - np.sum(residual * residual, axis=1) / (2.0 * params.sigma ** 2)
            - np.sum(np.abs(z), axis=1) / params.b)


def _mode_problem(x, dict_: Dictionary, params: ModelParams):
    """x as a single-tile image and the l1 weight of the equivalent sparse coding."""
    k = dict_.atom_side
    return ImageGrid(x.reshape(k, k)), 2.0 * params.sigma ** 2 / params.b


def posterior_mode(x, dict_: Dictionary, params: ModelParams,
                   fista_iters: int = MODE_MAX_ITERS) -> np.ndarray:
    """Mode of the joint density in z: minimizer of f(x, .).

    Minimizing f is equivalent to sparse coding with l1 weight
    ``2 sigma^2 / b`` (positive rescaling preserves the argmin), solved
    here with FISTA on the single-tile patch problem. The solve stops at
    the first check where the relative duality gap is at most
    ``MODE_GAP_TOL``, or after ``fista_iters`` iterations; :func:`mode_gap`
    tells which.
    """
    x = _check_dims(x, dict_, params)
    image, lam = _mode_problem(x, dict_, params)
    cfg = SparseCodeConfig(lam=lam, max_iters=fista_iters)
    z, _ = fista_sparse_code(dict_, image, cfg, gap_tol=MODE_GAP_TOL)
    return z.ravel()


def mode_gap(x, z, dict_: Dictionary, params: ModelParams) -> float:
    """Certified relative duality gap of z as the mode of f(x, .).

    Bounds ``(f(x, z) - min f) / f(x, z)``; the same test that stops
    :func:`posterior_mode`, so its output certifies exactly when this is
    at most ``MODE_GAP_TOL``.
    """
    x = _check_dims(x, dict_, params)
    image, lam = _mode_problem(x, dict_, params)
    return duality_gap(dict_, image, z, lam)


def elbo_lower_bound(x, dict_: Dictionary, params: ModelParams,
                     z_star: np.ndarray) -> ElboReport:
    """Closed-form ELBO, its lower bound, and the gap bound at the mode ``z_star``.

    ``E_q[f]`` uses the folded Laplace mean ``|z*_i| + b_star
    exp(-|z*_i|/b_star)``; the lower bound replaces each exponential by 1.
    Their difference never exceeds ``(b_star / b) ||z*||_0``. ``mode_gap``
    certifies the :func:`posterior_mode` result passed in.
    """
    x = _check_dims(x, dict_, params)
    z_star = np.asarray(z_star, dtype=np.float64).ravel()
    sigma, b, bs, n, m = params.sigma, params.b, params.b_star, params.n, params.m

    f_mode = f_value(x, z_star, dict_, params)
    penalty_quad = m * bs ** 2 / sigma ** 2
    penalty_lin = m * bs / b
    constant_c = float(-0.5 * n * np.log(2.0 * np.pi * sigma ** 2) + m * np.log(bs / b) + m)

    decay = float(np.sum(np.exp(-np.abs(z_star) / bs)))
    expected_f = f_mode + penalty_quad + (bs / b) * decay
    elbo_exact = -expected_f + constant_c
    lower_bound = -f_mode - penalty_quad - penalty_lin + constant_c
    support = int(np.count_nonzero(z_star))
    return ElboReport(
        f_at_mode=f_mode,
        penalty_quad=penalty_quad,
        penalty_lin=penalty_lin,
        constant_c=constant_c,
        expected_f=expected_f,
        elbo_exact=elbo_exact,
        lower_bound=lower_bound,
        gap_bound=(bs / b) * support,
        support_size=support,
        mode_gap=mode_gap(x, z_star, dict_, params),
    )


def _laplace_block(center: np.ndarray, scale: float, start: int, stop: int, seed) -> np.ndarray:
    """Samples ``start:stop`` of one block of the Laplace stream, keyed by its block index."""
    rng = np.random.Generator(np.random.Philox(key=(seed, start // _MC_BLOCK)))
    u = rng.random((stop - start, center.size)) - 0.5
    mag = np.maximum(1.0 - 2.0 * np.abs(u), np.finfo(float).tiny)
    return center + scale * (-np.sign(u) * np.log(mag))


def sample_laplace(center: np.ndarray, scale: float, count: int, seed) -> np.ndarray:
    """Inverse-CDF Laplace samples from a counter-based generator.

    Drawn in fixed-size blocks with per-block keys, so the stream is
    reproducible and independent of how blocks are scheduled.
    """
    center = np.asarray(center, dtype=np.float64).ravel()
    out = np.empty((count, center.size))
    for start in range(0, count, _MC_BLOCK):
        stop = min(start + _MC_BLOCK, count)
        out[start:stop] = _laplace_block(center, scale, start, stop, seed)
    return out


def elbo_monte_carlo(x, dict_: Dictionary, params: ModelParams, z_star: np.ndarray,
                     n_samples: int, seed: int = 0):
    """Monte-Carlo ELBO estimate and its standard error.

    Samples z~ from the Laplace posterior approximation and averages the
    joint log density; the entropy term uses its closed form
    ``m ln(2 b_star) + m``.
    """
    if n_samples < MC_MIN_SAMPLES:
        raise ContractError(f"n_samples must be at least {MC_MIN_SAMPLES}")
    x = _check_dims(x, dict_, params)
    z_star = np.asarray(z_star, dtype=np.float64).ravel()
    d = dense_matrix(dict_)
    bs, m = params.b_star, params.m

    total = 0.0
    total_sq = 0.0
    for start in range(0, n_samples, _MC_BLOCK):
        z = _laplace_block(z_star, bs, start, min(start + _MC_BLOCK, n_samples), seed)
        logp = _log_joint_rows(x, z, d, params)
        total += float(np.sum(logp))
        total_sq += float(np.sum(logp * logp))

    mean = total / n_samples
    var = max(total_sq / n_samples - mean * mean, 0.0) * n_samples / max(n_samples - 1, 1)
    entropy = float(m * np.log(2.0 * bs) + m)
    return mean + entropy, float(np.sqrt(var / n_samples))


def log_evidence_quadrature(x, dict_: Dictionary, params: ModelParams,
                            points: int = 2001) -> float:
    """Trapezoid tensor-grid evaluation of the log evidence.

    Integrates the joint density over Z on ``[-QUADRATURE_SPAN b,
    QUADRATURE_SPAN b]^m`` with ``points`` nodes per axis, in blocks of
    nodes, one ``logsumexp`` each, so memory stays flat; feasible only for
    very small m (the grid is capped at 5e7 nodes).
    """
    from scipy.special import logsumexp  # not at module level: it is slow to import
    x = _check_dims(x, dict_, params)
    m = params.m
    if points < 2:
        raise ContractError("quadrature needs points >= 2")
    if points ** m > _GRID_BUDGET:
        raise ContractError(f"grid of {points}^{m} nodes exceeds the quadrature budget")
    d = dense_matrix(dict_)
    span = QUADRATURE_SPAN * params.b
    axis = np.linspace(-span, span, points)
    log_stepw = np.log(np.full(points, axis[1] - axis[0]))
    log_stepw[[0, -1]] += np.log(0.5)

    block_lse = []
    for start in range(0, points ** m, _QUAD_BLOCK):
        idx = np.unravel_index(np.arange(start, min(start + _QUAD_BLOCK, points ** m)),
                               (points,) * m)
        z = np.stack([axis[i] for i in idx], axis=1)
        logw = sum(log_stepw[i] for i in idx)
        block_lse.append(logsumexp(_log_joint_rows(x, z, d, params) + logw))
    return float(logsumexp(block_lse))


def evidence_chain(x, dict_: Dictionary, params: ModelParams, mc_samples: int, seed: int):
    """The chain for x: (report, MC estimate, its SE, log evidence, violations).

    Monte Carlo runs if ``mc_samples > 0``, the quadrature if also m <= 2; else nan.
    """
    z_star = posterior_mode(x, dict_, params)
    report = elbo_lower_bound(x, dict_, params, z_star)
    violations, mc, se, evidence = report.violations, np.nan, np.nan, np.nan
    if mc_samples > 0:
        mc, se = elbo_monte_carlo(x, dict_, params, z_star, mc_samples, seed)
        if not abs(mc - report.elbo_exact) <= 4 * se:
            violations.append("Monte-Carlo ELBO more than 4 SE off")
        evidence = log_evidence_quadrature(x, dict_, params) if params.m <= 2 else np.nan
        if params.m <= 2 and not (np.isfinite(evidence) and evidence >= mc - 3 * se - 1e-3):
            violations.append("log evidence below the Monte-Carlo ELBO")
    return report, mc, se, evidence, violations
