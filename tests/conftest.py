"""Shared test oracles, all independent of the library's fast paths."""

import numpy as np
import pytest
from scipy import sparse as ssp

from dictolearn.tomo import _ray_tables


def dense_conv_reference(atoms: np.ndarray, maps: np.ndarray) -> np.ndarray:
    """Plain-loop "same"-size true convolution with zero padding.

    out[r, c] = sum_i sum_{a,b} d_i[a, b] * z_i[r + s - a, c + s - b]
    with anchor s = (k - 1) // 2 and zeros outside the grid.
    """
    m, k, _ = atoms.shape
    _, h, w = maps.shape
    s = (k - 1) // 2
    out = np.zeros((h, w))
    for i in range(m):
        for a in range(k):
            for b in range(k):
                coef = atoms[i, a, b]
                if coef == 0.0:
                    continue
                # Rows r with 0 <= r + s - a < h, columns likewise.
                r0, r1 = max(0, a - s), min(h, h + a - s)
                c0, c1 = max(0, b - s), min(w, w + b - s)
                if r0 < r1 and c0 < c1:
                    out[r0:r1, c0:c1] += coef * maps[i, r0 + s - a:r1 + s - a,
                                                     c0 + s - b:c1 + s - b]
    return out


def cd_sparse_solve(D: np.ndarray, x: np.ndarray, lam: float,
                    iters: int = 50000, tol: float = 1e-14) -> np.ndarray:
    """Cyclic coordinate descent for ``min_z ||D z - x||^2 + lam ||z||_1``.

    Requires unit-norm columns. Run to convergence; used as the
    independent optimum oracle for FISTA and the posterior mode.
    """
    n, m = D.shape
    z = np.zeros(m)
    r = x.astype(np.float64).copy()
    for _ in range(iters):
        delta = 0.0
        for i in range(m):
            old = z[i]
            rho = D[:, i] @ r + old
            new = np.sign(rho) * max(abs(rho) - lam / 2.0, 0.0)
            if new != old:
                r -= D[:, i] * (new - old)
                z[i] = new
                delta = max(delta, abs(new - old))
        if delta < tol:
            break
    return z


def adjoint_rel_err(apply_fwd, apply_adj, domain_vec, range_vec) -> float:
    """|<A x, y> - <x, A^T y>| / (||A x|| ||y||)."""
    ax = apply_fwd(domain_vec)
    aty = apply_adj(range_vec)
    lhs = float(np.vdot(ax, range_vec))
    rhs = float(np.vdot(domain_vec, aty))
    denom = np.linalg.norm(ax) * np.linalg.norm(range_vec)
    return abs(lhs - rhs) / max(denom, 1e-300)


def power_iteration_norm(apply, apply_t, shape, iters: int = 30, seed: int = 0) -> float:
    """Largest eigenvalue of ``apply_t(apply(.))`` by seeded power iteration.

    Approaches the eigenvalue from below; the reference that the
    library's closed-form and certified bounds are checked against.
    """
    v = np.random.default_rng(seed).standard_normal(shape)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iters):
        w = apply_t(apply(v))
        lam = float(np.vdot(v, w).real)
        v = w / np.linalg.norm(w)
    return max(lam, 0.0)


def estimate_lipschitz(op, power_iters: int = 30, seed: int = 0) -> float:
    """Power-iteration estimate of the largest eigenvalue of S^T S for the synthesis ``op``."""
    return power_iteration_norm(op.apply, op.adjoint, op.coefficient_shape, power_iters, seed)


def coo_projector_block(proj, a0: int, a1: int) -> ssp.csr_matrix:
    """Rows of ``proj``'s matrix for angles ``[a0, a1)``, assembled as COO.

    One (ray, pixel, weight) triplet per nonzero tap, converted by scipy's
    COO-to-CSR path, which sorts each row and sums any repeated entries.
    """
    rows, cols, data = [], [], []
    nb = proj.geom.num_bins
    for a in range(a0, a1):
        idx0, idx1, w0, w1 = _ray_tables(proj.geom, proj.grid_shape, proj.pixel_spacing, a)
        ray = np.broadcast_to((a - a0) * nb + np.arange(nb), idx0.shape)
        for idx, w in ((idx0, w0), (idx1, w1)):
            keep = w != 0.0
            rows.append(ray[keep])
            cols.append(idx[keep])
            data.append(w[keep])
    return ssp.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=((a1 - a0) * nb, proj.grid_shape[0] * proj.grid_shape[1]),
    ).tocsr()


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
