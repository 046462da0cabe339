"""Image quality metrics, phantoms, and atom significance ordering."""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .operators import ContractError, Dictionary, ImageGrid

__all__ = [
    "psnr",
    "ssim",
    "SHEPP_LOGAN_ELLIPSES",
    "MODIFIED_GRAYS",
    "phantom_from_ellipses",
    "shepp_logan",
    "random_ellipse_phantom",
    "atom_significance",
    "atom_montage",
]


def psnr(a: ImageGrid, b: ImageGrid, data_range: float) -> float:
    """``10 log10(data_range^2 / MSE)``; +inf for identical images."""
    if a.shape != b.shape:
        raise ContractError("images must share a shape")
    if not 0 < data_range < math.inf:
        raise ContractError("data_range must be positive and finite")
    mse = float(np.mean((a.values - b.values) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(data_range ** 2 / mse)


# SSIM's window is the outer product of an 11-point normalized Gaussian of
# width 1.5; K1 and K2 set its stabilizers (Wang, Bovik, Sheikh & Simoncelli,
# IEEE TIP 2004).
SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03
_SSIM_G = np.exp(-((np.arange(SSIM_WINDOW) - (SSIM_WINDOW - 1) / 2.0) ** 2)
                 / (2.0 * SSIM_SIGMA ** 2))
_SSIM_G /= _SSIM_G.sum()


def ssim(a: ImageGrid, b: ImageGrid, data_range: float) -> float:
    """Mean local structural similarity with a Gaussian window.

    Local statistics are weighted by the ``SSIM_*`` window over fully
    valid windows only (no padding), in two 1-D passes.
    """
    if a.shape != b.shape:
        raise ContractError("images must share a shape")
    if min(a.shape) < SSIM_WINDOW:
        raise ContractError("image smaller than the SSIM window")
    if not 0 < data_range < math.inf:
        raise ContractError("data_range must be positive and finite")
    av, bv = a.values, b.values
    planes = np.stack((av, bv, av * av, bv * bv, av * bv))
    cols = sliding_window_view(planes, SSIM_WINDOW, axis=1) @ _SSIM_G
    mu_a, mu_b, m_aa, m_bb, m_ab = sliding_window_view(cols, SSIM_WINDOW, axis=2) @ _SSIM_G
    var_a = m_aa - mu_a ** 2
    var_b = m_bb - mu_b ** 2
    cov = m_ab - mu_a * mu_b
    c1 = (SSIM_K1 * data_range) ** 2
    c2 = (SSIM_K2 * data_range) ** 2
    num = (2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)
    den = (mu_a ** 2 + mu_b ** 2 + c1) * (var_a + var_b + c2)
    return float(np.mean(num / den))


# (semi-axis x, semi-axis y, center x, center y, tilt in radians, gray).
SHEPP_LOGAN_ELLIPSES = (
    (0.69, 0.92, 0.0, 0.0, 0.0, 2.0),
    (0.6624, 0.874, 0.0, -0.0184, 0.0, -0.98),
    (0.11, 0.31, 0.22, 0.0, -np.deg2rad(18.0), -0.02),
    (0.16, 0.41, -0.22, 0.0, np.deg2rad(18.0), -0.02),
    (0.21, 0.25, 0.0, 0.35, 0.0, 0.01),
    (0.046, 0.046, 0.0, 0.1, 0.0, 0.01),
    (0.046, 0.046, 0.0, -0.1, 0.0, 0.01),
    (0.046, 0.023, -0.08, -0.605, 0.0, 0.01),
    (0.023, 0.023, 0.0, -0.606, 0.0, 0.01),
    (0.023, 0.046, 0.06, -0.605, 0.0, 0.01),
)

MODIFIED_GRAYS = (1.0, -0.8, -0.2, -0.2, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1)


def phantom_from_ellipses(n: int, ellipses, pixel_spacing: float = 1.0) -> ImageGrid:
    """Render a sum of constant ellipses on the unit square [-1, 1]^2."""
    if n < 2:
        raise ContractError("grid side must be at least 2")
    coords = (2.0 * np.arange(n) - n + 1.0) / n
    x = coords[None, :]
    y = coords[::-1, None]
    values = np.zeros((n, n))
    for (sa, sb, x0, y0, phi, gray) in ellipses:
        c, s = np.cos(phi), np.sin(phi)
        xr = (x - x0) * c + (y - y0) * s
        yr = -(x - x0) * s + (y - y0) * c
        values += gray * ((xr / sa) ** 2 + (yr / sb) ** 2 <= 1.0)
    # Overlapping grays cancel exactly in real arithmetic; snap the
    # floating-point residue so value bounds hold as stated.
    values[np.abs(values) < 1e-12] = 0.0
    return ImageGrid(values, pixel_spacing)


def shepp_logan(n: int, contrast: str = "standard", pixel_spacing: float = 1.0) -> ImageGrid:
    """Classical 10-ellipse head phantom on an n-by-n grid.

    ``standard`` uses the original grays (values in [0, 2]); ``modified``
    the higher-contrast variant (values in [0, 1]).
    """
    if n < 32:
        raise ContractError("phantom side must be at least 32")
    if contrast == "standard":
        table = SHEPP_LOGAN_ELLIPSES
    elif contrast == "modified":
        table = tuple(e[:5] + (g,) for e, g in zip(SHEPP_LOGAN_ELLIPSES, MODIFIED_GRAYS))
    else:
        raise ContractError(f"unknown contrast {contrast!r}")
    return phantom_from_ellipses(n, table, pixel_spacing)


def random_ellipse_phantom(n: int, seed: int, pixel_spacing: float = 1.0) -> ImageGrid:
    """Jittered modified Shepp-Logan: perturbed ellipse table, same family.

    Provides an endless supply of correlated but distinct phantoms for
    desk-scale training and validation sets.
    """
    rng = np.random.default_rng(seed)
    table = []
    for (sa, sb, x0, y0, phi, _), gray in zip(SHEPP_LOGAN_ELLIPSES, MODIFIED_GRAYS):
        scale = rng.uniform(0.85, 1.15)
        table.append((
            sa * scale,
            sb * scale,
            x0 + rng.uniform(-0.04, 0.04),
            y0 + rng.uniform(-0.04, 0.04),
            phi + rng.uniform(-0.15, 0.15),
            gray * rng.uniform(0.8, 1.2),
        ))
    # A few extra small structures inside the skull.
    for _ in range(rng.integers(2, 5)):
        table.append((
            rng.uniform(0.02, 0.08),
            rng.uniform(0.02, 0.08),
            rng.uniform(-0.35, 0.35),
            rng.uniform(-0.35, 0.35),
            rng.uniform(0, np.pi),
            rng.uniform(-0.15, 0.15),
        ))
    phantom = phantom_from_ellipses(n, table, pixel_spacing)
    # Overlapping negative grays may undershoot; attenuation stays physical.
    return ImageGrid(np.maximum(phantom.values, 0.0), pixel_spacing)


def atom_significance(dict_: Dictionary, coefficient_sets):
    """Atoms ordered by total absolute coefficient mass.

    Each coefficient set is a channel-first (m, rows, cols) array.
    ``score(i)`` sums |z| over channel i across all provided sets;
    returns ``(indices, scores)`` with indices sorted by descending
    score, ties broken by index.
    """
    coefficient_sets = list(coefficient_sets)
    if not coefficient_sets:
        raise ContractError("need at least one coefficient set")
    scores = np.zeros(dict_.atom_count)
    for z in coefficient_sets:
        z = np.asarray(z, dtype=np.float64)
        if z.ndim != 3 or len(z) != dict_.atom_count:
            raise ContractError("coefficient channels do not match the dictionary")
        scores += np.abs(z).sum(axis=(1, 2))
    order = np.lexsort((np.arange(dict_.atom_count), -scores))
    return order, scores[order]


def atom_montage(dict_: Dictionary, order) -> np.ndarray:
    """Tile atoms into one sheet, row-major in the given order, one zero pixel apart."""
    m, k, pad = dict_.atom_count, dict_.atom_side, 1
    cols = int(np.ceil(np.sqrt(m)))
    rows = int(np.ceil(m / cols))
    sheet = np.zeros((rows * (k + pad) + pad, cols * (k + pad) + pad))
    for slot, idx in enumerate(order):
        r, c = divmod(slot, cols)
        r0 = pad + r * (k + pad)
        c0 = pad + c * (k + pad)
        sheet[r0:r0 + k, c0:c0 + k] = dict_.atoms[idx]
    return sheet
