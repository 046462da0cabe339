"""Dictionary types and linear synthesis operators.

Two synthesis operators map coefficients to images: a convolutional one
(sum of per-atom "same"-size convolutions, zero padded) and a patch one
(non-overlapping k-by-k tiling, equivalent to stride-k convolution).
Both come with exact numerical adjoints and with the gradient of the
synthesis residual with respect to the atoms, and both work on tile
planes, (k, k, ...) arrays whose plane (dy, dx) holds atom pixel
(dy, dx) at every position: each apply, adjoint and atom gradient is one
matrix product with the (m, k*k) flat atoms D. Coefficients are plain
channel-first arrays, one map per atom, of the shape the operator fixes
in ``coefficient_shape``: (m, H, W) for the convolutional one,
(m, H/k, W/k) for the patch one. ``apply`` checks that shape.

Conventions, fixed so the adjoint pairs are exact:

* the forward operator uses true convolution, the adjoint uses
  cross-correlation;
* "same" output anchors the kernel at index ``(k - 1) // 2`` on each axis;
* atom storage order defines channel identity everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "ContractError",
    "ZeroAtomError",
    "ImageGrid",
    "Dictionary",
    "ConvSynthesis",
    "PatchSynthesis",
    "dict_gradient",
    "normalize_atoms",
]

class ContractError(ValueError):
    """An input violates a documented precondition (shape, mode, range)."""


class ZeroAtomError(ValueError):
    """An atom is identically zero and cannot be normalized.

    Carries ``indices`` so training loops can reinitialize the offenders.
    """

    def __init__(self, indices):
        self.indices = list(indices)
        super().__init__(f"atoms {self.indices} have zero norm")


@dataclass
class ImageGrid:
    """2D scalar field of attenuation values with physical pixel spacing.

    Parameters
    ----------
    values : ndarray, shape (height, width)
        Attenuation values in 1/mm (or any consistent unit).
    pixel_spacing : float
        Edge length of a pixel in mm.
    """

    values: np.ndarray
    pixel_spacing: float = 1.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2 or min(self.values.shape) < 1:
            raise ContractError(f"image must be 2D and non-empty, got shape {self.values.shape}")
        if not self.pixel_spacing > 0:
            raise ContractError("pixel_spacing must be positive")
        if not np.all(np.isfinite(self.values)):
            raise ContractError("image values must be finite")

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    def like(self, values: np.ndarray) -> "ImageGrid":
        """New grid with the same spacing and different values."""
        return ImageGrid(values, self.pixel_spacing)


@dataclass
class Dictionary:
    """A set of m square atoms of side k, each with unit Euclidean norm.

    ``atoms`` has shape (m, k, k). Norms are validated to 1 within 1e-6
    (the tolerance admits 32-bit file round trips).
    """

    atoms: np.ndarray

    def __post_init__(self):
        self.atoms = np.asarray(self.atoms, dtype=np.float64)
        if self.atoms.ndim != 3 or self.atoms.shape[1] != self.atoms.shape[2]:
            raise ContractError(f"atoms must have shape (m, k, k), got {self.atoms.shape}")
        if self.atoms.shape[0] < 1 or self.atoms.shape[1] < 1:
            raise ContractError("need at least one atom of side >= 1")
        if not np.all(np.isfinite(self.atoms)):
            raise ContractError("atom entries must be finite")
        norms = np.linalg.norm(self.atoms.reshape(self.atom_count, -1), axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-6):
            bad = np.nonzero(np.abs(norms - 1.0) > 1e-6)[0]
            raise ContractError(f"atoms {bad.tolist()} are not unit-norm (within 1e-6)")

    @property
    def atom_count(self) -> int:
        return self.atoms.shape[0]

    @property
    def atom_side(self) -> int:
        return self.atoms.shape[1]

    @classmethod
    def random(cls, atom_count: int, atom_side: int, seed: int) -> "Dictionary":
        """Standard-normal atoms, normalized to unit norm."""
        rng = np.random.default_rng(seed)
        atoms = rng.standard_normal((atom_count, atom_side, atom_side))
        return normalize_atoms(atoms)

    def flat(self) -> np.ndarray:
        """Atoms flattened row-major to shape (m, k*k)."""
        return self.atoms.reshape(self.atom_count, -1)


def _coefficients(z, shape) -> np.ndarray:
    """z as a float64 array, checked against the operator's coefficient shape."""
    z = np.asarray(z, dtype=np.float64)
    if z.shape != shape:
        raise ContractError(f"coefficients of shape {z.shape}, operator needs {shape}")
    return z


def _residual(residual, shape) -> np.ndarray:
    """A residual as a float64 array, checked against the operator's grid shape."""
    residual = np.asarray(residual, dtype=np.float64)
    if residual.shape != shape:
        raise ContractError(f"residual shape {residual.shape} != grid {shape}")
    return residual


def _fold(tiles: np.ndarray) -> np.ndarray:
    """Overlap-add of (k, k, P, Q) tile planes: plane (dy, dx) lands at offset (dy, dx).

    Returns the (P+k-1, Q+k-1) canvas.
    """
    k, _, p, q = tiles.shape
    canvas = np.zeros((p + k - 1, q + k - 1))
    for dy in range(k):
        for dx in range(k):
            canvas[dy:dy + p, dx:dx + q] += tiles[dy, dx]
    return canvas


class ConvSynthesis:
    """Convolutional synthesis operator for one dictionary and grid shape.

    With s = (k-1)//2 and W(r) the (k, k, H, W) window view of r padded
    by s before and k-1-s after each axis, S z folds the tiles D^T z and
    crops the canvas at s; S^T r is D W(r), and the atom gradient is
    2 z W(r)^T, z as (m, H*W). Each is one matrix product.
    Kept free of per-call state: apply/adjoint are pure given the inputs.
    Coefficients are (m, H, W): one full-resolution map per atom.
    """

    def __init__(self, dict_: Dictionary, grid_shape):
        self.dict = dict_
        self.grid_shape = (int(grid_shape[0]), int(grid_shape[1]))
        self.coefficient_shape = (dict_.atom_count,) + self.grid_shape
        self._flat = dict_.flat()
        self._anchor = (dict_.atom_side - 1) // 2

    def _windows(self, residual: np.ndarray) -> np.ndarray:
        """W(r) as (k*k, H*W) planes."""
        k, s = self.dict.atom_side, self._anchor
        padded = np.pad(_residual(residual, self.grid_shape), ((s, k - 1 - s), (s, k - 1 - s)))
        return sliding_window_view(padded, self.grid_shape).reshape(k * k, -1)

    def apply(self, z: np.ndarray) -> np.ndarray:
        z = _coefficients(z, self.coefficient_shape)
        (h, w), k, s = self.grid_shape, self.dict.atom_side, self._anchor
        tiles = (self._flat.T @ z.reshape(self.dict.atom_count, -1)).reshape(k, k, h, w)
        return _fold(tiles)[s:s + h, s:s + w]

    def adjoint(self, residual: np.ndarray) -> np.ndarray:
        return (self._flat @ self._windows(residual)).reshape(self.coefficient_shape)

    def norm_sq(self) -> float:
        """Upper bound on the largest eigenvalue of S^T S: ``max_f sum_i |D_i(f)|^2``.

        The "same"-cropped linear convolution is a crop of the circular
        convolution on the padded FFT grid (at least (H+k-1, W+k-1), so
        nothing wraps), and that circular operator has exactly this
        squared norm. The rfft half-plane suffices because real atoms
        have Hermitian-symmetric spectra.
        """
        from scipy import fft as sfft  # not at module level: it loads scipy.special
        (h, w), k = self.grid_shape, self.dict.atom_side
        fshape = (sfft.next_fast_len(h + k - 1), sfft.next_fast_len(w + k - 1))
        f = sfft.rfft2(self.dict.atoms, fshape)
        return float(np.max(np.sum(f.real * f.real + f.imag * f.imag, axis=0)))

    def dict_gradient(self, z: np.ndarray, residual: np.ndarray) -> np.ndarray:
        """Gradient of ||S(z) - x||^2 in atom coordinates, residual = S(z) - x."""
        z = _coefficients(z, self.coefficient_shape).reshape(self.dict.atom_count, -1)
        return 2.0 * (z @ self._windows(residual).T).reshape(self.dict.atoms.shape)

    def zeros(self) -> np.ndarray:
        return np.zeros(self.coefficient_shape)


class PatchSynthesis:
    """Non-overlapping patch synthesis: stride-k tiling of the grid.

    Works on tile planes, (k*k, tiles) arrays whose row p holds pixel p of
    every tile: S z unfolds D^T z and S^T x is D times the planes of x,
    with D the (m, k*k) flat atoms and z the (m, tiles) view of the
    coefficients, which are (m, H/k, W/k): one per atom and tile.
    """

    def __init__(self, dict_: Dictionary, grid_shape):
        self.dict = dict_
        self.grid_shape = (int(grid_shape[0]), int(grid_shape[1]))
        h, w = self.grid_shape
        k = dict_.atom_side
        if h % k or w % k:
            raise ContractError(f"grid shape {(h, w)} is not divisible into {k}x{k} tiles")
        self._flat = dict_.flat()
        self._tile_grid = (h // k, w // k)
        self.coefficient_shape = (dict_.atom_count,) + self._tile_grid

    def _planes(self, x: np.ndarray) -> np.ndarray:
        (th, tw), k = self._tile_grid, self.dict.atom_side
        return x.reshape(th, k, tw, k).transpose(1, 3, 0, 2).reshape(k * k, -1)

    def _unplane(self, planes: np.ndarray) -> np.ndarray:
        k = self.dict.atom_side
        return planes.reshape((k, k) + self._tile_grid).transpose(2, 0, 3, 1).reshape(self.grid_shape)

    def apply(self, z: np.ndarray) -> np.ndarray:
        z = _coefficients(z, self.coefficient_shape)
        # (z^T D)^T = D^T z; this operand order keeps the tile-major product's rounding.
        return self._unplane((z.reshape(self.dict.atom_count, -1).T @ self._flat).T)

    def adjoint(self, residual: np.ndarray) -> np.ndarray:
        planes = self._planes(_residual(residual, self.grid_shape))
        return (self._flat @ planes).reshape(self.coefficient_shape)

    def norm_sq(self) -> float:
        """Largest eigenvalue of S^T S: ``sigma_max(D)^2``.

        Exact, because S^T S is block diagonal with one D D^T block per
        tile.
        """
        smax = np.linalg.svd(self._flat, compute_uv=False)[0]
        return float(smax * smax)

    def dict_gradient(self, z: np.ndarray, residual: np.ndarray) -> np.ndarray:
        z = _coefficients(z, self.coefficient_shape).reshape(self.dict.atom_count, -1)
        planes = self._planes(_residual(residual, self.grid_shape))
        return 2.0 * (z @ planes.T).reshape(self.dict.atoms.shape)

    def zeros(self) -> np.ndarray:
        return np.zeros(self.coefficient_shape)


def dict_gradient(dict_: Dictionary, z: np.ndarray, x: ImageGrid, mode: str) -> np.ndarray:
    """Exact gradient of ``atoms -> ||S(z) - x||^2`` in atom coordinates.

    S is :class:`ConvSynthesis` for ``mode`` "convolutional" and
    :class:`PatchSynthesis` for "patch"; returns an array shaped like
    ``dict_.atoms``.
    """
    if mode == "convolutional":
        op = ConvSynthesis(dict_, x.shape)
    elif mode == "patch":
        op = PatchSynthesis(dict_, x.shape)
    else:
        raise ContractError(f"unknown mode {mode!r}")
    residual = op.apply(z) - x.values
    return op.dict_gradient(z, residual)


def normalize_atoms(atoms) -> Dictionary:
    """Rescale every atom to unit Euclidean norm, preserving direction.

    Accepts a Dictionary or a raw (m, k, k) array. Raises
    :class:`ZeroAtomError` when an atom is identically zero.
    """
    values = atoms.atoms if isinstance(atoms, Dictionary) else np.asarray(atoms, dtype=np.float64)
    norms = np.linalg.norm(values.reshape(values.shape[0], -1), axis=1)
    zero = np.nonzero(norms == 0.0)[0]
    if zero.size:
        raise ZeroAtomError(zero.tolist())
    return Dictionary(values / norms[:, None, None])
