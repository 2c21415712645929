"""Node-centered rectangular grids, region masks, and the Neumann Laplacian's eigenpairs.

The computational window is the rectangle [0, Lx] x [0, Ly], discretized by
``nx`` by ``ny`` nodes so that the spacings are ``hx = Lx / (nx - 1)`` and
``hy = Ly / (ny - 1)``.  Fields are stored as arrays of shape ``(ny, nx)``
with row 0 the southernmost row, matching the mask file layout.  The
Laplacian L is defined by its eigenpairs alone (``neumann_eigenbasis``).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateRegionError, DimensionError, ParameterError

#: Grids with more nodes than this are refused.
MAX_CELLS = 1_000_000


@dataclass(frozen=True)
class GridSpec:
    """Geometry of a node-centered grid on [0, Lx] x [0, Ly]; ``hx`` and ``hy`` are derived."""

    nx: int
    ny: int
    Lx: float
    Ly: float
    hx: float = field(init=False)
    hy: float = field(init=False)

    def __post_init__(self):
        if self.nx < 2 or self.ny < 2:
            raise ParameterError(f"grid needs at least 2 nodes per axis, got {self.nx}x{self.ny}")
        if self.nx * self.ny > MAX_CELLS:
            raise ParameterError(
                f"grid has {self.nx * self.ny} cells, exceeding the maximum of {MAX_CELLS}"
            )
        if not (0.0 < self.Lx < np.inf and 0.0 < self.Ly < np.inf):
            raise ParameterError(f"window extents must be positive and finite, got {self.Lx} x {self.Ly}")
        object.__setattr__(self, "hx", self.Lx / (self.nx - 1))
        object.__setattr__(self, "hy", self.Ly / (self.ny - 1))

    @property
    def shape(self) -> tuple[int, int]:
        """Array shape ``(ny, nx)`` of fields on this grid."""
        return (self.ny, self.nx)

    @property
    def n_cells(self) -> int:
        return self.nx * self.ny

    @property
    def cell_area(self) -> float:
        return self.hx * self.hy

    def compatible(self, other: "GridSpec") -> bool:
        """Same node counts and extents (up to round-off)."""
        return (
            self.nx == other.nx
            and self.ny == other.ny
            and abs(self.Lx - other.Lx) <= 1e-9 * self.Lx
            and abs(self.Ly - other.Ly) <= 1e-9 * self.Ly
        )


@dataclass(frozen=True)
class RegionMask:
    """A named boolean field marking the cells that belong to one region."""

    name: str
    cells: np.ndarray

    def __post_init__(self):
        cells = np.array(self.cells)  # a copy: the caller's array stays writable
        if cells.ndim != 2:
            raise DimensionError(f"mask '{self.name}' must be 2-D, got ndim={cells.ndim}")
        if cells.dtype != np.bool_:
            if not np.isin(cells, (0, 1)).all():
                raise DimensionError(f"mask '{self.name}' contains values other than 0/1")
            cells = cells.astype(bool)
        cells.setflags(write=False)
        object.__setattr__(self, "cells", cells)

    @property
    def cell_count(self) -> int:
        return int(self.cells.sum())

    def issubset(self, other: "RegionMask") -> bool:
        return bool((~other.cells[self.cells]).sum() == 0)

    def area(self, grid: GridSpec) -> float:
        self._check_grid(grid)
        return self.cell_count * grid.cell_area

    def _check_grid(self, grid: GridSpec):
        if self.cells.shape != grid.shape:
            raise DimensionError(
                f"mask '{self.name}' has shape {self.cells.shape}, grid expects {grid.shape}"
            )


def union_mask(masks) -> RegionMask:
    """Union of several region masks (the district covered by data)."""
    masks = list(masks)
    if not masks:
        raise DegenerateRegionError("cannot form the union of zero masks")
    cells = np.zeros_like(masks[0].cells, dtype=bool)
    for m in masks:
        if m.cells.shape != cells.shape:
            raise DimensionError(f"mask '{m.name}' shape {m.cells.shape} differs from {cells.shape}")
        cells |= m.cells
    return RegionMask("district", cells)


@functools.lru_cache(maxsize=16)
def neumann_eigenbasis(n: int, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form eigenpairs of the 1-D Neumann second difference, the definition of L.

    L = Dyy (x) I + I (x) Dxx is the five-point Laplacian with homogeneous
    Neumann (zero normal flux) boundaries closed by mirrored ghost nodes: the
    ghost value outside an edge equals the boundary node's own value, so e.g.
    at the north edge

        (u[k-1, j] - 2 u[k, j] + u_ghost) / hy**2  ->  (u[k-1, j] - u[k, j]) / hy**2.

    With this closure L is symmetric with zero row and column sums, which is
    what makes the Crank-Nicolson scheme conserve the integral of a diffused
    field exactly (up to round-off).  The closure also makes the 1-D second
    difference (diagonal -1, -2, ..., -2, -1 and off-diagonals 1, over h^2)
    the matrix that the DCT-II basis diagonalizes (Strang, SIAM Review 41(1),
    1999): it equals
    ``Q @ diag(lam) @ Q.T`` with the orthonormal columns
    ``Q[j, k] ∝ cos(pi k (j + 1/2) / n)`` and ``lam[k] = -4 sin^2(pi k / 2n) / h^2``.
    ``lam[0] = 0`` belongs to the constant vector.  The pair depends on the
    axis alone, so it is cached per (n, h) and returned read-only.
    """
    k = np.arange(n)
    Q = np.cos(np.pi * np.outer(k + 0.5, k) / n) * np.sqrt(2.0 / n)
    Q[:, 0] = 1.0 / np.sqrt(n)
    lam = -4.0 * np.sin(0.5 * np.pi * k / n) ** 2 / h ** 2
    Q.setflags(write=False)
    lam.setflags(write=False)
    # views of read-only arrays cannot be made writeable again
    return Q.view(), lam.view()


def _to_eigen(fields: np.ndarray, basis: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Coefficients ``Fy^T F Fx`` of each field F in a stack (..., ny * nx), as (k, ny * nx)."""
    fy, fx = basis
    ny, nx = fy.shape[1], fx.shape[1]
    # rows of all fields go through the x-transform in one product
    coef = fields.reshape(-1, nx) @ fx
    return (fy.T @ coef.reshape(-1, ny, nx)).reshape(-1, ny * nx)


def _from_eigen(coef: np.ndarray, basis: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Fields ``By C Bx^T`` of coefficient stacks C (k, ny * nx), as (k, ny * nx)."""
    by, bx = basis
    ny, nx = by.shape[1], bx.shape[1]
    out = (by @ coef.reshape(-1, ny, nx)).reshape(-1, nx) @ bx.T
    return out.reshape(len(coef), -1)


def region_total(u: np.ndarray, mask: RegionMask, grid: GridSpec) -> float | np.ndarray:
    """Integral of a cell field over one region: sum of covered cells times hx*hy.

    A stack (..., ny, nx) gives one total per field, bit-identical to a call per
    field, since the covered cells are gathered contiguously before the sum.
    """
    mask._check_grid(grid)
    if u.shape[-2:] != grid.shape:
        raise DimensionError(f"field shape {u.shape} does not match grid {grid.shape}")
    cells = np.flatnonzero(mask.cells)
    total = np.take(u.reshape(*u.shape[:-2], -1), cells, axis=-1).sum(axis=-1) * grid.cell_area
    return float(total) if u.ndim == 2 else total


def distribute_uniform(total: float, mask: RegionMask, grid: GridSpec) -> np.ndarray:
    """Spread a non-negative total uniformly over a region's cells.

    Returns the density field whose :func:`region_total` equals ``total``.
    """
    mask._check_grid(grid)
    if total < 0.0:
        raise ParameterError(f"cannot distribute a negative total ({total}) over '{mask.name}'")
    count = mask.cell_count
    if count == 0:
        raise DegenerateRegionError(f"region '{mask.name}' covers no cells")
    out = np.zeros(grid.shape)
    out[mask.cells] = total / (count * grid.cell_area)
    return out
