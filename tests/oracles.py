"""Matrix forms of the grid operators, kept as test oracles.

The package applies the Neumann Laplacian by its stencil
(:func:`epidiffuse.grid.laplacian`) and inverts the Crank-Nicolson matrix in
its cosine eigenbasis; neither needs the matrices built here.
"""

import numpy as np
import scipy.sparse as sp


def second_difference_1d(n: int, h: float) -> sp.csr_matrix:
    """1-D Neumann second difference: diagonal -1, -2, ..., -2, -1 over h^2."""
    main = np.full(n, -2.0)
    main[0] = main[-1] = -1.0
    off = np.ones(n - 1)
    return sp.diags([off, main, off], [-1, 0, 1], format="csr") / h ** 2


def laplacian_operator(grid) -> sp.csr_matrix:
    """Sparse matrix form of the Laplacian acting on C-order flattened fields."""
    dxx = second_difference_1d(grid.nx, grid.hx)
    dyy = second_difference_1d(grid.ny, grid.hy)
    ix = sp.identity(grid.nx, format="csr")
    iy = sp.identity(grid.ny, format="csr")
    return (sp.kron(iy, dxx) + sp.kron(dyy, ix)).tocsr()


def dense_operators(grid, kappa: float, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """Dense Crank-Nicolson A = I - (tau kappa / 2) L and B = I + (tau kappa / 2) L."""
    L = laplacian_operator(grid).toarray()
    eye = np.eye(grid.n_cells)
    return eye - 0.5 * tau * kappa * L, eye + 0.5 * tau * kappa * L
