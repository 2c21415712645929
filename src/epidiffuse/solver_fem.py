"""Bilinear finite-element diffusion with Strang splitting, for cross-checks.

The grid cells double as Q1 quadrilateral elements with the four shape
functions per cell ordered

    phi_1 -> (x_left,  y_bottom),   phi_2 -> (x_left,  y_top),
    phi_3 -> (x_right, y_bottom),   phi_4 -> (x_right, y_top),

i.e. x-major, y fastest, which makes both element matrices Kronecker products
of the 1-D linear-element matrices.  Products of bilinear functions are
integrated exactly, so on a unit cell the element mass matrix is
(1/36) [[4,2,2,1],[2,4,1,2],[2,1,4,2],[1,2,2,4]].

One time step splits symmetrically: half-step diffusion, full-step reaction,
half-step diffusion.  Both subflows use the classical 4-stage Runge-Kutta
scheme; the diffusion half-steps substep internally so that
kappa * lambda_max * dt stays within the RK4 stability interval.  M^{-1} K
is the Kronecker sum of the 1-D operators, whose largest eigenvalue 12/h^2
belongs to the checkerboard mode, so lambda_max = 12/hx^2 + 12/hy^2.  The weak
form is the standard homogeneous-Neumann one (no boundary term), hence the
constant vector spans the stiffness null space and 1^T M u is conserved
exactly under pure diffusion.

This backend exists to cross-validate the finite-difference solver; the
adjoint machinery runs only on solver_cn.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import StabilityError
from .grid import GridSpec
from .models import ModelKind, RateSchedule, reaction
from .solver_cn import NEGATIVITY_TOL, Trajectory, _check_step, _drive

#: Upper bound for kappa * lambda_max * dt in one RK4 diffusion substep.
RK4_STABILITY_LIMIT = 2.5


def _mass_1d(h: float) -> np.ndarray:
    return (h / 6.0) * np.array([[2.0, 1.0], [1.0, 2.0]])


def _stiffness_1d(h: float) -> np.ndarray:
    return (1.0 / h) * np.array([[1.0, -1.0], [-1.0, 1.0]])


def element_mass(hx: float, hy: float) -> np.ndarray:
    """Exact 4x4 mass matrix of one hx-by-hy cell."""
    return np.kron(_mass_1d(hx), _mass_1d(hy))


def element_stiffness(hx: float, hy: float) -> np.ndarray:
    """Exact 4x4 stiffness matrix of one hx-by-hy cell."""
    return np.kron(_stiffness_1d(hx), _mass_1d(hy)) + np.kron(_mass_1d(hx), _stiffness_1d(hy))


@dataclass
class FemAssembly:
    """Global mass/stiffness pair with the mass factorization and lambda_max."""

    grid: GridSpec
    mass: sp.csr_matrix
    stiffness: sp.csr_matrix
    lam_max: float

    def __post_init__(self):
        self._mass_lu = splu(self.mass.tocsc())

    def mass_solve(self, rhs: np.ndarray) -> np.ndarray:
        return self._mass_lu.solve(rhs)


def assemble_fem(grid: GridSpec) -> FemAssembly:
    """Assemble global Q1 mass and stiffness matrices on the full window."""
    me = element_mass(grid.hx, grid.hy)
    ke = element_stiffness(grid.hx, grid.hy)
    nx, ny = grid.nx, grid.ny
    jj, ii = np.meshgrid(np.arange(nx - 1), np.arange(ny - 1))
    base = (ii * nx + jj).ravel()
    # global node indices per element, in the phi_1..phi_4 order above
    gidx = np.stack([base, base + nx, base + 1, base + nx + 1], axis=1)
    rows = np.repeat(gidx, 4, axis=1).ravel()
    cols = np.tile(gidx, (1, 4)).ravel()
    n = grid.n_cells
    n_elem = len(base)
    M = sp.coo_matrix((np.tile(me.ravel(), n_elem), (rows, cols)), shape=(n, n)).tocsr()
    K = sp.coo_matrix((np.tile(ke.ravel(), n_elem), (rows, cols)), shape=(n, n)).tocsr()
    return FemAssembly(grid, M, K, 12.0 / grid.hx ** 2 + 12.0 / grid.hy ** 2)


def _diffuse(asm: FemAssembly, u: np.ndarray, kappa: float, dt_total: float) -> np.ndarray:
    """RK4 subflow of M du/dt = -kappa K u over dt_total; u is (m, n_cells)."""
    if kappa == 0.0 or dt_total == 0.0:
        return u
    n_sub = max(1, int(np.ceil(kappa * asm.lam_max * dt_total / RK4_STABILITY_LIMIT)))
    dt = dt_total / n_sub
    v = u.T  # (n_cells, m), multi-RHS solves
    K = asm.stiffness

    def rhs(w):
        return -kappa * asm.mass_solve(K @ w)

    for _ in range(n_sub):
        k1 = rhs(v)
        k2 = rhs(v + 0.5 * dt * k1)
        k3 = rhs(v + 0.5 * dt * k2)
        k4 = rhs(v + dt * k3)
        v = v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return v.T


def _react(
    u: np.ndarray, model: ModelKind, schedule: RateSchedule, t: float, tau: float
) -> np.ndarray:
    """Classical RK4 on the pointwise reaction ODE over [t, t + tau]."""
    k1 = reaction(model, u, t, schedule)
    k2 = reaction(model, u + 0.5 * tau * k1, t + 0.5 * tau, schedule)
    k3 = reaction(model, u + 0.5 * tau * k2, t + 0.5 * tau, schedule)
    k4 = reaction(model, u + tau * k3, t + tau, schedule)
    return u + (tau / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


_DIFFUSION_UNDERSHOOT = (
    "the consistent-mass Q1 diffusion undershoots where the fields jump, at any tau; "
    "use the cn backend (--backend cn)"
)


def _check_sign(u: np.ndarray, t: float, remedy: str) -> float:
    low = float(u.min())
    if low < -NEGATIVITY_TOL:
        raise StabilityError(f"state went negative ({low:.3e}) at t={t:.4f}; {remedy}")
    return low


def _strang_advance(
    asm: FemAssembly,
    u: np.ndarray,
    model: ModelKind,
    schedule: RateSchedule,
    kappa: float,
    tau: float,
    t: float,
) -> np.ndarray:
    """One split step on the state u of shape (m, n_cells).

    u may carry the population as one extra row after the m compartments;
    it diffuses over the whole step in one subflow and is not guarded.
    """
    m = model.n_compartments
    # The diffusion half-steps are checked on their own: their undershoot
    # does not shrink with tau, so "use a smaller tau" would be wrong advice.
    q = _diffuse(asm, u[:m], kappa, 0.5 * tau)
    _check_sign(q, t + 0.5 * tau, _DIFFUSION_UNDERSHOOT)
    q = _react(q, model, schedule, t, tau)
    _check_sign(q, t + tau, "use a smaller tau")
    q = _diffuse(asm, q, kappa, 0.5 * tau)
    low = _check_sign(q, t + tau, _DIFFUSION_UNDERSHOOT)
    if low < 0.0:
        np.clip(q, 0.0, None, out=q)
    if len(u) == m:
        return q
    return np.vstack([q, _diffuse(asm, u[m:], kappa, tau)])


def run_fem_from_state(
    grid: GridSpec,
    u0: np.ndarray,
    model: ModelKind,
    schedule: RateSchedule,
    kappa: float,
    t_end: float,
    tau: float,
    population: np.ndarray | None = None,
    store_every: int = 1,
) -> Trajectory:
    """Split-scheme counterpart of solver_cn.run_from_state."""
    _check_step(kappa, tau)
    asm = assemble_fem(grid)

    def advance(u: np.ndarray, t: float) -> np.ndarray:
        return _strang_advance(asm, u, model, schedule, kappa, tau, t)

    return _drive(grid, u0, model, t_end, tau, population, store_every, advance,
                  backend="fem-split")
