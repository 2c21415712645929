"""Bilinear finite-element diffusion with Strang splitting, for cross-checks.

Q1 (bilinear) elements on the grid cells with the homogeneous-Neumann weak
form (no boundary term).  On a tensor grid the global matrices factor into
the 1-D linear-element matrices of each axis (Lynch, Rice & Thomas, Numer.
Math. 6, 1964): M = M_y (x) M_x and K = K_y (x) M_x + M_y (x) K_x.  For n
nodes at spacing h the 1-D pair K_1 V = M_1 V diag(lam), V^T M_1 V = I is in
closed form, with theta_k = pi k / (n - 1):

    V[j, k] = cos(j theta_k) / sqrt((h / 6)(4 + 2 cos theta_k) w_k),
    lam_k = 6 (1 - cos theta_k) / (h^2 (2 + cos theta_k)),

where w_k = n - 1 for k in {0, n - 1} and (n - 1) / 2 otherwise.  So the
diffusion flow of M du/dt = -kappa K u over a time t is exact and has the
shape of the Crank-Nicolson solve, a transform, a pointwise scale and a
transform back, on each field U of shape (ny, nx):

    U(t) = V_y (exp(-kappa t (lam_y + lam_x)) o ((M_y V_y)^T U (M_x V_x))) V_x^T.

lam_0 = 0 belongs to the constant vector, so the flow conserves 1^T M u up
to round-off, and the largest eigenvalue of M^{-1} K is 12/hx^2 + 12/hy^2.

One time step splits symmetrically: half-step diffusion, full-step reaction
by the classical 4-stage Runge-Kutta scheme on models.reaction_split's
f = K u + e beta(t) u_S u_I, half-step diffusion.  This backend exists to
cross-validate the finite-difference solver; the adjoint machinery runs only
on solver_cn.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .grid import GridSpec, _from_eigen, _to_eigen
from .models import ModelKind, RateSchedule, beta_at, reaction_split, transmission_bilinear
from .solver_cn import Trajectory, _check_sign, _check_step, _drive


def _q1_eigenbasis(n: int, h: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """V, M_1 V and lam of the 1-D linear-element pair (see the module docstring)."""
    k = np.arange(n)
    theta = np.pi * k / (n - 1)
    c = np.cos(theta)
    w = np.full(n, 0.5 * (n - 1))
    w[[0, -1]] = n - 1
    mu = (h / 6.0) * (4.0 + 2.0 * c)
    V = np.cos(np.pi * np.outer(k, k) / (n - 1)) / np.sqrt(mu * w)
    # M_1 maps cos(j theta_k) to mu_k cos(j theta_k), halved in the end rows
    MV = V * mu
    MV[[0, -1]] *= 0.5
    # 6 (1 - cos theta) as 12 sin^2(theta / 2), which keeps its accuracy at small theta
    lam = 12.0 * np.sin(0.5 * theta) ** 2 / (h ** 2 * (2.0 + c))
    return V, MV, lam


@dataclass
class FemAssembly:
    """Forward bases (M_y V_y, M_x V_x), back bases (V_y, V_x) and lam_y + lam_x (ny, nx)."""

    fwd: tuple[np.ndarray, np.ndarray]
    back: tuple[np.ndarray, np.ndarray]
    lam: np.ndarray


def assemble_fem(grid: GridSpec) -> FemAssembly:
    """The eigenpairs of the global Q1 mass and stiffness matrices on the full window."""
    Vy, MVy, lam_y = _q1_eigenbasis(grid.ny, grid.hy)
    Vx, MVx, lam_x = _q1_eigenbasis(grid.nx, grid.hx)
    return FemAssembly((MVy, MVx), (Vy, Vx), lam_y[:, None] + lam_x[None, :])


def _diffuse(asm: FemAssembly, u: np.ndarray, kappa: float, dt_total: float) -> np.ndarray:
    """Exact flow of M du/dt = -kappa K u over dt_total; u is (k, n_cells), left as is."""
    if kappa == 0.0 or dt_total == 0.0:
        return u.copy()
    coef = _to_eigen(u, asm.fwd)
    coef *= np.exp(-kappa * dt_total * asm.lam).reshape(-1)
    return _from_eigen(coef, asm.back)


def _react(u: np.ndarray, K: np.ndarray, e: np.ndarray, model: ModelKind,
           schedule: RateSchedule, t: float, tau: float) -> np.ndarray:
    """Classical RK4 on the pointwise reaction ODE over [t, t + tau], from the split (K, e)."""

    def f(v: np.ndarray, s: float) -> np.ndarray:
        return np.tensordot(K, v, axes=1) + np.multiply.outer(
            e, beta_at(schedule, s) * transmission_bilinear(model, v))

    k1 = f(u, t)
    k2 = f(u + 0.5 * tau * k1, t + 0.5 * tau)
    k3 = f(u + 0.5 * tau * k2, t + 0.5 * tau)
    k4 = f(u + tau * k3, t + tau)
    return u + (tau / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


_DIFFUSION_UNDERSHOOT = (
    "the consistent-mass Q1 diffusion undershoots where the fields jump, at any tau; "
    "use the cn backend (--backend cn)"
)


def run_fem_from_state(
    grid: GridSpec,
    u0: np.ndarray,
    model: ModelKind,
    schedule: RateSchedule,
    kappa: float,
    t_end: float,
    tau: float,
    every_level: bool = False,
    on_day: Callable[[int, np.ndarray], Any] | None = None,
) -> Trajectory:
    """Split-scheme counterpart of solver_cn.run_from_state."""
    _check_step(kappa, tau)
    asm = assemble_fem(grid)
    K, e = reaction_split(model, schedule)

    def advance(u: np.ndarray, t: float) -> np.ndarray:
        # The diffusion half-steps are checked on their own: their undershoot
        # does not shrink with tau, so "use a smaller tau" would be wrong advice.
        # _drive checks the read-out, after the second, with the same advice.
        q = _diffuse(asm, u, kappa, 0.5 * tau)
        _check_sign(q, t + 0.5 * tau, _DIFFUSION_UNDERSHOOT)
        q = _react(q, K, e, model, schedule, t, tau)
        _check_sign(q, t + tau, "use a smaller tau")
        return _diffuse(asm, q, kappa, 0.5 * tau)

    return _drive(grid, u0, model, t_end, tau, every_level, advance, _DIFFUSION_UNDERSHOOT, on_day)
