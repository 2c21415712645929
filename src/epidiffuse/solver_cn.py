"""Semi-implicit Crank-Nicolson time stepping for the reaction-diffusion system.

Each compartment field q advances through

    A q_{n+1} = B q_n + tau * f(q_n, t_n),
    A = I - (tau kappa / 2) L,   B = I + (tau kappa / 2) L,

with L the Neumann Laplacian from :mod:`epidiffuse.grid`: diffusion is treated
by the trapezoidal rule, the nonlinear reaction explicitly.  Neither A nor B
is ever formed.  L = Dyy (x) I + I (x) Dxx is diagonalized by the cosine
(DCT-II) basis Q_y (x) Q_x in closed form, so

    A^{-1} R = Q_y (g o (Q_y^T R Q_x)) Q_x^T,   g = 1 / (1 - (tau kappa / 2)(lam_y + lam_x)),

i.e. two small dense transforms per axis and a pointwise gain, applied to all
compartments (and the population) of a step at once.  Only g depends on
kappa and tau.  B is eliminated through A + B = 2 I:

    A^{-1}(B u + r) = A^{-1}(2 u + r) - u = A^{-1}(2 d + r) - d + s,

where s is each field's mean and d = u - s.  The second form uses that
A^{-1} maps a constant field to itself, so a step costs one A^{-1} solve and
nothing else.  The shift by s is there for round-off: without it the
transforms carry 2u, whose values sit near 2 for the susceptible fraction,
and over the 2560 steps of the fine reference run in the temporal
convergence check the rounding error pulls the observed order of pure
diffusion from 2.0 below its limit of 1.8.  With it the transforms see only
the deviation d, and each field's mean bypasses them.

Because L has zero column sums and the constant mode has gain 1, the scheme
conserves the integral of a purely diffused field (the population N) exactly
up to round-off, regardless of tau.

An optional correction adds the second-order Taylor term
(tau^2 / 2) * df/du [kappa L q + f] to the right-hand side, restoring formal
second order for the coupled system.  It is off by default; the plain scheme
is the reference behaviour and the backward sweep mirrors it exactly (the
adjoint refuses corrected problems).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DimensionError, ParameterError, SequencingError, StabilityError
from .grid import GridSpec, RegionMask, _eigen_apply, laplacian, neumann_eigenbasis, region_total
from .models import ModelKind, RateSchedule, reaction, reaction_jacobian, seed_state

#: Absolute tolerance below zero before a step is declared unstable.
NEGATIVITY_TOL = 1e-10

#: Longest admissible time step, in days.
MAX_TAU = 1.0

#: The halving time steps of temporal_refinement_study, in days.
STUDY_TAUS = (0.4, 0.2, 0.1)


@dataclass
class CNWorkspace:
    """Step operators for one (grid, kappa, tau) combination.

    A^{-1} is the pointwise ``gain`` in the eigenbasis ``Qy`` (x) ``Qx`` of L.
    All three are None when kappa == 0.  Fields are stacks of shape
    (..., n_cells), flattened in C order.
    """

    grid: GridSpec
    kappa: float
    tau: float
    Qy: np.ndarray | None
    Qx: np.ndarray | None
    gain: np.ndarray | None

    @property
    def trivial(self) -> bool:
        """True when kappa == 0, i.e. A = B = I."""
        return self.gain is None

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Apply A^{-1} to fields of shape (..., n_cells)."""
        if self.trivial:
            return rhs
        Q = (self.Qy, self.Qx)
        return _eigen_apply(rhs, Q, self.gain, Q)

    def step(self, u: np.ndarray, r: np.ndarray | None = None) -> np.ndarray:
        """One step A^{-1}(B u + r) for fields u of shape (k, n_cells).

        ``r`` may cover only the leading rows of u; the rows past it diffuse
        without a source.  Computed as A^{-1}(2 d + r) - d + s with s the
        field means and d = u - s (see the module docstring).
        """
        if self.trivial:
            out = u.copy()
            if r is not None:
                out[: len(r)] += r
            return out
        s = u.mean(axis=1, keepdims=True)
        d = u - s
        rhs = 2.0 * d
        if r is not None:
            rhs[: len(r)] += r
        out = self.solve(rhs)
        out -= d
        out += s
        return out


def _check_step(kappa: float, tau: float) -> None:
    """Raise ParameterError for kappa < 0 or tau outside (0, MAX_TAU]."""
    if kappa < 0.0:
        raise ParameterError(f"kappa must be non-negative, got {kappa}")
    if not (0.0 < tau <= MAX_TAU):
        raise ParameterError(f"tau must lie in (0, {MAX_TAU}], got {tau}")


def assemble(grid: GridSpec, kappa: float, tau: float) -> CNWorkspace:
    """Build the Crank-Nicolson step: the eigenbasis of L and the gain of A^{-1}.

    Raises ParameterError for kappa < 0 or tau outside (0, MAX_TAU].
    """
    _check_step(kappa, tau)
    if kappa == 0.0:
        return CNWorkspace(grid, kappa, tau, None, None, None)
    c = 0.5 * tau * kappa
    Qy, lam_y = neumann_eigenbasis(grid.ny, grid.hy)
    Qx, lam_x = neumann_eigenbasis(grid.nx, grid.hx)
    gain = 1.0 / (1.0 - c * (lam_y[:, None] + lam_x[None, :]))
    return CNWorkspace(grid, kappa, tau, Qy, Qx, gain)


def _check_sign(u: np.ndarray, t: float, remedy: str) -> float:
    """Return the minimum of u; raise StabilityError if it is NaN or below -NEGATIVITY_TOL."""
    low = float(u.min())
    if not low >= -NEGATIVITY_TOL:
        if np.isnan(low):
            raise StabilityError(f"state is not finite at t={t:.4f}")
        raise StabilityError(f"state went negative ({low:.3e}) at t={t:.4f}; {remedy}")
    return low


def _advance(
    ws: CNWorkspace,
    u: np.ndarray,
    model: ModelKind,
    schedule: RateSchedule,
    t: float,
    corrected: bool = False,
) -> np.ndarray:
    """One step on the flattened state u of shape (m, n_cells).

    u may carry one extra row after the m compartments: the population,
    which diffuses without reaction in the same solve and is not guarded.
    """
    m = model.n_compartments
    q = u[:m]
    f = reaction(model, q, t, schedule)
    incr = ws.tau * f
    if corrected:
        lap = laplacian(q.reshape((m,) + ws.grid.shape), ws.grid)
        rate = ws.kappa * lap.reshape(m, -1) + f
        jac = reaction_jacobian(model, q, t, schedule)
        incr = incr + (0.5 * ws.tau ** 2) * np.einsum("ijc,jc->ic", jac, rate)
    new = ws.step(u, incr)
    low = _check_sign(new[:m], t + ws.tau, "use a smaller tau")
    if low < 0.0:
        np.clip(new[:m], 0.0, None, out=new[:m])
    return new


def step_backward(ws: CNWorkspace, z: np.ndarray, source: np.ndarray) -> np.ndarray:
    """One backward sweep step: solve A z_prev = B z + tau * source.

    The same A and B as in the forward step appear; z and source are flattened
    states of shape (m, n_cells).  No positivity is enforced, adjoint values
    may carry either sign.
    """
    if z.shape != source.shape:
        raise DimensionError(f"z shape {z.shape} differs from source shape {source.shape}")
    return ws.step(z, ws.tau * source)


@dataclass
class Trajectory:
    """Stored forward solution: times, states and (optionally) population.

    ``states`` has shape (n_levels, m, ny, nx); ``population`` is
    (n_levels, ny, nx) or None when the population was held out of the run.
    """

    grid: GridSpec
    model: ModelKind
    tau: float
    store_every: int
    times: np.ndarray
    states: np.ndarray
    population: np.ndarray | None = None
    _daily: np.ndarray | None = field(default=None, repr=False)

    @property
    def n_levels(self) -> int:
        return len(self.times)

    @property
    def daily_indices(self) -> np.ndarray:
        """Indices of levels falling on whole days (t = 0, 1, 2, ...)."""
        if self._daily is None:
            days = np.rint(self.times)
            self._daily = np.flatnonzero(np.abs(self.times - days) <= 1e-7)
        return self._daily

    @property
    def days(self) -> np.ndarray:
        return np.rint(self.times[self.daily_indices]).astype(int)

    def mass(self) -> np.ndarray:
        """Integral of the population over the window, per stored level."""
        if self.population is None:
            raise SequencingError("trajectory was run without population evolution")
        return self.population.sum(axis=(1, 2)) * self.grid.cell_area

    def infected_total(self, mask: RegionMask) -> np.ndarray:
        """Integral of the infected fraction over one region, per level."""
        idx = self.model.infected_index
        return np.array(
            [region_total(self.states[k, idx], mask, self.grid) for k in range(self.n_levels)]
        )


def _resolve_steps(t_end: float, tau: float) -> int:
    steps = t_end / tau
    if abs(steps - round(steps)) > 1e-8:
        raise ParameterError(f"tau={tau} does not divide t_end={t_end} into whole steps")
    return int(round(steps))


def _drive(
    grid: GridSpec,
    u0: np.ndarray,
    model: ModelKind,
    t_end: float,
    tau: float,
    population: np.ndarray | None,
    store_every: int,
    advance: Callable[[np.ndarray, float], np.ndarray],
) -> Trajectory:
    """The time-stepping loop behind every forward run.

    The state is u0 flattened to (m, n_cells), with the population stacked
    as row m when it is given.  ``advance(u, t)`` returns the state one step
    of tau after t; every ``store_every``-th level is kept.
    """
    m = model.n_compartments
    if u0.shape != (m,) + grid.shape:
        raise DimensionError(f"u0 shape {u0.shape} does not match ({m},) + {grid.shape}")
    steps = _resolve_steps(t_end, tau)
    if store_every < 1 or steps % store_every != 0:
        raise ParameterError(f"store_every={store_every} must divide the {steps} steps")
    u = u0.reshape(m, -1).astype(float)
    evolve_pop = population is not None
    if evolve_pop:
        if population.shape != grid.shape:
            raise DimensionError(
                f"population shape {population.shape} does not match grid {grid.shape}"
            )
        u = np.vstack([u, population.reshape(1, -1)])

    n_levels = steps // store_every + 1
    times = np.empty(n_levels)
    states = np.empty((n_levels, m) + grid.shape)
    pops = np.empty((n_levels,) + grid.shape) if evolve_pop else None

    def store(k: int, t: float):
        times[k] = t
        states[k] = u[:m].reshape((m,) + grid.shape)
        if evolve_pop:
            pops[k] = u[m].reshape(grid.shape)

    store(0, 0.0)
    for n in range(steps):
        u = advance(u, n * tau)
        if (n + 1) % store_every == 0:
            store((n + 1) // store_every, (n + 1) * tau)

    return Trajectory(grid, model, tau, store_every, times, states, pops)


def run_from_state(
    grid: GridSpec,
    u0: np.ndarray,
    model: ModelKind,
    schedule: RateSchedule,
    kappa: float,
    t_end: float,
    tau: float,
    population: np.ndarray | None = None,
    store_every: int = 1,
    corrected: bool = False,
) -> Trajectory:
    """Integrate from an explicit initial state with the Crank-Nicolson step.

    The population, when given, diffuses with the same kappa in the same
    solve as the compartments.
    """
    ws = assemble(grid, kappa, tau)

    def advance(u: np.ndarray, t: float) -> np.ndarray:
        return _advance(ws, u, model, schedule, t, corrected)

    return _drive(grid, u0, model, t_end, tau, population, store_every, advance)


def conservation_drift(traj: Trajectory) -> float:
    """Max relative drift of the population integral over the run."""
    mass = traj.mass()
    return float(np.abs(mass - mass[0]).max() / abs(mass[0]))


def temporal_refinement_study(
    kind: str,
    grid: GridSpec,
    model: ModelKind,
    schedule: RateSchedule,
    kappa: float,
    t_end: float,
    corrected: bool = False,
) -> dict:
    """Observed temporal convergence order against a fine-step reference.

    ``kind`` selects the regime: "diffusion" switches the reaction off
    (kappa-only, where the trapezoidal rule is second order) and "coupled"
    runs the full model (first order with the default explicit reaction
    coupling).  The steps are STUDY_TAUS and the reference runs at a step
    64 times finer than the last.  Errors are L2 norms over all compartments
    at t_end; orders are log2 ratios of consecutive errors.
    """
    if kind not in ("diffusion", "coupled"):
        raise ParameterError(f"unknown study kind '{kind}'")

    # Smooth initial bump from low cosine modes (zero normal derivative at
    # the window edges) with a positive floor, so the coarse steps stay clear
    # of the negativity guard.
    x = np.linspace(0.0, grid.Lx, grid.nx)
    y = np.linspace(0.0, grid.Ly, grid.ny)
    X, Y = np.meshgrid(x, y)
    cx = 0.5 * (1.0 + np.cos(np.pi * X / grid.Lx))
    cy = 0.5 * (1.0 + np.cos(np.pi * Y / grid.Ly))
    u0 = seed_state(model, 0.01 + 0.04 * cx * cy)

    def final_state(tau: float) -> np.ndarray:
        steps = _resolve_steps(t_end, tau)
        if kind == "diffusion":
            ws = assemble(grid, kappa, tau)
            traj = _drive(grid, u0, model, t_end, tau, None, steps, lambda u, t: ws.step(u))
        else:
            traj = run_from_state(
                grid, u0, model, schedule, kappa, t_end, tau, store_every=steps, corrected=corrected
            )
        return traj.states[-1].reshape(model.n_compartments, -1)

    ref = final_state(STUDY_TAUS[-1] / 64)
    errors = []
    for tau in STUDY_TAUS:
        diff = final_state(tau) - ref
        errors.append(float(np.sqrt((diff ** 2).sum() * grid.cell_area)))
    orders = [float(np.log2(e0 / e1)) for e0, e1 in zip(errors, errors[1:])]
    return {"kind": kind, "taus": list(STUDY_TAUS), "errors": errors, "orders": orders}
