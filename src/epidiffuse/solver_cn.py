"""Semi-implicit Crank-Nicolson time stepping for the reaction-diffusion system.

Each compartment field q advances through

    A q_{n+1} = B q_n + tau * f(q_n, t_n),
    A = I - (tau kappa / 2) L,   B = I + (tau kappa / 2) L,

with L the Neumann Laplacian from :mod:`epidiffuse.grid`: diffusion is treated
by the trapezoidal rule, the nonlinear reaction explicitly.  B is applied as
a sparse product.  A is never factorized: L = Dyy (x) I + I (x) Dxx is
diagonalized by the cosine (DCT-II) basis Q_y (x) Q_x in closed form, so

    A^{-1} R = Q_y (g o (Q_y^T R Q_x)) Q_x^T,   g = 1 / (1 - (tau kappa / 2)(lam_y + lam_x)),

i.e. two small dense transforms per axis and a pointwise gain, applied to all
compartments (and the population) of a step at once.  Only g depends on
kappa and tau.

Because L has zero column sums, A + B = 2 I and the constant mode has gain 1,
the scheme conserves the integral of a purely diffused field (the population
N) exactly up to round-off, regardless of tau.

An optional correction adds the second-order Taylor term
(tau^2 / 2) * df/du [kappa L q + f] to the right-hand side, restoring formal
second order for the coupled system.  It is off by default; the plain scheme
is the reference behaviour and the backward sweep mirrors it exactly (the
adjoint refuses corrected problems).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import DimensionError, ParameterError, SequencingError, StabilityError
from .grid import (
    FieldSet,
    GridSpec,
    RegionMask,
    laplacian_operator,
    neumann_eigenbasis,
    region_total,
)
from .models import (
    ModelKind,
    ParameterVector,
    RateSchedule,
    conserved_sum_rate,
    initial_fractions,
    reaction,
    reaction_jacobian,
)

#: Absolute tolerance below zero before a step is declared unstable.
NEGATIVITY_TOL = 1e-10

DEFAULT_MAX_TAU = 1.0


@dataclass
class CNWorkspace:
    """Step operators for one (grid, kappa, tau) combination.

    ``B`` is sparse; A^{-1} is the pointwise ``gain`` in the eigenbasis
    ``Qy`` (x) ``Qx`` of L.  All four are None when kappa == 0.
    """

    grid: GridSpec
    kappa: float
    tau: float
    L: sp.csr_matrix
    B: sp.csr_matrix | None
    Qy: np.ndarray | None
    Qx: np.ndarray | None
    gain: np.ndarray | None

    @property
    def trivial(self) -> bool:
        """True when kappa == 0, i.e. A = B = I."""
        return self.gain is None

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Apply A^{-1}; rhs may be (n_cells,) or (n_cells, k)."""
        if self.trivial:
            return rhs
        ny, nx = self.grid.shape
        # rows of all k fields go through the x-transform in one product
        coef = rhs.T.reshape(-1, nx) @ self.Qx
        coef = self.Qy.T @ coef.reshape(-1, ny, nx)
        coef *= self.gain
        out = (self.Qy @ coef).reshape(-1, nx) @ self.Qx.T
        return out.reshape(rhs.shape[::-1]).T

    def apply_B(self, x: np.ndarray) -> np.ndarray:
        if self.trivial:
            return x.copy()
        return self.B @ x


def assemble(grid: GridSpec, kappa: float, tau: float, max_tau: float = DEFAULT_MAX_TAU) -> CNWorkspace:
    """Build the Crank-Nicolson operators: sparse B and the eigenbasis of A.

    Raises ParameterError for kappa < 0 or tau outside (0, max_tau].
    """
    if kappa < 0.0:
        raise ParameterError(f"kappa must be non-negative, got {kappa}")
    if not (0.0 < tau <= max_tau):
        raise ParameterError(f"tau must lie in (0, {max_tau}], got {tau}")
    L = laplacian_operator(grid)
    if kappa == 0.0:
        return CNWorkspace(grid, kappa, tau, L, None, None, None, None)
    c = 0.5 * tau * kappa
    B = (sp.identity(grid.n_cells, format="csr") + c * L).tocsr()
    Qy, lam_y = neumann_eigenbasis(grid.ny, grid.hy)
    Qx, lam_x = neumann_eigenbasis(grid.nx, grid.hx)
    gain = 1.0 / (1.0 - c * (lam_y[:, None] + lam_x[None, :]))
    return CNWorkspace(grid, kappa, tau, L, B, Qy, Qx, gain)


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
        rate = f if ws.trivial else ws.kappa * (ws.L @ q.T).T + f
        jac = reaction_jacobian(model, q, t, schedule)
        incr = incr + (0.5 * ws.tau ** 2) * np.einsum("ijc,jc->ic", jac, rate)
    rhs = ws.apply_B(u.T)
    rhs[:, :m] += incr.T
    new = ws.solve(rhs).T
    low = float(new[:m].min())
    if low < -NEGATIVITY_TOL:
        raise StabilityError(
            f"state went negative ({low:.3e}) at t={t + ws.tau:.4f}; use a smaller tau"
        )
    if low < 0.0:
        np.clip(new[:m], 0.0, None, out=new[:m])
    return new


def step_forward(
    ws: CNWorkspace,
    fields: FieldSet,
    model: ModelKind,
    schedule: RateSchedule,
    corrected: bool = False,
) -> FieldSet:
    """Advance a FieldSet by one step of length ws.tau."""
    fields.validate(ws.grid)
    shape = fields.data.shape
    u = fields.data.reshape(shape[0], -1)
    new = _advance(ws, u, model, schedule, fields.time, corrected=corrected)
    return FieldSet(fields.names, new.reshape(shape), fields.time + ws.tau)


def step_backward(ws: CNWorkspace, z: np.ndarray, source: np.ndarray) -> np.ndarray:
    """One backward sweep step: solve A z_prev = B z + tau * source.

    The same A and B as in the forward step appear; z and source are flattened
    states of shape (m, n_cells).  No positivity is enforced, adjoint values
    may carry either sign.
    """
    if z.shape != source.shape:
        raise DimensionError(f"z shape {z.shape} differs from source shape {source.shape}")
    rhs = ws.apply_B(z.T) + ws.tau * source.T
    return ws.solve(rhs).T


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
    backend: str = "cn"
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

    def state_at_day(self, day: int) -> np.ndarray:
        idx = self.daily_indices
        pos = np.searchsorted(self.days, day)
        if pos >= len(idx) or self.days[pos] != day:
            raise SequencingError(f"day {day} not stored in trajectory")
        return self.states[idx[pos]]

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
    max_tau: float = DEFAULT_MAX_TAU,
) -> Trajectory:
    """Integrate from an explicit initial state; the workhorse behind run_forward."""
    if u0.shape != (model.n_compartments,) + grid.shape:
        raise DimensionError(
            f"u0 shape {u0.shape} does not match ({model.n_compartments},) + {grid.shape}"
        )
    steps = _resolve_steps(t_end, tau)
    if store_every < 1 or steps % store_every != 0:
        raise ParameterError(f"store_every={store_every} must divide the {steps} steps")
    ws = assemble(grid, kappa, tau, max_tau=max_tau)

    m = model.n_compartments
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
        u = _advance(ws, u, model, schedule, n * tau, corrected=corrected)
        if (n + 1) % store_every == 0:
            store((n + 1) // store_every, (n + 1) * tau)

    return Trajectory(grid, model, tau, store_every, times, states, pops)


def run_forward(
    grid: GridSpec,
    masks: dict[str, RegionMask],
    params: ParameterVector,
    model: ModelKind,
    t_end: float,
    tau: float,
    population: np.ndarray,
    store_every: int = 1,
    evolve_population: bool = True,
    corrected: bool = False,
    max_tau: float = DEFAULT_MAX_TAU,
) -> Trajectory:
    """Full forward run: build u0 from the parameters, then integrate to t_end.

    The population density diffuses with the same kappa as the epidemic
    fields (one extra right-hand side per step); pass
    ``evolve_population=False`` to skip it when only fractions are needed.
    """
    u0 = initial_fractions(model, grid, masks, params, population)
    return run_from_state(
        grid,
        u0,
        model,
        params.schedule,
        params.kappa,
        t_end,
        tau,
        population=population if evolve_population else None,
        store_every=store_every,
        corrected=corrected,
        max_tau=max_tau,
    )


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
    taus: list[float] | None = None,
    corrected: bool = False,
    ref_refine: int = 64,
) -> dict:
    """Observed temporal convergence order against a fine-step reference.

    ``kind`` selects the regime: "diffusion" switches the reaction off
    (kappa-only, where the trapezoidal rule is second order) and "coupled"
    runs the full model (first order with the default explicit reaction
    coupling).  Errors are L2 norms over all compartments at t_end; orders
    are log2 ratios of consecutive errors for tau halvings.
    """
    if kind not in ("diffusion", "coupled"):
        raise ParameterError(f"unknown study kind '{kind}'")
    if taus is None:
        taus = [0.4, 0.2, 0.1]
    taus = sorted(taus, reverse=True)
    for coarse, fine in zip(taus, taus[1:]):
        if abs(coarse / fine - 2.0) > 1e-9:
            raise ParameterError("taus must halve between consecutive entries")

    # Smooth initial bump from low cosine modes (zero normal derivative at
    # the window edges) with a positive floor, so the coarse steps stay clear
    # of the negativity guard.
    x = np.linspace(0.0, grid.Lx, grid.nx)
    y = np.linspace(0.0, grid.Ly, grid.ny)
    X, Y = np.meshgrid(x, y)
    cx = 0.5 * (1.0 + np.cos(np.pi * X / grid.Lx))
    cy = 0.5 * (1.0 + np.cos(np.pi * Y / grid.Ly))
    bump = 0.01 + 0.04 * cx * cy
    m = model.n_compartments
    u0 = np.zeros((m,) + grid.shape)
    if m == 1:
        u0[0] = bump
    else:
        u0[-1] = bump
        if m == 3:
            u0[1] = 0.5 * bump
        u0[0] = 1.0 - u0.sum(axis=0)

    if kind == "diffusion":
        def final_state(tau: float) -> np.ndarray:
            steps = _resolve_steps(t_end, tau)
            ws = assemble(grid, kappa, tau)
            q = u0.reshape(m, -1).copy()
            for _ in range(steps):
                q = ws.solve(ws.apply_B(q.T)).T
            return q
    else:
        def final_state(tau: float) -> np.ndarray:
            traj = run_from_state(
                grid, u0, model, schedule, kappa, t_end, tau,
                store_every=_resolve_steps(t_end, tau), corrected=corrected,
            )
            return traj.states[-1].reshape(m, -1)

    ref = final_state(taus[-1] / ref_refine)
    errors = []
    for tau in taus:
        diff = final_state(tau) - ref
        errors.append(float(np.sqrt((diff ** 2).sum() * grid.cell_area)))
    orders = [float(np.log2(e0 / e1)) for e0, e1 in zip(errors, errors[1:])]
    return {"kind": kind, "taus": list(taus), "errors": errors, "orders": orders}
