"""Semi-implicit Crank-Nicolson time stepping for the reaction-diffusion system.

Each compartment field q advances through

    A q_{n+1} = B q_n + tau * f(q_n, t_n),
    A = I - c L,   B = I + c L,   c = tau kappa / 2,

with L the Neumann Laplacian: diffusion is treated by the trapezoidal rule,
the nonlinear reaction explicitly.  Neither A, B nor L is ever formed.
L = Dyy (x) I + I (x) Dxx is defined by its eigenpairs in the cosine (DCT-II)
basis Q_y (x) Q_x (``grid.neumann_eigenbasis``), so in that basis A^{-1} is the
pointwise gain g = 1 / (1 - c (lam_y + lam_x)) and, through A + B = 2 I,
B is b = 2 - 1/g.  Only g depends on kappa and tau.

The forward run carries the coefficients U^ = Q_y^T U Q_x of its state from
step to step.  The reaction splits as f(u) = K u + e beta(t) phi(u)
(``models.reaction_split``): K and e are constant, so K commutes with L,
and only the transmission force phi = u_S u_I needs physical space.  A step

    phi_n = beta(t_n) phi(u_n)                        on the read-out u_n,
    U^_{n+1} = g o (b o U^_n + tau (K U^_n + e (x) phi^_n)),
    u_{n+1} = Q_y U^_{n+1} Q_x^T                      (the read-out),

is the recursion above in the eigenbasis.  It transforms one field into the
basis (the force) and back the rows the next step reads, u_S and u_I (u in
SIS): 3 field transforms per SEIR step, 3 for SIR and 2 for SIS.  All m rows
come back by one call, E a 4th, at the whole days and where the guard below
needs E, and at a last level off a whole day E comes back alone: so S and I
of a level never depend on where the run ends.
The population diffuses with the same kappa but no run steps it: nothing
forces it, so ``Problem.population_at`` forms it with ``_unforced`` at the
levels it is read alone, scaling its coefficients by (b o g)^d between
levels d steps apart.
The constant mode has gain 1, so its integral is conserved exactly up to
round-off.  Modes with c |lam| near 1 fall below the smallest normal double
(2.2e-308) within a few dozen steps, and a product with a subnormal operand
is many times slower.  Each read-out first sets those modes to zero, which
cannot move a read-out bit: their products lie below 2.2e-308 and the
read-out's sums are at population scale.

``_drive``, the one time-stepping loop, checks each read-out with the
negativity guard and clips its round-off negatives (down to -NEGATIVITY_TOL)
to zero before it stores, steps from or hands on the read-out.  The carried
coefficients are not clipped: a clip would have to be transformed back into
them, and round-off negatives of about 1e-16 appear on most steps of the
bundled demo.  So a clip does not feed into the linear part of the next step.
That moves the states by round-off only: over the bundled demo's first 10
days they differ by at most 5e-14 from steps taken in physical space that
clip the state itself.  The guard checks the rows read back.  A plain SEIR run
skips E between whole days only where tau (kappa (hx^-2 + hy^-2) + theta) <= 1:
then A^{-1} and B - tau theta I are entry-wise non-negative, and E_{n+1} =
A^{-1}((B - tau theta I) E_n + tau beta phi_n) >= 0 from E_0 >= 0, phi_n >= 0.

An optional correction adds the second-order Taylor term
(tau^2 / 2) * df/du [kappa L q + f] to the increment, restoring formal
second order for the coupled system.  With flow = kappa L q + f, df/du flow
is K flow + e beta (d phi/du) . flow, and d phi/du reads only the force rows.
The corrected step reads those rows of kappa L q out of kappa lam o U^,
transforms phi and phi + (tau beta / 2) (d phi/du) . flow into the basis,
and forms K flow there from U^ and phi^: a SEIR step makes 7 field
transforms, SIR 6 and SIS 4.  It is off by default; the plain scheme is the
reference behaviour and the backward sweep mirrors it exactly (the adjoint
refuses corrected problems).

The step X <- g o (b o X + tau (K X + S)) is written once,
``CNWorkspace._step``, and the forward run and the sweep step in the basis
with it, at kappa = 0 too (g = b = 1 there).

``sweep`` is the reverse mode (Griewank & Walther, Evaluating Derivatives,
2nd ed., SIAM 2008) of the plain run: the transpose of its carried
recursion.  It carries Z = Q^T z, the multiplier in the cosine eigenbasis,
and steps it with the forward's step and K^T:

    Z <- g o (b o Z + tau (K^T Z + Q^T[(d phi/du)(u_n) o s_n])),
    s_n = beta(t_n) (e . z_n) + (dJ/dphi at day mark n) / tau,

the impulse only on day marks, where it shares the step's d phi/du and so
costs no transform, and is formed from the phi the step already reads.  The
kappa derivative pairs (tau/2) Z_{n-1} with
lam (U^_{n-1} + U^_n), and the trajectory does not store the carried
coefficients U^.  So the sweep carries a second multiplier
W <- a_n + g o (b o W + tau K^T W), a_n = (tau/2) lam (Z_n + Z_{n-1}), and
summation by parts gives sum_n a_n . U^_n = W_0 . Q^T u_0
+ sum_n (g tau e . W_{n+1}) . phi^_n: g tau e . W leaves the basis with
e . Z and pairs, by Parseval, with the stored force beta phi(u_n).  A SEIR
backward step transforms those two fields out and the two nonzero rows of
(d phi/du) o s in, 4 field transforms; SIR takes 4 and SIS 3.

The sweep reads a full state only at level 0 and elsewhere only the rows phi
reads, u_S and u_I (u in SIS).  So a run stored with ``every_level`` keeps the
full state at level 0 and those rows alone at every later level (``between``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .errors import DimensionError, ParameterError, SequencingError, StabilityError
from .grid import (
    GridSpec,
    _from_eigen,
    _to_eigen,
    neumann_eigenbasis,
)
from .models import (
    ModelKind,
    RateSchedule,
    beta_at,
    beta_interval,
    reaction_split,
    seed_state,
    transmission_bilinear,
    transmission_derivative,
)

#: Absolute tolerance below zero before a step is declared unstable.
NEGATIVITY_TOL = 1e-10

#: Longest admissible time step, in days.
MAX_TAU = 1.0

#: The halving time steps of temporal_refinement_study, in days.
STUDY_TAUS = (0.4, 0.2, 0.1)


@dataclass
class CNWorkspace:
    """The Crank-Nicolson step for one (grid, kappa, tau) combination.

    ``basis`` = (Q_y, Q_x) is the eigenbasis of L and ``lam`` its eigenvalues;
    A^{-1} is the pointwise ``gain`` and B is ``b`` = 2 - 1/gain, all flat
    over the n_cells modes.  At kappa == 0 gain and b are ones.  Fields and
    coefficients are stacks of shape (k, n_cells), flattened in C order.
    """

    tau: float
    basis: tuple[np.ndarray, np.ndarray]
    lam: np.ndarray
    gain: np.ndarray
    b: np.ndarray

    def _step(self, x: np.ndarray, K: np.ndarray, source: np.ndarray | None = None,
              rows: slice = slice(None)) -> np.ndarray:
        """x <- g o (b o x + tau (K x + source)) in place, ``source`` on the ``rows`` it names."""
        rate = K @ x
        if source is not None:
            rate[rows] += source
        rate *= self.tau
        x *= self.b
        x += rate
        x *= self.gain
        return x


def _check_step(kappa: float, tau: float) -> None:
    """Raise ParameterError for kappa < 0 or tau outside (0, MAX_TAU]."""
    if kappa < 0.0:
        raise ParameterError(f"kappa must be non-negative, got {kappa}")
    if not (0.0 < tau <= MAX_TAU):
        raise ParameterError(f"tau must lie in (0, {MAX_TAU}], got {tau}")


def _check_tau(tau: float) -> None:
    """Raise ParameterError unless tau lies in (0, MAX_TAU] and divides a day into whole steps."""
    _check_step(0.0, tau)
    if abs(1.0 / tau - round(1.0 / tau)) > 1e-8:
        raise ParameterError(f"tau={tau} must divide one day into whole steps")


def assemble(grid: GridSpec, kappa: float, tau: float) -> CNWorkspace:
    """Build the Crank-Nicolson step: the eigenbasis of L and the gain of A^{-1}.

    Raises ParameterError for kappa < 0 or tau outside (0, MAX_TAU].
    """
    _check_step(kappa, tau)
    Qy, lam_y = neumann_eigenbasis(grid.ny, grid.hy)
    Qx, lam_x = neumann_eigenbasis(grid.nx, grid.hx)
    lam = (lam_y[:, None] + lam_x[None, :]).reshape(-1)
    gain = 1.0 / (1.0 - 0.5 * tau * kappa * lam)
    return CNWorkspace(tau, (Qy, Qx), lam, gain, 2.0 - 1.0 / gain)


def _check_sign(u: np.ndarray, t: float, remedy: str) -> float:
    """Return the minimum of u; raise StabilityError if it is NaN or below -NEGATIVITY_TOL."""
    low = float(u.min())
    if not low >= -NEGATIVITY_TOL:
        if np.isnan(low):
            raise StabilityError(f"state is not finite at t={t:.4f}")
        raise StabilityError(f"state went negative ({low:.3e}) at t={t:.4f}; {remedy}")
    return low


def _whole_days(times: np.ndarray) -> np.ndarray:
    """Whether each time falls on a whole day, to within 1e-7."""
    return np.abs(times - np.rint(times)) <= 1e-7


@dataclass
class Trajectory:
    """Stored forward solution: ``states``, (n_kept, m, ny, nx), at the kept ``times``.

    A default run keeps level 0, the whole days and the last level; a run with a day hook
    or with ``every_level`` keeps level 0 alone.  The states hold the compartments alone;
    the population is formed by ``Problem.population_at``.  An ``every_level`` run also
    keeps ``between``, (n_steps, r, ny, nx): the r force rows (``ModelKind.force_rows``)
    of levels 1..n_steps, all the adjoint sweep reads there; it is None otherwise.
    """

    grid: GridSpec
    model: ModelKind
    tau: float
    times: np.ndarray
    states: np.ndarray
    between: np.ndarray | None = None

    @property
    def daily_indices(self) -> np.ndarray:
        """Indices of levels falling on whole days (t = 0, 1, 2, ...)."""
        return np.flatnonzero(_whole_days(self.times))

    @property
    def days(self) -> np.ndarray:
        return np.rint(self.times[self.daily_indices]).astype(int)


def _whole_steps(t_end: float, tau: float) -> int:
    """The number of steps of tau in t_end; raise ParameterError unless it is whole."""
    steps = round(t_end / tau)
    if abs(t_end / tau - steps) > 1e-8:
        raise ParameterError(f"tau={tau} does not divide t_end={t_end} into whole steps")
    return steps


def _unforced(ws: CNWorkspace, fields: np.ndarray, levels: list[int]) -> np.ndarray:
    """Fields (..., ny, nx) that nothing forces, read out at the step ``levels`` (the first 0).

    Over a gap of d steps the coefficients are scaled by (b o gain)^d, formed by d products
    once per d, and zeroed below the smallest normal double before each read-out.
    """
    factor, powers = ws.b * ws.gain, {}
    coef = _to_eigen(fields, ws.basis)
    out = [fields]
    for d in np.diff(levels).tolist():
        if d not in powers:
            powers[d] = np.ones_like(factor)
            for _ in range(d):
                powers[d] *= factor
        coef *= powers[d]
        coef[np.abs(coef) < np.finfo(float).tiny] = 0.0
        out.append(_from_eigen(coef, ws.basis).reshape(fields.shape))
    return np.stack(out)


def _day_levels(steps: int, tau: float) -> dict[int, int]:
    """Level -> day at the levels of a run of ``steps`` steps of tau that fall on whole days."""
    levels = np.flatnonzero(_whole_days(np.arange(steps + 1) * tau))
    return dict(zip(levels.tolist(), np.rint(levels * tau).astype(int).tolist()))


def _drive(
    grid: GridSpec,
    u0: np.ndarray,
    model: ModelKind,
    t_end: float,
    tau: float,
    every_level: bool,
    advance: Callable[[np.ndarray, float, slice], np.ndarray],
    remedy: str,
    on_day: Callable[[int, np.ndarray], Any] | None = None,
) -> Trajectory:
    """The time-stepping loop behind every forward run; it steps the m compartments alone.

    ``advance(q, t, rows)`` returns the read-out of ``rows`` (or of all m) one step of tau after
    the read-out q at t = n tau, level n; the loop asks for all m at the whole days and the last
    level, the force rows elsewhere.  It checks each new read-out (``remedy`` is the guard's
    advice) and clips it before it is stored, stepped from or handed on.  By default it keeps
    level 0, the whole days and the last level; with ``on_day`` or ``every_level`` level 0
    alone, and with ``every_level`` the force rows of levels 1..n_steps in ``between``.
    ``on_day(day, phi)`` gets phi = u_S u_I, (n_cells,), of each whole day, level 0 included.
    """
    m = model.n_compartments
    if u0.shape != (m,) + grid.shape:
        raise DimensionError(f"u0 shape {u0.shape} does not match ({m},) + {grid.shape}")
    steps = _whole_steps(t_end, tau)
    q = np.asarray(u0, dtype=float).reshape(m, -1)  # read only: the clip acts on new read-outs

    days = _day_levels(steps, tau)
    full = np.isin(np.arange(steps + 1), [*days, steps])  # the levels read out in all m rows
    keep = full if on_day is None and not every_level else np.arange(steps + 1) == 0
    times = (np.arange(steps + 1) * tau)[keep]
    slot = np.cumsum(keep) - 1
    rows = model.force_rows
    n_kept, n_between = len(times), steps * every_level
    # one allocation: as two smaller ones, glibc's trim threshold re-faulted them every run
    store_block = np.empty((n_kept * m + n_between * len(u0[rows]),) + grid.shape)
    states = store_block[:n_kept * m].reshape((n_kept, m) + grid.shape)
    between = store_block[n_kept * m:].reshape((n_between,) + u0[rows].shape) if every_level else None

    states[0] = u0
    if on_day is not None:
        on_day(0, transmission_bilinear(model, q))
    for n in range(steps):
        q = advance(q, n * tau, slice(None) if full[n + 1] else rows)
        if _check_sign(q, n * tau + tau, remedy) < 0.0:
            np.clip(q, 0.0, None, out=q)
        if every_level:
            between[n] = (q[rows] if len(q) == m else q).reshape(between.shape[1:])
        elif keep[n + 1]:
            states[slot[n + 1]] = q.reshape(states.shape[1:])
        if on_day is not None and n + 1 in days:
            on_day(days[n + 1], transmission_bilinear(model, q))

    return Trajectory(grid, model, tau, times, states, between)


def run_from_state(
    grid: GridSpec,
    u0: np.ndarray,
    model: ModelKind,
    schedule: RateSchedule,
    kappa: float,
    t_end: float,
    tau: float,
    every_level: bool = False,
    corrected: bool = False,
    on_day: Callable[[int, np.ndarray], Any] | None = None,
) -> Trajectory:
    """Integrate from an explicit initial state with the Crank-Nicolson step.

    The run carries the compartments' eigenbasis coefficients and reads back the rows that
    ``_drive`` asks for, or every row, as the module docstring says.  ``on_day`` is the day hook.
    """
    ws = assemble(grid, kappa, tau)
    basis = ws.basis
    K, e = reaction_split(model, schedule)
    rows = model.force_rows
    # every row at every level: the corrected step reads E, and in the plain one E may dip
    every_row = corrected or tau * (kappa * (grid.hx ** -2 + grid.hy ** -2) + schedule.theta) > 1

    coef = None  # the carried coefficients U^, formed from level 0's read-out

    def advance(q: np.ndarray, t: float, read: slice) -> np.ndarray:
        nonlocal coef
        if coef is None:
            coef = _to_eigen(q, basis)
        beta = beta_at(schedule, t)
        phi = beta * transmission_bilinear(model, q)
        if corrected:
            diffusion = (kappa * ws.lam) * coef  # kappa L U^
            flow = _from_eigen(diffusion[rows], basis)
            flow += K[rows] @ q
            flow += np.multiply.outer(e[rows], phi)  # the force rows of kappa L q + f
            dphi = (transmission_derivative(model, q[rows]) * flow).sum(axis=0)  # (d phi/du) . flow
            phi_coef, force = _to_eigen(np.stack([phi, phi + (0.5 * tau * beta) * dphi]), basis)
            source = (0.5 * tau) * (K @ (diffusion + K @ coef + np.multiply.outer(e, phi_coef)))
            source += np.multiply.outer(e, force)
        else:
            source = e[:, None] * _to_eigen(phi, basis)
        ws._step(coef, K, source)
        if every_row or len(coef[read]) == len(coef[rows]) or _whole_days(t + tau):
            return _from_eigen(coef if every_row else coef[read], basis)  # by one call
        return np.insert(_from_eigen(coef[rows], basis), 1, _from_eigen(coef[1:2], basis), axis=0)

    return _drive(grid, u0, model, t_end, tau, every_level, advance, "use a smaller tau", on_day)


def sweep(traj: Trajectory, schedule: RateSchedule, kappa: float,
          impulse: Callable[[int, np.ndarray], np.ndarray]) -> tuple[np.ndarray, np.ndarray, float]:
    """The backward sweep of the plain run, as the module docstring derives it.

    ``traj`` is the forward run stored with ``every_level``, and ``impulse(day, phi)``
    returns J's derivative in phi = u_S u_I at that day mark, (n_cells,), given the
    day's phi, which the sweep forms from the stored force rows: those of
    ``states[0]`` at level 0 and ``between[n - 1]`` at level n.  Returns dJ/dq_0
    through the states, (m, ny, nx), and the sweep's parts of dJ/dbeta, per plateau,
    and of dJ/dkappa.  Raises SequencingError for a run stored without ``every_level``.
    """
    if traj.between is None:
        raise SequencingError("adjoint sweep needs every forward level; run with every_level=True")
    tau = traj.tau
    ws = assemble(traj.grid, kappa, tau)
    basis = ws.basis
    model = traj.model
    m, n_cells = model.n_compartments, traj.grid.n_cells
    rows = model.force_rows  # the rows phi reads and d phi / du fills
    steps = len(traj.between)
    marks = _day_levels(steps, tau)
    K, e = reaction_split(model, schedule)
    half_tau = 0.5 * tau
    g_beta = np.zeros(3)
    g_kappa = 0.0

    # Z carries Q^T z_n, the multiplier of the step out of level n; W is the
    # module docstring's W over tau/2, so a_n is lam (Z_n + Z_{n-1}).
    Z = np.zeros((m, n_cells))
    W = np.zeros((m, n_cells))
    for n in range(steps, -1, -1):
        v = (traj.between[n - 1] if n else traj.states[0, rows]).reshape(-1, n_cells)
        t = n * tau
        beta = beta_at(schedule, t)
        out = np.stack([e @ Z, e @ W])
        out[1] *= ws.gain
        ez, gw = _from_eigen(out, basis)
        phi = transmission_bilinear(model, v)
        # (df/dbeta) . z = phi (e . z): the force phi leaves S for the next
        # compartment (E in SEIR, I in SIR); in SIS it is the gain of I
        g_beta[beta_interval(schedule, t)] += tau * float(phi @ ez)
        g_kappa += half_tau * tau * beta * float(phi @ gw)
        s = ez
        s *= beta
        if n in marks:
            s += impulse(marks[n], phi) / tau
        source = _to_eigen(transmission_derivative(model, v) * s, basis)
        # W <- a_n + M^T W, with Z_{-1} = 0 in a_0
        ws._step(W, K.T)
        W += ws.lam * Z
        ws._step(Z, K.T, source, rows)
        if n:
            W += ws.lam * Z

    # the chain closes at level 0 without A^{-1}: Z becomes Q^T dJ/dq_0
    Z /= ws.gain
    g_kappa += half_tau * float(np.vdot(W, _to_eigen(traj.states[0], basis)))
    return _from_eigen(Z, basis).reshape(traj.states.shape[1:]), g_beta, g_kappa


def conservation_drift(mass: np.ndarray) -> float:
    """Max relative drift of a mass series from its first entry."""
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
        if kind == "diffusion":
            return _unforced(assemble(grid, kappa, tau), u0, [0, _whole_steps(t_end, tau)])[-1]
        # whole days only: the last level, the one read, is always kept
        return run_from_state(grid, u0, model, schedule, kappa, t_end, tau, every_level=False,
                              corrected=corrected).states[-1]

    ref = final_state(STUDY_TAUS[-1] / 64)
    errors = []
    for tau in STUDY_TAUS:
        diff = final_state(tau) - ref
        errors.append(float(np.sqrt((diff ** 2).sum() * grid.cell_area)))
    orders = [float(np.log2(e0 / e1)) for e0, e1 in zip(errors, errors[1:])]
    return {"kind": kind, "taus": list(STUDY_TAUS), "errors": errors, "orders": orders}
