"""Reduced compartment models and their time-dependent rates.

All models work on population fractions.  The removed compartment is
eliminated through S + I (+ E + R) = 1, which leaves

* SIS   -> one field  u = I/N          f(u) = beta (1 - u) u - gamma u
* SIR   -> (u1, u2) = (S, I)/N         f = (-beta u1 u2, beta u1 u2 - gamma u2)
* SEIR  -> (u1, u2, u3) = (S, E, I)/N  f = (-beta u1 u3, beta u1 u3 - theta u2,
                                            theta u2 - gamma u3)

Each f is linear in u apart from the transmission force beta u_S u_I:
``reaction_split`` gives f = K u + e * beta(t) * u_S u_I with constant K
and e; each solver reads that split once per run.

The transmission rate is piecewise constant in time with two breakpoints
(three plateau values), mirroring the way contact restrictions change a
rate abruptly on known dates.  ``beta_at`` is right-continuous: the value
on [t0, t1) is betas[1].

``seed_state`` is the one map from an infected-fraction field to the t = 0
state; ``seed_direction`` and ``seed_jacobian`` are its derivatives, which
the adjoint's seed gradient uses.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionError, NormalizationError, ParameterError
from .grid import GridSpec, RegionMask, distribute_uniform

DEFAULT_GAMMA = 0.1        # recovery rate, 1/days
DEFAULT_THETA = 1.0 / 3.0  # incubation rate, 1/days


class ModelKind(enum.Enum):
    SIS = "sis"
    SIR = "sir"
    SEIR = "seir"

    @functools.cached_property
    def n_compartments(self) -> int:
        """Number of retained (solved-for) compartments."""
        return {ModelKind.SIS: 1, ModelKind.SIR: 2, ModelKind.SEIR: 3}[self]

    @property
    def infected_index(self) -> int:
        return self.n_compartments - 1

    @property
    def force_rows(self) -> slice:
        """The rows of a state the transmission force reads: S and I, or I alone in SIS."""
        return slice(0, self.n_compartments, max(self.infected_index, 1))


@dataclass(frozen=True)
class RateSchedule:
    """Piecewise-constant transmission rate plus the fixed transition rates."""

    betas: tuple[float, float, float]
    breakpoints: tuple[float, float]
    t_end: float
    gamma: float = DEFAULT_GAMMA
    theta: float = DEFAULT_THETA

    def __post_init__(self):
        if len(self.betas) != 3:
            raise ParameterError(f"expected 3 plateau values, got {len(self.betas)}")
        if not all(b > 0.0 for b in self.betas):
            raise ParameterError(f"transmission rates must be positive, got {self.betas}")
        t0, t1 = self.breakpoints
        if not (0.0 < t0 < t1 < self.t_end):
            raise ParameterError(
                f"breakpoints must satisfy 0 < t0 < t1 < t_end, got t0={t0}, t1={t1}, t_end={self.t_end}"
            )
        if not (self.gamma > 0.0 and self.theta > 0.0):
            raise ParameterError(f"gamma and theta must be positive, got {self.gamma}, {self.theta}")

    def with_betas(self, betas) -> "RateSchedule":
        return replace(self, betas=tuple(float(b) for b in betas))


def beta_at(schedule: RateSchedule, t: float) -> float:
    """Transmission rate at time t (right-continuous at the breakpoints)."""
    if t < -1e-6 or t > schedule.t_end + 1e-6:
        raise ParameterError(f"t={t} outside the schedule window [0, {schedule.t_end}]")
    return schedule.betas[beta_interval(schedule, t)]


def beta_interval(schedule: RateSchedule, t: float) -> int:
    """Index (0, 1 or 2) of the plateau active at time t."""
    t0, t1 = schedule.breakpoints
    return 0 if t < t0 else (1 if t < t1 else 2)


@dataclass(frozen=True)
class ParameterVector:
    """Everything the estimators search over.

    ``init_infected`` maps region names to initially infected person counts;
    they are spread uniformly over the region's cells at t = 0.
    """

    schedule: RateSchedule
    kappa: float
    delta: float
    init_infected: dict[str, float]

    def __post_init__(self):
        if not (0.0 <= self.kappa <= 1.0):
            raise ParameterError(f"kappa must lie in [0, 1], got {self.kappa}")
        if not (0.0 <= self.delta <= 1.0):
            raise ParameterError(f"delta must lie in [0, 1], got {self.delta}")
        for name, value in self.init_infected.items():
            if not value >= 0.0:
                raise ParameterError(f"initial infected in '{name}' must be >= 0, got {value}")

    @property
    def chi(self) -> np.ndarray:
        """The five smooth parameters (beta0, beta1, beta2, kappa, delta)."""
        return np.array([*self.schedule.betas, self.kappa, self.delta])

    def with_chi(self, chi) -> "ParameterVector":
        chi = np.asarray(chi, dtype=float)
        if chi.shape != (5,):
            raise DimensionError(f"chi must have 5 entries, got shape {chi.shape}")
        return replace(
            self,
            schedule=self.schedule.with_betas(chi[:3]),
            kappa=float(chi[3]),
            delta=float(chi[4]),
        )

    def with_seeds(self, seeds: dict[str, float]) -> "ParameterVector":
        return replace(self, init_infected=dict(seeds))


def reaction_split(model: ModelKind, schedule: RateSchedule) -> tuple[np.ndarray, np.ndarray]:
    """The split f(u, t) = K u + e * beta(t) * transmission_bilinear(u).

    K (m, m) holds the constant-coefficient transitions, e (m,) the way the
    transmission force moves between compartments: SIS K = [-gamma],
    e = (1); SIR K = diag(0, -gamma), e = (-1, 1); SEIR
    K = [[0, 0, 0], [0, -theta, 0], [0, theta, -gamma]], e = (-1, 1, 0).
    K commutes with the Laplacian, so only the force needs physical space.
    """
    g, th = schedule.gamma, schedule.theta
    if model is ModelKind.SIS:
        return np.array([[-g]]), np.array([1.0])
    if model is ModelKind.SIR:
        return np.array([[0.0, 0.0], [0.0, -g]]), np.array([-1.0, 1.0])
    K = np.array([[0.0, 0.0, 0.0], [0.0, -th, 0.0], [0.0, th, -g]])
    return K, np.array([-1.0, 1.0, 0.0])


def transmission_bilinear(model: ModelKind, u: np.ndarray) -> np.ndarray:
    """u_S u_I, the force driving new cases, from a state or its ``force_rows``."""
    u = np.asarray(u, dtype=float)
    if model is ModelKind.SIS:
        return (1.0 - u[0]) * u[0]
    return u[0] * u[-1]


def transmission_derivative(model: ModelKind, u: np.ndarray) -> np.ndarray:
    """transmission_bilinear's derivative d(u_S u_I)/du, from a state or its ``force_rows``; shape of u."""
    out = np.zeros_like(u)
    if model is ModelKind.SIS:
        out[0] = 1.0 - 2.0 * u[0]
    else:
        out[0] = u[-1]
        out[-1] = u[0]
    return out


#: SEIR seeding: the initially exposed, per initially infected person.
EXPOSED_PER_INFECTED = 0.5


def seed_direction(model: ModelKind) -> np.ndarray:
    """du0/dfrac: how each retained compartment of u0 moves with the infected fraction.

    S gives up what the others take (S = 1 - E - I), so the entries are SIS
    (1), SIR (-1, 1) and SEIR (-1 - r, r, 1) with r = EXPOSED_PER_INFECTED.
    """
    if model is ModelKind.SIS:
        return np.array([1.0])
    if model is ModelKind.SIR:
        return np.array([-1.0, 1.0])
    r = EXPOSED_PER_INFECTED
    return np.array([-1.0 - r, r, 1.0])


def max_seed_fraction(model: ModelKind) -> float:
    """The largest infected fraction ``seed_state`` can take with S = 1 - E - I >= 0."""
    return 1.0 / (1.0 + EXPOSED_PER_INFECTED) if model is ModelKind.SEIR else 1.0


def seed_state(model: ModelKind, frac: np.ndarray) -> np.ndarray:
    """The seeding map: the t = 0 state from an infected-fraction field.

    Every compartment past S is ``seed_direction`` times ``frac``; S is
    1 - E - I, so the state is disease free wherever ``frac`` is zero.
    """
    u0 = np.multiply.outer(seed_direction(model), frac)
    if model is not ModelKind.SIS:
        u0[0] = 1.0
        for row in u0[1:]:
            u0[0] -= row
    return u0


def seed_jacobian(
    model: ModelKind, grid: GridSpec, mask: RegionMask, population: np.ndarray
) -> np.ndarray:
    """du0/dI0 for one region's seed count, shape (m, ny, nx).

    A seeded person adds 1 / (cells * cell_area * population) to the
    infected fraction of each of the region's populated cells.
    """
    rho = np.zeros(grid.shape)
    ok = mask.cells & (population > 0.0)
    rho[ok] = 1.0 / (mask.cell_count * grid.cell_area * population[ok])
    return np.multiply.outer(seed_direction(model), rho)


def initial_fractions(
    model: ModelKind,
    grid: GridSpec,
    masks: dict[str, RegionMask],
    params: ParameterVector,
    population: np.ndarray,
) -> np.ndarray:
    """Build the t = 0 state from per-region infected counts.

    The infected persons are spread uniformly over each region and divided by
    the local population density; ``seed_state`` turns that fraction into the
    state (for SEIR with EXPOSED_PER_INFECTED exposed per infected person).
    Outside the covered regions the state is disease free; a fraction above
    ``max_seed_fraction``, which would leave S negative, is refused.
    """
    if population.shape != grid.shape:
        raise DimensionError(
            f"population shape {population.shape} does not match grid {grid.shape}"
        )
    if (population < 0.0).any():
        raise NormalizationError("population density must be non-negative")
    infected = np.zeros(grid.shape)
    for name, count in params.init_infected.items():
        if name not in masks:
            raise ParameterError(f"initial infected given for unknown region '{name}'")
        infected += distribute_uniform(count, masks[name], grid)
    covered = infected > 0.0
    if (population[covered] <= 0.0).any():
        raise NormalizationError("population must be positive wherever cases are placed")
    frac = np.zeros(grid.shape)
    frac[covered] = infected[covered] / population[covered]
    bound = max_seed_fraction(model)
    if (frac > bound).any():
        raise ParameterError(f"initial infected exceed {bound:.4g} of the local population "
                             f"({frac.max():.4g}), which leaves {model.name}'s S negative")
    return seed_state(model, frac)
