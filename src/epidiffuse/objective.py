"""The least-squares objective J and the spatialization of reported case data.

J compares the model's detected incidence delta * beta(t) * u_S * u_I against
reported daily cases that exist only as one number per region per day.  The
reported count c_k(d) is turned into a per-cell field by

    v_k(d) = (c_k(d) / P_k) / (cells_k * hx * hy),

i.e. the detected fraction of region k's population, spread uniformly so that
region aggregation (region_total) returns exactly c_k(d) / P_k.  J reads these
fields at the day marks only.

The full objective is

    J = w0/2 * sum_d omega_d * ||g_d - v_d||^2_(L2)   (trapezoid in time,
                                                       midpoint in space)
      + w1/2 * |chi - chi_ref|^2
      + w2/2 * sum_j ||u_{j,0} - u0_ref_j||^2_(L2)

with g_d the detected-incidence field at day d, chi = (beta0, beta1, beta2,
kappa, delta) and u0_ref the disease-free state unless one is given.
``_residual`` is the one place that forms r_d = delta beta(d) phi_d - v_d, one
day mark at a time.  ``_DayMarks`` holds J at one point: built from the run's
u_0, it keeps u_0's gap to its anchor, and its day hook, handed each day's
phi_d = u_S u_I, sums from it, in day order, the misfit and each day's
phi_d . r_d; it is the one check of a run's days against the data's.  Every
fresh run that J reads sums them at its day hook (``Problem._marked_run``), so
J needs no per-day stack; only evaluate_terms adds the days of a stored run.
From the same sums ``_DayMarks`` gives J's terms, J's derivatives with
the states held fixed, in chi (beta and delta at the day marks and the w1
anchor) and in u_0 (the w2 anchor), and, for the force phi = u_S u_I,
``impulse(day, phi)``, dJ/dphi formed from the phi solver_cn.sweep reads at
that day mark; so both estimators minimize exactly the J they report.
``region_persons`` is the one rule by which a fraction field counts persons.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .errors import (
    AlignmentError,
    CaseDataError,
    ConfigError,
    DegenerateRegionError,
    DimensionError,
    ParameterError,
)
from .grid import GridSpec, RegionMask, region_total
from .models import (
    ModelKind,
    ParameterVector,
    beta_at,
    beta_interval,
    seed_state,
    transmission_bilinear,
)
from .solver_cn import Trajectory


@dataclass
class CaseSeries:
    """Daily new detected cases for one region over the study window.

    ``days`` are integer offsets from the window start and must be contiguous;
    gaps in the source file are zero-filled and recorded in ``filled_days``.
    """

    region: str
    days: np.ndarray
    new_cases: np.ndarray
    filled_days: tuple[int, ...] = ()

    def __post_init__(self):
        self.days = np.asarray(self.days, dtype=int)
        self.new_cases = np.asarray(self.new_cases, dtype=float)
        if self.days.shape != self.new_cases.shape:
            raise CaseDataError(
                f"region '{self.region}': {len(self.days)} days vs {len(self.new_cases)} counts"
            )
        if len(self.days) == 0:
            raise CaseDataError(f"region '{self.region}' has no observations")
        if (np.diff(self.days) != 1).any():
            raise CaseDataError(f"region '{self.region}': day indices must be contiguous")
        if not np.isfinite(self.new_cases).all() or (self.new_cases < 0).any():
            raise CaseDataError(f"region '{self.region}': case counts must be finite and >= 0")

    @property
    def cumulative(self) -> np.ndarray:
        return np.cumsum(self.new_cases)


class DataInterpolant:
    """Reported cases as per-cell fields at the day marks."""

    def __init__(
        self,
        grid: GridSpec,
        masks: list[RegionMask],
        populations: np.ndarray,
        cases: np.ndarray,
        days: np.ndarray,
    ):
        self.grid = grid
        self.populations = populations
        self.cases = cases          # (n_regions, n_days) persons/day
        self.days = days            # integer day indices 0..D
        self._masks = masks
        self._fields: np.ndarray | None = None

    @property
    def n_days(self) -> int:
        return len(self.days)

    @property
    def daily_fields(self) -> np.ndarray:
        """Per-cell data values, shape (n_days, ny, nx); assembled lazily."""
        if self._fields is None:
            # fraction of the region population detected per day
            fractions = self.cases / self.populations[:, None]
            out = np.zeros((self.n_days,) + self.grid.shape)
            for k, mask in enumerate(self._masks):
                values = fractions[k] / mask.area(self.grid)
                out[:, mask.cells] += values[:, None]
            self._fields = out
        return self._fields

    def district_incidence_fraction(self) -> np.ndarray:
        """Detected daily cases over the whole district as a population fraction."""
        return self.cases.sum(axis=0) / self.populations.sum()


def region_persons(fields: np.ndarray | float, population: np.ndarray,
                   masks: Iterable[RegionMask], grid: GridSpec) -> np.ndarray:
    """Persons in each region: the integral of fraction * density over it, one row per mask.

    ``fields`` is a fraction field, a stack (..., ny, nx) of them, or 1.0 for
    the region populations P_k.
    """
    persons = fields * population
    return np.array([region_total(persons, mask, grid) for mask in masks])


def interpolate_data(
    series: Mapping[str, CaseSeries],
    masks: Mapping[str, RegionMask],
    grid: GridSpec,
    population: np.ndarray,
) -> DataInterpolant:
    """Bundle per-region case series into the per-cell data function.

    Region populations are taken from the population field at t = 0.  Every
    series must cover the same contiguous day range.
    """
    missing = sorted(set(series) - set(masks))
    if missing:
        raise ConfigError(f"case data for regions without masks: {', '.join(missing)}")
    names = tuple(sorted(series))
    if not names:
        raise ConfigError("no case series given")
    base = series[names[0]]
    day0, day1 = int(base.days[0]), int(base.days[-1])
    mask_list = [masks[name] for name in names]
    pops = region_persons(1.0, population, mask_list, grid)
    for name, pop in zip(names, pops):
        s = series[name]
        if int(s.days[0]) != day0 or int(s.days[-1]) != day1:
            raise AlignmentError(
                f"region '{name}' covers days {s.days[0]}..{s.days[-1]}, "
                f"expected {day0}..{day1}"
            )
        if pop <= 0.0:
            raise DegenerateRegionError(f"region '{name}' has population {pop}")
    rows = np.array([series[name].new_cases for name in names])
    return DataInterpolant(grid, mask_list, pops, rows, base.days.copy())


@dataclass
class ObjectiveWeights:
    """Weights and anchors of the three terms of J."""

    w0: float = 1.0
    w1: float = 0.0
    w2: float = 0.0
    chi_ref: np.ndarray | None = None
    u0_ref: np.ndarray | None = None   # None: the disease-free state

    def __post_init__(self):
        if not self.w0 > 0.0:
            raise ParameterError(f"w0 must be positive, got {self.w0}")
        if not (self.w1 >= 0.0 and self.w2 >= 0.0):
            raise ParameterError(f"w1 and w2 must be >= 0, got {self.w1}, {self.w2}")
        if self.chi_ref is not None:
            self.chi_ref = np.asarray(self.chi_ref, dtype=float)
            if self.chi_ref.shape != (5,):
                raise ParameterError(f"chi_ref needs 5 entries, got shape {self.chi_ref.shape}")
        elif self.w1 > 0.0:
            raise ConfigError("w1 > 0 requires a chi_ref anchor")


def trapezoid_day_weights(n_days: int) -> np.ndarray:
    w = np.ones(n_days)
    if n_days > 1:
        w[0] = w[-1] = 0.5
    return w


class ObjectiveBreakdown(NamedTuple):
    misfit: float
    chi_reg: float
    init_reg: float

    @property
    def total(self) -> float:
        return self.misfit + self.chi_reg + self.init_reg


def _residual(phi: np.ndarray, delta_beta: float, v: np.ndarray | None = None) -> np.ndarray:
    """r_d = delta beta(d) phi_d - v_d at one day mark, the only place J's misfit is formed.

    With no ``v`` it is the detected incidence delta beta(d) phi_d alone.
    """
    r = delta_beta * phi
    if v is not None:
        r -= v.reshape(r.shape)
    return r


class _DayMarks:
    """J at one point: its per-day factors, and its sums over a run's day marks.

    ``beta`` and ``delta_beta`` hold beta(d) and delta beta(d) at the data's days, and
    ``gap`` is u_0 - u0_ref when w2 > 0, formed from the run's ``u0``, (m, ny, nx).  ``add``,
    the runs' day hook, takes a run's day marks in order, each with its phi = u_S u_I, and
    sums the misfit and keeps ``phi_r``, phi_d . r_d per day.  A day that is not the data's
    next raises AlignmentError.
    """

    def __init__(self, params: ParameterVector, data: DataInterpolant, weights: ObjectiveWeights,
                 model: ModelKind, u0: np.ndarray):
        self.params, self.data, self.weights, self.area = (
            params, data, weights, data.grid.cell_area)
        self.beta = np.array([beta_at(params.schedule, float(day)) for day in data.days])
        self.delta_beta = params.delta * self.beta
        self.omega = trapezoid_day_weights(data.n_days)
        self.misfit = 0.0   # sum_d omega_d ||r_d||^2 area, before the factor w0 / 2
        self.phi_r = np.zeros(data.n_days)   # phi_d . r_d, summed over the cells
        self.gap: np.ndarray | float = 0.0   # u_0 - u0_ref, kept when w2 > 0
        if weights.w2 > 0.0:
            # with no u0_ref the anchor is the disease-free state (S = 1, E = I = 0)
            ref = weights.u0_ref
            self.gap = u0 - (seed_state(model, np.zeros((1, 1))) if ref is None else ref)
        self.n_added = 0

    def residual(self, day: int, phi: np.ndarray) -> np.ndarray:
        pos = day - self.data.days[0]
        return _residual(phi, self.delta_beta[pos], self.data.daily_fields[pos])

    def add(self, day: int, phi: np.ndarray) -> None:
        pos, days = self.n_added, self.data.days
        if pos == self.data.n_days or day != days[pos]:
            raise AlignmentError(f"day mark {day} is not the next of data days {days[0]}..{days[-1]}")
        r = self.residual(day, phi)
        self.misfit += self.omega[pos] * float((r * r).sum()) * self.area
        self.phi_r[pos] = float((phi * r).sum())
        self.n_added += 1

    @property
    def terms(self) -> ObjectiveBreakdown:
        """The three terms of J; AlignmentError unless the marks cover every day of the data."""
        if self.n_added != self.data.n_days:
            raise AlignmentError(f"the run has {self.n_added} day marks, the data {self.data.n_days}")
        w = self.weights
        chi_reg = 0.0
        if w.w1 > 0.0:
            diff = self.params.chi - w.chi_ref
            chi_reg = 0.5 * w.w1 * float(diff @ diff)
        init_reg = 0.5 * w.w2 * float(np.sum(self.gap * self.gap)) * self.area  # 0.0 at w2 = 0
        return ObjectiveBreakdown(self.misfit * (0.5 * w.w0), chi_reg, init_reg)

    def gradient(self) -> tuple[np.ndarray, np.ndarray | float]:
        """(dJ/dchi, dJ/du_0) with the states held fixed.

        dJ/dchi has beta and delta at the day marks and the w1 anchor; dJ/du_0, the w2
        anchor's, is 0.0 when w2 = 0, so the sweep holds no unused field beside its own.
        """
        p, w = self.params, self.weights
        dj_d = self.phi_r * (w.w0 * self.area * self.omega)  # dJ/d(delta * beta(d))
        intervals = [beta_interval(p.schedule, float(d)) for d in self.data.days]
        chi = np.zeros(5)
        chi[:3] = np.bincount(intervals, weights=p.delta * dj_d, minlength=3)
        chi[4] = float(self.beta @ dj_d)
        if w.w1 > 0.0:
            chi += w.w1 * (p.chi - w.chi_ref)
        return chi, w.w2 * self.area * self.gap

    def impulse(self, day: int, phi: np.ndarray) -> np.ndarray:
        """dJ/dphi at day mark ``day``, w0 area omega_d beta(d) delta r_d, with r_d formed from
        the given ``phi``, the day's u_S u_I in any shape over the grid's cells."""
        pos = day - self.data.days[0]
        r = self.residual(day, phi)
        r *= self.weights.w0 * self.area * self.omega[pos] * self.beta[pos] * self.params.delta
        return r


def evaluate_terms(traj: Trajectory, params: ParameterVector, weights: ObjectiveWeights,
                   data: DataInterpolant) -> ObjectiveBreakdown:
    """The three terms of J of a stored run separately; ``.total`` is J."""
    if not data.grid.compatible(traj.grid):
        raise DimensionError(f"case data on grid {data.grid} do not match run grid {traj.grid}")
    marks = _DayMarks(params, data, weights, traj.model, traj.states[0])
    for level, day in zip(traj.daily_indices, traj.days.tolist()):
        marks.add(day, transmission_bilinear(traj.model, traj.states[level]))
    return marks.terms


def detected_daily_cases(
    traj: Trajectory,
    params: ParameterVector,
    masks: Mapping[str, RegionMask],
    population: np.ndarray,
) -> dict[str, np.ndarray]:
    """Model-side detected cases per region per day, in persons.

    The model analogue of a reported count: c_k(d) = P_k * integral over
    region k of delta * beta(d) * u_S * u_I, with P_k from ``population``.
    """
    delta_beta = params.delta * np.array([beta_at(params.schedule, float(d)) for d in traj.days])
    incidence = np.stack([_residual(transmission_bilinear(traj.model, traj.states[level]), db)
                          for level, db in zip(traj.daily_indices, delta_beta)])
    pops = region_persons(1.0, population, masks.values(), traj.grid)
    return {name: pop * region_total(incidence, mask, traj.grid)
            for (name, mask), pop in zip(masks.items(), pops)}
