"""Parameter estimation: Metropolis random walk and adjoint-gradient descent.

Both engines minimize the same J (Problem.objective) over

    chi = (beta0, beta1, beta2, kappa, delta)   and the per-region
    initially infected counts I0 (spread uniformly by distribute_uniform).

The Metropolis sampler proposes symmetric normal steps on the packed
parameter vector, rejects what the parameter types refuse, accepts
with probability min{1, exp((J_old^2 - J_new^2) / (2 sigma^2))}, and reports
means and standard deviations over the accepted post-burn-in draws.  Every
decision is logged so the rule can be re-checked offline.

Every forward run that J reads, the objective's, the gradient's and the
adjoint fit's trials, is a Problem._marked_run: it sums J's day marks at the
run's day hook, one day mark at a time, into an objective._DayMarks, and
stores no day.  The gradient's run also stores the force rows of every level.

The adjoint engine computes the exact gradient of the discrete objective
by reverse mode, as the chain rule through two pieces that sit beside the
code they differentiate: the run's objective._DayMarks gives J's terms and
J's derivatives at fixed states in chi and u0, from the sums its day hook
made, and its impulse(day, phi), which solver_cn.sweep calls at each day
mark to form dJ/dphi from the phi it reads there, carrying it back through
the forward recursion to dJ/du0, dJ/dbeta and dJ/dkappa.  The search
direction for chi is -H g, with H BFGS's dense 5x5 inverse Hessian of chi
(-g, at most 1 long, until the first accepted curvature pair); the
initial-condition direction follows the optimality-condition target
u0_tilde = u0_ref - z(0)/w2 = u0 - dJ/du0 / (area w2).
A shared Armijo backtracking step is applied to both directions at once; a
trial whose run trips the negativity guard fails like one that raises J.
Trial chi are projected onto the parameter types' box (beta_j > 0, kappa and
delta in [0, 1]) and trial seeds onto I0 >= 0; Problem.in_bounds also asks
initial_fractions, which caps a cell's seeded fraction at max_seed_fraction.

The search settings are module constants, not options: ARMIJO_C (sufficient
decrease), ARMIJO_SHRINK and ALPHA_MIN (backtracking), TOL (relative change
of J that stops the fit), GTOL (gradient norm that stops it), and the caps on
one initial-condition step, MAX_SEED_STEP persons per region or
MAX_INITIAL_STEP in infected-fraction units per cell.  The sampler warns
after STUCK_WINDOW draws without an acceptance.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from numbers import Integral, Real
from typing import Any, Callable

import numpy as np

from .errors import ConfigError, DimensionError, ParameterError, StabilityError
from .grid import GridSpec, RegionMask
from .models import (
    ModelKind,
    ParameterVector,
    initial_fractions,
    max_seed_fraction,
    seed_direction,
    seed_jacobian,
    seed_state,
)
from .objective import (
    DataInterpolant,
    ObjectiveBreakdown,
    ObjectiveWeights,
    _DayMarks,
    region_persons,
)
from .solver_cn import (Trajectory, _check_step, _check_tau, _day_levels, _unforced,
                        _whole_steps, assemble, run_from_state, sweep)
from . import solver_fem

BETA_MIN = 1e-8

CHI_NAMES = ("beta0", "beta1", "beta2", "kappa", "delta")

STUCK_WINDOW = 500          # draws without an acceptance before the sampler warns

ARMIJO_C = 1e-3
ARMIJO_SHRINK = 0.5
ALPHA_MIN = 1e-10
TOL = 1e-6
GTOL = 1e-12
MAX_SEED_STEP = 50.0        # persons, per-region initial-condition mode
MAX_INITIAL_STEP = 0.05     # infected fraction, per-cell initial-condition mode
FD_REL_STEP = 1e-5          # gradient_check's central-difference step, relative to max(|x|, 1e-2)


@dataclass
class Problem:
    """Everything a fit needs: geometry, model, data, weights, and defaults."""

    grid: GridSpec
    model: ModelKind
    masks: dict[str, RegionMask]
    district: RegionMask
    population: np.ndarray
    t_end: float
    tau: float
    weights: ObjectiveWeights
    data: DataInterpolant | None
    initial: ParameterVector
    backend: str = "cn"
    corrected: bool = False

    def __post_init__(self):
        _check_tau(self.tau)  # ParameterVector keeps kappa in [0, 1]
        if self.population.shape != self.grid.shape:
            raise DimensionError(f"population shape {self.population.shape} does not match grid "
                                 f"{self.grid.shape}")
        for name, mask in self.masks.items():
            if not mask.issubset(self.district):
                raise ParameterError(f"region '{name}' is not contained in the district mask")
        if self.backend not in ("cn", "fem-split"):
            raise ConfigError(f"unknown backend '{self.backend}'")
        if self.corrected and self.backend != "cn":
            raise ConfigError("the corrected step exists on the cn backend only",
                              key="solver.corrected")
        if self.t_end > self.initial.schedule.t_end + 1e-6:  # beta_at's tolerance
            raise ParameterError(f"the schedule window [0, {self.initial.schedule.t_end}] ends "
                                 f"before t_end={self.t_end}")
        marked = list(_day_levels(_whole_steps(self.t_end, self.tau), self.tau).values())
        if self.data is not None and self.data.days.tolist() != marked:
            raise ParameterError(f"data days {self.data.days[0]}..{self.data.days[-1]} do not "
                                 f"match the run's day marks 0..{marked[-1]}")

    @property
    def region_names(self) -> tuple[str, ...]:
        return tuple(sorted(self.masks))

    @property
    def param_names(self) -> tuple[str, ...]:
        return CHI_NAMES + tuple(f"I0_{name}" for name in self.region_names)

    def pack(self, params: ParameterVector) -> np.ndarray:
        seeds = [params.init_infected.get(name, 0.0) for name in self.region_names]
        return np.concatenate([params.chi, seeds])

    def unpack(self, vec: np.ndarray) -> ParameterVector:
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (len(self.param_names),):
            raise ParameterError(f"expected {len(self.param_names)} parameters, got {vec.shape}")
        seeds = dict(zip(self.region_names, vec[5:]))
        return self.initial.with_chi(vec[:5]).with_seeds(seeds)

    def in_bounds(self, vec: np.ndarray) -> bool:
        """Whether ``vec`` unpacks into valid parameters that seed a valid state."""
        try:
            self.build_u0(self.unpack(vec))
        except ParameterError:
            return False
        return True

    def project_chi(self, chi: np.ndarray) -> np.ndarray:
        out = chi.copy()
        out[:3] = np.maximum(out[:3], BETA_MIN)
        out[3] = min(max(out[3], 0.0), 1.0)
        out[4] = min(max(out[4], 0.0), 1.0)
        return out

    def build_u0(self, params: ParameterVector) -> np.ndarray:
        return initial_fractions(self.model, self.grid, self.masks, params, self.population)

    def simulate(
        self,
        params: ParameterVector,
        every_level: bool = False,
        u0_override: np.ndarray | None = None,
        on_day: Callable[[int, np.ndarray], Any] | None = None,
    ) -> Trajectory:
        """Forward run on the problem's backend, by default keeping level 0, whole days and the last.

        ``u0_override`` replaces the state built from the seed counts; ``every_level`` and
        ``on_day``, the runs' day hook, store as ``solver_cn._drive`` describes.
        """
        u0 = u0_override if u0_override is not None else self.build_u0(params)
        if self.backend == "fem-split":
            return solver_fem.run_fem_from_state(
                self.grid, u0, self.model, params.schedule, params.kappa,
                self.t_end, self.tau, every_level=every_level, on_day=on_day,
            )
        return run_from_state(
            self.grid, u0, self.model, params.schedule, params.kappa,
            self.t_end, self.tau, every_level=every_level, corrected=self.corrected,
            on_day=on_day,
        )

    def population_at(self, kappa: float, times: np.ndarray) -> np.ndarray:
        """The population diffused with ``kappa`` to each of ``times``, (len(times), ny, nx).

        On cn it takes the steps of tau a run takes, so ``times`` must start at 0 and lie on
        whole, non-decreasing steps (ParameterError otherwise); fem-split reads its exact flow.
        """
        _check_step(kappa, self.tau)
        if self.backend == "fem-split":
            asm = solver_fem.assemble_fem(self.grid)
            flows = [solver_fem._diffuse(asm, self.population, kappa, t) for t in times]
            return np.stack([flow.reshape(self.grid.shape) for flow in flows])
        levels = [_whole_steps(t, self.tau) for t in times]
        if not levels or levels[0] != 0 or np.any(np.diff(levels) < 0):
            raise ParameterError(f"times must start at 0 and not decrease, got {list(times)}")
        return _unforced(assemble(self.grid, kappa, self.tau), self.population, levels)

    def _require_data(self) -> DataInterpolant:
        if self.data is None:
            raise ConfigError("this problem was built without case data; cannot evaluate J")
        return self.data

    def _marked_run(self, params: ParameterVector, every_level: bool = False,
                    u0_override: np.ndarray | None = None) -> tuple[Trajectory, _DayMarks]:
        """A forward run that sums J's day marks at its day hook: the run and its marks."""
        marks = _DayMarks(params, self._require_data(), self.weights, self.model, self.grid.cell_area)
        traj = self.simulate(params, every_level=every_level, u0_override=u0_override,
                             on_day=marks.add)
        return traj, marks

    def objective(self, params: ParameterVector) -> float:
        """J at ``params``, its misfit summed at the run's day hook, so no day is stored."""
        return self._marked_run(params)[1].terms.total


@dataclass
class FitResult:
    """What both estimators return; see the module docstring for semantics."""

    params: ParameterVector
    init_fields: np.ndarray
    objective: float
    history: list[tuple[float, np.ndarray]]
    acceptance_rate: float | None = None
    posterior_std: dict[str, float] | None = None
    gradient_norms: list[float] | None = None
    n_evaluations: int = 0
    diagnostics: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Metropolis sampler
# ---------------------------------------------------------------------------

def _check_kinds(config, **kinds) -> None:
    """ConfigError keyed by the first field not of its kind; only a bool kind takes a bool."""
    for key, kind in kinds.items():
        value = getattr(config, key)
        if isinstance(value, bool) != (kind is bool) or not isinstance(value, kind):
            raise ConfigError(f"{value!r} has the wrong type ({type(value).__name__})", key=key)


@dataclass
class MetropolisConfig:
    draws: int = 2000
    step_scale: float | np.ndarray | None = None
    sigma: float | None = None
    seed: int = 0
    burn_in: float = 0.2

    def __post_init__(self):
        _check_kinds(self, draws=Integral, burn_in=Real, sigma=(Real, type(None)))
        if self.draws < 1:
            raise ConfigError(f"draws must be at least 1, got draws={self.draws}", key="draws")
        if not (0.0 <= self.burn_in < 1.0):
            raise ConfigError(f"burn_in must be a fraction in [0, 1), got {self.burn_in}", key="burn_in")
        if self.sigma is not None and not 0.0 < self.sigma < np.inf:
            raise ConfigError(f"sigma must be finite and positive, got {self.sigma}", key="sigma")
        if self.step_scale is not None and not all(
                isinstance(v, Real) and not isinstance(v, bool) and 0.0 < v < np.inf
                for v in np.ravel(np.asarray(self.step_scale, dtype=object))):
            raise ConfigError("step_scale must be a finite positive number or a list of them, "
                              f"got {self.step_scale!r}", key="step_scale")


def default_sigma(problem: Problem) -> float:
    """Sample std of the district-level daily detected incidence fraction."""
    series = problem._require_data().district_incidence_fraction()
    sigma = float(np.std(series, ddof=1)) if len(series) > 1 else 0.0
    if not np.isfinite(sigma) or sigma <= 0.0:
        raise ConfigError("data give a degenerate default sigma; set sigma explicitly", key="sigma")
    return sigma


def default_step_scale(x0: np.ndarray) -> np.ndarray:
    """Per-parameter proposal std: value/100, floored for near-zero entries."""
    scale = np.abs(x0) / 100.0
    floor = np.concatenate([np.full(5, 1e-4), np.full(len(x0) - 5, 0.25)])
    return np.maximum(scale, floor)


def metropolis_fit(problem: Problem, config: MetropolisConfig) -> FitResult:
    """Random-walk Metropolis over (chi, I0) with bounds enforced by rejection."""
    rng = np.random.default_rng(config.seed)
    x = problem.pack(problem.initial)
    dim = len(x)
    if config.step_scale is None:
        scale = default_step_scale(x)
    else:
        scale = np.asarray(config.step_scale, dtype=float)
        if scale.ndim > 1 or scale.size not in (1, dim):
            raise ConfigError(f"step_scale needs 1 or {dim} entries, got {scale.size}",
                              key="step_scale")
        scale = np.broadcast_to(scale, (dim,)).copy()
    sigma = config.sigma if config.sigma is not None else default_sigma(problem)

    j_cur = problem.objective(problem.unpack(x))
    n_eval = 1
    log = {
        "j_old": np.empty(config.draws),
        "j_new": np.full(config.draws, np.nan),
        "alpha": np.zeros(config.draws),
        "uniform": np.full(config.draws, np.nan),
        "accepted": np.zeros(config.draws, dtype=bool),
        "in_bounds": np.ones(config.draws, dtype=bool),
    }
    history: list[tuple[float, np.ndarray]] = []
    last_accept = -1
    warned_stuck = False

    for i in range(config.draws):
        log["j_old"][i] = j_cur
        prop = x + scale * rng.standard_normal(dim)
        if not problem.in_bounds(prop):
            log["in_bounds"][i] = False
        else:
            j_prop = problem.objective(problem.unpack(prop))
            n_eval += 1
            exponent = (j_cur ** 2 - j_prop ** 2) / (2.0 * sigma ** 2)
            alpha = 1.0 if exponent >= 0.0 else float(np.exp(max(exponent, -745.0)))
            u = rng.uniform()
            log["j_new"][i] = j_prop
            log["alpha"][i] = alpha
            log["uniform"][i] = u
            if u < alpha:
                x = prop
                j_cur = j_prop
                log["accepted"][i] = True
                last_accept = i
        history.append((j_cur, x.copy()))
        if not warned_stuck and i - last_accept >= STUCK_WINDOW:
            warnings.warn(
                f"no accepted proposal in {STUCK_WINDOW} draws; "
                "check step_scale and sigma",
                RuntimeWarning,
            )
            warned_stuck = True

    burn = int(config.burn_in * config.draws)
    n_accepted = int(log["accepted"].sum())
    kept = burn + np.flatnonzero(log["accepted"][burn:])
    diagnostics = {
        "decisions": log,
        "sigma": sigma,
        "step_scale": scale,
        "burn_in_draws": burn,
        "n_accepted": n_accepted,
        "stuck": warned_stuck,
    }
    if kept.size:
        sample = np.array([history[k][1] for k in kept])
        mean = sample.mean(axis=0)
        std = sample.std(axis=0, ddof=1) if kept.size > 1 else np.zeros(dim)
        diagnostics["mean_accepted_J"] = float(np.mean(log["j_new"][kept]))
    else:
        warnings.warn("no accepted draws after burn-in; reporting the last chain state", RuntimeWarning)
        mean, std = x.copy(), np.full(dim, np.nan)
        diagnostics["empty_posterior"] = True
    params_hat = problem.unpack(mean)
    j_hat = problem.objective(params_hat)
    n_eval += 1
    return FitResult(
        params=params_hat,
        init_fields=problem.build_u0(params_hat),
        objective=j_hat,
        history=history,
        acceptance_rate=n_accepted / config.draws,
        posterior_std=dict(zip(problem.param_names, std)),
        n_evaluations=n_eval,
        diagnostics=diagnostics,
    )


# ---------------------------------------------------------------------------
# Adjoint gradient
# ---------------------------------------------------------------------------

@dataclass
class AdjointGradient:
    """Gradient of J: the five chi components, per-region seed counts and dJ/du0.

    ``du0`` is all of dJ/du0, regularizer included, shape (m, ny, nx).
    """

    chi: np.ndarray
    seeds: np.ndarray
    du0: np.ndarray
    breakdown: ObjectiveBreakdown

    @property
    def full(self) -> np.ndarray:
        return np.concatenate([self.chi, self.seeds])


def _require_exact_adjoint(problem: Problem):
    """Refuse problems whose forward recursion the backward sweep does not transpose."""
    if problem.backend != "cn":
        raise ConfigError("adjoint gradients are only available on the cn backend")
    if problem.corrected:
        raise ConfigError(
            "adjoint gradients transpose the plain cn step only; "
            "the corrected step's gradient would be inexact",
            key="solver.corrected",
        )


def adjoint_gradient(
    problem: Problem,
    params: ParameterVector,
    run: tuple[Trajectory, _DayMarks] | None = None,
) -> AdjointGradient:
    """Exact gradient of the discrete J by the chain rule.

    ``run`` is ``problem._marked_run(params, every_level=True)``, made here when absent.
    Its marks give J's terms and J's derivatives at fixed states, solver_cn.sweep
    carries their dJ/dphi impulses back through the run, and dJ/du0 chains through
    seed_jacobian to the seed gradients.
    """
    _require_exact_adjoint(problem)
    traj, marks = run if run is not None else problem._marked_run(params, every_level=True)
    g_chi, g_u0 = marks.gradient()
    dq0, g_beta, g_kappa = sweep(traj, params.schedule, params.kappa, marks.impulse)
    du0 = dq0 + g_u0
    model, grid, pop = problem.model, problem.grid, problem.population
    g_seeds = np.array([
        float((du0 * seed_jacobian(model, grid, problem.masks[name], pop)).sum())
        for name in problem.region_names
    ])
    return AdjointGradient(g_chi + np.r_[g_beta, g_kappa, 0.0], g_seeds, du0, marks.terms)


def gradient_check(
    problem: Problem,
    params: ParameterVector,
    include_seeds: bool = False,
) -> dict:
    """Adjoint gradient vs central finite differences of Problem.objective.

    Returns per-component adjoint and FD values with two error figures.
    ``rel_err`` is |adj - FD| / |FD|, which is large for a correct component
    near zero.  ``scaled_err`` is |adj - FD| * s / max(|FD| * s) with
    s = max(|x|, 1e-2), each component's FD step over FD_REL_STEP, so every
    component is measured against the largest sensitivity to a relative change.
    Evaluation points must keep chi strictly inside the bounds so that the
    two-sided stencil stays admissible.
    """
    grad = adjoint_gradient(problem, params)
    adjoint = grad.full if include_seeds else grad.chi
    names = problem.param_names[:len(adjoint)]
    x0 = problem.pack(params)
    size = np.maximum(np.abs(x0[:len(names)]), 1e-2)
    fd = np.empty(len(names))
    for i in range(len(names)):
        h = FD_REL_STEP * size[i]
        plus, minus = x0.copy(), x0.copy()
        plus[i] += h
        minus[i] -= h
        if not (problem.in_bounds(plus) and problem.in_bounds(minus)):
            raise ParameterError(
                f"FD stencil for '{names[i]}' leaves the bounds; move the evaluation point inward"
            )
        fd[i] = (problem.objective(problem.unpack(plus))
                 - problem.objective(problem.unpack(minus))) / (2.0 * h)
    err = np.abs(adjoint - fd)
    return {
        "names": names,
        "adjoint": adjoint,
        "fd": fd,
        "rel_err": err / np.maximum(np.abs(fd), 1e-12),
        "scaled_err": err * size / max(float((np.abs(fd) * size).max()), 1e-300),
    }


# ---------------------------------------------------------------------------
# Adjoint fit (forward-backward sweep with dense BFGS + Armijo)
# ---------------------------------------------------------------------------

@dataclass
class AdjointConfig:
    """Which unknowns the fit moves and for how many iterations.

    ``optimize_initial`` adds the initial infected values to chi, as
    per-region seed counts or, with ``per_cell_initial``, as the infected
    fraction of every cell.  The search settings are module constants.
    """

    max_outer: int = 50
    optimize_initial: bool = False
    per_cell_initial: bool = False

    def __post_init__(self):
        _check_kinds(self, max_outer=Integral, optimize_initial=bool, per_cell_initial=bool)
        if self.max_outer < 1:
            raise ConfigError(f"max_outer must be >= 1, got {self.max_outer}", key="max_outer")


def _bfgs_update(H: np.ndarray | None, s: np.ndarray, y: np.ndarray) -> np.ndarray | None:
    """BFGS's update of chi's inverse Hessian H by the step s and gradient change y.

    This is (I - rho s y') H (I - rho y s') + rho s s', rho = 1/s'y (Nocedal & Wright,
    eq. 6.17), multiplied out so that a symmetric H stays exactly symmetric.  A pair
    with s'y <= 1e-16 s's returns H itself: Armijo alone does not make s'y positive,
    and the skip keeps H positive definite.  H is None until the first accepted pair,
    which starts it at (s'y / y'y) I (eq. 6.20).
    """
    sy = float(s @ y)
    if sy <= 1e-16 * float(s @ s):
        return H
    if H is None:
        H = (sy / float(y @ y)) * np.eye(s.size)
    Hy = H @ y
    return H + ((sy + y @ Hy) / sy * np.outer(s, s) - (np.outer(Hy, s) + np.outer(s, Hy))) / sy


def adjoint_fit(problem: Problem, config: AdjointConfig) -> FitResult:
    """Forward-backward sweeps with dense BFGS on chi and Armijo backtracking.

    When ``optimize_initial`` is on (requires w2 > 0) the initial condition
    moves along s2 = target - x in the same line search.  The iterate x is
    the per-region seed counts by default and the infected-fraction field
    with ``per_cell_initial``; its target comes from u0_tilde.
    """
    if config.optimize_initial and problem.weights.w2 <= 0.0:
        raise ConfigError("initial-condition optimization requires w2 > 0", key="w2")
    if config.per_cell_initial and not config.optimize_initial:
        raise ConfigError("per_cell_initial needs optimize_initial enabled", key="per_cell_initial")
    _require_exact_adjoint(problem)

    model, names = problem.model, problem.region_names
    masks = [problem.masks[name] for name in names]
    per_cell = config.per_cell_initial
    params = problem.initial
    u0 = problem.build_u0(params)
    if per_cell:
        x, upper, cap = u0[model.infected_index], max_seed_fraction(model), MAX_INITIAL_STEP
    else:
        x, upper, cap = problem.pack(params)[5:], np.inf, MAX_SEED_STEP

    def place(base: ParameterVector, x_t: np.ndarray) -> tuple[ParameterVector, np.ndarray]:
        """The parameters and initial state of iterate x_t; a field reports its region totals."""
        if per_cell:
            counts = region_persons(x_t, problem.population, masks, problem.grid)
            return base.with_seeds(dict(zip(names, counts))), seed_state(model, x_t)
        trial = base.with_seeds(dict(zip(names, x_t)))
        return trial, problem.build_u0(trial)

    grad = adjoint_gradient(problem, params, problem._marked_run(params, every_level=True, u0_override=u0))
    j_cur = grad.breakdown.total
    n_eval = 1
    history = [(j_cur, problem.pack(params))]
    gnorms = [float(np.linalg.norm(grad.full))]
    diagnostics: dict = {"resets": 0, "skipped_updates": 0, "unstable_trials": 0,
                         "line_search_failed": False, "stop": "max_outer"}
    H = None  # chi's inverse Hessian, from the first accepted curvature pair on

    for _ in range(config.max_outer):
        if gnorms[-1] <= GTOL:
            diagnostics["stop"] = "stationary"
            break
        g_chi = grad.chi
        steepest = -g_chi / max(1.0, float(np.linalg.norm(g_chi)))  # at most 1 long in chi
        s1 = steepest if H is None else -(H @ g_chi)
        if float(s1 @ g_chi) >= 0.0:
            s1 = steepest
            diagnostics["resets"] += 1
        slope = float(s1 @ g_chi)

        s2 = np.zeros_like(x)
        if config.optimize_initial:
            i, area_w2 = model.infected_index, problem.grid.cell_area * problem.weights.w2
            frac = u0[i] - grad.du0[i] / area_w2  # u0_tilde, the optimality target
            if per_cell:
                target = np.clip(frac, 0.0, upper)
                g_x = np.tensordot(seed_direction(model), grad.du0, axes=1)
            else:
                counts = region_persons(frac, problem.population, masks, problem.grid)
                target = np.maximum(counts, 0.0)
                g_x = grad.seeds
            s2 = target - x
            peak = float(np.abs(s2).max())
            if peak > cap:
                s2 *= cap / peak
            slope2 = float(np.vdot(s2, g_x))
            if slope2 > 0.0:
                s2[...] = 0.0
            else:
                slope += slope2

        alpha = 1.0
        while alpha >= ALPHA_MIN:
            x_t = np.clip(x + alpha * s2, 0.0, upper)
            trial, u0_t = place(params.with_chi(problem.project_chi(params.chi + alpha * s1)), x_t)
            # every level's force rows are stored so that an accepted trial's run feeds the
            # gradient; the last trial's run is dropped first, so that two are never held at once
            run_t = None
            n_eval += 1
            try:
                run_t = problem._marked_run(trial, every_level=True, u0_override=u0_t)
            except StabilityError:  # a trial step too long for the guard fails like a rise of J
                diagnostics["unstable_trials"] += 1
            else:
                j_t = run_t[1].terms.total
                if j_t <= j_cur + ARMIJO_C * alpha * slope:
                    break
            alpha *= ARMIJO_SHRINK
        else:
            diagnostics["line_search_failed"] = True
            diagnostics["stop"] = "line_search"
            break

        j_prev, chi_prev, g_prev = j_cur, params.chi, g_chi
        params, u0, x, j_cur = trial, u0_t, x_t, j_t
        history.append((j_cur, problem.pack(params)))

        if abs(j_prev - j_cur) <= TOL * max(abs(j_prev), 1e-300):
            diagnostics["stop"] = "tol"
            break

        grad = adjoint_gradient(problem, params, run_t)
        gnorms.append(float(np.linalg.norm(grad.full)))
        H_next = _bfgs_update(H, params.chi - chi_prev, grad.chi - g_prev)
        diagnostics["skipped_updates"] += H_next is H
        H = H_next

    return FitResult(
        params=params,
        init_fields=u0,
        objective=j_cur,
        history=history,
        gradient_norms=gnorms,
        n_evaluations=n_eval,
        diagnostics=diagnostics,
    )
