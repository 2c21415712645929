"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints a single ``[criterion N] PASS/FAIL`` line (past pytest's
capture) so a full run doubles as a release checklist; the assertion mirrors
the printed condition.  Criterion 7 fits user-supplied real case data and is
skipped unless the ``EPIDIFFUSE_USER_CASES`` environment variable points at a
per-day per-region case file covering 2020-10-01 .. 2021-02-25.
"""

import dataclasses
import os
import time

import numpy as np
import pytest

from epidiffuse import (
    AdjointConfig,
    GridSpec,
    MetropolisConfig,
    ModelKind,
    ObjectiveWeights,
    ParameterVector,
    Problem,
    RateSchedule,
    RegionMask,
    adjoint_fit,
    conservation_drift,
    demo_geometry,
    demo_population,
    distribute_uniform,
    generate_synthetic,
    gradient_check,
    interpolate_data,
    metropolis_fit,
    read_cases,
    region_total,
    run_from_state,
    temporal_refinement_study,
    union_mask,
)
from epidiffuse import solver_cn
from epidiffuse.grid import _from_eigen
from epidiffuse.solver_fem import run_fem_from_state

from conftest import START, make_twin

try:
    from numba import njit
except ImportError:  # the oracle below still runs as plain Python, just slower
    def njit(func):
        return func


def report(capsys, num: int, ok: bool, detail: str) -> None:
    """Print the per-criterion verdict, then assert it."""
    with capsys.disabled():
        print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_population_mass_is_conserved(capsys):
    """Pure-diffusion population transport keeps the total mass constant."""
    grid, masks, pops = demo_geometry(101, 101)
    population = demo_population(grid, masks, pops)
    params = ParameterVector(
        RateSchedule((0.2, 0.1, 0.1), (32.0, 77.0), 148.0), 0.1, 0.5,
        {"BA": 50.0, "BI": 25.0, "HR": 15.0, "IO": 100.0},
    )
    problem = Problem(
        grid=grid, model=ModelKind.SEIR, masks=masks, district=union_mask(masks.values()),
        population=population, t_end=148.0, tau=0.1, weights=ObjectiveWeights(),
        data=None, initial=params,
    )
    t0 = time.perf_counter()
    traj = problem.simulate(params)
    mass = problem.population_at(params.kappa, traj.times).sum(axis=(1, 2)) * grid.cell_area
    drift = conservation_drift(mass)
    wall = time.perf_counter() - t0
    report(capsys, 1, drift < 1e-9 and wall < 30.0,
           f"relative mass drift {drift:.2e} over 148 days on 101x101 "
           f"(limit 1e-9), {wall:.1f}s (limit 30s)")


@njit
def _rk4_seir(s0, e0, i0, betas, bps, gamma, theta, t_end, tau, refine):
    """Classical RK4 on the well-mixed three-compartment system.

    Integrates with step tau/refine and records the state at every tau mark;
    the transmission-rate plateau is re-looked-up at each RK stage time.
    """
    n_marks = int(round(t_end / tau)) + 1
    out = np.empty((n_marks, 3))
    out[0, 0], out[0, 1], out[0, 2] = s0, e0, i0
    dt = tau / refine
    s, e, i = s0, e0, i0
    for m in range(1, n_marks):
        t = (m - 1) * tau
        for k in range(refine):
            tk = t + k * dt
            if tk < bps[0] - 1e-12:
                beta = betas[0]
            elif tk < bps[1] - 1e-12:
                beta = betas[1]
            else:
                beta = betas[2]
            k1s = -beta * s * i
            k1e = beta * s * i - theta * e
            k1i = theta * e - gamma * i
            s2 = s + 0.5 * dt * k1s
            e2 = e + 0.5 * dt * k1e
            i2 = i + 0.5 * dt * k1i
            k2s = -beta * s2 * i2
            k2e = beta * s2 * i2 - theta * e2
            k2i = theta * e2 - gamma * i2
            s3 = s + 0.5 * dt * k2s
            e3 = e + 0.5 * dt * k2e
            i3 = i + 0.5 * dt * k2i
            k3s = -beta * s3 * i3
            k3e = beta * s3 * i3 - theta * e3
            k3i = theta * e3 - gamma * i3
            s4 = s + dt * k3s
            e4 = e + dt * k3e
            i4 = i + dt * k3i
            k4s = -beta * s4 * i4
            k4e = beta * s4 * i4 - theta * e4
            k4i = theta * e4 - gamma * i4
            s += dt / 6.0 * (k1s + 2.0 * k2s + 2.0 * k3s + k4s)
            e += dt / 6.0 * (k1e + 2.0 * k2e + 2.0 * k3e + k4e)
            i += dt / 6.0 * (k1i + 2.0 * k2i + 2.0 * k3i + k4i)
        out[m, 0], out[m, 1], out[m, 2] = s, e, i
    return out


def test_criterion_2_flat_run_reduces_to_the_ode(capsys, monkeypatch):
    """With kappa = 0 and a uniform start, every cell follows the plain ODE.

    S, E and I are compared at every level.  The every-level run holds the
    full state at level 0 and the force rows, S and I, at every later level.
    A step reads E back only at the whole days, so E after level 0 is read
    back here from the coefficients each step carries, through the run's own
    transform.  The negativity guard sees those read-outs: at kappa = 0 none
    is clipped.
    """
    seen, lows, carried = [], [], []
    check_sign, step = solver_cn._check_sign, solver_cn.CNWorkspace._step

    def recording_check(u, t, remedy):
        seen.append(u[:, 0].copy())
        lows.append(check_sign(u, t, remedy))
        return lows[-1]

    def recording_step(ws, x, source=None, rows=slice(None), transpose=False):
        carried.append(_from_eigen(step(ws, x, source, rows, transpose), ws.basis)[:, 0])
        return x

    monkeypatch.setattr(solver_cn, "_check_sign", recording_check)
    monkeypatch.setattr(solver_cn.CNWorkspace, "_step", recording_step)
    nx = 5
    grid = GridSpec(nx, nx, 4.0, 4.0)
    schedule = RateSchedule((0.2, 0.1, 0.1), (32.0, 77.0), 150.0)
    i0, tau, t_end = 0.01, 0.01, 150.0
    u0 = np.zeros((3, nx, nx))
    u0[0] = 1.0 - 1.5 * i0
    u0[1] = 0.5 * i0
    u0[2] = i0
    traj = run_from_state(grid, u0, ModelKind.SEIR, schedule, 0.0, t_end, tau, every_level=True)
    ref = _rk4_seir(1.0 - 1.5 * i0, 0.5 * i0, i0,
                    np.asarray(schedule.betas), np.asarray(schedule.breakpoints),
                    schedule.gamma, schedule.theta, t_end, tau, 100)
    assert min(lows) >= 0.0 and len(seen) == len(ref) - 1
    levels = np.empty_like(ref)
    levels[0] = u0[:, 0, 0]
    levels[1:] = carried
    stored = levels.copy()
    stored[0] = traj.states[0, :, 0, 0]
    stored[1:, 0::2] = traj.between[:, :, 0, 0]
    # the run stored and the guard saw exactly the carried read-outs; S and I are read
    # from the store, E from the whole days' read-outs and the carried coefficients
    assert stored.tobytes() == levels.tobytes()
    assert [len(u) for u in seen] == [3 if n % 100 == 0 else 2 for n in range(1, len(ref))]
    assert all(u.tobytes() == levels[n, ::1 if len(u) == 3 else 2].tobytes()
               for n, u in enumerate(seen, 1))
    err = float(np.abs(stored - ref).max())
    report(capsys, 2, err < 1e-4,
           f"max abs state error {err:.2e} vs RK4 oracle at tau/100 over "
           f"150 days (limit 1e-4)")


def test_criterion_3_adjoint_gradient_matches_finite_differences(tmp_path, capsys):
    """All five smooth-parameter gradient components agree with central FD."""
    chi_truth = np.array([0.2, 0.1, 0.1, 0.1, 0.5])
    weights = ObjectiveWeights(1.0, 1e-5, 1e-5, chi_ref=chi_truth)
    problem, truth, _ = make_twin(tmp_path, weights=weights)
    params = truth.with_chi(chi_truth * np.array([1.1, 0.9, 1.2, 0.8, 1.1]))
    t0 = time.perf_counter()
    check = gradient_check(problem, params)
    wall = time.perf_counter() - t0
    worst = float(check["rel_err"].max())
    ok = len(check["names"]) == 5 and worst < 1e-3 and wall < 60.0
    report(capsys, 3, ok,
           f"worst relative error over 5 components {worst:.2e} on a 9x9 "
           f"20-day problem with w1=w2=1e-5 (limit 1e-3), {wall:.1f}s (limit 60s)")


def test_criterion_4_cn_and_fem_backends_agree(capsys):
    """Both solvers produce the same region-aggregated daily trajectories."""
    nx = 17
    grid, masks, _ = demo_geometry(nx, nx)
    x = np.linspace(0.0, grid.Lx, nx)
    y = np.linspace(0.0, grid.Ly, nx)
    X, Y = np.meshgrid(x, y)
    bump = 0.01 + 0.04 * (0.5 * (1.0 + np.cos(np.pi * X / grid.Lx))
                          * 0.5 * (1.0 + np.cos(np.pi * Y / grid.Ly)))
    u0 = np.zeros((3, nx, nx))
    u0[2] = bump
    u0[1] = 0.5 * bump
    u0[0] = 1.0 - 1.5 * bump
    schedule = RateSchedule((0.2, 0.1, 0.1), (10.0, 20.0), 30.0)
    cn = run_from_state(grid, u0, ModelKind.SEIR, schedule, 0.1, 30.0, 0.1,
                        every_level=False)
    fem = run_fem_from_state(grid, u0, ModelKind.SEIR, schedule, 0.1, 30.0, 0.1,
                             every_level=False)

    def infected_total(traj, mask):
        return region_total(traj.states[:, traj.model.infected_index], mask, grid)

    worst = max(
        float(np.abs(infected_total(cn, m) - infected_total(fem, m)).max()
              / np.abs(infected_total(cn, m)).max())
        for m in masks.values()
    )
    report(capsys, 4, worst < 0.02,
           f"per-region daily infected totals differ by at most {worst:.2%} "
           f"over 30 days at kappa=0.1 (limit 2%)")


def test_criterion_5_temporal_convergence_orders(capsys):
    """Refinement orders: ~2 for pure diffusion, ~1 for the coupled problem."""
    grid, _, _ = demo_geometry(17, 17)
    schedule = RateSchedule((0.2, 0.1, 0.1), (1.2, 2.4), 4.0)
    diffusion = temporal_refinement_study("diffusion", grid, ModelKind.SEIR,
                                          schedule, 0.1, 4.0)
    coupled = temporal_refinement_study("coupled", grid, ModelKind.SEIR,
                                        schedule, 0.1, 4.0)
    d_min = float(np.min(diffusion["orders"]))
    c_min = float(np.min(coupled["orders"]))
    report(capsys, 5, d_min >= 1.8 and c_min >= 0.9,
           f"observed orders: diffusion {d_min:.2f} (limit 1.8), "
           f"coupled {c_min:.2f} (limit 0.9)")


def _tiled_twin(tmp):
    """33x33 twin: a 4x4 tiling of small regions on an 8 km square.

    Region-aggregated data only see the spread once it crosses region
    borders, so small tiles (about 0.5 km of cells per side) together with a
    seed gradient across the tiling are what make kappa identifiable; the
    seeds are large enough that susceptible depletion pins delta.
    """
    L, n_tiles, t_end, tau = 8.0, 4, 148.0, 0.25
    nx = 33
    grid = GridSpec(nx, nx, L, L)
    edges = np.linspace(0, nx, n_tiles + 1).astype(int)
    base_pop = np.random.default_rng(7).uniform(3000.0, 9000.0,
                                                size=(n_tiles, n_tiles))
    masks, pops, seeds = {}, {}, {}
    for iy in range(n_tiles):
        for ix in range(n_tiles):
            name = f"R{iy}{ix}"
            cells = np.zeros((nx, nx), dtype=bool)
            cells[edges[iy]:edges[iy + 1], edges[ix]:edges[ix + 1]] = True
            masks[name] = RegionMask(name, cells)
            pops[name] = float(base_pop[iy, ix])
            seeds[name] = 4.0 * (80.0 * np.exp(-0.9 * (iy + ix)) + 2.0)
    population = np.zeros(grid.shape)
    for name, mask in masks.items():
        population += distribute_uniform(pops[name], mask, grid)
    truth = ParameterVector(
        RateSchedule((0.2, 0.1, 0.1), (32.0, 77.0), t_end), 0.1, 0.5, seeds
    )
    paths = generate_synthetic(truth, grid, masks, population, ModelKind.SEIR,
                               t_end, tau, 0.05, 42, tmp)
    series = read_cases(paths["cases"], START, int(t_end), sorted(masks))
    data = interpolate_data(series, masks, grid, population)
    problem = Problem(
        grid=grid, model=ModelKind.SEIR, masks=masks,
        district=union_mask(masks.values()), population=population,
        t_end=t_end, tau=tau, weights=ObjectiveWeights(1.0, 0.0, 0.0),
        data=data, initial=truth,
    )
    return problem, truth


def test_criterion_6_twin_recovery_by_both_estimators(tmp_path, capsys):
    """Both estimators recover beta/kappa/delta from 5%-noise twin data."""
    t0 = time.perf_counter()
    problem, truth = _tiled_twin(tmp_path)
    start = ParameterVector(
        RateSchedule((0.24, 0.085, 0.115), (32.0, 77.0), 148.0),
        0.13, 0.65, dict(truth.init_infected),
    )
    prob_fit = dataclasses.replace(problem, initial=start)

    adj = adjoint_fit(prob_fit, AdjointConfig(max_outer=120))
    js = np.array([j for j, _ in adj.history])
    adj_monotone = bool((np.diff(js) <= 0.0).all())
    adj_rel = np.abs(adj.params.chi - truth.chi) / truth.chi

    met = metropolis_fit(prob_fit, MetropolisConfig(draws=2000, sigma=2e-5,
                                                    seed=11, burn_in=0.5))
    met_rel = np.abs(met.params.chi - truth.chi) / truth.chi
    wall = time.perf_counter() - t0

    ok = (
        adj_monotone
        and (adj_rel[:3] < 0.10).all() and (adj_rel[3:] < 0.25).all()
        and (met_rel[:3] < 0.10).all() and (met_rel[3:] < 0.25).all()
        and 0.1 <= met.acceptance_rate <= 0.7
        and wall < 600.0
    )
    detail = (
        f"adjoint beta errs {adj_rel[0]:.1%}/{adj_rel[1]:.1%}/{adj_rel[2]:.1%} "
        f"(limit 10%), kappa {adj_rel[3]:.1%}, delta {adj_rel[4]:.1%} "
        f"(limit 25%), J non-increasing={adj_monotone}; metropolis beta errs "
        f"{met_rel[0]:.1%}/{met_rel[1]:.1%}/{met_rel[2]:.1%}, "
        f"kappa {met_rel[3]:.1%}, delta {met_rel[4]:.1%}, acceptance "
        f"{met.acceptance_rate:.2f} (need 0.1..0.7); {wall:.0f}s (limit 600s)"
    )
    report(capsys, 6, ok, detail)


def test_criterion_7_fit_shape_on_real_case_data(capsys):
    """Optional: fit user-supplied district data and check the known shape.

    The fitted transmission rate must drop at the first breakpoint and stay
    low after the second (beta0 > beta1 ~ beta2) with a detection rate below
    0.6.  Point values depend on the exact data release, so they are printed
    for comparison rather than asserted.
    """
    cases_path = os.environ.get("EPIDIFFUSE_USER_CASES")
    if not cases_path:
        with capsys.disabled():
            print("\n[criterion 7] SKIP: set EPIDIFFUSE_USER_CASES=<cases.csv> "
                  "(per-day per-region counts for BA/BI/HR/IO, "
                  "2020-10-01..2021-02-25) to run the real-data check")
        pytest.skip("needs user-supplied case data")
    t_end = 147.0  # 2020-10-01 .. 2021-02-25 inclusive
    grid, masks, pops = demo_geometry(101, 101)
    population = demo_population(grid, masks, pops)
    series = read_cases(cases_path, START, int(t_end), sorted(masks))
    data = interpolate_data(series, masks, grid, population)
    # invert the day-0 detection relation c = delta*beta*A*I0 under the
    # initial guess for a starting seed; optimize_initial refines it
    beta0, delta0 = 0.2, 0.5
    seeds = {}
    for name, mask in masks.items():
        pop_k = region_total(population, mask, grid)
        inferred = float(series[name].new_cases[0]) / (delta0 * beta0 * mask.area(grid))
        seeds[name] = float(np.clip(inferred, 1.0, 0.02 * pop_k))
    initial = ParameterVector(
        RateSchedule((beta0, 0.1, 0.1), (32.0, 77.0), t_end), 0.1, delta0, seeds
    )
    problem = Problem(
        grid=grid, model=ModelKind.SEIR, masks=masks,
        district=union_mask(masks.values()), population=population,
        t_end=t_end, tau=0.5,
        weights=ObjectiveWeights(1.0, 1e-5, 1e-5, chi_ref=initial.chi),
        data=data, initial=initial,
    )
    res = adjoint_fit(problem, AdjointConfig(max_outer=40, optimize_initial=True))
    b0, b1, b2, kappa, delta = res.params.chi
    ok = b0 > b1 and abs(b1 - b2) / b1 < 0.25 and delta < 0.6
    report(capsys, 7, ok,
           f"beta0={b0:.4f} beta1={b1:.4f} beta2={b2:.4f} kappa={kappa:.4f} "
           f"delta={delta:.4f} J={res.objective:.4g} (need beta0>beta1, "
           f"|beta1-beta2|/beta1<0.25, delta<0.6)")


def test_criterion_8_metropolis_decisions_replay_exactly(tmp_path, capsys):
    """Every decision of a logged 10,000-draw chain reproduces offline.

    The replay regenerates the proposal and uniform streams from the chain
    seed, re-applies the acceptance rule to the logged objective values and
    demands bitwise agreement with the logged alpha, uniform and verdict,
    including the out-of-bounds rejections that never evaluate J.
    """
    problem, truth, _ = make_twin(tmp_path, t_end=10.0, tau=0.25,
                                  breakpoints=(3.0, 7.0))
    draws = 10_000
    step = np.array([4e-3, 4e-3, 4e-3, 0.05, 0.03, 4.0, 4.0, 4.0, 4.0])
    config = MetropolisConfig(draws=draws, step_scale=step, sigma=1e-5, seed=5)
    res = metropolis_fit(problem, config)
    log = res.diagnostics["decisions"]
    sigma = res.diagnostics["sigma"]
    scale = res.diagnostics["step_scale"]

    rng = np.random.default_rng(config.seed)
    x = problem.pack(problem.initial)
    j_cur = problem.objective(problem.unpack(x))
    mismatches = []
    for i in range(draws):
        ok = log["j_old"][i] == j_cur
        prop = x + scale * rng.standard_normal(len(x))
        inb = problem.in_bounds(prop)
        ok &= inb == log["in_bounds"][i]
        if not inb:
            ok &= not log["accepted"][i]
            ok &= np.isnan(log["j_new"][i]) and np.isnan(log["uniform"][i])
            ok &= log["alpha"][i] == 0.0
        else:
            j_prop = log["j_new"][i]
            exponent = (j_cur ** 2 - j_prop ** 2) / (2.0 * sigma ** 2)
            alpha = 1.0 if exponent >= 0.0 else float(np.exp(max(exponent, -745.0)))
            u = rng.uniform()
            ok &= alpha == log["alpha"][i] and u == log["uniform"][i]
            ok &= bool(log["accepted"][i]) == (u < alpha)
            if u < alpha:
                x, j_cur = prop, j_prop
        if not ok:
            mismatches.append(i)

    n_acc = int(log["accepted"].sum())
    n_oob = int((~log["in_bounds"]).sum())
    n_rej = draws - n_acc - n_oob
    covered = n_acc > 0 and n_rej > 0 and n_oob > 0
    report(capsys, 8, not mismatches and covered,
           f"{draws} decisions replayed with {len(mismatches)} discrepancies "
           f"({n_acc} accepted, {n_rej} rejected, {n_oob} out-of-bounds)")
