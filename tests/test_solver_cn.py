"""Tests for the semi-implicit Crank-Nicolson stepper and trajectories."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from epidiffuse.errors import (
    DimensionError,
    ParameterError,
    StabilityError,
)
from epidiffuse.estimate import Problem
from epidiffuse.grid import (
    GridSpec,
    RegionMask,
    _from_eigen,
    _to_eigen,
    neumann_eigenbasis,
    region_total,
    union_mask,
)
from epidiffuse.models import (
    ModelKind,
    ParameterVector,
    RateSchedule,
    beta_at,
    initial_fractions,
    reaction_split,
    seed_state,
    transmission_bilinear,
    transmission_derivative,
)
from epidiffuse import solver_cn, solver_fem
from epidiffuse.objective import ObjectiveWeights
from epidiffuse.solver_cn import (
    assemble,
    conservation_drift,
    run_from_state,
    temporal_refinement_study,
)
from epidiffuse.solver_fem import run_fem_from_state

from oracles import dense_operators, laplacian_operator, reaction

SCHED = RateSchedule((0.2, 0.1, 0.3), (10.0, 20.0), 40.0)


def physical_step(ws, u, r=None, transpose=False):
    """The carried step seen in physical space: Q ws._step(Q^T u, Q^T r, transpose=transpose)."""
    x = _to_eigen(u, ws.basis)
    source = None if r is None else _to_eigen(r, ws.basis)
    return _from_eigen(ws._step(x, source, transpose=transpose), ws.basis)


def population_of(traj, kappa, pop):
    """The population diffused with kappa to the run's stored levels (Problem.population_at's rule)."""
    levels = np.rint(traj.times / traj.tau).astype(int).tolist()
    return solver_cn._unforced(assemble(traj.grid, kappa, traj.tau), pop, levels)


def dense_step(A, B, tau, u, K, r):
    """A^{-1}(B u + tau (K u + r))."""
    return np.linalg.solve(A, B @ u.T + tau * (K @ u + r).T).T


class TestAssemble:
    def test_A_plus_B_is_twice_identity(self):
        grid = GridSpec(5, 4, 1.0, 1.0)
        ws = assemble(grid, 0.3, 0.25, (np.zeros((2, 2)), np.zeros(2)))
        A, B = dense_operators(grid, 0.3, 0.25)
        npt.assert_allclose(A + B, 2.0 * np.eye(grid.n_cells), atol=1e-14)
        # the step eliminates B through A + B = 2 I: b = 2 - 1/gain is B in the basis
        u = np.random.default_rng(3).normal(size=(2, grid.n_cells))
        npt.assert_allclose(_from_eigen((2.0 - 1.0 / ws.gain) * _to_eigen(u, ws.basis), ws.basis),
                            (B @ u.T).T, atol=1e-14)
        expected = np.linalg.solve(A, B @ u.T).T
        npt.assert_allclose(physical_step(ws, u), expected, atol=1e-14)

    def test_solve_inverts_A(self):
        rng = np.random.default_rng(1)
        grid = GridSpec(5, 4, 1.0, 1.0)
        ws = assemble(grid, 0.3, 0.25)
        A, _ = dense_operators(grid, 0.3, 0.25)
        rhs = rng.normal(size=(3, grid.n_cells))
        solved = _from_eigen(ws.gain * _to_eigen(rhs, ws.basis), ws.basis)
        npt.assert_allclose(A @ solved.T, rhs.T, atol=1e-12)

    def test_trivial_workspace(self):
        """At kappa = 0 the step is explicit Euler."""
        grid = GridSpec(4, 4, 1.0, 1.0)
        tau = 0.5
        K = np.array([[-0.3, 0.0], [0.3, -0.1]])
        ws = assemble(grid, 0.0, tau, (K, np.zeros(2)))
        npt.assert_array_equal(ws.gain, 1.0)
        assert (ws.diag == (1.0 + tau * np.diag(K))[:, None]).all()
        x = np.arange(2 * grid.n_cells, dtype=float).reshape(2, -1)
        r = np.ones((2, grid.n_cells))
        # (I + tau K) x + tau r, each row's products summed in column order
        euler = np.eye(2) + tau * K
        expected = euler[:, :1] * x[0] + euler[:, 1:] * x[1] + r * tau
        npt.assert_array_equal(ws._step(x.copy(), tau * r), expected)

    def test_parameter_validation(self):
        grid = GridSpec(4, 4, 1.0, 1.0)
        with pytest.raises(ParameterError):
            assemble(grid, -0.1, 0.5)
        with pytest.raises(ParameterError):
            assemble(grid, 0.1, 0.0)
        with pytest.raises(ParameterError):
            assemble(grid, 0.1, 1.5)
        assemble(grid, 0.1, 1.0)


class TestStepForward:
    def test_matches_dense_reference(self):
        """Stored levels equal dense steps u <- A^{-1} (B u + tau f(u)), p <- A^{-1} B p.

        Every model over four half-day steps of which only the whole days are
        stored, and the population formed at those stored levels alone.
        """
        rng = np.random.default_rng(9)
        grid = GridSpec(6, 5, 1.2, 0.8)
        kappa, tau, steps, every = 0.15, 0.5, 4, 2
        A, B = dense_operators(grid, kappa, tau)
        for model in ModelKind:
            m = model.n_compartments
            u = rng.uniform(0.05, 0.3, size=(m,) + grid.shape)
            if m > 1:
                u[0] = 1.0 - u[1:].sum(axis=0)
            pop = rng.uniform(100.0, 900.0, size=grid.shape)
            expected, exp_pop = [u.reshape(m, -1)], [pop.ravel()]
            for n in range(steps):
                f = reaction(model, expected[-1], n * tau, SCHED)
                rhs = B @ expected[-1].T + tau * f.T
                expected.append(np.linalg.solve(A, rhs).T)
                exp_pop.append(np.linalg.solve(A, B @ exp_pop[-1]))
            expected = np.array(expected[::every]).reshape((-1, m) + grid.shape)
            exp_pop = np.array(exp_pop[::every]).reshape((-1,) + grid.shape)
            out = run_from_state(grid, u, model, SCHED, kappa, steps * tau, tau,
                                 every_level=False)
            npt.assert_allclose(out.states, expected, rtol=0.0, atol=1e-12)
            npt.assert_array_equal(out.states[0], u)
            npt.assert_allclose(out.times, [0.0, 1.0, 2.0])
            npt.assert_allclose(population_of(out, kappa, pop), exp_pop, rtol=1e-12)

    @pytest.mark.parametrize("run", [run_from_state, run_fem_from_state])
    def test_stored_levels_are_clipped_read_outs(self, monkeypatch, run):
        """Where the read-out dips below zero by round-off, the stored level is clipped.

        solver_cn._drive checks every read-out of both runners, so recording its
        _check_sign sees each one.
        """
        lows = []
        check_sign = solver_cn._check_sign

        def recording_check(u, t, remedy):
            lows.append(check_sign(u, t, remedy))
            return lows[-1]

        monkeypatch.setattr(solver_cn, "_check_sign", recording_check)
        grid = GridSpec(17, 17, 1.0, 1.0)
        if run is run_from_state:
            # far from a corner seed the fields are smaller than the transforms' round-off
            frac = np.zeros(grid.shape)
            frac[:3, :3] = 0.01
        else:
            # a sharper corner seed makes fem-split's diffusion undershoot past the guard
            y, x = np.meshgrid(np.linspace(0.0, 1.0, 17), np.linspace(0.0, 1.0, 17), indexing="ij")
            frac = 0.01 * np.exp(-(x ** 2 + y ** 2) / 0.2 ** 2)
        for model in ModelKind:
            lows.clear()
            traj = run(grid, seed_state(model, frac), model, SCHED, 0.001, 2.0, 0.25)
            assert len(lows) == 8
            assert min(lows) < 0.0
            assert traj.states.min() == 0.0

    def test_population_read_out_sees_no_subnormal(self, monkeypatch):
        """Population modes that underflow are zeroed before they are read out.

        With c |lam| near 1 some modes of the unforced population decay by
        about 4e-3 a step; unflushed, 32 subnormal entries reach the daily
        read-out in 10 of the 300 transforms out.  Zeroing them changes no
        stored bit.
        """
        tiny = np.finfo(float).tiny
        seen = []
        from_eigen = solver_cn._from_eigen

        def recording_from_eigen(coef, basis):
            seen.append(int(((coef != 0.0) & (np.abs(coef) < tiny)).sum()))
            return from_eigen(coef, basis)

        monkeypatch.setattr(solver_cn, "_from_eigen", recording_from_eigen)
        grid = GridSpec(9, 9, 2.0, 2.0)
        kappa, tau, days = 0.13, 0.25, 60
        pop = np.random.default_rng(2).uniform(100.0, 900.0, size=grid.shape)
        schedule = RateSchedule((0.2, 0.1, 0.3), (10.0, 20.0), float(days))
        u0 = seed_state(ModelKind.SIS, np.full(grid.shape, 0.01))
        traj = run_from_state(grid, u0, ModelKind.SIS, schedule, kappa, days, tau,
                              every_level=False)
        population = population_of(traj, kappa, pop)
        assert len(seen) == 300
        assert sum(seen) == 0

        # unflushed, p^ <- (b o gain)^4 o p^ from day to day, the power by 4 products
        ws = assemble(grid, kappa, tau)
        b = 2.0 - 1.0 / ws.gain
        power = np.ones_like(b)
        for _ in range(round(1 / tau)):
            power *= b * ws.gain
        coef = _to_eigen(pop, ws.basis)
        expected = [pop]
        for _ in range(days):
            coef = coef * power
            expected.append(from_eigen(coef, ws.basis).reshape(grid.shape))
        assert population.tobytes() == np.array(expected).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(nx=st.integers(2, 9), ny=st.integers(2, 9), lx=st.floats(0.5, 20.0),
           ly=st.floats(0.5, 20.0), kappa=st.floats(0.0, 1.0),
           tau=st.sampled_from([1.0, 0.5, 0.25, 0.1]), theta=st.floats(0.01, 2.0))
    def test_e_cannot_go_negative_where_its_read_out_is_skipped(self, nx, ny, lx, ly, kappa,
                                                                  tau, theta):
        """Where tau (kappa (hx^-2 + hy^-2) + theta) <= 1, A^{-1} and B - tau theta I are
        entry-wise non-negative, so E_{n+1} = A^{-1}((B - tau theta I) E_n + tau beta phi_n)
        stays non-negative and a plain SEIR step may skip E's read-out between whole days.
        Above the bound B - tau theta I has a negative entry on a grid of 3 nodes a side.
        """
        grid = GridSpec(nx, ny, lx, ly)
        bound = tau * (kappa * (grid.hx ** -2 + grid.hy ** -2) + theta)
        A, B = dense_operators(grid, kappa, tau)
        step = B - tau * theta * np.eye(grid.n_cells)
        if bound <= 1.0:
            assert np.linalg.inv(A).min() >= -1e-15
            assert step.min() >= -1e-15
        elif min(nx, ny) >= 3:
            assert step.min() < 0.0

    def test_trivial_step_is_explicit_euler(self):
        grid = GridSpec(3, 3, 1.0, 1.0)
        u = np.full((1,) + grid.shape, 0.3)
        out = run_from_state(grid, u, ModelKind.SIS, SCHED, 0.0, 0.1, 0.1)
        expected = 0.3 + 0.1 * (0.2 * 0.7 * 0.3 - 0.1 * 0.3)
        npt.assert_allclose(out.states[-1], expected)

    def test_negative_state_raises(self):
        grid = GridSpec(3, 3, 1.0, 1.0)
        hot = RateSchedule((0.2, 0.1, 0.3), (10.0, 20.0), 40.0, gamma=5.0)
        u = np.full((1,) + grid.shape, 0.5)
        for kappa in (0.0, 0.1):
            with pytest.raises(StabilityError, match="smaller tau"):
                run_from_state(grid, u, ModelKind.SIS, hot, kappa, 1.0, 1.0)

    @pytest.mark.parametrize("kappa", [0.0, 0.1])
    @pytest.mark.parametrize("corrected", [False, True])
    def test_nan_state_raises(self, kappa, corrected):
        """One NaN cell makes the guard's minimum NaN; the run stops instead of returning NaN."""
        grid = GridSpec(4, 4, 1.0, 1.0)
        u = np.full((3,) + grid.shape, 0.1)
        u[1, 2, 1] = np.nan
        with pytest.raises(StabilityError, match="not finite") as err:
            run_from_state(grid, u, ModelKind.SEIR, SCHED, kappa, 1.0, 0.25, corrected=corrected)
        assert "smaller tau" not in str(err.value)

    def test_corrected_step_is_second_order(self):
        """Single-cell logistic dynamics against a tight Runge-Kutta reference."""
        grid = GridSpec(2, 2, 1.0, 1.0)
        u0 = 0.3

        def rhs(v, t):
            return float(reaction(ModelKind.SIS, np.array([v]), t, SCHED)[0])

        ref = u0
        fine = 1e-4
        for i in range(int(5.0 / fine)):
            t = i * fine
            k1 = rhs(ref, t)
            k2 = rhs(ref + 0.5 * fine * k1, t + 0.5 * fine)
            k3 = rhs(ref + 0.5 * fine * k2, t + 0.5 * fine)
            k4 = rhs(ref + fine * k3, t + fine)
            ref += fine / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)

        def advance(tau, corrected):
            traj = run_from_state(
                grid, np.full((1,) + grid.shape, u0), ModelKind.SIS, SCHED, 0.0, 5.0, tau,
                every_level=False, corrected=corrected,
            )
            return float(traj.states[-1, 0, 0, 0])

        err_plain = abs(advance(0.1, False) - ref)
        err_corr = abs(advance(0.1, True) - ref)
        assert err_corr < err_plain / 20.0
        # halving tau quarters the corrected error (second order)
        err_corr_half = abs(advance(0.05, True) - ref)
        assert err_corr / err_corr_half == pytest.approx(4.0, rel=0.3)

    @pytest.mark.parametrize("model", list(ModelKind))
    @pytest.mark.parametrize("nx, ny, kappa, tau", [(5, 6, 0.2, 0.25), (7, 4, 0.05, 0.5),
                                                    (3, 3, 1.0, 1.0)])
    def test_corrected_step_matches_dense_oracle(self, model, nx, ny, kappa, tau):
        """One corrected step is A^{-1}[B q + tau f + (tau^2/2)(K flow + e beta (dphi/du) flow)].

        flow = kappa L q + f is the full right-hand side, so the diffusion part
        of the correction is checked as well as the reaction part.
        """
        grid = GridSpec(nx, ny, 1.2, 0.9)
        rng = np.random.default_rng(nx * ny)
        m = model.n_compartments
        q = rng.uniform(0.05, 0.3, size=(m, grid.n_cells))
        A, B = dense_operators(grid, kappa, tau)
        L = laplacian_operator(grid).toarray()
        K, e = reaction_split(model, SCHED)
        beta = beta_at(SCHED, 0.0)
        f = K @ q + np.multiply.outer(e, beta * transmission_bilinear(model, q))
        flow = kappa * q @ L.T + f
        dphi = (transmission_derivative(model, q) * flow).sum(axis=0)
        rhs = q @ B.T + tau * f + 0.5 * tau ** 2 * (K @ flow + np.multiply.outer(e, beta * dphi))
        expected = np.linalg.solve(A, rhs.T).T
        out = run_from_state(grid, q.reshape((m,) + grid.shape), model, SCHED, kappa, tau, tau,
                             corrected=True).states[-1].reshape(m, -1)
        assert np.abs(out - expected).max() <= 1e-12 * np.abs(expected).max()


class TestStepBackward:
    """The sweep's step: the carried step with K^T, the transpose of the forward's."""

    def test_satisfies_transposed_system(self):
        """A z_prev = B z + tau (K^T z + source) holds to solver round-off."""
        rng = np.random.default_rng(4)
        grid = GridSpec(5, 6, 1.0, 1.5)
        tau = 0.25
        A, B = dense_operators(grid, 0.2, tau)
        K = rng.normal(size=(2, 2))
        ws = assemble(grid, 0.2, tau, (K, np.zeros(2)))
        z = rng.normal(size=(2, grid.n_cells))
        source = rng.normal(size=(2, grid.n_cells))
        prev = physical_step(ws, z, tau * source, transpose=True)
        rhs = B @ z.T + tau * (K.T @ z + source).T
        npt.assert_allclose(A @ prev.T, rhs, atol=1e-12)

    def test_allows_negative_values(self):
        grid = GridSpec(3, 3, 1.0, 1.0)
        ws = assemble(grid, 0.1, 0.5)
        z = -np.ones((1, grid.n_cells))
        out = physical_step(ws, z)
        assert (out < 0.0).all()


def small_problem(model=ModelKind.SEIR, t_end=2.0, tau=0.25, schedule=SCHED, kappa=0.1):
    grid = GridSpec(9, 9, 1.0, 1.0)
    cells = np.zeros(grid.shape, dtype=int)
    cells[3:6, 3:6] = 1
    masks = {"core": RegionMask("core", cells)}
    population = np.full(grid.shape, 500.0)
    params = ParameterVector(schedule, kappa, 0.5, {"core": 20.0})
    return Problem(
        grid=grid, model=model, masks=masks, district=union_mask(masks.values()),
        population=population, t_end=t_end, tau=tau, weights=ObjectiveWeights(),
        data=None, initial=params,
    )


class TestRunForward:
    def test_initial_level_matches_seeding(self):
        problem = small_problem()
        traj = problem.simulate(problem.initial, every_level=True)
        u0 = initial_fractions(
            ModelKind.SEIR, problem.grid, problem.masks, problem.initial, problem.population
        )
        npt.assert_array_equal(traj.states[0], u0)
        assert traj.times[0] == 0.0

    def test_population_mass_is_conserved(self):
        """Pure diffusion of the population conserves its integral exactly."""
        rng = np.random.default_rng(2)
        grid = GridSpec(15, 12, 2.0, 1.0)
        pop = rng.uniform(100.0, 900.0, size=grid.shape)
        u0 = np.zeros((1,) + grid.shape)
        traj = run_from_state(grid, u0, ModelKind.SIS, SCHED, 0.4, 10.0, 0.5)
        population = population_of(traj, 0.4, pop)
        assert conservation_drift(population.sum(axis=(1, 2)) * grid.cell_area) < 1e-12
        # the density itself does move
        assert np.abs(population[-1] - pop).max() > 1e-3

    def test_infected_decay_matches_bookkeeping(self):
        """With beta tiny the infected integral decays like exp(-gamma t)."""
        slow = RateSchedule((1e-8, 1e-8, 1e-8), (10.0, 20.0), 40.0)
        problem = small_problem(ModelKind.SIR, 5.0, 0.01, schedule=slow, kappa=0.0)
        traj = problem.simulate(problem.initial)
        infected = traj.states[:, traj.model.infected_index]
        totals = region_total(infected, problem.masks["core"], traj.grid)
        expected = totals[0] * np.exp(-slow.gamma * traj.times[traj.daily_indices])
        npt.assert_allclose(totals, expected, rtol=1e-3)

    def test_determinism(self):
        problem = small_problem()
        kappa = problem.initial.kappa
        a = problem.simulate(problem.initial, every_level=True)
        b = problem.simulate(problem.initial, every_level=True)
        npt.assert_array_equal(a.states, b.states)
        npt.assert_array_equal(problem.population_at(kappa, a.times),
                               problem.population_at(kappa, b.times))

    @pytest.mark.parametrize("run", [run_from_state, run_fem_from_state])
    @pytest.mark.parametrize("hooked", [False, True])
    def test_runs_leave_u0_unchanged(self, run, hooked):
        """A run reads the caller's u0 in place and writes only new read-outs."""
        grid = GridSpec(9, 9, 1.0, 1.0)
        bump = 0.5 * (1.0 + np.cos(np.pi * np.linspace(0.0, 1.0, 9)))
        u0 = seed_state(ModelKind.SEIR, 0.01 + 0.04 * np.outer(bump, bump))
        before = u0.copy()
        hook = (lambda day, q: None) if hooked else None
        run(grid, u0, ModelKind.SEIR, SCHED, 0.1, 2.0, 0.25, on_day=hook)
        assert u0.tobytes() == before.tobytes()

    def test_step_validation(self):
        problem = small_problem(ModelKind.SIS, 1.0)
        grid = problem.grid
        u0 = problem.build_u0(problem.initial)
        with pytest.raises(ParameterError, match="whole steps"):
            run_from_state(grid, u0, ModelKind.SIS, SCHED, 0.1, 1.0, 0.3)
        with pytest.raises(DimensionError):
            run_from_state(
                grid, np.zeros((2,) + grid.shape), ModelKind.SEIR, SCHED, 0.1, 1.0, 0.25
            )


class TestTrajectory:
    def test_daily_bookkeeping(self):
        """The daily run keeps the whole days; every_level keeps level 0 and S and I after it."""
        problem = small_problem(t_end=3.0)
        traj = problem.simulate(problem.initial, every_level=True)
        daily = problem.simulate(problem.initial)
        npt.assert_array_equal(daily.times, [0.0, 1.0, 2.0, 3.0])
        npt.assert_array_equal(daily.daily_indices, [0, 1, 2, 3])
        npt.assert_array_equal(daily.days, [0, 1, 2, 3])
        npt.assert_array_equal(traj.times, [0.0])
        npt.assert_array_equal(traj.days, [0])
        npt.assert_array_equal(daily.states[:1], traj.states)
        # levels 1..12 of tau = 0.25; levels 4, 8 and 12 fall on whole days
        assert traj.between.shape == (12, 2) + problem.grid.shape
        npt.assert_array_equal(traj.between[[3, 7, 11]], daily.states[1:, problem.model.force_rows])
        assert daily.between is None

    def test_mass_levels(self):
        problem = small_problem(t_end=1.0)
        traj = problem.simulate(problem.initial)
        population = problem.population_at(problem.initial.kappa, traj.times)
        mass = population.sum(axis=(1, 2)) * problem.grid.cell_area
        assert mass.shape == (2,)
        district = RegionMask("all", np.ones(problem.grid.shape, dtype=int))
        assert mass[0] == pytest.approx(
            region_total(problem.population, district, problem.grid)
        )


grids = st.builds(
    GridSpec,
    nx=st.integers(2, 40),
    ny=st.integers(2, 40),
    Lx=st.floats(0.5, 100.0),
    Ly=st.floats(0.5, 100.0),
)
kappas = st.floats(0.0, 1.0)
taus = st.floats(0.0, 1.0, exclude_min=True, allow_subnormal=False)


class TestEigenbasisProperties:
    @settings(max_examples=40, deadline=None)
    @given(grid=grids, kappa=kappas, tau=taus, k=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_solve_matches_dense_solve(self, grid, kappa, tau, k, seed):
        """The gain is A^{-1} in the eigenbasis."""
        rhs = np.random.default_rng(seed).normal(size=(k, grid.n_cells))
        A, _ = dense_operators(grid, kappa, tau)
        expected = np.linalg.solve(A, rhs.T).T
        ws = assemble(grid, kappa, tau)
        got = _from_eigen(ws.gain * _to_eigen(rhs, ws.basis), ws.basis)
        assert got.shape == rhs.shape
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()

    @settings(max_examples=40, deadline=None)
    @given(grid=grids, kappa=kappas, tau=taus, k=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    # c * lam_max of about 2.4e4 and 1.1e3, where c = tau kappa / 2
    @example(grid=GridSpec(40, 40, 0.5, 0.5), kappa=1.0, tau=1.0, k=3, seed=0)
    @example(grid=GridSpec(33, 2, 1.0, 0.5), kappa=0.7, tau=0.8, k=2, seed=1)
    def test_step_matches_dense_solve(self, grid, kappa, tau, k, seed):
        """The carried step is A^{-1}(B u + tau (K u + r))."""
        rng = np.random.default_rng(seed)
        u = rng.uniform(0.0, 1.0, size=(k, grid.n_cells))
        K = rng.normal(scale=0.3, size=(k, k))
        r = rng.normal(scale=0.1, size=(k, grid.n_cells))
        A, B = dense_operators(grid, kappa, tau)
        expected = dense_step(A, B, tau, u, K, r)
        got = physical_step(assemble(grid, kappa, tau, (K, np.zeros(k))), u, tau * r)
        assert got.shape == u.shape
        # Any solve with A, the dense reference included, is accurate only to
        # about eps * cond(A), where cond(A) = 1 + c * lam_max; past a
        # condition number of 1000 the bound grows with it.
        cond = 1.0 + 2.0 * kappa * tau * (grid.hx ** -2 + grid.hy ** -2)
        tol = 1e-12 * max(1.0, cond / 1000.0)
        assert np.abs(got - expected).max() <= tol * np.abs(expected).max()

    @settings(max_examples=40, deadline=None)
    @given(grid=grids, kappa=kappas, tau=taus, model=st.sampled_from(list(ModelKind)),
           seed=st.integers(0, 2**32 - 1))
    def test_sweep_step_is_the_transpose(self, grid, kappa, tau, model, seed):
        """<M x, y> = <x, M^T y> for the forward's linear step M (with K) and the sweep's (K^T)."""
        rng = np.random.default_rng(seed)
        ws = assemble(grid, kappa, tau, reaction_split(model, SCHED))
        x = rng.normal(size=(model.n_compartments, grid.n_cells))
        y = rng.normal(size=x.shape)
        mx = ws._step(x.copy())
        mty = ws._step(y.copy(), transpose=True)
        scale = np.abs(mx * y).sum()
        assert abs(np.vdot(mx, y) - np.vdot(x, mty)) <= 1e-13 * scale

    @settings(max_examples=40, deadline=None)
    @given(grid=grids, kappa=kappas, tau=taus, model=st.sampled_from(list(ModelKind)),
           seed=st.integers(0, 2**32 - 1))
    def test_forced_step_is_the_per_mode_operator(self, grid, kappa, tau, model, seed):
        """M = A^{-1}(B + tau K), formed once per run, with the force entering through e; the
        sweep's step, source on the force rows, is its transpose.

        With F(x, f) = M x + g o (e (x) f) and T(y, S) = M^T y + g o S on the force rows,
        <F(x, f), y> = <x, T(y, 0)> + <f, g o (e . y)> and
        <T(y, S), x> = <y, F(x, 0)> + <S, g o x[rows]>.
        """
        rng = np.random.default_rng(seed)
        K, e = reaction_split(model, SCHED)
        ws = assemble(grid, kappa, tau, (K, e))
        rows = model.force_rows
        x, y = rng.normal(size=(2, model.n_compartments, grid.n_cells))
        f = rng.normal(size=grid.n_cells)
        src = rng.normal(size=x[rows].shape)
        fx, f0 = ws._step(x.copy(), f), ws._step(x.copy())
        ty, t0 = ws._step(y.copy(), src, rows, transpose=True), ws._step(y.copy(), transpose=True)

        def holds(left, right):
            """<a, b> of the pair ``left`` equals the sum over the pairs ``right``, to 1e-13."""
            scale = sum(np.abs(a * b).sum() for a, b in (left, *right))
            return abs(np.vdot(*left) - sum(np.vdot(a, b) for a, b in right)) <= 1e-13 * scale

        assert holds((fx, y), [(x, t0), (f, ws.gain * (e @ y))])
        assert holds((ty, x), [(y, f0), (src, ws.gain * x[rows])])

        # in physical space, against the dense A^{-1}(B u + tau (K u + r)), within the bound of
        # test_step_matches_dense_solve
        A, B = dense_operators(grid, kappa, tau)
        cond = 1.0 + 2.0 * kappa * tau * (grid.hx ** -2 + grid.hy ** -2)
        tol = 1e-12 * max(1.0, cond / 1000.0)
        r = rng.normal(scale=0.1, size=grid.n_cells)
        on_rows = np.zeros_like(y)
        on_rows[rows] = src
        for got, expected in (
                (ws._step(_to_eigen(x, ws.basis), _to_eigen(tau * r, ws.basis)[0]),
                 dense_step(A, B, tau, x, K, np.multiply.outer(e, r))),
                (ws._step(_to_eigen(y, ws.basis), _to_eigen(tau * src, ws.basis), rows,
                          transpose=True), dense_step(A, B, tau, y, K.T, on_rows))):
            got = _from_eigen(got, ws.basis)
            assert np.abs(got - expected).max() <= tol * np.abs(expected).max()

    @settings(max_examples=40, deadline=None)
    @given(grid=grids, kappa=kappas, tau=taus, seed=st.integers(0, 2**32 - 1))
    def test_pure_diffusion_conserves_mass(self, grid, kappa, tau, seed):
        """The drift at all 51 levels of 50 steps of tau, taken as days at kappa tau.

        The gain depends on tau and kappa only through tau kappa, so steps of
        tau' = 1 at kappa' = kappa tau are steps of tau at kappa, and every
        level is a whole day, which the run keeps.
        """
        pop = np.random.default_rng(seed).uniform(1.0, 1000.0, size=grid.shape)
        u0 = np.zeros((1,) + grid.shape)
        schedule = RateSchedule((0.2, 0.1, 0.3), (10.0, 20.0), 50.0)
        traj = run_from_state(grid, u0, ModelKind.SIS, schedule, kappa * tau, 50.0, 1.0)
        assert len(traj.times) == 51
        mass = population_of(traj, kappa * tau, pop).sum(axis=(1, 2)) * grid.cell_area
        assert conservation_drift(mass) <= 1e-12

    @settings(max_examples=25, deadline=None)
    @given(grid=grids, kappa=kappas, tau=taus, seed=st.integers(0, 2**32 - 1))
    def test_reruns_are_bit_identical(self, grid, kappa, tau, seed):
        # A floor plus one cosine mode: diffusion only scales the mode, so the
        # state stays positive at any kappa and tau.
        rng = np.random.default_rng(seed)
        Qy, _ = neumann_eigenbasis(grid.ny, grid.hy)
        Qx, _ = neumann_eigenbasis(grid.nx, grid.hx)
        mode = np.outer(Qy[:, rng.integers(grid.ny)], Qx[:, rng.integers(grid.nx)])
        infected = 0.02 * (1.0 + 0.5 * mode / np.abs(mode).max())
        u0 = np.stack([1.0 - 1.5 * infected, 0.5 * infected, infected])
        pop = rng.uniform(1.0, 1000.0, size=grid.shape)

        def run():
            return run_from_state(grid, u0, ModelKind.SEIR, SCHED, kappa, 10 * tau, tau)

        a, b = run(), run()
        assert a.states.tobytes() == b.states.tobytes()
        assert population_of(a, kappa, pop).tobytes() == population_of(b, kappa, pop).tobytes()


class TestRefinementStudy:
    def test_diffusion_is_second_order(self):
        grid = GridSpec(17, 17, 1.0, 1.0)
        study = temporal_refinement_study(
            "diffusion", grid, ModelKind.SIS, SCHED, 0.1, 4.0
        )
        assert all(o >= 1.8 for o in study["orders"])

    def test_coupled_is_first_order(self):
        grid = GridSpec(17, 17, 1.0, 1.0)
        study = temporal_refinement_study(
            "coupled", grid, ModelKind.SEIR, SCHED, 0.1, 4.0
        )
        assert all(o >= 0.9 for o in study["orders"])
        # errors must actually shrink
        e = study["errors"]
        assert e[0] > e[1] > e[2]

    def test_tau_sequence_validation(self):
        grid = GridSpec(5, 5, 1.0, 1.0)
        with pytest.raises(ParameterError):
            temporal_refinement_study("bogus", grid, ModelKind.SIS, SCHED, 0.1, 2.0)


def each_model_on_both_runners(test):
    """Hypothesis examples that run ``test`` for SIS, SIR and SEIR on cn and fem-split."""
    for model in ModelKind:
        for run in (run_from_state, run_fem_from_state):
            test = example(grid=GridSpec(7, 5, 1.0, 1.0), kappa=0.1, model=model, run=run,
                           tau=0.25, t_end=2.5)(test)
    return test


class TestStorageRules:
    @settings(max_examples=40, deadline=None)
    @given(grid=grids, kappa=kappas, model=st.sampled_from(list(ModelKind)),
           run=st.sampled_from([run_from_state, run_fem_from_state]),
           tau=st.sampled_from([0.5, 0.25, 0.125]), t_end=st.sampled_from([2.0, 2.5]))
    @each_model_on_both_runners
    @example(grid=GridSpec(3, 4, 0.5, 0.5), kappa=1.0, model=ModelKind.SEIR, run=run_from_state,
             tau=0.5, t_end=2.0)  # E alone goes below -1e-10, at t = 0.5
    @example(grid=GridSpec(33, 2, 1.0, 1.0), kappa=0.0, model=ModelKind.SEIR, run=run_from_state,
             tau=0.5, t_end=2.0)  # a shape where _from_eigen's rows depend on how many it reads
    def test_every_level_keeps_level_0_and_the_force_rows_after_it(
        self, grid, kappa, model, run, tau, t_end
    ):
        """By default a run keeps level 0, the whole days and the last level, bit for bit.

        A hooked run and an every-level run keep level 0 alone, and every_level, hook or
        not, adds the force rows of levels 1..n_steps.  The runs cut at each level n give
        its read-out independently of either store.
        """
        # a smooth bump over a floor keeps fem-split clear of its undershoot
        cx = 0.5 * (1.0 + np.cos(np.pi * np.linspace(0.0, 1.0, grid.nx)))
        cy = 0.5 * (1.0 + np.cos(np.pi * np.linspace(0.0, 1.0, grid.ny)))
        u0 = seed_state(model, 0.01 + 0.04 * np.outer(cy, cx))
        args = (grid, u0, model, SCHED, kappa, t_end, tau)
        try:
            daily = run(*args)
        except StabilityError as refused:
            # cn is not positive at large c |lam| (kappa = 1, tau = 0.5 on a 3x4 grid of
            # 0.5 x 0.5 takes SEIR's E below -1e-10 at t = 0.5); every rule takes the same
            # steps and checks the same rows at the same levels, so each refuses the same step
            for kwargs in ({"every_level": True}, {"on_day": lambda day, q: None}):
                with pytest.raises(StabilityError) as err:
                    run(*args, **kwargs)
                assert str(err.value) == str(refused)
            return
        steps = round(t_end / tau)
        kept = sorted({n for n in range(steps + 1) if (n * tau).is_integer()} | {steps})
        assert daily.times.tobytes() == (np.arange(steps + 1) * tau)[kept].tobytes()
        assert daily.between is None
        every = run(*args, every_level=True)
        assert every.times.tobytes() == daily.times[:1].tobytes()
        assert every.states.tobytes() == daily.states[:1].tobytes()
        # the day hook reads phi = u_S u_I, (n_cells,), of the whole days in order, level 0
        # included; the run keeps level 0
        for every_level in (False, True):
            read = []
            hooked = run(*args, every_level=every_level,
                         on_day=lambda day, phi: read.append((day, phi.shape, phi.tobytes())))
            assert [day for day, _, _ in read] == daily.days.tolist()
            assert {shape for _, shape, _ in read} == {(grid.n_cells,)}
            assert [phi for _, _, phi in read] == [
                transmission_bilinear(model, daily.states[n]).tobytes() for n in daily.daily_indices]
            assert hooked.times.tobytes() == daily.times[:1].tobytes()
            assert hooked.states.tobytes() == daily.states[:1].tobytes()
            if every_level:
                assert hooked.between.tobytes() == every.between.tobytes()
            else:
                assert hooked.between is None

        rows = model.force_rows
        assert every.between.shape == (steps,) + u0[rows].shape
        for n in range(1, steps + 1):
            cut = run(grid, u0, model, SCHED, kappa, n * tau, tau)
            assert cut.states[-1][rows].tobytes() == every.between[n - 1].tobytes()
            if n in kept:
                assert cut.states[-1].tobytes() == daily.states[kept.index(n)].tobytes()
        m, r = model.n_compartments, len(u0[rows])
        fields = every.states.nbytes + every.between.nbytes
        assert fields == (m + steps * r) * grid.n_cells * 8
        arrays = [v for v in vars(every).values() if isinstance(v, np.ndarray)]
        assert sum(a.nbytes for a in arrays) == fields + every.times.nbytes

    @pytest.mark.parametrize("model", list(ModelKind))
    @pytest.mark.parametrize("kappa", [0.1, 3.0])
    def test_steps_read_back_the_force_rows_alone_between_whole_days(self, monkeypatch, model,
                                                                      kappa):
        """A plain cn step reads back every row by one call at the whole days, the force rows
        alone at the other levels, and at a last level off a whole day the force rows, then E
        alone, whatever the run keeps.

        That holds where tau (kappa (hx^-2 + hy^-2) + theta) <= 1, here 0.12 at kappa = 0.1;
        at kappa = 3 (1.17) E might go negative, and the step reads back every row.  The
        corrected step and fem-split step from the full read-out, so they read back every row
        at every level.  In SIR and SIS the force rows are every row.
        """
        reads = []
        for module in (solver_cn, solver_fem):
            def counted(coef, basis, inner=module._from_eigen):
                reads.append(len(coef))
                return inner(coef, basis)
            monkeypatch.setattr(module, "_from_eigen", counted)
        grid = GridSpec(7, 5, 6.0, 6.0)
        cx = 0.5 * (1.0 + np.cos(np.pi * np.linspace(0.0, 1.0, grid.nx)))
        cy = 0.5 * (1.0 + np.cos(np.pi * np.linspace(0.0, 1.0, grid.ny)))
        u0 = seed_state(model, 0.01 + 0.04 * np.outer(cy, cx))
        args = (grid, u0, model, SCHED, kappa, 2.5, 0.25)
        m, r = model.n_compartments, len(u0[model.force_rows])
        assert (m, r) == {ModelKind.SIS: (1, 1), ModelKind.SIR: (2, 2), ModelKind.SEIR: (3, 2)}[model]
        # levels 4 and 8 fall on days 1 and 2, and 10, at t = 2.5, is the last
        plain = [[m] if n in (4, 8) or kappa > 1.0 or r == m else [r] for n in range(1, 10)]
        plain = sum(plain, []) + ([m] if kappa > 1.0 or r == m else [r, m - r])
        for store in ({}, {"every_level": True}, {"on_day": lambda day, phi: None}):
            for run, per_step in ((run_from_state, None),
                                  (lambda *a, **k: run_from_state(*a, corrected=True, **k), [r, m]),
                                  (run_fem_from_state, [m, m])):  # two diffusion half-steps
                reads.clear()
                run(*args, **store)
                assert reads == (plain if per_step is None else per_step * 10)

    @pytest.mark.parametrize("model", list(ModelKind))
    def test_sweep_makes_two_transforms_out_and_the_force_rows_in_per_level(self, monkeypatch,
                                                                           model):
        """Each level of the sweep transforms e . Z and g o (e . W) out, 2 fields, and
        (d phi/du) o s in, on the force rows: 2 in SEIR and SIR, 1 in SIS.  After the last
        level it transforms level 0's state in and dJ/dq_0 out, m fields each."""
        grid = GridSpec(7, 5, 6.0, 6.0)
        cx = 0.5 * (1.0 + np.cos(np.pi * np.linspace(0.0, 1.0, grid.nx)))
        cy = 0.5 * (1.0 + np.cos(np.pi * np.linspace(0.0, 1.0, grid.ny)))
        u0 = seed_state(model, 0.01 + 0.04 * np.outer(cy, cx))
        traj = run_from_state(grid, u0, model, SCHED, 0.1, 2.5, 0.25, every_level=True)
        moves = []
        for way, name in (("in", "_to_eigen"), ("out", "_from_eigen")):
            def counted(fields, basis, way=way, inner=getattr(solver_cn, name)):
                moves.append((way, len(fields.reshape(-1, grid.n_cells))))
                return inner(fields, basis)
            monkeypatch.setattr(solver_cn, name, counted)
        solver_cn.sweep(traj, SCHED, 0.1, lambda day, phi: np.ones_like(phi))
        m, r = model.n_compartments, len(u0[model.force_rows])
        assert moves == [("out", 2), ("in", r)] * 11 + [("in", m), ("out", m)]
