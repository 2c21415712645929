"""Tests for the Metropolis sampler and the adjoint-gradient machinery."""

import dataclasses
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from epidiffuse import estimate, objective
from epidiffuse.errors import (
    ConfigError,
    DimensionError,
    ParameterError,
    SequencingError,
    StabilityError,
)
from epidiffuse.estimate import (
    AdjointConfig,
    MetropolisConfig,
    Problem,
    adjoint_fit,
    adjoint_gradient,
    default_sigma,
    default_step_scale,
    gradient_check,
    metropolis_fit,
)
from epidiffuse.grid import GridSpec, RegionMask, distribute_uniform, region_total, union_mask
from epidiffuse.models import ModelKind, ParameterVector, RateSchedule, transmission_bilinear
from epidiffuse.objective import (
    CaseSeries,
    ObjectiveWeights,
    detected_daily_cases,
    evaluate_terms,
    interpolate_data,
)
from epidiffuse.solver_cn import conservation_drift, sweep

from conftest import make_twin


def replay_decisions(log, sigma, n):
    """Re-apply the acceptance rule to the logged chain; returns mismatches."""
    bad = []
    for i in range(n):
        if not log["in_bounds"][i]:
            if log["accepted"][i] or np.isfinite(log["j_new"][i]):
                bad.append(i)
            continue
        expo = (log["j_old"][i] ** 2 - log["j_new"][i] ** 2) / (2.0 * sigma ** 2)
        alpha = 1.0 if expo >= 0.0 else float(np.exp(max(expo, -745.0)))
        if abs(alpha - log["alpha"][i]) > 1e-15:
            bad.append(i)
            continue
        if log["accepted"][i] != (log["uniform"][i] < alpha):
            bad.append(i)
    return bad


class TestProblem:
    def test_pack_unpack_roundtrip(self, twin9):
        problem, truth = twin9["problem"], twin9["truth"]
        vec = problem.pack(truth)
        assert vec.shape == (9,)
        back = problem.unpack(vec)
        npt.assert_array_equal(problem.pack(back), vec)
        assert back.init_infected == truth.init_infected

    def test_param_names(self, twin9):
        problem = twin9["problem"]
        assert problem.param_names == (
            "beta0", "beta1", "beta2", "kappa", "delta",
            "I0_BA", "I0_BI", "I0_HR", "I0_IO",
        )

    def test_in_bounds(self, twin9):
        problem = twin9["problem"]
        x = problem.pack(twin9["truth"])
        assert problem.in_bounds(x)
        for idx, value in ((0, -0.1), (3, 1.2), (4, -0.01), (6, -1.0)):
            y = x.copy()
            y[idx] = value
            assert not problem.in_bounds(y)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_in_bounds_is_the_box_and_the_seed_cap(self, twin9, data):
        """in_bounds is the box (NaN refused) and every cell seeded at most 2/3 (SEIR).

        The vectors straddle every bound, seeds run to 1.2 times each region's
        cap, and some carry one NaN.  The seeded fraction is computed here from
        the masks and the population, not by initial_fractions.
        """
        problem = twin9["problem"]
        grid, pop = problem.grid, problem.population
        masks = [problem.masks[name] for name in problem.region_names]
        caps = [2.0 / 3.0 * region_total(pop, mask, grid) for mask in masks]
        vec = np.array([data.draw(st.floats(-0.05, 0.5)) for _ in range(3)]
                       + [data.draw(st.floats(-0.1, 1.1)) for _ in range(2)]
                       + [data.draw(st.floats(-5.0, 1.2 * cap)) for cap in caps])
        nan_at = data.draw(st.none() | st.integers(0, len(vec) - 1))
        if nan_at is not None:
            vec[nan_at] = np.nan
        box = bool((vec[:3] > 0.0).all() and 0.0 <= vec[3] <= 1.0 and 0.0 <= vec[4] <= 1.0
                   and (vec[5:] >= 0.0).all())
        frac = np.zeros(grid.shape)
        for mask, seeds in zip(masks, vec[5:]):
            frac[mask.cells] += seeds / (mask.cell_count * grid.cell_area) / pop[mask.cells]
        assert problem.in_bounds(vec) == (box and bool((frac <= 2.0 / 3.0).all()))

    @settings(max_examples=100, deadline=None)
    @given(chi=st.lists(st.floats(-1.0, 2.0), min_size=5, max_size=5))
    def test_projected_chi_is_admissible(self, twin9, chi):
        """project_chi, the one copy of the box that stays, lands inside the admissible set."""
        problem, truth = twin9["problem"], twin9["truth"]
        projected = problem.project_chi(np.array(chi))
        assert problem.in_bounds(problem.pack(truth.with_chi(projected)))

    def test_refuses_a_window_the_runs_cannot_finish_or_mark_when_built(self, twin9):
        """At t_end = 19.6 the runs mark days 0..19, but the data end on day 20; steps of
        0.25 cannot end at 19.6 at all."""
        with pytest.raises(ParameterError, match="day marks 0..19"):
            dataclasses.replace(twin9["problem"], t_end=19.6)
        with pytest.raises(ParameterError, match="whole steps"):
            dataclasses.replace(twin9["problem"], t_end=19.6, tau=0.25)

    def test_refuses_a_schedule_the_runs_outlast_when_built(self, twin9):
        """A schedule window that ends on day 17 cannot give beta on days 18..20."""
        problem, truth = twin9["problem"], twin9["truth"]
        short = dataclasses.replace(truth.schedule, t_end=17.0)
        with pytest.raises(ParameterError, match="schedule window"):
            dataclasses.replace(problem, initial=dataclasses.replace(truth, schedule=short))
        # within beta_at's tolerance of 1e-6 the window still covers the run
        near = dataclasses.replace(truth, schedule=dataclasses.replace(truth.schedule,
                                                                       t_end=20.0 - 5e-7))
        assert dataclasses.replace(problem, initial=near).objective(near) == problem.objective(truth)

    def test_unknown_backend_rejected(self, twin9):
        with pytest.raises(ConfigError, match="unknown backend 'bogus'"):
            dataclasses.replace(twin9["problem"], backend="bogus")

    @pytest.mark.parametrize("tau", [0.0, np.nan, np.inf, -0.5, 1.5])
    def test_bad_tau_rejected_when_built(self, twin9, tau):
        """tau outside (0, MAX_TAU] is refused as a ParameterError before any run."""
        with pytest.raises(ParameterError, match="tau"):
            dataclasses.replace(twin9["problem"], tau=tau)

    def test_population_of_the_wrong_shape_rejected_when_built(self, twin9):
        """A population that does not cover the grid is refused before any run."""
        problem = twin9["problem"]
        with pytest.raises(DimensionError, match="population shape"):
            dataclasses.replace(problem, population=problem.population[:-1])

    @staticmethod
    def wide_data(problem):
        """The problem's cases spread over a window of the same node counts, twice as wide:
        they would weigh J with the wrong cell area."""
        g, data = problem.grid, problem.data
        wide = GridSpec(g.nx, g.ny, 2.0 * g.Lx, 2.0 * g.Ly)
        series = {name: CaseSeries(name, data.days, cases)
                  for name, cases in zip(problem.region_names, data.cases)}
        return interpolate_data(series, problem.masks, wide, problem.population)

    def test_case_data_on_another_grid_rejected_when_built(self, twin9):
        problem = twin9["problem"]
        with pytest.raises(DimensionError, match="case data on grid"):
            dataclasses.replace(problem, data=self.wide_data(problem))

    def test_a_built_problem_is_frozen(self, twin9):
        """Assignment would skip the checks of __post_init__, which replace runs again."""
        problem = dataclasses.replace(twin9["problem"])  # a copy, so the fixture stays intact
        with pytest.raises(dataclasses.FrozenInstanceError):
            problem.backend = "spectral"

    def test_evaluate_terms_refuses_case_data_on_another_grid(self, twin9):
        problem, truth = twin9["problem"], twin9["truth"]
        with pytest.raises(DimensionError, match="case data on grid"):
            evaluate_terms(problem.simulate(truth), truth, problem.weights, self.wide_data(problem))

    @pytest.mark.parametrize("times", [[], [1.0, 2.0], [0.0, 0.05], [0.0, 2.0, 1.0]])
    def test_population_at_refuses_times_a_cn_run_does_not_reach(self, twin9, times):
        """On cn the population takes a run's steps of tau: from 0, whole steps, forward."""
        with pytest.raises(ParameterError):
            twin9["problem"].population_at(twin9["truth"].kappa, np.array(times))

    @pytest.mark.parametrize("backend", ["cn", "fem-split"])
    def test_population_at_starts_from_the_population_and_diffuses(self, twin9, backend):
        problem = dataclasses.replace(twin9["problem"], backend=backend)
        population = problem.population_at(twin9["truth"].kappa, np.arange(4.0))
        assert population.shape == (4,) + problem.grid.shape
        npt.assert_array_equal(population[0], problem.population)
        assert np.abs(population[-1] - problem.population).max() > 1.0
        if backend == "cn":
            assert conservation_drift(population.sum(axis=(1, 2))) <= 1e-12

    def test_corrected_off_cn_rejected(self, twin9):
        """Only the cn step has a corrected form; fem-split would silently ignore it."""
        with pytest.raises(ConfigError) as err:
            dataclasses.replace(twin9["problem"], backend="fem-split", corrected=True)
        assert err.value.key == "solver.corrected"

    def test_project_chi(self, twin9):
        problem = twin9["problem"]
        chi = np.array([-1.0, 0.2, 0.3, 1.7, -0.2])
        out = problem.project_chi(chi)
        assert out[0] > 0.0
        assert out[3] == 1.0 and out[4] == 0.0
        npt.assert_array_equal(out[1:3], [0.2, 0.3])

    def test_simulate_defaults_to_daily_storage(self, twin9):
        problem = twin9["problem"]
        traj = problem.simulate(twin9["truth"])
        assert len(traj.times) == int(problem.t_end) + 1
        npt.assert_array_equal(traj.days, np.arange(int(problem.t_end) + 1))

    def test_unpack_shape_check(self, twin9):
        with pytest.raises(ParameterError):
            twin9["problem"].unpack(np.zeros(4))


class TestMetropolisConfigDefaults:
    def test_config_validation(self):
        with pytest.raises(ConfigError, match="at least 1"):
            MetropolisConfig(draws=0)
        with pytest.raises(ConfigError):
            MetropolisConfig(burn_in=1.0)
        with pytest.raises(ConfigError):
            MetropolisConfig(sigma=-1.0)
        for bad in ({"sigma": np.nan}, {"sigma": np.inf}, {"step_scale": "fast"},
                    {"step_scale": True}, {"step_scale": np.nan}, {"step_scale": [0.1, -0.1]},
                    {"step_scale": [0.1, np.inf]}, {"step_scale": [0.1, False]}):
            with pytest.raises(ConfigError) as err:
                MetropolisConfig(**bad)
            assert err.value.key == next(iter(bad))

    def test_config_types(self):
        """Counts take Python or numpy integers, switches only booleans; bools are no numbers."""
        assert MetropolisConfig(draws=np.int64(5), sigma=np.float32(0.1)).draws == 5
        assert AdjointConfig(max_outer=np.int32(3), optimize_initial=True).max_outer == 3
        for cls, bad in ((MetropolisConfig, {"draws": True}), (MetropolisConfig, {"draws": 5.0}),
                         (MetropolisConfig, {"burn_in": False}), (MetropolisConfig, {"sigma": True}),
                         (AdjointConfig, {"max_outer": True}),
                         (AdjointConfig, {"optimize_initial": "false"}),
                         (AdjointConfig, {"per_cell_initial": 0})):
            with pytest.raises(ConfigError, match="wrong type") as err:
                cls(**bad)
            assert err.value.key == next(iter(bad))

    def test_default_step_scale(self):
        x = np.array([0.2, 0.1, 0.1, 1e-9, 0.5, 40.0, 0.0])
        scale = default_step_scale(x)
        npt.assert_allclose(scale[:5], [2e-3, 1e-3, 1e-3, 1e-4, 5e-3])
        assert scale[5] == pytest.approx(0.4)
        assert scale[6] == pytest.approx(0.25)  # floored

    def test_default_sigma_matches_hand_value(self, twin9):
        problem = twin9["problem"]
        series = problem.data.district_incidence_fraction()
        assert default_sigma(problem) == pytest.approx(float(np.std(series, ddof=1)))


class TestMetropolisFit:
    def test_decision_log_replays_cleanly(self, twin9):
        problem = twin9["problem"]
        config = MetropolisConfig(draws=300, seed=5, sigma=2e-4, step_scale=0.02)
        result = metropolis_fit(problem, config)
        log = result.diagnostics["decisions"]
        assert replay_decisions(log, result.diagnostics["sigma"], config.draws) == []
        # the running j_old must track the accepted chain
        for i in range(1, config.draws):
            expected = log["j_new"][i - 1] if log["accepted"][i - 1] else log["j_old"][i - 1]
            assert log["j_old"][i] == expected

    def test_runs_are_bit_identical(self, twin9):
        problem = twin9["problem"]
        config = MetropolisConfig(draws=120, seed=9, sigma=2e-4)
        a = metropolis_fit(problem, config)
        b = metropolis_fit(problem, config)
        npt.assert_array_equal(
            np.array([j for j, _ in a.history]), np.array([j for j, _ in b.history])
        )
        npt.assert_array_equal(a.params.chi, b.params.chi)
        assert a.objective == b.objective

    def test_bounds_enforced_by_rejection(self, tmp_path):
        problem, truth, _ = make_twin(tmp_path, kappa=0.01)
        config = MetropolisConfig(
            draws=200, seed=3, sigma=1.0,
            step_scale=np.array([1e-3] * 3 + [0.5] + [1e-3] + [0.5] * 4),
        )
        result = metropolis_fit(problem, config)
        log = result.diagnostics["decisions"]
        oob = ~log["in_bounds"]
        assert oob.sum() > 10  # kappa proposals frequently leave [0, 1]
        assert not log["accepted"][oob].any()
        assert np.isnan(log["j_new"][oob]).all()
        # the chain itself never left the box
        for _, x in result.history:
            assert problem.in_bounds(x)

    def test_seir_over_seeding_is_rejected(self):
        """A proposal seeding a cell above SEIR's 2/3 is logged out of bounds, not fatal.

        One 4x4 region of 1000 persons starts with 650 seeds, a step of 20 from
        the 667-person cap.
        """
        grid = GridSpec(9, 9, 4.0, 4.0)
        cells = np.zeros(grid.shape, dtype=bool)
        cells[2:6, 2:6] = True
        region = RegionMask("R", cells)
        masks = {"R": region}
        population = distribute_uniform(1000.0, region, grid)
        series = {"R": CaseSeries("R", np.arange(11), np.full(11, 3000.0))}
        initial = ParameterVector(RateSchedule((0.2, 0.1, 0.1), (3.0, 6.0), 10.0), 0.1, 0.5,
                                  {"R": 650.0})
        problem = Problem(
            grid=grid, model=ModelKind.SEIR, masks=masks, district=region,
            population=population, t_end=10.0, tau=0.1, weights=ObjectiveWeights(),
            data=interpolate_data(series, masks, grid, population), initial=initial,
        )
        config = MetropolisConfig(draws=200, sigma=2e-3, seed=1, step_scale=[1e-4] * 5 + [20.0])
        result = metropolis_fit(problem, config)
        log = result.diagnostics["decisions"]
        # regenerate the proposals from the chain seed
        rng = np.random.default_rng(config.seed)
        x = problem.pack(initial)
        over = np.zeros(config.draws, dtype=bool)
        for i in range(config.draws):
            prop = x + result.diagnostics["step_scale"] * rng.standard_normal(len(x))
            over[i] = prop[5] > 1000.0 * 2.0 / 3.0
            if log["in_bounds"][i]:
                rng.uniform()
                if log["accepted"][i]:
                    x = prop
        assert over.any()
        assert not log["in_bounds"][over].any()
        assert 0.0 < result.acceptance_rate < 1.0

    def test_acceptance_bookkeeping(self, twin9):
        problem = twin9["problem"]
        result = metropolis_fit(problem, MetropolisConfig(draws=200, seed=1, sigma=2e-4))
        log = result.diagnostics["decisions"]
        assert result.acceptance_rate == pytest.approx(log["accepted"].mean())
        assert set(result.posterior_std) == set(problem.param_names)
        assert result.objective == pytest.approx(problem.objective(result.params), rel=1e-12)
        assert len(result.history) == 200

    def test_stuck_chain_warns(self, twin9, monkeypatch):
        problem = twin9["problem"]
        monkeypatch.setattr(estimate, "STUCK_WINDOW", 50)
        config = MetropolisConfig(draws=60, seed=2, sigma=1e-12, step_scale=0.05)
        with pytest.warns(RuntimeWarning, match="no accepted"):
            result = metropolis_fit(problem, config)
        assert result.diagnostics["stuck"]
        assert result.acceptance_rate == 0.0
        assert all(np.isnan(v) for v in result.posterior_std.values())

    def test_posterior_mean_over_post_burn_in_draws(self, twin9):
        problem = twin9["problem"]
        config = MetropolisConfig(draws=300, seed=5, sigma=2e-4, step_scale=0.02, burn_in=0.2)
        result = metropolis_fit(problem, config)
        log = result.diagnostics["decisions"]
        burn = result.diagnostics["burn_in_draws"]
        assert burn == 60
        states = [
            x for i, (j, x) in enumerate(result.history)
            if log["accepted"][i] and i >= burn
        ]
        expected = np.mean(states, axis=0)
        npt.assert_allclose(problem.pack(result.params), expected, rtol=1e-12)


class TestAdjointGradient:
    def test_matches_finite_differences(self, twin9):
        """The standing check: adjoint vs central FD on all five chi components."""
        problem, truth = twin9["problem"], twin9["truth"]
        start = truth.with_chi(truth.chi * np.array([1.1, 0.9, 1.2, 0.8, 1.1]))
        report = gradient_check(problem, start)
        assert report["rel_err"].max() < 1e-5, report

    def test_seed_gradients_match_finite_differences(self, twin9):
        problem, truth = twin9["problem"], twin9["truth"]
        start = truth.with_chi(truth.chi * 0.9).with_seeds(
            {k: v * 1.3 for k, v in truth.init_infected.items()}
        )
        report = gradient_check(problem, start, include_seeds=True)
        assert report["rel_err"].max() < 1e-4, report

    def test_scaled_error_definition(self, twin9):
        """scaled_err weighs each error by its FD step's scale against the largest |FD| * s."""
        problem, truth = twin9["problem"], twin9["truth"]
        start = truth.with_chi(truth.chi * 0.9).with_seeds(
            {k: v * 1.3 for k, v in truth.init_infected.items()}
        )
        report = gradient_check(problem, start, include_seeds=True)
        err = np.abs(report["adjoint"] - report["fd"])
        size = np.maximum(np.abs(problem.pack(start)), 1e-2)
        npt.assert_array_equal(report["scaled_err"], err * size / (np.abs(report["fd"]) * size).max())
        npt.assert_array_equal(report["rel_err"], err / np.maximum(np.abs(report["fd"]), 1e-12))
        # At the component with the largest |FD| * s the two errors are
        # roundings of the same number, which the two lines above pin bit for
        # bit; everywhere else the scaled error is strictly the smaller.
        others = np.arange(len(size)) != np.argmax(np.abs(report["fd"]) * size)
        assert (report["scaled_err"][others] <= report["rel_err"][others]).all()
        assert report["scaled_err"].max() < 1e-6, report

    @pytest.mark.parametrize("model", [ModelKind.SIS, ModelKind.SIR])
    def test_other_models_match_finite_differences(self, twin9, model):
        """The kappa pairing and the seed closure hold beyond SEIR, seeds included."""
        problem = dataclasses.replace(twin9["problem"], model=model)
        truth = twin9["truth"]
        start = truth.with_chi(truth.chi * np.array([1.1, 0.9, 1.2, 0.8, 1.1])).with_seeds(
            {k: v * 1.3 for k, v in truth.init_infected.items()}
        )
        report = gradient_check(problem, start, include_seeds=True)
        assert report["rel_err"].max() < 1e-6, report

    def test_no_sparse_operator_is_built(self, twin9, monkeypatch):
        """Objective and gradient apply L in its eigenbasis; no sparse L or B is assembled."""
        problem, truth = twin9["problem"], twin9["truth"]
        start = truth.with_chi(truth.chi * 1.05)

        def refuse(*args, **kwargs):
            raise AssertionError("scipy.sparse.kron called")

        monkeypatch.setattr(scipy.sparse, "kron", refuse)
        problem.objective(start)
        adjoint_gradient(problem, start)

    def test_regularizer_only_gradient_at_zero_residual(self, tmp_path):
        """On a kappa=0 twin at truth the gradient reduces to the chi anchor."""
        problem, truth, _ = make_twin(tmp_path, kappa=0.0)
        chi_ref = truth.chi + np.array([0.03, -0.02, 0.01, 0.0, -0.04])
        problem = dataclasses.replace(
            problem, weights=ObjectiveWeights(1.0, 0.7, 0.0, chi_ref=chi_ref))
        grad = adjoint_gradient(problem, truth)
        npt.assert_allclose(grad.chi, 0.7 * (truth.chi - chi_ref), atol=1e-12)
        npt.assert_allclose(grad.seeds, 0.0, atol=1e-12)
        npt.assert_allclose(grad.du0, 0.0, atol=1e-12)

    def test_kappa_derivative_at_zero_kappa(self, tmp_path):
        """On a kappa = 0 twin, off the truth, dJ/dkappa matches a one-sided difference.

        The two-sided stencil of gradient_check would leave the box here.
        """
        problem, truth, _ = make_twin(tmp_path, kappa=0.0)
        start = truth.with_chi(truth.chi * np.array([1.1, 0.9, 1.2, 1.0, 1.1]))
        grad = adjoint_gradient(problem, start)

        def objective_at(kappa):
            return problem.objective(start.with_chi(np.r_[start.chi[:3], kappa, start.chi[4]]))

        h = 1e-5
        fd = (-3.0 * objective_at(0.0) + 4.0 * objective_at(h) - objective_at(2.0 * h)) / (2.0 * h)
        assert abs(grad.chi[3] - fd) <= 1e-6 * abs(fd), (grad.chi[3], fd)

    def test_one_day_mark_pass(self, twin9, monkeypatch):
        """The gradient forms J's residual r_d in one helper, once per day mark at its forward
        run's day hook, for its terms and dJ/dchi, and once where the sweep reads that day's
        phi for dJ/dphi."""
        problem, truth = twin9["problem"], twin9["truth"]
        calls = []
        original = objective._residual

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(objective, "_residual", counted)
        adjoint_gradient(problem, truth.with_chi(truth.chi * 1.05))
        assert len(calls) == 2 * problem.data.n_days

    def test_needs_every_level(self, twin9):
        problem, truth = twin9["problem"], twin9["truth"]
        daily = problem.simulate(truth)  # whole days only
        with pytest.raises(SequencingError):
            sweep(daily, truth.schedule, truth.kappa, lambda day, phi: np.zeros_like(phi))

    def test_cn_backend_only(self, tmp_path):
        problem, truth, _ = make_twin(tmp_path)
        problem = dataclasses.replace(problem, backend="fem-split")
        with pytest.raises(ConfigError):
            adjoint_gradient(problem, truth)

    def test_corrected_step_is_refused(self, twin9):
        """The sweep transposes the plain step only; its corrected-step gradient is off by ~5e-3."""
        problem = dataclasses.replace(twin9["problem"], corrected=True)
        start = twin9["truth"].with_chi(twin9["truth"].chi * 1.05)
        with pytest.raises(ConfigError, match="corrected"):
            adjoint_gradient(problem, start)
        with pytest.raises(ConfigError, match="corrected"):
            gradient_check(problem, start)
        problem = dataclasses.replace(problem, initial=start)
        with pytest.raises(ConfigError, match="corrected"):
            adjoint_fit(problem, AdjointConfig(max_outer=2))

    def test_fd_stencil_guards_bounds(self, tmp_path):
        problem, truth, _ = make_twin(tmp_path, kappa=0.0)
        with pytest.raises(ParameterError, match="bounds"):
            gradient_check(problem, truth)

    def test_missing_u0_ref_anchors_the_disease_free_state(self, twin9):
        """With w2 > 0 and no u0_ref, w2 counts |u0 - u_free|^2 / 2: S = 1 and E = I = 0."""
        problem = dataclasses.replace(twin9["problem"], weights=ObjectiveWeights(1.0, 0.0, 1e-5))
        truth = twin9["truth"]
        free = truth.with_seeds({name: 0.0 for name in truth.init_infected})
        u_free = problem.build_u0(free)
        assert (u_free[0] == 1.0).all() and (u_free[1:] == 0.0).all()
        terms = evaluate_terms(problem.simulate(free), free, problem.weights, problem.data)
        assert terms.init_reg == 0.0
        seeded = evaluate_terms(problem.simulate(truth), truth, problem.weights, problem.data)
        gap = problem.build_u0(truth) - u_free
        assert seeded.init_reg == pytest.approx(
            0.5 * 1e-5 * float((gap * gap).sum()) * problem.grid.cell_area, rel=1e-12)
        start = truth.with_chi(truth.chi * 0.9).with_seeds(
            {k: v * 1.3 for k, v in truth.init_infected.items()}
        )
        report = gradient_check(problem, start, include_seeds=True)
        assert report["rel_err"].max() < 1e-4, report


class TestAdjointFit:
    def test_stationary_start_stops_immediately(self, tmp_path):
        """Starting a kappa=0 twin at its truth, the fit has nothing to do."""
        problem, truth, _ = make_twin(tmp_path, kappa=0.0)
        result = adjoint_fit(problem, AdjointConfig(max_outer=10))
        assert len(result.history) <= 2
        assert result.objective < 1e-18
        assert result.diagnostics["stop"] in ("stationary", "tol", "line_search")

    def test_objective_is_non_increasing(self, tmp_path):
        problem, truth, _ = make_twin(tmp_path)
        start = truth.with_chi(truth.chi * np.array([1.4, 0.7, 1.3, 1.5, 0.8]))
        problem = dataclasses.replace(problem, initial=start)
        result = adjoint_fit(problem, AdjointConfig(max_outer=12))
        js = [j for j, _ in result.history]
        assert all(b <= a + 1e-15 for a, b in zip(js, js[1:]))
        assert result.objective < js[0]
        assert result.objective == pytest.approx(
            problem.objective(result.params), rel=1e-10
        )
        assert len(result.gradient_norms) >= 1
        assert result.n_evaluations >= len(js)

    def test_one_forward_run_per_evaluation(self, twin9, monkeypatch):
        """Accepted trials feed their own run to the gradient; J is unchanged by it."""
        problem, truth = twin9["problem"], twin9["truth"]
        start = truth.with_chi(truth.chi * np.array([1.2, 0.9, 1.1, 1.3, 0.9]))
        problem = dataclasses.replace(problem, initial=start)
        runs = []
        simulate = Problem.simulate

        def counted(self, *args, **kwargs):
            runs.append(kwargs.get("every_level"))
            return simulate(self, *args, **kwargs)

        monkeypatch.setattr(Problem, "simulate", counted)
        result = adjoint_fit(problem, AdjointConfig(max_outer=4))
        monkeypatch.undo()
        assert len(result.history) > 2
        assert runs == [True] * result.n_evaluations
        # every recorded J is bit-identical to a fresh daily-stored objective
        for j, x in result.history:
            assert j == problem.objective(problem.unpack(x))

    def test_holds_one_stored_run_at_a_time(self, twin9):
        """A fit's traced peak stays below two every-level runs: each is dropped once read."""
        problem, truth = twin9["problem"], twin9["truth"]
        start = truth.with_chi(truth.chi * np.array([1.2, 0.9, 1.1, 1.3, 0.9]))
        problem = dataclasses.replace(problem, initial=start)
        run = problem.simulate(start, every_level=True)
        run_bytes = sum(v.nbytes for v in vars(run).values() if isinstance(v, np.ndarray))
        del run
        tracemalloc.start()
        try:
            result = adjoint_fit(problem, AdjointConfig(max_outer=3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(result.history) == 4  # three accepted steps
        assert peak < 2 * run_bytes, (peak, run_bytes)

    def test_stalled_descent_stops_on_tol(self, twin9):
        """From twin9's truth the fit creeps down until one step changes J by less than TOL."""
        result = adjoint_fit(twin9["problem"], AdjointConfig(max_outer=200))
        assert result.diagnostics["stop"] == "tol"
        assert not result.diagnostics["line_search_failed"]
        assert 2 <= len(result.history) <= 200
        j_prev, j_last = result.history[-2][0], result.history[-1][0]
        assert abs(j_prev - j_last) <= estimate.TOL * abs(j_prev)

    def test_failed_line_search_stops_the_fit(self, twin9, monkeypatch):
        """When no trial step reaches ALPHA_MIN's test, the fit keeps its start and says why."""
        monkeypatch.setattr(estimate, "ALPHA_MIN", 2.0)
        truth = twin9["truth"]
        start = truth.with_chi(truth.chi * np.array([1.2, 0.9, 1.1, 1.3, 0.9]))
        problem = dataclasses.replace(twin9["problem"], initial=start)
        result = adjoint_fit(problem, AdjointConfig(max_outer=5))
        assert result.diagnostics["stop"] == "line_search"
        assert result.diagnostics["line_search_failed"]
        assert result.params == start and len(result.history) == 1
        assert result.n_evaluations == 1

    def test_converges_on_a_kappa_free_twin(self, tmp_path):
        """Off the truth of a kappa = 0 twin the fit reaches the minimum in few runs.

        The damped limited-memory update this fit once used took 207 runs here and stopped
        on max_outer.
        """
        problem, truth, _ = make_twin(tmp_path, kappa=0.0)
        problem = dataclasses.replace(
            problem, initial=truth.with_chi(truth.chi * np.array([1.2, 0.9, 1.1, 1.3, 0.9])))
        result = adjoint_fit(problem, AdjointConfig(max_outer=200))
        assert result.diagnostics["stop"] in ("stationary", "tol")
        assert result.n_evaluations <= 50
        keep = [0, 1, 2, 4]  # kappa's truth is 0
        npt.assert_allclose(result.params.chi[keep], truth.chi[keep], rtol=1e-4, atol=0.0)

    def test_unstable_trial_is_a_failed_trial(self, tmp_path, monkeypatch):
        """A trial whose run trips the negativity guard halves alpha; the fit goes on.

        The fit's 2nd run, its first trial, raises StabilityError as a run that goes
        negative does.  That run counts as an evaluation.  The fit's first run still
        raises: a start the guard refuses, at beta1 = 142, is not a line-search matter.
        """
        problem, truth, _ = make_twin(tmp_path, weights=ObjectiveWeights(1e6, 0.0, 0.0))
        problem = dataclasses.replace(
            problem, initial=truth.with_chi(truth.chi * np.array([1.2, 0.9, 1.1, 1.3, 0.9])))
        runs = []
        simulate = Problem.simulate

        def counted(self, *args, **kwargs):
            runs.append(1)
            if len(runs) == 2:
                raise StabilityError("the first trial's run goes negative")
            return simulate(self, *args, **kwargs)

        monkeypatch.setattr(Problem, "simulate", counted)
        result = adjoint_fit(problem, AdjointConfig(max_outer=20))
        monkeypatch.undo()
        assert result.diagnostics["unstable_trials"] >= 1
        assert len(runs) == result.n_evaluations
        js = [j for j, _ in result.history]
        assert all(b <= a for a, b in zip(js, js[1:])) and js[-1] < js[0]

        problem = dataclasses.replace(
            problem, initial=truth.with_chi(np.array([0.2, 142.0, 0.1, 0.1, 0.5])))
        with pytest.raises(StabilityError):
            adjoint_fit(problem, AdjointConfig(max_outer=2))

    def test_steepest_step_is_capped(self, tmp_path):
        """A step along -g is at most 1 long in chi, so J's scale does not stretch it.

        With w0 = 1e6, |g_chi| is far above 1; an uncapped first step reaches beta1 ~ 142,
        whose run goes negative.  Each evaluation is one forward run.
        """
        problem, truth, _ = make_twin(tmp_path, weights=ObjectiveWeights(1e6, 0.0, 0.0))
        problem = dataclasses.replace(
            problem, initial=truth.with_chi(truth.chi * np.array([1.2, 0.9, 1.1, 1.3, 0.9])))
        result = adjoint_fit(problem, AdjointConfig(max_outer=20))
        assert result.diagnostics["unstable_trials"] == 0
        assert result.n_evaluations <= 30

    def test_counts_skipped_updates(self, twin9, monkeypatch):
        """A fit whose every curvature pair is skipped walks along -g and counts each skip."""
        monkeypatch.setattr(estimate, "_bfgs_update", lambda H, s, y: H)
        truth = twin9["truth"]
        start = truth.with_chi(truth.chi * np.array([1.2, 0.9, 1.1, 1.3, 0.9]))
        problem = dataclasses.replace(twin9["problem"], initial=start)
        result = adjoint_fit(problem, AdjointConfig(max_outer=3))
        assert result.diagnostics["stop"] == "max_outer"
        assert result.diagnostics["skipped_updates"] == 3
        assert result.diagnostics["resets"] == 0

    def test_chi_moves_toward_truth(self, tmp_path):
        problem, truth, _ = make_twin(tmp_path, t_end=30.0, breakpoints=(10.0, 20.0))
        start = truth.with_chi(truth.chi * np.array([1.5, 1.0, 1.0, 1.0, 1.0]))
        problem = dataclasses.replace(problem, initial=start)
        result = adjoint_fit(problem, AdjointConfig(max_outer=25))
        err0 = abs(start.chi[0] - truth.chi[0])
        err1 = abs(result.params.chi[0] - truth.chi[0])
        assert err1 < 0.2 * err0

    def test_seed_optimization_requires_w2(self, tmp_path):
        problem, truth, _ = make_twin(tmp_path)
        with pytest.raises(ConfigError, match="w2"):
            adjoint_fit(problem, AdjointConfig(optimize_initial=True))
        with pytest.raises(ConfigError, match="per_cell"):
            adjoint_fit(problem, AdjointConfig(per_cell_initial=True))

    def test_per_region_seed_updates_reduce_J(self, tmp_path):
        problem, truth, _ = make_twin(tmp_path, kappa=0.0)
        u0_ref = problem.build_u0(truth)
        problem = dataclasses.replace(
            problem, weights=ObjectiveWeights(1.0, 0.0, 1e-4, u0_ref=u0_ref))
        start = truth.with_seeds(
            {k: v * 2.0 for k, v in truth.init_infected.items()}
        )
        problem = dataclasses.replace(problem, initial=start)
        config = AdjointConfig(max_outer=15, optimize_initial=True)
        result = adjoint_fit(problem, config)
        js = [j for j, _ in result.history]
        assert result.objective < js[0]
        seeds0 = problem.pack(start)[5:]
        seeds1 = problem.pack(result.params)[5:]
        truth_seeds = problem.pack(truth)[5:]
        assert np.abs(seeds1 - truth_seeds).sum() < np.abs(seeds0 - truth_seeds).sum()
        npt.assert_array_equal(result.init_fields, problem.build_u0(result.params))

    def test_per_cell_mode_runs_and_reduces_J(self, tmp_path):
        problem, truth, _ = make_twin(tmp_path, kappa=0.0)
        u0_ref = problem.build_u0(truth)
        problem = dataclasses.replace(
            problem, weights=ObjectiveWeights(1.0, 0.0, 1e-4, u0_ref=u0_ref))
        start = truth.with_seeds(
            {k: v * 1.8 for k, v in truth.init_infected.items()}
        )
        problem = dataclasses.replace(problem, initial=start)
        config = AdjointConfig(max_outer=8, optimize_initial=True, per_cell_initial=True)
        result = adjoint_fit(problem, config)
        js = [j for j, _ in result.history]
        assert js[-1] < js[0]
        # reported seed counts integrate the optimized field
        for name in problem.region_names:
            count = region_total(
                result.init_fields[problem.model.infected_index] * problem.population,
                problem.masks[name],
                problem.grid,
            )
            assert result.params.init_infected[name] == pytest.approx(count, rel=1e-12)
        # the history logs the seeds of each accepted field, not the start counts
        npt.assert_array_equal(result.history[-1][1], problem.pack(result.params))

    def test_config_validation(self):
        with pytest.raises(ConfigError, match="max_outer"):
            AdjointConfig(max_outer=0)


def random_mask_problem(model, nx, ny, n_regions, seed):
    """A 6-day problem on 1-3 random, possibly overlapping region masks.

    Its data are the detected cases of a truth run, perturbed by up to 20%;
    both regularizers are on.  Returns the problem and an evaluation point
    away from the truth.
    """
    rng = np.random.default_rng(seed)
    grid = GridSpec(nx, ny, (nx - 1) * rng.uniform(0.8, 1.5), (ny - 1) * rng.uniform(0.8, 1.5))
    masks = {}
    for k in range(n_regions):
        cells = rng.uniform(size=grid.shape) < rng.uniform(0.1, 0.9)
        cells.flat[rng.integers(grid.n_cells)] = True
        masks[f"r{k}"] = RegionMask(f"r{k}", cells)
    population = rng.uniform(50.0, 500.0, size=grid.shape)
    counts = {
        name: float(rng.uniform(0.02, 0.1) * m.cell_count * grid.cell_area
                    * population[m.cells].min())
        for name, m in masks.items()
    }
    t_end = 6.0
    schedule = RateSchedule(tuple(rng.uniform(0.15, 0.4, 3)), (2.0, 4.0), t_end)
    truth = ParameterVector(schedule, float(rng.uniform(0.05, 0.3)), 0.5, counts)
    problem = Problem(
        grid=grid, model=model, masks=masks, district=union_mask(masks.values()),
        population=population, t_end=t_end, tau=0.5, weights=ObjectiveWeights(),
        data=None, initial=truth,
    )
    cases = detected_daily_cases(problem.simulate(truth), truth, masks, population)
    series = {
        name: CaseSeries(name, np.arange(len(v)), v * rng.uniform(0.8, 1.2, len(v)))
        for name, v in cases.items()
    }
    weights = ObjectiveWeights(
        1.0, 1e-5, 1e-5, chi_ref=truth.chi * 1.01, u0_ref=problem.build_u0(truth)
    )
    problem = dataclasses.replace(
        problem, weights=weights, data=interpolate_data(series, masks, grid, population)
    )
    point = truth.with_chi(truth.chi * rng.uniform(0.85, 1.15, 5)).with_seeds(
        {name: c * rng.uniform(0.7, 1.3) for name, c in counts.items()}
    )
    return problem, point


def _curvature_pair(data):
    """Two random 5-vectors s, y with s'y >= 1e-3 |s| |y|."""
    vec = st.lists(st.floats(-1.0, 1.0, allow_subnormal=False), min_size=5, max_size=5)
    s, z = np.array(data.draw(vec)), np.array(data.draw(vec))
    y = z if s @ z >= 0.0 else -z
    ns, ny = np.linalg.norm(s), np.linalg.norm(y)
    assume(min(ns, ny) >= 1e-3 and s @ y >= 1e-3 * ns * ny)
    return s, y


class TestBfgsUpdate:
    """_bfgs_update from the first pair, or after one earlier pair."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), earlier=st.booleans())
    def test_secant_symmetric_positive_definite(self, data, earlier):
        H = estimate._bfgs_update(None, *_curvature_pair(data)) if earlier else None
        s, y = _curvature_pair(data)
        H1 = estimate._bfgs_update(H, s, y)
        # H1 y is formed with rounding of order eps |H1| |y|: the residual's scale
        assert np.linalg.norm(H1 @ y - s) <= 1e-12 * np.linalg.norm(H1, 2) * np.linalg.norm(y)
        assert (H1 == H1.T).all()
        np.linalg.cholesky(H1)
        if H is None:
            # Nocedal & Wright eq. 6.20's start, updated once in eq. 6.17's product form
            sy = s @ y
            v = np.eye(5) - np.outer(s, y) / sy
            once = v @ (sy / (y @ y) * np.eye(5)) @ v.T + np.outer(s, s) / sy
            npt.assert_allclose(H1, once, rtol=0.0, atol=1e-12 * np.abs(once).max())

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), earlier=st.booleans(), kind=st.sampled_from(["descent", "tiny", "zero"]))
    def test_a_pair_without_curvature_is_skipped(self, data, earlier, kind):
        """A pair with s'y <= 1e-16 s's leaves H as it is, the very object."""
        H = estimate._bfgs_update(None, *_curvature_pair(data)) if earlier else None
        s, y = _curvature_pair(data)
        if kind == "descent":
            y = -y
        elif kind == "tiny":
            y = 1e-17 * s
        else:
            s = np.zeros(5)
        assert s @ y <= 1e-16 * (s @ s)
        assert estimate._bfgs_update(H, s, y) is H


class TestRandomMaskProperties:
    """Adjoint = finite differences and mass conservation over random region masks."""

    @settings(max_examples=40, deadline=None)
    @given(
        model=st.sampled_from(list(ModelKind)),
        nx=st.integers(4, 9),
        ny=st.integers(4, 9),
        n_regions=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_adjoint_matches_fd_and_mass_is_conserved(self, model, nx, ny, n_regions, seed):
        problem, point = random_mask_problem(model, nx, ny, n_regions, seed)
        report = gradient_check(problem, point, include_seeds=True)
        # The FD round-off is about eps * J / h, and gradient_check's step h
        # grows with the parameter's size, so a component counts where its
        # sensitivity to a relative change, |FD| * size, is at least 1e-3 of
        # the largest.  Measured by |FD| alone, the seeds (hundreds of
        # persons) would mostly drop out.
        size = np.maximum(np.abs(problem.pack(point)), 1e-2)
        sensitivity = np.abs(report["fd"]) * size
        keep = sensitivity >= 1e-3 * sensitivity.max()
        assert report["rel_err"][keep].max() < 1e-6, report

        traj = problem.simulate(point)
        population = problem.population_at(point.kappa, traj.times)
        assert conservation_drift(population.sum(axis=(1, 2)) * problem.grid.cell_area) <= 1e-12

    @settings(max_examples=30, deadline=None)
    @given(
        model=st.sampled_from(list(ModelKind)),
        nx=st.integers(4, 9),
        ny=st.integers(4, 9),
        n_regions=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        backend=st.sampled_from(["cn", "fem-split"]),
        w1=st.booleans(),
        w2=st.booleans(),
    )
    def test_streamed_objective_is_the_stored_one(self, model, nx, ny, n_regions, seed, backend,
                                                  w1, w2):
        """J summed at the day hook is, bit for bit, J of the stored run and the gradient's J.

        So are the hook's sums, the misfit and each day's phi . r, and an every-level run's
        force rows at the whole days are the daily run's.
        """
        problem, point = random_mask_problem(model, nx, ny, n_regions, seed)
        weights = dataclasses.replace(problem.weights, w1=problem.weights.w1 * w1,
                                      w2=problem.weights.w2 * w2)
        problem = dataclasses.replace(problem, weights=weights, backend=backend)
        try:
            traj = problem.simulate(point)
        except StabilityError:
            # random masks jump, where fem-split's diffusion undershoots and a coarse cn
            # step can too; the hooked run takes the same steps and stops at the same one
            with pytest.raises(StabilityError):
                problem.objective(point)
            return
        j = problem.objective(point)
        assert j.hex() == evaluate_terms(traj, point, weights, problem.data).total.hex()
        if backend == "cn":
            assert j.hex() == adjoint_gradient(problem, point).breakdown.total.hex()
        _, marks = problem._marked_run(point)
        replayed = objective._DayMarks(point, problem.data, weights, problem.model, traj.states[0])
        for level, day in zip(traj.daily_indices, traj.days.tolist()):
            replayed.add(day, transmission_bilinear(problem.model, traj.states[level]))
        assert marks.misfit.hex() == replayed.misfit.hex()
        assert marks.phi_r.tobytes() == replayed.phi_r.tobytes()
        every = problem.simulate(point, every_level=True)
        days = np.rint(traj.times[1:] / problem.tau).astype(int)
        assert every.between[days - 1].tobytes() == traj.states[1:, model.force_rows].tobytes()
        hooked = problem.simulate(point, on_day=lambda day, q: None)
        assert hooked.times.tobytes() == traj.times[:1].tobytes()
        assert hooked.states.tobytes() == traj.states[:1].tobytes()


@pytest.fixture(scope="module")
def twins17(tmp_path_factory):
    """17x17 twins at tau = 0.25 over 20 and 80 days, with an evaluation point off the truth."""
    out = {}
    for t_end in (20.0, 80.0):
        problem, truth, _ = make_twin(tmp_path_factory.mktemp(f"twin17_{t_end:.0f}"), nx=17,
                                      t_end=t_end, tau=0.25, breakpoints=(5.0, 10.0))
        out[t_end] = problem, truth.with_chi(truth.chi * 1.05)
    return out


def traced_peak(fn, *args) -> int:
    """The tracemalloc peak of fn(*args), after one warm call has built the lazy data fields."""
    fn(*args)
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStreamedMemory:
    """J and its gradient hold O(cells) beside the stored run, not a field per day."""

    def test_objective_peak_does_not_grow_with_the_window(self, twins17):
        peaks = {t_end: traced_peak(problem.objective, params)
                 for t_end, (problem, params) in twins17.items()}
        assert peaks[80.0] <= 1.25 * peaks[20.0], peaks

    def test_gradient_holds_no_stack_beside_its_run(self, twins17):
        extra = {}
        for t_end, (problem, params) in twins17.items():
            run = problem.simulate(params, every_level=True)
            run_bytes = sum(v.nbytes for v in vars(run).values() if isinstance(v, np.ndarray))
            del run
            extra[t_end] = traced_peak(adjoint_gradient, problem, params) - run_bytes
        assert extra[80.0] <= 2 * extra[20.0], extra
