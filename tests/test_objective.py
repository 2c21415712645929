"""Tests for case-data spatialization and the least-squares objective."""

import dataclasses

import numpy as np
import numpy.testing as npt
import pytest

from epidiffuse.errors import (
    AlignmentError,
    CaseDataError,
    ConfigError,
    DegenerateRegionError,
    ParameterError,
)
from epidiffuse.estimate import Problem
from epidiffuse.grid import GridSpec, RegionMask, region_total, union_mask
from epidiffuse.models import (
    ModelKind,
    ParameterVector,
    RateSchedule,
    beta_at,
    transmission_bilinear,
)
from epidiffuse.objective import (
    CaseSeries,
    ObjectiveWeights,
    _DayMarks,
    _residual,
    detected_daily_cases,
    evaluate_terms,
    interpolate_data,
    trapezoid_day_weights,
)

SCHED = RateSchedule((0.2, 0.1, 0.3), (10.0, 20.0), 40.0)


def two_region_setup():
    grid = GridSpec(6, 5, 1.0, 1.0)
    a = np.zeros(grid.shape, dtype=int)
    a[0:2, 0:3] = 1
    b = np.zeros(grid.shape, dtype=int)
    b[3:5, 2:6] = 1
    masks = {"a": RegionMask("a", a), "b": RegionMask("b", b)}
    population = np.full(grid.shape, 250.0)
    return grid, masks, population


class TestCaseSeries:
    def test_cumulative(self):
        s = CaseSeries("a", np.arange(4), [1.0, 2.0, 0.0, 5.0])
        npt.assert_array_equal(s.cumulative, [1.0, 3.0, 3.0, 8.0])

    def test_contiguity_required(self):
        with pytest.raises(CaseDataError):
            CaseSeries("a", [0, 1, 3], [1.0, 2.0, 3.0])

    def test_rejects_bad_counts(self):
        with pytest.raises(CaseDataError):
            CaseSeries("a", [0, 1], [1.0, -2.0])
        with pytest.raises(CaseDataError):
            CaseSeries("a", [0, 1], [1.0, np.nan])
        with pytest.raises(CaseDataError):
            CaseSeries("a", [0, 1], [1.0])
        with pytest.raises(CaseDataError):
            CaseSeries("a", [], [])


class TestInterpolateData:
    def test_region_aggregation_roundtrip(self):
        """10 cases/day among 1500 people comes back as fraction 10/1500."""
        grid, masks, population = two_region_setup()
        pop_a = region_total(population, masks["a"], grid)  # 6 cells * 250 * area
        series = {
            "a": CaseSeries("a", np.arange(3), [10.0, 10.0, 10.0]),
            "b": CaseSeries("b", np.arange(3), [0.0, 4.0, 8.0]),
        }
        data = interpolate_data(series, masks, grid, population)
        field0 = data.daily_fields[0]
        assert region_total(field0, masks["a"], grid) == pytest.approx(10.0 / pop_a)
        assert region_total(field0, masks["b"], grid) == pytest.approx(0.0)
        # cells outside every region carry no data
        outside = ~(masks["a"].cells | masks["b"].cells)
        assert (field0[outside] == 0.0).all()

    def test_district_incidence_fraction(self):
        grid, masks, population = two_region_setup()
        series = {
            "a": CaseSeries("a", np.arange(2), [10.0, 0.0]),
            "b": CaseSeries("b", np.arange(2), [5.0, 3.0]),
        }
        data = interpolate_data(series, masks, grid, population)
        total_pop = data.populations.sum()
        npt.assert_allclose(
            data.district_incidence_fraction(), [15.0 / total_pop, 3.0 / total_pop]
        )

    def test_mask_and_window_validation(self):
        grid, masks, population = two_region_setup()
        series = {"zz": CaseSeries("zz", np.arange(2), [1.0, 1.0])}
        with pytest.raises(ConfigError):
            interpolate_data(series, masks, grid, population)
        misaligned = {
            "a": CaseSeries("a", np.arange(2), [1.0, 1.0]),
            "b": CaseSeries("b", np.arange(1, 3), [1.0, 1.0]),
        }
        with pytest.raises(AlignmentError):
            interpolate_data(misaligned, masks, grid, population)
        with pytest.raises(DegenerateRegionError):
            interpolate_data(
                {"a": CaseSeries("a", np.arange(2), [1.0, 1.0])},
                masks, grid, np.zeros(grid.shape),
            )


class TestObjectiveWeights:
    def test_validation(self):
        with pytest.raises(ParameterError):
            ObjectiveWeights(w0=0.0)
        with pytest.raises(ParameterError):
            ObjectiveWeights(w0=1.0, w1=-1.0)
        with pytest.raises(ConfigError):
            ObjectiveWeights(w0=1.0, w1=0.5)  # no chi_ref
        with pytest.raises(ParameterError):
            ObjectiveWeights(w0=1.0, w1=0.5, chi_ref=np.zeros(3))
        ObjectiveWeights(w0=1.0, w1=0.5, chi_ref=np.zeros(5))

    @pytest.mark.parametrize("name", ["w0", "w1", "w2"])
    def test_nan_weight_refused(self, name):
        """A NaN weight would pass the sign checks and silently drop its term."""
        with pytest.raises(ParameterError, match=name):
            ObjectiveWeights(**{name: float("nan")}, chi_ref=np.zeros(5))


class TestTrapezoidWeights:
    def test_values(self):
        npt.assert_array_equal(trapezoid_day_weights(1), [1.0])
        npt.assert_array_equal(trapezoid_day_weights(4), [0.5, 1.0, 1.0, 0.5])


def run_and_data(t_end=4.0, delta=0.5, kappa=0.05):
    grid, masks, population = two_region_setup()
    params = ParameterVector(SCHED, kappa, delta, {"a": 5.0, "b": 8.0})
    problem = Problem(
        grid=grid, model=ModelKind.SEIR, masks=masks, district=union_mask(masks.values()),
        population=population, t_end=t_end, tau=0.25, weights=ObjectiveWeights(),
        data=None, initial=params,
    )
    traj = problem.simulate(params)
    rng = np.random.default_rng(12)
    n = int(t_end) + 1
    series = {
        "a": CaseSeries("a", np.arange(n), rng.uniform(0.0, 6.0, n)),
        "b": CaseSeries("b", np.arange(n), rng.uniform(0.0, 6.0, n)),
    }
    data = interpolate_data(series, masks, grid, population)
    return grid, masks, population, params, traj, data


class TestEvaluateJ:
    def test_brute_force_reference(self):
        """Triple loop over days, rows and columns reproduces evaluate_terms."""
        grid, masks, population, params, traj, data = run_and_data()
        chi_ref = params.chi + 0.3
        u0_ref = traj.states[0] + 0.01
        weights = ObjectiveWeights(1.7, 0.6, 0.9, chi_ref=chi_ref, u0_ref=u0_ref)
        terms = evaluate_terms(traj, params, weights, data)

        days = traj.days
        omega = trapezoid_day_weights(len(days))
        misfit = 0.0
        for pos, day in enumerate(days):
            u = traj.states[traj.daily_indices[pos]]
            g = (params.delta * beta_at(params.schedule, float(day))
                 * transmission_bilinear(traj.model, u))
            v = data.daily_fields[pos]
            acc = 0.0
            for k in range(grid.ny):
                for j in range(grid.nx):
                    acc += (g[k, j] - v[k, j]) ** 2 * grid.hx * grid.hy
            misfit += omega[pos] * acc
        misfit *= 0.5 * 1.7
        assert terms.misfit == pytest.approx(misfit, rel=1e-12)

        diff = params.chi - chi_ref
        assert terms.chi_reg == pytest.approx(0.5 * 0.6 * float(diff @ diff), rel=1e-12)
        d0 = traj.states[0] - u0_ref
        init_reg = 0.5 * 0.9 * float((d0 ** 2).sum()) * grid.cell_area
        assert terms.init_reg == pytest.approx(init_reg, rel=1e-12)
        assert terms.total == pytest.approx(
            misfit + 0.5 * 0.6 * float(diff @ diff) + init_reg, rel=1e-12
        )

    def test_daily_residuals_are_incidence_minus_data(self):
        grid, masks, population, params, traj, data = run_and_data()
        marks = _DayMarks(params, data, ObjectiveWeights(1.0), traj.model, traj.states[0])
        for pos, day in enumerate(traj.days):
            u = traj.states[traj.daily_indices[pos]]
            phi = transmission_bilinear(traj.model, u)
            assert marks.beta[pos] == beta_at(params.schedule, float(day))
            g = params.delta * beta_at(params.schedule, float(day)) * phi
            npt.assert_array_equal(_residual(phi, marks.delta_beta[pos]), g)
            npt.assert_array_equal(marks.residual(day, phi), g - data.daily_fields[pos])
            # the sweep's phi is flat over the cells
            npt.assert_array_equal(marks.residual(day, phi.reshape(-1)),
                                   (g - data.daily_fields[pos]).reshape(-1))

    def test_w0_scales_misfit_linearly(self):
        grid, masks, population, params, traj, data = run_and_data()
        j1 = evaluate_terms(traj, params, ObjectiveWeights(1.0), data).total
        j2 = evaluate_terms(traj, params, ObjectiveWeights(2.0), data).total
        assert j2 == pytest.approx(2.0 * j1, rel=1e-12)

    def test_region_label_permutation_invariance(self):
        """Relabeling regions (and their data) leaves J unchanged."""
        grid, masks, population, params, traj, data = run_and_data()
        weights = ObjectiveWeights(1.0)
        j = evaluate_terms(traj, params, weights, data).total

        renamed_masks = {"x": RegionMask("x", masks["b"].cells), "y": RegionMask("y", masks["a"].cells)}
        rows = sorted(masks)  # interpolate_data orders its case rows by region name
        series = {
            "x": CaseSeries("x", data.days.copy(), data.cases[rows.index("b")]),
            "y": CaseSeries("y", data.days.copy(), data.cases[rows.index("a")]),
        }
        data2 = interpolate_data(series, renamed_masks, grid, population)
        assert evaluate_terms(traj, params, weights, data2).total == pytest.approx(j, rel=1e-12)

    def test_zero_residual_twin_is_exact(self, twin9_flat):
        """At the generating parameters of a kappa=0 twin, the misfit vanishes."""
        problem, truth = twin9_flat["problem"], twin9_flat["truth"]
        assert problem.objective(truth) < 1e-20

    def test_alignment_is_enforced(self):
        grid, masks, population, params, traj, data = run_and_data()
        short = {
            "a": CaseSeries("a", np.arange(3), [1.0, 1.0, 1.0]),
            "b": CaseSeries("b", np.arange(3), [1.0, 1.0, 1.0]),
        }
        data_short = interpolate_data(short, masks, grid, population)
        with pytest.raises(AlignmentError):
            evaluate_terms(traj, params, ObjectiveWeights(1.0), data_short)

    def test_day_marks_take_the_data_days_in_order_and_all_of_them(self):
        grid, masks, population, params, traj, data = run_and_data()
        marks = _DayMarks(params, data, ObjectiveWeights(1.0), traj.model, traj.states[0])
        phi = transmission_bilinear(traj.model, traj.states[0])
        with pytest.raises(AlignmentError, match="day mark 1 is not the next"):
            marks.add(1, phi)
        marks.add(0, phi)
        with pytest.raises(AlignmentError, match="1 day marks, the data 5"):
            marks.terms
        head = dataclasses.replace(traj, times=traj.times[:2], states=traj.states[:2])
        with pytest.raises(AlignmentError, match="2 day marks"):
            evaluate_terms(head, params, ObjectiveWeights(1.0), data)


class TestSensitivities:
    def test_terms_and_fixed_state_derivatives(self, twin9):
        """At a fixed trajectory J is quadratic in chi and u_0, so central differences are exact."""
        problem, truth = twin9["problem"], twin9["truth"]
        data = problem.data
        params = truth.with_chi(truth.chi * np.array([1.1, 0.9, 1.2, 0.8, 1.1]))
        weights = ObjectiveWeights(1.0, 0.3, 0.2, chi_ref=truth.chi * 1.02,
                                   u0_ref=problem.build_u0(truth) * 1.1)
        traj = problem.simulate(params)
        marks = _DayMarks(params, data, weights, problem.model, traj.states[0])
        for level, day in zip(traj.daily_indices, traj.days.tolist()):
            marks.add(day, transmission_bilinear(problem.model, traj.states[level]))
        g_chi, g_u0 = marks.gradient()
        assert marks.terms == evaluate_terms(traj, params, weights, data)

        fd = np.empty(5)
        for i in range(5):
            h = 1e-4 * abs(params.chi[i])
            step = np.zeros(5)
            step[i] = h
            plus = evaluate_terms(traj, params.with_chi(params.chi + step), weights, data).total
            minus = evaluate_terms(traj, params.with_chi(params.chi - step), weights, data).total
            fd[i] = (plus - minus) / (2.0 * h)
        npt.assert_allclose(g_chi, fd, rtol=1e-8)
        npt.assert_allclose(g_chi[3], 0.3 * (params.kappa - weights.chi_ref[3]), rtol=1e-14)

        v = np.random.default_rng(5).normal(size=traj.states[0].shape)
        h = 1e-4

        def init_reg(shift):
            states = traj.states.copy()
            states[0] += shift
            moved = dataclasses.replace(traj, states=states)
            return evaluate_terms(moved, params, weights, data).init_reg

        fd_v = (init_reg(h * v) - init_reg(-h * v)) / (2.0 * h)
        assert abs(np.vdot(g_u0, v) - fd_v) <= 1e-8 * abs(fd_v)


class TestDetectedDailyCases:
    def test_matches_field_aggregation(self):
        grid, masks, population, params, traj, data = run_and_data()
        out = detected_daily_cases(traj, params, masks, population)
        assert set(out) == {"a", "b"}
        for name in out:
            assert len(out[name]) == len(traj.days)
        # day 2 by hand for region a
        u = traj.states[traj.daily_indices[2]]
        g = params.delta * beta_at(params.schedule, 2.0) * transmission_bilinear(traj.model, u)
        pop_a = region_total(population, masks["a"], grid)
        expected = pop_a * region_total(g, masks["a"], grid)
        assert out["a"][2] == pytest.approx(expected, rel=1e-12)

    def test_bit_identical_to_one_total_per_region_per_day(self):
        """One stacked region_total per region gives the per-day loop's arrays exactly."""
        grid, masks, population, params, traj, data = run_and_data()
        out = detected_daily_cases(traj, params, masks, population)
        for name, mask in masks.items():
            expected = np.array([
                region_total(population, mask, grid) * region_total(
                    params.delta * beta_at(params.schedule, float(day))
                    * transmission_bilinear(traj.model, traj.states[level]), mask, grid)
                for level, day in zip(traj.daily_indices, traj.days)
            ])
            np.testing.assert_array_equal(out[name], expected)

    def test_roundtrip_through_interpolant(self):
        """Spatializing the model's own cases and aggregating returns them."""
        grid, masks, population, params, traj, data = run_and_data()
        cases = detected_daily_cases(traj, params, masks, population)
        series = {
            name: CaseSeries(name, np.arange(len(v)), v) for name, v in cases.items()
        }
        data2 = interpolate_data(series, masks, grid, population)
        for pos, day in enumerate(traj.days):
            f = data2.daily_fields[pos]
            for name, mask in masks.items():
                agg = region_total(population, mask, grid) * region_total(f, mask, grid)
                assert agg == pytest.approx(cases[name][pos], rel=1e-12, abs=1e-15)
