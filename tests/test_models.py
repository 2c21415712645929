"""Tests for compartment models, rate schedules, and initial states."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epidiffuse.errors import DimensionError, NormalizationError, ParameterError
from epidiffuse.estimate import Problem
from epidiffuse.grid import GridSpec, RegionMask, distribute_uniform, region_total
from epidiffuse.models import (
    EXPOSED_PER_INFECTED,
    ModelKind,
    ParameterVector,
    RateSchedule,
    beta_at,
    beta_interval,
    initial_fractions,
    max_seed_fraction,
    reaction_split,
    seed_jacobian,
    transmission_bilinear,
    transmission_derivative,
)
from epidiffuse.objective import ObjectiveWeights
from oracles import reaction

SCHED = RateSchedule((0.2, 0.1, 0.3), (10.0, 20.0), 30.0)


class TestModelKind:
    def test_compartment_layout(self):
        assert ModelKind.SIS.n_compartments == 1
        assert ModelKind.SIR.n_compartments == 2
        assert ModelKind.SEIR.n_compartments == 3
        assert ModelKind.SIS.infected_index == 0
        assert ModelKind.SIR.infected_index == 1
        assert ModelKind.SEIR.infected_index == 2


class TestRateSchedule:
    def test_piecewise_plateaus(self):
        assert beta_at(SCHED, 0.0) == 0.2
        assert beta_at(SCHED, 9.999) == 0.2
        assert beta_at(SCHED, 10.0) == 0.1  # right-continuous
        assert beta_at(SCHED, 19.999) == 0.1
        assert beta_at(SCHED, 20.0) == 0.3
        assert beta_at(SCHED, 30.0) == 0.3

    def test_interval_index_matches_value(self):
        for t in np.linspace(0.0, 30.0, 121):
            k = beta_interval(SCHED, float(t))
            assert beta_at(SCHED, float(t)) == SCHED.betas[k]

    def test_domain_is_enforced(self):
        with pytest.raises(ParameterError):
            beta_at(SCHED, -0.5)
        with pytest.raises(ParameterError):
            beta_at(SCHED, 30.5)
        # round-off next to the endpoints is tolerated
        beta_at(SCHED, 30.0 + 1e-9)
        beta_at(SCHED, -1e-9)

    def test_validation(self):
        with pytest.raises(ParameterError):
            RateSchedule((0.2, 0.1), (10.0, 20.0), 30.0)
        with pytest.raises(ParameterError):
            RateSchedule((0.2, -0.1, 0.3), (10.0, 20.0), 30.0)
        with pytest.raises(ParameterError):
            RateSchedule((0.2, 0.1, 0.3), (20.0, 10.0), 30.0)
        with pytest.raises(ParameterError):
            RateSchedule((0.2, 0.1, 0.3), (10.0, 30.0), 30.0)
        with pytest.raises(ParameterError):
            RateSchedule((0.2, 0.1, 0.3), (10.0, 20.0), 30.0, gamma=0.0)

    def test_with_betas_keeps_everything_else(self):
        other = SCHED.with_betas([0.5, 0.4, 0.3])
        assert other.betas == (0.5, 0.4, 0.3)
        assert other.breakpoints == SCHED.breakpoints
        assert other.gamma == SCHED.gamma


class TestParameterVector:
    def test_chi_roundtrip(self):
        p = ParameterVector(SCHED, 0.1, 0.5, {"a": 3.0})
        npt.assert_array_equal(p.chi, [0.2, 0.1, 0.3, 0.1, 0.5])
        q = p.with_chi([0.4, 0.3, 0.2, 0.2, 0.6])
        npt.assert_array_equal(q.chi, [0.4, 0.3, 0.2, 0.2, 0.6])
        assert q.init_infected == {"a": 3.0}
        assert p.chi[0] == 0.2  # original untouched

    def test_bounds(self):
        with pytest.raises(ParameterError):
            ParameterVector(SCHED, -0.1, 0.5, {})
        with pytest.raises(ParameterError):
            ParameterVector(SCHED, 0.1, 1.5, {})
        with pytest.raises(ParameterError):
            ParameterVector(SCHED, 0.1, 0.5, {"a": -1.0})
        with pytest.raises(DimensionError):
            ParameterVector(SCHED, 0.1, 0.5, {}).with_chi([0.1, 0.2])

    def test_with_seeds(self):
        p = ParameterVector(SCHED, 0.1, 0.5, {"a": 3.0})
        q = p.with_seeds({"a": 5.0, "b": 1.0})
        assert q.init_infected == {"a": 5.0, "b": 1.0}
        assert q.chi is not p.chi
        npt.assert_array_equal(q.chi, p.chi)


def split_reaction(model, u, t):
    """f from the split, K u + e (x) beta(t) u_S u_I: shape of u."""
    K, e = reaction_split(model, SCHED)
    force = beta_at(SCHED, t) * transmission_bilinear(model, u)
    return np.tensordot(K, u, axes=1) + np.multiply.outer(e, force)


class TestReaction:
    """The split the solvers read against the model equations written out."""

    def test_sis_hand_value(self):
        """f = beta (1-u)u - gamma u at u=0.3, beta=0.2, gamma=0.1."""
        u = np.array([0.3])
        for f in (split_reaction(ModelKind.SIS, u, 0.0), reaction(ModelKind.SIS, u, 0.0, SCHED)):
            assert f[0] == pytest.approx(0.2 * 0.7 * 0.3 - 0.1 * 0.3)

    def test_sir_hand_value(self):
        u = np.array([0.9, 0.05])
        force = 0.2 * 0.9 * 0.05
        for f in (split_reaction(ModelKind.SIR, u, 0.0), reaction(ModelKind.SIR, u, 0.0, SCHED)):
            npt.assert_allclose(f, [-force, force - 0.1 * 0.05])

    def test_seir_hand_value(self):
        u = np.array([0.9, 0.02, 0.05])
        force = 0.2 * 0.9 * 0.05
        theta = SCHED.theta
        for f in (split_reaction(ModelKind.SEIR, u, 0.0), reaction(ModelKind.SEIR, u, 0.0, SCHED)):
            npt.assert_allclose(
                f, [-force, force - theta * 0.02, theta * 0.02 - 0.1 * 0.05], rtol=1e-12
            )

    def test_uses_schedule_plateau(self):
        """Each side of both breakpoints reads its own plateau."""
        u = np.array([0.9, 0.02, 0.05])
        for t0, before, after in ((10.0, 0.2, 0.1), (20.0, 0.1, 0.3)):
            early = split_reaction(ModelKind.SEIR, u, t0 - 1e-9)
            late = split_reaction(ModelKind.SEIR, u, t0)
            npt.assert_allclose(early, reaction(ModelKind.SEIR, u, t0 - 1e-9, SCHED), rtol=1e-12)
            npt.assert_allclose(late, reaction(ModelKind.SEIR, u, t0, SCHED), rtol=1e-12)
            assert late[0] == pytest.approx(early[0] * after / before)

    def test_matches_the_model_equations(self):
        """Random states and times, all three models."""
        rng = np.random.default_rng(23)
        for model in ModelKind:
            for _ in range(50):
                u = rng.uniform(0.0, 1.0, size=model.n_compartments)
                t = float(rng.uniform(0.0, 30.0))
                npt.assert_allclose(split_reaction(model, u, t), reaction(model, u, t, SCHED),
                                    rtol=1e-12, atol=1e-15)

    def test_field_shapes_pass_through(self):
        rng = np.random.default_rng(0)
        for model in ModelKind:
            u = rng.uniform(0.0, 0.4, size=(model.n_compartments, 4, 5))
            f = split_reaction(model, u, 0.0)
            assert f.shape == u.shape
            npt.assert_allclose(f, reaction(model, u, 0.0, SCHED), rtol=1e-12, atol=1e-15)
            # pointwise agreement with the scalar evaluation
            for iy, ix in np.ndindex(4, 5):
                npt.assert_allclose(f[:, iy, ix], split_reaction(model, u[:, iy, ix], 0.0))


def split_jacobian(model, u, t):
    """df/du from the split, K + e (x) beta(t) d(u_S u_I)/du: shape (m, m) plus u's field axes."""
    K, e = reaction_split(model, SCHED)
    dphi = beta_at(SCHED, t) * transmission_derivative(model, u)
    return K.reshape(K.shape + (1,) * (u.ndim - 1)) + np.multiply.outer(e, dphi)


class TestJacobian:
    """The Jacobian the adjoint's source assembles from the split."""

    def test_matches_finite_differences(self):
        """Central differences on random states, all three models."""
        rng = np.random.default_rng(17)
        eps = 1e-6
        for model in ModelKind:
            m = model.n_compartments
            for _ in range(20):
                u = rng.uniform(0.05, 0.6, size=m)
                t = float(rng.uniform(0.0, 30.0))
                jac = split_jacobian(model, u, t)
                for j in range(m):
                    up, um = u.copy(), u.copy()
                    up[j] += eps
                    um[j] -= eps
                    fd = (reaction(model, up, t, SCHED) - reaction(model, um, t, SCHED)) / (2 * eps)
                    npt.assert_allclose(jac[:, j], fd, rtol=1e-6, atol=1e-9)

    def test_field_shape(self):
        """The split evaluates stacks of fields cell by cell."""
        rng = np.random.default_rng(0)
        u = rng.uniform(0.05, 0.4, size=(3, 4, 5))
        assert transmission_derivative(ModelKind.SEIR, u).shape == u.shape
        jac = split_jacobian(ModelKind.SEIR, u, 0.0)
        assert jac.shape == (3, 3, 4, 5)
        npt.assert_allclose(jac[:, :, 2, 3], split_jacobian(ModelKind.SEIR, u[:, 2, 3], 0.0))

    def test_column_sums_match_loss_rate(self):
        """Summing df_i/du_j over i gives the derivative of the summed rate."""
        rng = np.random.default_rng(5)
        for model in (ModelKind.SIR, ModelKind.SEIR):
            m = model.n_compartments
            u = rng.uniform(0.05, 0.5, size=m)
            jac = split_jacobian(model, u, 0.0)
            expected = np.zeros(m)
            expected[model.infected_index] = -SCHED.gamma
            npt.assert_allclose(jac.sum(axis=0), expected, atol=1e-13)


class TestTransmissionBilinear:
    def test_values(self):
        assert transmission_bilinear(ModelKind.SIS, np.array([0.3]))[()] == pytest.approx(0.21)
        assert transmission_bilinear(ModelKind.SIR, np.array([0.9, 0.05]))[()] == pytest.approx(0.045)
        assert transmission_bilinear(
            ModelKind.SEIR, np.array([0.9, 0.02, 0.05])
        )[()] == pytest.approx(0.045)


class TestInitialFractions:
    def _setup(self):
        grid = GridSpec(5, 4, 1.0, 1.0)
        a = np.zeros(grid.shape, dtype=int)
        a[0:2, 0:2] = 1
        b = np.zeros(grid.shape, dtype=int)
        b[2:4, 2:5] = 1
        masks = {"a": RegionMask("a", a), "b": RegionMask("b", b)}
        population = np.full(grid.shape, 1000.0)
        return grid, masks, population

    def test_region_totals_match_seeds(self):
        grid, masks, population = self._setup()
        params = ParameterVector(SCHED, 0.1, 0.5, {"a": 12.0, "b": 30.0})
        for model in ModelKind:
            u0 = initial_fractions(model, grid, masks, params, population)
            infected = u0[model.infected_index] * population
            assert region_total(infected, masks["a"], grid) == pytest.approx(12.0)
            assert region_total(infected, masks["b"], grid) == pytest.approx(30.0)

    def test_seir_layering(self):
        grid, masks, population = self._setup()
        params = ParameterVector(SCHED, 0.1, 0.5, {"a": 12.0})
        u0 = initial_fractions(ModelKind.SEIR, grid, masks, params, population)
        covered = masks["a"].cells
        npt.assert_allclose(u0[1][covered], 0.5 * u0[2][covered])
        npt.assert_allclose(u0.sum(axis=0), 1.0)
        # disease free outside the seeded region
        assert (u0[2][~covered] == 0.0).all()
        assert (u0[1][~covered] == 0.0).all()
        npt.assert_array_equal(u0[0][~covered], 1.0)

    def test_sir_complement(self):
        grid, masks, population = self._setup()
        params = ParameterVector(SCHED, 0.1, 0.5, {"b": 5.0})
        u0 = initial_fractions(ModelKind.SIR, grid, masks, params, population)
        npt.assert_allclose(u0.sum(axis=0), 1.0)

    def test_errors(self):
        grid, masks, population = self._setup()
        with pytest.raises(ParameterError):
            initial_fractions(
                ModelKind.SIS, grid, masks,
                ParameterVector(SCHED, 0.1, 0.5, {"zz": 1.0}), population,
            )
        params = ParameterVector(SCHED, 0.1, 0.5, {"a": 1.0})
        dead = np.zeros(grid.shape)
        with pytest.raises(NormalizationError):
            initial_fractions(ModelKind.SIS, grid, masks, params, dead)
        too_many = ParameterVector(SCHED, 0.1, 0.5, {"a": 1e7})
        with pytest.raises(ParameterError):
            initial_fractions(ModelKind.SIS, grid, masks, too_many, population)
        with pytest.raises(DimensionError):
            initial_fractions(ModelKind.SIS, grid, masks, params, np.ones((2, 2)))

    def test_seir_over_seeding_is_refused(self):
        """S = 1 - (1 + r) * frac: SEIR seeds at most 1/(1 + r), the others at most 1.

        800 of 1000 persons is a fraction of 0.8, which would start S at -0.2;
        the run must refuse it before a step, not blame tau afterwards.
        """
        grid = GridSpec(9, 9, 4.0, 4.0)
        cells = np.zeros(grid.shape, dtype=bool)
        cells[2:6, 2:6] = True
        masks = {"HR": RegionMask("HR", cells)}
        population = distribute_uniform(1000.0, masks["HR"], grid)
        assert max_seed_fraction(ModelKind.SEIR) == 1.0 / (1.0 + EXPOSED_PER_INFECTED)
        assert max_seed_fraction(ModelKind.SIR) == max_seed_fraction(ModelKind.SIS) == 1.0

        def problem(model, seeds):
            params = ParameterVector(SCHED, 0.1, 0.5, {"HR": seeds})
            return Problem(grid, model, masks, masks["HR"], population, 2.0, 0.1,
                           ObjectiveWeights(), None, params), params

        seir, over = problem(ModelKind.SEIR, 800.0)
        with pytest.raises(ParameterError, match="exceed 0.6667 of the local population"):
            seir.simulate(over)
        for model, seeds in ((ModelKind.SEIR, 600.0), (ModelKind.SIR, 800.0), (ModelKind.SIS, 800.0)):
            prob, params = problem(model, seeds)
            assert (prob.simulate(params).states >= 0.0).all()


class TestSeedMapProperties:
    """The seeding map over random grids, region masks, seed counts and models."""

    @settings(max_examples=60, deadline=None)
    @given(
        model=st.sampled_from(list(ModelKind)),
        grid=st.builds(
            GridSpec, nx=st.integers(2, 20), ny=st.integers(2, 20),
            Lx=st.floats(0.5, 100.0), Ly=st.floats(0.5, 100.0),
        ),
        n_regions=st.integers(1, 3),
        empty_outside=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_seed_map(self, model, grid, n_regions, empty_outside, seed):
        rng = np.random.default_rng(seed)
        masks = {}
        for k in range(n_regions):
            cells = rng.uniform(size=grid.shape) < rng.uniform(0.1, 0.9)
            cells.flat[rng.integers(grid.n_cells)] = True
            masks[f"r{k}"] = RegionMask(f"r{k}", cells)
        seeded = np.any([m.cells for m in masks.values()], axis=0)
        population = rng.uniform(1.0, 1000.0, size=grid.shape)
        if empty_outside:
            population[~seeded] = 0.0
        # counts that put 2-20% of each region's thinnest cell's people in I,
        # so that three regions may overlap and still stay below SEIR's 2/3
        counts = {
            name: float(rng.uniform(0.02, 0.2) * m.cell_count * grid.cell_area
                        * population[m.cells].min())
            for name, m in masks.items()
        }
        params = ParameterVector(SCHED, 0.1, 0.5, counts)
        u0 = initial_fractions(model, grid, masks, params, population)

        frac = sum(
            np.where(m.cells, counts[name] / (m.cell_count * grid.cell_area), 0.0)
            for name, m in masks.items()
        ) / np.where(seeded, population, 1.0)
        npt.assert_allclose(u0[model.infected_index], frac, rtol=1e-12, atol=0.0)
        if model is not ModelKind.SIS:
            # R starts empty, so the retained compartments hold everyone
            npt.assert_allclose(u0.sum(axis=0)[seeded], 1.0, rtol=0.0, atol=1e-15)
        # disease free elsewhere: no one infected or exposed, S = 1
        outside = u0[:, ~seeded]
        npt.assert_array_equal(outside[1:], 0.0)
        npt.assert_array_equal(outside[0], 0.0 if model is ModelKind.SIS else 1.0)

        name = sorted(masks)[int(rng.integers(n_regions))]
        h = 0.5 * counts[name]

        def u0_at(count):
            seeds = params.with_seeds({**counts, name: count})
            return initial_fractions(model, grid, masks, seeds, population)

        fd = (u0_at(counts[name] + h) - u0_at(counts[name] - h)) / (2.0 * h)
        jac = seed_jacobian(model, grid, masks[name], population)
        assert np.abs(fd - jac).max() <= 1e-9 * np.abs(jac).max()
