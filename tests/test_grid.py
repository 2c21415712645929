"""Tests for grids, masks, and the mirrored-ghost Neumann Laplacian."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epidiffuse.errors import (
    DegenerateRegionError,
    DimensionError,
    ParameterError,
)
from epidiffuse.grid import (
    GridSpec,
    RegionMask,
    _from_eigen,
    _to_eigen,
    distribute_uniform,
    neumann_eigenbasis,
    region_total,
    union_mask,
)
from epidiffuse.models import ModelKind
from epidiffuse.solver_cn import assemble
from oracles import laplacian_operator, second_difference_1d


def reference_laplacian(u, grid):
    """Per-node stencil with explicitly mirrored ghost values.

    Independent of the eigenbasis that defines L: indexes one node at a
    time and substitutes the boundary node's own value for every ghost.
    """
    ny, nx = grid.shape
    out = np.zeros_like(u, dtype=float)
    for k in range(ny):
        for j in range(nx):
            west = u[k, j - 1] if j > 0 else u[k, j]
            east = u[k, j + 1] if j < nx - 1 else u[k, j]
            south = u[k - 1, j] if k > 0 else u[k, j]
            north = u[k + 1, j] if k < ny - 1 else u[k, j]
            out[k, j] = (west - 2 * u[k, j] + east) / grid.hx ** 2
            out[k, j] += (south - 2 * u[k, j] + north) / grid.hy ** 2
    return out


class TestGridSpec:
    def test_spacing_is_derived_from_extent(self):
        grid = GridSpec(5, 3, 2.0, 1.0)
        assert grid.hx == pytest.approx(0.5)
        assert grid.hy == pytest.approx(0.5)
        assert grid.shape == (3, 5)
        assert grid.n_cells == 15
        assert grid.cell_area == pytest.approx(0.25)

    def test_rejects_degenerate_axes(self):
        with pytest.raises(ParameterError):
            GridSpec(1, 3, 1.0, 1.0)
        with pytest.raises(ParameterError):
            GridSpec(3, 3, 0.0, 1.0)

    def test_rejects_oversized_grid(self):
        with pytest.raises(ParameterError):
            GridSpec(2000, 2000, 1.0, 1.0)

    def test_compatible(self):
        a = GridSpec(5, 3, 2.0, 1.0)
        assert a.compatible(GridSpec(5, 3, 2.0, 1.0))
        assert not a.compatible(GridSpec(5, 4, 2.0, 1.0))
        assert not a.compatible(GridSpec(5, 3, 2.5, 1.0))


class TestRegionMask:
    def test_accepts_01_arrays(self):
        mask = RegionMask("a", np.array([[0, 1], [1, 1]]))
        assert mask.cells.dtype == np.bool_
        assert mask.cell_count == 3

    def test_rejects_other_values(self):
        with pytest.raises(DimensionError):
            RegionMask("a", np.array([[0, 2], [1, 1]]))
        with pytest.raises(DimensionError):
            RegionMask("a", np.zeros(4))

    def test_cells_are_read_only(self):
        mask = RegionMask("a", np.array([[0, 1], [1, 1]]))
        with pytest.raises(ValueError):
            mask.cells[0, 0] = True

    def test_callers_array_is_not_frozen(self):
        """The mask freezes a copy: the caller's array stays writable and edits to it stay out."""
        cells = np.zeros((2, 3), dtype=bool)
        cells[0] = True
        mask = RegionMask("a", cells)
        cells[:] = False
        assert mask.cell_count == 3 and mask.cells[0].all()

    def test_subset_and_union(self):
        grid = GridSpec(3, 2, 1.0, 1.0)
        a = RegionMask("a", np.array([[1, 0, 0], [0, 0, 0]]))
        b = RegionMask("b", np.array([[0, 1, 0], [0, 0, 1]]))
        both = union_mask([a, b])
        assert a.issubset(both) and b.issubset(both)
        assert not both.issubset(a)
        assert both.cell_count == 3
        assert both.area(grid) == pytest.approx(3 * grid.cell_area)
        with pytest.raises(DegenerateRegionError):
            union_mask([])

    def test_union_shape_mismatch(self):
        a = RegionMask("a", np.zeros((2, 3), dtype=bool))
        b = RegionMask("b", np.zeros((3, 3), dtype=bool))
        with pytest.raises(DimensionError):
            union_mask([a, b])


def eigen_laplacian(u, grid):
    """L u formed in the cosine eigenbasis, as the solver reads it: Q (lam o Q^T u)."""
    ws = assemble(grid, 0.0, 1.0)
    return _from_eigen(ws.lam * _to_eigen(u.reshape(1, -1), ws.basis), ws.basis).reshape(grid.shape)


class TestLaplacian:
    def test_matches_reference_stencil(self):
        """The eigenpairs define the mirrored-ghost five-point stencil, node by node."""
        rng = np.random.default_rng(42)
        for nx, ny in ((2, 2), (3, 5), (6, 4), (8, 8), (101, 64)):
            grid = GridSpec(nx, ny, 1.3, 0.7)
            u = rng.normal(size=grid.shape)
            expected = reference_laplacian(u, grid)
            err = np.abs(eigen_laplacian(u, grid) - expected).max()
            assert err <= 1e-12 * np.abs(expected).max()

    def test_operator_is_symmetric_with_zero_row_sums(self):
        grid = GridSpec(6, 4, 1.0, 2.0)
        L = laplacian_operator(grid).toarray()
        npt.assert_allclose(L, L.T, atol=1e-14)
        npt.assert_allclose(L.sum(axis=0), 0.0, atol=1e-12)
        npt.assert_allclose(L.sum(axis=1), 0.0, atol=1e-12)

    def test_operator_is_negative_semidefinite(self):
        grid = GridSpec(5, 4, 1.0, 1.0)
        w = np.linalg.eigvalsh(laplacian_operator(grid).toarray())
        assert w.max() <= 1e-10
        # one zero eigenvalue for the constant mode
        assert (np.abs(w) < 1e-10).sum() == 1


class TestNeumannEigenbasis:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 40), extent=st.floats(0.5, 100.0))
    def test_diagonalizes_second_difference(self, n, extent):
        """Q is orthonormal and Q^T D Q = diag(lam), to 1e-12 relative."""
        h = extent / (n - 1)
        Q, lam = neumann_eigenbasis(n, h)
        D = second_difference_1d(n, h).toarray()
        scale = np.abs(D).max()
        npt.assert_allclose(Q.T @ Q, np.eye(n), rtol=0, atol=1e-12)
        npt.assert_allclose(Q.T @ D @ Q, np.diag(lam), rtol=0, atol=1e-12 * scale)
        assert lam[0] == 0.0
        assert (np.diff(lam) < 0.0).all()

    @pytest.mark.parametrize("model", list(ModelKind))
    @pytest.mark.parametrize("ny, nx", [(9, 9), (17, 17), (33, 33), (101, 101), (256, 256),
                                        (9, 17), (17, 9), (33, 20), (60, 101), (256, 200)])
    def test_read_out_of_the_force_rows_alone_is_the_full_read_out(self, model, ny, nx):
        """_from_eigen of the force rows gives the bytes of those rows of the full read-out.

        A cn step between whole days reads back the force rows alone, so its S and I are those
        of a read-out of every row where this holds: on the bundled 101x101 grid, the 33x33
        twin and 256x256, among others.  It does not hold on every shape: with the OpenBLAS
        0.3.31 that numpy 2.4.6 bundles, about 1 in 18 of the grids up to 40x40 differ in the
        last bit, such as 2x34 and 3x33.  So a run never mixes the two calls for one level's
        S and I (``TestStorageRules``).
        """
        grid = GridSpec(nx, ny, 3.0, 2.0)
        basis = assemble(grid, 0.1, 0.25).basis
        rng = np.random.default_rng(ny * nx)
        coef = rng.standard_normal((model.n_compartments, grid.n_cells))
        coef *= np.exp(-rng.uniform(0.0, 30.0, grid.n_cells))  # decaying, as modes do
        rows = model.force_rows
        assert _from_eigen(coef[rows], basis).tobytes() == _from_eigen(coef, basis)[rows].tobytes()

    def test_cached_basis_is_read_only(self):
        """One basis per (n, h), shared by every caller, so no caller may write into it."""
        Q, lam = neumann_eigenbasis(7, 0.25)
        again = neumann_eigenbasis(7, 0.25)
        assert again[0] is Q and again[1] is lam
        for arr in (Q, lam):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1.0
            with pytest.raises(ValueError):
                arr.setflags(write=True)


class TestRegionAggregation:
    def test_region_total_brute_force(self):
        rng = np.random.default_rng(3)
        grid = GridSpec(7, 6, 2.0, 3.0)
        for _ in range(10):
            cells = rng.random(grid.shape) < 0.4
            if not cells.any():
                continue
            mask = RegionMask("r", cells)
            u = rng.normal(size=grid.shape)
            expected = sum(
                u[k, j] * grid.hx * grid.hy
                for k in range(grid.ny)
                for j in range(grid.nx)
                if cells[k, j]
            )
            assert region_total(u, mask, grid) == pytest.approx(expected, rel=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(
        nx=st.integers(2, 40), ny=st.integers(2, 40), lead=st.tuples(st.integers(1, 6), st.integers(1, 3)),
        share=st.floats(0.0, 1.0), scale=st.floats(1e-6, 1e6), seed=st.integers(0, 2**32 - 1),
    )
    def test_stacked_totals_are_bit_identical_to_per_field_calls(self, nx, ny, lead, share, scale,
                                                                 seed):
        """One call on a stack (..., ny, nx), also a strided view of one, gives
        exactly the totals of one call per field."""
        rng = np.random.default_rng(seed)
        grid = GridSpec(nx, ny, float(rng.uniform(0.1, 50.0)), float(rng.uniform(0.1, 50.0)))
        mask = RegionMask("r", rng.random(grid.shape) < share)
        stack = scale * rng.lognormal(sigma=3.0, size=lead + (3,) + grid.shape)
        for fields in (stack[:, :, 1], stack[0], stack[0, :, 2]):
            totals = region_total(fields, mask, grid)
            assert isinstance(totals, np.ndarray) and totals.shape == fields.shape[:-2]
            singles = np.array([region_total(f, mask, grid) for f in fields.reshape(-1, ny, nx)])
            npt.assert_array_equal(totals.reshape(-1), singles)
        assert isinstance(region_total(stack[0, 0, 0], mask, grid), float)

    def test_stack_with_wrong_trailing_shape_is_refused(self):
        grid = GridSpec(4, 4, 1.0, 1.0)
        mask = RegionMask("m", np.ones((4, 4), dtype=bool))
        with pytest.raises(DimensionError):
            region_total(np.zeros((3, 4, 5)), mask, grid)

    def test_distribute_roundtrip(self):
        rng = np.random.default_rng(11)
        grid = GridSpec(9, 5, 1.7, 0.9)
        for _ in range(10):
            cells = rng.random(grid.shape) < 0.3
            if not cells.any():
                continue
            mask = RegionMask("r", cells)
            total = float(rng.uniform(0.0, 50.0))
            u = distribute_uniform(total, mask, grid)
            assert region_total(u, mask, grid) == pytest.approx(total, rel=1e-12)
            assert (u[~cells] == 0.0).all()
            covered = u[cells]
            npt.assert_allclose(covered, covered[0])

    def test_distribute_errors(self):
        grid = GridSpec(4, 4, 1.0, 1.0)
        empty = RegionMask("e", np.zeros(grid.shape, dtype=int))
        with pytest.raises(DegenerateRegionError):
            distribute_uniform(1.0, empty, grid)
        some = RegionMask("s", np.eye(4, dtype=int))
        with pytest.raises(ParameterError):
            distribute_uniform(-1.0, some, grid)

    def test_grid_mismatch(self):
        grid = GridSpec(4, 4, 1.0, 1.0)
        mask = RegionMask("m", np.ones((3, 3), dtype=int))
        with pytest.raises(DimensionError):
            region_total(np.zeros(grid.shape), mask, grid)
        with pytest.raises(DimensionError):
            distribute_uniform(1.0, mask, grid)
