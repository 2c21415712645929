"""Correctness checks that judge program outputs by the benchmark's own code.

Every check returns ``(ok, detail)``.  None of them compares against a stored
copy of earlier output: each recomputes a quantity from the inputs with code
written here (objective, operators, replay) or tests a property the method
must have (mass conservation, gradient = finite difference, monotone descent).
"""

from __future__ import annotations

import csv
import datetime as dt
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

MASS_DRIFT_LIMIT = 1e-9
J_RTOL = 1e-9
DIRECTIONAL_RTOL = 1e-4
GRADIENT_CHECK_LIMIT = 1e-3


def read_mask_file(path) -> np.ndarray:
    """Boolean (ny, nx) mask from a mask file, parsed without the program."""
    return np.loadtxt(path, skiprows=1, dtype=int, ndmin=2) == 1


def read_case_table(path, start: dt.date, n_days: int, regions) -> np.ndarray:
    """(n_regions, n_days + 1) case counts from a case CSV; absent days are 0."""
    index = {name: k for k, name in enumerate(regions)}
    table = np.zeros((len(regions), n_days + 1))
    with Path(path).open(newline="") as fh:
        for row in csv.DictReader(fh):
            day = (dt.date.fromisoformat(row["date"]) - start).days
            if 0 <= day <= n_days:
                table[index[row["region"]], day] = float(row["new_cases"])
    return table


def recompute_objective(daily, cases, masks, populations, cell_area, betas,
                        breakpoints, delta, w0=1.0) -> float:
    """SEIR least-squares misfit J from daily states and reported cases.

    ``daily`` has shape (n_days + 1, 3, ny, nx) holding (S, E, I) fractions at
    t = 0, 1, ...; ``cases`` is (n_regions, n_days + 1); ``masks`` and
    ``populations`` follow the case rows.  The data field spreads each
    region's detected fraction uniformly over its cells; days are weighted by
    the trapezoid rule and cells by their area.
    """
    n = daily.shape[0]
    t0, t1 = breakpoints
    omega = np.ones(n)
    omega[0] = omega[-1] = 0.5
    total = 0.0
    for d in range(n):
        beta = betas[0] if d < t0 else (betas[1] if d < t1 else betas[2])
        data = np.zeros(daily.shape[2:])
        for k, mask in enumerate(masks):
            data[mask] += cases[k, d] / populations[k] / (mask.sum() * cell_area)
        resid = delta * beta * daily[d, 0] * daily[d, 2] - data
        total += omega[d] * float((resid * resid).sum()) * cell_area
    return 0.5 * w0 * total


def check_objective(j_program: float, j_recomputed: float, rtol: float = J_RTOL):
    ok = abs(j_program - j_recomputed) <= rtol * abs(j_recomputed)
    return ok, f"J program {j_program:.15g} vs recomputed {j_recomputed:.15g} (rtol {rtol:g})"


def mass_drift_from_csv(path) -> float:
    """Largest relative change of the total population in a mass table."""
    with Path(path).open(newline="") as fh:
        mass = np.array([float(row["total_population"]) for row in csv.DictReader(fh)])
    return float(np.abs(mass - mass[0]).max() / abs(mass[0]))


def check_mass(drift: float, limit: float = MASS_DRIFT_LIMIT):
    return drift <= limit, f"population mass drift {drift:.3e} (limit {limit:g})"


def check_directional(j_plus: float, j_minus: float, h: float, g_dot_d: float,
                      rtol: float = DIRECTIONAL_RTOL):
    """Adjoint directional derivative against a central difference of J."""
    fd = (j_plus - j_minus) / (2.0 * h)
    err = abs(fd - g_dot_d) / max(abs(fd), abs(g_dot_d), 1e-300)
    return err <= rtol, (f"directional derivative adjoint {g_dot_d:.10g} vs FD {fd:.10g}, "
                         f"rel err {err:.2e} (limit {rtol:g})")


def check_gradient_check(rel_err: np.ndarray, limit: float = GRADIENT_CHECK_LIMIT):
    worst = float(np.max(rel_err))
    return worst <= limit, (f"gradient_check worst rel err {worst:.2e} over {len(rel_err)} "
                            f"components (limit {limit:g})")


def check_monotone(history_j):
    js = np.asarray(history_j, dtype=float)
    rises = int((np.diff(js) > 0.0).sum())
    return rises == 0, (f"adjoint fit J over {len(js)} iterates, {rises} increases, "
                        f"{js[0]:.6g} -> {js[-1]:.6g}")


def replay_metropolis(log, x0, scale, sigma, seed, j0, in_bounds):
    """Re-derive every logged Metropolis decision from the chain seed.

    Proposals and uniforms are regenerated from ``seed``; the acceptance rule
    is re-applied to the logged objective values and must reproduce the
    logged alpha, uniform and verdict bit for bit.
    """
    rng = np.random.default_rng(seed)
    x, j_cur = np.array(x0, dtype=float), j0
    bad = 0
    draws = len(log["accepted"])
    for i in range(draws):
        ok = log["j_old"][i] == j_cur
        prop = x + scale * rng.standard_normal(len(x))
        inb = in_bounds(prop)
        ok &= inb == bool(log["in_bounds"][i])
        if not inb:
            ok &= not log["accepted"][i] and log["alpha"][i] == 0.0
        else:
            j_prop = log["j_new"][i]
            exponent = (j_cur ** 2 - j_prop ** 2) / (2.0 * sigma ** 2)
            alpha = 1.0 if exponent >= 0.0 else float(np.exp(max(exponent, -745.0)))
            u = rng.uniform()
            ok &= alpha == log["alpha"][i] and u == log["uniform"][i]
            ok &= bool(log["accepted"][i]) == (u < alpha)
            if u < alpha:
                x, j_cur = prop, j_prop
        bad += not ok
    n_acc = int(np.sum(log["accepted"]))
    return bad == 0, f"{draws} Metropolis decisions replayed, {bad} mismatches, {n_acc} accepted"


# ---------------------------------------------------------------------------
# cn against fem-split
# ---------------------------------------------------------------------------

def _neumann_1d(n: int):
    """Path-graph Laplacian, mass and stiffness stencils with Neumann ends."""
    end = np.ones(n)
    end[0] = end[-1] = 0.5
    off = np.ones(n - 1)
    lap = sp.diags([off, -2.0 * end, off], [-1, 0, 1])       # (1/h^2) scaled later
    mass = sp.diags([off, 4.0 * end, off], [-1, 0, 1]) / 6.0  # times h
    stiff = sp.diags([-off, 2.0 * end, -off], [-1, 0, 1])     # times 1/h
    return lap, mass, stiff


def operator_mismatch(nx, ny, hx, hy):
    """Return u -> (L_fd + M^-1 K) u: five-point FD minus Q1 FEM diffusion."""
    lx, mx, kx = _neumann_1d(nx)
    ly, my, ky = _neumann_1d(ny)
    ix, iy = sp.identity(nx), sp.identity(ny)
    lap = (sp.kron(iy, lx) / hx ** 2 + sp.kron(ly, ix) / hy ** 2).tocsr()
    mass = sp.kron(my * hy, mx * hx).tocsc()
    stiff = (sp.kron(ky / hy, mx * hx) + sp.kron(my * hy, kx / hx)).tocsr()
    mass_lu = splu(mass)
    return lambda u: lap @ u + mass_lu.solve(stiff @ u)


def region_infected_totals(daily, masks, cell_area) -> np.ndarray:
    """(n_regions, n_days + 1) region integrals of the infected fraction."""
    infected = daily[:, -1]
    return np.array([[float(infected[d][m].sum()) * cell_area for d in range(len(daily))]
                     for m in masks])


def fem_cn_bound(cn_daily, cn_half_daily, masks, grid_shape, hx, hy, kappa):
    """Per-region bound on |cn - fem| in daily infected region totals.

    Time: cn couples the reaction explicitly and is first order, so
    2 |cn(tau) - cn(tau/2)| estimates its error at tau (Richardson); the
    Strang/RK4 split scheme is second order and contributes less.
    Space: the two schemes share the nodes but not the diffusion operator.
    Integrating kappa * (L_fd + M^-1 K) u_I along the cn trajectory, day by
    day with the triangle inequality, bounds the extra flux the two operators
    move across each region border.
    """
    ny, nx = grid_shape
    area = hx * hy
    mismatch = operator_mismatch(nx, ny, hx, hy)
    cn = region_infected_totals(cn_daily, masks, area)
    half = region_infected_totals(cn_half_daily, masks, area)
    time_err = 2.0 * np.abs(cn - half).max(axis=1)
    space_err = np.zeros(len(masks))
    for d in range(len(cn_daily)):
        flux = kappa * mismatch(cn_daily[d, -1].ravel())
        space_err += np.array([abs(float(flux[m.ravel()].sum())) * area for m in masks])
    return time_err + space_err


def check_fem_cn(cn_daily, fem_daily, bound, masks, cell_area):
    cn = region_infected_totals(cn_daily, masks, cell_area)
    fem = region_infected_totals(fem_daily, masks, cell_area)
    diff = np.abs(cn - fem).max(axis=1)
    ratio = float((diff / bound).max())
    return ratio <= 1.0, (f"fem-split vs cn region totals: worst |diff|/bound {ratio:.3f} "
                          f"over {len(masks)} regions (limit 1)")
