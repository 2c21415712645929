"""Matrix forms of the grid operators, the written-out reactions and per-token file
readers, kept as test oracles.

The package defines the Neumann Laplacian by its cosine eigenpairs alone and
inverts the Crank-Nicolson matrix in that basis; it never needs the matrices
built here.  Its solvers evaluate each model's reaction from one split,
f = K u + e beta(t) u_S u_I; ``reaction`` here is written out from the model
equations instead, so the split is checked against something other than
itself.  The package checks a mask laid out as ``write_mask`` writes it as
one byte buffer, and its case reader, per row too, parses each distinct date
once.  The readers here split and check every row's tokens and parse every
date, as the package once did.
"""

import csv
import datetime as dt
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from epidiffuse.errors import CaseDataError, MaskFormatError
from epidiffuse.grid import GridSpec, RegionMask
from epidiffuse.models import ModelKind, RateSchedule, beta_at
from epidiffuse.objective import CaseSeries


def second_difference_1d(n: int, h: float) -> sp.csr_matrix:
    """1-D Neumann second difference: diagonal -1, -2, ..., -2, -1 over h^2."""
    main = np.full(n, -2.0)
    main[0] = main[-1] = -1.0
    off = np.ones(n - 1)
    return sp.diags([off, main, off], [-1, 0, 1], format="csr") / h ** 2


def laplacian_operator(grid) -> sp.csr_matrix:
    """Sparse matrix form of the Laplacian acting on C-order flattened fields."""
    dxx = second_difference_1d(grid.nx, grid.hx)
    dyy = second_difference_1d(grid.ny, grid.hy)
    ix = sp.identity(grid.nx, format="csr")
    iy = sp.identity(grid.ny, format="csr")
    return (sp.kron(iy, dxx) + sp.kron(dyy, ix)).tocsr()


def dense_operators(grid, kappa: float, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """Dense Crank-Nicolson A = I - (tau kappa / 2) L and B = I + (tau kappa / 2) L."""
    L = laplacian_operator(grid).toarray()
    eye = np.eye(grid.n_cells)
    return eye - 0.5 * tau * kappa * L, eye + 0.5 * tau * kappa * L


def reaction(model: ModelKind, u, t: float, schedule: RateSchedule) -> np.ndarray:
    """f(u, t) of each model's equations, with beta = beta_at(schedule, t); u is (m,) or (m, ...).

    SIS: beta (1 - I) I - gamma I; SIR: (-beta S I, beta S I - gamma I);
    SEIR: (-beta S I, beta S I - theta E, theta E - gamma I).
    """
    beta, gamma, theta = beta_at(schedule, t), schedule.gamma, schedule.theta
    u = np.asarray(u, dtype=float)
    if model is ModelKind.SIS:
        (i,) = u
        return np.array([beta * (1.0 - i) * i - gamma * i])
    if model is ModelKind.SIR:
        s, i = u
        return np.array([-beta * s * i, beta * s * i - gamma * i])
    s, e, i = u
    return np.array([-beta * s * i, beta * s * i - theta * e, theta * e - gamma * i])


def read_mask_by_rows(path) -> tuple[GridSpec, RegionMask]:
    """The mask reader that splits and checks every row's tokens."""
    path = Path(path)
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        raise MaskFormatError(f"{path}: cannot read mask file: {exc}") from exc
    if not lines:
        raise MaskFormatError(f"{path}: empty mask file")
    head = lines[0].split()
    if len(head) != 4:
        raise MaskFormatError(f"{path}: header must be 'nx ny Lx Ly', got {lines[0]!r}")
    try:
        nx, ny = int(head[0]), int(head[1])
        Lx, Ly = float(head[2]), float(head[3])
    except ValueError as exc:
        raise MaskFormatError(f"{path}: malformed header {lines[0]!r}") from exc
    rows = [ln.split() for ln in lines[1:] if ln.strip()]
    if len(rows) != ny:
        raise MaskFormatError(f"{path}: expected {ny} mask rows, found {len(rows)}")
    for i, vals in enumerate(rows):
        if len(vals) != nx:
            raise MaskFormatError(f"{path}: row {i} has {len(vals)} entries, expected {nx}")
        if not {"0", "1"}.issuperset(vals):
            bad = next(v for v in vals if v not in ("0", "1"))
            raise MaskFormatError(f"{path}: row {i} contains {bad!r}; only 0/1 allowed")
    flags = "".join("".join(vals) for vals in rows).encode()
    cells = (np.frombuffer(flags, dtype=np.uint8) == ord("1")).reshape(ny, nx)
    return GridSpec(nx, ny, Lx, Ly), RegionMask(path.stem, cells)


def read_cases_by_rows(path, start: dt.date, n_days: int, regions) -> dict[str, CaseSeries]:
    """The case reader that parses and checks one row at a time.

    It accepts non-finite counts, which ``CaseSeries`` refuses afterwards
    without a line number.
    """
    path = Path(path)
    regions = list(regions)
    table = {name: {} for name in regions}
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header[:3]] != ["date", "region", "new_cases"]:
            raise CaseDataError(f"{path}: expected header 'date,region,new_cases', got {header}")
        for lineno, row in enumerate(reader, start=2):
            if not row or not "".join(row).strip():
                continue
            if len(row) < 3:
                raise CaseDataError(f"{path}:{lineno}: expected 3 columns, got {len(row)}")
            try:
                date = dt.date.fromisoformat(row[0].strip())
            except ValueError as exc:
                raise CaseDataError(f"{path}:{lineno}: bad date {row[0]!r}") from exc
            name = row[1].strip()
            if name not in table:
                raise CaseDataError(f"{path}:{lineno}: unknown region {name!r}; expected one of {regions}")
            try:
                value = float(row[2])
            except ValueError as exc:
                raise CaseDataError(f"{path}:{lineno}: bad case count {row[2]!r}") from exc
            if value < 0:
                raise CaseDataError(f"{path}:{lineno}: negative case count {value}")
            day = (date - start).days
            if day < 0 or day > n_days:
                continue
            if day in table[name]:
                raise CaseDataError(f"{path}:{lineno}: duplicate entry for {name} on {date}")
            table[name][day] = value
    out = {}
    for name in regions:
        seen = table[name]
        if not seen:
            raise CaseDataError(f"{path}: no records for region {name!r} inside the window")
        days = np.arange(n_days + 1)
        values = np.array([seen.get(d, 0.0) for d in days])
        filled = tuple(int(d) for d in days if d not in seen)
        out[name] = CaseSeries(name, days, values, filled_days=filled)
    return out
