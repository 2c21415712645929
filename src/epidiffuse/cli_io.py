"""Run configs, mask/case file I/O, scenario assembly, and the CLI.

File formats
------------
Mask file: a text header ``nx ny Lx Ly`` followed by ny rows of nx space
separated 0/1 flags.  Row 0 is the southernmost row.  Anything other than
0 or 1 is a hard error.

Case file: delimiter-separated text with a ``date,region,new_cases`` header;
dates are ISO-8601.  Days missing inside the study window are zero-filled
and flagged, duplicates are rejected.

Run config: a YAML document (schema documented in the README) naming the
model variant, mask files with region populations, the study window and
breakpoints, rates, weights, solver settings, estimator blocks, output
directory, and seed.  Validation errors carry the config path, and the key of
the offending value wherever the reader or an estimator config refuses it.

Every command writes a ``summary.json`` embedding the config hash; outputs
contain no timestamps, so re-running with an unchanged config and seed
reproduces them bit-identically at a fixed BLAS thread count.
"""

from __future__ import annotations

import argparse
import csv
import datetime as dt
import hashlib
import json
import math
import sys
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from .errors import (
    AlignmentError,
    CaseDataError,
    ConfigError,
    DegenerateRegionError,
    DimensionError,
    EpidiffuseError,
    MaskFormatError,
    NormalizationError,
    ParameterError,
    SequencingError,
    StabilityError,
)
from .grid import GridSpec, RegionMask, distribute_uniform, union_mask
from .models import (
    DEFAULT_GAMMA,
    DEFAULT_THETA,
    ModelKind,
    ParameterVector,
    RateSchedule,
)
from .objective import (CaseSeries, ObjectiveWeights, detected_daily_cases, interpolate_data,
                        region_persons)
from .solver_cn import _check_tau, conservation_drift, temporal_refinement_study
from .estimate import (
    CHI_NAMES,
    AdjointConfig,
    FitResult,
    MetropolisConfig,
    Problem,
    adjoint_fit,
    gradient_check,
    metropolis_fit,
)

#: Population split of the demo district (persons); the district totals 81,000.
DEMO_POPULATIONS = {"BA": 14500.0, "BI": 19000.0, "HR": 19500.0, "IO": 28000.0}
DEMO_EXTENT = (39.23, 56.05)  # km

_FLOAT_CELL = ",%.12g"  # one more float column of a table row


# ---------------------------------------------------------------------------
# Mask and case files
# ---------------------------------------------------------------------------

def write_mask(path, grid: GridSpec, mask: RegionMask) -> None:
    """Write one mask file; raise DimensionError, writing nothing, if the mask is not on ``grid``."""
    mask._check_grid(grid)
    path = Path(path)
    with path.open("w") as fh:
        fh.write(f"{grid.nx} {grid.ny} {float(grid.Lx)!r} {float(grid.Ly)!r}\n")
        for row in mask.cells:
            fh.write(" ".join("1" if v else "0" for v in row) + "\n")


def read_mask(path) -> tuple[GridSpec, RegionMask]:
    """Read one mask file; the region name is the file stem.

    A body laid out as ``write_mask`` writes it is checked as one buffer; any
    other goes through the per-row checks, which define a valid mask.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise MaskFormatError(f"{path}: cannot read mask file: {exc}") from exc
    lines = text.splitlines()
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
    body = np.frombuffer(text.partition("\n")[2].encode(), dtype=np.uint8)
    laid_out = min(nx, ny) > 0 and body.size == 2 * nx * ny and len(lines) == ny + 1
    if laid_out:  # ny rows of nx flags, each followed by a space or, last, a newline
        seps, flags = body[1::2].reshape(ny, nx), body[::2]
        laid_out = ((seps[:, :-1] == ord(" ")).all() and (seps[:, -1] == ord("\n")).all()
                    and ((flags == ord("0")) | (flags == ord("1"))).all())
    if not laid_out:
        rows = [ln.split() for ln in lines[1:] if ln.strip()]
        if len(rows) != ny:
            raise MaskFormatError(f"{path}: expected {ny} mask rows, found {len(rows)}")
        for i, vals in enumerate(rows):
            if len(vals) != nx:
                raise MaskFormatError(f"{path}: row {i} has {len(vals)} entries, expected {nx}")
            if not {"0", "1"}.issuperset(vals):
                bad = next(v for v in vals if v not in ("0", "1"))
                raise MaskFormatError(f"{path}: row {i} contains {bad!r}; only 0/1 allowed")
        flags = np.frombuffer("".join("".join(vals) for vals in rows).encode(), dtype=np.uint8)
    try:
        grid = GridSpec(nx, ny, Lx, Ly)
    except ParameterError as exc:
        raise MaskFormatError(f"{path}: {exc}") from exc
    return grid, RegionMask(path.stem, (flags == ord("1")).reshape(ny, nx))


def write_cases(path, series: dict[str, CaseSeries], start: dt.date) -> None:
    rows = (((start + dt.timedelta(days=int(day))).isoformat(), _csv_field(name), value)
            for name in sorted(series)
            for day, value in zip(series[name].days, series[name].new_cases.tolist()))
    _write_table(path, ["date", "region", "new_cases"], "%s,%s" + _FLOAT_CELL, rows)


def read_cases(path, start: dt.date, n_days: int, regions) -> dict[str, CaseSeries]:
    """Parse a case file into per-region series over days 0..n_days.

    Records outside the window are ignored; missing days inside it are
    zero-filled, flagged in ``filled_days`` and named in a RuntimeWarning.
    """
    path = Path(path)
    regions = list(regions)
    table = {name: {} for name in regions}
    day_of = {}  # each distinct date text is parsed once
    try:
        fh = path.open(newline="")
    except OSError as exc:
        raise CaseDataError(f"{path}: cannot read case file: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header[:3]] != ["date", "region", "new_cases"]:
            raise CaseDataError(f"{path}: expected header 'date,region,new_cases', got {header}")
        for lineno, row in enumerate(reader, start=2):
            if not row or not "".join(row).strip():
                continue
            if len(row) < 3:
                raise CaseDataError(f"{path}:{lineno}: expected 3 columns, got {len(row)}")
            day = day_of.get(row[0])
            if day is None:
                try:
                    day = day_of[row[0]] = (dt.date.fromisoformat(row[0].strip()) - start).days
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
            if not math.isfinite(value):
                raise CaseDataError(f"{path}:{lineno}: bad case count {row[2]!r}")
            if day < 0 or day > n_days:
                continue
            if day in table[name]:
                date = start + dt.timedelta(days=day)
                raise CaseDataError(f"{path}:{lineno}: duplicate entry for {name} on {date}")
            table[name][day] = value
    out = {}
    for name in regions:
        seen = table[name]
        if not seen:
            raise CaseDataError(f"{path}: no records for region {name!r} inside the window")
        days = np.arange(n_days + 1)
        values = np.array([seen.get(d, 0.0) for d in range(n_days + 1)])
        filled = tuple(d for d in range(n_days + 1) if d not in seen)
        out[name] = CaseSeries(name, days, values, filled_days=filled)
    gaps = {name: list(s.filled_days) for name, s in out.items() if s.filled_days}
    if gaps:
        warnings.warn(f"{path}: zero-filled the days without a record: {gaps}", RuntimeWarning)
    return out


def sha256_of(path) -> str:
    h = hashlib.sha256()
    with Path(path).open("rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------

@dataclass
class RunConfig:
    """Validated run configuration; paths are resolved absolute."""

    path: str
    model: ModelKind
    region_masks: dict[str, str]
    populations: dict[str, float]
    district_mask: str | None
    cases: str | None
    start: dt.date
    n_days: int
    breakpoints: tuple[float, float]
    gamma: float
    theta: float
    weights: dict[str, float]
    backend: str
    tau: float
    corrected: bool
    estimator: str
    metropolis: dict
    adjoint: dict
    initial_betas: tuple[float, float, float]
    initial_kappa: float
    initial_delta: float
    initial_infected: dict[str, float] | None
    out_dir: str
    seed: int
    raw: dict = field(repr=False, default_factory=dict)

    @property
    def config_hash(self) -> str:
        canonical = json.dumps(self.raw, sort_keys=True, default=str)
        return hashlib.sha256(canonical.encode()).hexdigest()

    def date_of(self, day: int) -> str:
        return (self.start + dt.timedelta(days=int(day))).isoformat()


def _iso_date(value) -> dt.date:
    return value if isinstance(value, dt.date) else dt.date.fromisoformat(str(value))


def _boolean(value) -> bool:
    if not isinstance(value, bool):
        raise TypeError(value)
    return value


def _int(value) -> int:
    if isinstance(value, bool) or not float(value).is_integer():
        raise TypeError(value)
    return int(value)


def _float(value) -> float:
    if isinstance(value, bool) or not np.isfinite(float(value)):
        raise TypeError(value)
    return float(value)


def _mapping(value) -> dict:
    if not isinstance(value, dict | None):
        raise TypeError(value)
    return {str(k): v for k, v in (value or {}).items()}


def _typed(value, kind, path: str, key: str):
    """``kind(value)``, or a ConfigError naming ``key`` when the value has the wrong type."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"expected {kind.__name__.lstrip('_')}, got {value!r}",
                          path=path, key=key) from exc


def _cfg_get(raw: dict, path: str, key: str, kind=None, default=None, required: bool = False):
    """The value at the dotted ``key`` converted by ``kind``; ``default`` when it is absent."""
    cur = raw
    for part in key.split("."):
        if not isinstance(cur, dict) or part not in cur:
            if required:
                raise ConfigError("missing required key", path=path, key=key)
            return default
        cur = cur[part]
    return cur if kind is None else _typed(cur, kind, path, key)


def _existing_file(base: Path, value, path: str, key: str, what: str) -> str:
    resolved = (base / str(value)).resolve()
    if not resolved.exists():
        raise ConfigError(f"{what} not found: {resolved}", path=path, key=key)
    return str(resolved)


def load_config(path) -> RunConfig:
    """Read and validate a YAML run config."""
    path = Path(path)
    try:
        raw = yaml.load(path.read_text(), Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}", path=str(path))
    except (yaml.YAMLError, ValueError) as exc:  # ValueError: a timestamp that is no date
        raise ConfigError(f"invalid YAML: {exc}", path=str(path))
    if not isinstance(raw, dict):
        raise ConfigError("config must be a mapping", path=str(path))
    p = str(path)
    base = path.parent

    model_name = _cfg_get(raw, p, "model", str, "seir").lower()
    try:
        model = ModelKind(model_name)
    except ValueError:
        raise ConfigError(f"unknown model {model_name!r}", path=p, key="model")

    regions_cfg = _cfg_get(raw, p, "grid.regions", required=True)
    if not isinstance(regions_cfg, dict) or not regions_cfg:
        raise ConfigError("grid.regions must map region names to mask/population", path=p, key="grid.regions")
    region_masks, populations = {}, {}
    for name, entry in regions_cfg.items():
        key = f"grid.regions.{name}"
        if not isinstance(entry, dict) or "mask" not in entry or "population" not in entry:
            raise ConfigError("each region needs 'mask' and 'population'", path=p, key=key)
        region_masks[str(name)] = _existing_file(base, entry["mask"], p, f"{key}.mask", "mask file")
        pop = _typed(entry["population"], _float, p, f"{key}.population")
        if pop <= 0:
            raise ConfigError(f"population must be positive, got {pop}", path=p, key=f"{key}.population")
        populations[str(name)] = pop

    district = _cfg_get(raw, p, "grid.district_mask")
    if district is not None:
        district = _existing_file(base, district, p, "grid.district_mask", "mask file")

    start = _cfg_get(raw, p, "window.start", _iso_date, required=True)
    n_days = _cfg_get(raw, p, "window.days", _int, required=True)
    if n_days < 2:
        raise ConfigError(f"window.days must be >= 2, got {n_days}", path=p, key="window.days")
    bps = _cfg_get(raw, p, "window.breakpoints", default=[32, 77])
    if not isinstance(bps, (list, tuple)) or len(bps) != 2:
        raise ConfigError("window.breakpoints must be a pair", path=p, key="window.breakpoints")
    t0, t1 = (
        float(b) if isinstance(b, (int, float)) and not isinstance(b, bool)
        else float((_typed(b, _iso_date, p, "window.breakpoints") - start).days)
        for b in bps
    )
    if not (0.0 < t0 < t1 < n_days):
        raise ConfigError(
            f"breakpoints must satisfy 0 < t0 < t1 < {n_days}, got {t0}, {t1}",
            path=p, key="window.breakpoints",
        )

    gamma = _cfg_get(raw, p, "rates.gamma", _float, DEFAULT_GAMMA)
    theta = _cfg_get(raw, p, "rates.theta", _float, DEFAULT_THETA)

    weights = {w: _cfg_get(raw, p, f"weights.{w}", _float, default)
               for w, default in (("w0", 1.0), ("w1", 0.0), ("w2", 0.0))}

    cases = _cfg_get(raw, p, "data.cases")
    if cases is not None:
        cases = _existing_file(base, cases, p, "data.cases", "case file")

    backend = _cfg_get(raw, p, "solver.backend", str, "cn")
    if backend not in ("cn", "fem-split"):
        raise ConfigError(f"backend must be 'cn' or 'fem-split', got {backend!r}", path=p, key="solver.backend")
    tau = _cfg_get(raw, p, "solver.tau", _float, 0.1)
    try:
        _check_tau(tau)
    except ParameterError as exc:
        raise ConfigError(str(exc), path=p, key="solver.tau") from exc
    corrected = _cfg_get(raw, p, "solver.corrected", _boolean, False)

    estimator = _cfg_get(raw, p, "estimator.kind", str, "simulate-only")
    if estimator not in ("metropolis", "adjoint", "simulate-only"):
        raise ConfigError(f"unknown estimator {estimator!r}", path=p, key="estimator.kind")

    betas = _cfg_get(raw, p, "initial.betas", default=[0.1, 0.1, 0.1])
    if not isinstance(betas, (list, tuple)) or len(betas) != 3:
        raise ConfigError("initial.betas must list three values", path=p, key="initial.betas")
    infected = _cfg_get(raw, p, "initial.infected")
    if infected is not None:  # null falls back to the day-0 counts
        infected = _typed(infected, _mapping, p, "initial.infected")
        bad = sorted(set(infected) - set(region_masks))
        if bad:
            raise ConfigError(f"initial.infected names unknown regions: {', '.join(bad)}",
                              path=p, key="initial.infected")
        infected = {k: _typed(v, _float, p, f"initial.infected.{k}") for k, v in infected.items()}

    out_dir = _cfg_get(raw, p, "output", str, "out")
    if not Path(out_dir).is_absolute():
        out_dir = str((base / out_dir).resolve())

    return RunConfig(
        path=p, model=model, region_masks=region_masks, populations=populations,
        district_mask=district, cases=cases, start=start, n_days=n_days,
        breakpoints=(t0, t1), gamma=gamma, theta=theta, weights=weights,
        backend=backend, tau=tau, corrected=corrected, estimator=estimator,
        metropolis=_cfg_get(raw, p, "estimator.metropolis", _mapping, {}),
        adjoint=_cfg_get(raw, p, "estimator.adjoint", _mapping, {}),
        initial_betas=tuple(_typed(b, _float, p, "initial.betas") for b in betas),
        initial_kappa=_cfg_get(raw, p, "initial.kappa", _float, 0.1),
        initial_delta=_cfg_get(raw, p, "initial.delta", _float, 0.5),
        initial_infected=infected, out_dir=out_dir,
        seed=_cfg_get(raw, p, "seed", _int, 0), raw=raw,
    )


def load_scenario(config: RunConfig) -> Problem:
    """Assemble the problem bundle a fit or simulation runs on."""
    grid = None
    masks: dict[str, RegionMask] = {}
    for name, mask_path in sorted(config.region_masks.items()):
        g, mask = read_mask(mask_path)
        mask = RegionMask(name, mask.cells)
        if grid is None:
            grid = g
        elif not grid.compatible(g):
            raise ConfigError(
                f"mask grids disagree: {name} has {g.nx}x{g.ny} on {g.Lx}x{g.Ly}",
                path=config.path, key=f"grid.regions.{name}.mask",
            )
        masks[name] = mask
    if config.district_mask is not None:
        g, district = read_mask(config.district_mask)
        if not grid.compatible(g):
            raise ConfigError("district mask grid disagrees with region masks",
                              path=config.path, key="grid.district_mask")
        district = RegionMask("district", district.cells)
        for name, mask in masks.items():
            if not mask.issubset(district):
                raise ConfigError(f"region '{name}' is not contained in the district mask",
                                  path=config.path, key="grid.district_mask")
    else:
        district = union_mask(masks.values())

    population = demo_population(grid, masks, config.populations)
    data = None
    series = None
    if config.cases is not None:
        series = read_cases(config.cases, config.start, config.n_days, sorted(masks))
        data = interpolate_data(series, masks, grid, population)

    if config.initial_infected is not None:
        infected = {name: config.initial_infected.get(name, 0.0) for name in masks}
    elif series is not None:
        infected = {name: float(series[name].new_cases[0]) for name in masks}
    else:
        raise ConfigError(
            "initial.infected is required when no case data is configured",
            path=config.path, key="initial.infected",
        )

    try:  # the parameter types own their bounds
        schedule = RateSchedule(
            betas=config.initial_betas, breakpoints=config.breakpoints,
            t_end=float(config.n_days), gamma=config.gamma, theta=config.theta,
        )
        initial = ParameterVector(
            schedule=schedule, kappa=config.initial_kappa, delta=config.initial_delta,
            init_infected=infected,
        )
        chi_ref = initial.chi if config.weights["w1"] > 0 else None
        weights = ObjectiveWeights(**config.weights, chi_ref=chi_ref)
        return Problem(
            grid=grid, model=config.model, masks=masks, district=district,
            population=population, t_end=float(config.n_days), tau=config.tau,
            weights=weights, data=data, initial=initial,
            backend=config.backend, corrected=config.corrected,
        )
    except EpidiffuseError as exc:
        raise ConfigError(str(exc), path=config.path) from exc


# ---------------------------------------------------------------------------
# Synthetic scenarios
# ---------------------------------------------------------------------------

def demo_geometry(nx: int = 101, ny: int = 101) -> tuple[GridSpec, dict[str, RegionMask], dict[str, float]]:
    """Four disjoint synthetic regions on the demo window (39.23 x 56.05 km).

    The shapes are latitude bands with diagonal trims; they only need to be
    irregular, disjoint, and of realistic relative size.  Populations follow
    the documented district split totalling 81,000.
    """
    grid = GridSpec(nx, ny, *DEMO_EXTENT)
    x = np.linspace(0.0, 1.0, nx)
    y = np.linspace(0.0, 1.0, ny)
    X, Y = np.meshgrid(x, y)
    south = Y < 0.40
    middle = (Y >= 0.40) & (Y < 0.62)
    north = Y >= 0.62
    masks = {
        "BI": RegionMask("BI", south & (X < 0.48) & (X + Y > 0.15)),
        "BA": RegionMask("BA", south & (X >= 0.48) & (X - 0.6 * Y < 0.92)),
        "IO": RegionMask("IO", middle & (X >= 0.15) & (X < 0.88) & (X + 0.3 * Y > 0.3)),
        "HR": RegionMask("HR", north & (X >= 0.10) & (X < 0.80) & (X + 0.5 * Y < 1.18)),
    }
    return grid, masks, dict(DEMO_POPULATIONS)


def demo_population(grid: GridSpec, masks: dict[str, RegionMask],
                    populations: dict[str, float]) -> np.ndarray:
    """Population density with each region's total spread uniformly over its cells."""
    out = np.zeros(grid.shape)
    for name, mask in masks.items():
        out += distribute_uniform(populations[name], mask, grid)
    return out


def demo_scenario_path() -> Path:
    """Path of the bundled 101x101 demo scenario (synthetic case data)."""
    return Path(__file__).parent / "data" / "birkenfeld" / "scenario.yaml"


def generate_synthetic(
    truth: ParameterVector,
    grid: GridSpec,
    masks: dict[str, RegionMask],
    population: np.ndarray,
    model: ModelKind,
    t_end: float,
    tau: float,
    noise: float,
    seed: int,
    out_dir,
    start: dt.date = dt.date(2020, 10, 1),
) -> dict[str, str]:
    """Forward-run the truth and write a case file plus a truth sidecar.

    The run is ``Problem.simulate`` on the cn backend.  Daily detected
    cases per region get multiplicative noise c -> c * (1 + noise * eta)
    with standard normal eta, clipped at zero.
    """
    if noise < 0:
        raise ParameterError(f"noise level must be >= 0, got {noise}")
    problem = Problem(
        grid=grid, model=model, masks=masks, district=union_mask(masks.values()),
        population=population, t_end=t_end, tau=tau, weights=ObjectiveWeights(),
        data=None, initial=truth,
    )
    traj = problem.simulate(truth)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cases = detected_daily_cases(traj, truth, masks, population)
    rng = np.random.default_rng(seed)
    series = {}
    for name in sorted(masks):
        values = cases[name]
        if noise > 0:
            values = np.maximum(values * (1.0 + noise * rng.standard_normal(len(values))), 0.0)
        series[name] = CaseSeries(name, np.arange(len(values)), values)
    cases_path = out_dir / "cases.csv"
    write_cases(cases_path, series, start)
    truth_record = {
        "betas": [float(b) for b in truth.schedule.betas],
        "breakpoints": [float(b) for b in truth.schedule.breakpoints],
        "gamma": float(truth.schedule.gamma),
        "theta": float(truth.schedule.theta),
        "kappa": float(truth.kappa),
        "delta": float(truth.delta),
        "init_infected": {k: float(v) for k, v in sorted(truth.init_infected.items())},
        "model": model.value,
        "t_end": float(t_end),
        "tau": float(tau),
        "noise": float(noise),
        "seed": int(seed),
        "backend": "cn",
        "start": start.isoformat(),
        "cases_sha256": sha256_of(cases_path),
    }
    truth_path = out_dir / "truth.yaml"
    truth_path.write_text(yaml.safe_dump(truth_record, sort_keys=True))
    return {"cases": str(cases_path), "truth": str(truth_path)}


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------

def _csv_field(text: str) -> str:
    """``text`` as csv.writer writes it in a row of several fields."""
    return '"%s"' % text.replace('"', '""') if any(c in text for c in ',"\r\n') else text


def _write_table(path, header: list[str], row_format: str, rows) -> None:
    """A CSV table: ``header`` through csv.writer, then one ``row_format % row`` line per row."""
    line = row_format + "\r\n"
    with Path(path).open("w", newline="") as fh:
        csv.writer(fh).writerow(header)
        fh.writelines(line % row for row in rows)


def export_days(path, config: RunConfig, days, columns: dict[str, np.ndarray]) -> None:
    """A day table: ``day``, its date, and one column per entry of ``columns``."""
    values = [np.asarray(col).tolist() for col in columns.values()]
    rows = ((day, config.date_of(day), *row) for day, *row in zip(days, *values))
    _write_table(path, ["day", "date", *columns], "%d,%s" + _FLOAT_CELL * len(values), rows)


def _params_record(params: ParameterVector) -> dict:
    record = {name: float(value) for name, value in zip(CHI_NAMES, params.chi)}
    record["init_infected"] = {k: float(v) for k, v in sorted(params.init_infected.items())}
    return record


def write_fit_report(path, problem: Problem, result: FitResult, config: RunConfig,
                     estimator: str) -> None:
    """Structured fit report with config echo and provenance."""
    report = {
        "estimator": estimator,
        "objective": result.objective,
        "params": _params_record(result.params),
        "acceptance_rate": result.acceptance_rate,
        "posterior_std": result.posterior_std,
        "gradient_norms": result.gradient_norms,
        "n_evaluations": result.n_evaluations,
        "iterations": len(result.history),
        "diagnostics": {
            k: v for k, v in result.diagnostics.items()
            if isinstance(v, (int, float, str, bool))
        },
        "provenance": {
            "config_path": config.path,
            "config_hash": config.config_hash,
            "config": config.raw,
            "data_sha256": sha256_of(config.cases) if config.cases else None,
            "grid": {"nx": problem.grid.nx, "ny": problem.grid.ny,
                     "Lx": problem.grid.Lx, "Ly": problem.grid.Ly},
            "backend": problem.backend,
            "seed": config.seed,
        },
    }
    Path(path).write_text(json.dumps(report, indent=2, sort_keys=True, default=str) + "\n")


def _write_history(path, problem: Problem, result: FitResult) -> None:
    names = problem.param_names
    rows = ((i, j, *packed) for i, (j, packed) in enumerate(result.history))
    _write_table(path, ["iteration", "J", *names], "%d" + _FLOAT_CELL * (1 + len(names)), rows)


# ---------------------------------------------------------------------------
# CLI commands
# ---------------------------------------------------------------------------

def _write_summary(out_dir: Path, command: str, config: RunConfig, outputs: list[str],
                   metrics: dict) -> None:
    summary = {
        "command": command,
        "config_path": config.path,
        "config_hash": config.config_hash,
        "seed": config.seed,
        "backend": config.backend,
        "outputs": sorted(str(Path(o).name) for o in outputs),
        "metrics": metrics,
    }
    (out_dir / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True, default=str) + "\n"
    )


def _cmd_simulate(config: RunConfig, out_dir: Path, args) -> dict:
    problem = load_scenario(config)
    traj = problem.simulate(problem.initial)
    grid, masks, pop, daily = problem.grid, problem.masks, problem.population, traj.daily_indices
    mass = problem.population_at(problem.initial.kappa, traj.times).sum(axis=(1, 2)) * grid.cell_area
    detected = detected_daily_cases(traj, problem.initial, masks, pop)
    names = sorted(masks)
    infected = traj.states[:, problem.model.infected_index]
    persons = region_persons(infected[daily], pop, [masks[n] for n in names], grid)
    columns = {f"detected_{n}": detected[n] for n in names}
    columns.update({f"infected_{n}": row for n, row in zip(names, persons)})
    outputs = [str(out_dir / "region_series.csv"), str(out_dir / "mass.csv")]
    export_days(outputs[0], config, traj.days, columns)
    export_days(outputs[1], config, traj.days, {"total_population": mass[daily]})
    metrics = {
        "days": int(config.n_days),
        "population_drift": conservation_drift(mass),
        "final_infected_total": float(region_persons(infected[-1], pop, [problem.district], grid)[0]),
    }
    return {"outputs": outputs, "metrics": metrics}


def _cmd_fit(config: RunConfig, out_dir: Path, args) -> dict:
    if args.estimator is not None:
        config.estimator = args.estimator
    if args.draws is not None:
        config.metropolis = dict(config.metropolis, draws=args.draws)
    problem = load_scenario(config)
    if problem.data is None:
        raise ConfigError("fitting requires data.cases", path=config.path, key="data.cases")
    estimator = config.estimator
    if estimator == "simulate-only":
        raise ConfigError("estimator.kind must be 'metropolis' or 'adjoint' for fit",
                          path=config.path, key="estimator.kind")
    try:
        try:
            if estimator == "metropolis":
                fit, options = metropolis_fit, MetropolisConfig(seed=config.seed, **config.metropolis)
            else:
                fit, options = adjoint_fit, AdjointConfig(**config.adjoint)
        except TypeError as exc:  # an unknown option; one raised inside the fit is a defect
            raise ConfigError(f"bad estimator options: {exc}", path=config.path,
                              key=f"estimator.{estimator}") from exc
        result = fit(problem, options)
    except ConfigError as exc:
        if exc.path is None:
            raise ConfigError(str(exc), path=config.path, key=f"estimator.{estimator}") from exc
        raise
    report_path = out_dir / "fit_report.json"
    history_path = out_dir / "fit_history.csv"
    write_fit_report(report_path, problem, result, config, estimator)
    _write_history(history_path, problem, result)
    metrics = {
        "estimator": estimator,
        "objective": result.objective,
        "acceptance_rate": result.acceptance_rate,
        "iterations": len(result.history),
    }
    return {"outputs": [str(report_path), str(history_path)], "metrics": metrics}


def _cmd_gradient_check(config: RunConfig, out_dir: Path, args) -> dict:
    problem = load_scenario(config)
    if problem.data is None:
        raise ConfigError("gradient-check requires data.cases", path=config.path, key="data.cases")
    check = gradient_check(problem, problem.initial)
    table_path = out_dir / "gradient_check.csv"
    columns = zip(map(_csv_field, check["names"]), check["adjoint"], check["fd"], check["rel_err"],
                  check["scaled_err"])
    _write_table(table_path, ["component", "adjoint", "finite_difference", "rel_error",
                              "scaled_error"], "%s" + _FLOAT_CELL * 4, columns)
    metrics = {"max_rel_error": float(check["rel_err"].max()),
               "max_scaled_error": float(check["scaled_err"].max())}
    return {"outputs": [str(table_path)], "metrics": metrics}


def _cmd_convergence_study(config: RunConfig, out_dir: Path, args) -> dict:
    kinds = ["diffusion", "coupled"] if args.kind == "both" else [args.kind]
    if config.backend != "cn":
        raise ConfigError("convergence-study refines the cn scheme only; use --backend cn",
                          path=config.path, key="solver.backend")
    problem = load_scenario(config)
    horizon = 4.0 if config.n_days >= 4 else 2.0  # every STUDY_TAUS step divides 4 and 2 days
    results = {}
    rows = []
    for kind in kinds:
        study = temporal_refinement_study(
            kind, problem.grid, problem.model, problem.initial.schedule,
            kappa=max(problem.initial.kappa, 0.05), t_end=horizon, corrected=problem.corrected,
        )
        results[kind] = study
        for tau, err in zip(study["taus"], study["errors"]):
            rows.append((kind, tau, err))
    table_path = out_dir / "convergence.csv"
    _write_table(table_path, ["kind", "tau", "error"], "%s" + _FLOAT_CELL * 2, rows)
    metrics = {f"{kind}_orders": [round(o, 3) for o in results[kind]["orders"]] for kind in kinds}
    return {"outputs": [str(table_path)], "metrics": metrics}


def _cmd_export_plots(config: RunConfig, out_dir: Path, args) -> dict:
    if config.cases is None:
        raise ConfigError("export-plots requires data.cases", path=config.path, key="data.cases")
    series = read_cases(config.cases, config.start, config.n_days, sorted(config.region_masks))
    names = sorted(series)
    days = series[names[0]].days
    outputs = [str(out_dir / "daily_cases.csv"), str(out_dir / "cumulative_cases.csv")]
    export_days(outputs[0], config, days, {n: series[n].new_cases for n in names})
    export_days(outputs[1], config, days, {n: series[n].cumulative for n in names})
    metrics = {
        "regions": sorted(series),
        "total_cases": float(sum(s.new_cases.sum() for s in series.values())),
    }
    return {"outputs": outputs, "metrics": metrics}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epidiffuse",
        description="Reaction-diffusion epidemic simulation and parameter estimation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", required=True, help="run config (YAML)")
        sp.add_argument("--seed", type=int, default=None, help="override the config seed")
        sp.add_argument("--backend", choices=["cn", "fem-split"], default=None,
                        help="override the solver backend")
        sp.add_argument("--out", default=None, help="override the output directory")

    common(sub.add_parser("simulate", help="forward simulation and region tables"))
    fit = sub.add_parser("fit", help="parameter estimation")
    common(fit)
    fit.add_argument("--estimator", choices=["metropolis", "adjoint"], default=None,
                     help="override estimator.kind")
    fit.add_argument("--draws", type=int, default=None, help="override Metropolis draw count")
    common(sub.add_parser("gradient-check", help="adjoint gradient vs finite differences"))
    conv = sub.add_parser("convergence-study", help="temporal refinement orders")
    common(conv)
    conv.add_argument("--kind", choices=["diffusion", "coupled", "both"], default="both")
    common(sub.add_parser("export-plots", help="plot-ready case tables"))
    return parser


_COMMANDS = {
    "simulate": _cmd_simulate,
    "fit": _cmd_fit,
    "gradient-check": _cmd_gradient_check,
    "convergence-study": _cmd_convergence_study,
    "export-plots": _cmd_export_plots,
}

_EXIT_CONFIG = 2
_EXIT_NUMERICAL = 3
_EXIT_IO = 4

_CONFIG_ERRORS = (
    ConfigError, MaskFormatError, CaseDataError, ParameterError,
    DimensionError, NormalizationError, DegenerateRegionError, AlignmentError,
)
_NUMERICAL_ERRORS = (StabilityError, SequencingError)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        if args.seed is not None:
            config.seed = args.seed
        if args.backend is not None:
            config.backend = args.backend
        if args.out is not None:
            config.out_dir = str(Path(args.out).resolve())
        out_dir = Path(config.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        result = _COMMANDS[args.command](config, out_dir, args)
        _write_summary(out_dir, args.command, config, result["outputs"], result["metrics"])
        print(f"{args.command}: ok ({out_dir / 'summary.json'})")
        return 0
    except _NUMERICAL_ERRORS as exc:
        print(f"error (numerical): {exc}", file=sys.stderr)
        return _EXIT_NUMERICAL
    except _CONFIG_ERRORS as exc:
        print(f"error (config/data): {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except OSError as exc:
        print(f"error (io): {exc}", file=sys.stderr)
        return _EXIT_IO
    except EpidiffuseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
