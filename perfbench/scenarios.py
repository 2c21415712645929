"""The benchmark's inputs: the bundled demo, the tiled twin and grid256.

``twin`` and ``grid256`` are written to scenario files (masks, synthetic case
CSV, YAML config) once per run, so all three workloads are loaded the same way,
through ``load_config`` and ``load_scenario``.  Case noise and the evaluation
points depend on the benchmark seed; geometry, populations and truth do not.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

START = dt.date(2020, 10, 1)
TRUTH_BETAS = (0.2, 0.1, 0.1)
DEMO_SEEDS = {"BA": 40.0, "BI": 30.0, "HR": 10.0, "IO": 120.0}
DEMO_DAYS, DEMO_BREAKPOINTS = 10, (3, 6)
# host-speed probe (probe.py): steps on the workload's grid, and its reference
# time, the median of its samples in reference runs on a 2-vCPU Xeon host, rounded
DEMO_PROBE = (10, 0.05)
TWIN_PROBE = (100, 0.05)
GRID256_PROBE = (2, 0.1)


@dataclass
class Scenario:
    """A scenario on disk plus what the benchmark knows about its making."""

    name: str
    config: Path
    truth_chi: np.ndarray
    truth_seeds: dict[str, float]
    fit_draws: int = 10
    fit_max_outer: int = 3
    probe_steps: int = 10
    probe_ref_s: float = 0.05
    toy: bool = False
    make_up: dict = field(default_factory=dict)


def _write_config(path: Path, regions: dict[str, float], days: int, breakpoints, tau: float,
                  initial: dict, district: bool, seed: int) -> None:
    config = {
        "model": "seir",
        "grid": {"regions": {name: {"mask": f"{name}.mask", "population": float(pop)}
                             for name, pop in sorted(regions.items())}},
        "window": {"start": START.isoformat(), "days": days, "breakpoints": list(breakpoints)},
        "data": {"cases": "cases.csv"},
        "solver": {"backend": "cn", "tau": tau},
        "initial": initial,
        "output": "out",
        "seed": seed,
    }
    if district:
        config["grid"]["district_mask"] = "district.mask"
    path.write_text(yaml.safe_dump(config, sort_keys=False))


def _synthesize(ep, out: Path, grid, masks, pops, seeds, days, breakpoints, tau, noise,
                seed, initial, district: bool) -> None:
    """Write masks, noisy twin cases and the config for one synthetic scenario."""
    out.mkdir(parents=True, exist_ok=True)
    for name, mask in masks.items():
        ep.write_mask(out / f"{name}.mask", grid, mask)
    if district:
        ep.write_mask(out / "district.mask", grid, ep.union_mask(masks.values()))
    population = ep.demo_population(grid, masks, pops)
    truth = ep.ParameterVector(
        ep.RateSchedule(TRUTH_BETAS, tuple(float(b) for b in breakpoints), float(days)),
        0.1, 0.5, dict(seeds),
    )
    ep.generate_synthetic(truth, grid, masks, population, ep.ModelKind.SEIR, float(days),
                          tau, noise, seed, out, start=START)
    _write_config(out / "scenario.yaml", pops, days, breakpoints, tau, initial, district, seed)


def demo(ep, out: Path, seed: int, toy: bool) -> Scenario:
    """The bundled 101x101 scenario over its first 10 days (17x17 over 8 days when toy).

    The config is the bundled one with the window cut to DEMO_DAYS (and the
    breakpoints moved inside it); masks and case file are the bundled files.
    A step costs what it costs over the full 148 days, and each operation is
    short enough for a run to take many samples of it.
    """
    chi = np.array(TRUTH_BETAS + (0.1, 0.5))
    if toy:
        grid, masks, pops = ep.demo_geometry(17, 17)
        _synthesize(ep, out, grid, masks, pops, DEMO_SEEDS, 8, (3, 5), 0.1, 0.05, seed,
                    {"betas": [0.1, 0.1, 0.1], "kappa": 0.1, "delta": 0.5,
                     "infected": {"BA": 50, "BI": 25, "HR": 15, "IO": 100}}, True)
        return Scenario("demo", out / "scenario.yaml", chi, dict(DEMO_SEEDS),
                        fit_draws=3, fit_max_outer=2, probe_steps=100, toy=True)
    bundled = Path(ep.demo_scenario_path())
    config = yaml.safe_load(bundled.read_text())
    for entry in config["grid"]["regions"].values():
        entry["mask"] = str(bundled.parent / entry["mask"])
    config["grid"]["district_mask"] = str(bundled.parent / config["grid"]["district_mask"])
    config["data"]["cases"] = str(bundled.parent / config["data"]["cases"])
    config["window"].update(days=DEMO_DAYS, breakpoints=list(DEMO_BREAKPOINTS))
    out.mkdir(parents=True, exist_ok=True)
    (out / "scenario.yaml").write_text(yaml.safe_dump(config, sort_keys=False))
    truth = yaml.safe_load((bundled.parent / "truth.yaml").read_text())
    return Scenario(
        "demo", out / "scenario.yaml",
        np.array(list(truth["betas"]) + [truth["kappa"], truth["delta"]]),
        {k: float(v) for k, v in truth["init_infected"].items()},
        probe_steps=DEMO_PROBE[0], probe_ref_s=DEMO_PROBE[1],
        make_up={"source": "bundled data/birkenfeld scenario and files",
                 "window": f"first {DEMO_DAYS} days, breakpoints {list(DEMO_BREAKPOINTS)}, tau 0.1"},
    )


def twin(ep, out: Path, seed: int, toy: bool) -> Scenario:
    """The tiled twin of acceptance criterion 6 (4x4 tiles on 33x33, 8 km)."""
    nx, n_tiles, days, tau = (9, 2, 10, 0.25) if toy else (33, 4, 148, 0.25)
    breakpoints = (3, 7) if toy else (32, 77)
    grid = ep.GridSpec(nx, nx, 8.0, 8.0)
    edges = np.linspace(0, nx, n_tiles + 1).astype(int)
    base_pop = np.random.default_rng(7).uniform(3000.0, 9000.0, size=(n_tiles, n_tiles))
    masks, pops, seeds = {}, {}, {}
    for iy in range(n_tiles):
        for ix in range(n_tiles):
            name = f"R{iy}{ix}"
            cells = np.zeros((nx, nx), dtype=bool)
            cells[edges[iy]:edges[iy + 1], edges[ix]:edges[ix + 1]] = True
            masks[name] = ep.RegionMask(name, cells)
            pops[name] = float(base_pop[iy, ix])
            seeds[name] = 4.0 * (80.0 * np.exp(-0.9 * (iy + ix)) + 2.0)
    start = {"betas": [0.24, 0.085, 0.115], "kappa": 0.13, "delta": 0.65,
             "infected": {k: float(v) for k, v in seeds.items()}}
    _synthesize(ep, out, grid, masks, pops, seeds, days, breakpoints, tau, 0.05, seed,
                start, False)
    make_up = {
        "grid": f"{nx}x{nx} nodes on 8 km x 8 km", "tiling": f"{n_tiles}x{n_tiles} square tiles",
        "populations": "uniform(3000, 9000) per tile from numpy default_rng(7)",
        "truth": "betas 0.2/0.1/0.1, kappa 0.1, delta 0.5, seeds 4*(80*exp(-0.9*(iy+ix))+2)",
        "window": f"{days} days, breakpoints {list(breakpoints)}, tau {tau}",
        "noise": "5% multiplicative, numpy default_rng(--seed)",
        "fit start": "betas 0.24/0.085/0.115, kappa 0.13, delta 0.65 (criterion 6)",
    }
    return Scenario("twin", out / "scenario.yaml", np.array(TRUTH_BETAS + (0.1, 0.5)), seeds,
                    fit_draws=4 if toy else 10, fit_max_outer=2 if toy else 3,
                    probe_steps=TWIN_PROBE[0], probe_ref_s=TWIN_PROBE[1], toy=toy,
                    make_up=make_up)


def grid256(ep, out: Path, seed: int, toy: bool) -> Scenario:
    """The demo geometry at 256x256 over 4 days (24x24 over 6 days when toy)."""
    n, days, breakpoints, tau = (24, 6, (2, 4), 0.5) if toy else (256, 4, (1, 2), 0.25)
    grid, masks, pops = ep.demo_geometry(n, n)
    initial = {"betas": [0.1, 0.1, 0.1], "kappa": 0.1, "delta": 0.5,
               "infected": {"BA": 50, "BI": 25, "HR": 15, "IO": 100}}
    _synthesize(ep, out, grid, masks, pops, DEMO_SEEDS, days, breakpoints, tau, 0.05, seed,
                initial, True)
    make_up = {
        "grid": f"demo_geometry({n}, {n}): the four demo regions on 39.23 km x 56.05 km",
        "populations": "the demo's 14500/19000/19500/28000, uniform per region",
        "truth": "betas 0.2/0.1/0.1, kappa 0.1, delta 0.5, seeds BA 40, BI 30, HR 10, IO 120",
        "window": f"{days} days, breakpoints {list(breakpoints)}, tau {tau}",
        "noise": "5% multiplicative, numpy default_rng(--seed)",
    }
    return Scenario("grid256", out / "scenario.yaml", np.array(TRUTH_BETAS + (0.1, 0.5)),
                    dict(DEMO_SEEDS), probe_steps=GRID256_PROBE[0],
                    probe_ref_s=GRID256_PROBE[1], toy=toy, make_up=make_up)


BUILDERS = {"demo": demo, "twin": twin, "grid256": grid256}
