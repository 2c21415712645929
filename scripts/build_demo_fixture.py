"""Regenerate the bundled demo fixture under src/epidiffuse/data/birkenfeld/.

Writes the four region masks, their union, a synthetic case file produced
from a documented truth (recorded in truth.yaml next to it), and the
scenario config the README examples run against.

    python scripts/build_demo_fixture.py [OUT_DIR]

OUT_DIR defaults to the bundle.  The masks and scenario.yaml are reproduced
byte for byte.  The case counts are reproduced to about 1e-11 relative, not
byte for byte: the bundled file predates the eigenbasis diffusion solve,
whose rounding moves a few counts in their 12th significant digit, so the
bundled synthetic_cases.csv and its truth.yaml hash are kept as they are.
"""

import argparse
from pathlib import Path

from epidiffuse.cli_io import (
    demo_geometry,
    demo_population,
    generate_synthetic,
    write_mask,
)
from epidiffuse.grid import union_mask
from epidiffuse.models import ModelKind, ParameterVector, RateSchedule

OUT = Path(__file__).resolve().parents[1] / "src" / "epidiffuse" / "data" / "birkenfeld"

SCENARIO = """\
# Synthetic demo scenario: four-region district, 148-day window.
# Case data are synthetic (see truth.yaml for the generating parameters).
model: seir

grid:
  regions:
    BA: {mask: BA.mask, population: 14500}
    BI: {mask: BI.mask, population: 19000}
    HR: {mask: HR.mask, population: 19500}
    IO: {mask: IO.mask, population: 28000}
  district_mask: district.mask

window:
  start: 2020-10-01
  days: 148
  breakpoints: [32, 77]

data:
  cases: synthetic_cases.csv

weights:
  w0: 1.0
  w1: 0.0
  w2: 0.0

solver:
  backend: cn
  tau: 0.1

estimator:
  kind: simulate-only
  metropolis:
    draws: 2000
    burn_in: 0.2
  adjoint:
    max_outer: 30

initial:
  betas: [0.1, 0.1, 0.1]
  kappa: 0.1
  delta: 0.5
  infected: {BA: 50, BI: 25, HR: 15, IO: 100}

output: out
seed: 0
"""


def main(out: Path = OUT) -> None:
    out.mkdir(parents=True, exist_ok=True)
    grid, masks, populations = demo_geometry()
    for name, mask in masks.items():
        write_mask(out / f"{name}.mask", grid, mask)
    write_mask(out / "district.mask", grid, union_mask(masks.values()))

    population = demo_population(grid, masks, populations)
    truth = ParameterVector(
        RateSchedule((0.2, 0.1, 0.1), (32.0, 77.0), 148.0),
        kappa=0.1,
        delta=0.5,
        init_infected={"BA": 40.0, "BI": 30.0, "HR": 10.0, "IO": 120.0},
    )
    paths = generate_synthetic(
        truth, grid, masks, population, ModelKind.SEIR,
        t_end=148.0, tau=0.1, noise=0.05, seed=2020, out_dir=out,
    )
    cases = Path(paths["cases"])
    cases.rename(out / "synthetic_cases.csv")

    (out / "scenario.yaml").write_text(SCENARIO)
    print(f"wrote fixture to {out}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Regenerate the bundled demo fixture.")
    parser.add_argument("out", nargs="?", type=Path, default=OUT,
                        help="output directory (default: the bundled fixture)")
    main(parser.parse_args().out)
