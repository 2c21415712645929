"""File formats, run configs, and the command-line entry point."""

import copy
import csv
import datetime as dt
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from conftest import make_twin
from epidiffuse import ObjectiveWeights, cli_io
from epidiffuse.cli_io import (
    DEMO_POPULATIONS,
    demo_geometry,
    demo_population,
    demo_scenario_path,
    generate_synthetic,
    load_config,
    load_scenario,
    main,
    read_cases,
    read_mask,
    sha256_of,
    write_cases,
    write_mask,
)
from epidiffuse.errors import (
    CaseDataError,
    ConfigError,
    DimensionError,
    MaskFormatError,
    ParameterError,
)
from epidiffuse.grid import GridSpec, RegionMask, region_total, union_mask
from epidiffuse.models import ModelKind, ParameterVector, RateSchedule
from epidiffuse.objective import CaseSeries

START = dt.date(2020, 10, 1)


def small_geometry():
    grid = GridSpec(9, 9, 4.0, 4.0)
    a = np.zeros((9, 9), dtype=bool)
    a[1:4, 1:8] = True
    b = np.zeros((9, 9), dtype=bool)
    b[5:8, 1:8] = True
    return grid, {"A": RegionMask("A", a), "B": RegionMask("B", b)}


def write_geometry(dir_, grid, masks):
    paths = {}
    for name, mask in masks.items():
        path = dir_ / f"{name}.mask"
        write_mask(path, grid, mask)
        paths[name] = path
    return paths


def scenario_raw(mask_paths, cases=None, **over):
    """Base config dict for the small two-region window."""
    raw = {
        "model": "seir",
        "grid": {
            "regions": {
                name: {"mask": path.name, "population": pop}
                for (name, path), pop in zip(sorted(mask_paths.items()), (1000.0, 800.0))
            },
        },
        "window": {"start": "2020-10-01", "days": 10, "breakpoints": [3, 7]},
        "weights": {"w0": 1.0, "w1": 0.0, "w2": 0.0},
        "solver": {"backend": "cn", "tau": 0.25, "corrected": False},
        "estimator": {"kind": "simulate-only"},
        "initial": {
            "betas": [0.3, 0.15, 0.2],
            "kappa": 0.1,
            "delta": 0.5,
            "infected": {"A": 20.0, "B": 10.0},
        },
        "output": "out",
        "seed": 3,
    }
    if cases is not None:
        raw["data"] = {"cases": cases}
    raw.update(over)
    return raw


def dump_config(dir_, raw, name="run.yaml"):
    path = dir_ / name
    path.write_text(yaml.safe_dump(raw, sort_keys=True))
    return path


class TestMaskFiles:
    def test_roundtrip_preserves_grid_and_cells(self, tmp_path):
        grid, masks = small_geometry()
        path = tmp_path / "A.mask"
        write_mask(path, grid, masks["A"])
        g2, m2 = read_mask(path)
        assert (g2.nx, g2.ny, g2.Lx, g2.Ly) == (grid.nx, grid.ny, grid.Lx, grid.Ly)
        assert m2.name == "A"
        np.testing.assert_array_equal(m2.cells, masks["A"].cells)

    def test_numpy_extent_roundtrips(self, tmp_path):
        """A numpy scalar extent is written as a plain float, which read_mask reads back."""
        grid = GridSpec(4, 3, np.float64(2.5), 1.0)
        mask = RegionMask("N", np.ones(grid.shape, dtype=int))
        write_mask(tmp_path / "N.mask", grid, mask)
        assert (tmp_path / "N.mask").read_text().splitlines()[0] == "4 3 2.5 1.0"
        g2, m2 = read_mask(tmp_path / "N.mask")
        assert (g2.nx, g2.ny, g2.Lx, g2.Ly) == (4, 3, 2.5, 1.0)
        np.testing.assert_array_equal(m2.cells, mask.cells)

    def test_mask_off_the_grid_is_refused_before_writing(self, tmp_path):
        """A 5x2 mask under a '4 3' header would be a file read_mask cannot read back."""
        grid = GridSpec(4, 3, 1.0, 1.0)
        with pytest.raises(DimensionError, match="grid expects"):
            write_mask(tmp_path / "W.mask", grid, RegionMask("W", np.ones((5, 2), dtype=bool)))
        assert not (tmp_path / "W.mask").exists()

    def test_rewrite_is_bit_identical(self, tmp_path):
        grid, masks = small_geometry()
        first = tmp_path / "B.mask"
        write_mask(first, grid, masks["B"])
        g2, m2 = read_mask(first)
        second = tmp_path / "copy"
        second.mkdir()
        second = second / "B.mask"
        write_mask(second, g2, m2)
        assert first.read_bytes() == second.read_bytes()

    def test_name_comes_from_file_stem(self, tmp_path):
        grid, masks = small_geometry()
        path = tmp_path / "somewhere.mask"
        write_mask(path, grid, masks["A"])
        _, mask = read_mask(path)
        assert mask.name == "somewhere"

    def test_empty_file(self, tmp_path):
        path = tmp_path / "x.mask"
        path.write_text("")
        with pytest.raises(MaskFormatError, match="empty"):
            read_mask(path)

    def test_short_header(self, tmp_path):
        path = tmp_path / "x.mask"
        path.write_text("3 3 1.0\n0 0 0\n0 1 0\n0 0 0\n")
        with pytest.raises(MaskFormatError, match="header"):
            read_mask(path)

    def test_non_numeric_header(self, tmp_path):
        path = tmp_path / "x.mask"
        path.write_text("three 3 1.0 1.0\n")
        with pytest.raises(MaskFormatError, match="malformed header"):
            read_mask(path)

    def test_wrong_row_count(self, tmp_path):
        path = tmp_path / "x.mask"
        path.write_text("3 3 1.0 1.0\n0 0 0\n0 1 0\n")
        with pytest.raises(MaskFormatError, match="expected 3 mask rows"):
            read_mask(path)

    def test_wrong_row_width(self, tmp_path):
        path = tmp_path / "x.mask"
        path.write_text("3 3 1.0 1.0\n0 0 0\n0 1\n0 0 0\n")
        with pytest.raises(MaskFormatError, match="row 1 has 2 entries"):
            read_mask(path)

    def test_only_zeros_and_ones_allowed(self, tmp_path):
        path = tmp_path / "x.mask"
        path.write_text("3 3 1.0 1.0\n0 0 0\n0 2 0\n0 0 0\n")
        with pytest.raises(MaskFormatError, match="only 0/1"):
            read_mask(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(MaskFormatError, match="cannot read"):
            read_mask(tmp_path / "nope.mask")


class TestCaseFiles:
    def make_series(self):
        days = np.arange(6)
        return {
            "A": CaseSeries("A", days, np.array([3.0, 1.5, 0.0, 2.25, 4.0, 1.0])),
            "B": CaseSeries("B", days, np.array([0.5, 0.0, 1.0, 0.0, 0.25, 2.0])),
        }

    def test_roundtrip_values(self, tmp_path):
        series = self.make_series()
        path = tmp_path / "cases.csv"
        write_cases(path, series, START)
        back = read_cases(path, START, 5, ["A", "B"])
        for name in series:
            np.testing.assert_array_equal(back[name].days, series[name].days)
            assert_allclose(back[name].new_cases, series[name].new_cases, rtol=1e-12)
            assert back[name].filled_days == ()

    def test_rewrite_is_bit_identical(self, tmp_path):
        series = self.make_series()
        first = tmp_path / "cases.csv"
        write_cases(first, series, START)
        back = read_cases(first, START, 5, ["A", "B"])
        second = tmp_path / "again.csv"
        write_cases(second, back, START)
        assert first.read_bytes() == second.read_bytes()

    def test_rows_are_the_csv_writer_bytes(self, tmp_path):
        """write_cases writes what a csv.writer loop writes, a region name that needs quoting too."""
        days, values = np.arange(3), [0.1, 1e-20, 12345.678901234]
        series = {name: CaseSeries(name, days, np.array(values)) for name in ("A", 'b,"x"', "c d")}
        write_cases(tmp_path / "cases.csv", series, START)
        reference = io.StringIO()
        writer = csv.writer(reference)
        writer.writerow(["date", "region", "new_cases"])
        for name in sorted(series):
            writer.writerows([(START + dt.timedelta(days=int(day))).isoformat(), name, "%.12g" % value]
                             for day, value in zip(days, values))
        assert (tmp_path / "cases.csv").read_bytes() == reference.getvalue().encode()

    def test_missing_days_zero_filled_and_flagged(self, tmp_path):
        path = tmp_path / "cases.csv"
        path.write_text(
            "date,region,new_cases\n"
            "2020-10-01,A,4\n"
            "2020-10-04,A,2\n"
        )
        with pytest.warns(RuntimeWarning, match=r"cases\.csv.*'A': \[1, 2, 4\]"):
            back = read_cases(path, START, 4, ["A"])
        assert_allclose(back["A"].new_cases, [4.0, 0.0, 0.0, 2.0, 0.0])
        assert back["A"].filled_days == (1, 2, 4)
        path.write_text("date,region,new_cases\n2020-10-01,A,4\n2020-10-02,A,1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert read_cases(path, START, 1, ["A"])["A"].filled_days == ()

    def test_records_outside_window_ignored(self, tmp_path):
        path = tmp_path / "cases.csv"
        path.write_text(
            "date,region,new_cases\n"
            "2020-09-30,A,99\n"
            "2020-10-01,A,4\n"
            "2020-10-02,A,1\n"
            "2020-10-20,A,99\n"
        )
        back = read_cases(path, START, 2, ["A"])
        assert_allclose(back["A"].new_cases, [4.0, 1.0, 0.0])

    def test_duplicate_day_rejected(self, tmp_path):
        path = tmp_path / "cases.csv"
        path.write_text(
            "date,region,new_cases\n2020-10-01,A,4\n2020-10-01,A,5\n"
        )
        with pytest.raises(CaseDataError, match="duplicate"):
            read_cases(path, START, 2, ["A"])

    def test_negative_count_rejected(self, tmp_path):
        path = tmp_path / "cases.csv"
        path.write_text("date,region,new_cases\n2020-10-01,A,-1\n")
        with pytest.raises(CaseDataError, match="negative"):
            read_cases(path, START, 2, ["A"])

    @pytest.mark.parametrize("count", ["nan", "inf", " NaN", "Infinity"])
    def test_non_finite_count_rejected_at_its_line(self, tmp_path, count):
        path = tmp_path / "cases.csv"
        path.write_text(f"date,region,new_cases\n2020-10-01,A,1\n2020-10-02,A,{count}\n")
        with pytest.raises(CaseDataError, match=f"^{path}:3: bad case count '{count}'$"):
            read_cases(path, START, 2, ["A"])

    def test_unknown_region_rejected(self, tmp_path):
        path = tmp_path / "cases.csv"
        path.write_text("date,region,new_cases\n2020-10-01,Z,1\n")
        with pytest.raises(CaseDataError, match="unknown region 'Z'"):
            read_cases(path, START, 2, ["A"])

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "cases.csv"
        path.write_text("day,region,count\n0,A,1\n")
        with pytest.raises(CaseDataError, match="expected header"):
            read_cases(path, START, 2, ["A"])

    def test_bad_date_rejected(self, tmp_path):
        path = tmp_path / "cases.csv"
        path.write_text("date,region,new_cases\nyesterday,A,1\n")
        with pytest.raises(CaseDataError, match="bad date"):
            read_cases(path, START, 2, ["A"])

    def test_region_without_records_rejected(self, tmp_path):
        path = tmp_path / "cases.csv"
        path.write_text("date,region,new_cases\n2020-10-01,A,1\n")
        with pytest.raises(CaseDataError, match="no records for region 'B'"):
            read_cases(path, START, 2, ["A", "B"])


class TestFileRoundTripProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        grid=st.builds(
            GridSpec, nx=st.integers(2, 30), ny=st.integers(2, 30),
            Lx=st.floats(0.01, 1e4), Ly=st.floats(0.01, 1e4),
        ),
        share=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_mask_roundtrip(self, grid, share, seed):
        cells = np.random.default_rng(seed).uniform(size=grid.shape) < share
        with tempfile.TemporaryDirectory() as tmp:
            first = Path(tmp) / "R.mask"
            write_mask(first, grid, RegionMask("R", cells))
            g2, m2 = read_mask(first)
            assert g2 == grid
            np.testing.assert_array_equal(m2.cells, cells)
            second = Path(tmp) / "copy" / "R.mask"
            second.parent.mkdir()
            write_mask(second, g2, m2)
            assert first.read_bytes() == second.read_bytes()

    @settings(max_examples=40, deadline=None)
    @given(
        counts=arrays(
            np.float64, st.tuples(st.integers(1, 3), st.integers(1, 31)),
            elements=st.floats(0.0, 1e9, allow_subnormal=False),
        ),
    )
    def test_case_roundtrip(self, counts):
        """Rows of ``counts`` are regions, columns days 0..n_days."""
        n_days = counts.shape[1] - 1
        series = {
            f"R{k}": CaseSeries(f"R{k}", np.arange(n_days + 1), values)
            for k, values in enumerate(counts)
        }
        with tempfile.TemporaryDirectory() as tmp:
            first = Path(tmp) / "cases.csv"
            write_cases(first, series, START)
            back = read_cases(first, START, n_days, sorted(series))
            for name, s in series.items():
                np.testing.assert_array_equal(back[name].days, s.days)
                # 12 significant digits: off by at most half a unit in the 12th
                assert_allclose(back[name].new_cases, s.new_cases, rtol=5e-12, atol=0.0)
                assert back[name].filled_days == ()
            second = Path(tmp) / "again.csv"
            write_cases(second, back, START)
            assert first.read_bytes() == second.read_bytes()


class TestLoadConfig:
    @pytest.fixture()
    def scenario_dir(self, tmp_path):
        grid, masks = small_geometry()
        paths = write_geometry(tmp_path, grid, masks)
        (tmp_path / "cases.csv").write_text(
            "date,region,new_cases\n2020-10-01,A,1\n2020-10-01,B,1\n"
        )
        return tmp_path, paths

    def test_valid_config_loads(self, scenario_dir):
        tmp_path, mask_paths = scenario_dir
        raw = scenario_raw(mask_paths, cases="cases.csv")
        config = load_config(dump_config(tmp_path, raw))
        assert config.model is ModelKind.SEIR
        assert config.n_days == 10
        assert config.breakpoints == (3.0, 7.0)
        assert config.start == START
        assert sorted(config.region_masks) == ["A", "B"]
        assert all(str(tmp_path) in p for p in config.region_masks.values())
        assert config.cases.endswith("cases.csv")
        assert config.out_dir == str(tmp_path / "out")
        assert config.estimator == "simulate-only"
        assert config.backend == "cn" and config.tau == 0.25

    def test_config_hash_is_stable(self, scenario_dir):
        tmp_path, mask_paths = scenario_dir
        raw = scenario_raw(mask_paths)
        c1 = load_config(dump_config(tmp_path, raw, "a.yaml"))
        c2 = load_config(dump_config(tmp_path, raw, "b.yaml"))
        assert len(c1.config_hash) == 64
        assert c1.config_hash == c2.config_hash
        raw["seed"] = 4
        c3 = load_config(dump_config(tmp_path, raw, "c.yaml"))
        assert c3.config_hash != c1.config_hash

    def test_date_of_matches_window_start(self, scenario_dir):
        tmp_path, mask_paths = scenario_dir
        config = load_config(dump_config(tmp_path, scenario_raw(mask_paths)))
        assert config.date_of(0) == "2020-10-01"
        assert config.date_of(32) == "2020-11-02"

    def test_breakpoints_as_dates(self, scenario_dir):
        tmp_path, mask_paths = scenario_dir
        raw = scenario_raw(mask_paths, window={
            "start": "2020-10-01", "days": 148,
            "breakpoints": ["2020-11-02", "2020-12-17"],
        })
        config = load_config(dump_config(tmp_path, raw))
        assert config.breakpoints == (32.0, 77.0)

    def test_breakpoints_out_of_order(self, scenario_dir):
        tmp_path, mask_paths = scenario_dir
        raw = scenario_raw(mask_paths, window={
            "start": "2020-10-01", "days": 10, "breakpoints": [7, 3],
        })
        with pytest.raises(ConfigError, match="breakpoints") as err:
            load_config(dump_config(tmp_path, raw))
        assert err.value.key == "window.breakpoints"

    def test_missing_mask_file(self, scenario_dir):
        tmp_path, mask_paths = scenario_dir
        raw = scenario_raw(mask_paths)
        raw["grid"]["regions"]["A"]["mask"] = "gone.mask"
        with pytest.raises(ConfigError, match="mask file not found") as err:
            load_config(dump_config(tmp_path, raw))
        assert err.value.key == "grid.regions.A.mask"
        assert err.value.path is not None

    def test_missing_case_file(self, scenario_dir):
        tmp_path, mask_paths = scenario_dir
        raw = scenario_raw(mask_paths, cases="gone.csv")
        with pytest.raises(ConfigError, match="case file not found") as err:
            load_config(dump_config(tmp_path, raw))
        assert err.value.key == "data.cases"

    def test_unknown_model(self, scenario_dir):
        tmp_path, mask_paths = scenario_dir
        raw = scenario_raw(mask_paths, model="sirs")
        with pytest.raises(ConfigError, match="unknown model"):
            load_config(dump_config(tmp_path, raw))

    def test_too_short_window(self, scenario_dir):
        tmp_path, mask_paths = scenario_dir
        raw = scenario_raw(mask_paths, window={"start": "2020-10-01", "days": 1})
        with pytest.raises(ConfigError, match="days must be >= 2"):
            load_config(dump_config(tmp_path, raw))

    def test_unknown_backend(self, scenario_dir):
        tmp_path, mask_paths = scenario_dir
        raw = scenario_raw(mask_paths, solver={"backend": "spectral"})
        with pytest.raises(ConfigError, match="backend") as err:
            load_config(dump_config(tmp_path, raw))
        assert err.value.key == "solver.backend"

    def test_unknown_estimator(self, scenario_dir):
        tmp_path, mask_paths = scenario_dir
        raw = scenario_raw(mask_paths, estimator={"kind": "nelder-mead"})
        with pytest.raises(ConfigError, match="unknown estimator"):
            load_config(dump_config(tmp_path, raw))

    def test_nonpositive_tau(self, scenario_dir):
        tmp_path, mask_paths = scenario_dir
        raw = scenario_raw(mask_paths, solver={"tau": 0.0})
        with pytest.raises(ConfigError, match=r"tau must lie in \(0, 1.0\], got 0.0") as err:
            load_config(dump_config(tmp_path, raw))
        assert err.value.key == "solver.tau"

    @pytest.mark.parametrize("tau, message", [(0.0, "must lie in"), (1.5, "must lie in"),
                                              (0.3, "must divide one day")])
    def test_tau_rule_names_its_key(self, scenario_dir, tau, message):
        """The reader applies Problem's tau rule and names [solver.tau] in the refusal."""
        tmp_path, mask_paths = scenario_dir
        raw = scenario_raw(mask_paths, solver={"tau": tau})
        with pytest.raises(ConfigError, match=message) as err:
            load_config(dump_config(tmp_path, raw))
        assert err.value.key == "solver.tau"
        assert "[solver.tau]" in str(err.value)

    def test_nonpositive_population(self, scenario_dir):
        tmp_path, mask_paths = scenario_dir
        raw = scenario_raw(mask_paths)
        raw["grid"]["regions"]["B"]["population"] = 0
        with pytest.raises(ConfigError, match="population must be positive") as err:
            load_config(dump_config(tmp_path, raw))
        assert err.value.key == "grid.regions.B.population"

    def test_seeds_for_unknown_region(self, scenario_dir):
        tmp_path, mask_paths = scenario_dir
        raw = scenario_raw(mask_paths)
        raw["initial"]["infected"] = {"A": 5.0, "Z": 1.0}
        with pytest.raises(ConfigError, match="unknown regions: Z"):
            load_config(dump_config(tmp_path, raw))

    def test_quoted_boolean_rejected(self, scenario_dir):
        """A quoted 'false' is a string, and a string is not a switch."""
        tmp_path, mask_paths = scenario_dir
        raw = scenario_raw(mask_paths, solver={"tau": 0.25, "corrected": "false"})
        with pytest.raises(ConfigError, match="expected boolean") as err:
            load_config(dump_config(tmp_path, raw))
        assert err.value.key == "solver.corrected"

    def test_integral_float_count_loads_as_int(self, scenario_dir):
        tmp_path, mask_paths = scenario_dir
        raw = scenario_raw(mask_paths, seed=3.0)
        raw["window"]["days"] = 10.0
        config = load_config(dump_config(tmp_path, raw))
        assert config.n_days == 10 and isinstance(config.n_days, int)
        assert config.seed == 3 and isinstance(config.seed, int)

    def test_impossible_yaml_date_rejected(self, scenario_dir):
        tmp_path, mask_paths = scenario_dir
        path = dump_config(tmp_path, scenario_raw(mask_paths))
        path.write_text(path.read_text().replace("start: '2020-10-01'", "start: 2020-13-01"))
        with pytest.raises(ConfigError, match="invalid YAML: month must be in 1..12"):
            load_config(path)

    def test_missing_regions_section(self, scenario_dir):
        tmp_path, _ = scenario_dir
        path = dump_config(tmp_path, {"window": {"start": "2020-10-01", "days": 10}})
        with pytest.raises(ConfigError, match="missing required key") as err:
            load_config(path)
        assert err.value.key == "grid.regions"

    def test_unreadable_config(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config(tmp_path / "gone.yaml")


class TestLoadScenario:
    def build(self, tmp_path, **over):
        grid, masks = small_geometry()
        mask_paths = write_geometry(tmp_path, grid, masks)
        truth = ParameterVector(
            RateSchedule((0.3, 0.15, 0.2), (3.0, 7.0), 10.0),
            0.1, 0.5, {"A": 20.0, "B": 10.0},
        )
        population = np.zeros(grid.shape)
        for name, pop in (("A", 1000.0), ("B", 800.0)):
            frac = masks[name].cells / (masks[name].cell_count * grid.cell_area)
            population += pop * frac
        paths = generate_synthetic(
            truth, grid, masks, population, ModelKind.SEIR, 10.0, 0.25,
            0.0, 11, tmp_path,
        )
        raw = scenario_raw(mask_paths, cases="cases.csv", **over)
        return dump_config(tmp_path, raw), truth

    def test_problem_assembles(self, tmp_path):
        config_path, _ = self.build(tmp_path)
        problem = load_scenario(load_config(config_path))
        assert sorted(problem.masks) == ["A", "B"]
        assert problem.t_end == 10.0
        assert problem.data is not None
        total = region_total(problem.population, problem.district, problem.grid)
        assert_allclose(total, 1800.0, rtol=1e-12)
        # no district file configured: the district is the union of the regions
        union = union_mask(problem.masks.values())
        np.testing.assert_array_equal(problem.district.cells, union.cells)

    def test_refusal_of_the_problem_keeps_its_key(self, tmp_path):
        """A ConfigError keyed by Problem reaches the caller with its key, printed once."""
        config_path, _ = self.build(tmp_path, solver={"backend": "fem-split", "tau": 0.25,
                                                      "corrected": True})
        with pytest.raises(ConfigError) as err:
            load_scenario(load_config(config_path))
        assert err.value.key == "solver.corrected"
        assert str(err.value).count("[solver.corrected]") == 1

    def test_district_mask_file_used(self, tmp_path):
        config_path, _ = self.build(tmp_path)
        config = load_config(config_path)
        grid, masks = small_geometry()
        district = union_mask(masks.values())
        write_mask(tmp_path / "district.mask", grid, district)
        raw = yaml.safe_load(config_path.read_text())
        raw["grid"]["district_mask"] = "district.mask"
        problem = load_scenario(load_config(dump_config(tmp_path, raw)))
        np.testing.assert_array_equal(problem.district.cells, district.cells)

    def test_region_outside_district_rejected(self, tmp_path):
        config_path, _ = self.build(tmp_path)
        grid, masks = small_geometry()
        write_mask(tmp_path / "district.mask", grid, masks["A"])
        raw = yaml.safe_load(config_path.read_text())
        raw["grid"]["district_mask"] = "district.mask"
        with pytest.raises(ConfigError, match="not contained"):
            load_scenario(load_config(dump_config(tmp_path, raw)))

    def test_seeds_default_to_first_day_cases(self, tmp_path):
        config_path, _ = self.build(tmp_path)
        raw = yaml.safe_load(config_path.read_text())
        del raw["initial"]["infected"]
        problem = load_scenario(load_config(dump_config(tmp_path, raw)))
        series = read_cases(tmp_path / "cases.csv", START, 10, ["A", "B"])
        for name in ("A", "B"):
            assert problem.initial.init_infected[name] == float(series[name].new_cases[0])

    def test_null_seeds_default_to_first_day_cases(self, tmp_path):
        config_path, _ = self.build(tmp_path)
        raw = yaml.safe_load(config_path.read_text())
        raw["initial"]["infected"] = None
        problem = load_scenario(load_config(dump_config(tmp_path, raw)))
        series = read_cases(tmp_path / "cases.csv", START, 10, ["A", "B"])
        assert problem.initial.init_infected == {
            name: float(series[name].new_cases[0]) for name in ("A", "B")}

    def test_seeds_required_without_data(self, tmp_path):
        config_path, _ = self.build(tmp_path)
        raw = yaml.safe_load(config_path.read_text())
        del raw["initial"]["infected"]
        del raw["data"]
        with pytest.raises(ConfigError, match="initial.infected is required"):
            load_scenario(load_config(dump_config(tmp_path, raw)))

    def test_incompatible_mask_grids_rejected(self, tmp_path):
        config_path, _ = self.build(tmp_path)
        other = GridSpec(7, 7, 4.0, 4.0)
        cells = np.zeros((7, 7), dtype=bool)
        cells[1:3, 1:3] = True
        write_mask(tmp_path / "B.mask", other, RegionMask("B", cells))
        with pytest.raises(ConfigError, match="mask grids disagree"):
            load_scenario(load_config(config_path))

    def test_chi_regularization_gets_reference(self, tmp_path):
        config_path, _ = self.build(tmp_path, weights={"w0": 1.0, "w1": 1e-5, "w2": 0.0})
        problem = load_scenario(load_config(config_path))
        assert problem.weights.chi_ref is not None
        assert_allclose(problem.weights.chi_ref, problem.initial.chi, rtol=0)

    def test_two_region_fixture_roundtrips_bit_identically(self, tmp_path):
        config_path, _ = self.build(tmp_path)
        config = load_config(config_path)
        problem = load_scenario(config)

        redo = tmp_path / "redo"
        redo.mkdir()
        for name in ("A", "B"):
            write_mask(redo / f"{name}.mask", problem.grid, problem.masks[name])
            assert (redo / f"{name}.mask").read_bytes() == (tmp_path / f"{name}.mask").read_bytes()

        series = read_cases(config.cases, config.start, config.n_days, ["A", "B"])
        write_cases(redo / "cases.csv", series, config.start)
        assert (redo / "cases.csv").read_bytes() == (tmp_path / "cases.csv").read_bytes()

        # the config itself survives a parse/dump cycle unchanged
        raw = yaml.safe_load(config_path.read_text())
        assert yaml.safe_load(yaml.safe_dump(raw, sort_keys=True)) == raw


class TestGenerateSynthetic:
    def setup_geometry(self):
        grid, masks = small_geometry()
        population = np.zeros(grid.shape)
        for name, pop in (("A", 1000.0), ("B", 800.0)):
            frac = masks[name].cells / (masks[name].cell_count * grid.cell_area)
            population += pop * frac
        truth = ParameterVector(
            RateSchedule((0.3, 0.15, 0.2), (3.0, 7.0), 10.0),
            0.1, 0.5, {"A": 20.0, "B": 10.0},
        )
        return grid, masks, population, truth

    def test_fixed_seed_reproduces_files(self, tmp_path):
        grid, masks, population, truth = self.setup_geometry()
        args = (truth, grid, masks, population, ModelKind.SEIR, 10.0, 0.25, 0.1, 7)
        p1 = generate_synthetic(*args, tmp_path / "one")
        p2 = generate_synthetic(*args, tmp_path / "two")
        for key in ("cases", "truth"):
            with open(p1[key], "rb") as f1, open(p2[key], "rb") as f2:
                assert f1.read() == f2.read()

    def test_truth_sidecar_hash_matches(self, tmp_path):
        grid, masks, population, truth = self.setup_geometry()
        paths = generate_synthetic(
            truth, grid, masks, population, ModelKind.SEIR, 10.0, 0.25, 0.1, 7, tmp_path
        )
        record = yaml.safe_load(Path(paths["truth"]).read_text())
        assert record["cases_sha256"] == sha256_of(paths["cases"])
        assert record["betas"] == [0.3, 0.15, 0.2]
        assert record["init_infected"] == {"A": 20.0, "B": 10.0}

    def test_numpy_scalar_truth_roundtrips(self, tmp_path):
        """kappa, delta, gamma and theta given as numpy floats are written as plain floats."""
        grid, masks, population, _ = self.setup_geometry()
        schedule = RateSchedule((0.3, 0.15, 0.2), (3.0, 7.0), 10.0,
                                gamma=np.float64(0.125), theta=np.float64(0.25))
        truth = ParameterVector(schedule, np.float64(0.1), np.float64(0.5), {"A": 20.0, "B": 10.0})
        paths = generate_synthetic(
            truth, grid, masks, population, ModelKind.SEIR, 10.0, 0.25, 0.1, 7, tmp_path
        )
        record = yaml.safe_load(Path(paths["truth"]).read_text())
        assert (record["gamma"], record["theta"], record["kappa"], record["delta"]) == (
            0.125, 0.25, 0.1, 0.5)

    def test_cumulative_curve_non_decreasing(self, tmp_path):
        grid, masks, population, truth = self.setup_geometry()
        paths = generate_synthetic(
            truth, grid, masks, population, ModelKind.SEIR, 10.0, 0.25, 0.4, 5, tmp_path
        )
        series = read_cases(paths["cases"], START, 10, ["A", "B"])
        for s in series.values():
            assert np.all(np.diff(s.cumulative) >= 0.0)
            assert np.all(s.new_cases >= 0.0)

    def test_negative_noise_rejected(self, tmp_path):
        grid, masks, population, truth = self.setup_geometry()
        with pytest.raises(ParameterError, match="noise level"):
            generate_synthetic(
                truth, grid, masks, population, ModelKind.SEIR, 10.0, 0.25, -0.1, 7, tmp_path
            )

    def test_zero_noise_objective_is_regularization_only(self, tmp_path):
        chi_truth = np.array([0.2, 0.1, 0.1, 0.0, 0.5])
        chi_ref = chi_truth + 0.01
        weights = ObjectiveWeights(1.0, 1e-3, 0.0, chi_ref=chi_ref)
        problem, truth, _ = make_twin(tmp_path, kappa=0.0, weights=weights)
        expected = 0.5 * 1e-3 * np.sum((chi_truth - chi_ref) ** 2)
        assert_allclose(problem.objective(truth), expected, rtol=1e-9)


def reference_export_days(path, config, days, columns):
    """export_days as it was written before: one "%.12g" per value, then csv.writer per row."""
    values = [np.asarray(col).tolist() for col in columns.values()]
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["day", "date", *columns])
        for pos, day in enumerate(days):
            writer.writerow([int(day), config.date_of(day)] + ["%.12g" % col[pos] for col in values])


class TestExports:
    def test_export_days_matches_the_csv_writer_loop(self, tmp_path):
        grid, masks = small_geometry()
        config = load_config(dump_config(tmp_path, scenario_raw(write_geometry(tmp_path, grid, masks))))
        values = np.array([0.0, -0.0, 5e-324, 1e300, np.nan])
        columns = {'detected_a,"b"': values, "infected_A": values[::-1]}
        days = np.arange(len(values))
        cli_io.export_days(tmp_path / "rows.csv", config, days, columns)
        reference_export_days(tmp_path / "loop.csv", config, days, columns)
        written = (tmp_path / "rows.csv").read_bytes()
        assert written == (tmp_path / "loop.csv").read_bytes()
        assert written.startswith(b'day,date,"detected_a,""b""",infected_A\r\n')

    @pytest.mark.parametrize("name", ["kappa", "I0_a,b", 'I0_say "hi"', "I0_x\ny", "I0_cr\r"])
    def test_csv_field_quotes_as_csv_writer(self, name):
        """Table rows quote a name, such as gradient-check's I0_<region>, as csv.writer does."""
        line = io.StringIO()
        csv.writer(line).writerow([name, ""])
        assert cli_io._csv_field(name) + ",\r\n" == line.getvalue()


class TestCommandLine:
    @pytest.fixture()
    def scenario(self, tmp_path):
        """Mask files, synthetic twin cases, and a ready-to-run config."""
        grid, masks = small_geometry()
        mask_paths = write_geometry(tmp_path, grid, masks)
        population = np.zeros(grid.shape)
        for name, pop in (("A", 1000.0), ("B", 800.0)):
            frac = masks[name].cells / (masks[name].cell_count * grid.cell_area)
            population += pop * frac
        truth = ParameterVector(
            RateSchedule((0.3, 0.15, 0.2), (3.0, 7.0), 10.0),
            0.1, 0.5, {"A": 20.0, "B": 10.0},
        )
        generate_synthetic(
            truth, grid, masks, population, ModelKind.SEIR, 10.0, 0.25, 0.02, 7, tmp_path
        )
        raw = scenario_raw(mask_paths, cases="cases.csv")
        config_path = dump_config(tmp_path, raw)
        return {"dir": tmp_path, "config": config_path, "raw": raw,
                "mask_paths": mask_paths}

    def read_table(self, path):
        lines = path.read_text().strip().splitlines()
        header = lines[0].split(",")
        rows = [ln.split(",") for ln in lines[1:]]
        return header, rows

    def test_simulate_writes_tables_and_summary(self, scenario, capsys):
        out = scenario["dir"] / "sim"
        rc = main(["simulate", "--config", str(scenario["config"]), "--out", str(out)])
        assert rc == 0
        assert "simulate: ok" in capsys.readouterr().out
        summary = json.loads((out / "summary.json").read_text())
        assert summary["command"] == "simulate"
        assert summary["outputs"] == ["mass.csv", "region_series.csv"]
        assert summary["config_hash"] == load_config(scenario["config"]).config_hash
        assert summary["metrics"]["days"] == 10
        assert abs(summary["metrics"]["population_drift"]) < 1e-9

        header, rows = self.read_table(out / "region_series.csv")
        assert header == ["day", "date", "detected_A", "detected_B",
                          "infected_A", "infected_B"]
        assert len(rows) == 11
        for row in rows:
            day = int(row[0])
            assert row[1] == (START + dt.timedelta(days=day)).isoformat()

    def test_final_infected_total_is_the_last_row_in_persons(self, scenario):
        """The summary's final infected total equals the sum of the last row's
        infected_* columns, each a region's infected persons."""
        out = scenario["dir"] / "sim"
        assert main(["simulate", "--config", str(scenario["config"]), "--out", str(out)]) == 0
        metric = json.loads((out / "summary.json").read_text())["metrics"]["final_infected_total"]
        problem = load_scenario(load_config(scenario["config"]))
        traj = problem.simulate(problem.initial)
        final = traj.states[-1, problem.model.infected_index]
        row_sum = sum(
            region_total(final, mask, problem.grid)
            * region_total(problem.population, mask, problem.grid) / mask.area(problem.grid)
            for mask in problem.masks.values()
        )
        assert metric == pytest.approx(row_sum, rel=1e-12)
        _, rows = self.read_table(out / "region_series.csv")
        assert metric == pytest.approx(sum(float(v) for v in rows[-1][4:]), rel=1e-11)

    def test_simulate_rerun_is_bit_identical(self, scenario):
        out1 = scenario["dir"] / "s1"
        out2 = scenario["dir"] / "s2"
        assert main(["simulate", "--config", str(scenario["config"]), "--out", str(out1)]) == 0
        assert main(["simulate", "--config", str(scenario["config"]), "--out", str(out2)]) == 0
        for name in ("summary.json", "region_series.csv", "mass.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_simulate_without_diffusion_matches_ode_oracle(self, scenario):
        """With kappa=0 and uniform regional density the PDE reduces to one
        well-mixed SEI system per region; a fine RK4 run of that system is an
        independent reference for the exported infected counts."""
        raw = dict(scenario["raw"])
        raw["initial"] = dict(raw["initial"], kappa=0.0)
        raw["solver"] = {"backend": "cn", "tau": 0.1, "corrected": True}
        config_path = dump_config(scenario["dir"], raw, "flat.yaml")
        out = scenario["dir"] / "flat"
        assert main(["simulate", "--config", str(config_path), "--out", str(out)]) == 0

        pops = {"A": 1000.0, "B": 800.0}
        seeds = raw["initial"]["infected"]
        i0 = np.array([seeds[n] / pops[n] for n in ("A", "B")])
        state = np.array([1.0 - 1.5 * i0, 0.5 * i0, i0])  # (S, E, I) per region
        gamma, theta = 0.1, 1.0 / 3.0

        def rhs(u, beta):
            s, e, i = u
            return np.array([-beta * s * i, beta * s * i - theta * e, theta * e - gamma * i])

        def rk4_until(state, t0, t1, beta, dt=1e-3):
            n = int(round((t1 - t0) / dt))
            for _ in range(n):
                k1 = rhs(state, beta)
                k2 = rhs(state + 0.5 * dt * k1, beta)
                k3 = rhs(state + 0.5 * dt * k2, beta)
                k4 = rhs(state + dt * k3, beta)
                state = state + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
            return state

        marks = [state.copy()]
        plateaus = [(0.0, 3.0, 0.3), (3.0, 7.0, 0.15), (7.0, 10.0, 0.2)]
        for t0, t1, beta in plateaus:
            for day in range(int(t0), int(t1)):
                state = rk4_until(state, day, day + 1, beta)
                marks.append(state.copy())
        reference = np.array([m[2] for m in marks])  # infected fraction per day

        _, rows = self.read_table(out / "region_series.csv")
        infected = np.array([[float(r[4]), float(r[5])] for r in rows])
        expected = reference * np.array([pops["A"], pops["B"]])
        assert np.max(np.abs(infected - expected)) < 2e-3

    def test_fit_metropolis_writes_report(self, scenario):
        raw = dict(scenario["raw"])
        raw["estimator"] = {
            "kind": "metropolis",
            "metropolis": {"draws": 40, "burn_in": 0.25},
        }
        config_path = dump_config(scenario["dir"], raw, "fit.yaml")
        out = scenario["dir"] / "fit"
        rc = main(["fit", "--config", str(config_path), "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "fit_report.json").read_text())
        assert report["estimator"] == "metropolis"
        assert 0.0 <= report["acceptance_rate"] <= 1.0
        assert set(report["params"]) == {"beta0", "beta1", "beta2", "kappa",
                                         "delta", "init_infected"}
        config = load_config(config_path)
        assert report["provenance"]["config_hash"] == config.config_hash
        assert report["provenance"]["data_sha256"] == sha256_of(config.cases)
        assert report["provenance"]["grid"]["nx"] == 9

        header, rows = self.read_table(out / "fit_history.csv")
        assert header[:2] == ["iteration", "J"]
        assert len(rows) == report["iterations"]

    def test_fit_zero_draws_is_config_error(self, scenario, capsys):
        rc = main([
            "fit", "--config", str(scenario["config"]),
            "--estimator", "metropolis", "--draws", "0",
            "--out", str(scenario["dir"] / "zero"),
        ])
        assert rc == 2
        assert "draws" in capsys.readouterr().err

    def test_fit_adjoint_override(self, scenario):
        raw = dict(scenario["raw"])
        raw["estimator"] = {"kind": "metropolis", "adjoint": {"max_outer": 3}}
        config_path = dump_config(scenario["dir"], raw, "adj.yaml")
        out = scenario["dir"] / "adj"
        rc = main(["fit", "--config", str(config_path), "--estimator", "adjoint",
                   "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "fit_report.json").read_text())
        assert report["estimator"] == "adjoint"
        assert report["iterations"] <= 4
        js = [float(r[1]) for r in self.read_table(out / "fit_history.csv")[1]]
        assert all(b <= a * (1 + 1e-12) for a, b in zip(js, js[1:]))

    def test_gradient_check_command(self, scenario):
        out = scenario["dir"] / "grad"
        rc = main(["gradient-check", "--config", str(scenario["config"]),
                   "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["metrics"]["max_rel_error"] < 1e-3
        header, rows = self.read_table(out / "gradient_check.csv")
        assert header == ["component", "adjoint", "finite_difference", "rel_error",
                          "scaled_error"]
        assert [r[0] for r in rows] == ["beta0", "beta1", "beta2", "kappa", "delta"]
        scaled = [float(r[4]) for r in rows]
        assert summary["metrics"]["max_scaled_error"] == pytest.approx(max(scaled), rel=1e-11)
        assert all(s <= float(r[3]) for s, r in zip(scaled, rows))

    def test_retired_adjoint_setting_exits_config_code(self, scenario, capsys):
        raw = dict(scenario["raw"])
        raw["estimator"] = {"kind": "adjoint", "adjoint": {"max_outer": 2, "armijo_c": 0.5}}
        config_path = dump_config(scenario["dir"], raw, "retired.yaml")
        rc = main(["fit", "--config", str(config_path), "--out", str(scenario["dir"] / "retired")])
        assert rc == 2
        assert "estimator.adjoint" in capsys.readouterr().err

    def test_type_error_inside_fit_is_not_a_config_error(self, scenario, monkeypatch):
        """Only building the estimator's config maps TypeError to exit 2."""
        def broken_fit(problem, config):
            raise TypeError("defect inside the fit")

        monkeypatch.setattr(cli_io, "metropolis_fit", broken_fit)
        raw = dict(scenario["raw"])
        raw["estimator"] = {"kind": "metropolis", "metropolis": {"draws": 4}}
        config_path = dump_config(scenario["dir"], raw, "broken.yaml")
        with pytest.raises(TypeError, match="defect inside the fit"):
            main(["fit", "--config", str(config_path), "--out", str(scenario["dir"] / "broken")])

    def test_corrected_adjoint_exits_config_code(self, scenario, capsys):
        raw = dict(scenario["raw"])
        raw["solver"] = {"backend": "cn", "tau": 0.25, "corrected": True}
        raw["estimator"] = {"kind": "adjoint", "adjoint": {"max_outer": 2}}
        config_path = dump_config(scenario["dir"], raw, "corrected.yaml")
        for command in (["fit"], ["gradient-check"]):
            rc = main(command + ["--config", str(config_path),
                                 "--out", str(scenario["dir"] / command[0])])
            assert rc == 2
            assert "corrected" in capsys.readouterr().err

    @pytest.mark.parametrize("backend_in_config", [True, False])
    def test_corrected_off_cn_exits_config_code(self, scenario, capsys, backend_in_config):
        """fem-split has no corrected step: from the config or from --backend, it exits 2."""
        raw = dict(scenario["raw"])
        backend = "fem-split" if backend_in_config else "cn"
        raw["solver"] = {"backend": backend, "tau": 0.25, "corrected": True}
        config_path = dump_config(scenario["dir"], raw, "corrected_fem.yaml")
        override = [] if backend_in_config else ["--backend", "fem-split"]
        rc = main(["simulate", "--config", str(config_path), *override,
                   "--out", str(scenario["dir"] / "corrected_fem")])
        assert rc == 2
        assert "[solver.corrected]" in capsys.readouterr().err

    @pytest.mark.parametrize("command, section, value, key", [
        ("fit", "solver", {"backend": "cn", "tau": 0.25, "corrected": True}, "solver.corrected"),
        ("gradient-check", "solver", {"backend": "cn", "tau": 0.25, "corrected": True},
         "solver.corrected"),
        ("fit", "solver", {"backend": "fem-split", "tau": 0.25}, "solver.backend"),
        ("gradient-check", "solver", {"backend": "fem-split", "tau": 0.25}, "solver.backend"),
        ("fit", "estimator", {"kind": "adjoint", "adjoint": {"optimize_initial": True}},
         "weights.w2"),
    ])
    def test_refusal_inside_a_command_names_the_file_once_and_its_own_key(
            self, scenario, capsys, command, section, value, key):
        """A refusal raised after the config loaded starts with the config path, once, and
        keys the value at fault, not the estimator block that ran into it."""
        raw = copy.deepcopy(scenario["raw"])
        raw["estimator"] = {"kind": "adjoint", "adjoint": {"max_outer": 2}}
        raw[section] = value
        config_path = dump_config(scenario["dir"], raw, "refused.yaml")
        rc = main([command, "--config", str(config_path), "--out", str(scenario["dir"] / "refused")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error (config/data): {config_path}: [{key}] "), err
        assert err.count(str(config_path)) == 1 and "[estimator." not in err, err

    @pytest.mark.parametrize("days", [2, 3, 4])
    def test_convergence_study_command(self, scenario, days):
        """Any window of at least 2 days gets a horizon that every study step divides."""
        raw = dict(scenario["raw"])
        raw["window"] = {"start": "2020-10-01", "days": days, "breakpoints": [0.5, 1.5]}
        config_path = dump_config(scenario["dir"], raw, f"conv_{days}.yaml")
        out = scenario["dir"] / "conv"
        rc = main(["convergence-study", "--config", str(config_path),
                   "--kind", "diffusion", "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        orders = summary["metrics"]["diffusion_orders"]
        assert len(orders) == 2
        assert min(orders) > 1.5
        _, rows = self.read_table(out / "convergence.csv")
        errors = [float(r[2]) for r in rows]
        assert errors == sorted(errors, reverse=True)

    def test_convergence_study_honours_corrected(self, scenario):
        """The corrected step's orders reach the summary, not the plain step's."""
        orders = {}
        for corrected in (False, True):
            raw = dict(scenario["raw"])
            raw["solver"] = {"backend": "cn", "tau": 0.25, "corrected": corrected}
            config_path = dump_config(scenario["dir"], raw, f"conv_{corrected}.yaml")
            out = scenario["dir"] / f"conv_{corrected}"
            rc = main(["convergence-study", "--config", str(config_path),
                       "--kind", "coupled", "--out", str(out)])
            assert rc == 0
            summary = json.loads((out / "summary.json").read_text())
            orders[corrected] = summary["metrics"]["coupled_orders"]
        assert max(orders[False]) < 1.5
        assert min(orders[True]) > 1.8

    def test_convergence_study_refuses_fem_split(self, scenario, capsys):
        out = scenario["dir"] / "conv_fem"
        rc = main(["convergence-study", "--config", str(scenario["config"]),
                   "--backend", "fem-split", "--out", str(out)])
        assert rc == 2
        assert "solver.backend" in capsys.readouterr().err
        assert not (out / "summary.json").exists()

    def test_export_plots_tables(self, scenario):
        out = scenario["dir"] / "plots"
        rc = main(["export-plots", "--config", str(scenario["config"]),
                   "--out", str(out)])
        assert rc == 0
        dh, drows = self.read_table(out / "daily_cases.csv")
        ch, crows = self.read_table(out / "cumulative_cases.csv")
        assert dh == ["day", "date", "A", "B"] and ch == dh
        daily = np.array([[float(r[2]), float(r[3])] for r in drows])
        cum = np.array([[float(r[2]), float(r[3])] for r in crows])
        assert_allclose(cum, np.cumsum(daily, axis=0), rtol=1e-9, atol=1e-12)
        assert np.all(np.diff(cum, axis=0) >= -1e-12)

    def test_seed_and_backend_overrides_reach_summary(self, scenario):
        out = scenario["dir"] / "over"
        rc = main(["simulate", "--config", str(scenario["config"]),
                   "--seed", "99", "--backend", "fem-split", "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["seed"] == 99
        assert summary["backend"] == "fem-split"

    @pytest.mark.parametrize("key, value", [
        ("solver.tau", "fast"),
        ("window.days", "many"),
        ("grid.regions.A.population", "lots"),
        ("seed", "x"),
        ("solver.corrected", "false"),
        ("initial.betas", [0.3, "a", 0.2]),
        ("initial.infected.B", "n"),
        ("initial.betas", [float("nan"), 0.1, 0.1]),
        ("rates.gamma", float("nan")),
        ("grid.regions.A.population", float("nan")),
        ("solver.tau", float("nan")),
        ("solver.tau", float("inf")),
        ("solver.tau", True),
        ("window.days", 10.5),
        ("seed", 3.9),
        ("initial.infected", 5),
        ("initial.infected", ["A", "B"]),
        ("initial.infected", {3: 10}),
        ("initial.infected", "abc"),
    ])
    def test_wrong_type_exits_config_code(self, scenario, capsys, key, value):
        """A value of the wrong type exits 2 and names its key; 'false' is a string.

        A non-finite or boolean number and a fractional count are wrong types too:
        none of them may be silently changed into something that runs.
        """
        raw = copy.deepcopy(scenario["raw"])
        *parents, last = key.split(".")
        section = raw
        for part in parents:
            section = section.setdefault(part, {})
        section[last] = value
        config_path = dump_config(scenario["dir"], raw, "typed.yaml")
        rc = main(["simulate", "--config", str(config_path),
                   "--out", str(scenario["dir"] / "typed")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error (config/data)" in err and f"[{key}]" in err

    @pytest.mark.parametrize("kind, field, value", [
        ("adjoint", "optimize_initial", "false"),
        ("adjoint", "per_cell_initial", "true"),
        ("adjoint", "max_outer", True),
        ("adjoint", "max_outer", 2.5),
        ("metropolis", "draws", 2.5),
        ("metropolis", "draws", True),
        ("metropolis", "burn_in", False),
        ("metropolis", "sigma", True),
        ("metropolis", "sigma", float("nan")),
        ("metropolis", "sigma", float("inf")),
        ("metropolis", "step_scale", "fast"),
        ("metropolis", "step_scale", [1, 2]),
        ("metropolis", "step_scale", True),
        ("metropolis", "step_scale", float("nan")),
    ])
    def test_wrong_typed_estimator_option_exits_config_code(self, scenario, capsys, kind,
                                                            field, value):
        """An estimator block is typed by its own dataclass; the rest of the config is valid."""
        raw = copy.deepcopy(scenario["raw"])
        raw["weights"]["w2"] = 1e-5
        block = {"optimize_initial": True} if kind == "adjoint" else {}
        raw["estimator"] = {"kind": kind, kind: {**block, field: value}}
        config_path = dump_config(scenario["dir"], raw, "typed_fit.yaml")
        out = scenario["dir"] / "typed_fit"
        rc = main(["fit", "--config", str(config_path), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"[estimator.{kind}]" in err and f"[{field}]" in err
        assert not (out / "summary.json").exists()

    def test_missing_config_exits_config_code(self, scenario, capsys):
        rc = main(["simulate", "--config", str(scenario["dir"] / "gone.yaml")])
        assert rc == 2
        assert "error (config/data)" in capsys.readouterr().err

    def test_unstable_run_exits_numerical_code(self, scenario, capsys):
        raw = dict(scenario["raw"])
        raw["model"] = "sis"
        raw["rates"] = {"gamma": 5.0}
        raw["solver"] = {"backend": "cn", "tau": 1.0}
        raw["initial"] = {"betas": [0.3, 0.15, 0.2], "kappa": 0.0, "delta": 0.5,
                          "infected": {"A": 500.0, "B": 400.0}}
        del raw["data"]
        config_path = dump_config(scenario["dir"], raw, "hot.yaml")
        rc = main(["simulate", "--config", str(config_path),
                   "--out", str(scenario["dir"] / "hot")])
        assert rc == 3
        assert "error (numerical)" in capsys.readouterr().err

    def test_tau_that_does_not_divide_a_day_exits_config_code(self, scenario, capsys):
        raw = dict(scenario["raw"])
        raw["solver"] = {"backend": "cn", "tau": 0.3}
        config_path = dump_config(scenario["dir"], raw, "tau.yaml")
        rc = main(["simulate", "--config", str(config_path), "--out", str(scenario["dir"] / "tau")])
        assert rc == 2
        assert "must divide one day" in capsys.readouterr().err

    def test_python_m_epidiffuse_runs_the_cli(self, tmp_path):
        """``python -m epidiffuse`` runs a command without runpy's double-import warning."""
        src = str(Path(cli_io.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "epidiffuse", "export-plots",
             "--config", str(demo_scenario_path()), "--out", str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        assert "export-plots: ok" in proc.stdout
        assert (tmp_path / "daily_cases.csv").is_file()

    def test_unwritable_output_exits_io_code(self, scenario, capsys):
        rc = main(["simulate", "--config", str(scenario["config"]),
                   "--out", "/dev/null/impossible"])
        assert rc == 4
        assert "error (io)" in capsys.readouterr().err


class TestBundledScenario:
    def test_demo_geometry_regions_are_disjoint(self):
        grid, masks, pops = demo_geometry()
        assert (grid.nx, grid.ny) == (101, 101)
        assert (grid.Lx, grid.Ly) == (39.23, 56.05)
        names = sorted(masks)
        assert names == ["BA", "BI", "HR", "IO"]
        for i, a in enumerate(names):
            assert masks[a].cell_count > 0
            for b in names[i + 1:]:
                assert not np.any(masks[a].cells & masks[b].cells)
        population = demo_population(grid, masks, pops)
        district = union_mask(masks.values())
        assert_allclose(region_total(population, district, grid), 81000.0, rtol=1e-12)

    def test_bundled_scenario_loads_with_district_population(self):
        config = load_config(demo_scenario_path())
        problem = load_scenario(config)
        assert (problem.grid.nx, problem.grid.ny) == (101, 101)
        assert (problem.grid.Lx, problem.grid.Ly) == (39.23, 56.05)
        total = region_total(problem.population, problem.district, problem.grid)
        assert abs(total - 81000.0) / 81000.0 < 1e-9
        assert sorted(problem.masks) == ["BA", "BI", "HR", "IO"]
        assert problem.data is not None
        assert problem.t_end == 148.0

    def test_fixture_script_rebuilds_the_bundle(self, tmp_path):
        """Masks and scenario byte for byte; case counts to rounding, since the
        bundle predates the eigenbasis solve (its counts differ in the 12th digit)."""
        script = Path(__file__).resolve().parents[1] / "scripts" / "build_demo_fixture.py"
        spec = importlib.util.spec_from_file_location("build_demo_fixture", script)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        module.main(tmp_path)
        base = demo_scenario_path().parent
        for name in ("BA.mask", "BI.mask", "HR.mask", "IO.mask", "district.mask", "scenario.yaml"):
            assert (tmp_path / name).read_bytes() == (base / name).read_bytes(), name
        regions = sorted(DEMO_POPULATIONS)
        built = read_cases(tmp_path / "synthetic_cases.csv", START, 148, regions)
        bundled = read_cases(base / "synthetic_cases.csv", START, 148, regions)
        for name in regions:
            assert_allclose(built[name].new_cases, bundled[name].new_cases, rtol=1e-10, atol=0.0)
        truth = yaml.safe_load((tmp_path / "truth.yaml").read_text())
        record = yaml.safe_load((base / "truth.yaml").read_text())
        del truth["cases_sha256"], record["cases_sha256"]
        assert truth == record

    def test_bundled_case_file_matches_sidecar_hash(self):
        base = demo_scenario_path().parent
        record = yaml.safe_load((base / "truth.yaml").read_text())
        assert record["cases_sha256"] == sha256_of(base / "synthetic_cases.csv")
        assert record["noise"] == 0.05
        assert DEMO_POPULATIONS == {"BA": 14500.0, "BI": 19000.0,
                                    "HR": 19500.0, "IO": 28000.0}

