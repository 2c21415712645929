"""The buffer mask reader and the case reader against the readers they replace.

``read_mask`` checks a body in ``write_mask``'s layout as one buffer and
``read_cases`` parses each distinct date once; ``tests/oracles.py`` keeps the
readers that checked one token and one row at a time.  Every file must give
the same grid, cells and series as the oracle, or the same error message.
Run configs must parse to the same ``raw`` under libyaml and pure-Python
PyYAML.
"""

import datetime as dt
import inspect
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from epidiffuse import cli_io
from epidiffuse.cli_io import demo_scenario_path, load_config, main, read_cases, read_mask, write_mask
from epidiffuse.errors import CaseDataError, ConfigError, MaskFormatError, ParameterError
from epidiffuse.grid import GridSpec, RegionMask
from oracles import read_cases_by_rows, read_mask_by_rows

START = dt.date(2020, 10, 1)

needs_libyaml = pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")


def outcome(reader, *args):
    """What a reader gives: its result, or the message of the error it raises."""
    try:
        return reader(*args)
    except (MaskFormatError, CaseDataError) as exc:
        return type(exc).__name__ + ": " + str(exc)


# ---------------------------------------------------------------------------
# Mask files
# ---------------------------------------------------------------------------

#: (separator between flags, text before a row, text after it, line ending)
LAYOUTS = {
    "single spaces": (" ", "", "", "\n"),
    "tabs": ("\t", "", "", "\n"),
    "runs of spaces": ("   ", "", "", "\n"),
    "trailing spaces": (" ", "", "  ", "\n"),
    "leading space": (" ", " ", "", "\n"),
    "crlf": (" ", "", "", "\r\n"),
}

CORRUPTIONS = ("short row", "long row", "token 2", "token 10", "missing row")


def corrupt(tokens: list[list[str]], kind: str, row: int, col: int) -> None:
    if kind == "short row":
        del tokens[row][col]
    elif kind == "long row":
        tokens[row].insert(col, "0")
    elif kind == "token 2":
        tokens[row][col] = "2"
    elif kind == "token 10":
        tokens[row][col] = "10"
    elif kind == "missing row":
        del tokens[row]


def render_mask(path: Path, header: str, tokens, layout: str) -> None:
    sep, lead, trail, newline = LAYOUTS[layout]
    lines = [header] + [lead + sep.join(row) + trail for row in tokens]
    path.write_bytes((newline.join(lines) + newline).encode())


def same_mask(a, b) -> bool:
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return a[0] == b[0] and a[1].name == b[1].name and np.array_equal(a[1].cells, b[1].cells)


def lines_run(fn, *args) -> set[int]:
    """Line numbers of ``fn``'s own code that a call executes."""
    code, seen = fn.__code__, set()

    def tracer(frame, event, arg):
        if frame.f_code is code:
            if event == "line":
                seen.add(frame.f_lineno)
            return tracer
        return None

    sys.settrace(tracer)
    try:
        fn(*args)
    finally:
        sys.settrace(None)
    return seen


class TestMaskReader:
    @settings(max_examples=150, deadline=None)
    @given(
        nx=st.integers(2, 12), ny=st.integers(2, 12),
        share=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1),
        layout=st.sampled_from(sorted(LAYOUTS)),
        corruption=st.sampled_from((None,) + CORRUPTIONS),
    )
    def test_matches_the_per_row_reader(self, nx, ny, share, seed, layout, corruption):
        rng = np.random.default_rng(seed)
        cells = rng.uniform(size=(ny, nx)) < share
        tokens = [["1" if v else "0" for v in row] for row in cells]
        if corruption is not None:
            corrupt(tokens, corruption, int(rng.integers(ny)), int(rng.integers(nx)))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "R.mask"
            render_mask(path, f"{nx} {ny} 3.5 2.25", tokens, layout)
            got, expected = outcome(read_mask, path), outcome(read_mask_by_rows, path)
        assert same_mask(got, expected), (got, expected)
        assert isinstance(got, str) == (corruption is not None)
        if corruption is None:
            np.testing.assert_array_equal(got[1].cells, cells)

    @pytest.mark.parametrize("body, message", [
        ("0 1 0\n1 1\n0 0 0\n", "row 1 has 2 entries, expected 3"),
        ("0 1 0\n1 1 0 1\n0 0 0\n", "row 1 has 4 entries, expected 3"),
        ("0 1 0\n1 2 0\n0 0 0\n", "row 1 contains '2'; only 0/1 allowed"),
        ("0 1 0\n1 10 0\n0 0 0\n", "row 1 contains '10'; only 0/1 allowed"),
        ("0 1 0\n0 0 0\n", "expected 3 mask rows, found 2"),
        ("0 1 0\n1 1 0\n0 0 0\n\n\n", None),
        ("0 1 0\n1 1 0\n0 0 0", None),
        ("0 1 0\n1 1 0\n0 0 0\n0 0 0\n", "expected 3 mask rows, found 4"),
        ("0 1 0\n1 1 x\n0 0 0\n", "row 1 contains 'x'; only 0/1 allowed"),
        ("0 1 0\n1 1 0\x0b0 0 0\n", None),
    ])
    def test_corrupt_bodies_raise_the_per_row_message(self, tmp_path, body, message):
        path = tmp_path / "x.mask"
        path.write_text("3 3 1.0 1.0\n" + body)
        got, expected = outcome(read_mask, path), outcome(read_mask_by_rows, path)
        assert same_mask(got, expected), (got, expected)
        if message is None:
            np.testing.assert_array_equal(got[1].cells, [[0, 1, 0], [1, 1, 0], [0, 0, 0]])
        else:
            assert got == f"MaskFormatError: {path}: {message}"

    def test_written_layout_skips_the_per_row_checks(self, tmp_path):
        """The buffer check, not the per-row loop, reads what write_mask writes."""
        source, start = inspect.getsourcelines(read_mask)
        split_line = start + next(i for i, ln in enumerate(source) if "ln.split()" in ln)
        cells = np.random.default_rng(5).uniform(size=(6, 7)) < 0.5
        path = tmp_path / "R.mask"
        write_mask(path, GridSpec(7, 6, 1.0, 2.0), RegionMask("R", cells))
        assert split_line not in lines_run(read_mask, path)
        path.write_text(path.read_text().replace(" ", "\t"))
        assert split_line in lines_run(read_mask, path)

    @pytest.mark.parametrize("header", ["3 2 inf 1", "3 2 1 inf", "3 2 -inf 1", "3 2 nan 1"])
    def test_non_finite_extent_names_the_file(self, tmp_path, header):
        path = tmp_path / "x.mask"
        path.write_text(header + "\n0 1 0\n1 1 0\n")
        with pytest.raises(MaskFormatError, match="window extents must be positive and finite") as err:
            read_mask(path)
        assert str(err.value).startswith(f"{path}: ")
        assert isinstance(err.value.__cause__, ParameterError)

    @pytest.mark.parametrize("extent", [float("inf"), -float("inf"), float("nan")])
    def test_grid_refuses_a_non_finite_extent(self, extent):
        with pytest.raises(ParameterError, match=f"got {extent} x 1.0"):
            GridSpec(3, 2, extent, 1.0)
        with pytest.raises(ParameterError, match=f"got 1.0 x {extent}"):
            GridSpec(3, 2, 1.0, extent)

    def test_infinite_extent_in_every_mask_exits_config_code(self, tmp_path, capsys):
        """Every mask of the bundled scenario with Lx = inf: the error names the
        extent, not a grid disagreement."""
        base = demo_scenario_path().parent
        config = yaml.safe_load(demo_scenario_path().read_text())
        for mask in [e["mask"] for e in config["grid"]["regions"].values()] + [config["grid"]["district_mask"]]:
            head, _, body = (base / mask).read_text().partition("\n")
            nx, ny, _, Ly = head.split()
            (tmp_path / mask).write_text(f"{nx} {ny} inf {Ly}\n{body}")
        config["data"]["cases"] = str(base / config["data"]["cases"])
        path = tmp_path / "scenario.yaml"
        path.write_text(yaml.safe_dump(config))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "window extents must be positive and finite, got inf x 56.05" in err
        assert "disagree" not in err


# ---------------------------------------------------------------------------
# Case files
# ---------------------------------------------------------------------------

CASE_CORRUPTIONS = ("bad date", "unknown region", "bad count", "negative count", "duplicate",
                    "short row", "blank line", "padded fields", "missing region")


def same_cases(a, b) -> bool:
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return a.keys() == b.keys() and all(
        np.array_equal(a[k].days, b[k].days) and np.array_equal(a[k].new_cases, b[k].new_cases)
        and a[k].filled_days == b[k].filled_days
        for k in a
    )


class TestCaseReader:
    @settings(max_examples=150, deadline=None)
    @given(
        n_days=st.integers(1, 6), share=st.floats(0.3, 1.0), seed=st.integers(0, 2**32 - 1),
        corruptions=st.lists(st.sampled_from(CASE_CORRUPTIONS), max_size=3),
    )
    def test_matches_the_per_row_reader(self, n_days, share, seed, corruptions):
        """Random files, some with a few bad rows: same series or same first error."""
        rng = np.random.default_rng(seed)
        rows = [
            [(START + dt.timedelta(days=int(d))).isoformat(), name, repr(float(rng.uniform(0, 1e4)))]
            for name in ("A", "B") for d in range(-1, n_days + 2) if rng.uniform() < share
        ]
        rows = [rows[i] for i in rng.permutation(len(rows))]
        valid = list(rows) or [["2020-10-01", "A", "1"]]
        for kind in corruptions:
            at = int(rng.integers(len(rows) + 1))
            victim = list(valid[int(rng.integers(len(valid)))])
            if kind == "bad date":
                rows.insert(at, ["2020-13-01"] + victim[1:])
            elif kind == "unknown region":
                rows.insert(at, [victim[0], "Z", victim[2]])
            elif kind == "bad count":
                rows.insert(at, victim[:2] + ["x"])
            elif kind == "negative count":
                rows.insert(at, victim[:2] + ["-1.5"])
            elif kind == "duplicate":
                rows.insert(at, victim)
            elif kind == "short row":
                rows.insert(at, victim[:2])
            elif kind == "blank line":
                rows.insert(at, [" "] if rng.uniform() < 0.5 else [])
            elif kind == "padded fields":
                rows.insert(at, [f" {victim[0]} ", f" {victim[1]}\t", f" {victim[2]} "])
            else:
                rows = [r for r in rows if r[1:2] != ["B"]]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cases.csv"
            path.write_text("date,region,new_cases\n" + "".join(",".join(r) + "\n" for r in rows))
            # an example may draw days without a record: read_cases warns exactly then
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                got = outcome(read_cases, path, START, n_days, ["A", "B"])
            expected = outcome(read_cases_by_rows, path, START, n_days, ["A", "B"])
        assert same_cases(got, expected), (got, expected)
        gaps = not isinstance(got, str) and any(s.filled_days for s in got.values())
        assert [(w.category, "zero-filled" in str(w.message)) for w in caught] == (
            [(RuntimeWarning, True)] if gaps else [])

    def test_first_bad_line_is_reported(self, tmp_path):
        """A later row's error never masks an earlier one, whatever the column."""
        path = tmp_path / "cases.csv"
        path.write_text("date,region,new_cases\n2020-10-01,A,1\n2020-10-02,Z,1\n"
                        "yesterday,A,1\n2020-10-03,A,x\n")
        with pytest.raises(CaseDataError, match=f"^{path}:3: unknown region 'Z'"):
            read_cases(path, START, 4, ["A"])

    def test_duplicate_outside_the_window_is_ignored(self, tmp_path):
        path = tmp_path / "cases.csv"
        path.write_text("date,region,new_cases\n2020-09-01,A,1\n2020-09-01,A,2\n"
                        "2020-10-01,A,3\n")
        with pytest.warns(RuntimeWarning, match="zero-filled"):
            series = read_cases(path, START, 1, ["A"])
        np.testing.assert_array_equal(series["A"].new_cases, [3.0, 0.0])
        assert series["A"].filled_days == (1,)


# ---------------------------------------------------------------------------
# Run configs
# ---------------------------------------------------------------------------

def small_config(tmp_path) -> Path:
    """A config in the tests' style: dates, lists, nulls, booleans and floats."""
    grid = GridSpec(5, 5, 2.0, 2.0)
    cells = np.zeros((5, 5), dtype=bool)
    cells[1:3, 1:4] = True
    for name in ("A", "B"):
        write_mask(tmp_path / f"{name}.mask", grid, RegionMask(name, cells if name == "A" else ~cells))
    (tmp_path / "cases.csv").write_text("date,region,new_cases\n2020-10-01,A,1\n2020-10-01,B,2\n")
    raw = {
        "model": "SEIR",
        "grid": {"regions": {"A": {"mask": "A.mask", "population": 1000.0},
                             "B": {"mask": "B.mask", "population": 8e2}}},
        "window": {"start": dt.date(2020, 10, 1), "days": 10,
                   "breakpoints": ["2020-10-04", 7]},
        "data": {"cases": "cases.csv"},
        "weights": {"w0": 1.0, "w1": 0.0, "w2": 1e-4},
        "solver": {"backend": "cn", "tau": 0.25, "corrected": False},
        "estimator": {"kind": "adjoint", "adjoint": {"max_outer": 3},
                      "metropolis": {"draws": 20, "burn_in": 0.2}},
        "initial": {"betas": [0.3, 0.15, 0.2], "kappa": 0.1, "delta": 0.5, "infected": None},
        "output": "out ü",
        "seed": 3,
    }
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(raw, sort_keys=False, allow_unicode=True))
    return path


@needs_libyaml
class TestConfigLoaders:
    @pytest.fixture(params=["bundled", "test"])
    def config_path(self, request, tmp_path):
        return demo_scenario_path() if request.param == "bundled" else small_config(tmp_path)

    def test_both_loaders_give_the_same_raw_and_hash(self, config_path, monkeypatch):
        text = config_path.read_text()
        assert yaml.load(text, Loader=yaml.CSafeLoader) == yaml.load(text, Loader=yaml.SafeLoader)
        fast = load_config(config_path)
        monkeypatch.delattr(yaml, "CSafeLoader")
        pure = load_config(config_path)
        assert fast.raw == pure.raw
        assert fast.config_hash == pure.config_hash
        assert fast == pure

    def test_load_config_does_not_parse_in_python(self, monkeypatch):
        """libyaml is here, so the pure-Python reader must stay unused: it took
        most of a config's load time."""
        def refuse(*args, **kwargs):
            raise AssertionError("load_config parsed with the pure-Python YAML loader")

        monkeypatch.setattr(yaml.reader.Reader, "__init__", refuse)
        assert load_config(demo_scenario_path()).n_days == 148


@pytest.mark.parametrize("pure", [False, True])
def test_invalid_yaml_exits_config_code_with_its_position(tmp_path, capsys, monkeypatch, pure):
    if pure:
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    elif not yaml.__with_libyaml__:
        pytest.skip("PyYAML built without libyaml")
    path = tmp_path / "bad.yaml"
    path.write_text("model: seir\nwindow: [1, 2\nseed: 3\n")
    with pytest.raises(ConfigError, match=r"(?s)invalid YAML: .*line 2, column \d+") as err:
        load_config(path)
    assert err.value.path == str(path)
    assert main(["simulate", "--config", str(path)]) == 2
    assert "invalid YAML" in capsys.readouterr().err


def test_export_days_writes_python_float_text(tmp_path):
    """The table formats each value as "%.12g" would format the numpy scalar."""
    config = load_config(small_config(tmp_path))
    values = np.array([0.1, 1.0 / 3.0, 2.5e-300, 1e16, 123456789.123456, 0.0])
    cli_io.export_days(tmp_path / "t.csv", config, range(len(values)), {"v": values})
    rows = (tmp_path / "t.csv").read_text().splitlines()[1:]
    assert [r.split(",")[2] for r in rows] == ["%.12g" % v for v in values]
