"""Tests of the benchmark itself; run with ``python -m pytest perfbench/tests``.

They run every workload at toy size, traced and untraced, and show that each
correctness check rejects a deliberately wrong output.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import epidiffuse as ep  # noqa: E402
import run  # noqa: E402
import scenarios  # noqa: E402
from probe import HostProbe  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("workload", sorted(scenarios.BUILDERS))
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_at_toy_size(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0.2",
                     "--trace", str(trace), "--toy")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    failures = [line for line in proc.stdout.splitlines() if line.startswith("[FAIL]")]
    assert result["correct"] is True and not failures, failures
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    if not trace:  # a toy gradient's memory can stay under earlier peaks
        assert all(v["value"] > 0 for k, v in result["metrics"].items()
                   if k != "gradient_peak_mb")


def test_refuses_to_run_without_program_sources(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(SPEC["command"] + ["--workload", "twin", "--seed", "1", "--seconds",
                                             "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_each_sample_is_divided_by_the_mean_of_the_probes_around_it():
    probe_times = iter([1.0, 3.0, 5.0])
    bench = run.Bench(None, probe=lambda: next(probe_times))
    bench.op("a", sum, [1, 2])
    bench.op("a", sum, [3])
    took = bench.samples["a"]
    assert bench.ratios["a"] == [took[0] / 2.0, took[1] / 4.0]
    assert bench.samples["probe"] == [3.0, 5.0]


def test_probe_repeats_its_work_exactly():
    probe = HostProbe(12, 9, 0.4, 0.5, 0.25, steps=6, ref_s=0.05)
    first = probe.work()
    assert np.isfinite(first).all() and first.min() > 0.0
    assert np.array_equal(first, probe.work())
    assert probe() > 0.0


# ---------------------------------------------------------------------------
# every check rejects a wrong output
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def twin(tmp_path_factory):
    """A 9x9, 10-day SEIR twin loaded from scenario files."""
    out = tmp_path_factory.mktemp("twin")
    scen = scenarios.twin(ep, out, seed=5, toy=True)
    config = ep.load_config(scen.config)
    return config, ep.load_scenario(config)


def test_scaled_gradient_is_rejected(twin):
    _, problem = twin
    x = problem.pack(problem.initial)
    d = x * np.linspace(-1.0, 1.0, len(x)) / len(x)
    h = 1e-5
    jp = problem.objective(problem.unpack(x + h * d))
    jm = problem.objective(problem.unpack(x - h * d))
    g_d = float(ep.adjoint_gradient(problem, problem.initial).full @ d)
    assert checks.check_directional(jp, jm, h, g_d)[0]
    assert not checks.check_directional(jp, jm, h, 1.01 * g_d)[0]


def test_drifting_mass_is_rejected(tmp_path):
    rows = ["day,date,total_population"]
    rows += [f"{d},2020-10-{d + 1:02d},{81000.0 * (1.0 + 1e-8 * d):.12g}" for d in range(5)]
    (tmp_path / "mass.csv").write_text("\n".join(rows) + "\n")
    drift = checks.mass_drift_from_csv(tmp_path / "mass.csv")
    assert drift == pytest.approx(4e-8, rel=1e-3)
    assert not checks.check_mass(drift)[0]
    assert checks.check_mass(1e-12)[0]


def test_miscomputed_objective_is_rejected(twin):
    config, problem = twin
    params = problem.initial
    traj = problem.simulate(params)
    daily = traj.states[traj.daily_indices]
    names = problem.region_names
    masks = [checks.read_mask_file(config.region_masks[n]) for n in names]
    cases = checks.read_case_table(config.cases, config.start, config.n_days, names)
    pops = [config.populations[n] for n in names]

    def own(states):
        return checks.recompute_objective(states, cases, masks, pops, problem.grid.cell_area,
                                          params.schedule.betas, params.schedule.breakpoints,
                                          params.delta)

    j = problem.objective(params)
    assert checks.check_objective(j, own(daily))[0]
    assert not checks.check_objective(j * (1.0 + 1e-6), own(daily))[0]
    perturbed = daily.copy()
    perturbed[3, 2] *= 1.001
    assert not checks.check_objective(j, own(perturbed))[0]


def test_tampered_metropolis_log_is_rejected(twin):
    _, problem = twin
    res = ep.metropolis_fit(problem, ep.MetropolisConfig(draws=12, sigma=1e-6, seed=4))
    diag = res.diagnostics
    x0 = problem.pack(problem.initial)
    j0 = problem.objective(problem.initial)
    args = (x0, diag["step_scale"], diag["sigma"], 4, j0, problem.in_bounds)
    assert checks.replay_metropolis(diag["decisions"], *args)[0]
    log = {k: v.copy() for k, v in diag["decisions"].items()}
    log["accepted"][5] = not log["accepted"][5]
    assert not checks.replay_metropolis(log, *args)[0]
    assert not checks.replay_metropolis(diag["decisions"], x0, diag["step_scale"],
                                        diag["sigma"], 5, j0, problem.in_bounds)[0]


def test_rising_fit_and_large_gradient_check_error_are_rejected():
    assert checks.check_monotone([3.0, 2.0, 2.0, 1.0])[0]
    assert not checks.check_monotone([3.0, 2.0, 2.5])[0]
    assert checks.check_gradient_check(np.array([1e-8, 5e-4]))[0]
    assert not checks.check_gradient_check(np.array([1e-8, 2e-3]))[0]


def test_fem_cn_bound_holds_and_rejects_a_shifted_fem_run(twin):
    _, problem = twin
    params = problem.initial
    cn = problem.simulate(params)
    half = dataclasses.replace(problem, tau=0.5 * problem.tau).simulate(params)
    fem = dataclasses.replace(problem, backend="fem-split").simulate(params)
    daily = lambda t: t.states[t.daily_indices]  # noqa: E731
    masks = [problem.masks[n].cells for n in problem.region_names]
    g = problem.grid
    bound = checks.fem_cn_bound(daily(cn), daily(half), masks, g.shape, g.hx, g.hy, params.kappa)
    assert checks.check_fem_cn(daily(cn), daily(fem), bound, masks, g.cell_area)[0]
    lagged = np.concatenate([daily(fem)[:1], daily(fem)[:-1]])
    assert not checks.check_fem_cn(daily(cn), lagged, bound, masks, g.cell_area)[0]


def test_operator_mismatch_vanishes_on_constants():
    mismatch = checks.operator_mismatch(7, 5, 0.3, 0.2)
    assert np.abs(mismatch(np.ones(35))).max() < 1e-10


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------

def test_tracer_wraps_where_callers_look_and_restores(twin):
    _, problem = twin
    originals = (ep.solver_cn.run_from_state, ep.estimate.run_from_state,
                 ep.solver_cn.CNWorkspace.solve, ep.models.reaction)
    tracer = Tracer()
    tracer.install(ep)
    try:
        assert ep.estimate.run_from_state is ep.solver_cn.run_from_state
        assert ep.estimate.run_from_state is not originals[0]
        tracer.begin_op("objective")
        problem.objective(problem.initial)
    finally:
        tracer.uninstall()
    assert (ep.solver_cn.run_from_state, ep.estimate.run_from_state,
            ep.solver_cn.CNWorkspace.solve, ep.models.reaction) == originals
    summary = tracer.summary()
    steps = int(round(problem.t_end / problem.tau))
    assert summary["solver_cn.CNWorkspace.solve"]["calls"] == steps
    assert summary["models.reaction"]["calls"] == steps
    assert tracer.calls_in_op("estimate.Problem.simulate", "objective") == 1
    run = summary["solver_cn.run_from_state"]
    assert 0.0 <= run["self_s"] <= run["s"]
    traj = problem.simulate(problem.initial)  # what the traced objective stored
    assert tracer.result_bytes["solver_cn.run_from_state"] == (
        traj.times.nbytes + traj.states.nbytes)
