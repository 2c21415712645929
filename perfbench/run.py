#!/usr/bin/env python3
"""epidiffuse benchmark: one workload per process, closed loop, one result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload demo|twin|grid256 --seed N \
        --seconds S --trace 0|1 [--toy]

Each run prepares its scenario, then times one operation at a time, each
waiting for the previous.  Untraced, it repeats whole rounds until
``--seconds`` have passed (at least one round), so that every operation is
sampled across the whole run, and follows each timed sample with one run of
the host-speed probe (probe.py):

* ``setup``: ``load_config`` + ``load_scenario``, one sample of 4 setups;
* a unit block: ``adjoint_gradient`` at x, with its own forward run, then the
  objective at x + h d and x - h d, checked against the gradient by central
  difference;
* ``simulate``: the CLI command in-process, from argv to ``summary.json``.

Then, untimed, the peak memory of one gradient at the first round's x, in a
child process (peak.py).  Traced, a run makes a fixed number of each
operation instead (see ``traced_round``), and on ``twin`` adds a
fixed-length Metropolis chain, an adjoint fit, ``gradient_check`` with seeds
and one ``fem-split`` objective.

``--trace 0`` reports the end-to-end metrics: each timing is the run's median
ratio of the operation's samples to the probes around them, times the
probe's reference time, i.e. seconds at the reference host speed.
``--trace 1`` wraps the public API of every epidiffuse module (see tracer.py),
times a fixed number of unit blocks both untraced and traced, alternating
which runs first, to measure its own overhead, and reports the per-layer
metrics.  The last line of standard output is the JSON result; the full
record goes to perfbench/_work/results/.
"""

from __future__ import annotations

import os

# One BLAS thread: with the main thread the process stays within nproc.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import contextlib
import dataclasses
import io
import json
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import checks
import scenarios
from probe import HostProbe
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"

SETUP_SAMPLES = 16      # traced runs, half at the start and half at the end
SETUP_BATCH = 4         # setups per sample: one takes only 10-30 ms
TRACE_BLOCKS = 4        # fixed when traced, so that counts repeat exactly
FD_STEP = 1e-5          # relative central-difference step along d
POINT_SPREAD = 0.1      # evaluation points: truth * (1 + U(-0.1, 0.1))
MB = 1e6


def load_program():
    """Import epidiffuse from the checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "epidiffuse" / "__init__.py").is_file():
        raise SystemExit(f"error: no epidiffuse sources under {src}")
    sys.path.insert(0, str(src))
    import epidiffuse
    if Path(epidiffuse.__file__).resolve().parent != (src / "epidiffuse").resolve():
        raise SystemExit(f"error: imported epidiffuse from {epidiffuse.__file__}, not {src}")
    return epidiffuse


def evaluation_point(problem, scen, rng):
    """A point near the truth and a unit-free direction, both from ``rng``."""
    chi = scen.truth_chi * (1.0 + POINT_SPREAD * rng.uniform(-1.0, 1.0, 5))
    seeds = [scen.truth_seeds[r] * (1.0 + POINT_SPREAD * rng.uniform(-1.0, 1.0))
             for r in problem.region_names]
    x = np.concatenate([chi, seeds])
    n = rng.standard_normal(len(x))
    return x, x * n / np.linalg.norm(n)


class Bench:
    """Times operations, keeps samples and check verdicts for one run.

    With a ``probe``, each sample is followed by one probe, and the sample's
    ratio to the mean of the probes just before and just after it is kept in
    ``ratios``: the two bracket the host's speed while the sample ran.
    """

    def __init__(self, tracer: Tracer | None, probe: HostProbe | None = None):
        self.tracer = tracer
        self.probe = probe
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.ratios: dict[str, list[float]] = defaultdict(list)
        self.checks: list[dict] = []
        self.attempted = 0
        self._last_probe = probe() if probe is not None else None

    def op(self, label: str, fn, *args, reps: int = 1, **kwargs):
        """Run ``fn`` ``reps`` times as one sample of its mean time."""
        if self.tracer is not None:
            self.tracer.begin_op(label)
        t0 = time.perf_counter()
        for _ in range(reps):
            out = fn(*args, **kwargs)
        took = (time.perf_counter() - t0) / reps
        self.samples[label].append(took)
        self.attempted += reps
        if self.probe is not None:
            probe_s = self.probe()
            self.samples["probe"].append(probe_s)
            self.ratios[label].append(took / (0.5 * (self._last_probe + probe_s)))
            self._last_probe = probe_s
        return out

    def check(self, name: str, verdict) -> None:
        ok, detail = verdict
        self.checks.append({"check": name, "ok": bool(ok), "detail": detail})

    @property
    def correct(self) -> bool:
        return bool(self.checks) and all(c["ok"] for c in self.checks)


def setup(ep, config_path):
    return ep.load_scenario(ep.load_config(config_path))


def setups(bench: Bench, ep, scen):
    """Half of the run's setup samples; returns the last problem loaded."""
    for _ in range(SETUP_SAMPLES // 2):
        problem = bench.op("setup", setup, ep, scen.config, reps=SETUP_BATCH)
    return problem


def unit_block(bench: Bench, ep, problem, x, d):
    """The adjoint gradient at x, then J(x + h d) and J(x - h d), then the FD check."""
    grad = bench.op("gradient", ep.adjoint_gradient, problem, problem.unpack(x))
    jp = bench.op("objective", problem.objective, problem.unpack(x + FD_STEP * d))
    jm = bench.op("objective", problem.objective, problem.unpack(x - FD_STEP * d))
    bench.check("gradient vs central difference",
                checks.check_directional(jp, jm, FD_STEP, float(grad.full @ d)))
    return grad


def objective_inputs(config, problem):
    names = problem.region_names
    masks = [checks.read_mask_file(config.region_masks[n]) for n in names]
    cases = checks.read_case_table(config.cases, config.start, config.n_days, names)
    pops = [config.populations[n] for n in names]
    return masks, cases, pops


def check_first_objective(bench: Bench, ep, scen, problem, x0, grad0):
    """J recomputed from the daily states of a separate forward run at x0.

    Compared with the J the program returned with the first gradient; returns
    those daily states.
    """
    params = problem.unpack(x0)
    traj = problem.simulate(params)
    daily = traj.states[traj.daily_indices]
    masks, cases, pops = objective_inputs(ep.load_config(scen.config), problem)
    j_own = checks.recompute_objective(
        daily, cases, masks, pops, problem.grid.cell_area, params.schedule.betas,
        params.schedule.breakpoints, params.delta, problem.weights.w0)
    bench.check("objective recomputed", checks.check_objective(grad0.breakdown.total, j_own))
    return daily


def gradient_peak(bench: Bench, scen, x) -> int:
    """Peak memory of one gradient at x, from peak.py in a child process."""
    proc = subprocess.run([sys.executable, str(HERE / "peak.py"), str(scen.config),
                           *(repr(float(v)) for v in x)],
                          capture_output=True, text=True, timeout=150, check=True)
    peak = json.loads(proc.stdout.splitlines()[-1])
    bench.attempted += 1
    if not scen.toy:  # a toy gradient is smaller than the process's earlier peaks
        bench.check("gradient peak is its own", (
            peak["new_peak"], f"the gradient raised the child's resident set by "
            f"{peak['peak_bytes'] / MB:.1f} MB and set its high-water mark: {peak['new_peak']}"))
    return peak["peak_bytes"]


def simulate_command(bench: Bench, ep, config_path, out: Path) -> int:
    argv = ["simulate", "--config", str(config_path), "--out", str(out)]
    with contextlib.redirect_stdout(io.StringIO()):
        return bench.op("simulate", ep.cli_io.main, argv)


def check_simulate(bench: Bench, codes, out: Path):
    """Exit codes of every simulate, and the mass drift of the last one's output."""
    bad = sum(code != 0 for code in codes)
    bench.check("simulate exit codes", (bad == 0, f"{bad} of {len(codes)} simulate runs "
                                                   f"exited non-zero"))
    summary = json.loads((out / "summary.json").read_text())
    drift = checks.mass_drift_from_csv(out / "mass.csv")
    bench.check("simulate mass drift", checks.check_mass(drift))
    bench.check("simulate summary drift", checks.check_mass(summary["metrics"]["population_drift"]))


def fit_operations(bench: Bench, ep, scen, problem, x0, cn_daily, seed: int) -> dict:
    """Metropolis chain, adjoint fit, gradient_check and the fem-split objective."""
    start = problem.pack(problem.initial)
    mcfg = ep.MetropolisConfig(draws=scen.fit_draws, sigma=2e-5, seed=seed, burn_in=0.5)
    chain = bench.op("metropolis", ep.metropolis_fit, problem, mcfg)
    diag = chain.diagnostics
    j0 = problem.objective(problem.unpack(start))
    bench.check("metropolis replay", checks.replay_metropolis(
        diag["decisions"], start, diag["step_scale"], diag["sigma"], seed, j0, problem.in_bounds))

    fit = bench.op("adjoint_fit", ep.adjoint_fit, problem,
                   ep.AdjointConfig(max_outer=scen.fit_max_outer))
    bench.check("adjoint fit monotone", checks.check_monotone([j for j, _ in fit.history]))

    params = problem.unpack(x0)
    report = bench.op("gradient_check", ep.gradient_check, problem, params, include_seeds=True)
    bench.check("gradient_check error", checks.check_gradient_check(report["rel_err"]))

    fem = dataclasses.replace(problem, backend="fem-split")

    def fem_objective():
        traj = fem.simulate(params)  # the two steps of Problem.objective
        return traj, ep.evaluate_terms(traj, params, fem.weights, fem.data).total

    fem_traj, j_fem = bench.op("fem_objective", fem_objective)
    half = dataclasses.replace(problem, tau=0.5 * problem.tau).simulate(params)
    masks = [problem.masks[n].cells for n in problem.region_names]
    g = problem.grid
    bound = checks.fem_cn_bound(cn_daily, half.states[half.daily_indices], masks, g.shape,
                                g.hx, g.hy, params.kappa)
    bench.check("fem-split vs cn", checks.check_fem_cn(
        cn_daily, fem_traj.states[fem_traj.daily_indices], bound, masks, g.cell_area))
    return {"draws": scen.fit_draws, "acceptance": chain.acceptance_rate,
            "fit_iterations": len(fit.history) - 1, "fit_stop": fit.diagnostics["stop"],
            "j_fem": j_fem}


def overhead_blocks(bench: Bench, ep, scen, problem, rng, tracer: Tracer):
    """TRACE_BLOCKS unit blocks, each run untraced and traced back to back.

    Which side goes first alternates from block to block, and one untraced
    block at the first point warms up first.  Returns the first point, its
    traced gradient and the tracing overhead in percent, from the median over
    the blocks of traced over untraced time: the two sides of a pair share the
    host's load of the moment, which drifts over seconds.
    """
    ref = Bench(None)
    ratios = []
    for i in range(TRACE_BLOCKS):
        x, d = evaluation_point(problem, scen, rng)
        if i == 0:
            unit_block(Bench(None), ep, problem, x, d)
        took = {}
        for traced in (i % 2 == 1, i % 2 == 0):
            t0 = time.perf_counter()
            if not traced:
                unit_block(ref, ep, problem, x, d)
            else:
                tracer.install(ep)
                try:
                    grad = unit_block(bench, ep, problem, x, d)
                finally:
                    tracer.uninstall()
            took[traced] = time.perf_counter() - t0
        ratios.append(took[True] / took[False])
        if i == 0:
            x0, grad0 = x, grad
    bench.checks.extend(ref.checks)
    bench.attempted += ref.attempted
    return x0, grad0, 100.0 * (statistics.median(ratios) - 1.0)


def timed_rounds(bench: Bench, ep, scen, rng, seconds: float, work: Path) -> dict:
    """Whole rounds of setup, unit block and simulate until ``seconds`` have passed."""
    out = work / "simulate"
    codes = []
    x0 = None
    t_start = time.perf_counter()
    while x0 is None or time.perf_counter() - t_start < seconds:
        problem = bench.op("setup", setup, ep, scen.config, reps=SETUP_BATCH)
        x, d = evaluation_point(problem, scen, rng)
        grad = unit_block(bench, ep, problem, x, d)
        codes.append(simulate_command(bench, ep, scen.config, out))
        if x0 is None:
            x0, grad0 = x, grad
    check_simulate(bench, codes, out)
    check_first_objective(bench, ep, scen, problem, x0, grad0)
    return {"gradient_peak_bytes": gradient_peak(bench, scen, x0)}


def traced_round(bench: Bench, ep, scen, rng, tracer: Tracer, work: Path, seed: int) -> dict:
    """A fixed number of each operation, so that its counts repeat exactly with one seed."""
    problem = setup(ep, scen.config)
    x0, grad0, overhead = overhead_blocks(bench, ep, scen, problem, rng, tracer)
    extras = {"overhead_pct": overhead,
              "trajectory_bytes": tracer.result_bytes["solver_cn.run_from_state"]}
    daily = check_first_objective(bench, ep, scen, problem, x0, grad0)
    tracer.install(ep)
    setups(bench, ep, scen)
    out = work / "simulate"
    check_simulate(bench, [simulate_command(bench, ep, scen.config, out)], out)
    setups(bench, ep, scen)
    if scen.name == "twin":
        extras.update(fit_operations(bench, ep, scen, problem, x0, daily, seed))
    return extras


def end_to_end(bench: Bench, extras) -> dict:
    """Each timing in seconds at the reference host speed: the run's median ratio of
    the operation's samples to the probes around them, times the probe's
    reference time."""
    at_ref = lambda label: bench.probe.ref_s * statistics.median(bench.ratios[label])  # noqa: E731
    return {
        "setup_s": {"value": at_ref("setup"), "unit": "s"},
        "simulate_s": {"value": at_ref("simulate"), "unit": "s"},
        "objective_s": {"value": at_ref("objective"), "unit": "s"},
        "gradient_s": {"value": at_ref("gradient"), "unit": "s"},
        "gradient_peak_mb": {"value": extras["gradient_peak_bytes"] / MB, "unit": "MB"},
    }


def per_layer(tracer: Tracer, bench: Bench, extras) -> dict:
    summ = tracer.summary()
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0}
    get = lambda name: summ.get(name, zero)  # noqa: E731
    iters = extras.get("fit_iterations", 0)
    draws = extras.get("draws", 0)
    per = lambda n, k: n / k if k else 0.0  # noqa: E731
    fit_s = lambda label: sum(bench.samples.get(label, [0.0]))  # noqa: E731
    values = {
        "cli_io.load_scenario_s": (get("cli_io.load_scenario")["s"], "s"),
        "cli_io.read_mask_s": (get("cli_io.read_mask")["s"], "s"),
        "cli_io.export_s": (sum(v["s"] for k, v in summ.items() if k.startswith("cli_io.export_")), "s"),
        "grid.laplacian_operator_calls": (get("grid.laplacian_operator")["calls"], "count"),
        "solver_cn.solve_s": (get("solver_cn.CNWorkspace.solve")["s"], "s"),
        "solver_cn.solve_calls": (get("solver_cn.CNWorkspace.solve")["calls"], "count"),
        "solver_cn.apply_B_s": (get("solver_cn.CNWorkspace.apply_B")["s"], "s"),
        "solver_cn.apply_B_calls": (get("solver_cn.CNWorkspace.apply_B")["calls"], "count"),
        "solver_cn.assemble_s": (get("solver_cn.assemble")["s"], "s"),
        "solver_cn.assemble_calls": (get("solver_cn.assemble")["calls"], "count"),
        "solver_cn.run_from_state_s": (get("solver_cn.run_from_state")["s"], "s"),
        "solver_cn.run_from_state_self_s": (get("solver_cn.run_from_state")["self_s"], "s"),
        "solver_cn.step_backward_s": (get("solver_cn.step_backward")["s"], "s"),
        "solver_cn.step_backward_calls": (get("solver_cn.step_backward")["calls"], "count"),
        "solver_cn.trajectory_mb": (extras["trajectory_bytes"] / MB, "MB"),
        "models.reaction_s": (get("models.reaction")["s"], "s"),
        "models.reaction_calls": (get("models.reaction")["calls"], "count"),
        "models.reaction_jacobian_s": (get("models.reaction_jacobian")["s"], "s"),
        "models.reaction_jacobian_calls": (get("models.reaction_jacobian")["calls"], "count"),
        "objective.evaluate_terms_s": (get("objective.evaluate_terms")["s"], "s"),
        "objective.evaluate_terms_calls": (get("objective.evaluate_terms")["calls"], "count"),
        "estimate.simulate_calls": (get("estimate.Problem.simulate")["calls"], "count"),
        "estimate.forward_runs_per_iter": (
            per(tracer.calls_in_op("estimate.Problem.simulate", "adjoint_fit"), iters), "count"),
        "estimate.armijo_trials_per_iter": (
            per(tracer.calls_in_op("estimate.Problem.objective", "adjoint_fit"), iters), "count"),
        "estimate.objective_calls": (get("estimate.Problem.objective")["calls"], "count"),
        "estimate.evals_per_draw": (
            per(tracer.calls_in_op("estimate.Problem.objective", "metropolis"), draws), "count"),
        "estimate.adjoint_gradient_self_s": (get("estimate.adjoint_gradient")["self_s"], "s"),
        "estimate.draws_per_s": (per(draws, fit_s("metropolis")), "1/s"),
        "estimate.adjoint_fit_s": (fit_s("adjoint_fit"), "s"),
        "estimate.gradient_check_s": (fit_s("gradient_check"), "s"),
        "solver_fem.objective_s": (fit_s("fem_objective"), "s"),
        "solver_fem.assemble_fem_s": (get("solver_fem.assemble_fem")["s"], "s"),
        "solver_fem.assemble_fem_calls": (get("solver_fem.assemble_fem")["calls"], "count"),
        "solver_fem.mass_solve_s": (get("solver_fem.FemAssembly.mass_solve")["s"], "s"),
        "solver_fem.mass_solve_calls": (get("solver_fem.FemAssembly.mass_solve")["calls"], "count"),
        "solver_fem.run_fem_from_state_self_s": (get("solver_fem.run_fem_from_state")["self_s"], "s"),
        "trace.overhead_pct": (extras["overhead_pct"], "%"),
        "trace.spans": (len(tracer.spans), "count"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def environment(ep) -> dict:
    import scipy
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__, "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"), "epidiffuse": ep.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(scenarios.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny inputs, for the tests")
    args = parser.parse_args(argv)

    ep = load_program()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-toy' if args.toy else ''}"
    work = WORK / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    t0 = time.perf_counter()
    scen = scenarios.BUILDERS[args.workload](ep, work / "scenario", args.seed, args.toy)
    prepare_s = time.perf_counter() - t0

    tracer = Tracer() if args.trace else None
    probe = None
    if tracer is None:
        problem = setup(ep, scen.config)  # also a warm-up of the program
        g = problem.grid
        probe = HostProbe(g.nx, g.ny, g.hx, g.hy, problem.tau, scen.probe_steps,
                          scen.probe_ref_s)
        probe()  # warm-up
    bench = Bench(tracer, probe)
    rng = np.random.default_rng([args.seed, 1])
    try:
        if tracer is None:
            extras = timed_rounds(bench, ep, scen, rng, args.seconds, work)
        else:
            extras = traced_round(bench, ep, scen, rng, tracer, work, args.seed)
    finally:
        if tracer is not None:
            tracer.uninstall()

    if tracer is None:
        metrics = end_to_end(bench, extras)
    else:
        metrics = per_layer(tracer, bench, extras)
        (WORK / "traces").mkdir(exist_ok=True)
        tracer.write(WORK / "traces" / tag)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "toy": args.toy, "prepare_s": prepare_s,
        "scenario": scen.make_up, "environment": environment(ep),
        "samples": dict(bench.samples), "ratios": dict(bench.ratios), "checks": bench.checks,
        "extras": {k: v for k, v in extras.items() if isinstance(v, (int, float, str))},
        "metrics": metrics,
    }
    (WORK / "results").mkdir(exist_ok=True)
    (WORK / "results" / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    shutil.rmtree(work, ignore_errors=True)

    for c in bench.checks:
        print(f"[{'ok' if c['ok'] else 'FAIL'}] {c['check']}: {c['detail']}")
    for label, values in sorted(bench.samples.items()):
        ratio = bench.ratios.get(label)
        print(f"  {label}: n={len(values)} median={statistics.median(values):.6g} s"
              + (f", median ratio to probe {statistics.median(ratio):.6g}" if ratio else ""))
    # an operation that raises ends the run without a result, so none failed here
    print(json.dumps({"correct": bench.correct, "attempted": bench.attempted,
                      "failed": 0, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
