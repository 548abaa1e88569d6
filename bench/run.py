"""Benchmark of the lgadmm command line workloads.

Usage (from the repository root)::

    python3 bench/run.py --workload compare_n100 --seed 1 --seconds 25 --trace 0

One invocation measures one workload as a closed loop: a single benchmark
process starts one unit at a time, each unit being a fresh ``lgadmm.cli``
child process with its own temporary ``--out``, and the next unit starts
only after the previous one has finished and its outputs have been
checked. ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced units and reports the per-layer split.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
name every metric with its unit, the machine block and the wall-time
tail. A full record is also written to ``.bench_runs/``.

Instances: every workload cycles through a fixed pool of calibration
instances (instance seeds ``0 .. pool - 1``), in an order drawn from
``--seed``, until ``--seconds`` have passed and every instance of the pool
has run at least once. Metrics are taken per instance (median over its
units) and then averaged over the pool, so the spread between runs is
measurement noise rather than the up to 50-fold spread in iteration
count between random instances.

See ``bench/README.md`` for the workloads, the metrics and which layer
should move which metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import multiprocessing
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from tracing import CHECKS, Tracer, install, merge, summarize

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
WORK = ROOT / ".bench_tmp"
RESULTS = ROOT / ".bench_runs"

SETUP_REPEATS = 15
# A run stops starting units after this long even if the pool is not
# covered yet, so that one invocation stays well inside three minutes.
HARD_STOP_S = 120.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "iterations": "count",
    "ms_per_iter": "ms",
    "peak_rss_mb": "MB",
}

# Exact counts and computed byte figures: these must repeat exactly
# between two traced units of the same instance.
EXACT_COUNTS = (
    "operators.apply_per_step",
    "calibration.project_psd.calls",
    "solver.step.calls",
    "solver.trajectory.bytes",
    "certificates.assemble_metrics.dense_bytes",
)

PER_LAYER = {
    "calibration.project_psd.calls": "count",
    "calibration.project_psd.s": "s",
    "calibration.project_box.calls": "count",
    "calibration.project_box.s": "s",
    "operators.BlockSignMap.apply.calls": "count",
    "operators.BlockSignMap.apply.s": "s",
    "operators.BlockSignMap.adjoint.calls": "count",
    "operators.BlockSignMap.adjoint.s": "s",
    "operators.apply_per_step": "count",
    "solver.solve.calls": "count",
    "solver.solve.s": "s",
    "solver.step.calls": "count",
    "solver.step.self_s": "s",
    "solver.first_phase_update.s": "s",
    "solver.last_block_update.s": "s",
    "solver.multiplier_update.s": "s",
    "solver.auxiliary_point.s": "s",
    "solver.validate_config.s": "s",
    "solver.trajectory.bytes": "count",
    "problem.evaluate_objective.calls": "count",
    "problem.evaluate_objective.s": "s",
    "problem.constraint_residual.calls": "count",
    "problem.constraint_residual.s": "s",
    "certificates.assemble_metrics.s": "s",
    "certificates.assemble_metrics.dense_bytes": "count",
    **{f"certificates.{check}.s": "s" for check in CHECKS},
    "certificates.ergodic_average.s": "s",
    "certificates.failed": "count",
    "certificates.skipped": "count",
    "serialization.write.calls": "count",
    "serialization.write.s": "s",
    "trace.overhead_frac": "frac",
}

# Emitted on sweep_n50 only, the one workload that goes through the pool.
SWEEP_LAYERS = {
    "cli.sweep_cell.s": "s",
    "cli.sweep_cell.serial_s": "s",
    "cli.sweep_cell.inflation": "ratio",
    "cli.sweep.workers": "count",
}


# ---------------------------------------------------------------------------
# Output checks. Each returns the unit's total solver steps and a list of
# problems; an empty list means the unit passed.

def _read_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _read_csv(path: Path) -> list[dict]:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def check_compare(out: Path, solves: list[int]) -> tuple[int, list[str]]:
    summary = _read_json(out / "summary.json")
    rows = _read_csv(out / "compare_summary.csv")
    problems = []
    if summary["all_converged"] is not True:
        problems.append("not every run converged")
    if not summary["objective_relative_gap"] <= 1e-3:
        problems.append(f"objective gap {summary['objective_relative_gap']:.3g} > 1e-3")
    if not summary["iteration_ratio"] >= 1.5:
        problems.append(f"iteration ratio {summary['iteration_ratio']:.3g} < 1.5")
    written = [int(row["iterations"]) for row in rows]
    if written != solves:
        problems.append(f"compare_summary.csv iterations {written} != solves {solves}")
    return sum(solves), problems


def check_sweep(out: Path, solves: list[int]) -> tuple[int, list[str]]:
    summary = _read_json(out / "summary.json")
    rows = _read_csv(out / "sweep.csv")
    problems = []
    if summary["all_converged"] is not True:
        problems.append("not every sweep cell converged")
    if not summary["spearman_gamma_iterations"] <= -0.9:
        problems.append(f"rank correlation {summary['spearman_gamma_iterations']:.3g} > -0.9")
    if len(rows) != len(summary["gamma_grid"]):
        problems.append(f"sweep.csv has {len(rows)} rows for "
                        f"{len(summary['gamma_grid'])} grid values")
    # one seed per grid value, so each mean is one cell's exact count
    iterations = [float(row["mean_iterations"]) for row in rows]
    if any(value != int(value) for value in iterations):
        problems.append("sweep.csv iteration means are not whole numbers")
    return int(sum(iterations)), problems


def check_certify(out: Path, solves: list[int]) -> tuple[int, list[str]]:
    summary = _read_json(out / "summary.json")
    checks = _read_json(out / "certificates.json")["checks"]
    problems = []
    if len(checks) != len(CHECKS):
        problems.append(f"{len(checks)} checks reported, expected {len(CHECKS)}")
    if summary["failed_checks"]:
        problems.append(f"failed checks {summary['failed_checks']}")
    if summary["skipped_checks"]:
        problems.append(f"skipped checks {summary['skipped_checks']}")
    if len(solves) != 2 or solves[0] != summary["iterations"]:
        problems.append(f"expected a strict solve of {summary['iterations']} "
                        f"iterations and a reference solve, got {solves}")
    return sum(solves), problems


def check_negative_control(out: Path, solves: list[int]) -> tuple[int, list[str]]:
    failed = _read_json(out / "summary.json")["failed_checks"]
    problems = []
    if "update_recurrence" not in failed:
        problems.append(f"negative control: update_recurrence not among failed {failed}")
    return sum(solves), problems


# ---------------------------------------------------------------------------
# Workloads.

@dataclass(frozen=True)
class Workload:
    """One CLI subcommand with fixed flags, a gate, and a pool of instances.

    ``n``, ``gamma``, ``sigma`` and ``strict`` describe the instance and
    configuration the set-up probe validates; they match what the
    subcommand uses.
    """

    name: str
    argv: tuple[str, ...]
    check: Callable[[Path, list[int]], tuple[int, list[str]]]
    n: int
    gamma: float
    sigma: float
    strict: bool
    pool: int
    negative_control: bool = False


def workloads(small: bool = False) -> dict[str, Workload]:
    """The four workloads; ``small`` shrinks them for the harness smoke test."""
    compare_n, sweep_n, certify_n, certify_big_n = (
        (30, 16, 6, 29) if small else (100, 50, 20, 60))
    # a sweep unit takes 7 s or more, so its pool is smaller
    pool, sweep_pool = (1, 1) if small else (5, 3)
    found = [
        Workload("compare_n100", ("baseline-compare", "--n", str(compare_n)),
                 check_compare, compare_n, 1.0, 0.5, False, pool),
        Workload("sweep_n50", ("gamma-sweep", "--n", str(sweep_n), "--repeat", "1"),
                 check_sweep, sweep_n, 0.2, 0.5, False, sweep_pool),
        Workload("certify_n20", ("certify", "--n", str(certify_n)),
                 check_certify, certify_n, 1.5, 4.0, True, pool,
                 negative_control=True),
        Workload("certify_n60", ("certify", "--n", str(certify_big_n)),
                 check_certify, certify_big_n, 1.5, 4.0, True, pool,
                 negative_control=True),
    ]
    return {w.name: w for w in found}


# ---------------------------------------------------------------------------
# Running units.

@dataclass
class Unit:
    instance: int
    traced: bool
    exit_code: int
    wall_s: float
    peak_rss_mb: float
    iterations: int = 0
    problems: list[str] = field(default_factory=list)
    cell_seconds: list[float] = field(default_factory=list)
    failed_checks: int = 0
    skipped_checks: int = 0
    layers: dict[str, float] = field(default_factory=dict)


def child_env() -> dict[str, str]:
    """The caller's environment with the repository's ``src`` first on the path.

    BLAS thread variables are passed through as found, never set.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


def wait_child(cmd: list[str], stdout, stderr) -> tuple[int, float, float]:
    """Run ``cmd`` to completion; return exit code, wall seconds, peak RSS in MB.

    The peak resident set comes from ``wait4`` on the child, which covers
    the child and the pool workers it waited for.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT,
                            stdout=stdout, stderr=stderr)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def read_outputs(unit: Unit, workload: Workload, out: Path,
                 negative_control: bool) -> None:
    """Gate the unit's artifacts and fill in what the metrics need."""
    payload = _read_json(out / "sidecar.json")
    if not Path(payload["package_file"]).resolve().is_relative_to(SRC):
        unit.problems.append(f"lgadmm imported from {payload['package_file']}")
    artifacts = out / "artifacts"
    gate = check_negative_control if negative_control else workload.check
    unit.iterations, problems = gate(artifacts, payload["solve_iterations"])
    unit.problems += problems
    if (artifacts / "sweep.csv").exists():
        unit.cell_seconds = [float(row["mean_seconds"])
                             for row in _read_csv(artifacts / "sweep.csv")]
    if (artifacts / "certificates.json").exists():
        summary = _read_json(artifacts / "summary.json")
        unit.failed_checks = len(summary["failed_checks"])
        unit.skipped_checks = len(summary["skipped_checks"])
    if unit.traced:
        unit.layers = summarize(payload["trace"])


def run_unit(workload: Workload, instance: int, traced: bool,
             negative_control: bool = False) -> Unit:
    out = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    try:
        cmd = [sys.executable, str(BENCH / "child.py"), "cli", str(out / "sidecar.json"),
               "1" if traced else "0", "--", *workload.argv,
               "--seed", str(instance), "--out", str(out / "artifacts")]
        if negative_control:
            cmd.append("--negative-control")
        with open(out / "stdout.txt", "wb") as stdout, \
                open(out / "stderr.txt", "wb") as stderr:
            code, wall, rss = wait_child(cmd, stdout, stderr)
        unit = Unit(instance, traced, code, wall, rss)
        expected = 4 if negative_control else 0
        if code != expected:
            tail = (out / "stderr.txt").read_text(errors="replace")[-400:]
            unit.problems.append(f"exit code {code}, expected {expected}: {tail}")
            return unit
        try:
            read_outputs(unit, workload, out, negative_control)
        except (OSError, KeyError, ValueError, IndexError) as exc:
            unit.problems.append(f"unreadable output: {exc!r}")
        return unit
    finally:
        shutil.rmtree(out, ignore_errors=True)


def sweep_replica(workload: Workload, instance: int,
                  traced: bool) -> tuple[list[float], dict[str, float]]:
    """Solve every sweep cell of ``instance`` serially in this process.

    This is the plain single-process baseline for the pool: the same cells
    through the same ``_sweep_cell`` the workers run. Returns the solve
    seconds per cell and, when traced, the layer summary.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import lgadmm
    import lgadmm.cli as cli

    settings = dict(cli._DEFAULTS["gamma-sweep"], n=workload.n)
    tracer = Tracer()
    if traced:
        install(tracer, lgadmm)
    try:
        cells = [cli._sweep_cell((settings["n"], instance, settings["rho"],
                                  gamma, settings["tol"], settings["max_iter"]))
                 for gamma in settings["gamma_grid"]]
    finally:
        tracer.restore()
    return [cell["seconds"] for cell in cells], (summarize(tracer.dump())
                                                 if traced else {})


def setup_times(workload: Workload, instance: int) -> list[float]:
    """Set-up seconds of ``SETUP_REPEATS`` fresh interpreters."""
    totals = []
    for _ in range(SETUP_REPEATS):
        cmd = [sys.executable, str(BENCH / "child.py"), "setup", str(workload.n),
               str(instance), repr(workload.gamma), repr(workload.sigma),
               "1" if workload.strict else "0"]
        done = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, check=True)
        totals.append(sum(json.loads(done.stdout).values()))
    return totals


# ---------------------------------------------------------------------------
# Aggregation and reporting.

def pool_mean(units: list[Unit], value) -> float:
    """Mean over instances of the per-instance median of ``value(unit)``."""
    per_instance: dict[int, list[float]] = {}
    for unit in units:
        per_instance.setdefault(unit.instance, []).append(value(unit))
    return statistics.fmean(statistics.median(v) for v in per_instance.values())


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """Highest percentile with at least ten samples above it, if any."""
    if len(samples) <= 10:
        return None
    q = math.floor(100 * (len(samples) - 10) / len(samples))
    ordered = sorted(samples)
    return q, ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def end_to_end_metrics(units: list[Unit], setups: list[float]) -> dict[str, float]:
    wall = pool_mean(units, lambda u: u.wall_s)
    iterations = pool_mean(units, lambda u: u.iterations)
    return {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "iterations": iterations,
        "ms_per_iter": wall * 1000.0 / iterations,
        "peak_rss_mb": pool_mean(units, lambda u: u.peak_rss_mb),
    }


def per_layer_metrics(plain: list[Unit], traced: list[Unit]) -> dict[str, float]:
    """Pool means of the traced units' layer figures, plus trace overhead."""
    metrics = {name: pool_mean(traced, lambda u: u.layers.get(name, 0.0))
               for name in PER_LAYER}
    metrics["certificates.failed"] = pool_mean(traced, lambda u: u.failed_checks)
    metrics["certificates.skipped"] = pool_mean(traced, lambda u: u.skipped_checks)
    if any(u.cell_seconds for u in plain):
        pool_cell = pool_mean(plain, lambda u: statistics.median(u.cell_seconds))
        serial_cell = pool_mean(traced, lambda u: u.layers["cli.sweep_cell.serial_s"])
        metrics["cli.sweep_cell.s"] = pool_cell
        metrics["cli.sweep_cell.serial_s"] = serial_cell
        metrics["cli.sweep_cell.inflation"] = pool_cell / serial_cell
        metrics["cli.sweep.workers"] = traced[0].layers.get("cli.sweep.workers", 1)
    metrics["trace.overhead_frac"] = (pool_mean(traced, lambda u: u.wall_s)
                                      / pool_mean(plain, lambda u: u.wall_s) - 1.0)
    return metrics


def machine_block() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": "unknown", "version": "unknown"}
    commit = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if done.returncode == 0:
            commit = done.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((SRC / "lgadmm").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "blas": blas,
        "blas_threads_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "start_method": multiprocessing.get_start_method(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


# ---------------------------------------------------------------------------

def traced_unit(workload: Workload, instance: int) -> Unit:
    """A traced CLI unit; on the sweep, plus the in-process serial replica.

    Pool workers' spans do not reach the CLI process, so the sweep's solver
    layers come from the traced replica, and the replica's untraced cell
    times give the single-process baseline for ``cli.sweep_cell.s``.
    """
    unit = run_unit(workload, instance, True)
    if workload.check is check_sweep and not unit.problems:
        cells, _ = sweep_replica(workload, instance, False)
        _, layers = sweep_replica(workload, instance, True)
        unit.layers = merge(unit.layers, layers)
        unit.layers["cli.sweep_cell.serial_s"] = statistics.median(cells)
    return unit


def measure(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    order = list(range(workload.pool))
    random.Random(seed).shuffle(order)
    setups = [] if trace else setup_times(workload, order[0])

    units: list[Unit] = []
    negative = None
    if workload.negative_control:
        units.append(run_unit(workload, order[0], False, negative_control=True))
        negative = {"exit_code": units[0].exit_code,
                    "failed_checks": units[0].failed_checks}

    plain: list[Unit] = []
    traced: list[Unit] = []
    self_check: list[str] = []
    start = time.perf_counter()
    i = 0
    while i < len(order) or time.perf_counter() - start < seconds:
        if time.perf_counter() - start > HARD_STOP_S:
            break
        instance = order[i % len(order)]
        plain.append(run_unit(workload, instance, False))
        if trace:
            traced.append(traced_unit(workload, instance))
            units.append(traced[-1])
            if i == 0:
                repeat = traced_unit(workload, instance)
                units.append(repeat)
                for name in EXACT_COUNTS:
                    a, b = (u.layers.get(name, 0) for u in (traced[-1], repeat))
                    if a != b:
                        self_check.append(
                            f"{name} differs between two traced runs: {a} vs {b}")
        i += 1
    units += plain

    failed = [u for u in units if u.problems]
    good_plain = [u for u in plain if not u.problems]
    good_traced = [u for u in traced if not u.problems]
    metrics: dict[str, float] = {}
    if trace and good_plain and good_traced:
        metrics = per_layer_metrics(good_plain, good_traced)
    elif not trace and good_plain:
        metrics = end_to_end_metrics(good_plain, setups)
    return {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "order": order,
        "setup_s_samples": setups,
        "units": [vars(u) for u in units],
        "negative_control": negative,
        "problems": [p for u in failed for p in u.problems] + self_check,
        "attempted": len(units),
        "failed": len(failed),
        "correct": not failed and not self_check and bool(metrics),
        "metrics": metrics,
        "wall_samples": [u.wall_s for u in plain],
    }


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--small", action="store_true",
                        help="reduced sizes, for the harness smoke test")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "lgadmm" / "__init__.py").is_file():
        print(f"error: no lgadmm package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    table = workloads(args.small)
    if args.workload not in table:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(table)}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    RESULTS.mkdir(exist_ok=True)

    machine = machine_block()
    record = measure(table[args.workload], args.seed, args.seconds,
                     bool(args.trace))
    record["machine"] = machine
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(record, indent=2) + "\n")

    units = {**PER_LAYER, **SWEEP_LAYERS} if args.trace else END_TO_END
    print("machine: " + json.dumps(machine, sort_keys=True))
    for problem in record["problems"]:
        print(f"FAILED: {problem}")
    negative = record["negative_control"]
    if negative is not None:
        print(f"{args.workload} negative control: exit code {negative['exit_code']}, "
              f"{negative['failed_checks']} of {len(CHECKS)} checks failed")
    for metric, value in record["metrics"].items():
        print(f"{args.workload} {metric} = {value:.6g} {units[metric]}")
    if not args.trace and record["metrics"]:
        samples = record["wall_samples"]
        tail = tail_percentile(samples)
        tail_text = (f"p{tail[0]} {tail[1]:.6g} s" if tail
                     else "no percentile has ten samples beyond it")
        print(f"{args.workload} wall_s per unit: median "
              f"{statistics.median(samples):.6g} s, {tail_text}, "
              f"{len(samples)} units over {len(set(record['order']))} instances")
    print(f"{args.workload} failed_frac = "
          f"{record['failed'] / max(record['attempted'], 1):.6g} "
          f"({record['failed']} of {record['attempted']} units)")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {metric: {"value": value, "unit": units[metric]}
                    for metric, value in record["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
