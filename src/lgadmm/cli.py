"""Command line harness: solve, relaxation sweeps, comparisons, certification.

Four subcommands drive the calibration benchmark end to end:

``solve``
    One run at a fixed relaxation factor; writes a trajectory CSV, a
    summary JSON, and the instance dump.
``gamma-sweep``
    A grid of relaxation factors crossed with repeat seeds, run in a
    worker pool; writes per-value means as CSV.
``baseline-compare``
    The same instance solved at relaxation 1.0 and 1.9; writes objective
    curves and a two-row summary table.
``certify``
    A strict-mode run whose recorded trajectory is fed through every
    certificate check; writes the reports as JSON and fails the process
    when any check fails.

Options can come from flags or from a ``key=value`` config file; flags
win. Each option is declared once, in ``_OPTIONS``, and one parser reads
both its flag and its config-file value. Exit codes are a stable
contract: 0 success, 2 configuration error, 3 divergence, 4 certificate
failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import os
import sys
import time
from typing import Sequence

import numpy as np

from .calibration import (
    CalibrationInstance,
    build_problem,
    default_metrics,
    dump_instance,
    generate_instance,
    proximal_scale,
)
from .certificates import (
    CertificateError,
    assemble_metrics,
    cross_term_check,
    ergodic_average,
    ergodic_gap_check,
    fejer_check,
    nonergodic_monotonicity_check,
    nonergodic_rate_check,
    replay,
    sigma_gamma,
    step_inequality_check,
    update_recurrence_check,
)
from .problem import (
    BlockProblemError,
    evaluate_objective,
    feasible_probe,
    zeros_point,
)
from .serialization import atomic_write_json, atomic_write_text, format_float
from .solver import (
    ConfigError,
    DivergenceError,
    OracleError,
    SolveResult,
    SolverConfig,
    StepReport,
    solve,
    validate_config,
)

__all__ = [
    "main",
    "run_solve",
    "run_gamma_sweep",
    "run_baseline_compare",
    "run_certify",
]

DEFAULT_GRID = tuple(round(0.2 * i, 10) for i in range(1, 10))
COMPARE_GAMMAS = (1.0, 1.9)
BURN_IN_FRACTION = 0.1

_COMMON_DEFAULTS = {
    "seed": 0,
    "rho": 1.0,
    "max_iter": 10_000,
}

# certify always solves strict, so it takes no strict option
_DEFAULTS = {
    "solve": dict(_COMMON_DEFAULTS, n=50, gamma=1.0, tol=1e-6, strict=False,
                  out="runs/solve"),
    "gamma-sweep": dict(_COMMON_DEFAULTS, n=50, tol=1e-6, strict=False, repeat=5,
                        workers=None, gamma_grid=DEFAULT_GRID,
                        out="runs/gamma-sweep"),
    "baseline-compare": dict(_COMMON_DEFAULTS, n=100, tol=1e-6, strict=False,
                             out="runs/baseline-compare"),
    "certify": dict(_COMMON_DEFAULTS, n=20, gamma=1.5, tol=1e-8, probes=10,
                    negative_control=False, out="runs/certify"),
}

# pinned to 1 in sweep workers, so that workers times BLAS threads stays
# within the cores the pool is sized for
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                         "MKL_NUM_THREADS")

_BOOL_WORDS = {
    "true": True, "1": True, "yes": True, "on": True,
    "false": False, "0": False, "no": False, "off": False,
}


def _parse_grid(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise ValueError(f"bad gamma grid {text!r}: {exc}") from None
    if not values:
        raise ValueError("gamma grid is empty")
    if len(set(values)) != len(values):
        raise ValueError(f"gamma grid {text!r} repeats a value")
    return values


def _parse_bool(text: str) -> bool:
    try:
        return _BOOL_WORDS[text.strip().lower()]
    except KeyError:
        raise ValueError(f"expected a boolean, got {text!r}") from None


# option -> (parser of its flag and config-file text, help); a subcommand
# takes the options its _DEFAULTS entry names, and a boolean is a bare flag
_OPTIONS = {
    "n": (int, "matrix order of the instance"),
    "seed": (int, "instance seed"),
    "rho": (float, "penalty parameter"),
    "gamma": (float, "relaxation factor"),
    "tol": (float, "stopping tolerance"),
    "max_iter": (int, "iteration cap"),
    "strict": (_parse_bool, "refuse configurations the theory does not cover"),
    "gamma_grid": (_parse_grid, "comma separated relaxation factors"),
    "repeat": (int, "seeds per grid value (seed..seed+repeat-1)"),
    "workers": (int, "worker processes (default: one per core)"),
    "probes": (int, "number of feasible probe points"),
    "negative_control": (_parse_bool,
                         "corrupt the trajectory to prove checks fail"),
    "out": (str, "output directory"),
}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _parse_option(key: str, text: str, where: str):
    try:
        return _OPTIONS[key][0](text)
    except ValueError as exc:
        raise ConfigError(f"{where}: bad value for {key}: {exc}") from None


def _read_config_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in _OPTIONS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = _parse_option(key, value.strip(), f"{path}:{lineno}")
    return values


def _merge_settings(args: argparse.Namespace) -> dict:
    """Layer hard defaults, then the config file, then explicit flags."""
    settings = dict(_DEFAULTS[args.command])
    if args.config:
        file_values = _read_config_file(args.config)
        unknown = set(file_values) - set(settings)
        if unknown:
            raise ConfigError(
                f"config keys not used by {args.command}: {sorted(unknown)}"
            )
        settings.update(file_values)
    for key in _DEFAULTS[args.command]:
        text = getattr(args, key)
        if text is not None:
            settings[key] = _parse_option(key, text, _flag(key))
    settings["command"] = args.command
    _check_settings(settings)
    return settings


def _check_settings(settings: dict) -> None:
    """Judge the settings before any output directory or pool exists: the
    solver's scalars by one ``SolverConfig`` per relaxation factor the
    command will run, then the rules of the command line alone."""
    if settings["n"] < 2:
        raise ConfigError(f"n must be at least 2, got {settings['n']}")
    gammas = (settings["gamma_grid"] if "gamma_grid" in settings
              else (settings["gamma"],) if "gamma" in settings else COMPARE_GAMMAS)
    for gamma in gammas:
        SolverConfig(rho=settings["rho"], gamma=gamma, proximal_metrics=(),
                     max_iterations=settings["max_iter"], tolerance=settings["tol"])
    for key in ("repeat", "workers", "probes"):
        if settings.get(key) is not None and settings[key] < 1:
            raise ConfigError(f"{key} must be at least 1")


def _solver_config(settings: dict, gamma: float, instance: CalibrationInstance, *,
                   strict: bool, record: bool = False) -> SolverConfig:
    return SolverConfig(
        rho=settings["rho"],
        gamma=gamma,
        proximal_metrics=default_metrics(instance, rho=settings["rho"]),
        max_iterations=settings["max_iter"],
        tolerance=settings["tol"],
        strict_theory_mode=strict,
        record_trajectory=record,
    )


def _output_directory(settings: dict) -> str:
    """Create the output directory; a path that cannot be one is a ConfigError."""
    out = settings["out"]
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot use {out!r} as the output directory: {exc}") from None
    return out


def _timed_solve(problem, config, start) -> tuple[SolveResult, float]:
    begin = time.perf_counter()
    result = solve(problem, config, start)
    return result, time.perf_counter() - begin


def _proximal(rho: float) -> dict:
    """The sigma of P_i = sigma I at ``rho``, and the linearized step's
    tau = sigma + rho ||A_i||^2, where A_i'A_i = 2 I."""
    sigma = proximal_scale(rho)
    return {"proximal_scale": sigma, "tau": sigma + 2.0 * rho}


def _summary_core(settings: dict, gamma: float, result: SolveResult,
                  objective: float, seconds: float) -> dict:
    return {
        "command": settings["command"],
        "n": settings["n"],
        "seed": settings["seed"],
        "rho": settings["rho"],
        **_proximal(settings["rho"]),
        "gamma": gamma,
        "tolerance": settings["tol"],
        "max_iterations": settings["max_iter"],
        "iterations": result.iterations,
        "converged": result.converged,
        "stop_reason": result.stop_reason,
        "final_epsilon": result.final_epsilon,
        "objective": objective,
        "wall_seconds": seconds,
    }


def _write_csv(path: str, header: Sequence[str], rows) -> None:
    """One CSV artifact: floats with 17 significant digits, booleans in
    lower case, ints as written, ``None`` as an empty cell."""
    def cell(value) -> str:
        if value is None:
            return ""
        if isinstance(value, bool):
            return str(value).lower()
        if isinstance(value, float):
            return format_float(value)
        return str(value)

    lines = [",".join(header)]
    lines += [",".join(cell(value) for value in row) for row in rows]
    atomic_write_text(path, "\n".join(lines) + "\n")


def _write_trajectory_csv(path: str, reports: Sequence[StepReport],
                          num_blocks: int) -> None:
    """Per-iteration diagnostics, one row per step."""
    header = ["k", "feasibility_residual", "objective",
              *(f"rel_change_block_{i + 1}" for i in range(num_blocks)),
              "rel_change_multiplier"]
    _write_csv(path, header, [
        (k, report.feasibility_residual, report.objective,
         *report.successive_change)
        for k, report in enumerate(reports, start=1)])


def run_solve(settings: dict) -> int:
    """Solve one calibration instance and write its artifacts.

    Writes ``trajectory.csv``, ``summary.json`` and the instance dump
    (``c_matrix.txt`` plus ``instance.json``) into the output directory.

    Parameters
    ----------
    settings : dict
        Merged options; see ``_DEFAULTS["solve"]`` for the keys.

    Returns
    -------
    int
        Process exit code, 0 on success.
    """
    out = _output_directory(settings)
    instance = generate_instance(settings["n"], settings["seed"])
    problem = build_problem(instance)
    config = _solver_config(settings, settings["gamma"], instance,
                            strict=settings["strict"])
    result, seconds = _timed_solve(problem, config, zeros_point(problem))
    objective = evaluate_objective(problem, result.final)

    _write_trajectory_csv(os.path.join(out, "trajectory.csv"), result.reports,
                          problem.num_blocks)
    summary = _summary_core(settings, settings["gamma"], result, objective, seconds)
    summary["validation"] = result.validation.to_dict()
    atomic_write_json(os.path.join(out, "summary.json"), summary)
    dump_instance(instance, out)
    print(f"solve: {result.iterations} iterations, objective {objective:.6f}, "
          f"converged={result.converged} -> {out}")
    return 0


def _sweep_cell(task: tuple) -> dict:
    """One sweep cell (module-level so worker processes can import it)."""
    n, seed, rho, gamma, tol, max_iter = task
    instance = generate_instance(n, seed)
    problem = build_problem(instance)
    config = _solver_config(dict(rho=rho, tol=tol, max_iter=max_iter), gamma,
                            instance, strict=False)
    result, seconds = _timed_solve(problem, config, zeros_point(problem))
    return {
        "gamma": gamma,
        "seed": seed,
        "iterations": result.iterations,
        "seconds": seconds,
        "objective": evaluate_objective(problem, result.final),
        "converged": result.converged,
    }


def _spearman(xs: list, ys: list) -> float:
    def ranks(values):
        # tied values share the mean of the ranks they span
        _, group, counts = np.unique(values, return_inverse=True, return_counts=True)
        return (np.cumsum(counts) - 0.5 * (counts - 1))[group]

    rx, ry = (r - r.mean() for r in (ranks(xs), ranks(ys)))
    denom = float(np.sqrt((rx @ rx) * (ry @ ry)))
    return float(rx @ ry) / denom if denom else 0.0


def ProcessPoolExecutor(*args, **kwargs):
    """A ``concurrent.futures.ProcessPoolExecutor``, imported on the first
    call: only a sweep with more than one worker loads ``multiprocessing``."""
    from concurrent.futures import ProcessPoolExecutor as pool_class
    return pool_class(*args, **kwargs)


def _spawn_map(function, tasks: list, workers: int) -> list:
    """``map`` over a pool of freshly spawned processes with single-threaded BLAS.

    The thread variables are set in this process's environment while the
    workers start, so each worker's BLAS reads them when it first loads
    (forked workers would inherit this process's BLAS as it is), and
    restored afterwards.
    """
    import multiprocessing

    saved = {name: os.environ.get(name) for name in _BLAS_THREAD_VARIABLES}
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARIABLES, "1"))
    try:
        with ProcessPoolExecutor(
                max_workers=workers,
                mp_context=multiprocessing.get_context("spawn")) as pool:
            return list(pool.map(function, tasks))
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def run_gamma_sweep(settings: dict) -> int:
    """Sweep the relaxation factor over a grid with repeated seeds.

    Each (grid value, seed) cell is an independent solve, run in a pool of
    spawned processes with single-threaded BLAS; per-value means land in
    ``sweep.csv`` with columns ``gamma``, ``mean_iterations``,
    ``mean_seconds``, ``mean_objective``, and the sweep configuration plus
    the rank correlation between the grid and the mean iteration counts
    land in ``summary.json``. A script that calls this must guard its own
    entry point with ``if __name__ == "__main__"``, because spawned workers
    import the main module. Under ``strict`` every grid value is validated
    before any cell runs.

    Parameters
    ----------
    settings : dict
        Merged options; see ``_DEFAULTS["gamma-sweep"]`` for the keys.

    Returns
    -------
    int
        Process exit code, 0 on success.
    """
    grid = tuple(settings["gamma_grid"])
    if settings["strict"]:
        # the spectral facts depend on n, rho, gamma and the metrics, not the seed
        instance = generate_instance(settings["n"], settings["seed"])
        problem = build_problem(instance)
        for gamma in grid:
            validate_config(problem, _solver_config(settings, gamma, instance, strict=True))
    out = _output_directory(settings)
    seeds = [settings["seed"] + r for r in range(settings["repeat"])]
    tasks = [
        (settings["n"], seed, settings["rho"], gamma, settings["tol"],
         settings["max_iter"])
        for gamma in grid for seed in seeds
    ]
    workers = settings["workers"] or min(len(tasks), os.cpu_count() or 1)
    if workers > 1:
        cells = _spawn_map(_sweep_cell, tasks, workers)
    else:
        cells = [_sweep_cell(task) for task in tasks]

    per_gamma = []
    for gamma in grid:
        rows = [c for c in cells if c["gamma"] == gamma]
        per_gamma.append({
            "gamma": gamma,
            "mean_iterations": float(np.mean([c["iterations"] for c in rows])),
            "mean_seconds": float(np.mean([c["seconds"] for c in rows])),
            "mean_objective": float(np.mean([c["objective"] for c in rows])),
        })

    header = ("gamma", "mean_iterations", "mean_seconds", "mean_objective")
    _write_csv(os.path.join(out, "sweep.csv"), header,
               [[row[key] for key in header] for row in per_gamma])

    spearman = _spearman([row["gamma"] for row in per_gamma],
                         [row["mean_iterations"] for row in per_gamma])
    summary = {
        "command": "gamma-sweep",
        "n": settings["n"],
        "seeds": seeds,
        "rho": settings["rho"],
        **_proximal(settings["rho"]),
        "tolerance": settings["tol"],
        "max_iterations": settings["max_iter"],
        "gamma_grid": list(grid),
        "spearman_gamma_iterations": spearman,
        "all_converged": all(c["converged"] for c in cells),
    }
    atomic_write_json(os.path.join(out, "summary.json"), summary)
    print(f"gamma-sweep: {len(tasks)} runs, rank correlation "
          f"{spearman:+.3f} -> {out}")
    return 0


def _monotone_after_burn_in(curve: list[float]) -> bool | None:
    """Whether the curve never rises after its burn-in; ``None`` when fewer
    than two points follow the burn-in, so there was nothing to check."""
    skip = max(10, int(len(curve) * BURN_IN_FRACTION))
    tail = curve[skip:]
    if len(tail) < 2:
        return None
    return all(b <= a + 1e-8 * (1.0 + abs(a)) for a, b in zip(tail, tail[1:]))


def run_baseline_compare(settings: dict) -> int:
    """Solve one instance at relaxation 1.0 and 1.9 and compare the runs.

    Writes ``compare_curves.csv`` (per-iteration objective values, one
    column per run) and ``compare_summary.csv`` (iterations, seconds,
    objective, final epsilon, convergence and curve-shape flags per run; the
    monotonicity cell is empty when too few steps follow the burn-in),
    plus a ``summary.json`` holding the iteration ratio and the relative
    objective gap between the two runs.

    Parameters
    ----------
    settings : dict
        Merged options; see ``_DEFAULTS["baseline-compare"]`` for the keys.

    Returns
    -------
    int
        Process exit code, 0 on success.
    """
    out = _output_directory(settings)
    instance = generate_instance(settings["n"], settings["seed"])
    problem = build_problem(instance)

    runs = []
    for gamma in COMPARE_GAMMAS:
        config = _solver_config(settings, gamma, instance, strict=settings["strict"])
        result, seconds = _timed_solve(problem, config, zeros_point(problem))
        curve = [report.objective for report in result.reports]
        runs.append({
            "gamma": gamma,
            "iterations": result.iterations,
            "seconds": seconds,
            "objective": evaluate_objective(problem, result.final),
            "final_epsilon": result.final_epsilon,
            "converged": result.converged,
            "monotone_after_burn_in": _monotone_after_burn_in(curve),
            "curve": curve,
        })

    labels = [str(run["gamma"]).replace(".", "_") for run in runs]
    # a run that stopped earlier leaves its column empty from then on
    curves = itertools.zip_longest(*(run["curve"] for run in runs))
    _write_csv(os.path.join(out, "compare_curves.csv"),
               ["k", *(f"objective_gamma_{label}" for label in labels)],
               [(k, *values) for k, values in enumerate(curves, start=1)])
    header = ("gamma", "iterations", "seconds", "objective", "final_epsilon",
              "converged", "monotone_after_burn_in")
    _write_csv(os.path.join(out, "compare_summary.csv"), header,
               [[run[key] for key in header] for run in runs])

    first, second = runs
    gap_scale = max(abs(first["objective"]), abs(second["objective"]), 1e-30)
    summary = {
        "command": "baseline-compare",
        "n": settings["n"],
        "seed": settings["seed"],
        "rho": settings["rho"],
        **_proximal(settings["rho"]),
        "tolerance": settings["tol"],
        "gammas": list(COMPARE_GAMMAS),
        "iteration_ratio": first["iterations"] / second["iterations"],
        "objective_relative_gap":
            abs(first["objective"] - second["objective"]) / gap_scale,
        "all_converged": all(run["converged"] for run in runs),
    }
    atomic_write_json(os.path.join(out, "summary.json"), summary)
    print(f"baseline-compare: {first['iterations']} vs {second['iterations']} "
          f"iterations (ratio {summary['iteration_ratio']:.2f}) -> {out}")
    return 0


def _corrupt_trajectory(trajectory, magnitude: float = 1e3) -> int:
    """Shift one interior point, in its row, so identity and contraction
    checks break."""
    mid = (trajectory.steps + 1) // 2
    first, *_, multiplier = trajectory.problem.slices
    row = trajectory.row(mid)
    row[first] += magnitude
    row[multiplier] += magnitude
    return mid


def run_certify(settings: dict) -> int:
    """Run a strict-mode solve and evaluate every certificate check on it.

    The proximal metrics are those of every subcommand, ``proximal_scale(rho)``
    times the identity per block, under which the coupled first-phase metric
    is positive definite. The reference point comes from a second solve at
    100 times tighter tolerance and 10 times the iteration budget; it
    continues the strict run from its final state instead of starting again
    from zero, which gives the same reference bit for bit (the strict run is
    a prefix of the tighter one) after only the steps beyond it; the
    summary's ``reference`` says how that solve ended. When it ended short of
    its tolerance, the Fejer and rate checks, which measure distances to the
    reference, are skipped with that reason. One ``replay`` of the
    trajectory, which derives each auxiliary point once, feeds all seven
    checks; they are written to ``certificates.json``, and any failed check
    turns into exit code 4. The ``negative_control`` setting corrupts one
    recorded point first, to prove the checks can fail.

    Parameters
    ----------
    settings : dict
        Merged options; see ``_DEFAULTS["certify"]`` for the keys.

    Returns
    -------
    int
        Process exit code, 0 when every check passes, 4 otherwise.
    """
    out = _output_directory(settings)
    instance = generate_instance(settings["n"], settings["seed"])
    problem = build_problem(instance)
    gamma = settings["gamma"]

    config = _solver_config(settings, gamma, instance, strict=True, record=True)
    result, seconds = _timed_solve(problem, config, zeros_point(problem))
    trajectory = result.trajectory

    reference_config = dataclasses.replace(
        config, tolerance=settings["tol"] * 1e-2,
        max_iterations=settings["max_iter"] * 10, record_trajectory=False)
    reference_run = solve(problem, reference_config, result.state)
    reference = reference_run.final
    # the two checks that measure distances to the reference need it to be a solution
    unsolved_reference = None if reference_run.stop_reason == "tolerance" else (
        f"the reference solve stopped at {reference_run.stop_reason} with "
        f"final_epsilon {reference_run.final_epsilon:.6g}, so it may not be a solution")

    metrics = assemble_metrics(problem, config)
    probes = [feasible_probe(problem, settings["seed"] + 2_000_000 + j)
              for j in range(settings["probes"])]

    corrupted_at = None
    if settings["negative_control"]:
        corrupted_at = _corrupt_trajectory(trajectory)

    # one pass over the trajectory, after any corruption, for all seven checks
    record = replay(metrics, trajectory, reference, probes)
    reports = [
        update_recurrence_check(record),
        fejer_check(record, unsolved_reference),
        nonergodic_monotonicity_check(record),
        nonergodic_rate_check(record, unsolved_reference),
        cross_term_check(record),
        ergodic_gap_check(record, ergodic_average(record)),
        step_inequality_check(record),
    ]
    failed = [r.check for r in reports if r.passed is False]
    skipped = [r.check for r in reports if r.skipped]

    summary = _summary_core(settings, gamma, result,
                            evaluate_objective(problem, result.final), seconds)
    summary.update({
        "sigma_gamma": sigma_gamma(gamma),
        "num_probes": settings["probes"],
        "negative_control": bool(settings["negative_control"]),
        "corrupted_iteration": corrupted_at,
        "reference": {"iterations": reference_run.iterations,
                      "stop_reason": reference_run.stop_reason,
                      "final_epsilon": reference_run.final_epsilon},
        "validation": result.validation.to_dict(),
        "metric_conditions": metrics.to_dict(),
        "failed_checks": failed,
        "skipped_checks": skipped,
    })
    atomic_write_json(os.path.join(out, "summary.json"), summary)
    atomic_write_json(os.path.join(out, "certificates.json"),
                      {"summary": summary,
                       "checks": [r.to_dict() for r in reports]})
    dump_instance(instance, out)

    status = "FAIL" if failed else "pass"
    print(f"certify: {len(reports)} checks, {len(failed)} failed, "
          f"{len(skipped)} skipped [{status}] -> {out}")
    return 4 if failed else 0


_COMMANDS = {
    "solve": (run_solve, "run one instance"),
    "gamma-sweep": (run_gamma_sweep, "sweep the relaxation factor"),
    "baseline-compare": (run_baseline_compare,
                         "same instance at relaxation 1.0 and 1.9"),
    "certify": (run_certify, "strict run plus every certificate check"),
}


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command, with one flag per key of its ``_DEFAULTS``.

    Flags keep their text (a bare boolean flag stores ``"true"``), which
    ``_merge_settings`` parses as it parses a config-file value.
    """
    parser = argparse.ArgumentParser(
        prog="lgadmm",
        description="Calibration benchmark harness for the multi-block "
                    "relaxed splitting solver.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for command, (_, command_help) in _COMMANDS.items():
        sub = commands.add_parser(command, help=command_help)
        for key in _DEFAULTS[command]:
            parse, option_help = _OPTIONS[key]
            bare = (dict(action="store_const", const="true")
                    if parse is _parse_bool else {})
            sub.add_argument(_flag(key), dest=key, help=option_help, **bare)
        sub.add_argument("--config", help="key=value defaults file (flags win)")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Parse arguments, run the selected subcommand, map errors to exit codes.

    Parameters
    ----------
    argv : list of str, optional
        Arguments without the program name; defaults to ``sys.argv[1:]``.

    Returns
    -------
    int
        0 success, 2 configuration error, 3 divergence or oracle failure,
        4 certificate failure.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        settings = _merge_settings(args)
        return _COMMANDS[args.command][0](settings)
    except (ConfigError, BlockProblemError, CertificateError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DivergenceError, OracleError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
