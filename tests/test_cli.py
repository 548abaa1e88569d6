import gc
import json
import os
import re
import subprocess
import sys
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from lgadmm import DivergenceError, PrimalDualPoint
from lgadmm import certificates, cli, solver
from reference import identity_metrics
from util import scalar_zero_problem


def run_cli(args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "lgadmm.cli", *args],
        capture_output=True, text=True, cwd=cwd)


def test_solve_writes_artifacts_and_summary(tmp_path):
    out = tmp_path / "run"
    proc = run_cli(["solve", "--n", "8", "--seed", "1", "--out", str(out)])
    assert proc.returncode == 0, proc.stderr
    for name in ("trajectory.csv", "summary.json", "c_matrix.txt",
                 "instance.json"):
        assert (out / name).exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["command"] == "solve"
    assert summary["n"] == 8
    assert summary["gamma"] == 1.0
    # sigma = 1.05 rho, and the linearized step's tau = sigma + 2 rho
    assert (summary["proximal_scale"], summary["tau"]) == (1.05, 3.05)
    assert summary["converged"] is True
    assert summary["final_epsilon"] < 1e-6
    # every run is strict, and the defaults are provable
    assert summary["validation"]["strict"] is True
    assert summary["validation"]["warnings"] == []


def test_solve_reruns_are_byte_identical(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        # seed 4 at the default sigma does not converge: the runs stop at the cap
        proc = run_cli(["solve", "--n", "6", "--seed", "4", "--max-iter", "1000",
                        "--out", str(out)])
        assert proc.returncode == 0, proc.stderr
    assert (out_a / "trajectory.csv").read_bytes() == \
        (out_b / "trajectory.csv").read_bytes()
    assert (out_a / "c_matrix.txt").read_bytes() == \
        (out_b / "c_matrix.txt").read_bytes()
    sum_a = json.loads((out_a / "summary.json").read_text())
    sum_b = json.loads((out_b / "summary.json").read_text())
    sum_a.pop("wall_seconds")
    sum_b.pop("wall_seconds")
    assert sum_a == sum_b
    assert sum_a["stop_reason"] == "iteration_limit"


@pytest.mark.parametrize("flags, code", [([], 0), (["--negative-control"], 4)])
def test_certify_reruns_are_byte_identical(tmp_path, flags, code):
    certified = []
    for out in (tmp_path / "a", tmp_path / "b"):
        proc = run_cli(["certify", "--n", "6", *flags, "--out", str(out)])
        assert proc.returncode == code, proc.stderr
        texts = [(out / name).read_text()
                 for name in ("summary.json", "certificates.json")]
        # wall_seconds is the only timing field; it is one line of each file
        certified.append([re.sub(r'"wall_seconds": [^,\n]*', "", text)
                          for text in texts])
        assert all('"wall_seconds"' in text for text in texts)
    assert certified[0] == certified[1]


def test_solve_rejects_gamma_out_of_range(tmp_path):
    proc = run_cli(["solve", "--n", "6", "--gamma", "2.5",
                    "--out", str(tmp_path / "run")])
    assert proc.returncode == 2
    assert "gamma" in proc.stderr


@pytest.mark.parametrize("command", ["solve", "gamma-sweep", "baseline-compare", "certify"])
def test_strict_mode_refuses_a_first_phase_margin_below_tolerance(tmp_path, command):
    # at rho = 1e-9 the first-phase min eigenvalue sigma - rho = 5e-11 is
    # under validation's 1e-10 tolerance, so nothing is proven
    out = tmp_path / "run"
    proc = run_cli([command, "--n", "6", "--rho", "1e-9", "--out", str(out)])
    assert proc.returncode == 2
    assert "strict theory mode" in proc.stderr and "first-phase" in proc.stderr
    assert not out.exists()


def test_certify_refuses_a_strict_option(tmp_path, capsys):
    # every subcommand runs strict: a strict flag or key is an error, not a no-op
    out = str(tmp_path / "run")
    config_file = tmp_path / "run.conf"
    config_file.write_text("strict = no\n")
    for command in ("solve", "gamma-sweep", "baseline-compare", "certify"):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--n", "6", "--strict", "--out", out])
        assert exc.value.code == 2
        assert "unrecognized arguments: --strict" in capsys.readouterr().err
        assert cli.main([command, "--n", "6", "--config", str(config_file),
                         "--out", out]) == 2
        assert capsys.readouterr().err == (
            f"error: {config_file}:1: unknown config key 'strict'\n")
        assert not os.path.exists(out)


def test_config_file_with_flag_override(tmp_path):
    config_file = tmp_path / "run.conf"
    config_file.write_text("n = 6\ngamma = 1.2\n# comment line\n")
    out = tmp_path / "run"
    proc = run_cli(["solve", "--config", str(config_file),
                    "--n", "5", "--out", str(out)])
    assert proc.returncode == 0, proc.stderr
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n"] == 5
    assert summary["gamma"] == 1.2


def test_config_file_rejects_unknown_key(tmp_path):
    config_file = tmp_path / "run.conf"
    config_file.write_text("nn = 6\n")
    proc = run_cli(["solve", "--config", str(config_file),
                    "--out", str(tmp_path / "run")])
    assert proc.returncode == 2


def test_gamma_sweep_single_cell_matches_solve(tmp_path):
    solve_out = tmp_path / "solve"
    proc = run_cli(["solve", "--n", "8", "--seed", "2",
                    "--out", str(solve_out)])
    assert proc.returncode == 0, proc.stderr
    solve_iters = json.loads((solve_out / "summary.json").read_text())["iterations"]

    sweep_out = tmp_path / "sweep"
    proc = run_cli(["gamma-sweep", "--n", "8", "--seed", "2",
                    "--gamma-grid", "1.0", "--repeat", "1",
                    "--workers", "1", "--out", str(sweep_out)])
    assert proc.returncode == 0, proc.stderr
    lines = (sweep_out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "gamma,mean_iterations,mean_seconds,mean_objective"
    assert len(lines) == 2
    cells = lines[1].split(",")
    assert float(cells[0]) == 1.0
    assert float(cells[1]) == solve_iters
    summary = json.loads((sweep_out / "summary.json").read_text())
    assert summary["all_converged"] is True
    assert (summary["proximal_scale"], summary["tau"]) == (1.05, 3.05)


def test_sweep_pool_workers_start_with_single_threaded_blas(monkeypatch):
    import pool_probe

    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    names = list(cli._BLAS_THREAD_VARIABLES)
    seen = cli._spawn_map(pool_probe.worker_view, names, 2)
    # pinned before the worker has imported numpy, so its BLAS reads it
    assert seen == [("1", False)] * len(names)
    assert "OPENBLAS_NUM_THREADS" not in os.environ
    assert os.environ["OMP_NUM_THREADS"] == "3"


def test_sweep_pool_is_built_through_the_module_level_factory(monkeypatch):
    # the benchmark's tracer counts workers by replacing cli.ProcessPoolExecutor
    calls = []

    class InlinePool:
        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, function, tasks):
            return map(function, tasks)

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return InlinePool()

    monkeypatch.setattr(cli, "ProcessPoolExecutor", recording)
    assert cli._spawn_map(abs, [-1, 2, -3], 2) == [1, 2, 3]
    [(args, kwargs)] = calls
    assert args == () and set(kwargs) == {"max_workers", "mp_context"}
    assert kwargs["max_workers"] == 2
    assert kwargs["mp_context"].get_start_method() == "spawn"


def test_only_a_parallel_sweep_imports_the_worker_pool(tmp_path):
    script = f"""
import sys
import lgadmm.cli as cli
def report():
    print([name in sys.modules for name in ("multiprocessing", "concurrent.futures.process")])
report()
assert cli.main(["certify", "--n", "8", "--out", {str(tmp_path / "certify")!r}]) == 0
report()
assert cli.main(["baseline-compare", "--n", "10", "--out", {str(tmp_path / "compare")!r}]) == 0
report()
# the factory loads both; a pool starts no process before its first task
with cli.ProcessPoolExecutor(max_workers=1):
    pass
report()
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = [line for line in proc.stdout.splitlines() if line.startswith("[")]
    assert lines == ["[False, False]"] * 3 + ["[True, True]"]


def test_gamma_sweep_rejects_grid_outside_range(tmp_path):
    proc = run_cli(["gamma-sweep", "--n", "6", "--gamma-grid", "0.5,2.0",
                    "--out", str(tmp_path / "run")])
    assert proc.returncode == 2


@pytest.mark.parametrize("flag, value, message", [
    ("--rho", "nan", "rho must be positive and finite, got nan"),
    ("--rho", "inf", "rho must be positive and finite, got inf"),
    ("--tol", "nan", "tolerance must be positive, got nan"),
    ("--tol", "inf", "tolerance must be positive, got inf"),
])
def test_gamma_sweep_refuses_non_finite_values_before_the_pool(
        tmp_path, monkeypatch, capsys, flag, value, message):
    def no_pool(*args):
        raise AssertionError("the sweep started a pool")

    monkeypatch.setattr(cli, "_spawn_map", no_pool)
    out = tmp_path / "run"
    assert cli.main(["gamma-sweep", "--n", "8", "--workers", "2", flag, value,
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("args, message", [
    (["solve", "--gamma", "2.5"], "gamma must lie strictly between 0 and 2, got 2.5"),
    (["solve", "--gamma", "nan"], "gamma must lie strictly between 0 and 2, got nan"),
    (["certify", "--gamma", "0"], "gamma must lie strictly between 0 and 2, got 0.0"),
    (["gamma-sweep", "--workers", "2", "--gamma-grid", "0.5,2.0"],
     "gamma must lie strictly between 0 and 2, got 2.0"),
    (["gamma-sweep", "--workers", "2", "--max-iter", "0"],
     "max_iterations must be at least 1"),
    (["baseline-compare", "--max-iter", "0"], "max_iterations must be at least 1"),
])
def test_solver_scalars_are_refused_in_solver_config_wording_before_any_output(
        tmp_path, monkeypatch, capsys, args, message):
    def no_pool(*args):
        raise AssertionError("the sweep started a pool")

    monkeypatch.setattr(cli, "_spawn_map", no_pool)
    out = tmp_path / "run"
    assert cli.main([*args, "--n", "8", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("grid", ["1.0,1.0,1.5", "0.5,1.5,1.50"])
def test_gamma_sweep_refuses_a_repeated_grid_value_before_any_output(
        tmp_path, monkeypatch, capsys, grid):
    def no_pool(*args):
        raise AssertionError("the sweep started a pool")

    monkeypatch.setattr(cli, "_spawn_map", no_pool)
    out = tmp_path / "run"
    assert cli.main(["gamma-sweep", "--n", "8", "--workers", "2",
                     "--gamma-grid", grid, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: --gamma-grid: bad value for gamma_grid: gamma grid {grid!r} "
        "repeats a value\n")
    assert not out.exists()


def test_spearman_gives_tied_values_their_average_rank():
    assert cli._spearman([3.0, 2.0, 1.0], [5.0, 5.0, 5.0]) == 0.0
    assert cli._spearman([1.0, 2.0, 3.0], [5.0, 5.0, 4.0]) == pytest.approx(-np.sqrt(3.0) / 2.0)
    assert cli._spearman([0.5, 1.0, 1.5], [30.0, 20.0, 10.0]) == -1.0
    assert cli._spearman([0.5, 1.0, 1.5], [10.0, 30.0, 20.0]) == 0.5


def test_a_sweep_capped_in_every_cell_reports_no_trend(tmp_path):
    out = tmp_path / "run"
    assert cli.main(["gamma-sweep", "--n", "6", "--repeat", "1", "--workers", "1",
                     "--max-iter", "3", "--gamma-grid", "0.5,1.0,1.5",
                     "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["all_converged"] is False
    assert summary["spearman_gamma_iterations"] == 0.0


@pytest.mark.parametrize("command", ["solve", "gamma-sweep", "baseline-compare", "certify"])
@pytest.mark.parametrize("below", [False, True])
def test_an_out_that_cannot_be_a_directory_is_a_configuration_error(
        tmp_path, capsys, command, below):
    taken = tmp_path / "taken"
    taken.write_text("a file\n")
    out = taken / "run" if below else taken
    assert cli.main([command, "--n", "4", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: cannot use {str(out)!r} as the output directory: ")
    assert taken.read_text() == "a file\n"


@pytest.mark.parametrize("command, flags", [
    ("solve", []),
    ("gamma-sweep", ["--gamma-grid", "1.0", "--repeat", "1", "--workers", "1"]),
    ("baseline-compare", []),
    ("certify", []),
])
def test_every_summary_opens_with_the_same_head(tmp_path, command, flags):
    # a capped run can be read from any summary: each records its cap
    out = tmp_path / "run"
    assert cli.main([command, "--n", "6", "--seed", "3", "--rho", "2", "--tol", "1e-5",
                     "--max-iter", "7", *flags, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    sigma = 1.05 * 2.0
    assert {key: summary[key] for key in (
        "command", "n", "seed", "rho", "proximal_scale", "tau", "tolerance",
        "max_iterations")} == dict(
        command=command, n=6, seed=3, rho=2.0, proximal_scale=sigma,
        tau=sigma + 2.0 * 2.0, tolerance=1e-5, max_iterations=7)
    if command == "gamma-sweep":
        assert summary["seeds"] == [3]


def test_baseline_compare_artifacts(tmp_path):
    out = tmp_path / "run"
    proc = run_cli(["baseline-compare", "--n", "10", "--out", str(out)])
    assert proc.returncode == 0, proc.stderr
    rows = (out / "compare_summary.csv").read_text().splitlines()
    assert rows[0] == ("gamma,iterations,seconds,objective,final_epsilon,"
                       "converged,monotone_after_burn_in")
    assert len(rows) == 3
    gammas = [float(row.split(",")[0]) for row in rows[1:]]
    assert gammas == [1.0, 1.9]
    curves = (out / "compare_curves.csv").read_text().splitlines()
    assert curves[0] == "k,objective_gamma_1_0,objective_gamma_1_9"
    summary = json.loads((out / "summary.json").read_text())
    assert summary["iteration_ratio"] > 1.0
    assert summary["all_converged"] is True
    assert (summary["proximal_scale"], summary["tau"]) == (1.05, 3.05)


def test_certify_passes_and_reports_checks(tmp_path):
    out = tmp_path / "run"
    proc = run_cli(["certify", "--n", "6", "--out", str(out)])
    assert proc.returncode == 0, proc.stderr
    report = json.loads((out / "certificates.json").read_text())
    assert len(report["checks"]) == 7
    assert all(check["passed"] is not False for check in report["checks"])
    summary = report["summary"]
    assert summary["sigma_gamma"] == pytest.approx(1.0 / 3.0)
    assert summary["failed_checks"] == []


def test_certify_records_how_its_reference_ended(tmp_path):
    out = tmp_path / "run"
    assert cli.main(["certify", "--n", "8", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    reference = summary["reference"]
    assert set(reference) == {"iterations", "stop_reason", "final_epsilon"}
    assert reference["stop_reason"] == "tolerance"
    assert reference["final_epsilon"] < summary["tolerance"] * 1e-2
    assert summary["iterations"] < reference["iterations"] <= 10 * summary["max_iterations"]
    assert json.loads((out / "certificates.json").read_text())["summary"] == summary


def test_certify_proximal_scale_follows_rho(tmp_path):
    # sigma = 1.05 rho keeps every condition proven at any rho; a sigma
    # fixed apart from rho (4 at rho = 5) left the first phase indefinite
    out = tmp_path / "run"
    assert cli.main(["certify", "--n", "8", "--rho", "5", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert (summary["proximal_scale"], summary["tau"]) == (5.25, 15.25)
    assert summary["failed_checks"] == summary["skipped_checks"] == []


def test_certify_skips_the_reference_checks_when_the_reference_is_unsolved(tmp_path):
    # the reference stops at its cap of 200 steps, far from a solution: the
    # two checks that measure distances to it are skipped, not passed
    out = tmp_path / "run"
    assert cli.main(["certify", "--n", "8", "--max-iter", "20", "--out", str(out)]) == 0
    report = json.loads((out / "certificates.json").read_text())
    summary = report["summary"]
    reference = summary["reference"]
    assert reference["stop_reason"] == "iteration_limit"
    assert summary["skipped_checks"] == ["fejer_contraction", "nonergodic_rate"]
    assert summary["failed_checks"] == []
    for check in report["checks"]:
        if check["check"] in summary["skipped_checks"]:
            assert check["passed"] is None
            assert check["skipped_reason"] == (
                "the reference solve stopped at iteration_limit with final_epsilon "
                f"{reference['final_epsilon']:.6g}, so it may not be a solution")
        else:
            assert check["passed"] is True, check


def test_certify_sigma_gamma_tracks_gamma(tmp_path):
    out = tmp_path / "run"
    proc = run_cli(["certify", "--n", "6", "--gamma", "1.0",
                    "--out", str(out)])
    assert proc.returncode == 0, proc.stderr
    summary = json.loads((out / "summary.json").read_text())
    assert summary["sigma_gamma"] == 1.0


def test_certify_negative_control_fails(tmp_path):
    out = tmp_path / "run"
    proc = run_cli(["certify", "--n", "6", "--negative-control",
                    "--out", str(out)])
    assert proc.returncode == 4
    summary = json.loads((out / "summary.json").read_text())
    assert summary["negative_control"] is True
    assert summary["corrupted_iteration"] is not None
    assert len(summary["failed_checks"]) >= 1
    checks = {c["check"]: c for c in
              json.loads((out / "certificates.json").read_text())["checks"]}
    # the first step that fails is the one into the corrupted point
    recurrence = checks["update_recurrence"]["details"]
    assert recurrence["first_violation"] == summary["corrupted_iteration"] - 1
    for check in checks.values():
        assert ("first_violation" in check.get("details", {})) == (
            check["passed"] is False), check["check"]


def test_negative_control_does_not_reach_the_answer(tmp_path):
    # after one step the corrupted point is w^1, the last row; the corruption
    # writes into the row, so a final iterate that shared the row's memory
    # would report the corrupted objective
    summaries = {}
    for name, flags, code in (("clean", [], 0), ("negative", ["--negative-control"], 4)):
        out = tmp_path / name
        assert cli.main(["certify", "--n", "6", "--max-iter", "1", *flags,
                         "--out", str(out)]) == code
        summaries[name] = json.loads((out / "summary.json").read_text())
    clean, negative = summaries["clean"], summaries["negative"]
    assert negative["corrupted_iteration"] == negative["iterations"] == 1
    assert "update_recurrence" in negative["failed_checks"]
    assert clean["failed_checks"] == []
    assert negative["objective"] == clean["objective"]
    assert negative["final_epsilon"] == clean["final_epsilon"]


def test_certify_reference_continues_the_strict_run(tmp_path, monkeypatch):
    steps = []
    solves = []
    counted_step, counted_solve = solver.step, cli.solve

    def step(*args, **kwargs):
        steps.append(1)
        return counted_step(*args, **kwargs)

    def solve(problem, config, start):
        result = counted_solve(problem, config, start)
        solves.append((config, start, result))
        return result

    monkeypatch.setattr(solver, "step", step)
    monkeypatch.setattr(cli, "solve", solve)
    assert cli.main(["certify", "--n", "6", "--out", str(tmp_path / "run")]) == 0
    (strict_config, strict_start, strict), (reference_config, reference_start, reference) = solves
    assert strict_config.record_trajectory and strict_config.strict_theory_mode
    # the reference config is the strict one, tighter and not recording
    assert reference_config == replace(
        strict_config, tolerance=strict_config.tolerance * 1e-2,
        max_iterations=strict_config.max_iterations * 10, record_trajectory=False)
    assert isinstance(strict_start, PrimalDualPoint)
    assert reference_start is strict.state
    assert strict.iterations < reference.iterations
    assert len(steps) == reference.iterations


def test_unknown_command_is_usage_error():
    proc = run_cli(["frobnicate"])
    assert proc.returncode == 2


def test_missing_command_is_usage_error():
    proc = run_cli([])
    assert proc.returncode == 2


def test_divergence_maps_to_exit_3(tmp_path, monkeypatch):
    def explode(*args, **kwargs):
        raise DivergenceError("objective blew up", iteration=3, component="block 1")

    monkeypatch.setattr(cli, "solve", explode)
    code = cli.main(["solve", "--n", "6", "--out", str(tmp_path / "run")])
    assert code == 3


@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_cli_artifacts_get_the_mode_open_gives(tmp_path, umask):
    # the atomic rename must leave each artifact the mode a plain open gives
    out = tmp_path / "run"
    previous = os.umask(umask)
    try:
        code = cli.main(["certify", "--n", "4", "--out", str(out)])
        with open(tmp_path / "plain.txt", "w"):
            pass
    finally:
        os.umask(previous)
    assert code == 0
    expected = os.stat(tmp_path / "plain.txt").st_mode & 0o777
    assert expected == 0o666 & ~umask
    names = sorted(os.listdir(out))
    assert {"summary.json", "certificates.json", "c_matrix.txt"} <= set(names)
    assert {name: os.stat(out / name).st_mode & 0o777 for name in names} == \
        {name: expected for name in names}


# A value other than the default for every option, as it is written in a
# flag or a config file, and what it parses to.
OPTION_TEXTS = {
    "n": ("7", 7),
    "seed": ("3", 3),
    "rho": ("2.5", 2.5),
    "gamma": ("1.25", 1.25),
    "tol": ("1e-5", 1e-5),
    "max_iter": ("42", 42),
    "gamma_grid": ("0.5,1.5", (0.5, 1.5)),
    "repeat": ("3", 3),
    "workers": ("2", 2),
    "probes": ("4", 4),
    "negative_control": ("on", True),
    "out": ("elsewhere", "elsewhere"),
}


def merged(argv):
    return cli._merge_settings(cli.build_parser().parse_args(argv))


@pytest.mark.parametrize("command", sorted(cli._DEFAULTS))
def test_flag_and_config_file_give_the_same_settings(tmp_path, command):
    assert set(cli._DEFAULTS[command]) <= set(OPTION_TEXTS)
    for key, default in cli._DEFAULTS[command].items():
        text, value = OPTION_TEXTS[key]
        assert value != default
        flag = "--" + key.replace("_", "-")
        from_flag = merged([command, flag] if isinstance(value, bool)
                           else [command, flag, text])
        config_file = tmp_path / f"{key}.conf"
        config_file.write_text(f"{key} = {text}\n")
        from_file = merged([command, "--config", str(config_file)])
        assert from_flag == from_file == dict(cli._DEFAULTS[command],
                                              command=command, **{key: value})


@pytest.mark.parametrize("command", sorted(cli._DEFAULTS))
def test_help_lists_exactly_the_default_keys(capsys, command):
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args([command, "--help"])
    listed = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
    assert listed == {"--help", "--config"} | {
        "--" + key.replace("_", "-") for key in cli._DEFAULTS[command]}


def test_bad_values_are_reported_alike_from_flags_and_files(tmp_path, capsys):
    config_file = tmp_path / "bad.conf"
    config_file.write_text("gamma_grid = 0.5,zz\n")
    assert cli.main(["gamma-sweep", "--config", str(config_file)]) == 2
    from_file = capsys.readouterr().err
    assert cli.main(["gamma-sweep", "--gamma-grid", "0.5,zz"]) == 2
    from_flag = capsys.readouterr().err
    assert from_file == f"error: {config_file}:1: bad value for gamma_grid: " \
        "bad gamma grid '0.5,zz': could not convert string to float: 'zz'\n"
    assert from_flag == from_file.replace(f"{config_file}:1", "--gamma-grid")


def test_read_config_file_closes_its_file(tmp_path):
    config_file = tmp_path / "run.conf"
    config_file.write_text("n = 6\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli._read_config_file(str(config_file)) == {"n": 6}
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def running_example():
    """Three scalar blocks, no objectives, identity maps, zero right side."""
    problem = scalar_zero_problem(num_blocks=3)
    config = solver.SolverConfig(
        rho=1.0, gamma=1.0, proximal_metrics=identity_metrics(problem))
    start = PrimalDualPoint(
        (np.array([1.0]), np.array([1.0]), np.array([1.0])), np.zeros(1))
    return problem, solver.solve(problem, config, start)


def test_trajectory_csv_columns(tmp_path):
    problem, result = running_example()
    path = tmp_path / "trajectory.csv"
    cli._write_trajectory_csv(str(path), result.reports, problem.num_blocks)
    lines = path.read_text().splitlines()
    assert lines[0].split(",") == [
        "k", "feasibility_residual", "objective", "rel_change_block_1",
        "rel_change_block_2", "rel_change_block_3", "rel_change_multiplier"]
    assert len(lines) == len(result.reports) + 1
    assert all(cell for line in lines[1:] for cell in line.split(","))
    for k, (line, report) in enumerate(zip(lines[1:], result.reports), start=1):
        count, *cells = line.split(",")
        assert count == str(k)
        assert [float(cell) for cell in cells] == [
            report.feasibility_residual, report.objective,
            *report.successive_change]


def test_csv_cells_follow_one_rule(tmp_path):
    rng = np.random.default_rng(5)
    floats = [0.1, 1.0 / 3.0, -0.0, 5e-324, 1e-300, -1.7976931348623157e308,
              2.0, *(rng.standard_normal(50) * 10.0 ** rng.integers(-30, 30, 50))]
    path = tmp_path / "cells.csv"
    cli._write_csv(str(path), ["x", "flag", "count", "missing"],
                   [(x, bool(x > 0), i, None) for i, x in enumerate(floats)])
    lines = path.read_text().splitlines()
    assert lines[0] == "x,flag,count,missing"
    for i, (line, x) in enumerate(zip(lines[1:], floats)):
        cell, flag, count, missing = line.split(",")
        assert float(cell) == x and np.signbit(float(cell)) == np.signbit(x)
        assert flag == ("true" if x > 0 else "false")
        assert (count, missing) == (str(i), "")
    assert len(lines) == len(floats) + 1


def test_compare_leaves_monotonicity_empty_when_nothing_follows_the_burn_in(tmp_path):
    # the burn-in skips at least 10 points, so 5-point curves check nothing
    out = tmp_path / "run"
    assert cli.main(["baseline-compare", "--n", "6", "--max-iter", "5",
                     "--out", str(out)]) == 0
    rows = [line.split(",") for line in
            (out / "compare_summary.csv").read_text().splitlines()[1:]]
    assert [(row[1], row[6]) for row in rows] == [("5", ""), ("5", "")]
    assert cli._monotone_after_burn_in([3.0, 2.0] * 5 + [1.0]) is None
    assert cli._monotone_after_burn_in([3.0] * 10 + [2.0, 1.0]) is True
    assert cli._monotone_after_burn_in([3.0] * 10 + [1.0, 2.0]) is False


def test_compare_curves_leave_the_shorter_run_empty(tmp_path):
    out = tmp_path / "run"
    assert cli.main(["baseline-compare", "--n", "10", "--out", str(out)]) == 0
    summary = [line.split(",") for line in
               (out / "compare_summary.csv").read_text().splitlines()[1:]]
    assert [row[5] for row in summary] == ["true", "true"]
    assert {row[6] for row in summary} <= {"true", "false"}
    lengths = [int(row[1]) for row in summary]
    assert lengths[1] < lengths[0]
    rows = [line.split(",") for line in
            (out / "compare_curves.csv").read_text().splitlines()[1:]]
    assert len(rows) == max(lengths)
    for k, row in enumerate(rows, start=1):
        assert row[0] == str(k)
        for length, cell in zip(lengths, row[1:]):
            assert (cell != "") == (k <= length)


def loaded_after(module, body):
    """Run ``body`` in a fresh interpreter after ``from lgadmm import cli``;
    each ``report()`` in it prints whether ``module`` is loaded. Skips on a
    NumPy that imports ``module`` with ``numpy`` itself."""
    script = f"""
import sys
import numpy
if {module!r} in sys.modules:
    print("eager")
    raise SystemExit
from lgadmm import cli
def report():
    print({module!r} in sys.modules)
""" + body
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = [line for line in proc.stdout.splitlines() if line in ("eager", "True", "False")]
    if lines == ["eager"]:
        pytest.skip(f"this NumPy imports {module} with numpy itself")
    return lines


def test_building_and_running_calibration_never_import_numpy_random(tmp_path):
    # the calibration self-check uses deterministic probes, so building and
    # solving a problem skips the import
    lines = loaded_after("numpy.random", f"""
from lgadmm.calibration import build_problem, generate_instance
build_problem(generate_instance(6, 0))
report()
assert cli.main(["solve", "--n", "6", "--max-iter", "50", "--out", {str(tmp_path / "solve")!r}]) == 0
report()
assert cli.main(["baseline-compare", "--n", "8", "--out", {str(tmp_path / "compare")!r}]) == 0
report()
""")
    assert lines == ["False"] * 3


def test_certify_never_imports_numpy_random(tmp_path):
    # feasible probes come from the splitmix stream too
    lines = loaded_after("numpy.random", f"""
assert cli.main(["certify", "--n", "6", "--out", {str(tmp_path / "pass")!r}]) == 0
report()
assert cli.main(["certify", "--n", "6", "--negative-control",
                 "--out", {str(tmp_path / "fail")!r}]) == 4
report()
""")
    assert lines == ["False"] * 2


def test_certify_never_imports_numpy_ma(tmp_path):
    # the step-inequality sample is deduplicated without np.unique, whose
    # first call imports numpy.ma
    lines = loaded_after("numpy.ma", f"""
assert cli.main(["certify", "--n", "6", "--out", {str(tmp_path / "pass")!r}]) == 0
report()
""")
    assert lines == ["False"]


def test_certify_never_holds_every_auxiliary_point(tmp_path, monkeypatch):
    # the replay derives each auxiliary point in its pass and keeps only
    # their running sum; the list of all of them would cost O(T) memory
    def refuse(self):
        raise AssertionError("certify read TrajectoryRecord.auxiliaries")

    monkeypatch.setattr(solver.TrajectoryRecord, "auxiliaries", property(refuse))
    assert cli.main(["certify", "--n", "6", "--out", str(tmp_path / "pass")]) == 0
    assert cli.main(["certify", "--n", "6", "--negative-control",
                     "--out", str(tmp_path / "fail")]) == 4


@pytest.mark.parametrize("flags, code", [([], 0), (["--negative-control"], 4)])
def test_certify_derives_each_auxiliary_point_once(tmp_path, monkeypatch, flags, code):
    # outside the solver's steps, one replay derives the T auxiliary points,
    # and the ergodic average and the step inequality read its record
    derived = []

    def counted(*args, _original=certificates.auxiliary_point, **kwargs):
        derived.append("replay")
        return _original(*args, **kwargs)

    def counted_record(self, k, _original=solver.TrajectoryRecord.auxiliary):
        derived.append("record")
        return _original(self, k)

    monkeypatch.setattr(certificates, "auxiliary_point", counted)
    monkeypatch.setattr(solver.TrajectoryRecord, "auxiliary", counted_record)
    out = tmp_path / "certify"
    assert cli.main(["certify", "--n", "6", "--out", str(out), *flags]) == code
    steps = json.loads((out / "summary.json").read_text())["iterations"]
    assert steps > 0
    assert Counter(derived) == {"replay": steps}
