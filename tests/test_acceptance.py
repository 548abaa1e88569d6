"""Acceptance gate: ten release criteria, one test per criterion.

Each test checks a pinned property at a pinned tolerance and prints a
single summary line with the measured quantities. Runtime budgets are
asserted alongside the numerical claims.
"""

import subprocess
import sys
import time

import numpy as np
import pytest

from lgadmm import (
    SolverConfig,
    assemble_metrics,
    build_problem,
    calibration_block_oracle,
    cross_term_check,
    default_metrics,
    ergodic_average,
    ergodic_gap_check,
    evaluate_objective,
    feasible_probe,
    fejer_check,
    generate_instance,
    nonergodic_monotonicity_check,
    nonergodic_rate_check,
    pack_point,
    project_box,
    project_psd,
    replay,
    solve,
    stacked_maps,
    zeros_point,
)
from lgadmm.cli import run_gamma_sweep
from lgadmm.operators import ScaledIdentity
from baselines import reduction_equivalence_suite
from reference import assemble_dense_metrics, projected_gradient_oracle
from synthetic import random_config, random_metrics, random_problem


@pytest.fixture(scope="module")
def n20_strict_run():
    """One strict-mode run at order 20 shared by the certificate criterion."""
    instance = generate_instance(20, seed=0)
    problem = build_problem(instance)
    config = SolverConfig(rho=1.0, gamma=1.5,
                          proximal_metrics=default_metrics(instance, scale=4.0),
                          tolerance=1e-8, max_iterations=50000,
                          strict_theory_mode=True, record_trajectory=True)
    result = solve(problem, config, zeros_point(problem))
    reference_config = SolverConfig(
        rho=1.0, gamma=1.5,
        proximal_metrics=default_metrics(instance, scale=4.0),
        tolerance=1e-10, max_iterations=500000, strict_theory_mode=True)
    reference = solve(problem, reference_config, zeros_point(problem)).final
    metrics = assemble_metrics(problem, config)
    return problem, config, result, reference, metrics


@pytest.fixture(scope="module")
def n100_runs():
    """Order-100 benchmark solves at unit and near-maximal relaxation."""
    instance = generate_instance(100, seed=0)
    problem = build_problem(instance)
    results = {}
    for gamma in (1.0, 1.9):
        config = SolverConfig(rho=1.0, gamma=gamma,
                              proximal_metrics=default_metrics(instance),
                              tolerance=1e-6, max_iterations=10000)
        started = time.perf_counter()
        results[gamma] = (solve(problem, config, zeros_point(problem)),
                          time.perf_counter() - started)
    return instance, problem, results


def test_criterion_01_metric_factorization_identities():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_q, worst_n = 0.0, 0.0
    for trial in range(100):
        num_blocks = int(rng.integers(2, 4))
        dims = tuple(int(rng.integers(1, 5)) for _ in range(num_blocks))
        problem = random_problem(5000 + trial, num_blocks=num_blocks,
                                 dims=dims,
                                 constraint_dim=int(rng.integers(1, 5)))
        config = random_config(rng, problem,
                               gamma=float(rng.choice((0.3, 1.0, 1.7))),
                               rho=float(rng.choice((0.5, 1.0, 2.0))))
        metrics = assemble_dense_metrics(problem, config)
        scale = 1.0 + max(np.abs(metrics.q).max(), np.abs(metrics.h).max())

        q_residual = np.abs(metrics.q - metrics.h @ metrics.m_mat).max()
        assert q_residual <= 1e-12 * scale
        worst_q = max(worst_q, q_residual / scale)

        # expected recomposition built from problem data, not from the
        # module under test: block diagonal of the coupled first-phase
        # metric, the last proximal metric, and the scaled dual identity
        first = problem.blocks[:-1]
        first_dim = sum(block.dim for block in first)
        last = problem.blocks[-1]
        ell = problem.constraint_dim
        total = first_dim + last.dim + ell
        expected = np.zeros((total, total))
        offsets = np.cumsum([0] + [block.dim for block in first])
        for i, bi in enumerate(first):
            for j, bj in enumerate(first):
                cell = (config.proximal_metrics[i].dense() if i == j else
                        -config.rho * bi.linear_map.dense().T
                        @ bj.linear_map.dense())
                expected[offsets[i]:offsets[i + 1],
                         offsets[j]:offsets[j + 1]] = cell
        expected[first_dim:first_dim + last.dim,
                 first_dim:first_dim + last.dim] = \
            config.proximal_metrics[-1].dense()
        expected[first_dim + last.dim:, first_dim + last.dim:] = \
            ((2.0 - config.gamma) / config.rho) * np.eye(ell)

        recomposed = (metrics.q.T + metrics.q
                      - metrics.m_mat.T @ metrics.h @ metrics.m_mat)
        n_residual = np.abs(recomposed - expected).max()
        assert n_residual <= 1e-10 * scale
        worst_n = max(worst_n, n_residual / scale)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(f"criterion 01 PASS: 100 configs, worst Q-HM {worst_q:.2e}, "
          f"worst recomposition {worst_n:.2e}, {elapsed:.1f}s")


def test_criterion_02_step_identities_along_benchmark_run():
    started = time.perf_counter()
    instance = generate_instance(5, seed=0)
    problem = build_problem(instance)
    config = SolverConfig(rho=1.0, gamma=1.5,
                          proximal_metrics=default_metrics(instance),
                          tolerance=1e-300, max_iterations=200,
                          record_trajectory=True)
    trajectory = solve(problem, config, zeros_point(problem)).trajectory
    assert trajectory.steps == 200
    metrics = assemble_dense_metrics(problem, config)
    a_m = problem.blocks[-1].linear_map
    worst_step, worst_dual = 0.0, 0.0
    for k in range(trajectory.steps):
        wk = pack_point(problem, trajectory.points[k])
        wk1 = pack_point(problem, trajectory.points[k + 1])
        wbar = pack_point(problem, trajectory.auxiliary(k))
        predicted = wk - metrics.m_mat @ (wk - wbar)
        scale = 1.0 + max(np.linalg.norm(wk), np.linalg.norm(wk1))
        step_residual = np.linalg.norm(predicted - wk1) / scale
        assert step_residual <= 1e-10
        worst_step = max(worst_step, step_residual)

        point, nxt = trajectory.points[k], trajectory.points[k + 1]
        aux = trajectory.auxiliary(k)
        lhs = point.dual - nxt.dual
        rhs = (-config.rho * a_m.apply(point.primal[-1] - aux.primal[-1])
               + config.gamma * (point.dual - aux.dual))
        dual_residual = (np.linalg.norm(lhs - rhs)
                         / (1.0 + np.linalg.norm(lhs)))
        assert dual_residual <= 1e-10
        worst_dual = max(worst_dual, dual_residual)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    print(f"criterion 02 PASS: 200 steps, worst recurrence {worst_step:.2e}, "
          f"worst dual move {worst_dual:.2e}, {elapsed:.1f}s")


def test_criterion_03_two_block_reduction_equivalence():
    started = time.perf_counter()
    worst = 0.0
    for seed in range(10):
        problem = random_problem(400 + seed, num_blocks=2, constraint_dim=4)
        rng = np.random.default_rng(seed)
        p1, p2 = random_metrics(rng, problem)
        report = reduction_equivalence_suite(
            problem, rho=float(rng.uniform(0.5, 2.0)),
            gamma=float(rng.uniform(0.2, 1.8)),
            p1=p1, p2=p2, iterations=50)
        assert report.passed
        assert report.max_deviation <= 1e-10
        worst = max(worst, report.max_deviation)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(f"criterion 03 PASS: 10 instances x 4 reductions, worst "
          f"deviation {worst:.2e}, {elapsed:.1f}s")


def test_criterion_04_trajectory_certificates_strict_run(n20_strict_run):
    started = time.perf_counter()
    problem, config, result, reference, metrics = n20_strict_run
    trajectory = result.trajectory
    probes = [feasible_probe(problem, s) for s in range(99, 109)]
    record = replay(metrics, trajectory, reference, probes)
    reports = [
        fejer_check(record),
        nonergodic_monotonicity_check(record),
        cross_term_check(record),
        nonergodic_rate_check(record),
        ergodic_gap_check(record, ergodic_average(record)),
    ]
    for report in reports:
        assert report.passed is True, report.check
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    checks = ", ".join(report.check for report in reports)
    print(f"criterion 04 PASS: {checks} on {trajectory.steps} recorded "
          f"steps, {elapsed:.1f}s")


def test_criterion_05_relaxation_sweep_trend(tmp_path):
    started = time.perf_counter()
    settings = dict(n=50, seed=0, rho=1.0, tol=1e-6, max_iter=10000,
                    strict=False, repeat=5, workers=None,
                    gamma_grid=tuple(round(0.2 * i, 1) for i in range(1, 10)),
                    out=str(tmp_path))
    assert run_gamma_sweep(settings) == 0
    rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
    means = {float(r.split(",")[0]): float(r.split(",")[1]) for r in rows}
    import json
    summary = json.loads((tmp_path / "summary.json").read_text())
    elapsed = time.perf_counter() - started
    assert means[1.8] <= 0.4 * means[0.6]
    assert summary["spearman_gamma_iterations"] <= -0.9
    assert summary["all_converged"] is True
    assert elapsed < 300.0
    print(f"criterion 05 PASS: mean iterations {means[1.8]:.0f} at 1.8 vs "
          f"{means[0.6]:.0f} at 0.6 (ratio {means[1.8] / means[0.6]:.2f}), "
          f"spearman {summary['spearman_gamma_iterations']:.2f}, "
          f"{elapsed:.0f}s")


def test_criterion_06_relaxation_speedup_at_order_100(n100_runs):
    _, problem, results = n100_runs
    unit, unit_seconds = results[1.0]
    relaxed, relaxed_seconds = results[1.9]
    assert unit.converged and relaxed.converged
    assert unit.final_epsilon < 1e-6 and relaxed.final_epsilon < 1e-6
    ratio = unit.iterations / relaxed.iterations
    assert ratio >= 1.5
    obj_unit = evaluate_objective(problem, unit.final)
    obj_relaxed = evaluate_objective(problem, relaxed.final)
    gap = abs(obj_unit - obj_relaxed) / max(abs(obj_unit), 1e-30)
    assert gap <= 1e-3
    elapsed = unit_seconds + relaxed_seconds
    assert elapsed < 120.0
    print(f"criterion 06 PASS: {unit.iterations} vs {relaxed.iterations} "
          f"iterations (ratio {ratio:.2f}), objective gap {gap:.2e}, "
          f"{elapsed:.0f}s")


def test_criterion_07_feasibility_at_convergence(n100_runs):
    instance, problem, results = n100_runs
    final = results[1.9][0].final
    n = instance.n
    copies = [x.reshape(n, n) for x in final.primal]
    worst_pair = 0.0
    for i in range(3):
        for j in range(i + 1, 3):
            worst_pair = max(worst_pair,
                             float(np.linalg.norm(copies[i] - copies[j])))
    assert worst_pair <= 1e-4 * n
    min_eig = float(np.linalg.eigvalsh(copies[0]).min())
    assert min_eig >= -1e-6
    print(f"criterion 07 PASS: worst pairwise copy distance {worst_pair:.2e} "
          f"(cap {1e-4 * n:.0e}), min eigenvalue {min_eig:.2e}")


def test_criterion_08_projection_properties():
    started = time.perf_counter()
    rng = np.random.default_rng(7)
    for _ in range(1000):
        a = rng.standard_normal((6, 6))
        a = a + a.T
        b = rng.standard_normal((6, 6))
        b = b + b.T
        pa, pb = project_psd(a), project_psd(b)
        assert np.linalg.eigvalsh(pa).min() >= -1e-10
        assert np.abs(project_psd(pa) - pa).max() <= 1e-10
        assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-10
    lower, upper = -0.1 * np.ones((6, 6)), 0.1 * np.ones((6, 6))
    for _ in range(1000):
        a = rng.standard_normal((6, 6))
        b = rng.standard_normal((6, 6))
        pa = project_box(a, lower, upper)
        pb = project_box(b, lower, upper)
        assert np.all(pa >= lower - 1e-10) and np.all(pa <= upper + 1e-10)
        assert np.array_equal(project_box(pa, lower, upper), pa)
        assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-10
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(f"criterion 08 PASS: 1000 trials per projection, {elapsed:.1f}s")


def test_criterion_09_block_oracle_cross_validation():
    instance = generate_instance(4, seed=21)
    maps = stacked_maps(4)
    rng = np.random.default_rng(22)
    d = 16

    def box(mat):
        return project_box(mat, instance.h_lower, instance.h_upper)

    worst = 0.0
    for amap, projection in ((maps.a1, project_psd),
                             (maps.a2, project_psd),
                             (maps.a3, box)):
        oracle = calibration_block_oracle(instance.c, amap, projection)
        for _ in range(20):
            target = rng.standard_normal(3 * d)
            center = rng.standard_normal(d)
            rho = float(rng.uniform(0.5, 2.0))
            sigma = float(rng.uniform(0.0, 4.0))
            closed = oracle(target, center, rho, ScaledIdentity(d, sigma))
            iterative = projected_gradient_oracle(
                instance.c, amap, projection, target, center, rho, sigma)
            deviation = float(np.abs(closed - iterative).max())
            assert deviation <= 1e-8
            worst = max(worst, deviation)
    print(f"criterion 09 PASS: 20 inputs x 3 blocks, worst oracle "
          f"deviation {worst:.2e}")


def test_criterion_10_negative_control_exit_code(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "lgadmm.cli", "certify", "--n", "8",
         "--negative-control", "--out", str(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode == 4, proc.stderr
    print("criterion 10 PASS: corrupted trajectory exits with code 4")
