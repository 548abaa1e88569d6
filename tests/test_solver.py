"""Solver loop: phase updates, multiplier, auxiliary point, stopping rule."""

import ast
import re
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from lgadmm.calibration import build_problem, default_metrics, generate_instance
from lgadmm.certificates import weighted_norm_sq
from lgadmm.operators import (
    BlockSignMap,
    DenseMap,
    DenseSymmetric,
    LinearMap,
    ScaledIdentity,
    gram_min_eigenvalue,
    gram_spectral_norm,
)
from lgadmm.problem import (
    BlockProblem,
    BlockSpec,
    DimensionMismatchError,
    PrimalDualPoint,
    SpectralThresholdError,
    make_linearized_metric,
    pack_point,
    zeros_point,
)
from lgadmm.solver import (
    TRAJECTORY_CHUNK_ROWS,
    VALIDATION_DENSE_CAP,
    ConfigError,
    DivergenceError,
    IterationState,
    OracleError,
    SolverConfig,
    TrajectoryRecord,
    auxiliary_point,
    first_phase_dense,
    first_phase_min_eig_estimate,
    first_phase_update,
    last_block_update,
    last_condition_min_eig_estimate,
    multiplier_update,
    solve,
    step,
    validate_config,
)
from reference import identity_metrics, primal_feasibility, zero_metrics
from util import chain_problem, gapped_matrix, quadratic_spec, scalar_zero_problem

RUNNING_EXAMPLE_START = PrimalDualPoint(
    (np.array([1.0]), np.array([1.0]), np.array([1.0])), np.zeros(1))


def running_example():
    """Three scalar blocks, no objectives, identity maps, zero right side."""
    problem = scalar_zero_problem(num_blocks=3)
    config = SolverConfig(rho=1.0, gamma=1.0,
                          proximal_metrics=identity_metrics(problem))
    return problem, config


def test_solver_config_validation():
    problem = scalar_zero_problem()
    metrics = identity_metrics(problem)
    with pytest.raises(ConfigError):
        SolverConfig(rho=-1.0, gamma=1.0, proximal_metrics=metrics)
    with pytest.raises(ConfigError):
        SolverConfig(rho=1.0, gamma=1.0, proximal_metrics=metrics,
                     tolerance=0.0)
    with pytest.raises(ConfigError):
        SolverConfig(rho=1.0, gamma=1.0, proximal_metrics=metrics,
                     max_iterations=0)


def test_validate_config_two_block_example():
    problem = chain_problem([[1.0], [1.0]], [0.0])
    config = SolverConfig(
        rho=1.0, gamma=1.0,
        proximal_metrics=(DenseSymmetric(np.array([[2.0]])),
                          DenseSymmetric(np.array([[1.0]]))))
    report = validate_config(problem, config)
    assert report.first_phase_min_eig == pytest.approx(2.0)
    assert report.first_phase_method == "operator"
    assert report.first_phase_positive
    assert report.unproven == {}
    assert report.warnings == ()


def test_validate_config_benchmark_settings_warn():
    instance = generate_instance(5, seed=2)
    problem = build_problem(instance)
    config = SolverConfig(rho=1.0, gamma=1.0,
                          proximal_metrics=default_metrics(instance, scale=0.5))
    report = validate_config(problem, config)
    assert report.first_phase_min_eig == pytest.approx(-0.5, abs=1e-8)
    assert not report.first_phase_positive
    assert list(report.unproven) == ["first_phase"]
    assert report.warnings == (report.unproven["first_phase"],)
    assert report.last_condition_min_eig == pytest.approx(2.5, abs=1e-8)


def test_strict_mode_refuses_the_default_calibration_metric_exactly():
    # above the dense cap (n=30: 1800 first-phase rows), still exact
    instance = generate_instance(30, seed=0)
    problem = build_problem(instance)
    config = SolverConfig(rho=1.0, gamma=1.0,
                          proximal_metrics=default_metrics(instance, scale=0.5),
                          strict_theory_mode=True)
    with pytest.raises(ConfigError, match="exact"):
        validate_config(problem, config)
    report = validate_config(problem, replace(config, strict_theory_mode=False))
    assert (report.first_phase_min_eig, report.first_phase_method) == (-0.5, "exact")


def test_exact_first_phase_value_is_sigma_minus_rho_bitwise():
    # eigvalsh of the 2x2 K misses sigma - rho by an ulp here, upward for (2, 0.3)
    instance = generate_instance(3, seed=0)
    problem = build_problem(instance)
    for sigma, rho in ((2.0, 0.3), (3.0, 0.5), (10.0, 1.0), (4.0, 1.0), (0.5, 1.0)):
        config = SolverConfig(rho=rho, gamma=1.0,
                              proximal_metrics=default_metrics(instance, scale=sigma))
        report = validate_config(problem, config)
        assert report.first_phase_method == "exact"
        assert report.first_phase_min_eig == sigma - rho


@pytest.mark.parametrize("signs, coupling", [
    # every pair of first-phase maps has Gram -1, so K = sigma I + rho (J - I)
    (((1, 1, 1), (1, -1, -1), (-1, 1, -1)), 1),
    # every pair has Gram +1, so K = sigma I - rho (J - I)
    (((1, 0, 0),) * 3, -1),
])
def test_structural_value_of_a_larger_coupling_is_a_lower_bound(signs, coupling):
    # eigvalsh of the 3x3 K comes out above the true lambda_min by an ulp for
    # some (sigma, rho), e.g. 0.9500000000000001 for sigma=1.25, rho=0.3
    dim = 2
    maps = [BlockSignMap(s, dim) for s in (*signs, (0, 0, 1))]
    problem = BlockProblem(
        blocks=tuple(BlockSpec(dim=dim, linear_map=amap, subproblem_oracle=None,
                               objective_oracle=None) for amap in maps),
        rhs=np.zeros(3 * dim), constraint_dim=3 * dim)
    methods = set()
    for sigma in (0.1, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 3.0, 5.0, 10.0):
        for rho in (0.3, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0):
            value, method = first_phase_min_eig_estimate(
                problem, identity_metrics(problem, sigma), rho)
            methods.add(method)
            # eigenvalues sigma + 2c and sigma - c (twice), with c = coupling * rho
            truth = Fraction(sigma) - max(1, -2 * coupling) * Fraction(rho)
            assert Fraction(value) <= truth, (sigma, rho, value)
            assert value >= truth - Fraction(1, 10**12), (sigma, rho, value)
    assert methods == {"bound"}


@pytest.mark.parametrize("dim", [2, 5])
def test_dense_min_eigenvalues_are_lower_bounds(dim):
    # DenseMap copies of the 4-block sign maps with pairwise Gram +1: the
    # first-phase metric is K (x) I with eigenvalues sigma - 2 rho and
    # sigma + rho (twice). eigvalsh alone lands above sigma - 2 rho by an ulp
    # for some (sigma, rho), e.g. 2.4000000000000004 for sigma=3, rho=0.3
    maps = [DenseMap(BlockSignMap(s, dim).dense())
            for s in ((1, 0, 0),) * 3 + ((0, 0, 1),)]
    problem = BlockProblem(
        blocks=tuple(BlockSpec(dim=dim, linear_map=amap, subproblem_oracle=None,
                               objective_oracle=None) for amap in maps),
        rhs=np.zeros(3 * dim), constraint_dim=3 * dim)
    # the same matrix as the last block's metric, over a zero map: whenever
    # P_m is not proven positive definite, the last condition takes the dense route
    last = BlockProblem(
        blocks=(BlockSpec(dim=1, linear_map=DenseMap(np.ones((1, 1))),
                          subproblem_oracle=None, objective_oracle=None),
                BlockSpec(dim=3 * dim, linear_map=DenseMap(np.zeros((1, 3 * dim))),
                          subproblem_oracle=None, objective_oracle=None)),
        rhs=np.zeros(1), constraint_dim=1)
    routes = set()
    for sigma in (0.1, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 3.0, 5.0, 10.0):
        for rho in (0.3, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0):
            truth = Fraction(sigma) - 2 * Fraction(rho)
            prox = identity_metrics(problem, sigma)
            metric = first_phase_dense(problem, prox, rho)
            value, method = first_phase_min_eig_estimate(problem, prox, rho)
            assert method == "dense"
            values = [value, DenseSymmetric(metric).min_eigenvalue()]
            value, method = last_condition_min_eig_estimate(
                last, DenseSymmetric(metric), rho, 1.0)
            routes.add(method)
            if method == "dense":
                values.append(value)
            for value in values:
                assert Fraction(value) <= truth, (sigma, rho, value)
                assert value >= truth - Fraction(1, 10**10), (sigma, rho, value)
    assert routes == {"dense", "bound"}


@pytest.fixture(scope="module")
def gapped_blocks():
    """Three dense blocks of 520, so 1040 first-phase rows, above the dense cap:
    A_1 = A_3 = I and A_2 with top singular value 1 and the next 1e-4 below."""
    dim = 520
    assert 2 * dim > VALIDATION_DENSE_CAP
    return chain_problem([np.eye(dim), gapped_matrix(dim=dim)[0], np.eye(dim)],
                         np.zeros(dim))


def gapped_config(problem, sigma, strict):
    return SolverConfig(rho=1.0, gamma=1.5,
                        proximal_metrics=identity_metrics(problem, sigma),
                        strict_theory_mode=strict)


def test_strict_mode_refuses_an_indefinite_metric_above_the_dense_cap(gapped_blocks):
    # the coupled first-phase metric has min eigenvalue sigma - 1 = -5e-7
    config = gapped_config(gapped_blocks, 1.0 - 5e-7, strict=True)
    with pytest.raises(ConfigError, match="bound"):
        validate_config(gapped_blocks, config)
    report = validate_config(gapped_blocks, replace(config, strict_theory_mode=False))
    truth = float(np.linalg.eigvalsh(
        first_phase_dense(gapped_blocks, config.proximal_metrics, config.rho))[0])
    assert truth < 0.0
    assert report.first_phase_method == "bound"
    assert report.first_phase_min_eig <= truth + 1e-12
    assert not report.first_phase_positive


def test_strict_mode_accepts_a_proven_metric_above_the_dense_cap(gapped_blocks):
    report = validate_config(gapped_blocks,
                             gapped_config(gapped_blocks, 1.0 + 1e-3, strict=True))
    assert report.first_phase_method == "bound"
    assert report.first_phase_min_eig == pytest.approx(1e-3, abs=1e-12)
    assert report.last_condition_method == "bound"
    assert report.warnings == ()


class OpaqueIdentity(LinearMap):
    """The identity with neither a structural Gram nor a dense backing."""

    def __init__(self, dim):
        self.in_dim = self.out_dim = dim

    def apply(self, x, out=None):
        if out is None:
            return x.copy()
        out[:] = x
        return out

    def adjoint(self, y, out=None):
        return self.apply(y, out)


def test_maps_of_unknown_norm_get_trivial_bounds():
    dim = 520
    opaque = OpaqueIdentity(dim)
    assert gram_spectral_norm(opaque) == np.inf
    assert gram_min_eigenvalue(opaque) == 0.0

    def spec(amap):
        return BlockSpec(dim=dim, linear_map=amap,
                         subproblem_oracle=lambda t, c, r, m: c,
                         objective_oracle=lambda x: 0.0)

    with pytest.raises(SpectralThresholdError):
        make_linearized_metric(spec(opaque), rho=1.0, tau=1e6)

    def report(first_maps, strict=False):
        blocks = tuple(spec(amap) for amap in (*first_maps, DenseMap(np.eye(dim))))
        problem = BlockProblem(blocks=blocks, rhs=np.zeros(dim), constraint_dim=dim)
        return validate_config(problem, SolverConfig(
            rho=1.0, gamma=1.0, proximal_metrics=identity_metrics(problem, 2.0),
            strict_theory_mode=strict))

    unknown = report((opaque, OpaqueIdentity(dim)))
    assert (unknown.first_phase_min_eig, unknown.first_phase_method) == (-np.inf, "bound")
    with pytest.raises(ConfigError, match="bound"):
        report((opaque, OpaqueIdentity(dim)), strict=True)
    # a zero map couples nothing, even to a map of unknown norm: no NaN
    decoupled = report((opaque, DenseMap(np.zeros((dim, dim)))))
    assert (decoupled.first_phase_min_eig, decoupled.first_phase_method) == (2.0, "bound")


def test_validate_config_gamma_range():
    # SolverConfig judges gamma, so no config outside (0, 2) reaches validation
    problem = scalar_zero_problem()
    metrics = identity_metrics(problem)
    for gamma in (2.0, 0.0, -1.0, float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ConfigError, match="gamma must lie strictly between 0 and 2"):
            SolverConfig(rho=1.0, gamma=gamma, proximal_metrics=metrics)
    config = SolverConfig(rho=1.0, gamma=1.999, proximal_metrics=metrics)
    assert validate_config(problem, config).gamma == 1.999
    with pytest.raises(ConfigError):
        replace(config, gamma=2.0)


def test_validate_config_metric_mismatch():
    problem = scalar_zero_problem()
    config = SolverConfig(rho=1.0, gamma=1.0,
                          proximal_metrics=identity_metrics(problem)[:2])
    with pytest.raises(ConfigError):
        validate_config(problem, config)
    config = SolverConfig(
        rho=1.0, gamma=1.0,
        proximal_metrics=(ScaledIdentity(2, 1.0),) * 3)
    with pytest.raises(ConfigError):
        validate_config(problem, config)


def test_validate_config_strict_rejects_indefinite_coupling():
    instance = generate_instance(4, seed=0)
    problem = build_problem(instance)
    config = SolverConfig(rho=1.0, gamma=1.0,
                          proximal_metrics=default_metrics(instance, scale=0.5),
                          strict_theory_mode=True)
    with pytest.raises(ConfigError):
        validate_config(problem, config)


def test_first_phase_hand_example():
    problem, config = running_example()
    state = IterationState.initial(RUNNING_EXAMPLE_START)
    fresh = first_phase_update(problem, config, state)
    assert fresh[0] == pytest.approx(-0.5)
    assert fresh[1] == pytest.approx(-0.5)


def test_first_phase_fixed_point():
    problem, config = running_example()
    state = IterationState.initial(zeros_point(problem))
    fresh = first_phase_update(problem, config, state)
    for part in fresh:
        assert np.array_equal(part, np.zeros(1))


def test_first_phase_permutation_invariance():
    specs = [
        ([[2.0]], [[1.0]]),
        ([[3.0]], [[2.0]]),
        ([[1.0]], [[0.5]]),
    ]
    matrices = [s[0] for s in specs]
    hessians = [s[1] for s in specs]
    forward = chain_problem(matrices, [0.4], hessians=hessians)
    swapped = chain_problem([matrices[1], matrices[0], matrices[2]], [0.4],
                            hessians=[hessians[1], hessians[0], hessians[2]])
    metrics = (ScaledIdentity(1, 1.0), ScaledIdentity(1, 2.0),
               ScaledIdentity(1, 1.5))
    config_f = SolverConfig(rho=1.2, gamma=1.4, proximal_metrics=metrics)
    config_s = SolverConfig(rho=1.2, gamma=1.4,
                            proximal_metrics=(metrics[1], metrics[0], metrics[2]))
    x = (np.array([0.3]), np.array([-0.7]), np.array([1.1]))
    y = np.array([0.25])
    state_f = IterationState.initial(PrimalDualPoint(x, y))
    state_s = IterationState.initial(PrimalDualPoint((x[1], x[0], x[2]), y))
    fresh_f = first_phase_update(forward, config_f, state_f)
    fresh_s = first_phase_update(swapped, config_s, state_s)
    assert np.array_equal(fresh_f[0], fresh_s[1])
    assert np.array_equal(fresh_f[1], fresh_s[0])


def test_last_block_hand_example():
    problem, config = running_example()
    state = IterationState.initial(RUNNING_EXAMPLE_START)
    fresh = first_phase_update(problem, config, state)
    last = last_block_update(problem, config, state, fresh)
    assert last == pytest.approx(1.0)


def test_last_block_fixed_point():
    problem, config = running_example()
    state = IterationState.initial(zeros_point(problem))
    fresh = first_phase_update(problem, config, state)
    last = last_block_update(problem, config, state, fresh)
    assert np.array_equal(last, np.zeros(1))


def test_multiplier_feasible_point_unchanged():
    # fresh primal satisfying the constraint leaves the multiplier alone
    problem, config = running_example()
    state = IterationState.initial(PrimalDualPoint(
        (np.array([2.0]), np.array([-1.0]), np.array([-1.0])),
        np.array([0.7])))
    fresh = (np.array([2.0]), np.array([-1.0]), np.array([-1.0]))
    new_dual = multiplier_update(problem, config, state, fresh)
    assert new_dual == pytest.approx(0.7)


def test_multiplier_reduces_to_classical_update():
    problem, config = running_example()
    state = IterationState.initial(RUNNING_EXAMPLE_START)
    fresh = (np.array([0.2]), np.array([-0.4]), np.array([0.9]))
    new_dual = multiplier_update(problem, config, state, fresh)
    residual = 0.2 - 0.4 + 0.9
    assert new_dual == pytest.approx(0.0 - config.rho * residual)


def test_auxiliary_dual_unchanged_when_old_residual_zero():
    problem, _ = running_example()
    config = SolverConfig(rho=1.0, gamma=1.5,
                          proximal_metrics=identity_metrics(problem))
    current = PrimalDualPoint(
        (np.array([1.0]), np.array([1.0]), np.array([2.0])),
        np.array([0.3]))
    fresh = (np.array([-1.0]), np.array([-1.0]), np.array([5.0]))
    aux = auxiliary_point(problem, config, current, fresh)
    assert aux.dual == pytest.approx(0.3)
    for aux_part, fresh_part in zip(aux.primal, fresh):
        assert np.array_equal(aux_part, fresh_part)


def test_dual_move_identity_on_calibration_steps():
    # y^k - y^{k+1} equals -rho A_m(x_m^k - aux_m^k) + gamma (y^k - aux dual)
    instance = generate_instance(4, seed=5)
    problem = build_problem(instance)
    config = SolverConfig(rho=1.0, gamma=1.5,
                          proximal_metrics=default_metrics(instance),
                          max_iterations=30, tolerance=1e-300,
                          record_trajectory=True)
    result = solve(problem, config, zeros_point(problem))
    trajectory = result.trajectory
    a_m = problem.blocks[-1].linear_map
    for k in range(trajectory.steps):
        wk = trajectory.points[k]
        wk1 = trajectory.points[k + 1]
        aux = trajectory.auxiliary(k)
        lhs = wk.dual - wk1.dual
        rhs = (-config.rho * a_m.apply(wk.primal[-1] - aux.primal[-1])
               + config.gamma * (wk.dual - aux.dual))
        scale = 1.0 + float(np.linalg.norm(lhs))
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * scale


def test_step_fixed_point():
    problem, config = running_example()
    state = IterationState.initial(zeros_point(problem))
    new_state, report = step(problem, config, state)
    assert new_state.k == 1
    for part in new_state.current.primal:
        assert np.array_equal(part, np.zeros(1))
    assert np.array_equal(new_state.current.dual, np.zeros(1))
    assert report.feasibility_residual == 0.0


def test_step_determinism():
    instance = generate_instance(4, seed=9)
    problem = build_problem(instance)
    config = SolverConfig(rho=1.0, gamma=1.3,
                          proximal_metrics=default_metrics(instance),
                          max_iterations=20, tolerance=1e-300)
    first = solve(problem, config, zeros_point(problem))
    second = solve(problem, config, zeros_point(problem))
    assert len(first.reports) == len(second.reports)
    for a, b in zip(first.reports, second.reports):
        assert a.feasibility_residual == b.feasibility_residual
        assert a.objective == b.objective
        assert a.successive_change == b.successive_change


def test_solve_from_optimal_start_stops_immediately():
    problem, config = running_example()
    result = solve(problem, config, zeros_point(problem))
    assert result.converged
    assert result.iterations == 1
    assert result.stop_reason == "tolerance"


def test_solve_calibration_converges():
    instance = generate_instance(20, seed=0)
    problem = build_problem(instance)
    config = SolverConfig(rho=1.0, gamma=1.9,
                          proximal_metrics=default_metrics(instance),
                          tolerance=1e-6)
    result = solve(problem, config, zeros_point(problem))
    assert result.converged
    assert result.stop_reason == "tolerance"
    assert 20 <= result.iterations <= 2000
    assert result.final_epsilon < 1e-6


def test_solve_iteration_limit_reported(monkeypatch):
    instance = generate_instance(4, seed=1)
    problem = build_problem(instance)
    config = SolverConfig(rho=1.0, gamma=1.0,
                          proximal_metrics=default_metrics(instance),
                          max_iterations=3, tolerance=1e-14)
    result = solve(problem, config, zeros_point(problem))
    assert not result.converged
    assert result.stop_reason == "iteration_limit"
    assert result.iterations == 3
    assert result.state.k == 3
    assert result.state.current is result.final
    assert result.state.epsilon == result.final_epsilon
    assert result.state.auxiliary is None

    # resuming at the budget stops without stepping
    monkeypatch.setattr("lgadmm.solver.step", None)
    again = solve(problem, config, result.state)
    assert not again.converged and again.stop_reason == "iteration_limit"
    assert again.iterations == 3
    assert again.reports == ()
    assert again.final_epsilon == result.final_epsilon


def test_near_stationary_iterates_are_nearly_feasible():
    # once w^k and its auxiliary coincide, the next iterate solves the
    # constraint and later steps stall
    problem, config = running_example()
    state = IterationState.initial(zeros_point(problem))
    state, _ = step(problem, config, state)
    gap = np.linalg.norm(pack_point(problem, state.current)
                         - pack_point(problem, state.auxiliary))
    assert gap <= 1e-12
    assert primal_feasibility(problem, state.current) <= 1e-8
    state2, _ = step(problem, config, state)
    move = np.linalg.norm(pack_point(problem, state2.current)
                          - pack_point(problem, state.current))
    assert move <= 1e-8


def test_strict_run_h_norm_steps_never_increase(strict_setup):
    metrics = strict_setup.metrics
    problem = strict_setup.problem
    trajectory = strict_setup.trajectory
    lengths = []
    for k in range(trajectory.steps):
        diff = (pack_point(problem, trajectory.points[k])
                - pack_point(problem, trajectory.points[k + 1]))
        lengths.append(weighted_norm_sq(metrics, diff, "h"))
    for before, after in zip(lengths, lengths[1:]):
        assert after <= before + 1e-10 * (1.0 + before)


def test_record_trajectory_lengths():
    instance = generate_instance(3, seed=4)
    problem = build_problem(instance)
    config = SolverConfig(rho=1.0, gamma=1.0,
                          proximal_metrics=default_metrics(instance),
                          max_iterations=7, tolerance=1e-300,
                          record_trajectory=True)
    result = solve(problem, config, zeros_point(problem))
    assert result.trajectory is not None
    assert result.trajectory.steps == result.iterations == 7
    assert len(result.trajectory.points) == 8
    assert len(result.trajectory.auxiliaries) == 7


@pytest.mark.parametrize("gamma, scale, strict", [(1.5, 4.0, True), (1.9, 0.5, False)])
def test_derived_auxiliary_points_are_bitwise_the_steps(monkeypatch, gamma, scale, strict):
    instance = generate_instance(6, seed=0)
    problem = build_problem(instance)
    config = SolverConfig(rho=1.0, gamma=gamma,
                          proximal_metrics=default_metrics(instance, scale=scale),
                          max_iterations=400, strict_theory_mode=strict,
                          record_trajectory=True)
    stepped = []

    def recording_step(*args, _original=step):
        state, report = _original(*args)
        stepped.append(state.auxiliary)
        return state, report

    monkeypatch.setattr("lgadmm.solver.step", recording_step)
    trajectory = solve(problem, config, zeros_point(problem)).trajectory
    assert len(stepped) == trajectory.steps > 0
    for k, expected in enumerate(stepped):
        derived = trajectory.auxiliary(k)
        assert derived.primal is trajectory.points[k + 1].primal
        for a, b in zip((*derived.primal, derived.dual), (*expected.primal, expected.dual)):
            assert a.tobytes() == b.tobytes()
    with pytest.raises(IndexError):
        trajectory.auxiliary(trajectory.steps)


def test_recorded_trajectory_stores_no_auxiliary_multipliers():
    # the record's contract is its T + 1 written rows plus at most one chunk
    # of reserved rows; the rest must fit in half a multiplier per step, so
    # one stored multiplier per step exceeds the allowance. 96 steps leave
    # 15 rows of the last chunk reserved, 100 steps leave 11.
    instance = generate_instance(20, seed=0)
    problem = build_problem(instance)
    for max_iterations in (96, 100):
        config = SolverConfig(rho=1.0, gamma=1.5,
                              proximal_metrics=default_metrics(instance, scale=4.0),
                              max_iterations=max_iterations, tolerance=1e-300,
                              record_trajectory=True)
        start = zeros_point(problem)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            result = solve(problem, config, start)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        steps = result.trajectory.steps
        assert steps == max_iterations
        rows = steps + 1 + TRAJECTORY_CHUNK_ROWS
        allowance = 8 * (rows * problem.total_dim + steps * problem.constraint_dim // 2)
        assert retained < allowance, (steps, retained, allowance)


def test_recorded_points_are_views_of_packed_rows():
    # 40 steps fill two chunks of rows and part of a third
    assert 2 * TRAJECTORY_CHUNK_ROWS < 41 < 3 * TRAJECTORY_CHUNK_ROWS
    instance = generate_instance(4, seed=1)
    problem = build_problem(instance)
    config = SolverConfig(rho=1.0, gamma=1.5,
                          proximal_metrics=default_metrics(instance, scale=4.0),
                          max_iterations=40, tolerance=1e-300,
                          record_trajectory=True)
    result = solve(problem, config, zeros_point(problem))
    trajectory = result.trajectory
    assert trajectory.steps == 40 and len(trajectory.points) == 41
    rows = [trajectory.row(k) for k in range(41)]
    for k, (point, row) in enumerate(zip(trajectory.points, rows)):
        assert row.shape == (problem.total_dim,)
        assert all(np.shares_memory(x, row) for x in (*point.primal, point.dual)), k
        assert pack_point(problem, point).tobytes() == row.tobytes(), k
    # the returned iterate is the step's own, never a view of the record
    assert result.state.current is result.final
    assert pack_point(problem, result.final).tobytes() == rows[-1].tobytes()
    for x in (*result.final.primal, result.final.dual):
        assert not any(np.shares_memory(x, row) for row in rows)
    for k in (-1, 41):
        with pytest.raises(IndexError):
            trajectory.row(k)

    # writing through a point changes the record; replacing an element does not
    view, before = trajectory.points[20], trajectory.auxiliary(19).dual.copy()
    trajectory.points[20] = zeros_point(problem)
    assert np.array_equal(trajectory.auxiliary(19).dual, before)
    assert rows[20].any()
    view.primal[0][:] += 1.0
    assert pack_point(problem, view).tobytes() == trajectory.row(20).tobytes()
    assert not np.array_equal(trajectory.auxiliary(19).dual, before)


def test_record_built_from_a_list_packs_it():
    problem = scalar_zero_problem(num_blocks=3)
    given = [PrimalDualPoint((np.array([k]), np.array([-k]), np.array([2.0 * k])),
                             np.array([0.5 * k]))
             for k in range(TRAJECTORY_CHUNK_ROWS + 3, 0, -1)]
    config = SolverConfig(rho=1.0, gamma=1.0, proximal_metrics=identity_metrics(problem))
    record = TrajectoryRecord(points=given, problem=problem, config=config)
    assert record.steps == len(given) - 1 == len(record.points) - 1
    assert record.points is not given
    for k, point in enumerate(given):
        assert record.row(k).tobytes() == pack_point(problem, point).tobytes()
        assert record.points[k] is not point
        assert pack_point(problem, record.points[k]).tobytes() == record.row(k).tobytes()
        assert not any(np.shares_memory(x, record.row(k))
                       for x in (*point.primal, point.dual))
    # the record copied the list: changing the given points leaves it as it was
    given[0].dual[0] = 99.0
    assert record.row(0)[-1] == 0.5 * len(given)
    # four entries in a three-block layout of the same total size
    misplaced = PrimalDualPoint((np.zeros(2), np.zeros(0), np.zeros(1)), np.zeros(1))
    with pytest.raises(DimensionMismatchError):
        record.append(misplaced)
    assert record.steps == len(given) - 1


def strict_and_reference_configs(instance):
    """The strict certify configuration and its tighter reference twin."""
    strict = SolverConfig(rho=1.0, gamma=1.5,
                          proximal_metrics=default_metrics(instance, scale=4.0),
                          max_iterations=2_000, tolerance=1e-8,
                          strict_theory_mode=True, record_trajectory=True)
    reference = replace(strict, max_iterations=20_000, tolerance=1e-10,
                        record_trajectory=False)
    return strict, reference


def test_resumed_reference_equals_fresh_solve():
    instance = generate_instance(6, seed=2)
    problem = build_problem(instance)
    strict_config, reference_config = strict_and_reference_configs(instance)
    strict = solve(problem, strict_config, zeros_point(problem))

    def recorded_bytes():
        return [x.tobytes()
                for p in strict.trajectory.points + strict.trajectory.auxiliaries
                for x in (*p.primal, p.dual)]

    recorded = recorded_bytes()
    resumed = solve(problem, reference_config, strict.state)
    fresh = solve(problem, reference_config, zeros_point(problem))
    assert strict.converged and 0 < strict.iterations < resumed.iterations
    assert resumed.iterations == fresh.iterations
    assert resumed.final_epsilon == fresh.final_epsilon
    assert resumed.converged is fresh.converged is True
    assert len(resumed.reports) == resumed.iterations - strict.iterations
    for a, b in zip((*resumed.final.primal, resumed.final.dual),
                    (*fresh.final.primal, fresh.final.dual)):
        assert np.array_equal(a, b)
    assert recorded_bytes() == recorded


def test_resume_when_tolerance_already_met_takes_no_step(monkeypatch):
    instance = generate_instance(6, seed=2)
    problem = build_problem(instance)
    strict_config, _ = strict_and_reference_configs(instance)
    strict = solve(problem, strict_config, zeros_point(problem))
    assert strict.converged
    monkeypatch.setattr("lgadmm.solver.step", None)
    again = solve(problem, replace(strict_config, tolerance=1e-6), strict.state)
    assert again.converged and again.stop_reason == "tolerance"
    assert again.iterations == strict.iterations
    assert again.reports == ()
    assert again.final is strict.final
    assert len(again.trajectory.points) == 1
    # the record holds its own copy of w^0, bitwise the point it resumed from
    assert again.trajectory.row(0).tobytes() == pack_point(problem, strict.final).tobytes()


def nan_block():
    return BlockSpec(
        dim=1,
        linear_map=quadratic_spec([[1.0]]).linear_map,
        subproblem_oracle=lambda t, c, r, m: np.array([np.nan]),
        objective_oracle=lambda x: 0.0,
    )


def test_nan_oracle_raises_divergence_error():
    base = scalar_zero_problem()
    from lgadmm.problem import BlockProblem
    problem = BlockProblem(blocks=(nan_block(),) + base.blocks[1:],
                           rhs=base.rhs, constraint_dim=1)
    config = SolverConfig(rho=1.0, gamma=1.0,
                          proximal_metrics=identity_metrics(problem))
    with pytest.raises(DivergenceError):
        solve(problem, config, zeros_point(problem))


def test_failing_oracle_wrapped_with_block_index():
    def broken(t, c, r, m):
        raise RuntimeError("inner failure")

    base = scalar_zero_problem()
    from lgadmm.problem import BlockProblem
    bad = BlockSpec(dim=1, linear_map=base.blocks[0].linear_map,
                    subproblem_oracle=broken, objective_oracle=lambda x: 0.0)
    problem = BlockProblem(blocks=(base.blocks[0], bad, base.blocks[2]),
                           rhs=base.rhs, constraint_dim=1)
    config = SolverConfig(rho=1.0, gamma=1.0,
                          proximal_metrics=identity_metrics(problem))
    with pytest.raises(OracleError) as info:
        solve(problem, config, zeros_point(problem))
    assert info.value.block == 1


def test_zero_metrics_helper():
    problem = scalar_zero_problem()
    metrics = zero_metrics(problem)
    assert len(metrics) == 3
    assert all(m.min_eigenvalue() == 0.0 for m in metrics)


def test_solver_does_not_import_certificates():
    # the certificates read the solver's validation, never the reverse
    import lgadmm.solver

    tree = ast.parse(Path(lgadmm.solver.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert not any("certificates" in name for name in imported), imported


def test_each_scalar_and_theory_rule_is_decided_in_one_place():
    # SolverConfig judges gamma (sigma_gamma is a function of a bare float),
    # validation alone compares eigenvalues with EIG_ZERO_TOL, and the command
    # line leaves rho, tol, max-iter and gamma to SolverConfig
    import lgadmm

    package = Path(lgadmm.__file__).parent
    owners = set()
    for path in sorted(package.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                        and "strictly between 0 and 2" in node.value):
                    owners.add((path.name, getattr(top, "name", None)))
    assert owners == {("solver.py", "SolverConfig"), ("certificates.py", "sigma_gamma")}
    certificates = ast.parse((package / "certificates.py").read_text())
    assert "EIG_ZERO_TOL" not in {node.id for node in ast.walk(certificates)
                                  if isinstance(node, ast.Name)}
    assert "EIG_ZERO_TOL" not in {alias.name for node in ast.walk(certificates)
                                  if isinstance(node, ast.ImportFrom) for alias in node.names}
    cli_tree = ast.parse((package / "cli.py").read_text())
    check = next(node for node in cli_tree.body
                 if getattr(node, "name", None) == "_check_settings")
    ordering = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)
    compared = {sub.value for node in ast.walk(check)
                if isinstance(node, ast.Compare) and isinstance(node.ops[0], ordering)
                for sub in ast.walk(node) if isinstance(sub, ast.Constant)}
    assert not compared & {"rho", "tol", "max_iter", "gamma", "gamma_grid"}, compared


def test_package_does_not_import_numpy_random():
    # every probe the package draws comes from the splitmix stream, so no
    # subcommand pays for loading numpy.random
    import lgadmm

    pattern = re.compile(r"(numpy|np)\.random(\.|$)")
    found = []
    for path in sorted(Path(lgadmm.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                names = [module, *(f"{module}.{alias.name}" for alias in node.names)]
            elif isinstance(node, ast.Attribute):
                names = [ast.unparse(node)]
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {name}"
                      for name in names if pattern.match(name)]
    assert not found, found


def test_package_imports_only_names_it_uses():
    # a name listed in the module's __all__ is a re-export, so it counts as
    # used; every import of the package's __init__ is one
    import lgadmm

    unused = []
    for path in sorted(Path(lgadmm.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported, exported = {}, set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
            elif (isinstance(node, ast.Assign)
                  and any(getattr(target, "id", None) == "__all__" for target in node.targets)):
                exported = set(ast.literal_eval(node.value))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line}: {name}" for name, line in imported.items()
                   if name not in used | exported]
    assert not unused, unused
