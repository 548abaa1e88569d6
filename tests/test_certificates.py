"""Metric matrices and the runtime inequality checks."""

import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from lgadmm import certificates, solver
from lgadmm.calibration import build_problem, default_metrics, generate_instance
from lgadmm.certificates import (
    SLACK_COEFF,
    STEP_SAMPLES,
    ProbeFeasibilityError,
    apply_metric,
    assemble_metrics,
    check_probe_feasible,
    cross_term_check,
    ergodic_average,
    ergodic_gap_check,
    fejer_check,
    inequality_slack,
    nonergodic_monotonicity_check,
    nonergodic_rate_check,
    replay,
    sigma_gamma,
    step_inequality_check,
    update_recurrence_check,
    weighted_norm_sq,
)
from lgadmm.operators import BlockSignMap, DenseSymmetric, ScaledIdentity
from lgadmm.problem import (
    PrimalDualPoint,
    evaluate_objective,
    feasible_probe,
    vi_operator,
    zeros_point,
)
from lgadmm.solver import (
    TRAJECTORY_CHUNK_ROWS,
    ConfigError,
    SolverConfig,
    TrajectoryRecord,
    first_phase_dense,
    first_phase_min_eig_estimate,
    last_condition_min_eig_estimate,
    solve,
    structural_coupling,
    validate_config,
)
from reference import (
    assemble_dense_metrics,
    dense_first_phase,
    packing_replay,
    primal_feasibility,
    step_inequality_probe,
)
from synthetic import random_config, random_problem
from util import chain_problem


def two_block_hand_config():
    problem = chain_problem([[1.0], [1.0]], [0.0])
    config = SolverConfig(
        rho=1.0, gamma=1.0,
        proximal_metrics=(DenseSymmetric(np.array([[2.0]])),
                          DenseSymmetric(np.array([[1.0]]))))
    return problem, config


def strict_replay(strict_setup, probes=()):
    return replay(strict_setup.metrics, strict_setup.trajectory,
                  strict_setup.reference, probes)


def test_inequality_slack_scales_with_largest_term():
    assert inequality_slack(0.0) == pytest.approx(1e-8)
    assert inequality_slack(3.0, -50.0, 2.0) == pytest.approx(1e-8 * 51.0)


def test_sigma_gamma_values():
    assert sigma_gamma(1.0) == pytest.approx(1.0)
    assert sigma_gamma(1.9) == pytest.approx(1.0 / 19.0)
    assert sigma_gamma(0.5) == pytest.approx(1.0)
    for gamma in np.linspace(0.05, 1.95, 39):
        value = sigma_gamma(float(gamma))
        assert 0.0 < value <= 1.0
    with pytest.raises(ValueError):
        sigma_gamma(2.0)
    with pytest.raises(ValueError):
        sigma_gamma(0.0)


def test_assembled_matrices_match_hand_computation():
    problem, config = two_block_hand_config()
    metrics = assemble_dense_metrics(problem, config)
    assert np.allclose(metrics.q, [[2, 0, 0], [0, 2, 0], [0, -1, 1]])
    assert np.allclose(metrics.h, np.diag([2.0, 2.0, 1.0]))
    assert np.allclose(metrics.m_mat, [[1, 0, 0], [0, 1, 0], [0, -1, 1]])
    assert np.allclose(metrics.n_mat, np.diag([2.0, 1.0, 1.0]))
    assert metrics.g1 == pytest.approx(np.array([[2.0]]))
    assert metrics.to_dict()["strict_ok"]


def test_unit_relaxation_makes_h_block_diagonal():
    problem = random_problem(3, num_blocks=2, constraint_dim=3)
    rng = np.random.default_rng(0)
    config = random_config(rng, problem, gamma=1.0)
    metrics = assemble_dense_metrics(problem, config)
    last_dim = problem.block_dims[-1]
    ell = problem.constraint_dim
    off = metrics.h[metrics.first_dim:metrics.first_dim + last_dim,
                    metrics.first_dim + last_dim:]
    assert np.allclose(off, 0.0, atol=1e-12)
    assert off.shape == (last_dim, ell)


def test_factorization_identities_on_random_configs():
    rng = np.random.default_rng(1)
    for trial in range(10):
        problem = random_problem(200 + trial,
                                 num_blocks=int(rng.integers(2, 4)),
                                 constraint_dim=3)
        config = random_config(rng, problem)
        metrics = assemble_dense_metrics(problem, config)
        scale = 1.0 + max(np.abs(metrics.q).max(), np.abs(metrics.h).max())
        assert np.abs(metrics.q - metrics.h @ metrics.m_mat).max() <= 1e-12 * scale
        recomposed = (metrics.q.T + metrics.q
                      - metrics.m_mat.T @ metrics.h @ metrics.m_mat)
        assert np.abs(recomposed - metrics.n_mat).max() <= 1e-10 * scale
        validation = metrics.validation
        if validation.first_phase_min_eig > 1e-10:
            assert metrics.h_min_eig > 0.0
        closed_form = min(validation.first_phase_min_eig, validation.last_metric_min_eig,
                          (2.0 - config.gamma) / config.rho)
        assert abs(closed_form - metrics.n_min_eig) <= 1e-12 * scale
        # the shipped value is the closed form, read from validation
        assert assemble_metrics(problem, config).n_min_eig == closed_form


def test_weighted_norms_zero_vector(strict_setup):
    v = np.zeros(strict_setup.problem.total_dim)
    for which in ("h", "n"):
        assert weighted_norm_sq(strict_setup.metrics, v, which) == 0.0


def test_weighted_norm_unit_dual():
    problem, config = two_block_hand_config()
    metrics = assemble_dense_metrics(problem, config)
    v = np.zeros(problem.total_dim)
    v[-1] = 1.0
    assert weighted_norm_sq(metrics, v, "h") == pytest.approx(1.0)


@pytest.fixture(scope="module")
def strict_dense(strict_setup):
    return assemble_dense_metrics(strict_setup.problem, strict_setup.config)


def test_weighted_norms_dense_and_matrix_free_agree(strict_setup, strict_dense):
    free = strict_setup.metrics
    dense = strict_dense
    prox = strict_setup.config.proximal_metrics
    rng = np.random.default_rng(12)
    for _ in range(5):
        v = rng.standard_normal(strict_setup.problem.total_dim)
        r, xm, _ = free.split(v)
        # the first-phase rows of an H-product are G1 r
        g1_r = free.split(apply_metric(free, "h", v))[0]
        for expected, got in (
                (v @ dense.h @ v, weighted_norm_sq(free, v, "h")),
                (v @ dense.n_mat @ v, weighted_norm_sq(free, v, "n")),
                (r @ dense.g1 @ r, r @ g1_r),
                (xm @ prox[-1].dense() @ xm, prox[-1].quad(xm))):
            assert abs(got - expected) <= 1e-12 * (1.0 + abs(expected))
        for matrix, got in (
                # Q = H M
                (dense.q, apply_metric(free, "h", apply_metric(free, "m", v))),
                (dense.m_mat, apply_metric(free, "m", v)),
                (dense.h, apply_metric(free, "h", v)),
                (dense.n_mat, apply_metric(free, "n", v))):
            expected = matrix @ v
            assert np.linalg.norm(got - expected) <= 1e-12 * (
                1.0 + np.linalg.norm(expected))


def test_default_metrics_take_preconditions_from_validation(strict_setup):
    metrics = strict_setup.metrics
    validation = strict_setup.result.validation
    assert metrics.dense is None
    assert metrics.validation == validation
    # sign maps and scaled identities: the first-phase metric is K (x) I
    assert validation.first_phase_method == "exact"
    assert validation.first_phase_min_eig == 3.0
    assert set(metrics.to_dict()) == {"n_min_eig", "strict_ok", "strict_reason"}


def _reference_first_phase(problem, prox, rho, r):
    """The coupled first-phase product ``G1 r`` as allocating expressions:
    ``sum_j K_ij r_j`` from zero when ``structural_coupling`` gives ``K``,
    else ``P_i r_i - rho A_i'(sum_j A_j r_j - A_i r_i)`` with ``np.sum``."""
    blocks = problem.blocks[:-1]
    pieces = [r[piece] for piece in problem.slices[:-2]]
    coupling = structural_coupling(problem, prox, rho)
    if coupling is not None:
        return np.concatenate([
            sum((coupling[i, j] * other for j, other in enumerate(pieces)), np.zeros(x.size))
            for i, x in enumerate(pieces)])
    images = [block.linear_map.apply(x) for block, x in zip(blocks, pieces)]
    total = np.sum(images, axis=0)
    return np.concatenate([
        prox[i].apply(x) - rho * block.linear_map.adjoint(total - images[i])
        for i, (block, x) in enumerate(zip(blocks, pieces))])


def test_first_phase_apply_matches_stacked_sum():
    # dense maps have no structural Gram, so the product goes through images
    problem = random_problem(15, num_blocks=4, constraint_dim=5)
    config = random_config(np.random.default_rng(15), problem)
    prox, rho = config.proximal_metrics, config.rho
    assert structural_coupling(problem, prox, rho) is None
    metrics = assemble_metrics(problem, config)
    rng = np.random.default_rng(14)
    v = rng.standard_normal(problem.total_dim)
    v[0] = -0.0
    r = metrics.split(v)[0]
    expected = _reference_first_phase(problem, prox, rho, r)
    # the first-phase rows of an H-product are G1 r
    got = metrics.split(apply_metric(metrics, "h", v))[0]
    assert got.tobytes() == expected.tobytes()
    out = np.full(problem.total_dim, np.nan)
    assert apply_metric(metrics, "h", v, out=out) is out
    assert metrics.split(out)[0].tobytes() == expected.tobytes()


def test_structural_first_phase_apply_matches_dense(strict_setup):
    problem, metrics = strict_setup.problem, strict_setup.metrics
    prox, rho = strict_setup.config.proximal_metrics, strict_setup.config.rho
    assert structural_coupling(problem, prox, rho) is not None
    dense = dense_first_phase(problem, prox, rho)
    rng = np.random.default_rng(16)
    for _ in range(5):
        v = rng.standard_normal(problem.total_dim)
        expected = dense @ metrics.split(v)[0]
        out = np.full(problem.total_dim, np.nan)
        assert apply_metric(metrics, "h", v, out=out) is out
        got = metrics.split(out)[0]
        assert np.linalg.norm(got - expected) <= 1e-14 * np.linalg.norm(expected)


def _reference_apply_metric(metrics, which, v):
    """``apply_metric`` written with allocating products and one concatenation."""
    r, xm, y = metrics.split(v)
    problem, prox = metrics.problem, metrics.config.proximal_metrics
    rho, gamma = metrics.config.rho, metrics.config.gamma
    a_m, p_m = problem.blocks[-1].linear_map, prox[-1]
    am_x = a_m.apply(xm)
    if which == "m":
        return np.concatenate([r, xm, -rho * am_x + gamma * y])
    g1_r = _reference_first_phase(problem, prox, rho, r)
    if which == "h":
        out_m = (p_m.apply(xm) + (rho / gamma) * a_m.adjoint(am_x)
                 + ((1.0 - gamma) / gamma) * a_m.adjoint(y))
        out_y = ((1.0 - gamma) / gamma) * am_x + y / (gamma * rho)
    else:
        out_m = p_m.apply(xm)
        out_y = ((2.0 - gamma) / rho) * y
    return np.concatenate([g1_r, out_m, out_y])


def test_apply_metric_out_is_bitwise_the_allocating_product(strict_setup):
    # calibration (sign maps, scaled identities) and a dense random problem
    problem = random_problem(31, num_blocks=4, constraint_dim=5)
    dense = assemble_metrics(problem, random_config(np.random.default_rng(31), problem))
    rng = np.random.default_rng(32)
    for metrics in (strict_setup.metrics, dense):
        v = rng.standard_normal(metrics.problem.total_dim)
        signed_zeros = v.copy()
        signed_zeros[::3] = -0.0
        signed_zeros[1::3] = 0.0
        for vector in (v, signed_zeros):
            for which in ("m", "h", "n"):
                out = np.full(metrics.problem.total_dim, np.nan)
                assert apply_metric(metrics, which, vector, out=out) is out
                expected = _reference_apply_metric(metrics, which, vector)
                for got in (out, apply_metric(metrics, which, vector)):
                    assert np.array_equal(got, expected)
                    assert np.array_equal(np.signbit(got), np.signbit(expected))


@pytest.mark.parametrize("product, which", [
    # Q = H M is made as an H-product of an M-product, never on its own
    (apply_metric, "q"), (apply_metric, "x"),
    (weighted_norm_sq, "m"), (weighted_norm_sq, "q")])
def test_unknown_metrics_are_refused(strict_setup, product, which):
    v = np.ones(strict_setup.problem.total_dim)
    args = (which, v) if product is apply_metric else (v, which)
    with pytest.raises(ValueError, match="unknown metric"):
        product(strict_setup.metrics, *args)


def test_first_phase_min_eig_paths():
    problem, config = two_block_hand_config()
    value, method = first_phase_min_eig_estimate(
        problem, config.proximal_metrics, config.rho)
    assert value == pytest.approx(2.0)
    assert method == "operator"
    # calibration: sign maps and scaled identities give sigma - rho exactly,
    # under the dense cap and above it (n=24: 1152 first-phase rows)
    for n in (4, 24):
        instance = generate_instance(n, seed=0)
        value, method = first_phase_min_eig_estimate(
            build_problem(instance), default_metrics(instance), 1.0)
        assert (value, method) == (-0.5, "exact")
    # dense maps under the cap: eigendecomposition of the assembled metric,
    # less the backward-error margin
    problem = random_problem(17, num_blocks=4, constraint_dim=5)
    prox = random_config(np.random.default_rng(17), problem).proximal_metrics
    # the metric validation decomposes is the reference's, built from the stacked maps
    metric = dense_first_phase(problem, prox, 0.7)
    assert np.abs(first_phase_dense(problem, prox, 0.7) - metric).max() <= 1e-12
    truth = float(np.linalg.eigvalsh(metric)[0])
    value, method = first_phase_min_eig_estimate(problem, prox, 0.7)
    assert method == "dense"
    assert value < truth
    assert value == pytest.approx(truth, abs=1e-10)


def test_last_condition_bound():
    instance = generate_instance(4, seed=0)
    problem = build_problem(instance)
    value, method = last_condition_min_eig_estimate(
        problem, ScaledIdentity(16, 0.5), rho=1.0, gamma=1.0)
    assert value == pytest.approx(2.5, abs=1e-7)
    assert method == "bound"


def test_probe_feasibility_guard(small_problem):
    probe = feasible_probe(small_problem, 3)
    check_probe_feasible(small_problem, probe)
    primal = list(probe.primal)
    bad = primal[2] + 5.0
    with pytest.raises(ProbeFeasibilityError):
        check_probe_feasible(
            small_problem,
            PrimalDualPoint((primal[0], primal[1], bad), probe.dual))


def test_fejer_contraction_on_strict_run(strict_setup):
    report = fejer_check(strict_replay(strict_setup))
    assert report.passed
    assert report.iterations_checked == strict_setup.trajectory.steps
    assert report.worst_margin >= 0.0


def test_fejer_vacuous_on_single_point_trajectory(strict_setup):
    start = strict_setup.trajectory.points[0]
    tiny = TrajectoryRecord(points=[start], problem=strict_setup.problem,
                            config=strict_setup.config)
    report = fejer_check(replay(strict_setup.metrics, tiny, strict_setup.reference, ()))
    assert report.passed
    assert report.iterations_checked == 0
    assert report.details.get("vacuous")
    # with no step the rate bound and the step inequality compare nothing either,
    # and neither does the step inequality with no probe
    probe = feasible_probe(strict_setup.problem, 8)
    no_step = replay(strict_setup.metrics, tiny, strict_setup.reference, [probe])
    for report in (nonergodic_rate_check(no_step), step_inequality_check(no_step),
                   step_inequality_check(strict_replay(strict_setup))):
        assert (report.passed, report.iterations_checked, report.details) == (
            True, 0, {"vacuous": True}), report.check


def test_fejer_requires_trajectory(strict_setup):
    with pytest.raises(ValueError):
        fejer_check(replay(strict_setup.metrics, None, strict_setup.reference, ()))


def test_checks_skip_outside_strict_conditions():
    instance = generate_instance(4, seed=6)
    problem = build_problem(instance)
    config = SolverConfig(rho=1.0, gamma=1.0,
                          proximal_metrics=default_metrics(instance),
                          max_iterations=5, tolerance=1e-300,
                          record_trajectory=True)
    result = solve(problem, config, zeros_point(problem))
    metrics = assemble_metrics(problem, config)
    assert not metrics.to_dict()["strict_ok"]
    report = fejer_check(replay(metrics, result.trajectory, result.final, ()))
    assert report.skipped
    assert report.passed is None
    assert "first-phase metric" in report.skipped_reason
    # the gate and the summary's metric conditions are one lookup
    assert report.skipped_reason == metrics.to_dict()["strict_reason"]


def test_rate_checks_skip_on_indefinite_last_metric():
    # coupled first-phase metric and P_m + (rho/gamma) A_m'A_m positive
    # definite, P_m itself slightly indefinite
    problem = random_problem(11, num_blocks=3, dims=(2, 2, 3), constraint_dim=6)
    p_m = ScaledIdentity(3, -0.01)

    def config(**options):
        return SolverConfig(rho=1.0, gamma=1.0,
                            proximal_metrics=(ScaledIdentity(2, 3.0),
                                              ScaledIdentity(2, 3.0), p_m),
                            **options)

    recorded = config(max_iterations=200, tolerance=1e-300, record_trajectory=True)
    trajectory = solve(problem, recorded, zeros_point(problem)).trajectory
    reference = solve(problem, config(max_iterations=100_000, tolerance=1e-8),
                      zeros_point(problem)).final
    metrics = assemble_metrics(problem, recorded)
    assert metrics.to_dict()["strict_ok"]
    assert metrics.validation.last_metric_min_eig == -0.01
    record = replay(metrics, trajectory, reference, ())
    for report in (nonergodic_monotonicity_check(record),
                   nonergodic_rate_check(record),
                   cross_term_check(record)):
        assert report.skipped, report.check
        assert "positive semidefinite" in report.skipped_reason
    for report in (fejer_check(record),
                   update_recurrence_check(record)):
        assert report.passed, report.check
        assert report.iterations_checked == trajectory.steps


def test_step_monotonicity_on_strict_run(strict_setup):
    report = nonergodic_monotonicity_check(strict_replay(strict_setup))
    assert report.passed
    assert report.worst_margin >= 0.0


def test_rate_bound_on_strict_run(strict_setup):
    report = nonergodic_rate_check(strict_replay(strict_setup))
    assert report.passed
    assert report.details["tightest_t"] >= 1


def hand_record(points, probes=()):
    """The replay of a trajectory of ``points`` on the two-block hand problem."""
    problem, config = two_block_hand_config()
    trajectory = TrajectoryRecord(points=points, problem=problem, config=config)
    return replay(assemble_metrics(problem, config), trajectory, points[0], probes)


def test_ergodic_average_shapes():
    # with A_1 = A_2 = 1, b = 0 and rho = 1 the auxiliary point of the step
    # from w to w' is (x_1', x_2', y - x_1' - x_2)
    a = PrimalDualPoint((np.array([1.0]), np.array([3.0])), np.array([5.0]))
    b = PrimalDualPoint((np.array([2.0]), np.array([-1.0])), np.array([1.0]))
    constant = ergodic_average(hand_record([a, a, a]))
    assert [x.shape for x in constant.primal] == [(1,), (1,)]
    assert constant.dual.shape == (1,)
    assert constant.primal[0] == pytest.approx(1.0)
    assert constant.dual == pytest.approx(1.0)
    # (2, -1, 0) and (1, 3, 1)
    midpoint = ergodic_average(hand_record([a, b, a]))
    assert midpoint.primal[0] == pytest.approx(1.5)
    assert midpoint.primal[1] == pytest.approx(1.0)
    assert midpoint.dual == pytest.approx(0.5)
    with pytest.raises(ValueError):
        ergodic_average(hand_record([a]))
    # with no step the bound ||w - w^0||_H^2 / (2T) is infinite: vacuous
    assert ergodic_gap_check(hand_record([a], [b]), b).details == {"vacuous": True}


def random_trajectory(rng, steps, dims):
    """A record of ``steps + 1`` random points on a random problem with
    blocks of sizes ``dims[:-1]`` and a constraint of size ``dims[-1]``."""
    problem = random_problem(int(rng.integers(1 << 30)), num_blocks=len(dims) - 1,
                             dims=dims[:-1], constraint_dim=dims[-1])
    points = [PrimalDualPoint(tuple(rng.standard_normal(d) for d in dims[:-1]),
                              rng.standard_normal(dims[-1]))
              for _ in range(steps + 1)]
    config = random_config(rng, problem, dense_metrics=False)
    return TrajectoryRecord(points=points, problem=problem, config=config)


@pytest.mark.parametrize("count, dims", [
    (1, (3, 2, 4)), (2, (1, 1, 1)), (17, (5, 9, 6)), (300, (40, 40, 25))])
def test_ergodic_average_is_bitwise_mean(count, dims):
    trajectory = random_trajectory(np.random.default_rng(count), count, dims)
    for point in trajectory.points:
        point.primal[0][0] = -0.0  # np.mean sums from +0.0
    metrics = assemble_metrics(trajectory.problem, trajectory.config)
    average = ergodic_average(replay(metrics, trajectory, trajectory.points[0], ()))
    points = trajectory.auxiliaries
    for i in range(len(dims) - 1):
        expected = np.mean([p.primal[i] for p in points], axis=0)
        assert average.primal[i].tobytes() == expected.tobytes()
    expected = np.mean([p.dual for p in points], axis=0)
    assert average.dual.tobytes() == expected.tobytes()


@pytest.mark.parametrize("count", [10, 400])
def test_ergodic_average_memory_is_independent_of_length(count):
    # beyond its per-step scalars, the replay that sums the auxiliary points
    # and the average take the memory of a few points, whatever T is
    instance = generate_instance(30, seed=0)
    problem = build_problem(instance)
    config = SolverConfig(rho=1.0, gamma=1.5,
                          proximal_metrics=default_metrics(instance, scale=4.0))
    rng = np.random.default_rng(0)
    points = [PrimalDualPoint(tuple(rng.standard_normal(d) for d in problem.block_dims),
                              rng.standard_normal(problem.constraint_dim))
              for _ in range(count + 1)]
    trajectory = TrajectoryRecord(points=points, problem=problem, config=config)
    metrics = assemble_metrics(problem, config)
    tracemalloc.start()
    try:
        ergodic_average(replay(metrics, trajectory, points[0], ()))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    point_bytes = 8 * problem.total_dim
    assert peak - 7 * 8 * (count + 1) < 16 * point_bytes


def test_ergodic_average_feasibility_bounded_by_worst(small_problem, small_instance):
    config = SolverConfig(rho=1.0, gamma=1.5,
                          proximal_metrics=default_metrics(small_instance),
                          max_iterations=50, tolerance=1e-300,
                          record_trajectory=True)
    result = solve(small_problem, config, zeros_point(small_problem))
    residuals = [primal_feasibility(small_problem, point)
                 for point in result.trajectory.auxiliaries]
    record = replay(assemble_metrics(small_problem, config), result.trajectory, result.final, ())
    average = ergodic_average(record)
    assert primal_feasibility(small_problem, average) <= max(residuals) + 1e-12


def test_ergodic_gap_bound_on_strict_run(strict_setup):
    probes = [feasible_probe(strict_setup.problem, s) for s in range(31, 41)]
    record = strict_replay(strict_setup, probes)
    report = ergodic_gap_check(record, ergodic_average(record))
    assert report.passed
    assert report.details["num_probes"] == 10
    assert report.iterations_checked == strict_setup.trajectory.steps


def test_ergodic_gap_self_probe_trivially_passes(strict_setup):
    average = ergodic_average(strict_replay(strict_setup))
    report = ergodic_gap_check(strict_replay(strict_setup, [average]), average)
    assert report.passed


def test_ergodic_gap_detects_falsified_bound(strict_setup):
    # replacing the average with a far feasible point must fail the check
    far = feasible_probe(strict_setup.problem, 4, scale=5.0)
    probe = feasible_probe(strict_setup.problem, 5)
    report = ergodic_gap_check(strict_replay(strict_setup, [probe]), far)
    assert report.passed is False


def test_cross_term_bound_on_strict_run(strict_setup):
    report = cross_term_check(strict_replay(strict_setup))
    assert report.passed
    assert report.worst_margin >= 0.0


def test_cross_term_stationary_equality(strict_setup):
    point = strict_setup.trajectory.points[0]
    stationary = TrajectoryRecord(points=[point, point, point],
                                  problem=strict_setup.problem,
                                  config=strict_setup.config)
    report = cross_term_check(replay(strict_setup.metrics, stationary,
                                     strict_setup.reference, ()))
    assert report.passed
    assert report.worst_margin == pytest.approx(1e-8, rel=1e-6)


def test_replay_of_rows_is_bitwise_the_packing_replay(strict_setup):
    # the strict run spans several chunks of rows; a record built from a list
    # (a prefix with one point shifted) and a one-point record are the others
    trajectory = strict_setup.trajectory
    assert trajectory.steps > 4 * TRAJECTORY_CHUNK_ROWS
    points = list(trajectory.points[:TRAJECTORY_CHUNK_ROWS + 2])
    points[5] = PrimalDualPoint(tuple(x + 1.0 for x in points[5].primal), points[5].dual)
    records = [trajectory,
               TrajectoryRecord(points=points, problem=strict_setup.problem,
                                config=strict_setup.config),
               TrajectoryRecord(points=points[:1], problem=strict_setup.problem,
                                config=strict_setup.config)]
    probes = [feasible_probe(strict_setup.problem, s) for s in (19, 20, 21)]
    arrays = ("ref_dist", "norms", "gap", "residual", "h_step", "cross", "last_move",
              "auxiliary_sum", "step_terms")
    for record in records:
        got = replay(strict_setup.metrics, record, strict_setup.reference, probes)
        expected = packing_replay(strict_setup.metrics, record, strict_setup.reference, probes)
        assert set(vars(got)) == {"metrics", "probes", "sampled", *arrays}
        assert got.metrics is expected.metrics
        assert got.sampled == expected.sampled
        assert len(got.sampled) == min(STEP_SAMPLES, record.steps)
        for name in arrays:
            assert getattr(got, name).tobytes() == getattr(expected, name).tobytes(), name
        assert len(got.probes) == len(expected.probes) == len(probes)
        for mine, theirs in zip(got.probes, expected.probes):
            assert [np.asarray(term).tobytes() for term in mine] == \
                [np.asarray(term).tobytes() for term in theirs]


def test_update_recurrence_on_strict_run(strict_setup):
    report = update_recurrence_check(strict_replay(strict_setup))
    assert report.passed


def test_update_recurrence_detects_corruption(strict_setup):
    trajectory = strict_setup.trajectory
    mid = len(trajectory.points) // 2
    points = list(trajectory.points)
    original = points[mid]
    points[mid] = PrimalDualPoint(
        tuple(part + 10.0 for part in original.primal), original.dual + 10.0)
    corrupted = TrajectoryRecord(points=points, problem=strict_setup.problem,
                                 config=strict_setup.config)
    report = update_recurrence_check(replay(strict_setup.metrics, corrupted,
                                            strict_setup.reference, ()))
    assert report.passed is False


def test_step_inequality_probe_zero_at_auxiliary(strict_setup):
    trajectory = strict_setup.trajectory
    margin = step_inequality_probe(strict_setup.metrics, trajectory, 0,
                                   trajectory.auxiliary(0))
    assert margin == pytest.approx(0.0, abs=1e-10)


def test_step_inequality_probe_requires_completed_step(strict_setup):
    start = TrajectoryRecord(points=strict_setup.trajectory.points[:1],
                             problem=strict_setup.problem,
                             config=strict_setup.config)
    probe = feasible_probe(strict_setup.problem, 8)
    with pytest.raises(IndexError):
        step_inequality_probe(strict_setup.metrics, start, 0, probe)


def test_step_inequality_check_on_strict_run(strict_setup):
    probes = [feasible_probe(strict_setup.problem, s) for s in range(9, 12)]
    report = step_inequality_check(strict_replay(strict_setup, probes))
    assert report.passed
    sampled = report.details["sampled_iterations"]
    assert len(sampled) == STEP_SAMPLES
    assert sampled == sorted(set(sampled))
    assert sampled[0] == 0 and sampled[-1] == strict_setup.trajectory.steps - 1
    # one margin per sampled step, the worst over the probes
    assert report.iterations_checked == len(sampled)
    assert report.details["num_probes"] == 3


def test_step_inequality_check_rejects_infeasible_probe(strict_setup):
    probe = feasible_probe(strict_setup.problem, 10)
    primal = list(probe.primal)
    primal[2] = primal[2] + 3.0
    bad = PrimalDualPoint(tuple(primal), probe.dual)
    with pytest.raises(ProbeFeasibilityError):
        strict_replay(strict_setup, [bad])


def test_replay_matches_direct_per_step_evaluation(strict_setup):
    metrics, trajectory = strict_setup.metrics, strict_setup.trajectory
    problem, reference = strict_setup.problem, strict_setup.reference

    def pack(point):
        return np.concatenate([*point.primal, point.dual])

    w = [pack(p) for p in trajectory.points]
    wbar = [pack(p) for p in trajectory.auxiliaries]
    ref = pack(reference)
    steps = range(trajectory.steps)

    fejer = []
    for k in steps:
        before = weighted_norm_sq(metrics, w[k] - ref, "h")
        decrease = weighted_norm_sq(metrics, w[k] - wbar[k], "n")
        after = weighted_norm_sq(metrics, w[k + 1] - ref, "h")
        fejer.append(before - decrease - after
                     + inequality_slack(before, decrease, after))
    lengths = [weighted_norm_sq(metrics, w[k] - w[k + 1], "h") for k in steps]
    monotone = [lengths[k] - lengths[k + 1] + inequality_slack(lengths[k], lengths[k + 1])
                for k in range(len(lengths) - 1)]
    p_m = strict_setup.config.proximal_metrics[-1]
    a_m = problem.blocks[-1].linear_map
    xm = [p.primal[-1] for p in trajectory.points]
    constant = (weighted_norm_sq(metrics, w[0] - ref, "h")
                / sigma_gamma(strict_setup.config.gamma)
                + p_m.quad(xm[0] - xm[1]))
    rate = [constant - t * lengths[t] + inequality_slack(constant, t * lengths[t])
            for t in range(1, len(lengths))]
    recurrence = []
    for k in steps:
        predicted = w[k] - apply_metric(metrics, "m", w[k] - wbar[k])
        residual = float(np.linalg.norm(predicted - w[k + 1]))
        scale = 1.0 + max(float(np.linalg.norm(w[k])), float(np.linalg.norm(w[k + 1])))
        recurrence.append(SLACK_COEFF - residual / scale)
    cross = []
    for k in range(1, trajectory.steps):
        dx = xm[k] - xm[k + 1]
        dy = trajectory.points[k].dual - trajectory.points[k + 1].dual
        lhs = float(dx @ a_m.adjoint(dy))
        gain = 0.5 * p_m.quad(dx)
        loss = 0.5 * p_m.quad(xm[k - 1] - xm[k])
        cross.append(lhs - gain + loss + inequality_slack(lhs, gain, loss))
    probes = [feasible_probe(problem, s) for s in range(12, 15)]
    inequality = []
    sampled = np.unique(np.linspace(0, trajectory.steps - 1, STEP_SAMPLES).astype(int))
    for k in sampled:
        # a sampled step's margin is its worst over the probes
        per_probe = []
        for probe in probes:
            diff = pack(probe) - wbar[k]
            value = vi_operator(problem, trajectory.auxiliary(k))
            lhs = (evaluate_objective(problem, probe)
                   - evaluate_objective(problem, trajectory.auxiliary(k))
                   + float(diff @ value))
            # Q = H M
            q_step = apply_metric(metrics, "h", apply_metric(metrics, "m", w[k] - wbar[k]))
            rhs = float(diff @ q_step)
            per_probe.append(lhs - rhs + inequality_slack(lhs, rhs))
        inequality.append(min(per_probe))

    record = replay(metrics, trajectory, reference, probes)
    reports = [
        (fejer_check(record), fejer),
        (nonergodic_monotonicity_check(record), monotone),
        (nonergodic_rate_check(record), rate),
        (update_recurrence_check(record), recurrence),
        (cross_term_check(record), cross),
        (step_inequality_check(record), inequality),
    ]
    for report, margins in reports:
        assert report.iterations_checked == len(margins), report.check
        assert report.worst_margin == min(margins), report.check
        assert report.details["worst_index"] == int(np.argmin(margins)), report.check
    assert reports[2][0].details["tightest_t"] == int(np.argmin(rate)) + 1
    assert reports[5][0].details["sampled_iterations"] == sampled.tolist()


def test_step_inequality_check_shares_work_across_probes_and_steps(
        strict_setup, monkeypatch):
    calls = {"check_probe_feasible": 0, "vi_operator": 0}
    for name in calls:
        def counted(*args, _name=name, _original=getattr(certificates, name),
                    **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(certificates, name, counted)
    probes = [feasible_probe(strict_setup.problem, s) for s in range(13, 17)]
    report = step_inequality_check(strict_replay(strict_setup, probes))
    assert report.passed
    assert calls == {"check_probe_feasible": len(probes),
                     "vi_operator": len(report.details["sampled_iterations"])}


def test_probe_checks_evaluate_on_the_metrics_problem(strict_setup, monkeypatch):
    # every problem the probe checks evaluate on is the metrics' own
    metrics, trajectory = strict_setup.metrics, strict_setup.trajectory
    seen = []
    for name in ("check_probe_feasible", "evaluate_objective", "vi_operator", "pack_point"):
        def recorded(problem, *args, _original=getattr(certificates, name), **kwargs):
            seen.append(problem)
            return _original(problem, *args, **kwargs)
        monkeypatch.setattr(certificates, name, recorded)
    probes = [feasible_probe(strict_setup.problem, s) for s in (17, 18)]
    record = replay(metrics, trajectory, strict_setup.reference, probes)
    reports = [
        ergodic_gap_check(record, ergodic_average(record)),
        step_inequality_check(record),
    ]
    assert all(report.passed for report in reports)
    assert len(seen) > 2 * len(probes) and all(problem is metrics.problem for problem in seen)


def test_report_serialization(strict_setup):
    report = update_recurrence_check(strict_replay(strict_setup))
    payload = report.to_dict()
    assert payload["check"] == "update_recurrence"
    assert payload["passed"] is True
    assert "worst_margin" in payload
    assert "iterations_checked" in payload


def test_strict_metrics_report_positive_minima(strict_setup, strict_dense):
    metrics = strict_setup.metrics
    assert metrics.validation.first_phase_min_eig > 0.0
    assert metrics.n_min_eig > 0.0
    assert strict_dense.h_min_eig > 0.0
    assert strict_dense.n_min_eig > 0.0
    payload = metrics.to_dict()
    assert payload["strict_ok"] is True
    assert payload["strict_reason"] is None


def _owner(array):
    while isinstance(array.base, np.ndarray):
        array = array.base
    return array


def test_replay_products_reuse_their_buffers(strict_setup, monkeypatch):
    # One pass: every map product of the replay, those that derive the
    # auxiliary points included, writes into a buffer and reads from buffers
    # that outlive one step or from the record's rows, so the number of
    # distinct buffers does not grow with the trajectory. The recorded points
    # are read from their rows, not packed; each auxiliary point is derived
    # and packed once, and each metric product is made once. Only F
    # allocates, once per sampled step.
    calls, products, packed, derived, evaluated = [], [], [], [], []
    for name in ("apply", "adjoint"):
        def recording(self, v, out=None, _original=getattr(BlockSignMap, name)):
            # keeping the arrays alive keeps a freed buffer's address from being reused
            calls.append((v, out))
            return _original(self, v, out=out)
        monkeypatch.setattr(BlockSignMap, name, recording)

    def counted_auxiliary(*args, _original=certificates.auxiliary_point, **kwargs):
        point = _original(*args, **kwargs)
        derived.append((point, point.dual.copy()))
        return point

    def counted_product(metrics, which, v, out=None, _original=certificates.apply_metric):
        products.append(which)
        return _original(metrics, which, v, out=out)

    def counted_pack(problem, point, out=None, _original=certificates.pack_point):
        packed.append(point)
        return _original(problem, point, out=out)

    def set_aside(problem, point, _original=certificates.vi_operator):
        made = len(calls)
        value = _original(problem, point)
        evaluated.append(calls[made:])
        del calls[made:]
        return value

    monkeypatch.setattr(certificates, "vi_operator", set_aside)
    monkeypatch.setattr(certificates, "apply_metric", counted_product)
    monkeypatch.setattr(certificates, "pack_point", counted_pack)
    monkeypatch.setattr(certificates, "auxiliary_point", counted_auxiliary)

    def distinct_buffers(steps):
        trajectory = strict_setup.trajectory
        prefix = TrajectoryRecord(points=trajectory.points[:steps + 1],
                                  problem=strict_setup.problem,
                                  config=strict_setup.config)
        metrics = assemble_metrics(strict_setup.problem, strict_setup.config)
        for made in (calls, products, packed, derived, evaluated):
            made.clear()
        record = replay(metrics, prefix, strict_setup.reference, probes)
        sampled = min(STEP_SAMPLES, steps)
        assert len(record.sampled) == sampled
        # one H-product per probe for its ergodic bound, and one per sampled
        # step, of the M-product, for the step inequality's Q = H M
        assert Counter(products) == {"h": 2 * steps + 1 + len(probes) + sampled,
                                     "n": steps, "m": steps}
        assert len(derived) == steps
        assert len(evaluated) == sampled
        # besides the auxiliary points, only the reference and the probes are packed
        assert Counter(map(id, packed)) == Counter(map(id, [
            strict_setup.reference, *probes, *(point for point, _ in derived)]))
        for report in (fejer_check(record), update_recurrence_check(record),
                       nonergodic_monotonicity_check(record),
                       nonergodic_rate_check(record),
                       ergodic_gap_check(record, ergodic_average(record)),
                       step_inequality_check(record)):
            assert report.passed
        assert calls and all(out is not None for _, out in calls)
        rows = {id(_owner(prefix.row(k))) for k in range(steps + 1)}
        # the replay never writes into the record
        assert not rows & {id(_owner(out)) for _, out in calls}
        census = (len({id(_owner(out)) for _, out in calls}),
                  len({id(_owner(v)) for v, _ in calls} - rows), len(calls))
        # derived in place from the packed iterates, bitwise the step's point
        for k, (_, dual) in enumerate(derived):
            assert np.array_equal(dual, prefix.auxiliary(k).dual)
        return census

    probes = [feasible_probe(strict_setup.problem, s) for s in (22, 23)]
    short, long = distinct_buffers(10), distinct_buffers(200)
    assert long[2] > 10 * short[2]
    assert long[:2] == short[:2]


def test_certificates_refuse_a_trajectory_recorded_under_another_configuration(strict_setup):
    # metrics at another gamma or rho replayed a correct run into false failures
    problem, config = strict_setup.problem, strict_setup.config
    trajectory, reference = strict_setup.trajectory, strict_setup.reference
    probes = [feasible_probe(problem, 9)]
    others = [
        assemble_metrics(problem, replace(config, gamma=1.0)),
        assemble_metrics(problem, replace(config, rho=2.0)),
        # equal values, but not the metric objects the run was recorded with
        assemble_metrics(problem, replace(config, proximal_metrics=default_metrics(
            strict_setup.instance, scale=4.0))),
        assemble_metrics(build_problem(strict_setup.instance), config),
    ]
    for metrics in others:
        with pytest.raises(ValueError, match="recorded on another problem"):
            replay(metrics, trajectory, reference, ())
        with pytest.raises(ValueError, match="recorded on another problem"):
            replay(metrics, trajectory, reference, probes)
    # the stopping rule and the recording flag are not part of the metrics
    same = assemble_metrics(problem, replace(config, tolerance=1e-3, max_iterations=5,
                                             record_trajectory=False))
    record = replay(same, trajectory, reference, probes)
    assert update_recurrence_check(record).passed and fejer_check(record).passed
    assert step_inequality_check(record).passed


def _calibration_case(sigma, gamma):
    instance = generate_instance(5, seed=7)
    problem = build_problem(instance)
    return problem, SolverConfig(rho=1.0, gamma=gamma,
                                 proximal_metrics=default_metrics(instance, scale=sigma))


def _synthetic_case(seed, constraint_dim, last_scale):
    problem = random_problem(seed, num_blocks=3, dims=(2, 2, 3),
                             constraint_dim=constraint_dim)
    return problem, SolverConfig(rho=1.0, gamma=1.0, proximal_metrics=(
        ScaledIdentity(2, 3.0), ScaledIdentity(2, 3.0), ScaledIdentity(3, last_scale)))


@pytest.mark.parametrize("make, args, unproven", [
    (_calibration_case, (0.5, 0.5), {"first_phase"}),
    (_calibration_case, (0.5, 1.5), {"first_phase"}),
    (_calibration_case, (4.0, 0.5), set()),
    (_calibration_case, (4.0, 1.5), set()),
    # the case of test_rate_checks_skip_on_indefinite_last_metric
    (_synthetic_case, (11, 6, -0.01), {"last_metric"}),
    # P_m = 0 and a 2x3 last map: P_m + (rho/gamma) A_m'A_m is singular
    (_synthetic_case, (12, 2, 0.0), {"last_condition"}),
], ids=["calibration-0.5-0.5", "calibration-0.5-1.5", "calibration-4-0.5",
        "calibration-4-1.5", "indefinite-last-metric", "singular-last-condition"])
def test_strict_mode_refuses_exactly_what_some_certificate_skips(make, args, unproven):
    problem, config = make(*args)
    recorded = replace(config, max_iterations=12, tolerance=1e-300, record_trajectory=True)
    result = solve(problem, recorded, zeros_point(problem))
    trajectory = result.trajectory
    metrics = assemble_metrics(problem, recorded)
    assert set(metrics.validation.unproven) == unproven
    probes = [feasible_probe(problem, seed) for seed in (31, 32)]
    record = replay(metrics, trajectory, result.final, probes)
    reports = [
        update_recurrence_check(record),
        fejer_check(record),
        nonergodic_monotonicity_check(record),
        nonergodic_rate_check(record),
        cross_term_check(record),
        ergodic_gap_check(record, ergodic_average(record)),
        step_inequality_check(record),
    ]
    skipped = [report for report in reports if report.skipped]
    try:
        validate_config(problem, replace(recorded, strict_theory_mode=True))
    except ConfigError as exc:
        refusal = str(exc)
    else:
        refusal = None
    assert (refusal is not None) == bool(skipped), (refusal, [r.check for r in skipped])
    # one condition is unproven at most, and a skip gives its sentence, as strict mode does
    for report in skipped:
        assert report.skipped_reason in metrics.validation.warnings, report.check
        assert report.skipped_reason in refusal
