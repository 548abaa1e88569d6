"""Problem model: objective, feasibility, VI reformulation, metrics."""

import numpy as np
import pytest

from lgadmm.calibration import block_dim, generate_instance, stacked_maps, to_block
from lgadmm.operators import (
    BlockSignMap,
    LinearizedMetric,
    ScaledIdentity,
    gram_spectral_norm,
)
from lgadmm.problem import (
    BlockProblem,
    BlockSpec,
    DimensionMismatchError,
    PrimalDualPoint,
    SpectralThresholdError,
    _box_muller,
    check_point,
    constraint_residual,
    evaluate_objective,
    feasible_probe,
    make_linearized_metric,
    pack_point,
    splitmix64_uniform,
    unpack_point,
    vi_operator,
    zeros_point,
)
from reference import primal_feasibility, vi_monotone_gap
from util import chain_problem, gapped_matrix, quadratic_spec, scalar_zero_problem


def copies_point(problem, matrix):
    block = to_block(np.asarray(matrix, dtype=float))
    return PrimalDualPoint((block,) * problem.num_blocks,
                           np.zeros(problem.constraint_dim))


def test_objective_zero_at_data_matrix(small_problem, small_instance):
    point = copies_point(small_problem, small_instance.c)
    assert evaluate_objective(small_problem, point) == pytest.approx(0.0, abs=1e-15)


def test_objective_shifted_copies():
    instance = generate_instance(2, seed=0)
    problem = __import__("lgadmm").build_problem(instance)
    point = copies_point(problem, instance.c + np.eye(2))
    assert evaluate_objective(problem, point) == pytest.approx(3.0)


def test_objective_scalar_two_block():
    problem = chain_problem([[1.0], [1.0]], [0.0],
                            hessians=[[[2.0]], [[2.0]]])
    point = PrimalDualPoint((np.array([1.0]), np.array([2.0])), np.zeros(1))
    assert evaluate_objective(problem, point) == pytest.approx(5.0)


def test_objective_midpoint_convexity(small_problem):
    rng = np.random.default_rng(11)
    dims = small_problem.block_dims
    for _ in range(25):
        a = PrimalDualPoint(tuple(rng.standard_normal(d) for d in dims),
                            np.zeros(small_problem.constraint_dim))
        b = PrimalDualPoint(tuple(rng.standard_normal(d) for d in dims),
                            np.zeros(small_problem.constraint_dim))
        mid = PrimalDualPoint(
            tuple((x + y) / 2 for x, y in zip(a.primal, b.primal)),
            np.zeros(small_problem.constraint_dim))
        lhs = evaluate_objective(small_problem, mid)
        rhs = (evaluate_objective(small_problem, a)
               + evaluate_objective(small_problem, b)) / 2
        assert lhs <= rhs + 1e-10


def test_feasibility_zero_on_equal_copies(small_problem, small_instance):
    point = copies_point(small_problem, small_instance.c)
    assert primal_feasibility(small_problem, point) == pytest.approx(0.0, abs=1e-14)


def test_feasibility_unit_consensus_gap():
    blocks = tuple(
        BlockSpec(dim=block_dim(1), linear_map=amap,
                  subproblem_oracle=lambda target, center, rho, metric: center,
                  objective_oracle=lambda x: 0.0)
        for amap in stacked_maps(1)
    )
    problem = BlockProblem(blocks=blocks, rhs=np.zeros(3), constraint_dim=3)
    point = PrimalDualPoint(
        (np.array([1.0]), np.array([0.0]), np.array([0.0])), np.zeros(3))
    assert primal_feasibility(problem, point) == pytest.approx(np.sqrt(2.0))


def test_feasibility_scalar_two_block():
    problem = chain_problem([[1.0], [1.0]], [3.0])
    point = PrimalDualPoint((np.array([1.0]), np.array([1.0])), np.zeros(1))
    assert primal_feasibility(problem, point) == pytest.approx(1.0)


def test_constraint_residual_on_copies(small_problem, small_instance):
    point = copies_point(small_problem, small_instance.c)
    residual = constraint_residual(small_problem, point)
    assert np.allclose(residual, 0.0, atol=1e-13)


def test_vi_operator_structure():
    problem = chain_problem([[1.0], [2.0]], [0.5])
    y = np.array([3.0])
    point = PrimalDualPoint((np.array([1.0]), np.array([-1.0])), y)
    value = vi_operator(problem, point)
    assert value.tolist() == pytest.approx([-3.0, -6.0, 1.0 - 2.0 - 0.5])


def test_vi_gap_zero_at_equal_points(small_problem):
    rng = np.random.default_rng(5)
    point = PrimalDualPoint(
        tuple(rng.standard_normal(d) for d in small_problem.block_dims),
        rng.standard_normal(small_problem.constraint_dim))
    assert vi_monotone_gap(small_problem, point, point) == pytest.approx(0.0)


def test_vi_gap_scalar_example():
    problem = chain_problem([[1.0], [1.0]], [0.0])
    w1 = PrimalDualPoint((np.array([1.0]), np.array([0.0])), np.array([2.0]))
    w2 = PrimalDualPoint((np.array([0.0]), np.array([1.0])), np.array([-1.0]))
    assert vi_monotone_gap(problem, w1, w2) == pytest.approx(0.0, abs=1e-14)


def test_vi_gap_vanishes_on_random_pairs(small_problem):
    rng = np.random.default_rng(17)
    dims = small_problem.block_dims
    ell = small_problem.constraint_dim
    for _ in range(100):
        w1 = PrimalDualPoint(tuple(rng.standard_normal(d) for d in dims),
                             rng.standard_normal(ell))
        w2 = PrimalDualPoint(tuple(rng.standard_normal(d) for d in dims),
                             rng.standard_normal(ell))
        assert abs(vi_monotone_gap(small_problem, w1, w2)) <= 1e-12


def test_make_linearized_metric_scalar():
    block = quadratic_spec([[1.0]])
    metric = make_linearized_metric(block, rho=1.0, tau=2.0)
    assert np.allclose(metric.dense(), [[1.0]])
    assert metric.min_eigenvalue() == pytest.approx(1.0)


def test_make_linearized_metric_calibration_map():
    a1, _, _ = stacked_maps(3)
    block = BlockSpec(dim=a1.in_dim, linear_map=a1,
                      subproblem_oracle=lambda t, c, r, m: c,
                      objective_oracle=lambda x: 0.0)
    metric = make_linearized_metric(block, rho=1.0, tau=2.5)
    v = np.arange(float(block_dim(3)))
    assert np.allclose(metric.apply(v), 0.5 * v, atol=1e-7)
    assert metric.min_eigenvalue() == pytest.approx(0.5, abs=1e-7)


def test_make_linearized_metric_at_threshold_errors():
    a1, _, _ = stacked_maps(2)
    block = BlockSpec(dim=a1.in_dim, linear_map=a1,
                      subproblem_oracle=lambda t, c, r, m: c,
                      objective_oracle=lambda x: 0.0)
    with pytest.raises(SpectralThresholdError):
        make_linearized_metric(block, rho=1.0, tau=2.0)


def test_make_linearized_metric_refuses_tau_inside_a_small_gap():
    # top Gram eigenvalue 1.0 with the next one 1e-4 below it; a power
    # estimate of the top (about 0.99996) would accept tau = 0.99999952
    block = quadratic_spec(gapped_matrix()[0])
    tau = 0.99999952
    with pytest.raises(SpectralThresholdError):
        make_linearized_metric(block, rho=1.0, tau=tau)
    metric = LinearizedMetric(block.linear_map, 1.0, tau,
                              gram_spectral_norm(block.linear_map))
    assert metric.min_eigenvalue() < 0.0
    assert metric.min_eigenvalue() == pytest.approx(
        float(np.linalg.eigvalsh(metric.dense())[0]), abs=1e-12)


def test_pack_unpack_roundtrip(small_problem):
    problem = small_problem
    # the slices tile [0, total_dim) in block order, the multiplier last
    assert [(piece.start, piece.stop) for piece in problem.slices] == list(zip(
        np.cumsum([0, *problem.block_dims]),
        np.cumsum([*problem.block_dims, problem.constraint_dim])))
    assert problem.slices[-1].stop == problem.total_dim

    rng = np.random.default_rng(23)
    point = PrimalDualPoint(
        tuple(rng.standard_normal(d) for d in problem.block_dims),
        rng.standard_normal(problem.constraint_dim))
    vec = pack_point(problem, point)
    assert vec.shape == (problem.total_dim,)
    for piece, part in zip(problem.slices, (*point.primal, point.dual)):
        assert np.array_equal(vec[piece], part)
    buffer = np.full(problem.total_dim, np.nan)
    assert pack_point(problem, point, out=buffer) is buffer
    assert np.array_equal(buffer, vec)

    # unpacking copies nothing: every part is a view of the packed vector
    back = unpack_point(problem, vec)
    for original, restored in zip((*point.primal, point.dual),
                                  (*back.primal, back.dual)):
        assert np.array_equal(original, restored)
        assert np.shares_memory(restored, vec)
    vec[problem.slices[1]] = 7.0
    assert np.all(back.primal[1] == 7.0)
    with pytest.raises(DimensionMismatchError):
        unpack_point(problem, vec[:-1])

    # F(w) packed: -A_i'y in each block's slice, then the residual
    expected = np.concatenate([
        *(-block.linear_map.adjoint(point.dual) for block in problem.blocks),
        constraint_residual(problem, point)])
    assert np.array_equal(vi_operator(problem, point), expected)


@pytest.mark.parametrize("projected", [True, False])
def test_feasible_probe_parts_own_their_memory(small_problem, projected):
    # each part is copied out of the normals the probe is drawn from, so it
    # shares memory with no other part and keeps no larger buffer alive
    problem = small_problem if projected else scalar_zero_problem(3)
    probe = feasible_probe(problem, 3)
    parts = (*probe.primal, probe.dual)
    for i, part in enumerate(parts):
        assert part.base is None or part.base.nbytes == part.nbytes
        for other in parts[i + 1:]:
            assert not np.shares_memory(part, other)


def test_check_point_rejects_wrong_shapes(small_problem):
    bad = PrimalDualPoint(
        (np.zeros(3),) * small_problem.num_blocks,
        np.zeros(small_problem.constraint_dim))
    with pytest.raises(DimensionMismatchError):
        check_point(small_problem, bad)
    wrong_dual = PrimalDualPoint(
        tuple(np.zeros(d) for d in small_problem.block_dims), np.zeros(2))
    with pytest.raises(DimensionMismatchError):
        check_point(small_problem, wrong_dual)
    missing_block = PrimalDualPoint(
        tuple(np.zeros(d) for d in small_problem.block_dims[:-1]),
        np.zeros(small_problem.constraint_dim))
    with pytest.raises(DimensionMismatchError, match="point has 2 primal blocks, problem has 3"):
        check_point(small_problem, missing_block)


def test_zeros_point(small_problem):
    point = zeros_point(small_problem)
    for part, dim in zip(point.primal, small_problem.block_dims):
        assert part.shape == (dim,)
        assert not part.any()
    assert point.dual.shape == (small_problem.constraint_dim,)


def test_feasible_probe_respects_projections(small_problem):
    for seed in range(31, 41):
        probe = feasible_probe(small_problem, seed)
        for part, block in zip(probe.primal, small_problem.blocks):
            if block.projection is not None:
                assert np.allclose(block.projection(part), part, atol=1e-12)


def test_feasible_probe_deterministic_per_seed(small_problem):
    probe_a = feasible_probe(small_problem, 9)
    probe_b = feasible_probe(small_problem, 9)
    for left, right in zip(probe_a.primal, probe_b.primal):
        assert np.array_equal(left, right)
    assert np.array_equal(probe_a.dual, probe_b.dual)
    other = feasible_probe(small_problem, 10)
    assert not np.array_equal(pack_point(small_problem, other),
                              pack_point(small_problem, probe_a))


def test_feasible_probe_pinned_values():
    # Box-Muller on splitmix64_uniform(2024, 4); the same numbers come from
    # math.log/cos/sin on those uniforms, so any platform reproduces them
    problem = scalar_zero_problem(3)
    values = pack_point(problem, feasible_probe(problem, 2024))
    assert values.tolist() == pytest.approx(
        [1.143769344817183, 0.8009796614934415,
         0.6275664934417265, 0.5616459782301674], rel=1e-14)


def test_box_muller_normals_are_finite():
    assert np.all(np.isfinite(_box_muller(splitmix64_uniform(7, 10**6))))
    # u = 0 and the largest uniform below 1 both stay finite
    edges = _box_muller(np.array([0.0, 0.3, 1.0 - 2.0**-53, 0.3]))
    assert np.all(np.isfinite(edges))
    assert edges[:2].tolist() == [0.0, 0.0]


def test_feasible_probe_moments_and_scale():
    # two unconstrained blocks and their constraint rows: 10**5 draws
    blocks = tuple(
        BlockSpec(dim=25_000, linear_map=BlockSignMap((1, 0), 25_000),
                  subproblem_oracle=None, objective_oracle=None)
        for _ in range(2))
    problem = BlockProblem(blocks=blocks, rhs=np.zeros(50_000),
                           constraint_dim=50_000)
    draws = pack_point(problem, feasible_probe(problem, 5))
    assert draws.size == 10**5
    assert abs(draws.mean()) < 0.02
    assert abs(draws.var() - 1.0) < 0.02
    scaled = pack_point(problem, feasible_probe(problem, 5, scale=3.0))
    assert np.array_equal(scaled, 3.0 * draws)
    assert abs(scaled.mean()) < 3.0 * 0.02
    assert abs(scaled.var() - 9.0) < 9.0 * 0.02


def test_block_problem_validates_dimensions():
    with pytest.raises(DimensionMismatchError):
        chain_problem([[1.0]], [0.0])
    block = quadratic_spec([[1.0], [1.0]])
    with pytest.raises(DimensionMismatchError):
        BlockProblem(blocks=(block, quadratic_spec([[1.0]])),
                     rhs=np.zeros(2), constraint_dim=2)
    with pytest.raises(DimensionMismatchError, match="rhs has size 3"):
        BlockProblem(blocks=(block, block), rhs=np.zeros(3), constraint_dim=2)
    # a block is at least one-dimensional, and its map takes vectors of its size
    amap = block.linear_map
    with pytest.raises(DimensionMismatchError, match="block dimension must be positive"):
        BlockSpec(dim=0, linear_map=amap, subproblem_oracle=None, objective_oracle=None)
    with pytest.raises(DimensionMismatchError,
                       match="takes vectors of size 1, block has dimension 2"):
        BlockSpec(dim=2, linear_map=amap, subproblem_oracle=None, objective_oracle=None)


def test_subproblem_oracle_fixed_at_unregularized_minimizer(small_problem):
    # a minimizer of the plain subproblem stays put once used as the center
    rng = np.random.default_rng(41)
    block = small_problem.blocks[0]
    target = rng.standard_normal(small_problem.constraint_dim)
    rho = 1.3
    base = block.subproblem_oracle(target, np.zeros(block.dim), rho,
                                   ScaledIdentity(block.dim, 0.0))
    out = block.subproblem_oracle(target, base, rho,
                                  ScaledIdentity(block.dim, 0.7))
    assert out.shape == (block.dim,)
    assert np.allclose(out, base, atol=1e-12)
