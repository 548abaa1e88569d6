"""Calibration benchmark: instances, projections, closed-form oracles."""

import ast
from pathlib import Path

import numpy as np
import pytest

from lgadmm.calibration import (
    CalibrationInstance,
    block_dim,
    build_problem,
    calibration_block_oracle,
    default_metrics,
    dump_instance,
    generate_instance,
    load_instance,
    project_box,
    project_psd,
    stacked_maps,
    to_block,
    to_matrix,
    verify_stacked_maps,
)
from lgadmm.operators import BlockSignMap, DenseSymmetric, ScaledIdentity
from lgadmm.problem import (
    PrimalDualPoint,
    evaluate_objective,
    splitmix64_uniform,
    zeros_point,
)
from lgadmm.solver import SolverConfig, solve
from reference import primal_feasibility, projected_gradient_oracle


def test_prng_deterministic_and_in_range():
    a = splitmix64_uniform(42, 1000)
    b = splitmix64_uniform(42, 1000)
    assert np.array_equal(a, b)
    assert a.shape == (1000,)
    assert np.all(a >= 0.0)
    assert np.all(a < 1.0)
    c = splitmix64_uniform(43, 1000)
    assert not np.array_equal(a, c)
    # prefix stability: shorter draws are prefixes of longer ones
    assert np.array_equal(splitmix64_uniform(42, 10), a[:10])
    assert splitmix64_uniform(42, 0).shape == (0,)
    with pytest.raises(ValueError, match="count must be nonnegative"):
        splitmix64_uniform(42, -1)


def test_generate_instance_construction():
    instance = generate_instance(6, seed=11)
    c = instance.c
    assert np.array_equal(c, c.T)
    assert np.all(np.diag(c) >= 0.0)
    assert np.all(np.diag(c) < 2.0)
    assert np.all(instance.h_upper == 0.1)
    assert np.all(instance.h_lower == -0.1)
    again = generate_instance(6, seed=11)
    assert np.array_equal(instance.c, again.c)
    other = generate_instance(6, seed=12)
    assert not np.array_equal(instance.c, other.c)


def test_generate_instance_rejects_tiny_orders():
    with pytest.raises(ValueError):
        generate_instance(0, seed=0)


def test_instance_invariants_enforced():
    with pytest.raises(ValueError):
        CalibrationInstance(n=2, c=np.array([[1.0, 0.5], [0.0, 1.0]]),
                            h_lower=-0.1 * np.ones((2, 2)),
                            h_upper=0.1 * np.ones((2, 2)))
    with pytest.raises(ValueError):
        CalibrationInstance(n=2, c=np.eye(2),
                            h_lower=0.2 * np.ones((2, 2)),
                            h_upper=0.1 * np.ones((2, 2)))
    # the data matrix is n x n, and the bounds have its shape
    with pytest.raises(ValueError, match=r"data matrix has shape \(2, 2\), expected \(3, 3\)"):
        CalibrationInstance(n=3, c=np.eye(2), h_lower=-0.1 * np.ones((2, 2)),
                            h_upper=0.1 * np.ones((2, 2)))
    with pytest.raises(ValueError, match="bound matrices must match"):
        CalibrationInstance(n=2, c=np.eye(2), h_lower=-0.1 * np.ones((3, 3)),
                            h_upper=0.1 * np.ones((2, 2)))


def test_project_psd_examples():
    assert np.allclose(project_psd(np.eye(3)), np.eye(3))
    assert np.allclose(project_psd(-np.eye(3)), np.zeros((3, 3)))
    flipper = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(project_psd(flipper),
                       np.array([[0.5, 0.5], [0.5, 0.5]]))


def test_project_psd_properties():
    rng = np.random.default_rng(2)
    for _ in range(50):
        base = rng.standard_normal((4, 4))
        a = base + base.T
        other = rng.standard_normal((4, 4))
        b = other + other.T
        pa = project_psd(a)
        pb = project_psd(b)
        assert np.linalg.norm(project_psd(pa) - pa) <= 1e-10
        assert np.linalg.eigvalsh(pa)[0] >= -1e-10
        assert (np.linalg.norm(pa - pb)
                <= np.linalg.norm(a - b) + 1e-10)


def test_project_box_examples():
    lower = -0.1 * np.ones((2, 2))
    upper = 0.1 * np.ones((2, 2))
    inside = np.array([[0.05, -0.02], [-0.02, 0.0]])
    assert np.array_equal(project_box(inside, lower, upper), inside)
    outside = np.array([[0.5, -0.3], [-0.3, 0.05]])
    assert np.allclose(project_box(outside, lower, upper),
                       np.array([[0.1, -0.1], [-0.1, 0.05]]))
    assert np.allclose(project_box(upper + 1.0, lower, upper), upper)
    with pytest.raises(ValueError):
        project_box(inside, upper, lower)


def test_project_box_properties():
    rng = np.random.default_rng(3)
    lower = -0.1 * np.ones((3, 3))
    upper = 0.1 * np.ones((3, 3))
    for _ in range(50):
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3))
        pa = project_box(a, lower, upper)
        pb = project_box(b, lower, upper)
        assert np.array_equal(project_box(pa, lower, upper), pa)
        assert np.all(pa >= lower) and np.all(pa <= upper)
        assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-10


def test_the_copy_layout_lives_in_three_helpers():
    # how a consensus copy is stored is decided by block_dim, to_block and
    # to_matrix alone; generate_instance draws the data matrix's n^2
    # entries in matrix order, which no storage format changes
    import lgadmm.calibration as calibration

    helpers = {"block_dim", "to_block", "to_matrix"}
    tree = ast.parse(Path(calibration.__file__).read_text())
    found = []
    for function in tree.body:
        if getattr(function, "name", None) in helpers | {"generate_instance"}:
            continue
        for node in ast.walk(function):
            if (isinstance(node, ast.Attribute) and node.attr == "reshape") or (
                    isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
                    and ast.unparse(node.left) == ast.unparse(node.right)):
                found.append(f"{node.lineno}: {ast.unparse(node)}")
    assert not found, found

    def reshapes_to_square(node):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "reshape"):
            return False
        shape = node.args[0].elts if len(node.args) == 1 and isinstance(
            node.args[0], ast.Tuple) else node.args
        return len(shape) == 2 and ast.unparse(shape[0]) == ast.unparse(shape[1])

    found = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if reshapes_to_square(node)]
    assert not found, found

    m = generate_instance(3, seed=0).c
    assert to_block(m).shape == (block_dim(3),)
    assert np.array_equal(to_matrix(to_block(m), 3), m)
    assert np.shares_memory(to_matrix(to_block(m), 3), m)


def test_stacked_maps_gram_structure():
    maps = stacked_maps(3)
    d = block_dim(3)
    assert [m.out_dim for m in maps] == [3 * d] * 3
    assert verify_stacked_maps(maps) <= 1e-12
    # dense realization pins the pairwise products at small order
    a1, a2, a3 = (m.dense() for m in maps)
    eye = np.eye(d)
    assert np.array_equal(a1.T @ a1, 2 * eye)
    assert np.array_equal(a2.T @ a2, 2 * eye)
    assert np.array_equal(a3.T @ a3, 2 * eye)
    assert np.array_equal(a1.T @ a2, -eye)
    assert np.array_equal(a1.T @ a3, -eye)
    assert np.array_equal(a2.T @ a3, -eye)


def test_verify_stacked_maps_catches_tampering():
    _, a2, a3 = stacked_maps(2)
    tampered = (BlockSignMap((1, 0, 0), block_dim(2)), a2, a3)
    with pytest.raises(ValueError):
        verify_stacked_maps(tampered)


class WrongAdjoint(BlockSignMap):
    """A sign map whose adjoint drops its last slot; ``gram`` is inherited."""

    def adjoint(self, y, out=None):
        y = np.array(y)
        y[(len(self.signs) - 1) * self.in_dim:] = 0.0
        return super().adjoint(y, out=out)


def test_verify_stacked_maps_probes_the_adjoint():
    a1, a2, a3 = stacked_maps(2)
    broken = WrongAdjoint(a2.signs, a2.in_dim)
    assert broken.gram(a3) == a2.gram(a3)
    tampered = (a1, broken, a3)
    with pytest.raises(ValueError, match="defect"):
        verify_stacked_maps(tampered)


def test_oracle_returns_center_when_already_optimal():
    instance = generate_instance(3, seed=5)
    a1, _, _ = stacked_maps(3)
    rng = np.random.default_rng(6)
    rho, sigma = 1.0, 0.5
    center = to_block(project_psd(rng.standard_normal((3, 3))))
    # choose the target so the unconstrained minimiser is exactly the center
    w = ((1.0 + 2.0 * rho) * center - to_block(instance.c)) / (2.0 * rho)
    target = a1.apply(w)
    oracle = calibration_block_oracle(instance.c, a1, project_psd)
    out = oracle(target, center, rho, ScaledIdentity(block_dim(3), sigma))
    assert np.allclose(out, center, atol=1e-12)


def test_oracle_block3_hand_formula():
    instance = generate_instance(2, seed=9)
    a1, a2, a3 = stacked_maps(2)
    d = block_dim(2)
    rng = np.random.default_rng(10)
    x1 = rng.standard_normal(d)
    x2 = rng.standard_normal(d)
    y = rng.standard_normal(3 * d)
    center = rng.standard_normal(d)
    rho, sigma = 1.0, 0.5
    target = y / rho - a1.apply(x1) - a2.apply(x2)

    def box(mat):
        return project_box(mat, instance.h_lower, instance.h_upper)

    oracle = calibration_block_oracle(instance.c, a3, box)
    out = oracle(target, center, rho, ScaledIdentity(d, sigma))

    numerator = (sigma * center + to_block(instance.c)
                 + a3.adjoint(y)
                 - rho * a3.adjoint(a1.apply(x1) + a2.apply(x2)))
    expected = to_block(np.clip(to_matrix(numerator / (sigma + 1.0 + 2.0 * rho), 2),
                                -0.1, 0.1))
    assert np.allclose(out, expected, atol=1e-12)


def test_oracle_rejects_general_metrics():
    instance = generate_instance(2, seed=1)
    a1, _, _ = stacked_maps(2)
    d = block_dim(2)
    oracle = calibration_block_oracle(instance.c, a1, project_psd)
    target = np.zeros(3 * d)
    center = np.zeros(d)
    with pytest.raises(ValueError):
        oracle(target, center, 1.0, DenseSymmetric(np.eye(d)))
    with pytest.raises(ValueError):
        oracle(target, center, 1.0, ScaledIdentity(d, -0.5))


def test_oracle_agrees_with_projected_gradient():
    instance = generate_instance(3, seed=13)
    d = block_dim(3)
    rng = np.random.default_rng(14)
    rho, sigma = 1.0, 0.5

    def box(mat):
        return project_box(mat, instance.h_lower, instance.h_upper)

    for amap, projection in zip(stacked_maps(3), (project_psd, project_psd, box)):
        oracle = calibration_block_oracle(instance.c, amap, projection)
        for _ in range(5):
            target = rng.standard_normal(3 * d)
            center = rng.standard_normal(d)
            closed = oracle(target, center, rho, ScaledIdentity(d, sigma))
            iterative = projected_gradient_oracle(
                instance.c, amap, projection, target, center, rho, sigma)
            assert np.linalg.norm(closed - iterative) <= 1e-8


def test_build_problem_shapes_and_examples():
    instance = generate_instance(4, seed=3)
    problem = build_problem(instance)
    assert problem.num_blocks == 3
    assert problem.block_dims == (block_dim(4),) * 3
    assert problem.constraint_dim == 3 * block_dim(4)
    assert not problem.rhs.any()
    copies = PrimalDualPoint((to_block(instance.c),) * 3,
                             np.zeros(problem.constraint_dim))
    assert evaluate_objective(problem, copies) == pytest.approx(0.0)
    assert primal_feasibility(problem, copies) == pytest.approx(0.0, abs=1e-13)


def test_default_metrics_are_spherical():
    instance = generate_instance(3, seed=0)
    metrics = default_metrics(instance)
    assert len(metrics) == 3
    for metric in metrics:
        assert isinstance(metric, ScaledIdentity)
        assert metric.scale == 0.5
        assert metric.dim == block_dim(3)
    stricter = default_metrics(instance, scale=4.0)
    assert all(m.scale == 4.0 for m in stricter)


def test_converged_copies_agree_and_are_feasible():
    instance = generate_instance(12, seed=0)
    problem = build_problem(instance)
    config = SolverConfig(rho=1.0, gamma=1.5,
                          proximal_metrics=default_metrics(instance),
                          tolerance=1e-6)
    result = solve(problem, config, zeros_point(problem))
    assert result.converged
    n = instance.n
    mats = [to_matrix(part, n) for part in result.final.primal]
    for i in range(3):
        for j in range(i + 1, 3):
            assert np.linalg.norm(mats[i] - mats[j]) <= 1e-4 * n
    assert np.linalg.eigvalsh(mats[0])[0] >= -1e-6
    assert np.all(mats[2] >= instance.h_lower - 1e-12)
    assert np.all(mats[2] <= instance.h_upper + 1e-12)


def test_objective_invariant_across_relaxation():
    instance = generate_instance(10, seed=4)
    problem = build_problem(instance)
    values = []
    for gamma in (0.6, 1.0, 1.4, 1.9):
        config = SolverConfig(rho=1.0, gamma=gamma,
                              proximal_metrics=default_metrics(instance),
                              tolerance=1e-6)
        result = solve(problem, config, zeros_point(problem))
        assert result.converged
        values.append(evaluate_objective(problem, result.final))
    spread = max(values) - min(values)
    assert spread <= 1e-3 * max(abs(v) for v in values)


def test_instance_dump_roundtrip(tmp_path):
    instance = generate_instance(5, seed=21)
    dump_instance(instance, str(tmp_path))
    assert (tmp_path / "c_matrix.txt").exists()
    assert (tmp_path / "instance.json").exists()
    loaded = load_instance(str(tmp_path))
    assert loaded.n == 5
    assert loaded.seed == 21
    assert np.array_equal(loaded.c, instance.c)
    assert np.array_equal(loaded.h_upper, instance.h_upper)


def test_dump_requires_uniform_bounds(tmp_path):
    instance = generate_instance(3, seed=2)
    lopsided = CalibrationInstance(
        n=3, c=instance.c, h_lower=-0.2 * np.ones((3, 3)),
        h_upper=0.1 * np.ones((3, 3)))
    with pytest.raises(ValueError):
        dump_instance(lopsided, str(tmp_path))


def test_closed_form_oracle_is_the_linearized_prox_step():
    # A_i'A_i = 2I, so the metric sigma I is tau I - rho A_i'A_i with
    # tau = sigma + 2 rho: the paper's linearized step, here tau = 6
    instance = generate_instance(20, seed=0)
    problem = build_problem(instance)
    rho, sigma = 1.0, 4.0
    tau = sigma + 2.0 * rho
    c = to_block(instance.c)
    rng = np.random.default_rng(5)
    for block in problem.blocks:
        amap = block.linear_map
        target = rng.standard_normal(problem.constraint_dim)
        center = rng.standard_normal(block.dim)
        got = block.subproblem_oracle(target, center, rho,
                                      ScaledIdentity(block.dim, sigma))
        linearized = block.projection(
            (c + tau * center - rho * amap.adjoint(amap.apply(center) - target))
            / (1.0 + tau))
        assert np.abs(got - linearized).max() <= 1e-12
