"""Two-block reference recursions and reduction equivalences."""

import numpy as np
import pytest

from lgadmm.operators import ScaledIdentity
from lgadmm.problem import PrimalDualPoint, make_linearized_metric, zeros_point
from lgadmm.solver import ConfigError, IterationState, SolverConfig, step
from baselines import TwoBlockScheme, baseline_step, reduction_equivalence_suite
from synthetic import random_metrics, random_problem
from util import chain_problem, scalar_zero_problem


def random_two_block(seed):
    return random_problem(seed, num_blocks=2, constraint_dim=4)


def random_point(problem, seed):
    rng = np.random.default_rng(seed)
    return PrimalDualPoint(
        tuple(rng.standard_normal(d) for d in problem.block_dims),
        rng.standard_normal(problem.constraint_dim))


def test_scheme_validation():
    with pytest.raises(ConfigError):
        TwoBlockScheme(variant="unknown", rho=1.0)
    with pytest.raises(ConfigError):
        TwoBlockScheme(variant="admm", rho=0.0)
    with pytest.raises(ConfigError):
        TwoBlockScheme(variant="gadmm", rho=1.0, gamma=2.0)
    with pytest.raises(ConfigError):
        TwoBlockScheme(variant="lgadmm_p1", rho=1.0, gamma=1.0)
    with pytest.raises(ConfigError):
        TwoBlockScheme(variant="lgadmm_p1p2", rho=1.0, gamma=1.0,
                       p1=ScaledIdentity(2, 1.0))


def test_baseline_step_requires_two_blocks():
    problem = scalar_zero_problem(num_blocks=3)
    scheme = TwoBlockScheme(variant="admm", rho=1.0)
    with pytest.raises(ValueError):
        baseline_step(problem, scheme, zeros_point(problem))


def test_unit_relaxation_reproduces_classical_step():
    problem = random_two_block(0)
    point = random_point(problem, 1)
    admm = TwoBlockScheme(variant="admm", rho=0.8)
    relaxed = TwoBlockScheme(variant="gadmm", rho=0.8, gamma=1.0)
    out_a = baseline_step(problem, admm, point)
    out_b = baseline_step(problem, relaxed, point)
    for left, right in zip(out_a.primal, out_b.primal):
        assert np.array_equal(left, right)
    assert np.array_equal(out_a.dual, out_b.dual)


def test_zero_metric_reduces_to_relaxed_step():
    problem = random_two_block(2)
    point = random_point(problem, 3)
    gadmm = TwoBlockScheme(variant="gadmm", rho=1.1, gamma=1.6)
    prox = TwoBlockScheme(variant="lgadmm_p1", rho=1.1, gamma=1.6,
                          p1=ScaledIdentity(problem.block_dims[0], 0.0))
    out_a = baseline_step(problem, gadmm, point)
    out_b = baseline_step(problem, prox, point)
    for left, right in zip(out_a.primal, out_b.primal):
        assert np.array_equal(left, right)
    assert np.array_equal(out_a.dual, out_b.dual)


def test_full_scheme_matches_multiblock_step():
    problem = random_two_block(4)
    rng = np.random.default_rng(5)
    p1, p2 = random_metrics(rng, problem)
    point = random_point(problem, 6)
    scheme = TwoBlockScheme(variant="lgadmm_p1p2", rho=0.9, gamma=1.3,
                            p1=p1, p2=p2)
    config = SolverConfig(rho=0.9, gamma=1.3, proximal_metrics=(p1, p2))
    baseline = baseline_step(problem, scheme, point)
    state, _ = step(problem, config, IterationState.initial(point))
    for left, right in zip(baseline.primal, state.current.primal):
        assert np.allclose(left, right, atol=1e-12)
    assert np.allclose(baseline.dual, state.current.dual, atol=1e-12)


def test_linearized_metric_is_plain_prox_at_shifted_target():
    hessian1 = np.array([[2.0, 0.3], [0.3, 1.5]])
    linear1 = np.array([0.4, -0.2])
    a1 = np.array([[1.0, 0.5], [0.0, 1.0]])
    problem = chain_problem(
        [a1, np.eye(2)], [0.3, -0.6],
        hessians=[hessian1, np.eye(2)],
        linears=[linear1, np.zeros(2)])
    rho = 1.2
    gram = float(np.linalg.eigvalsh(a1.T @ a1)[-1])
    tau = 1.5 * rho * gram
    p1 = make_linearized_metric(problem.blocks[0], rho, tau)
    scheme = TwoBlockScheme(variant="lgadmm_p1", rho=rho, gamma=1.0, p1=p1)
    x1 = np.array([0.2, -0.1])
    x2 = np.array([0.5, 0.7])
    y = np.array([0.9, -0.3])
    point = PrimalDualPoint((x1, x2), y)
    out = baseline_step(problem, scheme, point)

    b = problem.rhs
    t = ((tau * np.eye(2) - rho * a1.T @ a1) @ x1
         - rho * a1.T @ (np.eye(2) @ x2) + a1.T @ y + rho * a1.T @ b) / tau
    expected = np.linalg.solve(hessian1 + tau * np.eye(2), tau * t - linear1)
    assert np.allclose(out.primal[0], expected, atol=1e-12)


def test_reduction_equivalence_suite_on_random_instances():
    rng = np.random.default_rng(7)
    for seed in range(2):
        problem = random_two_block(100 + seed)
        p1, p2 = random_metrics(rng, problem)
        report = reduction_equivalence_suite(
            problem, rho=float(rng.uniform(0.5, 2.0)),
            gamma=float(rng.uniform(0.3, 1.7)), p1=p1, p2=p2)
        assert report.passed, report.pairs
        assert report.max_deviation <= 1e-10
        assert len(report.pairs) == 4
