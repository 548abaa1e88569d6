"""Random dense test problems with exactly solvable block subproblems.

Each block carries a convex quadratic ``0.5 x'T x + q'x`` (``T`` positive
definite by construction) over the whole space, so the regularised
subproblem is a linear solve and the oracle is exact to machine precision.
Used by the equivalence and certificate suites, where exact oracles are
what makes the provable inequalities checkable at tight slacks.
"""

from __future__ import annotations

import numpy as np

from lgadmm.operators import DenseMap, DenseSymmetric, ScaledIdentity, SymmetricOperator
from lgadmm.problem import BlockProblem, BlockSpec
from lgadmm.solver import SolverConfig

__all__ = [
    "quadratic_block",
    "random_problem",
    "random_spd_metric",
    "random_metrics",
    "random_config",
]


def quadratic_block(rng: np.random.Generator, dim: int,
                    constraint_dim: int) -> BlockSpec:
    """One unconstrained quadratic block with a dense random coupling map."""
    g = rng.standard_normal((dim, dim))
    hessian = g.T @ g / dim + 0.5 * np.eye(dim)
    linear = rng.standard_normal(dim)
    a = rng.standard_normal((constraint_dim, dim)) / np.sqrt(constraint_dim)
    amap = DenseMap(a)

    def objective(x: np.ndarray) -> float:
        return 0.5 * float(x @ hessian @ x) + float(linear @ x)

    def oracle(target: np.ndarray, center: np.ndarray, rho: float,
               metric: SymmetricOperator) -> np.ndarray:
        lhs = hessian + rho * (a.T @ a) + metric.dense()
        rhs = rho * (a.T @ target) + metric.apply(center) - linear
        return np.linalg.solve(lhs, rhs)

    return BlockSpec(dim=dim, linear_map=amap, subproblem_oracle=oracle,
                     objective_oracle=objective, projection=None)


def random_problem(seed: int, num_blocks: int = 3,
                   dims: tuple[int, ...] | None = None,
                   constraint_dim: int = 6) -> BlockProblem:
    """Random coupled quadratic program with ``num_blocks`` blocks."""
    rng = np.random.default_rng(seed)
    if dims is None:
        dims = tuple(int(rng.integers(2, 6)) for _ in range(num_blocks))
    if len(dims) != num_blocks:
        raise ValueError("dims must have one entry per block")
    blocks = tuple(quadratic_block(rng, dim, constraint_dim) for dim in dims)
    rhs = rng.standard_normal(constraint_dim)
    return BlockProblem(blocks=blocks, rhs=rhs, constraint_dim=constraint_dim)


def random_spd_metric(rng: np.random.Generator, dim: int,
                      dense: bool = True) -> SymmetricOperator:
    """Random symmetric positive definite metric."""
    if not dense:
        return ScaledIdentity(dim, float(rng.uniform(0.5, 3.0)))
    g = rng.standard_normal((dim, dim))
    return DenseSymmetric(g.T @ g / dim + float(rng.uniform(0.5, 2.0)) * np.eye(dim))


def random_metrics(rng: np.random.Generator, problem: BlockProblem,
                   dense: bool = True) -> tuple[SymmetricOperator, ...]:
    return tuple(random_spd_metric(rng, dim, dense=dense)
                 for dim in problem.block_dims)


def random_config(rng: np.random.Generator, problem: BlockProblem,
                  dense_metrics: bool = True, **overrides) -> SolverConfig:
    """Random admissible configuration: ``rho`` log-uniform in [0.1, 10],
    ``gamma`` uniform in (0, 2), positive definite metrics."""
    params = dict(
        rho=float(np.exp(rng.uniform(np.log(0.1), np.log(10.0)))),
        gamma=float(rng.uniform(0.05, 1.95)),
        proximal_metrics=random_metrics(rng, problem, dense=dense_metrics),
    )
    params.update(overrides)
    return SolverConfig(**params)
