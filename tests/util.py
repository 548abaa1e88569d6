"""Analytic test problems whose oracles can be checked by hand."""

import numpy as np

from lgadmm.operators import DenseMap
from lgadmm.problem import BlockProblem, BlockSpec


def quadratic_spec(matrix, hessian=None, linear=None):
    """Block with objective ``0.5 x'Hx + q'x`` and an exact linear-solve oracle.

    ``matrix`` is the block's coupling map; ``hessian`` defaults to zero
    (a block with no objective of its own) and ``linear`` to zero.
    """
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    dim = matrix.shape[1]
    hessian = (np.zeros((dim, dim)) if hessian is None
               else np.atleast_2d(np.asarray(hessian, dtype=float)))
    linear = (np.zeros(dim) if linear is None
              else np.atleast_1d(np.asarray(linear, dtype=float)))

    def objective(x):
        return 0.5 * float(x @ hessian @ x) + float(linear @ x)

    def oracle(target, center, rho, metric):
        lhs = hessian + rho * (matrix.T @ matrix) + metric.dense()
        rhs = rho * (matrix.T @ target) + metric.apply(center) - linear
        return np.linalg.solve(lhs, rhs)

    return BlockSpec(dim=dim, linear_map=DenseMap(matrix),
                     subproblem_oracle=oracle, objective_oracle=objective)


def chain_problem(matrices, rhs, hessians=None, linears=None):
    """Coupled quadratic program from per-block coupling matrices."""
    count = len(matrices)
    hessians = hessians or [None] * count
    linears = linears or [None] * count
    blocks = tuple(
        quadratic_spec(matrix, hessian, linear)
        for matrix, hessian, linear in zip(matrices, hessians, linears)
    )
    rhs = np.atleast_1d(np.asarray(rhs, dtype=float))
    return BlockProblem(blocks=blocks, rhs=rhs, constraint_dim=rhs.size)


def scalar_zero_problem(num_blocks=3, b=0.0):
    """Scalar blocks with no objective and identity coupling maps."""
    return chain_problem([[1.0]] * num_blocks, [b])


def gapped_matrix(seed=1, dim=200, gap=1e-4):
    """Square matrix whose Gram has top eigenvalue 1.0, the next ``gap`` below
    it and the rest uniform below that. Returns the matrix and the Gram
    eigenvalues."""
    rng = np.random.default_rng(seed)
    left, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    right, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    eigs = np.concatenate([[1.0, 1.0 - gap], rng.uniform(0.0, 1.0 - gap, dim - 2)])
    return (left * np.sqrt(eigs)) @ right.T, eigs
