"""Problem model for linearly-constrained separable convex programs.

A problem is a list of blocks, each owning a convex objective piece, a
constraint map, and a subproblem oracle, together with the right-hand side
of the coupling constraint ``sum_i A_i x_i = b``. The equivalent variational
inequality (primal-dual pair ``w = (x_1..x_m, y)``, affine skew operator
``F``) is what the convergence certificates are phrased in, so its pieces
live here too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .operators import (
    LinearMap,
    LinearizedMetric,
    SymmetricOperator,
    gram_spectral_norm,
)

__all__ = [
    "BlockProblemError",
    "DimensionMismatchError",
    "SpectralThresholdError",
    "BlockSpec",
    "BlockProblem",
    "PrimalDualPoint",
    "check_point",
    "pack_point",
    "unpack_point",
    "evaluate_objective",
    "constraint_residual",
    "primal_feasibility",
    "vi_operator",
    "make_linearized_metric",
    "zeros_point",
    "feasible_probe",
    "splitmix64_uniform",
]

# Oracle signature: (target, center, rho, metric) -> minimiser of
#   theta_i(x) + (rho/2) ||A_i x - target||^2 + (1/2) ||x - center||_metric^2
SubproblemOracle = Callable[[np.ndarray, np.ndarray, float, SymmetricOperator], np.ndarray]


class BlockProblemError(Exception):
    """Base class for problem-model errors."""


class DimensionMismatchError(BlockProblemError):
    """A vector or map does not match the declared block dimensions."""

    def __init__(self, message: str, block: int | None = None):
        super().__init__(message)
        self.block = block


class SpectralThresholdError(BlockProblemError):
    """A linearization step size is at or below the admissible threshold."""

    def __init__(self, message: str, threshold: float):
        super().__init__(message)
        self.threshold = threshold


@dataclass(frozen=True)
class BlockSpec:
    """One block: objective piece, constraint map, and subproblem oracle.

    Parameters
    ----------
    dim : int
        Dimension of the block variable (flattened).
    linear_map : LinearMap
        The block's column ``A_i`` of the coupling constraint.
    subproblem_oracle : callable
        Exact minimiser of the regularised block subproblem; see
        ``SubproblemOracle`` for the signature.
    objective_oracle : callable
        Evaluates the block's convex objective piece.
    projection : callable, optional
        Projection onto the block's constraint set, used to generate and to
        validate feasible probe points. ``None`` means the whole space.
    """

    dim: int
    linear_map: LinearMap
    subproblem_oracle: SubproblemOracle
    objective_oracle: Callable[[np.ndarray], float]
    projection: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if self.dim <= 0:
            raise DimensionMismatchError("block dimension must be positive")
        if self.linear_map.in_dim != self.dim:
            raise DimensionMismatchError(
                f"linear map takes vectors of size {self.linear_map.in_dim}, "
                f"block has dimension {self.dim}"
            )


@dataclass(frozen=True)
class BlockProblem:
    """A separable convex program with a single linear coupling constraint.

    ``slices`` fixes the layout of the packed primal-dual vector
    ``w = (x_1, ..., x_m, y)`` that the variational inequality and the
    certificate metrics act on: one slice per block, in block order, then
    the multiplier's. It is the one place the offsets are computed.
    """

    blocks: tuple[BlockSpec, ...]
    rhs: np.ndarray
    constraint_dim: int
    slices: tuple[slice, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.blocks) < 2:
            raise DimensionMismatchError("at least two blocks are required")
        rhs = np.asarray(self.rhs, dtype=float)
        object.__setattr__(self, "rhs", rhs)
        if rhs.ndim != 1 or rhs.size != self.constraint_dim:
            raise DimensionMismatchError(
                f"rhs has size {rhs.size}, constraint dimension is {self.constraint_dim}"
            )
        for i, block in enumerate(self.blocks):
            if block.linear_map.out_dim != self.constraint_dim:
                raise DimensionMismatchError(
                    f"block {i} maps into dimension {block.linear_map.out_dim}, "
                    f"constraint dimension is {self.constraint_dim}",
                    block=i,
                )
        slices, offset = [], 0
        for dim in (*self.block_dims, self.constraint_dim):
            slices.append(slice(offset, offset + dim))
            offset += dim
        object.__setattr__(self, "slices", tuple(slices))

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    @property
    def block_dims(self) -> tuple[int, ...]:
        return tuple(block.dim for block in self.blocks)

    @property
    def total_dim(self) -> int:
        return self.slices[-1].stop


@dataclass(frozen=True)
class PrimalDualPoint:
    """Primal block variables together with the constraint multiplier."""

    primal: tuple[np.ndarray, ...]
    dual: np.ndarray

    def copy(self) -> "PrimalDualPoint":
        return PrimalDualPoint(tuple(x.copy() for x in self.primal), self.dual.copy())


def check_point(problem: BlockProblem, point: PrimalDualPoint) -> None:
    """Raise ``DimensionMismatchError`` if ``point`` does not fit ``problem``."""
    if len(point.primal) != problem.num_blocks:
        raise DimensionMismatchError(
            f"point has {len(point.primal)} primal blocks, problem has {problem.num_blocks}"
        )
    for i, (x, block) in enumerate(zip(point.primal, problem.blocks)):
        if x.shape != (block.dim,):
            raise DimensionMismatchError(
                f"block {i} variable has shape {x.shape}, expected ({block.dim},)",
                block=i,
            )
    if point.dual.shape != (problem.constraint_dim,):
        raise DimensionMismatchError(
            f"multiplier has shape {point.dual.shape}, expected ({problem.constraint_dim},)"
        )


def pack_point(problem: BlockProblem, point: PrimalDualPoint,
               out: np.ndarray | None = None) -> np.ndarray:
    """The packed vector ``(x_1, ..., x_m, y)``, laid out by
    ``problem.slices``, written into ``out`` when given."""
    return np.concatenate([*point.primal, point.dual], out=out)


def unpack_point(problem: BlockProblem, vec: np.ndarray) -> PrimalDualPoint:
    """Inverse of :func:`pack_point`: the blocks and the multiplier as views
    of ``vec`` through ``problem.slices``, copying nothing, so writing to
    ``vec`` changes the point."""
    if vec.shape != (problem.total_dim,):
        raise DimensionMismatchError(
            f"vector has shape {vec.shape}, expected ({problem.total_dim},)"
        )
    *primal, dual = (vec[piece] for piece in problem.slices)
    return PrimalDualPoint(tuple(primal), dual)


def evaluate_objective(problem: BlockProblem, point: PrimalDualPoint) -> float:
    """Separable objective value ``sum_i theta_i(x_i)``."""
    check_point(problem, point)
    return float(sum(block.objective_oracle(x)
                     for block, x in zip(problem.blocks, point.primal)))


def constraint_residual(problem: BlockProblem, point: PrimalDualPoint) -> np.ndarray:
    """The coupling-constraint residual ``sum_i A_i x_i - b``."""
    residual = -problem.rhs
    for block, x in zip(problem.blocks, point.primal):
        residual = residual + block.linear_map.apply(x)
    return residual


def primal_feasibility(problem: BlockProblem, point: PrimalDualPoint) -> float:
    """Euclidean norm of the coupling-constraint residual."""
    check_point(problem, point)
    return float(np.linalg.norm(constraint_residual(problem, point)))


def vi_operator(problem: BlockProblem, point: PrimalDualPoint) -> np.ndarray:
    """The variational-inequality operator at ``point``, packed like
    ``pack_point``: ``-A_i' y`` in the slice of block ``i``, then the
    residual ``sum_i A_i x_i - b`` in the multiplier's."""
    check_point(problem, point)
    return np.concatenate([*(-block.linear_map.adjoint(point.dual) for block in problem.blocks),
                           constraint_residual(problem, point)])


def make_linearized_metric(block: BlockSpec, rho: float, tau: float) -> SymmetricOperator:
    """Proximal metric ``tau I - rho A_i'A_i`` that linearizes the penalty term.

    With this metric the quadratic coupling term cancels from the block
    subproblem, leaving a plain proximal step of ``theta_i``. Requires
    ``tau > rho * ||A_i'A_i||``, checked against ``gram_spectral_norm``:
    exact for sign and dense maps, and for any other map the bound ``inf``,
    which no ``tau`` exceeds.

    Raises
    ------
    SpectralThresholdError
        If ``tau`` does not exceed the threshold, which is attached to the
        exception as ``threshold``.
    """
    gram_norm = gram_spectral_norm(block.linear_map)
    threshold = rho * gram_norm
    if not tau > threshold:
        raise SpectralThresholdError(
            f"tau = {tau} must exceed the bound {threshold} on rho * ||A'A||",
            threshold=threshold,
        )
    return LinearizedMetric(block.linear_map, rho, tau, gram_norm)


def zeros_point(problem: BlockProblem) -> PrimalDualPoint:
    """The origin of the primal-dual space, a convenient default start."""
    return PrimalDualPoint(
        tuple(np.zeros(dim) for dim in problem.block_dims),
        np.zeros(problem.constraint_dim),
    )


def splitmix64_uniform(seed: int, count: int) -> np.ndarray:
    """Deterministic uniform[0, 1) draws from a 64-bit splitmix generator.

    The state advances by the 64-bit golden-ratio increment and each output
    is finalized by two xor-shift-multiply rounds; the top 53 bits become
    the float mantissa. Platform-independent for a given seed.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    mask = (1 << 64) - 1
    golden = np.uint64(0x9E3779B97F4A7C15)
    steps = np.arange(1, count + 1, dtype=np.uint64)
    z = np.uint64(seed & mask) + steps * golden
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z = z ^ (z >> np.uint64(31))
    return (z >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)


def _box_muller(uniforms: np.ndarray) -> np.ndarray:
    """Standard normals from an even number of uniform[0, 1) draws, one each.

    Each pair ``(u, v)`` gives the independent pair ``r cos(2 pi v)``,
    ``r sin(2 pi v)`` with ``r = sqrt(-2 log(1 - u))``. Since ``1 - u`` lies
    in (0, 1], the logarithm never sees 0, and ``u = 0`` gives ``r = 0``.
    """
    u, v = uniforms.reshape(-1, 2).T
    radius = np.sqrt(-2.0 * np.log1p(-u))
    angle = 2.0 * np.pi * v
    return np.column_stack([radius * np.cos(angle), radius * np.sin(angle)]).ravel()


def feasible_probe(problem: BlockProblem, seed: int,
                   scale: float = 1.0) -> PrimalDualPoint:
    """Primal-dual point with N(0, scale^2) entries, each block then projected
    onto its set.

    The normals are Box-Muller pairs of ``splitmix64_uniform(seed, ...)``
    draws, filling the blocks in order and then the multiplier, so one seed
    names one probe and drawing it never imports ``numpy.random``. The
    blocks and the multiplier are copied out of the normals, so a probe
    holds no more than its own entries.
    """
    total = problem.total_dim
    normals = scale * _box_muller(splitmix64_uniform(seed, total + total % 2))
    point = unpack_point(problem, normals[:total])
    primal = tuple(x.copy() if block.projection is None else block.projection(x)
                   for block, x in zip(problem.blocks, point.primal))
    return PrimalDualPoint(primal, point.dual.copy())
