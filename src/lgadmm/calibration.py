"""Correlation-matrix calibration benchmark.

Find the matrix nearest, in the Frobenius sense, to a given symmetric data
matrix ``C`` subject to being positive semidefinite and having entries in a
box. The two constraint sets are split across three consensus copies with
pairwise-equality coupling, which puts the problem in the multi-block
solver's form:

* copies 1 and 2 carry the positive semidefinite cone,
* copy 3 carries the box,
* the coupling rows force copy 1 = copy 2, copy 1 = copy 3, copy 2 = copy 3.

Each copy keeps the full distance-to-data objective, so the block
subproblems have spherical quadratics and their constrained minimisers are
plain projections of a closed-form point; the oracles here exploit that.
"""

from __future__ import annotations

import functools
import json
import os
from dataclasses import dataclass

import numpy as np

from .operators import BlockSignMap, ScaledIdentity, SymmetricOperator
from .problem import BlockProblem, BlockSpec, splitmix64_uniform
from .serialization import atomic_write_text, read_matrix, write_matrix

__all__ = [
    "DEFAULT_BOUND",
    "BENCHMARK_SIGMA",
    "CalibrationInstance",
    "generate_instance",
    "project_psd",
    "project_box",
    "block_dim",
    "to_block",
    "to_matrix",
    "stacked_maps",
    "verify_stacked_maps",
    "calibration_block_oracle",
    "build_problem",
    "default_metrics",
    "dump_instance",
    "load_instance",
]

DEFAULT_BOUND = 0.1

# per-copy proximal scale sigma in P_i = sigma I that the benchmark runs with
BENCHMARK_SIGMA = 0.5

# largest probe defect ``verify_stacked_maps`` accepts in a Gram product
GRAM_PROBE_TOL = 1e-12


@dataclass(frozen=True)
class CalibrationInstance:
    """Data matrix and box bounds for one calibration problem."""

    n: int
    c: np.ndarray
    h_lower: np.ndarray
    h_upper: np.ndarray
    seed: int | None = None

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "h_lower", np.asarray(self.h_lower, dtype=float))
        object.__setattr__(self, "h_upper", np.asarray(self.h_upper, dtype=float))
        if c.shape != (self.n, self.n):
            raise ValueError(f"data matrix has shape {c.shape}, expected ({self.n}, {self.n})")
        scale = 1.0 + float(np.abs(c).max(initial=0.0))
        if np.abs(c - c.T).max(initial=0.0) > 1e-12 * scale:
            raise ValueError("data matrix must be symmetric")
        if self.h_lower.shape != c.shape or self.h_upper.shape != c.shape:
            raise ValueError("bound matrices must match the data matrix shape")
        if np.any(self.h_lower > self.h_upper):
            raise ValueError("lower bounds exceed upper bounds somewhere")


def generate_instance(n: int, seed: int, bound: float = DEFAULT_BOUND) -> CalibrationInstance:
    """Random instance: ``C = R' + R - ones + eye`` with uniform[0,1) ``R``.

    Entries of ``C`` land in (-1, 1) off the diagonal; the diagonal entry
    ``i`` equals twice the uniform draw ``R_ii``. Box bounds are the
    constant ``bound`` on every entry.
    """
    if n < 1:
        raise ValueError("n must be positive")
    r = splitmix64_uniform(seed, n * n).reshape(n, n)
    c = r.T + r - np.ones((n, n)) + np.eye(n)
    h_upper = np.full((n, n), float(bound))
    return CalibrationInstance(n=n, c=c, h_lower=-h_upper, h_upper=h_upper, seed=seed)


def project_psd(a: np.ndarray) -> np.ndarray:
    """Nearest positive semidefinite matrix: clamp negative eigenvalues.

    The input is symmetrised first, so roundoff-asymmetric inputs are fine.
    """
    sym = 0.5 * (np.asarray(a, dtype=float) + np.asarray(a, dtype=float).T)
    evals, evecs = np.linalg.eigh(sym)
    clipped = np.maximum(evals, 0.0)
    return (evecs * clipped) @ evecs.T


def project_box(a: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Elementwise clamp into ``[lower, upper]``."""
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if np.any(lower > upper):
        raise ValueError("lower bounds exceed upper bounds somewhere")
    return np.clip(np.asarray(a, dtype=float), lower, upper)


@functools.lru_cache(maxsize=None)
def _svec_layout(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat positions of the upper triangle and of its mirror, and the svec weights."""
    rows, cols = np.triu_indices(n)
    weights = np.where(rows == cols, 1.0, np.sqrt(2.0))
    return rows * n + cols, cols * n + rows, weights


def block_dim(n: int) -> int:
    """Number of stored entries in one consensus copy of an n x n matrix."""
    return n * (n + 1) // 2


def to_block(matrix: np.ndarray) -> np.ndarray:
    """A symmetric matrix as a stored copy: svec, its upper triangle row by row.

    Off-diagonal entries carry a factor sqrt(2), so the Euclidean inner
    product of two copies is the Frobenius inner product of their matrices.
    """
    upper, _, weights = _svec_layout(matrix.shape[0])
    return np.take(matrix, upper) * weights


def to_matrix(block: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`to_block` (smat): an exactly symmetric n x n matrix."""
    upper, lower, weights = _svec_layout(n)
    values = block / weights
    matrix = np.empty(n * n)
    matrix[upper] = values
    matrix[lower] = values
    return matrix.reshape(n, n)


def _on_blocks(projection, n: int):
    """A projection of n x n matrices, applied to stored copies."""
    return lambda block: to_block(projection(to_matrix(block, n)))


def stacked_maps(n: int) -> tuple[BlockSignMap, BlockSignMap, BlockSignMap]:
    """The three consensus coupling maps, one per copy of an n x n matrix.

    Each map stacks three signed identity slots over the pairwise-equality
    rows (copy1 - copy2, copy1 - copy3, copy2 - copy3):
    copy 1 enters with signs (+, +, 0), copy 2 with (-, 0, +),
    copy 3 with (0, -, -). The Gram products are structural:
    ``A_i'A_i = 2 I`` for every copy and ``A_i'A_j = -I`` for every pair.
    """
    return tuple(BlockSignMap(signs, block_dim(n))
                 for signs in ((1, 1, 0), (-1, 0, 1), (0, -1, -1)))


def verify_stacked_maps(maps: tuple[BlockSignMap, ...]) -> float:
    """Check the structural Gram products; returns the worst probe defect.

    ``A_i.gram(A_j)`` must be 2 for ``i = j`` and -1 otherwise, and must
    match ``A_i'A_j`` up to ``GRAM_PROBE_TOL`` on a probe per pair, else
    ``ValueError``.
    The probes are deterministic splitmix draws centred on zero, so building
    a problem never imports ``numpy.random``.
    """
    worst = 0.0
    for i, ai in enumerate(maps):
        for j, aj in enumerate(maps):
            gram = ai.gram(aj)
            if gram != (2.0 if i == j else -1.0):
                raise ValueError(f"stacked maps {i + 1} and {j + 1} have "
                                 f"structural Gram {gram}")
            v = splitmix64_uniform(3 * i + j, ai.in_dim) - 0.5
            defect = float(np.max(np.abs(ai.adjoint(aj.apply(v)) - gram * v)))
            worst = max(worst, defect)
    if worst > GRAM_PROBE_TOL:
        raise ValueError(f"stacked maps lost their structural Gram products "
                         f"(defect {worst:.3e})")
    return worst


def calibration_block_oracle(c: np.ndarray, amap: BlockSignMap, projection):
    """Exact subproblem oracle for one consensus copy.

    Solves ``min 0.5 ||X - C||^2 + (rho/2) ||A X - target||^2
    + (sigma/2) ||X - center||^2`` over the copy's constraint set. Because
    ``A'A = 2 I`` here (read from ``amap.gram(amap)``), the quadratic is
    spherical and the constrained minimiser is the projection of
    ``(C + sigma * center + rho * A'target) / (1 + 2 rho + sigma)``.

    Only spherical (scaled-identity) proximal metrics keep that exactness;
    anything else raises, with a pointer at what would be needed instead.
    """
    c_block = to_block(c)
    gram = amap.gram(amap)
    project = _on_blocks(projection, c.shape[0])

    def oracle(target: np.ndarray, center: np.ndarray, rho: float,
               metric: SymmetricOperator) -> np.ndarray:
        if not isinstance(metric, ScaledIdentity) or metric.scale < 0.0:
            raise ValueError(
                "the closed-form calibration oracle is exact only for "
                "nonnegative scaled-identity proximal metrics; supply an "
                "iterative subproblem solver for general metrics")
        sigma = metric.scale
        pulled = amap.adjoint(target)
        candidate = (c_block + sigma * center + rho * pulled) / (1.0 + gram * rho + sigma)
        return project(candidate)

    return oracle


def build_problem(instance: CalibrationInstance) -> BlockProblem:
    """Assemble the three-copy consensus problem for an instance."""
    maps = stacked_maps(instance.n)
    verify_stacked_maps(maps)
    c_block = to_block(instance.c)

    def objective(x: np.ndarray) -> float:
        return 0.5 * float(np.sum((x - c_block) ** 2))

    # looked up at call time, so a wrapped ``project_psd`` is the one called
    def psd_projection(mat: np.ndarray) -> np.ndarray:
        return project_psd(mat)

    def box_projection(mat: np.ndarray) -> np.ndarray:
        return project_box(mat, instance.h_lower, instance.h_upper)

    blocks = tuple(
        BlockSpec(dim=amap.in_dim, linear_map=amap,
                  subproblem_oracle=calibration_block_oracle(instance.c, amap, projection),
                  objective_oracle=objective, projection=_on_blocks(projection, instance.n))
        for amap, projection in zip(maps, (psd_projection, psd_projection, box_projection)))
    ell = maps[0].out_dim
    return BlockProblem(blocks=blocks, rhs=np.zeros(ell), constraint_dim=ell)


def default_metrics(instance: CalibrationInstance,
                    scale: float = BENCHMARK_SIGMA) -> tuple[SymmetricOperator, ...]:
    """The benchmark's spherical proximal metrics, ``scale * I`` per copy."""
    return tuple(ScaledIdentity(block_dim(instance.n), scale) for _ in range(3))


def dump_instance(instance: CalibrationInstance, directory: str) -> None:
    """Write the data matrix (plain text) and a JSON sidecar of scalars.

    Only uniform box bounds are dumped; the sidecar keeps the single bound
    value alongside ``n`` and the generator seed.
    """
    bound = float(instance.h_upper.flat[0])
    if not (np.all(instance.h_upper == bound) and np.all(instance.h_lower == -bound)):
        raise ValueError("only uniform symmetric box bounds can be dumped")
    os.makedirs(directory, exist_ok=True)
    write_matrix(os.path.join(directory, "c_matrix.txt"), instance.c)
    sidecar = {"n": instance.n, "seed": instance.seed, "bound": bound}
    atomic_write_text(os.path.join(directory, "instance.json"),
                      json.dumps(sidecar, indent=2, sort_keys=True) + "\n")


def load_instance(directory: str) -> CalibrationInstance:
    """Inverse of :func:`dump_instance`."""
    with open(os.path.join(directory, "instance.json")) as handle:
        sidecar = json.load(handle)
    c = read_matrix(os.path.join(directory, "c_matrix.txt"))
    n = int(sidecar["n"])
    bound = float(sidecar["bound"])
    h_upper = np.full((n, n), bound)
    seed = sidecar.get("seed")
    return CalibrationInstance(n=n, c=c, h_lower=-h_upper, h_upper=h_upper,
                               seed=None if seed is None else int(seed))
