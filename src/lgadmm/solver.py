"""Linearized generalized ADMM for multi-block separable convex programs.

One sweep updates the first ``m - 1`` blocks in parallel from the same
snapshot, then the last block against a relaxed combination of the fresh
first-phase residual and the old last-block residual (relaxation factor
``gamma``), and finally the multiplier. Each block subproblem carries a
proximal term ``(1/2) ||x - x^k||_P`` whose metric ``P`` can linearize the
quadratic penalty away entirely.

Alongside the iterates the solver exposes the auxiliary sequence that the
convergence certificates are phrased in: the auxiliary point shares the
fresh primal blocks and carries the multiplier predicted from the
unrelaxed residual with the old last block.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .operators import (
    ScaledIdentity,
    SymmetricOperator,
    gram_min_eigenvalue,
    gram_spectral_norm,
    min_eigenvalue_bound,
)
from .problem import (
    BlockProblem,
    PrimalDualPoint,
    check_point,
    constraint_residual,
    evaluate_objective,
    pack_point,
    unpack_point,
)

__all__ = [
    "ConfigError",
    "DivergenceError",
    "OracleError",
    "SolverConfig",
    "ValidationReport",
    "IterationState",
    "StepReport",
    "TrajectoryRecord",
    "SolveResult",
    "validate_config",
    "first_phase_update",
    "last_block_update",
    "multiplier_update",
    "auxiliary_point",
    "step",
    "solve",
]

# Below this, a first-step norm is treated as zero and the component's
# stopping measure falls back to the absolute successive change.
ABSOLUTE_FALLBACK = 1e-14

EIG_ZERO_TOL = 1e-10

# Rows per chunk of a ``TrajectoryRecord``: the memory reserved ahead of
# the points written is at most one chunk.
TRAJECTORY_CHUNK_ROWS = 16

# Up to this dimension the spectral estimators below fall back to an
# eigendecomposition of the assembled metric; above it, to a lower bound.
VALIDATION_DENSE_CAP = 1024


class ConfigError(Exception):
    """The solver configuration is unusable for the given problem."""


class DivergenceError(Exception):
    """An iterate left the representable range."""

    def __init__(self, message: str, iteration: int, component: str):
        super().__init__(message)
        self.iteration = iteration
        self.component = component


class OracleError(Exception):
    """A block subproblem oracle failed."""

    def __init__(self, message: str, block: int):
        super().__init__(message)
        self.block = block


@dataclass(frozen=True)
class SolverConfig:
    """Run parameters.

    Parameters
    ----------
    rho : float
        Penalty parameter of the augmented term, positive.
    gamma : float
        Relaxation factor of the last block's target, strictly between 0 and 2.
    proximal_metrics : tuple of SymmetricOperator
        One metric per block. Zero metrics are allowed outside strict mode.
    max_iterations, tolerance
        Stopping controls; the solver stops when the largest relative
        successive change over blocks and multiplier drops below
        ``tolerance``.
    strict_theory_mode : bool
        When set, validation insists on the matrix conditions under which
        every convergence certificate is provable, and fails loudly
        otherwise.
    record_trajectory : bool
        Keep every iterate for certification (see ``TrajectoryRecord``).
    """

    rho: float
    gamma: float
    proximal_metrics: tuple[SymmetricOperator, ...]
    max_iterations: int = 10_000
    tolerance: float = 1e-6
    strict_theory_mode: bool = False
    record_trajectory: bool = False

    def __post_init__(self):
        # the one place these scalars are judged; each comparison refuses NaN
        if not (math.isfinite(self.rho) and self.rho > 0):
            raise ConfigError(f"rho must be positive and finite, got {self.rho}")
        if not 0.0 < self.gamma < 2.0:
            raise ConfigError(f"gamma must lie strictly between 0 and 2, got {self.gamma}")
        if self.max_iterations < 1:
            raise ConfigError("max_iterations must be at least 1")
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise ConfigError(f"tolerance must be positive, got {self.tolerance}")
        object.__setattr__(self, "proximal_metrics", tuple(self.proximal_metrics))


@dataclass(frozen=True)
class ValidationReport:
    """What validation could establish about a (problem, config) pair.

    ``first_phase_min_eig`` refers to the coupled first-phase metric (the
    proximal metrics on the diagonal, ``-rho A_i'A_j`` off it),
    ``last_condition_min_eig`` to ``P_m + (rho/gamma) A_m'A_m`` and
    ``last_metric_min_eig`` to ``P_m``. Each eigenvalue comes with the
    method that produced it: ``"exact"`` when the first-phase metric is
    ``K (x) I`` (see ``structural_coupling``) with a 2x2 ``K`` and the
    value is ``lambda_min(K)`` in closed form;
    ``"operator"`` for two blocks, where it is the first proximal metric
    itself; ``"dense"`` for an eigendecomposition up to
    ``VALIDATION_DENSE_CAP`` rows, whose computed ``lambda_min`` less a
    backward-error margin (``min_eigenvalue_bound``) is a lower bound;
    ``"bound"`` for a proven lower bound. A larger ``K`` gives its computed
    ``lambda_min`` less the same margin. Above the cap the first-phase
    bound is block Gershgorin,
    ``min_i [lambda_min(P_i) - rho sum_{j != i} ||A_i|| ||A_j||]``. The
    last-block bound is ``lambda_min(P_m) + (rho/gamma) lambda_min(A_m'A_m)``,
    reported when it is positive or when the block is above the cap. The map
    norms and Gram eigenvalues are exact for sign and dense maps; for any
    other map they are the trivial bounds ``inf`` and ``0``. Every value is
    therefore exact or a lower bound.

    ``unproven`` is the verdict that strict mode and the certificates read.
    It maps each theory condition these values leave unproven to the
    reason, in the order ``"first_phase"`` and ``"last_condition"`` (the
    metric positive definite), ``"last_metric"`` (``P_m`` positive
    semidefinite, which the step-monotonicity, rate and cross-term
    certificates additionally need).
    """

    gamma: float
    first_phase_min_eig: float
    first_phase_method: str
    last_condition_min_eig: float
    last_condition_method: str
    last_metric_min_eig: float
    strict: bool
    unproven: Mapping[str, str]

    @property
    def first_phase_positive(self) -> bool:
        return "first_phase" not in self.unproven

    @property
    def warnings(self) -> tuple[str, ...]:
        return tuple(self.unproven.values())

    def to_dict(self) -> dict:
        out = {key: value for key, value in vars(self).items() if key != "unproven"}
        return dict(out, first_phase_positive=self.first_phase_positive,
                    warnings=list(self.warnings))


# ---------------------------------------------------------------------------
# Spectral preconditions: the coupled first-phase metric and the last-block
# condition, established once by ``validate_config``.

class FirstPhaseProduct:
    """Products with the coupled first-phase metric (prox metrics on the
    diagonal, ``-rho A_i'A_j`` off it).

    When ``structural_coupling`` gives ``K``, a product is ``K (x) I`` applied
    to the blocks, with no map products. Otherwise the intermediates (one
    constraint-space image per block, their sum, the adjoint input, one
    adjoint image per block) live in buffers allocated once, so a caller
    that applies the metric many times allocates nothing per product. An
    instance is therefore not safe to share between threads.
    """

    def __init__(self, problem: BlockProblem, prox: Sequence[SymmetricOperator],
                 rho: float):
        self.blocks = problem.blocks[:-1]
        self.prox = tuple(prox[:len(self.blocks)])
        self.rho = rho
        # the first-phase blocks lead the packed vector, so their slices are its own
        self._pieces = problem.slices[:-2]
        self.dim = problem.slices[-2].start
        self.coupling = structural_coupling(problem, prox, rho)
        self._images = [np.empty(problem.constraint_dim) for _ in self.blocks]
        self._total = np.empty(problem.constraint_dim)
        self._others = np.empty(problem.constraint_dim)
        self._backs = [np.empty(block.dim) for block in self.blocks]

    def apply(self, r: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Return the product with the concatenated first-phase vector ``r``,
        written into ``out`` when given (which must not overlap ``r``)."""
        if out is None:
            out = np.empty(self.dim)
        pieces = self._pieces
        if self.coupling is not None:
            # out_i = sum_j K_ij r_j from zero: the metric is K (x) I, no map products
            for i, (piece, back) in enumerate(zip(pieces, self._backs)):
                out[piece] = 0.0
                for j, other in enumerate(pieces):
                    np.add(out[piece], np.multiply(self.coupling[i, j], r[other], out=back),
                           out=out[piece])
            return out
        for block, piece, image in zip(self.blocks, pieces, self._images):
            block.linear_map.apply(r[piece], out=image)
        # in place from zero, bitwise as np.sum(images, axis=0) without its stacked copy
        total = self._total
        total[:] = 0.0
        for image in self._images:
            np.add(total, image, out=total)
        for i, (block, piece) in enumerate(zip(self.blocks, pieces)):
            # prox_i x_i - rho * A_i'(total - A_i x_i)
            np.subtract(total, self._images[i], out=self._others)
            back = block.linear_map.adjoint(self._others, out=self._backs[i])
            np.multiply(self.rho, back, out=back)
            self.prox[i].apply(r[piece], out=out[piece])
            np.subtract(out[piece], back, out=out[piece])
        return out


def first_phase_dense(problem: BlockProblem, prox: Sequence[SymmetricOperator],
                      rho: float) -> np.ndarray:
    """Materialise the coupled first-phase metric."""
    pieces = problem.slices[:-2]
    dim = problem.slices[-2].start
    out = np.zeros((dim, dim))
    dense_maps = [block.linear_map.dense() for block in problem.blocks[:-1]]
    for i, piece in enumerate(pieces):
        out[piece, piece] = prox[i].dense()
    for i, j in itertools.combinations(range(len(pieces)), 2):
        cross = -rho * (dense_maps[i].T @ dense_maps[j])
        out[pieces[i], pieces[j]] = cross
        out[pieces[j], pieces[i]] = cross.T
    return out


def structural_coupling(problem: BlockProblem, prox: Sequence[SymmetricOperator],
                        rho: float) -> np.ndarray | None:
    """``K`` with the coupled first-phase metric equal to ``K (x) I``: ``sigma_i``
    on the diagonal and ``-rho g_ij`` off it, when every first-phase metric is
    ``sigma_i I`` and every pair of first-phase maps has a structural Gram
    ``A_i'A_j = g_ij I``. ``None`` otherwise."""
    maps = [block.linear_map for block in problem.blocks[:-1]]
    if not all(isinstance(metric, ScaledIdentity) for metric in prox[:len(maps)]):
        return None
    coupling = np.diag([metric.scale for metric in prox[:len(maps)]])
    for i, j in itertools.combinations(range(len(maps)), 2):
        gram = maps[i].gram(maps[j])
        if gram is None:
            return None
        coupling[i, j] = coupling[j, i] = -rho * gram
    return coupling


def first_phase_min_eig_estimate(problem: BlockProblem,
                                 prox: Sequence[SymmetricOperator],
                                 rho: float) -> tuple[float, str]:
    """Smallest eigenvalue of the coupled first-phase metric, exact or a lower
    bound, with method tag."""
    if problem.num_blocks == 2:
        # No couplings: the metric is the first block's prox metric itself.
        return prox[0].min_eigenvalue(), "operator"
    coupling = structural_coupling(problem, prox, rho)
    if coupling is not None:
        if coupling.shape == (2, 2):
            # closed form; sigma - |rho g| in one rounding when a = d
            (a, b), (_, d) = coupling
            return float((a + d) / 2 - math.hypot((a - d) / 2, b)), "exact"
        return min_eigenvalue_bound(coupling), "bound"
    # the first-phase rows: every block but the last
    if problem.slices[-2].start <= VALIDATION_DENSE_CAP:
        return min_eigenvalue_bound(first_phase_dense(problem, prox, rho)), "dense"
    # block Gershgorin with ||A_i'A_j|| <= ||A_i|| ||A_j||
    norms = [math.sqrt(gram_spectral_norm(block.linear_map))
             for block in problem.blocks[:-1]]
    value = math.inf
    for i, norm in enumerate(norms):
        # a zero map couples nothing, even to a map of unknown norm (no 0 * inf)
        cross = sum(norm * other for j, other in enumerate(norms)
                    if j != i and norm and other)
        value = min(value, prox[i].min_eigenvalue() - rho * cross)
    return value, "bound"


def last_condition_min_eig_estimate(problem: BlockProblem,
                                    p_m: SymmetricOperator,
                                    rho: float, gamma: float) -> tuple[float, str]:
    """Smallest eigenvalue of ``P_m + (rho/gamma) A_m'A_m``, exact or a lower
    bound, with method tag."""
    last = problem.blocks[-1]
    coeff = rho / gamma
    bound = p_m.min_eigenvalue() + coeff * gram_min_eigenvalue(last.linear_map)
    if bound > EIG_ZERO_TOL or last.dim > VALIDATION_DENSE_CAP:
        return bound, "bound"
    am = last.linear_map.dense()
    return min_eigenvalue_bound(p_m.dense() + coeff * (am.T @ am)), "dense"


def validate_config(problem: BlockProblem, config: SolverConfig) -> ValidationReport:
    """Check the configuration against the problem and the theory conditions.

    Always raises ``ConfigError`` for metrics that do not match the block
    dimensions; ``SolverConfig`` has already judged the scalars. The matrix
    conditions are recorded as ``ValidationReport.unproven``, and any
    unproven one raises under ``strict_theory_mode``. Each is unproven
    unless its comparison holds, so a NaN estimate proves nothing.
    """
    if len(config.proximal_metrics) != problem.num_blocks:
        raise ConfigError(
            f"{len(config.proximal_metrics)} proximal metrics for "
            f"{problem.num_blocks} blocks"
        )
    for i, (metric, dim) in enumerate(zip(config.proximal_metrics, problem.block_dims)):
        if metric.dim != dim:
            raise ConfigError(
                f"proximal metric {i} has dimension {metric.dim}, block has {dim}"
            )

    unproven: dict[str, str] = {}
    first_eig, first_method = first_phase_min_eig_estimate(
        problem, config.proximal_metrics, config.rho)
    last_eig, last_method = last_condition_min_eig_estimate(
        problem, config.proximal_metrics[-1], config.rho, config.gamma)
    p_m_eig = config.proximal_metrics[-1].min_eigenvalue()
    if not first_eig > EIG_ZERO_TOL:
        unproven["first_phase"] = (
            "coupled first-phase metric is not positive definite "
            f"(min eigenvalue {first_eig:.6g} by {first_method}); "
            "convergence certificates are not provable for this configuration"
        )
    if not last_eig > EIG_ZERO_TOL:
        unproven["last_condition"] = (
            "last-block condition P_m + (rho/gamma) A_m'A_m is not certified "
            f"positive definite (min eigenvalue {last_eig:.6g} by {last_method})"
        )
    if not p_m_eig >= -EIG_ZERO_TOL:
        unproven["last_metric"] = (
            f"last-block proximal metric is indefinite (min eigenvalue {p_m_eig:.6g}); "
            "the step-monotonicity, rate and cross-term certificates assume it "
            "positive semidefinite"
        )

    report = ValidationReport(
        gamma=config.gamma,
        first_phase_min_eig=first_eig,
        first_phase_method=first_method,
        last_condition_min_eig=last_eig,
        last_condition_method=last_method,
        last_metric_min_eig=p_m_eig,
        strict=config.strict_theory_mode,
        unproven=MappingProxyType(unproven),
    )
    if config.strict_theory_mode and report.unproven:
        raise ConfigError("strict theory mode: " + "; ".join(report.warnings))
    return report


@dataclass(frozen=True)
class StepReport:
    """Per-iteration diagnostics.

    ``successive_change`` holds one entry per block plus one for the
    multiplier: the change relative to the first step's change, or the
    absolute change where the first step's change vanished.
    """

    feasibility_residual: float
    successive_change: tuple[float, ...]
    objective: float


@dataclass(frozen=True)
class IterationState:
    """Iterate ``w^k`` plus what the next step and the certificates need.

    ``auxiliary`` is the auxiliary point of the step that produced
    ``current`` (``None`` before any step); ``solve`` does not record it,
    because ``TrajectoryRecord.auxiliary`` derives it again from the
    iterates before and after that step. ``epsilon`` is the stopping
    measure of that step (infinite before any step).
    """

    k: int
    current: PrimalDualPoint
    auxiliary: PrimalDualPoint | None
    first_step_norms: tuple[float, ...] | None
    epsilon: float = math.inf

    @classmethod
    def initial(cls, start: PrimalDualPoint) -> "IterationState":
        return cls(k=0, current=start.copy(), auxiliary=None,
                   first_step_norms=None)


@dataclass(eq=False)
class TrajectoryRecord:
    """Full iterate history ``w^k``, ``k = 0..T``, recorded on ``problem``
    under ``config``; the diagnostics of step ``k`` are
    ``SolveResult.reports[k]``.

    ``w^k`` is stored once, packed, as ``row(k)``: the rows of chunks of
    ``TRAJECTORY_CHUNK_ROWS`` rows laid out by ``problem.slices``, so at
    most one chunk of rows is reserved but not yet written. ``points[k]``
    is ``w^k`` unpacked, its arrays views of that row: writing through a
    point changes the record, while replacing an element of the list does
    not. A record built from a list of points packs it.

    Auxiliary points are not stored. The one of step ``k`` is a function of
    ``w^k`` and ``w^{k+1}``, which ``auxiliary(k)`` evaluates with
    ``auxiliary_point``, bitwise what the step computed.
    """

    points: list[PrimalDualPoint]
    problem: BlockProblem
    config: SolverConfig

    def __post_init__(self):
        given, self.points = self.points, []
        self._chunks: list[np.ndarray] = []
        # the record's own views; ``points`` is a list of the same objects
        self._views: list[PrimalDualPoint] = []
        for point in given:
            self.append(point)

    @property
    def steps(self) -> int:
        return len(self._views) - 1

    def append(self, point: PrimalDualPoint) -> None:
        """Copy ``point`` into the next row, as ``w^{T+1}``."""
        # a point of the right total size but another block split would pack silently
        check_point(self.problem, point)
        offset = len(self._views) % TRAJECTORY_CHUNK_ROWS
        if not offset:
            self._chunks.append(np.empty((TRAJECTORY_CHUNK_ROWS, self.problem.total_dim)))
        row = pack_point(self.problem, point, out=self._chunks[-1][offset])
        self._views.append(unpack_point(self.problem, row))
        self.points.append(self._views[-1])

    def row(self, k: int) -> np.ndarray:
        """The packed ``w^k``, a view of the record."""
        if not 0 <= k <= self.steps:
            raise IndexError(f"point {k} outside a trajectory of {self.steps} steps")
        return self._chunks[k // TRAJECTORY_CHUNK_ROWS][k % TRAJECTORY_CHUNK_ROWS]

    def auxiliary(self, k: int) -> PrimalDualPoint:
        """The auxiliary point of step ``k``, sharing its primal blocks with
        ``points[k + 1]``."""
        if not 0 <= k < self.steps:
            raise IndexError(f"step {k} outside a trajectory of {self.steps} steps")
        return auxiliary_point(self.problem, self.config, self._views[k],
                               self._views[k + 1].primal)

    @property
    def auxiliaries(self) -> list[PrimalDualPoint]:
        """Every auxiliary point, derived afresh: O(T) memory, so the
        certificates derive one at a time instead."""
        return [self.auxiliary(k) for k in range(self.steps)]


@dataclass(frozen=True)
class SolveResult:
    """Outcome of ``solve``. ``state`` is the final iteration state with
    ``auxiliary`` dropped (so ``state.current is final``); passing it back
    to ``solve`` continues the run. Neither shares memory with
    ``trajectory``, which holds copies."""

    final: PrimalDualPoint
    iterations: int
    converged: bool
    stop_reason: str
    final_epsilon: float
    trajectory: TrajectoryRecord | None
    reports: tuple[StepReport, ...]
    validation: ValidationReport
    state: IterationState


def _apply_oracle(problem: BlockProblem, config: SolverConfig, index: int,
                  target: np.ndarray, center: np.ndarray, k: int) -> np.ndarray:
    block = problem.blocks[index]
    try:
        result = block.subproblem_oracle(
            target, center, config.rho, config.proximal_metrics[index]
        )
    except Exception as exc:
        raise OracleError(f"subproblem oracle of block {index} failed: {exc}",
                          block=index) from exc
    result = np.asarray(result, dtype=float)
    if result.shape != (block.dim,):
        raise OracleError(
            f"oracle of block {index} returned shape {result.shape}, "
            f"expected ({block.dim},)", block=index,
        )
    if not np.all(np.isfinite(result)):
        raise DivergenceError(
            f"block {index} iterate is not finite at iteration {k}",
            iteration=k, component=f"block {index}",
        )
    return result


def first_phase_update(problem: BlockProblem, config: SolverConfig,
                       state: IterationState) -> tuple[np.ndarray, ...]:
    """Solve the first ``m - 1`` subproblems in parallel from one snapshot.

    Every target is built from the same iterate: block ``j`` sees the
    residual contribution of all other blocks, including the last one, at
    their current values. The result therefore does not depend on the order
    in which the blocks are processed.
    """
    point = state.current
    maps = [block.linear_map for block in problem.blocks]
    images = [amap.apply(x) for amap, x in zip(maps, point.primal)]
    total = np.sum(images, axis=0)
    base = problem.rhs + point.dual / config.rho
    fresh = []
    for j in range(problem.num_blocks - 1):
        target = base - (total - images[j])
        fresh.append(_apply_oracle(problem, config, j, target,
                                   point.primal[j], state.k))
    return tuple(fresh)


def _first_phase_image_sum(problem: BlockProblem,
                           first_phase: Sequence[np.ndarray]) -> np.ndarray:
    total = np.zeros(problem.constraint_dim)
    for block, x in zip(problem.blocks[:-1], first_phase):
        total += block.linear_map.apply(x)
    return total


def last_block_update(problem: BlockProblem, config: SolverConfig,
                      state: IterationState,
                      first_phase: Sequence[np.ndarray]) -> np.ndarray:
    """Solve the last subproblem against the relaxed target.

    The fresh first-phase residual enters scaled by ``gamma``; the remainder
    of the target keeps the last block's own old residual, so ``gamma = 1``
    recovers the plain alternating scheme.
    """
    point = state.current
    last = problem.blocks[-1]
    fresh_sum = _first_phase_image_sum(problem, first_phase)
    relaxed_old = problem.rhs - last.linear_map.apply(point.primal[-1])
    target = (problem.rhs + point.dual / config.rho
              - config.gamma * fresh_sum
              - (1.0 - config.gamma) * relaxed_old)
    return _apply_oracle(problem, config, problem.num_blocks - 1, target,
                         point.primal[-1], state.k)


def multiplier_update(problem: BlockProblem, config: SolverConfig,
                      state: IterationState,
                      fresh_primal: Sequence[np.ndarray]) -> np.ndarray:
    """Multiplier step matching the relaxed last-block target."""
    point = state.current
    last = problem.blocks[-1]
    fresh_sum = _first_phase_image_sum(problem, fresh_primal)
    relaxed_old = problem.rhs - last.linear_map.apply(point.primal[-1])
    drift = (config.gamma * fresh_sum
             + (1.0 - config.gamma) * relaxed_old
             + last.linear_map.apply(fresh_primal[-1])
             - problem.rhs)
    return point.dual - config.rho * drift


def auxiliary_point(problem: BlockProblem, config: SolverConfig,
                    current: PrimalDualPoint,
                    fresh_primal: Sequence[np.ndarray],
                    out: tuple[np.ndarray, np.ndarray] | None = None
                    ) -> PrimalDualPoint:
    """Auxiliary companion of the step from ``current``: fresh primal
    blocks, with the multiplier predicted from the unrelaxed residual at the
    old last block.

    ``out``, when given, is a pair of constraint-space buffers: the
    multiplier is written into the first, which the result shares, and the
    second holds each map product, so the call allocates no array. Neither
    may overlap ``current`` or ``fresh_primal``.
    """
    if out is None:
        out = (np.empty(problem.constraint_dim), np.empty(problem.constraint_dim))
    dual, image = out
    # the drift summed from zero in block order, then the old last block
    dual.fill(0.0)
    for block, x in zip(problem.blocks[:-1], fresh_primal[:-1]):
        dual += block.linear_map.apply(x, out=image)
    dual += problem.blocks[-1].linear_map.apply(current.primal[-1], out=image)
    dual -= problem.rhs
    dual *= config.rho
    np.subtract(current.dual, dual, out=dual)
    return PrimalDualPoint(tuple(fresh_primal), dual)


def step(problem: BlockProblem, config: SolverConfig,
         state: IterationState) -> tuple[IterationState, StepReport]:
    """Advance one full sweep and report diagnostics."""
    fresh_first = first_phase_update(problem, config, state)
    fresh_last = last_block_update(problem, config, state, fresh_first)
    fresh_primal = (*fresh_first, fresh_last)

    dual = multiplier_update(problem, config, state, fresh_primal)
    if not np.all(np.isfinite(dual)):
        raise DivergenceError(
            f"multiplier is not finite at iteration {state.k}",
            iteration=state.k, component="multiplier",
        )
    auxiliary = auxiliary_point(problem, config, state.current, fresh_primal)
    fresh_point = PrimalDualPoint(fresh_primal, dual)

    changes = tuple(
        float(np.linalg.norm(new - old))
        for new, old in zip(fresh_primal, state.current.primal)
    ) + (float(np.linalg.norm(dual - state.current.dual)),)
    denominators = state.first_step_norms if state.first_step_norms is not None else changes
    successive = tuple(
        change / denom if denom >= ABSOLUTE_FALLBACK else change
        for change, denom in zip(changes, denominators)
    )

    report = StepReport(
        feasibility_residual=float(np.linalg.norm(constraint_residual(problem, fresh_point))),
        successive_change=successive,
        objective=evaluate_objective(problem, fresh_point),
    )
    fresh_state = IterationState(
        k=state.k + 1,
        current=fresh_point,
        auxiliary=auxiliary,
        first_step_norms=denominators,
        epsilon=max(successive),
    )
    return fresh_state, report


def solve(problem: BlockProblem, config: SolverConfig,
          start: PrimalDualPoint | IterationState) -> SolveResult:
    """Run the scheme from ``start`` until the stopping rule or the budget.

    The stopping measure is the largest, over blocks and multiplier, of the
    successive change divided by the corresponding first step's change
    (absolute where that first change vanished); the run stops when it drops
    below ``config.tolerance``.

    ``start`` is either a point, from which a fresh run begins at ``k = 0``,
    or the ``state`` of an earlier ``SolveResult`` on the same problem, which
    the run continues. A continued run under a config that differs only in
    ``tolerance``, ``max_iterations`` or ``record_trajectory`` ends with
    exactly the iterate, ``iterations`` and ``final_epsilon`` of a fresh run
    under that config, because the stopping measure is tested before each
    step and ``max_iterations`` caps the absolute index ``k``, not the
    number of new steps. ``reports`` (and the trajectory, which starts with
    a copy of the state's ``current``) hold only the steps this call made.
    """
    state = (start if isinstance(start, IterationState)
             else IterationState.initial(start))
    check_point(problem, state.current)
    validation = validate_config(problem, config)
    # the record copies each point into a row; the state keeps the step's arrays
    trajectory = (TrajectoryRecord([state.current], problem, config)
                  if config.record_trajectory else None)
    reports: list[StepReport] = []
    converged = state.epsilon < config.tolerance
    while not converged and state.k < config.max_iterations:
        state, report = step(problem, config, state)
        reports.append(report)
        if trajectory is not None:
            trajectory.append(state.current)
        converged = state.epsilon < config.tolerance
    return SolveResult(
        final=state.current,
        iterations=state.k,
        converged=converged,
        stop_reason="tolerance" if converged else "iteration_limit",
        final_epsilon=state.epsilon,
        trajectory=trajectory,
        reports=tuple(reports),
        validation=validation,
        state=replace(state, auxiliary=None),
    )
