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

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .operators import ScaledIdentity, SymmetricOperator
from .problem import (
    BlockProblem,
    PrimalDualPoint,
    check_point,
    constraint_residual,
    evaluate_objective,
    pack_point,
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
    "identity_metrics",
    "zero_metrics",
    "write_trajectory_csv",
]

# Below this, a first-step norm is treated as zero and the component's
# stopping measure falls back to the absolute successive change.
ABSOLUTE_FALLBACK = 1e-14

EIG_ZERO_TOL = 1e-10


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
        Relaxation factor applied to the last block's target, in (0, 2).
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
        Keep every iterate and auxiliary point for certification.
    """

    rho: float
    gamma: float
    proximal_metrics: tuple[SymmetricOperator, ...]
    max_iterations: int = 10_000
    tolerance: float = 1e-6
    strict_theory_mode: bool = False
    record_trajectory: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.rho) and self.rho > 0):
            raise ConfigError(f"rho must be positive and finite, got {self.rho}")
        if not math.isfinite(self.gamma):
            raise ConfigError(f"gamma must be finite, got {self.gamma}")
        if self.max_iterations < 1:
            raise ConfigError("max_iterations must be at least 1")
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise ConfigError(f"tolerance must be positive, got {self.tolerance}")
        object.__setattr__(self, "proximal_metrics", tuple(self.proximal_metrics))


def identity_metrics(problem: BlockProblem, scale: float = 1.0) -> tuple[SymmetricOperator, ...]:
    """Spherical metrics ``scale * I``, one per block."""
    return tuple(ScaledIdentity(dim, scale) for dim in problem.block_dims)


def zero_metrics(problem: BlockProblem) -> tuple[SymmetricOperator, ...]:
    return identity_metrics(problem, 0.0)


@dataclass(frozen=True)
class ValidationReport:
    """What validation could establish about a (problem, config) pair.

    ``first_phase_min_eig`` refers to the coupled first-phase metric (the
    proximal metrics on the diagonal, ``-rho A_i'A_j`` off it); the solver
    theory wants it positive definite. ``last_condition_min_eig`` refers to
    ``P_m + (rho/gamma) A_m'A_m``, and ``last_metric_min_eig`` to ``P_m``
    alone, which some of the rate certificates additionally rely on. Each
    eigenvalue comes with the method that produced it: exact dense
    eigendecomposition, a power-iteration estimate, or a conservative
    lower bound.
    """

    gamma: float
    gamma_in_range: bool
    first_phase_metric_spd: tuple[bool, ...]
    first_phase_min_eig: float
    first_phase_method: str
    first_phase_positive: bool
    last_condition_min_eig: float
    last_condition_method: str
    last_metric_min_eig: float
    strict: bool
    warnings: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "gamma": self.gamma,
            "gamma_in_range": self.gamma_in_range,
            "first_phase_metric_spd": list(self.first_phase_metric_spd),
            "first_phase_min_eig": self.first_phase_min_eig,
            "first_phase_method": self.first_phase_method,
            "first_phase_positive": self.first_phase_positive,
            "last_condition_min_eig": self.last_condition_min_eig,
            "last_condition_method": self.last_condition_method,
            "last_metric_min_eig": self.last_metric_min_eig,
            "strict": self.strict,
            "warnings": list(self.warnings),
        }


def validate_config(problem: BlockProblem, config: SolverConfig) -> ValidationReport:
    """Check the configuration against the problem and the theory conditions.

    Always raises ``ConfigError`` for structural problems: a relaxation
    factor outside (0, 2), or metrics that do not match the block
    dimensions. The matrix conditions (coupled first-phase metric positive
    definite, ``P_m + (rho/gamma) A_m'A_m`` positive definite) are reported,
    and additionally raise under ``strict_theory_mode``.
    """
    from . import certificates as _certs

    gamma_ok = 0.0 < config.gamma < 2.0
    if not gamma_ok:
        raise ConfigError(
            f"gamma must lie strictly between 0 and 2, got {config.gamma}"
        )
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

    warnings: list[str] = []

    first_phase_spd = tuple(
        metric.min_eigenvalue() > EIG_ZERO_TOL
        for metric in config.proximal_metrics[:-1]
    )

    first_eig, first_method = _certs.first_phase_min_eig_estimate(
        problem, config.proximal_metrics, config.rho)
    first_positive = first_eig > EIG_ZERO_TOL
    if not first_positive:
        warnings.append(
            "coupled first-phase metric is not positive definite "
            f"(min eigenvalue {first_eig:.6g} by {first_method}); "
            "convergence certificates are not provable for this configuration"
        )

    last_eig, last_method = _certs.last_condition_min_eig_estimate(
        problem, config.proximal_metrics[-1], config.rho, config.gamma)
    if last_eig <= EIG_ZERO_TOL:
        warnings.append(
            "last-block condition P_m + (rho/gamma) A_m'A_m is not certified "
            f"positive definite (min eigenvalue {last_eig:.6g} by {last_method})"
        )

    p_m_eig = config.proximal_metrics[-1].min_eigenvalue()
    if p_m_eig < -EIG_ZERO_TOL:
        warnings.append(
            f"last-block proximal metric is indefinite (min eigenvalue {p_m_eig:.6g}); "
            "the step-monotonicity and rate certificates additionally assume it "
            "positive semidefinite"
        )

    if config.strict_theory_mode and warnings:
        raise ConfigError(
            "strict theory mode: " + "; ".join(warnings)
        )

    return ValidationReport(
        gamma=config.gamma,
        gamma_in_range=gamma_ok,
        first_phase_metric_spd=first_phase_spd,
        first_phase_min_eig=first_eig,
        first_phase_method=first_method,
        first_phase_positive=first_positive,
        last_condition_min_eig=last_eig,
        last_condition_method=last_method,
        last_metric_min_eig=p_m_eig,
        strict=config.strict_theory_mode,
        warnings=tuple(warnings),
    )


@dataclass(frozen=True)
class StepReport:
    """Per-iteration diagnostics.

    ``successive_change`` holds one entry per block plus one for the
    multiplier: the change relative to the first step's change, or the
    absolute change where the first step's change vanished.
    ``h_norm_step`` is ``||w^k - w^{k+1}||_H`` when a certificate norm was
    attached, else ``None``.
    """

    feasibility_residual: float
    successive_change: tuple[float, ...]
    objective: float
    h_norm_step: float | None = None


@dataclass(frozen=True)
class IterationState:
    """Iterate ``w^k`` plus what the next step and the certificates need."""

    k: int
    current: PrimalDualPoint
    auxiliary: PrimalDualPoint | None
    previous: PrimalDualPoint | None
    first_step_norms: tuple[float, ...] | None

    @classmethod
    def initial(cls, start: PrimalDualPoint) -> "IterationState":
        return cls(k=0, current=start.copy(), auxiliary=None, previous=None,
                   first_step_norms=None)


@dataclass
class TrajectoryRecord:
    """Full iterate history: ``points[k] = w^k``, ``auxiliaries[k]`` its
    auxiliary companion, ``reports[k]`` the diagnostics of step ``k``."""

    points: list[PrimalDualPoint]
    auxiliaries: list[PrimalDualPoint]
    reports: list[StepReport]

    @property
    def steps(self) -> int:
        return len(self.auxiliaries)


@dataclass(frozen=True)
class SolveResult:
    final: PrimalDualPoint
    iterations: int
    converged: bool
    stop_reason: str
    final_epsilon: float
    trajectory: TrajectoryRecord | None
    reports: tuple[StepReport, ...]
    validation: ValidationReport


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
                    state: IterationState,
                    fresh_primal: Sequence[np.ndarray]) -> PrimalDualPoint:
    """Auxiliary companion of the step: fresh primal blocks, with the
    multiplier predicted from the unrelaxed residual at the old last block."""
    point = state.current
    last = problem.blocks[-1]
    fresh_sum = _first_phase_image_sum(problem, fresh_primal[:-1])
    drift = fresh_sum + last.linear_map.apply(point.primal[-1]) - problem.rhs
    dual = point.dual - config.rho * drift
    return PrimalDualPoint(tuple(fresh_primal), dual)


def step(problem: BlockProblem, config: SolverConfig, state: IterationState,
         h_quad: Callable[[np.ndarray], float] | None = None,
         ) -> tuple[IterationState, StepReport]:
    """Advance one full sweep and report diagnostics.

    ``h_quad``, when given, evaluates the certificate quadratic form on a
    packed difference vector; the report then carries the weighted step
    length.
    """
    fresh_first = first_phase_update(problem, config, state)
    fresh_last = last_block_update(problem, config, state, fresh_first)
    fresh_primal = (*fresh_first, fresh_last)

    dual = multiplier_update(problem, config, state, fresh_primal)
    if not np.all(np.isfinite(dual)):
        raise DivergenceError(
            f"multiplier is not finite at iteration {state.k}",
            iteration=state.k, component="multiplier",
        )
    auxiliary = auxiliary_point(problem, config, state, fresh_primal)
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

    h_norm_step = None
    if h_quad is not None:
        diff = pack_point(problem, state.current) - pack_point(problem, fresh_point)
        h_norm_step = math.sqrt(max(h_quad(diff), 0.0))

    report = StepReport(
        feasibility_residual=float(np.linalg.norm(constraint_residual(problem, fresh_point))),
        successive_change=successive,
        objective=evaluate_objective(problem, fresh_point),
        h_norm_step=h_norm_step,
    )
    fresh_state = IterationState(
        k=state.k + 1,
        current=fresh_point,
        auxiliary=auxiliary,
        previous=state.current,
        first_step_norms=denominators,
    )
    return fresh_state, report


def solve(problem: BlockProblem, config: SolverConfig, start: PrimalDualPoint,
          h_quad: Callable[[np.ndarray], float] | None = None) -> SolveResult:
    """Run the scheme from ``start`` until the stopping rule or the budget.

    The stopping measure is the largest, over blocks and multiplier, of the
    successive change divided by the corresponding first step's change
    (absolute where that first change vanished); the run stops when it drops
    below ``config.tolerance``.
    """
    check_point(problem, start)
    validation = validate_config(problem, config)
    state = IterationState.initial(start)
    trajectory = (TrajectoryRecord([state.current], [], [])
                  if config.record_trajectory else None)
    reports: list[StepReport] = []
    epsilon = math.inf
    converged = False
    for _ in range(config.max_iterations):
        state, report = step(problem, config, state, h_quad)
        reports.append(report)
        if trajectory is not None:
            trajectory.points.append(state.current)
            trajectory.auxiliaries.append(state.auxiliary)
            trajectory.reports.append(report)
        epsilon = max(report.successive_change)
        if epsilon < config.tolerance:
            converged = True
            break
    return SolveResult(
        final=state.current,
        iterations=state.k,
        converged=converged,
        stop_reason="tolerance" if converged else "iteration_limit",
        final_epsilon=epsilon,
        trajectory=trajectory,
        reports=tuple(reports),
        validation=validation,
    )


def write_trajectory_csv(reports: Sequence[StepReport], num_blocks: int,
                         path: str) -> None:
    """Write per-iteration diagnostics as CSV (17 significant digits)."""
    from .serialization import atomic_write_text, format_float

    header = ["k", "feasibility_residual", "objective"]
    header += [f"rel_change_block_{i + 1}" for i in range(num_blocks)]
    header += ["rel_change_multiplier", "h_norm_step"]
    lines = [",".join(header)]
    for k, report in enumerate(reports, start=1):
        row = [str(k), format_float(report.feasibility_residual),
               format_float(report.objective)]
        row += [format_float(c) for c in report.successive_change]
        row.append("" if report.h_norm_step is None else format_float(report.h_norm_step))
        lines.append(",".join(row))
    atomic_write_text(path, "\n".join(lines) + "\n")
