"""Two-block reference recursions and the reduction-equivalence suite.

Four classical schemes, written as literal recursions so they can serve as
independent baselines: plain alternating direction, its relaxed variant,
and the relaxed variant with a proximal metric on the first block or on
both. The multi-block solver restricted to two blocks must reproduce each
one exactly under the matching configuration; ``reduction_equivalence_suite``
runs all four comparisons iterate-by-iterate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from lgadmm.operators import ScaledIdentity, SymmetricOperator
from lgadmm.problem import BlockProblem, PrimalDualPoint, zeros_point
from lgadmm.solver import ConfigError, IterationState, SolverConfig, step

__all__ = [
    "VARIANTS",
    "TwoBlockScheme",
    "baseline_step",
    "reduction_equivalence_suite",
    "EquivalencePair",
    "EquivalenceReport",
]

VARIANTS = ("admm", "gadmm", "lgadmm_p1", "lgadmm_p1p2")


@dataclass(frozen=True)
class TwoBlockScheme:
    """One of the four reference recursions.

    ``admm`` ignores ``gamma`` and the metrics; ``gadmm`` adds the
    relaxation; ``lgadmm_p1`` adds a proximal metric on the first block;
    ``lgadmm_p1p2`` on both.
    """

    variant: str
    rho: float
    gamma: float = 1.0
    p1: SymmetricOperator | None = None
    p2: SymmetricOperator | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}, expected one of {VARIANTS}")
        if self.rho <= 0:
            raise ConfigError(f"rho must be positive, got {self.rho}")
        if self.variant != "admm" and not 0.0 < self.gamma < 2.0:
            raise ConfigError(
                f"gamma must lie strictly between 0 and 2, got {self.gamma}")
        if self.variant in ("lgadmm_p1", "lgadmm_p1p2") and self.p1 is None:
            raise ConfigError(f"variant {self.variant!r} needs a first-block metric")
        if self.variant == "lgadmm_p1p2" and self.p2 is None:
            raise ConfigError("variant 'lgadmm_p1p2' needs a second-block metric")


def baseline_step(problem: BlockProblem, scheme: TwoBlockScheme,
                  point: PrimalDualPoint) -> PrimalDualPoint:
    """One sweep of the chosen two-block recursion."""
    if problem.num_blocks != 2:
        raise ValueError("baseline schemes are defined for exactly two blocks")
    first, second = problem.blocks
    a1, a2 = first.linear_map, second.linear_map
    b = problem.rhs
    rho = scheme.rho
    gamma = 1.0 if scheme.variant == "admm" else scheme.gamma
    p1 = scheme.p1 if scheme.p1 is not None else ScaledIdentity(first.dim, 0.0)
    p2 = scheme.p2 if scheme.p2 is not None else ScaledIdentity(second.dim, 0.0)

    x1, x2 = point.primal
    y = point.dual

    target1 = b + y / rho - a2.apply(x2)
    x1_new = first.subproblem_oracle(target1, x1, rho, p1)

    relaxed_old = b - a2.apply(x2)
    target2 = (b + y / rho - gamma * a1.apply(x1_new)
               - (1.0 - gamma) * relaxed_old)
    x2_new = second.subproblem_oracle(target2, x2, rho, p2)

    drift = (gamma * a1.apply(x1_new) + (1.0 - gamma) * relaxed_old
             + a2.apply(x2_new) - b)
    y_new = y - rho * drift
    return PrimalDualPoint((x1_new, x2_new), y_new)


@dataclass(frozen=True)
class EquivalencePair:
    name: str
    max_deviation: float


@dataclass(frozen=True)
class EquivalenceReport:
    pairs: tuple[EquivalencePair, ...]
    tolerance: float

    @property
    def max_deviation(self) -> float:
        return max(pair.max_deviation for pair in self.pairs)

    @property
    def passed(self) -> bool:
        return self.max_deviation <= self.tolerance


def _max_abs_difference(a: PrimalDualPoint, b: PrimalDualPoint) -> float:
    worst = float(np.max(np.abs(a.dual - b.dual), initial=0.0))
    for xa, xb in zip(a.primal, b.primal):
        worst = max(worst, float(np.max(np.abs(xa - xb), initial=0.0)))
    return worst


def _compare(problem: BlockProblem, scheme: TwoBlockScheme,
             config: SolverConfig, start: PrimalDualPoint,
             iterations: int) -> float:
    baseline_point = start.copy()
    state = IterationState.initial(start)
    worst = 0.0
    for _ in range(iterations):
        baseline_point = baseline_step(problem, scheme, baseline_point)
        state, _ = step(problem, config, state)
        worst = max(worst, _max_abs_difference(baseline_point, state.current))
    return worst


def reduction_equivalence_suite(problem: BlockProblem, rho: float, gamma: float,
                                p1: SymmetricOperator, p2: SymmetricOperator,
                                iterations: int = 50,
                                start: PrimalDualPoint | None = None,
                                tolerance: float = 1e-10) -> EquivalenceReport:
    """Iterate-by-iterate comparison of the solver against all four baselines.

    Runs the multi-block solver on the two-block problem under the four
    configurations that should collapse onto the reference recursions:
    unit relaxation with zero metrics, relaxation ``gamma`` with zero
    metrics, with ``p1`` only, and with both metrics. Reports the largest
    entrywise deviation seen anywhere along the way.
    """
    if problem.num_blocks != 2:
        raise ValueError("the reduction suite needs a two-block problem")
    start = zeros_point(problem) if start is None else start
    zero1 = ScaledIdentity(problem.blocks[0].dim, 0.0)
    zero2 = ScaledIdentity(problem.blocks[1].dim, 0.0)

    def config(g: float, m1: SymmetricOperator, m2: SymmetricOperator) -> SolverConfig:
        return SolverConfig(rho=rho, gamma=g, proximal_metrics=(m1, m2),
                            max_iterations=iterations, tolerance=1e-300)

    cases = (
        ("admm_vs_unit_relaxation",
         TwoBlockScheme("admm", rho),
         config(1.0, zero1, zero2)),
        ("relaxed_vs_zero_metrics",
         TwoBlockScheme("gadmm", rho, gamma),
         config(gamma, zero1, zero2)),
        ("first_block_metric",
         TwoBlockScheme("lgadmm_p1", rho, gamma, p1=p1),
         config(gamma, p1, zero2)),
        ("both_block_metrics",
         TwoBlockScheme("lgadmm_p1p2", rho, gamma, p1=p1, p2=p2),
         config(gamma, p1, p2)),
    )
    pairs = tuple(
        EquivalencePair(name, _compare(problem, scheme, cfg, start, iterations))
        for name, scheme, cfg in cases
    )
    return EquivalenceReport(pairs=pairs, tolerance=tolerance)
