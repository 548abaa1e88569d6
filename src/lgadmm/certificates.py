"""Runtime certificates for the relaxed multi-block splitting scheme.

The scheme's convergence theory is phrased through three structured
matrices on the primal-dual space, ordered as (first-phase blocks, last
block, multiplier):

* ``Q`` couples an auxiliary point to the variational inequality of the
  problem (one step satisfies a mixed inequality against every feasible
  point, with ``Q`` on the right-hand side);
* ``M`` turns the auxiliary point into the actual update,
  ``w_next = w - M (w - w_bar)``;
* ``H``, symmetric, factors ``Q = H M`` and induces the norm in which the
  iterates contract toward the solution set.

``N = Q' + Q - M'H M`` is block diagonal and measures the per-step
decrease. The checks need only products with these matrices, evaluated
matrix-free; no dense realisation is ever built. The spectral conditions
the checks are gated on (the coupled first-phase metric and
``P_m + (rho/gamma) A_m'A_m`` positive definite, ``P_m`` positive
semidefinite) are read from the ``ValidationReport`` of
``validate_config``, the one place that computes them; this module
depends on the solver, never the reverse.

Every certificate below evaluates one provable inequality on a
recorded trajectory, with an explicit scale-aware slack for floating-point
error, and reports the worst margin observed. Checks whose proofs need
conditions that validation left unproven are skipped with validation's
reason, never silently passed. The five checks that walk the
trajectory read one ``ReplayRecord``, which ``replay`` measures in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .problem import (
    BlockProblem,
    PrimalDualPoint,
    evaluate_objective,
    pack_point,
    unpack_point,
    vi_operator,
)
from .solver import (
    FirstPhaseProduct,
    SolverConfig,
    TrajectoryRecord,
    ValidationReport,
    auxiliary_point,
    validate_config,
)

__all__ = [
    "CertificateError",
    "ProbeFeasibilityError",
    "MetricMatrices",
    "CertificateReport",
    "assemble_metrics",
    "apply_metric",
    "weighted_norm_sq",
    "sigma_gamma",
    "inequality_slack",
    "check_probe_feasible",
    "ReplayRecord",
    "replay",
    "fejer_check",
    "nonergodic_monotonicity_check",
    "nonergodic_rate_check",
    "ergodic_average",
    "ergodic_gap_check",
    "cross_term_check",
    "update_recurrence_check",
    "step_inequality_check",
]

SLACK_COEFF = 1e-8

# the conditions of ``ValidationReport.unproven`` behind the contraction checks
_STRICT_CONDITIONS = ("first_phase", "last_condition")


class CertificateError(Exception):
    """Base class for certificate-engine errors."""


class ProbeFeasibilityError(CertificateError):
    """A probe point lies outside the feasible set beyond tolerance."""


def inequality_slack(*terms):
    """Additive floating-point slack, scaled by the largest term magnitude
    (entry by entry when the terms are arrays)."""
    biggest = 0.0
    for term in terms:
        biggest = np.maximum(biggest, np.abs(term))
    return SLACK_COEFF * (1.0 + biggest)


def sigma_gamma(gamma: float) -> float:
    """The rate constant ``min{(2 - gamma)/gamma, 1}``, positive on (0, 2)."""
    if not 0.0 < gamma < 2.0:
        raise ValueError(f"gamma must lie strictly between 0 and 2, got {gamma}")
    return min((2.0 - gamma) / gamma, 1.0)


# ---------------------------------------------------------------------------
# Metric assembly.

@dataclass
class MetricMatrices:
    """The certificate metrics for one (problem, config) pair.

    Every check uses the structural (matrix-free) evaluators. The spectral
    preconditions are the ones ``validate_config`` established, kept in
    ``validation``.
    """

    problem: BlockProblem
    config: SolverConfig
    validation: ValidationReport

    # always None: no dense realisation is built. Kept (not a field) because
    # the benchmark tracer's ``dense_bytes`` in ``bench/tracing.py`` reads it.
    dense = None

    def __post_init__(self):
        # the (first phase, last block, multiplier) slices of a packed vector
        # and the buffers of ``apply_metric`` and ``weighted_norm_sq``
        last, multiplier = self.problem.slices[-2:]
        self._slices = (slice(0, last.start), last, multiplier)
        self._first_phase = FirstPhaseProduct(
            self.problem, self.config.proximal_metrics, self.config.rho)
        self._image = np.empty(self.problem.constraint_dim)
        self._back = np.empty(self.problem.blocks[-1].dim)
        self._product = np.empty(self.problem.total_dim)

    @property
    def n_min_eig(self) -> float:
        """Smallest eigenvalue of the block-diagonal ``N``:
        ``min(g1, P_m, (2 - gamma)/rho)``."""
        v = self.validation
        return min(v.first_phase_min_eig, v.last_metric_min_eig,
                   (2.0 - self.config.gamma) / self.config.rho)

    def unproven_reason(self, *conditions: str) -> str | None:
        """Validation's reasons for those of ``conditions`` (keys of
        ``ValidationReport.unproven``) it left unproven, or ``None``."""
        unproven = self.validation.unproven
        return "; ".join(unproven[c] for c in conditions if c in unproven) or None

    @property
    def strict_reason(self) -> str | None:
        return self.unproven_reason(*_STRICT_CONDITIONS)

    @property
    def strict_ok(self) -> bool:
        return self.strict_reason is None

    @property
    def total_dim(self) -> int:
        return self.problem.total_dim

    def split(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        first, last, multiplier = self._slices
        return v[first], v[last], v[multiplier]

    def to_dict(self) -> dict:
        """What the metrics add to ``validation``."""
        return {
            "n_min_eig": self.n_min_eig,
            "strict_ok": self.strict_ok,
            "strict_reason": self.strict_reason,
        }


def assemble_metrics(problem: BlockProblem, config: SolverConfig) -> MetricMatrices:
    """The matrix-free certificate metrics, with the spectral conditions
    from ``validate_config``."""
    return MetricMatrices(problem, config, validate_config(problem, config))


def apply_metric(metrics: MetricMatrices, which: str, v: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Structural (matrix-free) product of one certificate matrix with ``v``.

    ``which`` is one of ``"q"``, ``"m"``, ``"h"``, ``"n"``; ``v`` is a packed
    full-space vector. The product is written into ``out`` when given (which
    must not overlap ``v``). The intermediates go to buffers that ``metrics``
    keeps, so repeated products allocate nothing beyond ``out``; one
    ``MetricMatrices`` is therefore not safe to share between threads.
    """
    if which not in ("h", "m", "n", "q"):
        raise ValueError(f"unknown metric {which!r}")
    if out is None:
        out = np.empty(metrics.total_dim)
    r, xm, y = metrics.split(v)
    out_r, out_m, out_y = metrics.split(out)
    image, back = metrics._image, metrics._back
    rho, gamma = metrics.config.rho, metrics.config.gamma
    a_m = metrics.problem.blocks[-1].linear_map
    p_m = metrics.config.proximal_metrics[-1]
    if which == "m":
        # M is the identity outside the multiplier block: no first-phase product
        out_r[:] = r
        out_m[:] = xm
        # -rho * A_m x_m + gamma * y
        a_m.apply(xm, out=image)
        np.multiply(-rho, image, out=image)
        np.multiply(gamma, y, out=out_y)
        np.add(image, out_y, out=out_y)
        return out
    if r.size:
        metrics._first_phase.apply(r, out=out_r)
    if which == "h":
        # P_m x_m + (rho/gamma) A_m'A_m x_m + ((1 - gamma)/gamma) A_m'y
        p_m.apply(xm, out=out_m)
        a_m.apply(xm, out=image)
        np.multiply(rho / gamma, a_m.adjoint(image, out=back), out=back)
        np.add(out_m, back, out=out_m)
        np.multiply((1.0 - gamma) / gamma, a_m.adjoint(y, out=back), out=back)
        np.add(out_m, back, out=out_m)
        # ((1 - gamma)/gamma) A_m x_m + y/(gamma rho)
        np.multiply((1.0 - gamma) / gamma, image, out=out_y)
        np.divide(y, gamma * rho, out=image)
        np.add(out_y, image, out=out_y)
    elif which == "n":
        p_m.apply(xm, out=out_m)
        np.multiply((2.0 - gamma) / rho, y, out=out_y)
    else:
        # rho A_m'A_m x_m + P_m x_m + (1 - gamma) A_m'y
        a_m.apply(xm, out=image)
        np.multiply(rho, a_m.adjoint(image, out=back), out=out_m)
        np.add(out_m, p_m.apply(xm, out=back), out=out_m)
        np.multiply(1.0 - gamma, a_m.adjoint(y, out=back), out=back)
        np.add(out_m, back, out=out_m)
        # -A_m x_m + y/rho
        np.negative(image, out=out_y)
        np.divide(y, rho, out=image)
        np.add(out_y, image, out=out_y)
    return out


def weighted_norm_sq(metrics: MetricMatrices, v: np.ndarray, which: str) -> float:
    """Quadratic form ``v' W v`` for ``W`` in {H, N} (``which`` is ``"h"``
    or ``"n"``) and a packed full-space ``v``. The product goes to a buffer
    that ``metrics`` keeps, so ``v`` must not be that buffer.
    """
    if which not in ("h", "n"):
        raise ValueError(f"unknown metric {which!r}")
    return float(v @ apply_metric(metrics, which, v, out=metrics._product))


# ---------------------------------------------------------------------------
# Certificate checks.

@dataclass(frozen=True)
class CertificateReport:
    """Outcome of one certificate check over a trajectory.

    ``passed`` is ``None`` when the check was skipped because its
    preconditions do not hold for the configuration; ``skipped_reason``
    says why. ``worst_margin`` is the smallest slack-adjusted margin
    observed; negative means the inequality failed there.
    """

    check: str
    iterations_checked: int
    worst_margin: float | None
    passed: bool | None
    skipped_reason: str | None = None
    details: dict = field(default_factory=dict)

    @property
    def skipped(self) -> bool:
        return self.passed is None

    def to_dict(self) -> dict:
        out = {
            "check": self.check,
            "iterations_checked": self.iterations_checked,
            "worst_margin": self.worst_margin,
            "passed": self.passed,
            "skipped_reason": self.skipped_reason,
        }
        if self.details:
            out["details"] = self.details
        return out


def _skipped(check: str, reason: str) -> CertificateReport:
    return CertificateReport(check=check, iterations_checked=0,
                             worst_margin=None, passed=None,
                             skipped_reason=reason)


def _finish(check: str, margins, details: dict | None = None,
            iterations: int | None = None) -> CertificateReport:
    """Report the worst of ``margins``; a failed check also names the index
    of its first violation (a negative or NaN margin)."""
    margins = np.asarray(margins, dtype=float)
    if not margins.size:
        # Nothing to compare: vacuously true, distinct from a gated skip.
        return CertificateReport(check=check, iterations_checked=0,
                                 worst_margin=None, passed=True,
                                 details={"vacuous": True})
    # argmin takes the first NaN when there is one, so a NaN margin fails
    worst_index = int(np.argmin(margins))
    violations = np.flatnonzero(~(margins >= 0.0))
    out_details = dict(details or {}, worst_index=worst_index)
    if violations.size:
        out_details["first_violation"] = int(violations[0])
    return CertificateReport(
        check=check,
        iterations_checked=margins.size if iterations is None else iterations,
        worst_margin=float(margins[worst_index]),
        passed=not violations.size,
        details=out_details,
    )


def _require_trajectory(trajectory, metrics: MetricMatrices) -> None:
    # a trajectory recorded under other rho, gamma or metrics would fail falsely
    if trajectory is None or not getattr(trajectory, "points", None):
        raise ValueError("a recorded trajectory is required for this check")
    mine, theirs = trajectory.config, metrics.config
    if (trajectory.problem is not metrics.problem
            or (mine.rho, mine.gamma, *map(id, mine.proximal_metrics))
            != (theirs.rho, theirs.gamma, *map(id, theirs.proximal_metrics))):
        raise ValueError("the trajectory was recorded on another problem or "
                         "configuration than the metrics")


def check_probe_feasible(problem: BlockProblem, point: PrimalDualPoint,
                         tol: float = 1e-8) -> None:
    """Raise ``ProbeFeasibilityError`` unless each block variable lies in its
    constraint set (up to a relative projection distance ``tol``)."""
    for i, (block, x) in enumerate(zip(problem.blocks, point.primal)):
        if block.projection is None:
            continue
        dist = float(np.linalg.norm(block.projection(x) - x))
        if dist > tol * (1.0 + float(np.linalg.norm(x))):
            raise ProbeFeasibilityError(
                f"probe violates the constraint set of block {i} "
                f"(projection distance {dist:.3e})")


@dataclass(frozen=True, eq=False)
class ReplayRecord:
    """Per-step quantities of one recorded trajectory of ``T`` steps, from
    ``replay``, and the ``metrics`` they were measured with.

    ``ref_dist[k] = ||w^k - ref||_H^2`` and ``norms[k] = ||w^k||`` for
    ``k = 0..T``; for ``k = 0..T-1``, ``gap[k] = ||w^k - w_bar^k||_N^2``,
    ``residual[k] = ||w^k - M (w^k - w_bar^k) - w^{k+1}||``,
    ``h_step[k] = ||w^k - w^{k+1}||_H^2``,
    ``cross[k] = (x_m^k - x_m^{k+1})' A_m' (y^k - y^{k+1})`` and
    ``last_move[k] = ||x_m^k - x_m^{k+1}||_{P_m}^2``.
    """

    metrics: MetricMatrices
    ref_dist: np.ndarray
    norms: np.ndarray
    gap: np.ndarray
    residual: np.ndarray
    h_step: np.ndarray
    cross: np.ndarray
    last_move: np.ndarray

    @property
    def steps(self) -> int:
        return self.gap.size


def replay(metrics: MetricMatrices, trajectory: TrajectoryRecord,
           reference: PrimalDualPoint) -> ReplayRecord:
    """Walk ``trajectory`` once, reading each packed ``w^k`` from its row and
    deriving each auxiliary point from the rows of ``w^k`` and ``w^{k+1}``
    into buffers allocated once: ``2T + 1`` H-products, ``T`` N- and ``T``
    M-products. Writing to a row before the replay changes what it
    measures; replacing an element of ``trajectory.points`` does not."""
    _require_trajectory(trajectory, metrics)
    problem, steps = metrics.problem, trajectory.steps
    ref = pack_point(problem, reference)
    diff, product = np.empty_like(ref), np.empty_like(ref)
    move, back = np.empty(problem.blocks[-1].dim), np.empty(problem.blocks[-1].dim)
    dual_move = np.empty(problem.constraint_dim)
    derived = (np.empty(problem.constraint_dim), np.empty(problem.constraint_dim))
    a_m, p_m = problem.blocks[-1].linear_map, metrics.config.proximal_metrics[-1]
    ref_dist, norms = np.empty(steps + 1), np.empty(steps + 1)
    gap, residual, h_step, cross, last_move = (np.empty(steps) for _ in range(5))

    current = trajectory.row(0)
    current_point = unpack_point(problem, current)
    ref_dist[0] = weighted_norm_sq(metrics, np.subtract(current, ref, out=diff), "h")
    norms[0] = np.linalg.norm(current)
    for k in range(steps):
        following = trajectory.row(k + 1)
        following_point = unpack_point(problem, following)
        ref_dist[k + 1] = weighted_norm_sq(
            metrics, np.subtract(following, ref, out=diff), "h")
        norms[k + 1] = np.linalg.norm(following)
        # the packed auxiliary point goes into diff, then w^k - w_bar^k replaces it
        pack_point(problem, auxiliary_point(problem, trajectory.config, current_point,
                                            following_point.primal, out=derived),
                   out=diff)
        gap[k] = weighted_norm_sq(metrics, np.subtract(current, diff, out=diff), "n")
        apply_metric(metrics, "m", diff, out=product)
        np.subtract(current, product, out=product)
        residual[k] = np.linalg.norm(np.subtract(product, following, out=product))
        h_step[k] = weighted_norm_sq(
            metrics, np.subtract(current, following, out=diff), "h")
        np.subtract(current_point.dual, following_point.dual, out=dual_move)
        np.subtract(current_point.primal[-1], following_point.primal[-1], out=move)
        cross[k] = move @ a_m.adjoint(dual_move, out=back)
        last_move[k] = p_m.quad(move)
        current, current_point = following, following_point
    return ReplayRecord(metrics, ref_dist, norms, gap, residual, h_step, cross, last_move)


def fejer_check(record: ReplayRecord) -> CertificateReport:
    """Per-step contraction toward the reference in the H-norm.

    Verifies, for every recorded step, that the squared H-distance to the
    reference point drops by at least the N-weighted squared distance
    between the iterate and its auxiliary companion. Provable only when the
    coupled first-phase metric is positive definite, so the check is
    skipped otherwise.
    """
    name = "fejer_contraction"
    if not record.metrics.strict_ok:
        return _skipped(name, record.metrics.strict_reason)
    before, decrease, after = record.ref_dist[:-1], record.gap, record.ref_dist[1:]
    return _finish(name, before - decrease - after
                   + inequality_slack(before, decrease, after))


def nonergodic_monotonicity_check(record: ReplayRecord) -> CertificateReport:
    """The H-weighted step length never increases from one step to the next.

    Needs the strict matrix conditions and a positive semidefinite
    last-block proximal metric; skipped when either fails.
    """
    name = "step_monotonicity"
    reason = record.metrics.unproven_reason(*_STRICT_CONDITIONS, "last_metric")
    if reason:
        return _skipped(name, reason)
    now, following = record.h_step[:-1], record.h_step[1:]
    return _finish(name, now - following + inequality_slack(now, following))


def nonergodic_rate_check(record: ReplayRecord) -> CertificateReport:
    """O(1/t) bound on the H-weighted squared step length.

    For every ``t >= 1``, ``t * ||w^t - w^{t+1}||_H^2`` stays below a
    constant assembled from the initial H-distance to the reference (scaled
    by the relaxation-dependent rate constant) plus the first step's
    last-block proximal length.
    """
    name = "nonergodic_rate"
    metrics = record.metrics
    reason = metrics.unproven_reason(*_STRICT_CONDITIONS, "last_metric")
    if reason:
        return _skipped(name, reason)
    if record.steps < 1:
        return _finish(name, [])
    constant = record.ref_dist[0] / sigma_gamma(metrics.config.gamma) + record.last_move[0]
    lhs = np.arange(1, record.steps) * record.h_step[1:]
    margins = constant - lhs + inequality_slack(constant, lhs)
    # the margin at offset j belongs to t = j + 1
    tightest = {"tightest_t": int(np.argmin(margins)) + 1} if margins.size else None
    return _finish(name, margins, details=tightest)


def cross_term_check(record: ReplayRecord) -> CertificateReport:
    """Lower bound on the cross term between successive last-block moves and
    multiplier moves.

    ``(x_m^k - x_m^{k+1})' A_m' (y^k - y^{k+1})`` dominates the telescoping
    difference of last-block proximal lengths. The derivation uses the
    last-block optimality conditions of two consecutive steps and needs the
    proximal metric to be positive semidefinite.
    """
    name = "cross_term"
    reason = record.metrics.unproven_reason("last_metric")
    if reason:
        return _skipped(name, reason)
    # each step's last-block move against the previous step's
    lhs, gain, loss = record.cross[1:], 0.5 * record.last_move[1:], 0.5 * record.last_move[:-1]
    return _finish(name, lhs - gain + loss + inequality_slack(lhs, gain, loss))


def update_recurrence_check(record: ReplayRecord) -> CertificateReport:
    """Exact one-step recurrence: ``w^{k+1} = w^k - M (w^k - w_bar^k)``.

    An identity, not an inequality; margins are the slack minus the
    relative residual, so roundoff-sized residuals pass.
    """
    scale = 1.0 + np.maximum(record.norms[:-1], record.norms[1:])
    return _finish("update_recurrence", SLACK_COEFF - record.residual / scale)


def ergodic_average(points: Iterable[PrimalDualPoint]) -> PrimalDualPoint:
    """Plain average of primal-dual points (used on auxiliary sequences).

    A running sum in iteration order, started from zero and divided by the
    count: bitwise equal to ``np.mean`` over the stacked points, in the
    memory of one point instead of all of them. ``points`` is read once, so
    a generator that derives each point on demand works.
    """
    primal, dual, count = None, None, 0
    for point in points:
        if primal is None:
            primal = [np.zeros(x.shape) for x in point.primal]
            dual = np.zeros(point.dual.shape)
        for total, x in zip(primal, point.primal):
            total += x
        dual += point.dual
        count += 1
    if not count:
        raise ValueError("cannot average zero points")
    for total in (*primal, dual):
        total /= count
    return PrimalDualPoint(tuple(primal), dual)


def ergodic_gap_check(problem: BlockProblem, metrics: MetricMatrices,
                      average: PrimalDualPoint,
                      probes: Sequence[PrimalDualPoint],
                      start: PrimalDualPoint, t: int) -> CertificateReport:
    """O(1/t) bound on the mixed objective-plus-linear gap of the ergodic
    average, tested against feasible probe points.

    ``average`` is the mean of the ``t + 1`` auxiliary points produced up to
    step ``t`` and ``start`` is the point the run began from. For every
    probe ``w`` the gap
    ``objective(average) - objective(w) + (average - w)' F(w)`` must stay
    below ``||w - start||_H^2 / (2 (t + 1))``. Probes must lie in the
    feasible set; an infeasible probe is an error, not a failure.
    """
    name = "ergodic_gap"
    if not metrics.strict_ok:
        return _skipped(name, metrics.strict_reason)
    if t < 0:
        raise ValueError("t must be a nonnegative step index")
    avg_packed = pack_point(problem, average)
    start_packed = pack_point(problem, start)
    avg_objective = evaluate_objective(problem, average)
    margins = []
    for probe in probes:
        check_probe_feasible(problem, probe)
        probe_packed = pack_point(problem, probe)
        gap = (avg_objective - evaluate_objective(problem, probe)
               + float((avg_packed - probe_packed) @ vi_operator(problem, probe)))
        bound = weighted_norm_sq(metrics, probe_packed - start_packed, "h") / (2.0 * (t + 1))
        margins.append(bound - gap + inequality_slack(bound, gap))
    return _finish(name, margins, details={"num_probes": len(probes)},
                   iterations=t + 1)


def _step_terms(problem: BlockProblem, metrics: MetricMatrices,
                current: np.ndarray, auxiliary: PrimalDualPoint) -> tuple:
    """The parts of the one-step inequality that every probe shares, from
    the packed ``w^k`` and the auxiliary point: packed ``w_bar``,
    ``objective(u_bar)``, ``F(w_bar)`` and ``Q (w^k - w_bar)``."""
    wbar = pack_point(problem, auxiliary)
    return (wbar, evaluate_objective(problem, auxiliary), vi_operator(problem, auxiliary),
            apply_metric(metrics, "q", current - wbar))


def _probe_terms(step_terms: tuple, probe_objective: float,
                 probe_packed: np.ndarray) -> tuple[float, float]:
    """Both sides of the one-step inequality at one feasible probe."""
    wbar, wbar_objective, f_wbar, q_step = step_terms
    diff = probe_packed - wbar
    lhs = probe_objective - wbar_objective + float(diff @ f_wbar)
    rhs = float(diff @ q_step)
    return lhs, rhs


def step_inequality_check(problem: BlockProblem, metrics: MetricMatrices,
                          trajectory: TrajectoryRecord,
                          probes: Sequence[PrimalDualPoint],
                          max_samples: int = 25) -> CertificateReport:
    """Evaluate the one-step mixed inequality on sampled iterations.

    At most ``max_samples`` evenly spaced steps are probed (the inequality
    is exact per step, so sampling loses nothing structurally); each margin
    gets the usual scale-aware slack. ``w^k`` is read from its row.
    """
    name = "step_inequality"
    _require_trajectory(trajectory, metrics)
    if trajectory.steps < 1:
        return _finish(name, [])
    count = min(max_samples, trajectory.steps)
    # the truncated linspace is nondecreasing, so dropping repeats in order
    # sorts it as np.unique would (which imports numpy.ma on first use)
    sample = list(dict.fromkeys(
        np.linspace(0, trajectory.steps - 1, count).astype(int).tolist()))
    for probe in probes:
        check_probe_feasible(problem, probe)
    probe_terms = [(evaluate_objective(problem, probe), pack_point(problem, probe))
                   for probe in probes]
    margins = []
    for k in sample:
        terms = _step_terms(problem, metrics, trajectory.row(k), trajectory.auxiliary(k))
        for probe_objective, probe_packed in probe_terms:
            lhs, rhs = _probe_terms(terms, probe_objective, probe_packed)
            margins.append(lhs - rhs + inequality_slack(lhs, rhs))
    details = {"sampled_iterations": sample,
               "num_probes": len(probes)}
    return _finish(name, margins, details=details)
