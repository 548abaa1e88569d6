"""Runtime certificates for the relaxed multi-block splitting scheme.

The scheme's convergence theory is phrased through three structured
matrices on the primal-dual space, ordered as (first-phase blocks, last
block, multiplier):

* ``M`` turns the auxiliary point into the actual update,
  ``w_next = w - M (w - w_bar)``;
* ``H``, symmetric, induces the norm in which the iterates contract toward
  the solution set;
* ``Q = H M`` couples an auxiliary point to the variational inequality of
  the problem (one step satisfies a mixed inequality against every
  feasible point, with ``Q`` on the right-hand side), so a Q-product is an
  H-product of an M-product and is never formed on its own.

``N = Q' + Q - M'H M`` is block diagonal and measures the per-step
decrease. The checks need only products with H, M and N, which
``MetricMatrices`` evaluates matrix-free; no dense realisation is ever
built. The spectral conditions the checks are gated on (the coupled
first-phase metric and ``P_m + (rho/gamma) A_m'A_m`` positive definite,
``P_m`` positive semidefinite) are read from the ``ValidationReport`` of
``validate_config``, the one place that computes them; this module
depends on the solver, never the reverse.

Every certificate below evaluates one provable inequality on a
recorded trajectory, with an explicit scale-aware slack for floating-point
error, and reports the worst margin observed. Checks whose proofs need
conditions that validation left unproven are skipped with validation's
reason, never silently passed. All seven checks read one ``ReplayRecord``,
which ``replay`` measures in one pass over the trajectory, deriving each
auxiliary point once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

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
    SolverConfig,
    TrajectoryRecord,
    ValidationReport,
    auxiliary_point,
    structural_coupling,
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

# relative projection distance up to which a probe counts as feasible
PROBE_TOL = 1e-8

# the one-step mixed inequality is evaluated at this many evenly spaced steps at most
STEP_SAMPLES = 25

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
    """The certificate metrics for one (problem, config) pair, and the one
    place their products are made: H, M and N, through ``apply_metric``.

    Every check uses these structural (matrix-free) evaluators. The
    first-phase rows of H and N are the coupled first-phase metric (prox
    metrics on the diagonal, ``-rho A_i'A_j`` off it): ``K (x) I`` applied
    to the blocks when ``structural_coupling`` gives ``K``, with no map
    products, else one image per block, their sum and one adjoint per
    block. The intermediates live in buffers allocated once, so repeated
    products allocate nothing; one instance is therefore not safe to share
    between threads. The spectral preconditions are the ones
    ``validate_config`` established, kept in ``validation``.
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
        first_phase = self.problem.blocks[:-1]
        self._coupling = structural_coupling(
            self.problem, self.config.proximal_metrics, self.config.rho)
        self._images = [np.empty(self.problem.constraint_dim) for _ in first_phase]
        self._total = np.empty(self.problem.constraint_dim)
        self._image = np.empty(self.problem.constraint_dim)
        self._backs = [np.empty(block.dim) for block in first_phase]
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

    def split(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        first, last, multiplier = self._slices
        return v[first], v[last], v[multiplier]

    def to_dict(self) -> dict:
        """What the metrics add to ``validation``."""
        reason = self.unproven_reason(*_STRICT_CONDITIONS)
        return {
            "n_min_eig": self.n_min_eig,
            "strict_ok": reason is None,
            "strict_reason": reason,
        }

    def _apply_first_phase(self, r: np.ndarray, out: np.ndarray) -> None:
        # the first-phase blocks lead the packed vector, so their slices are r's own
        pieces = self.problem.slices[:-2]
        if self._coupling is not None:
            # out_i = sum_j K_ij r_j from zero: the metric is K (x) I, no map products
            for i, (piece, back) in enumerate(zip(pieces, self._backs)):
                out[piece] = 0.0
                for j, other in enumerate(pieces):
                    np.add(out[piece], np.multiply(self._coupling[i, j], r[other], out=back),
                           out=out[piece])
            return
        blocks, prox = self.problem.blocks[:-1], self.config.proximal_metrics
        for block, piece, image in zip(blocks, pieces, self._images):
            block.linear_map.apply(r[piece], out=image)
        # in place from zero, bitwise as np.sum(images, axis=0) without its stacked copy
        total = self._total
        total[:] = 0.0
        for image in self._images:
            np.add(total, image, out=total)
        for i, (block, piece) in enumerate(zip(blocks, pieces)):
            # prox_i x_i - rho * A_i'(total - A_i x_i)
            np.subtract(total, self._images[i], out=self._image)
            back = block.linear_map.adjoint(self._image, out=self._backs[i])
            np.multiply(self.config.rho, back, out=back)
            prox[i].apply(r[piece], out=out[piece])
            np.subtract(out[piece], back, out=out[piece])


def assemble_metrics(problem: BlockProblem, config: SolverConfig) -> MetricMatrices:
    """The matrix-free certificate metrics, with the spectral conditions
    from ``validate_config``."""
    return MetricMatrices(problem, config, validate_config(problem, config))


def apply_metric(metrics: MetricMatrices, which: str, v: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Structural (matrix-free) product of one certificate matrix with ``v``.

    ``which`` is one of ``"h"``, ``"m"``, ``"n"``; a Q-product is the
    H-product of an M-product (``Q = H M``). ``v`` is a packed full-space
    vector. The product is written into ``out`` when given (which must not
    overlap ``v``). The intermediates go to buffers that ``metrics`` keeps,
    so repeated products allocate nothing beyond ``out``.
    """
    if which not in ("h", "m", "n"):
        raise ValueError(f"unknown metric {which!r}")
    if out is None:
        out = np.empty(metrics.problem.total_dim)
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
    metrics._apply_first_phase(r, out_r)
    if which == "n":
        p_m.apply(xm, out=out_m)
        np.multiply((2.0 - gamma) / rho, y, out=out_y)
        return out
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


def check_probe_feasible(problem: BlockProblem, point: PrimalDualPoint) -> None:
    """Raise ``ProbeFeasibilityError`` unless each block variable lies in its
    constraint set, up to a projection distance of ``PROBE_TOL`` relative to
    ``1 + ||x||``."""
    for i, (block, x) in enumerate(zip(problem.blocks, point.primal)):
        if block.projection is None:
            continue
        dist = float(np.linalg.norm(block.projection(x) - x))
        if dist > PROBE_TOL * (1.0 + float(np.linalg.norm(x))):
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

    ``auxiliary_sum`` is the packed sum of ``w_bar^0..w_bar^{T-1}``, added
    in trajectory order from zero. ``probes`` holds, per probe ``w``,
    ``(objective(w), packed w, ||w - w^0||_H^2)``. The one-step mixed
    inequality is evaluated at the steps ``sampled``: at ``sampled[i]`` and
    probe ``j``, ``step_terms[0, i, j]`` is its left side
    ``objective(w) - objective(w_bar) + (w - w_bar)' F(w_bar)`` and
    ``step_terms[1, i, j]`` its right side ``(w - w_bar)' Q (w^k - w_bar)``,
    with ``Q (w^k - w_bar) = H M (w^k - w_bar)``.
    """

    metrics: MetricMatrices
    ref_dist: np.ndarray
    norms: np.ndarray
    gap: np.ndarray
    residual: np.ndarray
    h_step: np.ndarray
    cross: np.ndarray
    last_move: np.ndarray
    auxiliary_sum: np.ndarray
    probes: tuple
    sampled: tuple[int, ...]
    step_terms: np.ndarray

    @property
    def steps(self) -> int:
        return self.gap.size


def replay(metrics: MetricMatrices, trajectory: TrajectoryRecord,
           reference: PrimalDualPoint, probes: Sequence[PrimalDualPoint]) -> ReplayRecord:
    """Walk ``trajectory`` once, reading each packed ``w^k`` from its row and
    deriving each auxiliary point once, from the rows of ``w^k`` and
    ``w^{k+1}``, into buffers allocated once: ``2T + 1`` H-products, one
    more per probe and one more per sampled step, and ``T`` N- and ``T``
    M-products. At a sampled step the extra H-product is applied to the
    M-product the recurrence residual already forms, which gives the
    Q-product of the step inequality, since ``Q = H M``. The probes are
    checked first: an infeasible probe is an error, not a failure. Writing
    to a row before the replay changes what it measures; replacing an
    element of ``trajectory.points`` does not."""
    _require_trajectory(trajectory, metrics)
    problem, steps = metrics.problem, trajectory.steps
    ref = pack_point(problem, reference)
    diff, product, q_step, wbar = (np.empty_like(ref) for _ in range(4))
    auxiliary_sum = np.zeros_like(ref)
    move, back = np.empty(problem.blocks[-1].dim), np.empty(problem.blocks[-1].dim)
    dual_move = np.empty(problem.constraint_dim)
    derived = (np.empty(problem.constraint_dim), np.empty(problem.constraint_dim))
    a_m, p_m = problem.blocks[-1].linear_map, metrics.config.proximal_metrics[-1]
    ref_dist, norms = np.empty(steps + 1), np.empty(steps + 1)
    gap, residual, h_step, cross, last_move = (np.empty(steps) for _ in range(5))

    current = trajectory.row(0)
    current_point = unpack_point(problem, current)
    probe_terms = []
    for probe in probes:
        check_probe_feasible(problem, probe)
        packed = pack_point(problem, probe)
        probe_terms.append((evaluate_objective(problem, probe), packed,
                            weighted_norm_sq(metrics, packed - current, "h")))
    # at most STEP_SAMPLES evenly spaced steps: the truncated linspace is
    # nondecreasing, so dropping repeats in order sorts it as np.unique would
    # (which imports numpy.ma on first use)
    sampled = tuple(dict.fromkeys(np.linspace(
        0, steps - 1, min(STEP_SAMPLES, steps)).astype(int).tolist()))
    sample_row = {k: i for i, k in enumerate(sampled)}
    step_terms = np.empty((2, len(sampled), len(probe_terms)))
    ref_dist[0] = weighted_norm_sq(metrics, np.subtract(current, ref, out=diff), "h")
    norms[0] = np.linalg.norm(current)
    for k in range(steps):
        following = trajectory.row(k + 1)
        following_point = unpack_point(problem, following)
        ref_dist[k + 1] = weighted_norm_sq(
            metrics, np.subtract(following, ref, out=diff), "h")
        norms[k + 1] = np.linalg.norm(following)
        auxiliary = auxiliary_point(problem, trajectory.config, current_point,
                                    following_point.primal, out=derived)
        pack_point(problem, auxiliary, out=wbar)
        auxiliary_sum += wbar
        gap[k] = weighted_norm_sq(metrics, np.subtract(current, wbar, out=diff), "n")
        apply_metric(metrics, "m", diff, out=product)
        if k in sample_row:
            # objective(u_bar), F(w_bar) and Q (w^k - w_bar) serve every probe;
            # the last is H M (w^k - w_bar), made before the residual reuses the M-product
            apply_metric(metrics, "h", product, out=q_step)
            wbar_objective = evaluate_objective(problem, auxiliary)
            f_wbar = vi_operator(problem, auxiliary)
            for j, (probe_objective, probe_packed, _) in enumerate(probe_terms):
                np.subtract(probe_packed, wbar, out=diff)
                step_terms[:, sample_row[k], j] = (
                    probe_objective - wbar_objective + float(diff @ f_wbar),
                    float(diff @ q_step))
        np.subtract(current, product, out=product)
        residual[k] = np.linalg.norm(np.subtract(product, following, out=product))
        h_step[k] = weighted_norm_sq(
            metrics, np.subtract(current, following, out=diff), "h")
        np.subtract(current_point.dual, following_point.dual, out=dual_move)
        np.subtract(current_point.primal[-1], following_point.primal[-1], out=move)
        cross[k] = move @ a_m.adjoint(dual_move, out=back)
        last_move[k] = p_m.quad(move)
        current, current_point = following, following_point
    return ReplayRecord(metrics, ref_dist, norms, gap, residual, h_step, cross, last_move,
                        auxiliary_sum, tuple(probe_terms), sampled, step_terms)


def fejer_check(record: ReplayRecord,
                unsolved_reference: str | None = None) -> CertificateReport:
    """Per-step contraction toward the reference in the H-norm.

    Verifies, for every recorded step, that the squared H-distance to the
    reference point drops by at least the N-weighted squared distance
    between the iterate and its auxiliary companion. Provable only when the
    coupled first-phase metric is positive definite and the reference
    solves the problem, so the check is skipped otherwise; a given
    ``unsolved_reference`` says why the reference may not.
    """
    name = "fejer_contraction"
    reason = record.metrics.unproven_reason(*_STRICT_CONDITIONS) or unsolved_reference
    if reason:
        return _skipped(name, reason)
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


def nonergodic_rate_check(record: ReplayRecord,
                          unsolved_reference: str | None = None) -> CertificateReport:
    """O(1/t) bound on the H-weighted squared step length.

    For every ``t >= 1``, ``t * ||w^t - w^{t+1}||_H^2`` stays below a
    constant assembled from the initial H-distance to the reference (scaled
    by the relaxation-dependent rate constant) plus the first step's
    last-block proximal length. Skipped, like ``fejer_check``, when the
    reference may not solve the problem.
    """
    name = "nonergodic_rate"
    metrics = record.metrics
    reason = (metrics.unproven_reason(*_STRICT_CONDITIONS, "last_metric")
              or unsolved_reference)
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


def ergodic_average(record: ReplayRecord) -> PrimalDualPoint:
    """Plain average of the ``T`` auxiliary points ``record`` replayed: their
    running sum, in trajectory order from zero, divided by ``T``. Bitwise
    equal to ``np.mean`` over the stacked points, in the memory of one."""
    if not record.steps:
        raise ValueError("cannot average zero points")
    return unpack_point(record.metrics.problem, record.auxiliary_sum / record.steps)


def ergodic_gap_check(record: ReplayRecord, average: PrimalDualPoint) -> CertificateReport:
    """O(1/t) bound on the mixed objective-plus-linear gap of the ergodic
    average, tested against the feasible probe points of ``record``.

    ``average`` is the mean of the ``T`` auxiliary points of the replayed
    trajectory (``ergodic_average``). For every probe ``w`` the gap
    ``objective(average) - objective(w) + (average - w)' F(w)`` must stay
    below ``||w - w^0||_H^2 / (2 T)``.
    """
    name = "ergodic_gap"
    metrics = record.metrics
    reason = metrics.unproven_reason(*_STRICT_CONDITIONS)
    if reason:
        return _skipped(name, reason)
    if not record.steps:
        return _finish(name, [])
    problem = metrics.problem
    avg_packed = pack_point(problem, average)
    avg_objective = evaluate_objective(problem, average)
    margins = []
    for probe_objective, probe_packed, start_dist in record.probes:
        probe = unpack_point(problem, probe_packed)
        gap = (avg_objective - probe_objective
               + float((avg_packed - probe_packed) @ vi_operator(problem, probe)))
        bound = start_dist / (2.0 * record.steps)
        margins.append(bound - gap + inequality_slack(bound, gap))
    return _finish(name, margins, details={"num_probes": len(record.probes)},
                   iterations=record.steps)


def step_inequality_check(record: ReplayRecord) -> CertificateReport:
    """The one-step mixed inequality at the sampled steps of ``record``,
    against its feasible probe points.

    The inequality is exact per step, so sampling at most ``STEP_SAMPLES``
    evenly spaced steps loses nothing structurally. Each margin gets the
    usual scale-aware slack, and the margin of a sampled step is its worst
    over the probes, so ``worst_index`` and ``first_violation`` index
    ``sampled_iterations``.
    """
    name = "step_inequality"
    if not record.step_terms.size:
        return _finish(name, [])
    lhs, rhs = record.step_terms
    margins = (lhs - rhs + inequality_slack(lhs, rhs)).min(axis=1)
    return _finish(name, margins, details={"sampled_iterations": list(record.sampled),
                                           "num_probes": len(record.probes)})
