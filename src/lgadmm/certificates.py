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
matrix-free; dense realisations exist only under ``assemble_metrics(...,
mode="dense")``. The spectral conditions the checks are gated on (the
coupled first-phase metric and ``P_m + (rho/gamma) A_m'A_m`` positive
definite, ``P_m`` positive semidefinite) are read from the
``ValidationReport`` of ``validate_config``, the one place that computes
them; this module depends on the solver, never the reverse.

Every certificate below evaluates one provable inequality on a
recorded trajectory, with an explicit scale-aware slack for floating-point
error, and reports the worst margin observed. Checks whose proofs need
matrix conditions the configuration does not satisfy are skipped with a
recorded reason, never silently passed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .operators import LinearMap, SymmetricOperator
from .problem import (
    BlockProblem,
    PrimalDualPoint,
    evaluate_objective,
    pack_point,
    pack_vi_value,
    vi_operator,
)
from .solver import (
    EIG_ZERO_TOL,
    FirstPhaseProduct,
    IterationState,
    SolverConfig,
    TrajectoryRecord,
    ValidationReport,
    first_phase_dense,
    validate_config,
)

__all__ = [
    "DENSE_DIM_CAP",
    "CertificateError",
    "MetricConsistencyError",
    "ProbeFeasibilityError",
    "MetricMatrices",
    "CertificateReport",
    "assemble_metrics",
    "apply_metric",
    "weighted_norm_sq",
    "sigma_gamma",
    "inequality_slack",
    "check_probe_feasible",
    "fejer_check",
    "h_step_lengths",
    "nonergodic_monotonicity_check",
    "nonergodic_rate_check",
    "ergodic_average",
    "ergodic_gap_check",
    "cross_term_check",
    "update_recurrence_check",
    "step_inequality_probe",
    "step_inequality_check",
]

# Largest total dimension ``assemble_metrics(..., mode="dense")`` accepts.
DENSE_DIM_CAP = 5000

SLACK_COEFF = 1e-8


class CertificateError(Exception):
    """Base class for certificate-engine errors."""


class MetricConsistencyError(CertificateError):
    """The assembled metrics violate an identity they provably satisfy."""


class ProbeFeasibilityError(CertificateError):
    """A probe point lies outside the feasible set beyond tolerance."""


def inequality_slack(*terms: float) -> float:
    """Additive floating-point slack, scaled by the largest term magnitude."""
    biggest = max((abs(t) for t in terms), default=0.0)
    return SLACK_COEFF * (1.0 + biggest)


def sigma_gamma(gamma: float) -> float:
    """The rate constant ``min{(2 - gamma)/gamma, 1}``, positive on (0, 2)."""
    if not 0.0 < gamma < 2.0:
        raise ValueError(f"gamma must lie strictly between 0 and 2, got {gamma}")
    return min((2.0 - gamma) / gamma, 1.0)


def _pack_into(point: PrimalDualPoint, out: np.ndarray) -> np.ndarray:
    """``pack_point`` written into ``out``."""
    return np.concatenate([*point.primal, point.dual], out=out)


def _packed_steps(problem: BlockProblem, trajectory: TrajectoryRecord):
    """Yield ``(k, w^k, w^{k+1})`` packed, packing each point once.

    The window slides over two buffers allocated once, so the yielded
    arrays are overwritten when the generator advances.
    """
    current = pack_point(problem, trajectory.points[0])
    following = np.empty_like(current)
    for k in range(trajectory.steps):
        _pack_into(trajectory.points[k + 1], following)
        yield k, current, following
        current, following = following, current


# ---------------------------------------------------------------------------
# Metric assembly.

@dataclass
class MetricMatrices:
    """The certificate metrics for one (problem, config) pair.

    Every check uses the structural (matrix-free) evaluators. The spectral
    preconditions are the ones ``validate_config`` established, kept in
    ``validation``. Dense realisations (``g1``, ``q``, ``m_mat``, ``h``,
    ``n_mat``) and ``h_min_eig`` are present only under ``mode="dense"``.
    """

    problem: BlockProblem
    config: SolverConfig
    validation: ValidationReport
    n_min_eig: float
    h_min_eig: float | None = None
    dense: dict[str, np.ndarray] | None = None

    def __post_init__(self):
        # the (first phase, last block, multiplier) slices of a packed vector
        # and the buffers of ``apply_metric`` and ``weighted_norm_sq``
        dims = self.problem.block_dims
        first, last = sum(dims[:-1]), sum(dims)
        self._slices = (slice(0, first), slice(first, last), slice(last, None))
        self._first_phase = FirstPhaseProduct(
            self.problem, self.config.proximal_metrics, self.config.rho)
        self._image = np.empty(self.problem.constraint_dim)
        self._back = np.empty(dims[-1])
        self._product = np.empty(self.problem.total_dim)

    @property
    def strict_ok(self) -> bool:
        """Whether the matrix conditions behind the contraction
        certificates hold for this configuration."""
        return (self.validation.first_phase_positive
                and self.validation.last_condition_min_eig > EIG_ZERO_TOL)

    @property
    def strict_reason(self) -> str | None:
        if self.strict_ok:
            return None
        v = self.validation
        pieces = []
        if not v.first_phase_positive:
            pieces.append(f"coupled first-phase metric min eigenvalue "
                          f"{v.first_phase_min_eig:.6g} ({v.first_phase_method})")
        if v.last_condition_min_eig <= EIG_ZERO_TOL:
            pieces.append(f"last-block condition min eigenvalue "
                          f"{v.last_condition_min_eig:.6g} ({v.last_condition_method})")
        return "configuration outside provable territory: " + "; ".join(pieces)

    @property
    def matrix_free(self) -> bool:
        return self.dense is None

    @property
    def g1(self) -> np.ndarray | None:
        return None if self.dense is None else self.dense["g1"]

    @property
    def q(self) -> np.ndarray | None:
        return None if self.dense is None else self.dense["q"]

    @property
    def m_mat(self) -> np.ndarray | None:
        return None if self.dense is None else self.dense["m"]

    @property
    def h(self) -> np.ndarray | None:
        return None if self.dense is None else self.dense["h"]

    @property
    def n_mat(self) -> np.ndarray | None:
        return None if self.dense is None else self.dense["n"]

    @property
    def first_dim(self) -> int:
        return self._slices[0].stop

    @property
    def total_dim(self) -> int:
        return self.problem.total_dim

    def split(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        first, last, multiplier = self._slices
        return v[first], v[last], v[multiplier]

    def to_dict(self) -> dict:
        """What the metrics add to ``validation``."""
        return {
            "h_min_eig": self.h_min_eig,
            "n_min_eig": self.n_min_eig,
            "strict_ok": self.strict_ok,
            "strict_reason": self.strict_reason,
            "matrix_free": self.matrix_free,
        }


def assemble_metrics(problem: BlockProblem, config: SolverConfig,
                     mode: str = "matrix_free") -> MetricMatrices:
    """Build the certificate metrics; matrix-free unless ``mode="dense"``.

    The spectral conditions come from ``validate_config``. ``N`` is block
    diagonal, so ``n_min_eig`` is ``min(g1, P_m, (2 - gamma)/rho)``;
    ``h_min_eig`` stays ``None``.

    ``mode="dense"`` (total dimension up to ``DENSE_DIM_CAP``) materialises
    Q, M, H and N as a reference for small problems. It cross-checks the
    factorization ``Q = H M`` and the two independent constructions of
    ``N`` (the block-diagonal closed form against ``Q' + Q - M'H M``), takes
    ``h_min_eig`` and ``n_min_eig`` from dense eigendecompositions, and
    verifies that positive definiteness of the first-phase metric propagates
    to ``H`` and ``N`` as the theory guarantees. Violations raise
    ``MetricConsistencyError``; they would mean the assembly itself is wrong.
    """
    if mode not in ("dense", "matrix_free"):
        raise ValueError(f"unknown mode {mode!r}")
    total_dim = problem.total_dim
    if mode == "dense" and total_dim > DENSE_DIM_CAP:
        raise ValueError(
            f"total dimension {total_dim} exceeds the dense cap {DENSE_DIM_CAP}")
    validation = validate_config(problem, config)
    rho, gamma = config.rho, config.gamma
    metrics = MetricMatrices(
        problem=problem, config=config, validation=validation,
        n_min_eig=min(validation.first_phase_min_eig,
                      validation.last_metric_min_eig, (2.0 - gamma) / rho))
    if mode == "matrix_free":
        return metrics

    prox = config.proximal_metrics
    ell = problem.constraint_dim
    fp, lb, du = metrics._slices

    g1 = first_phase_dense(problem, prox, rho)
    am = problem.blocks[-1].linear_map.dense()
    gram_m = am.T @ am
    pm_dense = prox[-1].dense()
    eye_ell = np.eye(ell)

    q = np.zeros((total_dim, total_dim))
    q[fp, fp] = g1
    q[lb, lb] = rho * gram_m + pm_dense
    q[lb, du] = (1.0 - gamma) * am.T
    q[du, lb] = -am
    q[du, du] = eye_ell / rho

    m_mat = np.eye(total_dim)
    m_mat[du, lb] = -rho * am
    m_mat[du, du] = gamma * eye_ell

    h = np.zeros((total_dim, total_dim))
    h[fp, fp] = g1
    h[lb, lb] = pm_dense + (rho / gamma) * gram_m
    h[lb, du] = ((1.0 - gamma) / gamma) * am.T
    h[du, lb] = ((1.0 - gamma) / gamma) * am
    h[du, du] = eye_ell / (gamma * rho)

    n_mat = np.zeros((total_dim, total_dim))
    n_mat[fp, fp] = g1
    n_mat[lb, lb] = pm_dense
    n_mat[du, du] = ((2.0 - gamma) / rho) * eye_ell

    scale = 1.0 + max(np.abs(q).max(), np.abs(h).max(), np.abs(m_mat).max())
    factor_defect = np.abs(q - h @ m_mat).max()
    if factor_defect > 1e-12 * scale:
        raise MetricConsistencyError(
            f"Q does not factor as H M (defect {factor_defect:.3e})")
    n_from_identity = q.T + q - m_mat.T @ h @ m_mat
    n_defect = np.abs(n_from_identity - n_mat).max()
    if n_defect > 1e-10 * scale:
        raise MetricConsistencyError(
            f"the two constructions of N disagree (defect {n_defect:.3e})")

    metrics.h_min_eig = float(np.linalg.eigvalsh(h)[0])
    metrics.n_min_eig = float(np.linalg.eigvalsh(n_mat)[0])
    metrics.dense = {"g1": g1, "q": q, "m": m_mat, "h": h, "n": n_mat}
    if metrics.strict_ok and (metrics.h_min_eig <= 0 or metrics.n_min_eig <= 0):
        # Positive definiteness of the first-phase metric propagates to H
        # and N for any relaxation factor in (0, 2); a violation here would
        # be an assembly bug, not a property of the input.
        raise MetricConsistencyError(
            f"H or N lost positive definiteness (h {metrics.h_min_eig:.3e}, "
            f"n {metrics.n_min_eig:.3e}) despite a positive definite first-phase metric")
    return metrics


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
    """Quadratic form ``v' W v`` for ``W`` in {H, N, G1, P_m}.

    ``v`` is always a packed full-space vector; the first-phase and
    last-block forms act on the corresponding slice of it. An H or N
    product goes to a buffer that ``metrics`` keeps, so ``v`` must not be
    that buffer.
    """
    which = which.lower()
    if which in ("h", "n"):
        return float(v @ apply_metric(metrics, which, v, out=metrics._product))
    r, xm, _ = metrics.split(v)
    if which == "g1":
        if not r.size:
            return 0.0
        return float(r @ metrics._first_phase.apply(r))
    if which == "p_m":
        return metrics.config.proximal_metrics[-1].quad(xm)
    raise ValueError(f"unknown metric {which!r}")


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


def _finish(check: str, margins: list[float], details: dict | None = None,
            iterations: int | None = None) -> CertificateReport:
    if not margins:
        # Nothing to compare: vacuously true, distinct from a gated skip.
        return CertificateReport(check=check, iterations_checked=0,
                                 worst_margin=None, passed=True,
                                 details={"vacuous": True})
    worst = min(margins)
    out_details = dict(details or {})
    out_details["worst_index"] = int(np.argmin(margins))
    return CertificateReport(
        check=check,
        iterations_checked=len(margins) if iterations is None else iterations,
        worst_margin=float(worst),
        passed=bool(worst >= 0.0),
        details=out_details,
    )


def _require_trajectory(trajectory) -> None:
    if trajectory is None or not getattr(trajectory, "points", None):
        raise ValueError("a recorded trajectory is required for this check")


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


def fejer_check(metrics: MetricMatrices, trajectory: TrajectoryRecord,
                reference: PrimalDualPoint) -> CertificateReport:
    """Per-step contraction toward ``reference`` in the H-norm.

    Verifies, for every recorded step, that the squared H-distance to the
    reference point drops by at least the N-weighted squared distance
    between the iterate and its auxiliary companion. Provable only when the
    coupled first-phase metric is positive definite, so the check is
    skipped otherwise.
    """
    name = "fejer_contraction"
    _require_trajectory(trajectory)
    if not metrics.strict_ok:
        return _skipped(name, metrics.strict_reason)
    problem = metrics.problem
    ref = pack_point(problem, reference)
    diff = np.empty_like(ref)
    margins = []
    for k, wk, wk1 in _packed_steps(problem, trajectory):
        if k == 0:
            before = weighted_norm_sq(metrics, np.subtract(wk, ref, out=diff), "h")
        # the packed auxiliary point goes into diff, then w^k - w_bar^k replaces it
        _pack_into(trajectory.auxiliaries[k], diff)
        decrease = weighted_norm_sq(metrics, np.subtract(wk, diff, out=diff), "n")
        after = weighted_norm_sq(metrics, np.subtract(wk1, ref, out=diff), "h")
        margins.append(before - decrease - after
                       + inequality_slack(before, decrease, after))
        # this step's distance after is the next step's distance before
        before = after
    return _finish(name, margins)


def h_step_lengths(metrics: MetricMatrices, trajectory: TrajectoryRecord) -> list[float]:
    """``||w^k - w^{k+1}||_H^2`` for every recorded step ``k``."""
    diff = np.empty(metrics.total_dim)
    return [weighted_norm_sq(metrics, np.subtract(wk, wk1, out=diff), "h")
            for _, wk, wk1 in _packed_steps(metrics.problem, trajectory)]


def nonergodic_monotonicity_check(metrics: MetricMatrices,
                                  trajectory: TrajectoryRecord,
                                  steps: Sequence[float] | None = None) -> CertificateReport:
    """The H-weighted step length never increases from one step to the next.

    Needs the strict matrix conditions and a positive semidefinite
    last-block proximal metric; skipped when either fails. ``steps`` is
    ``h_step_lengths(metrics, trajectory)``, computed here when omitted.
    """
    name = "step_monotonicity"
    _require_trajectory(trajectory)
    if not metrics.strict_ok:
        return _skipped(name, metrics.strict_reason)
    if metrics.validation.last_metric_min_eig < -EIG_ZERO_TOL:
        return _skipped(name, "last-block proximal metric is not positive semidefinite")
    if steps is None:
        steps = h_step_lengths(metrics, trajectory)
    margins = [steps[k] - steps[k + 1] + inequality_slack(steps[k], steps[k + 1])
               for k in range(len(steps) - 1)]
    return _finish(name, margins)


def nonergodic_rate_check(metrics: MetricMatrices, trajectory: TrajectoryRecord,
                          reference: PrimalDualPoint,
                          steps: Sequence[float] | None = None) -> CertificateReport:
    """O(1/t) bound on the H-weighted squared step length.

    ``t * ||w^t - w^{t+1}||_H^2`` stays below a constant assembled from the
    initial H-distance to the reference (scaled by the relaxation-dependent
    rate constant) plus the first step's last-block proximal length.
    ``steps`` is ``h_step_lengths(metrics, trajectory)``, computed here when omitted.
    """
    name = "nonergodic_rate"
    _require_trajectory(trajectory)
    if not metrics.strict_ok:
        return _skipped(name, metrics.strict_reason)
    if metrics.validation.last_metric_min_eig < -EIG_ZERO_TOL:
        return _skipped(name, "last-block proximal metric is not positive semidefinite")
    if trajectory.steps < 1:
        return _finish(name, [])
    problem, config = metrics.problem, metrics.config
    sigma = sigma_gamma(config.gamma)
    start_dist = weighted_norm_sq(metrics, pack_point(problem, trajectory.points[0])
                                  - pack_point(problem, reference), "h")
    first_move = (trajectory.points[0].primal[-1] - trajectory.points[1].primal[-1])
    constant = start_dist / sigma + config.proximal_metrics[-1].quad(first_move)
    if steps is None:
        steps = h_step_lengths(metrics, trajectory)
    margins = []
    for t in range(1, len(steps)):
        lhs = t * steps[t]
        margins.append(constant - lhs + inequality_slack(constant, lhs))
    # the margin at offset j belongs to t = j + 1
    tightest = {"tightest_t": int(np.argmin(margins)) + 1} if margins else None
    return _finish(name, margins, details=tightest)


def ergodic_average(points: Sequence[PrimalDualPoint]) -> PrimalDualPoint:
    """Plain average of primal-dual points (used on auxiliary sequences).

    A running sum in sequence order, started from zero and divided by the
    count: bitwise equal to ``np.mean`` over the stacked points, in the
    memory of one point instead of all of them.
    """
    if not points:
        raise ValueError("cannot average zero points")
    primal = [np.zeros(x.shape) for x in points[0].primal]
    dual = np.zeros(points[0].dual.shape)
    for point in points:
        for total, x in zip(primal, point.primal):
            total += x
        dual += point.dual
    for total in (*primal, dual):
        total /= len(points)
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
        value = vi_operator(problem, probe)
        probe_packed = pack_point(problem, probe)
        gap = (avg_objective - evaluate_objective(problem, probe)
               + float((avg_packed - probe_packed) @ pack_vi_value(value)))
        bound = weighted_norm_sq(metrics, probe_packed - start_packed, "h") / (2.0 * (t + 1))
        margins.append(bound - gap + inequality_slack(bound, gap))
    return _finish(name, margins, details={"num_probes": len(probes)},
                   iterations=t + 1)


def cross_term_check(trajectory: TrajectoryRecord, p_m: SymmetricOperator,
                     a_m: LinearMap) -> CertificateReport:
    """Lower bound on the cross term between successive last-block moves and
    multiplier moves.

    ``(x_m^k - x_m^{k+1})' A_m' (y^k - y^{k+1})`` dominates the telescoping
    difference of last-block proximal lengths. The derivation uses the
    last-block optimality conditions of two consecutive steps and needs the
    proximal metric to be positive semidefinite.
    """
    name = "cross_term"
    _require_trajectory(trajectory)
    if p_m.min_eigenvalue() < -EIG_ZERO_TOL:
        return _skipped(name, "last-block proximal metric is not positive semidefinite")
    points = trajectory.points
    margins = []
    for k in range(1, trajectory.steps):
        if k == 1:
            loss = 0.5 * p_m.quad(points[0].primal[-1] - points[1].primal[-1])
        dx = points[k].primal[-1] - points[k + 1].primal[-1]
        dy = points[k].dual - points[k + 1].dual
        lhs = float(dx @ a_m.adjoint(dy))
        gain = 0.5 * p_m.quad(dx)
        margins.append(lhs - gain + loss + inequality_slack(lhs, gain, loss))
        # this step's last-block move is the next step's previous move
        loss = gain
    return _finish(name, margins)


def update_recurrence_check(metrics: MetricMatrices,
                            trajectory: TrajectoryRecord) -> CertificateReport:
    """Exact one-step recurrence: ``w^{k+1} = w^k - M (w^k - w_bar^k)``.

    An identity, not an inequality; margins are the slack minus the
    relative residual, so roundoff-sized residuals pass.
    """
    name = "update_recurrence"
    _require_trajectory(trajectory)
    problem = metrics.problem
    diff, product = np.empty(metrics.total_dim), np.empty(metrics.total_dim)
    margins = []
    for k, wk, wk1 in _packed_steps(problem, trajectory):
        if k == 0:
            norm_k = float(np.linalg.norm(wk))
        norm_k1 = float(np.linalg.norm(wk1))
        # the packed auxiliary point goes into diff, then w^k - w_bar^k replaces it
        _pack_into(trajectory.auxiliaries[k], diff)
        apply_metric(metrics, "m", np.subtract(wk, diff, out=diff), out=product)
        predicted = np.subtract(wk, product, out=product)
        residual = float(np.linalg.norm(np.subtract(predicted, wk1, out=predicted)))
        margins.append(SLACK_COEFF - residual / (1.0 + max(norm_k, norm_k1)))
        norm_k = norm_k1
    return _finish(name, margins)


def _step_terms(problem: BlockProblem, metrics: MetricMatrices,
                previous: PrimalDualPoint, auxiliary: PrimalDualPoint) -> tuple:
    """The parts of the one-step inequality that every probe shares:
    packed ``w_bar``, ``objective(u_bar)``, ``F(w_bar)`` and ``Q (w^k - w_bar)``."""
    wbar = pack_point(problem, auxiliary)
    value = vi_operator(problem, auxiliary)
    return (wbar, evaluate_objective(problem, auxiliary), pack_vi_value(value),
            apply_metric(metrics, "q", pack_point(problem, previous) - wbar))


def _probe_terms(step_terms: tuple, probe_objective: float,
                 probe_packed: np.ndarray) -> tuple[float, float]:
    """Both sides of the one-step inequality at one feasible probe."""
    wbar, wbar_objective, f_wbar, q_step = step_terms
    diff = probe_packed - wbar
    lhs = probe_objective - wbar_objective + float(diff @ f_wbar)
    rhs = float(diff @ q_step)
    return lhs, rhs


def step_inequality_probe(problem: BlockProblem, metrics: MetricMatrices,
                          state: IterationState,
                          probe: PrimalDualPoint) -> float:
    """Margin of the one-step mixed variational inequality at a probe point.

    Returns ``objective(u) - objective(u_bar) + (w - w_bar)' F(w_bar)
    - (w - w_bar)' Q (w^k - w_bar)`` for the step recorded in ``state``;
    the inequality says this is nonnegative for every feasible ``w``,
    with no positivity preconditions on the metrics.
    """
    if state.previous is None or state.auxiliary is None:
        raise ValueError("state does not record a completed step")
    check_probe_feasible(problem, probe)
    lhs, rhs = _probe_terms(
        _step_terms(problem, metrics, state.previous, state.auxiliary),
        evaluate_objective(problem, probe), pack_point(problem, probe))
    return lhs - rhs


def step_inequality_check(problem: BlockProblem, metrics: MetricMatrices,
                          trajectory: TrajectoryRecord,
                          probes: Sequence[PrimalDualPoint],
                          max_samples: int = 25) -> CertificateReport:
    """Evaluate the one-step mixed inequality on sampled iterations.

    At most ``max_samples`` evenly spaced steps are probed (the inequality
    is exact per step, so sampling loses nothing structurally); each margin
    gets the usual scale-aware slack.
    """
    name = "step_inequality"
    _require_trajectory(trajectory)
    if trajectory.steps < 1:
        return _finish(name, [])
    count = min(max_samples, trajectory.steps)
    sample = np.unique(np.linspace(0, trajectory.steps - 1, count).astype(int))
    for probe in probes:
        check_probe_feasible(problem, probe)
    probe_terms = [(evaluate_objective(problem, probe), pack_point(problem, probe))
                   for probe in probes]
    margins = []
    for k in sample:
        terms = _step_terms(problem, metrics, trajectory.points[k],
                            trajectory.auxiliaries[k])
        for probe_objective, probe_packed in probe_terms:
            lhs, rhs = _probe_terms(terms, probe_objective, probe_packed)
            margins.append(lhs - rhs + inequality_slack(lhs, rhs))
    details = {"sampled_iterations": [int(k) for k in sample],
               "num_probes": len(probes)}
    return _finish(name, margins, details=details)
