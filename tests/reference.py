"""Independent reference routes the tests check the package against.

None of these is on a solver, certificate or command-line path: each is a
second, deliberately naive way to the quantity a shipped function computes
(dense certificate matrices, an iterative block oracle, random-probe
adjoint and monotonicity defects, one step's variational inequality at a
single probe, the replay that packs every point itself, the step's
constraint-space algebra as allocating expressions). The small
helpers at the end (metric coercion, spherical metrics, the residual norm)
serve the tests only.
"""

from __future__ import annotations

import numpy as np

from lgadmm.certificates import (
    STEP_SAMPLES,
    MetricMatrices,
    ReplayRecord,
    apply_metric,
    check_probe_feasible,
    weighted_norm_sq,
)
from lgadmm.operators import (
    BlockSignMap,
    DenseSymmetric,
    LinearMap,
    ScaledIdentity,
    SymmetricOperator,
    gram_spectral_norm,
)
from lgadmm.problem import (
    BlockProblem,
    PrimalDualPoint,
    check_point,
    constraint_residual,
    evaluate_objective,
    pack_point,
    unpack_point,
    vi_operator,
)
from lgadmm.solver import (
    SolverConfig,
    TrajectoryRecord,
    auxiliary_point,
    validate_config,
)


class DenseMetrics(MetricMatrices):
    """``MetricMatrices`` with Q, M, H and N materialised (``q``, ``m_mat``,
    ``h``, ``n_mat``, and the coupled first-phase metric ``g1``), and with
    ``h_min_eig`` and ``n_min_eig`` taken from dense eigendecompositions."""

    @property
    def n_min_eig(self) -> float:
        return self._n_min_eig

    @property
    def first_dim(self) -> int:
        return self._slices[0].stop


def dense_first_phase(problem: BlockProblem, prox, rho: float) -> np.ndarray:
    """The coupled first-phase metric from the stacked dense map
    ``A = [A_1 ... A_{m-1}]``: ``blockdiag(P_i) - rho (A'A - blockdiag(A_i'A_i))``."""
    maps = [block.linear_map.dense() for block in problem.blocks[:-1]]
    stacked = np.hstack(maps)
    own = np.zeros((stacked.shape[1], stacked.shape[1]))
    diagonal = np.zeros_like(own)
    offset = 0
    for matrix, metric in zip(maps, prox):
        piece = slice(offset, offset + matrix.shape[1])
        own[piece, piece] = matrix.T @ matrix
        diagonal[piece, piece] = metric.dense()
        offset = piece.stop
    return diagonal - rho * (stacked.T @ stacked - own)


def assemble_dense_metrics(problem: BlockProblem, config: SolverConfig) -> DenseMetrics:
    """Materialise Q, M, H and N for a small problem and cross-check them.

    Asserts the factorization ``Q = H M``, that the block-diagonal closed
    form of ``N`` equals ``Q' + Q - M'H M``, and that positive definiteness
    of the first-phase metric propagates to ``H`` and ``N`` as the theory
    guarantees; a failure would mean the assembly itself is wrong.
    """
    metrics = DenseMetrics(problem=problem, config=config,
                           validation=validate_config(problem, config))
    rho, gamma = config.rho, config.gamma
    prox = config.proximal_metrics
    total_dim, ell = problem.total_dim, problem.constraint_dim
    fp, lb, du = metrics._slices

    g1 = dense_first_phase(problem, prox, rho)
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
    assert factor_defect <= 1e-12 * scale, \
        f"Q does not factor as H M (defect {factor_defect:.3e})"
    n_from_identity = q.T + q - m_mat.T @ h @ m_mat
    n_defect = np.abs(n_from_identity - n_mat).max()
    assert n_defect <= 1e-10 * scale, \
        f"the two constructions of N disagree (defect {n_defect:.3e})"

    metrics.g1, metrics.q, metrics.m_mat, metrics.h, metrics.n_mat = g1, q, m_mat, h, n_mat
    metrics.h_min_eig = float(np.linalg.eigvalsh(h)[0])
    metrics._n_min_eig = float(np.linalg.eigvalsh(n_mat)[0])
    # Positive definiteness of the first-phase metric propagates to H and N
    # for any relaxation factor in (0, 2).
    strict = metrics.unproven_reason("first_phase", "last_condition") is None
    assert not strict or (metrics.h_min_eig > 0 and metrics.n_min_eig > 0), \
        (f"H or N lost positive definiteness (h {metrics.h_min_eig:.3e}, "
         f"n {metrics.n_min_eig:.3e}) despite a positive definite first-phase metric")
    return metrics


def projected_gradient_oracle(c: np.ndarray, amap: BlockSignMap, projection,
                              target: np.ndarray, center: np.ndarray,
                              rho: float, sigma: float,
                              iterations: int = 80) -> np.ndarray:
    """Independent route to the calibration block subproblem.

    Plain projected gradient on the block subproblem, deliberately not
    reusing the closed form: the smoothness constant comes from
    ``gram_spectral_norm``, and the step is half its inverse so the
    iteration takes many genuinely contractive steps rather than jumping to
    the unconstrained minimiser.
    """
    n = c.shape[0]
    c_flat = c.reshape(-1)
    gram_norm = gram_spectral_norm(amap)
    lipschitz = 1.0 + rho * gram_norm + sigma
    step = 0.5 / lipschitz
    x = np.array(center, dtype=float)
    for _ in range(iterations):
        gradient = (x - c_flat
                    + rho * amap.adjoint(amap.apply(x) - target)
                    + sigma * (x - center))
        x = projection((x - step * gradient).reshape(n, n)).reshape(-1)
    return x


def adjoint_mismatch(amap: LinearMap, trials: int = 10, seed: int = 0) -> float:
    """Largest relative defect of ``<Ax, y> - <x, A'y>`` over random probes."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        x = rng.standard_normal(amap.in_dim)
        y = rng.standard_normal(amap.out_dim)
        lhs = float(amap.apply(x) @ y)
        rhs = float(x @ amap.adjoint(y))
        worst = max(worst, abs(lhs - rhs) / (1.0 + max(abs(lhs), abs(rhs))))
    return worst


def vi_monotone_gap(problem: BlockProblem, w1: PrimalDualPoint,
                    w2: PrimalDualPoint) -> float:
    """``(w1 - w2)' (F(w1) - F(w2))``; identically zero for the affine skew ``F``."""
    diff = pack_point(problem, w1) - pack_point(problem, w2)
    return float(diff @ (vi_operator(problem, w1) - vi_operator(problem, w2)))


def step_inequality_probe(metrics: MetricMatrices, trajectory: TrajectoryRecord,
                          k: int, probe: PrimalDualPoint) -> float:
    """Margin of the one-step mixed variational inequality at a probe point.

    Returns ``objective(u) - objective(u_bar) + (w - w_bar)' F(w_bar)
    - (w - w_bar)' Q (w^k - w_bar)`` for step ``k`` of ``trajectory``, from
    ``trajectory.row(k)`` and ``trajectory.auxiliary(k)`` (which raises
    ``IndexError`` for a step the trajectory does not hold), on
    ``metrics.problem``; the inequality says this is nonnegative for every
    feasible ``w``, with no positivity preconditions on the metrics.
    """
    problem = metrics.problem
    auxiliary = trajectory.auxiliary(k)
    check_probe_feasible(problem, probe)
    wbar = pack_point(problem, auxiliary)
    diff = pack_point(problem, probe) - wbar
    lhs = (evaluate_objective(problem, probe) - evaluate_objective(problem, auxiliary)
           + float(diff @ vi_operator(problem, auxiliary)))
    # Q = H M
    q_step = apply_metric(metrics, "h", apply_metric(metrics, "m", trajectory.row(k) - wbar))
    rhs = float(diff @ q_step)
    return lhs - rhs


def packing_replay(metrics: MetricMatrices, trajectory: TrajectoryRecord,
                   reference: PrimalDualPoint, probes=()) -> ReplayRecord:
    """``replay`` computed from ``trajectory.points`` instead of the rows:
    each point is packed into one of two alternating buffers and each
    auxiliary point is derived from those; the probe terms are allocating
    expressions. The products and their order are ``replay``'s, so the
    record must be bitwise equal."""
    problem, steps = metrics.problem, trajectory.steps
    ref = pack_point(problem, reference)
    current, following, diff, product, wbar = (np.empty_like(ref) for _ in range(5))
    auxiliary_sum = np.zeros_like(ref)
    current_point, following_point = (unpack_point(problem, v) for v in (current, following))
    move, back = np.empty(problem.blocks[-1].dim), np.empty(problem.blocks[-1].dim)
    dual_move = np.empty(problem.constraint_dim)
    derived = (np.empty(problem.constraint_dim), np.empty(problem.constraint_dim))
    a_m, p_m = problem.blocks[-1].linear_map, metrics.config.proximal_metrics[-1]
    ref_dist, norms = np.empty(steps + 1), np.empty(steps + 1)
    gap, residual, h_step, cross, last_move = (np.empty(steps) for _ in range(5))

    pack_point(problem, trajectory.points[0], out=current)
    probe_terms = []
    for probe in probes:
        check_probe_feasible(problem, probe)
        packed = pack_point(problem, probe)
        probe_terms.append((evaluate_objective(problem, probe), packed,
                            weighted_norm_sq(metrics, packed - current, "h")))
    sampled = tuple(np.unique(np.linspace(
        0, steps - 1, min(STEP_SAMPLES, steps)).astype(int)).tolist())
    step_terms = np.empty((2, len(sampled), len(probes)))
    ref_dist[0] = weighted_norm_sq(metrics, np.subtract(current, ref, out=diff), "h")
    norms[0] = np.linalg.norm(current)
    for k in range(steps):
        pack_point(problem, trajectory.points[k + 1], out=following)
        ref_dist[k + 1] = weighted_norm_sq(
            metrics, np.subtract(following, ref, out=diff), "h")
        norms[k + 1] = np.linalg.norm(following)
        auxiliary = auxiliary_point(problem, trajectory.config, current_point,
                                    following_point.primal, out=derived)
        pack_point(problem, auxiliary, out=wbar)
        auxiliary_sum += wbar
        gap[k] = weighted_norm_sq(metrics, np.subtract(current, wbar, out=diff), "n")
        apply_metric(metrics, "m", diff, out=product)
        # Q = H M: the Q-product is taken of the M-product before the residual
        q_step = apply_metric(metrics, "h", product) if k in sampled else None
        np.subtract(current, product, out=product)
        residual[k] = np.linalg.norm(np.subtract(product, following, out=product))
        if k in sampled:
            objective = evaluate_objective(problem, auxiliary)
            value = vi_operator(problem, auxiliary)
            for j, (probe_objective, probe_packed, _) in enumerate(probe_terms):
                to_probe = probe_packed - wbar
                step_terms[:, sampled.index(k), j] = (
                    probe_objective - objective + float(to_probe @ value),
                    float(to_probe @ q_step))
        h_step[k] = weighted_norm_sq(
            metrics, np.subtract(current, following, out=diff), "h")
        np.subtract(current_point.dual, following_point.dual, out=dual_move)
        np.subtract(current_point.primal[-1], following_point.primal[-1], out=move)
        cross[k] = move @ a_m.adjoint(dual_move, out=back)
        last_move[k] = p_m.quad(move)
        current, following = following, current
        current_point, following_point = following_point, current_point
    return ReplayRecord(metrics, ref_dist, norms, gap, residual, h_step, cross, last_move,
                        auxiliary_sum, tuple(probe_terms), sampled, step_terms)


# The step's constraint-space algebra written as plain allocating
# expressions, one temporary per operation: the solver combines the same
# operations in the same order in place, and must match these byte for byte.

def first_phase_targets(problem: BlockProblem, config: SolverConfig,
                        point: PrimalDualPoint) -> list[np.ndarray]:
    """The target each first-phase oracle is called with."""
    images = [block.linear_map.apply(x) for block, x in zip(problem.blocks, point.primal)]
    total = np.sum(images, axis=0)
    base = problem.rhs + point.dual / config.rho
    return [base - (total - images[j]) for j in range(problem.num_blocks - 1)]


def _first_phase_image_sum(problem: BlockProblem, first_phase) -> np.ndarray:
    total = np.zeros(problem.constraint_dim)
    for block, x in zip(problem.blocks[:-1], first_phase):
        total += block.linear_map.apply(x)
    return total


def last_block_target(problem: BlockProblem, config: SolverConfig,
                      point: PrimalDualPoint, first_phase) -> np.ndarray:
    """The relaxed target the last-block oracle is called with."""
    fresh_sum = _first_phase_image_sum(problem, first_phase)
    relaxed_old = problem.rhs - problem.blocks[-1].linear_map.apply(point.primal[-1])
    return (problem.rhs + point.dual / config.rho
            - config.gamma * fresh_sum
            - (1.0 - config.gamma) * relaxed_old)


def updated_multiplier(problem: BlockProblem, config: SolverConfig,
                       point: PrimalDualPoint, fresh_primal) -> np.ndarray:
    """The multiplier after the step from ``point`` to ``fresh_primal``."""
    last = problem.blocks[-1].linear_map
    fresh_sum = _first_phase_image_sum(problem, fresh_primal)
    relaxed_old = problem.rhs - last.apply(point.primal[-1])
    drift = (config.gamma * fresh_sum
             + (1.0 - config.gamma) * relaxed_old
             + last.apply(fresh_primal[-1])
             - problem.rhs)
    return point.dual - config.rho * drift


def allocating_residual(problem: BlockProblem, point: PrimalDualPoint) -> np.ndarray:
    """``sum_i A_i x_i - b``, one new array per term."""
    residual = -problem.rhs
    for block, x in zip(problem.blocks, point.primal):
        residual = residual + block.linear_map.apply(x)
    return residual


def as_metric(value: SymmetricOperator | float | np.ndarray, dim: int) -> SymmetricOperator:
    """Coerce a scalar, array or operator into a symmetric operator of size ``dim``."""
    if isinstance(value, SymmetricOperator):
        if value.dim != dim:
            raise ValueError(f"operator has dimension {value.dim}, expected {dim}")
        return value
    if np.isscalar(value):
        return ScaledIdentity(dim, float(value))
    op = DenseSymmetric(np.asarray(value, dtype=float))
    if op.dim != dim:
        raise ValueError(f"matrix has dimension {op.dim}, expected {dim}")
    return op


def identity_metrics(problem: BlockProblem, scale: float = 1.0) -> tuple[SymmetricOperator, ...]:
    """Spherical metrics ``scale * I``, one per block."""
    return tuple(ScaledIdentity(dim, scale) for dim in problem.block_dims)


def zero_metrics(problem: BlockProblem) -> tuple[SymmetricOperator, ...]:
    return identity_metrics(problem, 0.0)


def primal_feasibility(problem: BlockProblem, point: PrimalDualPoint) -> float:
    """Euclidean norm of the coupling-constraint residual."""
    check_point(problem, point)
    return float(np.linalg.norm(constraint_residual(problem, point)))
