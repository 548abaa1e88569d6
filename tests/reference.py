"""Independent reference routes the tests check the package against.

None of these is on a solver, certificate or command-line path: each is a
second, deliberately naive way to the quantity a shipped function computes
(dense certificate matrices, an iterative block oracle, random-probe
adjoint and monotonicity defects, one step's variational inequality at a
single probe).
"""

from __future__ import annotations

import numpy as np

from lgadmm.certificates import (
    MetricMatrices,
    _probe_terms,
    _step_terms,
    check_probe_feasible,
)
from lgadmm.operators import BlockSignMap, LinearMap, gram_spectral_norm
from lgadmm.problem import (
    BlockProblem,
    PrimalDualPoint,
    evaluate_objective,
    pack_point,
    vi_operator,
)
from lgadmm.solver import SolverConfig, TrajectoryRecord, first_phase_dense, validate_config


class DenseMetrics(MetricMatrices):
    """``MetricMatrices`` with Q, M, H and N materialised (``q``, ``m_mat``,
    ``h``, ``n_mat``, and the coupled first-phase metric ``g1``), and with
    ``h_min_eig`` and ``n_min_eig`` taken from dense eigendecompositions."""

    @property
    def n_min_eig(self) -> float:
        return self._n_min_eig


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
    assert not metrics.strict_ok or (metrics.h_min_eig > 0 and metrics.n_min_eig > 0), \
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


def step_inequality_probe(problem: BlockProblem, metrics: MetricMatrices,
                          trajectory: TrajectoryRecord, k: int,
                          probe: PrimalDualPoint) -> float:
    """Margin of the one-step mixed variational inequality at a probe point.

    Returns ``objective(u) - objective(u_bar) + (w - w_bar)' F(w_bar)
    - (w - w_bar)' Q (w^k - w_bar)`` for step ``k`` of ``trajectory``, from
    ``trajectory.points[k]`` and ``trajectory.auxiliary(k)`` (which raises
    ``IndexError`` for a step the trajectory does not hold); the
    inequality says this is nonnegative for every feasible ``w``, with no
    positivity preconditions on the metrics.
    """
    auxiliary = trajectory.auxiliary(k)
    check_probe_feasible(problem, probe)
    lhs, rhs = _probe_terms(
        _step_terms(problem, metrics, trajectory.points[k], auxiliary),
        evaluate_objective(problem, probe), pack_point(problem, probe))
    return lhs - rhs
