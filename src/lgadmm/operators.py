"""Linear maps with adjoints, and symmetric operators for quadratic forms.

The solver only ever needs forward and adjoint products, so structured maps
(stacked signed identities, for instance) never materialise a matrix. Dense
realisations exist for small-dimension certification work.
"""

from __future__ import annotations

import abc
import math

import numpy as np

__all__ = [
    "LinearMap",
    "DenseMap",
    "BlockSignMap",
    "SymmetricOperator",
    "ScaledIdentity",
    "DenseSymmetric",
    "LinearizedMetric",
    "gram_spectral_norm",
    "gram_min_eigenvalue",
    "min_eigenvalue_bound",
]

class LinearMap(abc.ABC):
    """Linear operator ``x -> A x`` with an explicit adjoint."""

    in_dim: int
    out_dim: int

    @abc.abstractmethod
    def apply(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Return ``A x``, written into ``out`` when given (which must not
        overlap ``x``)."""

    @abc.abstractmethod
    def adjoint(self, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Return ``A' y``, written into ``out`` when given (which must not
        overlap ``y``)."""

    def dense(self) -> np.ndarray:
        """Materialise the matrix column by column. Small dimensions only."""
        eye = np.eye(self.in_dim)
        return np.column_stack([self.apply(eye[:, j]) for j in range(self.in_dim)])

    def gram(self, other: LinearMap) -> float | None:
        """The scalar ``c`` with ``A'B = c I`` (``B`` being ``other``) when the
        structure of both maps proves it, else ``None``."""
        return None


class DenseMap(LinearMap):
    """Linear map backed by an explicit 2-d array."""

    def __init__(self, matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2:
            raise ValueError("matrix must be 2-dimensional")
        self._matrix = matrix
        self.out_dim, self.in_dim = matrix.shape

    def apply(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        return np.matmul(self._matrix, x, out=out)

    def adjoint(self, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        return np.matmul(self._matrix.T, y, out=out)

    def dense(self) -> np.ndarray:
        return self._matrix.copy()


class BlockSignMap(LinearMap):
    """Vertical stack of signed identities acting on a block of size ``block_dim``.

    ``signs = (1, -1, 0)`` represents the map ``x -> (x, -x, 0)``. Forward and
    adjoint products are O(len(signs) * block_dim); nothing is materialised.
    """

    def __init__(self, signs: tuple[int, ...], block_dim: int):
        if not signs:
            raise ValueError("signs must be non-empty")
        if any(s not in (-1, 0, 1) for s in signs):
            raise ValueError("signs must be -1, 0 or +1")
        self.signs = tuple(int(s) for s in signs)
        self.in_dim = int(block_dim)
        self.out_dim = len(self.signs) * self.in_dim

    def apply(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if out is None:
            out = np.empty(self.out_dim)
        d = self.in_dim
        for slot, s in enumerate(self.signs):
            if s:
                np.multiply(s, x, out=out[slot * d : (slot + 1) * d])
            else:
                out[slot * d : (slot + 1) * d] = 0.0
        return out

    def adjoint(self, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if out is None:
            out = np.empty(self.in_dim)
        out[:] = 0.0
        d = self.in_dim
        for slot, s in enumerate(self.signs):
            # the sum from zero of s * y_slot: IEEE subtraction is addition of
            # the exact negation, so subtracting for s = -1 is bitwise the same
            if s == 1:
                np.add(out, y[slot * d : (slot + 1) * d], out=out)
            elif s == -1:
                np.subtract(out, y[slot * d : (slot + 1) * d], out=out)
        return out

    def dense(self) -> np.ndarray:
        col = np.array(self.signs, dtype=float).reshape(-1, 1)
        return np.kron(col, np.eye(self.in_dim))

    def gram(self, other: LinearMap) -> float | None:
        # slot k contributes s_k t_k I to A'B
        if (not isinstance(other, BlockSignMap) or other.in_dim != self.in_dim
                or len(other.signs) != len(self.signs)):
            return None
        return float(sum(s * t for s, t in zip(self.signs, other.signs)))


def _gram_extremes(amap: LinearMap) -> tuple[float, float]:
    """A lower bound on the smallest and an upper bound on the largest
    eigenvalue of ``A'A``. Both are exact for a structural Gram and for a
    dense matrix (its singular values; ``A'A`` is singular when ``A`` has more
    columns than rows); for any other map they are the trivial ``(0, inf)``."""
    gram = amap.gram(amap)
    if gram is not None:
        return gram, gram
    if not isinstance(amap, DenseMap):
        return 0.0, math.inf
    squares = np.linalg.svd(amap._matrix, compute_uv=False) ** 2
    smallest = squares[-1] if squares.size and amap.in_dim <= amap.out_dim else 0.0
    return float(smallest), float(squares.max(initial=0.0))


def gram_spectral_norm(amap: LinearMap) -> float:
    """Spectral norm of ``A'A`` (the squared operator norm of ``A``): exact
    for structural and dense maps, the upper bound ``inf`` otherwise."""
    return _gram_extremes(amap)[1]


def gram_min_eigenvalue(amap: LinearMap) -> float:
    """Smallest eigenvalue of ``A'A``: exact for structural and dense maps,
    the lower bound ``0`` otherwise."""
    return _gram_extremes(amap)[0]


def min_eigenvalue_bound(matrix: np.ndarray) -> float:
    """A lower bound on the smallest eigenvalue of a symmetric matrix.

    LAPACK's symmetric eigensolver is backward stable: each computed
    eigenvalue is within ``p(n) eps ||M||_2`` of a true one, ``p`` a modest
    polynomial, and may land above it. Subtracting ``8 n^2 eps ||M||_inf``
    (at least that, since ``||M||_2 <= ||M||_inf``) makes the value a bound.
    """
    n = matrix.shape[0]
    margin = 8 * n * n * np.finfo(float).eps * np.abs(matrix).sum(axis=1).max()
    return float(np.linalg.eigvalsh(matrix)[0] - margin)


class SymmetricOperator(abc.ABC):
    """Symmetric operator used as a quadratic-form weight."""

    dim: int

    @abc.abstractmethod
    def apply(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Return ``P x``, written into ``out`` when given (which must not
        overlap ``x``)."""

    def quad(self, x: np.ndarray) -> float:
        """Return ``x' P x``."""
        return float(x @ self.apply(x))

    @abc.abstractmethod
    def dense(self) -> np.ndarray:
        """Materialise the matrix. Small dimensions only."""

    @abc.abstractmethod
    def min_eigenvalue(self) -> float:
        """Smallest eigenvalue, exact or a lower bound."""


class ScaledIdentity(SymmetricOperator):
    """``P = scale * I``. The zero metric is ``scale = 0``."""

    def __init__(self, dim: int, scale: float):
        self.dim = int(dim)
        self.scale = float(scale)

    def apply(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        return np.multiply(self.scale, x, out=out)

    def quad(self, x: np.ndarray) -> float:
        return self.scale * float(x @ x)

    def dense(self) -> np.ndarray:
        return self.scale * np.eye(self.dim)

    def min_eigenvalue(self) -> float:
        return self.scale


class DenseSymmetric(SymmetricOperator):
    """Symmetric operator backed by an explicit array, validated on input."""

    def __init__(self, matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("matrix must be square")
        scale = 1.0 + float(np.abs(matrix).max(initial=0.0))
        if np.abs(matrix - matrix.T).max(initial=0.0) > 1e-10 * scale:
            raise ValueError("matrix is not symmetric")
        self._matrix = 0.5 * (matrix + matrix.T)
        self.dim = matrix.shape[0]

    def apply(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        return np.matmul(self._matrix, x, out=out)

    def dense(self) -> np.ndarray:
        return self._matrix.copy()

    def min_eigenvalue(self) -> float:
        if self.dim == 0:
            return 0.0
        return min_eigenvalue_bound(self._matrix)


class LinearizedMetric(SymmetricOperator):
    """``P = tau * I - rho * A'A``, the metric that linearizes a coupling term.

    ``gram_norm`` is the spectral norm of ``A'A`` or an upper bound on it; the
    smallest eigenvalue is then at least ``tau - rho * gram_norm``, known
    without assembly (exactly so when ``gram_norm`` is exact).
    """

    def __init__(self, amap: LinearMap, rho: float, tau: float, gram_norm: float):
        self.amap = amap
        self.rho = float(rho)
        self.tau = float(tau)
        self.gram_norm = float(gram_norm)
        self.dim = amap.in_dim

    def apply(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        return np.subtract(self.tau * x,
                           self.rho * self.amap.adjoint(self.amap.apply(x)), out=out)

    def dense(self) -> np.ndarray:
        d = self.amap.dense()
        return self.tau * np.eye(self.dim) - self.rho * (d.T @ d)

    def min_eigenvalue(self) -> float:
        return self.tau - self.rho * self.gram_norm
