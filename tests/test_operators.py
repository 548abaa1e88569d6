"""Linear map and symmetric operator primitives."""

import numpy as np
import pytest

from lgadmm.calibration import block_dim, stacked_maps
from lgadmm.operators import (
    BlockSignMap,
    DenseMap,
    DenseSymmetric,
    LinearizedMetric,
    ScaledIdentity,
    gram_min_eigenvalue,
    gram_spectral_norm,
)
from reference import adjoint_mismatch, as_metric
from util import gapped_matrix


def test_dense_map_matches_matrix():
    rng = np.random.default_rng(0)
    matrix = rng.standard_normal((4, 3))
    amap = DenseMap(matrix)
    x = rng.standard_normal(3)
    u = rng.standard_normal(4)
    assert np.allclose(amap.apply(x), matrix @ x)
    assert np.allclose(amap.adjoint(u), matrix.T @ u)
    assert np.allclose(amap.dense(), matrix)
    with pytest.raises(ValueError, match="2-dimensional"):
        DenseMap(np.ones(3))


def test_block_sign_map_dense_is_kron():
    amap = BlockSignMap((1, -1, 0), block_dim=3)
    signs = np.array([[1.0], [-1.0], [0.0]])
    assert np.array_equal(amap.dense(), np.kron(signs, np.eye(3)))
    with pytest.raises(ValueError, match="non-empty"):
        BlockSignMap((), block_dim=3)
    with pytest.raises(ValueError, match="-1, 0 or \\+1"):
        BlockSignMap((1, 2), block_dim=3)


def test_block_sign_map_apply_matches_dense():
    rng = np.random.default_rng(1)
    amap = BlockSignMap((-1, 0, 1), block_dim=4)
    dense = amap.dense()
    for _ in range(10):
        x = rng.standard_normal(4)
        u = rng.standard_normal(12)
        assert np.allclose(amap.apply(x), dense @ x)
        assert np.allclose(amap.adjoint(u), dense.T @ u)


def test_adjoint_consistency_hundred_probes():
    rng = np.random.default_rng(2)
    maps = [
        DenseMap(rng.standard_normal((5, 3))),
        BlockSignMap((1, 1, 0), block_dim=4),
        BlockSignMap((0, -1, -1), block_dim=2),
    ]
    for amap in maps:
        for trial in range(100):
            mismatch = adjoint_mismatch(amap, trials=1, seed=trial)
            assert mismatch <= 1e-12


def test_gram_spectral_norm_known_matrix():
    amap = DenseMap(np.array([[3.0, 0.0], [0.0, 1.0]]))
    assert gram_spectral_norm(amap) == pytest.approx(9.0, rel=1e-7)


def test_gram_spectral_norm_stacked_map():
    amap = BlockSignMap((1, 1, 0), block_dim=5)
    assert gram_spectral_norm(amap) == pytest.approx(2.0, rel=1e-7)


def test_gram_min_eigenvalue_known_matrix():
    rng = np.random.default_rng(3)
    basis, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    eigs = np.array([2.0, 5.0, 7.0, 3.0])
    square_root = basis * np.sqrt(eigs) @ basis.T
    amap = DenseMap(square_root)
    assert gram_min_eigenvalue(amap) == pytest.approx(2.0, rel=1e-6)


def test_block_sign_map_gram_matches_dense_products():
    maps = stacked_maps(3)
    d = block_dim(3)
    for ai in maps:
        for aj in maps:
            gram = ai.gram(aj)
            assert np.array_equal(ai.dense().T @ aj.dense(), gram * np.eye(d))
    a1 = maps[0]
    dense = DenseMap(a1.dense())
    assert dense.gram(dense) is None
    assert dense.gram(a1) is None and a1.gram(dense) is None
    assert a1.gram(BlockSignMap((1, 1, 0), block_dim(2))) is None
    assert a1.gram(BlockSignMap((1, 1), d)) is None


def test_dense_gram_spectrum_is_exact_across_a_small_gap():
    # top Gram eigenvalue 1.0 with the next one 1e-4 below: the singular
    # values resolve the top exactly
    matrix, eigs = gapped_matrix()
    amap = DenseMap(matrix)
    assert gram_spectral_norm(amap) == pytest.approx(1.0, abs=1e-14)
    assert gram_min_eigenvalue(amap) == pytest.approx(eigs.min(), abs=1e-14)
    # more columns than rows: A'A is singular
    wide = DenseMap(np.random.default_rng(2).standard_normal((3, 5)))
    assert gram_min_eigenvalue(wide) == 0.0
    assert gram_spectral_norm(wide) == pytest.approx(
        float(np.linalg.eigvalsh(wide.dense().T @ wide.dense())[-1]), rel=1e-12)


def test_scaled_identity_operations():
    metric = ScaledIdentity(3, 2.5)
    v = np.array([1.0, -2.0, 0.5])
    assert np.allclose(metric.apply(v), 2.5 * v)
    assert metric.quad(v) == pytest.approx(2.5 * float(v @ v))
    assert metric.min_eigenvalue() == 2.5
    assert np.allclose(metric.dense(), 2.5 * np.eye(3))


def test_dense_symmetric_validates_symmetry():
    with pytest.raises(ValueError):
        DenseSymmetric(np.array([[1.0, 2.0], [0.0, 1.0]]))
    for matrix in (np.ones((2, 3)), np.ones(2)):
        with pytest.raises(ValueError, match="square"):
            DenseSymmetric(matrix)


def test_dense_symmetric_accepts_roundoff_asymmetry():
    rng = np.random.default_rng(4)
    base = rng.standard_normal((4, 4))
    symmetric = base + base.T
    perturbed = symmetric + 1e-14 * rng.standard_normal((4, 4))
    metric = DenseSymmetric(perturbed)
    assert np.allclose(metric.dense(), metric.dense().T)


def test_dense_symmetric_min_eigenvalue():
    metric = DenseSymmetric(np.diag([4.0, -1.0, 2.0]))
    assert metric.min_eigenvalue() == pytest.approx(-1.0)
    # no eigenvalue at all: an empty metric is taken as zero
    assert DenseSymmetric(np.zeros((0, 0))).min_eigenvalue() == 0.0


def test_linearized_metric_scalar_case():
    amap = DenseMap(np.array([[1.0]]))
    metric = LinearizedMetric(amap, rho=1.0, tau=2.0, gram_norm=1.0)
    assert np.allclose(metric.dense(), np.array([[1.0]]))
    assert metric.min_eigenvalue() == pytest.approx(1.0)
    v = np.array([3.0])
    assert metric.quad(v) == pytest.approx(9.0)


def test_linearized_metric_apply_matches_dense():
    rng = np.random.default_rng(5)
    matrix = rng.standard_normal((3, 4))
    amap = DenseMap(matrix)
    gram_norm = gram_spectral_norm(amap)
    metric = LinearizedMetric(amap, rho=0.7, tau=2.0 * gram_norm,
                              gram_norm=gram_norm)
    dense = metric.dense()
    for _ in range(5):
        v = rng.standard_normal(4)
        assert np.allclose(metric.apply(v), dense @ v, atol=1e-12)


def test_as_metric_dispatch():
    scalar = as_metric(1.5, 4)
    assert isinstance(scalar, ScaledIdentity)
    assert scalar.dim == 4
    dense = as_metric(np.eye(3) * 2.0, 3)
    assert isinstance(dense, DenseSymmetric)
    operator = ScaledIdentity(2, 1.0)
    assert as_metric(operator, 2) is operator
    with pytest.raises(ValueError):
        as_metric(np.eye(3), 4)


def _same_bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def _parity_inputs(rng, dim):
    """A random vector, and one with signed zeros in it."""
    x = rng.standard_normal(dim)
    zeros = x.copy()
    zeros[::3] = -0.0
    zeros[1::3] = 0.0
    return x, zeros


def _sign_map_adjoint_from_zero(amap, y):
    # the sum from zero of s * y_slot, written the allocating way
    out = np.zeros(amap.in_dim)
    d = amap.in_dim
    for slot, s in enumerate(amap.signs):
        if s:
            out += s * y[slot * d:(slot + 1) * d]
    return out


def test_out_products_are_bitwise_the_allocating_ones():
    # out= must not change a bit, signed zeros included; a NaN-filled out
    # shows that every entry is written
    rng = np.random.default_rng(21)
    maps = [DenseMap(rng.standard_normal((6, 4))),
            BlockSignMap((1, 1, 0), 4), BlockSignMap((-1, 0, 1), 4),
            BlockSignMap((0, -1, -1), 4)]
    for amap in maps:
        for x in _parity_inputs(rng, amap.in_dim):
            out = np.full(amap.out_dim, np.nan)
            assert amap.apply(x, out=out) is out
            assert _same_bits(out, amap.apply(x))
        for y in _parity_inputs(rng, amap.out_dim):
            out = np.full(amap.in_dim, np.nan)
            assert amap.adjoint(y, out=out) is out
            assert _same_bits(out, amap.adjoint(y))
            if isinstance(amap, BlockSignMap):
                assert _same_bits(out, _sign_map_adjoint_from_zero(amap, y))
    g = rng.standard_normal((4, 4))
    sign_map = BlockSignMap((1, -1), 4)
    operators = [ScaledIdentity(4, 2.5), DenseSymmetric(g @ g.T),
                 LinearizedMetric(sign_map, rho=1.5, tau=4.0,
                                  gram_norm=gram_spectral_norm(sign_map))]
    for op in operators:
        for x in _parity_inputs(rng, op.dim):
            out = np.full(op.dim, np.nan)
            assert op.apply(x, out=out) is out
            assert _same_bits(out, op.apply(x))
