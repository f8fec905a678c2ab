import numpy as np
import pytest

from stc.sparse import SparseVector


def test_roundtrip_dense():
    dense = np.array([0.0, 2.0, 0.0, -1.5, 0.0])
    vec = SparseVector.from_dense(dense)
    assert vec.nnz == 2
    np.testing.assert_allclose(vec.to_dense(), dense)


def test_rejects_unsorted_indices():
    with pytest.raises(ValueError):
        SparseVector(np.array([3, 1]), np.array([1.0, 2.0]), 5)


def test_rejects_out_of_range():
    with pytest.raises(ValueError):
        SparseVector(np.array([0, 5]), np.array([1.0, 2.0]), 5)


def test_dot_dense_and_sparse_agree():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a = rng.random(8) * (rng.random(8) > 0.5)
        b = rng.random(8) * (rng.random(8) > 0.5)
        sa, sb = SparseVector.from_dense(a), SparseVector.from_dense(b)
        assert sa.dot(sb) == pytest.approx(float(a @ b), abs=1e-12)
        assert sa.dot_dense(b) == pytest.approx(float(a @ b), abs=1e-12)


def test_dot_dimension_mismatch():
    with pytest.raises(ValueError):
        SparseVector.empty(3).dot(SparseVector.empty(4))
