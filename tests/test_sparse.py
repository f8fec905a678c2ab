import numpy as np
import pytest

from stc.sparse import SparseVector, sparse_from_counts


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


def test_normalized_unit_norm():
    vec = sparse_from_counts({0: 3.0, 4: 4.0}, 6).normalized()
    assert vec.norm() == pytest.approx(1.0, abs=1e-12)
    assert vec.to_dense()[0] == pytest.approx(0.6)


def test_normalized_empty_stays_empty():
    vec = SparseVector.empty(4).normalized()
    assert vec.nnz == 0 and vec.norm() == 0.0


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


def test_sparse_from_counts_drops_zeros():
    vec = sparse_from_counts({2: 0.0, 1: 1.0}, 4)
    assert vec.indices.tolist() == [1]

