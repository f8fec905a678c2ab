import numpy as np
import pytest

from stc.sparse import SparseVector


def test_roundtrip_dense():
    dense = np.array([0.0, 2.0, 0.0, -1.5, 0.0])
    vec = SparseVector([1, 3], [2.0, -1.5], 5)
    assert vec.nnz == 2
    assert vec.to_dense().tobytes() == dense.tobytes()


def test_rejects_unsorted_indices():
    with pytest.raises(ValueError):
        SparseVector(np.array([3, 1]), np.array([1.0, 2.0]), 5)


def test_rejects_out_of_range():
    with pytest.raises(ValueError):
        SparseVector(np.array([0, 5]), np.array([1.0, 2.0]), 5)


class TestRows:
    def test_views_of_each_row(self):
        # Rows [3, 5], [], [1, 2]: indices drop where a row begins.
        rows = SparseVector.rows([0, 2, 2, 4], [3, 5, 1, 2], [1.0, 2.0, 3.0, 4.0], 6)
        assert [r.indices.tolist() for r in rows] == [[3, 5], [], [1, 2]]
        assert [r.values.tolist() for r in rows] == [[1.0, 2.0], [], [3.0, 4.0]]
        assert all(r.dim == 6 and r.indices.dtype == np.int64 for r in rows)
        np.testing.assert_array_equal(rows[2].to_dense(), [0.0, 3.0, 4.0, 0.0, 0.0, 0.0])

    def test_empty_block(self):
        assert SparseVector.rows([0], [], [], 3) == []
        assert [r.nnz for r in SparseVector.rows([0, 0, 0], [], [], 3)] == [0, 0]

    @pytest.mark.parametrize(
        "indptr, indices, values, dim",
        [
            ([0, 2, 4], [3, 1, 4, 5], [1.0] * 4, 6),  # unsorted within a row
            ([0, 2, 4], [1, 1, 4, 5], [1.0] * 4, 6),  # repeated within a row
            ([0, 1, 3], [1, 2, 6], [1.0] * 3, 6),  # index equal to dim
            ([0, 1, 3], [-1, 2, 3], [1.0] * 3, 6),  # index below 0
            ([0, 1, 3], [1, 2, 3], [1.0] * 2, 6),  # unequal lengths
            ([0, 2, 1, 3], [1, 2, 3], [1.0] * 3, 6),  # indptr decreases
            ([0, 1, 2], [1, 2, 3], [1.0] * 3, 6),  # indptr ends before nnz
            ([1, 2, 3], [1, 2, 3], [1.0] * 3, 6),  # indptr starts after 0
            ([], [], [], 6),  # no indptr at all
        ],
    )
    def test_rejects(self, indptr, indices, values, dim):
        with pytest.raises(ValueError):
            SparseVector.rows(indptr, indices, values, dim)
