"""Immutable sparse vectors with strictly increasing indices.

All feature vectors in the library (sentence tf-idf vectors, state
features, state-action features) share this representation: parallel
``indices``/``values`` arrays plus a notional dense dimension. Zero-valued
entries are never stored. A vector is validated once, when it is built:
callers compute its final indices and values first (tf-idf weighting and
L2 normalization happen in ``corpus``), so no vector is copied to be
rescaled.

Many vectors can also be built at once, as the rows of one CSR block
(``indptr``, ``indices``, ``values``): ``SparseVector.check_block`` checks
the whole block with a few array operations, and ``SparseVector.view``
wraps one of its rows without validating it again. ``SparseVector.rows``
does both for every row; a caller that reads few rows of a large block
can check it once and wrap each row when it is first read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SparseVector"]


@dataclass(frozen=True)
class SparseVector:
    indices: np.ndarray  # int64, strictly increasing
    values: np.ndarray  # float64, no stored zeros
    dim: int

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64)
        val = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "values", val)
        if idx.shape != val.shape:
            raise ValueError("indices and values must have equal length")
        if idx.size and (np.any(np.diff(idx) <= 0) or idx[0] < 0 or idx[-1] >= self.dim):
            raise ValueError("indices must be strictly increasing and within [0, dim)")

    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.dim)
        out[self.indices] = self.values
        return out

    @staticmethod
    def check_block(indptr, indices, values, dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One CSR block's arrays as int64, int64 and float64, validated once.

        Row r holds ``indices[indptr[r]:indptr[r + 1]]`` and the matching
        values. Indices must be strictly increasing within each row and lie
        in [0, dim); they may drop where one row ends and the next begins.
        """
        ptr = np.asarray(indptr, dtype=np.int64)
        idx = np.asarray(indices, dtype=np.int64)
        val = np.asarray(values, dtype=np.float64)
        if idx.ndim != 1 or idx.shape != val.shape:
            raise ValueError("indices and values must have equal length")
        if ptr.ndim != 1 or ptr.size == 0 or ptr[0] != 0 or ptr[-1] != idx.size or np.any(np.diff(ptr) < 0):
            raise ValueError("indptr must run from 0 to nnz and never decrease")
        if idx.size:
            rising = np.diff(idx) > 0
            inner = ptr[(ptr > 0) & (ptr < idx.size)]
            rising[inner - 1] = True  # a row boundary, not a step within a row
            if not rising.all() or idx.min() < 0 or idx.max() >= dim:
                raise ValueError("indices must be strictly increasing within each row and within [0, dim)")
        return ptr, idx, val

    @staticmethod
    def view(indices: np.ndarray, values: np.ndarray, dim: int) -> "SparseVector":
        """A vector over one row of a block ``check_block`` passed, built
        without validating the row again."""
        vec = object.__new__(SparseVector)
        object.__setattr__(vec, "indices", indices)
        object.__setattr__(vec, "values", values)
        object.__setattr__(vec, "dim", dim)
        return vec

    @staticmethod
    def rows(indptr, indices, values, dim: int) -> list["SparseVector"]:
        """Row views of one CSR block, validated once for the whole block."""
        ptr, idx, val = SparseVector.check_block(indptr, indices, values, dim)
        bounds = ptr.tolist()
        return [SparseVector.view(idx[a:b], val[a:b], dim) for a, b in zip(bounds, bounds[1:])]
