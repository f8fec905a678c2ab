"""Immutable sparse vectors with strictly increasing indices.

All feature vectors in the library (sentence tf-idf vectors, state
features, state-action features) share this representation: parallel
``indices``/``values`` arrays plus a notional dense dimension. Zero-valued
entries are never stored. A vector is validated once, when it is built:
callers compute its final indices and values first (tf-idf weighting and
L2 normalization happen in ``corpus.vectorize_corpus``), so no vector
is copied to be rescaled.

Many vectors can also be built at once, as the rows of one CSR block
(``indptr``, ``indices``, ``values``): ``SparseVector.rows`` checks the
whole block with a few array operations and returns one view per row,
without validating each row again.
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
    def rows(indptr, indices, values, dim: int) -> list["SparseVector"]:
        """Row views of one CSR block, validated once for the whole block.

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
        out = []
        for start, end in zip(ptr[:-1].tolist(), ptr[1:].tolist()):
            vec = object.__new__(SparseVector)
            object.__setattr__(vec, "indices", idx[start:end])
            object.__setattr__(vec, "values", val[start:end])
            object.__setattr__(vec, "dim", dim)
            out.append(vec)
        return out
