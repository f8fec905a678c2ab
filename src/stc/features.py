"""State and state-action feature vectors for the linear action scorer.

The state representation concatenates three blocks: the mean of the
sentence vectors read so far (through the cursor inclusive), the vector
of the sentence under the cursor, and the current binary assignment
vector. An action is encoded positionally: the state vector is copied
into one of C + 2 disjoint blocks of a larger vector, indexed
classify(k) -> k, next -> C, stop -> C + 1, so a single weight vector
scores every action independently.
"""

from __future__ import annotations

import numpy as np

from .corpus import Document
from .mdp import Action, MdpState
from .sparse import SparseVector

__all__ = [
    "state_dim",
    "action_block",
    "n_action_blocks",
    "phi_state",
    "phi_state_action",
]


def state_dim(vocab_size: int, n_categories: int) -> int:
    return 2 * vocab_size + n_categories


def n_action_blocks(n_categories: int) -> int:
    return n_categories + 2


def action_block(action: Action, n_categories: int) -> int:
    if action.kind == "classify":
        return action.category
    if action.kind == "next":
        return n_categories
    return n_categories + 1


def _prefix_means(doc: Document) -> list[SparseVector]:
    """Mean of sentence vectors 1..p for each cursor p, cached on the doc.

    Empty sentences contribute zero vectors; the divisor is always p.
    """
    if doc._prefix_means is None:
        dim = doc.sentence_vectors[0].dim
        means = []
        acc: dict[int, float] = {}
        for p, vec in enumerate(doc.sentence_vectors, start=1):
            for i, x in zip(vec.indices.tolist(), vec.values.tolist()):
                acc[i] = acc.get(i, 0.0) + x
            items = sorted(acc.items())
            idx = np.array([i for i, _ in items], dtype=np.int64)
            val = np.array([x for _, x in items]) / p
            means.append(SparseVector(idx, val, dim))
        doc._prefix_means = means
    return doc._prefix_means


def phi_state(state: MdpState) -> SparseVector:
    """Sparse state features [mean of read sentences | last sentence | assigned]."""
    if state.halted:
        raise ValueError("halted states have no feature representation")
    doc = state.doc
    vocab_size = doc.sentence_vectors[0].dim
    n_categories = len(state.assigned)
    mean_vec = _prefix_means(doc)[state.p - 1]
    last_vec = doc.sentence_vectors[state.p - 1]
    assigned_idx = [2 * vocab_size + k for k, v in enumerate(state.assigned) if v]
    indices = np.concatenate(
        [
            mean_vec.indices,
            last_vec.indices + vocab_size,
            np.array(assigned_idx, dtype=np.int64),
        ]
    )
    values = np.concatenate(
        [mean_vec.values, last_vec.values, np.ones(len(assigned_idx))]
    )
    return SparseVector(indices, values, state_dim(vocab_size, n_categories))


def phi_state_action(state: MdpState, action: Action) -> SparseVector:
    """State features placed in the action's block of the larger vector."""
    phi = phi_state(state)
    n_categories = len(state.assigned)
    block = action_block(action, n_categories)
    offset = block * phi.dim
    return SparseVector(
        phi.indices + offset,
        phi.values,
        n_action_blocks(n_categories) * phi.dim,
    )
