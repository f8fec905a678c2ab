"""State and state-action feature vectors for the linear action scorer.

The state representation concatenates three blocks: the mean of the
sentence vectors read so far (through the cursor inclusive), the vector
of the sentence under the cursor, and the current binary assignment
vector. An action is encoded positionally: the state vector is copied
into one of C + 2 disjoint blocks of a larger vector, indexed
classify(k) -> k, next -> C, stop -> C + 1, so a single weight vector
scores every action independently.

A block's score is linear in the state, so its mean and last-sentence
parts depend only on (document, cursor). ``score_table`` computes them
for every cursor of a document at once; the greedy policy scores its
steps from that table and never builds a feature vector. A training
example is ``phi_state`` of its state plus the action's block index, and
the fit reads that block of the weights. ``phi_state_action`` builds the
flat vector of the same example, the state features moved into the
action's block; it is the oracle the block form is checked against.
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
    "score_table",
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


def phi_state(state: MdpState) -> SparseVector:
    """Sparse state features [mean of read sentences | last sentence | assigned].

    Empty sentences contribute zero vectors to the mean; the divisor is
    always p.
    """
    if state.halted:
        raise ValueError("halted states have no feature representation")
    doc = state.doc
    read = doc.sentence_vectors[: state.p]
    vocab_size = read[0].dim
    n_categories = len(state.assigned)
    # bincount adds each term's weights in sentence order.
    read_idx = np.concatenate([v.indices for v in read])
    sums = np.bincount(read_idx, weights=np.concatenate([v.values for v in read]))
    mean_idx = np.unique(read_idx)
    last_vec = read[-1]
    assigned_idx = [2 * vocab_size + k for k, v in enumerate(state.assigned) if v]
    indices = np.concatenate(
        [
            mean_idx,
            last_vec.indices + vocab_size,
            np.array(assigned_idx, dtype=np.int64),
        ]
    )
    values = np.concatenate(
        [sums[mean_idx] / state.p, last_vec.values, np.ones(len(assigned_idx))]
    )
    return SparseVector(indices, values, state_dim(vocab_size, n_categories))


def score_table(doc: Document, blocks: np.ndarray) -> np.ndarray:
    """Per-cursor action scores of a document without the assigned block.

    Row p - 1, column b holds the mean and last-sentence parts of block
    b's score at cursor p: cumsum(theta_mean . s_i) / p + theta_last . s_p.
    ``blocks`` is the (C + 2) x (2V + C) weight matrix. Adding
    ``blocks[:, 2V:] @ assigned`` gives every action's full score.
    """
    vocab_size = doc.sentence_vectors[0].dim
    dim = state_dim(vocab_size, blocks.shape[0] - 2)
    if blocks.shape[1] != dim:
        raise ValueError(f"state features have dim {dim}, scorer expects {blocks.shape[1]}")
    mean_part = np.stack([blocks[:, v.indices] @ v.values for v in doc.sentence_vectors])
    last_part = np.stack([blocks[:, v.indices + vocab_size] @ v.values for v in doc.sentence_vectors])
    cursors = np.arange(1, doc.n_sentences + 1)[:, None]
    return np.cumsum(mean_part, axis=0) / cursors + last_part


def phi_state_action(state: MdpState, action: Action) -> SparseVector:
    """State features placed in the action's block of the larger vector:
    the flat form of a (``phi_state``, ``action_block``) training example."""
    phi = phi_state(state)
    n_categories = len(state.assigned)
    block = action_block(action, n_categories)
    offset = block * phi.dim
    return SparseVector(
        phi.indices + offset,
        phi.values,
        n_action_blocks(n_categories) * phi.dim,
    )
