"""State and state-action feature vectors for the linear action scorer.

The state representation concatenates three blocks: the mean of the
sentence vectors read so far (through the cursor inclusive), the vector
of the sentence under the cursor, and the current binary assignment
vector. An action is encoded positionally: the state vector is copied
into one of C + 2 disjoint blocks of a larger vector, in the block order
``mdp`` owns (``action_block``), so a single weight vector scores every
action independently.

A block's score is linear in the state, so its mean and last-sentence
parts depend only on (document, cursor). ``ScoreRows`` computes them
cursor by cursor, only up to the furthest cursor asked for; the greedy
choice (``policy.choose``) scores a state from those rows and never
builds a feature vector; each row reads its sentence vector once, and
the vocabulary size is kept on the rows object, so a step reads plain
attributes. A training example is a state's feature vector plus the
action's block index, and the fit reads that block of the weights.
``phi_states`` builds the feature vectors of a whole round's states as
the rows of one CSR block, the ``rows`` of the round's
``policy.Examples``; ``phi_state`` is its one-row case.
``phi_state_action`` builds the flat vector of the same example, the
state features moved into the action's block; it is the oracle the
block form is checked against.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .corpus import Document
from .mdp import Action, MdpState, action_block, n_action_blocks
from .sparse import SparseVector

__all__ = [
    "state_dim",
    "phi_state",
    "phi_states",
    "phi_state_action",
    "ScoreRows",
]


def state_dim(vocab_size: int, n_categories: int) -> int:
    return 2 * vocab_size + n_categories


def phi_state(state: MdpState) -> SparseVector:
    """Sparse state features [mean of read sentences | last sentence | assigned].

    Empty sentences contribute zero vectors to the mean; the divisor is
    always p.
    """
    return phi_states([state])[0]


def phi_states(states: Sequence[MdpState]) -> list[SparseVector]:
    """``phi_state`` of every state, as row views of one CSR block.

    The read-prefix entries of all states are concatenated in sentence
    order and keyed by row * V + term, so one ``np.unique`` finds every
    row's mean terms in increasing order and one ``np.bincount`` sums
    each term's weights from 0.0 in sentence order, as a state's own
    bincount would. The states may come from different documents of one
    vocabulary and category set; the block is validated once.
    """
    if not states:
        return []
    if any(s.halted for s in states):
        raise ValueError("halted states have no feature representation")
    vocab_size = states[0].doc.sentence_vectors[0].dim
    n_categories = len(states[0].assigned)
    if any(s.doc.sentence_vectors[0].dim != vocab_size or len(s.assigned) != n_categories for s in states):
        raise ValueError("states of one block must share the vocabulary and the category count")
    read = [(r, v) for r, s in enumerate(states) for v in s.doc.sentence_vectors[: s.p]]
    sizes = np.fromiter((v.indices.size for _, v in read), dtype=np.int64, count=len(read))
    rows = np.repeat(np.fromiter((r for r, _ in read), dtype=np.int64, count=len(read)), sizes)
    keys, inverse = np.unique(rows * vocab_size + np.concatenate([v.indices for _, v in read]), return_inverse=True)
    sums = np.bincount(inverse, weights=np.concatenate([v.values for _, v in read]), minlength=keys.size)
    mean_rows = keys // vocab_size
    p = np.fromiter((s.p for s in states), dtype=np.int64, count=len(states))

    last = [s.doc.sentence_vectors[s.p - 1] for s in states]
    last_rows = np.repeat(np.arange(len(states)), [v.indices.size for v in last])
    assigned = np.array([s.assigned for s in states], dtype=np.int8).reshape(len(states), n_categories)
    assigned_rows, assigned_k = np.nonzero(assigned)

    # Stable by row: each row's mean, last-sentence and assigned entries
    # stay in that order, so its indices rise.
    row_of = np.concatenate([mean_rows, last_rows, assigned_rows])
    order = np.argsort(row_of, kind="stable")
    indices = np.concatenate(
        [keys - mean_rows * vocab_size] + [v.indices + vocab_size for v in last] + [assigned_k + 2 * vocab_size]
    )
    values = np.concatenate([sums / p[mean_rows]] + [v.values for v in last] + [np.ones(assigned_k.size)])
    indptr = np.zeros(len(states) + 1, dtype=np.int64)
    np.cumsum(np.bincount(row_of, minlength=len(states)), out=indptr[1:])
    return SparseVector.rows(indptr, indices[order], values[order], state_dim(vocab_size, n_categories))


class ScoreRows:
    """Per-cursor action scores of one document without the assigned block.

    Row p - 1, column b holds the mean and last-sentence parts of block
    b's score at cursor p: (theta_mean . s_1 + ... + theta_mean . s_p) / p
    + theta_last . s_p. ``blocks`` is the (C + 2) x (2V + C) weight matrix.
    Adding ``blocks[:, 2V:] @ assigned`` gives every action's full score.

    ``row(p)`` computes the rows missing up to p, carrying the running sum
    of the mean parts one sentence at a time, so an episode that stops at
    cursor p costs p rows. Each sum, division and matvec is the one a
    whole-document ``np.cumsum`` table would do, in the same order.
    """

    __slots__ = ("doc", "blocks", "vocab_size", "rows", "filled", "running")

    def __init__(self, doc: Document, blocks: np.ndarray):
        vocab_size = doc.sentence_vectors[0].dim
        dim = state_dim(vocab_size, blocks.shape[0] - 2)
        if blocks.shape[1] != dim:
            raise ValueError(f"state features have dim {dim}, scorer expects {blocks.shape[1]}")
        self.doc = doc
        self.blocks = blocks
        self.vocab_size = vocab_size
        self.rows = np.empty((doc.n_sentences, blocks.shape[0]))
        self.filled = 0
        # -0.0 is the identity of IEEE addition (0.0 + -0.0 is 0.0), so the
        # first sum keeps the first part's bits, as cumsum's first row does.
        self.running = np.full(blocks.shape[0], -0.0)

    def row(self, p: int) -> np.ndarray:
        """The row of cursor p (1-based), computing the rows up to it."""
        blocks, vocab_size, vectors = self.blocks, self.vocab_size, self.doc.sentence_vectors
        while self.filled < p:
            v = vectors[self.filled]
            self.running += blocks[:, v.indices] @ v.values
            self.rows[self.filled] = self.running / (self.filled + 1) + blocks[:, v.indices + vocab_size] @ v.values
            self.filled += 1
        return self.rows[p - 1]


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
