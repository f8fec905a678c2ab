import numpy as np
import pytest

from stc.corpus import Document
from stc.mdp import available_actions, initial_state, transition
from stc.policy import Examples
from stc.sparse import SparseVector


def sparse(dense):
    """The sparse vector of a dense array's non-zero entries."""
    dense = np.asarray(dense, dtype=np.float64)
    indices = np.nonzero(dense)[0]
    return SparseVector(indices, dense[indices], dense.shape[0])


def columns(examples):
    """``policy.Examples`` of (x, y) pairs or (x, block, y) triples, one
    row per example, in the given order."""
    triples = [(e[0], 0, e[1]) if len(e) == 2 else e for e in examples]
    return Examples(
        rows=[x for x, _, _ in triples],
        row=np.arange(len(triples)),
        block=np.array([block for _, block, _ in triples], dtype=np.int64),
        label=np.array([y for _, _, y in triples], dtype=np.int64),
    )


def norm(vec):
    """The L2 norm of a sparse vector."""
    return float(np.sqrt(vec.values @ vec.values))


def score_table(doc, blocks):
    """Every cursor's score row at once, through ``np.cumsum``: the
    whole-document table that ``features.ScoreRows`` must reproduce bit
    for bit."""
    vocab_size = doc.sentence_vectors[0].dim
    mean_part = np.stack([blocks[:, v.indices] @ v.values for v in doc.sentence_vectors])
    last_part = np.stack([blocks[:, v.indices + vocab_size] @ v.values for v in doc.sentence_vectors])
    cursors = np.arange(1, doc.n_sentences + 1)[:, None]
    return np.cumsum(mean_part, axis=0) / cursors + last_part


def live_states(doc, mode):
    """Every live state reachable from the initial one, in visiting order."""
    seen, frontier = [], [initial_state(doc)]
    while frontier:
        state = frontier.pop(0)
        if state in seen:
            continue
        seen.append(state)
        for action in available_actions(state, mode):
            successor = transition(state, action, mode)
            if not successor.halted:
                frontier.append(successor)
    return seen


def make_doc(n_sentences, y, vocab_size=4, seed=0, doc_id="doc"):
    """Tiny vectorized document with random unit sentence vectors."""
    rng = np.random.default_rng(seed)
    vectors = []
    for _ in range(n_sentences):
        dense = rng.random(vocab_size) * (rng.random(vocab_size) > 0.3)
        if dense.sum() == 0.0:
            dense[int(rng.integers(vocab_size))] = 1.0
        dense /= np.linalg.norm(dense)
        vectors.append(sparse(dense))
    global_dense = rng.random(vocab_size)
    global_dense /= np.linalg.norm(global_dense)
    return Document(
        id=doc_id,
        y=np.asarray(y, dtype=np.int8),
        sentence_vectors=vectors,
        global_vector=sparse(global_dense),
    )


class ScriptedPolicy:
    """Replays a fixed action sequence."""

    def __init__(self, actions):
        self._actions = list(actions)
        self._cursor = 0

    def __call__(self, state):
        action = self._actions[self._cursor]
        self._cursor += 1
        return action


@pytest.fixture
def tiny_doc():
    return make_doc(3, [1, 0])
