import numpy as np
import pytest

from conftest import live_states, make_doc, norm, score_table, sparse
from stc.corpus import Document, MONO_LABEL, MULTI_LABEL
from stc.features import (
    phi_state,
    phi_state_action,
    phi_states,
    ScoreRows,
    state_dim,
)
from stc.mdp import NEXT, STOP, action_block, classify, initial_state, n_action_blocks, transition


def _doc_from_dense(rows, y):
    vectors = [sparse(r) for r in rows]
    return Document(
        id="toy",
        y=np.asarray(y, dtype=np.int8),
        sentence_vectors=vectors,
        global_vector=vectors[0],
    )


def test_block_mapping():
    assert action_block(classify(0), 2) == 0
    assert action_block(classify(1), 2) == 1
    assert action_block(NEXT, 2) == 2
    assert action_block(STOP, 2) == 3
    assert n_action_blocks(2) == 4


def test_hand_computed_state_features():
    # V=2, C=2; s1=(1,0), s2=(0,1); after next + classify(0):
    # mean = (0.5, 0.5), last = s2, assigned = (1, 0).
    doc = _doc_from_dense([[1.0, 0.0], [0.0, 1.0]], [1, 0])
    state = initial_state(doc)
    state = transition(state, NEXT, MULTI_LABEL)
    state = transition(state, classify(0), MULTI_LABEL)
    phi = phi_state(state)
    np.testing.assert_allclose(phi.to_dense(), [0.5, 0.5, 0.0, 1.0, 1.0, 0.0], atol=1e-12)


def test_mean_equals_last_at_first_sentence(tiny_doc):
    phi = phi_state(initial_state(tiny_doc))
    dense = phi.to_dense()
    vocab_size = tiny_doc.sentence_vectors[0].dim
    np.testing.assert_allclose(dense[:vocab_size], dense[vocab_size : 2 * vocab_size], atol=1e-12)


def test_fresh_state_assigned_block_zero(tiny_doc):
    phi = phi_state(initial_state(tiny_doc))
    vocab_size = tiny_doc.sentence_vectors[0].dim
    assert np.all(phi.to_dense()[2 * vocab_size :] == 0.0)


def test_empty_sentences_keep_divisor_p():
    doc = _doc_from_dense([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]], [1, 0])
    state = initial_state(doc)
    for _ in range(2):
        state = transition(state, NEXT, MULTI_LABEL)
    dense = phi_state(state).to_dense()
    # Mean over p=3 sentences, two of them empty.
    assert dense[0] == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_score_table_matches_dense_features_with_empty_sentences():
    # Row p - 1 plus the assigned part is every block's score at cursor p;
    # empty sentences add nothing to the mean but still count in p.
    doc = _doc_from_dense([[1.0, 0.0], [0.0, 0.0], [0.6, 0.8], [0.0, 0.0]], [1, 0])
    blocks = np.random.default_rng(4).standard_normal((4, state_dim(2, 2)))
    table = score_table(doc, blocks)
    rows = ScoreRows(doc, blocks)
    assert table.shape == (4, 4)
    state = transition(initial_state(doc), classify(1), MULTI_LABEL)
    for p in range(1, 5):
        dense = blocks @ phi_state(state).to_dense()
        np.testing.assert_allclose(table[p - 1] + blocks[:, 4:] @ state.assigned, dense, rtol=0, atol=1e-12)
        assert rows.row(p).tobytes() == table[p - 1].tobytes()
        if p < 4:
            state = transition(state, NEXT, MULTI_LABEL)


def test_state_action_block_placement():
    doc = _doc_from_dense([[1.0, 0.0], [0.0, 1.0]], [1, 0])
    state = initial_state(doc)
    phi_sa = phi_state_action(state, STOP)
    dim = state_dim(2, 2)
    assert phi_sa.dim == 4 * dim
    assert all(3 * dim <= i < 4 * dim for i in phi_sa.indices)


def test_blocks_are_disjoint_across_actions(tiny_doc):
    state = initial_state(tiny_doc)
    actions = [classify(0), classify(1), NEXT, STOP]
    for i, a in enumerate(actions):
        for b in actions[i + 1 :]:
            va, vb = phi_state_action(state, a), phi_state_action(state, b)
            assert float(va.to_dense() @ vb.to_dense()) == 0.0
            assert not set(va.indices.tolist()) & set(vb.indices.tolist())


def test_norm_preserved_for_every_action(tiny_doc):
    state = initial_state(tiny_doc)
    base = norm(phi_state(state))
    for action in [classify(0), classify(1), NEXT, STOP]:
        assert norm(phi_state_action(state, action)) == pytest.approx(base, abs=1e-12)


def test_dim_independent_of_action(tiny_doc):
    state = initial_state(tiny_doc)
    dims = {phi_state_action(state, a).dim for a in [classify(0), NEXT, STOP]}
    assert len(dims) == 1


def test_mean_block_norm_bounded():
    for seed in range(20):
        doc = make_doc(5, [1, 0, 0], vocab_size=6, seed=seed)
        state = initial_state(doc)
        for _ in range(4):
            state = transition(state, NEXT, MULTI_LABEL)
            dense = phi_state(state).to_dense()
            assert np.linalg.norm(dense[:6]) <= 1.0 + 1e-12


def test_pure_function(tiny_doc):
    state = initial_state(tiny_doc)
    a, b = phi_state(state), phi_state(state)
    np.testing.assert_array_equal(a.indices, b.indices)
    np.testing.assert_array_equal(a.values, b.values)


def test_halted_state_rejected(tiny_doc):
    state = transition(initial_state(tiny_doc), STOP, MULTI_LABEL)
    with pytest.raises(ValueError):
        phi_state(state)


# --- one CSR block per round ------------------------------------------------


def _phi_state_per_state(state):
    """A state's own bincount over its read prefix: the per-state route
    ``phi_states`` must reproduce bit for bit."""
    read = state.doc.sentence_vectors[: state.p]
    vocab_size = read[0].dim
    read_idx = np.concatenate([v.indices for v in read])
    sums = np.bincount(read_idx, weights=np.concatenate([v.values for v in read]))
    mean_idx = np.unique(read_idx)
    assigned_idx = [2 * vocab_size + k for k, v in enumerate(state.assigned) if v]
    indices = np.concatenate([mean_idx, read[-1].indices + vocab_size, np.array(assigned_idx, dtype=np.int64)])
    values = np.concatenate([sums[mean_idx] / state.p, read[-1].values, np.ones(len(assigned_idx))])
    return indices, values


def _oracle_docs():
    """Toy documents over V = 5 with C = 3: empty sentences, terms that
    recur across sentences with weights whose sum depends on its order,
    one-sentence and longer documents."""
    handmade = _doc_from_dense(
        [
            [0.1, 0.0, 0.3, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0, 0.0],
            [0.2, 0.7, 0.0, 0.0, 0.3],
            [0.7, 0.0, 0.1, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0, 0.0],
        ],
        [1, 0, 1],
    )
    single = _doc_from_dense([[0.0, 0.6, 0.0, 0.8, 0.0]], [0, 1, 0])
    empty_first = _doc_from_dense([[0.0] * 5, [0.3, 0.0, 0.0, 0.4, 0.0]], [0, 0, 1])
    random = [make_doc(n, [1, 0, 0], vocab_size=5, seed=n) for n in (2, 4, 6)]
    return [handmade, single, empty_first, *random]


def _assert_oracle_bytes(vec, state):
    indices, values = _phi_state_per_state(state)
    assert vec.dim == state_dim(5, 3)
    assert vec.indices.tobytes() == indices.tobytes()
    assert vec.values.tobytes() == values.tobytes()


@pytest.mark.parametrize("mode", [MONO_LABEL, MULTI_LABEL])
def test_phi_states_match_per_state_bincount_on_every_live_state(mode):
    for doc in _oracle_docs():
        states = live_states(doc, mode)
        assert {s.p for s in states} == set(range(1, doc.n_sentences + 1))
        for state, vec in zip(states, phi_states(states), strict=True):
            _assert_oracle_bytes(vec, state)
            _assert_oracle_bytes(phi_state(state), state)


@pytest.mark.parametrize("mode", [MONO_LABEL, MULTI_LABEL])
def test_one_block_mixes_documents_of_different_lengths(mode):
    states = [s for doc in _oracle_docs() for s in live_states(doc, mode)]
    order = np.random.default_rng(2).permutation(len(states))
    batch = [states[i] for i in order] + states[:3]  # repeats are rows of their own
    vectors = phi_states(batch)
    assert len(vectors) == len(batch)
    for state, vec in zip(batch, vectors):
        _assert_oracle_bytes(vec, state)


def test_phi_states_of_no_states():
    assert phi_states([]) == []


def test_phi_states_reject_halted_and_mismatched_states(tiny_doc):
    live = initial_state(tiny_doc)
    with pytest.raises(ValueError, match="halted"):
        phi_states([live, transition(live, STOP, MULTI_LABEL)])
    other = make_doc(2, [1, 0], vocab_size=6, seed=1)
    with pytest.raises(ValueError, match="share"):
        phi_states([live, initial_state(other)])


# --- score rows grown on demand ---------------------------------------------


def _score_docs():
    """``_oracle_docs`` plus an eight-sentence document with an empty
    first and an empty inner sentence."""
    eight = make_doc(8, [0, 1, 0], vocab_size=5, seed=8)
    empty = sparse(np.zeros(5))
    eight.sentence_vectors[0] = eight.sentence_vectors[4] = empty
    return [*_oracle_docs(), eight]


def _blocks(seed):
    return np.random.default_rng(seed).standard_normal((5, state_dim(5, 3)))


def test_score_rows_match_cumsum_table_bytes():
    for seed, doc in enumerate(_score_docs()):
        blocks = _blocks(seed)
        table = score_table(doc, blocks)
        rows = ScoreRows(doc, blocks)
        for p in range(1, doc.n_sentences + 1):
            assert rows.row(p).tobytes() == table[p - 1].tobytes()
            assert rows.filled == p
        assert rows.rows.tobytes() == table.tobytes()


def test_score_rows_out_of_order_requests_give_the_same_bytes():
    doc = _score_docs()[-1]
    blocks = _blocks(11)
    table = score_table(doc, blocks)
    rows = ScoreRows(doc, blocks)
    for p, filled in ((3, 3), (1, 3), (5, 5), (2, 5)):
        assert rows.row(p).tobytes() == table[p - 1].tobytes()
        assert rows.filled == filled


def test_score_rows_reject_a_scorer_of_another_state_dim():
    doc = _score_docs()[0]
    with pytest.raises(ValueError, match="scorer expects"):
        ScoreRows(doc, np.zeros((5, state_dim(5, 3) + 1)))
