import numpy as np
import pytest

from conftest import make_doc
from stc.corpus import Document, MULTI_LABEL
from stc.features import (
    action_block,
    n_action_blocks,
    phi_state,
    phi_state_action,
    score_table,
    state_dim,
)
from stc.mdp import NEXT, STOP, classify, initial_state, transition
from stc.sparse import SparseVector


def _doc_from_dense(rows, y):
    vectors = [SparseVector.from_dense(np.asarray(r, dtype=float)) for r in rows]
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
    assert table.shape == (4, 4)
    state = transition(initial_state(doc), classify(1), MULTI_LABEL)
    for p in range(1, 5):
        dense = blocks @ phi_state(state).to_dense()
        np.testing.assert_allclose(table[p - 1] + blocks[:, 4:] @ state.assigned, dense, rtol=0, atol=1e-12)
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
            assert va.dot(vb) == 0.0
            assert not set(va.indices.tolist()) & set(vb.indices.tolist())


def test_norm_preserved_for_every_action(tiny_doc):
    state = initial_state(tiny_doc)
    base = phi_state(state).norm()
    for action in [classify(0), classify(1), NEXT, STOP]:
        assert phi_state_action(state, action).norm() == pytest.approx(base, abs=1e-12)


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
