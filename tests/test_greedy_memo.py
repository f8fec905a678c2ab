"""Greedy rounds are exact: the rollout memo and the shared state features
change no bit of the training set or of the fitted weights.

The second route here walks every sampled state's episode and every
rollout afresh, with a policy object whose memo is never filled, and
builds one flat ``phi_state_action`` vector per labelled action. The
batch's columns are expanded to the same flat vectors to be compared.
"""

import numpy as np
import pytest

from conftest import columns, make_doc
from stc.corpus import MONO_LABEL, MULTI_LABEL
from stc.features import phi_state_action, state_dim
from stc.learn import RolloutConfig, build_training_set, mean_episode_reward, rollout_return, sample_state
from stc.mdp import action_block, available_actions, classify, initial_state, n_action_blocks, prf1, transition, walk
from stc.policy import ClassifierConfig, Greedy, LinearQ, policy_callable, train_linear


def _fresh_walk_training_set(docs, q, mode, cfg):
    """(ordinal, action block, label, flat features) rows, by a fresh walk
    per sampled state and per rollout."""
    step = policy_callable(Greedy(q), mode)
    rows = []
    for ordinal in range(cfg.n_states):
        rng = np.random.default_rng([cfg.seed, ordinal])
        doc = docs[int(rng.integers(len(docs)))]
        live = walk(initial_state(doc), step, mode)[0][:-1]
        state = live[int(rng.integers(len(live)))]
        actions = available_actions(state, mode)
        returns = []
        for action in actions:
            total = 0.0
            for _ in range(cfg.rollouts_per_state):
                final = walk(transition(state, action, mode), step, mode)[0][-1]
                total += prf1(doc.y, final.assigned)[2]
            returns.append(total / cfg.rollouts_per_state)
        best = max(returns)
        if all(r == best for r in returns):
            continue
        for action, ret in zip(actions, returns):
            block = action_block(action, len(doc.y))
            rows.append((ordinal, block, 1 if ret == best else -1, phi_state_action(state, action)))
    return rows


def _expanded_rows(batch, n_categories):
    """The batch's examples with each state vector moved into its action's block."""
    rows = []
    examples = batch.examples
    for ordinal, row, block, label in zip(
        batch.ordinals.tolist(), examples.row.tolist(), examples.block.tolist(), examples.label.tolist()
    ):
        x = examples.rows[row]
        rows.append((ordinal, block, label, x.indices + block * x.dim, x.values, n_action_blocks(n_categories) * x.dim))
    return rows


def _assert_same_rows(got, want):
    assert len(got) == len(want) > 0
    for (ordinal, block, label, indices, values, dim), (w_ordinal, w_block, w_label, w_x) in zip(got, want):
        assert (ordinal, block, label, dim) == (w_ordinal, w_block, w_label, w_x.dim)
        assert indices.tobytes() == w_x.indices.tobytes()
        assert values.tobytes() == w_x.values.tobytes()


def _instances():
    """Toy mono and multi-label training sets with C = 3."""
    mono = [make_doc(3 + s % 2, np.eye(3, dtype=int)[s % 3], vocab_size=5, seed=s, doc_id=f"m{s}") for s in range(5)]
    multi_labels = [(1, 0, 1), (0, 1, 0), (1, 1, 1), (0, 0, 1)]
    multi = [make_doc(2 + s % 3, y, vocab_size=5, seed=10 + s, doc_id=f"x{s}") for s, y in enumerate(multi_labels)]
    return [(mono, MONO_LABEL), (multi, MULTI_LABEL)]


@pytest.mark.parametrize("rollouts", [1, 3])
@pytest.mark.parametrize("instance", [0, 1])
def test_greedy_training_set_equals_fresh_walks(instance, rollouts):
    docs, mode = _instances()[instance]
    n_categories = 3
    dim = state_dim(5, n_categories)
    rng = np.random.default_rng(100 + instance)
    for draw in range(4):
        q = LinearQ(rng.standard_normal(n_action_blocks(n_categories) * dim), n_categories, dim)
        cfg = RolloutConfig(n_states=60, rollouts_per_state=rollouts, seed=draw)
        policy = Greedy(q)
        batch = build_training_set(docs, policy, mode, cfg)
        want = _fresh_walk_training_set(docs, q, mode, cfg)
        _assert_same_rows(_expanded_rows(batch, n_categories), want)
        assert policy.outcomes, "greedy rollouts should fill the memo"


def test_memo_reuses_the_candidate_episodes():
    # mean_episode_reward plays each document once; sampling states from
    # the same policy then reads those episodes' live pairs instead of
    # playing again, growing no score rows.
    docs, mode = _instances()[1]
    dim = state_dim(5, 3)
    q = LinearQ(np.random.default_rng(3).standard_normal(5 * dim), 3, dim)
    policy = Greedy(q)
    reward = mean_episode_reward(docs, policy, mode)
    episodes = dict(policy.episodes)
    assert len(episodes) == len(docs)
    filled = {doc: rows.filled for doc, rows in q._tables.items()}
    step = policy_callable(Greedy(q), mode)
    walked = {doc: walk(initial_state(doc), step, mode)[0] for doc in docs}
    for doc in docs:
        assert episodes[(doc, mode)] == [(s.p, s.assigned) for s in walked[doc][:-1]]
    for i in range(20):
        state = sample_state(docs, policy, mode, np.random.default_rng([1, i]))
        assert state in walked[state.doc][:-1]
    assert all(policy.episodes[key] is pairs for key, pairs in episodes.items())
    assert {doc: rows.filled for doc, rows in q._tables.items()} == filled
    assert reward == float(np.mean([prf1(d.y, walked[d][-1].assigned)[2] for d in docs]))


def test_mono_memo_reuses_the_scanned_outcomes():
    # mean_episode_reward scans each document once; sampling states from
    # the same policy then reads the outcomes, growing no score rows.
    docs, mode = _instances()[0]
    dim = state_dim(5, 3)
    theta = np.random.default_rng(3).standard_normal(5 * dim)
    theta[3 * dim : 4 * dim] += 1.0  # a lead for next: some episodes read on, some classify at once
    policy = Greedy(LinearQ(theta, 3, dim))
    reward = mean_episode_reward(docs, policy, mode)
    filled = {doc: rows.filled for doc, rows in policy.q._tables.items()}
    assert len(filled) == len(docs) and max(filled.values()) > 1
    step = policy_callable(Greedy(LinearQ(theta, 3, dim)), mode)
    episodes = {doc: walk(initial_state(doc), step, mode)[0] for doc in docs}
    for i in range(20):
        state = sample_state(docs, policy, mode, np.random.default_rng([1, i]))
        assert state in episodes[state.doc][:-1]
    assert {doc: rows.filled for doc, rows in policy.q._tables.items()} == filled
    assert reward == float(np.mean([prf1(d.y, episodes[d][-1].assigned)[2] for d in docs]))


def _classify_everything_policy(n_categories, dim):
    # Every classify block outscores stop, and next scores below it, so
    # the greedy episode assigns every label in order, then stops.
    theta = np.zeros(n_action_blocks(n_categories) * dim)
    theta[: n_categories * dim] = 10.0
    theta[n_categories * dim : (n_categories + 1) * dim] = -10.0
    return Greedy(LinearQ(theta, n_categories, dim))


def test_n_fold_mean_of_a_memo_value_keeps_its_bits():
    # C = 6 with one true label: assigning all six gives F1 = 2/7, and
    # the mean of six rollouts of 2/7 is not 2/7 in floating point.
    doc = make_doc(2, [0, 0, 0, 0, 0, 1], vocab_size=4, seed=6)
    dim = state_dim(4, 6)
    policy = _classify_everything_policy(6, dim)
    single = prf1(doc.y, (1,) * 6)[2]
    total = 0.0
    for _ in range(6):
        total += single
    assert total / 6 != single
    state = initial_state(doc)
    for _ in range(2):  # the second call is answered from the memo
        value = rollout_return(state, classify(0), policy, doc.y, MULTI_LABEL, np.random.default_rng(0), 6)
        assert value == total / 6
    cfg = RolloutConfig(n_states=40, rollouts_per_state=6, seed=4)
    batch = build_training_set([doc], policy, MULTI_LABEL, cfg)
    want = _fresh_walk_training_set([doc], policy.q, MULTI_LABEL, cfg)
    _assert_same_rows(_expanded_rows(batch, 6), want)


def test_rollout_against_other_labels_is_walked():
    # The memo scores against the document's own labels; other labels
    # take a fresh walk.
    doc = make_doc(2, [0, 0, 0, 0, 0, 1], vocab_size=4, seed=6)
    policy = _classify_everything_policy(6, state_dim(4, 6))
    state = initial_state(doc)
    own = rollout_return(state, classify(0), policy, doc.y, MULTI_LABEL, np.random.default_rng(0))
    other = rollout_return(state, classify(0), policy, (1, 1, 1, 1, 1, 1), MULTI_LABEL, np.random.default_rng(0))
    assert own == prf1(doc.y, (1,) * 6)[2]
    assert other == 1.0


@pytest.mark.parametrize("instance", [0, 1])
def test_block_sgd_matches_flat_sgd_on_a_greedy_batch(instance):
    docs, mode = _instances()[instance]
    dim = state_dim(5, 3)
    q = LinearQ(np.random.default_rng(7 + instance).standard_normal(5 * dim), 3, dim)
    cfg = RolloutConfig(n_states=80, seed=2)
    batch = build_training_set(docs, Greedy(q), mode, cfg)
    flat = columns([(x, label) for _, _, label, x in _fresh_walk_training_set(docs, q, mode, cfg)])
    classifier = ClassifierConfig(lam=1e-2, epochs=4, seed=3)
    block_theta = train_linear(batch.examples, classifier, n_action_blocks(3))
    assert block_theta.tobytes() == train_linear(flat, classifier).tobytes()
