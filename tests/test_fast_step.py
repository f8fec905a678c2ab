"""The allocation-free episode step against a reference step.

A walk picks from interned action tuples, skips the greedy choice's
assigned-label part when no label is assigned, draws nothing on a forced
random step, and builds successors without ``MdpState``'s cursor check.
These tests walk the built-in policies against a reference that lists
the legal actions afresh, takes the argmax of the fully summed scores,
draws on every random step and builds each successor through
``MdpState``, and require the same states, the same actions and the same
rng state afterwards. They also hold the interned action tuples to the
list the old ``available_actions`` built.
"""

import itertools

import numpy as np
import pytest

from conftest import ScriptedPolicy, make_doc
from stc.corpus import MONO_LABEL, MULTI_LABEL
from stc.features import action_block, state_dim
from stc.mdp import (
    NEXT,
    STOP,
    Action,
    MdpState,
    available_actions,
    classify,
    initial_state,
    transition,
    walk,
)
from stc.policy import Greedy, LinearQ, UniformRandom, action_scores, policy_callable, select_action

VOCAB = 5


def reference_actions(state, mode):
    """The legal actions as the old ``available_actions`` listed them."""
    if mode == MONO_LABEL and any(state.assigned):
        return [STOP]
    actions = [classify(k) for k, taken in enumerate(state.assigned) if not taken]
    if state.p < state.doc.n_sentences:
        actions.append(NEXT)
    actions.append(STOP)
    return actions


def random_states(seed, count):
    """Live states of random documents with C in 1..8, mono and multi,
    including the last sentence and the mono lock."""
    rng = np.random.default_rng(seed)
    for trial in range(count):
        n_cats = int(rng.integers(1, 9))
        n_sents = int(rng.integers(1, 6))
        mode = (MONO_LABEL, MULTI_LABEL)[trial % 2]
        y = np.zeros(n_cats, dtype=np.int8)
        y[rng.choice(n_cats, size=int(rng.integers(1, n_cats + 1)) if mode == MULTI_LABEL else 1, replace=False)] = 1
        doc = make_doc(n_sents, y, vocab_size=VOCAB, seed=trial, doc_id=f"d{trial}")
        p = n_sents if trial % 3 == 0 else int(rng.integers(1, n_sents + 1))
        if mode == MONO_LABEL:
            assigned = [0] * n_cats
            if trial % 4 == 0:
                assigned[int(rng.integers(n_cats))] = 1  # the mono lock
        else:
            assigned = [int(b) for b in rng.random(n_cats) < 0.4]
        yield MdpState(doc, p, tuple(assigned)), mode, n_cats, rng


def random_q(n_cats, rng, ties=False):
    dim = state_dim(VOCAB, n_cats)
    theta = rng.standard_normal((n_cats + 2) * dim)
    if ties:
        # Equal rows for every classify block, and a zero next block: scores
        # tie exactly, including 0.0 against -0.0.
        blocks = theta.reshape(n_cats + 2, dim)
        blocks[1:n_cats] = blocks[0]
        blocks[n_cats] = 0.0
    return LinearQ(theta, n_cats, dim)


def _fields(states):
    return [(s.doc, s.p, s.assigned, s.halted) for s in states]


def reference_walk(state, policy, mode, rng):
    """The episode as the unoptimized step took it: a fresh action list,
    full score sums, a draw on every random step, checked successors."""
    states, actions = [state], []
    while not state.halted:
        legal = reference_actions(state, mode)
        if isinstance(policy, Greedy):
            scores = policy.q.block_scores(state).tolist()
            best = max(scores[action_block(a, policy.q.n_categories)] for a in legal)
            action = legal[0] if len(legal) == 1 else next(
                a for a in legal if scores[action_block(a, policy.q.n_categories)] == best
            )
        else:
            action = legal[int(rng.integers(len(legal)))]
        assigned = list(state.assigned)
        if action.kind == "classify":
            assigned[action.category] = 1
        state = MdpState(state.doc, state.p + (action.kind == "next"), tuple(assigned), action.kind == "stop")
        states.append(state)
        actions.append(action)
    return states, actions


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_builtin_walks_match_the_reference(seed):
    for state, mode, n_cats, rng in random_states(seed, 120):
        q = random_q(n_cats, rng, ties=bool(rng.random() < 0.3))
        for policy in (Greedy(q), UniformRandom()):
            rng_fast, rng_ref = np.random.default_rng([seed, 1]), np.random.default_rng([seed, 1])
            fast = walk(state, policy_callable(policy, mode, rng_fast), mode)
            ref = reference_walk(state, policy, mode, rng_ref)
            assert fast[1] == ref[1]
            assert _fields(fast[0]) == _fields(ref[0])
            assert fast[0] == ref[0]
            assert all(type(s) is MdpState and hash(s) == hash(r) for s, r in zip(fast[0], ref[0]))
            assert rng_fast.bit_generator.state == rng_ref.bit_generator.state


def test_greedy_choice_is_the_first_argmax_of_the_full_scores():
    for state, mode, n_cats, rng in random_states(5, 400):
        q = random_q(n_cats, rng, ties=bool(rng.random() < 0.5))
        scored = action_scores(q, state, mode)
        best = max(score for _, score in scored)
        want = next(action for action, score in scored if score == best)
        assert select_action(Greedy(q), state, mode) is want


def test_available_actions_are_interned_and_match_the_old_list():
    for state, mode, _, _ in random_states(7, 300):
        actions = available_actions(state, mode)
        assert type(actions) is tuple
        assert list(actions) == reference_actions(state, mode)
        assert available_actions(state, mode) is actions
        twin = MdpState(state.doc, state.p, tuple(state.assigned))
        assert available_actions(twin, mode) is actions


def test_classify_is_interned():
    for k in range(10):
        assert classify(k) is classify(k)
        assert classify(k) == Action("classify", k)
        assert Action.parse(f"classify:{k}") is classify(k)


def test_foreign_callables_are_still_checked():
    doc = make_doc(3, [1, 0, 0])
    with pytest.raises(ValueError, match="illegal"):
        walk(initial_state(doc), ScriptedPolicy([classify(0), classify(0)]), MULTI_LABEL)
    with pytest.raises(ValueError, match="illegal"):
        walk(initial_state(doc), ScriptedPolicy([classify(0), NEXT]), MONO_LABEL)
    last = MdpState(doc, 3, (0, 0, 0))
    with pytest.raises(ValueError, match="illegal"):
        walk(last, ScriptedPolicy([NEXT]), MULTI_LABEL)
    with pytest.raises(ValueError, match="illegal"):
        walk(initial_state(doc), ScriptedPolicy([Action("classify", 3)]), MULTI_LABEL)
    # An equal but separately built action is legal.
    states, _ = walk(initial_state(doc), ScriptedPolicy([Action("classify", 1), Action("stop")]), MULTI_LABEL)
    assert states[-1].assigned == (0, 1, 0) and states[-1].halted


def test_a_builtin_policy_walked_under_another_mode_is_checked():
    # Classify blocks outscore next and stop, so a multi-label greedy
    # policy assigns a second label, which mono mode forbids.
    doc = make_doc(3, [1, 0, 0], vocab_size=VOCAB)
    dim = state_dim(VOCAB, 3)
    theta = np.zeros(5 * dim)
    theta[: 3 * dim] = 1.0
    step = policy_callable(Greedy(LinearQ(theta, 3, dim)), MULTI_LABEL)
    assert walk(initial_state(doc), step, MULTI_LABEL)[1][:3] == [classify(0), classify(1), classify(2)]
    with pytest.raises(ValueError, match="illegal"):
        walk(initial_state(doc), step, MONO_LABEL)


def test_steps_build_valid_states():
    doc = make_doc(4, [0, 1])
    script = ScriptedPolicy([NEXT, classify(1), NEXT, NEXT, STOP])
    states, actions = walk(initial_state(doc), script, MULTI_LABEL)
    assert actions == [NEXT, classify(1), NEXT, NEXT, STOP]
    assert [(s.p, s.assigned, s.halted) for s in states] == [
        (1, (0, 0), False),
        (2, (0, 0), False),
        (2, (0, 1), False),
        (3, (0, 1), False),
        (4, (0, 1), False),
        (4, (0, 1), True),
    ]
    for a, b in itertools.combinations(states, 2):
        assert a != b


def test_integers_of_one_draws_nothing():
    for seed in range(20):
        rng = np.random.default_rng([seed, 3])
        before = rng.bit_generator.state
        assert rng.integers(1) == 0
        assert rng.bit_generator.state == before


def test_uniform_random_forced_step_draws_nothing():
    doc = make_doc(3, [0, 1])
    locked = MdpState(doc, 2, (0, 1))
    rng = np.random.default_rng(4)
    before = rng.bit_generator.state
    assert select_action(UniformRandom(), locked, MONO_LABEL, rng) is STOP
    assert rng.bit_generator.state == before
    with pytest.raises(ValueError, match="needs an rng"):
        select_action(UniformRandom(), locked, MONO_LABEL)


def test_transition_matches_the_legal_step():
    for state, mode, _, _ in random_states(9, 200):
        for action in reference_actions(state, mode):
            successor = transition(state, action, mode)
            assigned = list(state.assigned)
            if action.kind == "classify":
                assigned[action.category] = 1
            want = MdpState(state.doc, state.p + (action.kind == "next"), tuple(assigned), action.kind == "stop")
            assert successor == want
