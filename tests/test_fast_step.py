"""The allocation-free episode step and the learner's episode engine
against a reference step.

A walk picks from interned action tuples, skips the greedy choice's
assigned-label part when no label is assigned, draws nothing on a forced
random step, and builds successors without ``MdpState``'s cursor check.
These tests walk the built-in policies against a reference that lists
the legal actions afresh, takes the argmax of the fully summed scores,
draws on every random step and builds each successor through
``MdpState``, and require the same states, the same actions and the same
rng state afterwards. They also hold the interned action tuples to the
list the old ``available_actions`` built.

The learner runs its episodes over plain (p, assigned) pairs
(``learn._play``), not walks. The same reference walk is its oracle in
both task modes and under both policies: the live pairs of an episode
from the start, the final pair (outcome) of an episode from any live
pair, the state a sample draws, and every legal action's rollout return,
with the same rng state afterwards.
"""

import itertools

import numpy as np
import pytest

from conftest import ScriptedPolicy, make_doc
from stc import learn
from stc.corpus import MONO_LABEL, MULTI_LABEL
from stc.features import state_dim
from stc.learn import rollout_return, sample_state
from stc.mdp import (
    NEXT,
    STOP,
    Action,
    MdpState,
    action_block,
    available_actions,
    classify,
    initial_state,
    no_labels,
    prf1,
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


def engine_docs(seed, count, modes=(MONO_LABEL, MULTI_LABEL)):
    """Documents with C in 1..8 and 1..7 sentences, taking the modes in
    turn: a mono document has one true label, a multi-label one 1..C."""
    rng = np.random.default_rng(seed)
    for trial in range(count):
        mode = modes[trial % len(modes)]
        n_cats, n_sents = int(rng.integers(1, 9)), int(rng.integers(1, 8))
        y = np.zeros(n_cats, dtype=np.int8)
        n_true = 1 if mode == MONO_LABEL else int(rng.integers(1, n_cats + 1))
        y[rng.choice(n_cats, size=n_true, replace=False)] = 1
        yield make_doc(n_sents, y, vocab_size=VOCAB, seed=trial, doc_id=f"e{trial}"), mode, n_cats, rng


def start_pairs(doc, mode, rng):
    """(p, assigned) of live states to start episodes from, in random order:
    every cursor with nothing assigned, plus assignments with labels set,
    one in mono mode (the lock, where only stop is legal) and random ones
    in multi-label mode (all of them on the last sentence leave only stop)."""
    n_cats, n = len(doc.y), doc.n_sentences
    pairs = [(p, no_labels(n_cats)) for p in range(1, n + 1)]
    for _ in range(n):
        p = int(rng.integers(1, n + 1))
        if mode == MONO_LABEL:
            label = int(rng.integers(n_cats))
            pairs.append((p, tuple(int(k == label) for k in range(n_cats))))
        else:
            pairs.append((p, tuple(int(b) for b in rng.random(n_cats) < 0.5)))
    pairs.append((n, (1,) * n_cats))
    return [pairs[i] for i in rng.permutation(len(pairs))]


def tie_theta(n_cats, rng, ties):
    """Random weights; "classify" ties every classify block and zeroes
    next, "all" makes every block equal, so all scores tie."""
    theta = random_q(n_cats, rng, ties=ties == "classify").theta.copy()
    if ties == "all":
        blocks = theta.reshape(n_cats + 2, -1)
        blocks[1:] = blocks[0]
    return theta


def greedy(theta, n_cats):
    return Greedy(LinearQ(theta, n_cats, state_dim(VOCAB, n_cats)))


def final_pair(states):
    return states[-1].p, states[-1].assigned


def forced(doc, p, assigned, mode):
    return len(reference_actions(MdpState(doc, p, assigned), mode)) == 1


@pytest.mark.parametrize("seed", [0, 1])
def test_greedy_scan_matches_the_walk(seed):
    """Greedy episodes of the engine, both modes, against the reference walk."""
    seen = set()
    for doc, mode, n_cats, rng in engine_docs(seed, 150):
        for ties in ("none", "classify", "all"):
            theta = tie_theta(n_cats, rng, ties)
            # The first episode from the start grows the rows only as far
            # as the policy scores: a forced last step scores nothing.
            first = greedy(theta, n_cats)
            states, _ = reference_walk(initial_state(doc), greedy(theta, n_cats), mode, None)
            assert learn._episode(doc, first, mode) == [(s.p, s.assigned) for s in states[:-1]]
            scored = max(s.p for s in states[:-1] if len(reference_actions(s, mode)) > 1)
            assert first.q.score_rows(doc).filled == scored
            # Start pairs in any order, so later episodes meet the memo part-way.
            policy = greedy(theta, n_cats)
            for p, assigned in start_pairs(doc, mode, rng):
                states, actions = reference_walk(MdpState(doc, p, assigned), greedy(theta, n_cats), mode, None)
                want = final_pair(states)
                assert learn._outcome(doc, p, assigned, policy, mode) == want
                is_forced = forced(doc, p, assigned, mode)
                # A pair with one legal action is its own outcome and is never memoized.
                assert policy.outcomes.get((doc, mode, p, assigned)) == (None if is_forced else want)
                labels = sum(a.kind == "classify" for a in actions)
                seen.add((mode, "forced" if is_forced else "stop" if not labels else f"classify x{min(labels, 2)}"))
                if want[0] == doc.n_sentences > p:
                    seen.add((mode, "read to the last sentence"))
                if ties != "none" and labels:
                    seen.add((mode, f"tie {ties}"))
    kinds = {"forced", "stop", "classify x1", "read to the last sentence", "tie classify", "tie all"}
    assert seen == {(mode, kind) for mode in (MONO_LABEL, MULTI_LABEL) for kind in kinds} | {(MULTI_LABEL, "classify x2")}


@pytest.mark.parametrize("seed", [0, 1])
def test_random_scan_matches_the_walk(seed):
    """Uniform-random episodes of the engine, both modes, against the
    reference walk, with the generator in the same state after each."""
    seen = set()
    for trial, (doc, mode, n_cats, rng) in enumerate(engine_docs(seed, 150)):
        rng_play, rng_walk = np.random.default_rng([seed, trial]), np.random.default_rng([seed, trial])
        states, _ = reference_walk(initial_state(doc), UniformRandom(), mode, rng_walk)
        assert learn._episode(doc, UniformRandom(), mode, rng_play) == [(s.p, s.assigned) for s in states[:-1]]
        assert rng_play.bit_generator.state == rng_walk.bit_generator.state
        for p, assigned in start_pairs(doc, mode, rng) * 3:
            states, actions = reference_walk(MdpState(doc, p, assigned), UniformRandom(), mode, rng_walk)
            assert learn._outcome(doc, p, assigned, UniformRandom(), mode, rng_play) == final_pair(states)
            assert rng_play.bit_generator.state == rng_walk.bit_generator.state
            labels = sum(a.kind == "classify" for a in actions)
            seen.add((mode, "forced" if forced(doc, p, assigned, mode) else "stop" if not labels else "classify"))
            if states[-1].p == doc.n_sentences > p:
                seen.add((mode, "read to the last sentence"))
    kinds = {"forced", "stop", "classify", "read to the last sentence"}
    assert seen == {(mode, kind) for mode in (MONO_LABEL, MULTI_LABEL) for kind in kinds}
    with pytest.raises(ValueError, match="needs an rng"):
        learn._outcome(doc, 1, no_labels(n_cats), UniformRandom(), mode)


def policy_pairs(theta, n_cats):
    """(policy under test, reference policy) for the greedy policy of
    theta and for the uniform-random one; the two never share a memo."""
    return (greedy(theta, n_cats), greedy(theta, n_cats)), (UniformRandom(), UniformRandom())


def check_samples(mode):
    """``sample_state`` against a state drawn from a walked episode."""
    n_cats = 4
    labels = np.eye(n_cats, dtype=np.int8) if mode == MONO_LABEL else 1 - np.eye(n_cats, dtype=np.int8)
    docs = [make_doc(1 + s % 7, labels[s % n_cats], vocab_size=VOCAB, seed=s, doc_id=f"s{s}") for s in range(9)]
    theta = tie_theta(n_cats, np.random.default_rng(8), "none")
    for policy, reference in policy_pairs(theta, n_cats):
        for i in range(300):
            rng_play, rng_walk = np.random.default_rng([5, i]), np.random.default_rng([5, i])
            got = sample_state(docs, policy, mode, rng_play)
            doc = docs[int(rng_walk.integers(len(docs)))]
            live = reference_walk(initial_state(doc), reference, mode, rng_walk)[0][:-1]
            want = live[int(rng_walk.integers(len(live)))]
            assert type(got) is MdpState and _fields([got]) == _fields([want]) and hash(got) == hash(want)
            assert rng_play.bit_generator.state == rng_walk.bit_generator.state


def test_mono_sample_matches_a_walked_sample():
    check_samples(MONO_LABEL)


def test_multi_sample_matches_a_walked_sample():
    check_samples(MULTI_LABEL)


def walked_return(state, action, policy, y, mode, rng, n_rollouts):
    total = 0.0
    for _ in range(n_rollouts):
        final = reference_walk(transition(state, action, mode), policy, mode, rng)[0][-1]
        total += prf1(y, final.assigned)[2]
    return total / n_rollouts


def check_rollouts(mode, n_rollouts):
    """Every legal action's rollout return from every start pair, in action
    order and then rollout order, against walked rollouts."""
    docs = engine_docs(10 + n_rollouts, 80, modes=(mode,))
    for trial, (doc, _, n_cats, rng) in enumerate(docs):
        theta = tie_theta(n_cats, rng, ("none", "classify", "all")[trial % 3])
        pairs = start_pairs(doc, mode, rng)
        for policy, reference in policy_pairs(theta, n_cats):
            rng_play, rng_walk = np.random.default_rng([n_rollouts, trial]), np.random.default_rng([n_rollouts, trial])
            for p, assigned in pairs:
                state = MdpState(doc, p, assigned)
                got = [
                    rollout_return(state, a, policy, doc.y, mode, rng_play, n_rollouts)
                    for a in available_actions(state, mode)
                ]
                want = [
                    walked_return(state, a, reference, doc.y, mode, rng_walk, n_rollouts)
                    for a in reference_actions(state, mode)
                ]
                assert got == want
                assert rng_play.bit_generator.state == rng_walk.bit_generator.state


@pytest.mark.parametrize("n_rollouts", [1, 3])
def test_mono_rollouts_match_walked_rollouts(n_rollouts):
    check_rollouts(MONO_LABEL, n_rollouts)


@pytest.mark.parametrize("n_rollouts", [1, 3])
def test_multi_rollouts_match_walked_rollouts(n_rollouts):
    check_rollouts(MULTI_LABEL, n_rollouts)


def test_mono_rollout_of_an_illegal_action_raises():
    doc = make_doc(3, [0, 1, 0], vocab_size=VOCAB)
    q = random_q(3, np.random.default_rng(2))
    for policy in (Greedy(q), UniformRandom()):
        for state, action in (
            (MdpState(doc, 3, (0, 0, 0)), NEXT),
            (MdpState(doc, 1, (0, 0, 0)), Action("classify", 3)),
            (MdpState(doc, 2, (0, 1, 0)), classify(0)),  # the mono lock
            (MdpState(doc, 2, (0, 0, 0), True), STOP),
        ):
            with pytest.raises(ValueError, match="illegal"):
                rollout_return(state, action, policy, doc.y, MONO_LABEL, np.random.default_rng(0))


def test_multi_rollout_of_an_illegal_action_raises():
    doc = make_doc(3, [1, 1, 0], vocab_size=VOCAB)
    q = random_q(3, np.random.default_rng(2))
    for policy in (Greedy(q), UniformRandom()):
        for state, action in (
            (MdpState(doc, 3, (0, 1, 0)), NEXT),
            (MdpState(doc, 1, (0, 0, 0)), Action("classify", -1)),
            (MdpState(doc, 2, (0, 1, 0)), classify(1)),
            (MdpState(doc, 2, (1, 1, 1), True), STOP),
        ):
            with pytest.raises(ValueError, match="illegal"):
                rollout_return(state, action, policy, doc.y, MULTI_LABEL, np.random.default_rng(0))


def check_foreign_labels(mode, monkeypatch):
    """Rollouts scored against labels other than the document's own (an
    equal copy too) never read the F1s kept on the policy."""

    def no_cache(doc, assigned, policy):
        raise AssertionError("a foreign y must not read the F1s kept on the policy")

    monkeypatch.setattr(learn, "_f1", no_cache)
    doc = make_doc(4, [0, 1, 0], vocab_size=VOCAB, seed=3)
    theta = random_q(3, np.random.default_rng(4)).theta
    for y in (doc.y.copy(), np.array([1, 1, 0], dtype=np.int8)):
        for policy, reference in policy_pairs(theta, 3):
            rng_play, rng_walk = np.random.default_rng(6), np.random.default_rng(6)
            for p, assigned in start_pairs(doc, mode, np.random.default_rng(7)):
                state = MdpState(doc, p, assigned)
                for action in available_actions(state, mode):
                    got = rollout_return(state, action, policy, y, mode, rng_play, 2)
                    assert got == walked_return(state, action, reference, y, mode, rng_walk, 2)
            assert rng_play.bit_generator.state == rng_walk.bit_generator.state


def test_mono_rollout_against_foreign_labels_walks(monkeypatch):
    check_foreign_labels(MONO_LABEL, monkeypatch)


def test_multi_rollout_against_foreign_labels_walks(monkeypatch):
    check_foreign_labels(MULTI_LABEL, monkeypatch)
