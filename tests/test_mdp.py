import itertools

import numpy as np
import pytest

from conftest import ScriptedPolicy, make_doc
from stc.corpus import MONO_LABEL, MULTI_LABEL
from stc.mdp import (
    NEXT,
    STOP,
    available_actions,
    classify,
    initial_state,
    is_terminal,
    max_episode_steps,
    prf1,
    reward,
    run_episode,
    transition,
    walk,
)

# Hand-evaluated (y, y_hat) -> (precision, recall, f1) with exact
# fraction arithmetic; true-positive convention, 0/0 -> 0.
PRF1_FIXTURES = [
    ((1, 0, 1, 0), (1, 1, 0, 0), (0.5, 0.5, 0.5)),
    ((1, 0, 0, 0), (1, 0, 0, 0), (1.0, 1.0, 1.0)),
    ((1, 0, 1, 0), (0, 0, 0, 0), (0.0, 0.0, 0.0)),
    ((1, 1, 1, 1), (1, 1, 1, 1), (1.0, 1.0, 1.0)),
    ((0, 1), (1, 0), (0.0, 0.0, 0.0)),
    ((1, 0, 1), (1, 0, 0), (1.0, 0.5, 0.6666666666666666)),
    ((1, 1, 0, 0, 1), (1, 0, 1, 0, 1), (0.6666666666666666, 0.6666666666666666, 0.6666666666666666)),
    ((0, 0, 1), (1, 1, 1), (0.3333333333333333, 1.0, 0.5)),
    ((1,), (1,), (1.0, 1.0, 1.0)),
    ((1, 0), (1, 1), (0.5, 1.0, 0.6666666666666666)),
    ((1, 1, 1, 0, 0, 0), (0, 0, 1, 1, 1, 1), (0.25, 0.3333333333333333, 0.2857142857142857)),
    ((0, 1, 0, 1, 0, 1, 0, 1), (1, 1, 1, 1, 0, 0, 0, 0), (0.5, 0.5, 0.5)),
]


class TestActions:
    def test_string_roundtrip(self):
        for action, text in [(NEXT, "next"), (STOP, "stop"), (classify(0), "classify:0"), (classify(7), "classify:7")]:
            assert str(action) == text


class TestStates:
    def test_initial_state(self, tiny_doc):
        state = initial_state(tiny_doc)
        assert state.p == 1
        assert state.assigned == (0, 0)
        assert not state.halted

    def test_initial_state_single_sentence(self):
        doc = make_doc(1, [1, 0])
        state = initial_state(doc)
        assert NEXT not in available_actions(state, MULTI_LABEL)

    def test_cursor_bounds(self, tiny_doc):
        from stc.mdp import MdpState

        with pytest.raises(ValueError):
            MdpState(tiny_doc, 0, (0, 0))
        with pytest.raises(ValueError):
            MdpState(tiny_doc, 4, (0, 0))


class TestAvailableActions:
    def test_multilabel_fresh(self, tiny_doc):
        state = initial_state(tiny_doc)
        assert available_actions(state, MULTI_LABEL) == (classify(0), classify(1), NEXT, STOP)

    def test_monolabel_after_assignment_only_stop(self, tiny_doc):
        state = initial_state(tiny_doc)
        state = transition(state, classify(1), MONO_LABEL)
        assert available_actions(state, MONO_LABEL) == (STOP,)

    def test_multilabel_exhausted(self):
        doc = make_doc(2, [1, 0])
        state = initial_state(doc)
        for action in [classify(0), classify(1), NEXT]:
            state = transition(state, action, MULTI_LABEL)
        assert available_actions(state, MULTI_LABEL) == (STOP,)

    def test_assigned_category_not_offered_again(self, tiny_doc):
        state = transition(initial_state(tiny_doc), classify(0), MULTI_LABEL)
        assert classify(0) not in available_actions(state, MULTI_LABEL)

    def test_halted_state_raises(self, tiny_doc):
        state = transition(initial_state(tiny_doc), STOP, MULTI_LABEL)
        with pytest.raises(ValueError):
            available_actions(state, MULTI_LABEL)


class TestTransition:
    def test_classify_sets_bit(self, tiny_doc):
        state = transition(initial_state(tiny_doc), NEXT, MULTI_LABEL)
        after = transition(state, classify(1), MULTI_LABEL)
        assert after.assigned == (0, 1) and after.p == state.p

    def test_next_advances_cursor(self, tiny_doc):
        state = transition(initial_state(tiny_doc), NEXT, MULTI_LABEL)
        assert state.p == 2

    def test_stop_halts(self, tiny_doc):
        state = transition(initial_state(tiny_doc), STOP, MULTI_LABEL)
        assert state.halted

    def test_value_semantics(self, tiny_doc):
        state = initial_state(tiny_doc)
        transition(state, classify(0), MULTI_LABEL)
        assert state.assigned == (0, 0) and state.p == 1 and not state.halted

    def test_illegal_action_raises(self, tiny_doc):
        state = transition(initial_state(tiny_doc), classify(0), MULTI_LABEL)
        with pytest.raises(ValueError, match="illegal"):
            transition(state, classify(0), MULTI_LABEL)

    def test_next_illegal_on_last_sentence(self):
        doc = make_doc(1, [1, 0])
        with pytest.raises(ValueError, match="illegal"):
            transition(initial_state(doc), NEXT, MULTI_LABEL)


class TestTerminal:
    def test_halted_is_terminal(self, tiny_doc):
        state = transition(initial_state(tiny_doc), STOP, MONO_LABEL)
        assert is_terminal(state)

    def test_fresh_is_not_terminal(self, tiny_doc):
        assert not is_terminal(initial_state(tiny_doc))

    def test_terminal_iff_halted_exhaustive(self):
        # All reachable (p, assigned) combinations for C <= 3, n <= 3:
        # stop is always available on a live state, so terminal <=> halted.
        for n_cats, n_sents in itertools.product([1, 2, 3], [1, 2, 3]):
            doc = make_doc(n_sents, [1] + [0] * (n_cats - 1))
            for p in range(1, n_sents + 1):
                for bits in itertools.product([0, 1], repeat=n_cats):
                    from stc.mdp import MdpState

                    live = MdpState(doc, p, bits, False)
                    for mode in (MONO_LABEL, MULTI_LABEL):
                        if mode == MONO_LABEL and sum(bits) > 1:
                            continue
                        assert not is_terminal(live)
                        assert available_actions(live, mode)
                    halted = MdpState(doc, p, bits, True)
                    assert is_terminal(halted)


class TestPrf1:
    @pytest.mark.parametrize("y,y_hat,expected", PRF1_FIXTURES)
    def test_fixtures(self, y, y_hat, expected):
        result = prf1(y, y_hat)
        for got, want in zip(result, expected):
            assert got == pytest.approx(want, abs=1e-12)

    def test_perfect_prediction_property(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            y = (rng.random(rng.integers(1, 8)) > 0.5).astype(int)
            if y.sum() == 0:
                y[0] = 1
            assert prf1(y, y) == (1.0, 1.0, 1.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            prf1((1, 0), (1, 0, 0))
        with pytest.raises(ValueError):
            prf1(np.array([1, 0], dtype=np.int8), (1,))

    def test_matches_numpy_counts_on_every_binary_pair(self):
        # Oracle: the confusion counts taken with numpy reductions.
        def numpy_prf1(y, y_hat):
            y, y_hat = np.asarray(y), np.asarray(y_hat)
            tp = int(np.sum((y == 1) & (y_hat == 1)))
            n_pred = int(np.sum(y_hat == 1))
            n_gold = int(np.sum(y == 1))
            p = tp / n_pred if n_pred else 0.0
            r = tp / n_gold if n_gold else 0.0
            return p, r, 2.0 * p * r / (p + r) if p + r > 0.0 else 0.0

        for n in range(1, 7):
            for y in itertools.product((0, 1), repeat=n):
                for y_hat in itertools.product((0, 1), repeat=n):
                    want = [v.hex() for v in numpy_prf1(y, y_hat)]
                    for result in (prf1(y, y_hat), prf1(np.array(y, dtype=np.int8), y_hat)):
                        assert all(type(v) is float for v in result)
                        assert [v.hex() for v in result] == want


class TestReward:
    def test_mono_correct_classify_then_stop(self):
        doc = make_doc(3, [0, 1])
        state = transition(initial_state(doc), classify(1), MONO_LABEL)
        assert reward(state, STOP, doc.y, MONO_LABEL) == 1.0

    def test_mono_wrong_classify_then_stop(self):
        doc = make_doc(3, [0, 1])
        state = transition(initial_state(doc), classify(0), MONO_LABEL)
        assert reward(state, STOP, doc.y, MONO_LABEL) == 0.0

    def test_multi_partial_f1(self):
        doc = make_doc(2, [1, 0, 1])
        state = transition(initial_state(doc), classify(0), MULTI_LABEL)
        assert reward(state, STOP, doc.y, MULTI_LABEL) == pytest.approx(2 / 3, abs=1e-12)

    def test_next_pays_nothing(self, tiny_doc):
        state = initial_state(tiny_doc)
        assert reward(state, NEXT, tiny_doc.y, MULTI_LABEL) == 0.0
        assert reward(state, classify(0), tiny_doc.y, MULTI_LABEL) == 0.0


class TestRunEpisode:
    def test_always_stop(self, tiny_doc):
        log = run_episode(tiny_doc, ScriptedPolicy([STOP]), MONO_LABEL)
        assert log.sentences_read == 1
        assert log.final_assigned == (0, 0)
        assert log.reward == 0.0

    def test_read_classify_read_stop(self):
        # Four-sentence document; the agent reads one more sentence, labels
        # it, reads another, then stops: reward 1, three sentences read.
        doc = make_doc(4, [1, 0])
        policy = ScriptedPolicy([NEXT, classify(0), NEXT, STOP])
        log = run_episode(doc, policy, MULTI_LABEL)
        assert [str(a) for a in log.actions] == ["next", "classify:0", "next", "stop"]
        assert log.reward == 1.0
        assert log.sentences_read == 3

    def test_mono_at_most_one_classify(self):
        rng = np.random.default_rng(3)
        doc = make_doc(4, [0, 1, 0])

        def random_policy(state):
            actions = available_actions(state, MONO_LABEL)
            return actions[int(rng.integers(len(actions)))]

        for _ in range(200):
            log = run_episode(doc, random_policy, MONO_LABEL)
            n_classify = sum(1 for a in log.actions if a.kind == "classify")
            assert n_classify <= 1

    def test_illegal_policy_action_raises(self, tiny_doc):
        policy = ScriptedPolicy([classify(0), classify(0)])
        with pytest.raises(ValueError, match="illegal"):
            run_episode(tiny_doc, policy, MULTI_LABEL)

    def test_determinism(self):
        doc = make_doc(5, [1, 0], seed=11)
        script = [NEXT, classify(0), NEXT, NEXT, STOP]
        a = run_episode(doc, ScriptedPolicy(script), MULTI_LABEL)
        b = run_episode(doc, ScriptedPolicy(script), MULTI_LABEL)
        assert a == b

    def test_step_bound_and_reward_identity(self):
        rng = np.random.default_rng(17)
        for trial in range(300):
            n_cats = int(rng.integers(1, 4))
            n_sents = int(rng.integers(1, 5))
            y = np.zeros(n_cats, dtype=np.int8)
            y[int(rng.integers(n_cats))] = 1
            doc = make_doc(n_sents, y, seed=trial)
            mode = MONO_LABEL if rng.random() < 0.5 else MULTI_LABEL

            def random_policy(state):
                actions = available_actions(state, mode)
                return actions[int(rng.integers(len(actions)))]

            log = run_episode(doc, random_policy, mode)
            assert len(log.actions) <= max_episode_steps(doc, n_cats)
            assert log.reward == prf1(doc.y, log.final_assigned)[2]
            assert 1 <= log.sentences_read <= n_sents

    def test_walk_from_a_mid_episode_state(self):
        doc = make_doc(4, [1, 0, 1])
        start = transition(initial_state(doc), NEXT, MULTI_LABEL)
        states, actions = walk(start, ScriptedPolicy([classify(2), NEXT, STOP]), MULTI_LABEL)
        assert actions == [classify(2), NEXT, STOP]
        assert [(s.p, s.assigned, s.halted) for s in states] == [
            (2, (0, 0, 0), False),
            (2, (0, 0, 1), False),
            (3, (0, 0, 1), False),
            (3, (0, 0, 1), True),
        ]
        assert states[0] is start

    def test_log_serialization(self):
        doc = make_doc(2, [0, 1], doc_id="d42")
        log = run_episode(doc, ScriptedPolicy([classify(1), STOP]), MONO_LABEL)
        record = log.to_record()
        assert record == {
            "doc_id": "d42",
            "actions": ["classify:1", "stop"],
            "read": 1,
            "n": 2,
            "yhat": [0, 1],
            "reward": 1.0,
        }
