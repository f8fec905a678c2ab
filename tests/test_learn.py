import itertools
import weakref
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from conftest import make_doc
from stc import corpus as corpus_mod
from stc import learn, synthetic
from stc.corpus import MONO_LABEL, MULTI_LABEL, CategorySet
from stc.features import phi_state, state_dim
from stc.learn import (
    RolloutConfig,
    build_training_set,
    mean_episode_reward,
    policy_iteration,
    rollout_return,
    sample_state,
)
from stc.mdp import (
    MdpState,
    NEXT,
    STOP,
    action_block,
    available_actions,
    classify,
    initial_state,
    prf1,
    transition,
)
from stc.policy import ClassifierConfig, Greedy, LinearQ, UniformRandom, select_action


# --- independent episode oracle over plain tuples -------------------------
#
# Re-derives the transition rules, terminal condition, and final F1 from
# scratch so rollout_return is checked against a second route.

def _oracle_actions(p, n, assigned, mode):
    if mode == MONO_LABEL and sum(assigned) > 0:
        return ["stop"]
    acts = [("classify", k) for k in range(len(assigned)) if assigned[k] == 0]
    if p < n:
        acts.append("next")
    acts.append("stop")
    return acts


def _oracle_f1(y, assigned):
    tp = sum(1 for a, b in zip(y, assigned) if a == 1 and b == 1)
    sp, sg = sum(assigned), sum(y)
    p = Fraction(tp, sp) if sp else Fraction(0)
    r = Fraction(tp, sg) if sg else Fraction(0)
    return float(2 * p * r / (p + r)) if p + r else 0.0


def _oracle_apply(p, assigned, act):
    if act == "stop":
        return p, assigned, True
    if act == "next":
        return p + 1, assigned, False
    bits = list(assigned)
    bits[act[1]] = 1
    return p, tuple(bits), False


def _oracle_return(doc, p, assigned, first_action, greedy_policy, mode):
    """Walk the unique continuation path of a deterministic policy."""
    act = (
        "stop"
        if first_action.kind == "stop"
        else "next" if first_action.kind == "next" else ("classify", first_action.category)
    )
    n = doc.n_sentences
    p, assigned, halted = _oracle_apply(p, assigned, act)
    for _ in range(n + len(assigned) + 2):
        if halted:
            return _oracle_f1(doc.y.tolist(), assigned)
        chosen = select_action(greedy_policy, MdpState(doc, p, assigned, False), mode)
        act = (
            "stop"
            if chosen.kind == "stop"
            else "next" if chosen.kind == "next" else ("classify", chosen.category)
        )
        assert act in _oracle_actions(p, n, assigned, mode)
        p, assigned, halted = _oracle_apply(p, assigned, act)
    raise AssertionError("oracle walk did not terminate")


def _all_live_states(doc, mode):
    n_cats = len(doc.y)
    for p in range(1, doc.n_sentences + 1):
        for bits in itertools.product([0, 1], repeat=n_cats):
            if mode == MONO_LABEL and sum(bits) > 1:
                continue
            yield MdpState(doc, p, bits, False)


class TestGreedyScoreTable:
    def test_table_scores_match_dense_features_on_all_toy_instances(self):
        # Every live state of every toy instance, random weights: the
        # table-read block scores against the dense feature vector, and the
        # chosen action against the first dense argmax over legal actions.
        rng = np.random.default_rng(23)
        checked = 0
        for n_sents in (1, 2, 3):
            for y, mode in [
                ((1, 0), MONO_LABEL),
                ((0, 1), MONO_LABEL),
                ((1, 0), MULTI_LABEL),
                ((1, 1), MULTI_LABEL),
            ]:
                doc = make_doc(n_sents, y, vocab_size=3, seed=n_sents)
                dim = state_dim(3, 2)
                for _ in range(3):
                    policy = Greedy(LinearQ(rng.standard_normal(4 * dim), 2, dim))
                    for state in _all_live_states(doc, mode):
                        dense = policy.q.blocks() @ phi_state(state).to_dense()
                        np.testing.assert_allclose(policy.q.block_scores(state), dense, rtol=0, atol=1e-12)
                        legal = available_actions(state, mode)
                        best = int(np.argmax([dense[action_block(a, 2)] for a in legal]))
                        assert select_action(policy, state, mode) == legal[best]
                        checked += 1
        assert checked > 200


class TestSampleState:
    def test_always_stop_policy_yields_initial_state(self):
        doc = make_doc(3, [1, 0])
        dim = state_dim(4, 2)
        theta = np.zeros(4 * dim)
        stop_block = 3
        theta[stop_block * dim : (stop_block + 1) * dim] = 10.0  # stop dominates
        policy = Greedy(LinearQ(theta, 2, dim))
        rng = np.random.default_rng(0)
        for _ in range(20):
            state = sample_state([doc], policy, MONO_LABEL, rng)
            assert state.p == 1 and state.assigned == (0, 0)

    def test_mono_mode_states_respect_restriction(self):
        docs = [make_doc(4, [1, 0], seed=s) for s in range(3)]
        rng = np.random.default_rng(1)
        policy = UniformRandom()
        for _ in range(200):
            state = sample_state(docs, policy, MONO_LABEL, rng)
            if sum(state.assigned) == 1:
                assert available_actions(state, MONO_LABEL) == (STOP,)
            else:
                assert sum(state.assigned) == 0

    def test_cursor_distribution_uniform_for_scripted_reader(self):
        # A policy that always reads to the end then stops visits each
        # cursor exactly once, so sampling is uniform over p in {1,2,3}.
        doc = make_doc(3, [1, 0])
        dim = state_dim(4, 2)
        theta = np.zeros(4 * dim)
        theta[2 * dim : 3 * dim] = 10.0  # next block dominates everything
        theta[3 * dim : 4 * dim] = 5.0  # then stop
        theta[0 : 2 * dim] = -10.0
        policy = Greedy(LinearQ(theta, 2, dim))
        counts = {1: 0, 2: 0, 3: 0}
        n = 30000
        for i in range(n):
            rng = np.random.default_rng([77, i])
            state = sample_state([doc], policy, MONO_LABEL, rng)
            counts[state.p] += 1
        for p in counts:
            assert counts[p] / n == pytest.approx(1 / 3, abs=0.02)


class TestRolloutReturn:
    def test_stop_needs_no_policy_calls(self):
        # Passing policy=None proves immediate termination never consults it.
        doc = make_doc(2, [1, 0, 1])
        state = transition(initial_state(doc), classify(0), MULTI_LABEL)
        value = rollout_return(state, STOP, None, doc.y, MULTI_LABEL, np.random.default_rng(0))
        assert value == pytest.approx(prf1(doc.y, (1, 0, 0))[2], abs=1e-15)

    def test_deterministic_continuation_repeats_exactly(self):
        doc = make_doc(3, [0, 1], seed=5)
        dim = state_dim(4, 2)
        rng = np.random.default_rng(3)
        policy = Greedy(LinearQ(rng.standard_normal(4 * dim), 2, dim))
        state = initial_state(doc)
        values = {
            rollout_return(state, NEXT, policy, doc.y, MONO_LABEL, np.random.default_rng(i))
            for i in range(10)
        }
        assert len(values) == 1

    def test_matches_bruteforce_on_all_toy_instances(self):
        # Every (state, action) pair on every toy instance with n <= 3,
        # C <= 2, against the independent tuple simulator; zero tolerance.
        rng = np.random.default_rng(11)
        checked = 0
        for n_sents in (1, 2, 3):
            for y, mode in [
                ((1, 0), MONO_LABEL),
                ((0, 1), MONO_LABEL),
                ((1, 0), MULTI_LABEL),
                ((1, 1), MULTI_LABEL),
            ]:
                doc = make_doc(n_sents, y, vocab_size=3, seed=n_sents)
                dim = state_dim(3, 2)
                for _ in range(3):
                    policy = Greedy(LinearQ(rng.standard_normal(4 * dim), 2, dim))
                    for state in _all_live_states(doc, mode):
                        for action in available_actions(state, mode):
                            got = rollout_return(
                                state, action, policy, doc.y, mode, np.random.default_rng(0)
                            )
                            want = _oracle_return(
                                doc, state.p, state.assigned, action, policy, mode
                            )
                            assert got == want, (n_sents, y, mode, state.p, state.assigned, str(action))
                            checked += 1
        assert checked > 500

    def test_multi_rollout_mean_of_identical_runs(self):
        doc = make_doc(2, [1, 0], seed=2)
        dim = state_dim(4, 2)
        policy = Greedy(LinearQ(np.zeros(4 * dim), 2, dim))
        one = rollout_return(initial_state(doc), NEXT, policy, doc.y, MONO_LABEL, np.random.default_rng(4), 1)
        many = rollout_return(initial_state(doc), NEXT, policy, doc.y, MONO_LABEL, np.random.default_rng(4), 5)
        assert one == many


def _by_state(batch):
    """Each state ordinal's (action block, label) pairs, in action order."""
    groups = {}
    columns = (batch.ordinals.tolist(), batch.examples.block.tolist(), batch.examples.label.tolist())
    for ordinal, block, label in zip(*columns):
        groups.setdefault(ordinal, []).append((block, label))
    return groups


class TestBuildTrainingSet:
    def _only_one_good_doc(self):
        # Single sentence, mono-label: classify(correct) returns 1, all
        # other actions return 0 under an always-stop continuation.
        return make_doc(1, [0, 1], seed=9)

    def test_exactly_one_positive_example(self):
        doc = self._only_one_good_doc()
        dim = state_dim(4, 2)
        theta = np.zeros(4 * dim)
        theta[3 * dim : 4 * dim] = 10.0  # stop everywhere
        policy = Greedy(LinearQ(theta, 2, dim))
        cfg = RolloutConfig(n_states=5, iterations=1, seed=0)
        batch = build_training_set([doc], policy, MONO_LABEL, cfg)
        for examples in _by_state(batch).values():
            positives = [block for block, label in examples if label == 1]
            assert len(positives) == 1
            assert positives[0] == action_block(classify(1), 2)

    def test_exact_tie_between_next_and_stop(self):
        # Multi-label state whose assignment already equals y, with a
        # stop-everything continuation: next and stop both end at F1 = 1.
        doc = make_doc(2, [1, 1], seed=3)
        dim = state_dim(4, 2)
        theta = np.zeros(4 * dim)
        theta[3 * dim : 4 * dim] = 10.0  # stop dominates
        policy = Greedy(LinearQ(theta, 2, dim))
        state = transition(
            transition(initial_state(doc), classify(0), MULTI_LABEL), classify(1), MULTI_LABEL
        )
        rng = np.random.default_rng(0)
        r_next = rollout_return(state, NEXT, policy, doc.y, MULTI_LABEL, rng)
        r_stop = rollout_return(state, STOP, policy, doc.y, MULTI_LABEL, rng)
        assert r_next == r_stop == 1.0

    def test_all_tie_states_skipped(self):
        # Mono-label, one sentence: a classify-then-stop policy visits the
        # post-assignment state whose only action is stop, a trivial tie.
        doc = make_doc(1, [1, 0], seed=3)
        dim = state_dim(4, 2)
        theta = np.zeros(4 * dim)
        theta[0:dim] = 10.0  # classify(0) dominates, stop elsewhere
        policy = Greedy(LinearQ(theta, 2, dim))
        cfg = RolloutConfig(n_states=12, iterations=1, seed=1)
        batch = build_training_set([doc], policy, MONO_LABEL, cfg)
        assert batch.n_skipped_states >= 1
        retained = _by_state(batch)
        assert len(retained) + batch.n_skipped_states == 12
        for group in retained.values():
            positives = [block for block, label in group if label == 1]
            assert positives == [action_block(classify(0), 2)]

    def test_size_bound(self):
        docs = [make_doc(3, [1, 0], seed=s) for s in range(4)]
        cfg = RolloutConfig(n_states=25, iterations=1, seed=2)
        batch = build_training_set(docs, UniformRandom(), MONO_LABEL, cfg)
        assert len(batch.examples) <= 25 * (2 + 2)

    def test_max_return_actions_and_only_those_are_positive(self):
        docs = [make_doc(3, [0, 1], seed=s) for s in range(3)]
        cfg = RolloutConfig(n_states=30, iterations=1, seed=5)
        policy = UniformRandom()
        batch = build_training_set(docs, policy, MONO_LABEL, cfg)
        for label in batch.examples.label.tolist():
            assert label in (-1, 1)
        for group in _by_state(batch).values():
            assert any(label == 1 for _, label in group)
            assert any(label == -1 for _, label in group)

    def test_prefix_monotonicity_when_doubling_budget(self):
        docs = [make_doc(3, [1, 0], seed=s) for s in range(3)]
        small = RolloutConfig(n_states=10, iterations=1, seed=8)
        large = RolloutConfig(n_states=20, iterations=1, seed=8)
        batch_small = build_training_set(docs, UniformRandom(), MONO_LABEL, small)
        batch_large = build_training_set(docs, UniformRandom(), MONO_LABEL, large)
        small_by_state = {ordinal: _by_state(batch_small).get(ordinal, []) for ordinal in range(10)}
        large_by_state = {ordinal: _by_state(batch_large).get(ordinal, []) for ordinal in range(10)}
        assert small_by_state == large_by_state

    @pytest.mark.parametrize("mode", [MONO_LABEL, MULTI_LABEL])
    def test_greedy_round_rolls_out_each_distinct_state_once(self, mode, monkeypatch):
        docs = [make_doc(2 + s % 3, np.eye(3, dtype=int)[s % 3], vocab_size=5, seed=s) for s in range(4)]
        dim = state_dim(5, 3)
        q = LinearQ(np.random.default_rng(11).standard_normal(5 * dim), 3, dim)
        sampled, rolled = [], []
        real_sample, real_rollout = learn.sample_state, learn.rollout_return

        def counting_sample(*args):
            sampled.append(real_sample(*args))
            return sampled[-1]

        def counting_rollout(state, action, *args):
            rolled.append((state, action))
            return real_rollout(state, action, *args)

        monkeypatch.setattr(learn, "sample_state", counting_sample)
        monkeypatch.setattr(learn, "rollout_return", counting_rollout)
        batch = build_training_set(docs, Greedy(q), mode, RolloutConfig(n_states=120, seed=4))
        distinct = set(sampled)
        assert len(sampled) == 120 > 2 * len(distinct)
        # A state with one legal action is skipped before its rollout.
        legal = {s: available_actions(s, mode) for s in distinct}
        assert Counter(rolled) == Counter((s, a) for s in distinct if len(legal[s]) > 1 for a in legal[s])
        # Every draw still emits its own examples.
        assert len(_by_state(batch)) + batch.n_skipped_states == 120

    def test_each_draw_hashes_its_state_once(self, monkeypatch):
        # One lookup per draw finds the state's row and labels; a first
        # sight adds one store.
        docs = [make_doc(2 + s % 3, np.eye(3, dtype=int)[s % 3], vocab_size=5, seed=s) for s in range(4)]
        dim = state_dim(5, 3)
        q = LinearQ(np.random.default_rng(11).standard_normal(5 * dim), 3, dim)
        sampled, hashes = [], []
        real_sample, real_hash = learn.sample_state, MdpState.__hash__

        def counting_sample(*args):
            sampled.append(real_sample(*args))
            return sampled[-1]

        def counting_hash(state):
            hashes.append(state)
            return real_hash(state)

        monkeypatch.setattr(learn, "sample_state", counting_sample)
        monkeypatch.setattr(MdpState, "__hash__", counting_hash)
        build_training_set(docs, Greedy(q), MONO_LABEL, RolloutConfig(n_states=120, seed=4))
        monkeypatch.setattr(MdpState, "__hash__", real_hash)
        assert len(hashes) == len(sampled) + len(set(sampled)) < 2 * len(sampled)

    def test_random_round_rolls_out_every_draw(self, monkeypatch):
        docs = [make_doc(3, [1, 0], seed=s) for s in range(2)]
        rolled = []
        real_rollout = learn.rollout_return

        def counting_rollout(state, action, *args):
            rolled.append(action)
            return real_rollout(state, action, *args)

        monkeypatch.setattr(learn, "rollout_return", counting_rollout)
        cfg = RolloutConfig(n_states=40, seed=6)
        build_training_set(docs, UniformRandom(), MONO_LABEL, cfg)
        want = 0
        for ordinal in range(40):
            state = sample_state(docs, UniformRandom(), MONO_LABEL, np.random.default_rng([cfg.seed, ordinal]))
            n_legal = len(available_actions(state, MONO_LABEL))
            want += n_legal if n_legal > 1 else 0  # a forced state is skipped before its rollout
        assert len(rolled) == want

    @pytest.mark.parametrize("policy", [UniformRandom(), None], ids=["random", "greedy"])
    def test_forced_draw_is_skipped_without_rollout_or_draw(self, policy, monkeypatch):
        # Under the mono lock only stop is legal, so the state ties: its
        # draw counts as skipped, with no rollout and nothing drawn.
        doc = make_doc(3, [1, 0], vocab_size=5)
        locked = MdpState(doc, 2, (0, 1))
        policy = policy or Greedy(LinearQ.zeros(2, state_dim(5, 2)))
        rngs = []

        def locked_sample(docs, policy, mode, rng):
            rngs.append((rng, rng.bit_generator.state))
            return locked

        def no_rollout(*args):
            raise AssertionError("a state with one legal action needs no rollout")

        monkeypatch.setattr(learn, "sample_state", locked_sample)
        monkeypatch.setattr(learn, "rollout_return", no_rollout)
        batch = build_training_set([doc], policy, MONO_LABEL, RolloutConfig(n_states=5, rollouts_per_state=3, seed=2))
        assert batch.n_skipped_states == 5 and len(batch.examples) == 0
        assert len(rngs) == 5 and all(rng.bit_generator.state == state for rng, state in rngs)

    def test_every_labeled_action_was_legal(self):
        docs = [make_doc(2, [1, 0, 0], seed=s) for s in range(2)]
        cfg = RolloutConfig(n_states=40, iterations=1, seed=3)
        batch = build_training_set(docs, UniformRandom(), MULTI_LABEL, cfg)
        assert len(batch.examples)  # sanity
        for row in batch.examples.row.tolist():
            assert batch.examples.rows[row].nnz > 0


class TestPolicyIteration:
    def _keyword_corpus(self, seed=0):
        spec = synthetic.SyntheticSpec(
            n_categories=2,
            docs_per_class=40,
            sentences_per_doc=3,
            keyword_positions=(1,),
            noise_vocab_size=12,
            words_per_sentence=4,
            seed=seed,
        )
        raw = synthetic.generate(spec)
        categories = CategorySet.from_documents(raw)
        vocab = corpus_mod.build_vocabulary(raw)
        return corpus_mod.vectorize_corpus(raw, vocab, categories, MONO_LABEL)

    def test_learns_keyword_rule(self):
        docs = self._keyword_corpus()
        train, held_out = docs[::2], docs[1::2]
        cfg = RolloutConfig(
            n_states=600,
            iterations=4,
            seed=7,
            classifier=ClassifierConfig(lam=1e-3, epochs=5, seed=0),
        )
        result = policy_iteration(train, MONO_LABEL, cfg)
        policy = Greedy(result.q)
        assert mean_episode_reward(held_out, policy, MONO_LABEL) >= 0.95

    def test_round_examples_released_before_next_round_samples(self, monkeypatch):
        docs = self._keyword_corpus(seed=3)[:30]
        real_build = learn.build_training_set
        rounds = []  # per round: a weakref to its examples, and which earlier rounds' are alive at its start

        def tracking_build(*args):
            alive = [ref() is not None for ref, _ in rounds]
            batch = real_build(*args)
            rounds.append((weakref.ref(batch.examples), alive))
            return batch

        monkeypatch.setattr(learn, "build_training_set", tracking_build)
        policy_iteration(docs, MONO_LABEL, RolloutConfig(n_states=60, iterations=3, seed=2))
        assert len(rounds) >= 2
        assert [alive for _, alive in rounds] == [[False] * k for k in range(len(rounds))]

    def test_single_iteration_is_one_round(self):
        docs = self._keyword_corpus(seed=3)[:30]
        cfg = RolloutConfig(n_states=50, iterations=1, seed=2)
        result = policy_iteration(docs, MONO_LABEL, cfg)
        assert len(result.telemetry) == 1
        assert result.telemetry[0]["iteration"] == 1

    def test_deterministic_theta(self):
        docs = self._keyword_corpus(seed=5)[:40]
        cfg = RolloutConfig(n_states=80, iterations=2, seed=13)
        a = policy_iteration(docs, MONO_LABEL, cfg)
        b = policy_iteration(docs, MONO_LABEL, cfg)
        np.testing.assert_array_equal(a.q.theta, b.q.theta)
        assert a.telemetry == b.telemetry

    def test_telemetry_schema(self):
        docs = self._keyword_corpus(seed=1)[:20]
        cfg = RolloutConfig(n_states=40, iterations=3, seed=4)
        result = policy_iteration(docs, MONO_LABEL, cfg)
        for record in result.telemetry:
            assert set(record) == {"iteration", "n_examples", "n_skipped_states", "mean_episode_reward"}

    def test_empty_training_docs_rejected(self):
        with pytest.raises(ValueError):
            policy_iteration([], MONO_LABEL, RolloutConfig(n_states=1))
