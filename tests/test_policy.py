import itertools
import re
from dataclasses import replace

import numpy as np
import pytest

from conftest import columns, live_states, make_doc, score_table, sparse
from stc.corpus import MONO_LABEL, MULTI_LABEL
from stc.features import phi_state, state_dim
from stc.mdp import NEXT, STOP, action_block, available_actions, classify, initial_state, transition, walk
from stc.policy import (
    ClassifierConfig,
    Examples,
    Greedy,
    LinearQ,
    UniformRandom,
    action_scores,
    hinge_objective,
    hinge_subgradient,
    load_model,
    q_value,
    save_model,
    select_action,
    train_linear,
    train_multiclass_ovr,
)
from stc.sparse import SparseVector


class TestQValue:
    def test_zero_weights_zero_scores(self, tiny_doc):
        dim = state_dim(4, 2)
        q = LinearQ.zeros(2, dim)
        state = initial_state(tiny_doc)
        for action in available_actions(state, MULTI_LABEL):
            assert q_value(q, state, action) == 0.0

    def test_single_weight_hits_one_action(self, tiny_doc):
        dim = state_dim(4, 2)
        state = initial_state(tiny_doc)
        phi = phi_state(state)
        j = int(phi.indices[0])
        theta = np.zeros(4 * dim)
        stop_block = action_block(STOP, 2)
        theta[stop_block * dim + j] = 1.0
        q = LinearQ(theta, 2, dim)
        assert q_value(q, state, STOP) == pytest.approx(float(phi.values[0]), abs=1e-12)
        assert q_value(q, state, NEXT) == 0.0
        assert q_value(q, state, classify(0)) == 0.0

    def test_linearity_in_theta(self, tiny_doc):
        dim = state_dim(4, 2)
        rng = np.random.default_rng(0)
        theta = rng.standard_normal(4 * dim)
        state = initial_state(tiny_doc)
        q1 = LinearQ(theta, 2, dim)
        q3 = LinearQ(3.0 * theta, 2, dim)
        for action in available_actions(state, MULTI_LABEL):
            assert q_value(q3, state, action) == pytest.approx(3.0 * q_value(q1, state, action), rel=1e-12)

    def test_dimension_mismatch(self, tiny_doc):
        q = LinearQ.zeros(2, 5)  # wrong state dim for vocab_size=4
        with pytest.raises(ValueError):
            q_value(q, initial_state(tiny_doc), STOP)

    def test_halted_state_rejected(self, tiny_doc):
        q = LinearQ.zeros(2, state_dim(4, 2))
        halted = transition(initial_state(tiny_doc), STOP, MULTI_LABEL)
        with pytest.raises(ValueError):
            q_value(q, halted, STOP)

    def test_same_id_documents_get_separate_tables(self):
        dim = state_dim(4, 2)
        q = LinearQ(np.random.default_rng(2).standard_normal(4 * dim), 2, dim)
        doc_a, doc_b = make_doc(3, [1, 0], seed=1), make_doc(3, [1, 0], seed=2)
        assert doc_a.id == doc_b.id
        for doc in (doc_a, doc_b):
            state = transition(initial_state(doc), NEXT, MULTI_LABEL)
            dense = q.blocks() @ phi_state(state).to_dense()
            np.testing.assert_allclose(q.block_scores(state), dense, rtol=0, atol=1e-12)
        assert not np.allclose(q.block_scores(initial_state(doc_a)), q.block_scores(initial_state(doc_b)))


class TestScoreRows:
    @pytest.mark.parametrize("mode", [MONO_LABEL, MULTI_LABEL])
    def test_block_scores_match_the_table_on_every_live_state(self, mode):
        dim = state_dim(4, 2)
        for seed in range(5):
            doc = make_doc(2 + seed, [1, 0], seed=seed)
            q = LinearQ(np.random.default_rng(seed).standard_normal(4 * dim), 2, dim)
            table = score_table(doc, q.blocks())
            for state in live_states(doc, mode):
                expected = table[state.p - 1] + q.blocks()[:, 2 * 4 :] @ state.assigned
                assert q.block_scores(state).tobytes() == expected.tobytes()

    def test_greedy_walk_fills_rows_up_to_its_last_cursor(self):
        dim = state_dim(4, 2)
        stops = set()
        for seed in range(30):
            doc = make_doc(6, [1, 0], seed=seed)
            theta = np.random.default_rng(seed).standard_normal(4 * dim)
            theta.reshape(4, dim)[action_block(NEXT, 2)] += 0.5  # read further on some seeds
            q = LinearQ(theta, 2, dim)
            states, _ = walk(initial_state(doc), lambda s: select_action(Greedy(q), s, MONO_LABEL), MONO_LABEL)
            stops.add(states[-1].p)
            assert q._tables[doc].filled == states[-1].p
        assert len(stops) > 2

    def test_theta_is_a_read_only_private_copy(self, tiny_doc):
        dim = state_dim(4, 2)
        theta = np.random.default_rng(3).standard_normal(4 * dim)
        q = LinearQ(theta, 2, dim)
        state = initial_state(tiny_doc)
        before = q.block_scores(state).tobytes()
        with pytest.raises(ValueError):
            q.theta[0] = 1.0
        theta[:] = 0.0
        assert q.block_scores(state).tobytes() == before
        assert LinearQ(theta, 2, dim).block_scores(state).tobytes() != before
        assert LinearQ(q.theta, 2, dim).block_scores(state).tobytes() == before


class TestSelectAction:
    def test_tie_break_goes_to_first_action(self, tiny_doc):
        q = LinearQ.zeros(2, state_dim(4, 2))
        action = select_action(Greedy(q), initial_state(tiny_doc), MULTI_LABEL)
        assert action == classify(0)

    def test_argmax_wins(self, tiny_doc):
        dim = state_dim(4, 2)
        state = initial_state(tiny_doc)
        phi = phi_state(state)
        theta = np.zeros(4 * dim)
        # Give classify(1)'s block a positive projection on phi.
        block = action_block(classify(1), 2)
        theta[block * dim + phi.indices] = phi.values
        q = LinearQ(theta, 2, dim)
        assert select_action(Greedy(q), state, MULTI_LABEL) == classify(1)

    def test_greedy_invariant_under_positive_scaling(self, tiny_doc):
        rng = np.random.default_rng(5)
        dim = state_dim(4, 2)
        state = initial_state(tiny_doc)
        for _ in range(20):
            theta = rng.standard_normal(4 * dim)
            a1 = select_action(Greedy(LinearQ(theta, 2, dim)), state, MULTI_LABEL)
            a2 = select_action(Greedy(LinearQ(2.5 * theta, 2, dim)), state, MULTI_LABEL)
            assert a1 == a2

    def test_greedy_action_always_legal(self):
        rng = np.random.default_rng(9)
        for trial in range(50):
            doc = make_doc(3, [0, 1, 0], vocab_size=5, seed=trial)
            dim = state_dim(5, 3)
            theta = rng.standard_normal(5 * dim)
            q = LinearQ(theta, 3, dim)
            state = initial_state(doc)
            mode = MONO_LABEL if trial % 2 else MULTI_LABEL
            action = select_action(Greedy(q), state, mode)
            assert action in available_actions(state, mode)

    @pytest.mark.parametrize("mode", [MONO_LABEL, MULTI_LABEL])
    def test_forced_step_builds_no_score_table(self, tiny_doc, mode):
        # Mono: stop is the only action once a label is assigned. Multi:
        # every label assigned on the last sentence.
        dim = state_dim(4, 2)
        q = LinearQ(np.random.default_rng(4).standard_normal(4 * dim), 2, dim)
        state = transition(initial_state(tiny_doc), classify(0), mode)
        if mode == MULTI_LABEL:
            state = transition(transition(state, classify(1), mode), NEXT, mode)
            state = transition(state, NEXT, mode)
        assert available_actions(state, mode) == (STOP,)
        assert select_action(Greedy(q), state, mode) == STOP
        assert q._tables == {}
        select_action(Greedy(q), initial_state(tiny_doc), mode)
        assert list(q._tables) == [tiny_doc]
        assert q._tables[tiny_doc].filled == 1
        assert select_action(Greedy(q), state, mode) == STOP
        assert q._tables[tiny_doc].filled == 1

    def test_uniform_random_needs_rng(self, tiny_doc):
        with pytest.raises(ValueError, match="needs an rng"):
            select_action(UniformRandom(), initial_state(tiny_doc), MULTI_LABEL)

    def test_uniform_random_external_rng(self, tiny_doc):
        state = initial_state(tiny_doc)
        policy = UniformRandom()
        seq1 = [select_action(policy, state, MULTI_LABEL, np.random.default_rng(1)) for _ in range(5)]
        seq2 = [select_action(policy, state, MULTI_LABEL, np.random.default_rng(1)) for _ in range(5)]
        assert seq1 == seq2


class TestTrainLinear:
    def test_separable_points(self):
        examples = [(sparse([1.0, 0.0]), 1), (sparse([0.0, 1.0]), -1)]
        cfg = ClassifierConfig(lam=1e-3, epochs=20, seed=0)
        theta = train_linear(columns(examples), cfg)
        assert float(theta @ [1.0, 0.0]) > 0.0
        assert float(theta @ [0.0, 1.0]) < 0.0

    def test_separable_matches_grid_search_signs(self):
        # Oracle: exhaustive grid over 2-d theta minimizing the objective.
        examples = [(sparse([1.0, 0.2]), 1), (sparse([0.1, 1.0]), -1), (sparse([0.9, -0.1]), 1)]
        lam = 1e-2
        grid = np.linspace(-4, 4, 161)
        best, best_val = None, np.inf
        for a, b in itertools.product(grid, grid):
            theta = np.array([a, b])
            val = hinge_objective(theta, examples, lam)
            if val < best_val:
                best, best_val = theta, val
        trained = train_linear(columns(examples), ClassifierConfig(lam=lam, epochs=50, seed=1))
        for x, _ in examples:
            assert np.sign(float(x.to_dense() @ trained)) == np.sign(float(x.to_dense() @ best))
        assert hinge_objective(trained, examples, lam) == pytest.approx(best_val, abs=0.05)

    def test_duplicated_dataset_same_signs(self):
        # The mean-loss objective is invariant under duplicating the data,
        # so both runs converge to the same separator on separated clusters.
        rng = np.random.default_rng(2)
        examples = []
        for i in range(20):
            label = 1 if i % 2 else -1
            center = np.array([2.0, 0.5, -1.0]) * label
            examples.append((sparse(center + 0.2 * rng.standard_normal(3)), label))
        cfg = ClassifierConfig(lam=1e-2, epochs=40, seed=4)
        theta1 = train_linear(columns(examples), cfg)
        theta2 = train_linear(columns(examples + examples), cfg)
        signs1 = [np.sign(float(x.to_dense() @ theta1)) for x, _ in examples]
        signs2 = [np.sign(float(x.to_dense() @ theta2)) for x, _ in examples]
        assert signs1 == signs2

    def test_contradictory_labels_irreducible(self):
        x = sparse([1.0, 0.0])
        examples = [(x, 1), (x, -1)]
        theta = train_linear(columns(examples), ClassifierConfig(lam=1e-2, epochs=20, seed=0))
        errors = sum(1 for x, y in examples if np.sign(float(x.to_dense() @ theta)) != y)
        assert errors >= 1

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="each label"):
            train_linear(columns([(sparse([1.0, 0.0]), 1)]), ClassifierConfig())

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        examples = [
            (sparse(rng.standard_normal(5)), 1 if rng.random() < 0.5 else -1) for _ in range(30)
        ]
        if not any(label == 1 for _, label in examples):
            examples[0] = (examples[0][0], 1)
        if not any(label == -1 for _, label in examples):
            examples[1] = (examples[1][0], -1)
        cfg = ClassifierConfig(lam=1e-3, epochs=5, seed=12)
        np.testing.assert_array_equal(train_linear(columns(examples), cfg), train_linear(columns(examples), cfg))

    def test_objective_final_not_worse_than_initial(self):
        rng = np.random.default_rng(21)
        centers = {1: np.array([1.0, 1.0, 0.0]), -1: np.array([-1.0, 0.0, 1.0])}
        examples = []
        for i in range(40):
            label = 1 if i % 2 else -1
            examples.append((sparse(centers[label] + 0.3 * rng.standard_normal(3)), label))
        lam = 1e-3
        initial = hinge_objective(np.zeros(3), examples, lam)
        final = hinge_objective(
            train_linear(columns(examples), ClassifierConfig(lam=lam, epochs=10, seed=0)), examples, lam
        )
        assert final <= initial + 1e-6


def _reference_sgd(pairs, cfg):
    """The flat SGD loop over (x, y) pairs, written out as an oracle."""
    v = np.zeros(pairs[0][0].dim)
    scale, t = 1.0, 0
    rng = np.random.default_rng(cfg.seed)
    order = np.arange(len(pairs))
    for _ in range(cfg.epochs):
        rng.shuffle(order)
        for i in order:
            t += 1
            x, y = pairs[i]
            eta = 1.0 / (cfg.lam * t)
            margin = y * scale * float(v[x.indices] @ x.values)
            scale *= 1.0 - eta * cfg.lam
            if scale == 0.0:
                v[:] = 0.0
                scale = 1.0
            if margin < 1.0:
                v[x.indices] += (eta * y / scale) * x.values
            if scale < 1e-9:
                v *= scale
                scale = 1.0
    return scale * v


class TestBlockSgd:
    def _block_examples(self, n_blocks=4, dim=7, n=60, seed=0):
        rng = np.random.default_rng(seed)
        examples = []
        for i in range(n):
            dense = rng.standard_normal(dim) * (rng.random(dim) > 0.4)
            examples.append((sparse(dense), int(rng.integers(n_blocks)), 1 if i % 3 == 0 else -1))
        return examples

    @staticmethod
    def _flat(examples, n_blocks):
        return [(SparseVector(x.indices + b * x.dim, x.values, n_blocks * x.dim), y) for x, b, y in examples]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_block_examples_match_their_flat_vectors(self, seed):
        examples = self._block_examples(seed=seed)
        flat = self._flat(examples, 4)
        for cfg in (ClassifierConfig(lam=1e-3, epochs=5, seed=seed), ClassifierConfig(lam=0.5, epochs=3, seed=9)):
            block_theta = train_linear(columns(examples), cfg, 4)
            assert block_theta.tobytes() == train_linear(columns(flat), cfg).tobytes()
            assert block_theta.tobytes() == _reference_sgd(flat, cfg).tobytes()

    def test_pairs_are_block_zero_of_one(self):
        examples = self._block_examples(n_blocks=1, seed=5)
        pairs = [(x, y) for x, _, y in examples]
        cfg = ClassifierConfig(lam=1e-2, epochs=4, seed=2)
        assert train_linear(columns(pairs), cfg).tobytes() == train_linear(columns(examples), cfg).tobytes()
        assert train_linear(columns(pairs), cfg).tobytes() == _reference_sgd(pairs, cfg).tobytes()

    def test_one_vs_rest_weights_unchanged(self):
        xs, label_matrix = TestOneVsRest()._toy_three_class()
        cfg = ClassifierConfig(lam=1e-3, epochs=5, seed=7)
        weights, _ = train_multiclass_ovr(xs, label_matrix, cfg)
        for k, w in enumerate(weights):
            pairs = [(x, 1 if row[k] == 1 else -1) for x, row in zip(xs, label_matrix)]
            want = _reference_sgd(pairs, ClassifierConfig(lam=cfg.lam, epochs=cfg.epochs, seed=cfg.seed + k))
            assert w.tobytes() == want.tobytes()

    @pytest.mark.parametrize("block", [-1, 4])
    def test_out_of_range_block_rejected(self, block):
        examples = self._block_examples()
        examples[3] = (examples[3][0], block, examples[3][2])
        with pytest.raises(ValueError, match="blocks"):
            train_linear(columns(examples), ClassifierConfig(), 4)

    def test_mixed_dimensions_rejected(self):
        examples = self._block_examples()
        examples.append((sparse([1.0, 2.0]), 0, 1))
        with pytest.raises(ValueError, match="dimensions"):
            train_linear(columns(examples), ClassifierConfig(), 4)

    def test_single_label_rejected(self):
        examples = [(x, b, 1) for x, b, _ in self._block_examples()]
        with pytest.raises(ValueError, match="each label"):
            train_linear(columns(examples), ClassifierConfig(), 4)

    def test_no_examples_rejected(self):
        with pytest.raises(ValueError, match="no training examples"):
            train_linear(columns([]), ClassifierConfig(), 4)

    @staticmethod
    def _shared_rows(n_blocks, seed):
        """Columns whose examples share a few rows, as a round's do."""
        rng = np.random.default_rng(seed)
        rows = [sparse(rng.standard_normal(7) * (rng.random(7) > 0.4)) for _ in range(6)]
        n = 50
        return Examples(
            rows=rows,
            row=rng.integers(len(rows), size=n),
            block=rng.integers(n_blocks, size=n),
            label=np.where(np.arange(n) % 3 == 0, 1, -1),
        )

    @pytest.mark.parametrize("n_blocks", [1, 4])
    def test_shared_rows_match_the_reference_loop(self, n_blocks):
        for seed in range(3):
            examples = self._shared_rows(n_blocks, seed)
            flat = self._flat(
                [(examples.rows[r], b, y) for r, b, y in zip(examples.row, examples.block, examples.label.tolist())], n_blocks
            )
            cfg = ClassifierConfig(lam=1e-2, epochs=4, seed=seed)
            assert train_linear(examples, cfg, n_blocks).tobytes() == _reference_sgd(flat, cfg).tobytes()

    def test_bad_columns_rejected(self):
        examples = self._shared_rows(4, 0)
        with pytest.raises(ValueError, match="rows"):
            train_linear(replace(examples, row=examples.row + len(examples.rows)), ClassifierConfig(), 4)
        with pytest.raises(ValueError, match="length"):
            train_linear(replace(examples, block=examples.block[:-1]), ClassifierConfig(), 4)


class TestGradient:
    def test_subgradient_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        dim = 6
        examples = [
            (sparse(rng.standard_normal(dim)), 1 if rng.random() < 0.5 else -1) for _ in range(15)
        ]
        lam = 0.05
        h = 1e-6
        checked = 0
        while checked < 100:
            theta = rng.standard_normal(dim)
            margins = [y * float(x.to_dense() @ theta) for x, y in examples]
            if min(abs(1.0 - m) for m in margins) < 1e-2:
                continue  # too close to a hinge kink for a clean finite difference
            analytic = hinge_subgradient(theta, examples, lam)
            numeric = np.zeros(dim)
            for j in range(dim):
                plus, minus = theta.copy(), theta.copy()
                plus[j] += h
                minus[j] -= h
                numeric[j] = (
                    hinge_objective(plus, examples, lam) - hinge_objective(minus, examples, lam)
                ) / (2 * h)
            rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12)
            assert rel <= 1e-4
            checked += 1


class TestOneVsRest:
    def _toy_three_class(self):
        # Three separable clusters on the axes.
        xs, labels = [], []
        rng = np.random.default_rng(3)
        for k in range(3):
            for _ in range(15):
                center = np.zeros(3)
                center[k] = 1.0
                xs.append(sparse(center + 0.1 * rng.standard_normal(3)))
                row = np.zeros(3, dtype=np.int8)
                row[k] = 1
                labels.append(row)
        return xs, np.stack(labels)

    def test_separable_three_class(self):
        xs, label_matrix = self._toy_three_class()
        weights, empty = train_multiclass_ovr(xs, label_matrix, ClassifierConfig(lam=1e-3, epochs=20, seed=0))
        assert empty == []
        errors = 0
        for x, row in zip(xs, label_matrix):
            scores = [float(x.to_dense() @ w) for w in weights]
            if int(np.argmax(scores)) != int(np.argmax(row)):
                errors += 1
        assert errors == 0

    def test_single_class_rejected(self):
        xs = [sparse([1.0, 0.0])]
        with pytest.raises(ValueError):
            train_multiclass_ovr(xs, np.array([[1]]), ClassifierConfig())

    def test_empty_class_flagged(self):
        xs = [sparse([1.0, 0.0]), sparse([0.0, 1.0])]
        label_matrix = np.array([[1, 0, 0], [0, 1, 0]], dtype=np.int8)
        weights, empty = train_multiclass_ovr(xs, label_matrix, ClassifierConfig(epochs=2))
        assert empty == [2]
        assert np.all(weights[2] == 0.0)

    def test_deterministic(self):
        xs, label_matrix = self._toy_three_class()
        cfg = ClassifierConfig(lam=1e-3, epochs=5, seed=7)
        w1, _ = train_multiclass_ovr(xs, label_matrix, cfg)
        w2, _ = train_multiclass_ovr(xs, label_matrix, cfg)
        for a, b in zip(w1, w2):
            np.testing.assert_array_equal(a, b)


class TestModelIO:
    def test_roundtrip(self, tmp_path):
        theta = np.zeros(20)
        theta[3] = 1.5
        theta[17] = -2.0
        path = tmp_path / "model.json"
        save_model(
            path,
            kind="policy",
            mode="mono",
            categories=["acq", "earn"],
            vocab_checksum="abc123",
            weights={"theta": theta},
            metadata={"fraction": 0.3},
        )
        record = load_model(path, expected_checksum="abc123")
        np.testing.assert_allclose(record["weights"]["theta"], theta)
        assert record["kind"] == "policy"
        assert record["block_mapping"]["stop"] == 3
        assert record["metadata"]["fraction"] == 0.3

    def test_checksum_mismatch_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(path, "policy", "mono", ["a", "b"], "right", {"theta": np.zeros(4)})
        with pytest.raises(ValueError, match="checksum"):
            load_model(path, expected_checksum="wrong")

    @pytest.mark.parametrize(
        "text, reason",
        [
            (None, "No such file"),
            ("{not json", "not JSON"),
            ("[1, 2]", "not a JSON object"),
            ('{"format_version": 1}', "missing field 'kind'"),
        ],
    )
    def test_a_faulty_file_raises_one_value_error_naming_it(self, tmp_path, text, reason):
        path = tmp_path / "model.json"
        if text is not None:
            path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=f"^model file {re.escape(str(path))}: .*{reason}"):
            load_model(path)
