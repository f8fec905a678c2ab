import numpy as np
import pytest

from conftest import make_doc, sparse
from stc import corpus as corpus_mod
from stc import synthetic
from stc.baseline import BaselineModel, predict_baseline, predict_baseline_matrix, train_baseline
from stc.corpus import MONO_LABEL, MULTI_LABEL, CategorySet
from stc.policy import ClassifierConfig


def _model(weight_rows, mode):
    return BaselineModel(weights=np.asarray(weight_rows, dtype=float), mode=mode)


def _doc_with_global(dense, y):
    vec = sparse(dense)
    return corpus_mod.Document(id="d", y=np.asarray(y, dtype=np.int8), sentence_vectors=[vec], global_vector=vec)


class TestPredict:
    def test_mono_argmax(self):
        # Weight rows scoring (0.2, -0.1, 0.7) against x = e0.
        model = _model([[0.2, 0.0], [-0.1, 0.0], [0.7, 0.0]], MONO_LABEL)
        doc = _doc_with_global([1.0, 0.0], [0, 0, 1])
        assert predict_baseline(model, doc).tolist() == [0, 0, 1]

    def test_mono_tie_goes_to_lowest_index(self):
        model = _model([[0.5, 0.0], [0.5, 0.0]], MONO_LABEL)
        doc = _doc_with_global([1.0, 0.0], [0, 1])
        assert predict_baseline(model, doc).tolist() == [1, 0]

    def test_multi_thresholds_at_zero(self):
        model = _model([[0.2, 0.0], [0.1, 0.0], [-3.0, 0.0]], MULTI_LABEL)
        doc = _doc_with_global([1.0, 0.0], [1, 1, 0])
        assert predict_baseline(model, doc).tolist() == [1, 1, 0]

    def test_multi_all_negative_falls_back_to_argmax(self):
        model = _model([[-0.2, 0.0], [-0.1, 0.0], [-3.0, 0.0]], MULTI_LABEL)
        doc = _doc_with_global([1.0, 0.0], [0, 1, 0])
        assert predict_baseline(model, doc).tolist() == [0, 1, 0]

    def test_mono_sum_is_one_multi_at_least_one(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            weights = rng.standard_normal((4, 3))
            dense = rng.random(3)
            doc = _doc_with_global(dense, [1, 0, 0, 0])
            mono = predict_baseline(_model(weights, MONO_LABEL), doc)
            multi = predict_baseline(_model(weights, MULTI_LABEL), doc)
            assert mono.sum() == 1
            assert multi.sum() >= 1

    def test_mono_invariant_under_joint_rescaling(self):
        rng = np.random.default_rng(4)
        weights = rng.standard_normal((3, 4))
        doc = _doc_with_global(rng.random(4), [1, 0, 0])
        a = predict_baseline(_model(weights, MONO_LABEL), doc)
        b = predict_baseline(_model(weights * 7.5, MONO_LABEL), doc)
        assert a.tolist() == b.tolist()

    def test_dimension_mismatch_rejected(self):
        model = _model([[0.1, 0.2, 0.3]] * 2, MONO_LABEL)
        doc = _doc_with_global([1.0, 0.0], [1, 0])
        with pytest.raises(ValueError):
            predict_baseline(model, doc)


def _one_document_prediction(model, doc):
    """The per-document prediction the matrix rows must reproduce."""
    x = doc.global_vector
    scores = model.weights[:, x.indices] @ x.values
    y_hat = np.zeros(model.weights.shape[0], dtype=np.int8)
    if model.mode == MONO_LABEL:
        y_hat[int(np.argmax(scores))] = 1
    else:
        y_hat[scores > 0.0] = 1
        if not y_hat.any():
            y_hat[int(np.argmax(scores))] = 1
    return y_hat


class TestPredictMatrix:
    @pytest.mark.parametrize("mode", [MONO_LABEL, MULTI_LABEL])
    def test_rows_match_one_document_predictions(self, mode):
        rng = np.random.default_rng(12)
        for trial in range(40):
            n_cats = int(rng.integers(2, 9))
            weights = rng.standard_normal((n_cats, 6)) - (0.8 if trial % 2 else 0.0)
            if trial % 5 == 0:
                weights[1] = weights[0]  # exact ties
            docs = [_doc_with_global(rng.random(6) * (rng.random(6) < 0.6), [1] + [0] * (n_cats - 1)) for _ in range(12)]
            docs.append(_doc_with_global(np.zeros(6), [1] + [0] * (n_cats - 1)))  # empty document
            model = _model(weights, mode)
            matrix = predict_baseline_matrix(model, docs)
            assert matrix.dtype == np.int8 and matrix.shape == (len(docs), n_cats)
            for row, doc in zip(matrix, docs):
                assert row.tolist() == _one_document_prediction(model, doc).tolist()
                assert predict_baseline(model, doc).tolist() == row.tolist()

    def test_no_documents(self):
        assert predict_baseline_matrix(_model([[0.1, 0.2]] * 3, MULTI_LABEL), []).shape == (0, 3)

    def test_dimension_mismatch_rejected(self):
        model = _model([[0.1, 0.2, 0.3]] * 2, MONO_LABEL)
        docs = [_doc_with_global([1.0, 0.0, 0.0], [1, 0]), _doc_with_global([1.0, 0.0], [1, 0])]
        with pytest.raises(ValueError, match="does not match"):
            predict_baseline_matrix(model, docs)


class TestTrain:
    def _separable_corpus(self):
        spec = synthetic.SyntheticSpec(
            n_categories=2,
            docs_per_class=25,
            sentences_per_doc=2,
            keyword_positions=(1, 2),
            noise_vocab_size=10,
            seed=6,
        )
        raw = synthetic.generate(spec)
        categories = CategorySet.from_documents(raw)
        vocab = corpus_mod.build_vocabulary(raw)
        return corpus_mod.vectorize_corpus(raw, vocab, categories, MONO_LABEL)

    def test_zero_training_errors_on_separable_corpus(self):
        docs = self._separable_corpus()
        model = train_baseline(docs, ClassifierConfig(lam=1e-3, epochs=20, seed=0), MONO_LABEL)
        errors = sum(
            1 for d in docs if predict_baseline(model, d).tolist() != d.y.tolist()
        )
        assert errors == 0

    def test_absent_class_flagged(self):
        docs = [make_doc(2, [1, 0, 0], seed=s) for s in range(4)] + [
            make_doc(2, [0, 1, 0], seed=s + 10) for s in range(4)
        ]
        model = train_baseline(docs, ClassifierConfig(epochs=2), MONO_LABEL)
        assert model.empty_classes == (2,)
        assert np.all(model.weights[2] == 0.0)

    def test_deterministic(self):
        docs = self._separable_corpus()
        cfg = ClassifierConfig(lam=1e-3, epochs=5, seed=3)
        a = train_baseline(docs, cfg, MONO_LABEL)
        b = train_baseline(docs, cfg, MONO_LABEL)
        np.testing.assert_array_equal(a.weights, b.weights)

    def test_empty_training_set_rejected(self):
        with pytest.raises(ValueError):
            train_baseline([], ClassifierConfig(), MONO_LABEL)
