import json
import math
from collections import Counter

import numpy as np
import pytest

from conftest import norm
from stc import corpus, synthetic
from stc.sparse import SparseVector
from stc.corpus import (
    CategorySet,
    RawDocument,
    Vocabulary,
    build_vocabulary,
    convert_cardoso,
    corpus_stats,
    load_jsonl,
    make_splits,
    prepare_split,
    save_jsonl,
    vectorize_corpus,
    vectorize_sentence,
)


def _doc(doc_id, labels, sentences):
    return RawDocument(id=doc_id, labels=frozenset(labels), sentences=sentences)


def _write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")


class TestLoadJsonl:
    def test_text_field_is_split_on_periods(self, tmp_path):
        path = tmp_path / "c.jsonl"
        _write_jsonl(path, [{"id": "d1", "labels": ["earn"], "text": "Profit up. Costs down."}])
        docs, dropped = load_jsonl(path)
        assert dropped == 0
        assert len(docs) == 1 and len(docs[0].sentences) == 2

    def test_empty_labels_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        _write_jsonl(path, [{"id": "d1", "labels": [], "text": "x y z."}])
        with pytest.raises(ValueError, match="line 1"):
            load_jsonl(path)

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        _write_jsonl(path, [
            {"id": "d1", "labels": ["a"], "text": "one."},
            {"id": "d1", "labels": ["b"], "text": "two."},
        ])
        with pytest.raises(ValueError, match="duplicate id"):
            load_jsonl(path)

    def test_malformed_line_names_line_number(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "d1", "labels": ["a"], "text": "x."}\nnot json\n', encoding="utf-8")
        with pytest.raises(ValueError, match="line 2"):
            load_jsonl(path)

    def test_empty_documents_are_counted(self, tmp_path):
        path = tmp_path / "c.jsonl"
        _write_jsonl(path, [
            {"id": "d1", "labels": ["a"], "text": "..."},
            {"id": "d2", "labels": ["a"], "text": "kept."},
        ])
        docs, dropped = load_jsonl(path)
        assert dropped == 1 and [d.id for d in docs] == ["d2"]

    def test_save_load_roundtrip(self, tmp_path):
        docs = [_doc("a", {"x"}, ["one two", "three"]), _doc("b", {"y", "x"}, ["four"])]
        path = tmp_path / "c.jsonl"
        save_jsonl(docs, path)
        loaded, dropped = load_jsonl(path)
        assert dropped == 0
        assert [(d.id, d.labels, d.sentences) for d in loaded] == [
            (d.id, d.labels, d.sentences) for d in docs
        ]


class TestConvertCardoso:
    def test_field_split(self, tmp_path):
        train = tmp_path / "train.txt"
        test = tmp_path / "test.txt"
        train.write_text("earn\tchampion products approves stock split. more text.\n", encoding="utf-8")
        test.write_text("acq\tcompany acquires rival.\n", encoding="utf-8")
        docs = convert_cardoso(train, test)
        assert len(docs) == 2
        assert docs[0].labels == frozenset(["earn"])
        assert docs[0].provenance == "train"
        assert docs[1].provenance == "test"

    def test_missing_tab_is_an_error(self, tmp_path):
        train = tmp_path / "train.txt"
        test = tmp_path / "test.txt"
        train.write_text("earn no tab here\n", encoding="utf-8")
        test.write_text("", encoding="utf-8")
        with pytest.raises(ValueError, match="line 1"):
            convert_cardoso(train, test)

    def test_empty_files_give_empty_list(self, tmp_path):
        train = tmp_path / "train.txt"
        test = tmp_path / "test.txt"
        train.write_text("", encoding="utf-8")
        test.write_text("\n\n", encoding="utf-8")
        assert convert_cardoso(train, test) == []


class TestVocabulary:
    def test_df_and_idf_from_two_docs(self):
        docs = [
            _doc("d1", {"a"}, ["prices of cocoa"]),
            _doc("d2", {"a"}, ["prices"]),
        ]
        vocab = build_vocabulary(docs)
        assert vocab.df["price"] == 2
        assert vocab.df["cocoa"] == 1
        assert vocab.idf[vocab.index["price"]] == pytest.approx(0.0, abs=1e-12)
        assert vocab.idf[vocab.index["cocoa"]] == pytest.approx(math.log(2.0), abs=1e-12)

    def test_single_doc_all_idf_zero(self):
        vocab = build_vocabulary([_doc("d1", {"a"}, ["cocoa prices cocoa"])])
        assert np.all(vocab.idf == 0.0)

    def test_df_counts_documents_not_sentences(self):
        vocab = build_vocabulary([_doc("d1", {"a"}, ["cocoa rose", "cocoa fell"])])
        assert vocab.df["cocoa"] == 1

    def test_unseen_terms_absent(self):
        vocab = build_vocabulary([_doc("d1", {"a"}, ["cocoa"])])
        assert "wheat" not in vocab

    def test_checksum_is_stable_and_sensitive(self):
        docs = [_doc("d1", {"a"}, ["cocoa prices"]), _doc("d2", {"a"}, ["wheat"])]
        a = build_vocabulary(docs).checksum()
        b = build_vocabulary(docs).checksum()
        c = build_vocabulary(docs[:1]).checksum()
        assert a == b and a != c

    def test_record_roundtrip(self):
        vocab = build_vocabulary([_doc("d1", {"a"}, ["cocoa prices"]), _doc("d2", {"a"}, ["wheat"])])
        back = Vocabulary.from_record(vocab.to_record())
        assert back.checksum() == vocab.checksum()
        np.testing.assert_allclose(back.idf, vocab.idf)


class TestVectorize:
    def test_hand_computed_tfidf(self):
        # idf(cocoa) = ln 2, idf(price) = 0 -> all weight lands on cocoa.
        docs = [_doc("d1", {"a"}, ["prices of cocoa"]), _doc("d2", {"a"}, ["prices"])]
        vocab = build_vocabulary(docs)
        vec = vectorize_sentence(["cocoa", "cocoa", "price"], vocab)
        dense = vec.to_dense()
        assert dense[vocab.index["cocoa"]] == pytest.approx(1.0, abs=1e-12)
        assert dense[vocab.index["price"]] == 0.0

    def test_empty_tokens_empty_vector(self):
        vocab = build_vocabulary([_doc("d1", {"a"}, ["cocoa"])])
        assert vectorize_sentence([], vocab).nnz == 0

    def test_single_token_unit_entry(self):
        docs = [_doc("d1", {"a"}, ["cocoa wheat"]), _doc("d2", {"a"}, ["cocoa"])]
        vocab = build_vocabulary(docs)
        vec = vectorize_sentence(["wheat"], vocab)
        assert vec.nnz == 1 and vec.values[0] == pytest.approx(1.0, abs=1e-12)

    def test_zero_idf_falls_back_to_tf(self):
        vocab = build_vocabulary([_doc("d1", {"a"}, ["cocoa prices"])])
        vec = vectorize_sentence(["cocoa"], vocab)
        assert norm(vec) == pytest.approx(1.0, abs=1e-9)

    def test_label_vectors(self):
        docs = [
            _doc("d1", {"earn"}, ["cocoa up"]),
            _doc("d2", {"acq"}, ["wheat down"]),
            _doc("d3", {"earn", "acq"}, ["cocoa wheat"]),
        ]
        categories = CategorySet.from_documents(docs)
        assert categories.names == ("acq", "earn")
        vocab = build_vocabulary(docs)
        vectorized = vectorize_corpus(docs, vocab, categories, corpus.MULTI_LABEL)
        assert vectorized[0].y.tolist() == [0, 1]
        assert vectorized[1].y.tolist() == [1, 0]
        assert vectorized[2].y.tolist() == [1, 1]

    def test_mono_mode_rejects_multilabel(self):
        docs = [_doc("d1", {"a", "b"}, ["cocoa"]), _doc("d2", {"b"}, ["wheat"])]
        categories = CategorySet.from_documents(docs)
        vocab = build_vocabulary(docs)
        with pytest.raises(ValueError, match="mono-label"):
            vectorize_corpus(docs, vocab, categories, corpus.MONO_LABEL)

    def test_unknown_label_rejected(self):
        docs = [_doc("d1", {"a"}, ["cocoa"]), _doc("d2", {"b"}, ["wheat"])]
        vocab = build_vocabulary(docs)
        categories = CategorySet(("a", "zzz"))
        with pytest.raises(KeyError, match="unknown category"):
            vectorize_corpus(docs, vocab, categories, corpus.MONO_LABEL)

    def test_global_vector_is_normalized(self):
        docs = [
            _doc("d1", {"a"}, ["cocoa rose sharply", "wheat fell"]),
            _doc("d2", {"a"}, ["prices stable"]),
        ]
        vocab = build_vocabulary(docs)
        categories = CategorySet(("a", "b"))
        for doc in vectorize_corpus(docs, vocab, categories, corpus.MONO_LABEL):
            assert norm(doc.global_vector) == pytest.approx(1.0, abs=1e-9)
            for vec in doc.sentence_vectors:
                if vec.nnz:
                    assert norm(vec) == pytest.approx(1.0, abs=1e-9)

    def test_test_set_vectorization_never_mutates_vocabulary(self):
        train = [_doc("d1", {"a"}, ["cocoa prices"]), _doc("d2", {"b"}, ["wheat"])]
        test = [_doc("d3", {"a"}, ["unseen words entirely"])]
        vocab = build_vocabulary(train)
        checksum = vocab.checksum()
        categories = CategorySet.from_documents(train)
        docs = vectorize_corpus(test, vocab, categories, corpus.MONO_LABEL)
        assert vocab.checksum() == checksum
        assert docs[0].global_vector.nnz == 0  # everything out-of-vocabulary


def _counter_oracle(tokens, vocab):
    """The Counter -> dict -> sorted items -> normalize route, written out:
    each weight is count * idf, the norm sums squares in index order, and
    the weights are multiplied by 1 / norm."""
    counts = Counter(vocab.index[t] for t in tokens if t in vocab)
    weighted = {i: c * vocab.idf[i] for i, c in counts.items()}
    if all(w == 0.0 for w in weighted.values()):
        weighted = {i: float(c) for i, c in counts.items()}
    items = sorted((i, w) for i, w in weighted.items() if w != 0.0)
    indices = np.array([i for i, _ in items], dtype=np.int64)
    weights = np.array([w for _, w in items], dtype=np.float64)
    if not items:
        return indices, weights
    norm = float(np.sqrt(np.dot(weights, weights)))
    return indices, weights * (1.0 / norm)


def _assert_matches_oracle(vec, tokens, vocab):
    indices, values = _counter_oracle(tokens, vocab)
    assert vec.dim == len(vocab)
    assert vec.indices.tolist() == indices.tolist()
    assert vec.values.tobytes() == values.tobytes()


def _oracle_vocab():
    # "price" is in every training document (idf 0); "cocoa" and "wheat"
    # are not.
    return build_vocabulary(
        [
            _doc("d1", {"a"}, ["prices of cocoa", "cocoa rose"]),
            _doc("d2", {"a"}, ["prices of wheat"]),
            _doc("d3", {"b"}, ["prices fell", "wheat and cocoa"]),
        ]
    )


class TestVectorizeOracle:
    """vectorize_sentence reproduces the Counter-based route bit for bit."""

    @pytest.fixture
    def vocab(self):
        return _oracle_vocab()

    @pytest.mark.parametrize(
        "tokens",
        [
            ["cocoa", "wheat", "cocoa", "cocoa"],  # repeated term
            ["unseen", "cocoa", "other", "wheat"],  # out-of-vocabulary tokens
            ["price", "cocoa", "price"],  # idf 0 term is dropped
            ["price", "price", "unseen"],  # every weight zero: raw counts
            [],
        ],
    )
    def test_hand_cases(self, vocab, tokens):
        _assert_matches_oracle(vectorize_sentence(tokens, vocab), tokens, vocab)

    def test_synthetic_split(self):
        spec = synthetic.SyntheticSpec(
            n_categories=3,
            docs_per_class=12,
            sentences_per_doc=5,
            noise_vocab_size=20,
            words_per_sentence=6,
            labels_per_doc=(1, 2),
            keyword_variants=2,
            seed=3,
        )
        raw = synthetic.generate(spec)
        categories = CategorySet.from_documents(raw)
        split = make_splits(raw, 0.3, 1, seed=5)[0]
        vocab, train_docs, test_docs = prepare_split(raw, categories, split, corpus.MULTI_LABEL)
        by_id = {d.id: d for d in raw}
        for doc in train_docs + test_docs:
            tokens = by_id[doc.id].tokens
            for vec, sentence in zip(doc.sentence_vectors, tokens):
                _assert_matches_oracle(vec, sentence, vocab)
            _assert_matches_oracle(doc.global_vector, [t for sentence in tokens for t in sentence], vocab)


def _tokenized(doc_id, label, sentences):
    """A raw document whose preprocessed tokens are given directly."""
    raw = _doc(doc_id, {label}, [" ".join(tokens) for tokens in sentences])
    raw.tokens = sentences
    return raw


class TestVectorizeBlock:
    """vectorize_corpus builds each side as one sentence block and one
    document block; every row matches the Counter route bit for bit."""

    @pytest.fixture
    def vocab(self):
        return _oracle_vocab()

    @staticmethod
    def _check(raw_docs, vocab):
        docs = vectorize_corpus(raw_docs, vocab, CategorySet(("a", "b")), corpus.MONO_LABEL)
        assert [d.id for d in docs] == [r.id for r in raw_docs]
        for doc, raw in zip(docs, raw_docs):
            assert doc.n_sentences == len(raw.tokens)
            for vec, tokens in zip(doc.sentence_vectors, raw.tokens):
                _assert_matches_oracle(vec, tokens, vocab)
            _assert_matches_oracle(doc.global_vector, [t for tokens in raw.tokens for t in tokens], vocab)
        return docs

    def test_fallback_is_per_row(self, vocab):
        # A normal sentence, an all-idf-0 sentence (raw counts) and an
        # all-out-of-vocabulary sentence (an empty row), side by side.
        raw = _tokenized("d1", "a", [["cocoa", "wheat", "cocoa"], ["price", "price"], ["unseen", "other"]])
        doc = self._check([raw], vocab)[0]
        assert [v.nnz for v in doc.sentence_vectors] == [2, 1, 0]

    def test_empty_rows_at_both_ends_of_the_block(self, vocab):
        raw_docs = [
            _tokenized("d1", "a", [["unseen"], ["nothing", "known"]]),  # empty document vector
            _tokenized("d2", "b", [["wheat", "price"], ["price"], ["cocoa", "wheat"]]),
            _tokenized("d3", "a", [["price", "cocoa", "price"], ["unseen"]]),
            _tokenized("d4", "b", [["other"]]),
        ]
        docs = self._check(raw_docs, vocab)
        assert docs[0].global_vector.nnz == 0 and docs[-1].global_vector.nnz == 0
        assert docs[0].sentence_vectors[0].nnz == 0 and docs[-1].sentence_vectors[-1].nnz == 0

    def test_one_document_block(self, vocab):
        self._check([_tokenized("d1", "b", [["wheat", "wheat", "unseen", "cocoa"]])], vocab)

    def test_no_documents(self, vocab):
        assert vectorize_corpus([], vocab, CategorySet(("a", "b")), corpus.MONO_LABEL) == []


def _eager_rows(raw_docs, vocab):
    """Every sentence vector of ``raw_docs``, normalized all at once over
    the side's weight block by array operations: the eager route that
    the rows read one by one must match."""
    ids, lengths = corpus._term_ids([tokens for raw in raw_docs for tokens in raw.tokens], vocab)
    block = corpus._TfidfBlock(ids, lengths, vocab)
    bounds = block.bounds
    sizes = np.diff(bounds)
    sums = np.array([np.dot(block.weights[a:b], block.weights[a:b]) for a, b in zip(bounds, bounds[1:]) if b > a])
    values = block.weights * np.repeat(1.0 / np.sqrt(sums), sizes[sizes > 0])
    return SparseVector.rows(bounds, block.indices, values, len(vocab))


def _same_bytes(a, b):
    return a.dim == b.dim and a.indices.tobytes() == b.indices.tobytes() and a.values.tobytes() == b.values.tobytes()


class TestSentenceRows:
    """A document's sentence vectors are built on first read, in any
    order, with the bytes of the eagerly normalized block."""

    @pytest.fixture
    def raw_docs(self):
        return [
            # An empty row (no in-vocabulary term), a normal one and an
            # all-idf-0 row (raw counts).
            _tokenized("d1", "a", [["unseen"], ["cocoa", "wheat", "cocoa"], ["price", "price"]]),
            _tokenized("d2", "b", [["wheat", "price"], ["price", "cocoa"], ["other"], ["cocoa"]]),
        ]

    def test_reads_in_any_order_match_the_eager_block(self, raw_docs):
        vocab = _oracle_vocab()
        eager = _eager_rows(raw_docs, vocab)
        d1, d2 = vectorize_corpus(raw_docs, vocab, CategorySet(("a", "b")), corpus.MONO_LABEL)
        assert (len(d1.sentence_vectors), len(d2.sentence_vectors)) == (d1.n_sentences, d2.n_sentences) == (3, 4)
        last = d2.sentence_vectors[-1]  # a negative index first
        middle = d2.sentence_vectors[1:3]  # then a slice, a list
        assert isinstance(middle, list) and len(middle) == 2
        assert d2.sentence_vectors[-3] is middle[0] and d2.sentence_vectors[2] is middle[1]
        assert d2.sentence_vectors[3] is last
        assert list(d1.sentence_vectors[::-1]) == [d1.sentence_vectors[i] for i in (2, 1, 0)]
        lazy = [*d1.sentence_vectors, *d2.sentence_vectors]
        assert len(lazy) == len(eager) == 7
        assert all(_same_bytes(a, b) for a, b in zip(lazy, eager))
        assert [v.nnz for v in d1.sentence_vectors] == [0, 2, 1]
        with pytest.raises(IndexError):
            d1.sentence_vectors[3]
        with pytest.raises(IndexError):
            d1.sentence_vectors[-4]

    def test_synthetic_side_matches_the_eager_block(self):
        spec = synthetic.SyntheticSpec(n_categories=3, docs_per_class=10, sentences_per_doc=5, noise_vocab_size=30, seed=4)
        raw = synthetic.generate(spec)
        vocab = build_vocabulary(raw[::2])
        docs = vectorize_corpus(raw, vocab, CategorySet.from_documents(raw), corpus.MONO_LABEL)
        eager = _eager_rows(raw, vocab)
        # Read the rows back to front, then check each second read.
        lazy = [doc.sentence_vectors[i] for doc in reversed(docs) for i in range(-1, -doc.n_sentences - 1, -1)]
        lazy.reverse()
        assert len(lazy) == len(eager)
        assert all(_same_bytes(a, b) for a, b in zip(lazy, eager))
        assert all(a is b for a, b in zip(lazy, (v for doc in docs for v in doc.sentence_vectors)))

    def test_each_block_is_checked_once_when_vectorized(self, raw_docs, monkeypatch):
        checked = []
        real_check = SparseVector.check_block

        def counting_check(*args):
            checked.append(args)
            return real_check(*args)

        monkeypatch.setattr(SparseVector, "check_block", staticmethod(counting_check))
        docs = vectorize_corpus(raw_docs, _oracle_vocab(), CategorySet(("a", "b")), corpus.MONO_LABEL)
        assert len(checked) == 2  # the sentence block and the document block
        assert sum(v.nnz for doc in docs for v in doc.sentence_vectors) > 0
        assert len(checked) == 2  # reading a row checks nothing again


class TestSplits:
    DOCS = [_doc(f"d{i}", {"a" if i % 2 else "b"}, ["cocoa"]) for i in range(100)]

    def test_sizes(self):
        split = make_splits(self.DOCS, 0.3, 1, seed=5)[0]
        assert len(split.train_ids) == 30 and len(split.test_ids) == 70

    def test_ceil_arithmetic(self):
        split = make_splits(self.DOCS[:10], 0.25, 1, seed=5)[0]
        assert len(split.train_ids) == 3

    def test_deterministic(self):
        a = make_splits(self.DOCS, 0.3, 3, seed=9)
        b = make_splits(self.DOCS, 0.3, 3, seed=9)
        assert [s.train_ids for s in a] == [s.train_ids for s in b]

    def test_runs_differ(self):
        splits = make_splits(self.DOCS, 0.3, 5, seed=9)
        assert len({s.train_ids for s in splits}) > 1

    def test_partition(self):
        split = make_splits(self.DOCS, 0.42, 1, seed=1)[0]
        ids = set(split.train_ids) | set(split.test_ids)
        assert ids == {d.id for d in self.DOCS}
        assert not set(split.train_ids) & set(split.test_ids)

    def test_empty_category_recorded(self):
        docs = [_doc("d0", {"rare"}, ["cocoa"])] + [
            _doc(f"d{i}", {"common"}, ["wheat"]) for i in range(1, 40)
        ]
        splits = make_splits(docs, 0.05, 10, seed=3)
        flagged = [s for s in splits if s.empty_train_categories]
        assert any(s.empty_train_categories == ("rare",) for s in flagged)

    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            make_splits(self.DOCS, 1.0, 1, seed=0)
        with pytest.raises(ValueError):
            make_splits(self.DOCS, 0.0, 1, seed=0)


def test_corpus_stats():
    docs = [_doc("d1", {"a"}, ["one"]), _doc("d2", {"b"}, ["one", "two", "three"])]
    stats = corpus_stats(docs)
    assert stats["n_docs"] == 2
    assert stats["n_categories"] == 2
    assert stats["mean_sentences_per_doc"] == pytest.approx(2.0)
