"""Corpus loading, vocabulary construction, and tf-idf vectorization.

The canonical on-disk corpus format is UTF-8 JSON lines, one document per
line: ``{"id": str, "labels": [str], "sentences": [str]}`` (``"text"`` may
replace ``"sentences"``, in which case it is split on periods). A
converter is provided for the tab-separated ``label<TAB>text`` layout used
by the public single-file distributions of the Reuters/20NG/WebKB corpora.

Vocabulary and idf are built from training documents only; test documents
are vectorized against the frozen training vocabulary, with
out-of-vocabulary terms dropped. tf is the raw in-sentence count, idf is
ln(N_train / df), and every non-empty vector is L2-normalized.

``vectorize_corpus`` vectorizes a whole split side per call: one pass maps
every token to its term id, one ``np.unique`` counts the terms of every
sentence, and the sentences' tf-idf weights are one CSR block, validated
once (``SparseVector.check_block``). The document vectors are a second
block over the same term ids. A row is L2-normalized and wrapped as a
``SparseVector`` by one routine (``_TfidfBlock.row``): every document
vector is built at once, because the baseline reads them all, and each
sentence vector when it is first read (``SentenceRows``), because an
episode mostly stops after a few sentences. ``vectorize_sentence`` is the
one-row case of the same routine, so there is one tf-idf code path.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, repeat
from typing import Sequence

import numpy as np

from . import preprocess
from .sparse import SparseVector

__all__ = [
    "RawDocument",
    "CategorySet",
    "Vocabulary",
    "Document",
    "SentenceRows",
    "Split",
    "TaskMode",
    "load_jsonl",
    "save_jsonl",
    "convert_cardoso",
    "convert_dirs_by_class",
    "build_vocabulary",
    "vectorize_sentence",
    "check_labels",
    "vectorize_corpus",
    "split_sides",
    "prepare_split",
    "make_splits",
    "corpus_stats",
]

# Task modes are plain strings so they serialize trivially.
MONO_LABEL = "mono"
MULTI_LABEL = "multi"
TaskMode = str


@dataclass
class RawDocument:
    id: str
    labels: frozenset[str]
    sentences: list[str]  # raw sentence strings, period-free
    provenance: str | None = None  # e.g. "train"/"test" for converted corpora

    def __post_init__(self):
        if not self.labels:
            raise ValueError(f"document {self.id!r} has no labels")
        if not self.sentences:
            raise ValueError(f"document {self.id!r} has no sentences")

    @cached_property
    def tokens(self) -> list[list[str]]:
        """Preprocessed tokens of each sentence, computed on first use.

        Tokenizing does not depend on the split a document lands in, so
        every split of a corpus shares these lists.
        """
        return [preprocess.preprocess_sentence(s) for s in self.sentences]


@dataclass(frozen=True)
class CategorySet:
    names: tuple[str, ...]  # lexicographically ordered

    def __post_init__(self):
        if len(self.names) < 2:
            raise ValueError("need at least two categories")
        if list(self.names) != sorted(self.names):
            raise ValueError("category names must be sorted")

    @staticmethod
    def from_documents(docs: list[RawDocument]) -> "CategorySet":
        names = sorted({label for d in docs for label in d.labels})
        return CategorySet(tuple(names))

    def __len__(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown category {name!r}") from None

    def label_vector(self, labels: frozenset[str]) -> np.ndarray:
        y = np.zeros(len(self.names), dtype=np.int8)
        for name in labels:
            y[self.index(name)] = 1
        return y


class Vocabulary:
    """Term index, document frequencies, and idf built from a training split.

    Frozen after construction: vectorizing unseen documents never mutates it.
    """

    def __init__(self, index: dict[str, int], df: dict[str, int], n_train_docs: int):
        self.index = dict(index)
        self.df = dict(df)
        self.n_train_docs = int(n_train_docs)
        self.idf = np.zeros(len(self.index))
        for term, i in self.index.items():
            self.idf[i] = math.log(self.n_train_docs / self.df[term])

    def __len__(self) -> int:
        return len(self.index)

    def __contains__(self, term: str) -> bool:
        return term in self.index

    def checksum(self) -> str:
        """Stable digest of (term, index, df, N); guards model/corpus pairing."""
        h = hashlib.sha256()
        h.update(str(self.n_train_docs).encode())
        for term in sorted(self.index):
            h.update(f"{term}\x00{self.index[term]}\x00{self.df[term]}\x1e".encode())
        return h.hexdigest()

    def to_record(self) -> dict:
        return {
            "n_train_docs": self.n_train_docs,
            "terms": {t: [self.index[t], self.df[t]] for t in self.index},
        }

    @staticmethod
    def from_record(record: dict) -> "Vocabulary":
        index = {t: v[0] for t, v in record["terms"].items()}
        df = {t: v[1] for t, v in record["terms"].items()}
        return Vocabulary(index, df, record["n_train_docs"])


@dataclass(eq=False)  # compared and hashed by identity
class Document:
    id: str
    y: np.ndarray  # int8 binary label vector, length C
    sentence_vectors: Sequence[SparseVector]  # SentenceRows or a plain list
    global_vector: SparseVector
    n_sentences: int = field(init=False, repr=False)  # a plain attribute: the MDP reads it every step

    def __post_init__(self):
        self.n_sentences = len(self.sentence_vectors)


@dataclass(frozen=True)
class Split:
    train_ids: tuple[str, ...]
    test_ids: tuple[str, ...]
    train_fraction: float
    run_index: int
    seed: int
    empty_train_categories: tuple[str, ...] = ()

    def to_record(self) -> dict:
        return {
            "seed": self.seed,
            "fraction": self.train_fraction,
            "run": self.run_index,
            "train": list(self.train_ids),
            "test": list(self.test_ids),
            "empty_train_categories": list(self.empty_train_categories),
        }


def _raw_document_from_record(record: dict, line_no: int) -> RawDocument | None:
    for key in ("id", "labels"):
        if key not in record:
            raise ValueError(f"line {line_no}: missing field {key!r}")
    if "sentences" in record:
        sentences = [s for s in record["sentences"] if s.strip()]
    elif "text" in record:
        sentences = preprocess.split_sentences(record["text"])
    else:
        raise ValueError(f"line {line_no}: need 'sentences' or 'text'")
    labels = frozenset(record["labels"])
    if not labels:
        raise ValueError(f"line {line_no}: empty label list")
    if not sentences:
        return None
    return RawDocument(
        id=str(record["id"]),
        labels=labels,
        sentences=sentences,
        provenance=record.get("provenance"),
    )


def load_jsonl(path) -> tuple[list[RawDocument], int]:
    """Load a canonical corpus file.

    Returns (documents, n_dropped) where dropped documents are those whose
    sentences were all empty. Malformed lines and duplicate ids raise.
    """
    docs: list[RawDocument] = []
    seen: set[str] = set()
    dropped = 0
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"line {line_no}: invalid JSON ({exc})") from None
            doc = _raw_document_from_record(record, line_no)
            if doc is None:
                dropped += 1
                continue
            if doc.id in seen:
                raise ValueError(f"line {line_no}: duplicate id {doc.id!r}")
            seen.add(doc.id)
            docs.append(doc)
    return docs, dropped


def save_jsonl(docs: list[RawDocument], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for doc in docs:
            record = {"id": doc.id, "labels": sorted(doc.labels), "sentences": doc.sentences}
            if doc.provenance:
                record["provenance"] = doc.provenance
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def convert_cardoso(train_path, test_path) -> list[RawDocument]:
    """Convert the single-file ``label<TAB>text`` corpus layout.

    Blank lines are skipped; a missing tab separator is an error naming the
    line. Provenance (train/test) is preserved as document metadata.
    """
    docs: list[RawDocument] = []
    for provenance, path in (("train", train_path), ("test", test_path)):
        with open(path, encoding="utf-8", errors="replace") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if not line.strip():
                    continue
                if "\t" not in line:
                    raise ValueError(f"{path}: line {line_no}: missing tab separator")
                label, text = line.split("\t", 1)
                sentences = preprocess.split_sentences(text)
                if not sentences:
                    continue
                docs.append(
                    RawDocument(
                        id=f"{provenance}-{line_no:06d}",
                        labels=frozenset([label.strip()]),
                        sentences=sentences,
                        provenance=provenance,
                    )
                )
    return docs


def convert_dirs_by_class(root) -> list[RawDocument]:
    """Convert a directory-per-category tree of plain-text files."""
    from pathlib import Path

    root = Path(root)
    class_dirs = sorted(p for p in root.iterdir() if p.is_dir())
    if not class_dirs:
        raise ValueError(f"{root}: no category subdirectories")
    docs: list[RawDocument] = []
    for class_dir in class_dirs:
        for path in sorted(class_dir.rglob("*")):
            if not path.is_file():
                continue
            text = path.read_text(encoding="utf-8", errors="replace")
            sentences = preprocess.split_sentences(text)
            if not sentences:
                continue
            docs.append(
                RawDocument(
                    id=f"{class_dir.name}/{path.relative_to(class_dir)}",
                    labels=frozenset([class_dir.name]),
                    sentences=sentences,
                )
            )
    return docs


def build_vocabulary(train_docs: list[RawDocument]) -> Vocabulary:
    """Vocabulary over the training documents only.

    df counts documents (not sentences) containing a term; term indices
    follow first-seen order over the given document order.
    """
    if not train_docs:
        raise ValueError("cannot build a vocabulary from zero documents")
    index: dict[str, int] = {}
    df: Counter[str] = Counter()
    for doc in train_docs:
        doc_terms: set[str] = set()
        for tokens in doc.tokens:
            for term in tokens:
                if term not in index:
                    index[term] = len(index)
                doc_terms.add(term)
        df.update(doc_terms)
    return Vocabulary(index, dict(df), len(train_docs))


class _TfidfBlock:
    """tf-idf weights of consecutive token runs, one CSR block validated
    once, and each run's L2-normalized vector on demand.

    ``ids`` holds the term id of every token (-1 out of vocabulary) and
    row r owns the next ``lengths[r]`` of them. Each row's terms and
    counts come from one ``np.unique`` over ``row * V + id``, in
    increasing term order. Each weight is count * idf; a row whose
    in-vocabulary terms all weigh zero (all idf zero) uses its raw counts
    instead, so any row with in-vocabulary content is a unit vector. Zero
    weights are dropped. ``row(r)`` scales row r by 1 / norm, its norm
    summing the row's squared weights in index order.
    """

    __slots__ = ("bounds", "indices", "weights", "dim")

    def __init__(self, ids: np.ndarray, lengths: np.ndarray, vocab: Vocabulary):
        dim = len(vocab)
        rows = np.repeat(np.arange(lengths.size, dtype=np.int64), lengths)
        known = ids >= 0
        keys, counts = np.unique(rows[known] * dim + ids[known], return_counts=True)
        rows, indices = np.divmod(keys, dim)
        weights = counts * vocab.idf[indices]
        weighted = np.zeros(lengths.size, dtype=bool)
        weighted[rows[weights != 0.0]] = True
        fallback = ~weighted[rows]
        weights[fallback] = counts[fallback]
        nonzero = weights != 0.0
        rows, indices, weights = rows[nonzero], indices[nonzero], weights[nonzero]
        indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=lengths.size))))
        indptr, self.indices, self.weights = SparseVector.check_block(indptr, indices, weights, dim)
        self.bounds = indptr.tolist()
        self.dim = dim

    def row(self, r: int) -> SparseVector:
        """Row r as a unit vector (empty if the row has no terms)."""
        a, b = self.bounds[r], self.bounds[r + 1]
        weights = self.weights[a:b]
        if b > a:
            weights = weights * (1.0 / np.sqrt(np.dot(weights, weights)))
        return SparseVector.view(self.indices[a:b], weights, self.dim)


class SentenceRows:
    """One document's sentence vectors: a read-only sequence over its rows
    of the split side's ``_TfidfBlock``.

    Row i is normalized and wrapped the first time it is read, then kept,
    so a second read returns the same vector. Slices are lists. Most
    episodes stop after a few sentences, so most rows are never built.
    """

    __slots__ = ("_block", "_first", "_vectors")

    def __init__(self, block: _TfidfBlock, first: int, n: int):
        self._block = block
        self._first = first
        self._vectors: list[SparseVector | None] = [None] * n

    def __len__(self) -> int:
        return len(self._vectors)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self._vectors)))]
        vec = self._vectors[i]
        if vec is None:
            i = range(len(self._vectors))[i]  # the non-negative index
            vec = self._vectors[i] = self._block.row(self._first + i)
        return vec

    def __iter__(self):
        return map(self.__getitem__, range(len(self._vectors)))


def _term_ids(sentences: list[list[str]], vocab: Vocabulary) -> tuple[np.ndarray, np.ndarray]:
    """Term id of every token of ``sentences`` (-1 out of vocabulary), and
    each sentence's token count."""
    lengths = np.fromiter(map(len, sentences), dtype=np.int64, count=len(sentences))
    tokens = chain.from_iterable(sentences)
    ids = np.fromiter(map(vocab.index.get, tokens, repeat(-1)), dtype=np.int64, count=int(lengths.sum()))
    return ids, lengths


def vectorize_sentence(tokens: list[str], vocab: Vocabulary) -> SparseVector:
    """L2-normalized tf-idf vector of one tokenized sentence.

    Out-of-vocabulary tokens are dropped. If every tf-idf weight is zero
    (all idf zero) the raw term counts are normalized instead, so any
    sentence with in-vocabulary content yields a unit vector. This is the
    one-row case of ``vectorize_corpus``.
    """
    return _TfidfBlock(*_term_ids([tokens], vocab), vocab).row(0)


def check_labels(raw_docs: list[RawDocument], mode: TaskMode, categories: CategorySet | None = None) -> None:
    """Reject, with a ``ValueError`` naming it, the first document whose
    labels the task cannot score: one with several labels in mono-label
    mode, or, when ``categories`` is given, one with a label outside them."""
    known = None if categories is None else set(categories.names)
    for raw in raw_docs:
        if mode == MONO_LABEL and len(raw.labels) != 1:
            raise ValueError(f"document {raw.id!r} has {len(raw.labels)} labels in mono-label mode")
        if known is not None and not raw.labels <= known:
            raise ValueError(f"document {raw.id!r} has unknown category {min(raw.labels - known)!r}")


def vectorize_corpus(
    raw_docs: list[RawDocument],
    vocab: Vocabulary,
    categories: CategorySet,
    mode: TaskMode = MONO_LABEL,
) -> list[Document]:
    """Per-sentence tf-idf vectors plus one whole-document vector per doc.

    Every sentence of ``raw_docs`` is one row of one CSR block, and every
    document one row of a second block, built from the same token ids.
    A document's sentence vectors are its ``SentenceRows``, built on first
    read; its document vector is built here, since the baseline reads
    every one. Unknown labels raise, and so does a document that
    ``check_labels`` rejects under ``mode``.
    """
    check_labels(raw_docs, mode)
    labels = [categories.label_vector(raw.labels) for raw in raw_docs]
    ids, lengths = _term_ids([tokens for raw in raw_docs for tokens in raw.tokens], vocab)
    sentences = _TfidfBlock(ids, lengths, vocab)
    n_sentences = np.fromiter((len(raw.tokens) for raw in raw_docs), dtype=np.int64, count=len(raw_docs))
    first = np.concatenate(([0], np.cumsum(n_sentences)))
    token_bounds = np.concatenate(([0], np.cumsum(lengths)))[first]
    documents = _TfidfBlock(ids, np.diff(token_bounds), vocab)
    return [
        Document(id=raw.id, y=y, sentence_vectors=SentenceRows(sentences, a, n), global_vector=documents.row(r))
        for r, (raw, y, a, n) in enumerate(zip(raw_docs, labels, first[:-1].tolist(), n_sentences.tolist()))
    ]


def split_sides(raw_docs: list[RawDocument], split: Split) -> tuple[list[RawDocument], list[RawDocument]]:
    """The split's training and test documents, in the split's id order."""
    by_id = {d.id: d for d in raw_docs}
    return [by_id[i] for i in split.train_ids], [by_id[i] for i in split.test_ids]


def prepare_split(
    raw_docs: list[RawDocument],
    categories: CategorySet,
    split: Split,
    mode: TaskMode,
) -> tuple[Vocabulary, list[Document], list[Document]]:
    """Vocabulary and idf from the split's training side, and the vectors
    of both sides against that vocabulary."""
    train_raw, test_raw = split_sides(raw_docs, split)
    vocab = build_vocabulary(train_raw)
    train_docs = vectorize_corpus(train_raw, vocab, categories, mode)
    test_docs = vectorize_corpus(test_raw, vocab, categories, mode)
    return vocab, train_docs, test_docs


def make_splits(
    raw_docs: list[RawDocument],
    train_fraction: float,
    n_runs: int,
    seed: int,
) -> list[Split]:
    """Reproducible random train/test splits.

    Each run shuffles the document ids with an rng derived from
    (seed, run_index) and takes ceil(fraction * N) ids for training.
    Categories left without training documents are recorded on the split
    rather than rejected; tiny fractions make them unavoidable.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must lie strictly between 0 and 1")
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    ids = [d.id for d in raw_docs]
    labels_by_id = {d.id: d.labels for d in raw_docs}
    all_categories = sorted({label for d in raw_docs for label in d.labels})
    n_train = math.ceil(train_fraction * len(ids))
    splits = []
    for run_index in range(n_runs):
        rng = np.random.default_rng([seed, run_index])
        order = list(ids)
        rng.shuffle(order)
        train_ids = tuple(order[:n_train])
        test_ids = tuple(order[n_train:])
        covered = {label for i in train_ids for label in labels_by_id[i]}
        empty = tuple(c for c in all_categories if c not in covered)
        splits.append(
            Split(
                train_ids=train_ids,
                test_ids=test_ids,
                train_fraction=train_fraction,
                run_index=run_index,
                seed=seed,
                empty_train_categories=empty,
            )
        )
    return splits


def corpus_stats(raw_docs: list[RawDocument]) -> dict:
    n_sentences = [len(d.sentences) for d in raw_docs]
    categories = {label for d in raw_docs for label in d.labels}
    return {
        "n_docs": len(raw_docs),
        "n_categories": len(categories),
        "mean_sentences_per_doc": float(np.mean(n_sentences)) if n_sentences else 0.0,
    }
