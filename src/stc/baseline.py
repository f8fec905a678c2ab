"""Whole-document linear baseline.

One-vs-rest hinge-loss classifiers over each document's normalized tf-idf
global vector. Mono-label prediction is the argmax of the per-class
scores; multi-label prediction thresholds each score at zero, falling
back to the argmax when nothing is positive so at least one label is
always assigned. A document set is predicted as one (n x C) int8 matrix
whose row i holds document i's scores from its own ``W[:, idx] @ vals``
product, so each score has the bits a one-document prediction gives it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import Document, MONO_LABEL, TaskMode
from .policy import ClassifierConfig, train_multiclass_ovr

__all__ = ["BaselineModel", "train_baseline", "predict_baseline", "predict_baseline_matrix"]


@dataclass
class BaselineModel:
    weights: np.ndarray  # (C, V)
    mode: TaskMode
    empty_classes: tuple[int, ...] = ()


def train_baseline(train_docs: list[Document], cfg: ClassifierConfig, mode: TaskMode = MONO_LABEL) -> BaselineModel:
    if not train_docs:
        raise ValueError("baseline training needs a non-empty training set")
    xs = [doc.global_vector for doc in train_docs]
    label_matrix = np.stack([doc.y for doc in train_docs])
    weights, empty = train_multiclass_ovr(xs, label_matrix, cfg)
    return BaselineModel(weights=np.stack(weights), mode=mode, empty_classes=tuple(empty))


def predict_baseline_matrix(model: BaselineModel, docs: list[Document]) -> np.ndarray:
    """The (len(docs) x C) int8 predictions of a document set, row i for docs[i]."""
    weights = model.weights
    scores = np.empty((len(docs), weights.shape[0]))
    for i, doc in enumerate(docs):
        x = doc.global_vector
        if x.dim != weights.shape[1]:
            raise ValueError(f"document vector dim {x.dim} does not match model dim {weights.shape[1]}")
        scores[i] = weights[:, x.indices] @ x.values
    y_hat = np.zeros(scores.shape, dtype=np.int8)
    rows = np.arange(len(docs))
    if model.mode == MONO_LABEL:
        y_hat[rows, np.argmax(scores, axis=1)] = 1
    else:
        y_hat[scores > 0.0] = 1
        empty = ~y_hat.any(axis=1)
        y_hat[rows[empty], np.argmax(scores[empty], axis=1)] = 1
    return y_hat


def predict_baseline(model: BaselineModel, doc: Document) -> np.ndarray:
    """One document's int8 prediction: the one-row case of ``predict_baseline_matrix``."""
    return predict_baseline_matrix(model, [doc])[0]
