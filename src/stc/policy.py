"""Linear action scoring, the policies' one choice rule, and the
regularized linear classifier behind the scorer.

The action scorer is a single weight vector over the block state-action
feature space. ``choose`` is the one choice rule, over the legal blocks
``mdp.legal_blocks`` lists for a (document, p, assigned) state: the
greedy policy takes the first maximum of the blocks' scores, so exact
ties go to the fixed action order, and the uniform-random policy draws
one index from its rng. A state with one legal block is taken without
scoring or drawing (``Generator.integers(1)`` would consume no state
either). A scorer reads a state's scores from its document's rows of the
mean and last-sentence parts (``features.ScoreRows``), grown on demand
up to the cursor, plus the assigned-label part, which the greedy choice
adds only when some label is assigned: with none, it is a sum of ±0
terms, and adding ±0 changes no comparison. ``block_scores``,
``q_value`` and ``action_scores`` always add it. Its theta is a private,
read-only copy, so rows grown at different times share one theta.
``select_action`` is ``choose`` for an ``MdpState``, the step of walks
and traces. The policies carry dicts where ``learn`` keeps its episodes,
outcomes and F1s for the one round the policy drives.

The classifier minimizes an L2-regularized hinge loss by stochastic
subgradient descent with step size 1/(lambda*t). Its weight vector is
made of equal-sized blocks, and each example names the block its
features sit in: the action scorer has one block per action, the
whole-document baseline (one-vs-rest) has one. Its input is one
``Examples`` value: the distinct feature vectors plus per-example row,
block and label columns, so no per-example object is built. The
objective and subgradient oracles (``hinge_objective``,
``hinge_subgradient``) take plain (x, y) pairs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import features
from .corpus import MONO_LABEL
from .mdp import Action, MdpState, action_block, available_actions, block_action, legal_blocks, n_action_blocks
from .sparse import SparseVector

__all__ = [
    "LinearQ",
    "ClassifierConfig",
    "Greedy",
    "UniformRandom",
    "q_value",
    "action_scores",
    "choose",
    "select_action",
    "policy_callable",
    "Examples",
    "train_linear",
    "train_multiclass_ovr",
    "hinge_objective",
    "hinge_subgradient",
    "save_model",
    "load_model",
]

MODEL_FORMAT_VERSION = 1


@dataclass
class LinearQ:
    theta: np.ndarray  # length (C + 2) * (2V + C)
    n_categories: int
    state_dim: int  # 2V + C
    # Per-document score rows (features.ScoreRows), grown on demand and
    # keyed by document identity.
    _tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        theta = np.array(self.theta, dtype=np.float64)
        expected = n_action_blocks(self.n_categories) * self.state_dim
        if theta.shape != (expected,):
            raise ValueError(f"theta has shape {theta.shape}, expected ({expected},)")
        if not np.all(np.isfinite(theta)):
            raise ValueError("theta contains non-finite entries")
        theta.setflags(write=False)
        self.theta = theta

    def blocks(self) -> np.ndarray:
        return self.theta.reshape(n_action_blocks(self.n_categories), self.state_dim)

    def score_rows(self, doc) -> features.ScoreRows:
        """The document's score rows, without the assigned block."""
        rows = self._tables.get(doc)
        if rows is None:
            rows = self._tables[doc] = features.ScoreRows(doc, self.blocks())
        return rows

    def assigned_scores(self, assigned) -> np.ndarray:
        """The assigned-label part of every block's score."""
        return self.blocks()[:, self.state_dim - self.n_categories :] @ assigned

    def block_scores(self, state: MdpState) -> np.ndarray:
        """Scores of all C + 2 action blocks in a live state."""
        if state.halted:
            raise ValueError("halted states have no action scores")
        return self.score_rows(state.doc).row(state.p) + self.assigned_scores(state.assigned)

    @staticmethod
    def zeros(n_categories: int, state_dim: int) -> "LinearQ":
        blocks = n_action_blocks(n_categories)
        return LinearQ(np.zeros(blocks * state_dim), n_categories, state_dim)


@dataclass(frozen=True)
class ClassifierConfig:
    lam: float = 1e-3
    epochs: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("regularization strength must be positive")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")


@dataclass(frozen=True)
class Greedy:
    q: LinearQ
    # Filled by ``learn`` while the policy drives a round, over (p, assigned)
    # pairs of a document's live states: ``episodes`` maps (document
    # identity, mode) to the live pairs of the policy's episode from the
    # start, ``outcomes`` maps (document identity, mode, p, assigned) to the
    # final pair of the episode from that pair, and ``f1`` maps (document
    # identity, assigned) to the F1 of that assignment against the
    # document's labels.
    episodes: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    outcomes: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    f1: dict = field(default_factory=dict, init=False, repr=False, compare=False)


@dataclass(frozen=True)
class UniformRandom:
    """Uniform choice among the legal actions; the caller supplies the rng.
    ``f1`` is filled by ``learn`` as on ``Greedy``."""

    f1: dict = field(default_factory=dict, init=False, repr=False, compare=False)


Policy = Greedy | UniformRandom


def q_value(q: LinearQ, state: MdpState, action: Action) -> float:
    return float(q.block_scores(state)[action_block(action, q.n_categories)])


def action_scores(q: LinearQ, state: MdpState, mode: str) -> list[tuple[Action, float]]:
    """Scores of every legal action, in the fixed action order."""
    scores = q.block_scores(state)
    return [(a, float(scores[action_block(a, q.n_categories)])) for a in available_actions(state, mode)]


def choose(
    policy: Policy,
    doc,
    p: int,
    assigned: tuple[int, ...],
    legal: tuple[int, ...],
    rng: np.random.Generator | None = None,
) -> int:
    """The block the policy takes among the ``legal`` blocks of the live
    state (doc, p, assigned): the greedy first maximum, or a uniform draw
    from ``rng``, which a uniform-random policy requires."""
    if isinstance(policy, Greedy):
        if len(legal) == 1:
            return legal[0]
        q = policy.q
        scores = q.score_rows(doc).row(p)
        if any(assigned):
            scores = scores + q.assigned_scores(assigned)
        return max(legal, key=scores.tolist().__getitem__)  # max keeps the first of equal maxima
    if rng is None:
        raise ValueError("a uniform-random policy needs an rng")
    if len(legal) == 1:
        return legal[0]
    return legal[int(rng.integers(len(legal)))]


def select_action(
    policy: Policy,
    state: MdpState,
    mode: str,
    rng: np.random.Generator | None = None,
) -> Action:
    """The action of the block ``choose`` takes in ``state``."""
    if state.halted:
        raise ValueError("no actions are available in a halted state")
    legal = legal_blocks(state.assigned, state.p < state.doc.n_sentences, mode == MONO_LABEL)
    return block_action(choose(policy, state.doc, state.p, state.assigned, legal, rng), len(state.assigned))


def policy_callable(policy: Policy, mode: str, rng: np.random.Generator | None = None):
    """Adapt a policy value to the bare state -> action callable episodes use."""
    return lambda state: select_action(policy, state, mode, rng)


@dataclass(frozen=True, eq=False)  # compared by identity: its columns are arrays
class Examples:
    """Training examples as columns: example i is the feature vector
    ``rows[row[i]]``, placed in block ``block[i]`` of the weights, with
    label ``label[i]`` (+1 or -1). Examples that share a feature vector
    share its row, so a round's examples hold one vector per labelled
    state and three ints each."""

    rows: Sequence[SparseVector]  # the distinct feature vectors
    row: np.ndarray  # int64, per example
    block: np.ndarray  # int64, per example
    label: np.ndarray  # int64, per example

    def __len__(self) -> int:
        return len(self.label)


def _check_examples(examples: Examples, n_blocks: int) -> int:
    """Check the columns once; the dimension of the feature vectors."""
    if not len(examples):
        raise ValueError("no training examples")
    if not len(examples.row) == len(examples.block) == len(examples.label):
        raise ValueError("the row, block and label columns differ in length")
    if examples.row.min() < 0 or examples.row.max() >= len(examples.rows):
        raise ValueError(f"example rows must lie in 0..{len(examples.rows) - 1}")
    # A set of the labels' ints, not np.unique: np.unique sorts a copy of
    # the whole column, which raised a grid worker's peak RSS by 1.4 MB.
    labels = set(examples.label.tolist())
    if not labels <= {-1, 1}:
        raise ValueError(f"labels must be +1/-1, got {sorted(labels)}")
    if len(labels) < 2:
        raise ValueError("training requires at least one example of each label")
    if examples.block.min() < 0 or examples.block.max() >= n_blocks:
        raise ValueError(f"example blocks must lie in 0..{n_blocks - 1}")
    dim = examples.rows[0].dim
    if any(x.dim != dim for x in examples.rows):
        raise ValueError("examples have inconsistent dimensions")
    return dim


def train_linear(examples: Examples, cfg: ClassifierConfig, n_blocks: int = 1) -> np.ndarray:
    """Stochastic subgradient descent on the L2-regularized hinge loss.

    The weight vector is ``n_blocks`` blocks of x's dimension, and
    example i is x = ``examples.rows[examples.row[i]]`` placed in block
    ``examples.block[i]``, with label y = ``examples.label[i]``.
    Objective: lam/2 * ||theta||^2 + mean_i max(0, 1 - y_i <theta, x_i>),
    minimized over ``cfg.epochs`` shuffled passes with step 1/(lam * t).
    Deterministic given the example order and seed. The weight vector is
    kept as scale * direction so each update touches only the example's
    support; indexing a block's row gives the sums and updates that the
    flat vector of x placed in the block would. The margin is the
    ndarray ``dot`` of the gathered weights and x's values: the same BLAS
    ddot that ``@`` reaches, without the matmul dispatch. The columns are
    read as Python lists, made once per fit.
    """
    dim = _check_examples(examples, n_blocks)
    lam = cfg.lam
    v = np.zeros(n_blocks * dim)
    weight_rows = v.reshape(n_blocks, dim)  # a view: updates to a row land in v
    xs = examples.rows
    row, block, label = examples.row.tolist(), examples.block.tolist(), examples.label.tolist()
    scale = 1.0
    t = 0
    rng = np.random.default_rng(cfg.seed)
    order = np.arange(len(label))
    for _ in range(cfg.epochs):
        rng.shuffle(order)
        for i in order.tolist():
            t += 1
            x, w, y = xs[row[i]], weight_rows[block[i]], label[i]
            eta = 1.0 / (lam * t)
            margin = y * scale * w[x.indices].dot(x.values)
            scale *= 1.0 - eta * lam  # = 1 - 1/t; zero exactly at t == 1
            if scale == 0.0:
                v[:] = 0.0
                scale = 1.0
            if margin < 1.0:
                w[x.indices] += (eta * y / scale) * x.values
            if scale < 1e-9:
                v *= scale
                scale = 1.0
    return scale * v


def train_multiclass_ovr(
    xs: Sequence[SparseVector],
    label_matrix: np.ndarray,
    cfg: ClassifierConfig,
) -> tuple[list[np.ndarray], list[int]]:
    """One binary classifier per class, class k against the rest.

    Every class fits the same rows, one per document, in block 0; only
    the label column changes. Returns (weight vectors, indices of classes
    that had no positive training example and were given an all-zero
    weight vector).
    """
    label_matrix = np.asarray(label_matrix)
    if label_matrix.ndim != 2 or label_matrix.shape[1] < 2:
        raise ValueError("label matrix must be (n_examples, C) with C >= 2")
    if len(xs) != label_matrix.shape[0]:
        raise ValueError("example/label count mismatch")
    dim = xs[0].dim
    row = np.arange(len(xs))
    block = np.zeros(len(xs), dtype=np.int64)
    weights: list[np.ndarray] = []
    empty_classes: list[int] = []
    for k in range(label_matrix.shape[1]):
        signs = np.where(label_matrix[:, k] == 1, 1, -1)
        if np.all(signs == -1):
            weights.append(np.zeros(dim))
            empty_classes.append(k)
            continue
        if np.all(signs == 1):
            # Degenerate but well-defined: everything is the class.
            weights.append(np.zeros(dim))
            empty_classes.append(k)
            continue
        per_class_cfg = ClassifierConfig(lam=cfg.lam, epochs=cfg.epochs, seed=cfg.seed + k)
        weights.append(train_linear(Examples(xs, row, block, signs), per_class_cfg))
    return weights, empty_classes


def hinge_objective(
    theta: np.ndarray, examples: Sequence[tuple[SparseVector, int]], lam: float
) -> float:
    total = 0.0
    for x, y in examples:
        total += max(0.0, 1.0 - y * float(theta[x.indices] @ x.values))
    return 0.5 * lam * float(theta @ theta) + total / len(examples)


def hinge_subgradient(
    theta: np.ndarray, examples: Sequence[tuple[SparseVector, int]], lam: float
) -> np.ndarray:
    """Subgradient of the full objective; the zero branch is taken at kinks."""
    g = lam * theta.copy()
    inv_m = 1.0 / len(examples)
    for x, y in examples:
        if y * float(theta[x.indices] @ x.values) < 1.0:
            g[x.indices] -= (inv_m * y) * x.values
    return g


def save_model(
    path,
    kind: str,
    mode: str,
    categories: Sequence[str],
    vocab_checksum: str,
    weights: dict[str, np.ndarray],
    metadata: dict | None = None,
) -> None:
    """Write a versioned model record with sparse weight storage."""
    record = {
        "format_version": MODEL_FORMAT_VERSION,
        "kind": kind,
        "mode": mode,
        "categories": list(categories),
        "vocab_checksum": vocab_checksum,
        "block_mapping": {
            **{f"classify:{k}": k for k in range(len(categories))},
            "next": len(categories),
            "stop": len(categories) + 1,
        },
        "weights": {},
        "metadata": metadata or {},
    }
    for name, vec in weights.items():
        idx = np.nonzero(vec)[0]
        record["weights"][name] = {
            "dim": int(vec.shape[0]),
            "indices": idx.tolist(),
            "values": vec[idx].tolist(),
        }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def load_model(path, expected_checksum: str | None = None) -> dict:
    """The record that ``save_model`` wrote, with dense weights.

    A file that cannot be read, is not a JSON object, has another format
    version, lacks a field or fails ``expected_checksum`` raises one
    ``ValueError`` that names ``path``.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
        if not isinstance(record, dict):
            raise ValueError("not a JSON object")
        if record.get("format_version") != MODEL_FORMAT_VERSION:
            raise ValueError(f"unsupported model format version {record.get('format_version')!r}")
        for key in ("kind", "mode", "categories", "vocab_checksum", "weights", "metadata"):
            if key not in record:
                raise ValueError(f"missing field {key!r}")
        if expected_checksum is not None and record["vocab_checksum"] != expected_checksum:
            raise ValueError("vocabulary checksum mismatch: model was trained against a different vocabulary")
        weights = {}
        for name, w in record["weights"].items():
            vec = np.zeros(w["dim"])
            vec[np.asarray(w["indices"], dtype=np.int64)] = w["values"]
            weights[name] = vec
    except OSError as exc:
        raise ValueError(f"model file {path}: {exc.strerror}") from None
    except KeyError as exc:
        raise ValueError(f"model file {path}: missing field {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"model file {path}: not JSON ({exc})") from None
    except ValueError as exc:
        raise ValueError(f"model file {path}: {exc}") from None
    record["weights"] = weights
    return record
