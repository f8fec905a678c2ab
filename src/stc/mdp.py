"""Deterministic episodic decision process for sentence-by-sentence reading.

A state is (document, cursor p, assigned labels, halted). From any live
state the agent may assign a not-yet-assigned category, read the next
sentence (when one remains), or stop. Stopping is the only way to halt,
so a state is terminal exactly when it is halted. The episode reward is
the F1 of the final assignment against the document's true labels, paid
on the halting transition and zero elsewhere.

In mono-label mode assigning a label restricts the remaining action set
to {stop}, so an episode carries at most one assignment and its reward is
the 0/1 accuracy of that choice.

Each action owns one block of the scorer's weights: classify(k) -> k,
next -> C, stop -> C + 1. ``legal_blocks`` is the one legality rule, keyed
by plain values, so the learner's episode engine (``learn``) runs on it
without building states; ``available_actions`` and ``check_action`` apply
it to states. Legal-block and action tuples, classify actions and
assignment tuples are interned. ``steps`` and ``walk`` follow a policy
callable from a state, checking every action and building successors
without ``MdpState``'s cursor check, which a legal action cannot fail:
traces, arbitrary callables and the tests' reference episodes walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .corpus import Document, MONO_LABEL, TaskMode

__all__ = [
    "Action",
    "MdpState",
    "EpisodeLog",
    "NEXT",
    "STOP",
    "classify",
    "n_action_blocks",
    "action_block",
    "block_action",
    "no_labels",
    "with_label",
    "initial_state",
    "legal_blocks",
    "available_actions",
    "check_action",
    "transition",
    "is_terminal",
    "prf1",
    "prf1_from_counts",
    "reward",
    "steps",
    "walk",
    "run_episode",
    "max_episode_steps",
]


@dataclass(frozen=True, slots=True)
class Action:
    kind: str  # "classify" | "next" | "stop"
    category: int = -1  # category index for classify actions

    def __str__(self) -> str:
        if self.kind == "classify":
            return f"classify:{self.category}"
        return self.kind


NEXT = Action("next")
STOP = Action("stop")


_CLASSIFY: dict[int, Action] = {}


def classify(category: int) -> Action:
    """The classify action of ``category``, one interned object per index."""
    action = _CLASSIFY.get(category)
    if action is None:
        action = _CLASSIFY[category] = Action("classify", category)
    return action


def n_action_blocks(n_categories: int) -> int:
    return n_categories + 2


def action_block(action: Action, n_categories: int) -> int:
    """The block of the scorer's weights that scores ``action``."""
    if action.kind == "classify":
        return action.category
    if action.kind == "next":
        return n_categories
    return n_categories + 1


def block_action(block: int, n_categories: int) -> Action:
    """The action ``block`` scores: the inverse of ``action_block``."""
    if block < n_categories:
        return classify(block)
    return NEXT if block == n_categories else STOP


# Interned assignment tuples, built on first use: the all-zero one per C,
# and the one with label k added per (assigned, k).
_NO_LABELS: dict[int, tuple[int, ...]] = {}
_WITH_LABEL: dict[tuple[tuple[int, ...], int], tuple[int, ...]] = {}


def no_labels(n_categories: int) -> tuple[int, ...]:
    """The empty assignment of C categories, one interned tuple per C."""
    assigned = _NO_LABELS.get(n_categories)
    if assigned is None:
        assigned = _NO_LABELS[n_categories] = (0,) * n_categories
    return assigned


def with_label(assigned: tuple[int, ...], k: int) -> tuple[int, ...]:
    """``assigned`` with label k set, one interned tuple per (assigned, k)."""
    key = (assigned, k)
    successor = _WITH_LABEL.get(key)
    if successor is None:
        labels = list(assigned)
        labels[k] = 1
        successor = _WITH_LABEL[key] = tuple(labels)
    return successor


@dataclass(frozen=True, slots=True)
class MdpState:
    doc: Document
    p: int  # 1-based cursor; sentences 1..p are read
    assigned: tuple[int, ...]  # binary, length C
    halted: bool = False

    def __post_init__(self):
        if not 1 <= self.p <= self.doc.n_sentences:
            raise ValueError(f"cursor {self.p} outside 1..{self.doc.n_sentences}")


_new_state = object.__new__
_set_doc, _set_p = MdpState.doc.__set__, MdpState.p.__set__
_set_assigned, _set_halted = MdpState.assigned.__set__, MdpState.halted.__set__


def _successor(state: MdpState, action: Action) -> MdpState:
    """The state a legal action leads to, built without the cursor check:
    a legal next keeps the cursor within the document."""
    successor = _new_state(MdpState)
    _set_doc(successor, state.doc)
    if action.kind == "classify":
        _set_assigned(successor, with_label(state.assigned, action.category))
    else:
        _set_assigned(successor, state.assigned)
    _set_p(successor, state.p + 1 if action.kind == "next" else state.p)
    _set_halted(successor, action.kind == "stop")
    return successor


@dataclass(frozen=True)
class EpisodeLog:
    doc_id: str
    actions: tuple[Action, ...]
    sentences_read: int  # highest cursor visited
    n_sentences: int
    final_assigned: tuple[int, ...]
    reward: float

    def to_record(self) -> dict:
        return {
            "doc_id": self.doc_id,
            "actions": [str(a) for a in self.actions],
            "read": self.sentences_read,
            "n": self.n_sentences,
            "yhat": list(self.final_assigned),
            "reward": self.reward,
        }


def initial_state(doc: Document) -> MdpState:
    return MdpState(doc=doc, p=1, assigned=no_labels(len(doc.y)), halted=False)


# Legal blocks by (assigned, next legal, mono), and legal actions by (legal
# blocks, C), built on first use.
_LEGAL_BLOCKS: dict[tuple[tuple[int, ...], bool, bool], tuple[int, ...]] = {}
_LEGAL_ACTIONS: dict[tuple[tuple[int, ...], int], tuple[Action, ...]] = {}


def legal_blocks(assigned: tuple[int, ...], next_legal: bool, mono: bool) -> tuple[int, ...]:
    """The blocks of the legal actions of a live state, in the fixed order
    classify(0..C-1), next, stop.

    Every unassigned category may be assigned, next is legal when
    ``next_legal`` (a sentence remains), and stop always is. In mono-label
    mode (``mono``) an assigned label leaves only stop. The tuple is
    interned: one per (assigned, next_legal, mono).
    """
    key = (assigned, next_legal, mono)
    blocks = _LEGAL_BLOCKS.get(key)
    if blocks is None:
        n_categories = len(assigned)
        if mono and any(assigned):
            blocks = (n_categories + 1,)
        else:
            unassigned = [k for k, taken in enumerate(assigned) if not taken]
            blocks = (*unassigned, *((n_categories,) if next_legal else ()), n_categories + 1)
        _LEGAL_BLOCKS[key] = blocks
    return blocks


def available_actions(state: MdpState, mode: TaskMode) -> tuple[Action, ...]:
    """The actions of the state's ``legal_blocks``, in the same order. The
    tuple is interned: states with the same mono lock, assignment and next
    legality share it."""
    if state.halted:
        raise ValueError("no actions are available in a halted state")
    n_categories = len(state.assigned)
    key = (legal_blocks(state.assigned, state.p < state.doc.n_sentences, mode == MONO_LABEL), n_categories)
    actions = _LEGAL_ACTIONS.get(key)
    if actions is None:
        actions = _LEGAL_ACTIONS[key] = tuple(block_action(b, n_categories) for b in key[0])
    return actions


def _is_legal(state: MdpState, action: Action, mode: TaskMode) -> bool:
    if state.halted:
        return False
    n_categories = len(state.assigned)
    if action.kind == "classify" and not 0 <= action.category < n_categories:
        return False
    legal = legal_blocks(state.assigned, state.p < state.doc.n_sentences, mode == MONO_LABEL)
    return action_block(action, n_categories) in legal


def check_action(state: MdpState, action: Action, mode: TaskMode) -> None:
    """Raise ``ValueError`` unless ``action`` is legal in ``state``."""
    if not _is_legal(state, action, mode):
        raise ValueError(f"action {action} is illegal in state (p={state.p}, assigned={state.assigned})")


def transition(state: MdpState, action: Action, mode: TaskMode) -> MdpState:
    """Apply one action, returning a fresh state (inputs are untouched).
    An illegal action raises."""
    check_action(state, action, mode)
    return _successor(state, action)


def is_terminal(state: MdpState) -> bool:
    # Stop is available in every live state, so terminal <=> halted.
    return state.halted


def prf1(y: Sequence[int], y_hat: Sequence[int]) -> tuple[float, float, float]:
    """Precision, recall, and F1 of two equal-length 0/1 label sequences.

    The counts are plain integers and the results builtin floats. Zero
    denominators (no predictions, no gold labels, or p + r = 0) give zero
    for the affected quantity.
    """
    if len(y) != len(y_hat):
        raise ValueError(f"label vectors differ in length: {len(y)} vs {len(y_hat)}")
    if isinstance(y, np.ndarray):
        y = y.tolist()  # Python ints compare faster than numpy scalars
    tp = n_pred = n_gold = 0
    for gold, pred in zip(y, y_hat):
        if pred == 1:
            n_pred += 1
            if gold == 1:
                tp += 1
        if gold == 1:
            n_gold += 1
    return prf1_from_counts(tp, n_pred, n_gold)


def prf1_from_counts(tp: int, n_pred: int, n_gold: int) -> tuple[float, float, float]:
    """Precision, recall and F1 of integer confusion counts: the formula
    of ``prf1``, for callers that count elsewhere."""
    p = tp / n_pred if n_pred else 0.0
    r = tp / n_gold if n_gold else 0.0
    f1 = 2.0 * p * r / (p + r) if p + r > 0.0 else 0.0
    return p, r, f1


def reward(state: MdpState, action: Action, y: Sequence[int], mode: TaskMode) -> float:
    """F1 of the assignment when the action halts the episode, else 0."""
    successor = transition(state, action, mode)
    if is_terminal(successor):
        return prf1(y, successor.assigned)[2]
    return 0.0


def max_episode_steps(doc: Document, n_categories: int) -> int:
    # At most n-1 next actions, C classify actions, and one stop.
    return doc.n_sentences + n_categories + 1


def steps(
    state: MdpState,
    policy: Callable[[MdpState], Action],
    mode: TaskMode,
) -> Iterator[tuple[Action, MdpState]]:
    """Follow ``policy`` from ``state`` until the episode halts, yielding
    each action and the state it leads to.

    The policy must return a legal action for every live state it sees;
    an illegal choice raises. Termination is guaranteed within
    n(doc) + C + 1 steps because every action strictly consumes a finite
    resource (sentences, unassigned categories, or the episode itself).
    """
    step_budget = max_episode_steps(state.doc, len(state.assigned))
    taken = 0
    while not state.halted:  # terminal <=> halted
        if taken >= step_budget:
            raise RuntimeError(f"episode on {state.doc.id!r} exceeded its step budget")
        action = policy(state)
        state = transition(state, action, mode)
        taken += 1
        yield action, state


def walk(
    state: MdpState,
    policy: Callable[[MdpState], Action],
    mode: TaskMode,
) -> tuple[list[MdpState], list[Action]]:
    """The episode of ``policy`` from ``state``, as ``steps`` follows it.

    Returns the visited states, ``state`` first and the halted state last,
    and the actions taken between them.
    """
    states = [state]
    actions: list[Action] = []
    for action, state in steps(state, policy, mode):
        actions.append(action)
        states.append(state)
    return states, actions


def run_episode(
    doc: Document,
    policy: Callable[[MdpState], Action],
    mode: TaskMode,
) -> EpisodeLog:
    """Walk ``policy`` from the initial state and log the episode."""
    states, actions = walk(initial_state(doc), policy, mode)
    final = states[-1]
    return EpisodeLog(
        doc_id=doc.id,
        actions=tuple(actions),
        sentences_read=final.p,  # the cursor never moves back
        n_sentences=doc.n_sentences,
        final_assigned=final.assigned,
        reward=prf1(doc.y, final.assigned)[2],
    )
