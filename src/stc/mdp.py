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

``steps`` follows a policy from any state to the halting state, and
``walk`` collects its states and actions. Multi-label episodes, traces
and arbitrary policy callables walk; a rollout that needs only the final
assignment keeps nothing else. A mono-label episode of a built-in policy
is fixed by the cursor where the policy stops reading and what it does
there, so ``learn`` runs it as a cursor scan that builds no per-step
state, and ``walk`` is the reference it is tested against.

The hot path builds no per-step action objects: ``classify(k)`` returns
one interned action per k, and ``available_actions`` returns one interned
tuple per (mono lock, assigned, next legal). ``transition`` checks every
action's legality and then builds the successor without ``MdpState``'s
cursor check, which a legal action cannot fail.
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
    "initial_state",
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
        assigned = list(state.assigned)
        assigned[action.category] = 1
        _set_assigned(successor, tuple(assigned))
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
    return MdpState(doc=doc, p=1, assigned=(0,) * len(doc.y), halted=False)


_STOP_ONLY = (STOP,)
# Legal-action tuples by (assigned, next legal), built on first use.
_LEGAL: dict[tuple[tuple[int, ...], bool], tuple[Action, ...]] = {}


def available_actions(state: MdpState, mode: TaskMode) -> tuple[Action, ...]:
    """Legal actions, in the fixed order classify(0..C-1), next, stop.

    Mono-label mode: once a label is assigned only stop remains. Next is
    unavailable on the last sentence in both modes. The tuple is interned:
    states with the same mono lock, assignment and next legality share it.
    """
    if state.halted:
        raise ValueError("no actions are available in a halted state")
    if mode == MONO_LABEL and any(state.assigned):
        return _STOP_ONLY
    key = (state.assigned, state.p < state.doc.n_sentences)
    actions = _LEGAL.get(key)
    if actions is None:
        unassigned = [classify(k) for k, taken in enumerate(state.assigned) if not taken]
        actions = _LEGAL[key] = (*unassigned, *((NEXT,) if key[1] else ()), STOP)
    return actions


def _is_legal(state: MdpState, action: Action, mode: TaskMode) -> bool:
    if state.halted:
        return False
    if mode == MONO_LABEL and any(state.assigned):
        return action.kind == "stop"
    if action.kind == "classify":
        return 0 <= action.category < len(state.assigned) and not state.assigned[action.category]
    if action.kind == "next":
        return state.p < state.doc.n_sentences
    return action.kind == "stop"


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
