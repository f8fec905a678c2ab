"""Rollout-based policy iteration for the reading agent.

Each round samples states from trajectories of the current policy, scores
every legal action in each sampled state by monte-carlo rollouts (take
the action, then follow the current policy to termination, observe the
final F1), labels the maximizing actions good and the rest bad, and fits
the linear action scorer to separate them. The greedy policy of the
fitted scorer becomes the next round's policy.

From round 2 on the policy is greedy and draws nothing, so its rollouts
are exact. Such a round runs each document's episode once and keeps on
the policy V^pi (the final F1) of every live state it visits, as the
walked state's value (multi-label) or the scanned outcome of its cursor
(mono); a rollout is then V^pi of the action's successor. The candidate's
training-reward episodes are the ones the next round samples from. A
greedy state's labels are fixed within the round, so each distinct
sampled state is labelled once, however often it is drawn. The round's
labelled states are featurized together, as the rows of one CSR block
(``features.phi_states``). The examples are columns over that block
(``policy.Examples``): per example, its state's row, its action's block
of theta and its label, so no per-example object is built. A round's
examples are released once they are fitted, before the next round
samples.

A mono-label episode from a state with nothing assigned is fixed by its
outcome (q, k): the policy reads on to cursor q, then assigns category k
there (k < C) or stops with nothing assigned (k = C). Such episodes are
cursor scans that build no per-step state. The greedy scan takes the
first maximum of each cursor's score row over the legal blocks, grows
the rows only as far as it reaches, and is memoized per (document,
cursor) on the policy. The random scan makes the draw a walk makes at
each cursor, so the generator moves exactly as it would in a walk. An
outcome's F1 is read from a per-document table kept on the policy
(``mono_f1``). State sampling builds only the state it draws; rollouts
from a live state with nothing assigned, mean episode rewards and
evaluation logs read the scan. Multi-label episodes, rollouts against labels other than the document's
own and traces walk (``mdp.walk``); a multi-label rollout of the
first-round random policy keeps only the final assignment of its walk.

Per-state randomness is drawn from a stream derived from (seed, state
ordinal), so the sampled workload is independent of scheduling and the
first n states of a larger budget coincide with a smaller one's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import chain

import numpy as np

from . import features
from .corpus import MONO_LABEL, Document, TaskMode
from .mdp import (
    NEXT,
    STOP,
    Action,
    EpisodeLog,
    MdpState,
    available_actions,
    check_action,
    classify,
    initial_state,
    prf1,
    run_episode,
    steps,
    transition,
    walk,
)
from .policy import (
    ClassifierConfig,
    Examples,
    Greedy,
    LinearQ,
    Policy,
    UniformRandom,
    policy_callable,
    train_linear,
)

__all__ = [
    "RolloutConfig",
    "RolloutBatch",
    "PolicyTrainResult",
    "sample_state",
    "rollout_return",
    "build_training_set",
    "mean_episode_reward",
    "episode_log",
    "derived_seed",
    "policy_iteration",
]

# Minimum improvement in mean training reward for a round to count as
# progress, and how many stalled rounds to tolerate before stopping. One
# stalled round is routinely followed by a breakthrough (the policy dips
# while it shifts from label-at-sight to read-then-label behavior), so a
# single non-improving round must not end training.
EARLY_STOP_MARGIN = 1e-4
EARLY_STOP_PATIENCE = 2


@dataclass(frozen=True)
class RolloutConfig:
    n_states: int = 10000
    rollouts_per_state: int = 1
    iterations: int = 5
    seed: int = 0
    classifier: ClassifierConfig = ClassifierConfig()

    def __post_init__(self):
        if self.n_states < 1:
            raise ValueError("n_states must be >= 1")
        if self.rollouts_per_state < 1:
            raise ValueError("rollouts_per_state must be >= 1")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")


@dataclass
class RolloutBatch:
    examples: Examples  # rows: the labelled states' phi_states block
    ordinals: np.ndarray  # int64, each example's state ordinal
    n_states: int
    n_skipped_states: int


@dataclass
class PolicyTrainResult:
    q: LinearQ
    telemetry: list[dict]  # one record per iteration


def _greedy_walk(state: MdpState, policy: Greedy, mode: TaskMode) -> list[MdpState]:
    """Walk a greedy policy from ``state``, recording V^pi (the final F1)
    for every live state on the way."""
    states, _ = walk(state, policy_callable(policy, mode), mode)
    value = prf1(state.doc.y, states[-1].assigned)[2]
    for s in states[:-1]:
        policy.values[(s.doc, mode, s.p, s.assigned)] = value
    return states


def _greedy_value(state: MdpState, policy: Greedy, mode: TaskMode) -> float:
    """V^pi of ``state`` against its document's labels, walked on a miss."""
    if state.halted:
        return prf1(state.doc.y, state.assigned)[2]
    key = (state.doc, mode, state.p, state.assigned)
    if key not in policy.values:
        _greedy_walk(state, policy, mode)
    return policy.values[key]


def _episode(
    doc: Document,
    policy: Policy,
    mode: TaskMode,
    rng: np.random.Generator | None = None,
) -> list[MdpState]:
    """The states of the policy's episode on ``doc``, initial to halted.
    A greedy policy's episode is walked once and kept on the policy."""
    if not isinstance(policy, Greedy):
        return walk(initial_state(doc), policy_callable(policy, mode, rng), mode)[0]
    states = policy.episodes.get((doc, mode))
    if states is None:
        states = policy.episodes[(doc, mode)] = _greedy_walk(initial_state(doc), policy, mode)
    return states


def _mono_assigned(k: int, n_categories: int) -> tuple[int, ...]:
    """The assignment of mono outcome k: category k alone, or none when k = C."""
    assigned = [0] * n_categories
    if k < n_categories:
        assigned[k] = 1
    return tuple(assigned)


def _mono_f1(doc: Document, policy: Policy) -> list[float]:
    """F1 against ``doc.y`` of each mono outcome k = 0..C, by ``prf1``,
    kept on the policy."""
    table = policy.mono_f1.get(doc)
    if table is None:
        n_categories = len(doc.y)
        table = policy.mono_f1[doc] = [prf1(doc.y, _mono_assigned(k, n_categories))[2] for k in range(n_categories + 1)]
    return table


def _greedy_outcome(doc: Document, p: int, policy: Greedy) -> tuple[int, int]:
    """The outcome of the greedy mono episode from (doc, p, nothing
    assigned), recorded for every cursor the scan passes."""
    outcomes = policy.outcomes
    n_categories = len(doc.y)
    passed = []
    q = p
    outcome = outcomes.get((doc, q))
    while outcome is None:
        scores = policy.q.score_rows(doc).row(q).tolist()
        if q == doc.n_sentences:
            scores[n_categories] = -math.inf  # next is illegal on the last sentence
        best = max(range(n_categories + 2), key=scores.__getitem__)  # the first maximum
        passed.append(q)
        if best != n_categories:
            outcome = (q, min(best, n_categories))  # classify(best), or stop
        else:
            q += 1
            outcome = outcomes.get((doc, q))
    for cursor in passed:
        outcomes[(doc, cursor)] = outcome
    return outcome


def _random_outcome(doc: Document, p: int, rng: np.random.Generator) -> tuple[int, int]:
    """The outcome of a uniform-random mono episode from (doc, p, nothing
    assigned). Each cursor draws the index of the walk's action among
    classify(0..C-1), next (before the last sentence) and stop; the stop
    forced after a classify draws nothing."""
    n_categories, last = len(doc.y), doc.n_sentences
    integers = rng.integers
    q = p
    while True:
        i = int(integers(n_categories + 2 if q < last else n_categories + 1))
        if i < n_categories:
            return q, i
        if i > n_categories or q == last:
            return q, n_categories
        q += 1


def _mono_outcome(
    doc: Document, p: int, policy: Policy, rng: np.random.Generator | None = None
) -> tuple[int, int]:
    """The outcome (q, k) of the policy's mono episode from (doc, p,
    nothing assigned): read on to cursor q, then assign category k there,
    or stop when k = C."""
    if isinstance(policy, Greedy):
        return _greedy_outcome(doc, p, policy)
    if rng is None:
        raise ValueError("a uniform-random policy needs an rng")
    return _random_outcome(doc, p, rng)


def sample_state(
    train_docs: list[Document],
    policy: Policy,
    mode: TaskMode,
    rng: np.random.Generator,
) -> MdpState:
    """Pick a training document uniformly, run the policy's episode on it,
    and return one of the visited live states uniformly. A mono episode
    is scanned, and only the drawn state is built."""
    doc = train_docs[int(rng.integers(len(train_docs)))]
    if mode != MONO_LABEL:
        live = _episode(doc, policy, mode, rng)[:-1]
        return live[int(rng.integers(len(live)))]
    q, k = _mono_outcome(doc, 1, policy, rng)
    n_categories = len(doc.y)
    # The live states: cursors 1..q with nothing assigned, then (q, {k})
    # after a classify.
    i = int(rng.integers(q + (k < n_categories)))
    if i < q:
        return MdpState(doc, i + 1, (0,) * n_categories)
    return MdpState(doc, q, _mono_assigned(k, n_categories))


def rollout_return(
    state: MdpState,
    first_action: Action,
    policy: Policy,
    y,
    mode: TaskMode,
    rng: np.random.Generator,
    n_rollouts: int = 1,
) -> float:
    """Estimated return of taking ``first_action`` and then following
    ``policy`` to termination: the mean final F1 over independent rollouts.

    Under a greedy policy every rollout is the same walk, so the return is
    exact: V^pi of the successor state, from the policy's memo when a
    walk has already passed through it. The memo scores against the
    document's own labels, so it serves only calls whose ``y`` is
    ``state.doc.y``; so does the mono table of outcome F1s. In a live
    mono state with nothing assigned, classify and stop end the episode
    and next continues with a scan from p + 1. The n returns are summed
    one by one, which gives the bits of n rollouts even when they are
    equal.
    """
    if mode == MONO_LABEL and y is state.doc.y and not state.halted and not any(state.assigned):
        returns = _mono_returns(state, first_action, policy, rng, n_rollouts)
    elif isinstance(policy, Greedy) and y is state.doc.y:
        returns = [_greedy_value(transition(state, first_action, mode), policy, mode)] * n_rollouts
    else:
        successor = transition(state, first_action, mode)
        step = policy_callable(policy, mode, rng)
        returns = (prf1(y, _final_state(successor, step, mode).assigned)[2] for _ in range(n_rollouts))
    total = 0.0
    for value in returns:
        total += value
    return total / n_rollouts


def _mono_returns(state: MdpState, action: Action, policy: Policy, rng: np.random.Generator, n_rollouts: int):
    """The n rollout returns of ``action`` in a live mono state with
    nothing assigned; random rollouts draw in rollout order. An illegal
    action raises."""
    check_action(state, action, MONO_LABEL)
    doc = state.doc
    f1 = _mono_f1(doc, policy)
    if action.kind == "next":
        return (f1[_mono_outcome(doc, state.p + 1, policy, rng)[1]] for _ in range(n_rollouts))
    return [f1[action.category if action.kind == "classify" else len(doc.y)]] * n_rollouts


def _final_state(state: MdpState, step, mode: TaskMode) -> MdpState:
    """The halted state of the episode from ``state``, keeping no other."""
    for _, state in steps(state, step, mode):
        pass
    return state


def _action_labels(
    state: MdpState,
    policy: Policy,
    mode: TaskMode,
    rng: np.random.Generator,
    n_rollouts: int,
) -> tuple[list[int], list[int]] | None:
    """The blocks of the legal actions and their +1/-1 labels, or None
    when every action ties."""
    actions = available_actions(state, mode)
    returns = [rollout_return(state, a, policy, state.doc.y, mode, rng, n_rollouts) for a in actions]
    best = max(returns)
    if all(r == best for r in returns):
        return None
    n_categories = len(state.assigned)
    return [features.action_block(a, n_categories) for a in actions], [1 if r == best else -1 for r in returns]


def build_training_set(
    train_docs: list[Document],
    policy: Policy,
    mode: TaskMode,
    cfg: RolloutConfig,
) -> RolloutBatch:
    """Sample states and label every legal action by its rollout return.

    Actions attaining the per-state maximum estimated return are labeled
    +1 and the rest -1 (exact comparison; returns are finite sums of
    identical F1 computations). States where every action ties contribute
    nothing. Examples come in state order, then action order, as columns:
    each distinct labelled state is one row of one ``phi_states`` block,
    and each example names its state's row, its action's block and its
    label.

    Under a greedy policy a state's returns are exact, so each distinct
    state is labelled once and its later draws reuse the labels. Every
    draw still takes its own rng and its own sample, and counts and emits
    its own examples, so the batch is the one a fresh labelling per draw
    would give. A random policy's rollouts draw from each draw's rng, so
    every draw is labelled afresh. Either way a draw hashes its state
    once to find its row and labels, and once more on a first sight.
    """
    reuse = isinstance(policy, Greedy)
    # A state's row (-1 until it has examples) and its latest labelling.
    seen: dict[MdpState, tuple[int, tuple[list[int], list[int]] | None]] = {}
    distinct: list[MdpState] = []
    drawn: list[tuple[int, int, list[int], list[int]]] = []  # (ordinal, row, blocks, labels)
    n_skipped = 0
    for ordinal in range(cfg.n_states):
        rng = np.random.default_rng([cfg.seed, ordinal])
        state = sample_state(train_docs, policy, mode, rng)
        entry = seen.get(state)
        if entry is None or not reuse:
            row = -1 if entry is None else entry[0]
            labelling = _action_labels(state, policy, mode, rng, cfg.rollouts_per_state)
            if labelling is not None and row < 0:
                row = len(distinct)
                distinct.append(state)
            entry = seen[state] = (row, labelling)
        row, labelling = entry
        if labelling is None:
            n_skipped += 1
        else:
            drawn.append((ordinal, row, *labelling))
    ordinals, rows, blocks, labels = zip(*drawn) if drawn else ((),) * 4
    sizes = np.fromiter(map(len, blocks), dtype=np.int64, count=len(blocks))
    count = int(sizes.sum())
    examples = Examples(
        rows=features.phi_states(distinct),
        row=np.repeat(np.array(rows, dtype=np.int64), sizes),
        block=np.fromiter(chain.from_iterable(blocks), dtype=np.int64, count=count),
        label=np.fromiter(chain.from_iterable(labels), dtype=np.int64, count=count),
    )
    return RolloutBatch(
        examples=examples,
        ordinals=np.repeat(np.array(ordinals, dtype=np.int64), sizes),
        n_states=cfg.n_states,
        n_skipped_states=n_skipped,
    )


def mean_episode_reward(docs: list[Document], policy: Policy, mode: TaskMode) -> float:
    """Mean episode reward of a policy over a document set. A greedy
    policy keeps the episodes (multi-label) or their outcomes (mono), for
    the next round to sample states from."""
    if mode == MONO_LABEL:
        rewards = [_mono_f1(doc, policy)[_mono_outcome(doc, 1, policy)[1]] for doc in docs]
    else:
        rewards = [prf1(doc.y, _episode(doc, policy, mode)[-1].assigned)[2] for doc in docs]
    return float(np.mean(rewards))


def episode_log(doc: Document, policy: Greedy, mode: TaskMode) -> EpisodeLog:
    """The log of the greedy episode on ``doc``: a mono episode is read off
    its scanned outcome, a multi-label one is walked (``run_episode``)."""
    if mode != MONO_LABEL:
        return run_episode(doc, policy_callable(policy, mode), mode)
    q, k = _mono_outcome(doc, 1, policy)
    n_categories = len(doc.y)
    assigned = _mono_assigned(k, n_categories)
    return EpisodeLog(
        doc_id=doc.id,
        actions=(NEXT,) * (q - 1) + ((classify(k), STOP) if k < n_categories else (STOP,)),
        sentences_read=q,
        n_sentences=doc.n_sentences,
        final_assigned=assigned,
        reward=prf1(doc.y, assigned)[2],
    )


def derived_seed(*parts: int) -> int:
    """One 32-bit seed drawn from the SeedSequence of ``parts``."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def policy_iteration(
    train_docs: list[Document],
    mode: TaskMode,
    cfg: RolloutConfig,
) -> PolicyTrainResult:
    """Iterate rollout labeling and classifier fitting from a random policy.

    Training stops once EARLY_STOP_PATIENCE consecutive rounds fail to
    improve the best mean training-set episode reward by more than
    EARLY_STOP_MARGIN, and returns the weights of the best-scoring greedy
    policy seen. Rollouts always continue from the newest policy, even
    after a dip: the dip round's trajectories are what the next round
    learns from. The initial random policy only drives the first round of
    rollouts; it is never a returnable result.
    """
    if not train_docs:
        raise ValueError("policy_iteration needs a non-empty training set")
    n_categories = len(train_docs[0].y)
    dim = features.state_dim(train_docs[0].sentence_vectors[0].dim, n_categories)

    current: Policy = UniformRandom()
    telemetry: list[dict] = []
    best_q: LinearQ | None = None
    best_reward = -np.inf
    stalled_rounds = 0
    for iteration in range(1, cfg.iterations + 1):
        round_cfg = replace(cfg, seed=derived_seed(cfg.seed, iteration))
        batch = build_training_set(train_docs, current, mode, round_cfg)
        n_examples, n_skipped = len(batch.examples), batch.n_skipped_states
        if not n_examples:
            raise RuntimeError(f"iteration {iteration}: every sampled state tied; no training examples")
        classifier_cfg = replace(cfg.classifier, seed=cfg.classifier.seed + iteration)
        theta = train_linear(batch.examples, classifier_cfg, features.n_action_blocks(n_categories))
        del batch  # so the next round samples without this round's examples alive
        q = LinearQ(theta, n_categories, dim)
        candidate = Greedy(q)
        candidate_reward = mean_episode_reward(train_docs, candidate, mode)
        telemetry.append(
            {
                "iteration": iteration,
                "n_examples": n_examples,
                "n_skipped_states": n_skipped,
                "mean_episode_reward": candidate_reward,
            }
        )
        improved = candidate_reward > best_reward + EARLY_STOP_MARGIN
        # Ties go to the newest policy: it was trained on rollouts from a
        # stronger continuation, and at small training sizes the first
        # round's perfect-looking training reward is pure memorization.
        if candidate_reward >= best_reward:
            best_q = q
            best_reward = candidate_reward
        if improved:
            stalled_rounds = 0
        else:
            stalled_rounds += 1
            if stalled_rounds >= EARLY_STOP_PATIENCE:
                break
        current = candidate
    assert best_q is not None
    return PolicyTrainResult(q=best_q, telemetry=telemetry)
