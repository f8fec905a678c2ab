"""Rollout-based policy iteration for the reading agent.

Each round samples states from trajectories of the current policy, scores
every legal action in each sampled state by monte-carlo rollouts (take
the action, then follow the current policy to termination, observe the
final F1), labels the maximizing actions good and the rest bad, and fits
the linear action scorer to separate them. The greedy policy of the
fitted scorer becomes the next round's policy.

From round 2 on the policy is greedy and draws nothing, so its rollouts
are exact. Such a round walks each document's episode once and keeps on
the policy V^pi (the final F1) of every live state a walk visits; a
rollout is then V^pi of the action's successor. The candidate's
training-reward episodes are the ones the next round samples from. A
greedy state's labels are fixed within the round, so each distinct
sampled state is labelled once, however often it is drawn. The round's
labelled states are featurized together, as the rows of one CSR block
(``features.phi_states``); a state's examples share its row and name
their action's block of theta.

Per-state randomness is drawn from a stream derived from (seed, state
ordinal), so the sampled workload is independent of scheduling and the
first n states of a larger budget coincide with a smaller one's.

A rollout of the first-round random policy keeps only the final
assignment of its walk, not the states it passed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import features
from .corpus import Document, TaskMode
from .mdp import (
    Action,
    MdpState,
    available_actions,
    initial_state,
    prf1,
    steps,
    transition,
    walk,
)
from .policy import (
    ClassifierConfig,
    Greedy,
    LinearQ,
    Policy,
    UniformRandom,
    policy_callable,
    train_linear,
)
from .sparse import SparseVector

__all__ = [
    "RolloutConfig",
    "LabeledStateAction",
    "RolloutBatch",
    "PolicyTrainResult",
    "sample_state",
    "rollout_return",
    "build_training_set",
    "mean_episode_reward",
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


@dataclass(frozen=True)
class LabeledStateAction:
    state_features: SparseVector  # the state's row of the round's phi_states block, shared by its actions
    label: int  # +1 good, -1 bad
    state_ordinal: int
    action: Action


@dataclass
class RolloutBatch:
    examples: list[LabeledStateAction]
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


def sample_state(
    train_docs: list[Document],
    policy: Policy,
    mode: TaskMode,
    rng: np.random.Generator,
) -> MdpState:
    """Pick a training document uniformly, walk the policy's trajectory on
    it, and return one of the visited live states uniformly."""
    doc = train_docs[int(rng.integers(len(train_docs)))]
    live = _episode(doc, policy, mode, rng)[:-1]
    return live[int(rng.integers(len(live)))]


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
    ``state.doc.y``. The n equal returns are still summed one by one,
    which gives the bits of n rollouts, not those of the single value.
    """
    successor = transition(state, first_action, mode)
    if isinstance(policy, Greedy) and y is state.doc.y:
        returns = [_greedy_value(successor, policy, mode)] * n_rollouts
    else:
        step = policy_callable(policy, mode, rng)
        returns = (prf1(y, _final_state(successor, step, mode).assigned)[2] for _ in range(n_rollouts))
    total = 0.0
    for value in returns:
        total += value
    return total / n_rollouts


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
) -> tuple[list[Action], list[int]] | None:
    """The legal actions and their +1/-1 labels, or None when every action
    ties."""
    actions = available_actions(state, mode)
    returns = [rollout_return(state, a, policy, state.doc.y, mode, rng, n_rollouts) for a in actions]
    best = max(returns)
    if all(r == best for r in returns):
        return None
    return actions, [1 if r == best else -1 for r in returns]


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
    nothing. Examples come in state order, then action order; a state's
    examples share one feature vector, and all of them are built in one
    block at the end of the round.

    Under a greedy policy a state's returns are exact, so each distinct
    state is labelled once and its later draws reuse the labels. Every
    draw still takes its own rng and its own sample, and counts and emits
    its own examples, so the batch is the one a fresh labelling per draw
    would give. A random policy's rollouts draw from each draw's rng, so
    every draw is labelled afresh.
    """
    reuse = isinstance(policy, Greedy)
    labels: dict[MdpState, tuple[list[Action], list[int]] | None] = {}
    labelled: list[tuple[int, MdpState, tuple[list[Action], list[int]]]] = []
    n_skipped = 0
    for ordinal in range(cfg.n_states):
        rng = np.random.default_rng([cfg.seed, ordinal])
        state = sample_state(train_docs, policy, mode, rng)
        if not (reuse and state in labels):
            labels[state] = _action_labels(state, policy, mode, rng, cfg.rollouts_per_state)
        state_labels = labels[state]
        if state_labels is None:
            n_skipped += 1
        else:
            labelled.append((ordinal, state, state_labels))
    distinct = list(dict.fromkeys(state for _, state, _ in labelled))
    phis = dict(zip(distinct, features.phi_states(distinct)))
    examples = [
        LabeledStateAction(phis[state], label, ordinal, action)
        for ordinal, state, (actions, action_labels) in labelled
        for action, label in zip(actions, action_labels)
    ]
    return RolloutBatch(examples=examples, n_states=cfg.n_states, n_skipped_states=n_skipped)


def mean_episode_reward(docs: list[Document], policy: Policy, mode: TaskMode) -> float:
    """Mean episode reward of a policy over a document set. A greedy
    policy keeps the episodes, for the next round to sample states from."""
    return float(np.mean([prf1(doc.y, _episode(doc, policy, mode)[-1].assigned)[2] for doc in docs]))


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
        if not batch.examples:
            raise RuntimeError(f"iteration {iteration}: every sampled state tied; no training examples")
        classifier_cfg = replace(cfg.classifier, seed=cfg.classifier.seed + iteration)
        theta = train_linear(
            [(e.state_features, features.action_block(e.action, n_categories), e.label) for e in batch.examples],
            classifier_cfg,
            features.n_action_blocks(n_categories),
        )
        q = LinearQ(theta, n_categories, dim)
        candidate = Greedy(q)
        candidate_reward = mean_episode_reward(train_docs, candidate, mode)
        telemetry.append(
            {
                "iteration": iteration,
                "n_examples": len(batch.examples),
                "n_skipped_states": batch.n_skipped_states,
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
