"""Rollout-based policy iteration for the reading agent.

Each round samples states from trajectories of the current policy, scores
every legal action in each sampled state by monte-carlo rollouts (take
the action, then follow the current policy to termination, observe the
final F1), labels the maximizing actions good and the rest bad, and fits
the linear action scorer to separate them. The greedy policy of the
fitted scorer becomes the next round's policy.

Every episode, in both task modes and under both policies, runs through
one loop over plain (p, assigned) pairs (``_play``): ``mdp.legal_blocks``
lists a pair's legal blocks and ``policy.choose`` picks one, until the
policy stops or only stop is legal. A state with one legal action ends
the loop there, without scoring or drawing, so the generator moves as
in a walk (``mdp.walk``, which traces and the tests' reference episodes
use). Only the drawn sampled state becomes an ``MdpState``.

From round 2 on the policy is greedy and draws nothing, so its rollouts
are exact. Such a round keeps on the policy each document's episode from
the start and the outcome (final pair) of every pair with a choice that
an episode passes; a rollout is then the F1 of the outcome of the
action's successor. The candidate's training-reward episodes are the
ones the next round samples from. An assignment's F1 against the
document's own labels is kept on the policy, too. A greedy state's
labels are fixed within the round, so each distinct sampled state is
labelled once, however often it is drawn. A sampled state with one
legal action always ties, so it is skipped before any rollout. The
round's labelled states are featurized together, as the rows of one CSR
block (``features.phi_states``). The examples are columns over that
block (``policy.Examples``): per example, its state's row, its action's
block of theta and its label, so no per-example object is built. A
round's examples are released once they are fitted, before the next
round samples.

Per-state randomness is drawn from a stream derived from (seed, state
ordinal), so the sampled workload is independent of scheduling and the
first n states of a larger budget coincide with a smaller one's.
"""

from __future__ import annotations

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
    action_block,
    available_actions,
    check_action,
    classify,
    legal_blocks,
    n_action_blocks,
    no_labels,
    prf1,
    with_label,
)
from .policy import (
    ClassifierConfig,
    Examples,
    Greedy,
    LinearQ,
    Policy,
    UniformRandom,
    choose,
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


Pair = tuple[int, tuple[int, ...]]  # (cursor p, assigned) of a live state


def _play(doc: Document, p: int, assigned: tuple[int, ...], policy: Policy, mode: TaskMode, rng) -> list[Pair]:
    """The live pairs of the policy's episode from (doc, p, assigned), that
    pair first. The last pair is the one the policy stops in, or one where
    stop is the only legal action, which ends the episode unchosen."""
    mono, last, n_categories = mode == MONO_LABEL, doc.n_sentences, len(assigned)
    pairs = []
    while True:
        pairs.append((p, assigned))
        legal = legal_blocks(assigned, p < last, mono)
        if len(legal) == 1:
            return pairs
        block = choose(policy, doc, p, assigned, legal, rng)
        if block > n_categories:
            return pairs
        if block == n_categories:
            p += 1
        else:
            assigned = with_label(assigned, block)


def _forced(doc: Document, p: int, assigned: tuple[int, ...], mode: TaskMode) -> bool:
    """Whether stop is the only legal action of the live pair."""
    return len(legal_blocks(assigned, p < doc.n_sentences, mode == MONO_LABEL)) == 1


def _remember(doc: Document, mode: TaskMode, pairs: list[Pair], policy: Greedy) -> None:
    """Record the greedy episode's outcome for every pair it passes, but
    not for a last pair with one legal action: ``_outcome`` never looks
    such a pair up."""
    outcome = pairs[-1]
    if _forced(doc, *outcome, mode):
        pairs = pairs[:-1]
    for p, assigned in pairs:
        policy.outcomes[(doc, mode, p, assigned)] = outcome


def _outcome(doc: Document, p: int, assigned: tuple[int, ...], policy: Policy, mode: TaskMode, rng=None) -> Pair:
    """The final pair of the policy's episode from a live pair. A pair with
    one legal action is its own outcome; a greedy outcome is memoized."""
    if _forced(doc, p, assigned, mode):
        return p, assigned
    if not isinstance(policy, Greedy):
        return _play(doc, p, assigned, policy, mode, rng)[-1]
    outcome = policy.outcomes.get((doc, mode, p, assigned))
    if outcome is None:
        pairs = _play(doc, p, assigned, policy, mode, None)
        _remember(doc, mode, pairs, policy)
        outcome = pairs[-1]
    return outcome


def _episode(doc: Document, policy: Policy, mode: TaskMode, rng: np.random.Generator | None = None) -> list[Pair]:
    """The live pairs of the policy's episode on ``doc`` from the start. A
    greedy episode is played once and kept on the policy."""
    if not isinstance(policy, Greedy):
        return _play(doc, 1, no_labels(len(doc.y)), policy, mode, rng)
    pairs = policy.episodes.get((doc, mode))
    if pairs is None:
        pairs = policy.episodes[(doc, mode)] = _play(doc, 1, no_labels(len(doc.y)), policy, mode, None)
        _remember(doc, mode, pairs, policy)
    return pairs


def _f1(doc: Document, assigned: tuple[int, ...], policy: Policy) -> float:
    """F1 of ``assigned`` against ``doc.y``, by ``prf1``, kept on the policy."""
    key = (doc, assigned)
    value = policy.f1.get(key)
    if value is None:
        value = policy.f1[key] = prf1(doc.y, assigned)[2]
    return value


def sample_state(
    train_docs: list[Document],
    policy: Policy,
    mode: TaskMode,
    rng: np.random.Generator,
) -> MdpState:
    """Pick a training document uniformly, run the policy's episode on it,
    and return one of the visited live states uniformly. Only the drawn
    state is built."""
    doc = train_docs[int(rng.integers(len(train_docs)))]
    live = _episode(doc, policy, mode, rng)
    p, assigned = live[int(rng.integers(len(live)))]
    return MdpState(doc, p, assigned)


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
    An illegal action raises.

    Stop ends the episode at once and never consults the policy. Otherwise
    each rollout is the outcome of the action's successor pair, drawn in
    rollout order; under a greedy policy every rollout is the same
    memoized outcome, so the return is exact. The F1s kept on the policy
    score against the document's own labels, so they serve only calls
    whose ``y`` is ``state.doc.y``. The n returns are summed one by one,
    which gives the bits of n rollouts even when they are equal.
    """
    check_action(state, first_action, mode)
    doc, p, assigned = state.doc, state.p, state.assigned
    if first_action.kind == "next":
        p += 1
    elif first_action.kind == "classify":
        assigned = with_label(assigned, first_action.category)
    total = 0.0
    for _ in range(n_rollouts):
        if first_action.kind == "stop":  # the episode ends here, without the policy
            total += prf1(y, assigned)[2]
        else:
            final = _outcome(doc, p, assigned, policy, mode, rng)[1]
            total += _f1(doc, final, policy) if y is doc.y else prf1(y, final)[2]
    return total / n_rollouts


def _action_labels(
    state: MdpState,
    policy: Policy,
    mode: TaskMode,
    rng: np.random.Generator,
    n_rollouts: int,
) -> tuple[list[int], list[int]] | None:
    """The blocks of the legal actions and their +1/-1 labels, or None
    when every action ties. A state with one legal action always ties, so
    it is skipped before any rollout."""
    actions = available_actions(state, mode)
    if len(actions) == 1:
        return None
    returns = [rollout_return(state, a, policy, state.doc.y, mode, rng, n_rollouts) for a in actions]
    best = max(returns)
    if all(r == best for r in returns):
        return None
    n_categories = len(state.assigned)
    return [action_block(a, n_categories) for a in actions], [1 if r == best else -1 for r in returns]


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
    policy keeps the episodes, for the next round to sample states from."""
    return float(np.mean([_f1(doc, _episode(doc, policy, mode)[-1][1], policy) for doc in docs]))


def episode_log(doc: Document, policy: Greedy, mode: TaskMode) -> EpisodeLog:
    """The log of the greedy episode on ``doc``, read off its live pairs:
    a cursor step is next, an assignment step classifies the label it
    adds, and the episode ends with stop."""
    pairs = _episode(doc, policy, mode)
    actions = []
    for (p, assigned), (p_next, successor) in zip(pairs, pairs[1:]):
        if p_next > p:
            actions.append(NEXT)
        else:
            actions.append(classify(next(k for k, (a, b) in enumerate(zip(assigned, successor)) if a != b)))
    p, assigned = pairs[-1]
    return EpisodeLog(
        doc_id=doc.id,
        actions=(*actions, STOP),
        sentences_read=p,  # the cursor never moves back
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
        theta = train_linear(batch.examples, classifier_cfg, n_action_blocks(n_categories))
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
