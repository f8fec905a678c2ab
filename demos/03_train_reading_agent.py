"""Training the reading agent with rollout policy iteration.

Generates a keyword-determined synthetic corpus, trains the agent, and
inspects what it learned: per-iteration telemetry, held-out accuracy and
reading size, and a step-by-step trace of one greedy episode showing the
scores that drove each decision. Takes around half a minute.
"""

import numpy as np

from stc import synthetic
from stc.corpus import CategorySet, make_splits, prepare_split
from stc.evaluation import evaluate_policy, micro_f1, reading_size
from stc.learn import RolloutConfig, policy_iteration
from stc.mdp import initial_state, is_terminal, transition
from stc.policy import ClassifierConfig, Greedy, action_scores

spec = synthetic.SyntheticSpec(
    n_categories=3,
    docs_per_class=80,
    sentences_per_doc=5,
    keyword_positions=(1, 2, 3),
    noise_vocab_size=30,
    seed=7,
)
raw = synthetic.generate(spec)
categories = CategorySet.from_documents(raw)
print(f"synthetic corpus: {len(raw)} documents, classes {categories.names}")

split = make_splits(raw, train_fraction=0.5, n_runs=1, seed=3)[0]
vocab, train, test = prepare_split(raw, categories, split, "mono")
print(f"train {len(train)} / test {len(test)}, vocabulary {len(vocab)} terms\n")

cfg = RolloutConfig(
    n_states=3000,
    rollouts_per_state=1,
    iterations=5,
    seed=1,
    classifier=ClassifierConfig(lam=1e-3, epochs=5),
)
result = policy_iteration(train, "mono", cfg)
print("training telemetry (mean episode reward on the training set):")
for record in result.telemetry:
    print(
        f"  iteration {record['iteration']}: reward {record['mean_episode_reward']:.3f} "
        f"({record['n_examples']} labeled actions, {record['n_skipped_states']} tied states)"
    )

policy = Greedy(result.q)
preds, logs = evaluate_policy(policy, test, "mono")
print(f"\nheld-out micro-F1: {micro_f1(preds):.3f}")
print(f"held-out reading size: {reading_size(logs):.3f} "
      f"(the agent reads {100 * reading_size(logs):.0f}% of each document on average)\n")

doc = test[0]
true_label = categories.names[int(np.argmax(doc.y))]
print(f"greedy episode on test document {doc.id} (true label: {true_label}):")
state = initial_state(doc)
step = 0
while not is_terminal(state):
    scored = action_scores(result.q, state, "mono")
    action, value = max(scored, key=lambda pair: pair[1])
    step += 1
    pretty = str(action)
    if action.kind == "classify":
        pretty = f"classify:{categories.names[action.category]}"
    print(f"  step {step}: cursor={state.p} chose {pretty:16} (score {value:+.3f})")
    state = transition(state, action, "mono")
print(f"  episode over: assigned {state.assigned}, read {state.p}/{doc.n_sentences} sentences")
