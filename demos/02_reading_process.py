"""The reading decision process, stepped by hand.

Builds one tiny document and walks the episodic process explicitly:
inspect the available actions at each state, apply transitions, and watch
the assignment vector, cursor, and final reward. Ends with the classic
action sequence: next, classify, next, stop.
"""

from stc import preprocess
from stc.corpus import CategorySet, RawDocument, build_vocabulary, vectorize_corpus
from stc.mdp import (
    NEXT,
    STOP,
    available_actions,
    classify,
    initial_state,
    is_terminal,
    prf1,
    run_episode,
    transition,
)

raw = [
    RawDocument(
        id="cocoa-report",
        labels=frozenset(["cocoa"]),
        sentences=[
            "Showers continued throughout the week",
            "Cocoa arrivals at ports stayed strong",
            "Dealers doubted a quick recovery",
            "Farmers sold remaining stocks",
        ],
    ),
    RawDocument(
        id="grain-report",
        labels=frozenset(["grain"]),
        sentences=["Wheat shipments resumed", "Corn exports slowed"],
    ),
]
categories = CategorySet.from_documents(raw)
vocab = build_vocabulary(raw)
doc = vectorize_corpus(raw, vocab, categories, mode="mono")[0]

print(f"document {doc.id}: {doc.n_sentences} sentences, label vector {doc.y.tolist()}")
print(f"categories: {categories.names}\n")

state = initial_state(doc)
print(f"initial state: cursor={state.p}, assigned={state.assigned}, halted={state.halted}")
print(f"available actions: {[str(a) for a in available_actions(state, 'mono')]}\n")

cocoa = categories.index("cocoa")
for action in [NEXT, classify(cocoa), STOP]:
    state = transition(state, action, "mono")
    print(f"after {str(action):14} cursor={state.p} assigned={state.assigned} halted={state.halted}")
    if not is_terminal(state):
        print(f"  -> legal now: {[str(a) for a in available_actions(state, 'mono')]}")

print(f"\nfinal F1 against the true labels: {prf1(doc.y, state.assigned)[2]:.1f}")

# In multi-label mode the agent may keep reading after assigning a label,
# so the classic four-action episode (next, classify, next, stop) is legal.
print("\nthe same document in multi-label mode, via run_episode and a scripted policy:")
script = iter([NEXT, classify(cocoa), NEXT, STOP])
log = run_episode(doc, lambda s: next(script), "multi")
print(f"  actions: {[str(a) for a in log.actions]}")
print(f"  sentences read: {log.sentences_read}/{log.n_sentences}")
print(f"  reward: {log.reward:.1f}")
print(f"  serialized: {log.to_record()}")
