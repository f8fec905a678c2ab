"""Acceptance suite.

Each test prints one PASS/FAIL line. Slow criteria (the synthetic
learning runs) take a few minutes; the large-corpus reproduction is
skipped with a recorded SKIP when the dataset files are not present
(point STC_R8_DIR at a directory containing r8-train*.txt and
r8-test*.txt in the label<TAB>text layout).
"""

import itertools
import json
import os
from pathlib import Path

import numpy as np
import pytest

from conftest import make_doc, sparse
from stc import synthetic
from stc import corpus as corpus_mod
from stc.cli import main as cli_main
from stc.corpus import CategorySet, MONO_LABEL, MULTI_LABEL, convert_cardoso, corpus_stats
from stc.evaluation import (
    Prediction,
    evaluate_policy,
    macro_f1,
    micro_f1,
    reading_size,
)
from stc.features import state_dim
from stc.learn import RolloutConfig, policy_iteration, rollout_return
from stc.mdp import (
    EpisodeLog,
    MdpState,
    available_actions,
    max_episode_steps,
    prf1,
    run_episode,
)
from stc.policy import (
    ClassifierConfig,
    Greedy,
    LinearQ,
    hinge_objective,
    hinge_subgradient,
    select_action,
)
from stc.porter import porter_stem

DATA_DIR = Path(__file__).parent / "data" / "porter"


def _report(number: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number}: {status} - {description}{suffix}")
    assert ok, f"criterion {number}: {description}{suffix}"


# -- 1. formula oracles ------------------------------------------------------

PRF1_FIXTURES = [
    ((1, 0, 1, 0), (1, 1, 0, 0), (0.5, 0.5, 0.5)),
    ((1, 0, 0, 0), (1, 0, 0, 0), (1.0, 1.0, 1.0)),
    ((1, 0, 1, 0), (0, 0, 0, 0), (0.0, 0.0, 0.0)),
    ((1, 1, 1, 1), (1, 1, 1, 1), (1.0, 1.0, 1.0)),
    ((0, 1), (1, 0), (0.0, 0.0, 0.0)),
    ((1, 0, 1), (1, 0, 0), (1.0, 0.5, 0.6666666666666666)),
    ((1, 1, 0, 0, 1), (1, 0, 1, 0, 1), (0.6666666666666666, 0.6666666666666666, 0.6666666666666666)),
    ((0, 0, 1), (1, 1, 1), (0.3333333333333333, 1.0, 0.5)),
    ((1,), (1,), (1.0, 1.0, 1.0)),
    ((1, 0), (1, 1), (0.5, 1.0, 0.6666666666666666)),
    ((1, 1, 1, 0, 0, 0), (0, 0, 1, 1, 1, 1), (0.25, 0.3333333333333333, 0.2857142857142857)),
    ((0, 1, 0, 1, 0, 1, 0, 1), (1, 1, 1, 1, 0, 0, 0, 0), (0.5, 0.5, 0.5)),
]

MICRO_MACRO_FIXTURES = [
    ([((1, 0), (1, 0)), ((0, 1), (1, 0))], 0.5, 0.3333333333333333),
    ([((1, 0), (1, 0)), ((0, 1), (0, 1))], 1.0, 1.0),
    ([((1, 0), (0, 0)), ((0, 1), (0, 0))], 0.0, 0.0),
    ([((1, 0, 0), (1, 1, 0)), ((0, 1, 0), (0, 1, 0)), ((0, 0, 1), (1, 0, 0))], 0.5714285714285714, 0.4444444444444444),
    ([((1, 1), (1, 0)), ((1, 0), (1, 1)), ((0, 1), (0, 1))], 0.75, 0.75),
    ([((1, 0, 1, 0), (1, 1, 0, 0)), ((0, 1, 0, 1), (0, 1, 0, 1))], 0.75, 0.6666666666666666),
]

READING_FIXTURES = [
    ([(2, 4), (4, 4)], 0.75),
    ([(1, 1)], 1.0),
    ([(1, 10), (1, 10), (1, 10)], 0.1),
    ([(3, 7), (2, 5), (6, 6)], 0.6095238095238096),
    ([(1, 2), (1, 3), (1, 4), (1, 5)], 0.32083333333333336),
    ([(5, 9), (9, 9), (1, 9)], 0.5555555555555556),
]


def test_criterion_1_formula_oracles():
    n_checked = 0
    ok = True
    for y, y_hat, expected in PRF1_FIXTURES:
        got = prf1(y, y_hat)
        ok = ok and all(abs(g - e) <= 1e-12 for g, e in zip(got, expected))
        n_checked += 1
    for pairs, expected_micro, expected_macro in MICRO_MACRO_FIXTURES:
        preds = [Prediction(str(i), y, y_hat) for i, (y, y_hat) in enumerate(pairs)]
        ok = ok and abs(micro_f1(preds) - expected_micro) <= 1e-12
        ok = ok and abs(macro_f1(preds, len(pairs[0][0])) - expected_macro) <= 1e-12
        n_checked += 1
    for pairs, expected in READING_FIXTURES:
        logs = [EpisodeLog(str(i), (), l, n, (1,), 1.0) for i, (l, n) in enumerate(pairs)]
        ok = ok and abs(reading_size(logs) - expected) <= 1e-12
        n_checked += 1
    _report(1, f"metric formulas match {n_checked} hand-computed fixtures at 1e-12", ok and n_checked >= 20)


# -- 2. rollout vs brute force ----------------------------------------------


def _oracle_return(doc, p, assigned, first_action, policy, mode):
    """Independent tuple-based walk of a deterministic policy's episode."""

    def f1(y, bits):
        tp = sum(1 for a, b in zip(y, bits) if a == 1 and b == 1)
        sp, sg = sum(bits), sum(y)
        prec = tp / sp if sp else 0.0
        rec = tp / sg if sg else 0.0
        return 2 * prec * rec / (prec + rec) if prec + rec else 0.0

    def apply(p, bits, act):
        if act.kind == "stop":
            return p, bits, True
        if act.kind == "next":
            return p + 1, bits, False
        changed = list(bits)
        changed[act.category] = 1
        return p, tuple(changed), False

    p, bits, halted = apply(p, assigned, first_action)
    for _ in range(doc.n_sentences + len(assigned) + 2):
        if halted:
            return f1(doc.y.tolist(), bits)
        act = select_action(policy, MdpState(doc, p, bits, False), mode)
        p, bits, halted = apply(p, bits, act)
    raise AssertionError("oracle walk did not terminate")


def test_criterion_2_rollout_equals_bruteforce():
    rng = np.random.default_rng(5)
    n_checked = 0
    ok = True
    for n_sents in (1, 2, 3):
        for y, mode in [
            ((1, 0), MONO_LABEL),
            ((0, 1), MONO_LABEL),
            ((1, 0), MULTI_LABEL),
            ((1, 1), MULTI_LABEL),
        ]:
            doc = make_doc(n_sents, y, vocab_size=3, seed=n_sents + 40)
            dim = state_dim(3, 2)
            for _ in range(4):
                policy = Greedy(LinearQ(rng.standard_normal(4 * dim), 2, dim))
                for p in range(1, n_sents + 1):
                    for bits in itertools.product([0, 1], repeat=2):
                        if mode == MONO_LABEL and sum(bits) > 1:
                            continue
                        state = MdpState(doc, p, bits, False)
                        for action in available_actions(state, mode):
                            got = rollout_return(
                                state, action, policy, doc.y, mode, np.random.default_rng(0)
                            )
                            want = _oracle_return(doc, p, bits, action, policy, mode)
                            ok = ok and got == want
                            n_checked += 1
    _report(2, f"rollout returns equal brute-force enumeration on {n_checked} (state, action) pairs", ok)


# -- 3. MDP invariants over random episodes ----------------------------------


def test_criterion_3_mdp_invariants():
    rng = np.random.default_rng(99)
    n_episodes = 10000
    ok = True
    for episode in range(n_episodes):
        n_cats = int(rng.integers(1, 5))
        n_sents = int(rng.integers(1, 7))
        mode = MONO_LABEL if rng.random() < 0.5 else MULTI_LABEL
        y = np.zeros(n_cats, dtype=np.int8)
        if mode == MONO_LABEL:
            y[int(rng.integers(n_cats))] = 1
        else:
            y[rng.random(n_cats) < 0.5] = 1
            if y.sum() == 0:
                y[0] = 1
        doc = make_doc(n_sents, y, vocab_size=3, seed=episode % 64)

        def random_policy(state):
            actions = available_actions(state, mode)
            return actions[int(rng.integers(len(actions)))]

        log = run_episode(doc, random_policy, mode)
        ok = ok and len(log.actions) <= max_episode_steps(doc, n_cats)
        ok = ok and log.reward == prf1(doc.y, log.final_assigned)[2]
        if mode == MONO_LABEL:
            ok = ok and sum(1 for a in log.actions if a.kind == "classify") <= 1
        # terminal <=> halted: the last action must be the only stop.
        ok = ok and log.actions[-1].kind == "stop"
        ok = ok and sum(1 for a in log.actions if a.kind == "stop") == 1
        if not ok:
            break
    _report(3, f"MDP invariants hold over {n_episodes} random episodes", ok)


# -- 4. stemmer reference pair ------------------------------------------------


def test_criterion_4_porter_reference():
    voc = (DATA_DIR / "voc.txt").read_text(encoding="utf-8").splitlines()
    out = (DATA_DIR / "output.txt").read_text(encoding="utf-8").splitlines()
    mismatches = sum(1 for w, e in zip(voc, out) if porter_stem(w) != e)
    _report(
        4,
        f"stemmer matches the bundled reference pair on {len(voc)} words",
        len(voc) == len(out) and len(voc) > 20000 and mismatches == 0,
        detail=f"{mismatches} mismatches",
    )


# -- 5. synthetic oracle learning ---------------------------------------------


def _train_and_eval(raw, cats, split, mode, rollout_cfg):
    by_id = {d.id: d for d in raw}
    train_raw = [by_id[i] for i in split.train_ids]
    vocab = corpus_mod.build_vocabulary(train_raw)
    train = corpus_mod.vectorize_corpus(train_raw, vocab, cats, mode)
    test = corpus_mod.vectorize_corpus([by_id[i] for i in split.test_ids], vocab, cats, mode)
    result = policy_iteration(train, mode, rollout_cfg)
    preds, logs = evaluate_policy(Greedy(result.q), test, mode)
    return micro_f1(preds), reading_size(logs), train, test, vocab


@pytest.mark.slow
def test_criterion_5_synthetic_oracle_learning():
    spec = synthetic.SyntheticSpec(
        n_categories=4,
        docs_per_class=200,
        sentences_per_doc=6,
        keyword_positions=(1, 2, 3),
        noise_vocab_size=50,
        seed=0,
    )
    raw = synthetic.generate(spec)
    cats = CategorySet.from_documents(raw)
    accs, reads = [], []
    for split in corpus_mod.make_splits(raw, 0.5, 5, 2024):
        cfg = RolloutConfig(seed=1000 + split.run_index)  # library defaults otherwise
        acc, read, *_ = _train_and_eval(raw, cats, split, MONO_LABEL, cfg)
        accs.append(acc)
        reads.append(read)
    mean_acc, mean_read = float(np.mean(accs)), float(np.mean(reads))
    _report(
        5,
        "synthetic oracle task learned with defaults (accuracy >= 0.95, reading <= 0.70 over 5 seeds)",
        mean_acc >= 0.95 and mean_read <= 0.70,
        detail=f"accuracy {mean_acc:.4f}, reading size {mean_read:.4f}",
    )


# -- 6/7. large-corpus reproduction and reading trend -------------------------


def _find_r8():
    root = os.environ.get("STC_R8_DIR")
    if not root:
        return None
    root = Path(root)
    train = sorted(root.glob("r8-train*.txt"))
    test = sorted(root.glob("r8-test*.txt"))
    if not train or not test:
        return None
    return train[0], test[0]


@pytest.mark.slow
def test_criterion_6_r8_reproduction():
    located = _find_r8()
    if located is None:
        print("ACCEPTANCE 6: SKIP - R8 dataset not present (set STC_R8_DIR)")
        pytest.skip("R8 dataset not present; criterion recorded as SKIP")
    train_path, test_path = located
    raw = convert_cardoso(train_path, test_path)
    stats = corpus_stats(raw)
    ok_stats = stats["n_docs"] == 7678 and stats["n_categories"] == 8
    ok_sentences = abs(stats["mean_sentences_per_doc"] - 8.19) <= 1.0
    cats = CategorySet.from_documents(raw)

    from stc.baseline import predict_baseline, train_baseline

    def baseline_micro(train_docs, test_docs):
        best = 0.0
        for lam in (1e-5, 1e-4, 1e-3):
            model = train_baseline(train_docs, ClassifierConfig(lam=lam, epochs=5, seed=0), MONO_LABEL)
            preds = [
                Prediction(d.id, tuple(int(v) for v in d.y), tuple(int(v) for v in predict_baseline(model, d)))
                for d in test_docs
            ]
            best = max(best, micro_f1(preds))
        return best

    by_id = {d.id: d for d in raw}
    split = corpus_mod.make_splits(raw, 0.9, 1, 7)[0]
    acc_stc, _, train_docs, test_docs, _ = _train_and_eval(
        raw, cats, split, MONO_LABEL, RolloutConfig(seed=7)
    )
    acc_base = baseline_micro(train_docs, test_docs)
    ok_large = acc_base >= 0.90 and acc_stc >= acc_base - 0.03

    stc_small, base_small = [], []
    for split in corpus_mod.make_splits(raw, 0.01, 5, 11):
        acc, _, train_docs, test_docs, _ = _train_and_eval(
            raw, cats, split, MONO_LABEL, RolloutConfig(seed=100 + split.run_index)
        )
        stc_small.append(acc)
        base_small.append(baseline_micro(train_docs, test_docs))
    ok_small = float(np.mean(stc_small)) >= float(np.mean(base_small)) - 0.01

    _report(
        6,
        "large-corpus reproduction (counts, 0.9 parity, 0.01 small-training advantage)",
        ok_stats and ok_sentences and ok_large and ok_small,
        detail=(
            f"docs={stats['n_docs']} cats={stats['n_categories']} "
            f"sent/doc={stats['mean_sentences_per_doc']:.2f} "
            f"base@0.9={acc_base:.3f} stc@0.9={acc_stc:.3f} "
            f"stc@0.01={np.mean(stc_small):.3f} base@0.01={np.mean(base_small):.3f}"
        ),
    )


@pytest.mark.slow
def test_criterion_7_reading_size_trend():
    located = _find_r8()
    if located is not None:
        raw = convert_cardoso(*located)
        corpus_name = "R8"
    else:
        spec = synthetic.SyntheticSpec(
            n_categories=4,
            docs_per_class=200,
            sentences_per_doc=6,
            keyword_positions=(1, 2, 3),
            noise_vocab_size=50,
            seed=0,
        )
        raw = synthetic.generate(spec)
        corpus_name = "synthetic"
    cats = CategorySet.from_documents(raw)
    means = {}
    for fraction in (0.01, 0.5):
        reads = []
        for split in corpus_mod.make_splits(raw, fraction, 5, 2024):
            cfg = RolloutConfig(seed=1000 + split.run_index)
            _, read, *_ = _train_and_eval(raw, cats, split, MONO_LABEL, cfg)
            reads.append(read)
        means[fraction] = float(np.mean(reads))
    _report(
        7,
        f"reading size decreases with training size on {corpus_name}",
        means[0.5] < means[0.01],
        detail=f"read@0.5={means[0.5]:.4f} < read@0.01={means[0.01]:.4f}",
    )


# -- 8. multi-label full-read tendency ----------------------------------------


@pytest.mark.slow
def test_criterion_8_multilabel_reads_everything():
    spec = synthetic.SyntheticSpec(
        n_categories=4,
        docs_per_class=100,
        sentences_per_doc=6,
        keyword_positions=(1, 2, 3, 4, 5, 6),
        labels_per_doc=(3, 4),
        noise_vocab_size=40,
        seed=11,
    )
    raw = synthetic.generate(spec)
    cats = CategorySet.from_documents(raw)
    split = corpus_mod.make_splits(raw, 0.5, 1, 42)[0]
    acc, read, *_ = _train_and_eval(raw, cats, split, MULTI_LABEL, RolloutConfig(seed=1))
    _report(
        8,
        "multi-label policy reads nearly everything when labels are scattered",
        read >= 0.9,
        detail=f"reading size {read:.4f}, micro-F1 {acc:.4f}",
    )


# -- 9. experiment determinism -------------------------------------------------


def test_criterion_9_experiment_determinism(tmp_path):
    spec = synthetic.SyntheticSpec(
        n_categories=2, docs_per_class=15, sentences_per_doc=3,
        keyword_positions=(1, 2), noise_vocab_size=8, seed=4,
    )
    corpus_path = tmp_path / "corpus.jsonl"
    corpus_mod.save_jsonl(synthetic.generate(spec), corpus_path)
    config = {
        "corpus": str(corpus_path),
        "mode": "mono",
        "seed": 5,
        "output_dir": str(tmp_path / "out_a"),
        "fractions": [0.5],
        "n_runs": 2,
        "workers": 1,
        "stc": {"n_states": 150, "iterations": 2, "epochs": 3, "lambda_grid": [1e-3]},
        "baseline": {"epochs": 3, "lambda_grid": [1e-3]},
        "histogram": {"fraction": 0.5, "bins": 5},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    assert cli_main(["experiment", "--config", str(config_path)]) == 0
    config["output_dir"] = str(tmp_path / "out_b")
    config_path.write_text(json.dumps(config), encoding="utf-8")
    assert cli_main(["experiment", "--config", str(config_path)]) == 0
    names = ["cells.csv", "aggregate.csv", "report.json", "reading_histogram.csv"]
    identical = all(
        (tmp_path / "out_a" / name).read_bytes() == (tmp_path / "out_b" / name).read_bytes()
        for name in names
    )
    _report(9, "repeated experiment runs produce byte-identical report files", identical)


# -- 10. gradient check ---------------------------------------------------------


def test_criterion_10_gradient_check():
    rng = np.random.default_rng(31)
    dim = 6
    examples = [
        (sparse(rng.standard_normal(dim)), 1 if rng.random() < 0.5 else -1)
        for _ in range(15)
    ]
    lam = 0.05
    h = 1e-6
    checked = 0
    worst = 0.0
    while checked < 100:
        theta = rng.standard_normal(dim)
        margins = [y * float(x.to_dense() @ theta) for x, y in examples]
        if min(abs(1.0 - m) for m in margins) < 1e-2:
            continue
        analytic = hinge_subgradient(theta, examples, lam)
        numeric = np.zeros(dim)
        for j in range(dim):
            plus, minus = theta.copy(), theta.copy()
            plus[j] += h
            minus[j] -= h
            numeric[j] = (hinge_objective(plus, examples, lam) - hinge_objective(minus, examples, lam)) / (2 * h)
        worst = max(worst, np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12))
        checked += 1
    _report(
        10,
        "hinge subgradient matches central differences at 100 non-kink points",
        worst <= 1e-4,
        detail=f"worst relative error {worst:.2e}",
    )
