"""Output checks computed apart from the program.

Nothing here calls into ``stc``: each check rebuilds what the program
should have produced from the raw inputs, with the standard library, and
compares. A check returns a list of failure messages; empty means pass.

The synthetic corpora make this possible: their words are lower-case, at
least three letters long, not stop words and fixed points of the
stemmer, so a sentence's tokens are exactly ``sentence.split()``.
"""

from __future__ import annotations

import csv
import io
import math
from collections import Counter

TOL = 1e-12


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL


# -- vocabulary and tf-idf -----------------------------------------------------


def tfidf_failures(train_raw, vocab, docs_raw, docs) -> list[str]:
    """Rebuild the training vocabulary (first-seen index, document
    frequency, idf = ln(N/df)) and every sentence and document vector,
    and compare them with the program's to 1e-12."""
    failures = []
    index: dict[str, int] = {}
    df: Counter = Counter()
    for doc in train_raw:
        seen = set()
        for sentence in doc.sentences:
            for word in sentence.split():
                index.setdefault(word, len(index))
                seen.add(word)
        df.update(seen)
    if vocab.index != index:
        failures.append("vocabulary index differs from first-seen order over the training documents")
        return failures
    if vocab.df != dict(df):
        failures.append("document frequencies differ")
    n_train = len(train_raw)
    idf = [0.0] * len(index)
    for word, i in index.items():
        idf[i] = math.log(n_train / df[word])
    if any(not _close(float(vocab.idf[i]), idf[i]) for i in range(len(idf))):
        failures.append("idf differs from ln(N/df)")

    def expected(words):
        counts = Counter(index[w] for w in words if w in index)
        weights = {i: c * idf[i] for i, c in counts.items()}
        if all(w == 0.0 for w in weights.values()):
            weights = {i: float(c) for i, c in counts.items()}
        weights = {i: w for i, w in weights.items() if w != 0.0}
        norm = math.sqrt(sum(w * w for w in weights.values()))
        return sorted((i, w / norm) for i, w in weights.items())

    def same(vector, want) -> bool:
        got = list(zip(vector.indices.tolist(), vector.values.tolist()))
        return len(got) == len(want) and all(gi == wi and _close(gv, wv) for (gi, gv), (wi, wv) in zip(got, want))

    bad_sentences = bad_docs = 0
    for raw, doc in zip(docs_raw, docs):
        if doc.id != raw.id or len(doc.sentence_vectors) != len(raw.sentences):
            failures.append(f"document {raw.id}: wrong id or sentence count")
            continue
        for sentence, vector in zip(raw.sentences, doc.sentence_vectors):
            bad_sentences += not same(vector, expected(sentence.split()))
        bad_docs += not same(doc.global_vector, expected([w for s in raw.sentences for w in s.split()]))
    if len(docs) != len(docs_raw):
        failures.append(f"{len(docs)} vectorized documents for {len(docs_raw)} inputs")
    if bad_sentences:
        failures.append(f"{bad_sentences} sentence vector(s) differ from the recomputed tf-idf")
    if bad_docs:
        failures.append(f"{bad_docs} document vector(s) differ from the recomputed tf-idf")
    return failures


def label_vector(labels, category_names) -> tuple[int, ...]:
    return tuple(int(name in labels) for name in category_names)


# -- episodes and scores -------------------------------------------------------


def f1(y, y_hat) -> float:
    tp = sum(1 for a, b in zip(y, y_hat) if a == 1 and b == 1)
    denominator = sum(y) + sum(y_hat)
    return 2.0 * tp / denominator if denominator else 0.0


def _pooled_f1(tp: int, fp: int, fn: int) -> float:
    denominator = 2 * tp + fp + fn
    return 2.0 * tp / denominator if denominator else 0.0


def micro_macro(pairs, n_categories: int) -> tuple[float, float]:
    """Micro-F1 over every (document, class) pair and the unweighted mean
    of per-class F1, by counting."""
    per_class = [[0, 0, 0] for _ in range(n_categories)]
    for y, y_hat in pairs:
        for k in range(n_categories):
            if y_hat[k] == 1 and y[k] == 1:
                per_class[k][0] += 1
            elif y_hat[k] == 1:
                per_class[k][1] += 1
            elif y[k] == 1:
                per_class[k][2] += 1
    micro = _pooled_f1(*(sum(c[i] for c in per_class) for i in range(3)))
    macro = sum(_pooled_f1(*c) for c in per_class) / n_categories
    return micro, macro


def episode_failures(docs_raw, category_names, preds, logs) -> list[str]:
    """Replay each mono-label episode's actions by hand and check the
    invariants: it halts on its only stop within n + C + 1 steps,
    1 <= read <= n, at most one label is assigned, and the logged reward,
    assignment and prediction match the replay."""
    failures: list[str] = []
    n_categories = len(category_names)
    if not len(preds) == len(logs) == len(docs_raw):
        return [f"{len(preds)} predictions and {len(logs)} logs for {len(docs_raw)} documents"]
    for raw, pred, log in zip(docs_raw, preds, logs):
        n = len(raw.sentences)
        y = label_vector(raw.labels, category_names)
        problems = []
        if log.doc_id != raw.id or pred.doc_id != raw.id or log.n_sentences != n:
            problems.append("document identity")
        if len(log.actions) > n + n_categories + 1:
            problems.append(f"{len(log.actions)} steps exceed n + C + 1")
        p, assigned, halted, classified = 1, [0] * n_categories, False, False
        for action in log.actions:
            if halted:
                problems.append("action after stop")
                break
            if action.kind == "classify":
                if classified:
                    problems.append(f"illegal {action}")
                assigned[action.category] = 1
                classified = True
            elif action.kind == "next":
                if p >= n:
                    problems.append("next past the last sentence")
                p += 1
            elif action.kind == "stop":
                halted = True
            else:
                problems.append(f"unknown action {action}")
        if not halted:
            problems.append("episode did not halt")
        if not 1 <= log.sentences_read <= n or log.sentences_read != p:
            problems.append(f"read {log.sentences_read} (replay {p}, n {n})")
        if tuple(log.final_assigned) != tuple(assigned) or tuple(pred.y_hat) != tuple(assigned):
            problems.append("assignment differs from the replay")
        if tuple(pred.y) != y:
            problems.append("gold labels differ from the document's")
        if not _close(log.reward, f1(y, assigned)):
            problems.append(f"reward {log.reward} != F1 {f1(y, assigned)}")
        if problems:
            failures.append(f"episode {raw.id}: {'; '.join(problems)}")
    return failures[:5]


# -- experiment reports --------------------------------------------------------


def _mean(values):
    return sum(values) / len(values)


def _std(values):
    m = _mean(values)
    return math.sqrt(sum((v - m) ** 2 for v in values) / len(values))


def _number(text: str):
    return None if text == "" else float(text)


def csv_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def cells_csv_failures(text: str, report: dict) -> list[str]:
    """cells.csv, read by its header, states what report.json's cells do."""
    rows = csv_rows(text)
    cells = report["cells"]
    if len(rows) != len(cells):
        return [f"cells.csv has {len(rows)} rows, report.json {len(cells)} cells"]
    failures = []
    for i, (row, cell) in enumerate(zip(rows, cells)):
        want = {
            "method": cell["method"],
            "fraction": cell["fraction"],
            "run": cell["run"],
            "lambda": cell["lam"],
            "micro_f1": cell["micro_f1"],
            "macro_f1": cell["macro_f1"],
            "reading_size": cell["reading_size"],
            "error": cell["error"] or "",
        }
        got = {
            "method": row["method"],
            "fraction": float(row["fraction"]),
            "run": int(row["run"]),
            "lambda": float(row["lambda"]),
            "micro_f1": _number(row["micro_f1"]),
            "macro_f1": _number(row["macro_f1"]),
            "reading_size": _number(row["reading_size"]),
            "error": row["error"],
        }
        wrong = [k for k in want if got[k] != want[k]]
        if wrong:
            failures.append(f"cells.csv row {i + 1}: {', '.join(wrong)} differ from report.json")
    return failures[:5]


_AGGREGATE_FIELDS = {
    "lambda": "lam",
    "n_runs": "n_runs",
    "micro_f1_mean": "micro_f1_mean",
    "micro_f1_std": "micro_f1_std",
    "macro_f1_mean": "macro_f1_mean",
    "macro_f1_std": "macro_f1_std",
    "reading_size_mean": "reading_size_mean",
    "reading_size_std": "reading_size_std",
}


# The one known fault: write_report_files writes n_runs under the lambda
# header and lambda under n_runs. Reported as this exact message, and
# only when a row's two columns hold each other's values.
LAMBDA_NRUNS_SWAP = "aggregate.csv: write_report_files writes n_runs under the lambda header and lambda under n_runs"


def aggregate_csv_failures(text: str, report: dict) -> list[str]:
    """aggregate.csv, read by its header, states what report.json's
    aggregate rows do. A lambda/n_runs swap is reported once, as
    ``LAMBDA_NRUNS_SWAP``, after every other mismatch."""
    rows = csv_rows(text)
    aggregates = report["aggregates"]
    if len(rows) != len(aggregates):
        return [f"aggregate.csv has {len(rows)} rows, report.json {len(aggregates)}"]
    failures = []
    swapped = False
    for row, agg in zip(rows, aggregates):
        where = f"aggregate.csv {row['method']}@{row['fraction']}"
        if row["method"] != agg["method"] or float(row["fraction"]) != agg["fraction"]:
            failures.append(f"{where}: row order differs from report.json")
            continue
        columns = dict(_AGGREGATE_FIELDS)
        if agg["lam"] != agg["n_runs"] and (_number(row["lambda"]), _number(row["n_runs"])) == (agg["n_runs"], agg["lam"]):
            swapped = True
            del columns["lambda"], columns["n_runs"]
        for column, key in columns.items():
            if _number(row[column]) != agg[key]:
                failures.append(f"{where}: column {column} reads {row[column]}, report.json has {agg[key]}")
    return failures[:5] + ([LAMBDA_NRUNS_SWAP] if swapped else [])


def aggregate_failures(report: dict) -> list[str]:
    """Each aggregate row is the mean and population std of its cells for
    the lambda with the best mean micro-F1, ties to the smaller lambda."""
    failures = []
    plan = report["plan"]
    cells = report["cells"]
    grids = {"baseline": plan["baseline_lambda_grid"], "stc": plan["stc_lambda_grid"]}
    expected_rows = len(grids) * len(plan["fractions"])
    if len(report["aggregates"]) != expected_rows:
        failures.append(f"{len(report['aggregates'])} aggregate rows, expected {expected_rows}")
    for agg in report["aggregates"]:
        where = f"aggregate {agg['method']}@{agg['fraction']}"
        means = {}
        for lam in grids[agg["method"]]:
            group = [
                c
                for c in cells
                if c["method"] == agg["method"] and c["fraction"] == agg["fraction"] and c["lam"] == lam and c["error"] is None
            ]
            if group:
                means[lam] = (_mean([c["micro_f1"] for c in group]), group)
        best = max(m for m, _ in means.values())
        chosen = min(lam for lam, (m, _) in means.items() if m >= best - TOL)
        if agg["lam"] != chosen:
            failures.append(f"{where}: lambda {agg['lam']} chosen, rule gives {chosen}")
            continue
        group = means[chosen][1]
        micro = [c["micro_f1"] for c in group]
        macro = [c["macro_f1"] for c in group]
        reading = [c["reading_size"] for c in group if c["reading_size"] is not None]
        want = {
            "n_runs": len(group),
            "micro_f1_mean": _mean(micro),
            "micro_f1_std": _std(micro),
            "macro_f1_mean": _mean(macro),
            "macro_f1_std": _std(macro),
            "reading_size_mean": _mean(reading) if reading else None,
            "reading_size_std": _std(reading) if reading else None,
        }
        for key, value in want.items():
            got = agg[key]
            if (value is None) != (got is None) or (value is not None and not _close(got, value)):
                failures.append(f"{where}: {key} {got} != {value}")
    return failures[:5]


def histogram_failures(text: str, report: dict, n_test_docs: int) -> list[str]:
    """reading_histogram.csv states report.json's histogram, its bins
    tile (0, 1], and its counts cover every test document of every run at
    the histogram fraction."""
    plan = report["plan"]
    histogram = report["histogram"]
    if histogram is None:
        return ["report.json has no histogram"]
    failures = []
    rows = [(float(r["bin_lo"]), float(r["bin_hi"]), int(r["count"])) for r in csv_rows(text)]
    if rows != [tuple(b) for b in histogram]:
        failures.append("reading_histogram.csv differs from report.json")
    bins = plan["histogram_bins"]
    if [(lo, hi) for lo, hi, _ in rows] != [(k / bins, (k + 1) / bins) for k in range(bins)]:
        failures.append("histogram bins do not tile (0, 1]")
    want = plan["n_runs"] * n_test_docs
    if sum(count for _, _, count in rows) != want:
        failures.append(f"histogram counts sum to {sum(c for _, _, c in rows)}, expected {want}")
    return failures
