"""Run sets of benchmark runs and print the README's reference tables.

    python3 perfbench/report.py --seeds 1-10 [--traced-seed 1]

For each workload of ``BENCHMARK.json``, runs ``run.py`` once per seed
with tracing off and prints each end-to-end metric's median, quartiles
and spread (the distance between the quartiles as a share of the
median, as ``statistics.quantiles(values, n=4)`` gives them), plus the
share of failed operations. With ``--traced-seed`` it also makes one traced run
per workload and prints each layer's self time and its share of the
traced ``wall_s``. Every run's JSON line is appended to
``perfbench/out/report.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    lo, hi = text.split("-")
    return list(range(int(lo), int(hi) + 1))


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    completed = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    record = {"workload": workload, "seed": seed, "trace": trace, **result}
    (HERE / "out").mkdir(exist_ok=True)
    with open(HERE / "out" / "report.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", default="1-10", help="an inclusive range, e.g. 1-10")
    parser.add_argument("--traced-seed", dest="traced_seed", type=int, help="also make one traced run per workload")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    rows = []
    for workload in workloads:
        results = [_run(workload, seed, seconds, 0) for seed in _seeds(args.seeds)]
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            rows.append(
                f"| {workload} | {metric['name']} | {median:.4g} | {q1:.4g} | {q3:.4g} | {(q3 - q1) / median:.3f} | {metric['bound']} |"
            )
        shares = sorted({f"{r['failed']}/{r['attempted']}" for r in results})
        rows.append(f"| {workload} | failed/attempted | {', '.join(shares)} | | | | |")
    print("| workload | metric | median | q1 | q3 | spread | bound |")
    print("|---|---|---|---|---|---|---|")
    print("\n".join(rows))

    if args.traced_seed is not None:
        layers = [m["name"] for m in spec["per_layer"] if m["name"].endswith(".self_s")]
        print()
        print("| workload | traced wall_s | overhead | " + " | ".join(name.split(".")[0] for name in layers) + " |")
        print("|---|---|---|" + "---|" * len(layers))
        for workload in workloads:
            metrics = {k: v["value"] for k, v in _run(workload, args.traced_seed, seconds, 1)["metrics"].items()}
            wall = metrics["trace.wall_s"]
            cells = " | ".join(f"{metrics[name]:.2f} s ({metrics[name] / wall:.0%})" for name in layers)
            print(f"| {workload} | {wall:.2f} | {metrics['trace.overhead_share']:+.0%} | {cells} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
