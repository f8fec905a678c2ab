"""Run alternating benchmark pairs of two checkouts and write one BENCH_*.json.

    python3 tools/bench_pairs.py --base ../parent --change . --pairs 10 \
        --out BENCH_<label>.json

For every workload in the change's ``BENCHMARK.json`` (or each one named
with ``--workload``) and every pair i = 0, 1, ... (seed ``--first-seed`` + i),
``perfbench/run.py`` runs once in each checkout with the file's
``run_seconds``: the base first in pairs with an odd seed, the change
first in the others. The output keeps every run's JSON line and, per
workload and end-to-end metric, each side's median and quartiles
(``statistics.quantiles(values, n=4)``), the parent's spread (q3 - q1),
how many pairs the change won (lower is better; ties count for neither
side) and ``gain_shown``: the change won at least nine tenths of the
pairs and its median is lower than the parent's by more than the
parent's spread.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path


def _run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    completed = subprocess.run(command, cwd=checkout, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(completed.stdout.strip().splitlines()[-1])


def _summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", required=True, type=Path, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, type=Path, help="checkout of the change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", dest="first_seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--workload", action="append", help="run only this workload (repeatable; default: all)")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    runs = []
    summary = {}
    for workload in workloads:
        sides: dict[str, list[dict]] = {"base": [], "change": []}
        for seed in range(args.first_seed, args.first_seed + args.pairs):
            order = ("base", "change") if seed % 2 else ("change", "base")
            for side in order:
                result = _run(getattr(args, side), workload, seed, seconds)
                sides[side].append(result)
                runs.append({"workload": workload, "seed": seed, "side": side, "result": result})
                print(json.dumps(runs[-1]), flush=True)
        summary[workload] = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            base = [r["metrics"][name]["value"] for r in sides["base"]]
            change = [r["metrics"][name]["value"] for r in sides["change"]]
            base_summary = _summary(base)
            change_summary = _summary(change)
            base_spread = base_summary["q3"] - base_summary["q1"]
            change_wins = sum(c < b for b, c in zip(base, change))
            summary[workload][name] = {
                "unit": metric["unit"],
                "bound": metric["bound"],
                "base": base_summary,
                "change": change_summary,
                "change_over_base": change_summary["median"] / base_summary["median"],
                "base_spread": base_spread,
                "change_wins": change_wins,
                "base_wins": sum(b < c for b, c in zip(base, change)),
                "gain_shown": change_wins >= 0.9 * args.pairs
                and base_summary["median"] - change_summary["median"] > base_spread,
            }
        summary[workload]["failed"] = {side: [r["failed"] for r in results] for side, results in sides.items()}
        summary[workload]["correct"] = {side: all(r["correct"] for r in results) for side, results in sides.items()}
    record = {
        "machine": {"platform": platform.platform(), "python": platform.python_version(), "cpus": os.cpu_count()},
        "run_seconds": seconds,
        "pairs": args.pairs,
        "first_seed": args.first_seed,
        "summary": summary,
        "runs": runs,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
