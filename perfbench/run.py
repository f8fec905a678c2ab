"""Benchmark launcher for ``stc``.

    python3 perfbench/run.py --workload train-mono --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The launcher imports ``stc`` from the
checkout's ``src`` and nothing else; BLAS threads are pinned to 1.
With ``--trace 0`` it starts the workload process several times for
set-up alone, then once for the measured rounds, and prints the
end-to-end metrics; with ``--trace 1`` it starts one process whose
traced rounds give the per-layer metrics and whose spans are written
to ``perfbench/out/spans-<workload>-seed<seed>.npz``. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Metric names and units come from ``BENCHMARK.json``.

Exits 2 without a result when the checkout has no ``src/stc`` or a
workload process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_SAMPLES = 5  # set-up is timed this many times per run; the median is reported
SETUP_TIMEOUT_S = 60
ROUNDS_GRACE_S = 100  # a run may overrun --seconds by one round and its checks


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _workload_process(args, run_dir: Path, index: int, setup_only: bool, timeout: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    result = run_dir / f"result-{index}.json"
    command = [
        sys.executable,
        str(HERE / "workload.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--run-dir", str(run_dir),
        "--result", str(result),
    ]
    if setup_only:
        command.append("--setup-only")
    spawned = time.perf_counter_ns()  # CLOCK_MONOTONIC: comparable across processes
    completed = subprocess.run(command + ["--spawned-ns", str(spawned)], env=env, stdout=sys.stderr, timeout=timeout)
    if completed.returncode != 0:
        raise RuntimeError(f"workload process exited {completed.returncode}")
    return json.loads(result.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        return _fail(f"unknown workload {args.workload!r}")
    if not (ROOT / "src" / "stc" / "__init__.py").is_file():
        return _fail(f"no stc sources under {ROOT / 'src'}; run from a checkout of the repository")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    run_dir = OUT / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        setups = []
        if not args.trace:
            for index in range(SETUP_SAMPLES - 1):
                setups.append(_workload_process(args, run_dir, index, True, SETUP_TIMEOUT_S)["setup_s"])
        run = _workload_process(args, run_dir, SETUP_SAMPLES, False, args.seconds + ROUNDS_GRACE_S)
        setups.append(run["setup_s"])
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        return _fail(f"{args.workload} seed {args.seed}: {exc}")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if args.trace:
        values = run["per_layer"]
    else:
        values = {"setup_s": statistics.median(setups), "wall_s": run["wall_s"], "peak_rss_mb": run["peak_rss_mb"]}
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        return _fail(f"workload reported no value for {', '.join(missing)}")
    walls = ", ".join(f"{w:.3f}" for w in run["walls"])
    print(f"perfbench: {args.workload} seed {args.seed}: {run['rounds']} round(s), untraced wall_s {walls}", file=sys.stderr)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": run["correct"], "attempted": run["attempted"], "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
