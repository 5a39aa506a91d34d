"""Benchmark launcher for venroute: one workload, one seed, one JSON result line.

Run from the repository root:

    python3 bench/run.py --workload corridor --seed 0 --seconds 20 --trace 0

Workloads: grid-paper, corridor, growth (see bench/BENCHMARK.md). With
``--trace 0`` the result holds the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced replay. The last line of standard output is
the JSON result; the full record (environment, failures, spans) goes to
``bench/results/``.

The launcher pins BLAS and OpenMP to one thread and runs the workload in a
worker process of its own, so peak memory and import time are the
workload's alone. ``setup_s`` is the median over several fresh processes.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
RESULTS = BENCH / "results"
WORKLOADS = ("grid-paper", "corridor", "growth")
SETUP_PROBES = 5  # fresh processes timing set-up alone; the worker adds one more
RUN_LIMIT_S = 170.0  # every run ends within this, set-up and checks included
PINNED = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="venroute benchmark launcher")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--reduced", action="store_true",
                   help="small inputs and no reference values; for the smoke test")
    return p.parse_args(argv)


def run_worker(args, deadline: float, setup_only: bool = False) -> dict | None:
    """Run one worker process to completion; its last stdout line, parsed."""
    cmd = [
        sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if args.reduced:
        cmd.append("--reduced")
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, **PINNED)
    env.pop("PYTHONPATH", None)  # the worker imports venroute from src/ only
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        print("error: worker ran past the time limit", file=sys.stderr)
        return None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"error: worker exited with code {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "venroute" / "__init__.py").is_file():
        print(f"error: no venroute sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S

    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            probe = run_worker(args, deadline, setup_only=True)
            if probe is None:
                return 1
            setups.append(probe["setup_s"])
    result = run_worker(args, deadline)
    if result is None:
        return 1
    metrics = result["metrics"]
    if not args.trace:
        setups.append(result["setup_s"])
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}

    RESULTS.mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  setup_runs_s=setups)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(record, indent=1) + "\n")

    env = result["env"]
    print(
        f"{args.workload} seed={args.seed} rounds={result['rounds']} "
        f"python={env['python']} numpy={env['numpy']} scipy={env['scipy']} "
        f"highs={env['highs']} nproc={env['nproc']} cpu={env['cpu']!r}"
    )
    for msg in result["failures"]:
        print(f"failed check: {msg.splitlines()[0]}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
