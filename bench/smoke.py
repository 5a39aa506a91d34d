"""Smoke test of the benchmark harness.

    python3 bench/smoke.py

Runs every workload once on reduced inputs, untraced and traced, and
asserts that each run is correct and reports exactly the metrics that
BENCHMARK.json names, with their units. Then checks that a corrupted
reference value is caught, and that the launcher refuses to run without
the venroute sources. Takes about a minute.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--reduced"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def check_workloads(spec: dict) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        units = {m["name"]: m["unit"] for m in spec[key]}
        for workload in spec["workloads"]:
            proc = run(ROOT, workload["name"], trace)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == RESULT_KEYS, result.keys()
            assert result["correct"] and result["failed"] == 0, proc.stdout
            assert result["attempted"] >= 1
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == units, (workload["name"], trace, set(got) ^ set(units))
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)), name
            print(f"ok {workload['name']} trace={trace}")


def check_corrupted_reference() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    import workloads as wl

    reference = wl.load_reference()
    rows = reference["compare"]["grid4-const"]["I"]
    assert wl.check_rows_reference("grid4-const", "I", rows, reference) == []
    corrupted = copy.deepcopy(reference)
    corrupted["compare"]["grid4-const"]["I"][1][3] *= 1 + 1e-5
    assert wl.check_rows_reference("grid4-const", "I", rows, corrupted)
    print("ok corrupted reference value is caught")


def check_refuses_without_sources(spec: dict) -> None:
    (BENCH / "results").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH / "results") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("results", "__pycache__"))
        proc = run(bare, spec["workloads"][0]["name"], 0)
        assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    print("ok refuses to run without src/venroute")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_workloads(spec)
    check_corrupted_reference()
    check_refuses_without_sources(spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
