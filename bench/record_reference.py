"""Record the reference outputs that the benchmark checks on its default inputs.

    python3 bench/record_reference.py

Runs every driver call of the grid-paper, corridor and growth workloads once
and writes their outputs to bench/reference.json. The committed file was
recorded from the commit that introduced the benchmark; re-record only when
a change is meant to alter the outputs, and say so in its description.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import venroute as v  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import NullTracer  # noqa: E402
from worker import setup  # noqa: E402


def main() -> int:
    reference = {"compare": {}, "growth": {}}
    for workload in ("grid-paper", "corridor"):
        cases = wl.make_cases(workload, setup(workload, False, NullTracer()))
        for _, case_name, method, thunk in wl.driver_calls(workload, cases, None):
            reference["compare"].setdefault(case_name, {})[method] = thunk()
    study = wl.growth_study(0)
    csv_text = v.run_growth(study.n_values, study.densities, study.instances, study.seed)
    reference["growth"] = {
        "sha256": hashlib.sha256(csv_text.encode()).hexdigest(),
        "trend": csv_text.rstrip("\n").splitlines()[-1],
    }
    wl.REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
