"""One benchmark workload in its own process; prints its result as a JSON line.

Started by ``bench/run.py``, not by hand. Order of work:

1. Set-up: import venroute, generate the workload's paper instances and load
   them from scenario text, as ``ven`` does (timed as ``setup_s``).
2. Timed loop: rounds of the user-level driver calls until ``--seconds`` have
   passed, one call after another (closed loop, one thread). Each call's
   output is checked against the reference, outside the timed region.
   With ``--trace 1`` the rounds alternate with traced replay rounds.
3. Check pass: the replay (``replay.py``) on the seed's hold-out instances,
   checked against invariants, plan caps and, on seed 0, the reference. It
   runs last, so that peak memory is that of the timed inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

from hostspeed import HostSpeed
from tracing import NullTracer, Tracer

ROOT = Path(__file__).resolve().parent.parent

# per-layer time metrics: metric name -> span name
SPAN_METRICS = {
    "scenarios.generate_s": "scenarios.generate",
    "scenario_io.loads_s": "scenario_io.loads",
    "network.normalize_s": "network.normalize",
    "network.accessibility_s": "network.accessibility",
    "network.prune_s": "network.prune",
    "pathenum.sequences_s": "pathenum.sequences",
    "pathenum.expand_s": "pathenum.expand",
    "pathenum.bounded_s": "pathenum.bounded",
    "rateopt.solve_s": "rateopt.solve",
    "heuristic.call_s": "heuristic.call",
}
# per-layer counters: metric name -> unit
COUNTER_METRICS = {
    "scenario_io.bytes": "bytes",
    "network.accessibility_arcs": "count",
    "pathenum.sequences": "count",
    "pathenum.paths": "count",
    "pathenum.bounded_paths": "count",
    "rateopt.highs_s": "s",
    "rateopt.lps": "count",
    "rateopt.rows": "count",
    "rateopt.nnz": "count",
    "rateopt.iterations": "count",
    "rateopt.infeasible": "count",
    "heuristic.calls": "count",
    "heuristic.paths": "count",
    "heuristic.infeasible": "count",
}
DRIVER_LABELS = ("method1", "method2", "method3", "growth")


class Ops:
    """Operations attempted and failed; one operation is one driver or replay call."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def add(self, failures: list[str]) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            self.failures.extend(failures)
            for msg in failures:
                print(f"check failed: {msg}", file=sys.stderr)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--reduced", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def environment() -> dict:
    import numpy
    import scipy
    from scipy.optimize._highspy import _core as highs

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu
            )
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "highs": f"{highs.HIGHS_VERSION_MAJOR}.{highs.HIGHS_VERSION_MINOR}."
                 f"{highs.HIGHS_VERSION_PATCH}",
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "threads": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                                    "MKL_NUM_THREADS")},
    }


def setup(workload: str, reduced: bool, tracer):
    """Generate the paper instances and load them from scenario text."""
    import venroute as v
    import workloads as wl

    loaded = []
    for name, make, targets in wl.paper_specs(workload, reduced):
        with tracer.span("scenarios.generate"):
            scenario = make()
        with tracer.span("scenario_io.dumps"):
            text = v.dumps_scenario(scenario)
        with tracer.span("scenario_io.loads"):
            loaded_scenario = v.loads_scenario(text)
        tracer.count("scenario_io.bytes", len(text.encode()))
        loaded.append((name, text, loaded_scenario, targets))
    return loaded


def check_pass(workload, seed, reduced, cases, reference, ops) -> None:
    """Hold-out instances of the seed, through the replay, against invariants."""
    import venroute as v
    import workloads as wl
    from replay import replay_compare

    if workload == "growth":
        study = wl.growth_study(seed, reduced)
        try:
            csv_text = v.run_growth(study.n_values, study.densities, study.instances, seed)
            failures = wl.check_growth_invariants(csv_text, study)
            if seed == 0 and reference is not None:
                failures += wl.check_growth_reference(csv_text, reference)
        except Exception:
            failures = [f"run_growth(seed={seed}) raised:\n{traceback.format_exc()}"]
        ops.add(failures)
        return
    if seed != 0:
        relabelled = []
        for c in cases:
            text = wl.relabel(c.text, seed)
            relabelled.append((c.name, text, v.loads_scenario(text), c.targets))
        cases = wl.make_cases(workload, relabelled, reduced)
    for case in cases:
        rows_by_method, failures = {}, {}
        for method in case.methods:
            try:
                rows, plans, routes = replay_compare(case, method, NullTracer())
                rows_by_method[method] = rows
                failures[method] = wl.check_plan_caps(
                    case.name, plans, routes, case.scenario.params
                )
                if seed == 0 and reference is not None:
                    failures[method] += wl.check_rows_reference(case.name, method, rows, reference)
            except Exception:
                failures[method] = [f"{case.name}/{method} replay raised:\n"
                                    f"{traceback.format_exc()}"]
        for method, msg in wl.check_compare_invariants(case.name, rows_by_method, case.targets):
            failures[method].append(msg)
        for method in failures:
            ops.add(failures[method])


def main(argv=None) -> int:
    args = parse_args(argv)
    host = HostSpeed()
    host.start()
    setup_start = time.perf_counter()  # set-up time includes importing venroute
    sys.path.insert(0, str(ROOT / "src"))
    import venroute as v
    import workloads as wl
    from replay import replay_compare, replay_growth

    if not Path(v.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: venroute imported from {v.__file__}, not src/", file=sys.stderr)
        return 2
    run_id = f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    tracer = Tracer(run_id) if args.trace else NullTracer()
    loaded = setup(args.workload, args.reduced, tracer)
    setup_end = time.perf_counter()
    setup_raw_s = setup_end - setup_start
    if args.setup_only:
        host.stop()
        setup_s = setup_raw_s * host.factor(setup_start, setup_end)
        print(json.dumps({"setup_s": setup_s, "raw_setup_s": setup_raw_s}))
        return 0

    ops = Ops()
    reference = None if args.reduced else wl.load_reference()
    cases = wl.make_cases(args.workload, loaded, args.reduced)
    study = wl.growth_study(0, args.reduced)
    calls = wl.driver_calls(args.workload, cases, study)
    by_case = {c.name: c for c in cases}
    last_output: dict = {}

    def check_output(case_name, method, out) -> list[str]:
        last_output[(case_name, method)] = out
        if args.workload == "growth":
            failures = wl.check_growth_invariants(out, study)
            if reference is not None:
                failures += wl.check_growth_reference(out, reference)
            return failures
        if reference is not None:
            return wl.check_rows_reference(case_name, method, out, reference)
        return []

    untraced: list[tuple[float, float, dict[str, float]]] = []  # (start, end, raw s by label)
    traced: list[tuple[float, float]] = [(setup_start, setup_end)]  # by tracer round

    def untraced_round():
        per_label: dict[str, float] = defaultdict(float)
        round_start = time.perf_counter()
        for label, case_name, method, thunk in calls:
            start = time.perf_counter()
            try:
                out = thunk()
                per_label[label] += time.perf_counter() - start
                failures = check_output(case_name, method, out)
            except Exception:
                failures = [f"{case_name}/{label} raised:\n{traceback.format_exc()}"]
            ops.add(failures)
        untraced.append((round_start, time.perf_counter(), per_label))

    def traced_round():
        tracer.round += 1
        round_start = time.perf_counter()
        for label, case_name, method, _ in calls:
            try:
                if args.workload == "growth":
                    counts = replay_growth(study, tracer)
                    _, rows, _, _ = wl.parse_growth(last_output[(case_name, method)])
                    driver = [(int(r[2]), int(r[4]), r[5] == "true") for r in rows]
                    failures = [] if counts == driver else ["replay path counts differ"]
                else:
                    case = by_case[case_name]
                    rows, plans, routes = replay_compare(case, method, tracer)
                    failures = wl.compare_rows(
                        f"{case_name}/{method} replay", rows, last_output[(case_name, method)]
                    )
                    failures += wl.check_plan_caps(
                        case_name, plans, routes, case.scenario.params
                    )
            except Exception:
                failures = [f"{case_name}/{label} traced replay raised:\n"
                            f"{traceback.format_exc()}"]
            ops.add(failures)
        traced.append((round_start, time.perf_counter()))

    deadline = time.perf_counter() + args.seconds
    while True:
        untraced_round()
        if args.trace:
            traced_round()
        if time.perf_counter() >= deadline:
            break
    host.stop()
    # peak memory of the timed inputs, before the seed's hold-out instances run
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    check_pass(args.workload, args.seed, args.reduced, cases, reference, ops)

    # every time below is corrected for the host's speed while it was taken
    by_label = [
        {label: raw * host.factor(start, end) for label, raw in per_label.items()}
        for start, end, per_label in untraced
    ]
    round_s = statistics.median(sum(r.values()) for r in by_label)
    if args.trace:
        factors = [host.factor(start, end) for start, end in traced]
        metrics = layer_metrics(tracer, factors, by_label, round_s)
    else:
        metrics = {
            "round_s": (round_s, "s"),
            "peak_rss_mb": (rss_kib / 1024.0, "MB"),
            "success_rate": ((ops.attempted - ops.failed) / ops.attempted, "ratio"),
        }
    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "setup_s": setup_raw_s * host.factor(setup_start, setup_end),
        "raw_setup_s": setup_raw_s,
        "rounds": len(untraced),
        "round_samples_s": [sum(r.values()) for r in by_label],
        "raw_round_samples_s": [sum(per_label.values()) for _, _, per_label in untraced],
        "host_kernel_samples": len(host.samples),
        "metrics": {k: {"value": val, "unit": unit} for k, (val, unit) in metrics.items()},
        "env": environment(),
        "failures": ops.failures[:20],
    }
    if args.trace:
        result["trace"] = tracer.dump()
    print(json.dumps(result))
    return 0


def layer_metrics(tracer, factors, by_label, round_s) -> dict:
    """Per-layer metrics of the traced rounds; ``factors[r]`` corrects round r's times."""
    rounds = range(1, tracer.round + 1)
    sums = [tracer.round_sums(r) for r in range(tracer.round + 1)]

    def med(values):
        return statistics.median(list(values))

    def counter(name, r):
        return tracer.counters.get(name, {}).get(r, 0.0)

    def span_s(span, r, own=False):
        return sums[r][own].get(span, 0.0) * factors[r]

    m = {}
    for metric, span in SPAN_METRICS.items():
        m[metric] = (span_s(span, 0) + med(span_s(span, r) for r in rounds), "s")
    for metric, unit in COUNTER_METRICS.items():
        scale = factors if unit == "s" else [1.0] * len(factors)
        m[metric] = (
            counter(metric, 0) * scale[0] + med(counter(metric, r) * scale[r] for r in rounds),
            unit,
        )
    m["rateopt.assemble_s"] = (
        med(span_s("rateopt.solve", r) - counter("rateopt.highs_s", r) * factors[r]
            for r in rounds),
        "s",
    )
    combos = med(counter("pathenum.combos", r) for r in rounds)
    m["pathenum.expand_yield"] = (m["pathenum.paths"][0] / combos if combos else 0.0, "ratio")
    calls = med(counter("pathenum.bounded_calls", r) for r in rounds)
    complete = med(counter("pathenum.bounded_complete", r) for r in rounds)
    m["pathenum.bounded_complete_ratio"] = (complete / calls if calls else 0.0, "ratio")
    m["experiments.self_s"] = (
        med(span_s("experiments.run_compare", r, own=True)
            + span_s("experiments.run_growth", r, own=True) for r in rounds),
        "s",
    )
    for label in DRIVER_LABELS:
        m[f"experiments.{label}_s"] = (med(r.get(label, 0.0) for r in by_label), "s")
    m["trace.overhead_s"] = (
        med(tracer.round_total(r) * factors[r] for r in rounds) - round_s, "s"
    )
    return m


if __name__ == "__main__":
    sys.exit(main())
