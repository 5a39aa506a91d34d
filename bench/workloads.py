"""Workload definitions, inputs and output checks for the venroute benchmark.

Every workload times user-level driver calls (``run_compare`` is ``ven
compare``, ``run_growth`` is ``ven growth``) on the paper's fixed instances,
so the timed work is the same whatever the seed. The seed picks the
hold-out instances, which are checked against invariants once per run:
seed 0 is the paper's instances themselves; any other seed relabels every
junction, arc and route id of them by a seeded permutation (for ``growth``,
it is the ``run_growth`` seed). A relabelled instance has the same optimum
but different id orders, so tie-breaks, sampled subsets and greedy choices
change. Fresh generator seeds were not used for timing because their cost
is unsteady: 4x4 grids range from 7 to 86,022 energy paths.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import venroute as v
from venroute.experiments import GROWTH_HEADER, run_compare, run_growth

METHOD_LABEL = {"I": "method1", "II": "method2", "III": "method3"}
REFERENCE_PATH = Path(__file__).with_name("reference.json")
REL_TOL = 1e-6


@dataclass(frozen=True)
class Case:
    """One scenario and the run_compare sweep made on it."""

    name: str
    text: str  # the scenario file the program loads
    scenario: object  # venroute.Scenario loaded from ``text``
    targets: tuple[float, ...]
    methods: tuple[str, ...]
    subset_limit: int
    subset_seeds: tuple[int, ...]


@dataclass(frozen=True)
class GrowthStudy:
    n_values: tuple[int, ...]
    densities: tuple[float, ...]
    instances: int
    seed: int


def _grid_specs(reduced: bool):
    # grid seed 4 with constant flow reproduces the 0.3717 loss ratio; grid
    # seed 47 with uniform flow shows the equal / trailing / failing greedy
    specs = [
        ("grid4-const", lambda: v.generate_grid(4, 4, 10.0, 60.0, 20, ("const", 0.1), seed=4),
         (1.0, 200.0)),
        ("grid47-uniform",
         lambda: v.generate_grid(4, 4, 10.0, 60.0, 20, ("uniform", 0.1, 0.3), seed=47),
         (1.0, 500.0, 2457.0, 2900.0)),
    ]
    return specs[:1] if reduced else specs


def _corridor_specs(reduced: bool):
    if reduced:
        make = lambda: v.generate_corridor(  # noqa: E731
            rows=6, cols=15, kept_edges=110, route_count=300, seed=0
        )
        return [("corridor-small", make, (200.0, 500.0))]
    return [("corridor0", lambda: v.generate_corridor(seed=0), (2000.0, 5000.0, 10000.0))]


def paper_specs(workload: str, reduced: bool = False):
    """(case name, scenario generator, targets) of the workload's paper instances."""
    if workload == "grid-paper":
        return _grid_specs(reduced)
    if workload == "corridor":
        return _corridor_specs(reduced)
    return []


def make_cases(workload: str, loaded, reduced: bool = False) -> list[Case]:
    """The run_compare cases over loaded (name, text, scenario, targets) inputs."""
    if workload == "grid-paper":
        methods, limit, seeds = ("I", "II", "III"), 50, tuple(range(20))
    else:
        methods, limit, seeds = ("II", "III"), 30, tuple(range(15))
    if reduced:
        seeds = seeds[:2]
    return [
        Case(name, text, scenario, targets, methods, limit, seeds)
        for name, text, scenario, targets in loaded
    ]


def growth_study(seed: int, reduced: bool = False) -> GrowthStudy:
    if reduced:
        return GrowthStudy((4, 6), (0.2, 0.35), 3, seed)
    return GrowthStudy((4, 6, 8, 10), (0.2, 0.35, 0.5), 30, seed)


def relabel(text: str, seed: int) -> str:
    """The same scenario with junction, arc and route ids permuted by ``seed``."""
    if seed == 0:
        return text
    ids: dict[str, list[str]] = {"junctions": [], "arcs": [], "routes": []}
    section = None
    for line in text.splitlines():
        s = line.strip()
        if s.startswith("["):
            section = s[1:-1]
        elif s and section in ids:
            ids[section].append(s.split()[0])
    rng = random.Random(seed)

    def permutation(old: list[str]) -> dict[str, str]:
        new = list(old)
        rng.shuffle(new)
        return dict(zip(old, new))

    jmap, amap, rmap = (permutation(ids[k]) for k in ("junctions", "arcs", "routes"))
    out = []
    section = None
    for line in text.splitlines():
        s = line.strip()
        if s.startswith("["):
            section = s[1:-1]
        elif s and section == "endpoints" and s.split("=")[0].strip() in ("s", "t"):
            key, _, value = s.partition("=")
            line = f"{key.strip()} = {jmap[value.strip()]}"
        elif s and section == "junctions":
            line = jmap[s]
        elif s and section == "arcs":
            aid, tail, head, *rest = s.split()
            line = " ".join([amap[aid], jmap[tail], jmap[head], *rest])
        elif s and section == "routes":
            rid, *fields = s.split()
            fields = [
                "arcs=" + ",".join(amap[a] for a in f[len("arcs="):].split(","))
                if f.startswith("arcs=")
                else f
                for f in fields
            ]
            line = " ".join([rmap[rid], *fields])
        out.append(line)
    return "\n".join(out) + "\n"


def driver_calls(workload: str, cases, study: GrowthStudy | None):
    """The user-level calls of one round, as (metric label, case name, method, thunk)."""
    if workload == "growth":
        return [
            ("growth", "growth", None,
             lambda: run_growth(study.n_values, study.densities, study.instances, study.seed))
        ]
    calls = []
    for case in cases:
        for method in case.methods:
            calls.append((
                METHOD_LABEL[method],
                case.name,
                method,
                lambda case=case, method=method: table_rows(run_compare(
                    case.scenario,
                    case.targets,
                    methods=(method,),
                    subset_limit=case.subset_limit,
                    subset_seeds=case.subset_seeds,
                )),
            ))
    return calls


def table_rows(table) -> list[list]:
    return [
        [r.target_kwh, r.method, r.status, r.loss_kwh, r.delivered_kwh, r.paths_used]
        for r in table.sorted_rows()
    ]


# ---------------------------------------------------------------- checks
# Each check returns a list of failure messages; an empty list passes.


def close(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-9)


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def compare_rows(label: str, rows, want) -> list[str]:
    """Statuses and counts exactly, losses and deliveries to 1e-6 relative."""
    if len(rows) != len(want):
        return [f"{label}: {len(rows)} rows, expected {len(want)}"]
    return [
        f"{label} @ {got[0]}: got {got}, expected {ref}"
        for got, ref in zip(rows, want)
        if got[:3] != ref[:3] or got[5] != ref[5]
        or not (close(got[3], ref[3]) and close(got[4], ref[4]))
    ]


def check_rows_reference(case_name: str, method: str, rows, reference: dict) -> list[str]:
    want = reference["compare"].get(case_name, {}).get(method)
    if want is None:
        return [f"{case_name}/{method}: no reference rows"]
    return compare_rows(f"{case_name}/{method}", rows, want)


def check_growth_reference(csv_text: str, reference: dict) -> list[str]:
    bad = []
    digest = hashlib.sha256(csv_text.encode()).hexdigest()
    if digest != reference["growth"]["sha256"]:
        bad.append(f"growth CSV sha256 {digest} differs from the reference")
    trend = csv_text.rstrip("\n").splitlines()[-1]
    if trend != reference["growth"]["trend"]:
        bad.append(f"growth trend line reads {trend!r}")
    return bad


def check_compare_invariants(case_name: str, rows_by_method: dict, targets):
    """Method ordering and delivery over one case's rows, for any seed.

    Method I (full LP) is the optimum: no sampled LP or greedy plan loses
    less, and neither is feasible where it is not. Returns (method, message)
    pairs, naming the method whose row breaks the invariant.
    """
    bad = []
    for target in targets:
        row = {}
        for m, rows in rows_by_method.items():
            row[m] = next((r for r in rows if r[0] == target), None)
            if row[m] is None:
                bad.append((m, f"{case_name}/{m}: no row for target {target}"))
                return bad
        for m, (_, _, status, loss, delivered, _) in row.items():
            if status == "optimal" and not delivered >= target * (1 - REL_TOL) - 1e-9:
                bad.append((m, f"{case_name}/{m} @ {target}: delivered {delivered} < target"))
            if status not in ("optimal", "infeasible"):
                bad.append((m, f"{case_name}/{m} @ {target}: status {status}"))
        exact = row.get("I")
        if exact is None:
            continue
        for m in ("II", "III"):
            if m not in row or row[m][2] != "optimal":
                continue
            if exact[2] != "optimal":
                bad.append((m, f"{case_name} @ {target}: method {m} optimal, method I {exact[2]}"))
            elif row[m][3] < exact[3] - REL_TOL * max(1.0, exact[3]):
                bad.append((
                    m,
                    f"{case_name} @ {target}: method {m} loss {row[m][3]} "
                    f"below method I loss {exact[3]}",
                ))
    return bad


def check_plan_caps(case_name: str, plans, routes, params) -> list[str]:
    """Every plan entry within its rate cap (w times its slowest segment's
    route flow) and its window cap ((T - delay) z^cycles times its rate)."""
    flow = {r.route_id: r.flow for r in routes}
    w, z, window = params.packet_kwh, params.efficiency, params.window_s
    bad = []
    for label, plan in plans:
        for e in plan.entries:
            p = e.path
            rate_cap = w * min(flow[rid] for rid, _, _ in p.segments)
            window_cap = max(0.0, window - p.delay_s) * z ** len(p.segments) * e.rate
            if not (e.rate >= 0.0 and e.delivered_kwh >= 0.0):
                bad.append(f"{case_name} {label}: negative rate or energy in {p.boundaries}")
            if e.rate > rate_cap * (1 + REL_TOL) + 1e-12:
                bad.append(f"{case_name} {label}: rate {e.rate} > cap {rate_cap}")
            if e.delivered_kwh > window_cap * (1 + REL_TOL) + 1e-9:
                bad.append(f"{case_name} {label}: energy {e.delivered_kwh} > cap {window_cap}")
    return bad


def parse_growth(csv_text: str):
    """(instance rows, per-cell mean rows, trend line) of a run_growth CSV."""
    lines = csv_text.rstrip("\n").splitlines()
    rows = [ln.split(",") for ln in lines[1:] if not ln.startswith("#")]
    means = [ln for ln in lines if ln.startswith("# mean ")]
    return lines[0], rows, means, lines[-1]


def check_growth_invariants(csv_text: str, study: GrowthStudy) -> list[str]:
    """Shape, per-cell means and the trend line agree with the instance rows."""
    header, rows, means, trend = parse_growth(csv_text)
    bad = []
    if header != GROWTH_HEADER:
        bad.append(f"growth header {header!r}")
    cells = len(study.n_values) * len(study.densities)
    if len(rows) != cells * study.instances or len(means) != cells:
        return bad + [f"growth: {len(rows)} rows and {len(means)} means for {cells} cells"]
    got: dict[tuple[int, float], list[int]] = {}
    for n, density, _seed, acc_density, n_paths, capped in rows:
        if not 0.0 <= float(acc_density) <= 1.0:
            bad.append(f"growth: accessibility density {acc_density}")
        if capped == "true" and int(n_paths) != 0:
            bad.append("growth: capped instance reports paths")
        got.setdefault((int(n), round(float(density), 4)), []).append(int(n_paths))
    ns, ds = study.n_values, [round(d, 4) for d in study.densities]
    if set(got) != {(n, d) for n in ns for d in ds}:
        return bad + [f"growth: instance rows cover cells {sorted(got)}"]
    mean = {key: sum(counts) / len(counts) for key, counts in got.items()}
    for line in means:
        fields = dict(tok.split("=") for tok in line[len("# mean "):].split())
        key = (int(fields["n"]), round(float(fields["density"]), 4))
        if key not in mean or abs(mean[key] - float(fields["mean_paths"])) > 1e-4:
            bad.append(f"growth: {line!r} does not match its rows")
    density_ok = all(
        mean[(n, a)] < mean[(n, b)] for n in ns for a, b in zip(ds, ds[1:])
    )
    size_ok = all(mean[(a, d)] < mean[(b, d)] for d in ds for a, b in zip(ns, ns[1:]))
    want = (
        f"# trend density_monotone={str(density_ok).lower()} "
        f"size_monotone={str(size_ok).lower()}"
    )
    if trend != want:
        bad.append(f"growth trend {trend!r}, rows give {want!r}")
    return bad
