"""Experiment drivers: method comparison sweeps and the path-count growth study.

Results are plain rows rendered to CSV with units in the headers. Wall times
are measured around computation only (no file I/O) and are emitted only on
request, so default outputs are byte-stable across runs.
"""

from __future__ import annotations

import io
import math
import time
from dataclasses import dataclass
from typing import Sequence

from .energy import plan_totals
from .errors import DomainError, EnumerationCapError
from .heuristic import heuristic_min_loss
from .network import build_accessibility_graph, normalize_routes, prune_unreachable
from .pathenum import (
    DEFAULT_CAP,
    PathSet,
    count_paths,
    enumerate_bounded,
    enumerate_paths,
    enumerate_sequences,
)
from .rateopt import LossMinProblem, solve_min_loss
from .scenarios import Scenario, generate_random


@dataclass(frozen=True)
class ResultRow:
    target_kwh: float
    method: str
    status: str  # "optimal" | "infeasible" | "error:<what>"
    loss_kwh: float | None
    delivered_kwh: float | None
    paths_used: float | None
    wall_ms: float


COMPARE_HEADER = (
    "x_target_kwh,method,status,total_loss_kwh,delivered_kwh,paths_used,wall_time_ms"
)


@dataclass
class ResultTable:
    rows: list[ResultRow]

    def sorted_rows(self) -> list[ResultRow]:
        return sorted(self.rows, key=lambda r: (r.target_kwh, r.method))

    def to_csv(self, include_timings: bool = False) -> str:
        out = io.StringIO()
        out.write(COMPARE_HEADER + "\n")
        for r in self.sorted_rows():
            loss = f"{r.loss_kwh:.6f}" if r.loss_kwh is not None else ""
            delivered = f"{r.delivered_kwh:.6f}" if r.delivered_kwh is not None else ""
            paths = f"{r.paths_used:.2f}" if r.paths_used is not None else ""
            wall = f"{r.wall_ms:.3f}" if include_timings else ""
            out.write(
                f"{r.target_kwh:.6f},{r.method},{r.status},{loss},{delivered},{paths},{wall}\n"
            )
        return out.getvalue()


def prepare(scenario: Scenario):
    """Normalize routes and build the pruned accessibility structures once."""
    routes = normalize_routes(scenario.network, scenario.routes)
    accessibility = build_accessibility_graph(scenario.network, routes)
    pruned, _blocked = prune_unreachable(
        scenario.network, accessibility, scenario.destination
    )
    return routes, accessibility, pruned


def _solve_on(scenario: Scenario, routes, pathset: PathSet, target: float):
    problem = LossMinProblem(
        paths=pathset,
        params=scenario.params,
        network=scenario.network,
        routes=tuple(routes),
        target_kwh=target,
    )
    return solve_min_loss(problem)


def run_compare(
    scenario: Scenario,
    targets: Sequence[float],
    methods: Sequence[str] = ("I", "II", "III"),
    subset_limit: int = 50,
    subset_seeds: Sequence[int] = tuple(range(20)),
    enumeration_cap: int = DEFAULT_CAP,
) -> ResultTable:
    """Run the requested methods over a sweep of energy targets.

    Method II is averaged over the given subset seeds. Per-cell failures are
    recorded in their row and never abort the sweep.
    """
    rows: list[ResultRow] = []
    if "I" in methods or "II" in methods:
        routes, accessibility, pruned = prepare(scenario)
    else:  # the greedy needs no accessibility graph
        routes = normalize_routes(scenario.network, scenario.routes)

    full: PathSet | None = None
    full_err: str | None = None
    full_time = 0.0
    if "I" in methods:
        t0 = time.perf_counter()
        try:
            full = enumerate_paths(
                pruned,
                scenario.source,
                scenario.destination,
                accessibility,
                scenario.network,
                routes,
                cap=enumeration_cap,
            )
        except EnumerationCapError:
            full_err = "error:enumeration-cap"
        full_time = time.perf_counter() - t0

    subsets: list[PathSet] = []
    subsets_time = 0.0
    if "II" in methods:
        t0 = time.perf_counter()
        subsets = [
            enumerate_bounded(
                pruned,
                scenario.source,
                scenario.destination,
                accessibility,
                scenario.network,
                routes,
                limit=subset_limit,
                seed=seed,
            )
            for seed in subset_seeds
        ]
        subsets_time = time.perf_counter() - t0

    for target in targets:
        if "I" in methods:
            if full is None:
                rows.append(ResultRow(target, "I", full_err or "error", None, None, None, 0.0))
            else:
                t0 = time.perf_counter()
                sol = _solve_on(scenario, routes, full, target)
                wall = (time.perf_counter() - t0 + full_time) * 1000.0
                if sol.status == "optimal":
                    delivered, loss = plan_totals(sol.plan)
                    used = sum(1 for e in sol.plan.entries if e.delivered_kwh > 1e-9)
                    rows.append(ResultRow(target, "I", "optimal", loss, delivered, used, wall))
                else:
                    rows.append(ResultRow(target, "I", "infeasible", None, None, None, wall))

        if "II" in methods:
            t0 = time.perf_counter()
            losses, delivereds, used_counts = [], [], []
            for subset in subsets:
                sol = _solve_on(scenario, routes, subset, target)
                if sol.status == "optimal":
                    delivered, loss = plan_totals(sol.plan)
                    losses.append(loss)
                    delivereds.append(delivered)
                    used_counts.append(len(subset.paths))
            wall = (time.perf_counter() - t0 + subsets_time) * 1000.0
            if losses:
                rows.append(
                    ResultRow(
                        target,
                        "II",
                        "optimal",
                        sum(losses) / len(losses),
                        sum(delivereds) / len(delivereds),
                        sum(used_counts) / len(used_counts),
                        wall,
                    )
                )
            else:
                rows.append(ResultRow(target, "II", "infeasible", None, None, None, wall))

        if "III" in methods:
            t0 = time.perf_counter()
            result = heuristic_min_loss(
                scenario.network,
                list(routes),
                scenario.params,
                target,
                scenario.source,
                scenario.destination,
            )
            wall = (time.perf_counter() - t0) * 1000.0
            if result.status == "success":
                rows.append(
                    ResultRow(
                        target,
                        "III",
                        "optimal",
                        result.loss_kwh,
                        result.delivered_kwh,
                        result.paths_used,
                        wall,
                    )
                )
            else:
                rows.append(ResultRow(target, "III", "infeasible", None, None, None, wall))

    return ResultTable(rows)


GROWTH_HEADER = "n_junctions,road_density,seed,accessibility_density,n_paths,capped"
GROWTH_ROUTE_COUNT_FACTOR = 3  # routes per junction in each growth instance
GROWTH_ROUTE_LENGTH_CAP = 2  # arcs per route in each growth instance


def run_growth(
    n_values: Sequence[int],
    density_grid: Sequence[float],
    instances_per_cell: int,
    seed: int,
    enumeration_cap: int = 200_000,
) -> str:
    """Per-instance path counts across network sizes and densities, as CSV.

    Each instance's paths are counted, not built: its junction sequences are
    enumerated and their route-distinct combinations counted, under one
    ``enumeration_cap``. Appends per-cell mean rows and a monotone-trend
    summary as comment lines. ``n_values`` and ``density_grid`` must be
    non-empty and strictly increasing, since the trends compare neighbours.
    """
    if instances_per_cell < 1:
        raise DomainError("instances per cell must be at least 1")
    if not all(math.isfinite(d) for d in density_grid):
        raise DomainError(f"densities must be finite, got {list(density_grid)}")
    for name, grid in (("n_values", n_values), ("density_grid", density_grid)):
        if not grid:
            raise DomainError(f"{name} must not be empty")
        if not all(a < b for a, b in zip(grid, grid[1:])):
            raise DomainError(f"{name} must be strictly increasing, got {list(grid)}")
    lines = [GROWTH_HEADER]
    means: dict[tuple[int, float], float] = {}
    for n in n_values:
        for density in density_grid:
            counts = []
            for k in range(instances_per_cell):
                inst_seed = seed * 100003 + n * 1009 + int(density * 1000) * 7 + k
                sc = generate_random(
                    n_junctions=n,
                    road_density=density,
                    route_length_cap=GROWTH_ROUTE_LENGTH_CAP,
                    route_count=GROWTH_ROUTE_COUNT_FACTOR * n,
                    seed=inst_seed,
                )
                routes, accessibility, pruned = prepare(sc)
                denom = n * (n - 1)
                acc_density = len(accessibility.arcs) / denom if denom else 0.0
                capped = False
                n_paths = 0
                try:
                    sequences = enumerate_sequences(
                        pruned, sc.source, sc.destination, cap=enumeration_cap
                    )
                    n_paths = count_paths(
                        sequences, accessibility, sc.network, routes, cap=enumeration_cap
                    )
                except EnumerationCapError:
                    capped = True
                counts.append(n_paths)
                lines.append(
                    f"{n},{density:.4f},{inst_seed},{acc_density:.4f},{n_paths},"
                    f"{str(capped).lower()}"
                )
            means[(n, density)] = sum(counts) / len(counts)
    for (n, density), mean in sorted(means.items()):
        lines.append(f"# mean n={n} density={density:.4f} mean_paths={mean:.4f}")
    density_ok = all(
        all(
            means[(n, d1)] < means[(n, d2)]
            for d1, d2 in zip(density_grid, density_grid[1:])
        )
        for n in n_values
    )
    size_ok = all(
        all(means[(n1, d)] < means[(n2, d)] for n1, n2 in zip(n_values, n_values[1:]))
        for d in density_grid
    )
    lines.append(
        f"# trend density_monotone={str(density_ok).lower()} "
        f"size_monotone={str(size_ok).lower()}"
    )
    return "\n".join(lines) + "\n"
