"""Experiment drivers: method comparison sweeps and the path-count growth study.

An ``Instance`` derives, each once and on first use, what one scenario's
methods share: the normalized routes and the accessibility graph (the
junction-route incidence), from one walk per route; the live successor map
with hops to the destination, both from the incidence; the span table; the
LP's columns, which sum each arc's flow over the routes; the greedy's
trajectory; and each junction sequence's sampled energy paths, as far as
any sample has read them (a full enumeration streams and keeps none).
``run_compare``, ``run_growth`` and the ``ven`` commands call only its
methods, so a sweep shares these across every subset seed and target; the
LP of a path set sweeps itself over any targets, and each distinct path's
LP column is derived once per instance, for all its LPs. No method derives
the accessibility arcs: only ``prepare`` and ``run_growth`` do. No arcs are
pruned: both enumerators keep only junctions that reach t over arcs, which
follow roads.
The greedy's picks do not depend on the target, so every target's plan is a
prefix of one trajectory, extended only when a target needs more paths.

Results are plain rows rendered to CSV with units in the headers. Wall times
are measured around computation only (no file I/O) and are emitted only on
request, so default outputs are byte-stable across runs. Route normalization
and the incidence build stay outside every row. A row's wall time adds its
method's one-off costs to its own solve: the successors, enumeration or
sampling, and LP assembly for methods I and II. Method II samples every
seed but assembles each distinct subset once. Each LP is swept over all
targets on one HiGHS model, so a method's first row also counts setting up
its models. A method-III row counts only the picks it adds to the shared
trajectory, so a target that an earlier one covers costs almost nothing.

``run_growth``'s instances are independent, so they are split over the CPUs
this process may use: it computes one share itself and each other share in
a forked child, which returns its rows over a pipe. The CSV is
byte-identical on any number of CPUs, and a failing study raises its
earliest failing instance's error, as one process would.

NumPy and SciPy's HiGHS binding, and no other part of SciPy, are loaded by
``rateopt`` on the first LP, not with the package: about 15 MB and 0.15 s on
NumPy 2.4 and SciPy 1.17, nearly all of it NumPy's. ``run_compare`` loads
them once, before its first row, when method I or II is requested, so the
import stays outside every row's wall time too; method III alone and
``run_growth`` never load them.
"""

from __future__ import annotations

import io
import math
import os
import threading
import time
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .energy import plan_totals
from .errors import ConsistencyError, DomainError, EnumerationCapError
from .heuristic import COMBINATION_CAP, HeuristicResult, _levels, _Trajectory
from .network import _incidence, _walk_routes, prune_unreachable
from .pathenum import (
    DEFAULT_CAP,
    PathSet,
    _at_least_one,
    _count,
    _expand,
    _PathCache,
    _sample_bounded,
    _sequences,
    _Successors,
    _SpanTable,
    enumerate_sequences,
)
from .rateopt import LpInstance, _assemble, _Columns, _lp_backend
from .scenarios import Scenario, generate_random

METHODS = ("I", "II", "III")


class Instance:
    """One scenario's source-destination pair and what its methods share."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario

    @cached_property
    def _walked(self):
        # each route is walked once, for normalization and the incidence both
        return _walk_routes(self.scenario.network, self.scenario.routes)

    @cached_property
    def routes(self):
        return self._walked[0]

    @cached_property
    def accessibility(self):
        return _incidence(*self._walked)

    @cached_property
    def live_successors(self):
        """Successors among the junctions that reach t, and hops to t, from the incidence."""
        acc = self.accessibility
        hops = _levels(acc, acc.routes, self.scenario.destination, None, forward=False)
        return _Successors(acc, hops), hops

    @cached_property
    def span_table(self):
        return _SpanTable(self.accessibility, self.scenario.network, self.accessibility.routes)

    @cached_property
    def _columns(self):
        """Each distinct path's LP column, derived once for every LP of the instance."""
        sc = self.scenario
        return _Columns(sc.params, sc.network, self.routes)

    @cached_property
    def _sampled_paths(self):
        # only the sampler keeps what it assembles: a full enumeration streams
        return _PathCache(self.span_table)

    def paths(self, cap: int = DEFAULT_CAP) -> PathSet:
        """The full energy-path set (method I)."""
        succ, _hops = self.live_successors
        sequences = _sequences(succ, self.scenario.source, self.scenario.destination, cap)
        return _expand(sequences, self.span_table, cap)

    def sample(self, limit: int, seed: int) -> PathSet:
        """A seeded subset of at most ``limit`` energy paths (method II)."""
        succ, hops = self.live_successors
        s, t = self.scenario.source, self.scenario.destination
        return _sample_bounded(succ, hops, self._sampled_paths, s, t, limit, seed)

    def lp(self, pathset: PathSet) -> LpInstance:
        """The path set's LP, which solves itself at any energy target (methods I and II)."""
        return _assemble(pathset, self._columns)

    @cached_property
    def _trajectory(self):
        sc = self.scenario
        return _Trajectory(self.accessibility, sc.network, sc.params, sc.source, sc.destination)

    def greedy(self, target: float) -> HeuristicResult:
        """The greedy's plan at one energy target (method III), picking only the
        paths that no earlier target of this instance has picked.
        """
        return self._trajectory.result(target)


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
    """Normalized routes, the accessibility graph and its arcs whose head reaches t."""
    inst = Instance(scenario)
    net, acc = scenario.network, inst.accessibility
    pruned, _blocked = prune_unreachable(net, acc, scenario.destination)
    return inst.routes, acc, pruned


def run_compare(
    scenario: Scenario,
    targets: Sequence[float],
    methods: Sequence[str] = METHODS,
    subset_limit: int = 50,
    subset_seeds: Sequence[int] = tuple(range(20)),
    enumeration_cap: int = DEFAULT_CAP,
) -> ResultTable:
    """Run the requested methods over a sweep of energy targets.

    Method II is averaged over the given subset seeds; seeds that draw the
    same subset share one LP. Method I's LP and each distinct subset's are
    swept over all targets, one after another, so one HiGHS model is alive at
    a time, and each solve is reduced to its totals. Per-cell failures are
    recorded in their row and never abort the sweep. A malformed sweep raises
    DomainError before any work: no, unknown or repeated methods or targets,
    a negative or non-finite target, no or repeated seeds for method II, a
    limit or cap below 1, whether or not a requested method reads it. One
    ``Instance`` derives what the methods share.
    """
    if not methods or len(set(methods)) < len(methods) or not set(methods) <= set(METHODS):
        raise DomainError(f"methods must be distinct ones of {list(METHODS)}, got {list(methods)}")
    if not targets:
        raise DomainError("no energy targets")
    if not all(0.0 <= x < math.inf for x in targets) or len(set(targets)) < len(targets):
        raise DomainError(f"targets must be distinct, finite and nonnegative, got {list(targets)}")
    if "II" in methods and (not subset_seeds or len(set(subset_seeds)) < len(subset_seeds)):
        raise DomainError(f"method II needs distinct subset seeds, got {list(subset_seeds)}")
    _at_least_one(subset_limit, "limit")  # checked whether or not a method reads it
    _at_least_one(enumeration_cap, "enumeration cap")
    rows: list[ResultRow] = []
    inst = Instance(scenario)
    inst.accessibility  # normalization and the incidence build stay outside every row
    if {"I", "II"} & set(methods):
        _lp_backend()  # and so does loading NumPy and the HiGHS binding
    once: dict[str, float] = {}  # each method's one-off seconds, added to each of its rows

    def row(target: float, method: str, seconds: float, totals, error: str = "") -> ResultRow:
        """The method's row; ``totals`` is (loss, delivered, paths used), None without a plan,
        which is infeasible unless ``error`` names what stopped the method."""
        wall = (seconds + once[method]) * 1000.0
        status = error or ("infeasible" if totals is None else "optimal")
        return ResultRow(target, method, status, *(totals or (None, None, None)), wall)

    def swept(lp: LpInstance, paths_used) -> list:
        """(totals, seconds) of ``lp`` at each target; each plan is reduced as it is solved."""
        out = []
        t0 = time.perf_counter()
        for sol in lp.sweep(targets):
            totals = None
            if sol.status == "optimal":
                delivered, loss = plan_totals(sol.plan)
                totals = (loss, delivered, paths_used(sol.plan))
            out.append((totals, time.perf_counter() - t0))
            t0 = time.perf_counter()
        return out

    full = None
    subsets = []  # the LP of each distinct subset, in order of first draw
    which = []  # per seed, the index of its subset
    for method in methods:
        t0 = time.perf_counter()
        if method == "I":
            try:
                full = inst.lp(inst.paths(enumeration_cap))
            except EnumerationCapError:
                pass
        elif method == "II":
            index: dict[PathSet, int] = {}
            for seed in subset_seeds:
                which.append(index.setdefault(inst.sample(subset_limit, seed), len(index)))
            subsets = [inst.lp(pathset) for pathset in index]
        once[method] = time.perf_counter() - t0

    if full is not None:
        exact = swept(full, lambda plan: sum(1 for e in plan.entries if e.delivered_kwh > 1e-9))
    sampled = [swept(lp, lambda _plan, n=len(lp.paths.paths): n) for lp in subsets]
    for k, target in enumerate(targets):
        if "I" in methods:
            if full is None:
                rows.append(
                    ResultRow(target, "I", "error:enumeration-cap", None, None, None, 0.0)
                )
            else:
                rows.append(row(target, "I", exact[k][1], exact[k][0]))

        if "II" in methods:
            # every seed counts, in seed order, so the sums are those of one solve per seed
            solved = [sampled[j][k][0] for j in which if sampled[j][k][0] is not None]
            means = [sum(col) / len(solved) for col in zip(*solved)] if solved else None
            rows.append(row(target, "II", sum(s[k][1] for s in sampled), means))

        if "III" in methods:
            t0 = time.perf_counter()
            res = inst.greedy(target)
            ok = res.status == "success"
            totals = (res.loss_kwh, res.delivered_kwh, res.paths_used) if ok else None
            # a safety cap that cut the greedy short is an error, not infeasibility
            error = f"error:{COMBINATION_CAP}" if res.stop_reason == COMBINATION_CAP else ""
            rows.append(row(target, "III", time.perf_counter() - t0, totals, error))

    return ResultTable(rows)


GROWTH_HEADER = "n_junctions,road_density,seed,accessibility_density,n_paths,capped"
GROWTH_ROUTE_COUNT_FACTOR = 3  # routes per junction in each growth instance
GROWTH_ROUTE_LENGTH_CAP = 2  # arcs per route in each growth instance


def _growth_row(n: int, density: float, inst_seed: int, cap: int) -> tuple[float, int, bool]:
    """(accessibility density, path count, capped) of one seeded growth instance."""
    sc = generate_random(
        n_junctions=n,
        road_density=density,
        route_length_cap=GROWTH_ROUTE_LENGTH_CAP,
        route_count=GROWTH_ROUTE_COUNT_FACTOR * n,
        seed=inst_seed,
    )
    inst = Instance(sc)
    acc_density = len(inst.accessibility.arcs) / (n * (n - 1))
    try:
        # over the arcs the density column derived: on instances this small,
        # cheaper than the incidence's successors
        sequences = enumerate_sequences(
            inst.accessibility.arcs, sc.source, sc.destination, cap=cap
        )
        return acc_density, _count(sequences, inst.span_table, cap), False
    except EnumerationCapError:
        return acc_density, 0, True


def _usable_cpus() -> int:
    """How many CPUs this process may run on; 1 where the platform cannot tell."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else 1


def _share(fn, specs) -> list:
    """[(True, fn(*spec)), ...] in spec order, ending at the first spec that
    raises, as (False, its exception)."""
    out = []
    for spec in specs:
        try:
            out.append((True, fn(*spec)))
        except Exception as e:
            out.append((False, e))
            break
    return out


def _forked(fn, parts) -> list:
    """Each part's ``_share``: the first part's computed here, every other
    part's in a forked child that pickles it down a pipe.

    A child inherits this process's module state and leaves through
    ``os._exit``, so it never runs the caller's exit handlers. Every child is
    waited for, whether this returns or raises; a child that exits without
    its share, or with an error it cannot pickle, is a ConsistencyError.
    """
    import pickle  # here, so importing the package does not load it

    children = []  # (pid, read end of its pipe)
    received = []
    try:
        for part in parts[1:]:
            r, w = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:  # the child: its share goes down the pipe, and it never returns
                code = 1
                try:
                    os.close(r)
                    for _pid, fd in children:
                        os.close(fd)
                    with open(w, "wb") as pipe:
                        pickle.dump(_share(fn, part), pipe)
                    code = 0
                finally:
                    os._exit(code)
            os.close(w)
            children.append((pid, r))
        results = [_share(fn, parts[0])]
        for _pid, fd in children:
            with open(fd, "rb", closefd=False) as pipe:
                received.append(pipe.read())
    finally:
        # closed first, so a child still writing gets EPIPE and exits
        for _pid, fd in children:
            os.close(fd)
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid, _fd in children]
    for (pid, _fd), code, data in zip(children, codes, received):
        if code != 0 or not data:
            raise ConsistencyError(
                f"growth helper process {pid} exited with status {code} without its results"
            )
        results.append(pickle.loads(data))
    return results


def _map_instances(fn, specs: list) -> list:
    """``[fn(*spec) for spec in specs]``, split over the CPUs this process may use.

    Share w takes ``specs[w::shares]``, so the costly large instances spread
    evenly. This process computes the first share; each other share runs in a
    forked child when the platform can fork and no other thread is alive,
    since forking a threaded process can deadlock, and here otherwise. The
    error of the earliest failing spec is raised, as a serial run raises it.
    """
    shares = min(_usable_cpus(), len(specs))
    parts = [specs[w::shares] for w in range(shares)]
    if shares > 1 and hasattr(os, "fork") and threading.active_count() == 1:
        results = _forked(fn, parts)
    else:
        results = [_share(fn, part) for part in parts]
    out = [None] * len(specs)
    failed = []  # (spec index, exception)
    for w, got in enumerate(results):
        for j, (ok, value) in enumerate(got):
            if ok:
                out[w + j * shares] = value
            else:
                failed.append((w + j * shares, value))
    if failed:
        raise min(failed, key=lambda f: f[0])[1]
    return out


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
    non-empty and strictly increasing, since the trends compare neighbours,
    with every size at least 2 and every density in (0, 1]. The instances
    are independent, so they are split over the CPUs this process may use
    (``_map_instances``); the CSV is byte-identical however many there are.
    """
    _at_least_one(instances_per_cell, "instances per cell")
    _at_least_one(enumeration_cap, "enumeration cap")
    if not all(n >= 2 for n in n_values):
        raise DomainError(f"n_values must be at least 2 junctions, got {list(n_values)}")
    if not all(0.0 < d <= 1.0 for d in density_grid):
        raise DomainError(f"density_grid entries must lie in (0, 1], got {list(density_grid)}")
    for name, grid in (("n_values", n_values), ("density_grid", density_grid)):
        if not grid:
            raise DomainError(f"{name} must not be empty")
        if not all(a < b for a, b in zip(grid, grid[1:])):
            raise DomainError(f"{name} must be strictly increasing, got {list(grid)}")
    if len({int(d * 1000) for d in density_grid}) < len(density_grid):
        # int(density * 1000) enters the instance seeds, which must differ
        raise DomainError(
            f"densities must differ in their first three decimals, got {list(density_grid)}"
        )
    specs = [
        (n, density, seed * 100003 + n * 1009 + int(density * 1000) * 7 + k, enumeration_cap)
        for n in n_values
        for density in density_grid
        for k in range(instances_per_cell)
    ]
    lines = [GROWTH_HEADER]
    counts: dict[tuple[int, float], list[int]] = {}
    for (n, density, inst_seed, _cap), (acc_density, n_paths, capped) in zip(
        specs, _map_instances(_growth_row, specs)
    ):
        counts.setdefault((n, density), []).append(n_paths)
        lines.append(
            f"{n},{density:.4f},{inst_seed},{acc_density:.4f},{n_paths},{str(capped).lower()}"
        )
    means = {cell: sum(c) / len(c) for cell, c in counts.items()}
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
