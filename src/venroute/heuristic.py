"""Greedy min-loss routing: commit min-hop energy paths until the target is met.

Each iteration searches the routes that still carry flow for the fewest-hop
source-destination junction sequences. The search is a breadth-first search
over routes as hyperedges: boarding a route at a junction reaches every later
junction on it (Gallo et al., "Directed hypergraphs and applications", 1993).
Among the fewest-hop sequences the greedy picks the one with the largest
bottleneck flow, ties broken lexicographically, sends at the bottleneck rate,
decrements the used routes' flows, and drops routes whose flow hit zero. The
final path carries only the residual energy at a reduced rate.

A committed path is built over the routes themselves, so its
``bottleneck_flow`` is the least flow among the routes it rides, as for every
enumerated path; only its rate reads the flow those routes have left. Its
routes, all distinct, are picked by an exact bottleneck matching. When the
widest sequence has no route-distinct pick, the fewest-hop sequences are
listed by the enumerator's own search and the widest workable one is taken.
Only that list has a safety cap; cut short, it is a ``combination-cap`` verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection, Mapping, Sequence

from .energy import (
    EnergyParams,
    PlanEntry,
    TransmissionPlan,
    build_energy_path,
    check_target,
    make_plan,
    plan_totals,
    window_cap,
)
from .errors import ConsistencyError, DomainError, EnumerationCapError
from .network import (
    AccessibilityGraph,
    Junction,
    RouteId,
    Segments,
    VehicularNetwork,
    VehicularRoute,
    adjacency,
    build_accessibility_graph,
)
from .pathenum import _sequences

FLOW_EPS = 1e-12
_SEQUENCE_FALLBACK_CAP = 5000

# why the greedy stopped
TARGET_MET = "target-met"
NO_PATH = "no-path"
COMBINATION_CAP = "combination-cap"  # the fewest-hop sequence list outgrew its safety cap


@dataclass(frozen=True)
class HeuristicResult:
    status: str  # "success" | "infeasible"
    plan: TransmissionPlan
    delivered_kwh: float
    loss_kwh: float
    stop_reason: str  # TARGET_MET | NO_PATH | COMBINATION_CAP
    paths_used: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "paths_used", len(self.plan.entries))


def _levels(
    acc: AccessibilityGraph, flows: Collection[RouteId], start: Junction,
    goal: Junction | None, forward: bool, band: Mapping[Junction, int] | None = None,
) -> dict[Junction, int]:
    """Fewest hops over the routes in ``flows`` from ``start`` to each junction
    (to ``start`` if not ``forward``), in the order the junctions were reached.

    Boarding a route at position p reaches every later position (every
    earlier one, backward). Each route remembers the earliest position it
    was boarded at (the latest, backward), so each route position is
    scanned at most once. The search stops once the level holding
    ``goal`` is complete; with no goal, once every junction is reached.

    With a ``band``, the hops from the other end, a junction reached at level
    L is kept only if its band value plus L is ``band[start]``: only
    junctions on a fewest-hop walk between the ends are kept.
    """
    total = band[start] if band is not None else 0
    dist = {start: 0}
    frontier = [start]
    boarded: dict[RouteId, int] = {}
    level = 0
    while frontier and goal not in dist:
        level += 1
        nxt = []
        for u in frontier:
            for rid, p in acc.visits.get(u, ()):
                if rid not in flows:
                    continue
                seq = acc.seqs[rid]
                if forward:
                    edge = boarded.get(rid, len(seq))
                    if p >= edge:
                        continue
                    reached = seq[p + 1 : edge]
                else:
                    edge = boarded.get(rid, -1)
                    if p <= edge:
                        continue
                    reached = seq[edge + 1 : p]
                boarded[rid] = p
                for v in reached:
                    # a junction outside the band gets band value ``total``, never kept
                    if v not in dist and (band is None or band.get(v, total) + level == total):
                        dist[v] = level
                        nxt.append(v)
        frontier = nxt
    return dist


def _shortest_dag(
    acc: AccessibilityGraph, flows: Mapping[RouteId, float], s: Junction, t: Junction
) -> tuple[Segments, dict[Junction, tuple[Junction, ...]], dict[Junction, int]] | None:
    """Accessibility arcs lying on some fewest-hop s-t sequence with their
    segments, the same arcs as a DAG, and the hops from s to each junction.
    """
    dist_s = _levels(acc, flows, s, t, forward=True)
    if t not in dist_s:
        return None
    # a fewest-hop walk from a DAG junction to t stays on the DAG, so the
    # banded search reaches exactly the DAG, each at its true hops to t
    dist_t = _levels(acc, flows, t, s, forward=False, band=dist_s)
    on_dag = {j: d for j, d in dist_s.items() if j in dist_t}
    # an arc between two DAG junctions lies on a fewest-hop sequence exactly
    # when it climbs one BFS level
    segments = acc.climbing_index_sets(on_dag, flows)
    return segments, adjacency(segments), dist_s


def _widest_sequence(
    segments: Segments,
    flows: Mapping[RouteId, float],
    dag: Mapping[Junction, Sequence[Junction]],
    dist_s: Mapping[Junction, int],
    s: Junction,
    t: Junction,
) -> tuple[Junction, ...]:
    """Max-bottleneck fewest-hop sequence; lexicographically smallest among ties."""
    # an arc's width is the most flow any one of its routes has left
    width = {arc: max(flows[rid] for rid in rids) for arc, rids in segments.items()}
    best: dict[Junction, float] = {t: float("inf")}
    # every DAG arc climbs one level and every DAG junction but t has a DAG
    # successor, so one pass down the levels sets each width from finished ones
    for u in reversed(dist_s):
        if u in dag:
            best[u] = max(min(width[u, v], best[v]) for v in dag[u])
    target_width = best[s]
    seq = [s]
    width_so_far = float("inf")
    u = s
    while u != t:
        for v in dag[u]:  # sorted: first admissible choice is lexicographic min
            achievable = min(width_so_far, width[u, v], best[v])
            if achievable >= target_width - FLOW_EPS:
                width_so_far = min(width_so_far, width[u, v])
                seq.append(v)
                u = v
                break
        else:  # pragma: no cover - layered DAG always admits a continuation
            raise ConsistencyError("widest-path walk got stuck")
    return tuple(seq)


def _assign_routes(
    segments: Segments,
    flows: Mapping[RouteId, float],
    seq: Sequence[Junction],
) -> tuple[tuple[RouteId, ...], float] | None:
    """One route per hop, all distinct, of the largest bottleneck flow, ties to
    the smallest route-id tuple; None when no distinct pick exists. The hops'
    widest routes can collide: a route serving hop (i, j) and a later hop
    (k, l) visits k, l, i, j, since i before l would make (i, l) a shorter hop.
    """
    hops = [segments[(i, j)] for i, j in zip(seq, seq[1:])]
    widest = tuple(min(rids, key=lambda rid: (-flows[rid], rid)) for rids in hops)
    width = min(flows[rid] for rid in widest)
    if len(set(widest)) == len(widest):
        return widest, width
    # a bottleneck matching: the widest pick's bottleneck is the largest flow
    # theta at which every hop still gets its own route of flow >= theta
    thetas = sorted({flows[rid] for rids in hops for rid in rids if flows[rid] <= width})
    for theta in reversed(thetas):
        cands = [sorted(rid for rid in rids if flows[rid] >= theta) for rids in hops]
        if _matched(cands, ()):
            break
    else:
        return None
    # so every distinct pick from ``cands`` is a widest one: fix the hops left to
    # right, each on the smallest id that still leaves the later hops matched
    pick: list[RouteId] = []
    for k, rids in enumerate(cands):
        fits = (rid for rid in rids if rid not in pick and _matched(cands[k + 1 :], pick + [rid]))
        pick.append(next(fits))
    return tuple(pick), theta


def _matched(cands: Sequence[Sequence[RouteId]], taken: Collection[RouteId]) -> bool:
    """Whether each hop gets its own route among its candidates, none ``taken``:
    Kuhn's augmenting paths (Hopcroft & Karp, 1973), each found breadth-first.
    """
    hop_of: dict[RouteId, int] = {}
    for k in range(len(cands)):
        came: dict[RouteId, tuple[int, RouteId | None]] = {}  # route -> (hop, route it holds)
        queue: list[tuple[int, RouteId | None]] = [(k, None)]
        for h, held in queue:  # grows while it is read; each matched hop enters once
            new = [rid for rid in cands[h] if rid not in taken and rid not in came]
            came.update((rid, (h, held)) for rid in new)
            free = next((rid for rid in new if rid not in hop_of), None)
            if free is not None:
                break
            queue += [(hop_of[rid], rid) for rid in new]
        else:
            return False
        while free is not None:  # each route on the path moves to the hop that reached it
            hop_of[free], free = came[free]
    return True


def _pick_path(
    acc: AccessibilityGraph, flows: Mapping[RouteId, float], s: Junction, t: Junction
) -> tuple[tuple[Junction, ...], list[tuple[RouteId, int, int]], float] | str:
    """(junction sequence, path segments, bottleneck flow) of the next path, or why none."""
    found = _shortest_dag(acc, flows, s, t)
    if found is None:
        return NO_PATH
    segments, dag, dist_s = found
    seq = _widest_sequence(segments, flows, dag, dist_s, s, t)
    assigned = _assign_routes(segments, flows, seq)
    if assigned is None:
        # the widest sequence has no route-distinct pick (one route on two of its
        # hops): scan the fewest-hop sequences, in order, for the widest workable one
        try:
            cands = _sequences(dag, s, t, _SEQUENCE_FALLBACK_CAP)
        except EnumerationCapError:
            return COMBINATION_CAP  # a cut list may miss the widest workable sequence
        picks = [(cand, _assign_routes(segments, flows, cand)) for cand in cands]
        workable = [(cand, picked) for cand, picked in picks if picked is not None]
        if not workable:
            return NO_PATH
        seq, assigned = max(workable, key=lambda w: w[1][1])  # ties keep the first
    rids, delta = assigned
    return seq, [(rid, *segments[(i, j)][rid]) for rid, i, j in zip(rids, seq, seq[1:])], delta


def heuristic_min_loss(
    network: VehicularNetwork,
    routes: Sequence[VehicularRoute],
    params: EnergyParams,
    target_kwh: float,
    s: Junction,
    t: Junction,
) -> HeuristicResult:
    """Greedy min-cycle path construction with inline rate assignment.

    Returns a partial plan and an infeasibility verdict (not an exception)
    when the remaining routes cannot meet the target; ``stop_reason`` says
    whether no path was left or the fewest-hop sequence list outgrew its cap.
    """
    acc = build_accessibility_graph(network, routes)
    return _Trajectory(acc, network, params, s, t).result(target_kwh)


class _Trajectory:
    """The greedy's paths from s to t, each committed at its full rate, picked on demand.

    The picks do not depend on the target: a target decides only where its
    plan stops and what its last path carries. So one trajectory serves
    every target, whose plan is a prefix of the committed steps plus one
    residual entry, and a sweep picks each path once.
    """

    def __init__(
        self, acc: AccessibilityGraph, network: VehicularNetwork, params: EnergyParams,
        s: Junction, t: Junction,
    ):
        self._acc, self._network, self._params, self._s, self._t = acc, network, params, s, t
        # what each route has left, dropped once spent
        self._flows = {rid: r.flow for rid, r in acc.routes.items() if r.flow > FLOW_EPS}
        self._steps: list[tuple[PlanEntry, float]] = []  # (full-rate entry, window coefficient)
        self._stop: str | None = None  # why no path follows the last step

    def _extend(self) -> bool:
        """Commit the next path at its full rate; False once none is left."""
        if self._stop is not None:
            return False
        acc, flows = self._acc, self._flows
        picked = _pick_path(acc, flows, self._s, self._t)
        if isinstance(picked, str):
            self._stop = picked
            return False
        _, segments, delta = picked
        path = build_energy_path(self._network, acc.routes, segments, self._s, self._t)
        cap_coeff = window_cap(path, self._params)
        g = self._params.packet_kwh * delta
        self._steps.append((PlanEntry(path=path, rate=g, delivered_kwh=cap_coeff * g), cap_coeff))
        for rid, _, _ in segments:
            flows[rid] -= delta
            if flows[rid] <= FLOW_EPS:
                del flows[rid]
        return True

    def result(self, target_kwh: float) -> HeuristicResult:
        """The greedy's plan at one energy target."""
        check_target(target_kwh)
        s, t, network = self._s, self._t, self._network
        if s == t or s not in network.junctions or t not in network.junctions:
            raise DomainError("source and destination must be distinct junctions")
        params = self._params
        if target_kwh == 0.0:
            return HeuristicResult("success", make_plan([], params), 0.0, 0.0, TARGET_MET)
        entries: list[PlanEntry] = []
        delivered = 0.0
        while len(entries) < len(self._steps) or self._extend():
            entry, cap_coeff = self._steps[len(entries)]
            if delivered + entry.delivered_kwh < target_kwh:
                delivered += entry.delivered_kwh
                entries.append(entry)
                continue
            residual = target_kwh - delivered
            if cap_coeff <= 0.0:
                raise ConsistencyError("residual path has no usable window")
            g_last = residual / cap_coeff
            if g_last > entry.rate + 1e-9:
                raise ConsistencyError("reduced rate exceeds the bottleneck rate")
            entries.append(PlanEntry(path=entry.path, rate=g_last, delivered_kwh=residual))
            plan = make_plan(entries, params)
            _, loss = plan_totals(plan)
            return HeuristicResult("success", plan, target_kwh, loss, TARGET_MET)
        plan = make_plan(entries, params)
        _, loss = plan_totals(plan)
        return HeuristicResult("infeasible", plan, delivered, loss, self._stop)
