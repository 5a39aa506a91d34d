"""Greedy min-loss routing: commit min-hop energy paths until the target is met.

Each iteration rebuilds the accessibility graph from the routes that still
carry flow, picks a fewest-hop source-destination sequence (ties broken by
larger bottleneck flow, then lexicographically), sends at the bottleneck
rate, decrements the used routes' flows, and truncates routes whose flow hit
zero. The final path carries only the residual energy at a reduced rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product
from typing import Mapping, Sequence

from .energy import (
    EnergyParams,
    PlanEntry,
    TransmissionPlan,
    build_energy_path,
    make_plan,
    plan_totals,
    window_cap,
)
from .errors import ConsistencyError, DomainError
from .network import (
    AccessibilityGraph,
    Junction,
    RouteId,
    VehicularNetwork,
    VehicularRoute,
    adjacency,
    bfs_levels,
    build_accessibility_graph,
    hops_to,
)

FLOW_EPS = 1e-12
_ASSIGN_COMBO_CAP = 20000
_SEQUENCE_FALLBACK_CAP = 5000


@dataclass(frozen=True)
class HeuristicResult:
    status: str  # "success" | "infeasible"
    plan: TransmissionPlan
    delivered_kwh: float
    loss_kwh: float
    paths_used: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "paths_used", len(self.plan.entries))


def _shortest_dag(
    accessibility: AccessibilityGraph, s: Junction, t: Junction
) -> tuple[dict[Junction, tuple[Junction, ...]], int] | None:
    """Arcs lying on some fewest-hop s-t sequence, as an adjacency map."""
    dist_s = bfs_levels(accessibility.successors, s)
    if t not in dist_s:
        return None
    dist_t = hops_to(accessibility.arcs, t)
    hops = dist_s[t]
    dag = adjacency(
        (i, j)
        for (i, j) in accessibility.arcs
        if i in dist_s and j in dist_t and dist_s[i] + 1 + dist_t[j] == hops
    )
    return dag, hops


def _arc_weight(
    accessibility: AccessibilityGraph,
    flows: Mapping[RouteId, float],
    i: Junction,
    j: Junction,
) -> float:
    return max(flows[rid] for rid in accessibility.segments[(i, j)])


def _widest_sequence(
    accessibility: AccessibilityGraph,
    flows: Mapping[RouteId, float],
    dag: Mapping[Junction, Sequence[Junction]],
    s: Junction,
    t: Junction,
) -> tuple[Junction, ...]:
    """Max-bottleneck fewest-hop sequence; lexicographically smallest among ties."""
    best: dict[Junction, float] = {t: float("inf")}
    # fixed-point pass over the layered DAG; converges in at most |layers| sweeps
    changed = True
    while changed:
        changed = False
        for u in dag:
            width = max(
                (
                    min(_arc_weight(accessibility, flows, u, v), best[v])
                    for v in dag[u]
                    if v in best
                ),
                default=None,
            )
            if width is not None and width != best.get(u):
                best[u] = width
                changed = True
    target_width = best[s]
    seq = [s]
    width_so_far = float("inf")
    u = s
    while u != t:
        for v in dag[u]:  # sorted: first admissible choice is lexicographic min
            if v not in best:
                continue
            achievable = min(width_so_far, _arc_weight(accessibility, flows, u, v), best[v])
            if achievable >= target_width - FLOW_EPS:
                width_so_far = min(width_so_far, _arc_weight(accessibility, flows, u, v))
                seq.append(v)
                u = v
                break
        else:  # pragma: no cover - layered DAG always admits a continuation
            raise ConsistencyError("widest-path walk got stuck")
    return tuple(seq)


def _assign_routes(
    accessibility: AccessibilityGraph,
    flows: Mapping[RouteId, float],
    seq: Sequence[Junction],
) -> tuple[tuple[RouteId, ...], float] | None:
    """Pick one route per hop, all distinct, maximizing the bottleneck flow."""
    per_arc: list[list[RouteId]] = []
    for i, j in zip(seq, seq[1:]):
        cands = sorted(accessibility.segments[(i, j)], key=lambda rid: (-flows[rid], rid))
        per_arc.append(cands)
    greedy = tuple(c[0] for c in per_arc)
    if len(set(greedy)) == len(greedy):
        return greedy, min(flows[rid] for rid in greedy)
    combos = 1
    for c in per_arc:
        combos *= len(c)
    if combos > _ASSIGN_COMBO_CAP:
        return None
    best_pick = None
    best_key = None
    for combo in product(*per_arc):
        if len(set(combo)) != len(combo):
            continue
        key = (-min(flows[rid] for rid in combo), combo)
        if best_key is None or key < best_key:
            best_key = key
            best_pick = combo
    if best_pick is None:
        return None
    return best_pick, -best_key[0]


def _all_min_hop_sequences(
    dag: Mapping[Junction, Sequence[Junction]], s: Junction, t: Junction, cap: int
) -> list[tuple[Junction, ...]]:
    out: list[tuple[Junction, ...]] = []
    stack = [(s, (s,))]
    while stack and len(out) < cap:
        u, seq = stack.pop()
        for v in reversed(dag.get(u, ())):
            if v == t:
                out.append(seq + (t,))
            else:
                stack.append((v, seq + (v,)))
    return out


def _pick_path(
    accessibility: AccessibilityGraph,
    flows: Mapping[RouteId, float],
    s: Junction,
    t: Junction,
) -> tuple[tuple[Junction, ...], tuple[RouteId, ...], float] | None:
    found = _shortest_dag(accessibility, s, t)
    if found is None:
        return None
    dag, _ = found
    seq = _widest_sequence(accessibility, flows, dag, s, t)
    assigned = _assign_routes(accessibility, flows, seq)
    if assigned is not None:
        rids, delta = assigned
        return seq, rids, delta
    # Greedy sequence had no distinct-route assignment (interleaved reuse of a
    # route); fall back to scanning min-hop sequences for the best workable one.
    best = None
    for cand in _all_min_hop_sequences(dag, s, t, _SEQUENCE_FALLBACK_CAP):
        assigned = _assign_routes(accessibility, flows, cand)
        if assigned is None:
            continue
        rids, delta = assigned
        key = (-delta, cand)
        if best is None or key < best[0]:
            best = (key, cand, rids, delta)
    if best is None:
        return None
    return best[1], best[2], best[3]


def min_hop_sequence(
    accessibility: AccessibilityGraph,
    flows: Mapping[RouteId, float],
    s: Junction,
    t: Junction,
) -> tuple[Junction, ...] | None:
    """Fewest-hop s-t sequence on the accessibility graph, or None if unreachable.

    Ties are broken by the larger bottleneck flow of the induced path, then
    lexicographically by junction ids.
    """
    picked = _pick_path(accessibility, flows, s, t)
    return picked[0] if picked else None


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
    when the remaining routes cannot meet the target.
    """
    if not (0.0 <= target_kwh < math.inf):
        raise DomainError("energy target must be finite and nonnegative")
    if s == t or s not in network.junctions or t not in network.junctions:
        raise DomainError("source and destination must be distinct junctions")
    w = params.packet_kwh

    work: dict[RouteId, tuple[tuple[str, ...], float]] = {
        r.route_id: (r.arcs, r.flow) for r in routes
    }
    entries: list[PlanEntry] = []
    delivered = 0.0
    if target_kwh == 0.0:
        plan = make_plan([], params)
        return HeuristicResult("success", plan, 0.0, 0.0)

    while True:
        active = [
            VehicularRoute(rid, arcs, flow)
            for rid, (arcs, flow) in sorted(work.items())
            if flow > FLOW_EPS and arcs
        ]
        if not active:
            break
        acc = build_accessibility_graph(network, active)
        flows = {r.route_id: r.flow for r in active}
        picked = _pick_path(acc, flows, s, t)
        if picked is None:
            break
        seq, rids, delta = picked
        segments = [
            (rid, *acc.segments[(i, j)][rid]) for rid, i, j in zip(rids, seq, seq[1:])
        ]
        # the path's flows come from the working routes, not the originals
        path = build_energy_path(
            network,
            {rid: VehicularRoute(rid, work[rid][0], work[rid][1]) for rid in rids},
            segments,
            s,
            t,
        )
        cap_coeff = window_cap(path, params)
        g = w * delta
        x = cap_coeff * g
        if delivered + x < target_kwh:
            delivered += x
            entries.append(PlanEntry(path=path, rate=g, delivered_kwh=x))
            # decrement each used route's flow; truncate routes that hit zero
            # at the start of their used sub-route, dropping the suffix too
            for (rid, n, _m) in segments:
                arcs, flow = work[rid]
                flow -= delta
                if flow <= FLOW_EPS:
                    arcs = arcs[: n - 1]
                    flow = 0.0
                work[rid] = (arcs, flow)
            continue
        residual = target_kwh - delivered
        if cap_coeff <= 0.0:
            raise ConsistencyError("residual path has no usable window")
        g_last = residual / cap_coeff
        if g_last > g + 1e-9:
            raise ConsistencyError("reduced rate exceeds the bottleneck rate")
        entries.append(PlanEntry(path=path, rate=g_last, delivered_kwh=residual))
        delivered = target_kwh
        plan = make_plan(entries, params)
        _, loss = plan_totals(plan)
        return HeuristicResult("success", plan, delivered, loss)

    plan = make_plan(entries, params)
    _, loss = plan_totals(plan)
    return HeuristicResult("infeasible", plan, delivered, loss)
