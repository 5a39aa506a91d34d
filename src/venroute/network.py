"""Road network, vehicular routes, and the junction-accessibility graph.

The road network is a directed graph of junctions and arcs with per-arc
traversal delays. Vehicular routes are connected arc sequences with an EV
flow rate. The accessibility graph has an arc (i, j) whenever some route
visits junction i strictly before junction j; its per-arc index sets record
which routes realize the arc and with which sub-route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .errors import DomainError, StructuralError

Junction = str
ArcId = str
RouteId = str


def adjacency(
    pairs: Iterable[tuple[Junction, Junction]], nodes: Iterable[Junction] = ()
) -> dict[Junction, tuple[Junction, ...]]:
    """Sorted neighbour tuples per tail of ``pairs``; each of ``nodes`` maps to at least ()."""
    out: dict[Junction, list[Junction]] = {j: [] for j in nodes}
    for i, j in pairs:
        out.setdefault(i, []).append(j)
    return {i: tuple(sorted(v)) for i, v in out.items()}


def bfs_levels(
    adj: Mapping[Junction, Iterable[Junction]], start: Junction
) -> dict[Junction, int]:
    """Hop count from ``start`` to every junction it reaches along ``adj``."""
    dist = {start: 0}
    frontier = [start]
    level = 0
    while frontier:
        level += 1
        nxt = []
        for u in frontier:
            for v in adj.get(u, ()):
                if v not in dist:
                    dist[v] = level
                    nxt.append(v)
        frontier = nxt
    return dist


def hops_to(arcs: Iterable[tuple[Junction, Junction]], t: Junction) -> dict[Junction, int]:
    """Hop count to ``t`` over the arcs, for every junction that can reach ``t``."""
    # hop counts do not depend on neighbour order, so the map is left unsorted
    preds: dict[Junction, list[Junction]] = {}
    for i, j in arcs:
        preds.setdefault(j, []).append(i)
    return bfs_levels(preds, t)


@dataclass(frozen=True)
class Arc:
    arc_id: ArcId
    tail: Junction
    head: Junction
    delay_s: float


@dataclass(frozen=True)
class VehicularNetwork:
    """Directed road graph. Arcs are unique by id and by (tail, head) pair."""

    junctions: frozenset[Junction]
    arcs: tuple[Arc, ...]

    def __post_init__(self):
        seen_ids: set[ArcId] = set()
        seen_pairs: set[tuple[Junction, Junction]] = set()
        for a in self.arcs:
            if a.tail not in self.junctions:
                raise StructuralError(f"arc {a.arc_id}: undeclared tail junction {a.tail!r}")
            if a.head not in self.junctions:
                raise StructuralError(f"arc {a.arc_id}: undeclared head junction {a.head!r}")
            if not (a.delay_s > 0.0 and a.delay_s != float("inf")):
                raise StructuralError(f"arc {a.arc_id}: delay must be positive and finite")
            if a.arc_id in seen_ids:
                raise StructuralError(f"duplicate arc id {a.arc_id!r}")
            if (a.tail, a.head) in seen_pairs:
                raise StructuralError(
                    f"arc {a.arc_id}: duplicate road ({a.tail}, {a.head}); merge parallel roads first"
                )
            seen_ids.add(a.arc_id)
            seen_pairs.add((a.tail, a.head))

    @classmethod
    def build(
        cls,
        junctions: Iterable[Junction],
        arcs: Iterable[tuple[ArcId, Junction, Junction, float]],
    ) -> "VehicularNetwork":
        return cls(
            junctions=frozenset(junctions),
            arcs=tuple(Arc(*spec) for spec in arcs),
        )

    @cached_property
    def arc_by_id(self) -> Mapping[ArcId, Arc]:
        return {a.arc_id: a for a in self.arcs}

    @cached_property
    def successors(self) -> Mapping[Junction, tuple[Junction, ...]]:
        return adjacency(((a.tail, a.head) for a in self.arcs), self.junctions)

    @cached_property
    def predecessors(self) -> Mapping[Junction, tuple[Junction, ...]]:
        return adjacency(((a.head, a.tail) for a in self.arcs), self.junctions)

    def delay(self, arc_id: ArcId) -> float:
        try:
            return self.arc_by_id[arc_id].delay_s
        except KeyError:
            raise DomainError(f"unknown arc id {arc_id!r}") from None


@dataclass(frozen=True)
class VehicularRoute:
    """Connected, loop-free (after normalization) arc sequence with a flow rate."""

    route_id: RouteId
    arcs: tuple[ArcId, ...]
    flow: float  # EVs per second

    def __post_init__(self):
        object.__setattr__(self, "arcs", tuple(self.arcs))

    def junction_sequence(self, network: VehicularNetwork) -> tuple[Junction, ...]:
        """Junctions visited in order: tail of the first arc, then each head."""
        arc_objs = [network.arc_by_id[a] for a in self.arcs]
        return (arc_objs[0].tail,) + tuple(a.head for a in arc_objs)


@dataclass(frozen=True)
class AccessibilityGraph:
    """Junction-accessibility digraph with per-arc route index sets.

    ``segments[(i, j)]`` maps each route id realizing the accessibility arc
    (i, j) to its sub-route endpoints (n, m): 1-based start and end arc
    indices within that route.
    """

    arcs: frozenset[tuple[Junction, Junction]]
    segments: Mapping[tuple[Junction, Junction], Mapping[RouteId, tuple[int, int]]] = field(
        repr=False
    )


def _check_connected(network: VehicularNetwork, route_id: RouteId, arcs: Sequence[ArcId]) -> None:
    if not arcs:
        raise StructuralError(f"route {route_id!r}: empty arc sequence")
    for k in range(len(arcs) - 1):
        a, b = network.arc_by_id.get(arcs[k]), network.arc_by_id.get(arcs[k + 1])
        if a is None:
            raise DomainError(f"route {route_id!r}: unknown arc id {arcs[k]!r}")
        if b is None:
            raise DomainError(f"route {route_id!r}: unknown arc id {arcs[k + 1]!r}")
        if a.head != b.tail:
            raise StructuralError(
                f"route {route_id!r}: arcs {a.arc_id!r} and {b.arc_id!r} are not connected "
                f"({a.head} != {b.tail})"
            )
    if arcs[-1] not in network.arc_by_id:
        raise DomainError(f"route {route_id!r}: unknown arc id {arcs[-1]!r}")


def _split_loops(network: VehicularNetwork, arcs: tuple[ArcId, ...]) -> list[tuple[ArcId, ...]]:
    """Split an arc sequence at its first junction revisit; recurse on the suffix.

    The prefix before the loop entry is loop-free by construction.
    """
    seq = [network.arc_by_id[arcs[0]].tail] + [network.arc_by_id[a].head for a in arcs]
    first_pos: dict[Junction, int] = {}
    for q, j in enumerate(seq):
        p = first_pos.get(j)
        if p is not None:
            pieces: list[tuple[ArcId, ...]] = []
            if p > 0:
                pieces.append(arcs[:p])
            if q < len(arcs):
                pieces.extend(_split_loops(network, arcs[q:]))
            return pieces
        first_pos[j] = q
    return [arcs]


def normalize_routes(
    network: VehicularNetwork, routes: Iterable[VehicularRoute]
) -> tuple[VehicularRoute, ...]:
    """Split looped routes into independent loop-free routes.

    A route revisiting a junction is split at the loop: the prefix before the
    loop entry and the suffix after the loop exit become separate routes, each
    inheriting the original flow. Split pieces stay adjacent in the output and
    get ids ``<orig>.1``, ``<orig>.2``, ... Already loop-free routes pass
    through unchanged (idempotent). Output ids must be unique, so a split
    piece may not collide with another route's id.
    """
    out: list[VehicularRoute] = []
    for r in routes:
        if not (0.0 <= r.flow < math.inf):
            raise StructuralError(
                f"route {r.route_id!r}: flow must be finite and nonnegative, got {r.flow}"
            )
        _check_connected(network, r.route_id, r.arcs)
        pieces = _split_loops(network, r.arcs)
        if pieces == [r.arcs]:
            out.append(r)
        elif len(pieces) == 1:
            out.append(VehicularRoute(r.route_id, pieces[0], r.flow))
        else:
            for k, piece in enumerate(pieces, start=1):
                out.append(VehicularRoute(f"{r.route_id}.{k}", piece, r.flow))
    seen: set[RouteId] = set()
    for r in out:
        if r.route_id in seen:
            raise StructuralError(f"duplicate route id {r.route_id!r}")
        seen.add(r.route_id)
    return tuple(out)


def simple_sequence(network: VehicularNetwork, route: VehicularRoute) -> tuple[Junction, ...]:
    """The route's junction sequence, checked to realize each junction pair (i, j) once.

    A route that revisits a junction realizes some pair twice, unless its only
    revisit closes a loop from its first junction back to it at the end.
    """
    seq = route.junction_sequence(network)
    if len(set(seq)) < len(seq):
        seen: set[tuple[Junction, Junction]] = set()
        for p in range(len(seq) - 1):
            for q in range(p + 1, len(seq)):
                key = (seq[p], seq[q])
                if key in seen:
                    raise StructuralError(
                        f"route {route.route_id!r} yields two sub-routes for {key}; "
                        "route is not simple"
                    )
                seen.add(key)
    return seq


def build_accessibility_graph(
    network: VehicularNetwork, routes: Iterable[VehicularRoute]
) -> AccessibilityGraph:
    """Accessibility arc (i, j) exists iff some route visits i strictly before j.

    Routes must be normalized (loop-free); a route realizing the same (i, j)
    twice is a structural error.
    """
    segments: dict[tuple[Junction, Junction], dict[RouteId, tuple[int, int]]] = {}
    for r in routes:
        seq = simple_sequence(network, r)
        for p in range(len(seq) - 1):
            for q in range(p + 1, len(seq)):
                per_route = segments.setdefault((seq[p], seq[q]), {})
                if r.route_id in per_route:
                    raise StructuralError(f"duplicate route id {r.route_id!r}")
                # sub-route spans arcs p+1..q, 1-based
                per_route[r.route_id] = (p + 1, q)
    return AccessibilityGraph(arcs=frozenset(segments), segments=segments)


def prune_unreachable(
    network: VehicularNetwork,
    accessibility: AccessibilityGraph,
    t: Junction,
) -> tuple[frozenset[tuple[Junction, Junction]], frozenset[Junction]]:
    """Drop accessibility arcs whose head cannot reach the destination.

    Returns (pruned arc set, set of junctions with no directed road path to t).
    Reachability is computed by reverse BFS from t on the road graph.
    """
    if t not in network.junctions:
        raise DomainError(f"destination {t!r} is not a junction")
    blocked = network.junctions.difference(bfs_levels(network.predecessors, t))
    pruned = frozenset((i, j) for (i, j) in accessibility.arcs if j not in blocked)
    return pruned, blocked


def arc_flow_table(routes: Iterable[VehicularRoute]) -> dict[ArcId, float]:
    """Total EV flow over each road arc that some route traverses.

    Each route's flow counts once per arc it traverses, added in route order.
    """
    table: dict[ArcId, float] = {}
    for r in routes:
        for a in set(r.arcs):
            table[a] = table.get(a, 0.0) + r.flow
    return table

