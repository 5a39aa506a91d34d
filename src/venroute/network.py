"""Road network, vehicular routes, and the junction-accessibility graph.

The road network is a directed graph of junctions and arcs with per-arc
traversal delays. Vehicular routes are connected arc sequences with an EV
flow rate. The accessibility graph is held as the junction-route incidence:
arc (i, j) exists whenever some route visits junction i strictly before j,
and its index set, which records the routes realizing it and with which
sub-routes, is derived from the incidence on demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, combinations
from typing import Collection, Iterable, Mapping, Sequence

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


@dataclass(frozen=True)
class VehicularRoute:
    """Connected, loop-free (after normalization) arc sequence with a flow rate."""

    route_id: RouteId
    arcs: tuple[ArcId, ...]
    flow: float  # EVs per second

    def __post_init__(self):
        object.__setattr__(self, "arcs", tuple(self.arcs))


JunctionSequence = tuple[Junction, ...]


def _route_sequence(network: VehicularNetwork, route: VehicularRoute) -> JunctionSequence:
    """The route's junction sequence, checked to chain known arcs and to carry
    a finite, nonnegative flow.
    """
    rid = route.route_id
    if not (0.0 <= route.flow < math.inf):
        raise StructuralError(
            f"route {rid!r}: flow must be finite and nonnegative, got {route.flow}"
        )
    if not route.arcs:
        raise StructuralError(f"route {rid!r}: empty arc sequence")
    arc_by_id = network.arc_by_id
    first = arc_by_id.get(route.arcs[0])
    at = None if first is None else first.tail  # so the first arc connects
    seq = [at]
    for k, arc_id in enumerate(route.arcs):
        a = arc_by_id.get(arc_id)
        if a is None:
            raise DomainError(f"route {rid!r}: unknown arc id {arc_id!r}")
        if a.tail != at:
            raise StructuralError(
                f"route {rid!r}: arcs {route.arcs[k - 1]!r} and {arc_id!r} are not connected "
                f"({at} != {a.tail})"
            )
        at = a.head
        seq.append(at)
    return tuple(seq)


def _loop_free_pieces(seq: JunctionSequence) -> list[tuple[int, int]]:
    """(start, end) junction positions of the loop-free pieces of ``seq``.

    The sequence is split at its first junction revisit and the suffix from
    the revisit on is split again. The part before the loop entry is a piece
    when it has an arc; the loop itself is dropped.
    """
    pieces: list[tuple[int, int]] = []
    start = 0
    first_pos: dict[Junction, int] = {}
    for q, j in enumerate(seq):
        p = first_pos.get(j)
        if p is not None:
            if p > start:
                pieces.append((start, p))
            start, first_pos = q, {}
        first_pos[j] = q
    if start < len(seq) - 1:
        pieces.append((start, len(seq) - 1))
    return pieces


def _walk_routes(
    network: VehicularNetwork, routes: Iterable[VehicularRoute]
) -> tuple[tuple[VehicularRoute, ...], tuple[JunctionSequence, ...]]:
    """``normalize_routes`` and each output route's checked junction sequence.

    Each input route is walked once; a split piece takes its slice of the
    parent's sequence.
    """
    out: list[VehicularRoute] = []
    seqs: list[JunctionSequence] = []
    for r in routes:
        seq = _route_sequence(network, r)
        if len(set(seq)) == len(seq):
            out.append(r)
            seqs.append(seq)
            continue
        pieces = _loop_free_pieces(seq)
        if not pieces:
            raise StructuralError(f"route {r.route_id!r} is a closed loop: no loop-free piece")
        for k, (a, b) in enumerate(pieces, start=1):
            rid = r.route_id if len(pieces) == 1 else f"{r.route_id}.{k}"
            out.append(VehicularRoute(rid, r.arcs[a:b], r.flow))
            seqs.append(seq[a : b + 1])
    _check_unique(r.route_id for r in out)
    return tuple(out), tuple(seqs)


def _check_unique(ids: Iterable[RouteId]) -> None:
    """Raise StructuralError naming the first id that repeats an earlier one."""
    seen: set[RouteId] = set()
    for rid in ids:
        if rid in seen:
            raise StructuralError(f"duplicate route id {rid!r}")
        seen.add(rid)


def normalize_routes(
    network: VehicularNetwork, routes: Iterable[VehicularRoute]
) -> tuple[VehicularRoute, ...]:
    """Split looped routes into independent loop-free routes.

    A route revisiting a junction is split at the loop: the prefix before the
    loop entry and the suffix after the loop exit become separate routes, each
    inheriting the original flow. Split pieces stay adjacent in the output;
    two or more get ids ``<orig>.1``, ``<orig>.2``, ..., one keeps ``<orig>``.
    Already loop-free routes pass through unchanged (idempotent). Output ids
    must be unique, so a split piece may not collide with another route's id.
    A route that is all loop leaves no piece and raises StructuralError.
    """
    return _walk_routes(network, routes)[0]


def _loop_free_sequence(network: VehicularNetwork, route: VehicularRoute) -> JunctionSequence:
    """The route's checked junction sequence, checked also to visit each junction once."""
    seq = _route_sequence(network, route)
    if len(set(seq)) < len(seq):
        j = next(j for k, j in enumerate(seq) if j in seq[:k])
        raise StructuralError(
            f"route {route.route_id!r} revisits junction {j!r}; route is not loop-free"
        )
    return seq


# accessibility arc (i, j) -> route id -> 1-based (start, end) arc indices
Segments = Mapping[tuple[Junction, Junction], Mapping[RouteId, tuple[int, int]]]


@dataclass(frozen=True)
class AccessibilityGraph:
    """The junction-route incidence; accessibility arcs and index sets derive from it on demand.

    ``routes``, ``seqs`` and ``visits`` hold, in route-id order, each route,
    its junction sequence and each junction's (route id, 0-based position)
    visits. Every route is loop-free, so it visits a junction at most once.
    Arc (i, j) exists when some route visits i before j; its index
    set maps each such route to its sub-route's 1-based (start, end) arcs.
    Nothing cached here points back at the graph, which would keep it alive
    until the cyclic collector runs.
    """

    routes: Mapping[RouteId, VehicularRoute] = field(repr=False)
    seqs: Mapping[RouteId, JunctionSequence] = field(repr=False)
    visits: Mapping[Junction, Sequence[tuple[RouteId, int]]] = field(repr=False)

    @cached_property
    def arcs(self) -> frozenset[tuple[Junction, Junction]]:
        return frozenset(chain.from_iterable(combinations(seq, 2) for seq in self.seqs.values()))

    @cached_property
    def segments(self) -> Segments:
        """Every arc's index set, built in full; the solvers ask ``index_set``."""
        return {arc: self.index_set(*arc) for arc in self.arcs}

    def index_set(self, i: Junction, j: Junction) -> dict[RouteId, tuple[int, int]]:
        """Routes visiting i before j, each with its sub-route from i to j."""
        at_i = dict(self.visits.get(i, ()))
        return {
            rid: (at_i[rid] + 1, q) for rid, q in self.visits.get(j, ()) if at_i.get(rid, q) < q
        }

    def climbing_index_sets(
        self, levels: Mapping[Junction, int], routes: Collection[RouteId]
    ) -> Segments:
        """Index sets, over ``routes`` only, of the arcs between junctions of
        ``levels`` whose head lies exactly one level above their tail.
        """
        on: dict[RouteId, list[int]] = {}
        for j in levels:
            for rid, p in self.visits[j]:
                if rid in routes:
                    on.setdefault(rid, []).append(p)
        out: dict[tuple[Junction, Junction], dict[RouteId, tuple[int, int]]] = {}
        for rid, positions in on.items():
            seq = self.seqs[rid]
            positions.sort()
            for k, p in enumerate(positions):
                level = levels[seq[p]] + 1
                for q in positions[k + 1 :]:
                    if levels[seq[q]] == level:
                        out.setdefault((seq[p], seq[q]), {})[rid] = (p + 1, q)
        return out


def build_accessibility_graph(
    network: VehicularNetwork, routes: Iterable[VehicularRoute]
) -> AccessibilityGraph:
    """The junction-route incidence of ``routes``, each checked as it enters.

    Each route must chain known arcs, carry a finite, nonnegative flow and
    visit each junction once (normalized routes do), under a unique id.
    """
    routes = list(routes)
    seqs = [_loop_free_sequence(network, r) for r in routes]
    _check_unique(sorted(r.route_id for r in routes))  # names the least repeated id
    return _incidence(routes, seqs)


def _incidence(
    routes: Sequence[VehicularRoute], seqs: Sequence[JunctionSequence]
) -> AccessibilityGraph:
    """The incidence of loop-free routes, under unique ids, given their checked sequences."""
    graph = AccessibilityGraph({}, {}, {})
    visits = graph.visits
    for k in sorted(range(len(routes)), key=lambda k: routes[k].route_id):
        rid, seq = routes[k].route_id, seqs[k]
        graph.routes[rid] = routes[k]
        graph.seqs[rid] = seq
        for p, j in enumerate(seq):
            if j in visits:
                visits[j].append((rid, p))
            else:
                visits[j] = [(rid, p)]
    return graph


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

