"""Exhaustive and bounded construction of the energy-path set.

Junction sequences are grown over the accessibility arcs by frontier
expansion; each completed sequence is expanded into concrete energy paths by
taking the Cartesian product of its per-arc route index sets and dropping
combinations that reuse a route. A randomized depth-first variant yields
seeded subsets for the sampled-LP method, keeping to sequences at most
``DETOUR_SLACK`` arcs longer than the fewest-hop distance. ``_count`` counts
the combinations of distinct sequences without building any path, which is
all the growth study needs: a small dynamic program over each sequence's
index sets.

Each call checks the route ids of an accessibility arc once, each route's
sub-route checked by its end arcs to run along the accessibility arc.
Counting reads only those checked ids. Expansion and sampling read the
segment spans (arcs, end junctions, delay, flow) built from them, once per
arc, and draw their combinations from one generator over them. Because every
span runs along its arc and every sequence is checked to be loop-free, each
path chains from source to destination without a repeated junction, as
``build_energy_path`` would check.

A cap or limit below 1 is a bad argument (DomainError), never a cap verdict.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import defaultdict
from dataclasses import dataclass
from operator import itemgetter
from typing import Collection, Iterable, Iterator, Mapping

from .energy import EnergyPath, SegmentSpan, assemble_energy_path, segment_span
from .errors import ConsistencyError, DomainError, EnumerationCapError, StructuralError
from .network import (
    AccessibilityGraph,
    Junction,
    JunctionSequence,
    RouteId,
    VehicularNetwork,
    VehicularRoute,
    adjacency,
    bfs_levels,
)

DEFAULT_CAP = 10**6
DETOUR_SLACK = 3  # arcs a sampled sequence may add to the fewest-hop distance


def _at_least_one(value: int, name: str) -> None:
    if value < 1:
        raise DomainError(f"{name} must be at least 1")


# (boundary junctions, route ids): equal to EnergyPath.sort_key() of the path
PathKey = tuple[JunctionSequence, tuple[RouteId, ...]]


@dataclass(frozen=True)
class PathSet:
    paths: tuple[EnergyPath, ...]
    complete: bool


def f_bound(n: int) -> int:
    """Sequence-count recurrence: f(n) = 1 + (n-1) f(n-1), f(1) = 1, 0 below."""
    if n < 1:
        return 0
    value = 1
    for k in range(2, n + 1):
        value = 1 + (k - 1) * value
    return value


def f_closed_bound(n: int) -> float:
    """Closed-form upper bound (n-1)! * e on f(n)."""
    if n < 1:
        return 0.0
    return math.factorial(n - 1) * math.e


def _live_successors(
    arcs: Collection[tuple[Junction, Junction]], t: Junction
) -> tuple[dict[Junction, tuple[Junction, ...]], dict[Junction, int]]:
    """Sorted successors over the arcs between junctions that reach t, and hops to t.

    A junction with no such successor maps to ().
    """
    preds: dict[Junction, list[Junction]] = {}
    for i, j in arcs:
        preds.setdefault(j, []).append(i)
    hops = bfs_levels(preds, t)  # hop counts do not depend on neighbour order
    succ = adjacency((i, j) for (i, j) in arcs if i in hops and j in hops)
    return defaultdict(tuple, succ), hops


class _Successors(dict):
    """The live successor map of the graph's arcs, derived junction by junction
    from the incidence on first read.

    A junction in ``hops`` (those that reach t) maps to the sorted junctions
    in ``hops`` that follow it on some route through it; any other maps to ().
    Read it with ``[]``: ``dict.get`` derives nothing.
    """

    def __init__(self, accessibility: AccessibilityGraph, hops: Mapping[Junction, int]):
        super().__init__()
        self._accessibility = accessibility
        self._hops = hops

    def __missing__(self, i: Junction) -> tuple[Junction, ...]:
        acc, hops = self._accessibility, self._hops
        later: set[Junction] = set()
        if i in hops:
            for rid, p in acc.visits.get(i, ()):
                later.update(acc.seqs[rid][p + 1 :])
        self[i] = succ = tuple(sorted(j for j in later if j in hops))
        return succ


def enumerate_sequences(
    pruned_arcs: frozenset[tuple[Junction, Junction]] | set[tuple[Junction, Junction]],
    s: Junction,
    t: Junction,
    cap: int = DEFAULT_CAP,
) -> tuple[JunctionSequence, ...]:
    """All loop-free junction sequences from s to t over the given accessibility arcs.

    Returned in lexicographic order. ``cap`` bounds the sequences held at
    once: EnumerationCapError is raised as soon as the complete sequences
    plus the partial ones waiting to be extended exceed it. That bounds
    memory and fails fast on a blow-up, but an instance with exactly ``cap``
    sequences can still raise.
    """
    # Restricting to junctions that can still reach t changes nothing in the
    # output but avoids growing dead-end frontiers, as pruning the arcs would.
    succ, _hops = _live_successors(pruned_arcs, t)
    return _sequences(succ, s, t, cap)


def _sequences(
    succ: Mapping[Junction, tuple[Junction, ...]], s: Junction, t: Junction, cap: int
) -> tuple[JunctionSequence, ...]:
    """``enumerate_sequences`` over the live successors of its arcs, read with ``[]``."""
    _at_least_one(cap, "enumeration cap")
    if s == t:
        raise DomainError("source and destination must differ")
    frontier: list[JunctionSequence] = [(s,)]
    done: list[JunctionSequence] = []
    while frontier:
        nxt: list[JunctionSequence] = []
        for seq in frontier:
            for j in succ[seq[-1]]:
                if j in seq:
                    continue
                extended = seq + (j,)
                if j == t:
                    done.append(extended)
                else:
                    nxt.append(extended)
            if len(done) + len(nxt) > cap:
                raise EnumerationCapError(
                    f"sequence enumeration exceeded the cap of {cap}"
                )
        frontier = nxt
    return tuple(sorted(done))


class _RouteIds(dict):
    """Sorted route ids per accessibility arc, with the index set they come from,
    each sub-route checked on first use to lie within its route, then to run i to j.
    """

    def __init__(
        self,
        accessibility: AccessibilityGraph,
        network: VehicularNetwork,
        routes_by_id: Mapping[RouteId, VehicularRoute],
    ):
        super().__init__()
        self._accessibility = accessibility
        self._arc_by_id = network.arc_by_id
        self._routes_by_id = routes_by_id

    def __missing__(self, arc: tuple[Junction, Junction]) -> tuple[tuple[RouteId, ...], dict]:
        i, j = arc
        per_route = self._accessibility.index_set(i, j)
        if not per_route:
            raise ConsistencyError(f"no index set for accessibility arc ({i}, {j})")
        rids = tuple(sorted(per_route))
        try:
            subs = [(rid, *per_route[rid], self._routes_by_id[rid].arcs) for rid in rids]
        except KeyError as e:
            raise DomainError(f"no route {e.args[0]!r} given for the accessibility graph") from None
        for rid, n, m, arcs in subs:
            if not (1 <= n <= m <= len(arcs)):
                raise StructuralError(f"segment ({rid}, {n}, {m}) out of range")
        for rid, n, m, arcs in subs:
            tail, head = self._arc_by_id[arcs[n - 1]].tail, self._arc_by_id[arcs[m - 1]].head
            if tail != i or head != j:
                raise StructuralError(
                    f"segment {(rid, n, m)} runs from {tail} to {head}, "
                    f"not along accessibility arc ({i}, {j})"
                )
        self[arc] = entry = (rids, per_route)
        return entry


class _SpanTable(dict):
    """Route ids and segment spans per accessibility arc, sorted by route id.

    Each arc's entry is derived once and shared by every sequence crossing
    it: first its checked route ids, in ``route_ids``, then spans from them.
    """

    def __init__(
        self,
        accessibility: AccessibilityGraph,
        network: VehicularNetwork,
        routes_by_id: Mapping[RouteId, VehicularRoute],
    ):
        super().__init__()
        self.route_ids = _RouteIds(accessibility, network, routes_by_id)
        self._network = network
        self._routes_by_id = routes_by_id

    def __missing__(
        self, arc: tuple[Junction, Junction]
    ) -> tuple[tuple[RouteId, ...], tuple[SegmentSpan, ...]]:
        rids, per_route = self.route_ids[arc]
        spans = tuple(
            segment_span(self._network, self._routes_by_id, rid, *per_route[rid])
            for rid in rids
        )
        self[arc] = entry = (rids, spans)
        return entry


def _entries(seq: JunctionSequence, table: Mapping) -> list:
    """Entries of one junction sequence's arcs in a span table or its ``route_ids``.

    The sequence is checked to have at least one arc and to be loop-free, and
    each arc's route ids are checked, so every span used runs along its arc.
    """
    if len(seq) < 2:
        raise StructuralError("an energy path needs at least one segment")
    if len(set(seq)) != len(seq):
        raise StructuralError("segment boundary junctions repeat; path is not loop-free")
    return [table[arc] for arc in zip(seq, seq[1:])]


def _count_distinct(route_sets: list[tuple[RouteId, ...]]) -> int:
    """Number of ways to pick one route from each set, no route twice.

    A dynamic program over the sets in order. Its state is the set of routes
    picked so far that appear in a later set; a route in no later set adds to
    the multiplicity of a step, not to the states.
    """
    suffix = []  # per set, the routes of the sets after it
    seen: frozenset[RouteId] = frozenset()
    for rids in reversed(route_sets):
        suffix.append(seen)
        seen = seen.union(rids)
    if len(seen) == sum(map(len, route_sets)):
        return math.prod(map(len, route_sets))  # no route in two sets
    states = {frozenset(): 1}  # picked routes that appear later -> ways
    for rids, later in zip(route_sets, reversed(suffix)):
        nxt: dict[frozenset[RouteId], int] = {}
        for state, ways in states.items():
            kept = state & later
            free = 0
            for r in rids:
                if r in state:
                    continue
                if r in later:
                    key = kept | {r}
                    nxt[key] = nxt.get(key, 0) + ways
                else:
                    free += 1
            if free:
                nxt[kept] = nxt.get(kept, 0) + ways * free
        states = nxt
    return sum(states.values())


def _combo_paths(
    seq: JunctionSequence, table: _SpanTable
) -> Iterator[tuple[PathKey, EnergyPath]]:
    """Expand one junction sequence into (sort key, energy path) pairs, one per
    route-distinct combination of its checked entries, in product order. A
    combination that reuses a route forms no energy path.

    Every span runs along its arc and the sequence is loop-free, so each path
    chains from seq[0] to seq[-1] without repeating a boundary junction.
    """
    seq = tuple(seq)
    entries = _entries(seq, table)
    combos = zip(
        itertools.product(*(rids for rids, _ in entries)),
        itertools.product(*(spans for _, spans in entries)),
    )
    for rids, spans in combos:
        if len(set(rids)) == len(rids):
            yield (seq, rids), assemble_energy_path(spans, seq[0])


class _PathCache(dict):
    """Each junction sequence's (sort key, energy path) pairs, in ``_combo_paths``
    order, each assembled once and shared by every sample drawn over one span table.

    A sequence maps to the pairs assembled so far and the generator of the rest.
    """

    def __init__(self, table: _SpanTable):
        super().__init__()
        self._table = table

    def prefix(self, seq: JunctionSequence, n: int) -> list[tuple[PathKey, EnergyPath]]:
        """The sequence's first ``n`` pairs, or all of them if it has fewer."""
        if seq not in self:
            self[seq] = ([], _combo_paths(seq, self._table))
        done, rest = self[seq]
        if len(done) < n:
            try:
                done.extend(itertools.islice(rest, n - len(done)))
            except BaseException:
                # the generator is spent: keep no truncated entry, so every read raises
                del self[seq]
                raise
        return done[:n]


def expand_to_paths(
    sequences: Iterable[JunctionSequence],
    accessibility: AccessibilityGraph,
    network: VehicularNetwork,
    routes: Iterable[VehicularRoute],
    cap: int = DEFAULT_CAP,
) -> PathSet:
    """Expand junction sequences into the full set of concrete energy paths."""
    table = _SpanTable(accessibility, network, {r.route_id: r for r in routes})
    return _expand(sequences, table, cap)


def _expand(sequences: Iterable[JunctionSequence], table: _SpanTable, cap: int) -> PathSet:
    """``expand_to_paths`` over the span table of its graph, network and routes."""
    _at_least_one(cap, "enumeration cap")
    by_key: dict[PathKey, EnergyPath] = {}
    for seq in sequences:
        for key, path in _combo_paths(seq, table):
            if len(by_key) >= cap:
                raise EnumerationCapError(f"path expansion exceeded the cap of {cap}")
            if key in by_key:
                raise ConsistencyError(f"duplicate energy path produced: {key}")
            by_key[key] = path
    return PathSet(paths=tuple(by_key[key] for key in sorted(by_key)), complete=True)


def _count(sequences: Iterable[JunctionSequence], table: _SpanTable, cap: int) -> int:
    """Number of energy paths ``_expand`` would return for distinct sequences,
    with its checks and cap, from checked route ids alone: no span, no path.
    """
    total = 0
    for seq in sequences:
        total += _count_distinct([rids for rids, _ in _entries(seq, table.route_ids)])
        if total > cap:
            raise EnumerationCapError(f"path expansion exceeded the cap of {cap}")
    return total


def enumerate_paths(
    pruned_arcs,
    s: Junction,
    t: Junction,
    accessibility: AccessibilityGraph,
    network: VehicularNetwork,
    routes: Iterable[VehicularRoute],
    cap: int = DEFAULT_CAP,
) -> PathSet:
    """Full enumeration: sequences then expansion, under one safety cap."""
    sequences = enumerate_sequences(pruned_arcs, s, t, cap=cap)
    return expand_to_paths(sequences, accessibility, network, routes, cap=cap)


class _BoundTracker:
    """Records whether a length budget ever pruned a DFS branch."""

    hit = False


def _random_sequence_dfs(
    succ: Mapping[Junction, tuple[Junction, ...]],
    s: Junction,
    t: Junction,
    rng: random.Random,
    hops: Mapping[Junction, int],
    budget: int,
    tracker: _BoundTracker,
) -> Iterator[JunctionSequence]:
    """Yield loop-free s-t sequences in randomized depth-first order.

    Children are shuffled, then stable-sorted by a jittered hop distance to
    t, so detour sequences surface early but descents still head toward t.
    Children that cannot reach t within ``budget`` arcs are pruned, which
    keeps yields fast on dense graphs; pruning events are flagged on the
    tracker. A budget that never prunes covers the whole sequence space when
    run to exhaustion.
    """

    def shuffled(node: Junction) -> list[Junction]:
        order = list(succ[node])
        rng.shuffle(order)
        order.sort(key=lambda j: hops[j] + (1 if rng.random() < 0.3 else 0))
        return order

    seq: list[Junction] = [s]
    on_path = {s}
    stack: list[Iterator[Junction]] = [iter(shuffled(s))]
    while stack:
        child = next(stack[-1], None)
        if child is None:
            stack.pop()
            on_path.discard(seq.pop())
            continue
        if child in on_path:
            continue
        # arcs used after stepping to child, plus the least arcs still needed
        if len(seq) + hops[child] > budget:
            tracker.hit = True
            continue
        if child == t:
            yield tuple(seq) + (t,)
            continue
        seq.append(child)
        on_path.add(child)
        stack.append(iter(shuffled(child)))


def enumerate_bounded(
    pruned_arcs,
    s: Junction,
    t: Junction,
    accessibility: AccessibilityGraph,
    network: VehicularNetwork,
    routes: Iterable[VehicularRoute],
    limit: int,
    seed: int,
) -> PathSet:
    """Seeded subset of the energy-path set, at most ``limit`` paths.

    Randomized depth-first expansion so that both short and long sequences
    appear; at most a fixed share of the limit is drawn from any one junction
    sequence on the first pass, so small subsets span several sequence
    families. Sequences are capped at ``DETOUR_SLACK`` arcs beyond the
    fewest-hop distance. Deterministic for fixed inputs and seed. The
    completeness flag is true only when the whole path set fit within the
    limit.
    """
    table = _SpanTable(accessibility, network, {r.route_id: r for r in routes})
    succ, hops = _live_successors(pruned_arcs, t)
    return _sample_bounded(succ, hops, _PathCache(table), s, t, limit, seed)


def _sample_bounded(
    succ: Mapping[Junction, tuple[Junction, ...]], hops: Mapping[Junction, int],
    paths: _PathCache, s: Junction, t: Junction, limit: int, seed: int,
) -> PathSet:
    """``enumerate_bounded`` over the live successors of its arcs, read with
    ``[]``, and the paths of each sequence, which depend only on the scenario:
    a sweep shares them across seeds.
    """
    _at_least_one(limit, "limit")
    if s == t:
        raise DomainError("source and destination must differ")
    rng = random.Random(seed)
    per_seq_cap = max(1, limit // 8)
    keyed: list[tuple[PathKey, EnergyPath]] = []
    truncated = False
    skipped: list[JunctionSequence] = []  # sequences with combos beyond the cap
    # if s does not reach t, the search yields nothing whatever the budget
    budget = hops.get(s, 0) + DETOUR_SLACK
    tracker = _BoundTracker()
    for seq in _random_sequence_dfs(succ, s, t, rng, hops, budget, tracker):
        room = limit - len(keyed)
        take = min(per_seq_cap, room)
        pairs = paths.prefix(seq, take + 1)  # one more tells whether any is held back
        keyed.extend(pairs[:take])
        if len(pairs) > take:
            if take == room:
                truncated = True
                break
            skipped.append(seq)
    if not truncated:
        # room left and combos were held back for diversity: take them now
        for seq in skipped:
            room = limit - len(keyed)
            more = paths.prefix(seq, per_seq_cap + room + 1)[per_seq_cap:]
            keyed.extend(more[:room])
            if len(more) > room:
                truncated = True
                break
    keyed.sort(key=itemgetter(0))
    complete = not truncated and not tracker.hit
    return PathSet(paths=tuple(path for _, path in keyed), complete=complete)
