"""Scenario container and seeded generators: grids, random digraphs, corridors.

Generators compute arc delays from length and speed at ingestion so the core
only ever sees delays in seconds. All randomness flows through one
``random.Random(seed)`` per call, so identical arguments reproduce identical
scenarios byte for byte.
"""

from __future__ import annotations

import math
import numbers
import random
from dataclasses import dataclass, replace

from .energy import EnergyParams
from .errors import DomainError
from .network import Junction, VehicularNetwork, VehicularRoute, bfs_levels

DEFAULT_PARAMS = EnergyParams(packet_kwh=1.0, charge_eff=0.9, discharge_eff=1.0, window_s=18000.0)

FlowSpec = tuple  # ("const", c) or ("uniform", lo, hi)


@dataclass(frozen=True)
class Scenario:
    name: str
    seed: int
    network: VehicularNetwork
    routes: tuple[VehicularRoute, ...]
    params: EnergyParams
    source: Junction
    destination: Junction
    target_kwh: float | None = None

    def __post_init__(self):
        if self.source == self.destination:
            raise DomainError("source and destination must differ")
        if self.source not in self.network.junctions:
            raise DomainError(f"source {self.source!r} is not a junction")
        if self.destination not in self.network.junctions:
            raise DomainError(f"destination {self.destination!r} is not a junction")
        for r in self.routes:
            for a in r.arcs:
                if a not in self.network.arc_by_id:
                    raise DomainError(f"route {r.route_id!r} references unknown arc {a!r}")


def _check_flow_spec(flow_spec: FlowSpec) -> None:
    arity = {"const": 1, "uniform": 2}.get(flow_spec[0]) if flow_spec else None
    if arity is None or len(flow_spec) != 1 + arity:
        raise DomainError(
            f"flow spec must be ('const', c) or ('uniform', lo, hi), got {flow_spec!r}"
        )
    if not all(isinstance(v, numbers.Real) and 0.0 <= v < math.inf for v in flow_spec[1:]):
        raise DomainError(f"flow spec values must be finite and nonnegative, got {flow_spec!r}")
    if flow_spec[0] == "uniform" and flow_spec[1] > flow_spec[2]:
        raise DomainError(f"uniform flow bounds must satisfy lo <= hi, got {flow_spec!r}")


def _draw_flow(rng: random.Random, flow_spec: FlowSpec) -> float:
    """One route's flow from a checked flow spec."""
    if flow_spec[0] == "const":
        return float(flow_spec[1])
    return rng.uniform(float(flow_spec[1]), float(flow_spec[2]))


def _random_walk_route(
    rng: random.Random,
    arcs_by_tail: dict[str, list],
    junctions_sorted: list[str],
    max_arcs: int,
    max_km: float | None = None,
    arc_km: dict[str, float] | None = None,
) -> tuple[str, ...] | None:
    """Simple random walk (no repeated junction), at least one arc long."""
    start = rng.choice(junctions_sorted)
    visited = {start}
    here = start
    picked: list[str] = []
    length_km = 0.0
    target_len = rng.randint(1, max_arcs)
    while len(picked) < target_len:
        options = [
            a for a in arcs_by_tail.get(here, []) if a.head not in visited
        ]
        if not options:
            break
        arc = rng.choice(options)
        if max_km is not None and arc_km is not None:
            if length_km + arc_km[arc.arc_id] > max_km:
                break
            length_km += arc_km[arc.arc_id]
        picked.append(arc.arc_id)
        visited.add(arc.head)
        here = arc.head
    return tuple(picked) if picked else None


def _make_routes(
    rng: random.Random,
    network: VehicularNetwork,
    count: int,
    max_arcs: int,
    flow_spec: FlowSpec,
    max_km: float | None = None,
    arc_km: dict[str, float] | None = None,
) -> tuple[VehicularRoute, ...]:
    if count < 0:
        raise DomainError(f"route count must be nonnegative, got {count}")
    if max_arcs < 1:
        raise DomainError(f"route length cap must be at least 1, got {max_arcs}")
    width = max(2, len(str(count)))
    arcs_by_tail: dict[str, list] = {}
    for a in sorted(network.arcs, key=lambda a: a.arc_id):
        arcs_by_tail.setdefault(a.tail, []).append(a)
    junctions_sorted = sorted(network.junctions)
    routes = []
    attempts = 0
    while len(routes) < count and attempts < count * 50:
        attempts += 1
        arcs = _random_walk_route(
            rng, arcs_by_tail, junctions_sorted, max_arcs, max_km, arc_km
        )
        if arcs is None:
            continue
        rid = f"r{len(routes) + 1:0{width}d}"
        routes.append(VehicularRoute(rid, arcs, _draw_flow(rng, flow_spec)))
    return tuple(routes)


def generate_grid(
    rows: int,
    cols: int,
    arc_length_km: float,
    speed_kmh: float,
    route_count: int,
    flow_spec: FlowSpec,
    seed: int,
    max_route_arcs: int = 4,
) -> Scenario:
    """Bidirectional 4-neighbor grid with seeded random simple routes.

    Source is the first junction (top-left), destination the last
    (bottom-right).
    """
    if rows < 2 or cols < 2:
        raise DomainError("grid needs at least 2 rows and 2 columns")
    if not 0.0 < arc_length_km < math.inf:
        raise DomainError(f"arc length must be positive and finite, got {arc_length_km}")
    if not 0.0 < speed_kmh < math.inf:
        raise DomainError(f"speed must be positive and finite, got {speed_kmh}")
    _check_flow_spec(flow_spec)
    rng = random.Random(seed)
    n = rows * cols
    width = len(str(n))
    jid = lambda r, c: f"j{r * cols + c + 1:0{width}d}"
    junctions = [jid(r, c) for r in range(rows) for c in range(cols)]
    delay = arc_length_km / speed_kmh * 3600.0
    arcs = []
    for r in range(rows):
        for c in range(cols):
            here = jid(r, c)
            for rr, cc in ((r + 1, c), (r, c + 1)):
                if rr < rows and cc < cols:
                    there = jid(rr, cc)
                    arcs.append((f"a_{here}_{there}", here, there, delay))
                    arcs.append((f"a_{there}_{here}", there, here, delay))
    arcs.sort()
    network = VehicularNetwork.build(junctions, arcs)
    routes = _make_routes(rng, network, route_count, max_arcs=max_route_arcs, flow_spec=flow_spec)
    return Scenario(
        name=f"grid{rows}x{cols}",
        seed=seed,
        network=network,
        routes=routes,
        params=DEFAULT_PARAMS,
        source=junctions[0],
        destination=junctions[-1],
    )


def generate_random(
    n_junctions: int,
    road_density: float,
    route_length_cap: int,
    route_count: int,
    seed: int,
    flow_spec: FlowSpec = ("uniform", 0.1, 0.3),
) -> Scenario:
    """Erdos-Renyi style directed road graph with seeded random simple routes.

    Accessibility density is a measured outcome of the routes, not a knob.
    Source/destination are picked to be road-connected when possible.
    """
    if n_junctions < 2:
        raise DomainError("need at least 2 junctions")
    if not (0.0 < road_density <= 1.0):
        raise DomainError("road density must lie in (0, 1]")
    _check_flow_spec(flow_spec)
    rng = random.Random(seed)
    width = len(str(n_junctions))
    junctions = [f"j{k + 1:0{width}d}" for k in range(n_junctions)]
    arcs = []
    for i in junctions:
        for j in junctions:
            if i != j and rng.random() < road_density:
                length = rng.uniform(5.0, 20.0)
                arcs.append((f"a_{i}_{j}", i, j, length / 60.0 * 3600.0))
    network = VehicularNetwork.build(junctions, arcs)
    routes = _make_routes(
        rng, network, route_count, max_arcs=route_length_cap, flow_spec=flow_spec
    )
    source, dest = _pick_connected_pair(rng, network)
    return Scenario(
        name=f"rand{n_junctions}",
        seed=seed,
        network=network,
        routes=routes,
        params=DEFAULT_PARAMS,
        source=source,
        destination=dest,
    )


def _pick_connected_pair(rng: random.Random, network: VehicularNetwork) -> tuple[str, str]:
    junctions = sorted(network.junctions)
    for _ in range(200):
        s, t = rng.sample(junctions, 2)
        if t in bfs_levels(network.successors, s):
            return s, t
    return junctions[0], junctions[-1]


def generate_corridor(
    rows: int = 20,
    cols: int = 50,
    kept_edges: int = 1250,
    route_count: int = 4800,
    seed: int = 0,
) -> Scenario:
    """Large sparse road network shaped like a national highway system.

    A rows x cols grid thinned to ``kept_edges`` bidirectional edges (a random
    spanning tree is always kept, so the network stays connected), with
    random edge lengths and speeds and random routes of at most 200 km.
    Stands in for proprietary large-scale traffic data. The source is the
    junction in the middle row a quarter of the way across, the destination
    10 columns east of it. The transfer window is scaled up to 20 hours to
    match the longer end-to-end travel times.
    """
    if rows < 2:
        raise DomainError("corridor needs at least 2 rows")
    if cols // 4 + 10 >= cols:
        raise DomainError(
            f"corridor destination column {cols // 4 + 10} lies outside its {cols} columns"
        )
    rng = random.Random(seed)
    n = rows * cols
    width = len(str(n))
    jid = lambda r, c: f"j{r * cols + c + 1:0{width}d}"
    junctions = [jid(r, c) for r in range(rows) for c in range(cols)]
    edges = []
    for r in range(rows):
        for c in range(cols):
            if r + 1 < rows:
                edges.append((jid(r, c), jid(r + 1, c)))
            if c + 1 < cols:
                edges.append((jid(r, c), jid(r, c + 1)))
    # random spanning tree via randomized union-find pass
    rng.shuffle(edges)
    parent = {j: j for j in junctions}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    tree, rest = [], []
    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            tree.append((u, v))
        else:
            rest.append((u, v))
    extra = max(0, kept_edges - len(tree))
    kept = tree + rest[:extra]
    kept.sort()
    arcs = []
    arc_km: dict[str, float] = {}
    for u, v in kept:
        length = rng.uniform(5.0, 25.0)
        speed = rng.uniform(60.0, 110.0)
        delay = length / speed * 3600.0
        for tail, head in ((u, v), (v, u)):
            aid = f"a_{tail}_{head}"
            arcs.append((aid, tail, head, delay))
            arc_km[aid] = length
    arcs.sort()
    network = VehicularNetwork.build(junctions, arcs)
    routes = _make_routes(
        rng,
        network,
        route_count,
        max_arcs=30,
        flow_spec=("uniform", 0.1, 0.3),
        max_km=200.0,
        arc_km=arc_km,
    )
    return Scenario(
        name="corridor",
        seed=seed,
        network=network,
        routes=routes,
        params=replace(DEFAULT_PARAMS, window_s=72000.0),
        source=jid(rows // 2, cols // 4),
        destination=jid(rows // 2, cols // 4 + 10),
    )
