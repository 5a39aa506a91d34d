"""Independent oracles and small fixture builders shared by the test modules.

The oracles deliberately avoid the library's own traversal and solver code:
sequence enumeration is a plain recursive DFS, path expansion and the
greedy's route pick are direct Cartesian products with a repeated-route
filter, and the LP oracle tries every fill-to-ceiling vertex of the
delivered-energy box, cross-checked by a dense grid search over it. The LP
of a path set has a second oracle: the two-variable LP over delivered energy
and rate, built row by row here and solved with ``linprog``. Its assembly has
a third: the string-keyed build, whose arrays the integer one must equal.
The route walk and the junction-route incidence are checked against their
build over ``Arc`` objects, copied here.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Iterable, Sequence

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from venroute import (
    EnergyParams,
    VehicularNetwork,
    VehicularRoute,
    build_accessibility_graph,
    normalize_routes,
    prune_unreachable,
)
from venroute.energy import PlanEntry, loss_ratio, make_plan, window_cap
from venroute.errors import DomainError, StructuralError
from venroute.network import (
    AccessibilityGraph,
    Arc,
    Junction,
    JunctionSequence,
    RouteId,
    _check_unique,
)


# ---------------------------------------------------------------------------
# route walk / incidence oracle: the walk over ``Arc`` objects and the
# incidence built with ``setdefault``, which the walk over the network's arc
# ends and the incidence built without it must equal, errors included


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
    arcs: list[Arc] = []
    for arc_id in route.arcs:
        a = network.arc_by_id.get(arc_id)
        if a is None:
            raise DomainError(f"route {rid!r}: unknown arc id {arc_id!r}")
        if arcs and arcs[-1].head != a.tail:
            raise StructuralError(
                f"route {rid!r}: arcs {arcs[-1].arc_id!r} and {arc_id!r} are not connected "
                f"({arcs[-1].head} != {a.tail})"
            )
        arcs.append(a)
    return (arcs[0].tail, *[a.head for a in arcs])


def _loop_free_pieces(seq: JunctionSequence) -> list[tuple[int, int]]:
    """(start, end) junction positions of the loop-free pieces of ``seq``.

    The sequence is split at its first junction revisit and the suffix from
    the revisit on is split again. The part before the loop entry is a piece
    when it has an arc; the loop itself is dropped.
    """
    if len(set(seq)) == len(seq):
        return [(0, len(seq) - 1)]
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
        pieces = _loop_free_pieces(seq)
        if not pieces:
            raise StructuralError(f"route {r.route_id!r} is a closed loop: no loop-free piece")
        if pieces == [(0, len(r.arcs))]:
            out.append(r)
            seqs.append(seq)
            continue
        for k, (a, b) in enumerate(pieces, start=1):
            rid = r.route_id if len(pieces) == 1 else f"{r.route_id}.{k}"
            out.append(VehicularRoute(rid, r.arcs[a:b], r.flow))
            seqs.append(seq[a : b + 1])
    _check_unique(r.route_id for r in out)
    return tuple(out), tuple(seqs)


def _incidence(
    routes: Sequence[VehicularRoute], seqs: Sequence[JunctionSequence]
) -> AccessibilityGraph:
    """The incidence of loop-free routes, under unique ids, given their checked sequences."""
    graph = AccessibilityGraph({}, {}, {})
    for k in sorted(range(len(routes)), key=lambda k: routes[k].route_id):
        r, seq = routes[k], seqs[k]
        graph.routes[r.route_id] = r
        graph.seqs[r.route_id] = seq
        for p, j in enumerate(seq):
            graph.visits.setdefault(j, []).append((r.route_id, p))
    return graph


# ---------------------------------------------------------------------------
# sequence / expansion oracles


def oracle_sequences(arcs, s, t):
    """All loop-free s-t junction sequences over the given arc set (recursive DFS)."""
    succ = {}
    for i, j in arcs:
        succ.setdefault(i, set()).add(j)
    out = []

    def walk(node, seq):
        if node == t:
            out.append(tuple(seq))
            return
        for j in sorted(succ.get(node, ())):
            if j not in seq:
                seq.append(j)
                walk(j, seq)
                seq.pop()

    walk(s, [s])
    return set(out)


def oracle_expand(sequences, accessibility):
    """Brute-force Cartesian expansion of sequences into segment tuples.

    Returns the set of (boundaries, route-id tuple) identities after dropping
    combinations that reuse a route.
    """
    out = set()
    for seq in sequences:
        choices = [sorted(accessibility.segments[(i, j)]) for i, j in zip(seq, seq[1:])]
        for combo in itertools.product(*choices):
            if len(set(combo)) == len(combo):
                out.add((tuple(seq), combo))
    return out


def oracle_segments(network, routes):
    """Index sets of every accessibility arc, by the eager loop over each
    route's position pairs: arc -> route id -> 1-based (start, end) arcs.
    """
    segments = {}
    for r in routes:
        seq = _route_sequence(network, r)
        for p in range(len(seq) - 1):
            for q in range(p + 1, len(seq)):
                segments.setdefault((seq[p], seq[q]), {})[r.route_id] = (p + 1, q)
    return segments


def oracle_assign_routes(segments, flows, seq):
    """The greedy's route pick by trying every combination: (route ids, bottleneck).

    Each hop's widest route (ties to the smallest id) when those are distinct;
    otherwise the route-distinct combination of the largest bottleneck, ties
    to the smallest route-id tuple. None when no combination is distinct.
    """
    per_hop = [
        sorted(segments[hop], key=lambda rid: (-flows[rid], rid)) for hop in zip(seq, seq[1:])
    ]
    widest = tuple(rids[0] for rids in per_hop)
    if len(set(widest)) == len(widest):
        return widest, min(flows[rid] for rid in widest)
    distinct = [c for c in itertools.product(*per_hop) if len(set(c)) == len(c)]
    if not distinct:
        return None
    best = min(distinct, key=lambda c: (-min(flows[rid] for rid in c), c))
    return best, min(flows[rid] for rid in best)


# ---------------------------------------------------------------------------
# dense grid-search LP oracle (instances with per-path-independent caps)


def oracle_min_loss(caps, cycles, z, target, resolution=60):
    """Minimum total loss delivering ``target`` with per-path ceilings ``caps``.

    Valid for instances whose paths share no routes or road arcs, so the only
    constraints are 0 <= x_j <= caps[j] and sum(x) >= target. Exhaustively
    checks every assignment that fills a subset of paths to their ceilings
    and routes the remaining energy through one other path (every minimizer
    of a linear objective over this box-with-total region has that shape),
    then cross-checks that no point of a dense grid over the box beats it.
    Returns None if the target exceeds total capacity.
    """
    caps = np.asarray(caps, dtype=float)
    lam = 1.0 / z ** np.asarray(cycles, dtype=float) - 1.0
    if target > caps.sum() + 1e-9:
        return None
    if target <= 0.0:
        return 0.0
    m = len(caps)
    best = np.inf
    for mask in range(2**m):
        full = [j for j in range(m) if mask >> j & 1]
        filled = caps[full].sum()
        base = float((lam[full] * caps[full]).sum())
        rest = target - filled
        if rest <= 0.0:
            best = min(best, base)
            continue
        for j in range(m):
            if j in full:
                continue
            if rest <= caps[j] + 1e-12:
                best = min(best, base + lam[j] * rest)
    # dense grid sanity pass: no sampled feasible point may undercut the
    # vertex minimum (allowing for grid discretization of the total)
    axes = [np.linspace(0.0, caps[k], resolution) for k in range(m)]
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    feasible = pts.sum(axis=1) >= target
    if feasible.any():
        grid_best = float((pts[feasible] @ lam).min())
        if grid_best < best - 1e-9:
            raise AssertionError(
                f"dense grid point {grid_best} undercuts the vertex minimum {best}"
            )
    return float(best)


def oracle_arc_flows(routes):
    """Total EV flow over each road arc some route rides: per arc, the flows of
    the routes that ride it, each route once, added from 0.0 in route order.
    """
    flows = {}
    for arc in {a for r in routes for a in r.arcs}:
        total = 0.0
        for r in routes:
            if arc in r.arcs:
                total += r.flow
        flows[arc] = total
    return flows


def oracle_two_variable_lp(paths, params, arc_flows, target):
    """(status, objective) of the min-loss LP over x_j (delivered) and g_j (rate).

    Rows, built one by one: x_j <= (T - d_j) z^|p_j| g_j, or x_j <= 0 past
    the window; sum of g_j / w over the paths riding a road arc <= its flow;
    sum x_j >= target. Each rate is at most w times the path's bottleneck
    flow. The status is "optimal" or "infeasible"; solved with ``linprog``.
    """
    m, w, z = len(paths), params.packet_kwh, params.efficiency
    if m == 0:
        return ("optimal", 0.0) if target <= 0.0 else ("infeasible", None)
    rows, b = [], []
    for j, p in enumerate(paths):
        row = {j: 1.0}
        if params.window_s > p.delay_s:
            row[m + j] = -(params.window_s - p.delay_s) * z**p.cycles
        rows.append(row)
        b.append(0.0)
    for arc in sorted({a for p in paths for a in p.arc_ids}):
        rows.append({m + j: 1.0 / w for j, p in enumerate(paths) if arc in p.arc_ids})
        b.append(arc_flows.get(arc, 0.0))
    rows.append({j: -1.0 for j in range(m)})
    b.append(-target)
    a_ub = sparse.lil_matrix((len(rows), 2 * m))
    for i, row in enumerate(rows):
        for col, value in row.items():
            a_ub[i, col] = value
    cost = [1.0 / z**p.cycles - 1.0 for p in paths] + [0.0] * m
    bounds = [(0.0, None)] * m + [(0.0, w * p.bottleneck_flow) for p in paths]
    res = linprog(cost, A_ub=a_ub.tocsr(), b_ub=b, bounds=bounds, method="highs",
                  options={"primal_feasibility_tolerance": 1e-10})
    if res.status == 2:
        return "infeasible", None
    if res.status != 0:
        raise AssertionError(f"oracle LP failed: {res.message}")
    return "optimal", float(res.fun)


def oracle_assemble(pathset, params, arc_flows, target_kwh=0.0):
    """The LP of ``pathset`` as string-keyed assembly built it: each path's arc
    ids in one NumPy string array, with ``np.unique`` giving the sorted rows.

    Returns (c, a_ub, b_ub, upper, caps).
    """
    paths = pathset.paths
    w = params.packet_kwh
    m = len(paths)

    caps = np.array([window_cap(p, params) for p in paths])
    c = caps * [loss_ratio(p.cycles, params.efficiency) for p in paths]

    # shared-arc coupling, one row per used road arc in sorted arc order:
    # sum_j g_j / w <= h_a, each path counted once per arc it uses
    arc_ids = np.array([a for p in paths for a in p.arc_ids], dtype=str)
    path_of = np.repeat(np.arange(m), [len(p.arc_ids) for p in paths])
    used_arcs, arc_of = np.unique(arc_ids, return_inverse=True)
    arc_row, arc_col = np.divmod(np.unique(arc_of * m + path_of), m)

    target_row = len(used_arcs)
    ri = np.concatenate([arc_row, np.full(m, target_row)])
    ci = np.concatenate([arc_col, np.arange(m)])
    data = np.concatenate([
        np.full(len(arc_row), 1.0 / w),
        -caps,  # delivery target: -sum cap_j * g_j <= -target
    ])
    a_ub = sparse.csc_matrix((data, (ri, ci)), shape=(target_row + 1, m))
    b_ub = np.concatenate([[arc_flows.get(a, 0.0) for a in used_arcs], [-target_kwh]])

    # a rate is capped by every route it rides, so by the path's bottleneck
    # flow; paths past the window carry nothing, but stay in the instance
    upper = np.where(caps == 0.0, 0.0, [w * p.bottleneck_flow for p in paths])
    return c, a_ub, b_ub, upper, caps


def dense_plan(lp, g):
    """The plan of every column of ``lp`` at solver point ``g``, rates at 0
    included, each clamped at 0 as a dense plan built them.
    """
    return make_plan(
        [
            PlanEntry(path=p, rate=max(0.0, float(g[j])),
                      delivered_kwh=max(0.0, float(lp.caps[j] * g[j])))
            for j, p in enumerate(lp.paths.paths)
        ],
        lp.params,
    )


# ---------------------------------------------------------------------------
# fixture builders


def parallel_paths_instance():
    """Three route-disjoint, arc-disjoint s-t energy paths with 1, 2, 3 cycles.

    Flows and delays are chosen so the per-path ceilings are distinct and no
    path saturates the window.
    """
    junctions = ["s", "m1", "m2", "m3", "t"]
    arcs = [
        ("a_direct", "s", "t", 600.0),
        ("a_s_m1", "s", "m1", 600.0),
        ("a_m1_t", "m1", "t", 600.0),
        ("a_s_m2", "s", "m2", 600.0),
        ("a_m2_m3", "m2", "m3", 600.0),
        ("a_m3_t", "m3", "t", 600.0),
    ]
    network = VehicularNetwork.build(junctions, arcs)
    routes = (
        VehicularRoute("r_direct", ("a_direct",), 0.01),
        VehicularRoute("r_b1", ("a_s_m1",), 0.05),
        VehicularRoute("r_b2", ("a_m1_t",), 0.04),
        VehicularRoute("r_c1", ("a_s_m2",), 0.2),
        VehicularRoute("r_c2", ("a_m2_m3",), 0.3),
        VehicularRoute("r_c3", ("a_m3_t",), 0.25),
    )
    params = EnergyParams(packet_kwh=1.0, charge_eff=0.9, discharge_eff=1.0, window_s=18000.0)
    return network, routes, params, "s", "t"


def random_instance(seed, n_max=6, density=0.45, route_len=3, route_count=10):
    """Seeded small random road network + simple routes + an s-t pair.

    Built directly (not via the library's scenario generator) so the
    enumeration oracles run on independently constructed inputs.
    """
    rng = random.Random(seed)
    n = rng.randint(3, n_max)
    junctions = [f"n{k}" for k in range(n)]
    arcs = []
    for i in junctions:
        for j in junctions:
            if i != j and rng.random() < density:
                arcs.append((f"a_{i}_{j}", i, j, rng.uniform(60.0, 1200.0)))
    network = VehicularNetwork.build(junctions, arcs)
    by_tail = {}
    for a in network.arcs:
        by_tail.setdefault(a.tail, []).append(a)
    routes = []
    for k in range(route_count):
        here = rng.choice(junctions)
        visited = {here}
        picked = []
        for _ in range(rng.randint(1, route_len)):
            options = [a for a in by_tail.get(here, []) if a.head not in visited]
            if not options:
                break
            arc = rng.choice(options)
            picked.append(arc.arc_id)
            visited.add(arc.head)
            here = arc.head
        if picked:
            routes.append(VehicularRoute(f"r{k:02d}", tuple(picked), rng.uniform(0.05, 0.3)))
    s, t = rng.sample(junctions, 2)
    return network, tuple(routes), s, t


def reversed_reuse_instance(with_spare=True, second=None):
    """Fewest-hop sequence s-a-b-t whose first and last hops share only route R.

    R runs b-t-x-s-a, so it realizes both (s, a) and (b, t) but never s..t.
    Without the spare route R2 on (b, t), no distinct-route pick exists.

    ``second`` adds a second fewest-hop sequence. "mirror" adds s-d-e-t, as
    wide as s-a-b-t and with no distinct-route pick either: route P runs
    e-t-y-s-d. "narrow" adds s-a-a2-t over two routes of flow 0.1, which is
    workable, narrower than s-a-b-t, and first in order.
    """
    junctions = ["a", "b", "s", "t", "x"]
    arcs = [
        ("sa", "s", "a", 60.0),
        ("ab", "a", "b", 60.0),
        ("bt", "b", "t", 60.0),
        ("tx", "t", "x", 60.0),
        ("xs", "x", "s", 60.0),
    ]
    routes = [
        VehicularRoute("R", ("bt", "tx", "xs", "sa"), 0.5),
        VehicularRoute("Q", ("ab",), 0.3),
    ]
    if with_spare:
        routes.append(VehicularRoute("R2", ("bt",), 0.2))
    if second == "mirror":
        junctions += ["d", "e", "y"]
        arcs += [("sd", "s", "d", 60.0), ("de", "d", "e", 60.0), ("et", "e", "t", 60.0),
                 ("ty", "t", "y", 60.0), ("ys", "y", "s", 60.0)]
        routes += [VehicularRoute("P", ("et", "ty", "ys", "sd"), 0.5),
                   VehicularRoute("O", ("de",), 0.3)]
    elif second == "narrow":
        junctions.append("a2")
        arcs += [("aa2", "a", "a2", 60.0), ("a2t", "a2", "t", 60.0)]
        routes += [VehicularRoute("N1", ("aa2",), 0.1), VehicularRoute("N2", ("a2t",), 0.1)]
    return VehicularNetwork.build(junctions, arcs), routes


def crowded_reuse_instance():
    """``reversed_reuse_instance``'s roads, where R shares each hop with 30 one-arc routes.

    Hop (s, a) has R and A00..A29 of flow 0.1 + k/1000, hop (a, b) B00..B29 of
    flow 0.3, hop (b, t) R and C00..C29 of flow 0.2 - k/1000: 28,830 route
    combinations. The widest routes put R on two hops; the widest distinct pick
    is R, B00, C00.
    """
    network, _ = reversed_reuse_instance(with_spare=False)
    routes = [VehicularRoute("R", ("bt", "tx", "xs", "sa"), 0.5)]
    for k in range(30):
        routes += [
            VehicularRoute(f"A{k:02d}", ("sa",), 0.1 + k / 1000),
            VehicularRoute(f"B{k:02d}", ("ab",), 0.3),
            VehicularRoute(f"C{k:02d}", ("bt",), 0.2 - k / 1000),
        ]
    return network, routes


def prepared(network, routes, t):
    """Normalize, build accessibility, and prune toward t (test-side shorthand)."""
    norm = normalize_routes(network, routes)
    acc = build_accessibility_graph(network, norm)
    pruned, blocked = prune_unreachable(network, acc, t)
    return norm, acc, pruned, blocked
