"""Greedy min-cycle heuristic: path picking, commitment, and termination."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import venroute.heuristic as heuristic
from venroute import (
    DomainError,
    EnergyParams,
    Instance,
    StructuralError,
    VehicularNetwork,
    VehicularRoute,
    build_accessibility_graph,
    generate_corridor,
    generate_grid,
    generate_random,
    heuristic_min_loss,
    normalize_routes,
    plan_totals,
)

from helpers import (
    crowded_reuse_instance,
    oracle_assign_routes,
    parallel_paths_instance,
    reversed_reuse_instance,
)

PARAMS = EnergyParams(packet_kwh=1.0, charge_eff=0.9, discharge_eff=1.0, window_s=18000.0)


def diamond(flow_a=0.1, flow_b=0.1):
    junctions = ["a", "b", "s", "t"]
    arcs = [
        ("sa", "s", "a", 60.0),
        ("at", "a", "t", 60.0),
        ("sb", "s", "b", 60.0),
        ("bt", "b", "t", 60.0),
    ]
    net = VehicularNetwork.build(junctions, arcs)
    routes = (
        VehicularRoute("ra1", ("sa",), flow_a),
        VehicularRoute("ra2", ("at",), flow_a),
        VehicularRoute("rb1", ("sb",), flow_b),
        VehicularRoute("rb2", ("bt",), flow_b),
    )
    return net, routes


def first_path(network, routes, s="s", t="t"):
    """The greedy's first committed path, as its boundary junctions."""
    res = heuristic_min_loss(network, list(routes), PARAMS, 1e-3, s, t)
    return res.plan.entries[0].path.boundaries


class TestMinHopSequence:
    def test_prefers_fewest_hops(self):
        net, routes = diamond()
        net2 = VehicularNetwork.build(
            ["a", "b", "s", "t"],
            [
                ("sa", "s", "a", 60.0),
                ("at", "a", "t", 60.0),
                ("sb", "s", "b", 60.0),
                ("bt", "b", "t", 60.0),
                ("st", "s", "t", 60.0),
            ],
        )
        routes2 = routes + (VehicularRoute("rd", ("st",), 0.01),)
        assert first_path(net2, routes2) == ("s", "t")

    def test_tie_breaks_by_bottleneck_flow(self):
        net, routes = diamond(flow_a=0.1, flow_b=0.3)
        assert first_path(net, routes) == ("s", "b", "t")

    def test_equal_flows_tie_break_lexicographic(self):
        net, routes = diamond(flow_a=0.2, flow_b=0.2)
        assert first_path(net, routes) == ("s", "a", "t")

    def test_unreachable_commits_no_path(self):
        net, routes = diamond()
        res = heuristic_min_loss(net, list(routes), PARAMS, 1e-3, "t", "s")
        assert res.plan.entries == () and res.stop_reason == "no-path"


class TestHeuristic:
    def test_zero_target(self):
        network, routes, params, s, t = parallel_paths_instance()
        res = heuristic_min_loss(network, list(routes), params, 0.0, s, t)
        assert res.status == "success"
        assert res.delivered_kwh == 0.0 and res.loss_kwh == 0.0
        assert res.paths_used == 0

    def test_small_target_single_min_cycle_path(self):
        network, routes, params, s, t = parallel_paths_instance()
        res = heuristic_min_loss(network, list(routes), params, 100.0, s, t)
        assert res.status == "success"
        assert res.paths_used == 1
        entry = res.plan.entries[0]
        assert entry.path.cycles == 1
        assert entry.delivered_kwh == pytest.approx(100.0)
        # residual rate: exactly the target over the window capacity
        assert entry.rate == pytest.approx(100.0 / ((18000.0 - 600.0) * 0.9))
        assert res.loss_kwh == pytest.approx(100.0 * (1 / 0.9 - 1))

    def test_exact_ceiling_uses_one_path(self):
        network, routes, params, s, t = parallel_paths_instance()
        ceiling = (18000.0 - 600.0) * 0.9 * 0.01  # direct path: 156.6 kWh
        res = heuristic_min_loss(network, list(routes), params, ceiling, s, t)
        assert res.status == "success"
        assert res.paths_used == 1
        assert res.delivered_kwh == pytest.approx(ceiling)
        assert res.plan.entries[0].rate == pytest.approx(0.01)

    def test_spillover_to_next_cycle_count(self):
        network, routes, params, s, t = parallel_paths_instance()
        res = heuristic_min_loss(network, list(routes), params, 200.0, s, t)
        assert res.status == "success"
        assert res.paths_used == 2
        assert [e.path.cycles for e in res.plan.entries] == [1, 2]
        first, second = res.plan.entries
        assert first.delivered_kwh == pytest.approx(156.6)
        assert second.delivered_kwh == pytest.approx(43.4)
        expected_loss = 156.6 * (1 / 0.9 - 1) + 43.4 * (1 / 0.81 - 1)
        assert res.loss_kwh == pytest.approx(expected_loss)
        assert res.delivered_kwh == pytest.approx(200.0)

    def test_infeasible_returns_partial_plan(self):
        network, routes, params, s, t = parallel_paths_instance()
        # total capacity across the three disjoint paths is 3062.88 kWh
        res = heuristic_min_loss(network, list(routes), params, 5000.0, s, t)
        assert res.status == "infeasible"
        assert res.delivered_kwh == pytest.approx(156.6 + 544.32 + 2361.96)
        assert res.paths_used == 3
        delivered, loss = plan_totals(res.plan)
        assert delivered == pytest.approx(res.delivered_kwh)
        assert loss == pytest.approx(res.loss_kwh)

    def test_saturated_route_not_reused(self):
        network, routes, params, s, t = parallel_paths_instance()
        res = heuristic_min_loss(network, list(routes), params, 600.0, s, t)
        assert res.status == "success"
        used = [tuple(r for r, _, _ in e.path.segments) for e in res.plan.entries]
        # the direct route saturates in the first entry and never reappears
        assert used[0] == ("r_direct",)
        assert all("r_direct" not in seq for seq in used[1:])

    def test_shared_route_index_matches_fresh_calls(self):
        # targets A, B, A over one graph, where B exhausts every route: a
        # later call sees none of the flow an earlier one used up
        sc = generate_corridor(rows=6, cols=15, kept_edges=110, route_count=300, seed=0)
        net, params, s, t = sc.network, sc.params, sc.source, sc.destination
        routes = normalize_routes(net, sc.routes)
        acc = build_accessibility_graph(net, routes)
        initial = {rid: r.flow for rid, r in acc.routes.items()}
        results = []
        for target in (16000.0, 1e6, 16000.0):
            shared = heuristic._Trajectory(acc, net, params, s, t).result(target)
            assert shared == heuristic_min_loss(net, list(routes), params, target, s, t)
            results.append(shared)
        assert [r.status for r in results] == ["success", "infeasible", "success"]
        assert results[0].paths_used > 1
        assert {rid: r.flow for rid, r in acc.routes.items()} == initial

    def test_invalid_inputs(self):
        network, routes, params, s, t = parallel_paths_instance()
        with pytest.raises(DomainError):
            heuristic_min_loss(network, list(routes), params, -1.0, s, t)
        with pytest.raises(DomainError):
            heuristic_min_loss(network, list(routes), params, 1.0, s, s)
        with pytest.raises(DomainError):
            heuristic_min_loss(network, list(routes), params, 1.0, "ghost", t)

    def test_looped_route_rejected(self):
        net = VehicularNetwork.build(
            ["p", "q"], [("pq", "p", "q", 60.0), ("qp", "q", "p", 60.0)]
        )
        looped = VehicularRoute("r", ("pq", "qp", "pq"), 0.1)
        msg = r"route 'r' revisits junction 'p'; route is not loop-free"
        with pytest.raises(StructuralError, match=msg):
            heuristic_min_loss(net, [looped], PARAMS, 1.0, "p", "q")

    @pytest.mark.parametrize("target", [float("nan"), float("inf")])
    def test_non_finite_target_rejected(self, target):
        network, routes, params, s, t = parallel_paths_instance()
        with pytest.raises(DomainError):
            heuristic_min_loss(network, list(routes), params, target, s, t)

    def test_loss_replays_through_plan_totals(self):
        network, routes, params, s, t = parallel_paths_instance()
        for target in (50.0, 300.0, 1000.0, 2500.0):
            res = heuristic_min_loss(network, list(routes), params, target, s, t)
            delivered, loss = plan_totals(res.plan)
            assert delivered == pytest.approx(res.delivered_kwh, abs=1e-9)
            assert loss == pytest.approx(res.loss_kwh, abs=1e-9)


class TestDistinctRouteAssignment:
    def test_interleaved_route_forces_alternative_pick(self):
        # one route covers both hops of the min-hop sequence; a valid path
        # needs distinct routes per hop, so the heuristic must mix routes
        junctions = ["s", "m", "t"]
        arcs = [("sm", "s", "m", 60.0), ("mt", "m", "t", 60.0)]
        net = VehicularNetwork.build(junctions, arcs)
        routes = (
            VehicularRoute("rboth", ("sm", "mt"), 0.5),
            VehicularRoute("rhalf", ("mt",), 0.2),
        )
        res = heuristic_min_loss(net, list(routes), PARAMS, 10.0, "s", "t")
        assert res.status == "success"
        entry = res.plan.entries[0]
        rids = tuple(r for r, _, _ in entry.path.segments)
        # single segment via rboth spanning both arcs wins (fewest hops = 1)
        assert rids == ("rboth",)

    def test_two_hop_assignment_needs_distinct_routes(self):
        junctions = ["s", "m", "t"]
        arcs = [("sm", "s", "m", 60.0), ("mt", "m", "t", 60.0)]
        net = VehicularNetwork.build(junctions, arcs)
        # no single route covers s..t, and the only m-crossing pair must differ
        routes = (
            VehicularRoute("r1", ("sm",), 0.5),
            VehicularRoute("r2", ("mt",), 0.2),
        )
        res = heuristic_min_loss(net, list(routes), PARAMS, 10.0, "s", "t")
        assert res.status == "success"
        rids = tuple(r for r, _, _ in res.plan.entries[0].path.segments)
        assert rids == ("r1", "r2")


class TestStopReason:
    @pytest.mark.parametrize(
        "target, status, reason",
        [(0.0, "success", "target-met"), (200.0, "success", "target-met"),
         (5000.0, "infeasible", "no-path")],
    )
    def test_target_met_or_routes_exhausted(self, target, status, reason):
        network, routes, params, s, t = parallel_paths_instance()
        res = heuristic_min_loss(network, list(routes), params, target, s, t)
        assert (res.status, res.stop_reason) == (status, reason)

    def test_distinct_routes_found_by_product_search(self):
        net, routes = reversed_reuse_instance()
        res = heuristic_min_loss(net, routes, PARAMS, 10.0, "s", "t")
        assert res.status == "success" and res.stop_reason == "target-met"
        assert tuple(r for r, _, _ in res.plan.entries[0].path.segments) == ("R", "Q", "R2")

    def test_many_route_combinations_are_no_cap(self):
        # 28,830 combinations, and the widest routes collide: the pick is exact
        net, routes = crowded_reuse_instance()
        res = heuristic_min_loss(net, routes, PARAMS, 100.0, "s", "t")
        assert res.status == "success" and res.stop_reason == "target-met"
        rids = tuple(r for r, _, _ in res.plan.entries[0].path.segments)
        assert rids == ("R", "B00", "C00")

    def test_no_distinct_pick_is_no_path(self):
        net, routes = reversed_reuse_instance(with_spare=False)
        res = heuristic_min_loss(net, routes, PARAMS, 10.0, "s", "t")
        assert res.status == "infeasible" and res.stop_reason == "no-path"

    def test_sequence_cap_reported(self, monkeypatch):
        net, routes = reversed_reuse_instance(with_spare=False, second="mirror")
        res = heuristic_min_loss(net, routes, PARAMS, 10.0, "s", "t")
        assert res.status == "infeasible" and res.stop_reason == "no-path"
        # two fewest-hop sequences do not fit under a cap of 1
        monkeypatch.setattr(heuristic, "_SEQUENCE_FALLBACK_CAP", 1)
        res = heuristic_min_loss(net, routes, PARAMS, 10.0, "s", "t")
        assert res.status == "infeasible" and res.stop_reason == "combination-cap"

    def test_cut_scan_is_a_cap_verdict(self, monkeypatch):
        # the workable sequence comes first, but a cut list may miss a wider one
        net, routes = reversed_reuse_instance(with_spare=False, second="narrow")
        res = heuristic_min_loss(net, routes, PARAMS, 10.0, "s", "t")
        assert res.status == "success"
        assert res.plan.entries[0].path.boundaries == ("s", "a", "a2", "t")
        monkeypatch.setattr(heuristic, "_SEQUENCE_FALLBACK_CAP", 1)
        res = heuristic_min_loss(net, routes, PARAMS, 10.0, "s", "t")
        assert res.status == "infeasible" and res.stop_reason == "combination-cap"
        assert res.paths_used == 0


@pytest.mark.parametrize(
    "make, targets",
    [
        (lambda: generate_grid(4, 4, 10.0, 60.0, 20, ("const", 0.1), seed=4), (1.0, 200.0)),
        (lambda: generate_grid(4, 4, 10.0, 60.0, 20, ("uniform", 0.1, 0.3), seed=47),
         (1.0, 500.0, 2457.0, 2900.0)),
    ],
    ids=["grid4", "grid47"],
)
def test_greedy_paths_are_the_enumerated_paths(make, targets):
    # a greedy path rides the routes themselves, so its bottleneck flow is the
    # least flow of those routes even after an earlier path spent some of it
    inst = Instance(make())
    enumerated = {p.sort_key(): p for p in inst.paths().paths}
    for target in targets:
        for entry in inst.greedy(target).plan.entries:
            assert entry.path == enumerated[entry.path.sort_key()]


@pytest.mark.parametrize(
    "target, loss, entries",
    [(2000.0, 1048.3158, 1), (5000.0, 2620.7895, 1), (10000.0, 5458.1935, 3)],
)
def test_corridor_greedy_matches_reference(target, loss, entries):
    # the corridor-seed-0 figures that bench/reference.json records for method III
    sc = generate_corridor(seed=0)
    routes = normalize_routes(sc.network, sc.routes)
    res = heuristic_min_loss(
        sc.network, list(routes), sc.params, target, sc.source, sc.destination
    )
    assert res.status == "success"
    assert res.loss_kwh == pytest.approx(loss, rel=1e-6)
    assert res.paths_used == entries


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=12),
    density=st.floats(min_value=0.1, max_value=1.0),
    length_cap=st.integers(min_value=1, max_value=5),
    route_count=st.integers(min_value=0, max_value=40),
    seed=st.integers(min_value=0, max_value=10**6),
    spent=st.integers(min_value=2, max_value=5),
)
def test_banded_search_keeps_exactly_the_fewest_hop_dag(
    n, density, length_cap, route_count, seed, spent
):
    # the search from t keeps a junction only at a level that puts it on a
    # fewest-hop s-t walk; the unbanded search keeps every junction, and the
    # DAG is read off both distances
    sc = generate_random(n, density, length_cap, route_count, seed)
    s, t = sc.source, sc.destination
    acc = build_accessibility_graph(sc.network, normalize_routes(sc.network, sc.routes))
    # as the greedy runs, spent routes drop out of the flows it searches
    every = {rid: r.flow for rid, r in acc.routes.items()}
    left = {rid: f for k, (rid, f) in enumerate(sorted(every.items())) if k % spent}
    for flows in (every, left):
        dist_s = heuristic._levels(acc, flows, s, t, forward=True)
        if t not in dist_s:
            assert heuristic._shortest_dag(acc, flows, s, t) is None
            continue
        hops = dist_s[t]
        dist_t = heuristic._levels(acc, flows, t, s, forward=False)
        want = {j: d for j, d in dist_s.items() if dist_t.get(j, hops + 1) + d == hops}
        banded = heuristic._levels(acc, flows, t, s, forward=False, band=dist_s)
        got = {j: d for j, d in dist_s.items() if j in banded}
        assert list(got.items()) == list(want.items())
        assert banded == {j: dist_t[j] for j in want}
        segments = acc.climbing_index_sets(want, flows)
        assert heuristic._shortest_dag(acc, flows, s, t) == (
            segments, heuristic.adjacency(segments), dist_s
        )


@pytest.mark.parametrize("seed", [74, 285, 329, 335, 340])
def test_fallback_picks_the_widest_workable_fewest_hop_sequence(seed, monkeypatch):
    # the widest fewest-hop sequence has no route-distinct assignment, and
    # another fewest-hop sequence has one: the pick must be the widest
    # workable sequence (ties to the first in order), as a brute force finds
    sc = generate_random(8, 0.4, 4, 20, seed=seed)
    pick, scan = heuristic._pick_path, heuristic._sequences
    calls = []

    def spy_pick(acc, flows, s, t):
        calls.append({"args": (acc, dict(flows), s, t), "fallback": False})
        calls[-1]["picked"] = pick(acc, flows, s, t)
        return calls[-1]["picked"]

    def spy_scan(succ, s, t, cap):
        calls[-1]["fallback"] = True
        return scan(succ, s, t, cap)

    monkeypatch.setattr(heuristic, "_pick_path", spy_pick)
    monkeypatch.setattr(heuristic, "_sequences", spy_scan)
    Instance(sc).greedy(1e6)
    rescued = [c for c in calls if c["fallback"] and not isinstance(c["picked"], str)]
    assert rescued
    for call in rescued:
        acc, flows, s, t = call["args"]
        segments, dag, _ = heuristic._shortest_dag(acc, flows, s, t)
        seqs = scan(dag, s, t, 10**6)
        workable = [
            (min(flows[rid] for rid in combo), seq)
            for seq in seqs
            for combo in itertools.product(*(segments[hop] for hop in zip(seq, seq[1:])))
            if len(set(combo)) == len(combo)
        ]
        width = max(w for w, _ in workable)
        seq, path_segments, delta = call["picked"]
        assert (delta, seq) == (width, min(q for w, q in workable if w == width))
        rids = [rid for rid, _, _ in path_segments]
        assert len(set(rids)) == len(rids)
        assert min(flows[rid] for rid in rids) == delta


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_route_pick_matches_the_product_search(data):
    # few flow levels, so bottlenecks and widest routes tie often
    rids = [f"r{k}" for k in range(data.draw(st.integers(min_value=1, max_value=7)))]
    flows = {rid: data.draw(st.sampled_from([0.1, 0.2, 0.3, 0.5])) for rid in rids}
    seq = tuple(f"j{k}" for k in range(data.draw(st.integers(min_value=2, max_value=6))))
    segments = {
        hop: {rid: (1, 1) for rid in data.draw(
            st.lists(st.sampled_from(rids), min_size=1, max_size=4, unique=True)
        )}
        for hop in zip(seq, seq[1:])
    }
    assert heuristic._assign_routes(segments, flows, seq) == oracle_assign_routes(
        segments, flows, seq
    )


def greedy_calls(monkeypatch, name, scenarios):
    """(arguments, result) of every ``heuristic.<name>`` call over full greedy
    runs on ``scenarios``, dicts copied as they were at the call.
    """
    real, calls = getattr(heuristic, name), []

    def spy(*args):
        copied = tuple(dict(a) if isinstance(a, dict) else a for a in args)
        calls.append((copied, real(*args)))
        return calls[-1][1]

    monkeypatch.setattr(heuristic, name, spy)
    for sc in scenarios:
        Instance(sc).greedy(1e9)
    return calls


def random_scenarios():
    return [generate_random(10, 0.35, 5, 30, seed) for seed in range(200)]


def test_greedy_route_picks_match_the_product_search(monkeypatch):
    calls = greedy_calls(monkeypatch, "_assign_routes", random_scenarios())
    collided = 0
    for (segments, flows, seq), picked in calls:
        widest = [min(segments[hop], key=lambda r: (-flows[r], r)) for hop in zip(seq, seq[1:])]
        collided += len(set(widest)) < len(widest)
        assert picked == oracle_assign_routes(segments, flows, seq)
    assert collided  # the picks past the widest-route shortcut are covered


def test_a_route_serves_two_fewest_hop_hops_in_reverse_order(monkeypatch):
    # a route serving hop (i, j) and a later hop (k, l) visits k, l, i, j: were i
    # before l on it, (i, l) would be a hop and the sequence not fewest-hop
    shared = 0
    for (acc, flows, s, t), _ in greedy_calls(monkeypatch, "_pick_path", random_scenarios()):
        found = heuristic._shortest_dag(acc, flows, s, t)
        if found is None:
            continue
        segments, dag, _ = found
        for seq in heuristic._sequences(dag, s, t, 10**6):
            hops = list(zip(seq, seq[1:]))
            for a, (i, j) in enumerate(hops):
                for k, l in hops[a + 1 :]:
                    for rid in segments[i, j].keys() & segments[k, l].keys():
                        pos = {junction: p for p, junction in enumerate(acc.seqs[rid])}
                        assert pos[k] < pos[l] < pos[i] < pos[j]
                        shared += 1
    assert shared
