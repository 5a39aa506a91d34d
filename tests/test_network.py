"""Road network, route normalization, accessibility graph, and pruning."""

import gc
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from venroute import (
    DomainError,
    EnergyParams,
    StructuralError,
    VehicularNetwork,
    VehicularRoute,
    build_accessibility_graph,
    generate_corridor,
    generate_random,
    heuristic_min_loss,
    normalize_routes,
    prune_unreachable,
)
from venroute.network import _incidence, _route_sequence, _walk_routes

from helpers import _incidence as oracle_incidence
from helpers import _walk_routes as oracle_walk_routes
from helpers import oracle_segments, random_instance


def line_network(n=4, delay=600.0):
    junctions = [f"n{k}" for k in range(n)]
    arcs = [
        (f"a{k}", junctions[k], junctions[k + 1], delay) for k in range(n - 1)
    ]
    return VehicularNetwork.build(junctions, arcs)


class TestVehicularNetwork:
    def test_build_and_lookups(self):
        net = line_network()
        assert net.arc_by_id["a0"].head == "n1"
        assert net.successors["n0"] == ("n1",)
        assert net.predecessors["n0"] == ()

    def test_undeclared_junction_rejected(self):
        with pytest.raises(StructuralError):
            VehicularNetwork.build(["x"], [("a", "x", "ghost", 1.0)])
        with pytest.raises(StructuralError, match="undeclared tail junction 'ghost'"):
            VehicularNetwork.build(["x"], [("a", "ghost", "x", 1.0)])

    def test_nonpositive_delay_rejected(self):
        with pytest.raises(StructuralError):
            VehicularNetwork.build(["x", "y"], [("a", "x", "y", 0.0)])

    def test_duplicate_arc_id_rejected(self):
        with pytest.raises(StructuralError):
            VehicularNetwork.build(
                ["x", "y", "z"],
                [("a", "x", "y", 1.0), ("a", "y", "z", 1.0)],
            )

    def test_parallel_road_rejected(self):
        with pytest.raises(StructuralError):
            VehicularNetwork.build(
                ["x", "y"],
                [("a", "x", "y", 1.0), ("b", "x", "y", 2.0)],
            )


class TestRoutes:
    def test_junction_sequence(self):
        net = line_network()
        r = VehicularRoute("r", ("a0", "a1"), 0.1)
        assert _route_sequence(net, r) == ("n0", "n1", "n2")

    def test_disconnected_route_rejected(self):
        net = line_network()
        with pytest.raises(StructuralError):
            normalize_routes(net, [VehicularRoute("r", ("a0", "a2"), 0.1)])

    def test_unknown_arc_rejected(self):
        net = line_network()
        with pytest.raises(DomainError):
            normalize_routes(net, [VehicularRoute("r", ("zz",), 0.1)])

    def test_empty_route_rejected(self):
        net = line_network()
        with pytest.raises(StructuralError):
            normalize_routes(net, [VehicularRoute("r", (), 0.1)])

    def test_negative_flow_rejected(self):
        net = line_network()
        with pytest.raises(StructuralError):
            normalize_routes(net, [VehicularRoute("r", ("a0",), -0.1)])

    @pytest.mark.parametrize("flow", [float("nan"), float("inf")])
    def test_non_finite_flow_rejected(self, flow):
        net = line_network()
        with pytest.raises(StructuralError):
            normalize_routes(net, [VehicularRoute("r", ("a0",), flow)])

    def test_duplicate_route_id_rejected(self):
        net = line_network()
        routes = [VehicularRoute("r", ("a0",), 0.1), VehicularRoute("r", ("a1",), 0.2)]
        with pytest.raises(StructuralError, match="duplicate route id"):
            normalize_routes(net, routes)

    def test_split_piece_colliding_with_route_id_rejected(self):
        net = looped_network()
        routes = [
            VehicularRoute("r1", ("rp", "pq", "qp", "pq"), 0.1),  # r1.1 and r1.2
            VehicularRoute("r1.1", ("qr",), 0.2),
        ]
        with pytest.raises(StructuralError, match="duplicate route id"):
            normalize_routes(net, routes)


def looped_network():
    junctions = ["p", "q", "r"]
    arcs = [
        ("pq", "p", "q", 1.0),
        ("qr", "q", "r", 1.0),
        ("rp", "r", "p", 1.0),
        ("qp", "q", "p", 1.0),
    ]
    return VehicularNetwork.build(junctions, arcs)


class TestNormalization:
    def test_loop_free_route_passes_through(self):
        net = line_network()
        r = VehicularRoute("r", ("a0", "a1"), 0.1)
        assert normalize_routes(net, [r]) == (r,)

    def test_pure_cycle_has_no_loop_free_pieces(self):
        net = looped_network()
        # p -> q -> r -> p: no prefix before the loop entry and nothing after
        # the loop exit, so nothing survives normalization and its flow would vanish
        with pytest.raises(StructuralError, match="'r' is a closed loop"):
            normalize_routes(net, [VehicularRoute("r", ("pq", "qr", "rp"), 0.1)])

    def test_loop_collapses_to_suffix(self):
        net = looped_network()
        # p -> q -> p -> q: the leading p-q-p loop is cut, the tail remains
        (piece,) = normalize_routes(net, [VehicularRoute("r", ("pq", "qp", "pq"), 0.2)])
        assert piece.route_id == "r"
        assert piece.arcs == ("pq",)
        assert piece.flow == 0.2

    def test_revisit_splits_into_two(self):
        net = looped_network()
        # r -> p -> q -> p -> q: prefix before the loop entry plus the tail
        out = normalize_routes(net, [VehicularRoute("r", ("rp", "pq", "qp", "pq"), 0.2)])
        assert [x.route_id for x in out] == ["r.1", "r.2"]
        assert out[0].arcs == ("rp",)
        assert out[1].arcs == ("pq",)
        assert all(x.flow == 0.2 for x in out)

    def test_idempotent(self):
        net = looped_network()
        once = normalize_routes(net, [VehicularRoute("r", ("pq", "qp", "pq"), 0.2)])
        assert normalize_routes(net, once) == once


class TestAccessibilityGraph:
    def test_pairs_and_index_sets(self):
        net = line_network()
        r1 = VehicularRoute("r1", ("a0", "a1"), 0.1)
        r2 = VehicularRoute("r2", ("a1", "a2"), 0.2)
        acc = build_accessibility_graph(net, [r1, r2])
        assert acc.arcs == {
            ("n0", "n1"),
            ("n0", "n2"),
            ("n1", "n2"),
            ("n1", "n3"),
            ("n2", "n3"),
        }
        assert set(acc.segments[("n1", "n2")]) == {"r1", "r2"}
        # 1-based inclusive sub-route arc indices
        assert acc.segments[("n0", "n2")]["r1"] == (1, 2)
        assert acc.segments[("n1", "n3")]["r2"] == (1, 2)

    def test_looped_route_rejected(self):
        net = looped_network()
        with pytest.raises(StructuralError):
            build_accessibility_graph(net, [VehicularRoute("r", ("pq", "qp", "pq"), 0.1)])

    def test_duplicate_route_id_rejected(self):
        net = line_network()
        routes = [VehicularRoute("r", ("a0",), 0.1), VehicularRoute("r", ("a0", "a1"), 0.2)]
        with pytest.raises(StructuralError, match="duplicate route id 'r'"):
            build_accessibility_graph(net, routes)

    def test_matches_pairwise_oracle_on_random_instances(self):
        for seed in range(30):
            network, routes, _s, _t = random_instance(seed)
            assert_matches_oracle(network, normalize_routes(network, routes))

    def test_closed_loop_route_rejected(self):
        # normalization rejects a route that is one closed loop, and so does
        # the incidence: every route in it visits each junction once
        net = looped_network()
        closed = VehicularRoute("r", ("pq", "qr", "rp"), 0.1)
        with pytest.raises(StructuralError, match="'r' revisits junction 'p'"):
            build_accessibility_graph(net, [closed])
        with pytest.raises(StructuralError, match="'r' is a closed loop"):
            normalize_routes(net, [closed])

    def test_matches_pairwise_oracle_on_the_reduced_corridor(self):
        sc = generate_corridor(rows=6, cols=15, kept_edges=110, route_count=300, seed=0)
        assert_matches_oracle(sc.network, normalize_routes(sc.network, sc.routes))


def assert_matches_oracle(network, routes):
    """Check the graph's arcs, segments and every index set against the eager loop."""
    acc = build_accessibility_graph(network, routes)
    expected = oracle_segments(network, routes)
    assert acc.arcs == set(expected)
    assert acc.segments == expected
    pairs = [(i, j) for i in network.junctions for j in network.junctions]
    assert {(i, j): acc.index_set(i, j) for i, j in pairs if acc.index_set(i, j)} == expected
    return acc


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=3, max_value=10),
    st.floats(min_value=0.05, max_value=1.0),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=30),
    st.integers(min_value=0, max_value=10**6),
)
def test_graph_matches_pairwise_oracle_on_generated_scenarios(n, density, cap, count, seed):
    sc = generate_random(n, density, cap, count, seed)
    assert_matches_oracle(sc.network, normalize_routes(sc.network, sc.routes))


LINE = VehicularNetwork.build(
    ["a", "b", "c"], [("ab", "a", "b", 60.0), ("bc", "b", "c", 60.0)]
)
ENTRY_POINTS = (
    lambda routes: build_accessibility_graph(LINE, routes),
    lambda routes: heuristic_min_loss(
        LINE, routes, EnergyParams(1.0, 0.9, 1.0, 18000.0), 1.0, "a", "c"
    ),
)


@pytest.mark.parametrize(
    "routes, error, match",
    [
        ([VehicularRoute("r", ("ab",), 0.1), VehicularRoute("r", ("ab", "bc"), 0.2)],
         StructuralError, "duplicate route id 'r'"),
        ([VehicularRoute("r", (), 0.1)], StructuralError, "empty arc sequence"),
        ([VehicularRoute("r", ("ab", "zz"), 0.1)], DomainError, "unknown arc id 'zz'"),
        ([VehicularRoute("r", ("bc", "ab"), 0.1)], StructuralError, "not connected"),
        # within a route, the first bad arc names the error
        ([VehicularRoute("r", ("ab", "ab", "zz"), 0.1)], StructuralError, "not connected"),
        ([VehicularRoute("r", ("ab", "zz", "ab"), 0.1)], DomainError, "unknown arc id 'zz'"),
        ([VehicularRoute("r", ("ab", "bc"), float("nan"))], StructuralError, "flow must be"),
        ([VehicularRoute("r", ("ab", "bc"), -0.1)], StructuralError, "flow must be"),
    ],
    ids=[
        "duplicate-id", "empty", "unknown-arc", "disconnected", "gap-then-unknown",
        "unknown-then-gap", "nan-flow", "negative-flow",
    ],
)
def test_bad_routes_rejected_where_they_enter(routes, error, match):
    # every method's routes enter through the accessibility graph
    for enter in ENTRY_POINTS:
        with pytest.raises(error, match=match):
            enter(routes)


class TestPruning:
    def test_drops_arcs_into_dead_ends(self):
        junctions = ["s", "u", "v", "t"]
        arcs = [
            ("su", "s", "u", 1.0),
            ("ut", "u", "t", 1.0),
            ("sv", "s", "v", 1.0),  # v has no way to t
        ]
        net = VehicularNetwork.build(junctions, arcs)
        routes = [
            VehicularRoute("r1", ("su", "ut"), 0.1),
            VehicularRoute("r2", ("sv",), 0.1),
        ]
        acc = build_accessibility_graph(net, routes)
        pruned, blocked = prune_unreachable(net, acc, "t")
        assert blocked == {"v"}
        assert ("s", "v") not in pruned
        assert ("s", "t") in pruned and ("s", "u") in pruned

    def test_unknown_destination_raises(self):
        net = line_network()
        acc = build_accessibility_graph(net, [VehicularRoute("r", ("a0",), 0.1)])
        with pytest.raises(DomainError):
            prune_unreachable(net, acc, "ghost")


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_normalization_idempotent_on_random_instances(seed):
    network, routes, _s, _t = random_instance(seed)
    once = normalize_routes(network, routes)
    assert normalize_routes(network, once) == once
    # every normalized route is loop-free
    for r in once:
        seq = _route_sequence(network, r)
        assert len(set(seq)) == len(seq)


# a triangle p-q-r with a side loop r-s-q and an exit q-u-p: routes over it
# repeat junctions, close loops and split into pieces
WALK_NET = VehicularNetwork.build(
    ["p", "q", "r", "s", "u"],
    [
        ("pq", "p", "q", 60.0), ("qr", "q", "r", 60.0), ("rp", "r", "p", 60.0),
        ("rs", "r", "s", 60.0), ("sq", "s", "q", 60.0), ("qu", "q", "u", 60.0),
        ("up", "u", "p", 60.0),
    ],
)
# "a" splits into "a.1", "a.2", ..., which sort after "a-b" and may collide with "a.1"
WALK_ROUTE_IDS = ["a", "a-b", "a.1", "b", "a.2", "c", "d", "e"]


@st.composite
def walked_routes(draw):
    """Routes that follow the roads; with faults on, unknown ids, gaps, empty
    routes and bad flows are mixed in.
    """
    faults = draw(st.booleans())
    arc_ids = sorted(WALK_NET.arc_by_id)
    routes = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        rid = draw(st.sampled_from(WALK_ROUTE_IDS))
        flows = [0.1, 0.25, 0.0] + ([math.nan, -0.1, math.inf] if faults else [])
        flow = draw(st.sampled_from(flows))
        here = draw(st.sampled_from(sorted(WALK_NET.junctions)))
        arcs = []
        for _ in range(draw(st.integers(min_value=0 if faults else 1, max_value=5))):
            kind = draw(st.sampled_from(["follow"] * 8 + (["jump", "unknown"] if faults else [])))
            if kind == "follow":
                arc = draw(st.sampled_from([a.arc_id for a in WALK_NET.arcs if a.tail == here]))
            elif kind == "jump":
                arc = draw(st.sampled_from(arc_ids))
            else:
                arc = "zz"
            arcs.append(arc)
            if arc in WALK_NET.arc_by_id:
                here = WALK_NET.arc_by_id[arc].head
        routes.append(VehicularRoute(rid, tuple(arcs), flow))
    return routes


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except (DomainError, StructuralError) as e:
        return type(e), str(e)


@settings(max_examples=300, deadline=None)
@given(walked_routes())
def test_walk_and_incidence_match_the_walk_over_arc_objects(routes):
    want = _outcome(oracle_walk_routes, WALK_NET, routes)
    got = _outcome(_walk_routes, WALK_NET, routes)
    assert got == want
    if want[0] == "ok":
        expected, graph = oracle_incidence(*want[1]), _incidence(*got[1])
        for name in ("routes", "seqs"):
            assert list(getattr(graph, name).items()) == list(getattr(expected, name).items())
        # same junction order and, within each junction, the same route order
        as_lists = lambda g: [(j, list(m.items())) for j, m in g.visits.items()]
        assert as_lists(graph) == as_lists(expected)
        assert all(graph.seqs[rid][p] == j for j, m in graph.visits.items() for rid, p in m.items())
        assert sum(map(len, graph.visits.values())) == sum(map(len, graph.seqs.values()))


def test_incidence_allocates_nothing_per_visit():
    # gc.get_count()[0] is CPython's young-generation count (3.10-3.13): it
    # rises with each object the collector tracks and falls when one is freed.
    # A (route id, position) tuple per visit would lift it above the visits,
    # but up to 2,000 of them can come from the tuple free list uncounted, so
    # the bound is one object per junction, plus a few for the graph itself.
    sc = generate_corridor(rows=6, cols=15, kept_edges=110, route_count=300, seed=0)
    routes, seqs = _walk_routes(sc.network, sc.routes)
    n_visits = sum(map(len, seqs))
    gc.disable()
    try:
        before = gc.get_count()[0]
        graph = _incidence(routes, seqs)
        grown = gc.get_count()[0] - before
    finally:
        gc.enable()
    assert len(graph.visits) + 16 < n_visits - 2000
    assert grown < len(graph.visits) + 16, (grown, len(graph.visits), n_visits)
