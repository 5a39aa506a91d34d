"""Path enumeration: counting bounds, exhaustive expansion, bounded sampling."""

import copy
import dataclasses
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from venroute import (
    ConsistencyError,
    DomainError,
    EnergyParams,
    EnergyPath,
    EnumerationCapError,
    Instance,
    Scenario,
    StructuralError,
    VehicularNetwork,
    VehicularRoute,
    build_accessibility_graph,
    build_energy_path,
    enumerate_bounded,
    enumerate_paths,
    enumerate_sequences,
    expand_to_paths,
    f_bound,
    f_closed_bound,
    generate_corridor,
    generate_grid,
    generate_random,
)
import venroute.pathenum as pathenum
from venroute.network import _Successors
from venroute.pathenum import (
    DEFAULT_CAP,
    _combo_paths,
    _count,
    _count_distinct,
    _live_successors,
    _SpanTable,
)

from helpers import oracle_expand, oracle_sequences, path_key, prepared, random_instance


def no_span(*args, **kwargs):
    raise AssertionError("counting must not build a segment span")


class TestCountingBounds:
    def test_recurrence_values(self):
        assert [f_bound(n) for n in range(1, 6)] == [1, 2, 5, 16, 65]
        assert f_bound(0) == 0
        assert f_bound(-3) == 0
        assert f_closed_bound(0) == 0.0

    def test_recurrence_identity(self):
        for n in range(2, 12):
            assert f_bound(n) == 1 + (n - 1) * f_bound(n - 1)

    def test_closed_bound_dominates(self):
        for n in range(1, 12):
            assert f_bound(n) <= f_closed_bound(n)
            assert f_closed_bound(n) == pytest.approx(math.factorial(n - 1) * math.e)


def complete_digraph_instance(n):
    """Complete road digraph on n junctions, one single-arc route per arc.

    The accessibility graph is then the complete digraph with singleton index
    sets, so energy paths coincide with junction sequences.
    """
    junctions = [f"n{k}" for k in range(n)]
    arcs = []
    routes = []
    for i in junctions:
        for j in junctions:
            if i != j:
                aid = f"a_{i}_{j}"
                arcs.append((aid, i, j, 60.0))
                routes.append(VehicularRoute(f"r_{i}_{j}", (aid,), 0.1))
    network = VehicularNetwork.build(junctions, arcs)
    return network, tuple(routes)


def chain_with_through_route():
    """Road chain s -> m -> t: one route per arc plus one route along both.

    A fourth route drives the road m -> s back to the source.
    """
    network = VehicularNetwork.build(
        ["s", "m", "t"],
        [("sm", "s", "m", 60.0), ("mt", "m", "t", 90.0), ("ms", "m", "s", 60.0)],
    )
    routes = (
        VehicularRoute("r1", ("sm",), 0.1),
        VehicularRoute("r2", ("mt",), 0.2),
        VehicularRoute("r3", ("sm", "mt"), 0.3),
        VehicularRoute("r4", ("ms",), 0.1),
    )
    norm, acc, _, _ = prepared(network, routes, "t")
    return network, norm, acc


class TestSequences:
    def test_complete_digraph_counts(self):
        for n in range(3, 7):
            network, routes = complete_digraph_instance(n)
            norm, acc, pruned, _ = prepared(network, routes, f"n{n-1}")
            seqs = enumerate_sequences(pruned, "n0", f"n{n-1}")
            assert len(seqs) == f_bound(n - 1)

    def test_matches_oracle_on_random_instances(self):
        for seed in range(40):
            network, routes, s, t = random_instance(seed)
            norm, acc, pruned, _ = prepared(network, routes, t)
            got = set(enumerate_sequences(pruned, s, t))
            assert got == oracle_sequences(pruned, s, t)

    def test_sorted_lexicographically(self):
        network, routes = complete_digraph_instance(4)
        norm, acc, pruned, _ = prepared(network, routes, "n3")
        seqs = enumerate_sequences(pruned, "n0", "n3")
        assert list(seqs) == sorted(seqs)

    def test_same_endpoints_rejected(self):
        with pytest.raises(DomainError):
            enumerate_sequences(frozenset(), "x", "x")

    def test_cap_enforced(self):
        network, routes = complete_digraph_instance(6)
        norm, acc, pruned, _ = prepared(network, routes, "n5")
        with pytest.raises(EnumerationCapError):
            enumerate_sequences(pruned, "n0", "n5", cap=10)

    def test_cap_counts_partial_sequences(self):
        # complete plus partial sequences exceed a cap equal to the final count
        sc = generate_random(8, 0.4, 3, 24, seed=0)
        arcs = Instance(sc).accessibility.arcs
        assert len(enumerate_sequences(arcs, sc.source, sc.destination)) == 35
        with pytest.raises(EnumerationCapError):
            enumerate_sequences(arcs, sc.source, sc.destination, cap=35)

    def test_cap_fails_fast_on_a_blow_up(self):
        sc = generate_corridor(rows=6, cols=15, kept_edges=110, route_count=300, seed=0)
        arcs = Instance(sc).accessibility.arcs
        with pytest.raises(EnumerationCapError):
            enumerate_sequences(arcs, sc.source, sc.destination, cap=10_000)


class TestExpansion:
    def test_matches_brute_force_on_random_instances(self):
        for seed in range(40):
            network, routes, s, t = random_instance(seed)
            norm, acc, pruned, _ = prepared(network, routes, t)
            seqs = enumerate_sequences(pruned, s, t)
            ps = expand_to_paths(seqs, acc, network, norm)
            got = {(p.boundaries, tuple(r for r, _, _ in p.segments)) for p in ps.paths}
            assert got == oracle_expand(seqs, acc)
            table = _SpanTable(acc, network, {r.route_id: r for r in norm})
            assert _count(seqs, table, DEFAULT_CAP) == len(ps.paths)
            # field for field, every expanded path is the one build_energy_path
            # derives from its segments
            routes_by_id = {r.route_id: r for r in norm}
            for p in ps.paths:
                ref = build_energy_path(network, routes_by_id, p.segments, s, t)
                for f in dataclasses.fields(EnergyPath):
                    assert getattr(p, f.name) == getattr(ref, f.name), f.name
            by_key = {path_key(p): p for p in ps.paths}
            for limit in (1, 3, 8):
                sub = enumerate_bounded(pruned, s, t, acc, network, norm, limit=limit, seed=seed)
                assert all(p == by_key[path_key(p)] for p in sub.paths)

    def test_paths_sorted_canonically(self):
        network, routes, s, t = random_instance(7)
        norm, acc, pruned, _ = prepared(network, routes, t)
        ps = enumerate_paths(pruned, s, t, acc, network, norm)
        keys = [path_key(p) for p in ps.paths]
        assert keys == sorted(keys)

    def test_cap_enforced(self):
        network, routes = complete_digraph_instance(6)
        norm, acc, pruned, _ = prepared(network, routes, "n5")
        with pytest.raises(EnumerationCapError):
            enumerate_paths(pruned, "n0", "n5", acc, network, norm, cap=20)

    def test_cap_is_exact(self):
        network, routes = complete_digraph_instance(5)
        norm, acc, pruned, _ = prepared(network, routes, "n4")
        seqs = enumerate_sequences(pruned, "n0", "n4")
        count = len(expand_to_paths(seqs, acc, network, norm).paths)
        assert len(expand_to_paths(seqs, acc, network, norm, cap=count).paths) == count
        with pytest.raises(EnumerationCapError):
            expand_to_paths(seqs, acc, network, norm, cap=count - 1)
        table = _SpanTable(acc, network, {r.route_id: r for r in norm})
        assert _count(seqs, table, count) == count
        with pytest.raises(EnumerationCapError, match=f"exceeded the cap of {count - 1}"):
            _count(seqs, table, count - 1)

    def test_repeated_sequence_rejected(self):
        network, norm, acc = chain_with_through_route()
        seqs = enumerate_sequences(acc.arcs, "s", "t")
        count = len(expand_to_paths(seqs, acc, network, norm).paths)
        with pytest.raises(ConsistencyError):
            expand_to_paths(seqs + seqs[:1], acc, network, norm)
        # a set already at the cap reports the cap first
        with pytest.raises(EnumerationCapError):
            expand_to_paths(seqs + seqs[:1], acc, network, norm, cap=count)

    @pytest.mark.parametrize("seq", [("s", "m", "s", "t"), ("s",)])
    def test_malformed_sequence_rejected(self, seq):
        # a junction repeats, or there is no segment at all
        network, norm, acc = chain_with_through_route()
        with pytest.raises(StructuralError):
            expand_to_paths([seq], acc, network, norm)

    @pytest.mark.parametrize(
        "arc, rid, span",
        [
            (("s", "m"), "r3", (2, 2)),  # runs m -> t, not s -> m
            (("s", "m"), "r1", (1, 2)),  # r1 has one arc
        ],
    )
    def test_corrupted_segment_rejected(self, arc, rid, span, monkeypatch):
        network, norm, acc = chain_with_through_route()
        bad = copy.copy(acc)
        corrupt = {rid: span}
        object.__setattr__(
            bad, "index_set", lambda i, j: {**acc.index_set(i, j), **(corrupt if (i, j) == arc else {})}
        )
        seqs = enumerate_sequences(acc.arcs, "s", "t")
        with pytest.raises(StructuralError, match="runs from m to t|out of range") as expanded:
            expand_to_paths(seqs, bad, network, norm)
        # counting rejects it with the same message from the checked route ids, building no span
        table = _SpanTable(bad, network, {r.route_id: r for r in norm})
        with monkeypatch.context() as m, pytest.raises(StructuralError) as counted:
            m.setattr(pathenum, "segment_span", no_span)
            _count(seqs, table, DEFAULT_CAP)
        assert str(counted.value) == str(expanded.value)
        with pytest.raises(StructuralError):
            enumerate_bounded(acc.arcs, "s", "t", bad, network, norm, limit=10, seed=0)
        # an instance keeps no half-built entry for a sequence that failed: every sample raises
        params = EnergyParams(packet_kwh=1.0, charge_eff=0.9, discharge_eff=1.0, window_s=18000.0)
        inst = Instance(Scenario("chain", 0, network, norm, params, "s", "t"))
        inst.accessibility = bad
        for seed in (0, 0, 1):
            with pytest.raises(StructuralError):
                inst.sample(10, seed)

    def test_multi_route_arcs_multiply(self):
        # two routes realize the same accessibility arc -> two paths per hop choice
        junctions = ["s", "t"]
        arcs = [("st", "s", "t", 60.0)]
        network = VehicularNetwork.build(junctions, arcs)
        routes = (
            VehicularRoute("r1", ("st",), 0.1),
            VehicularRoute("r2", ("st",), 0.2),
        )
        norm, acc, pruned, _ = prepared(network, routes, "t")
        ps = enumerate_paths(pruned, "s", "t", acc, network, norm)
        assert len(ps.paths) == 2
        assert {p.bottleneck_flow for p in ps.paths} == {0.1, 0.2}


class TestBounded:
    def test_subset_of_full_enumeration(self):
        for seed in range(10):
            network, routes, s, t = random_instance(seed)
            norm, acc, pruned, _ = prepared(network, routes, t)
            full = enumerate_paths(pruned, s, t, acc, network, norm)
            full_ids = {(p.boundaries, p.segments) for p in full.paths}
            sub = enumerate_bounded(pruned, s, t, acc, network, norm, limit=3, seed=seed)
            assert len(sub.paths) <= 3
            assert {(p.boundaries, p.segments) for p in sub.paths} <= full_ids

    def test_deterministic_per_seed(self):
        network, routes, s, t = random_instance(11)
        norm, acc, pruned, _ = prepared(network, routes, t)
        a = enumerate_bounded(pruned, s, t, acc, network, norm, limit=5, seed=3)
        b = enumerate_bounded(pruned, s, t, acc, network, norm, limit=5, seed=3)
        assert a == b

    def test_complete_flag_exact_without_detour_bound(self, monkeypatch):
        # a slack past any loop-free sequence's length never prunes a branch
        monkeypatch.setattr(pathenum, "DETOUR_SLACK", 10**9)
        for seed in range(10):
            network, routes, s, t = random_instance(seed)
            norm, acc, pruned, _ = prepared(network, routes, t)
            full = enumerate_paths(pruned, s, t, acc, network, norm)
            sub = enumerate_bounded(
                pruned, s, t, acc, network, norm, limit=len(full.paths) + 1, seed=0
            )
            assert sub.complete
            assert {(p.boundaries, p.segments) for p in sub.paths} == {
                (p.boundaries, p.segments) for p in full.paths
            }
            if full.paths:
                short = enumerate_bounded(
                    pruned, s, t, acc, network, norm, limit=len(full.paths), seed=0
                )
                # hitting the limit exactly still leaves the set complete only
                # if nothing was cut; a smaller limit must flag truncation
                assert short.complete and len(short.paths) == len(full.paths)
                if len(full.paths) > 1:
                    cut = enumerate_bounded(
                        pruned, s, t, acc, network, norm, limit=len(full.paths) - 1, seed=0
                    )
                    assert not cut.complete
                    assert len(cut.paths) == len(full.paths) - 1

    def test_limit_validated(self):
        network, routes, s, t = random_instance(2)
        norm, acc, pruned, _ = prepared(network, routes, t)
        with pytest.raises(DomainError):
            enumerate_bounded(pruned, s, t, acc, network, norm, limit=0, seed=0)
        with pytest.raises(DomainError, match="source and destination must differ"):
            enumerate_bounded(pruned, s, s, acc, network, norm, limit=5, seed=0)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_sequence_count_never_exceeds_f_bound(seed):
    network, routes, s, t = random_instance(seed, n_max=6)
    norm, acc, pruned, _ = prepared(network, routes, t)
    seqs = enumerate_sequences(pruned, s, t)
    assert len(seqs) <= f_bound(len(network.junctions) - 1)


def assert_incidence_successors_match_the_arcs(acc, junctions, t):
    """The successors and hops derived from the incidence equal those of its arcs."""
    hops = acc.levels(acc.routes, t, None, forward=False)
    want_succ, want_hops = _live_successors(acc.arcs, t)
    assert hops == want_hops
    succ = _Successors(acc, hops)
    assert [succ[j] for j in junctions] == [want_succ[j] for j in junctions]


def without_flow(sc):
    """The scenario with every third route's flow set to zero."""
    routes = tuple(
        dataclasses.replace(r, flow=0.0) if k % 3 == 0 else r for k, r in enumerate(sc.routes)
    )
    return dataclasses.replace(sc, routes=routes)


@pytest.mark.parametrize(
    "make",
    [
        lambda: generate_grid(4, 4, 10.0, 60.0, 20, ("const", 0.1), seed=4),
        lambda: generate_grid(4, 4, 10.0, 60.0, 20, ("uniform", 0.1, 0.3), seed=47),
        lambda: generate_corridor(rows=6, cols=15, kept_edges=110, route_count=300, seed=0),
        # a route without flow still realizes its arcs
        lambda: without_flow(generate_grid(4, 4, 10.0, 60.0, 20, ("const", 0.1), seed=47)),
    ],
    ids=["grid4", "grid47", "corridor-small", "grid47-some-routes-without-flow"],
)
def test_instance_successors_match_the_arc_set(make):
    sc = make()
    inst = Instance(sc)
    succ, hops = inst.live_successors
    junctions = sorted(sc.network.junctions)
    want_succ, want_hops = _live_successors(inst.accessibility.arcs, sc.destination)
    assert hops == want_hops
    # every junction, read in an order no enumerator follows
    assert [succ[j] for j in reversed(junctions)] == [want_succ[j] for j in reversed(junctions)]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=3, max_value=10),
    st.floats(min_value=0.05, max_value=1.0),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=30),
    st.integers(min_value=0, max_value=10**6),
)
def test_incidence_successors_match_the_arc_set_on_generated_scenarios(
    n, density, cap, count, seed
):
    sc = generate_random(n, density, cap, count, seed)
    acc = Instance(sc).accessibility
    junctions = sorted(sc.network.junctions)
    for t in junctions:
        assert_incidence_successors_match_the_arcs(acc, junctions, t)


def combo_outcome(seqs, acc, network, routes, cap):
    """_count's outcome with each count drawn from the pairs ``_combo_paths``
    yields: the path count, or the cap error's message.
    """
    table = _SpanTable(acc, network, {r.route_id: r for r in routes})
    total = 0
    for seq in seqs:
        total += sum(1 for _ in _combo_paths(seq, table))
        if total > cap:
            return f"path expansion exceeded the cap of {cap}: at least {total} paths"
    return total


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=3, max_value=8),
    st.floats(min_value=0.2, max_value=1.0),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=25),
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from(["as-is", "reversed"]),
    st.sampled_from([1, 2, 5, 20, 10**6]),
)
def test_count_matches_the_combination_generator(
    n, density, route_cap, count, seed, order, cap
):
    sc = generate_random(n, density, route_cap, count, seed)
    inst = Instance(sc)
    try:
        seqs = enumerate_sequences(inst.accessibility.arcs, sc.source, sc.destination, cap=2000)
    except EnumerationCapError:
        return
    seqs = {"as-is": seqs, "reversed": seqs[::-1]}[order]
    try:
        got = _count(seqs, inst.span_table, cap)
    except EnumerationCapError as exc:
        got = str(exc)
    assert got == combo_outcome(seqs, inst.accessibility, sc.network, inst.routes, cap)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sets(st.sampled_from("abcdef")).map(sorted).map(tuple), max_size=6))
def test_distinct_route_count_matches_brute_force(route_sets):
    want = sum(1 for c in itertools.product(*route_sets) if len(set(c)) == len(c))
    assert _count_distinct(route_sets) == want


@pytest.mark.parametrize(
    "route_sets, want",
    [
        ([], 1),
        ([()], 0),
        ([("a", "b"), (), ("a",)], 0),
        ([("a", "b"), ("c",)], 2),
        # "a" recurs two sets later: 2*1*2 picks, less the 1 that takes "a" twice
        ([("a", "b"), ("c",), ("a", "d")], 3),
        # "a" in three sets: 2*2*2 picks, less the 4 that take "a" more than once
        ([("a", "b"), ("a", "c"), ("a", "d")], 4),
        ([("a",), ("a",), ("a",)], 0),
    ],
    ids=[
        "no-sets", "one-empty-set", "empty-set-among-shared", "no-shared-route",
        "recurs-non-adjacent", "in-three-sets", "only-one-route",
    ],
)
def test_distinct_route_count_exact_cases(route_sets, want):
    assert _count_distinct(route_sets) == want


def test_routes_lacking_a_route_of_the_graph_is_a_domain_error():
    # every span lookup checks the arc's route ids first, so no raw KeyError escapes
    sc = generate_grid(4, 4, 10.0, 60.0, 20, ("uniform", 0.1, 0.3), seed=47)
    routes, acc, pruned, _blocked = prepared(sc.network, sc.routes, sc.destination)
    s, t, net = sc.source, sc.destination, sc.network
    seqs = enumerate_sequences(pruned, s, t)
    calls = [
        lambda: expand_to_paths(seqs, acc, net, routes[1:]),
        lambda: enumerate_paths(pruned, s, t, acc, net, routes[1:]),
        lambda: enumerate_bounded(pruned, s, t, acc, net, routes[1:], limit=20, seed=0),
    ]
    assert routes[0].route_id == "r01"
    for call in calls:
        with pytest.raises(DomainError, match="no route 'r01' given for the accessibility graph"):
            call()


def test_count_on_an_instance_with_many_shared_route_states():
    # far more sequences, and routes shared along them, than the growth study's instances
    sc = generate_random(
        n_junctions=14, road_density=0.2, route_length_cap=4, route_count=56, seed=1
    )
    inst = Instance(sc)
    seqs = enumerate_sequences(inst.accessibility.arcs, sc.source, sc.destination)
    assert len(seqs) == 6234
    assert _count(seqs, inst.span_table, DEFAULT_CAP * 100) == 24_370_995
    with pytest.raises(EnumerationCapError):
        _count(seqs, inst.span_table, DEFAULT_CAP)
