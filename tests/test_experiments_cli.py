"""Experiment drivers and the command-line front end."""

import gc
import hashlib
import os
import threading
import weakref
from collections import Counter

import pytest

from venroute import (
    ConsistencyError,
    DomainError,
    EnergyParams,
    Instance,
    LossMinProblem,
    Scenario,
    StructuralError,
    energy,
    experiments,
    enumerate_bounded,
    enumerate_paths,
    enumerate_sequences,
    expand_to_paths,
    generate_corridor,
    generate_grid,
    generate_random,
    heuristic,
    heuristic_min_loss,
    network,
    normalize_routes,
    pathenum,
    plan_totals,
    prepare,
    rateopt,
    run_compare,
    run_growth,
    save_scenario,
    solve_min_loss,
)
from venroute.cli import EXIT_ERROR, EXIT_INFEASIBLE, EXIT_OK, main
from venroute.experiments import COMPARE_HEADER, GROWTH_HEADER

from helpers import reversed_reuse_instance


@pytest.fixture(scope="module")
def small_scenario():
    return generate_grid(4, 4, 10.0, 60.0, 20, ("const", 0.1), seed=4)


class TestRunCompare:
    def test_table_structure_and_methods(self, small_scenario):
        table = run_compare(
            small_scenario, targets=[1.0, 200.0], subset_seeds=range(3)
        )
        assert {r.method for r in table.rows} == {"I", "II", "III"}
        assert {r.target_kwh for r in table.rows} == {1.0, 200.0}
        csv = table.to_csv()
        lines = csv.strip().split("\n")
        assert lines[0] == COMPARE_HEADER
        assert len(lines) == 1 + 6
        # timings are blank unless requested, so output is run-stable
        assert all(line.endswith(",") for line in lines[1:])
        timed = table.to_csv(include_timings=True).strip().split("\n")
        assert not any(line.endswith(",") for line in timed[1:])

    def test_rows_sorted(self, small_scenario):
        table = run_compare(small_scenario, targets=[200.0, 1.0], methods=("III", "I"))
        keys = [(r.target_kwh, r.method) for r in table.sorted_rows()]
        assert keys == sorted(keys)

    def test_losses_replay(self, small_scenario):
        table = run_compare(small_scenario, targets=[100.0], subset_seeds=range(2))
        for row in table.rows:
            if row.status == "optimal":
                assert row.loss_kwh is not None and row.loss_kwh >= 0.0
                assert row.delivered_kwh >= 100.0 - 1e-6

    def test_infeasible_target_rows(self, small_scenario):
        table = run_compare(
            small_scenario, targets=[10**6], methods=("I", "III"), subset_seeds=range(1)
        )
        assert {r.status for r in table.rows} == {"infeasible"}

    def test_enumeration_cap_reported_in_row(self, small_scenario):
        table = run_compare(
            small_scenario, targets=[1.0], methods=("I",), enumeration_cap=5
        )
        (row,) = table.rows
        assert row.status == "error:enumeration-cap"
        assert row.loss_kwh is None


@pytest.mark.parametrize(
    "kwargs, argv",
    [
        (dict(methods=("IV",)), ["--methods", "IV"]),
        (dict(methods=("I", "IV")), ["--methods", "I,IV"]),
        (dict(methods=("I", "I")), ["--methods", "I,I"]),
        (dict(methods=()), ["--methods", ""]),
        (dict(targets=[]), ["--targets", ""]),
        (dict(subset_seeds=[]), ["--subset-seeds", ""]),
        (dict(targets=[1.0, -1.0]), ["--targets", "1,-1"]),
        (dict(targets=[float("nan")]), ["--targets", "nan"]),
        (dict(targets=[1.0, float("inf")]), ["--targets", "1,inf"]),
        (dict(targets=[1.0, 1.0]), ["--targets", "1,1"]),
        (dict(targets=[1.0, 1.0], methods=("III",)), ["--targets", "1,1", "--methods", "III"]),
        (dict(subset_seeds=[0, 1, 0]), ["--subset-seeds", "0,1,0"]),
        (dict(subset_limit=0), ["--subset-limit", "0"]),
        (dict(enumeration_cap=0), ["--cap", "0"]),
        (dict(enumeration_cap=-1, methods=("I",)), ["--cap", "-1", "--methods", "I"]),
        # a knob is checked whether or not a requested method reads it
        (dict(subset_limit=0, methods=("III",)), ["--subset-limit", "0", "--methods", "III"]),
        (dict(subset_limit=-2, methods=("I",)), ["--subset-limit", "-2", "--methods", "I"]),
        (dict(enumeration_cap=0, methods=("II", "III")), ["--cap", "0", "--methods", "II,III"]),
    ],
    ids=[
        "unknown", "one-unknown", "repeated", "no-methods", "no-targets", "no-subset-seeds",
        "negative-target", "nan-target", "inf-target", "repeated-target",
        "repeated-target-method-iii", "repeated-subset-seed", "zero-subset-limit", "zero-cap",
        "negative-cap", "zero-subset-limit-method-iii", "negative-subset-limit-method-i",
        "zero-cap-methods-ii-iii",
    ],
)
def test_malformed_sweep_is_an_error(kwargs, argv, small_scenario, tmp_path, capsys, monkeypatch):
    scen, out = tmp_path / "grid.txt", tmp_path / "table.csv"
    main(["gen-grid", "--seed", "4", "--flow", "const:0.1", "--out", str(scen)])
    # rejected before any work: no instance is made
    monkeypatch.setattr(experiments, "Instance", refuse)
    with pytest.raises(DomainError):
        run_compare(small_scenario, **{"targets": [1.0], **kwargs})
    argv = ["compare", "--scenario", str(scen), "--targets", "1", *argv, "--out", str(out)]
    assert main(argv) == EXIT_ERROR
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def per_call_rows(sc, targets, methods, limit, seeds):
    """run_compare's rows, less wall_ms, from one public call per seed and target."""
    routes, acc, pruned = prepare(sc)
    net, s, t = sc.network, sc.source, sc.destination

    def solve(pathset, target):
        return solve_min_loss(LossMinProblem(pathset, sc.params, net, tuple(routes), target))

    full = enumerate_paths(pruned, s, t, acc, net, routes) if "I" in methods else None
    subsets = [
        enumerate_bounded(pruned, s, t, acc, net, routes, limit=limit, seed=seed)
        for seed in seeds
    ] if "II" in methods else []
    rows = []
    for target in targets:
        if "I" in methods:
            sol = solve(full, target)
            if sol.status == "optimal":
                delivered, loss = plan_totals(sol.plan)
                rows.append((target, "I", "optimal", loss, delivered, len(sol.plan.entries)))
            else:
                rows.append((target, "I", "infeasible", None, None, None))
        if "II" in methods:
            solved = [
                (*plan_totals(sol.plan), len(ps.paths))
                for ps in subsets
                if (sol := solve(ps, target)).status == "optimal"
            ]
            if solved:
                n = len(solved)
                rows.append((
                    target, "II", "optimal", sum(loss for _, loss, _ in solved) / n,
                    sum(d for d, _, _ in solved) / n, sum(k for _, _, k in solved) / n,
                ))
            else:
                rows.append((target, "II", "infeasible", None, None, None))
        if "III" in methods:
            h = heuristic_min_loss(net, list(routes), sc.params, target, s, t)
            if h.status == "success":
                rows.append((target, "III", "optimal", h.loss_kwh, h.delivered_kwh, h.paths_used))
            else:
                rows.append((target, "III", "infeasible", None, None, None))
    return rows


# the paper's grids and a reduced corridor; the last target of each is
# infeasible for every method
PARITY_CASES = {
    "grid4": (
        lambda: generate_grid(4, 4, 10.0, 60.0, 20, ("const", 0.1), seed=4),
        (200.0, 1e5), ("II", "III"), 50, range(20),
    ),
    "grid47": (
        lambda: generate_grid(4, 4, 10.0, 60.0, 20, ("uniform", 0.1, 0.3), seed=47),
        (1.0, 500.0, 2457.0, 2900.0, 1e5), ("I", "II", "III"), 50, range(5),
    ),
    "corridor-small": (
        lambda: generate_corridor(rows=6, cols=15, kept_edges=110, route_count=300, seed=0),
        (200.0, 500.0, 16000.0, 1e6), ("II", "III"), 30, range(4),
    ),
}


@pytest.mark.parametrize("case", list(PARITY_CASES))
def test_sweep_equals_per_call_functions(case, monkeypatch):
    # the sweep derives its structures once and assembles and solves each
    # distinct subset once; the public functions derive them on every call
    # and solve every seed's subset, and both must give the same rows exactly
    make, targets, methods, limit, seeds = PARITY_CASES[case]
    sc = make()
    solves = []
    run_highs = rateopt._run_highs
    monkeypatch.setattr(rateopt, "_run_highs", lambda *a: solves.append(1) or run_highs(*a))
    table = run_compare(sc, targets, methods, subset_limit=limit, subset_seeds=seeds)
    n_solves = len(solves)
    got = [
        (r.target_kwh, r.method, r.status, r.loss_kwh, r.delivered_kwh, r.paths_used)
        for r in table.rows
    ]
    assert got == per_call_rows(sc, targets, methods, limit, seeds)
    assert {r.status for r in table.rows if r.target_kwh == targets[-1]} == {"infeasible"}
    routes, acc, pruned = prepare(sc)
    s, t = sc.source, sc.destination
    subsets = {
        enumerate_bounded(pruned, s, t, acc, sc.network, routes, limit=limit, seed=seed)
        for seed in seeds
    } if "II" in methods else set()
    assert n_solves == len(targets) * (("I" in methods) + len(subsets))
    if case == "grid4":
        assert n_solves == 7 * 2  # the 20 seeds draw 7 distinct subsets


def test_one_highs_model_per_distinct_lp_and_one_alive_at_a_time(monkeypatch):
    # grid 4's sweep builds one model for method I's LP and one for each of
    # the 7 distinct subsets that its 20 seeds draw, each freed before the next
    from scipy.optimize._highspy import _core as highs

    built, alive, most_alive = [], [], []

    class Counted(highs._Highs):
        def __init__(self):
            super().__init__()
            built.append(1)
            alive.append(1)
            most_alive.append(len(alive))

        def __del__(self):
            alive.pop()

    monkeypatch.setattr(highs, "_Highs", Counted)
    sc = generate_grid(4, 4, 10.0, 60.0, 20, ("const", 0.1), seed=4)
    for methods, models in ((("I",), 1), (("II",), 7), (("I", "II", "III"), 1 + 7)):
        built.clear()
        run_compare(sc, (1.0, 200.0), methods)
        assert len(built) == models
        assert max(most_alive) == 1 and alive == []


def test_method_i_frees_its_lp_and_paths_before_method_ii_draws(monkeypatch, small_scenario):
    # each method is swept and its LPs freed before the next draws, so method
    # I's LP and its full path set are gone when method II samples
    kept, at_first_sample = [], []
    paths, lp, sample = Instance.paths, Instance.lp, Instance.sample

    def keep(make):
        def made(self, *args):
            kept.append(weakref.ref(out := make(self, *args)))
            return out
        return made

    def first_sample(self, *args):
        if not at_first_sample:
            at_first_sample.append([ref() is None for ref in kept])
        return sample(self, *args)

    monkeypatch.setattr(Instance, "paths", keep(paths))
    monkeypatch.setattr(Instance, "lp", keep(lp))
    monkeypatch.setattr(Instance, "sample", first_sample)
    run_compare(small_scenario, (1.0, 200.0), ("I", "II"))
    assert at_first_sample == [[True, True]]
    assert len(kept) == 2 + 7  # and one LP per distinct subset


def test_method_i_counts_its_plan_entries_and_a_plan_drops_round_off(tmp_path):
    # at its capacity, one column of this instance's full LP sits at the
    # solver's round-off (rate 7e-16 kWh/s, 7.7e-12 kWh): neither the plan nor
    # the plan CSV holds it, and method I's paths used count the plan's entries
    sc = generate_random(8, 0.35, 4, 24, seed=55)
    inst = Instance(sc)
    full = inst.paths()
    top = rateopt.max_deliverable(LossMinProblem(full, sc.params, sc.network, inst.routes, 0.0))
    plan = inst.lp(full).solve(top).plan
    assert not [e for e in plan.entries if e.rate <= 1e-12 and e.delivered_kwh <= 1e-9]
    [row] = run_compare(sc, (top,), ("I",)).rows
    assert row.status == "optimal"
    assert row.paths_used == len(plan.entries) == 8
    path, out = tmp_path / "rand55.txt", tmp_path / "plan.csv"
    save_scenario(sc, str(path))
    argv = ["solve", "--scenario", str(path), "--method", "I", "--target", repr(top)]
    assert main([*argv, "--out", str(out)]) == EXIT_OK
    assert len(out.read_text().splitlines()) == 1 + 8 + 2  # header, entries, total and loss


def test_pruning_leaves_the_live_successor_map_unchanged():
    # both enumerators keep only junctions that reach t over accessibility
    # arcs, which follow roads, so the drivers skip pruning
    scenarios = [
        generate_random(n, density, 3, 2 * n, seed)
        for n in (5, 8, 10) for density in (0.2, 0.35, 0.5) for seed in range(20)
    ]
    scenarios.append(generate_corridor(rows=6, cols=15, kept_edges=110, route_count=300, seed=0))
    pruned_any = False
    for sc in scenarios:
        _routes, acc, pruned = prepare(sc)
        pruned_any = pruned_any or pruned != acc.arcs
        t = sc.destination
        assert pathenum._live_successors(pruned, t) == pathenum._live_successors(acc.arcs, t)
    assert pruned_any


def test_instance_equals_pinned_functions():
    sc = generate_grid(4, 4, 10.0, 60.0, 20, ("uniform", 0.1, 0.3), seed=47)
    routes, acc, pruned = prepare(sc)
    net, s, t = sc.network, sc.source, sc.destination
    inst = Instance(sc)
    full = enumerate_paths(pruned, s, t, acc, net, routes)
    assert inst.paths() == full
    pathsets = [full]
    for seed in range(5):
        subset = enumerate_bounded(pruned, s, t, acc, net, routes, limit=20, seed=seed)
        assert inst.sample(20, seed) == subset
        pathsets.append(subset)
    for target in (1.0, 500.0, 2457.0, 2900.0, 1e5):
        for pathset in pathsets:
            got = inst.lp(pathset).solve(target)
            want = solve_min_loss(LossMinProblem(pathset, sc.params, net, routes, target))
            assert (got.status, got.objective, got.plan) == (want.status, want.objective, want.plan)
        assert inst.greedy(target) == heuristic_min_loss(net, list(routes), sc.params, target, s, t)


# grid 4 and grid 47 at the paper's settings, and a random network where
# limit 10 takes the per-sequence second pass and limit 50 draws every path
SAMPLED = {
    "grid4": lambda: generate_grid(4, 4, 10.0, 60.0, 20, ("const", 0.1), seed=4),
    "grid47": lambda: generate_grid(4, 4, 10.0, 60.0, 20, ("uniform", 0.1, 0.3), seed=47),
    "random-second-pass": lambda: generate_random(5, 0.3, 4, 20, seed=1),
}


@pytest.mark.parametrize("case", list(SAMPLED))
def test_samples_from_one_instance_equal_fresh_ones(case):
    # an instance keeps every path it assembles for a sample and reads the
    # kept prefix of a sequence before extending it; the samples must not change
    sc = SAMPLED[case]()
    inst = Instance(sc)
    seeds = [*range(8), *reversed(range(8))]
    for seed in seeds:
        for limit in (10, 50):
            assert repr(inst.sample(limit, seed)) == repr(Instance(sc).sample(limit, seed))
    if case == "random-second-pass":
        # some sequence gives more than limit // 8 paths, which only the second pass takes
        widest = max(
            Counter(p.boundaries for p in inst.sample(10, seed).paths).most_common(1)[0][1]
            for seed in seeds
        )
        assert widest > 10 // 8
        assert inst.sample(50, 0) == Instance(sc).paths()


def test_paths_leave_the_sampler_cache_empty():
    # a full enumeration streams its paths: only the sampler keeps them
    inst = Instance(generate_grid(4, 4, 10.0, 60.0, 20, ("uniform", 0.1, 0.3), seed=47))
    assert len(inst.paths().paths) == 979
    assert not inst._sampled_paths
    inst.sample(50, 0)
    assert inst._sampled_paths


@pytest.mark.parametrize("cap", [0, -1])
def test_enumeration_cap_below_one_is_an_error(cap, small_scenario, tmp_path, capsys):
    with pytest.raises(DomainError, match="enumeration cap must be at least 1"):
        Instance(small_scenario).paths(cap)
    # so do the compatibility functions, also over no sequences at all
    routes, acc, pruned = prepare(small_scenario)
    s, t, net = small_scenario.source, small_scenario.destination, small_scenario.network
    seqs = enumerate_sequences(pruned, s, t)
    for call in (
        lambda: enumerate_sequences(pruned, s, t, cap=cap),
        lambda: enumerate_paths(pruned, s, t, acc, net, routes, cap=cap),
        lambda: expand_to_paths(seqs, acc, net, routes, cap=cap),
        lambda: expand_to_paths((), acc, net, routes, cap=cap),
    ):
        with pytest.raises(DomainError, match="enumeration cap must be at least 1"):
            call()
    scen, out = tmp_path / "grid.txt", tmp_path / "out.csv"
    main(["gen-grid", "--seed", "4", "--flow", "const:0.1", "--out", str(scen)])
    for argv in (["enumerate"], ["solve", "--method", "I", "--target", "50"]):
        argv = [*argv, "--scenario", str(scen), "--cap", str(cap), "--out", str(out)]
        assert main(argv) == EXIT_ERROR
        assert "error: enumeration cap must be at least 1" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["enumerate", "--limit", "10", "--cap", "0"], "enumeration cap must be at least 1"),
        (["enumerate", "--limit", "0"], "limit must be at least 1"),
        (["solve", "--method", "III", "--target", "5", "--cap", "-3"],
         "enumeration cap must be at least 1"),
        (["solve", "--method", "II", "--target", "5", "--cap", "0"],
         "enumeration cap must be at least 1"),
        (["solve", "--method", "I", "--target", "5", "--subset-limit", "0"],
         "limit must be at least 1"),
        (["solve", "--method", "III", "--target", "5", "--subset-limit", "-1"],
         "limit must be at least 1"),
    ],
    ids=[
        "enumerate-limit-cap-0", "enumerate-limit-0", "solve-iii-cap-negative", "solve-ii-cap-0",
        "solve-i-subset-limit-0", "solve-iii-subset-limit-negative",
    ],
)
def test_knob_below_one_is_an_error_whether_or_not_it_is_read(argv, message, tmp_path, capsys):
    scen, out = tmp_path / "grid.txt", tmp_path / "out.csv"
    main(["gen-grid", "--seed", "4", "--flow", "const:0.1", "--out", str(scen)])
    assert main([*argv, "--scenario", str(scen), "--out", str(out)]) == EXIT_ERROR
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


def refuse(*args, **kwargs):
    raise AssertionError("called on a path that must not need it")


def test_method_iii_never_builds_the_accessibility_graph(monkeypatch, small_scenario, tmp_path):
    # the greedy searches the junction-route incidence: it neither derives
    # the accessibility arcs nor asks for an index set
    scen = tmp_path / "grid.txt"
    main(["gen-grid", "--seed", "4", "--flow", "const:0.1", "--out", str(scen)])
    index_set = network.AccessibilityGraph.index_set
    monkeypatch.setattr(network.AccessibilityGraph, "arcs", property(refuse))
    monkeypatch.setattr(network.AccessibilityGraph, "index_set", refuse)
    table = run_compare(small_scenario, targets=[1.0, 200.0], methods=("III",))
    assert {r.status for r in table.rows} == {"optimal"}
    argv = ["solve", "--scenario", str(scen), "--method", "III", "--target", "50"]
    assert main([*argv, "--out", str(tmp_path / "plan.csv")]) == EXIT_OK
    # methods I and II ask for index sets, but their successors and hops to t
    # come from the incidence too, so no method derives the arcs
    monkeypatch.setattr(network.AccessibilityGraph, "index_set", index_set)
    table = run_compare(small_scenario, targets=[1.0, 200.0], subset_seeds=range(2))
    assert {r.status for r in table.rows} == {"optimal"}


@pytest.mark.parametrize(
    "methods, loads", [(("I", "II", "III"), True), (("III", "II"), True), (("III",), False)]
)
def test_compare_imports_the_lp_backend_before_any_method_runs(
    monkeypatch, small_scenario, methods, loads
):
    # importing NumPy and SciPy stays outside every row's wall time
    calls = []
    monkeypatch.setattr(experiments, "_lp_backend", lambda: calls.append("load"))
    for name in ("paths", "sample", "greedy"):
        real = getattr(Instance, name)
        spy = lambda self, *args, _real=real, _name=name: calls.append(_name) or _real(self, *args)
        monkeypatch.setattr(Instance, name, spy)
    run_compare(small_scenario, targets=[1.0, 200.0], methods=methods, subset_seeds=range(2))
    assert calls.count("load") == int(loads)
    assert calls[0] == ("load" if loads else "greedy")


def test_one_greedy_trajectory_serves_every_target(monkeypatch):
    # the greedy's picks do not depend on the target, so an instance picks
    # each path once for all its targets, in whatever order they come
    sc = generate_corridor(rows=6, cols=15, kept_edges=110, route_count=300, seed=0)
    routes = normalize_routes(sc.network, sc.routes)
    picks = []
    pick = heuristic._pick_path
    monkeypatch.setattr(heuristic, "_pick_path", lambda *args: picks.append(1) or pick(*args))
    targets = [500.0, 16000.0, 0.0, 200.0, 1e6, 500.0, 2000.0, 1e6]
    fresh, fresh_picks = [], []
    for target in targets:
        picks.clear()
        args = (sc.network, routes, sc.params, target, sc.source, sc.destination)
        fresh.append(heuristic_min_loss(*args))
        fresh_picks.append(len(picks))
    picks.clear()
    inst = Instance(sc)
    assert [inst.greedy(target) for target in targets] == fresh
    assert len(picks) == max(fresh_picks) < sum(fresh_picks)
    assert [r.status for r in fresh].count("infeasible") == 2
    assert fresh[1].paths_used > 1


def test_instance_frees_its_graph_without_the_cyclic_collector():
    # a reference cycle through the graph would keep every instance's
    # incidence alive until the cyclic collector runs, raising peak memory
    sc = generate_grid(4, 4, 10.0, 60.0, 20, ("uniform", 0.1, 0.3), seed=47)
    gc.collect()
    gc.disable()
    try:
        inst = Instance(sc)
        inst.sample(20, 0)
        inst.paths()
        inst.greedy(500.0)
        graph = weakref.ref(inst.accessibility)
        del inst
        assert graph() is None
    finally:
        gc.enable()


def test_drivers_and_commands_never_prune(monkeypatch, small_scenario, tmp_path):
    scen = tmp_path / "grid.txt"
    main(["gen-grid", "--seed", "4", "--flow", "const:0.1", "--out", str(scen)])
    monkeypatch.setattr(network, "prune_unreachable", refuse)
    monkeypatch.setattr(experiments, "prune_unreachable", refuse)
    table = run_compare(small_scenario, targets=[1.0, 200.0], subset_seeds=range(2))
    assert {r.status for r in table.rows} == {"optimal"}
    assert run_growth([4, 6], [0.3, 0.5], 2, 0, enumeration_cap=8) == SMALL_CAPPED_GROWTH_CSV
    for argv in (
        ["solve", "--method", "I", "--target", "50"],
        ["solve", "--method", "II", "--target", "50"],
        ["solve", "--method", "III", "--target", "50"],
        ["enumerate"],
        ["enumerate", "--limit", "10"],
    ):
        assert main([*argv, "--scenario", str(scen), "--out", str(tmp_path / "x.csv")]) == EXIT_OK


def test_paths_reuse_the_instance_structures(monkeypatch):
    sc = generate_grid(4, 4, 10.0, 60.0, 20, ("uniform", 0.1, 0.3), seed=47)
    want = Instance(sc).paths()
    inst = Instance(sc)
    inst.live_successors, inst.span_table  # derived here, so paths() needs no new ones
    monkeypatch.setattr(pathenum, "_live_successors", refuse)
    monkeypatch.setattr(pathenum, "_SpanTable", refuse)
    assert inst.paths() == want


# run_growth([4, 6], [0.3, 0.5], 2, 0, enumeration_cap=8): two rows capped
SMALL_CAPPED_GROWTH_CSV = """\
n_junctions,road_density,seed,accessibility_density,n_paths,capped
4,0.3000,6136,0.6667,0,true
4,0.3000,6137,0.3333,2,false
4,0.5000,7536,0.6667,5,false
4,0.5000,7537,0.5000,4,false
6,0.3000,8154,0.3333,4,false
6,0.3000,8155,0.2333,1,false
6,0.5000,9554,0.4667,0,true
6,0.5000,9555,0.5333,6,false
# mean n=4 density=0.3000 mean_paths=1.0000
# mean n=4 density=0.5000 mean_paths=4.5000
# mean n=6 density=0.3000 mean_paths=2.5000
# mean n=6 density=0.5000 mean_paths=3.0000
# trend density_monotone=true size_monotone=false
"""


class TestRunGrowth:
    def test_structure_and_trends(self):
        csv = run_growth(
            n_values=[4, 5], density_grid=[0.3, 0.5], instances_per_cell=3, seed=0
        )
        lines = csv.strip().split("\n")
        assert lines[0] == GROWTH_HEADER
        data = [ln for ln in lines if not ln.startswith("#") and ln != GROWTH_HEADER]
        assert len(data) == 2 * 2 * 3
        means = [ln for ln in lines if ln.startswith("# mean")]
        assert len(means) == 4
        assert lines[-1].startswith("# trend density_monotone=")

    def test_deterministic(self):
        kwargs = dict(n_values=[4], density_grid=[0.4], instances_per_cell=2, seed=9)
        assert run_growth(**kwargs) == run_growth(**kwargs)

    def test_default_study_is_pinned(self):
        csv = run_growth([4, 6, 8, 10], [0.2, 0.35, 0.5], 30, 0)
        assert hashlib.sha256(csv.encode()).hexdigest() == DEFAULT_GROWTH_SHA256

    def test_paths_are_counted_not_built(self, monkeypatch):
        def no_path(*args, **kwargs):
            raise AssertionError("the growth study built an energy path")

        monkeypatch.setattr(pathenum, "assemble_energy_path", no_path)
        monkeypatch.setattr(energy, "EnergyPath", no_path)
        csv = run_growth([4, 6], [0.3, 0.5], 2, 0, enumeration_cap=8)
        assert csv == SMALL_CAPPED_GROWTH_CSV

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(instances_per_cell=0),
            dict(instances_per_cell=-2),
            dict(density_grid=[float("nan")]),
            dict(density_grid=[0.3, float("inf")]),
            dict(n_values=[]),
            dict(density_grid=[]),
            dict(n_values=[4, 4]),
            dict(density_grid=[0.5, 0.3]),
            dict(density_grid=[0.2001, 0.2004]),
            dict(enumeration_cap=0),
            dict(enumeration_cap=-1),
            dict(n_values=[1, 4]),
            dict(density_grid=[0.0, 0.5]),
            dict(density_grid=[0.3, 1.5]),
        ],
        ids=[
            "no-instances", "negative-instances", "nan-density", "inf-density",
            "no-sizes", "no-densities", "repeated-size", "decreasing-densities",
            "colliding-densities", "zero-cap", "negative-cap",
            "size-below-two", "zero-density", "density-above-one",
        ],
    )
    def test_bad_inputs_rejected(self, kwargs):
        args = dict(n_values=[4, 5], density_grid=[0.3, 0.5], instances_per_cell=1, seed=0)
        with pytest.raises(DomainError):
            run_growth(**{**args, **kwargs})

    @pytest.mark.parametrize(
        "kwargs, argument",
        [
            (dict(n_values=[4, 1]), "n_values"),
            (dict(density_grid=[0.3, 0.5, 1.5]), "density_grid"),
            (dict(density_grid=[0.0, 0.5]), "density_grid"),
        ],
        ids=["size-below-two", "density-above-one", "zero-density"],
    )
    def test_bad_sizes_and_densities_fail_before_any_instance(self, monkeypatch, kwargs, argument):
        # generate_random rejects them too, but only after the earlier instances ran
        monkeypatch.setattr(experiments, "generate_random", refuse)
        args = dict(n_values=[4, 5], density_grid=[0.3, 0.5], instances_per_cell=1, seed=0)
        with pytest.raises(DomainError, match=argument):
            run_growth(**{**args, **kwargs})


DEFAULT_GROWTH_SHA256 = "7ff8320c7afdb357b385a7bddf83493d6663a99b3c91f1f386d467b41e0aaf61"
# the instance seeds of run_growth([4, 6], [0.3, 0.5], 2, 0), in spec order
SMALL_GROWTH_SEEDS = (6136, 6137, 7536, 7537, 8154, 8155, 9554, 9555)


class TestGrowthSplit:
    """run_growth runs its instances on one process per usable CPU: this one
    and a forked child each other, every process claiming the next instance
    from one pipe whenever it is free."""

    @pytest.fixture(autouse=True)
    def no_child_left(self):
        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @staticmethod
    def counted_forks(monkeypatch, shares):
        monkeypatch.setattr(experiments, "_usable_cpus", lambda: shares)
        forks = []
        real_fork = os.fork

        def fork():
            pid = real_fork()
            if pid:
                forks.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", fork)
        return forks

    @pytest.mark.parametrize("shares", [1, 2, 3])
    def test_outputs_do_not_depend_on_the_split(self, monkeypatch, shares):
        forks = self.counted_forks(monkeypatch, shares)
        csv = run_growth([4, 6, 8, 10], [0.2, 0.35, 0.5], 30, 0)
        assert hashlib.sha256(csv.encode()).hexdigest() == DEFAULT_GROWTH_SHA256
        assert run_growth([4, 6], [0.3, 0.5], 2, 0, enumeration_cap=8) == SMALL_CAPPED_GROWTH_CSV
        assert len(forks) == 2 * (shares - 1)

    @pytest.mark.parametrize("shares", [1, 2, 3])
    def test_every_instance_is_computed_once(self, monkeypatch, tmp_path, shares):
        forks = self.counted_forks(monkeypatch, shares)
        log, real = tmp_path / "computed.txt", experiments._growth_row

        def row(n, density, inst_seed, cap):
            with open(log, "a") as fh:  # one short append per line, so lines never mix
                fh.write(f"{os.getpid()} {inst_seed}\n")
            return real(n, density, inst_seed, cap)

        monkeypatch.setattr(experiments, "_growth_row", row)
        assert run_growth([4, 6], [0.3, 0.5], 2, 0, enumeration_cap=8) == SMALL_CAPPED_GROWTH_CSV
        computed = [line.split() for line in log.read_text().splitlines()]
        assert sorted(int(seed) for _pid, seed in computed) == sorted(SMALL_GROWTH_SEEDS)
        assert {int(pid) for pid, _seed in computed} <= {os.getpid(), *forks}
        assert len(forks) == shares - 1

    @pytest.mark.parametrize("shares", [1, 2, 3])
    @pytest.mark.parametrize("max_claims", [1, 3, 7])
    def test_chunked_claims_give_the_same_study(self, monkeypatch, shares, max_claims):
        # 8 instances in chunks of 8, 3 or 2: the last chunk may be short
        self.counted_forks(monkeypatch, shares)
        monkeypatch.setattr(experiments, "_MAX_CLAIMS", max_claims)
        assert run_growth([4, 6], [0.3, 0.5], 2, 0, enumeration_cap=8) == SMALL_CAPPED_GROWTH_CSV

    def test_no_more_shares_than_instances(self, monkeypatch):
        forks = self.counted_forks(monkeypatch, 3)
        csv = run_growth([4], [0.3], 2, 0, enumeration_cap=8)
        assert csv.splitlines()[1:3] == SMALL_CAPPED_GROWTH_CSV.splitlines()[1:3]
        assert len(forks) == 1

    @staticmethod
    def raises_the_earliest_error(monkeypatch, first, *later):
        # instances fail with different errors, whichever processes claim them
        errors = {SMALL_GROWTH_SEEDS[first]: DomainError(f"instance {first} refused")}
        for i in later:
            errors[SMALL_GROWTH_SEEDS[i]] = StructuralError(f"instance {i} refused")
        real = experiments.generate_random

        def generate(**kwargs):
            if kwargs["seed"] in errors:
                raise errors[kwargs["seed"]]
            return real(**kwargs)

        monkeypatch.setattr(experiments, "generate_random", generate)
        want = errors[SMALL_GROWTH_SEEDS[min(first, *later)]]
        with pytest.raises(type(want)) as caught:
            run_growth([4, 6], [0.3, 0.5], 2, 0, enumeration_cap=8)
        assert type(caught.value) is type(want) and str(caught.value) == str(want)

    @pytest.mark.parametrize("shares", [1, 2, 3])
    @pytest.mark.parametrize("first, second", [(2, 5), (3, 4), (6, 1), (0, 7)])
    def test_the_earliest_failing_instance_raises(self, monkeypatch, shares, first, second):
        forks = self.counted_forks(monkeypatch, shares)
        self.raises_the_earliest_error(monkeypatch, first, second)
        assert len(forks) == shares - 1

    @pytest.mark.parametrize("shares", [2, 3])
    @pytest.mark.parametrize("first, second", [(2, 5), (4, 3), (7, 6)])
    def test_the_earliest_failing_instance_raises_from_chunks(
        self, monkeypatch, shares, first, second
    ):
        # chunks of 3: the two failures share a chunk or lie in neighbouring ones
        self.counted_forks(monkeypatch, shares)
        monkeypatch.setattr(experiments, "_MAX_CLAIMS", 3)
        self.raises_the_earliest_error(monkeypatch, first, second)

    @pytest.mark.parametrize("shares", [2, 3])
    def test_claims_go_out_in_order(self, monkeypatch, shares):
        # every process may stop at a late failure, unless claims go out in spec order
        self.counted_forks(monkeypatch, shares)
        self.raises_the_earliest_error(monkeypatch, 1, 5, 6, 7)

    def test_a_child_that_dies_is_a_consistency_error(self, monkeypatch):
        # the child dies before it claims anything, so the parent may claim every instance
        forks = self.counted_forks(monkeypatch, 2)
        parent, real = os.getpid(), experiments._claimed

        def claimed(*args):
            if os.getpid() != parent:
                os._exit(3)
            return real(*args)

        monkeypatch.setattr(experiments, "_claimed", claimed)
        with pytest.raises(ConsistencyError, match=r"process \d+ exited with status 3"):
            run_growth([4, 6], [0.3, 0.5], 2, 0, enumeration_cap=8)
        assert len(forks) == 1

    def test_no_fork_while_another_thread_runs(self, monkeypatch):
        monkeypatch.setattr(experiments, "_usable_cpus", lambda: 3)
        monkeypatch.setattr(os, "fork", refuse)
        done = threading.Event()
        waiter = threading.Thread(target=done.wait)
        waiter.start()
        try:
            csv = run_growth([4, 6], [0.3, 0.5], 2, 0, enumeration_cap=8)
        finally:
            done.set()
            waiter.join()
        assert csv == SMALL_CAPPED_GROWTH_CSV


class TestCli:
    def test_gen_grid_solve_roundtrip(self, tmp_path, capsys):
        scen = tmp_path / "grid.txt"
        assert main(["gen-grid", "--seed", "4", "--flow", "const:0.1", "--out", str(scen)]) == EXIT_OK
        out = tmp_path / "plan.csv"
        code = main([
            "solve", "--scenario", str(scen), "--method", "I",
            "--target", "200", "--out", str(out),
        ])
        assert code == EXIT_OK
        text = out.read_text()
        assert text.startswith("path_index,junctions,cycles,delay_s,rate_kwh_per_s,energy_kwh")
        assert "total,,,,,200.000000" in text
        assert "loss,,,,,74.348422" in text

    def test_solve_methods_ii_and_iii(self, tmp_path):
        scen = tmp_path / "grid.txt"
        main(["gen-grid", "--seed", "4", "--flow", "const:0.1", "--out", str(scen)])
        for method in ("II", "III"):
            out = tmp_path / f"plan_{method}.csv"
            code = main([
                "solve", "--scenario", str(scen), "--method", method,
                "--target", "50", "--out", str(out),
            ])
            assert code == EXIT_OK
            assert "total,,,,,50.000000" in out.read_text()

    def test_infeasible_exit_code(self, tmp_path):
        scen = tmp_path / "grid.txt"
        main(["gen-grid", "--seed", "4", "--flow", "const:0.1", "--out", str(scen)])
        code = main([
            "solve", "--scenario", str(scen), "--method", "I",
            "--target", "1e9", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == EXIT_INFEASIBLE

    def test_error_exit_code(self, tmp_path, capsys):
        code = main([
            "solve", "--scenario", str(tmp_path / "missing.txt"),
            "--method", "I", "--target", "1",
        ])
        assert code == EXIT_ERROR
        # a scenario with no target and no --target flag is a usage error
        scen = tmp_path / "grid.txt"
        main(["gen-grid", "--seed", "4", "--flow", "const:0.1", "--out", str(scen)])
        code = main(["solve", "--scenario", str(scen), "--method", "I"])
        assert code == EXIT_ERROR
        assert "error:" in capsys.readouterr().err

    def test_compare_exit_codes(self, tmp_path):
        scen, out = tmp_path / "grid.txt", tmp_path / "table.csv"
        main(["gen-grid", "--seed", "4", "--flow", "const:0.1", "--out", str(scen)])
        argv = ["compare", "--scenario", str(scen), "--cap", "5", "--out", str(out)]
        # any error row is an error; the table is still written
        for methods in ("I", "I,III"):
            assert main([*argv, "--targets", "1,200", "--methods", methods]) == EXIT_ERROR
            rows = out.read_text().splitlines()[1:]
            assert sum(",I,error:enumeration-cap," in row for row in rows) == 2
        assert main([*argv, "--targets", "1,200", "--methods", "III"]) == EXIT_OK
        assert main([*argv, "--targets", "1e9", "--methods", "III"]) == EXIT_INFEASIBLE

    def test_greedy_cut_by_a_cap_is_an_error_not_infeasible(self, tmp_path, capsys, monkeypatch):
        # two fewest-hop sequences without a route-distinct pick: uncut, the
        # greedy finds no path; under a sequence cap of 1 it cannot tell
        network, routes = reversed_reuse_instance(with_spare=False, second="mirror")
        params = EnergyParams(1.0, 0.9, 1.0, 18000.0)
        sc = Scenario("cap", 0, network, tuple(routes), params, "s", "t")
        scen, out = tmp_path / "cap.txt", tmp_path / "out.csv"
        save_scenario(sc, scen)
        compare = ["compare", "--scenario", str(scen), "--targets", "10", "--methods", "III"]
        solve = ["solve", "--scenario", str(scen), "--method", "III", "--target", "10"]
        assert run_compare(sc, [10.0], ["III"]).rows[0].status == "infeasible"
        assert main([*compare, "--out", str(out)]) == EXIT_INFEASIBLE
        assert main([*solve, "--out", str(out)]) == EXIT_INFEASIBLE
        uncut = out.read_text()
        assert capsys.readouterr().err == ""

        monkeypatch.setattr(heuristic, "_SEQUENCE_FALLBACK_CAP", 1)
        row = run_compare(sc, [10.0], ["III"]).rows[0]
        assert (row.status, row.loss_kwh, row.delivered_kwh, row.paths_used) == (
            "error:combination-cap", None, None, None
        )
        assert main([*compare, "--out", str(out)]) == EXIT_ERROR
        assert out.read_text().splitlines()[1] == "10.000000,III,error:combination-cap,,,,"
        # solve still writes the partial plan, here an empty one
        assert main([*solve, "--out", str(out)]) == EXIT_ERROR
        assert out.read_text() == uncut
        assert uncut.splitlines()[1:] == ["total,,,,,0.000000", "loss,,,,,0.000000"]
        err = capsys.readouterr().err
        assert err.startswith("error:") and "combination-cap" in err and "Traceback" not in err

    @pytest.mark.parametrize("method", ["I", "III"])
    @pytest.mark.parametrize("target", ["nan", "inf"])
    def test_non_finite_target_is_an_error(self, tmp_path, capsys, method, target):
        scen = tmp_path / "grid.txt"
        main(["gen-grid", "--seed", "4", "--flow", "const:0.1", "--out", str(scen)])
        code = main([
            "solve", "--scenario", str(scen), "--method", method,
            "--target", target, "--out", str(tmp_path / "x.csv"),
        ])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("method", ["I", "III"])
    def test_zero_efficiency_is_an_error(self, tmp_path, capsys, method):
        scen = tmp_path / "grid.txt"
        main(["gen-grid", "--seed", "4", "--flow", "const:0.1", "--out", str(scen)])
        text = scen.read_text()
        assert "zc = 0.9\n" in text
        scen.write_text(text.replace("zc = 0.9\n", "zc = 0.0\n"))
        code = main([
            "solve", "--scenario", str(scen), "--method", method,
            "--target", "50", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_enumerate_full_and_bounded(self, tmp_path):
        scen = tmp_path / "grid.txt"
        main(["gen-grid", "--seed", "4", "--flow", "const:0.1", "--out", str(scen)])
        full = tmp_path / "full.csv"
        assert main(["enumerate", "--scenario", str(scen), "--out", str(full)]) == EXIT_OK
        lines = full.read_text().strip().split("\n")
        assert lines[0] == "# complete=true"
        assert lines[1].startswith("index,junctions,segments,cycles,delay_s,")
        assert len(lines) == 2 + 128
        sub = tmp_path / "sub.csv"
        assert main([
            "enumerate", "--scenario", str(scen), "--limit", "10", "--out", str(sub)
        ]) == EXIT_OK
        sub_lines = sub.read_text().strip().split("\n")
        assert sub_lines[0] == "# complete=false"
        assert len(sub_lines) == 2 + 10

    def test_gen_random_and_compare(self, tmp_path):
        scen = tmp_path / "rand.txt"
        assert main([
            "gen-random", "--junctions", "6", "--density", "0.4",
            "--seed", "2", "--out", str(scen),
        ]) == EXIT_OK
        out = tmp_path / "table.csv"
        code = main([
            "compare", "--scenario", str(scen), "--targets", "0.5,1.0",
            "--subset-seeds", "0,1", "--out", str(out),
        ])
        assert code in (EXIT_OK, EXIT_INFEASIBLE)
        assert out.read_text().startswith(COMPARE_HEADER)

    def test_growth_csv(self, tmp_path):
        out = tmp_path / "growth.csv"
        code = main([
            "growth", "--n-values", "4", "--densities", "0.3,0.5",
            "--instances", "2", "--out", str(out),
        ])
        assert code == EXIT_OK
        assert out.read_text().startswith(GROWTH_HEADER)

    @pytest.mark.parametrize(
        "argv",
        [
            ["--instances", "0"],
            ["--instances", "-2"],
            ["--densities", "nan"],
            ["--n-values", ""],
            ["--n-values", "4,4"],
            ["--densities", "0.2001,0.2004"],
            ["--cap", "-1"],
        ],
        ids=[
            "no-instances", "negative-instances", "nan-density", "no-sizes", "repeated-size",
            "colliding-densities", "negative-cap",
        ],
    )
    def test_bad_growth_inputs_are_an_error(self, argv, tmp_path, capsys):
        out = tmp_path / "growth.csv"
        assert main(["growth", *argv, "--out", str(out)]) == EXIT_ERROR
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_flow_spec_parsing_error(self):
        with pytest.raises(SystemExit):
            main(["gen-grid", "--flow", "bogus", "--out", "x"])

    @pytest.mark.parametrize("spec", ["uniform:0.1:0.3", "const:abc", "uniform:0.1,x"])
    def test_malformed_flow_spec_names_the_format(self, spec, capsys):
        with pytest.raises(SystemExit):
            main(["gen-grid", "--flow", spec, "--out", "x"])
        assert "flow spec must be const:<c> or uniform:<lo>,<hi>" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args, message",
        [
            (["compare", "--scenario", "s.txt", "--targets", "1,abc"],
             "argument --targets: expected comma-separated numbers, got '1,abc'"),
            (["compare", "--scenario", "s.txt", "--targets", "1", "--subset-seeds", "1,x"],
             "argument --subset-seeds: expected comma-separated integers, got '1,x'"),
            (["growth", "--n-values", "4,1.5"],
             "argument --n-values: expected comma-separated integers, got '4,1.5'"),
            (["growth", "--densities", "0.2,,y"],
             "argument --densities: expected comma-separated numbers, got '0.2,,y'"),
            (["compare", "--scenario", "s.txt", "--targets", "1,,200,"],
             "argument --targets: expected comma-separated numbers, got '1,,200,'"),
            (["compare", "--scenario", "s.txt", "--targets", "1", "--subset-seeds", ",1"],
             "argument --subset-seeds: expected comma-separated integers, got ',1'"),
            (["growth", "--n-values", "4,,6"],
             "argument --n-values: expected comma-separated integers, got '4,,6'"),
            (["growth", "--densities", "0.2,"],
             "argument --densities: expected comma-separated numbers, got '0.2,'"),
        ],
        ids=[
            "targets", "subset-seeds", "n-values", "densities", "empty-target",
            "empty-seed", "empty-size", "empty-density",
        ],
    )
    def test_malformed_list_names_the_format(self, args, message, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(args)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert message in err and "_csv" not in err

    @pytest.mark.parametrize("command", ["gen-grid", "gen-random"])
    def test_negative_route_count_is_an_error(self, command, tmp_path, capsys):
        scen = tmp_path / "s.txt"
        assert main([command, "--routes", "-2", "--out", str(scen)]) == EXIT_ERROR
        assert "error: route count must be nonnegative" in capsys.readouterr().err
        assert not scen.exists()

    @pytest.mark.parametrize("spec", ["const:nan", "const:-1", "uniform:0.1,inf"])
    def test_bad_flow_values_are_an_error(self, spec, tmp_path, capsys):
        scen = tmp_path / "g.txt"
        assert main(["gen-grid", "--flow", spec, "--out", str(scen)]) == EXIT_ERROR
        assert "error:" in capsys.readouterr().err
        assert not scen.exists()
