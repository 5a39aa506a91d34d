"""End-to-end acceptance checks for the routing toolkit.

Each test covers one release gate: counting bounds, enumeration equivalence
against independent oracles, reproduction of the published loss regimes on
seeded scenarios, cross-method ordering, LP correctness, growth trends,
large-scale method comparison, and CLI determinism. Every test prints one
summary line on success.
"""

import time

import pytest

import venroute as v
from venroute.experiments import prepare
from venroute.rateopt import _window_cap

from helpers import (
    oracle_expand,
    oracle_min_loss,
    oracle_sequences,
    parallel_paths_instance,
    prepared,
    random_instance,
)


def _solve(sc, routes, pathset, target):
    problem = v.LossMinProblem(
        paths=pathset,
        params=sc.params,
        network=sc.network,
        routes=tuple(routes),
        target_kwh=target,
    )
    return v.solve_min_loss(problem)


def _grid(seed, flow=("const", 0.1)):
    return v.generate_grid(4, 4, 10.0, 60.0, 20, flow, seed)


def test_path_count_recurrence_and_bounds():
    t0 = time.perf_counter()
    assert v.f_bound(1) == 1
    assert v.f_bound(3) == 5
    assert v.f_bound(4) == 16
    for n in range(2, 10):
        assert v.f_bound(n) == 1 + (n - 1) * v.f_bound(n - 1)

    # complete accessibility digraphs: the path count meets the bound exactly
    for n in range(3, 8):
        junctions = [f"n{k}" for k in range(n)]
        arcs, routes = [], []
        for i in junctions:
            for j in junctions:
                if i != j:
                    aid = f"a_{i}_{j}"
                    arcs.append((aid, i, j, 60.0))
                    routes.append(v.VehicularRoute(f"r_{i}_{j}", (aid,), 0.1))
        network = v.VehicularNetwork.build(junctions, arcs)
        norm, acc, pruned, _ = prepared(network, tuple(routes), junctions[-1])
        ps = v.enumerate_paths(pruned, junctions[0], junctions[-1], acc, network, norm)
        assert len(ps.paths) == v.f_bound(n - 1)

    # random instances never exceed the bound
    for seed in range(200):
        network, routes, s, t = random_instance(seed, n_max=7)
        norm, acc, pruned, _ = prepared(network, routes, t)
        seqs = v.enumerate_sequences(pruned, s, t)
        assert len(seqs) <= v.f_bound(len(network.junctions) - 1)

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"PASS counting bounds: 5 complete digraphs exact, 200 random within bound, {elapsed:.1f}s")


def test_enumeration_matches_independent_oracles():
    t0 = time.perf_counter()
    checked_paths = 0
    for seed in range(100):
        network, routes, s, t = random_instance(seed, n_max=6)
        norm, acc, pruned, _ = prepared(network, routes, t)
        seqs = v.enumerate_sequences(pruned, s, t)
        assert set(seqs) == oracle_sequences(pruned, s, t)
        ps = v.expand_to_paths(seqs, acc, network, norm)
        got = {(p.boundaries, tuple(r for r, _, _ in p.segments)) for p in ps.paths}
        assert got == oracle_expand(seqs, acc)
        checked_paths += len(ps.paths)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"PASS enumeration oracles: 100 instances, {checked_paths} paths, {elapsed:.1f}s")


def test_constant_flow_grid_reproduces_published_loss_ratio():
    sc = _grid(seed=4)
    routes, acc, pruned = prepare(sc)
    ps = v.enumerate_paths(pruned, sc.source, sc.destination, acc, sc.network, routes)
    assert min(p.cycles for p in ps.paths) == 3

    ratio = 1 / 0.9**3 - 1  # 0.371742 per kWh at three cycles
    for target in (1.0, 200.0):
        sol = _solve(sc, routes, ps, target)
        assert sol.status == "optimal"
        assert sol.objective / target == pytest.approx(ratio, abs=1e-3)
        h = v.heuristic_min_loss(
            sc.network, list(routes), sc.params, target, sc.source, sc.destination
        )
        assert h.status == "success"
        assert h.loss_kwh / target == pytest.approx(ratio, abs=1e-3)
    sol200 = _solve(sc, routes, ps, 200.0)
    assert sol200.objective == pytest.approx(74.35, abs=0.01)
    print("PASS published ratio: both methods at 0.37174 kWh/kWh, 74.35 kWh at 200 kWh")


def test_method_ordering_across_seeded_scenarios():
    scenarios = []
    for seed in range(25):
        scenarios.append(
            v.generate_random(
                n_junctions=6, road_density=0.35, route_length_cap=3, route_count=12, seed=seed
            )
        )
    for seed in range(25):
        scenarios.append(
            v.generate_grid(
                3, 3, 10.0, 60.0, 12, ("uniform", 0.1, 0.3), seed, max_route_arcs=3
            )
        )
    checked = 0
    for sc in scenarios:
        routes, acc, pruned = prepare(sc)
        ps = v.enumerate_paths(pruned, sc.source, sc.destination, acc, sc.network, routes)
        capacity = v.max_deliverable(
            v.LossMinProblem(
                paths=ps, params=sc.params, network=sc.network,
                routes=tuple(routes), target_kwh=0.0,
            )
        )
        for frac in (0.3, 0.8, 1.02):
            target = max(capacity * frac, 0.5)
            sol_full = _solve(sc, routes, ps, target)
            loss_full = v.plan_totals(sol_full.plan)[1] if sol_full.status == "optimal" else None

            h = v.heuristic_min_loss(
                sc.network, list(routes), sc.params, target, sc.source, sc.destination
            )
            if h.status == "success":
                assert sol_full.status == "optimal", "greedy succeeded on an infeasible target"
                assert h.loss_kwh >= loss_full - 1e-6

            sub = v.enumerate_bounded(
                pruned, sc.source, sc.destination, acc, sc.network, routes,
                limit=10, seed=sc.seed,
            )
            sol_sub = _solve(sc, routes, sub, target)
            if sol_sub.status == "optimal":
                assert sol_full.status == "optimal"
                assert v.plan_totals(sol_sub.plan)[1] >= loss_full - 1e-6
            checked += 1
    assert checked == 150
    print(f"PASS method ordering: {checked} scenario/target cells, no violations")


def test_variable_flow_grid_shows_all_three_regimes():
    sc = _grid(seed=47, flow=("uniform", 0.1, 0.3))
    routes, acc, pruned = prepare(sc)
    ps = v.enumerate_paths(pruned, sc.source, sc.destination, acc, sc.network, routes)

    def both(target):
        sol = _solve(sc, routes, ps, target)
        h = v.heuristic_min_loss(
            sc.network, list(routes), sc.params, target, sc.source, sc.destination
        )
        return sol, h

    # low targets: identical losses
    for target in (1.0, 500.0):
        sol, h = both(target)
        assert sol.status == "optimal" and h.status == "success"
        assert h.loss_kwh == pytest.approx(sol.objective, abs=1e-5)

    # mid target: the greedy plan is strictly lossier than the optimum
    sol, h = both(2457.0)
    assert sol.status == "optimal" and h.status == "success"
    assert h.loss_kwh > sol.objective + 1.0

    # high target: greedy runs out of feasible paths while the LP still delivers
    sol, h = both(2900.0)
    assert sol.status == "optimal"
    assert h.status == "infeasible"
    print("PASS divergence regimes: equal at low targets, +11 kWh at 2457, greedy infeasible at 2900")


def test_lp_matches_dense_search_oracle_and_is_consistent():
    network, routes, params, s, t = parallel_paths_instance()
    norm, acc, pruned, _ = prepared(network, routes, t)
    full = v.enumerate_paths(pruned, s, t, acc, network, norm)
    assert len(full.paths) == 3

    # sub-instances with 1, 2, and 3 route-disjoint paths
    def subset(k):
        paths = tuple(sorted(full.paths, key=lambda p: p.cycles)[:k])
        return v.PathSet(paths, True)

    compared = 0
    for k in (1, 2, 3):
        ps = subset(k)
        caps = [
            _window_cap(p, params) * params.packet_kwh * p.bottleneck_flow
            for p in ps.paths
        ]
        cycles = [p.cycles for p in ps.paths]
        total = sum(caps)
        for frac in (0.1, 0.4, 0.7, 0.99):
            target = frac * total
            problem = v.LossMinProblem(
                paths=ps, params=params, network=network, routes=norm, target_kwh=target
            )
            sol = v.solve_min_loss(problem)
            assert sol.status == "optimal"
            expected = oracle_min_loss(caps, cycles, params.efficiency, target)
            assert sol.objective == pytest.approx(expected, abs=1e-4)
            assert sol.diagnostics["max_residual"] <= 1e-9
            delivered, loss = v.plan_totals(sol.plan)
            assert loss == pytest.approx(sol.objective, abs=1e-6)
            assert delivered >= target - 1e-9
            compared += 1

    # optimal loss is non-decreasing in the energy target
    total = sum(
        _window_cap(p, params) * params.packet_kwh * p.bottleneck_flow for p in full.paths
    )
    losses = []
    for k in range(20):
        target = total * (k + 1) / 21.0
        sol = v.solve_min_loss(
            v.LossMinProblem(
                paths=full, params=params, network=network, routes=norm, target_kwh=target
            )
        )
        assert sol.status == "optimal"
        losses.append(sol.objective)
    assert all(a <= b + 1e-9 for a, b in zip(losses, losses[1:]))
    print(f"PASS optimizer oracle: {compared} instances within 1e-4, residuals <= 1e-9, monotone sweep")


def test_growth_study_trends_monotone():
    t0 = time.perf_counter()
    csv = v.run_growth(
        n_values=[4, 6, 8, 10],
        density_grid=[0.2, 0.35, 0.5],
        instances_per_cell=30,
        seed=0,
    )
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    assert ",true" not in csv, "an instance hit the enumeration cap"
    trend = [ln for ln in csv.splitlines() if ln.startswith("# trend")][0]
    assert "density_monotone=true" in trend
    assert "size_monotone=true" in trend
    print(f"PASS growth trends: mean path count monotone in density and size, {elapsed:.1f}s")


def test_large_network_heuristic_beats_sampled_lp():
    sc = v.generate_corridor(seed=0)
    routes, acc, pruned = prepare(sc)
    targets = (2000.0, 5000.0, 10000.0)

    t0 = time.perf_counter()
    greedy = {}
    for target in targets:
        h = v.heuristic_min_loss(
            sc.network, list(routes), sc.params, target, sc.source, sc.destination
        )
        assert h.status == "success"
        greedy[target] = h.loss_kwh
    wall_greedy = time.perf_counter() - t0

    t0 = time.perf_counter()
    subsets = [
        v.enumerate_bounded(
            pruned, sc.source, sc.destination, acc, sc.network, routes, limit=30, seed=seed
        )
        for seed in range(15)
    ]
    sampled = {}
    for target in targets:
        losses = []
        for ps in subsets:
            sol = _solve(sc, routes, ps, target)
            if sol.status == "optimal":
                losses.append(v.plan_totals(sol.plan)[1])
        assert losses, f"sampled method infeasible at {target} kWh on every subset"
        sampled[target] = sum(losses) / len(losses)
    wall_sampled = time.perf_counter() - t0

    for target in targets:
        assert sampled[target] > greedy[target] + 1e-6
    assert wall_greedy < wall_sampled
    print(
        "PASS scale comparison: greedy "
        f"{wall_greedy:.2f}s < sampled {wall_sampled:.2f}s; avg sampled loss above greedy at all targets"
    )


def test_cli_outputs_byte_identical_across_runs(tmp_path):
    from venroute.cli import main

    grid = tmp_path / "grid.txt"
    rand = tmp_path / "rand.txt"
    assert main(["gen-grid", "--seed", "4", "--flow", "const:0.1", "--out", str(grid)]) == 0
    assert main([
        "gen-random", "--junctions", "6", "--density", "0.4", "--seed", "2",
        "--out", str(rand),
    ]) == 0

    # every subcommand, as (name, argv builder taking the output path)
    commands = [
        ("gen-grid", lambda out: ["gen-grid", "--seed", "4", "--flow", "const:0.1", "--out", out]),
        ("gen-random", lambda out: [
            "gen-random", "--junctions", "6", "--density", "0.4", "--seed", "2", "--out", out
        ]),
        ("enumerate", lambda out: ["enumerate", "--scenario", str(grid), "--out", out]),
        ("enumerate-bounded", lambda out: [
            "enumerate", "--scenario", str(grid), "--limit", "10", "--out", out
        ]),
        ("solve-full", lambda out: [
            "solve", "--scenario", str(grid), "--method", "I", "--target", "200", "--out", out
        ]),
        ("solve-sampled", lambda out: [
            "solve", "--scenario", str(grid), "--method", "II", "--target", "50", "--out", out
        ]),
        ("solve-greedy", lambda out: [
            "solve", "--scenario", str(grid), "--method", "III", "--target", "200", "--out", out
        ]),
        ("compare", lambda out: [
            "compare", "--scenario", str(rand), "--targets", "0.5,1.0",
            "--subset-seeds", "0,1", "--out", out
        ]),
        ("growth", lambda out: [
            "growth", "--n-values", "4,5", "--densities", "0.3,0.5",
            "--instances", "3", "--out", out
        ]),
    ]
    for name, build in commands:
        first = tmp_path / f"{name}.a"
        second = tmp_path / f"{name}.b"
        code_a = main(build(str(first)))
        code_b = main(build(str(second)))
        assert code_a == code_b
        assert code_a in (0, 3)
        assert first.read_bytes() == second.read_bytes(), name
    print("PASS determinism: all CLI subcommands byte-identical across repeated runs")
