"""Rate-assignment LP: construction, optimality, feasibility, diagnostics."""

import re
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog
from scipy.optimize._highspy import _core as highs

from venroute import (
    ConsistencyError,
    generate_corridor,
    DomainError,
    EnergyParams,
    EnumerationCapError,
    Instance,
    SolverError,
    StructuralError,
    LossMinProblem,
    VehicularNetwork,
    VehicularRoute,
    build_energy_path,
    build_lp,
    enumerate_paths,
    generate_grid,
    generate_random,
    max_deliverable,
    plan_totals,
    solve_min_loss,
)
from venroute import rateopt
from venroute.pathenum import PathSet
from venroute.rateopt import _window_cap

from helpers import (
    dense_plan,
    oracle_arc_flows,
    oracle_assemble,
    oracle_min_loss,
    oracle_two_variable_lp,
    parallel_paths_instance,
    prepared,
)


def parallel_problem(target):
    network, routes, params, s, t = parallel_paths_instance()
    norm, acc, pruned, _ = prepared(network, routes, t)
    ps = enumerate_paths(pruned, s, t, acc, network, norm)
    return LossMinProblem(
        paths=ps, params=params, network=network, routes=norm, target_kwh=target
    ), ps


def path_ceilings(problem):
    w = problem.params.packet_kwh
    return [
        _window_cap(p, problem.params) * w * p.bottleneck_flow
        for p in problem.paths.paths
    ]


class TestBuildLp:
    def test_shape_and_labels(self):
        problem, ps = parallel_problem(100.0)
        lp = build_lp(problem)
        m = len(ps.paths)
        assert m == 3
        # one rate column per path; three arc-disjoint paths use six road arcs
        assert lp.a_ub.shape == (6 + 1, m)
        assert lp.caps.tolist() == [_window_cap(p, problem.params) for p in ps.paths]

    def test_objective_is_loss_ratio(self):
        problem, ps = parallel_problem(100.0)
        lp = build_lp(problem)
        z = problem.params.efficiency
        # a rate's cost is the loss of the energy it delivers
        for j, p in enumerate(ps.paths):
            assert lp.c[j] == pytest.approx((1 / z**p.cycles - 1) * lp.caps[j])
        assert lp.c.shape == (len(ps.paths),)

    def test_over_window_path_pinned_to_zero(self):
        network, routes, params, s, t = parallel_paths_instance()
        from dataclasses import replace

        tight = replace(params, window_s=700.0)  # only the 600 s direct path fits
        norm, acc, pruned, _ = prepared(network, routes, t)
        ps = enumerate_paths(pruned, s, t, acc, network, norm)
        # direct-path ceiling is (700-600)*0.9*0.01 = 0.9 kWh; stay below it
        problem = LossMinProblem(
            paths=ps, params=tight, network=network, routes=norm, target_kwh=0.5
        )
        lp = build_lp(problem)
        assert np.count_nonzero(lp.upper == 0.0) == 2
        sol = solve_min_loss(problem)
        assert sol.status == "optimal"
        # everything must ride the one in-window path (1 cycle)
        assert sol.objective == pytest.approx(0.5 * (1 / 0.9 - 1), rel=1e-6)

    def test_negative_target_rejected(self):
        network, routes, params, s, t = parallel_paths_instance()
        with pytest.raises(DomainError):
            LossMinProblem(
                paths=PathSet((), True),
                params=params,
                network=network,
                routes=(),
                target_kwh=-1.0,
            )

    @pytest.mark.parametrize("target", [float("nan"), float("inf")])
    def test_non_finite_target_rejected(self, target):
        with pytest.raises(DomainError):
            parallel_problem(target)

    @pytest.mark.parametrize(
        "flow", [float("nan"), -5.0, float("inf")], ids=["nan", "negative", "inf"]
    )
    def test_route_flow_must_be_finite_and_nonnegative(self, flow):
        # the arc rows' bounds sum the routes' flows; such a flow used to reach
        # the solver, which failed on NaN and answered for the others
        problem = two_segment_problem(0.0)
        r1, r2, r3 = problem.routes
        want = f"route 'r3': flow must be finite and nonnegative, got {flow}"
        with pytest.raises(StructuralError, match=re.escape(want)):
            replace(problem, routes=(r1, r2, replace(r3, flow=flow)))

    def test_arc_no_route_covers_keeps_a_zero_flow_row(self):
        # only r2, at flow 0, covers the path's second arc, mt: its row stays,
        # first in arc-id order, with flow 0, so the path can carry nothing
        problem = two_segment_problem(0.0)
        r1, r2, r3 = problem.routes
        routes = (r1, replace(r2, flow=0.0), r3)
        path = build_energy_path(
            problem.network, {r.route_id: r for r in routes}, problem.paths.paths[0].segments,
            "s", "t",
        )
        uncovered = replace(problem, paths=PathSet((path,), True), routes=routes)
        lp = build_lp(uncovered)
        assert lp.a_ub.shape == (3, 1)
        assert lp.b_ub.tolist() == [0.0, 0.1 + 0.5, -0.0]
        assert lp.a_ub.toarray()[:, 0].tolist() == [0.5, 0.5, -lp.caps[0]]
        assert solve_min_loss(uncovered).status == "optimal"
        assert solve_min_loss(replace(uncovered, target_kwh=1.0)).status == "infeasible"
        assert max_deliverable(uncovered) == 0.0


class TestSolve:
    def test_matches_grid_search_oracle(self):
        problem0, ps = parallel_problem(0.0)
        caps = path_ceilings(problem0)
        cycles = [p.cycles for p in ps.paths]
        z = problem0.params.efficiency
        total = sum(caps)
        for frac in (0.05, 0.25, 0.5, 0.75, 0.95):
            target = frac * total
            problem, _ = parallel_problem(target)
            sol = solve_min_loss(problem)
            assert sol.status == "optimal"
            expected = oracle_min_loss(caps, cycles, z, target)
            assert sol.objective == pytest.approx(expected, abs=1e-4)
            delivered, loss = plan_totals(sol.plan)
            assert loss == pytest.approx(sol.objective, abs=1e-6)
            assert delivered >= target - 1e-6

    def test_residuals_tiny(self):
        problem, ps = parallel_problem(500.0)
        sol = solve_min_loss(problem)
        assert sol.status == "optimal"
        assert sol.diagnostics["max_residual"] <= 1e-9

    def test_infeasible_above_capacity(self):
        problem0, _ = parallel_problem(0.0)
        total = sum(path_ceilings(problem0))
        problem, _ = parallel_problem(total * 1.01)
        sol = solve_min_loss(problem)
        assert sol.status == "infeasible"
        assert sol.plan is None and sol.objective is None

    def test_loss_monotone_in_target(self):
        problem0, _ = parallel_problem(0.0)
        total = sum(path_ceilings(problem0))
        losses = []
        for k in range(20):
            target = total * (k + 1) / 21.0
            problem, _ = parallel_problem(target)
            sol = solve_min_loss(problem)
            assert sol.status == "optimal"
            losses.append(sol.objective)
        assert all(a <= b + 1e-9 for a, b in zip(losses, losses[1:]))

    def test_empty_path_set(self):
        network, routes, params, s, t = parallel_paths_instance()
        empty = PathSet((), True)
        ok = solve_min_loss(
            LossMinProblem(paths=empty, params=params, network=network, routes=(), target_kwh=0.0)
        )
        assert ok.status == "optimal" and ok.objective == 0.0
        bad = solve_min_loss(
            LossMinProblem(paths=empty, params=params, network=network, routes=(), target_kwh=5.0)
        )
        assert bad.status == "infeasible"
        # an instance hands out an LP for an empty set too, with the same verdicts
        lp = Instance(generate_grid(4, 4, 10.0, 60.0, 20, ("const", 0.1), seed=4)).lp(empty)
        assert lp.a_ub.shape == (1, 0)
        assert (lp.solve(0.0).status, lp.solve(0.0).objective) == ("optimal", 0.0)
        assert lp.solve(0.0).plan.entries == ()
        assert lp.solve(5.0) == bad


class TestCapacityAndExport:
    def test_max_deliverable_equals_total_ceiling(self):
        problem, _ = parallel_problem(0.0)
        assert max_deliverable(problem) == pytest.approx(sum(path_ceilings(problem)), rel=1e-9)

    @pytest.mark.parametrize(
        "flow, seed, sampled",
        [(("const", 0.1), 4, True), (("uniform", 0.1, 0.3), 47, False)],
        ids=["grid4-sample", "grid47-full"],
    )
    def test_max_deliverable_ignores_the_target(self, flow, seed, sampled):
        # its LP is assembled at the problem's target, whose row bound it overrides
        inst = Instance(generate_grid(4, 4, 10.0, 60.0, 20, flow, seed=seed))
        sc = inst.scenario
        pathset = inst.sample(50, 0) if sampled else inst.paths()
        problem = LossMinProblem(pathset, sc.params, sc.network, inst.routes, 0.0)
        most = max_deliverable(problem)
        above = replace(problem, target_kwh=2.0 * most)
        assert most > 0.0 and solve_min_loss(above).status == "infeasible"
        for target in (0.5 * most, 2.0 * most):
            got = max_deliverable(replace(problem, target_kwh=target))
            assert got.hex() == most.hex()

    def test_max_deliverable_empty(self):
        network, routes, params, s, t = parallel_paths_instance()
        problem = LossMinProblem(
            paths=PathSet((), True), params=params, network=network, routes=(), target_kwh=0.0
        )
        assert max_deliverable(problem) == 0.0


class TestSharedArcCoupling:
    def test_two_paths_sharing_one_road_arc(self):
        # two single-segment paths whose routes traverse the same road arc:
        # the coupled rate bound caps total throughput at the arc flow sum
        net = VehicularNetwork.build(
            ["s", "t"], [("st", "s", "t", 600.0)]
        )
        routes = (
            VehicularRoute("r1", ("st",), 0.1),
            VehicularRoute("r2", ("st",), 0.3),
        )
        norm, acc, pruned, _ = prepared(net, routes, "t")
        ps = enumerate_paths(pruned, "s", "t", acc, net, norm)
        assert len(ps.paths) == 2
        params = EnergyParams(1.0, 0.9, 1.0, 18000.0)
        problem = LossMinProblem(
            paths=ps, params=params, network=net, routes=norm, target_kwh=0.0
        )
        cap_coeff = (18000.0 - 600.0) * 0.9  # same 1-cycle coefficient per path
        # per-path rate caps allow 0.1 + 0.3, and the shared arc allows the
        # same total, so capacity equals cap_coeff * 0.4
        assert max_deliverable(problem) == pytest.approx(cap_coeff * 0.4, rel=1e-9)
        lp = build_lp(problem)
        # rows: one per used road arc, then the target
        assert lp.a_ub.shape == (2, 2)
        np.testing.assert_allclose(lp.a_ub[0].toarray().ravel(), [1.0, 1.0])
        assert lp.b_ub[0] == pytest.approx(0.4)
        np.testing.assert_allclose(lp.a_ub[1].toarray().ravel(), [-cap_coeff, -cap_coeff])
        # each rate is bounded by w times its path's bottleneck flow
        assert lp.upper.tolist() == [1.0 * p.bottleneck_flow for p in ps.paths]


def two_segment_problem(target):
    # one path s -> m -> t riding r1 (flow 0.1) then r2 (flow 0.3); r3 also
    # drives s -> m, so neither road arc's total flow is the binding rate cap
    net = VehicularNetwork.build(
        ["s", "m", "t"], [("sm", "s", "m", 600.0), ("mt", "m", "t", 600.0)]
    )
    routes = (
        VehicularRoute("r1", ("sm",), 0.1),
        VehicularRoute("r2", ("mt",), 0.3),
        VehicularRoute("r3", ("sm",), 0.5),
    )
    path = build_energy_path(
        net, {r.route_id: r for r in routes}, [("r1", 1, 1), ("r2", 1, 1)], "s", "t"
    )
    params = EnergyParams(2.0, 0.9, 1.0, 18000.0)
    return LossMinProblem(
        paths=PathSet((path,), True), params=params, network=net, routes=routes,
        target_kwh=target,
    )


def lp_arrays(lp):
    return lp.c, lp.indptr, lp.indices, lp.data, lp.b_ub, lp.upper, lp.caps


class TestArcFlows:
    """The LP's columns sum each arc's flow from the routes: the arc rows' bounds."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: generate_grid(4, 4, 10.0, 60.0, 20, ("const", 0.1), seed=4),
            lambda: generate_grid(4, 4, 10.0, 60.0, 20, ("uniform", 0.1, 0.3), seed=47),
            lambda: generate_corridor(rows=6, cols=15, kept_edges=110, route_count=300, seed=0),
        ],
        ids=["grid4", "grid47", "corridor-small"],
    )
    def test_each_arcs_flow_is_its_routes_sum_in_route_order(self, make):
        inst = Instance(make())
        flows = oracle_arc_flows(inst.routes)
        want = [flows.get(a, 0.0) for a in sorted(inst.scenario.network.arc_by_id)]
        assert np.array(inst._columns.flows).tobytes() == np.array(want).tobytes()

    def test_a_route_listing_an_arc_twice_counts_once(self):
        problem = two_segment_problem(0.0)
        r1, r2, r3 = problem.routes
        twice = replace(problem, routes=(replace(r1, arcs=("sm", "sm")), r2, r3))
        lp = build_lp(twice)
        assert lp.b_ub.tolist() == [0.3, 0.1 + 0.5, -0.0]
        for got, want in zip(lp_arrays(lp), lp_arrays(build_lp(problem))):
            assert_same_array(got, want)

    def test_a_route_off_the_network_changes_no_lp_array(self):
        problem = two_segment_problem(250.0)
        extra = replace(problem, routes=problem.routes + (VehicularRoute("r4", ("ghost",), 0.7),))
        for got, want in zip(lp_arrays(build_lp(extra)), lp_arrays(build_lp(problem))):
            assert_same_array(got, want)


class TestRateBounds:
    def test_bottleneck_flow_is_a_bound_not_rows(self):
        lp = build_lp(two_segment_problem(0.0))
        used_arcs = 2
        assert lp.upper[0] == 2.0 * 0.1
        assert lp.a_ub.shape == (used_arcs + 1, 1)
        # at the two-cycle capacity the rate sits on its bound
        capacity = (18000.0 - 1200.0) * 0.9**2 * 0.2
        sol = solve_min_loss(two_segment_problem(capacity * (1 - 1e-9)))
        assert sol.status == "optimal"
        assert sol.plan.entries[0].rate == pytest.approx(0.2, rel=1e-6)
        assert sol.diagnostics["max_residual"] <= 1e-9

    def test_residual_counts_rate_bound_violations(self, monkeypatch):
        # points that satisfy every row but exceed the rate bound 0.2: a
        # violation within the tolerance is reported, a larger one rejected
        fake = SimpleNamespace(x=np.array([0.2 + 5e-7]))
        monkeypatch.setattr(rateopt, "_run_highs", lambda model, bound: ("optimal", fake.x, 0))
        sol = solve_min_loss(two_segment_problem(0.0))
        assert sol.diagnostics["max_residual"] == pytest.approx(5e-7)
        fake.x = np.array([0.25])
        with pytest.raises(ConsistencyError, match="violates its constraints by 0.05"):
            solve_min_loss(two_segment_problem(0.0))

    def test_residual_counts_negative_rates(self, monkeypatch):
        # points that satisfy every row, the second path delivering the target,
        # but put the first path's rate below 0: a violation within the
        # tolerance is reported and its path left out of the plan, a larger
        # one rejected
        problem, ps = parallel_problem(0.0)
        fake = SimpleNamespace(x=np.array([-5e-7, 0.1, 0.0]))
        monkeypatch.setattr(rateopt, "_run_highs", lambda model, bound: ("optimal", fake.x, 0))
        sol = solve_min_loss(problem)
        assert sol.diagnostics["max_residual"] == pytest.approx(5e-7)
        assert [e.path for e in sol.plan.entries] == [ps.paths[1]]
        fake.x = np.array([-0.05, 0.1, 0.0])
        with pytest.raises(ConsistencyError, match="violates its constraints by 0.05"):
            solve_min_loss(problem)

    def test_violating_solution_rejected(self, monkeypatch):
        # the solver's own point, with every rate and so every delivery scaled down by ``shrink``,
        # misses the target by shrink * target; the tolerance is 1e-6 * target
        problem, _ = parallel_problem(500.0)
        run_highs = rateopt._run_highs

        def perturbed(model, bound):
            status, g, iterations = run_highs(model, bound)
            return status, g * (1 - shrink), iterations

        monkeypatch.setattr(rateopt, "_run_highs", perturbed)
        shrink = 1e-7
        sol = solve_min_loss(problem)
        assert sol.diagnostics["max_residual"] == pytest.approx(500.0 * shrink, rel=1e-3)
        shrink = 1e-5
        with pytest.raises(ConsistencyError, match="violates its constraints"):
            solve_min_loss(problem)


class TestRetarget:
    def test_retargeted_lp_equals_build_lp(self, monkeypatch):
        # the LP HiGHS holds when it solves each target is build_lp's at that
        # target, whether each target gets a model or one model serves them
        # all, and solving never changes the assembled LP
        problem, _ = parallel_problem(100.0)
        lp = build_lp(problem)
        before = lp.b_ub.copy()
        held = []
        run_highs = rateopt._run_highs

        def spy(model, bound):
            verdict = run_highs(model, bound)
            held.append(model.getLp())
            return verdict

        monkeypatch.setattr(rateopt, "_run_highs", spy)
        targets = (0.0, 250.0, 10**5, 3000.0)  # the third is infeasible
        for target in targets:
            lp.solve(target)
        assert [s.status for s in lp.sweep(targets)].count("infeasible") == 1
        assert len(held) == 2 * len(targets)
        for target, model in zip(targets * 2, held):
            fresh = build_lp(replace(problem, target_kwh=target))
            a = fresh.a_ub
            assert (model.num_col_, model.num_row_) == (a.shape[1], a.shape[0])
            assert np.array_equal(model.col_cost_, fresh.c)
            assert np.array_equal(model.col_lower_, np.zeros_like(fresh.upper))
            assert np.array_equal(model.col_upper_, fresh.upper)
            assert np.array_equal(model.row_lower_, np.full(a.shape[0], -highs.kHighsInf))
            assert np.array_equal(model.row_upper_, fresh.b_ub)
            matrix = model.a_matrix_
            assert np.array_equal(matrix.start_, a.indptr)
            assert np.array_equal(matrix.index_, a.indices)
            assert np.array_equal(matrix.value_, a.data)
            # only the target row's bound depends on the target
            assert np.array_equal(lp.b_ub[:-1], fresh.b_ub[:-1])
            assert fresh.b_ub[-1] == -target
        assert np.array_equal(lp.b_ub, before)  # solving leaves the LP alone

    def test_solve_over_retargeted_lp_equals_solve_min_loss(self):
        problem, _ = parallel_problem(0.0)
        lp = build_lp(problem)
        before = lp.b_ub.copy()
        verdicts = set()
        for target in (50.0, 1200.0, 2900.0, 10**5):
            at = replace(problem, target_kwh=target)
            got = lp.solve(target)
            want = solve_min_loss(at)
            assert (got.status, got.objective) == (want.status, want.objective)
            assert got.plan == want.plan
            verdicts.add(got.status)
        assert verdicts == {"optimal", "infeasible"}
        assert np.array_equal(lp.b_ub, before)

    @pytest.mark.parametrize("target", [-1.0, float("nan"), float("inf")])
    def test_bad_target_rejected(self, target):
        problem, _ = parallel_problem(0.0)
        with pytest.raises(DomainError, match="energy target must be finite and nonnegative"):
            build_lp(problem).solve(target)


class TestSolverStatuses:
    def test_malformed_model_is_an_error_not_a_verdict(self, monkeypatch):
        problem, _ = parallel_problem(100.0)
        lp = build_lp(problem)
        bad = lp.indices.copy()
        bad[0] = len(lp.b_ub) + 5  # a row the model does not have
        with pytest.raises(SolverError, match="Model error"):
            rateopt._highs_model(lp.c, replace(lp, indices=bad))
        # a sweep never runs a model HiGHS refuses
        runs = []
        monkeypatch.setattr(rateopt, "_run_highs", lambda *a: runs.append(a))
        with pytest.raises(SolverError, match="Model error"):
            next(replace(lp, indices=bad).sweep((100.0, 200.0)))
        assert runs == []

    def test_unbounded_or_infeasible_is_an_error_not_a_verdict(self, monkeypatch):
        class Undecided(highs._Highs):
            def getModelStatus(self):
                return highs.HighsModelStatus.kUnboundedOrInfeasible

        monkeypatch.setattr(highs, "_Highs", Undecided)
        problem, _ = parallel_problem(100.0)
        lp = build_lp(problem)
        with pytest.raises(SolverError, match="infeasible or unbounded"):
            rateopt._run_highs(rateopt._highs_model(lp.c, lp), -100.0)
        with pytest.raises(SolverError):
            solve_min_loss(problem)


def spy_on_solves(monkeypatch):
    """(the real per-target solve, the list that each solve's verdict is appended to)."""
    run_highs, verdicts = rateopt._run_highs, []

    def spy(model, bound):
        verdicts.append(run_highs(model, bound))
        return verdicts[-1]

    monkeypatch.setattr(rateopt, "_run_highs", spy)
    return run_highs, verdicts


def assert_sweep_equals_single_solves(lp, targets, verdicts):
    # a solve on the sweep's one model, after any target and any verdict,
    # gives what a fresh model solving only that target gives: the verdict,
    # the exact point, the objective, the plan and the simplex iterations
    # (an empty path set needs no solver: its verdicts are exact)
    solves = len(targets) if lp.paths.paths else 0
    verdicts.clear()
    swept = list(lp.sweep(targets))
    swept_points = [x for _status, x, _its in verdicts] or [None] * len(targets)
    assert len(swept) == len(swept_points) == len(targets) and len(verdicts) == solves
    for target, got, got_x in zip(targets, swept, swept_points):
        verdicts.clear()
        want = lp.solve(target)
        (want_x,) = [x for _status, x, _its in verdicts] or [None]
        assert (got.status, got.objective, got.plan) == (want.status, want.objective, want.plan)
        assert np.array_equal(got_x, want_x) if want_x is not None else got_x is None
        for key in ("iterations", "max_residual"):
            assert got.diagnostics.get(key) == want.diagnostics.get(key)
    return swept


SWEEP_CASES = {
    "grid4": (
        lambda: generate_grid(4, 4, 10.0, 60.0, 20, ("const", 0.1), seed=4),
        True, 50, range(20), (1.0, 2900.0, 500.0, 2457.0),
    ),
    "grid47": (
        lambda: generate_grid(4, 4, 10.0, 60.0, 20, ("uniform", 0.1, 0.3), seed=47),
        True, 50, range(20), (1.0, 3500.0, 500.0, 2457.0, 2900.0),
    ),
    "corridor-small": (
        lambda: generate_corridor(rows=6, cols=15, kept_edges=110, route_count=300, seed=0),
        False, 30, range(4), (200.0, 1e6, 500.0, 16000.0),
    ),
}


@pytest.mark.parametrize("case", list(SWEEP_CASES))
def test_sweep_equals_single_solves(case, monkeypatch):
    # every LP of the comparison sweep, the full set and every distinct
    # subset, over targets with an infeasible one in the middle
    make, full, limit, seeds, targets = SWEEP_CASES[case]
    inst = Instance(make())
    samples = [inst.sample(limit, k) for k in seeds]
    pathsets = dict.fromkeys(([inst.paths()] if full else []) + samples)
    _run_highs, verdicts = spy_on_solves(monkeypatch)
    statuses = set()
    for pathset in pathsets:
        swept = assert_sweep_equals_single_solves(inst.lp(pathset), targets, verdicts)
        statuses.update((target, sol.status) for target, sol in zip(targets, swept))
    # the infeasible target follows a feasible one and precedes another
    assert (targets[1], "infeasible") in statuses and (targets[2], "optimal") in statuses


@pytest.mark.parametrize("case", ["grid47", "corridor-small"])
def test_residual_rows_equal_scipy_product(case, monkeypatch):
    # grid 47's method-I LP and the small corridor's sampled LPs: at each
    # solver point, and at a random point, A_ub @ g - b_ub from the LP's
    # arrays is SciPy's, float for float
    make, full, limit, seeds, targets = SWEEP_CASES[case]
    inst = Instance(make())
    pathsets = [inst.paths()] if full else dict.fromkeys(inst.sample(limit, k) for k in seeds)
    _run_highs, verdicts = spy_on_solves(monkeypatch)
    rng = np.random.default_rng(0)
    for pathset in pathsets:
        lp = inst.lp(pathset)
        verdicts.clear()
        list(lp.sweep(targets))
        points = [(t, x) for t, (_status, x, _its) in zip(targets, verdicts) if x is not None]
        points.append((targets[0], rng.uniform(0.0, lp.upper.max(), len(lp.c))))
        assert len(points) > 1
        for target, g in points:
            b_ub = np.append(lp.b_ub[:-1], -target)
            np.testing.assert_array_equal(lp._a_ub_times(g) - b_ub, lp.a_ub @ g - b_ub)


@settings(max_examples=30, deadline=None)
@given(
    rows=st.integers(min_value=2, max_value=4),
    cols=st.integers(min_value=2, max_value=4),
    low=st.floats(min_value=0.05, max_value=0.3),
    seed=st.integers(min_value=0, max_value=10**6),
    fractions=st.lists(st.floats(min_value=0.0, max_value=1.3), min_size=1, max_size=6),
)
def test_sweep_equals_single_solves_on_small_grids(rows, cols, low, seed, fractions):
    sc = generate_grid(rows, cols, 10.0, 60.0, 2 * rows * cols, ("uniform", low, 0.3), seed=seed)
    inst = Instance(sc)
    try:
        pathset = inst.paths(cap=2000)
    except EnumerationCapError:
        return
    most = max_deliverable(LossMinProblem(pathset, sc.params, sc.network, inst.routes, 0.0))
    with pytest.MonkeyPatch.context() as monkeypatch:
        _run_highs, verdicts = spy_on_solves(monkeypatch)
        targets = list(dict.fromkeys(f * most for f in fractions))
        for lp in (inst.lp(pathset), inst.lp(inst.sample(5, seed))):
            assert_sweep_equals_single_solves(lp, targets, verdicts)


@pytest.mark.parametrize(
    "flow, seed", [(("const", 0.1), 4), (("uniform", 0.1, 0.3), 47)], ids=["grid4", "grid47"]
)
def test_direct_highs_matches_linprog(flow, seed, monkeypatch):
    # every LP the comparison sweep assembles, at every paper target and one
    # infeasible one: the direct call on a fresh model, and the sweep on one
    # model, return linprog's verdict and exact point
    inst = Instance(generate_grid(4, 4, 10.0, 60.0, 20, flow, seed=seed))
    pathsets = [inst.paths()] + [inst.sample(50, k) for k in range(20)]
    targets = (1.0, 500.0, 3500.0, 2457.0, 2900.0)
    run_highs, swept = spy_on_solves(monkeypatch)
    for pathset in pathsets:
        lp = inst.lp(pathset)
        bounds = list(zip(np.zeros_like(lp.upper), lp.upper))
        swept.clear()
        for _ in lp.sweep(targets):
            pass
        for target, (swept_status, swept_x, _) in zip(targets, swept):
            at = replace(lp, b_ub=np.concatenate([lp.b_ub[:-1], [-target]]))
            want = linprog(
                at.c, A_ub=at.a_ub.tocsr(), b_ub=at.b_ub, bounds=bounds, method="highs",
                options={"presolve": False, "primal_feasibility_tolerance": 1e-10},
            )
            status, x, _ = run_highs(rateopt._highs_model(at.c, at), -target)
            assert (status, want.status) in (("optimal", 0), ("infeasible", 2))
            assert np.array_equal(x, want.x)
            assert swept_status == status
            assert np.array_equal(swept_x, want.x)


def assert_matches_two_variable_lp(inst, pathset, targets):
    lp, flows = inst.lp(pathset), oracle_arc_flows(inst.routes)
    for target in targets:
        got = lp.solve(target)
        want = oracle_two_variable_lp(pathset.paths, inst.scenario.params, flows, target)
        assert got.status == want[0]
        if want[1] is not None:
            assert got.objective == pytest.approx(want[1], rel=1e-9, abs=1e-12)


@pytest.mark.parametrize(
    "flow, seed", [(("const", 0.1), 4), (("uniform", 0.1, 0.3), 47)], ids=["grid4", "grid47"]
)
def test_rates_only_lp_matches_two_variable_lp(flow, seed):
    # putting x_j = cap_j * g_j keeps every verdict and optimum of the LP over
    # x and g, on every LP the comparison sweep assembles
    inst = Instance(generate_grid(4, 4, 10.0, 60.0, 20, flow, seed=seed))
    pathsets = dict.fromkeys([inst.paths()] + [inst.sample(50, k) for k in range(20)])
    for pathset in pathsets:
        assert_matches_two_variable_lp(inst, pathset, (1.0, 500.0, 2457.0, 2900.0, 3500.0))


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=3, max_value=8),
    density=st.floats(min_value=0.2, max_value=1.0),
    length_cap=st.integers(min_value=1, max_value=4),
    route_count=st.integers(min_value=5, max_value=25),
    seed=st.integers(min_value=0, max_value=10**6),
    fractions=st.lists(st.floats(min_value=0.0, max_value=1.2), min_size=1, max_size=4),
)
def test_rates_only_lp_matches_two_variable_lp_on_random_instances(
    n, density, length_cap, route_count, seed, fractions
):
    inst = Instance(generate_random(n, density, length_cap, route_count, seed))
    try:
        pathset = inst.paths(cap=500)
    except EnumerationCapError:
        return
    # targets up to 20% past the most the path set can deliver
    network, routes = inst.scenario.network, inst.routes
    most = max_deliverable(LossMinProblem(pathset, inst.scenario.params, network, routes, 0.0))
    assert_matches_two_variable_lp(inst, pathset, [f * most for f in fractions])


def assert_same_array(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_assembled_like_oracle(lp, params, arc_flows, target=0.0):
    c, a_ub, b_ub, upper, caps = oracle_assemble(lp.paths, params, arc_flows, target)
    # the LP's CSC arrays, and the SciPy matrix built from them on read
    assert type(lp.a_ub) is type(a_ub) and lp.a_ub.shape == a_ub.shape
    for got, want in [
        (lp.c, c), (lp.indptr, a_ub.indptr), (lp.indices, a_ub.indices), (lp.data, a_ub.data),
        (lp.a_ub.indptr, a_ub.indptr), (lp.a_ub.indices, a_ub.indices),
        (lp.a_ub.data, a_ub.data), (lp.b_ub, b_ub), (lp.upper, upper), (lp.caps, caps),
    ]:
        assert_same_array(got, want)


def assert_assemblies_match_oracle(inst, pathsets, targets=(0.0, 500.0)):
    # an instance's own columns, and build_lp's from its routes, at each target
    sc, flows = inst.scenario, oracle_arc_flows(inst.routes)
    for pathset in pathsets:
        assert_assembled_like_oracle(inst.lp(pathset), sc.params, flows)
        for target in targets:
            problem = LossMinProblem(pathset, sc.params, sc.network, inst.routes, target)
            assert_assembled_like_oracle(build_lp(problem), sc.params, flows, target)


@pytest.mark.parametrize(
    "flow, seed", [(("const", 0.1), 4), (("uniform", 0.1, 0.3), 47)], ids=["grid4", "grid47"]
)
def test_assembly_matches_string_keyed_oracle_on_grids(flow, seed):
    # the full path set and every distinct subset of the comparison sweep
    inst = Instance(generate_grid(4, 4, 10.0, 60.0, 20, flow, seed=seed))
    pathsets = dict.fromkeys([inst.paths()] + [inst.sample(50, k) for k in range(20)])
    assert_assemblies_match_oracle(inst, pathsets)
    # the same sets under other parameters get that instance's columns
    sc = inst.scenario
    other = Instance(replace(sc, params=replace(sc.params, packet_kwh=2.0, window_s=9000.0)))
    flows = oracle_arc_flows(other.routes)
    for pathset in pathsets:
        assert_assembled_like_oracle(other.lp(pathset), other.scenario.params, flows)


def grid47():
    return Instance(generate_grid(4, 4, 10.0, 60.0, 20, ("uniform", 0.1, 0.3), seed=47))


def test_an_edited_set_assembles_and_solves_like_a_fresh_one():
    # a path set is only its paths: shortened or reversed, its LP is that of
    # a PathSet built from the same paths, row for row and column for column
    inst = grid47()
    params, flows = inst.scenario.params, oracle_arc_flows(inst.routes)
    ps = inst.sample(50, 0)
    for edited in (replace(ps, paths=ps.paths[:3]), replace(ps, paths=ps.paths[::-1])):
        fresh = PathSet(edited.paths, edited.complete)
        lp, fresh_lp = inst.lp(edited), inst.lp(fresh)
        assert_assembled_like_oracle(lp, params, flows)
        assert_assembled_like_oracle(fresh_lp, params, flows)
        for target in (200.0, 500.0):
            got, want = lp.solve(target), fresh_lp.solve(target)
            assert got.status == want.status == "optimal"
            assert got.objective == want.objective
            assert plan_totals(got.plan) == plan_totals(want.plan)


def test_a_path_off_the_network_is_a_domain_error_naming_the_arc():
    inst = grid47()
    sc = inst.scenario
    foreign = Instance(generate_grid(3, 6, 10.0, 60.0, 20, ("uniform", 0.1, 0.3), seed=47))
    pathset = foreign.sample(20, 0)
    # the paths ride the foreign routes, over arcs that this network lacks
    problem = LossMinProblem(pathset, sc.params, sc.network, foreign.routes, 200.0)
    for build in (inst.lp, lambda _: build_lp(problem), lambda _: max_deliverable(problem)):
        with pytest.raises(DomainError, match="which the network lacks") as error:
            build(pathset)
        arc = str(error.value).split("'")[1]
        assert arc not in sc.network.arc_by_id
        assert arc in foreign.scenario.network.arc_by_id


def test_a_path_on_a_route_not_given_is_a_domain_error():
    # that route's flow would bound no arc row: given no routes, every row used
    # to get a flow of 0, and the LP came out infeasible
    inst = grid47()
    sc = inst.scenario
    full = inst.paths()
    given = LossMinProblem(full, sc.params, sc.network, inst.routes, 5.0)
    assert solve_min_loss(given).status == "optimal"
    first = full.paths[0].segments[0][0]
    without_r01 = tuple(r for r in inst.routes if r.route_id != "r01")
    for routes, rid in (((), first), (without_r01, "r01")):
        with pytest.raises(DomainError, match=f"rides route '{rid}', which the problem's routes"):
            replace(given, routes=routes)


def test_a_route_that_rides_other_arcs_is_a_domain_error():
    # a route that keeps a path's route id but rides other arcs would bound,
    # with its flow, the rows of arcs that the path never rides
    problem = two_segment_problem(0.0)
    r1, r2, r3 = problem.routes
    long_r2 = replace(r2, arcs=("sm", "mt"))
    second = build_energy_path(
        problem.network, {"r1": r1, "r2": long_r2}, [("r1", 1, 1), ("r2", 2, 2)], "s", "t"
    )
    replace(problem, paths=PathSet((second,), True), routes=(r1, long_r2, r3))  # its own routes
    for paths, given, segment in (
        (problem.paths, replace(r2, arcs=()), "r2:1:1"),
        (problem.paths, replace(r2, arcs=("sm",)), "r2:1:1"),
        (PathSet((second,), True), r2, "r2:2:2"),  # past the end of r2's one arc
    ):
        want = f"path segment {segment} rides arcs off route 'r2'"
        with pytest.raises(DomainError, match=re.escape(want)):
            replace(problem, paths=paths, routes=(r1, given, r3))
    path = problem.paths.paths[0]
    longer = PathSet((replace(path, arc_ids=path.arc_ids + ("mt",)),), True)
    with pytest.raises(DomainError, match="path lists 3 arcs, its segments span 2"):
        replace(problem, paths=longer)


def test_assembly_matches_string_keyed_oracle_on_corridor():
    inst = Instance(generate_corridor(seed=0))
    pathsets = dict.fromkeys(inst.sample(30, k) for k in range(15))
    assert_assemblies_match_oracle(inst, pathsets, targets=(2000.0,))


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=3, max_value=8),
    density=st.floats(min_value=0.2, max_value=1.0),
    length_cap=st.integers(min_value=1, max_value=4),
    route_count=st.integers(min_value=5, max_value=25),
    seed=st.integers(min_value=0, max_value=10**6),
    limit=st.integers(min_value=1, max_value=20),
)
def test_assembly_matches_string_keyed_oracle_on_random_instances(
    n, density, length_cap, route_count, seed, limit
):
    inst = Instance(generate_random(n, density, length_cap, route_count, seed))
    try:
        full = inst.paths(cap=500)
    except EnumerationCapError:
        full = PathSet((), True)
    assert_assemblies_match_oracle(inst, [full, inst.sample(limit, seed)], targets=(1.0,))


CARRY_CASES = {
    "grid4": lambda: generate_grid(4, 4, 10.0, 60.0, 20, ("const", 0.1), seed=4),
    "grid47": lambda: generate_grid(4, 4, 10.0, 60.0, 20, ("uniform", 0.1, 0.3), seed=47),
    # at its capacity, one column of the full LP sits at the solver's round-off
    "rand55": lambda: generate_random(8, 0.35, 4, 24, seed=55),
}


@pytest.mark.parametrize("case", list(CARRY_CASES))
def test_plans_hold_only_paths_that_carry_energy(case, monkeypatch):
    # on every LP of the comparison sweep, at the paper's targets and at the
    # full set's capacity, the plan holds exactly the entries of the plan of
    # every column at the same solver point that deliver more than 1e-9 kWh or
    # run at more than 1e-12 kWh/s, and so it has their totals
    inst = Instance(CARRY_CASES[case]())
    sc, full = inst.scenario, inst.paths()
    top = max_deliverable(LossMinProblem(full, sc.params, sc.network, inst.routes, 0.0))
    pathsets = dict.fromkeys([full] + [inst.sample(50, k) for k in range(20)])
    _run_highs, verdicts = spy_on_solves(monkeypatch)
    solved = round_off = 0
    for pathset in pathsets:
        lp = inst.lp(pathset)
        for target in (1.0, 500.0, 2457.0, 2900.0, top):
            sol = lp.solve(target)
            if sol.status != "optimal":
                continue
            solved += 1
            _status, point, _iterations = verdicts[-1]
            dense = dense_plan(lp, point)
            carrying = [e for e in dense.entries if e.delivered_kwh > 1e-9 or e.rate > 1e-12]
            assert sol.plan.entries == tuple(carrying)
            assert plan_totals(sol.plan) == plan_totals(replace(dense, entries=tuple(carrying)))
            round_off += sum(1 for e in dense.entries if e.rate > 0.0) - len(carrying)
    assert solved > len(pathsets)
    if case == "rand55":
        assert round_off > 0
