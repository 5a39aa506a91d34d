"""The driver calls replayed through each module's public functions.

``replay_compare`` does the work of ``run_compare(..., methods=(method,))``
and ``replay_growth`` that of ``run_growth``, one public call at a time, so
that the traced run can put a span around each layer and count what it did.
The replay also returns the plans, which the driver calls do not expose;
the output checks use them. The worker checks that the replay's rows and
path counts equal the driver's, so the replay cannot drift from the program
unnoticed.
"""

from __future__ import annotations

import math

import venroute as v
from venroute.errors import EnumerationCapError
from venroute.pathenum import DEFAULT_CAP

GROWTH_ROUTE_FACTOR = 3  # run_growth defaults
GROWTH_ROUTE_CAP = 2
GROWTH_ENUM_CAP = 200_000


def _prepare(sc, tracer):
    with tracer.span("network.normalize"):
        routes = v.normalize_routes(sc.network, sc.routes)
    with tracer.span("network.accessibility"):
        acc = v.build_accessibility_graph(sc.network, routes)
    with tracer.span("network.prune"):
        pruned, _blocked = v.prune_unreachable(sc.network, acc, sc.destination)
    tracer.count("network.accessibility_arcs", len(acc.arcs))
    return routes, acc, pruned


def _enumerate(sc, routes, acc, pruned, cap, tracer):
    """Full enumeration as enumerate_paths does it: sequences, then expansion."""
    with tracer.span("pathenum.sequences"):
        seqs = v.enumerate_sequences(pruned, sc.source, sc.destination, cap=cap)
    tracer.count("pathenum.sequences", len(seqs))
    with tracer.span("pathenum.expand"):
        pathset = v.expand_to_paths(seqs, acc, sc.network, routes, cap=cap)
    tracer.count("pathenum.paths", len(pathset.paths))
    if tracer.enabled:
        with tracer.untimed():
            tracer.count("pathenum.combos", sum(
                math.prod(len(acc.segments[(i, j)]) for i, j in zip(seq, seq[1:]))
                for seq in seqs
            ))
    return pathset


def _solve(sc, routes, pathset, target, lp_sizes, tracer):
    problem = v.LossMinProblem(
        paths=pathset, params=sc.params, network=sc.network,
        routes=tuple(routes), target_kwh=target,
    )
    with tracer.span("rateopt.solve"):
        sol = v.solve_min_loss(problem)
    tracer.count("rateopt.lps")
    tracer.count("rateopt.highs_s", sol.diagnostics.get("solve_s", 0.0))
    tracer.count("rateopt.iterations", sol.diagnostics.get("iterations", 0))
    tracer.count("rateopt.infeasible", sol.status != "optimal")
    if tracer.enabled and pathset.paths:
        with tracer.untimed():
            if id(pathset) not in lp_sizes:
                lp = v.build_lp(problem)
                lp_sizes[id(pathset)] = (lp.a_ub.shape[0], lp.a_ub.nnz)
            rows, nnz = lp_sizes[id(pathset)]
            tracer.count("rateopt.rows", rows)
            tracer.count("rateopt.nnz", nnz)
    return sol


def replay_compare(case, method, tracer):
    """(rows, plans, normalized routes) of run_compare(case, methods=(method,))."""
    sc = case.scenario
    rows, plans, lp_sizes = [], [], {}
    with tracer.span("experiments.run_compare"):
        routes, acc, pruned = _prepare(sc, tracer)
        if method == "I":
            try:
                full = _enumerate(sc, routes, acc, pruned, DEFAULT_CAP, tracer)
            except EnumerationCapError:
                full = None
            for target in case.targets:
                if full is None:
                    rows.append([target, "I", "error:enumeration-cap", None, None, None])
                    continue
                sol = _solve(sc, routes, full, target, lp_sizes, tracer)
                if sol.status == "optimal":
                    delivered, loss = v.plan_totals(sol.plan)
                    used = sum(1 for e in sol.plan.entries if e.delivered_kwh > 1e-9)
                    rows.append([target, "I", "optimal", loss, delivered, used])
                    plans.append((f"I@{target}", sol.plan))
                else:
                    rows.append([target, "I", "infeasible", None, None, None])
        elif method == "II":
            subsets = []
            for seed in case.subset_seeds:
                with tracer.span("pathenum.bounded"):
                    subset = v.enumerate_bounded(
                        pruned, sc.source, sc.destination, acc, sc.network, routes,
                        limit=case.subset_limit, seed=seed,
                    )
                tracer.count("pathenum.bounded_calls")
                tracer.count("pathenum.bounded_paths", len(subset.paths))
                tracer.count("pathenum.bounded_complete", subset.complete)
                subsets.append(subset)
            for target in case.targets:
                losses, delivereds, used = [], [], []
                for k, subset in enumerate(subsets):
                    sol = _solve(sc, routes, subset, target, lp_sizes, tracer)
                    if sol.status == "optimal":
                        delivered, loss = v.plan_totals(sol.plan)
                        losses.append(loss)
                        delivereds.append(delivered)
                        used.append(len(subset.paths))
                        plans.append((f"II@{target}#{k}", sol.plan))
                if losses:
                    rows.append([
                        target, "II", "optimal", sum(losses) / len(losses),
                        sum(delivereds) / len(delivereds), sum(used) / len(used),
                    ])
                else:
                    rows.append([target, "II", "infeasible", None, None, None])
        else:
            for target in case.targets:
                with tracer.span("heuristic.call"):
                    result = v.heuristic_min_loss(
                        sc.network, list(routes), sc.params, target,
                        sc.source, sc.destination,
                    )
                tracer.count("heuristic.calls")
                tracer.count("heuristic.paths", len(result.plan.entries))
                tracer.count("heuristic.infeasible", result.status != "success")
                plans.append((f"III@{target}", result.plan))
                if result.status == "success":
                    rows.append([
                        target, "III", "optimal", result.loss_kwh,
                        result.delivered_kwh, result.paths_used,
                    ])
                else:
                    rows.append([target, "III", "infeasible", None, None, None])
    return rows, plans, routes


def replay_growth(study, tracer):
    """[(instance seed, path count, capped)] of run_growth over ``study``."""
    out = []
    with tracer.span("experiments.run_growth"):
        for n in study.n_values:
            for density in study.densities:
                for k in range(study.instances):
                    # the instance seed formula of run_growth
                    inst_seed = study.seed * 100003 + n * 1009 + int(density * 1000) * 7 + k
                    with tracer.span("scenarios.generate"):
                        sc = v.generate_random(
                            n_junctions=n, road_density=density,
                            route_length_cap=GROWTH_ROUTE_CAP,
                            route_count=GROWTH_ROUTE_FACTOR * n, seed=inst_seed,
                        )
                    routes, acc, pruned = _prepare(sc, tracer)
                    try:
                        n_paths = len(
                            _enumerate(sc, routes, acc, pruned, GROWTH_ENUM_CAP, tracer).paths
                        )
                        capped = False
                    except EnumerationCapError:
                        n_paths, capped = 0, True
                    out.append((inst_seed, n_paths, capped))
    return out
