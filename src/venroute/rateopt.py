"""Loss-minimizing rate assignment over a path set, as a linear program.

Variables are per-path delivered energy x_j and rate g_j. The objective is
total conversion loss; constraints cap x_j by the window capacity at rate
g_j, cap g_j by each segment's EV flow, cap aggregate rate per road arc by
its total flow, and require the delivered total to meet the energy target.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .energy import EnergyParams, PlanEntry, TransmissionPlan, make_plan
from .energy import window_cap as _window_cap
from .errors import DomainError, SolverError
from .network import VehicularNetwork, VehicularRoute, arc_flow_table
from .pathenum import PathSet

OBJECTIVE_TOL = 1e-6
FEASIBILITY_TOL = 1e-9

_HIGHS_OPTIONS = {"presolve": True, "primal_feasibility_tolerance": 1e-10}


@dataclass(frozen=True)
class LossMinProblem:
    paths: PathSet
    params: EnergyParams
    network: VehicularNetwork
    routes: tuple[VehicularRoute, ...]
    target_kwh: float

    def __post_init__(self):
        if not (0.0 <= self.target_kwh < math.inf):
            raise DomainError("energy target must be finite and nonnegative")


@dataclass(frozen=True)
class LpInstance:
    """Assembled LP: minimize c @ v s.t. A_ub @ v <= b_ub, bounds on v.

    Variables are ordered [x_0..x_{m-1}, g_0..g_{m-1}].
    """

    c: np.ndarray
    a_ub: sparse.csr_matrix
    b_ub: np.ndarray
    bounds: tuple[tuple[float, float | None], ...]


@dataclass(frozen=True)
class LpSolution:
    status: str  # "optimal" | "infeasible"
    plan: TransmissionPlan | None
    objective: float | None
    diagnostics: dict = field(default_factory=dict)


def build_lp(problem: LossMinProblem) -> LpInstance:
    """Assemble the LP; rows are ordered caps, segments, shared arcs, target."""
    paths = problem.paths.paths
    params = problem.params
    w = params.packet_kwh
    z = params.efficiency
    m = len(paths)
    routes_by_id = {r.route_id: r for r in problem.routes}

    c = np.zeros(2 * m)
    for j, p in enumerate(paths):
        c[j] = 1.0 / z**p.cycles - 1.0 if z > 0 else 0.0

    caps = [_window_cap(p, params) for p in paths]
    rows: list[tuple[dict[int, float], float]] = []
    # window capacity: x_j - cap_j * g_j <= 0
    for j, cap in enumerate(caps):
        rows.append(({j: 1.0, m + j: -cap}, 0.0))
    # per-segment flow: g_j <= w * f_i^j
    for j, p in enumerate(paths):
        for rid, _, _ in p.segments:
            rows.append(({m + j: 1.0}, w * routes_by_id[rid].flow))
    # shared-arc coupling: sum_j g_j / w <= h_a for each road arc used
    used_arcs = sorted({a for p in paths for a in p.arc_ids})
    arc_flows = arc_flow_table(problem.routes)
    for a in used_arcs:
        coeffs = {m + j: 1.0 / w for j, p in enumerate(paths) if a in p.arc_ids}
        rows.append((coeffs, arc_flows.get(a, 0.0)))
    # delivery target: -sum x_j <= -target
    rows.append(({j: -1.0 for j in range(m)}, -problem.target_kwh))

    data, ri, ci = [], [], []
    b_ub = np.empty(len(rows))
    for k, (coeffs, rhs) in enumerate(rows):
        for col, val in coeffs.items():
            ri.append(k)
            ci.append(col)
            data.append(val)
        b_ub[k] = rhs
    a_ub = sparse.csr_matrix((data, (ri, ci)), shape=(len(rows), 2 * m))

    # paths past the window carry nothing, but stay in the instance
    bounds = [(0.0, 0.0) if cap == 0.0 else (0.0, None) for cap in caps]
    bounds.extend((0.0, None) for _ in paths)
    return LpInstance(c=c, a_ub=a_ub, b_ub=b_ub, bounds=tuple(bounds))


def _run_linprog(c, lp: LpInstance, extra_rows=None, extra_rhs=None, fixed=None):
    a_ub, b_ub = lp.a_ub, lp.b_ub
    if extra_rows is not None:
        a_ub = sparse.vstack([a_ub, sparse.csr_matrix(np.atleast_2d(extra_rows))])
        b_ub = np.concatenate([b_ub, np.atleast_1d(extra_rhs)])
    bounds = list(lp.bounds)
    if fixed:
        for idx, val in fixed.items():
            bounds[idx] = (val, val)
    return linprog(
        c,
        A_ub=a_ub,
        b_ub=b_ub,
        bounds=bounds,
        method="highs",
        options=_HIGHS_OPTIONS,
    )


def _lexicographic_refine(lp: LpInstance, m: int, best_obj: float) -> np.ndarray:
    """Among optima, maximize x_j path by path in canonical order."""
    fixed: dict[int, float] = {}
    rhs = best_obj + 1e-9
    for j in range(m):
        goal = np.zeros(2 * m)
        goal[j] = -1.0  # maximize x_j
        res = _run_linprog(goal, lp, extra_rows=lp.c, extra_rhs=rhs, fixed=fixed)
        if res.status != 0:
            raise SolverError(f"tie-break pass failed at path {j}: {res.message}")
        fixed[j] = float(res.x[j])
    # settle the rates deterministically: smallest total g among remaining optima
    goal = np.zeros(2 * m)
    goal[m:] = 1.0
    res = _run_linprog(goal, lp, extra_rows=lp.c, extra_rhs=rhs, fixed=fixed)
    if res.status != 0:
        raise SolverError(f"tie-break rate pass failed: {res.message}")
    return res.x


def solve_min_loss(problem: LossMinProblem, tie_break: bool = False) -> LpSolution:
    """Solve the loss-minimization LP; infeasibility is a verdict, not an error.

    With ``tie_break`` the solution is refined to the unique optimum that
    lexicographically maximizes delivered energy over the canonical path
    order (one extra solve per path; intended for small instances).
    """
    paths = problem.paths.paths
    if not paths:
        if problem.target_kwh <= 0.0:
            plan = make_plan([], problem.params)
            return LpSolution("optimal", plan, 0.0, {"iterations": 0})
        return LpSolution("infeasible", None, None, {})
    lp = build_lp(problem)
    t0 = time.perf_counter()
    res = _run_linprog(lp.c, lp)
    elapsed = time.perf_counter() - t0
    if res.status == 2:
        return LpSolution("infeasible", None, None, {"solve_s": elapsed})
    if res.status != 0:
        raise SolverError(f"LP solver failure (status {res.status}): {res.message}")
    x = res.x
    if tie_break:
        x = _lexicographic_refine(lp, len(paths), float(res.fun))

    m = len(paths)
    entries = [
        PlanEntry(path=p, rate=max(0.0, float(x[m + j])), delivered_kwh=max(0.0, float(x[j])))
        for j, p in enumerate(paths)
    ]
    plan = make_plan(entries, problem.params)
    residual = float(np.max(lp.a_ub @ x - lp.b_ub)) if lp.b_ub.size else 0.0
    diagnostics = {
        "iterations": int(getattr(res, "nit", 0)),
        "max_residual": max(residual, 0.0),
        "solve_s": elapsed,
    }
    return LpSolution("optimal", plan, float(lp.c @ x), diagnostics)


def max_deliverable(problem: LossMinProblem) -> float:
    """Largest delivered total any feasible plan can achieve (target ignored)."""
    paths = problem.paths.paths
    if not paths:
        return 0.0
    lp = build_lp(replace(problem, target_kwh=0.0))
    goal = np.zeros(2 * len(paths))
    goal[: len(paths)] = -1.0
    res = _run_linprog(goal, lp)
    if res.status != 0:
        raise SolverError(f"capacity LP failure: {res.message}")
    return float(-res.fun)

