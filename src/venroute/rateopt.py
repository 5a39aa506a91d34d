"""Loss-minimizing rate assignment over a path set, as a linear program.

The variables are rates g_j. Path j delivers cap_j * g_j, where cap_j =
(T - d_j) z^|p_j| is its window capacity coefficient, so the objective, total
conversion loss, costs loss_ratio_j * cap_j per unit of g_j. Each rate is
bounded by w times the path's bottleneck flow, the least EV flow of the routes
it rides, and by 0 on a path past the window. The rows, in order, cap the
aggregate rate per road arc by its total flow and require the delivered total
to meet the energy target. Writing the delivered energy as cap_j * g_j is
exact: the loss puts no cost on a rate, and lowering g_j to x_j / cap_j only
loosens the arc rows.

The columns are classes of paths (``_Classes``): paths with the same distinct
road arcs, window cap and cost have equal columns, so one column per class,
bounded by the sum of its members' bounds, has the same optimum (the
duplicate-column reduction of Andersen & Andersen, "Presolving in linear
programming", Math. Programming 71, 1995). An assembled ``LpInstance`` solves
itself at any target, so one assembly serves a sweep, and its plan holds only
the paths that carry energy, as ``LpInstance.sweep`` defines them; no other
module filters a plan again, and only the paths a plan holds need be built.
Each arc's row index and its flow summed over the routes, the arc rows'
bounds, are built once for all of an instance's LPs (``_Columns``): this
module alone builds what its LPs read.

An LP's sweep over its targets runs on one model of HiGHS's dual simplex
(Huangfu & Hall 2018), through SciPy's own binding
``scipy.optimize._highspy._core``, there from SciPy 1.15. The LP goes in
once, as NumPy arrays through ``_Highs.passModel``; each target then changes
only the target row's bound and clears the solver, so each solve starts cold
and gives a fresh model's point: a warm start can end on another tied vertex,
and so on other paths. Presolve is off: on these small, well-scaled LPs it
removes almost nothing and costs more than the simplex itself.

This is the only module that uses NumPy or SciPy, and it loads them on the
first LP it builds or solves, through ``_lp_backend``: NumPy, and the binding
alone, from its own file. Importing the binding by name would first run
``scipy/optimize/__init__.py``, which loads most of SciPy: on SciPy 1.17.1
that takes the process from 27 MB after NumPy to 76 MB and adds about
0.6 s, where the binding's file adds 3.5 MB and about 7 ms. The LP is held
as the CSC arrays HiGHS reads, and its residual is computed from them, so
``scipy.sparse`` stays unloaded too. Enumeration, the greedy and the growth
study load neither package. ``run_compare`` calls the loader once before its
first row when method I or II is requested, so the import never lands inside
a ``--timings`` row.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
import threading
import time
from dataclasses import dataclass, field
from functools import cache
from itertools import chain
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from .energy import (
    EnergyParams,
    PlanEntry,
    TransmissionPlan,
    check_target,
    delay_window_cap,
    loss_ratio,
    make_plan,
)
from .energy import window_cap as _window_cap  # noqa: F401  (tests import it from here)
from .errors import ConsistencyError, DomainError, SolverError
from .network import VehicularNetwork, VehicularRoute, _check_flow
from .pathenum import PathSet

if TYPE_CHECKING:
    import numpy as np
    from scipy import sparse

    from .energy import EnergyPath

RESIDUAL_TOL = 1e-6  # largest seen on the paper's grids and the corridor: 1.8e-12
_HIGHS = "scipy.optimize._highspy._core"
_highs_lock = threading.Lock()


def _load_highs():
    """SciPy's HiGHS binding: the module already imported, or else loaded from
    its file in SciPy's package directory without importing ``scipy``.

    The module is registered under its own name before it runs, so a later
    ``import scipy.optimize`` reuses it and its types are never registered
    twice; the lock keeps two first calls from loading it twice. Without
    SciPy, or without the binding's file, it raises ModuleNotFoundError, as an
    import would.
    """
    with _highs_lock:
        module = sys.modules.get(_HIGHS)
        if module is not None:
            return module
        scipy = importlib.util.find_spec("scipy")  # None when SciPy is missing
        spec = scipy and importlib.machinery.PathFinder.find_spec(
            _HIGHS, [os.path.join(d, "optimize", "_highspy")
                     for d in scipy.submodule_search_locations]
        )
        if spec is None:
            raise ModuleNotFoundError(
                f"No module named {_HIGHS!r}: solving an LP needs SciPy 1.15 or later",
                name=_HIGHS,
            )
        module = importlib.util.module_from_spec(spec)
        sys.modules[_HIGHS] = module
        try:
            spec.loader.exec_module(module)
        except BaseException:
            del sys.modules[_HIGHS]
            raise
        return module


@cache
def _lp_backend():
    """(numpy, the HiGHS binding, the options every solve passes), loaded and
    built on first use.
    """
    import numpy as np

    highs = _load_highs()
    options = highs.HighsOptions()
    options.presolve = "off"
    options.primal_feasibility_tolerance = 1e-10
    options.simplex_strategy = 1  # dual
    options.highs_debug_level = 0
    options.output_flag = False
    options.log_to_console = False
    return np, highs, options


@dataclass(frozen=True)
class LossMinProblem:
    paths: PathSet
    params: EnergyParams
    network: VehicularNetwork
    routes: tuple[VehicularRoute, ...]
    target_kwh: float

    def __post_init__(self):
        check_target(self.target_kwh)
        for r in self.routes:  # the arc rows' bounds sum these flows
            _check_flow(r)
        arcs = {r.route_id: r.arcs for r in self.routes}
        for path in self.paths.paths:  # each segment's route flow bounds the rows of its arcs
            at = 0
            for rid, n, m in path.segments:
                if rid not in arcs:
                    raise DomainError(f"path rides route {rid!r}, which the problem's routes lack")
                if not 1 <= n <= m or path.arc_ids[at : at + m - n + 1] != arcs[rid][n - 1 : m]:
                    raise DomainError(f"path segment {rid}:{n}:{m} rides arcs off route {rid!r}")
                at += m - n + 1
            if at != len(path.arc_ids):
                raise DomainError(f"path lists {len(path.arc_ids)} arcs, its segments span {at}")


class _Columns:
    """What every LP of one network and its routes reads: each arc's row index,
    in sorted arc-id order, and the total flow of the routes over it, summed
    here. Each route's flow is added once per distinct arc it rides, in route
    order from 0.0, so an arc no route covers keeps 0.0 and an arc the network
    lacks gets no row.
    """

    def __init__(
        self, params: EnergyParams, network: VehicularNetwork, routes: Iterable[VehicularRoute]
    ):
        self.params = params
        self.index = index = {a: k for k, a in enumerate(sorted(network.arc_by_id))}
        self.flows = flows = [0.0] * len(index)
        for r in routes:
            for k in {index[a] for a in r.arcs if a in index}:
                flows[k] += r.flow

    def rows(self, arc_ids: frozenset[str]) -> list[int]:
        """The sorted indices of these distinct arcs; an arc the network lacks,
        the first in arc-id order, is a DomainError."""
        index = self.index
        try:
            return sorted([index[a] for a in arc_ids])
        except KeyError:
            missing = min(a for a in arc_ids if a not in index)
            raise DomainError(f"path rides arc {missing!r}, which the network lacks") from None


def _itself(path: EnergyPath) -> EnergyPath:
    return path


class _Classes:
    """An LP's columns: its paths, added in path order, grouped into classes.

    A path's column is its distinct arcs, its window cap (T - d) z^|p| and its
    cost loss_ratio * cap; paths with equal columns form one class, in the
    order of its first path. A member keeps its place in path order, its rate
    bound (w times its bottleneck flow, or 0 past the window) and what
    ``path_of`` builds its ``EnergyPath`` from: the path, or its spans. A
    class's bound is its members' bounds summed in member order.
    """

    def __init__(self, columns: _Columns, path_of: Callable[[object], EnergyPath] = _itself):
        self.columns = columns
        self.path_of = path_of
        # (arc ids, window cap, cost) -> class index, in class order
        self.keys: dict[tuple[frozenset[str], float, float], int] = {}
        self.members: list[list[tuple[int, float, object]]] = []
        self.upper: list[float] = []
        self.paths = 0

    def add(self, arcs: frozenset[str], delay_s: float, bottleneck: float, cycles: int, member):
        """Add the next path in path order, by its distinct arc ids, delay,
        bottleneck flow and cycles."""
        params = self.columns.params
        cap = delay_window_cap(delay_s, cycles, params)
        key = (arcs, cap, cap * loss_ratio(cycles, params.efficiency))
        bound = 0.0 if cap == 0.0 else params.packet_kwh * bottleneck
        k = self.keys.get(key)
        if k is None:
            k = self.keys[key] = len(self.members)
            self.members.append([])
            self.upper.append(0.0)
        self.members[k].append((self.paths, bound, member))
        self.upper[k] += bound
        self.paths += 1


def _path_classes(pathset: PathSet, columns: _Columns) -> _Classes:
    """The classes of a path set's paths, in its order."""
    classes = _Classes(columns)
    for path in pathset.paths:
        classes.add(frozenset(path.arc_ids), path.delay_s, path.bottleneck_flow, path.cycles, path)
    return classes


@dataclass(frozen=True)
class LpSolution:
    """A verdict, and the optimal plan, of only the paths that carry energy (see ``sweep``).

    Every verdict's diagnostics count the LP's ``columns`` (classes) and ``paths``.
    """

    status: str  # "optimal" | "infeasible"
    plan: TransmissionPlan | None
    objective: float | None
    diagnostics: dict = field(default_factory=dict)


@dataclass(frozen=True)
class LpInstance:
    """Assembled LP of a path set: minimize c @ g s.t. A_ub @ g <= b_ub, 0 <= g <= upper.

    Column k is class k's rate g_k, which delivers ``caps[k]`` * g_k kWh;
    ``members[k]`` holds the class's (place in path order, rate bound, what
    ``path_of`` builds the path from), in path order. Rows are ordered shared
    road arcs (sorted by arc id), target. A_ub is held as the CSC arrays
    HiGHS reads, ``indptr``, ``indices`` and ``data``, with ``len(b_ub)`` rows
    and ``len(c)`` columns; ``a_ub``, a SciPy matrix, is built from them each
    time it is read, and nothing that solves reads it. HiGHS solves it
    without presolve. The arrays that are the same for every LP, the column
    and row lower bounds and the integrality, are built with each HiGHS
    model, once per sweep.
    """

    params: EnergyParams
    c: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    b_ub: np.ndarray
    upper: np.ndarray
    caps: np.ndarray
    members: tuple[tuple[tuple[int, float, object], ...], ...]
    path_of: Callable[[object], EnergyPath] = _itself

    @property
    def a_ub(self) -> sparse.csc_matrix:
        """A_ub as a ``scipy.sparse.csc_matrix`` over the LP's own arrays."""
        from scipy import sparse

        return sparse.csc_matrix(
            (self.data, self.indices, self.indptr), shape=(len(self.b_ub), len(self.c))
        )

    def _a_ub_times(self, g: np.ndarray) -> np.ndarray:
        """A_ub @ g, each row's products added in column order, as SciPy's CSC
        product adds them, so each row's sum is the same float."""
        np = _lp_backend()[0]
        products = self.data * np.repeat(g, np.diff(self.indptr))
        return np.bincount(self.indices, products, len(self.b_ub))

    def solve(self, target_kwh: float) -> LpSolution:
        """The min-loss plan at one energy target: a sweep of one."""
        return next(self.sweep((target_kwh,)))

    def sweep(self, targets: Iterable[float]) -> Iterator[LpSolution]:
        """The min-loss plan at each energy target, yielded in order as it is
        solved; infeasibility is a verdict, not an error.

        One HiGHS model holds the LP, and each solve sets only the target row's
        bound: the LP never changes. A solver point that violates a row, a rate
        bound or a rate's floor of 0 by more than ``RESIDUAL_TOL`` times
        max(1, target) raises ConsistencyError. A class's rate goes to its
        first members in path order, each up to its own bound, and the last
        member reached takes the rest. The plan holds only the paths that carry
        energy, in path order: those that deliver more than 1e-9 kWh or whose
        rate exceeds 1e-12 kWh/s. The first solve's ``solve_s`` also counts
        setting up the model.
        """
        targets = tuple(targets)
        for target_kwh in targets:
            check_target(target_kwh)
        sizes = dict(columns=len(self.members), paths=sum(map(len, self.members)))
        if not self.members:
            for target_kwh in targets:
                if target_kwh > 0.0:
                    yield LpSolution("infeasible", None, None, dict(sizes))
                else:
                    plan = make_plan([], self.params)
                    yield LpSolution("optimal", plan, 0.0, dict(iterations=0, **sizes))
            return
        t0 = time.perf_counter()
        model = _highs_model(self.c, self)
        setup_s = time.perf_counter() - t0
        b_ub = self.b_ub.copy()
        for target_kwh in targets:
            t0 = time.perf_counter()
            status, g, iterations = _run_highs(model, -target_kwh)
            elapsed, setup_s = time.perf_counter() - t0 + setup_s, 0.0
            if status == "infeasible":
                yield LpSolution("infeasible", None, None, dict(solve_s=elapsed, **sizes))
                continue
            b_ub[-1] = -target_kwh
            residual = max(
                (self._a_ub_times(g) - b_ub).max(), (g - self.upper).max(), (-g).max(), 0.0
            )
            if residual > RESIDUAL_TOL * max(1.0, target_kwh):
                raise ConsistencyError(f"LP solution violates its constraints by {residual:.3g}")
            positive = (g > 0.0).nonzero()[0]
            carried = []  # (place in path order, member, rate, kWh)
            for k, rate, cap in zip(
                positive.tolist(), g[positive].tolist(), self.caps[positive].tolist()
            ):
                *first, last = self.members[k]
                for place, bound, member in first:
                    share = min(rate, bound)
                    carried.append((place, member, share, cap * share))
                    rate -= share
                    if rate <= 0.0:
                        break
                else:
                    carried.append((last[0], last[2], rate, cap * rate))
            carried.sort(key=itemgetter(0))
            # below both thresholds, a rate is 0 or the solver's round-off
            entries = [
                PlanEntry(path=self.path_of(member), rate=rate, delivered_kwh=kwh)
                for _place, member, rate, kwh in carried
                if kwh > 1e-9 or rate > 1e-12
            ]
            plan = make_plan(entries, self.params)
            diagnostics = dict(
                iterations=iterations, max_residual=float(residual), solve_s=elapsed, **sizes
            )
            yield LpSolution("optimal", plan, float(self.c @ g), diagnostics)


def build_lp(problem: LossMinProblem) -> LpInstance:
    """Assemble the LP; rows are the network's arcs that some path rides, in
    arc-id order, then the target. A path off the network is a DomainError.
    """
    columns = _Columns(problem.params, problem.network, problem.routes)
    return _assemble(_path_classes(problem.paths, columns), problem.target_kwh)


def _assemble(classes: _Classes, target_kwh: float = 0.0) -> LpInstance:
    """The LP over ``classes``, one column per class, in class order; a path
    off the network is a DomainError."""
    np = _lp_backend()[0]
    columns = classes.columns
    params = columns.params
    m = len(classes.keys)
    arcs = [columns.rows(key[0]) for key in classes.keys]
    caps = np.array([key[1] for key in classes.keys], dtype=float)
    c = np.array([key[2] for key in classes.keys], dtype=float)
    upper = np.array(classes.upper, dtype=float)

    # shared-arc coupling, one row per used road arc in sorted arc order:
    # sum_k g_k / w <= h_a, each class counted once per arc it uses; then the
    # delivery target, -sum cap_k * g_k <= -target, after each column's arcs
    ends = np.cumsum(np.fromiter(map(len, arcs), dtype=np.int32, count=m), dtype=np.int32)
    flat = np.fromiter(chain.from_iterable(arcs), dtype=np.int32, count=ends[-1] if m else 0)
    used = np.zeros(len(columns.flows), dtype=bool)
    used[flat] = True
    target_row = int(np.count_nonzero(used))
    row_of = np.cumsum(used, dtype=np.int32) - 1
    indices = np.insert(row_of[flat], ends, target_row)
    data = np.insert(np.full(len(flat), 1.0 / params.packet_kwh), ends, -caps)
    indptr = np.arange(m + 1, dtype=np.int32)
    indptr[1:] += ends
    b_ub = np.append(np.array(columns.flows, dtype=float)[used], -target_kwh)
    return LpInstance(
        params, c=c, indptr=indptr, indices=indices, data=data, b_ub=b_ub, upper=upper,
        caps=caps, members=tuple(map(tuple, classes.members)), path_of=classes.path_of)


def _highs_model(c, lp: LpInstance):
    """A HiGHS model of ``lp`` under cost ``c``; one HiGHS refuses raises SolverError."""
    np, highs, options = _lp_backend()
    m, rows = len(c), len(lp.b_ub)
    model = highs._Highs()
    model.passOptions(options)
    passed = model.passModel(
        m, rows, len(lp.data), highs.MatrixFormat.kColwise, highs.ObjSense.kMinimize, 0.0,
        c, np.zeros(m), lp.upper, np.full(rows, -highs.kHighsInf), lp.b_ub,
        lp.indptr, lp.indices, lp.data,
        np.zeros(m, dtype=np.int32),  # every column continuous; HiGHS refuses an empty array
    )
    if passed == highs.HighsStatus.kError:
        raise SolverError("LP solver failure: Model error")
    return model


def _run_highs(model, bound: float) -> tuple[str, np.ndarray | None, int]:
    """(status, point, simplex iterations) of one cold solve of ``model`` with its
    last row, the target row, at most ``bound``; a status other than "optimal" or
    "infeasible" (no point) raises SolverError.
    """
    np, highs, _options = _lp_backend()
    model.changeRowBounds(model.getNumRow() - 1, -highs.kHighsInf, bound)
    model.clearSolver()  # a warm start may end on another tied vertex
    model.run()
    status = model.getModelStatus()
    if status == highs.HighsModelStatus.kInfeasible:
        return "infeasible", None, 0
    if status != highs.HighsModelStatus.kOptimal:
        raise SolverError(f"LP solver failure: {model.modelStatusToString(status)}")
    x = np.array(model.getSolution().col_value)
    return "optimal", x, model.getInfo().simplex_iteration_count


def solve_min_loss(problem: LossMinProblem) -> LpSolution:
    """Solve the loss-minimization LP; infeasibility is a verdict, not an error."""
    return build_lp(problem).solve(problem.target_kwh)


def max_deliverable(problem: LossMinProblem) -> float:
    """Largest delivered total any feasible plan can achieve (target ignored)."""
    if not problem.paths.paths:
        return 0.0
    lp = build_lp(problem)
    status, g, _ = _run_highs(_highs_model(-lp.caps, lp), 0.0)
    if status != "optimal":
        raise SolverError("capacity LP failure: infeasible")
    return float(lp.caps @ g)
