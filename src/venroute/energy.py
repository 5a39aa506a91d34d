"""Closed-form energy quantities for paths and transmission plans.

Units are fixed throughout: energy in kWh, time in seconds, rates in kWh/s,
EV flows in EVs per second. Each path segment boundary costs one
charge-discharge cycle with combined efficiency z = z_c * z_d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import ConsistencyError, DomainError, StructuralError
from .network import Junction, RouteId, VehicularNetwork, VehicularRoute


@dataclass(frozen=True)
class EnergyParams:
    packet_kwh: float  # w: kWh moved per charge-discharge cycle
    charge_eff: float  # z_c
    discharge_eff: float  # z_d
    window_s: float  # T: transfer window

    def __post_init__(self):
        # zero efficiency would make every delivery infinitely lossy
        if not (0.0 < self.charge_eff <= 1.0 and 0.0 < self.discharge_eff <= 1.0):
            raise DomainError("efficiencies must lie in (0, 1]")
        if not (0.0 < self.packet_kwh < math.inf):
            raise DomainError("packet size must be positive and finite")
        if not (0.0 < self.window_s < math.inf):
            raise DomainError("transfer window must be positive and finite")

    @property
    def efficiency(self) -> float:
        """Combined per-cycle efficiency z."""
        return self.charge_eff * self.discharge_eff


@dataclass(frozen=True)
class EnergyPath:
    """Chain of route sub-routes from source to destination.

    ``segments`` holds (route id, start arc index, end arc index) with 1-based
    inclusive arc indices; ``boundaries`` are the junctions at segment joints,
    starting at the source and ending at the destination.
    """

    segments: tuple[tuple[RouteId, int, int], ...]
    boundaries: tuple[Junction, ...]
    arc_ids: tuple[str, ...]
    delay_s: float
    bottleneck_flow: float

    @property
    def cycles(self) -> int:
        return len(self.segments)

    def sort_key(self):
        return (self.boundaries, tuple(rid for rid, _, _ in self.segments))


@dataclass(frozen=True, slots=True)
class SegmentSpan:
    """One route segment (route id, n, m) with its derived quantities."""

    segment: tuple[RouteId, int, int]
    arc_ids: tuple[str, ...]
    tail: Junction
    head: Junction
    delay_s: float
    flow: float


def segment_span(
    network: VehicularNetwork,
    routes_by_id: Mapping[RouteId, VehicularRoute],
    rid: RouteId,
    n: int,
    m: int,
) -> SegmentSpan:
    """Arcs n..m (1-based, inclusive) of route ``rid``, already checked to lie within it."""
    route = routes_by_id[rid]
    sub = route.arcs[n - 1 : m]
    arc_by_id = network.arc_by_id
    return SegmentSpan(
        segment=(rid, n, m),
        arc_ids=sub,
        tail=arc_by_id[sub[0]].tail,
        head=arc_by_id[sub[-1]].head,
        delay_s=sum(arc_by_id[a].delay_s for a in sub),
        flow=route.flow,
    )


def span_totals(spans: Sequence[SegmentSpan]) -> tuple[float, float]:
    """(delay, bottleneck flow) of a chain of spans: the delays summed in order
    from 0.0, and the least route flow."""
    delay = 0.0
    bottleneck = math.inf
    for sp in spans:
        delay += sp.delay_s
        if sp.flow < bottleneck:
            bottleneck = sp.flow
    return delay, bottleneck


def assemble_energy_path(spans: Sequence[SegmentSpan], source: Junction) -> EnergyPath:
    """The energy path along spans already checked to chain loop-free from source."""
    delay, bottleneck = span_totals(spans)
    arc_ids: tuple[str, ...] = ()
    for sp in spans:
        arc_ids += sp.arc_ids
    return EnergyPath(
        segments=tuple([sp.segment for sp in spans]),
        boundaries=(source, *[sp.head for sp in spans]),
        arc_ids=arc_ids,
        delay_s=delay,
        bottleneck_flow=bottleneck,
    )


def build_energy_path(
    network: VehicularNetwork,
    routes_by_id: Mapping[RouteId, VehicularRoute],
    segments: Sequence[tuple[RouteId, int, int]],
    source: Junction,
    destination: Junction,
) -> EnergyPath:
    """Validate segment chaining and assemble the derived path quantities."""
    if not segments:
        raise StructuralError("an energy path needs at least one segment")
    seen_routes = set()
    spans: list[SegmentSpan] = []
    prev_head = source
    for rid, n, m in segments:
        if rid in seen_routes:
            raise StructuralError(f"route {rid!r} appears twice along the path")
        seen_routes.add(rid)
        if not (1 <= n <= m <= len(routes_by_id[rid].arcs)):
            raise StructuralError(f"segment ({rid}, {n}, {m}) out of range")
        sp = segment_span(network, routes_by_id, rid, n, m)
        if sp.tail != prev_head:
            raise StructuralError(
                f"segment ({rid}, {n}, {m}) starts at {sp.tail}, expected {prev_head}"
            )
        spans.append(sp)
        prev_head = sp.head
    if prev_head != destination:
        raise StructuralError(f"path ends at {prev_head}, expected destination {destination}")
    path = assemble_energy_path(spans, source)
    if len(set(path.boundaries)) != len(path.boundaries):
        raise StructuralError("segment boundary junctions repeat; path is not loop-free")
    return path


def check_target(target_kwh: float) -> None:
    if not (0.0 <= target_kwh < math.inf):
        raise DomainError("energy target must be finite and nonnegative")


def window_cap(path: EnergyPath, params: EnergyParams) -> float:
    """Capacity coefficient (T - d) z^|p| multiplying the rate.

    Paths whose propagation delay meets or exceeds the window have zero
    capacity (they are included and ignored rather than rejected).
    """
    return delay_window_cap(path.delay_s, path.cycles, params)


def delay_window_cap(delay_s: float, cycles: int, params: EnergyParams) -> float:
    """``window_cap`` of a path with this delay and this many cycles."""
    usable = params.window_s - delay_s
    if usable <= 0.0:
        return 0.0
    return usable * params.efficiency**cycles


def transferable_energy(path: EnergyPath, params: EnergyParams, rate: float) -> float:
    """Energy deliverable in the window at the given rate."""
    return window_cap(path, params) * rate


def loss_ratio(cycles: int, efficiency: float) -> float:
    """Energy lost per unit delivered across the given cycle count, 1/z^c - 1."""
    if efficiency <= 0.0:
        raise DomainError("zero efficiency means infinite loss")
    return 1.0 / efficiency**cycles - 1.0


def path_loss(delivered_kwh: float, cycles: int, efficiency: float) -> float:
    """Loss incurred delivering the given energy across the given cycle count."""
    return loss_ratio(cycles, efficiency) * delivered_kwh


@dataclass(frozen=True)
class PlanEntry:
    path: EnergyPath
    rate: float  # g_j, kWh/s
    delivered_kwh: float  # x_j


@dataclass(frozen=True)
class TransmissionPlan:
    entries: tuple[PlanEntry, ...]
    params: EnergyParams


# Slack allowed when checking x_j against its transferable-energy cap;
# absorbs LP feasibility tolerance.
CAP_SLACK = 1e-6


def make_plan(entries: Sequence[PlanEntry], params: EnergyParams) -> TransmissionPlan:
    plan = TransmissionPlan(entries=tuple(entries), params=params)
    for e in plan.entries:
        if e.rate < -CAP_SLACK or e.delivered_kwh < -CAP_SLACK:
            raise ConsistencyError("negative rate or energy in plan")
        cap = transferable_energy(e.path, params, e.rate)
        if e.delivered_kwh > cap + CAP_SLACK:
            raise ConsistencyError(
                f"entry delivers {e.delivered_kwh} kWh, above its cap {cap} kWh"
            )
    return plan


def plan_totals(plan: TransmissionPlan) -> tuple[float, float]:
    """Total delivered energy and total loss of a plan, 0.0 each for no entries."""
    z = plan.params.efficiency
    delivered = sum((e.delivered_kwh for e in plan.entries), 0.0)
    loss = sum((path_loss(e.delivered_kwh, e.path.cycles, z) for e in plan.entries), 0.0)
    return delivered, loss
