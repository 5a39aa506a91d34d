"""Energy quantities: delay, window capacity, loss, and plans."""

import pytest

from venroute import (
    ConsistencyError,
    DomainError,
    EnergyParams,
    PlanEntry,
    StructuralError,
    VehicularNetwork,
    VehicularRoute,
    build_energy_path,
    make_plan,
    path_loss,
    plan_totals,
    transferable_energy,
)

PARAMS = EnergyParams(packet_kwh=1.0, charge_eff=0.9, discharge_eff=1.0, window_s=18000.0)


def chain_instance():
    junctions = ["s", "m", "t"]
    arcs = [
        ("sm", "s", "m", 900.0),
        ("mt", "m", "t", 900.0),
    ]
    net = VehicularNetwork.build(junctions, arcs)
    routes = {
        "r1": VehicularRoute("r1", ("sm",), 0.2),
        "r2": VehicularRoute("r2", ("mt",), 0.1),
    }
    return net, routes


class TestParams:
    def test_efficiency_is_product(self):
        p = EnergyParams(1.0, 0.9, 0.8, 100.0)
        assert p.efficiency == pytest.approx(0.72)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(packet_kwh=0.0, charge_eff=0.9, discharge_eff=1.0, window_s=1.0),
            dict(packet_kwh=1.0, charge_eff=1.1, discharge_eff=1.0, window_s=1.0),
            dict(packet_kwh=1.0, charge_eff=0.9, discharge_eff=-0.1, window_s=1.0),
            dict(packet_kwh=1.0, charge_eff=0.9, discharge_eff=1.0, window_s=0.0),
            dict(packet_kwh=float("nan"), charge_eff=0.9, discharge_eff=1.0, window_s=1.0),
            dict(packet_kwh=float("inf"), charge_eff=0.9, discharge_eff=1.0, window_s=1.0),
            dict(packet_kwh=1.0, charge_eff=0.9, discharge_eff=1.0, window_s=float("nan")),
            dict(packet_kwh=1.0, charge_eff=0.9, discharge_eff=1.0, window_s=float("inf")),
            dict(packet_kwh=1.0, charge_eff=0.0, discharge_eff=1.0, window_s=1.0),
            dict(packet_kwh=1.0, charge_eff=0.9, discharge_eff=0.0, window_s=1.0),
        ],
    )
    def test_invalid_params_rejected(self, kwargs):
        with pytest.raises(DomainError):
            EnergyParams(**kwargs)


class TestBuildEnergyPath:
    def test_two_segment_chain(self):
        net, routes = chain_instance()
        p = build_energy_path(net, routes, [("r1", 1, 1), ("r2", 1, 1)], "s", "t")
        assert p.boundaries == ("s", "m", "t")
        assert p.arc_ids == ("sm", "mt")
        assert p.cycles == 2
        assert p.delay_s == pytest.approx(1800.0)
        assert p.bottleneck_flow == pytest.approx(0.1)

    def test_empty_segments_rejected(self):
        net, routes = chain_instance()
        with pytest.raises(StructuralError):
            build_energy_path(net, routes, [], "s", "t")

    def test_repeated_route_rejected(self):
        net, routes = chain_instance()
        with pytest.raises(StructuralError):
            build_energy_path(net, routes, [("r1", 1, 1), ("r1", 1, 1)], "s", "t")

    def test_disconnected_segments_rejected(self):
        net, routes = chain_instance()
        with pytest.raises(StructuralError):
            build_energy_path(net, routes, [("r2", 1, 1)], "s", "t")

    def test_wrong_destination_rejected(self):
        net, routes = chain_instance()
        with pytest.raises(StructuralError):
            build_energy_path(net, routes, [("r1", 1, 1)], "s", "t")

    def test_out_of_range_indices_rejected(self):
        net, routes = chain_instance()
        with pytest.raises(StructuralError):
            build_energy_path(net, routes, [("r1", 1, 2)], "s", "t")

    def test_repeated_boundary_rejected(self):
        junctions = ["s", "m", "t"]
        arcs = [
            ("sm", "s", "m", 1.0),
            ("ms", "m", "s", 1.0),
            ("st", "s", "t", 1.0),
        ]
        net = VehicularNetwork.build(junctions, arcs)
        routes = {
            "r1": VehicularRoute("r1", ("sm",), 0.1),
            "r2": VehicularRoute("r2", ("ms",), 0.1),
            "r3": VehicularRoute("r3", ("st",), 0.1),
        }
        with pytest.raises(StructuralError):
            build_energy_path(
                net, routes, [("r1", 1, 1), ("r2", 1, 1), ("r3", 1, 1)], "s", "t"
            )


def two_cycle_path():
    net, routes = chain_instance()
    return net, build_energy_path(net, routes, [("r1", 1, 1), ("r2", 1, 1)], "s", "t")


class TestQuantities:
    def test_propagation_delay_sums_arc_delays(self):
        _, p = two_cycle_path()
        assert p.delay_s == pytest.approx(1800.0)

    def test_transferable_energy_formula(self):
        _, p = two_cycle_path()
        # (T - d) * z^cycles * g
        expected = (18000.0 - 1800.0) * 0.9**2 * 0.1
        assert transferable_energy(p, PARAMS, 0.1) == pytest.approx(expected)

    def test_transferable_energy_zero_past_window(self):
        _, p = two_cycle_path()
        tight = EnergyParams(1.0, 0.9, 1.0, 1800.0)
        assert transferable_energy(p, tight, 0.1) == 0.0

    def test_reference_window_value(self):
        # 3 cycles, 30-minute delay, 5-hour window, z=0.9, g=0.1 kWh/s
        junctions = ["s", "a", "b", "t"]
        arcs = [
            ("sa", "s", "a", 600.0),
            ("ab", "a", "b", 600.0),
            ("bt", "b", "t", 600.0),
        ]
        net = VehicularNetwork.build(junctions, arcs)
        routes = {
            "r1": VehicularRoute("r1", ("sa",), 0.1),
            "r2": VehicularRoute("r2", ("ab",), 0.1),
            "r3": VehicularRoute("r3", ("bt",), 0.1),
        }
        p = build_energy_path(
            net, routes, [("r1", 1, 1), ("r2", 1, 1), ("r3", 1, 1)], "s", "t"
        )
        assert transferable_energy(p, PARAMS, 0.1) == pytest.approx(1180.98)


class TestLoss:
    def test_three_cycle_reference_value(self):
        # 200 kWh over 3 cycles at z=0.9 loses 74.3484 kWh
        assert path_loss(200.0, 3, 0.9) == pytest.approx(74.3484, abs=1e-4)

    def test_loss_ratio_per_kwh(self):
        assert path_loss(1.0, 3, 0.9) == pytest.approx(1 / 0.9**3 - 1)

    def test_zero_efficiency_rejected(self):
        with pytest.raises(DomainError):
            path_loss(1.0, 2, 0.0)


class TestPlans:
    def test_totals_and_fractions(self):
        _, p = two_cycle_path()
        junctions = ["s", "a", "b", "t"]
        arcs = [
            ("sa", "s", "a", 600.0),
            ("ab", "a", "b", 600.0),
            ("bt", "b", "t", 600.0),
        ]
        net3 = VehicularNetwork.build(junctions, arcs)
        routes3 = {
            "r1": VehicularRoute("r1", ("sa",), 0.5),
            "r2": VehicularRoute("r2", ("ab",), 0.5),
            "r3": VehicularRoute("r3", ("bt",), 0.5),
        }
        p3 = build_energy_path(
            net3, routes3, [("r1", 1, 1), ("r2", 1, 1), ("r3", 1, 1)], "s", "t"
        )
        plan = make_plan(
            [
                PlanEntry(path=p, rate=0.05, delivered_kwh=100.0),
                PlanEntry(path=p3, rate=0.05, delivered_kwh=200.0),
            ],
            PARAMS,
        )
        delivered, loss = plan_totals(plan)
        assert delivered == pytest.approx(300.0)
        # 100 kWh at 2 cycles + 200 kWh at 3 cycles, z = 0.9
        assert loss == pytest.approx(97.805, abs=1e-3)

    def test_empty_plan(self):
        plan = make_plan([], PARAMS)
        assert plan_totals(plan) == (0.0, 0.0)

    def test_over_cap_entry_rejected(self):
        _, p = two_cycle_path()
        cap = transferable_energy(p, PARAMS, 0.05)
        with pytest.raises(ConsistencyError):
            make_plan([PlanEntry(path=p, rate=0.05, delivered_kwh=cap + 1.0)], PARAMS)

    def test_negative_entry_rejected(self):
        _, p = two_cycle_path()
        with pytest.raises(ConsistencyError):
            make_plan([PlanEntry(path=p, rate=-0.1, delivered_kwh=1.0)], PARAMS)
