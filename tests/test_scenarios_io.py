"""Scenario generators and the text file format."""

import dataclasses
import math

import pytest

from venroute import (
    DomainError,
    ScenarioFormatError,
    Scenario,
    StructuralError,
    VehicularRoute,
    dumps_scenario,
    generate_corridor,
    generate_grid,
    generate_random,
    loads_scenario,
    load_scenario,
    save_scenario,
)
from venroute.experiments import prepare
from venroute.scenarios import DEFAULT_PARAMS

BAD_TARGET = "x_target_kwh is not a finite, nonnegative number"
BOTH_DELAYS = "arc takes delay_s or length_km\\+speed_kmh, not both"
BAD_LENGTH_SPEED = "length_km and speed_kmh must be positive and finite"
SEPARATOR = "holds one of , \\| ; :$"


class TestGenerators:
    def test_grid_shape(self):
        sc = generate_grid(4, 4, 10.0, 60.0, 20, ("const", 0.1), seed=0)
        assert len(sc.network.junctions) == 16
        assert len(sc.network.arcs) == 48  # 24 grid edges, both directions
        assert len(sc.routes) == 20
        assert sc.source == "j01" and sc.destination == "j16"
        # 10 km at 60 km/h -> 600 s per arc
        assert all(a.delay_s == pytest.approx(600.0) for a in sc.network.arcs)
        assert all(r.flow == 0.1 for r in sc.routes)

    def test_grid_deterministic(self):
        a = generate_grid(4, 4, 10.0, 60.0, 20, ("uniform", 0.1, 0.3), seed=7)
        b = generate_grid(4, 4, 10.0, 60.0, 20, ("uniform", 0.1, 0.3), seed=7)
        assert a == b
        c = generate_grid(4, 4, 10.0, 60.0, 20, ("uniform", 0.1, 0.3), seed=8)
        assert a != c

    def test_grid_validates_size(self):
        with pytest.raises(DomainError):
            generate_grid(1, 4, 10.0, 60.0, 5, ("const", 0.1), seed=0)

    def test_random_shape_and_determinism(self):
        a = generate_random(8, 0.4, 3, 12, seed=5)
        b = generate_random(8, 0.4, 3, 12, seed=5)
        assert a == b
        assert len(a.network.junctions) == 8
        assert a.source != a.destination
        assert all(1 <= len(r.arcs) <= 3 for r in a.routes)

    @pytest.mark.parametrize(
        "flow_spec",
        [
            ("const", float("nan")),
            ("const", -1.0),
            ("const", float("inf")),
            ("uniform", -0.1, 0.3),
            ("uniform", 0.1, float("nan")),
        ],
    )
    def test_flow_spec_values_validated(self, flow_spec):
        with pytest.raises(DomainError):
            generate_grid(4, 4, 10.0, 60.0, 20, flow_spec, seed=0)
        with pytest.raises(DomainError):
            generate_random(6, 0.5, 3, 10, seed=0, flow_spec=flow_spec)

    @pytest.mark.parametrize(
        "make",
        [
            lambda count: generate_grid(4, 4, 10.0, 60.0, count, ("const", 0.1), seed=0),
            lambda count: generate_random(6, 0.5, 3, count, seed=0),
            lambda count: generate_corridor(rows=6, cols=15, kept_edges=110, route_count=count),
        ],
        ids=["grid", "random", "corridor"],
    )
    def test_route_count_validated(self, make):
        with pytest.raises(DomainError, match="route count must be nonnegative, got -2"):
            make(-2)
        assert make(0).routes == ()

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: generate_grid(4, 4, 10.0, 60.0, 20, ("const",), 0), "flow spec must be"),
            (lambda: generate_grid(4, 4, 10.0, 60.0, 20, ("uniform", 0.1), 0), "flow spec must be"),
            (lambda: generate_grid(4, 4, 10.0, 60.0, 20, ("const", "abc"), 0),
             "flow spec values must be finite and nonnegative"),
            (lambda: generate_grid(4, 4, 10.0, 60.0, 0, ("poisson", 0.1), 0), "flow spec must be"),
            (lambda: generate_random(6, 0.5, 3, 0, 0, flow_spec=("poisson", 0.1)),
             "flow spec must be"),
            (lambda: generate_grid(4, 4, 10.0, 60.0, 5, ("uniform", 0.3, 0.1), 0),
             "uniform flow bounds must satisfy lo <= hi"),
            (lambda: generate_grid(4, 4, 10.0, 0.0, 20, ("const", 0.1), 0),
             "speed must be positive and finite, got 0.0"),
            *[
                (lambda km=km: generate_grid(4, 4, km, 60.0, 20, ("const", 0.1), 0),
                 f"arc length must be positive and finite, got {km}")
                for km in (0.0, -1.0, math.nan, math.inf)
            ],
            (lambda: generate_grid(4, 4, 10.0, 60.0, 20, ("const", 0.1), 0, max_route_arcs=0),
             "route length cap must be at least 1, got 0"),
            (lambda: generate_random(6, 0.5, 0, 10, seed=0),
             "route length cap must be at least 1, got 0"),
            (lambda: generate_random(1, 0.5, 3, 10, seed=0), "need at least 2 junctions"),
            (lambda: generate_corridor(rows=0), "corridor needs at least 2 rows"),
            (lambda: generate_corridor(cols=1),
             "corridor destination column 10 lies outside its 1 columns"),
            (lambda: generate_corridor(rows=6, cols=12, kept_edges=80, route_count=100),
             "corridor destination column 13 lies outside its 12 columns"),
        ],
        ids=[
            "const-without-value", "uniform-with-one-value", "const-not-a-number",
            "unknown-kind-without-routes", "random-unknown-kind-without-routes",
            "uniform-reversed-bounds", "zero-speed",
            "zero-arc-length", "negative-arc-length", "nan-arc-length", "inf-arc-length",
            "grid-zero-route-length", "random-zero-route-length", "one-junction",
            "corridor-no-rows", "corridor-one-column", "corridor-destination-outside",
        ],
    )
    def test_bad_generator_arguments_rejected(self, make, message):
        with pytest.raises(DomainError, match=message):
            make()

    def test_random_validates_density(self):
        with pytest.raises(DomainError):
            generate_random(6, 0.0, 3, 5, seed=0)
        with pytest.raises(DomainError):
            generate_random(6, 1.2, 3, 5, seed=0)

    def test_corridor_scale(self):
        sc = generate_corridor(seed=0)
        assert len(sc.network.junctions) == 1000
        assert len(sc.network.arcs) == 2500  # 1250 roads, both directions
        assert len(sc.routes) == 4800
        assert sc.params.window_s == 72000.0
        assert generate_corridor(seed=0) == sc

    def test_scenario_validation(self):
        sc = generate_grid(2, 2, 10.0, 60.0, 3, ("const", 0.1), seed=0)
        with pytest.raises(DomainError):
            Scenario(
                name="x",
                seed=0,
                network=sc.network,
                routes=sc.routes,
                params=DEFAULT_PARAMS,
                source="j1",
                destination="j1",
            )
        with pytest.raises(DomainError):
            Scenario(
                name="x",
                seed=0,
                network=sc.network,
                routes=sc.routes,
                params=DEFAULT_PARAMS,
                source="ghost",
                destination="j4",
            )
        with pytest.raises(DomainError, match="destination 'ghost' is not a junction"):
            dataclasses.replace(sc, destination="ghost")
        stray = VehicularRoute("r9", ("zz",), 0.1)
        with pytest.raises(DomainError, match="route 'r9' references unknown arc 'zz'"):
            dataclasses.replace(sc, routes=sc.routes + (stray,))


class TestFileFormat:
    def test_round_trip_identity(self, tmp_path):
        sc = generate_grid(3, 3, 10.0, 60.0, 8, ("uniform", 0.1, 0.3), seed=3)
        sc = dataclasses.replace(sc, target_kwh=42.0)
        path = tmp_path / "scenario.txt"
        save_scenario(sc, path)
        loaded = load_scenario(path)
        assert loaded == sc

    def test_save_is_canonical(self, tmp_path):
        sc = generate_random(6, 0.4, 3, 6, seed=1)
        text = dumps_scenario(sc)
        assert dumps_scenario(loads_scenario(text)) == text

    def test_length_speed_arc_form(self):
        text = (
            "[meta]\nname = demo\nseed = 0\n"
            "[params]\nw_kwh = 1.0\nzc = 0.9\nzd = 1.0\nT_s = 18000.0\n"
            "[endpoints]\ns = a\nt = b\n"
            "[junctions]\na\nb\n"
            "[arcs]\nab a b length_km=30 speed_kmh=60\n"
            "[routes]\nr1 flow_ev_per_s=0.1 arcs=ab\n"
        )
        sc = loads_scenario(text)
        assert sc.network.arc_by_id["ab"].delay_s == pytest.approx(1800.0)

    def test_optional_target(self):
        base = (
            "[meta]\nname = demo\nseed = 0\n"
            "[params]\nw_kwh = 1.0\nzc = 0.9\nzd = 1.0\nT_s = 18000.0\n"
            "[endpoints]\ns = a\nt = b\nx_target_kwh = 7.5\n"
            "[junctions]\na\nb\n"
            "[arcs]\nab a b delay_s=60\n"
            "[routes]\nr1 flow_ev_per_s=0.1 arcs=ab\n"
        )
        assert loads_scenario(base).target_kwh == 7.5

    @pytest.mark.parametrize(
        "mutation,needle",
        [
            ("[arcs]\nab a b\n", "line"),  # missing delay fields
            ("[arcs]\nab a b delay_s=abc\n", "number"),
            ("[routes]\nr1 arcs=ab\n", "flow_ev_per_s"),
            ("[bogus]\n", "unknown section"),
            ("stray line\n", "before any section"),
        ],
    )
    def test_malformed_input_reports_context(self, mutation, needle):
        if mutation.startswith("["):
            text = mutation
            if "arcs" in mutation or "routes" in mutation:
                text = (
                    "[meta]\nname = d\nseed = 0\n"
                    "[params]\nw_kwh = 1.0\nzc = 0.9\nzd = 1.0\nT_s = 18000.0\n"
                    "[endpoints]\ns = a\nt = b\n"
                    "[junctions]\na\nb\n" + mutation
                )
        else:
            text = mutation
        with pytest.raises(ScenarioFormatError) as err:
            loads_scenario(text)
        assert needle in str(err.value)

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("t = b\n", "t = b\nx_target_kwh = abc\n", f"line 12: {BAD_TARGET}: 'abc'"),
            ("t = b\n", "t = b\nx_target_kwh = nan\n", f"line 12: {BAD_TARGET}: 'nan'"),
            ("t = b\n", "t = b\nx_target_kwh = -5\n", f"line 12: {BAD_TARGET}: '-5'"),
            ("t = b\n", "t = b\nx_target_kwh = inf\n", f"line 12: {BAD_TARGET}: 'inf'"),
            ("a\nb\n", "a\nb\na\n", "line 15: repeated junction 'a'"),
            ("seed = 0\n", "seed = 0\nseed = 1\n", "line 4: repeated key 'seed' in \\[meta\\]"),
            ("zd = 1.0\n", "zd = 1.0\nzd = 0.5\n", "line 8: repeated key 'zd' in \\[params\\]"),
            ("t = b\n", "t = b\nt = a\n", "line 12: repeated key 't' in \\[endpoints\\]"),
            ("delay_s=60", "delay_s=60 delay_s=90", "line 16: repeated field delay_s="),
            ("arcs=ab", "arcs=ab flow_ev_per_s=0.2", "line 18: repeated field flow_ev_per_s="),
            ("delay_s=60", "delay_s=60 oops", "line 16: expected key=value, got 'oops'"),
            ("zc = 0.9", "zc 0.9", "line 6: expected key = value in \\[params\\]"),
            ("a\nb\n", "a x\nb\n", "line 13: one junction id per line"),
            ("delay_s=60", "length_km=30", "line 16: arc needs delay_s or length_km\\+speed_kmh"),
            ("flow_ev_per_s=0.1", "flow=0.1", "line 18: route needs flow_ev_per_s and arcs"),
            ("flow_ev_per_s=0.1", "flow_ev_per_s=fast", "line 18: route flow is not a number"),
            ("arcs=ab", "arcs=,", "line 18: route has no arcs"),
            ("T_s = 18000.0\n", "", "\\[params\\] missing field 'T_s'"),
            ("s = a\n", "", "\\[endpoints\\] missing field 's'"),
            ("seed = 0", "seed = x", "bad numeric field"),
            ("delay_s=60", "delay_s=60 bogus=7", "line 16: unknown field bogus="),
            ("delay_s=60", "delay_s=600.0 length_km=1 speed_kmh=1", f"line 16: {BOTH_DELAYS}"),
            ("delay_s=60", "length_km=10 speed_kmh=0", f"line 16: {BAD_LENGTH_SPEED}"),
            ("delay_s=60", "length_km=10 speed_kmh=nan", f"line 16: {BAD_LENGTH_SPEED}"),
            ("delay_s=60", "length_km=-10 speed_kmh=60", f"line 16: {BAD_LENGTH_SPEED}"),
            ("delay_s=60", "length_km=inf speed_kmh=60", f"line 16: {BAD_LENGTH_SPEED}"),
            ("delay_s=60", "delay_s=0", "line 16: arc delay must be positive and finite"),
            ("delay_s=60", "delay_s=nan", "line 16: arc delay must be positive and finite"),
            ("delay_s=60", "length_km=1e300 speed_kmh=1e-300", "line 16: arc delay must be"),
            ("arcs=ab", "arcs=ab typo=3", "line 18: unknown field typo="),
            ("arcs=ab", "arcs=ab,,ab", "line 18: route has an empty arc id"),
            ("arcs=ab", "arcs=ab,", "line 18: route has an empty arc id"),
            ("zd = 1.0\n", "zd = 1.0\nfoo = 1\n", "line 8: unknown key 'foo' in \\[params\\]"),
            ("seed = 0\n", "seed = 0\nfoo = 1\n", "line 4: unknown key 'foo' in \\[meta\\]"),
            ("t = b\n", "t = b\nu = c\n", "line 12: unknown key 'u' in \\[endpoints\\]"),
            # the CSVs separate fields by "," and a path's parts by "|", ";" and ":"
            ("a\nb\n", "a,1\nb\n", f"line 13: junction id 'a,1' {SEPARATOR}"),
            ("ab a b", "a|b a b", f"line 16: arc id 'a\\|b' {SEPARATOR}"),
            ("r1 flow", "r;1 flow", f"line 18: route id 'r;1' {SEPARATOR}"),
            ("a\nb\n", "a\nb:2\n", f"line 14: junction id 'b:2' {SEPARATOR}"),
        ],
        ids=[
            "target-not-a-number", "target-nan", "target-negative", "target-inf",
            "repeated-junction", "repeated-meta-key", "repeated-params-key",
            "repeated-endpoints-key", "repeated-arc-field", "repeated-route-field",
            "field-without-equals", "key-without-equals", "two-junctions-on-a-line",
            "arc-without-delay", "route-without-flow", "route-flow-not-a-number",
            "route-without-arcs", "missing-param", "missing-endpoint", "seed-not-a-number",
            "unknown-arc-field", "delay-and-length-speed", "zero-speed", "nan-speed",
            "negative-length", "infinite-length", "zero-delay", "nan-delay", "overflowing-delay",
            "unknown-route-field", "empty-arc-id",
            "trailing-comma-in-arcs", "unknown-params-key", "unknown-meta-key",
            "unknown-endpoints-key", "comma-in-junction-id", "bar-in-arc-id",
            "semicolon-in-route-id", "colon-in-junction-id",
        ],
    )
    def test_bad_file_is_a_format_error(self, old, new, message):
        base = (
            "[meta]\nname = d\nseed = 0\n"
            "[params]\nw_kwh = 1.0\nzc = 0.9\nzd = 1.0\nT_s = 18000.0\n"
            "[endpoints]\ns = a\nt = b\n"
            "[junctions]\na\nb\n"
            "[arcs]\nab a b delay_s=60\n"
            "[routes]\nr1 flow_ev_per_s=0.1 arcs=ab\n"
        )
        assert loads_scenario(base).target_kwh is None
        assert base.count(old) == 1
        with pytest.raises(ScenarioFormatError, match=message):
            loads_scenario(base.replace(old, new))

    @pytest.mark.parametrize(
        "make",
        [
            lambda: generate_grid(4, 4, 10.0, 60.0, 20, ("const", 0.1), seed=4),
            lambda: generate_grid(4, 4, 10.0, 60.0, 20, ("uniform", 0.1, 0.3), seed=47),
            lambda: dataclasses.replace(generate_random(8, 0.4, 4, 20, seed=74), target_kwh=0.0),
            lambda: dataclasses.replace(generate_corridor(seed=0), target_kwh=2457.5),
        ],
        ids=["grid4", "grid47", "random", "corridor"],
    )
    def test_generated_scenarios_round_trip_byte_for_byte(self, make):
        sc = make()
        text = dumps_scenario(sc)
        assert loads_scenario(text) == sc
        assert dumps_scenario(loads_scenario(text)) == text

    def test_non_finite_flow_in_file_rejected(self):
        text = (
            "[meta]\nname = d\nseed = 0\n"
            "[params]\nw_kwh = 1.0\nzc = 0.9\nzd = 1.0\nT_s = 18000.0\n"
            "[endpoints]\ns = a\nt = b\n"
            "[junctions]\na\nb\n"
            "[arcs]\nab a b delay_s=60\n"
            "[routes]\nr1 flow_ev_per_s=nan arcs=ab\n"
        )
        sc = loads_scenario(text)
        with pytest.raises(StructuralError):
            prepare(sc)

    def test_reused_route_id_in_scenario_rejected(self):
        sc = generate_grid(4, 4, 10.0, 60.0, 20, ("const", 0.1), seed=4)
        first = sc.routes[0]
        extra = VehicularRoute(first.route_id, sc.routes[1].arcs, 0.2)
        sc = dataclasses.replace(sc, routes=sc.routes + (extra,))
        with pytest.raises(StructuralError, match="duplicate route id"):
            prepare(sc)

    def test_missing_sections_reported(self):
        with pytest.raises(ScenarioFormatError) as err:
            loads_scenario("[meta]\nname = d\n")
        assert "seed" in str(err.value)
