"""Line-oriented scenario file format.

A scenario is one human-readable text document with bracketed sections:

    [meta]        name = ..., seed = ...
    [params]      w_kwh, zc, zd, T_s
    [endpoints]   s, t, optional x_target_kwh
    [junctions]   one junction id per line
    [arcs]        arc_id tail head delay_s=<s>   (or length_km=<km> speed_kmh=<kmh>)
    [routes]      route_id flow_ev_per_s=<f> arcs=<id,id,...>

Saving is canonical (sorted, repr floats), so load(save(x)) == x and re-saving
a loaded file is byte-identical. Loading takes no key or field beyond these,
an arc takes one of its two delay forms, and no id holds a separator of the
outputs (, | ; :); anything else raises ScenarioFormatError naming the line.
"""

from __future__ import annotations

import io
import math
import re

from .energy import EnergyParams, check_target
from .errors import DomainError, ScenarioFormatError
from .network import VehicularNetwork, VehicularRoute
from .scenarios import Scenario


def save_scenario(scenario: Scenario, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_scenario(scenario))


def load_scenario(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_scenario(fh.read())


def dumps_scenario(sc: Scenario) -> str:
    out = io.StringIO()
    w = out.write
    w("[meta]\n")
    w(f"name = {sc.name}\n")
    w(f"seed = {sc.seed}\n\n")
    w("[params]\n")
    w(f"w_kwh = {sc.params.packet_kwh!r}\n")
    w(f"zc = {sc.params.charge_eff!r}\n")
    w(f"zd = {sc.params.discharge_eff!r}\n")
    w(f"T_s = {sc.params.window_s!r}\n\n")
    w("[endpoints]\n")
    w(f"s = {sc.source}\n")
    w(f"t = {sc.destination}\n")
    if sc.target_kwh is not None:
        w(f"x_target_kwh = {sc.target_kwh!r}\n")
    w("\n[junctions]\n")
    for j in sorted(sc.network.junctions):
        w(f"{j}\n")
    w("\n[arcs]\n")
    for a in sorted(sc.network.arcs, key=lambda a: a.arc_id):
        w(f"{a.arc_id} {a.tail} {a.head} delay_s={a.delay_s!r}\n")
    w("\n[routes]\n")
    for r in sc.routes:
        arcs = ",".join(r.arcs)
        w(f"{r.route_id} flow_ev_per_s={r.flow!r} arcs={arcs}\n")
    return out.getvalue()


def _fail(lineno: int, message: str):
    raise ScenarioFormatError(f"line {lineno}: {message}")


def _fields(tokens: list[str], lineno: int) -> dict[str, str]:
    """The key=value tokens of an arc or route line, each key at most once."""
    fields: dict[str, str] = {}
    for tok in tokens:
        key, eq, value = tok.partition("=")
        if not eq:
            _fail(lineno, f"expected key=value, got {tok!r}")
        if key in fields:
            _fail(lineno, f"repeated field {key}=")
        fields[key] = value
    return fields


def _check_known(fields: dict[str, str], known: tuple[str, ...], lineno: int) -> None:
    for key in fields:
        if key not in known:
            _fail(lineno, f"unknown field {key}=")


# the key = value sections, each with its required keys; x_target_kwh is optional
_KEYED = {"meta": ("name", "seed"), "params": ("w_kwh", "zc", "zd", "T_s"), "endpoints": ("s", "t")}
# an id holding one would break the fields of the output CSVs or of their paths
_SEPARATOR = re.compile("[,|;:]").search


def loads_scenario(text: str) -> Scenario:
    section = None
    keyed: dict[str, dict[str, str]] = {name: {} for name in _KEYED}
    junctions: set[str] = set()
    target = None
    arcs: list[tuple[str, str, str, float]] = []
    routes: list[VehicularRoute] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1]
            if section not in (*_KEYED, "junctions", "arcs", "routes"):
                _fail(lineno, f"unknown section [{section}]")
            continue
        if section is None:
            _fail(lineno, "content before any section header")
        if section in keyed:
            key, eq, value = (part.strip() for part in line.partition("="))
            if not eq:
                _fail(lineno, f"expected key = value in [{section}]")
            if key not in _KEYED[section] and (section, key) != ("endpoints", "x_target_kwh"):
                _fail(lineno, f"unknown key {key!r} in [{section}]")
            if key in keyed[section]:
                _fail(lineno, f"repeated key {key!r} in [{section}]")
            keyed[section][key] = value
            if section == "endpoints" and key == "x_target_kwh":
                try:
                    target = float(value)
                    check_target(target)
                except (ValueError, DomainError):
                    _fail(lineno, f"x_target_kwh is not a finite, nonnegative number: {value!r}")
            continue
        tokens = line.split()  # the first is the line's junction, arc or route id
        if _SEPARATOR(tokens[0]):
            _fail(lineno, f"{section[:-1]} id {tokens[0]!r} holds one of , | ; :")
        if section == "junctions":
            if len(tokens) != 1:
                _fail(lineno, "one junction id per line")
            if line in junctions:
                _fail(lineno, f"repeated junction {line!r}")
            junctions.add(line)
        elif section == "arcs":
            if len(tokens) < 4:
                _fail(lineno, "arc needs: id tail head delay_s=... (or length/speed)")
            aid, tail, head = tokens[:3]
            fields = _fields(tokens[3:], lineno)
            try:
                if fields.keys() == {"delay_s"}:
                    delay = float(fields["delay_s"])
                elif fields.keys() == {"length_km", "speed_kmh"}:
                    length, speed = float(fields["length_km"]), float(fields["speed_kmh"])
                    if not (0.0 < length < math.inf and 0.0 < speed < math.inf):
                        _fail(lineno, "length_km and speed_kmh must be positive and finite")
                    delay = length / speed * 3600.0
                else:
                    _check_known(fields, ("delay_s", "length_km", "speed_kmh"), lineno)
                    if "delay_s" in fields:  # with length_km or speed_kmh
                        _fail(lineno, "arc takes delay_s or length_km+speed_kmh, not both")
                    _fail(lineno, "arc needs delay_s or length_km+speed_kmh")
            except ValueError:
                _fail(lineno, "arc numeric field is not a number")
            if not 0.0 < delay < math.inf:
                _fail(lineno, "arc delay must be positive and finite")
            arcs.append((aid, tail, head, delay))
        elif section == "routes":
            if len(tokens) < 3:
                _fail(lineno, "route needs: id flow_ev_per_s=... arcs=...")
            rid = tokens[0]
            fields = _fields(tokens[1:], lineno)
            if "flow_ev_per_s" not in fields or "arcs" not in fields:
                _fail(lineno, "route needs flow_ev_per_s and arcs fields")
            _check_known(fields, ("flow_ev_per_s", "arcs"), lineno)
            try:
                flow = float(fields["flow_ev_per_s"])
            except ValueError:
                _fail(lineno, "route flow is not a number")
            route_arcs = tuple(fields["arcs"].split(","))
            if not any(route_arcs):
                _fail(lineno, "route has no arcs")
            if not all(route_arcs):
                _fail(lineno, "route has an empty arc id")
            routes.append(VehicularRoute(rid, route_arcs, flow))

    for name, keys in _KEYED.items():
        for key in keys:
            if key not in keyed[name]:
                raise ScenarioFormatError(f"[{name}] missing field {key!r}")
    meta, params, endpoints = (keyed[name] for name in _KEYED)

    try:
        eparams = EnergyParams(
            packet_kwh=float(params["w_kwh"]),
            charge_eff=float(params["zc"]),
            discharge_eff=float(params["zd"]),
            window_s=float(params["T_s"]),
        )
        seed = int(meta["seed"])
    except ValueError as exc:
        raise ScenarioFormatError(f"bad numeric field: {exc}") from None

    network = VehicularNetwork.build(junctions, arcs)
    return Scenario(
        name=meta["name"],
        seed=seed,
        network=network,
        routes=tuple(routes),
        params=eparams,
        source=endpoints["s"],
        destination=endpoints["t"],
        target_kwh=target,
    )
