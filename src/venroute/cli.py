"""Command-line front end.

Subcommands: gen-grid, gen-random, enumerate, solve, compare, growth.
Exit codes: 0 success, 3 when the only problem was infeasibility, 1 on error, a
safety cap included (compare still writes its table, solve its partial plan),
2 on a malformed command line.
"""

from __future__ import annotations

import argparse
import sys

from .energy import plan_totals
from .errors import EnumerationCapError, VenError
from .experiments import Instance, run_compare, run_growth
from .heuristic import COMBINATION_CAP
from .pathenum import DEFAULT_CAP, _at_least_one
from .scenario_io import load_scenario, save_scenario
from .scenarios import generate_grid, generate_random

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 3


def _parse_flow_spec(text: str):
    kind, _, rest = text.partition(":")
    try:
        if kind == "const":
            return ("const", float(rest))
        if kind == "uniform":
            lo, hi = rest.split(",")
            return ("uniform", float(lo), float(hi))
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"flow spec must be const:<c> or uniform:<lo>,<hi>, got {text!r}"
    )


def _csv_list(kind: type, what: str):
    def parse(text: str) -> list:  # "" gives [], which the library rejects as empty
        try:
            return [kind(tok) for tok in text.split(",")] if text else []
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected comma-separated {what}, got {text!r}")
    return parse


def _write(path: str | None, content: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(content)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(content)


def _path_csv(paths, complete: bool) -> str:
    lines = [f"# complete={str(complete).lower()}"]
    lines.append("index,junctions,segments,cycles,delay_s,bottleneck_flow_ev_per_s")
    for idx, p in enumerate(paths):
        junctions = "|".join(p.boundaries)
        segments = ";".join(f"{rid}:{n}:{m}" for rid, n, m in p.segments)
        lines.append(
            f"{idx},{junctions},{segments},{p.cycles},{p.delay_s:.6f},{p.bottleneck_flow:.6f}"
        )
    return "\n".join(lines) + "\n"


def _plan_csv(entries, delivered: float, loss: float) -> str:
    lines = ["path_index,junctions,cycles,delay_s,rate_kwh_per_s,energy_kwh"]
    for idx, e in enumerate(entries):
        junctions = "|".join(e.path.boundaries)
        lines.append(
            f"{idx},{junctions},{e.path.cycles},{e.path.delay_s:.6f},"
            f"{e.rate:.9f},{e.delivered_kwh:.6f}"
        )
    lines.append(f"total,,,,,{delivered:.6f}")
    lines.append(f"loss,,,,,{loss:.6f}")
    return "\n".join(lines) + "\n"


def _cmd_gen_grid(args) -> int:
    sc = generate_grid(
        rows=args.rows,
        cols=args.cols,
        arc_length_km=args.arc_km,
        speed_kmh=args.speed_kmh,
        route_count=args.routes,
        flow_spec=args.flow,
        seed=args.seed,
    )
    save_scenario(sc, args.out)
    return EXIT_OK


def _cmd_gen_random(args) -> int:
    sc = generate_random(
        n_junctions=args.junctions,
        road_density=args.density,
        route_length_cap=args.route_length_cap,
        route_count=args.routes,
        seed=args.seed,
    )
    save_scenario(sc, args.out)
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    _at_least_one(args.cap, "enumeration cap")  # also when --limit leaves it unread
    inst = Instance(load_scenario(args.scenario))
    bounded = args.limit is not None
    pathset = inst.sample(args.limit, args.seed) if bounded else inst.paths(args.cap)
    _write(args.out, _path_csv(pathset.paths, pathset.complete))
    return EXIT_OK


def _cmd_solve(args) -> int:
    _at_least_one(args.cap, "enumeration cap")  # both, whichever the method reads
    _at_least_one(args.subset_limit, "limit")
    sc = load_scenario(args.scenario)
    target = args.target if args.target is not None else sc.target_kwh
    if target is None:
        raise VenError("no energy target: pass --target or set x_target_kwh in the file")
    inst = Instance(sc)
    if args.method == "III":
        result = inst.greedy(target)
        _write(args.out, _plan_csv(result.plan.entries, result.delivered_kwh, result.loss_kwh))
        if result.stop_reason == COMBINATION_CAP:  # a safety cap is not infeasibility
            raise EnumerationCapError(f"{COMBINATION_CAP}: a safety cap cut the greedy short")
        return EXIT_OK if result.status == "success" else EXIT_INFEASIBLE
    draw = inst.paths(args.cap) if args.method == "I" else inst.sample(args.subset_limit, args.seed)
    sol = inst.lp(draw).solve(target)
    if sol.status != "optimal":
        _write(args.out, "status,infeasible\n")
        return EXIT_INFEASIBLE
    _write(args.out, _plan_csv(sol.plan.entries, *plan_totals(sol.plan)))
    return EXIT_OK


def _cmd_compare(args) -> int:
    sc = load_scenario(args.scenario)
    table = run_compare(
        sc,
        targets=args.targets,
        methods=tuple(args.methods.split(",")),
        subset_limit=args.subset_limit,
        subset_seeds=args.subset_seeds,
        enumeration_cap=args.cap,
    )
    _write(args.out, table.to_csv(include_timings=args.timings))
    statuses = {r.status for r in table.rows}
    if any(status.startswith("error") for status in statuses):
        return EXIT_ERROR
    if statuses and statuses <= {"infeasible"}:
        return EXIT_INFEASIBLE
    return EXIT_OK


def _cmd_growth(args) -> int:
    csv_text = run_growth(
        n_values=args.n_values,
        density_grid=args.densities,
        instances_per_cell=args.instances,
        seed=args.seed,
        enumeration_cap=args.cap,
    )
    _write(args.out, csv_text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ven", description="Energy routing over vehicular networks"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-grid", help="generate a grid scenario file")
    p.add_argument("--rows", type=int, default=4)
    p.add_argument("--cols", type=int, default=4)
    p.add_argument("--arc-km", type=float, default=10.0)
    p.add_argument("--speed-kmh", type=float, default=60.0)
    p.add_argument("--routes", type=int, default=20)
    p.add_argument("--flow", type=_parse_flow_spec, default=("const", 0.1))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_grid)

    p = sub.add_parser("gen-random", help="generate a random-digraph scenario file")
    p.add_argument("--junctions", type=int, default=6)
    p.add_argument("--density", type=float, default=0.3)
    p.add_argument("--route-length-cap", type=int, default=5)
    p.add_argument("--routes", type=int, default=15)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_random)

    p = sub.add_parser("enumerate", help="enumerate energy paths of a scenario")
    p.add_argument("--scenario", required=True)
    p.add_argument("--limit", type=int, default=None, help="bounded subset instead of full set")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("solve", help="solve the min-loss problem with one method")
    p.add_argument("--scenario", required=True)
    p.add_argument("--method", choices=("I", "II", "III"), required=True)
    p.add_argument("--target", type=float, default=None, help="energy target in kWh")
    p.add_argument("--subset-limit", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("compare", help="sweep targets across methods, emit a CSV table")
    p.add_argument("--scenario", required=True)
    p.add_argument("--targets", type=_csv_list(float, "numbers"), required=True)
    p.add_argument("--methods", default="I,II,III")
    p.add_argument("--subset-limit", type=int, default=50)
    p.add_argument("--subset-seeds", type=_csv_list(int, "integers"), default=list(range(20)))
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    timings = (
        "wall times; the methods run one after another, in the order given; I and II rows "
        "add one-off costs (II: sampling every seed, one LP and one solve per distinct "
        "subset), III rows only the picks they add"
    )
    p.add_argument("--timings", action="store_true", help=timings)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("growth", help="path-count growth study over random networks")
    p.add_argument("--n-values", type=_csv_list(int, "integers"), default=[4, 6, 8, 10])
    p.add_argument("--densities", type=_csv_list(float, "numbers"), default=[0.2, 0.35, 0.5])
    p.add_argument("--instances", type=int, default=30)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cap", type=int, default=200_000)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_growth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (VenError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
