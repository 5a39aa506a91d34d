"""Each decision lives in one module: what another module reads of it there
would be a second copy to keep in step."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "venroute"


def modules_reading(reads) -> list[str]:
    """The package's modules for which ``reads(attributes, names)`` holds, given
    every attribute (``x.attr``) and every other name or imported name in them."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
        attributes = {n.attr for n in nodes if isinstance(n, ast.Attribute)}
        names = {n.id for n in nodes if isinstance(n, ast.Name)}
        names |= {n.name for n in nodes if isinstance(n, ast.alias)}
        if reads(attributes, names):
            out.append(path.name)
    return out


def test_only_network_reads_the_incidence_maps():
    # the route search, the live successors and the index sets all live in network
    assert modules_reading(lambda attributes, _names: {"visits", "seqs"} & attributes) == [
        "network.py"
    ]


def test_only_rateopt_builds_lp_classes():
    # path sets and span chains alike become LP columns in rateopt
    assert modules_reading(lambda attributes, names: "_Classes" in attributes | names) == [
        "rateopt.py"
    ]
