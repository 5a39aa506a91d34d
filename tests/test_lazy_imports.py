"""NumPy and SciPy load only when an LP is built or solved."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Runs the commands that build no LP and prints, as JSON, each one's exit code
# and output file, and the NumPy or SciPy modules loaded. With "blocked" as
# its argument, importing either package fails.
COMMANDS = """
import json, sys
if sys.argv[1:] == ["blocked"]:
    sys.modules["numpy"] = sys.modules["scipy"] = None
from venroute.cli import main
runs = {
    "gen-grid": ["gen-grid", "--seed", "47", "--flow", "uniform:0.1,0.3"],
    "gen-random": ["gen-random", "--junctions", "7", "--seed", "3"],
    "growth": ["growth", "--n-values", "4,6", "--densities", "0.3,0.5", "--instances", "3"],
    "growth-capped": ["growth", "--n-values", "4,6", "--instances", "2", "--cap", "8"],
    "growth-bad-cap": ["growth", "--cap", "-1"],
    "enumerate": ["enumerate", "--scenario", "gen-grid", "--limit", "10"],
    "enumerate-full": ["enumerate", "--scenario", "gen-grid"],
    "solve": ["solve", "--scenario", "gen-grid", "--method", "III", "--target", "500"],
    "solve-infeasible": ["solve", "--scenario", "gen-grid", "--method", "III", "--target", "1e6"],
    "compare": ["compare", "--scenario", "gen-grid", "--targets", "1,500,2900", "--methods", "III"],
}
out = {}
for name, argv in runs.items():
    code = main([*argv, "--out", name])
    try:
        with open(name, encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        text = None
    out[name] = [code, text]
loaded = sorted(m for m, mod in sys.modules.items() if mod and m.split(".")[0] in ("numpy", "scipy"))
print(json.dumps({"runs": out, "loaded": loaded}))
"""


def run_python(args, cwd):
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, check=True
    )
    return proc.stdout


def test_importing_the_package_loads_neither_numpy_nor_scipy(tmp_path):
    code = (
        "import sys, venroute; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy')))"
    )
    assert run_python(["-c", code], tmp_path) == "[]\n"


def test_commands_without_an_lp_run_alike_with_numpy_and_scipy_blocked(tmp_path):
    results = {}
    for mode in ("normal", "blocked"):
        (tmp_path / mode).mkdir()
        results[mode] = json.loads(run_python(["-c", COMMANDS, mode], tmp_path / mode))
    normal, blocked = results["normal"], results["blocked"]
    assert normal["loaded"] == blocked["loaded"] == []
    assert blocked["runs"] == normal["runs"]
    codes = {name: code for name, (code, _text) in normal["runs"].items()}
    assert codes == {
        "gen-grid": 0, "gen-random": 0, "growth": 0, "growth-capped": 0, "growth-bad-cap": 1,
        "enumerate": 0, "enumerate-full": 0, "solve": 0, "solve-infeasible": 3, "compare": 0,
    }
    assert ",true\n" in normal["runs"]["growth-capped"][1]  # some instance hit the cap
