"""NumPy and SciPy load only when an LP is built or solved, and of SciPy only
the HiGHS binding loads."""

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


# Runs methods I, II and III on grid 47 and prints, as JSON, the exit codes and
# the SciPy modules then loaded; then whether SciPy's own HiGHS users share the
# solver's module.
LP_COMMANDS = """
import json, sys
from venroute.cli import main
from venroute.rateopt import _HIGHS, _lp_backend
codes = [
    main(["gen-grid", "--seed", "47", "--flow", "uniform:0.1,0.3", "--out", "grid47"]),
    main(["compare", "--scenario", "grid47", "--targets", "1,500,2457,2900",
          "--methods", "I,II,III", "--out", "compare"]),
    main(["solve", "--scenario", "grid47", "--method", "I", "--target", "500", "--out", "plan"]),
]
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
from scipy.optimize import linprog
from scipy.optimize._highspy import _core, _highs_wrapper
res = linprog([1.0, 2.0], A_ub=[[-1.0, -1.0]], b_ub=[-1.0], method="highs")
highs = _lp_backend()[1]
print(json.dumps({
    "codes": codes, "loaded": loaded, "linprog": [res.status, res.x.tolist()],
    "same": [highs is _core, highs is _highs_wrapper._h, highs is sys.modules[_HIGHS]],
}))
"""


def test_lp_methods_load_only_the_highs_binding_of_scipy(tmp_path):
    out = json.loads(run_python(["-c", LP_COMMANDS], tmp_path))
    assert out["codes"] == [0, 0, 0]
    core = "scipy.optimize._highspy._core"
    assert core in out["loaded"]
    assert all(m == core or m.startswith(core + ".") for m in out["loaded"]), out["loaded"]
    # and SciPy, imported after, solves with the solver's own module
    assert out["linprog"] == [0, [1.0, 0.0]]
    assert out["same"] == [True, True, True]


def test_solver_reuses_the_binding_scipy_optimize_loaded(tmp_path):
    code = (
        "import sys, scipy.optimize; from scipy.optimize._highspy import _core; "
        "from venroute import rateopt; from venroute.cli import main; "
        "main(['gen-grid', '--seed', '4', '--out', 'grid4']); "
        "code = main(['solve', '--scenario', 'grid4', '--method', 'I', '--target', '200', "
        "'--out', 'plan']); "
        "print(code, rateopt._lp_backend()[1] is _core is sys.modules[rateopt._HIGHS])"
    )
    assert run_python(["-c", code], tmp_path) == "0 True\n"


def test_concurrent_first_loads_get_one_module(tmp_path):
    # each load waits inside the check-and-load, so without the lock every
    # thread would find no module and load its own
    code = """
import importlib.util, sys, threading, time
from venroute import rateopt
module_from_spec = importlib.util.module_from_spec

def slow_module_from_spec(spec):
    time.sleep(0.05)
    return module_from_spec(spec)

importlib.util.module_from_spec = slow_module_from_spec
sys.setswitchinterval(1e-6)
barrier, got = threading.Barrier(4), []

def load():
    barrier.wait()
    got.append(rateopt._load_highs())

threads = [threading.Thread(target=load) for _ in range(4)]
for th in threads:
    th.start()
for th in threads:
    th.join(timeout=60)
print(any(th.is_alive() for th in threads), len(got),
      all(m is sys.modules[rateopt._HIGHS] for m in got))
"""
    assert run_python(["-c", code], tmp_path) == "False 4 True\n"


def test_missing_scipy_or_binding_is_an_import_error(tmp_path):
    # SciPy blocked, then a SciPy package without the binding's file
    fake = tmp_path / "fake"
    (fake / "scipy" / "optimize" / "_highspy").mkdir(parents=True)
    (fake / "scipy" / "__init__.py").write_text("")
    code = """
import sys
if sys.argv[1] == "blocked":
    sys.modules["scipy"] = None
else:
    sys.path.insert(0, sys.argv[1])
from venroute.rateopt import _lp_backend
try:
    _lp_backend()
except ImportError as exc:
    print(type(exc).__name__, exc.name, exc)
"""
    want = (
        "ModuleNotFoundError scipy.optimize._highspy._core No module named "
        "'scipy.optimize._highspy._core': solving an LP needs SciPy 1.15 or later\n"
    )
    for arg in ("blocked", str(fake)):
        assert run_python(["-c", code, arg], tmp_path) == want
