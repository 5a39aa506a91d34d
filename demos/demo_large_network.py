"""Walkthrough: sampled LP vs greedy heuristic on a 1000-junction corridor.

Full path enumeration is hopeless at this scale, so the exact LP (method I)
is off the table. That leaves the two scalable methods:

  II  - sample a bounded path subset, solve the LP over just those paths
  III - greedy heuristic that never enumerates anything up front

This script times both on a 20x50 highway-corridor network with 4800
routes and compares the loss each pays for the same energy targets.

Run it from the repository root (takes a few seconds):

    python demos/demo_large_network.py
"""

import time

import venroute as v

scenario = v.generate_corridor(seed=0)
print(f"scenario: {scenario.name}")
print(f"  {len(scenario.network.junctions)} junctions, {len(scenario.network.arcs)} arcs, "
      f"{len(scenario.routes)} routes")
print(f"  endpoints {scenario.source} -> {scenario.destination}, "
      f"transfer window {scenario.params.window_s / 3600:.0f} h")
print()

# One Instance serves both methods; its junction-route incidence is built
# here, outside both timings.
inst = v.Instance(scenario)
inst.accessibility
targets = (2000.0, 5000.0, 10000.0)

# ---------------------------------------------------------------------------
# Method III: the greedy, no enumeration at all. Its picks do not depend on
# the target, so each target extends one shared trajectory.
# ---------------------------------------------------------------------------
t0 = time.perf_counter()
greedy = {target: inst.greedy(target) for target in targets}
wall_greedy = time.perf_counter() - t0

# ---------------------------------------------------------------------------
# Method II: sample ten 30-path subsets with different seeds, solve the LP
# on each, and average the losses — the subsets differ, so the quality of
# the sampled optimum is itself a random variable worth averaging. Each
# subset's LP is assembled once and swept over every target on one HiGHS
# model; the first one also imports NumPy and SciPy.
# ---------------------------------------------------------------------------
t0 = time.perf_counter()
lps = [inst.lp(inst.sample(limit=30, seed=seed)) for seed in range(10)]
losses = {target: [] for target in targets}
for lp in lps:
    for target, sol in zip(targets, lp.sweep(targets)):
        if sol.status == "optimal":
            losses[target].append(v.plan_totals(sol.plan)[1])
sampled_avg = {t: sum(ls) / len(ls) if ls else float("nan") for t, ls in losses.items()}
wall_sampled = time.perf_counter() - t0

# ---------------------------------------------------------------------------
# Report. The greedy both runs faster and loses less energy here: a random
# 30-path sample rarely contains the corridor's cheapest path family, while
# the greedy constructs minimum-cycle paths directly.
# ---------------------------------------------------------------------------
print(f"{'target kWh':>11} | {'greedy loss':>12} | {'sampled-LP avg loss':>20}")
for target in targets:
    print(f"{target:>11.0f} | {greedy[target].loss_kwh:>12.2f} | {sampled_avg[target]:>20.2f}")
print()
print(f"wall time: greedy {wall_greedy:.2f}s for all targets, "
      f"sampled LP {wall_sampled:.2f}s (sampling + {len(lps) * len(targets)} solves)")
