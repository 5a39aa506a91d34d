"""Walkthrough: three ways to move energy across a 4x4 road grid.

We build a seeded grid scenario, enumerate every energy path between the
opposite corners, then ask for the same energy target three ways:

  I   - linear program over the full path set (exact optimum)
  II  - linear program over a small sampled subset of paths
  III - greedy heuristic that fills fewest-cycle paths first

Run it from the repository root:

    python demos/demo_grid_methods.py
"""

import venroute as v

# ---------------------------------------------------------------------------
# A grid where every route carries the same flow. With uniform flows the
# optimum is simple to reason about: every delivered kWh should ride a
# minimum-cycle path, so the loss ratio is exactly 1/z^c - 1 for the
# smallest cycle count c available. An Instance derives what the three
# methods share (routes, accessibility graph, successors) once.
# ---------------------------------------------------------------------------
scenario = v.generate_grid(
    rows=4, cols=4, arc_length_km=10.0, speed_kmh=60.0,
    route_count=20, flow_spec=("const", 0.1), seed=4,
)
inst = v.Instance(scenario)
paths = inst.paths()
min_cycles = min(p.cycles for p in paths.paths)
print(f"scenario: {scenario.name}, {len(scenario.network.junctions)} junctions")
print(f"energy paths {scenario.source} -> {scenario.destination}: {len(paths.paths)}")
print(f"fewest charge/discharge cycles on any path: {min_cycles}")
print(f"best possible loss ratio: {1 / scenario.params.efficiency**min_cycles - 1:.6f} kWh lost per kWh delivered")
print()

# ---------------------------------------------------------------------------
# Solve for a 200 kWh target with each method. Methods I and II assemble the
# LP of a path set once; the LP then solves itself at any target.
# ---------------------------------------------------------------------------
target = 200.0

full = inst.lp(paths).solve(target)
_, full_loss = v.plan_totals(full.plan)
print(f"method I   (full LP):     status={full.status}, loss={full_loss:.4f} kWh")

subset = inst.sample(limit=10, seed=0)
sampled = inst.lp(subset).solve(target)
_, sampled_loss = v.plan_totals(sampled.plan)
print(f"method II  (sampled LP):  status={sampled.status}, loss={sampled_loss:.4f} kWh "
      f"({len(subset.paths)} of {len(paths.paths)} paths)")

greedy = inst.greedy(target)
print(f"method III (greedy):      status={greedy.status}, loss={greedy.loss_kwh:.4f} kWh, "
      f"{greedy.paths_used} paths used")
print()

# ---------------------------------------------------------------------------
# With uniform flows all three agree: minimum-cycle capacity alone covers
# the target. Push the target toward the network's ceiling and the picture
# changes — the greedy commits to whole paths and starts paying for it.
# Seed 47 with non-uniform flows shows all three regimes.
# ---------------------------------------------------------------------------
varied = v.Instance(v.generate_grid(
    rows=4, cols=4, arc_length_km=10.0, speed_kmh=60.0,
    route_count=20, flow_spec=("uniform", 0.1, 0.3), seed=47,
))
vpaths = varied.paths()
print(f"non-uniform scenario: {len(vpaths.paths)} paths")
vlp = varied.lp(vpaths)  # one LP, on one HiGHS model, for the whole sweep
vtargets = (500.0, 2457.0, 2900.0)
for target, sol in zip(vtargets, vlp.sweep(vtargets)):
    h = varied.greedy(target)
    lp_loss = v.plan_totals(sol.plan)[1] if sol.status == "optimal" else float("nan")
    print(f"  target {target:7.1f} kWh: LP {sol.status:>10} loss={lp_loss:9.4f} | "
          f"greedy {h.status:>10} loss={h.loss_kwh:9.4f}")
print()
print("At low targets the methods tie; in the middle the greedy is feasible but")
print("lossier; near the ceiling only the LP still finds a feasible split.")
