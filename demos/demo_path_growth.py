"""Walkthrough: how fast the energy-path count grows.

The number of loop-free junction sequences between two endpoints obeys
f(n) = 1 + (n-1) f(n-1), which is within a constant of (n-1)! — so full
enumeration stops being an option very quickly. This script shows the
recurrence, confirms it is tight on fully connected networks, and then
measures average path counts on random road networks as size and density
grow.

Run it from the repository root:

    python demos/demo_path_growth.py
"""

import venroute as v

# ---------------------------------------------------------------------------
# The counting recurrence and its factorial envelope.
# ---------------------------------------------------------------------------
print("n   f(n)        (n-1)! * e")
for n in range(1, 11):
    print(f"{n:<3} {v.f_bound(n):<11} {v.f_closed_bound(n):.1f}")
print()

# ---------------------------------------------------------------------------
# The bound is exact when every junction can reach every other directly:
# a complete accessibility digraph on n junctions has f(n-1) paths.
# ---------------------------------------------------------------------------
for n in (4, 5, 6):
    junctions = [f"n{k}" for k in range(n)]
    arcs, routes = [], []
    for i in junctions:
        for j in junctions:
            if i != j:
                arc_id = f"a_{i}_{j}"
                arcs.append((arc_id, i, j, 60.0))
                routes.append(v.VehicularRoute(f"r_{i}_{j}", (arc_id,), 0.1))
    inst = v.Instance(v.Scenario(
        name=f"complete-{n}", seed=0, network=v.VehicularNetwork.build(junctions, arcs),
        routes=tuple(routes), params=v.EnergyParams(1.0, 0.9, 1.0, 18000.0),
        source=junctions[0], destination=junctions[-1],
    ))
    seqs = v.enumerate_sequences(inst.accessibility.arcs, junctions[0], junctions[-1])
    print(f"complete digraph on {n} junctions: {len(seqs)} sequences == f({n - 1}) = {v.f_bound(n - 1)}")
print()

# ---------------------------------------------------------------------------
# On random road networks the same forces show up statistically: more
# junctions or more roads -> more paths, at a growth rate that quickly
# dwarfs what a solver can enumerate. run_growth averages 30 seeded
# instances per cell and reports whether both trends are monotone.
# ---------------------------------------------------------------------------
csv_text = v.run_growth(
    n_values=[4, 6, 8, 10],
    density_grid=[0.2, 0.35, 0.5],
    instances_per_cell=30,
    seed=0,
)
for line in csv_text.strip().split("\n"):
    if line.startswith("# mean") or line.startswith("# trend"):
        print(line)
print()
print("Full per-instance rows are in the CSV body; the same study is available")
print("from the command line as: ven growth --out growth.csv")
