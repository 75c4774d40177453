"""Why logarithmically many colors are necessary.
====================================================================

A row of unit discs at small spacing realizes every contiguous index run
as the containment set of some point of the plane.  The exhaustive
oracle shows the minimum number of conflict-free colors for those runs
grows like floor(log2 n) + 1, so the upper bounds in this package are
asymptotically sharp.
"""
import cfgeom as cf
from cfgeom.geom import contiguous_run_witnesses
from cfgeom.hypergraph import all_intervals_hypergraph

print("n  min CF colors")
for n in (1, 2, 4, 8):
    t, witness = cf.min_cf_colors_bruteforce(all_intervals_hypergraph(n), 8)
    print(f"{n}  {t}   witness {witness.colors}")

# the runs really are realizable: the discs containing each witness point are exactly its run
witnesses = contiguous_run_witnesses(8, 0.2)
family = cf.generate_lower_bound_family(8, 0.2)
exact = all(
    run == {i for i, disc in enumerate(family.shapes) if cf.intersects(cf.Disc(p, 0.0), disc)}
    for run, p in witnesses.items()
)
print(f"runs of the n=8 family: {len(witnesses)}, each one the containment set of its witness: {exact}")

# placing a tiny probe disc at each witness point forces the same palette
probes = cf.Scene(tuple(cf.Disc(p, 1e-4) for p in witnesses.values()), "discs")
coloring = cf.cf_color_vs_probes(cf.ProbeSystem(family, probes, "disc"))
print(f"probe coloring of the n=8 family uses {coloring.palette_size} >= 4 colors")
