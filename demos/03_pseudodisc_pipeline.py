"""Pointed conflict-free coloring of disc and pseudo-disc families.
====================================================================

The pipeline picks a maximal independent set B, colors B conflict-free
against the remaining shapes acting as probes, colors the rest against B
with a disjoint palette (pruning overlapping pseudo-discs to depth-one
owners first), and verifies the result exactly.  The coloring's trace
says what the pipeline did: its vertex sets, its peels and the palette
bound it was certified against.
"""
import cfgeom as cf

scene = cf.generate_scene("discs", 150, seed=5)
coloring = cf.pointed_cf_pseudodiscs(scene)
trace = coloring.trace
print(f"discs: n=150, |B|={len(trace.vertices['independent_set'])}, palette {coloring.palette_size}"
      f" (bound {trace.palette_bound})")
peels = trace.peels["b"] + trace.peels["rest"]
print(f"peels run: {len(peels)}, max recorded degree:",
      max(max(o.degrees, default=0) for o in peels))

# convex-polygon pseudo-discs: homothets of a fixed pentagon
pent = cf.pentagon_template()
scene = cf.generate_scene("fat", 120, seed=9, rho=1.5, k=3.0, homothets_of=pent, base_size=0.05)
coloring = cf.pointed_cf_pseudodiscs(scene)
print(f"pentagons: n=120, pruned {len(coloring.trace.vertices['pruned'])} shapes, palette {coloring.palette_size}")

# the conversion to a closed coloring at most doubles the palette
g = cf.intersection_graph(scene)
closed = cf.pointed_to_closed(g, coloring)
print(f"closed conversion: palette {closed.palette_size} <= {2 * coloring.palette_size}")

cf.render_svg(scene, coloring, "pseudodiscs.svg")
print("wrote pseudodiscs.svg")
