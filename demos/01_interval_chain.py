"""Closed conflict-free coloring of intervals with three colors.
====================================================================

A chain of intervals is selected left to right and colored 1, 2
alternately; everything else is colored 3.  Every interval then sees a
uniquely colored member of its closed neighborhood.
"""
import cfgeom as cf

# a small hand-made family first: the chain is easy to follow
scene = cf.Scene((cf.Interval(0, 2), cf.Interval(1, 4), cf.Interval(3, 6), cf.Interval(0.5, 1.2)))
coloring = cf.closed_cf_color_intervals(scene)
print("intervals:", [(s.lo, s.hi) for s in scene.shapes])
print("chain    :", coloring.trace.vertices["chain"])
print("colors   :", coloring.colors)

# a bigger random family: still never more than 3 colors, always verified
scene = cf.generate_scene("intervals", 120, seed=42)
coloring = cf.closed_cf_color_intervals(scene)
print(f"random n=120: palette {coloring.palette_size}, chain of {len(coloring.trace.vertices['chain'])} links")

# the verifier is independent of the construction; run it once more here
h = cf.neighborhood_hypergraph(cf.intersection_graph(scene), "closed")
print("closed-CF violations:", cf.verify_cf(h, coloring))

cf.render_svg(scene, coloring, "interval_chain.svg")
print("wrote interval_chain.svg")
