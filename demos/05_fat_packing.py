"""Conflict-free coloring of fat convex objects by grid packing.
====================================================================

Anchors land in a unit grid whose cell colors repeat with period
4*k*ceil(rho) + 1; one object per occupied cell carries its cell color
and a recoloring pass fixes the representatives that lack one.  Dyadic
size buckets with fresh palettes turn the pointed guarantee into a
closed one for any size-ratio k.
"""
import cfgeom as cf
from cfgeom.fat import grid_side

scene = cf.generate_scene("fat", 120, seed=4, rho=2.0, k=4.0)
pointed = cf.pointed_cf_color_fat(scene, rho=2.0, k=4.0)
t = grid_side(2.0, 4.0) ** 2
print(f"pointed: palette {pointed.palette_size} <= {2 * t + 1} (grid side {grid_side(2.0, 4.0)})")

closed = cf.closed_cf_color_fat(scene, rho=2.0, k=4.0)
buckets = {}
for b, c in zip(closed.trace.vertices["bucket"], closed.colors):
    buckets.setdefault(b, []).append(c)
print(f"closed: palette {closed.palette_size} <= {closed.trace.palette_bound} across {len(buckets)} size buckets")
print("bucket,count,color_lo,color_hi")
for b, colors in sorted(buckets.items()):
    print(f"{b},{len(colors)},{min(colors)},{max(colors)}")

# discs are exactly the 1-fat objects, so they go through the same machinery
discs = cf.generate_scene("discs", 80, seed=8, radius_range=(0.05, 0.05))
unit = cf.pointed_cf_color_fat(discs, rho=1.0, k=1.0)
print(f"unit discs (rho=1, k=1): palette {unit.palette_size} <= {2 * grid_side(1.0, 1.0) ** 2 + 1}")

cf.render_svg(scene, closed, "fat_objects.svg")
print("wrote fat_objects.svg")
