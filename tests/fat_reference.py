"""Reference implementation of the fat-object grid colorers.

This is the earlier `cfgeom.fat`, kept verbatim apart from its imports: a
per-vertex dict of cells and of representatives, a `Graph.subgraph` and a
pointed coloring per dyadic size bucket, and each bucket's palette compacted
by `_densify`.  The tests require the single grid pass in `cfgeom.fat` to
reproduce its colors, palette maps and traces exactly.

Pointed and closed CF coloring of fat convex objects by grid packing.

Every object carries a certificate (anchor, r_inner, r_outer); after scaling
so the smallest inner radius is 1, anchors are binned into a unit grid whose
cell colors repeat with period 4*k*ceil(rho) + 1 in each direction.  The
period is chosen so that an object can intersect at most one representative
of any cell-color class, which makes the representative colors unique in
every pointed neighborhood.  Disc scenes are accepted directly: a disc is the
1-fat object with certificate (center, r, r).
"""
from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from cfgeom.errors import InvalidInputError
from cfgeom.framework import _class_levels, _flat_coloring
from cfgeom.geom import Scene
from cfgeom.hypergraph import Coloring, Graph, Trace, certify, intersection_graph

__all__ = [
    "pointed_cf_color_fat",
    "closed_cf_color_fat",
    "grid_side",
]

_CERT_TOL = 1 + 1e-9
_MAX_BOUND = 2**62  # flat color ids stay below it, so they fit int64


def _certificates(objs: Scene, rho: float, k: float) -> np.ndarray:
    """The scene's (ax, ay, r_inner, r_outer) certificates, validated against rho and k."""
    certs = objs.certificates
    with np.errstate(over="ignore"):  # a ratio beyond float range reads inf and fails its test
        ratio = certs[:, 3] / certs[:, 2]
        spread = certs[:, 2].max() / certs[:, 2].min()
    over = np.flatnonzero(ratio > rho * _CERT_TOL)
    if len(over):
        raise InvalidInputError(f"object {over[0]} has fatness {ratio[over[0]]:.4f} above the declared {rho}")
    if spread > k * _CERT_TOL:
        raise InvalidInputError(f"family size-ratio {spread:.4f} exceeds the declared {k}")
    return certs


def grid_side(rho: float, k: float) -> int:
    """Cell-color period 4*k*ceil(rho) + 1 (k rounded up to an integer)."""
    return 4 * math.ceil(k) * math.ceil(rho) + 1


def _cells(certs: np.ndarray) -> list[tuple[int, int]]:
    """Unit-grid cell of each normalized anchor, with the grid origin shifted
    deterministically until no anchor sits on a gridline."""
    smin = float(certs[:, 2].min())
    pts = [(ax / smin, ay / smin) for ax, ay in certs[:, :2].tolist()]
    shift = 2.0**-20
    for _ in range(60):
        if all((x - shift) % 1.0 != 0.0 and (y - shift) % 1.0 != 0.0 for x, y in pts):
            break
        shift *= 2
    else:
        raise InvalidInputError("could not shift anchors off the grid lines: coordinates too large for the grid")
    return [(math.floor(x - shift), math.floor(y - shift)) for x, y in pts]


def pointed_cf_color_fat(objs: Scene, rho: float, k: float) -> Coloring:
    """Pointed CF coloring with at most 2*(4*k*ceil(rho)+1)^2 + 1 colors.

    Phase 1 gives the lowest-index object of every occupied cell the cell's
    color at level 1 and everyone else the spare color (t+1, 1).  Phase 2
    walks the representatives; one that has no level-1 representative neighbor
    recolors its lowest-index spare neighbor to its own color at level 2.
    Colors (i, level) are flattened to 2*(i-1) + (level-1).
    """
    if not (1 <= rho < math.inf and 1 <= k < math.inf):
        raise InvalidInputError("need finite rho >= 1 and k >= 1")
    side = grid_side(rho, k)
    bound = 2 * side * side + 1
    if bound >= _MAX_BOUND:
        raise InvalidInputError(f"rho={rho} and k={k} allow more colors than 64-bit color ids hold")
    if len(objs) == 0:
        return Coloring((), trace=Trace(bound))
    certs = _certificates(objs, rho, k)
    g = intersection_graph(objs)
    out = replace(_pointed_fat(certs, side, g), trace=Trace(bound))
    return certify(g, out, "pointed", bound=bound, what="grid coloring")


def _pointed_fat(certs: np.ndarray, side: int, g: Graph) -> Coloring:
    """pointed_cf_color_fat on validated certificates and their contact graph,
    without certification."""
    n = len(certs)
    t = side * side
    cells = _cells(certs)

    cell_color = {cell: (cell[0] % side) * side + (cell[1] % side) + 1 for cell in set(cells)}
    rep_of_cell: dict[tuple[int, int], int] = {}
    for i, cell in enumerate(cells):
        rep_of_cell.setdefault(cell, i)
    pair = [(t + 1, 1)] * n
    for cell, rep in rep_of_cell.items():
        pair[rep] = (cell_color[cell], 1)

    ptr, idx = g.indptr.tolist(), g.indices.tolist()
    for i in sorted(rep_of_cell.values()):
        ci, _ = pair[i]
        nbs = idx[ptr[i] : ptr[i + 1]]
        if not nbs:
            continue
        if any(pair[u][0] <= t and pair[u][1] == 1 for u in nbs):
            continue
        spare = [u for u in nbs if pair[u] == (t + 1, 1)]
        if spare:
            pair[min(spare)] = (ci, 2)
        # with no spare neighbor left, every neighbor already carries a
        # level-2 color; the final certification still guards this case

    return _flat_coloring([i for i, _ in pair], [lvl for _, lvl in pair])


def closed_cf_color_fat(objs: Scene, rho: float, k: float) -> Coloring:
    """Closed CF coloring via dyadic size buckets with disjoint fresh palettes.

    Objects are split into size classes [2^b, 2^(b+1)); each class has
    size-ratio below 2, is pointed-CF colored with k' = 2, converted to a
    closed coloring by splitting classes in two, and the buckets concatenate
    with disjoint palettes.  The scene's contact graph is built once; each
    bucket colors the subgraph it induces.  The trace labels every object
    with its `bucket` b.
    """
    if not (1 <= rho < math.inf and 1 <= k < math.inf):
        raise InvalidInputError("need finite rho >= 1 and k >= 1")
    side = grid_side(rho, 2.0)
    bound = (int(math.floor(math.log2(k))) + 1) * 2 * (2 * side**2 + 1)
    if bound >= _MAX_BOUND:
        raise InvalidInputError(f"rho={rho} and k={k} allow more colors than 64-bit color ids hold")
    n = len(objs)
    if n == 0:
        return Coloring((), trace=Trace(bound, {"bucket": []}))
    certs = _certificates(objs, rho, k)
    smin = float(certs[:, 2].min())
    bucket_of: list[int] = []
    buckets: dict[int, list[int]] = {}
    for i, ri in enumerate(certs[:, 2].tolist()):
        s = ri / smin
        b = int(math.floor(math.log2(s))) if s > 1 else 0
        while 2.0**b > s:
            b -= 1
        while 2.0 ** (b + 1) <= s:
            b += 1
        bucket_of.append(b)
        buckets.setdefault(b, []).append(i)

    g = intersection_graph(objs)
    i_global, level = [0] * n, [0] * n
    color_base = 0
    for b in sorted(buckets):
        members = buckets[b]
        sub_graph = g.subgraph(members)
        dense = _densify(_pointed_fat(certs[members], side, sub_graph))
        for v, col, lvl in zip(members, dense.colors, _class_levels(sub_graph, dense.colors)):
            i_global[v], level[v] = color_base + col, lvl
        color_base += dense.palette_size

    out = replace(_flat_coloring(i_global, level), trace=Trace(bound, {"bucket": bucket_of}))
    return certify(g, out, "closed", bound=bound, what="bucketed coloring")


def _densify(c: Coloring) -> Coloring:
    """Remap color ids to 1..p, keeping class structure (order by id)."""
    ids = sorted(set(c.colors))
    remap = {old: i + 1 for i, old in enumerate(ids)}
    return Coloring(tuple(remap[x] for x in c.colors))
