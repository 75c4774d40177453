"""Pointed and closed CF coloring of fat convex objects by grid packing.

Every object carries a certificate (anchor, r_inner, r_outer); after scaling
so the smallest inner radius is 1, anchors are binned into a unit grid whose
cell colors repeat with period 4*ceil(k)*ceil(rho) + 1 in each direction.  The
period is chosen so that an object can intersect at most one representative
of any cell-color class, which makes the representative colors unique in
every pointed neighborhood.  Closed coloring runs one such pass over all
dyadic size buckets, each on its own scale.  A disc is the 1-fat object with
certificate (center, r, r).
"""
from __future__ import annotations

import math

import numpy as np

from .errors import InvalidInputError
from .framework import _class_levels, _flat_coloring
from .geom import Scene
from .hypergraph import Coloring, Graph, Trace, certify, intersection_graph

__all__ = [
    "pointed_cf_color_fat",
    "closed_cf_color_fat",
    "grid_side",
]

_CERT_TOL = 1 + 1e-9
_MAX_BOUND = 2**62  # flat color ids stay below it, so they fit int64


def _fatness(certs: np.ndarray) -> tuple[np.ndarray, float]:
    """Each certificate's r_outer / r_inner, and the family's max r_inner / min
    r_inner (1.0 for no objects); a ratio beyond float range reads inf."""
    with np.errstate(over="ignore"):
        ratio = certs[:, 3] / certs[:, 2]
        spread = certs[:, 2].max() / certs[:, 2].min() if len(certs) else 1.0
    return ratio, float(spread)


def _certificates(objs: Scene, rho: float, k: float) -> np.ndarray:
    """The scene's (ax, ay, r_inner, r_outer) certificates, validated against rho and k."""
    certs = objs.certificates
    ratio, spread = _fatness(certs)
    over = np.flatnonzero(ratio > rho * _CERT_TOL)
    if len(over):
        raise InvalidInputError(f"object {over[0]} has fatness {ratio[over[0]]:.4f} above the declared {rho}")
    if spread > k * _CERT_TOL:
        raise InvalidInputError(f"family size-ratio {spread:.4f} exceeds the declared {k}")
    return certs


def grid_side(rho: float, k: float) -> int:
    """Cell-color period 4*ceil(k)*ceil(rho) + 1."""
    return 4 * math.ceil(k) * math.ceil(rho) + 1


def _grid_pass(certs: np.ndarray, group: np.ndarray, side: int, g: Graph) -> tuple[list[int], list[int]]:
    """Structured colors (i, level) of the grid coloring, uncertified, of each
    group (a small non-negative integer per object) on its own: the group's
    smallest inner radius is its unit, and its grid origin shifts until none of
    its anchors sits on a grid line.  Phase 1 gives the lowest-index object of
    every occupied cell the cell's color at level 1 and everyone else the spare
    color (side^2 + 1, 1).  Phase 2 walks the representatives; one with no
    representative neighbor in its group recolors its lowest-index spare
    neighbor there to its own color at level 2.
    """
    n = len(certs)
    unit = np.full(group.max() + 1, np.inf)
    np.minimum.at(unit, group, certs[:, 2])
    with np.errstate(over="ignore"):
        pts = certs[:, :2] / unit[group, None]
    if not np.isfinite(pts).all():
        raise InvalidInputError("anchor coordinates divided by the smallest inner radius are too large for the grid")
    shift = np.full(len(unit), 2.0**-20)
    for _ in range(60):
        on_line = np.bincount(group, ((pts - shift[group, None]) % 1.0 == 0.0).any(axis=1), len(unit)) > 0
        if not on_line.any():
            break
        shift[on_line] *= 2
    else:
        raise InvalidInputError("could not shift anchors off the grid lines: coordinates too large for the grid")
    cx, cy = np.floor(pts - shift[group, None]).astype(np.int64).T

    order = np.lexsort((cy, cx, group))  # stable, so each cell's objects stay in index order
    cell = np.stack((group, cx, cy))[:, order]
    rep = np.zeros(n, dtype=bool)
    rep[order] = np.concatenate(([True], (cell[:, 1:] != cell[:, :-1]).any(axis=0)))
    color, level = np.where(rep, (cx % side) * side + cy % side + 1, side * side + 1).tolist(), [1] * n

    owner, member = g.arcs()
    same = group[owner] == group[member]
    owner, member = owner[same], member[same]
    beside_rep = np.bincount(owner[rep[member]], minlength=n) > 0
    end = np.cumsum(np.bincount(owner, minlength=n))
    row, start, end = member.tolist(), np.concatenate(([0], end[:-1])).tolist(), end.tolist()
    for v in np.flatnonzero(rep & ~beside_rep).tolist():
        # v's neighbors are all non-representatives, so level 1 marks a spare one;
        # with none left, each carries a level-2 color, which certification guards
        for u in row[start[v] : end[v]]:
            if level[u] == 1:
                color[u], level[u] = color[v], 2
                break
    return color, level


def pointed_cf_color_fat(objs: Scene, rho: float, k: float) -> Coloring:
    """Pointed CF coloring with at most 2*(4*ceil(k)*ceil(rho)+1)^2 + 1 colors
    from one `_grid_pass`; colors (i, level) flatten to 2*(i-1) + (level-1)."""
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
    i, level = _grid_pass(certs, np.zeros(len(certs), dtype=np.int64), side, g)
    out = _flat_coloring(i, level, Trace(bound))
    return certify(g, out, "pointed", bound=bound, what="grid coloring")


def closed_cf_color_fat(objs: Scene, rho: float, k: float) -> Coloring:
    """Closed CF coloring via dyadic size buckets with disjoint fresh palettes.

    Objects fall into size classes [2^b, 2^(b+1)) of the smallest inner radius,
    each pointed-CF colored with k' = 2 in one grid pass grouped by bucket b.
    Ranked (b, color) pairs give each bucket its own block of class ids, and
    every class splits in two as in `pointed_to_closed`.  The trace labels
    every object with its `bucket` b.
    """
    if not (1 <= rho < math.inf and 1 <= k < math.inf):
        raise InvalidInputError("need finite rho >= 1 and k >= 1")
    side = grid_side(rho, 2.0)
    bound = (int(math.floor(math.log2(k))) + 1) * 2 * (2 * side**2 + 1)
    if bound >= _MAX_BOUND:
        raise InvalidInputError(f"rho={rho} and k={k} allow more colors than 64-bit color ids hold")
    if len(objs) == 0:
        return Coloring((), trace=Trace(bound, {"bucket": []}))
    certs = _certificates(objs, rho, k)
    # s = m * 2^e with m in [0.5, 1), so e - 1 is exactly floor(log2 s)
    bucket = np.frexp(certs[:, 2] / certs[:, 2].min())[1].astype(np.int64) - 1
    g = intersection_graph(objs)
    i, level = (np.array(a) for a in _grid_pass(certs, bucket, side, g))
    # i <= side**2 + 1, so this key ranks (bucket, i, level) lexicographically
    cls = np.unique((bucket * (side**2 + 1) + i) * 2 + level, return_inverse=True)[1] + 1
    out = _flat_coloring(cls, _class_levels(g, cls), Trace(bound, {"bucket": bucket.tolist()}))
    return certify(g, out, "closed", bound=bound, what="bucketed coloring")
