"""Reference implementations of the contact layer: its box-overlap
candidates, its batched polygon predicate, its boundary count and its
contact pairs.

The first is the earlier single sweep over boxes sorted by xmin: every pair
whose x-ranges meet is a candidate, whatever its y-distance, and the y test
then keeps the boxes that overlap.  The tests require the strip sweep in
`cfgeom.geom._box_overlaps` to return the same pair sets.

The second is the earlier separating-axis test, which rebuilds both polygons'
edge normals and projects both polygons onto them for every pair.  The tests
require `polygons_meet`, which runs `cfgeom.geom._meet_on_axes` on each
family's own normals and extents (`_own_extents`, taken once per family), to
return the same booleans.

The third is the earlier scalar boundary count (`segments_crossings_reference`), one
pair of edges at a time in Python.  The tests require pseudo-disc validation
and `boundary_crossings`, which count every pair of a family in one batched
kernel, to give the same verdicts.

The fourth is the earlier `contact_pairs` (`contact_pairs_reference`), which
held every candidate of the x-sweep reference at once, decided all of them by
one predicate per kind and sorted the hits.  The tests require
`cfgeom.geom.contact_pairs`, whose sweep decides the candidates in bounded
blocks, to return the same arrays.

The fifth is the earlier strip-window search (`windows_reference`), which
searched the (strip, rank) keys with the queries in row order, unsorted.
The tests require `cfgeom.geom._windows` to give the same (row, rank)
pairs.
"""
from __future__ import annotations

import numpy as np

from cfgeom.errors import DegenerateGeometryError
from cfgeom.geom import _meet_on_axes, _own_extents, intersects

_SAT_CELLS = 1 << 18  # projection values per separating-axis batch


def box_overlaps_reference(box_a: np.ndarray, box_b: np.ndarray, same: bool) -> tuple[np.ndarray, np.ndarray]:
    """Pairs whose closed boxes overlap: i < j within `box_a` when `same`, else
    every (i, j) with i in `box_a` and j in `box_b`."""
    oa = np.argsort(box_a[:, 0], kind="stable")
    xa = box_a[oa, 0]
    if same:
        p, q = _spans(np.arange(1, len(oa) + 1), np.searchsorted(xa, box_a[oa, 1], "right"))
        i, j = np.minimum(oa[p], oa[q]), np.maximum(oa[p], oa[q])
    else:
        ob = np.argsort(box_b[:, 0], kind="stable")
        xb = box_b[ob, 0]
        # b starting inside a's x-range, then a starting strictly inside b's
        i1, q = _spans(np.searchsorted(xb, box_a[:, 0], "left"), np.searchsorted(xb, box_a[:, 1], "right"))
        j2, p = _spans(np.searchsorted(xa, box_b[:, 0], "right"), np.searchsorted(xa, box_b[:, 1], "right"))
        i, j = np.concatenate([i1, oa[p]]), np.concatenate([ob[q], j2])
    y = (box_a[i, 2] <= box_b[j, 3]) & (box_b[j, 2] <= box_a[i, 3])
    return i[y], j[y]


def contact_pairs_reference(a, b=None) -> tuple[np.ndarray, np.ndarray]:
    """Sorted (i, j) of every intersecting pair, as `contact_pairs` defines
    them, from all candidates of `box_overlaps_reference` at once: the box
    test for intervals and rectangles, the centers' hypot for discs, the
    separating-axis reference for polygons and `intersects` for a mix."""
    other = a if b is None else b
    i, j = box_overlaps_reference(a.boxes, other.boxes, b is None)
    kinds = {type(s).__name__ for s in a.shapes + other.shapes}
    if not len(i):
        return i, j
    if kinds == {"Disc"}:
        ca, cb = a.rows, other.rows
        hit = np.hypot(ca[i, 0] - cb[j, 0], ca[i, 1] - cb[j, 1]) <= ca[i, 2] + cb[j, 2]
    elif kinds == {"ConvexFatObject"}:
        hit = polygons_meet_reference(a.rows, other.rows, i, j)
    elif kinds <= {"Interval", "AARect"}:
        hit = np.ones(len(i), dtype=bool)
    else:
        hit = np.array([intersects(a[p], other[q]) for p, q in zip(i.tolist(), j.tolist())], dtype=bool)
    order = np.lexsort((j[hit], i[hit]))
    return i[hit][order], j[hit][order]


def windows_reference(lo: np.ndarray, hi: np.ndarray, strip: np.ndarray | None, ranked: np.ndarray | None):
    """Spans (rows, start, stop, order) of `geom._windows`: every rank k in
    range(lo[row], hi[row]) whose strip `ranked[k]` is within one of the
    row's strip, one search per row and strip offset, in row order."""
    if strip is None:
        return np.arange(len(lo)), lo, hi, None
    n1 = len(ranked) + 1
    order = np.argsort(ranked, kind="stable")
    keys = ranked[order] * n1 + order
    base = (strip[:, None] + np.array([-1, 0, 1])) * n1  # a row's three strips, row by row
    start, stop = (np.searchsorted(keys, (base + x[:, None]).ravel()) for x in (lo, hi))
    return np.repeat(np.arange(len(lo)), 3), start, stop, order


def _spans(start: np.ndarray, stop: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(row, k) for every k in range(start[row], stop[row])."""
    counts = np.maximum(stop - start, 0)
    rows = np.repeat(np.arange(len(start)), counts)
    return rows, np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts - start, counts)


def polygons_meet(pa: np.ndarray, pb: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """The contact layer's separating-axis test of each pair (pa[i], pb[j])."""
    return _meet_on_axes(_own_extents(pa), _own_extents(pb), pa, pb, i, j)


def polygons_meet_reference(pa: np.ndarray, pb: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Separating-axis test of each pair (pa[i], pb[j]) of padded ccw convex
    polygons, in blocks of pairs; the arithmetic is that of
    `convex_polygons_intersect`, so touching polygons meet."""
    step = max(1, _SAT_CELLS // (pa.shape[1] * pb.shape[1]))
    out = np.empty(len(i), dtype=bool)
    for s in range(0, len(i), step):
        p, q = pa[i[s : s + step]], pb[j[s : s + step]]
        out[s : s + step] = ~(_separated_on_edges_of(p, p, q) | _separated_on_edges_of(q, p, q))
    return out


def _separated_on_edges_of(poly: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Per pair, whether an edge normal of `poly` separates `p` from `q`."""
    e = np.roll(poly, -1, axis=1) - poly
    nx, ny = -e[..., 1, None], e[..., 0, None]  # (pairs, axes, 1)
    proj_p = p[:, None, :, 0] * nx + p[:, None, :, 1] * ny  # (pairs, axes, vertices)
    proj_q = q[:, None, :, 0] * nx + q[:, None, :, 1] * ny
    return ((proj_p.max(axis=2) < proj_q.min(axis=2)) | (proj_q.max(axis=2) < proj_p.min(axis=2))).any(axis=1)


def _orient(ax: float, ay: float, bx: float, by: float, cx: float, cy: float) -> float:
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def segments_crossings_reference(axy: np.ndarray, bxy: np.ndarray) -> int:
    """Proper crossings of the boundaries of two ccw polygons given by their
    (k, 2) vertex arrays; DegenerateGeometryError when a vertex of one has a
    zero orientation against an edge of the other and lies in its closed box."""
    count = 0
    na, nb = len(axy), len(bxy)
    for i in range(na):
        p1 = axy[i]
        p2 = axy[(i + 1) % na]
        for j in range(nb):
            q1 = bxy[j]
            q2 = bxy[(j + 1) % nb]
            d1 = _orient(q1[0], q1[1], q2[0], q2[1], p1[0], p1[1])
            d2 = _orient(q1[0], q1[1], q2[0], q2[1], p2[0], p2[1])
            d3 = _orient(p1[0], p1[1], p2[0], p2[1], q1[0], q1[1])
            d4 = _orient(p1[0], p1[1], p2[0], p2[1], q2[0], q2[1])
            if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)) and all(d != 0 for d in (d1, d2, d3, d4)):
                count += 1
                continue
            for d, (px, py), (ux, uy), (vx, vy) in (
                (d1, p1, q1, q2),
                (d2, p2, q1, q2),
                (d3, q1, p1, p2),
                (d4, q2, p1, p2),
            ):
                if d == 0 and min(ux, vx) <= px <= max(ux, vx) and min(uy, vy) <= py <= max(uy, vy):
                    raise DegenerateGeometryError("polygon boundaries touch without crossing; perturb the input")
    return count
