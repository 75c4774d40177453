"""Reference implementations of the contact layer's box-overlap candidates
and of its batched polygon predicate.

The first is the earlier single sweep over boxes sorted by xmin: every pair
whose x-ranges meet is a candidate, whatever its y-distance, and the y test
then keeps the boxes that overlap.  The tests require the strip sweep in
`cfgeom.geom._box_overlaps` to return the same pair sets.

The second is the earlier separating-axis test, which rebuilds both polygons'
edge normals and projects both polygons onto them for every pair.  The tests
require `cfgeom.geom._polygons_meet`, which projects each polygon onto its own
normals once per family, to return the same booleans.
"""
from __future__ import annotations

import numpy as np

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


def _spans(start: np.ndarray, stop: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(row, k) for every k in range(start[row], stop[row])."""
    counts = np.maximum(stop - start, 0)
    rows = np.repeat(np.arange(len(start)), counts)
    return rows, np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts - start, counts)


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
