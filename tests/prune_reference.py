"""Reference implementation of depth-one pruning.

This is the earlier scan that decides one shape at a time: shape i is tested
against its surviving neighbours by one clip of every real edge of i and of
those neighbours against all of them (`_polygon_escapes`), with the clip
kernel in its earlier outer-product form (segments x polygons).  The disc
test and `_uncovered`, which it shared with the package and which are
unchanged, are imported from there.  The tests require
`cfgeom.probes._prune_depth_one`, which decides shapes in dependency waves,
to return the same (kept, removed) lists exactly.
"""
from __future__ import annotations

import numpy as np

from cfgeom.errors import IncompatibleShapesError
from cfgeom.geom import Scene
from cfgeom.hypergraph import Graph
from cfgeom.probes import _disc_escapes, _uncovered


def prune_depth_one_reference(shapes: Scene, contacts: Graph) -> tuple[list[int], list[int]]:
    """prune_depth_one given the contact graph of `shapes`."""
    n = len(shapes)
    if n == 0:
        return [], []
    escapes = {"discs": _disc_escapes, "fat": polygon_escapes_reference}.get(shapes.kind)
    if escapes is None:
        raise IncompatibleShapesError("pruning supports a family of discs or a family of convex polygons")
    rows = shapes.rows
    alive = np.ones(n, dtype=bool)
    flat = rows.reshape(n, -1)
    for i in range(n):
        near = contacts.indices[contacts.indptr[i] : contacts.indptr[i + 1]]
        near = near[alive[near]]
        # a surviving copy of i covers it; the test below would let each copy keep the other
        copied = (flat[near] == flat[i]).all(axis=1).any()
        alive[i] = not copied and escapes(rows, i, near)
    return np.flatnonzero(alive).tolist(), np.flatnonzero(~alive).tolist()


def polygon_escapes_reference(polys: np.ndarray, i: int, near: np.ndarray) -> bool:
    """Whether polygon i has a point in none of the polygons `near`, from one
    clip of the real edges of i and of its neighbours against all of them."""
    ids = np.append(near, i)  # polygon i is the last column
    p0 = polys[ids]
    p1 = np.roll(p0, -1, axis=1)
    real = (p0 != p1).any(axis=2)  # padding edges have length zero
    owner = np.nonzero(real)[0]
    t0, t1 = _clip_segments(p0[real], p1[real], p0)
    last = len(near)
    mine = owner == last
    # the boundary of i counts whole, a neighbour's only inside i: its parts outside i are covered
    lo, hi = np.where(mine, 0.0, t0[:, last]), np.where(mine, 1.0, t1[:, last])
    t0[np.arange(len(owner)), owner] = np.inf  # no shape covers its own boundary
    t0[:, last] = np.inf  # and i covers none
    t0 = np.column_stack((t0, np.zeros_like(lo), hi))
    t1 = np.column_stack((t1, lo, np.ones_like(hi)))
    return bool(_uncovered(t0, t1).any())


def _clip_segments(p0: np.ndarray, p1: np.ndarray, polys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Parameter ranges (t0, t1), each of shape (segments, polygons), of every
    segment p0[s] + t*(p1[s] - p0[s]) inside every ccw convex polygon of the
    (k, m, 2) padded vertex array `polys`; t0 > t1 where a segment misses."""
    d = p1 - p0
    e = np.concatenate((polys[:, 1:], polys[:, :1]), axis=1) - polys
    # inside is where cross(edge, point - a) >= 0; a padding edge has num = den = 0
    num = e[..., 0] * (p0[:, None, None, 1] - polys[..., 1]) - e[..., 1] * (p0[:, None, None, 0] - polys[..., 0])
    den = e[..., 0] * d[:, None, None, 1] - e[..., 1] * d[:, None, None, 0]
    t = -num / np.where(den == 0, 1.0, den)
    t0 = np.where(den > 0, t, 0.0).max(axis=2)
    t1 = np.where(den < 0, t, 1.0).min(axis=2)
    return np.where(((den == 0) & (num < 0)).any(axis=2), np.inf, t0), t1
