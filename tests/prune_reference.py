"""Reference implementation of depth-one pruning.

This is the earlier scan that decides one shape at a time.  A polygon i is
tested against its surviving neighbours by one clip of every real edge of i
and of those neighbours against all of them (`polygon_escapes_reference`),
with the clip kernel in its earlier outer-product form (segments x polygons);
`_uncovered`, which it shares with the package, is imported from there.  A
disc is tested by the earlier scalar arc scan (`disc_escapes_reference`):
the free arcs of its own circle, then of each neighbour's circle inside it,
one circle at a time in Python floats.  The tests require
`cfgeom.probes._prune_depth_one`, which decides shapes in dependency waves
with one batched kernel for both kinds, to return the same (kept, removed)
lists exactly.

`segment_clip_convex` is the scalar clip of one segment against one polygon,
a loop over the polygon's edges; the tests hold the batched clip kernel
`cfgeom.geom._clip_segments` to it, and the per-piece pruning reference of
`tests/test_probes.py` is built on it.
"""
from __future__ import annotations

import math

import numpy as np

from cfgeom.errors import IncompatibleShapesError
from cfgeom.geom import Scene
from cfgeom.hypergraph import Graph
from cfgeom.probes import _uncovered


def prune_depth_one_reference(shapes: Scene, contacts: Graph) -> tuple[list[int], list[int]]:
    """prune_depth_one given the contact graph of `shapes`."""
    n = len(shapes)
    if n == 0:
        return [], []
    escapes = {"discs": disc_escapes_reference, "fat": polygon_escapes_reference}.get(shapes.kind)
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
    return bool(_uncovered(t0, t1, 1.0).any())


def disc_escapes_reference(circles: np.ndarray, i: int, near: np.ndarray) -> bool:
    """Whether disc i has a point in none of the discs `near`, from the free
    arcs of its own circle and of theirs."""
    c, others = circles[i].tolist(), circles[near].tolist()
    if _free_arc(c, others):
        return True
    for j, o in enumerate(others):
        arc = _arc_inside(o, c)
        if arc is None:
            continue
        theta, alpha = arc
        outside = [(theta + alpha, theta + 2 * math.pi - alpha)] if alpha < math.pi else []
        if _free_arc(o, others[:j] + others[j + 1 :], outside):
            return True
    return False


def _arc_inside(c: list[float], o: list[float]) -> tuple[float, float] | None:
    """(centre angle, half-width) of the arc of circle c = (x, y, r) inside disc
    o: half-width pi when c lies in o, None when no arc of positive length does."""
    (x, y, r), (ox, oy, ro) = c, o
    d = math.hypot(ox - x, oy - y)
    if d + r <= ro:
        return 0.0, math.pi
    if d >= r + ro or d + ro <= r:
        return None
    cosa = (d * d + r * r - ro * ro) / (2 * d * r)
    return math.atan2(oy - y, ox - x), math.acos(min(1.0, max(-1.0, cosa)))


def _free_arc(c: list[float], covers: list[list[float]], arcs: list[tuple[float, float]] = ()) -> bool:
    """Whether some arc of circle c lies outside `arcs` and in none of the discs `covers`."""
    arcs = list(arcs)
    for o in covers:
        arc = _arc_inside(c, o)
        if arc is not None:
            arcs.append((arc[0] - arc[1], arc[0] + arc[1]))
    return bool(_complement_circular(arcs))


def _complement_circular(arcs: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """The arcs of [0, 2pi) longer than 1e-12 that lie in none of `arcs`
    (start, stop), each start taken mod 2pi after its width."""
    if not arcs:
        return [(0.0, 2 * math.pi)]
    two_pi = 2 * math.pi
    norm: list[tuple[float, float]] = []
    for a, b in arcs:
        width = max(b - a, 0.0)  # before reducing a, which may be negative
        a %= two_pi
        if width >= two_pi:
            return []
        if a + width <= two_pi:
            norm.append((a, a + width))
        else:
            norm.append((a, two_pi))
            norm.append((0.0, a + width - two_pi))
    norm.sort()
    merged: list[list[float]] = []
    for a, b in norm:
        if merged and a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    free: list[tuple[float, float]] = []
    if merged[0][0] > 0:
        free.append((0.0, merged[0][0]))
    for (a0, b0), (a1, b1) in zip(merged, merged[1:]):
        if a1 > b0:
            free.append((b0, a1))
    if merged[-1][1] < two_pi:
        free.append((merged[-1][1], two_pi))
    return [f for f in free if f[1] - f[0] > 1e-12]


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


def segment_clip_convex(p0, p1, xy) -> tuple[float, float] | None:
    """Parameter range [t0, t1] of the segment p0 + t*(p1-p0) inside the ccw
    convex polygon with vertex rows `xy`, or None when the segment misses it."""
    dx, dy = p1[0] - p0[0], p1[1] - p0[1]
    t0, t1 = 0.0, 1.0
    n = len(xy)
    for i in range(n):
        ax, ay = xy[i]
        bx, by = xy[(i + 1) % n]
        ex, ey = bx - ax, by - ay
        num = ex * (p0[1] - ay) - ey * (p0[0] - ax)
        den = ex * dy - ey * dx
        if den == 0:
            if num < 0:
                return None
            continue
        t = -num / den
        if den > 0:
            t0 = max(t0, t)
        else:
            t1 = min(t1, t)
        if t0 > t1:
            return None
    return (t0, t1)
