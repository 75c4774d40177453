"""Geometric primitives, intersection predicates, and deterministic instance generators.

All shapes are immutable value objects and every predicate treats regions as
closed, so tangency counts as intersection.  Generators are pure functions of
their arguments and keep pairwise boundary distances above a margin, which
makes the floating-point predicates unambiguous on generated scenes.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import DegenerateGeometryError, GenerationError, IncompatibleShapesError

__all__ = [
    "Point",
    "Disc",
    "Interval",
    "AARect",
    "ConvexFatObject",
    "Shape",
    "Scene",
    "intersects",
    "contact_pairs",
    "boundary_crossings",
    "validate_pseudodisc_family",
    "generate_scene",
    "generate_lower_bound_family",
    "pentagon_template",
    "scene_to_json",
    "scene_from_json",
    "save_scene",
    "load_scene",
    "containment_sets_by_sampling",
    "contiguous_run_witnesses",
]


def _require_finite(*values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise ValueError(f"coordinate {v!r} is not finite")


@dataclass(frozen=True)
class Point:
    x: float
    y: float

    def __post_init__(self):
        _require_finite(self.x, self.y)


@dataclass(frozen=True)
class Disc:
    """Closed disc; radius 0 is allowed and denotes a point."""

    center: Point
    radius: float

    def __post_init__(self):
        _require_finite(self.radius)
        if self.radius < 0:
            raise ValueError("disc radius must be >= 0")


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi] on the line."""

    lo: float
    hi: float

    def __post_init__(self):
        _require_finite(self.lo, self.hi)
        if self.lo > self.hi:
            raise ValueError("interval requires lo <= hi")


@dataclass(frozen=True)
class AARect:
    """Closed axis-parallel rectangle."""

    xmin: float
    xmax: float
    ymin: float
    ymax: float

    def __post_init__(self):
        _require_finite(self.xmin, self.xmax, self.ymin, self.ymax)
        if self.xmin > self.xmax or self.ymin > self.ymax:
            raise ValueError("rectangle requires xmin <= xmax and ymin <= ymax")


@dataclass(frozen=True)
class ConvexFatObject:
    """Convex polygon carrying a fatness certificate.

    The certificate states that disc(anchor, r_inner) is contained in the
    polygon and the polygon is contained in disc(anchor, r_outer).  The
    declared fatness of the object is r_outer / r_inner.
    """

    vertices: tuple[Point, ...]
    anchor: Point
    r_inner: float
    r_outer: float

    def __post_init__(self):
        if len(self.vertices) < 3:
            raise ValueError("polygon needs at least 3 vertices")
        _require_finite(self.r_inner, self.r_outer)
        if not (self.r_inner > 0):
            raise ValueError("r_inner must be > 0")
        if self.r_outer < self.r_inner:
            raise ValueError("r_outer must be >= r_inner")
        xy = self.xy()
        n = len(xy)
        scale = max(1.0, float(np.abs(xy).max()))
        tol = 1e-9 * scale * scale
        for i in range(n):
            ax, ay = xy[i]
            bx, by = xy[(i + 1) % n]
            cx, cy = xy[(i + 2) % n]
            if _orient(ax, ay, bx, by, cx, cy) <= -tol:
                raise ValueError("polygon vertices must be convex in counter-clockwise order")
        # certificate containment, with a small relative slack
        inner = _polygon_inradius_at(xy, self.anchor.x, self.anchor.y)
        outer = _polygon_outradius_at(xy, self.anchor.x, self.anchor.y)
        if inner < self.r_inner * (1 - 1e-9) - 1e-12:
            raise ValueError("inner certificate disc is not contained in the polygon")
        if outer > self.r_outer * (1 + 1e-9) + 1e-12:
            raise ValueError("polygon is not contained in the outer certificate disc")

    def xy(self) -> np.ndarray:
        cached = self.__dict__.get("_xy")
        if cached is None:
            cached = np.array([(p.x, p.y) for p in self.vertices], dtype=float)
            object.__setattr__(self, "_xy", cached)
        return cached

    @property
    def rho(self) -> float:
        return self.r_outer / self.r_inner


Shape = Union[Disc, Interval, AARect, ConvexFatObject]

_KIND_OF_TYPE = {Disc: "discs", Interval: "intervals", AARect: "rects", ConvexFatObject: "fat"}


def _infer_kind(shapes: Sequence[Shape]) -> str:
    kinds = {_KIND_OF_TYPE[type(s)] for s in shapes}
    if len(kinds) == 1:
        return kinds.pop()
    return "mixed"


@dataclass(frozen=True)
class Scene:
    """Ordered finite family of shapes; indices are vertex identities downstream."""

    shapes: tuple[Shape, ...]
    kind: str = ""

    def __post_init__(self):
        shapes = tuple(self.shapes)
        object.__setattr__(self, "shapes", shapes)
        kind = self.kind or (_infer_kind(shapes) if shapes else "mixed")
        if shapes:
            inferred = _infer_kind(shapes)
            if self.kind and self.kind != inferred:
                raise ValueError(f"scene kind {self.kind!r} does not match shapes ({inferred})")
            kind = inferred
        object.__setattr__(self, "kind", kind)

    def __len__(self) -> int:
        return len(self.shapes)

    def __getitem__(self, i: int) -> Shape:
        return self.shapes[i]

    def subscene(self, indices: Iterable[int]) -> "Scene":
        return Scene(tuple(self.shapes[i] for i in indices), self.kind)


# ---------------------------------------------------------------------------
# low-level polygon helpers
# ---------------------------------------------------------------------------


def _orient(ax: float, ay: float, bx: float, by: float, cx: float, cy: float) -> float:
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def _polygon_inradius_at(xy: np.ndarray, px: float, py: float) -> float:
    """Distance from (px, py) to the nearest edge line, i.e. the largest disc
    centered there that fits inside the convex polygon (negative if outside)."""
    n = len(xy)
    best = math.inf
    for i in range(n):
        ax, ay = xy[i]
        bx, by = xy[(i + 1) % n]
        ex, ey = bx - ax, by - ay
        length = math.hypot(ex, ey)
        if length == 0:
            continue
        # signed distance, positive on the interior side of a ccw polygon
        d = ((ex) * (py - ay) - (ey) * (px - ax)) / length
        best = min(best, d)
    return best


def _polygon_outradius_at(xy: np.ndarray, px: float, py: float) -> float:
    return float(np.max(np.hypot(xy[:, 0] - px, xy[:, 1] - py)))


def point_in_convex_polygon(xy: np.ndarray, px: float, py: float, tol: float = 0.0) -> bool:
    """Closed membership test for a ccw convex polygon."""
    n = len(xy)
    for i in range(n):
        ax, ay = xy[i]
        bx, by = xy[(i + 1) % n]
        if _orient(ax, ay, bx, by, px, py) < -tol:
            return False
    return True


def points_in_convex_polygon(xy: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Vectorized closed membership: boolean mask over the rows of `pts`."""
    return _in_any_polygon(pts, xy[None])


def _in_any_polygon(pts: np.ndarray, polys: np.ndarray) -> np.ndarray:
    """Mask over the rows of `pts`: inside (closed) any of the ccw convex
    polygons `polys`, given as a (k, m, 2) padded vertex array."""
    e = np.concatenate((polys[:, 1:], polys[:, :1]), axis=1) - polys
    step = max(1, 4096 // max(1, polys.shape[0] * polys.shape[1]))  # points per block: small temporaries
    out = np.empty(len(pts), dtype=bool)
    for s in range(0, len(pts), step):
        p = pts[s : s + step, None, None]
        cross = e[..., 0] * (p[..., 1] - polys[..., 1]) - e[..., 1] * (p[..., 0] - polys[..., 0])
        out[s : s + step] = (cross >= 0).all(axis=2).any(axis=1)
    return out


def _project(xy: np.ndarray, nx: float, ny: float) -> tuple[float, float]:
    vals = xy[:, 0] * nx + xy[:, 1] * ny
    return float(vals.min()), float(vals.max())


def convex_polygons_intersect(a: np.ndarray, b: np.ndarray) -> bool:
    """Separating-axis test; touching polygons count as intersecting."""
    for xy in (a, b):
        n = len(xy)
        for i in range(n):
            ex = xy[(i + 1) % n, 0] - xy[i, 0]
            ey = xy[(i + 1) % n, 1] - xy[i, 1]
            nx, ny = -ey, ex
            amin, amax = _project(a, nx, ny)
            bmin, bmax = _project(b, nx, ny)
            if amax < bmin or bmax < amin:
                return False
    return True


def _segment_point_dist2(ax, ay, bx, by, px, py) -> float:
    ex, ey = bx - ax, by - ay
    denom = ex * ex + ey * ey
    if denom == 0:
        dx, dy = px - ax, py - ay
        return dx * dx + dy * dy
    t = ((px - ax) * ex + (py - ay) * ey) / denom
    t = min(1.0, max(0.0, t))
    dx, dy = px - (ax + t * ex), py - (ay + t * ey)
    return dx * dx + dy * dy


def disc_polygon_intersect(center: Point, radius: float, xy: np.ndarray) -> bool:
    if point_in_convex_polygon(xy, center.x, center.y):
        return True
    r2 = radius * radius
    n = len(xy)
    for i in range(n):
        ax, ay = xy[i]
        bx, by = xy[(i + 1) % n]
        if _segment_point_dist2(ax, ay, bx, by, center.x, center.y) <= r2:
            return True
    return False


def segment_clip_convex(p0: tuple, p1: tuple, xy: np.ndarray) -> tuple[float, float] | None:
    """Parameter range [t0, t1] of the segment p0 + t*(p1-p0) inside a ccw convex
    polygon, or None when the segment misses it."""
    t0, t1 = _clip_segments(np.array([p0], dtype=float), np.array([p1], dtype=float), xy[None])
    return None if t0[0, 0] > t1[0, 0] else (float(t0[0, 0]), float(t1[0, 0]))


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


def shape_bbox(s: Shape) -> tuple[float, float, float, float]:
    if isinstance(s, Disc):
        return (s.center.x - s.radius, s.center.x + s.radius, s.center.y - s.radius, s.center.y + s.radius)
    if isinstance(s, AARect):
        return (s.xmin, s.xmax, s.ymin, s.ymax)
    if isinstance(s, Interval):
        return (s.lo, s.hi, 0.0, 0.0)
    xy = s.xy()
    return (float(xy[:, 0].min()), float(xy[:, 0].max()), float(xy[:, 1].min()), float(xy[:, 1].max()))


# ---------------------------------------------------------------------------
# predicates
# ---------------------------------------------------------------------------


def intersects(a: Shape, b: Shape) -> bool:
    """Whether the two closed regions share at least one point.

    Supported pairings: disc-disc, interval-interval, rect-rect, fat-fat and
    disc-fat.  Anything else raises IncompatibleShapesError.
    """
    if isinstance(a, Disc) and isinstance(b, Disc):
        return math.hypot(a.center.x - b.center.x, a.center.y - b.center.y) <= a.radius + b.radius
    if isinstance(a, Interval) and isinstance(b, Interval):
        return a.lo <= b.hi and b.lo <= a.hi
    if isinstance(a, AARect) and isinstance(b, AARect):
        return a.xmin <= b.xmax and b.xmin <= a.xmax and a.ymin <= b.ymax and b.ymin <= a.ymax
    if isinstance(a, ConvexFatObject) and isinstance(b, ConvexFatObject):
        return convex_polygons_intersect(a.xy(), b.xy())
    if isinstance(a, Disc) and isinstance(b, ConvexFatObject):
        return disc_polygon_intersect(a.center, a.radius, b.xy())
    if isinstance(a, ConvexFatObject) and isinstance(b, Disc):
        return disc_polygon_intersect(b.center, b.radius, a.xy())
    raise IncompatibleShapesError(f"no intersection predicate for {type(a).__name__} vs {type(b).__name__}")


# ---------------------------------------------------------------------------
# contact pairs
# ---------------------------------------------------------------------------

_SAT_CELLS = 1 << 18  # projection values per separating-axis batch


def contact_pairs(a: Scene, b: Scene | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (i, j) of every intersecting pair, sorted by i then j: the
    pairs i < j of scene `a`, or, given `b`, each shape i of `a` with each shape
    j of `b`.

    Candidates are the pairs whose bounding boxes overlap, found by a sweep
    over boxes sorted by xmin.  For intervals and rectangles that box test is
    exact; disc pairs and polygon pairs are decided by one batched exact
    predicate each, and families mixing discs with polygons by `intersects`.
    """
    sa = a.shapes
    sb = sa if b is None else b.shapes
    types = {type(s) for s in sa + sb}
    if len(types) > 1 and not types <= {Disc, ConvexFatObject}:
        names = ", ".join(sorted(t.__name__ for t in types))
        raise IncompatibleShapesError(f"no intersection predicate between {names}")
    box_a = _sweep_boxes(sa)
    i, j = _box_overlaps(box_a, box_a if b is None else _sweep_boxes(sb), b is None)
    if types == {Disc}:
        ca, cb = _disc_rows(sa), _disc_rows(sb)
        hit = np.hypot(ca[i, 0] - cb[j, 0], ca[i, 1] - cb[j, 1]) <= ca[i, 2] + cb[j, 2]
    elif types == {ConvexFatObject} and len(i):
        hit = _polygons_meet(_padded_vertices(sa), _padded_vertices(sb), i, j)
    elif len(types) > 1:
        hit = np.array([intersects(sa[p], sb[q]) for p, q in zip(i.tolist(), j.tolist())], dtype=bool)
    else:
        hit = np.ones(len(i), dtype=bool)
    key = np.sort(i[hit] * len(sb) + j[hit])
    return key // len(sb), key % len(sb)


def _sweep_boxes(shapes: Sequence[Shape]) -> np.ndarray:
    """(xmin, xmax, ymin, ymax) rows; a disc's box is widened by a relative
    1e-12, so rounding in center +- radius never drops a pair the exact disc
    predicate accepts."""
    boxes = np.array([shape_bbox(s) for s in shapes], dtype=float).reshape(-1, 4)
    pad = [1e-12 * (abs(s.center.x) + abs(s.center.y) + s.radius) if isinstance(s, Disc) else 0.0 for s in shapes]
    return boxes + np.outer(pad, [-1.0, 1.0, -1.0, 1.0])


def _box_overlaps(box_a: np.ndarray, box_b: np.ndarray, same: bool) -> tuple[np.ndarray, np.ndarray]:
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


def _disc_rows(discs: Sequence[Disc]) -> np.ndarray:
    return np.array([(s.center.x, s.center.y, s.radius) for s in discs], dtype=float).reshape(-1, 3)


def _padded_vertices(polygons: Sequence[ConvexFatObject]) -> np.ndarray:
    """(n, m, 2) vertex arrays, each polygon padded to the largest vertex count
    m by repeating its last vertex; the zero-length edges this adds have a zero
    normal and cross nothing."""
    xy = [s.xy() for s in polygons]
    counts = np.array([len(v) for v in xy])
    first = np.cumsum(counts) - counts
    return np.concatenate(xy)[first[:, None] + np.minimum(np.arange(counts.max()), counts[:, None] - 1)]


def _polygons_meet(pa: np.ndarray, pb: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
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


def _segments_crossings(axy: np.ndarray, bxy: np.ndarray) -> int:
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


def boundary_crossings(a: Shape, b: Shape) -> int:
    """Number of proper crossing points of the two boundaries.

    Requires both shapes to be discs or both convex polygons, with boundaries
    in general position; tangent or overlapping boundaries raise
    DegenerateGeometryError.
    """
    if isinstance(a, Disc) and isinstance(b, Disc):
        dx = a.center.x - b.center.x
        dy = a.center.y - b.center.y
        d = math.hypot(dx, dy)
        rsum = a.radius + b.radius
        rdiff = abs(a.radius - b.radius)
        if d == 0 and a.radius == b.radius:
            raise DegenerateGeometryError("coincident circles")
        if d == rsum or (d == rdiff and d > 0) or (d == rdiff == 0):
            raise DegenerateGeometryError("tangent circles; perturb the input")
        return 2 if rdiff < d < rsum else 0
    if isinstance(a, ConvexFatObject) and isinstance(b, ConvexFatObject):
        return _segments_crossings(a.xy(), b.xy())
    raise IncompatibleShapesError("boundary_crossings needs two discs or two convex polygons")


def validate_pseudodisc_family(scene: Scene) -> bool:
    """Whether every pair of boundaries crosses in at most two points.

    Disc families always qualify; convex-polygon families are checked pairwise.
    Other or mixed scenes are not supported.
    """
    if len(scene) <= 1:
        return True
    if scene.kind == "discs":
        seen = set()
        for s in scene.shapes:
            key = (s.center.x, s.center.y, s.radius)
            if key in seen:
                raise DegenerateGeometryError("duplicate disc in family")
            seen.add(key)
        return True
    if scene.kind == "fat":
        return _polygon_family_crossings_ok(scene)
    raise IncompatibleShapesError("pseudo-disc validation supports disc or convex-polygon scenes")


def _polygon_family_crossings_ok(scene: Scene) -> bool:
    """Crossing counts of every pair of polygons whose boxes overlap, batched;
    a pair with a zero orientation (a vertex on the line of an edge) takes the
    careful scalar count, which raises only when a boundary point actually
    lies on the other boundary."""
    shapes = scene.shapes
    boxes = _sweep_boxes(shapes)
    ii, jj = _box_overlaps(boxes, boxes, True)
    pts = _padded_vertices(shapes)
    m = pts.shape[1]
    padding = (np.arange(m) >= np.array([len(s.vertices) for s in shapes])[:, None] - 1) & (np.arange(m) < m - 1)
    a0, b0 = pts[ii][:, :, None, :], pts[jj][:, None, :, :]  # edge starts, (pairs, m, 1, 2) and (pairs, 1, m, 2)
    a1, b1 = np.roll(a0, -1, axis=1), np.roll(b0, -1, axis=2)

    def orient(u0, u1, w):
        ex, ey = u1[..., 0] - u0[..., 0], u1[..., 1] - u0[..., 1]
        return ex * (w[..., 1] - u0[..., 1]) - ey * (w[..., 0] - u0[..., 0])

    d1, d2, d3, d4 = orient(b0, b1, a0), orient(b0, b1, a1), orient(a0, a1, b0), orient(a0, a1, b1)
    zero = ((d1 == 0) | (d2 == 0) | (d3 == 0) | (d4 == 0)) & ~padding[ii][:, :, None] & ~padding[jj][:, None, :]
    suspect = zero.any(axis=(1, 2))
    if any(_segments_crossings(shapes[a].xy(), shapes[b].xy()) > 2 for a, b in zip(ii[suspect], jj[suspect])):
        return False
    crossing = ((d1 > 0) != (d2 > 0)) & ((d3 > 0) != (d4 > 0))  # never on a zero-length padding edge
    return bool((crossing[~suspect].sum(axis=(1, 2)) <= 2).all())


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------


def _shape_to_dict(s: Shape) -> dict:
    if isinstance(s, Disc):
        return {"type": "disc", "cx": s.center.x, "cy": s.center.y, "r": s.radius}
    if isinstance(s, Interval):
        return {"type": "interval", "lo": s.lo, "hi": s.hi}
    if isinstance(s, AARect):
        return {"type": "rect", "xmin": s.xmin, "xmax": s.xmax, "ymin": s.ymin, "ymax": s.ymax}
    return {
        "type": "fat",
        "vertices": [[p.x, p.y] for p in s.vertices],
        "anchor": [s.anchor.x, s.anchor.y],
        "r_inner": s.r_inner,
        "r_outer": s.r_outer,
    }


def _shape_from_dict(d: dict) -> Shape:
    t = d["type"]
    if t == "disc":
        return Disc(Point(d["cx"], d["cy"]), d["r"])
    if t == "interval":
        return Interval(d["lo"], d["hi"])
    if t == "rect":
        return AARect(d["xmin"], d["xmax"], d["ymin"], d["ymax"])
    if t == "fat":
        return ConvexFatObject(
            tuple(Point(x, y) for x, y in d["vertices"]),
            Point(d["anchor"][0], d["anchor"][1]),
            d["r_inner"],
            d["r_outer"],
        )
    raise ValueError(f"unknown shape type {t!r}")


def scene_to_json(scene: Scene) -> str:
    return json.dumps({"kind": scene.kind, "shapes": [_shape_to_dict(s) for s in scene.shapes]})


def scene_from_json(text: str) -> Scene:
    data = json.loads(text)
    return Scene(tuple(_shape_from_dict(d) for d in data["shapes"]), data.get("kind", ""))


def save_scene(scene: Scene, path) -> None:
    with open(path, "w") as f:
        f.write(scene_to_json(scene))


def load_scene(path) -> Scene:
    with open(path) as f:
        return scene_from_json(f.read())


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def generate_scene(
    kind: str,
    n: int,
    seed: int,
    *,
    span: float = 1.0,
    radius_range: tuple[float, float] = (0.05, 0.2),
    length_range: tuple[float, float] = (0.05, 0.35),
    side_range: tuple[float, float] = (0.03, 0.25),
    rho: float = 2.0,
    k: float = 4.0,
    base_size: float | None = None,
    homothets_of: ConvexFatObject | None = None,
    margin: float | None = None,
) -> Scene:
    """Deterministic random scene of the requested kind.

    The same arguments always produce the same scene.  Shapes are resampled
    until every pairwise boundary distance exceeds `margin` (default 1e-6 of
    the coordinate span), which keeps generated instances out of degenerate
    tangency configurations.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if kind not in ("discs", "intervals", "rects", "fat"):
        raise ValueError(f"unknown scene kind {kind!r}")
    if span <= 0:
        raise ValueError("span must be positive")
    if kind == "fat":
        if rho < 1:
            raise ValueError("fatness rho must be >= 1")
        if k < 1:
            raise ValueError("size-ratio k must be >= 1")
        if homothets_of is None and rho < 1.05:
            raise ValueError("polygon generation needs rho >= 1.05; use a disc scene for rho closer to 1")
    for r in (radius_range, length_range, side_range):
        if r[0] > r[1] or r[0] <= 0:
            raise ValueError(f"invalid range {r}")
    delta = (1e-6 * span) if margin is None else margin
    rng = np.random.default_rng(seed)
    shapes: list[Shape] = []
    checker = _MarginChecker(delta)
    for _ in range(n):
        if delta <= 0:
            shapes.append(
                _sample_shape(kind, rng, span, radius_range, length_range, side_range, rho, k, base_size, homothets_of)
            )
            continue
        for _attempt in range(400):
            cand = _sample_shape(
                kind, rng, span, radius_range, length_range, side_range, rho, k, base_size, homothets_of
            )
            if not checker.violates(cand):
                checker.add(cand)
                shapes.append(cand)
                break
        else:
            raise GenerationError("could not place a shape while honoring the non-degeneracy margin")
    return Scene(tuple(shapes), kind)


class _MarginChecker:
    """Incremental pairwise boundary-distance checks against placed shapes."""

    def __init__(self, delta: float):
        self.delta = delta
        self.discs: list[tuple[float, float, float]] = []
        self.values: list[float] = []  # interval endpoints
        self.xs: list[float] = []
        self.ys: list[float] = []  # rect edge coordinates
        self.verts: list[np.ndarray] = []
        self.edges: list[np.ndarray] = []  # polygon data, stacked lazily

    def violates(self, s: Shape) -> bool:
        d = self.delta
        if isinstance(s, Disc):
            if not self.discs:
                return False
            arr = np.asarray(self.discs)
            dist = np.hypot(arr[:, 0] - s.center.x, arr[:, 1] - s.center.y)
            return bool(
                (dist < d).any()
                or (np.abs(dist - (arr[:, 2] + s.radius)) < d).any()
                or (np.abs(dist - np.abs(arr[:, 2] - s.radius)) < d).any()
            )
        if isinstance(s, Interval):
            if not self.values:
                return False
            arr = np.asarray(self.values)
            return bool((np.abs(arr[:, None] - np.array([s.lo, s.hi])[None, :]) < d).any())
        if isinstance(s, AARect):
            if not self.xs:
                return False
            xs = np.asarray(self.xs)
            ys = np.asarray(self.ys)
            return bool(
                (np.abs(xs[:, None] - np.asarray([s.xmin, s.xmax])[None, :]) < d).any()
                or (np.abs(ys[:, None] - np.asarray([s.ymin, s.ymax])[None, :]) < d).any()
            )
        if isinstance(s, ConvexFatObject):
            if not self.verts:
                return False
            xy = s.xy()
            cand_edges = np.stack([xy, np.roll(xy, -1, axis=0)], axis=1)
            placed_verts = np.concatenate(self.verts)
            placed_edges = np.concatenate(self.edges)
            return bool(
                (_points_segments_dist(xy, placed_edges) < d).any()
                or (_points_segments_dist(placed_verts, cand_edges) < d).any()
            )
        return False

    def add(self, s: Shape) -> None:
        if isinstance(s, Disc):
            self.discs.append((s.center.x, s.center.y, s.radius))
        elif isinstance(s, Interval):
            self.values.extend([s.lo, s.hi])
        elif isinstance(s, AARect):
            self.xs.extend([s.xmin, s.xmax])
            self.ys.extend([s.ymin, s.ymax])
        elif isinstance(s, ConvexFatObject):
            xy = s.xy()
            self.verts.append(xy)
            self.edges.append(np.stack([xy, np.roll(xy, -1, axis=0)], axis=1))


def _points_segments_dist(pts: np.ndarray, segs: np.ndarray) -> np.ndarray:
    """Distances of every point to every segment; shape (P, S)."""
    a = segs[:, 0][None, :, :]
    b = segs[:, 1][None, :, :]
    p = pts[:, None, :]
    ab = b - a
    denom = (ab**2).sum(axis=2)
    denom = np.where(denom == 0, 1.0, denom)
    t = np.clip(((p - a) * ab).sum(axis=2) / denom, 0.0, 1.0)
    proj = a + t[..., None] * ab
    return np.hypot(p[..., 0] - proj[..., 0], p[..., 1] - proj[..., 1])


def _sample_shape(kind, rng, span, radius_range, length_range, side_range, rho, k, base_size, homothets_of) -> Shape:
    if kind == "discs":
        cx, cy = rng.uniform(0, span, size=2)
        r = rng.uniform(*radius_range)
        return Disc(Point(cx, cy), r)
    if kind == "intervals":
        lo = rng.uniform(0, span)
        return Interval(lo, lo + rng.uniform(*length_range))
    if kind == "rects":
        x = rng.uniform(0, span)
        y = rng.uniform(0, span)
        return AARect(x, x + rng.uniform(*side_range), y, y + rng.uniform(*side_range))
    base = base_size if base_size is not None else 0.05 * span
    size = base if k == 1 else rng.uniform(base, k * base)
    ax, ay = rng.uniform(0, span, size=2)
    if homothets_of is not None:
        return _homothet(homothets_of, Point(ax, ay), size)
    return _random_fat_polygon(rng, Point(ax, ay), size, rho)


def _homothet(template: ConvexFatObject, anchor: Point, size: float) -> ConvexFatObject:
    scale = size / template.r_inner
    verts = tuple(
        Point(anchor.x + scale * (p.x - template.anchor.x), anchor.y + scale * (p.y - template.anchor.y))
        for p in template.vertices
    )
    return ConvexFatObject(verts, anchor, size, template.r_outer * scale)


def _convex_hull_ccw(xy: np.ndarray) -> np.ndarray:
    """Monotone-chain hull in counter-clockwise order, collinear points dropped."""
    pts = sorted(map(tuple, xy))
    if len(pts) < 3:
        return np.array(pts)

    def half(points):
        out: list[tuple[float, float]] = []
        for p in points:
            while len(out) >= 2 and _orient(out[-2][0], out[-2][1], out[-1][0], out[-1][1], p[0], p[1]) <= 0:
                out.pop()
            out.append(p)
        return out

    lower = half(pts)
    upper = half(reversed(pts))
    return np.array(lower[:-1] + upper[:-1])


def _random_fat_polygon(rng, anchor: Point, size: float, rho: float) -> ConvexFatObject:
    """Convex polygon sampled between two concentric circles, then rescaled so
    that its certificate inradius equals `size` exactly."""
    for _ in range(200):
        m = int(rng.integers(7, 12)) if rho >= 1.4 else int(rng.integers(14, 20))
        angles = np.sort(rng.uniform(0, 2 * math.pi, size=m))
        gaps = np.diff(np.concatenate([angles, [angles[0] + 2 * math.pi]]))
        if gaps.max() > 2 * math.pi / m * 2.2:
            continue
        lo = max(0.5, min(0.95, 1.25 / rho))
        radii = rng.uniform(lo, 1.0, size=m)
        xs = radii * np.cos(angles)
        ys = radii * np.sin(angles)
        xy = _convex_hull_ccw(np.column_stack([xs, ys]))
        if len(xy) < 3:
            continue
        inner = _polygon_inradius_at(xy, 0.0, 0.0)
        outer = float(np.max(np.hypot(xy[:, 0], xy[:, 1])))
        if inner <= 0 or outer / inner > rho:
            continue
        scale = size / inner
        verts = tuple(Point(anchor.x + scale * x, anchor.y + scale * y) for x, y in xy)
        return ConvexFatObject(verts, anchor, size, outer * scale)
    raise GenerationError(f"could not sample a convex polygon with fatness <= {rho}")


def generate_lower_bound_family(n: int, spacing: float) -> Scene:
    """Row of n unit discs at the given center spacing.

    With (n-1)*spacing < 2 every contiguous run of indices is the containment
    set of some point of the plane, which forces a logarithmic number of
    colors on any coloring that leaves each such point a uniquely colored
    covering disc.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not (0 < spacing and (n - 1) * spacing < 2):
        raise ValueError("need 0 < spacing and (n-1)*spacing < 2")
    discs = tuple(Disc(Point((i) * spacing, 0.0), 1.0) for i in range(n))
    return Scene(discs, "discs")


_PENTAGON_ANGLES = (0.13, 1.32, 2.61, 3.87, 5.19)
_PENTAGON_RADII = (1.0, 0.93, 1.04, 0.9, 0.97)


def pentagon_template() -> ConvexFatObject:
    """A fixed, slightly irregular convex pentagon with a unit certificate."""
    xy = np.array(
        [(r * math.cos(a), r * math.sin(a)) for a, r in zip(_PENTAGON_ANGLES, _PENTAGON_RADII)],
        dtype=float,
    )
    inner = _polygon_inradius_at(xy, 0.0, 0.0)
    outer = float(np.max(np.hypot(xy[:, 0], xy[:, 1])))
    scale = 1.0 / inner
    verts = tuple(Point(scale * x, scale * y) for x, y in xy)
    return ConvexFatObject(verts, Point(0.0, 0.0), 1.0, outer * scale)


# ---------------------------------------------------------------------------
# arrangement sampling (used to audit generators and to build probe sets)
# ---------------------------------------------------------------------------


def containment_sets_by_sampling(scene: Scene, extra_points: Sequence[Point] = (), grid: int = 0) -> set[frozenset]:
    """Nonempty containment sets found by probing the arrangement of a disc scene.

    Samples disc centers, nudged axis extremes, nudged pairwise circle
    intersections, optional extra points, and an optional uniform grid.
    """
    if scene.kind != "discs":
        raise IncompatibleShapesError("containment sampling is defined for disc scenes")
    centers = np.array([(s.center.x, s.center.y) for s in scene.shapes])
    radii = np.array([s.radius for s in scene.shapes])
    pts: list[tuple[float, float]] = [(p.x, p.y) for p in extra_points]
    pts.extend(map(tuple, centers))
    eps = 1e-9 * max(1.0, float(np.abs(centers).max()) + radii.max())
    for (cx, cy), r in zip(centers, radii):
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            pts.append((cx + dx * (r - eps), cy + dy * (r - eps)))
    nudges = [(math.cos(t), math.sin(t)) for t in np.linspace(0, 2 * math.pi, 8, endpoint=False)]
    for i, j in zip(*(x.tolist() for x in contact_pairs(scene))):
        for px, py in _circle_intersections(centers[i], radii[i], centers[j], radii[j]):
            for dx, dy in nudges:
                pts.append((px + dx * 10 * eps, py + dy * 10 * eps))
    if grid:
        xmin = float((centers[:, 0] - radii).min())
        xmax = float((centers[:, 0] + radii).max())
        ymin = float((centers[:, 1] - radii).min())
        ymax = float((centers[:, 1] + radii).max())
        gx = np.linspace(xmin, xmax, grid)
        gy = np.linspace(ymin, ymax, grid)
        pts.extend((x, y) for x in gx for y in gy)
    arr = np.array(pts)
    out: set[frozenset] = set()
    d2 = (arr[:, None, 0] - centers[None, :, 0]) ** 2 + (arr[:, None, 1] - centers[None, :, 1]) ** 2
    inside = d2 <= (radii[None, :] ** 2)
    for row in inside:
        s = frozenset(np.nonzero(row)[0].tolist())
        if s:
            out.add(s)
    return out


def _circle_intersections(c1, r1, c2, r2) -> list[tuple[float, float]]:
    dx, dy = c2[0] - c1[0], c2[1] - c1[1]
    d = math.hypot(dx, dy)
    if d == 0 or d > r1 + r2 or d < abs(r1 - r2):
        return []
    a = (r1 * r1 - r2 * r2 + d * d) / (2 * d)
    h2 = r1 * r1 - a * a
    if h2 < 0:
        return []
    h = math.sqrt(h2)
    mx, my = c1[0] + a * dx / d, c1[1] + a * dy / d
    return [(mx - h * dy / d, my + h * dx / d), (mx + h * dy / d, my - h * dx / d)]


def contiguous_run_witnesses(n: int, spacing: float) -> dict[frozenset, Point]:
    """For the lower-bound family, an explicit witness point per index run.

    The construction is independent of any sampling: the midpoint of the run's
    extreme centers, lifted far enough off the axis to exclude both flanking
    discs while keeping the whole run within unit distance.
    """
    out: dict[frozenset, Point] = {}
    for i in range(n):
        for j in range(i, n):
            mid = 0.5 * (i + j) * spacing
            u = 0.5 * (j - i) * spacing
            w = u + spacing
            hi = 1.0 - u * u
            lo = max(0.0, 1.0 - w * w)
            if hi <= lo:
                raise ValueError("spacing precondition violated; no witness exists")
            y2 = 0.5 * (lo + hi) if lo > 0 else min(hi * 0.5, hi - 1e-12)
            if i == 0 and j == n - 1:
                y2 = 0.0
            elif i == 0:
                # only the right flank must be excluded
                wr = (mid - (j + 1) * spacing) ** 2
                y2 = 0.5 * (max(0.0, 1.0 - wr) + hi)
            elif j == n - 1:
                wl = (mid - (i - 1) * spacing) ** 2
                y2 = 0.5 * (max(0.0, 1.0 - wl) + hi)
            out[frozenset(range(i, j + 1))] = Point(mid, math.sqrt(y2))
    return out
