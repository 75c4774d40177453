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
from functools import cached_property
from typing import Callable, Iterable, Iterator, Sequence, Union

import numpy as np

from .errors import DegenerateGeometryError, GenerationError, IncompatibleShapesError, InvalidInputError

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
    "contiguous_run_witnesses",
]


def _require_finite(*values: float, what: str = "coordinate") -> None:
    for v in values:
        try:
            finite = math.isfinite(v)
        except OverflowError:  # an integer too large for a float
            finite = False
        if not finite:
            raise InvalidInputError(f"{what} {v!r} is not finite")


# Points, discs, intervals and rectangles carry __slots__: a generated scene
# holds tens of thousands of them, and without a __dict__ each takes half the
# memory and is built in about half the time.
@dataclass(frozen=True, slots=True)
class Point:
    x: float
    y: float

    def __post_init__(self):
        _require_finite(self.x, self.y)


@dataclass(frozen=True, slots=True)
class Disc:
    """Closed disc; radius 0 is allowed and denotes a point."""

    center: Point
    radius: float

    def __post_init__(self):
        _require_finite(self.radius)
        if self.radius < 0:
            raise InvalidInputError("disc radius must be >= 0")


@dataclass(frozen=True, slots=True)
class Interval:
    """Closed interval [lo, hi] on the line."""

    lo: float
    hi: float

    def __post_init__(self):
        _require_finite(self.lo, self.hi)
        if self.lo > self.hi:
            raise InvalidInputError("interval requires lo <= hi")


@dataclass(frozen=True, slots=True)
class AARect:
    """Closed axis-parallel rectangle."""

    xmin: float
    xmax: float
    ymin: float
    ymax: float

    def __post_init__(self):
        _require_finite(self.xmin, self.xmax, self.ymin, self.ymax)
        if self.xmin > self.xmax or self.ymin > self.ymax:
            raise InvalidInputError("rectangle requires xmin <= xmax and ymin <= ymax")


# The exact polygon predicates multiply coordinate differences.  With every
# vertex and anchor coordinate within +-_COORD_MAX and every polygon spanning
# at least _SPAN_MIN in x or y, no such product overflows or underflows.
_COORD_MAX, _SPAN_MIN = 1e150, 1e-150


@dataclass(frozen=True)
class ConvexFatObject:
    """Convex polygon carrying a fatness certificate.

    The certificate states that disc(anchor, r_inner) is contained in the
    polygon and the polygon is contained in disc(anchor, r_outer).  The
    declared fatness of the object is r_outer / r_inner.  Coordinates must
    lie within +-1e150 and the polygon must span at least 1e-150.
    """

    vertices: tuple[Point, ...]
    anchor: Point
    r_inner: float
    r_outer: float

    def __post_init__(self):
        if len(self.vertices) < 3:
            raise InvalidInputError("polygon needs at least 3 vertices")
        _require_finite(self.r_inner, self.r_outer)
        if not (self.r_inner > 0):
            raise InvalidInputError("r_inner must be > 0")
        if self.r_outer < self.r_inner:
            raise InvalidInputError("r_outer must be >= r_inner")
        xy = self.xy()
        lo, hi = xy.min(axis=0), xy.max(axis=0)
        reach = max(-float(lo.min()), float(hi.max()))  # the largest |coordinate| of a vertex
        span = float((hi - lo).max())
        if not (max(reach, abs(self.anchor.x), abs(self.anchor.y)) <= _COORD_MAX and span >= _SPAN_MIN):
            raise InvalidInputError(
                f"polygon coordinates must lie within +-{_COORD_MAX:g} and a polygon must span at least "
                f"{_SPAN_MIN:g}, the range in which the exact polygon predicates neither overflow nor underflow"
            )
        # a turn's rounding error scales with reach * span, and span <= 2 * reach: the slack
        # follows the polygon's own size, so a small polygon is checked as strictly as a large one
        tol = 5e-10 * reach * span
        pts = xy.tolist()  # Python floats: the same arithmetic, without a numpy scalar per coordinate
        for (ax, ay), (bx, by), (cx, cy) in zip(pts, pts[1:] + pts[:1], pts[2:] + pts[:2]):
            if _orient(ax, ay, bx, by, cx, cy) <= -tol:
                raise InvalidInputError("polygon vertices must be convex in counter-clockwise order")
        # certificate containment; the absolute slack follows the coordinates' size, as a distance's rounding does
        inner = _polygon_inradius_at(xy, self.anchor.x, self.anchor.y)
        outer = _polygon_outradius_at(xy, self.anchor.x, self.anchor.y)
        slack = 1e-12 * min(1.0, max(reach, abs(self.anchor.x), abs(self.anchor.y)))
        if inner < self.r_inner * (1 - 1e-9) - slack:
            raise InvalidInputError("inner certificate disc is not contained in the polygon")
        if outer > self.r_outer * (1 + 1e-9) + slack:
            raise InvalidInputError("polygon is not contained in the outer certificate disc")

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


@dataclass(frozen=True)
class Scene:
    """Ordered finite family of shapes; indices are vertex identities downstream.

    The array form of the family lives here and nowhere else: `boxes`, `rows`
    and `certificates` are built from the shapes on first use, at most once per
    Scene, and are read-only.  `subscene` slices the arrays its parent already
    holds.
    """

    shapes: tuple[Shape, ...]
    kind: str = ""

    def __post_init__(self):
        object.__setattr__(self, "shapes", tuple(self.shapes))
        kinds = {_KIND_OF_TYPE[type(s)] for s in self.shapes} or {self.kind or "mixed"}
        kind = kinds.pop() if len(kinds) == 1 else "mixed"
        if self.kind and self.kind != kind:
            raise InvalidInputError(f"scene kind {self.kind!r} does not match shapes ({kind})")
        object.__setattr__(self, "kind", kind)

    def __len__(self) -> int:
        return len(self.shapes)

    def __getitem__(self, i: int) -> Shape:
        return self.shapes[i]

    def subscene(self, indices: Iterable[int]) -> "Scene":
        """The shapes at `indices`, in their order; an index may repeat.
        InvalidInputError unless every index is an integer in 0..n-1."""
        idx = _integers(indices if isinstance(indices, np.ndarray) else list(indices), "subscene indices")
        if idx.ndim != 1 or (len(idx) and (idx.min() < 0 or idx.max() >= len(self))):
            raise InvalidInputError(f"subscene indices must be shape ids in 0..{len(self) - 1}")
        sub = Scene(tuple(self.shapes[i] for i in idx.tolist()), self.kind)
        for name in ("boxes", "rows", "certificates"):
            if name in self.__dict__:
                sub.__dict__[name] = _read_only(self.__dict__[name][idx])
        return sub

    @cached_property
    def rows(self) -> np.ndarray:
        """Coordinates per shape: (x, y, r) for discs, (lo, hi) for intervals,
        (xmin, xmax, ymin, ymax) for rectangles and the (n, m, 2) vertices of
        `_padded_vertices` for polygons."""
        shapes = self.shapes
        if self.kind == "discs":
            rows = np.array([(s.center.x, s.center.y, s.radius) for s in shapes], dtype=float).reshape(-1, 3)
        elif self.kind == "intervals":
            rows = np.array([(s.lo, s.hi) for s in shapes], dtype=float).reshape(-1, 2)
        elif self.kind == "rects":
            rows = np.array([(s.xmin, s.xmax, s.ymin, s.ymax) for s in shapes], dtype=float).reshape(-1, 4)
        elif self.kind == "fat":
            rows = _padded_vertices([s.xy() for s in shapes])
        else:
            raise IncompatibleShapesError("a scene mixing shape kinds has no single row layout")
        return _read_only(rows)

    @cached_property
    def boxes(self) -> np.ndarray:
        """(xmin, xmax, ymin, ymax) sweep box per shape, in any mix of kinds.  A
        disc's box is widened by a relative 1e-12, so rounding in center +-
        radius never drops a pair the exact disc predicate accepts; an
        interval's box is (lo, hi, 0, 0)."""
        if self.kind == "mixed" or not len(self):
            boxes = np.zeros((len(self), 4))
            for t in {type(s) for s in self.shapes}:
                at = [k for k, s in enumerate(self.shapes) if type(s) is t]
                boxes[at] = Scene(tuple(self.shapes[k] for k in at)).boxes
            return _read_only(boxes)
        rows, pad = self.rows, np.zeros(len(self))
        if self.kind == "discs":
            x, y, r = rows.T
            rows, pad = np.column_stack((x - r, x + r, y - r, y + r)), 1e-12 * (np.abs(x) + np.abs(y) + r)
        elif self.kind == "fat":
            rows = np.column_stack((rows[..., 0].min(1), rows[..., 0].max(1), rows[..., 1].min(1), rows[..., 1].max(1)))
        elif self.kind == "intervals":
            rows = np.column_stack((rows, np.zeros((len(rows), 2))))
        return _read_only(rows + np.outer(pad, [-1.0, 1.0, -1.0, 1.0]))

    @cached_property
    def certificates(self) -> np.ndarray:
        """(ax, ay, r_inner, r_outer) fatness certificate per shape of a disc or
        polygon scene; a disc of radius r is the 1-fat object (center, r, r)."""
        if self.kind == "discs":
            x, y, r = self.rows.T
            if (r <= 0).any():
                raise InvalidInputError(f"disc {np.argmax(r <= 0)} has zero radius; fat objects need positive size")
            return _read_only(np.column_stack((x, y, r, r)))
        if self.kind == "fat" or not self.shapes:
            cert = [(s.anchor.x, s.anchor.y, s.r_inner, s.r_outer) for s in self.shapes]
            return _read_only(np.array(cert, dtype=float).reshape(-1, 4))
        raise InvalidInputError("fatness certificates need a family of discs or of convex polygons")


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _integers(values, what: str) -> np.ndarray:
    """`values` as an int64 array; InvalidInputError unless they are integers
    in the int64 range.  A signed integer array is taken as it is, with no
    pass over its values; an unsigned one is checked against 2^63 - 1, so
    that no id or color wraps to a negative one.  Bools are not integers
    here: a boolean mask is not a list of ids."""
    try:
        a = np.asarray(values)
    except ValueError as exc:  # a ragged nesting
        raise InvalidInputError(f"{what} must be integers ({exc})") from None
    if a.size and a.dtype.kind not in "iu":
        raise InvalidInputError(f"{what} must be integers in the 64-bit range, not {a.dtype} values")
    if a.size and a.dtype.kind == "u" and a.max() >= 2**63:
        raise InvalidInputError(f"{what} must be integers in the 64-bit range, not above 2^63 - 1")
    return a.astype(np.int64, copy=False)


def _padded_vertices(polygons: Sequence[np.ndarray]) -> np.ndarray:
    """(n, m, 2) array of the (k, 2) vertex arrays `polygons`, each padded to
    the largest vertex count m by repeating its last vertex; the zero-length
    edges this adds have a zero normal and cross nothing."""
    counts = np.array([len(v) for v in polygons], dtype=np.intp)
    first = np.cumsum(counts) - counts
    flat = np.concatenate(polygons) if len(polygons) else np.zeros((0, 2))
    return flat[first[:, None] + np.minimum(np.arange(counts.max(initial=0)), counts[:, None] - 1)]


# ---------------------------------------------------------------------------
# low-level polygon helpers
# ---------------------------------------------------------------------------


def _orient(ax: float, ay: float, bx: float, by: float, cx: float, cy: float) -> float:
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def _polygon_inradius_at(xy: np.ndarray, px: float, py: float) -> float:
    """Distance from (px, py) to the nearest edge line, i.e. the largest disc
    centered there that fits inside the convex polygon (negative if outside)."""
    pts = xy.tolist()
    best = math.inf
    for (ax, ay), (bx, by) in zip(pts, pts[1:] + pts[:1]):
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


def point_in_convex_polygon(xy: np.ndarray, px: float, py: float) -> bool:
    """Closed membership test for a ccw convex polygon."""
    n = len(xy)
    for i in range(n):
        ax, ay = xy[i]
        bx, by = xy[(i + 1) % n]
        if _orient(ax, ay, bx, by, px, py) < 0:
            return False
    return True


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


def _clip_segments(p0: np.ndarray, p1: np.ndarray, polys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Parameter range (t0, t1) of the segment p0 + t*(p1 - p0) inside the ccw
    convex polygon `polys`, padded as by `_padded_vertices`; t0 > t1 where the
    segment misses.  Segments (..., 2) broadcast against polygons (..., m, 2):
    `_clip_segments(p0[:, None], p1[:, None], polys)` clips every segment
    against every polygon, and equal leading shapes clip cell by cell."""
    d = p1 - p0
    e = np.concatenate((polys[..., 1:, :], polys[..., :1, :]), axis=-2) - polys
    # inside is where cross(edge, point - a) >= 0; a padding edge has num = den = 0
    num = e[..., 0] * (p0[..., None, 1] - polys[..., 1]) - e[..., 1] * (p0[..., None, 0] - polys[..., 0])
    den = e[..., 0] * d[..., None, 1] - e[..., 1] * d[..., None, 0]
    t = -num / np.where(den == 0, 1.0, den)
    t0 = np.where(den > 0, t, 0.0).max(axis=-1)
    t1 = np.where(den < 0, t, 1.0).min(axis=-1)
    return np.where(((den == 0) & (num < 0)).any(axis=-1), np.inf, t0), t1


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
_SWEEP_CELLS = 1 << 14  # candidate pairs per sweep block, about

# The exact filters in front of the separating-axis test (`_certified`) and of
# the pruning clip (`probes._prune_depth_one`) settle a case only with a margin
# of _GUARD * max(1, s), s the largest magnitude among the coordinates and radii
# involved.  ConvexFatObject validates its convexity and certificates with a
# slack of 1e-9 of that scale (plus 1e-12 * min(1, s) on a radius); the guard is
# 1000 times that, and far above the rounding of SAT and of the clip, so a
# filter never settles a case the full test would decide the other way.
_GUARD = 1e-6


def contact_pairs(a: Scene, b: Scene | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (i, j) of every intersecting pair, sorted by i then j: the
    pairs i < j of scene `a`, or, given `b`, each shape i of `a` with each shape
    j of `b`.

    The pairs are those of `_contact_hits`, sorted by one sort of their keys.
    Candidates are the pairs whose bounding boxes overlap, found by a sweep
    over boxes ranked by xmin within horizontal strips (`_box_overlaps`), so
    a sparse family's candidates follow its near pairs.  The sweep takes them
    in blocks of about `_SWEEP_CELLS`, and each block is decided at once, so
    only the hits outlive their block.  For intervals and rectangles the box
    test is exact; disc pairs and polygon pairs are decided by one batched
    exact predicate each, and families mixing discs with polygons by
    `intersects`.  Polygon pairs are first settled by their fatness
    certificates where these decide with the margin `_GUARD`: inner discs
    overlapping means the polygons meet, outer discs apart means they do not.
    Only the pairs left go to the separating-axis test.
    """
    i, j = _contact_hits(a, b)
    width = len(a if b is None else b)
    key = i * width + j
    key.sort()
    return key // width, key % width


def _contact_hits(a: Scene, b: Scene | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The pairs of `contact_pairs`, in no particular order."""
    other = a if b is None else b
    kinds = {s.kind for s in (a, other) if len(s)}
    if "mixed" in kinds:  # only a scene mixing kinds has its shapes looked at
        kinds = {_KIND_OF_TYPE[type(s)] for s in a.shapes + other.shapes}
    if len(kinds) > 1 and not kinds <= {"discs", "fat"}:
        names = ", ".join(sorted(t.__name__ for t, kind in _KIND_OF_TYPE.items() if kind in kinds))
        raise IncompatibleShapesError(f"no intersection predicate between {names}")
    if not (len(a) and len(other)) or kinds in ({"intervals"}, {"rects"}):
        decide = None  # the box test is exact
    elif kinds == {"discs"}:
        decide = _disc_test(a, other)
    elif kinds == {"fat"}:
        decide = _polygon_test(a, other)
    else:
        decide = _mixed_test(a, other)
    return _box_overlaps(a.boxes, other.boxes, b is None, decide)


# The exact tests `_box_overlaps` takes: each, given the two rank orders,
# returns the test of a block of pairs given by their ranks (p, q).


_DISC_BAND = 2.0**-40  # relative band around tangency that `_disc_test` leaves to hypot


def _disc_test(a: Scene, b: Scene) -> Callable:
    """Disc scenes: hypot(dx, dy) <= r_a + r_b on columns copied into rank
    order, with dx, dy the centers' rounded differences and the sum rounded.

    Each pair is first settled from its squares q = dx*dx + dy*dy and
    t = s*s, s the rounded sum: a hit when q < t (1 - _DISC_BAND), a miss
    when q > t (1 + _DISC_BAND).  With q and t normal, q is within 3u of
    dx^2 + dy^2 (u = 2^-53; a term that underflows adds at most u of a
    normal q), t and the band's products within u each, and hypot within 2u
    of the distance; so a settled pair's distance is at least 2^-41 - 5u
    relative away from s, and hypot lies on the same side.  The pairs in the
    band, and those with q or t outside the normal range (overflow,
    underflow, subnormal, nan), go to np.hypot; so the verdicts equal
    hypot's bit for bit."""
    tiny, big = np.finfo(float).tiny, np.finfo(float).max

    def ranked(oa: np.ndarray, ob: np.ndarray) -> Callable:
        xa, ya, ra = a.rows[oa].T.copy()
        xb, yb, rb = (xa, ya, ra) if ob is oa else b.rows[ob].T.copy()

        def test(p: np.ndarray, q: np.ndarray) -> np.ndarray:
            dx, dy, s = xa[p] - xb[q], ya[p] - yb[q], ra[p] + rb[q]
            with np.errstate(over="ignore", under="ignore"):
                d2, s2 = dx * dx + dy * dy, s * s
                hit = d2 < s2 * (1 - _DISC_BAND)
                clear = hit | (d2 > s2 * (1 + _DISC_BAND))
            clear &= (np.minimum(d2, s2) >= tiny) & (np.maximum(d2, s2) <= big)  # false where either is nan
            band = np.flatnonzero(~clear)
            hit[band] = np.hypot(dx[band], dy[band]) <= s[band]
            return hit

        return test

    return ranked


def _polygon_test(a: Scene, b: Scene) -> Callable:
    """Polygon scenes: their certificates (`_certified`), then the
    separating-axis test of the pairs left, with each family's own extents
    taken once per call."""

    def ranked(oa: np.ndarray, ob: np.ndarray) -> Callable:
        own_a = _own_extents(a.rows)
        own_b = own_a if b is a else _own_extents(b.rows)

        def test(p: np.ndarray, q: np.ndarray) -> np.ndarray:
            i, j = oa[p], ob[q]
            hit, settled = _certified(a.certificates, b.certificates, i, j)
            rest = ~settled
            hit[rest] = _meet_on_axes(own_a, own_b, a.rows, b.rows, i[rest], j[rest])
            return hit

        return test

    return ranked


def _mixed_test(a: Scene, b: Scene) -> Callable:
    """Scenes mixing discs and polygons: `intersects`, pair by pair."""

    def ranked(oa: np.ndarray, ob: np.ndarray) -> Callable:
        def test(p: np.ndarray, q: np.ndarray) -> np.ndarray:
            return np.array([intersects(a[i], b[j]) for i, j in zip(oa[p].tolist(), ob[q].tolist())], dtype=bool)

        return test

    return ranked


def _box_overlaps(
    box_a: np.ndarray, box_b: np.ndarray, same: bool, decide: Callable | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Pairs whose closed boxes overlap, in no particular order: i < j within
    `box_a` when `same`, else every (i, j) with i in `box_a` and j in `box_b`.
    Given `decide`, only the pairs it also accepts: `decide(oa, ob)`, called
    once with the two rank orders below, returns the exact test of a block of
    pairs given by their ranks (p, q), one boolean per pair.

    Boxes are ranked by xmin, ties by index.  A box is paired with every box
    whose rank lies in a window of ranks: the later boxes starting at or before
    its xmax (same mode); in cross mode, for an a-box the b-boxes starting in
    [xmin, xmax], and for a b-box the a-boxes starting in (xmin, xmax].  These
    are exactly the pairs whose x-ranges meet.  When `_strips` cuts the plane
    into horizontal strips, each window is searched only in the box's own
    strip and the two next to it.  The windows are cut into blocks of about
    `_SWEEP_CELLS` candidates; in each, the y test runs on ymin and ymax
    columns in rank order, then `decide`, and only the pairs kept are turned
    into indices, so memory stays within a block plus the hits.  The sweep's
    blocks of hits (`_overlap_blocks`) are joined once its arrays are gone,
    one column at a time, at a peak of the hits and one column.
    """
    found_i, found_j = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
    for i, j in _overlap_blocks(box_a, box_b, same, decide):
        found_i.append(i)
        found_j.append(j)
    i = np.concatenate(found_i)
    found_i.clear()  # one column's blocks go before the other is joined, so no hit is held twice
    return i, np.concatenate(found_j)


def _overlap_blocks(
    box_a: np.ndarray, box_b: np.ndarray, same: bool, decide: Callable | None
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The pairs of `_box_overlaps`, block by block, as index arrays (i, j)."""
    oa = np.argsort(box_a[:, 0], kind="stable")
    xa, ya0, ya1 = box_a[oa, 0], box_a[oa, 2], box_a[oa, 3]
    if same:
        ob, yb0, yb1 = oa, ya0, ya1
        lo, hi = np.arange(1, len(oa) + 1), np.searchsorted(xa, box_a[oa, 1], "right")
        strips = _strips((box_a,), int((hi - lo).sum()))
        s = None if strips is None else strips[oa]
        parts = [(_windows(lo, hi, s, s), False)]
    else:
        ob = np.argsort(box_b[:, 0], kind="stable")
        xb, yb0, yb1 = box_b[ob, 0], box_b[ob, 2], box_b[ob, 3]
        # b starting inside a's x-range, then a starting strictly inside b's
        lo1, hi1 = np.searchsorted(xb, xa, "left"), np.searchsorted(xb, box_a[oa, 1], "right")
        lo2, hi2 = np.searchsorted(xa, xb, "right"), np.searchsorted(xa, box_b[ob, 1], "right")
        strips = _strips((box_a, box_b), int((hi1 - lo1).sum() + (hi2 - lo2).sum()))
        sa, sb = (None, None) if strips is None else (strips[: len(box_a)][oa], strips[len(box_a) :][ob])
        parts = [(_windows(lo1, hi1, sa, sb), False), (_windows(lo2, hi2, sb, sa), True)]
    test = None if decide is None else decide(oa, ob)
    for spans, b_rows in parts:
        for p, q in _blocks(*spans):
            if b_rows:
                p, q = q, p
            # index arrays, then gathers: faster than compressing by boolean masks
            kept = np.flatnonzero((ya0[p] <= yb1[q]) & (yb0[q] <= ya1[p]))
            p, q = p[kept], q[kept]
            if test is not None:
                kept = np.flatnonzero(test(p, q))
                p, q = p[kept], q[kept]
            i, j = oa[p], ob[q]
            if same:
                i, j = np.minimum(i, j), np.maximum(i, j)
            yield i, j


# The key sort and searches of strips cost about as much as this many
# candidates per box, plus this many per call.
_STRIP_PER_BOX, _STRIP_PER_CALL = 4, 2048


def _strips(families: tuple[np.ndarray, ...], candidates: int) -> np.ndarray | None:
    """Strip index per box of the concatenated `families`, or None to keep one
    strip.

    Strips are at least as tall as every box and at least yspan / n, so there
    are at most n + 1 of them.  A box then meets the boxes of three strips
    instead of the whole y-span, so about 3 h / (yspan + h) of the x-sweep's
    `candidates` remain.  Strips are used only when that, plus their own cost,
    at most halves the candidates; boxes of zero height (intervals) keep one
    strip.
    """
    n = sum(len(b) for b in families)
    cost = _STRIP_PER_BOX * n + _STRIP_PER_CALL
    if candidates <= 2 * cost:
        return None
    # with candidates, every family holds a box
    y0 = min(b[:, 2].min() for b in families)
    yspan = max(b[:, 2].max() for b in families) - y0
    tallest = max((b[:, 3] - b[:, 2]).max() for b in families)
    h = max(tallest, yspan / n) * (1 + 2**-20)  # headroom for rounding
    if not (np.isfinite(h) and h > 0) or 2 * (candidates * 3 * h / (yspan + h) + cost) > candidates:
        return None
    return _strip_index(np.concatenate(families), h)


def _strip_index(boxes: np.ndarray, h: float) -> np.ndarray | None:
    """Index of the strip of height h, counted up from the lowest ymin, that
    holds each box's ymin; or None if some box reaches the lower bound of the
    strip two above its own.  The bounds are compared in float, as computed,
    so when every box ends below that bound no two overlapping boxes are ever
    two strips apart, whatever the rounding."""
    ymin, ymax = boxes[:, 2], boxes[:, 3]
    y0 = ymin.min()
    bounds = np.append(y0 + h * np.arange(int((ymin.max() - y0) / h) + 2), [np.inf, np.inf])
    strip = np.searchsorted(bounds, ymin, "right") - 1
    return strip if (ymax < bounds[strip + 2]).all() else None


def _windows(
    lo: np.ndarray, hi: np.ndarray, strip: np.ndarray | None, ranked: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
    """Spans (rows, start, stop, order): row `rows[t]` meets every rank
    `order[k]` of the other family, k in range(start[t], stop[t]) (k itself
    when `order` is None).  Together they hold, for every row, the ranks k in
    range(lo[row], hi[row]) whose strip `ranked[k]` is within one of
    `strip[row]`; every k in the range when there are no strips.  Each
    (strip, rank) is the integer key strip * (n + 1) + rank, so a window of
    ranks in one strip is one range of sorted keys.  The keys are searched
    for rows in (strip, row) order, one strip offset at a time, and put back
    row by row: `lo` never falls from row to row, so the start keys are
    then sorted, and searches on sorted queries take about a third of the
    time of unsorted ones, while the spans keep rank order, which the
    block's gathers need."""
    if strip is None:
        return np.arange(len(lo)), lo, hi, None
    n1 = len(ranked) + 1
    order = np.argsort(ranked, kind="stable")
    keys = ranked[order] * n1 + order
    by_strip = np.argsort(strip, kind="stable")
    base = (strip[by_strip] + np.array([[-1], [0], [1]])) * n1  # the strips below, at and above each row's
    start, stop = np.empty((len(lo), 3), dtype=np.intp), np.empty((len(lo), 3), dtype=np.intp)
    for x, out in ((lo, start), (hi, stop)):
        out[by_strip] = np.searchsorted(keys, base + x[by_strip]).T
    return np.repeat(np.arange(len(lo)), 3), start.ravel(), stop.ravel(), order


def _blocks(
    rows: np.ndarray, start: np.ndarray, stop: np.ndarray, order: np.ndarray | None
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The pairs (rows[t], order[k]) of the spans of `_windows`, in blocks of
    whole spans holding about `_SWEEP_CELLS` pairs each; a span longer than
    that is a block of its own."""
    counts = np.maximum(stop - start, 0)
    ends = np.cumsum(counts)
    first = ends - counts  # each span's place among all pairs
    cuts = np.searchsorted(ends, np.arange(_SWEEP_CELLS, ends[-1] if len(ends) else 0, _SWEEP_CELLS), "right")
    for s, e in zip([0, *cuts.tolist()], [*cuts.tolist(), len(counts)]):
        c = counts[s:e]
        size = int(c.sum())
        if size:
            # `_spans`, with the rows repeated directly: on `disc-dense` the contact graphs and hits take
            # 5-8% less time than with a gather of rows[s:e] by span
            k = np.arange(size) - np.repeat(first[s:e] - first[s] - start[s:e], c)  # start[t] .. stop[t] - 1
            yield np.repeat(rows[s:e], c), k if order is None else order[k]


def _spans(start: np.ndarray, stop: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(row, k) for every k in range(start[row], stop[row])."""
    counts = np.maximum(stop - start, 0)
    rows = np.repeat(np.arange(len(start)), counts)
    return rows, np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts - start, counts)


def _certified(ca: np.ndarray, cb: np.ndarray, i: np.ndarray, j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(meet, settled) per pair (i, j) of (ax, ay, r_inner, r_outer)
    certificates `ca` and `cb`: settled where the inner discs overlap (then
    meet) or the outer discs lie apart, each by more than the guard
    _GUARD * max(1, |anchor coordinates|, sum of the two r_outer)."""
    meet, settled = np.empty(len(i), dtype=bool), np.empty(len(i), dtype=bool)
    for s in range(0, len(i), _SAT_CELLS):
        p, q = ca[i[s : s + _SAT_CELLS]], cb[j[s : s + _SAT_CELLS]]
        d = np.hypot(p[:, 0] - q[:, 0], p[:, 1] - q[:, 1])
        with np.errstate(over="ignore"):  # outer radii near the float limit sum to inf, which settles nothing
            outer = p[:, 3] + q[:, 3]
            scale = np.maximum(np.abs(np.column_stack((p[:, :2], q[:, :2]))).max(axis=1), outer)
            guard = _GUARD * np.maximum(scale, 1.0)
            inner = d < p[:, 2] + q[:, 2] - guard
            meet[s : s + _SAT_CELLS], settled[s : s + _SAT_CELLS] = inner, inner | (d > outer + guard)
    return meet, settled


def _meet_on_axes(
    own_a: tuple, own_b: tuple, pa: np.ndarray, pb: np.ndarray, i: np.ndarray, j: np.ndarray
) -> np.ndarray:
    """Separating-axis test of each pair (pa[i], pb[j]) of padded ccw convex
    polygons, in blocks of pairs, given the `_own_extents` of both families;
    the arithmetic is that of `convex_polygons_intersect`, so touching
    polygons meet.  Each polygon's edge normals and its extent along them are
    taken once per family, so a pair projects each polygon only onto the
    other's normals."""
    step = max(1, _SAT_CELLS // (pa.shape[1] * pb.shape[1]))
    out = np.empty(len(i), dtype=bool)
    for s in range(0, len(i), step):
        p, q = i[s : s + step], j[s : s + step]
        out[s : s + step] = ~(_outside(*(x[p] for x in own_a), pb[q]) | _outside(*(x[q] for x in own_b), pa[p]))
    return out


def _own_extents(polys: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per polygon, its edge normals (nx, ny) and the max and min of its
    vertices' projections onto each, every array of shape (polygons, axes)."""
    e = np.roll(polys, -1, axis=1) - polys
    nx, ny = -e[..., 1], e[..., 0]
    top, bottom = np.empty(nx.shape), np.empty(nx.shape)
    step = max(1, _SAT_CELLS // (polys.shape[1] ** 2))
    for s in range(0, len(polys), step):
        p, x, y = polys[s : s + step], nx[s : s + step, :, None], ny[s : s + step, :, None]
        proj = p[:, None, :, 0] * x + p[:, None, :, 1] * y  # (polygons, axes, vertices)
        top[s : s + step], bottom[s : s + step] = proj.max(axis=2), proj.min(axis=2)
    return nx, ny, top, bottom


def _outside(nx: np.ndarray, ny: np.ndarray, top: np.ndarray, bottom: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Per pair, whether some axis (nx, ny) of the first polygon, along which
    it spans [bottom, top], has the polygon `q` wholly to one side."""
    proj = q[:, None, :, 0] * nx[..., None] + q[:, None, :, 1] * ny[..., None]  # (pairs, axes, vertices)
    return ((top < proj.min(axis=2)) | (proj.max(axis=2) < bottom)).any(axis=1)


def _crossings(polys: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Proper crossings of the boundaries of each pair (polys[i], polys[j]) of
    padded polygons, in blocks of about `_SAT_CELLS` cells; raises
    DegenerateGeometryError if the boundaries of any pair touch.

    Edges cross properly when the orientations of each one's ends against
    the other are nonzero and differ in sign.  Boundaries touch where a
    vertex has a zero orientation against an edge of the other polygon and
    lies in the edge's closed box.  An orientation is the float `_orient`,
    taken once per (vertex, edge).  A zero-length padding edge crosses
    nothing and touches only where the real edges at its point do, so
    padding needs no mask."""
    out = np.empty(len(i), dtype=np.intp)
    step = max(1, _SAT_CELLS // polys.shape[1] ** 2)
    for s in range(0, len(i), step):
        p, q = polys[i[s : s + step]], polys[j[s : s + step]]
        pq, qp = np.sign(_orientations(p, q)), np.sign(_orientations(q, p))  # (pairs, vertex, other's edge)
        # (pairs, edge of p, edge of q): the ends of each edge lie strictly on both sides of the other
        across = (pq * np.roll(pq, -1, axis=1) < 0) & (qp * np.roll(qp, -1, axis=1) < 0).transpose(0, 2, 1)
        out[s : s + step] = across.sum(axis=(1, 2))
    return out


def _orientations(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Per pair of padded polygons v and w, the `_orient` of each vertex of v
    against each edge of w, shape (pairs, vertices, edges); raises
    DegenerateGeometryError where a zero one has its vertex in the edge's
    closed box."""
    a, b = w, np.roll(w, -1, axis=1)  # edge starts and ends
    e = b - a
    d = v[:, :, None, 1] - a[:, None, :, 1]
    d *= e[:, None, :, 0]
    t = v[:, :, None, 0] - a[:, None, :, 0]
    t *= e[:, None, :, 1]
    d -= t
    zero = d == 0
    if zero.any():  # seldom: the full scan of np.nonzero costs more than this test
        pair, vertex, edge = np.nonzero(zero)
        x, a, b = v[pair, vertex], a[pair, edge], b[pair, edge]
        if ((np.minimum(a, b) <= x) & (x <= np.maximum(a, b))).all(axis=1).any():
            raise DegenerateGeometryError("polygon boundaries touch without crossing; perturb the input")
    return d


def boundary_crossings(a: Shape, b: Shape) -> int:
    """Number of proper crossing points of the two boundaries.

    Requires both shapes to be discs or both convex polygons, with boundaries
    in general position; tangent or overlapping boundaries raise
    DegenerateGeometryError.  Polygons go to the kernel of pseudo-disc
    validation as its one pair.
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
        return int(_crossings(_padded_vertices([a.xy(), b.xy()]), np.array([0]), np.array([1]))[0])
    raise IncompatibleShapesError("boundary_crossings needs two discs or two convex polygons")


def validate_pseudodisc_family(scene: Scene) -> bool:
    """Whether every pair of boundaries crosses in at most two points.

    Two equal discs raise DegenerateGeometryError; other disc families
    qualify.  Convex polygons are checked on their contact pairs, as
    boundaries cross or touch only where the shapes meet.  If the boundaries
    of any pair touch without crossing, DegenerateGeometryError is raised;
    otherwise the family fails when some pair crosses more than twice.
    Other or mixed scenes are not supported.
    """
    pairs = _contact_hits(scene) if scene.kind == "fat" and len(scene) > 1 else None
    return _validate_pseudodiscs(scene, pairs)


def _validate_pseudodiscs(scene: Scene, pairs: tuple[np.ndarray, np.ndarray] | None) -> bool:
    """validate_pseudodisc_family given `pairs` (i, j), which hold every
    contact pair of a polygon scene with i < j, pairs with i >= j ignored;
    a disc scene needs none.  Duplicate discs are found by one sort."""
    if len(scene) <= 1:
        return True
    if scene.kind == "discs":
        rows = scene.rows[np.lexsort(scene.rows.T)]
        if (rows[1:] == rows[:-1]).all(axis=1).any():
            raise DegenerateGeometryError("duplicate disc in family")
        return True
    if scene.kind == "fat":
        i, j = pairs
        return bool((_crossings(scene.rows, i[i < j], j[i < j]) <= 2).all())
    raise IncompatibleShapesError("pseudo-disc validation supports disc or convex-polygon scenes")


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
    raise InvalidInputError(f"unknown shape type {t!r}")


def scene_to_json(scene: Scene) -> str:
    return json.dumps({"kind": scene.kind, "shapes": [_shape_to_dict(s) for s in scene.shapes]})


def scene_from_json(text: str) -> Scene:
    return _scene_from_dict(text, parse=True)


def _scene_from_dict(data, parse: bool = False) -> Scene:
    """The scene of a JSON document, parsed or (`parse`) as text; InvalidInputError when it is malformed."""
    try:
        data = json.loads(data) if parse else data
        return Scene(tuple(_shape_from_dict(d) for d in data["shapes"]), data.get("kind", ""))
    except InvalidInputError:
        raise
    except (KeyError, IndexError, TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise InvalidInputError(f"malformed scene JSON ({type(exc).__name__}: {exc})") from exc


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

    The scene is the one a sequential loop makes: draw a candidate, keep it if
    it clears every placed shape, and give up after 400 misses in a row.
    Candidates are drawn and checked in blocks, each only against the shapes
    whose margin boxes overlap its own (`_Placed`).
    """
    if n < 0:
        raise InvalidInputError("n must be >= 0")
    if kind not in ("discs", "intervals", "rects", "fat"):
        raise InvalidInputError(f"unknown scene kind {kind!r}")
    for name, value in (("span", span), ("rho", rho), ("k", k), ("base_size", base_size), ("margin", margin)):
        if value is not None:
            _require_finite(value, what=name)
    for r in (radius_range, length_range, side_range):
        _require_finite(*r, what="range bound")
    if span <= 0:
        raise InvalidInputError("span must be positive")
    if kind == "fat":
        if rho < 1:
            raise InvalidInputError("fatness rho must be >= 1")
        if k < 1:
            raise InvalidInputError("size-ratio k must be >= 1")
        if homothets_of is None and rho < 1.05:
            raise InvalidInputError("polygon generation needs rho >= 1.05; use a disc scene for rho closer to 1")
    for r in (radius_range, length_range, side_range):
        if r[0] > r[1] or r[0] <= 0:
            raise InvalidInputError(f"invalid range {r}")
    delta = (1e-6 * span) if margin is None else margin
    rng = np.random.default_rng(seed)
    draw = _Sampler(kind, rng, span, radius_range, length_range, side_range, rho, k, base_size, homothets_of)
    shapes: list[Shape] = []
    if delta <= 0:
        while len(shapes) < n:
            count = min(n - len(shapes), _GEN_BLOCK)
            shapes.extend(draw(count).make(range(count)))
        return Scene(tuple(shapes), kind)
    placed = _Placed(kind, delta)
    misses = drawn = 0
    while len(shapes) < n:
        want = n - len(shapes)
        if draw.sequential:
            # sampling can raise: never draw a candidate the one-at-a-time loop would not
            want = min(want, 400 - misses)
        else:
            want = math.ceil(want * max(drawn, 1) / max(len(shapes), 1))  # at the acceptance rate so far
        block = draw(min(want, _GEN_BLOCK))
        bad, clash = placed.conflicts(block)
        taken: list[int] = []
        kept = [False] * len(bad)
        for j, b in enumerate(bad.tolist()):
            drawn += 1
            if b or any(kept[i] for i in clash.get(j, ())):
                misses += 1
                if misses == 400:
                    raise GenerationError("could not place a shape while honoring the non-degeneracy margin")
                continue
            kept[j], misses = True, 0
            taken.append(j)
            if len(shapes) + len(taken) == n:
                break
        placed.add(taken)
        shapes.extend(block.make(taken))
    return Scene(tuple(shapes), kind)


_GEN_BLOCK = 256  # candidates per generator block at most


@dataclass(frozen=True)
class _Block:
    """Candidates in draw order: `rows` in the layout of `Scene.rows` (for
    polygons, one (k, 2) vertex array each), and `make(indices)` the shape
    objects of the chosen ones."""

    rows: Sequence
    make: Callable[[Sequence[int]], list]


class _Sampler:
    """Draws candidates from `rng` in the order, and with the arithmetic, of
    one `rng.uniform` call per coordinate: discs (x, y, r), intervals (lo,
    length), rectangles (x, y, width, height), polygons (size unless k = 1,
    then anchor x, y).  Fixed-count draws come `count` at a time from one
    `rng.random` call; random polygons, whose draw count varies, are sampled
    one by one (`sequential`)."""

    def __init__(self, kind, rng, span, radius_range, length_range, side_range, rho, k, base_size, homothets_of):
        self.kind, self.rng, self.span = kind, rng, span
        self.radius_range, self.length_range, self.side_range = radius_range, length_range, side_range
        self.rho, self.k, self.template = rho, k, homothets_of
        self.base = base_size if base_size is not None else 0.05 * span
        self.sequential = kind == "fat" and homothets_of is None

    def __call__(self, count: int) -> _Block:
        if self.sequential:
            return self._polygons(count)
        kind, span = self.kind, self.span
        u = self.rng.random((count, {"discs": 3, "intervals": 2, "rects": 4}.get(kind, 2 + (self.k != 1))))
        if kind == "discs":
            x, y = _scaled(u[:, 0], 0, span), _scaled(u[:, 1], 0, span)
            rows = np.column_stack((x, y, _scaled(u[:, 2], *self.radius_range)))
            return _Block(rows, lambda idx: [Disc(Point(x, y), r) for x, y, r in _columns(rows, idx)])
        if kind == "intervals":
            lo = _scaled(u[:, 0], 0, span)
            rows = np.column_stack((lo, lo + _scaled(u[:, 1], *self.length_range)))
            return _Block(rows, lambda idx: [Interval(a, b) for a, b in _columns(rows, idx)])
        if kind == "rects":
            x, y = _scaled(u[:, 0], 0, span), _scaled(u[:, 1], 0, span)
            w, h = _scaled(u[:, 2], *self.side_range), _scaled(u[:, 3], *self.side_range)
            rows = np.column_stack((x, x + w, y, y + h))
            return _Block(rows, lambda idx: [AARect(*r) for r in _columns(rows, idx)])
        t = self.template
        size = np.full(count, self.base) if self.k == 1 else _scaled(u[:, 0], self.base, self.k * self.base)
        ax, ay = _scaled(u[:, -2], 0, span), _scaled(u[:, -1], 0, span)
        # `_homothet`'s arithmetic, one candidate per row
        scale = (size / t.r_inner)[:, None]
        txy = t.xy()
        rows = np.stack(
            (ax[:, None] + scale * (txy[:, 0] - t.anchor.x), ay[:, None] + scale * (txy[:, 1] - t.anchor.y)), axis=2
        )
        params = np.column_stack((ax, ay, size))
        return _Block(rows, lambda idx: [_homothet(t, Point(x, y), s) for x, y, s in _columns(params, idx)])

    def _polygons(self, count: int) -> _Block:
        rng, base = self.rng, self.base
        polys = []
        for _ in range(count):
            size = base if self.k == 1 else rng.uniform(base, self.k * base)
            ax, ay = rng.uniform(0, self.span, size=2)
            polys.append(_random_fat_polygon(rng, Point(ax, ay), size, self.rho))
        return _Block([poly.xy() for poly in polys], lambda idx: [polys[i] for i in idx])


def _columns(rows: np.ndarray, idx: Iterable[int]) -> Iterable[tuple[float, ...]]:
    """The chosen rows as tuples of floats, converted column by column, so no
    list per row is made and dropped among the floats the shapes keep (on the
    `disc-dense` benchmark, 3 MB less peak RSS than `rows.tolist()`)."""
    return zip(*rows[list(idx)].T.tolist())


def _scaled(u: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """`rng.uniform(lo, hi)` from its unit draws `u`: the same lo + (hi - lo) * u."""
    return lo + (hi - lo) * u


class _Placed:
    """Shapes accepted so far, as the margin keys of `_margin_keys` and their
    sweep boxes.  Both box sweeps of `conflicts` take the margin test as their
    `decide`, so it runs inside the sweeps' blocks and only too-close pairs leave them."""

    def __init__(self, kind: str, delta: float):
        self.kind, self.delta = kind, delta
        self.keys, self.boxes = np.empty((0, {"discs": 3, "fat": 4}.get(kind, 1))), np.empty((0, 4))
        self._block: tuple = ()

    def conflicts(self, block: _Block) -> tuple[np.ndarray, dict[int, list[int]]]:
        """Per candidate, whether it is too close to a placed shape; and per
        candidate j, the earlier candidates i < j it is too close to."""
        keys, boxes, owner = _margin_keys(self.kind, block.rows, self.delta)
        _, j = _box_overlaps(self.boxes, boxes, False, self._too_close(self.keys, keys))
        bad = np.bincount(owner[j], minlength=len(block.rows)) > 0
        # keys are grouped by owner, and i < j, so then owner[i] < owner[j]
        i, j = _box_overlaps(boxes, boxes, True, self._too_close(keys, keys, owner))
        clash: dict[int, list[int]] = {}
        for a, b in zip(owner[i].tolist(), owner[j].tolist()):
            clash.setdefault(b, []).append(a)
        self._block = (keys, boxes, owner)
        return bad, clash

    def _too_close(self, keys_a: np.ndarray, keys_b: np.ndarray, owner: np.ndarray | None = None) -> Callable:
        """The margin test as the `decide` of `_box_overlaps`: whether key i of `keys_a`
        and key j of `keys_b` are closer than delta, and given `owner`, have different owners."""
        d, kind = self.delta, self.kind

        def test(i: np.ndarray, j: np.ndarray) -> np.ndarray:
            a, b = keys_a[i], keys_b[j]
            if kind == "discs":
                dist = np.hypot(a[:, 0] - b[:, 0], a[:, 1] - b[:, 1])
                outer, inner = np.abs(dist - (a[:, 2] + b[:, 2])), np.abs(dist - np.abs(a[:, 2] - b[:, 2]))
                near = (dist < d) | (outer < d) | (inner < d)
            elif kind == "fat":
                # each vertex starts one edge, and that edge's box holds it: the start
                # of each edge against the other edge covers every vertex-edge pair
                e0, e1, f0, f1 = a[:, :2], a[:, 2:], b[:, :2], b[:, 2:]
                near = (_points_segments_dist(f0, e0, e1) < d) | (_points_segments_dist(e0, f0, f1) < d)
            else:
                near = np.abs(a[:, 0] - b[:, 0]) < d
            return near if owner is None else near & (owner[i] != owner[j])

        return lambda oa, ob: lambda p, q: test(oa[p], ob[q])

    def add(self, taken: list[int]) -> None:
        """Place the candidates `taken` of the block last passed to `conflicts`."""
        keys, boxes, owner = self._block
        mine = np.isin(owner, taken)
        self.keys, self.boxes = np.concatenate((self.keys, keys[mine])), np.concatenate((self.boxes, boxes[mine]))


def _margin_keys(kind: str, rows: Sequence, delta: float) -> tuple[np.ndarray, ...]:
    """The parts of a block of shapes that the margin check compares, as
    (keys, boxes, owner), grouped by owning shape in block order.

    The keys are (x, y, r) per disc, each interval endpoint, each rectangle
    edge coordinate, and each polygon edge (ax, ay, bx, by) in its polygon's
    ccw order, the closing edge last.  Each box is grown by delta / 2 plus a
    relative 1e-12, so keys whose computed distance is below delta have
    overlapping boxes.  A coordinate's box is degenerate in y, at 0 for an
    x-coordinate and 1 for a y-coordinate, which keeps the axes apart."""
    half = 0.5 * delta
    if kind == "discs":
        x, y, r = rows.T
        g = r + half + 1e-12 * (np.abs(x) + np.abs(y) + r + delta)
        return rows, np.column_stack((x - g, x + g, y - g, y + g)), np.arange(len(rows))
    if kind in ("intervals", "rects"):
        v = rows.reshape(-1, 1)
        g = half + 1e-12 * (np.abs(v[:, 0]) + delta)
        axis = np.arange(len(v)) % rows.shape[1] // 2
        boxes = np.column_stack((v[:, 0] - g, v[:, 0] + g, axis, axis))
        return v, boxes, np.repeat(np.arange(len(rows)), rows.shape[1])
    edges = np.concatenate([np.column_stack((xy, np.roll(xy, -1, axis=0))) for xy in rows])
    ex, ey = edges[:, 0::2], edges[:, 1::2]
    g = half + 1e-12 * (np.abs(edges).max(axis=1) + delta)
    boxes = np.column_stack((ex.min(1) - g, ex.max(1) + g, ey.min(1) - g, ey.max(1) + g))
    return edges, boxes, np.repeat(np.arange(len(rows)), [len(xy) for xy in rows])


def _points_segments_dist(p: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distance from point p to segment (a, b), broadcast over the leading axes;
    the last axis holds (x, y)."""
    ab = b - a
    denom = (ab**2).sum(axis=-1)
    denom = np.where(denom == 0, 1.0, denom)
    t = np.clip(((p - a) * ab).sum(axis=-1) / denom, 0.0, 1.0)
    proj = a + t[..., None] * ab
    return np.hypot(p[..., 0] - proj[..., 0], p[..., 1] - proj[..., 1])


def _homothet(template: ConvexFatObject, anchor: Point, size: float) -> ConvexFatObject:
    scale = size / template.r_inner
    verts = tuple(
        Point(anchor.x + scale * (p.x - template.anchor.x), anchor.y + scale * (p.y - template.anchor.y))
        for p in template.vertices
    )
    return ConvexFatObject(verts, anchor, size, template.r_outer * scale)


def _convex_hull_ccw(xy: np.ndarray) -> np.ndarray:
    """Monotone-chain hull in counter-clockwise order, collinear points dropped."""
    pts = sorted(map(tuple, xy.tolist()))
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
        verts = tuple(Point(anchor.x + scale * x, anchor.y + scale * y) for x, y in xy.tolist())
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
        raise InvalidInputError("n must be >= 1")
    if not (0 < spacing and (n - 1) * spacing < 2):
        raise InvalidInputError("need 0 < spacing and (n-1)*spacing < 2")
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
                raise InvalidInputError("spacing precondition violated; no witness exists")
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
