"""Reference implementation of `generate_scene`'s rejection loop.

This is the earlier sequential loop: one candidate drawn at a time, checked
against every placed shape by re-stacking the placed rows.  The tests require
the batched generator in `cfgeom.geom` to reproduce its scenes shape for shape
and to raise `GenerationError` exactly where it does.
"""
from __future__ import annotations

import numpy as np

from cfgeom import AARect, ConvexFatObject, Disc, GenerationError, Interval, Point, Scene
from cfgeom.geom import _homothet, _random_fat_polygon


def generate_scene_reference(
    kind: str,
    n: int,
    seed,
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
    """`generate_scene` for valid arguments, one candidate at a time."""
    delta = (1e-6 * span) if margin is None else margin
    rng = np.random.default_rng(seed)
    shapes = []
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

    def violates(self, s) -> bool:
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

    def add(self, s) -> None:
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


def _sample_shape(kind, rng, span, radius_range, length_range, side_range, rho, k, base_size, homothets_of):
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
