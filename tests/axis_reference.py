"""Reference implementations of the interval chain, the rectangle recursion
and the interval census.

This is the earlier per-link scan of the chain (a full pass over the family
for every link, with an explicit test that a jump across a hole of the union
crosses nothing) and the earlier recursion over lists of rectangle indices that
builds an `Interval` per stabbed rectangle.  The tests require the array
versions in `cfgeom.intervals` and `cfgeom.rects` to reproduce their chains,
colors and (depth, node) traces exactly.  The census is the earlier count of
every color class over every interval on the endpoints sorted once; the tests
require the smallest-class-first count of `cfgeom.hypergraph` to find the
same unsettled intervals.
"""
from __future__ import annotations

from bisect import bisect_right
from typing import Sequence

import numpy as np

from cfgeom import Interval, Scene


def _merged_union(ivs: list[Interval]) -> list[tuple[float, float]]:
    parts = sorted((iv.lo, iv.hi) for iv in ivs)
    out: list[list[float]] = []
    for lo, hi in parts:
        if out and lo <= out[-1][1]:
            out[-1][1] = max(out[-1][1], hi)
        else:
            out.append([lo, hi])
    return [(lo, hi) for lo, hi in out]


def _open_gap_empty(union: list[tuple[float, float]], a: float, b: float) -> bool:
    """Whether the open interval (a, b) avoids the union entirely."""
    if b <= a:
        return True
    starts = [lo for lo, _ in union]
    idx = bisect_right(starts, a) - 1
    if idx >= 0 and union[idx][1] > a:
        return False
    if idx + 1 < len(union) and union[idx + 1][0] < b:
        return False
    return True


def reference_chain(ivs: Sequence[Interval]) -> tuple[list[int], list[int]]:
    """Colors and chain of the interval 3-coloring on a nonempty family."""
    n = len(ivs)
    union = _merged_union(ivs)

    min_lo = min(iv.lo for iv in ivs)
    s1 = max(
        (i for i in range(n) if ivs[i].lo == min_lo),
        key=lambda i: (ivs[i].hi, -i),
    )
    chain = [s1]
    while True:
        r_cur = ivs[chain[-1]].hi
        best = None
        for i in range(n):
            iv = ivs[i]
            if iv.hi <= r_cur:
                continue
            if iv.lo <= r_cur or _open_gap_empty(union, r_cur, iv.lo):
                if best is None or iv.hi > ivs[best].hi:
                    best = i
        if best is None:
            break
        chain.append(best)

    colors = [3] * n
    for pos, i in enumerate(chain):
        colors[i] = 1 + (pos % 2)
    return colors, chain


def reference_rects(rects: Scene) -> tuple[list[int], list[tuple[int, int]]]:
    """Colors and (depth, node id) trace of the rectangle recursion on a
    nonempty rectangle scene, before certification."""
    n = len(rects)
    colors = [0] * n
    trace: list[tuple[int, int]] = [(-1, -1)] * n
    node_counter = [0]

    def recurse(indices: list[int], depth: int) -> None:
        if not indices:
            return
        node = node_counter[0]
        node_counter[0] += 1
        centers = sorted(((rects[i].xmin + rects[i].xmax) / 2, i) for i in indices)
        line = centers[len(indices) // 2][0]
        stabbed = [i for i in indices if rects[i].xmin <= line <= rects[i].xmax]
        left = [i for i in indices if rects[i].xmax < line]
        right = [i for i in indices if rects[i].xmin > line]
        if stabbed:
            y_colors, _chain = reference_chain([Interval(rects[i].ymin, rects[i].ymax) for i in stabbed])
            for i, c in zip(stabbed, y_colors):
                colors[i] = 3 * depth + c
                trace[i] = (depth, node)
        recurse(left, depth + 1)
        recurse(right, depth + 1)

    recurse(list(range(n)), 0)
    return colors, trace


def reference_sorted_ends(rows: np.ndarray) -> tuple[np.ndarray, ...]:
    """(by_lo, lo, by_hi, hi) of the (n, 2) array of (lo, hi) rows: the
    orders of the starts and of the ends, and each column sorted by its own."""
    by_lo, by_hi = np.argsort(rows[:, 0]), np.argsort(rows[:, 1])
    return by_lo, rows[by_lo, 0], by_hi, rows[by_hi, 1]


def reference_interval_census(ends: tuple[np.ndarray, ...], colors: np.ndarray) -> np.ndarray:
    """Whether the closed interval of each vertex meets some color class
    exactly once, for the intervals of `reference_sorted_ends` and colors
    given as class ids 0..p-1: per class c, #(lo_j <= hi) - #(hi_j < lo)
    by two `searchsorted` calls on the class's endpoints, masked out of the
    sorted ones, for every interval."""
    by_lo, lo, by_hi, hi = ends
    lo_color, hi_color = colors[by_lo], colors[by_hi]
    met, missed = np.empty(len(lo), dtype=np.intp), np.empty(len(lo), dtype=np.intp)
    unique = np.zeros(len(lo), dtype=bool)
    for c in range(colors.max(initial=-1) + 1):
        met[by_hi] = np.searchsorted(lo[lo_color == c], hi, "right")
        missed[by_lo] = np.searchsorted(hi[hi_color == c], lo, "left")
        unique |= met - missed == 1
    return unique
