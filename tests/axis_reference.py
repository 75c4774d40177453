"""Reference implementations of the interval chain and the rectangle recursion.

This is the earlier per-link scan of the chain (a full pass over the family
for every link, with an explicit test that a jump across a hole of the union
crosses nothing) and the earlier recursion over lists of rectangle indices that
builds an `Interval` per stabbed rectangle.  The tests require the array
versions in `cfgeom.intervals` and `cfgeom.rects` to reproduce their chains,
colors and (depth, node) traces exactly.
"""
from __future__ import annotations

from bisect import bisect_right
from typing import Sequence

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
