"""Closed CF coloring of interval families with three colors.

A chain of intervals s_1, s_2, ... is selected greedily from left to right and
colored 1, 2 alternately; everything else gets color 3.  Consecutive chain
members overlap or bridge a hole of the union, chain members two apart are
disjoint, and no color-3 interval can see two intervals of each chain color,
which together make the coloring closed conflict-free.
"""
from __future__ import annotations

from bisect import bisect_right
from typing import Sequence

from .geom import Interval, Scene
from .hypergraph import Coloring, certify, intersection_graph

__all__ = ["closed_cf_color_intervals"]


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


def closed_cf_color_intervals(intervals: Scene) -> tuple[Coloring, list[int]]:
    """Closed CF coloring of an interval scene with at most 3 colors.

    Returns the coloring and the selected chain (original indices in selection
    order).  The chain starts at the leftmost interval with the farthest right
    endpoint; each successor has the farthest right endpoint among intervals
    reaching past the current one, either overlapping it or starting directly
    across a hole of the union.  Ties go to the smaller index.
    """
    if len(intervals) == 0:
        raise ValueError("empty interval family")
    if intervals.kind != "intervals":
        raise ValueError("scene must contain intervals only")
    colors, chain = _interval_chain(intervals.shapes)
    out = certify(intersection_graph(intervals), Coloring(tuple(colors)), "closed", bound=3, what="interval coloring")
    return out, chain


def _interval_chain(ivs: Sequence[Interval]) -> tuple[list[int], list[int]]:
    """Uncertified colors and chain of closed_cf_color_intervals on a nonempty family."""
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
