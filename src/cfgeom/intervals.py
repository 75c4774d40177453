"""Closed CF coloring of interval families with three colors.

A chain of intervals s_1, s_2, ... is selected greedily from left to right and
colored 1, 2 alternately; everything else gets color 3.  Consecutive chain
members overlap or bridge a hole of the union, chain members two apart are
disjoint, and no color-3 interval can see two intervals of each chain color,
which together make the coloring closed conflict-free.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import InvalidInputError
from .geom import Scene
from .hypergraph import Coloring, Trace, certify

__all__ = ["closed_cf_color_intervals"]


def closed_cf_color_intervals(intervals: Scene) -> Coloring:
    """Closed CF coloring of an interval scene with at most 3 colors.

    The trace's `chain` lists the selected chain (original indices in
    selection order).  The chain starts at the leftmost interval with the
    farthest right endpoint; each successor has the farthest right endpoint
    among intervals reaching past the current one, either overlapping it or
    starting directly across a hole of the union.  Ties go to the smaller
    index.
    """
    if len(intervals) == 0:
        raise InvalidInputError("empty interval family")
    if intervals.kind != "intervals":
        raise InvalidInputError("scene must contain intervals only")
    colors, chain = _interval_chain(intervals.rows)
    out = Coloring(colors, trace=Trace(3, {"chain": chain}))
    return certify(intervals, out, "closed", bound=3, what="interval coloring")


def _interval_chain(ends: np.ndarray) -> tuple[list[int], list[int]]:
    """Uncertified colors and chain of closed_cf_color_intervals on the
    nonempty (n, 2) array of (lo, hi) rows.

    One sweep over the sorted starts: best[k] is the interval of largest
    (hi, -index) among the k + 1 leftmost starts.  The next link is the best
    interval starting at or before the current right end r when that one
    reaches past r; otherwise nothing overlapping reaches past r, and the link
    is the best interval starting at or before the next start after r, which
    lies across a hole of the union.  The first link takes r = -inf.
    """
    lo, hi = ends[:, 0], ends[:, 1]
    n = len(lo)
    by_lo = np.argsort(lo, kind="stable")
    starts = lo[by_lo]
    by_rank = np.lexsort((-np.arange(n), hi))
    rank = np.empty(n, dtype=np.intp)
    rank[by_rank] = np.arange(n)
    best = by_rank[np.maximum.accumulate(rank[by_lo])].tolist()
    chain: list[int] = []
    r = -math.inf
    while True:
        k = int(np.searchsorted(starts, r, "right"))
        if k == 0 or hi[best[k - 1]] <= r:
            if k == n:
                break
            k = int(np.searchsorted(starts, starts[k], "right"))
        chain.append(best[k - 1])
        r = hi[chain[-1]]

    colors = [3] * n
    for pos, i in enumerate(chain):
        colors[i] = 1 + (pos % 2)
    return colors, chain
