"""Closed CF coloring of axis-parallel rectangles by recursive median splitting.

Each recursion node picks a vertical line through the median x-center, colors
the stabbed rectangles with that depth's three colors via the interval chain
construction on their y-ranges, and recurses on the strictly-left and
strictly-right families, which share the deeper palettes.  Rectangles holding
same-depth colors from different nodes are separated by one of the chosen
lines and therefore disjoint.
"""
from __future__ import annotations

import math

from .errors import VerificationError
from .geom import Interval, Scene
from .hypergraph import Coloring, certify, intersection_graph
from .intervals import _interval_chain

__all__ = ["closed_cf_color_rects"]


def closed_cf_color_rects(rects: Scene) -> Coloring:
    """Closed CF coloring with at most 3*(floor(log2 n) + 1) colors."""
    coloring, _trace = color_rects_traced(rects)
    return coloring


def color_rects_traced(rects: Scene) -> tuple[Coloring, list[tuple[int, int]]]:
    """As closed_cf_color_rects, also returning (depth, node id) per rectangle."""
    n = len(rects)
    if n == 0:
        raise ValueError("empty rectangle family")
    if rects.kind != "rects":
        raise ValueError("scene must contain rectangles only")
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
            y_colors, _chain = _interval_chain([Interval(rects[i].ymin, rects[i].ymax) for i in stabbed])
            for i, c in zip(stabbed, y_colors):
                colors[i] = 3 * depth + c
                trace[i] = (depth, node)
        recurse(left, depth + 1)
        recurse(right, depth + 1)

    recurse(list(range(n)), 0)
    out = Coloring(tuple(colors))
    depth_used = max(d for d, _ in trace)
    if depth_used > math.floor(math.log2(n)):
        raise VerificationError("recursion went deeper than floor(log2 n) + 1 levels")
    bound = 3 * (math.floor(math.log2(n)) + 1)
    return certify(intersection_graph(rects), out, "closed", bound=bound, what="rectangle coloring"), trace
