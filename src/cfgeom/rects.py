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

import numpy as np

from .errors import InvalidInputError, VerificationError
from .geom import Scene
from .hypergraph import Coloring, Trace, certify
from .intervals import _interval_chain

__all__ = ["closed_cf_color_rects"]


def closed_cf_color_rects(rects: Scene) -> Coloring:
    """Closed CF coloring with at most 3*(floor(log2 n) + 1) colors.

    The trace labels each rectangle with its recursion `depth` and `node`;
    node ids number the recursion nodes in preorder, left before right.
    `certify` proves the coloring from these labels."""
    n = len(rects)
    if n == 0:
        raise InvalidInputError("empty rectangle family")
    if rects.kind != "rects":
        raise InvalidInputError("scene must contain rectangles only")
    box = rects.rows
    with np.errstate(over="ignore"):
        center = (box[:, 0] + box[:, 1]) / 2
    # where the sum overflows, both halves are normal floats, so their sum lies
    # in [xmin, xmax]; halving first everywhere would send subnormals to 0
    center = np.where(np.isfinite(center), center, box[:, 0] / 2 + box[:, 1] / 2)
    xlo, xhi, ys = box[:, 0], box[:, 1], box[:, 2:]
    colors = np.ones(n, dtype=int)  # the chain color 1, 2 or 3 within the node, until the depth is added
    nodes = np.empty(n, dtype=int)
    node_depth: list[int] = []  # by node id

    def recurse(idx: np.ndarray, depth: int) -> None:
        node = len(node_depth)
        node_depth.append(depth)
        if len(idx) == 1:  # its own median line stabs it: a chain of one link
            nodes[idx] = node
            return
        line = np.partition(center[idx], len(idx) // 2)[len(idx) // 2]
        left, right = xhi[idx] < line, xlo[idx] > line
        stabbed = idx[~(left | right)]
        colors[stabbed] = _interval_chain(ys[stabbed])[0]
        nodes[stabbed] = node
        half = idx[left]
        if len(half):
            recurse(half, depth + 1)
        half = idx[right]
        if len(half):
            recurse(half, depth + 1)

    recurse(np.arange(n), 0)
    depths = np.array(node_depth)[nodes]
    colors += 3 * depths
    if depths.max() > math.floor(math.log2(n)):
        raise VerificationError("recursion went deeper than floor(log2 n) + 1 levels")
    bound = 3 * (math.floor(math.log2(n)) + 1)
    out = Coloring(colors, trace=Trace(bound, {"depth": depths.tolist(), "node": nodes.tolist()}))
    return certify(rects, out, "closed", bound=bound, what="rectangle coloring")
