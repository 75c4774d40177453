"""Reference implementation of the contact layer's box-overlap candidates.

This is the earlier single sweep over boxes sorted by xmin: every pair whose
x-ranges meet is a candidate, whatever its y-distance, and the y test then
keeps the boxes that overlap.  The tests require the strip sweep in
`cfgeom.geom._box_overlaps` to return the same pair sets.
"""
from __future__ import annotations

import numpy as np


def box_overlaps_reference(box_a: np.ndarray, box_b: np.ndarray, same: bool) -> tuple[np.ndarray, np.ndarray]:
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
