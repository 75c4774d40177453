"""Independent certification of colorings, run outside the timed region.

Contact sets come from closed-form predicates for discs, intervals and
rectangles, and pairwise `cfgeom.geom.intersects` (after a bounding-box
filter) for polygons.  Nothing here uses `cfgeom.hypergraph`.  Hyperedges are
held as CSR arrays (`indptr`, `indices`), built in row blocks so memory stays
O(n + |E|) plus one block.  Palette bounds are the formulas of the paper.
"""
from __future__ import annotations

import math

import numpy as np
from cfgeom.geom import intersects

_BLOCK = 1 << 20  # pair tests per numpy block


# ---------------------------------------------------------------------------
# contact sets
# ---------------------------------------------------------------------------


def _params(shapes) -> tuple[str, np.ndarray]:
    """Kind tag and one row of numbers per shape, read from the shape fields."""
    first = shapes[0]
    if hasattr(first, "radius"):
        return "disc", np.array([(s.center.x, s.center.y, s.radius) for s in shapes], dtype=float)
    if hasattr(first, "lo"):
        return "interval", np.array([(s.lo, s.hi) for s in shapes], dtype=float)
    if hasattr(first, "xmin"):
        return "rect", np.array([(s.xmin, s.xmax, s.ymin, s.ymax) for s in shapes], dtype=float)
    boxes = []
    for s in shapes:
        xs = [p.x for p in s.vertices]
        ys = [p.y for p in s.vertices]
        boxes.append((min(xs), max(xs), min(ys), max(ys)))
    return "polygon", np.array(boxes, dtype=float)


def _hit_block(kind: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Closed-region contact matrix between rows of `a` and rows of `b`
    (for polygons: bounding boxes overlap, refined by the caller)."""
    if kind == "disc":
        d = np.hypot(a[:, None, 0] - b[None, :, 0], a[:, None, 1] - b[None, :, 1])
        return d <= a[:, None, 2] + b[None, :, 2]
    if kind == "interval":
        return (a[:, None, 0] <= b[None, :, 1]) & (b[None, :, 0] <= a[:, None, 1])
    return (
        (a[:, None, 0] <= b[None, :, 1])
        & (b[None, :, 0] <= a[:, None, 1])
        & (a[:, None, 2] <= b[None, :, 3])
        & (b[None, :, 2] <= a[:, None, 3])
    )


def contacts(rows, cols=None) -> tuple[np.ndarray, np.ndarray]:
    """CSR of, for each shape in `rows`, the indices of `cols` it meets.

    Without `cols` the family is matched against itself and a shape is not
    listed as its own contact."""
    same = cols is None
    cols = rows if same else cols
    nr, nc = len(rows), len(cols)
    if nr == 0 or nc == 0:
        return np.zeros(nr + 1, dtype=np.int64), np.zeros(0, dtype=np.int64)
    kind, a = _params(rows)
    kind_c, b = _params(cols)
    if kind != kind_c:
        raise ValueError(f"cannot certify {kind} against {kind_c}")
    step = max(1, _BLOCK // nc)
    lists: list[np.ndarray] = []
    counts = np.zeros(nr, dtype=np.int64)
    for start in range(0, nr, step):
        hit = _hit_block(kind, a[start : start + step], b)
        if same:
            idx = np.arange(start, min(start + step, nr))
            hit[idx - start, idx] = False
        r, c = np.nonzero(hit)
        if kind == "polygon":
            keep = np.fromiter(
                (intersects(rows[start + i], cols[j]) for i, j in zip(r.tolist(), c.tolist())),
                dtype=bool,
                count=len(r),
            )
            r, c = r[keep], c[keep]
        counts[start : start + step] = np.bincount(r, minlength=len(hit))
        lists.append(c)
    indptr = np.zeros(nr + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr, np.concatenate(lists).astype(np.int64)


def with_self(indptr: np.ndarray, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed neighbourhoods N[v] from pointed ones N(v)."""
    n = len(indptr) - 1
    sizes = np.diff(indptr) + 1
    out_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(sizes, out=out_ptr[1:])
    out = np.empty(out_ptr[-1], dtype=np.int64)
    out[out_ptr[:-1]] = np.arange(n)
    rest = np.ones(len(out), dtype=bool)
    rest[out_ptr[:-1]] = False
    out[rest] = indices
    return out_ptr, out


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def cf_violations(indptr: np.ndarray, indices: np.ndarray, colors) -> np.ndarray:
    """Nonempty hyperedges in which no color occurs exactly once."""
    colors = np.asarray(colors, dtype=np.int64)
    sizes = np.diff(indptr)
    edge = np.repeat(np.arange(len(sizes)), sizes)
    col = colors[indices]
    order = np.lexsort((col, edge))
    e, c = edge[order], col[order]
    starts = np.flatnonzero(np.r_[True, (e[1:] != e[:-1]) | (c[1:] != c[:-1])])
    run = np.diff(np.r_[starts, len(e)])
    has_unique = np.zeros(len(sizes), dtype=bool)
    has_unique[e[starts[run == 1]]] = True
    return np.flatnonzero((sizes > 0) & ~has_unique)


def palette(colors) -> int:
    return len(set(colors))


# ---------------------------------------------------------------------------
# palette bounds from the paper
# ---------------------------------------------------------------------------


def cf_bound(n: int, k: int = 6) -> int:
    """ceil(1 + log_{1+1/(k-1)} n): the proper-to-CF iteration with k colors."""
    if n <= 1:
        return max(n, 0)
    return math.ceil(1 + math.log(n) / math.log(1 + 1 / (k - 1)))


def pseudodisc_bound(n: int) -> int:
    """ceil(1+log_{6/5}|B|) + ceil(1+log_{6/5}|V\\B|) + 1, maximised over the
    size of the independent set B, which the benchmark does not see."""
    if n == 0:
        return 0
    return max(cf_bound(b) + cf_bound(n - b) for b in range(1, n + 1)) + 1


def rects_bound(n: int) -> int:
    return 3 * (math.floor(math.log2(n)) + 1)


def fat_pointed_bound(rho: float, k: float) -> int:
    return 2 * (4 * math.ceil(k) * math.ceil(rho) + 1) ** 2 + 1


def fat_closed_bound(rho: float, k: float) -> int:
    return (math.floor(math.log2(k)) + 1) * 2 * (2 * (8 * math.ceil(rho) + 1) ** 2 + 1)


# ---------------------------------------------------------------------------
# one certificate
# ---------------------------------------------------------------------------


class Certificate:
    """Collects the checks of one output: CF, totality, palette against bound."""

    def __init__(self):
        self.problems: list[str] = []
        self.ratios: list[float] = []

    def coloring(self, label: str, colors, n: int, edges, bound: int) -> None:
        if len(colors) != n:
            self.problems.append(f"{label}: {len(colors)} colors for {n} vertices")
            return
        bad = cf_violations(*edges, colors)
        if len(bad):
            self.problems.append(f"{label}: not CF on hyperedges {bad[:5].tolist()}")
        p = palette(colors)
        if p > bound:
            self.problems.append(f"{label}: palette {p} above bound {bound}")
        self.ratios.append(p / bound)

    def membership(self, colors, lists) -> None:
        outside = [v for v, (c, lst) in enumerate(zip(colors, lists)) if c not in set(lst)]
        if outside:
            self.problems.append(f"list: vertices {outside[:5]} colored outside their lists")
