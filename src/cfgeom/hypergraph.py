"""Hypergraphs, intersection graphs, verifiers, and the exact small-instance oracle.

Colorings are never trusted: `certify` is the one check every public coloring
entry point runs on its output before returning it.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .errors import IncompatibleShapesError, InvalidInputError, VerificationError
from .geom import Scene, _contact_hits, _integers, _read_only

__all__ = [
    "Graph",
    "Hypergraph",
    "Coloring",
    "Trace",
    "intersection_graph",
    "neighborhood_hypergraph",
    "induced",
    "verify_proper",
    "verify_cf",
    "neighborhood_violations",
    "certify",
    "min_cf_colors_bruteforce",
    "greedy_maximal_independent_set",
    "all_intervals_hypergraph",
    "coloring_to_json",
    "coloring_from_json",
]

ORACLE_MAX_VERTICES = 16


class Graph:
    """Simple undirected graph on vertices 0..n-1, stored as CSR arrays: the
    neighbours of v are indices[indptr[v]:indptr[v + 1]], in increasing order.

    Built from edge pairs (u, v) with u < v, given as an iterable or an (m, 2)
    integer array; repeated pairs count once.  Counts and ids must be integers,
    and n * n below 2^63, so that every CSR key u * n + v fits in int64.
    """

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] | np.ndarray = ()):
        n = _count(n, "vertex count")
        _key_space(n, n)
        e = _integers(edges if isinstance(edges, np.ndarray) else list(edges), "graph edges")
        if e.size == 0:
            e = e.reshape(0, 2)
        if e.ndim != 2 or e.shape[1] != 2:
            raise InvalidInputError("graph edges must be vertex pairs")
        u, v = e[:, 0], e[:, 1]
        bad = np.nonzero((u < 0) | (u >= v) | (v >= n))[0]
        if len(bad):
            raise InvalidInputError(f"bad edge ({u[bad[0]]},{v[bad[0]]}) for n={n}")
        self.n, (self.indptr, self.indices) = n, _rows(n, n, np.concatenate([u * n + v, v * n + u]))

    @classmethod
    def _of_pairs(cls, n: int, i: np.ndarray, j: np.ndarray) -> Graph:
        """Graph on n vertices of the pairs (i[k], j[k]), i[k] != j[k] in 0..n-1, in any order and
        unchecked: keyed i * n + j and j * n + i from the two arrays, with no joined copy of them."""
        g = cls.__new__(cls)
        g.n, (g.indptr, g.indices) = n, _rows(n, n, np.concatenate([i * n + j, j * n + i]))
        return g

    def arcs(self) -> tuple[np.ndarray, np.ndarray]:
        """(v, u) for every neighbour u of every vertex v, in CSR order."""
        return np.repeat(np.arange(self.n), np.diff(self.indptr)), self.indices

    @cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        """Every edge (u, v) with u < v; a view built on first use."""
        u, v = self.arcs()
        up = u < v
        return frozenset(zip(u[up].tolist(), v[up].tolist()))

    def subgraph(self, keep: Sequence[int]) -> Graph:
        """Induced subgraph on the strictly increasing vertex list `keep`, keep[i] renamed i."""
        keep = _integers(keep, "subgraph vertices")
        if keep.ndim != 1 or len(keep) and (keep[0] < 0 or keep[-1] >= self.n or (np.diff(keep) <= 0).any()):
            raise InvalidInputError(f"keep must be strictly increasing vertices of 0..{self.n - 1}")
        u, v = self._arcs_between(keep, keep)
        return Graph._of_pairs(len(keep), u[u < v], v[u < v])

    def _arcs_between(self, rows: Sequence[int], cols: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """The arcs (r, c) with r in `rows` and c in `cols` (distinct vertices,
        no check), renamed to their positions there."""
        local = np.full((2, self.n), -1, dtype=np.int64)
        local[0, rows], local[1, cols] = np.arange(len(rows)), np.arange(len(cols))
        r, c = (x[arc] for x, arc in zip(local, self.arcs()))
        hit = (r >= 0) & (c >= 0)
        return r[hit], c[hit]


class Hypergraph:
    """Hyperedges on vertices 0..n-1, stored as CSR arrays: the members of edge i
    are indices[indptr[i]:indptr[i + 1]], sorted and distinct.

    Built from an iterable of vertex iterables (a member repeated within an
    edge counts once; repeated and empty edges are kept), or by `from_pairs`;
    counts and ids must be integers, and m * n below 2^63 for m edges.
    Edges and vertices are known by their indices alone: each function that
    makes one says which edge index stands for what (a probe, a neighbourhood).
    """

    def __init__(self, n: int, edges: Iterable[Iterable[int]] = ()):
        n = _count(n, "vertex count")
        edges = [tuple(e) for e in edges]
        _key_space(len(edges), n)
        sizes = np.fromiter(map(len, edges), dtype=np.int64, count=len(edges))
        members = _integers(list(chain.from_iterable(edges)), "hyperedge members")
        edge_ids = np.repeat(np.arange(len(edges)), sizes)
        bad = np.nonzero((members < 0) | (members >= n))[0]
        if len(bad):
            raise InvalidInputError(f"edge {tuple(sorted(set(edges[edge_ids[bad[0]]])))} out of range for n={n}")
        self.n, (self.indptr, self.indices) = n, _rows(len(edges), n, edge_ids * n + members)

    @classmethod
    def from_pairs(cls, n: int, m: int, edge_ids: np.ndarray, members: np.ndarray) -> Hypergraph:
        """Edges 0..m-1, members[i] in edge edge_ids[i]; pairs in any order."""
        n, m = _count(n, "vertex count"), _count(m, "edge count")
        _key_space(m, n)
        edge_ids, members = _integers(edge_ids, "edge ids"), _integers(members, "hyperedge members")
        if edge_ids.ndim != 1 or edge_ids.shape != members.shape:
            raise InvalidInputError("edge ids and members must be flat arrays of one length")
        if ((members < 0) | (members >= n) | (edge_ids < 0) | (edge_ids >= m)).any():
            raise InvalidInputError(f"a pair has an edge id outside 0..{m - 1} or a member outside 0..{n - 1}")
        return cls._of_pairs(n, m, edge_ids, members)

    @classmethod
    def _of_pairs(cls, n: int, m: int, edge_ids: np.ndarray, members: np.ndarray) -> Hypergraph:
        """`from_pairs` of pairs with edge ids in 0..m-1 and members in 0..n-1, taken with no check."""
        h = cls.__new__(cls)
        h.n, (h.indptr, h.indices) = n, _rows(m, n, edge_ids * n + members)
        return h

    @cached_property
    def edges(self) -> tuple[tuple[int, ...], ...]:
        """Sorted members of each edge; a view built on first use."""
        ptr, idx = self.indptr.tolist(), self.indices.tolist()
        return tuple(tuple(idx[a:b]) for a, b in zip(ptr, ptr[1:]))

    @cached_property
    def _flat(self) -> tuple[np.ndarray, np.ndarray]:
        """(member, edge) of every membership, edge by edge."""
        return self.indices, np.repeat(np.arange(len(self.indptr) - 1), np.diff(self.indptr))


def _count(n, what: str) -> int:
    """`n` as an int; InvalidInputError unless it is a non-negative integer."""
    a = _integers(n, what)
    if a.ndim or a < 0:
        raise InvalidInputError(f"{what} must be a non-negative integer, not {n!r}")
    return int(a)


def _key_space(nrows: int, width: int) -> None:
    """InvalidInputError unless every CSR key row * width + col fits in int64."""
    if nrows * width >= 2**63:
        raise InvalidInputError(f"{nrows} rows of {width} columns overflow the 64-bit CSR keys")


def _rows(nrows: int, width: int, key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR (indptr, indices) of the (row, col) pairs keyed row * width + col,
    every col below width: `key` is sorted in place, repeated keys dropped,
    and each row's start found by `searchsorted` on the keys themselves."""
    key.sort()
    repeat = key[1:] == key[:-1]
    if repeat.any():
        key = key[np.r_[True, ~repeat]]
    try:
        indptr = np.searchsorted(key, np.arange(nrows + 1) * width)
    except MemoryError:
        raise InvalidInputError(f"the row pointers of {nrows} CSR rows do not fit in memory") from None
    key %= max(width, 1)  # in place, with no second array of keys
    return indptr, key


@dataclass(frozen=True)
class Trace:
    """What a public coloring entry point did, carried by the Coloring it returns.

    `palette_bound` is the bound `certify` checked, None where it checks none.
    `vertices` holds named vertex lists (`chain`, `independent_set`, `rest`,
    `pruned`) and per-vertex labels (`depth` and `node` for rectangles,
    `bucket` for closed fat coloring).  `peels` maps each peel stage (`b` and
    `rest` in the pipeline, `rounds` against probes) to its PeelOrders.
    """

    palette_bound: int | None = None
    vertices: dict[str, list[int]] = field(default_factory=dict)
    peels: dict[str, list] = field(default_factory=dict)


@dataclass(frozen=True)
class Coloring:
    """Total map vertex index -> integer color id (a float, even 2.0, is not one).

    Colors are given as a flat sequence or integer array of int64 values.
    `colors` holds them as a tuple of ints; the Coloring also keeps a
    read-only int64 copy, `_array`, which the verifiers read, so a later
    change to the caller's array changes nothing here.
    `palette_map` is present when colors are structured pairs (i, level)
    flattened to integers; it maps each flat id back to its pair.  `trace`
    is filled by the entry point that made the coloring; it takes no part in
    equality, repr or JSON.
    """

    colors: tuple[int, ...]
    palette_map: dict[int, tuple[int, int]] | None = None
    trace: Trace | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        colors = _read_only(_integers(self.colors, "colors").copy())
        if colors.ndim != 1:
            raise InvalidInputError("colors must be a flat sequence of integers")
        object.__setattr__(self, "_array", colors)
        object.__setattr__(self, "colors", tuple(colors.tolist()))

    @property
    def palette_size(self) -> int:
        return len(set(self.colors))

    def __len__(self) -> int:
        return len(self.colors)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def intersection_graph(scene: Scene) -> Graph:
    """Graph with an edge for every intersecting pair of scene shapes: the
    unsorted pairs of the contact sweep, keyed and sorted once by `_rows`."""
    return Graph._of_pairs(len(scene), *_contact_hits(scene))


def neighborhood_hypergraph(g: Graph, mode: str = "pointed") -> Hypergraph:
    """One hyperedge per vertex: N(v) for pointed mode (empty neighborhoods
    omitted) or N[v] for closed mode; the rows of `g`, plus the diagonal when
    closed.  Closed edge v is N[v]; pointed edge i is N(v) for the i-th vertex
    v with a neighbour, np.flatnonzero(np.diff(g.indptr))[i]."""
    owners, members = g.arcs()
    if _closed(mode):
        loops = np.arange(g.n)
        return Hypergraph._of_pairs(g.n, g.n, np.concatenate([owners, loops]), np.concatenate([members, loops]))
    nonempty = np.nonzero(np.diff(g.indptr))[0]
    rows = np.searchsorted(nonempty, owners)  # N(v) is edge number (rank of v among the nonempty rows)
    return Hypergraph._of_pairs(g.n, len(nonempty), rows, members)


def _closed(mode: str) -> bool:
    """Whether neighborhood `mode` is closed; InvalidInputError unless it is 'pointed' or 'closed'."""
    if not isinstance(mode, str) or mode not in ("pointed", "closed"):
        raise InvalidInputError("mode must be 'pointed' or 'closed'")
    return mode == "closed"


def induced(h: Hypergraph, keep: Sequence[int]) -> Hypergraph:
    """Sub-hypergraph on the distinct vertices `keep` (any order), keep[i]
    renamed i, each edge intersected with keep; edge i stays edge i."""
    keep = _integers(keep, "induced vertices")
    if keep.ndim != 1 or len(keep) and (keep.min() < 0 or keep.max() >= h.n):
        raise InvalidInputError(f"keep must be vertices of 0..{h.n - 1}")
    pos = np.full(h.n, -1, dtype=np.int64)
    pos[keep] = np.arange(len(keep))
    if (pos[keep] != np.arange(len(keep))).any():
        raise InvalidInputError("keep must not contain duplicates")
    members, edge_ids = h._flat
    renamed = pos[members]
    inside = renamed >= 0
    return Hypergraph._of_pairs(len(keep), len(h.indptr) - 1, edge_ids[inside], renamed[inside])


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


def _color_counts(
    colors: np.ndarray, members: np.ndarray, owners: np.ndarray, ne: int, diagonal: bool = False
) -> tuple[np.ndarray, ...]:
    """Per distinct (edge, color) pair present, in increasing order: its edge and its member count;
    counted in an edge x color table when it has at most |members| + ne cells, else by one sort.
    With `diagonal`, edge v also holds vertex v (ne = n): closed neighborhoods from the arcs alone."""
    values, dense = np.unique(colors, return_inverse=True)
    p = max(len(values), 1)
    key = owners * p + dense[members]
    loops = np.arange(ne) * p + dense if diagonal else None  # one cell per vertex: no cell is counted twice
    if ne * p <= len(key) + (ne if diagonal else 0) + ne:
        counts = np.bincount(key, minlength=ne * p)
        if diagonal:
            counts[loops] += 1
        key = np.flatnonzero(counts)
        return key // p, counts[key]
    if diagonal:
        key = np.concatenate([key, loops])
    key.sort()
    first = np.flatnonzero(np.r_[len(key) > 0, key[1:] != key[:-1]])  # where each run of equal keys starts
    return key[first] // p, np.diff(first, append=len(key))


def _total(coloring, n: int) -> np.ndarray:
    colors = coloring._array if isinstance(coloring, Coloring) else _integers(coloring, "colors")
    if colors.ndim != 1 or len(colors) != n:
        raise InvalidInputError("coloring is not total")
    return colors


def verify_proper(h: Hypergraph, coloring) -> list[int]:
    """Indices of hyperedges of size >= 2 that are monochromatic (empty list = proper)."""
    colors = _total(coloring, h.n)
    edge_of, _ = _color_counts(colors, *h._flat, len(h.indptr) - 1)
    distinct = np.bincount(edge_of, minlength=len(h.indptr) - 1)
    return np.nonzero((np.diff(h.indptr) >= 2) & (distinct == 1))[0].tolist()


def _cf_violations(
    colors: np.ndarray, members: np.ndarray, owners: np.ndarray, ne: int, diagonal: bool = False
) -> list[int]:
    """The CF check on the census: nonempty edges with no color counted exactly once."""
    edge_of, counts = _color_counts(colors, members, owners, ne, diagonal)
    unique = np.zeros(ne, dtype=bool)
    unique[edge_of[counts == 1]] = True
    nonempty = np.full(ne, diagonal)
    nonempty[owners] = True
    return np.flatnonzero(nonempty & ~unique).tolist()


def verify_cf(h: Hypergraph, coloring) -> list[int]:
    """Indices of nonempty hyperedges with no uniquely colored vertex (empty list = CF)."""
    return _cf_violations(_total(coloring, h.n), *h._flat, len(h.indptr) - 1)


def neighborhood_violations(contacts: Graph | Scene, coloring, mode: str) -> list[int]:
    """Vertices v whose nonempty N(v) (pointed) or N[v] (closed) has no uniquely
    colored member; no hypergraph is built.

    A Graph is read from its edge arrays.  An interval or rectangle Scene, in
    closed mode only, is read with no graph at all.  Intervals are counted by
    endpoints (`_interval_census`), or from the contact pairs when the
    (vertex, color) cells n p outnumber the closed neighborhood members n + D.
    Rectangles are counted in 64-bit words (`_rect_violations`), with no pairs.
    This census reads colors alone: it checks colorings made elsewhere (as
    `cfgeom verify` does), and it decides for `certify` whenever a
    rectangle coloring's recursion labels do not prove it.
    """
    if isinstance(contacts, Graph):
        owners, members = contacts.arcs()
        return _cf_violations(_total(coloring, contacts.n), members, owners, contacts.n, _closed(mode))
    if not _closed(mode):
        raise InvalidInputError("a scene is checked in closed mode only")
    n = len(contacts)
    colors = _total(coloring, n)
    if contacts.kind == "rects":
        return _rect_violations(contacts.rows, colors)
    if contacts.kind != "intervals":
        raise IncompatibleShapesError("only interval and rectangle scenes are checked without a graph")
    values, dense = np.unique(colors, return_inverse=True)
    ends = _sorted_ends(contacts.rows)
    if n * len(values) <= n + _closed_degree_total(ends):
        return np.flatnonzero(~_interval_census(ends, dense)).tolist()
    i, j = _contact_hits(contacts)
    return _cf_violations(colors, np.concatenate([j, i]), np.concatenate([i, j]), n, diagonal=True)


def _sorted_ends(rows: np.ndarray) -> tuple[np.ndarray, ...]:
    """(by_lo, lo, by_hi, hi) of the (n, 2) array of (lo, hi) rows: the
    orders of the starts and of the ends, and each column sorted by its own."""
    by_lo, by_hi = np.argsort(rows[:, 0]), np.argsort(rows[:, 1])
    return by_lo, rows[by_lo, 0], by_hi, rows[by_hi, 1]


def _closed_degree_total(ends: tuple[np.ndarray, ...]) -> int:
    """D, the sum of |N[v]| over the intervals of `_sorted_ends`: the count
    `_interval_census` takes per color, with every interval of one color, summed."""
    _, lo, _, hi = ends
    return int(np.searchsorted(lo, hi, "right").sum() - np.searchsorted(hi, lo, "left").sum())


def _interval_census(ends: tuple[np.ndarray, ...], colors: np.ndarray) -> np.ndarray:
    """Whether the closed interval of each vertex meets some color class
    exactly once, for the intervals of `_sorted_ends` and colors given as
    class ids 0..p-1.

    Interval j misses [lo, hi] exactly when hi_j < lo or lo_j > hi, and not
    both, so color c meets it #(lo_j <= hi) - #(hi_j < lo) times.  The sorted
    endpoints serve as queries and as the searched arrays: each class's
    endpoints, masked out of the sorted ones, stay sorted, so each color costs
    two `searchsorted` calls on sorted queries, comparisons only.
    O(n log n + p n) time for p colors and O(n) memory.
    """
    by_lo, lo, by_hi, hi = ends
    lo_color, hi_color = colors[by_lo], colors[by_hi]
    met, missed = np.empty(len(lo), dtype=np.intp), np.empty(len(lo), dtype=np.intp)
    unique = np.zeros(len(lo), dtype=bool)
    for c in range(colors.max(initial=-1) + 1):
        met[by_hi] = np.searchsorted(lo[lo_color == c], hi, "right")
        missed[by_lo] = np.searchsorted(hi[hi_color == c], lo, "left")
        unique |= met - missed == 1
    return unique


# words per (vertex x block of words) array of the rectangle census, about 16 MB
_CENSUS_BLOCK_WORDS = 1 << 21


def _rect_violations(box: np.ndarray, colors: np.ndarray) -> list[int]:
    """Vertices whose closed rectangle meets no color class exactly once, for
    the (n, 4) array of (xmin, xmax, ymin, ymax) rows.

    Rectangle j misses the closed rectangle v exactly when it lies entirely to
    its left, right, below or above: xmax_j < xmin_v, xmin_j > xmax_v,
    ymax_j < ymin_v or ymin_j > ymax_v.  Each of those sets is a prefix of one
    sorted order of a coordinate, found by one `searchsorted` per side
    (comparisons only), so the complement of N[v] is the OR of one row from
    each of four prefix bitsets.  Bits are laid out by group, each group
    padded to whole 64-bit words whose padding bits are never set; one
    `np.bitwise_count` and one `np.add.reduceat` over the group starts count
    the members of each group that miss v.  A color class of two or more is
    a group, and meets v once when exactly size - 1 of it miss v.  All
    singleton classes share the last group: a singleton meets v once when it
    meets v at all, so v is settled by them when fewer than all of them miss
    it.  Words go in column blocks of _CENSUS_BLOCK_WORDS // n, a group wider
    than a block carrying its count to the next, so memory stays O(n * block)
    and time O(n (n/64 + p)) words for p classes of two or more.
    """
    n = len(box)
    _, group = np.unique(colors, return_inverse=True)
    sizes = np.bincount(group)
    single = sizes == 1
    pooled = np.zeros(len(sizes), dtype=bool)
    if single.any():  # the singletons, in one group after the others
        group = np.where(single, (~single).sum(), np.cumsum(~single) - 1)[group]
        sizes = np.bincount(group)
        pooled = np.arange(len(sizes)) == len(sizes) - 1
    words = -(-sizes // 64)
    end = np.cumsum(words)
    start = end - words  # first word of each group
    bit = np.empty(n, dtype=np.int64)
    bit[np.argsort(group, kind="stable")] = np.arange(n) + np.repeat(64 * start - (np.cumsum(sizes) - sizes), sizes)
    sides = []
    for lo, hi in (box[:, :2].T, box[:, 2:].T):
        by_hi, by_lo = np.argsort(hi), np.argsort(lo)
        sides.append((bit[by_hi], np.searchsorted(hi[by_hi], lo, "left")))  # left of or below v
        sides.append((bit[by_lo[::-1]], n - np.searchsorted(lo[by_lo], hi, "right")))  # right of or above v
    unique = np.zeros(n, dtype=bool)
    carry = 0  # misses counted so far of a group that continues into the block
    total, step = int(words.sum()), max(1, _CENSUS_BLOCK_WORDS // max(n, 1))
    for w0 in range(0, total, step):
        w1 = min(w0 + step, total)
        first, stop = np.searchsorted(end, w0, "right"), np.searchsorted(start, w1, "left")  # groups in the block
        seg = np.add.reduceat(
            np.bitwise_count(_missed_words(sides, n, w0, w1)), np.maximum(start[first:stop], w0) - w0, axis=1, dtype=np.int64
        )
        seg[:, 0] += carry
        done = end[first:stop] <= w1
        carry = 0 if done[-1] else seg[:, -1]
        size, settles = sizes[first:stop][done], pooled[first:stop][done]
        seg = seg[:, done]
        unique |= ((seg == size - 1) | (settles & (seg < size))).any(axis=1)
    return np.flatnonzero(~unique).tolist()


def _missed_words(sides: list[tuple[np.ndarray, np.ndarray]], n: int, w0: int, w1: int) -> np.ndarray:
    """Words w0..w1-1 of the bitset of rectangles missing each vertex.  Each
    side holds the bits of the rectangles in the order its prefixes take them,
    and k, the length of the prefix that misses each vertex on that side."""
    missed = np.zeros((n, w1 - w0), dtype=np.uint64)
    for bits, k in sides:
        word = bits >> 6
        (inside,) = np.nonzero((word >= w0) & (word < w1))
        prefix = np.zeros((n + 1, w1 - w0), dtype=np.uint64)
        prefix[inside + 1, word[inside] - w0] = np.left_shift(np.uint64(1), (bits[inside] & 63).astype(np.uint64))
        np.bitwise_or.accumulate(prefix, axis=0, out=prefix)
        missed |= prefix[k]
    return missed


def _rect_labels_settle(box: np.ndarray, colors: np.ndarray, node) -> bool:
    """True when the per-rectangle `node` labels prove the closed rectangle
    coloring conflict-free, by comparisons and sorts alone in O(n log n);
    False when they prove nothing, and the census must decide.

    (a) The rectangles of each node share a vertical line: max xmin <= min
    xmax over the node, so two of them meet exactly when their y-ranges do.
    (b) For each color class, the closed x-extents [min xmin, max xmax] of
    the nodes holding its members are pairwise disjoint, so a member outside
    the node of v misses v whenever the class has a member in that node.
    (c) Every vertex v has, among the at most three classes of its node, one
    with exactly one member in the node whose closed y-range meets v's; that
    member is then the only one of its class in N[v].  The count is
    `_interval_census` of the class slots on the keys node * V + rank of y,
    for V distinct y values, so a member of an earlier node is counted in
    both of its terms and one of a later node in neither.  Labels need not
    come from the colorer: any labels that pass (a), (b) and (c) prove the
    coloring.
    """
    n = len(box)
    node = np.asarray(node)
    if not n or node.shape != (n,) or node.dtype.kind not in "iu":
        return False
    xlo, xhi, ylo, yhi = box.T
    order = np.lexsort((colors, node))  # by node, then color
    sn, sc = node[order], colors[order]
    new_node = np.r_[True, sn[1:] != sn[:-1]]
    new_pair = new_node | np.r_[True, sc[1:] != sc[:-1]]
    starts = np.flatnonzero(new_node)
    x0, x1 = xlo[order], xhi[order]
    if (np.maximum.reduceat(x0, starts) > np.minimum.reduceat(x1, starts)).any():  # (a)
        return False
    ext_lo, ext_hi = np.minimum.reduceat(x0, starts), np.maximum.reduceat(x1, starts)
    nid = np.cumsum(new_node) - 1  # dense node id, in sorted order
    pair = np.cumsum(new_pair) - 1
    slot = pair - pair[starts][nid]  # rank of the color among its node's colors
    if slot.max() > 2:
        return False
    firsts = np.flatnonzero(new_pair)
    pc, lo, hi = sc[firsts], ext_lo[nid[firsts]], ext_hi[nid[firsts]]
    by_extent = np.lexsort((lo, pc))
    pc, lo, hi = pc[by_extent], lo[by_extent], hi[by_extent]
    if ((pc[1:] == pc[:-1]) & (hi[:-1] >= lo[1:])).any():  # (b)
        return False
    values, rank = np.unique(np.concatenate([ylo, yhi]), return_inverse=True)
    keys = np.take(rank.reshape(2, n), order, axis=1) + nid * len(values)  # rows (lo, hi) in (node, color) order
    return bool(_interval_census(_sorted_ends(keys.T), slot).all())  # (c)


def certify(
    contacts: Graph | Hypergraph | Scene,
    coloring: Coloring,
    mode: str | None = None,
    *,
    bound: int | None = None,
    lists: Sequence[Sequence[int]] | None = None,
    what: str = "coloring",
) -> Coloring:
    """Return `coloring` once it is proven valid, else raise VerificationError.

    Checks totality, the palette `bound`, membership of every color in its
    vertex's list, and conflict-freeness of every hyperedge, or of every
    pointed or closed neighborhood (`mode`) when `contacts` is a graph, or of
    every closed neighborhood when it is an interval or rectangle scene.

    A closed rectangle coloring whose trace carries `node` labels, as
    `closed_cf_color_rects` writes them, is first checked from those labels
    in O(n log n) (`_rect_labels_settle`).  When they prove nothing, or the
    coloring has none, `neighborhood_violations` decides, so the verdict and
    the message are those of the census alone.
    """
    n = len(contacts) if isinstance(contacts, Scene) else contacts.n
    if len(coloring.colors) != n:
        raise VerificationError(f"{what} colors {len(coloring.colors)} of {n} vertices")
    if bound is not None and coloring.palette_size > bound:
        raise VerificationError(f"{what} used {coloring.palette_size} colors, bound is {bound}")
    outside = [v for v, (c, lst) in enumerate(zip(coloring.colors, lists or ())) if c not in lst]
    if outside:
        raise VerificationError(f"{what} colored vertices {outside[:5]} outside their lists")
    labels = coloring.trace.vertices.get("node") if coloring.trace else None
    if (
        labels is not None
        and isinstance(contacts, Scene)
        and contacts.kind == "rects"
        and _closed(mode)
        and _rect_labels_settle(contacts.rows, coloring._array, labels)
    ):
        bad = []
    elif isinstance(contacts, (Graph, Scene)):
        bad, where = neighborhood_violations(contacts, coloring, mode), f"the {mode} neighborhoods of vertices"
    else:
        bad, where = verify_cf(contacts, coloring), "hyperedges"
    if bad:
        raise VerificationError(f"{what} is not conflict-free on {where} {bad[:5]}")
    return coloring


# ---------------------------------------------------------------------------
# exact oracle
# ---------------------------------------------------------------------------


def min_cf_colors_bruteforce(h: Hypergraph, max_colors: int) -> tuple[int, Coloring] | None:
    """Smallest palette admitting a CF coloring, with one witness; None when it
    exceeds max_colors.

    Exhaustive search over colorings with colors introduced in first-use order
    (cutting the t^n space by t!), pruning as soon as a fully colored hyperedge
    lacks a unique color.  Enforces n <= 16.
    """
    max_colors = _count(max_colors, "max_colors")
    if h.n > ORACLE_MAX_VERTICES:
        raise InvalidInputError(f"oracle limited to n <= {ORACLE_MAX_VERTICES}, got {h.n}")
    if h.n == 0:
        return (0, Coloring(()))
    complete_at: list[list[tuple[int, ...]]] = [[] for _ in range(h.n)]
    for e in h.edges:
        if e:
            complete_at[e[-1]].append(e)

    colors = [0] * h.n

    def edge_ok(e: tuple[int, ...]) -> bool:
        seen: dict[int, int] = {}
        for v in e:
            c = colors[v]
            seen[c] = seen.get(c, 0) + 1
        return any(cnt == 1 for cnt in seen.values())

    def backtrack(v: int, used: int, t: int) -> bool:
        if v == h.n:
            return True
        for c in range(1, min(used + 1, t) + 1):
            colors[v] = c
            if all(edge_ok(e) for e in complete_at[v]):
                if backtrack(v + 1, max(used, c), t):
                    return True
        colors[v] = 0
        return False

    for t in range(1, max_colors + 1):
        if backtrack(0, 0, t):
            return (t, certify(h, Coloring(tuple(colors)), bound=t, what="oracle witness"))
    return None


# ---------------------------------------------------------------------------
# independent sets and stock hypergraphs
# ---------------------------------------------------------------------------


def greedy_maximal_independent_set(g: Graph, order: Sequence[int] | None = None) -> list[int]:
    """Maximal (not maximum) independent set, scanning vertices in `order`,
    a permutation of the vertex ids given as integers (a bool or a float,
    even 1.0, is not one)."""
    if order is None:
        order = range(g.n)
    else:  # only a caller's order needs checking
        order = list(order)
        if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in order):
            raise InvalidInputError("order must hold integer vertex ids, not bools or floats")
        if sorted(order) != list(range(g.n)):
            raise InvalidInputError("order must be a permutation of the vertices")
    ptr, idx = g.indptr.tolist(), g.indices.tolist()
    blocked = [False] * g.n  # a chosen vertex blocks its neighbours and is never blocked itself
    for v in order:
        if not blocked[v]:
            for u in idx[ptr[v] : ptr[v + 1]]:
                blocked[u] = True
    return [v for v in range(g.n) if not blocked[v]]


def all_intervals_hypergraph(n: int) -> Hypergraph:
    """Hypergraph on n collinear points whose edges are all contiguous index runs."""
    return Hypergraph(n, [range(i, j + 1) for i in range(n) for j in range(i, n)])


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------


def coloring_to_json(c: Coloring) -> str:
    doc: dict = {"colors": list(c.colors), "palette_size": c.palette_size}
    if c.palette_map is not None:
        doc["palette_map"] = {str(k): list(v) for k, v in sorted(c.palette_map.items())}
    return json.dumps(doc)


def coloring_from_json(text: str) -> Coloring:
    """The Coloring of a JSON document: every color, and each palette-map value
    a pair of them, a JSON integer (not a bool) in the 64-bit range."""
    try:
        data = json.loads(text)
        colors = data["colors"]
        pm = {int(k): tuple(v) for k, v in data["palette_map"].items()} if "palette_map" in data else None
    except (KeyError, TypeError, AttributeError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise InvalidInputError(f"malformed coloring JSON ({type(exc).__name__}: {exc})") from exc
    if not _int64s(colors) or not all(_int64s(v) and len(v) == 2 for v in (pm or {}).values()):
        raise InvalidInputError("coloring JSON colors and palette_map pairs must be integers in the 64-bit range")
    c = Coloring(tuple(colors), pm)
    if "palette_size" in data and data["palette_size"] != c.palette_size:
        raise InvalidInputError("palette_size field disagrees with the colors array")
    return c


def _int64s(values) -> bool:
    return isinstance(values, (list, tuple)) and all(type(x) is int and -(2**63) <= x < 2**63 for x in values)


def save_coloring(c: Coloring, path) -> None:
    with open(path, "w") as f:
        f.write(coloring_to_json(c))


def load_coloring(path) -> Coloring:
    with open(path) as f:
        return coloring_from_json(f.read())
