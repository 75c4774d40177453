"""Probe hypergraphs, the exactly-two auxiliary graph, the degeneracy peel, and
depth-one pruning, composed into pointed CF pipelines for discs and pseudo-discs.

A probe system is a family of vertex shapes and a family of probe shapes; each
probe contributes the hyperedge of vertices it intersects.  The auxiliary
graph joins two vertices whenever some probe intersects exactly that pair
among the active vertices; for valid inputs it is planar, so a vertex of
degree at most 5 always exists and a reverse-peel greedy coloring proper-colors
every probe hyperedge with at most 6 colors.

The peel removes the smallest vertex of degree at most 5 at each step.  Its
ascending prefix, while it removes the active vertices in increasing order, is
computed in arrays: with every smaller vertex gone, a vertex's neighbours are
the larger members of the hit sets whose two largest active members include
it.  The prefix ends at the first vertex of degree above 5; from there a
witness-counted removal loop peels the vertices left.

The peels are not checked round by round: each entry point certifies its
final coloring once, so a wrong peel ends in `VerificationError` there.
"""
from __future__ import annotations

import copy
import heapq
import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import CFGeomError, IncompatibleShapesError, InvalidInputError, PlanarityError
from .framework import _largest_class_rounds, cf_palette_bound
from .geom import (
    Scene,
    _GUARD,
    _clip_segments,
    _contact_hits,
    _scene_from_dict,
    _spans,
    _validate_pseudodiscs,
    scene_to_json,
    validate_pseudodisc_family,
)
from .hypergraph import (
    Coloring,
    Graph,
    Hypergraph,
    Trace,
    certify,
    greedy_maximal_independent_set,
    intersection_graph,
)

__all__ = [
    "ProbeSystem",
    "PeelOrder",
    "probe_hypergraph",
    "peel_proper_colorer",
    "prune_depth_one",
    "cf_color_vs_probes",
    "pointed_cf_pseudodiscs",
    "probe_system_to_json",
    "probe_system_from_json",
]

DISC_MODE = "disc"
PSEUDODISC_MODE = "pseudodisc"
PEEL_COLORS = 6


@dataclass(frozen=True)
class ProbeSystem:
    vertices: Scene
    probes: Scene
    mode: str = DISC_MODE

    def __post_init__(self):
        if self.mode not in (DISC_MODE, PSEUDODISC_MODE):
            raise InvalidInputError(f"mode must be {DISC_MODE!r} or {PSEUDODISC_MODE!r}")

    def validate(self) -> None:
        """Raise the error that makes the system unusable, if any.  The check
        runs once per system; later calls raise a copy of the same error."""
        if self._invalid is not None:
            raise copy.copy(self._invalid)

    @cached_property
    def _invalid(self) -> CFGeomError | None:
        """The error `validate` raises, or None; cached, as `combined` is."""
        try:
            self._check()
        except CFGeomError as exc:
            return exc.with_traceback(None)
        return None

    def _check(self) -> None:
        if self.mode == DISC_MODE:
            for scene in (self.vertices, self.probes):
                if len(scene) and scene.kind != "discs":
                    raise IncompatibleShapesError("disc mode requires disc vertices and disc probes")
        else:
            combined = self.combined
            if len(combined) and combined.kind not in ("discs", "fat"):
                raise IncompatibleShapesError("pseudo-disc mode requires a homogeneous disc or polygon family")
            if not validate_pseudodisc_family(combined):
                raise InvalidInputError("vertices and probes do not form a pseudo-disc family")

    @cached_property
    def combined(self) -> Scene:
        """Vertices then probes as one scene, built once per system so its arrays are too; two
        disc scenes are joined by their rows, with no shape objects."""
        if self.vertices.kind == self.probes.kind == "discs":
            return Scene.from_rows("discs", np.concatenate((self.vertices.rows, self.probes.rows)))
        return Scene(self.vertices.shapes + self.probes.shapes)


@dataclass
class PeelOrder:
    """Removal order with the auxiliary-graph degree and size at each step."""

    order: list[int] = field(default_factory=list)
    degrees: list[int] = field(default_factory=list)
    aux_sizes: list[tuple[int, int]] = field(default_factory=list)

    def euler_violations(self) -> list[int]:
        """Steps whose auxiliary graph breaks |E| <= 3|V| - 6 (|V| >= 3)."""
        return [
            i
            for i, (nv, ne) in enumerate(self.aux_sizes)
            if nv >= 3 and ne > 3 * nv - 6
        ]


# ---------------------------------------------------------------------------
# hit computation
# ---------------------------------------------------------------------------


def _pairwise_hits(vertices: Scene, probes: Scene) -> Hypergraph:
    """Probe hypergraph of the system: edge j holds the vertices probe j
    intersects; the sweep's hits are distinct, so they need no validation."""
    return Hypergraph._of_pairs(len(vertices), len(probes), *_contact_hits(probes, vertices))


def probe_hypergraph(ps: ProbeSystem) -> Hypergraph:
    """One hyperedge per probe, edge j for probe j: the vertices intersecting
    it.  Empty edges are kept and ignored by the verifiers."""
    ps.validate()
    return _pairwise_hits(ps.vertices, ps.probes)


def _graph_probe_hypergraph(g: Graph, vertices: list[int], probes: list[int]) -> Hypergraph:
    """Probe hypergraph of two disjoint subfamilies of the scene `g` was built
    from, in the subfamilies' local indices: the probes' rows of `g`, masked to
    the vertices' columns, distinct as the graph's arcs are."""
    return Hypergraph._of_pairs(len(vertices), len(probes), *g._arcs_between(probes, vertices))


# ---------------------------------------------------------------------------
# the peel engine
# ---------------------------------------------------------------------------


class _ProbeEngine:
    """Exactly-two bookkeeping shared by repeated peels.

    Built from the CSR rows (indptr, indices) of a probe hypergraph on n
    vertices.  Hit sets are deduplicated and sorted once and kept as flat
    member arrays, hit set by hit set.  `_live` narrows member arrays to the
    members of an active set, in the hit sets that keep two or more of them:
    a peel reads no other.  A peel reads its ascending prefix off the live
    arrays and runs the witness-counted removal loop only on the rest (`_peel`).

    `color_rounds` gives one largest-class iteration its round function,
    which keeps the last round's live arrays and their vertices in its
    closure: a round whose vertices the last round held narrows that round's
    arrays, any other round starts from the full arrays.  Each round peels
    its live arrays; no round checks its peel, the entry point certifies the
    final coloring once.  With `k` and `_rounds` the engine is a proper
    colorer for the framework's iterations; it keeps no state between rounds.
    """

    k = PEEL_COLORS

    def __init__(self, n: int, indptr: np.ndarray, indices: np.ndarray):
        self.n = n
        ptr = (indptr * 8).tolist()
        data = indices.astype(">i8").tobytes()  # big-endian, so byte order is tuple order
        rows = sorted({data[a:b] for a, b in zip(ptr, ptr[1:]) if b > a})
        self.m = len(rows)  # distinct nonempty hit sets
        self._flat_v = np.frombuffer(b"".join(rows), dtype=">i8").astype(np.int64)
        self._flat_p = np.repeat(np.arange(self.m), [len(r) >> 3 for r in rows])

    @staticmethod
    def _live(mask: np.ndarray, v: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(v, p, ptr): of the members v[i] of hit sets p[i], hit set by hit
        set, those `mask` holds, in the hit sets holding two or more of them;
        the members of the t-th hit set kept are v[ptr[t]:ptr[t + 1]]."""
        on = mask[v]
        v, p = v[on], p[on]
        cut = np.empty(len(p) + 1, dtype=bool)  # cut[i]: a hit set starts at member i, or i is the end
        cut[0] = cut[-1] = True
        np.not_equal(p[1:], p[:-1], out=cut[1:-1])
        ptr = np.flatnonzero(cut)
        size = np.diff(ptr)
        many = size >= 2
        if not many.all():
            keep = np.repeat(many, size)
            v, p, size = v[keep], p[keep], size[many]
            ptr = np.concatenate(([0], size.cumsum()))
        return v, p, ptr

    def _peel(self, ids: np.ndarray, v: np.ndarray, p: np.ndarray, ptr: np.ndarray) -> tuple[dict[int, int], PeelOrder]:
        """Smallest-last peel of the active vertices `ids` (increasing), given
        their live members (v, p, ptr) as `_live` returns them, then the
        reverse greedy coloring.

        Each step removes the smallest active vertex of auxiliary degree at
        most 5 and records its degree and the auxiliary graph's size.

        While every smaller vertex is already removed, the auxiliary
        neighbours of vertex v are exactly the b of the hit sets whose two
        largest active members are (v, b); such a pair is an edge from just
        after the smallest third-largest member among its hit sets (from the
        start when one has no third) up to the removal of its smaller end.
        So the ascending prefix, the active vertices in increasing order up
        to the first of degree above 5, is read off the member arrays with
        its degrees, sizes and colors.  From that vertex on the state is
        that of a fresh peel of the vertices left, which `_peel_loop` runs.
        """
        n = self.n
        # per live hit set: the last two members (a, b), and the third-last (-1 if none)
        top = ptr[1:] - 1
        third = v[top - 2]
        third[ptr[:-1] == top - 1] = -1
        a = v[top - 1]
        key = a * n + v[top]
        # the distinct pairs, increasing, each with its smallest third-last member
        by_pair = np.lexsort((third, key))
        key, third = key[by_pair], third[by_pair]
        first = np.empty(len(key), dtype=bool)
        first[:1] = True
        np.not_equal(key[1:], key[:-1], out=first[1:])
        key, a = key[first], a[by_pair][first]
        degree = np.bincount(a, minlength=n)[ids]
        over = (degree > 5).nonzero()[0]
        k = int(over[0]) if len(over) else len(ids)
        # at step i an edge has started when i is past its third-last member, and not ended when
        # i is at or before its smaller end: the pairs of the earlier steps' vertices have ended
        start = np.bincount(ids.searchsorted(third[first], side="right"), minlength=len(ids) + 1)[:-1]
        edges = (start - degree).cumsum() + degree
        prefix, degrees = ids[:k].tolist(), degree[:k].tolist()
        colors, tail = _peel_loop(ids[k:], v, p) if k < len(ids) else ({}, PeelOrder())
        nbs, hi = (key - a * n).tolist(), sum(degrees)  # the pairs of the prefix come first, by smaller end
        color_of = colors.__getitem__
        for u, d in zip(reversed(prefix), reversed(degrees)):
            if d:
                used = set(map(color_of, nbs[hi - d : hi]))
                hi -= d
                c = 1
                while c in used:
                    c += 1
                colors[u] = c
            else:
                colors[u] = 1
        sizes = list(zip(range(len(ids), len(ids) - k, -1), edges[:k].tolist()))
        return colors, PeelOrder(prefix + tail.order, degrees + tail.degrees, sizes + tail.aux_sizes)

    def _rounds(self, h: Hypergraph) -> Callable[[list[int]], list[int]]:
        """`color_rounds`' round function on `h`, a hypergraph on this
        engine's vertices, with each peel dropped."""
        if h.n != self.n:
            raise InvalidInputError(f"the peel engine colors {self.n} vertices, the hypergraph has {h.n}")
        return self.color_rounds([])

    def color_rounds(self, peels: list[PeelOrder]) -> Callable[[list[int]], list[int]]:
        """The round function of one largest-class iteration, each round's
        peel appended to `peels`.

        Its round `color_round(alive)` returns the peel colors of the vertex
        list `alive`, in its order.  The peel reads the live members of
        `alive`, narrowed from the last round's when the vertex mask shows
        `alive` within that round's vertices (always so in
        `_largest_class_rounds`), else from the full arrays (as for the list
        iteration's holders, which need not nest).  That state lives in the
        closure; the engine keeps no peel and no round.
        """
        members, held = (self._flat_v, self._flat_p), np.ones(self.n, dtype=bool)

        def color_round(alive: list[int]) -> list[int]:
            nonlocal members, held
            mask = np.zeros(self.n, dtype=bool)
            mask[alive] = True
            if (mask > held).any():  # a vertex the last round did not hold
                members = self._flat_v, self._flat_p
            v, p, ptr = self._live(mask, *members)
            members, held = (v, p), mask
            cmap, order = self._peel(mask.nonzero()[0], v, p, ptr)
            peels.append(order)
            return [cmap.get(u, 0) for u in alive]

        return color_round


def _peel_loop(ids: np.ndarray, v: np.ndarray, p: np.ndarray) -> tuple[dict[int, int], PeelOrder]:
    """Smallest-last peel of the vertices `ids` (increasing), one removal at
    a time, then the reverse greedy coloring.

    `v` and `p` are the active members and their hit sets, hit set by hit
    set, where `ids` are the active vertices from ids[0] on.  The loop
    renumbers `ids` and the hit sets with two or more of them from 0, keeps
    per hit set the count of its members still present, and keeps the
    auxiliary graph as a witness-counted simple graph.
    """
    mine = v >= ids[0]
    v, p = v[mine], p[mine]
    size = np.bincount(p)  # members of ids per hit set
    many = size >= 2  # a hit set with one member never joins a pair
    keep = many[p]
    v, p, size = ids.searchsorted(v[keep]), (many.cumsum() - 1)[p[keep]], size[many]
    end = size.cumsum()
    by_vertex = v.argsort(kind="stable")
    ptr = v[by_vertex].searchsorted(np.arange(len(ids) + 1)).tolist()
    pids = p[by_vertex].tolist()
    hitters = [pids[a:b] for a, b in zip(ptr, ptr[1:])]  # hit set ids, increasing
    members, last = v.tolist(), (end - 1).tolist()  # hit set by hit set, and where each one ends
    counts = size.tolist()
    two = end[size == 2]
    first_pairs = zip((size == 2).nonzero()[0].tolist(), zip(v[two - 2].tolist(), v[two - 1].tolist()))
    left = len(ids)
    alive = bytearray(b"\x01") * left
    # the auxiliary graph: each pair with the number of hit sets whose two present members it is
    pair_of: list[tuple[int, int] | None] = [None] * len(counts)
    witness: dict[tuple[int, int], int] = {}
    adj: list[set[int]] = [set() for _ in range(left)]
    total_edges = 0
    for pid, pair in first_pairs:
        pair_of[pid] = pair
        w = witness.get(pair, 0)
        witness[pair] = w + 1
        if not w:
            a, b = pair
            adj[a].add(b)
            adj[b].add(a)
            total_edges += 1
    heap = [u for u in range(left) if len(adj[u]) <= 5]  # sorted, so already a heap
    heappop, heappush = heapq.heappop, heapq.heappush

    removed: list[int] = []
    degrees: list[int] = []
    aux_sizes: list[tuple[int, int]] = []
    while left:
        while heap:
            x = heappop(heap)
            if alive[x] and len(adj[x]) <= 5:
                break
        else:
            raise PlanarityError(
                "no vertex of auxiliary degree <= 5; the input family violates the planarity guarantee"
            )
        nbs = adj[x]  # kept as the neighbours at removal; only the survivors' sets change
        removed.append(x)
        degrees.append(len(nbs))
        aux_sizes.append((left, total_edges))
        alive[x] = 0
        left -= 1
        dissolved = 0
        for pid in hitters[x]:
            c = counts[pid]
            counts[pid] = c - 1
            if c == 2:  # x and one survivor: the hit set's pair leaves the graph
                pair = pair_of[pid]
                w = witness[pair] - 1
                if w:
                    witness[pair] = w
                else:
                    del witness[pair]
                    u = pair[0] if pair[1] == x else pair[1]
                    s = adj[u]
                    s.discard(x)
                    total_edges -= 1
                    dissolved += 1
                    if len(s) <= 5:
                        heappush(heap, u)
            elif c == 3:  # two survivors, found scanning down from the end of the sorted hit set
                i = last[pid]
                while not alive[members[i]]:
                    i -= 1
                b = members[i]
                i -= 1
                while not alive[members[i]]:
                    i -= 1
                u = members[i]
                pair = (u, b)
                pair_of[pid] = pair
                w = witness.get(pair, 0)
                witness[pair] = w + 1
                if not w:
                    adj[u].add(b)
                    adj[b].add(u)
                    total_edges += 1
        if dissolved != len(nbs):
            raise AssertionError("auxiliary edges of a removed vertex did not dissolve")

    out = ids.tolist()
    colors: dict[int, int] = {}
    for x in reversed(removed):
        used = {colors[out[u]] for u in adj[x]}
        c = 1
        while c in used:
            c += 1
        colors[out[x]] = c
    return colors, PeelOrder([out[x] for x in removed], degrees, aux_sizes)


def peel_proper_colorer(vertices: Scene, probes: Scene) -> _ProbeEngine:
    """Hereditary 6-color proper colorer for the probe hypergraph of the given
    system: its peel engine, whose rounds in `proper_to_cf` and `proper_to_cf_list`
    peel the surviving vertex ids, with no sub-hypergraph and no per-round check."""
    h = _pairwise_hits(vertices, probes)
    return _ProbeEngine(h.n, h.indptr, h.indices)


# ---------------------------------------------------------------------------
# depth-one pruning
# ---------------------------------------------------------------------------


def prune_depth_one(shapes: Scene) -> tuple[list[int], list[int]]:
    """Split a family of discs or of convex polygons into (kept, removed) so
    every kept shape owns a point of depth 1 among the survivors.

    Shapes are scanned in index order; shape i is dropped when no point of it
    escapes the surviving shapes that meet it.  The test is exact: such a point
    exists exactly when a piece of the boundary of i, or a piece of a surviving
    neighbour j's boundary lying inside i, is covered by none of the other
    survivors (the points just outside j next to such a piece lie only in i).
    A polygon is settled without that test when a vertex of it lies outside
    every polygon it meets (kept), or all its vertices lie inside one polygon
    of higher index it meets (removed), each by more than the guard
    `geom._GUARD` allows for rounding and for the validation's slack.
    It assumes boundaries that meet in isolated points, as the pseudo-disc
    check of the pipelines requires, apart from identical copies: of those
    only the last one scanned can survive.
    """
    return _prune_depth_one(shapes, intersection_graph(shapes))


def _prune_depth_one(shapes: Scene, contacts: Graph) -> tuple[list[int], list[int]]:
    """prune_depth_one given the contact graph of `shapes`.

    Polygons first go through `_vertex_filter`, which settles most of them
    with no clip.  Its verdicts are those of the scan: a vertex more than the
    guard outside every neighbour is a point of i that no survivor covers, and
    a neighbour of higher index is a survivor when i is scanned.

    The shapes left are decided in dependency waves: a shape's wave is one
    more than the largest wave among its unsettled lower-index neighbours.
    When its wave comes up, a shape's lower-index neighbours are all decided
    and its higher-index ones count as alive, as in a one-at-a-time scan
    (even one the filter removed), and no two shapes of one wave meet; so one
    batched test, `_shapes_escape`, decides the whole wave.  Discs and
    polygons share it; the kind only picks the piece builder, each circle
    over its angle (`_circle_pieces`) or each real edge over [0, 1]
    (`_edge_pieces`).
    """
    n = len(shapes)
    if n == 0:
        return [], []
    pieces = {"discs": _circle_pieces, "fat": _edge_pieces}.get(shapes.kind)
    if pieces is None:
        raise IncompatibleShapesError("pruning supports a family of discs or a family of convex polygons")
    rows = shapes.rows
    indptr, indices = contacts.indptr, contacts.indices
    alive, todo = np.ones(n, dtype=bool), np.ones(n, dtype=bool)
    if shapes.kind == "fat":
        kept, removed = _vertex_filter(rows, indptr, indices)
        alive, todo = ~removed, ~(kept | removed)
    flat = rows.reshape(n, -1)
    for wave in _waves(indptr, indices, todo):
        block, near = _spans(indptr[wave], indptr[wave + 1])
        near = indices[near]
        survives = alive[near] | (near > wave[block])
        block, near = block[survives], near[survives]
        # a surviving copy of a shape covers it; the test below would let each copy keep the other
        test = np.ones(len(wave), dtype=bool)
        test[block[(flat[near] == flat[wave[block]]).all(axis=1)]] = False
        tested = test[block]
        ptr = np.concatenate(([0], np.cumsum(np.bincount(block[tested], minlength=len(wave))[test])))
        alive[wave] = False
        alive[wave[test]] = _shapes_escape(rows, wave[test], ptr, near[tested], pieces)
    return np.flatnonzero(alive).tolist(), np.flatnonzero(~alive).tolist()


def _vertex_filter(polys: np.ndarray, indptr: np.ndarray, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(kept, removed) per padded polygon of a CSR contact graph: kept when a
    vertex of it lies outside every polygon it meets, removed when all its
    vertices lie inside one polygon of higher index it meets.  Each side is
    taken more than the guard _GUARD * max(1, |coordinates| of the pair) from
    the edge lines of the other polygon.  Pairs go in blocks of about
    `_CLIP_CELLS` (vertex, polygon) cells."""
    n, m = polys.shape[:2]
    owner = np.repeat(np.arange(n), np.diff(indptr))  # pair k is (owner[k], indices[k])
    edges = np.roll(polys, -1, axis=1) - polys
    length = np.abs(edges).sum(axis=2)  # at least the edge's length; 0 for padding
    scale = np.maximum(np.abs(polys).max(axis=(1, 2)), 1.0)
    outside = np.zeros(n * m, dtype=np.intp)  # per (polygon, vertex): the neighbours it lies outside of
    removed = np.zeros(n, dtype=bool)
    step = max(1, _CLIP_CELLS // m)
    for s in range(0, len(indices), step):
        i, j = owner[s : s + step], indices[s : s + step]
        v, a, e = polys[i][:, :, None], polys[j][:, None], edges[j][:, None]
        # (pairs, vertex of i, edge of j), positive on the inner side of the edge, as in _clip_segments
        cross = e[..., 0] * (v[..., 1] - a[..., 1]) - e[..., 1] * (v[..., 0] - a[..., 0])
        margin = (_GUARD * np.maximum(scale[i], scale[j]))[:, None, None] * length[j][:, None]
        out = (cross < -margin).any(axis=2)
        outside += np.bincount((i[:, None] * m + np.arange(m))[out], minlength=n * m)
        inside = (cross >= margin).all(axis=(1, 2))  # padding edges have margin 0 and cross 0
        removed[i[inside & (j > i)]] = True
    kept = (outside.reshape(n, m) == np.diff(indptr)[:, None]).any(axis=1)
    return kept, removed


def _waves(indptr: np.ndarray, indices: np.ndarray, todo: np.ndarray) -> list[np.ndarray]:
    """The vertices with `todo` of a CSR graph (sorted neighbours) grouped by
    wave, each group increasing: a vertex's wave is one more than the largest
    wave among its lower-index neighbours with `todo`, 0 if it has none."""
    ptr, idx = indptr.tolist(), indices.tolist()
    wave: list[int] = []
    for i, (a, b, t) in enumerate(zip(ptr, ptr[1:], todo.tolist())):
        w = -1  # in no wave, and no wave waits for it
        if t:
            w = 0
            for j in idx[a:b]:
                if j > i:
                    break
                w = max(w, wave[j] + 1)
        wave.append(w)
    waves = np.array(wave, dtype=np.intp)
    ids = np.flatnonzero(waves >= 0)
    return np.split(ids[np.argsort(waves[ids], kind="stable")], np.cumsum(np.bincount(waves[ids]))[:-1])


_CLIP_CELLS = 1 << 14  # (piece, shape) cells per batched escape test of pruning, about


def _shapes_escape(shapes: np.ndarray, centres: np.ndarray, ptr: np.ndarray, near: np.ndarray, pieces) -> np.ndarray:
    """Per shape c = centres[b] of the rows `shapes`, whether it has a point in
    none of the shapes near[ptr[b]:ptr[b + 1]]; `pieces` is `_circle_pieces`
    for discs and `_edge_pieces` for polygons.  Consecutive centres are
    batched into blocks of about `_CLIP_CELLS` (piece, shape) cells."""
    size = ptr[1:] - ptr[:-1] + 1
    cells = size * size * (shapes.shape[1] if shapes.ndim == 3 else 1)  # m edges per polygon, one circle per disc
    cut = np.flatnonzero(np.diff((np.cumsum(cells) - cells) // _CLIP_CELLS, prepend=-1)).tolist()
    out = np.empty(len(centres), dtype=bool)
    for a, b in zip(cut, cut[1:] + [len(centres)]):
        out[a:b] = _blocks_escape(shapes, centres[a:b], ptr[a : b + 1] - ptr[a], near[ptr[a] : ptr[b]], pieces)
    return out


def _blocks_escape(shapes: np.ndarray, centres: np.ndarray, ptr: np.ndarray, near: np.ndarray, pieces) -> np.ndarray:
    """`_shapes_escape` in one batch.  Block b lists near[ptr[b]:ptr[b + 1]]
    and then its centre.  `pieces` cuts the block's boundaries into pieces,
    each with its parameter ranges outside the centre, which count as covered,
    and drops the pieces with no part inside the centre.  Every other
    non-centre shape of the block adds the ranges it covers of a piece, and a
    piece's ranges fill one row of `_uncovered`: the centre escapes when a
    piece of its block keeps an uncovered part."""
    size = ptr[1:] - ptr[:-1] + 1
    start = ptr[:-1] + np.arange(len(centres))  # slot of block b's first shape
    last = start + size - 1  # slot of its centre
    ids = np.empty(len(near) + len(centres), dtype=np.intp)
    is_near = np.ones(len(ids), dtype=bool)
    is_near[last] = False
    ids[last], ids[is_near] = centres, near
    blk = np.repeat(np.arange(len(centres)), size)
    owner, (o0, o1), cover, end = pieces(shapes[ids], last[blk])
    blk = blk[owner]
    # the centre covers no piece, and no shape its own
    seg, slot = _spans(start[blk], last[blk])
    other = slot != owner[seg]
    seg, slot = seg[other], slot[other]
    t0, t1 = cover(seg, slot)  # (ranges per cover) columns per (piece, shape)
    count = np.bincount(seg, minlength=len(owner))
    k = t0.shape[1]
    col = (np.arange(len(seg)) - np.repeat(np.cumsum(count) - count, count))[:, None] * k + np.arange(k)
    own = (count * k)[:, None] + np.arange(o0.shape[1])
    r0 = np.full((len(owner), k * count.max(initial=0) + o0.shape[1]), np.inf)  # unused cells hold empty ranges
    r1 = np.zeros(r0.shape)
    r0[seg[:, None], col], r1[seg[:, None], col] = t0, t1
    np.put_along_axis(r0, own, o0, axis=1)
    np.put_along_axis(r1, own, o1, axis=1)
    out = np.zeros(len(centres), dtype=bool)
    out[blk[_uncovered(r0, r1, end)]] = True
    return out


def _edge_pieces(polys: np.ndarray, centre: np.ndarray):
    """The pieces of `_blocks_escape` for padded polygons, slot s's centre in
    slot centre[s]: each real edge, its parameter over [0, 1], and the ranges
    a polygon covers of it clipped by `_clip_segments`."""
    p1 = np.concatenate((polys[:, 1:], polys[:, :1]), axis=1)
    owner, edge = np.nonzero((polys != p1).any(axis=2))  # padding edges have length zero
    a, b = polys[owner, edge], p1[owner, edge]
    # the boundary of a centre counts whole, a neighbour's only inside the centre:
    # its parts outside are covered, so an edge that misses the centre (lo > hi) is covered whole
    lo, hi = _clip_segments(a, b, polys[centre[owner]])
    mine = owner == centre[owner]
    lo[mine], hi[mine] = 0.0, 1.0
    keep = ~(lo > hi)
    owner, a, b, lo, hi = owner[keep], a[keep], b[keep], lo[keep], hi[keep]

    def cover(seg: np.ndarray, slot: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        t0, t1 = _clip_segments(a[seg], b[seg], polys[slot])
        return t0[:, None], t1[:, None]

    outside = (np.column_stack((np.zeros(len(lo)), hi)), np.column_stack((lo, np.ones(len(hi)))))
    return owner, outside, cover, 1.0


def _circle_pieces(circles: np.ndarray, centre: np.ndarray):
    """The pieces of `_blocks_escape` for discs (x, y, r), slot s's centre in
    slot centre[s]: each circle, its parameter the angle over [0, 2pi], and
    the arc a disc covers of it, as `_arcs_inside` finds it, in the ranges of
    `_wrapped`."""
    theta, alpha, miss = _arcs_inside(circles, circles[centre])
    mine = np.arange(len(circles)) == centre
    owner = np.flatnonzero(mine | ~miss)
    theta, alpha = theta[owner], alpha[owner]
    # a neighbour's circle counts only on its arc inside the centre; the arc outside is covered
    o0, o1 = _wrapped(theta + alpha, theta + 2 * np.pi - alpha)
    o0[mine[owner] | (alpha >= np.pi)] = np.inf

    def cover(seg: np.ndarray, slot: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        theta, alpha, miss = _arcs_inside(circles[owner[seg]], circles[slot])
        t0, t1 = _wrapped(theta - alpha, theta + alpha)
        t0[miss] = np.inf
        return t0, t1

    return owner, (o0, o1), cover, 2 * np.pi


def _arcs_inside(c: np.ndarray, o: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(centre angle, half-width, miss) of the arc of each circle c = (x, y, r)
    inside the disc o alongside it: half-width pi where c lies in o, and miss
    where no arc of positive length does (then the half-width is 0)."""
    (x, y, r), (ox, oy, ro) = c.T, o.T
    dx, dy = ox - x, oy - y
    d = np.hypot(dx, dy)
    inside = d + r <= ro
    miss = ~inside & ((d >= r + ro) | (d + ro <= r))
    with np.errstate(divide="ignore", invalid="ignore"):  # d or r is 0 only where c lies in o or misses it
        alpha = np.arccos(np.clip((d * d + r * r - ro * ro) / (2 * d * r), -1.0, 1.0))
    return np.arctan2(dy, dx), np.where(inside, np.pi, np.where(miss, 0.0, alpha)), miss


def _wrapped(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each arc (a, b) of a circle, as two ranges (t0, t1) of [0, 2pi] in two
    columns: its start reduced mod 2pi with the width b - a (0 if negative)
    taken before, and the second range empty unless the arc runs past 2pi.
    An arc of width 2pi leaves at most a rounding error uncovered, far below
    the 1e-12 of `_uncovered`."""
    two_pi = 2 * np.pi
    width = np.maximum(b - a, 0.0)
    a = a % two_pi
    stop = a + width
    t0 = np.column_stack((a, np.where(stop > two_pi, 0.0, np.inf)))
    t1 = np.column_stack((np.minimum(stop, two_pi), stop - two_pi))
    return t0, t1


def _uncovered(t0: np.ndarray, t1: np.ndarray, end: float) -> np.ndarray:
    """Per row: whether [0, end] holds a piece longer than 1e-12 inside none
    of the row's ranges [t0, t1] (a range with t0 > t1 is empty)."""
    empty = t0 > t1
    a = np.clip(np.where(empty, end, t0), 0.0, end)
    b = np.clip(np.where(empty, end, t1), 0.0, end)
    order = np.argsort(a, axis=1)
    a, b = np.take_along_axis(a, order, axis=1), np.take_along_axis(b, order, axis=1)
    reach = np.maximum.accumulate(np.column_stack((np.zeros(len(a)), b)), axis=1)  # covered from 0 up to here
    return (np.column_stack((a, np.full(len(a), end))) - reach > 1e-12).any(axis=1)


# ---------------------------------------------------------------------------
# CF coloring against probes, and the full pipeline
# ---------------------------------------------------------------------------


def cf_color_vs_probes(ps: ProbeSystem) -> Coloring:
    """CF coloring of the probe hypergraph.

    Runs the largest-class iteration with the degeneracy peel as the
    hereditary proper colorer, on the peel engine over the original vertex
    ids; the trace's `rounds` stage holds one peel per round.  No round is
    checked on its own: the final coloring is certified once, against the
    probe hypergraph and the palette bound.  In pseudo-disc mode with
    overlapping vertices the family is first pruned to depth-one owners
    (which requires the probes to be pairwise disjoint); the `pruned`
    vertices receive one extra reserved color.
    """
    ps.validate()
    contacts = intersection_graph(ps.vertices) if ps.mode == PSEUDODISC_MODE else None
    prune = (ps.vertices, contacts) if contacts is not None and contacts.indices.size else None
    if prune and len(_contact_hits(ps.probes)[0]):  # a yes/no, read off the sweep's pairs with no graph built
        raise InvalidInputError("pseudo-disc probes must be pairwise disjoint when the vertices overlap each other")
    h = _pairwise_hits(ps.vertices, ps.probes)
    out = _cf_vs_hits(len(ps.vertices), h, prune)
    return certify(h, out, bound=out.trace.palette_bound, what="probe coloring")


def _cf_vs_hits(n: int, h: Hypergraph, prune: tuple[Scene, Graph] | None) -> Coloring:
    """cf_color_vs_probes of n vertices given the probe hypergraph `h`,
    without certification.

    `prune` is (vertices, contact graph) when the vertices are pseudo-discs
    of which two meet, to prune first, and None otherwise.
    """
    kept, pruned = _prune_depth_one(*prune) if prune else (list(range(n)), [])
    engine = _ProbeEngine(n, h.indptr, h.indices)
    peels: list[PeelOrder] = []
    final = _largest_class_rounds(kept, engine.color_rounds(peels))
    colors = np.zeros(n, dtype=np.int64)
    colors[kept] = [final[v] for v in kept]
    colors[pruned] = colors.max(initial=0) + 1  # one reserved color for the pruned vertices
    bound = cf_palette_bound(n, PEEL_COLORS) + (1 if prune else 0)
    return Coloring(colors, trace=Trace(bound, {"pruned": pruned}, {"rounds": peels}))


def pointed_cf_pseudodiscs(scene: Scene) -> Coloring:
    """Pointed CF coloring of a pseudo-disc intersection graph.

    A greedy maximal independent set B is colored conflict-free against the
    rest as probes, the rest is colored conflict-free against B as probes (with
    pruning in pseudo-disc mode), and the two palettes are kept disjoint.  Each
    vertex with a neighbor then finds a uniquely colored one in the opposite
    side's palette.  The validation reads its polygon pairs, both halves their
    probe hits and the pruning its contacts off one intersection graph of the
    scene.  The trace names the `independent_set`, the `rest` and the
    `pruned` vertices, with the peels of stages `b` and `rest`.
    """
    n = len(scene)
    if n == 0:
        return Coloring((), trace=Trace(0, {"independent_set": [], "rest": [], "pruned": []}, {"b": [], "rest": []}))
    if scene.kind == "discs":
        mode = DISC_MODE
    elif scene.kind == "fat":
        mode = PSEUDODISC_MODE
    else:
        raise IncompatibleShapesError("the pipeline accepts disc or convex-polygon scenes")
    g = intersection_graph(scene)
    # boundaries cross or touch only where the shapes meet
    if not _validate_pseudodiscs(scene, g.arcs() if mode == PSEUDODISC_MODE else None):
        raise InvalidInputError("scene is not a pseudo-disc family")
    b = greedy_maximal_independent_set(g)
    in_b = np.zeros(n, dtype=bool)
    in_b[b] = True
    rest = np.flatnonzero(~in_b).tolist()
    col_b = _cf_vs_hits(len(b), _graph_probe_hypergraph(g, b, rest), None)
    colors = np.zeros(n, dtype=np.int64)
    colors[b] = col_b._array
    # B is independent, so the probes of this half are pairwise disjoint; polygons of the rest that meet are pruned
    contacts = g.subgraph(rest) if mode == PSEUDODISC_MODE else None
    prune = (scene.subscene(rest), contacts) if contacts is not None and contacts.indices.size else None
    col_rest = _cf_vs_hits(len(rest), _graph_probe_hypergraph(g, rest, b), prune)
    colors[rest] = col_b._array.max() + col_rest._array
    bound = cf_palette_bound(len(b), PEEL_COLORS) + cf_palette_bound(len(rest), PEEL_COLORS) + 1
    pruned = [rest[i] for i in col_rest.trace.vertices["pruned"]]
    trace = Trace(
        bound,
        {"independent_set": b, "rest": rest, "pruned": pruned},
        {"b": col_b.trace.peels["rounds"], "rest": col_rest.trace.peels["rounds"]},
    )
    return certify(g, Coloring(colors, trace=trace), "pointed", bound=bound, what="pipeline output")


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------


def probe_system_to_json(ps: ProbeSystem) -> str:
    # each scene's own JSON text, embedded as it is: with json.dumps's default separators this is
    # the text of dumping the whole document, and no scene is encoded twice
    vertices, probes = scene_to_json(ps.vertices), scene_to_json(ps.probes)
    return f'{{"vertices": {vertices}, "probes": {probes}, "mode": {json.dumps(ps.mode)}}}'


def probe_system_from_json(text: str) -> ProbeSystem:
    try:
        data = json.loads(text)
        vertices, probes, mode = data["vertices"], data["probes"], data.get("mode", DISC_MODE)
    except (KeyError, IndexError, TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise InvalidInputError(f"malformed probe-system JSON ({type(exc).__name__}: {exc})") from exc
    return ProbeSystem(_scene_from_dict(vertices), _scene_from_dict(probes), mode)
