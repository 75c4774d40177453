"""Reference implementation of the degeneracy peel, and views of the peel
engine's member arrays.

`hits`, `hitters` and `peel` read a `_ProbeEngine`'s flat member arrays
(`_flat_v`, `_flat_p`): the distinct hit sets as tuples, the hit sets holding
each vertex, and the engine's `_peel` of any active subset on its live members.

`reference_peel` is the earlier peel, with its witness-counted auxiliary
graph kept through `add_pair`/`drop_pair` closures, a set of active vertices,
and a forward scan of a probe's hit tuple for its two survivors.  The tests
require `peel` to reproduce its colors, orders, degrees and auxiliary sizes
exactly, and to raise `PlanarityError` exactly where it does.

`reference_round_peel` is the same peel in the place of `_ProbeEngine._peel`,
the entry point of the iterations' rounds.

`reference_colorer` is the peel as a colorer that a caller supplies, which the
iterations run through `induced` and `verify_proper`; the tests require the
engine that `peel_proper_colorer` returns to give the same colorings.

`auxiliary_graph` is the exactly-two graph rebuilt from scratch for one active
set, from the system's contact pairs; the tests replay each peel step against
it and check that it is planar.
"""
from __future__ import annotations

import heapq
from typing import Sequence

import numpy as np

from cfgeom import Coloring, Graph, Hypergraph, PlanarityError, ProbeSystem, ProperColorer
from cfgeom.geom import contact_pairs
from cfgeom.probes import PEEL_COLORS, PeelOrder, _ProbeEngine


def hits(engine: _ProbeEngine) -> list[tuple[int, ...]]:
    """The engine's distinct nonempty hit sets, sorted, each sorted."""
    ptr = np.searchsorted(engine._flat_p, np.arange(engine.m + 1)).tolist()
    members = engine._flat_v.tolist()
    return [tuple(members[a:b]) for a, b in zip(ptr, ptr[1:])]


def hitters(engine: _ProbeEngine) -> list[list[int]]:
    """Per vertex, the ids of the engine's hit sets holding it, increasing."""
    by_vertex = np.argsort(engine._flat_v, kind="stable")
    ptr = np.searchsorted(engine._flat_v[by_vertex], np.arange(engine.n + 1)).tolist()
    pids = engine._flat_p[by_vertex].tolist()
    return [pids[a:b] for a, b in zip(ptr, ptr[1:])]


def peel(engine: _ProbeEngine, active: Sequence[int]) -> tuple[dict[int, int], PeelOrder]:
    """The engine's smallest-last peel of the active vertices, then the
    reverse greedy coloring: `_peel` on the live members of `active`."""
    mask = np.zeros(engine.n, dtype=bool)
    mask[list(active)] = True
    return engine._peel(mask.nonzero()[0], *engine._live(mask, engine._flat_v, engine._flat_p))


def reference_peel(self, active: Sequence[int]) -> tuple[dict[int, int], PeelOrder]:
    """The peel of the active vertices on the engine `self`; written as the
    method it was, so a test can set it on `_ProbeEngine`."""
    active_list = sorted(set(active))
    mask = np.zeros(self.n, dtype=bool)
    mask[active_list] = True
    on = mask[self._flat_v]
    sets = hits(self)
    counts = np.bincount(self._flat_p[on], minlength=len(sets))
    two = on & (counts[self._flat_p] == 2)  # the active members of probes hitting exactly two
    first_pairs = zip(self._flat_p[two][::2].tolist(), self._flat_v[two].reshape(-1, 2).tolist())
    counts = counts.tolist()
    active_set = set(active_list)
    pair_of: list[tuple[int, int] | None] = [None] * len(sets)
    witness: dict[tuple[int, int], int] = {}
    adj: dict[int, set[int]] = {v: set() for v in active_list}
    total_edges = 0

    def add_pair(pair: tuple[int, int]) -> None:
        nonlocal total_edges
        w = witness.get(pair, 0)
        witness[pair] = w + 1
        if w == 0:
            a, b = pair
            adj[a].add(b)
            adj[b].add(a)
            total_edges += 1

    def drop_pair(pair: tuple[int, int]) -> None:
        nonlocal total_edges
        w = witness[pair] - 1
        if w:
            witness[pair] = w
        else:
            del witness[pair]
            a, b = pair
            adj[a].discard(b)
            adj[b].discard(a)
            total_edges -= 1
            for u in pair:
                if u in active_set and len(adj[u]) <= 5:
                    heapq.heappush(heap, u)

    for pid, (a, b) in first_pairs:
        pair_of[pid] = (a, b)
        add_pair((a, b))
    heap = [v for v in active_list if len(adj[v]) <= 5]  # sorted, so already a heap

    holders = hitters(self)
    order = PeelOrder()
    removal_neighbors: list[list[int]] = []
    while active_set:
        v = None
        while heap:
            cand = heapq.heappop(heap)
            if cand in active_set and len(adj[cand]) <= 5:
                v = cand
                break
        if v is None:
            raise PlanarityError(
                "no vertex of auxiliary degree <= 5; the input family violates the planarity guarantee"
            )
        order.order.append(v)
        order.degrees.append(len(adj[v]))
        order.aux_sizes.append((len(active_set), total_edges))
        removal_neighbors.append(sorted(adj[v]))
        active_set.discard(v)
        for pid in holders[v]:
            c = counts[pid]
            if c == 0:
                continue
            if c == 2:
                drop_pair(pair_of[pid])
                pair_of[pid] = None
            elif c == 3:
                survivors = [u for u in sets[pid] if u in active_set]
                pair = (survivors[0], survivors[1])
                pair_of[pid] = pair
                add_pair(pair)
            counts[pid] = c - 1
        if adj[v]:
            raise AssertionError("auxiliary edges of a removed vertex did not dissolve")
        del adj[v]

    colors: dict[int, int] = {}
    for v, nbs in zip(reversed(order.order), reversed(removal_neighbors)):
        used = {colors[u] for u in nbs}
        colors[v] = next(c for c in range(1, PEEL_COLORS + 1) if c not in used)
    return colors, order


def reference_round_peel(self, ids: np.ndarray, v: np.ndarray, p: np.ndarray, ptr: np.ndarray):
    """`reference_peel` of the round's vertices `ids`, taking `_ProbeEngine._peel`'s
    arguments so a test can set it there; it ignores the round's live members."""
    return reference_peel(self, ids.tolist())


def reference_colorer() -> ProperColorer:
    """The 6-color peel as a supplied colorer: each sub-hypergraph it is handed
    is peeled whole by an engine of its own."""

    def fn(sub: Hypergraph) -> Coloring:
        cmap, _ = peel(_ProbeEngine(sub.n, sub.indptr, sub.indices), range(sub.n))
        return Coloring(tuple(cmap[v] for v in range(sub.n)))

    return ProperColorer(fn, PEEL_COLORS, "reference-peel")


def auxiliary_graph(ps: ProbeSystem, active: Sequence[int]) -> Graph:
    """Graph on the active vertices joining pairs that are exactly the active
    intersection set of some probe."""
    n = len(ps.vertices)
    p, v = contact_pairs(ps.probes, ps.vertices)
    on = np.zeros(n, dtype=bool)
    on[list(active)] = True
    p, v = p[on[v]], v[on[v]]
    exactly_two = np.bincount(p, minlength=len(ps.probes))[p] == 2
    return Graph(n, v[exactly_two].reshape(-1, 2))
