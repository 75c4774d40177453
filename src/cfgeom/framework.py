"""Generic machinery turning hereditary proper colorability into CF colorings.

The core iteration repeatedly proper-colors the surviving vertices,
freezes the largest color class with a fresh final color, and removes it.
In any hyperedge the maximum final color is then achieved by exactly one
vertex, which is the conflict-free witness.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ColorerContractError, InvalidInputError, ListExhaustedError, VerificationError
from .hypergraph import Coloring, Graph, Hypergraph, Trace, certify, induced, neighborhood_violations, verify_proper

__all__ = [
    "ProperColorer",
    "proper_to_cf",
    "proper_to_cf_list",
    "pointed_to_closed",
    "cf_palette_bound",
]


@dataclass(frozen=True)
class ProperColorer:
    """Callable producing a proper coloring with at most `k` colors for a hypergraph
    and every induced sub-hypergraph it is handed; the iterations read it through `_rounds`."""

    fn: Callable[[Hypergraph], Coloring]
    k: int
    name: str = ""

    def __post_init__(self):
        if self.k < 1:
            raise InvalidInputError(f"a proper colorer needs at least one color, got k={self.k}")

    def __call__(self, h: Hypergraph) -> Coloring:
        return self.fn(h)

    def _rounds(self, h: Hypergraph) -> Callable[[list[int]], Sequence[int]]:
        """The iterations' round function on `h`: the proper colors of the
        surviving vertex ids, in order, checked on their `induced` sub-hypergraph."""

        def color(alive: list[int]) -> tuple[int, ...]:
            sub = induced(h, alive)
            col = self(sub)
            if len(col.colors) != sub.n:
                raise ColorerContractError("colorer returned a partial coloring", sub)
            if col.palette_size > self.k:
                raise ColorerContractError(f"colorer used {col.palette_size} colors, declared at most {self.k}", sub)
            if bad := verify_proper(sub, col):
                raise ColorerContractError(f"colorer output is improper on edges {bad[:5]}", sub)
            return col.colors

        return color


def cf_palette_bound(n: int, k: int) -> int:
    """Ceiling of 1 + log_{1+1/(k-1)} n, the palette guarantee of the iteration.

    With k = 1 no edge has two members, so one round colors everything."""
    if n <= 1 or k == 1:
        return min(n, 1) if n >= 0 else 0
    return math.ceil(1 + math.log(n) / math.log(1 + 1 / (k - 1)))


def _largest_class(colors: Sequence[int], vertices: Sequence[int]) -> list[int]:
    """Largest color class of `vertices` colored `colors`; ties broken by the
    class whose smallest vertex is smallest."""
    classes: dict[int, list[int]] = {}
    for v, c in zip(vertices, colors):
        classes.setdefault(c, []).append(v)
    return max(classes.values(), key=lambda cls: (len(cls), -min(cls)))


def _largest_class_rounds(alive: list[int], color: Callable[[list[int]], Sequence[int]]) -> dict[int, int]:
    """Final color of each vertex of the list `alive` under the
    largest-class iteration.

    Round r proper-colors the surviving vertices with `color` (one color per
    vertex, in their order); a largest class takes r as its final color and
    leaves.  So each round's vertices are a subset of the last round's, in
    the same order, and the peel engine's round function narrows the last
    round's live members.
    """
    final: dict[int, int] = {}
    rnd = 0
    while alive:
        rnd += 1
        taken = set(_largest_class(color(alive), alive))
        for v in taken:
            final[v] = rnd
        alive = [v for v in alive if v not in taken]
    return final


def proper_to_cf(h: Hypergraph, pc: ProperColorer) -> Coloring:
    """CF coloring via iterated proper coloring with final colors 1, 2, ...

    Every round the surviving vertices are proper-colored by `pc`, a largest
    class (ties to the class holding the smallest vertex index) is assigned
    the round number as its final color, and removed.  The output is
    certified against cf_palette_bound(n, pc.k), which its trace records,
    before it is returned.
    """
    final = _largest_class_rounds(list(range(h.n)), pc._rounds(h))
    bound = cf_palette_bound(h.n, pc.k)
    out = Coloring(tuple(final[v] for v in range(h.n)), trace=Trace(bound))
    return certify(h, out, bound=bound, what="proper-to-CF iteration")


def proper_to_cf_list(h: Hypergraph, lists: Sequence[Sequence[int]], pc: ProperColorer) -> Coloring:
    """CF coloring in which every vertex receives a color from its own list.

    Greedy most-popular-color iteration: the color in the most uncolored
    lists is proper-colored on its holders by `pc`'s round function, a largest
    class keeps that color for good, and the color is struck from all
    remaining lists.  The holder count of each color is kept up to date as
    vertices are colored and colors struck, not recounted per round.  Needs
    list sizes of at least cf_palette_bound(n, pc.k).
    """
    if len(lists) != h.n:
        raise InvalidInputError("one color list per vertex required")
    need = cf_palette_bound(h.n, pc.k)
    for v, lst in enumerate(lists):
        if len(set(lst)) < need:
            raise InvalidInputError(f"list of vertex {v} has {len(set(lst))} colors, needs >= {need}")
    color = pc._rounds(h)
    remaining = [set(lst) for lst in lists]
    popularity = Counter(c for lst in remaining for c in lst)  # per color, the uncolored lists holding it
    final: list[int | None] = [None] * h.n
    while alive := [v for v in range(h.n) if final[v] is None]:
        for v in alive:
            if not remaining[v]:
                raise ListExhaustedError(v)
        c = max(popularity, key=lambda col: (popularity[col], -col))
        holders = [v for v in alive if c in remaining[v]]
        for v in _largest_class(color(holders), holders):
            final[v] = c
            popularity.subtract(remaining[v])
        del popularity[c]
        for v in alive:
            remaining[v].discard(c)
    return certify(h, Coloring(tuple(final), trace=Trace()), lists=lists, what="list iteration")


def pointed_to_closed(g: Graph, c: Coloring) -> Coloring:
    """Closed-CF coloring obtained by splitting each color class in two.

    Within each class's induced subgraph, the two endpoints of a single-edge
    component get levels 1 and 2; in larger components the leaves get level 2
    and everyone else level 1.  The input must be pointed-CF for `g`; the
    output is certified closed-CF with at most twice the input palette.
    Structured colors (i, level) are flattened to 2*(i-1) + (level-1),
    recorded in the palette map.
    """
    if len(c.colors) != g.n:
        raise InvalidInputError("coloring is not total")
    if (c._array < 1).any():
        raise InvalidInputError("pointed_to_closed expects positive color ids")
    bad = neighborhood_violations(g, c, "pointed")
    if bad:
        raise VerificationError(f"input is not pointed-CF (violations on neighborhoods {bad[:5]})")
    bound = 2 * c.palette_size
    out = _flat_coloring(c._array, _class_levels(g, c._array), Trace(bound))
    return certify(g, out, "closed", bound=bound, what="conversion")


def _class_levels(g: Graph, colors: Sequence[int] | np.ndarray) -> list[int]:
    """pointed_to_closed's class split: the level of each vertex, without
    input check or certification.

    A leaf of its class's induced subgraph (one same-colored neighbour) gets
    level 2, except the smaller endpoint of a single-edge component; every
    other vertex keeps level 1.
    """
    colors = np.asarray(colors, dtype=np.int64)
    owner, member = g.arcs()
    same = colors[owner] == colors[member]
    owner, member = owner[same], member[same]
    deg = np.bincount(owner, minlength=g.n)
    leaf = deg == 1
    partner = np.zeros(g.n, dtype=np.int64)
    partner[owner[leaf[owner]]] = member[leaf[owner]]
    vertex = np.arange(g.n)
    return np.where(leaf & ((deg[partner] != 1) | (vertex > partner)), 2, 1).tolist()


def _flat_coloring(i: Sequence[int] | np.ndarray, level: Sequence[int], trace: Trace | None = None) -> Coloring:
    """The coloring of the structured colors (i, level), i >= 1 and level 1
    or 2, each flattened to f = 2*(i-1) + (level-1), with the palette map
    from each distinct flat id f back to its pair (f // 2 + 1, f % 2 + 1)."""
    flat = 2 * (np.asarray(i, dtype=np.int64) - 1) + np.asarray(level, dtype=np.int64) - 1
    return Coloring(flat, {f: (f // 2 + 1, f % 2 + 1) for f in dict.fromkeys(flat.tolist())}, trace)
