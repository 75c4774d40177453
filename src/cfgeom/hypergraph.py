"""Hypergraphs, intersection graphs, verifiers, and the exact small-instance oracle.

Colorings are never trusted: `certify` is the one check every public coloring
entry point runs on its output before returning it.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .errors import VerificationError
from .geom import Scene, contact_pairs

__all__ = [
    "Graph",
    "Hypergraph",
    "Coloring",
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
    integer array; repeated pairs count once.
    """

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] | np.ndarray = ()):
        e = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges), dtype=np.int64)
        if e.size == 0:
            e = e.reshape(0, 2)
        if e.ndim != 2 or e.shape[1] != 2:
            raise ValueError("graph edges must be vertex pairs")
        u, v = e[:, 0], e[:, 1]
        bad = np.nonzero((u < 0) | (u >= v) | (v >= n))[0]
        if len(bad):
            raise ValueError(f"bad edge ({u[bad[0]]},{v[bad[0]]}) for n={n}")
        self.n = n
        self.indptr, self.indices = _csr(np.concatenate([u * n + v, v * n + u]), n, n)

    def arcs(self) -> tuple[np.ndarray, np.ndarray]:
        """(v, u) for every neighbour u of every vertex v, in CSR order."""
        return np.repeat(np.arange(self.n), np.diff(self.indptr)), self.indices

    @cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        """Every edge (u, v) with u < v; a view built on first use."""
        u, v = self.arcs()
        up = u < v
        return frozenset(zip(u[up].tolist(), v[up].tolist()))

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Sorted neighbours of each vertex; a view built on first use."""
        ptr, idx = self.indptr.tolist(), self.indices.tolist()
        return tuple(tuple(idx[a:b]) for a, b in zip(ptr, ptr[1:]))

    def _neighborhoods(self, mode: str) -> tuple[np.ndarray, np.ndarray]:
        """(member, owner) pairs of every N(v) (pointed) or N[v] (closed), flat."""
        if mode not in ("pointed", "closed"):
            raise ValueError("mode must be 'pointed' or 'closed'")
        owners, members = self.arcs()
        if mode == "closed":
            loops = np.arange(self.n)
            owners, members = np.concatenate([owners, loops]), np.concatenate([members, loops])
        return members, owners

    def subgraph(self, keep: Sequence[int]) -> Graph:
        """Induced subgraph on the strictly increasing vertex list `keep`, keep[i] renamed i."""
        keep = np.asarray(keep, dtype=np.int64)
        if len(keep) and (keep[0] < 0 or keep[-1] >= self.n or (np.diff(keep) <= 0).any()):
            raise ValueError(f"keep must be strictly increasing vertices of 0..{self.n - 1}")
        pos = np.full(self.n, -1, dtype=np.int64)
        pos[keep] = np.arange(len(keep))
        u, v = (pos[x] for x in self.arcs())
        inside = (u >= 0) & (u < v)
        return Graph(len(keep), np.column_stack([u[inside], v[inside]]))


class Hypergraph:
    """Hyperedges on vertices 0..n-1, stored as CSR arrays: the members of edge i
    are indices[indptr[i]:indptr[i + 1]], sorted and distinct.

    Built from an iterable of vertex iterables (a member repeated within an
    edge counts once; repeated and empty edges are kept), or by `from_pairs`.
    `edge_labels` (strings) record where each edge came from (which probe,
    which vertex neighborhood); `vertex_labels` carry original vertex
    identities through `induced`.
    """

    def __init__(self, n: int, edges: Iterable[Iterable[int]] = (), edge_labels=None, vertex_labels=None):
        edges = [tuple(e) for e in edges]
        sizes = np.fromiter(map(len, edges), dtype=np.int64, count=len(edges))
        members = np.fromiter(chain.from_iterable(edges), dtype=np.int64, count=int(sizes.sum()))
        edge_ids = np.repeat(np.arange(len(edges)), sizes)
        bad = np.nonzero((members < 0) | (members >= n))[0]
        if len(bad):
            raise ValueError(f"edge {tuple(sorted(set(edges[edge_ids[bad[0]]])))} out of range for n={n}")
        self._fill(n, len(edges), edge_ids, members, edge_labels, vertex_labels)

    @classmethod
    def from_pairs(cls, n: int, m: int, edge_ids: np.ndarray, members: np.ndarray, edge_labels=None, vertex_labels=None):
        """Edges 0..m-1, members[i] in edge edge_ids[i]; pairs in range, in any order."""
        h = cls.__new__(cls)
        h._fill(n, m, edge_ids, members, edge_labels, vertex_labels)
        return h

    def _fill(self, n, m, edge_ids, members, edge_labels, vertex_labels) -> None:
        if edge_labels is not None and len(edge_labels) != m:
            raise ValueError("edge_labels length mismatch")
        if vertex_labels is not None and len(vertex_labels) != n:
            raise ValueError("vertex_labels length mismatch")
        self.n, self.edge_labels, self.vertex_labels = n, edge_labels, vertex_labels
        self.indptr, self.indices = _csr(edge_ids * n + members, m, n)

    @cached_property
    def edges(self) -> tuple[tuple[int, ...], ...]:
        """Sorted members of each edge; a view built on first use."""
        ptr, idx = self.indptr.tolist(), self.indices.tolist()
        return tuple(tuple(idx[a:b]) for a, b in zip(ptr, ptr[1:]))

    @cached_property
    def _flat(self) -> tuple[np.ndarray, np.ndarray]:
        """(member, edge) of every membership, edge by edge."""
        return self.indices, np.repeat(np.arange(len(self.indptr) - 1), np.diff(self.indptr))


def _csr(key: np.ndarray, nrows: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """CSR (indptr, indices) of the (row, col) pairs encoded as row * width + col
    (every col below width), each row's columns sorted and distinct; sorts only
    when the keys are not already increasing."""
    if (key[1:] <= key[:-1]).any():
        key = np.sort(key)
        key = key[np.diff(key, prepend=-1) != 0]
    return np.searchsorted(key // width, np.arange(nrows + 1)), key % width


@dataclass(frozen=True)
class Coloring:
    """Total map vertex index -> integer color id.

    `palette_map` is present when colors are structured pairs (i, level)
    flattened to integers; it maps each flat id back to its pair.
    """

    colors: tuple[int, ...]
    palette_map: dict[int, tuple[int, int]] | None = None

    def __post_init__(self):
        object.__setattr__(self, "colors", tuple(int(c) for c in self.colors))

    @property
    def palette_size(self) -> int:
        return len(set(self.colors))

    def __len__(self) -> int:
        return len(self.colors)


def _colors_of(c) -> Sequence[int]:
    return c.colors if isinstance(c, Coloring) else c


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def intersection_graph(scene: Scene) -> Graph:
    """Graph with an edge for every intersecting pair of scene shapes."""
    return Graph(len(scene), np.column_stack(contact_pairs(scene)))


def neighborhood_hypergraph(g: Graph, mode: str = "pointed") -> Hypergraph:
    """One hyperedge per vertex: N(v) for pointed mode (empty neighborhoods
    omitted) or N[v] for closed mode; the rows of `g`, plus the diagonal when closed."""
    members, owners = g._neighborhoods(mode)
    if mode == "closed":
        return Hypergraph.from_pairs(g.n, g.n, owners, members, tuple(f"N[{v}]" for v in range(g.n)))
    nonempty = np.nonzero(np.diff(g.indptr))[0]
    rows = np.searchsorted(nonempty, owners)  # N(v) is edge number (rank of v among the nonempty rows)
    return Hypergraph.from_pairs(g.n, len(nonempty), rows, members, tuple(f"N({v})" for v in nonempty.tolist()))


def induced(h: Hypergraph, keep: Sequence[int]) -> Hypergraph:
    """Sub-hypergraph on the distinct vertices `keep` (any order), keep[i]
    renamed i, each edge intersected with keep; edge labels are shared."""
    keep = np.asarray(keep, dtype=np.int64)
    if len(keep) and (keep.min() < 0 or keep.max() >= h.n):
        raise ValueError(f"keep must be vertices of 0..{h.n - 1}")
    pos = np.full(h.n, -1, dtype=np.int64)
    pos[keep] = np.arange(len(keep))
    if (pos[keep] != np.arange(len(keep))).any():
        raise ValueError("keep must not contain duplicates")
    members, edge_ids = h._flat
    renamed = pos[members]
    inside = renamed >= 0
    kept = keep.tolist()
    labels = tuple(kept) if h.vertex_labels is None else tuple(h.vertex_labels[v] for v in kept)
    return Hypergraph.from_pairs(len(kept), len(h.indptr) - 1, edge_ids[inside], renamed[inside], h.edge_labels, labels)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


def _color_counts(colors: np.ndarray, members: np.ndarray, owners: np.ndarray, ne: int) -> tuple[np.ndarray, ...]:
    """Per distinct (edge, color) pair present, in increasing order: its edge and its member count;
    counted in an edge x color table when it has at most |members| + ne cells, else by one sort."""
    values, dense = np.unique(colors, return_inverse=True)
    p = max(len(values), 1)
    key = owners * p + dense[members]
    if ne * p <= len(key) + ne:
        counts = np.bincount(key, minlength=ne * p)
        key = np.flatnonzero(counts)
        return key // p, counts[key]
    key.sort()
    first = np.flatnonzero(np.r_[len(key) > 0, key[1:] != key[:-1]])  # where each run of equal keys starts
    return key[first] // p, np.diff(first, append=len(key))


def _total(coloring, n: int) -> np.ndarray:
    colors = np.asarray(_colors_of(coloring), dtype=np.int64)
    if len(colors) != n:
        raise ValueError("coloring is not total")
    return colors


def verify_proper(h: Hypergraph, coloring) -> list[int]:
    """Indices of hyperedges of size >= 2 that are monochromatic (empty list = proper)."""
    colors = _total(coloring, h.n)
    edge_of, _ = _color_counts(colors, *h._flat, len(h.indptr) - 1)
    distinct = np.bincount(edge_of, minlength=len(h.indptr) - 1)
    return np.nonzero((np.diff(h.indptr) >= 2) & (distinct == 1))[0].tolist()


def _cf_violations(colors: np.ndarray, members: np.ndarray, owners: np.ndarray, ne: int) -> list[int]:
    edge_of, counts = _color_counts(colors, members, owners, ne)
    has_unique = np.zeros(ne, dtype=bool)
    has_unique[edge_of[counts == 1]] = True
    nonempty = np.zeros(ne, dtype=bool)
    nonempty[owners] = True
    return np.nonzero(nonempty & ~has_unique)[0].tolist()


def verify_cf(h: Hypergraph, coloring) -> list[int]:
    """Indices of nonempty hyperedges with no uniquely colored vertex (empty list = CF)."""
    return _cf_violations(_total(coloring, h.n), *h._flat, len(h.indptr) - 1)


def neighborhood_violations(g: Graph, coloring, mode: str) -> list[int]:
    """Vertices v whose nonempty N(v) (pointed) or N[v] (closed) has no uniquely
    colored member; read from the graph's edge arrays, no hypergraph is built."""
    return _cf_violations(_total(coloring, g.n), *g._neighborhoods(mode), g.n)


def certify(
    contacts: Graph | Hypergraph,
    coloring: Coloring,
    mode: str | None = None,
    *,
    bound: int | None = None,
    lists: Sequence[Sequence[int]] | None = None,
    proper: bool = False,
    what: str = "coloring",
) -> Coloring:
    """Return `coloring` once it is proven valid, else raise VerificationError.

    Checks totality, the palette `bound`, membership of every color in its
    vertex's list, and conflict-freeness of every hyperedge, or of every
    pointed or closed neighborhood (`mode`) when `contacts` is a graph; with
    `proper`, only that no hyperedge of size >= 2 is monochromatic.
    """
    if len(coloring.colors) != contacts.n:
        raise VerificationError(f"{what} colors {len(coloring.colors)} of {contacts.n} vertices")
    if bound is not None and coloring.palette_size > bound:
        raise VerificationError(f"{what} used {coloring.palette_size} colors, bound is {bound}")
    outside = [v for v, (c, lst) in enumerate(zip(coloring.colors, lists or ())) if c not in lst]
    if outside:
        raise VerificationError(f"{what} colored vertices {outside[:5]} outside their lists")
    if isinstance(contacts, Graph):
        bad, where = neighborhood_violations(contacts, coloring, mode), f"the {mode} neighborhoods of vertices"
    else:
        bad, where = (verify_proper if proper else verify_cf)(contacts, coloring), "hyperedges"
    if bad:
        raise VerificationError(f"{what} is not {'proper' if proper else 'conflict-free'} on {where} {bad[:5]}")
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
    if h.n > ORACLE_MAX_VERTICES:
        raise ValueError(f"oracle limited to n <= {ORACLE_MAX_VERTICES}, got {h.n}")
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
            witness = Coloring(tuple(colors))
            assert not verify_cf(h, witness)
            return (t, witness)
    return None


# ---------------------------------------------------------------------------
# independent sets and stock hypergraphs
# ---------------------------------------------------------------------------


def greedy_maximal_independent_set(g: Graph, order: Sequence[int] | None = None) -> list[int]:
    """Maximal (not maximum) independent set, scanning vertices in `order`."""
    if order is None:
        order = range(g.n)
    order = list(order)
    if sorted(order) != list(range(g.n)):
        raise ValueError("order must be a permutation of the vertices")
    ptr, idx = g.indptr.tolist(), g.indices.tolist()
    blocked = [False] * g.n  # a chosen vertex blocks its neighbours and is never blocked itself
    for v in order:
        if not blocked[v]:
            for u in idx[ptr[v] : ptr[v + 1]]:
                blocked[u] = True
    return [v for v in range(g.n) if not blocked[v]]


def all_intervals_hypergraph(n: int) -> Hypergraph:
    """Hypergraph on n collinear points whose edges are all contiguous index runs."""
    runs = [(i, j) for i in range(n) for j in range(i, n)]
    return Hypergraph(n, [range(i, j + 1) for i, j in runs], tuple(f"run:{i}-{j}" for i, j in runs))


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------


def coloring_to_json(c: Coloring) -> str:
    doc: dict = {"colors": list(c.colors), "palette_size": c.palette_size}
    if c.palette_map is not None:
        doc["palette_map"] = {str(k): list(v) for k, v in sorted(c.palette_map.items())}
    return json.dumps(doc)


def coloring_from_json(text: str) -> Coloring:
    data = json.loads(text)
    pm = None
    if "palette_map" in data:
        pm = {int(k): (v[0], v[1]) for k, v in data["palette_map"].items()}
    c = Coloring(tuple(data["colors"]), pm)
    if "palette_size" in data and data["palette_size"] != c.palette_size:
        raise ValueError("palette_size field disagrees with the colors array")
    return c


def save_coloring(c: Coloring, path) -> None:
    with open(path, "w") as f:
        f.write(coloring_to_json(c))


def load_coloring(path) -> Coloring:
    with open(path) as f:
        return coloring_from_json(f.read())
