"""Probe hypergraphs, the exactly-two auxiliary graph, the degeneracy peel, and
depth-one pruning, composed into pointed CF pipelines for discs and pseudo-discs.

A probe system is a family of vertex shapes and a family of probe shapes; each
probe contributes the hyperedge of vertices it intersects.  The auxiliary
graph joins two vertices whenever some probe intersects exactly that pair
among the active vertices; for valid inputs it is planar, so a vertex of
degree at most 5 always exists and a reverse-peel greedy coloring proper-colors
every probe hyperedge with at most 6 colors.
"""
from __future__ import annotations

import heapq
import json
import logging
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import IncompatibleShapesError, PlanarityError
from .framework import ProperColorer, _proper_to_cf, cf_palette_bound
from .geom import (
    ConvexFatObject,
    Disc,
    Scene,
    _clip_segments,
    _disc_rows,
    _in_any_polygon,
    _padded_vertices,
    contact_pairs,
    points_in_convex_polygon,
    scene_from_json,
    scene_to_json,
    shape_bbox,
    validate_pseudodisc_family,
)
from .hypergraph import (
    Coloring,
    Graph,
    Hypergraph,
    _csr,
    certify,
    greedy_maximal_independent_set,
    induced,
    intersection_graph,
)

__all__ = [
    "ProbeSystem",
    "PeelOrder",
    "probe_hypergraph",
    "auxiliary_graph",
    "peel_and_color",
    "peel_proper_colorer",
    "prune_depth_one",
    "cf_color_vs_probes",
    "pointed_cf_pseudodiscs",
    "pointed_cf_pseudodiscs_report",
    "PipelineReport",
    "probe_system_to_json",
    "probe_system_from_json",
]

logger = logging.getLogger(__name__)

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
            raise ValueError(f"mode must be {DISC_MODE!r} or {PSEUDODISC_MODE!r}")

    def validate(self) -> None:
        if self.mode == DISC_MODE:
            for scene in (self.vertices, self.probes):
                if len(scene) and scene.kind != "discs":
                    raise IncompatibleShapesError("disc mode requires disc vertices and disc probes")
        else:
            combined = Scene(self.vertices.shapes + self.probes.shapes)
            if len(combined) and combined.kind not in ("discs", "fat"):
                raise IncompatibleShapesError("pseudo-disc mode requires a homogeneous disc or polygon family")
            if not validate_pseudodisc_family(combined):
                raise ValueError("vertices and probes do not form a pseudo-disc family")


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
    """Probe hypergraph of the system: edge j holds the vertices probe j intersects."""
    p, v = contact_pairs(probes, vertices)
    return _hits_hypergraph(len(vertices), len(probes), p, v)


def probe_hypergraph(ps: ProbeSystem) -> Hypergraph:
    """One hyperedge per probe: the vertices intersecting it.  Empty edges are
    kept (with their provenance label) and ignored by the verifiers."""
    ps.validate()
    return _pairwise_hits(ps.vertices, ps.probes)


def _hits_hypergraph(n: int, m: int, probe: np.ndarray, vertex: np.ndarray) -> Hypergraph:
    """Hypergraph of m probes over n vertices from its (probe, vertex) hit pairs."""
    return Hypergraph.from_pairs(n, m, probe, vertex, tuple(f"probe:{j}" for j in range(m)))


def _graph_probe_hypergraph(g: Graph, vertices: list[int], probes: list[int]) -> Hypergraph:
    """Probe hypergraph of two disjoint subfamilies of the scene `g` was built
    from, in the subfamilies' local indices: the probes' rows of `g`, masked to
    the vertices' columns."""
    local = np.full((2, g.n), -1, dtype=np.int64)  # index among the probes, among the vertices
    local[0, probes], local[1, vertices] = np.arange(len(probes)), np.arange(len(vertices))
    owner, member = g.arcs()
    p, v = local[0, owner], local[1, member]
    hit = (p >= 0) & (v >= 0)
    return _hits_hypergraph(len(vertices), len(probes), p[hit], v[hit])


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


# ---------------------------------------------------------------------------
# the peel engine
# ---------------------------------------------------------------------------


class _ProbeEngine:
    """Incremental exactly-two bookkeeping shared by repeated peels.

    Built from the CSR rows (indptr, indices) of a probe hypergraph on n
    vertices.  Hit sets are deduplicated once; a peel over any active subset
    maintains, per probe, the count of active vertices it intersects, and the
    auxiliary graph as a witness-counted simple graph.
    """

    def __init__(self, n: int, indptr: np.ndarray, indices: np.ndarray):
        self.n = n
        ptr, idx = indptr.tolist(), indices.tolist()
        self.hits: list[tuple[int, ...]] = sorted({tuple(idx[a:b]) for a, b in zip(ptr, ptr[1:]) if b > a})
        self._flat_v, self._flat_p = Hypergraph(n, self.hits)._flat
        ptr, pids = (a.tolist() for a in _csr(self._flat_v * len(self.hits) + self._flat_p, n, len(self.hits)))
        self.hitters: list[list[int]] = [pids[a:b] for a, b in zip(ptr, ptr[1:])]  # probe ids, increasing
        self.peel_log: list[PeelOrder] = []

    def peel(self, active: Sequence[int]) -> tuple[dict[int, int], PeelOrder]:
        active_list = sorted(set(active))
        mask = np.zeros(self.n, dtype=bool)
        mask[active_list] = True
        on = mask[self._flat_v]
        counts = np.bincount(self._flat_p[on], minlength=len(self.hits))
        two = on & (counts[self._flat_p] == 2)  # the active members of probes hitting exactly two
        first_pairs = zip(self._flat_p[two][::2].tolist(), self._flat_v[two].reshape(-1, 2).tolist())
        counts = counts.tolist()
        active_set = set(active_list)
        pair_of: list[tuple[int, int] | None] = [None] * len(self.hits)
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
            nv, ne = len(active_set), total_edges
            if nv >= 3 and ne > 3 * nv - 6:
                logger.warning("auxiliary graph breaks the Euler bound: %d vertices, %d edges", nv, ne)
            order.order.append(v)
            order.degrees.append(len(adj[v]))
            order.aux_sizes.append((nv, ne))
            removal_neighbors.append(sorted(adj[v]))
            active_set.discard(v)
            for pid in self.hitters[v]:
                c = counts[pid]
                if c == 0:
                    continue
                if c == 2:
                    drop_pair(pair_of[pid])
                    pair_of[pid] = None
                elif c == 3:
                    survivors = [u for u in self.hits[pid] if u in active_set]
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
        self.peel_log.append(order)
        return colors, order


def peel_and_color(ps: ProbeSystem) -> tuple[Coloring, PeelOrder]:
    """Proper coloring of the probe hypergraph with at most 6 colors.

    Repeatedly removes an active vertex of auxiliary degree <= 5 (smallest
    index first), then colors in reverse order, giving each vertex the lowest
    color unused among its auxiliary neighbors at its removal step.  For
    pseudo-disc vertices that overlap each other, depth-one pruning must have
    been applied beforehand (the pipelines do this).
    """
    ps.validate()
    n = len(ps.vertices)
    h = _pairwise_hits(ps.vertices, ps.probes)
    cmap, order = _ProbeEngine(n, h.indptr, h.indices).peel(range(n))
    coloring = Coloring(tuple(cmap[v] for v in range(n)))
    certify(h, coloring, bound=PEEL_COLORS, proper=True, what="peel coloring")
    return coloring, order


def _peel_colorer(engine: _ProbeEngine) -> ProperColorer:
    def fn(sub: Hypergraph) -> Coloring:
        active = sub.vertex_labels if sub.vertex_labels is not None else tuple(range(sub.n))
        cmap, _ = engine.peel(active)
        return Coloring(tuple(cmap[v] for v in active))

    return ProperColorer(fn, PEEL_COLORS, "degeneracy-peel")


def peel_proper_colorer(vertices: Scene, probes: Scene) -> ProperColorer:
    """Hereditary 6-color proper colorer for the probe hypergraph of the given
    system, backed by one shared peel engine; pairs with proper_to_cf_list."""
    h = _pairwise_hits(vertices, probes)
    return _peel_colorer(_ProbeEngine(h.n, h.indptr, h.indices))


# ---------------------------------------------------------------------------
# depth-one pruning
# ---------------------------------------------------------------------------


def prune_depth_one(shapes: Scene, resolution: int = 24) -> tuple[list[int], list[int]]:
    """Split a family into (kept, removed) so every kept shape owns a point of
    depth 1 among the survivors.

    Shapes are scanned in index order; a shape is dropped only when no point of
    it escapes the surviving shapes that meet it, tested against all of them at
    once: exact uncovered boundary pieces first, an interior grid of
    `resolution` x `resolution` samples only when they yield none.  The
    removed shapes are covered by the kept ones at the sampling resolution;
    that audit is logged if it ever fails.
    """
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    n = len(shapes)
    fam = _Family(shapes.shapes)
    contacts = Graph(n, np.column_stack(contact_pairs(shapes)))
    alive = np.ones(n, dtype=bool)
    removed: list[int] = []

    def near(i: int) -> np.ndarray:
        row = contacts.indices[contacts.indptr[i] : contacts.indptr[i + 1]]
        return row[alive[row]]

    for i in range(n):
        if _depth_one_witness(fam, i, near(i), resolution) is None:
            alive[i] = False
            removed.append(i)
    for r in removed:
        # a sample point of r can lie only in the kept shapes that meet r
        if not fam.covered(_sample_points(shapes[r], resolution), near(r)).all():
            logger.warning(
                "pruned shape %d has a sample point not covered by the kept family; "
                "consider a finer resolution",
                r,
            )
    return np.flatnonzero(alive).tolist(), removed


class _Family:
    """A pruning family as arrays built once: (x, y, r) rows of its discs and
    padded vertex arrays of its polygons; `row` maps a shape id to its row."""

    def __init__(self, shapes: Sequence):
        if not {type(s) for s in shapes} <= {Disc, ConvexFatObject}:
            raise IncompatibleShapesError("pruning supports discs and convex polygons")
        self.shapes = shapes
        self.disc = np.array([isinstance(s, Disc) for s in shapes], dtype=bool)
        self.row = np.where(self.disc, np.cumsum(self.disc), np.cumsum(~self.disc)) - 1
        self.circles = _disc_rows([s for s in shapes if isinstance(s, Disc)])
        polys = [s for s in shapes if not isinstance(s, Disc)]
        self.polys = _padded_vertices(polys) if polys else np.zeros((0, 1, 2))

    def covered(self, pts: np.ndarray, ids: np.ndarray) -> np.ndarray:
        """Mask over the rows of `pts`: inside (closed) any of the shapes `ids`."""
        d = self.disc[ids]
        out = _in_any_polygon(pts, self.polys[self.row[ids[~d]]])
        if d.any():
            c = self.circles[self.row[ids[d]]]
            dx, dy = pts[:, None, 0] - c[:, 0], pts[:, None, 1] - c[:, 1]
            out |= (dx**2 + dy**2 <= c[:, 2] * c[:, 2]).any(axis=1)
        return out


def _depth_one_witness(fam: _Family, i: int, near: np.ndarray, resolution: int):
    """A point of shape i covered by none of the shapes `near`, or None; the
    sampled stage is built only when the exact boundary stage finds none."""
    for stage in (lambda: _uncovered_boundary_points(fam, i, near), lambda: _sample_points(fam.shapes[i], resolution)):
        pts = stage()
        alive = ~fam.covered(pts, near)
        if alive.any():
            return tuple(pts[int(np.argmax(alive))].tolist())
    return None


def _uncovered_boundary_points(fam: _Family, i: int, near: np.ndarray) -> np.ndarray:
    """Exact midpoints of the parts of the boundary of shape i covered by none
    of the shapes `near`; empty when the whole boundary is covered (or shape i
    is swallowed, or a neighbour is of the other kind)."""
    s = fam.shapes[i]
    none = np.empty((0, 2))
    if isinstance(s, Disc):
        cx, cy, r = s.center.x, s.center.y, s.radius
        if r == 0:
            return np.array([(cx, cy)])
        arcs: list[tuple[float, float]] = []
        for o in (fam.shapes[j] for j in near.tolist()):
            if not isinstance(o, Disc):
                return none
            d = math.hypot(o.center.x - cx, o.center.y - cy)
            if d + r <= o.radius:
                return none  # s lies inside o entirely; no boundary escapes
            if d >= r + o.radius or d + o.radius <= r or o.radius == 0:
                continue
            cosa = (d * d + r * r - o.radius * o.radius) / (2 * d * r)
            alpha = math.acos(min(1.0, max(-1.0, cosa)))
            theta = math.atan2(o.center.y - cy, o.center.x - cx)
            arcs.append((theta - alpha, theta + alpha))
        mid = [0.5 * (a + b) for a, b in _complement_circular(arcs)]
        return np.array([(cx + r * math.cos(t), cy + r * math.sin(t)) for t in mid]).reshape(-1, 2)
    if fam.disc[near].any():
        return none
    # s keeps its real edges: a padding edge of its own would add its last vertex as a candidate
    xy = s.xy()
    ends = np.concatenate((xy[1:], xy[:1]))
    t0, t1 = _clip_segments(xy, ends, fam.polys[fam.row[near]])
    edge, t = [], []
    for e, (a0, a1) in enumerate(zip(t0.tolist(), t1.tolist())):
        for a, b in _complement_unit([c for c in zip(a0, a1) if c[1] > c[0]]):
            edge.append(e)
            t.append(0.5 * (a + b))
    return xy[edge] + np.array(t).reshape(-1, 1) * (ends - xy)[edge]


def _complement_circular(arcs: list[tuple[float, float]]) -> list[tuple[float, float]]:
    if not arcs:
        return [(0.0, 2 * math.pi)]
    two_pi = 2 * math.pi
    norm: list[tuple[float, float]] = []
    for a, b in arcs:
        a %= two_pi
        width = b - a if b - a >= 0 else 0.0
        if width >= two_pi:
            return []
        if a + width <= two_pi:
            norm.append((a, a + width))
        else:
            norm.append((a, two_pi))
            norm.append((0.0, a + width - two_pi))
    norm.sort()
    merged: list[list[float]] = []
    for a, b in norm:
        if merged and a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    free: list[tuple[float, float]] = []
    if merged[0][0] > 0:
        free.append((0.0, merged[0][0]))
    for (a0, b0), (a1, b1) in zip(merged, merged[1:]):
        if a1 > b0:
            free.append((b0, a1))
    if merged[-1][1] < two_pi:
        free.append((merged[-1][1], two_pi))
    return [f for f in free if f[1] - f[0] > 1e-12]


def _complement_unit(covered: list[tuple[float, float]]) -> list[tuple[float, float]]:
    merged: list[list[float]] = []
    for a, b in sorted((max(0.0, a), min(1.0, b)) for a, b in covered):
        if merged and a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    free: list[tuple[float, float]] = []
    cur = 0.0
    for a, b in merged:
        if a > cur:
            free.append((cur, a))
        cur = max(cur, b)
    if cur < 1.0:
        free.append((cur, 1.0))
    return [f for f in free if f[1] - f[0] > 1e-12]


def _sample_points(s, resolution: int) -> np.ndarray:
    """Inward-offset boundary ring plus interior grid, as rows (x, y)."""
    if isinstance(s, Disc):
        cx, cy, r = s.center.x, s.center.y, s.radius
        if r == 0:
            return np.array([(cx, cy)])
        shrink = r * (1.0 - 1.0 / (2 * resolution))
        turns = np.linspace(0, 2 * math.pi, 4 * resolution, endpoint=False).tolist()
        ring = np.array([(cx + shrink * math.cos(t), cy + shrink * math.sin(t)) for t in turns])
        gx, gy = np.meshgrid(np.linspace(cx - r, cx + r, resolution), np.linspace(cy - r, cy + r, resolution))
        grid = np.column_stack([gx.ravel(), gy.ravel()])
        inside = (grid[:, 0] - cx) ** 2 + (grid[:, 1] - cy) ** 2 <= r * r
        return np.concatenate([ring, grid[inside]])
    xy = s.xy()
    anchor = np.array([s.anchor.x, s.anchor.y])
    shrink = 1.0 - 1.0 / (2 * resolution)
    t = np.linspace(0.0, 1.0, resolution // 2 + 2)[:, None]
    boundary = xy[:, None] + t * (np.concatenate((xy[1:], xy[:1])) - xy)[:, None]  # (edges, t, 2)
    ring = (anchor + shrink * (boundary - anchor)).reshape(-1, 2)
    xmin, xmax, ymin, ymax = shape_bbox(s)
    gx, gy = np.meshgrid(np.linspace(xmin, xmax, resolution), np.linspace(ymin, ymax, resolution))
    grid = np.column_stack([gx.ravel(), gy.ravel()])
    return np.concatenate([ring, grid[points_in_convex_polygon(xy, grid)]])


# ---------------------------------------------------------------------------
# CF coloring against probes, and the full pipeline
# ---------------------------------------------------------------------------


def cf_color_vs_probes(ps: ProbeSystem) -> Coloring:
    coloring, _ = cf_color_vs_probes_report(ps)
    return coloring


def cf_color_vs_probes_report(ps: ProbeSystem) -> tuple[Coloring, dict]:
    """CF coloring of the probe hypergraph, with peel diagnostics.

    Runs the largest-class iteration with the degeneracy peel as the
    hereditary proper colorer.  In pseudo-disc mode with overlapping vertices
    the family is first pruned to depth-one owners (which requires the probes
    to be pairwise disjoint); pruned vertices receive one extra reserved color.
    """
    ps.validate()
    prune = ps.mode == PSEUDODISC_MODE and intersection_graph(ps.vertices).indices.size > 0
    if prune and intersection_graph(ps.probes).indices.size > 0:
        raise ValueError("pseudo-disc probes must be pairwise disjoint when the vertices overlap each other")
    h = _pairwise_hits(ps.vertices, ps.probes)
    out, report = _cf_vs_hits(ps.vertices, h, prune)
    return certify(h, out, bound=report["palette_bound"], what="probe coloring"), report


def _cf_vs_hits(vertices: Scene, h: Hypergraph, prune: bool) -> tuple[Coloring, dict]:
    """cf_color_vs_probes_report given the probe hypergraph `h` and whether to
    prune first, without certification."""
    n = len(vertices)
    kept, pruned = prune_depth_one(vertices) if prune else (list(range(n)), [])
    engine = _ProbeEngine(n, h.indptr, h.indices)
    colors = np.zeros(n, dtype=np.int64)
    if kept:
        colors[kept] = _proper_to_cf(induced(h, kept) if pruned else h, _peel_colorer(engine)).colors
    colors[pruned] = colors.max(initial=0) + 1  # one reserved color for the pruned vertices
    bound = cf_palette_bound(n, PEEL_COLORS) + (1 if prune else 0)
    return Coloring(tuple(colors.tolist())), {"pruned": pruned, "peel_orders": engine.peel_log, "palette_bound": bound}


@dataclass
class PipelineReport:
    independent_set: list[int]
    rest: list[int]
    peel_orders_b: list[PeelOrder]
    peel_orders_rest: list[PeelOrder]
    pruned: list[int]
    palette_bound: int


def pointed_cf_pseudodiscs(scene: Scene) -> Coloring:
    coloring, _ = pointed_cf_pseudodiscs_report(scene)
    return coloring


def pointed_cf_pseudodiscs_report(scene: Scene) -> tuple[Coloring, PipelineReport]:
    """Pointed CF coloring of a pseudo-disc intersection graph.

    A greedy maximal independent set B is colored conflict-free against the
    rest as probes, the rest is colored conflict-free against B as probes (with
    pruning in pseudo-disc mode), and the two palettes are kept disjoint.  Each
    vertex with a neighbor then finds a uniquely colored one in the opposite
    side's palette.  Both halves read their probe hits off one intersection
    graph of the scene.
    """
    n = len(scene)
    if n == 0:
        return Coloring(()), PipelineReport([], [], [], [], [], 0)
    if scene.kind == "discs":
        mode = DISC_MODE
    elif scene.kind == "fat":
        mode = PSEUDODISC_MODE
    else:
        raise IncompatibleShapesError("the pipeline accepts disc or convex-polygon scenes")
    if not validate_pseudodisc_family(scene):
        raise ValueError("scene is not a pseudo-disc family")
    g = intersection_graph(scene)
    b = greedy_maximal_independent_set(g)
    in_b = np.zeros(n, dtype=bool)
    in_b[b] = True
    rest = np.flatnonzero(~in_b).tolist()
    col_b, rep_b = _cf_vs_hits(scene.subscene(b), _graph_probe_hypergraph(g, b, rest), False)
    offset = max(col_b.colors)
    colors = np.zeros(n, dtype=np.int64)
    colors[b] = col_b.colors
    # B is independent, so the probes of this half are pairwise disjoint
    u, v = g.arcs()
    prune = mode == PSEUDODISC_MODE and bool((~in_b[u] & ~in_b[v]).any())
    col_rest, rep_rest = _cf_vs_hits(scene.subscene(rest), _graph_probe_hypergraph(g, rest, b), prune)
    colors[rest] = offset + np.asarray(col_rest.colors, dtype=np.int64)
    bound = cf_palette_bound(len(b), PEEL_COLORS) + cf_palette_bound(len(rest), PEEL_COLORS) + 1
    out = certify(g, Coloring(tuple(colors.tolist())), "pointed", bound=bound, what="pipeline output")
    report = PipelineReport(
        independent_set=list(b),
        rest=rest,
        peel_orders_b=rep_b["peel_orders"],
        peel_orders_rest=rep_rest["peel_orders"],
        pruned=[rest[i] for i in rep_rest["pruned"]],
        palette_bound=bound,
    )
    return out, report


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------


def probe_system_to_json(ps: ProbeSystem) -> str:
    return json.dumps(
        {
            "vertices": json.loads(scene_to_json(ps.vertices)),
            "probes": json.loads(scene_to_json(ps.probes)),
            "mode": ps.mode,
        }
    )


def probe_system_from_json(text: str) -> ProbeSystem:
    data = json.loads(text)
    return ProbeSystem(
        scene_from_json(json.dumps(data["vertices"])),
        scene_from_json(json.dumps(data["probes"])),
        data.get("mode", DISC_MODE),
    )
