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
    contact_pairs,
    points_in_convex_polygon,
    scene_from_json,
    scene_to_json,
    segment_clip_convex,
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

    Shapes are scanned in index order; a shape is dropped only when no witness
    point of depth 1 is found, searching exact uncovered boundary pieces first
    and then an interior grid of `resolution` x `resolution` samples.  The
    removed shapes are covered by the kept ones at the sampling resolution;
    that audit is logged if it ever fails.
    """
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    n = len(shapes)
    contacts = Graph(n, np.column_stack(contact_pairs(shapes)))
    ptr, idx = contacts.indptr.tolist(), contacts.indices.tolist()
    surviving = set(range(n))
    removed: list[int] = []
    for i in range(n):
        near = [shapes[j] for j in idx[ptr[i] : ptr[i + 1]] if j in surviving]
        if _depth_one_witness(shapes[i], near, resolution) is None:
            surviving.discard(i)
            removed.append(i)
    kept = sorted(surviving)
    for r in removed:
        pts = np.asarray(_sample_points(shapes[r], resolution))
        covered = np.zeros(len(pts), dtype=bool)
        for j in kept:
            covered |= _points_in_shape(shapes[j], pts)
            if covered.all():
                break
        if not covered.all():
            logger.warning(
                "pruned shape %d has a sample point not covered by the kept family; "
                "consider a finer resolution",
                r,
            )
    return kept, removed


def _points_in_shape(s, pts: np.ndarray) -> np.ndarray:
    if isinstance(s, Disc):
        return (pts[:, 0] - s.center.x) ** 2 + (pts[:, 1] - s.center.y) ** 2 <= s.radius * s.radius
    if isinstance(s, ConvexFatObject):
        return points_in_convex_polygon(s.xy(), pts)
    raise IncompatibleShapesError("pruning supports discs and convex polygons")


def _depth_one_witness(s, near: list, resolution: int):
    """A point of `s` covered by none of the shapes `near` it intersects, or None."""
    boundary = _uncovered_boundary_points(s, near)
    for stage in (boundary, _sample_points(s, resolution)):
        if not stage:
            continue
        pts = np.asarray(stage)
        alive = np.ones(len(pts), dtype=bool)
        for o in near:
            alive &= ~_points_in_shape(o, pts)
            if not alive.any():
                break
        if alive.any():
            x, y = pts[int(np.argmax(alive))]
            return (float(x), float(y))
    return None


def _uncovered_boundary_points(s, near: list) -> list[tuple[float, float]]:
    """Exact midpoints of the parts of the boundary of `s` covered by no
    neighbor; empty when the whole boundary is covered (or `s` is swallowed)."""
    if isinstance(s, Disc):
        cx, cy, r = s.center.x, s.center.y, s.radius
        if r == 0:
            return [(cx, cy)]
        arcs: list[tuple[float, float]] = []
        for o in near:
            if not isinstance(o, Disc):
                return []
            d = math.hypot(o.center.x - cx, o.center.y - cy)
            if d + r <= o.radius:
                return []  # s lies inside o entirely; no boundary escapes
            if d >= r + o.radius or d + o.radius <= r or o.radius == 0:
                continue
            cosa = (d * d + r * r - o.radius * o.radius) / (2 * d * r)
            alpha = math.acos(min(1.0, max(-1.0, cosa)))
            theta = math.atan2(o.center.y - cy, o.center.x - cx)
            arcs.append((theta - alpha, theta + alpha))
        free = _complement_circular(arcs)
        return [(cx + r * math.cos(0.5 * (a + b)), cy + r * math.sin(0.5 * (a + b))) for a, b in free]
    if isinstance(s, ConvexFatObject):
        xy = s.xy()
        out: list[tuple[float, float]] = []
        m = len(xy)
        for e in range(m):
            p0, p1 = xy[e], xy[(e + 1) % m]
            covered: list[tuple[float, float]] = []
            for o in near:
                if not isinstance(o, ConvexFatObject):
                    return []
                clip = segment_clip_convex(tuple(p0), tuple(p1), o.xy())
                if clip is not None and clip[1] > clip[0]:
                    covered.append(clip)
            for a, b in _complement_unit(covered):
                t = 0.5 * (a + b)
                out.append((p0[0] + t * (p1[0] - p0[0]), p0[1] + t * (p1[1] - p0[1])))
        return out
    raise IncompatibleShapesError("pruning supports discs and convex polygons")


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


def _sample_points(s, resolution: int) -> list[tuple[float, float]]:
    """Interior grid plus an inward-offset boundary ring."""
    pts: list[tuple[float, float]] = []
    if isinstance(s, Disc):
        cx, cy, r = s.center.x, s.center.y, s.radius
        if r == 0:
            return [(cx, cy)]
        shrink = r * (1.0 - 1.0 / (2 * resolution))
        for t in np.linspace(0, 2 * math.pi, 4 * resolution, endpoint=False):
            pts.append((cx + shrink * math.cos(t), cy + shrink * math.sin(t)))
        gx, gy = np.meshgrid(np.linspace(cx - r, cx + r, resolution), np.linspace(cy - r, cy + r, resolution))
        grid = np.column_stack([gx.ravel(), gy.ravel()])
        inside = (grid[:, 0] - cx) ** 2 + (grid[:, 1] - cy) ** 2 <= r * r
        pts.extend(map(tuple, grid[inside]))
        return pts
    if isinstance(s, ConvexFatObject):
        xy = s.xy()
        ax, ay = s.anchor.x, s.anchor.y
        shrink = 1.0 - 1.0 / (2 * resolution)
        m = len(xy)
        for e in range(m):
            p0, p1 = xy[e], xy[(e + 1) % m]
            for t in np.linspace(0.0, 1.0, resolution // 2 + 2):
                bx = p0[0] + t * (p1[0] - p0[0])
                by = p0[1] + t * (p1[1] - p0[1])
                pts.append((ax + shrink * (bx - ax), ay + shrink * (by - ay)))
        xmin, xmax, ymin, ymax = shape_bbox(s)
        gx, gy = np.meshgrid(np.linspace(xmin, xmax, resolution), np.linspace(ymin, ymax, resolution))
        grid = np.column_stack([gx.ravel(), gy.ravel()])
        pts.extend(map(tuple, grid[points_in_convex_polygon(xy, grid)]))
        return pts
    raise IncompatibleShapesError("pruning supports discs and convex polygons")


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
