"""Verification runs once, at the public boundary.

Each public coloring entry point certifies its output exactly once; nested
work runs on unverified cores that share the caller's contacts.
"""
import math
import sys
from collections import defaultdict
from functools import cached_property
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cfgeom as cf
import cfgeom.geom
import cfgeom.hypergraph
import cfgeom.probes
from axis_reference import reference_interval_census, reference_sorted_ends
from cfgeom.hypergraph import (
    _class_walk,
    _closed_degree_total,
    _color_counts,
    _interval_unsettled,
    _rect_labels_settle,
    certify,
    neighborhood_violations,
)
from peel_reference import reference_colorer


def _replace(monkeypatch, module, name, replacement):
    """Replace module.name in every cfgeom module that binds it; return the original."""
    original = getattr(module, name)
    for modname, mod in list(sys.modules.items()):
        if (modname == "cfgeom" or modname.startswith("cfgeom.")) and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, replacement)
    return original


def _spy(monkeypatch, module, name):
    """Count calls of module.name through every cfgeom module that binds it."""
    calls = []

    def spy(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    original = _replace(monkeypatch, module, name, spy)
    return calls


def _probe_system():
    vertices = cf.generate_scene("discs", 30, [1, 0])
    probes = cf.generate_scene("discs", 120, [1, 1], radius_range=(0.01, 0.3), margin=0)
    return cf.ProbeSystem(vertices, probes)


def _iteration_args(with_lists=False):
    ps = _probe_system()
    h = cf.probe_hypergraph(ps)
    pc = cf.peel_proper_colorer(ps.vertices, ps.probes)
    if not with_lists:
        return h, pc
    need = cf.cf_palette_bound(h.n, 6)
    return h, [[(v + j) % (2 * need) + 1 for j in range(need)] for v in range(h.n)], pc


def _pointed_discs():
    scene = cf.generate_scene("discs", 40, [2, 0])
    return cf.intersection_graph(scene), cf.pointed_cf_pseudodiscs(scene)


PENTAGONS = dict(rho=1.5, k=3.0, homothets_of=cf.pentagon_template(), base_size=0.05)

# name -> (setup returning the arguments, entry point)
ENTRY_POINTS = {
    "intervals": (lambda: (cf.generate_scene("intervals", 60, 3),), cf.closed_cf_color_intervals),
    "rects": (lambda: (cf.generate_scene("rects", 64, 4),), cf.closed_cf_color_rects),
    "fat-pointed": (lambda: (cf.generate_scene("fat", 40, 5, rho=2.0, k=4.0), 2.0, 4.0), cf.pointed_cf_color_fat),
    "fat-closed": (lambda: (cf.generate_scene("fat", 40, 5, rho=2.0, k=4.0), 2.0, 4.0), cf.closed_cf_color_fat),
    "proper-to-cf": (_iteration_args, cf.proper_to_cf),
    "list": (lambda: _iteration_args(with_lists=True), cf.proper_to_cf_list),
    "pointed-to-closed": (_pointed_discs, cf.pointed_to_closed),
    "probes": (lambda: (_probe_system(),), cf.cf_color_vs_probes),
    "pipeline-discs": (lambda: (cf.generate_scene("discs", 80, 6),), cf.pointed_cf_pseudodiscs),
    "pipeline-pentagons": (lambda: (cf.generate_scene("fat", 40, [4, 0], **PENTAGONS),), cf.pointed_cf_pseudodiscs),
}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_public_entry_point_certifies_once(monkeypatch, name):
    setup, entry = ENTRY_POINTS[name]
    args = setup()
    certified = _spy(monkeypatch, cfgeom.hypergraph, "certify")
    graphs = _spy(monkeypatch, cfgeom.hypergraph, "intersection_graph")
    hits = _spy(monkeypatch, cfgeom.probes, "_pairwise_hits")
    sweeps = _spy(monkeypatch, cfgeom.geom, "_box_overlaps")
    # `contact_pairs` sorts the pairs of `_contact_hits`, which every contact structure is built from
    contacts = _spy(monkeypatch, cfgeom.geom, "_contact_hits")
    built = []
    init = cfgeom.hypergraph.Graph.__init__
    monkeypatch.setattr(cfgeom.hypergraph.Graph, "__init__", lambda g, *a: built.append(g) or init(g, *a))
    out = entry(*args)
    assert len(certified) == 1
    # every entry point returns a bare Coloring carrying its trace
    assert isinstance(out, cf.Coloring) and isinstance(out.trace, cf.Trace)
    if out.trace.palette_bound is not None:
        assert out.palette_size <= out.trace.palette_bound
    if name in ("intervals", "rects"):
        # certified from the scene itself
        assert graphs == built == []
    if name in ("fat-closed", "pipeline-discs", "pipeline-pentagons"):
        assert len(graphs) == 1
    if name == "probes":
        assert len(hits) == 1
    if name.startswith("pipeline"):
        assert hits == []
    if name == "pipeline-pentagons":
        # the validation and the pruning half read their pairs off the scene's one graph
        assert len(sweeps) == len(contacts) == 1


def test_pentagon_pipeline_prunes():
    # the one-sweep count above covers the validation and the pruning half
    out = cf.pointed_cf_pseudodiscs(cf.generate_scene("fat", 40, [4, 0], **PENTAGONS))
    assert out.trace.vertices["pruned"]


def _count_builds(monkeypatch, name, label=lambda scene: scene.kind):
    """Count builds of the cached Scene array `name`, keeping it cached; each
    build is recorded as `label(scene)`."""
    build = cf.Scene.__dict__[name].func
    built = []
    counted = cached_property(lambda scene: built.append(label(scene)) or build(scene))
    counted.__set_name__(cf.Scene, name)
    monkeypatch.setattr(cf.Scene, name, counted)
    return built


def test_pipelines_build_each_scene_array_once(monkeypatch):
    # the validation, the contact graph, both halves and the pruning share one array form
    padded = _spy(monkeypatch, cfgeom.geom, "_padded_vertices")
    cf.pointed_cf_pseudodiscs(cf.generate_scene("fat", 40, [4, 0], **PENTAGONS))
    assert len(padded) == 1
    rows, boxes = _count_builds(monkeypatch, "rows"), _count_builds(monkeypatch, "boxes")
    scene = cf.generate_scene("discs", 80, 6)
    cf.pointed_to_closed(cf.intersection_graph(scene), cf.pointed_cf_pseudodiscs(scene))
    assert rows == boxes == ["discs"]


def test_probe_system_builds_its_combined_scene_once(monkeypatch):
    # pseudo-disc mode validates vertices and probes as one family on every call
    scene = cf.generate_scene("fat", 30, [4, 1], **PENTAGONS)
    ps = cf.ProbeSystem(scene.subscene(range(20)), scene.subscene(range(20, 30)), cfgeom.probes.PSEUDODISC_MODE)
    rows = _count_builds(monkeypatch, "rows", label=len)
    hypergraphs = [cf.probe_hypergraph(ps) for _ in range(3)]
    assert rows.count(30) == 1
    assert all(np.array_equal(h.indices, hypergraphs[0].indices) for h in hypergraphs)


@pytest.mark.parametrize("name", ["probes", "list", "proper-to-cf", "pipeline-discs", "pipeline-pentagons"])
def test_hot_paths_never_build_the_edge_view(monkeypatch, name):
    setup, entry = ENTRY_POINTS[name]
    args = setup()
    built = []
    view = cfgeom.hypergraph.Hypergraph.edges
    monkeypatch.setattr(cfgeom.hypergraph.Hypergraph, "edges", property(lambda h: built.append(h) or view.func(h)))
    entry(*args)
    assert built == []


def _supplied(args):
    """The iteration's arguments with the peel engine replaced by the reference colorer."""
    return args[:-1] + (reference_colorer(),)


# name -> (setup, entry point), each running the largest-class iteration
ROUNDS = {
    "proper-to-cf": ENTRY_POINTS["proper-to-cf"],
    "list": ENTRY_POINTS["list"],
    "probes": ENTRY_POINTS["probes"],
    "pipeline-discs": ENTRY_POINTS["pipeline-discs"],
    "pipeline-pentagons": ENTRY_POINTS["pipeline-pentagons"],
    "supplied": (lambda: _supplied(_iteration_args()), cf.proper_to_cf),
    "supplied-list": (lambda: _supplied(_iteration_args(with_lists=True)), cf.proper_to_cf_list),
}


@pytest.mark.parametrize("name", sorted(ROUNDS))
def test_colorer_output_checked_every_round(monkeypatch, name):
    # each round of the largest-class iteration checks a supplied colorer's
    # proper coloring exactly once, through `induced` and `verify_proper`; the
    # peel engine's rounds are not checked, and the entry point certifies once
    setup, entry = ROUNDS[name]
    args = setup()
    checks = _spy(monkeypatch, cfgeom.hypergraph, "verify_proper")
    rounds = _spy(monkeypatch, cfgeom.hypergraph, "induced")
    certified = _spy(monkeypatch, cfgeom.hypergraph, "certify")
    peeled = []
    peel = cfgeom.probes._ProbeEngine._peel
    monkeypatch.setattr(cfgeom.probes._ProbeEngine, "_peel", lambda e, *a: peeled.append(a) or peel(e, *a))
    out = entry(*args)
    assert len(certified) == 1
    if name.startswith("pipeline"):
        assert len(peeled) == sum(len(orders) for orders in out.trace.peels.values()) > 2
    else:
        # one round per final color: the list iteration strikes each color it gives
        assert len(peeled) == out.palette_size > 1
    if name.startswith("supplied"):
        assert len(checks) == len(rounds) == out.palette_size
    else:
        assert checks == rounds == []


# peels of a round's vertices `ids`, given their live members, as `_ProbeEngine._peel` takes them
IMPROPER_PEELS = {
    "one color": lambda engine, ids, *live: ({v: 1 for v in ids.tolist()}, None),
    "color out of range": lambda engine, ids, *live: ({v: 7 for v in ids.tolist()}, None),
    "uncolored": lambda engine, ids, *live: ({}, None),
}

@pytest.mark.parametrize("name", sorted(IMPROPER_PEELS))
def test_improper_peel_breaks_the_probe_iteration(monkeypatch, name):
    # no round checks its peel: each engine-backed entry point's one certification stops a bad peel
    monkeypatch.setattr(cfgeom.probes._ProbeEngine, "_peel", IMPROPER_PEELS[name])
    certified = _spy(monkeypatch, cfgeom.hypergraph, "certify")
    for entry_name in ("probes", "proper-to-cf", "list", "pipeline-discs"):
        setup, entry = ENTRY_POINTS[entry_name]
        args = setup()
        certified.clear()
        with pytest.raises(cf.VerificationError):
            entry(*args)
        assert len(certified) == 1


def test_oracle_certifies_each_witness_once(monkeypatch):
    certified = _spy(monkeypatch, cfgeom.hypergraph, "certify")
    for calls, n in enumerate((1, 2, 4, 8), start=1):
        t, witness = cf.min_cf_colors_bruteforce(cf.all_intervals_hypergraph(n), 8)
        assert witness.palette_size == t
        assert len(certified) == calls
    assert cf.min_cf_colors_bruteforce(cf.all_intervals_hypergraph(4), 2) is None
    assert len(certified) == 4


# ---------------------------------------------------------------------------
# certifying interval and rectangle scenes without a graph
# ---------------------------------------------------------------------------

half = st.integers(0, 16).map(lambda k: k / 2)
wide = st.integers(0, 400).map(lambda k: k / 2)
side = st.integers(0, 6).map(lambda k: k / 2)
COLORERS = {"intervals": cf.closed_cf_color_intervals, "rects": cf.closed_cf_color_rects}


def _scene(kind, shapes):
    if kind == "intervals":
        return cf.Scene(tuple(cf.Interval(x, x + w) for x, w, _, _ in shapes))
    return cf.Scene(tuple(cf.AARect(x, x + w, y, y + h) for x, w, y, h in shapes))


def _check_scene_census(scene, colors):
    """The scene census finds the violations the graph finds, and certify
    rejects exactly the colorings with violations."""
    bad = neighborhood_violations(scene, colors, "closed")
    g = cf.intersection_graph(scene)
    assert bad == neighborhood_violations(g, colors, "closed")
    if scene.kind == "intervals":
        # the vertices whose closed neighborhood in the graph has no color counted exactly once
        owners, members = g.arcs()
        classes = np.unique(colors, return_inverse=True)[1]
        edge_of, counts = _color_counts(classes, members, owners, g.n, diagonal=True)
        unsettled = _interval_unsettled(scene.rows, classes)
        assert unsettled == sorted(set(range(g.n)) - set(edge_of[counts == 1].tolist()))
    coloring = cf.Coloring(tuple(colors))
    if bad:
        with pytest.raises(cf.VerificationError, match="closed neighborhoods"):
            certify(scene, coloring, "closed")
    else:
        assert certify(scene, coloring, "closed") is coloring
    return bad


# 200 rectangles on the half grid, with tied coordinates and touching edges;
# densely packed, or along a diagonal where each meets at most three others
GRID = [(k % 17 / 2, k % 7 / 2, k * 7 % 17 / 2, k * 3 % 7 / 2) for k in range(200)]
DIAGONAL = [(k / 2, k % 3 / 2, k / 2 + k % 2, k % 5 / 2) for k in range(200)]


@given(
    st.sampled_from(sorted(COLORERS)),
    # up to 30 shapes, or 63 to 200 so that color classes grow large
    st.lists(st.tuples(half, side, half, side), min_size=1, max_size=30)
    | st.lists(st.tuples(wide, side, wide, side), min_size=63, max_size=200),
    st.none() | st.lists(st.integers(0, 10**6), min_size=200, max_size=200),
    st.sampled_from([4, 1, 3, 200, 0]),  # 0: as many colors as vertices
)
@example("intervals", [(0, 0, 0, 0)], None, 4)  # n = 1
@example("intervals", [(0, 1, 0, 0), (1, 1, 0, 0), (2, 1, 0, 0)], [0] * 30, 4)  # touching closed ends
@example("intervals", [(k, 1, 0, 0) for k in range(10)], list(range(30)), 0)  # touching, all distinct: by pairs
@example("intervals", [(1, 2, 0, 0)] * 3 + [(3, 0, 0, 0)], [0, 1, 1, 2] + [0] * 26, 4)  # repeats
@example("intervals", [(1, 2, 0, 0)] * 4, list(range(30)), 0)  # all tied: the census is no larger than the pairs
@example("intervals", [(k / 2, 1, 0, 0) for k in range(30)], list(range(0, 3000, 100)), 200)
@example("intervals", [(1, 2, 0, 0)] * 3 + [(3, 0, 0, 0)], [0] * 30, 1)
@example("rects", [(0, 0, 0, 0)], None, 4)
@example("rects", [(0, 1, 0, 1), (1, 1, 1, 1), (0, 1, 1, 1)], [0] * 30, 4)  # touching edges and corners
@example("rects", [(0, 2, 0, 2)] * 2 + [(2, 1, 0, 2)], [0, 1] + [0] * 28, 4)  # repeats
@example("rects", GRID[:63], None, 4)
@example("rects", GRID[:64], [0] * 200, 1)  # one class of 64
@example("rects", GRID[:65], [0] * 200, 1)  # one class of 65
@example("rects", GRID[:129], [0] * 64 + [1] * 65 + [0] * 71, 0)  # classes of 64 and 65
@example("rects", GRID, [0] * 150 + list(range(1, 51)), 0)  # a class of 150 and 50 singletons
@example("rects", GRID, list(range(200)), 0)  # palette n: every class a singleton
@example("rects", GRID, [k // 3 for k in range(200)], 0)  # classes of 3 and 2
@example("rects", GRID, None, 0)
@example("rects", DIAGONAL, [0] * 150 + list(range(1, 51)), 0)
@example("rects", DIAGONAL, [k % 3 for k in range(200)], 0)
@settings(max_examples=300, deadline=None)
def test_scene_census_matches_graph(kind, shapes, drawn, palette):
    # on the colorer's own output, or on a drawn coloring with 1, 3, 4, 200 or n
    # colors, usually with violations
    scene = _scene(kind, shapes)
    p = palette or len(scene)
    colors = list(COLORERS[kind](scene).colors) if drawn is None else [d % p + 1 for d in drawn[: len(scene)]]
    bad = _check_scene_census(scene, colors)
    assert drawn is not None or bad == []


SCENE_KINDS = ("discs", "intervals", "rects", "polygons", "discs+polygons")


def _drawn_shape(kind, k, a, b, c, d):
    """Shape k of a drawn family of `kind`, placed at a (and c) and sized by b
    (and d), all half-integers; polygons are regular 3- to 8-gons with a
    vertex due east of the center, so the squares are diamonds with
    half-integer corners.  A mix alternates discs and polygons."""
    if kind == "discs+polygons":
        kind = ("discs", "polygons")[k % 2]
    if kind == "intervals":
        return cf.Interval(a, a + b)
    if kind == "rects":
        return cf.AARect(a, a + b, c, c + d)
    if kind == "discs":
        return cf.Disc(cf.Point(a, c), b)
    m, r = 3 + int(2 * d) % 6, b + 0.5
    turns = [2 * math.pi * i / m for i in range(m)]
    corners = tuple(cf.Point(a + r * math.cos(t), c + r * math.sin(t)) for t in turns)
    return cf.ConvexFatObject(corners, cf.Point(a, c), 0.999 * r * math.cos(math.pi / m), 1.001 * r)


def _certify_message(contacts, colors, mode):
    try:
        certify(contacts, cf.Coloring(tuple(colors)), mode)
    except cf.VerificationError as exc:
        return str(exc)
    return None


# drawn colors for the 200-shape examples, reduced to p = 3, n/2 and n colors
DRAWN = np.random.default_rng(3).integers(0, 10**6, 200).tolist()


@given(
    st.sampled_from(SCENE_KINDS),
    st.lists(st.tuples(half, side, half, side), min_size=1, max_size=30),
    st.lists(st.integers(0, 10**6), min_size=200, max_size=200),
    st.sampled_from([1, 3, -2, -1]),  # -2: n/2 colors, -1: n colors
    st.sampled_from(["pointed", "closed"]),
)
@example("discs", [(0, 0, 0, 0)], DRAWN, 1, "pointed")  # n = 1, an empty N(v)
@example("discs", [(0, 1, 0, 0), (2, 1, 0, 0), (4, 1, 0, 0)], [0] * 200, 1, "closed")  # tangent discs
@example("polygons", [(0, 0.5, 0, 1), (2, 0.5, 0, 1), (1, 0, 1, 0)], [0, 1, 0] + DRAWN[3:], 3, "pointed")  # corners
@example("discs+polygons", [(0, 0.5, 0, 0), (1.5, 0, 0, 0.5)] * 3, DRAWN, -1, "closed")
@example("intervals", [(k, 1, 0, 0) for k in range(10)], DRAWN, -1, "pointed")
@example("rects", GRID, DRAWN, 3, "closed")
@example("rects", GRID, DRAWN, -2, "closed")
@example("rects", GRID, DRAWN, -1, "closed")
@example("rects", DIAGONAL, DRAWN, 3, "closed")
@example("rects", DIAGONAL, DRAWN, -2, "closed")
@example("rects", DIAGONAL, DRAWN, -1, "closed")
@example("rects", GRID, DRAWN, -2, "pointed")
@example("rects", DIAGONAL, DRAWN, 3, "pointed")
@settings(max_examples=300, deadline=None)
def test_scene_census_equals_graph_census(kind, shapes, drawn, palette, mode):
    # every kind of scene, in both modes, has the violations and the certify message of its intersection graph
    scene = cf.Scene(tuple(_drawn_shape(kind, k, *shape) for k, shape in enumerate(shapes)))
    n = len(scene)
    p = palette if palette > 0 else max(n // -palette, 1)
    colors = [d % p + 1 for d in drawn[:n]]
    g = cf.intersection_graph(scene)
    assert neighborhood_violations(scene, colors, mode) == neighborhood_violations(g, colors, mode)
    assert _certify_message(scene, colors, mode) == _certify_message(g, colors, mode)


@given(
    st.lists(st.tuples(half, side, st.integers(0, 3), st.integers(0, 2)), max_size=40),
    st.booleans(),
)
@example([], False)
@example([(1, 0, 0, 0)] * 3 + [(1, 1, 0, 0), (1.5, 0, 1, 0)], False)  # repeated points, a point on an end
@example([(0, 1, 0, 0), (1, 1, 0, 0), (2, 0, 1, 0), (1, 1, 0, 1), (0, 1, 0, 1)], True)  # touching ends, two nodes
@example([(k / 2, 1, k % 2, k % 3) for k in range(20)], True)
@settings(max_examples=300, deadline=None)
def test_interval_census_is_the_brute_force_count(rows, keyed):
    # v is marked when some color has exactly one interval meeting the closed interval of v; keyed, the
    # endpoints become node * V + rank of the endpoint (as the rectangle labels' step (c) keys them), and
    # only intervals of v's own node count
    ends = np.array([(x, x + w) for x, w, _, _ in rows], dtype=float).reshape(-1, 2)
    colors = np.array([c for _, _, c, _ in rows], dtype=np.int64)
    node = np.array([d for _, _, _, d in rows], dtype=np.int64)
    if keyed:
        values, rank = np.unique(ends, return_inverse=True)
        ends = rank.reshape(-1, 2) + (node * len(values))[:, None]
    want = defaultdict(int)
    for v, (lo, hi) in enumerate(ends.tolist()):
        for j, (lo_j, hi_j) in enumerate(ends.tolist()):
            if lo_j <= hi and lo <= hi_j and (not keyed or node[j] == node[v]):
                want[v, colors[j]] += 1
    unsettled = _interval_unsettled(ends, colors)
    assert unsettled == sorted(set(range(len(ends))) - {v for (v, _), k in want.items() if k == 1})


ZEROS = [-1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.0]  # ends with ties, touching ends and both signed zeros


@given(
    st.lists(
        st.tuples(st.sampled_from(ZEROS), st.sampled_from(ZEROS), st.integers(0, 59), st.integers(0, 2)), max_size=60
    ),
    st.sampled_from([1, 2, 3, 0]),  # 0: as many colors as intervals
    st.booleans(),
    # the walk's budget per interval and per class: as set, none, part of the classes, every class
    st.sampled_from([None, (0, 0), (6, 0), (12, 0), (10**9, 0)]),
)
# the largest class settles the last interval alone
@example([(0.0, 1.0, 0, 0), (0.0, 1.0, 1, 0), (0.0, 1.0, 1, 0), (2.0, 2.0, 1, 0)], 0, False, (10**9, 0))
@example([(-0.0, 0.0, k, 0) for k in range(4)] + [(0.0, -0.0, 0, 0)], 2, False, (10**9, 0))  # signed zeros meet
@example([(-1.0, -0.0, 0, 0), (0.0, 1.0, 1, 0), (0.0, 1.0, 1, 0), (-1.0, -0.0, 2, 0)], 3, True, (6, 0))
@example([(k % 3 / 2, k % 3 / 2 + 1, k, k % 2) for k in range(40)], 0, True, None)
@example([(k % 5 / 2, 2.0, k, 0) for k in range(60)], 3, False, (12, 0))  # classes of 20 on both sides of the budget
@settings(max_examples=300, deadline=None)
def test_interval_count_matches_the_reference_census(rows, palette, keyed, budget):
    # the smallest-class-first count finds the intervals the census of every class over every
    # interval finds, and those a brute-force count finds, on plain ends and on node * V + rank keys
    ends = np.array([sorted((a, b)) for a, b, _, _ in rows], dtype=float).reshape(-1, 2)
    n = len(ends)
    p = palette or max(n, 1)
    colors = np.unique(np.array([c % p for _, _, c, _ in rows], dtype=np.int64), return_inverse=True)[1]
    node = np.array([d for _, _, _, d in rows], dtype=np.int64)
    if keyed:
        values, rank = np.unique(ends, return_inverse=True)
        ends = rank.reshape(-1, 2) + (node * len(values))[:, None]
    same_node = node[:, None] == node[None, :]
    meets = [
        [j for j in range(n) if ends[j, 0] <= ends[v, 1] and ends[v, 0] <= ends[j, 1] and (same_node[v, j] or not keyed)]
        for v in range(n)
    ]
    brute = [v for v in range(n) if 1 not in np.bincount(colors[meets[v]])]
    reference = np.flatnonzero(~reference_interval_census(reference_sorted_ends(ends), colors)).tolist()
    with pytest.MonkeyPatch.context() as mp:
        if budget is not None:
            _walk_budget(mp, *budget)
        assert _interval_unsettled(ends, colors) == reference == brute


@pytest.mark.parametrize("n", [12000, 20000])
def test_interval_count_stops_once_its_classes_settle_few(n):
    # a random 3-coloring is priced past the census before any class is counted, and no vertex is
    # listed.  With about one color per interval a class settles little more than its own neighbors:
    # over at most 8192 vertices not alone in their class the walk counts one class and stops; over
    # more, the first class settles too few of a sample of them, and none is counted
    rng = np.random.default_rng(1)
    scene = cf.generate_scene("intervals", n, 5, span=n / 25, margin=0)
    g = cf.intersection_graph(scene)
    assert _class_walk(scene.rows, rng.integers(0, 3, n))[0] is None
    colors = rng.integers(1, n + 1, n)
    classes = np.unique(colors, return_inverse=True)[1]
    sizes = np.bincount(classes)
    assert (np.count_nonzero(sizes[classes] > 1) > 8192) == (n > 12000)
    left, rest = _class_walk(scene.rows, classes)
    counted = sorted(set(range(len(sizes))) - set(rest.tolist()))
    assert len(counted) == (n <= 12000)
    owners, members = g.arcs()
    met = np.bincount(owners[np.isin(classes[members], counted)], minlength=n) + np.isin(classes, counted)  # in N[v]
    assert left.tolist() == np.flatnonzero((sizes[classes] > 1) & (met != 1)).tolist()
    assert neighborhood_violations(scene, colors, "closed") == neighborhood_violations(g, colors, "closed")


def test_axis_colorings_are_certified_by_their_smallest_classes(monkeypatch):
    # the two chain classes settle every vertex of a chain coloring, and the two chain slots every
    # vertex of the rectangle labels' step (c): no endpoint sort of the family, no contact pairs
    def refuse(*args, **kwargs):
        raise AssertionError("an axis coloring was certified past its smallest classes")

    for name in ("_contact_hits", "_box_overlaps"):
        _replace(monkeypatch, cfgeom.geom, name, refuse)
    _replace(monkeypatch, cfgeom.hypergraph, "_sorted_ends", refuse)
    for n in (1, 2, 60, 400, 2000):
        cf.closed_cf_color_intervals(cf.generate_scene("intervals", n, 3, margin=0))
    for n in (1, 64, 1024):
        cf.closed_cf_color_rects(cf.generate_scene("rects", n, 4, margin=0))


def test_empty_scene_has_no_violations():
    # as on the empty graph; an empty scene's kind is 'mixed'
    scene, coloring = cf.Scene(()), cf.Coloring(())
    graph = cf.intersection_graph(scene)
    assert neighborhood_violations(scene, [], "closed") == neighborhood_violations(graph, [], "closed") == []
    assert certify(scene, coloring, "closed") is coloring


def _verdicts_on_both_paths(scene, colors, walk=0):
    """(violations, certify's error message or None) on an interval scene, with
    the rule u p' <= u + D forced to the endpoint census, then to the contact
    pairs, for the vertices the walk leaves.  The walk's budget is `walk`
    steps per interval and none per class: 0 counts no class and leaves the
    rule every vertex not alone in its class."""
    out = []
    for total in (2**62, -1 - len(scene)):
        with pytest.MonkeyPatch.context() as mp:
            _walk_budget(mp, walk)
            mp.setattr(cfgeom.hypergraph, "_closed_degree_total", lambda *ends, total=total: total)
            bad = neighborhood_violations(scene, colors, "closed")
            try:
                certify(scene, cf.Coloring(tuple(colors)), "closed")
                message = None
            except cf.VerificationError as exc:
                message = str(exc)
        out.append((bad, message))
    return out


def _walk_budget(mp, per_interval, per_class=0):
    mp.setattr(cfgeom.hypergraph, "_WALK_PER_INTERVAL", per_interval)
    mp.setattr(cfgeom.hypergraph, "_WALK_PER_CLASS", per_class)


def _lists_pairs(colors, g, walk):
    """Whether an interval scene's count lists contact pairs, with the walk's
    budget `walk` steps per interval: 10**9 counts every class, so never; 0
    counts none and leaves the rule u p <= u + D the u vertices not alone in
    their class, for D the sum of their closed-neighborhood sizes in `g`."""
    classes = np.unique(colors, return_inverse=True)[1]
    left = np.flatnonzero(np.bincount(classes)[classes] > 1)
    d = len(left) + int(np.diff(g.indptr)[left].sum())
    return walk == 0 and len(left) * (classes.max() + 1) > len(left) + d


# n intervals with |E| contacts, so D = n + 2|E|; a coloring of p = 3 colors takes the
# endpoint census when 3n <= n + D, that is when 2|E| >= n
RULE_FAMILIES = {
    "on the rule, census": ([(0, 1), (1, 2), (3, 4), (4, 5), (6, 7), (7, 8)], True),  # n 6, |E| 3, D 12
    "two below, pairs": ([(0, 1), (1, 2), (3, 4), (4, 5), (6, 7), (9, 10)], False),  # n 6, |E| 2, D 10
    "one above, census": ([(0, 1), (1, 2), (2, 3), (5, 6), (6, 7), (9, 10), (10, 10)], True),  # n 7, |E| 4, D 15
    "one below, pairs": ([(0, 1), (1, 2), (2, 3), (5, 6), (6, 7), (9, 10), (12, 12)], False),  # n 7, |E| 3, D 13
}


@pytest.mark.parametrize("name", sorted(RULE_FAMILIES))
def test_interval_verdict_is_the_same_on_both_census_paths(monkeypatch, name):
    ends, census = RULE_FAMILIES[name]
    scene = cf.Scene(tuple(cf.Interval(lo, hi) for lo, hi in ends))
    n, g = len(scene), cf.intersection_graph(scene)
    lo, hi = np.sort(scene.rows, axis=0).T
    assert _closed_degree_total(lo, hi, lo, hi) == n + len(g.indices)  # two arcs per contact
    # round robin and in pairs (3 colors), then the colorer's own coloring
    colorings = [[k % 3 + 1 for k in range(n)], [k // 2 % 3 + 1 for k in range(n)]]
    colorings.append(list(cf.closed_cf_color_intervals(scene).colors))
    pairs = _spy(monkeypatch, cfgeom.geom, "_contact_hits")
    verdicts = set()
    for colors in colorings:
        want = neighborhood_violations(g, colors, "closed")
        for walk in (0, 8, 10**6):
            by_census, by_pairs = _verdicts_on_both_paths(scene, colors, walk)
            assert by_census == by_pairs and by_census[0] == want
            verdicts.add(by_census[1] is None)
        assert neighborhood_violations(scene, colors, "closed") == want
        for walk in (0, 10**9):
            with pytest.MonkeyPatch.context() as mp:
                _walk_budget(mp, walk)
                del pairs[:]
                assert neighborhood_violations(scene, colors, "closed") == want
                # pairs are listed exactly when the rule holds for what the walk leaves
                assert bool(pairs) == _lists_pairs(colors, g, walk)
                if walk == 0 and min(np.unique(colors, return_counts=True)[1]) > 1 and len(set(colors)) == 3:
                    assert bool(pairs) is not census  # no class counted, no vertex alone: all reach the rule
    assert verdicts == {True, False}  # each family is both accepted and rejected


@given(
    st.lists(st.tuples(half, side), min_size=1, max_size=30),
    st.lists(st.integers(1, 30), min_size=30, max_size=30),
    st.integers(1, 30),
    st.sampled_from([0, 8, 10**6]),
)
@settings(max_examples=200, deadline=None)
def test_interval_verdict_is_the_same_on_both_census_paths_when_drawn(shapes, drawn, palette, walk):
    scene = cf.Scene(tuple(cf.Interval(x, x + w) for x, w in shapes))
    colors = [d % palette + 1 for d in drawn[: len(scene)]]
    by_census, by_pairs = _verdicts_on_both_paths(scene, colors, walk)
    assert by_census == by_pairs
    assert by_census[0] == neighborhood_violations(cf.intersection_graph(scene), colors, "closed")


def test_rect_scenes_are_certified_without_pairs(monkeypatch):
    scene = cf.generate_scene("rects", 300, 5)

    def refuse(*args, **kwargs):
        raise AssertionError("a rectangle scene listed contact pairs")

    for name in ("contact_pairs", "_box_overlaps"):
        _replace(monkeypatch, cfgeom.geom, name, refuse)
    col = cf.closed_cf_color_rects(scene)
    assert certify(scene, col, "closed") is col


def test_scene_census_rejects_random_colorings():
    rng = np.random.default_rng(7)
    rejected = 0
    for i in range(200):
        kind = sorted(COLORERS)[i % 2]
        n = int(rng.integers(1, 60))
        shapes = np.column_stack([rng.integers(0, 40, n) / 2, rng.integers(0, 8, n) / 2] * 2)
        scene = _scene(kind, shapes.tolist())
        rejected += bool(_check_scene_census(scene, rng.integers(1, 4, n).tolist()))
    assert rejected > 100


def test_certify_scene_rejects_wrong_length_and_other_kinds():
    # a coloring of the wrong length is rejected; pointed mode and a disc scene are counted as their graphs are
    scene, discs = cf.generate_scene("intervals", 10, 1), cf.generate_scene("discs", 10, 1)
    with pytest.raises(cf.VerificationError, match="colors 9 of 10 vertices"):
        certify(scene, cf.Coloring((1,) * 9), "closed")
    for s, mode in ((scene, "pointed"), (discs, "closed")):
        assert neighborhood_violations(s, [1] * 10, mode) == neighborhood_violations(cf.intersection_graph(s), [1] * 10, mode)


# certifying rectangle colorings from their recursion's node labels
# ---------------------------------------------------------------------------


def _node_extents(rows, nodes):
    """node -> the closed x-extent [min xmin, max xmax] of its rectangles."""
    ext = {}
    for (lo, hi, _, _), x in zip(rows, nodes):
        a, b = ext.get(x, (lo, hi))
        ext[x] = (min(a, lo), max(b, hi))
    return ext


def _label_checks(scene, colors, nodes):
    """The label certificate's conditions, in the order it tests them, by
    loops over the rectangles: (a) each node's rectangles share a vertical
    line; no node holds more than three classes; (b) the closed x-extents of
    the nodes holding each class are pairwise disjoint; (c) every vertex has
    a class with exactly one member in its node whose y-range meets its own."""
    r = scene.rows.tolist()
    members = defaultdict(list)
    for i, v in enumerate(nodes):
        members[v].append(i)
    ext = _node_extents(r, nodes)
    holders = defaultdict(set)
    for c, v in zip(colors, nodes):
        holders[c].add(v)

    def settled(v):
        m = members[nodes[v]]
        meet = [colors[i] for i in m if r[i][2] <= r[v][3] and r[v][2] <= r[i][3]]
        return any(meet.count(c) == 1 for c in meet)

    return {
        "a": all(max(r[i][0] for i in m) <= min(r[i][1] for i in m) for m in members.values()),
        "three": all(len({colors[i] for i in m}) <= 3 for m in members.values()),
        "b": all(ext[p][1] < ext[q][0] or ext[q][1] < ext[p][0] for hs in holders.values() for p, q in combinations(hs, 2)),
        "c": all(settled(v) for v in range(len(colors))),
    }


def _check_labels(scene, colors, nodes):
    """The label certificate holds exactly when its conditions do, and only
    on colorings the census accepts; certify with the labels gives the
    census's verdict and message.  Returns the first condition that fails."""
    checks = _label_checks(scene, colors, nodes)
    settled = _rect_labels_settle(scene.rows, np.asarray(colors), nodes)
    assert settled == all(checks.values()), checks
    bad = _check_scene_census(scene, colors)
    assert not (settled and bad)
    labelled = cf.Coloring(tuple(colors), trace=cf.Trace(None, {"node": list(nodes)}))
    if bad:
        with pytest.raises(cf.VerificationError) as census:
            certify(scene, cf.Coloring(tuple(colors)), "closed")
        with pytest.raises(cf.VerificationError) as labels:
            certify(scene, labelled, "closed")
        assert str(labels.value) == str(census.value)
    else:
        assert certify(scene, labelled, "closed") is labelled
    return next((name for name, ok in checks.items() if not ok), None)


def _perturbed(scene, colors, nodes, rng):
    """(name, scene, colors, nodes) for each perturbation of a labelled
    coloring that applies to it."""
    n = len(colors)
    r = scene.rows.tolist()
    held = defaultdict(set)
    for c, v in zip(colors, nodes):
        held[v].add(c)
    v = int(rng.integers(n))
    others = sorted(held[nodes[v]] - {colors[v]}) or sorted(set(colors) - {colors[v]})
    if others:
        yield "color", scene, colors[:v] + [others[int(rng.integers(len(others)))]] + colors[v + 1 :], nodes
    if len(held) > 1:
        p, q = rng.choice(sorted(held), 2, replace=False).tolist()
        yield "merge", scene, colors, [p if x == q else x for x in nodes]
        yield "move", scene, colors, nodes[:v] + [next(x for x in sorted(held) if x != nodes[v])] + nodes[v + 1 :]
    ext = _node_extents(r, nodes)
    for c in sorted(set(colors)):
        holders = sorted({x for x, cc in zip(nodes, colors) if cc == c}, key=lambda x: ext[x])
        if len(holders) > 1:  # stretch the member at the left node's right end to the right node
            left, right = holders[:2]
            i = next(i for i in range(n) if nodes[i] == left and r[i][1] == ext[left][1])
            box = list(scene)
            box[i] = cf.AARect(r[i][0], ext[right][0], r[i][2], r[i][3])
            yield "touch", cf.Scene(tuple(box)), colors, nodes
            break
    full = [x for x in sorted(held) if len(held[x]) == 3]
    if full:
        i = nodes.index(full[0])
        yield "fourth", scene, colors[:i] + [max(colors) + 1] + colors[i + 1 :], nodes


def _colored(scene):
    col = cf.closed_cf_color_rects(scene)
    return list(col.colors), col.trace.vertices["node"]


@given(
    st.lists(st.tuples(half, side, half, side), min_size=1, max_size=40),
    st.integers(0, 2**32 - 1),
    st.sampled_from([2, 3, 6]),
)
@example([(0, 1, 0, 1), (1, 1, 1, 1), (0, 1, 1, 1), (1, 0, 0, 2)], 0, 3)  # touching edges and corners
@example([(0, 2, 0, 2)] * 3 + [(2, 1, 0, 2)] * 2 + [(4, 1, 0, 2)], 1, 3)  # repeats
@example([(k / 2, 1, k % 3 / 2, 1) for k in range(16)], 2, 3)  # lines through touching edges
@settings(max_examples=200, deadline=None)
def test_label_certificate_agrees_with_census_on_half_grids(shapes, seed, palette):
    # the colorer's own labels always prove its coloring; each perturbation,
    # and a random coloring of 2, 3 or 6 colors under the colorer's labels
    # (usually with violations), either still proves a valid coloring or
    # leaves the census to decide
    scene = _scene("rects", shapes)
    colors, nodes = _colored(scene)
    assert _check_labels(scene, colors, nodes) is None
    rng = np.random.default_rng(seed)
    for _name, *case in _perturbed(scene, colors, nodes, rng):
        _check_labels(*case)
    _check_labels(scene, rng.integers(1, palette + 1, len(scene)).tolist(), nodes)


def test_label_certificate_checks_each_catch_a_perturbation():
    # criterion 2's families and the dense and diagonal grids, each perturbed
    # five ways; each check of the certificate is the first to fail somewhere
    scenes = [cf.generate_scene("rects", (16, 64, 256, 1024)[i % 4], [2, i], margin=0) for i in range(0, 200, 23)]
    scenes += [_scene("rects", GRID), _scene("rects", DIAGONAL)]
    caught = defaultdict(set)
    for k, scene in enumerate(scenes):
        colors, nodes = _colored(scene)
        assert _check_labels(scene, colors, nodes) is None
        for name, *case in _perturbed(scene, colors, nodes, np.random.default_rng(k)):
            caught[_check_labels(*case)].add(name)
    assert {"a", "three", "b", "c"} <= set(caught), dict(caught)


def test_colorer_outputs_are_certified_from_their_labels(monkeypatch):
    # the census runs only when labels are absent or prove nothing
    census = _spy(monkeypatch, cfgeom.hypergraph, "_scene_arc_violations")
    for seed, n in ((0, 1), (1, 64), (2, 700)):
        scene = cf.generate_scene("rects", n, seed)
        col = cf.closed_cf_color_rects(scene)
        assert census == []
        for labels in (None, [0] * n, [0.0] * n, list(range(n + 1))):
            stripped = cf.Coloring(col.colors, trace=cf.Trace(None, {} if labels is None else {"node": labels}))
            assert certify(scene, stripped, "closed") is stripped
        # all in one node proves nothing unless the rectangles share a line, as the one of n = 1 does
        assert len(census) == 4 - (n == 1)
        census.clear()
