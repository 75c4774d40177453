"""Verification runs once, at the public boundary.

Each public coloring entry point certifies its output exactly once; nested
work runs on unverified cores that share the caller's contacts.
"""
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
from cfgeom.hypergraph import (
    _closed_degree_total,
    _color_counts,
    _interval_census,
    _rect_labels_settle,
    _sorted_ends,
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
        # the vertices whose closed neighborhood in the graph has a color counted exactly once
        owners, members = g.arcs()
        edge_of, counts = _color_counts(np.asarray(colors), members, owners, g.n, diagonal=True)
        unique = _interval_census(_sorted_ends(scene.rows), np.unique(colors, return_inverse=True)[1])
        assert np.flatnonzero(unique).tolist() == sorted(set(edge_of[counts == 1].tolist()))
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
    # up to 30 shapes, or 63 to 200 so that color classes cross 64-bit words
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
@example("rects", GRID[:64], [0] * 200, 1)  # one class of exactly one word
@example("rects", GRID[:65], [0] * 200, 1)  # one class of one word and one bit
@example("rects", GRID[:129], [0] * 64 + [1] * 65 + [0] * 71, 0)  # classes of exactly 64 and 65
@example("rects", GRID, [0] * 150 + list(range(1, 51)), 0)  # a class of 150 spans three words
@example("rects", GRID, list(range(200)), 0)  # palette n: every class is one padded word
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
    unique = _interval_census(_sorted_ends(ends), colors)
    assert np.flatnonzero(unique).tolist() == sorted({v for (v, _), k in want.items() if k == 1})


def _verdicts_on_both_paths(scene, colors):
    """(violations, certify's error message or None) on an interval scene, with
    the rule n p <= n + D forced to the endpoint census, then to the contact pairs."""
    out = []
    for total in (2**62, -1 - len(scene)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cfgeom.hypergraph, "_closed_degree_total", lambda ends, total=total: total)
            bad = neighborhood_violations(scene, colors, "closed")
            try:
                certify(scene, cf.Coloring(tuple(colors)), "closed")
                message = None
            except cf.VerificationError as exc:
                message = str(exc)
        out.append((bad, message))
    return out


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
    assert _closed_degree_total(_sorted_ends(scene.rows)) == n + len(g.indices)  # two arcs per contact
    # round robin and in pairs (3 colors), then the colorer's own coloring
    colorings = [[k % 3 + 1 for k in range(n)], [k // 2 % 3 + 1 for k in range(n)]]
    colorings.append(list(cf.closed_cf_color_intervals(scene).colors))
    pairs = _spy(monkeypatch, cfgeom.geom, "_contact_hits")
    verdicts = set()
    for colors in colorings:
        want = neighborhood_violations(g, colors, "closed")
        by_census, by_pairs = _verdicts_on_both_paths(scene, colors)
        assert by_census == by_pairs and by_census[0] == want
        verdicts.add(by_census[1] is None)
        del pairs[:]
        assert neighborhood_violations(scene, colors, "closed") == want
        if len(set(colors)) == 3:
            assert bool(pairs) is not census
    assert verdicts == {True, False}  # each family is both accepted and rejected


@given(
    st.lists(st.tuples(half, side), min_size=1, max_size=30),
    st.lists(st.integers(1, 30), min_size=30, max_size=30),
    st.integers(1, 30),
)
@settings(max_examples=200, deadline=None)
def test_interval_verdict_is_the_same_on_both_census_paths_when_drawn(shapes, drawn, palette):
    scene = cf.Scene(tuple(cf.Interval(x, x + w) for x, w in shapes))
    colors = [d % palette + 1 for d in drawn[: len(scene)]]
    by_census, by_pairs = _verdicts_on_both_paths(scene, colors)
    assert by_census == by_pairs
    assert by_census[0] == neighborhood_violations(cf.intersection_graph(scene), colors, "closed")


@pytest.mark.parametrize("shapes", [GRID, DIAGONAL], ids=["grid", "diagonal"])
@pytest.mark.parametrize("block", [1, 2, 3])
def test_rect_census_carries_classes_across_blocks(monkeypatch, block, shapes):
    # blocks of 1-3 words split the classes of 64, 65 and 150 members
    monkeypatch.setattr(cfgeom.hypergraph, "_CENSUS_BLOCK_WORDS", block * len(shapes))
    scene = _scene("rects", shapes)
    rng = np.random.default_rng(block)
    for colors in (
        [1] * 200,
        [1] * 64 + [2] * 65 + [3] * 71,
        [1] * 150 + list(range(2, 52)),
        rng.permutation([1] * 150 + list(range(2, 52))).tolist(),
        list(range(200)),
        rng.integers(1, 5, 200).tolist(),
        list(COLORERS["rects"](scene).colors),
    ):
        _check_scene_census(scene, colors)


@pytest.mark.parametrize("block", [0, 1, 3])
def test_rect_census_pools_singleton_classes(monkeypatch, block):
    # random colorings with p = 3, n/2 and n colors: few large classes, many
    # small ones, and mostly singletons, which share words; blocks of 1 or 3
    # words split the shared group
    n = 600
    scene = cf.generate_scene("rects", n, 9, span=3.0, margin=0)
    if block:
        monkeypatch.setattr(cfgeom.hypergraph, "_CENSUS_BLOCK_WORDS", block * n)
    rng = np.random.default_rng(block)
    settled = set()
    for p in (3, n // 2, n):
        for _ in range(3):
            bad = _check_scene_census(scene, rng.integers(1, p + 1, n).tolist())
            settled.add(0 < len(bad) < n)
    assert True in settled


def test_rect_scenes_are_certified_without_pairs(monkeypatch):
    scene = cf.generate_scene("rects", 300, 5)

    def refuse(*args, **kwargs):
        raise AssertionError("a rectangle scene listed contact pairs")

    for name in ("contact_pairs", "_box_overlaps"):
        _replace(monkeypatch, cfgeom.geom, name, refuse)
    col = cf.closed_cf_color_rects(scene)
    assert neighborhood_violations(scene, col, "closed") == []
    assert neighborhood_violations(scene, [1] * len(scene), "closed")


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
    scene = cf.generate_scene("intervals", 10, 1)
    with pytest.raises(cf.VerificationError, match="colors 9 of 10 vertices"):
        certify(scene, cf.Coloring((1,) * 9), "closed")
    with pytest.raises(cf.InvalidInputError, match="closed mode only"):
        neighborhood_violations(scene, [1] * 10, "pointed")
    with pytest.raises(cf.IncompatibleShapesError):
        neighborhood_violations(cf.generate_scene("discs", 10, 1), [1] * 10, "closed")


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
    census = _spy(monkeypatch, cfgeom.hypergraph, "_rect_violations")
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
