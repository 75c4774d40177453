import inspect
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from peel_reference import auxiliary_graph, hits, hitters, peel, reference_peel, reference_round_peel
from prune_reference import (
    _complement_circular,
    disc_escapes_reference,
    prune_depth_one_reference,
    segment_clip_convex,
)

from cfgeom import (
    Coloring,
    ConvexFatObject,
    Disc,
    Hypergraph,
    Interval,
    Point,
    ProbeSystem,
    Scene,
    cf_color_vs_probes,
    generate_lower_bound_family,
    generate_scene,
    intersection_graph,
    neighborhood_hypergraph,
    pentagon_template,
    pointed_cf_pseudodiscs,
    probe_hypergraph,
    probe_system_from_json,
    probe_system_to_json,
    prune_depth_one,
    verify_cf,
    verify_proper,
)
from cfgeom.errors import IncompatibleShapesError, InvalidInputError, PlanarityError
from cfgeom import geom as geom_module
from cfgeom import probes as probes_module
from cfgeom.geom import (
    _homothet,
    _polygon_inradius_at,
    _polygon_outradius_at,
    contiguous_run_witnesses,
    intersects,
)
from cfgeom.hypergraph import all_intervals_hypergraph, greedy_maximal_independent_set, min_cf_colors_bruteforce
from cfgeom.probes import (
    PSEUDODISC_MODE,
    _graph_probe_hypergraph,
    _ProbeEngine,
    _prune_depth_one,
    _waves,
)


def discs(*spec):
    return Scene(tuple(Disc(Point(x, y), r) for x, y, r in spec))


def _peel(ps):
    """The 6-color peel of all of a probe system's vertices on its engine: the coloring and the PeelOrder."""
    h = probe_hypergraph(ps)
    cmap, order = peel(_ProbeEngine(h.n, h.indptr, h.indices), range(h.n))
    return Coloring(tuple(cmap[v] for v in range(h.n))), order


def _neighbours(g, v):
    """The sorted neighbours of vertex v of the graph g, from its CSR arrays."""
    return g.indices[g.indptr[v] : g.indptr[v + 1]].tolist()


def test_probe_hypergraph_no_probes():
    ps = ProbeSystem(discs((0, 0, 1)), Scene((), "discs"))
    h = probe_hypergraph(ps)
    assert h.edges == ()


def test_probe_edge_from_two_reachable_discs():
    ps = ProbeSystem(discs((0, 0, 1), (5, 0, 1)), discs((2.5, 0, 1.6)))
    h = probe_hypergraph(ps)
    assert h.edges == ((0, 1),)


def test_disjoint_probe_records_empty_edge():
    ps = ProbeSystem(discs((0, 0, 1)), discs((9, 9, 0.5)))
    h = probe_hypergraph(ps)
    assert h.edges == ((),)
    assert verify_cf(h, [1]) == []


def test_auxiliary_graph_pair_and_induction():
    vertices = discs((0, 0, 1), (3, 0, 1), (6, 0, 1))
    probes = discs((1.5, 0, 0.6), (4.5, 0, 0.6), (3, 2, 2.8))
    ps = ProbeSystem(vertices, probes)
    g = auxiliary_graph(ps, [0, 1, 2])
    # the wide probe hits all three vertices, so only the two pair-probes count
    assert (0, 1) in g.edges and (1, 2) in g.edges
    # removing vertex 1 from the active set turns the wide probe into a pair
    g2 = auxiliary_graph(ps, [0, 2])
    assert (0, 2) in g2.edges


def test_auxiliary_triangle():
    vertices = discs((0, 0, 1), (5, 0, 1), (2.5, 4, 1))
    probes = discs((2.5, 0, 1.6), (1.4, 2.1, 1.6), (3.6, 2.1, 1.6))
    ps = ProbeSystem(vertices, probes)
    g = auxiliary_graph(ps, [0, 1, 2])
    assert g.edges == frozenset({(0, 1), (0, 2), (1, 2)})
    col, order = _peel(ps)
    assert col.palette_size == 3
    assert verify_proper(probe_hypergraph(ps), col) == []
    assert all(d <= 5 for d in order.degrees)


def test_peel_single_vertex():
    ps = ProbeSystem(discs((0, 0, 1)), discs((0.5, 0, 1)))
    col, order = _peel(ps)
    assert col.colors == (1,)
    assert order.order == [0]


def test_peel_200_random():
    vertices = generate_scene("discs", 200, 21)
    probes = generate_scene("discs", 200, 22, radius_range=(0.02, 0.25))
    ps = ProbeSystem(vertices, probes)
    col, order = _peel(ps)
    assert col.palette_size <= 6
    assert verify_proper(probe_hypergraph(ps), col) == []
    assert all(d <= 5 for d in order.degrees)
    assert order.euler_violations() == []


def test_peel_hereditary_on_random_subsets():
    vertices = generate_scene("discs", 60, 31)
    probes = generate_scene("discs", 80, 32, radius_range=(0.02, 0.3))
    rng = np.random.default_rng(0)
    h = probe_hypergraph(ProbeSystem(vertices, probes))
    for _ in range(5):
        keep = sorted(rng.choice(60, size=25, replace=False).tolist())
        sub = ProbeSystem(vertices.subscene(keep), probes)
        col, order = _peel(sub)
        assert col.palette_size <= 6
        assert all(d <= 5 for d in order.degrees)


def test_prune_disjoint_all_kept():
    scene = discs((0, 0, 1), (5, 0, 1), (10, 0, 1))
    kept, removed = prune_depth_one(scene)
    assert kept == [0, 1, 2] and removed == []


def test_prune_single_shape_kept():
    kept, removed = prune_depth_one(discs((0, 0, 1)))
    assert kept == [0] and removed == []


def test_prune_covered_middle_disc():
    d1 = Disc(Point(0, 0), 1.5)
    d2 = Disc(Point(2, 0), 1.5)
    dm = Disc(Point(1, 0), 1.0)
    scene = Scene((d1, d2, dm))
    # independent coverage oracle at resolution 1e-3: dm really is swallowed
    xs = np.arange(0.0, 2.0001, 1e-3)
    ys = np.arange(-1.0, 1.0001, 1e-3)
    gx, gy = np.meshgrid(xs, ys)
    inside_dm = (gx - 1) ** 2 + gy**2 <= 1.0
    in_d1 = gx**2 + gy**2 <= 1.5**2
    in_d2 = (gx - 2) ** 2 + gy**2 <= 1.5**2
    assert bool(np.all(~inside_dm | in_d1 | in_d2))
    kept, removed = prune_depth_one(scene)
    assert kept == [0, 1]
    assert removed == [2]


def test_prune_order_dependence_keeps_earlier_shape():
    # two identical-coverage shapes: the first scanned keeps its witness
    a = Disc(Point(0, 0), 1.0)
    b = Disc(Point(0.05, 0), 1.1)
    kept, removed = prune_depth_one(Scene((a, b)))
    assert 1 in kept  # b pokes out of a, so b always survives
    assert kept != []


def test_cf_vs_probes_no_probes_single_color():
    vertices = generate_scene("discs", 10, 2)
    out = cf_color_vs_probes(ProbeSystem(vertices, Scene((), "discs")))
    assert out.palette_size == 1


def test_cf_vs_probes_lower_bound_family_needs_four_colors():
    scene = generate_lower_bound_family(8, 0.2)
    witnesses = contiguous_run_witnesses(8, 0.2)
    probes = Scene(tuple(Disc(p, 1e-4) for p in witnesses.values()), "discs")
    ps = ProbeSystem(scene, probes)
    out = cf_color_vs_probes(ps)
    assert verify_cf(probe_hypergraph(ps), out) == []
    oracle_t, _ = min_cf_colors_bruteforce(all_intervals_hypergraph(8), 8)
    assert oracle_t == 4
    assert out.palette_size >= 4


def test_probe_palette_plateau_small():
    vertices = generate_scene("discs", 40, 5)
    master = generate_scene("discs", 2000, 6, radius_range=(0.01, 0.3), margin=0)
    sizes = []
    for m in (20, 200, 2000):
        ps = ProbeSystem(vertices, Scene(master.shapes[:m], "discs"))
        out = cf_color_vs_probes(ps)
        assert verify_cf(probe_hypergraph(ps), out) == []
        sizes.append(out.palette_size)
    from cfgeom import cf_palette_bound

    assert all(s <= cf_palette_bound(40, 6) for s in sizes)


def test_pipeline_disjoint_scene_one_color():
    scene = discs((0, 0, 1), (5, 0, 1), (10, 0, 1))
    out = pointed_cf_pseudodiscs(scene)
    assert out.palette_size == 1


def test_pipeline_k2():
    scene = discs((0, 0, 1), (1, 0, 1))
    out = pointed_cf_pseudodiscs(scene)
    report = out.trace
    assert report.vertices["independent_set"] == [0]
    assert out.colors[0] != out.colors[1]
    h = neighborhood_hypergraph(intersection_graph(scene), "pointed")
    assert verify_cf(h, out) == []


def test_pipeline_dense_discs():
    scene = generate_scene("discs", 120, 8, radius_range=(0.08, 0.3))
    out = pointed_cf_pseudodiscs(scene)
    report = out.trace
    h = neighborhood_hypergraph(intersection_graph(scene), "pointed")
    assert verify_cf(h, out) == []
    assert out.palette_size <= report.palette_bound
    for order in report.peels["b"] + report.peels["rest"]:
        assert all(d <= 5 for d in order.degrees)
        assert order.euler_violations() == []


def test_pipeline_two_palettes_structure():
    scene = generate_scene("discs", 80, 13, radius_range=(0.08, 0.3))
    out = pointed_cf_pseudodiscs(scene)
    report = out.trace
    b = set(report.vertices["independent_set"])
    b_colors = {out.colors[v] for v in b}
    rest_colors = {out.colors[v] for v in range(len(scene)) if v not in b}
    assert not (b_colors & rest_colors)
    # each vertex with a neighbor has a uniquely colored one on the other side
    g = intersection_graph(scene)
    for v in range(len(scene)):
        nb = _neighbours(g, v)
        if not nb:
            continue
        unique = [u for u in nb if sum(1 for w in nb if out.colors[w] == out.colors[u]) == 1]
        assert unique
        other = [u for u in unique if (u in b) != (v in b)]
        assert other


def test_pipeline_pentagons_with_pruning():
    pent = pentagon_template()
    scene = generate_scene("fat", 60, 17, rho=1.5, k=3.0, homothets_of=pent, base_size=0.06)
    out = pointed_cf_pseudodiscs(scene)
    report = out.trace
    h = neighborhood_hypergraph(intersection_graph(scene), "pointed")
    assert verify_cf(h, out) == []
    assert out.palette_size <= report.palette_bound


def test_pseudodisc_mode_rejects_double_overlap():
    blob1 = generate_scene("fat", 6, 1, rho=2.0, k=1.0, span=0.1, base_size=0.2)
    blob2 = generate_scene("fat", 6, 2, rho=2.0, k=1.0, span=0.1, base_size=0.2)
    ps = ProbeSystem(blob1, blob2, "pseudodisc")
    if len(intersection_graph(blob1).edges) and len(intersection_graph(blob2).edges):
        with pytest.raises(ValueError):
            cf_color_vs_probes(ps)


def _unit_pentagons(*centers):
    """Unit translates of the pentagon template (inradius 1, outradius 1.42):
    two whose centers are under 2 apart meet, two over 2.83 apart miss."""
    return Scene(tuple(_homothet(pentagon_template(), Point(x, y), 1.0) for x, y in centers))


# vertices and probes: the probes must be pairwise disjoint only when two vertices meet
PROBE_OVERLAP_CASES = {
    "overlapping vertices, meeting probes": ([(0, 0), (0.5, 0)], [(-1.8, 0), (-1.8, 1.5)], True),
    "overlapping vertices, disjoint probes": ([(0, 0), (0.5, 0)], [(-1.8, 0), (2.3, 0)], False),
    "disjoint vertices, meeting probes": ([(0, 0), (5, 0)], [(1.6, 0), (3.4, 0)], False),
}


@pytest.mark.parametrize("name", sorted(PROBE_OVERLAP_CASES))
def test_pseudodisc_probes_must_be_disjoint_only_over_overlapping_vertices(name):
    vertex_centers, probe_centers, refused = PROBE_OVERLAP_CASES[name]
    ps = ProbeSystem(_unit_pentagons(*vertex_centers), _unit_pentagons(*probe_centers), PSEUDODISC_MODE)
    assert len(intersection_graph(ps.vertices).edges) == ("overlapping" in name)
    assert len(intersection_graph(ps.probes).edges) == ("meeting" in name)
    h = probe_hypergraph(ps)
    assert all(h.edges)  # every probe hits a vertex
    if refused:
        with pytest.raises(InvalidInputError, match="probes must be pairwise disjoint"):
            cf_color_vs_probes(ps)
    else:
        assert verify_cf(h, cf_color_vs_probes(ps)) == []


def _centered_polygon(*verts):
    xy = np.array(verts, dtype=float)
    cx, cy = xy.mean(axis=0)
    inner, outer = _polygon_inradius_at(xy, cx, cy), _polygon_outradius_at(xy, cx, cy)
    return ConvexFatObject(tuple(Point(x, y) for x, y in verts), Point(cx, cy), inner, outer)


def _counted_crossings(monkeypatch):
    calls = []
    kernel = geom_module._crossings

    def counted(*args):
        calls.append(len(args[1]))
        return kernel(*args)

    monkeypatch.setattr(geom_module, "_crossings", counted)
    return calls


def test_probe_system_is_validated_once(monkeypatch):
    family = generate_scene("fat", 30, [3, 9], rho=1.5, k=3.0, homothets_of=pentagon_template(), base_size=0.08)
    ps = ProbeSystem(Scene(family.shapes[:20]), Scene(family.shapes[20:]), PSEUDODISC_MODE)
    calls = _counted_crossings(monkeypatch)
    first = probe_hypergraph(ps)
    for _ in range(2):
        assert probe_hypergraph(ps).edges == first.edges
    assert len(calls) == 1 and calls[0] > 0  # one kernel run, on some contact pairs
    cf_color_vs_probes(ProbeSystem(ps.vertices, Scene(family.shapes[20:22]), PSEUDODISC_MODE))
    assert len(calls) == 2  # a new system is validated anew


def test_invalid_probe_system_raises_the_same_error_on_every_call(monkeypatch):
    square = Scene((_centered_polygon((1, 1), (3, 1), (3, 3), (1, 3)),))
    diamond = Scene((_centered_polygon((2, 0.5), (3.5, 2), (2, 3.5), (0.5, 2)),))  # crosses the square eight times
    calls = _counted_crossings(monkeypatch)
    ps = ProbeSystem(square, diamond, PSEUDODISC_MODE)
    errors = []
    for call in (probe_hypergraph, cf_color_vs_probes, probe_hypergraph):
        with pytest.raises(InvalidInputError, match="do not form a pseudo-disc family") as err:
            call(ps)
        errors.append(err.value)
    assert len(calls) == 1
    assert len({id(e) for e in errors}) == 3 and {str(e) for e in errors} == {str(errors[0])}
    wrong = ProbeSystem(square, Scene((), "discs"), "disc")
    for _ in range(2):
        with pytest.raises(IncompatibleShapesError, match="disc mode requires"):
            probe_hypergraph(wrong)


def test_pseudodisc_mode_rejects_discs_mixed_with_polygons():
    ps = ProbeSystem(generate_scene("discs", 2, 1), Scene((pentagon_template(),)), PSEUDODISC_MODE)
    with pytest.raises(IncompatibleShapesError, match="homogeneous disc or polygon family"):
        ps.validate()


def test_pipeline_rejects_polygons_crossing_four_times():
    # two thin bars crossed like a plus sign: their boundaries cross in four points
    plus = Scene((_box_polygon(-1, -0.1, 1, 0.1), _box_polygon(-0.1, -1, 0.1, 1)))
    with pytest.raises(InvalidInputError, match="scene is not a pseudo-disc family"):
        pointed_cf_pseudodiscs(plus)


def test_disc_mode_rejects_polygons():
    pent = pentagon_template()
    ps = ProbeSystem(Scene((pent,)), Scene((), "discs"), "disc")
    with pytest.raises(IncompatibleShapesError):
        probe_hypergraph(ps)


def test_probe_system_json_roundtrip():
    vertices = generate_scene("discs", 3, 1)
    probes = generate_scene("discs", 2, 2)
    ps = ProbeSystem(vertices, probes, "disc")
    again = probe_system_from_json(probe_system_to_json(ps))
    assert again == ps


@pytest.mark.parametrize("text", ["{", "{}", "[]", '"probes"', '{"vertices": {"shapes": []}}'])
def test_malformed_probe_system_json_is_invalid_input(text):
    with pytest.raises(InvalidInputError, match="malformed probe-system JSON"):
        probe_system_from_json(text)


def test_engine_matches_standalone_auxiliary_graph():
    # replay each peel step and compare the engine's bookkeeping with a
    # from-scratch recomputation of the exactly-two graph
    from cfgeom.probes import _pairwise_hits

    for seed in range(6):
        vertices = generate_scene("discs", 30, [201, seed], radius_range=(0.05, 0.3))
        probes = generate_scene("discs", 45, [202, seed], radius_range=(0.02, 0.35))
        ps = ProbeSystem(vertices, probes)
        h = _pairwise_hits(vertices, probes)
        engine = _ProbeEngine(30, h.indptr, h.indices)
        _, order = peel(engine, range(30))
        active = set(range(30))
        for v, deg, (nv, ne) in zip(order.order, order.degrees, order.aux_sizes):
            g = auxiliary_graph(ps, sorted(active))
            assert nv == len(active)
            assert ne == len(g.edges)
            assert deg == sum(1 for e in g.edges if v in e)
            active.discard(v)


def test_planarity_violation_raises():
    # a K7 exactly-two structure cannot arise from genuine disc geometry, so
    # the engine gets the hit sets directly to exercise the error path
    h = Hypergraph(7, [(i, j) for i in range(7) for j in range(i + 1, 7)])
    with pytest.raises(PlanarityError):
        peel(_ProbeEngine(7, h.indptr, h.indices), range(7))


def test_prune_polygon_coverage():
    pent = pentagon_template()
    from cfgeom.geom import Point, _homothet

    big_a = _homothet(pent, Point(0.0, 0.0), 1.0)
    big_b = _homothet(pent, Point(0.6, 0.1), 1.0)
    tiny = _homothet(pent, Point(0.3, 0.05), 0.12)
    scene = Scene((big_a, big_b, tiny))
    kept, removed = prune_depth_one(scene)
    assert removed == [2]
    assert kept == [0, 1]


# ---------------------------------------------------------------------------
# CSR probe hypergraphs and engine against the tuple hit lists they replaced
# ---------------------------------------------------------------------------

small_discs = st.builds(
    lambda x, y, r: Disc(Point(x / 2, y / 2), r / 2), st.integers(0, 12), st.integers(0, 12), st.integers(0, 4)
)


@given(st.lists(small_discs, max_size=10), st.lists(small_discs, max_size=10))
@settings(max_examples=60, deadline=None)
def test_probe_hypergraph_matches_tuple_hits(vertices, probes):
    h = probe_hypergraph(ProbeSystem(Scene(tuple(vertices), "discs"), Scene(tuple(probes), "discs")))
    assert h.n == len(vertices)
    assert h.edges == tuple(tuple(i for i, v in enumerate(vertices) if intersects(v, p)) for p in probes)


@given(st.lists(small_discs, min_size=1, max_size=14), st.data())
@settings(max_examples=80, deadline=None)
def test_graph_probe_hypergraph_matches_tuple_reference(shapes, data):
    scene = Scene(tuple(shapes), "discs")
    g = intersection_graph(scene)
    order = data.draw(st.permutations(range(len(shapes))))
    cut = data.draw(st.integers(0, len(shapes)))
    vertices, probes = list(order[:cut]), list(order[cut:])
    h = _graph_probe_hypergraph(g, vertices, probes)
    # the row scan this function did before it read CSR arrays
    pos = {v: i for i, v in enumerate(vertices)}
    hits = tuple(tuple(sorted(pos[u] for u in _neighbours(g, p) if u in pos)) for p in probes)
    assert (h.n, h.edges) == (len(vertices), hits)
    direct = probe_hypergraph(ProbeSystem(scene.subscene(vertices), scene.subscene(probes)))
    assert direct.edges == hits


def _tuple_engine(n, rows):
    """_ProbeEngine as its constructor built it from hit tuples, kept as the
    reference, with the hit sets and the per-vertex hitters it built them from."""
    engine = _ProbeEngine.__new__(_ProbeEngine)
    engine.n = n
    sets = sorted({h for h in rows if h})
    holders = [[] for _ in range(n)]
    flat_v, flat_p = [], []
    for pid, h in enumerate(sets):
        for v in h:
            holders[v].append(pid)
            flat_v.append(v)
            flat_p.append(pid)
    engine.m = len(sets)
    engine._flat_v = np.asarray(flat_v, dtype=np.int64)
    engine._flat_p = np.asarray(flat_p, dtype=np.int64)
    return engine, sets, holders


def _peel_outcome(engine, active):
    try:
        colors, order = peel(engine, active)
    except PlanarityError:
        return "planarity"
    return colors, order.order, order.degrees, order.aux_sizes


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_engine_from_csr_matches_engine_from_tuples(data):
    n = data.draw(st.integers(1, 9))
    rows = data.draw(st.lists(st.sets(st.integers(0, n - 1), max_size=5), max_size=14))
    # repeated hit sets, and prefixes of hit sets, exercise the deduplication and the order
    rows += data.draw(st.lists(st.sampled_from(rows), max_size=4)) if rows else []
    rows += [set(sorted(r)[: len(r) // 2]) for r in rows[:3]]
    order = data.draw(st.permutations(range(len(rows))))
    h = Hypergraph(n, [rows[i] for i in order])
    csr, (reference, sets, holders) = _ProbeEngine(n, h.indptr, h.indices), _tuple_engine(n, h.edges)
    assert hits(csr) == sets
    assert hitters(csr) == holders
    assert csr._flat_v.tolist() == reference._flat_v.tolist()
    assert csr._flat_p.tolist() == reference._flat_p.tolist()
    for active in (range(n), sorted(data.draw(st.sets(st.integers(0, n - 1))))):
        assert _peel_outcome(csr, active) == _peel_outcome(reference, active)


def test_engine_from_csr_keeps_peel_orders_on_disc_systems():
    for seed in range(4):
        vertices = generate_scene("discs", 40, [203, seed], radius_range=(0.05, 0.3))
        probes = generate_scene("discs", 400, [204, seed], radius_range=(0.01, 0.3), margin=0)
        h = probe_hypergraph(ProbeSystem(vertices, probes))
        csr, (reference, sets, _) = _ProbeEngine(40, h.indptr, h.indices), _tuple_engine(40, h.edges)
        assert hits(csr) == sets
        for active in (range(40), range(0, 40, 3)):
            assert _peel_outcome(csr, active) == _peel_outcome(reference, active)


@st.composite
def hit_systems(draw):
    """(n, hit sets, active subsets): hit sets with repeats, pairs that may
    form a clique breaking planarity, and active subsets that leave a hit
    set's survivors at its start, at its end or spread through it."""
    n = draw(st.integers(1, 40))
    vertex = st.integers(0, n - 1)
    sets = draw(st.lists(st.sets(vertex, min_size=1, max_size=10), max_size=60))
    sets += draw(st.lists(st.sampled_from(sets), max_size=10)) if sets else []  # duplicate sets
    sets += draw(st.lists(st.sets(vertex, min_size=min(n, 2), max_size=2), max_size=3 * n))
    clique = sorted(draw(st.sets(vertex, max_size=9)))  # from 7 vertices on, no vertex of degree <= 5
    sets += [{a, b} for i, a in enumerate(clique) for b in clique[i + 1 :]]
    cut = draw(st.integers(0, n))
    actives = [range(n), range(cut), range(cut, n), sorted(draw(st.sets(vertex)))]
    return n, [sets[i] for i in draw(st.permutations(range(len(sets))))], actives


def _engine(n, sets):
    h = Hypergraph(n, sets)
    return _ProbeEngine(n, h.indptr, h.indices)


@given(hit_systems())
@settings(max_examples=300, deadline=None)
def test_peel_matches_reference_peel(system):
    n, sets, actives = system
    engine, reference = _engine(n, sets), _engine(n, sets)
    for active in actives:
        try:
            expected = reference_peel(reference, active)
        except PlanarityError:
            with pytest.raises(PlanarityError):
                peel(engine, active)
            continue
        colors, order = peel(engine, active)
        assert colors == expected[0]
        assert (order.order, order.degrees, order.aux_sizes) == (
            expected[1].order,
            expected[1].degrees,
            expected[1].aux_sizes,
        )


def _traced(coloring):
    return coloring.colors, {
        stage: [(o.order, o.degrees, o.aux_sizes) for o in orders] for stage, orders in coloring.trace.peels.items()
    }


def test_probe_colorings_match_reference_peel_on_disc_systems(monkeypatch):
    systems = [
        ProbeSystem(
            generate_scene("discs", n, [205, seed]),
            generate_scene("discs", 10 * n, [206, seed], radius_range=(0.01, 0.3), margin=0),
        )
        for seed, n in enumerate((12, 40, 90))
    ]
    scenes = [generate_scene("discs", n, [207, seed]) for seed, n in enumerate((30, 80, 160))]
    outputs = [_traced(cf_color_vs_probes(ps)) for ps in systems] + [_traced(pointed_cf_pseudodiscs(s)) for s in scenes]
    monkeypatch.setattr(_ProbeEngine, "_peel", reference_round_peel)
    expected = [_traced(cf_color_vs_probes(ps)) for ps in systems] + [_traced(pointed_cf_pseudodiscs(s)) for s in scenes]
    assert outputs == expected


def test_probe_colorings_match_reference_peel_past_the_prefix(monkeypatch):
    # disc systems whose peels leave increasing order, so the removal loop runs on real geometry
    ps = ProbeSystem(
        generate_scene("discs", 60, [205, 1]),
        generate_scene("discs", 600, [206, 1], radius_range=(0.01, 0.3), margin=0),
    )
    scene = generate_scene("discs", 200, [207, 0])
    outputs = [_traced(cf_color_vs_probes(ps)), _traced(pointed_cf_pseudodiscs(scene))]
    for _, peels in outputs:
        assert any(order != sorted(order) for orders in peels.values() for order, _, _ in orders)
    monkeypatch.setattr(_ProbeEngine, "_peel", reference_round_peel)
    assert outputs == [_traced(cf_color_vs_probes(ps)), _traced(pointed_cf_pseudodiscs(scene))]


def _reference_outcome(engine, active):
    try:
        colors, order = reference_peel(engine, active)
    except PlanarityError:
        return "planarity"
    return colors, order.order, order.degrees, order.aux_sizes


HANDOVERS = {
    # (n, hit sets, the vertices handed to the removal loop: None when the prefix is the whole peel)
    "no tail": (8, [{i, i + 1} for i in range(7)] + [{0, 2, 5}, {1, 3, 4, 6}, {2, 7}, {2, 7}], None),
    "tail from the first vertex": (7, [{0, j} for j in range(1, 7)] + [{1, 2}, {2, 3, 4}], range(7)),
    "K7, no vertex of degree <= 5": (7, [{i, j} for i in range(7) for j in range(i + 1, 7)], range(7)),
    # vertex 3 is the first of degree 6; {1, 3, 4} joins (3, 4) after 1 goes, {2, 7} has one member left
    "midway": (
        10,
        [{0, 1}, {1, 2}, {1, 3, 4}, {2, 5, 8, 9}, {2, 7}, {0, 9}, {0, 4, 6}] + [{3, j} for j in range(4, 10)],
        range(3, 10),
    ),
}


@pytest.mark.parametrize("case", sorted(HANDOVERS))
def test_peel_hands_over_to_the_removal_loop_at_the_first_vertex_of_degree_above_5(monkeypatch, case):
    n, sets, tail = HANDOVERS[case]
    handed = []
    loop = probes_module._peel_loop

    def spy(ids, v, p):
        handed.append(ids.tolist())
        return loop(ids, v, p)

    monkeypatch.setattr(probes_module, "_peel_loop", spy)
    outcome = _peel_outcome(_engine(n, sets), range(n))
    assert outcome == _reference_outcome(_engine(n, sets), range(n))
    assert handed == ([] if tail is None else [list(tail)])
    if tail is not None and outcome != "planarity":
        assert outcome[1] != sorted(outcome[1])


def _round_outcome(color_round, peels, alive):
    try:
        colors = color_round(alive)
    except PlanarityError:
        return "planarity"
    return colors, peels[-1].order, peels[-1].degrees, peels[-1].aux_sizes


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_round_function_peels_each_round_as_a_fresh_peel_of_its_vertices(data):
    # one round function over rounds whose vertices shrink (narrowed from the last round's live
    # members) or not (from the full arrays); a clique may break planarity in some rounds
    n = data.draw(st.integers(1, 12))
    vertex = st.integers(0, n - 1)
    sets = data.draw(st.lists(st.sets(vertex, min_size=1, max_size=5), max_size=16))
    clique = sorted(data.draw(st.sets(vertex, max_size=8)))
    sets += [{a, b} for i, a in enumerate(clique) for b in clique[i + 1 :]]
    engine, fresh = _engine(n, sets), _engine(n, sets)
    peels = []
    color_round = engine.color_rounds(peels)
    alive = list(range(n))
    for _ in range(5):
        within = data.draw(st.booleans())
        alive = sorted(data.draw(st.sets(st.sampled_from(alive) if within else vertex, min_size=1)))
        expected = _peel_outcome(fresh, alive)
        if expected != "planarity":
            expected = ([expected[0][v] for v in alive], *expected[1:])
        assert _round_outcome(color_round, peels, alive) == expected


# ---------------------------------------------------------------------------
# depth-one pruning against a per-shape exact reference and a sampled coverage audit
# ---------------------------------------------------------------------------


def _reference_prune(shapes):
    """prune_depth_one as a loop over neighbour shapes, kept as the reference:
    shape i survives when it has no surviving copy and a piece of its boundary,
    or of a surviving neighbour's boundary inside it, lies in none of the other
    surviving neighbours."""
    n = len(shapes)
    g = intersection_graph(shapes)
    surviving = set(range(n))
    for i in range(n):
        near = [shapes[j] for j in _neighbours(g, i) if j in surviving]
        if any(_ref_same(o, shapes[i]) for o in near) or not _ref_escapes(shapes[i], near):
            surviving.discard(i)
    return sorted(surviving), sorted(set(range(n)) - surviving)


def _ref_same(a, b):
    return a.vertices == b.vertices if isinstance(a, ConvexFatObject) else a == b


def _ref_escapes(s, near):
    if isinstance(s, Disc):
        c = (s.center.x, s.center.y, s.radius)
        circles = [(o.center.x, o.center.y, o.radius) for o in near]
        if _ref_free_arc(c, circles, []):
            return True
        for j, o in enumerate(circles):
            arc = _ref_arc(o, c)  # the arc of circle o inside s; outside it, o bounds no point of s
            if arc is not None:
                theta, alpha = arc
                outside = [(theta + alpha, theta + 2 * math.pi - alpha)] if alpha < math.pi else []
                if _ref_free_arc(o, circles[:j] + circles[j + 1 :], outside):
                    return True
        return False
    for owner in [s] + near:
        xy = owner.xy()
        for p0, p1 in zip(xy.tolist(), np.roll(xy, -1, axis=0).tolist()):
            covered = [segment_clip_convex(p0, p1, o.xy()) for o in near if o is not owner]
            if owner is not s:  # a neighbour's edge counts only inside s
                inside = segment_clip_convex(p0, p1, s.xy())
                covered += [(0.0, 1.0)] if inside is None else [(0.0, inside[0]), (inside[1], 1.0)]
            if _ref_free_unit([c for c in covered if c is not None]):
                return True
    return False


def _ref_arc(c, o):
    x, y, r = c
    ox, oy, ro = o
    d = math.hypot(ox - x, oy - y)
    if d + r <= ro:
        return 0.0, math.pi
    if d >= r + ro or d + ro <= r:
        return None
    alpha = math.acos(min(1.0, max(-1.0, (d * d + r * r - ro * ro) / (2 * d * r))))
    return math.atan2(oy - y, ox - x), alpha


def _ref_free_arc(c, covers, arcs):
    for o in covers:
        arc = _ref_arc(c, o)
        if arc is not None:
            arcs = arcs + [(arc[0] - arc[1], arc[0] + arc[1])]
    return bool(_complement_circular(arcs))


def _ref_free_unit(covered):
    reach = 0.0
    for a, b in sorted((min(max(a, 0.0), 1.0), min(max(b, 0.0), 1.0)) for a, b in covered if a <= b):
        if a - reach > 1e-12:
            return True
        reach = max(reach, b)
    return 1.0 - reach > 1e-12


def _in_shape(s, pts):
    """Closed membership of the rows of `pts` in one disc or ccw convex polygon."""
    if isinstance(s, Disc):
        return (pts[:, 0] - s.center.x) ** 2 + (pts[:, 1] - s.center.y) ** 2 <= s.radius * s.radius
    xy = s.xy()
    e = np.roll(xy, -1, axis=0) - xy
    return (e[:, 0] * (pts[:, None, 1] - xy[:, 1]) - e[:, 1] * (pts[:, None, 0] - xy[:, 0]) >= 0).all(axis=1)


def _samples(s, resolution):
    """A ring just inside the boundary of s plus a resolution x resolution grid over its box, clipped to s."""
    shrink = 1.0 - 1.0 / (2 * resolution)
    if isinstance(s, Disc):
        c = np.array([s.center.x, s.center.y])
        turns = np.linspace(0, 2 * math.pi, 4 * resolution, endpoint=False)
        ring = c + shrink * s.radius * np.column_stack((np.cos(turns), np.sin(turns)))
        lo, hi = c - s.radius, c + s.radius
    else:
        xy, c = s.xy(), np.array([s.anchor.x, s.anchor.y])
        t = np.linspace(0.0, 1.0, resolution // 2 + 2)[:, None]
        ring = (c + shrink * (xy[:, None] + t * (np.roll(xy, -1, axis=0) - xy)[:, None] - c)).reshape(-1, 2)
        lo, hi = xy.min(axis=0), xy.max(axis=0)
    gx, gy = np.meshgrid(np.linspace(lo[0], hi[0], resolution), np.linspace(lo[1], hi[1], resolution))
    grid = np.column_stack((gx.ravel(), gy.ravel()))
    return np.concatenate((ring, grid[_in_shape(s, grid)]))


def _uncovered_removed(shapes, kept, removed, resolution=96):
    """The removed shapes with a sample point in no kept shape; only the kept
    shapes that meet a removed one can cover its points."""
    g = intersection_graph(shapes)
    out = []
    for r in removed:
        pts = _samples(shapes[r], resolution)
        covered = np.zeros(len(pts), dtype=bool)
        for k in set(_neighbours(g, r)) & set(kept):
            covered |= _in_shape(shapes[k], pts)
        if not covered.all():
            out.append(r)
    return out


def _pentagons(n, seed, base_size):
    return generate_scene("fat", n, seed, rho=1.5, k=3.0, homothets_of=pentagon_template(), base_size=base_size)


PRUNE_FAMILIES = {
    # pentagon homothets as in the acceptance suite; the sampled pruning this replaced
    # left removed shapes with uncovered samples at resolution 96 in all but rho2-polygons
    "pentagons-a": lambda: _pentagons(34, [8, 25], 0.06),
    "pentagons-b": lambda: _pentagons(57, [4, 37], 0.05),
    "pentagons-c": lambda: _pentagons(40, [31, 2], 0.05),
    "rho2-polygons": lambda: generate_scene("fat", 24, [77, 3], rho=2.0, k=4.0, base_size=0.05, margin=0),
    "discs": lambda: generate_scene("discs", 65, [78, 9], span=0.6, margin=0),
}


@pytest.mark.parametrize("family", sorted(PRUNE_FAMILIES))
def test_prune_matches_reference_and_samples_only_when_needed(family):
    scene = PRUNE_FAMILIES[family]()
    kept, removed = prune_depth_one(scene)
    assert (kept, removed) == _reference_prune(scene)
    assert removed and kept
    # pruning is exact and draws no samples; samples are needed only by the audit here,
    # which finds every removed shape covered by the kept shapes at resolution 96
    assert len(inspect.signature(prune_depth_one).parameters) == 1
    assert _uncovered_removed(scene, kept, removed) == []


@pytest.mark.parametrize("family", sorted(PRUNE_FAMILIES))
def test_boundary_and_sample_points_match_reference(family):
    scene = PRUNE_FAMILIES[family]()
    g = intersection_graph(scene)
    rows = scene.rows
    pieces = probes_module._circle_pieces if scene.kind == "discs" else probes_module._edge_pieces
    for i, s in enumerate(scene.shapes):
        # the boundary escape test on each shape's full neighbourhood, not only on the survivors of the scan,
        # as a wave of one shape
        near = g.indices[g.indptr[i] : g.indptr[i + 1]]
        got = probes_module._shapes_escape(rows, np.array([i]), np.array([0, len(near)]), near, pieces)
        assert got.tolist() == [_ref_escapes(s, [scene[j] for j in near.tolist()])]
        # the audit's sample points lie in their shape, so an audit that passes covers s
        pts = _samples(s, 24)
        assert len(pts) and _in_shape(s, pts).all()


@pytest.mark.parametrize("i", [3, 5, 21, 37, 40])
def test_pipeline_pruning_coverage_audit(i):
    # pentagon families of acceptance criterion 3, whose sampled pruning removed shapes with uncovered samples
    scene = _pentagons(40 + (i * 7) % 121, [4, i], 0.05)
    out = pointed_cf_pseudodiscs(scene)
    report = out.trace
    assert report.vertices["pruned"] and out.palette_size <= report.palette_bound
    kept = sorted(set(report.vertices["rest"]) - set(report.vertices["pruned"]))
    assert _uncovered_removed(scene, kept, report.vertices["pruned"]) == []


def test_wrapped_arcs_start_below_zero_and_run_past_two_pi():
    # the ranges of [0, 2pi] the kernel reads off the arcs (-0.5, 0.5), (-1, 3.5) and (3, 5.5) of a circle
    two_pi = 2 * math.pi
    t0, t1 = probes_module._wrapped(np.array([-0.5, -1.0, 3.0]), np.array([0.5, 3.5, 5.5]))
    assert t0.tolist() == [[two_pi - 0.5, 0.0], [two_pi - 1.0, 0.0], [3.0, math.inf]]
    assert t1[:, 0].tolist() == [two_pi, two_pi, 5.5] and t1[:2, 1].tolist() == pytest.approx([0.5, 3.5])
    assert probes_module._uncovered(t0[:1], t1[:1], two_pi).tolist() == [True]  # (0.5, 2pi - 0.5) is free
    assert probes_module._uncovered(t0[1:].reshape(1, 4), t1[1:].reshape(1, 4), two_pi).tolist() == [False]


def _ring(gap):
    """A unit disc 0 and discs 1 to 3 of radius 1 at distance 0.5 whose arcs
    on its circle (half-width acos(1/4)) leave free just (-gap/2, gap/2): the
    arc of disc 2 on circle 0 starts below 0, and outside disc 0 the arc of
    circle 1 starts below 0 and that of circle 2 runs past 2pi."""
    alpha = math.acos(0.25)
    return discs(
        (0, 0, 1),
        *((0.5 * math.cos(t), 0.5 * math.sin(t), 1) for t in (gap / 2 + alpha, -gap / 2 - alpha, math.pi)),
    )


# the centre escapes only through the free arc at angle 0, and without it not at all
WRAPPING_DISC_FAMILIES = {
    "gap at angle 0": (_ring(0.1), True),
    "no gap": (_ring(-0.1), False),
    "two discs covering the centre": (discs((0, 0, 1), (0.5, 0, 1.2), (-0.5, 0, 1.2)), False),
}


@pytest.mark.parametrize("name", sorted(WRAPPING_DISC_FAMILIES))
def test_disc_kernel_on_arcs_that_wrap(name):
    scene, escapes = WRAPPING_DISC_FAMILIES[name]
    rows, near = scene.rows, np.arange(1, len(scene))
    got = probes_module._shapes_escape(rows, np.array([0]), np.array([0, len(near)]), near, probes_module._circle_pieces)
    assert got.tolist() == [escapes] == [disc_escapes_reference(rows, 0, near)]
    assert prune_depth_one(scene)[1] == ([] if escapes else [0])


@st.composite
def small_shapes(draw, kind):
    """A disc (possibly of radius 0) or a regular polygon of 3..9 vertices on a half-integer grid."""
    x, y = draw(st.integers(0, 8)) / 2, draw(st.integers(0, 8)) / 2
    size = draw(st.integers(1, 4)) / 2
    m = draw(st.integers(0, 2) if kind == "discs" else st.integers(3, 9))
    if m < 3:
        return Disc(Point(x, y), size if m else 0.0)
    turn = draw(st.sampled_from([0.0, math.pi / 4, 0.3]))
    angles = [turn + 2 * math.pi * k / m for k in range(m)]
    verts = tuple(Point(x + size * math.cos(a), y + size * math.sin(a)) for a in angles)
    return ConvexFatObject(verts, Point(x, y), 0.999 * size * math.cos(math.pi / m), 1.001 * size)


@given(st.sampled_from(["discs", "polygons", "both"]), st.data())
@settings(max_examples=120, deadline=None)
def test_prune_matches_reference_on_small_mixed_families(kind, data):
    # families of discs, of polygons, or of both kinds, which is no pseudo-disc family
    kinds = ["discs", "polygons"] if kind == "both" else [kind]
    shapes = tuple(s for k in kinds for s in data.draw(st.lists(small_shapes(k), min_size=len(kinds) - 1, max_size=8)))
    scene = Scene(shapes)
    if kind == "both":
        with pytest.raises(IncompatibleShapesError):
            prune_depth_one(scene)
    else:
        assert prune_depth_one(scene) == _reference_prune(scene)


def test_prune_rejects_unsupported_shapes():
    with pytest.raises(IncompatibleShapesError):
        prune_depth_one(Scene((Interval(0, 1), Interval(2, 3))))
    with pytest.raises(IncompatibleShapesError):
        prune_depth_one(Scene((Disc(Point(0, 0), 1), pentagon_template())))
    assert prune_depth_one(Scene((), "intervals")) == ([], [])


# ---------------------------------------------------------------------------
# pruning in dependency waves against the one-shape-at-a-time scan
# ---------------------------------------------------------------------------

# ccw convex templates on the integer grid; at half scale their homothets land on a half-integer grid
GRID_TEMPLATES = {
    "pentagon": ((0, 0), (2, 0), (3, 2), (1, 3), (-1, 2)),
    "square": ((0, 0), (2, 0), (2, 2), (0, 2)),
    "triangle": ((0, 0), (2, 0), (0, 2)),
}


def _grid_polygon(template, x, y, scale):
    xy = np.array([(x + scale * a / 2, y + scale * b / 2) for a, b in GRID_TEMPLATES[template]])
    ax, ay = xy.mean(axis=0)
    verts = tuple(Point(px, py) for px, py in xy.tolist())
    inner, outer = _polygon_inradius_at(xy, ax, ay), _polygon_outradius_at(xy, ax, ay)
    return ConvexFatObject(verts, Point(ax, ay), 0.99 * inner, 1.01 * outer)


@st.composite
def grid_families(draw, kind):
    """Pentagons (or pentagons, squares and triangles) on a half-integer grid,
    so that edges touch and overlap exactly, or discs on the same grid; with
    identical copies, and with a chain whose every member meets the one before,
    which takes one wave per member."""
    templates = ["pentagon"] if kind == "pentagons" else sorted(GRID_TEMPLATES)

    def shape(x, y, size, template):
        return Disc(Point(x, y), size / 2) if kind == "discs" else _grid_polygon(template, x, y, size)

    cell = st.integers(0, 8).map(lambda c: c / 2)
    shapes = draw(
        st.lists(st.builds(shape, cell, cell, st.integers(1, 2), st.sampled_from(templates)), min_size=1, max_size=12)
    )
    for _ in range(draw(st.integers(0, 3))):
        shapes.insert(draw(st.integers(0, len(shapes))), draw(st.sampled_from(shapes)))
    steps = draw(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1), st.sampled_from(templates)), max_size=24))
    x = y = draw(cell)
    for dx, dy, template in steps:
        x, y = x + dx / 2, y + dy / 2
        shapes.append(shape(x, y, 2, template))
    return Scene(tuple(shapes))


@given(st.sampled_from(["pentagons", "polygons", "discs"]).flatmap(grid_families))
@settings(max_examples=200, deadline=None)
def test_prune_in_waves_matches_scan_on_grid_families(scene):
    g = intersection_graph(scene)
    assert _prune_depth_one(scene, g) == prune_depth_one_reference(scene, g)


def test_waves_follow_lower_index_neighbours():
    # a path 0-1-2-3, plus 4 meeting only 0 and 5 meeting nothing
    g = intersection_graph(discs((0, 0, 1), (1.5, 0, 1), (3, 0, 1), (4.5, 0, 1), (0, 1.5, 1), (9, 9, 1)))
    assert [w.tolist() for w in _waves(g.indptr, g.indices, np.ones(6, dtype=bool))] == [[0, 5], [1, 4], [2], [3]]


def _pipeline_pentagon_families():
    """The pentagon families of the benchmark's `polygons` workload at seeds
    1-3 and of acceptance criterion 3."""
    pent = pentagon_template()
    sizes = [24 + round(36 * i / 11) for i in range(12)]
    for seed in (1, 2, 3):
        for i, n in enumerate(sizes):
            yield generate_scene("fat", n, [seed, 31, i], rho=1.5, k=3.0, homothets_of=pent, base_size=0.05)
    for i in range(50):
        yield generate_scene("fat", 40 + (i * 7) % 121, [4, i], rho=1.5, k=3.0, homothets_of=pent, base_size=0.05)


def test_prune_in_waves_matches_scan_on_pipeline_and_fixed_families():
    checked = 0
    for scene in _pipeline_pentagon_families():
        # the half the pipeline prunes: every shape outside its independent set
        g = intersection_graph(scene)
        rest = sorted(set(range(len(scene))) - set(greedy_maximal_independent_set(g)))
        sub, g = scene.subscene(rest), g.subgraph(rest)
        assert _prune_depth_one(sub, g) == prune_depth_one_reference(sub, g)
        checked += len(sub)
    for make in PRUNE_FAMILIES.values():
        scene = make()
        g = intersection_graph(scene)
        assert _prune_depth_one(scene, g) == prune_depth_one_reference(scene, g)
    assert checked > 5000


def test_prune_peak_memory_on_a_large_pentagon_family():
    # 3000 pentagons of mean degree about 22, on which the one-at-a-time scan peaked at 10.2 MB
    scene = generate_scene("fat", 3000, [15, 0], rho=1.5, k=3.0, homothets_of=pentagon_template(), base_size=0.01)
    scene.rows
    tracemalloc.start()
    try:
        kept, removed = prune_depth_one(scene)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(kept) + len(removed) == 3000 and removed
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_prune_peak_memory_on_a_dense_disc_family():
    # 3000 discs of mean degree 65.5, on which the one-at-a-time arc scan peaked at 12.5 MB
    scene = generate_scene("discs", 3000, [15, 0], radius_range=(0.01, 0.04), span=0.6, margin=0)
    scene.rows
    tracemalloc.start()
    try:
        kept, removed = prune_depth_one(scene)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(kept) + len(removed) == 3000 and removed
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MB"


@pytest.mark.parametrize("n, span", [(200, 1.0), (1000, 3.0)])
def test_prune_in_waves_matches_scan_on_generated_disc_families(n, span):
    for seed in (1, 2, 3):
        scene = generate_scene("discs", n, seed, span=span, radius_range=(0.05, 0.2), margin=0)
        g = intersection_graph(scene)
        kept, removed = _prune_depth_one(scene, g)
        assert (kept, removed) == prune_depth_one_reference(scene, g) and kept and removed


# ---------------------------------------------------------------------------
# the vertex filter in front of the pruning clip
# ---------------------------------------------------------------------------


def _box_polygon(x0, y0, x1, y1):
    verts = (Point(x0, y0), Point(x1, y0), Point(x1, y1), Point(x0, y1))
    half = min(x1 - x0, y1 - y0) / 2
    return ConvexFatObject(verts, Point((x0 + x1) / 2, (y0 + y1) / 2), half, math.hypot(x1 - x0, y1 - y0) / 2)


def _filter_spies(monkeypatch):
    """Record the shapes `_vertex_filter` leaves unsettled and those it removes
    (per call, as sets), and every centre the clip decides."""
    seen = {"unsettled": [], "removed": [], "clipped": []}
    real_filter, real_escape = probes_module._vertex_filter, probes_module._shapes_escape

    def vertex_filter(polys, indptr, indices):
        kept, removed = real_filter(polys, indptr, indices)
        seen["unsettled"].append(set(np.flatnonzero(~(kept | removed)).tolist()))
        seen["removed"].append(set(np.flatnonzero(removed).tolist()))
        seen["clipped"].append(set())
        return kept, removed

    def shapes_escape(polys, centres, ptr, near, pieces):
        seen["clipped"][-1].update(centres.tolist())
        return real_escape(polys, centres, ptr, near, pieces)

    monkeypatch.setattr(probes_module, "_vertex_filter", vertex_filter)
    monkeypatch.setattr(probes_module, "_shapes_escape", shapes_escape)
    return seen


# tight cases: vertices on edges, shared edges, copies, and a neighbour of higher index the filter removes
TIGHT_PRUNE_FAMILIES = {
    "homothet sharing an edge, inside first": [_box_polygon(0, 0, 1, 1), _box_polygon(0, 0, 2, 2)],
    "homothet sharing an edge, container first": [_box_polygon(0, 0, 2, 2), _box_polygon(0, 0, 1, 1)],
    "vertex on an edge": [
        _box_polygon(0, 0, 2, 2),
        ConvexFatObject((Point(1, 2), Point(3, 2), Point(2, 4)), Point(2, 2.6), 0.3, 1.5),
        _box_polygon(0.5, 0.5, 1.5, 2),
    ],
    "identical copies": [pentagon_template(), pentagon_template(), pentagon_template()],
    # the corner of 0 that 1 and 2 leave is 1e-13 wide, too thin for the clip to count
    "vertex a hair outside every neighbour": [
        _box_polygon(0, 0, 1, 1),
        _box_polygon(-1, -1, 1 - 1e-13, 2),
        _box_polygon(-1, -1, 2, 1 - 1e-13),
    ],
    # 0 is covered by 1 and 3, and meets 2, which lies inside 3 and is removed by the filter
    "higher neighbour removed by the filter": [
        _box_polygon(0, 0, 2, 2),
        _box_polygon(-1, -1, 1, 3),
        _box_polygon(1.2, 0.5, 2.2, 1.5),
        _box_polygon(1, -0.5, 3.5, 2.5),
    ],
}


@pytest.mark.parametrize("name", sorted(TIGHT_PRUNE_FAMILIES))
def test_filtered_prune_matches_scan_on_tight_families(monkeypatch, name):
    scene = Scene(tuple(TIGHT_PRUNE_FAMILIES[name]))
    g = intersection_graph(scene)
    seen = _filter_spies(monkeypatch)
    assert _prune_depth_one(scene, g) == prune_depth_one_reference(scene, g)
    assert seen["clipped"][0] <= seen["unsettled"][0]
    if name == "higher neighbour removed by the filter":
        assert seen["removed"][0] == {2} and 0 in seen["clipped"][0]
        assert _prune_depth_one(scene, g) == ([1, 3], [0, 2])


@st.composite
def generated_polygon_families(draw):
    """Pentagon homothets or random rho=2 polygons, dense enough to prune."""
    n, seed = draw(st.integers(2, 60)), draw(st.integers(0, 10**6))
    if draw(st.booleans()):
        base = draw(st.sampled_from([0.05, 0.1]))
        return generate_scene("fat", n, seed, rho=1.5, k=3.0, homothets_of=pentagon_template(), base_size=base)
    k = draw(st.sampled_from([4.0, 16.0]))
    return generate_scene("fat", n, seed, rho=2.0, k=k, base_size=draw(st.sampled_from([0.03, 0.08])))


@given(generated_polygon_families())
@settings(max_examples=40, deadline=None)
def test_filtered_prune_matches_scan_on_generated_families(scene):
    g = intersection_graph(scene)
    assert _prune_depth_one(scene, g) == prune_depth_one_reference(scene, g)
    rest = sorted(set(range(len(scene))) - set(greedy_maximal_independent_set(g)))
    sub, g = scene.subscene(rest), g.subgraph(rest)
    assert _prune_depth_one(sub, g) == prune_depth_one_reference(sub, g)


def test_vertex_filter_settles_most_pipeline_shapes_and_the_clip_sees_only_the_rest(monkeypatch):
    seen = _filter_spies(monkeypatch)
    shapes = 0
    # the 36 pentagon families of the benchmark's `polygons` workload at seeds 1-3
    for scene in list(_pipeline_pentagon_families())[:36]:
        pointed_cf_pseudodiscs(scene)
        shapes += len(scene) - len(greedy_maximal_independent_set(intersection_graph(scene)))
    # generated shapes have no identical copies, so the clip decides every shape left
    assert seen["clipped"] == seen["unsettled"]
    left = sum(len(u) for u in seen["unsettled"])
    assert len(seen["unsettled"]) == 36 and left < 0.3 * shapes, (left, shapes)


def _scaled_pentagons(s):
    """Homothets of the pentagon template at scales 1, 0.9 and 0.4, offset by
    (0, 0), (0.3, 0.1) and (0.05, 0), all multiplied by s."""
    pent = pentagon_template()

    def homothet(k, dx, dy):
        verts = tuple(Point(s * (k * p.x + dx), s * (k * p.y + dy)) for p in pent.vertices)
        return ConvexFatObject(verts, Point(s * dx, s * dy), s * k * pent.r_inner, s * k * pent.r_outer)

    return Scene((homothet(1.0, 0.0, 0.0), homothet(0.9, 0.3, 0.1), homothet(0.4, 0.05, 0.0)))


@pytest.mark.parametrize("s", [1.0, 1e140, 1e-140, 2.0**-400])
def test_scaled_pentagons_prune_alike_inside_the_safe_range(s):
    # tests run with RuntimeWarnings as errors, so no overflow or underflow warning passes either
    scene = _scaled_pentagons(s)
    assert prune_depth_one(scene) == ([0, 1], [2])
    assert pointed_cf_pseudodiscs(scene).trace.vertices["pruned"]


@pytest.mark.parametrize("s", [1e300, 1e-300])
def test_scaled_pentagons_outside_the_safe_range_are_rejected(s):
    with pytest.raises(InvalidInputError, match=r"within \+-1e\+150 .* at least 1e-150"):
        _scaled_pentagons(s)


# ---------------------------------------------------------------------------
# planarity of the exactly-two auxiliary graph
# ---------------------------------------------------------------------------


def _assert_planar_along(ps, order, nx):
    for k in range(len(order.order)):
        g = auxiliary_graph(ps, order.order[k:])
        planar, _ = nx.check_planarity(nx.Graph(g.edges))
        assert planar, k


def test_auxiliary_graph_planar_at_every_peel_step_on_discs():
    nx = pytest.importorskip("networkx")
    vertices = generate_scene("discs", 80, [205, 0], radius_range=(0.05, 0.3))
    probes = generate_scene("discs", 400, [205, 1], radius_range=(0.01, 0.3), margin=0)
    ps = ProbeSystem(vertices, probes)
    _, order = _peel(ps)
    _assert_planar_along(ps, order, nx)


def test_auxiliary_graph_planar_at_every_peel_step_on_pruned_pentagons():
    nx = pytest.importorskip("networkx")
    scene = _pentagons(61, [4, 3], 0.05)
    report = pointed_cf_pseudodiscs(scene).trace
    half = report.vertices
    assert half["pruned"]
    # the pruned half: the rest of the scene as vertices, the independent set as probes
    ps = ProbeSystem(scene.subscene(half["rest"]), scene.subscene(half["independent_set"]), PSEUDODISC_MODE)
    for order in report.peels["rest"]:
        _assert_planar_along(ps, order, nx)


@pytest.mark.parametrize(
    "kind, n, seed, subscenes",
    # pentagons: shapes meet but no two of the rest do, then a rest that meets and prunes
    [("discs", 60, 3, 0), ("pentagons", 8, 0, 0), ("pentagons", 30, 6, 1)],
)
def test_pipeline_builds_a_subscene_only_to_prune(monkeypatch, kind, n, seed, subscenes):
    # the halves are colored from their vertex counts and probe hits; only
    # pruning reads shapes, so only a polygon rest whose shapes meet is sliced out
    if kind == "discs":
        scene = generate_scene("discs", n, seed)
    else:
        scene = generate_scene("fat", n, seed, rho=1.5, k=3.0, homothets_of=pentagon_template(), base_size=0.05)
    calls, real = [], Scene.subscene

    def spy(self, indices):
        calls.append(indices)
        return real(self, indices)

    monkeypatch.setattr(Scene, "subscene", spy)
    out = pointed_cf_pseudodiscs(scene)
    rest = out.trace.vertices["rest"]
    assert len(calls) == subscenes
    assert [list(c) for c in calls] == [rest] * subscenes
    if kind == "pentagons":
        # pruning runs exactly when two shapes of the rest meet
        assert (intersection_graph(scene).subgraph(rest).indices.size > 0) == (subscenes == 1)
    if subscenes:
        assert out.trace.vertices["pruned"]
