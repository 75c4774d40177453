import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfgeom import (
    Disc,
    Hypergraph,
    Point,
    ProbeSystem,
    Scene,
    auxiliary_graph,
    cf_color_vs_probes,
    generate_lower_bound_family,
    generate_scene,
    intersection_graph,
    neighborhood_hypergraph,
    peel_and_color,
    pentagon_template,
    pointed_cf_pseudodiscs,
    probe_hypergraph,
    probe_system_from_json,
    probe_system_to_json,
    prune_depth_one,
    verify_cf,
    verify_proper,
)
from cfgeom.errors import IncompatibleShapesError, PlanarityError
from cfgeom.geom import contiguous_run_witnesses, intersects
from cfgeom.hypergraph import all_intervals_hypergraph, min_cf_colors_bruteforce
from cfgeom.probes import _graph_probe_hypergraph, _ProbeEngine, pointed_cf_pseudodiscs_report


def discs(*spec):
    return Scene(tuple(Disc(Point(x, y), r) for x, y, r in spec))


def test_probe_hypergraph_no_probes():
    ps = ProbeSystem(discs((0, 0, 1)), Scene((), "discs"))
    h = probe_hypergraph(ps)
    assert h.edges == ()


def test_probe_edge_from_two_reachable_discs():
    ps = ProbeSystem(discs((0, 0, 1), (5, 0, 1)), discs((2.5, 0, 1.6)))
    h = probe_hypergraph(ps)
    assert h.edges == ((0, 1),)
    assert h.edge_labels == ("probe:0",)


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
    col, order = peel_and_color(ps)
    assert col.palette_size == 3
    assert verify_proper(probe_hypergraph(ps), col) == []
    assert all(d <= 5 for d in order.degrees)


def test_peel_single_vertex():
    ps = ProbeSystem(discs((0, 0, 1)), discs((0.5, 0, 1)))
    col, order = peel_and_color(ps)
    assert col.colors == (1,)
    assert order.order == [0]


def test_peel_200_random():
    vertices = generate_scene("discs", 200, 21)
    probes = generate_scene("discs", 200, 22, radius_range=(0.02, 0.25))
    ps = ProbeSystem(vertices, probes)
    col, order = peel_and_color(ps)
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
        col, order = peel_and_color(sub)
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
    out, report = pointed_cf_pseudodiscs_report(scene)
    assert report.independent_set == [0]
    assert out.colors[0] != out.colors[1]
    h = neighborhood_hypergraph(intersection_graph(scene), "pointed")
    assert verify_cf(h, out) == []


def test_pipeline_dense_discs():
    scene = generate_scene("discs", 120, 8, radius_range=(0.08, 0.3))
    out, report = pointed_cf_pseudodiscs_report(scene)
    h = neighborhood_hypergraph(intersection_graph(scene), "pointed")
    assert verify_cf(h, out) == []
    assert out.palette_size <= report.palette_bound
    for order in report.peel_orders_b + report.peel_orders_rest:
        assert all(d <= 5 for d in order.degrees)
        assert order.euler_violations() == []


def test_pipeline_two_palettes_structure():
    scene = generate_scene("discs", 80, 13, radius_range=(0.08, 0.3))
    out, report = pointed_cf_pseudodiscs_report(scene)
    b = set(report.independent_set)
    b_colors = {out.colors[v] for v in b}
    rest_colors = {out.colors[v] for v in range(len(scene)) if v not in b}
    assert not (b_colors & rest_colors)
    # each vertex with a neighbor has a uniquely colored one on the other side
    g = intersection_graph(scene)
    for v in range(len(scene)):
        nb = g.adjacency[v]
        if not nb:
            continue
        unique = [u for u in nb if sum(1 for w in nb if out.colors[w] == out.colors[u]) == 1]
        assert unique
        other = [u for u in unique if (u in b) != (v in b)]
        assert other


def test_pipeline_pentagons_with_pruning():
    pent = pentagon_template()
    scene = generate_scene("fat", 60, 17, rho=1.5, k=3.0, homothets_of=pent, base_size=0.06)
    out, report = pointed_cf_pseudodiscs_report(scene)
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


def test_engine_matches_standalone_auxiliary_graph():
    # replay each peel step and compare the engine's bookkeeping with a
    # from-scratch recomputation of the exactly-two graph
    from cfgeom.probes import _pairwise_hits, _ProbeEngine

    for seed in range(6):
        vertices = generate_scene("discs", 30, [201, seed], radius_range=(0.05, 0.3))
        probes = generate_scene("discs", 45, [202, seed], radius_range=(0.02, 0.35))
        ps = ProbeSystem(vertices, probes)
        h = _pairwise_hits(vertices, probes)
        engine = _ProbeEngine(30, h.indptr, h.indices)
        _, order = engine.peel(range(30))
        active = set(range(30))
        for v, deg, (nv, ne) in zip(order.order, order.degrees, order.aux_sizes):
            g = auxiliary_graph(ps, sorted(active))
            assert nv == len(active)
            assert ne == len(g.edges)
            assert deg == sum(1 for e in g.edges if v in e)
            active.discard(v)


def test_planarity_violation_raises(monkeypatch):
    # a K7 exactly-two structure cannot arise from genuine disc geometry, so
    # fake the hit lists to exercise the error path
    import cfgeom.probes as probes_mod

    pairs = [(i, j) for i in range(7) for j in range(i + 1, 7)]

    def fake_hits(vertices, probes):
        return Hypergraph(7, pairs)

    monkeypatch.setattr(probes_mod, "_pairwise_hits", fake_hits)
    vertices = generate_scene("discs", 7, 1)
    probes = generate_scene("discs", len(pairs), 2)
    with pytest.raises(probes_mod.PlanarityError):
        peel_and_color(ProbeSystem(vertices, probes))


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
    assert h.edge_labels == tuple(f"probe:{j}" for j in range(len(probes)))


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
    hits = tuple(tuple(sorted(pos[u] for u in g.adjacency[p] if u in pos)) for p in probes)
    assert (h.n, h.edges, h.vertex_labels) == (len(vertices), hits, None)
    assert h.edge_labels == tuple(f"probe:{j}" for j in range(len(probes)))
    direct = probe_hypergraph(ProbeSystem(scene.subscene(vertices), scene.subscene(probes)))
    assert direct.edges == hits


def _tuple_engine(n, hits):
    """_ProbeEngine as its constructor built it from hit tuples, kept as the reference."""
    engine = _ProbeEngine.__new__(_ProbeEngine)
    engine.n = n
    engine.hits = sorted({h for h in hits if h})
    engine.hitters = [[] for _ in range(n)]
    flat_v, flat_p = [], []
    for pid, h in enumerate(engine.hits):
        for v in h:
            engine.hitters[v].append(pid)
            flat_v.append(v)
            flat_p.append(pid)
    engine._flat_v = np.asarray(flat_v, dtype=np.int64)
    engine._flat_p = np.asarray(flat_p, dtype=np.int64)
    engine.peel_log = []
    return engine


def _peel_outcome(engine, active):
    try:
        colors, order = engine.peel(active)
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
    csr, reference = _ProbeEngine(n, h.indptr, h.indices), _tuple_engine(n, h.edges)
    assert csr.hits == reference.hits
    assert csr.hitters == reference.hitters
    assert csr._flat_v.tolist() == reference._flat_v.tolist()
    assert csr._flat_p.tolist() == reference._flat_p.tolist()
    for active in (range(n), sorted(data.draw(st.sets(st.integers(0, n - 1))))):
        assert _peel_outcome(csr, active) == _peel_outcome(reference, active)


def test_engine_from_csr_keeps_peel_orders_on_disc_systems():
    for seed in range(4):
        vertices = generate_scene("discs", 40, [203, seed], radius_range=(0.05, 0.3))
        probes = generate_scene("discs", 400, [204, seed], radius_range=(0.01, 0.3), margin=0)
        h = probe_hypergraph(ProbeSystem(vertices, probes))
        csr, reference = _ProbeEngine(40, h.indptr, h.indices), _tuple_engine(40, h.edges)
        assert csr.hits == reference.hits
        for active in (range(40), range(0, 40, 3)):
            assert _peel_outcome(csr, active) == _peel_outcome(reference, active)
