import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfgeom import (
    Coloring,
    Graph,
    Hypergraph,
    ProperColorer,
    all_intervals_hypergraph,
    cf_palette_bound,
    generate_scene,
    ProbeSystem,
    intersection_graph,
    neighborhood_hypergraph,
    peel_proper_colorer,
    pointed_to_closed,
    pointed_cf_pseudodiscs,
    probe_hypergraph,
    proper_to_cf,
    proper_to_cf_list,
    verify_cf,
)
from cfgeom.errors import ColorerContractError, InvalidInputError, ListExhaustedError, VerificationError
from cfgeom.framework import _largest_class
from cfgeom.probes import _ProbeEngine
from peel_reference import reference_colorer


def alternating_colorer(k: int = 2) -> ProperColorer:
    """Hereditary proper colorer for contiguous-run hypergraphs: alternate by
    position among the kept vertices."""

    def fn(sub: Hypergraph) -> Coloring:
        return Coloring(tuple(1 + (i % 2) for i in range(sub.n)))

    return ProperColorer(fn, k, "alternate")


def test_edgeless_hypergraph_single_round():
    h = Hypergraph(5, ())

    def constant(sub: Hypergraph) -> Coloring:
        return Coloring(tuple(1 for _ in range(sub.n)))

    out = proper_to_cf(h, ProperColorer(constant, 2, "constant"))
    assert out.palette_size == 1
    assert set(out.colors) == {1}


def test_four_point_trace():
    h = all_intervals_hypergraph(4)
    out = proper_to_cf(h, alternating_colorer())
    # round 1 removes positions {0, 2}, round 2 removes {1}, round 3 removes {3}
    assert out.colors == (1, 2, 1, 3)
    assert out.palette_size == 3
    assert out.trace.palette_bound == cf_palette_bound(4, 2)
    assert verify_cf(h, out) == []


def test_bound_formula():
    assert cf_palette_bound(100, 6) == 27
    assert cf_palette_bound(1, 6) == 1
    assert cf_palette_bound(2, 2) == 2
    assert cf_palette_bound(0, 6) == 0
    assert cf_palette_bound(100, 1) == 1


def test_max_final_color_unique_in_every_edge():
    h = all_intervals_hypergraph(11)
    out = proper_to_cf(h, alternating_colorer())
    for e in h.edges:
        top = max(out.colors[v] for v in e)
        assert sum(1 for v in e if out.colors[v] == top) == 1


def test_round_count_bound():
    for n in (1, 5, 17, 33):
        h = all_intervals_hypergraph(n)
        out = proper_to_cf(h, alternating_colorer())
        rounds = out.palette_size
        assert rounds <= math.ceil(math.log(max(n, 2), 2)) + 1
        assert rounds <= cf_palette_bound(n, 2)


def test_colorer_exceeding_palette_aborts():
    def too_many(sub: Hypergraph) -> Coloring:
        return Coloring(tuple(range(1, sub.n + 1)))

    h = all_intervals_hypergraph(4)
    with pytest.raises(ColorerContractError):
        proper_to_cf(h, ProperColorer(too_many, 2, "spendthrift"))


def test_improper_colorer_aborts():
    def constant(sub: Hypergraph) -> Coloring:
        return Coloring(tuple(1 for _ in range(sub.n)))

    h = all_intervals_hypergraph(4)
    with pytest.raises(ColorerContractError) as err:
        proper_to_cf(h, ProperColorer(constant, 2, "mono"))
    assert err.value.sub_hypergraph is not None


def test_partial_colorer_aborts():
    def drops_last(sub: Hypergraph) -> Coloring:
        return Coloring(tuple(1 + i % 2 for i in range(sub.n - 1)))

    with pytest.raises(ColorerContractError, match="partial coloring"):
        proper_to_cf(all_intervals_hypergraph(4), ProperColorer(drops_last, 2, "partial"))


def test_list_identical_lists_degenerates():
    h = all_intervals_hypergraph(4)
    m = cf_palette_bound(4, 2)
    lists = [list(range(1, m + 1))] * 4
    out = proper_to_cf_list(h, lists, alternating_colorer())
    assert all(c in lists[0] for c in out.colors)
    assert verify_cf(h, out) == []


def test_list_single_vertex():
    h = Hypergraph(1, ((0,),))
    out = proper_to_cf_list(h, [[7]], alternating_colorer())
    assert out.colors == (7,)


def test_list_with_one_colorer_on_edgeless_hypergraph():
    # a proper 1-coloring leaves no edge of two vertices, so one round per list color suffices
    h = Hypergraph(5, ((0,), (3,), ()))
    one = ProperColorer(lambda sub: Coloring((1,) * sub.n), 1, "one")
    lists = [[1], [1], [2], [1, 2], [3]]
    out = proper_to_cf_list(h, lists, one)
    assert out.colors == (1, 1, 2, 1, 3)
    assert verify_cf(h, out) == []
    with pytest.raises(InvalidInputError):
        ProperColorer(one.fn, 0)


def test_list_four_points_spec_lists():
    h = all_intervals_hypergraph(4)
    lists = [[1, 2, 3], [2, 3, 4], [1, 3, 4], [1, 2, 4]]
    out = proper_to_cf_list(h, lists, alternating_colorer())
    for v in range(4):
        assert out.colors[v] in lists[v]
    assert verify_cf(h, out) == []


def test_list_size_precondition():
    h = all_intervals_hypergraph(8)
    with pytest.raises(ValueError):
        proper_to_cf_list(h, [[1, 2]] * 8, alternating_colorer())


def test_list_exhaustion_reported():
    # lists of cf_palette_bound(4, 2) = 3 colors pass the size check, yet
    # drain the centre of a star: each round's most popular color is held by
    # the centre and one leaf, a proper coloring parts them, and the tie goes
    # to the leaf's class, the one holding the smaller vertex
    h = Hypergraph(4, ((0, 3), (1, 3), (2, 3)))

    def centre_apart(sub: Hypergraph) -> Coloring:
        return Coloring((1,) * (sub.n - 1) + (2,))

    lists = [[1, 10, 11], [2, 12, 13], [3, 14, 15], [1, 2, 3]]
    with pytest.raises(ListExhaustedError) as err:
        proper_to_cf_list(h, lists, ProperColorer(centre_apart, 2))
    assert err.value.vertex == 3


def _list_colors_by_recount(h, lists, pc):
    """The list iteration with its popularity recounted over every uncolored
    list each round: the final colors, or the vertex of ListExhaustedError."""
    color = pc._rounds(h)
    remaining = [set(lst) for lst in lists]
    final = [None] * h.n
    while alive := [v for v in range(h.n) if final[v] is None]:
        for v in alive:
            if not remaining[v]:
                return ("exhausted", v)
        popularity = Counter(c for v in alive for c in remaining[v])
        c = max(popularity, key=lambda col: (popularity[col], -col))
        holders = [v for v in alive if c in remaining[v]]
        for v in _largest_class(color(holders), holders):
            final[v] = c
        for v in alive:
            remaining[v].discard(c)
    return tuple(final)


def _list_colors(h, lists, pc):
    try:
        return proper_to_cf_list(h, lists, pc).colors
    except ListExhaustedError as exc:
        return ("exhausted", exc.vertex)


@given(st.integers(1, 50), st.integers(0, 300), st.integers(0, 10**6), st.integers(0, 6), st.booleans())
@settings(max_examples=120, deadline=None)
def test_list_popularity_counts_match_a_per_round_recount(n, m, seed, extra, longer):
    # extra 0 gives every vertex the same list, so every color ties; small extras tie often
    vertices = generate_scene("discs", n, [seed, 0], span=1.5, margin=0)
    probes = generate_scene("discs", m, [seed, 1], radius_range=(0.01, 0.4), margin=0)
    h = probe_hypergraph(ProbeSystem(vertices, probes))
    pc = peel_proper_colorer(vertices, probes)
    rng = np.random.default_rng(seed)
    need = cf_palette_bound(n, 6)
    sizes = rng.integers(need, need + extra + 1, n) if longer else [need] * n
    lists = [(rng.choice(need + extra, size=s, replace=False) + 1).tolist() for s in sizes]
    assert _list_colors(h, lists, pc) == _list_colors_by_recount(h, lists, pc)


def test_list_popularity_counts_match_a_per_round_recount_on_tied_lists():
    h = all_intervals_hypergraph(6)
    pc = alternating_colorer()
    need = cf_palette_bound(6, 2)
    cases = [
        [list(range(1, need + 1))] * 6,  # all tied
        [list(range(need, 0, -1))] * 6,  # all tied, listed in reverse
        [[(v + j) % (need + 1) + 1 for j in range(need)] for v in range(6)],  # rotated: ties between neighbours
    ]
    for lists in cases:
        got = _list_colors(h, lists, pc)
        assert got == _list_colors_by_recount(h, lists, pc)
        assert got[0] != "exhausted"


# ---------------------------------------------------------------------------
# the peel engine against the same peel as a supplied colorer
# ---------------------------------------------------------------------------


def _same_iterations(vertices, probes, lists):
    """Both iterations give identical colorings with the engine that
    peel_proper_colorer returns and with the reference colorer."""
    h = probe_hypergraph(ProbeSystem(vertices, probes))
    engine, reference = peel_proper_colorer(vertices, probes), reference_colorer()
    assert proper_to_cf(h, engine) == proper_to_cf(h, reference)
    assert proper_to_cf_list(h, lists, engine) == proper_to_cf_list(h, lists, reference)


def test_peel_engine_matches_reference_colorer_on_criterion_5():
    rng = np.random.default_rng(99)
    for i in range(100):  # criterion 5's instances and lists
        n = (i * 11) % 64 + 1
        vertices = generate_scene("discs", n, [6, i])
        probes = generate_scene("discs", 150, [6, i, 1], radius_range=(0.01, 0.3), margin=0)
        need = cf_palette_bound(n, 6)
        lists = [sorted(rng.choice(2 * need, size=need, replace=False) + 1) for _ in range(n)]
        _same_iterations(vertices, probes, lists)


@given(st.integers(1, 60), st.integers(0, 400), st.integers(0, 10**6), st.integers(0, 8))
@settings(max_examples=80, deadline=None)
def test_peel_engine_matches_reference_colorer_on_random_systems(n, m, seed, extra):
    # overlapping vertices and probes, and lists over need + extra colors, so
    # that colors tie in popularity (extra 0: every list is the same)
    vertices = generate_scene("discs", n, [seed, 0], span=1.5, margin=0)
    probes = generate_scene("discs", m, [seed, 1], radius_range=(0.01, 0.4), margin=0)
    need = cf_palette_bound(n, 6)
    rng = np.random.default_rng(seed)
    lists = [rng.choice(need + extra, size=need, replace=False) + 1 for _ in range(n)]
    _same_iterations(vertices, probes, lists)


def test_peel_engine_matches_reference_colorer_when_holders_do_not_nest(monkeypatch):
    # the holders of successive colors need not nest, so a round may hold vertices the last one did not
    # (its live members come from the full arrays) or only some of them (narrowed from the last round's)
    n = 60
    vertices = generate_scene("discs", n, [9, 0], span=1.5, margin=0)
    probes = generate_scene("discs", 400, [9, 1], radius_range=(0.01, 0.4), margin=0)
    need = cf_palette_bound(n, 6)
    halves = [list(range(1, need + 1)) if v % 2 else list(range(need + 1, 2 * need + 1)) for v in range(n)]
    rotated = [[(v + j) % (need + 3) + 1 for j in range(need)] for v in range(n)]
    peel = _ProbeEngine._peel
    rounds = []

    def spy(engine, ids, *live):
        rounds.append(set(ids.tolist()))
        return peel(engine, ids, *live)

    monkeypatch.setattr(_ProbeEngine, "_peel", spy)
    for lists in (halves, rotated):
        rounds.clear()
        proper_to_cf_list(probe_hypergraph(ProbeSystem(vertices, probes)), lists, peel_proper_colorer(vertices, probes))
        steps = list(zip(rounds, rounds[1:]))
        assert any(not b <= a for a, b in steps) and any(b < a for a, b in steps)
        _same_iterations(vertices, probes, lists)


def test_repeated_iterations_leave_the_peel_engine_the_same_size():
    # the engine keeps no peels: each iteration hands its peels to its caller and drops them
    vertices = generate_scene("discs", 40, [6, 1])
    probes = generate_scene("discs", 150, [6, 1, 1], radius_range=(0.01, 0.3), margin=0)
    h = probe_hypergraph(ProbeSystem(vertices, probes))
    engine = peel_proper_colorer(vertices, probes)
    lists = [list(range(1, cf_palette_bound(40, 6) + 1))] * 40

    def state():
        sizes = {int: lambda v: v, np.ndarray: lambda v: v.nbytes}
        return {k: sizes.get(type(v), len)(v) for k, v in vars(engine).items()}

    first = proper_to_cf_list(h, lists, engine), proper_to_cf(h, engine)
    size = state()
    for _ in range(2):
        assert (proper_to_cf_list(h, lists, engine), proper_to_cf(h, engine)) == first
    assert state() == size


def test_pointed_to_closed_k2():
    g = Graph(2, frozenset({(0, 1)}))
    out = pointed_to_closed(g, Coloring((1, 1)))
    assert out.colors == (0, 1)
    assert out.palette_map == {0: (1, 1), 1: (1, 2)}


def test_pointed_to_closed_proper_input_relabels():
    g = Graph(3, frozenset({(0, 1), (1, 2)}))
    out = pointed_to_closed(g, Coloring((1, 2, 3)))
    assert out.palette_map is not None
    assert all(out.palette_map[c][1] == 1 for c in out.colors)
    assert out.palette_size == 3


def test_pointed_to_closed_rejects_non_pointed_cf():
    # the middle vertex of a path sees two same-colored neighbors
    g = Graph(3, frozenset({(0, 1), (1, 2)}))
    with pytest.raises(VerificationError):
        pointed_to_closed(g, Coloring((1, 2, 1)))


def test_pointed_to_closed_on_pipeline_outputs():
    for seed in range(4):
        scene = generate_scene("discs", 40, seed)
        g = intersection_graph(scene)
        pointed = pointed_cf_pseudodiscs(scene)
        out = pointed_to_closed(g, pointed)
        assert out.palette_size <= 2 * pointed.palette_size
        closed = neighborhood_hypergraph(g, "closed")
        assert verify_cf(closed, out) == []


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_refinement_preserves_uniqueness(data):
    n = data.draw(st.integers(2, 10))
    colors = data.draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    members = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1)))
    refinement = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    refined = [2 * c + r for c, r in zip(colors, refinement)]
    for v in members:
        if sum(1 for u in members if colors[u] == colors[v]) == 1:
            assert sum(1 for u in members if refined[u] == refined[v]) == 1


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_conversion_on_arbitrary_pointed_cf_colorings(data):
    # random small graph; take the oracle's witness for the pointed
    # neighborhood hypergraph, which is pointed-CF by construction
    from cfgeom import min_cf_colors_bruteforce

    n = data.draw(st.integers(2, 8))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = frozenset(data.draw(st.sets(st.sampled_from(pairs))))
    g = Graph(n, edges)
    pointed = neighborhood_hypergraph(g, "pointed")
    found = min_cf_colors_bruteforce(pointed, n)
    assert found is not None
    _, witness = found
    out = pointed_to_closed(g, witness)
    assert out.palette_size <= 2 * witness.palette_size
    closed = neighborhood_hypergraph(g, "closed")
    assert verify_cf(closed, out) == []


def _class_split_levels_reference(g, colors):
    """Levels of the pointed-to-closed split by explicit components: in each
    color class, a single-edge component gets levels 1 and 2 (2 on its larger
    vertex); in larger components the leaves get level 2."""
    level = [1] * g.n
    ptr, idx = g.indptr.tolist(), g.indices.tolist()
    adjacency = [idx[a:b] for a, b in zip(ptr, ptr[1:])]
    for col in set(colors):
        inside = {v for v in range(g.n) if colors[v] == col}
        deg = {v: sum(1 for u in adjacency[v] if u in inside) for v in inside}
        seen = set()
        for v in sorted(inside):
            if v in seen:
                continue
            comp, stack = [v], [v]
            seen.add(v)
            while stack:
                for w in adjacency[stack.pop()]:
                    if w in inside and w not in seen:
                        seen.add(w)
                        comp.append(w)
                        stack.append(w)
            if len(comp) == 2:
                level[max(comp)] = 2
            else:
                for u in comp:
                    if deg[u] == 1:
                        level[u] = 2
    return level


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_class_split_matches_component_reference(data):
    from cfgeom.framework import _class_levels

    n = data.draw(st.integers(1, 12))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    g = Graph(n, data.draw(st.sets(st.sampled_from(pairs))) if pairs else ())
    colors = data.draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    assert _class_levels(g, colors) == _class_split_levels_reference(g, colors)
