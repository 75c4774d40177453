import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfgeom import (
    AARect,
    Coloring,
    Disc,
    Graph,
    Hypergraph,
    Point,
    Scene,
    all_intervals_hypergraph,
    coloring_from_json,
    coloring_to_json,
    generate_scene,
    greedy_maximal_independent_set,
    induced,
    intersection_graph,
    min_cf_colors_bruteforce,
    neighborhood_hypergraph,
    verify_cf,
    verify_proper,
)
from cfgeom.errors import VerificationError
from cfgeom.hypergraph import _color_counts, certify, neighborhood_violations


def test_intersection_graph_empty():
    g = intersection_graph(Scene(()))
    assert g.n == 0 and not g.edges


def test_three_tangent_discs_make_triangle():
    scene = Scene(tuple(Disc(Point(i, 0), 1) for i in range(3)))
    g = intersection_graph(scene)
    assert g.edges == frozenset({(0, 1), (1, 2), (0, 2)})


def test_disjoint_rects_isolated():
    scene = Scene((AARect(0, 1, 0, 1), AARect(2, 3, 0, 1)))
    g = intersection_graph(scene)
    assert g.n == 2 and not g.edges


def test_neighborhood_hypergraph_k2():
    g = Graph(2, frozenset({(0, 1)}))
    pointed = neighborhood_hypergraph(g, "pointed")
    assert pointed.edges == ((1,), (0,))
    closed = neighborhood_hypergraph(g, "closed")
    assert closed.edges == ((0, 1), (0, 1))


def test_neighborhood_hypergraph_path_pointed():
    g = Graph(3, frozenset({(0, 1), (1, 2)}))
    pointed = neighborhood_hypergraph(g, "pointed")
    assert pointed.edges == ((1,), (0, 2), (1,))


def test_pointed_mode_omits_empty_neighborhoods():
    g = Graph(3, frozenset({(0, 1)}))
    pointed = neighborhood_hypergraph(g, "pointed")
    assert len(pointed.edges) == 2


def test_induced():
    h = Hypergraph(3, ((0, 1, 2),))
    assert induced(h, [0, 1, 2]).edges == ((0, 1, 2),)
    sub = induced(h, [0, 2])
    assert sub.edges == ((0, 1),)
    assert induced(Hypergraph(3, ((0, 1),)), [2]).edges == ((),)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_induced_commutes_with_edge_intersection(data):
    n = data.draw(st.integers(1, 8))
    edges = data.draw(st.lists(st.sets(st.integers(0, n - 1)), max_size=6))
    h = Hypergraph(n, tuple(tuple(sorted(e)) for e in edges))
    keep = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1)))
    sub = induced(h, keep)
    pos = {v: i for i, v in enumerate(keep)}
    for e, se in zip(h.edges, sub.edges):
        assert tuple(sorted(pos[v] for v in e if v in pos)) == se


def test_verify_proper_examples():
    h = Hypergraph(2, ((0, 1),))
    assert verify_proper(h, Coloring((1, 1))) == [0]
    assert verify_proper(h, Coloring((1, 2))) == []
    h1 = Hypergraph(1, ((0,),))
    assert verify_proper(h1, Coloring((1,))) == []


def test_verify_cf_examples():
    h = Hypergraph(3, ((0, 1, 2),))
    assert verify_cf(h, Coloring((1, 1, 2))) == []
    h4 = Hypergraph(4, ((0, 1, 2, 3),))
    assert verify_cf(h4, Coloring((1, 1, 2, 2))) == [0]
    h2 = Hypergraph(3, ((0, 1), (1, 2)))
    assert verify_cf(h2, Coloring((1, 2, 1))) == []


def test_cf_implies_proper_edgewise():
    h = all_intervals_hypergraph(6)
    _, witness = min_cf_colors_bruteforce(h, 6)
    assert verify_cf(h, witness) == []
    assert verify_proper(h, witness) == []


def test_empty_edges_ignored():
    h = Hypergraph(2, ((), (0, 1)))
    assert verify_cf(h, Coloring((1, 2))) == []
    assert verify_proper(h, Coloring((1, 1))) == [1]


def test_oracle_single_edge():
    t, witness = min_cf_colors_bruteforce(Hypergraph(2, ((0, 1),)), 4)
    assert t == 2
    assert verify_cf(Hypergraph(2, ((0, 1),)), witness) == []


@pytest.mark.parametrize("n,expected", [(1, 1), (2, 2), (4, 3), (8, 4)])
def test_oracle_log_growth_on_interval_hypergraphs(n, expected):
    t, witness = min_cf_colors_bruteforce(all_intervals_hypergraph(n), 8)
    assert t == expected
    assert verify_cf(all_intervals_hypergraph(n), witness) == []


def test_oracle_limits():
    with pytest.raises(ValueError):
        min_cf_colors_bruteforce(Hypergraph(17, ()), 4)
    assert min_cf_colors_bruteforce(all_intervals_hypergraph(4), 2) is None


def test_oracle_of_no_vertices_needs_no_color():
    assert min_cf_colors_bruteforce(Hypergraph(0, ()), 3) == (0, Coloring(()))


def test_greedy_mis_examples():
    path = Graph(3, frozenset({(0, 1), (1, 2)}))
    assert greedy_maximal_independent_set(path) == [0, 2]
    k3 = Graph(3, frozenset({(0, 1), (1, 2), (0, 2)}))
    assert len(greedy_maximal_independent_set(k3)) == 1
    empty = Graph(4, frozenset())
    assert greedy_maximal_independent_set(empty) == [0, 1, 2, 3]
    assert greedy_maximal_independent_set(path, [1, 0, 2]) == [1]
    assert greedy_maximal_independent_set(path, np.array([1, 0, 2])) == [1]  # numpy ids are integers too
    with pytest.raises(ValueError):
        greedy_maximal_independent_set(path, [0, 0, 1])


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_greedy_mis_is_independent_and_maximal(data):
    n = data.draw(st.integers(1, 12))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = frozenset(data.draw(st.sets(st.sampled_from(pairs)))) if pairs else frozenset()
    g = Graph(n, edges)
    mis = set(greedy_maximal_independent_set(g))
    for u, v in g.edges:
        assert not (u in mis and v in mis)
    for v in range(n):
        if v not in mis:
            assert any(u in mis for u in g.indices[g.indptr[v] : g.indptr[v + 1]].tolist())


def test_coloring_json_roundtrip():
    c = Coloring((0, 2, 2, 5), {0: (1, 1), 2: (2, 1), 5: (3, 2)})
    again = coloring_from_json(coloring_to_json(c))
    assert again.colors == c.colors
    assert again.palette_map == c.palette_map
    plain = Coloring((1, 2, 1))
    assert coloring_from_json(coloring_to_json(plain)) == plain
    with pytest.raises(ValueError):
        coloring_from_json('{"colors": [1, 2], "palette_size": 7}')


def test_coloring_keeps_a_read_only_copy_of_its_colors():
    given = np.array([3, 1, 2, 1])
    c, view = Coloring(given), Coloring(given[::2])
    given[:] = 9  # the caller's array changes afterwards
    assert c.colors == (3, 1, 2, 1) and c._array.tolist() == [3, 1, 2, 1]
    assert view.colors == (3, 2) and view._array.tolist() == [3, 2]
    assert c._array.dtype == np.int64 and not c._array.flags.writeable
    with pytest.raises(ValueError):
        c._array[0] = 5
    # the verifiers read the copy: colors 3, 1, 1 make edge 0 conflict-free, the caller's 9, 9, 9 would not
    assert verify_cf(Hypergraph(4, [[0, 1, 3], [2]]), c) == []
    small = Coloring(np.array([1, 2], dtype=np.uint8))
    assert small._array.dtype == np.int64 and small == Coloring((1, 2))


def test_hypergraph_validation():
    with pytest.raises(ValueError):
        Hypergraph(2, ((0, 5),))
    with pytest.raises(ValueError):
        Graph(2, frozenset({(0, 0)}))
    h = Hypergraph(3, ((2, 0, 2),))
    assert h.edges == ((0, 2),)


def _verify_cf_reference(h, colors):
    """Literal restatement of the CF condition, independent of the fast path."""
    bad = []
    for idx, e in enumerate(h.edges):
        if not e:
            continue
        if not any(sum(1 for u in e if colors[u] == colors[v]) == 1 for v in e):
            bad.append(idx)
    return bad


def _edge_owners(g, mode):
    """The vertex of each edge of neighborhood_hypergraph(g, mode): closed edge v
    is N[v]; pointed edge i is N(v) for the i-th vertex v with a neighbour."""
    return list(range(g.n)) if mode == "closed" else np.flatnonzero(np.diff(g.indptr)).tolist()


def _verify_proper_reference(h, colors):
    bad = []
    for idx, e in enumerate(h.edges):
        if len(e) >= 2 and len({colors[v] for v in e}) == 1:
            bad.append(idx)
    return bad


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_verifiers_match_reference_implementation(data):
    n = data.draw(st.integers(1, 9))
    edges = data.draw(st.lists(st.sets(st.integers(0, n - 1)), max_size=8))
    h = Hypergraph(n, tuple(tuple(sorted(e)) for e in edges))
    colors = data.draw(st.lists(st.integers(-2, 4), min_size=n, max_size=n))
    assert verify_cf(h, colors) == _verify_cf_reference(h, colors)
    assert verify_proper(h, colors) == _verify_proper_reference(h, colors)


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_graph_certification_matches_neighborhood_hypergraph(data):
    n = data.draw(st.integers(1, 9))
    pairs = data.draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))
    g = Graph(n, frozenset((u, v) for u, v in pairs if u < v))
    colors = data.draw(st.lists(st.integers(-2, 4), min_size=n, max_size=n))
    for mode in ("pointed", "closed"):
        h = neighborhood_hypergraph(g, mode)
        owners = _edge_owners(g, mode)
        expected = [owners[i] for i in _verify_cf_reference(h, colors)]
        assert neighborhood_violations(g, colors, mode) == expected
        if expected:
            with pytest.raises(VerificationError):
                certify(g, Coloring(tuple(colors)), mode)
        else:
            assert certify(g, Coloring(tuple(colors)), mode).colors == tuple(colors)
    keep = sorted(data.draw(st.sets(st.integers(0, n - 1))))
    pos = {v: i for i, v in enumerate(keep)}
    assert g.subgraph(keep).edges == {(pos[u], pos[v]) for u, v in g.edges if u in pos and v in pos}


@pytest.mark.parametrize("keep", [[0, 0, 2], [2, 1], [0, 5], [-1, 0]])
def test_subgraph_rejects_keep_not_strictly_increasing_in_range(keep):
    path = Graph(3, frozenset({(0, 1), (1, 2)}))
    with pytest.raises(ValueError, match="strictly increasing"):
        path.subgraph(keep)


def test_certify_bound_lists_and_properness():
    h = Hypergraph(3, ((0, 1), (1, 2)))
    ok = Coloring((1, 2, 1))
    assert certify(h, ok, bound=2, lists=[[1], [2, 3], [1]]) is ok
    assert verify_proper(h, ok) == []
    with pytest.raises(VerificationError, match="bound is 1"):
        certify(h, ok, bound=1)
    with pytest.raises(VerificationError, match="outside their lists"):
        certify(h, ok, lists=[[1], [3], [1]])
    assert verify_proper(h, Coloring((1, 1, 2))) == [0]
    with pytest.raises(VerificationError):
        certify(h, Coloring((1, 2)))


def _min_cf_exhaustive_no_pruning(h, max_colors):
    from itertools import product

    for t in range(1, max_colors + 1):
        for assignment in product(range(1, t + 1), repeat=h.n):
            if not _verify_cf_reference(h, assignment):
                return t
    return None


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_oracle_matches_unpruned_enumeration(data):
    n = data.draw(st.integers(1, 5))
    edges = data.draw(st.lists(st.sets(st.integers(0, n - 1), min_size=1), max_size=6))
    h = Hypergraph(n, tuple(tuple(sorted(e)) for e in edges))
    slow = _min_cf_exhaustive_no_pruning(h, 3)
    fast = min_cf_colors_bruteforce(h, 3)
    assert (fast is None) == (slow is None)
    if fast is not None:
        assert fast[0] == slow


# ---------------------------------------------------------------------------
# CSR hypergraphs against the tuple-of-tuples representation they replaced
# ---------------------------------------------------------------------------


def _tuple_edges(edges):
    """What the tuple `Hypergraph` stored: each edge as its sorted distinct members."""
    return tuple(tuple(sorted(set(e))) for e in edges)


def _induced_reference(n, edges, keep):
    """The tuple-rebuilding `induced` that the CSR mask replaced, on plain
    tuples: (n, edges) of the sub-hypergraph."""
    keep = list(keep)
    if sorted(set(keep)) != sorted(keep):
        raise ValueError("keep must not contain duplicates")
    pos = {v: i for i, v in enumerate(keep)}
    return len(keep), tuple(tuple(sorted(pos[v] for v in e if v in pos)) for e in edges)


@st.composite
def raw_hypergraphs(draw):
    """(n, edges) with empty edges, repeated edges and repeated members."""
    n = draw(st.integers(0, 9))
    edges = draw(st.lists(st.lists(st.integers(0, n - 1), max_size=7) if n else st.just([]), max_size=8))
    repeats = draw(st.lists(st.sampled_from(edges), max_size=3)) if edges else []
    return n, [tuple(e) for e in edges + repeats]


@given(raw_hypergraphs())
@settings(max_examples=120, deadline=None)
def test_csr_hypergraph_matches_tuple_normalization(case):
    n, edges = case
    h = Hypergraph(n, edges)
    expected = _tuple_edges(edges)
    assert h.edges == expected
    assert h.indptr.tolist() == [0] + [sum(len(e) for e in expected[: i + 1]) for i in range(len(expected))]
    assert h.indices.tolist() == [v for e in expected for v in e]


def test_hypergraph_accepts_any_iterables_and_rejects_out_of_range():
    h = Hypergraph(4, [{3, 1}, [2, 0, 2], iter((1,)), range(2), ()])
    assert h.edges == ((1, 3), (0, 2), (1,), (0, 1), ())
    for bad in (((0, 4),), ((-1, 2),)):
        with pytest.raises(ValueError, match="out of range"):
            Hypergraph(4, bad)
    with pytest.raises(ValueError, match="out of range"):
        Hypergraph(0, ((0,),))


@given(raw_hypergraphs(), st.data())
@settings(max_examples=150, deadline=None)
def test_induced_mask_matches_tuple_reference(case, data):
    n, edges = case
    h = Hypergraph(n, edges)
    keep = data.draw(st.permutations(range(n)).flatmap(lambda p: st.integers(0, n).map(lambda k: p[:k])))
    sub = induced(h, keep)
    assert (sub.n, sub.edges) == _induced_reference(n, h.edges, keep)
    # and a second restriction, in any order
    again = data.draw(st.permutations(range(sub.n)).flatmap(lambda p: st.integers(0, sub.n).map(lambda k: p[:k])))
    twice = induced(sub, again)
    assert (twice.n, twice.edges) == _induced_reference(sub.n, sub.edges, again)


@pytest.mark.parametrize("keep", [[5], [-1], [0, 3], [1, 1], [2, 0, 2]])
def test_induced_rejects_missing_and_repeated_vertices(keep):
    h = Hypergraph(3, ((0, 1, 2),))
    with pytest.raises(ValueError, match="vertices of 0..2|duplicates"):
        induced(h, keep)


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_neighborhood_hypergraph_matches_adjacency_rows(data):
    n = data.draw(st.integers(0, 9))
    pairs = data.draw(st.sets(st.tuples(st.integers(0, 9), st.integers(0, 9)))) if n else set()
    g = Graph(n, [(u, v) for u, v in pairs if u < v < n])
    ptr, idx = g.indptr.tolist(), g.indices.tolist()
    rows = [tuple(idx[a:b]) for a, b in zip(ptr, ptr[1:])]
    pointed = neighborhood_hypergraph(g, "pointed")
    owners = [v for v in range(n) if rows[v]]
    assert pointed.edges == tuple(rows[v] for v in owners)
    closed = neighborhood_hypergraph(g, "closed")
    assert closed.edges == tuple(tuple(sorted(rows[v] + (v,))) for v in range(n))
    assert pointed.n == closed.n == n


# ---------------------------------------------------------------------------
# the counting color census against the np.unique census it replaced
# ---------------------------------------------------------------------------


def _color_counts_reference(colors, members, owners):
    """The census as two np.unique passes over the memberships, kept as the reference."""
    values, dense = np.unique(colors[members], return_inverse=True)
    p = max(len(values), 1)
    keys, counts = np.unique(owners * p + dense, return_counts=True)
    return keys // p, counts


palettes = st.sampled_from(["small", "negative", "huge", "distinct"])


def _draw_colors(data, n):
    kind = data.draw(palettes)
    if kind == "distinct":  # p = n: the table would be n x n, so sparse inputs take the sort
        return list(data.draw(st.permutations(range(n))))
    values = {
        "small": st.integers(1, 3),
        "negative": st.integers(-3, 2),
        "huge": st.sampled_from([-(10**18), 0, 10**18]),
    }
    return data.draw(st.lists(values[kind], min_size=n, max_size=n))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_color_census_matches_unique_reference(data):
    n = data.draw(st.integers(0, 12))
    edges = data.draw(st.lists(st.sets(st.integers(0, n - 1)) if n else st.just(set()), max_size=10))
    h = Hypergraph(n, edges)
    colors = _draw_colors(data, n)
    members, owners = h._flat
    got = _color_counts(np.asarray(colors, dtype=np.int64), members, owners, len(edges))
    expected = _color_counts_reference(np.asarray(colors, dtype=np.int64), members, owners)
    assert [a.tolist() for a in got] == [a.tolist() for a in expected]
    assert verify_cf(h, colors) == _verify_cf_reference(h, colors)
    assert verify_proper(h, colors) == _verify_proper_reference(h, colors)
    g = Graph(n, {(u, v) for e in edges for u in e for v in e if u < v})
    for mode in ("pointed", "closed"):  # closed appends the diagonal, so its owners are unsorted
        nh = neighborhood_hypergraph(g, mode)
        owner_of = _edge_owners(g, mode)
        assert neighborhood_violations(g, colors, mode) == [owner_of[i] for i in _verify_cf_reference(nh, colors)]


def _check_closed_census(g, colors):
    """The closed census, counting the diagonal into the arcs' census, against
    the reference census of the concatenated closed memberships."""
    colors = np.asarray(colors, dtype=np.int64)
    owners, members = g.arcs()
    loops = np.arange(g.n)
    got = _color_counts(colors, members, owners, g.n, diagonal=True)
    expected = _color_counts_reference(colors, np.concatenate([members, loops]), np.concatenate([owners, loops]))
    assert [a.tolist() for a in got] == [a.tolist() for a in expected]
    nh = neighborhood_hypergraph(g, "closed")
    assert neighborhood_violations(g, colors, "closed") == _verify_cf_reference(nh, colors.tolist())


PATH6 = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]
CLOSED_CENSUS_CASES = {
    # name: (n, edges, colors, whether the n x p table is no larger than the 2|E| + n memberships plus n)
    "two colors on a path: table": (6, PATH6, [1, 2, 1, 2, 1, 2], True),
    "distinct colors on a path: sort": (6, PATH6, [5, 0, 3, 1, 4, 2], False),
    "isolated vertices, one color": (5, [(0, 1)], [7] * 5, True),
    "isolated vertices, distinct colors: sort": (6, [(2, 4)], [-1, 10**18, 3, 0, 2, 1], False),
    "no edges, two colors": (4, [], [1, 1, 2, 2], True),
    "no edges, distinct colors: sort": (4, [], [4, 3, 2, 1], False),
    "one vertex": (1, [], [9], True),
}


@pytest.mark.parametrize("name", sorted(CLOSED_CENSUS_CASES))
def test_closed_census_counts_the_diagonal_on_both_paths(name):
    n, edges, colors, table = CLOSED_CENSUS_CASES[name]
    assert (n * len(set(colors)) <= 2 * len(edges) + 2 * n) == table
    _check_closed_census(Graph(n, edges), colors)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_closed_census_matches_the_concatenated_reference(data):
    n = data.draw(st.integers(0, 12))
    pairs = st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0))).filter(lambda e: e[0] < e[1])
    edges = data.draw(st.sets(pairs, max_size=20)) if n > 1 else set()
    _check_closed_census(Graph(n, edges), _draw_colors(data, n))


def test_census_of_a_distinct_palette_builds_no_table():
    # 3000 discs spread for mean degree about 10, every disc its own color: an
    # edge x color table would hold 9e6 counts (72 MB)
    n, lo, hi = 3000, 0.05, 0.2
    span = math.sqrt(n * math.pi * (4 * ((lo + hi) / 2) ** 2 + 2 * (hi - lo) ** 2 / 12) / 10.0)
    g = intersection_graph(generate_scene("discs", n, 5, span=span, margin=0))
    h = neighborhood_hypergraph(g, "closed")
    colors = Coloring(tuple(range(n)))
    tracemalloc.start()
    try:
        assert neighborhood_violations(g, colors, "closed") == []
        assert verify_cf(h, colors) == [] and verify_proper(h, colors) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MB"
