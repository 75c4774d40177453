import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfgeom import (
    AARect,
    Interval,
    Scene,
    closed_cf_color_intervals,
    generate_scene,
    intersection_graph,
    neighborhood_hypergraph,
    verify_cf,
)
from cfgeom.intervals import _interval_chain
from cfgeom.rects import color_rects_traced


def scene_of(*pairs):
    return Scene(tuple(Interval(a, b) for a, b in pairs))


def _meet(a, b):
    return a.lo <= b.hi and b.lo <= a.hi


def check_chain_invariants(ivs, chain, colors):
    """Structural facts the chain's correctness argument rests on."""
    k = len(chain)
    rights = [ivs[i].hi for i in chain]
    assert all(a < b for a, b in zip(rights, rights[1:])), "chain right endpoints not strictly increasing"
    for a in range(k):
        for b in range(a + 2, k):
            assert not _meet(ivs[chain[a]], ivs[chain[b]]), f"chain members {a} and {b} intersect"
    for i, iv in enumerate(ivs):
        for a in range(k - 2):
            sa, sm, sb = (ivs[chain[a + d]] for d in range(3))
            assert not (_meet(iv, sa) and _meet(iv, sb) and not _meet(iv, sm)), (
                f"interval {i} meets chain links {a} and {a + 2} but not {a + 1}"
            )
    for i, iv in enumerate(ivs):
        if colors[i] == 3:
            seen = [sum(1 for pos, j in enumerate(chain) if pos % 2 == par and _meet(iv, ivs[j])) for par in (0, 1)]
            assert min(seen) < 2, f"color-3 interval {i} sees two of each chain color"
    # the chain covers the union: every endpoint of the family lies in a link
    for iv in ivs:
        for p in (iv.lo, iv.hi):
            assert any(ivs[j].lo <= p <= ivs[j].hi for j in chain), f"chain does not cover family point {p}"


def test_single_interval():
    col, chain = closed_cf_color_intervals(scene_of((0, 10)))
    assert col.colors == (1,)
    assert chain == [0]


def test_three_interval_trace():
    col, chain = closed_cf_color_intervals(scene_of((0, 2), (1, 4), (3, 6)))
    assert chain == [0, 1, 2]
    assert col.colors == (1, 2, 1)


def test_empty_family_rejected():
    with pytest.raises(ValueError):
        closed_cf_color_intervals(Scene((), "intervals"))
    with pytest.raises(ValueError):
        closed_cf_color_intervals(Scene((Interval(0, 1), AARect(0, 1, 0, 1))))


def test_disconnected_union_bridged():
    col, chain = closed_cf_color_intervals(scene_of((0, 1), (5, 6), (5.5, 7)))
    assert chain == [0, 1, 2]
    assert col.palette_size <= 3


def test_nested_intervals():
    col, chain = closed_cf_color_intervals(scene_of((0, 10), (1, 2), (3, 4), (6, 9)))
    assert chain == [0]
    assert col.colors == (1, 3, 3, 3)
    h = neighborhood_hypergraph(intersection_graph(scene_of((0, 10), (1, 2), (3, 4), (6, 9))), "closed")
    assert verify_cf(h, col) == []


def test_two_hundred_random_families():
    for seed in range(12):
        scene = generate_scene("intervals", 200, seed)
        col, chain = closed_cf_color_intervals(scene)
        assert col.palette_size <= 3
        # re-verify independently of the constructor's own check
        h = neighborhood_hypergraph(intersection_graph(scene), "closed")
        assert verify_cf(h, col) == []
        check_chain_invariants(scene.shapes, chain, col.colors)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_random_families_closed_cf(data):
    n = data.draw(st.integers(1, 24))
    los = data.draw(st.lists(st.floats(0, 100, allow_nan=False), min_size=n, max_size=n))
    lens = data.draw(st.lists(st.floats(0, 30, allow_nan=False), min_size=n, max_size=n))
    scene = Scene(tuple(Interval(lo, lo + ln) for lo, ln in zip(los, lens)))
    col, chain = closed_cf_color_intervals(scene)
    assert col.palette_size <= 3
    assert set(chain) <= set(range(n))
    check_chain_invariants(scene.shapes, chain, col.colors)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_rect_node_chains_keep_invariants(data):
    # every rectangle recursion node colors its stabbed rectangles by the
    # chain of their y-ranges; the chain facts must hold there too
    n = data.draw(st.integers(1, 30))
    coord = st.floats(0, 100, allow_nan=False)
    size = st.floats(0, 40, allow_nan=False)
    boxes = data.draw(st.lists(st.tuples(coord, size, coord, size), min_size=n, max_size=n))
    scene = Scene(tuple(AARect(x, x + w, y, y + h) for x, w, y, h in boxes))
    col, trace = color_rects_traced(scene)
    nodes = {}
    for i, (depth, node) in enumerate(trace):
        nodes.setdefault((depth, node), []).append(i)
    for (depth, _), stabbed in nodes.items():
        ys = [Interval(scene[i].ymin, scene[i].ymax) for i in stabbed]
        colors, chain = _interval_chain(ys)
        check_chain_invariants(ys, chain, colors)
        assert [col.colors[i] for i in stabbed] == [3 * depth + c for c in colors]
