import time
import tracemalloc

import numpy as np
import pytest
from axis_reference import reference_chain
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfgeom import (
    AARect,
    Interval,
    InvalidInputError,
    Scene,
    closed_cf_color_intervals,
    closed_cf_color_rects,
    generate_scene,
    intersection_graph,
    neighborhood_hypergraph,
    verify_cf,
)
from cfgeom.intervals import _interval_chain


def scene_of(*pairs):
    return Scene(tuple(Interval(a, b) for a, b in pairs))


def ends_of(ivs):
    return np.array([(iv.lo, iv.hi) for iv in ivs], dtype=float)


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
    col = closed_cf_color_intervals(scene_of((0, 10)))
    chain = col.trace.vertices["chain"]
    assert col.colors == (1,)
    assert chain == [0]


def test_three_interval_trace():
    col = closed_cf_color_intervals(scene_of((0, 2), (1, 4), (3, 6)))
    chain = col.trace.vertices["chain"]
    assert chain == [0, 1, 2]
    assert col.colors == (1, 2, 1)


def test_empty_family_rejected():
    with pytest.raises(ValueError):
        closed_cf_color_intervals(Scene((), "intervals"))
    with pytest.raises(ValueError):
        closed_cf_color_intervals(Scene((Interval(0, 1), AARect(0, 1, 0, 1))))


def test_invalid_families_raise_invalid_input():
    with pytest.raises(InvalidInputError, match="empty interval family"):
        closed_cf_color_intervals(Scene((), "intervals"))
    with pytest.raises(InvalidInputError, match="intervals only"):
        closed_cf_color_intervals(Scene((AARect(0, 1, 0, 1),)))


def test_disconnected_union_bridged():
    col = closed_cf_color_intervals(scene_of((0, 1), (5, 6), (5.5, 7)))
    chain = col.trace.vertices["chain"]
    assert chain == [0, 1, 2]
    assert col.palette_size <= 3


def test_nested_intervals():
    col = closed_cf_color_intervals(scene_of((0, 10), (1, 2), (3, 4), (6, 9)))
    chain = col.trace.vertices["chain"]
    assert chain == [0]
    assert col.colors == (1, 3, 3, 3)
    h = neighborhood_hypergraph(intersection_graph(scene_of((0, 10), (1, 2), (3, 4), (6, 9))), "closed")
    assert verify_cf(h, col) == []


def test_two_hundred_random_families():
    for seed in range(12):
        scene = generate_scene("intervals", 200, seed)
        col = closed_cf_color_intervals(scene)
        chain = col.trace.vertices["chain"]
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
    col = closed_cf_color_intervals(scene)
    chain = col.trace.vertices["chain"]
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
    col = closed_cf_color_rects(scene)
    trace = list(zip(col.trace.vertices["depth"], col.trace.vertices["node"]))
    nodes = {}
    for i, (depth, node) in enumerate(trace):
        nodes.setdefault((depth, node), []).append(i)
    for (depth, _), stabbed in nodes.items():
        ys = [Interval(scene[i].ymin, scene[i].ymax) for i in stabbed]
        colors, chain = _interval_chain(ends_of(ys))
        check_chain_invariants(ys, chain, colors)
        assert [col.colors[i] for i in stabbed] == [3 * depth + c for c in colors]


# the prefix-maximum sweep against the per-link scan it replaced
# ---------------------------------------------------------------------------

half = st.integers(0, 16).map(lambda k: k / 2)


@st.composite
def half_grid_families(draw):
    """Intervals on a half-integer grid: tied starts and ends, closed endpoints
    that touch, zero-length intervals, and exact repeats are all common."""
    pairs = draw(st.lists(st.tuples(half, st.integers(0, 6).map(lambda k: k / 2)), min_size=1, max_size=14))
    ivs = [Interval(lo, lo + length) for lo, length in pairs]
    repeats = draw(st.lists(st.integers(0, len(ivs) - 1), max_size=3))
    return ivs + [ivs[k] for k in repeats]


@given(half_grid_families())
@example([Interval(0, 0)])
@example([Interval(-1.5, 2)])
# the farthest right end tied, between ends of -0.0 and 0.0 too: the smaller index wins
@example([Interval(-1, 0.0), Interval(-0.0, -0.0), Interval(-2, 0.0), Interval(0.0, 0.0), Interval(-2, -0.0)])
@example([Interval(0, 1), Interval(-0.0, 1), Interval(1, 3), Interval(0, 3), Interval(0, 3), Interval(2, 3)])
# exact repeats on both sides of a hole of the union, and a point tied with their right end
@example([Interval(2, 4), Interval(0, 1), Interval(3, 4), Interval(2, 4), Interval(0, 1), Interval(4, 4)])
# 40 intervals over three starts and three ends: past 16, an unstable sort reorders the ties
@example([Interval(k * 4 % 3 / 2, 4 + k * 5 % 3 / 2) for k in range(40)])
@settings(max_examples=400, deadline=None)
def test_chain_matches_reference_scan(ivs):
    col = closed_cf_color_intervals(Scene(tuple(ivs)))
    chain = col.trace.vertices["chain"]
    assert (list(col.colors), chain) == reference_chain(ivs)


def _spread(lo, hi, count):
    return [lo + round((hi - lo) * i / (count - 1)) for i in range(count)]


def test_chain_matches_reference_on_generated_families():
    # the families of acceptance criterion 1, then the interval families of
    # the benchmark's `axis` workload at seeds 1-3
    families = [generate_scene("intervals", (i * 37) % 200 + 1, [1, i], margin=0) for i in range(1000)]
    families += [
        generate_scene("intervals", n, [seed, 41, i], margin=0)
        for seed in (1, 2, 3)
        for i, n in enumerate(_spread(1, 800, 30))
    ]
    for scene in families:
        assert _interval_chain(ends_of(scene.shapes)) == reference_chain(scene.shapes)


def test_long_sparse_chain_is_fast():
    # 2366 links over 5000 sparse intervals, where a rescan of the family per link is cubic
    scene = generate_scene("intervals", 5000, 7, span=500, margin=0)
    t0 = time.perf_counter()
    col = closed_cf_color_intervals(scene)
    chain = col.trace.vertices["chain"]
    elapsed = time.perf_counter() - t0
    assert len(chain) == 2366 and col.palette_size == 3
    assert elapsed < 5.0, elapsed


def test_dense_family_is_certified_in_linear_memory():
    # about 4.4M contacts: the certificate counts endpoints per color instead
    scene = generate_scene("intervals", 5000, [41, 5000], margin=0)
    tracemalloc.start()
    try:
        col = closed_cf_color_intervals(scene)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert col.palette_size <= 3
    assert peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MB"
