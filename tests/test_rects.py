import math
import time
import tracemalloc

import pytest
from axis_reference import reference_rects
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfgeom import (
    AARect,
    Interval,
    InvalidInputError,
    Scene,
    closed_cf_color_rects,
    generate_scene,
    intersection_graph,
    intersects,
    neighborhood_hypergraph,
    verify_cf,
)


def test_single_rect():
    col = closed_cf_color_rects(Scene((AARect(0, 1, 0, 1),)))
    assert col.palette_size == 1


def test_two_disjoint_rects():
    scene = Scene((AARect(0, 1, 0, 1), AARect(2, 3, 0, 1)))
    col = closed_cf_color_rects(scene)
    assert col.palette_size <= 6
    h = neighborhood_hypergraph(intersection_graph(scene), "closed")
    assert verify_cf(h, col) == []


def test_empty_rejected():
    with pytest.raises(ValueError):
        closed_cf_color_rects(Scene((), "rects"))


def test_256_random_rects_palette_bound():
    scene = generate_scene("rects", 256, 3)
    col = closed_cf_color_rects(scene)
    assert col.palette_size <= 3 * 9
    h = neighborhood_hypergraph(intersection_graph(scene), "closed")
    assert verify_cf(h, col) == []


def test_depth_bound_and_same_depth_separation():
    for seed, n in ((0, 64), (1, 100), (2, 200)):
        scene = generate_scene("rects", n, seed)
        col = closed_cf_color_rects(scene)
        trace = list(zip(col.trace.vertices["depth"], col.trace.vertices["node"]))
        depths = [d for d, _ in trace]
        assert max(depths) <= math.floor(math.log2(n))
        # rectangles stabbed by one node's line meet exactly when their
        # y-ranges meet, so the node may color them as intervals
        for node in set(trace):
            stabbed = [scene[i] for i in range(n) if trace[i] == node]
            for a in stabbed:
                for b in stabbed:
                    assert intersects(a, b) == (a.ymin <= b.ymax and b.ymin <= a.ymax)
        # same-depth colors from different nodes never intersect
        for i in range(n):
            for j in range(i + 1, n):
                di, ni = trace[i]
                dj, nj = trace[j]
                if di == dj and ni != nj:
                    assert not intersects(scene[i], scene[j])


def test_stacked_rects_all_stabbed():
    scene = Scene(tuple(AARect(0, 1, i * 0.5, i * 0.5 + 0.8) for i in range(10)))
    col = closed_cf_color_rects(scene)
    assert col.palette_size <= 3


def test_twenty_thousand_rects_in_bounded_memory():
    # 13.2M contact pairs, none listed: the recursion's node labels are the certificate
    scene = generate_scene("rects", 20000, [41, 20000], margin=0)
    tracemalloc.start()
    try:
        col = closed_cf_color_rects(scene)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert col.palette_size <= 3 * (math.floor(math.log2(20000)) + 1)
    assert peak < 200 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_hundred_thousand_rects_certified_from_their_labels():
    # the node labels certify in O(n log n), with no contact pairs; a 2-core
    # x86-64 host colors and certifies in 0.2-0.4 s (tracemalloc on) with a
    # 26 MB peak
    n = 10**5
    scene = generate_scene("rects", n, 4, margin=0, span=math.sqrt(n / 20000))
    scene.rows  # built before the timer
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        col = closed_cf_color_rects(scene)
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert col.palette_size <= 3 * (math.floor(math.log2(n)) + 1)
    assert elapsed < 4.0, f"{elapsed:.2f} s"
    assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MB"


@pytest.mark.parametrize(
    "boxes",
    [
        [(1e308, 1.5e308)] * 3,
        [(-1.7e308, -1e308), (1e308, 1.7e308), (-1.7e308, 1.7e308), (1e308, 1e308)],
        [(1e308, 1.5e308), (5e-324, 5e-324), (5e-324, 1e-323), (0, 5e-324)],
        [(5e-324, 5e-324)] * 2,  # halved first, the centers would be 0, left of every rectangle
    ],
    ids=["overflow", "both-signs", "with-subnormals", "subnormal"],
)
def test_recursion_on_coordinates_whose_sum_overflows(boxes):
    # (xmin + xmax) / 2 is inf where the sum overflows; the center is then
    # xmin/2 + xmax/2, and (xmin + xmax) / 2 everywhere else
    scene = Scene(tuple(AARect(lo, hi, 0, 1) for lo, hi in boxes))
    col = closed_cf_color_rects(scene)
    depth = col.trace.vertices["depth"]
    assert max(depth) <= math.floor(math.log2(len(boxes)))
    assert verify_cf(neighborhood_hypergraph(intersection_graph(scene), "closed"), col) == []


def test_invalid_families_raise_invalid_input():
    with pytest.raises(InvalidInputError, match="empty rectangle family"):
        closed_cf_color_rects(Scene((), "rects"))
    with pytest.raises(InvalidInputError, match="rectangles only"):
        closed_cf_color_rects(Scene((Interval(0, 1),)))


# the recursion on coordinate arrays against the recursion over index lists
# ---------------------------------------------------------------------------

half = st.integers(0, 16).map(lambda k: k / 2)
side = st.integers(0, 6).map(lambda k: k / 2)


@given(st.lists(st.tuples(half, side, half, side), min_size=1, max_size=30))
# one node whose y-ranges tie on the farthest top, among tops of -0.0 and 0.0 too, with exact repeats
@example([(0, 1, -1, 1), (0, 1, -0.0, -0.0), (0, 1, -2, 2), (0, 1, -2, 2), (0, 1, 0.0, 0.0), (0, 1, -0.0, -0.0)])
@example([(0, 2, 2, 2), (1, 1, 0, 1), (0, 2, 3, 1), (1, 0, 2, 2), (0, 2, 0, 1), (3, 1, 0, 4), (3, 1, 0, 4), (3, 1, 1, 3)])
@example([(0, 1, k * 4 % 3 / 2, 4 + k * 5 % 3 / 2 - k * 4 % 3 / 2) for k in range(40)])  # 40 in one node
@settings(max_examples=200, deadline=None)
def test_recursion_matches_reference_on_half_grids(boxes):
    # tied centers, lines through rectangle edges, and zero-width rectangles
    scene = Scene(tuple(AARect(x, x + w, y, y + h) for x, w, y, h in boxes))
    col = closed_cf_color_rects(scene)
    trace = list(zip(col.trace.vertices["depth"], col.trace.vertices["node"]))
    assert (list(col.colors), trace) == reference_rects(scene)


def test_recursion_matches_reference_on_generated_families():
    # the families of acceptance criterion 2, then the rectangle families of
    # the benchmark's `axis` workload at seeds 1-3
    families = [generate_scene("rects", (16, 64, 256, 1024)[i % 4], [2, i], margin=0) for i in range(200)]
    families += [
        generate_scene("rects", (16, 64, 256, 1024, 2048)[i % 5], [seed, 42, i], margin=0)
        for seed in (1, 2, 3)
        for i in range(15)
    ]
    for scene in families:
        col = closed_cf_color_rects(scene)
        trace = list(zip(col.trace.vertices["depth"], col.trace.vertices["node"]))
        assert (list(col.colors), trace) == reference_rects(scene)
