import math

import pytest

from cfgeom import (
    AARect,
    Scene,
    closed_cf_color_rects,
    generate_scene,
    intersection_graph,
    intersects,
    neighborhood_hypergraph,
    verify_cf,
)
from cfgeom.rects import color_rects_traced


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
        col, trace = color_rects_traced(scene)
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
