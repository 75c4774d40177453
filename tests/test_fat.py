import math

import pytest

from cfgeom import (
    Scene,
    closed_cf_color_fat,
    generate_scene,
    intersection_graph,
    intersects,
    neighborhood_hypergraph,
    pointed_cf_color_fat,
    verify_cf,
)
from cfgeom.fat import grid_side
from cfgeom.geom import Disc, Point


def unit_disc_scene(n, seed, k=1.0):
    return generate_scene("discs", n, seed, radius_range=(0.04, 0.04 * k), margin=1e-9)


def test_grid_side_formula():
    assert grid_side(1.0, 1.0) == 5
    assert grid_side(2.0, 4.0) == 33
    assert grid_side(1.5, 2.0) == 17


def test_unit_fatness_discs_palette():
    scene = generate_scene("discs", 60, 3, radius_range=(0.05, 0.05))
    col = pointed_cf_color_fat(scene, 1.0, 1.0)
    assert col.palette_size <= 2 * 25 + 1
    h = neighborhood_hypergraph(intersection_graph(scene), "pointed")
    assert verify_cf(h, col) == []


def test_single_object():
    scene = generate_scene("fat", 1, 0, rho=2.0, k=1.0)
    col = pointed_cf_color_fat(scene, 2.0, 1.0)
    assert col.palette_size == 1


def test_pointed_150_two_fat_ratio_three():
    scene = generate_scene("fat", 150, 5, rho=2.0, k=3.0)
    col = pointed_cf_color_fat(scene, 2.0, 3.0)
    assert col.palette_size <= 2 * (4 * 3 * 2 + 1) ** 2 + 1
    h = neighborhood_hypergraph(intersection_graph(scene), "pointed")
    assert verify_cf(h, col) == []


def packing_ok(scene, coloring, t):
    """At most one cell-color-i representative intersects any given object."""
    reps_by_color: dict[int, list[int]] = {}
    for v, flat in enumerate(coloring.colors):
        i, lvl = coloring.palette_map[flat]
        if lvl == 1 and i <= t:
            reps_by_color.setdefault(i, []).append(v)
    for c, reps in reps_by_color.items():
        for v in range(len(scene)):
            hits = sum(1 for r in reps if r != v and intersects(scene[r], scene[v]))
            if hits > 1:
                return False
    return True


def test_packing_soundness():
    for seed in range(3):
        scene = generate_scene("fat", 80, seed, rho=2.0, k=4.0)
        col = pointed_cf_color_fat(scene, 2.0, 4.0)
        assert packing_ok(scene, col, grid_side(2.0, 4.0) ** 2)


def test_certificate_mismatch_errors():
    scene = generate_scene("fat", 10, 1, rho=2.0, k=4.0)
    with pytest.raises(ValueError):
        pointed_cf_color_fat(scene, 1.2, 4.0)
    with pytest.raises(ValueError):
        pointed_cf_color_fat(scene, 2.0, 1.0)
    zero = Scene((Disc(Point(0, 0), 0.0),))
    with pytest.raises(ValueError):
        pointed_cf_color_fat(zero, 1.0, 1.0)


def test_closed_single_bucket_k1():
    scene = generate_scene("fat", 40, 7, rho=2.0, k=1.0)
    col = closed_cf_color_fat(scene, 2.0, 1.0)
    assert set(col.trace.vertices["bucket"]) == {0}
    h = neighborhood_hypergraph(intersection_graph(scene), "closed")
    assert verify_cf(h, col) == []


def test_closed_two_singleton_buckets():
    scene = Scene((Disc(Point(0, 0), 1.0), Disc(Point(10, 0), 8.0)))
    col = closed_cf_color_fat(scene, 1.0, 8.0)
    assert col.trace.vertices["bucket"] == [0, 3]
    assert col.palette_size == 2
    h = neighborhood_hypergraph(intersection_graph(scene), "closed")
    assert verify_cf(h, col) == []


def test_closed_random_k16():
    scene = generate_scene("fat", 120, 9, rho=1.5, k=16.0)
    col = closed_cf_color_fat(scene, 1.5, 16.0)
    bound = (math.floor(math.log2(16)) + 1) * 2 * (2 * grid_side(1.5, 2.0) ** 2 + 1)
    assert col.palette_size <= bound == col.trace.palette_bound
    h = neighborhood_hypergraph(intersection_graph(scene), "closed")
    assert verify_cf(h, col) == []
    # bucket palettes are pairwise disjoint, in bucket order
    palettes = {}
    for b, c in zip(col.trace.vertices["bucket"], col.colors):
        palettes.setdefault(b, set()).add(c)
    spans = [(min(palettes[b]), max(palettes[b])) for b in sorted(palettes)]
    assert len(spans) > 1
    for (a0, a1), (b0, b1) in zip(spans, spans[1:]):
        assert a1 < b0


def test_empty_scene():
    assert pointed_cf_color_fat(Scene((), "fat"), 2.0, 4.0).colors == ()
    assert closed_cf_color_fat(Scene((), "fat"), 2.0, 4.0).colors == ()
