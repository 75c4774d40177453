import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cfgeom.fat
import fat_reference
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
from cfgeom.errors import InvalidInputError
from cfgeom.fat import grid_side
from cfgeom.geom import Disc, Point
from cfgeom.hypergraph import Graph


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


def below(x):
    """The float just below x."""
    return float(np.nextafter(x, 0.0))


@pytest.mark.parametrize(
    "ratio, bucket",
    [(2.0, 1), (below(2.0), 0), (4.0, 2), (below(4.0), 1), (8.0, 3), (below(8.0), 2), (3.0, 1)],
)
def test_size_buckets_at_and_just_below_powers_of_two(ratio, bucket):
    # a log2 rounded to the nearest float reads 3.0 for 8 - ulp, so its floor lands one bucket too high
    scene = Scene((Disc(Point(0, 0), 1.0), Disc(Point(100, 0), ratio), Disc(Point(0.5, 0), 1.5)))
    col = closed_cf_color_fat(scene, 1.0, ratio)
    assert col.trace.vertices["bucket"] == [0, bucket, 0]
    assert col == fat_reference.closed_cf_color_fat(scene, 1.0, ratio)


def test_anchor_on_a_grid_line_doubles_the_shift():
    # x - 2^-20 is 0, on a grid line, so the shift doubles to 2^-19 and the anchor
    # lands in cell (-1, 0) of the period-5 grid: cell color 4*5 + 0 + 1
    scene = Scene((Disc(Point(2.0**-20, 0.5), 1.0),))
    col = pointed_cf_color_fat(scene, 1.0, 1.0)
    assert col.palette_map == {40: (21, 1)}


@pytest.mark.parametrize("colorer", [pointed_cf_color_fat, closed_cf_color_fat])
def test_anchors_on_grid_lines_under_every_shift_fail_cleanly(colorer):
    # 2^60 - s rounds to an integer for every shift s up to 2^39, so 60 doublings find no shift
    scene = Scene((Disc(Point(2.0**60, 0), 1.0), Disc(Point(0, 0), 1.0)))
    with pytest.raises(InvalidInputError, match="could not shift anchors off the grid lines"):
        colorer(scene, 1.0, 1.0)


def test_closed_makes_one_grid_pass_and_one_class_split(monkeypatch):
    calls = []

    def spy(name, original):
        def counted(*args):
            calls.append(name)
            return original(*args)

        return counted

    for name in ("_grid_pass", "_class_levels"):
        monkeypatch.setattr(cfgeom.fat, name, spy(name, getattr(cfgeom.fat, name)))
    monkeypatch.setattr(Graph, "subgraph", spy("subgraph", Graph.subgraph))
    scene = generate_scene("fat", 120, 9, rho=1.5, k=16.0)
    col = closed_cf_color_fat(scene, 1.5, 16.0)
    assert len(set(col.trace.vertices["bucket"])) > 2
    assert sorted(calls) == ["_class_levels", "_grid_pass"]


# radii of one size bucket's edges: powers of two and the floats just below them
RADII = [1.0, 1.5, below(2.0), 2.0, 3.0, below(4.0), 4.0, below(8.0), 8.0]
# offsets from an integer multiple of a radius; 2^-20 puts the anchor on a grid
# line under the first shift of the bucket that radius is the unit of
OFFSETS = [0.0, 0.5, 2.0**-20, 2.0**-19]


@st.composite
def disc_scenes(draw):
    discs = draw(
        st.lists(
            st.tuples(
                st.integers(-6, 6),
                st.integers(-6, 6),
                st.sampled_from(OFFSETS),
                st.sampled_from(OFFSETS),
                st.sampled_from(RADII),
                st.sampled_from(RADII),
            ),
            max_size=14,
        )
    )
    return Scene(tuple(Disc(Point((a + p) * u, (b + q) * u), r) for a, b, p, q, u, r in discs))


def _same_as_reference(scene, rho, k):
    for ours, theirs in (
        (pointed_cf_color_fat, fat_reference.pointed_cf_color_fat),
        (closed_cf_color_fat, fat_reference.closed_cf_color_fat),
    ):
        a, b = ours(scene, rho, k), theirs(scene, rho, k)
        assert (a.colors, a.palette_map, a.trace) == (b.colors, b.palette_map, b.trace)


@given(disc_scenes(), st.sampled_from([1.0, 2.0]), st.sampled_from([0.0, 8.0]))
@example(Scene(()), 1.0, 8.0)
@example(Scene((Disc(Point(0, 0), 1.0),)), 1.0, 0.0)
# size buckets {0, 3}: a gap of two empty buckets between them
@example(Scene((Disc(Point(0, 0), 1.0), Disc(Point(2.5, 0), 8.0), Disc(Point(1, 1), 1.0))), 1.0, 0.0)
@settings(max_examples=300, deadline=None)
def test_grid_pass_matches_reference_on_discs(scene, rho, spare_k):
    # k is the scene's size spread, plus spare_k for buckets no object fills
    radii = [d.radius for d in scene.shapes]
    _same_as_reference(scene, rho, (max(radii) / min(radii) if radii else 1.0) + spare_k)


@given(st.integers(0, 40), st.integers(0, 2**32 - 1), st.sampled_from([(1.5, 3.0), (2.0, 4.0), (2.0, 16.0)]))
@settings(max_examples=60, deadline=None)
def test_grid_pass_matches_reference_on_fat_polygons(n, seed, params):
    rho, k = params
    _same_as_reference(generate_scene("fat", n, seed, rho=rho, k=k, base_size=0.04), rho, k)
