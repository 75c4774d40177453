"""The contact layer against the brute-force predicate it batches.

`intersection_graph` and `_pairwise_hits` both come from `geom.contact_pairs`
(an x-sorted sweep plus batched exact predicates); every property here compares
them with `geom.intersects` called on every pair.  Half-integer coordinates
make tied xmin values and exactly touching (closed) contacts common.
"""
import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cfgeom import (
    AARect,
    ConvexFatObject,
    Disc,
    Interval,
    Point,
    Scene,
    generate_scene,
    intersection_graph,
    intersects,
    validate_pseudodisc_family,
)
from cfgeom.errors import DegenerateGeometryError
from cfgeom.geom import (
    _polygons_meet,
    _random_fat_polygon,
    _segments_crossings,
    contact_pairs,
    convex_polygons_intersect,
)
from cfgeom.probes import _pairwise_hits, _prune_depth_one

half = st.integers(0, 12).map(lambda k: k / 2)
coord = st.one_of(half, st.floats(0, 6, allow_nan=False, allow_infinity=False))
size = st.one_of(st.integers(0, 4).map(lambda k: k / 2), st.floats(0, 2, allow_nan=False, allow_infinity=False))


@st.composite
def discs(draw):
    return Disc(Point(draw(coord), draw(coord)), draw(size))


@st.composite
def intervals(draw):
    lo = draw(coord)
    return Interval(lo, lo + draw(size))


@st.composite
def rects(draw):
    x, y = draw(coord), draw(coord)
    return AARect(x, x + draw(size), y, y + draw(size))


def _regular(cx, cy, radius, m, turn):
    verts = tuple(
        Point(cx + radius * math.cos(turn + 2 * math.pi * k / m), cy + radius * math.sin(turn + 2 * math.pi * k / m))
        for k in range(m)
    )
    return ConvexFatObject(verts, Point(cx, cy), 0.999 * radius * math.cos(math.pi / m), 1.001 * radius)


def _square(x, y, side):
    verts = (Point(x, y), Point(x + side, y), Point(x + side, y + side), Point(x, y + side))
    return ConvexFatObject(verts, Point(x + side / 2, y + side / 2), 0.499 * side, 0.71 * side)


@st.composite
def polygons(draw):
    """Regular 3..19-gons, integer squares (which touch exactly along edges
    and corners), and irregular fat polygons of 7..19 vertices."""
    pick = draw(st.integers(0, 2))
    if pick == 0:
        m = draw(st.integers(3, 19))
        turn = draw(st.sampled_from([0.0, math.pi / 4, 0.3]))
        return _regular(draw(coord), draw(coord), draw(st.integers(1, 4)) / 2, m, turn)
    if pick == 1:
        return _square(draw(st.integers(0, 6)), draw(st.integers(0, 6)), draw(st.integers(1, 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return _random_fat_polygon(rng, Point(draw(coord), draw(coord)), draw(st.floats(0.2, 1.5)), draw(st.floats(1.2, 3)))


FAMILIES = {
    "discs": discs(),
    "intervals": intervals(),
    "rects": rects(),
    "polygons": polygons(),
    "discs+polygons": st.one_of(discs(), polygons()),
}


def _brute_edges(shapes):
    n = len(shapes)
    return {(i, j) for i in range(n) for j in range(i + 1, n) if intersects(shapes[i], shapes[j])}


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_intersection_graph_matches_brute_force(data):
    for kind, shape in FAMILIES.items():
        shapes = data.draw(st.lists(shape, max_size=14), label=kind)
        g = intersection_graph(Scene(tuple(shapes)))
        assert g.n == len(shapes)
        assert g.edges == _brute_edges(shapes), kind


def _tied_and_touching_families():
    """Families where every shape starts at x = 0, or chains touch at single points."""
    tied_intervals = [Interval(0.0, k / 2) for k in range(5)]
    tied_rects = [AARect(0.0, 1.0, 1.5 * k, 1.5 * k + 1.5) for k in range(4)]
    tied_discs = [Disc(Point(1.0, 3.0 * k), 1.0) for k in range(4)] + [Disc(Point(0.5, 1.5), 0.5)]
    touching = [Disc(Point(2.0 * k, 0.0), 1.0) for k in range(4)] + [Disc(Point(3.0, 4.0), 4.0), Disc(Point(9.0, 0), 0)]
    squares = [_square(x, y, 1) for x in range(3) for y in range(3)]
    points = [Disc(Point(0, 0), 0), Disc(Point(0, 0), 0)]
    return [tied_intervals, tied_rects, tied_discs, touching, squares, points]


def test_tied_xmin_and_touching_contacts():
    families = _tied_and_touching_families()
    for shapes in families:
        assert intersection_graph(Scene(tuple(shapes))).edges == _brute_edges(shapes)
    assert (0, 1) in intersection_graph(Scene(tuple(families[3]))).edges


def _box_reference(s):
    """A shape's sweep box, one shape at a time, kept as the reference."""
    if isinstance(s, Disc):
        return (s.center.x - s.radius, s.center.x + s.radius, s.center.y - s.radius, s.center.y + s.radius)
    if isinstance(s, AARect):
        return (s.xmin, s.xmax, s.ymin, s.ymax)
    if isinstance(s, Interval):
        return (s.lo, s.hi, 0.0, 0.0)
    xy = s.xy()
    return (float(xy[:, 0].min()), float(xy[:, 0].max()), float(xy[:, 1].min()), float(xy[:, 1].max()))


def _boxes_reference(shapes):
    boxes = np.array([_box_reference(s) for s in shapes], dtype=float).reshape(-1, 4)
    pad = [1e-12 * (abs(s.center.x) + abs(s.center.y) + s.radius) if isinstance(s, Disc) else 0.0 for s in shapes]
    return boxes + np.outer(pad, [-1.0, 1.0, -1.0, 1.0])


def test_sweep_boxes_match_per_shape_reference():
    signed_zeros = [Interval(-0.0, -0.0), AARect(-0.0, -0.0, -2.0, -0.0), Disc(Point(-0.0, -1.5), 0.0)]
    families = _tied_and_touching_families() + [
        signed_zeros[:1],
        signed_zeros[1:2],
        signed_zeros[2:] + [_square(-0.0, -0.0, 1), _regular(-1.25, 0.5, 0.75, 7, 0.3)],
        list(generate_scene("discs", 200, 1).shapes),
        list(generate_scene("fat", 40, 2, rho=2.0, k=4.0).shapes),
    ]
    for shapes in families:
        assert Scene(tuple(shapes)).boxes.tobytes() == _boxes_reference(shapes).tobytes()


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_sweep_boxes_match_per_shape_reference_on_drawn_families(data):
    for kind, shape in FAMILIES.items():
        shapes = data.draw(st.lists(shape, max_size=14), label=kind)
        assert Scene(tuple(shapes)).boxes.tobytes() == _boxes_reference(shapes).tobytes(), kind


def test_scene_arrays_are_built_once_and_read_only():
    scenes = [generate_scene(kind, 12, 3) for kind in ("discs", "intervals", "rects", "fat")]
    for scene in scenes + [scene.subscene([5, 1, 1]) for scene in scenes]:
        arrays = ["rows", "boxes"] + (["certificates"] if scene.kind in ("discs", "fat") else [])
        for name in arrays:
            a = getattr(scene, name)
            assert a is getattr(scene, name) and len(a) == len(scene)
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_subscene_slices_give_the_contacts_and_pruning_of_a_fresh_scene(data):
    for shape in (discs(), polygons()):
        scene = Scene(tuple(data.draw(st.lists(shape, min_size=1, max_size=12))))
        intersection_graph(scene)  # builds the arrays the subscene slices
        idx = data.draw(st.lists(st.integers(0, len(scene) - 1), unique=True))
        sub, fresh = scene.subscene(idx), Scene(tuple(scene[i] for i in idx), scene.kind)
        assert {"rows", "boxes"} <= set(vars(sub))
        for got, want in zip(contact_pairs(sub), contact_pairs(fresh)):
            assert got.tolist() == want.tolist()
        assert _prune_depth_one(sub, intersection_graph(sub)) == _prune_depth_one(fresh, intersection_graph(fresh))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_pairwise_hits_match_brute_force(data):
    for shape in (discs(), polygons()):
        vertices = data.draw(st.lists(shape, max_size=10))
        probes = data.draw(st.lists(shape, max_size=10))
        hits = _pairwise_hits(Scene(tuple(vertices)), Scene(tuple(probes)))
        assert hits.edges == tuple(tuple(i for i, v in enumerate(vertices) if intersects(v, p)) for p in probes)


@given(st.lists(polygons(), min_size=1, max_size=8), st.lists(polygons(), min_size=1, max_size=8))
@settings(max_examples=60, deadline=None)
def test_batched_separating_axis_matches_pairwise(a, b):
    i, j = (x.ravel() for x in np.meshgrid(np.arange(len(a)), np.arange(len(b)), indexing="ij"))
    got = _polygons_meet(Scene(tuple(a)).rows, Scene(tuple(b)).rows, i, j)
    assert got.tolist() == [convex_polygons_intersect(a[p].xy(), b[q].xy()) for p, q in zip(i, j)]


@given(
    st.lists(
        st.builds(_regular, st.floats(0, 3), st.floats(0, 3), st.floats(0.5, 1.5), st.integers(3, 19), st.floats(0, 1)),
        max_size=8,
    )
)
@settings(max_examples=60, deadline=None)
def test_polygon_pseudodisc_validation_matches_pairwise_counts(shapes):
    # vertex counts differ, so the batched count runs over padded vertex arrays
    counts = []
    for a, b in combinations(shapes, 2):
        try:
            counts.append(_segments_crossings(a.xy(), b.xy()))
        except DegenerateGeometryError:
            assume(False)
    assert validate_pseudodisc_family(Scene(tuple(shapes), "fat" if shapes else "")) == all(c <= 2 for c in counts)


def test_sparse_disc_graph_memory_is_linear():
    # 3000 discs spread for mean degree about 10, as in the disc-sparse benchmark
    n, lo, hi = 3000, 0.05, 0.2
    mean, var = (lo + hi) / 2, (hi - lo) ** 2 / 12
    span = math.sqrt(n * math.pi * (4 * mean * mean + 2 * var) / 10.0)
    scene = generate_scene("discs", n, 5, span=span, margin=0)
    tracemalloc.start()
    try:
        g = intersection_graph(scene)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 < len(g.indices) < 40 * n
    assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MB"
