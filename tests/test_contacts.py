"""The contact layer against the brute-force predicate it batches.

`intersection_graph`, `_pairwise_hits` and `contact_pairs` all come from
`geom._contact_hits` (bounding-box candidates from a sweep over horizontal
strips, decided in blocks by batched exact predicates); the properties here
compare them with `geom.intersects` called on every pair, the strip sweep
with the single x-sweep of `contact_reference`, and the sweep cut into blocks
of a few candidates with that module's whole-array `contact_pairs`.
Half-integer coordinates make tied xmin values and exactly touching (closed)
contacts common.
"""
import math
import tracemalloc
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cfgeom import (
    AARect,
    ConvexFatObject,
    Disc,
    Graph,
    Hypergraph,
    Interval,
    Point,
    Scene,
    boundary_crossings,
    generate_scene,
    induced,
    intersection_graph,
    intersects,
    neighborhood_hypergraph,
    pentagon_template,
    validate_pseudodisc_family,
)
from cfgeom import geom
from cfgeom.errors import DegenerateGeometryError, IncompatibleShapesError
from cfgeom.geom import (
    _box_overlaps,
    _validate_pseudodiscs,
    _certified,
    _polygon_inradius_at,
    _polygon_outradius_at,
    _convex_hull_ccw,
    _random_fat_polygon,
    _strip_index,
    _strips,
    contact_pairs,
    convex_polygons_intersect,
)
from cfgeom.probes import _graph_probe_hypergraph, _pairwise_hits, _prune_depth_one
from contact_reference import (
    box_overlaps_reference,
    contact_pairs_reference,
    polygons_meet,
    polygons_meet_reference,
    segments_crossings_reference,
    windows_reference,
)

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
    got = polygons_meet(Scene(tuple(a)).rows, Scene(tuple(b)).rows, i, j)
    assert got.tolist() == [convex_polygons_intersect(a[p].xy(), b[q].xy()) for p, q in zip(i, j)]


@st.composite
def repeated_polygons(draw):
    """A polygon family with some members repeated, vertex for vertex."""
    shapes = draw(st.lists(polygons(), min_size=1, max_size=10))
    for _ in range(draw(st.integers(0, 3))):
        shapes.insert(draw(st.integers(0, len(shapes))), draw(st.sampled_from(shapes)))
    return shapes


@given(repeated_polygons(), repeated_polygons())
@settings(max_examples=100, deadline=None)
def test_separating_axis_with_own_extents_matches_reference(a, b):
    pa, pb = Scene(tuple(a)).rows, Scene(tuple(b)).rows
    # same mode: every pair i < j of one family, on the one array and on an equal copy of it
    i, j = np.triu_indices(len(a), 1)
    expected = polygons_meet_reference(pa, pa, i, j)
    assert np.array_equal(polygons_meet(pa, pa, i, j), expected)
    assert np.array_equal(polygons_meet(pa, pa.copy(), i, j), expected)
    # cross mode: every pair of the two families, whose vertex counts differ
    i, j = (x.ravel() for x in np.meshgrid(np.arange(len(a)), np.arange(len(b)), indexing="ij"))
    assert np.array_equal(polygons_meet(pa, pb, i, j), polygons_meet_reference(pa, pb, i, j))
    assert np.array_equal(polygons_meet(pb, pa, j, i), polygons_meet_reference(pb, pa, j, i))


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
            counts.append(segments_crossings_reference(a.xy(), b.xy()))
        except DegenerateGeometryError:
            assume(False)
    assert validate_pseudodisc_family(Scene(tuple(shapes), "fat" if shapes else "")) == all(c <= 2 for c in counts)


grid = st.integers(0, 12).map(lambda k: k / 2)


@st.composite
def grid_polygons(draw):
    """Ccw convex polygons with half-integer vertices in [0, 6], some with an
    extra vertex in the middle of an edge, so vertices lie on other polygons'
    edges and edges overlap exactly, and every orientation is exact in float."""
    hull = _convex_hull_ccw(np.array(draw(st.lists(st.tuples(grid, grid), min_size=3, max_size=6, unique=True))))
    assume(len(hull) >= 3)
    verts = hull.tolist()
    if draw(st.booleans()):
        k = draw(st.integers(0, len(verts) - 1))
        (ax, ay), (bx, by) = verts[k], verts[(k + 1) % len(verts)]
        verts.insert(k + 1, [(ax + bx) / 2, (ay + by) / 2])
    xy = np.array(verts)
    cx, cy = xy.mean(axis=0)
    inner, outer = _polygon_inradius_at(xy, cx, cy), _polygon_outradius_at(xy, cx, cy)
    return ConvexFatObject(tuple(Point(x, y) for x, y in verts), Point(cx, cy), inner, outer)


def _grid_polygon(*verts):
    xy = np.array(verts, dtype=float)
    cx, cy = xy.mean(axis=0)
    inner, outer = _polygon_inradius_at(xy, cx, cy), _polygon_outradius_at(xy, cx, cy)
    return ConvexFatObject(tuple(Point(x, y) for x, y in verts), Point(cx, cy), inner, outer)


def _outcome(count):
    """Call count() and return its value, or "touch" when it raises DegenerateGeometryError."""
    try:
        return count()
    except DegenerateGeometryError:
        return "touch"


SQUARE = _grid_polygon((1, 1), (3, 1), (3, 3), (1, 3))
DIAMOND = _grid_polygon((2, 0.5), (3.5, 2), (2, 3.5), (0.5, 2))  # crosses SQUARE eight times
CORNER = _grid_polygon((3, 3), (4, 3), (4, 4))  # touches SQUARE at a vertex


@given(st.lists(grid_polygons(), min_size=2, max_size=4))
@example([SQUARE, DIAMOND])
@example([SQUARE, CORNER, DIAMOND])
@example([SQUARE, _grid_polygon((0, 0), (4, 0), (2, 0.5))])
@settings(max_examples=150, deadline=None)
def test_polygon_validation_matches_scalar_reference_on_grid_polygons(shapes):
    # the family verdict: DegenerateGeometryError when any pair touches, else whether every pair crosses at most
    # twice; validation sees only the contact pairs, the reference every pair
    pairs = [(a, b) for a, b in combinations(shapes, 2)]
    expected = [_outcome(lambda: segments_crossings_reference(a.xy(), b.xy())) for a, b in pairs]
    assert [_outcome(lambda: boundary_crossings(a, b)) for a, b in pairs] == expected
    verdict = "touch" if "touch" in expected else all(c <= 2 for c in expected)
    assert _outcome(lambda: validate_pseudodisc_family(Scene(tuple(shapes)))) == verdict


def test_polygon_validation_given_the_graph_peaks_in_bounded_blocks():
    scene = generate_scene("fat", 3000, 3, rho=1.5, k=3.0, homothets_of=pentagon_template(), base_size=0.05, span=3, margin=0)
    arcs = intersection_graph(scene).arcs()
    tracemalloc.start()
    try:
        valid = _validate_pseudodiscs(scene, arcs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert valid
    # before validation ran on the contact pairs, its own box sweep held the m x m orientation arrays of all
    # 115k candidates at once: 178 MB traced (x86-64, Python 3.11.7, numpy 2.4.6); the gate is half of that
    assert peak < 89 * 2**20, f"peak {peak / 2**20:.1f} MB"


# (offset, unit) of the corner grids: half-integers, and coordinates near 1e9
# with extents near 1e-3, where a float strip bound lands between grid values
BOX_GRIDS = [(0.0, 0.5), (1e9, 1e-3), (-3.0, 0.25)]


@st.composite
def box_families(draw):
    """Two families of (xmin, xmax, ymin, ymax) boxes with corners on one grid,
    so boxes tie in xmin and touch exactly; sometimes all of zero height, as
    intervals are."""
    offset, unit = draw(st.sampled_from(BOX_GRIDS))
    flat = draw(st.booleans())
    k = st.integers(0, 24)
    extent = st.integers(0, 6)

    def family():
        rows = []
        for _ in range(draw(st.integers(0, 30))):
            x, y, w = draw(k), draw(k), draw(extent)
            rows.append((x, x + w, y, y if flat else y + draw(extent)))
        return offset + unit * np.array(rows, dtype=float).reshape(-1, 4)

    return family(), family(), unit


def _forced_strips(height: str, unit: float):
    """A stand-in for `geom._strips` that always cuts strips: shorter than the
    tallest box (which `_strip_index` must refuse wherever a pair could end up
    two strips apart), as tall as the tallest box with no headroom, a little
    taller, or tall enough that every box lies in one strip."""

    def strips(families, candidates):
        boxes = np.concatenate(families)
        if not len(boxes):
            return None
        span = boxes[:, 2].max() - boxes[:, 2].min()
        tallest = max((boxes[:, 3] - boxes[:, 2]).max(), span / len(boxes), unit)
        if height == "one":
            return _strip_index(boxes, 2 * (span + tallest))
        h = {"short": 0.75, "tallest": 1.0, "headroom": 1.5}[height] * tallest
        return _strip_index(boxes, h)

    return strips


def _pair_set(pairs):
    return sorted(zip(*(p.tolist() for p in pairs)))


ONE_BOX = np.array([[0.0, 1.0, 0.0, 1.0]])


@given(box_families(), st.sampled_from(["chosen", "short", "tallest", "headroom", "one"]))
@example((np.zeros((0, 4)), ONE_BOX, 0.5), "tallest")
@example((ONE_BOX, np.zeros((0, 4)), 0.5), "one")
@settings(max_examples=300, deadline=None)
def test_strip_sweep_matches_the_x_sweep_reference(families, height):
    a, b, unit = families
    with mock.patch.object(geom, "_strips", geom._strips if height == "chosen" else _forced_strips(height, unit)):
        assert _pair_set(_box_overlaps(a, a, True)) == _pair_set(box_overlaps_reference(a, a, True))
        assert _pair_set(_box_overlaps(a, b, False)) == _pair_set(box_overlaps_reference(a, b, False))
        assert _pair_set(_box_overlaps(b, a, False)) == _pair_set(box_overlaps_reference(b, a, False))


def test_forced_strips_match_the_reference_on_random_grids():
    # hypothesis draws mostly small families; these are larger and many
    rng = np.random.default_rng(11)
    for offset, unit in BOX_GRIDS:
        for _ in range(150):
            x, y = rng.integers(0, 25, (2, rng.integers(1, 40)))
            w, h = rng.integers(0, 7, (2, len(x)))
            a = offset + unit * np.column_stack((x, x + w, y, y + h)).astype(float)
            for height in ("short", "tallest", "headroom", "one"):
                with mock.patch.object(geom, "_strips", _forced_strips(height, unit)):
                    assert _pair_set(_box_overlaps(a, a, True)) == _pair_set(box_overlaps_reference(a, a, True))
                    half = a[: len(a) // 2]
                    assert _pair_set(_box_overlaps(half, a, False)) == _pair_set(box_overlaps_reference(half, a, False))


def _window_searches(a, b, strips):
    """The arguments of every `_windows` call the sweeps of a with itself, a
    with b and b with a make with the stand-in `strips`."""
    calls, real = [], geom._windows

    def spy(*args):
        calls.append(args)
        return real(*args)

    with mock.patch.multiple(geom, _windows=spy, _strips=strips):
        _box_overlaps(a, a, True)
        _box_overlaps(a, b, False)
        _box_overlaps(b, a, False)
    return calls


def _window_pairs(rows, start, stop, order):
    """The (row, rank) pairs of `_windows` spans, as a sorted list: a multiset."""
    return sorted((r, k if order is None else int(order[k])) for r, a, z in zip(rows, start, stop) for k in range(a, z))


@given(box_families(), st.sampled_from(["chosen", "forced", "short", "tallest", "headroom", "one"]))
@settings(max_examples=200, deadline=None)
def test_window_searches_on_sorted_queries_match_the_row_order_reference(families, height):
    a, b, unit = families
    strips = _scene_strips(height) if height in ("chosen", "forced") else _forced_strips(height, unit)
    for args in _window_searches(a, b, strips):
        assert _window_pairs(*geom._windows(*args)) == _window_pairs(*windows_reference(*args))


def test_window_searches_on_a_sparse_disc_family_match_the_row_order_reference():
    # 3000 discs at mean degree about 10: the chosen strips cut the plane
    n, lo, hi = 3000, 0.05, 0.2
    span = math.sqrt(n * math.pi * (4 * ((lo + hi) / 2) ** 2 + 2 * (hi - lo) ** 2 / 12) / 10.0)
    box = generate_scene("discs", n, 9, span=span, margin=0).boxes
    args = _window_searches(box, box[:0], geom._strips)[0]
    assert args[2] is not None
    got, want = geom._windows(*args), windows_reference(*args)
    assert len(got[0]) == len(want[0]) == 3 * n
    assert _window_pairs(*got) == _window_pairs(*want)


# ---------------------------------------------------------------------------
# the sweep in blocks of a few candidates against the whole-array reference
# ---------------------------------------------------------------------------


def _scene_strips(mode: str):
    """A stand-in for `geom._strips`: the chosen strips, no strips, or strips
    1.5 times as tall as the tallest box wherever `_strip_index` allows."""

    def strips(families, candidates):
        boxes = np.concatenate(families)
        tallest = (boxes[:, 3] - boxes[:, 2]).max() if len(boxes) else 0.0
        return _strip_index(boxes, 1.5 * tallest) if tallest > 0 else None

    return {"chosen": geom._strips, "none": lambda families, candidates: None, "forced": strips}[mode]


def _small_blocks(cells: int, strips: str):
    """The sweep cut into blocks of about `cells` candidates, with the strips of `_scene_strips`."""
    return mock.patch.multiple(geom, _SWEEP_CELLS=cells, _strips=_scene_strips(strips))


def _assert_same_pairs(got, want):
    assert len(got) == len(want) == 2
    for g, w in zip(got, want):
        assert g.tolist() == w.tolist()


def _public_graph(n, i, j):
    """The graph of the pairs (i, j), i < j, through the public constructor."""
    return Graph(n, np.column_stack((i, j)))


def _assert_same_graph(g, h):
    assert g.n == h.n
    for a, b in ((g.indptr, h.indptr), (g.indices, h.indices)):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def _assert_graphs_match_public_route(scene, keep):
    i, j = contact_pairs(scene)
    g = intersection_graph(scene)
    _assert_same_graph(g, _public_graph(len(scene), i, j))
    pos = np.full(len(scene), -1)
    pos[keep] = np.arange(len(keep))
    inside = (pos[i] >= 0) & (pos[j] >= 0)
    _assert_same_graph(g.subgraph(keep), _public_graph(len(keep), pos[i][inside], pos[j][inside]))


@given(st.data(), st.sampled_from(["chosen", "none", "forced"]), st.integers(1, 6))
@settings(max_examples=200, deadline=None)
def test_contact_pairs_in_small_blocks_match_the_reference(data, strips, cells):
    kind = data.draw(st.sampled_from(sorted(FAMILIES)), label="kind")
    a = Scene(tuple(data.draw(st.lists(FAMILIES[kind], max_size=12), label="a")))
    b = Scene(tuple(data.draw(st.lists(FAMILIES[kind], max_size=12), label="b")))
    keep = sorted(data.draw(st.sets(st.integers(0, max(len(a) - 1, 0)), max_size=len(a)), label="keep"))
    with _small_blocks(cells, strips):
        for scenes in ((a,), (a, b), (b, a)):
            _assert_same_pairs(contact_pairs(*scenes), contact_pairs_reference(*scenes))
        _assert_graphs_match_public_route(a, keep)


def test_contact_pairs_in_small_blocks_match_the_reference_on_fixed_families():
    pentagons = generate_scene("fat", 60, 3, rho=1.5, k=3.0, homothets_of=pentagon_template(), base_size=0.08)
    families = _tied_and_touching_families() + [
        [],
        [Disc(Point(0, 0), 1)],
        [_square(0, 0, 1)],
        [Interval(0, 1)],
        [AARect(0, 1, 0, 1)],
        list(generate_scene("discs", 150, 4).shapes),
        list(generate_scene("rects", 120, 4).shapes),
        list(generate_scene("intervals", 120, 4).shapes),
        list(pentagons.shapes),
        list(generate_scene("discs", 30, 5).shapes) + list(pentagons.shapes[:30]),
    ]
    for shapes in families:
        scene = Scene(tuple(shapes))
        half = Scene(tuple(shapes[::2]))
        for cells, strips in ((1, "none"), (3, "forced"), (5, "chosen"), (97, "forced")):
            with _small_blocks(cells, strips):
                for scenes in ((scene,), (half, scene), (scene, half), (scene, Scene(()))):
                    _assert_same_pairs(contact_pairs(*scenes), contact_pairs_reference(*scenes))
                _assert_graphs_match_public_route(scene, list(range(1, len(shapes), 3)))


def test_sparse_scenes_and_probe_hits_in_small_blocks_match_the_reference():
    # large enough that `_strips` cuts strips, and many blocks per call
    sparse = generate_scene("discs", 1200, 5, span=_sparse_span(1200), margin=0)
    vertices = generate_scene("discs", 60, [5, 0])
    probes = generate_scene("discs", 2000, [5, 1], radius_range=(0.01, 0.3), margin=0)
    assert _strips((sparse.boxes,), 10**6) is not None
    for cells in (64, 4096):
        with mock.patch.object(geom, "_SWEEP_CELLS", cells):
            _assert_same_pairs(contact_pairs(sparse), contact_pairs_reference(sparse))
            _assert_same_pairs(contact_pairs(probes, vertices), contact_pairs_reference(probes, vertices))
            _assert_graphs_match_public_route(sparse, list(range(0, 1200, 7)))
            hits = _pairwise_hits(vertices, probes)
            p, v = contact_pairs(probes, vertices)
            assert hits.indices.tolist() == v.tolist()
            assert hits.indptr.tolist() == np.searchsorted(p, np.arange(len(probes) + 1)).tolist()


def test_probe_hit_build_peaks_in_bounded_blocks():
    # acceptance criterion 4's largest system: 100 vertex discs against 10^5 probe discs, about 2 million hits
    vertices = generate_scene("discs", 100, [5, 0])
    probes = generate_scene("discs", 100_000, [5, 1], radius_range=(0.01, 0.3), margin=0)
    for scene in (vertices, probes):
        scene.boxes, scene.rows  # the scenes' own arrays are not the hit build's
    peaks = []
    for build in (lambda: geom._contact_hits(probes, vertices), lambda: _pairwise_hits(vertices, probes)):
        tracemalloc.start()
        try:
            out = build()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    hits = out
    assert len(hits.indices) > 10**6
    # the sweep alone: 68.6 MB traced for 30.5 MB of hits while it held them twice, 45.8 MB joining
    # one column at a time (x86-64, Python 3.11.7, numpy 2.4.6)
    assert peaks[0] < 55 * 2**20, f"sweep peak {peaks[0] / 2**20:.1f} MB"
    # when the sweep held every candidate at once this peaked at 230 MB traced, against 76 MB in
    # bounded blocks and 47 MB with the hits held once; the gate is half of the first
    assert peaks[1] < 115 * 2**20, f"peak {peaks[1] / 2**20:.1f} MB"
    public = Hypergraph.from_pairs(len(vertices), len(probes), *geom._contact_hits(probes, vertices))
    assert np.array_equal(hits.indptr, public.indptr) and np.array_equal(hits.indices, public.indices)


def _csr_lists(h):
    return h.n, h.indptr.tolist(), h.indices.tolist()


TOUCHING_AND_ISOLATED = [Disc(Point(0, 0), 0.5), Disc(Point(1, 0), 0.5), Disc(Point(6, 6), 0), Disc(Point(0, 0), 0.5)]
# 150 overlapping discs against 300 small probes, many sweep blocks each
MANY_DISCS = list(generate_scene("discs", 150, [8, 0], radius_range=(0.05, 0.3)).shapes)
MANY_PROBES = list(generate_scene("discs", 300, [8, 1], radius_range=(0.01, 0.3), margin=0).shapes)


@given(
    st.lists(discs(), max_size=16),
    st.lists(discs(), max_size=12),
    st.lists(st.booleans(), min_size=16, max_size=16),
    st.permutations(range(16)),
)
@example([], [], [False] * 16, list(range(16)))  # empty graph, no probes, keep = []
@example(TOUCHING_AND_ISOLATED, TOUCHING_AND_ISOLATED[2:], [True] * 16, list(range(16))[::-1])
@example(TOUCHING_AND_ISOLATED, [], [False, True] * 8, list(range(16)))
@example(MANY_DISCS, MANY_PROBES, [True, False] * 8, list(range(15, -1, -1)))
@settings(max_examples=150, deadline=None)
def test_probe_hits_take_the_arrays_of_the_public_route(shapes, probe_shapes, mask, order):
    # every build that skips the range check gives the arrays of the validated public route on the same pairs
    scene, probes = Scene(tuple(shapes)), Scene(tuple(probe_shapes))
    n = len(scene)
    keep = [v for v in range(n) if mask[v % 16]]
    rest = [v for v in range(n) if not mask[v % 16]]
    _assert_graphs_match_public_route(scene, keep)  # intersection_graph and Graph.subgraph
    g = intersection_graph(scene)
    rows = [set(g.indices[g.indptr[v] : g.indptr[v + 1]].tolist()) for v in range(n)]
    hypergraphs = [
        (neighborhood_hypergraph(g, "closed"), Hypergraph(n, [rows[v] | {v} for v in range(n)])),
        (neighborhood_hypergraph(g, "pointed"), Hypergraph(n, [r for r in rows if r])),
        (_pairwise_hits(scene, probes), Hypergraph.from_pairs(n, len(probes), *geom._contact_hits(probes, scene))),
    ]
    for vertices, hitting in ((keep, rest), (rest, keep)):
        owner, member = g.arcs()
        hit = np.isin(owner, hitting) & np.isin(member, vertices)
        p, v = np.searchsorted(hitting, owner[hit]), np.searchsorted(vertices, member[hit])
        public = Hypergraph.from_pairs(len(vertices), len(hitting), p, v)
        hypergraphs.append((_graph_probe_hypergraph(g, vertices, hitting), public))
    chosen = sorted(keep, key=lambda v: (order[v % 16], v))  # keep in another order, for `induced`
    pos = {v: i for i, v in enumerate(chosen)}
    for h, public in hypergraphs[:3]:
        renamed = [[pos[v] for v in e if v in pos] for e in public.edges]
        hypergraphs.append((induced(h, chosen), Hypergraph(len(chosen), renamed)))
    for h, public in hypergraphs:
        assert _csr_lists(h) == _csr_lists(public)


def test_strip_index_keeps_overlapping_boxes_within_one_strip():
    rng = np.random.default_rng(3)
    for offset, unit in BOX_GRIDS:
        x, y = rng.integers(0, 200, (2, 400))
        w, h = rng.integers(0, 7, (2, 400))
        boxes = offset + unit * np.column_stack((x, x + w, y, y + h)).astype(float)
        tallest = (boxes[:, 3] - boxes[:, 2]).max()
        strip = _strip_index(boxes, 1.5 * tallest)
        assert strip is not None and strip.max() >= 20
        i, j = box_overlaps_reference(boxes, boxes, True)
        assert len(i) and np.abs(strip[i] - strip[j]).max() <= 1
        # no headroom: a box ending on a bound two strips up is refused, not cut
        exact = _strip_index(boxes, tallest)
        assert exact is None or np.abs(exact[i] - exact[j]).max() <= 1


def test_strips_are_cut_only_where_they_cut_candidates():
    sparse = generate_scene("discs", 3000, 5, span=_sparse_span(3000), margin=0).boxes
    dense = generate_scene("discs", 640, 5).boxes
    flat = generate_scene("intervals", 3000, 5, margin=0).boxes
    for boxes, cut in ((sparse, True), (dense, False), (flat, False)):
        n = len(boxes)
        # pairs whose x-ranges meet: the x-sweep's candidates
        candidates = int(np.searchsorted(np.sort(boxes[:, 0]), boxes[:, 1], "right").sum()) - n * (n + 1) // 2
        assert candidates > 50 * n
        assert (_strips((boxes,), candidates) is not None) == cut


def _sparse_span(n, lo=0.05, hi=0.2):
    """Square side giving mean degree about 10, as in the disc-sparse benchmark."""
    mean, var = (lo + hi) / 2, (hi - lo) ** 2 / 12
    return math.sqrt(n * math.pi * (4 * mean * mean + 2 * var) / 10.0)


def test_sparse_disc_graph_memory_is_linear():
    # uniform discs spread for mean degree about 10: the disc-sparse benchmark's
    # 3000, and ten times as many
    for n in (3000, 30000):
        scene = generate_scene("discs", n, 5, span=_sparse_span(n), margin=0)
        tracemalloc.start()
        try:
            g = intersection_graph(scene)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0 < len(g.indices) < 40 * n
        assert peak < 64 * 2**20, f"n={n}: peak {peak / 2**20:.1f} MB"


# ---------------------------------------------------------------------------
# which predicate a pair of scenes gets, read off Scene.kind
# ---------------------------------------------------------------------------

DISCS = Scene((Disc(Point(0, 0), 1.0), Disc(Point(1.5, 0), 1.0), Disc(Point(5, 5), 0.5)))
SQUARES = Scene((_square(0.5, 0.5, 1.0), _square(4.0, 4.0, 2.0), _square(9.0, 9.0, 1.0)))


def _brute_pairs(a, b):
    return [(i, j) for i in range(len(a)) for j in range(len(b)) if intersects(a[i], b[j])]


def test_contact_pairs_of_discs_against_an_empty_scene_are_empty():
    for a, b in ((DISCS, Scene(())), (Scene(()), DISCS), (Scene(()), Scene(()))):
        i, j = contact_pairs(a, b)
        assert i.tolist() == j.tolist() == []


def test_contact_pairs_of_disc_and_polygon_scenes_match_brute_force():
    i, j = contact_pairs(DISCS, SQUARES)
    assert list(zip(i.tolist(), j.tolist())) == _brute_pairs(DISCS, SQUARES) == [(0, 0), (1, 0), (2, 1)]
    mixed = Scene(DISCS.shapes + SQUARES.shapes)
    assert mixed.kind == "mixed"
    i, j = contact_pairs(mixed)
    assert list(zip(i.tolist(), j.tolist())) == [(p, q) for p, q in _brute_pairs(mixed, mixed) if p < q]
    i, j = contact_pairs(mixed, DISCS)
    assert list(zip(i.tolist(), j.tolist())) == _brute_pairs(mixed, DISCS)


def test_contact_pairs_of_intervals_against_discs_name_both_types():
    intervals = Scene((Interval(0.0, 1.0),))
    for a, b in ((intervals, DISCS), (DISCS, intervals)):
        with pytest.raises(IncompatibleShapesError, match="^no intersection predicate between Disc, Interval$"):
            contact_pairs(a, b)
    with pytest.raises(IncompatibleShapesError, match="^no intersection predicate between Disc, Interval$"):
        contact_pairs(Scene(DISCS.shapes + intervals.shapes))


# ---------------------------------------------------------------------------
# the certificate filter in front of the separating-axis test
# ---------------------------------------------------------------------------

# ccw convex templates on the integer grid; at half scale their copies land on a half-integer grid
GRID_TEMPLATES = (((0, 0), (2, 0), (3, 2), (1, 3), (-1, 2)), ((0, 0), (2, 0), (2, 2), (0, 2)), ((0, 0), (2, 0), (0, 2)))
UNIT = np.array([(0, 0), (1, 0), (1, 1), (0, 1)], dtype=float)


def _tight(xy, ax, ay, slack):
    """The polygon `xy` with the tightest certificate at (ax, ay): r_inner the
    true inradius and r_outer the true outradius there, or with `slack`, r_inner
    above and r_outer below them by nearly all the slack validation accepts."""
    inner, outer = _polygon_inradius_at(xy, ax, ay), _polygon_outradius_at(xy, ax, ay)
    if slack:
        inner, outer = inner * (1 + 0.99e-9) + 0.99e-12, outer * (1 - 0.99e-9) - 0.99e-12
    return ConvexFatObject(tuple(Point(x, y) for x, y in xy.tolist()), Point(ax, ay), inner, max(inner, outer))


@st.composite
def tight_grid_polygons(draw):
    xy = np.array(draw(st.sampled_from(GRID_TEMPLATES)), dtype=float) * draw(st.integers(1, 3)) / 2
    xy += (draw(half), draw(half))
    return _tight(xy, *xy.mean(axis=0).tolist(), draw(st.booleans()))


def _filter_verdicts(scene):
    """The certificate filter's (meet, settled) on every pair i < j of `scene`."""
    i, j = np.triu_indices(len(scene), 1)
    return (i, j), _certified(scene.certificates, scene.certificates, i, j)


@given(st.lists(tight_grid_polygons(), min_size=2, max_size=14))
@settings(max_examples=150, deadline=None)
def test_certificate_filter_agrees_with_separating_axis_on_tight_grid_polygons(shapes):
    scene = Scene(tuple(shapes))
    (i, j), (meet, settled) = _filter_verdicts(scene)
    assert np.array_equal(meet[settled], polygons_meet_reference(scene.rows, scene.rows, i, j)[settled])
    i, j = box_overlaps_reference(scene.boxes, scene.boxes, True)
    hit = polygons_meet_reference(scene.rows, scene.rows, i, j)
    assert sorted(zip(i[hit].tolist(), j[hit].tolist())) == list(zip(*(x.tolist() for x in contact_pairs(scene))))


@pytest.mark.parametrize("slack", [False, True])
def test_certificate_filter_leaves_touching_certificates_to_the_separating_axis_test(slack):
    pairs = {
        "inner discs touch, squares share an edge": (UNIT + (1, 0), True),
        "outer discs touch, squares share a corner": (UNIT + (1, 1), True),
        "squares 1e-10 apart": (UNIT + (1 + 1e-10, 0), False),
    }
    for name, (xy, meets) in pairs.items():
        scene = Scene((_tight(UNIT, 0.5, 0.5, slack), _tight(xy, *xy.mean(axis=0).tolist(), slack)))
        _, (meet, settled) = _filter_verdicts(scene)
        assert not settled[0], name
        assert contact_pairs(scene)[0].tolist() == ([0] if meets else []), name


def test_certificate_filter_settles_most_candidates_of_a_fat_family():
    scene = generate_scene("fat", 400, [5, 5], rho=2.0, k=4.0, base_size=0.08, margin=0)
    i, j = _box_overlaps(scene.boxes, scene.boxes, True)
    meet, settled = _certified(scene.certificates, scene.certificates, i, j)
    assert settled.mean() > 0.4, settled.mean()
    assert np.array_equal(meet[settled], polygons_meet_reference(scene.rows, scene.rows, i[settled], j[settled]))


def test_outer_radii_near_the_float_limit_settle_nothing():
    # the two outer radii sum to inf, which proves nothing and warns of nothing: SAT finds the squares apart
    squares = [ConvexFatObject(_square(x, 0, 1).vertices, Point(x + 0.5, 0.5), 0.5, 1.7e308) for x in (0, 3)]
    scene = Scene(tuple(squares))
    assert not _filter_verdicts(scene)[1][1][0]
    assert contact_pairs(scene)[0].tolist() == []


# the disc test's squared-distance filter against hypot
# ---------------------------------------------------------------------------


def _hypot_verdicts(a, b, p, q):
    (xa, ya, ra), (xb, yb, rb) = a.rows[p].T, b.rows[q].T
    return np.hypot(xa - xb, ya - yb) <= ra + rb


@given(
    st.sampled_from([1e-300, 1e-160, 1.0, 1e154, 1e300]),
    st.lists(
        st.tuples(
            st.integers(-4, 4),  # the centre's x and y, and the direction to the other disc, in units of the scale
            st.integers(-4, 4),
            st.integers(-9, 9).filter(bool),
            st.integers(-9, 9),
            st.integers(1, 8),  # the two radii
            st.integers(1, 8),
            st.sampled_from([0, 1, 2, 3, 2**11, 2**12, 2**13, 2**14]),  # ulps off tangency, either way
            st.booleans(),
        ),
        min_size=1,
        max_size=30,
    ),
)
@settings(max_examples=200, deadline=None)
def test_disc_test_matches_hypot_within_a_few_ulps_of_tangency(scale, pairs):
    # centres placed at the radii's sum along a direction, then moved a few ulps, or a few thousand (about the
    # relative band) either way; at 1e-300 and 1e300 the squares underflow or overflow and go to hypot
    first, second = [], []
    for x, y, ux, uy, r1, r2, ulps, out in pairs:
        ra, rb = r1 * scale / 8, r2 * scale / 8
        norm = math.hypot(ux, uy)
        cx, cy = x * scale + (ra + rb) * ux / norm, y * scale + (ra + rb) * uy / norm
        cx += math.copysign(ulps, ux if out else -ux) * math.ulp(cx)
        first.append(Disc(Point(x * scale, y * scale), ra))
        second.append(Disc(Point(cx, cy), rb))
    a, b = Scene(tuple(first)), Scene(tuple(second))
    p = q = np.arange(len(pairs))
    test = geom._disc_test(a, b)(p, q.copy())  # two rank orders, so each family's own columns
    assert test(p, q).tolist() == _hypot_verdicts(a, b, p, q).tolist()
    # the same family with itself: every pair, its own rank order
    both = Scene(tuple(first + second))
    i, j = (k.ravel() for k in np.indices((len(both), len(both))))
    order = np.arange(len(both))
    assert geom._disc_test(both, both)(order, order)(i, j).tolist() == _hypot_verdicts(both, both, i, j).tolist()
