import math
import tracemalloc

import numpy as np
import pytest
from generator_reference import generate_scene_reference
from prune_reference import segment_clip_convex
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cfgeom import (
    AARect,
    ConvexFatObject,
    Disc,
    Interval,
    Point,
    Scene,
    boundary_crossings,
    generate_lower_bound_family,
    generate_scene,
    intersects,
    min_cf_colors_bruteforce,
    pentagon_template,
    scene_from_json,
    scene_to_json,
    validate_pseudodisc_family,
)
from cfgeom.errors import DegenerateGeometryError, GenerationError, IncompatibleShapesError, InvalidInputError
from cfgeom.geom import (
    _clip_segments,
    _convex_hull_ccw,
    _padded_vertices,
    contiguous_run_witnesses,
)
from cfgeom.hypergraph import all_intervals_hypergraph

coords = st.floats(min_value=-50, max_value=50, allow_nan=False, allow_infinity=False)
radii = st.floats(min_value=0, max_value=20, allow_nan=False, allow_infinity=False)
discs = st.builds(lambda x, y, r: Disc(Point(x, y), r), coords, coords, radii)


def test_point_rejects_nan():
    with pytest.raises(ValueError):
        Point(float("nan"), 0.0)


def test_shape_invariants():
    with pytest.raises(ValueError):
        Disc(Point(0, 0), -1)
    with pytest.raises(ValueError):
        Interval(2, 1)
    with pytest.raises(ValueError):
        AARect(1, 0, 0, 1)


def test_disc_tangency_counts_as_intersection():
    assert intersects(Disc(Point(0, 0), 1), Disc(Point(2, 0), 1))
    assert not intersects(Disc(Point(0, 0), 1), Disc(Point(3, 0), 1))


def test_interval_shared_endpoint():
    assert intersects(Interval(0, 2), Interval(2, 5))
    assert not intersects(Interval(0, 2), Interval(2.1, 5))


def test_incompatible_pairing_raises():
    with pytest.raises(IncompatibleShapesError):
        intersects(Disc(Point(0, 0), 1), Interval(0, 1))
    with pytest.raises(IncompatibleShapesError):
        intersects(AARect(0, 1, 0, 1), Interval(0, 1))


def test_disc_fat_predicate():
    pent = pentagon_template()
    assert intersects(Disc(Point(0, 0), 0.1), pent)
    far = Disc(Point(100, 100), 0.5)
    assert not intersects(far, pent)
    assert intersects(pent, Disc(Point(0, 0), 0.1))


@given(a=discs, b=discs)
@settings(max_examples=150, deadline=None)
def test_disc_intersection_matches_distance_rule(a, b):
    d = math.hypot(a.center.x - b.center.x, a.center.y - b.center.y)
    assert intersects(a, b) == (d <= a.radius + b.radius)
    assert intersects(b, a) == intersects(a, b)
    assert intersects(a, a)


def test_boundary_crossings_discs():
    assert boundary_crossings(Disc(Point(0, 0), 1), Disc(Point(1, 0), 1)) == 2
    assert boundary_crossings(Disc(Point(0, 0), 1), Disc(Point(5, 0), 1)) == 0
    assert boundary_crossings(Disc(Point(0, 0), 2), Disc(Point(0, 0.1), 1)) == 0


def test_boundary_crossings_degenerate():
    with pytest.raises(DegenerateGeometryError):
        boundary_crossings(Disc(Point(0, 0), 1), Disc(Point(2, 0), 1))
    with pytest.raises(DegenerateGeometryError):
        boundary_crossings(Disc(Point(0, 0), 1), Disc(Point(0, 0), 1))
    with pytest.raises(IncompatibleShapesError):
        boundary_crossings(Disc(Point(0, 0), 1), Interval(0, 1))


@given(
    x=st.floats(min_value=-3, max_value=3, allow_nan=False),
    y=st.floats(min_value=-3, max_value=3, allow_nan=False),
    r1=st.floats(min_value=0.1, max_value=2, allow_nan=False),
    r2=st.floats(min_value=0.1, max_value=2, allow_nan=False),
)
@settings(max_examples=150, deadline=None)
def test_boundary_crossings_even(x, y, r1, r2):
    try:
        c = boundary_crossings(Disc(Point(0, 0), r1), Disc(Point(x, y), r2))
    except DegenerateGeometryError:
        return
    assert c % 2 == 0


def test_polygon_crossings_and_validation():
    pent = pentagon_template()
    scene = generate_scene("fat", 25, 3, rho=1.5, k=3.0, homothets_of=pent)
    assert validate_pseudodisc_family(scene)
    for i in range(len(scene)):
        for j in range(i + 1, len(scene)):
            assert boundary_crossings(scene[i], scene[j]) <= 2


def test_two_squares_rotated_are_not_pseudodiscs():
    diamond = ConvexFatObject(
        (Point(1.3, 0), Point(0, 1.3), Point(-1.3, 0), Point(0, -1.3)), Point(0, 0), 0.9, 1.3
    )
    big = 1.05
    square = ConvexFatObject(
        (Point(big, big), Point(-big, big), Point(-big, -big), Point(big, -big)),
        Point(0, 0),
        1.0,
        1.6,
    )
    assert boundary_crossings(diamond, square) == 8
    assert not validate_pseudodisc_family(Scene((diamond, square)))


def test_disc_family_holding_one_disc_twice_is_degenerate():
    disc = Disc(Point(0.3, 0.4), 0.2)
    with pytest.raises(DegenerateGeometryError, match="duplicate disc"):
        validate_pseudodisc_family(Scene((disc, Disc(Point(2, 2), 0.5), disc)))


def test_generate_scene_empty_and_determinism():
    empty = generate_scene("discs", 0, 123)
    assert len(empty) == 0
    a = generate_scene("discs", 50, 7, radius_range=(0.05, 0.2))
    b = generate_scene("discs", 50, 7, radius_range=(0.05, 0.2))
    assert a == b
    assert len(a) == 50
    c = generate_scene("discs", 50, 8, radius_range=(0.05, 0.2))
    assert a != c


def _segment_dist(p, a, b) -> float:
    """Scalar distance from point p to segment (a, b)."""
    ex, ey = b.x - a.x, b.y - a.y
    t = ((p.x - a.x) * ex + (p.y - a.y) * ey) / (ex * ex + ey * ey)
    t = min(1.0, max(0.0, t))
    return math.hypot(p.x - (a.x + t * ex), p.y - (a.y + t * ey))


def _boundary_pairs(scene):
    """(i, j, boundary distances of shapes i and j), by scalar arithmetic; polygons both ways round."""
    for i, a in enumerate(scene.shapes):
        for j, b in enumerate(scene.shapes):
            if i == j or (i > j and not isinstance(a, ConvexFatObject)):
                continue
            if isinstance(a, Disc):
                d = math.hypot(a.center.x - b.center.x, a.center.y - b.center.y)
                yield i, j, [d, abs(d - (a.radius + b.radius)), abs(d - abs(a.radius - b.radius))]
            elif isinstance(a, Interval):
                yield i, j, [abs(u - v) for u in (a.lo, a.hi) for v in (b.lo, b.hi)]
            elif isinstance(a, AARect):
                xs = [abs(u - v) for u in (a.xmin, a.xmax) for v in (b.xmin, b.xmax)]
                yield i, j, xs + [abs(u - v) for u in (a.ymin, a.ymax) for v in (b.ymin, b.ymax)]
            else:  # every vertex of a against every edge of b
                edges = list(zip(b.vertices, b.vertices[1:] + b.vertices[:1]))
                yield i, j, [_segment_dist(p, e0, e1) for p in a.vertices for e0, e1 in edges]


def test_generate_scene_margin_holds():
    delta = 1e-3
    for kind, n, extra in [
        ("discs", 40, {}),
        ("intervals", 40, {"span": 4.0}),
        ("rects", 40, {}),
        ("fat", 30, {"rho": 1.5, "k": 3.0, "homothets_of": pentagon_template(), "base_size": 0.05}),
        ("fat", 15, {"rho": 2.0, "k": 4.0, "base_size": 0.03}),
    ]:
        scene = generate_scene(kind, n, 5, margin=delta, **extra)
        assert len(scene) == n
        for i, j, dists in _boundary_pairs(scene):
            assert min(dists) >= delta, (kind, i, j)


PENTAGON = pentagon_template()


@st.composite
def _generator_args(draw):
    kind = draw(st.sampled_from(["discs", "intervals", "rects", "homothets", "fat"]))
    margin = draw(st.sampled_from([None, 0.0, 1e-9, 1e-3]) | st.floats(0.02, 0.1))
    args = {"margin": margin, "span": draw(st.sampled_from([1.0, 3.0]))}
    n = draw(st.integers(0, 80))
    if kind == "homothets":
        kind = "fat"
        args.update(homothets_of=PENTAGON, rho=1.5, k=draw(st.sampled_from([1.0, 3.0])), base_size=0.05)
    elif kind == "fat":
        n = min(n, 30)  # sampled one at a time
        args.update(rho=draw(st.sampled_from([1.2, 2.0])), k=draw(st.sampled_from([1.0, 4.0])), base_size=0.03)
    return kind, n, draw(st.integers(0, 2**32 - 1)), args


def _generated(generate, kind, n, seed, args):
    try:
        return generate(kind, n, seed, **args)
    except GenerationError as exc:
        return str(exc)


@given(_generator_args())
@example(("rects", 80, 9, {"margin": 0.05}))  # many misses
@example(("fat", 80, 1, {"margin": 0.1, "homothets_of": PENTAGON, "rho": 1.5, "k": 3.0, "base_size": 0.05}))
@settings(max_examples=80, deadline=None)
def test_generate_scene_matches_sequential_reference(case):
    got, want = _generated(generate_scene, *case), _generated(generate_scene_reference, *case)
    assert type(got) is type(want)
    assert got == want
    if isinstance(got, Scene):
        assert got.rows.tobytes() == want.rows.tobytes()


def test_generate_scene_gives_up_where_the_reference_does():
    for generate in (generate_scene, generate_scene_reference):
        with pytest.raises(GenerationError, match="non-degeneracy margin"):
            generate("intervals", 40, 3, margin=0.1)


def test_generate_scene_memory_follows_near_pairs():
    # 3e4 discs of mean degree about 10, default margin: one block of 256
    # candidates against every placed disc would take 61 MB per array; the
    # sweep keeps only the pairs whose margin boxes overlap
    n, radii = 30000, (0.05, 0.2)
    mean, var = sum(radii) / 2, (radii[1] - radii[0]) ** 2 / 12
    span = math.sqrt(n * math.pi * (4 * mean * mean + 2 * var) / 10)
    tracemalloc.start()
    try:
        scene = generate_scene("discs", n, 11, span=span, radius_range=radii)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(scene) == n
    assert peak < 50 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_generate_scene_dense_memory_stays_within_sweep_blocks():
    # 5000 discs in the unit square: most pairs have overlapping margin boxes,
    # but the margin test runs inside the sweep's blocks, so only too-close
    # pairs are held (3.3 MB traced, against 9.0 MB when every box-overlapping
    # pair of a generator block was kept)
    tracemalloc.start()
    try:
        scene = generate_scene("discs", 5000, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(scene) == 5000
    assert peak < 6 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_generate_fat_certificates_valid():
    scene = generate_scene("fat", 20, 1, rho=2.0, k=4.0)
    assert len(scene) == 20
    for s in scene.shapes:
        assert isinstance(s, ConvexFatObject)
        assert s.rho <= 2.0 + 1e-9
    sizes = [s.r_inner for s in scene.shapes]
    assert max(sizes) / min(sizes) <= 4.0 + 1e-9


def test_generate_scene_bad_params():
    with pytest.raises(ValueError):
        generate_scene("fat", 5, 0, rho=0.5)
    with pytest.raises(ValueError):
        generate_scene("fat", 5, 0, k=0.5)
    with pytest.raises(ValueError):
        generate_scene("blobs", 5, 0)
    with pytest.raises(ValueError):
        generate_scene("discs", -1, 0)
    with pytest.raises(ValueError):
        generate_scene("discs", 5, 0, radius_range=(0.3, 0.2))


def test_lower_bound_family_basics():
    single = generate_lower_bound_family(1, 0.1)
    assert len(single) == 1
    assert single[0] == Disc(Point(0, 0), 1.0)
    with pytest.raises(ValueError):
        generate_lower_bound_family(0, 0.1)
    with pytest.raises(ValueError):
        generate_lower_bound_family(4, 0.7)


@pytest.mark.parametrize("n,spacing", [(2, 0.3), (4, 0.1), (5, 0.15), (8, 0.2), (16, 0.1)])
def test_run_witnesses_are_exact(n, spacing):
    scene = generate_lower_bound_family(n, spacing)
    for run, p in contiguous_run_witnesses(n, spacing).items():
        got = frozenset(
            i
            for i, s in enumerate(scene.shapes)
            if (p.x - s.center.x) ** 2 + (p.y - s.center.y) ** 2 <= s.radius**2
        )
        assert got == run


def test_lower_bound_oracle_at_8():
    t, _ = min_cf_colors_bruteforce(all_intervals_hypergraph(8), 8)
    assert t == 4


def test_scene_json_roundtrip():
    scene = generate_scene("fat", 6, 2, rho=2.0, k=3.0)
    again = scene_from_json(scene_to_json(scene))
    assert again == scene
    mixed = Scene((Disc(Point(0.1, 0.2), 0.3), Disc(Point(1, 1), 0.25)))
    assert scene_from_json(scene_to_json(mixed)) == mixed
    rects = generate_scene("rects", 4, 9)
    assert scene_from_json(scene_to_json(rects)) == rects
    ivals = generate_scene("intervals", 4, 9)
    assert scene_from_json(scene_to_json(ivals)) == ivals


def test_scene_kind_inference_and_mismatch():
    s = Scene((Disc(Point(0, 0), 1),))
    assert s.kind == "discs"
    with pytest.raises(ValueError):
        Scene((Disc(Point(0, 0), 1),), "rects")
    m = Scene((Disc(Point(0, 0), 1), Interval(0, 1)))
    assert m.kind == "mixed"


def test_fat_certificate_validation():
    with pytest.raises(ValueError):
        ConvexFatObject((Point(1, 0), Point(0, 1), Point(-1, 0), Point(0, -1)), Point(0, 0), 0.9, 1.0)
    with pytest.raises(ValueError):
        ConvexFatObject((Point(1, 0), Point(0, 1), Point(-1, 0), Point(0, -1)), Point(0, 0), 0.5, 0.9)
    with pytest.raises(ValueError):
        ConvexFatObject((Point(1, 0), Point(1, 1), Point(0, 1), Point(0.9, 0.9)), Point(0.5, 0.5), 0.1, 1.0)
    # orientation and convexity are checked at the polygon's own size, however small
    h = 0.5e-13
    square = (Point(h, h), Point(-h, h), Point(-h, -h), Point(h, -h))
    ConvexFatObject(square, Point(0, 0), 0.99 * h, 1.5 * h)  # counter-clockwise: valid
    with pytest.raises(InvalidInputError, match="convex in counter-clockwise order"):
        ConvexFatObject(square[::-1], Point(0, 0), 0.99 * h, 1.5 * h)
    # and so are both certificates: a 1e-12 slack would pass an inner disc 20 times the
    # inradius, an anchor outside the square, and an outer disc inside it
    with pytest.raises(InvalidInputError, match="inner certificate"):
        ConvexFatObject(square, Point(0, 0), 1e-12, 1.5e-12)
    with pytest.raises(InvalidInputError, match="inner certificate"):
        ConvexFatObject(square, Point(3 * h, h), 9e-13, 1e-12)
    with pytest.raises(InvalidInputError, match="outer certificate"):
        ConvexFatObject(square, Point(0, 0), 0.5 * h, 0.6 * h)
    # valid copies: the same square with certificates that hold, and an anchor inside it
    ConvexFatObject(square, Point(0, 0), 0.99 * h, 1.5e-12)
    ConvexFatObject(square, Point(0.4 * h, 0.2 * h), 0.59 * h, 1.9 * h)
    dart = ((0, 0), (1, 0), (1, 1), (0.5, 0.95), (0, 1))
    for s in (1.0, 1e-3, 1e-5, 1e-7):
        with pytest.raises(InvalidInputError, match="convex in counter-clockwise order"):
            ConvexFatObject(tuple(Point(x * s, y * s) for x, y in dart), Point(0.5 * s, 0.4 * s), 0.3 * s, 0.8 * s)


# ---------------------------------------------------------------------------
# the batched clip kernel against the scalar loop it replaced
# ---------------------------------------------------------------------------

grid_point = st.tuples(st.integers(0, 12), st.integers(0, 12)).map(lambda p: (p[0] / 2, p[1] / 2))


@st.composite
def grid_polygons(draw):
    """Ccw convex polygons on a half-integer grid, so that segments touch their
    vertices and run along their edges exactly; some carry a repeated vertex (a
    zero-length edge of their own) or an extra vertex in the middle of an edge."""
    hull = _convex_hull_ccw(np.array(draw(st.lists(grid_point, min_size=3, max_size=8, unique=True))))
    assume(len(hull) >= 3)
    verts = hull.tolist()
    k = draw(st.integers(0, len(verts) - 1))
    extra = draw(st.sampled_from(["none", "repeat", "midpoint"]))
    if extra == "repeat":
        verts.insert(k, verts[k])
    elif extra == "midpoint":
        a, b = verts[k], verts[(k + 1) % len(verts)]
        verts.insert(k + 1, [(a[0] + b[0]) / 2, (a[1] + b[1]) / 2])
    return np.array(verts)


@given(
    st.lists(st.tuples(grid_point, grid_point), min_size=1, max_size=6),
    st.lists(grid_polygons(), min_size=1, max_size=4),
)
@settings(max_examples=150, deadline=None)
def test_batched_clip_matches_scalar_loop(segments, polys):
    # polygons of mixed vertex counts are padded to one count, as in pruning
    p0 = np.array([s[0] for s in segments])
    p1 = np.array([s[1] for s in segments])
    t0, t1 = _clip_segments(p0[:, None], p1[:, None], _padded_vertices(polys))
    for s, (a, b) in enumerate(segments):
        for k, xy in enumerate(polys):
            expected = segment_clip_convex(a, b, xy)
            assert (t0[s, k] > t1[s, k]) if expected is None else (t0[s, k], t1[s, k]) == expected
