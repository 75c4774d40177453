import math

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
from cfgeom.errors import DegenerateGeometryError, IncompatibleShapesError
from cfgeom.geom import (
    _clip_segments,
    _convex_hull_ccw,
    _in_any_polygon,
    _padded_vertices,
    containment_sets_by_sampling,
    contiguous_run_witnesses,
    points_in_convex_polygon,
    segment_clip_convex,
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


def test_generate_scene_empty_and_determinism():
    empty = generate_scene("discs", 0, 123)
    assert len(empty) == 0
    a = generate_scene("discs", 50, 7, radius_range=(0.05, 0.2))
    b = generate_scene("discs", 50, 7, radius_range=(0.05, 0.2))
    assert a == b
    assert len(a) == 50
    c = generate_scene("discs", 50, 8, radius_range=(0.05, 0.2))
    assert a != c


def test_generate_scene_margin_holds():
    delta = 1e-3
    scene = generate_scene("discs", 40, 5, margin=delta)
    for i in range(40):
        for j in range(i + 1, 40):
            a, b = scene[i], scene[j]
            d = math.hypot(a.center.x - b.center.x, a.center.y - b.center.y)
            assert abs(d - (a.radius + b.radius)) >= delta
            assert abs(d - abs(a.radius - b.radius)) >= delta


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


def test_lower_bound_family_runs_realizable():
    scene = generate_lower_bound_family(4, 0.1)
    found = containment_sets_by_sampling(scene, grid=60)
    expected = {frozenset(range(i, j + 1)) for i in range(4) for j in range(i, 4)}
    assert found == expected


@pytest.mark.parametrize("n,spacing", [(2, 0.3), (5, 0.15), (8, 0.2), (16, 0.1)])
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


# ---------------------------------------------------------------------------
# batched clip and coverage kernels against the scalar loops they replaced
# ---------------------------------------------------------------------------


def _clip_reference(p0, p1, xy):
    """segment_clip_convex as a loop over the polygon's edges, kept as the reference."""
    dx, dy = p1[0] - p0[0], p1[1] - p0[1]
    t0, t1 = 0.0, 1.0
    n = len(xy)
    for i in range(n):
        ax, ay = xy[i]
        bx, by = xy[(i + 1) % n]
        ex, ey = bx - ax, by - ay
        num = ex * (p0[1] - ay) - ey * (p0[0] - ax)
        den = ex * dy - ey * dx
        if den == 0:
            if num < 0:
                return None
            continue
        t = -num / den
        if den > 0:
            t0 = max(t0, t)
        else:
            t1 = min(t1, t)
        if t0 > t1:
            return None
    return (t0, t1)


def _inside_reference(xy, pts):
    """points_in_convex_polygon as one polygon's cross products, kept as the reference."""
    b = np.roll(xy, -1, axis=0)
    ex, ey = (b[:, 0] - xy[:, 0])[None, :], (b[:, 1] - xy[:, 1])[None, :]
    return ((ex * (pts[:, 1:2] - xy[None, :, 1]) - ey * (pts[:, 0:1] - xy[None, :, 0])) >= 0).all(axis=1)


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


class _Vertices:
    def __init__(self, xy):
        self._xy = xy

    def xy(self):
        return self._xy


@given(
    st.lists(st.tuples(grid_point, grid_point), min_size=1, max_size=6),
    st.lists(grid_polygons(), min_size=1, max_size=4),
)
@settings(max_examples=150, deadline=None)
def test_batched_clip_matches_scalar_loop(segments, polys):
    # polygons of mixed vertex counts are padded to one count, as in pruning
    p0 = np.array([s[0] for s in segments])
    p1 = np.array([s[1] for s in segments])
    t0, t1 = _clip_segments(p0, p1, _padded_vertices([_Vertices(xy) for xy in polys]))
    for s, (a, b) in enumerate(segments):
        for k, xy in enumerate(polys):
            expected = _clip_reference(a, b, xy)
            assert segment_clip_convex(a, b, xy) == expected
            assert (t0[s, k] > t1[s, k]) if expected is None else (t0[s, k], t1[s, k]) == expected


@given(st.lists(grid_point, max_size=30), st.lists(grid_polygons(), max_size=4))
@settings(max_examples=150, deadline=None)
def test_batched_coverage_matches_per_polygon_test(points, polys):
    # an eighth-step grid over the polygons' range makes the kernel work in several blocks of points
    fine = np.stack(np.meshgrid(np.arange(49) / 8, np.arange(49) / 8), axis=-1).reshape(-1, 2)
    pts = np.concatenate([np.array(points, dtype=float).reshape(-1, 2), fine])
    expected = np.zeros(len(pts), dtype=bool)
    for xy in polys:
        inside = _inside_reference(xy, pts)
        assert points_in_convex_polygon(xy, pts).tolist() == inside.tolist()
        expected |= inside
    padded = _padded_vertices([_Vertices(xy) for xy in polys]) if polys else np.zeros((0, 3, 2))
    assert _in_any_polygon(pts, padded).tolist() == expected.tolist()
