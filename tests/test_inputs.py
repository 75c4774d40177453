"""Bad input ends in a CFGeomError, never a bare exception or a traceback."""
import contextlib
import copy
import io
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cfgeom as cf
from cfgeom import hypergraph
from cfgeom.cli import _infer_fat_params, main
from cfgeom.hypergraph import _integers, certify, neighborhood_violations
from cfgeom.svg import render_svg


def _path():
    return cf.Graph(3, [(0, 1), (1, 2)])


def _triangle():
    return cf.Hypergraph(3, [[0, 1], [1, 2], [0, 2]])


def _two_discs():
    """A probe system of two vertex discs, for a colorer of two vertices."""
    return cf.generate_scene("discs", 2, 1), cf.generate_scene("discs", 3, 2)


def _ones(h):
    return cf.Coloring((1,) * h.n)


def _five_discs():
    return cf.generate_scene("discs", 5, 1)


BAD_CALLS = {
    "coloring not total": lambda: cf.verify_cf(_triangle(), [1, 2]),
    "graph edge not a pair": lambda: cf.Graph(3, [(0, 1, 2)]),
    "graph edge out of order": lambda: cf.Graph(3, [(1, 0)]),
    "unknown neighborhood mode": lambda: cf.neighborhood_hypergraph(_path(), "open"),
    "subgraph keep not increasing": lambda: _path().subgraph([2, 1]),
    "hyperedge out of range": lambda: cf.Hypergraph(2, [[0, 5]]),
    "pair member out of range": lambda: cf.Hypergraph.from_pairs(2, 1, [0], [5]),
    "pair member negative": lambda: cf.Hypergraph.from_pairs(3, 2, [0, 1], [-1, 2]),
    "pair edge out of range": lambda: cf.Hypergraph.from_pairs(3, 2, [0, 2], [1, 1]),
    "induced out of range": lambda: cf.induced(_triangle(), [5]),
    "induced duplicates": lambda: cf.induced(_triangle(), [0, 0]),
    "independent set order": lambda: cf.greedy_maximal_independent_set(_path(), [0, 1]),
    "independent set order of floats": lambda: cf.greedy_maximal_independent_set(_path(), [1.0, 0.0, 2.0]),
    "independent set order with bools": lambda: cf.greedy_maximal_independent_set(_path(), [True, False, 2]),
    "independent set order a bool array": lambda: cf.greedy_maximal_independent_set(
        cf.Graph(2, [(0, 1)]), np.array([True, False])
    ),
    "oracle too large": lambda: cf.min_cf_colors_bruteforce(cf.Hypergraph(17, []), 3),
    "one list per vertex": lambda: cf.proper_to_cf_list(_triangle(), [[1, 2]], cf.ProperColorer(_ones, 2)),
    "lists too short": lambda: cf.proper_to_cf_list(_triangle(), [[1]] * 3, cf.ProperColorer(_ones, 2)),
    "peel engine of another system": lambda: cf.proper_to_cf(_triangle(), cf.peel_proper_colorer(*_two_discs())),
    "certify lists too few": lambda: certify(_triangle(), cf.Coloring((1, 2, 3)), lists=[[1]]),
    "certify lists empty": lambda: certify(_path(), cf.Coloring((1, 2, 3)), "closed", lists=[]),
    "certify lists too many": lambda: certify(
        cf.generate_scene("intervals", 3, 1), cf.Coloring((1, 2, 3)), "closed", lists=[[1], [2], [3], [4]]
    ),
    "conversion not total": lambda: cf.pointed_to_closed(_path(), cf.Coloring((1, 2))),
    "conversion color ids": lambda: cf.pointed_to_closed(_path(), cf.Coloring((0, 1, 0))),
    "svg coloring length": lambda: render_svg(cf.generate_scene("discs", 3, 1), cf.Coloring((1,))),
    # counts, ids and colors must be integers: none is truncated or wrapped
    "graph vertex count negative": lambda: cf.Graph(-1),
    "graph vertex count not an integer": lambda: cf.Graph(2.5, [(0, 1)]),
    "graph edge ids not integers": lambda: cf.Graph(3, [(0.5, 1.7)]),
    "graph edge ids a float array": lambda: cf.Graph(3, np.array([[0.0, 1.0]])),
    "graph edges ragged": lambda: cf.Graph(3, [(0, 1), (2,)]),
    "subgraph keep not integers": lambda: _path().subgraph([0.5, 1.5]),
    "hypergraph vertex count negative": lambda: cf.Hypergraph(-2, []),
    "hypergraph vertex count not an integer": lambda: cf.Hypergraph(2.5, [[0, 1]]),
    "hyperedge members not integers": lambda: cf.Hypergraph(2, [[1.2, 0.5]]),
    "pair vertex count not an integer": lambda: cf.Hypergraph.from_pairs(2.5, 1, [0], [1]),
    "pair edge count negative": lambda: cf.Hypergraph.from_pairs(2, -1, [], []),
    "pair edge count not an integer": lambda: cf.Hypergraph.from_pairs(2, 1.5, [0], [1]),
    "pair members not integers": lambda: cf.Hypergraph.from_pairs(2, 1, [0], [1.2]),
    "pair edge ids not integers": lambda: cf.Hypergraph.from_pairs(2, 2, np.array([0.7]), [1]),
    "induced keep not integers": lambda: cf.induced(_triangle(), [0.5, 1.0]),
    "coloring colors not integers": lambda: cf.Coloring((1.5, 2.7)),
    "coloring colors integral floats": lambda: cf.Coloring((1.0, 2.0)),
    "verify_cf raw colors not integers": lambda: cf.verify_cf(_triangle(), [1.5, 1.7, 1.0]),
    "verify_proper raw colors a float array": lambda: cf.verify_proper(_triangle(), np.array([1.0, 2.0, 3.0])),
    "neighborhood raw colors not integers": lambda: neighborhood_violations(_path(), [1, 2.5, 1], "pointed"),
    "scene census mode an array": lambda: neighborhood_violations(
        cf.generate_scene("intervals", 3, 1), [1, 2, 1], np.array(["closed", "open"])
    ),
    "certify mode an array": lambda: certify(
        cf.generate_scene("rects", 6, 1), cf.Coloring((1,) * 6), np.array(["closed", "open"])
    ),
    "oracle palette not an integer": lambda: cf.min_cf_colors_bruteforce(_triangle(), 2.5),
    "induced keep nested": lambda: cf.induced(_triangle(), [[0, 1], [1, 2]]),
    "subgraph keep nested": lambda: _path().subgraph([[0, 1], [1, 2]]),
    "pairs nested": lambda: cf.Hypergraph.from_pairs(3, 2, [[0, 1]], [[1, 2]]),
    "pairs of two lengths": lambda: cf.Hypergraph.from_pairs(3, 2, [0], [1, 2]),
    # subscene ids are checked as subgraph ids are; none is wrapped, truncated or left to IndexError
    "subscene index negative": lambda: _five_discs().subscene([-1]),
    "subscene index not an integer": lambda: _five_discs().subscene([1.5]),
    "subscene index out of range": lambda: _five_discs().subscene([7]),
    "subscene indices nested": lambda: _five_discs().subscene([[0, 1], [2, 3]]),
    # a boolean mask is not a list of ids: True is not taken as 1, nor False as 0
    "subscene indices a bool mask": lambda: _five_discs().subscene(np.array([False, True, True])),
    "subgraph keep a bool mask": lambda: _path().subgraph([False, True]),
    "coloring colors bools": lambda: cf.Coloring((True, False)),
    "graph vertex count a bool": lambda: cf.Graph(True),
}


@pytest.mark.parametrize("name", sorted(BAD_CALLS))
def test_bad_caller_input_raises_invalid_input(name):
    # InvalidInputError is a CFGeomError and still a ValueError
    with pytest.raises(cf.InvalidInputError) as info:
        BAD_CALLS[name]()
    assert isinstance(info.value, cf.CFGeomError) and isinstance(info.value, ValueError)


def test_integer_arrays_are_taken_without_a_pass():
    # an int64 array is neither copied nor scanned; other integer dtypes are converted once
    ids = np.arange(6, dtype=np.int64)
    assert _integers(ids, "ids") is ids
    assert _integers(ids.astype(np.int32), "ids").dtype == np.int64
    h = cf.Hypergraph.from_pairs(3, 2, ids % 2, ids % 3)
    assert h.edges == ((0, 1, 2), (0, 1, 2))
    assert cf.Coloring(np.array([3, 1, 2])).colors == (3, 1, 2)


def test_subscene_takes_repeated_indices_in_their_order():
    scene = _five_discs()
    assert scene.subscene(np.array([4, 1, 1], dtype=np.uint8)).shapes == (scene[4], scene[1], scene[1])
    assert scene.subscene(range(5)).shapes == scene.shapes and len(scene.subscene([])) == 0


# unsigned values at or above 2^63 would wrap to negative int64 values
UNSIGNED_CALLS = {
    "Coloring of a Python int": lambda: cf.Coloring((2**63,)),
    "Coloring of a uint64 array": lambda: cf.Coloring(np.array([2**63, 1], dtype=np.uint64)),
    "Graph edge": lambda: cf.Graph(3, np.array([[0, 2**63]], dtype=np.uint64)),
    "Hypergraph.from_pairs member": lambda: cf.Hypergraph.from_pairs(
        3, 1, np.zeros(1, dtype=np.uint64), np.array([2**63], dtype=np.uint64)
    ),
    "verify_cf colors": lambda: cf.verify_cf(_triangle(), np.array([1, 2, 2**64 - 1], dtype=np.uint64)),
}


@pytest.mark.parametrize("name", sorted(UNSIGNED_CALLS))
def test_unsigned_values_beyond_int64_are_rejected(name):
    with pytest.raises(cf.InvalidInputError, match=r"not above 2\^63 - 1"):
        UNSIGNED_CALLS[name]()


def test_unsigned_values_within_int64_are_taken():
    top = np.array([2**63 - 1, 0], dtype=np.uint64)
    assert cf.Coloring(top).colors == (2**63 - 1, 0)
    assert cf.Graph(3, np.array([[0, 2]], dtype=np.uint64)).edges == {(0, 2)}
    assert cf.verify_cf(cf.Hypergraph(2, [[0, 1]]), top) == []


# CSR arrays are keyed row * width + col in int64: a key space of 2^63 or more
# would wrap a key to a negative one, or allocate an indptr no machine holds
KEY_SPACE_CALLS = {
    "Graph of 2^33 vertices": lambda: cf.Graph(2**33, [(0, 1)]),
    "Graph of 2^32 vertices, no edges": lambda: cf.Graph(2**32),
    "Hypergraph of 3 edges on 2^62 vertices": lambda: cf.Hypergraph(2**62, [[0], [1], [2**62 - 1]]),
    "Hypergraph.from_pairs of 2^24 edges on 2^40 vertices": lambda: cf.Hypergraph.from_pairs(
        2**40, 2**24, [2**24 - 1, 0], [2**40 - 1, 5]
    ),
    "Hypergraph.from_pairs with no pairs": lambda: cf.Hypergraph.from_pairs(2**62, 2, [], []),
}


@pytest.mark.parametrize("name", sorted(KEY_SPACE_CALLS))
def test_csr_key_space_beyond_int64_is_rejected(name):
    with pytest.raises(cf.InvalidInputError, match="overflow the 64-bit CSR keys"):
        KEY_SPACE_CALLS[name]()


def test_csr_key_space_just_within_int64_is_taken():
    # rows * width = 2^63 - 1: the largest key and the last row bound still fit
    h = cf.Hypergraph.from_pairs(2**63 - 1, 1, [0, 0], [2**63 - 2, 5])
    assert h.indptr.tolist() == [0, 2] and h.edges == ((5, 2**63 - 2),)
    assert cf.Hypergraph(2**62 - 1, [[2**62 - 2], [0]]).edges == ((2**62 - 2,), (0,))


class _NumpyWithoutRoom:
    """numpy as `hypergraph` sees it on a host that cannot hold an arange of
    more than 2^30 entries: such an arange raises MemoryError, as numpy's
    failed allocations do, and nothing is allocated."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def arange(stop, *args, **kwargs):
        if stop > 2**30:
            raise MemoryError(f"Unable to allocate an arange of {stop} entries")
        return np.arange(stop, *args, **kwargs)


# within the key space, yet the row pointers of the CSR rows (n + 1 for a
# graph, m + 1 for m hyperedges) need more memory than a host may have
ROW_POINTER_CALLS = {
    "Graph of 2^31 vertices": lambda: cf.Graph(2**31, [(0, 1)]),
    "Hypergraph.from_pairs of 2^40 edges": lambda: cf.Hypergraph.from_pairs(2, 2**40, [0], [1]),
}


@pytest.mark.parametrize("name", sorted(ROW_POINTER_CALLS))
def test_csr_row_pointers_beyond_memory_are_rejected(monkeypatch, name):
    monkeypatch.setattr(hypergraph, "np", _NumpyWithoutRoom())
    with pytest.raises(cf.InvalidInputError, match=r"row pointers of \d+ CSR rows do not fit in memory"):
        ROW_POINTER_CALLS[name]()


# fuzzing the library's own entry points with odd ids, counts and colors
# ---------------------------------------------------------------------------

ODD_VALUES = st.one_of(
    st.integers(-3, 5),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.sampled_from([2**63 - 1, 2**63, 2**64 - 1, 2**64, -(2**63), -(2**63) - 1]),
)
ODD_SEQUENCES = st.one_of(
    st.lists(ODD_VALUES, max_size=5),
    st.lists(st.one_of(ODD_VALUES, st.lists(ODD_VALUES, max_size=3)), min_size=1, max_size=4),  # ragged
    st.lists(st.lists(st.integers(0, 3), min_size=2, max_size=2), min_size=1, max_size=3),  # nested, even
    st.lists(st.integers(0, 2**64 - 1), max_size=5).map(lambda v: np.array(v, dtype=np.uint64)),
    st.lists(st.integers(-3, 5), max_size=5).map(lambda v: np.array(v, dtype=np.float64)),
)
ODD_SCALARS = st.one_of(
    ODD_VALUES, st.sampled_from(["pointed", "closed", "open", "", None, np.array(["closed", "open"])])
)


def _json_colors(seq, scalar) -> str:
    values = seq.tolist() if isinstance(seq, np.ndarray) else seq
    doc = {"colors": values}
    if isinstance(scalar, int) and not isinstance(scalar, bool):
        doc["palette_map"] = {str(scalar): values[:2]}
    return json.dumps(doc)


FUZZED_CALLS = {
    "min_cf_colors_bruteforce": lambda seq, x: cf.min_cf_colors_bruteforce(_triangle(), x),
    "render_svg": lambda seq, x: render_svg(cf.generate_scene("discs", len(seq), 1), cf.Coloring(seq)),
    "Scene.subscene": lambda seq, x: _five_discs().subscene(seq),
    "Coloring": lambda seq, x: cf.Coloring(seq),
    "coloring_from_json": lambda seq, x: cf.coloring_from_json(_json_colors(seq, x)),
    "verify_cf": lambda seq, x: cf.verify_cf(_triangle(), seq),
    "verify_proper": lambda seq, x: cf.verify_proper(_triangle(), seq),
    "induced": lambda seq, x: cf.induced(_triangle(), seq),
    "Graph.subgraph": lambda seq, x: _path().subgraph(seq),
    "Hypergraph.from_pairs": lambda seq, x: cf.Hypergraph.from_pairs(3, 2, seq, seq[::-1]),
    "neighborhood_hypergraph": lambda seq, x: cf.neighborhood_hypergraph(_path(), x),
}


@given(st.sampled_from(sorted(FUZZED_CALLS)), ODD_SEQUENCES, ODD_SCALARS)
@settings(max_examples=400, deadline=None)
def test_fuzzed_library_calls_fail_cleanly(name, seq, scalar):
    # a valid result or a CFGeomError; never a bare exception, a wrapped id or a truncated float
    try:
        out = FUZZED_CALLS[name](seq, scalar)
    except cf.CFGeomError:
        return
    if isinstance(out, cf.Coloring):
        assert out.colors == tuple(np.asarray(seq).tolist()) and all(type(c) is int for c in out.colors)
    elif isinstance(out, cf.Scene):
        assert out.shapes == tuple(_five_discs()[int(i)] for i in np.asarray(seq).tolist())
    elif name in ("verify_cf", "verify_proper"):
        assert len(seq) == 3 and -(2**63) <= min(np.asarray(seq).tolist()) and max(np.asarray(seq).tolist()) < 2**63


# coloring documents whose values are not JSON integers
# ---------------------------------------------------------------------------

PAIRS = {"1": [1, 1], "2": [1, 2], "3": [2, 1], "4": [2, 2]}
BAD_COLORINGS = {
    "mixed values": {"colors": [1.5, 2.7, True, "3"]},
    "float": {"colors": [1, 2, 3.0, 4]},
    "bool": {"colors": [1, 2, True, 4]},
    "string": {"colors": [1, 2, "3", 4]},
    "null": {"colors": [1, 2, None, 4]},
    "beyond 64 bits": {"colors": [1, 2, 2**63, 4]},
    "colors an object": {"colors": {"0": 1, "1": 2, "2": 3, "3": 4}},
    "palette value a string": {"colors": [1, 2, 3, 4], "palette_map": {**PAIRS, "1": "ab"}},
    "palette value a triple": {"colors": [1, 2, 3, 4], "palette_map": {**PAIRS, "1": [1, 1, 1]}},
    "palette value with a float": {"colors": [1, 2, 3, 4], "palette_map": {**PAIRS, "2": [1, 2.0]}},
    "palette value with a bool": {"colors": [1, 2, 3, 4], "palette_map": {**PAIRS, "2": [True, 2]}},
    "palette value an integer": {"colors": [1, 2, 3, 4], "palette_map": {**PAIRS, "4": 4}},
}


@pytest.mark.parametrize("name", sorted(BAD_COLORINGS))
def test_coloring_json_values_must_be_integers(tmp_path, name):
    # no coercion: the library raises, and `verify` and `svg` exit 2 with one error line
    text = json.dumps(BAD_COLORINGS[name])
    with pytest.raises(cf.InvalidInputError, match="coloring JSON"):
        cf.coloring_from_json(text)
    scene_file, coloring_file = tmp_path / "scene.json", tmp_path / "coloring.json"
    cf.save_scene(cf.generate_scene("discs", 4, 1), scene_file)
    coloring_file.write_text(text)
    for command in (["verify", "--mode", "closed"], ["svg", "--out", tmp_path / "out.svg"]):
        code, err = _run_cli(*command, "--in", scene_file, "--coloring", coloring_file)
        assert code == 2 and "coloring JSON" in err
        _assert_cli_outcome(code, err, ())
    assert not (tmp_path / "out.svg").exists()


def test_coloring_json_loads_the_whole_64_bit_range():
    doc = {"colors": [1, 2, 3, -(2**63)], "palette_map": {**PAIRS, "5": [2**63 - 1, -1]}}
    c = cf.coloring_from_json(json.dumps(doc))
    assert c.colors == (1, 2, 3, -(2**63)) and c.palette_map[5] == (2**63 - 1, -1)


# fuzzing interval and rectangle scene documents
# ---------------------------------------------------------------------------

FIELDS = {"interval": ("lo", "hi"), "rect": ("xmin", "xmax", "ymin", "ymax")}
STRANGE_NUMBERS = {
    "NaN": math.nan,
    "inf": math.inf,
    "-inf": -math.inf,
    "integer beyond float": 10**400,
    "number as a string": "1.5",
    "string": "abc",
    "null": None,
    "list": [1.0],
    "object": {"x": 1},
}
OTHER_SHAPES = [
    {"type": "interval", "lo": 0.0, "hi": 1.0},
    {"type": "rect", "xmin": 0.0, "xmax": 1.0, "ymin": 0.0, "ymax": 1.0},
    {"type": "disc", "cx": 0.5, "cy": 0.5, "r": 0.2},
    {"type": "triangle"},
    3,
]


def _mutate(doc: dict, op: str, draw) -> None:
    """Apply the mutation `op` to the scene document, in place."""
    shapes = doc.get("shapes", [])
    if op == "empty":
        shapes.clear()
    elif op == "mixed":
        shapes.insert(draw(st.integers(0, len(shapes))), copy.deepcopy(draw(st.sampled_from(OTHER_SHAPES))))
    elif op == "kind":
        doc["kind"] = draw(st.sampled_from(["intervals", "rects", "discs", "fat", "", 7]))
    elif op == "drop-top":
        doc.pop(draw(st.sampled_from(["kind", "shapes"])), None)
    else:
        axis = [s for s in shapes if isinstance(s, dict) and s.get("type") in FIELDS]
        if not axis:
            return
        shape = draw(st.sampled_from(axis))
        names = FIELDS[shape["type"]]
        if op == "drop":
            shape.pop(draw(st.sampled_from(("type",) + names)), None)
        elif op == "number":
            shape[draw(st.sampled_from(names))] = draw(st.sampled_from(list(STRANGE_NUMBERS.values())))
        elif op == "reversed":  # lo > hi, xmin > xmax or ymin > ymax
            k = draw(st.sampled_from(range(0, len(names), 2)))
            if isinstance(shape.get(names[k + 1]), float):
                shape[names[k]] = shape[names[k + 1]] + 1.0


def _run_cli(*argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, err.getvalue()


def _assert_cli_outcome(code: int, err: str, allowed: tuple[int, ...]) -> None:
    assert code in allowed + (2,), (code, err)
    if code == 2:
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err
    else:
        assert err == ""


COLORERS = {"intervals": cf.closed_cf_color_intervals, "rects": cf.closed_cf_color_rects}
OPS = ["empty", "mixed", "kind", "drop-top", "drop", "number", "reversed"]


def _check_document(where, doc: dict) -> None:
    """The only outcomes: a certified coloring, a CFGeomError from the library,
    and from the CLI exit 2 with one `error:` line."""
    text = json.dumps(doc)
    try:
        scene = cf.scene_from_json(text)
    except cf.CFGeomError:
        scene = None
    for colorer in COLORERS.values():
        if scene is None:
            break
        try:
            coloring = colorer(scene)
        except cf.CFGeomError:
            continue
        assert neighborhood_violations(cf.intersection_graph(scene), coloring, "closed") == []

    scene_file, coloring_file = where / "scene.json", where / "coloring.json"
    scene_file.write_text(text)
    for alg in COLORERS:
        coloring_file.unlink(missing_ok=True)
        code, err = _run_cli("color", "--alg", alg, "--in", scene_file, "--out", coloring_file)
        _assert_cli_outcome(code, err, (0,))
        if code == 0:
            code, err = _run_cli("verify", "--mode", "closed", "--in", scene_file, "--coloring", coloring_file)
            _assert_cli_outcome(code, err, (0,))
    # a one-color coloring of the document's length: a verdict (0 or 1) or one error line
    shapes = doc.get("shapes")
    coloring_file.write_text(json.dumps({"colors": [1] * (len(shapes) if isinstance(shapes, list) else 1)}))
    code, err = _run_cli("verify", "--mode", "closed", "--in", scene_file, "--coloring", coloring_file)
    _assert_cli_outcome(code, err, (0, 1))


def _document(kind: str, n: int, seed: int) -> dict:
    return json.loads(cf.scene_to_json(cf.generate_scene(kind, n, seed)))


@given(
    st.sampled_from(sorted(COLORERS)),
    st.integers(1, 12),
    st.integers(0, 10**6),
    st.lists(st.sampled_from(OPS), min_size=0, max_size=3),
    st.data(),
)
@settings(max_examples=150, deadline=None)
def test_mutated_axis_scenes_fail_cleanly(tmp_path_factory, kind, n, seed, ops, data):
    doc = _document(kind, n, seed)
    for op in ops:
        _mutate(doc, op, data.draw)
    where = tmp_path_factory.getbasetemp() / "fuzz"
    where.mkdir(exist_ok=True)
    _check_document(where, doc)


@pytest.mark.parametrize("value", sorted(STRANGE_NUMBERS))
@pytest.mark.parametrize("kind", sorted(COLORERS))
def test_every_strange_number_fails_cleanly(tmp_path, kind, value):
    doc = _document(kind, 5, 1)
    shape = doc["shapes"][2]
    shape[FIELDS[shape["type"]][-1]] = STRANGE_NUMBERS[value]
    _check_document(tmp_path, doc)


# fuzzing disc and polygon scene documents
# ---------------------------------------------------------------------------

ODD_NUMBERS = {
    "zero": 0.0,
    "negative": -0.5,
    "NaN": math.nan,
    "inf": math.inf,
    "-inf": -math.inf,
    "integer beyond float": 10**400,
    "huge": 1e300,
    "tiny": 1e-300,
    "number as a string": "1.5",
    "null": None,
}
DISC_FIELDS = ("cx", "cy", "r")
FAT_FIELDS = ("anchor", "r_inner", "r_outer")
PLANAR_OPS = ["empty", "mixed", "kind", "drop-top", "drop", "number", "clockwise", "collinear", "few", "swap"]
# alg -> (library colorer of a scene, neighborhood mode its output is certified for)
PLANAR_COLORERS = {
    "pseudodisc": (cf.pointed_cf_pseudodiscs, "pointed"),
    "fat-pointed": (lambda scene: cf.pointed_cf_color_fat(scene, *_infer_fat_params(scene, None, None)), "pointed"),
    "fat-closed": (lambda scene: cf.closed_cf_color_fat(scene, *_infer_fat_params(scene, None, None)), "closed"),
}


def _planar_document(kind: str, n: int, seed: int) -> dict:
    if kind == "discs":
        scene = cf.generate_scene("discs", n, seed, radius_range=(0.05, 0.3))
    elif kind == "pentagons":
        scene = cf.generate_scene("fat", n, seed, rho=1.5, k=3.0, homothets_of=cf.pentagon_template(), base_size=0.1)
    else:
        scene = cf.generate_scene("fat", n, seed, rho=2.0, k=4.0)
    return json.loads(cf.scene_to_json(scene))


def _mutate_planar(doc: dict, op: str, draw) -> None:
    """Apply the mutation `op` to a disc or polygon scene document, in place."""
    shapes = doc.get("shapes", [])
    if op in ("empty", "mixed", "kind", "drop-top"):
        _mutate(doc, op, draw)
        return
    planar = [s for s in shapes if isinstance(s, dict) and s.get("type") in ("disc", "fat")]
    if not planar:
        return
    shape = draw(st.sampled_from(planar))
    polygon = shape["type"] == "fat" and isinstance(shape.get("vertices"), list)
    if op == "drop":
        shape.pop(draw(st.sampled_from(("type", "vertices") + FAT_FIELDS if polygon else ("type",) + DISC_FIELDS)), None)
    elif op == "number":
        value = draw(st.sampled_from(list(ODD_NUMBERS.values())))
        if not polygon:
            shape[draw(st.sampled_from(DISC_FIELDS))] = value
        else:
            point = draw(st.sampled_from(shape["vertices"] + [shape.get("anchor")]))
            if isinstance(point, list) and draw(st.booleans()):
                point[draw(st.integers(0, 1))] = value
            else:
                shape[draw(st.sampled_from(FAT_FIELDS[1:]))] = value
    elif not polygon:
        return
    elif op == "clockwise":
        shape["vertices"].reverse()
    elif op == "collinear":  # a vertex on an edge, or every vertex on one line
        v = shape["vertices"]
        if len(v) < 2 or not all(isinstance(c, float) for p in v[:2] for c in p):
            return
        if draw(st.booleans()):
            v.insert(1, [(v[0][0] + v[1][0]) / 2, (v[0][1] + v[1][1]) / 2])
        else:
            shape["vertices"] = [[v[0][0] + t, v[0][1] + 2 * t] for t in (0.0, 0.1, 0.2, 0.3)]
    elif op == "few":
        del shape["vertices"][draw(st.integers(0, 2)) :]
    elif op == "swap":  # r_inner > r_outer
        shape["r_inner"], shape["r_outer"] = shape.get("r_outer"), shape.get("r_inner")


def _check_planar_document(where, doc: dict) -> None:
    """The only outcomes: a certified coloring, a CFGeomError from the library,
    and from the CLI exit 2 with one `error:` line."""
    text = json.dumps(doc)
    try:
        scene = cf.scene_from_json(text)
    except cf.CFGeomError:
        scene = None
    for colorer, mode in PLANAR_COLORERS.values():
        if scene is None:
            break
        try:
            coloring = colorer(scene)
        except cf.CFGeomError:
            continue
        assert neighborhood_violations(cf.intersection_graph(scene), coloring, mode) == []

    scene_file, coloring_file = where / "scene.json", where / "coloring.json"
    scene_file.write_text(text)
    for alg, (_, mode) in PLANAR_COLORERS.items():
        coloring_file.unlink(missing_ok=True)
        code, err = _run_cli("color", "--alg", alg, "--in", scene_file, "--out", coloring_file)
        _assert_cli_outcome(code, err, (0,))
        if code == 0:
            code, err = _run_cli("verify", "--mode", mode, "--in", scene_file, "--coloring", coloring_file)
            _assert_cli_outcome(code, err, (0,))
    shapes = doc.get("shapes")
    coloring_file.write_text(json.dumps({"colors": [1] * (len(shapes) if isinstance(shapes, list) else 1)}))
    for mode in ("pointed", "closed"):
        code, err = _run_cli("verify", "--mode", mode, "--in", scene_file, "--coloring", coloring_file)
        _assert_cli_outcome(code, err, (0, 1))


@given(
    st.sampled_from(["discs", "pentagons", "polygons"]),
    st.integers(1, 10),
    st.integers(0, 10**6),
    st.lists(st.sampled_from(PLANAR_OPS), min_size=0, max_size=3),
    st.data(),
)
@settings(max_examples=150, deadline=None)
def test_mutated_disc_and_polygon_scenes_fail_cleanly(tmp_path_factory, kind, n, seed, ops, data):
    doc = _planar_document(kind, n, seed)
    for op in ops:
        _mutate_planar(doc, op, data.draw)
    where = tmp_path_factory.getbasetemp() / "fuzz-planar"
    where.mkdir(exist_ok=True)
    _check_planar_document(where, doc)


@pytest.mark.parametrize("value", sorted(ODD_NUMBERS))
@pytest.mark.parametrize("field", ["cx", "r", "vertex", "r_inner", "r_outer"])
def test_every_odd_disc_or_polygon_number_fails_cleanly(tmp_path, field, value):
    doc = _planar_document("discs" if field in DISC_FIELDS else "polygons", 5, 1)
    shape = doc["shapes"][2]
    if field == "vertex":
        shape["vertices"][1][0] = ODD_NUMBERS[value]
    else:
        shape[field] = ODD_NUMBERS[value]
    _check_planar_document(tmp_path, doc)


def test_fatness_beyond_float_range_fails_cleanly(tmp_path):
    # r_outer / r_inner overflows to inf, so the inferred rho is not finite
    square = {"type": "fat", "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]], "anchor": [0.5, 0.5]}
    doc = {"shapes": [dict(square, r_inner=1e-300, r_outer=1e300), dict(square, r_inner=0.5, r_outer=1.0)]}
    _check_planar_document(tmp_path, doc)
    with pytest.raises(cf.InvalidInputError, match="finite"):
        PLANAR_COLORERS["fat-pointed"][0](cf.scene_from_json(json.dumps(doc)))


# a huge centre over a tiny radius: the anchor, in units of the smallest inner radius, overflows to inf
TINY_DISCS_FAR_APART = {
    "shapes": [{"type": "disc", "cx": 1e300, "cy": 0, "r": 1e-300}, {"type": "disc", "cx": 0, "cy": 0, "r": 1e-300}]
}


@pytest.mark.parametrize("alg", ["fat-pointed", "fat-closed"])
def test_anchor_beyond_float_range_fails_cleanly_in_the_library(alg):
    scene = cf.scene_from_json(json.dumps(TINY_DISCS_FAR_APART))
    with pytest.raises(cf.InvalidInputError, match="too large for the grid"):
        PLANAR_COLORERS[alg][0](scene)


@pytest.mark.parametrize("alg", ["fat-pointed", "fat-closed"])
def test_anchor_beyond_float_range_fails_cleanly_in_the_cli(tmp_path, alg):
    scene_file = tmp_path / "scene.json"
    scene_file.write_text(json.dumps(TINY_DISCS_FAR_APART))
    code, err = _run_cli("color", "--alg", alg, "--in", scene_file, "--out", tmp_path / "coloring.json")
    assert code == 2
    _assert_cli_outcome(code, err, ())


# fuzzing probe-system documents
# ---------------------------------------------------------------------------

PROBE_OPS = PLANAR_OPS + ["drop-side", "mode"]


def _probe_document(kind: str, n: int, m: int, seed: int) -> dict:
    if kind == "discs":
        vertices = cf.generate_scene("discs", n, [seed, 0], radius_range=(0.05, 0.3))
        probes = cf.generate_scene("discs", m, [seed, 1], radius_range=(0.01, 0.3), margin=0)
    else:
        pent = cf.pentagon_template()
        both = cf.generate_scene("fat", n + m, seed, rho=1.5, k=3.0, homothets_of=pent, base_size=0.08)
        vertices, probes = both.subscene(range(n)), both.subscene(range(n, n + m))
    mode = "disc" if kind == "discs" else "pseudodisc"
    return json.loads(cf.probe_system_to_json(cf.ProbeSystem(vertices, probes, mode)))


def _mutate_probe_system(doc: dict, op: str, draw) -> None:
    """Apply the mutation `op` to a probe-system document, in place: to the
    document itself, or to its vertex or probe scene."""
    if op == "drop-side":
        doc.pop(draw(st.sampled_from(["vertices", "probes", "mode"])), None)
    elif op == "mode":
        doc["mode"] = draw(st.sampled_from(["disc", "pseudodisc", "antenna", "", 3, None]))
    else:
        side = doc.get(draw(st.sampled_from(["vertices", "probes"])))
        if isinstance(side, dict):
            _mutate_planar(side, op, draw)


def _check_probe_document(where, doc: dict) -> None:
    """The only outcomes: a coloring certified against the probe hypergraph, a
    CFGeomError from the library, and from the CLI exit 2 with one `error:`
    line."""
    try:
        ps = cf.probe_system_from_json(json.dumps(doc))
        coloring = cf.cf_color_vs_probes(ps)
    except cf.CFGeomError:
        pass
    else:
        assert cf.verify_cf(cf.probe_hypergraph(ps), coloring) == []

    scene_file, probe_file, coloring_file = where / "vertices.json", where / "probes.json", where / "coloring.json"
    scene_file.write_text(json.dumps(doc.get("vertices")))
    probe_file.write_text(json.dumps(doc.get("probes")))
    scene_args, verify = ("--in", scene_file, "--probes", probe_file), ("verify", "--mode", "probes")
    coloring_file.unlink(missing_ok=True)
    code, err = _run_cli("color", "--alg", "antennas", *scene_args, "--out", coloring_file)
    _assert_cli_outcome(code, err, (0,))
    if code == 0:
        code, err = _run_cli(*verify, *scene_args, "--coloring", coloring_file)
        _assert_cli_outcome(code, err, (0,))
    vertices = doc.get("vertices")
    shapes = vertices.get("shapes") if isinstance(vertices, dict) else None
    coloring_file.write_text(json.dumps({"colors": [1] * (len(shapes) if isinstance(shapes, list) else 1)}))
    code, err = _run_cli(*verify, *scene_args, "--coloring", coloring_file)
    _assert_cli_outcome(code, err, (0, 1))


@given(
    st.sampled_from(["discs", "pentagons"]),
    st.integers(1, 8),
    st.integers(0, 16),
    st.integers(0, 10**6),
    st.lists(st.sampled_from(PROBE_OPS), min_size=0, max_size=3),
    st.data(),
)
@settings(max_examples=100, deadline=None)
def test_mutated_probe_systems_fail_cleanly(tmp_path_factory, kind, n, m, seed, ops, data):
    doc = _probe_document(kind, n, m, seed)
    for op in ops:
        _mutate_probe_system(doc, op, data.draw)
    where = tmp_path_factory.getbasetemp() / "fuzz-probes"
    where.mkdir(exist_ok=True)
    _check_probe_document(where, doc)


# generator arguments
# ---------------------------------------------------------------------------

NON_FINITE = {"NaN": math.nan, "inf": math.inf, "-inf": -math.inf, "integer beyond float": 10**400}
GENERATOR_ARGUMENTS = {
    "span": lambda v: cf.generate_scene("discs", 5, 1, span=v),
    "rho": lambda v: cf.generate_scene("fat", 5, 1, rho=v),
    "k": lambda v: cf.generate_scene("fat", 5, 1, k=v),
    "base_size": lambda v: cf.generate_scene("fat", 5, 1, base_size=v),
    "margin": lambda v: cf.generate_scene("discs", 5, 1, margin=v),
    "range bound": lambda v: cf.generate_scene("discs", 5, 1, radius_range=(0.05, v)),
}


@pytest.mark.parametrize("value", sorted(NON_FINITE))
@pytest.mark.parametrize("argument", sorted(GENERATOR_ARGUMENTS))
def test_non_finite_generator_arguments_raise_invalid_input(argument, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning on the way
        with pytest.raises(cf.InvalidInputError, match="not finite"):
            GENERATOR_ARGUMENTS[argument](NON_FINITE[value])


GEN_NUMBERS = ["0", "-1", "0.5", "1", "1.02", "2", "16", "1e300", "1e-300", "nan", "inf", "-inf", "1e400"]


@given(
    st.sampled_from(["discs", "intervals", "rects", "fat", "lower-bound"]),
    st.integers(-2, 12),
    st.integers(0, 10**6),
    st.dictionaries(st.sampled_from(["--span", "--rho", "--k", "--spacing"]), st.sampled_from(GEN_NUMBERS)),
    st.booleans(),
    st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_fuzzed_gen_arguments_fail_cleanly(tmp_path_factory, kind, n, seed, numbers, pentagons, split):
    where = tmp_path_factory.getbasetemp() / "fuzz-gen"
    where.mkdir(exist_ok=True)
    out = where / "scene.json"
    out.unlink(missing_ok=True)
    argv = ["gen", "--kind", kind, "--n", n, "--seed", seed, "--out", out]
    # as separate tokens, argparse reads a value such as -inf as an option: a usage error
    for flag, value in numbers.items():
        argv += [flag, value] if split else [f"{flag}={value}"]
    argv += ["--homothets", "pentagon"] * pentagons
    code, err = _run_cli(*argv)
    _assert_cli_outcome(code, err, (0,))
    if code == 2:
        assert not out.exists()
        return
    scene = cf.load_scene(out)
    assert len(scene) == n and (kind == "lower-bound" or not n or scene.kind == kind)
    if kind == "fat" and n and not pentagons:
        # every polygon carries a certificate within the requested fatness and size ratio
        rho, k = _infer_fat_params(scene, None, None)
        assert rho <= float(numbers.get("--rho", 2.0)) * (1 + 1e-9)
        assert k <= float(numbers.get("--k", 4.0)) * (1 + 1e-9)


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--kind", "fat", "--n", "5", "--k", "-inf", "--out", "x.json"],
        ["gen", "--kind", "fat", "--n", "five", "--out", "x.json"],
        ["color", "--alg", "nope", "--in", "a.json", "--out", "b.json"],
        ["verify", "--in", "a.json"],
        [],
        ["bench", "--alg", "rects", "--n-values", "4"],  # the subcommand was removed
    ],
)
def test_cli_usage_errors_are_one_error_line(argv):
    code, err = _run_cli(*argv)
    assert code == 2
    _assert_cli_outcome(code, err, ())


def test_cli_help_still_prints_usage_and_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: cfgeom gen")
