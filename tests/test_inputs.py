"""Bad input ends in a CFGeomError, never a bare exception or a traceback."""
import contextlib
import copy
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cfgeom as cf
from cfgeom.cli import main
from cfgeom.hypergraph import neighborhood_violations
from cfgeom.svg import render_svg


def _path():
    return cf.Graph(3, [(0, 1), (1, 2)])


def _triangle():
    return cf.Hypergraph(3, [[0, 1], [1, 2], [0, 2]])


def _ones(h):
    return cf.Coloring((1,) * h.n)


BAD_CALLS = {
    "coloring not total": lambda: cf.verify_cf(_triangle(), [1, 2]),
    "graph edge not a pair": lambda: cf.Graph(3, [(0, 1, 2)]),
    "graph edge out of order": lambda: cf.Graph(3, [(1, 0)]),
    "unknown neighborhood mode": lambda: cf.neighborhood_hypergraph(_path(), "open"),
    "subgraph keep not increasing": lambda: _path().subgraph([2, 1]),
    "hyperedge out of range": lambda: cf.Hypergraph(2, [[0, 5]]),
    "edge labels mismatch": lambda: cf.Hypergraph(2, [[0, 1]], edge_labels=("a", "b")),
    "vertex labels mismatch": lambda: cf.Hypergraph(2, [[0, 1]], vertex_labels=("a",)),
    "induced out of range": lambda: cf.induced(_triangle(), [5]),
    "induced duplicates": lambda: cf.induced(_triangle(), [0, 0]),
    "independent set order": lambda: cf.greedy_maximal_independent_set(_path(), [0, 1]),
    "oracle too large": lambda: cf.min_cf_colors_bruteforce(cf.Hypergraph(17, []), 3),
    "one list per vertex": lambda: cf.proper_to_cf_list(_triangle(), [[1, 2]], cf.ProperColorer(_ones, 2)),
    "lists too short": lambda: cf.proper_to_cf_list(_triangle(), [[1]] * 3, cf.ProperColorer(_ones, 2)),
    "conversion not total": lambda: cf.pointed_to_closed(_path(), cf.Coloring((1, 2))),
    "conversion color ids": lambda: cf.pointed_to_closed(_path(), cf.Coloring((0, 1, 0))),
    "svg coloring length": lambda: render_svg(cf.generate_scene("discs", 3, 1), cf.Coloring((1,))),
}


@pytest.mark.parametrize("name", sorted(BAD_CALLS))
def test_bad_caller_input_raises_invalid_input(name):
    # InvalidInputError is a CFGeomError and still a ValueError
    with pytest.raises(cf.InvalidInputError) as info:
        BAD_CALLS[name]()
    assert isinstance(info.value, cf.CFGeomError) and isinstance(info.value, ValueError)


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
