import json

import pytest

from cfgeom import Disc, Point, Scene, intersection_graph, load_scene, neighborhood_hypergraph, save_scene, verify_cf
from cfgeom.cli import main
from cfgeom.hypergraph import load_coloring


def run(argv):
    return main([str(a) for a in argv])


def test_gen_color_verify_svg_roundtrip(tmp_path, capsys):
    scene = tmp_path / "scene.json"
    coloring = tmp_path / "coloring.json"
    picture = tmp_path / "out.svg"
    assert run(["gen", "--kind", "discs", "--n", "40", "--seed", "3", "--out", scene]) == 0
    assert run(["color", "--alg", "pseudodisc", "--in", scene, "--out", coloring]) == 0
    assert run(["verify", "--mode", "pointed", "--in", scene, "--coloring", coloring]) == 0
    assert run(["svg", "--in", scene, "--coloring", coloring, "--out", picture]) == 0
    first = picture.read_bytes()
    assert run(["svg", "--in", scene, "--coloring", coloring, "--out", picture]) == 0
    assert picture.read_bytes() == first
    assert b"<svg" in first and first.count(b"<circle") == 40


def test_generator_failure_is_one_error_line(tmp_path, capsys):
    # no convex polygon of 14-19 vertices has fatness <= 1.05 in the sampler's range
    assert run(["gen", "--kind", "fat", "--n", "5", "--rho", "1.05", "--out", tmp_path / "x.json"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: could not sample a convex polygon")
    assert not (tmp_path / "x.json").exists()


def test_coloring_of_the_wrong_length_is_one_error_line(tmp_path, capsys):
    scene = tmp_path / "scene.json"
    coloring = tmp_path / "coloring.json"
    assert run(["gen", "--kind", "discs", "--n", "5", "--seed", "1", "--out", scene]) == 0
    coloring.write_text(json.dumps({"colors": [1, 2, 3]}))
    capsys.readouterr()
    for argv in (
        ["verify", "--mode", "pointed", "--in", scene, "--coloring", coloring],
        ["svg", "--in", scene, "--coloring", coloring, "--out", tmp_path / "out.svg"],
    ):
        assert run(argv) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: the coloring has 3 colors for a scene of 5 shapes"]
    assert not (tmp_path / "out.svg").exists()


def test_verify_rejects_bad_coloring(tmp_path):
    scene = tmp_path / "scene.json"
    coloring = tmp_path / "coloring.json"
    assert run(["gen", "--kind", "discs", "--n", "12", "--seed", "1", "--out", scene]) == 0
    coloring.write_text(json.dumps({"colors": [1] * 12, "palette_size": 1}))
    assert run(["verify", "--mode", "closed", "--in", scene, "--coloring", coloring]) in (0, 1)
    dense = tmp_path / "dense.json"
    assert run(["gen", "--kind", "discs", "--n", "12", "--seed", "1", "--span", "0.2", "--out", dense]) == 0
    coloring.write_text(json.dumps({"colors": [1] * 12, "palette_size": 1}))
    assert run(["verify", "--mode", "pointed", "--in", dense, "--coloring", coloring]) == 1


def test_intervals_and_rects_cli(tmp_path):
    for kind, alg in (("intervals", "intervals"), ("rects", "rects")):
        scene = tmp_path / f"{kind}.json"
        coloring = tmp_path / f"{kind}-col.json"
        assert run(["gen", "--kind", kind, "--n", "30", "--seed", "2", "--out", scene]) == 0
        assert run(["color", "--alg", alg, "--in", scene, "--out", coloring]) == 0
        assert run(["verify", "--mode", "closed", "--in", scene, "--coloring", coloring]) == 0


def test_verify_closed_intervals_and_rects(tmp_path, capsys):
    # checked from the scene, with the message the neighborhood hypergraph gives
    for kind in ("intervals", "rects"):
        scene = tmp_path / f"{kind}.json"
        coloring = tmp_path / f"{kind}-col.json"
        assert run(["gen", "--kind", kind, "--n", "40", "--seed", "3", "--span", "0.5", "--out", scene]) == 0
        assert run(["color", "--alg", kind, "--in", scene, "--out", coloring]) == 0
        capsys.readouterr()
        assert run(["verify", "--mode", "closed", "--in", scene, "--coloring", coloring]) == 0
        palette = json.loads(coloring.read_text())["palette_size"]
        assert capsys.readouterr().out == f"verified: conflict-free for mode=closed, palette_size={palette}\n"
        coloring.write_text(json.dumps({"colors": [1] * 40}))
        h = neighborhood_hypergraph(intersection_graph(load_scene(scene)), "closed")
        bad = verify_cf(h, load_coloring(coloring))
        assert bad
        assert run(["verify", "--mode", "closed", "--in", scene, "--coloring", coloring]) == 1
        assert capsys.readouterr().out == f"NOT conflict-free: {len(bad)} violating hyperedges (first: {bad[:10]})\n"


def test_verify_pointed_reports_vertex_ids(tmp_path, capsys):
    # disc 0 meets nothing, so N(0) is empty; only N(2) = {1, 3} is one color
    scene, coloring = tmp_path / "scene.json", tmp_path / "coloring.json"
    discs = [(-10, 0, 0.5), (0, 0, 1), (1.5, 0, 1), (3, 0, 1)]
    save_scene(Scene(tuple(Disc(Point(x, y), r) for x, y, r in discs)), scene)
    coloring.write_text(json.dumps({"colors": [1, 1, 2, 1]}))
    capsys.readouterr()
    assert run(["verify", "--mode", "pointed", "--in", scene, "--coloring", coloring]) == 1
    assert capsys.readouterr().out == "NOT conflict-free: 1 violating hyperedges (first: [2])\n"


def test_intervals_and_rects_reject_wrong_kind_and_empty_family(tmp_path, capsys):
    discs = tmp_path / "discs.json"
    assert run(["gen", "--kind", "discs", "--n", "6", "--seed", "1", "--out", discs]) == 0
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"kind": "intervals", "shapes": []}))
    expected = {
        ("intervals", discs): "error: scene must contain intervals only",
        ("rects", discs): "error: scene must contain rectangles only",
        ("intervals", empty): "error: empty interval family",
        ("rects", empty): "error: empty rectangle family",
    }
    capsys.readouterr()
    for (alg, scene), line in expected.items():
        assert run(["color", "--alg", alg, "--in", scene, "--out", tmp_path / "col.json"]) == 2
        assert capsys.readouterr().err.strip().splitlines() == [line]
    assert not (tmp_path / "col.json").exists()


DISC = {"type": "disc", "cx": 0.0, "cy": 0.0, "r": 1.0}
CLOCKWISE = {"type": "fat", "vertices": [[0, 0], [0, 2], [2, 2], [2, 0]], "anchor": [1, 1], "r_inner": 0.5, "r_outer": 2}
PIPELINE = ["--alg", "pseudodisc"]
MALFORMED = {
    "negative radius": (json.dumps({"shapes": [dict(DISC, r=-1.0)]}), PIPELINE),
    "NaN as a string": (json.dumps({"shapes": [dict(DISC, cx="NaN")]}), PIPELINE),
    "missing field": (json.dumps({"shapes": [{"type": "disc", "cx": 0.0}]}), PIPELINE),
    "truncated JSON": (json.dumps({"shapes": [DISC, DISC]})[:30], PIPELINE),
    "unknown shape type": (json.dumps({"shapes": [{"type": "triangle"}]}), PIPELINE),
    "clockwise polygon": (json.dumps({"shapes": [CLOCKWISE]}), PIPELINE),
    "fatness below 1": (json.dumps({"shapes": [DISC]}), ["--alg", "fat-closed", "--rho", "0.5"]),
    "zero radius with inferred k": (json.dumps({"shapes": [dict(DISC, r=0.0)]}), ["--alg", "fat-pointed"]),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_scene_is_one_error_line(tmp_path, capsys, name):
    text, argv = MALFORMED[name]
    scene = tmp_path / "scene.json"
    scene.write_text(text)
    assert run(["color", *argv, "--in", scene, "--out", tmp_path / "c.json"]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and err.startswith("error: ") and "Traceback" not in err
    assert not (tmp_path / "c.json").exists()


def test_unreadable_file_or_bad_argument_is_one_error_line(tmp_path, capsys):
    scene, coloring = tmp_path / "scene.json", tmp_path / "coloring.json"
    assert run(["gen", "--kind", "discs", "--n", "5", "--seed", "1", "--out", scene]) == 0
    assert run(["color", "--alg", "pseudodisc", "--in", scene, "--out", coloring]) == 0
    missing, binary, out = tmp_path / "missing.json", tmp_path / "binary.json", tmp_path / "out.json"
    binary.write_bytes(b"\xff\xfe\x00")
    capsys.readouterr()
    for argv in (
        ["color", "--alg", "pseudodisc", "--in", missing, "--out", out],
        ["color", "--alg", "pseudodisc", "--in", tmp_path, "--out", out],
        ["color", "--alg", "antennas", "--in", scene, "--probes", missing, "--out", out],
        ["color", "--alg", "antennas", "--in", scene, "--out", out],
        ["verify", "--mode", "pointed", "--in", scene, "--coloring", missing],
        ["verify", "--mode", "probes", "--in", scene, "--coloring", coloring, "--probes", binary],
        ["verify", "--mode", "probes", "--in", scene, "--coloring", coloring],
        ["oracle", "--in", missing, "--mode", "pointed"],
        ["svg", "--in", scene, "--coloring", binary, "--out", out],
        ["gen", "--kind", "discs", "--n", "-1", "--out", out],
        ["gen", "--kind", "lower-bound", "--n", "5", "--spacing", "3", "--out", out],
    ):
        assert run(argv) == 2, argv
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and err.startswith("error: ") and "Traceback" not in err, argv
    assert not out.exists()


def test_fat_cli(tmp_path):
    scene = tmp_path / "fat.json"
    coloring = tmp_path / "fat-col.json"
    assert run(["gen", "--kind", "fat", "--n", "25", "--seed", "4", "--rho", "2", "--k", "4", "--out", scene]) == 0
    assert run(["color", "--alg", "fat-pointed", "--in", scene, "--out", coloring]) == 0
    assert run(["verify", "--mode", "pointed", "--in", scene, "--coloring", coloring]) == 0
    assert run(["color", "--alg", "fat-closed", "--in", scene, "--rho", "2", "--k", "4", "--out", coloring]) == 0
    assert run(["verify", "--mode", "closed", "--in", scene, "--coloring", coloring]) == 0


def test_antennas_cli(tmp_path):
    scene = tmp_path / "v.json"
    probes = tmp_path / "p.json"
    coloring = tmp_path / "c.json"
    assert run(["gen", "--kind", "discs", "--n", "30", "--seed", "5", "--out", scene]) == 0
    assert run(["gen", "--kind", "discs", "--n", "200", "--seed", "6", "--out", probes]) == 0
    assert run(["color", "--alg", "antennas", "--in", scene, "--probes", probes, "--out", coloring]) == 0
    assert run(["verify", "--mode", "probes", "--in", scene, "--coloring", coloring, "--probes", probes]) == 0


def test_oracle_cli(tmp_path, capsys):
    scene = tmp_path / "lb.json"
    assert run(["gen", "--kind", "lower-bound", "--n", "4", "--spacing", "0.4", "--out", scene]) == 0
    assert run(["oracle", "--in", scene, "--mode", "pointed", "--max-colors", "6"]) == 0
    out = capsys.readouterr().out
    assert "min CF colors = " in out


def test_pentagon_gen_cli(tmp_path):
    scene = tmp_path / "pent.json"
    coloring = tmp_path / "pent-col.json"
    assert (
        run(["gen", "--kind", "fat", "--n", "20", "--seed", "7", "--homothets", "pentagon", "--rho", "1.5", "--out", scene])
        == 0
    )
    assert run(["color", "--alg", "pseudodisc", "--in", scene, "--out", coloring]) == 0
    assert run(["verify", "--mode", "pointed", "--in", scene, "--coloring", coloring]) == 0


@pytest.mark.parametrize("flag", ["--span", "--rho", "--k"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_gen_argument_is_one_error_line(tmp_path, capsys, flag, value):
    out = tmp_path / "scene.json"
    assert run(["gen", "--kind", "fat", "--n", "5", f"{flag}={value}", "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.strip().splitlines() == [f"error: {flag[2:]} {float(value)!r} is not finite"]
    assert not out.exists()
