import json

from cfgeom.cli import main


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


def test_bench_cli(tmp_path, capsys):
    assert run(["bench", "--alg", "intervals", "--n-values", "10,20", "--reps", "2", "--seed", "1"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "n,rep,palette_size,bound,runtime_ms,verified"
    assert len(out) == 5
    rows = [line.split(",") for line in out[1:]]
    assert [r[0] for r in rows] == ["10", "10", "20", "20"]
    assert all(int(r[2]) <= 3 for r in rows)
    assert all(r[5] == "true" for r in rows)


def test_pentagon_gen_cli(tmp_path):
    scene = tmp_path / "pent.json"
    coloring = tmp_path / "pent-col.json"
    assert (
        run(["gen", "--kind", "fat", "--n", "20", "--seed", "7", "--homothets", "pentagon", "--rho", "1.5", "--out", scene])
        == 0
    )
    assert run(["color", "--alg", "pseudodisc", "--in", scene, "--out", coloring]) == 0
    assert run(["verify", "--mode", "pointed", "--in", scene, "--coloring", coloring]) == 0
