import pytest

from cfgeom import Coloring, Interval, Scene, closed_cf_color_intervals, render_svg


def test_empty_scene_valid_svg():
    doc = render_svg(Scene((), "discs"), Coloring(()))
    assert doc.startswith("<svg") and doc.rstrip().endswith("</svg>")


def test_three_interval_bars_two_fills():
    scene = Scene((Interval(0, 2), Interval(1, 4), Interval(3, 6)))
    coloring = closed_cf_color_intervals(scene)
    doc = render_svg(scene, coloring)
    bars = [line for line in doc.splitlines() if line.startswith("<rect") and "fill-opacity" in line]
    assert len(bars) == 3
    fills = {line.split('fill="')[1].split('"')[0] for line in bars}
    assert len(fills) == 2


def test_byte_identical_and_mismatch():
    scene = Scene((Interval(0, 2), Interval(1, 4)))
    coloring = Coloring((1, 2))
    assert render_svg(scene, coloring) == render_svg(scene, coloring)
    with pytest.raises(ValueError):
        render_svg(scene, Coloring((1,)))
