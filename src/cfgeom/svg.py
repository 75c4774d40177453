"""Deterministic SVG rendering of scenes and their colorings."""
from __future__ import annotations

import colorsys

from .errors import InvalidInputError
from .geom import AARect, ConvexFatObject, Disc, Interval, Scene
from .hypergraph import Coloring

__all__ = ["render_svg"]

_BAR_HEIGHT = 0.8
_BAR_PITCH = 1.2


def _palette_fills(colors: tuple[int, ...]) -> dict[int, str]:
    """Stable color-id -> fill map: hues evenly spaced over the sorted ids."""
    ids = sorted(set(colors))
    fills = {}
    for rank, cid in enumerate(ids):
        h = rank / max(1, len(ids))
        r, g, b = colorsys.hls_to_rgb(h, 0.55, 0.65)
        fills[cid] = f"#{int(r * 255):02x}{int(g * 255):02x}{int(b * 255):02x}"
    return fills


def _f(v: float) -> str:
    return repr(float(v))


def render_svg(scene: Scene, coloring: Coloring, out=None) -> str:
    """One SVG element per shape, filled by a deterministic palette map, with a
    legend; identical inputs produce byte-identical documents."""
    if len(coloring.colors) != len(scene):
        raise InvalidInputError("coloring does not match the scene")
    fills = _palette_fills(coloring.colors)
    body: list[str] = []
    xs: list[float] = []
    ys: list[float] = []
    for idx, shape in enumerate(scene.shapes):
        fill = fills[coloring.colors[idx]]
        style = f'fill="{fill}" fill-opacity="0.55" stroke="#333333" stroke-width="0.5%"'
        if isinstance(shape, Disc):
            body.append(
                f'<circle cx="{_f(shape.center.x)}" cy="{_f(shape.center.y)}" r="{_f(max(shape.radius, 1e-9))}" {style}/>'
            )
            xs += [shape.center.x - shape.radius, shape.center.x + shape.radius]
            ys += [shape.center.y - shape.radius, shape.center.y + shape.radius]
        elif isinstance(shape, AARect):
            body.append(
                f'<rect x="{_f(shape.xmin)}" y="{_f(shape.ymin)}" width="{_f(shape.xmax - shape.xmin)}"'
                f' height="{_f(shape.ymax - shape.ymin)}" {style}/>'
            )
            xs += [shape.xmin, shape.xmax]
            ys += [shape.ymin, shape.ymax]
        elif isinstance(shape, Interval):
            y = idx * _BAR_PITCH
            body.append(
                f'<rect x="{_f(shape.lo)}" y="{_f(y)}" width="{_f(max(shape.hi - shape.lo, 1e-9))}"'
                f' height="{_f(_BAR_HEIGHT)}" {style}/>'
            )
            xs += [shape.lo, shape.hi]
            ys += [y, y + _BAR_HEIGHT]
        elif isinstance(shape, ConvexFatObject):
            pts = " ".join(f"{_f(p.x)},{_f(p.y)}" for p in shape.vertices)
            body.append(f'<polygon points="{pts}" {style}/>')
            xs += [p.x for p in shape.vertices]
            ys += [p.y for p in shape.vertices]
        else:  # pragma: no cover
            raise TypeError(f"cannot render {type(shape).__name__}")
    if xs:
        margin = 0.05 * max(max(xs) - min(xs), max(ys) - min(ys), 1e-9)
        x0, y0 = min(xs) - margin, min(ys) - margin
        w = (max(xs) - min(xs)) + 2 * margin
        h = (max(ys) - min(ys)) + 2 * margin
    else:
        x0, y0, w, h = 0.0, 0.0, 100.0, 100.0
    legend: list[str] = []
    swatch = 0.04 * w
    for rank, cid in enumerate(sorted(fills)):
        lx = x0 + 0.02 * w + rank * 1.5 * swatch
        ly = y0 + h + 0.5 * swatch
        legend.append(f'<rect x="{_f(lx)}" y="{_f(ly)}" width="{_f(swatch)}" height="{_f(swatch)}" fill="{fills[cid]}"/>')
        legend.append(
            f'<text x="{_f(lx)}" y="{_f(ly + 1.9 * swatch)}" font-size="{_f(0.8 * swatch)}">{cid}</text>'
        )
    total_h = h + (2.6 * swatch if fills else 0.0)
    doc = (
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{_f(x0)} {_f(y0)} {_f(w)} {_f(total_h)}">\n'
        + "\n".join(body + legend)
        + ("\n" if body or legend else "")
        + "</svg>\n"
    )
    if out is not None:
        with open(out, "w") as f:
            f.write(doc)
    return doc
