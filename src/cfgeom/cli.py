"""Command-line surface: generation, coloring, verification, the exact oracle
and SVG export, all deterministic given flags and seeds."""
from __future__ import annotations

import argparse
import json
import sys

from .errors import CFGeomError, ColoringSizeError, InvalidInputError
from .fat import _fatness, closed_cf_color_fat, pointed_cf_color_fat
from .geom import (
    Scene,
    generate_lower_bound_family,
    generate_scene,
    load_scene,
    pentagon_template,
    save_scene,
)
from .hypergraph import (
    intersection_graph,
    load_coloring,
    min_cf_colors_bruteforce,
    neighborhood_hypergraph,
    neighborhood_violations,
    save_coloring,
    verify_cf,
)
from .intervals import closed_cf_color_intervals
from .probes import DISC_MODE, PSEUDODISC_MODE, ProbeSystem, cf_color_vs_probes, pointed_cf_pseudodiscs, probe_hypergraph
from .rects import closed_cf_color_rects
from .svg import render_svg

COLOR_ALGS = ("pseudodisc", "antennas", "intervals", "rects", "fat-pointed", "fat-closed")


def _infer_fat_params(scene: Scene, rho, k) -> tuple[float, float]:
    ratio, spread = _fatness(scene.certificates)
    if rho is None:
        rho = float(ratio.max(initial=1.0))
    if k is None:
        k = spread
    return rho, k


def _cmd_gen(args) -> int:
    if args.kind == "lower-bound":
        scene = generate_lower_bound_family(args.n, args.spacing)
    else:
        kwargs = dict(span=args.span, rho=args.rho, k=args.k)
        if args.homothets == "pentagon":
            kwargs["homothets_of"] = pentagon_template()
        scene = generate_scene(args.kind, args.n, args.seed, **kwargs)
    save_scene(scene, args.out)
    print(f"wrote {args.kind} scene with {len(scene)} shapes to {args.out}")
    return 0


def _mode_for(scene: Scene, probes: Scene) -> str:
    return DISC_MODE if scene.kind == "discs" and probes.kind == "discs" else PSEUDODISC_MODE


def _cmd_color(args) -> int:
    scene = load_scene(args.infile)
    if args.alg == "intervals":
        coloring = closed_cf_color_intervals(scene)
    elif args.alg == "rects":
        coloring = closed_cf_color_rects(scene)
    elif args.alg == "pseudodisc":
        coloring = pointed_cf_pseudodiscs(scene)
    elif args.alg == "antennas":
        if not args.probes:
            raise InvalidInputError("--probes is required for the antennas algorithm")
        probes = load_scene(args.probes)
        coloring = cf_color_vs_probes(ProbeSystem(scene, probes, _mode_for(scene, probes)))
    elif args.alg in ("fat-pointed", "fat-closed"):
        rho, k = _infer_fat_params(scene, args.rho, args.k)
        fn = pointed_cf_color_fat if args.alg == "fat-pointed" else closed_cf_color_fat
        coloring = fn(scene, rho, k)
    else:  # pragma: no cover
        raise SystemExit(f"unknown algorithm {args.alg}")
    save_coloring(coloring, args.out)
    print(f"wrote coloring with {coloring.palette_size} colors to {args.out}")
    return 0


def _load_colored_scene(args):
    scene, coloring = load_scene(args.infile), load_coloring(args.coloring)
    if len(coloring) != len(scene):
        raise ColoringSizeError(f"the coloring has {len(coloring)} colors for a scene of {len(scene)} shapes")
    return scene, coloring


def _cmd_verify(args) -> int:
    scene, coloring = _load_colored_scene(args)
    if args.mode in ("pointed", "closed"):
        bad = neighborhood_violations(scene, coloring, args.mode)  # vertex ids v whose N(v) or N[v] fails
    else:
        if not args.probes:
            raise InvalidInputError("--probes is required for probe verification")
        probes = load_scene(args.probes)
        bad = verify_cf(probe_hypergraph(ProbeSystem(scene, probes, _mode_for(scene, probes))), coloring)
    if bad:
        print(f"NOT conflict-free: {len(bad)} violating hyperedges (first: {bad[:10]})")
        return 1
    print(f"verified: conflict-free for mode={args.mode}, palette_size={coloring.palette_size}")
    return 0


def _cmd_oracle(args) -> int:
    scene = load_scene(args.infile)
    h = neighborhood_hypergraph(intersection_graph(scene), args.mode)
    result = min_cf_colors_bruteforce(h, args.max_colors)
    if result is None:
        print(f"min CF colors exceeds {args.max_colors}")
        return 1
    t, witness = result
    print(f"min CF colors = {t}")
    print(json.dumps({"witness": list(witness.colors)}))
    return 0


def _cmd_svg(args) -> int:
    scene, coloring = _load_colored_scene(args)
    render_svg(scene, coloring, args.out)
    print(f"wrote {args.out}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors raise InvalidInputError, which `main`
    reports as one `error:` line, instead of printing the usage text."""

    def error(self, message):
        raise InvalidInputError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="cfgeom", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a scene")
    g.add_argument("--kind", required=True, choices=["discs", "intervals", "rects", "fat", "lower-bound"])
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--span", type=float, default=1.0)
    g.add_argument("--rho", type=float, default=2.0)
    g.add_argument("--k", type=float, default=4.0)
    g.add_argument("--spacing", type=float, default=0.1, help="center spacing for the lower-bound family")
    g.add_argument("--homothets", choices=["pentagon"], default=None)
    g.add_argument("--out", required=True)
    g.set_defaults(fn=_cmd_gen)

    c = sub.add_parser("color", help="color a scene")
    c.add_argument("--alg", required=True, choices=list(COLOR_ALGS))
    c.add_argument("--in", dest="infile", required=True)
    c.add_argument("--probes", default=None)
    c.add_argument("--rho", type=float, default=None)
    c.add_argument("--k", type=float, default=None)
    c.add_argument("--out", required=True)
    c.set_defaults(fn=_cmd_color)

    v = sub.add_parser("verify", help="verify a coloring (exit code 0 means verified)")
    v.add_argument("--mode", required=True, choices=["pointed", "closed", "probes"])
    v.add_argument("--in", dest="infile", required=True)
    v.add_argument("--coloring", required=True)
    v.add_argument("--probes", default=None)
    v.set_defaults(fn=_cmd_verify)

    o = sub.add_parser("oracle", help="exact minimum CF colors for small scenes")
    o.add_argument("--in", dest="infile", required=True)
    o.add_argument("--mode", required=True, choices=["pointed", "closed"])
    o.add_argument("--max-colors", type=int, default=8)
    o.set_defaults(fn=_cmd_oracle)

    s = sub.add_parser("svg", help="render a colored scene")
    s.add_argument("--in", dest="infile", required=True)
    s.add_argument("--coloring", required=True)
    s.add_argument("--out", required=True)
    s.set_defaults(fn=_cmd_svg)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except (CFGeomError, OSError, UnicodeDecodeError) as exc:  # also an input file that cannot be read
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
