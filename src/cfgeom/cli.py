"""Command-line surface: generation, coloring, verification, the exact oracle,
benchmarking, and SVG export, all deterministic given flags and seeds."""
from __future__ import annotations

import argparse
import json
import sys

from .bench import BENCH_ALGS, bench_colors, rows_to_csv
from .errors import CFGeomError, ColoringSizeError
from .fat import closed_cf_color_fat, pointed_cf_color_fat
from .geom import (
    ConvexFatObject,
    Disc,
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
    save_coloring,
    verify_cf,
)
from .intervals import closed_cf_color_intervals
from .probes import DISC_MODE, PSEUDODISC_MODE, ProbeSystem, cf_color_vs_probes, pointed_cf_pseudodiscs, probe_hypergraph
from .rects import closed_cf_color_rects
from .svg import render_svg

COLOR_ALGS = ("pseudodisc", "antennas", "intervals", "rects", "fat-pointed", "fat-closed")


def _infer_fat_params(scene: Scene, rho, k) -> tuple[float, float]:
    sizes = []
    ratios = []
    for s in scene.shapes:
        if isinstance(s, Disc):
            sizes.append(s.radius)
            ratios.append(1.0)
        elif isinstance(s, ConvexFatObject):
            sizes.append(s.r_inner)
            ratios.append(s.rho)
    if rho is None:
        rho = max(ratios) if ratios else 1.0
    if k is None:
        k = (max(sizes) / min(sizes)) if sizes else 1.0
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
        coloring, _ = closed_cf_color_intervals(scene)
    elif args.alg == "rects":
        coloring = closed_cf_color_rects(scene)
    elif args.alg == "pseudodisc":
        coloring = pointed_cf_pseudodiscs(scene)
    elif args.alg == "antennas":
        if not args.probes:
            raise SystemExit("--probes is required for the antennas algorithm")
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
        h = neighborhood_hypergraph(intersection_graph(scene), args.mode)
    else:
        if not args.probes:
            raise SystemExit("--probes is required for probe verification")
        probes = load_scene(args.probes)
        h = probe_hypergraph(ProbeSystem(scene, probes, _mode_for(scene, probes)))
    bad = verify_cf(h, coloring)
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


def _cmd_bench(args) -> int:
    n_values = [int(x) for x in args.n_values.split(",") if x]
    rows = bench_colors(
        args.alg,
        n_values,
        args.reps,
        args.seed,
        probes_count=args.probes_count,
        rho=args.rho,
        k=args.k,
    )
    sys.stdout.write(rows_to_csv(rows))
    return 0


def _cmd_svg(args) -> int:
    scene, coloring = _load_colored_scene(args)
    render_svg(scene, coloring, args.out)
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="cfgeom", description=__doc__)
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

    b = sub.add_parser("bench", help="verified palette-size benchmark (CSV on stdout)")
    b.add_argument("--alg", required=True, choices=list(BENCH_ALGS))
    b.add_argument("--n-values", required=True, help="comma-separated instance sizes")
    b.add_argument("--reps", type=int, default=1)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--probes-count", type=int, default=None)
    b.add_argument("--rho", type=float, default=2.0)
    b.add_argument("--k", type=float, default=4.0)
    b.set_defaults(fn=_cmd_bench)

    s = sub.add_parser("svg", help="render a colored scene")
    s.add_argument("--in", dest="infile", required=True)
    s.add_argument("--coloring", required=True)
    s.add_argument("--out", required=True)
    s.set_defaults(fn=_cmd_svg)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CFGeomError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
