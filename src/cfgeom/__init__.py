"""Conflict-free coloring of intersection graphs of geometric objects.

A coloring is conflict-free for a hypergraph when every hyperedge contains a
vertex whose color appears exactly once in it.  This package colors
intersection graphs of discs, pseudo-discs, intervals, axis-parallel
rectangles, and fat convex objects with logarithmically many colors (constant
for intervals and fat families), certifying every output exactly.
"""

from .errors import (
    CFGeomError,
    ColorerContractError,
    ColoringSizeError,
    DegenerateGeometryError,
    GenerationError,
    IncompatibleShapesError,
    ListExhaustedError,
    PlanarityError,
    VerificationError,
)
from .fat import closed_cf_color_fat, pointed_cf_color_fat
from .framework import ProperColorer, cf_palette_bound, pointed_to_closed, proper_to_cf, proper_to_cf_list
from .geom import (
    AARect,
    ConvexFatObject,
    Disc,
    Interval,
    Point,
    Scene,
    Shape,
    boundary_crossings,
    generate_lower_bound_family,
    generate_scene,
    intersects,
    load_scene,
    pentagon_template,
    save_scene,
    scene_from_json,
    scene_to_json,
    validate_pseudodisc_family,
)
from .hypergraph import (
    Coloring,
    Graph,
    Hypergraph,
    all_intervals_hypergraph,
    coloring_from_json,
    coloring_to_json,
    greedy_maximal_independent_set,
    induced,
    intersection_graph,
    min_cf_colors_bruteforce,
    neighborhood_hypergraph,
    verify_cf,
    verify_proper,
)
from .intervals import closed_cf_color_intervals
from .probes import (
    PeelOrder,
    ProbeSystem,
    auxiliary_graph,
    cf_color_vs_probes,
    peel_and_color,
    peel_proper_colorer,
    pointed_cf_pseudodiscs,
    probe_hypergraph,
    probe_system_from_json,
    probe_system_to_json,
    prune_depth_one,
)
from .rects import closed_cf_color_rects
from .svg import render_svg

__version__ = "0.1.0"
