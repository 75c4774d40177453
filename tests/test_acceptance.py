"""Acceptance suite: one test per headline guarantee, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines."""
import math
import time

import numpy as np

from cfgeom import (
    Coloring,
    ProbeSystem,
    Scene,
    all_intervals_hypergraph,
    cf_palette_bound,
    closed_cf_color_fat,
    closed_cf_color_intervals,
    closed_cf_color_rects,
    generate_lower_bound_family,
    generate_scene,
    intersection_graph,
    min_cf_colors_bruteforce,
    neighborhood_hypergraph,
    pentagon_template,
    pointed_cf_color_fat,
    pointed_to_closed,
    proper_to_cf,
    proper_to_cf_list,
    verify_cf,
)
from cfgeom.fat import grid_side
from cfgeom.framework import ProperColorer
from cfgeom.hypergraph import Hypergraph
from cfgeom.probes import (
    DISC_MODE,
    cf_color_vs_probes,
    pointed_cf_pseudodiscs,
    probe_hypergraph,
)


def report(criterion: str, detail: str, failures: list):
    status = "PASS" if not failures else "FAIL"
    print(f"acceptance {criterion}: {status} ({detail})")
    assert not failures, f"{criterion}: {failures[:5]}"


def test_criterion_1_intervals_three_colors():
    failures = []
    t0 = time.perf_counter()
    worst = 0
    for i in range(1000):
        n = (i * 37) % 200 + 1
        scene = generate_scene("intervals", n, [1, i], margin=0)
        try:
            coloring = closed_cf_color_intervals(scene)
        except Exception as exc:  # invariant or verification failure
            failures.append((i, repr(exc)))
            continue
        if coloring.palette_size > 3:
            failures.append((i, "palette", coloring.palette_size))
        worst = max(worst, coloring.palette_size)
        if i % 97 == 0:
            h = neighborhood_hypergraph(intersection_graph(scene), "closed")
            if verify_cf(h, coloring):
                failures.append((i, "external verification"))
    elapsed = time.perf_counter() - t0
    if elapsed >= 5.0:
        failures.append(("runtime", elapsed))
    report("1 (interval 3-coloring)", f"1000 families, max palette {worst}, {elapsed:.2f}s", failures)


def test_criterion_2_rectangles_log_palette():
    failures = []
    t0 = time.perf_counter()
    for i in range(200):
        n = (16, 64, 256, 1024)[i % 4]
        scene = generate_scene("rects", n, [2, i], margin=0)
        try:
            coloring = closed_cf_color_rects(scene)
        except Exception as exc:
            failures.append((i, repr(exc)))
            continue
        bound = 3 * (math.floor(math.log2(n)) + 1)
        if coloring.palette_size > bound:
            failures.append((i, "palette", coloring.palette_size, bound))
        if i % 29 == 0:
            h = neighborhood_hypergraph(intersection_graph(scene), "closed")
            if verify_cf(h, coloring):
                failures.append((i, "external verification"))
    elapsed = time.perf_counter() - t0
    if elapsed >= 30.0:
        failures.append(("runtime", elapsed))
    report("2 (rectangle log palette)", f"200 families up to n=1024, {elapsed:.2f}s", failures)


def _check_pipeline_instance(scene, failures, tag):
    coloring = pointed_cf_pseudodiscs(scene)
    rep = coloring.trace
    h = neighborhood_hypergraph(intersection_graph(scene), "pointed")
    if verify_cf(h, coloring):
        failures.append((tag, "not pointed-CF"))
    b, rest = len(rep.vertices["independent_set"]), len(rep.vertices["rest"])
    bound = cf_palette_bound(b, 6) + cf_palette_bound(rest, 6) + 1
    if coloring.palette_size > bound:
        failures.append((tag, "palette", coloring.palette_size, bound))
    for order in rep.peels["b"] + rep.peels["rest"]:
        if any(d > 5 for d in order.degrees):
            failures.append((tag, "degree"))
        if order.euler_violations():
            failures.append((tag, "euler"))
    return rep


def test_criterion_3_pseudodisc_pipeline():
    failures = []
    t0 = time.perf_counter()
    for i in range(200):
        n = (i * 13) % 300 + 1
        scene = generate_scene("discs", n, [3, i])
        _check_pipeline_instance(scene, failures, ("disc", i))
    pent = pentagon_template()
    pruned_total = 0
    for i in range(50):
        n = 40 + (i * 7) % 121
        scene = generate_scene("fat", n, [4, i], rho=1.5, k=3.0, homothets_of=pent, base_size=0.05)
        rep = _check_pipeline_instance(scene, failures, ("pentagon", i))
        pruned_total += len(rep.vertices["pruned"])
    if pruned_total == 0:
        failures.append(("pentagon", "pruning never engaged"))
    elapsed = time.perf_counter() - t0
    if elapsed >= 300.0:
        failures.append(("runtime", elapsed))
    report(
        "3 (pseudo-disc pipeline)",
        f"200 disc + 50 pentagon families, {pruned_total} shapes pruned, {elapsed:.1f}s",
        failures,
    )


def test_criterion_4_probe_discs_plateau():
    failures = []
    vertices = generate_scene("discs", 100, [5, 0])
    master = generate_scene("discs", 100_000, [5, 1], radius_range=(0.01, 0.3), margin=0)
    sizes = []
    t_large = 0.0
    for m in (100, 1_000, 10_000, 100_000):
        probes = Scene(master.shapes[:m], "discs")
        ps = ProbeSystem(vertices, probes, DISC_MODE)
        t0 = time.perf_counter()
        coloring = cf_color_vs_probes(ps)
        elapsed = time.perf_counter() - t0
        if m == 100_000:
            t_large = elapsed
        if verify_cf(probe_hypergraph(ps), coloring):
            failures.append((m, "not CF"))
        if coloring.palette_size > 27:
            failures.append((m, "palette", coloring.palette_size))
        sizes.append(coloring.palette_size)
    if sizes != sorted(sizes):
        failures.append(("monotonicity", sizes))
    if t_large >= 600.0:
        failures.append(("runtime", t_large))
    report(
        "4 (probe plateau)",
        f"palette sizes {sizes} <= 27, {t_large:.1f}s at 1e5 probes",
        failures,
    )


def test_criterion_5_list_coloring():
    failures = []
    rng = np.random.default_rng(99)
    for i in range(100):
        n = (i * 11) % 64 + 1
        vertices = generate_scene("discs", n, [6, i])
        probes = generate_scene("discs", 150, [6, i, 1], radius_range=(0.01, 0.3), margin=0)
        ps = ProbeSystem(vertices, probes, DISC_MODE)
        h = probe_hypergraph(ps)
        need = cf_palette_bound(n, 6)
        universe = 2 * need
        lists = [sorted(rng.choice(universe, size=need, replace=False) + 1) for _ in range(n)]
        from cfgeom import peel_proper_colorer

        pc = peel_proper_colorer(vertices, probes)
        try:
            coloring = proper_to_cf_list(h, lists, pc)
        except Exception as exc:
            failures.append((i, repr(exc)))
            continue
        for v in range(n):
            if coloring.colors[v] not in lists[v]:
                failures.append((i, "membership", v))
        if verify_cf(h, coloring):
            failures.append((i, "not CF"))
    report("5 (list coloring)", "100 instances, lists of size ceil(1+log1.2 n)", failures)


def test_criterion_6_lower_bound_oracle():
    failures = []
    t8 = 0.0
    for n, expected in ((2, 2), (4, 3), (8, 4)):
        scene = generate_lower_bound_family(n, 0.2)
        assert len(scene) == n
        h = all_intervals_hypergraph(n)
        t0 = time.perf_counter()
        result = min_cf_colors_bruteforce(h, 8)
        elapsed = time.perf_counter() - t0
        if n == 8:
            t8 = elapsed
        if result is None or result[0] != expected:
            failures.append((n, result and result[0], expected))
        elif verify_cf(h, result[1]):
            failures.append((n, "witness not CF"))
    if t8 >= 60.0:
        failures.append(("runtime", t8))
    report("6 (lower-bound oracle)", f"minima 2/3/4 for n=2/4/8, {t8 * 1000:.0f}ms at n=8", failures)


def test_criterion_7_pointed_to_closed():
    failures = []
    converted = 0
    for i in range(470):
        n = 2 + (i * 7) % 119
        scene = generate_scene("discs", n, [7, i])
        g = intersection_graph(scene)
        pointed = pointed_cf_pseudodiscs(scene)
        try:
            closed = pointed_to_closed(g, pointed)
        except Exception as exc:
            failures.append((i, repr(exc)))
            continue
        if closed.palette_size > 2 * pointed.palette_size:
            failures.append((i, "palette"))
        if verify_cf(neighborhood_hypergraph(g, "closed"), closed):
            failures.append((i, "not closed-CF"))
        converted += 1
    pent = pentagon_template()
    for i in range(30):
        n = 20 + (i * 3) % 61
        scene = generate_scene("fat", n, [8, i], rho=1.5, k=3.0, homothets_of=pent, base_size=0.06)
        g = intersection_graph(scene)
        pointed = pointed_cf_pseudodiscs(scene)
        try:
            closed = pointed_to_closed(g, pointed)
        except Exception as exc:
            failures.append((i, repr(exc)))
            continue
        if closed.palette_size > 2 * pointed.palette_size:
            failures.append((i, "palette"))
        if verify_cf(neighborhood_hypergraph(g, "closed"), closed):
            failures.append((i, "not closed-CF"))
        converted += 1
    report("7 (pointed to closed)", f"{converted} pipeline colorings converted", failures)


def _packing_failures(scene, coloring, t, graph):
    """At most one level-1 cell representative of any cell color may touch an object."""
    out = []
    for v in range(len(scene)):
        counts = {}
        for u in graph.indices[graph.indptr[v] : graph.indptr[v + 1]].tolist():
            i, lvl = coloring.palette_map[coloring.colors[u]]
            if lvl == 1 and i <= t:
                counts[i] = counts.get(i, 0) + 1
        if any(c > 1 for c in counts.values()):
            out.append(("packing", v))
            break
    return out


def test_criterion_8_fat_objects():
    failures = []
    combos = [(rho, k) for rho in (1.0, 2.0) for k in (1.0, 4.0, 16.0)]
    count = 0
    for i in range(100):
        rho, k = combos[i % len(combos)]
        n = 20 + (i * 9) % 181
        if rho == 1.0:
            base = 0.04
            scene = generate_scene("discs", n, [9, i], radius_range=(base, base * k), margin=1e-9)
        else:
            scene = generate_scene("fat", n, [9, i], rho=rho, k=k, base_size=0.03)
        g = intersection_graph(scene)
        pointed = pointed_cf_color_fat(scene, rho, k)
        t = grid_side(rho, k) ** 2
        if pointed.palette_size > 2 * t + 1:
            failures.append((i, "pointed palette"))
        if verify_cf(neighborhood_hypergraph(g, "pointed"), pointed):
            failures.append((i, "pointed not CF"))
        failures.extend((i,) + f for f in _packing_failures(scene, pointed, t, g))
        closed = closed_cf_color_fat(scene, rho, k)
        closed_bound = (math.floor(math.log2(k)) + 1) * 2 * (2 * grid_side(rho, 2.0) ** 2 + 1)
        if closed.palette_size > closed_bound:
            failures.append((i, "closed palette"))
        if verify_cf(neighborhood_hypergraph(g, "closed"), closed):
            failures.append((i, "closed not CF"))
        count += 1
    report("8 (fat objects)", f"{count} families over rho in {{1,2}}, k in {{1,4,16}}", failures)


def test_criterion_9_framework_vs_oracle():
    failures = []
    rng = np.random.default_rng(2024)

    def alternating(sub: Hypergraph) -> Coloring:
        return Coloring(tuple(1 + (j % 2) for j in range(sub.n)))

    pc = ProperColorer(alternating, 2, "alternate")
    for i in range(200):
        n = int(rng.integers(2, 11))
        full = all_intervals_hypergraph(n)
        take = rng.random(len(full.edges)) < 0.6
        edges = tuple(e for e, keep in zip(full.edges, take) if keep) or (full.edges[0],)
        h = Hypergraph(n, edges)
        coloring = proper_to_cf(h, pc)
        if verify_cf(h, coloring):
            failures.append((i, "not CF"))
        opt = min_cf_colors_bruteforce(h, n)
        if opt is None:
            failures.append((i, "oracle exceeded"))
            continue
        if coloring.palette_size < opt[0]:
            failures.append((i, "beat the optimum", coloring.palette_size, opt[0]))
        if coloring.palette_size > cf_palette_bound(n, 2):
            failures.append((i, "above bound", coloring.palette_size))
    report("9 (framework vs oracle)", "200 random sub-hypergraphs, n <= 10", failures)
