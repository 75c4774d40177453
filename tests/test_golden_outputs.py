"""Golden outputs: SHA-256 digests of every coloring, palette map and trace.

The families mirror the four benchmark workloads (`disc-dense`,
`disc-sparse`, `polygons`, `axis`) at seeds 1 and 7919: the same
generator calls, sizes and task list, rebuilt here with `generate_scene`.
Each digest covers, in task order, every Coloring the task returns: its
colors, its palette map and its whole trace (palette bound, every vertex
list and label such as `node`, `depth`, `chain` and `bucket`, and every
PeelOrder).  A change meant to keep outputs identical must pass this file
unchanged; a change that alters an output fails here by workload and seed.
"""
import hashlib
import json
import math
from dataclasses import asdict

import numpy as np
import pytest

import cfgeom as cf

GOLDEN = {
    ("disc-dense", 1): "a21e202df03626d82d63c055221edb8584bff7955e24e577c761dfb7d928be0e",
    ("disc-dense", 7919): "e763921c2a9db88840480b80ffc3a7f33f6c5d327bd87d0d5c40f25b75e956a0",
    ("disc-sparse", 1): "08405ed96ad11d33c6a3940d7fab3380d2426ada815ae7b08e17a2ca98ae7338",
    ("disc-sparse", 7919): "6ea77ce7c0c3b639714b6a4f2245b5f8270beafa61caccf52724a7a03b741c2d",
    ("polygons", 1): "b38518bab8d64f1de3d34e13bf57e4088ac4f524bb5b8cc3b5cd06d5c26e5aed",
    ("polygons", 7919): "b8b8b958b947922305fb96df7a23ca533ad2f2c81a0a83df5b22700164bb8ea1",
    ("axis", 1): "cc5387e8128ad7290cd54e526dd704ac0ed36519acc9debae190c8b27c400db1",
    ("axis", 7919): "330e1b2f058f4b7f2505e8c36d58f8d049a6a9ade7e8d3062d395b71a9a576cb",
}


def _spread(lo: int, hi: int, count: int) -> list[int]:
    return [lo + round((hi - lo) * i / (count - 1)) for i in range(count)]


def _sparse_span(n: int) -> float:
    """Square side giving mean degree about 10 for n discs of radii in [0.05, 0.2]."""
    mean, var = 0.125, 0.15**2 / 12
    return math.sqrt(n * math.pi * (4 * mean * mean + 2 * var) / 10.0)


def _lists(n: int, seed) -> list[list[int]]:
    need = cf.cf_palette_bound(n, 6)
    rng = np.random.default_rng(seed)
    return [sorted(int(c) + 1 for c in rng.choice(2 * need, size=need, replace=False)) for _ in range(n)]


def _pseudo_closed(scene):
    pointed = cf.pointed_cf_pseudodiscs(scene)
    return pointed, cf.pointed_to_closed(cf.intersection_graph(scene), pointed)


def _tasks(workload: str, seed: int):
    """(name, call) per task of the workload, in the benchmark's order."""
    gen = cf.generate_scene
    if workload == "disc-dense":
        for i, n in enumerate(_spread(40, 640, 30)):
            scene = gen("discs", n, [seed, 11, i])
            yield "pseudo_closed", lambda scene=scene: _pseudo_closed(scene)
        for i, n in enumerate(_spread(50, 160, 20)):
            s = [seed, 12, i]
            ps = cf.ProbeSystem(gen("discs", n, s), gen("discs", 10 * n, s + [1], radius_range=(0.01, 0.3), margin=0))
            yield "probes", lambda ps=ps: cf.cf_color_vs_probes(ps)
        for i, n in enumerate(_spread(10, 64, 12)):
            s = [seed, 13, i]
            scene, probes = gen("discs", n, s), gen("discs", 150, s + [1], radius_range=(0.01, 0.3), margin=0)
            h = cf.probe_hypergraph(cf.ProbeSystem(scene, probes))
            pc, lists = cf.peel_proper_colorer(scene, probes), _lists(n, s + [2])
            yield "list", lambda h=h, lists=lists, pc=pc: cf.proper_to_cf_list(h, lists, pc)
        for i, n in enumerate(_spread(40, 180, 15)):
            k = (1, 4, 16)[i % 3]
            scene = gen("discs", n, [seed, 14, i], radius_range=(0.04, 0.04 * k), margin=1e-9)
            yield "fat_closed", lambda scene=scene, k=k: cf.closed_cf_color_fat(scene, 1.0, float(k))
    elif workload == "disc-sparse":
        for i, n in enumerate(_spread(2000, 3000, 5)):
            scene = gen("discs", n, [seed, 21, i], span=_sparse_span(n), margin=0)
            yield "pseudo_closed", lambda scene=scene: _pseudo_closed(scene)
    elif workload == "polygons":
        pent = cf.pentagon_template()
        for i, n in enumerate(_spread(24, 60, 12)):
            scene = gen("fat", n, [seed, 31, i], rho=1.5, k=3.0, homothets_of=pent, base_size=0.05)
            yield "pseudo", lambda scene=scene: cf.pointed_cf_pseudodiscs(scene)
        for i, n in enumerate(_spread(12, 32, 24)):
            k = (4.0, 16.0)[i % 2]
            scene = gen("fat", n, [seed, 32, i], rho=2.0, k=k, base_size=0.03)
            yield "fat_pointed", lambda scene=scene, k=k: cf.pointed_cf_color_fat(scene, 2.0, k)
            yield "fat_closed", lambda scene=scene, k=k: cf.closed_cf_color_fat(scene, 2.0, k)
    else:
        for i, n in enumerate(_spread(1, 800, 30)):
            scene = gen("intervals", n, [seed, 41, i], margin=0)
            yield "intervals", lambda scene=scene: cf.closed_cf_color_intervals(scene)
        for i in range(15):
            scene = gen("rects", (16, 64, 256, 1024, 2048)[i % 5], [seed, 42, i], margin=0)
            yield "rects", lambda scene=scene: cf.closed_cf_color_rects(scene)


def _plain(value):
    """JSON form of the numpy values a trace may hold."""
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"cannot digest {type(value).__name__}")


def _record(c: cf.Coloring) -> dict:
    t = c.trace
    return {
        "colors": list(c.colors),
        "palette_map": None if c.palette_map is None else sorted(c.palette_map.items()),
        "trace": None
        if t is None
        else {
            "bound": t.palette_bound,
            "vertices": t.vertices,
            "peels": {stage: [asdict(p) for p in orders] for stage, orders in t.peels.items()},
        },
    }


def _digest(workload: str, seed: int) -> str:
    h = hashlib.sha256()
    for name, call in _tasks(workload, seed):
        out = call()
        colorings = out if isinstance(out, tuple) else (out,)
        doc = [name, [_record(c) for c in colorings]]
        h.update(json.dumps(doc, sort_keys=True, default=_plain).encode())
    return h.hexdigest()


@pytest.mark.parametrize("workload, seed", sorted(GOLDEN))
def test_outputs_match_the_golden_digests(workload, seed):
    assert _digest(workload, seed) == GOLDEN[workload, seed]
