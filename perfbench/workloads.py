"""The four workloads: seeded inputs, the timed calls into cfgeom, and their
certification.

A workload is a fixed list of input families whose sizes do not depend on the
seed; the seed only moves the geometry.  Each task is one certified result a
user waits for, made of one or more calls to entry points exported by
`cfgeom`, looked up on the package at call time so a tracer can wrap them.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

import certify as cert

WORKLOADS = ("disc-dense", "disc-sparse", "polygons", "axis")


@dataclass
class Input:
    """One generated family (plus probes and lists where the task needs them)."""

    scene: object
    probes: object = None
    lists: list | None = None
    rho: float = 1.0
    k: float = 1.0
    _edges: dict = field(default_factory=dict, repr=False)

    @property
    def n(self) -> int:
        return len(self.scene)

    def edges(self, mode: str):
        """Certifier's hyperedges for `mode`: pointed, closed or probes."""
        if mode not in self._edges:
            if mode == "probes":
                self._edges[mode] = cert.contacts(self.probes.shapes, self.scene.shapes)
            elif mode == "pointed":
                self._edges[mode] = cert.contacts(self.scene.shapes)
            else:
                self._edges[mode] = cert.with_self(*self.edges("pointed"))
        return self._edges[mode]


@dataclass(frozen=True)
class Task:
    op: str
    input_id: int


# ---------------------------------------------------------------------------
# input generation
# ---------------------------------------------------------------------------


def _spread(lo: int, hi: int, count: int) -> list[int]:
    return [lo + round((hi - lo) * i / (count - 1)) for i in range(count)]


def _sparse_span(n: int, degree: float = 10.0, radii=(0.05, 0.2)) -> float:
    """Square side giving mean degree about `degree` for n uniform discs."""
    mean = (radii[0] + radii[1]) / 2
    var = (radii[1] - radii[0]) ** 2 / 12
    return math.sqrt(n * math.pi * (4 * mean * mean + 2 * var) / degree)


def _lists(n: int, seed) -> list[list[int]]:
    """Random lists of size ceil(1+log_{6/5} n) from a universe twice that size."""
    need = cert.cf_bound(n)
    rng = np.random.default_rng(seed)
    return [sorted(int(c) + 1 for c in rng.choice(2 * need, size=need, replace=False)) for _ in range(n)]


def build(cf, name: str, seed: int, canary: bool = False) -> tuple[list[Input], list[Task]]:
    """Inputs and task list of workload `name` for `seed`.

    With `canary` only the first family of each group is built, capped at 24
    shapes: a cheap probe of every generator configuration the workload uses.
    """
    inputs: list[Input] = []
    tasks: list[Task] = []
    gen = cf.generate_scene

    def group(tag: int, sizes: list[int], ops: tuple[str, ...], make) -> None:
        if canary:
            sizes = [min(sizes[0], 24)]
        for i, n in enumerate(sizes):
            inputs.append(make(n, [seed, tag, i]))
            tasks.extend(Task(op, len(inputs) - 1) for op in ops)

    if name == "disc-dense":
        group(11, _spread(40, 640, 30), ("pseudo_closed",), lambda n, s: Input(gen("discs", n, s)))
        group(
            12,
            _spread(50, 160, 20),
            ("probes",),
            lambda n, s: Input(gen("discs", n, s), gen("discs", 10 * n, s + [1], radius_range=(0.01, 0.3), margin=0)),
        )
        group(
            13,
            _spread(10, 64, 12),
            ("list",),
            lambda n, s: Input(
                gen("discs", n, s), gen("discs", 150, s + [1], radius_range=(0.01, 0.3), margin=0), _lists(n, s + [2])
            ),
        )
        group(14, _spread(40, 180, 15), ("fat_closed",), lambda n, s: _fat_discs(gen, n, s, (1, 4, 16)[s[2] % 3]))
    elif name == "disc-sparse":
        group(
            21,
            _spread(2000, 3000, 5),
            ("pseudo_closed",),
            lambda n, s: Input(gen("discs", n, s, span=_sparse_span(n), margin=0)),
        )
    elif name == "polygons":
        pent = cf.pentagon_template()
        group(
            31,
            _spread(24, 60, 12),
            ("pseudo",),
            lambda n, s: Input(gen("fat", n, s, rho=1.5, k=3.0, homothets_of=pent, base_size=0.05)),
        )
        group(32, _spread(12, 32, 24), ("fat_pointed", "fat_closed"), lambda n, s: _fat_polygons(gen, n, s))
    elif name == "axis":
        group(41, _spread(1, 800, 30), ("intervals",), lambda n, s: Input(gen("intervals", n, s, margin=0)))
        group(
            42,
            [(16, 64, 256, 1024, 2048)[i % 5] for i in range(15)],
            ("rects",),
            lambda n, s: Input(gen("rects", n, s, margin=0)),
        )
    else:
        raise ValueError(f"unknown workload {name!r}; pick one of {WORKLOADS}")
    return inputs, tasks


def _fat_discs(gen, n, s, k) -> Input:
    base = 0.04
    return Input(gen("discs", n, s, radius_range=(base, base * k), margin=1e-9), rho=1.0, k=float(k))


def _fat_polygons(gen, n, s) -> Input:
    k = (4.0, 16.0)[s[2] % 2]
    return Input(gen("fat", n, s, rho=2.0, k=k, base_size=0.03), rho=2.0, k=k)


# ---------------------------------------------------------------------------
# fingerprint
# ---------------------------------------------------------------------------


def shape_numbers(s) -> list[float]:
    if hasattr(s, "radius"):
        return [s.center.x, s.center.y, s.radius]
    if hasattr(s, "lo"):
        return [s.lo, s.hi]
    if hasattr(s, "xmin"):
        return [s.xmin, s.xmax, s.ymin, s.ymax]
    return [c for p in s.vertices for c in (p.x, p.y)] + [s.anchor.x, s.anchor.y, s.r_inner, s.r_outer]


def fingerprint(inputs: list[Input], tasks: list[Task]) -> str:
    """SHA-256 over every generated number, in order."""
    h = hashlib.sha256()
    h.update(repr([(t.op, t.input_id) for t in tasks]).encode())
    for inp in inputs:
        for scene in (inp.scene, inp.probes):
            if scene is None:
                continue
            h.update(str(len(scene)).encode())
            for s in scene.shapes:
                h.update(np.asarray(shape_numbers(s), dtype=np.float64).tobytes())
        if inp.lists is not None:
            h.update(repr(inp.lists).encode())
        h.update(repr((inp.rho, inp.k)).encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# timed calls
# ---------------------------------------------------------------------------


def _coloring(result):
    """The Coloring in an entry point's result (bare, or first of a tuple)."""
    if hasattr(result, "colors"):
        return result
    for part in result:
        if hasattr(part, "colors"):
            return part
    raise TypeError(f"no coloring in result of type {type(result).__name__}")


def run(cf, op: str, inp: Input) -> tuple:
    """One task; returns the colorings it produced, as color tuples."""
    if op == "pseudo_closed":
        pointed = _coloring(cf.pointed_cf_pseudodiscs(inp.scene))
        closed = _coloring(cf.pointed_to_closed(cf.intersection_graph(inp.scene), pointed))
        return tuple(pointed.colors), tuple(closed.colors)
    if op == "pseudo":
        return (tuple(_coloring(cf.pointed_cf_pseudodiscs(inp.scene)).colors),)
    if op == "probes":
        ps = cf.ProbeSystem(inp.scene, inp.probes, "disc")
        return (tuple(_coloring(cf.cf_color_vs_probes(ps)).colors),)
    if op == "list":
        h = cf.probe_hypergraph(cf.ProbeSystem(inp.scene, inp.probes, "disc"))
        pc = cf.peel_proper_colorer(inp.scene, inp.probes)
        return (tuple(_coloring(cf.proper_to_cf_list(h, inp.lists, pc)).colors),)
    if op == "fat_pointed":
        return (tuple(_coloring(cf.pointed_cf_color_fat(inp.scene, inp.rho, inp.k)).colors),)
    if op == "fat_closed":
        return (tuple(_coloring(cf.closed_cf_color_fat(inp.scene, inp.rho, inp.k)).colors),)
    if op == "intervals":
        return (tuple(_coloring(cf.closed_cf_color_intervals(inp.scene)).colors),)
    if op == "rects":
        return (tuple(_coloring(cf.closed_cf_color_rects(inp.scene)).colors),)
    raise ValueError(f"unknown task {op!r}")


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------


def check(op: str, inp: Input, outputs: tuple) -> cert.Certificate:
    """Certify the colorings of one task against the paper's guarantees."""
    c = cert.Certificate()
    n = inp.n
    first = outputs[0]
    if op in ("pseudo_closed", "pseudo"):
        c.coloring("pointed", first, n, inp.edges("pointed"), cert.pseudodisc_bound(n))
        if op == "pseudo_closed":
            c.coloring("closed", outputs[1], n, inp.edges("closed"), 2 * cert.palette(first))
    elif op in ("probes", "list"):
        c.coloring(op, first, n, inp.edges("probes"), cert.cf_bound(n))
        if op == "list":
            c.membership(first, inp.lists)
    elif op == "fat_pointed":
        c.coloring(op, first, n, inp.edges("pointed"), cert.fat_pointed_bound(inp.rho, inp.k))
    elif op == "fat_closed":
        c.coloring(op, first, n, inp.edges("closed"), cert.fat_closed_bound(inp.rho, inp.k))
    elif op == "intervals":
        c.coloring(op, first, n, inp.edges("closed"), 3)
    elif op == "rects":
        c.coloring(op, first, n, inp.edges("closed"), cert.rects_bound(n))
    else:
        raise ValueError(f"unknown task {op!r}")
    return c
