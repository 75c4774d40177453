"""Benchmark harness recording palette sizes against the bounds their entry
points certified, read from each coloring's trace.

Every entry point certifies its own output; a certification failure aborts the
run and serializes the failing scene for regression capture.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

from .errors import InvalidInputError, VerificationError
from .fat import closed_cf_color_fat, pointed_cf_color_fat
from .geom import generate_scene, save_scene
from .intervals import closed_cf_color_intervals
from .probes import ProbeSystem, cf_color_vs_probes, pointed_cf_pseudodiscs
from .rects import closed_cf_color_rects

__all__ = ["BENCH_ALGS", "bench_colors", "rows_to_csv"]


@dataclass(frozen=True)
class BenchRow:
    n: int
    rep: int
    palette_size: int
    bound: int
    runtime_ms: float
    verified: bool


# alg -> (argument generator (n, seed, probe count, rho, k), entry point)
_ALGS = {
    "pseudodisc": (lambda n, s, m, rho, k: (generate_scene("discs", n, s),), pointed_cf_pseudodiscs),
    "antennas": (
        lambda n, s, m, rho, k: (
            ProbeSystem(generate_scene("discs", n, s), generate_scene("discs", m, s + [1], radius_range=(0.01, 0.3))),
        ),
        cf_color_vs_probes,
    ),
    "intervals": (lambda n, s, m, rho, k: (generate_scene("intervals", n, s),), closed_cf_color_intervals),
    "rects": (lambda n, s, m, rho, k: (generate_scene("rects", n, s),), closed_cf_color_rects),
    "fat-pointed": (lambda n, s, m, rho, k: (generate_scene("fat", n, s, rho=rho, k=k), rho, k), pointed_cf_color_fat),
    "fat-closed": (lambda n, s, m, rho, k: (generate_scene("fat", n, s, rho=rho, k=k), rho, k), closed_cf_color_fat),
}
BENCH_ALGS = tuple(_ALGS)


def _run_one(alg: str, n: int, rep: int, seed: int, probes_count: int | None, rho: float, k: float) -> BenchRow:
    make, color = _ALGS[alg]
    args = make(n, [seed, n, rep], 10 * n if probes_count is None else probes_count, rho, k)
    t0 = time.perf_counter()
    try:
        coloring = color(*args)
    except VerificationError as exc:
        path = f"cfgeom-failing-{alg}-n{n}-rep{rep}.json"
        save_scene(args[0].vertices if isinstance(args[0], ProbeSystem) else args[0], path)
        raise VerificationError(f"{exc}; failing scene written to {path}") from exc
    ms = (time.perf_counter() - t0) * 1000
    return BenchRow(n, rep, coloring.palette_size, coloring.trace.palette_bound, ms, True)


def bench_colors(
    alg: str,
    n_values: list[int],
    reps: int,
    seed: int,
    *,
    probes_count: int | None = None,
    rho: float = 2.0,
    k: float = 4.0,
) -> list[BenchRow]:
    """One certified row per (n, rep), in canonical order."""
    if alg not in _ALGS:
        raise InvalidInputError(f"unknown algorithm {alg!r}; pick one of {BENCH_ALGS}")
    if not n_values:
        raise InvalidInputError("n_values must not be empty")
    return [_run_one(alg, n, rep, seed, probes_count, rho, k) for n in sorted(n_values) for rep in range(reps)]


def rows_to_csv(rows: list[BenchRow]) -> str:
    lines = ["n,rep,palette_size,bound,runtime_ms,verified"]
    for r in rows:
        lines.append(f"{r.n},{r.rep},{r.palette_size},{r.bound},{r.runtime_ms:.3f},{str(r.verified).lower()}")
    return "\n".join(lines) + "\n"
