"""Certified-coloring benchmark for cfgeom.

    python3 perfbench/run.py --workload disc-dense --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Builds the workload's inputs from the seed,
times repeated passes over them through cfgeom's exported entry points for
about `--seconds`, certifies every output outside the timer, and prints one
JSON object as the last line of standard output.  `--trace 0` reports the
end-to-end metrics; `--trace 1` alternates untraced and traced passes and
reports the per-layer metrics.  See perfbench/README.md.
"""
from __future__ import annotations

import os

# single-threaded numerics; must precede the numpy import
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
PINS = Path(__file__).resolve().parent / "fingerprints.json"
SETUP_ROUNDS = 3
MIN_PASSES = 3
# The machine's speed drifts by tens of percent over seconds on shared hosts.
# A fixed calibration loop (Python arithmetic plus a numpy sort), run after
# every call and after every set-up round, measures that speed; throughput and
# set-up time are reported as if the loop took CALIB_REF_S.
CALIB_REF_S = 3.0e-3
IMPORT_PROBE = "import time; t = time.perf_counter(); import cfgeom; print(time.perf_counter() - t)"


def _die(code: int, msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def _import_seconds() -> float:
    """Import time of cfgeom in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    if done.returncode != 0:
        _die(2, f"cfgeom does not import from {SRC}:\n{done.stderr}")
    return float(done.stdout.strip().splitlines()[-1])


_CALIB_DATA = np.random.default_rng(0).random(200_000)


def _calibrate() -> float:
    """Seconds taken by the fixed calibration loop right now."""
    t0 = time.perf_counter()
    s = 0
    for i in range(10_000):
        s += i * i % 7
    _CALIB_DATA.copy().sort()
    return time.perf_counter() - t0


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return done.stdout.strip() or "unknown"


def _environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _git_commit(),
        "machine": platform.machine(),
    }


def _check_pins(wl, cf, name: str, seed: int, inputs, tasks) -> str:
    """Abort when generated inputs differ from the pinned fingerprints."""
    if not PINS.is_file():
        _die(3, f"missing {PINS.name}; record it with --pin")
    pins = json.loads(PINS.read_text()).get(name, {})
    got = wl.fingerprint(inputs, tasks)
    canary = wl.fingerprint(*wl.build(cf, name, 0, canary=True))
    if pins.get("canary") != canary:
        _die(3, f"{name}: generate_scene output changed (canary fingerprint {canary[:12]})")
    want = pins.get("seeds", {}).get(str(seed))
    if want is not None and want != got:
        _die(3, f"{name}: inputs for seed {seed} changed (fingerprint {got[:12]}, pinned {want[:12]})")
    return got


def _pin(wl, cf, name: str, seeds: list[int]) -> None:
    pins = json.loads(PINS.read_text()) if PINS.exists() else {}
    entry = pins.setdefault(name, {"canary": "", "seeds": {}})
    entry["canary"] = wl.fingerprint(*wl.build(cf, name, 0, canary=True))
    for seed in seeds:
        entry["seeds"][str(seed)] = wl.fingerprint(*wl.build(cf, name, seed))
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


class Runner:
    """Timed passes over one workload's tasks, plus certification."""

    def __init__(self, wl, cf, name, seed, inputs, tasks):
        self.wl, self.cf, self.name, self.seed = wl, cf, name, seed
        self.inputs, self.tasks = inputs, tasks
        self.reference: list = [None] * len(tasks)  # first outputs seen per task
        self.extra: list[tuple[int, tuple]] = []  # outputs differing from the reference
        self.failed_runs: dict[int, int] = {}  # task -> failed executions (raised)
        self.executions = [0] * len(tasks)
        self.deviating = [0] * len(tasks)  # executions whose output differs from the reference
        self.call_s: dict[str, list[float]] = {}
        self.pass_sps = {False: [], True: []}  # raw shapes per second of each pass, by traced
        self.pass_calib_s = {False: [], True: []}  # median calibration time of each pass, by traced

    def shapes_per_s(self, traced: bool = False) -> float:
        """Median over passes of pass throughput scaled to the reference machine
        speed by that pass's median calibration time."""
        scaled = (sps * c / CALIB_REF_S for sps, c in zip(self.pass_sps[traced], self.pass_calib_s[traced]))
        return statistics.median(scaled)

    def one_pass(self, tracer=None) -> None:
        """Every task once, each timed alone and followed by one calibration loop."""
        gc.collect()
        traced = tracer is not None
        calib: list[float] = []
        shapes = 0
        busy = 0.0
        clock = time.perf_counter
        for i, task in enumerate(self.tasks):
            inp = self.inputs[task.input_id]
            self.executions[i] += 1
            t0 = clock()
            try:
                if tracer is None:
                    out = self.wl.run(self.cf, task.op, inp)
                else:
                    with tracer.call():
                        out = self.wl.run(self.cf, task.op, inp)
            except Exception:  # a failing call is counted, written out, and the run goes on
                out = None
                self.failed_runs[i] = self.failed_runs.get(i, 0) + 1
                self._write_failure(task, inp, None, traceback.format_exc())
            dt = clock() - t0
            busy += dt
            calib.append(_calibrate())
            if out is None:
                continue
            shapes += inp.n
            if not traced:
                self.call_s.setdefault(task.op, []).append(dt)
            if self.reference[i] is None:
                self.reference[i] = out
            elif out != self.reference[i]:
                self.deviating[i] += 1
                self.extra.append((i, out))
        self.pass_sps[traced].append(shapes / busy)
        self.pass_calib_s[traced].append(statistics.median(calib))

    def certify(self) -> tuple[int, int, list[float]]:
        """(attempted, failed, palette ratios of the reference outputs)."""
        ratios: list[float] = []
        failed = sum(self.failed_runs.values())
        bad_ref: set[int] = set()
        for i, out in enumerate(self.reference):
            if out is None:
                continue
            c = self._check(i, out)
            ratios.extend(c.ratios)
            if c.problems:
                bad_ref.add(i)
        for i, out in self.extra:
            if self._check(i, out).problems:
                failed += 1
        for i in bad_ref:
            failed += self.executions[i] - self.failed_runs.get(i, 0) - self.deviating[i]
        return sum(self.executions), failed, ratios

    def _check(self, i, out):
        task = self.tasks[i]
        inp = self.inputs[task.input_id]
        c = self.wl.check(task.op, inp, out)
        if c.problems:
            self._write_failure(task, inp, out, "\n".join(c.problems))
        return c

    def _write_failure(self, task, inp, out, reason: str) -> None:
        folder = OUT / "failures"
        folder.mkdir(parents=True, exist_ok=True)
        doc = {
            "workload": self.name,
            "seed": self.seed,
            "task": task.op,
            "input_id": task.input_id,
            "reason": reason,
            "rho": inp.rho,
            "k": inp.k,
            "shapes": [self.wl.shape_numbers(s) for s in inp.scene.shapes],
            "probes": None if inp.probes is None else [self.wl.shape_numbers(s) for s in inp.probes.shapes],
            "lists": inp.lists,
            "colorings": None if out is None else [list(c) for c in out],
        }
        path = folder / f"{self.name}-seed{self.seed}-input{task.input_id}-{task.op}.json"
        path.write_text(json.dumps(doc))
        print(f"perfbench: {task.op} on input {task.input_id} failed; written to {path}", file=sys.stderr)


def _quantiles(xs: list[float]) -> dict:
    if len(xs) < 2:
        return {"n": len(xs), "p50_ms": 1000 * xs[0] if xs else None}
    q = statistics.quantiles(xs, n=10, method="inclusive")
    return {"n": len(xs), "p50_ms": 1000 * statistics.median(xs), "p90_ms": 1000 * q[8]}


def _layer_metrics(names, tracer, inputs: int, traced_passes: int, overhead: float) -> dict:
    """Per-layer metrics, counted per pass over the workload's tasks."""
    per = 1.0 / traced_passes
    m: dict[str, tuple[float, str]] = {}
    for name in names:
        m[f"{name}.calls"] = (tracer.calls[name] * per, "count")
        m[f"{name}.self_s"] = (tracer.self_s[name] * per, "s")
    for name in ("hypergraph.intersection_graph", "hypergraph.verify_cf", "intervals.closed_cf_color_intervals"):
        m[f"{name}.per_input"] = (tracer.calls[name] * per / inputs, "ratio")
    for name in ("hypergraph.intersection_graph.edges", "hypergraph.verify_cf.members",
                 "probes.prune_depth_one.pruned", "framework.proper_to_cf.rounds"):
        m[name] = (tracer.counts[name] * per, "count")
    calls = tracer.calls["geom.intersects"]
    m["geom.intersects.true_frac"] = (tracer.counts["geom.intersects.true"] / calls if calls else 0.0, "ratio")
    verify = tracer.self_s["hypergraph.verify_cf"] + tracer.self_s["hypergraph.verify_proper"]
    m["hypergraph.verify_share"] = (verify / tracer.call_s, "ratio")
    m["trace.overhead_frac"] = (overhead, "ratio")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pin", type=str, default=None, help="record input fingerprints for seeds A-B and exit")
    args = ap.parse_args(argv)

    if not (SRC / "cfgeom" / "__init__.py").is_file():
        _die(2, f"no cfgeom sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import cfgeom as cf

    if not Path(cf.__file__).resolve().is_relative_to(SRC):
        _die(2, f"imported cfgeom from {cf.__file__}, not from {SRC}")
    import tracer as tr
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        _die(2, f"unknown workload {args.workload!r}; pick one of {', '.join(wl.WORKLOADS)}")
    if args.pin is not None:
        lo, _, hi = args.pin.partition("-")
        _pin(wl, cf, args.workload, list(range(int(lo), int(hi or lo) + 1)))
        return 0

    setups = []
    setup_calib = []
    for _ in range(SETUP_ROUNDS):
        t_import = _import_seconds()
        t0 = time.perf_counter()
        inputs, tasks = wl.build(cf, args.workload, args.seed)
        setups.append(t_import + time.perf_counter() - t0)
        setup_calib.extend(_calibrate() for _ in range(5))
    fp = _check_pins(wl, cf, args.workload, args.seed, inputs, tasks)

    warnings = tr.WarningCounter()
    warnings.attach()
    runner = Runner(wl, cf, args.workload, args.seed, inputs, tasks)
    tracer = tr.Tracer()
    done = runner.pass_sps
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if args.trace:
            if elapsed >= args.seconds and min(len(done[False]), len(done[True])) >= 2:
                break
            if len(done[True]) < len(done[False]):
                tracer.install()
                try:
                    runner.one_pass(tracer)
                finally:
                    tracer.uninstall()
                continue
        elif elapsed >= args.seconds and len(done[False]) >= MIN_PASSES:
            break
        runner.one_pass()
    timed_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted, failed, ratios = runner.certify()
    correct = failed == 0
    if args.trace:
        # self times plus the untraced remainder must add up to each call's duration
        correct = correct and tracer.max_residual_s <= 1e-6
        metrics = _layer_metrics(
            tr.BOUNDARY_NAMES,
            tracer,
            len(inputs),
            len(done[True]),
            runner.shapes_per_s() / runner.shapes_per_s(traced=True) - 1.0,
        )
        # the warning handler counts in every pass, traced or not
        passes = len(done[False]) + len(done[True])
        metrics["probes.prune_audit_warnings"] = (warnings.prune_audit / passes, "count")
        metrics["probes.euler_warnings"] = (warnings.euler / passes, "count")
    else:
        metrics = {
            "shapes_per_s": (runner.shapes_per_s(), "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "palette_to_bound": (statistics.fmean(ratios) if ratios else 0.0, "ratio"),
            "certified_frac": (1.0 - failed / attempted, "ratio"),
            "setup_s": (statistics.median(setups) * CALIB_REF_S / statistics.median(setup_calib), "s"),
        }
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": _environment(),
        "input_fingerprint": fp,
        "inputs": len(inputs),
        "tasks_per_pass": len(tasks),
        "timed_s": timed_s,
        "raw_pass_shapes_per_s": done[False],
        "raw_traced_pass_shapes_per_s": done[True],
        "pass_calibration_median_s": runner.pass_calib_s[False],
        "setup_rounds_s": setups,
        "setup_calibration_median_s": statistics.median(setup_calib),
        "per_call": {op: _quantiles(xs) for op, xs in sorted(runner.call_s.items())},
        "absent_boundaries": tracer.absent,
        "uncountable": sorted(tracer.uncountable),
        "max_trace_residual_s": tracer.max_residual_s,
        "other_warnings": warnings.other,
    }
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**details, "result": result}, indent=1)
    )
    print("perfbench " + json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
