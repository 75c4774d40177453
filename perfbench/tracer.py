"""Span tracer that wraps cfgeom's public functions from outside the package.

Each boundary names one function (or the `ProperColorer.__call__` method) of a
cfgeom module.  Installing the tracer replaces that function at every cfgeom
module where the name is bound, because `from .x import f` copies the
reference into the importing module.  A boundary whose function no longer
exists is recorded as absent instead of failing.

Spans are aggregated as they close: per boundary the call count and the self
time (span duration minus the time covered by its child spans).  Spans are
recorded only while a benchmark call is open (`call`), so the benchmark's own
certification never shows up in the numbers.
"""
from __future__ import annotations

import logging
import sys
import time
from contextlib import contextmanager

# (metric prefix, module, attribute); a dotted attribute names a method.
BOUNDARIES = (
    ("geom.intersects", "cfgeom.geom", "intersects"),
    ("geom.validate_pseudodisc_family", "cfgeom.geom", "validate_pseudodisc_family"),
    ("geom.points_in_convex_polygon", "cfgeom.geom", "points_in_convex_polygon"),
    ("geom.segment_clip_convex", "cfgeom.geom", "segment_clip_convex"),
    ("hypergraph.intersection_graph", "cfgeom.hypergraph", "intersection_graph"),
    ("hypergraph.neighborhood_hypergraph", "cfgeom.hypergraph", "neighborhood_hypergraph"),
    ("hypergraph.induced", "cfgeom.hypergraph", "induced"),
    ("hypergraph.verify_cf", "cfgeom.hypergraph", "verify_cf"),
    ("hypergraph.verify_proper", "cfgeom.hypergraph", "verify_proper"),
    ("hypergraph.greedy_maximal_independent_set", "cfgeom.hypergraph", "greedy_maximal_independent_set"),
    ("framework.proper_to_cf", "cfgeom.framework", "proper_to_cf"),
    ("framework.proper_to_cf_list", "cfgeom.framework", "proper_to_cf_list"),
    ("framework.pointed_to_closed", "cfgeom.framework", "pointed_to_closed"),
    ("probes.peel", "cfgeom.framework", "ProperColorer.__call__"),
    ("probes.probe_hypergraph", "cfgeom.probes", "probe_hypergraph"),
    ("probes.cf_color_vs_probes", "cfgeom.probes", "cf_color_vs_probes"),
    ("probes.prune_depth_one", "cfgeom.probes", "prune_depth_one"),
    ("probes.pointed_cf_pseudodiscs", "cfgeom.probes", "pointed_cf_pseudodiscs"),
    ("intervals.closed_cf_color_intervals", "cfgeom.intervals", "closed_cf_color_intervals"),
    ("rects.closed_cf_color_rects", "cfgeom.rects", "closed_cf_color_rects"),
    ("fat.pointed_cf_color_fat", "cfgeom.fat", "pointed_cf_color_fat"),
    ("fat.closed_cf_color_fat", "cfgeom.fat", "closed_cf_color_fat"),
)
BOUNDARY_NAMES = tuple(b[0] for b in BOUNDARIES)


def _edges_of_graph(args, result):
    return len(result.edges)


def _members_checked(args, result):
    return sum(len(e) for e in args[0].edges)


def _intersects_true(args, result):
    return int(bool(result))


def _pruned(args, result):
    return len(result[1])


# counter name -> (boundary, function of (args, result) giving the increment)
COUNTERS = {
    "hypergraph.intersection_graph.edges": ("hypergraph.intersection_graph", _edges_of_graph),
    "hypergraph.verify_cf.members": ("hypergraph.verify_cf", _members_checked),
    "geom.intersects.true": ("geom.intersects", _intersects_true),
    "probes.prune_depth_one.pruned": ("probes.prune_depth_one", _pruned),
}


class Tracer:
    def __init__(self):
        self.calls = {name: 0 for name in BOUNDARY_NAMES}
        self.self_s = {name: 0.0 for name in BOUNDARY_NAMES}
        self.counts = {name: 0 for name in COUNTERS}
        self.counts["framework.proper_to_cf.rounds"] = 0
        self.absent: list[str] = []
        self.uncountable: set[str] = set()
        self.call_s = 0.0  # summed duration of the benchmark calls
        self.max_residual_s = 0.0  # worst |sum of self times - call duration|
        self._stack: list[list] = []  # [name, start, child time]
        self._self_in_call = 0.0
        self._restore: list[tuple[object, str, object]] = []
        self._counters_of = {}
        for counter, (boundary, fn) in COUNTERS.items():
            self._counters_of.setdefault(boundary, []).append((counter, fn))

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        mods = [m for name, m in list(sys.modules.items()) if name == "cfgeom" or name.startswith("cfgeom.")]
        for name, modname, attr in BOUNDARIES:
            mod = sys.modules.get(modname)
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            original = getattr(owner, method, None) if owner is not None else None
            if original is None:
                if name not in self.absent:
                    self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            if owner_name:
                self._bind(owner, method, wrapper, original)
                continue
            for m in mods:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._bind(m, key, wrapper, original)

    def _bind(self, owner, key, wrapper, original) -> None:
        self._restore.append((owner, key, original))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- spans ------------------------------------------------------------

    def _wrap(self, name, fn):
        counters = self._counters_of.get(name, ())
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            if name == "probes.peel" and stack[-1][0] == "framework.proper_to_cf":
                self.counts["framework.proper_to_cf.rounds"] += 1
            frame = [name, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(stack.pop(), clock())
            for counter, count in counters:
                try:
                    self.counts[counter] += count(args, result)
                except (AttributeError, TypeError, IndexError, KeyError):
                    self.uncountable.add(counter)
            return result

        traced.__wrapped__ = fn
        return traced

    def _close(self, frame, end) -> None:
        name, start, child = frame
        dur = end - start
        own = dur - child
        self._self_in_call += own
        if self._stack:
            self._stack[-1][2] += dur
        if name is not None:
            self.calls[name] += 1
            self.self_s[name] += own

    @contextmanager
    def call(self):
        """Root span around one benchmark call; boundary spans open inside it."""
        self._self_in_call = 0.0
        frame = [None, time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            yield
        finally:
            end = time.perf_counter()
            self._close(self._stack.pop(), end)
            dur = end - frame[1]
            self.call_s += dur
            self.max_residual_s = max(self.max_residual_s, abs(self._self_in_call - dur))


class WarningCounter(logging.Handler):
    """Counts the two `cfgeom.probes` warning sites and keeps them off stderr."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.euler = 0
        self.prune_audit = 0
        self.other = 0

    def emit(self, record: logging.LogRecord) -> None:
        msg = str(record.msg)
        if "Euler" in msg:
            self.euler += 1
        elif "pruned shape" in msg:
            self.prune_audit += 1
        else:
            self.other += 1

    def attach(self) -> None:
        log = logging.getLogger("cfgeom")
        log.addHandler(self)
        log.propagate = False
