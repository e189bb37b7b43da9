"""Span tracer that times calls into gainchroma's public functions from
outside the package, and the per-layer metrics derived from its spans.

``Tracer.trace`` rebinds a function in every module namespace that holds
it, because ``from .graphs import components`` copies the binding into
``counting``, ``holonomy`` and ``polynomials``.  Methods are rebound on their
class, and ``restore`` puts every original binding back.  A traced run is its
own process; untraced runs never install the tracer and pay nothing for it.

Spans carry a name, start, end and parent and are kept in flat arrays in
memory; ``write`` saves them once at the end.  A span's self time is its
duration minus the durations of its children; calls run on one thread, so
children never overlap.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array
from collections import Counter

from gainchroma import cli, counting, graphs, groups, harness, holonomy, polynomials

TABLE_BUILDERS = (
    "build_cyclic",
    "build_symmetric",
    "regular_action",
    "trivial_action",
    "disjoint_union_action",
    "standard_colors",
    "zero_free_colors",
    "subset_action",
)
COUNTERS = ("brute", "delcon", "inclexcl", "mobius")
AUTO_CHOICES = ("brute", "inclexcl", "mobius")


class Tracer:
    """Spans and counters of one traced run, and the bindings to undo."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self._stack = [-1]
        self._undo: list[tuple[dict, str, object]] = []

    def _name_id(self, name: str) -> int:
        got = self._name_ids.get(name)
        if got is None:
            got = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return got

    def span(self, name: str, fn, on_return=None):
        """Wrap ``fn`` so each call records a span; ``on_return(counters,
        args, result)`` may add counts at the same boundary."""
        name_id = self._name_id(name)
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self._stack
        clock, counters = self.clock, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_return is not None:
                on_return(counters, args, result)
            return result

        return traced

    def trace(self, fn, name: str, on_return=None):
        """Rebind ``fn`` in every loaded module namespace that holds it."""
        wrapper = self.span(name, fn, on_return)
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for key, value in list(namespace.items()):
                if value is fn:
                    self._undo.append((namespace, key, fn))
                    namespace[key] = wrapper

    def trace_method(self, cls, attr: str, name: str, on_return=None):
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, self.span(name, original, on_return))

    def restore(self):
        while self._undo:
            owner, key, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Calls and total self time per span name."""
        child = [0.0] * len(self.name)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = [0] * len(self.names)
        busy = [0.0] * len(self.names)
        for i, n in enumerate(self.name):
            calls[n] += 1
            busy[n] += self.end[i] - self.start[i] - child[i]
        return {name: (calls[n], busy[n]) for n, name in enumerate(self.names)}

    def child_counts(self, parent_name: str) -> Counter:
        """How often each span name occurs directly under ``parent_name``."""
        pid = self._name_ids.get(parent_name)
        out: Counter = Counter()
        for i, p in enumerate(self.parent):
            if p >= 0 and self.name[p] == pid:
                out[self.names[self.name[i]]] += 1
        return out

    def write(self, path: str):
        """Gzipped text: a JSON header with the span names and counters, then
        one ``name parent start end`` line per span, where ``name`` indexes
        the names and ``parent`` is a line number counted from 0, or -1."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as handle:
            handle.write(json.dumps({"names": self.names, "counters": dict(self.counters)}) + "\n")
            for span in zip(self.name, self.parent, self.start, self.end):
                handle.write("%d %d %r %r\n" % span)


def _count_closed_sets(counters, args, lattice):
    counters["closed_sets.found"] += len(lattice.sets)
    counters["closed_sets.tried"] += 2 ** len(args[0].edges)


def _count_stats(method):
    def hook(counters, args, result):
        for key, value in result.stats.items():
            counters[f"{method}.{key}"] += value
        counters[f"{method}.value"] += result.value

    return hook


def install(tracer: Tracer):
    """Trace every layer boundary named in ``LAYER_METRICS``."""
    for fn in (graphs.components, graphs.spanning_forest, graphs.is_balanced):
        tracer.trace(fn, f"graphs.{fn.__name__}")
    tracer.trace(graphs.delete_edge, "graphs.minors")
    tracer.trace(graphs.contract_link, "graphs.minors")
    tracer.trace(groups.generate_subgroup, "groups.generate_subgroup")
    tracer.trace(groups.fixed_set, "groups.fixed_set")
    for attr in TABLE_BUILDERS:
        tracer.trace(getattr(groups, attr), "groups.tables")
    tracer.trace_method(holonomy.HolonomyContext, "__init__", "holonomy.context")
    tracer.trace_method(holonomy.HolonomyCache, "subgroup", "holonomy.subgroup")
    tracer.trace(holonomy.component_subgroup, "holonomy.component_subgroup")
    tracer.trace(holonomy.enumerate_closed_sets, "holonomy.closed_sets", _count_closed_sets)
    tracer.trace(holonomy.holonomy_closure, "holonomy.closure")
    for method in COUNTERS:
        fn = getattr(counting, f"count_{method}")
        tracer.trace(fn, f"counting.{method}", _count_stats(method))
    tracer.trace(counting.count_auto, "counting.auto")
    tracer.trace(polynomials.grand_polynomial, "polynomials.grand")
    tracer.trace(polynomials.chromatic_polynomial, "polynomials.interpolate")
    tracer.trace(polynomials.zero_free_polynomial, "polynomials.interpolate")
    for check in harness.CHECKS:
        tracer.trace(getattr(harness, f"check_{check}"), f"harness.check.{check}")
    tracer.trace(cli.parse_instance, "cli.parse")
    tracer.trace(cli.main, "cli.main")


def _calls_and_self(prefix):
    return [(f"{prefix}.calls", "count", "lower"), (f"{prefix}.self_s", "s", "lower")]


# (name, unit, better) for every metric a traced run reports.
LAYER_METRICS = (
    _calls_and_self("graphs.components")
    + _calls_and_self("graphs.spanning_forest")
    + _calls_and_self("graphs.is_balanced")
    + _calls_and_self("graphs.minors")
    + _calls_and_self("groups.generate_subgroup")
    + _calls_and_self("groups.fixed_set")
    + [("groups.tables.self_s", "s", "lower")]
    + _calls_and_self("holonomy.context")
    + [
        ("holonomy.subgroup.lookups", "count", "lower"),
        ("holonomy.subgroup.misses", "count", "lower"),
        ("holonomy.subgroup.hit_ratio", "ratio", "higher"),
    ]
    + _calls_and_self("holonomy.closed_sets")
    + [
        ("holonomy.closed_sets.found", "count", "lower"),
        ("holonomy.closed_sets.closed_ratio", "ratio", "higher"),
    ]
    + _calls_and_self("holonomy.closure")
    + [
        ("counting.brute.self_s", "s", "lower"),
        ("counting.brute.states_visited", "count", "lower"),
        ("counting.brute.solution_ratio", "ratio", "higher"),
        ("counting.delcon.self_s", "s", "lower"),
        ("counting.delcon.calls", "count", "lower"),
        ("counting.inclexcl.self_s", "s", "lower"),
        ("counting.inclexcl.subsets", "count", "lower"),
    ]
    + _calls_and_self("counting.mobius")
    + [(f"counting.auto.choice.{c}", "count", "lower") for c in AUTO_CHOICES]
    + [
        ("polynomials.grand.self_s", "s", "lower"),
        ("polynomials.interpolate.self_s", "s", "lower"),
        ("polynomials.lattice_builds_per_op", "count", "lower"),
    ]
    + [m for check in harness.CHECKS for m in _calls_and_self(f"harness.check.{check}")]
    + [
        ("cli.parse.self_s", "s", "lower"),
        ("cli.main.self_s", "s", "lower"),
        ("trace.ops", "count", "higher"),
        ("trace.wall_s", "s", "lower"),
        ("trace.overhead", "ratio", "lower"),
    ]
)


def layer_values(tracer: Tracer, ops: int, untraced_wall: float, traced_wall: float) -> dict[str, float]:
    """Every ``LAYER_METRICS`` value from one traced pass of ``ops`` ops."""
    busy = tracer.self_times()
    counters = tracer.counters
    values: dict[str, float] = {}
    for name, _, _ in LAYER_METRICS:
        layer, _, field = name.rpartition(".")
        if field in ("calls", "self_s"):
            calls, self_s = busy.get(layer, (0, 0.0))
            values[name] = calls if field == "calls" else self_s
    lookups = busy.get("holonomy.subgroup", (0, 0.0))[0]
    misses = tracer.child_counts("holonomy.subgroup")["holonomy.component_subgroup"]
    values["holonomy.subgroup.lookups"] = lookups
    values["holonomy.subgroup.misses"] = misses
    values["holonomy.subgroup.hit_ratio"] = 1 - misses / lookups if lookups else 0.0
    found, tried = counters["closed_sets.found"], counters["closed_sets.tried"]
    values["holonomy.closed_sets.found"] = found
    values["holonomy.closed_sets.closed_ratio"] = found / tried if tried else 0.0
    visited = counters["brute.states_visited"]
    values["counting.brute.states_visited"] = visited
    values["counting.brute.solution_ratio"] = counters["brute.value"] / visited if visited else 0.0
    # Recursive calls, as counted in CountResult.stats, not calls of count_delcon.
    values["counting.delcon.calls"] = counters["delcon.calls"]
    values["counting.inclexcl.subsets"] = counters["inclexcl.subsets"]
    choices = tracer.child_counts("counting.auto")
    for c in AUTO_CHOICES:
        values[f"counting.auto.choice.{c}"] = choices[f"counting.{c}"]
    values["polynomials.lattice_builds_per_op"] = busy.get("holonomy.closed_sets", (0, 0.0))[0] / ops
    values["trace.ops"] = ops
    values["trace.wall_s"] = traced_wall
    values["trace.overhead"] = traced_wall / untraced_wall - 1
    return values
