"""Traced run of one schur-scope CLI command, and the per-layer metrics built
from such runs.

Run as a script, it imports the CLI, wraps the public functions of every layer
in a span recorder, calls `cli.run(argv)` and, at exit, writes per-layer
aggregates to a JSON file:

    python perfbench/tracer.py OUT.json --json --type A3 orbit count

Spans (name, start, end, parent) are kept in memory as flat arrays while the
command runs.  Self time is a span's duration minus the durations of its
direct children; calls are synchronous, so children never overlap.  Spans are
recorded from outside the program: each wrapped name is replaced in every
module that bound it, including `from ... import` bindings and the
`weyl.compose` / `weyl.inverse` / `weyl.apply` aliases.

Imported as a module (by run.py), it only provides layer_metrics(), which
turns the summaries of one traced pass into named values; run.py prints the
ones BENCHMARK.json lists under per_layer.  schur_scope is imported in main()
alone.

Names are `<module>.<function>.<calls|self_s|...>`, with `_matrix` written
`matrix` because a metric name starts with a letter.  What each layer is
expected to move, which is what a change to it is judged by (BENCHMARK.json
allows no such field, so it is kept here):

- matrix.matmul: wall_s on orbit, groups (group order) and certify (loops).
- matrix.matvec: wall_s on certify (root closure, curve roots).
- matrix.inverse: wall_s on groups (nc list); about zero on orbit.
- matrix.rank: wall_s on certify.
- matrix.det: wall_s on groups (classification) and certify (parity prune).
- cartan.classify_type: wall_s on groups (roots list affine-A12).
- weyl.root_of_reflection: wall_s on orbit and certify.
- weyl.reflection_for_root, weyl.positive_real_roots: wall_s on certify.
- weyl.enumerate_group: wall_s on groups.
- weyl._absolute_length_table: wall_s and peak_rss_mb on groups.
- weyl.factor_into_reflections (found_ratio: non-None results over calls):
  wall_s and resolved on certify.
- weyl._reflection_pool.reflections (pool sizes summed over cache misses):
  wall_s and peak_rss_mb on certify.
- hurwitz.braid_move, hurwitz.hurwitz_orbit, hurwitz.orbit.distinct_per_move
  (distinct tuples over braid moves tried): wall_s on orbit.
- hurwitz.Factorization (its __post_init__ product re-check): wall_s on orbit
  and certify.
- hurwitz.is_prefix_of_coxeter (decided_ratio: non-unknown answers over
  calls): wall_s and resolved on certify.
- hurwitz._targeted_orbit_search (nodes, from the returned SearchOutcome):
  wall_s on certify.
- curves.braid_move_curves, curves.reflection_of_curve, curves.is_simple,
  schur.is_schur_root, schur._curve_root_harvest: wall_s on certify.
- ncposet.enumerate_nc (member_ratio: |NC| over |W|): wall_s on groups.
- cli.emit: wall_s on groups (the large nc list JSON).
- cli.import_s: setup_s on every workload.
- <cached function>.cache_hits / cache_misses: wall_s where the cached table
  is reused.
- trace.overhead_ratio: traced over untraced wall_s; moves nothing.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from array import array

# (module, attribute) of every traced function.  Factorization is traced
# through its __post_init__ product re-check.
TRACED = (
    ("_matrix", "matmul"),
    ("_matrix", "matvec"),
    ("_matrix", "inverse"),
    ("_matrix", "rank"),
    ("_matrix", "det"),
    ("cartan", "classify_type"),
    ("weyl", "root_of_reflection"),
    ("weyl", "reflection_for_root"),
    ("weyl", "positive_real_roots"),
    ("weyl", "reflections"),
    ("weyl", "enumerate_group"),
    ("weyl", "_absolute_length_table"),
    ("weyl", "_reflection_pool"),
    ("weyl", "factor_into_reflections"),
    ("hurwitz", "braid_move"),
    ("hurwitz", "Factorization"),
    ("hurwitz", "hurwitz_orbit"),
    ("hurwitz", "_full_orbit"),
    ("hurwitz", "is_prefix_of_coxeter"),
    ("hurwitz", "_targeted_orbit_search"),
    ("curves", "braid_move_curves"),
    ("curves", "reflection_of_curve"),
    ("curves", "is_simple"),
    ("schur", "is_schur_root"),
    ("schur", "_curve_root_harvest"),
    ("ncposet", "enumerate_nc"),
    ("cli", "emit"),
)

# lru_cache'd functions whose cache_info() is reported.
CACHED = (
    "weyl._reflection_pool",
    "weyl.reflections",
    "weyl._absolute_length_table",
    "weyl.enumerate_group",
    "cartan.classify_type",
    "hurwitz._full_orbit",
)


class Tracer:
    """Span recorder: one wrapper per traced function, spans in flat arrays."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}

    def count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, name: str, fn, after=None):
        """fn with a span around each call; after(result) sees each result."""
        name_id = len(self.names)
        self.names.append(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def aggregates(self) -> dict[str, dict[str, float]]:
        """Calls and self time per traced name, computed from the spans."""
        durations = [end - start for start, end in zip(self.span_start, self.span_end)]
        self_times = list(durations)
        for index, parent in enumerate(self.span_parent):
            if parent >= 0:
                self_times[parent] -= durations[index]
        out = {name: {"calls": 0, "self_s": 0.0} for name in self.names}
        for index, name_id in enumerate(self.span_name):
            entry = out[self.names[name_id]]
            entry["calls"] += 1
            entry["self_s"] += self_times[index]
        return out

    def calls_under(self, child: str, parent: str) -> int:
        """Number of `child` spans whose direct parent is a `parent` span."""
        child_id, parent_id = self.names.index(child), self.names.index(parent)
        names = self.span_name
        return sum(
            1
            for index, name_id in enumerate(names)
            if name_id == child_id
            and self.span_parent[index] >= 0
            and names[self.span_parent[index]] == parent_id
        )


def install(tracer: Tracer) -> dict:
    """Wrap every TRACED function wherever it is bound; returns the original
    lru_cache objects by name, for cache_info()."""
    import importlib

    modules = {
        name: importlib.import_module(f"schur_scope.{name}")
        for name in ("_matrix", "cartan", "weyl", "hurwitz", "curves", "schur", "ncposet", "repro", "cli")
    }
    originals = {}
    last_group_size = [0]
    pool_misses = [0]

    def on_pool(result):
        misses = originals["weyl._reflection_pool"].cache_info().misses
        if misses > pool_misses[0]:  # this call built the pool
            pool_misses[0] = misses
            tracer.count("weyl._reflection_pool.reflections", len(result))

    def on_group(result):
        last_group_size[0] = len(result)

    def on_nc(result):
        tracer.count("ncposet.enumerate_nc.members", len(result.elements))
        tracer.count("ncposet.enumerate_nc.group_elements", last_group_size[0])

    hooks = {
        "weyl.factor_into_reflections": lambda r: tracer.count(
            "weyl.factor_into_reflections.found", r is not None
        ),
        "weyl._reflection_pool": on_pool,
        "weyl.enumerate_group": on_group,
        "hurwitz.hurwitz_orbit": lambda r: tracer.count("hurwitz.orbit.distinct", len(r)),
        "hurwitz.is_prefix_of_coxeter": lambda r: tracer.count(
            "hurwitz.is_prefix_of_coxeter.decided", r.answer.value != "unknown"
        ),
        "hurwitz._targeted_orbit_search": lambda r: tracer.count(
            "hurwitz._targeted_orbit_search.nodes", r.nodes
        ),
        "ncposet.enumerate_nc": on_nc,
    }
    for module_name, attr in TRACED:
        name = f"{module_name.lstrip('_')}.{attr}"  # metric names start with a letter
        original = getattr(modules[module_name], attr)
        originals[name] = original
        if attr == "Factorization":
            original.__post_init__ = tracer.wrap(name, original.__post_init__)
            continue
        wrapper = tracer.wrap(name, original, hooks.get(name))
        for module in modules.values():
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
    return {name: originals[name] for name in CACHED}


def main(argv: list[str]) -> int:
    out_path, cli_argv = argv[0], argv[1:]
    start = time.perf_counter()
    from schur_scope import cli  # imports every layer

    import_s = time.perf_counter() - start
    tracer = Tracer()
    cached = install(tracer)
    try:
        return cli.run(cli_argv)
    finally:
        sys.stdout.flush()
        summary = {
            "import_s": import_s,
            "spans": len(tracer.span_name),
            "layers": tracer.aggregates(),
            "counters": tracer.counters,
            "braid_moves_in_orbit": tracer.calls_under("hurwitz.braid_move", "hurwitz.hurwitz_orbit"),
            "cache_info": {
                name: {"hits": fn.cache_info().hits, "misses": fn.cache_info().misses}
                for name, fn in cached.items()
            },
        }
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(summary, handle)


def _ratio(numerator: float, denominator: float) -> float:
    """0.0 where the layer never ran on the workload."""
    return numerator / denominator if denominator else 0.0


def layer_metrics(summaries: list[dict], overhead_ratio: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from the summary of each command."""
    totals: dict[str, float] = {}
    counters: dict[str, float] = {}
    for summary in summaries:
        for name, entry in summary["layers"].items():
            for field in ("calls", "self_s"):
                key = f"{name}.{field}"
                totals[key] = totals.get(key, 0) + entry[field]
        for key, value in summary["counters"].items():
            counters[key] = counters.get(key, 0) + value
        counters["braid_moves_in_orbit"] = (
            counters.get("braid_moves_in_orbit", 0) + summary["braid_moves_in_orbit"]
        )
        for name, info in summary["cache_info"].items():
            for kind in ("hits", "misses"):
                key = f"{name}.cache_{kind}"
                totals[key] = totals.get(key, 0) + info[kind]
    derived = {
        "weyl.factor_into_reflections.found_ratio": _ratio(
            counters.get("weyl.factor_into_reflections.found", 0),
            totals["weyl.factor_into_reflections.calls"],
        ),
        "weyl._reflection_pool.reflections": counters.get("weyl._reflection_pool.reflections", 0),
        "hurwitz.orbit.distinct_per_move": _ratio(
            counters.get("hurwitz.orbit.distinct", 0), counters["braid_moves_in_orbit"]
        ),
        "hurwitz.is_prefix_of_coxeter.decided_ratio": _ratio(
            counters.get("hurwitz.is_prefix_of_coxeter.decided", 0),
            totals["hurwitz.is_prefix_of_coxeter.calls"],
        ),
        "hurwitz._targeted_orbit_search.nodes": counters.get("hurwitz._targeted_orbit_search.nodes", 0),
        "ncposet.enumerate_nc.member_ratio": _ratio(
            counters.get("ncposet.enumerate_nc.members", 0),
            counters.get("ncposet.enumerate_nc.group_elements", 0),
        ),
        "cli.import_s": statistics.median(s["import_s"] for s in summaries),
        "trace.overhead_ratio": overhead_ratio,
    }
    return {**totals, **derived}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
