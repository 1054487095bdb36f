"""Span tracer for the traced benchmark run.

The tracer replaces public functions of each ``failover`` layer, at the
module attribute their caller looks them up by, with a wrapper that records
a span (name, parent, start, end) and a few counters.  Nothing inside
``src/`` is changed: uninstalling the tracer puts the original objects back.
A name that no longer exists is reported as absent, and every layer metric
that depends on it reads ``None``; the run itself goes on.

Spans are recorded only while a benchmark operation is open, so the checks
that the benchmark runs between operations leave no trace.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from collections import Counter
from typing import Callable, Optional

# Layers, named after the modules of ``failover``.  A span's layer is the
# part of its name before the first dot; "op" spans are the benchmark's own.
LAYERS = ("topology", "spf", "protect", "baseline", "rules", "dataplane", "metrics")


def _full_tree(counters, args, kwargs, result):
    # shortest_tree(t, src, excluded=NO_FAILURE, targets=None, counter=None)
    excluded = kwargs.get("excluded", args[2] if len(args) > 2 else None)
    targets = kwargs.get("targets", args[3] if len(args) > 3 else None)
    if targets is None and (excluded is None or excluded.kind == "none"):
        counters["spf.full_trees"] += 1


def _protect_build(counters, args, kwargs, result):
    counters["spf.sp_invocations"] += result.stats.get("sp_invocations", 0)


def _optimize(counters, args, kwargs, result):
    counters["protect.rules_before_optimize"] += result.stats.get("rules_before_optimize", 0)
    counters["protect.rules"] += result.rule_count()


def _baseline_build(counters, args, kwargs, result):
    counters["baseline.rules"] += result.rule_count()


def _simulate(counters, args, kwargs, result):
    delivered = result.outcome == "delivered"
    counters["dataplane.delivered"] += delivered
    # A delivered trace ends with a terminal step that crosses no link.
    counters["dataplane.hops"] += len(result.steps) - delivered


def _json_dumps(counters, args, kwargs, result):
    counters["rules.json_bytes"] += len(result)


# (module, attribute, span name, counter hook).  One span name may cover
# several attributes: the same function is looked up from several modules.
TARGETS: tuple[tuple[str, str, str, Optional[Callable]], ...] = (
    ("failover.topology", "generate_erdos_renyi", "topology.generate", None),
    ("failover.topology", "generate_lattice", "topology.generate", None),
    ("failover.topology", "generate_waxman", "topology.generate", None),
    ("failover.topology", "is_two_connected", "topology.two_connected", None),
    ("failover.topology", "unit_weights", "topology.unit_weights", None),
    ("failover.topology", "loads_topology", "topology.parse", None),
    ("failover.spf", "shortest_tree", "spf.shortest_tree", _full_tree),
    ("failover.protect", "shortest_tree", "spf.shortest_tree", _full_tree),
    ("failover.spf", "all_shortest_trees", "spf.all_shortest_trees", None),
    ("failover.protect", "all_shortest_trees", "spf.all_shortest_trees", None),
    ("failover.baseline", "all_shortest_trees", "spf.all_shortest_trees", None),
    ("failover.metrics", "all_shortest_trees", "spf.all_shortest_trees", None),
    ("failover.protect", "primary_matrix_from_trees", "spf.primary_matrix", None),
    ("failover.spf", "lex_dijkstra", "spf.lex_dijkstra", None),
    ("failover.baseline", "lex_dijkstra", "spf.lex_dijkstra", None),
    ("failover.baseline", "queued_bellman_ford", "spf.bellman_ford", None),
    ("failover.baseline", "bellman_ford_distances", "spf.bellman_ford", None),
    ("failover.metrics", "per_link_rules", "protect.build", _protect_build),
    ("failover.metrics", "per_node_rules", "protect.build", _protect_build),
    ("failover.metrics", "hybrid_rules", "protect.build", _protect_build),
    ("failover.metrics", "optimize", "protect.optimize", _optimize),
    ("failover.metrics", "disjoint_rules", "baseline.build", _baseline_build),
    ("failover.baseline", "_disjoint_pair", "baseline.pair", None),
    ("failover.rules", "ForwardingMatrix.to_json", "rules.to_json", None),
    ("failover.rules", "ForwardingMatrix.from_json", "rules.from_json", None),
    # The JSON text codec of the compute and simulate paths; the benchmark
    # looks these up in its own module.
    ("workloads", "json_dumps", "rules.json_codec", _json_dumps),
    ("workloads", "json_loads", "rules.json_codec", None),
    ("failover.dataplane", "simulate", "dataplane.simulate", _simulate),
    ("failover.metrics", "simulate", "dataplane.simulate", _simulate),
    ("failover.metrics", "measure", "metrics.measure", None),
    ("failover.metrics", "build_variant", "metrics.build_variant", None),
)


class Tracer:
    """In-memory span recorder with per-pass counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # Four int64 per span: name id, parent span index, start ns, end ns.
        self.spans = array("q")
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.active = False
        self.present: set[str] = set()
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        self.present.clear()
        self.absent.clear()
        for module_name, attr, span_name, hook in TARGETS:
            owner_path, _, leaf = attr.rpartition(".")
            try:
                owner = importlib.import_module(module_name)
                for part in filter(None, owner_path.split(".")):
                    owner = getattr(owner, part)
                original = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
            except (ImportError, AttributeError, KeyError):
                self.absent.append(f"{module_name}.{attr}")
                continue
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(span_name, original.__func__, hook))
            else:
                wrapped = self._wrap(span_name, original, hook)
            setattr(owner, leaf, wrapped)
            self._patches.append((owner, leaf, original))
            self.present.add(span_name)

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self._patches):
            setattr(owner, leaf, original)
        self._patches.clear()

    def _wrap(self, name: str, fn: Callable, hook: Optional[Callable]) -> Callable:
        name_id = self._name_id(name)
        spans, stack, counters = self.spans, self.stack, self.counters
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(spans) >> 2
            spans.extend((name_id, stack[-1] if stack else -1, clock(), 0))
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[4 * index + 3] = clock()
                stack.pop()
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        return wrapper

    # -- benchmark operations ---------------------------------------------

    def begin_op(self, kind: str) -> None:
        index = len(self.spans) >> 2
        self.spans.extend((self._name_id(f"op.{kind}"), -1, time.perf_counter_ns(), 0))
        self.stack.append(index)
        self.active = True

    def end_op(self) -> None:
        self.active = False
        index = self.stack.pop()
        self.spans[4 * index + 3] = time.perf_counter_ns()

    def mark(self) -> tuple[int, Counter]:
        """Span index and counters at this point; see :meth:`summary`."""
        return len(self.spans) >> 2, Counter(self.counters)

    # -- results -----------------------------------------------------------

    def summary(self, since: tuple[int, Counter]) -> dict:
        """Calls, inclusive time and self time per span name, plus counters,
        for the spans recorded after ``since`` (a :meth:`mark`)."""
        lo, before = since
        hi = len(self.spans) >> 2
        spans = self.spans
        duration = [spans[4 * i + 3] - spans[4 * i + 2] for i in range(lo, hi)]
        own = list(duration)
        for i in range(lo, hi):
            parent = spans[4 * i + 1]
            if parent >= lo:
                own[parent - lo] -= duration[i - lo]
        calls: Counter = Counter()
        total: Counter = Counter()
        self_ns: Counter = Counter()
        for i in range(lo, hi):
            name = self.names[spans[4 * i]]
            calls[name] += 1
            total[name] += duration[i - lo]
            self_ns[name] += own[i - lo]
        counters = Counter(self.counters)
        counters.subtract(before)
        return {"calls": calls, "total_ns": total, "self_ns": self_ns, "counters": counters}

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tparent\tname\tstart_ns\tend_ns\n")
            spans = self.spans
            for i in range(len(spans) >> 2):
                name_id, parent, start, end = spans[4 * i : 4 * i + 4]
                fh.write(f"{i}\t{parent}\t{self.names[name_id]}\t{start}\t{end}\n")


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith("us_per_hop"):
        return "us"
    return "count"


def layer_metrics(tracer: Tracer, summary: dict) -> dict[str, Optional[float]]:
    """Per-layer metrics of one traced pass; ``None`` where a wrapped name
    the metric needs is absent."""
    calls, total, own, counters = (
        summary["calls"], summary["total_ns"], summary["self_ns"], summary["counters"]
    )

    def have(*names: str) -> bool:
        return all(name in tracer.present for name in names)

    def seconds(table: Counter, name: str) -> Optional[float]:
        return table[name] / 1e9 if have(name) else None

    def count(value, *names: str) -> Optional[int]:
        return int(value) if have(*names) else None

    hops = counters["dataplane.hops"]
    sims = calls["dataplane.simulate"]
    out: dict[str, Optional[float]] = {
        "spf.shortest_tree_calls": count(calls["spf.shortest_tree"], "spf.shortest_tree"),
        "spf.full_trees": count(counters["spf.full_trees"], "spf.shortest_tree"),
        "spf.shortest_tree_s": seconds(total, "spf.shortest_tree"),
        "spf.sp_invocations": count(counters["spf.sp_invocations"], "protect.build"),
        "spf.lex_dijkstra_calls": count(calls["spf.lex_dijkstra"], "spf.lex_dijkstra"),
        "spf.lex_dijkstra_s": seconds(total, "spf.lex_dijkstra"),
        "spf.bellman_ford_calls": count(calls["spf.bellman_ford"], "spf.bellman_ford"),
        "spf.bellman_ford_s": seconds(total, "spf.bellman_ford"),
        "protect.build_self_s": seconds(own, "protect.build"),
        "protect.optimize_s": seconds(total, "protect.optimize"),
        "protect.rules_before_optimize": count(
            counters["protect.rules_before_optimize"], "protect.optimize"
        ),
        "protect.rules": count(counters["protect.rules"], "protect.optimize"),
        # Self time of the baseline layer in a build, pair solves included.
        "baseline.build_self_s": (
            (own["baseline.build"] + own["baseline.pair"]) / 1e9
            if have("baseline.build", "baseline.pair") else None
        ),
        "baseline.pairs": count(calls["baseline.pair"], "baseline.pair"),
        "baseline.rules": count(counters["baseline.rules"], "baseline.build"),
        "rules.to_json_s": seconds(total, "rules.to_json"),
        "rules.from_json_s": seconds(total, "rules.from_json"),
        "rules.json_codec_s": seconds(total, "rules.json_codec"),
        "rules.json_bytes": count(counters["rules.json_bytes"], "rules.json_codec"),
        "dataplane.simulate_calls": count(sims, "dataplane.simulate"),
        "dataplane.simulate_s": seconds(total, "dataplane.simulate"),
        "dataplane.hops": count(hops, "dataplane.simulate"),
        "dataplane.us_per_hop": (
            total["dataplane.simulate"] / 1e3 / hops
            if have("dataplane.simulate") and hops else None
        ),
        "dataplane.delivered_ratio": (
            counters["dataplane.delivered"] / sims if have("dataplane.simulate") and sims else None
        ),
        "metrics.measure_self_s": seconds(own, "metrics.measure"),
        "topology.parse_s": seconds(total, "topology.parse"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(v for k, v in own.items() if k.startswith(layer + ".")) / 1e9
    op_ns = sum(ns for name, ns in total.items() if name.startswith("op."))
    layer_ns = sum(ns for name, ns in own.items() if not name.startswith("op."))
    out["trace.coverage_ratio"] = layer_ns / op_ns if op_ns else None
    return out


def report(tracer: Tracer, setup: dict, traced: dict,
           untraced_s: float, traced_s: float) -> dict:
    """The traced run's metrics as ``{name: {"value", "unit"}}``: layer
    metrics of the traced pass, generation metrics of the set-up, and the
    tracing overhead on that pass."""
    values = layer_metrics(tracer, traced)
    generate = "topology.generate" in tracer.present
    values["topology.generate_calls"] = setup["calls"]["topology.generate"] if generate else None
    values["topology.generate_s"] = setup["total_ns"]["topology.generate"] / 1e9 if generate else None
    values["topology.two_connected_checks"] = (
        setup["calls"]["topology.two_connected"]
        if "topology.two_connected" in tracer.present else None
    )
    values["trace.overhead_ratio"] = traced_s / untraced_s
    values["trace.absent_names"] = len(tracer.absent)
    return {name: {"value": v, "unit": _unit(name)} for name, v in values.items()}
