"""Seeded inputs, timed operations and output checks of the benchmark.

Every call into ``failover`` goes through a module attribute
(``metrics.build_variant``, ``dataplane.simulate``, ...), so that the traced
run can replace it with a wrapper; the untraced run calls the originals.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Callable, Optional

import reference
from failover import dataplane, metrics, rules, topology
from failover.topology import NO_FAILURE, FailureScenario, Link, Topology

# The JSON text codec of the compute and simulate paths, looked up here so
# that the tracer can attribute it to the rules layer.
json_dumps = json.dumps
json_loads = json.loads

ALL_VARIANTS = ("per-link", "per-node", "hybrid", "disjoint-link", "disjoint-node")
PROTECTION = ALL_VARIANTS[:3]
# Failure kind each variant is built to survive; queries fail an element of
# that kind on the packet's primary path, as ``measure`` does.
_NODE_VARIANTS = {"per-node", "hybrid", "disjoint-node"}


@dataclass(frozen=True)
class Plan:
    """A workload: one topology per entry of ``sizes``, all run in each pass."""

    generator: str  # "er" | "lattice" | "waxman"
    sizes: tuple[int, ...]
    variants: tuple[str, ...]
    unweighted: bool
    measure: bool  # build then measure every matrix (the evaluate path)
    queries: int  # per topology; >0 also serialises every matrix (the compute path)
    links: int = 0  # exact link count of every topology; 0 takes what the generator gives

    @property
    def key(self) -> str:
        links = f"/m{self.links}" if self.links else ""
        return ",".join(map(str, self.sizes)) + f"/q{self.queries}" + links


PLANS = {
    "evaluate-er": Plan("er", (25,) * 12, ALL_VARIANTS, False, True, 0, links=78),
    "protect-lattice": Plan("lattice", (49, 64), PROTECTION, True, True, 0),
    "compute-query": Plan("waxman", (49,), ALL_VARIANTS, False, False, 25, links=267),
}

# n≈9 versions of the same workloads, for the benchmark's self-test.
TINY_PLANS = {
    "evaluate-er": Plan("er", (9,), ALL_VARIANTS, False, True, 0),
    "protect-lattice": Plan("lattice", (9,), PROTECTION, True, True, 0),
    "compute-query": Plan("waxman", (9,), ALL_VARIANTS, False, False, 10),
}

_GENERATORS = {
    "er": ("erdos-renyi", "generate_erdos_renyi"),
    "lattice": ("lattice", "generate_lattice"),
    "waxman": ("waxman", "generate_waxman"),
}


@dataclass
class Item:
    """One generated topology of a run."""

    size: int
    seed: int
    topology: Topology
    text: Optional[str]  # stored edge-list text, for the simulate path


def _relabel(t: Topology, rng: random.Random) -> Topology:
    """Seeded node numbering.  A unit-weight lattice is otherwise the same
    graph for every seed; renumbering changes which equal-cost path the
    smallest-node-id tie-break picks."""
    perm = list(t.nodes)
    rng.shuffle(perm)
    return Topology(t.n, [Link(perm[l.u], perm[l.v], l.weight) for l in t.links])


def generate(plan: Plan, seed: int) -> list[Item]:
    """The topologies of a run; a pure function of ``(plan, seed)``.

    With ``plan.links`` set, graphs are drawn until one has exactly that many
    links: the cost of a build grows with the link count, which would
    otherwise vary between seeds by a tenth or more.
    """
    master = random.Random(seed)
    generator = getattr(topology, _GENERATORS[plan.generator][1])
    items = []
    for size in plan.sizes:
        while True:
            topo_seed = master.randrange(2**63)
            t = generator(size, topo_seed)
            if not plan.links or len(t.links) == plan.links:
                break
        if plan.generator == "lattice":
            t = _relabel(t, random.Random(topo_seed))
        if plan.unweighted:
            t = topology.unit_weights(t)
        text = topology.dumps_topology(t) if plan.queries else None
        items.append(Item(size, topo_seed, t, text))
    return items


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _canonical(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _row_dict(row) -> dict:
    """A metrics row without its wall-clock field, NaN as null."""
    return {
        k: (None if isinstance(v, float) and math.isnan(v) else v)
        for k, v in vars(row).items()
        if k != "compute_seconds"
    }


def sp_budget(t: Topology, variant: str) -> Optional[int]:
    """Shortest-path invocations one protection build must report."""
    links = len(t.links)
    return {"per-link": t.n + 2 * links, "per-node": t.n + 2 * links,
            "hybrid": t.n + 4 * links}.get(variant)


class CheckError(Exception):
    """An operation returned a wrong or inconsistent result."""


def check_matrix(fw, t: Topology, variant: str, delivery: bool) -> None:
    """Checks on a built matrix that need no recorded digest: it is valid,
    keeps the shortest-path budget, and, if ``delivery``, delivers every
    pair when nothing has failed, since every variant installs a primary
    rule for every ordered pair."""
    fw.validate()
    if delivery:
        for src in t.nodes:
            for dst in t.nodes:
                if src != dst:
                    trace = dataplane.simulate(fw, t, NO_FAILURE, src, dst)
                    if trace.outcome != dataplane.DELIVERED:
                        raise CheckError(f"{src}->{dst} {trace.outcome} with no failure")
    budget = sp_budget(t, variant)
    if budget is not None and fw.stats.get("sp_invocations") != budget:
        raise CheckError(
            f"sp_invocations {fw.stats.get('sp_invocations')} != budget {budget}"
        )


def _query_spec(rng: random.Random, fw, t: Topology, variant: str):
    """A seeded single-packet query: endpoints, and a failure of the kind
    ``variant`` protects against on the packet's primary path (or none)."""
    src, dst = rng.sample(range(t.n), 2)
    path = dataplane.simulate(fw, t, FailureScenario.none(), src, dst).node_sequence
    kind = rng.choice(("none", "fail", "fail"))
    if kind == "fail" and variant in _NODE_VARIANTS and len(path) > 2:
        return src, dst, FailureScenario.node_down(rng.choice(path[1:-1]))
    if kind == "fail" and variant not in _NODE_VARIANTS and len(path) > 1:
        i = rng.randrange(len(path) - 1)
        return src, dst, FailureScenario.link_down(path[i], path[i + 1])
    return src, dst, FailureScenario.none()


def _trace_key(trace) -> list:
    return [trace.outcome, list(trace.node_sequence), repr(trace.total_weight),
            repr(trace.crankback_weight)]


def query(text: str, matrix_json: str, scenario: FailureScenario, src: int, dst: int):
    """What ``failover simulate`` does for one packet, from stored text."""
    t = topology.loads_topology(text)
    fw = rules.ForwardingMatrix.from_json(json_loads(matrix_json), t)
    return dataplane.simulate(fw, t, scenario, src, dst)


class Recorder:
    """Times operations and collects their latencies and failures.

    Load is a closed loop from one caller: each operation starts only after
    the previous one has returned.  Checks run between operations, outside
    every timed interval.  Each operation is bracketed by runs of the
    reference kernel, outside its timed interval, and is kept both as wall
    time and in reference seconds, one entry per pass, so that each
    operation's passes can be compared.
    """

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.latency_ns: dict[tuple, list[int]] = {}
        self.reference_s: dict[tuple, list[float]] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.tracer = None

    def timed(self, op: tuple, fn: Callable, *args):
        """Time ``fn(*args)`` as operation ``op``, whose first item is its kind."""
        tracer = self.tracer
        before = reference.sample_ns()
        if tracer is not None:
            tracer.begin_op(op[0])
        start = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            elapsed = time.perf_counter_ns() - start
            if tracer is not None:
                tracer.end_op()
            around = before + reference.sample_ns()
            self.latency_ns.setdefault(op, []).append(elapsed)
            self.reference_s.setdefault(op, []).append(reference.to_reference_s(elapsed, around))

    def fail(self, where: str, exc: BaseException) -> None:
        self.failures.append(f"{self.workload} {where}: {type(exc).__name__}: {exc}")
        if not isinstance(exc, CheckError):
            traceback.print_exception(exc, file=sys.stderr)


def run_pass(plan: Plan, items: list[Item], seed: int, rec: Recorder,
             queries: dict, first: bool) -> list[str]:
    """One pass over the run's topologies; returns one hash per operation.

    ``queries`` caches each topology's query stream and reference traces, so
    that every pass repeats the same queries.  The delivery check runs on
    the ``first`` pass only; every other pass must hash the same matrices.
    """
    network = _GENERATORS[plan.generator][0]
    hashes: list[str] = []
    for item in items:
        # A fresh object per pass: nothing cached on a topology carries over.
        t = Topology(item.topology.n, item.topology.links)
        built: dict[str, object] = {}
        texts: dict[str, str] = {}
        for variant in plan.variants:
            where = f"size={item.size} seed={seed} topology_seed={item.seed} variant={variant}"
            rec.attempted += 1
            try:
                fw = rec.timed(("build", item.seed, variant), metrics.build_variant, t, variant)
                if plan.queries:
                    texts[variant] = rec.timed(
                        ("serialise", item.seed, variant),
                        lambda: json_dumps(fw.to_json(), indent=1, sort_keys=True),
                    )
                check_matrix(fw, t, variant, delivery=first)
                if plan.queries:
                    # from_json(to_json(fw)).to_json() == fw.to_json(), as JSON values
                    stored = json.loads(texts[variant])
                    if rules.ForwardingMatrix.from_json(stored, t).to_json() != stored:
                        raise CheckError("from_json(to_json(fw)).to_json() != fw.to_json()")
                hashes.append(_sha(_canonical(fw.to_json())))
                built[variant] = fw
            except Exception as exc:  # boundary: record, keep measuring
                rec.fail(f"build {where}", exc)
                hashes.append("failed")
            if not plan.measure:
                continue
            rec.attempted += 1
            try:
                if variant not in built:
                    raise CheckError("no matrix to measure")
                row = rec.timed(("measure", item.seed, variant),
                                metrics.measure, built[variant], t, network)
                if row.loop_traces:
                    raise CheckError(f"{row.loop_traces:g} simulations ended in a loop")
                hashes.append(_sha(_canonical(_row_dict(row))))
            except Exception as exc:
                rec.fail(f"measure {where}", exc)
                hashes.append("failed")
        if plan.queries:
            hashes.extend(_run_queries(plan, item, seed, t, built, texts, rec, queries))
    return hashes


def _run_queries(plan, item, seed, t, built, texts, rec, cache) -> list[str]:
    if item.seed not in cache:
        rng = random.Random(item.seed)
        specs = []
        for q in range(plan.queries):
            variant = plan.variants[q % len(plan.variants)]  # fixed variant mix
            fw = built.get(variant)
            if fw is None:
                specs.append((variant, None, None))
                continue
            src, dst, scenario = _query_spec(rng, fw, t, variant)
            reference = dataplane.simulate(fw, t, scenario, src, dst)
            specs.append((variant, (src, dst, scenario), _trace_key(reference)))
        cache[item.seed] = specs
    hashes = []
    for index, (variant, spec, expected) in enumerate(cache[item.seed]):
        rec.attempted += 1
        where = f"query size={item.size} seed={seed} topology_seed={item.seed} variant={variant}"
        try:
            if spec is None or variant not in texts:
                raise CheckError("no matrix to query")
            src, dst, scenario = spec
            trace = rec.timed(("query", item.seed, index),
                              query, item.text, texts[variant], scenario, src, dst)
            got = _trace_key(trace)
            if trace.outcome == dataplane.LOOP:
                raise CheckError(f"{scenario} {src}->{dst} ended in a loop")
            if got != expected:
                raise CheckError(f"{scenario} {src}->{dst} gave {got}, expected {expected}")
            hashes.append(_sha(_canonical(got)))
        except Exception as exc:
            rec.fail(where, exc)
            hashes.append("failed")
    return hashes


def evaluate_digest(plan: Plan, seed: int) -> str:
    """Hash of a small ``run_experiment`` on the workload's generator and
    variants: its aggregated CSV and per-run rows, without wall times."""
    config = metrics.ExperimentConfig(
        generator=plan.generator, sizes=(9, 16), runs=2, seed=seed,
        variants=plan.variants, unweighted=plan.unweighted,
    )
    report = metrics.run_experiment(config)
    rows = [_row_dict(row) for row in report.rows]
    return _sha(report.to_csv() + _canonical(rows))


def result_digest(op_hashes: list[str], evaluate: str) -> str:
    return _sha("\n".join(op_hashes + [evaluate]))
