"""Evaluation harness: per-matrix metrics and the experiment runner.

``measure`` reproduces the evaluation methodology: count flow entries, group
forwards and distinct groups; take every pair's primary path and, for each
link (or node, depending on the matrix family) on it, simulate that element
failing and relate the delivered and crankback weights to the pair's
shortest distance.  ``run_experiment`` generates topologies, builds all
requested configurations, measures them, and aggregates means per network
size, deterministically for a given master seed.
"""

from __future__ import annotations

import json
import math
import random
import time
from dataclasses import dataclass, field, fields, replace
from statistics import fmean
from typing import Callable, NamedTuple

from .baseline import disjoint_rules
from .dataplane import LOOP, compile_matrix, simulate
from .protect import hybrid_rules, optimize, per_link_rules, per_node_rules
from .rules import MODE_DISJOINT_NODE, MODE_HYBRID, MODE_PER_NODE, ForwardingMatrix
# Unused here; bound so that perfbench/tracing.py finds it by this name.
from .spf import all_shortest_trees  # noqa: F401
from .topology import (
    NO_FAILURE,
    FailureScenario,
    GenerationError,
    Topology,
    check_lattice_size,
    check_node_count,
    check_positive_weights,
    generate_erdos_renyi,
    generate_lattice,
    generate_waxman,
    unit_weights,
)

__all__ = [
    "MetricsRow",
    "ExperimentConfig",
    "ExperimentReport",
    "measure",
    "run_experiment",
    "CSV_HEADER",
    "ALL_VARIANTS",
    "build_variant",
]

CSV_HEADER = (
    "network,variant,size,flow_entries,group_fwd_entries,distinct_groups,"
    "primary_ratio,backup_avg,backup_min,backup_max,crankback_avg,crankback_max"
)

ALL_VARIANTS = ("per-link", "per-node", "hybrid", "disjoint-link", "disjoint-node")

# Matrices whose backup behavior is exercised with node failures; the rest
# are exercised with link failures.  Hybrid results are reported for node
# failures: under pure link failures they equal the per-link results by
# construction.
_NODE_FAILURE_MODES = {MODE_PER_NODE, MODE_HYBRID, MODE_DISJOINT_NODE}


@dataclass
class MetricsRow:
    network: str
    variant: str
    size: int
    flow_entries: float
    group_fwd_entries: float
    distinct_groups: float
    primary_ratio: float
    backup_avg: float
    backup_min: float
    backup_max: float
    crankback_avg: float
    crankback_max: float
    # Not part of the fixed CSV schema; carried in the JSON report.
    base_entries: float = 0.0
    extra_entries: float = 0.0
    uncovered_cases: float = 0.0
    loop_traces: float = 0.0
    compute_seconds: float = 0.0

    def csv_line(self) -> str:
        def num(x: float) -> str:
            if isinstance(x, float):
                return "nan" if math.isnan(x) else f"{x:.6f}"
            return str(x)

        return ",".join(num(getattr(self, name)) for name in CSV_HEADER.split(","))


def _on_path_scenarios(mode: str, sequence: tuple[int, ...],
                       made: dict) -> list[FailureScenario]:
    """The failures to test on one primary path; ``made`` holds the
    scenarios of ``t``'s nodes and links, keyed by node and by arc."""
    if mode in _NODE_FAILURE_MODES:
        # Endpoints are excluded: the source is the sender and a failed
        # destination is undeliverable by definition.
        return [made.get(v) or FailureScenario.node_down(v) for v in sequence[1:-1]]
    return [made.get(arc) or FailureScenario.link_down(*arc) for arc in zip(sequence, sequence[1:])]


def measure(fw: ForwardingMatrix, t: Topology, network: str = "custom") -> MetricsRow:
    """Metrics for one forwarding configuration over one topology.

    ``fw`` is compiled once for this call (:func:`compile_matrix`) and every
    trace walks the compiled form; nothing is kept after the call returns.
    Traces are walked destination by destination, the order in which the
    compiled walk reuses the suffixes it remembers per destination.  The
    row does not depend on that order: means are ``fmean`` (an exactly
    rounded sum over the count) and the rest are minima, maxima and counts.
    A link of weight zero raises ``ValueError`` before any work is done.
    """
    check_positive_weights(t)
    trees = t.shortest_paths().trees
    compiled = compile_matrix(fw, t)
    scenarios: dict = {v: FailureScenario.node_down(v) for v in t.nodes}
    for link in t.links:
        scenarios[link.u, link.v] = scenarios[link.v, link.u] = FailureScenario.link_down(
            link.u, link.v)
    primary_ratios: list[float] = []
    backup_avgs: list[float] = []
    backup_mins: list[float] = []
    backup_maxs: list[float] = []
    crank_avgs: list[float] = []
    crank_maxs: list[float] = []
    uncovered = 0
    loops = 0
    for d in t.nodes:
        for s in t.nodes:
            if s == d:
                continue
            oracle = trees[s].dist.get(d)
            if oracle is None:
                uncovered += 1
                continue
            primary = simulate(compiled, t, NO_FAILURE, s, d)
            if primary.outcome == LOOP:
                loops += 1
            if not primary.delivered:
                uncovered += 1
                continue
            primary_ratios.append(primary.total_weight / oracle)
            pair_ratios: list[float] = []
            pair_cranks: list[float] = []
            for scenario in _on_path_scenarios(fw.mode, primary.node_sequence, scenarios):
                trace = simulate(compiled, t, scenario, s, d)
                if trace.outcome == LOOP:
                    loops += 1
                if trace.delivered:
                    pair_ratios.append(trace.total_weight / oracle)
                    pair_cranks.append(trace.crankback_weight / oracle)
                else:
                    uncovered += 1
            if pair_ratios:
                backup_avgs.append(fmean(pair_ratios))
                backup_mins.append(min(pair_ratios))
                backup_maxs.append(max(pair_ratios))
                crank_avgs.append(fmean(pair_cranks))
                crank_maxs.append(max(pair_cranks))
    nan = float("nan")
    base = t.n * (t.n - 1)
    flow = fw.rule_count()
    return MetricsRow(
        network=network,
        variant=fw.mode,
        size=t.n,
        flow_entries=float(flow),
        group_fwd_entries=float(fw.group_forwarding_count()),
        distinct_groups=float(fw.distinct_group_count()),
        primary_ratio=fmean(primary_ratios) if primary_ratios else nan,
        backup_avg=fmean(backup_avgs) if backup_avgs else nan,
        backup_min=fmean(backup_mins) if backup_mins else nan,
        backup_max=fmean(backup_maxs) if backup_maxs else nan,
        crankback_avg=fmean(crank_avgs) if crank_avgs else nan,
        crankback_max=fmean(crank_maxs) if crank_maxs else nan,
        base_entries=float(base),
        extra_entries=float(flow - base),
        uncovered_cases=float(uncovered),
        loop_traces=float(loops),
    )


def build_variant(t: Topology, variant: str, optimized: bool = True) -> ForwardingMatrix:
    """Build one named configuration for ``t``.  An optimized protection
    matrix is built without the pop rules ``optimize`` deletes."""
    if variant == "per-link":
        fw = per_link_rules(t, install_pops=not optimized)
    elif variant == "per-node":
        fw = per_node_rules(t, install_pops=not optimized)
    elif variant == "hybrid":
        fw = hybrid_rules(t, install_pops=not optimized)
    elif variant == "disjoint-link":
        return disjoint_rules(t, "link")
    elif variant == "disjoint-node":
        return disjoint_rules(t, "node")
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return optimize(fw, t) if optimized else fw


class _Generator(NamedTuple):
    network: str
    make: Callable[[int, int], Topology]  # (n, seed) -> topology
    check_size: Callable[[int], None]  # raises ValueError for a size make rejects


_GENERATORS: dict[str, _Generator] = {
    "er": _Generator("erdos-renyi", generate_erdos_renyi, check_node_count),
    "erdos-renyi": _Generator("erdos-renyi", generate_erdos_renyi, check_node_count),
    "lattice": _Generator("lattice", generate_lattice, check_lattice_size),
    "waxman": _Generator("waxman", generate_waxman, check_node_count),
}


@dataclass
class ExperimentConfig:
    generator: str = "er"
    sizes: tuple[int, ...] = (9, 16, 25)
    runs: int = 10
    seed: int = 0
    variants: tuple[str, ...] = ALL_VARIANTS
    optimized: bool = True
    unweighted: bool = False
    jobs: int = 1

    def network_name(self) -> str:
        if self.generator not in _GENERATORS:
            raise ValueError(f"unknown generator {self.generator!r}")
        return _GENERATORS[self.generator].network

    def validate(self) -> None:
        """Raise ``ValueError`` for a configuration no run can carry out,
        before anything is generated."""
        self.network_name()
        if self.runs < 1:
            raise ValueError(f"runs must be at least 1, got {self.runs}")
        if self.jobs < 1:
            raise ValueError(f"jobs must be at least 1, got {self.jobs}")
        for variant in self.variants:
            if variant not in ALL_VARIANTS:
                raise ValueError(f"unknown variant {variant!r}")
        for size in self.sizes:
            try:
                _GENERATORS[self.generator].check_size(size)
            except ValueError as exc:
                raise ValueError(f"size {size}: {exc}") from None


@dataclass
class ExperimentReport:
    config: ExperimentConfig
    rows: list[MetricsRow] = field(default_factory=list)  # one per (size, run, variant)
    aggregates: list[MetricsRow] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def total_loop_traces(self) -> float:
        return sum(row.loop_traces for row in self.rows)

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        lines.extend(row.csv_line() for row in self.aggregates)
        return "\n".join(lines) + "\n"

    def to_json(self) -> dict:
        def row_dict(row: MetricsRow) -> dict:
            return {k: (None if isinstance(v, float) and math.isnan(v) else v)
                    for k, v in vars(row).items()}

        return {
            "config": vars(self.config) | {"sizes": list(self.config.sizes),
                                           "variants": list(self.config.variants)},
            "aggregates": [row_dict(r) for r in self.aggregates],
            "runs": [row_dict(r) for r in self.rows],
            "notes": self.notes,
        }


def _run_once(args) -> tuple[list[MetricsRow], list[str]]:
    config, size, run_idx, seed = args
    network, make, _check = _GENERATORS[config.generator]
    try:
        t = make(size, seed)
    except GenerationError as exc:
        return [], [f"size={size} run={run_idx} skipped: {exc}"]
    if config.unweighted:
        t = unit_weights(t)
    rows = []
    for variant in config.variants:
        start = time.perf_counter()
        fw = build_variant(t, variant, optimized=config.optimized)
        elapsed = time.perf_counter() - start
        row = measure(fw, t, network=network)
        row.compute_seconds = elapsed
        rows.append(row)
    return rows, []


def _run_indexed(args):
    index, task = args
    return index, _run_once(task)


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Generate, build, simulate, and aggregate; deterministic per seed."""
    config.validate()
    master = random.Random(config.seed)
    tasks = []
    for size in config.sizes:
        for run_idx in range(config.runs):
            tasks.append((config, size, run_idx, master.randrange(2**63)))
    if config.jobs > 1:
        import multiprocessing

        # One task at a time, largest sizes first, so that no worker is left
        # with a long tail of the costliest tasks; results go back in order.
        order = sorted(range(len(tasks)), key=lambda i: -tasks[i][1])
        results = [None] * len(tasks)
        with multiprocessing.Pool(config.jobs) as pool:
            for i, result in pool.imap_unordered(_run_indexed, [(i, tasks[i]) for i in order],
                                                 chunksize=1):
                results[i] = result
    else:
        results = [_run_once(task) for task in tasks]
    report = ExperimentReport(config)
    for rows, notes in results:
        report.rows.extend(rows)
        report.notes.extend(notes)
    report.aggregates = _aggregate(report.rows)
    return report


# Every float field of a row is averaged over its group of runs.
_NUMERIC_FIELDS = tuple(f.name for f in fields(MetricsRow) if f.type in (float, "float"))


def _aggregate(rows: list[MetricsRow]) -> list[MetricsRow]:
    groups: dict[tuple[str, str, int], list[MetricsRow]] = {}
    for row in rows:
        groups.setdefault((row.network, row.variant, row.size), []).append(row)
    variant_order = {v: i for i, v in enumerate(ALL_VARIANTS)}
    out = []
    for key in sorted(groups, key=lambda k: (k[0], variant_order.get(k[1], 99), k[2])):
        bucket = groups[key]
        agg = replace(bucket[0])
        for name in _NUMERIC_FIELDS:
            values = [getattr(r, name) for r in bucket]
            clean = [v for v in values if not math.isnan(v)]
            setattr(agg, name, fmean(clean) if clean else float("nan"))
        out.append(agg)
    return out


def dumps_report_json(report: ExperimentReport) -> str:
    return json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n"
