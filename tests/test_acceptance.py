"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line (visible with ``pytest -s``); the pytest
verdict per test is the authoritative pass/fail signal.  The heavyweight
desk-scale experiment (criterion 7) runs once and is shared with the loop
census of criterion 3.
"""

from __future__ import annotations

import time
from pathlib import Path

import pytest

from failover.baseline import suurballe_link_disjoint, suurballe_node_disjoint
from failover.dataplane import simulate
from failover.metrics import ExperimentConfig, measure, run_experiment
from failover.protect import hybrid_rules, optimize, per_link_rules, per_node_rules
from failover.topology import (
    FailureScenario,
    NO_FAILURE,
    load_topology,
    generate_erdos_renyi,
)

from conftest import complete, square, theta_cut, trap, triangle, weighted_square
from oracles import (
    DetourOracle,
    bhandari_link_disjoint,
    bhandari_node_disjoint,
    brute_best_disjoint_pair,
    path_weight,
)

USNET_PATH = Path(__file__).parent / "data" / "usnet.topo"


@pytest.fixture(scope="module")
def protection(corpus):
    """Unoptimized and optimized matrices for every corpus topology."""
    built = {}
    for name, t in corpus:
        fw_link = per_link_rules(t)
        fw_node = per_node_rules(t)
        fw_hybrid = hybrid_rules(t)
        built[name] = {
            "t": t,
            "per-link": fw_link,
            "per-node": fw_node,
            "hybrid": fw_hybrid,
            "per-link-opt": optimize(fw_link, t),
            "per-node-opt": optimize(fw_node, t),
            "hybrid-opt": optimize(fw_hybrid, t),
            "oracle": DetourOracle(t),
        }
    return built


@pytest.fixture(scope="session")
def desk_experiment():
    """Criterion 7 preset: Erdős–Rényi n=25, 100 runs, fixed seed."""
    start = time.perf_counter()
    report = run_experiment(
        ExperimentConfig(generator="er", sizes=(25,), runs=100, seed=7)
    )
    report.wall_seconds = time.perf_counter() - start
    return report


def _ordered_pairs(t):
    return [(s, d) for s in t.nodes for d in t.nodes if s != d]


def test_criterion_1_per_link_oracle_equivalence(protection):
    checked = 0
    for name, entry in protection.items():
        t, fw, oracle = entry["t"], entry["per-link"], entry["oracle"]
        for link in t.links:
            scenario = FailureScenario.link_down(link.u, link.v)
            for s, d in _ordered_pairs(t):
                expected = oracle.per_link(link, s, d)
                trace = simulate(fw, t, scenario, s, d)
                assert trace.outcome != "loop", (name, link, s, d)
                assert trace.delivered == (expected is not None), (name, link, s, d)
                if expected is not None:
                    assert trace.node_sequence == expected, (name, link, s, d)
                    assert trace.total_weight == path_weight(t, expected)
                checked += 1
    print(f"\nACCEPTANCE 1 PASS: per-link delivered weights equal the "
          f"prefix+detour oracle exactly ({checked} cases)")


def test_criterion_2_per_node_and_hybrid_oracle_equivalence(protection):
    checked = 0
    for name, entry in protection.items():
        t, oracle = entry["t"], entry["oracle"]
        for v in t.nodes:
            scenario = FailureScenario.node_down(v)
            for s, d in _ordered_pairs(t):
                if s == v or d == v:
                    continue
                for variant, expect in (
                    ("per-node", oracle.per_node(v, s, d)),
                    ("hybrid", oracle.hybrid_node(v, s, d)),
                ):
                    trace = simulate(entry[variant], t, scenario, s, d)
                    assert trace.outcome != "loop", (name, variant, v, s, d)
                    assert trace.delivered == (expect is not None), (name, variant, v, s, d)
                    if expect is not None:
                        assert v not in trace.node_sequence
                        assert trace.node_sequence == expect, (name, variant, v, s, d)
                        assert trace.total_weight == path_weight(t, expect)
                    checked += 1
    print(f"\nACCEPTANCE 2 PASS: per-node and hybrid node-failure deliveries "
          f"match the surviving-graph oracle exactly ({checked} cases)")


def test_criterion_3_loop_freedom(protection, desk_experiment):
    # The loop-freedom guarantee covers each scheme operating within its
    # failure model: per-link under link failures, per-node under node
    # failures, hybrid under both (a per-link configuration facing a node
    # failure may legitimately loop; that inadequacy is the whole reason the
    # other two schemes exist).  Optimized matrices are swept as well, and
    # the 100-run desk-scale experiment census is added on top.
    loops = 0
    for entry in protection.values():
        t = entry["t"]
        link_scenarios = [FailureScenario.link_down(l.u, l.v) for l in t.links]
        node_scenarios = [FailureScenario.node_down(v) for v in t.nodes]
        plans = (
            ("per-link", link_scenarios),
            ("per-link-opt", link_scenarios),
            ("per-node", node_scenarios),
            ("per-node-opt", node_scenarios),
            ("hybrid", link_scenarios + node_scenarios),
            ("hybrid-opt", link_scenarios + node_scenarios),
        )
        for variant, scenarios in plans:
            fw = entry[variant]
            for scenario in scenarios:
                for s, d in _ordered_pairs(t):
                    if not scenario.node_is_live(s):
                        continue
                    if simulate(fw, t, scenario, s, d).outcome == "loop":
                        loops += 1
    assert loops == 0
    assert desk_experiment.total_loop_traces == 0
    print("\nACCEPTANCE 3 PASS: zero loop-detected traces across the corpus "
          "sweep and the 100-run n=25 experiment")


def test_criterion_4_primary_path_ratio_exactly_one(protection, desk_experiment):
    for name, entry in protection.items():
        t = entry["t"]
        for variant in ("per-link-opt", "per-node-opt", "hybrid-opt"):
            row = measure(entry[variant], t)
            assert row.primary_ratio == 1.0, (name, variant)
    for row in desk_experiment.aggregates:
        if row.variant in ("per-link", "per-node", "hybrid"):
            assert row.primary_ratio == 1.0, row.variant
    print("\nACCEPTANCE 4 PASS: primary path ratio is exactly 1.0 for every "
          "failure-disjoint configuration")


def test_criterion_5_bhandari_minsum_optimality():
    graphs = [
        ("triangle", triangle()),
        ("square", square()),
        ("weighted-square", weighted_square()),
        ("trap", trap()),
        ("theta", theta_cut()),
        ("k4", complete(4)),
        ("k5", complete(5)),
        ("hybrid6", None),  # placeholder replaced below
    ]
    from conftest import hybrid_upgrade_instance

    graphs[-1] = ("hybrid6", hybrid_upgrade_instance())
    graphs += [(f"er8-{seed}", generate_erdos_renyi(8, seed)) for seed in range(5)]
    checked = 0
    for name, t in graphs:
        for s in t.nodes:
            for d in t.nodes:
                if s >= d:
                    continue
                for solver, cross, node_disjoint in (
                    (bhandari_link_disjoint, suurballe_link_disjoint, False),
                    (bhandari_node_disjoint, suurballe_node_disjoint, True),
                ):
                    pair = solver(t, s, d)
                    best = brute_best_disjoint_pair(t, s, d, node_disjoint)
                    assert (pair is None) == (best is None), (name, s, d)
                    other = cross(t, s, d)
                    assert (pair is None) == (other is None), (name, s, d)
                    if pair is not None:
                        assert pair.total == pytest.approx(best, rel=1e-12, abs=1e-12)
                        assert pair.total == pytest.approx(other.total, rel=1e-12, abs=1e-12)
                    checked += 1
    print(f"\nACCEPTANCE 5 PASS: min-sum pair totals equal brute-force optima "
          f"and the reweighting cross-check agrees ({checked} instances)")


def test_criterion_6_shortest_path_invocation_budget(protection):
    for name, entry in protection.items():
        t = entry["t"]
        budget = t.n + 2 * len(t.links)
        assert entry["per-link"].stats["sp_invocations"] == budget, name
        assert entry["per-node"].stats["sp_invocations"] == budget, name
    print("\nACCEPTANCE 6 PASS: per-link and per-node computations use exactly "
          "|N| + 2*|links| shortest-path invocations on every topology")


def test_criterion_7_desk_scale_direction(desk_experiment):
    rows = {r.variant: r for r in desk_experiment.aggregates}
    for fd, full in (("per-link", "disjoint-link"), ("per-node", "disjoint-node")):
        factor = rows[full].flow_entries / rows[fd].flow_entries
        assert factor >= 5.0, (fd, factor)
        assert rows[fd].backup_avg < rows[full].backup_avg
        assert rows[fd].crankback_avg < rows[full].crankback_avg
    # the flow-entry gap also holds run by run, not just in the mean
    variants = desk_experiment.config.variants
    per_run = [
        {row.variant: row for row in desk_experiment.rows[i : i + len(variants)]}
        for i in range(0, len(desk_experiment.rows), len(variants))
    ]
    for run in per_run:
        assert run["per-link"].flow_entries < run["disjoint-link"].flow_entries
        assert run["per-node"].flow_entries < run["disjoint-node"].flow_entries
    print(
        "\nACCEPTANCE 7 PASS: desk-scale ER n=25 x100 direction holds "
        f"(flow-entry factors {rows['disjoint-link'].flow_entries / rows['per-link'].flow_entries:.1f}/"
        f"{rows['disjoint-node'].flow_entries / rows['per-node'].flow_entries:.1f}, "
        f"backup {rows['per-link'].backup_avg:.3f}<{rows['disjoint-link'].backup_avg:.3f}, "
        f"crankback {rows['per-link'].crankback_avg:.3f}<{rows['disjoint-link'].crankback_avg:.3f}; "
        f"wall {desk_experiment.wall_seconds:.0f}s)"
    )


def test_criterion_8_optimization_soundness(protection):
    shrunk = 0
    for name, entry in protection.items():
        t = entry["t"]
        link_scenarios = [FailureScenario.link_down(l.u, l.v) for l in t.links]
        node_scenarios = [FailureScenario.node_down(v) for v in t.nodes]
        plans = (
            ("per-link", "per-link-opt", link_scenarios),
            ("per-node", "per-node-opt", node_scenarios),
            ("hybrid", "hybrid-opt", link_scenarios + node_scenarios),
        )
        for raw_key, opt_key, scenarios in plans:
            raw, opt = entry[raw_key], entry[opt_key]
            assert opt.rule_count() <= raw.rule_count()
            # A detour that rejoins an unaffected shortest path leaves a pop
            # rule in the raw matrix; stripping must then strictly shrink.
            from failover.rules import PopLabelOutput

            pops = sum(
                1
                for _n, m, a in raw.iter_rules()
                if not m.label.is_primary and isinstance(a, PopLabelOutput)
            )
            if pops:
                assert opt.rule_count() < raw.rule_count(), (name, raw_key)
                shrunk += 1
            for scenario in scenarios + [NO_FAILURE]:
                for s, d in _ordered_pairs(t):
                    if not scenario.node_is_live(s):
                        continue
                    a = simulate(raw, t, scenario, s, d)
                    b = simulate(opt, t, scenario, s, d)
                    assert a.delivered == b.delivered, (name, raw_key, scenario, s, d)
                    if a.delivered:
                        assert a.node_sequence == b.node_sequence
                        assert a.total_weight == b.total_weight
    assert shrunk > 0
    print(f"\nACCEPTANCE 8 PASS: optimization preserves every node sequence and "
          f"strictly shrinks {shrunk} matrices with rejoining detours")


@pytest.mark.skipif(not USNET_PATH.exists(), reason="USnet topology file not supplied")
def test_criterion_9_usnet_conditional():
    t = load_topology(USNET_PATH)
    assert t.n == 24 and len(t.links) == 43
    fw_link = per_link_rules(t)
    fw_node = per_node_rules(t)
    fw_hybrid = hybrid_rules(t)
    base = t.n * (t.n - 1)
    assert base == 552
    report = {
        "link": (fw_link.rule_count() - base, optimize(fw_link, t).rule_count() - base),
        "node": (fw_node.rule_count() - base, optimize(fw_node, t).rule_count() - base),
        "hybrid": (fw_hybrid.rule_count() - base, optimize(fw_hybrid, t).rule_count() - base),
    }
    # Reference counts for the canonical weighted USnet instance; the exact
    # link list and weights vary between sources, so this is informational.
    reference = {"link": (1606, 576), "node": (2078, 487), "hybrid": (3684, 1293)}
    print("\nACCEPTANCE 9: base flow entries = 552 (asserted); additional "
          "entries, informational comparison (computed vs reference):")
    for key, counts in report.items():
        print(f"  {key}: raw {counts[0]} vs {reference[key][0]}, "
              f"optimized {counts[1]} vs {reference[key][1]}")
