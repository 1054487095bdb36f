"""Per-link / per-node / hybrid rule computation and the optimizer."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from failover.dataplane import simulate
from failover.metrics import ALL_VARIANTS, build_variant
from failover.protect import hybrid_rules, optimize, per_link_rules, per_node_rules
from failover.rules import (
    ForwardingMatrix,
    GroupRef,
    Match,
    PRIMARY,
    PopLabelOutput,
    PushLabelOutput,
    link_fail,
    node_fail,
)
from failover.spf import all_shortest_trees
from failover.topology import (
    NO_FAILURE,
    FailureScenario,
    Link,
    Topology,
    generate_erdos_renyi,
    generate_lattice,
    generate_waxman,
    unit_weights,
)

from conftest import hybrid_upgrade_instance, oracle_corpus, path3, square
from oracles import DetourOracle, path_weight


def all_scenarios(t: Topology, family: str):
    if family == "link":
        return [FailureScenario.link_down(l.u, l.v) for l in t.links]
    return [FailureScenario.node_down(v) for v in t.nodes]


class TestPerLink:
    def test_triangle_detour(self, unit_triangle):
        fw = per_link_rules(unit_triangle)
        trace = simulate(fw, unit_triangle, FailureScenario.link_down(0, 2), 0, 2)
        assert trace.delivered
        assert trace.node_sequence == (0, 1, 2)
        assert trace.total_weight == 2.0

    def test_square_detour_revisits_source(self, unit_square):
        fw = per_link_rules(unit_square)
        trace = simulate(fw, unit_square, FailureScenario.link_down(1, 2), 0, 2)
        assert trace.delivered
        assert trace.node_sequence == (0, 1, 0, 3, 2)
        assert trace.total_weight == 4.0

    def test_every_primary_rule_becomes_a_group(self, unit_square):
        fw = per_link_rules(unit_square)
        for node, match, action in fw.iter_rules():
            if match.label == PRIMARY:
                assert isinstance(action, GroupRef)
                buckets = fw.groups[action.group_id].buckets
                assert len(buckets) == 2
                assert isinstance(buckets[1].action, PushLabelOutput)

    def test_invocation_budget_exact(self, corpus):
        for name, t in corpus:
            fw = per_link_rules(t)
            assert fw.stats["sp_invocations"] == t.n + 2 * len(t.links), name

    def test_bridge_topology_records_uncovered(self):
        t = path3()
        fw = per_link_rules(t)
        reasons = {(e.node, e.dst): e.reason for e in fw.uncovered}
        assert reasons[(0, 1)] == "no_detour"
        trace = simulate(fw, t, FailureScenario.link_down(0, 1), 0, 1)
        assert not trace.delivered

    def test_detour_optimality_on_small_corpus(self, corpus):
        for name, t in corpus[:9]:
            oracle = DetourOracle(t)
            fw = per_link_rules(t)
            for link in t.links:
                scenario = FailureScenario.link_down(link.u, link.v)
                for s in t.nodes:
                    for d in t.nodes:
                        if s == d:
                            continue
                        expected = oracle.per_link(link, s, d)
                        trace = simulate(fw, t, scenario, s, d)
                        assert trace.delivered == (expected is not None), name
                        if expected is not None:
                            assert trace.node_sequence == expected
                            assert trace.total_weight == path_weight(t, expected)


class TestPerNode:
    def test_square_avoids_dead_node(self, unit_square):
        fw = per_node_rules(unit_square)
        trace = simulate(fw, unit_square, FailureScenario.node_down(1), 0, 2)
        assert trace.delivered
        assert trace.node_sequence == (0, 3, 2)
        assert trace.total_weight == 2.0
        assert 1 not in trace.node_sequence

    def test_destination_equal_to_failed_node_drops(self, unit_triangle):
        fw = per_node_rules(unit_triangle)
        trace = simulate(fw, unit_triangle, FailureScenario.node_down(1), 0, 1)
        assert not trace.delivered
        entry = [e for e in fw.uncovered if e.reason == "destination_failed"]
        assert entry, "failed-destination cases must be reported"

    def test_invocation_budget_exact(self, corpus):
        for name, t in corpus:
            fw = per_node_rules(t)
            assert fw.stats["sp_invocations"] == t.n + 2 * len(t.links), name


class TestHybrid:
    def test_pure_link_failure_matches_per_link(self, unit_square):
        fwh = hybrid_rules(unit_square)
        fwl = per_link_rules(unit_square)
        scenario = FailureScenario.link_down(1, 2)
        th = simulate(fwh, unit_square, scenario, 0, 2)
        tl = simulate(fwl, unit_square, scenario, 0, 2)
        assert th.node_sequence == tl.node_sequence == (0, 1, 0, 3, 2)
        assert th.total_weight == tl.total_weight
        # the label stays a link label: node 2 is alive, no upgrade fires
        assert all(step.label.kind != "node" for step in th.steps)

    def test_node_failure_without_reapproach_needs_no_upgrade(self, unit_square):
        fw = hybrid_rules(unit_square)
        trace = simulate(fw, unit_square, FailureScenario.node_down(1), 0, 2)
        assert trace.delivered
        assert trace.node_sequence == (0, 3, 2)
        assert trace.total_weight == 2.0
        assert all(step.label.kind != "node" for step in trace.steps)

    def test_upgrade_when_detour_reapproaches_failed_node(self):
        t = hybrid_upgrade_instance()
        fw = hybrid_rules(t)
        trace = simulate(fw, t, FailureScenario.node_down(2), 0, 3)
        assert trace.delivered
        assert trace.node_sequence == (0, 1, 4, 5, 3)
        assert 2 not in trace.node_sequence
        labels = [step.label.kind for step in trace.steps]
        assert "link" in labels and "node" in labels  # upgraded mid-detour
        # matches the per-node oracle from the upgrade point
        oracle = DetourOracle(t)
        assert trace.node_sequence == oracle.hybrid_node(2, 0, 3)

    def test_upgrade_rule_is_a_group_on_the_link_label(self):
        t = hybrid_upgrade_instance()
        fw = hybrid_rules(t)
        action = fw.tables[4].get(Match(link_fail(1, 2), 3))
        assert isinstance(action, GroupRef)
        buckets = fw.groups[action.group_id].buckets
        assert buckets[1].action.label == node_fail(2)

    def test_invocation_budget_recorded(self, unit_square):
        fw = hybrid_rules(unit_square)
        assert fw.stats["sp_invocations"] == 4 + 4 * len(unit_square.links)

    def test_node_failure_delivery_across_corpus(self, corpus):
        for name, t in corpus[:9]:
            fw = hybrid_rules(t)
            oracle = DetourOracle(t)
            for v in t.nodes:
                scenario = FailureScenario.node_down(v)
                for s in t.nodes:
                    for d in t.nodes:
                        if s == d or s == v or d == v:
                            continue
                        expected = oracle.hybrid_node(v, s, d)
                        trace = simulate(fw, t, scenario, s, d)
                        assert trace.delivered == (expected is not None), name
                        if expected is not None:
                            assert trace.node_sequence == expected, (name, v, s, d)
                            assert trace.total_weight == path_weight(t, expected)


class TestOptimize:
    def test_rule_count_never_increases(self, corpus):
        for _name, t in corpus[:12]:
            for build in (per_link_rules, per_node_rules, hybrid_rules):
                fw = build(t)
                opt = optimize(fw, t)
                assert opt.rule_count() <= fw.rule_count()

    def test_strips_exactly_the_pop_rules_for_single_family(self, corpus):
        for _name, t in corpus[:9]:
            for build in (per_link_rules, per_node_rules):
                fw = build(t)
                pops = sum(
                    1
                    for _n, m, a in fw.iter_rules()
                    if not m.label.is_primary and isinstance(a, PopLabelOutput)
                )
                opt = optimize(fw, t)
                assert fw.rule_count() - opt.rule_count() == pops

    def test_strict_decrease_when_detours_rejoin(self):
        # In the unit square every detour rejoins an unaffected shortest
        # path, so optimization must strictly shrink the table.
        t = square()
        fw = per_link_rules(t)
        opt = optimize(fw, t)
        assert opt.rule_count() < fw.rule_count()

    def test_traces_unchanged_for_all_failures(self, unit_square):
        t = unit_square
        for build, family in (
            (per_link_rules, "link"),
            (per_node_rules, "node"),
            (hybrid_rules, "node"),
        ):
            fw = build(t)
            opt = optimize(fw, t)
            for scenario in all_scenarios(t, family) + [NO_FAILURE]:
                for s in t.nodes:
                    for d in t.nodes:
                        if s == d or not scenario.node_is_live(s):
                            continue
                        a = simulate(fw, t, scenario, s, d)
                        b = simulate(opt, t, scenario, s, d)
                        assert a.delivered == b.delivered
                        if a.delivered:
                            assert a.node_sequence == b.node_sequence
                            assert a.total_weight == b.total_weight

    def test_hybrid_dedup_removes_link_rules_covered_by_wildcard(self):
        t = hybrid_upgrade_instance()
        fw = hybrid_rules(t)
        opt = optimize(fw, t)
        link_rules = lambda m: sum(
            1 for _n, match, _a in m.iter_rules() if match.label.kind == "link"
        )
        assert link_rules(opt) < link_rules(fw)

    def test_unreferenced_groups_pruned(self, unit_square):
        fw = hybrid_rules(unit_square)
        opt = optimize(fw, unit_square)
        referenced = {
            a.group_id for _n, _m, a in opt.iter_rules() if isinstance(a, GroupRef)
        }
        assert set(opt.groups) == referenced

    def test_rejects_non_protection_matrices(self, unit_square):
        fw = ForwardingMatrix("disjoint-link", 4)
        with pytest.raises(ValueError):
            optimize(fw, unit_square)


class TestMatrixDeterminism:
    def test_rebuild_is_identical(self, unit_square):
        a = json.dumps(per_link_rules(unit_square).to_json(), sort_keys=True)
        b = json.dumps(per_link_rules(unit_square).to_json(), sort_keys=True)
        assert a == b

    def test_serialization_round_trip_preserves_behavior(self):
        t = hybrid_upgrade_instance()
        fw = optimize(hybrid_rules(t), t)
        data = json.loads(json.dumps(fw.to_json()))
        again = ForwardingMatrix.from_json(data, t)
        for scenario in all_scenarios(t, "node"):
            for s in t.nodes:
                for d in t.nodes:
                    if s == d or not scenario.node_is_live(s):
                        continue
                    x = simulate(fw, t, scenario, s, d)
                    y = simulate(again, t, scenario, s, d)
                    assert x.dump() == y.dump()


def test_primary_rules_stay_optimal(corpus):
    for _name, t in corpus[:9]:
        trees = all_shortest_trees(t)
        for build in (per_link_rules, per_node_rules, hybrid_rules):
            fw = build(t)
            for s in t.nodes:
                for d in t.nodes:
                    if s == d:
                        continue
                    trace = simulate(fw, t, NO_FAILURE, s, d)
                    assert trace.delivered
                    assert trace.total_weight == trees[s].dist[d]


def test_per_link_rules_are_not_node_failure_safe():
    # A link-failure-disjoint detour may head straight back toward a dead
    # node; the simulator must classify the resulting forwarding cycle as a
    # loop rather than hang.  This is the documented inadequacy that the
    # per-node and hybrid schemes exist to fix.
    from failover.topology import generate_lattice

    t = generate_lattice(9, 1)
    fw = per_link_rules(t)
    trace = simulate(fw, t, FailureScenario.node_down(2), 0, 2)
    assert trace.outcome == "loop"


def test_loop_freedom_node_label_pairs_never_repeat(corpus):
    for _name, t in corpus[:9]:
        for build, family in (
            (per_link_rules, "link"),
            (per_node_rules, "node"),
            (hybrid_rules, "node"),
        ):
            fw = build(t)
            for scenario in all_scenarios(t, family):
                for s in t.nodes:
                    for d in t.nodes:
                        if s == d or not scenario.node_is_live(s):
                            continue
                        trace = simulate(fw, t, scenario, s, d)
                        assert trace.outcome != "loop"
                        states = [(step.node, step.label) for step in trace.steps]
                        assert len(states) == len(set(states))


def test_matrices_satisfy_structural_invariants(corpus):
    from failover.baseline import disjoint_rules

    for _name, t in corpus[:12]:
        for build in (per_link_rules, per_node_rules, hybrid_rules):
            fw = build(t)
            fw.validate()
            optimize(fw, t).validate()
        disjoint_rules(t, "link").validate()
        disjoint_rules(t, "node").validate()


@pytest.mark.parametrize("variant", ["per-link", "per-node", "hybrid", "disjoint-link",
                                     "disjoint-node"])
def test_validate_rejects_a_missing_primary_rule(variant):
    from failover.metrics import build_variant
    from failover.topology import generate_erdos_renyi

    t = generate_erdos_renyi(9, 1)
    fw = build_variant(t, variant)
    fw.validate()
    table = fw.tables[3]
    primary = Match(PRIMARY, 5) if Match(PRIMARY, 5) in table else Match(PRIMARY, 5, 3, None)
    del table[primary]
    with pytest.raises(ValueError, match="no primary rule at node 3 for destination 5"):
        fw.validate()


# -- builds for optimize ------------------------------------------------------

PROTECTION_BUILDS = (per_link_rules, per_node_rules, hybrid_rules)


def _optimized_json(build, t: Topology, install_pops: bool):
    """``optimize(build(t))`` as text, or the error the build raises."""
    try:
        fw = optimize(build(t, install_pops=install_pops), t)
    except (AssertionError, ValueError) as exc:
        return type(exc), str(exc)
    return json.dumps(fw.to_json(), sort_keys=True)


def _lattice(n: int, seed: int) -> Topology:
    return unit_weights(generate_lattice(n, seed))


DIFFERENTIAL_CORPUS = {
    "er16": lambda: generate_erdos_renyi(16, 3),
    "er16-unit": lambda: unit_weights(generate_erdos_renyi(16, 3)),
    "lattice25-unit": lambda: _lattice(25, 1),
    "lattice64-unit": lambda: _lattice(64, 2),
    "waxman25": lambda: generate_waxman(25, 2),
}


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_CORPUS))
@pytest.mark.parametrize("build", PROTECTION_BUILDS)
def test_build_without_pops_optimizes_to_the_full_builds_matrix(name, build):
    t = DIFFERENTIAL_CORPUS[name]()
    lean = build(t, install_pops=False)
    assert lean.skipped_pops > 0
    assert not any(isinstance(a, PopLabelOutput) and not m.label.is_primary
                   for _n, m, a in lean.iter_rules())
    full = build(t)
    assert full.skipped_pops == 0
    expected = optimize(full, t).to_json()
    assert optimize(lean, t).to_json() == expected
    assert expected["stats"]["rules_before_optimize"] == full.rule_count()


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_CORPUS) + ["oracle-corpus"])
def test_builds_on_a_warm_shared_context_equal_builds_on_a_fresh_one(name):
    # Builds read a topology's shared trees and primary table and never
    # change them: on an object that earlier builds have warmed, every
    # variant gives the matrix a fresh object gives, byte for byte.
    graphs = ([t for _name, t in oracle_corpus()] if name == "oracle-corpus"
              else [DIFFERENTIAL_CORPUS[name]()])
    builds = [(v, True) for v in ALL_VARIANTS] + [(v, False) for v in ALL_VARIANTS[:3]]
    for t in graphs:
        fresh = {(v, opt): json.dumps(build_variant(Topology(t.n, t.links), v, opt).to_json())
                 for v, opt in builds}
        warm = Topology(t.n, t.links)
        build_variant(warm, "per-link")
        for v, opt in builds:
            assert json.dumps(build_variant(warm, v, opt).to_json()) == fresh[v, opt], (t, v, opt)


def test_build_without_pops_fails_as_the_full_build_on_zero_weights():
    # Both builds must stop on a zero-weight link with the same error.
    pairs = [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)]
    raised = 0
    for bits in range(32):
        t = Topology(4, [Link(u, v, float(bits >> i & 1)) for i, (u, v) in enumerate(pairs)])
        for build in PROTECTION_BUILDS:
            full = _optimized_json(build, t, True)
            raised += isinstance(full, tuple)
            assert _optimized_json(build, t, False) == full, (bits, build.__name__)
    assert raised > 0


@st.composite
def tied_two_connected_graphs(draw):
    """A ring with random chords and few distinct positive weights."""
    n = draw(st.integers(4, 8))
    chords = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=2 * n))
    pairs = {(i, (i + 1) % n) for i in range(n)} | {(u, v) for u, v in chords if u != v}
    edges = sorted({(min(u, v), max(u, v)) for u, v in pairs})
    weights = draw(st.lists(st.sampled_from([1.0, 1.0, 2.0]),
                            min_size=len(edges), max_size=len(edges)))
    return Topology(n, [Link(u, v, w) for (u, v), w in zip(edges, weights)])


@settings(max_examples=150, deadline=None)
@given(t=tied_two_connected_graphs())
def test_build_without_pops_on_random_tied_graphs(t):
    # The JSON carries the build's stats, so this also checks criterion 6:
    # |N| + 2·|links| SP invocations per failure family, with or without pops.
    for build, families in zip(PROTECTION_BUILDS, (1, 1, 2)):
        lean, full = _optimized_json(build, t, False), _optimized_json(build, t, True)
        assert lean == full
        for text in (lean, full):
            assert json.loads(text)["stats"]["sp_invocations"] == t.n + 2 * families * len(t.links)


@pytest.mark.parametrize("build", [per_node_rules, hybrid_rules])
@pytest.mark.parametrize("outputs_first", [True, False])
def test_a_left_out_pop_still_conflicts(build, outputs_first, monkeypatch):
    # Node-family pop decisions do not depend on the detecting node, so a
    # pop never meets another rule in a real build.  Make them depend on it
    # (never pop on detours detected by a node below, or above, the failed
    # one): both builds must then stop at the same conflict.
    import failover.protect as protect

    allowed = protect._pop_allowed

    def pop_allowed(ctx, node, dst, family, failed, opposite, hybrid):
        detector = failed.u if failed.v == opposite else failed.v
        if family == "node" and (detector < opposite) == outputs_first:
            return False
        return allowed(ctx, node, dst, family, failed, opposite, hybrid)

    monkeypatch.setattr(protect, "_pop_allowed", pop_allowed)
    t = _lattice(25, 1)
    with pytest.raises(ValueError, match="conflicting rule") as full:
        build(t)
    with pytest.raises(ValueError, match="conflicting rule") as lean:
        build(t, install_pops=False)
    assert str(lean.value) == str(full.value)
    first, second = ("Output", "PopLabelOutput") if outputs_first else ("PopLabelOutput", "Output")
    assert str(full.value).split(": ", 1)[1].startswith(first)
    assert f" vs {second}(" in str(full.value)
