"""Simulator semantics: lookup order, groups, labels, traces, crankback."""

from __future__ import annotations

import pytest

from failover.baseline import disjoint_rules
from failover.dataplane import compile_matrix, crankback_of, simulate
from failover.metrics import measure
from failover.protect import per_link_rules, per_node_rules
from failover.rules import ForwardingMatrix, Match, Output, PRIMARY
from failover.topology import FailureScenario, NO_FAILURE, generate_erdos_renyi

from conftest import five_node_detour, square, triangle


class TestSimulate:
    def test_no_failure_square(self, unit_square):
        fw = per_link_rules(unit_square)
        trace = simulate(fw, unit_square, NO_FAILURE, 0, 2)
        assert trace.delivered
        assert trace.node_sequence == (0, 1, 2)
        assert trace.total_weight == 2.0
        assert trace.crankback_weight == 0.0

    def test_link_failure_square(self, unit_square):
        fw = per_link_rules(unit_square)
        trace = simulate(fw, unit_square, FailureScenario.link_down(1, 2), 0, 2)
        assert trace.node_sequence == (0, 1, 0, 3, 2)
        assert trace.total_weight == 4.0
        assert trace.crankback_weight == 1.0

    def test_dead_destination_drops(self, unit_square):
        fw = per_node_rules(unit_square)
        trace = simulate(fw, unit_square, FailureScenario.node_down(2), 0, 2)
        assert trace.outcome == "dropped"

    def test_source_equal_destination_rejected(self, unit_square):
        fw = per_link_rules(unit_square)
        with pytest.raises(ValueError):
            simulate(fw, unit_square, NO_FAILURE, 1, 1)

    def test_a_matrix_of_another_node_count_is_refused(self):
        fw = per_link_rules(generate_erdos_renyi(9, 3))
        t = generate_erdos_renyi(10, 3)
        message = "matrix is for 9 nodes, topology has 10"
        for scenario in (NO_FAILURE, FailureScenario.node_down(0)):
            with pytest.raises(ValueError, match=message):
                simulate(fw, t, scenario, 0, 1)
        with pytest.raises(ValueError, match=message):
            compile_matrix(fw, t)
        with pytest.raises(ValueError, match=message):
            measure(fw, t)

    def test_failed_source_never_forwards(self, unit_square):
        fw = per_node_rules(unit_square)
        trace = simulate(fw, unit_square, FailureScenario.node_down(0), 0, 2)
        assert trace.outcome == "dropped"
        assert trace.steps == []

    def test_deterministic(self, unit_square):
        fw = per_link_rules(unit_square)
        scenario = FailureScenario.link_down(1, 2)
        dumps = {simulate(fw, unit_square, scenario, 0, 2).dump() for _ in range(5)}
        assert len(dumps) == 1

    def test_no_dead_traversal(self, unit_square):
        fw = per_link_rules(unit_square)
        for link in unit_square.links:
            scenario = FailureScenario.link_down(link.u, link.v)
            for s in unit_square.nodes:
                for d in unit_square.nodes:
                    if s == d:
                        continue
                    trace = simulate(fw, unit_square, scenario, s, d)
                    for step in trace.steps:
                        if step.link is not None:
                            assert scenario.link_is_live(step.link)

    def test_weight_conservation(self, unit_square):
        fw = per_link_rules(unit_square)
        trace = simulate(fw, unit_square, FailureScenario.link_down(1, 2), 0, 2)
        assert trace.total_weight == sum(
            s.link.weight for s in trace.steps if s.link is not None
        )
        assert trace.crankback_weight <= trace.total_weight

    def test_loop_reported_as_distinct_outcome(self):
        # Hand-built broken matrix: 0 and 1 forward to each other forever.
        t = triangle()
        fw = ForwardingMatrix("per-link", 3)
        l01 = t.link_between(0, 1)
        fw.add_rule(0, Match(PRIMARY, 2), Output(l01))
        fw.add_rule(1, Match(PRIMARY, 2), Output(l01))
        trace = simulate(fw, t, NO_FAILURE, 0, 2)
        assert trace.outcome == "loop"

    def test_no_matching_rule_drops(self):
        t = triangle()
        fw = ForwardingMatrix("per-link", 3)
        trace = simulate(fw, t, NO_FAILURE, 0, 2)
        assert trace.outcome == "dropped"
        assert trace.reason == "no matching rule"


class TestCrankback:
    def test_definitional_square_trace(self, unit_square):
        fw = per_link_rules(unit_square)
        trace = simulate(fw, unit_square, FailureScenario.link_down(1, 2), 0, 2)
        assert crankback_of(trace) == 1.0

    def test_no_failure_trace_has_zero(self, unit_square):
        fw = per_link_rules(unit_square)
        trace = simulate(fw, unit_square, NO_FAILURE, 0, 3)
        assert crankback_of(trace) == 0.0

    def test_two_hop_detection_in_baseline(self):
        t = five_node_detour()
        fw = disjoint_rules(t, "link")
        trace = simulate(fw, t, FailureScenario.link_down(2, 3), 0, 3)
        assert crankback_of(trace) == 2.0

    def test_double_bounce_counts_twice(self):
        # Synthetic walk 0-1-0-1-0-4-3 on the five-node topology: the 0-1
        # link is re-walked in reverse twice.
        t = five_node_detour()
        fw = ForwardingMatrix("per-link", 5)
        from failover.dataplane import Trace, TraceStep

        l01 = t.link_between(0, 1)
        l04 = t.link_between(0, 4)
        l43 = t.link_between(4, 3)
        steps = [
            TraceStep(0, PRIMARY, l01),
            TraceStep(1, PRIMARY, l01),
            TraceStep(0, PRIMARY, l01),
            TraceStep(1, PRIMARY, l01),
            TraceStep(0, PRIMARY, l04),
            TraceStep(4, PRIMARY, l43),
            TraceStep(3, PRIMARY, None),
        ]
        trace = Trace(0, 3, steps=steps, outcome="delivered")
        assert crankback_of(trace) == 2.0


class TestTraceDump:
    def test_triangle_golden(self, unit_triangle):
        fw = per_link_rules(unit_triangle)
        trace = simulate(fw, unit_triangle, FailureScenario.link_down(0, 2), 0, 2)
        assert trace.dump() == (
            "0 link:0-2 0-1 1.0\n"
            "1 primary 1-2 1.0\n"
            "2 primary - -\n"
            "delivered total=2.0 crankback=0.0\n"
        )

    def test_square_golden(self, unit_square):
        fw = per_link_rules(unit_square)
        trace = simulate(fw, unit_square, FailureScenario.link_down(1, 2), 0, 2)
        assert trace.dump() == (
            "0 primary 0-1 1.0\n"
            "1 link:1-2 0-1 1.0\n"
            "0 link:1-2 0-3 1.0\n"
            "3 primary 2-3 1.0\n"
            "2 primary - -\n"
            "delivered total=4.0 crankback=1.0\n"
        )

    def test_dropped_summary_line(self, unit_square):
        fw = per_node_rules(unit_square)
        trace = simulate(fw, unit_square, FailureScenario.node_down(2), 0, 2)
        assert trace.dump().splitlines()[-1].startswith("dropped total=")


def test_baseline_lookup_uses_source_and_in_port(unit_square):
    # The same destination via two different sources must take each pair's
    # own primary path, which only (source, dst, in-port) keying can do.
    fw = disjoint_rules(unit_square, "link")
    t02 = simulate(fw, unit_square, NO_FAILURE, 0, 2)
    t12 = simulate(fw, unit_square, NO_FAILURE, 1, 2)
    assert t02.node_sequence[0] == 0 and t12.node_sequence[0] == 1
    assert t02.delivered and t12.delivered
