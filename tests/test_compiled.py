"""The compiled walk against the reference walk of ``simulate``.

``simulate`` on a :class:`CompiledMatrix` must return the trace the
reference walk returns on the matrix it was compiled from: same outcome,
reason, steps, and the same float sums to the last bit.
"""

from __future__ import annotations

import pytest

from failover.dataplane import compile_matrix, simulate
from failover.metrics import ALL_VARIANTS, build_variant
from failover.rules import (
    Bucket,
    Drop,
    ForwardingMatrix,
    GroupEntry,
    GroupRef,
    Match,
    Output,
    PRIMARY,
    PopLabelOutput,
    PushLabelOutput,
    RewriteLabelOutput,
    any_link_fail_to,
    link_fail,
    node_fail,
)
from failover.topology import (
    NO_FAILURE,
    FailureScenario,
    Link,
    Topology,
    generate_erdos_renyi,
    generate_lattice,
    unit_weights,
)

from conftest import five_node_detour, square, triangle


def trace_key(trace):
    return (trace.outcome, trace.reason, trace.steps,
            repr(trace.total_weight), repr(trace.crankback_weight))


def every_scenario(t: Topology) -> list[FailureScenario]:
    return ([NO_FAILURE]
            + [FailureScenario.link_down(link.u, link.v) for link in t.links]
            + [FailureScenario.node_down(v) for v in t.nodes])


def assert_same_traces(fw: ForwardingMatrix, t: Topology, scenarios) -> None:
    compiled = compile_matrix(fw, t)
    for scenario in scenarios:
        for s in t.nodes:
            for d in t.nodes:
                if s != d:
                    expected = trace_key(simulate(fw, t, scenario, s, d))
                    assert trace_key(simulate(compiled, t, scenario, s, d)) == expected, (
                        fw.mode, str(scenario), s, d)


@pytest.mark.parametrize(
    "make",
    [
        lambda: unit_weights(generate_erdos_renyi(16, 2)),
        lambda: unit_weights(generate_lattice(25, 1)),
        lambda: generate_erdos_renyi(16, 2),
    ],
    ids=["unit-er16", "unit-lattice25", "er16"],
)
@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_built_matrices_trace_identically(make, variant):
    t = make()
    assert_same_traces(build_variant(t, variant), t, every_scenario(t))


def test_unoptimized_matrix_traces_identically():
    t = unit_weights(generate_lattice(16, 2))
    assert_same_traces(build_variant(t, "hybrid", optimized=False), t, every_scenario(t))


def _ring(t: Topology, mode: str = "per-link") -> ForwardingMatrix:
    """Primary rules around the square 0-1-2-3-0, clockwise."""
    fw = ForwardingMatrix(mode, t.n)
    for node in t.nodes:
        link = t.link_between(node, (node + 1) % t.n)
        for dst in t.nodes:
            if dst != node:
                fw.add_rule(node, Match(PRIMARY, dst), Output(link))
    return fw


class TestHandMadeMatrices:
    def test_missing_rule(self):
        t = square()
        fw = _ring(t)
        del fw.tables[1][Match(PRIMARY, 3)]
        assert_same_traces(fw, t, every_scenario(t))
        trace = simulate(compile_matrix(fw, t), t, NO_FAILURE, 0, 3)
        assert (trace.reason, trace.total_weight) == ("no matching rule", 1.0)

    def test_group_with_every_bucket_dead(self):
        t = square()
        fw = _ring(t)
        l12, l01 = t.link_between(1, 2), t.link_between(0, 1)
        ref = fw.intern_group(1, (Bucket(l12, Output(l12)), Bucket(l12, Output(l01))))
        fw.set_rule(1, Match(PRIMARY, 2), ref)
        assert_same_traces(fw, t, every_scenario(t))
        trace = simulate(compile_matrix(fw, t), t, FailureScenario.link_down(1, 2), 0, 2)
        assert (trace.reason, trace.total_weight) == ("no live group bucket", 1.0)

    def test_drop(self):
        t = square()
        fw = _ring(t)
        fw.set_rule(2, Match(PRIMARY, 0), Drop())
        assert_same_traces(fw, t, every_scenario(t))
        trace = simulate(compile_matrix(fw, t), t, NO_FAILURE, 1, 0)
        assert (trace.outcome, trace.reason, trace.total_weight) == ("dropped", "drop rule", 1.0)

    def test_two_node_loop(self):
        t = triangle()
        fw = ForwardingMatrix("per-link", 3)
        l01 = t.link_between(0, 1)
        fw.add_rule(0, Match(PRIMARY, 2), Output(l01))
        fw.add_rule(1, Match(PRIMARY, 2), Output(l01))
        assert_same_traces(fw, t, every_scenario(t))
        trace = simulate(compile_matrix(fw, t), t, NO_FAILURE, 0, 2)
        assert (trace.outcome, trace.total_weight, trace.crankback_weight) == ("loop", 3.0, 0.0)

    def test_scenario_link_not_in_topology(self):
        t = square()
        fw = build_variant(t, "per-link")
        absent = [FailureScenario.link_down(0, 2), FailureScenario.link_down(1, 3),
                  FailureScenario.link_down(0, 7)]
        assert_same_traces(fw, t, absent)
        for scenario in absent:
            assert simulate(compile_matrix(fw, t), t, scenario, 0, 2).delivered

    def test_labels_tiers_and_crankback(self):
        # Push at 0, rewrite at 1, a wildcard match at 0 and a pop at 4:
        # 0 -> 1 -> 0 -> 4 -> 3 cranks back over 0-1 once.
        t = five_node_detour()
        fw = ForwardingMatrix("per-link", t.n)
        l01, l04, l43 = t.link_between(0, 1), t.link_between(0, 4), t.link_between(4, 3)
        fw.add_rule(0, Match(PRIMARY, 3), PushLabelOutput(link_fail(1, 2), l01))
        fw.add_rule(1, Match(link_fail(1, 2), 3), RewriteLabelOutput(node_fail(2), l01))
        fw.add_rule(0, Match(any_link_fail_to(2), 3), Output(l04))
        fw.add_rule(4, Match(node_fail(2), 3), PopLabelOutput(l43))
        assert_same_traces(fw, t, every_scenario(t))
        trace = simulate(compile_matrix(fw, t), t, NO_FAILURE, 0, 3)
        assert trace.node_sequence == (0, 1, 0, 4, 3)
        assert (trace.total_weight, trace.crankback_weight) == (6.0, 1.0)
        assert [str(step.label) for step in trace.steps] == [
            "link:1-2", "node:2", "node:2", "primary", "primary"]

    def test_source_and_in_link_keys(self):
        # Node 1 returns packets of source 0 (a source-only key, reached
        # with an incoming link set); node 0 then keys on that incoming link.
        t = square()
        fw = _ring(t, "disjoint-link")
        l01 = t.link_between(0, 1)
        fw.set_rule(1, Match(PRIMARY, 3, 0, None), Output(l01))
        fw.set_rule(0, Match(PRIMARY, 3, 0, l01), Output(t.link_between(0, 3)))
        fw.set_rule(1, Match(PRIMARY, 3, 1, None), Output(l01))
        assert_same_traces(fw, t, every_scenario(t))
        compiled = compile_matrix(fw, t)
        assert simulate(compiled, t, NO_FAILURE, 0, 3).node_sequence == (0, 1, 0, 3)
        assert simulate(compiled, t, NO_FAILURE, 1, 3).outcome == "loop"

    def test_matrix_link_outside_topology(self):
        # A link the topology lacks still forwards, and failing it kills it.
        t = square()
        fw = _ring(t)
        extra = Link(0, 2, 5.0)
        fw.set_rule(0, Match(PRIMARY, 2), Output(extra))
        assert_same_traces(fw, t, every_scenario(t) + [FailureScenario.link_down(0, 2)])
        trace = simulate(compile_matrix(fw, t), t, FailureScenario.link_down(0, 2), 0, 2)
        assert trace.reason == "output link 0-2 is dead"


@pytest.mark.parametrize("broken", ["nested", "unresolved"])
def test_broken_groups_raise_only_when_reached(broken):
    t = square()
    fw = _ring(t)
    l12, l01 = t.link_between(1, 2), t.link_between(0, 1)
    if broken == "nested":
        fw.groups[7] = GroupEntry(7, 1, (Bucket(l12, GroupRef(8)), Bucket(l01, Output(l01))))
    fw.set_rule(1, Match(PRIMARY, 2), GroupRef(7))
    compiled = compile_matrix(fw, t)  # compiling never raises
    assert trace_key(simulate(compiled, t, NO_FAILURE, 0, 1)) == trace_key(
        simulate(fw, t, NO_FAILURE, 0, 1))

    def raised(matrix):
        with pytest.raises((AttributeError, KeyError)) as caught:
            simulate(matrix, t, NO_FAILURE, 0, 2)
        return caught.type, str(caught.value)

    assert raised(compiled) == raised(fw)


@pytest.mark.parametrize("variant", ["per-link", "disjoint-node"])
def test_destinations_outside_the_matrix_match_no_rule(variant):
    # Compiled keys are arithmetic on node ids; a destination no rule names
    # must not alias the key of a rule that exists.
    t = generate_erdos_renyi(9, 1)
    fw = build_variant(t, variant)
    compiled = compile_matrix(fw, t)
    for src, dst in ((0, 9), (0, 99), (3, -1), (3, 10**6)):
        trace = simulate(compiled, t, NO_FAILURE, src, dst)
        assert trace_key(trace) == trace_key(simulate(fw, t, NO_FAILURE, src, dst))
        assert (trace.outcome, trace.reason) == ("dropped", "no matching rule")
