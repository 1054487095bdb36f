"""The compiled walk against the reference walk of ``simulate``.

``simulate`` on a :class:`CompiledMatrix` must return the trace the
reference walk returns on the matrix it was compiled from: same outcome,
reason, steps, and the same float sums to the last bit.  On a matrix without
keyed rules the compiled walk splices in suffixes remembered from earlier
calls toward the same destination, so it is also checked under several call
orders on one compiled matrix.
"""

from __future__ import annotations

import random
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from failover.dataplane import compile_matrix, simulate
from failover.metrics import ALL_VARIANTS, build_variant
from failover.protect import hybrid_rules, per_link_rules, per_node_rules
from failover.spf import all_shortest_trees, primary_matrix_from_trees
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
def test_broken_groups_drop_only_when_reached(broken):
    t = square()
    fw = _ring(t)
    l12, l01 = t.link_between(1, 2), t.link_between(0, 1)
    if broken == "nested":
        fw.groups[7] = GroupEntry(7, 1, (Bucket(l12, GroupRef(8)), Bucket(l01, Output(l01))))
        reason = "group 8 is nested in a group bucket"
    else:
        reason = "group 7 is not defined"
    fw.set_rule(1, Match(PRIMARY, 2), GroupRef(7))
    keyed = _ring(t)
    keyed.groups = fw.groups
    keyed.tables = [dict(table) for table in fw.tables]
    keyed.set_rule(3, Match(PRIMARY, 0, 3, None), Output(t.link_between(0, 3)))
    for matrix in (fw, keyed):
        compiled = compile_matrix(matrix, t)
        assert compiled.memoizable == (matrix is fw)
        assert trace_key(simulate(compiled, t, NO_FAILURE, 0, 1)) == trace_key(
            simulate(matrix, t, NO_FAILURE, 0, 1))
        for walked in (matrix, compiled):
            trace = simulate(walked, t, NO_FAILURE, 0, 2)
            assert (trace.outcome, trace.reason, trace.node_sequence) == (
                "dropped", reason, (0,)), type(walked).__name__
        assert_same_traces(matrix, t, every_scenario(t))


def test_output_link_that_does_not_touch_the_node():
    # Node 1 sends packets toward 3 out of link 2-3.  Both walks drop them
    # at 1 without recording a hop out of 1.
    t = square()
    l23 = t.link_between(2, 3)
    for mode in ("per-link", "disjoint-link"):
        fw = _ring(t, mode)
        fw.set_rule(1, Match(PRIMARY, 3), Output(l23))
        if mode == "disjoint-link":
            fw.set_rule(0, Match(PRIMARY, 3, 0, None), Output(t.link_between(0, 1)))
        assert compile_matrix(fw, t).memoizable == (mode == "per-link")
        assert_same_traces(fw, t, every_scenario(t))
        assert_same_traces_in_every_order(fw, t, every_scenario(t))
        for walked in (fw, compile_matrix(fw, t)):
            trace = simulate(walked, t, NO_FAILURE, 0, 3)
            assert (trace.outcome, trace.reason, trace.node_sequence, trace.total_weight) == (
                "dropped", "output link 2-3 does not touch node 1", (0,), 1.0)


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


PROTECTION_VARIANTS = ("per-link", "per-node", "hybrid")


def call_orders(t: Topology, scenarios, seed: int = 0) -> dict[str, list]:
    """``(scenario, src, dst)`` triples in three call orders: destination by
    destination (as ``measure`` walks), source by source, and a seeded shuffle
    of the destination blocks and of the calls within each block."""
    pairs = [(s, d) for s in t.nodes for d in t.nodes if s != d]
    rng = random.Random(seed)
    blocks = []
    for d in rng.sample(list(t.nodes), t.n):
        block = [(scenario, s, d) for scenario in scenarios for s in t.nodes if s != d]
        rng.shuffle(block)
        blocks.append(block)
    return {
        "destination-outer": [(scenario, s, d) for s, d in sorted(pairs, key=lambda p: p[1])
                              for scenario in scenarios],
        "source-outer": [(scenario, s, d) for s, d in pairs for scenario in scenarios],
        "random": [triple for block in blocks for triple in block],
    }


def assert_same_traces_in_every_order(fw: ForwardingMatrix, t: Topology, scenarios,
                                      seed: int = 0) -> None:
    """One compiled matrix per call order, every trace equal to the reference."""
    expected = {}
    for order, triples in call_orders(t, scenarios, seed).items():
        compiled = compile_matrix(fw, t)
        for scenario, s, d in triples:
            key = (scenario, s, d)
            if key not in expected:
                expected[key] = trace_key(simulate(fw, t, scenario, s, d))
            assert trace_key(simulate(compiled, t, scenario, s, d)) == expected[key], (
                order, fw.mode, str(scenario), s, d)


@pytest.mark.parametrize(
    "make",
    [
        lambda: unit_weights(generate_erdos_renyi(16, 2)),
        lambda: unit_weights(generate_lattice(25, 1)),
        lambda: generate_erdos_renyi(16, 2),
    ],
    ids=["unit-er16", "unit-lattice25", "er16"],
)
@pytest.mark.parametrize("variant", PROTECTION_VARIANTS)
def test_memoized_walk_matches_reference_in_any_call_order(make, variant):
    t = make()
    assert_same_traces_in_every_order(build_variant(t, variant), t, every_scenario(t))


def test_returned_traces_share_no_list_with_the_memo():
    t = unit_weights(generate_lattice(16, 2))
    fw = build_variant(t, "per-link")
    compiled = compile_matrix(fw, t)
    scenario = FailureScenario.link_down(0, 1)
    expected = trace_key(simulate(fw, t, scenario, 0, 15))
    simulate(compiled, t, scenario, 0, 15).steps.clear()
    for s in t.nodes[:-1]:
        simulate(compiled, t, scenario, s, 15).steps.append(None)
    assert trace_key(simulate(compiled, t, scenario, 0, 15)) == expected


def test_threads_sharing_one_compiled_matrix():
    # Each thread walks its own destinations; the memo each walk uses must
    # stay the one of its destination while the others replace it.
    t = unit_weights(generate_lattice(16, 2))
    fw = build_variant(t, "hybrid")
    compiled = compile_matrix(fw, t)
    scenarios = every_scenario(t)
    expected = {(d, s, sc): trace_key(simulate(fw, t, sc, s, d))
                for d in t.nodes for s in t.nodes if s != d for sc in scenarios}
    mismatches = []

    def walk(dsts):
        for _ in range(3):
            for d in dsts:
                for s in t.nodes:
                    for sc in scenarios:
                        if s != d and trace_key(simulate(compiled, t, sc, s, d)) != expected[
                                d, s, sc]:
                            mismatches.append((d, s, str(sc)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=walk, args=(t.nodes[i::4],)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == []


class TestMemoizedWalk:
    def test_crankback_through_a_spliced_suffix(self):
        # The walk from 1 reaches (0, primary) and splices the walk from 0,
        # which cranks back over 0-1; the whole trace is recounted.
        t = five_node_detour()
        fw = ForwardingMatrix("per-link", t.n)
        l01, l04, l43 = t.link_between(0, 1), t.link_between(0, 4), t.link_between(4, 3)
        fw.add_rule(0, Match(PRIMARY, 3), PushLabelOutput(link_fail(1, 2), l01))
        fw.add_rule(1, Match(PRIMARY, 3), Output(l01))
        fw.add_rule(1, Match(link_fail(1, 2), 3), RewriteLabelOutput(node_fail(2), l01))
        fw.add_rule(0, Match(node_fail(2), 3), Output(l04))
        fw.add_rule(4, Match(node_fail(2), 3), PopLabelOutput(l43))
        compiled = compile_matrix(fw, t)
        simulate(compiled, t, NO_FAILURE, 0, 3)
        trace = simulate(compiled, t, NO_FAILURE, 1, 3)
        assert trace_key(trace) == trace_key(simulate(fw, t, NO_FAILURE, 1, 3))
        assert trace.node_sequence == (1, 0, 1, 0, 4, 3)
        assert trace.crankback_weight > 0
        assert_same_traces_in_every_order(fw, t, every_scenario(t))

    def test_walk_into_the_states_of_an_earlier_loop(self):
        # 0 -> 1 -> 0 loops.  A loop is detected on (node, label, in_link),
        # so the trace from 2, which enters the loop at 1, ends one hop later
        # than the trace from 0 would suggest from there.
        t = square()
        fw = ForwardingMatrix("per-link", t.n)
        l01, l12 = t.link_between(0, 1), t.link_between(1, 2)
        fw.add_rule(0, Match(PRIMARY, 3), Output(l01))
        fw.add_rule(1, Match(PRIMARY, 3), Output(l01))
        fw.add_rule(2, Match(PRIMARY, 3), Output(l12))
        compiled = compile_matrix(fw, t)
        for s in (0, 2, 1, 2, 0):
            trace = simulate(compiled, t, NO_FAILURE, s, 3)
            assert trace.outcome == "loop"
            assert trace_key(trace) == trace_key(simulate(fw, t, NO_FAILURE, s, 3))
        assert simulate(compiled, t, NO_FAILURE, 2, 3).node_sequence == (2, 1, 0, 1)
        assert_same_traces_in_every_order(fw, t, every_scenario(t))

    def test_drop_in_the_middle_of_a_suffix(self):
        # Around the ring toward 0, node 3 drops: the walk from 1 ends there,
        # and the walks from 2 and 3 splice in its suffix from their states.
        t = square()
        fw = _ring(t)
        fw.set_rule(3, Match(PRIMARY, 0), Drop())
        compiled = compile_matrix(fw, t)
        for s in (1, 2, 3):
            assert trace_key(simulate(compiled, t, NO_FAILURE, s, 0)) == trace_key(
                simulate(fw, t, NO_FAILURE, s, 0))
        trace = simulate(compiled, t, NO_FAILURE, 2, 0)
        assert (trace.node_sequence, trace.reason, trace.total_weight) == ((2,), "drop rule", 1.0)
        assert_same_traces_in_every_order(fw, t, every_scenario(t))

    def test_group_watching_another_link_than_its_output(self):
        # Node 1 forwards to 2 while 2-3 is up and back to 0 otherwise: the
        # memo of one scenario must not answer for another.
        t = square()
        fw = _ring(t)
        l01, l12, l23 = t.link_between(0, 1), t.link_between(1, 2), t.link_between(2, 3)
        ref = fw.intern_group(1, (Bucket(l23, Output(l12)), Bucket(None, Output(l01))))
        fw.set_rule(1, Match(PRIMARY, 3), ref)
        fw.set_rule(0, Match(PRIMARY, 3), Output(t.link_between(0, 3)))
        compiled = compile_matrix(fw, t)
        assert simulate(compiled, t, NO_FAILURE, 1, 3).node_sequence == (1, 2, 3)
        detour = simulate(compiled, t, FailureScenario.link_down(2, 3), 1, 3)
        assert detour.node_sequence == (1, 0, 3)
        assert simulate(compiled, t, NO_FAILURE, 1, 3).node_sequence == (1, 2, 3)
        assert_same_traces_in_every_order(fw, t, every_scenario(t))

    def test_scenario_link_not_in_topology_shares_the_memo_of_no_failure(self):
        # Such a failure kills nothing; its walks may share the memo of no
        # failure and must still be traced as the reference does.
        t = square()
        fw = build_variant(t, "per-link")
        scenarios = [NO_FAILURE, FailureScenario.link_down(0, 2),
                     FailureScenario.link_down(1, 3), FailureScenario.link_down(1, 2)]
        assert_same_traces_in_every_order(fw, t, scenarios)

    def test_destination_outside_the_matrix(self):
        t = generate_erdos_renyi(9, 1)
        fw = build_variant(t, "hybrid")
        compiled = compile_matrix(fw, t)
        for dst in (9, 99, -1):
            for src in t.nodes:
                trace = simulate(compiled, t, NO_FAILURE, src, dst)
                assert trace_key(trace) == trace_key(simulate(fw, t, NO_FAILURE, src, dst))
                assert (trace.outcome, trace.reason) == ("dropped", "no matching rule")


@st.composite
def two_connected_graphs(draw):
    """A ring with random chords: two-connected, weights zero, one or tied."""
    n = draw(st.integers(4, 6))
    chords = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n))
    pairs = {(i, (i + 1) % n) for i in range(n)} | {(u, v) for u, v in chords if u != v}
    edges = sorted({(min(u, v), max(u, v)) for u, v in pairs})
    weights = draw(st.lists(st.sampled_from([0.0, 1.0, 1.0, 2.5]),
                            min_size=len(edges), max_size=len(edges)))
    return Topology(n, [Link(u, v, w) for (u, v), w in zip(edges, weights)])


def random_matrix(t: Topology, rng: random.Random) -> ForwardingMatrix:
    """Shortest-path primary rules overlaid with random label rules, groups
    and drops, so that walks change labels, detour, loop and drop.  Some
    rules are malformed: a group that is not defined, a group nested in a
    bucket, an output link that does not touch its node."""
    fw, _ = primary_matrix_from_trees(t, all_shortest_trees(t))
    labels = [link_fail(t.links[0].u, t.links[0].v), node_fail(rng.choice(t.nodes))]

    def forward(node):
        # Now and then a link that does not touch the node.
        links = t.links if rng.random() < 0.1 else [l for l in t.links if node in (l.u, l.v)]
        link = rng.choice(links)
        return rng.choice([Output(link), PushLabelOutput(rng.choice(labels), link),
                           PopLabelOutput(link), RewriteLabelOutput(rng.choice(labels), link)])

    for _ in range(4 * t.n):
        node, dst = rng.choice(t.nodes), rng.choice(t.nodes)
        label = rng.choice([PRIMARY, *labels, any_link_fail_to(rng.choice(t.nodes))])
        watch = rng.choice([link for link in t.links if node in (link.u, link.v)])
        action = rng.choice([
            Drop(),
            forward(node),
            fw.intern_group(node, (Bucket(watch, forward(node)),
                                   Bucket(rng.choice([None, watch]), forward(node)))),
            GroupRef(len(fw.groups) + 100),  # unresolved
            fw.intern_group(node, (Bucket(watch, GroupRef(rng.randrange(len(fw.groups) + 1))),
                                   Bucket(None, forward(node)))),  # nested
        ])
        fw.set_rule(node, Match(label, dst), action)
    return fw


@settings(max_examples=40, deadline=None)
@given(t=two_connected_graphs(), seed=st.integers(0, 2**16))
def test_memoized_walk_matches_reference_on_random_graphs(t, seed):
    assert_same_traces_in_every_order(random_matrix(t, random.Random(seed)), t,
                                      every_scenario(t), seed)
    # The protection builders fail on zero-weight links (see the xfail test
    # below), so they get the graph with its zero weights set to one.
    positive = Topology(t.n, [Link(link.u, link.v, link.weight or 1.0) for link in t.links])
    for build in (per_link_rules, per_node_rules, hybrid_rules):
        assert_same_traces_in_every_order(build(positive), positive, every_scenario(positive),
                                          seed)


@pytest.mark.xfail(raises=AssertionError, strict=True,
                   reason="protection builds assume a primary path's suffix is the preferred "
                          "path from its node, which zero-weight links can break")
def test_protection_build_accepts_zero_weight_links():
    t = Topology(4, [Link(0, 1, 0.0), Link(1, 2, 0.0), Link(2, 3, 0.0), Link(0, 3, 0.0),
                     Link(0, 2, 0.0)])
    per_link_rules(t).validate()
