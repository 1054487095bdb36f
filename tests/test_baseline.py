"""Disjoint-pair algorithms and crankback rule construction."""

from __future__ import annotations

import json
import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from failover.baseline import (
    _arc_map,
    _second_path,
    _source_tree,
    _split_arc_map,
    disjoint_rules,
    suurballe_link_disjoint,
    suurballe_node_disjoint,
)
from failover.dataplane import compile_matrix, simulate
from failover.spf import DisconnectedTopologyError, shortest_tree
from failover.topology import (
    FailureScenario,
    Link,
    NO_FAILURE,
    Topology,
    generate_erdos_renyi,
    generate_lattice,
    unit_weights,
)

from conftest import (
    complete,
    five_node_detour,
    oracle_corpus,
    path3,
    square,
    theta_cut,
    trap,
    triangle,
    two_connected_graphs,
)
from oracles import (
    bhandari_link_disjoint,
    bhandari_node_disjoint,
    brute_best_disjoint_pair,
    path_link_pairs,
    unseeded_second_path,
)


def naive_remove_shortest(t: Topology, s: int, d: int):
    """The iterative-removal heuristic that trap topologies defeat."""
    tree = shortest_tree(t, s)
    if d not in tree.paths:
        return None
    first = tree.paths[d]
    used = path_link_pairs(first)
    remaining = [l for l in t.links if l.pair not in used]
    pruned = Topology(t.n, remaining)
    second = shortest_tree(pruned, s)
    if d not in second.paths:
        return None
    return first, second.paths[d]


class TestBhandariLink:
    def test_trap_graph_beats_naive_heuristic(self):
        t = trap()
        assert naive_remove_shortest(t, 0, 3) is None
        pair = bhandari_link_disjoint(t, 0, 3)
        assert pair is not None
        assert {pair.primary, pair.backup} == {(0, 1, 3), (0, 2, 3)}
        assert pair.total == 10.0
        assert pair.total == brute_best_disjoint_pair(t, 0, 3, node_disjoint=False)

    def test_triangle_pair(self):
        pair = bhandari_link_disjoint(triangle(), 0, 2)
        assert pair.primary == (0, 2) and pair.backup == (0, 1, 2)
        assert pair.total == 3.0

    def test_bridge_has_no_solution(self):
        assert bhandari_link_disjoint(path3(), 0, 2) is None

    def test_matches_enumeration_on_random_graphs(self):
        for seed in range(20):
            t = generate_erdos_renyi(8, seed)
            for s, d in ((0, 7), (1, 5), (3, 6)):
                pair = bhandari_link_disjoint(t, s, d)
                best = brute_best_disjoint_pair(t, s, d, node_disjoint=False)
                assert (pair is None) == (best is None)
                if pair is not None:
                    assert pair.total == best
                    assert not path_link_pairs(pair.primary) & path_link_pairs(pair.backup)


class TestBhandariNode:
    def test_square_sides(self):
        pair = bhandari_node_disjoint(square(), 0, 2)
        assert {pair.primary, pair.backup} == {(0, 1, 2), (0, 3, 2)}
        assert pair.total == 4.0

    def test_k4_direct_plus_two_hop(self):
        pair = bhandari_node_disjoint(complete(4), 0, 3)
        assert pair.total == 3.0
        assert pair.primary == (0, 3)

    def test_shared_cut_node_has_no_solution(self):
        t = theta_cut()
        assert bhandari_node_disjoint(t, 0, 3) is None
        # ...while link-disjoint pairs through the cut node do exist
        assert bhandari_link_disjoint(t, 0, 3) is not None

    def test_matches_enumeration_on_random_graphs(self):
        for seed in range(20):
            t = generate_erdos_renyi(8, seed)
            for s, d in ((0, 7), (2, 4)):
                pair = bhandari_node_disjoint(t, s, d)
                best = brute_best_disjoint_pair(t, s, d, node_disjoint=True)
                assert (pair is None) == (best is None)
                if pair is not None:
                    assert pair.total == best
                    shared = set(pair.primary[1:-1]) & set(pair.backup[1:-1])
                    assert not shared


class TestSuurballeCrossCheck:
    @pytest.mark.parametrize(
        "bhandari,suurballe,node_disjoint",
        [
            (bhandari_link_disjoint, suurballe_link_disjoint, False),
            (bhandari_node_disjoint, suurballe_node_disjoint, True),
        ],
    )
    def test_totals_agree(self, bhandari, suurballe, node_disjoint):
        graphs = [triangle(), square(), trap(), theta_cut(), complete(5)]
        graphs += [generate_erdos_renyi(8, seed) for seed in range(10)]
        for t in graphs:
            for s in t.nodes:
                for d in t.nodes:
                    if s >= d:
                        continue
                    a = bhandari(t, s, d)
                    b = suurballe(t, s, d)
                    assert (a is None) == (b is None)
                    if a is not None:
                        assert a.total == pytest.approx(b.total, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("node_disjoint", [False, True])
@pytest.mark.parametrize(
    "make",
    [
        lambda: unit_weights(generate_erdos_renyi(16, 2)),
        lambda: unit_weights(generate_lattice(25, 1)),
        lambda: generate_erdos_renyi(16, 2),
    ],
    ids=["unit-er16", "unit-lattice5x5", "er16"],
)
def test_production_pairs_equal_arc_reversal_reference(make, node_disjoint):
    # Exact paths, not totals: ties under unit weights are where the two
    # engines' tie-breaks could drift apart.
    t = make()
    reference = bhandari_node_disjoint if node_disjoint else bhandari_link_disjoint
    production = suurballe_node_disjoint if node_disjoint else suurballe_link_disjoint
    for s in t.nodes:
        for d in t.nodes:
            if s == d:
                continue
            a, b = reference(t, s, d), production(t, s, d)
            assert (a is None) == (b is None), (s, d)
            if a is not None:
                assert (a.primary, a.backup) == (b.primary, b.backup), (s, d)


def zero_weight_er(seed: int) -> Topology:
    """ER with weights drawn from {0, 1, 1, 2}: the disjoint builds accept
    zero weights, and zero-cost arcs from dead to live nodes are the case
    the seeded search's exactness argument has to rule out."""
    rng = random.Random(seed)
    t = generate_erdos_renyi(rng.randint(5, 14), seed)
    return Topology(t.n, [Link(l.u, l.v, rng.choice((0.0, 1.0, 1.0, 2.0))) for l in t.links])


SEEDING_GRAPHS = {
    "corpus": lambda: [t for _name, t in oracle_corpus()] + [trap(), theta_cut(), path3(),
                                                            five_node_detour()],
    "unit-er16": lambda: [unit_weights(generate_erdos_renyi(16, 2))],
    "unit-er49": lambda: [unit_weights(generate_erdos_renyi(49, 3))],
    "unit-lattice5x5": lambda: [unit_weights(generate_lattice(25, 1))],
    "unit-lattice8x8": lambda: [unit_weights(generate_lattice(64, 1))],
    "zero-weight-er": lambda: [zero_weight_er(seed) for seed in range(40)],
}


@pytest.mark.parametrize("node_disjoint", [False, True])
@pytest.mark.parametrize("graphs", sorted(SEEDING_GRAPHS))
def test_seeded_second_search_equals_unseeded(graphs, node_disjoint):
    for t in SEEDING_GRAPHS[graphs]():
        arcs = _split_arc_map(t) if node_disjoint else _arc_map(t)
        for s in t.nodes:
            src = 2 * s + 1 if node_disjoint else s
            tree = _source_tree(t, arcs, s, node_disjoint)
            for d in range(s + 1, t.n):
                dst = 2 * d if node_disjoint else d
                expected = unseeded_second_path(t, s, d, node_disjoint)
                assert _second_path(tree, src, dst) == expected, (t, s, d)


@settings(max_examples=100, deadline=None)
@given(t=two_connected_graphs(), node_disjoint=st.booleans())
def test_pairs_on_tie_heavy_graphs(t, node_disjoint):
    production = suurballe_node_disjoint if node_disjoint else suurballe_link_disjoint
    reference = bhandari_node_disjoint if node_disjoint else bhandari_link_disjoint
    for s, d in combinations(t.nodes, 2):
        pair, expected = production(t, s, d), reference(t, s, d)
        best = brute_best_disjoint_pair(t, s, d, node_disjoint)
        assert (pair is None) == (expected is None) == (best is None), (s, d)
        if pair is not None:
            assert pair.total == best, (s, d)
            assert (pair.primary, pair.backup) == (expected.primary, expected.backup), (s, d)


def test_library_exports_no_oracle():
    import failover

    for name in ("bhandari_link_disjoint", "bhandari_node_disjoint", "floyd_warshall_oracle",
                 "all_to_all"):
        assert not hasattr(failover, name), name


class TestDisjointRules:
    def test_no_failure_follows_pair_primary(self, unit_square):
        fw = disjoint_rules(unit_square, "link")
        pair = bhandari_link_disjoint(unit_square, 0, 2)
        trace = simulate(fw, unit_square, NO_FAILURE, 0, 2)
        assert trace.delivered
        assert trace.node_sequence == pair.primary

    def test_square_crankback(self, unit_square):
        fw = disjoint_rules(unit_square, "link")
        trace = simulate(fw, unit_square, FailureScenario.link_down(1, 2), 0, 2)
        assert trace.delivered
        assert trace.node_sequence == (0, 1, 0, 3, 2)
        assert trace.total_weight == 4.0
        assert trace.crankback_weight == 1.0

    def test_failure_at_source_needs_no_crankback(self, unit_triangle):
        fw = disjoint_rules(unit_triangle, "link")
        trace = simulate(fw, unit_triangle, FailureScenario.link_down(0, 2), 0, 2)
        assert trace.delivered
        assert trace.node_sequence == (0, 1, 2)
        assert trace.crankback_weight == 0.0

    def test_two_hop_detection_cranks_back_the_prefix(self):
        t = five_node_detour()
        fw = disjoint_rules(t, "link")
        trace = simulate(fw, t, FailureScenario.link_down(2, 3), 0, 3)
        assert trace.delivered
        assert trace.node_sequence == (0, 1, 2, 1, 0, 4, 3)
        assert trace.crankback_weight == 2.0  # the traversed two-hop prefix

    def test_node_variant_survives_node_failures(self, unit_square):
        fw = disjoint_rules(unit_square, "node")
        trace = simulate(fw, unit_square, FailureScenario.node_down(1), 0, 2)
        assert trace.delivered
        assert 1 not in trace.node_sequence

    def test_uncovered_pairs_reported_with_primary_fallback(self):
        t = theta_cut()
        fw = disjoint_rules(t, "node")
        uncovered = {(e.node, e.dst) for e in fw.uncovered}
        assert (0, 3) in uncovered and (3, 0) in uncovered
        # fallback still forwards when nothing fails
        trace = simulate(fw, t, NO_FAILURE, 0, 3)
        assert trace.delivered

    @pytest.mark.parametrize("variant", ["link", "node"])
    def test_disconnected_topology_raises_as_protection_builds_do(self, variant):
        # Without the check, the build installed rules for the pairs it
        # could reach and gave a matrix that ``validate`` rejects.
        t = Topology(4, [Link(0, 1, 1.0), Link(2, 3, 1.0)])
        with pytest.raises(DisconnectedTopologyError, match=r"^nodes \[2, 3\] unreachable from 0$"):
            disjoint_rules(t, variant)

    def test_delivery_under_all_on_path_link_failures(self):
        for seed in range(5):
            t = generate_erdos_renyi(8, seed)
            fw = compile_matrix(disjoint_rules(t, "link"), t)
            for s in t.nodes:
                for d in t.nodes:
                    if s == d:
                        continue
                    primary = simulate(fw, t, NO_FAILURE, s, d)
                    assert primary.delivered
                    seq = primary.node_sequence
                    for a, b in zip(seq, seq[1:]):
                        trace = simulate(fw, t, FailureScenario.link_down(a, b), s, d)
                        assert trace.delivered, (seed, s, d, (a, b))

    def test_rebuild_is_identical(self, unit_square):
        a = json.dumps(disjoint_rules(unit_square, "link").to_json(), sort_keys=True)
        b = json.dumps(disjoint_rules(unit_square, "link").to_json(), sort_keys=True)
        assert a == b

    def test_rejects_unknown_variant(self, unit_square):
        with pytest.raises(ValueError):
            disjoint_rules(unit_square, "both")


def test_node_variant_delivery_under_all_on_path_node_failures():
    for seed in range(5):
        t = generate_erdos_renyi(8, seed)
        fw = compile_matrix(disjoint_rules(t, "node"), t)
        for s in t.nodes:
            for d in t.nodes:
                if s == d:
                    continue
                primary = simulate(fw, t, NO_FAILURE, s, d)
                assert primary.delivered
                for v in primary.node_sequence[1:-1]:
                    trace = simulate(fw, t, FailureScenario.node_down(v), s, d)
                    assert trace.delivered, (seed, s, d, v)
                    assert v not in trace.node_sequence
