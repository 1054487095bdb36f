"""Shortest-path engines, tie-breaking, affected sets, engine agreement."""

from __future__ import annotations

import math
import random

import pytest

from failover.rules import Output, PRIMARY
from failover.spf import (
    DisconnectedTopologyError,
    SpCounter,
    all_shortest_trees,
    lex_dijkstra,
    queued_bellman_ford,
    shortest_tree,
)
from failover.topology import FailureScenario, Link, Topology, generate_erdos_renyi

from conftest import path3, square, triangle, weighted_square
from oracles import all_to_all, brute_shortest, floyd_warshall


class TestShortestTree:
    def test_triangle_unit_weights(self, unit_triangle):
        tree = shortest_tree(unit_triangle, 0)
        assert tree.dist[1] == 1.0 and tree.dist[2] == 1.0
        assert tree.paths[2] == (0, 2)

    def test_excluded_link_forces_detour(self, unit_triangle):
        tree = shortest_tree(unit_triangle, 0, excluded=FailureScenario.link_down(0, 2))
        assert tree.dist[2] == 2.0
        assert tree.paths[2] == (0, 1, 2)

    def test_square_tie_break_prefers_low_next_hop(self, unit_square):
        tree = shortest_tree(unit_square, 0)
        assert tree.dist[2] == 2.0
        assert tree.next_link[2] == Link(0, 1, 1.0)
        assert tree.paths[2] == (0, 1, 2)

    def test_unreachable_targets_reported_not_raised(self):
        t = path3()
        tree = shortest_tree(t, 0, excluded=FailureScenario.link_down(0, 1), targets={2})
        assert 2 not in tree.dist
        assert tree.unreachable == {2}

    def test_early_stop_reports_only_unreached_targets(self):
        # Two unit triangles joined by the bridge 2-3, which fails.
        t = Topology(6, [Link(u, v, 1.0) for u, v in
                         ((0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5))])
        cut = FailureScenario.link_down(2, 3)
        full = shortest_tree(t, 0, excluded=cut)
        tree = shortest_tree(t, 0, excluded=cut, targets={0, 1, 4, 5})
        assert tree.unreachable == {4, 5}
        assert tree.paths == full.paths and tree.dist == full.dist
        # Stopped once node 1 settled: node 2 is left unsettled, and since it
        # is not a target it is not reported unreachable either.
        tree = shortest_tree(t, 0, excluded=cut, targets={1})
        assert tree.paths == {0: (0,), 1: (0, 1)}
        assert tree.unreachable == frozenset()

    def test_early_stop_returns_same_distances(self):
        t = generate_erdos_renyi(16, 5)
        full = shortest_tree(t, 0)
        for targets in ({3}, {5, 9}, {1, 2, 15}):
            partial = shortest_tree(t, 0, targets=targets)
            for d in targets:
                assert partial.dist[d] == full.dist[d]
                assert partial.paths[d] == full.paths[d]

    def test_counter_increments_once_per_call(self):
        counter = SpCounter()
        t = triangle()
        shortest_tree(t, 0, counter=counter)
        shortest_tree(t, 1, targets=set(), counter=counter)
        assert counter.count == 2

    def test_matches_enumeration_oracle(self, corpus):
        for name, t in corpus[:9] + corpus[9:14]:  # named graphs + a few ER
            trees = all_shortest_trees(t)
            for s in t.nodes:
                for d in t.nodes:
                    if s == d:
                        continue
                    expected = brute_shortest(t, s, d)
                    assert expected is not None, name
                    assert trees[s].dist[d] == expected[0]
                    assert trees[s].paths[d] == expected[1]

    def test_tie_break_is_relaxation_order_independent(self):
        # Feeding neighbors in arbitrary orders must not change the result.
        t = square()
        reference = shortest_tree(t, 0)

        class ShuffledView:
            def __init__(self, t, rng):
                self.t, self.rng = t, rng

            def neighbors(self, node):
                rows = list(self.t.neighbors(node))
                self.rng.shuffle(rows)
                return rows

        from heapq import heappop, heappush

        rng = random.Random(1)
        for _ in range(20):
            view = ShuffledView(t, rng)
            dist, paths = {}, {}
            heap = [(0.0, (0,))]
            while heap:
                d, path = heappop(heap)
                node = path[-1]
                if node in dist:
                    continue
                dist[node] = d
                paths[node] = path
                for nb, w, _l in view.neighbors(node):
                    if nb not in dist:
                        heappush(heap, (d + w, path + (nb,)))
            assert dist == reference.dist
            assert paths == reference.paths

    def test_pure_function_of_topology(self):
        t1 = generate_erdos_renyi(12, 8)
        t2 = Topology(t1.n, list(reversed(t1.links)))
        a = shortest_tree(t1, 0)
        b = shortest_tree(t2, 0)
        assert a.dist == b.dist and a.paths == b.paths


class TestAllToAll:
    def test_k3_has_six_primary_rules(self, unit_triangle):
        fw, _affected = all_to_all(unit_triangle)
        assert fw.rule_count() == 6

    def test_rule_count_is_n_times_n_minus_one(self):
        t = generate_erdos_renyi(10, 1)
        fw, _ = all_to_all(t)
        assert fw.rule_count() == 10 * 9

    def test_path_graph_affected_sets(self):
        _fw, affected = all_to_all(path3())
        t = path3()
        assert affected[(0, t.link_between(0, 1))] == {1, 2}

    def test_square_affected_respects_tie_break(self, unit_square):
        _fw, affected = all_to_all(unit_square)
        t = unit_square
        assert affected[(1, t.link_between(1, 2))] == {2}
        assert affected[(1, t.link_between(0, 1))] == {0, 3}

    def test_affected_sets_partition_destinations(self, corpus):
        for _name, t in corpus[:12]:
            _fw, affected = all_to_all(t)
            for n in t.nodes:
                union: set[int] = set()
                total = 0
                for (node, _link), dests in affected.items():
                    if node == n:
                        union |= dests
                        total += len(dests)
                assert union == set(t.nodes) - {n}
                assert total == t.n - 1

    def test_disconnected_raises(self):
        t = Topology(4, [Link(0, 1, 1.0), Link(2, 3, 1.0)])
        with pytest.raises(DisconnectedTopologyError):
            all_to_all(t)

    def test_primary_rules_are_plain_outputs(self, unit_square):
        fw, _ = all_to_all(unit_square)
        for _node, match, action in fw.iter_rules():
            assert match.label == PRIMARY
            assert isinstance(action, Output)


class TestEngineAgreement:
    def test_floyd_warshall_triangle(self, unit_triangle):
        dist = floyd_warshall(unit_triangle)
        assert all(dist[i][j] == 1.0 for i in range(3) for j in range(3) if i != j)

    def test_floyd_warshall_square(self, unit_square):
        dist = floyd_warshall(unit_square)
        assert dist[0][2] == 2.0

    def test_three_engines_agree_on_random_graphs(self):
        def topology_arcs(t):
            def arcs_of(u):
                return [(v, w) for v, w, _l in t.neighbors(u)]

            return arcs_of

        for seed in range(100):
            t = generate_erdos_renyi(16, seed)
            fw_dist = floyd_warshall(t)
            for s in t.nodes:
                tree = shortest_tree(t, s)
                bf_dist, bf_paths = queued_bellman_ford(topology_arcs(t), s)
                for d in t.nodes:
                    if d == s:
                        continue
                    # Dijkstra and Bellman-Ford both minimize over
                    # left-associated path sums: identical bits.
                    assert bf_dist[d] == tree.dist[d]
                    assert bf_paths[d] == tree.paths[d]
                    # Floyd-Warshall associates sums differently; agreement
                    # is up to float association error.
                    assert math.isclose(
                        fw_dist[s][d], tree.dist[d], rel_tol=1e-12, abs_tol=1e-12
                    )

    def test_lex_dijkstra_matches_shortest_tree(self):
        t = generate_erdos_renyi(12, 3)

        def arcs_of(u):
            return [(v, w) for v, w, _l in t.neighbors(u)]

        dist, paths = lex_dijkstra(arcs_of, 0)
        tree = shortest_tree(t, 0)
        assert dist == tree.dist
        assert paths == tree.paths

    def test_bellman_ford_handles_negative_arcs(self):
        # 0 -> 1 (1), 1 -> 2 (-0.5), 0 -> 2 (1): best 0-1-2 at 0.5.
        arcs = {0: [(1, 1.0), (2, 1.0)], 1: [(2, -0.5)], 2: []}
        dist, paths = queued_bellman_ford(lambda u: arcs.get(u, ()), 0)
        assert dist[2] == 0.5
        assert paths[2] == (0, 1, 2)


def test_weighted_square_tree(unit_square):
    t = weighted_square()
    tree = shortest_tree(t, 0)
    assert tree.paths[2] == (0, 1, 2)
    assert tree.dist[2] == 0.4 + 0.9
    assert tree.paths[3] == (0, 3)
