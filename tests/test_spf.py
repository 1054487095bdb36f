"""Shortest-path engines, tie-breaking, affected sets, engine agreement."""

from __future__ import annotations

import copy
import math
import random

from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import failover
from failover import spf
from failover.baseline import _split_arc_map
from failover.metrics import ALL_VARIANTS, build_variant, measure
from failover.rules import Output, PRIMARY
from failover.spf import (
    DisconnectedTopologyError,
    SpCounter,
    all_shortest_trees,
    lex_dijkstra,
    primary_matrix_from_trees,
    queued_bellman_ford,
    shortest_tree,
    split_tree,
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

from conftest import oracle_corpus, path3, square, triangle, weighted_square
from oracles import AdjacencyView, all_to_all, brute_shortest, floyd_warshall, unseeded_tree


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

    def test_cut_leaves_unreachable_nodes_out_of_dist(self):
        # Two unit triangles joined by the bridge 2-3: cutting the bridge, or
        # failing node 2, leaves the far side out of the tree, not an error.
        t = Topology(6, [Link(u, v, 1.0) for u, v in
                         ((0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5))])
        primary = shortest_tree(t, 0)
        for cut, left in ((FailureScenario.link_down(2, 3), {0, 1, 2}),
                          (FailureScenario.node_down(2), {0, 1})):
            tree = shortest_tree(t, 0, cut, primary=primary)
            assert tree.dist.keys() == tree.paths.keys() == left
            assert tree_fields(tree) == tree_fields(unseeded_tree(t, 0, cut))

    def test_unreachable_targets_reported_not_raised(self):
        # On the path 0-1-2 the cut 0-1 leaves only the source: the whole
        # tree and the Dijkstra core's search for target 2 both leave 2 out.
        t, cut = path3(), FailureScenario.link_down(0, 1)
        tree = shortest_tree(t, 0, cut)
        assert tree.paths == {0: (0,)} and tree.next_link == {}
        dist, paths = lex_dijkstra(AdjacencyView(t, cut).neighbors, 0, {2})
        assert 2 not in dist and paths == {0: (0,)}

    def test_early_stop_reports_only_unreached_targets(self):
        # Two unit triangles joined by the bridge 2-3, which fails; the
        # Dijkstra core's targets stop, as the disjoint baselines use it.
        t = Topology(6, [Link(u, v, 1.0) for u, v in
                         ((0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5))])
        cut = FailureScenario.link_down(2, 3)
        arcs_of = AdjacencyView(t, cut).neighbors
        full = shortest_tree(t, 0, cut)
        dist, paths = lex_dijkstra(arcs_of, 0, {0, 1, 4, 5})
        assert {0, 1, 4, 5} - dist.keys() == {4, 5}
        assert paths == full.paths and dist == full.dist
        # Stopped once node 1 settled: node 2 is left unsettled.
        dist, paths = lex_dijkstra(arcs_of, 0, {1})
        assert paths == {0: (0,), 1: (0, 1)}

    def test_early_stop_returns_same_distances(self):
        # The Dijkstra core's targets, with which the disjoint baselines stop
        # each second search at its destination.
        t = generate_erdos_renyi(16, 5)
        full = shortest_tree(t, 0)
        for targets in ({3}, {5, 9}, {1, 2, 15}):
            dist, paths = lex_dijkstra(t.neighbors, 0, targets)
            for d in targets:
                assert dist[d] == full.dist[d]
                assert paths[d] == full.paths[d]

    def test_counter_increments_once_per_call(self):
        counter = SpCounter()
        t = triangle()
        shortest_tree(t, 0, counter=counter)
        shortest_tree(t, 1, FailureScenario.link_down(1, 2), counter=counter)
        assert counter.count == 2
        with pytest.raises(TypeError):
            shortest_tree(t, 0, FailureScenario.link_down(1, 2), counter)

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


def tree_fields(tree):
    return tree.dist, tree.paths, tree.next_link


def assert_seeded_equals_unseeded(t: Topology) -> None:
    """Every arc's link and node failure: the seeded tree equals the
    reference search field by field."""
    trees = all_shortest_trees(t)
    for n in t.nodes:
        for m, _w, _l in t.neighbors(n):
            for scenario in (FailureScenario.link_down(n, m), FailureScenario.node_down(m)):
                seeded = shortest_tree(t, n, scenario, primary=trees[n])
                expected = unseeded_tree(t, n, scenario)
                assert tree_fields(seeded) == tree_fields(expected), (n, str(scenario))


SEEDED_CORPUS = {
    "tier1-corpus": lambda: [t for _name, t in oracle_corpus()],
    "unit-er16": lambda: [unit_weights(generate_erdos_renyi(16, 3))],
    "unit-er49": lambda: [unit_weights(generate_erdos_renyi(49, 4))],
    "unit-lattice5x5": lambda: [unit_weights(generate_lattice(25, 1))],
    "unit-lattice8x8": lambda: [unit_weights(generate_lattice(64, 2))],
}


class TestSeededDetour:
    @pytest.mark.parametrize("name", sorted(SEEDED_CORPUS))
    def test_equals_unseeded_search_for_every_arc(self, name):
        for t in SEEDED_CORPUS[name]():
            assert_seeded_equals_unseeded(t)

    def test_primary_is_computed_when_not_given(self):
        t = generate_erdos_renyi(16, 5)
        primary = shortest_tree(t, 3)
        for scenario in (FailureScenario.link_down(3, primary.paths[9][1]),
                         FailureScenario.node_down(primary.paths[9][1])):
            given_tree = shortest_tree(t, 3, scenario, primary=primary)
            assert tree_fields(shortest_tree(t, 3, scenario)) == tree_fields(given_tree)

    def test_dead_node_settles_between_inherited_nodes(self):
        # Link 0-1 fails: node 1 is dead and comes back through 2 at 1.7,
        # between the inherited nodes 2 at 1.5 and 3 at 3.0.
        t = Topology(4, [Link(0, 1, 1.0), Link(0, 2, 1.5), Link(1, 2, 0.2), Link(0, 3, 3.0)])
        cut = FailureScenario.link_down(0, 1)
        tree = shortest_tree(t, 0, cut, primary=shortest_tree(t, 0))
        assert tree.paths == {0: (0,), 2: (0, 2), 1: (0, 2, 1), 3: (0, 3)}
        assert tree.dist[1] == 1.5 + 0.2
        assert tree_fields(tree) == tree_fields(unseeded_tree(t, 0, cut))

    def test_live_node_whose_key_rounds_lower_after_the_failure(self):
        # 0.5 + 0.1 and 0.2 + 0.2 + 0.2 differ by one ulp, and adding 0.4
        # absorbs it.  Before the failure, 4's path (0, 4) ties at 1.0 with
        # (0, 5, 3, 4) and wins; after link 0-5 (or node 5) fails, the
        # detour to 3 ties at 1.0 too and (0, 1, 2, 3, 4) wins, although
        # 4's own path survives.  The seeded search must see this.
        t = Topology(6, [Link(0, 5, 0.5), Link(3, 5, 0.1), Link(3, 4, 0.4), Link(0, 4, 1.0),
                         Link(0, 1, 0.2), Link(1, 2, 0.2), Link(2, 3, 0.2)])
        primary = shortest_tree(t, 0)
        assert primary.paths[4] == (0, 4)
        for scenario in (FailureScenario.link_down(0, 5), FailureScenario.node_down(5)):
            tree = shortest_tree(t, 0, scenario, primary=primary)
            assert tree.paths[4] == (0, 1, 2, 3, 4)
            assert tree_fields(tree) == tree_fields(unseeded_tree(t, 0, scenario))

    def test_failures_the_tree_does_not_use(self):
        t = square()
        primary = shortest_tree(t, 0)
        for scenario in (FailureScenario.link_down(2, 3),  # not a tree link of 0
                         FailureScenario.link_down(0, 2),  # no such link
                         FailureScenario.link_down(1, 9),  # no such node
                         FailureScenario.node_down(9)):
            tree = shortest_tree(t, 0, scenario, primary=primary)
            assert tree is primary
            assert tree_fields(tree) == tree_fields(unseeded_tree(t, 0, scenario))
        # The source itself fails: it is all that is left.
        tree = shortest_tree(t, 0, FailureScenario.node_down(0), primary=primary)
        assert tree.paths == {0: (0,)}
        assert tree_fields(tree) == tree_fields(unseeded_tree(t, 0, FailureScenario.node_down(0)))

    def test_library_keeps_one_heap_loop_and_no_view(self):
        source = "".join(path.read_text(encoding="utf-8")
                         for path in sorted(Path(failover.__file__).parent.glob("*.py")))
        assert source.count("heappop(") == 1
        assert "AdjacencyView" not in source and ".view(" not in source


@st.composite
def two_connected_graphs(draw, palettes=((0.0, 1.0, 1.0, 2.0), (1.0,), (0.1, 0.2, 0.3, 0.4, 1.0))):
    """A ring with random chords; by default weights zero, tied, unit, or
    decimals whose sums round."""
    n = draw(st.integers(4, 8))
    chords = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=2 * n))
    pairs = {(i, (i + 1) % n) for i in range(n)} | {(u, v) for u, v in chords if u != v}
    edges = sorted({(min(u, v), max(u, v)) for u, v in pairs})
    palette = draw(st.sampled_from(palettes))
    weights = draw(st.lists(st.sampled_from(palette), min_size=len(edges), max_size=len(edges)))
    return Topology(n, [Link(u, v, w) for (u, v), w in zip(edges, weights)])


@settings(max_examples=150, deadline=None)
@given(t=two_connected_graphs())
def test_seeded_equals_unseeded_on_random_graphs(t):
    assert_seeded_equals_unseeded(t)


def count_full_trees(monkeypatch) -> list[int]:
    """Counts, from now on, the full trees ``failover.spf`` computes."""
    calls = [0]
    real = spf.shortest_tree

    def counting(t, src, excluded=NO_FAILURE, **kwargs):
        calls[0] += excluded.kind == "none"
        return real(t, src, excluded, **kwargs)

    monkeypatch.setattr(spf, "shortest_tree", counting)
    return calls


def tree_snapshot(trees) -> list:
    return copy.deepcopy([tree_fields(tree) for tree in trees])


class TestSharedPaths:
    def test_one_set_of_trees_per_object_across_builds_and_measures(self, monkeypatch):
        t = generate_erdos_renyi(12, 4)
        expected_trees = tree_snapshot(all_shortest_trees(t))
        expected_fw, expected_affected = primary_matrix_from_trees(t, all_shortest_trees(t))
        calls = count_full_trees(monkeypatch)
        budget = {"per-link": t.n + 2 * len(t.links), "per-node": t.n + 2 * len(t.links),
                  "hybrid": t.n + 4 * len(t.links)}
        built = [build_variant(t, v) for v in ALL_VARIANTS]
        shared = t.shortest_paths()
        for v, fw in zip(ALL_VARIANTS, built):
            if v in budget:
                assert fw.stats["sp_invocations"] == budget[v], v
            measure(fw, t)
        # A warm build counts the trees it read, as a cold one does.
        assert build_variant(t, "per-node").stats["sp_invocations"] == budget["per-node"]
        assert calls == [t.n]
        assert t.shortest_paths() is shared
        # Nothing the builds and measures read from the context has changed.
        assert tree_snapshot(shared.trees) == expected_trees
        template, affected = shared.primary
        assert template.tables == expected_fw.tables
        assert affected == expected_affected

    def test_equal_topology_computes_its_own(self, monkeypatch):
        t = generate_erdos_renyi(10, 2)
        shared = t.shortest_paths()
        twin = Topology(t.n, t.links)
        assert twin == t and hash(twin) == hash(t)
        calls = count_full_trees(monkeypatch)
        build_variant(twin, "disjoint-link")
        assert calls == [twin.n]
        assert twin.shortest_paths() is not shared
        assert t.shortest_paths() is shared

    def test_measure_alone_needs_no_primary_table(self):
        t = generate_erdos_renyi(9, 1)
        measure(build_variant(Topology(t.n, t.links), "per-link"), t)
        assert t.shortest_paths().primary is None


def assert_split_tree_is_the_split_graph_search(t: Topology) -> None:
    arcs = _split_arc_map(t)
    for s in t.nodes:
        assert split_tree(t, s) == lex_dijkstra(arcs.__getitem__, 2 * s + 1), (t, s)


def test_split_tree_equals_the_split_graph_search_on_the_corpus():
    disconnected = [Topology(4, [Link(0, 1, 1.0), Link(2, 3, 1.0)]),
                    Topology(3, [Link(0, 1, 2.0)])]
    for t in [t for _name, t in oracle_corpus()] + disconnected:
        assert_split_tree_is_the_split_graph_search(t)


@settings(max_examples=150, deadline=None)
@given(t=two_connected_graphs(((1.0, 1.0, 2.0), (1.0,), (0.5, 1.0, 2.0), (0.0, 1.0, 2.0))))
def test_split_tree_equals_the_split_graph_search_on_random_graphs(t):
    assert_split_tree_is_the_split_graph_search(t)


class TestOracleView:
    def test_view_hides_failed_link_both_directions(self):
        t = square()
        view = AdjacencyView(t, FailureScenario.link_down(0, 1))
        assert [v for v, _w, _l in view.neighbors(0)] == [3]
        assert [v for v, _w, _l in view.neighbors(1)] == [2]

    def test_view_hides_failed_node_and_its_links(self):
        t = square()
        view = AdjacencyView(t, FailureScenario.node_down(1))
        assert list(view.neighbors(1)) == []
        assert [v for v, _w, _l in view.neighbors(0)] == [3]
        assert [v for v, _w, _l in view.neighbors(2)] == [3]
