"""Topology type, generators, two-connectivity, and edge-list I/O."""

from __future__ import annotations

import math
import random

import pytest

from failover.topology import (
    GenerationError,
    Link,
    Topology,
    TopologyFormatError,
    dumps_topology,
    generate_erdos_renyi,
    generate_lattice,
    generate_waxman,
    is_two_connected,
    load_topology,
    loads_topology,
    save_topology,
    unit_weights,
    waxman_attempt,
)

from conftest import path3, square, triangle
from oracles import brute_is_two_connected


class TestLink:
    def test_endpoints_normalized(self):
        link = Link(4, 2, 0.5)
        assert (link.u, link.v) == (2, 4)
        assert link.pair == (2, 4)
        assert link.other(2) == 4 and link.other(4) == 2

    def test_rejects_self_loop_and_negative_weight(self):
        with pytest.raises(ValueError):
            Link(1, 1, 1.0)
        with pytest.raises(ValueError):
            Link(0, 1, -0.1)

    @pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_weight(self, weight):
        with pytest.raises(ValueError, match="non-finite"):
            Link(0, 1, weight)

    def test_other_requires_endpoint(self):
        with pytest.raises(ValueError):
            Link(0, 1, 1.0).other(2)


class TestTopology:
    def test_rejects_parallel_links(self):
        with pytest.raises(ValueError):
            Topology(3, [Link(0, 1, 1.0), Link(1, 0, 2.0)])

    def test_rejects_out_of_range_nodes(self):
        with pytest.raises(ValueError):
            Topology(2, [Link(0, 2, 1.0)])

    def test_adjacency_matches_links(self):
        t = square()
        assert [v for v, _w, _l in t.neighbors(0)] == [1, 3]
        assert t.adjacency == tuple(t.neighbors(x) for x in t.nodes)
        assert len(t.neighbors(2)) == 2
        assert t.link_between(0, 1) == Link(0, 1, 1.0)
        assert t.link_between(0, 2) is None

    def test_equality_ignores_link_order(self):
        a = Topology(3, [Link(0, 1, 1.0), Link(1, 2, 2.0)])
        b = Topology(3, [Link(2, 1, 2.0), Link(0, 1, 1.0)])
        assert a == b


class TestTwoConnected:
    def test_triangle(self):
        assert is_two_connected(triangle())

    def test_path_has_articulation_node(self):
        assert not is_two_connected(path3())

    def test_lattice(self):
        assert is_two_connected(generate_lattice(9, 0))

    def test_too_small(self):
        assert not is_two_connected(Topology(2, [Link(0, 1, 1.0)]))

    def test_disconnected(self):
        t = Topology(4, [Link(0, 1, 1.0), Link(2, 3, 1.0)])
        assert not is_two_connected(t)

    def test_agrees_with_brute_force_on_random_graphs(self):
        rng = random.Random(99)
        for _ in range(300):
            n = rng.randint(3, 10)
            p = rng.uniform(0.2, 0.8)
            links = [
                Link(u, v, 1.0)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < p
            ]
            t = Topology(n, links)
            assert is_two_connected(t) == brute_is_two_connected(t)


class TestErdosRenyi:
    def test_three_nodes_always_triangle(self):
        # K3 is the only two-connected graph on three nodes, so rejection
        # sampling must deliver exactly that.
        for seed in range(5):
            t = generate_erdos_renyi(3, seed)
            assert len(t.links) == 3

    def test_deterministic(self):
        assert generate_erdos_renyi(25, 42) == generate_erdos_renyi(25, 42)

    def test_mean_link_count_tracks_closed_form(self):
        counts = [len(generate_erdos_renyi(25, seed).links) for seed in range(1000)]
        mean = sum(counts) / len(counts)
        expected = (25 * 24 / 2) * (2 * math.log(25) / 25)
        assert abs(mean - expected) / expected < 0.10

    def test_always_two_connected(self):
        for seed in range(30):
            assert is_two_connected(generate_erdos_renyi(10, seed))

    def test_retry_budget_exhaustion(self):
        with pytest.raises(GenerationError):
            generate_erdos_renyi(40, 0, retry_budget=0)

    def test_weights_in_open_unit_interval(self):
        t = generate_erdos_renyi(25, 3)
        assert all(0.0 < l.weight < 1.0 for l in t.links)


class TestLattice:
    def test_3x3_shape(self):
        t = generate_lattice(9, 3)
        assert len(t.links) == 12
        assert len(t.neighbors(4)) == 4  # center
        assert is_two_connected(t)
        assert brute_is_two_connected(t)

    def test_4x4_shape(self):
        t = generate_lattice(16, 0)
        assert len(t.links) == 24
        for corner in (0, 3, 12, 15):
            assert len(t.neighbors(corner)) == 2

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            generate_lattice(12, 0)

    def test_deterministic(self):
        assert generate_lattice(16, 5) == generate_lattice(16, 5)


class TestWaxman:
    def test_three_nodes_triangle_with_euclidean_weights(self):
        t = generate_waxman(3, 0)
        assert len(t.links) == 3
        assert all(0.0 < l.weight <= math.sqrt(2.0) for l in t.links)

    def test_deterministic(self):
        assert generate_waxman(25, 7) == generate_waxman(25, 7)

    def test_always_two_connected(self):
        for seed in range(10):
            assert is_two_connected(generate_waxman(25, seed))

    def test_acceptance_frequency_matches_decay(self):
        # Histogram raw-sample acceptance by distance bucket and compare each
        # bucket against the mean of 0.5*exp(-d/(0.5*a)) over its pairs; the
        # near-maximum bucket is additionally compared to the closed-form
        # value at d = a.
        buckets = 10
        hits = [0] * buckets
        tries = [0] * buckets
        theory = [0.0] * buckets
        for seed in range(1000):
            rng = random.Random(seed)
            _pos, dist, links = waxman_attempt(25, rng)
            linked = {l.pair for l in links}
            a = max(dist.values())
            for pair, d in dist.items():
                b = min(int(d / a * buckets), buckets - 1)
                tries[b] += 1
                theory[b] += 0.5 * math.exp(-d / (0.5 * a))
                if pair in linked:
                    hits[b] += 1
        for b in range(buckets):
            assert tries[b] > 1000
            empirical = hits[b] / tries[b]
            expected = theory[b] / tries[b]
            assert abs(empirical - expected) / expected < 0.10
        top = hits[-1] / tries[-1]
        at_max = 0.5 * math.exp(-2.0)
        assert abs(top - at_max) / at_max < 0.10


class TestEdgeListFormat:
    def test_parse_triangle(self):
        t = loads_topology("3\n0 1 1.0\n1 2 1.0\n0 2 1.0\n")
        assert t == triangle()

    def test_comments_and_blank_lines(self):
        text = "# comment\n3\n\n0 1 1.0  # inline\n1 2 1.0\n0 2 1.0\n"
        assert loads_topology(text) == triangle()

    def test_round_trip_generated(self, tmp_path):
        t = generate_waxman(25, 11)
        path = tmp_path / "waxman.topo"
        save_topology(t, path)
        assert load_topology(path) == t

    def test_round_trip_preserves_float_weights_exactly(self):
        t = generate_erdos_renyi(10, 4)
        again = loads_topology(dumps_topology(t))
        assert [l.weight for l in again.links] == [l.weight for l in t.links]

    @pytest.mark.parametrize(
        "text,line_no",
        [
            ("3\n0 1\n", 2),  # malformed line
            ("3\n0 1 x\n", 2),  # non-numeric weight
            ("3\n0 1 1.0\n1 0 2.0\n", 3),  # duplicate link
            ("3\n1 1 1.0\n", 2),  # self-loop
            ("3\n0 1 -1.0\n", 2),  # negative weight
            ("3\n0 1 nan\n1 2 1\n0 2 inf", 2),  # NaN weight
            ("3\n0 1 1\n1 2 1\n0 2 inf", 4),  # infinite weight
            ("3\n0 5 1.0\n", 2),  # node out of range
            ("x\n", 1),  # bad node count
        ],
    )
    def test_errors_carry_line_numbers(self, text, line_no):
        with pytest.raises(TopologyFormatError) as exc:
            loads_topology(text)
        assert exc.value.line_no == line_no

    def test_link_errors_carry_the_link_message(self):
        with pytest.raises(TopologyFormatError) as exc:
            loads_topology("3\n1 0 -1.0\n")
        assert str(exc.value) == "line 2: negative weight -1.0 on link 0-1"

    def test_empty_file(self):
        with pytest.raises(TopologyFormatError):
            loads_topology("")


def test_unit_weights():
    t = generate_erdos_renyi(10, 0)
    flat = unit_weights(t)
    assert {l.pair for l in flat.links} == {l.pair for l in t.links}
    assert all(l.weight == 1.0 for l in flat.links)


def test_generated_topologies_are_clean(corpus):
    for _name, t in corpus:
        pairs = [l.pair for l in t.links]
        assert len(pairs) == len(set(pairs))
        assert all(u != v for u, v in pairs)
        assert all(l.weight >= 0 for l in t.links)
