"""Shared topology corpus for the test suite."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

from failover.topology import (
    Link,
    Topology,
    generate_erdos_renyi,
    generate_lattice,
)


def triangle(weight: float = 1.0) -> Topology:
    return Topology(3, [Link(0, 1, weight), Link(1, 2, weight), Link(0, 2, weight)])


def square() -> Topology:
    return Topology(4, [Link(0, 1, 1.0), Link(1, 2, 1.0), Link(2, 3, 1.0), Link(0, 3, 1.0)])


def weighted_square() -> Topology:
    return Topology(4, [Link(0, 1, 0.4), Link(1, 2, 0.9), Link(2, 3, 0.7), Link(0, 3, 1.8)])


def path3() -> Topology:
    return Topology(3, [Link(0, 1, 1.0), Link(1, 2, 1.0)])


def complete(n: int) -> Topology:
    return Topology(n, [Link(u, v, 1.0) for u in range(n) for v in range(u + 1, n)])


def trap() -> Topology:
    # Removing the shortest path 0-1-2-3 strands all remaining disjoint pairs.
    return Topology(
        4,
        [Link(0, 1, 1.0), Link(1, 3, 4.0), Link(1, 2, 1.0), Link(0, 2, 4.0), Link(2, 3, 1.0)],
    )


def theta_cut() -> Topology:
    # Two triangles sharing node 2: no node-disjoint 0-3 pair exists.
    return Topology(
        5,
        [
            Link(0, 1, 1.0),
            Link(1, 2, 1.0),
            Link(0, 2, 1.0),
            Link(2, 3, 1.0),
            Link(3, 4, 1.0),
            Link(2, 4, 1.0),
        ],
    )


def hybrid_upgrade_instance() -> Topology:
    """Two-connected 6-node graph where the link-failure detour for a broken
    1-2 link re-approaches node 2 through node 4, forcing a label upgrade
    when node 2 itself is dead."""
    return Topology(
        6,
        [
            Link(0, 1, 1.0),
            Link(1, 2, 1.0),
            Link(2, 3, 1.0),
            Link(1, 4, 1.0),
            Link(4, 2, 1.0),
            Link(4, 5, 1.0),
            Link(5, 3, 1.0),
            Link(0, 4, 1.0),
        ],
    )


def five_node_detour() -> Topology:
    """Primary chain 0-1-2-3 with an expensive bypass 0-4-3; failure two hops
    down the chain forces a two-hop crankback in the disjoint baseline."""
    return Topology(
        5,
        [
            Link(0, 1, 1.0),
            Link(1, 2, 1.0),
            Link(2, 3, 1.0),
            Link(0, 4, 2.0),
            Link(4, 3, 2.0),
        ],
    )


@st.composite
def two_connected_graphs(draw, weights=(0.0, 1.0, 1.0, 2.5)):
    """A ring with random chords: two-connected, each link weight drawn from
    ``weights`` (by default zero, one or tied)."""
    n = draw(st.integers(4, 6))
    chords = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n))
    pairs = {(i, (i + 1) % n) for i in range(n)} | {(u, v) for u, v in chords if u != v}
    edges = sorted({(min(u, v), max(u, v)) for u, v in pairs})
    drawn = draw(st.lists(st.sampled_from(weights), min_size=len(edges), max_size=len(edges)))
    return Topology(n, [Link(u, v, w) for (u, v), w in zip(edges, drawn)])


def oracle_corpus() -> list[tuple[str, Topology]]:
    """The two-connected desk-scale corpus the oracle-equivalence acceptance
    criteria sweep: lattices 9 and 16, K4-K6, squares, the hybrid-upgrade
    instance, and 50 seeded Erdős–Rényi graphs at n=10."""
    corpus: list[tuple[str, Topology]] = [
        ("triangle", triangle()),
        ("square", square()),
        ("weighted-square", weighted_square()),
        ("k4", complete(4)),
        ("k5", complete(5)),
        ("k6", complete(6)),
        ("lattice9", generate_lattice(9, 1)),
        ("lattice16", generate_lattice(16, 2)),
        ("hybrid6", hybrid_upgrade_instance()),
    ]
    corpus.extend((f"er10-{seed}", generate_erdos_renyi(10, seed)) for seed in range(50))
    return corpus


@pytest.fixture(scope="session")
def corpus() -> list[tuple[str, Topology]]:
    return oracle_corpus()


@pytest.fixture()
def unit_square() -> Topology:
    return square()


@pytest.fixture()
def unit_triangle() -> Topology:
    return triangle()
