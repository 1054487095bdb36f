"""Shortest-path engines with deterministic tie-breaking.

Among equal-weight shortest paths the preferred one has the smallest
next-hop node id at the first point of divergence, applied recursively;
equivalently, the lexicographically smallest node sequence.  Dijkstra
realizes this by keying its heap on ``(distance, path-tuple)``: tuple
comparison breaks distance ties by path sequence, and because extending a
path appends to the tuple the greedy settle order stays correct.  The rule
makes every downstream artifact (affected sets, label pop points, metrics)
a pure function of the topology, and it composes: the suffix of a preferred
path is the preferred path of its own origin.

``lex_dijkstra`` is the one Dijkstra loop: ``shortest_tree`` runs it over a
topology view and the disjoint-pair baselines over their arc maps.  The
queued Bellman-Ford pair runs in no build; the tests' arc-reversal oracle
(``tests/oracles.py``) runs it.  Distances are exact minima over
left-associated float sums, so Dijkstra and the queued Bellman-Ford agree
bit-for-bit.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, Iterable, Optional

from .rules import MODE_SHORTEST, Match, Output, PRIMARY, ForwardingMatrix
from .topology import NO_FAILURE, FailureScenario, Link, Topology

__all__ = [
    "SpCounter",
    "ShortestPathTree",
    "AffectedSets",
    "DisconnectedTopologyError",
    "shortest_tree",
    "all_shortest_trees",
    "lex_dijkstra",
    "queued_bellman_ford",
    "bellman_ford_distances",
]

# Affected destinations per outgoing arc: (node, link) -> destinations whose
# preferred shortest path from that node departs on that link.
AffectedSets = dict[tuple[int, Link], set[int]]


class DisconnectedTopologyError(ValueError):
    pass


class SpCounter:
    """Counts one-to-many shortest-path invocations (complexity budget)."""

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0


class ShortestPathTree:
    """Single-source result: exact distances, preferred paths, first links."""

    __slots__ = ("source", "dist", "paths", "next_link", "unreachable")

    def __init__(
        self,
        source: int,
        dist: dict[int, float],
        paths: dict[int, tuple[int, ...]],
        next_link: dict[int, Link],
        unreachable: frozenset[int],
    ):
        self.source = source
        self.dist = dist
        self.paths = paths
        self.next_link = next_link
        self.unreachable = unreachable


def shortest_tree(
    t: Topology,
    src: int,
    excluded: FailureScenario = NO_FAILURE,
    targets: Optional[Iterable[int]] = None,
    counter: Optional[SpCounter] = None,
) -> ShortestPathTree:
    """Dijkstra from ``src`` over ``t``, or over a filter view of ``t`` minus
    ``excluded`` when something is excluded.

    If ``targets`` is given the search may stop once all reachable targets
    are settled; their distances equal the unrestricted run's.  Unreachable
    targets end up in ``tree.unreachable`` rather than raising.
    """
    if counter is not None:
        counter.count += 1
    want = None if targets is None else set(targets)
    arcs_of = t.neighbors if excluded.kind == "none" else t.view(excluded).neighbors
    dist, paths = lex_dijkstra(arcs_of, src, want)
    next_link: dict[int, Link] = {}
    for dst, path in paths.items():
        if dst != src:
            link = t.link_between(src, path[1])
            assert link is not None
            next_link[dst] = link
    unreachable = frozenset(want.difference(dist)) if want else frozenset()
    return ShortestPathTree(src, dist, paths, next_link, unreachable)


def all_shortest_trees(
    t: Topology, counter: Optional[SpCounter] = None
) -> list[ShortestPathTree]:
    """One full preferred-path tree per source node (|N| invocations)."""
    return [shortest_tree(t, src, counter=counter) for src in t.nodes]


def primary_matrix_from_trees(
    t: Topology, trees: list[ShortestPathTree]
) -> tuple[ForwardingMatrix, AffectedSets]:
    fw = ForwardingMatrix(MODE_SHORTEST, t.n)
    affected: AffectedSets = {}
    for src in t.nodes:
        tree = trees[src]
        if len(tree.dist) < t.n:
            missing = sorted(set(t.nodes) - set(tree.dist))
            raise DisconnectedTopologyError(
                f"nodes {missing} unreachable from {src}"
            )
        for dst in t.nodes:
            if dst == src:
                continue
            link = tree.next_link[dst]
            fw.add_rule(src, Match(PRIMARY, dst), Output(link))
            affected.setdefault((src, link), set()).add(dst)
    return fw, affected


def lex_dijkstra(
    arcs_of: Callable[[int], Iterable[tuple]],
    src: int,
    targets: Optional[Iterable[int]] = None,
) -> tuple[dict[int, float], dict[int, tuple[int, ...]]]:
    """Tie-broken Dijkstra over an arbitrary non-negative arc function.

    ``arcs_of(u)`` yields ``(v, weight, ...)`` tuples; items after the
    weight are ignored.  If ``targets`` is given the search stops once every
    target is settled; the nodes it did settle carry the unrestricted run's
    results.
    """
    dist: dict[int, float] = {}
    paths: dict[int, tuple[int, ...]] = {}
    want = None if targets is None else set(targets)
    heap: list[tuple[float, tuple[int, ...]]] = [(0.0, (src,))]
    while heap:
        d, path = heappop(heap)
        node = path[-1]
        if node in dist:
            continue
        dist[node] = d
        paths[node] = path
        if want is not None:
            want.discard(node)
            if not want:
                break
        for arc in arcs_of(node):
            nb = arc[0]
            if nb not in dist:
                heappush(heap, (d + arc[1], path + (nb,)))
    return dist, paths


def queued_bellman_ford(
    arcs_of: Callable[[int], Iterable[tuple[int, float]]],
    src: int,
) -> tuple[dict[int, float], dict[int, tuple[int, ...]]]:
    """Queued Bellman-Ford over an arbitrary arc function; handles negative
    arc weights (no negative cycles).  Same tie-break as Dijkstra.

    Candidate paths are kept simple, which bounds the label space and makes
    the lexicographic tie-break well-founded even when cancelling arc pairs
    create zero-weight cycles.
    """
    from collections import deque

    dist: dict[int, float] = {src: 0.0}
    paths: dict[int, tuple[int, ...]] = {src: (src,)}
    queue = deque([src])
    queued = {src}
    while queue:
        u = queue.popleft()
        queued.discard(u)
        du, pu = dist[u], paths[u]
        for v, w in arcs_of(u):
            if v in pu:
                continue
            cand = du + w
            cand_path = pu + (v,)
            if v not in dist or cand < dist[v] or (cand == dist[v] and cand_path < paths[v]):
                dist[v] = cand
                paths[v] = cand_path
                if v not in queued:
                    queue.append(v)
                    queued.add(v)
    return dist, paths


def bellman_ford_distances(
    arcs_of: Callable[[int], Iterable[tuple[int, float]]],
    src: int,
) -> dict[int, float]:
    """Distance-only queued Bellman-Ford (no path restriction); exact walk
    minima, used to validate the path-carrying variant on negative graphs."""
    from collections import deque

    dist: dict[int, float] = {src: 0.0}
    queue = deque([src])
    queued = {src}
    while queue:
        u = queue.popleft()
        queued.discard(u)
        du = dist[u]
        for v, w in arcs_of(u):
            cand = du + w
            if v not in dist or cand < dist[v]:
                dist[v] = cand
                if v not in queued:
                    queue.append(v)
                    queued.add(v)
    return dist
