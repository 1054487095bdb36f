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

``lex_dijkstra`` is the one Dijkstra loop: ``shortest_tree`` runs it over the
topology's adjacency and the disjoint-pair baselines over their arc maps.
The queued Bellman-Ford pair runs in no build; the tests' arc-reversal
oracle (``tests/oracles.py``) runs it.  Distances are exact minima over
left-associated float sums, so Dijkstra and the queued Bellman-Ford agree
bit-for-bit.

A detour tree (one failed link or node) is seeded from the source's
unrestricted tree.  Call a node dead when its preferred path touches the
failed element: the subtree below the failed tree link, or below the failed
node.  Every other node keeps its ``(dist, path)``, and only the dead set is
searched, from a heap of the live arcs that enter it.  This is exact:

* Dijkstra's keys are the unique solution of ``K(src) = (0, (src,))`` and
  ``K(x) = min over arcs (u, x) of (d(u) + w, p(u) + (x,))``, because each
  extension is strictly larger than the key it extends.  So a seeded result
  that satisfies these equations in the surviving graph is the unseeded one.
* They hold at every dead node by the search itself.  At a live node ``x``
  its tree parent is live and its arc survives, so ``K(x)`` is still
  reached.  No live neighbour gives less, as before the failure.  A dead
  neighbour ``y`` cannot give less in exact arithmetic, since the surviving
  graph's paths are a subset.  In floats ``d'(y) > d(y)`` may still round to
  ``d'(y) + w == d(x)``; this needs ``d(y) + w == d(x)`` already, so only
  those arcs are checked after the search, and a violation falls back to
  searching every node.

A failure the tree does not use changes no key, so the tree itself is the
result.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
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
    """Single-source result: exact distances, preferred paths, first links.
    Nodes the source cannot reach are absent."""

    __slots__ = ("source", "dist", "paths", "next_link")

    def __init__(
        self,
        source: int,
        dist: dict[int, float],
        paths: dict[int, tuple[int, ...]],
        next_link: dict[int, Link],
    ):
        self.source = source
        self.dist = dist
        self.paths = paths
        self.next_link = next_link


def shortest_tree(
    t: Topology,
    src: int,
    excluded: FailureScenario = NO_FAILURE,
    *,
    counter: Optional[SpCounter] = None,
    primary: Optional[ShortestPathTree] = None,
) -> ShortestPathTree:
    """Dijkstra from ``src`` over ``t`` minus ``excluded``.

    With something excluded, the search is seeded from ``primary``, the
    full unrestricted tree of ``src`` as this function returns it; it is
    computed here when not given.  The result does not depend on it, and is
    ``primary`` itself when the tree does not use the failed element.
    """
    if counter is not None:
        counter.count += 1
    if excluded.kind == "none":
        return _tree(t, src, *lex_dijkstra(t.neighbors, src))
    if primary is None:
        primary = _tree(t, src, *lex_dijkstra(t.neighbors, src))
    return _detour_tree(t, src, excluded, primary)


def _tree(
    t: Topology, src: int, dist: dict[int, float], paths: dict[int, tuple[int, ...]]
) -> ShortestPathTree:
    hop = {nb: link for nb, _w, link in t.neighbors(src)}
    next_link = {dst: hop[path[1]] for dst, path in paths.items() if dst != src}
    return ShortestPathTree(src, dist, paths, next_link)


def _detour_tree(
    t: Topology, src: int, excluded: FailureScenario, primary: ShortestPathTree
) -> ShortestPathTree:
    """``shortest_tree`` with something excluded, seeded from ``primary``
    (see the module docstring)."""
    pdist, ppaths = primary.dist, primary.paths
    adj = list(t.adjacency)
    failed = None
    if excluded.kind == "link":
        # The subtree below the failed link, if the tree uses it.
        a, b = excluded.u, excluded.v
        pa, pb = ppaths.get(a, ()), ppaths.get(b, ())
        top = b if pb[-2:] == (a, b) else a if pa[-2:] == (b, a) else None
        if top is not None:
            adj[a] = tuple(arc for arc in adj[a] if arc[0] != b)
            adj[b] = tuple(arc for arc in adj[b] if arc[0] != a)
    elif excluded.v in ppaths:
        top = failed = excluded.v
        adj[failed] = ()
    else:
        top = None
    if top is None:
        return primary

    def unseeded() -> ShortestPathTree:
        if failed is not None:
            for u, _w, _l in t.neighbors(failed):
                adj[u] = tuple(arc for arc in adj[u] if arc[0] != failed)
        return _tree(t, src, *lex_dijkstra(adj.__getitem__, src))

    if top == src:
        return unseeded()
    depth = len(ppaths[top]) - 1
    dead = {x for x, p in ppaths.items() if len(p) > depth and p[depth] == top}
    dist, paths = dict(pdist), dict(ppaths)
    for x in dead:
        del dist[x], paths[x]
    heap = []
    risky = []
    for y in dead:
        for x, w, _l in adj[y]:
            if x not in dead:
                dx = pdist[x]
                heap.append((dx + w, ppaths[x] + (y,)))
                if pdist[y] + w == dx:
                    risky.append((y, x, w))
    if heap:
        if failed is not None:
            # Listed as settled, the failed node is never pushed, so the arc
            # lists that lead to it need no filtering.
            dist[failed] = pdist[failed]
        heapify(heap)
        lex_dijkstra(adj.__getitem__, src, seed=(dist, paths, heap))
        dist.pop(failed, None)
    for y, x, w in risky:
        if y in dist and dist[y] + w == pdist[x] and paths[y] + (x,) < ppaths[x]:
            return unseeded()
    return _tree(t, src, dist, paths)


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
    seed: Optional[tuple[dict, dict, list]] = None,
) -> tuple[dict[int, float], dict[int, tuple[int, ...]]]:
    """Tie-broken Dijkstra over an arbitrary non-negative arc function.

    ``arcs_of(u)`` yields ``(v, weight, ...)`` tuples; items after the
    weight are ignored.  If ``targets`` is given the search stops once every
    target is settled; the nodes it did settle carry the unrestricted run's
    results.

    A ``seed`` ``(dist, paths, heap)`` starts the search part-way: nodes
    already settled, and a heap of ``(distance, path)`` keys for the rest,
    in place of ``src``.  The search fills ``dist`` and ``paths`` in place;
    ``targets`` must not be settled already.
    """
    want = None if targets is None else set(targets)
    if seed is None:
        dist: dict[int, float] = {}
        paths: dict[int, tuple[int, ...]] = {}
        heap: list[tuple[float, tuple[int, ...]]] = [(0.0, (src,))]
    else:
        dist, paths, heap = seed
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
