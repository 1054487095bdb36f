"""Independent brute-force oracles the tests check the library against.

Everything here is deliberately naive: exhaustive enumeration, remove-and-
retest connectivity, and path reconstruction from first principles.  The
protection oracles are built on ``shortest_tree`` only (which is itself
validated against enumeration) and never touch the rule machinery they
verify.  Two second engines check the library's own: Floyd-Warshall for
shortest distances, and Bhandari's arc reversal for min-sum disjoint pairs.
"""

from __future__ import annotations

import math
from collections import deque
from itertools import combinations
from typing import Optional

from failover.baseline import (
    ArcMap,
    DisjointPair,
    _arc_map,
    _make_pair,
    _split_arc_map,
    _untangle,
)
from failover.rules import ForwardingMatrix
from failover.spf import (
    AffectedSets,
    ShortestPathTree,
    all_shortest_trees,
    bellman_ford_distances,
    lex_dijkstra,
    primary_matrix_from_trees,
    queued_bellman_ford,
    shortest_tree,
)
from failover.topology import FailureScenario, Link, NO_FAILURE, Topology


def all_to_all(t: Topology) -> tuple[ForwardingMatrix, AffectedSets]:
    """All-to-all primary rules plus the per-arc affected destination sets."""
    return primary_matrix_from_trees(t, all_shortest_trees(t))


def floyd_warshall(t: Topology) -> list[list[float]]:
    """All-pairs distance matrix.  Sums may differ from Dijkstra's by float
    association, compare with a tolerance."""
    n = t.n
    inf = math.inf
    dist = [[inf] * n for _ in range(n)]
    for i in range(n):
        dist[i][i] = 0.0
    for link in t.links:
        dist[link.u][link.v] = link.weight
        dist[link.v][link.u] = link.weight
    for k in range(n):
        dk = dist[k]
        for i in range(n):
            dik = dist[i][k]
            if dik == inf:
                continue
            di = dist[i]
            for j in range(n):
                alt = dik + dk[j]
                if alt < di[j]:
                    di[j] = alt
    return dist


def _arc_weight(arcs: ArcMap, a: int, b: int) -> float:
    for v, w in arcs[a]:
        if v == b:
            return w
    raise KeyError((a, b))


def _arc_reversal_pair(
    t: Topology, s: int, d: int, node_disjoint: bool
) -> Optional[DisjointPair]:
    """Bhandari's method: reverse the first path's arcs with negated weights
    and find the second path with Bellman-Ford."""
    if s == d:
        raise ValueError("source and destination must differ")
    src, dst = (2 * s + 1, 2 * d) if node_disjoint else (s, d)
    arcs = _split_arc_map(t) if node_disjoint else _arc_map(t)
    _, paths1 = lex_dijkstra(lambda u: arcs.get(u, ()), src)
    if dst not in paths1:
        return None
    p1 = paths1[dst]
    p1_arcs = list(zip(p1, p1[1:]))
    p1_set = set(p1_arcs)
    anti = {(b, a) for a, b in p1_arcs}
    # The anti-parallel direction of a used link is replaced, not kept, so a
    # physical link is never reused.
    residual: ArcMap = {}
    for u, lst in arcs.items():
        residual[u] = [
            (v, w) for v, w in lst if (u, v) not in p1_set and (u, v) not in anti
        ]
    for a, b in p1_arcs:
        residual.setdefault(b, []).append((a, -_arc_weight(arcs, a, b)))
    dist2, paths2 = queued_bellman_ford(lambda u: residual.get(u, ()), src)
    if dst in dist2:
        exact = bellman_ford_distances(lambda u: residual.get(u, ()), src)[dst]
        if dist2[dst] - exact > 1e-9 * max(1.0, abs(exact)):
            raise AssertionError(
                "path-restricted Bellman-Ford missed the residual optimum"
            )
    if dst not in paths2:
        return None
    return _make_pair(t, _untangle(src, dst, p1, paths2[dst]), node_disjoint)


def bhandari_link_disjoint(t: Topology, s: int, d: int) -> Optional[DisjointPair]:
    """Arc-reversal reference for ``suurballe_link_disjoint``."""
    return _arc_reversal_pair(t, s, d, node_disjoint=False)


def bhandari_node_disjoint(t: Topology, s: int, d: int) -> Optional[DisjointPair]:
    """Arc-reversal reference for ``suurballe_node_disjoint``."""
    return _arc_reversal_pair(t, s, d, node_disjoint=True)


def connected_after_removal(t: Topology, removed: Optional[int]) -> bool:
    nodes = [x for x in t.nodes if x != removed]
    if not nodes:
        return True
    seen = {nodes[0]}
    queue = deque([nodes[0]])
    while queue:
        u = queue.popleft()
        for v, _w, _l in t.neighbors(u):
            if v != removed and v not in seen:
                seen.add(v)
                queue.append(v)
    return len(seen) == len(nodes)


def brute_is_two_connected(t: Topology) -> bool:
    if t.n < 3:
        return False
    if not connected_after_removal(t, None):
        return False
    return all(connected_after_removal(t, x) for x in t.nodes)


def enumerate_simple_paths(
    t: Topology, s: int, d: int, excluded: FailureScenario = NO_FAILURE
):
    """All simple s-d paths with left-associated weight sums."""
    view = t.view(excluded)
    results: list[tuple[float, tuple[int, ...]]] = []
    stack: list[tuple[int, tuple[int, ...], float]] = [(s, (s,), 0.0)]
    while stack:
        node, path, weight = stack.pop()
        if node == d:
            results.append((weight, path))
            continue
        for v, w, _l in view.neighbors(node):
            if v not in path:
                stack.append((v, path + (v,), weight + w))
    return results


def brute_shortest(
    t: Topology, s: int, d: int, excluded: FailureScenario = NO_FAILURE
) -> Optional[tuple[float, tuple[int, ...]]]:
    """Shortest distance and the tie-broken (lexicographically smallest)
    shortest path, by exhaustive enumeration."""
    paths = enumerate_simple_paths(t, s, d, excluded)
    if not paths:
        return None
    best = min(w for w, _ in paths)
    candidates = sorted(p for w, p in paths if w == best)
    return best, candidates[0]


def path_weight(t: Topology, path: tuple[int, ...]) -> float:
    total = 0.0
    for a, b in zip(path, path[1:]):
        link = t.link_between(a, b)
        assert link is not None, f"missing link {a}-{b}"
        total += link.weight
    return total


def path_link_pairs(path: tuple[int, ...]) -> set[tuple[int, int]]:
    return {(a, b) if a < b else (b, a) for a, b in zip(path, path[1:])}


def brute_best_disjoint_pair(
    t: Topology, s: int, d: int, node_disjoint: bool
) -> Optional[float]:
    """Minimum total weight over all disjoint path pairs, by enumeration."""
    paths = enumerate_simple_paths(t, s, d)
    best: Optional[float] = None
    for (w1, p1), (w2, p2) in combinations(paths, 2):
        if node_disjoint:
            if set(p1[1:-1]) & set(p2[1:-1]):
                continue
        if path_link_pairs(p1) & path_link_pairs(p2):
            continue
        total = w1 + w2
        if best is None or total < best:
            best = total
    return best


class DetourOracle:
    """Expected delivered paths for the protection schemes, built from
    shortest-path trees alone (prefix to the detecting node, then the detour
    in the surviving graph)."""

    def __init__(self, t: Topology):
        self.t = t
        self.trees = [shortest_tree(t, s) for s in t.nodes]
        self._detours: dict[tuple[int, FailureScenario], ShortestPathTree] = {}

    def _detour_tree(self, src: int, excluded: FailureScenario) -> ShortestPathTree:
        key = (src, excluded)
        tree = self._detours.get(key)
        if tree is None:
            tree = shortest_tree(self.t, src, excluded=excluded)
            self._detours[key] = tree
        return tree

    def primary(self, s: int, d: int) -> tuple[int, ...]:
        return self.trees[s].paths[d]

    def per_link(self, link: Link, s: int, d: int) -> Optional[tuple[int, ...]]:
        """Delivered node sequence under LinkDown(link), or None if
        undeliverable."""
        prim = self.primary(s, d)
        for i, (a, b) in enumerate(zip(prim, prim[1:])):
            pair = (a, b) if a < b else (b, a)
            if pair == link.pair:
                scenario = FailureScenario.link_down(link.u, link.v)
                tree = self._detour_tree(a, scenario)
                if d not in tree.paths:
                    return None
                return prim[:i] + tree.paths[d]
        return prim

    def per_node(self, v: int, s: int, d: int) -> Optional[tuple[int, ...]]:
        """Delivered node sequence under NodeDown(v) for the per-node scheme."""
        if d == v or s == v:
            return None
        prim = self.primary(s, d)
        if v not in prim:
            return prim
        i = prim.index(v)
        c = prim[i - 1]
        tree = self._detour_tree(c, FailureScenario.node_down(v))
        if d not in tree.paths:
            return None
        return prim[: i - 1] + tree.paths[d]

    def hybrid_node(self, v: int, s: int, d: int) -> Optional[tuple[int, ...]]:
        """Delivered node sequence under NodeDown(v) for the hybrid scheme:
        the link detour is followed until it would enter the dead node, at
        which point the label upgrade reroutes on the node-avoiding detour."""
        if d == v or s == v:
            return None
        prim = self.primary(s, d)
        if v not in prim:
            return prim
        i = prim.index(v)
        c = prim[i - 1]
        link_tree = self._detour_tree(c, FailureScenario.link_down(c, v))
        if d not in link_tree.paths:
            return None
        detour = link_tree.paths[d]
        for j in range(len(detour) - 1):
            if detour[j + 1] == v:
                w = detour[j]
                node_tree = self._detour_tree(w, FailureScenario.node_down(v))
                if d not in node_tree.paths:
                    return None
                return prim[: i - 1] + detour[: j + 1] + node_tree.paths[d][1:]
        return prim[: i - 1] + detour
