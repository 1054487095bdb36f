"""Independent brute-force oracles the tests check the library against.

Everything here is deliberately naive: exhaustive enumeration, remove-and-
retest connectivity, and path reconstruction from first principles.  The
protection oracles are built on ``unseeded_tree`` only (a plain Dijkstra over
a filtered view, itself validated against enumeration) and never touch the
rule machinery or the seeded detour search they verify.  Second engines
check the library's own: Floyd-Warshall for shortest distances, Bhandari's
arc reversal for min-sum disjoint pairs, and an unseeded Suurballe search
for the seeded second path.  ``reference_simulate`` is the packet walk
restated over ``Match`` keys, tier by tier, on the uncompiled matrix, and
``reference_measure`` restates the evaluation metrics with it.
"""

from __future__ import annotations

import math
from collections import deque
from itertools import combinations
from statistics import fmean
from typing import Iterator, Optional

from failover.baseline import DisjointPair
from failover.dataplane import DELIVERED, LOOP, Trace, TraceStep
from failover.metrics import MetricsRow
from failover.rules import (
    Action,
    Drop,
    FailureLabel,
    ForwardingMatrix,
    GroupRef,
    Match,
    PRIMARY,
    PopLabelOutput,
    PushLabelOutput,
    RewriteLabelOutput,
    check_matrix_size,
)
from failover.spf import (
    AffectedSets,
    ShortestPathTree,
    all_shortest_trees,
    bellman_ford_distances,
    lex_dijkstra,
    primary_matrix_from_trees,
    queued_bellman_ford,
)
from failover.topology import FailureScenario, Link, NO_FAILURE, Topology


class AdjacencyView:
    """Read-only adjacency with one failed element filtered out.

    Lookups check the exclusion first and otherwise defer to the base
    topology, so creating a view costs O(1) and never copies.
    """

    __slots__ = ("base", "excluded")

    def __init__(self, base: Topology, excluded: FailureScenario):
        self.base = base
        self.excluded = excluded

    def neighbors(self, node: int) -> Iterator[tuple[int, float, Link]]:
        excluded = self.excluded
        if not excluded.node_is_live(node):
            return
        for other, weight, link in self.base.neighbors(node):
            if excluded.link_is_live(link):
                yield (other, weight, link)


def unseeded_tree(
    t: Topology, src: int, excluded: FailureScenario = NO_FAILURE
) -> ShortestPathTree:
    """The reference for ``shortest_tree``: one plain Dijkstra from ``src``
    over the view of ``t`` minus ``excluded``, with nothing taken from
    another tree."""
    return ShortestPathTree(src, *lex_dijkstra(AdjacencyView(t, excluded).neighbors, src))


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


ArcMap = dict[int, list[tuple[int, float]]]


def _arcs(t: Topology, node_disjoint: bool) -> ArcMap:
    """Both directions of every link; with ``node_disjoint``, node ``x`` is
    split into ``2x`` (in) and ``2x+1`` (out), joined by a free arc."""
    if not node_disjoint:
        return {u: [(v, w) for v, w, _l in t.neighbors(u)] for u in t.nodes}
    arcs: ArcMap = {}
    for x in t.nodes:
        arcs[2 * x] = [(2 * x + 1, 0.0)]
        arcs[2 * x + 1] = [(2 * v, w) for v, w, _l in t.neighbors(x)]
    return arcs


def _arc_weight(arcs: ArcMap, a: int, b: int) -> float:
    for v, w in arcs[a]:
        if v == b:
            return w
    raise KeyError((a, b))


def _loop_erased(walk: list[int]) -> tuple[int, ...]:
    """Chronological loop erasure, by its last-visit form: after each kept
    node the walk goes on from that node's last visit."""
    last = {node: i for i, node in enumerate(walk)}
    kept = [walk[0]]
    i = last[walk[0]]
    while i < len(walk) - 1:
        kept.append(walk[i + 1])
        i = last[walk[i + 1]]
    return tuple(kept)


def _cancel_and_decompose(
    s: int, d: int, p1: tuple[int, ...], p2: tuple[int, ...]
) -> list[tuple[int, ...]]:
    """Drop each arc of ``p1`` that ``p2`` runs back over, together with that
    reverse arc; then split what is left into two s-d paths.  Each walk
    leaves every node by the unused arc to the smallest node."""
    arcs1, arcs2 = list(zip(p1, p1[1:])), list(zip(p2, p2[1:]))
    unused = [arc for arc in arcs1 if arc[::-1] not in arcs2]
    unused += [arc for arc in arcs2 if arc[::-1] not in arcs1]
    paths = []
    for _ in range(2):
        walk = [s]
        while walk[-1] != d:
            arc = min(arc for arc in unused if arc[0] == walk[-1])
            unused.remove(arc)
            walk.append(arc[1])
        paths.append(_loop_erased(walk))
    return paths


def _arc_reversal_pair(
    t: Topology, s: int, d: int, node_disjoint: bool
) -> Optional[DisjointPair]:
    """Bhandari's method: reverse the first path's arcs with negated weights
    and find the second path with Bellman-Ford."""
    if s == d:
        raise ValueError("source and destination must differ")
    src, dst = (2 * s + 1, 2 * d) if node_disjoint else (s, d)
    arcs = _arcs(t, node_disjoint)
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
    pair = _cancel_and_decompose(src, dst, p1, paths2[dst])
    if node_disjoint:
        # A split path runs out(s), in(a), out(a), ..., in(d).
        pair = [(p[0] // 2,) + tuple(x // 2 for x in p[1:] if x % 2 == 0) for p in pair]
    primary, backup = sorted(pair, key=lambda p: (path_weight(t, p), p))
    return DisjointPair(primary, path_weight(t, primary), backup, path_weight(t, backup))


def unseeded_second_path(
    t: Topology, s: int, d: int, node_disjoint: bool
) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The reference for the library's seeded second search: the first path
    (the source tree's path to ``d``) and Suurballe's second path, by a plain
    Dijkstra from the source alone over the whole residual graph in reduced
    costs.  Paths are in the arc map of ``_arcs``; None when either path is
    missing."""
    src, dst = (2 * s + 1, 2 * d) if node_disjoint else (s, d)
    arcs = _arcs(t, node_disjoint)
    dist, paths = lex_dijkstra(arcs.__getitem__, src)
    p1 = paths.get(dst)
    if p1 is None:
        return None
    residual = {
        u: [(v, (w + dist[u]) - dist[v]) for v, w in lst if v in dist]
        for u, lst in arcs.items()
        if u in dist
    }
    for prev, u, nxt in zip((None,) + p1, p1, p1[1:] + (None,)):
        lst = [(v, w) for v, w in residual[u] if v != nxt and v != prev]
        if prev is not None:
            lst.append((prev, 0.0))
        residual[u] = lst
    _, paths2 = lex_dijkstra(residual.__getitem__, src, dst)
    p2 = paths2.get(dst)
    return None if p2 is None else (p1, p2)


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
    view = AdjacencyView(t, excluded)
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
        self.trees = [unseeded_tree(t, s) for s in t.nodes]
        self._detours: dict[tuple[int, FailureScenario], ShortestPathTree] = {}

    def _detour_tree(self, src: int, excluded: FailureScenario) -> ShortestPathTree:
        key = (src, excluded)
        tree = self._detours.get(key)
        if tree is None:
            tree = unseeded_tree(self.t, src, excluded)
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


def _lookup(fw: ForwardingMatrix, node: int, label: FailureLabel, dst: int,
            src: int, in_link: Optional[Link]) -> Optional[Action]:
    table = fw.tables[node]
    action = table.get(Match(label, dst, src, in_link))
    if action is not None:
        return action
    if in_link is not None:
        action = table.get(Match(label, dst, src, None))
        if action is not None:
            return action
    action = table.get(Match(label, dst))
    if action is not None:
        return action
    for fallback in label.fallbacks():
        action = table.get(Match(fallback, dst))
        if action is not None:
            return action
    return None


def reference_simulate(fw: ForwardingMatrix, t: Topology, scenario: FailureScenario,
                       src: int, dst: int) -> Trace:
    """The reference for ``dataplane.simulate``: one packet walked over
    ``fw``'s ``Match`` keys, tier by tier, with liveness asked of
    ``scenario`` and the crankback recounted by ``crankback_of``.  A
    malformed matrix never makes it raise: a group that is not defined, a
    group nested in a bucket, an output link that does not touch the node
    and one that leads outside ``0..n-1`` each drop the packet."""
    if src == dst:
        raise ValueError("source and destination must differ")
    check_matrix_size(fw.n, t)
    trace = Trace(src)
    if not scenario.node_is_live(src):
        trace.reason = "source is the failed node"
        return trace
    node = src
    label = PRIMARY
    in_link: Optional[Link] = None
    seen: set[tuple[int, FailureLabel, Optional[Link]]] = set()
    while node != dst:
        state = (node, label, in_link)
        if state in seen:
            trace.outcome = LOOP
            trace.reason = "forwarding state repeated"
            return trace
        seen.add(state)
        action = _lookup(fw, node, label, dst, src, in_link)
        if action is None:
            trace.reason = "no matching rule"
            return trace
        if isinstance(action, GroupRef):
            entry = fw.groups.get(action.group_id)
            if entry is None:
                trace.reason = f"group {action.group_id} is not defined"
                return trace
            for watch, bucket_action in entry.buckets:
                if watch is None or scenario.link_is_live(watch):
                    action = bucket_action
                    break
            else:
                trace.reason = "no live group bucket"
                return trace
            if isinstance(action, GroupRef):
                trace.reason = f"group {action.group_id} is nested in a group bucket"
                return trace
        if isinstance(action, Drop):
            trace.reason = "drop rule"
            return trace
        if isinstance(action, PushLabelOutput):
            label, out = action.label, action.link
        elif isinstance(action, PopLabelOutput):
            label, out = PRIMARY, action.link
        elif isinstance(action, RewriteLabelOutput):
            label, out = action.label, action.link
        else:
            out = action.link
        if not scenario.link_is_live(out):
            trace.reason = f"output link {out} is dead"
            return trace
        if node != out.u and node != out.v:
            trace.reason = f"output link {out} does not touch node {node}"
            return trace
        if out.u < 0 or out.v >= fw.n:
            trace.reason = f"output link {out} leads outside 0..{fw.n - 1}"
            return trace
        trace.steps.append(TraceStep(node, label, out))
        trace.total_weight += out.weight
        in_link = out
        node = out.other(node)
    trace.steps.append(TraceStep(node, label, None))
    trace.outcome = DELIVERED
    trace.crankback_weight = crankback_of(trace)
    return trace


def crankback_of(trace: Trace) -> float:
    """Weight of the trace portion retracing earlier links in reverse.

    Each reversed traversal consumes one matching earlier forward traversal,
    so a link bounced twice counts twice.
    """
    unmatched: dict[tuple[int, int], int] = {}
    total = 0.0
    node = trace.src
    for step in trace.steps:
        if step.link is None:
            break
        nxt = step.link.other(node)
        if unmatched.get((nxt, node), 0) > 0:
            unmatched[(nxt, node)] -= 1
            total += step.link.weight
        else:
            unmatched[(node, nxt)] = unmatched.get((node, nxt), 0) + 1
        node = nxt
    return total


# Matrix modes whose backups are scored under node failures; the others are
# scored under link failures.
_NODE_FAILURE_MODES = ("per-node", "hybrid", "disjoint-node")


def reference_measure(fw: ForwardingMatrix, t: Topology, network: str = "custom") -> MetricsRow:
    """``metrics.measure`` from the reference walk: every trace is walked
    by ``reference_simulate`` on ``fw``, source by source, and its
    crankback recounted with ``crankback_of``.  A pair's shortest distance
    is that of a plain Dijkstra tree (``unseeded_tree``)."""
    nan = float("nan")
    primary_ratios: list[float] = []
    backup: list[tuple[float, float, float, float, float]] = []
    uncovered = loops = 0
    for s in t.nodes:
        dist = unseeded_tree(t, s).dist
        for d in t.nodes:
            if s == d:
                continue
            if d not in dist:
                uncovered += 1
                continue
            primary = reference_simulate(fw, t, NO_FAILURE, s, d)
            loops += primary.outcome == "loop"
            if primary.outcome != "delivered":
                uncovered += 1
                continue
            primary_ratios.append(primary.total_weight / dist[d])
            path = primary.node_sequence
            if fw.mode in _NODE_FAILURE_MODES:
                scenarios = [FailureScenario.node_down(v) for v in path[1:-1]]
            else:
                scenarios = [FailureScenario.link_down(a, b) for a, b in zip(path, path[1:])]
            ratios, cranks = [], []
            for scenario in scenarios:
                trace = reference_simulate(fw, t, scenario, s, d)
                loops += trace.outcome == "loop"
                if trace.outcome == "delivered":
                    ratios.append(trace.total_weight / dist[d])
                    cranks.append(crankback_of(trace) / dist[d])
                else:
                    uncovered += 1
            if ratios:
                backup.append((fmean(ratios), min(ratios), max(ratios), fmean(cranks),
                               max(cranks)))
    columns = [fmean(column) for column in zip(*backup)] or [nan] * 5
    flow = fw.rule_count()
    return MetricsRow(
        network=network,
        variant=fw.mode,
        size=t.n,
        flow_entries=float(flow),
        group_fwd_entries=float(fw.group_forwarding_count()),
        distinct_groups=float(fw.distinct_group_count()),
        primary_ratio=fmean(primary_ratios) if primary_ratios else nan,
        backup_avg=columns[0],
        backup_min=columns[1],
        backup_max=columns[2],
        crankback_avg=columns[3],
        crankback_max=columns[4],
        base_entries=float(t.n * (t.n - 1)),
        extra_entries=float(flow - t.n * (t.n - 1)),
        uncovered_cases=float(uncovered),
        loop_traces=float(loops),
    )
