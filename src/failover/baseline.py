"""Min-sum fully-disjoint path pairs and crankback-routing rules.

Pairs come from Suurballe's method.  One shortest-path tree per source gives
every arc a non-negative reduced cost; per destination, a Dijkstra over
those costs, with the first path's arcs reversed at zero cost, finds the
second path, and cancelling interlacing arc pairs leaves the final two.
This is the only pair engine.  Bhandari's arc reversal (negated weights,
Bellman-Ford), which the tests compare it against, is in ``tests/oracles.py``,
and so is the second search without a seed.

The second search is seeded from the source's tree.  In the reduced costs
``(w + dist[u]) - dist[v]`` every tree arc costs exactly 0.0, so a search
over them keys every reached node ``(0.0, tree path)``.  For destination
``d`` with first path ``p1`` (its tree path), only the arc lists of
``p1``'s nodes change.  Call a node dead when its tree path passes
``p1[1]``: by the prefix property of tree paths, that is every node whose
tree path touches a node of ``p1`` other than the source.  Every other node
is live and keeps its key; only the dead set is searched, from a heap of
the live arcs that enter it, less the arc from the source to ``p1[1]``,
which the residual graph drops.  This is exact:

* Dijkstra's keys are the unique solution of ``K(src) = (0, (src,))`` and
  ``K(x) = min over arcs (u, x) of (d(u) + r, p(u) + (x,))``, because each
  extension is strictly larger than the key it extends.  So a seeded result
  that satisfies these equations in the residual graph is the unseeded one.
* They hold at every dead node by the search itself.  A live node's tree
  path uses arcs of live nodes only, and the residual graph keeps them all,
  so ``K(x) = (0.0, tree path)`` is still reached.  No live neighbour gives
  less, as in the full graph.  The first path's reversed arcs lead to nodes
  of ``p1``, dead or the source, and nothing beats the source's key.  A
  dead neighbour ``y`` gives ``d(y) + r >= 0.0``, which ties ``0.0`` only
  when ``d(y)`` and ``r`` are both 0.0 (a float sum of non-negative terms
  is 0.0 only if every term is).  Even then ``p(y) + (x,)`` is larger than
  ``x``'s tree path ``T(x)``.  Let ``c = p1[1]``:

  - ``T(y) + (x,)`` is a simple full-graph path of 0.0 arcs, so
    ``T(x) <= T(y) + (x,)``.  ``T(x)`` does not pass ``c``, so it is
    ``(src,)`` or starts ``(src, c')`` with ``c' < c``.
  - Every arc of ``p(y)`` is 0.0.  Let ``u`` be its first dead node and
    ``v`` the node before it.  ``p(v) = T(v)``, and ``v -> u`` is a
    full-graph arc, since reversed arcs leave only nodes of ``p1`` other
    than the source.  So ``T(u) <= T(v) + (u,)``.  ``T(u)`` starts
    ``(src, c)``.  ``T(v) + (u,)`` starts ``(src, c'')`` with ``c'' != c``,
    because the residual graph drops ``src -> c``.  So ``c < c''``.
  - ``p(y)`` also starts ``(src, c'')``, so ``p(y) + (x,) > T(x)``.
* The search stops at ``d``, like the unseeded one, so it settles exactly
  the dead nodes keyed at or below ``d``; a dead node it leaves unsettled
  is keyed above ``d`` and cannot change ``d``'s key.

The dead set is fixed by ``p1[1]``, so the live keys and the heap are
built once per second node of the source's tree paths, when a destination
first needs them, and each pair copies them.  The source's tree is the
topology's shared one (``failover.spf``).

Crankback rules mirror how fully-disjoint protection behaves in practice:
primary-path rules match on (source, destination, incoming port); a node
detecting a failure bounces packets back along the traversed prefix, and the
source recognizes returned packets by their incoming port and switches to
the backup path.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify
from typing import Optional

from .rules import (
    MODE_DISJOINT_LINK,
    MODE_DISJOINT_NODE,
    PRIMARY,
    Bucket,
    ForwardingMatrix,
    GroupRef,
    Match,
    Output,
    UncoveredEntry,
)
from .spf import check_connected, lex_dijkstra, split_tree
# Unused here; bound so that perfbench/tracing.py finds them by these names.
from .spf import all_shortest_trees, bellman_ford_distances, queued_bellman_ford  # noqa: F401
from .topology import Topology

__all__ = [
    "DisjointPair",
    "suurballe_link_disjoint",
    "suurballe_node_disjoint",
    "disjoint_rules",
]

ArcMap = dict[int, list[tuple[int, float]]]
# The seed of the second search for the destinations whose tree path starts
# with one arc: live distances (all 0.0) and paths, and the heapified
# live->dead arcs.
Seed = tuple[dict[int, float], dict[int, tuple[int, ...]], list]
# A source's preferred shortest paths, its arcs with reduced costs, the arcs
# into each node, and the seeds built so far, by second node of those paths.
SourceTree = tuple[dict[int, tuple[int, ...]], ArcMap, ArcMap, dict[int, Seed]]
# Index into ``t.links`` of the link under each arc ``(a, b)``.
LinkIndex = dict[tuple[int, int], int]


@dataclass(frozen=True)
class DisjointPair:
    """Min-sum pair of disjoint paths; primary is the lighter one."""

    primary: tuple[int, ...]
    primary_weight: float
    backup: tuple[int, ...]
    backup_weight: float

    @property
    def total(self) -> float:
        return self.primary_weight + self.backup_weight


def _arc_map(t: Topology) -> ArcMap:
    return {u: [(v, w) for v, w, _link in t.neighbors(u)] for u in t.nodes}


def _split_arc_map(t: Topology) -> ArcMap:
    """Node-splitting transform: x -> x_in (2x), x_out (2x+1); a pair of
    link-disjoint paths here maps back to internally node-disjoint paths."""
    arcs: ArcMap = {}
    for x in t.nodes:
        arcs[2 * x] = [(2 * x + 1, 0.0)]
        arcs[2 * x + 1] = [(2 * v, w) for v, w, _link in t.neighbors(x)]
    return arcs


def _link_index(t: Topology) -> LinkIndex:
    index: LinkIndex = {}
    for i, link in enumerate(t.links):
        index[link.u, link.v] = index[link.v, link.u] = i
    return index


def _merge_split_path(path: tuple[int, ...]) -> tuple[int, ...]:
    merged: list[int] = []
    for p in path:
        x = p // 2
        if not merged or merged[-1] != x:
            merged.append(x)
    return tuple(merged)


def _simplify(walk: list[int]) -> tuple[int, ...]:
    """Splice out revisits (zero-weight cycles can linger under weight ties)."""
    out: list[int] = []
    pos: dict[int, int] = {}
    for node in walk:
        if node in pos:
            del out[pos[node] + 1 :]
            pos = {n: i for i, n in enumerate(out)}
        else:
            pos[node] = len(out)
            out.append(node)
    return tuple(out)


def _source_tree(t: Topology, arcs: ArcMap, s: int, node_disjoint: bool) -> SourceTree:
    """What all destinations of ``s`` share, from its shared tree in ``t``
    (mapped onto ``arcs``, the split arc map, when ``node_disjoint``).  The
    reduced costs ``(w + dist[u]) - dist[v]`` are exactly >= 0 in floats
    (dist[v] is the min over candidates that include dist[u] + w)."""
    tree = t.shortest_paths().trees[s]
    dist, paths = split_tree(t, s) if node_disjoint else (tree.dist, tree.paths)
    reduced = {
        u: [(v, (w + dist[u]) - dist[v]) for v, w in lst if v in dist]
        for u, lst in arcs.items()
        if u in dist
    }
    into: ArcMap = {u: [] for u in reduced}
    for u, lst in reduced.items():
        for v, r in lst:
            into[v].append((u, r))
    return paths, reduced, into, {}


def _seed(paths: dict[int, tuple[int, ...]], into: ArcMap, src: int, top: int) -> Seed:
    """The seed for the destinations whose tree path starts ``(src, top)``.
    A live node is keyed 0.0, so an arc into the dead set is keyed r."""
    live = {x: path for x, path in paths.items() if path[1:2] != (top,)}
    heap = [(r, live[x] + (y,)) for y in paths if y not in live for x, r in into[y]
            if x in live and (x != src or y != top)]
    heapify(heap)
    return dict.fromkeys(live, 0.0), live, heap


def _second_path(
    tree: SourceTree, src: int, dst: int
) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The first path to ``dst`` and the second search's path, from the
    seed of the first path's second node (see the module docstring)."""
    paths, reduced, into, seeds = tree
    p1 = paths.get(dst)
    if p1 is None:
        return None
    changed: ArcMap = {}
    for prev, u, nxt in zip((None,) + p1, p1, p1[1:] + (None,)):
        # The anti-parallel arc of a used link is replaced, not kept, so a
        # physical link is never reused.
        lst = [(v, w) for v, w in reduced[u] if v != nxt and v != prev]
        if prev is not None:
            lst.append((prev, 0.0))
        changed[u] = lst

    def residual(u: int) -> list[tuple[int, float]]:
        lst = changed.get(u)
        return reduced[u] if lst is None else lst

    if p1[1] not in seeds:
        seeds[p1[1]] = _seed(paths, into, src, p1[1])
    live_dist, live, heap = seeds[p1[1]]
    _, paths2 = lex_dijkstra(residual, src, dst, (dict(live_dist), dict(live), heap[:]))
    p2 = paths2.get(dst)
    return None if p2 is None else (p1, p2)


def _disjoint_pair(
    t: Topology, s: int, d: int, node_disjoint: bool, tree: SourceTree, index: LinkIndex
) -> Optional[tuple[DisjointPair, list[int], list[int]]]:
    """Min-sum pair for ``s``-``d`` by Suurballe's method, from the
    :func:`_source_tree` of ``s`` (of ``2s+1`` in the split arc map when
    ``node_disjoint``), with the ``t.links`` indices along its primary and
    backup paths."""
    if s == d:
        raise ValueError("source and destination must differ")
    src, dst = (2 * s + 1, 2 * d) if node_disjoint else (s, d)
    found = _second_path(tree, src, dst)
    if found is None:
        return None
    p1, p2 = found
    return _make_pair(t, index, _untangle(src, dst, p1, p2), node_disjoint)


def _untangle(
    s: int, d: int, p1: tuple[int, ...], p2: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Cancel the arc pairs where ``p2`` runs back over ``p1`` and decompose
    the remaining arcs into two s-d paths."""
    p1_set = set(zip(p1, p1[1:]))
    p2_set = set(zip(p2, p2[1:]))
    cancelled = {(a, b) for (a, b) in p1_set if (b, a) in p2_set}
    remaining = (p1_set - cancelled) | (p2_set - {(b, a) for (a, b) in cancelled})
    out_map: dict[int, list[int]] = {}
    for a, b in remaining:
        out_map.setdefault(a, []).append(b)
    for lst in out_map.values():
        lst.sort()
    result = []
    for _ in range(2):
        walk = [s]
        cur = s
        while cur != d:
            cur = out_map[cur].pop(0)
            walk.append(cur)
        result.append(_simplify(walk))
    return result[0], result[1]


def _make_pair(
    t: Topology,
    index: LinkIndex,
    paths: tuple[tuple[int, ...], tuple[int, ...]],
    node_disjoint: bool,
) -> tuple[DisjointPair, list[int], list[int]]:
    a, b = (_merge_split_path(p) for p in paths) if node_disjoint else paths
    links = t.links
    la, lb = ([index[arc] for arc in zip(p, p[1:])] for p in (a, b))
    wa, wb = (sum(links[i].weight for i in along) for along in (la, lb))
    if (wa, a) <= (wb, b):
        return DisjointPair(a, wa, b, wb), la, lb
    return DisjointPair(b, wb, a, wa), lb, la


def suurballe_link_disjoint(t: Topology, s: int, d: int) -> Optional[DisjointPair]:
    """Min-sum pair of link-disjoint s-d paths, or None if no pair exists."""
    tree = _source_tree(t, _arc_map(t), s, False)
    found = _disjoint_pair(t, s, d, False, tree, _link_index(t))
    return None if found is None else found[0]


def suurballe_node_disjoint(t: Topology, s: int, d: int) -> Optional[DisjointPair]:
    """Min-sum pair of internally node-disjoint s-d paths, or None."""
    tree = _source_tree(t, _split_arc_map(t), s, True)
    found = _disjoint_pair(t, s, d, True, tree, _link_index(t))
    return None if found is None else found[0]


def disjoint_rules(t: Topology, variant: str = "link") -> ForwardingMatrix:
    """Crankback forwarding rules from pre-positioned disjoint path pairs.

    Every ordered pair gets primary-path rules matched on (source,
    destination, incoming link); intermediate detection bounces the packet
    back along its prefix and the source switches over to the backup path.
    Pairs with no disjoint pair fall back to plain shortest-path rules and
    are recorded as uncovered.  A disconnected topology raises
    ``DisconnectedTopologyError``, as the protection builds do.
    """
    if variant not in ("link", "node"):
        raise ValueError(f"variant must be 'link' or 'node', got {variant!r}")
    node_disjoint = variant == "node"
    fw = ForwardingMatrix(MODE_DISJOINT_NODE if node_disjoint else MODE_DISJOINT_LINK, t.n)
    arcs = _split_arc_map(t) if node_disjoint else _arc_map(t)
    trees = t.shortest_paths().trees
    check_connected(t, trees)
    index = _link_index(t)
    install = _RuleWriter(fw, t, index)
    for s in range(t.n - 1):  # the last source has no destination above it
        tree = _source_tree(t, arcs, s, node_disjoint)
        for d in range(s + 1, t.n):
            found = _disjoint_pair(t, s, d, node_disjoint, tree, index)
            if found is None:
                for src, dst in ((s, d), (d, s)):
                    fw.uncovered.append(
                        UncoveredEntry("any_on_primary", src, dst, "no_disjoint_pair")
                    )
                    install.primary_only(src, dst, trees[src].paths[dst])
                continue
            pair, p, b = found
            install.pair(s, d, pair.primary, p, pair.backup, b)
            install.pair(d, s, pair.primary[::-1], p[::-1], pair.backup[::-1], b[::-1])
    return fw


class _RuleWriter:
    """Installs one build's rules, given paths with the ``t.links`` indices
    along them.  It creates one ``Output`` per link and remembers each group
    it interned by ``(node, first link index, second link index)``."""

    __slots__ = ("fw", "index", "links", "outputs", "groups")

    def __init__(self, fw: ForwardingMatrix, t: Topology, index: LinkIndex):
        self.fw = fw
        self.index = index
        self.links = t.links
        self.outputs = [Output(link) for link in t.links]
        self.groups: dict[tuple[int, int, int], GroupRef] = {}

    def group(self, node: int, first: int, second: int) -> GroupRef:
        ref = self.groups.get((node, first, second))
        if ref is None:
            links, outputs = self.links, self.outputs
            buckets = (Bucket(links[first], outputs[first]), Bucket(links[second], outputs[second]))
            ref = self.groups[node, first, second] = self.fw.intern_group(node, buckets)
        return ref

    def pair(self, src: int, dst: int, primary: tuple[int, ...], p: list[int],
             backup: tuple[int, ...], b: list[int]) -> None:
        add, links, outputs = self.fw.add_rule, self.links, self.outputs
        # Source: fast failover between the two first hops, plus the rule that
        # recognizes a cranked-back packet by its incoming port.
        add(src, Match(PRIMARY, dst, src, None), self.group(src, p[0], b[0]))
        if len(primary) > 2:
            add(src, Match(PRIMARY, dst, src, links[p[0]]), outputs[b[0]])
        for i in range(1, len(primary) - 1):
            x, came, goes = primary[i], p[i - 1], p[i]
            # The second bucket bounces the packet back toward the source.
            add(x, Match(PRIMARY, dst, src, links[came]), self.group(x, goes, came))
            # Pass returned packets further back along the prefix.
            add(x, Match(PRIMARY, dst, src, links[goes]), outputs[came])
        for i in range(1, len(backup) - 1):
            add(backup[i], Match(PRIMARY, dst, src, links[b[i - 1]]), outputs[b[i]])

    def primary_only(self, src: int, dst: int, path: tuple[int, ...]) -> None:
        add, links, outputs = self.fw.add_rule, self.links, self.outputs
        along = [self.index[arc] for arc in zip(path, path[1:])]
        add(src, Match(PRIMARY, dst, src, None), outputs[along[0]])
        for i in range(1, len(path) - 1):
            add(path[i], Match(PRIMARY, dst, src, links[along[i - 1]]), outputs[along[i]])
