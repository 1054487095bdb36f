"""Min-sum fully-disjoint path pairs and crankback-routing rules.

Pairs come from Suurballe's method.  One shortest-path tree per source gives
every arc a non-negative reduced cost; per destination, a plain Dijkstra
over those costs, with the first path's arcs reversed at zero cost, finds
the second path, and cancelling interlacing arc pairs leaves the final two.
The arc-reversal scheme (negated weights, Bellman-Ford) is the reference the
tests compare against; no build runs it.

Crankback rules mirror how fully-disjoint protection behaves in practice:
primary-path rules match on (source, destination, incoming port); a node
detecting a failure bounces packets back along the traversed prefix, and the
source recognizes returned packets by their incoming port and switches to
the backup path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .rules import (
    MODE_DISJOINT_LINK,
    MODE_DISJOINT_NODE,
    PRIMARY,
    Bucket,
    ForwardingMatrix,
    Match,
    Output,
    UncoveredEntry,
)
from .spf import (
    all_shortest_trees,
    bellman_ford_distances,
    lex_dijkstra,
    queued_bellman_ford,
)
from .topology import Link, Topology

__all__ = [
    "DisjointPair",
    "bhandari_link_disjoint",
    "bhandari_node_disjoint",
    "suurballe_link_disjoint",
    "suurballe_node_disjoint",
    "disjoint_rules",
]

ArcMap = dict[int, list[tuple[int, float]]]
# A source's preferred shortest paths and its arcs with reduced costs.
SourceTree = tuple[dict[int, tuple[int, ...]], ArcMap]


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


def _merge_split_path(path: tuple[int, ...]) -> tuple[int, ...]:
    merged: list[int] = []
    for p in path:
        x = p // 2
        if not merged or merged[-1] != x:
            merged.append(x)
    return tuple(merged)


def _arc_weight(arcs: ArcMap, a: int, b: int) -> float:
    for v, w in arcs[a]:
        if v == b:
            return w
    raise KeyError((a, b))


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


def _source_tree(arcs: ArcMap, src: int) -> SourceTree:
    """What all destinations of ``src`` share.  The reduced costs
    ``(w + dist[u]) - dist[v]`` are exactly >= 0 in floats (dist[v] is the
    min over candidates that include dist[u] + w)."""
    dist, paths = lex_dijkstra(arcs.__getitem__, src)
    reduced = {
        u: [(v, (w + dist[u]) - dist[v]) for v, w in lst if v in dist]
        for u, lst in arcs.items()
        if u in dist
    }
    return paths, reduced


def _disjoint_pair(
    t: Topology, s: int, d: int, node_disjoint: bool, tree: SourceTree
) -> Optional[DisjointPair]:
    """Min-sum pair for ``s``-``d`` by Suurballe's method, from the
    :func:`_source_tree` of ``s`` (of ``2s+1`` in the split arc map when
    ``node_disjoint``).  The second path is a plain Dijkstra over the
    reduced costs, with the first path's arcs replaced by zero-cost
    reversals; only the arc lists at the first path's nodes change."""
    if s == d:
        raise ValueError("source and destination must differ")
    src, dst = (2 * s + 1, 2 * d) if node_disjoint else (s, d)
    paths, reduced = tree
    p1 = paths.get(dst)
    if p1 is None:
        return None
    residual = dict(reduced)
    for prev, u, nxt in zip((None,) + p1, p1, p1[1:] + (None,)):
        # The anti-parallel arc of a used link is replaced, not kept, so a
        # physical link is never reused.
        lst = [(v, w) for v, w in residual[u] if v != nxt and v != prev]
        if prev is not None:
            lst.append((prev, 0.0))
        residual[u] = lst
    _, paths2 = lex_dijkstra(residual.__getitem__, src, (dst,))
    if dst not in paths2:
        return None
    return _make_pair(t, _untangle(src, dst, p1, paths2[dst]), node_disjoint)


def _arc_reversal_pair(
    t: Topology, s: int, d: int, node_disjoint: bool
) -> Optional[DisjointPair]:
    """Bhandari's method: reverse the first path's arcs with negated weights
    and find the second path with Bellman-Ford.  Reference engine only."""
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
    t: Topology, paths: tuple[tuple[int, ...], tuple[int, ...]], node_disjoint: bool
) -> DisjointPair:
    a, b = (_merge_split_path(p) for p in paths) if node_disjoint else paths
    wa, wb = (sum(link.weight for link in _links_along(t, p)) for p in (a, b))
    if (wa, a) <= (wb, b):
        return DisjointPair(a, wa, b, wb)
    return DisjointPair(b, wb, a, wa)


def bhandari_link_disjoint(t: Topology, s: int, d: int) -> Optional[DisjointPair]:
    """Arc-reversal reference for :func:`suurballe_link_disjoint`."""
    return _arc_reversal_pair(t, s, d, node_disjoint=False)


def bhandari_node_disjoint(t: Topology, s: int, d: int) -> Optional[DisjointPair]:
    """Arc-reversal reference for :func:`suurballe_node_disjoint`."""
    return _arc_reversal_pair(t, s, d, node_disjoint=True)


def suurballe_link_disjoint(t: Topology, s: int, d: int) -> Optional[DisjointPair]:
    """Min-sum pair of link-disjoint s-d paths, or None if no pair exists."""
    return _disjoint_pair(t, s, d, False, _source_tree(_arc_map(t), s))


def suurballe_node_disjoint(t: Topology, s: int, d: int) -> Optional[DisjointPair]:
    """Min-sum pair of internally node-disjoint s-d paths, or None."""
    return _disjoint_pair(t, s, d, True, _source_tree(_split_arc_map(t), 2 * s + 1))


def disjoint_rules(t: Topology, variant: str = "link") -> ForwardingMatrix:
    """Crankback forwarding rules from pre-positioned disjoint path pairs.

    Every ordered pair gets primary-path rules matched on (source,
    destination, incoming link); intermediate detection bounces the packet
    back along its prefix and the source switches over to the backup path.
    Pairs with no disjoint pair fall back to plain shortest-path rules and
    are recorded as uncovered.
    """
    if variant not in ("link", "node"):
        raise ValueError(f"variant must be 'link' or 'node', got {variant!r}")
    node_disjoint = variant == "node"
    fw = ForwardingMatrix(MODE_DISJOINT_NODE if node_disjoint else MODE_DISJOINT_LINK, t.n)
    arcs = _split_arc_map(t) if node_disjoint else _arc_map(t)
    fallback_trees = None
    for s in t.nodes:
        tree = _source_tree(arcs, 2 * s + 1 if node_disjoint else s)
        for d in range(s + 1, t.n):
            pair = _disjoint_pair(t, s, d, node_disjoint, tree)
            if pair is None:
                if fallback_trees is None:
                    fallback_trees = all_shortest_trees(t)
                for src, dst in ((s, d), (d, s)):
                    fw.uncovered.append(
                        UncoveredEntry("any_on_primary", src, dst, "no_disjoint_pair")
                    )
                    if dst in fallback_trees[src].paths:
                        _install_primary_only(fw, t, src, dst, fallback_trees[src].paths[dst])
                continue
            _install_pair_rules(fw, t, s, d, pair)
            mirrored = DisjointPair(
                tuple(reversed(pair.primary)),
                pair.primary_weight,
                tuple(reversed(pair.backup)),
                pair.backup_weight,
            )
            _install_pair_rules(fw, t, d, s, mirrored)
    return fw


def _links_along(t: Topology, path: tuple[int, ...]) -> list[Link]:
    links = []
    for a, b in zip(path, path[1:]):
        link = t.link_between(a, b)
        assert link is not None
        links.append(link)
    return links


def _install_pair_rules(
    fw: ForwardingMatrix, t: Topology, src: int, dst: int, pair: DisjointPair
) -> None:
    p_links = _links_along(t, pair.primary)
    b_links = _links_along(t, pair.backup)
    # Source: fast failover between the two first hops, plus the rule that
    # recognizes a cranked-back packet by its incoming port.
    buckets = (
        Bucket(p_links[0], Output(p_links[0])),
        Bucket(b_links[0], Output(b_links[0])),
    )
    fw.add_rule(src, Match(PRIMARY, dst, src, None), fw.intern_group(src, buckets))
    if len(pair.primary) > 2:
        fw.add_rule(src, Match(PRIMARY, dst, src, p_links[0]), Output(b_links[0]))
    for i in range(1, len(pair.primary) - 1):
        x = pair.primary[i]
        prev_link, next_link = p_links[i - 1], p_links[i]
        buckets = (
            Bucket(next_link, Output(next_link)),
            Bucket(prev_link, Output(prev_link)),  # bounce back toward source
        )
        fw.add_rule(x, Match(PRIMARY, dst, src, prev_link), fw.intern_group(x, buckets))
        # Pass returned packets further back along the prefix.
        fw.add_rule(x, Match(PRIMARY, dst, src, next_link), Output(prev_link))
    for i in range(1, len(pair.backup) - 1):
        y = pair.backup[i]
        fw.add_rule(y, Match(PRIMARY, dst, src, b_links[i - 1]), Output(b_links[i]))


def _install_primary_only(
    fw: ForwardingMatrix, t: Topology, src: int, dst: int, path: tuple[int, ...]
) -> None:
    links = _links_along(t, path)
    fw.add_rule(src, Match(PRIMARY, dst, src, None), Output(links[0]))
    for i in range(1, len(path) - 1):
        fw.add_rule(path[i], Match(PRIMARY, dst, src, links[i - 1]), Output(links[i]))
