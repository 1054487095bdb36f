"""Failure-disjoint backup forwarding configurations.

Three computations share one structure: start from the all-to-all primary
matrix, then for every node ``n`` and outgoing link ``l`` compute a detour
tree for the destinations whose primary path departs on ``l``:

* per-link: the detour avoids the physical link ``l`` and is keyed by a
  ``LinkFail(n, opposite)`` label;
* per-node: the detour avoids the entire opposite node and is keyed by
  ``NodeFail(opposite)``;
* hybrid: both families in one matrix.  The detecting node assumes a link
  failure (pushes the link label, follows the link detour); any detour rule
  that outputs straight toward the label's far endpoint ``v`` becomes a
  fast-failover group whose second bucket rewrites the label to
  ``NodeFail(v)`` and continues on the node-avoiding detour.  Node-family
  rules are installed under the ``AnyLinkFailTo(v)`` wildcard so they match
  both node labels and (after deduplication) link labels.

The detecting node's primary rule becomes a fast-failover group: bucket 1
outputs on the watched primary link, bucket 2 pushes the failure label and
outputs on the detour.  Along a detour, the first node whose preferred
primary path no longer touches the failed element is the pop point (the
detour provably rejoins that primary path there); for hybrid link labels the
pop additionally requires the primary path to avoid the opposite node, since
the packet may actually be detouring a node failure.  The full matrix gives
the pop point a labeled pop rule, and every later node of the detour whose
primary path also avoids the failed element gets one too.

``optimize`` deletes every labeled pop rule (labeled packets then fall
through to the primary match, which provably forwards along the identical
path) and, for hybrid matrices, link rules whose action equals the
node-family wildcard rule at the same node and destination.  Delivered node
sequences and weights are unchanged by construction.  A build made for
``optimize`` (``install_pops=False``) installs no labeled pop rule at all:
where the rest of a detour is the primary path of each of its nodes, it stops
at the pop point, and elsewhere it walks on, installing the other rules.  It
counts the distinct pop rules it left out in ``skipped_pops``, and
``optimize`` adds them to ``rules_before_optimize``, so the optimized matrix
and its stats are those of the full build.

Every build rejects a topology with a zero-weight link (``ValueError``, see
``topology.check_positive_weights``): the pop point relies on a primary
path's suffix being the preferred path from its node.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .rules import (
    MODE_HYBRID,
    MODE_PER_LINK,
    MODE_PER_NODE,
    PRIMARY,
    Bucket,
    Drop,
    ForwardingMatrix,
    Match,
    Output,
    PopLabelOutput,
    PushLabelOutput,
    RewriteLabelOutput,
    UncoveredEntry,
    any_link_fail_to,
    link_fail,
    node_fail,
    rule_conflict,
)
from .spf import ShortestPathTree, SpCounter, primary_matrix, shortest_tree
# Unused here; bound so that perfbench/tracing.py finds them by these names.
from .spf import all_shortest_trees, primary_matrix_from_trees  # noqa: F401
from .topology import FailureScenario, Link, Topology, check_positive_weights

__all__ = ["per_link_rules", "per_node_rules", "hybrid_rules", "optimize"]

_LINK = "link"
_NODE = "node"


@dataclass
class _Build:
    t: Topology
    trees: list[ShortestPathTree]
    fw: ForwardingMatrix
    affected: dict[tuple[int, Link], set[int]]
    # builds for optimize only: per node, the node-family pop keys left out,
    # and the number of link-family pop rules left out
    skipped: Optional[list[set[Match]]] = None
    skipped_link_pops: int = 0
    # hybrid only: (detour node, far endpoint v, dst, exact label, output link)
    upgrade_rules: list[tuple[int, int, int, object, Link]] = field(default_factory=list)
    # hybrid only: extra node-family targets per detecting arc (node, v)
    upgrade_targets: dict[tuple[int, int], set[int]] = field(default_factory=dict)
    # node family first hops: (detector, v) -> {dst: first link or None}
    node_first_hop: dict[tuple[int, int], dict[int, Optional[Link]]] = field(
        default_factory=dict
    )


def per_link_rules(t: Topology, *, install_pops: bool = True) -> ForwardingMatrix:
    """Primary + backup rules surviving any single link failure.

    With ``install_pops=False`` the matrix lacks the labeled pop rules,
    counted in ``skipped_pops``.  It is meant only as input to ``optimize``,
    which turns it into the same matrix as the full build."""
    return _build(t, MODE_PER_LINK, install_pops)


def per_node_rules(t: Topology, *, install_pops: bool = True) -> ForwardingMatrix:
    """Primary + backup rules surviving any single node failure (packets to
    the failed node itself are undeliverable and dropped).  See
    ``per_link_rules`` for ``install_pops``."""
    return _build(t, MODE_PER_NODE, install_pops)


def hybrid_rules(t: Topology, *, install_pops: bool = True) -> ForwardingMatrix:
    """Link-failure detours preferred, upgraded to node-failure detours when
    a second dead link toward the same node is observed.  See
    ``per_link_rules`` for ``install_pops``."""
    return _build(t, MODE_HYBRID, install_pops)


def _build(t: Topology, mode: str, install_pops: bool) -> ForwardingMatrix:
    check_positive_weights(t)
    counter = SpCounter()
    trees = t.shortest_paths().trees
    counter.count += len(trees)
    fw, affected = primary_matrix(t, mode)
    skipped = None if install_pops else [set() for _ in range(t.n)]
    ctx = _Build(t, trees, fw, affected, skipped)
    if mode == MODE_PER_LINK:
        _install_family(ctx, _LINK, counter, hybrid=False)
    elif mode == MODE_PER_NODE:
        _install_family(ctx, _NODE, counter, hybrid=False)
    else:
        _install_family(ctx, _LINK, counter, hybrid=True)
        _install_family(ctx, _NODE, counter, hybrid=True)
        _install_upgrade_groups(ctx)
    fw.stats["sp_invocations"] = counter.count
    if skipped is not None:
        fw.skipped_pops = sum(map(len, skipped)) + ctx.skipped_link_pops
    return fw


def _path_links(path: tuple[int, ...]) -> set[tuple[int, int]]:
    return {
        (a, b) if a < b else (b, a) for a, b in zip(path, path[1:])
    }


def _pop_allowed(
    ctx: _Build, node: int, dst: int, family: str, failed: Link, opposite: int, hybrid: bool
) -> bool:
    """May the failure label be removed at ``node``?  True when the preferred
    primary path from ``node`` no longer touches the failed element."""
    primary_path = ctx.trees[node].paths[dst]
    if family == _LINK:
        if failed.pair in _path_links(primary_path):
            return False
        if hybrid and opposite in primary_path:
            return False
        return True
    return opposite not in primary_path


def _install_family(ctx: _Build, family: str, counter: SpCounter, hybrid: bool) -> None:
    t, fw = ctx.t, ctx.fw
    for n in t.nodes:
        for m, _w, link in t.neighbors(n):
            if family == _LINK:
                scenario = FailureScenario.link_down(n, m)
                label = link_fail(n, m)
                match_label = label
            else:
                scenario = FailureScenario.node_down(m)
                label = node_fail(m)
                match_label = any_link_fail_to(m) if hybrid else label
            base_targets = ctx.affected.get((n, link), set())
            targets = set(base_targets)
            if hybrid and family == _NODE:
                targets |= ctx.upgrade_targets.get((n, m), set())
            # One detour computation per outgoing arc, affected set or not:
            # the complexity budget is exactly |N| + 2·|links| invocations.
            tree = shortest_tree(t, n, scenario, counter=counter, primary=ctx.trees[n])
            first_hops: dict[int, Optional[Link]] = {}
            for d in sorted(targets):
                if family == _NODE and d == m:
                    detour = None
                    reason = "destination_failed"
                elif d in tree.dist:
                    detour = tree.paths[d]
                    reason = None
                else:
                    detour = None
                    reason = "no_detour"
                first_hops[d] = None if detour is None else tree.next_link[d]
                owns_group = d in base_targets and not (hybrid and family == _NODE)
                if owns_group:
                    bucket1 = Bucket(link, Output(link))
                    if detour is None:
                        bucket2 = Bucket(None, Drop())
                        fw.uncovered.append(UncoveredEntry(str(scenario), n, d, reason))
                    else:
                        first = first_hops[d]
                        bucket2 = Bucket(first, PushLabelOutput(label, first))
                    fw.set_rule(n, Match(PRIMARY, d), fw.intern_group(n, (bucket1, bucket2)))
                elif detour is None and d in base_targets and reason == "no_detour":
                    # hybrid node family: gap is informational, the link
                    # family still owns the group for this destination
                    fw.uncovered.append(UncoveredEntry(str(scenario), n, d, reason))
                if detour is None:
                    continue
                _install_detour_rules(ctx, family, hybrid, label, match_label, link, m, d, detour)
            if family == _NODE:
                ctx.node_first_hop[(n, m)] = first_hops


def _install_detour_rules(
    ctx: _Build,
    family: str,
    hybrid: bool,
    label,
    match_label,
    failed: Link,
    opposite: int,
    d: int,
    detour: tuple[int, ...],
) -> None:
    t, fw, trees, lean = ctx.t, ctx.fw, ctx.trees, ctx.skipped is not None
    # Pop keys another detour may also leave out (node labels are shared).
    shared = ctx.skipped if family == _NODE else None
    match = Match(match_label, d)
    end = len(detour) - 1
    for idx in range(1, end):
        w_node = detour[idx]
        if _pop_allowed(ctx, w_node, d, family, failed, opposite, hybrid):
            if lean and _rejoins(trees, detour, idx, d):
                # The rest of the detour is each of its nodes' primary path,
                # so every node from here on would get a pop rule.
                _skip_pops(ctx, family, detour[idx:end], match)
                return
            # The detour provably coincides with this node's primary path
            # from here on, so popping hands the packet back unchanged.
            prim_next = trees[w_node].next_link[d]
            assert prim_next == t.link_between(w_node, detour[idx + 1]), (
                "detour must rejoin the primary path at the pop point"
            )
            if lean:
                _skip_pops(ctx, family, (w_node,), match)
            else:
                fw.add_rule(w_node, match, PopLabelOutput(prim_next))
            continue
        out = t.link_between(w_node, detour[idx + 1])
        if shared is not None and match in shared[w_node]:
            raise rule_conflict(w_node, match, _pop_of(ctx, w_node, d), Output(out))
        fw.add_rule(w_node, match, Output(out))
        if hybrid and family == _LINK and detour[idx + 1] == opposite:
            # Live link-detour rule heading straight for the label's far
            # endpoint: upgrade point for a presumed node failure.
            ctx.upgrade_rules.append((w_node, opposite, d, label, out))
            ctx.upgrade_targets.setdefault((w_node, opposite), set()).add(d)


def _rejoins(trees: list[ShortestPathTree], detour: tuple[int, ...], idx: int, d: int) -> bool:
    """Is ``detour[k:]`` the primary path of ``detour[k]`` for every ``k``
    from ``idx`` up to the last node before ``d``?"""
    return all(trees[detour[k]].paths[d] == detour[k:] for k in range(idx, len(detour) - 1))


def _pop_of(ctx: _Build, node: int, d: int) -> PopLabelOutput:
    """The pop rule the full build installs at ``node`` toward ``d``."""
    return PopLabelOutput(ctx.trees[node].next_link[d])


def _skip_pops(ctx: _Build, family: str, nodes: tuple[int, ...], match: Match) -> None:
    """Leave out the labeled pop rules of ``nodes``, checked as ``add_rule``
    would check them.  A link label belongs to one arc, whose detour toward
    ``match.dst`` passes each node once: no other rule has these keys, so
    they are only counted."""
    if family == _LINK:
        ctx.skipped_link_pops += len(nodes)
        return
    tables, skipped = ctx.fw.tables, ctx.skipped
    for node in nodes:
        existing = tables[node].get(match)
        if existing is not None:
            # Only a pop equals a pop, and a build for optimize installs none.
            raise rule_conflict(node, match, existing, _pop_of(ctx, node, match.dst))
        skipped[node].add(match)


def _install_upgrade_groups(ctx: _Build) -> None:
    fw = ctx.fw
    for w_node, v, d, label, out in ctx.upgrade_rules:
        bucket1 = Bucket(out, Output(out))
        first = ctx.node_first_hop.get((w_node, v), {}).get(d)
        if d == v:
            bucket2 = Bucket(None, Drop())
            fw.uncovered.append(
                UncoveredEntry(str(FailureScenario.node_down(v)), w_node, d, "destination_failed")
            )
        elif first is None:
            bucket2 = Bucket(None, Drop())
            fw.uncovered.append(
                UncoveredEntry(str(FailureScenario.node_down(v)), w_node, d, "no_detour")
            )
        else:
            bucket2 = Bucket(first, RewriteLabelOutput(node_fail(v), first))
        fw.set_rule(w_node, Match(label, d), fw.intern_group(w_node, (bucket1, bucket2)))


def optimize(fw: ForwardingMatrix, t: Topology) -> ForwardingMatrix:
    """Shrink the rule table without changing any delivered packet path.

    (a) Label stripping: once a detour reaches a node whose primary path is
    unaffected by the failure, the label has done its job.  Every labeled
    pop rule is deleted: a labeled packet with no labeled rule falls
    through to the primary match, which at such nodes forwards along the
    exact same path the pop rule would have (the detour rejoins the primary
    path there).  ``fw.skipped_pops``, the pop rules a build made for this
    function never installed, counts toward ``rules_before_optimize``.
    (b) Hybrid dedup: an exact link-failure rule whose action equals the
    node-family wildcard rule at the same node and destination is deleted;
    the wildcard match covers those packets with the identical action.
    """
    if fw.mode not in (MODE_PER_LINK, MODE_PER_NODE, MODE_HYBRID):
        raise ValueError(f"optimize expects a protection matrix, got mode {fw.mode!r}")
    out = ForwardingMatrix(fw.mode, fw.n)
    for node in range(fw.n):
        for match, action in fw.tables[node].items():
            if not match.label.is_primary and isinstance(action, PopLabelOutput):
                continue
            out.tables[node][match] = action
    if fw.mode == MODE_HYBRID:
        for node in range(fw.n):
            table = out.tables[node]
            for match in [m for m in table if m.label.kind == "link"]:
                wildcard = Match(any_link_fail_to(match.label.v), match.dst)
                if table.get(wildcard) == table[match]:
                    del table[match]
    out.groups = dict(fw.groups)
    out.prune_unreferenced_groups()
    out.uncovered = list(fw.uncovered)
    out.stats = dict(fw.stats)
    out.stats["rules_before_optimize"] = fw.rule_count() + fw.skipped_pops
    out.stats["optimized"] = 1.0
    return out
