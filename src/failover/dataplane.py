"""Deterministic forwarding simulator.

Walks one packet through a forwarding matrix under a single failure
scenario, honoring fast-failover group semantics (first bucket with a live
watched link wins) and label push/pop/rewrite actions, and records the exact
trace.

Rule lookup order at a node, most to least specific:

1. ``(label, dst, src, in_link)`` and ``(label, dst, src)``: the disjoint
   baselines key on source and incoming port for crankback routing;
2. exact ``(label, dst)``;
3. wildcard ``(AnyLinkFailTo(v), dst)`` for a packet labeled
   ``LinkFail(x, v)`` or ``NodeFail(v)``;
4. ``(Primary, dst)``.

Tiers 3 and 4 are the label's :meth:`~failover.rules.FailureLabel.fallbacks`.

A trace ends delivered, dropped (explicit drop, no matching rule, or the
selected output link is dead; packets never traverse dead links), or
loop-detected when the ``(node, label, incoming link)`` state repeats.
Loops indicate a rule-computation bug and are reported as their own class.

There is one walk, :func:`walk`, over a :class:`CompiledMatrix`: a matrix
whose labels and links are interned to ints, a link's id being its index in
``t.links``, and whose rules are keyed by ints.  :func:`compile_matrix`
compiles every node up front, and ``metrics.measure`` does so once per
call.  ``simulate`` on a :class:`ForwardingMatrix` compiles, on each node's
first visit, only the rules its packet can match there: those toward its
destination, from its source or from any.  That costs one packet far less
than a whole compile.  Both go through the same per-node compile and give
the same trace.  Only nodes with rules keyed on source or incoming link (the
disjoint baselines) get the first-tier probes.

A group that is not defined, a group inside another group's bucket and an
output link that does not touch the node compile to drops, with a reason
naming the fault.  A rule, bucket or watch naming a link that ``t`` lacks,
and a rule naming a node outside ``0..n-1``, raise ``ValueError`` when
compiled, so one-packet ``simulate`` refuses only those its walk compiles.

``simulate`` builds the trace from the compiled forward action of each hop
the walk took: the label from the action's new label, the node from the
link's endpoints.  ``metrics.measure`` traces every pair's no-failure path
with ``simulate`` and calls :func:`walk` for every failure on that path,
since it reads only a failure walk's outcome, total and crankback: no
``Trace`` or ``TraceStep`` is built for those.

When no rule of a compiled matrix keys on source or incoming link (every
protection matrix), the next hop under one scenario toward one destination
depends only on ``(node, label)``.  The compiled walk then remembers, per
scenario, the hops of every delivered or dropped walk and the position of
each state it passed, and a later walk that reaches such a state splices
that suffix in instead of walking it.  A terminating suffix never revisits a
state, so the spliced walk is the one a full walk takes.  The memo covers
one destination at a time (it is dropped when a call names another), so
callers that walk destination by destination, as ``metrics.measure`` does,
reuse it most.  A matrix with keyed rules, and the matrix of a one-packet
``simulate``, is walked in full and keeps no memo.

Totals are summed left to right, hop by hop, a spliced suffix too.
Crankback is counted after the walk, over the hops' int arc ids and weights,
and only when a link is traversed twice; otherwise it is 0.0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import islice
from operator import add, itemgetter
from typing import NamedTuple, Optional, Union

from .rules import (
    Action,
    FailureLabel,
    ForwardingMatrix,
    GroupRef,
    PRIMARY,
    check_matrix_size,
    node_outside,
)
from .topology import FailureScenario, Link, Topology

__all__ = ["TraceStep", "Trace", "CompiledMatrix", "compile_matrix", "simulate", "walk"]

DELIVERED = "delivered"
DROPPED = "dropped"
LOOP = "loop"


class TraceStep(NamedTuple):
    node: int
    label: FailureLabel  # label after this node's actions
    link: Optional[Link]  # outgoing link, None on the terminal step


@dataclass
class Trace:
    src: int
    steps: list[TraceStep] = field(default_factory=list)
    outcome: str = DROPPED
    reason: str = ""
    total_weight: float = 0.0
    crankback_weight: float = 0.0

    @property
    def delivered(self) -> bool:
        return self.outcome == DELIVERED

    @property
    def node_sequence(self) -> tuple[int, ...]:
        return tuple(step.node for step in self.steps)

    def dump(self) -> str:
        lines = []
        for step in self.steps:
            link = "-" if step.link is None else str(step.link)
            weight = "-" if step.link is None else repr(step.link.weight)
            lines.append(f"{step.node} {step.label} {link} {weight}")
        reason = "" if self.delivered else f" reason={self.reason}"
        lines.append(f"{self.outcome} total={self.total_weight!r} "
                     f"crankback={self.crankback_weight!r}{reason}")
        return "\n".join(lines) + "\n"


def simulate(
    fw: Union[ForwardingMatrix, CompiledMatrix],
    t: Topology,
    scenario: FailureScenario,
    src: int,
    dst: int,
) -> Trace:
    """Forward one packet from ``src`` to ``dst`` under ``scenario``.

    ``fw`` is a :class:`ForwardingMatrix`, whose nodes are compiled for this
    packet as the walk first reaches them, or the :class:`CompiledMatrix` of
    one; both give the same trace.  A scenario naming a link or node that
    ``t`` does not have kills nothing; ``failover simulate`` rejects such a
    scenario before it gets here.  ``src == dst``, a source that is not a
    node of ``t`` and a matrix for another node count than ``t``'s raise
    ``ValueError``; a destination that is not a node matches no rule.
    """
    if src == dst:
        raise ValueError("source and destination must differ")
    if not 0 <= src < t.n:
        raise ValueError(f"node {src} is not in the topology (nodes 0..{t.n - 1})")
    if isinstance(fw, ForwardingMatrix):
        compiler = _Compiler(fw, t)
        keyed: dict[int, Optional[dict]] = {}
        fw = CompiledMatrix(_Visited(compiler, src, dst, keyed), keyed, compiler, False)
    trace = Trace(src)
    if not scenario.node_is_live(src):
        trace.reason = "source is the failed node"
        return trace
    kind = scenario.kind
    dead_link = -1
    if kind == "link" and 0 <= scenario.u < t.n:
        dead_link = fw.link_ids.get(t.link_between(scenario.u, scenario.v), -1)
    dead_node = scenario.v if kind == "node" else None
    trace.outcome, trace.reason, trace.total_weight, trace.crankback_weight, hops = walk(
        fw, src, dst, dead_link, dead_node)
    # A step's label is the one its hop's action leaves; its node is the one
    # the hop before it arrived at.
    labels, steps = fw.labels, trace.steps
    node, label = src, 0
    for _, new_label, link, _, _, u, v in hops:
        if new_label >= 0:
            label = new_label
        steps.append(TraceStep(node, labels[label], link))
        node = u if node == v else v
    if trace.delivered:
        steps.append(TraceStep(node, labels[label], None))
    return trace


# Compiled actions are tuples whose first item is their kind:
#   (_FORWARD, label_id or -1 to keep the label, link, weight, link_id, u, v)
#   (_GROUP, buckets) with buckets of (watch_link_id, watch_u, watch_v,
#    compiled action), watch_link_id None for a bucket that watches nothing
#   (_DROP, reason)
_FORWARD, _GROUP, _DROP = range(3)
_weight_of = itemgetter(3)
_link_of = itemgetter(4)
_DROP_ACTION = (_DROP, "drop rule")


class _Compiler:
    """Interns one matrix's labels and compiles its rules node by node, for
    :func:`compile_matrix` and for the one-packet walk of :func:`simulate`.
    It refers to nothing it compiled, so neither form holds a reference
    cycle."""

    __slots__ = ("fw", "n", "link_ids", "label_ids", "labels", "fallbacks", "forwards",
                 "groups")

    def __init__(self, fw: ForwardingMatrix, t: Topology):
        check_matrix_size(fw.n, t)
        self.fw = fw
        self.n = fw.n
        self.link_ids = dict(zip(t.links, range(len(t.links))))
        self.label_ids: dict[FailureLabel, int] = {PRIMARY: 0}
        self.labels: list[FailureLabel] = [PRIMARY]
        self.fallbacks: list[tuple[int, ...]] = []
        # Compiled forwards by (new label id, link id): equal actions share one.
        self.forwards: dict[tuple[int, int], tuple] = {}
        self.groups: dict[int, tuple] = {}

    def label_id(self, label: FailureLabel) -> int:
        lid = self.label_ids.get(label)
        if lid is None:
            lid = self.label_ids[label] = len(self.labels)
            self.labels.append(label)
        return lid

    def link_tiers(self) -> None:
        """Set each label's ``fallbacks`` to the ids of its tiers interned so
        far.  Once this has run after a node's compile, the walk may probe
        that node: each tier with a rule there is interned by then."""
        ids = self.label_ids
        self.fallbacks[:] = [tuple(ids[tier] for tier in label.fallbacks() if tier in ids)
                             for label in self.labels]

    def link_id(self, link: Link) -> int:
        lid = self.link_ids.get(link)
        if lid is None:
            raise ValueError(f"matrix link {link} is not a link of the topology")
        return lid

    def node(self, node: int, rules) -> tuple[dict[int, tuple], Optional[dict]]:
        """``rules``, the ``(match, action)`` items of ``node``, as its
        table and its keyed dict (None when empty; see :class:`CompiledMatrix`)."""
        n = self.n
        nodes = range(n)
        label_id, link_id, group, action_of = self.label_id, self.link_id, self.group, self.action
        table: dict[int, tuple] = {}
        keyed: dict[tuple[int, int, int, int], tuple] = {}
        for match, action in rules:
            in_link, src, dst = match.in_link, match.src, match.dst
            if dst not in nodes or (src is not None and src not in nodes):
                raise node_outside(node, n, match)
            lid = label_id(match.label)
            in_id = -1 if in_link is None else link_id(in_link)
            compiled = group(action.group_id) if isinstance(action, GroupRef) else action_of(action)
            if src is not None:
                keyed[lid, dst, src, in_id] = compiled
            elif in_link is None:  # an incoming link without a source never matches
                table[lid * n + dst] = compiled
        return table, keyed or None

    def group(self, group_id: int) -> tuple:
        """A rule's group; one that is not defined compiles to a drop."""
        compiled = self.groups.get(group_id)
        if compiled is None:
            entry = self.fw.groups.get(group_id)
            if entry is None:
                compiled = (_DROP, f"group {group_id} is not defined")
            else:
                buckets = []
                for watch, bucket_action in entry.buckets:
                    bucket = self.action(bucket_action)
                    if watch is None:
                        buckets.append((None, None, None, bucket))
                    else:
                        buckets.append((self.link_id(watch), watch.u, watch.v, bucket))
                compiled = (_GROUP, tuple(buckets))
            self.groups[group_id] = compiled
        return compiled

    def action(self, action: Action) -> tuple:
        """A rule's or bucket's action, except a rule's group reference."""
        kind = action.kind
        if kind == "output":
            new_label = -1
        elif kind == "pop":
            new_label = 0
        elif kind == "group":
            return (_DROP, f"group {action.group_id} is nested in a group bucket")
        elif kind == "drop":
            return _DROP_ACTION
        else:  # "push" or "rewrite"
            new_label = self.label_id(action.label)
        link = action.link
        lid = self.link_id(link)
        compiled = self.forwards.get((new_label, lid))
        if compiled is None:
            compiled = self.forwards[new_label, lid] = (
                _FORWARD, new_label, link, link.weight, lid, link.u, link.v)
        return compiled


class _Visited(dict):
    """The ``tables`` of one packet's walk from ``src`` to ``dst``.  On a
    node's first visit its table is compiled from the rules the packet can
    match there, those toward ``dst`` from ``src`` or from any source, and
    its keyed dict goes into ``keyed``, which the walk reads next."""

    __slots__ = ("compiler", "src", "dst", "keyed")

    def __init__(self, compiler: _Compiler, src: int, dst: int, keyed: dict):
        self.compiler, self.src, self.dst, self.keyed = compiler, src, dst, keyed

    def __missing__(self, node: int) -> dict[int, tuple]:
        compiler, src, dst = self.compiler, self.src, self.dst
        table, self.keyed[node] = compiler.node(node, [
            (m, a) for m, a in compiler.fw.tables[node].items()
            if m.dst == dst and m.src in (None, src)])
        compiler.link_tiers()
        self[node] = table
        return table


class CompiledMatrix:
    """A :class:`ForwardingMatrix` with labels and links interned to ints.

    ``tables[node]`` holds the node's rules on ``(label, dst)``, each keyed
    ``label_id * n + dst``.  ``keyed[node]`` holds its rules that also key on
    source or incoming link, keyed ``(label_id, dst, src, in_link_id)`` with
    ``in_link_id`` -1 for none, or is None when the node has no such rule.
    ``fallbacks[label_id]`` are the label ids of the wildcard and primary
    tiers of a packet carrying that label.  ``link_ids`` maps each link of
    the topology to its id, its index in ``t.links``; link liveness is
    decided on that id and the endpoints.

    :func:`compile_matrix` builds one with every node compiled, as a
    snapshot: it holds no reference to the matrix, and a matrix changed
    later has to be compiled again.  :func:`simulate` builds one per packet
    whose ``tables`` and ``keyed`` fill as its walk reaches nodes.  Either is
    walked by :func:`walk`.  ``memo`` holds the walks toward one destination
    (see the module docstring); the walk reads and fills it only when
    ``memoizable``, that is when every node of an eager compile has no keyed
    rule, and otherwise leaves it empty.  It is replaced as a whole, so a
    walk that started with it keeps a memo of its own destination even if
    another thread replaces it.
    """

    __slots__ = ("tables", "keyed", "labels", "fallbacks", "link_ids", "n", "n_in",
                 "memoizable", "memo")

    def __init__(self, tables, keyed, compiler: _Compiler, memoizable: bool):
        self.tables = tables
        self.keyed = keyed
        self.labels = compiler.labels
        self.fallbacks = compiler.fallbacks
        self.link_ids = compiler.link_ids
        self.n = compiler.n  # the matrix's node count, which bounds every node id in a rule
        self.n_in = len(compiler.link_ids) + 1  # number of link ids plus one
        self.memoizable = memoizable
        # (dst, {(dead_link, dead_node): {label * n + node: (walk, index)}}),
        # walk = (hops, outcome, reason) of one whole walk, hops its compiled
        # forward actions, and index the position of that state in it.  No
        # trace step is kept: ``simulate`` rebuilds its steps from the hops.
        self.memo: tuple[Optional[int], dict] = (None, {})


def compile_matrix(fw: ForwardingMatrix, t: Topology) -> CompiledMatrix:
    """Intern ``fw``'s labels and compile every rule and group once.

    One pass over the rules, node by node, interns each rule's label,
    compiles its action and files it under its key (see
    :class:`CompiledMatrix`).  A group that is not defined, or nested in a
    bucket, compiles to a drop with the reason the walk gives when a packet
    reaches it.  A matrix for another node count than ``t``'s, a rule naming
    a node outside ``0..n-1`` and a link that is not one of ``t``'s raise
    ``ValueError``.
    """
    compiler = _Compiler(fw, t)
    compiled = [compiler.node(node, table.items()) for node, table in enumerate(fw.tables)]
    compiler.link_tiers()
    tables = [table for table, _ in compiled]
    keyed = [node_keyed for _, node_keyed in compiled]
    return CompiledMatrix(tables, keyed, compiler, not any(keyed))


def walk(cm: CompiledMatrix, src: int, dst: int, dead_link: int,
         dead_node: Optional[int]) -> tuple[str, str, float, float, list[tuple]]:
    """The walk of one packet over a compiled matrix, with liveness tested
    on ints: ``(outcome, reason, total, crankback, hops)``.

    The failure kills the link of id ``dead_link`` (-1 for none) and every
    link at ``dead_node`` (None for none); ``src`` must be a live node of the
    matrix.  A ``dst`` outside ``0..n-1`` matches no rule.  ``hops`` holds
    the compiled forward action of each hop taken, in order; the caller must
    not change it, since the memo may share it.  On a memoizable matrix the
    walk stops at the first state with a remembered suffix and splices it
    in."""
    n, n_in = cm.n, cm.n_in
    if not 0 <= dst < n:  # no rule names such a destination
        return DROPPED, "no matching rule", 0.0, 0.0, []
    memo = None
    if cm.memoizable:
        memo_dst, by_scenario = cm.memo
        if memo_dst != dst:
            by_scenario = {}
            cm.memo = (dst, by_scenario)
        memo = by_scenario.get((dead_link, dead_node))
        if memo is None:
            memo = by_scenario[dead_link, dead_node] = {}
    tables, keyed, fallbacks = cm.tables, cm.keyed, cm.fallbacks
    hops: list[tuple] = []
    keys: list[int] = []  # label * n + node of each state walked, with a memo
    seen: set[int] = set()
    total = 0.0
    outcome, reason = DROPPED, ""
    hit = None
    node = src
    label = 0
    in_link = -1
    while node != dst:
        # Label first: a one-packet walk interns labels as it goes.
        key = label * n + node
        if memo is not None:
            hit = memo.get(key)
            if hit is not None:
                break
            keys.append(key)
        # (node, label, in_link) as one int; in_link runs over -1..n_in-2.
        state = key * n_in + in_link
        if state in seen:
            outcome, reason = LOOP, "forwarding state repeated"
            break
        seen.add(state)
        table = tables[node]
        node_keyed = keyed[node]
        action = None
        if node_keyed is not None:
            action = node_keyed.get((label, dst, src, in_link))
            if action is None and in_link >= 0:
                action = node_keyed.get((label, dst, src, -1))
        if action is None:
            action = table.get(label * n + dst)
            if action is None:
                for tier in fallbacks[label]:
                    action = table.get(tier * n + dst)
                    if action is not None:
                        break
                else:
                    reason = "no matching rule"
                    break
        kind = action[0]
        if kind == _GROUP:
            for watch, watch_u, watch_v, bucket_action in action[1]:
                if watch is None or (
                    watch != dead_link and watch_u != dead_node and watch_v != dead_node
                ):
                    action = bucket_action
                    break
            else:
                reason = "no live group bucket"
                break
            kind = action[0]
        if kind != _FORWARD:
            reason = action[1]
            break
        _, new_label, link, weight, link_id, u, v = action
        if new_label >= 0:
            label = new_label
        if link_id == dead_link or u == dead_node or v == dead_node:
            reason = f"output link {link} is dead"
            break
        if node == u:
            node = v
        elif node == v:
            node = u
        else:
            reason = f"output link {link} does not touch node {node}"
            break
        hops.append(action)
        total += weight
        in_link = link_id
    else:
        outcome = DELIVERED
    if hit is not None:
        (walk_hops, outcome, reason), index = hit
        # The same left-to-right sum as adding each weight in the walk.
        total = reduce(add, map(_weight_of, islice(walk_hops, index, None)), total)
        hops += walk_hops[index:]
    if keys and outcome != LOOP:
        remembered = (hops, outcome, reason)
        for index, key in enumerate(keys):
            memo[key] = (remembered, index)
    crankback = 0.0
    if outcome == DELIVERED and len(set(map(_link_of, hops))) < len(hops):
        # Crankback needs a link traversed twice.  Each hop that retraces an
        # earlier hop not yet retraced counts, summed left to right.  Arc ids
        # are 2*link_id leaving the lower endpoint, +1 leaving the higher.
        unmatched: list[int] = []
        node = src
        for _, _, _, weight, link_id, u, v in hops:
            arc = 2 * link_id + (node == v)
            if arc ^ 1 in unmatched:
                unmatched.remove(arc ^ 1)
                crankback += weight
            else:
                unmatched.append(arc)
            node = u if node == v else v
    return outcome, reason, total, crankback, hops
