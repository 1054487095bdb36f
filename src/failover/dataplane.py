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
A malformed matrix never makes the reference walk raise: a group that is
not defined, a group inside another group's bucket, an output link that does
not touch the node and one that leads outside ``0..n-1`` each end the packet
as dropped, with a reason naming the fault.  :func:`compile_matrix` compiles
the first three to the same drops but refuses the last, and a rule naming a
node outside ``0..n-1``, with ``ValueError``.

``simulate`` walks either matrix form.  On a :class:`ForwardingMatrix` it is
the reference walk over ``Match`` keys, used for single packets.  On a
:class:`CompiledMatrix` (see :func:`compile_matrix`) it runs :func:`walk`,
one int-keyed walk that probes the same tiers in the same order, and builds
the same trace from the compiled forward action of each hop the walk took:
the label from the action's new label, the node from the link's endpoints.
Only nodes with rules keyed on source or incoming link (the disjoint
baselines) get the first-tier probes.  ``metrics.measure`` compiles each
matrix once per call.  It traces every pair's no-failure path with
``simulate`` and calls :func:`walk` for every failure on that path, since it
reads only a failure walk's outcome, total and crankback: no ``Trace`` or
``TraceStep`` is built for those.

When no rule of a compiled matrix keys on source or incoming link (every
protection matrix), the next hop under one scenario toward one destination
depends only on ``(node, label)``.  The compiled walk then remembers, per
scenario, the hops of every delivered or dropped walk and the position of
each state it passed, and a later walk that reaches such a state splices
that suffix in instead of walking it.  A terminating suffix never revisits a
state, so the spliced walk is the one the reference walk takes.  The memo
covers one destination at a time (it is dropped when a call names another),
so callers that walk destination by destination, as ``metrics.measure``
does, reuse it most.  A matrix with keyed rules is walked in full and keeps
no memo.

Totals are summed left to right as the reference walk sums them, a spliced
suffix too.  Crankback is counted after the walk, over the hops' int arc ids
and weights, and only when a link is traversed twice; otherwise it is 0.0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import islice
from operator import add, itemgetter
from typing import NamedTuple, Optional, Union

from .rules import (
    Action,
    Drop,
    FailureLabel,
    ForwardingMatrix,
    GroupRef,
    Match,
    Output,
    PRIMARY,
    PopLabelOutput,
    PushLabelOutput,
    RewriteLabelOutput,
    check_matrix_size,
    node_outside,
)
from .topology import FailureScenario, Link, Topology

__all__ = [
    "TraceStep", "Trace", "CompiledMatrix", "compile_matrix", "simulate", "walk", "crankback_of",
]

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


def simulate(
    fw: Union[ForwardingMatrix, CompiledMatrix],
    t: Topology,
    scenario: FailureScenario,
    src: int,
    dst: int,
) -> Trace:
    """Forward one packet from ``src`` to ``dst`` under ``scenario``.

    ``fw`` is a :class:`ForwardingMatrix` (the reference walk) or the
    :class:`CompiledMatrix` of one (the same trace, faster per hop).  A
    scenario naming a link or node that ``t`` does not have kills nothing;
    ``failover simulate`` rejects such a scenario before it gets here.  A
    matrix for another node count than ``t``'s raises ``ValueError``.
    """
    if src == dst:
        raise ValueError("source and destination must differ")
    if isinstance(fw, ForwardingMatrix):
        check_matrix_size(fw.n, t)
    trace = Trace(src)
    if not scenario.node_is_live(src):
        trace.reason = "source is the failed node"
        return trace
    if isinstance(fw, CompiledMatrix):
        kind = scenario.kind
        dead_pair = fw.pair_ids.get((scenario.u, scenario.v), -1) if kind == "link" else -1
        dead_node = scenario.v if kind == "node" else None
        trace.outcome, trace.reason, trace.total_weight, trace.crankback_weight, hops = walk(
            fw, src, dst, dead_pair, dead_node)
        # A step's label is the one its hop's action leaves; its node is the
        # one the hop before it arrived at.
        labels, steps = fw.labels, trace.steps
        node, label = src, 0
        for _, new_label, link, _, _, _, u, v in hops:
            if new_label >= 0:
                label = new_label
            steps.append(TraceStep(node, labels[label], link))
            node = u if node == v else v
        if trace.delivered:
            steps.append(TraceStep(node, labels[label], None))
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


# Compiled actions are tuples whose first item is their kind:
#   (_FORWARD, label_id or -1 to keep the label, link, weight, link_id,
#    pair_id, u, v)
#   (_GROUP, buckets) with buckets of (watch_pair_id, watch_u, watch_v,
#    compiled action), watch_pair_id None for a bucket that watches nothing
#   (_DROP, reason)
_FORWARD, _GROUP, _DROP = range(3)
_weight_of = itemgetter(3)
_pair_of = itemgetter(5)


class CompiledMatrix:
    """A :class:`ForwardingMatrix` with labels and links interned to ints.

    ``tables[node]`` holds the node's rules on ``(label, dst)``, each keyed
    ``label_id * n + dst``.  ``keyed[node]`` holds its rules that also key on
    source or incoming link, keyed ``(label_id, dst, src, in_link_id)`` with
    ``in_link_id`` -1 for none, or is None when the node has no such rule.
    ``fallbacks[label_id]`` are the label ids of the wildcard and primary
    tiers of a packet carrying that label.  Link liveness is decided on
    ``pair_id`` (one per node pair) and endpoints.  Built by
    :func:`compile_matrix` as a snapshot: it holds no reference to the
    matrix, and a matrix changed later has to be compiled again.

    Every compiled matrix is walked by :func:`walk`.  ``memo`` holds the
    walks toward one destination (see the module docstring); the walk reads
    and fills it only when ``memoizable``, that is when every ``keyed[node]``
    is None, and otherwise leaves it empty.  It is replaced as a whole, so a
    walk that started with it keeps a memo of its own destination even if
    another thread replaces it.
    """

    __slots__ = ("tables", "keyed", "labels", "fallbacks", "pair_ids", "n", "n_in",
                 "memoizable", "memo")

    def __init__(self, tables, keyed, labels, fallbacks, pair_ids, n, n_in):
        self.tables = tables
        self.keyed = keyed
        self.labels = labels
        self.fallbacks = fallbacks
        self.pair_ids = pair_ids
        self.n = n  # the matrix's node count, which bounds every node id in a rule
        self.n_in = n_in  # number of link ids plus one
        self.memoizable = not any(keyed)
        # (dst, {(dead_pair, dead_node): {node * n_labels + label: (walk,
        # index)}}), walk = (hops, outcome, reason) of one whole walk, hops
        # its compiled forward actions, and index the position of that state
        # in it.  No trace step is kept: ``simulate`` rebuilds its steps from
        # the hops.
        self.memo: tuple[Optional[int], dict] = (None, {})


_DROP_ACTION = (_DROP, "drop rule")


def compile_matrix(fw: ForwardingMatrix, t: Topology) -> CompiledMatrix:
    """Intern ``fw``'s labels and links and compile every rule and group once.

    One pass over the rules interns each rule's label and incoming link,
    compiles its action and files it under its key (see
    :class:`CompiledMatrix`).  Links of ``t`` take the first link ids, in
    ``t.links`` order.  A group that is not defined, or nested in a bucket,
    compiles to a drop with the reason the reference walk gives when a packet
    reaches it.  A matrix for another node count than ``t``'s, a rule naming
    a node outside ``0..n-1`` and an output link with an end outside it raise
    ``ValueError``.
    """
    check_matrix_size(fw.n, t)
    n = fw.n
    label_ids: dict[FailureLabel, int] = {PRIMARY: 0}
    labels: list[FailureLabel] = [PRIMARY]
    link_ids: dict[Link, int] = {}
    pair_ids: dict[tuple[int, int], int] = {}
    link_pairs: list[int] = []

    def label_id(label: FailureLabel) -> int:
        lid = label_ids.get(label)
        if lid is None:
            lid = label_ids[label] = len(labels)
            labels.append(label)
        return lid

    def link_id(link: Link) -> int:
        lid = link_ids.get(link)
        if lid is None:
            lid = link_ids[link] = len(link_pairs)
            link_pairs.append(pair_ids.setdefault(link.pair, len(pair_ids)))
        return lid

    for link in t.links:
        link_id(link)

    # Compiled forwards by (new label id, link id): equal actions share one.
    compiled_forwards: dict[tuple[int, int], tuple] = {}
    compiled_groups: dict[int, tuple] = {}

    # ``group_of`` calls ``action_of`` and not the other way round: two
    # closures that call each other form a reference cycle, which keeps
    # ``fw`` and every table below alive until the next collection.
    def group_of(group_id: int) -> tuple:
        compiled = compiled_groups.get(group_id)
        if compiled is None:
            entry = fw.groups.get(group_id)
            if entry is None:
                compiled = (_DROP, f"group {group_id} is not defined")
            else:
                buckets = []
                for watch, bucket_action in entry.buckets:
                    compiled_bucket = action_of(bucket_action)
                    if watch is None:
                        buckets.append((None, None, None, compiled_bucket))
                    else:
                        buckets.append(
                            (link_pairs[link_id(watch)], watch.u, watch.v, compiled_bucket))
                compiled = (_GROUP, tuple(buckets))
            compiled_groups[group_id] = compiled
        return compiled

    def action_of(action: Action) -> tuple:
        """A rule's or bucket's action, except a rule's group reference."""
        if isinstance(action, Output):
            return forward(-1, action.link)
        if isinstance(action, GroupRef):
            return (_DROP, f"group {action.group_id} is nested in a group bucket")
        if isinstance(action, (PushLabelOutput, RewriteLabelOutput)):
            return forward(label_id(action.label), action.link)
        if isinstance(action, PopLabelOutput):
            return forward(0, action.link)
        if isinstance(action, Drop):
            return _DROP_ACTION
        return forward(-1, action.link)

    def forward(new_label: int, link: Link) -> tuple:
        lid = link_id(link)
        compiled = compiled_forwards.get((new_label, lid))
        if compiled is None:
            if link.u < 0 or link.v >= n:
                raise ValueError(f"output link {link} leads outside 0..{n - 1}")
            compiled = compiled_forwards[new_label, lid] = (
                _FORWARD, new_label, link, link.weight, lid, link_pairs[lid], link.u, link.v)
        return compiled

    nodes = range(n)
    tables: list[dict[int, tuple]] = []
    keyed: list[Optional[dict[tuple[int, int, int, int], tuple]]] = []
    for node, table in enumerate(fw.tables):
        compiled_table: dict[int, tuple] = {}
        node_keyed: dict[tuple[int, int, int, int], tuple] = {}
        for match, action in table.items():
            in_link, src, dst = match.in_link, match.src, match.dst
            if dst not in nodes or (src is not None and src not in nodes):
                raise node_outside(node, n, match)
            lid = label_id(match.label)
            in_id = -1 if in_link is None else link_id(in_link)
            compiled = (group_of(action.group_id) if isinstance(action, GroupRef)
                        else action_of(action))
            if src is not None:
                node_keyed[lid, dst, src, in_id] = compiled
            elif in_link is None:  # an incoming link without a source never matches
                compiled_table[lid * n + dst] = compiled
        tables.append(compiled_table)
        keyed.append(node_keyed or None)

    fallbacks = [tuple(label_ids[tier] for tier in label.fallbacks() if tier in label_ids)
                 for label in labels]
    return CompiledMatrix(tables, keyed, labels, fallbacks, pair_ids, n, len(link_pairs) + 1)


def walk(cm: CompiledMatrix, src: int, dst: int, dead_pair: int,
         dead_node: Optional[int]) -> tuple[str, str, float, float, list[tuple]]:
    """The reference walk of :func:`simulate` over a compiled matrix, with
    liveness tested on ints: ``(outcome, reason, total, crankback, hops)``.

    The failure kills the links of pair id ``dead_pair`` (-1 for none) and
    every link at ``dead_node`` (None for none); ``src`` must be alive.
    ``hops`` holds the compiled forward action of each hop taken, in order;
    the caller must not change it, since the memo may share it.  On a
    memoizable matrix the walk stops at the first state with a remembered
    suffix and splices it in."""
    memo = None
    if cm.memoizable:
        memo_dst, by_scenario = cm.memo
        if memo_dst != dst:
            by_scenario = {}
            cm.memo = (dst, by_scenario)
        memo = by_scenario.get((dead_pair, dead_node))
        if memo is None:
            memo = by_scenario[dead_pair, dead_node] = {}
    tables, keyed, fallbacks = cm.tables, cm.keyed, cm.fallbacks
    n, n_in = cm.n, cm.n_in
    n_labels = len(cm.labels)
    # No rule names a node outside [0, n).  Such a destination gets a
    # stand-in that puts every int probe past all rule keys, so that no probe
    # aliases another key.
    dst_key = dst if 0 <= dst < n else n_labels * n
    hops: list[tuple] = []
    keys: list[int] = []  # node * n_labels + label of each state walked, with a memo
    seen: set[int] = set()
    total = 0.0
    outcome, reason = DROPPED, ""
    hit = None
    node = src
    label = 0
    in_link = -1
    while node != dst:
        key = node * n_labels + label
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
            action = table.get(label * n + dst_key)
            if action is None:
                for tier in fallbacks[label]:
                    action = table.get(tier * n + dst_key)
                    if action is not None:
                        break
                else:
                    reason = "no matching rule"
                    break
        kind = action[0]
        if kind == _GROUP:
            for watch, watch_u, watch_v, bucket_action in action[1]:
                if watch is None or (
                    watch != dead_pair and watch_u != dead_node and watch_v != dead_node
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
        _, new_label, link, weight, link_id, pair, u, v = action
        if new_label >= 0:
            label = new_label
        if pair == dead_pair or u == dead_node or v == dead_node:
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
    if outcome == DELIVERED and len(set(map(_pair_of, hops))) < len(hops):
        # Crankback needs a link traversed twice.  Each hop that retraces an
        # earlier hop not yet retraced counts, summed left to right.  Arc ids
        # are 2*pair_id leaving the lower endpoint, +1 leaving the higher.
        unmatched: list[int] = []
        node = src
        for _, _, _, weight, _, pair, u, v in hops:
            arc = 2 * pair + (node == v)
            if arc ^ 1 in unmatched:
                unmatched.remove(arc ^ 1)
                crankback += weight
            else:
                unmatched.append(arc)
            node = u if node == v else v
    return outcome, reason, total, crankback, hops


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
