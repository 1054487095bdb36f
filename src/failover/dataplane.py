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

A trace ends delivered, dropped (explicit drop, no matching rule, or the
selected output link is dead; packets never traverse dead links), or
loop-detected when the ``(node, label, incoming link)`` state repeats.
Loops indicate a rule-computation bug and are reported as their own class.
A malformed matrix never makes the walk raise: a group that is not defined,
a group inside another group's bucket, and an output link that does not
touch the node each end the packet as dropped, with a reason naming the
fault.

``simulate`` walks either matrix form.  On a :class:`ForwardingMatrix` it is
the reference walk over ``Match`` keys, used for single packets.  On a
:class:`CompiledMatrix` (see :func:`compile_matrix`) it runs an int-keyed
walk that probes the same tiers in the same order and returns the same
trace; ``metrics.measure`` compiles each matrix once per call and walks
every trace of that call through it.

When no rule of a compiled matrix keys on source or incoming link (every
protection matrix), the next hop under one scenario toward one destination
depends only on ``(node, label)``.  The compiled walk then remembers, per
scenario, the rest of every delivered or dropped walk from each state it
passed, and a later walk that reaches such a state splices that suffix in
instead of walking it.  A terminating suffix never revisits a state, so the
spliced trace is the one the reference walk takes; totals are summed left
to right as in the walk, and crankback is recounted only when a link repeats.
The memo covers one destination at a time (it is dropped when a call names
another), so callers that walk destination by destination, as
``metrics.measure`` does, reuse it most.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import islice
from operator import add
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
)
from .topology import FailureScenario, Link, Topology

__all__ = ["TraceStep", "Trace", "CompiledMatrix", "compile_matrix", "simulate", "crankback_of"]

DELIVERED = "delivered"
DROPPED = "dropped"
LOOP = "loop"


class TraceStep(NamedTuple):
    node: int
    label: FailureLabel  # label after this node's actions
    link: Optional[Link]  # outgoing link, None on the terminal step
    weight: float


@dataclass
class Trace:
    src: int
    dst: int
    scenario: FailureScenario
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
            weight = "-" if step.link is None else repr(step.weight)
            lines.append(f"{step.node} {step.label} {link} {weight}")
        lines.append(
            f"{self.outcome} total={self.total_weight!r} crankback={self.crankback_weight!r}"
        )
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
    if label.kind in ("link", "node"):
        action = table.get(Match(FailureLabel("anylink", -1, label.v), dst))
        if action is not None:
            return action
    if not label.is_primary:
        action = table.get(Match(PRIMARY, dst))
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
    :class:`CompiledMatrix` of one (the same trace, faster per hop).
    """
    if src == dst:
        raise ValueError("source and destination must differ")
    trace = Trace(src, dst, scenario)
    if not scenario.node_is_live(src):
        trace.reason = "source is the failed node"
        return trace
    if isinstance(fw, CompiledMatrix):
        kind = scenario.kind
        dead_pair = fw.pair_ids.get((scenario.u, scenario.v), -1) if kind == "link" else -1
        dead_node = scenario.v if kind == "node" else None
        if fw.memoizable:
            return _walk_shared(fw, trace, dead_pair, dead_node)
        return _walk_compiled(fw, trace, dead_pair, dead_node)
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
        trace.steps.append(TraceStep(node, label, out, out.weight))
        trace.total_weight += out.weight
        in_link = out
        node = out.other(node)
    trace.steps.append(TraceStep(node, label, None, 0.0))
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


class CompiledMatrix:
    """A :class:`ForwardingMatrix` with labels and links interned to ints.

    ``tables[node]`` holds one entry per rule.  A rule on ``(label, dst)``
    is keyed ``label_id * n_nodes + dst``; a rule that also keys on source or
    incoming link is keyed ``-1 - ((label_id * n_nodes + dst) * n_nodes +
    src) * n_in - (in_link_id + 1)``, ``in_link_id`` -1 for none, so the two
    kinds never collide.  ``keyed[node]`` says whether the node has a rule
    of the second kind.  ``fallbacks[label_id]`` are the label ids of the
    wildcard and primary tiers of a packet carrying that label.  Link
    liveness is decided on ``pair_id`` (one per node pair) and endpoints.
    Built by :func:`compile_matrix` as a snapshot: it holds no reference to
    the matrix, and a matrix changed later has to be compiled again.

    ``memo`` holds the walks toward one destination (see the module
    docstring); it is used only when ``memoizable``, that is when no node is
    keyed.  It is replaced as a whole, so a walk that started with it keeps
    a memo of its own destination even if another thread replaces it.
    """

    __slots__ = ("tables", "keyed", "labels", "fallbacks", "pair_ids", "n_nodes", "n_in",
                 "memoizable", "memo")

    def __init__(self, tables, keyed, labels, fallbacks, pair_ids, n_nodes, n_in):
        self.tables = tables
        self.keyed = keyed
        self.labels = labels
        self.fallbacks = fallbacks
        self.pair_ids = pair_ids
        self.n_nodes = n_nodes  # bound on every node id in a rule key
        self.n_in = n_in  # number of link ids plus one
        self.memoizable = not any(keyed)
        # (dst, {(dead_pair, dead_node): {node * n_labels + label: (walk,
        # index)}}), walk = (steps, weights, pair ids, outcome, reason) of a
        # whole trace and index the position of that state in it.
        self.memo: tuple[Optional[int], dict] = (None, {})


_DROP_ACTION = (_DROP, "drop rule")


def compile_matrix(fw: ForwardingMatrix, t: Topology) -> CompiledMatrix:
    """Intern ``fw``'s labels and links and compile every rule and group once.

    Links of ``t`` take the first link ids, in ``t.links`` order.  A group
    that is not defined, or nested in a bucket, compiles to a drop with the
    reason the reference walk gives when a packet reaches it.  Node ids in
    rule keys must be non-negative ints, as in every :class:`Topology`.
    """
    label_ids: dict[FailureLabel, int] = {PRIMARY: 0}
    labels: list[FailureLabel] = [PRIMARY]
    link_ids: dict[Link, int] = {}
    pair_ids: dict[tuple[int, int], int] = {}
    link_pairs: list[int] = []
    # Rules share a few label and link objects.  Looking them up by identity
    # first hashes each frozen dataclass once per object, not once per use;
    # ``held`` keeps every object looked up alive, so no id is reused.
    ids_by_object: dict[int, int] = {}
    held: list[object] = []

    def label_id(label: FailureLabel) -> int:
        lid = ids_by_object.get(id(label))
        if lid is None:
            lid = label_ids.get(label)
            if lid is None:
                lid = label_ids[label] = len(labels)
                labels.append(label)
            ids_by_object[id(label)] = lid
            held.append(label)
        return lid

    def link_id(link: Link) -> int:
        lid = ids_by_object.get(id(link))
        if lid is None:
            lid = link_ids.get(link)
            if lid is None:
                lid = link_ids[link] = len(link_pairs)
                link_pairs.append(pair_ids.setdefault(link.pair, len(pair_ids)))
            ids_by_object[id(link)] = lid
            held.append(link)
        return lid

    for link in t.links:
        link_id(link)

    # Compiled forwards by (new label id, link id): equal actions share one.
    compiled_forwards: dict[tuple[int, int], tuple] = {}
    compiled_groups: dict[int, tuple] = {}

    def group_of(group_id: int) -> tuple:
        compiled = compiled_groups.get(group_id)
        if compiled is None:
            entry = fw.groups.get(group_id)
            if entry is None:
                compiled = (_DROP, f"group {group_id} is not defined")
            else:
                buckets = []
                for watch, bucket_action in entry.buckets:
                    if isinstance(bucket_action, GroupRef):
                        compiled_bucket = (_DROP, f"group {bucket_action.group_id} "
                                                  "is nested in a group bucket")
                    else:
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
        if isinstance(action, Output):
            return forward(-1, action.link)
        if isinstance(action, GroupRef):
            return group_of(action.group_id)
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
            compiled = compiled_forwards[new_label, lid] = (
                _FORWARD, new_label, link, link.weight, lid, link_pairs[lid], link.u, link.v)
        return compiled

    # Intern every label and link first: the key radices depend on the totals.
    n_nodes = 1
    for table in fw.tables:
        for match, action in table.items():
            label_id(match.label)
            if match.in_link is not None:
                link_id(match.in_link)
            action_of(action)
            n_nodes = max(n_nodes, match.dst + 1, 1 if match.src is None else match.src + 1)
    n_in = len(link_pairs) + 1
    tables: list[dict[int, tuple]] = []
    keyed: list[bool] = []
    for table in fw.tables:
        compiled_table: dict[int, tuple] = {}
        node_keyed = False
        for match, action in table.items():
            base = label_id(match.label) * n_nodes + match.dst
            if match.src is None:
                if match.in_link is None:
                    compiled_table[base] = action_of(action)
                # else: a rule without a source never matches a packet
            else:
                node_keyed = True
                in_key = 0 if match.in_link is None else link_id(match.in_link) + 1
                compiled_table[-1 - (base * n_nodes + match.src) * n_in - in_key] = action_of(action)
        tables.append(compiled_table)
        keyed.append(node_keyed)

    fallbacks = []
    for label in labels:
        tiers = []
        if label.kind in ("link", "node"):
            wildcard = label_ids.get(FailureLabel("anylink", -1, label.v))
            if wildcard is not None:
                tiers.append(wildcard)
        if not label.is_primary:
            tiers.append(0)
        fallbacks.append(tuple(tiers))
    return CompiledMatrix(tables, keyed, labels, fallbacks, pair_ids, n_nodes, n_in)


def _walk_compiled(cm: CompiledMatrix, trace: Trace, dead_pair: int,
                   dead_node: Optional[int]) -> Trace:
    """The reference walk of :func:`simulate` over a compiled matrix, with
    liveness tested on ints and crankback summed along the way.  The
    scenario kills the links of pair id ``dead_pair`` (-1 for none) and
    every link at ``dead_node``."""
    src, dst = trace.src, trace.dst
    tables, keyed, labels, fallbacks = cm.tables, cm.keyed, cm.labels, cm.fallbacks
    n_nodes, n_in = cm.n_nodes, cm.n_in
    n_labels = len(labels)
    # No rule key holds a node id outside [0, n_nodes).  Such a destination
    # gets a stand-in that puts every probe past all rule keys, and such a
    # source skips the keyed probes, so that no probe aliases another key.
    dst_key = dst if 0 <= dst < n_nodes else n_labels * n_nodes
    src_keyed = 0 <= src < n_nodes
    steps = trace.steps
    total = 0.0
    crankback = 0.0
    # Forward traversals not yet retraced, per directed arc 2*pair_id (from
    # the lower endpoint) or 2*pair_id+1 (from the higher one).
    unmatched: dict[int, int] = {}
    seen: set[int] = set()
    node = src
    label = 0
    in_link = -1
    while node != dst:
        # (node, label, in_link) as one int; in_link runs over -1..n_in-2.
        state = (node * n_labels + label) * n_in + in_link
        if state in seen:
            trace.outcome = LOOP
            trace.reason = "forwarding state repeated"
            break
        seen.add(state)
        table = tables[node]
        base = label * n_nodes + dst_key
        action = None
        if keyed[node] and src_keyed:
            key = -1 - (base * n_nodes + src) * n_in
            action = table.get(key - in_link - 1)
            if action is None and in_link >= 0:
                action = table.get(key)
        if action is None:
            action = table.get(base)
            if action is None:
                for tier in fallbacks[label]:
                    action = table.get(tier * n_nodes + dst_key)
                    if action is not None:
                        break
                else:
                    trace.reason = "no matching rule"
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
                trace.reason = "no live group bucket"
                break
            kind = action[0]
        if kind != _FORWARD:
            trace.reason = action[1]
            break
        _, new_label, link, weight, link_id, pair, u, v = action
        if new_label >= 0:
            label = new_label
        if pair == dead_pair or u == dead_node or v == dead_node:
            trace.reason = f"output link {link} is dead"
            break
        if node == u:
            arc = 2 * pair
            nxt = v
        elif node == v:
            arc = 2 * pair + 1
            nxt = u
        else:
            trace.reason = f"output link {link} does not touch node {node}"
            break
        steps.append(TraceStep(node, labels[label], link, weight))
        total += weight
        node = nxt
        back = unmatched.get(arc ^ 1)
        if back:
            unmatched[arc ^ 1] = back - 1
            crankback += weight
        else:
            unmatched[arc] = unmatched.get(arc, 0) + 1
        in_link = link_id
    else:
        steps.append(TraceStep(node, labels[label], None, 0.0))
        trace.outcome = DELIVERED
        trace.crankback_weight = crankback
    trace.total_weight = total
    return trace


def _walk_shared(cm: CompiledMatrix, trace: Trace, dead_pair: int,
                 dead_node: Optional[int]) -> Trace:
    """:func:`_walk_compiled` for a matrix without keyed rules: the walk
    stops at the first state with a remembered suffix and splices it in."""
    src, dst = trace.src, trace.dst
    memo_dst, by_scenario = cm.memo
    if memo_dst != dst:
        by_scenario = {}
        cm.memo = (dst, by_scenario)
    memo = by_scenario.get((dead_pair, dead_node))
    if memo is None:
        memo = by_scenario[dead_pair, dead_node] = {}
    tables, labels, fallbacks = cm.tables, cm.labels, cm.fallbacks
    n_nodes, n_in = cm.n_nodes, cm.n_in
    n_labels = len(labels)
    dst_key = dst if 0 <= dst < n_nodes else n_labels * n_nodes
    steps: list[TraceStep] = []
    weights: list[float] = []
    pairs: list[int] = []
    keys: list[int] = []  # node * n_labels + label of each state walked here
    seen: set[int] = set()
    total = 0.0
    hit = None
    node = src
    label = 0
    in_link = -1
    while node != dst:
        key = node * n_labels + label
        hit = memo.get(key)
        if hit is not None:
            break
        state = key * n_in + in_link
        if state in seen:
            trace.outcome = LOOP
            trace.reason = "forwarding state repeated"
            break
        seen.add(state)
        keys.append(key)
        table = tables[node]
        action = table.get(label * n_nodes + dst_key)
        if action is None:
            for tier in fallbacks[label]:
                action = table.get(tier * n_nodes + dst_key)
                if action is not None:
                    break
            else:
                trace.reason = "no matching rule"
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
                trace.reason = "no live group bucket"
                break
            kind = action[0]
        if kind != _FORWARD:
            trace.reason = action[1]
            break
        _, new_label, link, weight, link_id, pair, u, v = action
        if new_label >= 0:
            label = new_label
        if pair == dead_pair or u == dead_node or v == dead_node:
            trace.reason = f"output link {link} is dead"
            break
        if node == u:
            nxt = v
        elif node == v:
            nxt = u
        else:
            trace.reason = f"output link {link} does not touch node {node}"
            break
        steps.append(TraceStep(node, labels[label], link, weight))
        weights.append(weight)
        pairs.append(pair)
        total += weight
        node = nxt
        in_link = link_id
    else:
        steps.append(TraceStep(node, labels[label], None, 0.0))
        trace.outcome = DELIVERED
    if hit is not None:
        (walk_steps, walk_weights, walk_pairs, trace.outcome, trace.reason), index = hit
        steps += walk_steps[index:]
        # The same left-to-right sum as adding each weight in the walk.
        total = reduce(add, islice(walk_weights, index, None), total)
        pairs += walk_pairs[index:]
        if keys:
            weights += walk_weights[index:]
    trace.total_weight = total
    if keys and trace.outcome != LOOP:
        walk = (steps.copy(), weights, pairs, trace.outcome, trace.reason)
        for index, key in enumerate(keys):
            memo[key] = (walk, index)
    trace.steps = steps
    if trace.outcome == DELIVERED and len(set(pairs)) < len(pairs):
        # Crankback needs a link traversed twice; recount it hop by hop.
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
