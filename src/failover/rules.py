"""Forwarding rule model shared by the protection, baseline, and simulator code.

A :class:`ForwardingMatrix` holds per-node rule tables keyed by a
:class:`Match` (failure label + destination, optionally source and incoming
link for the disjoint-path baselines) mapping to an action.  Fast-failover
behavior is expressed through group entries: an ordered bucket list where the
first bucket whose watched link is live wins.

Label semantics:

* ``PRIMARY``: packet on its default shortest path.
* ``LinkFail(u, v)``: link between ``u`` and ``v`` observed down, detected
  at ``u`` (``v`` is the far endpoint the detour plans around).
* ``NodeFail(v)``: node ``v`` presumed down.
* ``AnyLinkFailTo(v)``: match-only wildcard covering ``NodeFail(v)`` and
  ``LinkFail(x, v)`` for every ``x``; packets never carry it.
"""

from __future__ import annotations

import gc
import json
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Union

from .topology import Link, Topology

__all__ = [
    "FailureLabel",
    "PRIMARY",
    "link_fail",
    "node_fail",
    "any_link_fail_to",
    "Match",
    "Output",
    "PushLabelOutput",
    "PopLabelOutput",
    "RewriteLabelOutput",
    "GroupRef",
    "Drop",
    "Action",
    "Bucket",
    "GroupEntry",
    "UncoveredEntry",
    "ForwardingMatrix",
    "rule_conflict",
    "MODE_SHORTEST",
    "MODE_PER_LINK",
    "MODE_PER_NODE",
    "MODE_HYBRID",
    "MODE_DISJOINT_LINK",
    "MODE_DISJOINT_NODE",
]

MODE_SHORTEST = "shortest"
MODE_PER_LINK = "per-link"
MODE_PER_NODE = "per-node"
MODE_HYBRID = "hybrid"
MODE_DISJOINT_LINK = "disjoint-link"
MODE_DISJOINT_NODE = "disjoint-node"

_KIND_ORDER = {"primary": 0, "link": 1, "node": 2, "anylink": 3}


class FailureLabel(NamedTuple):
    """Tag carried by detoured packets (or a wildcard match form).

    A label is a tuple ``(kind, u, v)`` and compares and hashes by value, in
    C.  Labels order by :meth:`sort_key` (primary, link, node, anylink, then
    ``u`` and ``v``) under ``<``, ``<=``, ``>`` and ``>=``.
    """

    kind: str  # "primary" | "link" | "node" | "anylink"
    u: int = -1
    v: int = -1

    def sort_key(self) -> tuple[int, int, int]:
        return (_KIND_ORDER[self.kind], self.u, self.v)

    def __lt__(self, other: "FailureLabel") -> bool:
        return self.sort_key() < other.sort_key()

    def __le__(self, other: "FailureLabel") -> bool:
        return self.sort_key() <= other.sort_key()

    def __gt__(self, other: "FailureLabel") -> bool:
        return self.sort_key() > other.sort_key()

    def __ge__(self, other: "FailureLabel") -> bool:
        return self.sort_key() >= other.sort_key()

    @property
    def is_primary(self) -> bool:
        return self.kind == "primary"

    def fallbacks(self) -> tuple["FailureLabel", ...]:
        """The labels whose rules a packet carrying this one matches, in
        order, where a node has no rule for this label itself: a link or
        node label's ``AnyLinkFailTo`` wildcard, then ``PRIMARY`` for every
        label but ``PRIMARY``."""
        if self.kind == "primary":
            return ()
        if self.kind in ("link", "node"):
            return (any_link_fail_to(self.v), PRIMARY)
        return (PRIMARY,)

    def __str__(self) -> str:
        if self.kind == "primary":
            return "primary"
        if self.kind == "link":
            return f"link:{self.u}-{self.v}"
        if self.kind == "node":
            return f"node:{self.v}"
        return f"anylink:*-{self.v}"

    @classmethod
    def parse(cls, text: str) -> "FailureLabel":
        if text == "primary":
            return PRIMARY
        kind, _, rest = text.partition(":")
        if kind == "link":
            u, v = rest.split("-")
            return link_fail(int(u), int(v))
        if kind == "node":
            return node_fail(int(rest))
        if kind == "anylink":
            return any_link_fail_to(int(rest.split("-")[-1]))
        raise ValueError(f"unknown label {text!r}")


PRIMARY = FailureLabel("primary")


def link_fail(detector: int, opposite: int) -> FailureLabel:
    """Label for a failed link, ordered (detecting node, far endpoint)."""
    return FailureLabel("link", detector, opposite)


def node_fail(v: int) -> FailureLabel:
    return FailureLabel("node", -1, v)


def any_link_fail_to(v: int) -> FailureLabel:
    return FailureLabel("anylink", -1, v)


class Match(NamedTuple):
    """Rule match key.  ``src``/``in_link`` are used only by the disjoint
    baselines, which must key on (source, destination, incoming port)."""

    label: FailureLabel
    dst: int
    src: Optional[int] = None
    in_link: Optional[Link] = None

    def sort_key(self):
        return (
            self.label.sort_key(),
            self.dst,
            -1 if self.src is None else self.src,
            (-1, -1) if self.in_link is None else self.in_link.pair,
        )


# Actions are tuples that compare and hash by value, in C.  Each ends in a
# ``kind`` field with a fixed default, so that two actions of different
# kinds never compare equal or share a hash: ``Output(link)`` is
# ``(link, "output")`` and ``PopLabelOutput(link)`` is ``(link, "pop")``.


class Output(NamedTuple):
    """Forward on ``link``, label unchanged."""

    link: Link
    kind: str = "output"


class PushLabelOutput(NamedTuple):
    """Push ``label`` onto a primary packet and forward on ``link``."""

    label: FailureLabel
    link: Link
    kind: str = "push"


class PopLabelOutput(NamedTuple):
    """Pop the packet's label and forward on ``link``."""

    link: Link
    kind: str = "pop"


class RewriteLabelOutput(NamedTuple):
    """Replace the packet's label with ``label`` and forward on ``link``."""

    label: FailureLabel
    link: Link
    kind: str = "rewrite"


class GroupRef(NamedTuple):
    """Forward through fast-failover group ``group_id``.  A matrix hands out
    one ``GroupRef`` object per group id (:attr:`ForwardingMatrix.group_refs`)."""

    group_id: int
    kind: str = "group"


class Drop(NamedTuple):
    """Discard the packet."""

    kind: str = "drop"


Action = Union[Output, PushLabelOutput, PopLabelOutput, RewriteLabelOutput, GroupRef, Drop]

# Actions that output on a link.
_LINK_ACTIONS = frozenset({Output, PushLabelOutput, PopLabelOutput, RewriteLabelOutput})

# Actions a group bucket may carry (no nested groups).
BucketAction = Union[Output, PushLabelOutput, PopLabelOutput, RewriteLabelOutput, Drop]


class Bucket(NamedTuple):
    """Fast-failover bucket: usable when ``watch`` is live (``None`` watches
    nothing and is always usable, e.g. a terminal Drop)."""

    watch: Optional[Link]
    action: BucketAction


@dataclass(frozen=True)
class GroupEntry:
    node: int
    buckets: tuple[Bucket, ...]


class UncoveredEntry(NamedTuple):
    """A (failure, destination) case the configuration cannot deliver."""

    failure: str
    node: int
    dst: int
    reason: str  # "destination_failed" | "no_detour" | "no_disjoint_pair"


class ForwardingMatrix:
    """Per-node rule tables plus fast-failover groups.

    Every rule that forwards to group ``gid`` holds the one object
    ``group_refs[gid]``: :meth:`intern_group` and :meth:`from_json` hand out
    these shared references rather than a new ``GroupRef`` per rule.
    """

    def __init__(self, mode: str, n: int):
        self.mode = mode
        self.n = n
        self.tables: list[dict[Match, Action]] = [dict() for _ in range(n)]
        self.groups: dict[int, GroupEntry] = {}  # by group id
        # ``group_refs[gid]`` is made on first use and shared from then on.
        self.group_refs: dict[int, GroupRef] = _Memo(GroupRef)
        # Built from ``groups`` by the first ``intern_group`` call, as is the next new id.
        self._group_index: Optional[dict[tuple[int, tuple[Bucket, ...]], int]] = None
        self._next_group_id = 0
        self.uncovered: list[UncoveredEntry] = []
        self.stats: dict[str, float] = {}
        # Labeled pop rules a build for ``optimize`` left out; not serialized.
        self.skipped_pops = 0

    # -- construction ------------------------------------------------------

    def add_rule(self, node: int, match: Match, action: Action) -> None:
        """Install a rule; re-adding an equal rule is a no-op, a
        conflicting action for the same exact match is a bug and raises,
        leaving the first action in place."""
        existing = self.tables[node].setdefault(match, action)
        if existing is not action and existing != action:
            raise rule_conflict(node, match, existing, action)

    def set_rule(self, node: int, match: Match, action: Action) -> None:
        self.tables[node][match] = action

    def intern_group(self, node: int, buckets: tuple[Bucket, ...]) -> GroupRef:
        """Groups with identical ordered buckets at one node are shared.  A
        new group's id is one more than the largest id in use."""
        index = self._group_index
        if index is None:
            index = self._group_index = {(g.node, g.buckets): gid for gid, g in self.groups.items()}
            self._next_group_id = max(self.groups, default=-1) + 1
        key = (node, buckets)
        group_id = index.get(key)
        if group_id is None:
            group_id = index[key] = self._next_group_id
            self._next_group_id += 1
            self.groups[group_id] = GroupEntry(node, buckets)
        return self.group_refs[group_id]

    def prune_unreferenced_groups(self) -> None:
        used = {
            action.group_id
            for table in self.tables
            for action in table.values()
            if isinstance(action, GroupRef)
        }
        self.groups = {gid: g for gid, g in self.groups.items() if gid in used}
        self._group_index = None

    # -- queries -----------------------------------------------------------

    def rule_count(self) -> int:
        return sum(len(table) for table in self.tables)

    def group_forwarding_count(self) -> int:
        return sum(
            1
            for table in self.tables
            for action in table.values()
            if isinstance(action, GroupRef)
        )

    def distinct_group_count(self) -> int:
        return len(self.groups)

    def iter_rules(self) -> Iterator[tuple[int, Match, Action]]:
        """Deterministic (node, match, action) order for serialization."""
        for node in range(self.n):
            for match in sorted(self.tables[node], key=Match.sort_key):
                yield node, match, self.tables[node][match]

    def validate(self) -> None:
        """Check structural invariants; raises ValueError on violation.

        Rules name destinations and sources among the nodes ``0..n-1``.
        Output-style actions must use links incident to their node, labels
        may only be pushed onto primary-matched packets and popped off
        labeled ones, and every group needs at least two buckets watching
        local links and must be referenced from its own node.  Every ordered
        pair ``(s, d)`` needs a primary rule at ``s``: ``Match(PRIMARY, d)``
        or, for the disjoint baselines, ``Match(PRIMARY, d, s, None)``.
        """
        def incident(node: int, link: Link) -> bool:
            return node in (link.u, link.v)

        groups = self.groups
        pushing_groups = {
            gid
            for gid, g in groups.items()
            if any(isinstance(b.action, PushLabelOutput) for b in g.buckets)
        }
        nodes = range(self.n)
        # Per node, the destinations it has a primary rule for.
        reached: list[set[int]] = []
        referenced: set[int] = set()
        for node, table in enumerate(self.tables):
            dsts = set()
            reached.append(dsts)
            for match, action in table.items():
                if type(match.dst) is not int or match.dst not in nodes or (
                    match.src is not None and (type(match.src) is not int or match.src not in nodes)
                ):
                    raise node_outside(node, self.n, match)
                primary = match.label.kind == "primary"
                if primary and match.in_link is None and match.src in (None, node):
                    dsts.add(match.dst)
                kind = type(action)
                if kind is GroupRef:
                    group = groups.get(action.group_id)
                    if group is None:
                        raise ValueError(f"unresolved group {action.group_id} at node {node}")
                    if group.node != node:
                        raise ValueError(f"node {node} references group of node {group.node}")
                    referenced.add(action.group_id)
                    if action.group_id in pushing_groups and not primary:
                        raise ValueError(f"label push reachable from non-primary match at {node}")
                elif kind in _LINK_ACTIONS:
                    if not incident(node, action.link):
                        raise ValueError(f"rule at {node} outputs on non-incident {action.link}")
                    if kind is PushLabelOutput and not primary:
                        raise ValueError(f"push from non-primary match at node {node}")
                    if kind is PopLabelOutput and primary:
                        raise ValueError(f"pop from primary match at node {node}")
        for gid, group in groups.items():
            if type(gid) is not int or type(group.node) is not int:
                raise ValueError(f"group {gid!r} at node {group.node!r}: ids and nodes must be ints")
            if len(group.buckets) < 2:
                raise ValueError(f"group {gid} has fewer than two buckets")
            for bucket in group.buckets:
                if bucket.watch is not None and not incident(group.node, bucket.watch):
                    raise ValueError(f"group {gid} watches non-incident {bucket.watch}")
                if isinstance(bucket.action, GroupRef):
                    raise ValueError(f"group {gid} nests a group reference")
        every = set(nodes)
        for s, dsts in enumerate(reached):
            missing = every - dsts - {s}
            if missing:
                raise ValueError(f"no primary rule at node {s} for destination {min(missing)}")
        for gid, group in groups.items():
            if gid not in referenced:
                raise ValueError(f"group {gid} at node {group.node} is referenced by no rule")

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        groups = self.groups
        return {
            "mode": self.mode,
            "n": self.n,
            "rules": [
                {
                    "node": node,
                    "label": str(match.label),
                    "dst": match.dst,
                    "src": match.src,
                    "in_link": None if match.in_link is None else str(match.in_link),
                    "action": _action_to_json(action),
                }
                for node, match, action in self.iter_rules()
            ],
            "groups": [
                {
                    "id": gid,
                    "node": groups[gid].node,
                    "buckets": [
                        {
                            "watch": None if b.watch is None else str(b.watch),
                            "action": _action_to_json(b.action),
                        }
                        for b in groups[gid].buckets
                    ],
                }
                for gid in sorted(groups)
            ],
            "uncovered": [list(entry) for entry in self.uncovered],
            "stats": self.stats,
        }

    @classmethod
    def from_json(cls, data: dict, t: Topology) -> "ForwardingMatrix":
        """Load a matrix of ``t`` written by :meth:`to_json`.

        Raises ``ValueError`` unless the matrix has ``t``'s node count, names
        only links of ``t``, known labels and action types, has one rule per
        node and match and one group per id, and passes :meth:`validate`; a
        missing key raises ``KeyError``.  Each distinct label, link and
        action is parsed once per load, and the rules that forward to one
        group share its ``GroupRef``.

        The whole load, parse and validation, runs with Python's cyclic
        garbage collector paused.  That is safe because a load creates no
        reference cycles, so reference counting frees all of its garbage at
        once; the pause only keeps allocation-count triggers from sweeping
        the rule objects the load is still building.  The collector's state
        on entry is restored on return and on error, and a caller that had
        turned it off keeps it off.  A ``gc.disable()`` made by another
        thread while a load runs may be undone when the load ends.
        """
        with _collector_paused():
            n = data["n"]
            check_matrix_size(n, t)
            fw = cls(data["mode"], n)
            labels = _Memo(FailureLabel.parse)
            links = _Memo(lambda text: _parse_link(text, t))
            actions = _Memo(lambda key: _action_from_key(key, labels, links))
            group_refs = fw.group_refs

            def action(entry: dict) -> Action:
                kind = entry["type"]
                if kind == "group":
                    return group_refs[entry["id"]]
                return actions[(kind, entry.get("link"), entry.get("label"))]

            tables, rules = fw.tables, data["rules"]
            for entry in rules:
                node = entry["node"]
                if not 0 <= node < n:
                    raise ValueError(f"rule at node {node}, outside 0..{n - 1}")
                in_link = entry["in_link"]
                match = Match(labels[entry["label"]], entry["dst"], entry["src"],
                              None if in_link is None else links[in_link])
                tables[node][match] = action(entry["action"])
            if fw.rule_count() != len(rules):
                node, match = _first_repeat(
                    (e["node"], Match(labels[e["label"]], e["dst"], e["src"],
                                      None if e["in_link"] is None else links[e["in_link"]]))
                    for e in rules)
                raise ValueError(f"matrix has two rules at node {node} for {match}")
            groups = data["groups"]
            for g in groups:
                buckets = tuple(
                    Bucket(None if b["watch"] is None else links[b["watch"]], action(b["action"]))
                    for b in g["buckets"]
                )
                fw.groups[g["id"]] = GroupEntry(g["node"], buckets)
            if len(fw.groups) != len(groups):
                gid = _first_repeat(g["id"] for g in groups)
                raise ValueError(f"matrix has two groups with id {gid!r}")
            fw.uncovered = [UncoveredEntry(*entry) for entry in data.get("uncovered", [])]
            fw.stats = dict(data.get("stats", {}))
            fw.validate()
            return fw

    @classmethod
    def loads(cls, text: str, t: Topology) -> "ForwardingMatrix":
        """:meth:`from_json` of the JSON document ``text``.  The parse makes
        most of a load's objects, so it runs in the same collector pause as
        :meth:`from_json`.  Raises what ``json.loads`` and :meth:`from_json`
        raise."""
        with _collector_paused():
            return cls.from_json(json.loads(text), t)


class _CollectorPause:
    """Turns Python's cyclic garbage collector off for a ``with`` block and
    back on when the block ends or raises."""

    __slots__ = ()

    def __enter__(self) -> None:
        gc.disable()

    def __exit__(self, exc_type, exc, tb) -> None:
        gc.enable()


# Shared and stateless, so entering and leaving a pause allocates nothing:
# an allocation just before ``gc.disable()`` or just after ``gc.enable()``
# could itself set off the collection that the pause is there to avoid.
_PAUSE = _CollectorPause()
_NO_PAUSE = nullcontext()


def _collector_paused() -> Union[_CollectorPause, nullcontext]:
    """A pause of the cyclic collector if it is on; if a caller has turned
    it off, a context that leaves it off."""
    return _PAUSE if gc.isenabled() else _NO_PAUSE


class _Memo(dict):
    """``memo[key]`` is ``parse(key)``, computed on the first lookup."""

    def __init__(self, parse: Callable) -> None:
        super().__init__()
        self.parse = parse

    def __missing__(self, key):
        value = self[key] = self.parse(key)
        return value


def check_matrix_size(n: int, t: Topology) -> None:
    """Raise ``ValueError`` unless a matrix of ``n`` nodes fits ``t``."""
    if n != t.n:
        raise ValueError(f"matrix is for {n} nodes, topology has {t.n}")


def node_outside(node: int, n: int, match: Match) -> ValueError:
    """The error for a rule naming a node outside ``0..n-1``."""
    return ValueError(f"rule at node {node} names a node outside 0..{n - 1}: {match}")


def _first_repeat(items: Iterable):
    """The first item of ``items`` equal to an earlier one."""
    seen = set()
    for item in items:
        if item in seen:
            return item
        seen.add(item)


def rule_conflict(node: int, match: Match, existing: Action, action: Action) -> ValueError:
    """The error for two different actions on one exact match."""
    return ValueError(f"conflicting rule at node {node} for {match}: {existing} vs {action}")


def _parse_link(text: str, t: Topology) -> Link:
    try:
        u, v = (int(x) for x in text.split("-"))
    except (AttributeError, ValueError):
        raise ValueError(f"matrix has a malformed link {text!r}") from None
    link = t.link_between(u, v) if u < t.n else None
    if link is None:
        raise ValueError(f"matrix references link {text} absent from topology")
    return link


def _action_to_json(action: Action) -> dict:
    if isinstance(action, Output):
        return {"type": "output", "link": str(action.link)}
    if isinstance(action, PushLabelOutput):
        return {"type": "push", "label": str(action.label), "link": str(action.link)}
    if isinstance(action, PopLabelOutput):
        return {"type": "pop", "link": str(action.link)}
    if isinstance(action, RewriteLabelOutput):
        return {"type": "rewrite", "label": str(action.label), "link": str(action.link)}
    if isinstance(action, GroupRef):
        return {"type": "group", "id": action.group_id}
    if isinstance(action, Drop):
        return {"type": "drop"}
    raise TypeError(f"unknown action {action!r}")


def _action_from_key(key: tuple, labels: _Memo, links: _Memo) -> Action:
    """The action of a JSON action's ``(type, link, label)``; not a group."""
    kind, link, label = key
    if kind == "output":
        return Output(links[link])
    if kind == "push":
        return PushLabelOutput(labels[label], links[link])
    if kind == "pop":
        return PopLabelOutput(links[link])
    if kind == "rewrite":
        return RewriteLabelOutput(labels[label], links[link])
    if kind == "drop":
        return Drop()
    raise ValueError(f"unknown action type {kind!r}")
