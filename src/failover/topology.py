"""Network topology: weighted undirected graphs, generators, and file I/O.

Nodes are dense integer ids ``0..n-1``.  A physical link is undirected and
unique per node pair; routing code treats it as the symmetric arc pair
``(u,v)``/``(v,u)`` with equal weight, and a failed link is dead in both
directions (a fiber cut kills both).

Generators are pure functions of ``(n, seed)`` and reject samples until the
graph is two-connected, so a single link or node failure can never
disconnect it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional

__all__ = [
    "Link",
    "Topology",
    "FailureScenario",
    "NO_FAILURE",
    "TopologyFormatError",
    "GenerationError",
    "generate_erdos_renyi",
    "generate_lattice",
    "generate_waxman",
    "waxman_attempt",
    "is_two_connected",
    "check_node_count",
    "check_positive_weights",
    "check_lattice_size",
    "load_topology",
    "loads_topology",
    "save_topology",
    "unit_weights",
]

DEFAULT_RETRY_BUDGET = 10_000


class _LinkFields(NamedTuple):
    u: int
    v: int
    weight: float


class Link(_LinkFields):
    """Undirected physical link; endpoints normalized so ``u < v``.

    A link is a tuple ``(u, v, weight)`` and compares and hashes by value,
    in C.  ``Link(u, v, w)`` raises ``ValueError`` on a self-loop and on a
    weight that is not finite or is negative.
    """

    __slots__ = ()

    def __new__(cls, u: int, v: int, weight: float) -> "Link":
        if u == v:
            raise ValueError(f"self-loop at node {u}")
        if u > v:
            u, v = v, u
        if not math.isfinite(weight):
            raise ValueError(f"non-finite weight {weight} on link {u}-{v}")
        if weight < 0:
            raise ValueError(f"negative weight {weight} on link {u}-{v}")
        return tuple.__new__(cls, (u, v, weight))

    @property
    def pair(self) -> tuple[int, int]:
        return (self.u, self.v)

    def other(self, node: int) -> int:
        """The endpoint opposite ``node``."""
        if node == self.u:
            return self.v
        if node == self.v:
            return self.u
        raise ValueError(f"node {node} is not an endpoint of {self.u}-{self.v}")

    def __str__(self) -> str:
        return f"{self.u}-{self.v}"


@dataclass(frozen=True)
class FailureScenario:
    """At most one failed element: nothing, one physical link, or one node."""

    kind: str = "none"  # "none" | "link" | "node"
    u: Optional[int] = None
    v: Optional[int] = None

    @classmethod
    def none(cls) -> "FailureScenario":
        return NO_FAILURE

    @classmethod
    def link_down(cls, u: int, v: int) -> "FailureScenario":
        if u == v:
            raise ValueError("link endpoints must differ")
        a, b = (u, v) if u < v else (v, u)
        return cls("link", a, b)

    @classmethod
    def node_down(cls, v: int) -> "FailureScenario":
        return cls("node", None, v)

    def link_is_live(self, link: Link) -> bool:
        if self.kind == "link":
            return link.pair != (self.u, self.v)
        if self.kind == "node":
            return self.v != link.u and self.v != link.v
        return True

    def node_is_live(self, node: int) -> bool:
        return not (self.kind == "node" and node == self.v)

    def __str__(self) -> str:
        if self.kind == "link":
            return f"link_down({self.u},{self.v})"
        if self.kind == "node":
            return f"node_down({self.v})"
        return "no_failure"


NO_FAILURE = FailureScenario()


class TopologyFormatError(ValueError):
    """Raised on malformed edge-list input; carries the offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class GenerationError(RuntimeError):
    """Raised when the two-connectivity retry budget is exhausted."""


class Topology:
    """Immutable weighted undirected graph over nodes ``0..n-1``."""

    __slots__ = ("n", "_links", "_adj", "_shortest_paths")

    def __init__(self, n: int, links: Iterable[Link]):
        if n < 0:
            raise ValueError("node count must be non-negative")
        self.n = n
        by_pair: dict[tuple[int, int], Link] = {}
        for link in links:
            if not (0 <= link.u < n and 0 <= link.v < n):
                raise ValueError(f"link {link} references a node outside [0,{n})")
            if link.pair in by_pair:
                raise ValueError(f"parallel link {link}")
            by_pair[link.pair] = link
        self._links = tuple(by_pair[p] for p in sorted(by_pair))
        adj: list[list[tuple[int, float, Link]]] = [[] for _ in range(n)]
        for link in self._links:
            adj[link.u].append((link.v, link.weight, link))
            adj[link.v].append((link.u, link.weight, link))
        for row in adj:
            row.sort()
        self._adj = tuple(tuple(row) for row in adj)
        self._shortest_paths = None

    @property
    def nodes(self) -> range:
        return range(self.n)

    @property
    def links(self) -> tuple[Link, ...]:
        return self._links

    def neighbors(self, node: int) -> tuple[tuple[int, float, Link], ...]:
        """Sorted ``(neighbor, weight, link)`` triples incident to ``node``."""
        return self._adj[node]

    @property
    def adjacency(self) -> tuple[tuple[tuple[int, float, Link], ...], ...]:
        """Every node's ``neighbors`` tuple, indexed by node."""
        return self._adj

    def link_between(self, u: int, v: int) -> Optional[Link]:
        for other, _w, link in self._adj[u]:
            if other == v:
                return link
        return None

    def shortest_paths(self):
        """This object's ``failover.spf.ShortestPaths``, built on the first
        call and shared by every build and ``measure`` on the object.  It
        belongs to the object, not to its value: an equal ``Topology``
        builds its own.  Callers must not modify it."""
        if self._shortest_paths is None:
            from .spf import ShortestPaths
            self._shortest_paths = ShortestPaths(self)
        return self._shortest_paths

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Topology)
            and self.n == other.n
            and self._links == other._links
        )

    def __hash__(self) -> int:
        return hash((self.n, self._links))

    def __repr__(self) -> str:
        return f"Topology(n={self.n}, links={len(self._links)})"


def is_two_connected(t: Topology) -> bool:
    """True iff ``t`` is connected and has no articulation node (|N| >= 3)."""
    n = t.n
    if n < 3:
        return False
    # Iterative Tarjan lowpoint DFS from node 0; also detects disconnection.
    disc = [0] * n
    low = [0] * n
    state: list = [0] * n  # iterator over neighbors once visited
    parent = [-1] * n
    timer = 1
    visited = 0
    root_children = 0
    stack = [0]
    disc[0] = low[0] = timer
    timer += 1
    visited = 1
    state[0] = iter(t.neighbors(0))
    while stack:
        u = stack[-1]
        advanced = False
        for v, _w, _l in state[u]:
            if disc[v] == 0:
                parent[v] = u
                disc[v] = low[v] = timer
                timer += 1
                visited += 1
                if u == 0:
                    root_children += 1
                state[v] = iter(t.neighbors(v))
                stack.append(v)
                advanced = True
                break
            elif v != parent[u]:
                if disc[v] < low[u]:
                    low[u] = disc[v]
        if not advanced:
            stack.pop()
            p = parent[u]
            if p >= 0:
                if low[u] < low[p]:
                    low[p] = low[u]
                # Non-root articulation: some child cannot reach above p.
                if p != 0 and low[u] >= disc[p]:
                    return False
    if visited != n:
        return False
    return root_children < 2


def _draw_weight(rng: random.Random) -> float:
    w = rng.random()
    while w == 0.0:  # open interval (0,1)
        w = rng.random()
    return w


def check_node_count(n: int) -> None:
    """Raise ``ValueError`` unless the random generators accept ``n`` nodes."""
    if n < 3:
        raise ValueError("need at least 3 nodes")


def check_positive_weights(t: Topology) -> None:
    """Raise ``ValueError`` naming the first link of ``t`` of weight zero.

    The preferred-path tie-break composes (the suffix of a preferred path is
    the preferred path from its first node) only for positive weights: in
    an all-zero triangle the preferred path 0->2 is (0, 1, 2), but from 1 it
    is (1, 0, 2).  The protection builds and ``measure`` rely on it."""
    for link in t.links:
        if link.weight == 0:
            raise ValueError(f"link {link.u}-{link.v} has weight {link.weight!r}; "
                             "protection rules and metrics need positive link weights")


def check_lattice_size(n: int) -> None:
    """Raise ``ValueError`` unless ``n`` nodes form a square lattice of side
    three or more."""
    if n < 0 or math.isqrt(n) ** 2 != n:
        raise ValueError(f"lattice size {n} is not a perfect square")
    if n < 9:
        raise ValueError("need at least a 3x3 lattice")


def generate_erdos_renyi(
    n: int, seed: int, retry_budget: int = DEFAULT_RETRY_BUDGET
) -> Topology:
    """Erdős–Rényi G(n, p) with p = 2·ln(n)/n, retried until two-connected.

    Each unordered pair is linked independently; link weights are uniform in
    (0, 1).  Identical ``(n, seed)`` always produce the identical topology.
    """
    check_node_count(n)
    p = 2.0 * math.log(n) / n
    rng = random.Random(seed)
    for _ in range(retry_budget):
        links = []
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < p:
                    links.append(Link(u, v, _draw_weight(rng)))
        t = Topology(n, links)
        if is_two_connected(t):
            return t
    raise GenerationError(
        f"no two-connected Erdős–Rényi sample in {retry_budget} attempts (n={n}, seed={seed})"
    )


def generate_lattice(n: int, seed: int) -> Topology:
    """Square i×i lattice, i = sqrt(n); interior degree 4, boundary nodes
    connected to their adjacent boundary neighbors.  Weights uniform (0, 1)."""
    check_lattice_size(n)
    i = math.isqrt(n)
    rng = random.Random(seed)
    links = []
    for r in range(i):
        for c in range(i):
            node = r * i + c
            if c + 1 < i:
                links.append(Link(node, node + 1, _draw_weight(rng)))
            if r + 1 < i:
                links.append(Link(node, node + i, _draw_weight(rng)))
    return Topology(n, links)


def waxman_attempt(
    n: int, rng: random.Random
) -> tuple[list[tuple[float, float]], dict[tuple[int, int], float], list[Link]]:
    """One raw Waxman sample: uniform positions in the unit square, pair
    (u,v) linked with probability 0.5·exp(−d(u,v)/(0.5·a)) where a is the
    maximum pairwise distance; link weight = Euclidean distance.  Returns
    (positions, all pairwise distances, links) so acceptance statistics can
    be checked against the decay formula."""
    pos = [(rng.random(), rng.random()) for _ in range(n)]
    dist: dict[tuple[int, int], float] = {}
    a = 0.0
    for u in range(n):
        for v in range(u + 1, n):
            d = math.hypot(pos[u][0] - pos[v][0], pos[u][1] - pos[v][1])
            dist[(u, v)] = d
            if d > a:
                a = d
    links = []
    for u in range(n):
        for v in range(u + 1, n):
            d = dist[(u, v)]
            if rng.random() < 0.5 * math.exp(-d / (0.5 * a)):
                links.append(Link(u, v, d))
    return pos, dist, links


def generate_waxman(
    n: int, seed: int, retry_budget: int = DEFAULT_RETRY_BUDGET
) -> Topology:
    """Waxman graph (see :func:`waxman_attempt`), retried until two-connected."""
    check_node_count(n)
    rng = random.Random(seed)
    for _ in range(retry_budget):
        _pos, _dist, links = waxman_attempt(n, rng)
        t = Topology(n, links)
        if is_two_connected(t):
            return t
    raise GenerationError(
        f"no two-connected Waxman sample in {retry_budget} attempts (n={n}, seed={seed})"
    )


def unit_weights(t: Topology) -> Topology:
    """Copy of ``t`` with every link weight set to 1.0 (hop-count mode)."""
    return Topology(t.n, [Link(l.u, l.v, 1.0) for l in t.links])


def loads_topology(text: str) -> Topology:
    """Parse the edge-list format (see :func:`save_topology`)."""
    n: Optional[int] = None
    links: list[Link] = []
    seen: set[tuple[int, int]] = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if n is None:
            try:
                n = int(line)
            except ValueError:
                raise TopologyFormatError(line_no, f"expected node count, got {line!r}")
            if n < 0:
                raise TopologyFormatError(line_no, "node count must be non-negative")
            continue
        parts = line.split()
        if len(parts) != 3:
            raise TopologyFormatError(line_no, f"expected 'u v weight', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
            w = float(parts[2])
        except ValueError:
            raise TopologyFormatError(line_no, f"expected 'u v weight', got {line!r}")
        if not (0 <= u < n and 0 <= v < n):
            raise TopologyFormatError(line_no, f"node id out of range [0,{n})")
        try:
            link = Link(u, v, w)
        except ValueError as exc:
            raise TopologyFormatError(line_no, str(exc))
        if link.pair in seen:
            raise TopologyFormatError(line_no, f"duplicate link {link.u}-{link.v}")
        seen.add(link.pair)
        links.append(link)
    if n is None:
        raise TopologyFormatError(1, "empty file: missing node count")
    return Topology(n, links)


def load_topology(path) -> Topology:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_topology(fh.read())


def dumps_topology(t: Topology) -> str:
    lines = [f"{t.n}"]
    for link in t.links:
        lines.append(f"{link.u} {link.v} {link.weight!r}")
    return "\n".join(lines) + "\n"


def save_topology(t: Topology, path) -> None:
    """Write the edge-list format: node count, then one 'u v weight' line per
    undirected link; '#' starts a comment.  ``load(save(t)) == t``."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dumps_topology(t))
