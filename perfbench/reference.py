"""Reference kernel: fixed pure-Python work that gauges the machine's speed.

The benchmark runs this kernel just before and just after every timed
operation and divides the operation's time by the kernel's time next to it.
On a shared machine the speed of a CPU drifts between levels up to twice
apart, for seconds or for minutes at a time, and an operation and the kernel
run next to it slow down together; their ratio does not.  Reported times are
these ratios expressed in *reference seconds*: seconds on a machine that runs
the kernel in exactly ``NOMINAL_NS``.

The kernel is a heap-based Dijkstra over a fixed random graph, written here
with the same kind of dict, tuple and heap work as the library.  It uses no
code of ``failover``, so no change to the library changes it.
"""

from __future__ import annotations

import heapq
import random
import statistics
import time

NOMINAL_NS = 1_000_000  # one reference second is the time of 1000 kernels
SAMPLES = 3  # kernel runs on each side of a timed operation


def _graph(n: int = 400, degree: int = 4, seed: int = 7) -> dict[int, list[tuple[int, int]]]:
    rng = random.Random(seed)
    adj: dict[int, list[tuple[int, int]]] = {u: [] for u in range(n)}
    for u in range(n):
        for v in rng.sample(range(n), degree):
            if v != u:
                w = rng.randint(1, 9)
                adj[u].append((v, w))
                adj[v].append((u, w))
    return adj


_GRAPH = _graph()


def kernel() -> int:
    """One shortest-path tree from node 0; returns the number of nodes reached."""
    dist = {0: 0}
    parent = {}
    heap = [(0, 0)]
    done = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        for v, w in _GRAPH[u]:
            nd = d + w
            if nd < dist.get(v, 1 << 60):
                dist[v] = nd
                parent[v] = (u, (u, v))
                heapq.heappush(heap, (nd, v))
    return len(dist)


def sample_ns(count: int = SAMPLES) -> list[int]:
    """Wall times of ``count`` kernel runs, in nanoseconds."""
    times = []
    for _ in range(count):
        start = time.perf_counter_ns()
        kernel()
        times.append(time.perf_counter_ns() - start)
    return times


def to_reference_s(elapsed_ns: int, around_ns: list[int]) -> float:
    """``elapsed_ns`` in reference seconds, given kernel times taken around it."""
    return elapsed_ns / statistics.median(around_ns) * NOMINAL_NS / 1e9
