"""CPU time of one library layer on a benchmark workload, two source trees side by side.

    python3 tools/layer_ab.py --parent ../parent --change . --op measure --workload protect-lattice

``--parent`` and ``--change`` are roots of source checkouts (make the parent
one with ``git archive``).  Each run is a fresh process in one tree.  It
generates the workload's topologies with that tree's
``perfbench/workloads.py`` (imported, never changed) and times, with
``time.process_time``, every call of the chosen operation on them:
``metrics.build_variant`` (``--op build``) or ``metrics.measure`` of the
matrices built untimed before it (``--op measure``).  Each topology is a
fresh object whose shared shortest-path trees are computed before its first
variant, so no variant's time carries them; ``--op build`` times that call
as its own row, ``trees``.  A run keeps each row's smallest time over
``REPEATS`` passes, summed over the topologies.

Runs come in ``PAIRS`` pairs, the side that goes first alternating from
pair to pair.  The tool prints, per row and for their sum, each side's
median CPU seconds, the ratio change/parent of the medians, the parent's
own spread across its runs (its interquartile range over its median: a
ratio closer to 1 than that is noise, not a move) and the number of pairs
in which the change was faster (ties count for neither side), and last one
JSON line with the same figures and the parent's quartiles.  CPU time is
blind to what other processes on the machine do to wall time, so it is the
second witness for a per-layer move that the traced wall-time spans of
``perfbench/run.py`` cannot settle alone.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

OPS = ("build", "measure")
PAIRS = 5
REPEATS = 2  # passes per run; each row keeps its fastest

# Runs in a fresh process in the root of a source tree; argv: workload,
# seed, op, repeats.  Prints one JSON object {row: seconds}.
CHILD = r"""
import json, sys, time
sys.path[:0] = ["perfbench", "src"]
import workloads
from failover import metrics
from failover.topology import Topology

workload, seed, op, repeats = sys.argv[1], int(sys.argv[2]), sys.argv[3], int(sys.argv[4])
plan = workloads.PLANS[workload]
items = workloads.generate(plan, seed)
network = workloads._GENERATORS[plan.generator][0]
rows = (("trees",) if op == "build" else ()) + plan.variants
best = {}
for _ in range(repeats):
    spent = dict.fromkeys(rows, 0.0)
    for item in items:
        t = Topology(item.topology.n, item.topology.links)
        start = time.process_time()
        t.shortest_paths()
        if op == "build":
            spent["trees"] += time.process_time() - start
        for variant in plan.variants:
            start = time.process_time()
            fw = metrics.build_variant(t, variant)
            if op == "measure":
                start = time.process_time()
                metrics.measure(fw, t, network)
            spent[variant] += time.process_time() - start
    for row, seconds in spent.items():
        best[row] = min(best.get(row, seconds), seconds)
print(json.dumps(best))
"""


def run_once(root: Path, workload: str, seed: int, op: str) -> dict[str, float]:
    done = subprocess.run([sys.executable, "-c", CHILD, workload, str(seed), op, str(REPEATS)],
                          cwd=root, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"run in {root} failed with exit code {done.returncode}:\n"
                           f"{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def summarise(runs: dict[str, list[dict[str, float]]]) -> dict[str, dict]:
    """Per row and for ``total``: each side's median, the ratio of the
    medians, the parent's quartiles and spread, and the pairs the change
    won."""
    for side in runs.values():
        for run in side:
            run["total"] = sum(run.values())
    summary = {}
    for name in runs["parent"][0]:
        parent = [run[name] for run in runs["parent"]]
        change = [run[name] for run in runs["change"]]
        q1, _, q3 = statistics.quantiles(parent, n=4)
        median = statistics.median(parent)
        summary[name] = {
            "parent_s": median,
            "change_s": statistics.median(change),
            "ratio": statistics.median(change) / median,
            "parent_quartiles": [q1, q3],
            "parent_spread": (q3 - q1) / median,
            "change_wins": sum(c < p for p, c in zip(parent, change)),
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--op", choices=OPS, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs: dict[str, list[dict[str, float]]] = {"parent": [], "change": []}
    for index in range(PAIRS):
        order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(roots[side], args.workload, args.seed, args.op))
            print(f"pair {index + 1} {side} total={sum(runs[side][-1].values()):.3f} s",
                  file=sys.stderr, flush=True)
    summary = summarise(runs)
    print(f"{args.op} on {args.workload} seed {args.seed}: CPU s, median of {PAIRS} pairs")
    print(f"{'row':<14} {'parent':>8} {'change':>8} {'ratio':>7} {'spread':>7} {'wins':>6}")
    for name, row in summary.items():
        print(f"{name:<14} {row['parent_s']:8.3f} {row['change_s']:8.3f} {row['ratio']:7.3f} "
              f"{row['parent_spread']:7.3f} {row['change_wins']:>3}/{PAIRS}")
    print(json.dumps({"op": args.op, "workload": args.workload, "seed": args.seed,
                      "summary": summary, "runs": runs}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
