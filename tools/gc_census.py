"""Where Python's cyclic garbage collector spends its time in a benchmark workload.

    python3 tools/gc_census.py --workload compute-query --seed 1

Run it from the root of a source checkout.  It generates the workload's
topologies with ``perfbench/workloads.py`` and runs two passes over them in
this process, as ``perfbench/run.py`` does (the first pass with its
delivery checks).  A ``gc.callbacks`` hook times every collection and
charges it to the timed operation open at the time, by kind (``build``,
``serialise``, ``query``, ``measure``), or to ``untimed`` for the checks
and reference simulations between operations.  Per pass and kind it
prints, as one JSON object, the collector's time (``gc_s``), its
collections by generation (``collections``) and, for timed kinds, the
operations' wall time (``ops_s``).

The benchmark's tracer cannot show this cost: a collection lands in
whichever span happens to be open when an allocation triggers it.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PASSES = 2
UNTIMED = "untimed"


class Census:
    """Collector time and collections per operation kind.

    ``workloads.Recorder`` calls ``begin_op`` and ``end_op`` of its
    ``tracer`` around every timed operation, which is how the census knows
    the open kind.
    """

    def __init__(self) -> None:
        self.kind = UNTIMED
        self.kinds: dict[str, dict] = {}
        self._op_start = 0
        self._gc_start = 0

    def _entry(self, kind: str) -> dict:
        return self.kinds.setdefault(kind, {"gc_s": 0.0, "collections": [0, 0, 0]})

    def begin_op(self, kind: str) -> None:
        self.kind = kind
        self._op_start = time.perf_counter_ns()

    def end_op(self) -> None:
        entry = self._entry(self.kind)
        entry["ops_s"] = entry.get("ops_s", 0.0) + (time.perf_counter_ns() - self._op_start) / 1e9
        self.kind = UNTIMED

    def on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter_ns()
            return
        entry = self._entry(self.kind)
        entry["gc_s"] += (time.perf_counter_ns() - self._gc_start) / 1e9
        entry["collections"][info["generation"]] += 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]
    import workloads

    if args.workload not in workloads.PLANS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.PLANS)}", file=sys.stderr)
        return 2
    plan = workloads.PLANS[args.workload]
    items = workloads.generate(plan, args.seed)
    query_cache: dict = {}
    passes = []
    failed = False
    for index in range(PASSES):
        rec = workloads.Recorder(args.workload)
        census = rec.tracer = Census()
        gc.callbacks.append(census.on_gc)
        try:
            workloads.run_pass(plan, items, args.seed, rec, query_cache, index == 0)
        finally:
            gc.callbacks.remove(census.on_gc)
        for failure in rec.failures:
            print(f"FAILED {failure}", file=sys.stderr)
        failed = failed or bool(rec.failures)
        passes.append(census.kinds)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "passes": passes},
                     indent=1, sort_keys=True))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
