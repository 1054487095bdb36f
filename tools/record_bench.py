"""Run the benchmark on two source trees and record both sides in one file.

    python3 tools/record_bench.py --parent ../parent --change . --out BENCH_15.json

``--parent`` and ``--change`` are roots of source checkouts (make the parent
one with ``git archive``).  The workloads and the run length are those that
``BENCHMARK.json`` in the change tree declares.  For every workload and
seeds 1-5, ``perfbench/run.py --trace 0`` runs in both trees, the side that
goes first alternating from seed to seed; then ``--trace 1`` runs once per
workload and tree, at seed 1.  The file keeps each run's last line of
standard output (the result object) with its exit code and digest status.
Per workload it also keeps, over the untraced runs, each end-to-end
metric's median and quartiles ``[q1, median, q3]`` per side, and the number
of seeds at which the change beats the parent on that metric (ties count for
neither side).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SEEDS = [1, 2, 3, 4, 5]


def _strict(token: str):
    raise ValueError(f"non-finite number {token} in a result line")


def run_once(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run in ``root``: its result line and how it ended."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=root, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    status = next((line.split()[1] for line in lines if line.startswith("digest_status ")), None)
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "exit_code": done.returncode,
        "digest_status": status,
        "result": json.loads(lines[-1], parse_constant=_strict) if lines else None,
    }


def _values(runs: list[dict]) -> dict[str, list[float]]:
    """Each end-to-end metric's values over the untraced runs of one side."""
    values: dict[str, list[float]] = {}
    for run in runs:
        if run["trace"] == 0 and run["result"]:
            for name, metric in run["result"]["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
    return values


def medians(runs: list[dict]) -> dict:
    """Median of each end-to-end metric over the untraced runs of one side."""
    return {name: statistics.median(v) for name, v in _values(runs).items()}


def quartiles(runs: list[dict]) -> dict:
    """``[q1, median, q3]`` of each end-to-end metric over the untraced runs
    of one side."""
    return {name: statistics.quantiles(v, n=4, method="inclusive")
            for name, v in _values(runs).items()}


def wins(parent: list[dict], change: list[dict], lower_is_better: dict[str, bool]) -> dict:
    """Per end-to-end metric, the seeds at which the untraced change run
    beats the untraced parent run; a tie counts for neither."""
    def by_seed(runs):
        return {run["seed"]: run["result"]["metrics"] for run in runs
                if run["trace"] == 0 and run["result"]}

    before, after = by_seed(parent), by_seed(change)
    seeds = sorted(before.keys() & after.keys())
    counts = {}
    for name, lower in lower_is_better.items():
        gains = [before[s][name]["value"] - after[s][name]["value"] for s in seeds]
        counts[name] = sum(gain > 0 if lower else gain < 0 for gain in gains)
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((roots["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [workload["name"] for workload in bench["workloads"]]
    lower_is_better = {metric["name"]: metric["better"] == "lower" for metric in bench["end_to_end"]}
    seconds = bench["run_seconds"]

    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for workload in workloads:
        for index, seed in enumerate(SEEDS):
            order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
            for side in order:
                run = run_once(roots[side], workload, seed, seconds, 0)
                runs[side].append(run)
                print(f"{side} {workload} seed={seed} exit={run['exit_code']} "
                      f"digest={run['digest_status']}", file=sys.stderr, flush=True)
    for workload in workloads:
        for side in ("parent", "change"):
            run = run_once(roots[side], workload, SEEDS[0], seconds, 1)
            runs[side].append(run)
            print(f"{side} {workload} traced exit={run['exit_code']}", file=sys.stderr, flush=True)

    def of(side: str, workload: str) -> list[dict]:
        return [r for r in runs[side] if r["workload"] == workload]

    record = {
        "command": "perfbench/run.py --workload W --seed S "
                   f"--seconds {seconds:g} --trace T",
        "seeds": SEEDS,
        "medians": {workload: {side: medians(of(side, workload)) for side in runs}
                    for workload in workloads},
        "quartiles": {workload: {side: quartiles(of(side, workload)) for side in runs}
                      for workload in workloads},
        "change_wins": {workload: wins(of("parent", workload), of("change", workload),
                                       lower_is_better)
                        for workload in workloads},
        "runs": runs,
    }
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0 if all(r["exit_code"] == 0 for side in runs.values() for r in side) else 1


if __name__ == "__main__":
    sys.exit(main())
