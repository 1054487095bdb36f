"""Run the benchmark on two source trees and record both sides in one file.

    python3 tools/record_bench.py --parent ../parent --change . --out BENCH_15.json

``--parent`` and ``--change`` are roots of source checkouts (make the parent
one with ``git archive``).  The workloads and the run length are those that
``BENCHMARK.json`` in the change tree declares.  For every workload and
seeds 1-10, ``perfbench/run.py --trace 0`` runs in both trees, the side that
goes first alternating from seed to seed, so one recording holds ten
alternating pairs; then ``--trace 1`` runs ``REPEATS`` times per workload
and tree at seed 1, again alternating sides.  The file keeps each run's last
line of standard output (the result object) with its exit code and digest
status.  Per workload it also keeps, over the untraced runs, each end-to-end
metric's median and quartiles ``[q1, median, q3]`` per side, the number of
seeds at which the change beats the parent on that metric (ties count for
neither side), and over the traced runs each metric's median per side.

Last, each tree runs the two end-to-end numbers ``REPEATS`` times, each run
in a fresh process and the side that goes first alternating: the preset
``failover evaluate --generator er --sizes 9,16,25,36,49 --runs 5 --seed 7
--jobs 1``, whose CSV must hash to ``PRESET_CSV_SHA256``, and the desk run
(``run_experiment`` on ER n=25, 100 runs, seed 7).  Each is timed in wall
seconds and in reference seconds, with ``perfbench/reference.py`` kernels
run just before and just after it; the file keeps every run, and per side
the median and the spread ``[min, max]`` of both times.  Every desk run's
JSON report, without ``compute_seconds``, must hash the same on both sides.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SEEDS = list(range(1, 11))
REPEATS = 3  # traced passes and end-to-end runs per side
PRESET_CSV_SHA256 = "617bce60fca6069882723ba815e60cbb9577b4d2799b21148d00bd11dfccec51"

# Runs in a fresh process in the root of a source tree; argv[1] is "preset"
# or "desk", argv[2] a scratch file.  Prints one JSON line last.
END_TO_END = r"""
import hashlib, json, sys, time
sys.path[:0] = ["src", "perfbench"]
import reference
from failover.cli import main
from failover.metrics import ExperimentConfig, run_experiment

def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()

which, scratch = sys.argv[1], sys.argv[2]
before = reference.sample_ns()
start = time.perf_counter_ns()
if which == "preset":
    code = main(["evaluate", "--generator", "er", "--sizes", "9,16,25,36,49", "--runs", "5",
                 "--seed", "7", "--jobs", "1", "--csv", scratch])
    elapsed = time.perf_counter_ns() - start
    with open(scratch, encoding="utf-8") as fh:
        digest = sha256(fh.read())
else:
    report = run_experiment(ExperimentConfig(generator="er", sizes=(25,), runs=100, seed=7))
    elapsed = time.perf_counter_ns() - start
    code = 0
    data = report.to_json()
    for row in data["aggregates"] + data["runs"]:
        del row["compute_seconds"]
    digest = sha256(json.dumps(data, sort_keys=True))
around = before + reference.sample_ns()
print(json.dumps({"exit_code": code, "wall_s": elapsed / 1e9,
                  "reference_s": reference.to_reference_s(elapsed, around),
                  "sha256": digest}))
"""


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


def run_end_to_end(root: Path, which: str) -> dict:
    """One end-to-end run (``preset`` or ``desk``) in a fresh process in
    ``root``: exit code, wall and reference seconds, and its result hash."""
    with tempfile.TemporaryDirectory() as scratch:
        done = subprocess.run([sys.executable, "-c", END_TO_END, which,
                               str(Path(scratch) / "out.csv")],
                              cwd=root, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1]) if done.returncode == 0 and lines else {}
    return {"exit_code": done.returncode, **result}


def _values(runs: list[dict], trace: int = 0) -> dict[str, list[float]]:
    """Each metric's values over the runs of one side with ``--trace``
    ``trace``; a null value (a ratio with nothing to divide) is left out."""
    values: dict[str, list[float]] = {}
    for run in runs:
        if run["trace"] == trace and run["result"]:
            for name, metric in run["result"]["metrics"].items():
                values.setdefault(name, [])
                if metric["value"] is not None:
                    values[name].append(metric["value"])
    return values


def medians(runs: list[dict], trace: int = 0) -> dict:
    """Median of each metric over the runs of one side with ``--trace``
    ``trace``, or None where no run has a value."""
    return {name: statistics.median(v) if v else None
            for name, v in _values(runs, trace).items()}


def quartiles(runs: list[dict]) -> dict:
    """``[q1, median, q3]`` of each end-to-end metric over the untraced runs
    of one side."""
    return {name: statistics.quantiles(v, n=4, method="inclusive")
            for name, v in _values(runs).items()}


def spread(done: list[dict]) -> dict:
    """Median and ``[min, max]`` of the wall and reference seconds of one
    side's runs of one end-to-end number."""
    summary = {}
    for unit in ("wall_s", "reference_s"):
        values = [run[unit] for run in done if unit in run]
        if values:
            summary[unit] = {"median": statistics.median(values),
                             "spread": [min(values), max(values)]}
    return summary


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
        for repeat in range(REPEATS):
            order = ("parent", "change") if repeat % 2 == 0 else ("change", "parent")
            for side in order:
                run = run_once(roots[side], workload, SEEDS[0], seconds, 1)
                runs[side].append(run)
                print(f"{side} {workload} traced exit={run['exit_code']}",
                      file=sys.stderr, flush=True)

    ends = ("preset", "desk")
    end_to_end: dict[str, dict[str, list[dict]]] = {
        side: {which: [] for which in ends} for side in runs}
    for repeat in range(REPEATS):
        for index, which in enumerate(ends):
            order = ("parent", "change") if (repeat + index) % 2 == 0 else ("change", "parent")
            for side in order:
                run = run_end_to_end(roots[side], which)
                end_to_end[side][which].append(run)
                print(f"{side} {which} exit={run['exit_code']} wall_s={run.get('wall_s')}",
                      file=sys.stderr, flush=True)
    every = [run for side in end_to_end.values() for done in side.values() for run in done]
    end_to_end_ok = (
        all(run["exit_code"] == 0 for run in every)
        and all(run.get("sha256") == PRESET_CSV_SHA256
                for side in end_to_end.values() for run in side["preset"])
        and len({run.get("sha256") for side in end_to_end.values() for run in side["desk"]}) == 1
    )

    def of(side: str, workload: str) -> list[dict]:
        return [r for r in runs[side] if r["workload"] == workload]

    record = {
        "command": "perfbench/run.py --workload W --seed S "
                   f"--seconds {seconds:g} --trace T",
        "seeds": SEEDS,
        "repeats": REPEATS,
        "medians": {workload: {side: medians(of(side, workload)) for side in runs}
                    for workload in workloads},
        "traced_medians": {workload: {side: medians(of(side, workload), 1) for side in runs}
                           for workload in workloads},
        "quartiles": {workload: {side: quartiles(of(side, workload)) for side in runs}
                      for workload in workloads},
        "change_wins": {workload: wins(of("parent", workload), of("change", workload),
                                       lower_is_better)
                        for workload in workloads},
        "runs": runs,
        "end_to_end": end_to_end,
        "end_to_end_summary": {side: {which: spread(done) for which, done in by_end.items()}
                               for side, by_end in end_to_end.items()},
        "end_to_end_ok": end_to_end_ok,
    }
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    ok = end_to_end_ok and all(r["exit_code"] == 0 for side in runs.values() for r in side)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
