"""Self-test of the benchmark on n≈9 versions of its workloads.

    python3 perfbench/selftest.py

For each workload it runs the benchmark twice untraced and twice traced.
Every run must pass its checks and match the recorded digest; the two runs
of a kind must give the same digest and the same per-layer counts; and the
metric names and units must be the ones ``BENCHMARK.json`` declares.  Then
it injects two wrong results into the library's output, and the benchmark
must exit non-zero on each.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SECONDS = "0.2"
UNRECORDED_SEED = 2

# Runs the benchmark on the tiny plans, after applying an optional fault.
_CHILD = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import run
from failover import metrics, rules
FAULT = sys.argv[3]
original = metrics.build_variant

def corrupted(t, variant, optimized=True):
    fw = original(t, variant, optimized)
    node = 0
    match = sorted(fw.tables[node], key=rules.Match.sort_key)[0]
    if FAULT == "non-incident-output":
        far = next(l for l in t.links if node not in (l.u, l.v))
        fw.tables[node][match] = rules.Output(far)
    elif FAULT == "missing-rule":
        del fw.tables[node][match]
    return fw

if FAULT != "none":
    metrics.build_variant = corrupted
sys.exit(run.main(sys.argv[4:], tiny=True))
"""


def run_tiny(workload: str, seed: int, trace: int, fault: str = "none"):
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", SECONDS,
            "--trace", str(trace)]
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, str(BENCH_DIR), str(ROOT / "src"), fault, *argv],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    detail = dict(line.split(" ", 1) for line in lines[:-1] if " " in line)
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, detail, result, proc.stderr


def _count_values(result: dict) -> dict:
    return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems: list[str] = []
    seed = 1
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            runs = [run_tiny(workload, seed, trace) for _ in range(2)]
            for code, detail, result, stderr in runs:
                if code != 0 or result is None or not result["correct"]:
                    problems.append(f"{workload} trace={trace}: exit {code}\n{stderr[-2000:]}")
                    continue
                if detail.get("digest_status") != "match":
                    problems.append(f"{workload} trace={trace}: digest {detail.get('digest_status')}")
                units = {k: v["unit"] for k, v in result["metrics"].items()}
                if units != declared[trace]:
                    problems.append(f"{workload} trace={trace}: metrics {units} "
                                    f"differ from BENCHMARK.json {declared[trace]}")
            if any(r[2] is None for r in runs):
                continue
            if runs[0][1]["digest"] != runs[1][1]["digest"]:
                problems.append(f"{workload} trace={trace}: digests differ between runs")
            if trace and _count_values(runs[0][2]) != _count_values(runs[1][2]):
                problems.append(f"{workload}: per-layer counts differ between runs")
            print(f"ok {workload} trace={trace}")
        # Faults are injected under a seed with no recorded digest, so that
        # the checks alone must catch them.
        for fault in ("non-incident-output", "missing-rule"):
            code, detail, result, _ = run_tiny(workload, UNRECORDED_SEED, 0, fault)
            if code == 0 or (result is not None and result["correct"]):
                problems.append(f"{workload}: injected {fault} was not detected")
            else:
                print(f"ok {workload} detects {fault} (exit {code})")
    for problem in problems:
        print(f"PROBLEM {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
