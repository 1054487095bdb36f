"""Record the result digests that benchmark runs are checked against.

    python3 perfbench/record_digests.py --seeds 0-39
    python3 perfbench/record_digests.py --seeds 0-39 --workloads evaluate-er,compute-query
    python3 perfbench/record_digests.py --tiny --seeds 1

Run it only on a commit whose results are known to be right: every later run
of the same workload and seed must reproduce the digest recorded here, or
its operations count as failed.  Runs two benchmark processes at a time.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DIGESTS = BENCH_DIR / "digests.json"
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import selftest  # noqa: E402
import workloads  # noqa: E402


def _digest(workload: str, seed: int, tiny: bool) -> str:
    if tiny:
        code, detail, _result, stderr = selftest.run_tiny(workload, seed, 0)
    else:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", "0", "--trace", "0"],
            capture_output=True, text=True, cwd=ROOT, timeout=600,
        )
        code, stderr = proc.returncode, proc.stderr
        detail = dict(line.split(" ", 1) for line in proc.stdout.splitlines()[:-1] if " " in line)
    if code != 0 or detail.get("digest_status") != "unrecorded":
        raise RuntimeError(f"{workload} seed {seed}: exit {code}\n{stderr[-2000:]}")
    return detail["digest"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="first-last, inclusive")
    parser.add_argument("--tiny", action="store_true", help="the self-test's n≈9 plans")
    parser.add_argument("--workloads", help="comma-separated; default all")
    args = parser.parse_args()
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    plans = workloads.TINY_PLANS if args.tiny else workloads.PLANS
    names = args.workloads.split(",") if args.workloads else list(plans)
    table = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
    # Entries of plans that no longer exist can never match again.
    current = {f"{w}:{p.key}" for all_plans in (workloads.PLANS, workloads.TINY_PLANS)
               for w, p in all_plans.items()}
    table = {key: entries for key, entries in table.items() if key in current}
    jobs = [(w, s) for w in names for s in seeds]
    # Entries being recorded are dropped first, so that the runs compute
    # their digest without comparing it to a stale one.
    for workload, seed in jobs:
        table.get(f"{workload}:{plans[workload].key}", {}).pop(str(seed), None)
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    with ThreadPoolExecutor(max_workers=2) as pool:
        digests = list(pool.map(lambda job: _digest(*job, args.tiny), jobs))
    for (workload, seed), digest in zip(jobs, digests):
        table.setdefault(f"{workload}:{plans[workload].key}", {})[str(seed)] = digest
    for entries in table.values():
        entries_sorted = dict(sorted(entries.items(), key=lambda kv: int(kv[0])))
        entries.clear()
        entries.update(entries_sorted)
    DIGESTS.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    print(f"recorded {len(jobs)} digests in {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
