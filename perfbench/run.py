"""Benchmark of the failover library: seeded workloads, timed from outside.

    python3 perfbench/run.py --workload evaluate-er --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; it imports ``failover`` from
``src/`` there.  See ``perfbench/README.md`` for the workloads and metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 0
only when every operation succeeded and every check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference  # from this directory, which Python puts first on sys.path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_SAMPLES = 9  # fresh set-up processes per run, taken three at a time
MIN_PASSES = 2

# Prints "ready" once imports and topology generation are done, which is
# where a run makes its first timed call; then times the reference kernel in
# the same process, on the CPU that did the set-up.
_SETUP_CHILD = """
import json, sys
sys.path[:0] = sys.argv[1:3]
import workloads
workloads.generate(workloads.Plan(**json.loads(sys.argv[3])), int(sys.argv[4]))
print("ready", flush=True)
print(json.dumps(workloads.reference.sample_ns(5)), flush=True)
"""

END_TO_END = {"setup_s": "s", "total_s": "s", "peak_rss_mib": "MiB"}


def _percentile(values: list[float], pct: int) -> float:
    """Nearest-rank percentile."""
    return sorted(values)[max(1, math.ceil(pct * len(values) / 100)) - 1]


def _latency(name: str, samples_ns: list[int]) -> dict:
    """Mean, median and tail of one operation's latency.  The tail is the
    highest whole percentile with at least 10 samples beyond it."""
    ms = [v / 1e6 for v in samples_ns]
    n = len(ms)
    tail_pct = math.floor(100 * (n - 10) / n) if n > 10 else None
    return {
        f"{name}_mean_ms": statistics.fmean(ms) if ms else None,
        f"{name}_p50_ms": _percentile(ms, 50) if ms else None,
        f"{name}_tail_ms": _percentile(ms, tail_pct) if tail_pct else None,
        f"{name}_tail_percentile": tail_pct,
        f"{name}_samples": n,
    }


def _measure_setup(workload_plan, seed: int, samples: int) -> list[tuple[int, float]]:
    """Times from process start to the end of set-up, in fresh processes that
    import the library and generate the topologies: pairs of wall
    nanoseconds and reference seconds."""
    plan_json = json.dumps(vars(workload_plan))
    times = []
    for _ in range(samples):
        start = time.perf_counter_ns()
        child = subprocess.Popen(
            [sys.executable, "-c", _SETUP_CHILD, str(BENCH_DIR), str(SRC), plan_json, str(seed)],
            stdout=subprocess.PIPE, cwd=ROOT,
        )
        try:
            line = child.stdout.readline()
            elapsed = time.perf_counter_ns() - start
            kernel_ns = child.stdout.readline()
        finally:
            child.stdout.close()
            code = child.wait()
        if code != 0 or line.strip() != b"ready":
            raise RuntimeError(f"set-up process failed with exit code {code}")
        times.append((elapsed, reference.to_reference_s(elapsed, json.loads(kernel_ns))))
    return times


def _pass_reference_s(rec, index: int) -> float:
    """Timed phase of one pass, in reference seconds."""
    return sum(s[index] for s in rec.reference_s.values() if len(s) > index)


def _load_digests() -> dict:
    path = BENCH_DIR / "digests.json"
    return json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None, tiny: bool = False) -> int:
    """Run one workload; ``tiny`` selects the self-test's n≈9 plans."""
    args = parse_args(argv)
    if not (SRC / "failover" / "__init__.py").is_file():
        print(f"error: no failover sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(BENCH_DIR), str(SRC)]
    import failover
    import tracing
    import workloads

    if Path(failover.__file__).resolve().parent != (SRC / "failover").resolve():
        print(f"error: imported failover from {failover.__file__}, not {SRC}", file=sys.stderr)
        return 2
    plans = workloads.TINY_PLANS if tiny else workloads.PLANS
    if args.workload not in plans:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(plans)}",
              file=sys.stderr)
        return 2
    plan = plans[args.workload]
    seed = args.seed

    rec = workloads.Recorder(args.workload)
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
        setup_mark = tracer.mark()
        tracer.begin_op("setup")
    items = workloads.generate(plan, seed)
    if tracer:
        tracer.end_op()
        setup_summary = tracer.summary(setup_mark)
        tracer.uninstall()

    # Passes over the same topologies go on while another pass of average
    # length fits into --seconds, and there are at least MIN_PASSES.  Every
    # pass must give the results of the first, which are hashed into the
    # result digest.  A traced run repeats the first pass with the wrappers
    # in place; they are installed only then and during set-up, so the
    # untraced passes run the library as is.
    setup_times: list[tuple[int, float]] = []
    query_cache: dict = {}
    started = time.perf_counter()
    index = 0
    while index < MIN_PASSES or (time.perf_counter() - started) * (index + 1) / index <= args.seconds:
        # Set-up samples are spread over the run, between passes.
        if len(setup_times) < SETUP_SAMPLES:
            setup_times += _measure_setup(plan, seed, 3)
        hashes = workloads.run_pass(plan, items, seed, rec, query_cache, index == 0)
        if index == 0:
            first_hashes = hashes
        elif hashes != first_hashes:
            rec.failures.append(f"{args.workload}: pass {index} differs from pass 0")
        if tracer and index == 0:
            traced = workloads.Recorder(args.workload)
            traced.tracer = tracer
            tracer.install()
            mark = tracer.mark()
            if workloads.run_pass(plan, items, seed, traced, query_cache, False) != first_hashes:
                rec.failures.append(f"{args.workload}: traced pass differs from untraced pass")
            traced_summary = tracer.summary(mark)
            tracer.uninstall()
            rec.attempted += traced.attempted
            rec.failures += traced.failures
        index += 1
    passes = index
    setup_times += _measure_setup(plan, seed, SETUP_SAMPLES - len(setup_times))
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    rec.attempted += 1
    try:
        evaluate = workloads.evaluate_digest(plan, seed)
    except Exception as exc:  # boundary: record, report the run
        rec.fail(f"run_experiment seed={seed}", exc)
        evaluate = "failed"
    digest = workloads.result_digest(first_hashes, evaluate)
    expected = _load_digests().get(f"{args.workload}:{plan.key}", {}).get(str(seed))
    digest_status = "unrecorded" if expected is None else (
        "match" if expected == digest else "mismatch")

    # An operation's wall-clock latency is its fastest pass; its time in
    # reference seconds is the median over its passes.
    best = {op: min(ns) for op, ns in rec.latency_ns.items()}
    total_s = sum(statistics.median(s) for s in rec.reference_s.values())
    pass_s = [_pass_reference_s(rec, index) for index in range(passes)]
    metrics_out = None
    if tracer:
        metrics_out = tracing.report(tracer, setup_summary, traced_summary,
                                     pass_s[0], _pass_reference_s(traced, 0))
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write_spans(OUT_DIR / f"spans-{args.workload}-seed{seed}.tsv")
    failed = min(len(rec.failures), rec.attempted)
    if digest_status == "mismatch":
        rec.failures.append(f"{args.workload} seed={seed}: digest {digest} != recorded {expected}")
        failed = rec.attempted

    detail = {
        "workload": args.workload,
        "seed": seed,
        "passes": passes,
        "pass_s": pass_s,
        "digest": digest,
        "digest_status": digest_status,
        "setup_s": statistics.median(ref for _, ref in setup_times),
        "setup_wall_s": statistics.median(ns for ns, _ in setup_times) / 1e9,
        "total_s": total_s,
        "total_wall_s": sum(best.values()) / 1e9,
        **_latency("build", [ns for op, ns in best.items() if op[0] == "build"]),
        **_latency("measure", [ns for op, ns in best.items() if op[0] == "measure"]),
        **_latency("query", [ns for op, ns in best.items() if op[0] == "query"]),
        "peak_rss_mib": peak_rss_mib,
        "failed_ratio": failed / rec.attempted,
        "absent_names": tracer.absent if tracer else None,
    }
    if metrics_out is None:
        metrics_out = {name: {"value": detail[name], "unit": unit}
                       for name, unit in END_TO_END.items()}
    for failure in rec.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    for name, value in detail.items():
        print(f"{name} {value}")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": rec.attempted, "failed": failed,
                      "metrics": metrics_out}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
