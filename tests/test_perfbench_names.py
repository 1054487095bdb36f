"""The traced benchmark run finds every library name it wraps."""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def test_tracer_finds_every_wrapped_name(monkeypatch):
    # A refactor that drops or renames a traced entry point turns that
    # layer's benchmark metrics into null; catch it here instead.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.absent == []
    finally:
        tracer.uninstall()


@pytest.mark.parametrize("workload", ["evaluate-er", "protect-lattice", "compute-query"])
def test_traced_pass_gives_a_number_for_every_layer_metric(workload, monkeypatch):
    # A name can be present and still go unused: if ``measure`` stopped
    # calling ``failover.metrics.simulate``, the dataplane metrics of a
    # traced run would read null although every wrapper installed.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import workloads

    plan = workloads.TINY_PLANS[workload]
    seed = 1
    items = workloads.generate(plan, seed)
    rec = workloads.Recorder(workload)
    rec.tracer = tracer = tracing.Tracer()
    tracer.install()
    queries: dict = {}
    try:
        summaries = []
        for first in (True, False):
            mark = tracer.mark()
            workloads.run_pass(plan, items, seed, rec, queries, first)
            summaries.append(tracer.summary(mark))
    finally:
        tracer.uninstall()
    assert rec.failures == []
    # Each pass computes every topology's full trees once, on its fresh
    # object, inside a timed call: not in an untimed check, and not carried
    # over from the pass before.
    for summary in summaries:
        assert tracing.layer_metrics(tracer, summary)["spf.full_trees"] == sum(
            item.topology.n for item in items)

    values = tracing.layer_metrics(tracer, summaries[0])
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    names = [metric["name"] for metric in declared if metric["name"] in values]
    assert "dataplane.us_per_hop" in names
    not_finite = {
        name: values[name] for name in names
        if not (isinstance(values[name], (int, float)) and math.isfinite(values[name]))
    }
    assert not_finite == {}
    # Both stay finite when ``build_variant`` bypasses the traced builder
    # names, at zero: check what the pass must have counted and spent.
    budget = sum(workloads.sp_budget(item.topology, variant)
                 for item in items for variant in plan.variants
                 if variant in workloads.PROTECTION)
    assert values["spf.sp_invocations"] == budget
    assert values["protect.build_self_s"] > 0
