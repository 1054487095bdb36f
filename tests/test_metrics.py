"""Metrics computation and the experiment harness."""

from __future__ import annotations

import math
from statistics import fmean

import pytest

from failover.dataplane import simulate
from failover.metrics import (
    ALL_VARIANTS,
    CSV_HEADER,
    ExperimentConfig,
    build_variant,
    measure,
    run_experiment,
)
from failover.protect import hybrid_rules, per_link_rules
from failover.spf import all_shortest_trees
from failover.topology import FailureScenario, generate_erdos_renyi

from oracles import DetourOracle, all_to_all, path_weight


class TestMeasure:
    def test_k3_shortest_only_matrix(self, unit_triangle):
        fw, _ = all_to_all(unit_triangle)
        row = measure(fw, unit_triangle)
        assert row.flow_entries == 6
        assert row.primary_ratio == 1.0
        assert row.base_entries == 6 and row.extra_entries == 0

    def test_square_per_link_primary_ratio_exact(self, unit_square):
        fw = per_link_rules(unit_square)
        row = measure(fw, unit_square)
        assert row.primary_ratio == 1.0

    def test_square_pair_level_backup_ratio(self, unit_square):
        # Pair (0,2): LinkDown(0,1) detours 0-3-2 (ratio 1), LinkDown(1,2)
        # delivers 0-1-0-3-2 (ratio 2); the per-pair mean is 1.5.
        fw = per_link_rules(unit_square)
        oracle_dist = all_shortest_trees(unit_square)[0].dist[2]
        ratios = []
        for scenario in (FailureScenario.link_down(0, 1), FailureScenario.link_down(1, 2)):
            trace = simulate(fw, unit_square, scenario, 0, 2)
            assert trace.delivered
            ratios.append(trace.total_weight / oracle_dist)
        assert sorted(ratios) == [1.0, 2.0]
        assert fmean(ratios) == 1.5

    def test_square_backup_average_matches_hand_computation(self, unit_square):
        # Independently recompute the aggregated backup mean from the detour
        # oracle and compare against measure().
        t = unit_square
        fw = per_link_rules(t)
        row = measure(fw, t)
        oracle = DetourOracle(t)
        per_pair_means = []
        for s in t.nodes:
            for d in t.nodes:
                if s == d:
                    continue
                prim = oracle.primary(s, d)
                dist = path_weight(t, prim)
                ratios = []
                for a, b in zip(prim, prim[1:]):
                    link = t.link_between(a, b)
                    seq = oracle.per_link(link, s, d)
                    assert seq is not None
                    ratios.append(path_weight(t, seq) / dist)
                per_pair_means.append(fmean(ratios))
        assert row.backup_avg == pytest.approx(fmean(per_pair_means), rel=1e-12)

    def test_count_identities(self, corpus):
        for _name, t in corpus[:9]:
            for variant in ALL_VARIANTS:
                fw = build_variant(t, variant)
                row = measure(fw, t)
                assert row.group_fwd_entries <= row.flow_entries
                assert row.distinct_groups <= row.group_fwd_entries

    def test_hybrid_equals_per_link_under_link_failures(self, corpus):
        for _name, t in corpus[:9]:
            fwh = hybrid_rules(t)
            fwl = per_link_rules(t)
            for link in t.links:
                scenario = FailureScenario.link_down(link.u, link.v)
                for s in t.nodes:
                    for d in t.nodes:
                        if s == d:
                            continue
                        a = simulate(fwh, t, scenario, s, d)
                        b = simulate(fwl, t, scenario, s, d)
                        assert a.delivered == b.delivered
                        if a.delivered:
                            assert a.total_weight == b.total_weight
                            assert a.node_sequence == b.node_sequence

    def test_path_ratios_at_least_one(self):
        t = generate_erdos_renyi(10, 2)
        for variant in ALL_VARIANTS:
            fw = build_variant(t, variant)
            row = measure(fw, t)
            assert row.primary_ratio >= 1.0
            assert row.backup_avg >= 1.0
            assert row.crankback_avg >= 0.0
            assert row.loop_traces == 0


class TestRunExperiment:
    def test_deterministic_csv(self):
        config = ExperimentConfig(generator="lattice", sizes=(9,), runs=2, seed=5)
        a = run_experiment(config).to_csv()
        b = run_experiment(config).to_csv()
        assert a == b
        assert a.splitlines()[0] == CSV_HEADER

    def test_row_counts(self):
        config = ExperimentConfig(
            generator="er", sizes=(9,), runs=3, seed=1, variants=("per-link", "disjoint-link")
        )
        report = run_experiment(config)
        assert len(report.rows) == 3 * 2
        assert len(report.aggregates) == 2
        assert report.notes == []

    def test_failure_disjoint_beats_fully_disjoint_direction(self):
        config = ExperimentConfig(generator="er", sizes=(16,), runs=5, seed=3)
        report = run_experiment(config)
        rows = {r.variant: r for r in report.aggregates}
        assert rows["per-link"].flow_entries < rows["disjoint-link"].flow_entries
        assert rows["per-link"].backup_avg < rows["disjoint-link"].backup_avg
        assert rows["per-link"].crankback_avg < rows["disjoint-link"].crankback_avg

    def test_unweighted_mode(self):
        config = ExperimentConfig(
            generator="lattice", sizes=(9,), runs=1, seed=0,
            variants=("per-link",), unweighted=True,
        )
        report = run_experiment(config)
        row = report.aggregates[0]
        # hop-count mode: every ratio is a ratio of integer hop counts
        assert row.primary_ratio == 1.0

    def test_json_report_round_trips(self):
        config = ExperimentConfig(generator="er", sizes=(9,), runs=1, seed=9,
                                  variants=("per-node",))
        report = run_experiment(config)
        data = report.to_json()
        assert data["config"]["seed"] == 9
        assert len(data["aggregates"]) == 1
        assert data["aggregates"][0]["variant"] == "per-node"
        assert not math.isnan(data["aggregates"][0]["backup_avg"])


def test_unknown_variant_rejected(unit_square):
    with pytest.raises(ValueError):
        build_variant(unit_square, "fancy")


def test_unknown_generator_rejected():
    with pytest.raises(ValueError):
        ExperimentConfig(generator="scale-free").network_name()


def test_five_runs_collapse_to_five_aggregate_rows():
    config = ExperimentConfig(generator="er", sizes=(9,), runs=5, seed=11)
    report = run_experiment(config)
    assert len(report.rows) == 5 * len(ALL_VARIANTS)
    assert len(report.aggregates) == len(ALL_VARIANTS)
    assert report.to_csv() == run_experiment(config).to_csv()


def test_parallel_jobs_match_sequential():
    base = ExperimentConfig(generator="lattice", sizes=(9,), runs=2, seed=3,
                            variants=("per-link", "per-node"))
    parallel = ExperimentConfig(generator="lattice", sizes=(9,), runs=2, seed=3,
                                variants=("per-link", "per-node"), jobs=2)
    assert run_experiment(base).to_csv() == run_experiment(parallel).to_csv()


def test_generation_failure_is_noted_and_run_skipped(monkeypatch):
    import failover.metrics as metrics
    from failover.topology import GenerationError

    def explode(n, seed):
        raise GenerationError("no luck")

    monkeypatch.setitem(metrics._GENERATORS, "er",
                        metrics._GENERATORS["er"]._replace(make=explode))
    report = run_experiment(
        ExperimentConfig(generator="er", sizes=(9,), runs=2, seed=0, variants=("per-link",))
    )
    assert report.rows == []
    assert len(report.notes) == 2
    assert "skipped" in report.notes[0]


@pytest.mark.parametrize("jobs", [0, -2])
def test_rejects_fewer_than_one_job(jobs):
    with pytest.raises(ValueError, match="jobs"):
        run_experiment(ExperimentConfig(generator="lattice", sizes=(9,), runs=1, jobs=jobs))


@pytest.mark.parametrize("runs", [0, -3])
def test_rejects_fewer_than_one_run(runs):
    with pytest.raises(ValueError, match="runs"):
        run_experiment(ExperimentConfig(generator="er", sizes=(9,), runs=runs))


@pytest.mark.parametrize("generator,size", [("lattice", 10), ("lattice", 4), ("er", 2),
                                            ("waxman", 0)])
def test_rejects_sizes_the_generator_cannot_make(generator, size, monkeypatch):
    import failover.metrics as metrics

    def unreachable(n, seed):
        raise AssertionError("generated before the size was checked")

    monkeypatch.setitem(metrics._GENERATORS, generator,
                        metrics._GENERATORS[generator]._replace(make=unreachable))
    with pytest.raises(ValueError, match=f"size {size}"):
        run_experiment(ExperimentConfig(generator=generator, sizes=(9, size), runs=1))


def test_two_workers_give_the_rows_of_one():
    # Tasks run largest size first on two workers; the results must come
    # back in task order, so the report is that of one worker.
    def rows(jobs):
        report = run_experiment(ExperimentConfig(generator="er", sizes=(9, 16), runs=2,
                                                 seed=4, jobs=jobs))
        data = report.to_json()
        for row in data["runs"] + data["aggregates"]:
            del row["compute_seconds"]
        del data["config"]["jobs"]
        return report.to_csv(), data

    assert rows(2) == rows(1)


def test_aggregate_averages_every_float_field():
    from dataclasses import fields

    import failover.metrics as metrics
    from failover.metrics import MetricsRow

    names = [f.name for f in fields(MetricsRow)][3:]  # after network, variant, size
    rows = [MetricsRow("erdos-renyi", "per-link", 9, *[x] * len(names)) for x in (1.0, 3.0)]
    (agg,) = metrics._aggregate(rows)
    assert {name: getattr(agg, name) for name in names} == dict.fromkeys(names, 2.0)
