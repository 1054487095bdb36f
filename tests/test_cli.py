"""End-to-end CLI coverage: generate -> compute -> simulate -> evaluate."""

from __future__ import annotations

import json

import pytest

from failover.cli import main
from failover.metrics import CSV_HEADER, build_variant
from failover.topology import load_topology


def test_generate_compute_simulate_pipeline(tmp_path, capsys):
    topo = tmp_path / "topo.txt"
    assert main(["generate", "--kind", "lattice", "-n", "9", "--seed", "1",
                 "--out", str(topo)]) == 0
    t = load_topology(topo)
    assert t.n == 9 and len(t.links) == 12

    matrix = tmp_path / "matrix.json"
    assert main(["compute", "--topology", str(topo), "--variant", "per-link",
                 "--out", str(matrix)]) == 0
    data = json.loads(matrix.read_text())
    assert data["mode"] == "per-link"
    assert data["rules"] and data["groups"]

    capsys.readouterr()
    code = main(["simulate", "--topology", str(topo), "--matrix", str(matrix),
                 "--scenario", "link:0-1", "--src", "0", "--dst", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[-1].startswith("delivered total=")


def test_simulate_exit_code_on_drop(tmp_path, capsys):
    topo = tmp_path / "topo.txt"
    main(["generate", "--kind", "lattice", "-n", "9", "--seed", "1", "--out", str(topo)])
    matrix = tmp_path / "matrix.json"
    main(["compute", "--topology", str(topo), "--variant", "per-node", "--out", str(matrix)])
    code = main(["simulate", "--topology", str(topo), "--matrix", str(matrix),
                 "--scenario", "node:1", "--src", "0", "--dst", "1"])
    out = capsys.readouterr().out
    assert code == 1  # destination is the failed node
    # The group's second bucket is the drop installed for a failed destination.
    assert out.splitlines()[-1] == "dropped total=0.0 crankback=0.0 reason=drop rule"


def test_compute_no_optimize_keeps_more_rules(tmp_path):
    topo = tmp_path / "topo.txt"
    main(["generate", "--kind", "er", "-n", "10", "--seed", "3", "--out", str(topo)])
    raw = tmp_path / "raw.json"
    opt = tmp_path / "opt.json"
    main(["compute", "--topology", str(topo), "--variant", "per-link",
          "--no-optimize", "--out", str(raw)])
    main(["compute", "--topology", str(topo), "--variant", "per-link",
          "--out", str(opt)])
    raw_rules = len(json.loads(raw.read_text())["rules"])
    opt_rules = len(json.loads(opt.read_text())["rules"])
    assert opt_rules <= raw_rules


def test_evaluate_with_flags(tmp_path, capsys):
    csv_path = tmp_path / "out.csv"
    json_path = tmp_path / "out.json"
    code = main([
        "evaluate", "--generator", "lattice", "--sizes", "9", "--runs", "1",
        "--seed", "2", "--variants", "per-link,disjoint-link",
        "--csv", str(csv_path), "--json", str(json_path),
    ])
    capsys.readouterr()
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    report = json.loads(json_path.read_text())
    assert report["config"]["generator"] == "lattice"


def test_evaluate_with_config_file(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "# desk-scale settings\n"
        "generator=lattice\n"
        "sizes=9\n"
        "runs=1\n"
        "seed=4\n"
        "variants=per-node\n"
    )
    csv_path = tmp_path / "out.csv"
    code = main(["evaluate", "--config", str(cfg), "--csv", str(csv_path)])
    capsys.readouterr()
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1].startswith("lattice,per-node,9,")


def test_simulate_rejects_elements_not_in_topology(tmp_path, capsys):
    topo = tmp_path / "topo.txt"
    main(["generate", "--kind", "er", "-n", "9", "--seed", "1", "--out", str(topo)])
    matrix = tmp_path / "matrix.json"
    main(["compute", "--topology", str(topo), "--variant", "per-link", "--out", str(matrix)])
    t = load_topology(topo)
    absent = next(f"link:{u}-{v}" for u in t.nodes for v in t.nodes
                  if u < v and t.link_between(u, v) is None)
    for scenario, src, dst in ((absent, 0, 1), ("link:0-99", 0, 1), ("node:99", 0, 1),
                               ("none", 0, 9), ("none", 2, 2)):
        capsys.readouterr()
        code = main(["simulate", "--topology", str(topo), "--matrix", str(matrix),
                     "--scenario", scenario, "--src", str(src), "--dst", str(dst)])
        captured = capsys.readouterr()
        assert code == 2, scenario
        assert captured.out == ""
        assert captured.err.startswith("failover simulate: ")


@pytest.mark.parametrize("scenario, reason", [
    ("link:3-3", "link endpoints must differ"),
    ("link:1-2-3", "expected link:U-V"),
    ("link:a-b", "expected link:U-V"),
    ("node:x", "expected node:V"),
])
def test_simulate_names_the_problem_with_a_malformed_scenario(scenario, reason, capsys):
    with pytest.raises(SystemExit) as exited:
        main(["simulate", "--topology", "topo.txt", "--matrix", "matrix.json",
              "--scenario", scenario, "--src", "0", "--dst", "1"])
    assert exited.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == (f"failover simulate: error: argument --scenario: "
                                    f"{reason}, got {scenario!r}")


def test_compute_rejects_a_disconnected_topology_for_every_variant(tmp_path, capsys):
    topo = tmp_path / "topo.txt"
    topo.write_text("4\n0 1 1\n2 3 1\n", encoding="utf-8")
    matrix = tmp_path / "matrix.json"
    for variant in ("per-link", "per-node", "hybrid", "disjoint-link", "disjoint-node"):
        code = main(["compute", "--topology", str(topo), "--variant", variant,
                     "--out", str(matrix)])
        captured = capsys.readouterr()
        assert code == 2, variant
        assert captured.err == f"failover compute: {topo}: nodes [2, 3] unreachable from 0\n"
        assert not matrix.exists()


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_evaluate_rejects_fewer_than_one_job(jobs, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["evaluate", "--generator", "lattice", "--sizes", "9", "--runs", "1",
              "--jobs", jobs])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


def test_generate_accepts_every_harness_generator(tmp_path):
    from failover.metrics import _GENERATORS

    for kind in _GENERATORS:
        topo = tmp_path / f"{kind}.txt"
        assert main(["generate", "--kind", kind, "-n", "9", "--seed", "1",
                     "--out", str(topo)]) == 0, kind
        assert load_topology(topo).n == 9


@pytest.mark.parametrize("argv", [
    ["evaluate", "--generator", "lattice", "--sizes", "10", "--runs", "1"],
    ["evaluate", "--generator", "er", "--sizes", "9,2", "--runs", "1"],
    ["evaluate", "--generator", "er", "--sizes", "9", "--runs", "1", "--variants", "fancy"],
    ["generate", "--kind", "er", "-n", "2", "--seed", "1"],
    ["generate", "--kind", "lattice", "-n", "10", "--seed", "1"],
])
def test_invalid_sizes_and_variants_are_usage_errors(argv, tmp_path, capsys):
    out = tmp_path / "out"
    argv = argv + (["--out", str(out)] if argv[0] == "generate" else ["--csv", str(out)])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"failover {argv[0]}: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("runs", ["0", "-1"])
def test_evaluate_rejects_fewer_than_one_run(runs, tmp_path, capsys):
    csv_path = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exc:
        main(["evaluate", "--generator", "er", "--sizes", "9", "--runs", runs,
              "--csv", str(csv_path)])
    assert exc.value.code == 2
    assert "--runs" in capsys.readouterr().err
    assert not csv_path.exists()


def test_compute_writes_compact_sorted_json(tmp_path):
    topo, matrix = tmp_path / "topo.txt", tmp_path / "matrix.json"
    main(["generate", "--kind", "er", "-n", "10", "--seed", "3", "--out", str(topo)])
    main(["compute", "--topology", str(topo), "--variant", "hybrid", "--out", str(matrix)])
    fw = build_variant(load_topology(topo), "hybrid")
    assert matrix.read_text() == json.dumps(fw.to_json(), sort_keys=True) + "\n"


@pytest.mark.parametrize("line,key", [("size=9", "'size'"), ("jobs=2", "'jobs'"),
                                      ("sizes 9", "'sizes 9'")])
def test_evaluate_rejects_unknown_config_key(tmp_path, capsys, line, key):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"generator=er\n{line}\nruns=1\n")
    csv_path = tmp_path / "out.csv"
    assert main(["evaluate", "--config", str(cfg), "--csv", str(csv_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("failover evaluate: ") and f"unknown key {key}" in err
    assert not csv_path.exists()


@pytest.mark.parametrize("value", ["True", "yes", "1", ""])
def test_evaluate_rejects_unweighted_other_than_true_or_false(tmp_path, capsys, value):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"generator=er\nsizes=9\nruns=1\nunweighted={value}\n")
    csv_path = tmp_path / "out.csv"
    assert main(["evaluate", "--config", str(cfg), "--csv", str(csv_path)]) == 2
    assert capsys.readouterr().err == (
        f"failover evaluate: unweighted: expected true or false, got {value!r}\n")
    assert not csv_path.exists()


def test_evaluate_accepts_unweighted_false(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("generator=er\nsizes=9\nruns=1\nvariants=per-link\nunweighted=false\n")
    json_path = tmp_path / "out.json"
    assert main(["evaluate", "--config", str(cfg), "--json", str(json_path)]) == 0
    capsys.readouterr()
    assert json.loads(json_path.read_text())["config"]["unweighted"] is False


def test_evaluate_rejects_zero_runs_from_config_file(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("generator=er\nsizes=9\nruns=0\n")
    csv_path = tmp_path / "out.csv"
    assert main(["evaluate", "--config", str(cfg), "--csv", str(csv_path)]) == 2
    assert capsys.readouterr().err == "failover evaluate: runs must be at least 1, got 0\n"
    assert not csv_path.exists()


@pytest.mark.parametrize("other", [("er", "10", "4"), ("lattice", "9", "1")])
def test_simulate_rejects_a_matrix_of_another_topology(tmp_path, capsys, other):
    topo, other_topo = tmp_path / "topo.txt", tmp_path / "other.txt"
    main(["generate", "--kind", "er", "-n", "10", "--seed", "3", "--out", str(topo)])
    kind, nodes, seed = other
    main(["generate", "--kind", kind, "-n", nodes, "--seed", seed, "--out", str(other_topo)])
    matrix = tmp_path / "matrix.json"
    main(["compute", "--topology", str(other_topo), "--variant", "hybrid",
          "--out", str(matrix)])
    capsys.readouterr()
    code = main(["simulate", "--topology", str(topo), "--matrix", str(matrix),
                 "--src", "0", "--dst", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("failover simulate: ") and err.count("\n") == 1


@pytest.mark.parametrize("text", ["{not json", '{"mode": "per-link"}'])
def test_simulate_rejects_a_malformed_matrix(tmp_path, capsys, text):
    topo = tmp_path / "topo.txt"
    main(["generate", "--kind", "er", "-n", "10", "--seed", "3", "--out", str(topo)])
    matrix = tmp_path / "matrix.json"
    matrix.write_text(text)
    capsys.readouterr()
    code = main(["simulate", "--topology", str(topo), "--matrix", str(matrix),
                 "--src", "0", "--dst", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("failover simulate: ") and err.count("\n") == 1


def test_evaluate_passes_only_the_values_it_is_given(tmp_path, monkeypatch, capsys):
    # Defaults other than ExperimentConfig's show which values the CLI set.
    from dataclasses import dataclass

    import failover.cli as cli
    from failover.metrics import ExperimentConfig, ExperimentReport

    @dataclass
    class OtherDefaults(ExperimentConfig):
        generator: str = "lattice"
        sizes: tuple[int, ...] = (16,)
        runs: int = 2
        seed: int = 3
        variants: tuple[str, ...] = ("per-link",)

    seen = []

    def fake_run(config):
        seen.append(config)
        return ExperimentReport(config)

    monkeypatch.setattr(cli, "ExperimentConfig", OtherDefaults)
    monkeypatch.setattr(cli, "run_experiment", fake_run)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("sizes=9\nseed=4\nunweighted=true\n")
    assert main(["evaluate"]) == 0
    assert main(["evaluate", "--config", str(cfg), "--seed", "5", "--jobs", "2",
                 "--no-optimize"]) == 0
    assert main(["evaluate", "--unweighted", "--variants", "hybrid"]) == 0
    capsys.readouterr()
    assert seen == [
        OtherDefaults(),
        OtherDefaults(sizes=(9,), seed=5, unweighted=True, jobs=2, optimized=False),
        OtherDefaults(unweighted=True, variants=("hybrid",)),
    ]


@pytest.mark.parametrize("command", ["compute", "simulate"])
@pytest.mark.parametrize("problem", ["missing", "malformed"])
def test_unreadable_topology_is_one_error_line(tmp_path, capsys, command, problem):
    topo = tmp_path / "topo.txt"
    if problem == "malformed":
        topo.write_text("3\n0 1 1.0\n1 2 x\n")
        reason = "line 3: "
    else:
        reason = "No such file or directory"
    argv = {
        "compute": ["compute", "--topology", str(topo), "--variant", "per-link",
                    "--out", str(tmp_path / "matrix.json")],
        "simulate": ["simulate", "--topology", str(topo), "--matrix",
                     str(tmp_path / "matrix.json"), "--src", "0", "--dst", "1"],
    }[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"failover {command}: {topo}: {reason}")
    assert err.count("\n") == 1
    assert not (tmp_path / "matrix.json").exists()


@pytest.mark.parametrize("variant", ["per-link", "per-node", "hybrid"])
def test_compute_rejects_a_zero_weight_link(tmp_path, capsys, variant):
    topo = tmp_path / "topo.txt"
    topo.write_text("4\n0 1 1.0\n1 2 0.0\n2 3 1.0\n0 3 1.0\n")
    matrix = tmp_path / "matrix.json"
    assert main(["compute", "--topology", str(topo), "--variant", variant,
                 "--out", str(matrix)]) == 2
    assert capsys.readouterr().err == (
        f"failover compute: {topo}: link 1-2 has weight 0.0; "
        "protection rules and metrics need positive link weights\n")
    assert not matrix.exists()


def test_missing_matrix_is_one_error_line(tmp_path, capsys):
    topo, matrix = tmp_path / "topo.txt", tmp_path / "absent.json"
    main(["generate", "--kind", "lattice", "-n", "9", "--seed", "1", "--out", str(topo)])
    capsys.readouterr()
    assert main(["simulate", "--topology", str(topo), "--matrix", str(matrix),
                 "--src", "0", "--dst", "8"]) == 2
    assert capsys.readouterr().err == (
        f"failover simulate: {matrix}: No such file or directory\n")


def test_missing_config_file_is_one_error_line(tmp_path, capsys):
    cfg, csv_path = tmp_path / "absent.cfg", tmp_path / "out.csv"
    assert main(["evaluate", "--config", str(cfg), "--csv", str(csv_path)]) == 2
    assert capsys.readouterr().err == (
        f"failover evaluate: {cfg}: No such file or directory\n")
    assert not csv_path.exists()


@pytest.mark.parametrize("flags, message", [
    (["--sizes", "9,9"], "size 9 is given more than once"),
    (["--sizes", "9", "--variants", "per-link,per-link"],
     "variant 'per-link' is given more than once"),
])
def test_evaluate_rejects_repeated_sizes_and_variants(flags, message, tmp_path, capsys):
    csv_path = tmp_path / "out.csv"
    argv = ["evaluate", "--generator", "er", "--runs", "1", "--csv", str(csv_path)] + flags
    assert main(argv) == 2
    assert capsys.readouterr().err == f"failover evaluate: {message}\n"
    assert not csv_path.exists()


def _output_argv(command: str, out: str, tmp_path) -> list[str]:
    topo = tmp_path / "topo.txt"
    topo.write_text("3\n0 1 1.0\n1 2 1.0\n0 2 1.0\n")
    return {
        "generate": ["generate", "--kind", "er", "-n", "9", "--seed", "1", "--out", out],
        "compute": ["compute", "--topology", str(topo), "--variant", "per-link", "--out", out],
        "evaluate-csv": ["evaluate", "--sizes", "9", "--runs", "1", "--csv", out],
        "evaluate-json": ["evaluate", "--sizes", "9", "--runs", "1", "--json", out],
    }[command]


@pytest.mark.parametrize("command", ["generate", "compute", "evaluate-csv", "evaluate-json"])
@pytest.mark.parametrize("where, reason", [
    ("absent-dir", "No such file or directory"),
    ("directory", "Is a directory"),
])
def test_unwritable_output_is_one_error_line(command, where, reason, tmp_path, capsys):
    out = str(tmp_path / "absent" / "x") if where == "absent-dir" else str(tmp_path)
    assert main(_output_argv(command, out, tmp_path)) == 2
    captured = capsys.readouterr()
    name = command.split("-")[0]
    assert captured.err == f"failover {name}: {out}: {reason}\n"
    assert captured.out == ""


def test_evaluate_checks_its_outputs_before_it_runs(tmp_path, monkeypatch, capsys):
    import failover.cli

    def run_experiment(config):
        raise AssertionError("evaluate ran with an output it cannot write")

    monkeypatch.setattr(failover.cli, "run_experiment", run_experiment)
    csv_path, kept = tmp_path / "new.csv", tmp_path / "kept.csv"
    kept.write_text("old\n")
    bad = str(tmp_path / "absent" / "report.json")
    for csv_out in (csv_path, kept):
        argv = ["evaluate", "--sizes", "9", "--runs", "1", "--csv", str(csv_out), "--json", bad]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"failover evaluate: {bad}: No such file or directory\n"
    # The check writes nothing: no new file, and an existing one unchanged.
    assert not csv_path.exists()
    assert kept.read_text() == "old\n"
