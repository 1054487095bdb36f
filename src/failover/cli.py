"""Command-line interface: generate, compute, simulate, evaluate."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

from .dataplane import simulate
from .metrics import (
    _GENERATORS,
    ALL_VARIANTS,
    ExperimentConfig,
    build_variant,
    dumps_report_json,
    run_experiment,
)
from .rules import ForwardingMatrix
from .topology import (
    NO_FAILURE,
    FailureScenario,
    Topology,
    load_topology,
    save_topology,
    unit_weights,
)


def _parse_scenario(text: str) -> FailureScenario:
    if text == "none":
        return NO_FAILURE
    kind, _, rest = text.partition(":")
    if kind == "link":
        u, v = rest.split("-")
        return FailureScenario.link_down(int(u), int(v))
    if kind == "node":
        return FailureScenario.node_down(int(rest))
    raise argparse.ArgumentTypeError(
        f"scenario must be 'none', 'link:U-V' or 'node:V', got {text!r}"
    )


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _simulate_input_error(t: Topology, args) -> Optional[str]:
    """Why ``args`` name something ``t`` does not have, or None."""
    for end in (args.src, args.dst):
        if not 0 <= end < t.n:
            return f"node {end} is not in the topology (nodes 0..{t.n - 1})"
    if args.src == args.dst:
        return "source and destination must differ"
    scenario = args.scenario
    if scenario.kind == "node" and not 0 <= scenario.v < t.n:
        return f"scenario fails node {scenario.v}, which is not in the topology"
    if scenario.kind == "link" and (
        scenario.v >= t.n or t.link_between(scenario.u, scenario.v) is None
    ):
        return f"scenario fails link {scenario.u}-{scenario.v}, which is not in the topology"
    return None


def _cmd_generate(args) -> int:
    try:
        t = _GENERATORS[args.kind].make(args.nodes, args.seed)
    except ValueError as exc:
        print(f"failover generate: {exc}", file=sys.stderr)
        return 2
    save_topology(t, args.out)
    print(f"wrote {args.out}: {t.n} nodes, {len(t.links)} links")
    return 0


def _cmd_compute(args) -> int:
    t = load_topology(args.topology)
    if args.unweighted:
        t = unit_weights(t)
    fw = build_variant(t, args.variant, optimized=not args.no_optimize)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(fw.to_json(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(
        f"wrote {args.out}: {fw.rule_count()} rules, "
        f"{fw.distinct_group_count()} groups, {len(fw.uncovered)} uncovered"
    )
    return 0


def _cmd_simulate(args) -> int:
    t = load_topology(args.topology)
    if args.unweighted:
        t = unit_weights(t)
    error = _simulate_input_error(t, args)
    if error is not None:
        print(f"failover simulate: {error}", file=sys.stderr)
        return 2
    try:
        with open(args.matrix, "r", encoding="utf-8") as fh:
            fw = ForwardingMatrix.from_json(json.load(fh), t)
    except (ValueError, KeyError, TypeError) as exc:
        print(f"failover simulate: {args.matrix}: not a valid matrix of this topology: "
              f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    trace = simulate(fw, t, args.scenario, args.src, args.dst)
    sys.stdout.write(trace.dump())
    return 0 if trace.delivered else 1


def _read_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


# How to read each ExperimentConfig field that a flag or a config file line
# may set.  A field that neither sets keeps its ExperimentConfig default.
_EVALUATE_FIELDS = {
    "generator": str,
    "sizes": lambda text: tuple(int(s) for s in text.split(",")),
    "runs": int,
    "seed": int,
    "variants": lambda text: tuple(v.strip() for v in text.split(",")),
    "unweighted": lambda text: text == "true",
}


def _cmd_evaluate(args) -> int:
    settings = _read_config_file(args.config) if args.config else {}
    for name in _EVALUATE_FIELDS:
        if getattr(args, name) is not None:
            settings[name] = str(getattr(args, name))
    try:
        given = {name: parse(settings[name])
                 for name, parse in _EVALUATE_FIELDS.items() if name in settings}
        if args.no_optimize:
            given["optimized"] = False
        if args.jobs is not None:
            given["jobs"] = args.jobs
        config = ExperimentConfig(**given)
        config.validate()
    except ValueError as exc:
        print(f"failover evaluate: {exc}", file=sys.stderr)
        return 2
    report = run_experiment(config)
    csv_text = report.to_csv()
    if args.csv:
        Path(args.csv).write_text(csv_text, encoding="utf-8")
        print(f"wrote {args.csv}")
    else:
        sys.stdout.write(csv_text)
    if args.json:
        Path(args.json).write_text(dumps_report_json(report), encoding="utf-8")
        print(f"wrote {args.json}")
    for note in report.notes:
        print(f"note: {note}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="failover",
        description="Failure-disjoint backup forwarding rules and evaluation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a topology file")
    p.add_argument("--kind", choices=sorted(_GENERATORS), required=True)
    p.add_argument("--nodes", "-n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("compute", help="compute a forwarding matrix")
    p.add_argument("--topology", required=True)
    p.add_argument("--variant", choices=ALL_VARIANTS, required=True)
    p.add_argument("--no-optimize", action="store_true")
    p.add_argument("--unweighted", action="store_true",
                   help="treat every link weight as 1 (hop-count mode)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser("simulate", help="trace one packet under a failure")
    p.add_argument("--topology", required=True)
    p.add_argument("--matrix", required=True)
    p.add_argument("--scenario", type=_parse_scenario, default=NO_FAILURE)
    p.add_argument("--src", type=int, required=True)
    p.add_argument("--dst", type=int, required=True)
    p.add_argument("--unweighted", action="store_true")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("evaluate", help="run the evaluation harness")
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--generator", choices=sorted(_GENERATORS))
    p.add_argument("--sizes", help="comma-separated node counts")
    p.add_argument("--runs", type=_positive_int)
    p.add_argument("--seed", type=int)
    p.add_argument("--variants", help="comma-separated variant names")
    p.add_argument("--no-optimize", action="store_true")
    p.add_argument("--unweighted", action="store_const", const="true")
    p.add_argument("--jobs", type=_positive_int)
    p.add_argument("--csv", help="CSV output path (default: stdout)")
    p.add_argument("--json", help="full JSON report path")
    p.set_defaults(func=_cmd_evaluate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
