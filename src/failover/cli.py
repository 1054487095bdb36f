"""Command-line interface: generate, compute, simulate, evaluate."""

from __future__ import annotations

import argparse
import json
import os
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
        try:
            u, v = (int(end) for end in rest.split("-"))
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected link:U-V, got {text!r}") from None
        try:
            return FailureScenario.link_down(u, v)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"{exc}, got {text!r}") from None
    if kind == "node":
        try:
            return FailureScenario.node_down(int(rest))
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected node:V, got {text!r}") from None
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


def _unwritable(path: str) -> Optional[str]:
    """Why ``path`` cannot be written, or None.  Leaves an existing file as
    it was and no new file behind."""
    existed = os.path.lexists(path)
    try:
        with open(path, "a", encoding="utf-8"):
            pass
    except OSError as exc:
        return exc.strerror or str(exc)
    if not existed:
        os.remove(path)
    return None


def _write_output(command: str, path: str, text: str) -> bool:
    """Write ``text`` to ``path``, or return False after printing why it
    could not be written."""
    try:
        Path(path).write_text(text, encoding="utf-8", newline="\n")
    except OSError as exc:
        print(f"failover {command}: {path}: {exc.strerror or exc}", file=sys.stderr)
        return False
    return True


def _cmd_generate(args) -> int:
    try:
        t = _GENERATORS[args.kind].make(args.nodes, args.seed)
    except ValueError as exc:
        print(f"failover generate: {exc}", file=sys.stderr)
        return 2
    try:
        save_topology(t, args.out)
    except OSError as exc:
        print(f"failover generate: {args.out}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    print(f"wrote {args.out}: {t.n} nodes, {len(t.links)} links")
    return 0


def _load_topology_arg(args, command: str) -> Optional[Topology]:
    """``args.topology`` (unit weights with ``--unweighted``), or None after
    printing why the file could not be read."""
    try:
        t = load_topology(args.topology)
    except OSError as exc:
        error = exc.strerror or str(exc)
    except ValueError as exc:
        error = str(exc)
    else:
        return unit_weights(t) if args.unweighted else t
    print(f"failover {command}: {args.topology}: {error}", file=sys.stderr)
    return None


def _cmd_compute(args) -> int:
    t = _load_topology_arg(args, "compute")
    if t is None:
        return 2
    try:
        fw = build_variant(t, args.variant, optimized=not args.no_optimize)
    except ValueError as exc:
        print(f"failover compute: {args.topology}: {exc}", file=sys.stderr)
        return 2
    # json.dumps without indent uses the C encoder; json.dump never does.
    text = json.dumps(fw.to_json(), sort_keys=True)
    if not _write_output("compute", args.out, text + "\n"):
        return 2
    print(
        f"wrote {args.out}: {fw.rule_count()} rules, "
        f"{fw.distinct_group_count()} groups, {len(fw.uncovered)} uncovered"
    )
    return 0


def _cmd_simulate(args) -> int:
    t = _load_topology_arg(args, "simulate")
    if t is None:
        return 2
    error = _simulate_input_error(t, args)
    if error is not None:
        print(f"failover simulate: {error}", file=sys.stderr)
        return 2
    try:
        with open(args.matrix, "r", encoding="utf-8") as fh:
            text = fh.read()
        fw = ForwardingMatrix.loads(text, t)
    except OSError as exc:
        print(f"failover simulate: {args.matrix}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, TypeError) as exc:
        print(f"failover simulate: {args.matrix}: not a valid matrix of this topology: "
              f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    trace = simulate(fw, t, args.scenario, args.src, args.dst)
    sys.stdout.write(trace.dump())
    return 0 if trace.delivered else 1


def _parse_bool(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(f"expected true or false, got {text!r}")
    return text == "true"


# How to read each ExperimentConfig field that a flag or a config file line
# may set.  A field that neither sets keeps its ExperimentConfig default.
_EVALUATE_FIELDS = {
    "generator": str,
    "sizes": lambda text: tuple(int(s) for s in text.split(",")),
    "runs": int,
    "seed": int,
    "variants": lambda text: tuple(v.strip() for v in text.split(",")),
    "unweighted": _parse_bool,
}


def _read_config_file(path: str) -> dict[str, str]:
    """The ``key=value`` lines of ``path``; raises ``ValueError`` on a key
    that is not in ``_EVALUATE_FIELDS`` and on a file it cannot read."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"{path}: {exc.strerror or exc}") from None
    values: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _EVALUATE_FIELDS:
            raise ValueError(f"{path}: unknown key {key!r}; "
                             f"known keys: {', '.join(_EVALUATE_FIELDS)}")
        values[key] = value.strip()
    return values


def _cmd_evaluate(args) -> int:
    try:
        settings = _read_config_file(args.config) if args.config else {}
        for name in _EVALUATE_FIELDS:
            if getattr(args, name) is not None:
                settings[name] = str(getattr(args, name))
        given = {}
        for name, parse in _EVALUATE_FIELDS.items():
            if name in settings:
                try:
                    given[name] = parse(settings[name])
                except ValueError as exc:
                    raise ValueError(f"{name}: {exc}") from None
        if args.no_optimize:
            given["optimized"] = False
        if args.jobs is not None:
            given["jobs"] = args.jobs
        config = ExperimentConfig(**given)
        config.validate()
    except ValueError as exc:
        print(f"failover evaluate: {exc}", file=sys.stderr)
        return 2
    # A run can take hours: find an output it cannot write before it starts.
    for path in filter(None, (args.csv, args.json)):
        problem = _unwritable(path)
        if problem is not None:
            print(f"failover evaluate: {path}: {problem}", file=sys.stderr)
            return 2
    report = run_experiment(config)
    csv_text = report.to_csv()
    if args.csv:
        if not _write_output("evaluate", args.csv, csv_text):
            return 2
        print(f"wrote {args.csv}")
    else:
        sys.stdout.write(csv_text)
    if args.json:
        if not _write_output("evaluate", args.json, dumps_report_json(report)):
            return 2
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
