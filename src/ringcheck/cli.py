"""Command line front end.

Three subcommands: verify explores every interleaving of a scenario,
simulate walks one seeded random path, replay re-executes a recorded
schedule step by step. Exit codes are part of the interface:

    0   verified, or a clean simulation/replay
    1   a violation was found (verify writes the counterexample schedule)
    2   a resource limit truncated the search
    64  usage or configuration error, or a trace file that cannot be written
    65  trace file is malformed or does not fit its scenario
    70  internal error: an exception the checker did not expect
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys

from . import __version__
from .errors import ContractViolation, ScenarioError
from .explorer import RESOURCE_LIMIT, VERIFIED, VIOLATION, explore, replay, simulate
from .scenarios import ALGORITHMS, ScenarioConfig, build_scenario
from .traceio import TraceFormatError, read_trace, write_trace

EX_OK = 0
EX_VIOLATION = 1
EX_LIMIT = 2
EX_USAGE = 64
EX_TRACE = 65
EX_SOFTWARE = 70

_OUTCOME_EXIT = {VERIFIED: EX_OK, VIOLATION: EX_VIOLATION, RESOURCE_LIMIT: EX_LIMIT}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EX_USAGE)


def _add_scenario_args(p: _Parser) -> None:
    p.add_argument("algorithm", choices=ALGORITHMS,
                   help="which protocol scenario to build")
    p.add_argument("--size", type=int, default=2, metavar="N",
                   help="initial ring size (managers for barrier); default 2")
    p.add_argument("--inserters", type=int, default=0, metavar="K",
                   help="daemons inserted concurrently at the entry daemon")
    p.add_argument("--blocking", action="store_true",
                   help="sequential variant: entry daemon blocks per query")
    p.add_argument("--fail-pid", type=int, default=None, metavar="PID",
                   help="recovery: fixed victim instead of a nondeterministic one")


def _add_output_args(p: _Parser) -> None:
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.add_argument("--stable-output", action="store_true",
                   help="zero the elapsed time so equal runs emit identical bytes")
    p.add_argument("--trace-out", metavar="FILE", default=None,
                   help="where to write the schedule file")


def _build(args):
    """The scenario args describe, or None once the reason it cannot be built is printed."""
    cfg = ScenarioConfig(
        algorithm=args.algorithm,
        size=args.size,
        inserters=args.inserters,
        blocking=args.blocking,
        fail_pid=args.fail_pid,
    )
    try:
        return build_scenario(cfg)
    except ScenarioError as e:
        print(f"ringcheck {args.command}: error: {e}", file=sys.stderr)
        return None


def _save_trace(args, path, scenario, steps, outcome, violation, what) -> bool:
    """Write a trace file and say so on stderr; False if it could not be written."""
    try:
        write_trace(path, scenario, steps, outcome=outcome, violation=violation)
    except OSError as e:
        print(f"ringcheck {args.command}: error: cannot write trace: {e}", file=sys.stderr)
        return False
    print(f"{what} written to {path}", file=sys.stderr)
    return True


def _report_json(scenario, report, steps, stable: bool) -> str:
    doc = {
        "schema": "ringcheck-report-1",
        "scenario": scenario.config_fields() | {"total": scenario.total},
        "report": {
            "outcome": report.outcome,
            "states_stored": report.states_stored,
            "states_matched": report.states_matched,
            "max_depth": report.max_depth,
            "elapsed": 0.0 if stable else round(report.elapsed, 6),
            "violation": report.violation,
        },
        "trace": None if steps is None else [s.render() for s in steps],
    }
    return json.dumps(doc, indent=2, sort_keys=True)


TABLE_HEADER = (f"{'Algorithm':<12} {'Model Size':>10} {'Time (s)':>10} "
                f"{'States Stored/Matched':>24} {'Search Depth':>13}")


def table_row(scenario, report, stable: bool = False) -> str:
    """One search as a row under TABLE_HEADER; stable zeroes the time."""
    elapsed = 0.0 if stable else report.elapsed
    counts = f"{report.states_stored}/{report.states_matched}"
    return (f"{scenario.algorithm:<12} {scenario.total:>10} {elapsed:>10.2f} "
            f"{counts:>24} {report.max_depth:>13}")


def _report_table(scenario, report, stable: bool) -> str:
    lines = [TABLE_HEADER, table_row(scenario, report, stable), f"outcome: {report.outcome}"]
    if report.violation:
        lines.append(f"violation: {report.violation}")
    return "\n".join(lines)


def _cmd_verify(args) -> int:
    if args.max_states < 1 or args.max_depth < 0:
        print("ringcheck verify: error: --max-states must be at least 1 "
              "and --max-depth at least 0", file=sys.stderr)
        return EX_USAGE
    scenario = _build(args)
    if scenario is None:
        return EX_USAGE
    report = explore(
        scenario,
        scenario.default_properties(),
        max_depth=args.max_depth,
        max_states=args.max_states,
    )
    trace_steps = None
    code = _OUTCOME_EXIT[report.outcome]
    if report.outcome == VIOLATION:
        path = args.trace_out or f"{scenario.algorithm}-counterexample.trace"
        trace_steps = report.trace
        if not _save_trace(args, path, scenario, report.trace, report.outcome,
                           report.violation, "counterexample"):
            code = EX_USAGE
    elif args.trace_out:
        # Nothing to record for a clean or truncated search.
        print("no counterexample to write", file=sys.stderr)
    if args.json:
        print(_report_json(scenario, report, trace_steps, args.stable_output))
    else:
        print(_report_table(scenario, report, args.stable_output))
    return code


def _cmd_simulate(args) -> int:
    if args.max_steps < 0:
        print("ringcheck simulate: error: --max-steps must be at least 0", file=sys.stderr)
        return EX_USAGE
    scenario = _build(args)
    if scenario is None:
        return EX_USAGE
    result = simulate(
        scenario,
        scenario.default_properties(),
        seed=args.seed,
        max_steps=args.max_steps,
    )
    code = EX_OK if result.violation is None else EX_VIOLATION
    if args.trace_out:
        outcome = "SIMULATED" if result.violation is None else VIOLATION
        if not _save_trace(args, args.trace_out, scenario, result.trace, outcome,
                           result.violation, "schedule"):
            code = EX_USAGE
    if args.json:
        doc = {
            "schema": "ringcheck-simulation-1",
            "scenario": scenario.config_fields() | {"total": scenario.total},
            "seed": args.seed,
            "steps_taken": len(result.trace),
            "quiescent": result.quiescent,
            "failures": [] if result.violation is None else [result.violation],
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        if result.quiescent:
            ending = "quiescent"
        elif result.violation is not None:
            ending = "stopped at a violation"
        else:
            ending = "step budget exhausted"
        print(f"seed {args.seed}: {len(result.trace)} steps, {ending}")
        if result.violation is not None:
            print(f"failure: {result.violation}")
        print(result.final_state.dump())
    return code


def _dump_delta(pre: str, post: str) -> list[str]:
    pre_lines = set(pre.splitlines())
    return [f"  | {line}" for line in post.splitlines() if line not in pre_lines]


def _cmd_replay(args) -> int:
    try:
        scenario, steps, _ = read_trace(args.trace)
    except OSError as e:
        print(f"ringcheck replay: error: {e}", file=sys.stderr)
        return EX_USAGE
    except TraceFormatError as e:
        print(f"ringcheck replay: bad trace: {e}", file=sys.stderr)
        return EX_TRACE
    count = itertools.count(1)

    def show(step, before, after):
        print(f"step {next(count)}: {step.render()}")
        if after is not None and not args.quiet:
            for line in _dump_delta(before.dump(), after.dump()):
                print(line)

    try:
        result = replay(scenario, steps, scenario.default_properties(), show)
    except ContractViolation as e:
        print(e, file=sys.stderr)
        print("the trace does not fit this scenario", file=sys.stderr)
        return EX_TRACE
    if result.violation is not None:
        where = "quiescence" if result.quiescent else f"step {len(result.trace)}"
        print(f"violation reproduced at {where}: {result.violation}")
        return EX_VIOLATION
    if result.quiescent:
        print("replay complete: quiescent, all properties hold")
    else:
        print("replay complete: schedule ends before quiescence")
    return EX_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="ringcheck",
                     description="explicit-state checker for ring maintenance protocols")
    parser.add_argument("--version", action="version", version=f"ringcheck {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_verify = sub.add_parser("verify", help="explore every interleaving")
    _add_scenario_args(p_verify)
    _add_output_args(p_verify)
    p_verify.add_argument("--max-depth", type=int, default=1_000_000)
    p_verify.add_argument("--max-states", type=int, default=50_000_000)
    p_verify.set_defaults(fn=_cmd_verify)

    p_sim = sub.add_parser("simulate", help="run one seeded random schedule")
    _add_scenario_args(p_sim)
    _add_output_args(p_sim)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--max-steps", type=int, default=100_000)
    p_sim.set_defaults(fn=_cmd_simulate)

    p_replay = sub.add_parser("replay", help="re-execute a recorded schedule")
    p_replay.add_argument("trace", help="trace file produced by verify or simulate")
    p_replay.add_argument("--quiet", action="store_true",
                          help="omit per-step state deltas")
    p_replay.set_defaults(fn=_cmd_replay)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except Exception as e:  # a fault of the checker, not a verdict on the model
        print(f"ringcheck {args.command}: internal error: {type(e).__name__}: {e}",
              file=sys.stderr)
        return EX_SOFTWARE


if __name__ == "__main__":
    raise SystemExit(main())
