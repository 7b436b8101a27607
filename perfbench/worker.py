"""Child process of the ringcheck benchmark: set up, run one workload, report.

perfbench/run.py starts one of these per workload run:

    python3 perfbench/worker.py --workload barrier --seed 0 --seconds 10 --trace 0 --workdir DIR

The child imports ringcheck from the checkout's ``src/`` and builds every
scenario the workload uses; that is the set-up. With ``--setup-only`` it stops
there. Otherwise it calls the workload's operations through
``ringcheck.cli.main``, with the CLI's output captured, and checks every
verdict, count, exit code and replay against the known answer. A verify
workload repeats its verify for about ``--seconds`` (at least once);
race-replay runs a fixed number of rounds per second of ``--seconds``, so
that a seed always gives the same operations. Between operations it times
the reference loop of hostspeed.py. The last line of its standard output is
one JSON object with the raw samples; run.py turns them into metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import sys
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

from hostspeed import reference_pass  # noqa: E402
from ringcheck import cli, scenarios  # noqa: E402
from ringcheck.explorer import RESOURCE_LIMIT, VERIFIED, VIOLATION  # noqa: E402

if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
    raise SystemExit(f"ringcheck was imported from {cli.__file__}, not from {SRC}")


class Model(NamedTuple):
    algorithm: str
    size: int
    inserters: int = 0
    blocking: bool = False
    max_states: int = 0  # verify only; 0 leaves the CLI's default

    def argv(self) -> list[str]:
        args = [self.algorithm, "--size", str(self.size), "--inserters", str(self.inserters)]
        if self.blocking:
            args.append("--blocking")
        return args

    def verify_argv(self) -> list[str]:
        limit = ["--max-states", str(self.max_states)] if self.max_states else []
        return ["verify", *self.argv(), *limit]

    def label(self) -> str:
        return " ".join(self.verify_argv()[1:])


class Known(NamedTuple):
    outcome: str
    stored: int
    matched: int
    depth: int


def barrier_stored(n: int) -> int:
    """Stored states of `verify barrier --size n`, frozen for n = 1..12 in the acceptance tests."""
    return 2 ** (n + 1) + n - 1


# Known answers, measured at the commit that introduced this benchmark. No
# test covers these sizes; the barrier count is also checked against the
# closed form above. Each verify takes 2-4 s, so a run holds several and
# reports their median. insert-seq's search stops at a state budget: the full
# model (198,586 stored, VERIFIED) takes 15-20 s, one sample per run.
VERIFY_WORKLOADS = {
    "insert-seq": (Model("ring-seq", 2, 3, blocking=True, max_states=20_000),
                   Known(RESOURCE_LIMIT, 20_000, 39_591, 30)),
    "barrier": (Model("barrier", 13), Known(VERIFIED, 16_396, 90_114, 39)),
    "recovery-wide": (Model("recovery", 48), Known(VERIFIED, 5_630, 727, 104)),
}
EXIT_CODES = {VERIFIED: 0, VIOLATION: 1, RESOURCE_LIMIT: 2}

# race-replay: models whose verify must end in VIOLATION with a counterexample
# that replays to the same violation, and models walked at random.
RACY_MODELS = {
    Model("ring-seq", 2, 2): Known(VIOLATION, 156, 183, 20),
    Model("ring-seq", 2, 3): Known(VIOLATION, 166, 186, 30),
    Model("ring-seq", 1, 3): Known(VIOLATION, 166, 186, 30),
}
WALK_MODELS = (Model("ring-par", 1, 6), Model("ring-seq", 2, 4),
               Model("recovery", 32), Model("barrier", 32))

WORKLOADS = (*VERIFY_WORKLOADS, "race-replay")

# race-replay rounds per second of --seconds: a round takes 0.13-0.2 s on the
# machine the benchmark was written on, as its speed varies.
RACE_ROUNDS_PER_S = 6
# Gauge the host's speed when this long has passed since the last gauge. One
# gauge is the mean of several reference passes: a single 25 ms pass catches
# the host at one instant, while a verify call averages over seconds.
GAUGE_EVERY_S = 1.5
GAUGE_PASSES = 8

REPLAY_PREFIX = "violation reproduced at "
ENDS_EARLY = "replay complete: schedule ends before quiescence"


def call_cli(argv: list[str]) -> tuple[int, str, list[float]]:
    """Run ringcheck's command line in-process: (exit code, stdout, [seconds, at]).

    `at` is the call's midpoint on the perf_counter clock, to match the call
    with the host-speed gauges around it.
    """
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as e:
            code = e.code
        t1 = time.perf_counter()
    return code, out.getvalue(), [t1 - t0, (t0 + t1) / 2]


class Run:
    """Samples and failures of one workload run."""

    def __init__(self, workdir: str, seed: int):
        self.workdir = workdir
        self.rng = random.Random(seed)
        # Each timed sample ends in the [seconds, at] of call_cli.
        self.verify = []  # [model label, stored, matched, depth, seconds, at] per verify call
        self.walk = []  # [steps, seconds, at] per simulate call
        self.replay = []  # [steps, seconds, at] per replay call
        self.gauges = []  # [at, mean seconds of a reference pass] per gauge
        self.gauged_at = float("-inf")
        self.counts = {}  # model label -> [outcome, stored, matched, depth]
        self.attempted = 0
        self.failed = 0
        self.known_defect = 0
        self.unexpected = []

    def fail(self, what: str, *, known_defect: bool = False) -> None:
        self.failed += 1
        if known_defect:
            self.known_defect += 1
        elif len(self.unexpected) < 20:
            self.unexpected.append(what)

    def gauge(self) -> None:
        """Time the reference loop if it has not run for a while."""
        started = time.perf_counter()
        if started - self.gauged_at >= GAUGE_EVERY_S:
            passes = [reference_pass() for _ in range(GAUGE_PASSES)]
            self.gauged_at = time.perf_counter()
            self.gauges.append([(started + self.gauged_at) / 2, sum(passes) / GAUGE_PASSES])

    def verify_op(self, model: Model, known: Known, extra: list[str]):
        """One `ringcheck verify --json` checked against its known answer.

        Returns the report when the exit code, verdict and counts are as known.
        """
        self.attempted += 1
        code, out, timing = call_cli([*model.verify_argv(), "--json", *extra])
        try:
            report = json.loads(out)["report"]
        except (ValueError, KeyError):
            self.fail(f"verify {model.label()}: exit {code}, no JSON report")
            return None
        row = Known(report["outcome"], report["states_stored"], report["states_matched"],
                    report["max_depth"])
        self.verify.append([model.label(), *row[1:], *timing])
        self.counts[model.label()] = list(row)
        if code != EXIT_CODES[known.outcome] or row != known:
            self.fail(f"verify {model.label()}: exit {code}, {row}, expected {known}")
            return None
        return report

    def replay_op(self, path: str) -> tuple[int, str]:
        self.attempted += 1
        code, out, timing = call_cli(["replay", path, "--quiet"])
        steps = sum(1 for line in out.splitlines() if line.startswith("step "))
        self.replay.append([steps, *timing])
        return code, out

    # -- workloads ----------------------------------------------------------

    def verify_round(self, model: Model, known: Known) -> None:
        self.gauge()
        report = self.verify_op(model, known, [])
        if (report is not None and model.algorithm == "barrier"
                and report["states_stored"] != barrier_stored(model.size)):
            self.fail(f"verify {model.label()}: {report['states_stored']} stored, "
                      f"closed form gives {barrier_stored(model.size)}")

    def race_round(self) -> None:
        self.gauge()
        for i, (model, known) in enumerate(RACY_MODELS.items()):
            path = os.path.join(self.workdir, f"cex-{i}.trace")
            if os.path.exists(path):
                os.remove(path)
            report = self.verify_op(model, known, ["--trace-out", path])
            if report is None:
                continue
            if not os.path.exists(path):
                self.fail(f"verify {model.label()}: no counterexample written")
                continue
            rcode, out = self.replay_op(path)
            reproduced = [line[len(REPLAY_PREFIX):].partition(": ")[2]
                          for line in out.splitlines() if line.startswith(REPLAY_PREFIX)]
            if rcode != 1 or reproduced != [report["violation"]]:
                self.fail(f"replay of {model.label()} counterexample: exit {rcode}, "
                          f"{reproduced}, expected [{report['violation']!r}]")
        for i, model in enumerate(WALK_MODELS):
            path = os.path.join(self.workdir, f"walk-{i}.trace")
            seed = self.rng.randrange(2**31)
            self.attempted += 1
            wcode, out, timing = call_cli(
                ["simulate", *model.argv(), "--seed", str(seed), "--trace-out", path, "--json"])
            try:
                walk = json.loads(out)
            except ValueError:
                self.fail(f"simulate {model.label()} --seed {seed}: exit {wcode}, no JSON")
                continue
            self.walk.append([walk["steps_taken"], *timing])
            if wcode not in (0, 1):
                self.fail(f"simulate {model.label()} --seed {seed}: exit {wcode}")
                continue
            rcode, out = self.replay_op(path)
            if rcode == wcode:
                continue
            # Known defect: when a handler raises, simulate drops the failing
            # step before the trace is written, so the replay stops short.
            dropped_step = (wcode == 1 and rcode == 0 and not walk["quiescent"]
                            and out.rstrip().endswith(ENDS_EARLY))
            self.fail(f"replay of simulate {model.label()} --seed {seed}: exit {rcode}, "
                      f"walk exit {wcode}", known_defect=dropped_step)


def load(workload: str) -> None:
    """Build every scenario the workload runs, as the CLI would."""
    if workload in VERIFY_WORKLOADS:
        models = [VERIFY_WORKLOADS[workload][0]]
    else:
        models = [*RACY_MODELS, *WALK_MODELS]
    for m in models:
        scenario = scenarios.build_scenario(
            scenarios.ScenarioConfig(m.algorithm, m.size, m.inserters, m.blocking))
        scenario.initial_state()
        scenario.default_properties()


def check_trace_counts(run: Run, layers: dict, workload: str) -> None:
    """The tracer must see every transition the untraced program makes."""
    applied = layers["explorer.apply.calls"]
    by_cmd = sum(v for k, v in layers.items() if k.startswith("explorer.transitions."))
    if by_cmd != applied:
        run.unexpected.append(f"trace: transitions by command sum to {by_cmd}, "
                              f"apply calls {applied}")
    if workload in VERIFY_WORKLOADS:
        searched = sum(s - 1 + m for _, s, m, *_ in run.verify)
        if searched != applied:
            run.unexpected.append(f"trace: {applied} apply calls, "
                                  f"verify reports {searched} transitions")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    load(args.workload)
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    rss_setup_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {"ready": ready, "rss_setup_kb": rss_setup_kb}
    if not args.setup_only:
        run = Run(args.workdir, args.seed)
        if args.workload in VERIFY_WORKLOADS:
            deadline = time.perf_counter() + args.seconds
            while True:
                started = time.perf_counter()
                run.verify_round(*VERIFY_WORKLOADS[args.workload])
                now = time.perf_counter()
                # Start another verify only if it should still end by the deadline.
                if now + (now - started) > deadline:
                    break
        else:
            # A fixed number of rounds, not a deadline: the operations, and so
            # the failures from the known defect, depend only on the seed.
            for _ in range(max(1, round(args.seconds * RACE_ROUNDS_PER_S))):
                run.race_round()
        run.gauge()
        if tracer is not None:
            result["layers"] = tracer.metrics()
            result["incl"] = tracer.inclusive()
            check_trace_counts(run, result["layers"], args.workload)
        result.update(verify=run.verify, walk=run.walk, replay=run.replay, counts=run.counts,
                      gauges=run.gauges,
                      attempted=run.attempted, failed=run.failed,
                      known_defect=run.known_defect, unexpected=run.unexpected)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
