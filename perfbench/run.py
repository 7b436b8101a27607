"""The ringcheck benchmark: four verdict-checked workloads, one command.

Run from the root of a checkout:

    python3 perfbench/run.py
        every workload, untraced and then traced, with a full report
    python3 perfbench/run.py --workload barrier --seed 3 --seconds 30 --trace 0
        one workload; the last line of output is one JSON object

Each workload run is one child process (perfbench/worker.py) that imports
ringcheck from ``src/``, loads the workload and runs it for ``--seconds``.
Set-up time is the median over that child and nineteen more that only set up.
Every timing is scaled by the host's speed at the time, gauged with the
reference loop of perfbench/hostspeed.py; the benchmark and its children
run pinned to one CPU so that the gauge and the timings share it.
Peak memory comes from the run's own child, through ``os.wait4``. With
``--trace 1`` the child wraps ringcheck's public functions from outside
(perfbench/tracer.py) and the output holds the per-layer metrics instead of
the end-to-end ones.
perfbench/README.md says why each workload is there.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

from hostspeed import reference_pass, scale

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("insert-seq", "barrier", "recovery-wide", "race-replay")
VERIFY_WORKLOADS = WORKLOADS[:3]
SETUP_PROBES = 19
RUN_LIMIT_S = 170  # the whole run must end within 180 s

# Every end-to-end metric this benchmark computes: (name, unit, workloads it is
# meant for). The JSON line carries the ones BENCHMARK.json lists.
END_TO_END = (
    ("verify_s", "s", VERIFY_WORKLOADS),
    ("transitions_per_s", "1/s", VERIFY_WORKLOADS),
    ("peak_rss_mb", "MB", WORKLOADS),
    ("rss_per_state_b", "B", ("insert-seq", "barrier")),
    ("setup_s", "s", WORKLOADS),
    ("cex_s", "s", ("race-replay",)),
    ("walk_steps_per_s", "1/s", ("race-replay",)),
    ("replay_steps_per_s", "1/s", ("race-replay",)),
    ("failed_share", "ratio", WORKLOADS),
)


class BenchError(Exception):
    pass


def run_child(args: list[str], deadline: float) -> tuple[float, dict, int]:
    """Start one worker, wait for it; (set-up seconds, its result, its peak RSS in KiB)."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    child = subprocess.Popen([sys.executable, WORKER, *args], stdout=subprocess.PIPE,
                             cwd=ROOT, env=env)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), child.kill)
    timer.start()
    try:
        out = child.stdout.read()
    finally:
        timer.cancel()
        child.stdout.close()
        # wait4 reports this child's own peak RSS; RUSAGE_CHILDREN would give
        # the largest over every child reaped so far.
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited with {child.returncode}")
    result = json.loads(out.decode().splitlines()[-1])
    return result["ready"] - spawned, result, usage.ru_maxrss


def run_workload(workload: str, seed: int, seconds: float, trace: int, workdir: str) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    base = ["--workload", workload, "--seed", str(seed), "--workdir", workdir]
    setups, gauges = [], []
    if not trace:
        for _ in range(SETUP_PROBES):
            gauges.append(reference_pass())
            setup_s, _, _ = run_child([*base, "--seconds", "0", "--setup-only"], deadline)
            setups.append(setup_s)
    gauges.append(reference_pass())
    setup_s, result, peak_kb = run_child(
        [*base, "--seconds", str(seconds), "--trace", str(trace)], deadline)
    setups.append(setup_s)
    result.update(setups=setups, setup_gauges=gauges, peak_kb=peak_kb)
    return result


def speed_at(gauges: list, at: float) -> float:
    """Factor that scales a call at `at` to the reference speed, from the
    gauges just before and just after it."""
    i = bisect.bisect([g_at for g_at, _ in gauges], at)
    return scale([mean for _, mean in gauges[max(0, i - 1):i + 1]])


def seconds(r: dict, samples: list, scaled: bool) -> list[float]:
    """The samples' times, each ``[..., seconds, at]``, scaled if asked."""
    if not scaled:
        return [t for *_, t, _ in samples]
    return [t * speed_at(r["gauges"], at) for *_, t, at in samples]


def rate(r: dict, samples: list, scaled: bool) -> float:
    """Steps per second over samples ``[steps, seconds, at]``."""
    return sum(n for n, *_ in samples) / sum(seconds(r, samples, scaled))


def verify_time(r: dict, scaled: bool = True) -> tuple[float, float]:
    """(verify_s, transitions_per_s) of one run.

    verify_s is the mean over the verified models of each one's median time,
    and transitions_per_s their transitions over the sum of those medians. A
    verify workload has one model; race-replay has three, whose verify calls
    end in a counterexample.
    """
    models = {}
    for sample, t in zip(r["verify"], seconds(r, r["verify"], scaled)):
        label, stored, matched = sample[:3]
        models.setdefault(label, ([], stored - 1 + matched))[0].append(t)
    medians = [statistics.median(ts) for ts, _ in models.values()]
    transitions = sum(n for _, n in models.values())
    return statistics.mean(medians), transitions / sum(medians)


def end_to_end(workload: str, r: dict, scaled: bool = True) -> dict:
    """Metric values of one untraced run, timings scaled to the reference speed."""
    verify_s, transitions_per_s = verify_time(r, scaled)
    setup_scale = scale(r["setup_gauges"]) if scaled else 1.0
    m = {
        "verify_s": verify_s,
        "transitions_per_s": transitions_per_s,
        "peak_rss_mb": r["peak_kb"] / 1024,
        "setup_s": statistics.median(r["setups"]) * setup_scale,
        "failed_share": r["failed"] / r["attempted"],
    }
    if workload in ("insert-seq", "barrier"):
        m["rss_per_state_b"] = (r["peak_kb"] - r["rss_setup_kb"]) * 1024 / r["verify"][0][1]
    if workload == "race-replay":
        m["cex_s"] = verify_s
        m["walk_steps_per_s"] = rate(r, r["walk"], scaled)
        m["replay_steps_per_s"] = rate(r, r["replay"], scaled)
    return m


def high_percentile(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    n = len(samples)
    k = n - 10
    if k < math.ceil(n / 2):
        return "no percentile above the median has ten samples beyond it"
    return f"p{100 * k // n} {sorted(samples)[k - 1]:.4g}"


def correct(r: dict) -> bool:
    """Every mismatch is the recorded simulate defect (see README.md)."""
    return not r["unexpected"] and r["failed"] == r["known_defect"]


def describe_outcome(workload: str, r: dict) -> list[str]:
    lines = [f"== {workload}: {r['attempted']} operations, {r['failed']} failed "
             f"({r['known_defect']} from the known simulate defect)"]
    return lines + [f"  FAILED: {problem}" for problem in r["unexpected"]]


def describe_metrics(workload: str, r: dict, metrics: dict) -> list[str]:
    raw = end_to_end(workload, r, scaled=False)
    slowness = 1 / scale([mean for _, mean in r["gauges"]])
    lines = [f"  timings scaled to the reference speed; the host ran {slowness:.3f} x slower"
             f" than nominal (median of n={len(r['gauges'])} gauges)"]
    for name, unit, meant_for in END_TO_END:
        if workload not in meant_for:
            continue
        line = f"  {name:<20} {metrics[name]:>14.6g} {unit}"
        if raw[name] != metrics[name]:
            line += f"  (unscaled {raw[name]:.6g})"
        if name in ("verify_s", "cex_s"):
            for label in dict.fromkeys(v[0] for v in r["verify"]):
                times = seconds(r, [v for v in r["verify"] if v[0] == label], True)
                line += (f"\n      {label}: median of n={len(times)}"
                         f" {statistics.median(times):.4g} s; {high_percentile(times)}")
        elif name == "setup_s":
            line += f"  (median of n={len(r['setups'])})"
        lines.append(line)
    return lines


def describe_layers(r: dict) -> list[str]:
    layers = r["layers"]
    lines = [f"  {'layer group':<38} {'calls':>12} {'incl_s':>10} {'self_s':>10}"]
    for group, incl in r["incl"].items():
        lines.append(f"  {group:<38} {layers[group + '.calls']:>12} {incl:>10.3f} "
                     f"{layers[group + '.self_s']:>10.3f}")
    for name, value in layers.items():
        if not (name.endswith(".calls") or name.endswith(".self_s")):
            lines.append(f"  {name:<38} {value:>12.6g}")
    return lines


def per_layer(r: dict) -> dict:
    m = dict(r["layers"])
    m["bench.traced_verify_s"] = verify_time(r)[0]
    return m


def emit(metrics: dict, spec: list[dict]) -> dict:
    missing = [m["name"] for m in spec if m["name"] not in metrics]
    if missing:
        raise BenchError(f"no value for metric(s) {', '.join(missing)}")
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec}


def one(args, bench: dict, workdir: str) -> int:
    r = run_workload(args.workload, args.seed, args.seconds, args.trace, workdir)
    print("\n".join(describe_outcome(args.workload, r)))
    if args.trace:
        metrics = per_layer(r)
        print("\n".join(describe_layers(r)))
        spec = bench["per_layer"]
    else:
        metrics = end_to_end(args.workload, r)
        print("\n".join(describe_metrics(args.workload, r, metrics)))
        spec = bench["end_to_end"]
    print(json.dumps({"correct": correct(r), "attempted": r["attempted"], "failed": r["failed"],
                      "metrics": emit(metrics, spec)}))
    return 0


def every(args, workdir: str) -> int:
    ok = True
    for workload in WORKLOADS:
        plain = run_workload(workload, args.seed, args.seconds, 0, workdir)
        traced = run_workload(workload, args.seed, args.seconds, 1, workdir)
        print("\n".join(describe_outcome(workload, plain)
                         + describe_metrics(workload, plain, end_to_end(workload, plain))))
        same = plain["counts"] == traced["counts"]
        verify_s = verify_time(plain)[0]
        traced_s = verify_time(traced)[0]
        print("\n".join(describe_outcome(f"{workload} traced", traced)))
        print(f"  stored/matched/depth {'equal to' if same else 'DIFFER FROM'} the untraced run")
        print(f"  tracing overhead: verify_s {traced_s:.4g} s traced - {verify_s:.4g} s "
              f"untraced = {traced_s - verify_s:.4g} s")
        print("\n".join(describe_layers(traced)))
        ok = ok and same and correct(plain) and correct(traced)
    print("all outputs correct" if ok else "SOME OUTPUTS WRONG")
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "ringcheck", "cli.py")):
        print(f"run.py: no ringcheck source under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    # One CPU for the benchmark and its children (they inherit it), so the
    # host-speed gauge runs where the timings are taken.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    workdir = os.path.join(HERE, ".work", str(os.getpid()))
    os.makedirs(workdir)
    try:
        if args.workload == "all":
            return every(args, workdir)
        return one(args, bench, workdir)
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
