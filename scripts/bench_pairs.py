#!/usr/bin/env python3
"""Run the benchmark in two checkouts in alternating pairs and compare them.

Usage:
    python3 scripts/bench_pairs.py PARENT CHANGE [--workload W ...] [--out FILE]

PARENT and CHANGE are checkout directories, each with its own
perfbench/run.py. For each workload in turn, each of ten pairs i runs

    python3 perfbench/run.py --workload W --seed 41+i --trace 0

once in each checkout, at run.py's own run length and one run at a time:
the parent first on even pairs, the change first on odd ones. For every
end-to-end metric it prints each side's median and quartiles, the ratio of
the medians and how many pairs the change won; a tie wins for neither side.
The workloads (by default all of them) and which way each metric is better
are read from PARENT's BENCHMARK.json. Quartiles are
statistics.quantiles(method="inclusive").

With --out it writes one JSON object: "command", the run.py command line;
"pairs", per workload, in the shape of the pairs block of the committed
BENCH_*.json files; and "runs", every value of every run, per workload,
metric and side, in pair order.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

SIDES = ("parent", "change")
PAIRS = 10
FIRST_SEED = 41


def run_once(checkout: str, workload: str, seed: int) -> dict:
    """One run.py run in checkout: the JSON object its last line prints."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"bench_pairs: {' '.join(cmd[1:])} in {checkout} exited "
                         f"{done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(statistics.median(values), 6), "q1": round(q1, 6),
            "q3": round(q3, 6)}


def compare(parent: list[float], change: list[float], better: str) -> dict:
    """One metric's pairs block: both sides' spread, the ratio of the medians,
    the change's wins, the parent's interquartile range and the medians' gap."""
    p, c = spread(parent), spread(change)
    if better == "lower":
        wins = sum(b < a for a, b in zip(parent, change))
    else:
        wins = sum(b > a for a, b in zip(parent, change))
    return {
        "parent": p,
        "change": c,
        "change_over_parent": round(c["median"] / p["median"], 4) if p["median"] else None,
        "change_wins": wins,
        "parent_iqr": round(p["q3"] - p["q1"], 6),
        "gap": round(abs(c["median"] - p["median"]), 6),
    }


def bench_workload(checkouts: dict, workload: str) -> tuple[dict, dict]:
    """(the workload's pairs block, its runs: metric -> side -> values)."""
    results = {side: [] for side in SIDES}
    for i in range(PAIRS):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for side in order:
            r = run_once(checkouts[side], workload, FIRST_SEED + i)
            results[side].append(r)
            print(f"  {workload} pair {i + 1}/{PAIRS} {side}: "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()),
                  file=sys.stderr, flush=True)
    metrics = list(results["parent"][0]["metrics"])
    runs = {m: {side: [r["metrics"][m]["value"] for r in results[side]] for side in SIDES}
            for m in metrics}
    block = {
        "pairs": PAIRS,
        "failed_ops": {side: sum(r["failed"] for r in results[side]) for side in SIDES},
        "attempted_ops": {side: sum(r["attempted"] for r in results[side]) for side in SIDES},
        "correct": all(r["correct"] for side in SIDES for r in results[side]),
    }
    return block, runs


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="checkout directory of the parent commit")
    ap.add_argument("change", help="checkout directory of the change")
    ap.add_argument("--workload", action="append",
                    help="a workload to run (repeatable; default: all of BENCHMARK.json's)")
    ap.add_argument("--out", help="write the pairs and runs here as JSON")
    args = ap.parse_args()
    checkouts = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with open(os.path.join(checkouts["parent"], "BENCHMARK.json"), encoding="utf-8") as fh:
        benchmark = json.load(fh)
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    workloads = [w["name"] for w in benchmark["workloads"]]
    for workload in args.workload or ():
        if workload not in workloads:
            ap.error(f"unknown workload {workload!r}: BENCHMARK.json lists {', '.join(workloads)}")

    out = {
        "command": (f"python3 perfbench/run.py --workload W --seed S --trace 0, {PAIRS} "
                    f"alternating pairs per workload (parent first on even pairs), seeds "
                    f"{FIRST_SEED}-{FIRST_SEED + PAIRS - 1}"),
        "pairs": {},
        "runs": {},
    }
    for workload in args.workload or workloads:
        block, runs = bench_workload(checkouts, workload)
        print(f"{workload}: {block['pairs']} pairs, failed operations "
              f"{block['failed_ops']['parent']}/{block['failed_ops']['change']} "
              f"(parent/change), {'all correct' if block['correct'] else 'SOME WRONG'}")
        for metric, values in runs.items():
            block[metric] = row = compare(values["parent"], values["change"], better[metric])
            p, c = row["parent"], row["change"]
            print(f"  {metric}: parent {p['median']:.6g} [{p['q1']:.6g}, {p['q3']:.6g}]  "
                  f"change {c['median']:.6g} [{c['q1']:.6g}, {c['q3']:.6g}]  "
                  f"ratio {row['change_over_parent']}  change won {row['change_wins']}"
                  f"/{PAIRS}")
        out["pairs"][workload] = block
        out["runs"][workload] = runs
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(out, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
