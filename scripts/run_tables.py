#!/usr/bin/env python3
"""Verification sweep over every scenario family, printed as one table.

Reproduces the numbers the test suite freezes as regression baselines. The
full sweep (ring-par up to four daemons) takes a few minutes; pass --quick
to stop the establishment family at three daemons.

Usage:
    python3 scripts/run_tables.py [--quick]
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ringcheck.cli import TABLE_HEADER
from ringcheck.explorer import explore
from ringcheck.scenarios import ScenarioConfig, build_scenario


def sweep(rows):
    print(TABLE_HEADER)
    for cfg in rows:
        scenario = build_scenario(cfg)
        t0 = time.perf_counter()
        report = explore(scenario, scenario.default_properties())
        elapsed = time.perf_counter() - t0
        counts = f"{report.states_stored}/{report.states_matched}"
        print(f"{scenario.algorithm:<12} {scenario.total:>10} {elapsed:>10.2f} "
              f"{counts:>24} {report.max_depth:>13}  {report.outcome}")
        if report.violation:
            print(f"{'':12} violation: {report.violation}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="skip the four-daemon establishment run")
    args = parser.parse_args()

    top = 3 if args.quick else 4
    rows = [ScenarioConfig("ring-par", size=1, inserters=k) for k in range(top)]
    rows += [ScenarioConfig("trace", size=n) for n in range(1, 5)]
    rows += [ScenarioConfig("recovery", size=n) for n in range(2, 9)]
    rows += [ScenarioConfig("barrier", size=n) for n in range(1, 13)]
    rows += [
        ScenarioConfig("ring-seq", size=2, inserters=2),
        ScenarioConfig("ring-seq", size=2, inserters=2, blocking=True),
    ]
    sweep(rows)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
