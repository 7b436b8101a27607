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
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ringcheck.cli import TABLE_HEADER, table_row
from ringcheck.explorer import explore
from ringcheck.scenarios import ScenarioConfig, build_scenario


def configs(quick: bool) -> list[ScenarioConfig]:
    """The sweep's configurations, one table row each, in print order."""
    top = 3 if quick else 4
    rows = [ScenarioConfig("ring-par", size=1, inserters=k) for k in range(top)]
    rows += [ScenarioConfig("trace", size=n) for n in range(1, 5)]
    rows += [ScenarioConfig("recovery", size=n) for n in range(2, 9)]
    rows += [ScenarioConfig("barrier", size=n) for n in range(1, 13)]
    rows += [
        ScenarioConfig("ring-seq", size=2, inserters=2),
        ScenarioConfig("ring-seq", size=2, inserters=2, blocking=True),
    ]
    return rows


def sweep(rows):
    print(TABLE_HEADER)
    for cfg in rows:
        scenario = build_scenario(cfg)
        report = explore(scenario, scenario.default_properties())
        print(f"{table_row(scenario, report)}  {report.outcome}")
        if report.violation:
            print(f"{'':12} violation: {report.violation}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="skip the four-daemon establishment run")
    args = parser.parse_args()
    sweep(configs(args.quick))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
