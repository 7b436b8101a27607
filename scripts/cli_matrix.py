#!/usr/bin/env python3
"""Digest what the command line prints and writes, over a fixed matrix of runs.

Two checkouts that print the same total give byte-identical output for
every run of the matrix: stdout, stderr, exit code and every trace file
written. Per model, the runs are

    verify --stable-output                 (the table; a counterexample file)
    verify --json --stable-output --trace-out FILE
    replay of each counterexample written, and replay --quiet of the second
    simulate --seed S --trace-out FILE, simulate --seed S --json,
    replay FILE and replay --quiet FILE    (seeds 0 to 3)

Each run is a child process started in an empty directory of its own, so a
default counterexample path lands there.

Usage:
    python3 scripts/cli_matrix.py [--src DIR] [MODEL ...]

MODEL names one model of MODELS (all by default); DIR is the ringcheck
source tree to run (default: this checkout's src). Prints "digest label"
per run, then "digest total (N runs)".
"""

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

MODELS = {
    "barrier-4": ["barrier", "--size", "4"],
    "trace-3": ["trace", "--size", "3"],
    "recovery-5": ["recovery", "--size", "5"],
    "recovery-48": ["recovery", "--size", "48"],
    "ring-par-1-2": ["ring-par", "--size", "1", "--inserters", "2"],
    "ring-seq-2-2-blocking": ["ring-seq", "--size", "2", "--inserters", "2", "--blocking"],
    "ring-seq-2-2": ["ring-seq", "--size", "2", "--inserters", "2"],
    "ring-seq-2-3": ["ring-seq", "--size", "2", "--inserters", "3"],
    "ring-seq-1-3": ["ring-seq", "--size", "1", "--inserters", "3"],
}
SEEDS = range(4)


class Runner:
    """Runs ringcheck commands from src, each in a fresh directory under
    work, and keeps one digest per run and a digest over them all."""

    def __init__(self, src: Path, work: Path):
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.work = work
        self.total = hashlib.sha256()
        self.runs = 0

    def __call__(self, label: str, *argv: str) -> list[Path]:
        """Run argv; print its digest; return the files it wrote."""
        cwd = self.work / str(self.runs)
        cwd.mkdir()
        done = subprocess.run([sys.executable, "-m", "ringcheck", *argv], cwd=cwd,
                              env=self.env, capture_output=True, timeout=600)
        written = sorted(cwd.iterdir())
        h = hashlib.sha256()
        for part in (done.stdout, done.stderr, str(done.returncode).encode()):
            h.update(len(part).to_bytes(8, "little") + part)
        for path in written:
            data = path.read_bytes()
            h.update(path.name.encode() + b"\0" + len(data).to_bytes(8, "little") + data)
        digest = h.hexdigest()[:16]
        print(f"{digest} {label}", flush=True)
        self.total.update(digest.encode())
        self.runs += 1
        return written


def run_model(run: Runner, name: str, args: list[str]) -> None:
    found = run(f"{name} verify", "verify", *args, "--stable-output")
    found += run(f"{name} verify --json", "verify", *args, "--json", "--stable-output",
                 "--trace-out", "counterexample.trace")
    for path in found:
        run(f"{name} replay {path.name}", "replay", str(path))
    if found[1:]:
        run(f"{name} replay --quiet {found[-1].name}", "replay", "--quiet", str(found[-1]))
    for seed in SEEDS:
        schedule = run(f"{name} simulate --seed {seed}", "simulate", *args, "--seed", str(seed),
                       "--trace-out", "schedule.trace")
        run(f"{name} simulate --seed {seed} --json", "simulate", *args, "--seed", str(seed),
            "--json")
        for path in schedule:
            run(f"{name} replay seed {seed}", "replay", str(path))
            run(f"{name} replay --quiet seed {seed}", "replay", "--quiet", str(path))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parent.parent / "src")
    parser.add_argument("models", nargs="*", metavar="MODEL", help=", ".join(MODELS))
    opts = parser.parse_args()
    unknown = [m for m in opts.models if m not in MODELS]
    if unknown:
        parser.error(f"unknown model {unknown[0]}; choose from {', '.join(MODELS)}")
    with tempfile.TemporaryDirectory(prefix="cli-matrix-") as tmp:
        run = Runner(opts.src.resolve(), Path(tmp))
        for name in opts.models or MODELS:
            run_model(run, name, MODELS[name])
    print(f"{run.total.hexdigest()[:16]} total ({run.runs} runs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
