"""Shared helpers: an in-process CLI runner, a brute-force BFS oracle, one
process's wakes and a barrier's client flags set from bit vectors."""

from __future__ import annotations

import contextlib
import io

import pytest

from ringcheck.explorer import apply, enabled_steps, encode


class CliResult:
    def __init__(self, code: int, out: str, err: str):
        self.code = code
        self.out = out
        self.err = err


@pytest.fixture()
def run_cli():
    """Invoke the command line front end in-process and capture everything."""
    from ringcheck.cli import main

    def _run(*argv: str) -> CliResult:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as e:  # argparse usage failures
                code = e.code if isinstance(e.code, int) else 1
        return CliResult(code, out.getvalue(), err.getvalue())

    return _run


def bfs_quiescent_encodings(scenario, depth_bound: int = 64) -> set[bytes]:
    """Quiescent-state encodings by exhaustive path enumeration.

    Deliberately primitive: no visited set, every schedule prefix expanded
    independently, breadth first. Exponential in path count, so only usable
    on tiny scenarios, which is exactly what makes it an independent oracle
    for the hash-pruned search. Fails the test run loudly if any path is
    still alive at the depth bound, because then the enumeration would not
    have been exhaustive.
    """
    quiescent: set[bytes] = set()
    frontier = [scenario.initial_state()]
    for _ in range(depth_bound):
        if not frontier:
            return quiescent
        nxt = []
        for state in frontier:
            steps = enabled_steps(state)
            if not steps:
                quiescent.add(encode(state))
                continue
            for step in steps:
                nxt.append(apply(state, step))
        frontier = nxt
    raise AssertionError(
        f"paths still alive after {depth_bound} steps; oracle enumeration incomplete"
    )


def wakes_of(table, pid: int) -> list[tuple[int, str]]:
    """pid's (fd, name) wakes as table.ready_events() lists them, in fd order."""
    return [(fd, name) for owner, fd, name in table.ready_events() if owner == pid]


def set_client_bits(g, arrived: int, released: int) -> None:
    """Set each manager's client_in and client_out from two bit vectors, bit
    pid being manager pid's, as barrier.client_bits packs them."""
    for m in g.procs:
        m.client_in = bool(arrived >> m.pid & 1)
        m.client_out = bool(released >> m.pid & 1)
