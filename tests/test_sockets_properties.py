"""Randomized socket-layer sequences checked against an independent mirror.

The driver in _socket_driver keeps its own model of which endpoints exist,
who owns them and which message serials are in flight, then re-derives the
six structural facts (link symmetry, ownership exclusivity, close duality,
message conservation, wake soundness, wake completeness) after every
operation, and checks that each operation logged every slot it replaced.
Hypothesis drives the op mix; each example is a fresh table, which the
driver continues on clones of when clones is drawn.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from _socket_driver import CLONE, FORK, Driver, run_random_sequence
from ringcheck.sockets import SocketTable

# The share of steps that continue on a clone when a test draws clones.
CLONE_RATE = 0.3


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), n_ops=st.integers(1, 48), clones=st.booleans())
def test_random_legal_sequences_uphold_invariants(seed, n_ops, clones):
    run_random_sequence(seed, n_ops=n_ops, clone_rate=CLONE_RATE if clones else 0.0)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), n_ops=st.integers(1, 48), clones=st.booleans())
def test_sequences_with_process_failures(seed, n_ops, clones):
    run_random_sequence(seed, n_ops=n_ops, with_failure=True,
                        clone_rate=CLONE_RATE if clones else 0.0)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**32 - 1),
    conn_max=st.integers(2, 12),
    qsz=st.integers(1, 5),
    n_pids=st.integers(1, 5),
    clones=st.booleans(),
)
def test_invariants_hold_across_table_geometries(seed, conn_max, qsz, n_pids, clones):
    import random

    rng = random.Random(seed)
    d = Driver(conn_max=conn_max, qsz=qsz, n_pids=n_pids,
               clone_rate=CLONE_RATE if clones else 0.0)
    for _ in range(24):
        d.step(rng)
        d.check_all()


def test_sequences_continue_on_clones_every_way():
    # Fixed seeds, so every way of handing a wake map on is run each time.
    ways = {CLONE: 0, FORK: 0}
    for seed in range(200):
        drv = run_random_sequence(seed, n_ops=32, with_failure=bool(seed % 2),
                                  clone_rate=CLONE_RATE)
        for way, n in drv.branches.items():
            ways[way] += n
    assert min(ways.values()) >= 100, ways


# Driver operations (name, args) that set up a fresh table, then the one
# operation to run with a slot write that skips the log.
UNLOGGED = [
    ([], ("connect", 0, 1)),
    ([("connect", 0, 1)], ("accept", 1)),
    ([("connect", 0, 1), ("accept", 1)], ("write", 0, 1)),
    ([("connect", 0, 1), ("accept", 1), ("write", 0, 1)], ("read", 1, 0)),
    ([("connect", 0, 1)], ("close", 0, 1)),
    ([("connect", 0, 1)], ("inject_failure", 0)),
]


@pytest.mark.parametrize("setup,op", UNLOGGED, ids=[op[0] for _, op in UNLOGGED])
def test_an_operation_that_skips_the_log_is_caught(monkeypatch, setup, op):
    d = Driver()
    for name, *args in setup:
        getattr(d, f"op_{name}")(*args)
    real = SocketTable._put

    def unlogged(self, fd, slot):
        real(self, fd, slot)
        self.touched.pop()

    monkeypatch.setattr(SocketTable, "_put", unlogged)
    name, *args = op
    with pytest.raises(AssertionError, match="without logging"):
        getattr(d, f"op_{name}")(*args)
