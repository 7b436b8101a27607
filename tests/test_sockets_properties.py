"""Randomized socket-layer sequences checked against an independent mirror.

The driver in _socket_driver keeps its own model of which endpoints exist,
who owns them and which message serials are in flight, then re-derives the
six structural facts (link symmetry, ownership exclusivity, close duality,
message conservation, wake soundness, wake completeness) after every
operation, and checks that each operation logged every slot it replaced.
Hypothesis drives the op mix; each example is a fresh table.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from _socket_driver import Driver, run_random_sequence
from ringcheck.sockets import SocketTable


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), n_ops=st.integers(1, 48))
def test_random_legal_sequences_uphold_invariants(seed, n_ops):
    run_random_sequence(seed, n_ops=n_ops)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), n_ops=st.integers(1, 48))
def test_sequences_with_process_failures(seed, n_ops):
    run_random_sequence(seed, n_ops=n_ops, with_failure=True)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**32 - 1),
    conn_max=st.integers(2, 12),
    qsz=st.integers(1, 5),
    n_pids=st.integers(1, 5),
)
def test_invariants_hold_across_table_geometries(seed, conn_max, qsz, n_pids):
    import random

    rng = random.Random(seed)
    d = Driver(conn_max=conn_max, qsz=qsz, n_pids=n_pids)
    for _ in range(24):
        d.step(rng)
        d.check_all()


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
