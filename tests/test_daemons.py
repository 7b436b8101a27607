"""Handler-level tests for the ring daemons.

Each test stages a global state, fires one handler (or a short scripted
sequence of them) and inspects the resulting descriptor table and daemon
records. Whole-protocol behavior is covered by the exploration tests; here
the subject is the contract of the individual transitions.
"""

import pytest

from ringcheck.daemons import (
    DEAD,
    ENTERING_LHS,
    ENTRY_PID,
    IDLE,
    IN_RING,
    PARALLEL,
    SEQUENTIAL,
    DaemonState,
    TraceState,
    begin_insertion,
    dump_line,
    handle_event,
    inject_failure,
    start_trace,
    trace_initiator,
)
from ringcheck import daemons as daemons_mod
from ringcheck.errors import ProtocolViolation
from ringcheck.explorer import (
    ACT_START_TRACE,
    EVERY_STATE,
    VERIFIED,
    Property,
    apply,
    enabled_steps,
    encode,
    explore,
)
from ringcheck.messages import (
    BARRIER_IN,
    NEW_LHS,
    NEW_RHS,
    RECONNECT_RHS,
    RHS2INFO,
    RHS_INFO_REQUEST,
    RHS_INFO_RETURN,
    TRACE_DONE,
    TRACE_REQ,
    A,
    B,
    IDS,
    command_of,
    message,
)
from ringcheck.scenarios import ScenarioConfig, build_scenario
from ringcheck.sockets import EVENT_EOF, INVALID_FD, LHS, QUEUE, RHS

from conftest import wakes_of


def ring_state(algorithm, size, inserters=0, **kw):
    scenario = build_scenario(ScenarioConfig(algorithm, size=size, inserters=inserters, **kw))
    return scenario, scenario.initial_state()


def deliver(g, pid, cmd=None):
    """Run the first ready event of pid (optionally the one carrying cmd)."""
    for fd, name in wakes_of(g.sockets, pid):
        if cmd is not None and name != cmd:
            continue
        handle_event(g, g.procs[pid], fd, name)
        return fd, name
    raise AssertionError(f"pid {pid} has no matching ready event")


def owned_by(g, pid):
    return [fd for fd in range(g.sockets.conn_max) if g.sockets.owner_of(fd) == pid]


def queued_cmds(g, pid):
    out = []
    for fd in owned_by(g, pid):
        out += [command_of(m) for m in g.sockets.peek(fd)[QUEUE]]
    return out


class TestBootstrap:
    def test_first_daemon_forms_a_ring_of_one(self):
        scenario, g = ring_state("ring-par", 1)
        d = g.procs[0]
        assert d.phase == IN_RING
        assert d.rhs_id == d.rhs2_id == d.lhs_id == d.pid
        assert g.sockets.other_of(d.rhs_fd) == d.lhs_fd
        assert g.sockets.flag_of(d.rhs_fd) == RHS
        assert g.sockets.flag_of(d.lhs_fd) == LHS


class TestBeginInsertion:
    def test_parallel_announces_and_blocks_on_the_reply(self):
        scenario, g = ring_state("ring-par", 2, inserters=1)
        d = g.procs[2]
        begin_insertion(g, d)
        assert d.phase == ENTERING_LHS
        assert d.await_cmd == RECONNECT_RHS
        assert g.sockets.flag_of(d.lhs_fd) == LHS
        assert d.lhs_id == ENTRY_PID
        entry_queue = g.sockets.peek(g.sockets.other_of(d.lhs_fd))[QUEUE]
        assert [command_of(m) for m in entry_queue] == [NEW_RHS]
        assert entry_queue[0][A] == d.pid

    def test_sequential_asks_for_coordinates_first(self):
        scenario, g = ring_state("ring-seq", 2, inserters=1)
        d = g.procs[2]
        begin_insertion(g, d)
        assert d.await_cmd is None  # select mode keeps reading everything
        entry_queue = g.sockets.peek(g.sockets.other_of(d.lhs_fd))[QUEUE]
        assert [command_of(m) for m in entry_queue] == [RHS_INFO_REQUEST]

    @pytest.mark.parametrize("size,inserters", [(2, 2), (2, 3), (1, 3)],
                             ids=["2-2", "2-3", "1-3"])
    def test_blocking_entry_has_no_wake_but_the_answer(self, size, inserters):
        # Under --blocking an entering daemon awaits nothing: the answer on
        # its entry connection is the only wake it can get.
        entering = 0

        def only_the_answer(g):
            nonlocal entering
            for d in g.procs:
                if d.phase == ENTERING_LHS:
                    entering += 1
                    assert d.await_cmd is None
                    wakes = wakes_of(g.sockets, d.pid)
                    assert set(wakes) <= {(d.lhs_fd, RHS_INFO_RETURN)}, (d.pid, wakes)

        scenario = build_scenario(ScenarioConfig("ring-seq", size=size, inserters=inserters,
                                                 blocking=True))
        # Without the default properties, which 1/3 violates, every state is searched.
        report = explore(scenario, (Property("entering", EVERY_STATE, only_the_answer),))
        assert report.outcome == VERIFIED
        assert entering

    def test_rejected_outside_idle(self):
        scenario, g = ring_state("ring-par", 2, inserters=1)
        begin_insertion(g, g.procs[2])
        with pytest.raises(ProtocolViolation):
            begin_insertion(g, g.procs[2])


class TestParallelSplice:
    def setup_method(self):
        self.scenario, self.g = ring_state("ring-par", 3, inserters=1)
        self.inserter = self.g.procs[3]
        begin_insertion(self.g, self.inserter)
        deliver(self.g, 0)  # accept the entry connection

    def test_entry_replies_before_retiring_the_old_edge(self):
        g = self.g
        entry = g.procs[0]
        old_rhs_fd = entry.rhs_fd
        old_rhs_id = entry.rhs_id
        deliver(g, 0, cmd=NEW_RHS)
        # The reply reached the inserter even though the old edge is gone.
        reply = g.sockets.peek(self.inserter.lhs_fd)[QUEUE]
        assert [command_of(m) for m in reply] == [RECONNECT_RHS]
        assert reply[0][A] == old_rhs_id
        assert not g.sockets.is_allocated(old_rhs_fd)
        assert entry.rhs_id == self.inserter.pid
        assert entry.rhs2_id == old_rhs_id
        assert g.sockets.flag_of(entry.rhs_fd) == RHS

    def test_entry_tells_its_left_about_the_new_second_hop(self):
        g = self.g
        deliver(g, 0, cmd=NEW_RHS)
        # Entry pid 0's left neighbor is pid 2; the update is addressed to it.
        updates = [m for fd in owned_by(g, 2)
                   for m in g.sockets.peek(fd)[QUEUE] if command_of(m) == RHS2INFO]
        assert len(updates) == 1
        assert updates[0][A] == 2
        assert updates[0][B] == self.inserter.pid

    def test_inserter_attaches_right_on_reconnect(self):
        g = self.g
        deliver(g, 0, cmd=NEW_RHS)
        deliver(g, 3, cmd=RECONNECT_RHS)
        d = self.inserter
        assert d.phase == IN_RING
        assert d.await_cmd is None
        assert d.rhs_id == 1
        assert g.sockets.flag_of(d.rhs_fd) == RHS
        # The spliced-out neighbor is greeted so it can swap its left side.
        peer_queue = g.sockets.peek(g.sockets.other_of(d.rhs_fd))[QUEUE]
        assert [command_of(m) for m in peer_queue] == [NEW_LHS]

    def test_new_rhs_outside_the_ring_is_a_violation(self):
        g = self.g
        d = self.inserter  # still ENTERING_LHS
        fd = d.lhs_fd
        g.sockets.write(0, g.sockets.other_of(fd), message(NEW_RHS, a=1))
        with pytest.raises(ProtocolViolation):
            handle_event(g, d, fd, NEW_RHS)


class TestReconnectValidation:
    def make_entering(self):
        scenario, g = ring_state("ring-par", 2, inserters=1)
        d = g.procs[2]
        begin_insertion(g, d)
        deliver(g, 0)
        return scenario, g, d

    def feed_reply(self, g, d, target):
        entry_fd = g.sockets.other_of(d.lhs_fd)
        g.sockets.write(0, entry_fd, message(RECONNECT_RHS, a=target))
        handle_event(g, d, d.lhs_fd, RECONNECT_RHS)

    def test_reply_naming_the_inserter_itself_is_rejected(self):
        scenario, g, d = self.make_entering()
        with pytest.raises(ProtocolViolation, match="myself"):
            self.feed_reply(g, d, d.pid)

    def test_reply_naming_a_stranger_is_rejected(self):
        scenario, g, d = self.make_entering()
        with pytest.raises(ProtocolViolation, match="unknown"):
            self.feed_reply(g, d, len(g.procs))

    def test_reconnect_in_ring_is_rejected(self):
        scenario, g = ring_state("ring-par", 2)
        d = g.procs[1]
        g.sockets.write(0, g.procs[0].rhs_fd, message(RECONNECT_RHS, a=0))
        with pytest.raises(ProtocolViolation, match="unexpected reconnect_rhs"):
            handle_event(g, d, d.lhs_fd, RECONNECT_RHS)


class TestNewLhs:
    def test_replaces_stale_left_connection(self):
        scenario, g = ring_state("ring-par", 3, inserters=1)
        d = g.procs[1]
        stale = d.lhs_fd
        nfd = g.sockets.connect(3, 1)
        g.sockets.write(3, nfd, message(NEW_LHS, a=3))
        deliver(g, 1)  # accept
        deliver(g, 1, cmd=NEW_LHS)
        assert not g.sockets.is_allocated(stale)
        assert d.lhs_id == 3
        assert g.sockets.flag_of(d.lhs_fd) == LHS
        # The greeter is told its second-right neighbor straight away.
        reply = g.sockets.peek(nfd)[QUEUE]
        assert [command_of(m) for m in reply] == [RHS2INFO]
        assert reply[0][A] == 3 and reply[0][B] == d.rhs_id

    @pytest.mark.parametrize("algorithm,size,inserters", [
        ("ring-par", 1, 2), ("ring-par", 2, 2),
        *[("recovery", n, 0) for n in range(2, 7)],
        *[("trace", n, 0) for n in range(1, 5)],
    ])
    def test_every_greeted_daemon_knows_its_right_side(self, monkeypatch, algorithm, size,
                                                       inserters):
        # _on_new_lhs sends the greeter this daemon's rhs_id as its rhs2 at
        # once: a joiner's await_cmd keeps every new_lhs out until its
        # reconnect_rhs has set rhs_id. Over whole searches, no new_lhs
        # finds rhs_id unknown.
        real = daemons_mod._DISPATCH[NEW_LHS]
        calls = []

        def checked(g, d, fd, msg):
            assert d.rhs_id >= 0, f"d{d.pid} greeted before it knew its right side"
            calls.append(d.pid)
            real(g, d, fd, msg)
            g.shared_read = True  # derive no new_lhs key, so every one runs here

        monkeypatch.setitem(daemons_mod._DISPATCH, NEW_LHS, checked)
        scenario = build_scenario(ScenarioConfig(algorithm, size=size, inserters=inserters))
        report = explore(scenario, scenario.default_properties())
        assert report.outcome == VERIFIED
        assert calls or algorithm == "trace"


class TestRhs2Info:
    def test_addressed_update_is_applied(self):
        scenario, g = ring_state("ring-par", 3)
        d = g.procs[1]
        g.sockets.write(2, g.procs[2].lhs_fd, message(RHS2INFO, a=d.pid, b=0))
        deliver(g, 1, cmd=RHS2INFO)
        assert d.rhs2_id == 0

    def test_misaddressed_rhs2info_is_a_violation(self):
        # Each update is written to its addressee's own channel; one that
        # names another daemon is not passed on.
        scenario, g = ring_state("ring-par", 3)
        g.sockets.write(2, g.procs[2].lhs_fd, message(RHS2INFO, a=0, b=2))
        with pytest.raises(ProtocolViolation) as e:
            deliver(g, 1, cmd=RHS2INFO)
        # The target pid is rendered as its identity.
        assert str(e.value) == (
            "d1: rhs2info addressed to Identity(host='node0', port=9000)")
        assert g.procs[1].rhs2_id == 0  # unchanged prewiring
        assert g.sockets.peek(g.procs[0].rhs_fd)[QUEUE] == ()


class TestSequentialEntry:
    def test_forwarded_query_and_fifo_relay(self):
        scenario, g = ring_state("ring-seq", 2, inserters=2)
        entry = g.procs[0]
        for pid in (2, 3):
            begin_insertion(g, g.procs[pid])
            g.sockets.accept(0, g.sockets.other_of(g.procs[pid].lhs_fd))
        deliver(g, 0, cmd=RHS_INFO_REQUEST)
        deliver(g, 0, cmd=RHS_INFO_REQUEST)
        assert len(entry.pending_requesters) == 2
        # Both queries went around to pid 1, which answers with its identity.
        assert queued_cmds(g, 1).count(RHS_INFO_REQUEST) == 2
        deliver(g, 1, cmd=RHS_INFO_REQUEST)
        deliver(g, 1, cmd=RHS_INFO_REQUEST)
        deliver(g, 0, cmd=RHS_INFO_RETURN)
        deliver(g, 0, cmd=RHS_INFO_RETURN)
        assert entry.pending_requesters == ()
        # The overlap hands both inserters the same coordinates.
        answers = [m[A] for pid in (2, 3) for fd in owned_by(g, pid)
                   for m in g.sockets.peek(fd)[QUEUE] if command_of(m) == RHS_INFO_RETURN]
        assert answers == [1, 1]

    def test_query_on_own_lhs_answers_own_identity(self):
        scenario, g = ring_state("ring-seq", 2)
        d = g.procs[1]
        g.sockets.write(0, g.procs[0].rhs_fd, message(RHS_INFO_REQUEST))
        deliver(g, 1, cmd=RHS_INFO_REQUEST)
        returned = g.sockets.peek(g.procs[0].rhs_fd)[QUEUE]
        assert [command_of(m) for m in returned] == [RHS_INFO_RETURN]
        assert returned[0][A] == d.pid

    def test_unsolicited_return_is_a_violation(self):
        scenario, g = ring_state("ring-seq", 2)
        g.sockets.write(1, g.procs[1].lhs_fd, message(
            RHS_INFO_RETURN, a=1))
        with pytest.raises(ProtocolViolation, match="nobody waiting"):
            deliver(g, 0, cmd=RHS_INFO_RETURN)


class TestTrace:
    """A ring trace is its initiator's: only that daemon's record holds it."""

    def test_full_circuit_collects_identities_in_ring_order(self):
        scenario, g = ring_state("trace", 3)
        start_trace(g, g.procs[0])
        assert [d.trace for d in g.procs] == [(), None, None]
        deliver(g, 1, cmd=TRACE_REQ)
        deliver(g, 2, cmd=TRACE_REQ)
        assert [d.trace for d in g.procs] == [(), None, None]  # the others pass it on
        deliver(g, 0, cmd=TRACE_REQ)
        assert [d.trace for d in g.procs] == [(0, 1, 2), None, None]
        # The completion report circulates once and is absorbed.
        deliver(g, 1, cmd=TRACE_DONE)
        deliver(g, 2, cmd=TRACE_DONE)
        deliver(g, 0, cmd=TRACE_DONE)
        assert queued_cmds(g, 0) == queued_cmds(g, 1) == queued_cmds(g, 2) == []
        assert [d.trace for d in g.procs] == [(0, 1, 2), None, None]

    def test_the_dump_line_reads_the_initiators_record(self):
        scenario, g = ring_state("trace", 3)
        assert dump_line(g) == ""
        assert not any(line.startswith("trace") for line in g.dump().splitlines())
        start_trace(g, g.procs[0])
        assert dump_line(g) == "trace initiator=0 done=0 collected=[]"
        deliver(g, 1, cmd=TRACE_REQ)
        deliver(g, 2, cmd=TRACE_REQ)
        assert dump_line(g) == "trace initiator=0 done=0 collected=[]"
        deliver(g, 0, cmd=TRACE_REQ)
        assert dump_line(g) == "trace initiator=0 done=1 collected=[n0,n1,n2]"
        assert "trace initiator=0 done=1 collected=[n0,n1,n2]" in g.dump().splitlines()

    def test_a_daemons_trace_is_in_its_canon_and_copied_by_its_clone(self):
        d = DaemonState(0)
        assert d.trace is None
        d.trace = ()
        c = d.clone()
        assert c.trace == ()
        c.trace = (0, 1, 2)
        assert d.trace == ()  # the copy is its own record
        assert d.canon() != c.canon()
        assert c.canon() != DaemonState(0).canon() != d.canon()

    def test_the_stub_record_holds_nothing(self):
        stub = TraceState()  # no state holds one; it is kept for the benchmark's tracer
        assert stub.canon() == ()
        assert stub.clone() is stub
        assert not hasattr(stub, "__dict__")

    @pytest.mark.parametrize("size", [1, 3])
    def test_only_the_initiators_record_holds_a_trace_in_every_reachable_state(self, size):
        scenario, g0 = ring_state("trace", size)
        stack = [g0]
        seen = set()
        collected = set()
        while stack:
            g = stack.pop()
            key = encode(g)
            if key in seen:
                continue
            seen.add(key)
            holders = [d for d in g.procs if d.trace is not None]
            assert len(holders) <= 1
            assert trace_initiator(g) is (holders[0] if holders else None)
            if holders:
                assert holders[0].pid == 0  # the lowest-pid live daemon
                if holders[0].trace:
                    collected.add(holders[0].trace)
            offered = [s for s in enabled_steps(g) if s.cmd == ACT_START_TRACE]
            assert len(offered) <= (0 if holders else 1)
            for step in enabled_steps(g):
                stack.append(apply(g, step))
        assert collected == {tuple(range(size))}
        assert len(seen) > size

    def test_overlong_circulation_is_a_violation(self):
        scenario, g = ring_state("trace", 2)
        g.procs[0].trace = ()
        ids = (0, 1)
        g.sockets.write(0, g.procs[0].rhs_fd, message(TRACE_REQ, ids=ids))
        with pytest.raises(ProtocolViolation, match="past every daemon"):
            deliver(g, 1, cmd=TRACE_REQ)

    def test_trace_req_without_episode_is_a_violation(self):
        # No daemon started a trace, so none absorbs the stray trace_req;
        # it gains one pid per hop and trips the circulation guard within
        # one circuit.
        scenario, g = ring_state("trace", 2)
        g.sockets.write(0, g.procs[0].rhs_fd, message(TRACE_REQ, ids=(0,)))
        deliver(g, 1, cmd=TRACE_REQ)
        assert [m[IDS] for m in g.sockets.peek(g.procs[0].lhs_fd)[QUEUE]] == [(0, 1)]
        with pytest.raises(ProtocolViolation, match="past every daemon"):
            deliver(g, 0, cmd=TRACE_REQ)
        assert [d.trace for d in g.procs] == [None, None]


class TestFailureRecovery:
    def test_survivor_bridges_over_the_dead_neighbor(self):
        scenario, g = ring_state("recovery", 3)
        inject_failure(g, 1)
        assert g.procs[1].phase == DEAD
        d = g.procs[0]
        ev = [fd for fd, name in wakes_of(g.sockets, 0) if name == EVENT_EOF]
        assert ev and ev[0] == d.rhs_fd
        handle_event(g, d, ev[0], EVENT_EOF)
        assert d.rhs_id == 2
        assert d.rhs2_id == -1  # refreshed by the in-flight query
        greeting = g.sockets.peek(g.sockets.other_of(d.rhs_fd))[QUEUE]
        assert [command_of(m) for m in greeting] == [NEW_LHS, RHS_INFO_REQUEST]

    def test_left_eof_only_frees_the_slot(self):
        scenario, g = ring_state("recovery", 3)
        inject_failure(g, 1)
        d = g.procs[2]
        ev = [fd for fd, name in wakes_of(g.sockets, 2) if name == EVENT_EOF]
        handle_event(g, d, ev[0], EVENT_EOF)
        assert d.lhs_fd == INVALID_FD
        assert d.rhs_id == 0  # untouched

    def test_eof_on_neither_side_only_closes_that_fd(self):
        scenario, g = ring_state("ring-par", 2, inserters=1)
        d = g.procs[0]
        # A connection from pid 2 that d accepts but never adopts as a side.
        cfd = g.sockets.connect(2, 0)
        deliver(g, 0)  # accept
        stray = g.sockets.other_of(cfd)
        g.sockets.close(2, cfd)
        lhs_fd, rhs_fd = d.lhs_fd, d.rhs_fd
        assert (stray, EVENT_EOF) in wakes_of(g.sockets, 0)
        handle_event(g, d, stray, EVENT_EOF)
        assert not g.sockets.is_allocated(stray)
        assert (d.lhs_fd, d.rhs_fd) == (lhs_fd, rhs_fd)
        assert g.sockets.is_allocated(lhs_fd) and g.sockets.is_allocated(rhs_fd)

    def test_sequential_daemons_do_not_recover(self):
        scenario, g = ring_state("ring-seq", 3)
        inject_failure(g, 1)
        d = g.procs[0]
        ev = [fd for fd, name in wakes_of(g.sockets, 0) if name == EVENT_EOF]
        handle_event(g, d, ev[0], EVENT_EOF)
        assert d.rhs_fd == INVALID_FD
        assert queued_cmds(g, 2) == []  # no bridge was attempted

    def test_missing_rhs2_is_a_violation(self):
        scenario, g = ring_state("recovery", 3)
        g.procs[0].rhs2_id = -1
        inject_failure(g, 1)
        ev = [fd for fd, name in wakes_of(g.sockets, 0) if name == EVENT_EOF]
        with pytest.raises(ProtocolViolation, match="no rhs2"):
            handle_event(g, g.procs[0], ev[0], EVENT_EOF)

    def test_unknown_rhs2_is_a_violation(self):
        scenario, g = ring_state("recovery", 3)
        g.procs[0].rhs2_id = len(g.procs)  # names no daemon of this scenario
        inject_failure(g, 1)
        ev = [fd for fd, name in wakes_of(g.sockets, 0) if name == EVENT_EOF]
        with pytest.raises(ProtocolViolation, match="unknown identity"):
            handle_event(g, g.procs[0], ev[0], EVENT_EOF)

    def test_dead_rhs2_is_a_violation(self):
        scenario, g = ring_state("recovery", 4)
        inject_failure(g, 1)
        inject_failure(g, 2)
        ev = [fd for fd, name in wakes_of(g.sockets, 0) if name == EVENT_EOF]
        with pytest.raises(ProtocolViolation, match="both right-hand neighbors"):
            handle_event(g, g.procs[0], ev[0], EVENT_EOF)

    def test_ring_of_two_collapses_to_self_loop(self):
        scenario, g = ring_state("recovery", 2)
        inject_failure(g, 1)
        d = g.procs[0]
        for _ in range(2):  # EOF on both sides of the dead neighbor
            evs = [fd for fd, name in wakes_of(g.sockets, 0) if name == EVENT_EOF]
            if not evs:
                break
            handle_event(g, d, evs[0], EVENT_EOF)
        # d reconnected to itself via rhs2; finish its own handshake.
        while wakes_of(g.sockets, 0):
            deliver(g, 0)
        assert d.rhs_id == d.pid
        assert d.lhs_id == d.pid
        assert g.sockets.other_of(d.rhs_fd) == d.lhs_fd

    def test_double_injection_is_idempotent(self):
        scenario, g = ring_state("recovery", 3)
        inject_failure(g, 1)
        snapshot = g.sockets.dump()
        inject_failure(g, 1)
        assert g.sockets.dump() == snapshot


def test_barrier_command_reaching_a_daemon_is_a_violation():
    scenario, g = ring_state("ring-par", 2)
    g.sockets.write(0, g.procs[0].rhs_fd, message(BARRIER_IN))
    with pytest.raises(ProtocolViolation, match="unexpected command"):
        deliver(g, 1, cmd=BARRIER_IN)
