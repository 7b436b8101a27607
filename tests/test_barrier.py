"""Manager-ring barrier: token handlers and the leader-last ordering."""

import pytest

from ringcheck.barrier import (BarrierBits, ManagerState, client_bits, client_reaches_barrier,
                               dump_line, handle_event)
from ringcheck.errors import ProtocolViolation
from ringcheck.explorer import VERIFIED, apply, enabled_steps, explore
from ringcheck.messages import BARRIER_IN, BARRIER_OUT, command_of, message
from ringcheck.scenarios import ScenarioConfig, build_scenario
from ringcheck.sockets import EVENT_CONNECT, LHS, QUEUE

from conftest import set_client_bits, wakes_of


def barrier_state(n):
    scenario = build_scenario(ScenarioConfig("barrier", size=n))
    return scenario, scenario.initial_state()


def lhs_of(g, pid):
    """Manager pid's left side: the peer of its left neighbour's rhs_fd."""
    fd = g.sockets.other_of(g.procs[(pid - 1) % len(g.procs)].rhs_fd)
    assert g.sockets.owner_of(fd) == pid and g.sockets.flag_of(fd) == LHS
    return fd


def deliver(g, pid):
    evs = wakes_of(g.sockets, pid)
    assert evs, f"manager {pid} has nothing to read"
    handle_event(g, g.procs[pid], *evs[0])


class TestTokens:
    def test_leader_arrival_launches_the_in_token(self):
        scenario, g = barrier_state(3)
        client_reaches_barrier(g, g.procs[0])
        assert client_bits(g) == (0b001, 0)
        assert g.procs[0].sent_barrier_in
        q = g.sockets.peek(lhs_of(g, 1))[QUEUE]
        assert [command_of(m) for m in q] == [BARRIER_IN]

    def test_follower_arrival_alone_sends_nothing(self):
        scenario, g = barrier_state(3)
        client_reaches_barrier(g, g.procs[1])
        assert client_bits(g) == (0b010, 0)
        assert not g.procs[1].sent_barrier_in

    def test_token_parks_until_the_local_client_arrives(self):
        scenario, g = barrier_state(3)
        client_reaches_barrier(g, g.procs[0])
        deliver(g, 1)
        assert g.procs[1].holding_barrier_in
        assert not g.procs[1].sent_barrier_in
        client_reaches_barrier(g, g.procs[1])
        assert not g.procs[1].holding_barrier_in
        assert [command_of(m) for m in g.sockets.peek(lhs_of(g, 2))[QUEUE]] == [BARRIER_IN]

    def test_token_passes_straight_through_an_arrived_manager(self):
        scenario, g = barrier_state(3)
        client_reaches_barrier(g, g.procs[1])
        client_reaches_barrier(g, g.procs[0])
        deliver(g, 1)
        assert not g.procs[1].holding_barrier_in
        assert g.procs[1].sent_barrier_in

    def test_full_episode_releases_leader_last(self):
        scenario, g = barrier_state(3)
        release_order = []
        for pid in (2, 0, 1):
            client_reaches_barrier(g, g.procs[pid])
        while True:
            moved = False
            for pid in range(3):
                before = client_bits(g)[1]
                if wakes_of(g.sockets, pid):
                    deliver(g, pid)
                    moved = True
                    after = client_bits(g)[1]
                    if after != before:
                        release_order.append(pid)
            if not moved:
                break
        assert client_bits(g) == (0b111, 0b111)
        assert release_order[-1] == 0  # leader absorbs barrier_out, exits last

    def test_double_arrival_is_a_violation(self):
        scenario, g = barrier_state(2)
        client_reaches_barrier(g, g.procs[1])
        with pytest.raises(ProtocolViolation, match="client arrived twice"):
            client_reaches_barrier(g, g.procs[1])

    def test_double_out_token_is_a_violation(self):
        scenario, g = barrier_state(2)
        m = g.procs[1]
        set_client_bits(g, 0b11, 0b10)
        g.sockets.write(0, g.procs[0].rhs_fd, message(BARRIER_OUT))
        with pytest.raises(ProtocolViolation, match="barrier_out arrived twice"):
            deliver(g, 1)

    def test_release_before_arrival_is_a_violation(self):
        scenario, g = barrier_state(2)
        g.sockets.write(0, g.procs[0].rhs_fd, message(BARRIER_OUT))
        with pytest.raises(ProtocolViolation, match="before my client arrived"):
            deliver(g, 1)

    def test_second_send_on_one_channel_is_a_violation(self):
        scenario, g = barrier_state(2)
        client_reaches_barrier(g, g.procs[0])
        g.procs[0].client_in = False  # forge a fresh-looking episode
        with pytest.raises(ProtocolViolation, match="second barrier_in"):
            client_reaches_barrier(g, g.procs[0])

    def test_ring_command_on_manager_is_a_violation(self):
        scenario, g = barrier_state(2)
        g.sockets.write(0, g.procs[0].rhs_fd, message("new_rhs"))
        with pytest.raises(ProtocolViolation, match="unexpected command"):
            deliver(g, 1)

    def test_connect_event_on_manager_ring_is_a_violation(self):
        scenario, g = barrier_state(2)
        with pytest.raises(ProtocolViolation, match="unexpected"):
            handle_event(g, g.procs[0], 0, EVENT_CONNECT)


class TestClientFlags:
    """Each manager keeps its client's two flags; no record is shared."""

    def test_a_managers_flags_are_in_its_canon_and_copied_by_its_clone(self):
        m = ManagerState(2)
        m.client_in = True
        c = m.clone()
        assert (c.client_in, c.client_out) == (True, False)
        c.client_out = True
        assert not m.client_out  # the copy is its own record
        assert m.canon()[-2:] == (True, False) and c.canon()[-2:] == (True, True)
        assert m.canon() != c.canon()

    def test_the_stub_record_holds_nothing(self):
        bits = BarrierBits()  # no state holds one; it is kept for the benchmark's tracer
        assert bits.canon() == ()
        assert bits.clone() is bits
        assert not hasattr(bits, "__dict__")

    @pytest.mark.parametrize("n,arrived,released,line", [
        (1, 0, 0, "bits in=0 out=0"),
        (4, 0b0101, 0b0001, "bits in=0101 out=0001"),
        (5, 0b11111, 0b11110, "bits in=11111 out=11110"),
    ])
    def test_the_dump_line_packs_the_managers_flags(self, n, arrived, released, line):
        scenario, g = barrier_state(n)
        set_client_bits(g, arrived, released)
        assert client_bits(g) == (arrived, released)
        assert [(m.client_in, m.client_out) for m in g.procs] == [
            (bool(arrived >> i & 1), bool(released >> i & 1)) for i in range(n)]
        assert dump_line(g) == line
        assert line in g.dump().splitlines()


class TestBarrierExploration:
    def test_every_interleaving_of_three_managers_verifies(self):
        scenario = build_scenario(ScenarioConfig("barrier", size=3))
        report = explore(scenario, scenario.default_properties())
        assert report.outcome == VERIFIED

    def test_leader_release_is_always_last(self):
        # In every reachable state, the leader's client being out implies
        # everyone's client is out.
        scenario = build_scenario(ScenarioConfig("barrier", size=3))

        def leader_last(g):
            released = client_bits(g)[1]
            if released & 1:
                assert released == 0b111

        stack = [scenario.initial_state()]
        seen = set()
        from ringcheck.explorer import encode

        while stack:
            g = stack.pop()
            key = encode(g)
            if key in seen:
                continue
            seen.add(key)
            leader_last(g)
            for step in enabled_steps(g):
                stack.append(apply(g, step))
        assert len(seen) > 1
