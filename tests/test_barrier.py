"""Manager-ring barrier: token handlers and the leader-last ordering."""

import pytest

from ringcheck.barrier import all_bits, client_reaches_barrier, handle_event
from ringcheck.errors import ProtocolViolation
from ringcheck.explorer import VERIFIED, apply, enabled_steps, explore
from ringcheck.messages import BARRIER_IN, BARRIER_OUT, command_of, message
from ringcheck.scenarios import ScenarioConfig, build_scenario
from ringcheck.sockets import EVENT_CONNECT, LHS


def barrier_state(n):
    scenario = build_scenario(ScenarioConfig("barrier", size=n))
    return scenario, scenario.initial_state()


def lhs_of(g, pid):
    """Manager pid's left side: the peer of its left neighbour's rhs_fd."""
    fd = g.sockets.other_of(g.procs[(pid - 1) % len(g.procs)].rhs_fd)
    assert g.sockets.owner_of(fd) == pid and g.sockets.flag_of(fd) == LHS
    return fd


def deliver(g, pid):
    evs = g.sockets.ready_events().get(pid, [])
    assert evs, f"manager {pid} has nothing to read"
    handle_event(g, g.procs[pid], *evs[0])


class TestTokens:
    def test_leader_arrival_launches_the_in_token(self):
        scenario, g = barrier_state(3)
        client_reaches_barrier(g, g.procs[0])
        assert g.episode.client_barrier_in == 0b001
        assert g.procs[0].sent_barrier_in
        q = g.sockets.queue_of(lhs_of(g, 1))
        assert [command_of(m) for m in q] == [BARRIER_IN]

    def test_follower_arrival_alone_sends_nothing(self):
        scenario, g = barrier_state(3)
        client_reaches_barrier(g, g.procs[1])
        assert g.episode.client_barrier_in == 0b010
        assert not g.procs[1].sent_barrier_in

    def test_token_parks_until_the_local_client_arrives(self):
        scenario, g = barrier_state(3)
        client_reaches_barrier(g, g.procs[0])
        deliver(g, 1)
        assert g.procs[1].holding_barrier_in
        assert not g.procs[1].sent_barrier_in
        client_reaches_barrier(g, g.procs[1])
        assert not g.procs[1].holding_barrier_in
        assert [command_of(m) for m in g.sockets.queue_of(lhs_of(g, 2))] == [BARRIER_IN]

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
                before = g.episode.client_barrier_out
                if g.sockets.ready_events().get(pid, []):
                    deliver(g, pid)
                    moved = True
                    after = g.episode.client_barrier_out
                    if after != before:
                        release_order.append(pid)
            if not moved:
                break
        assert g.episode.client_barrier_in == all_bits(g)
        assert g.episode.client_barrier_out == all_bits(g)
        assert release_order[-1] == 0  # leader absorbs barrier_out, exits last

    def test_double_arrival_is_a_violation(self):
        scenario, g = barrier_state(2)
        client_reaches_barrier(g, g.procs[1])
        with pytest.raises(ProtocolViolation, match="client arrived twice"):
            client_reaches_barrier(g, g.procs[1])

    def test_double_out_token_is_a_violation(self):
        scenario, g = barrier_state(2)
        m = g.procs[1]
        g.episode.client_barrier_in = all_bits(g)
        g.episode.client_barrier_out = 1 << 1
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
        g.episode.client_barrier_in = 0  # forge a fresh-looking episode
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
            bits = g.episode
            if bits.client_barrier_out & 1:
                assert bits.client_barrier_out == all_bits(g)

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
