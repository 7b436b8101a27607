"""Property checks evaluated against hand-corrupted states.

Every check must accept the healthy initial rings and reject each specific
corruption with a message naming the problem; the explorers' verdicts are
only as good as these rejections.
"""

import pytest

from ringcheck.barrier import all_bits
from ringcheck.daemons import DEAD, ENTERING_LHS
from ringcheck.errors import PropertyViolation
from ringcheck.explorer import EVERY_STATE, QUIESCENCE_ONLY
from ringcheck.properties import (
    check_barrier_end,
    check_barrier_invariant,
    check_neighbor_state,
    check_ring_topology,
    check_socket_invariants,
    check_trace_completion,
    ring_order,
)
from ringcheck.scenarios import ScenarioConfig, build_scenario
from ringcheck.sockets import LHS, RHS


def ring(n, algorithm="ring-par"):
    return build_scenario(ScenarioConfig(algorithm, size=n)).initial_state()


def barrier(n):
    return build_scenario(ScenarioConfig("barrier", size=n)).initial_state()


class TestRingOrder:
    def test_healthy_ring_walks_in_pid_order(self):
        g = ring(4)
        assert [d.pid for d in ring_order(g)] == [0, 1, 2, 3]

    def test_ring_of_one_walks_its_self_loop(self):
        g = ring(1)
        assert [d.pid for d in ring_order(g)] == [0]

    def test_dead_daemons_are_excluded(self):
        g = ring(3)
        # Splice pid 1 out by hand, then mark it dead.
        d0, d1, d2 = g.procs
        g.sockets.close(1, d1.lhs_fd)
        g.sockets.close(1, d1.rhs_fd)
        g.sockets.close(0, d0.rhs_fd)
        g.sockets.close(2, d2.lhs_fd)
        cfd = g.sockets.connect(0, 2)
        g.sockets.set_flag(cfd, RHS)
        sfd = g.sockets.accept(2)
        g.sockets.set_flag(sfd, LHS)
        d0.rhs_fd = cfd
        d2.lhs_fd = sfd
        d1.phase = DEAD
        d1.lhs_fd = d1.rhs_fd = -1
        assert [d.pid for d in ring_order(g)] == [0, 2]

    def test_entering_daemon_blocks_the_walk(self):
        g = ring(2)
        g.procs[1].phase = ENTERING_LHS
        with pytest.raises(PropertyViolation, match="stuck in phase"):
            ring_order(g)

    def test_pending_await_blocks_the_walk(self):
        g = ring(2)
        g.procs[1].await_cmd = "reconnect_rhs"
        with pytest.raises(PropertyViolation, match="still awaits"):
            ring_order(g)

    def test_half_open_edge_is_rejected(self):
        g = ring(3)
        g.sockets.close(1, g.procs[1].lhs_fd)
        with pytest.raises(PropertyViolation, match="half open"):
            ring_order(g)

    def test_short_cycle_is_rejected(self):
        g = ring(4)
        # Rewire pid 1 to point straight back at pid 0's left side.
        d0, d1 = g.procs[0], g.procs[1]
        g.sockets.close(1, d1.rhs_fd)
        g.sockets.close(0, d0.lhs_fd)
        cfd = g.sockets.connect(1, 0)
        g.sockets.set_flag(cfd, RHS)
        sfd = g.sockets.accept(0)
        g.sockets.set_flag(sfd, LHS)
        d1.rhs_fd = cfd
        d0.lhs_fd = sfd
        with pytest.raises(PropertyViolation, match="ring closes after 2 of 4"):
            ring_order(g)

    def test_edge_entering_a_non_left_fd_is_rejected(self):
        g = ring(3)
        g.procs[1].lhs_fd = g.procs[1].rhs_fd
        with pytest.raises(PropertyViolation, match="not its left side"):
            ring_order(g)


class TestRingTopology:
    def test_settled_ring_passes(self):
        check_ring_topology(ring(3))

    def test_undelivered_message_fails(self):
        from ringcheck.messages import NEW_RHS, message

        g = ring(3)
        g.sockets.write(0, g.procs[0].rhs_fd, message(NEW_RHS))
        with pytest.raises(PropertyViolation, match="undelivered"):
            check_ring_topology(g)


class TestNeighborState:
    def test_prewired_ring_passes(self):
        check_neighbor_state(ring(5))

    def test_wrong_rhs2_fails(self):
        g = ring(4)
        g.procs[2].rhs2_id = 2
        with pytest.raises(PropertyViolation, match="rhs2"):
            check_neighbor_state(g)

    def test_wrong_lhs_fails(self):
        g = ring(4)
        g.procs[0].lhs_id = 1
        with pytest.raises(PropertyViolation, match="left neighbor"):
            check_neighbor_state(g)

    # The exact violation texts below are part of the verify output and of
    # counterexample files, so they are pinned byte for byte.
    def test_rhs_violation_text_names_the_recorded_identity(self):
        g = ring(4)
        g.procs[1].rhs_id = 3
        with pytest.raises(PropertyViolation) as e:
            check_neighbor_state(g)
        assert str(e.value) == (
            "d1 records rhs Identity(host='node3', port=9003) but its right neighbor is d2")

    def test_rhs2_violation_text_says_none_when_unrecorded(self):
        g = ring(4)
        g.procs[2].rhs2_id = -1
        with pytest.raises(PropertyViolation) as e:
            check_neighbor_state(g)
        assert str(e.value) == "d2 records rhs2 None but two hops right sits d0"


class TestTraceCompletion:
    def setup_method(self):
        self.g = ring(3)
        t = self.g.episode
        t.initiator = 0
        t.collected = tuple(d.pid for d in self.g.procs)

    def test_complete_episode_passes(self):
        check_trace_completion(self.g)

    def test_rotation_must_start_at_the_initiator(self):
        self.g.episode.initiator = 1
        with pytest.raises(PropertyViolation, match="trace collected"):
            check_trace_completion(self.g)
        self.g.episode.collected = (1, 2, 0)
        check_trace_completion(self.g)

    def test_violation_text_lists_identities(self):
        self.g.episode.initiator = 1
        with pytest.raises(PropertyViolation) as e:
            check_trace_completion(self.g)
        assert str(e.value) == (
            "trace collected [Identity(host='node0', port=9000),"
            "Identity(host='node1', port=9001),Identity(host='node2', port=9002)] "
            "but the ring is [Identity(host='node1', port=9001),"
            "Identity(host='node2', port=9002),Identity(host='node0', port=9000)]")

    def test_unstarted_episode_fails(self):
        self.g.episode.initiator = -1
        with pytest.raises(PropertyViolation, match="never started"):
            check_trace_completion(self.g)

    def test_unfinished_episode_fails(self):
        self.g.episode.collected = ()
        with pytest.raises(PropertyViolation, match="never completed"):
            check_trace_completion(self.g)

    def test_missing_daemon_fails(self):
        self.g.episode.collected = self.g.episode.collected[:-1]
        with pytest.raises(PropertyViolation, match="trace collected"):
            check_trace_completion(self.g)


class TestBarrierChecks:
    def test_initial_state_upholds_the_invariant(self):
        check_barrier_invariant(barrier(3))

    def test_release_before_full_arrival_fails(self):
        g = barrier(3)
        g.episode.client_barrier_in = 0b011
        g.episode.client_barrier_out = 0b010
        with pytest.raises(PropertyViolation, match="release began with arrivals"):
            check_barrier_invariant(g)

    def test_release_with_parked_token_fails(self):
        g = barrier(2)
        g.episode.client_barrier_in = all_bits(g)
        g.episode.client_barrier_out = 0b01
        g.procs[1].holding_barrier_in = True
        with pytest.raises(PropertyViolation, match="still parked"):
            check_barrier_invariant(g)

    def test_finished_episode_passes_the_end_check(self):
        g = barrier(2)
        g.episode.client_barrier_in = all_bits(g)
        g.episode.client_barrier_out = all_bits(g)
        for m in g.procs:
            m.sent_barrier_in = m.sent_barrier_out = True
        check_barrier_end(g)

    def test_unreleased_client_fails_the_end_check(self):
        g = barrier(2)
        g.episode.client_barrier_in = all_bits(g)
        g.episode.client_barrier_out = 0b01
        with pytest.raises(PropertyViolation, match="release bits"):
            check_barrier_end(g)

    def test_token_never_passed_fails_the_end_check(self):
        g = barrier(2)
        g.episode.client_barrier_in = all_bits(g)
        g.episode.client_barrier_out = all_bits(g)
        with pytest.raises(PropertyViolation, match="never passed"):
            check_barrier_end(g)


def test_socket_invariant_check_accounts_for_dead_pids():
    g = ring(2, algorithm="recovery")
    check_socket_invariants(g)
    g.procs[1].phase = DEAD  # died without the table noticing: a real fault
    with pytest.raises(Exception, match="dead pid"):
        check_socket_invariants(g)


def test_factories_pin_kind_and_evaluation_point():
    # Property order decides which violation is reported first.
    from ringcheck import properties as props

    every, quiet = EVERY_STATE, QUIESCENCE_ONLY
    ring = (("socket_invariants", every), ("ring_topology", quiet))
    expected = {
        "ring-seq": ring,
        "ring-par": ring + (("neighbor_state", quiet),),
        "trace": ring + (("neighbor_state", quiet), ("trace_completion", quiet)),
        "recovery": ring + (("neighbor_state", quiet), ("trace_completion", quiet)),
        "barrier": (("socket_invariants", every), ("barrier_invariant", every),
                    ("barrier_end", quiet)),
    }
    for algorithm, pairs in expected.items():
        checks = build_scenario(ScenarioConfig(algorithm, size=2)).default_properties()
        assert tuple((p.kind, p.when) for p in checks) == pairs, algorithm
        assert all(p.fn is props._CHECKS[p.kind] for p in checks)
