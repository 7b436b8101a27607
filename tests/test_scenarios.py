"""Scenario validation, sizing and initial wiring."""

import pytest

from ringcheck.barrier import BarrierBits, all_bits
from ringcheck.daemons import (ENTRY_PID, IDLE, IN_RING, PARALLEL, SEQUENTIAL, TraceState,
                               begin_insertion)
from ringcheck.errors import ScenarioError
from ringcheck.scenarios import (
    ALGORITHMS,
    FAIL_NONDET,
    ScenarioConfig,
    build_scenario,
    config_from_fields,
)
from ringcheck.sockets import LHS, RHS


class TestValidation:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_every_algorithm_builds(self, algorithm):
        size = 2
        sc = build_scenario(ScenarioConfig(algorithm, size=size))
        assert sc.algorithm == algorithm
        assert sc.n_initial == size

    def test_unknown_algorithm(self):
        with pytest.raises(ScenarioError, match="unknown algorithm"):
            build_scenario(ScenarioConfig("ring-quantum"))

    def test_size_must_be_positive(self):
        with pytest.raises(ScenarioError, match="at least 1"):
            build_scenario(ScenarioConfig("ring-par", size=0))

    def test_inserters_must_be_non_negative(self):
        with pytest.raises(ScenarioError, match="non-negative"):
            build_scenario(ScenarioConfig("ring-par", inserters=-1))

    def test_blocking_is_sequential_only(self):
        with pytest.raises(ScenarioError, match="sequential"):
            build_scenario(ScenarioConfig("ring-par", blocking=True))
        sc = build_scenario(ScenarioConfig("ring-seq", blocking=True))
        assert sc.seq_blocking

    def test_fail_pid_is_recovery_only(self):
        with pytest.raises(ScenarioError, match="recovery"):
            build_scenario(ScenarioConfig("ring-par", fail_pid=0))

    def test_recovery_constraints(self):
        with pytest.raises(ScenarioError, match="no inserters"):
            build_scenario(ScenarioConfig("recovery", size=3, inserters=1))
        with pytest.raises(ScenarioError, match="at least 2"):
            build_scenario(ScenarioConfig("recovery", size=1))
        with pytest.raises(ScenarioError, match="not a ring member"):
            build_scenario(ScenarioConfig("recovery", size=3, fail_pid=3))

    def test_barrier_has_no_inserters(self):
        with pytest.raises(ScenarioError, match="no inserters"):
            build_scenario(ScenarioConfig("barrier", size=3, inserters=1))

    def test_variant_and_feature_selection(self):
        assert build_scenario(ScenarioConfig("ring-seq", inserters=1)).variant == SEQUENTIAL
        assert build_scenario(ScenarioConfig("ring-par", inserters=1)).variant == PARALLEL
        trace = build_scenario(ScenarioConfig("trace", size=3))
        assert trace.variant == PARALLEL and trace.trace_enabled
        rec = build_scenario(ScenarioConfig("recovery", size=3))
        assert rec.variant == PARALLEL and rec.trace_enabled
        assert rec.failure == FAIL_NONDET
        assert build_scenario(ScenarioConfig("recovery", size=3, fail_pid=1)).failure == 1
        plain = build_scenario(ScenarioConfig("ring-par", size=3))
        assert plain.failure is None and not plain.trace_enabled


class TestSizing:
    @pytest.mark.parametrize("size,inserters", [(1, 1), (2, 2), (4, 0), (3, 3)])
    def test_derived_capacities(self, size, inserters):
        sc = build_scenario(ScenarioConfig("ring-par", size=size, inserters=inserters))
        total = size + inserters
        assert sc.total == total
        assert sc.conn_max == 2 * total + 2 * inserters
        assert sc.qsz == max(1, total)
        g = sc.initial_state()
        assert len(g.procs) == total  # also the rhs2info hop budget
        assert sc.registry.name(total - 1) is not None
        with pytest.raises(IndexError):
            sc.registry.name(total)
        assert [p.pid for p in g.procs if p.phase == IDLE] == list(range(sc.n_initial, total))

    def test_entry_is_the_first_daemon(self):
        sc = build_scenario(ScenarioConfig("ring-par", size=3, inserters=1))
        g = sc.initial_state()
        d = g.procs[3]
        begin_insertion(g, d)
        assert ENTRY_PID == 0
        assert d.lhs_id == ENTRY_PID
        assert g.sockets.owner_of(g.sockets.other_of(d.lhs_fd)) == ENTRY_PID


class TestInitialState:
    def test_prewired_ring_is_quiescent_and_healthy(self):
        from ringcheck.properties import check_neighbor_state, ring_order

        sc = build_scenario(ScenarioConfig("ring-par", size=5))
        g = sc.initial_state()
        assert all(d.phase == IN_RING for d in g.procs)
        assert [d.pid for d in ring_order(g)] == [0, 1, 2, 3, 4]
        check_neighbor_state(g)
        g.sockets.check_invariants()

    def test_ring_of_one_bootstraps_itself(self):
        sc = build_scenario(ScenarioConfig("ring-par", size=1, inserters=1))
        g = sc.initial_state()
        d = g.procs[0]
        assert d.phase == IN_RING
        assert g.sockets.other_of(d.rhs_fd) == d.lhs_fd
        assert g.procs[1].phase != IN_RING

    def test_barrier_ring_is_wired_and_idle(self):
        sc = build_scenario(ScenarioConfig("barrier", size=4))
        g = sc.initial_state()
        assert len(g.procs) == 4 and all_bits(g) == 0b1111
        assert type(g.episode) is BarrierBits
        assert g.episode.client_barrier_in == 0 == g.episode.client_barrier_out
        for i, m in enumerate(g.procs):
            peer = g.sockets.other_of(m.rhs_fd)
            assert g.sockets.owner_of(peer) == (i + 1) % 4
            assert g.sockets.flag_of(peer) == LHS and g.sockets.flag_of(m.rhs_fd) == RHS
        g.sockets.check_invariants()

    def test_ring_states_carry_a_trace_slot(self):
        sc = build_scenario(ScenarioConfig("ring-par", size=2))
        g = sc.initial_state()
        assert type(g.episode) is TraceState and not g.episode.started


class TestConfigRoundtrip:
    @pytest.mark.parametrize("cfg", [
        ScenarioConfig("ring-seq", size=2, inserters=2),
        ScenarioConfig("ring-seq", size=2, inserters=1, blocking=True),
        ScenarioConfig("ring-par", size=1, inserters=3),
        ScenarioConfig("trace", size=4),
        ScenarioConfig("recovery", size=5),
        ScenarioConfig("recovery", size=3, fail_pid=2),
        ScenarioConfig("barrier", size=7),
    ])
    def test_fields_roundtrip_through_text(self, cfg):
        sc = build_scenario(cfg)
        fields = {k: str(v) for k, v in sc.config_fields().items()}
        rebuilt = build_scenario(config_from_fields(fields))
        assert rebuilt.config_fields() == sc.config_fields()

    def test_incomplete_fields_are_rejected(self):
        with pytest.raises(ScenarioError, match="incomplete"):
            config_from_fields({"algorithm": "ring-par"})


class TestConfigRecord:
    def test_builds_positionally_with_no_failure_by_default(self):
        # The benchmark's worker builds its configs this way.
        cfg = ScenarioConfig("ring-seq", 2, 3, True)
        assert (cfg.algorithm, cfg.size, cfg.inserters, cfg.blocking, cfg.fail_pid) == (
            "ring-seq", 2, 3, True, None)
        assert cfg == ScenarioConfig("ring-seq", size=2, inserters=3, blocking=True)
        assert repr(cfg) == ("ScenarioConfig(algorithm='ring-seq', size=2, inserters=3, "
                             "blocking=True, fail_pid=None)")

    def test_defaults_and_immutability(self):
        cfg = ScenarioConfig("barrier")
        assert (cfg.size, cfg.inserters, cfg.blocking, cfg.fail_pid) == (2, 0, False, None)
        with pytest.raises(AttributeError):
            cfg.size = 3
