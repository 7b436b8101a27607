"""Explorer mechanics: step enumeration, state encoding, search, replay."""

import pytest

from ringcheck.errors import ContractViolation
from ringcheck.explorer import (
    ACT_BEGIN_INSERTION,
    ACT_INJECT_FAILURE,
    ACT_START_TRACE,
    KIND_ACTION,
    KIND_EVENT,
    RESOURCE_LIMIT,
    VERIFIED,
    VIOLATION,
    ScheduleStep,
    apply,
    enabled_steps,
    encode,
    explore,
    replay,
    simulate,
    state_digest,
    walk,
)
from ringcheck.messages import RECONNECT_RHS
from ringcheck.scenarios import ScenarioConfig, build_scenario


def scenario_for(algorithm, **kw):
    return build_scenario(ScenarioConfig(algorithm, **kw))


class TestEnabledSteps:
    def test_initial_ring_offers_only_the_inserters(self):
        sc = scenario_for("ring-par", size=2, inserters=2)
        steps = enabled_steps(sc.initial_state())
        assert steps == [
            ScheduleStep(2, KIND_ACTION, -1, ACT_BEGIN_INSERTION),
            ScheduleStep(3, KIND_ACTION, -1, ACT_BEGIN_INSERTION),
        ]

    def test_order_is_deterministic_and_sorted(self):
        sc = scenario_for("ring-par", size=2, inserters=2)
        g = sc.initial_state()
        for _ in range(3):
            steps = enabled_steps(g)
            assert steps == enabled_steps(g)
            assert steps == sorted(steps, key=lambda s: (s.pid, s.fd))
            g = apply(g, steps[0])

    def test_awaiting_daemon_sees_only_the_awaited_reply(self):
        sc = scenario_for("ring-par", size=2, inserters=1)
        g = sc.initial_state()
        g = apply(g, ScheduleStep(2, KIND_ACTION, -1, ACT_BEGIN_INSERTION))
        g = apply(g, enabled_steps(g)[0])  # entry daemon accepts
        g = apply(g, [s for s in enabled_steps(g) if s.pid == 0][0])  # new_rhs
        for step in enabled_steps(g):
            if step.pid == 2:
                assert step.kind == KIND_EVENT
                assert step.cmd == RECONNECT_RHS

    def test_failure_action_offered_once_per_live_pid(self):
        sc = scenario_for("recovery", size=3)
        g = sc.initial_state()
        fails = [s for s in enabled_steps(g) if s.cmd == ACT_INJECT_FAILURE]
        assert [s.pid for s in fails] == [0, 1, 2]
        g = apply(g, fails[1])
        # One daemon is down; no further failures are injected.
        assert all(s.cmd != ACT_INJECT_FAILURE for s in enabled_steps(g))

    def test_fixed_victim_failure_targets_one_pid(self):
        sc = scenario_for("recovery", size=3, fail_pid=2)
        fails = [s for s in enabled_steps(sc.initial_state())
                 if s.cmd == ACT_INJECT_FAILURE]
        assert [s.pid for s in fails] == [2]

    def test_trace_start_waits_for_everything_else(self):
        sc = scenario_for("trace", size=2)
        g = sc.initial_state()
        assert enabled_steps(g) == [ScheduleStep(0, KIND_ACTION, -1, ACT_START_TRACE)]
        g = apply(g, enabled_steps(g)[0])
        assert all(s.cmd != ACT_START_TRACE for s in enabled_steps(g))

    def test_dead_daemons_offer_nothing(self):
        sc = scenario_for("recovery", size=2)
        g = sc.initial_state()
        g = apply(g, ScheduleStep(1, KIND_ACTION, -1, ACT_INJECT_FAILURE))
        assert all(s.pid != 1 for s in enabled_steps(g))


class TestApply:
    def test_apply_returns_a_distinct_state(self):
        sc = scenario_for("ring-par", size=2, inserters=1)
        g = sc.initial_state()
        h = apply(g, enabled_steps(g)[0])
        assert encode(g) != encode(h)
        assert enabled_steps(g) == [ScheduleStep(2, KIND_ACTION, -1, ACT_BEGIN_INSERTION)]

    def test_apply_rejects_unknown_actions(self):
        sc = scenario_for("ring-par", size=2, inserters=1)
        g = sc.initial_state()
        with pytest.raises(ContractViolation):
            apply(g, ScheduleStep(0, KIND_ACTION, -1, "reboot"))


class TestEncoding:
    def test_equal_construction_equal_bytes(self):
        sc = scenario_for("ring-par", size=3, inserters=1)
        assert encode(sc.initial_state()) == encode(sc.initial_state())
        assert state_digest(sc.initial_state()) == state_digest(sc.initial_state())

    def test_steps_change_the_encoding(self):
        sc = scenario_for("ring-par", size=2, inserters=1)
        g = sc.initial_state()
        h = apply(g, enabled_steps(g)[0])
        assert state_digest(g) != state_digest(h)

    def test_digest_regression_values(self):
        # Frozen encodings: a change here means every stored baseline in this
        # suite (state counts, probe counts) must be re-derived.
        ring = scenario_for("ring-par", size=2, inserters=1)
        assert state_digest(ring.initial_state()).hex() == (
            "03efd16c3c2b394c349499f4b1ca303d")
        barrier = scenario_for("barrier", size=2)
        assert state_digest(barrier.initial_state()).hex() == (
            "237f34f4b92dbcf275b55d871c962e3c")


class TestExplore:
    def test_small_parallel_insertion_verifies(self):
        sc = scenario_for("ring-par", size=1, inserters=1)
        report = explore(sc, sc.default_properties())
        assert report.outcome == VERIFIED
        assert report.violation is None and report.trace is None
        assert report.states_stored >= 1
        assert report.states_matched >= 0
        assert report.elapsed >= 0.0

    def test_state_budget_reports_resource_limit(self):
        sc = scenario_for("ring-par", size=2, inserters=1)
        report = explore(sc, sc.default_properties(), max_states=3)
        assert report.outcome == RESOURCE_LIMIT
        assert report.states_stored == 3

    def test_depth_budget_reports_resource_limit(self):
        sc = scenario_for("ring-par", size=2, inserters=1)
        report = explore(sc, sc.default_properties(), max_depth=2)
        assert report.outcome == RESOURCE_LIMIT

    def test_quiescent_hook_sees_every_quiescent_state(self):
        sc = scenario_for("ring-par", size=1, inserters=1)
        seen = []
        explore(sc, sc.default_properties(), on_quiescent=seen.append)
        assert len(seen) >= 1
        assert all(not enabled_steps(q) for q in seen)

    def test_violation_carries_a_replayable_trace(self):
        sc = scenario_for("ring-seq", size=2, inserters=2)
        report = explore(sc, sc.default_properties())
        assert report.outcome == VIOLATION
        assert report.violation
        assert report.trace
        result = replay(sc, report.trace, sc.default_properties())
        assert result.violation == report.violation


class TestSimulate:
    def test_same_seed_same_walk(self):
        sc = scenario_for("ring-par", size=2, inserters=1)
        a = simulate(sc, sc.default_properties(), seed=11)
        b = simulate(sc, sc.default_properties(), seed=11)
        assert a.trace == b.trace
        assert a.quiescent and b.quiescent
        assert a.violation is None and b.violation is None
        assert encode(a.final_state) == encode(b.final_state)

    def test_seeds_pick_different_walks(self):
        sc = scenario_for("ring-par", size=2, inserters=2)
        traces = {simulate(sc, seed=s).trace for s in range(8)}
        assert len(traces) > 1

    def test_step_budget_stops_the_walk(self):
        sc = scenario_for("ring-par", size=2, inserters=2)
        r = simulate(sc, seed=0, max_steps=2)
        assert len(r.trace) == 2
        assert not r.quiescent

    def test_walk_stops_at_a_handler_error_and_keeps_the_step(self):
        sc = scenario_for("ring-seq", size=2, inserters=4)
        r = simulate(sc, sc.default_properties(), seed=2)
        assert r.violation and not r.quiescent
        # The failing step is the last one taken, and it is enabled where it ran.
        assert r.trace[-1] in enabled_steps(r.final_state)
        afters = []
        again = replay(sc, r.trace, sc.default_properties(),
                       lambda step, before, after: afters.append(after))
        assert again.trace == r.trace
        assert again.violation == r.violation
        assert afters[-1] is None and None not in afters[:-1]


class TestWalk:
    def test_walk_rejects_steps_not_enabled(self):
        sc = scenario_for("ring-par", size=2, inserters=1)
        with pytest.raises(ContractViolation, match="step 1 is not enabled"):
            walk(sc, (), lambda steps: ScheduleStep(0, KIND_EVENT, 0, "new_rhs"))
        # Nothing is enabled after quiescence, so any further step is refused.
        run = simulate(sc, seed=1)
        assert run.quiescent
        extra = [*run.trace, run.trace[-1]]
        with pytest.raises(ContractViolation, match=f"step {len(extra)} is not enabled"):
            replay(sc, extra)

    def test_chooser_sees_the_enabled_steps(self):
        sc = scenario_for("ring-par", size=2, inserters=2)
        offered = []

        def first(steps):
            offered.append(steps)
            return steps[0] if steps else None

        r = walk(sc, sc.default_properties(), first)
        assert r.quiescent and r.violation is None
        assert offered[0] == enabled_steps(sc.initial_state())
        assert offered[-1] == [] and len(offered) == len(r.trace) + 1


class TestReplay:
    def test_replay_on_step_sees_before_and_after(self):
        sc = scenario_for("ring-par", size=2, inserters=1)
        run = simulate(sc, seed=3)
        seen = []

        def on_step(step, before, after):
            assert step in enabled_steps(before)
            assert encode(before) != encode(after)
            seen.append(step)

        replay(sc, run.trace, on_step=on_step)
        assert tuple(seen) == run.trace

    def test_replay_rejects_foreign_steps(self):
        sc = scenario_for("ring-par", size=2, inserters=1)
        bogus = [ScheduleStep(0, KIND_EVENT, 7, "new_rhs")]
        with pytest.raises(ContractViolation, match="not enabled"):
            replay(sc, bogus)

    def test_replay_outcome_verifies_a_clean_walk(self):
        sc = scenario_for("trace", size=2)
        run = simulate(sc, sc.default_properties(), seed=5)
        assert run.quiescent
        result = replay(sc, run.trace, sc.default_properties())
        assert result.quiescent
        assert result.violation is None
        assert encode(result.final_state) == encode(run.final_state)


def test_global_state_dump_mentions_processes_and_sockets():
    sc = scenario_for("ring-par", size=2, inserters=0)
    text = sc.initial_state().dump()
    assert "d0" in text and "d1" in text
    assert "fd=0" in text
