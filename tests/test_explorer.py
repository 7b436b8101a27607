"""Explorer mechanics: step enumeration, state encoding, search, replay."""

import hashlib
import marshal
from collections import deque

import pytest

from ringcheck import barrier as barrier_mod
from ringcheck import daemons as daemons_mod
from ringcheck import explorer as explorer_mod
from ringcheck.errors import CheckError, ContractViolation
from ringcheck.explorer import (
    ACT_BEGIN_INSERTION,
    ACT_INJECT_FAILURE,
    ACT_START_TRACE,
    EVENT_CONNECT,
    EVENT_EOF,
    KIND_ACTION,
    KIND_EVENT,
    RESOURCE_LIMIT,
    VERIFIED,
    VIOLATION,
    GlobalState,
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
from ringcheck.messages import ALL_COMMANDS, CMD, NEW_RHS, RECONNECT_RHS, TRACE_REQ
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

    def test_steps_are_ordered_by_pid_then_fd_across_processes(self):
        # Three pending splices at the entry daemon of a ring of one: pid 0
        # has two events, pids 1 and 2 one each, and pid 4 has not started.
        sc = scenario_for("ring-par", size=1, inserters=4)
        begin = [ScheduleStep(pid, KIND_ACTION, -1, ACT_BEGIN_INSERTION) for pid in (1, 2, 3)]
        schedule = [
            begin[0], begin[1],
            ScheduleStep(0, KIND_EVENT, 2, EVENT_CONNECT),
            begin[2],
            ScheduleStep(0, KIND_EVENT, 4, EVENT_CONNECT),
            ScheduleStep(0, KIND_EVENT, 4, NEW_RHS),
            ScheduleStep(0, KIND_EVENT, 2, NEW_RHS),
        ]
        g = replay(sc, schedule).final_state
        assert enabled_steps(g) == [
            ScheduleStep(0, KIND_EVENT, 0, EVENT_EOF),
            ScheduleStep(0, KIND_EVENT, 6, EVENT_CONNECT),
            ScheduleStep(1, KIND_EVENT, 3, RECONNECT_RHS),
            ScheduleStep(2, KIND_EVENT, 5, RECONNECT_RHS),
            ScheduleStep(4, KIND_ACTION, -1, ACT_BEGIN_INSERTION),
        ]

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

    # Frozen before the protocol modules took over listing their own steps:
    # a change here means some reachable state offers other steps, or offers
    # them in another order.
    STEP_ORDER_DIGESTS = [
        (("ring-par", {"size": 1, "inserters": 2}), "d75469c8b31f7a777355102485a33b02"),
        (("ring-seq", {"size": 2, "inserters": 2, "blocking": True}),
         "03396ddfa906c47b8b385dd94fe7bfc4"),
        (("trace", {"size": 3}), "88c16cb6689e7fd58983416b4825a91a"),
        (("recovery", {"size": 4}), "3c79f14bc5e2dc43dd71b469dd993ed0"),
        (("barrier", {"size": 4}), "3ad118f9a1c45a7d6197475fccb4b5aa"),
    ]

    @pytest.mark.parametrize("model,digest", STEP_ORDER_DIGESTS,
                             ids=[m[0] for m, _ in STEP_ORDER_DIGESTS])
    def test_step_order_regression_values(self, model, digest):
        # Every reachable state's encoding, then its rendered enabled steps,
        # hashed in breadth-first order.
        algorithm, kw = model
        h = hashlib.blake2b(digest_size=16)
        init = scenario_for(algorithm, **kw).initial_state()
        seen = {encode(init)}
        frontier = deque([init])
        while frontier:
            g = frontier.popleft()
            steps = enabled_steps(g)
            h.update(encode(g))
            h.update("\n".join(s.render() for s in steps).encode())
            for step in steps:
                succ = apply(g, step)
                key = encode(succ)
                if key not in seen:
                    seen.add(key)
                    frontier.append(succ)
        assert h.hexdigest() == digest


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


def fresh_encode(g) -> bytes:
    """encode(g) without its memo: every record is encoded afresh."""
    return encode(GlobalState(g.scenario, g.sockets, g.procs, g.trace, g.bits))


def check_copy_on_write(scenario) -> int:
    """Search every reachable state, checking each transition's sharing.

    apply(g, step) must leave g unchanged, failing handlers included: both
    its memoised encoding and a fresh one must equal the encoding taken
    before the step. A successor's encoding, whose process tuple is g's with
    the acting pid's entry replaced, must equal a fresh one. Properties are
    not run, so the search goes on past violations. Returns the number of
    transitions checked.
    """
    init = scenario.initial_state()
    seen = {encode(init)}
    stack = [init]
    transitions = 0
    while stack:
        g = stack.pop()
        before = encode(g)
        for step in enabled_steps(g):
            transitions += 1
            try:
                h = apply(g, step)
            except CheckError:
                h = None
            where = f"after {step.render()}"
            assert encode(g) == before, f"{where}: the predecessor changed"
            assert fresh_encode(g) == before, f"{where}: the predecessor changed"
            if h is None:
                continue
            key = encode(h)
            assert key == fresh_encode(h), f"{where}: stale canon of the successor"
            if key not in seen:
                seen.add(key)
                stack.append(h)
    return transitions


COPY_ON_WRITE_MODELS = [
    ("ring-seq", {"size": 2, "inserters": 2}),
    ("ring-par", {"size": 1, "inserters": 2}),
    ("trace", {"size": 3}),
    ("recovery", {"size": 4}),
    ("barrier", {"size": 4}),
]


class TestCopyOnWrite:
    @pytest.mark.parametrize("algorithm,kw", COPY_ON_WRITE_MODELS,
                             ids=[f"{a}-{'-'.join(map(str, kw.values()))}"
                                  for a, kw in COPY_ON_WRITE_MODELS])
    def test_steps_never_touch_the_predecessor(self, algorithm, kw):
        assert check_copy_on_write(scenario_for(algorithm, **kw)) > 0

    def test_a_handler_writing_another_process_is_caught(self, monkeypatch):
        real = daemons_mod._DISPATCH[RECONNECT_RHS]

        def meddling(g, d, fd, msg):
            real(g, d, fd, msg)
            other = g.procs[(d.pid + 1) % len(g.procs)]
            other.pending_requesters = other.pending_requesters + (fd,)

        monkeypatch.setitem(daemons_mod._DISPATCH, RECONNECT_RHS, meddling)
        with pytest.raises(AssertionError, match="stale canon|predecessor changed"):
            check_copy_on_write(scenario_for("ring-par", size=1, inserters=2))

    def test_a_barrier_handler_writing_another_manager_is_caught(self, monkeypatch):
        real = barrier_mod._on_barrier_in

        def meddling(g, m):
            real(g, m)
            g.procs[(m.pid + 1) % len(g.procs)].holding_barrier_in = True

        monkeypatch.setattr(barrier_mod, "_on_barrier_in", meddling)
        with pytest.raises(AssertionError, match="stale canon|predecessor changed"):
            check_copy_on_write(scenario_for("barrier", size=4))


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

    # Initial states have empty queues and no trace ids, so their digests
    # never see a message payload. These replayed states do: a queued new_rhs
    # naming its sender; a queued rhs2info (target, value, hop budget) beside
    # a reconnect_rhs; a trace_req carrying its origin and three ids; and,
    # after the circuit closes, a collected trace beside the queued
    # trace_done. The last two cannot be one state: the initiator records the
    # collection when it consumes the trace_req.
    MESSAGE_DIGESTS = [
        (("ring-par", {"size": 2, "inserters": 1}),
         [(2, KIND_ACTION, -1, ACT_BEGIN_INSERTION), (0, KIND_EVENT, 4, EVENT_CONNECT)],
         "33f2f11f85c6347bd7fc804261307fd8"),
        (("ring-par", {"size": 2, "inserters": 1}),
         [(2, KIND_ACTION, -1, ACT_BEGIN_INSERTION), (0, KIND_EVENT, 4, EVENT_CONNECT),
          (0, KIND_EVENT, 4, NEW_RHS)],
         "c97e973b42e0edc80c011424f1c4b7f2"),
        (("trace", {"size": 3}),
         [(0, KIND_ACTION, -1, ACT_START_TRACE), (1, KIND_EVENT, 0, TRACE_REQ),
          (2, KIND_EVENT, 2, TRACE_REQ)],
         "8a32e5022fea75c613879417388f6f16"),
        (("trace", {"size": 3}),
         [(0, KIND_ACTION, -1, ACT_START_TRACE), (1, KIND_EVENT, 0, TRACE_REQ),
          (2, KIND_EVENT, 2, TRACE_REQ), (0, KIND_EVENT, 4, TRACE_REQ)],
         "42bb0c5b12f9d16b2d49cf74dde7bf67"),
    ]

    def test_digest_regression_values(self):
        # Frozen encodings: a change here means every stored baseline in this
        # suite (state counts, probe counts) must be re-derived.
        ring = scenario_for("ring-par", size=2, inserters=1)
        assert state_digest(ring.initial_state()).hex() == (
            "03efd16c3c2b394c349499f4b1ca303d")
        barrier = scenario_for("barrier", size=2)
        assert state_digest(barrier.initial_state()).hex() == (
            "237f34f4b92dbcf275b55d871c962e3c")
        # Rings of one: a daemon, and a manager, wired to itself.
        ring_of_one = scenario_for("ring-par", size=1)
        assert state_digest(ring_of_one.initial_state()).hex() == (
            "00f6fd74f8a18daad2dd3e2d057c16c9")
        barrier_of_one = scenario_for("barrier", size=1)
        assert state_digest(barrier_of_one.initial_state()).hex() == (
            "60152aa308ab7d9d43cc6c89100d7b97")
        for (algorithm, kw), schedule, digest in self.MESSAGE_DIGESTS:
            run = replay(scenario_for(algorithm, **kw), [ScheduleStep(*s) for s in schedule])
            assert len(run.trace) == len(schedule) and run.violation is None
            assert state_digest(run.final_state).hex() == digest, schedule[-1]


ENCODING_MODELS = [
    ("ring-seq", {"size": 2, "inserters": 2}),
    ("ring-par", {"size": 1, "inserters": 2}),
    ("trace", {"size": 3}),
    ("recovery", {"size": 3}),
    ("barrier", {"size": 3}),
]


class TestEncodingIsTheState:
    """The visited set stores 16-byte digests in place of full encodings.

    Over whole searches the two visited sets must agree, and every encoding
    must be the marshal of the state's own plain tuples.
    """

    @pytest.mark.parametrize("algorithm,kw", ENCODING_MODELS,
                             ids=[f"{a}-{'-'.join(map(str, kw.values()))}"
                                  for a, kw in ENCODING_MODELS])
    def test_full_encodings_give_the_digest_search(self, algorithm, kw, monkeypatch):
        sc = scenario_for(algorithm, **kw)
        by_digest = explore(sc, sc.default_properties())

        def full_key(g):
            # Every state the search stores or matches passes through here.
            key = encode(g)
            assert marshal.loads(key) == g.canon()
            for q in g.sockets.queues:
                for m in q:
                    assert type(m) is tuple and len(m) == 6
                    assert type(m[CMD]) is int and 0 <= m[CMD] < len(ALL_COMMANDS)
            return key

        monkeypatch.setattr(explorer_mod, "state_digest", full_key)
        by_encoding = explore(sc, sc.default_properties())
        assert (by_encoding.outcome, by_encoding.states_stored, by_encoding.states_matched,
                by_encoding.max_depth) == (by_digest.outcome, by_digest.states_stored,
                                           by_digest.states_matched, by_digest.max_depth)
        assert by_encoding.states_stored > 1


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

    def test_budgets_count_the_initial_state(self):
        sc = scenario_for("ring-par", size=1, inserters=1)
        props = sc.default_properties()
        report = explore(sc, props, max_states=1)
        assert (report.outcome, report.states_stored, report.max_depth, report.trace) == (
            RESOURCE_LIMIT, 1, 0, ())
        report = explore(sc, props, max_depth=0)
        assert (report.outcome, report.states_stored, report.max_depth, report.violation) == (
            RESOURCE_LIMIT, 1, 0, "depth budget exhausted")
        quiet = scenario_for("ring-par", size=1)  # no step at all: nothing is cut
        assert explore(quiet, quiet.default_properties(), max_depth=0).outcome == VERIFIED

    def test_larger_budgets_keep_their_counts(self):
        # (stored, matched, depth) taken before the initial state obeyed the budgets.
        sc = scenario_for("ring-par", size=2, inserters=1)
        for budget, counts in [({"max_states": 2}, (2, 0, 1)), ({"max_states": 7}, (7, 0, 6)),
                               ({"max_depth": 1}, (2, 0, 1)), ({"max_depth": 3}, (4, 0, 3))]:
            report = explore(sc, sc.default_properties(), **budget)
            assert report.outcome == RESOURCE_LIMIT, budget
            assert (report.states_stored, report.states_matched, report.max_depth) == counts

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
