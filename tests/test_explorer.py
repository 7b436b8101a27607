"""Explorer mechanics: step enumeration, state encoding, search, replay."""

import ast
import hashlib
import marshal
import random
from collections import Counter, deque
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ringcheck import barrier as barrier_mod
from ringcheck import daemons as daemons_mod
from ringcheck import explorer as explorer_mod
from ringcheck import properties as properties_mod
from ringcheck.errors import CheckError, ContractViolation, InvariantViolation, PropertyViolation
from ringcheck.explorer import (
    ACT_BEGIN_INSERTION,
    ACT_CLIENT_ARRIVAL,
    ACT_INJECT_FAILURE,
    ACT_START_TRACE,
    EVENT_CONNECT,
    EVERY_STATE,
    EVENT_EOF,
    KIND_ACTION,
    KIND_EVENT,
    QUIESCENCE_ONLY,
    RESOURCE_LIMIT,
    VERIFIED,
    VIOLATION,
    GlobalState,
    Property,
    ScheduleStep,
    VerificationReport,
    VisitedKeys,
    WalkReport,
    apply,
    enabled_steps,
    encode,
    explore,
    replay,
    simulate,
    state_digest,
    state_key,
    step_delta,
    walk,
)
from ringcheck.messages import (
    ALL_COMMANDS,
    BARRIER_IN,
    BARRIER_OUT,
    CMD,
    FIELDS,
    IDS,
    NEW_LHS,
    NEW_RHS,
    RECONNECT_RHS,
    RHS_INFO_RETURN,
    TRACE_REQ,
    command_of,
)
from ringcheck.scenarios import ScenarioConfig, build_scenario
from ringcheck.sockets import (
    AWAIT_ACCEPT,
    FLAG,
    FREE,
    INVALID_FD,
    OTHER,
    QUEUE,
    SOCKET_INVARIANTS,
    SocketTable,
)

from conftest import set_client_bits


def scenario_for(algorithm, **kw):
    return build_scenario(ScenarioConfig(algorithm, **kw))


class TestEnabledSteps:
    def test_initial_ring_offers_only_the_inserters(self):
        sc = scenario_for("ring-par", size=2, inserters=2)
        steps = enabled_steps(sc.initial_state())
        assert steps == [
            ScheduleStep(2, -1, ACT_BEGIN_INSERTION),
            ScheduleStep(3, -1, ACT_BEGIN_INSERTION),
        ]

    def test_order_is_deterministic_and_sorted(self):
        sc = scenario_for("ring-par", size=2, inserters=2)
        g = sc.initial_state()
        for _ in range(3):
            steps = enabled_steps(g)
            assert steps == enabled_steps(g)
            assert steps == sorted(steps, key=lambda s: (s.pid, s.fd))
            g = apply(g, steps[0])

    @pytest.mark.parametrize("algorithm,kw", [("barrier", {"size": 5}),
                                              ("ring-par", {"size": 1, "inserters": 2})],
                             ids=["barrier-5", "ring-par-1-2"])
    def test_a_state_lists_the_same_step_objects_each_time(self, algorithm, kw):
        sc = scenario_for(algorithm, **kw)
        g = sc.initial_state()
        g = apply(g, sc.protocol.steps(g)[0])  # a state with a wake and an action
        first, again = sc.protocol.steps(g), sc.protocol.steps(g)
        assert {step.kind for step in first} == {KIND_EVENT, KIND_ACTION}
        assert len(first) == len(again)
        assert all(a is b for a, b in zip(first, again))

    def test_steps_are_ordered_by_pid_then_fd_across_processes(self):
        # Three pending splices at the entry daemon of a ring of one: pid 0
        # has two events, pids 1 and 2 one each, and pid 4 has not started.
        sc = scenario_for("ring-par", size=1, inserters=4)
        begin = [ScheduleStep(pid, -1, ACT_BEGIN_INSERTION) for pid in (1, 2, 3)]
        schedule = [
            begin[0], begin[1],
            ScheduleStep(0, 2, EVENT_CONNECT),
            begin[2],
            ScheduleStep(0, 4, EVENT_CONNECT),
            ScheduleStep(0, 4, NEW_RHS),
            ScheduleStep(0, 2, NEW_RHS),
        ]
        g = replay(sc, schedule).final_state
        assert enabled_steps(g) == [
            ScheduleStep(0, 0, EVENT_EOF),
            ScheduleStep(0, 6, EVENT_CONNECT),
            ScheduleStep(1, 3, RECONNECT_RHS),
            ScheduleStep(2, 5, RECONNECT_RHS),
            ScheduleStep(4, -1, ACT_BEGIN_INSERTION),
        ]

    def test_awaiting_daemon_sees_only_the_awaited_reply(self):
        sc = scenario_for("ring-par", size=2, inserters=1)
        g = sc.initial_state()
        g = apply(g, ScheduleStep(2, -1, ACT_BEGIN_INSERTION))
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
        assert enabled_steps(g) == [ScheduleStep(0, -1, ACT_START_TRACE)]
        g = apply(g, enabled_steps(g)[0])
        assert all(s.cmd != ACT_START_TRACE for s in enabled_steps(g))

    def test_dead_daemons_offer_nothing(self):
        sc = scenario_for("recovery", size=2)
        g = sc.initial_state()
        g = apply(g, ScheduleStep(1, -1, ACT_INJECT_FAILURE))
        assert all(s.pid != 1 for s in enabled_steps(g))

    # Per model: the digest of every reachable state's rendered step listing,
    # in breadth-first order, and the digest of each state's encoding
    # followed by its listing. The listing digests were taken before the
    # encoding dropped the fields nothing reads, and held after it: a change
    # there means some reachable state offers other steps, or offers them in
    # another order. The second digest also moves when the encoding does.
    STEP_ORDER_DIGESTS = [
        (("ring-par", {"size": 1, "inserters": 2}),
         "67c40f4c0454f92564791c9e2d0160eb", "24bd6e33a97f9eecbc2bbc7ab12dc684"),
        (("ring-seq", {"size": 2, "inserters": 2, "blocking": True}),
         "600b751b0ccd9a734c35d381e4c1c64c", "f5c65ac4523162ac624a60d6d46b7db6"),
        (("trace", {"size": 3}),
         "8a444ea7dd55903df5c33cc6ace2a2ad", "5ebe8711a446d3249b56b720b1965226"),
        (("recovery", {"size": 4}),
         "af972d16ab07150c3804725b40295621", "9dd5b9a6e193a1254377052454815cd2"),
        (("barrier", {"size": 4}),
         "f5a78952257fd41f87d05bb5e3f46fd2", "725fd65a4bf250ae5d77e2970a2ca48d"),
    ]

    @pytest.mark.parametrize("model,listings,with_encodings", STEP_ORDER_DIGESTS,
                             ids=[m[0] for m, _, _ in STEP_ORDER_DIGESTS])
    def test_step_order_regression_values(self, model, listings, with_encodings):
        # Each listing is its steps rendered one a line, ended by a blank
        # line in the listing digest; the other digest hashes the state's
        # encoding and then the listing.
        algorithm, kw = model
        listing_hash = hashlib.blake2b(digest_size=16)
        state_hash = hashlib.blake2b(digest_size=16)
        init = scenario_for(algorithm, **kw).initial_state()
        seen = {encode(init)}
        frontier = deque([init])
        while frontier:
            g = frontier.popleft()
            steps = enabled_steps(g)
            rendered = "\n".join(s.render() for s in steps).encode()
            listing_hash.update(rendered + b"\n\n")
            state_hash.update(encode(g))
            state_hash.update(rendered)
            for step in steps:
                succ = apply(g, step)
                key = encode(succ)
                if key not in seen:
                    seen.add(key)
                    frontier.append(succ)
        assert listing_hash.hexdigest() == listings
        assert state_hash.hexdigest() == with_encodings


class TestApply:
    def test_apply_returns_a_distinct_state(self):
        sc = scenario_for("ring-par", size=2, inserters=1)
        g = sc.initial_state()
        h = apply(g, enabled_steps(g)[0])
        assert encode(g) != encode(h)
        assert enabled_steps(g) == [ScheduleStep(2, -1, ACT_BEGIN_INSERTION)]

    def test_apply_rejects_unknown_actions(self):
        sc = scenario_for("ring-par", size=2, inserters=1)
        g = sc.initial_state()
        with pytest.raises(ContractViolation):
            apply(g, ScheduleStep(0, -1, "reboot"))


def check_copy_on_write(scenario) -> int:
    """Search every reachable state, checking each transition's sharing.

    apply(g, step) must leave g unchanged, failing handlers included: its
    encoding must equal the one taken before the step. Properties are not
    run, so the search goes on past violations. Returns the number of
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
            if h is None:
                continue
            key = encode(h)
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
        with pytest.raises(AssertionError, match="predecessor changed"):
            check_copy_on_write(scenario_for("ring-par", size=1, inserters=2))

    def test_a_barrier_handler_writing_another_manager_is_caught(self, monkeypatch):
        real = barrier_mod._on_barrier_in

        def meddling(g, m):
            real(g, m)
            g.procs[(m.pid + 1) % len(g.procs)].holding_barrier_in = True

        monkeypatch.setattr(barrier_mod, "_on_barrier_in", meddling)
        with pytest.raises(AssertionError, match="predecessor changed"):
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
    # naming its sender; a queued rhs2info (target, value) beside a
    # reconnect_rhs; a trace_req carrying three ids; and, after the circuit
    # closes, a collected trace beside the queued trace_done. The last two
    # cannot be one state: the initiator records the collection when it
    # consumes the trace_req.
    MESSAGE_DIGESTS = [
        (("ring-par", {"size": 2, "inserters": 1}),
         [(2, -1, ACT_BEGIN_INSERTION), (0, 4, EVENT_CONNECT)],
         "c11c625bf334221e80b4b48685d90c77"),
        (("ring-par", {"size": 2, "inserters": 1}),
         [(2, -1, ACT_BEGIN_INSERTION), (0, 4, EVENT_CONNECT), (0, 4, NEW_RHS)],
         "ebb7428c74075a8ccc05cfa404142a26"),
        (("trace", {"size": 3}),
         [(0, -1, ACT_START_TRACE), (1, 0, TRACE_REQ), (2, 2, TRACE_REQ)],
         "2ca7962c3f9f436f53d7ec58fd9bbaec"),
        (("trace", {"size": 3}),
         [(0, -1, ACT_START_TRACE), (1, 0, TRACE_REQ),
          (2, 2, TRACE_REQ), (0, 4, TRACE_REQ)],
         "ed067ec4e9dc0b789bc739621d19c1ce"),
    ]

    def test_digest_regression_values(self):
        # Frozen encodings. A change here moves the step-order and message
        # digests and the sub-table growth budgets, which depend on the key
        # bits; a state count moves only if the new encoding merges or
        # splits states, and the frozen counts elsewhere in this suite say
        # whether it did.
        ring = scenario_for("ring-par", size=2, inserters=1)
        assert state_digest(ring.initial_state()).hex() == (
            "34e0800f9d1879ccc2bc97636b6cbab3")
        barrier = scenario_for("barrier", size=2)
        assert state_digest(barrier.initial_state()).hex() == (
            "d280004695c5ad1fc4c8597a053f41b4")
        # Rings of one: a daemon, and a manager, wired to itself.
        ring_of_one = scenario_for("ring-par", size=1)
        assert state_digest(ring_of_one.initial_state()).hex() == (
            "694932ca9135899fbfbc2f350517b290")
        barrier_of_one = scenario_for("barrier", size=1)
        assert state_digest(barrier_of_one.initial_state()).hex() == (
            "9093eaa19000224a5408d68661b7e891")
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
    """The visited store holds 128-bit keys in place of full encodings.

    Over whole searches, keying each state by the digest of its full
    encoding must give the counts state_key gives, no two encodings may share
    a digest, and every encoding must be the marshal of the state's own
    plain tuples. A digest is no sum of component hashes, so a successor
    key cannot be derived from it: the digest search re-runs every step,
    and its step_delta is the difference of the two digests.
    """

    @pytest.mark.parametrize("algorithm,kw", ENCODING_MODELS,
                             ids=[f"{a}-{'-'.join(map(str, kw.values()))}"
                                  for a, kw in ENCODING_MODELS])
    def test_full_encodings_give_the_digest_search(self, algorithm, kw, monkeypatch):
        sc = scenario_for(algorithm, **kw)
        by_key = explore(sc, sc.default_properties())
        calls = []
        encodings = {}  # digest -> the one encoding it names

        def full_key(g, memo):
            # Every state the search stores or matches passes through here.
            calls.append(g)
            code = encode(g)
            assert marshal.loads(code) == g.canon()
            for slot in g.sockets.slots:
                for m in slot[QUEUE]:
                    assert type(m) is tuple and len(m) == FIELDS
                    assert type(m[CMD]) is int and 0 <= m[CMD] < len(ALL_COMMANDS)
            digest = state_digest(g)
            assert encodings.setdefault(digest, code) == code, "two encodings, one digest"
            return int.from_bytes(digest, "little")

        def digest_delta(g, h, pid, memo):
            # g was keyed by full_key when it was stored; h is new here.
            return full_key(h, memo) - int.from_bytes(state_digest(g), "little")

        monkeypatch.setattr(explorer_mod, "state_key", full_key)
        monkeypatch.setattr(explorer_mod, "step_delta", digest_delta)
        run_every_step(monkeypatch)
        by_encoding = explore(sc, sc.default_properties())
        assert (by_encoding.outcome, by_encoding.states_stored, by_encoding.states_matched,
                by_encoding.max_depth) == (by_key.outcome, by_key.states_stored,
                                           by_key.states_matched, by_key.max_depth)
        assert by_encoding.states_stored > 1
        assert len(calls) == by_encoding.states_stored + by_encoding.states_matched
        assert len(encodings) == len(set(encodings.values())) == by_encoding.states_stored


TOP_KEY = 2**128 - 1


def store_bytes(store) -> int:
    """What the store's word arrays hold, in bytes."""
    return sum(a.itemsize * len(a) for his, los, _ in store.tables for a in (his, los))


def stored_keys(store) -> int:
    """The keys the store holds, by a count of its used slots."""
    return store.zero + sum(1 for his, los, _ in store.tables
                            for hi, lo in zip(his, los) if hi or lo)


def word_keys(store) -> set:
    """The keys the store's word arrays hold, read from every used slot."""
    return {hi << 64 | lo for his, los, _ in store.tables
            for hi, lo in zip(his, los) if hi or lo}


@st.composite
def key_runs(draw):
    """Keys in runs, each run of one kind, generated from a drawn seed.

    The kinds: the extreme keys 0 and 2**128 - 1; keys with one low word;
    keys with one high word; keys that share a first slot at every table
    size up to 2**12; a long run into one sub-table, which grows it at
    least three times; and repeats of keys already drawn.
    """
    keys = [draw(st.integers(0, TOP_KEY))]
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["edge", "low", "high", "slot", "long", "again"]))
        rng = random.Random(draw(st.integers(0, 2**32 - 1)))
        n = draw(st.integers(400, 1_500) if kind == "long" else st.integers(1, 40))
        top = rng.getrandbits(explorer_mod.SUBTABLE_BITS) << (128 - explorer_mod.SUBTABLE_BITS)
        word = rng.getrandbits(64)
        if kind == "edge":
            run = [rng.choice([0, TOP_KEY]) for _ in range(n)]
        elif kind == "low":
            run = [rng.getrandbits(64) << 64 | word for _ in range(n)]
        elif kind == "high":
            run = [word << 64 | rng.getrandbits(64) for _ in range(n)]
        elif kind == "slot":
            run = [top | rng.getrandbits(125 - 12) << 12 | word & 0xFFF for _ in range(n)]
        elif kind == "long":
            run = [top | rng.getrandbits(125) for _ in range(n)]
        else:
            run = [rng.choice(keys) for _ in range(n)]
        keys += run
    return keys


class Star:
    """A model whose initial state has one step per further key; each successor
    is quiescent. keyed replaces state_key and delta step_delta: a state's
    key is keys[its step]."""

    class Record:
        pid = 0
        dead = False

        def __init__(self, n):
            self.n = n

        def clone(self):
            return Star.Record(self.n)

    class Table:
        slots = touched = ()
        reads = 0

        def clone(self):
            return self

    def __init__(self, keys):
        self.keys = keys
        self.protocol = self

    def initial_state(self):
        return GlobalState(self, Star.Table(), [Star.Record(0)])

    def steps(self, g):
        if g.procs[0].n:
            return []
        return [ScheduleStep(0, -1, str(n)) for n in range(1, len(self.keys))]

    def act(self, g, p, cmd):
        p.n = int(cmd)

    def keyed(self, g, memo):
        return self.keys[g.procs[0].n]

    def delta(self, g, h, pid, memo):
        return self.keyed(h, memo) - self.keyed(g, memo)


# (states_matched, max_depth) of `verify ring-seq --size 2 --inserters 3
# --blocking` stopped at each state budget below, every one RESOURCE_LIMIT with
# the budget stored. The budgets are one below, at and one above each count
# of stored states at which the store grows a sub-table, up to 20,000
# states. Which sub-table a key lands in follows from the state's encoding,
# so the budgets move when the encoding does; the counts at each budget were
# checked against a search at the budget by the code before that change.
GROWTH_EDGE_COUNTS = {
    351: (408, 30), 352: (409, 30), 353: (410, 30), 382: (419, 30), 383: (420, 30), 384: (420, 30),
    400: (444, 30), 401: (447, 30), 402: (449, 30), 404: (451, 30), 405: (451, 30), 406: (451, 30),
    739: (843, 30), 740: (844, 30), 741: (848, 30), 758: (882, 30), 759: (882, 30), 760: (882, 30),
    790: (928, 30), 791: (933, 30), 792: (936, 30), 797: (943, 30), 798: (943, 30), 799: (943, 30),
    1503: (2376, 30), 1504: (2376, 30), 1505: (2379, 30), 1545: (2471, 30), 1546: (2474, 30),
    1547: (2480, 30), 1570: (2548, 30), 1571: (2548, 30), 1572: (2548, 30), 1593: (2571, 30),
    1594: (2572, 30), 1595: (2573, 30), 2963: (5289, 30), 2964: (5292, 30), 2965: (5295, 30),
    3046: (5422, 30), 3047: (5424, 30), 3048: (5427, 30), 3079: (5496, 30), 3080: (5498, 30),
    3081: (5500, 30), 3163: (5683, 30), 3164: (5684, 30), 3165: (5685, 30), 6051: (11512, 30),
    6052: (11512, 30), 6053: (11513, 30), 6121: (11578, 30), 6122: (11579, 30), 6123: (11581, 30),
    6159: (11653, 30), 6160: (11654, 30), 6161: (11655, 30), 6230: (11706, 30), 6231: (11707, 30),
    6232: (11708, 30), 12038: (24405, 30), 12039: (24408, 30), 12040: (24411, 30),
    12067: (24462, 30), 12068: (24463, 30), 12069: (24464, 30), 12447: (25394, 30),
    12448: (25396, 30), 12449: (25399, 30), 12654: (25890, 30), 12655: (25891, 30),
    12656: (25891, 30),
}


class TestVisitedKeys:
    """The visited store against a set of Python ints."""

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(keys=key_runs())
    @example(keys=[0, 0, TOP_KEY, 1, 1 << 64, TOP_KEY, 0, 1 << 64, 1])
    def test_add_and_explore_agree_with_a_set(self, keys):
        """add returns whether each key is new, as a set would; the store
        grows exactly at the 3/4 bound; and explore, keyed with the same keys
        through a star model, stores exactly the new ones, in order."""
        store = VisitedKeys()
        oracle = set()
        new = []  # whether each key was new when it came
        grown = []  # the sub-table of each growth
        real_grow = VisitedKeys.grow

        def grow(self, s):
            grown.append(s)
            real_grow(self, s)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(VisitedKeys, "grow", grow)
            for key in keys:
                new.append(key not in oracle)
                assert store.add(key) == new[-1], hex(key)
                oracle.add(key)
                if len(oracle) >= 1024:
                    assert store_bytes(store) <= 48 * len(oracle)
        assert stored_keys(store) == len(oracle)
        # A sub-table grows when its keys reach 3/4 of its slots, never else.
        first = explorer_mod.FIRST_SLOTS * 3 // 4
        per_table = Counter(key >> (128 - explorer_mod.SUBTABLE_BITS) for key in oracle if key)
        assert Counter(grown) == {s: (n // first).bit_length() for s, n in per_table.items()
                                  if n >= first}

        # The same keys through explore: a key is stored when new, else matched.
        star = Star(keys)
        stored = []
        seen = Property("stored", EVERY_STATE, lambda g: stored.append(g.procs[0].n))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(explorer_mod, "state_key", star.keyed)
            mp.setattr(explorer_mod, "step_delta", star.delta)
            report = explore(star, (seen,))
        assert stored == [n for n, fresh in enumerate(new) if fresh]
        assert (report.states_stored, report.states_matched) == (
            len(oracle), len(keys) - len(oracle))

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(keys=key_runs())
    @example(keys=[0, TOP_KEY, 0, 1, 2, 3, TOP_KEY, 0, 1, 4, 5, 6, 7, TOP_KEY, 2])
    def test_a_tiny_recent_set_clears_often_and_keeps_only_stored_keys(self, keys):
        """With RECENT_LIMIT at 3, recent is cleared every third new key,
        and add still answers as a set would, 0 and TOP_KEY included."""
        store = VisitedKeys()
        oracle = set()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(explorer_mod, "RECENT_LIMIT", 3)
            for n, key in enumerate(keys):
                assert store.add(key) == (key not in oracle), hex(key)
                oracle.add(key)
                # Each new nonzero key enters recent once it is in the words.
                written = len(oracle) - (0 in oracle)
                assert len(store.recent) == ((written - 1) % 3 + 1 if written else 0)
                assert store.recent <= oracle and 0 not in store.recent
                if n % 64 == 0:
                    assert store.recent <= word_keys(store)
        assert store.recent <= word_keys(store) == oracle - {0}
        assert store.zero == (0 in oracle)

    @pytest.mark.parametrize("limit", [explorer_mod.RECENT_LIMIT, 1024])
    def test_recent_answers_most_matched_lookups_on_barrier(self, limit, monkeypatch):
        """A search re-finds the keys it stored last: on barrier 10 at least
        80 % of the matched lookups are in recent before the probe, also
        where recent is cleared twice (1,024 keys, 2,057 stored)."""
        matched = in_recent = 0
        real_add = VisitedKeys.add

        def add(self, key):
            nonlocal matched, in_recent
            hit = key in self.recent
            new = real_add(self, key)
            assert not (hit and new)
            if not new:
                matched += 1
                in_recent += hit
            return new

        monkeypatch.setattr(explorer_mod, "RECENT_LIMIT", limit)
        monkeypatch.setattr(VisitedKeys, "add", add)
        sc = scenario_for("barrier", size=10)
        report = explore(sc, sc.default_properties())
        assert (report.outcome, report.states_stored, matched) == (
            VERIFIED, 2057, report.states_matched)
        assert in_recent >= 0.8 * matched

    @pytest.mark.parametrize("algorithm,kw,outcome", [
        ("ring-par", {"size": 1, "inserters": 2}, VERIFIED),
        ("barrier", {"size": 3}, VERIFIED),
        ("ring-seq", {"size": 2, "inserters": 2}, VIOLATION),
    ], ids=["ring-par-1-2", "barrier-3", "ring-seq-2-2"])
    def test_explore_stores_and_matches_every_key_through_add(self, algorithm, kw, outcome):
        calls = 0
        real_add = VisitedKeys.add

        def add(self, key):
            nonlocal calls
            calls += 1
            return real_add(self, key)

        sc = scenario_for(algorithm, **kw)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(VisitedKeys, "add", add)
            report = explore(sc, sc.default_properties())
        assert report.outcome == outcome and report.states_matched
        assert calls == report.states_stored + report.states_matched

    @pytest.mark.slow
    def test_budgets_at_each_growth_keep_their_counts(self):
        sc = scenario_for("ring-seq", size=2, inserters=3, blocking=True)
        props = sc.default_properties()
        edges = []  # stored states when a sub-table grows: the key just stored counts
        real_grow = VisitedKeys.grow

        def grow(self, s):
            edges.append(stored_keys(self))
            real_grow(self, s)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(VisitedKeys, "grow", grow)
            explore(sc, props, max_states=20_000)
        budgets = sorted({b for t in edges for b in (t - 1, t, t + 1)})
        assert len(edges) >= 3 * 2**explorer_mod.SUBTABLE_BITS
        assert budgets == sorted(GROWTH_EDGE_COUNTS)
        for budget in budgets:
            report = explore(sc, props, max_states=budget)
            assert (report.outcome, report.states_stored, report.states_matched,
                    report.max_depth) == (RESOURCE_LIMIT, budget, *GROWTH_EDGE_COUNTS[budget])


class KeyCheck:
    """Checks the key change of each step it is given.

    A step's step_delta added to its predecessor's key, as that key was when
    the predecessor was checked, before any step of it ran, must give, mod
    2**128, the key of its successor, which sums every component with a memo
    of its own; and two states checked here must share a key exactly when
    their encodings are equal. Keyed before its steps, a predecessor whose
    record a step wrote in place keys apart from its successor's fresh key.
    """

    def __init__(self):
        self.memo = {}  # as explore's, cleared at MEMO_LIMIT entries
        self.reference = {}  # the fresh keys share none of the memo above
        self.by_key = {}
        self.by_encoding = {}

    def __call__(self, h, where, g=None, g_key=None, pid=None) -> tuple[int, bool]:
        """Check h, made by a step of pid from g, which was checked under
        g_key, if g is given. Returns h's key and whether its encoding was
        not seen before."""
        key = state_key(h, self.reference)
        if g is not None:
            stepped = (g_key + step_delta(g, h, pid, self.memo)) % 2**128
            assert len(self.memo) <= explorer_mod.MEMO_LIMIT
            assert stepped == key, f"{where}: the incremental key differs from a fresh one"
        code = encode(h)
        new = code not in self.by_encoding
        assert self.by_key.setdefault(key, code) == code, f"{where}: two encodings, one key"
        assert self.by_encoding.setdefault(code, key) == key, f"{where}: one encoding, two keys"
        return key, new


def check_keys(scenario) -> int:
    """Search every reachable state, checking the key of every successor.

    Like check_copy_on_write, the search goes on past handler errors and
    property violations. Returns the number of states.
    """
    check = KeyCheck()
    init = scenario.initial_state()
    stack = [(init, check(init, "the initial state")[0])]
    while stack:
        g, g_key = stack.pop()
        for step in enabled_steps(g):
            try:
                h = apply(g, step)
            except CheckError:
                continue
            key, new = check(h, f"after {step.render()}", g, g_key, step.pid)
            if new:
                stack.append((h, key))
    return len(check.by_encoding)


def walk_keys(scenario, seed: int, max_steps: int = 2_000) -> int:
    """One seeded random walk, checking the key at every step.

    A step whose handler raises is passed over for another enabled one.
    Returns the number of steps taken.
    """
    rng = random.Random(seed)
    check = KeyCheck()
    g = scenario.initial_state()
    g_key = check(g, "the initial state")[0]
    for taken in range(max_steps):
        steps = enabled_steps(g)
        rng.shuffle(steps)
        for step in steps:
            try:
                h = apply(g, step)
            except CheckError:
                continue
            g_key = check(h, f"after step {taken + 1}, {step.render()}", g, g_key, step.pid)[0]
            g = h
            break
        else:
            return taken
    return max_steps


def stored_states(scenario) -> tuple:
    """explore's report on scenario and every state it checked, which are
    the states it stored, in the order it checked them."""
    real = explorer_mod.checked_steps
    states = []

    def checked_steps(g, props):
        states.append(g)
        return real(g, props)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(explorer_mod, "checked_steps", checked_steps)
        report = explore(scenario, scenario.default_properties())
    return report, states


KEY_MODELS = ENCODING_MODELS + [("recovery", {"size": 4})]
KEY_WALKS = [
    ("ring-par", {"size": 1, "inserters": 5}),
    ("recovery", {"size": 24}),
    ("barrier", {"size": 24}),
]


class TestIncrementalKey:
    """A successor's key is its predecessor's plus step_delta, which looks only
    at what the step touched."""

    @pytest.mark.parametrize("algorithm,kw", KEY_MODELS,
                             ids=[f"{a}-{'-'.join(map(str, kw.values()))}"
                                  for a, kw in KEY_MODELS])
    def test_incremental_keys_equal_fresh_keys_over_whole_searches(self, algorithm, kw):
        assert check_keys(scenario_for(algorithm, **kw)) > 1

    @pytest.mark.parametrize("algorithm,kw", KEY_WALKS,
                             ids=[f"{a}-{'-'.join(map(str, kw.values()))}"
                                  for a, kw in KEY_WALKS])
    def test_incremental_keys_equal_fresh_keys_along_random_walks(self, algorithm, kw):
        sc = scenario_for(algorithm, **kw)
        assert all(walk_keys(sc, seed) > 10 for seed in range(3))

    def test_a_memo_cleared_when_full_keeps_the_keys(self, monkeypatch):
        # No model above fills the memo; this one fills it hundreds of times.
        monkeypatch.setattr(explorer_mod, "MEMO_LIMIT", 16)
        assert check_keys(scenario_for("ring-par", size=1, inserters=2)) > 1

    def test_the_initial_key_sums_every_component(self):
        def h(pos, c):
            data = marshal.dumps((pos, c), 2)
            return int.from_bytes(hashlib.blake2b(data, digest_size=16).digest(), "little")

        # The components are the slots and the process records, nothing
        # else: a manager's record holds its client's flags, and a daemon's
        # the trace it started.
        for algorithm in ("barrier", "trace"):
            g = scenario_for(algorithm, size=3).initial_state()
            t = g.sockets
            if algorithm == "barrier":
                set_client_bits(g, 0b011, 0b010)  # three unequal managers
                assert [p.canon()[-2:] for p in g.procs] == [
                    (True, False), (True, True), (False, False)]
            else:
                g.procs[1].trace = (1, 2, 0)  # a finished trace, started by d1
                assert [p.canon()[-1] for p in g.procs] == [None, (1, 2, 0), None]
            total = sum(h(fd, t.slots[fd]) for fd in range(t.conn_max))
            total += sum(h(t.conn_max + pid, p.canon()) for pid, p in enumerate(g.procs))
            assert state_key(g, {}) == total % 2**128, algorithm
            assert encode(g) == marshal.dumps((t.canon(), tuple(p.canon() for p in g.procs)), 2)

    def test_a_read_that_does_not_log_its_fd_is_caught(self, monkeypatch):
        # The touched-fd socket check cannot see this: a read only shortens
        # a queue, which no invariant can break. The key can.
        real = SocketTable.read

        def unlogged(self, pid, fd):
            msg = real(self, pid, fd)
            self.touched.pop()  # read logs its fd last
            return msg

        monkeypatch.setattr(SocketTable, "read", unlogged)
        with pytest.raises(AssertionError, match="differs from a fresh one"):
            check_keys(scenario_for("ring-par", size=1, inserters=2))


class SpyList(list):
    """A list that notes the index of every item read from it."""

    def __init__(self, items):
        super().__init__(items)
        self.seen = set()

    def __getitem__(self, i):
        self.seen.add(i)
        return super().__getitem__(i)

    def __iter__(self):
        for i in range(len(self)):
            self.seen.add(i)  # as the loop gets to it: a scan may stop early
            yield list.__getitem__(self, i)


class SpiedSet(frozenset):
    """A dead set that notes whether it was read."""

    read = False

    def __len__(self):
        self.read = True
        return super().__len__()

    def __contains__(self, item):
        self.read = True
        return super().__contains__(item)

    def __iter__(self):
        self.read = True
        return super().__iter__()


def bits(n: int) -> set:
    return {i for i in range(n.bit_length()) if n >> i & 1}


def audit_footprint(g, step) -> None:
    """Run step on a copy of g that notes what its handler reads.

    Every slot it reads must be in the table's read record, it must read no
    process record but its own, and if it reads the dead set, the state must
    say so (shared_read); what it writes, it must have read.
    """
    h = g.clone()
    p = h.procs[step.pid] = h.procs[step.pid].clone()
    h.sockets.slots = slots = SpyList(h.sockets.slots)
    h.procs = procs = SpyList(h.procs)
    h.derived_dead = dead = SpiedSet(g.dead_pids())
    try:
        if step.kind == KIND_ACTION:
            g.scenario.protocol.act(h, p, step.cmd)
        else:
            g.scenario.protocol.handle_event(h, p, step.fd, step.cmd)
    except CheckError:
        return  # the search stops at a failing step; nothing is derived from it
    name, reads = step.render(), h.sockets.reads
    unlogged = slots.seen - bits(reads)
    assert not unlogged, f"{name} read fds {sorted(unlogged)} outside the read record"
    assert not set(h.sockets.touched) - bits(reads), f"{name} wrote fds it did not read"
    others = procs.seen - {step.pid}
    assert not others, f"{name} read the records of {sorted(others)}"
    if dead.read:
        assert h.shared_read, f"{name} read the dead set unlogged"


def run_every_step(mp) -> None:
    """Mark every step as one that read a shared record, so that explore
    keeps no entry, derives no key and runs every step."""
    real = explorer_mod.apply

    def apply(g, step, key=None, add=None):
        h = real(g, step, key, add)
        h.shared_read = True
        return h

    mp.setattr(explorer_mod, "apply", apply)


def check_derived_keys(scenario, max_states: int = 50_000_000) -> int:
    """Search scenario with derived keys and with none; the matches derived.

    The two searches must end alike and call VisitedKeys.add with the same
    keys in the same order, so each derived key is the key of
    state_key(apply(state, step)) for the step it stands for; and every
    step the first search runs must pass audit_footprint. Returns how many
    steps the first search matched without running them.
    """
    props = scenario.default_properties()
    real_add = VisitedKeys.add

    def search(derive):
        keys, skipped = [], []

        def add(self, key):
            keys.append(key)
            return real_add(self, key)

        with pytest.MonkeyPatch.context() as mp:
            if derive:
                real = explorer_mod.apply

                def apply(g, step, key=None, add=None):
                    if key is None:
                        audit_footprint(g, step)
                    h = real(g, step, key, add)
                    if h is None:
                        skipped.append(step)
                    return h

                mp.setattr(explorer_mod, "apply", apply)
            else:
                run_every_step(mp)
            mp.setattr(VisitedKeys, "add", add)
            report = explore(scenario, props, max_states=max_states)
        return report._replace(elapsed=None), keys, len(skipped)

    derived, keys, skipped = search(True)
    full, full_keys, none_skipped = search(False)
    assert derived == full and none_skipped == 0
    assert len(keys) == len(full_keys) == full.states_stored + full.states_matched
    for n, (key, fresh) in enumerate(zip(keys, full_keys)):
        assert key == fresh, f"add call {n + 1}: the derived key is not the step's key"
    return skipped


REUSE_MODELS = KEY_MODELS + [("barrier", {"size": 5}), ("barrier", {"size": 8})]
# Steps matched without a run, frozen so that reuse cannot silently stop:
# (algorithm, options, state budget, derived matches).
DERIVED_MATCHES = [
    ("ring-seq", {"size": 2, "inserters": 3, "blocking": True}, 20_000, 32_519),
    ("ring-par", {"size": 2, "inserters": 2}, 50_000_000, 10_528),
    ("barrier", {"size": 10}, 50_000_000, 8_185),
]


def on_barrier_in_awaits_the_leader(g, m):
    """_on_barrier_in that also parks the token until the leader's client arrived."""
    if m.is_leader or m.client_in and g.procs[0].client_in:
        barrier_mod._send_token(g, m, BARRIER_OUT if m.is_leader else BARRIER_IN)
    else:
        m.holding_barrier_in = True


def releases_the_next_client_too(g, m, release=barrier_mod._on_barrier_out):
    """_on_barrier_out (release, bound before any patch) that also sets the
    next manager's client_out, in the record its predecessor shares."""
    release(g, m)
    g.procs[(m.pid + 1) % len(g.procs)].client_out = True


def trace_req_noted_at_the_initiator(g, d, fd, msg, forward=daemons_mod._on_trace_req):
    """_on_trace_req (forward, bound before any patch) that, passing the
    trace on, also writes the ids so far into the initiator's trace, in the
    record its predecessor shares."""
    forward(g, d, fd, msg)
    if d.trace is None:
        g.procs[msg[IDS][0]].trace = msg[IDS] + (d.pid,)


class PoppedSteps(list):
    """One state's steps from checked_steps; on_pop(state) runs once explore
    has tried them all, as it pops the state."""

    def __init__(self, steps, state, on_pop):
        super().__init__(steps)
        self.state = state
        self.on_pop = on_pop

    def __iter__(self):
        yield from super().__iter__()
        self.on_pop(self.state)


def recheck_keys(scenario) -> tuple:
    """Search scenario, recomputing each state's key from scratch as the DFS
    pops it. Returns the report, the states popped and those whose key was
    not the key the add() call that stored them was given."""
    real_checked, real_add = explorer_mod.checked_steps, VisitedKeys.add
    stored = []  # the key of each add() call that stored one
    popped, drifted = [], []

    def add(self, key):
        new = real_add(self, key)
        if new:
            stored.append(key)
        return new

    def checked_steps(g, props):
        # explore checks each state right after the add() that stored it.
        key = stored[-1]

        def on_pop(g):
            popped.append(g)
            if key != state_key(g, {}):
                drifted.append(g)

        return PoppedSteps(real_checked(g, props), g, on_pop)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(VisitedKeys, "add", add)
        mp.setattr(explorer_mod, "checked_steps", checked_steps)
        report = explore(scenario, scenario.default_properties())
    assert len(stored) == report.states_stored
    return report, len(popped), len(drifted)


class TestDerivedKeys:
    """explore derives the key of a step that commutes with the path since it
    last ran, and runs it only if that key is new."""

    @pytest.mark.parametrize("algorithm,kw", REUSE_MODELS,
                             ids=[f"{a}-{'-'.join(map(str, kw.values()))}"
                                  for a, kw in REUSE_MODELS])
    def test_derived_keys_are_the_keys_of_the_steps_they_skip(self, algorithm, kw):
        derived = check_derived_keys(scenario_for(algorithm, **kw))
        # trace 3 is one path, so it matches no state at all.
        assert (derived > 0) == (algorithm != "trace"), derived

    @pytest.mark.parametrize("algorithm,kw,max_states,derived", DERIVED_MATCHES,
                             ids=["insert-seq", "ring-par-2-2", "barrier-10"])
    def test_derived_matches_keep_their_counts(self, algorithm, kw, max_states, derived):
        assert check_derived_keys(scenario_for(algorithm, **kw), max_states) == derived

    def test_a_scan_that_bypasses_the_read_record_is_caught(self, monkeypatch):
        def alloc(self, start=0):  # records the slot it found, not the ones it passed
            for fd in range(start, len(self.slots)):
                if self.slots[fd][FLAG] == FREE:
                    self.reads |= 1 << fd
                    return fd
            raise AssertionError("the model ran out of slots")

        monkeypatch.setattr(SocketTable, "_alloc", alloc)
        sc = scenario_for("ring-par", size=1, inserters=2)
        with pytest.raises(AssertionError, match="outside the read record"):
            check_derived_keys(sc)
        # The footprint is too small for real: the derived keys alone show it.
        monkeypatch.setitem(globals(), "audit_footprint", lambda g, step: None)
        with pytest.raises(AssertionError):
            check_derived_keys(sc)

    def test_a_read_that_bypasses_the_state_read_record_is_caught(self, monkeypatch):
        # The dead set as a handler would read it directly.
        monkeypatch.setattr(GlobalState, "read_dead_pids", lambda g: g.dead_pids())
        with pytest.raises(AssertionError, match="read the dead set unlogged"):
            check_derived_keys(scenario_for("recovery", size=4))

    def test_a_read_of_another_daemons_record_is_caught(self, monkeypatch):
        # The dead set as a handler would find it by scanning every record.
        monkeypatch.setattr(GlobalState, "read_dead_pids",
                            lambda g: frozenset(p.pid for p in g.procs if p.dead))
        with pytest.raises(AssertionError, match="read the records of"):
            check_derived_keys(scenario_for("recovery", size=4))

    def test_a_barrier_read_of_another_managers_bits_is_caught(self, monkeypatch):
        # barrier_in reaches a manager only after the leader's client arrived,
        # so this read of the leader's flag changes no verdict and no key.
        sc = scenario_for("barrier", size=4)
        monkeypatch.setattr(barrier_mod, "_on_barrier_in", on_barrier_in_awaits_the_leader)
        with pytest.raises(AssertionError, match="read the records of"):
            check_derived_keys(sc)
        monkeypatch.setitem(globals(), "audit_footprint", lambda g, step: None)
        assert check_derived_keys(sc) > 0

    def test_a_barrier_write_of_another_managers_bits_is_caught(self, monkeypatch):
        # The next manager's record is the predecessor's too, and the
        # step's key delta covers the acting manager's record alone; the
        # audit sees the write as a read of that record.
        monkeypatch.setattr(barrier_mod, "_on_barrier_out", releases_the_next_client_too)
        with pytest.raises(AssertionError, match="predecessor changed"):
            check_copy_on_write(scenario_for("barrier", size=4))
        with pytest.raises(AssertionError, match="read the records of"):
            check_derived_keys(scenario_for("barrier", size=4))
        with pytest.raises(AssertionError, match="differs from a fresh one"):
            check_keys(scenario_for("barrier", size=4))

    def test_a_trace_write_of_the_initiators_record_is_caught(self, monkeypatch):
        # The initiator's record is the predecessor's too, and the step's
        # key delta covers the forwarding daemon's record alone.
        monkeypatch.setitem(daemons_mod._DISPATCH, TRACE_REQ, trace_req_noted_at_the_initiator)
        with pytest.raises(AssertionError, match="predecessor changed"):
            check_copy_on_write(scenario_for("trace", size=3))
        with pytest.raises(AssertionError, match="read the records of"):
            check_derived_keys(scenario_for("trace", size=3))
        with pytest.raises(AssertionError, match="differs from a fresh one"):
            check_keys(scenario_for("trace", size=3))

    def test_property_checks_and_wake_listing_leave_the_read_record_alone(self):
        sc = scenario_for("trace", size=3)
        g = walk(sc, sc.default_properties(), lambda steps: steps[0] if steps else None
                 ).final_state
        g.sockets.reads = 0  # the walk's last step and checks ran already
        g.shared_read = False
        g.sockets.ready_events()
        explorer_mod.run_properties(g, sc.default_properties(), QUIESCENCE_ONLY)
        explorer_mod.run_properties(g, sc.default_properties(), EVERY_STATE)
        assert g.sockets.reads == 0 and not g.shared_read


class TestKeyRecheck:
    """Each state's key, recomputed from scratch when the DFS pops it, is the
    key it was stored under: no later step wrote a record it shares."""

    @pytest.mark.parametrize("algorithm,kw", REUSE_MODELS,
                             ids=[f"{a}-{'-'.join(map(str, kw.values()))}"
                                  for a, kw in REUSE_MODELS])
    def test_no_key_drifts(self, algorithm, kw):
        report, popped, drifted = recheck_keys(scenario_for(algorithm, **kw))
        assert popped == report.states_stored or report.outcome == VIOLATION
        assert popped > 1 and drifted == 0

    def test_a_record_written_in_place_is_caught(self, monkeypatch):
        monkeypatch.setitem(daemons_mod._DISPATCH, TRACE_REQ, trace_req_noted_at_the_initiator)
        report, popped, drifted = recheck_keys(scenario_for("trace", size=3))
        assert (report.states_stored, popped, drifted) == (8, 8, 7)


def fresh_dead(g) -> frozenset:
    """The dead pids by a scan of every record's phase."""
    return frozenset(p.pid for p in g.procs if getattr(p, "phase", None) == daemons_mod.DEAD)


def both_socket_checks(g) -> bool:
    """Run the socket check two ways on g; True if the touched-fd one ran.

    The property's own check reads only the fds the producing step touched
    where it can; the whole-table check takes a fresh scan of the dead pids.
    Both must pass or both must fail (the first error is raised), and the
    derived dead set must equal the scan.
    """
    assert g.dead_pids() == fresh_dead(g), "derived dead set differs from a scan"
    errors = []
    for check in (properties_mod.check_socket_invariants,
                  lambda g: g.sockets.check_invariants(dead_pids=fresh_dead(g))):
        try:
            check(g)
        except InvariantViolation as e:
            errors.append(e)
    assert len(errors) in (0, 2), f"only one socket check failed: {errors}"
    if errors:
        raise errors[0]
    return g.derived_dead is not None


def check_incrementally(scenario) -> tuple[int, int]:
    """Search every reachable state, running both_socket_checks on each.

    Like check_copy_on_write, the search goes on past handler errors, and
    a state is checked before its successors are made from it, as explore
    and walk do. Returns (states, states the touched-fd check covered).
    """
    init = scenario.initial_state()
    seen = {encode(init)}
    stack = [init]
    incremental = int(both_socket_checks(init))
    while stack:
        g = stack.pop()
        for step in enabled_steps(g):
            try:
                h = apply(g, step)
            except CheckError:
                continue
            key = encode(h)
            if key not in seen:
                seen.add(key)
                incremental += both_socket_checks(h)
                stack.append(h)
    return len(seen), incremental


INCREMENTAL_MODELS = ENCODING_MODELS + [("recovery", {"size": 4})]


class TestIncrementalChecks:
    """A stored state is checked where its step wrote, not over the whole state."""

    @pytest.mark.parametrize("algorithm,kw", INCREMENTAL_MODELS,
                             ids=[f"{a}-{'-'.join(map(str, kw.values()))}"
                                  for a, kw in INCREMENTAL_MODELS])
    def test_touched_fd_check_and_dead_set_agree_with_full_scans(self, algorithm, kw):
        states, incremental = check_incrementally(scenario_for(algorithm, **kw))
        # Only the root and the states right after a failure are checked whole.
        failures = kw["size"] if algorithm == "recovery" else 0
        assert states > 1 and incremental == states - 1 - failures

    def test_a_one_way_link_is_caught_by_both_checks(self, monkeypatch):
        real = daemons_mod._DISPATCH[NEW_LHS]

        def one_way(g, d, fd, msg):
            real(g, d, fd, msg)  # reads and flags fd, so fd is touched
            slots = g.sockets.slots
            peer = slots[fd][OTHER]
            if peer >= 0:
                # The peer forgets the link, fd does not; the write is not logged.
                slots[peer] = (-1,) + slots[peer][OTHER + 1:]

        monkeypatch.setitem(daemons_mod._DISPATCH, NEW_LHS, one_way)
        with pytest.raises(InvariantViolation, match="asymmetric link"):
            check_incrementally(scenario_for("ring-par", size=1, inserters=2))

    def test_a_death_that_keeps_its_fds_is_caught_by_both_checks(self, monkeypatch):
        real = daemons_mod._DISPATCH[RHS_INFO_RETURN]

        def dies(g, d, fd, msg):
            real(g, d, fd, msg)
            d.phase = daemons_mod.DEAD  # no close: the table still lists its fds

        monkeypatch.setitem(daemons_mod._DISPATCH, RHS_INFO_RETURN, dies)
        with pytest.raises(InvariantViolation, match="owned by dead pid"):
            check_incrementally(scenario_for("recovery", size=4))


def scan_ready_events(table) -> list:
    """The wakes by one pass over every slot, as ready_events once found them,
    sorted into its (pid, fd, name) list."""
    events = []
    connecting = set()
    for fd, (other, pid, flag, q) in enumerate(table.slots):
        if flag == FREE:
            continue
        if flag == AWAIT_ACCEPT:
            if pid in connecting:
                continue
            connecting.add(pid)
            name = EVENT_CONNECT
        elif q:
            name = command_of(q[0])
        elif other == INVALID_FD:
            name = EVENT_EOF
        else:
            continue
        events.append((pid, fd, name))
    return sorted(events)


def reference_steps(g) -> list:
    """g's steps by the per-pid loops the protocols once ran, over scanned wakes."""
    ready: dict = {}
    for pid, fd, name in scan_ready_events(g.sockets):
        ready.setdefault(pid, []).append((fd, name))
    out = []
    if g.scenario.protocol is barrier_mod:
        for m in g.procs:
            pid = m.pid
            for fd, name in ready.get(pid, ()):
                out.append(ScheduleStep(pid, fd, name))
            if not m.client_in:
                out.append(ScheduleStep(pid, -1, ACT_CLIENT_ARRIVAL))
        return out
    sc = g.scenario
    dead = g.dead_pids()
    armed = sc.failure is not None and not dead
    for pid, p in enumerate(g.procs):
        for fd, name in ready.get(pid, ()):
            if p.await_cmd is None or name == p.await_cmd:
                out.append(ScheduleStep(pid, fd, name))
        if p.phase == daemons_mod.IDLE and pid >= sc.n_initial:
            out.append(ScheduleStep(pid, -1, ACT_BEGIN_INSERTION))
        if armed and (sc.failure == daemons_mod.FAIL_NONDET or sc.failure == pid):
            out.append(ScheduleStep(pid, -1, ACT_INJECT_FAILURE))
    if not out and sc.trace_enabled and all(p.trace is None for p in g.procs):
        first = next((pid for pid in range(len(g.procs)) if pid not in dead), None)
        if first is not None:
            out.append(ScheduleStep(first, -1, ACT_START_TRACE))
    return out


def walk_ready_events(scenario, seed: int, n_steps: int = 300) -> int:
    """Random apply chains, checking ready_events against the scan.

    Every state of a chain is listed and checked, and its step is chosen
    from that listing. A chain starts over from the initial state at
    quiescence or at a handler error. Returns the number of steps the chains
    took.
    """
    rng = random.Random(seed)
    g = scenario.initial_state()
    stepped = 0
    for _ in range(n_steps):
        assert g.sockets.ready_events() == scan_ready_events(g.sockets), (
            f"seed {seed}: the listed wakes differ from a scan\n{g.dump()}")
        steps = enabled_steps(g)
        try:
            g = apply(g, rng.choice(steps)) if steps else None
        except CheckError:
            g = None
        if g is None:
            g = scenario.initial_state()
        else:
            stepped += 1
    return stepped


# trace with an inserter: the trace start waits until every insertion settles.
LISTING_MODELS = REUSE_MODELS + [("recovery", {"size": 4, "fail_pid": 2}),
                                 ("trace", {"size": 2, "inserters": 1})]


class TestListing:
    """On every state a search stores, a protocol lists the steps that the
    per-pid loops it once ran list over a scan of the slots, in the same
    order."""

    @pytest.mark.parametrize("algorithm,kw", LISTING_MODELS,
                             ids=[f"{a}-{'-'.join(map(str, kw.values()))}"
                                  for a, kw in LISTING_MODELS])
    def test_every_stored_state_lists_the_reference_steps(self, algorithm, kw):
        sc = scenario_for(algorithm, **kw)
        report, states = stored_states(sc)
        assert len(states) == report.states_stored > 1
        for g in states:
            assert sc.protocol.steps(g) == reference_steps(g), g.dump()


READY_MODELS = [
    ("ring-seq", {"size": 2, "inserters": 2}),
    ("ring-seq", {"size": 1, "inserters": 2, "blocking": True}),
    ("ring-par", {"size": 1, "inserters": 3}),
    ("trace", {"size": 3}),
    ("recovery", {"size": 4}),
    ("barrier", {"size": 4}),
]


class TestDerivedWakes:
    """A state's wake map, copied from its predecessor's and kept current by
    every slot write, lists what a scan of its slots finds."""

    @pytest.mark.parametrize("algorithm,kw", READY_MODELS,
                             ids=[f"{a}-{'-'.join(map(str, kw.values()))}"
                                  for a, kw in READY_MODELS])
    def test_random_apply_chains_list_the_wakes_a_scan_finds(self, algorithm, kw):
        sc = scenario_for(algorithm, **kw)
        stepped = sum(walk_ready_events(sc, seed) for seed in range(4))
        assert stepped > 900


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
        hook = Property("seen", QUIESCENCE_ONLY, seen.append)
        explore(sc, sc.default_properties() + (hook,))
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


class TestCheckedSteps:
    """checked_steps, the one state check: every-state properties in their
    listed order, then, on a state with no step, the quiescence ones."""

    @staticmethod
    def noting(ran, kind, when, fails=False):
        def check(g):
            ran.append(kind)
            if fails:
                raise InvariantViolation(f"{kind} broke")
        return Property(kind, when, check)

    def test_every_state_properties_run_in_order_before_any_quiescence_one(self):
        quiet = scenario_for("ring-par", size=1).initial_state()  # no step at all
        busy = scenario_for("ring-par", size=1, inserters=1).initial_state()
        assert not enabled_steps(quiet) and enabled_steps(busy)
        ran = []
        props = (self.noting(ran, "q1", QUIESCENCE_ONLY), self.noting(ran, "e1", EVERY_STATE),
                 self.noting(ran, "q2", QUIESCENCE_ONLY), self.noting(ran, "e2", EVERY_STATE))
        assert explorer_mod.checked_steps(quiet, props) == []
        assert ran == ["e1", "e2", "q1", "q2"]
        ran.clear()
        assert explorer_mod.checked_steps(busy, props) == enabled_steps(busy)
        assert ran == ["e1", "e2"]

    @pytest.mark.parametrize("failing", ["e1", "e2", "q1"])
    def test_the_first_failure_carries_its_kind_and_stops_the_check(self, failing):
        quiet = scenario_for("ring-par", size=1).initial_state()
        ran = []
        props = tuple(self.noting(ran, kind, when, kind == failing)
                      for kind, when in [("q1", QUIESCENCE_ONLY), ("e1", EVERY_STATE),
                                         ("e2", EVERY_STATE), ("q2", QUIESCENCE_ONLY)])
        with pytest.raises(PropertyViolation) as e:
            explorer_mod.checked_steps(quiet, props)
        assert str(e.value) == f"{failing}: {failing} broke"
        assert isinstance(e.value.__cause__, InvariantViolation)
        order = ["e1", "e2", "q1", "q2"]
        assert ran == order[:order.index(failing) + 1]

    def test_a_check_rebound_before_default_properties_is_the_one_that_runs(self, monkeypatch):
        # As perfbench's tracer wraps each check: rebind it in _CHECKS, then
        # build the scenario's properties.
        real = properties_mod._CHECKS[SOCKET_INVARIANTS]
        calls = []

        def counted(g):
            calls.append(g)
            real(g)

        monkeypatch.setitem(properties_mod._CHECKS, SOCKET_INVARIANTS, counted)
        sc = scenario_for("ring-par", size=2, inserters=1)
        report = explore(sc, sc.default_properties())
        assert report.outcome == VERIFIED and len(calls) == report.states_stored

        def broken(g):
            raise InvariantViolation("rebound")

        monkeypatch.setitem(properties_mod._CHECKS, SOCKET_INVARIANTS, broken)
        report = explore(sc, sc.default_properties())
        assert (report.outcome, report.violation, report.trace) == (
            VIOLATION, f"{SOCKET_INVARIANTS}: rebound", ())


class TestWalk:
    def test_walk_rejects_steps_not_enabled(self):
        sc = scenario_for("ring-par", size=2, inserters=1)
        with pytest.raises(ContractViolation, match="step 1 is not enabled"):
            walk(sc, (), lambda steps: ScheduleStep(0, 0, "new_rhs"))
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
        bogus = [ScheduleStep(0, 7, "new_rhs")]
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


def test_the_explorer_imports_no_protocol_module():
    # The search core runs whichever protocol a scenario names; it must not
    # reach into one, nor into the modules that configure and check them.
    tree = ast.parse(Path(explorer_mod.__file__).read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.update((node.module or "").split("."))
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(part for alias in node.names for part in alias.name.split("."))
    assert "sockets" in names  # the walk over the tree sees the imports
    assert not names & {"daemons", "barrier", "properties", "scenarios"}


class TestRecords:
    def test_reports_keep_their_fields_and_none_defaults(self):
        assert VerificationReport._fields == (
            "outcome", "states_stored", "states_matched", "max_depth", "elapsed",
            "violation", "trace")
        report = VerificationReport(VERIFIED, 1, 0, 0, 0.0)
        assert (report.violation, report.trace) == (None, None)
        assert WalkReport._fields == ("trace", "final_state", "quiescent", "violation")
        walked = WalkReport((), None, True)
        assert walked.violation is None

    def test_records_cannot_be_reassigned(self):
        sc = scenario_for("ring-par", size=1, inserters=1)
        prop = sc.default_properties()[0]
        for record, field in ((explore(sc), "outcome"),
                              (simulate(sc, seed=0), "violation"),
                              (prop, "when")):
            with pytest.raises(AttributeError):
                setattr(record, field, None)

    def test_hashes_with_the_constructor_hashlib_names(self):
        # Taken from _blake2 so that importing the explorer maps no OpenSSL;
        # being hashlib's own object keeps every key and digest bit-identical.
        assert explorer_mod.blake2b is hashlib.blake2b
