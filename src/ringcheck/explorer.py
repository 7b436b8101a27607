"""Explicit-state exploration over the simulated socket world.

A GlobalState carries every mutable piece of a scenario: the descriptor
table, all per-process records and one episode record, whose fields only its
protocol module reads. States are canonically encodable; the encoding is
injective over the scenario's state space, so the visited set prunes exactly
the states already expanded.

The model already holds its canonical form, in the manner of SPIN's flat
state vector (Holzmann, "State compression in SPIN", 1997): daemons name
each other by pid, and a queued message is a plain int tuple
(cmd index, a, b, origin, ids, hops) with -1 for an absent party. A state's
encoding is therefore the marshal of its own fields, in four columns:

    (sockets: (other, owner, flag, queues),
     processes: (one field tuple per pid),
     trace: (started, initiator, collected pids, done) or (),
     barrier bits: (client_barrier_in, client_barrier_out) or ())

The episode record fills one of the last two columns and leaves the other
empty (its columns method), so the explorer never names the record's type.

A step costs what it changes, not the number of processes. Handlers only
ever mutate the acting process, so a successor shares every other process
record with its predecessor (copy on write: apply copies the acting one).
The episode record is shared the same way: the few handlers that write it
copy it first. The ready events of all processes come from the socket
table's wake map, which a successor's table derives from its predecessor's
at the fds its step wrote.

The visited store does not hold encodings. It holds a 128-bit key that is
the sum, mod 2**128, of one hash per component of the state: each fd's slot
tuple (hashed whole; its layout is the socket table's), each process record
and the episode record, hashed with its position (state_key). A successor's
key is its predecessor's plus the difference of the hashes of the components
its step replaced: the fds its socket table logged as written, the acting
pid's record if its canon() changed, and the episode record if the step
swapped it for a copy. So a stored state costs what its step touched, in the
manner of Nguyen & Ruys, "Incremental hashing for SPIN" (SPIN 2008).
encode(g) stays the definition of state equality: two states get one key
exactly when their encodings are equal, up to a 128-bit hash collision.
The hash is blake2b from CPython's built-in _blake2 module, the very
constructor hashlib.blake2b names; importing hashlib would also map
OpenSSL (_hashlib, about 3.6 MB of RSS) for this one function, so hashlib
is only the fallback where _blake2 is missing, as the stdlib's random takes
_sha512. The search's records are NamedTuples for the same reason: the
dataclasses module would load inspect, ast and dis (about 1 MB) at import.

The store (VisitedKeys) keeps each key in a 16-byte slot, in the manner of
SPIN's compact state store (Holzmann 1997): its high and low 64-bit words
sit at one index of two word arrays, in one of four open-addressing
sub-tables that each double when 3/4 of their slots are used. A lookup
compares both words, so all 128 bits are kept; an empty slot is all zero, so
the key 0 is kept by a flag of its own. Every key goes in and is looked up
through VisitedKeys.add, the store's one probe. A stored state costs at most
43 bytes once its sub-table has grown, where a set of Python ints took about
96 (a 48-byte int object and its share of the set's table).

What a state knows about its step is kept to check it cheaply. apply
derives the successor's set of dead pids from the predecessor's, updated at
the acting pid, so no check scans every process for failures; and the
successor's socket table logs the fds the step wrote, so the every-state
socket check reads those fds and their peers instead of the whole table. A
state that apply did not make, or whose step killed a process, is checked
whole.

The unit of interleaving is one handler invocation. Like SPIN's search
engine, the explorer knows nothing of the protocol it runs: the scenario's
protocol module (daemons or barrier) builds the initial state
(initial_state), lists the properties to check (properties), lists a
state's enabled steps in a fixed order (steps) and runs one (act for a
spontaneous action, handle_event for a wake, whose step cmd is the name the
socket table gave the wake).
Quiescence is the absence of any step at all, and is where the end-state
properties are evaluated (checked_steps, the one state check of search and
walk); a state with undeliverable or unconsumed messages is never quiescent
and therefore never satisfies a quiescence-only property by accident.

Verification is a depth-first search with state hashing. Every other run of
a schedule is a walk: one loop that asks a chooser for the next step, refuses
a step that is not enabled, and stops at the first handler error or property
failure, keeping the failing step in its trace. Simulation walks with a seeded
uniform random chooser; replay walks a recorded schedule.
"""

from __future__ import annotations

import marshal
import random
import time
from itertools import compress
from operator import or_
from typing import Callable, Iterable, NamedTuple

try:
    from _blake2 import blake2b  # what hashlib.blake2b is, without loading OpenSSL
except ImportError:
    from hashlib import blake2b

from .errors import CheckError, ContractViolation, PropertyViolation
from .sockets import EVENT_CONNECT, EVENT_EOF  # noqa: F401 (wake step names)

# Outcomes.
VERIFIED = "VERIFIED"
VIOLATION = "VIOLATION"
RESOURCE_LIMIT = "RESOURCE_LIMIT"

# ScheduleStep kinds and the action vocabulary.
KIND_EVENT = "event"
KIND_ACTION = "action"
ACT_BEGIN_INSERTION = "begin_insertion"
ACT_CLIENT_ARRIVAL = "client_arrival"
ACT_INJECT_FAILURE = "inject_failure"
ACT_START_TRACE = "start_trace"


class ScheduleStep(NamedTuple):
    """One scheduled handler invocation or spontaneous action."""

    pid: int
    kind: str
    fd: int  # -1 for actions
    cmd: str  # message command, "connect", "eof", or an action name

    def render(self) -> str:
        fd = str(self.fd) if self.fd >= 0 else "-"
        return f"pid={self.pid} kind={self.kind} fd={fd} cmd={self.cmd}"


class GlobalState:
    """Everything mutable in one scenario instant.

    episode is the protocol's record of the running episode. It supplies
    its two encoding columns (columns), its flat component tuple for the
    visited key (canon) and its dump line (dump, "" for none).

    derived_dead is the set of dead pids as apply derived it from the
    predecessor's. It is None on a state apply did not make, and on one
    whose step changed the set; such a state scans its records for it.

    _key is the state's visited key once state_key has computed it. apply
    leaves a successor of a keyed state a _link, (predecessor, acting pid),
    from which state_key updates the predecessor's key; state_key drops it.
    A state is mutated only between its creation and its first state_key
    call, so a computed key never goes stale.

    Listing a state's steps calls sockets.ready_events, which keeps the
    wake map of the table's slots on the table until the table is next
    written; the successors' tables start from it. That cache is no part of
    the state: it never changes the slots, the encoding or the key.
    """

    __slots__ = ("scenario", "sockets", "procs", "episode", "derived_dead", "_key", "_link")

    def __init__(self, scenario, sockets, procs, episode):
        self.scenario = scenario  # static, shared across all derived states
        self.sockets = sockets
        self.procs = procs
        self.episode = episode
        self.derived_dead = None
        self._key = None
        self._link = None

    def clone(self) -> "GlobalState":
        """A successor to mutate; records stay shared, see apply."""
        g = GlobalState.__new__(GlobalState)
        g.scenario = self.scenario
        g.sockets = self.sockets.clone()
        g.procs = self.procs[:]
        g.episode = self.episode  # copied by the handler that writes it
        g.derived_dead = None
        g._key = None
        g._link = None
        return g

    def dead_pids(self) -> frozenset[int]:
        """The pids of the processes that have failed."""
        dead = self.derived_dead
        if dead is None:
            return frozenset([p.pid for p in self.procs if p.dead])
        return dead

    def canon(self) -> tuple:
        return (self.sockets.canon(), tuple([p.canon() for p in self.procs]),
                *self.episode.columns())

    def dump(self) -> str:
        lines = [p.summary() for p in self.procs]
        lines += [part for part in (self.episode.dump(self), self.sockets.dump()) if part]
        return "\n".join(lines)


def encode(g: GlobalState) -> bytes:
    """Stable canonical byte encoding; equal states yield identical bytes."""
    return marshal.dumps(g.canon(), 2)


def state_digest(g: GlobalState) -> bytes:
    """The reference digest: 128-bit blake2b of the full canonical encoding.

    The search keys states by state_key instead; this digest names a state
    independently of how it was reached, for tests and tools that compare
    states across runs.
    """
    return blake2b(encode(g), digest_size=16).digest()


# The hash memo is cleared at this size: unbounded, it grew peak RSS by
# 1.6 MB on barrier 13, whose episode record is almost unique per state.
MEMO_LIMIT = 1024

_KEY_MASK = (1 << 128) - 1
EPISODE_POS = -1


def _component_hash(pos: int, c: tuple, memo: dict) -> int:
    """128-bit blake2b of one component at its position, memoised in memo.

    Components hold only ints, strs and tuples of them, so equal values as
    dict keys are equal marshal bytes.
    """
    item = (pos, c)
    h = memo.get(item)
    if h is None:
        if len(memo) >= MEMO_LIMIT:
            memo.clear()
        h = memo[item] = int.from_bytes(
            blake2b(marshal.dumps(item, 2), digest_size=16).digest(), "little")
    return h


def state_key(g: GlobalState, memo: dict) -> int:
    """The visited key of g: the sum mod 2**128 of its component hashes.

    The components are each fd's slot tuple at position fd, each process
    record at position len(slots) + pid, and the episode record's canon()
    at position -1. A state with a _link updates its predecessor's key at
    the components its step may have replaced: the fds its table logged in
    touched, the acting pid's record unless its canon() equals the
    predecessor's, and the episode record if it is no longer the
    predecessor's object. Any other state sums every component. memo maps
    (position, component) to its hash; one search shares one memo. Unequal
    states collide with chance 2**-128 per pair, below 1e-20 across even
    10**9 stored states, so exhaustiveness is not meaningfully weakened.

    explore stores the key whole in VisitedKeys: 16 bytes per slot, at most
    3/4 of a sub-table's slots used, both 64-bit words compared on lookup,
    and the key 0, which would read as an empty slot, kept by its own flag.
    """
    key = g._key
    if key is not None:
        return key
    slots = g.sockets.slots
    base = len(slots)
    link = g._link
    if link is None:
        key = 0
        for fd, slot in enumerate(slots):
            key += _component_hash(fd, slot, memo)
        for pid, p in enumerate(g.procs):
            key += _component_hash(base + pid, p.canon(), memo)
        key += _component_hash(EPISODE_POS, g.episode.canon(), memo)
    else:
        g._link = None
        prev, pid = link
        key = prev._key
        old = prev.sockets.slots
        for fd in set(g.sockets.touched):
            key += _component_hash(fd, slots[fd], memo) - _component_hash(
                fd, old[fd], memo)
        now = g.procs[pid].canon()
        was = prev.procs[pid].canon()
        if now != was:
            pos = base + pid
            key += _component_hash(pos, now, memo) - _component_hash(pos, was, memo)
        if g.episode is not prev.episode:
            key += _component_hash(EPISODE_POS, g.episode.canon(), memo) - _component_hash(
                EPISODE_POS, prev.episode.canon(), memo)
    key &= _KEY_MASK
    g._key = key
    return key


# ---------------------------------------------------------------------------
# the visited store
# ---------------------------------------------------------------------------

WORD = (1 << 64) - 1
SUBTABLE_BITS = 2  # the top bits of a key's high word pick its sub-table
SUBTABLE_SHIFT = 64 - SUBTABLE_BITS
FIRST_SLOTS = 128  # each sub-table's slots at the start; a power of two


def _words(n: int) -> memoryview:
    """n zeroed unsigned 64-bit words.

    A 'Q' view of a bytearray is laid out as array('Q') is, without loading
    the array extension module, whose pages add about 0.14 MB to a process.
    """
    return memoryview(bytearray(8 * n)).cast("Q")


def _free_slots(n: int) -> tuple:
    """A sub-table of n empty slots: (high words, low words, n - 1)."""
    return _words(n), _words(n), n - 1


class VisitedKeys:
    """The visited keys of one search, 16 bytes per slot.

    The keys are kept in 2**SUBTABLE_BITS open-addressing sub-tables, picked
    by the top bits of a key's high word. A sub-table is two word arrays
    (_words) of one power-of-two length, the high and the low words of its
    slots; an empty slot is all zero. A key's first slot is the low bits of
    its low word; from there the probe steps by the low bits of its high
    word, made odd (double hashing), so it reaches every slot. A key matches
    a slot only if both words are equal, so all 128 bits tell keys apart.
    The key 0 would read as an empty slot, so zero records it instead.

    room[s] is how many more keys sub-table s takes before it is 3/4 full;
    the key that fills it to 3/4 doubles it (grow). Each sub-table doubles
    on its own, so growing holds one sub-table's old and new arrays, not the
    whole store twice, and the store never holds more than 16 bytes / (3/8)
    = 43 bytes per key in a sub-table that has grown.

    add is the store's one way in: explore stores and looks up every key
    through it, the initial state's included.
    """

    __slots__ = ("tables", "room", "zero")

    def __init__(self):
        self.tables = [_free_slots(FIRST_SLOTS) for _ in range(1 << SUBTABLE_BITS)]
        self.room = [FIRST_SLOTS * 3 // 4] * (1 << SUBTABLE_BITS)
        self.zero = False

    def add(self, key: int) -> bool:
        """Store key; True if it was not stored before."""
        hi = key >> 64
        lo = key & WORD
        his, los, mask = self.tables[hi >> SUBTABLE_SHIFT]
        i = lo & mask
        w = los[i]
        if w != lo or his[i] != hi:
            stride = hi & mask | 1
            while w or his[i]:
                i = (i + stride) & mask
                w = los[i]
                if w == lo and his[i] == hi:
                    break
            else:  # slot i is empty: key is new
                his[i] = hi
                los[i] = lo
                s = hi >> SUBTABLE_SHIFT
                self.room[s] -= 1
                if not self.room[s]:
                    self.grow(s)
                return True
        if key:
            return False  # slot i holds key
        new = not self.zero  # key is 0 and slot i is empty, and stays so
        self.zero = True
        return new

    def grow(self, s: int) -> None:
        """Double sub-table s and re-insert its keys."""
        old_his, old_los, old_mask = self.tables[s]
        his, los, mask = self.tables[s] = _free_slots(2 * (old_mask + 1))
        for hi, lo in compress(zip(old_his, old_los), map(or_, old_his, old_los)):
            i = lo & mask
            while his[i] or los[i]:
                i = (i + (hi & mask | 1)) & mask
            his[i] = hi
            los[i] = lo
        self.room[s] = (old_mask + 1) * 3 // 4  # 3/4 of 2n slots, less the 3n/4 keys held


# ---------------------------------------------------------------------------
# step relation
# ---------------------------------------------------------------------------


def enabled_steps(g: GlobalState) -> list[ScheduleStep]:
    """All steps executable from g, in the protocol's deterministic order.

    Verification never randomizes this order.
    """
    return g.scenario.protocol.steps(g)


def apply(g: GlobalState, step: ScheduleStep) -> GlobalState:
    """Execute one step on a copy of g and return the successor.

    The step must be one of enabled_steps(g); its callers, explore and walk,
    only pass steps they have checked. Handler failures propagate as
    CheckError for the caller to classify.

    Only the acting process is copied: every handler and action mutates
    h.procs[step.pid] alone, and the other records stay shared with g. For
    the same reason h's dead set differs from g's at most at step.pid, and
    once g is keyed, h's key differs from g's only at what the step touched
    (see state_key).
    """
    h = g.clone()
    pid = step.pid
    p = h.procs[pid] = h.procs[pid].clone()
    if g._key is not None:
        h._link = (g, pid)
    dead = h.derived_dead = g.dead_pids()  # what the handler sees of the others
    if step.kind == KIND_ACTION:
        h.scenario.protocol.act(h, p, step.cmd)
    else:
        h.scenario.protocol.handle_event(h, p, step.fd, step.cmd)
    if p.dead != (pid in dead):
        h.derived_dead = None  # the step killed pid: h is checked as a fresh state
    return h


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

EVERY_STATE = "every_state"
QUIESCENCE_ONLY = "quiescence"


class Property(NamedTuple):
    """A named check with its evaluation point."""

    kind: str
    when: str  # EVERY_STATE or QUIESCENCE_ONLY
    fn: Callable[[GlobalState], None]  # raises CheckError on failure


class VerificationReport(NamedTuple):
    outcome: str
    states_stored: int
    states_matched: int
    max_depth: int
    elapsed: float
    violation: str | None = None
    trace: tuple[ScheduleStep, ...] | None = None


def run_properties(g: GlobalState, props: Iterable[Property], when: str) -> None:
    for prop in props:
        if prop.when == when:
            try:
                prop.fn(g)
            except CheckError as e:
                raise PropertyViolation(f"{prop.kind}: {e}") from e


def checked_steps(g: GlobalState, properties: Iterable[Property]) -> list[ScheduleStep]:
    """g's enabled steps, once g passed its properties; the one state check.

    The every-state properties run on every state, the quiescence ones only
    on a state with no step, in the order properties lists them. A failure
    raises PropertyViolation.
    """
    steps = enabled_steps(g)
    run_properties(g, properties, EVERY_STATE)
    if not steps:
        run_properties(g, properties, QUIESCENCE_ONLY)
    return steps


# ---------------------------------------------------------------------------
# exhaustive search
# ---------------------------------------------------------------------------


def explore(
    scenario,
    properties: tuple[Property, ...] = (),
    *,
    max_depth: int = 1_000_000,
    max_states: int = 50_000_000,
) -> VerificationReport:
    """Depth-first search with state hashing over every interleaving.

    Stops at the first violation and returns the schedule that produced it.
    If a resource limit truncates the search the outcome is RESOURCE_LIMIT
    even when no violation was seen, because unexplored states remain. The
    budgets count the initial state like any other: it is stored state 1
    and sits at depth 0.

    Properties run only on newly stored states, after the visited-store
    lookup, which is why the search does not share walk's loop; it shares
    walk's state check, checked_steps.
    """
    t0 = time.perf_counter()
    init = scenario.initial_state()
    memo: dict = {}  # component hashes, see state_key
    visited = VisitedKeys()
    add = visited.add
    add(state_key(init, memo))
    stored = 1
    matched = 0
    deepest = 0
    truncated = False

    def report(outcome, violation=None, trace=None):
        return VerificationReport(
            outcome=outcome,
            states_stored=stored,
            states_matched=matched,
            max_depth=deepest,
            elapsed=time.perf_counter() - t0,
            violation=violation,
            trace=trace,
        )

    path: list[ScheduleStep] = []
    # Each frame: (state, an iterator over the steps of it not yet tried).
    stack: list[tuple] = []
    state = init  # newly stored, reached by path; the root is no exception
    try:
        while True:
            steps = checked_steps(state, properties)
            if stored >= max_states:
                return report(RESOURCE_LIMIT, violation="state budget exhausted",
                              trace=tuple(path))
            if steps and len(path) >= max_depth:
                truncated = True  # do not expand deeper; search stays incomplete
                if path:
                    path.pop()
            else:
                stack.append((state, iter(steps)))
            # Find the next state not yet stored.
            while stack:
                state, todo = stack[-1]
                for step in todo:
                    try:
                        succ = apply(state, step)
                    except CheckError:
                        path.append(step)  # the trace ends with the failing step
                        raise
                    if add(state_key(succ, memo)):
                        break
                    matched += 1
                else:
                    stack.pop()  # every step of state is tried
                    if path:
                        path.pop()
                    continue
                path.append(step)
                stored += 1
                if len(path) > deepest:
                    deepest = len(path)
                state = succ
                break
            else:
                break  # every stored state is expanded
    except CheckError as e:
        # path is the schedule to the failing handler or state, () for the root.
        return report(VIOLATION, violation=str(e), trace=tuple(path))

    if truncated:
        return report(RESOURCE_LIMIT, violation="depth budget exhausted")
    return report(VERIFIED)


# ---------------------------------------------------------------------------
# walks: simulation and replay
# ---------------------------------------------------------------------------


class WalkReport(NamedTuple):
    """Where one walk ended: a simulation or a replay."""

    trace: tuple[ScheduleStep, ...]  # steps taken, a failing step included
    final_state: GlobalState  # the state before the failing step if a handler raised
    quiescent: bool  # final_state has no enabled step
    violation: str | None = None  # the first failure; None if every check held


def walk(
    scenario,
    properties: tuple[Property, ...],
    choose: Callable[[list[ScheduleStep]], ScheduleStep | None],
    on_step: Callable[[ScheduleStep, GlobalState, GlobalState | None], None] | None = None,
) -> WalkReport:
    """Run one schedule from the initial state, checking every state reached.

    choose(steps) gets the enabled steps of the current state and returns
    the next step, or None to stop. A step that is not enabled, including
    any step after quiescence, raises ContractViolation before it runs.
    on_step(step, before, after) sees each step once it has run, with
    after=None when the handler raised. The walk stops at the first handler
    error or property failure and keeps the failing step in its trace, so
    replaying that trace reproduces the failure.
    """
    g = scenario.initial_state()
    taken: list[ScheduleStep] = []
    try:
        while True:
            steps = checked_steps(g, properties)
            step = choose(steps)
            if step is None:
                return WalkReport(tuple(taken), g, not steps)
            if step not in steps:
                break  # raised below, where the handler-error net cannot catch it
            taken.append(step)
            after = None
            try:
                after = apply(g, step)
            finally:
                if on_step is not None:
                    on_step(step, g, after)
            g = after
    except CheckError as e:
        # g failed a property, or is the state the failing step started from.
        return WalkReport(tuple(taken), g, not enabled_steps(g), str(e))
    raise ContractViolation(f"step {len(taken) + 1} is not enabled here: {step.render()}")


def simulate(scenario, properties: tuple[Property, ...] = (), *, seed: int = 0,
             max_steps: int = 100_000) -> WalkReport:
    """One seeded uniform random walk to quiescence, a failure or the step budget.

    Equal seeds walk identical paths.
    """
    rng = random.Random(seed)
    budget = iter(range(max_steps))

    def choose(steps):
        if not steps or next(budget, None) is None:
            return None
        return steps[rng.randrange(len(steps))]

    return walk(scenario, properties, choose)


def replay(scenario, schedule: Iterable[ScheduleStep], properties: tuple[Property, ...] = (),
           on_step=None) -> WalkReport:
    """Re-execute a recorded schedule; see walk for on_step and what stops it."""
    remaining = iter(schedule)
    return walk(scenario, properties, lambda steps: next(remaining, None), on_step)
