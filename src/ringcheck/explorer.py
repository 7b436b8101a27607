"""Explicit-state exploration over the simulated socket world.

A GlobalState carries every mutable piece of a scenario: the descriptor
table and the per-process records. States are canonically encodable; the
encoding is injective over the scenario's state space, so the visited set
prunes exactly the states already expanded.

The model already holds its canonical form, in the manner of SPIN's flat
state vector (Holzmann, "State compression in SPIN", 1997): daemons name
each other by pid, and a queued message is a plain int tuple
(cmd index, a, b, ids) with -1 for an absent party. A state's encoding is
therefore the marshal of its own fields, in two parts:

    (sockets: (one (other, owner, flag, queue) slot per fd),
     processes: (one field tuple per pid; a manager's holds its client's
                 in and out flags, a daemon's the trace it started))

Each part holds what some handler or property reads and nothing that
follows from the rest, as SPIN's data-flow pass keeps dead variables out of
its state vector (Holzmann, "The model checker SPIN", 1997). There is no
shared record: as in MPD, whose daemons share no memory, what a protocol
episode collects lives in the record of the process that runs it, as a
local variable of that process does in SPIN's state vector. Each record
makes its own tuple (its canon method), so the explorer never names a
record's type.

A step costs what it changes, not the number of processes. Handlers only
ever mutate the acting process, so a successor shares every other process
record with its predecessor (copy on write: apply copies the acting one).
The ready events of all processes come from the socket table's wake map,
which a successor's table copies from its predecessor's and every slot
write keeps current. Sorted, the map lists the wakes by pid, so a protocol
lists a state's steps by merging that list with its pending actions, not by
visiting every process.

The visited store does not hold encodings. It holds a 128-bit key that is
the sum, mod 2**128, of one hash per component of the state: each fd's slot
tuple (hashed whole; its layout is the socket table's) and each process
record, each hashed with its position (state_key). A successor's key is its
predecessor's plus its step's delta (step_delta), the difference of the
hashes of the components the step replaced: the fds its socket table logged
as written and the acting pid's record if its canon() changed. A step
writes its own record and slots alone, so it costs the same at any process
count. step_delta is the one incremental path; only the initial state's key
sums every component. So a stored state costs what its step touched, in the
manner of Nguyen & Ruys, "Incremental hashing for SPIN" (SPIN 2008). The keys live in the search,
not in the states: each DFS frame holds its state's key, and a state never
learns its own.
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
43 bytes in the word arrays once its sub-table has grown, where a set of
Python ints took about 96 (a 48-byte int object and its share of the set's
table). In front of the probe sits recent, a Python set of the keys stored
last, which add asks first. A depth-first search mostly re-finds the states
it stored a moment ago (the locality that state-space caching exploits:
Godefroid, Holzmann & Pirottin, "State-Space Caching Revisited", 1992), and
those are the lookups that probe longest at the 3/4 bound; barrier 13 finds
88 % of its matched keys in recent. A key enters recent only once it is in
the word arrays, and recent is cleared at RECENT_LIMIT (4,096) keys, so it
changes no answer of add and costs a fixed 310 KB or so on top of the
43 bytes per key.

The search runs no step whose successor key it can derive. A step changes
the key by the hashes of the components it writes, new minus old: its
delta. A handler reads its own process record, the socket slots its table
logs in the read record (SocketTable.reads), and nothing else of the state
but the dead set, through GlobalState.read_dead_pids; the scenario is
static. A step writes only what it read, so in any state where what it read
is as it was, it writes the same values over the same old ones, and its
delta is the same. Each DFS frame therefore keeps (delta, footprint), the
footprint being the table's read record, for the steps tried at its
state and those its parent passed down, the delta being the very
step_delta that keyed the step where it ran; descending through a step t,
a frame passes down the entries of the other pids whose footprint t's
touched fds leave alone (t wrote its own record, which only the steps of
its pid read), in the manner of Godefroid's sleep sets
("Partial-Order Methods for the Verification of Concurrent Systems", 1996).
A step whose handler read the dead set takes no entry: a failure
recovery's bridge, and a trace_req passed on, which counts the live
daemons. A trace's initiator keeps its collection in its own record, and a
barrier manager its client's flags, so their steps read and write only
their own record and the slots they log, and take an entry like any other
step: barrier 13 matches 90,102 of its 106,509 transitions unrun.
Only a step its state lists uses an entry, so whether a step is enabled,
and under which name (its fd, say: a connect wake names the lowest pending
fd), is decided where it would run. Its key is then the state's key plus
the stored delta, and apply offers it to VisitedKeys.add like any other: if
it is stored, the step counts as matched and neither runs nor is keyed; if
it is new, the step runs for real and its successor takes that key. So add
sees the keys, in the order, of a search that runs every step, every count,
verdict and trace is that search's, and apply is called once per
transition either way; unlike a sleep set, nothing is pruned. A handler
read that bypasses the logging would give wrong keys, which the tests
check against a search that runs every step.

What a state knows about its step is kept to check it cheaply. apply
derives the successor's set of dead pids from the predecessor's, updated at
the acting pid, so no check scans every process for failures; and the
successor's socket table logs the fds the step wrote, so the every-state
socket check is one pass over those fds that reads each, and its peer,
once (SocketTable.check_touched), instead of the whole table. A state that
apply did not make, or whose step killed a process, is checked whole. The
key goes the same way: step_delta re-hashes only the written slots, most
of them found in its memo. So the work a new state costs, its check and
its key, follows what its step wrote, as SPIN's checks follow what a
transition changed.

The unit of interleaving is one handler invocation. Like SPIN's search
engine, the explorer knows nothing of the protocol it runs: the scenario's
protocol module (daemons or barrier) builds the initial state
(initial_state), lists the properties to check (properties), lists a
state's enabled steps in a fixed order (steps), runs one, and renders the
protocol's line of a state dump (dump_line). A step is
(pid, fd, cmd): with fd -1 it is a spontaneous action, which act runs;
with any other fd it is a wake on that fd, which handle_event runs, its
cmd the name the socket table gave the wake. A protocol makes its steps
with schedule_step, which interns them: every listing of a step is one
object, built once, not once per state. A protocol lists its wakes and
its actions each in pid order, and a stable sort by step_pid merges them,
each wake before its own pid's actions.
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

import functools
import marshal
import random
import time
from itertools import compress
from operator import itemgetter, or_
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
    """One scheduled handler invocation or spontaneous action.

    A step is named by its process and what it does, as a line of SPIN's
    trail names a process and a transition: a step with fd -1 is an action,
    any other a wake on that fd, so its kind is read off the fd.
    """

    pid: int
    fd: int  # -1 for actions
    cmd: str  # message command, "connect", "eof", or an action name

    @property
    def kind(self) -> str:
        return KIND_ACTION if self.fd < 0 else KIND_EVENT

    def render(self) -> str:
        fd = str(self.fd) if self.fd >= 0 else "-"
        return f"pid={self.pid} kind={self.kind} fd={fd} cmd={self.cmd}"


# The protocols make their steps through this interned constructor, one
# object per distinct step, so listing a state builds no step built before.
# Steps are immutable and few (pids x fds x names), so the cache may keep
# them for the life of the process. Equal steps compare equal however made.
schedule_step = functools.cache(ScheduleStep)


step_pid = itemgetter(0)  # a ScheduleStep's pid, the sort key that merges listed steps


class GlobalState:
    """Everything mutable in one scenario instant: the socket table and the
    process records.

    derived_dead is the set of dead pids as apply derived it from the
    predecessor's. It is None on a state apply did not make, and on one
    whose step changed the set; such a state scans its records for it.

    shared_read is True if the handler of the step that made the state read
    the dead set (read_dead_pids); explore keeps no entry for such a step
    (see the module docstring). Checks and step listing read the fields
    directly and log nothing.

    A state caches nothing its checks compute: each quiescence check that
    needs the ring walks it again (properties.ring_order), and a search
    meets few quiescent states.

    A state does not hold its visited key: explore keeps each key in the
    DFS frame of its state (see state_key and step_delta).

    Listing a state's steps calls sockets.ready_events, which sorts the
    table's wake map into a (pid, fd, name) list: every slot write keeps
    the map current, and a successor's table starts from a copy. The
    protocol merges its pending actions into that list, so a listing costs
    the wakes and actions it lists, not the number of processes. The map
    is no part of the state: it follows from the slots, so it adds nothing
    to the encoding or the key.
    """

    __slots__ = ("scenario", "sockets", "procs", "derived_dead", "shared_read")

    def __init__(self, scenario, sockets, procs):
        self.scenario = scenario  # static, shared across all derived states
        self.sockets = sockets
        self.procs = procs
        self.derived_dead = None
        self.shared_read = False  # see the class docstring

    def clone(self) -> "GlobalState":
        """A successor to mutate; records stay shared, see apply."""
        g = GlobalState.__new__(GlobalState)
        g.scenario = self.scenario
        g.sockets = self.sockets.clone()
        g.procs = self.procs[:]
        g.derived_dead = None
        g.shared_read = False
        return g

    def read_dead_pids(self) -> frozenset[int]:
        """dead_pids(), read by a handler: sets shared_read, as the socket
        table's accessors log the slots they read."""
        self.shared_read = True
        return self.dead_pids()

    def dead_pids(self) -> frozenset[int]:
        """The pids of the processes that have failed."""
        dead = self.derived_dead
        if dead is None:
            return frozenset([p.pid for p in self.procs if p.dead])
        return dead

    def canon(self) -> tuple:
        return (self.sockets.canon(), tuple([p.canon() for p in self.procs]))

    def dump(self) -> str:
        lines = [p.summary() for p in self.procs]
        lines += [part for part in (self.scenario.protocol.dump_line(self), self.sockets.dump())
                  if part]
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


# The hash memo is cleared at this size: unbounded, it held 4,502 entries
# and grew peak RSS by 1.0 MB on recovery 48, whose many slot tuples are
# seldom met twice.
MEMO_LIMIT = 1024

_KEY_MASK = (1 << 128) - 1


def _component_hash(pos: int, c: tuple, memo: dict) -> int:
    """128-bit blake2b of one component at its position, memoised in memo.

    Components hold only ints, strs, None, a manager's bools and tuples of
    them, and no position holds both a bool and an int, so equal values as
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

    The components are each fd's slot tuple at position fd and each process
    record at position len(slots) + pid. memo maps (position, component) to its hash; one
    search shares one memo.
    Unequal states collide with chance 2**-128 per pair, below 1e-20
    across even 10**9 stored states, so exhaustiveness is not meaningfully
    weakened. explore sums every component only for the initial state; a
    successor's key is its predecessor's plus step_delta.

    explore stores the key whole in VisitedKeys: 16 bytes per slot, at most
    3/4 of a sub-table's slots used, both 64-bit words compared on lookup,
    and the key 0, which would read as an empty slot, kept by its own flag.
    """
    slots = g.sockets.slots
    base = len(slots)
    key = 0
    for fd, slot in enumerate(slots):
        key += _component_hash(fd, slot, memo)
    for pid, p in enumerate(g.procs):
        key += _component_hash(base + pid, p.canon(), memo)
    return key & _KEY_MASK


def step_delta(g: GlobalState, h: GlobalState, pid: int, memo: dict) -> int:
    """state_key(h) - state_key(g) mod 2**128, h made from g by a step of pid.

    The one incremental path of the key: the difference is taken at the
    components the step may have replaced: the fds h's table logged in
    touched, and pid's record unless its canon() equals g's. The result is not reduced mod 2**128; memo is state_key's.
    """
    slots = h.sockets.slots
    old = g.sockets.slots
    delta = 0
    for fd in set(h.sockets.touched):
        delta += _component_hash(fd, slots[fd], memo) - _component_hash(fd, old[fd], memo)
    now = h.procs[pid].canon()
    was = g.procs[pid].canon()
    if now != was:
        pos = len(slots) + pid
        delta += _component_hash(pos, now, memo) - _component_hash(pos, was, memo)
    return delta


# ---------------------------------------------------------------------------
# the visited store
# ---------------------------------------------------------------------------

WORD = (1 << 64) - 1
SUBTABLE_BITS = 2  # the top bits of a key's high word pick its sub-table
SUBTABLE_SHIFT = 64 - SUBTABLE_BITS
FIRST_SLOTS = 128  # each sub-table's slots at the start; a power of two
# VisitedKeys.recent is cleared at this size. barrier 13's search finds 88 %
# of its matched keys there, ring-seq 2/3 --blocking 91 %; at 16,384 keys
# barrier would find 99.9 %, but the set would add about 1.2 MB.
RECENT_LIMIT = 4096


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
    whole store twice, and the word arrays never hold more than 16 bytes /
    (3/8) = 43 bytes per key in a sub-table that has grown.

    recent is a set of the keys written to the word arrays last, which add
    asks before it probes: a depth-first search mostly re-finds the keys it
    stored a moment ago, and at the 3/4 bound those probes are the longest.
    A key enters recent right after its slot is written, so recent is always
    a subset of the stored keys and add answers as it would without it; the
    key 0, kept by zero, never enters. recent is cleared when it holds
    RECENT_LIMIT keys: at most 4,096 128-bit ints and their set table, about
    310 KB, a fixed cost on top of the word arrays' 43 bytes per key.

    add is the store's one way in: explore stores and looks up every key
    through it, the initial state's included.
    """

    __slots__ = ("tables", "room", "zero", "recent")

    def __init__(self):
        self.tables = [_free_slots(FIRST_SLOTS) for _ in range(1 << SUBTABLE_BITS)]
        self.room = [FIRST_SLOTS * 3 // 4] * (1 << SUBTABLE_BITS)
        self.zero = False
        self.recent = set()

    def add(self, key: int) -> bool:
        """Store key; True if it was not stored before."""
        recent = self.recent
        if key in recent:
            return False
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
                if len(recent) >= RECENT_LIMIT:
                    recent.clear()
                recent.add(key)
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


def apply(g: GlobalState, step: ScheduleStep, key: int | None = None,
          add: Callable[[int], bool] | None = None) -> GlobalState | None:
    """Execute one step on a copy of g and return the successor.

    The step must be one of enabled_steps(g); its callers, explore and walk,
    only pass steps they have checked. Handler failures propagate as
    CheckError for the caller to classify.

    Only the acting process is copied: every handler and action mutates
    h.procs[step.pid] alone, and the other records stay shared with g. For
    the same reason h's dead set differs from g's at most at step.pid, and
    h's key differs from g's only at what the step touched (step_delta).

    explore takes every transition through apply, also one whose successor
    key it derived (see the module docstring): it passes that key and its
    store's add. apply offers the key to add first and returns None, running
    nothing, if it was stored already; else it runs the step. apply keys
    nothing itself: the key stays with explore.
    """
    if add is not None and not add(key):
        return None  # a derived key already stored: the step need not run
    h = g.clone()
    pid = step.pid
    p = h.procs[pid] = h.procs[pid].clone()
    dead = h.derived_dead = g.dead_pids()  # what the handler sees of the others
    if step.fd < 0:
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
    raises PropertyViolation, its text prefixed by the property's kind.
    It calls each property's own fn: one that Scenario.default_properties
    built holds the check properties._CHECKS held then, so a check rebound
    there beforehand (perfbench's tracer wraps each one so) is the one that
    runs.
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
    walk's state check, checked_steps. A step whose successor key a frame
    can derive (see the module docstring) is run only if that key is new.
    """
    t0 = time.perf_counter()
    init = scenario.initial_state()
    memo: dict = {}  # component hashes, see state_key
    visited = VisitedKeys()
    add = visited.add
    key = state_key(init, memo)
    add(key)
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

    mask = _KEY_MASK
    path: list[ScheduleStep] = []
    # Each frame: (state, its key, an iterator over the steps of it not yet
    # tried, known: its own dict, step -> (step_delta, footprint) for the
    # steps whose successor key is state's key plus that delta; see the
    # docstring).
    stack: list[tuple] = []
    state = init  # newly stored with key, reached by path; the root is no exception
    known: dict = {}
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
                stack.append((state, key, iter(steps), known))
            # Find the next state not yet stored.
            while stack:
                state, base_key, todo, known = stack[-1]
                for step in todo:
                    entry = known.get(step) if known else None
                    try:
                        if entry is None:
                            succ = apply(state, step)
                        else:
                            key = (base_key + entry[0]) & mask
                            succ = apply(state, step, key, add)
                    except CheckError:
                        path.append(step)  # the trace ends with the failing step
                        raise
                    if entry is not None:
                        if succ is None:
                            matched += 1  # the derived key was stored; the step did not run
                            continue
                        break  # apply stored the new derived key
                    delta = step_delta(state, succ, step.pid, memo)
                    key = (base_key + delta) & mask
                    if not succ.shared_read:  # see the docstring
                        known[step] = (delta, succ.sockets.reads)
                    if add(key):
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
                if known:  # pass down the other pids' entries that step's writes left alone
                    writes = 0
                    for fd in succ.sockets.touched:
                        writes |= 1 << fd
                    pid = step.pid
                    known = {u: e for u, e in known.items()
                             if u.pid != pid and not e[1] & writes}
                else:
                    known = {}
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
