"""Explicit-state exploration over the simulated socket world.

A GlobalState carries every mutable piece of a scenario: the descriptor
table, all per-process records and the episode bookkeeping. States are
canonically encodable; the encoding is injective over the scenario's state
space, so the visited set prunes exactly the states already expanded.

The model already holds its canonical form, in the manner of SPIN's flat
state vector (Holzmann, "State compression in SPIN", 1997): daemons name
each other by pid, and a queued message is a plain int tuple
(cmd index, a, b, origin, ids, hops) with -1 for an absent party. A state's
encoding is therefore the marshal of its own fields:

    (sockets: (other, owner, flag, queues),
     processes: (one field tuple per pid),
     trace: (started, initiator, collected pids, done) or (),
     barrier bits: (client_barrier_in, client_barrier_out) or ())

A step costs what it changes, not the number of processes. Handlers only
ever mutate the acting process, so a successor shares every other process
record with its predecessor (copy on write: apply copies the acting one),
and its process tuple is the predecessor's with the acting pid's entry
replaced. The ready events of all processes come from one pass over the
descriptor table.

The unit of interleaving is one handler invocation. Like SPIN's search
engine, the explorer knows nothing of the protocol it runs: the scenario's
protocol module (daemons or barrier) lists a state's enabled steps in a
fixed order (steps) and runs one (act for a spontaneous action, handle_event
for a wake, whose step cmd is the name the socket table gave the wake).
Quiescence is the absence of any step at all, and is where the end-state
properties are evaluated; a state with undeliverable or unconsumed messages
is never quiescent and therefore never satisfies a quiescence-only property
by accident.

Verification is a depth-first search with state hashing. Every other run of
a schedule is a walk: one loop that asks a chooser for the next step, refuses
a step that is not enabled, and stops at the first handler error or property
failure, keeping the failing step in its trace. Simulation walks with a seeded
uniform random chooser; replay walks a recorded schedule.
"""

from __future__ import annotations

import hashlib
import marshal
import random
import time
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple

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

    canon memoises the process part of the encoding in _procs_canon. apply
    leaves the successor a _basis, the predecessor's memoised process tuple
    and the acting pid, so the successor's tuple replaces one entry instead
    of encoding every process. A state is mutated only between its creation
    and its first canon call, so the memo never goes stale.
    """

    __slots__ = ("scenario", "sockets", "procs", "trace", "bits", "_procs_canon", "_basis")

    def __init__(self, scenario, sockets, procs, trace=None, bits=None):
        self.scenario = scenario  # static, shared across all derived states
        self.sockets = sockets
        self.procs = procs
        self.trace = trace
        self.bits = bits
        self._procs_canon = None
        self._basis = None

    def clone(self) -> "GlobalState":
        """A successor to mutate; process records stay shared, see apply."""
        g = GlobalState.__new__(GlobalState)
        g.scenario = self.scenario
        g.sockets = self.sockets.clone()
        g.procs = self.procs[:]
        g.trace = self.trace.clone() if self.trace is not None else None
        g.bits = self.bits.clone() if self.bits is not None else None
        g._procs_canon = None
        g._basis = None
        return g

    def canon(self) -> tuple:
        procs = self._procs_canon
        if procs is None:
            if self._basis is None:
                procs = tuple([p.canon() for p in self.procs])
            else:
                prev, pid = self._basis
                procs = prev[:pid] + (self.procs[pid].canon(),) + prev[pid + 1:]
                self._basis = None
            self._procs_canon = procs
        return (
            self.sockets.canon(),
            procs,
            self.trace.canon() if self.trace is not None else (),
            self.bits.canon() if self.bits is not None else (),
        )

    def dump(self) -> str:
        lines = [p.summary() for p in self.procs]
        if self.bits is not None:
            lines.append(
                f"bits in={self.bits.client_barrier_in:0{self.bits.n}b} "
                f"out={self.bits.client_barrier_out:0{self.bits.n}b}"
            )
        if self.trace is not None and self.trace.started:
            ids = ",".join(f"n{pid}" for pid in self.trace.collected)
            lines.append(f"trace initiator={self.trace.initiator} done={int(self.trace.done)} "
                         f"collected=[{ids}]")
        sock = self.sockets.dump()
        if sock:
            lines.append(sock)
        return "\n".join(lines)


def encode(g: GlobalState) -> bytes:
    """Stable canonical byte encoding; equal states yield identical bytes."""
    return marshal.dumps(g.canon(), 2)


def state_digest(g: GlobalState) -> bytes:
    """128-bit digest of the canonical encoding, for visited-set storage.

    Cuts per-state memory to a third of the full encoding. At 128 bits the
    chance of any collision across even 10**9 stored states is below 1e-20,
    so exhaustiveness is not meaningfully weakened; the digest is still
    deterministic, so equal states always coincide.
    """
    return hashlib.blake2b(encode(g), digest_size=16).digest()


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
    the same reason, once g's process tuple is encoded, h's differs from it
    only at step.pid.
    """
    h = g.clone()
    p = h.procs[step.pid] = h.procs[step.pid].clone()
    if g._procs_canon is not None:
        h._basis = (g._procs_canon, step.pid)
    if step.kind == KIND_ACTION:
        h.scenario.protocol.act(h, p, step.cmd)
    else:
        h.scenario.protocol.handle_event(h, p, step.fd, step.cmd)
    return h


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

EVERY_STATE = "every_state"
QUIESCENCE_ONLY = "quiescence"


@dataclass(frozen=True)
class Property:
    """A named check with its evaluation point."""

    kind: str
    when: str  # EVERY_STATE or QUIESCENCE_ONLY
    fn: Callable[[GlobalState], None]  # raises CheckError on failure


@dataclass
class VerificationReport:
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


# ---------------------------------------------------------------------------
# exhaustive search
# ---------------------------------------------------------------------------


def explore(
    scenario,
    properties: tuple[Property, ...] = (),
    *,
    max_depth: int = 1_000_000,
    max_states: int = 50_000_000,
    on_quiescent: Callable[[GlobalState], None] | None = None,
) -> VerificationReport:
    """Depth-first search with state hashing over every interleaving.

    Stops at the first violation and returns the schedule that produced it.
    If a resource limit truncates the search the outcome is RESOURCE_LIMIT
    even when no violation was seen, because unexplored states remain. The
    budgets count the initial state like any other: it is stored state 1
    and sits at depth 0.

    Properties run only on newly stored states, after the visited-set
    lookup, which is why the search does not share walk's loop.
    """
    t0 = time.perf_counter()
    init = scenario.initial_state()
    visited = {state_digest(init)}
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

    def inspect(state, steps):
        """Property checks for a newly stored state; returns nothing or raises."""
        run_properties(state, properties, EVERY_STATE)
        if not steps:
            run_properties(state, properties, QUIESCENCE_ONLY)
            if on_quiescent is not None:
                on_quiescent(state)

    # Each frame: (state, its enabled steps, index of the next step to try).
    stack: list[list] = []
    state = init  # newly stored, reached by path; the root is no exception
    try:
        while True:
            steps = enabled_steps(state)
            inspect(state, steps)
            if stored >= max_states:
                return report(RESOURCE_LIMIT, violation="state budget exhausted",
                              trace=tuple(path))
            if steps and len(path) >= max_depth:
                truncated = True  # do not expand deeper; search stays incomplete
                if path:
                    path.pop()
            else:
                stack.append([state, steps, 0])
            # Find the next state not yet stored.
            while stack:
                frame = stack[-1]
                state, steps, idx = frame
                if idx >= len(steps):
                    stack.pop()
                    if path:
                        path.pop()
                    continue
                frame[2] += 1
                step = steps[idx]
                path.append(step)
                succ = apply(state, step)
                key = state_digest(succ)
                if key in visited:
                    matched += 1
                    path.pop()
                    continue
                visited.add(key)
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


@dataclass
class WalkReport:
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
            steps = enabled_steps(g)
            run_properties(g, properties, EVERY_STATE)
            if not steps:
                run_properties(g, properties, QUIESCENCE_ONLY)
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
        return WalkReport(tuple(taken), g, not steps, str(e))
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
