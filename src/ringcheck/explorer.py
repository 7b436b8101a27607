"""Explicit-state exploration over the simulated socket world.

A GlobalState carries every mutable piece of a scenario: the descriptor
table, all per-process records and the episode bookkeeping. States are
canonically encodable; the encoding is injective over the scenario's state
space, so the visited set prunes exactly the states already expanded.

The unit of interleaving is one handler invocation. enabled_steps lists, in a
fixed deterministic order, every ready event of every live process plus every
spontaneous action not yet fired. Trace starts are timeout actions: they only
become enabled once nothing else is, matching the intent that a trace runs on
a settled ring. Quiescence is the absence of any step at all, and is where
the end-state properties are evaluated; a state with undeliverable or
unconsumed messages is never quiescent and therefore never satisfies a
quiescence-only property by accident.

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

from . import barrier as barrier_mod
from . import daemons as daemons_mod
from .errors import CheckError, ContractViolation, PropertyViolation
from .sockets import CONNECT_PENDING, EOF, MESSAGE, ReadyEvent

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

# Event cmd labels for non-message events; message events carry the command
# at the head of the channel. No protocol command collides with these.
EVENT_CONNECT = "connect"
EVENT_EOF = "eof"


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
    """Everything mutable in one scenario instant."""

    __slots__ = ("scenario", "sockets", "procs", "trace", "bits")

    def __init__(self, scenario, sockets, procs, trace=None, bits=None):
        self.scenario = scenario  # static, shared across all derived states
        self.sockets = sockets
        self.procs = procs
        self.trace = trace
        self.bits = bits

    def clone(self) -> "GlobalState":
        g = GlobalState.__new__(GlobalState)
        g.scenario = self.scenario
        g.sockets = self.sockets.clone()
        g.procs = [p.clone() for p in self.procs]
        g.trace = self.trace.clone() if self.trace is not None else None
        g.bits = self.bits.clone() if self.bits is not None else None
        return g

    def canon(self) -> tuple:
        reg = self.scenario.registry
        return (
            self.sockets.canon(reg),
            tuple(p.canon(reg) for p in self.procs),
            self.trace.canon(reg) if self.trace is not None else (),
            self.bits.canon() if self.bits is not None else (),
        )

    def live_daemons(self) -> list:
        return [p for p in self.procs if getattr(p, "phase", None) != daemons_mod.DEAD]

    def dump(self) -> str:
        reg = self.scenario.registry
        lines = [p.summary(reg) for p in self.procs]
        if self.bits is not None:
            lines.append(
                f"bits in={self.bits.client_barrier_in:0{self.bits.n}b} "
                f"out={self.bits.client_barrier_out:0{self.bits.n}b}"
            )
        if self.trace is not None and self.trace.started:
            ids = ",".join(f"n{reg.key(i)}" for i in self.trace.collected)
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
    """All steps executable from g, in a deterministic order.

    Ordering is by pid, then descriptor index for events, then action name;
    timeout actions (the trace start) appear only when the list would
    otherwise be empty. Verification never randomizes this order.
    """
    sc = g.scenario
    steps: list[ScheduleStep] = []
    failure_armed = (
        sc.failure is not None
        and sc.kind == "ring"
        and not any(p.phase == daemons_mod.DEAD for p in g.procs)
    )
    for p in g.procs:
        if sc.kind == "ring" and p.phase == daemons_mod.DEAD:
            continue
        events = g.sockets.ready_events(p.pid)
        if sc.kind == "ring" and p.await_cmd is not None:
            # Blocking-read surrogate: only the awaited reply may be handled.
            events = [
                e for e in events
                if e.reason == MESSAGE and g.sockets.queue_of(e.fd)[0].cmd == p.await_cmd
            ]
        for e in events:
            if e.reason == MESSAGE:
                cmd = g.sockets.queue_of(e.fd)[0].cmd
            elif e.reason == CONNECT_PENDING:
                cmd = EVENT_CONNECT
            else:
                cmd = EVENT_EOF
            steps.append(ScheduleStep(p.pid, KIND_EVENT, e.fd, cmd))
        if sc.kind == "ring":
            if p.phase == daemons_mod.IDLE and p.pid in sc.inserter_pids:
                steps.append(ScheduleStep(p.pid, KIND_ACTION, -1, ACT_BEGIN_INSERTION))
            if failure_armed and p.phase != daemons_mod.DEAD and (
                sc.failure == "nondet" or sc.failure == p.pid
            ):
                steps.append(ScheduleStep(p.pid, KIND_ACTION, -1, ACT_INJECT_FAILURE))
        else:
            if not (g.bits.client_barrier_in >> p.pid) & 1:
                steps.append(ScheduleStep(p.pid, KIND_ACTION, -1, ACT_CLIENT_ARRIVAL))
    if not steps and sc.trace_enabled and g.trace is not None and not g.trace.started:
        live = g.live_daemons()
        if live:
            steps.append(ScheduleStep(live[0].pid, KIND_ACTION, -1, ACT_START_TRACE))
    return steps


def apply(g: GlobalState, step: ScheduleStep) -> GlobalState:
    """Execute one step on a copy of g and return the successor.

    The step must be one of enabled_steps(g); its callers, explore and walk,
    only pass steps they have checked. Handler failures propagate as
    CheckError for the caller to classify.
    """
    h = g.clone()
    p = h.procs[step.pid]
    if step.kind == KIND_ACTION:
        if step.cmd == ACT_BEGIN_INSERTION:
            daemons_mod.begin_insertion(h, p)
        elif step.cmd == ACT_CLIENT_ARRIVAL:
            barrier_mod.client_reaches_barrier(h, p)
        elif step.cmd == ACT_INJECT_FAILURE:
            daemons_mod.inject_failure(h, step.pid)
        elif step.cmd == ACT_START_TRACE:
            daemons_mod.start_trace(h)
        else:
            raise ContractViolation(f"unknown action {step.cmd!r}")
        return h
    if step.cmd == EVENT_CONNECT:
        ev = ReadyEvent(step.fd, CONNECT_PENDING)
    elif step.cmd == EVENT_EOF:
        ev = ReadyEvent(step.fd, EOF)
    else:
        ev = ReadyEvent(step.fd, MESSAGE)
    if h.scenario.kind == "ring":
        daemons_mod.handle_event(h, p, ev)
    else:
        barrier_mod.handle_event(h, p, ev)
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
    even when no violation was seen, because unexplored states remain.

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

    init_steps = enabled_steps(init)
    # Each frame: (state, its enabled steps, index of the next step to try).
    stack: list[list] = [[init, init_steps, 0]]
    try:
        inspect(init, init_steps)
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
            succ_steps = enabled_steps(succ)
            inspect(succ, succ_steps)
            if stored >= max_states:
                return report(RESOURCE_LIMIT, violation="state budget exhausted",
                              trace=tuple(path))
            if succ_steps and len(path) >= max_depth:
                truncated = True  # do not expand deeper; search stays incomplete
                path.pop()
                continue
            stack.append([succ, succ_steps, 0])
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
