"""Ring daemon state machines: insertion, failure recovery and ring trace.

Two insertion variants are modeled. The sequential one queries the entry
daemon for its right-hand neighbor's coordinates before splicing in; because
the entry daemon serves overlapping queries with no mutual exclusion, two
concurrent inserters can be handed the same coordinates and the ring breaks.
The parallel variant answers the splice locally (reconnect_rhs carries the
coordinates in the reply to new_rhs), which serializes the decision at the
entry daemon and closes the race.

Every handler runs atomically between two scheduling points: it consumes one
ready event, performs its reads, writes, connects and closes, and returns.
Interleaving happens only between handler invocations. Beyond the acting
daemon's record and the socket slots it reads through the table, a handler
reads only the set of dead pids, through g.read_dead_pids, which marks the
step as one that read a shared record (see explorer), and no other
daemon's record. A ring trace is the initiator's: the daemon that starts
it keeps what the trace collected in its own record (trace), as MPD's
daemons share no memory.

Daemons name each other by pid: the neighbor fields, the trace collection
and every message payload hold pids, -1 for "nobody", so a record's
canonical tuple is just its own fields. Identities only appear in rendered
text, through the scenario's registry.

Correctness of the second-right (rhs2) bookkeeping under concurrent insertion
is not obvious from the handlers alone; the arbiter is the neighbor-state
property evaluated at quiescence, which demands that every daemon's recorded
rhs and rhs2 match an actual one-hop and two-hop walk of the descriptor
structures.
"""

from __future__ import annotations

import functools

from .errors import ContractViolation, ProtocolViolation
from .explorer import (
    ACT_BEGIN_INSERTION,
    ACT_INJECT_FAILURE,
    ACT_START_TRACE,
    EVERY_STATE,
    QUIESCENCE_ONLY,
    GlobalState,
    ScheduleStep,
    schedule_step,
    step_pid,
)
from .messages import (
    A,
    ABSENT,
    B,
    IDS,
    NEW_LHS,
    NEW_RHS,
    RECONNECT_RHS,
    RHS2INFO,
    RHS_INFO_REQUEST,
    RHS_INFO_RETURN,
    TRACE_DONE,
    TRACE_REQ,
    command_of,
    message,
)
from .sockets import (EVENT_CONNECT, EVENT_EOF, INVALID_FD, LHS, NEW, RHS, SOCKET_INVARIANTS,
                      SocketTable, wire_ring)

# Variants.
SEQUENTIAL = "seq"
PARALLEL = "par"

# Failure policy: any one live daemon may fail. An int victim pid fixes it.
FAIL_NONDET = "nondet"

# Every inserter enters the ring through this daemon.
ENTRY_PID = 0

# Property kinds; the properties module holds their checks.
RING_TOPOLOGY = "ring_topology"
NEIGHBOR_STATE = "neighbor_state"
TRACE_COMPLETION = "trace_completion"

# Phases.
IDLE = 0
ENTERING_LHS = 1
IN_RING = 2
DEAD = 3

PHASE_NAMES = {IDLE: "idle", ENTERING_LHS: "entering_lhs", IN_RING: "in_ring", DEAD: "dead"}


class DaemonState:
    """Mutable per-daemon record.

    lhs_id, rhs_id and rhs2_id are the pids of the daemons on the left, on
    the right and two hops right, -1 while unknown. lhs_id is learned from
    new_lhs messages (and from ring construction); it is what makes the
    addressed counterclockwise rhs2info sends expressible. pending_requesters
    is the sequential variant's FIFO of fds awaiting a relayed coordinate
    answer. trace is None on a daemon that started no ring trace, () once
    it started one, and the pids the trace collected once its trace_req
    came back.
    """

    __slots__ = (
        "pid", "phase",
        "lhs_fd", "rhs_fd", "lhs_id", "rhs_id", "rhs2_id",
        "await_cmd", "pending_requesters", "trace",
    )

    def __init__(self, pid: int):
        self.pid = pid
        self.phase = IDLE
        self.lhs_fd = INVALID_FD
        self.rhs_fd = INVALID_FD
        self.lhs_id = ABSENT
        self.rhs_id = ABSENT
        self.rhs2_id = ABSENT
        self.await_cmd: str | None = None
        self.pending_requesters: tuple[int, ...] = ()
        self.trace: tuple[int, ...] | None = None

    def clone(self) -> "DaemonState":
        d = DaemonState.__new__(DaemonState)
        d.pid = self.pid
        d.phase = self.phase
        d.lhs_fd = self.lhs_fd
        d.rhs_fd = self.rhs_fd
        d.lhs_id = self.lhs_id
        d.rhs_id = self.rhs_id
        d.rhs2_id = self.rhs2_id
        d.await_cmd = self.await_cmd
        d.pending_requesters = self.pending_requesters
        d.trace = self.trace
        return d

    @property
    def dead(self) -> bool:
        return self.phase == DEAD

    def canon(self) -> tuple:
        # pid is a scenario constant; only the mutable fields participate in
        # the state encoding.
        return (
            self.phase,
            self.lhs_fd,
            self.rhs_fd,
            self.lhs_id,
            self.rhs_id,
            self.rhs2_id,
            self.await_cmd,
            self.pending_requesters,
            self.trace,
        )

    def summary(self) -> str:
        def k(pid):
            return "-" if pid < 0 else f"n{pid}"

        return (
            f"d{self.pid} phase={PHASE_NAMES[self.phase]} lhs_fd={self.lhs_fd} "
            f"rhs_fd={self.rhs_fd} lhs={k(self.lhs_id)} rhs={k(self.rhs_id)} "
            f"rhs2={k(self.rhs2_id)}"
        )


class TraceState:
    """No state holds one; it stays because perfbench/tracer.py wraps its methods by name."""

    __slots__ = ()

    def clone(self) -> "TraceState":
        return self

    def canon(self) -> tuple:
        return ()


def trace_initiator(g) -> DaemonState | None:
    """The daemon that started the ring trace, the one whose record holds it; None before."""
    return next((d for d in g.procs if d.trace is not None), None)


def dump_line(g) -> str:
    """The state dump's trace line, read off the initiator's record; "" before a trace."""
    d = trace_initiator(g)
    if d is None:
        return ""
    ids = ",".join(f"n{pid}" for pid in d.trace)
    return f"trace initiator={d.pid} done={int(d.trace != ())} collected=[{ids}]"


def initial_state(sc) -> GlobalState:
    """The first n_initial daemons wired into a settled ring, the inserters idle."""
    table = SocketTable(sc.conn_max, sc.qsz)
    procs = [DaemonState(i) for i in range(sc.total)]
    m = sc.n_initial
    wire_ring(table, procs[:m])
    for i in range(m):
        d = procs[i]
        d.lhs_fd = table.other_of(procs[(i - 1) % m].rhs_fd)
        d.rhs_id = (i + 1) % m
        d.rhs2_id = (i + 2) % m
        d.lhs_id = (i - 1) % m
        d.phase = IN_RING
    return GlobalState(sc, table, procs)


def properties(sc) -> tuple[tuple[str, str], ...]:
    """The (kind, when) pairs a ring scenario checks, in evaluation order."""
    pairs = [(SOCKET_INVARIANTS, EVERY_STATE), (RING_TOPOLOGY, QUIESCENCE_ONLY)]
    if sc.variant == PARALLEL:
        pairs.append((NEIGHBOR_STATE, QUIESCENCE_ONLY))
    if sc.trace_enabled:
        pairs.append((TRACE_COMPLETION, QUIESCENCE_ONLY))
    return tuple(pairs)


# ---------------------------------------------------------------------------
# spontaneous actions
# ---------------------------------------------------------------------------


def begin_insertion(g, d: DaemonState) -> None:
    """Open the entry connection and ask to be spliced into the ring.

    The connection made here is the inserter's future left side regardless of
    variant. The parallel variant announces itself at once with new_rhs; the
    sequential one first asks for the entry daemon's right-hand coordinates.
    """
    if d.phase != IDLE:
        raise ProtocolViolation(f"d{d.pid}: begin_insertion outside IDLE")
    fd = g.sockets.connect(d.pid, ENTRY_PID, LHS)
    d.lhs_fd = fd
    d.lhs_id = ENTRY_PID
    if g.scenario.variant == PARALLEL:
        g.sockets.write(d.pid, fd, message(NEW_RHS, a=d.pid))
        # The entry handshake is synchronous in the joining daemon: it reads
        # nothing else until the splice reply arrives. Without this, a later
        # newcomer's new_lhs could displace the entry connection while the
        # reply is still queued on it, and the reply would be lost.
        d.await_cmd = RECONNECT_RHS
    else:
        # No await, even under --blocking: the answer is the only wake the
        # entering daemon can get. No process has its coordinates yet, and
        # the entry neither closes this connection nor writes anything else
        # to it before it answers.
        g.sockets.write(d.pid, fd, message(RHS_INFO_REQUEST))
    d.phase = ENTERING_LHS


def inject_failure(g, pid: int) -> None:
    """Kill one daemon: the OS closes its descriptors, peers see EOF later."""
    d = g.procs[pid]
    d.phase = DEAD
    d.lhs_fd = INVALID_FD
    d.rhs_fd = INVALID_FD
    g.sockets.inject_failure(pid)


def start_trace(g, d: DaemonState) -> None:
    """Launch a ring trace with daemon d, the lowest-pid live one, as initiator."""
    d.trace = ()
    g.sockets.write(d.pid, d.rhs_fd, message(TRACE_REQ, ids=(d.pid,)))


def steps(g) -> list[ScheduleStep]:
    """Every step a ring can take from g, in a fixed order.

    By pid, each live daemon offers its wakes by descriptor index (only the
    awaited reply while it blocks on one), then its insertion while it is an
    idle inserter, or its failure while no daemon has failed yet; no
    scenario has both inserters and a failure. The wakes come sorted from
    the table and the actions from one interned tuple; a stable sort by pid
    merges them. The trace start is a timeout: it is offered, by the
    lowest-pid live daemon, only when no other step is and no daemon has
    started a trace, so a trace runs on a settled ring.
    """
    sc = g.scenario
    procs = g.procs
    out = []
    for pid, fd, name in g.sockets.ready_events():
        awaited = procs[pid].await_cmd
        # Blocking-read surrogate: an awaiting daemon handles only the reply.
        if awaited is None or awaited == name:
            out.append(schedule_step(pid, fd, name))
    if sc.n_inserters:
        for insertion in _actions(ACT_BEGIN_INSERTION, sc.n_initial, len(procs)):
            if procs[insertion.pid].phase == IDLE:
                out.append(insertion)
        out.sort(key=step_pid)
    elif sc.failure is not None and not g.dead_pids():
        victim = sc.failure
        out += (_actions(ACT_INJECT_FAILURE, 0, len(procs)) if victim == FAIL_NONDET
                else _actions(ACT_INJECT_FAILURE, victim, victim + 1))
        out.sort(key=step_pid)
    if not out and sc.trace_enabled and trace_initiator(g) is None:
        dead = g.dead_pids()
        first = next((pid for pid in range(len(procs)) if pid not in dead), None)
        if first is not None:
            out.append(schedule_step(first, -1, ACT_START_TRACE))
    return out


@functools.cache
def _actions(action: str, first: int, stop: int) -> tuple[ScheduleStep, ...]:
    """The steps of action at pids first up to stop, interned as one tuple."""
    return tuple(schedule_step(pid, -1, action) for pid in range(first, stop))


def act(g, d: DaemonState, action: str) -> None:
    """Run the spontaneous action named action of daemon d."""
    if action == ACT_BEGIN_INSERTION:
        begin_insertion(g, d)
    elif action == ACT_INJECT_FAILURE:
        inject_failure(g, d.pid)
    elif action == ACT_START_TRACE:
        start_trace(g, d)
    else:
        raise ContractViolation(f"unknown action {action!r}")


# ---------------------------------------------------------------------------
# event dispatch
# ---------------------------------------------------------------------------


def handle_event(g, d: DaemonState, fd: int, name: str) -> None:
    """Handle the wake named name on d's descriptor fd."""
    if name == EVENT_CONNECT:
        g.sockets.accept(d.pid, fd)
        return
    if name == EVENT_EOF:
        _on_eof(g, d, fd)
        return
    msg = g.sockets.read(d.pid, fd)
    cmd = command_of(msg)
    handler = _DISPATCH.get(cmd)
    if handler is None:
        raise ProtocolViolation(f"d{d.pid}: unexpected command {cmd!r}")
    handler(g, d, fd, msg)


def _live_count(g) -> int:
    return len(g.procs) - len(g.read_dead_pids())


def _send_rhs2_to_lhs(g, d: DaemonState, value: int) -> None:
    """Tell the daemon on d's left that its second-right neighbor is now value.

    Skipped when the left side is d itself (a ring of one, or a ring still
    being created around the first daemon) or when the left connection is
    gone or half-closed: in each of those cases the left neighbor is being
    replaced, and the replacement learns its rhs2 from the update triggered
    by its own new_lhs instead.
    """
    if d.lhs_id < 0 or d.lhs_id == d.pid:
        return
    if not g.sockets.is_allocated(d.lhs_fd):
        return
    if g.sockets.other_of(d.lhs_fd) == INVALID_FD:
        return
    g.sockets.write(d.pid, d.lhs_fd, message(RHS2INFO, a=d.lhs_id, b=value))


def _close_if_open(g, d: DaemonState, fd: int) -> None:
    if g.sockets.is_allocated(fd) and g.sockets.owner_of(fd) == d.pid:
        g.sockets.close(d.pid, fd)


def _attach_right(g, d: DaemonState, target: int) -> None:
    """Connect d's right side to target and announce d as target's new left."""
    d.rhs_fd = g.sockets.connect(d.pid, target, RHS)
    g.sockets.write(d.pid, d.rhs_fd, message(NEW_LHS, a=d.pid))


def _on_new_rhs(g, d, fd, msg):
    if g.scenario.variant == SEQUENTIAL:
        # The inserter, armed with coordinates, claims the right-hand slot.
        _close_if_open(g, d, d.rhs_fd)
        g.sockets.set_flag(fd, RHS)
        d.rhs_fd = fd
        d.await_cmd = None
        return
    if d.phase != IN_RING:
        raise ProtocolViolation(f"d{d.pid}: new_rhs while not in ring")
    old_rhs_id = d.rhs_id
    # Reply with the splice target first; the old right connection is then
    # retired and the new daemon becomes both rhs and, for the left neighbor,
    # the new second-right hop.
    g.sockets.write(d.pid, fd, message(RECONNECT_RHS, a=old_rhs_id))
    _close_if_open(g, d, d.rhs_fd)
    g.sockets.set_flag(fd, RHS)
    d.rhs_fd = fd
    d.rhs2_id = old_rhs_id
    d.rhs_id = msg[A]
    _send_rhs2_to_lhs(g, d, msg[A])


def _on_reconnect_rhs(g, d, fd, msg):
    if g.scenario.variant != PARALLEL or d.phase != ENTERING_LHS:
        raise ProtocolViolation(f"d{d.pid}: unexpected reconnect_rhs")
    target = msg[A]
    if target < 0 or target == d.pid:
        raise ProtocolViolation(f"d{d.pid}: reconnect_rhs names myself")
    if target >= len(g.procs):
        raise ProtocolViolation(f"d{d.pid}: reconnect_rhs to unknown identity")
    _attach_right(g, d, target)
    d.rhs_id = target
    d.phase = IN_RING
    d.await_cmd = None


def _on_new_lhs(g, d, fd, msg):
    _close_if_open(g, d, d.lhs_fd)  # stale remnant of the replaced connection
    g.sockets.set_flag(fd, LHS)
    d.lhs_fd = fd
    d.lhs_id = msg[A]
    if g.scenario.variant != PARALLEL:
        return
    # The newcomer's second-right neighbor is this daemon's right, known by
    # now: a joiner's await_cmd lets no new_lhs in before its reconnect_rhs.
    g.sockets.write(d.pid, fd, message(RHS2INFO, a=msg[A], b=d.rhs_id))


def _on_rhs2info(g, d, fd, msg):
    # Every rhs2info is written to its addressee's own channel, so it is
    # never passed on.
    if msg[A] != d.pid:
        target = g.scenario.registry.name(msg[A])
        raise ProtocolViolation(f"d{d.pid}: rhs2info addressed to {target}")
    d.rhs2_id = msg[B]


def _on_rhs_info_request(g, d, fd, msg):
    if g.scenario.variant == PARALLEL:
        # Recovery query: a new left neighbor wants my right-hand identity.
        if d.rhs_id < 0:
            raise ProtocolViolation(f"d{d.pid}: asked for rhs while unknown")
        g.sockets.write(d.pid, fd, message(RHS_INFO_RETURN, a=d.rhs_id))
        return
    if fd == d.lhs_fd:
        # Forwarded identity query from my left: answer with my coordinates.
        g.sockets.write(d.pid, fd, message(RHS_INFO_RETURN, a=d.pid))
    elif g.sockets.flag_of(fd) == NEW:
        # An entering daemon asks who sits on my right. Pass the question on
        # and remember the asker; answers are relayed strictly in FIFO order,
        # with nothing stopping two pending askers from getting the same
        # coordinates. Between an EOF on my right side and the new_rhs that
        # replaces it there is nobody to ask.
        if d.rhs_fd == INVALID_FD:
            raise ProtocolViolation(f"d{d.pid}: cannot forward rhs_info_request, right side gone")
        g.sockets.write(d.pid, d.rhs_fd, message(RHS_INFO_REQUEST))
        d.pending_requesters = d.pending_requesters + (fd,)
        if g.scenario.seq_blocking:
            d.await_cmd = RHS_INFO_RETURN
    else:
        raise ProtocolViolation(f"d{d.pid}: rhs_info_request on unexpected fd {fd}")


def _on_rhs_info_return(g, d, fd, msg):
    if g.scenario.variant == PARALLEL:
        d.rhs2_id = msg[A]  # recovery refresh of the second-right neighbor
        return
    if d.phase == ENTERING_LHS and fd == d.lhs_fd:
        # My coordinates arrived: declare myself the entry daemon's new right
        # neighbor, then attach to the daemon those coordinates name.
        g.sockets.write(d.pid, fd, message(NEW_RHS, a=d.pid))
        target = msg[A]
        if not 0 <= target < len(g.procs):
            raise ProtocolViolation(f"d{d.pid}: returned identity is unknown")
        _attach_right(g, d, target)
        d.phase = IN_RING
    elif fd == d.rhs_fd:
        if not d.pending_requesters:
            raise ProtocolViolation(f"d{d.pid}: rhs_info_return with nobody waiting")
        req_fd = d.pending_requesters[0]
        d.pending_requesters = d.pending_requesters[1:]
        g.sockets.write(d.pid, req_fd, message(RHS_INFO_RETURN, a=msg[A]))
        if g.scenario.seq_blocking:
            d.await_cmd = NEW_RHS
    else:
        raise ProtocolViolation(f"d{d.pid}: rhs_info_return on unexpected fd {fd}")


def _on_trace_req(g, d, fd, msg):
    if d.trace is not None:  # back at the initiator: the circuit is closed
        d.trace = msg[IDS]
        g.sockets.write(d.pid, d.rhs_fd, message(TRACE_DONE))
        return
    if len(msg[IDS]) >= _live_count(g):
        raise ProtocolViolation(f"d{d.pid}: trace_req circulated past every daemon")
    g.sockets.write(d.pid, d.rhs_fd, message(TRACE_REQ, ids=msg[IDS] + (d.pid,)))


def _on_trace_done(g, d, fd, msg):
    if d.trace is not None:
        return  # completion report absorbed by the initiator after its full circuit
    g.sockets.write(d.pid, d.rhs_fd, msg)


def _on_eof(g, d, fd):
    g.sockets.close(d.pid, fd)
    if fd == d.rhs_fd:
        d.rhs_fd = INVALID_FD
        if g.scenario.variant == SEQUENTIAL:
            return  # keeps no neighbor state, so there is nothing to recover with
        _recover_rhs(g, d)
    elif fd == d.lhs_fd:
        # Left side vanished. Wait: either a new_lhs connection
        # re-establishes the left side, or the ring stays broken and the
        # topology check at quiescence says so.
        d.lhs_fd = INVALID_FD


def _recover_rhs(g, d):
    """Bridge over a failed right neighbor using the recorded rhs2.

    The new right-hand daemon is greeted with new_lhs, queried for its own
    right neighbor (refreshing d.rhs2), and d's left neighbor is told that
    its second-right hop has changed. The known-neighbors record is thereby
    repaired for every daemon the failure affected.
    """
    target = d.rhs2_id
    if target < 0:
        raise ProtocolViolation(f"d{d.pid}: right neighbor lost with no rhs2 recorded")
    if target >= len(g.procs):
        raise ProtocolViolation(f"d{d.pid}: recorded rhs2 is an unknown identity")
    if target in g.read_dead_pids():
        raise ProtocolViolation(f"d{d.pid}: both right-hand neighbors failed")
    d.rhs_id = target
    d.rhs2_id = ABSENT  # refreshed by the query below
    _attach_right(g, d, target)
    g.sockets.write(d.pid, d.rhs_fd, message(RHS_INFO_REQUEST))
    _send_rhs2_to_lhs(g, d, d.rhs_id)


_DISPATCH = {
    NEW_RHS: _on_new_rhs,
    RECONNECT_RHS: _on_reconnect_rhs,
    NEW_LHS: _on_new_lhs,
    RHS2INFO: _on_rhs2info,
    RHS_INFO_REQUEST: _on_rhs_info_request,
    RHS_INFO_RETURN: _on_rhs_info_return,
    TRACE_REQ: _on_trace_req,
    TRACE_DONE: _on_trace_done,
}
