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
Interleaving happens only between handler invocations.

Correctness of the second-right (rhs2) bookkeeping under concurrent insertion
is not obvious from the handlers alone; the arbiter is the neighbor-state
property evaluated at quiescence, which demands that every daemon's recorded
rhs and rhs2 match an actual one-hop and two-hop walk of the descriptor
structures.
"""

from __future__ import annotations

from dataclasses import replace

from . import sockets
from .errors import ProtocolViolation
from .messages import (
    NEW_LHS,
    NEW_RHS,
    RECONNECT_RHS,
    RHS2INFO,
    RHS_INFO_REQUEST,
    RHS_INFO_RETURN,
    TRACE_DONE,
    TRACE_REQ,
    Identity,
    Message,
)
from .sockets import CONNECT_PENDING, EOF, INVALID_FD, LHS, NEW, RHS, ReadyEvent

# Variants.
SEQUENTIAL = "seq"
PARALLEL = "par"

# Phases.
IDLE = 0
ENTERING_LHS = 1
IN_RING = 3
DEAD = 4

PHASE_NAMES = {IDLE: "idle", ENTERING_LHS: "entering_lhs", IN_RING: "in_ring", DEAD: "dead"}


class DaemonState:
    """Mutable per-daemon record.

    lhs_id is the identity of the daemon on the left, learned from new_lhs
    messages (and from ring construction); it is what makes the addressed
    counterclockwise rhs2info sends expressible. pending_requesters is the
    sequential variant's FIFO of fds awaiting a relayed coordinate answer.
    pending_rhs2_for holds a left neighbor that attached before this daemon
    knew its own right side; the deferred update is sent once it does.
    """

    __slots__ = (
        "pid", "identity", "variant", "phase",
        "lhs_fd", "rhs_fd", "lhs_id", "rhs_id", "rhs2_id",
        "await_cmd", "pending_requesters", "pending_rhs2_for",
    )

    def __init__(self, pid: int, identity: Identity, variant: str):
        self.pid = pid
        self.identity = identity
        self.variant = variant
        self.phase = IDLE
        self.lhs_fd = INVALID_FD
        self.rhs_fd = INVALID_FD
        self.lhs_id: Identity | None = None
        self.rhs_id: Identity | None = None
        self.rhs2_id: Identity | None = None
        self.await_cmd: str | None = None
        self.pending_requesters: tuple[int, ...] = ()
        self.pending_rhs2_for: Identity | None = None

    def clone(self) -> "DaemonState":
        d = DaemonState.__new__(DaemonState)
        d.pid = self.pid
        d.identity = self.identity
        d.variant = self.variant
        d.phase = self.phase
        d.lhs_fd = self.lhs_fd
        d.rhs_fd = self.rhs_fd
        d.lhs_id = self.lhs_id
        d.rhs_id = self.rhs_id
        d.rhs2_id = self.rhs2_id
        d.await_cmd = self.await_cmd
        d.pending_requesters = self.pending_requesters
        d.pending_rhs2_for = self.pending_rhs2_for
        return d

    def canon(self, reg) -> tuple:
        # pid, identity and variant are scenario constants; only the mutable
        # fields participate in the state encoding.
        return (
            self.phase,
            self.lhs_fd,
            self.rhs_fd,
            reg.key(self.lhs_id),
            reg.key(self.rhs_id),
            reg.key(self.rhs2_id),
            self.await_cmd or "",
            self.pending_requesters,
            reg.key(self.pending_rhs2_for),
        )

    def summary(self, reg) -> str:
        def k(i):
            return "-" if i is None else f"n{reg.key(i)}"

        return (
            f"d{self.pid} phase={PHASE_NAMES[self.phase]} lhs_fd={self.lhs_fd} "
            f"rhs_fd={self.rhs_fd} lhs={k(self.lhs_id)} rhs={k(self.rhs_id)} "
            f"rhs2={k(self.rhs2_id)}"
        )


class TraceState:
    """Bookkeeping for one ring trace episode."""

    __slots__ = ("started", "initiator", "collected", "done")

    def __init__(self):
        self.started = False
        self.initiator = -1
        self.collected: tuple[Identity, ...] = ()
        self.done = False

    def clone(self) -> "TraceState":
        t = TraceState.__new__(TraceState)
        t.started = self.started
        t.initiator = self.initiator
        t.collected = self.collected
        t.done = self.done
        return t

    def canon(self, reg) -> tuple:
        return (
            int(self.started),
            self.initiator,
            tuple(reg.key(i) for i in self.collected),
            int(self.done),
        )


# ---------------------------------------------------------------------------
# spontaneous actions
# ---------------------------------------------------------------------------


def first_daemon_init(g, d: DaemonState) -> None:
    """Bootstrap a ring of one: the daemon connects to its own port.

    Both endpoints of the self-connection are owned by d; the server half is
    accepted immediately so the loop is usable without a scheduling round.
    """
    if d.phase != IDLE:
        raise ProtocolViolation(f"d{d.pid}: first_daemon_init outside IDLE")
    client_fd = g.sockets.connect(d.pid, d.pid)
    server_fd = g.sockets.accept(d.pid)
    g.sockets.set_flag(client_fd, RHS)
    g.sockets.set_flag(server_fd, LHS)
    d.rhs_fd = client_fd
    d.lhs_fd = server_fd
    d.rhs_id = d.identity
    d.rhs2_id = d.identity
    d.lhs_id = d.identity
    d.phase = IN_RING


def begin_insertion(g, d: DaemonState) -> None:
    """Open the entry connection and ask to be spliced into the ring.

    The connection made here is the inserter's future left side regardless of
    variant. The parallel variant announces itself at once with new_rhs; the
    sequential one first asks for the entry daemon's right-hand coordinates.
    """
    if d.phase != IDLE:
        raise ProtocolViolation(f"d{d.pid}: begin_insertion outside IDLE")
    entry_pid = g.scenario.entry_pid
    entry_identity = g.scenario.registry.identity_of(entry_pid)
    fd = g.sockets.connect(d.pid, entry_pid)
    g.sockets.set_flag(fd, LHS)
    d.lhs_fd = fd
    d.lhs_id = entry_identity
    if d.variant == PARALLEL:
        g.sockets.write(d.pid, fd, Message(NEW_RHS, a=d.identity))
        # The entry handshake is synchronous in the joining daemon: it reads
        # nothing else until the splice reply arrives. Without this, a later
        # newcomer's new_lhs could displace the entry connection while the
        # reply is still queued on it, and the reply would be lost.
        d.await_cmd = RECONNECT_RHS
    else:
        g.sockets.write(d.pid, fd, Message(RHS_INFO_REQUEST))
        if g.scenario.seq_blocking:
            d.await_cmd = RHS_INFO_RETURN
    d.phase = ENTERING_LHS


def inject_failure(g, pid: int) -> None:
    """Kill one daemon: the OS closes its descriptors, peers see EOF later."""
    d = g.procs[pid]
    if d.phase == DEAD:
        return  # second injection has nothing left to close
    d.phase = DEAD
    d.lhs_fd = INVALID_FD
    d.rhs_fd = INVALID_FD
    g.sockets.inject_failure(pid)


def start_trace(g) -> None:
    """Launch a ring trace from the lowest-pid live daemon."""
    live = [p for p in g.procs if p.phase != DEAD]
    if not live:
        raise ProtocolViolation("start_trace with no live daemon")
    initiator = live[0]
    g.trace.started = True
    g.trace.initiator = initiator.pid
    g.sockets.write(
        initiator.pid,
        initiator.rhs_fd,
        Message(TRACE_REQ, origin=initiator.identity, ids=(initiator.identity,)),
    )


# ---------------------------------------------------------------------------
# event dispatch
# ---------------------------------------------------------------------------


def handle_event(g, d: DaemonState, ev: ReadyEvent) -> None:
    if ev.reason == CONNECT_PENDING:
        g.sockets.accept(d.pid)
        return
    if ev.reason == EOF:
        _on_eof(g, d, ev.fd)
        return
    msg = g.sockets.read(d.pid, ev.fd)
    handler = _DISPATCH.get(msg.cmd)
    if handler is None:
        raise ProtocolViolation(f"d{d.pid}: unexpected command {msg.cmd!r}")
    handler(g, d, ev.fd, msg)


def _live_count(g) -> int:
    return sum(1 for p in g.procs if p.phase != DEAD)


def _send_rhs2_to_lhs(g, d: DaemonState, value: Identity) -> None:
    """Tell the daemon on d's left that its second-right neighbor is now value.

    Skipped when the left side is d itself (a ring of one, or a ring still
    being created around the first daemon) or when the left connection is
    gone or half-closed: in each of those cases the left neighbor is being
    replaced, and the replacement learns its rhs2 from the update triggered
    by its own new_lhs instead.
    """
    if d.lhs_id is None or d.lhs_id == d.identity:
        return
    if d.lhs_fd == INVALID_FD or not g.sockets.is_allocated(d.lhs_fd):
        return
    if g.sockets.other_of(d.lhs_fd) == INVALID_FD:
        return
    g.sockets.write(
        d.pid,
        d.lhs_fd,
        Message(RHS2INFO, a=d.lhs_id, b=value, hops=g.scenario.hop_budget),
    )


def _close_if_open(g, d: DaemonState, fd: int) -> None:
    if fd != INVALID_FD and g.sockets.is_allocated(fd) and g.sockets.owner_of(fd) == d.pid:
        g.sockets.close(d.pid, fd)


def _on_new_rhs(g, d, fd, msg):
    if d.variant == SEQUENTIAL:
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
    g.sockets.write(d.pid, fd, Message(RECONNECT_RHS, a=old_rhs_id))
    _close_if_open(g, d, d.rhs_fd)
    g.sockets.set_flag(fd, RHS)
    d.rhs_fd = fd
    d.rhs2_id = old_rhs_id
    d.rhs_id = msg.a
    _send_rhs2_to_lhs(g, d, msg.a)


def _on_reconnect_rhs(g, d, fd, msg):
    if d.variant != PARALLEL or d.phase != ENTERING_LHS:
        raise ProtocolViolation(f"d{d.pid}: unexpected reconnect_rhs")
    if msg.a is None or msg.a == d.identity:
        raise ProtocolViolation(f"d{d.pid}: reconnect_rhs names myself")
    if msg.a not in g.scenario.registry:
        raise ProtocolViolation(f"d{d.pid}: reconnect_rhs to unknown identity")
    target = g.scenario.registry.pid_of(msg.a)
    nfd = g.sockets.connect(d.pid, target)
    g.sockets.set_flag(nfd, RHS)
    d.rhs_fd = nfd
    d.rhs_id = msg.a
    g.sockets.write(d.pid, nfd, Message(NEW_LHS, a=d.identity))
    d.phase = IN_RING
    d.await_cmd = None
    if d.pending_rhs2_for is not None:
        # A left neighbor attached while this daemon's right side was still
        # unknown; deliver the deferred second-right update now.
        if d.lhs_fd != INVALID_FD and g.sockets.other_of(d.lhs_fd) != INVALID_FD:
            g.sockets.write(
                d.pid,
                d.lhs_fd,
                Message(RHS2INFO, a=d.pending_rhs2_for, b=d.rhs_id,
                        hops=g.scenario.hop_budget),
            )
        d.pending_rhs2_for = None


def _on_new_lhs(g, d, fd, msg):
    _close_if_open(g, d, d.lhs_fd)  # stale remnant of the replaced connection
    g.sockets.set_flag(fd, LHS)
    d.lhs_fd = fd
    d.lhs_id = msg.a
    if d.variant != PARALLEL:
        return
    if d.rhs_id is not None:
        # The newcomer's second-right neighbor is this daemon's right.
        g.sockets.write(
            d.pid, fd,
            Message(RHS2INFO, a=msg.a, b=d.rhs_id, hops=g.scenario.hop_budget),
        )
    else:
        d.pending_rhs2_for = msg.a


def _on_rhs2info(g, d, fd, msg):
    if msg.a == d.identity:
        d.rhs2_id = msg.b
        return
    if msg.hops <= 0:
        raise ProtocolViolation(f"d{d.pid}: rhs2info for {msg.a} exceeded hop budget")
    if d.lhs_fd == INVALID_FD or g.sockets.other_of(d.lhs_fd) == INVALID_FD:
        raise ProtocolViolation(f"d{d.pid}: cannot forward rhs2info, left side gone")
    g.sockets.write(d.pid, d.lhs_fd, replace(msg, hops=msg.hops - 1))


def _on_rhs_info_request(g, d, fd, msg):
    if d.variant == PARALLEL:
        # Recovery query: a new left neighbor wants my right-hand identity.
        if d.rhs_id is None:
            raise ProtocolViolation(f"d{d.pid}: asked for rhs while unknown")
        g.sockets.write(d.pid, fd, Message(RHS_INFO_RETURN, a=d.rhs_id))
        return
    if fd == d.lhs_fd:
        # Forwarded identity query from my left: answer with my coordinates.
        g.sockets.write(d.pid, fd, Message(RHS_INFO_RETURN, a=d.identity))
    elif g.sockets.flag_of(fd) == NEW:
        # An entering daemon asks who sits on my right. Pass the question on
        # and remember the asker; answers are relayed strictly in FIFO order,
        # with nothing stopping two pending askers from getting the same
        # coordinates.
        g.sockets.write(d.pid, d.rhs_fd, Message(RHS_INFO_REQUEST))
        d.pending_requesters = d.pending_requesters + (fd,)
        if g.scenario.seq_blocking:
            d.await_cmd = RHS_INFO_RETURN
    else:
        raise ProtocolViolation(f"d{d.pid}: rhs_info_request on unexpected fd {fd}")


def _on_rhs_info_return(g, d, fd, msg):
    if d.variant == PARALLEL:
        d.rhs2_id = msg.a  # recovery refresh of the second-right neighbor
        return
    if d.phase == ENTERING_LHS and fd == d.lhs_fd:
        # My coordinates arrived: declare myself the entry daemon's new right
        # neighbor, then attach to the daemon those coordinates name.
        g.sockets.write(d.pid, fd, Message(NEW_RHS, a=d.identity))
        if msg.a not in g.scenario.registry:
            raise ProtocolViolation(f"d{d.pid}: returned identity is unknown")
        target = g.scenario.registry.pid_of(msg.a)
        nfd = g.sockets.connect(d.pid, target)
        g.sockets.set_flag(nfd, RHS)
        d.rhs_fd = nfd
        g.sockets.write(d.pid, nfd, Message(NEW_LHS, a=d.identity))
        d.phase = IN_RING
        d.await_cmd = None
    elif fd == d.rhs_fd:
        if not d.pending_requesters:
            raise ProtocolViolation(f"d{d.pid}: rhs_info_return with nobody waiting")
        req_fd = d.pending_requesters[0]
        d.pending_requesters = d.pending_requesters[1:]
        g.sockets.write(d.pid, req_fd, Message(RHS_INFO_RETURN, a=msg.a))
        if g.scenario.seq_blocking:
            d.await_cmd = NEW_RHS
    else:
        raise ProtocolViolation(f"d{d.pid}: rhs_info_return on unexpected fd {fd}")


def _on_trace_req(g, d, fd, msg):
    t = g.trace
    if t is None or not t.started:
        raise ProtocolViolation(f"d{d.pid}: trace_req outside a trace episode")
    if t.initiator == d.pid:
        t.collected = msg.ids
        t.done = True
        g.sockets.write(d.pid, d.rhs_fd, Message(TRACE_DONE, origin=msg.origin, ids=msg.ids))
        return
    if len(msg.ids) >= _live_count(g):
        raise ProtocolViolation(f"d{d.pid}: trace_req circulated past every daemon")
    g.sockets.write(
        d.pid, d.rhs_fd,
        Message(TRACE_REQ, origin=msg.origin, ids=msg.ids + (d.identity,)),
    )


def _on_trace_done(g, d, fd, msg):
    if g.trace is None or g.trace.initiator == d.pid:
        return  # completion report absorbed after its full circuit
    g.sockets.write(d.pid, d.rhs_fd, msg)


def _on_eof(g, d, fd):
    if fd == d.rhs_fd:
        g.sockets.close(d.pid, fd)
        d.rhs_fd = INVALID_FD
        if d.variant == SEQUENTIAL:
            return  # keeps no neighbor state, so there is nothing to recover with
        _recover_rhs(g, d)
    elif fd == d.lhs_fd:
        # Left side vanished. Free the slot and wait: either a new_lhs
        # connection re-establishes the left side, or the ring stays broken
        # and the topology check at quiescence says so.
        g.sockets.close(d.pid, fd)
        d.lhs_fd = INVALID_FD
    else:
        g.sockets.close(d.pid, fd)  # stray endpoint whose peer went away


def _recover_rhs(g, d):
    """Bridge over a failed right neighbor using the recorded rhs2.

    The new right-hand daemon is greeted with new_lhs, queried for its own
    right neighbor (refreshing d.rhs2), and d's left neighbor is told that
    its second-right hop has changed. The known-neighbors record is thereby
    repaired for every daemon the failure affected.
    """
    if d.rhs2_id is None:
        raise ProtocolViolation(f"d{d.pid}: right neighbor lost with no rhs2 recorded")
    target = g.scenario.registry.pid_of(d.rhs2_id)
    if g.procs[target].phase == DEAD:
        raise ProtocolViolation(f"d{d.pid}: both right-hand neighbors failed")
    d.rhs_id = d.rhs2_id
    d.rhs2_id = None  # refreshed by the query below
    nfd = g.sockets.connect(d.pid, target)
    g.sockets.set_flag(nfd, RHS)
    d.rhs_fd = nfd
    g.sockets.write(d.pid, nfd, Message(NEW_LHS, a=d.identity))
    g.sockets.write(d.pid, nfd, Message(RHS_INFO_REQUEST))
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
