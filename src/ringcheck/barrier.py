"""Manager ring barrier.

N managers sit on a hard-wired ring; a manager's rank is its pid, and
manager 0 is the leader. Each manager fronts one client and keeps its
client's two flags in its own record: client_in (the client reached the
barrier) and client_out (the client was released). The barrier_in token
leaves the leader when its own client arrives and travels clockwise; a
manager whose client has not arrived parks the token (holding_barrier_in)
and releases it on arrival. When the token returns to the leader everyone
has arrived, and a barrier_out token makes one clockwise circuit releasing
each client. The leader releases its own client last, when barrier_out
returns.

A handler reads and writes its own manager's record and the slots its
table logs, nothing else, so the barrier keeps no shared state, and a
barrier step's key delta hashes its manager's record and its slots alone,
like any other step (see explorer).
"""

from __future__ import annotations

import functools

from .errors import ContractViolation, ProtocolViolation
from .explorer import (ACT_CLIENT_ARRIVAL, EVERY_STATE, QUIESCENCE_ONLY,
                       GlobalState, ScheduleStep, schedule_step, step_pid)
from .messages import BARRIER_IN, BARRIER_OUT, command_of, message
from .sockets import (EVENT_CONNECT, EVENT_EOF, INVALID_FD, SOCKET_INVARIANTS, SocketTable,
                      wire_ring)

# Property kinds; the properties module holds their checks.
BARRIER_INVARIANT = "barrier_invariant"
BARRIER_END = "barrier_end"


class ManagerState:
    """Per-manager record."""

    __slots__ = ("pid", "rhs_fd", "holding_barrier_in",
                 "sent_barrier_in", "sent_barrier_out", "client_in", "client_out")

    dead = False  # managers never fail

    def __init__(self, pid: int):
        self.pid = pid
        self.rhs_fd = INVALID_FD
        self.holding_barrier_in = False
        # Circuit accounting: each token kind crosses each right-hand channel
        # exactly once per episode; a second send trips a violation.
        self.sent_barrier_in = False
        self.sent_barrier_out = False
        self.client_in = False  # this manager's client reached the barrier
        self.client_out = False  # and was released

    @property
    def is_leader(self) -> bool:
        return self.pid == 0

    def clone(self) -> "ManagerState":
        m = ManagerState.__new__(ManagerState)
        m.pid = self.pid
        m.rhs_fd = self.rhs_fd
        m.holding_barrier_in = self.holding_barrier_in
        m.sent_barrier_in = self.sent_barrier_in
        m.sent_barrier_out = self.sent_barrier_out
        m.client_in = self.client_in
        m.client_out = self.client_out
        return m

    def canon(self) -> tuple:
        # Ring wiring is static; only the episode progress is state.
        return (self.holding_barrier_in, self.sent_barrier_in, self.sent_barrier_out,
                self.client_in, self.client_out)

    def summary(self) -> str:
        return (f"m{self.pid} rank={self.pid} holding={int(self.holding_barrier_in)} "
                f"sent_in={int(self.sent_barrier_in)} sent_out={int(self.sent_barrier_out)}")


class BarrierBits:
    """No state holds one; it stays because perfbench/tracer.py wraps its methods by name."""

    __slots__ = ()

    def clone(self) -> "BarrierBits":
        return self

    def canon(self) -> tuple:
        return ()


def dump_line(g) -> str:
    """The state dump's line of client flags, bit pid being manager pid's client."""
    n = len(g.procs)  # one bit per manager
    arrived, released = client_bits(g)
    return f"bits in={arrived:0{n}b} out={released:0{n}b}"


def client_bits(g) -> tuple[int, int]:
    """The managers' client_in and client_out flags as two bit vectors."""
    arrived = released = 0
    for m in g.procs:
        arrived |= m.client_in << m.pid
        released |= m.client_out << m.pid
    return arrived, released


def initial_state(sc) -> GlobalState:
    """n_initial managers wired into a ring, no client arrived yet."""
    table = SocketTable(sc.conn_max, sc.qsz)
    procs = [ManagerState(i) for i in range(sc.n_initial)]
    wire_ring(table, procs)
    return GlobalState(sc, table, procs)


def properties(sc) -> tuple[tuple[str, str], ...]:
    """The (kind, when) pairs the barrier checks, in evaluation order."""
    return (
        (SOCKET_INVARIANTS, EVERY_STATE),
        (BARRIER_INVARIANT, EVERY_STATE),
        (BARRIER_END, QUIESCENCE_ONLY),
    )


def _send_token(g, m: ManagerState, cmd: str) -> None:
    if cmd == BARRIER_IN:
        if m.sent_barrier_in:
            raise ProtocolViolation(f"m{m.pid}: second barrier_in on one channel")
        m.sent_barrier_in = True
    else:
        if m.sent_barrier_out:
            raise ProtocolViolation(f"m{m.pid}: second barrier_out on one channel")
        m.sent_barrier_out = True
    g.sockets.write(m.pid, m.rhs_fd, message(cmd))


def client_reaches_barrier(g, m: ManagerState) -> None:
    if m.client_in:
        raise ProtocolViolation(f"m{m.pid}: client arrived twice in one episode")
    m.client_in = True
    if m.is_leader:
        _send_token(g, m, BARRIER_IN)
    elif m.holding_barrier_in:
        m.holding_barrier_in = False
        _send_token(g, m, BARRIER_IN)


def _on_barrier_in(g, m: ManagerState) -> None:
    if m.is_leader:
        # Token returned: every client is in, start releasing.
        _send_token(g, m, BARRIER_OUT)
    elif m.client_in:
        _send_token(g, m, BARRIER_IN)
    else:
        m.holding_barrier_in = True


def _on_barrier_out(g, m: ManagerState) -> None:
    if m.client_out:
        raise ProtocolViolation(f"m{m.pid}: barrier_out arrived twice")
    if not m.is_leader and not m.client_in:
        # Cannot happen: barrier_out only exists after the in-circuit closed.
        raise ProtocolViolation(f"m{m.pid}: released before my client arrived")
    m.client_out = True
    if not m.is_leader:
        _send_token(g, m, BARRIER_OUT)
    # The leader absorbs the token, releasing its own client last.


def steps(g) -> list[ScheduleStep]:
    """Every step the barrier can take from g, in a fixed order.

    By pid, each manager offers its wakes by descriptor index, then its
    client's arrival while that client has not arrived. The wakes come
    sorted from the table and the arrivals from one interned tuple; a
    stable sort by pid merges them, each wake before its manager's arrival.
    """
    out = []
    for pid, fd, name in g.sockets.ready_events():
        out.append(schedule_step(pid, fd, name))
    for m, arrival in zip(g.procs, _arrivals(len(g.procs))):
        if not m.client_in:
            out.append(arrival)
    out.sort(key=step_pid)
    return out


@functools.cache
def _arrivals(n: int) -> tuple[ScheduleStep, ...]:
    """Each of n managers' client arrival step, by pid."""
    return tuple(schedule_step(pid, -1, ACT_CLIENT_ARRIVAL) for pid in range(n))


def act(g, m: ManagerState, action: str) -> None:
    """Run the spontaneous action named action of manager m."""
    if action != ACT_CLIENT_ARRIVAL:
        raise ContractViolation(f"unknown action {action!r}")
    client_reaches_barrier(g, m)


def handle_event(g, m: ManagerState, fd: int, name: str) -> None:
    """Handle the wake named name on m's descriptor fd."""
    if name in (EVENT_CONNECT, EVENT_EOF):
        raise ProtocolViolation(f"m{m.pid}: unexpected {name} event on manager ring")
    cmd = command_of(g.sockets.read(m.pid, fd))
    if cmd == BARRIER_IN:
        _on_barrier_in(g, m)
    elif cmd == BARRIER_OUT:
        _on_barrier_out(g, m)
    else:
        raise ProtocolViolation(f"m{m.pid}: unexpected command {cmd!r}")
