"""Manager ring barrier.

N managers sit on a hard-wired ring; a manager's rank is its pid, and
manager 0 is the leader. Each manager fronts one client, tracked as two
global bit vectors: client_barrier_in (the client reached the barrier) and
client_barrier_out (the client was released). The barrier_in token leaves
the leader when its own client arrives and travels clockwise; a manager
whose client has not arrived parks the token (holding_barrier_in) and
releases it on arrival. When the token returns to the leader everyone has
arrived, and a barrier_out token makes one clockwise circuit releasing each
client. The leader releases its own client when barrier_out returns, so it
is the last one out.

The bit vectors are the state's episode record, which a handler reads
through g.read_episode so that the read is logged (see explorer).
"""

from __future__ import annotations

from .errors import ContractViolation, ProtocolViolation
from .explorer import (ACT_CLIENT_ARRIVAL, EVERY_STATE, KIND_ACTION, KIND_EVENT, QUIESCENCE_ONLY,
                       GlobalState, ScheduleStep)
from .messages import BARRIER_IN, BARRIER_OUT, command_of, message
from .sockets import (EVENT_CONNECT, EVENT_EOF, INVALID_FD, SOCKET_INVARIANTS, SocketTable,
                      wire_ring)

# Property kinds; the properties module holds their checks.
BARRIER_INVARIANT = "barrier_invariant"
BARRIER_END = "barrier_end"


class ManagerState:
    """Per-manager record."""

    __slots__ = ("pid", "lhs_fd", "rhs_fd", "holding_barrier_in",
                 "sent_barrier_in", "sent_barrier_out")

    dead = False  # managers never fail

    def __init__(self, pid: int):
        self.pid = pid
        self.lhs_fd = INVALID_FD
        self.rhs_fd = INVALID_FD
        self.holding_barrier_in = False
        # Circuit accounting: each token kind crosses each right-hand channel
        # exactly once per episode; a second send trips a violation.
        self.sent_barrier_in = False
        self.sent_barrier_out = False

    @property
    def is_leader(self) -> bool:
        return self.pid == 0

    def clone(self) -> "ManagerState":
        m = ManagerState.__new__(ManagerState)
        m.pid = self.pid
        m.lhs_fd = self.lhs_fd
        m.rhs_fd = self.rhs_fd
        m.holding_barrier_in = self.holding_barrier_in
        m.sent_barrier_in = self.sent_barrier_in
        m.sent_barrier_out = self.sent_barrier_out
        return m

    def canon(self) -> tuple:
        # Ring wiring is static; only the episode progress is state.
        return (int(self.holding_barrier_in), int(self.sent_barrier_in),
                int(self.sent_barrier_out))

    def summary(self) -> str:
        return (f"m{self.pid} rank={self.pid} holding={int(self.holding_barrier_in)} "
                f"sent_in={int(self.sent_barrier_in)} sent_out={int(self.sent_barrier_out)}")


class BarrierBits:
    """Global client bit vectors for one barrier episode.

    It is a barrier state's episode record. States share one record until a
    step writes it; the writer, client_reaches_barrier or _on_barrier_out,
    replaces g.episode with a clone first.
    """

    __slots__ = ("client_barrier_in", "client_barrier_out")

    def __init__(self):
        self.client_barrier_in = 0
        self.client_barrier_out = 0

    def clone(self) -> "BarrierBits":
        b = BarrierBits.__new__(BarrierBits)
        b.client_barrier_in = self.client_barrier_in
        b.client_barrier_out = self.client_barrier_out
        return b

    def canon(self) -> tuple:
        return (self.client_barrier_in, self.client_barrier_out)

    def columns(self) -> tuple:
        return ((), self.canon())  # the trace column stays empty

    def dump(self, g) -> str:
        n = len(g.procs)  # one bit per manager
        return f"bits in={self.client_barrier_in:0{n}b} out={self.client_barrier_out:0{n}b}"


def all_bits(g) -> int:
    """The bit vector with every manager's client bit set."""
    return (1 << len(g.procs)) - 1


def initial_state(sc) -> GlobalState:
    """n_initial managers wired into a ring, no client arrived yet."""
    table = SocketTable(sc.conn_max, sc.qsz)
    procs = [ManagerState(i) for i in range(sc.n_initial)]
    wire_ring(table, procs)
    return GlobalState(sc, table, procs, BarrierBits())


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
    bits = g.episode = g.read_episode().clone()
    bit = 1 << m.pid
    if bits.client_barrier_in & bit:
        raise ProtocolViolation(f"m{m.pid}: client arrived twice in one episode")
    bits.client_barrier_in |= bit
    if m.is_leader:
        _send_token(g, m, BARRIER_IN)
    elif m.holding_barrier_in:
        m.holding_barrier_in = False
        _send_token(g, m, BARRIER_IN)


def _on_barrier_in(g, m: ManagerState) -> None:
    if m.is_leader:
        # Token returned: every client is in, start releasing.
        _send_token(g, m, BARRIER_OUT)
    elif g.read_episode().client_barrier_in & (1 << m.pid):
        _send_token(g, m, BARRIER_IN)
    else:
        m.holding_barrier_in = True


def _on_barrier_out(g, m: ManagerState) -> None:
    bits = g.episode = g.read_episode().clone()
    bit = 1 << m.pid
    if bits.client_barrier_out & bit:
        raise ProtocolViolation(f"m{m.pid}: barrier_out arrived twice")
    if not m.is_leader and not (bits.client_barrier_in & bit):
        # Cannot happen: barrier_out only exists after the in-circuit closed.
        raise ProtocolViolation(f"m{m.pid}: released before my client arrived")
    bits.client_barrier_out |= bit
    if not m.is_leader:
        _send_token(g, m, BARRIER_OUT)
    # The leader absorbs the token, releasing its own client last.


def steps(g) -> list[ScheduleStep]:
    """Every step the barrier can take from g, in a fixed order.

    By pid, each manager offers its wakes by descriptor index, then its
    client's arrival while that client has not arrived.
    """
    ready = g.sockets.ready_events()
    arrived = g.episode.client_barrier_in
    out: list[ScheduleStep] = []
    for m in g.procs:
        pid = m.pid
        for fd, name in ready.get(pid, ()):
            out.append(ScheduleStep(pid, KIND_EVENT, fd, name))
        if not (arrived >> pid) & 1:
            out.append(ScheduleStep(pid, KIND_ACTION, -1, ACT_CLIENT_ARRIVAL))
    return out


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
