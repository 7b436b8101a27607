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

The bit vectors are the state's episode record. The visited key hashes
them one part per manager, its (in, out) bits, and a handler reads and
writes only its own manager's bits, straight from g.episode: like the
manager's own record, that part is read by no other manager's step. So a
barrier step's key delta hashes that part alone, and it can be reused past
the steps of the others (see explorer).
"""

from __future__ import annotations

import functools

from .errors import ContractViolation, ProtocolViolation
from .explorer import (ACT_CLIENT_ARRIVAL, EVERY_STATE, KIND_ACTION, KIND_EVENT, QUIESCENCE_ONLY,
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
                 "sent_barrier_in", "sent_barrier_out")

    dead = False  # managers never fail

    def __init__(self, pid: int):
        self.pid = pid
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
        m.rhs_fd = self.rhs_fd
        m.holding_barrier_in = self.holding_barrier_in
        m.sent_barrier_in = self.sent_barrier_in
        m.sent_barrier_out = self.sent_barrier_out
        return m

    def canon(self) -> tuple:
        # Ring wiring is static; only the episode progress is state.
        return (self.holding_barrier_in, self.sent_barrier_in, self.sent_barrier_out)

    def summary(self) -> str:
        return (f"m{self.pid} rank={self.pid} holding={int(self.holding_barrier_in)} "
                f"sent_in={int(self.sent_barrier_in)} sent_out={int(self.sent_barrier_out)}")


class BarrierBits:
    """Global client bit vectors for one barrier episode.

    It is a barrier state's episode record. States share one record until a
    step writes it; the writer, client_reaches_barrier or _on_barrier_out,
    replaces g.episode with a clone first. Its parts for the visited key are
    one per manager, part(pid) being pid's (in, out) bits, and parts() lists
    them by pid; the state's encoding holds the two vectors whole (canon). A
    barrier step reads and writes its own part unlogged, so step_delta
    hashes that part alone.
    """

    __slots__ = ("client_barrier_in", "client_barrier_out", "managers")

    def __init__(self, managers: int):
        self.client_barrier_in = 0
        self.client_barrier_out = 0
        self.managers = managers  # static: one part per manager

    def clone(self) -> "BarrierBits":
        b = BarrierBits.__new__(BarrierBits)
        b.client_barrier_in = self.client_barrier_in
        b.client_barrier_out = self.client_barrier_out
        b.managers = self.managers
        return b

    def canon(self) -> tuple:
        return (self.client_barrier_in, self.client_barrier_out)

    def part(self, pid: int) -> tuple:
        """The visited key's episode part pid: manager pid's (in, out) bits."""
        return ((self.client_barrier_in >> pid) & 1, (self.client_barrier_out >> pid) & 1)

    def parts(self) -> tuple:
        """Every part, part(pid) at index pid."""
        return tuple(map(self.part, range(self.managers)))

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
    return GlobalState(sc, table, procs, BarrierBits(sc.n_initial))


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
    bits = g.episode = g.episode.clone()
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
    elif g.episode.client_barrier_in & (1 << m.pid):
        _send_token(g, m, BARRIER_IN)
    else:
        m.holding_barrier_in = True


def _on_barrier_out(g, m: ManagerState) -> None:
    bits = g.episode = g.episode.clone()
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
    client's arrival while that client has not arrived. The wakes come
    sorted from the table and the arrivals from one interned tuple; a
    stable sort by pid merges them, each wake before its manager's arrival.
    """
    arrived = g.episode.client_barrier_in
    out = []
    for pid, fd, name in g.sockets.ready_events():
        out.append(schedule_step(pid, KIND_EVENT, fd, name))
    for bit, arrival in _arrivals(len(g.procs)):
        if not arrived & bit:
            out.append(arrival)
    out.sort(key=step_pid)
    return out


@functools.cache
def _arrivals(n: int) -> tuple[tuple[int, ScheduleStep], ...]:
    """Each of n managers' client_barrier_in bit and its client's arrival step."""
    return tuple((1 << pid, schedule_step(pid, KIND_ACTION, -1, ACT_CLIENT_ARRIVAL))
                 for pid in range(n))


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
