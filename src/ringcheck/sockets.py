"""Simulated Unix-domain socket layer: descriptor table plus FIFO channels.

A connection is a pair of descriptors cross-linked through ``other_fd``. Each
descriptor owns one inbound FIFO channel: ``write(fd, m)`` enqueues m on the
channel of ``other_fd``, ``read(fd)`` dequeues from fd's own channel. Listening
ports are not modeled as descriptors; ``connect`` names the listening process
directly and plants an AWAIT_ACCEPT descriptor on it.

Readiness is derived from the table on demand instead of being stored:
a process has a pending wake exactly when one of its descriptors satisfies a
wake condition. ``ready_events`` finds the wakes of every process in one pass
over the table, so listing them costs the table's size, not its size times
the number of processes. Each wake is an ``(fd, name)`` pair whose name is
already the schedule step's command: ``connect`` for a pending accept, ``eof``
for a drained half-closed descriptor, otherwise the command of the message at
the head of the channel. The protocol modules schedule and handle wakes by
that one name. Deriving rather than storing makes re-running ``ready_events``
after no state change trivially return the same events, and removes any
possibility of a wake bit disagreeing with the condition behind it.

End-of-file follows stream semantics: a half-closed descriptor reports EOF
only once its channel has drained, so buffered messages are always readable
before the hangup is observable.

Every operation logs the descriptors whose slots it writes in ``touched``.
The log starts empty in a new table and in every ``clone()``; a clone is the
table of one successor state, so its log names the fds one step wrote.
``check_touched`` checks the structural invariant on those fds and their
peers alone. That suffices when the table the clone was taken from passed
``check_invariants`` and the step killed no process. A slot's checks read
only the slot, its peer's slot and whether its owner is dead, so an
unwritten fd u can only break through a written peer p. Before the step p
linked back to u; if it still does, p's own link check covers u's, and if
it no longer does, the close that unlinked them wrote u's slot too.

Every slot write must be logged, a ``read`` included, though a read breaks
no invariant: the explorer's visited key re-hashes only the logged slots,
so an unlogged write would leave the slot's old hash in the successor's key.
"""

from __future__ import annotations

from .errors import (
    BrokenConnectionError,
    ContractViolation,
    InvariantViolation,
    ModelSizingError,
)
from .messages import command_of

INVALID_FD = -1
UNOWNED = -1

# Descriptor use flags. FREE slots are allocatable; AWAIT_ACCEPT marks the
# server half of a connection nobody accepted yet; NEW marks a freshly
# accepted or connected endpoint without a protocol role; LHS and RHS are the
# ring roles assigned by the daemon handlers.
FREE = 0
AWAIT_ACCEPT = 1
NEW = 2
LHS = 3
RHS = 4

FLAG_NAMES = {FREE: "free", AWAIT_ACCEPT: "await_accept", NEW: "new", LHS: "lhs", RHS: "rhs"}

# Wake names that are not message commands; a message wake is named by the
# command at the head of its channel. No protocol command collides with these.
EVENT_CONNECT = "connect"
EVENT_EOF = "eof"

# Property kind of the table's structural invariant; every protocol lists it.
SOCKET_INVARIANTS = "socket_invariants"


class SocketTable:
    """Mutable descriptor table sized at construction.

    All operations that act on a descriptor take the caller's pid and verify
    ownership, mirroring the rule that a process may only touch its own fds.
    """

    __slots__ = ("conn_max", "qsz", "other", "owner", "flag", "queues", "touched")

    def __init__(self, conn_max: int, qsz: int):
        if conn_max < 2 or qsz < 1:
            raise ValueError("conn_max must be >= 2 and qsz >= 1")
        self.conn_max = conn_max
        self.qsz = qsz
        self.other = [INVALID_FD] * conn_max
        self.owner = [UNOWNED] * conn_max
        self.flag = [FREE] * conn_max
        self.queues: list[tuple] = [()] * conn_max
        self.touched: list[int] = []  # fds written since construction or clone()

    # -- lifecycle ---------------------------------------------------------

    def clone(self) -> "SocketTable":
        t = SocketTable.__new__(SocketTable)
        t.conn_max = self.conn_max
        t.qsz = self.qsz
        t.other = self.other[:]
        t.owner = self.owner[:]
        t.flag = self.flag[:]
        t.queues = self.queues[:]
        t.touched = []
        return t

    def canon(self) -> tuple:
        # Queued messages are plain int tuples, already canonical.
        return (tuple(self.other), tuple(self.owner), tuple(self.flag), tuple(self.queues))

    # -- small accessors ----------------------------------------------------

    def is_allocated(self, fd: int) -> bool:
        return 0 <= fd < self.conn_max and self.flag[fd] != FREE

    def other_of(self, fd: int) -> int:
        return self.other[fd]

    def flag_of(self, fd: int) -> int:
        return self.flag[fd]

    def owner_of(self, fd: int) -> int:
        return self.owner[fd]

    def queue_of(self, fd: int) -> tuple:
        return self.queues[fd]

    def owned_by(self, pid: int) -> list[int]:
        return [fd for fd in range(self.conn_max) if self.owner[fd] == pid]

    def set_flag(self, fd: int, flag: int) -> None:
        if not self.is_allocated(fd):
            raise ContractViolation(f"set_flag on unallocated fd {fd}")
        self.flag[fd] = flag
        self.touched.append(fd)

    def _check_owner(self, pid: int, fd: int, op: str) -> None:
        if not (0 <= fd < self.conn_max) or self.flag[fd] == FREE:
            raise ContractViolation(f"{op} on unallocated fd {fd} by pid {pid}")
        if self.owner[fd] != pid:
            raise ContractViolation(
                f"{op} on fd {fd} by pid {pid}, owned by pid {self.owner[fd]}"
            )

    def _alloc(self) -> int:
        for fd in range(self.conn_max):
            if self.flag[fd] == FREE:
                return fd
        raise ModelSizingError(
            f"descriptor table exhausted (conn_max={self.conn_max}); size the model larger"
        )

    # -- operations ---------------------------------------------------------

    def connect(self, client_pid: int, listener_pid: int) -> int:
        """Open a connection to listener_pid; returns the client-side fd.

        The server half is allocated first (lower index) and parked in
        AWAIT_ACCEPT until the listener accepts it. Both halves are linked
        immediately, so the client may write before the accept happens.
        """
        server_fd = self._alloc()
        self.flag[server_fd] = AWAIT_ACCEPT
        self.owner[server_fd] = listener_pid
        client_fd = self._alloc()
        self.flag[client_fd] = NEW
        self.owner[client_fd] = client_pid
        self.other[server_fd] = client_fd
        self.other[client_fd] = server_fd
        self.touched += (server_fd, client_fd)
        return client_fd

    def accept(self, pid: int) -> int:
        """Claim the lowest-index pending connection owned by pid."""
        for fd in range(self.conn_max):
            if self.owner[fd] == pid and self.flag[fd] == AWAIT_ACCEPT:
                self.flag[fd] = NEW
                self.touched.append(fd)
                return fd
        raise ContractViolation(f"accept by pid {pid} with no pending connection")

    def write(self, pid: int, fd: int, msg) -> None:
        self._check_owner(pid, fd, "write")
        if self.flag[fd] == AWAIT_ACCEPT:
            raise ContractViolation(f"write on fd {fd} before it was accepted")
        peer = self.other[fd]
        if peer == INVALID_FD:
            raise BrokenConnectionError(f"write on fd {fd}: peer endpoint is closed")
        q = self.queues[peer]
        if len(q) >= self.qsz:
            raise ModelSizingError(
                f"channel of fd {peer} full (qsz={self.qsz}); size the model larger"
            )
        self.queues[peer] = q + (msg,)
        self.touched.append(peer)

    def read(self, pid: int, fd: int):
        self._check_owner(pid, fd, "read")
        if self.flag[fd] == AWAIT_ACCEPT:
            raise ContractViolation(f"read on fd {fd} before it was accepted")
        q = self.queues[fd]
        if not q:
            raise ContractViolation(f"read on fd {fd} with empty channel")
        self.queues[fd] = q[1:]
        self.touched.append(fd)
        return q[0]

    def close(self, pid: int, fd: int) -> None:
        self._check_owner(pid, fd, "close")
        self._close_slot(fd)

    def inject_failure(self, pid: int) -> list[int]:
        """Close every descriptor pid owns, as the OS would on process death.

        Returns the fds that were closed. Calling it again for the same pid is
        a no-op because nothing is owned any more.
        """
        closed = []
        for fd in range(self.conn_max):
            if self.owner[fd] == pid and self.flag[fd] != FREE:
                self._close_slot(fd)
                closed.append(fd)
        return closed

    def _close_slot(self, fd: int) -> None:
        peer = self.other[fd]
        if peer != INVALID_FD and self.flag[peer] != FREE:
            # Half-close the survivor; its EOF becomes observable once its
            # channel drains. Messages it already holds stay readable.
            self.other[peer] = INVALID_FD
            self.touched.append(peer)
        self.other[fd] = INVALID_FD
        self.owner[fd] = UNOWNED
        self.flag[fd] = FREE
        self.queues[fd] = ()  # undelivered inbound messages are discarded
        self.touched.append(fd)

    # -- readiness ----------------------------------------------------------

    def ready_events(self) -> dict[int, list[tuple[int, str]]]:
        """Every pending wake of every process, found in one pass over the table.

        Maps each pid that has a wake to its (fd, name) pairs, ordered by fd
        index; a pid with none is absent. Exactly one connect wake is
        surfaced per process (for its lowest AWAIT_ACCEPT descriptor) because
        accept itself always claims the lowest pending slot. Message and EOF
        wakes are per descriptor; EOF requires a drained channel, message
        readiness requires the descriptor to have been accepted. A message
        wake is named by the command of the message at its channel's head.
        """
        events: dict[int, list[tuple[int, str]]] = {}
        connecting = set()  # pids whose connect wake is already listed
        owner, other, queues = self.owner, self.other, self.queues
        for fd, flag in enumerate(self.flag):
            if flag == FREE:
                continue
            pid = owner[fd]
            if flag == AWAIT_ACCEPT:
                if pid in connecting:
                    continue
                connecting.add(pid)
                name = EVENT_CONNECT
            elif queues[fd]:
                name = command_of(queues[fd][0])
            elif other[fd] == INVALID_FD:
                name = EVENT_EOF
            else:
                continue
            events.setdefault(pid, []).append((fd, name))
        return events

    # -- diagnostics ---------------------------------------------------------

    def dump(self) -> str:
        """One line per allocated descriptor, for debugging and replay output."""
        lines = []
        for fd in range(self.conn_max):
            if self.flag[fd] == FREE:
                continue
            other = self.other[fd]
            other_s = str(other) if other != INVALID_FD else "-"
            cmds = ",".join(command_of(m) for m in self.queues[fd])
            lines.append(
                f"fd={fd} other={other_s} owner={self.owner[fd]} "
                f"flag={FLAG_NAMES[self.flag[fd]]} queue=[{cmds}]"
            )
        return "\n".join(lines)

    def check_invariants(self, dead_pids: frozenset[int] = frozenset()) -> None:
        """Structural checks over the whole table; raises on the first failure.

        Covers link symmetry, ownership of allocated slots, cleanliness of
        free slots, channel bounds and the rule that dead processes own
        nothing. Wake soundness needs no check here: events are computed from
        these same structures, so it holds by construction once they do.
        """
        self._check_fds(range(self.conn_max), dead_pids)

    def check_touched(self, dead_pids: frozenset[int] = frozenset()) -> None:
        """check_invariants on the fds written since clone() and their peers.

        Sound only on a clone of a table that passed check_invariants, when
        the step that wrote it left dead_pids unchanged (see the module
        docstring). Fds are checked in index order, so the first failure
        found is the one the whole-table check would report first among them.
        """
        touched = self.touched
        if not touched:
            return
        other, n = self.other, self.conn_max
        fds = set(touched)
        for fd in touched:
            peer = other[fd]
            if 0 <= peer < n:
                fds.add(peer)
        self._check_fds(sorted(fds), dead_pids)

    def _check_fds(self, fds, dead_pids: frozenset[int]) -> None:
        flag, owners, other, queues = self.flag, self.owner, self.other, self.queues
        qsz, n = self.qsz, self.conn_max
        for fd in fds:
            f, owner, peer, q = flag[fd], owners[fd], other[fd], queues[fd]
            if f == FREE:
                if owner != UNOWNED or peer != INVALID_FD or q:
                    raise InvariantViolation(f"free slot {fd} is not clean")
                continue
            if owner == UNOWNED:
                raise InvariantViolation(f"allocated fd {fd} has no owner")
            if owner in dead_pids:
                raise InvariantViolation(f"fd {fd} owned by dead pid {owner}")
            if len(q) > qsz:
                raise InvariantViolation(f"channel of fd {fd} over capacity")
            if peer != INVALID_FD:
                if not (0 <= peer < n) or flag[peer] == FREE:
                    raise InvariantViolation(f"fd {fd} links to unallocated fd {peer}")
                if other[peer] != fd:
                    raise InvariantViolation(f"asymmetric link {fd} -> {peer}")


def wire_ring(table: SocketTable, procs: list) -> None:
    """Connect procs clockwise: each one's rhs_fd reaches the next one's lhs_fd.

    A ring of one is a process connected to its own port.
    """
    n = len(procs)
    for i, p in enumerate(procs):
        q = procs[(i + 1) % n]
        cfd = table.connect(p.pid, q.pid)
        table.set_flag(cfd, RHS)
        sfd = table.accept(q.pid)
        table.set_flag(sfd, LHS)
        p.rhs_fd = cfd
        q.lhs_fd = sfd
