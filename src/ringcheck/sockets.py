"""Simulated Unix-domain socket layer: descriptor table plus FIFO channels.

A connection is a pair of descriptors cross-linked through ``other_fd``. Each
descriptor owns one inbound FIFO channel: ``write(fd, m)`` enqueues m on the
channel of ``other_fd``, ``read(fd)`` dequeues from fd's own channel. Listening
ports are not modeled as descriptors; ``connect`` names the listening process
directly and plants an AWAIT_ACCEPT descriptor on it.

Readiness is derived from the table, never stored in a slot: a process has
a pending wake exactly when one of its descriptors satisfies a wake
condition. Each wake is an ``(owner, fd, name)`` triple whose name is
already the schedule step's command: ``connect`` for a pending accept,
``eof`` for a drained half-closed descriptor, otherwise the command of the
message at the head of the channel. The protocol modules schedule and
handle wakes by that one name.

The wake map, fd -> (owner, fd, name) for every fd that has a wake, is kept
in ``_wakes`` and is always the map of the slots as they stand: a new table
has none, ``clone()`` copies its parent's, and ``_put``, the one slot write,
sets or drops the wake of the fd it stored. Its values sorted are the wakes
in pid-then-fd order, the order the protocols list steps in, so listing the
wakes (``ready_events``) costs the wakes listed, not the table's size.

End-of-file follows stream semantics: a half-closed descriptor reports EOF
only once its channel has drained, so buffered messages are always readable
before the hangup is observable.

The table is one list, ``slots``, of immutable per-fd tuples (other, owner,
flag, queue) at positions OTHER to QUEUE; a free slot is exactly FREE_SLOT.
The explorer hashes each slot whole, and ``canon()``, the table's part of
the canonical encoding, is the slots as they stand, one tuple per fd.
Outside this module only the property checks know the layout:
``properties.ring_order`` and ``check_ring_topology`` unpack the slot tuple
that ``peek`` returns.

Every slot write goes through ``_put``, which logs the fd in ``touched``.
The log starts empty in a new table and in every ``clone()``; a clone is the
table of one successor state, so its log names the fds one step wrote.
``check_touched`` checks the structural invariant on those fds and their
peers alone. That suffices when the table the clone was taken from passed
``check_invariants`` and the step killed no process. A slot's checks read
only the slot, its peer's slot and whether its owner is dead, so an
unwritten fd u can only break through a written peer p. Before the step p
linked back to u; if it still does, p's own link check covers u's, and if
it no longer does, the close that unlinked them wrote u's slot too.

The explorer's visited key relies on the same log: it re-hashes only the
logged slots, so a read is logged too, though a read breaks no invariant.

Beside ``touched`` sits ``reads``, the read record: an int with bit fd set
for every slot an operation read since construction or ``clone()``. Every
slot read a handler can make logs its fd next to the read: the accessors,
``_check_owner`` (so ``accept``, ``read`` and ``close`` read their own fd),
the peer reads of ``write`` and ``_close_slot``, and the scans of
``_alloc`` and ``inject_failure``, which log the range they passed over. A
write never goes to a slot the operation did not read first, so
``touched`` is within ``reads``. The explorer takes a step's reads as part
of its footprint: a step that finds its footprint as it was has the same
effect and changes the visited key by the same amount. The record is the
handlers' alone: ``ready_events`` reads the wake map, the invariant checks
index ``slots`` directly, and property checks read through ``peek``, which
logs nothing.
They are not steps, so logging their reads would cost every checked state
and tell the search nothing.
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

# Positions in a descriptor slot, the immutable tuple (other, owner, flag,
# queue), and the one value of every unallocated slot.
OTHER, OWNER, FLAG, QUEUE = range(4)
FREE_SLOT = (INVALID_FD, UNOWNED, FREE, ())

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

    __slots__ = ("qsz", "slots", "touched", "reads", "_wakes")

    def __init__(self, conn_max: int, qsz: int):
        if conn_max < 2 or qsz < 1:
            raise ValueError("conn_max must be >= 2 and qsz >= 1")
        self.qsz = qsz
        self.slots: list[tuple] = [FREE_SLOT] * conn_max
        self.touched: list[int] = []  # fds written since construction or clone()
        self.reads = 0  # bit fd set: slot fd read since construction or clone()
        self._wakes: dict[int, tuple[int, int, str]] = {}  # every slot is free: no wakes

    # -- lifecycle ---------------------------------------------------------

    def clone(self) -> "SocketTable":
        t = SocketTable.__new__(SocketTable)
        t.qsz = self.qsz
        t.slots = self.slots[:]
        t.touched = []
        t.reads = 0
        t._wakes = self._wakes.copy()
        return t

    def canon(self) -> tuple:
        # The slots as they stand; messages are already canonical.
        return tuple(self.slots)

    def _put(self, fd: int, slot: tuple) -> None:
        """The one slot write: store slot at fd, log fd in touched, set fd's wake."""
        self.slots[fd] = slot
        self.touched.append(fd)
        other, pid, flag, q = slot
        if flag == AWAIT_ACCEPT:
            self._wakes[fd] = (pid, fd, EVENT_CONNECT)
        elif flag != FREE and q:
            self._wakes[fd] = (pid, fd, command_of(q[0]))
        elif flag != FREE and other == INVALID_FD:
            self._wakes[fd] = (pid, fd, EVENT_EOF)
        else:
            self._wakes.pop(fd, None)

    def peek(self, fd: int) -> tuple:
        """fd's slot, FREE_SLOT for an fd outside the table; logs nothing.

        For property checks, which read a state without stepping it.
        """
        return self.slots[fd] if 0 <= fd < len(self.slots) else FREE_SLOT

    # -- small accessors ----------------------------------------------------

    @property
    def conn_max(self) -> int:
        return len(self.slots)

    def is_allocated(self, fd: int) -> bool:
        """False, logging no read, for an fd outside the table, INVALID_FD
        included: slots[-1] would be the last slot."""
        if 0 <= fd < len(self.slots):
            self.reads |= 1 << fd
            return self.slots[fd][FLAG] != FREE
        return False

    def other_of(self, fd: int) -> int:
        self.reads |= 1 << fd
        return self.slots[fd][OTHER]

    def flag_of(self, fd: int) -> int:
        self.reads |= 1 << fd
        return self.slots[fd][FLAG]

    def owner_of(self, fd: int) -> int:
        self.reads |= 1 << fd
        return self.slots[fd][OWNER]

    def set_flag(self, fd: int, flag: int) -> None:
        if not self.is_allocated(fd):
            raise ContractViolation(f"set_flag on unallocated fd {fd}")
        other, owner, _, q = self.slots[fd]  # read by is_allocated
        self._put(fd, (other, owner, flag, q))

    def _check_owner(self, pid: int, fd: int, op: str) -> tuple:
        """fd's slot, once pid is known to own the allocated fd."""
        if 0 <= fd < len(self.slots):
            self.reads |= 1 << fd
            slot = self.slots[fd]
        else:
            slot = FREE_SLOT
        if slot[FLAG] == FREE:
            raise ContractViolation(f"{op} on unallocated fd {fd} by pid {pid}")
        if slot[OWNER] != pid:
            raise ContractViolation(
                f"{op} on fd {fd} by pid {pid}, owned by pid {slot[OWNER]}"
            )
        return slot

    def _alloc(self, start: int = 0) -> int:
        for fd in range(start, len(self.slots)):
            if self.slots[fd][FLAG] == FREE:
                self.reads |= (2 << fd) - (1 << start)  # the scan read start..fd
                return fd
        raise ModelSizingError(
            f"descriptor table exhausted (conn_max={len(self.slots)}); size the model larger"
        )

    # -- operations ---------------------------------------------------------

    def connect(self, client_pid: int, listener_pid: int, flag: int = NEW) -> int:
        """Open a connection to listener_pid; returns the client-side fd.

        The server half is allocated first (lower index) and parked in
        AWAIT_ACCEPT until the listener accepts it; the client half gets flag.
        Both halves are linked at once, so the client may write before the
        accept happens.
        """
        server_fd = self._alloc()
        client_fd = self._alloc(server_fd + 1)
        self._put(server_fd, (client_fd, listener_pid, AWAIT_ACCEPT, ()))
        self._put(client_fd, (server_fd, client_pid, flag, ()))
        return client_fd

    def accept(self, pid: int, fd: int, flag: int = NEW) -> None:
        """Claim the pending connection at fd, owned by pid, flagged flag.

        Reads fd alone. A connect wake names pid's lowest pending fd
        (ready_events), which is the one its handler claims.
        """
        other, owner, old, q = self._check_owner(pid, fd, "accept")
        if old != AWAIT_ACCEPT:
            raise ContractViolation(f"accept on fd {fd}, which is no pending connection")
        self._put(fd, (other, owner, flag, q))

    def write(self, pid: int, fd: int, msg) -> None:
        peer, _, flag, _ = self._check_owner(pid, fd, "write")
        if flag == AWAIT_ACCEPT:
            raise ContractViolation(f"write on fd {fd} before it was accepted")
        if peer == INVALID_FD:
            raise BrokenConnectionError(f"write on fd {fd}: peer endpoint is closed")
        self.reads |= 1 << peer
        back, owner, peer_flag, q = self.slots[peer]
        if len(q) >= self.qsz:
            raise ModelSizingError(
                f"channel of fd {peer} full (qsz={self.qsz}); size the model larger"
            )
        self._put(peer, (back, owner, peer_flag, q + (msg,)))

    def read(self, pid: int, fd: int):
        other, owner, flag, q = self._check_owner(pid, fd, "read")
        if flag == AWAIT_ACCEPT:
            raise ContractViolation(f"read on fd {fd} before it was accepted")
        if not q:
            raise ContractViolation(f"read on fd {fd} with empty channel")
        self._put(fd, (other, owner, flag, q[1:]))
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
        self.reads |= (1 << len(self.slots)) - 1  # the scan reads every slot
        for fd, (_, owner, flag, _) in enumerate(self.slots):
            if owner == pid and flag != FREE:
                self._close_slot(fd)
                closed.append(fd)
        return closed

    def _close_slot(self, fd: int) -> None:
        self.reads |= 1 << fd
        peer = self.slots[fd][OTHER]
        if peer != INVALID_FD:
            self.reads |= 1 << peer
            _, owner, flag, q = self.slots[peer]
            if flag != FREE:
                # Half-close the survivor; its EOF becomes observable once its
                # channel drains. Messages it already holds stay readable.
                self._put(peer, (INVALID_FD, owner, flag, q))
        self._put(fd, FREE_SLOT)  # undelivered inbound messages are discarded

    # -- readiness ----------------------------------------------------------

    def ready_events(self) -> list[tuple[int, int, str]]:
        """Every pending wake of every process, from the wake map.

        The (pid, fd, name) triples sorted, so by pid, then by fd index.
        Exactly one connect wake is surfaced per process, for its lowest
        AWAIT_ACCEPT descriptor, so a process accepts its pending
        connections in fd order. Message and EOF wakes are per descriptor;
        EOF requires a drained channel, message readiness requires the
        descriptor to have been accepted. A message wake is named by the
        command of the message at its channel's head.
        """
        events = []
        connecting = UNOWNED  # the pid of the last connect wake listed
        for wake in sorted(self._wakes.values()):
            if wake[2] == EVENT_CONNECT:
                if wake[0] == connecting:
                    continue
                connecting = wake[0]
            events.append(wake)
        return events

    # -- diagnostics ---------------------------------------------------------

    def dump(self) -> str:
        """One line per allocated descriptor, for debugging and replay output."""
        lines = []
        for fd, (other, owner, flag, q) in enumerate(self.slots):
            if flag == FREE:
                continue
            other_s = str(other) if other != INVALID_FD else "-"
            cmds = ",".join(command_of(m) for m in q)
            lines.append(
                f"fd={fd} other={other_s} owner={owner} "
                f"flag={FLAG_NAMES[flag]} queue=[{cmds}]"
            )
        return "\n".join(lines)

    def check_invariants(self, dead_pids: frozenset[int] = frozenset()) -> None:
        """Structural checks over the whole table; raises on the first failure.

        Covers link symmetry, ownership of allocated slots, cleanliness of
        free slots, channel bounds and the rule that dead processes own
        nothing. Wake soundness needs no check here: the wake map is set from
        each slot as it is stored, so it holds by construction once they do.
        """
        self._check_fds(range(len(self.slots)), dead_pids)

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
        slots, n = self.slots, len(self.slots)
        fds = set(touched)
        for fd in touched:
            peer = slots[fd][OTHER]
            if 0 <= peer < n:
                fds.add(peer)
        self._check_fds(sorted(fds), dead_pids)

    def _check_fds(self, fds, dead_pids: frozenset[int]) -> None:
        slots, qsz, n = self.slots, self.qsz, len(self.slots)
        for fd in fds:
            peer, owner, flag, q = slot = slots[fd]
            if flag == FREE:
                if slot != FREE_SLOT:
                    raise InvariantViolation(f"free slot {fd} is not clean")
                continue
            if owner == UNOWNED:
                raise InvariantViolation(f"allocated fd {fd} has no owner")
            if owner in dead_pids:
                raise InvariantViolation(f"fd {fd} owned by dead pid {owner}")
            if len(q) > qsz:
                raise InvariantViolation(f"channel of fd {fd} over capacity")
            if peer != INVALID_FD:
                if not (0 <= peer < n) or slots[peer][FLAG] == FREE:
                    raise InvariantViolation(f"fd {fd} links to unallocated fd {peer}")
                if slots[peer][OTHER] != fd:
                    raise InvariantViolation(f"asymmetric link {fd} -> {peer}")


def wire_ring(table: SocketTable, procs: list) -> None:
    """Connect procs clockwise: each one's rhs_fd reaches the next one's left
    side, which the next one accepts flagged LHS.

    A ring of one is a process connected to its own port.
    """
    n = len(procs)
    for i, p in enumerate(procs):
        q = procs[(i + 1) % n]
        p.rhs_fd = table.connect(p.pid, q.pid, RHS)
        table.accept(q.pid, table.slots[p.rhs_fd][OTHER], LHS)
