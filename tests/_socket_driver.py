"""Randomized legal-operation driver for the socket table, with oracles.

The driver keeps its own mirror of what the world should look like, built
from nothing but the operations it issued: which slots belong to which
connection, who owns them, which serial numbers are queued where, and how
many messages were sent, read, or discarded. After every operation the
mirror is compared against the table through six independent checks, and
every operation must log in ``touched`` each fd whose slot it replaced:

  symmetry      linked endpoints point at each other
  exclusivity   allocation and ownership match the mirror exactly
  duality       endpoints pair into connections, no fd in two of them
  conservation  sent == read + discarded + still queued, per fd and in total
  wake soundness    every reported event is justified by the mirror
  wake completeness every event the mirror predicts is reported

Messages carry a unique serial in their hops field so FIFO order and
conservation are checkable without trusting the table's own queues.

With a clone rate, the driver sometimes continues on ``table.clone()``, as
the explorer continues on a successor's table, in one of two ways (see
``branch``): on the clone alone, or on one side of a fork whose other side,
the parent or the clone, writes and is checked first. A clone starts from a
copy of its parent's wake map, so the wake oracles then check that the copy
and the parent's map each stay their own table's.
"""

from __future__ import annotations

import random

from ringcheck.messages import HOPS, NEW_RHS, message
from ringcheck.sockets import (
    AWAIT_ACCEPT,
    EVENT_CONNECT,
    EVENT_EOF,
    FREE,
    INVALID_FD,
    QUEUE,
    SocketTable,
    UNOWNED,
)


class MirrorSlot:
    __slots__ = ("owner", "accepted", "peer", "peer_closed", "serials")

    def __init__(self, owner: int, accepted: bool, peer: int):
        self.owner = owner
        self.accepted = accepted
        self.peer = peer
        self.peer_closed = False
        self.serials: list[int] = []

    def copy(self) -> "MirrorSlot":
        s = MirrorSlot(self.owner, self.accepted, self.peer)
        s.peer_closed = self.peer_closed
        s.serials = self.serials[:]
        return s


# The ways branch continues on a clone of the table.
CLONE, FORK = "clone", "fork"


class Driver:
    def __init__(self, conn_max: int = 8, qsz: int = 4, n_pids: int = 4,
                 clone_rate: float = 0.0):
        self.table = SocketTable(conn_max, qsz)
        self.qsz = qsz
        self.n_pids = n_pids
        self.clone_rate = clone_rate
        self.branches = {CLONE: 0, FORK: 0}
        self.slots: dict[int, MirrorSlot] = {}
        self.sent = 0
        self.read_count = 0
        self.discarded = 0
        self.next_serial = 0
        self.dead: set[int] = set()

    # -- mirrored operations ------------------------------------------------

    def _logged(self, op, *args):
        """Run one table operation; every slot it replaced must be logged."""
        t = self.table
        before, mark = t.slots[:], len(t.touched)
        result = op(*args)
        logged = set(t.touched[mark:])
        changed = {fd for fd, slot in enumerate(t.slots) if slot is not before[fd]}
        assert changed <= logged, (
            f"{op.__name__}{args} wrote fds {sorted(changed - logged)} without logging them"
        )
        return result

    def free_slot_count(self) -> int:
        return self.table.conn_max - len(self.slots)

    def op_connect(self, client: int, listener: int) -> None:
        before = {fd for fd in self.slots}
        cfd = self._logged(self.table.connect, client, listener)
        new = [fd for fd in range(self.table.conn_max)
               if self.table.flag_of(fd) != FREE and fd not in before]
        assert len(new) == 2 and cfd in new, "connect must allocate exactly two slots"
        sfd = next(fd for fd in new if fd != cfd)
        assert sfd < cfd, "server half takes the lower free slot"
        self.slots[sfd] = MirrorSlot(listener, accepted=False, peer=cfd)
        self.slots[cfd] = MirrorSlot(client, accepted=True, peer=sfd)

    def op_accept(self, pid: int) -> None:
        pending = sorted(
            fd for fd, s in self.slots.items()
            if s.owner == pid and not s.accepted
        )
        fd = pending[0]  # as the connect wake names it
        self._logged(self.table.accept, pid, fd)
        self.slots[fd].accepted = True

    def op_write(self, pid: int, fd: int) -> None:
        serial = self.next_serial
        self.next_serial += 1
        self._logged(self.table.write, pid, fd, message(NEW_RHS, hops=serial))
        peer = self.slots[fd].peer
        self.slots[peer].serials.append(serial)
        self.sent += 1

    def op_read(self, pid: int, fd: int) -> None:
        msg = self._logged(self.table.read, pid, fd)
        expect = self.slots[fd].serials.pop(0)
        assert msg[HOPS] == expect, (
            f"fd {fd} delivered serial {msg[HOPS]}, FIFO order demands {expect}"
        )
        self.read_count += 1

    def _mirror_close(self, fd: int) -> None:
        slot = self.slots.pop(fd)
        self.discarded += len(slot.serials)
        # A reused index must not be mistaken for the original peer.
        if not slot.peer_closed and slot.peer in self.slots:
            self.slots[slot.peer].peer_closed = True

    def op_close(self, pid: int, fd: int) -> None:
        self._logged(self.table.close, pid, fd)
        self._mirror_close(fd)

    def op_inject_failure(self, pid: int) -> None:
        self._logged(self.table.inject_failure, pid)
        for fd in [f for f, s in self.slots.items() if s.owner == pid]:
            self._mirror_close(fd)
        self.dead.add(pid)

    # -- oracles --------------------------------------------------------------

    def check_all(self) -> None:
        t = self.table
        # exclusivity: the allocation and ownership map is exactly the mirror's
        for fd in range(t.conn_max):
            if fd in self.slots:
                assert t.flag_of(fd) != FREE, f"fd {fd} should be allocated"
                assert t.owner_of(fd) == self.slots[fd].owner, f"fd {fd} owner drifted"
            else:
                assert t.flag_of(fd) == FREE, f"fd {fd} should be free"
                assert t.owner_of(fd) == UNOWNED, f"free fd {fd} still owned"
                assert t.peek(fd)[QUEUE] == (), f"free fd {fd} still holds messages"
        # symmetry and duality; peer slot indexes may be reused after a close,
        # so the peer_closed flag, not membership, decides liveness
        for fd, slot in self.slots.items():
            if slot.peer_closed:
                assert t.other_of(fd) == INVALID_FD, f"fd {fd} should be half closed"
            else:
                assert slot.peer in self.slots, f"fd {fd} peer vanished without a close"
                assert t.other_of(fd) == slot.peer, f"fd {fd} lost its cross-link"
                assert t.other_of(slot.peer) == fd, f"link {fd}<->{slot.peer} asymmetric"
                assert self.slots[slot.peer].peer == fd, "mirror linkage broken"
        linked = [fd for fd in self.slots if t.other_of(fd) != INVALID_FD]
        assert len({t.other_of(fd) for fd in linked}) == len(linked), \
            "duality: some fd is the peer of two endpoints"
        # conservation, per fd and in total
        queued = 0
        for fd, slot in self.slots.items():
            got = tuple(m[HOPS] for m in t.peek(fd)[QUEUE])
            assert got == tuple(slot.serials), (
                f"fd {fd} queue {got} != ledger {tuple(slot.serials)}"
            )
            queued += len(got)
        assert self.sent == self.read_count + self.discarded + queued, (
            f"conservation broke: sent={self.sent} read={self.read_count} "
            f"discarded={self.discarded} queued={queued}"
        )
        # wake soundness and completeness, per process, from one table pass
        ready = t.ready_events()
        pids = {pid for pid, _, _ in ready}
        assert pids <= set(range(self.n_pids)), f"wakes for unknown pids: {sorted(pids)}"
        assert ready == sorted(ready), f"wakes not in pid-then-fd order: {ready}"
        for pid in range(self.n_pids):
            self._check_wakes(pid, [(fd, name) for owner, fd, name in ready if owner == pid])
        # derived readiness: polling again must be a no-op
        assert t.ready_events() == ready, "ready_events is not idempotent"
        # the table's own structural check must agree
        t.check_invariants(dead_pids=frozenset(self.dead))

    def _check_wakes(self, pid: int, events: list) -> None:
        expected = set()
        pending = sorted(
            fd for fd, s in self.slots.items() if s.owner == pid and not s.accepted
        )
        if pending:
            expected.add((pending[0], EVENT_CONNECT))
        for fd, slot in self.slots.items():
            if slot.owner != pid or not slot.accepted:
                continue
            if slot.serials:
                expected.add((fd, NEW_RHS))  # every driver message is a new_rhs
            elif slot.peer_closed:
                expected.add((fd, EVENT_EOF))
        got = set(events)
        missing = expected - got
        bogus = got - expected
        assert not missing, f"pid {pid} lost wakes: {sorted(missing)}"
        assert not bogus, f"pid {pid} woken without cause: {sorted(bogus)}"
        fds = [fd for fd, _ in events]
        assert fds == sorted(set(fds)), f"pid {pid} events not in strict fd order: {events}"

    # -- random stepping ------------------------------------------------------

    def legal_ops(self) -> list[tuple]:
        ops: list[tuple] = []
        if self.free_slot_count() >= 2:
            for client in range(self.n_pids):
                if client in self.dead:
                    continue
                for listener in range(self.n_pids):
                    if listener not in self.dead:
                        ops.append(("connect", client, listener))
        for fd, slot in self.slots.items():
            if slot.owner in self.dead:
                continue
            if not slot.accepted:
                ops.append(("accept", slot.owner))
            else:
                ops.append(("close", slot.owner, fd))
                if slot.serials:
                    ops.append(("read", slot.owner, fd))
                if not slot.peer_closed and len(self.slots[slot.peer].serials) < self.qsz:
                    ops.append(("write", slot.owner, fd))
        return ops

    def step(self, rng: random.Random) -> bool:
        """One random legal op, then every oracle; False if no op is legal.

        With probability clone_rate the op runs on a clone (see branch).
        """
        if self.clone_rate and rng.random() < self.clone_rate:
            return self.branch(rng)
        if not self._run_op(rng):
            return False
        self.check_all()
        return True

    def branch(self, rng: random.Random) -> bool:
        """Continue on a clone of the table, in one of two ways.

        CLONE clones the table and runs one op on the clone. FORK clones the
        table and runs one op on the parent or on the clone, then goes back
        to the other side and its copy of the mirror, unwritten since the
        fork; the parent may then write again after it was cloned. Every
        listing is checked against the mirror.
        """
        how = rng.choice((CLONE, FORK))
        self.branches[how] += 1
        if how == FORK:
            parent, clone = self.table, self.table.clone()
            mirror = self._mirror()
            first, then = (parent, clone) if rng.random() < 0.5 else (clone, parent)
            self.table = first
            ran = self._run_op(rng)
            if ran:
                self.check_all()
            self.table = then
            self._restore(mirror)
        else:
            self.table = self.table.clone()
            ran = self._run_op(rng)
        self.check_all()
        return ran

    def _mirror(self) -> tuple:
        """A copy of the mirror, to resume with _restore."""
        return ({fd: s.copy() for fd, s in self.slots.items()}, self.sent,
                self.read_count, self.discarded, self.next_serial, set(self.dead))

    def _restore(self, mirror: tuple) -> None:
        (self.slots, self.sent, self.read_count, self.discarded,
         self.next_serial, self.dead) = mirror

    def _run_op(self, rng: random.Random) -> bool:
        """Run one random legal op with no oracle; False if none is legal."""
        ops = self.legal_ops()
        if not ops:
            return False
        op = ops[rng.randrange(len(ops))]
        name = op[0]
        if name == "connect":
            self.op_connect(op[1], op[2])
        elif name == "accept":
            # several slots may be pending; the op always takes the lowest
            self.op_accept(op[1])
        elif name == "write":
            self.op_write(op[1], op[2])
        elif name == "read":
            self.op_read(op[1], op[2])
        elif name == "close":
            self.op_close(op[1], op[2])
        return True


def run_random_sequence(seed: int, n_ops: int = 16, *, with_failure: bool = False,
                        clone_rate: float = 0.0) -> Driver:
    """One seeded legal sequence with every oracle checked after every op.

    Returns the driver, whose branches count the clones it continued on.
    """
    rng = random.Random(seed)
    drv = Driver(clone_rate=clone_rate)
    drv.check_all()
    for i in range(n_ops):
        if with_failure and i == n_ops // 2:
            victim = rng.randrange(drv.n_pids)
            drv.op_inject_failure(victim)
            drv.check_all()
            continue
        if not drv.step(rng):
            break
    return drv
