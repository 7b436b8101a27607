"""Unit tests for the descriptor table: one scenario per operation contract."""

import ast
from pathlib import Path

import pytest

from ringcheck import sockets as sockets_mod
from ringcheck.errors import (
    BrokenConnectionError,
    ContractViolation,
    InvariantViolation,
    ModelSizingError,
)
from ringcheck.messages import A, NEW_LHS, NEW_RHS, command_of, message
from ringcheck.sockets import (
    AWAIT_ACCEPT,
    EVENT_CONNECT,
    EVENT_EOF,
    FREE,
    INVALID_FD,
    LHS,
    NEW,
    OTHER,
    OWNER,
    QUEUE,
    RHS,
    UNOWNED,
    SocketTable,
)

from conftest import wakes_of


def make_table(conn_max=8, qsz=4):
    return SocketTable(conn_max, qsz)


def poke(t, fd, pos, value):
    """Overwrite one field of fd's slot behind the table's back, unlogged."""
    slot = list(t.slots[fd])
    slot[pos] = value
    t.slots[fd] = tuple(slot)


class TestConnectAccept:
    def test_connect_allocates_server_below_client(self):
        t = make_table()
        cfd = t.connect(1, 2)
        sfd = t.other_of(cfd)
        assert sfd < cfd
        assert t.flag_of(sfd) == AWAIT_ACCEPT
        assert t.flag_of(cfd) == NEW
        assert t.owner_of(sfd) == 2
        assert t.owner_of(cfd) == 1
        assert t.other_of(sfd) == cfd

    def test_client_may_write_before_accept(self):
        t = make_table()
        cfd = t.connect(1, 2)
        sfd = t.other_of(cfd)
        t.write(1, cfd, message(NEW_RHS))
        assert [command_of(m) for m in t.peek(sfd)[QUEUE]] == [NEW_RHS]
        t.accept(2, sfd)
        assert command_of(t.read(2, sfd)) == NEW_RHS

    def test_accept_claims_the_named_fd_alone(self):
        t = make_table()
        c1 = t.connect(1, 3)
        c2 = t.connect(2, 3)
        s1, s2 = t.other_of(c1), t.other_of(c2)
        u = t.clone()
        u.accept(3, s2, LHS)
        assert (u.flag_of(s1), u.flag_of(s2)) == (AWAIT_ACCEPT, LHS)
        assert u.touched == [s2]

    def test_accept_without_connect_raises(self):
        t = make_table()
        with pytest.raises(ContractViolation):
            t.accept(0, 0)

    def test_accept_of_an_fd_that_is_not_pending_or_not_owned_raises(self):
        t = make_table()
        cfd = t.connect(1, 2)
        sfd = t.other_of(cfd)
        for pid, fd in ((1, cfd), (1, sfd), (2, cfd), (2, -1), (2, t.conn_max)):
            with pytest.raises(ContractViolation):
                t.accept(pid, fd)
        t.accept(2, sfd)
        with pytest.raises(ContractViolation):
            t.accept(2, sfd)  # accepted already
        assert t.flag_of(sfd) == NEW

    def test_server_cannot_use_fd_before_accept(self):
        t = make_table()
        cfd = t.connect(1, 2)
        sfd = t.other_of(cfd)
        with pytest.raises(ContractViolation):
            t.write(2, sfd, message(NEW_RHS))
        with pytest.raises(ContractViolation):
            t.read(2, sfd)

    def test_connect_exhaustion_is_a_sizing_error(self):
        t = make_table(conn_max=3)
        t.connect(0, 1)
        with pytest.raises(ModelSizingError):
            t.connect(0, 1)

    def test_freed_slots_are_reused_lowest_first(self):
        t = make_table(conn_max=4)
        c1 = t.connect(0, 1)
        s1 = t.other_of(c1)
        t.accept(1, s1)
        t.close(1, s1)
        c2 = t.connect(2, 3)
        assert t.other_of(c2) == s1  # the freed low slot is taken first


class TestReadWrite:
    def setup_method(self):
        self.t = make_table()
        self.cfd = self.t.connect(1, 2)
        self.sfd = self.t.other_of(self.cfd)
        self.t.accept(2, self.sfd)

    def test_fifo_order(self):
        self.t.write(1, self.cfd, message(NEW_RHS, a=1))
        self.t.write(1, self.cfd, message(NEW_LHS, a=2))
        assert self.t.read(2, self.sfd)[A] == 1
        assert self.t.read(2, self.sfd)[A] == 2

    def test_read_empty_raises(self):
        with pytest.raises(ContractViolation):
            self.t.read(2, self.sfd)

    def test_read_wrong_owner_raises(self):
        self.t.write(1, self.cfd, message(NEW_RHS))
        with pytest.raises(ContractViolation):
            self.t.read(1, self.sfd)

    def test_write_full_channel_is_a_sizing_error(self):
        for i in range(self.t.qsz):
            self.t.write(1, self.cfd, message(NEW_RHS, a=i))
        with pytest.raises(ModelSizingError):
            self.t.write(1, self.cfd, message(NEW_RHS))

    def test_write_after_peer_close_raises_broken_connection(self):
        self.t.close(2, self.sfd)
        with pytest.raises(BrokenConnectionError):
            self.t.write(1, self.cfd, message(NEW_RHS))

    def test_write_on_unallocated_fd_raises(self):
        with pytest.raises(ContractViolation):
            self.t.write(1, INVALID_FD, message(NEW_RHS))


class TestClose:
    def test_close_discards_own_inbound_and_half_closes_peer(self):
        t = make_table()
        cfd = t.connect(1, 2)
        sfd = t.other_of(cfd)
        t.accept(2, sfd)
        t.write(2, sfd, message(NEW_RHS))   # toward the client
        t.write(1, cfd, message(NEW_LHS))   # toward the server
        t.close(1, cfd)
        assert t.flag_of(cfd) == FREE
        assert t.peek(cfd)[QUEUE] == ()  # inbound to the closer: gone
        assert t.other_of(sfd) == INVALID_FD
        assert [command_of(m) for m in t.peek(sfd)[QUEUE]] == [NEW_LHS]  # survivor keeps its queue

    def test_eof_only_after_queue_drains(self):
        t = make_table()
        cfd = t.connect(1, 2)
        sfd = t.other_of(cfd)
        t.accept(2, sfd)
        t.write(1, cfd, message(NEW_RHS))
        t.close(1, cfd)
        assert wakes_of(t, 2) == [(sfd, NEW_RHS)]
        t.read(2, sfd)
        assert wakes_of(t, 2) == [(sfd, EVENT_EOF)]

    def test_close_wrong_owner_raises(self):
        t = make_table()
        cfd = t.connect(1, 2)
        with pytest.raises(ContractViolation):
            t.close(2, cfd)

    def test_inject_failure_closes_everything_owned_once(self):
        t = make_table()
        c1 = t.connect(1, 2)
        c2 = t.connect(1, 3)
        t.accept(2, t.other_of(c1))
        closed = t.inject_failure(1)
        assert sorted(closed) == sorted([c1, c2])
        assert [fd for fd in range(t.conn_max) if t.owner_of(fd) == 1] == []
        assert t.inject_failure(1) == []  # nothing left the second time

    def test_closing_an_awaiting_slot_refuses_the_connection(self):
        t = make_table()
        cfd = t.connect(1, 2)
        sfd = t.other_of(cfd)
        t.close(2, sfd)
        assert t.flag_of(sfd) == FREE
        assert t.other_of(cfd) == INVALID_FD
        assert wakes_of(t, 1) == [(cfd, EVENT_EOF)]


class TestReadiness:
    def test_one_connect_event_at_lowest_pending_fd(self):
        t = make_table()
        c1 = t.connect(1, 3)
        c2 = t.connect(2, 3)
        s1, s2 = t.other_of(c1), t.other_of(c2)
        assert wakes_of(t, 3) == [(s1, EVENT_CONNECT)]
        t.accept(3, s1)
        assert wakes_of(t, 3) == [(s2, EVENT_CONNECT)]

    def test_message_not_ready_before_accept(self):
        t = make_table()
        cfd = t.connect(1, 2)
        sfd = t.other_of(cfd)
        t.write(1, cfd, message(NEW_RHS))
        assert wakes_of(t, 2) == [(sfd, EVENT_CONNECT)]
        t.accept(2, sfd)
        assert wakes_of(t, 2) == [(sfd, NEW_RHS)]

    def test_select_is_derived_and_idempotent(self):
        t = make_table()
        cfd = t.connect(1, 2)
        t.accept(2, t.other_of(cfd))
        t.write(2, t.other_of(cfd), message(NEW_RHS))
        first = t.ready_events()
        assert t.ready_events() == first == [(1, cfd, NEW_RHS)]
        t.read(1, cfd)
        assert t.ready_events() == []

    def test_events_ordered_by_fd(self):
        t = make_table()
        c1 = t.connect(1, 2)
        c2 = t.connect(1, 2)
        t.accept(2, t.other_of(c1))
        t.accept(2, t.other_of(c2))
        t.write(2, t.other_of(c1), message(NEW_RHS))
        t.write(2, t.other_of(c2), message(NEW_RHS))
        evs = wakes_of(t, 1)
        assert evs == sorted(evs)
        assert [name for _, name in evs] == [NEW_RHS, NEW_RHS]


class TestCloneAndCanon:
    def test_clone_is_independent(self):
        t = make_table()
        cfd = t.connect(1, 2)
        sfd = t.other_of(cfd)
        t.accept(2, sfd)
        u = t.clone()
        t.write(1, cfd, message(NEW_RHS))
        assert u.peek(sfd)[QUEUE] == ()
        assert t.peek(sfd)[QUEUE] != ()
        # Each side lists its own wakes, whichever of them wrote.
        assert t.ready_events() == [(2, sfd, NEW_RHS)]
        assert u.ready_events() == []
        u.close(2, sfd)
        assert u.ready_events() == [(1, cfd, EVENT_EOF)]
        assert t.ready_events() == [(2, sfd, NEW_RHS)]

    def test_canon_equal_for_equal_tables(self):
        def build():
            t = make_table()
            c = t.connect(1, 2)
            t.accept(2, t.other_of(c))
            t.write(1, c, message(NEW_RHS, a=3))
            return t

        assert build().canon() == build().canon()

    def test_dump_names_every_allocated_fd(self):
        t = make_table()
        cfd = t.connect(1, 2)
        t.accept(2, t.other_of(cfd))
        t.write(1, cfd, message(NEW_RHS))
        text = t.dump()
        sfd = t.other_of(cfd)
        assert f"fd={cfd}" in text
        assert f"fd={sfd}" in text
        assert "queue=[new_rhs]" in text


def _dirty_free_slot(t):
    poke(t, 5, OWNER, 3)


def _unowned_fd(t):
    t.connect(1, 2)
    poke(t, 1, OWNER, UNOWNED)


def _overfull_channel(t):
    t.accept(2, t.other_of(t.connect(1, 2)))
    poke(t, 0, QUEUE, (message(NEW_RHS),) * (t.qsz + 1))


def _link_to_free_slot(t):
    t.connect(1, 2)
    poke(t, 0, OTHER, 6)


def _link_out_of_range(t):
    t.connect(1, 2)
    poke(t, 0, OTHER, t.conn_max)


def _asymmetric_link(t):
    t.connect(1, 2)
    t.connect(3, 4)
    poke(t, 1, OTHER, 2)


# Each corruption of a fresh table and the exact report it must produce.
CORRUPTIONS = [
    (_dirty_free_slot, frozenset(), "free slot 5 is not clean"),
    (_unowned_fd, frozenset(), "allocated fd 1 has no owner"),
    (lambda t: t.connect(1, 2), frozenset([2]), "fd 0 owned by dead pid 2"),
    (_overfull_channel, frozenset(), "channel of fd 0 over capacity"),
    (_link_to_free_slot, frozenset(), "fd 0 links to unallocated fd 6"),
    (_link_out_of_range, frozenset(), "fd 0 links to unallocated fd 8"),
    (_asymmetric_link, frozenset(), "asymmetric link 0 -> 1"),
]


class TestInvariantChecker:
    @pytest.mark.parametrize("corrupt,dead,text", CORRUPTIONS,
                             ids=[c[2] for c in CORRUPTIONS])
    def test_each_violation_is_reported_by_name(self, corrupt, dead, text):
        t = make_table()
        corrupt(t)
        with pytest.raises(InvariantViolation) as e:
            t.check_invariants(dead_pids=dead)
        assert str(e.value) == text

    def test_first_failure_wins_by_fd_then_check(self):
        t = make_table()
        _dirty_free_slot(t)
        _asymmetric_link(t)
        with pytest.raises(InvariantViolation, match="asymmetric link 0 -> 1"):
            t.check_invariants()
        # One fd failing two checks reports the earlier one.
        u = make_table()
        _overfull_channel(u)
        with pytest.raises(InvariantViolation, match="fd 0 owned by dead pid 2"):
            u.check_invariants(dead_pids=frozenset([2]))

    def test_fresh_and_active_tables_pass(self):
        t = make_table()
        t.check_invariants()
        cfd = t.connect(1, 2)
        t.accept(2, t.other_of(cfd))
        t.write(1, cfd, message(NEW_RHS))
        t.check_invariants()

    def test_detects_asymmetric_links(self):
        t = make_table()
        cfd = t.connect(1, 2)
        poke(t, cfd, OTHER, cfd)  # corrupt on purpose
        with pytest.raises(InvariantViolation):
            t.check_invariants()

    def test_detects_dead_owner(self):
        t = make_table()
        t.connect(1, 2)
        with pytest.raises(InvariantViolation):
            t.check_invariants(dead_pids=frozenset([1]))

    def test_detects_dirty_free_slot(self):
        t = make_table()
        poke(t, 5, OWNER, 3)
        with pytest.raises(InvariantViolation):
            t.check_invariants()


def test_put_is_the_only_slot_write():
    # A slot write must set the fd's wake and log the fd in touched, which
    # _put does; no other code in the module may store into slots.
    tree = ast.parse(Path(sockets_mod.__file__).read_text())

    def is_slots(node):
        return (isinstance(node, ast.Attribute) and node.attr == "slots"
                or isinstance(node, ast.Name) and node.id == "slots")

    writers = []
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef):
            continue
        for node in ast.walk(func):
            if isinstance(node, (ast.Assign, ast.Delete)):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                targets = []
            if any(isinstance(sub, ast.Subscript) and is_slots(sub.value)
                   for target in targets for sub in ast.walk(target)):
                writers.append(func.name)
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and is_slots(node.func.value)):
                writers.append(func.name)  # a list method, such as slots.append
    assert writers == ["_put"]
