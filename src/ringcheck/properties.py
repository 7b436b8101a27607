"""Correctness properties evaluated over global states.

Structural properties never trust a daemon's own bookkeeping: the ring walk
follows descriptor links (rhs_fd, the table's cross-link, the peer's owner)
and only then compares what it found against the neighbor pids the daemons
recorded; violation texts render those pids as identities. A daemon can
therefore not satisfy a property by merely believing the right thing.

Quiescence-only properties describe finished episodes: a settled ring, a
completed trace, a released barrier. Every-state properties are inductive
invariants that no reachable state may break.
"""

from __future__ import annotations

from .barrier import BARRIER_END, BARRIER_INVARIANT, all_bits
from .daemons import DEAD, IN_RING, NEIGHBOR_STATE, PHASE_NAMES, RING_TOPOLOGY, TRACE_COMPLETION
from .errors import PropertyViolation
from .sockets import INVALID_FD, LHS, RHS, SOCKET_INVARIANTS


def ring_order(g) -> list:
    """Live daemons in clockwise order, derived purely from descriptors.

    Starts at the lowest-pid live daemon, follows each rhs_fd through the
    table's cross-link to the owner of the peer endpoint, and demands that
    the peer endpoint is exactly that owner's lhs_fd. Raises
    PropertyViolation unless the walk closes into a single ring covering
    every live daemon.
    """
    dead = g.dead_pids()
    live = [p for p in g.procs if p.pid not in dead]
    if not live:
        raise PropertyViolation("no live daemon remains")
    for p in live:
        if p.phase != IN_RING:
            raise PropertyViolation(
                f"d{p.pid} is live but stuck in phase "
                f"{PHASE_NAMES[p.phase]}"
            )
        if p.await_cmd is not None:
            raise PropertyViolation(f"d{p.pid} still awaits {p.await_cmd}")
        if p.pending_requesters:
            raise PropertyViolation(
                f"d{p.pid} still owes {len(p.pending_requesters)} coordinate replies"
            )
    sock = g.sockets
    order = []
    seen = set()
    cur = live[0]
    for _ in range(len(live)):
        order.append(cur)
        seen.add(cur.pid)
        fd = cur.rhs_fd
        if fd == INVALID_FD or not sock.is_allocated(fd):
            raise PropertyViolation(f"d{cur.pid} has no right-hand connection")
        if sock.owner_of(fd) != cur.pid:
            raise PropertyViolation(f"d{cur.pid} rhs_fd {fd} not owned by it")
        if sock.flag_of(fd) != RHS:
            raise PropertyViolation(f"d{cur.pid} rhs_fd {fd} lacks the RHS flag")
        peer = sock.other_of(fd)
        if peer == INVALID_FD:
            raise PropertyViolation(f"d{cur.pid} right-hand connection is half open")
        if not sock.is_allocated(peer) or sock.owner_of(peer) < 0:
            raise PropertyViolation(f"d{cur.pid} right-hand peer fd {peer} is dangling")
        nxt = g.procs[sock.owner_of(peer)]
        if nxt.lhs_fd != peer:
            raise PropertyViolation(
                f"ring edge from d{cur.pid} enters d{nxt.pid} on fd {peer}, "
                f"which is not its left side"
            )
        if sock.flag_of(peer) != LHS:
            raise PropertyViolation(f"d{nxt.pid} fd {peer} lacks the LHS flag")
        if nxt.pid in seen:
            if nxt.pid != order[0].pid or len(order) != len(live):
                raise PropertyViolation(
                    f"ring closes after {len(order)} of {len(live)} live daemons"
                )
            return order
        cur = nxt
    raise PropertyViolation(f"walk of {len(live)} edges did not close the ring")


def check_ring_topology(g) -> None:
    ring_order(g)
    # A settled ring has nothing in flight on live connections.
    sock = g.sockets
    dead = g.dead_pids()
    for fd in range(sock.conn_max):
        if sock.is_allocated(fd) and sock.owner_of(fd) not in dead:
            q = sock.queue_of(fd)
            if q:
                raise PropertyViolation(
                    f"fd {fd} holds {len(q)} undelivered messages in a settled state"
                )


def check_neighbor_state(g) -> None:
    """Recorded identities must match actual one- and two-hop ring walks."""
    order = ring_order(g)
    name = g.scenario.registry.name
    n = len(order)
    for i, d in enumerate(order):
        r1 = order[(i + 1) % n]
        r2 = order[(i + 2) % n]
        l1 = order[(i - 1) % n]
        if d.rhs_id != r1.pid:
            raise PropertyViolation(
                f"d{d.pid} records rhs {name(d.rhs_id)} but its right neighbor is d{r1.pid}"
            )
        if d.rhs2_id != r2.pid:
            raise PropertyViolation(
                f"d{d.pid} records rhs2 {name(d.rhs2_id)} but two hops right sits d{r2.pid}"
            )
        if d.lhs_id != l1.pid:
            raise PropertyViolation(
                f"d{d.pid} records lhs {name(d.lhs_id)} but its left neighbor is d{l1.pid}"
            )


def check_trace_completion(g) -> None:
    """A finished episode carries every live daemon exactly once, in ring order."""
    t = g.episode
    if not t.started:
        raise PropertyViolation("trace episode never started")
    if not t.done:
        raise PropertyViolation("trace episode started but never completed")
    order = ring_order(g)
    initiator = g.procs[t.initiator]
    if initiator.phase == DEAD:
        raise PropertyViolation("trace initiator is dead")
    i = next(k for k, d in enumerate(order) if d.pid == t.initiator)
    expected = tuple(d.pid for d in order[i:] + order[:i])
    if t.collected != expected:
        name = g.scenario.registry.name
        got = ",".join(str(name(x)) for x in t.collected)
        want = ",".join(str(name(x)) for x in expected)
        raise PropertyViolation(f"trace collected [{got}] but the ring is [{want}]")


def check_barrier_end(g) -> None:
    bits, full = g.episode, all_bits(g)
    if bits.client_barrier_out != full:
        raise PropertyViolation(
            f"episode ended with release bits {bits.client_barrier_out:0{len(g.procs)}b}"
        )
    if bits.client_barrier_in != full:
        raise PropertyViolation("release complete but some client never arrived")
    for m in g.procs:
        if m.holding_barrier_in:
            raise PropertyViolation(f"m{m.pid} still parks the barrier_in token")
        if not m.sent_barrier_in or not m.sent_barrier_out:
            raise PropertyViolation(f"m{m.pid} never passed both tokens on")


def check_barrier_invariant(g) -> None:
    """No client is released until every client has arrived."""
    bits = g.episode
    if bits.client_barrier_out == 0:
        return
    if bits.client_barrier_in != all_bits(g):
        raise PropertyViolation(
            f"release began with arrivals {bits.client_barrier_in:0{len(g.procs)}b}"
        )
    if any(m.holding_barrier_in for m in g.procs):
        raise PropertyViolation("release began while barrier_in is still parked")


def check_socket_invariants(g) -> None:
    """The socket table's structural invariant, read where the last step wrote.

    The invariant is inductive, so on a state apply made from a checked
    predecessor, with no process killed on the way, only the fds the step
    touched and their peers can break it. Any other state is checked whole.
    """
    dead = g.derived_dead
    if dead is None:
        g.sockets.check_invariants(dead_pids=g.dead_pids())
    else:
        g.sockets.check_touched(dead_pids=dead)


# The check of each property kind; the protocol modules list which kinds a
# scenario checks, and when.
_CHECKS = {
    RING_TOPOLOGY: check_ring_topology,
    NEIGHBOR_STATE: check_neighbor_state,
    TRACE_COMPLETION: check_trace_completion,
    BARRIER_END: check_barrier_end,
    BARRIER_INVARIANT: check_barrier_invariant,
    SOCKET_INVARIANTS: check_socket_invariants,
}
