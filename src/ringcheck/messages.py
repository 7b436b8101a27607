"""Message vocabulary and process identities for the ring protocols.

Messages are flat int tuples that name daemons by pid, so a queued message is
already in the canonical form a state encoding stores; nothing re-encodes it.
A message carries only what its handler reads.
"""

from __future__ import annotations

from typing import NamedTuple

# Ring maintenance commands.
RHS_INFO_REQUEST = "rhs_info_request"
RHS_INFO_RETURN = "rhs_info_return"
NEW_RHS = "new_rhs"
NEW_LHS = "new_lhs"
RECONNECT_RHS = "reconnect_rhs"
RHS2INFO = "rhs2info"
# Ring trace commands.
TRACE_REQ = "trace_req"
TRACE_DONE = "trace_done"
# Barrier commands.
BARRIER_IN = "barrier_in"
BARRIER_OUT = "barrier_out"

ALL_COMMANDS = (
    RHS_INFO_REQUEST,
    RHS_INFO_RETURN,
    NEW_RHS,
    NEW_LHS,
    RECONNECT_RHS,
    RHS2INFO,
    TRACE_REQ,
    TRACE_DONE,
    BARRIER_IN,
    BARRIER_OUT,
)

# Small integers for canonical encodings; the strings above stay the wire names.
CMD_INDEX = {cmd: i for i, cmd in enumerate(ALL_COMMANDS)}


class Identity(NamedTuple):
    """Contact coordinates of a daemon: an opaque host label and a port."""

    host: str
    port: int


# A message is a plain tuple (CMD_INDEX[cmd], a, b, ids), which is also its
# canonical form. The parties a and b are daemon pids, -1 when absent, and
# ids is a tuple of pids. Handlers read fields by the position names below.
# It stays a plain tuple, not a NamedTuple, because marshal rejects tuple
# subclasses. The payload slots are used per command:
#   new_rhs, new_lhs   a = the sender
#   reconnect_rhs      a = the daemon to attach to on the right
#   rhs2info           a = target daemon, b = its new second-right neighbor
#   rhs_info_return    a = the daemon being answered
#   trace_req          ids = daemons collected so far, the initiator first
#   trace_done         nothing; the initiator's record holds the collection
FIELDS = 4  # the length of every message tuple
CMD, A, B, IDS = range(FIELDS)
ABSENT = -1


def message(cmd: str, a: int = ABSENT, b: int = ABSENT, ids: tuple[int, ...] = ()) -> tuple:
    """Build the message tuple for the command named cmd."""
    return (CMD_INDEX[cmd], a, b, ids)


def command_of(m: tuple) -> str:
    """The command name a message carries."""
    return ALL_COMMANDS[m[CMD]]


class Registry:
    """Static mapping between process ids and daemon identities.

    Built once per scenario and never mutated, so it is shared by every state
    the explorer produces rather than cloned with them. States and messages
    name daemons by pid; identities appear only here and in rendered text.
    """

    def __init__(self, identities: list[Identity]):
        self._by_pid = list(identities)
        self._by_identity = {ident: pid for pid, ident in enumerate(identities)}
        if len(self._by_identity) != len(self._by_pid):
            raise ValueError("duplicate identities in registry")

    def name(self, pid: int) -> Identity | None:
        """The identity a pid stands for in rendered text; None for -1."""
        return None if pid < 0 else self._by_pid[pid]

    def key(self, identity: Identity | None) -> int:
        """The pid an identity stands for; -1 for None, the inverse of name."""
        return -1 if identity is None else self._by_identity[identity]


def canon_message(m: tuple, reg: Registry) -> tuple:
    """Canonical tuple for a message: the message itself, already canonical.

    The checker does not call it; it stays because the benchmark's tracer
    wraps it by name.
    """
    return m


def make_identities(n: int) -> list[Identity]:
    """Deterministic identities for n daemons: node<i> on port 9000+i."""
    return [Identity(f"node{i}", 9000 + i) for i in range(n)]
