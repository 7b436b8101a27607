"""Registry, message layout and message canonicalisation."""

import marshal

import pytest

from ringcheck.messages import (
    ALL_COMMANDS,
    CMD,
    CMD_INDEX,
    FIELDS,
    IDS,
    NEW_RHS,
    RHS2INFO,
    TRACE_REQ,
    A,
    B,
    Identity,
    Registry,
    canon_message,
    command_of,
    make_identities,
    message,
)


def test_make_identities_are_deterministic_and_distinct():
    ids = make_identities(4)
    assert ids == make_identities(4)
    assert len(set(ids)) == 4
    assert ids[2] == Identity("node2", 9002)


def test_identity_is_an_immutable_record_that_renders_its_fields():
    # Violation texts print identities this way (test_daemons pins one).
    ident = Identity("node0", 9000)
    assert str(ident) == repr(ident) == "Identity(host='node0', port=9000)"
    assert (ident.host, ident.port) == ("node0", 9000)
    with pytest.raises(AttributeError):
        ident.port = 9001


def test_registry_roundtrip():
    ids = make_identities(3)
    reg = Registry(ids)
    for pid, ident in enumerate(ids):
        assert reg.name(pid) is ident
        assert reg.key(ident) == pid
    with pytest.raises(IndexError):
        reg.name(3)
    assert reg.key(None) == -1


def test_registry_key_accepts_equal_but_distinct_objects():
    # A payload identity rebuilt from a trace is equal but not the registry's
    # own object; key() must still resolve it.
    reg = Registry(make_identities(3))
    twin = Identity("node1", 9001)
    assert reg.name(1) is not twin
    assert reg.key(twin) == 1


def test_registry_key_ignores_misleading_ports():
    # Port arithmetic alone must never be trusted: an identity whose port
    # collides with the node numbering scheme still resolves by equality.
    impostor = Identity("elsewhere", 9001)
    reg = Registry([Identity("node0", 9000), impostor])
    assert reg.key(impostor) == 1
    with pytest.raises(KeyError):
        reg.key(Identity("node1", 9001))


def test_registry_rejects_duplicates():
    dup = Identity("node0", 9000)
    with pytest.raises(ValueError):
        Registry([dup, dup])


def test_registry_names_pids_for_rendering():
    ids = make_identities(3)
    reg = Registry(ids)
    assert reg.name(2) is ids[2]
    assert reg.name(-1) is None


def test_message_is_a_flat_tuple_of_ints():
    m = message(TRACE_REQ, ids=(1, 2))
    assert type(m) is tuple and len(m) == FIELDS
    assert m == (CMD_INDEX[TRACE_REQ], -1, -1, (1, 2))
    assert (CMD, A, B, IDS) == tuple(range(FIELDS))
    assert (m[CMD], m[A], m[B], m[IDS]) == m
    assert command_of(m) == TRACE_REQ == ALL_COMMANDS[m[CMD]]
    assert marshal.loads(marshal.dumps(m)) == m


def test_canon_message_separates_distinct_messages():
    reg = Registry(make_identities(3))
    m1 = message(RHS2INFO, a=0, b=1)
    m2 = message(RHS2INFO, a=0, b=2)
    m3 = message(RHS2INFO, a=1, b=1)
    t1, t2, t3 = (canon_message(m, reg) for m in (m1, m2, m3))
    assert len({t1, t2, t3}) == 3


def test_canon_message_equal_for_equal_messages():
    reg = Registry(make_identities(2))
    build = lambda: message(TRACE_REQ, ids=(0, 1))
    assert canon_message(build(), reg) == canon_message(build(), reg)


def test_messages_are_immutable():
    m = message(NEW_RHS)
    with pytest.raises(TypeError):
        m[CMD] = 0
