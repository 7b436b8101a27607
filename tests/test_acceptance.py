"""Acceptance gate: ten numbered criteria, one test per criterion.

Each test ends by printing one `criterion NN: PASS` line (visible under
pytest -s or -rA; under plain -v the test node itself is the pass/fail
line). Stored-state counts asserted here are frozen regression baselines
from the first verified build; a legitimate model change that moves them
must re-derive every affected number, not just the one that broke.

The heavyweight sweeps are module-scoped fixtures so one exploration serves
every criterion that reads it. The four-daemon establishment run dominates
the suite's runtime at roughly five minutes.
"""

import pytest

from _socket_driver import Driver, run_random_sequence

from ringcheck.errors import (
    BrokenConnectionError,
    ContractViolation,
    PropertyViolation,
)
from ringcheck.explorer import (
    ACT_BEGIN_INSERTION,
    EVENT_CONNECT,
    KIND_EVENT,
    QUIESCENCE_ONLY,
    VERIFIED,
    VIOLATION,
    Property,
    apply,
    enabled_steps,
    encode,
    explore,
    replay,
    simulate,
)
from ringcheck.messages import A, RHS_INFO_REQUEST, RHS_INFO_RETURN, message
from ringcheck.properties import check_ring_topology, ring_order
from ringcheck.scenarios import ScenarioConfig, build_scenario
from ringcheck.sockets import SocketTable
from ringcheck.traceio import read_trace

from conftest import bfs_quiescent_encodings

# ---------------------------------------------------------------------------
# frozen regression baselines (stored-state counts per model size)
# ---------------------------------------------------------------------------

RING_PAR_STORED = {1: 1, 2: 15, 3: 3_155, 4: 3_396_889}
TRACE_STORED = {1: 4, 2: 6, 3: 8, 4: 10}
RECOVERY_STORED = {2: 39, 3: 95, 4: 130, 5: 169, 6: 212, 7: 259, 8: 310}
BARRIER_STORED = {1: 4, 2: 9, 3: 18, 4: 35, 5: 68, 6: 133, 7: 262, 8: 519,
                  9: 1_032, 10: 2_057, 11: 4_106, 12: 8_203}

# Measured by exhaustive enumeration: three daemons inserting concurrently
# into a ring of one reach every cyclic arrangement of the four daemons.
# The measured count (which here equals 3!) is the regression value.
FINAL_RING_ORDER_COUNT = 6

TEN_MINUTES = 600.0


def record(num: int, detail: str) -> None:
    print(f"criterion {num:02d}: PASS - {detail}")


# ---------------------------------------------------------------------------
# shared sweeps
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def ring_par_sweep():
    """Explore parallel establishment for one to four daemons total.

    Also collects, per run, the set of final ring orders (live pids clockwise,
    rotated to start at pid 0) so the configuration-count probe reuses the
    four-daemon exploration instead of repeating it.
    """
    reports, orders = {}, {}
    for total in (1, 2, 3, 4):
        sc = build_scenario(ScenarioConfig("ring-par", size=1, inserters=total - 1))
        seen = set()

        def collect(g, seen=seen):
            pids = tuple(d.pid for d in ring_order(g))
            i = pids.index(0)
            seen.add(pids[i:] + pids[:i])

        hook = Property("collect", QUIESCENCE_ONLY, collect)
        reports[total] = explore(sc, sc.default_properties() + (hook,))
        orders[total] = seen
    return reports, orders


@pytest.fixture(scope="module")
def trace_sweep():
    out = {}
    for n in range(1, 5):
        sc = build_scenario(ScenarioConfig("trace", size=n))
        out[n] = explore(sc, sc.default_properties())
    return out


@pytest.fixture(scope="module")
def recovery_sweep():
    out = {}
    for n in range(2, 9):
        sc = build_scenario(ScenarioConfig("recovery", size=n))
        out[n] = explore(sc, sc.default_properties())
    return out


@pytest.fixture(scope="module")
def barrier_sweep():
    out = {}
    for n in range(1, 13):
        sc = build_scenario(ScenarioConfig("barrier", size=n))
        out[n] = explore(sc, sc.default_properties())
    return out


# ---------------------------------------------------------------------------
# criterion 1: the sequential insertion race is found and replayable
# ---------------------------------------------------------------------------


def _drive(g, schedule, **want):
    for s in enabled_steps(g):
        if all(getattr(s, k) == v for k, v in want.items()):
            schedule.append(s)
            return apply(g, s)
    raise AssertionError(f"no enabled step matching {want}")


def _race_schedule(sc):
    """A schedule that interleaves both coordinate queries at the entry daemon.

    Every step is taken from enabled_steps, so the schedule is a legal trace
    of the model; it simply resolves each choice toward the overlap the entry
    daemon fails to exclude.
    """
    g = sc.initial_state()
    sched = []
    g = _drive(g, sched, pid=2, cmd=ACT_BEGIN_INSERTION)
    g = _drive(g, sched, pid=3, cmd=ACT_BEGIN_INSERTION)
    g = _drive(g, sched, pid=0, cmd=EVENT_CONNECT)
    g = _drive(g, sched, pid=0, cmd=EVENT_CONNECT)
    # Both queries are forwarded around the ring before either answer returns.
    g = _drive(g, sched, pid=0, cmd=RHS_INFO_REQUEST)
    g = _drive(g, sched, pid=0, cmd=RHS_INFO_REQUEST)
    g = _drive(g, sched, pid=1, cmd=RHS_INFO_REQUEST)
    g = _drive(g, sched, pid=1, cmd=RHS_INFO_REQUEST)
    g = _drive(g, sched, pid=0, cmd=RHS_INFO_RETURN)
    g = _drive(g, sched, pid=0, cmd=RHS_INFO_RETURN)
    g = _drive(g, sched, pid=2, cmd=RHS_INFO_RETURN)
    g = _drive(g, sched, pid=3, cmd=RHS_INFO_RETURN)
    while True:
        steps = enabled_steps(g)
        if not steps:
            return sched
        sched.append(steps[0])
        g = apply(g, steps[0])


def test_criterion_01_sequential_insertion_breaks_the_ring():
    sc = build_scenario(ScenarioConfig("ring-seq", size=2, inserters=2))
    report = explore(sc, sc.default_properties())
    assert report.outcome == VIOLATION
    assert report.elapsed < 60.0
    assert report.trace, "a counterexample schedule must accompany the verdict"

    # Replay a legal schedule resolving the race; watch what each inserter
    # is told about the entry daemon's right-hand side.
    sched = _race_schedule(sc)
    received = {}

    def watch(step, before, after):
        if (step.kind == KIND_EVENT and step.cmd == RHS_INFO_RETURN
                and step.pid in (2, 3)):
            received[step.pid] = before.sockets.queue_of(step.fd)[0][A]

    final = replay(sc, sched, on_step=watch).final_state
    expected = 1  # the pid of the entry daemon's right-hand neighbor
    assert received == {2: expected, 3: expected}, (
        "both inserters should have been handed identical coordinates")
    assert not enabled_steps(final)
    with pytest.raises(PropertyViolation, match="ring closes after 3 of 4"):
        check_ring_topology(final)
    record(1, f"VIOLATION in {report.elapsed:.2f}s; replay shows both inserters "
              f"told {sc.registry.name(expected)} and a final ring of 3, not 4")


# ---------------------------------------------------------------------------
# criterion 2: parallel establishment verifies through four daemons
# ---------------------------------------------------------------------------


@pytest.mark.slow  # reads the four-daemon establishment sweep
def test_criterion_02_parallel_insertion_verifies_to_four_daemons(ring_par_sweep):
    reports, _ = ring_par_sweep
    for total in (1, 2, 3, 4):
        r = reports[total]
        assert r.outcome == VERIFIED, f"total {total}: {r.violation}"
        assert r.states_stored == RING_PAR_STORED[total]
    assert reports[4].elapsed <= TEN_MINUTES
    record(2, f"totals 1..4 VERIFIED; four daemons took "
              f"{reports[4].elapsed:.0f}s for {reports[4].states_stored} states")


# ---------------------------------------------------------------------------
# criterion 3: the ring trace completes in every interleaving
# ---------------------------------------------------------------------------


def test_criterion_03_trace_completes_for_one_to_four_daemons(trace_sweep):
    for n in range(1, 5):
        r = trace_sweep[n]
        assert r.outcome == VERIFIED, f"size {n}: {r.violation}"
        assert r.states_stored == TRACE_STORED[n]
    record(3, "trace episode collects every daemon exactly once for N=1..4")


# ---------------------------------------------------------------------------
# criterion 4: single-failure recovery verifies for rings of 2..8
# ---------------------------------------------------------------------------


def test_criterion_04_recovery_verifies_to_rings_of_eight(recovery_sweep):
    for n in range(2, 9):
        r = recovery_sweep[n]
        assert r.outcome == VERIFIED, f"size {n}: {r.violation}"
        assert r.states_stored == RECOVERY_STORED[n]
    assert recovery_sweep[8].elapsed <= TEN_MINUTES
    record(4, f"nondeterministic single failure recovered for N=2..8; "
              f"N=8 took {recovery_sweep[8].elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criterion 5: the barrier holds for 1..12 managers
# ---------------------------------------------------------------------------


def test_criterion_05_barrier_verifies_to_twelve_managers(barrier_sweep):
    for n in range(1, 13):
        r = barrier_sweep[n]
        assert r.outcome == VERIFIED, f"size {n}: {r.violation}"
        assert r.states_stored == BARRIER_STORED[n]
    assert barrier_sweep[12].elapsed <= TEN_MINUTES
    record(5, f"barrier invariant and end state hold for N=1..12; "
              f"N=12 took {barrier_sweep[12].elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criterion 6: socket layer property suite
# ---------------------------------------------------------------------------


@pytest.mark.slow  # about 10 s: ten thousand random socket sequences
def test_criterion_06_ten_thousand_random_socket_sequences():
    for seed in range(10_000):
        run_random_sequence(seed, n_ops=16, with_failure=bool(seed % 2))

    t = SocketTable(8, 4)
    cfd = t.connect(1, 2)
    sfd = t.other_of(cfd)
    t.accept(2, sfd)
    t.close(2, sfd)
    with pytest.raises(BrokenConnectionError):
        t.write(1, cfd, message("new_rhs"))  # write after close

    t2 = SocketTable(8, 4)
    c2 = t2.connect(1, 2)
    t2.accept(2, t2.other_of(c2))
    with pytest.raises(ContractViolation):
        t2.read(1, c2)  # read on an empty channel

    with pytest.raises(ContractViolation):
        SocketTable(8, 4).accept(3, 0)  # accept without a pending connect

    record(6, "10,000 random op sequences upheld all six invariants; "
              "all three negative cases raised their errors")


# ---------------------------------------------------------------------------
# criterion 7: hash-pruned DFS agrees with brute-force BFS
# ---------------------------------------------------------------------------


def test_criterion_07_search_agrees_with_bruteforce_oracle():
    for cfg in (ScenarioConfig("ring-par", size=1, inserters=1),
                ScenarioConfig("barrier", size=2)):
        sc = build_scenario(cfg)
        dfs = set()
        hook = Property("collect", QUIESCENCE_ONLY, lambda g: dfs.add(encode(g)))
        report = explore(sc, sc.default_properties() + (hook,))
        assert report.outcome == VERIFIED
        bfs = bfs_quiescent_encodings(sc)
        assert dfs == bfs, f"{cfg.algorithm}: quiescent-state sets differ"
        assert dfs, "the comparison must not be vacuous"
    record(7, "DFS and brute-force BFS reach identical quiescent-state sets "
              "for two-daemon establishment and a two-manager barrier")


# ---------------------------------------------------------------------------
# criterion 8: deterministic reports, seeds and replays
# ---------------------------------------------------------------------------


def test_criterion_08_reports_seeds_and_replays_are_deterministic(run_cli, tmp_path):
    verify_args = ("verify", "ring-seq", "--size", "2", "--inserters", "2",
                   "--stable-output", "--json")
    a = run_cli(*verify_args, "--trace-out", str(tmp_path / "a.trace"))
    b = run_cli(*verify_args, "--trace-out", str(tmp_path / "b.trace"))
    assert a.code == b.code == 1
    assert a.out == b.out
    assert (tmp_path / "a.trace").read_bytes() == (tmp_path / "b.trace").read_bytes()

    clean = ("verify", "trace", "--size", "3", "--stable-output")
    assert run_cli(*clean).out == run_cli(*clean).out

    sim_args = ("simulate", "recovery", "--size", "4", "--seed", "77")
    s1 = run_cli(*sim_args, "--trace-out", str(tmp_path / "s1.trace"))
    s2 = run_cli(*sim_args, "--trace-out", str(tmp_path / "s2.trace"))
    assert s1.code == s2.code == 0
    assert s1.out == s2.out
    assert (tmp_path / "s1.trace").read_bytes() == (tmp_path / "s2.trace").read_bytes()

    # Replays reproduce the recorded outcomes.
    bad = run_cli("replay", str(tmp_path / "a.trace"), "--quiet")
    assert bad.code == 1
    assert "violation reproduced" in bad.out
    _, _, header = read_trace(tmp_path / "a.trace")
    assert header["outcome"] == "VIOLATION"
    good = run_cli("replay", str(tmp_path / "s1.trace"), "--quiet")
    assert good.code == 0
    assert "quiescent, all properties hold" in good.out
    record(8, "verify and simulate emit identical bytes across runs; "
              "replays reproduce both recorded outcomes")


# ---------------------------------------------------------------------------
# criterion 9: stored states grow strictly with model size
# ---------------------------------------------------------------------------


@pytest.mark.slow  # reads the four-daemon establishment sweep
def test_criterion_09_state_counts_grow_with_model_size(
        ring_par_sweep, trace_sweep, recovery_sweep, barrier_sweep):
    families = {
        "establishment": [ring_par_sweep[0][t].states_stored for t in (1, 2, 3, 4)],
        "trace": [trace_sweep[n].states_stored for n in range(1, 5)],
        "recovery": [recovery_sweep[n].states_stored for n in range(2, 9)],
        "barrier": [barrier_sweep[n].states_stored for n in range(1, 13)],
    }
    for name, counts in families.items():
        assert all(a < b for a, b in zip(counts, counts[1:])), (
            f"{name}: {counts} is not strictly increasing")
    record(9, "states_stored strictly increasing in N for all four families")


# ---------------------------------------------------------------------------
# criterion 10: configuration-count probe
# ---------------------------------------------------------------------------


@pytest.mark.slow  # reads the four-daemon establishment sweep
def test_criterion_10_three_inserters_reach_every_ring_order(ring_par_sweep):
    _, orders = ring_par_sweep
    measured = orders[4]
    assert all(order[0] == 0 and len(order) == 4 for order in measured)
    assert len(measured) == FINAL_RING_ORDER_COUNT
    record(10, f"3 inserters into a ring of one produce "
               f"{len(measured)} distinct final ring orders (recorded baseline)")
