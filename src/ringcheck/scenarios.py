"""Scenario construction: sizing, initial wiring and property selection.

A scenario is the static half of the model: which algorithm runs, how many
processes exist, where newcomers enter, what may fail. The dynamic half lives
in GlobalState. Handlers reach the static half through g.scenario, and none
of it participates in state encoding.

Descriptor-table sizing is derived, not guessed: a ring of M daemons uses
2*M endpoints, each insertion transiently holds its entry connection and its
new right-hand connection open while the spliced edge still exists, and
recovery reuses slots the failure freed. Queue capacity is bounded by the
total process count; the counterclockwise update bursts at the entry daemon's
left neighbor are the worst case and there are at most K of them in flight.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import barrier, daemons
from . import properties as props
from .barrier import BarrierBits, ManagerState
from .daemons import FAIL_NONDET, IN_RING, PARALLEL, SEQUENTIAL, DaemonState, TraceState
from .errors import ScenarioError
from .explorer import GlobalState, Property
from .messages import Registry, make_identities
from .sockets import LHS, RHS, SocketTable

ALGORITHMS = ("ring-seq", "ring-par", "trace", "recovery", "barrier")


@dataclass(frozen=True)
class ScenarioConfig:
    """User-facing knobs, as they arrive from the command line."""

    algorithm: str
    size: int = 2
    inserters: int = 0
    blocking: bool = False
    fail_pid: int | None = None  # recovery only; None picks the victim freely


class Scenario:
    """Static description shared by every state of one exploration."""

    __slots__ = (
        "protocol", "algorithm", "variant", "n_initial", "n_inserters",
        "inserter_pids", "entry_pid", "seq_blocking", "failure",
        "trace_enabled", "conn_max", "qsz", "hop_budget", "registry",
    )

    def __init__(self, *, protocol, algorithm, variant, n_initial, n_inserters,
                 seq_blocking, failure, trace_enabled):
        self.protocol = protocol  # the daemons or barrier module: steps, act, handle_event
        self.algorithm = algorithm
        self.variant = variant
        self.n_initial = n_initial
        self.n_inserters = n_inserters
        self.inserter_pids = tuple(range(n_initial, n_initial + n_inserters))
        self.entry_pid = 0
        self.seq_blocking = seq_blocking
        self.failure = failure
        self.trace_enabled = trace_enabled
        total = n_initial + n_inserters
        self.conn_max = 2 * total + 2 * n_inserters
        self.qsz = max(1, total)
        self.hop_budget = total
        self.registry = Registry(make_identities(total))

    @property
    def total(self) -> int:
        return self.n_initial + self.n_inserters

    def config_fields(self) -> dict:
        failure = "none" if self.failure is None else str(self.failure)
        return {
            "algorithm": self.algorithm,
            "size": self.n_initial,
            "inserters": self.n_inserters,
            "blocking": int(self.seq_blocking),
            "failure": failure,
        }

    # ------------------------------------------------------------------
    # initial state
    # ------------------------------------------------------------------

    def initial_state(self) -> GlobalState:
        if self.protocol is barrier:
            return self._initial_barrier()
        return self._initial_ring()

    def _initial_ring(self) -> GlobalState:
        table = SocketTable(self.conn_max, self.qsz)
        procs = [DaemonState(i, self.variant) for i in range(self.total)]
        m = self.n_initial
        _wire_ring(table, procs[:m])
        for i in range(m):
            d = procs[i]
            d.rhs_id = (i + 1) % m
            d.rhs2_id = (i + 2) % m
            d.lhs_id = (i - 1) % m
            d.phase = IN_RING
        return GlobalState(self, table, procs, trace=TraceState(), bits=None)

    def _initial_barrier(self) -> GlobalState:
        n = self.n_initial
        table = SocketTable(self.conn_max, self.qsz)
        procs = [ManagerState(i, rank=i) for i in range(n)]
        _wire_ring(table, procs)
        return GlobalState(self, table, procs, trace=None, bits=BarrierBits(n))

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------

    def default_properties(self) -> tuple[Property, ...]:
        if self.protocol is barrier:
            return (
                props.socket_invariants(),
                props.barrier_invariant(),
                props.barrier_end(),
            )
        checks = [props.socket_invariants(), props.ring_topology()]
        if self.variant == PARALLEL:
            checks.append(props.neighbor_state())
        if self.trace_enabled:
            checks.append(props.trace_completion())
        return tuple(checks)


def _wire_ring(table: SocketTable, procs: list) -> None:
    """Connect procs clockwise: each one's rhs_fd reaches the next one's lhs_fd.

    A ring of one is a daemon connected to its own port.
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


def build_scenario(cfg: ScenarioConfig) -> Scenario:
    """Validate a configuration and produce the static scenario for it."""
    if cfg.algorithm not in ALGORITHMS:
        raise ScenarioError(
            f"unknown algorithm {cfg.algorithm!r}; choose from {', '.join(ALGORITHMS)}"
        )
    if cfg.size < 1:
        raise ScenarioError("size must be at least 1")
    if cfg.inserters < 0:
        raise ScenarioError("inserters must be non-negative")
    if cfg.blocking and cfg.algorithm != "ring-seq":
        raise ScenarioError("blocking applies to the sequential insertion algorithm only")
    if cfg.fail_pid is not None and cfg.algorithm != "recovery":
        raise ScenarioError("fail-pid applies to the recovery scenario only")

    if cfg.algorithm == "barrier":
        if cfg.inserters:
            raise ScenarioError("the barrier scenario has no inserters")
        return Scenario(
            protocol=barrier, algorithm=cfg.algorithm, variant=None,
            n_initial=cfg.size, n_inserters=0, seq_blocking=False,
            failure=None, trace_enabled=False,
        )

    if cfg.algorithm == "recovery":
        if cfg.inserters:
            raise ScenarioError("the recovery scenario runs on a fixed ring; no inserters")
        if cfg.size < 2:
            raise ScenarioError("recovery needs a ring of at least 2")
        if cfg.fail_pid is not None and not (0 <= cfg.fail_pid < cfg.size):
            raise ScenarioError(f"fail-pid {cfg.fail_pid} is not a ring member")
        failure = FAIL_NONDET if cfg.fail_pid is None else cfg.fail_pid
        return Scenario(
            protocol=daemons, algorithm=cfg.algorithm, variant=PARALLEL,
            n_initial=cfg.size, n_inserters=0, seq_blocking=False,
            failure=failure, trace_enabled=True,
        )

    variant = SEQUENTIAL if cfg.algorithm == "ring-seq" else PARALLEL
    return Scenario(
        protocol=daemons, algorithm=cfg.algorithm, variant=variant,
        n_initial=cfg.size, n_inserters=cfg.inserters,
        seq_blocking=cfg.blocking, failure=None,
        trace_enabled=(cfg.algorithm == "trace"),
    )


def config_from_fields(fields: dict) -> ScenarioConfig:
    """Inverse of Scenario.config_fields, for trace files."""
    try:
        algorithm = fields["algorithm"]
        size = int(fields["size"])
        inserters = int(fields["inserters"])
        blocking = bool(int(fields["blocking"]))
        failure = fields["failure"]
    except (KeyError, ValueError) as e:
        raise ScenarioError(f"incomplete scenario description: {e}") from e
    fail_pid = None if failure in ("none", FAIL_NONDET) else int(failure)
    return ScenarioConfig(
        algorithm=algorithm, size=size, inserters=inserters,
        blocking=blocking, fail_pid=fail_pid,
    )
