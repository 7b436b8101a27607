"""Scenario construction: validation and sizing.

A scenario is the static half of the model: which algorithm runs, how many
processes exist, what may fail. The dynamic half lives in GlobalState.
Handlers reach the static half through g.scenario, and none of it
participates in state encoding. The scenario names its protocol module
(daemons or barrier), and that module owns the rest of the model: it lists
and runs its steps, builds the initial state and lists the properties the
scenario checks.

A Scenario is built from one ScenarioConfig, once build_scenario has
validated it, and nothing else: the protocol module, the insertion variant,
whether a trace runs, the failure to inject and the table sizes all follow
from the config's algorithm and sizes.

Descriptor-table sizing is derived, not guessed: a ring of M daemons uses
2*M endpoints, each insertion transiently holds its entry connection and its
new right-hand connection open while the spliced edge still exists, and
recovery reuses slots the failure freed. Queue capacity is bounded by the
total process count; the counterclockwise update bursts at the entry daemon's
left neighbor are the worst case and there are at most K of them in flight.
"""

from __future__ import annotations

from typing import NamedTuple

from . import barrier, daemons
from . import properties as props
from .daemons import FAIL_NONDET, PARALLEL, SEQUENTIAL
from .errors import ScenarioError
from .explorer import GlobalState, Property
from .messages import Registry, make_identities

ALGORITHMS = ("ring-seq", "ring-par", "trace", "recovery", "barrier")

# Far beyond any model an exhaustive search finishes, yet cheap to build; it
# stops a trace header from naming a size that takes minutes to set up.
MAX_PROCESSES = 1000


class ScenarioConfig(NamedTuple):
    """User-facing knobs, as they arrive from the command line."""

    algorithm: str
    size: int = 2
    inserters: int = 0
    blocking: bool = False
    fail_pid: int | None = None  # recovery only; None picks the victim freely


class Scenario:
    """Static description shared by every state of one exploration.

    Built from one validated ScenarioConfig (build_scenario validates it);
    every other field follows from the config.
    """

    __slots__ = (
        "protocol", "algorithm", "variant", "n_initial", "n_inserters",
        "seq_blocking", "failure", "trace_enabled", "conn_max", "qsz", "registry",
    )

    def __init__(self, cfg: ScenarioConfig):
        algorithm = self.algorithm = cfg.algorithm
        # The daemons or barrier module, which owns the model.
        self.protocol = barrier if algorithm == "barrier" else daemons
        self.variant = SEQUENTIAL if algorithm == "ring-seq" else PARALLEL
        self.n_initial = cfg.size
        self.n_inserters = cfg.inserters  # pids n_initial and up
        self.seq_blocking = cfg.blocking
        self.failure = None
        if algorithm == "recovery":
            self.failure = FAIL_NONDET if cfg.fail_pid is None else cfg.fail_pid
        self.trace_enabled = algorithm in ("trace", "recovery")
        total = cfg.size + cfg.inserters
        self.conn_max = 2 * total + 2 * cfg.inserters
        self.qsz = max(1, total)
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

    def initial_state(self) -> GlobalState:
        return self.protocol.initial_state(self)

    def default_properties(self) -> tuple[Property, ...]:
        # Reads _CHECKS at call time, so a check rebound there takes effect.
        return tuple(Property(kind, when, props._CHECKS[kind])
                     for kind, when in self.protocol.properties(self))


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
    if cfg.size + cfg.inserters > MAX_PROCESSES:
        raise ScenarioError(f"size plus inserters must be at most {MAX_PROCESSES}")
    if cfg.blocking and cfg.algorithm != "ring-seq":
        raise ScenarioError("blocking applies to the sequential insertion algorithm only")
    if cfg.fail_pid is not None and cfg.algorithm != "recovery":
        raise ScenarioError("fail-pid applies to the recovery scenario only")

    if cfg.algorithm == "barrier" and cfg.inserters:
        raise ScenarioError("the barrier scenario has no inserters")
    if cfg.algorithm == "recovery":
        if cfg.inserters:
            raise ScenarioError("the recovery scenario runs on a fixed ring; no inserters")
        if cfg.size < 2:
            raise ScenarioError("recovery needs a ring of at least 2")
        if cfg.fail_pid is not None and not (0 <= cfg.fail_pid < cfg.size):
            raise ScenarioError(f"fail-pid {cfg.fail_pid} is not a ring member")
    return Scenario(cfg)


def config_from_fields(fields: dict) -> ScenarioConfig:
    """Inverse of Scenario.config_fields, for trace files; int() reads the numbers.

    Text config_fields never writes may still map to a config (size=+2 reads
    as size 2); traceio rejects it because the scenario does not render back.
    """
    try:
        failure = fields["failure"]
        return ScenarioConfig(
            algorithm=fields["algorithm"], size=int(fields["size"]),
            inserters=int(fields["inserters"]), blocking=fields["blocking"] == "1",
            fail_pid=None if failure in ("none", FAIL_NONDET) else int(failure),
        )
    except KeyError as e:
        raise ScenarioError(f"incomplete scenario description: {e}") from e
