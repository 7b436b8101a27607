"""Explicit-state model checker for process-manager ring protocols.

The model is three layers. sockets simulates the Unix-domain plumbing a
process manager would use: a descriptor table of cross-linked endpoint pairs,
bounded FIFO channels, and readiness derived from the table rather than
stored, each wake already named as the schedule step that handles it.
daemons and barrier put protocol state machines on top: ring insertion in a
raced sequential flavor and a correct parallel one, failure recovery over
recorded second-right neighbors, a circulating ring trace, and a token
barrier across a manager ring. Each protocol module owns its whole model:
it builds the initial state (initial_state), lists the properties to check
(properties), lists its enabled steps (steps), runs them (act,
handle_event) and renders its state dump's line (dump_line). scenarios only
validates and sizes. explorer imports none of daemons, barrier, properties
and scenarios: a state is the descriptor table and the process records,
with no record shared between processes (a ring trace lives in its
initiator's record), and explorer runs whichever protocol the scenario
names as a checkable transition system, with depth-first search over every
handler interleaving with state hashing, plus one walk loop over the exact
same step relation that serves both seeded random simulation and schedule
replay.
Search and walk check each state through one function. A walk stops at the
first failure and keeps the failing step in its trace, so the trace replays
to the same failure.
"""

from .errors import (
    BrokenConnectionError,
    CheckError,
    ContractViolation,
    InvariantViolation,
    ModelSizingError,
    PropertyViolation,
    ProtocolViolation,
    ScenarioError,
)
from .explorer import (
    RESOURCE_LIMIT,
    VERIFIED,
    VIOLATION,
    GlobalState,
    Property,
    ScheduleStep,
    VerificationReport,
    WalkReport,
    apply,
    enabled_steps,
    encode,
    explore,
    replay,
    simulate,
    walk,
)
from .scenarios import ALGORITHMS, Scenario, ScenarioConfig, build_scenario

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "BrokenConnectionError",
    "CheckError",
    "ContractViolation",
    "GlobalState",
    "InvariantViolation",
    "ModelSizingError",
    "Property",
    "PropertyViolation",
    "ProtocolViolation",
    "RESOURCE_LIMIT",
    "Scenario",
    "ScenarioConfig",
    "ScenarioError",
    "ScheduleStep",
    "VERIFIED",
    "VIOLATION",
    "VerificationReport",
    "WalkReport",
    "apply",
    "build_scenario",
    "enabled_steps",
    "encode",
    "explore",
    "replay",
    "simulate",
    "walk",
]
