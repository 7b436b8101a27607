"""Plain-text schedule files.

A trace file is self-describing: a header names the scenario that produced
the schedule, so replay needs nothing but the file. Lines are key=value; the
step section is fixed-width in neither sense, just one step per line in the
same rendering ScheduleStep.render produces:

    ringcheck-trace v1
    algorithm=ring-seq
    size=2
    inserters=2
    blocking=0
    failure=none
    outcome=VIOLATION
    violation=ring closes after 3 of 4 live daemons
    steps=17
    pid=2 kind=action fd=- cmd=begin_insertion
    ...

outcome and violation are informational; replay re-derives both.
"""

from __future__ import annotations

from .explorer import ScheduleStep
from .scenarios import Scenario, ScenarioConfig, config_from_fields

MAGIC = "ringcheck-trace v1"


class TraceFormatError(Exception):
    """The file is not a readable trace, or does not fit its scenario."""


def render_trace(scenario: Scenario, steps, *, outcome: str | None = None,
                 violation: str | None = None) -> str:
    lines = [MAGIC]
    for key, value in scenario.config_fields().items():
        lines.append(f"{key}={value}")
    if outcome is not None:
        lines.append(f"outcome={outcome}")
    if violation is not None:
        lines.append(f"violation={violation}")
    lines.append(f"steps={len(steps)}")
    lines.extend(step.render() for step in steps)
    return "\n".join(lines) + "\n"


def write_trace(path, scenario: Scenario, steps, *, outcome=None, violation=None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_trace(scenario, steps, outcome=outcome, violation=violation))


STEP_KEYS = ("pid", "kind", "fd", "cmd")


def _parse_step(line: str, lineno: int) -> ScheduleStep:
    parts = line.split(" ")
    fields = {}
    for part in parts:
        key, sep, value = part.partition("=")
        if not sep or key not in STEP_KEYS or key in fields:
            raise TraceFormatError(f"line {lineno}: malformed step token {part!r}")
        fields[key] = value
    try:
        pid = int(fields["pid"])
        kind = fields["kind"]
        fd = -1 if fields["fd"] == "-" else int(fields["fd"])
        cmd = fields["cmd"]
    except (KeyError, ValueError) as e:
        raise TraceFormatError(f"line {lineno}: bad step line: {e}") from e
    if kind not in ("event", "action"):
        raise TraceFormatError(f"line {lineno}: unknown step kind {kind!r}")
    return ScheduleStep(pid, kind, fd, cmd)


def parse_trace(text: str) -> tuple[ScenarioConfig, tuple[ScheduleStep, ...], dict]:
    """Returns (scenario config, steps, header metadata)."""
    lines = text.splitlines()
    if not lines or lines[0] != MAGIC:
        raise TraceFormatError("not a trace file (bad or missing magic line)")
    header: dict[str, str] = {}
    idx = 1
    nsteps = None
    while idx < len(lines):
        line = lines[idx]
        idx += 1
        key, sep, value = line.partition("=")
        if not sep:
            raise TraceFormatError(f"line {idx}: expected key=value, got {line!r}")
        if key in header:
            raise TraceFormatError(f"line {idx}: repeated header key {key!r}")
        header[key] = value
        if key == "steps":
            try:
                nsteps = int(value)
            except ValueError as e:
                raise TraceFormatError(f"line {idx}: bad step count {value!r}") from e
            break
    if nsteps is None:
        raise TraceFormatError("trace file ends before its step count")
    step_lines = lines[idx:]
    if len(step_lines) != nsteps:
        raise TraceFormatError(
            f"trace declares {nsteps} steps but carries {len(step_lines)}"
        )
    steps = tuple(
        _parse_step(line, idx + k + 1) for k, line in enumerate(step_lines)
    )
    try:
        cfg = config_from_fields(header)
    except Exception as e:
        raise TraceFormatError(f"bad scenario header: {e}") from e
    return cfg, steps, header


def read_trace(path) -> tuple[ScenarioConfig, tuple[ScheduleStep, ...], dict]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as e:
            raise TraceFormatError(f"not a trace file (not UTF-8 text: {e})") from e
    return parse_trace(text)
