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

outcome and violation are informational; replay re-derives both. A step
is read from its pid, fd and cmd; its kind follows from its fd (fd=- is an
action), and a line whose kind= says otherwise is not what ringcheck writes.

A file is read only if ringcheck writes exactly these bytes for it:
parse_trace reads the header and the steps loosely, renders what it read
with render_trace and reports the first line where the file departs from
that rendering.
"""

from __future__ import annotations

import re

from .explorer import ScheduleStep
from .scenarios import Scenario, build_scenario, config_from_fields

MAGIC = "ringcheck-trace v1"

# Splits after each newline, so a line keeps its ending and the last one may lack it.
_LINES = re.compile(r"(?<=\n)")


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
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(render_trace(scenario, steps, outcome=outcome, violation=violation))


def _difference(text: str, written: str) -> TraceFormatError:
    """The first line where text departs from written, which ringcheck writes.

    Both splits end with the text after the last newline, so two texts that
    differ differ within the shorter split.
    """
    lineno, got, want = next((n, a, b) for n, (a, b) in
                             enumerate(zip(_LINES.split(text), _LINES.split(written)), 1)
                             if a != b)
    return TraceFormatError(f"line {lineno}: the file has {_shown(got)}, "
                            f"ringcheck writes {_shown(want)}")


def _shown(line: str) -> str:
    """line quoted, cut at 100 characters: a file with no newline in it is one line."""
    return repr(line[:100]) + ("..." if len(line) > 100 else "")


def _parse_step(line: str, lineno: int) -> ScheduleStep:
    """The step a line names by its pid, fd and cmd, with its numbers read by int().

    The kind= field is not read: the step's kind follows from its fd, so a
    line whose kind disagrees with its fd does not render back.
    """
    fields = dict(part.partition("=")[::2] for part in line.split(" "))
    try:
        fd = fields["fd"]
        return ScheduleStep(int(fields["pid"]), -1 if fd == "-" else int(fd), fields["cmd"])
    except (KeyError, ValueError) as e:
        raise TraceFormatError(f"line {lineno}: bad step line: {e}") from e


def parse_trace(text: str) -> tuple[Scenario, tuple[ScheduleStep, ...], dict]:
    """Returns (scenario, steps, header) of a text exactly as render_trace writes it."""
    if not text.startswith(MAGIC + "\n"):
        raise _difference(text, MAGIC + "\n")
    lines = text.split("\n")
    header: dict[str, str] = {}
    for idx, line in enumerate(lines[1:], 2):
        key, _, value = line.partition("=")
        header.setdefault(key, value)  # a repeated key is then the line that differs
        if key == "steps":
            break
    else:
        raise TraceFormatError("trace file ends before its step count")
    try:
        scenario = build_scenario(config_from_fields(header))
    except ValueError as e:
        raise TraceFormatError(
            f"lines 2-{idx}: trace names an unbuildable scenario: {e}") from e
    # Skips the empty text after the final newline; any other blank line does not render back.
    steps = tuple(_parse_step(line, lineno)
                  for lineno, line in enumerate(lines[idx:], idx + 1) if line)
    written = render_trace(scenario, steps, outcome=header.get("outcome"),
                           violation=header.get("violation"))
    if written != text:
        raise _difference(text, written)
    return scenario, steps, header


def read_trace(path) -> tuple[Scenario, tuple[ScheduleStep, ...], dict]:
    # newline="" keeps the bytes on disk, so a CRLF file does not read as ringcheck's.
    with open(path, "r", encoding="utf-8", newline="") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as e:
            raise TraceFormatError(f"not a trace file (not UTF-8 text: {e})") from e
    return parse_trace(text)
