"""Trace file format: render, parse, reject."""

import pytest

from ringcheck.explorer import ScheduleStep, simulate
from ringcheck.scenarios import ScenarioConfig, build_scenario
from ringcheck.traceio import (
    MAGIC,
    TraceFormatError,
    parse_trace,
    read_trace,
    render_trace,
    write_trace,
)


def sample():
    sc = build_scenario(ScenarioConfig("ring-par", size=2, inserters=1))
    run = simulate(sc, seed=4)
    return sc, run.trace


def test_roundtrip_preserves_config_and_steps(tmp_path):
    sc, steps = sample()
    path = tmp_path / "walk.trace"
    write_trace(path, sc, steps, outcome="VERIFIED")
    cfg, parsed, header = read_trace(path)
    assert parsed == steps
    assert build_scenario(cfg).config_fields() == sc.config_fields()
    assert header["outcome"] == "VERIFIED"
    assert header["algorithm"] == "ring-par"


def test_render_is_line_oriented_and_self_describing():
    sc, steps = sample()
    text = render_trace(sc, steps, outcome="VERIFIED", violation=None)
    lines = text.splitlines()
    assert lines[0] == MAGIC
    assert f"steps={len(steps)}" in lines
    assert lines[-1] == steps[-1].render()
    assert text.endswith("\n")


def test_violation_line_survives_the_roundtrip():
    sc, steps = sample()
    text = render_trace(sc, steps, outcome="VIOLATION",
                        violation="ring closes after 3 of 4 live daemons")
    _, _, header = parse_trace(text)
    assert header["violation"] == "ring closes after 3 of 4 live daemons"


def test_empty_schedule_is_representable():
    sc, _ = sample()
    cfg, steps, _ = parse_trace(render_trace(sc, ()))
    assert steps == ()


@pytest.mark.parametrize("mutate,complaint", [
    (lambda t: "not a trace\n" + t, "magic"),
    (lambda t: t.replace(MAGIC, "ringcheck-trace v999"), "magic"),
    (lambda t: t.replace("steps=", "steps=x"), "bad step count|expected key=value"),
    (lambda t: t + "pid=0 kind=event fd=1 cmd=new_rhs\n", "declares"),
    (lambda t: t.replace("kind=action", "kind=oracle"), "unknown step kind"),
    (lambda t: t.replace("pid=2", "pid=two"), "bad step line"),
    (lambda t: t.replace("algorithm=ring-par\n", ""), "bad scenario header"),
    (lambda t: t.replace("size=2\n", "size=2\nsize=3\n"), "repeated header key 'size'"),
    (lambda t: t.replace("cmd=begin_insertion", "cmd=begin_insertion pid=3", 1),
     "malformed step line '[^']* pid=3'"),
    (lambda t: t.replace("cmd=begin_insertion", "cmd=begin_insertion junk=1", 1),
     "malformed step line '[^']* junk=1'"),
    (lambda t: t.replace("blocking=0", "blocking=7"), "bad scenario header: blocking=7"),
    # Text that parses but that render_trace never writes.
    (lambda t: t.replace("size=2\n", "size=2\nfrobnicate=1\n"),
     "unknown header key 'frobnicate'"),
    (lambda t: t.replace("size=2\n", "size=+2\n"),
     r"bad scenario header: size=\+2 is not a decimal integer"),
    (lambda t: t.replace("pid=2 ", "pid=+2 ", 1),
     r"malformed step line 'pid=\+2 kind=[^']*', expected 'pid=2 kind="),
    (lambda t: t.replace("pid=2 ", "pid=02 ", 1),
     "malformed step line 'pid=02 kind=[^']*', expected 'pid=2 kind="),
    (lambda t: t.replace("fd=- cmd=begin_insertion", "fd=-1 cmd=begin_insertion", 1),
     "malformed step line 'pid=2 kind=action fd=-1 cmd=begin_insertion', "
     "expected 'pid=2 kind=action fd=- cmd=begin_insertion'"),
])
def test_damaged_files_are_rejected(mutate, complaint):
    sc, steps = sample()
    text = mutate(render_trace(sc, steps))
    with pytest.raises(TraceFormatError, match=complaint):
        parse_trace(text)


def test_truncated_file_is_rejected():
    with pytest.raises(TraceFormatError, match="ends before"):
        parse_trace(MAGIC + "\nalgorithm=ring-par\n")
