"""Trace file format: render, parse, reject."""

import contextlib
import io
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringcheck.cli import main
from ringcheck.explorer import simulate
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


def differs(lineno, got, want):
    """The complaint about a file whose line lineno reads got where ringcheck writes want."""
    return re.escape(f"line {lineno}: the file has {got!r}, ringcheck writes {want!r}")


def test_roundtrip_preserves_config_and_steps(tmp_path):
    sc, steps = sample()
    path = tmp_path / "walk.trace"
    write_trace(path, sc, steps, outcome="VERIFIED")
    scenario, parsed, header = read_trace(path)
    assert parsed == steps
    assert scenario.config_fields() == sc.config_fields()
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
    _, steps, _ = parse_trace(render_trace(sc, ()))
    assert steps == ()


# The sample renders as: magic, algorithm=ring-par, size=2, inserters=1,
# blocking=0, failure=none, steps=8 (line 7), then steps on lines 8-15.
FIRST_STEP = "pid=2 kind=action fd=- cmd=begin_insertion"
LAST_STEP = "pid=2 kind=event fd=6 cmd=rhs2info"


@pytest.mark.parametrize("mutate,complaint", [
    (lambda t: "not a trace\n" + t, differs(1, "not a trace\n", MAGIC + "\n")),
    (lambda t: t.replace(MAGIC, "ringcheck-trace v999"),
     differs(1, "ringcheck-trace v999\n", MAGIC + "\n")),
    (lambda t: t.replace("steps=", "steps=x"), differs(7, "steps=x8\n", "steps=8\n")),
    (lambda t: t + "pid=0 kind=event fd=1 cmd=new_rhs\n", differs(7, "steps=8\n", "steps=9\n")),
    (lambda t: t.replace("kind=action", "kind=oracle"), "line 8: unknown step kind 'oracle'"),
    (lambda t: t.replace("pid=2", "pid=two"), "line 8: bad step line"),
    (lambda t: t.replace("algorithm=ring-par\n", ""),
     "lines 2-6: trace names an unbuildable scenario: incomplete"),
    (lambda t: t.replace("size=2\n", "size=2\nsize=3\n"), differs(4, "size=3\n", "inserters=1\n")),
    (lambda t: t.replace("cmd=begin_insertion", "cmd=begin_insertion pid=3", 1),
     differs(8, FIRST_STEP + " pid=3\n", FIRST_STEP.replace("pid=2", "pid=3") + "\n")),
    (lambda t: t.replace("cmd=begin_insertion", "cmd=begin_insertion junk=1", 1),
     differs(8, FIRST_STEP + " junk=1\n", FIRST_STEP + "\n")),
    (lambda t: t.replace("blocking=0", "blocking=7"), differs(5, "blocking=7\n", "blocking=0\n")),
    # Text that parses but that render_trace never writes.
    (lambda t: t.replace("size=2\n", "size=2\nfrobnicate=1\n"),
     differs(4, "frobnicate=1\n", "inserters=1\n")),
    (lambda t: t.replace("size=2\n", "size=+2\n"), differs(3, "size=+2\n", "size=2\n")),
    (lambda t: t.replace("pid=2 ", "pid=+2 ", 1),
     differs(8, FIRST_STEP.replace("pid=2", "pid=+2") + "\n", FIRST_STEP + "\n")),
    (lambda t: t.replace("pid=2 ", "pid=02 ", 1),
     differs(8, FIRST_STEP.replace("pid=2", "pid=02") + "\n", FIRST_STEP + "\n")),
    (lambda t: t.replace("fd=- cmd=begin_insertion", "fd=-1 cmd=begin_insertion", 1),
     differs(8, FIRST_STEP.replace("fd=-", "fd=-1") + "\n", FIRST_STEP + "\n")),
    (lambda t: t.replace("size=2\ninserters=1\n", "inserters=1\nsize=2\n"),
     differs(3, "inserters=1\n", "size=2\n")),
    (lambda t: t[:-1], differs(15, LAST_STEP, LAST_STEP + "\n")),
    (lambda t: t.replace("steps=", "violation=lost\noutcome=VIOLATION\nsteps="),
     differs(7, "violation=lost\n", "outcome=VIOLATION\n")),
    (lambda t: t.replace("\n", "\r\n"), differs(1, MAGIC + "\r\n", MAGIC + "\n")),
    (lambda t: t.replace("\n", "\r"),
     "line 1: the file has " + re.escape(repr(MAGIC + "\ralgorithm=ring-par\r")[:-1])),
])
def test_damaged_files_are_rejected(mutate, complaint):
    sc, steps = sample()
    text = mutate(render_trace(sc, steps))
    with pytest.raises(TraceFormatError, match=complaint):
        parse_trace(text)


# A recovery trace with victim 1 renders as: magic, algorithm=recovery,
# size=3, inserters=0, blocking=0, failure=1, steps=0 (line 7).
@pytest.mark.parametrize("line,complaint", [
    ("size=+2", differs(3, "size=+2\n", "size=2\n")),
    ("size=02", differs(3, "size=02\n", "size=2\n")),
    ("size= 2", differs(3, "size= 2\n", "size=2\n")),
    ("size=2_0", differs(3, "size=2_0\n", "size=20\n")),
    ("size=two", "lines 2-7: trace names an unbuildable scenario: .*'two'"),
    ("inserters=-0", differs(4, "inserters=-0\n", "inserters=0\n")),
    ("failure=01", differs(6, "failure=01\n", "failure=1\n")),
])
def test_integers_must_be_canonical_decimal(line, complaint):
    text = render_trace(build_scenario(ScenarioConfig("recovery", size=3, fail_pid=1)), ())
    key = line.partition("=")[0]
    damaged = re.sub(f"^{key}=.*$", line, text, flags=re.M)
    assert damaged != text
    parse_trace(text)
    with pytest.raises(TraceFormatError, match=complaint):
        parse_trace(damaged)


def test_truncated_file_is_rejected():
    with pytest.raises(TraceFormatError, match="ends before"):
        parse_trace(MAGIC + "\nalgorithm=ring-par\n")


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """The bytes of traces the command line writes: a counterexample and three walks."""
    runs = (("verify", "ring-seq", "--size", "2", "--inserters", "2"),
            ("simulate", "recovery", "--size", "4"),
            ("simulate", "barrier", "--size", "3"),
            ("simulate", "trace", "--size", "3"))
    texts = []
    for k, argv in enumerate(runs):
        path = tmp_path_factory.mktemp("written") / f"{k}.trace"
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            main([*argv, "--trace-out", str(path)])
        texts.append(path.read_bytes().decode("utf-8"))
    return texts


INSERTED_KEYS = ("algorithm", "size", "inserters", "blocking", "failure",
                 "outcome", "violation", "steps", "pid", "kind")
NO_NEWLINE = st.characters(blacklist_characters="\n")


@st.composite
def single_line_edits(draw, texts):
    """A written trace with one line dropped, duplicated, swapped, inserted or one char changed."""
    text = draw(st.sampled_from(texts))
    lines = text.splitlines(keepends=True)
    edit = draw(st.sampled_from(("drop", "duplicate", "swap", "insert", "change")))
    i = draw(st.integers(0, len(lines) - 1))
    if edit == "drop":
        del lines[i]
    elif edit == "duplicate":
        lines.insert(i, lines[i])
    elif edit == "swap":
        j = draw(st.integers(0, len(lines) - 1))
        lines[i], lines[j] = lines[j], lines[i]
    elif edit == "insert":
        key = draw(st.sampled_from(INSERTED_KEYS) | st.text(NO_NEWLINE, max_size=8))
        value = draw(st.text(NO_NEWLINE, max_size=8) | st.integers(-3, 1001).map(str))
        lines.insert(draw(st.integers(0, len(lines))), f"{key}={value}\n")
    else:
        pos = draw(st.integers(0, len(text) - 1))
        return text[:pos] + draw(st.characters()) + text[pos + 1:]
    return "".join(lines)


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_an_edited_trace_is_rejected_or_reads_as_ringcheck_writes_it(written, data):
    edited = data.draw(single_line_edits(written))
    try:
        scenario, steps, header = parse_trace(edited)
    except TraceFormatError:
        return
    assert render_trace(scenario, steps, outcome=header.get("outcome"),
                        violation=header.get("violation")) == edited
