"""Command line behavior: exit codes, report shapes, trace round trips."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ringcheck
from ringcheck.cli import TABLE_HEADER
from ringcheck.scenarios import ScenarioConfig


def test_verified_run_exits_zero(run_cli):
    r = run_cli("verify", "ring-par", "--size", "1", "--inserters", "1")
    assert r.code == 0
    assert "outcome: VERIFIED" in r.out
    assert "Algorithm" in r.out and "Model Size" in r.out
    assert "States Stored/Matched" in r.out and "Search Depth" in r.out


def test_the_wide_recovery_model_keeps_its_counts(run_cli):
    # 48 daemons share a 96-fd table, where a step writes two or three fds:
    # the derived wake map is furthest from a whole-table scan here.
    r = run_cli("verify", "recovery", "--size", "48", "--json", "--stable-output")
    assert r.code == 0
    report = json.loads(r.out)["report"]
    assert (report["outcome"], report["states_stored"], report["states_matched"],
            report["max_depth"]) == ("VERIFIED", 5630, 727, 104)


def test_violation_exits_one_and_writes_the_counterexample(run_cli, tmp_path):
    path = tmp_path / "bug.trace"
    r = run_cli("verify", "ring-seq", "--size", "2", "--inserters", "2",
                "--trace-out", str(path))
    assert r.code == 1
    assert "outcome: VIOLATION" in r.out
    assert "violation:" in r.out
    assert f"counterexample written to {path}" in r.err
    assert path.exists()
    head = path.read_text().splitlines()
    assert head[0] == "ringcheck-trace v1"


def test_violation_default_trace_path_is_announced(run_cli, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    r = run_cli("verify", "ring-seq", "--size", "2", "--inserters", "2")
    assert r.code == 1
    assert "counterexample written to ring-seq-counterexample.trace" in r.err
    assert (tmp_path / "ring-seq-counterexample.trace").exists()


def test_resource_limit_exits_two(run_cli):
    r = run_cli("verify", "ring-par", "--size", "2", "--inserters", "1",
                "--max-states", "3")
    assert r.code == 2
    assert "outcome: RESOURCE_LIMIT" in r.out


def test_usage_errors_exit_sixty_four(run_cli):
    assert run_cli("verify").code == 64
    assert run_cli("verify", "ring-quantum").code == 64
    assert run_cli("frobnicate").code == 64
    r = run_cli("verify", "barrier", "--inserters", "2")
    assert r.code == 64
    assert "error" in r.err


def test_budgets_below_one_state_or_below_depth_zero_are_usage_errors(run_cli):
    for budget in (["--max-states", "0"], ["--max-states", "-1"], ["--max-depth", "-1"]):
        r = run_cli("verify", "ring-par", "--size", "1", "--inserters", "1", *budget)
        assert r.code == 64, budget
        assert r.out == "" and "error" in r.err


def test_negative_step_budget_is_a_usage_error(run_cli):
    r = run_cli("simulate", "ring-par", "--size", "1", "--inserters", "1", "--max-steps", "-3")
    assert r.code == 64
    assert r.out == ""
    assert r.err == "ringcheck simulate: error: --max-steps must be at least 0\n"
    assert run_cli("simulate", "ring-par", "--size", "1", "--max-steps", "0").code == 0


def test_verify_refuses_a_model_past_the_process_bound(run_cli):
    r = run_cli("verify", "ring-par", "--size", "100000000")
    assert r.code == 64
    assert r.out == "" and r.err.startswith("ringcheck verify: error: size plus inserters")


def test_an_exception_in_the_checker_exits_seventy_not_as_a_violation(run_cli, monkeypatch):
    from ringcheck import daemons

    def start_trace(g, d):
        raise KeyError("initiator")

    monkeypatch.setattr(daemons, "start_trace", start_trace)
    r = run_cli("verify", "trace", "--size", "2")
    assert r.code == 70
    assert r.out == ""
    assert r.err == "ringcheck verify: internal error: KeyError: 'initiator'\n"
    # A property that fails is still a violation, exit 1.
    r = run_cli("verify", "ring-seq", "--size", "2", "--inserters", "2",
                "--trace-out", os.devnull)
    assert r.code == 1 and "outcome: VIOLATION" in r.out


@pytest.mark.parametrize("command,report", [("verify", "outcome: VIOLATION"),
                                            ("simulate", "seed 0: ")], ids=["verify", "simulate"])
def test_unwritable_trace_out_still_reports_and_exits_sixty_four(run_cli, tmp_path,
                                                                 command, report):
    target = tmp_path / "absent" / "x.trace"
    r = run_cli(command, "ring-seq", "--size", "2", "--inserters", "2",
                "--trace-out", str(target))
    assert r.code == 64
    assert report in r.out
    assert r.err.startswith(f"ringcheck {command}: error: cannot write trace: ")
    assert len(r.err.splitlines()) == 1
    assert not target.exists()


def test_blocking_flag_fixes_the_sequential_race(run_cli):
    r = run_cli("verify", "ring-seq", "--size", "2", "--inserters", "2",
                "--blocking")
    assert r.code == 0
    assert "outcome: VERIFIED" in r.out


@pytest.mark.parametrize("inserters,stored,depth", [(1, 4, 3), (3, 6, 5)])
def test_blocking_entry_of_a_ring_of_one_awaits_itself(run_cli, tmp_path, inserters,
                                                        stored, depth):
    # A lone entry daemon forwards the first query to itself and then blocks
    # on the reply only it could send: --blocking verifies rings of two or more.
    trace = tmp_path / "one.trace"
    r = run_cli("verify", "ring-seq", "--size", "1", "--inserters", str(inserters),
                "--blocking", "--stable-output", "--trace-out", str(trace))
    violation = "ring_topology: d0 still awaits rhs_info_return"
    assert r.code == 1
    assert r.out.splitlines()[1].split()[-2:] == [f"{stored}/0", str(depth)]
    assert f"violation: {violation}\n" in r.out
    replayed = run_cli("replay", str(trace))
    assert replayed.code == 1
    assert replayed.out.endswith(f"\nviolation reproduced at quiescence: {violation}\n")


def test_json_report_schema(run_cli):
    r = run_cli("verify", "ring-par", "--size", "1", "--inserters", "1", "--json")
    assert r.code == 0
    doc = json.loads(r.out)
    assert doc["schema"] == "ringcheck-report-1"
    assert doc["report"]["outcome"] == "VERIFIED"
    assert doc["report"]["states_stored"] >= 1
    assert doc["scenario"]["algorithm"] == "ring-par"
    assert doc["scenario"]["total"] == 2
    assert doc["trace"] is None


def test_stable_output_is_byte_identical(run_cli):
    args = ("verify", "trace", "--size", "2", "--stable-output")
    a, b = run_cli(*args), run_cli(*args)
    assert a.out == b.out and a.code == b.code == 0
    args_json = args + ("--json",)
    assert run_cli(*args_json).out == run_cli(*args_json).out


def test_simulate_is_deterministic_per_seed(run_cli, tmp_path):
    t1, t2 = tmp_path / "a.trace", tmp_path / "b.trace"
    r1 = run_cli("simulate", "ring-par", "--size", "2", "--inserters", "2",
                 "--seed", "9", "--trace-out", str(t1))
    r2 = run_cli("simulate", "ring-par", "--size", "2", "--inserters", "2",
                 "--seed", "9", "--trace-out", str(t2))
    assert r1.code == r2.code == 0
    assert r1.out == r2.out
    assert t1.read_bytes() == t2.read_bytes()


def test_simulate_json_schema(run_cli):
    r = run_cli("simulate", "barrier", "--size", "3", "--seed", "1", "--json")
    assert r.code == 0
    doc = json.loads(r.out)
    assert doc["schema"] == "ringcheck-simulation-1"
    assert doc["quiescent"] is True
    assert doc["failures"] == []
    assert doc["seed"] == 1


def test_replay_of_a_simulated_schedule_is_clean(run_cli, tmp_path):
    path = tmp_path / "walk.trace"
    run_cli("simulate", "recovery", "--size", "3", "--seed", "2",
            "--trace-out", str(path))
    r = run_cli("replay", str(path))
    assert r.code == 0
    assert "replay complete: quiescent, all properties hold" in r.out
    assert "step 1:" in r.out
    assert "  | " in r.out  # per-step state delta lines

    quiet = run_cli("replay", str(path), "--quiet")
    assert quiet.code == 0
    assert "  | " not in quiet.out


# Full replay output of two seed-1 walks: the protocol's dump line (the
# barrier's bits, the trace read off its initiator's record) sits between
# the process summaries and the socket dump.
REPLAY_GOLDEN = {
    "barrier": """\
step 1: pid=0 kind=action fd=- cmd=client_arrival
  | m0 rank=0 holding=0 sent_in=1 sent_out=0
  | bits in=01 out=00
  | fd=0 other=1 owner=1 flag=lhs queue=[barrier_in]
step 2: pid=1 kind=event fd=0 cmd=barrier_in
  | m1 rank=1 holding=1 sent_in=0 sent_out=0
  | fd=0 other=1 owner=1 flag=lhs queue=[]
step 3: pid=1 kind=action fd=- cmd=client_arrival
  | m1 rank=1 holding=0 sent_in=1 sent_out=0
  | bits in=11 out=00
  | fd=2 other=3 owner=0 flag=lhs queue=[barrier_in]
step 4: pid=0 kind=event fd=2 cmd=barrier_in
  | m0 rank=0 holding=0 sent_in=1 sent_out=1
  | fd=0 other=1 owner=1 flag=lhs queue=[barrier_out]
  | fd=2 other=3 owner=0 flag=lhs queue=[]
step 5: pid=1 kind=event fd=0 cmd=barrier_out
  | m1 rank=1 holding=0 sent_in=1 sent_out=1
  | bits in=11 out=10
  | fd=0 other=1 owner=1 flag=lhs queue=[]
  | fd=2 other=3 owner=0 flag=lhs queue=[barrier_out]
step 6: pid=0 kind=event fd=2 cmd=barrier_out
  | bits in=11 out=11
  | fd=2 other=3 owner=0 flag=lhs queue=[]
replay complete: quiescent, all properties hold
""",
    "trace": """\
step 1: pid=0 kind=action fd=- cmd=start_trace
  | trace initiator=0 done=0 collected=[]
  | fd=0 other=1 owner=1 flag=lhs queue=[trace_req]
step 2: pid=1 kind=event fd=0 cmd=trace_req
  | fd=0 other=1 owner=1 flag=lhs queue=[]
  | fd=2 other=3 owner=0 flag=lhs queue=[trace_req]
step 3: pid=0 kind=event fd=2 cmd=trace_req
  | trace initiator=0 done=1 collected=[n0,n1]
  | fd=0 other=1 owner=1 flag=lhs queue=[trace_done]
  | fd=2 other=3 owner=0 flag=lhs queue=[]
step 4: pid=1 kind=event fd=0 cmd=trace_done
  | fd=0 other=1 owner=1 flag=lhs queue=[]
  | fd=2 other=3 owner=0 flag=lhs queue=[trace_done]
step 5: pid=0 kind=event fd=2 cmd=trace_done
  | fd=2 other=3 owner=0 flag=lhs queue=[]
replay complete: quiescent, all properties hold
""",
}


@pytest.mark.parametrize("algorithm", sorted(REPLAY_GOLDEN))
def test_replay_prints_the_episode_record_in_place(run_cli, tmp_path, algorithm):
    path = tmp_path / "walk.trace"
    sim = run_cli("simulate", algorithm, "--size", "2", "--seed", "1",
                  "--trace-out", str(path))
    assert sim.code == 0
    r = run_cli("replay", str(path))
    assert (r.code, r.out, r.err) == (0, REPLAY_GOLDEN[algorithm], "")


def test_replay_reproduces_the_violation(run_cli, tmp_path):
    path = tmp_path / "bug.trace"
    run_cli("verify", "ring-seq", "--size", "2", "--inserters", "2",
            "--trace-out", str(path))
    r = run_cli("replay", str(path), "--quiet")
    assert r.code == 1
    assert "violation reproduced" in r.out


def test_ring_seq_violation_names_the_lost_right_side(run_cli, tmp_path):
    # The entry daemon's right side takes EOF and a second inserter's query
    # then arrives: the protocol, not the socket layer, reports it.
    path = tmp_path / "bug.trace"
    text = "d0: cannot forward rhs_info_request, right side gone"
    r = run_cli("verify", "ring-seq", "--size", "2", "--inserters", "2",
                "--stable-output", "--trace-out", str(path))
    assert r.code == 1
    row, outcome, violation = r.out.splitlines()[1:]
    assert row.split() == ["ring-seq", "4", "0.00", "156/183", "20"]
    assert (outcome, violation) == ("outcome: VIOLATION", f"violation: {text}")
    assert f"violation={text}" in path.read_text()
    replayed = run_cli("replay", str(path), "--quiet")
    assert replayed.code == 1
    assert replayed.out.splitlines()[-1] == f"violation reproduced at step 12: {text}"


def test_simulated_handler_error_replays_to_the_same_violation(run_cli, tmp_path):
    path = tmp_path / "walk.trace"
    walk = run_cli("simulate", "ring-seq", "--size", "2", "--inserters", "4",
                   "--seed", "2", "--trace-out", str(path), "--json")
    doc = json.loads(walk.out)
    assert walk.code == 1
    assert doc["quiescent"] is False and len(doc["failures"]) == 1
    r = run_cli("replay", str(path), "--quiet")
    assert r.code == 1
    steps = doc["steps_taken"]
    assert r.out.splitlines()[-2].startswith(f"step {steps}: ")
    assert r.out.splitlines()[-1] == (
        f"violation reproduced at step {steps}: {doc['failures'][0]}")


def test_simulate_says_a_failing_walk_stopped_at_the_violation(run_cli):
    r = run_cli("simulate", "ring-seq", "--size", "2", "--inserters", "2", "--seed", "26")
    assert r.code == 1
    lines = r.out.splitlines()
    assert lines[0] == "seed 26: 12 steps, stopped at a violation"
    assert lines[1] == "failure: write on fd 0: peer endpoint is closed"
    assert "step budget exhausted" not in r.out


def test_simulate_budget_stop_is_labelled_as_such(run_cli):
    r = run_cli("simulate", "ring-par", "--size", "2", "--inserters", "2",
                "--seed", "9", "--max-steps", "3")
    assert r.code == 0
    assert r.out.splitlines()[0] == "seed 9: 3 steps, step budget exhausted"


def test_failing_walk_trace_names_its_violation(run_cli, tmp_path):
    path = tmp_path / "walk.trace"
    walk = run_cli("simulate", "ring-seq", "--size", "2", "--inserters", "2",
                   "--seed", "26", "--trace-out", str(path), "--json")
    assert walk.code == 1
    failure = json.loads(walk.out)["failures"][0]
    header = path.read_text().splitlines()
    assert "outcome=VIOLATION" in header
    assert f"violation={failure}" in header
    r = run_cli("replay", str(path), "--quiet")
    assert r.code == 1
    assert r.out.splitlines()[-1] == f"violation reproduced at step 12: {failure}"


def test_clean_walk_trace_has_no_violation_line(run_cli, tmp_path):
    path = tmp_path / "walk.trace"
    assert run_cli("simulate", "recovery", "--size", "3", "--seed", "2",
                   "--trace-out", str(path)).code == 0
    header = path.read_text().splitlines()
    assert "outcome=SIMULATED" in header
    assert not any(line.startswith("violation=") for line in header)


def test_quiet_replay_never_dumps_a_state(run_cli, tmp_path, monkeypatch):
    from ringcheck.explorer import GlobalState

    path = tmp_path / "walk.trace"
    run_cli("simulate", "recovery", "--size", "3", "--seed", "2",
            "--trace-out", str(path))
    dumps = []
    real_dump = GlobalState.dump
    monkeypatch.setattr(GlobalState, "dump",
                        lambda self: dumps.append(1) or real_dump(self))
    assert run_cli("replay", str(path), "--quiet").code == 0
    assert dumps == []
    assert run_cli("replay", str(path)).code == 0
    assert dumps


def test_replay_rejects_a_step_after_quiescence(run_cli, tmp_path):
    path = tmp_path / "walk.trace"
    run_cli("simulate", "ring-par", "--size", "2", "--inserters", "1",
            "--seed", "0", "--trace-out", str(path))
    lines = path.read_text().splitlines()
    steps = int(next(line for line in lines if line.startswith("steps="))[6:])
    lines = [f"steps={steps + 1}" if line.startswith("steps=") else line
             for line in lines] + [lines[-1]]
    extended = tmp_path / "extended.trace"
    extended.write_text("\n".join(lines) + "\n")
    assert run_cli("replay", str(path)).code == 0
    r = run_cli("replay", str(extended))
    assert r.code == 65
    assert f"step {steps + 1} is not enabled here" in r.err
    assert "the trace does not fit this scenario" in r.err


def test_replay_rejects_damaged_traces(run_cli, tmp_path):
    path = tmp_path / "mangled.trace"
    path.write_text("ringcheck-trace v1\nalgorithm=ring-par\n")
    assert run_cli("replay", str(path)).code == 65

    missing = run_cli("replay", str(tmp_path / "absent.trace"))
    assert missing.code == 64

    wrong = tmp_path / "wrong.trace"
    wrong.write_text(
        "ringcheck-trace v1\nalgorithm=ring-par\nsize=2\ninserters=0\n"
        "blocking=0\nfailure=none\nsteps=1\npid=0 kind=event fd=9 cmd=new_rhs\n")
    r = run_cli("replay", str(wrong))
    assert r.code == 65
    assert "not enabled" in r.err


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
def test_replay_reads_the_bytes_on_disk(run_cli, tmp_path, newline):
    path = tmp_path / "walk.trace"
    run_cli("simulate", "ring-par", "--size", "2", "--inserters", "1", "--seed", "4",
            "--trace-out", str(path))
    copy = tmp_path / "copy.trace"
    copy.write_bytes(path.read_bytes().replace(b"\n", newline.encode()))
    assert run_cli("replay", str(path)).code == 0
    r = run_cli("replay", str(copy))
    assert r.code == 65
    assert r.out == "" and "bad trace: line 1: " in r.err


def test_replay_rejects_a_file_that_is_not_text(run_cli, tmp_path):
    path = tmp_path / "binary.trace"
    path.write_bytes(b"\xd0\x00")
    r = run_cli("replay", str(path))
    assert r.code == 65
    assert "bad trace" in r.err


def test_replay_rejects_unbuildable_scenarios(run_cli, tmp_path):
    path = tmp_path / "unbuildable.trace"
    path.write_text(
        "ringcheck-trace v1\nalgorithm=recovery\nsize=1\ninserters=0\n"
        "blocking=0\nfailure=nondet\nsteps=0\n")
    r = run_cli("replay", str(path))
    assert r.code == 65
    assert "unbuildable" in r.err


def test_replay_refuses_a_header_past_the_process_bound_at_once(run_cli, tmp_path):
    path = tmp_path / "huge.trace"
    path.write_text(
        "ringcheck-trace v1\nalgorithm=ring-par\nsize=100000000\ninserters=0\n"
        "blocking=0\nfailure=none\nsteps=0\n")
    r = run_cli("replay", str(path))
    assert r.code == 65
    assert "unbuildable" in r.err and "at most" in r.err


@pytest.mark.parametrize("algorithm,failure", [("ring-par", "nondet"), ("recovery", "none")])
def test_replay_rejects_a_failure_policy_its_algorithm_lacks(run_cli, tmp_path,
                                                            algorithm, failure):
    path = tmp_path / "policy.trace"
    path.write_text(
        f"ringcheck-trace v1\nalgorithm={algorithm}\nsize=2\ninserters=0\n"
        f"blocking=0\nfailure={failure}\nsteps=0\n")
    r = run_cli("replay", str(path))
    assert r.code == 65
    assert r.out == "" and "failure" in r.err


def test_version_flag(run_cli):
    r = run_cli("--version")
    assert r.code == 0
    assert "ringcheck" in r.out


def test_module_entry_point_smoke():
    # The child imports the same ringcheck as this test run, installed or not.
    src = os.path.dirname(os.path.dirname(ringcheck.__file__))
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "ringcheck", "verify", "ring-par",
         "--size", "1", "--inserters", "1"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert proc.returncode == 0
    assert "outcome: VERIFIED" in proc.stdout


def test_the_command_line_imports_only_what_it_runs():
    # dataclasses would load inspect, ast and dis (about 1 MB of RSS), and
    # hashlib maps OpenSSL's _hashlib for the one blake2b the explorer takes
    # from _blake2. -S keeps site's .pth hooks out of the module list.
    src = os.path.dirname(os.path.dirname(ringcheck.__file__))
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, ringcheck.cli; print(' '.join(sorted(sys.modules)))"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "ringcheck.explorer" in loaded
    assert not loaded & {"dataclasses", "inspect"}
    if importlib.util.find_spec("_blake2") is not None:
        assert "_hashlib" not in loaded


def test_run_tables_quick_sweep_prints_one_row_per_configuration():
    # The script puts its checkout's src on sys.path itself.
    script = Path(__file__).resolve().parent.parent / "scripts" / "run_tables.py"
    spec = importlib.util.spec_from_file_location("run_tables", script)
    run_tables = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run_tables)
    configs = run_tables.configs(quick=True)
    proc = subprocess.run([sys.executable, str(script), "--quick"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines.count(TABLE_HEADER) == 1 and lines[0] == TABLE_HEADER
    rows = [line.split() for line in lines if line[:1].strip()][1:]
    assert [(r[0], int(r[1])) for r in rows] == [
        (cfg.algorithm, cfg.size + cfg.inserters) for cfg in configs]
    seq, seq_blocking = rows[-2:]
    assert configs[-2] == ScenarioConfig("ring-seq", size=2, inserters=2)
    assert seq[-1] == "VIOLATION"
    assert configs[-1] == ScenarioConfig("ring-seq", size=2, inserters=2, blocking=True)
    assert seq_blocking[-1] == "VERIFIED"


# A stand-in for perfbench/run.py: it notes its checkout and seed in a log
# beside the checkouts and prints one result line, faster on the change side
# except at seed 43, with equal transition rates on both sides.
FAKE_RUN = '''
import argparse, json, os
ap = argparse.ArgumentParser()
ap.add_argument("--workload"); ap.add_argument("--seed", type=int); ap.add_argument("--trace")
args = ap.parse_args()
side = os.path.basename(os.getcwd())
with open("../log", "a") as fh:
    fh.write(f"{side} {args.workload} {args.seed} {args.trace}\\n")
verify = 1 + args.seed / 100 - (0.1 if side == "change" and args.seed != 43 else 0)
print("progress")
print(json.dumps({"correct": True, "attempted": 3, "failed": 0, "metrics": {
    "verify_s": {"value": verify, "unit": "s"},
    "transitions_per_s": {"value": 1000.0, "unit": "1/s"}}}))
'''


def test_bench_pairs_alternates_the_sides_and_counts_the_changes_wins(tmp_path):
    for side in ("parent", "change"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text(FAKE_RUN)
    (tmp_path / "parent" / "BENCHMARK.json").write_text(json.dumps({
        "workloads": [{"name": "insert-seq"}, {"name": "barrier"}],
        "end_to_end": [{"name": "verify_s", "better": "lower"},
                       {"name": "transitions_per_s", "better": "higher"}]}))
    script = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
    unknown = subprocess.run([sys.executable, str(script), "parent", "change", "--workload", "ring"],
                             cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert unknown.returncode == 2
    assert "unknown workload 'ring': BENCHMARK.json lists insert-seq, barrier" in unknown.stderr
    proc = subprocess.run([sys.executable, str(script), "parent", "change", "--workload", "barrier",
                           "--out", "pairs.json"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    sides = [("parent", "change"), ("change", "parent")]
    assert (tmp_path / "log").read_text().split("\n")[:-1] == [
        f"{side} barrier {41 + i} 0" for i in range(10) for side in sides[i % 2]]
    out = json.loads((tmp_path / "pairs.json").read_text())
    block = out["pairs"]["barrier"]
    assert (block["pairs"], block["failed_ops"], block["attempted_ops"], block["correct"]) == (
        10, {"parent": 0, "change": 0}, {"parent": 30, "change": 30}, True)
    verify = block["verify_s"]
    assert verify["parent"] == {"median": 1.455, "q1": 1.4325, "q3": 1.4775}
    assert verify["change"] == {"median": 1.365, "q1": 1.3425, "q3": 1.3875}
    assert (verify["change_over_parent"], verify["change_wins"], verify["gap"]) == (0.9381, 9, 0.09)
    assert block["transitions_per_s"]["change_wins"] == 0  # a tie wins for neither side
    assert out["runs"]["barrier"]["verify_s"]["change"][:4] == pytest.approx(
        [1.31, 1.32, 1.43, 1.34])
    assert "verify_s: parent 1.455 [1.4325, 1.4775]  change 1.365" in proc.stdout


def test_code_lines_counts_only_the_lines_that_hold_code(tmp_path):
    path = tmp_path / "mixed.py"
    path.write_text(
        '"""A module docstring\n\nover three lines."""\n'
        "\n"
        "# a comment line\n"
        "def f(x):  # a comment after code\n"
        "    '''A function docstring.'''\n"
        "\n"
        "    # another comment\n"
        "    return x\n"
    )
    script = Path(__file__).resolve().parent.parent / "scripts" / "code_lines.py"
    proc = subprocess.run([sys.executable, str(script), str(path)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["2", str(path), "2", "total"]


def test_cli_matrix_digests_the_same_runs_alike_twice():
    script = Path(__file__).resolve().parent.parent / "scripts" / "cli_matrix.py"
    outputs = [subprocess.run([sys.executable, str(script), "ring-seq-2-2"],
                              capture_output=True, text=True, timeout=300) for _ in range(2)]
    assert all(proc.returncode == 0 for proc in outputs), outputs[0].stderr
    first, second = (proc.stdout.splitlines() for proc in outputs)
    assert first == second
    # Two verifies, three counterexample replays, four runs per seed for 4 seeds.
    assert len(first) == 2 + 3 + 4 * 4 + 1
    # The bytes the command line printed and wrote when the matrix was last
    # checked whole; a change to any of them is a change to the CLI.
    assert first[-1] == "5617c6bfc978bde5 total (21 runs)"
    replays = [line.split()[0] for line in first if " replay " in line][:2]
    assert replays[0] == replays[1]  # both searches found one counterexample


def test_cli_matrix_total_over_the_barrier_is_pinned():
    # The barrier's dump line and replays, which the ring models never print.
    script = Path(__file__).resolve().parent.parent / "scripts" / "cli_matrix.py"
    proc = subprocess.run([sys.executable, str(script), "barrier-4"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "a10e0ee08938670f total (18 runs)"


@pytest.mark.slow  # about 17 s: 171 runs, each a child process
def test_cli_matrix_total_over_every_model_is_pinned():
    script = Path(__file__).resolve().parent.parent / "scripts" / "cli_matrix.py"
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                          timeout=1200)
    assert proc.returncode == 0, proc.stderr
    # The bytes the command line printed and wrote over the whole matrix;
    # a change to any of them is a change to the CLI.
    assert proc.stdout.splitlines()[-1] == "1c37bb2cec57d957 total (171 runs)"


def test_unreached_lists_the_failure_code_a_ring_without_failures_never_runs():
    script = Path(__file__).resolve().parent.parent / "scripts" / "unreached.py"
    proc = subprocess.run([sys.executable, str(script), "ring-par", "--size", "1",
                           "--inserters", "1"], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    *found, count = proc.stdout.splitlines()
    assert count == f"{len(found)} statements unreached"
    # Each line is "module:line function: source"; match by function name.
    by_function: dict = {}
    for line in found:
        where, function, source = line.split(" ", 2)
        by_function.setdefault((where.split(":")[0], function.rstrip(":")), []).append(source)
    # ring-par has no failure: neither the daemon's nor the table's runs.
    assert by_function[("daemons.py", "inject_failure")] == [
        "d = g.procs[pid]", "d.phase = DEAD", "d.lhs_fd = INVALID_FD",
        "d.rhs_fd = INVALID_FD", "g.sockets.inject_failure(pid)"]
    assert ("sockets.py", "SocketTable.inject_failure") in by_function
    # The parallel insertion runs; its guard and the sequential branch do not.
    begin = by_function[("daemons.py", "begin_insertion")]
    assert begin[0] == 'raise ProtocolViolation(f"d{d.pid}: begin_insertion outside IDLE")'
    assert "g.sockets.write(d.pid, fd, message(RHS_INFO_REQUEST))" in begin
    assert "d.await_cmd = RECONNECT_RHS" not in begin
