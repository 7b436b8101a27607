"""What the benchmark's tracer relies on in the program.

perfbench/tracer.py wraps program functions and methods by name and counts
encoded bytes by replacing explorer.marshal. A refactor that renames a
wrapped attribute, or encodes without going through explorer.marshal, would
break the traced benchmark run (perfbench/run.py --trace 1) without failing
any other test. The tracer is loaded from its source text, so the test
writes nothing under perfbench/.
"""

import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

from ringcheck import explorer
from ringcheck.scenarios import ScenarioConfig, build_scenario

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    if not TRACER.exists():
        pytest.skip("perfbench/tracer.py is not in this checkout")
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), module.__dict__)
    return module


def test_every_wrapped_attribute_exists(tracer):
    missing = [f"{group}: {getattr(owner, '__name__', owner)}.{attr}"
               for group, owner, attr in tracer.SPANS if not hasattr(owner, attr)]
    assert not missing, f"the tracer wraps names the program no longer has: {missing}"
    assert all(callable(getattr(owner, attr)) for _, owner, attr in tracer.SPANS)


def test_encoding_goes_through_explorer_marshal(monkeypatch):
    real = explorer.marshal
    calls = []

    class CountingMarshal:
        @staticmethod
        def dumps(value, version=real.version):
            calls.append(value)
            return real.dumps(value, version)

    g = build_scenario(ScenarioConfig("ring-par", size=2, inserters=1)).initial_state()
    expected = explorer.encode(g)
    monkeypatch.setattr(explorer, "marshal", CountingMarshal)
    assert explorer.encode(g) == expected
    explorer.state_digest(g)
    assert len(calls) == 2


def test_explore_applies_each_transition_once_through_the_module_global(monkeypatch):
    real = explorer.apply
    calls, ran = [], []

    def counted(g, step, *derived):  # derived: a key explore derived, and its add
        calls.append(step)
        succ = real(g, step, *derived)
        if succ is not None:
            ran.append(step)
        return succ

    monkeypatch.setattr(explorer, "apply", counted)
    report = explorer.explore(build_scenario(ScenarioConfig("ring-par", size=1, inserters=2)))
    assert report.outcome == explorer.VERIFIED
    assert len(calls) == report.states_stored - 1 + report.states_matched
    assert len(ran) < len(calls)  # some steps were matched by a derived key, not run


# Runs in a child process because installing the tracer rebinds program
# functions for the rest of the interpreter's life.
TRACED_SEARCHES = """
import json, sys, types
tracer = types.ModuleType("perfbench_tracer")
exec(compile(open(sys.argv[1], encoding="utf-8").read(), sys.argv[1], "exec"), tracer.__dict__)
spans = tracer.Tracer()
spans.install()
from ringcheck import explorer
from ringcheck.scenarios import ScenarioConfig, build_scenario
for cfg in (ScenarioConfig("ring-par", size=1, inserters=2), ScenarioConfig("recovery", size=3),
            ScenarioConfig("barrier", size=3)):
    sc = build_scenario(cfg)
    assert explorer.explore(sc, sc.default_properties()).outcome == explorer.VERIFIED
print(json.dumps(spans.metrics()))
"""


def test_traced_searches_reach_every_protocol_layer(tracer):
    before = sorted(p.name for p in TRACER.parent.iterdir())
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", TRACED_SEARCHES, str(TRACER)], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    metrics = json.loads(run.stdout)
    for group in ("daemons.handle_event", "daemons.actions", "barrier.handle_event",
                  "barrier.arrival", "explorer.enabled_steps", "sockets.ready_events"):
        assert metrics[f"{group}.calls"] > 0, group
    transitions = sum(v for k, v in metrics.items() if k.startswith("explorer.transitions."))
    assert metrics["explorer.apply.calls"] == transitions > 0
    assert sorted(p.name for p in TRACER.parent.iterdir()) == before


def test_every_per_layer_metric_has_a_tracer_value(tracer):
    # run.py adds bench.traced_verify_s itself; every other per-layer name is
    # the tracer's, and one it no longer reports would fail run.py's emit().
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = {m["name"] for m in spec["per_layer"]} - {"bench.traced_verify_s"}
    missing = sorted(names - tracer.Tracer().metrics().keys())
    assert not missing, f"BENCHMARK.json names per-layer metrics the tracer lacks: {missing}"
