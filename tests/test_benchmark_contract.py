"""What the benchmark's tracer relies on in the program.

perfbench/tracer.py wraps program functions and methods by name and counts
encoded bytes by replacing explorer.marshal. A refactor that renames a
wrapped attribute, or encodes without going through explorer.marshal, would
break the traced benchmark run (perfbench/run.py --trace 1) without failing
any other test. The tracer is loaded from its source text, so the test
writes nothing under perfbench/.
"""

import types
from pathlib import Path

import pytest

from ringcheck import explorer
from ringcheck.scenarios import ScenarioConfig, build_scenario

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
    calls = []
    monkeypatch.setattr(explorer, "apply", lambda g, step: calls.append(step) or real(g, step))
    report = explorer.explore(build_scenario(ScenarioConfig("ring-par", size=1, inserters=2)))
    assert report.outcome == explorer.VERIFIED
    assert len(calls) == report.states_stored - 1 + report.states_matched
