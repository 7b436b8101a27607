"""Outside-in span tracer for the ringcheck benchmark.

``Tracer.install()`` replaces public functions and methods of the ringcheck
modules with wrappers. Each wrapped call is one span: its group (named
``<module>.<what>``), its parent (the innermost span still open), its start
and its end. Spans are folded into per-group totals as they close, so memory
stays flat however many calls a run makes:

    calls    spans closed
    incl_s   summed span durations
    self_s   summed durations minus the time covered by directly nested spans

A few counts are taken at the same boundaries (transitions per step command,
encoded bytes per digested state, handler errors leaving a layer, trace file
bytes). The program's source is not touched: wrapping happens after import,
in the benchmark's own child process.
"""

from __future__ import annotations

import marshal
import sys
import time
from collections import Counter

from ringcheck import barrier, cli, daemons, explorer, messages, properties, scenarios
from ringcheck import sockets, traceio
from ringcheck.errors import CheckError

# (group, owner, attribute). Module-level functions are also replaced in
# every ringcheck module that imported them by name (cli does).
SPANS = (
    ("explorer.explore", explorer, "explore"),
    ("explorer.enabled_steps", explorer, "enabled_steps"),
    ("explorer.apply", explorer, "apply"),
    ("explorer.digest", explorer, "state_digest"),
    ("explorer.canon", explorer.GlobalState, "canon"),
    ("explorer.clone", explorer.GlobalState, "clone"),
    ("explorer.simulate", explorer, "simulate"),
    ("sockets.ops", sockets.SocketTable, "connect"),
    ("sockets.ops", sockets.SocketTable, "accept"),
    ("sockets.ops", sockets.SocketTable, "write"),
    ("sockets.ops", sockets.SocketTable, "read"),
    ("sockets.ops", sockets.SocketTable, "close"),
    ("sockets.ops", sockets.SocketTable, "inject_failure"),
    ("sockets.ready_events", sockets.SocketTable, "ready_events"),
    ("sockets.clone", sockets.SocketTable, "clone"),
    ("sockets.canon", sockets.SocketTable, "canon"),
    ("messages.canon", messages, "canon_message"),
    ("messages.canon", messages.Registry, "key"),
    ("daemons.handle_event", daemons, "handle_event"),
    ("daemons.actions", daemons, "begin_insertion"),
    ("daemons.actions", daemons, "inject_failure"),
    ("daemons.actions", daemons, "start_trace"),
    ("daemons.clone", daemons.DaemonState, "clone"),
    ("daemons.clone", daemons.TraceState, "clone"),
    ("daemons.canon", daemons.DaemonState, "canon"),
    ("daemons.canon", daemons.TraceState, "canon"),
    ("barrier.handle_event", barrier, "handle_event"),
    ("barrier.arrival", barrier, "client_reaches_barrier"),
    ("barrier.clone", barrier.ManagerState, "clone"),
    ("barrier.clone", barrier.BarrierBits, "clone"),
    ("barrier.canon", barrier.ManagerState, "canon"),
    ("barrier.canon", barrier.BarrierBits, "canon"),
    ("scenarios.build", scenarios, "build_scenario"),
    ("scenarios.build", scenarios.Scenario, "initial_state"),
    ("scenarios.build", scenarios.Scenario, "default_properties"),
    ("traceio.write", traceio, "write_trace"),
    ("traceio.read", traceio, "read_trace"),
    ("cli.replay", cli, "_cmd_replay"),
    ("cli.report", cli, "_report_json"),
    ("cli.report", cli, "_report_table"),
)

# Property checks are reached through properties._CHECKS, which
# Scenario.default_properties copies into each Property it builds.
PROPERTY_KINDS = tuple(sorted(properties._CHECKS))

GROUPS = tuple(dict.fromkeys(
    [group for group, _, _ in SPANS] + [f"properties.{kind}" for kind in PROPERTY_KINDS]
))

# Every value ScheduleStep.cmd can take.
STEP_CMDS = tuple(messages.ALL_COMMANDS) + (
    explorer.EVENT_CONNECT, explorer.EVENT_EOF,
    explorer.ACT_BEGIN_INSERTION, explorer.ACT_CLIENT_ARRIVAL,
    explorer.ACT_INJECT_FAILURE, explorer.ACT_START_TRACE,
)

_MODULES = tuple(m for name, m in sys.modules.items()
                 if name == "ringcheck" or name.startswith("ringcheck."))


def _replace(owner, attr, new):
    """Rebind a method on its class, or a function everywhere ringcheck imported it."""
    old = getattr(owner, attr)
    if isinstance(owner, type):
        setattr(owner, attr, new)
        return
    for mod in _MODULES:
        if getattr(mod, attr, None) is old:
            setattr(mod, attr, new)


class Tracer:
    def __init__(self):
        self.groups = {group: [0, 0.0, 0.0] for group in GROUPS}  # calls, incl, self
        self.counts = Counter()
        # Open spans, innermost last: [time covered by child spans, layer].
        # The root frame stands for the benchmark itself.
        self._stack = [[0.0, "bench"]]

    # -- wrapping -----------------------------------------------------------

    def _span(self, group, fn, before=None, after=None):
        stats = self.groups[group]
        layer = group.split(".", 1)[0]
        errors_key = f"{layer}.check_errors"
        stack = self._stack
        counts = self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            parent = stack[-1]
            frame = [0.0, layer]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except CheckError:
                if parent[1] != layer:  # count each error once, where it leaves the layer
                    counts[errors_key] += 1
                raise
            finally:
                dur = clock() - t0
                stack.pop()
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[0]
                parent[0] += dur
            if after is not None:
                after(result)
            return result

        return traced

    def install(self) -> None:
        counts = self.counts

        def count_step(args):
            counts[f"explorer.transitions.{args[1].cmd}"] += 1

        def count_search(report):
            counts["explorer.searched"] += report.states_stored - 1 + report.states_matched
            counts["explorer.matched"] += report.states_matched

        hooks = {"explorer.apply": (count_step, None), "explorer.explore": (None, count_search)}
        for group, owner, attr in SPANS:
            before, after = hooks.get(group, (None, None))
            _replace(owner, attr, self._span(group, getattr(owner, attr), before, after))

        for kind in PROPERTY_KINDS:
            properties._CHECKS[kind] = self._span(f"properties.{kind}", properties._CHECKS[kind])

        # Encoded size of each digested state, measured where it is encoded.
        class Marshal:
            @staticmethod
            def dumps(value, version=marshal.version):
                data = marshal.dumps(value, version)
                counts["explorer.encoded_states"] += 1
                counts["explorer.encoded_bytes"] += len(data)
                return data

        explorer.marshal = Marshal

        render = traceio.render_trace

        def render_counted(*args, **kwargs):
            text = render(*args, **kwargs)
            counts["traceio.write.bytes"] += len(text.encode("utf-8"))
            return text

        _replace(traceio, "render_trace", render_counted)

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Flat per-layer figures: <group>.calls, <group>.self_s and the counts."""
        out = {}
        for group, (calls, _incl, self_s) in self.groups.items():
            out[f"{group}.calls"] = calls
            out[f"{group}.self_s"] = self_s
        for cmd in STEP_CMDS:
            out[f"explorer.transitions.{cmd}"] = self.counts[f"explorer.transitions.{cmd}"]
        searched = self.counts["explorer.searched"]
        out["explorer.match_ratio"] = self.counts["explorer.matched"] / searched if searched else 0.0
        states = self.counts["explorer.encoded_states"]
        out["explorer.encoding_bytes"] = self.counts["explorer.encoded_bytes"] / states if states else 0.0
        out["daemons.check_errors"] = self.counts["daemons.check_errors"]
        out["traceio.write.bytes"] = self.counts["traceio.write.bytes"]
        return out

    def inclusive(self) -> dict[str, float]:
        return {group: incl for group, (_c, incl, _s) in self.groups.items()}
