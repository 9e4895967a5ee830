"""In-memory span recording around the program's public functions.

The benchmark never edits the program: it wraps public functions and
methods from the outside, in the child process that runs one workload.
A :class:`Recorder` keeps every span as ``[name, start, end, parent]``
(``parent`` is the index of the enclosing span, -1 for a root) in a plain
list.  Times are the thread's CPU clock: the program is single-threaded,
and ``run.py`` time-shares its CPU with the host-speed probe
(``hostspeed.py``), so CPU time is the time the program itself took.

:func:`summarize` turns the list into per-name inclusive and self times,
where a span's self time is its duration minus the part of it that its
child spans cover.

Two installs exist:

* :func:`install_boundaries` — the untraced run.  Only the scenario
  entry (``run_scenario``) and the event loop (``Simulator.run``) are
  wrapped: a few calls per scenario, enough for ``setup_s`` and
  ``sim_s``.
* :func:`install_tracing` — the traced run.  Every boundary of the
  per-layer table in ``layers.py`` gets a span.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager

__all__ = [
    "Recorder", "install_boundaries", "install_tracing", "summarize",
    "setup_seconds",
]

#: Span names used by both installs (the rest are in ``TRACED_*``).
SCENARIO = "workload.scenario"
SIM_RUN = "net.sim.run"
ROOT = "bench.run"

#: Module-level functions wrapped in the traced run: (module, attribute,
#: span name).  Every ``repro`` module that imported the function by name
#: is patched too (see :func:`_patch_function`).
TRACED_FUNCTIONS = (
    ("repro.workload.population", "build_population", "workload.build_population"),
    ("repro.workload.columnar", "build_columnar_store", "workload.columnar_build"),
    ("repro.workload.scenario", "seed_warm_caches", "workload.warm_caches"),
    ("repro.runner.artifact", "artifact_from_result", "runner.artifact"),
    ("repro.runner.sharding", "merge_shard_artifacts", "runner.shard_merge"),
)

#: Methods wrapped in the traced run: (module, class, method, span name).
TRACED_METHODS = (
    ("repro.workload.behavior", "UserBehavior", "schedule_setting_changes", "workload.behavior"),
    ("repro.workload.behavior", "UserBehavior", "schedule_link_busy_periods", "workload.behavior"),
    ("repro.workload.mobility", "MobilityModel", "apply", "workload.mobility"),
    ("repro.workload.demand", "DemandGenerator", "schedule_all", "workload.demand"),
    ("repro.net.flows", "FlowNetwork", "flush", "net.flows.flush"),
    ("repro.core.control.channel", "ControlChannel", "request", "core.control.request"),
    ("repro.core.control.connection_node", "ConnectionNode", "query", "core.cn.query"),
    ("repro.invariants.auditor", "InvariantAuditor", "audit", "invariants.audit"),
)


class Recorder:
    """Spans of one process, kept in memory until the run ends."""

    def __init__(self, clock=time.thread_time):
        self.clock = clock
        #: ``[name, start, end, parent_index]`` per span, in start order.
        self.spans: list[list] = []
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, self.clock(), None, parent])
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = self.clock()
        popped = self._open.pop()
        if popped != index:
            raise RuntimeError(
                f"span {self.spans[index][0]!r} closed out of order "
                f"(innermost open span is {self.spans[popped][0]!r})")

    @contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def wrap(self, fn, name: str):
        """``fn`` with every call recorded as a span called ``name``."""
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end(index)

        return traced


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: call ``count``, inclusive ``total`` and ``self`` time.

    Self time is the span's duration minus the union of its children's
    intervals, each clipped to the parent.  For properly nested spans the
    self times of a tree sum to its root's duration.
    """
    covered: list[list[tuple[float, float]]] = [[] for _ in spans]
    for _name, start, end, parent in spans:
        if parent >= 0:
            covered[parent].append((start, end))
    out: dict[str, dict[str, float]] = {}
    for (name, start, end, _parent), children in zip(spans, covered):
        entry = out.setdefault(name, {"count": 0, "total": 0.0, "self": 0.0})
        entry["count"] += 1
        entry["total"] += end - start
        entry["self"] += (end - start) - _union_within(children, start, end)
    return out


def _union_within(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    covered = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            covered += end - start
            reach = end
    return covered


def setup_seconds(spans: list[list]) -> float:
    """Sum over scenarios of (event loop entry - scenario start).

    A scenario whose event loop never started contributes nothing.
    """
    first_run: dict[int, float] = {}
    for name, start, _end, parent in spans:
        if name == SIM_RUN and parent >= 0 and spans[parent][0] == SCENARIO:
            first_run.setdefault(parent, start)
    return sum(start - spans[i][1] for i, start in first_run.items())


def _patch_function(recorder: Recorder, module_name: str, attr: str,
                    name: str) -> None:
    """Wrap a module function everywhere a ``repro`` module references it."""
    original = getattr(importlib.import_module(module_name), attr)
    _replace_everywhere(original, recorder.wrap(original, name))


def _replace_everywhere(original, traced) -> None:
    for mod_name, module in list(sys.modules.items()):
        if not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, traced)


def _patch_method(recorder: Recorder, module_name: str, cls_name: str,
                  method: str, name: str) -> None:
    cls = getattr(importlib.import_module(module_name), cls_name)
    setattr(cls, method, recorder.wrap(getattr(cls, method), name))


def install_boundaries(recorder: Recorder) -> None:
    """The untraced run's only wrappers: scenario entry and event loop."""
    # Load the runner first: it imports ``run_scenario`` by name.
    importlib.import_module("repro.runner")
    _patch_function(recorder, "repro.workload.scenario", "run_scenario", SCENARIO)
    _patch_method(recorder, "repro.net.sim", "Simulator", "run", SIM_RUN)


def install_tracing(recorder: Recorder, populations: list) -> None:
    """Every per-layer boundary, plus the two untraced ones.

    Each :class:`~repro.workload.Population` the run builds is appended to
    ``populations``, so its materialization count can be read at the end.
    """
    install_boundaries(recorder)
    build = importlib.import_module("repro.workload.population").build_population

    @functools.wraps(build)
    def build_population(*args, **kwargs):
        population = build(*args, **kwargs)
        populations.append(population)
        return population

    _replace_everywhere(build, build_population)
    for module_name, attr, name in TRACED_FUNCTIONS:
        _patch_function(recorder, module_name, attr, name)
    for module_name, cls_name, method, name in TRACED_METHODS:
        _patch_method(recorder, module_name, cls_name, method, name)

    # The sampled audit is a bound method handed to the simulator at system
    # construction; wrap it on the way in.
    from repro.net.sim import Simulator

    set_hook = Simulator.set_audit_hook

    def set_audit_hook(self, hook, *, every_events):
        return set_hook(self, recorder.wrap(hook, "invariants.audit"),
                        every_events=every_events)

    Simulator.set_audit_hook = set_audit_hook
