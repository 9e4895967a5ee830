"""The per-layer metric table, and what each metric is meant to move.

Every metric comes from the traced run: times from the span summary
(:func:`tracing.summarize`), counts from the program's public
``SystemStats``, ``ScenarioArtifact``, ``Population`` and ``ResultCache``
APIs (:func:`workloads.counters`).  Times are self times, except the two
inclusive ones the table says so about (``workload.build_population_s``
and ``net.sim.run_s``).

``TARGETS`` records, per layer, the end-to-end metric and workload a
change to that layer should move, so a change can state its prediction
against it before any code is written.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

__all__ = ["LayerMetric", "LAYER_METRICS", "TARGETS", "layer_values"]


class LayerMetric(NamedTuple):
    name: str
    unit: str
    better: str
    #: ``value(spans, counters, extra)``: spans maps a span name to its
    #: ``{"count", "total", "self"}`` summary.
    value: Callable[[dict, dict, dict], float]


def _self(span: str):
    return lambda s, c, x: s.get(span, {}).get("self", 0.0)


def _total(span: str):
    return lambda s, c, x: s.get(span, {}).get("total", 0.0)


def _count(key: str):
    return lambda s, c, x: c[key]


def _ratio(num: str, *den: str):
    def value(s, c, x):
        base = sum(c[k] for k in den)
        return c[num] / base if base else 0.0
    return value


LAYER_METRICS = (
    # repro.workload: population synthesis and scheduling (set-up).
    LayerMetric("workload.build_population_s", "s", "lower", _total("workload.build_population")),
    LayerMetric("workload.columnar_build_s", "s", "lower", _self("workload.columnar_build")),
    LayerMetric("workload.schedule_sessions_s", "s", "lower", _self("workload.build_population")),
    LayerMetric("workload.warm_caches_s", "s", "lower", _self("workload.warm_caches")),
    LayerMetric("workload.mobility_s", "s", "lower", _self("workload.mobility")),
    LayerMetric("workload.demand_s", "s", "lower", _self("workload.demand")),
    LayerMetric("workload.behavior_s", "s", "lower", _self("workload.behavior")),
    LayerMetric("workload.scenario_self_s", "s", "lower", _self("workload.scenario")),
    LayerMetric("workload.peers_installed", "count", "higher", _count("peers_installed")),
    LayerMetric("workload.peers_materialized", "count", "lower", _count("peers_materialized")),
    # repro.net: the event loop.
    LayerMetric("net.sim.run_s", "s", "lower", _total("net.sim.run")),
    LayerMetric("net.sim.self_s", "s", "lower", _self("net.sim.run")),
    LayerMetric("net.sim.events", "count", "lower", _count("events")),
    LayerMetric("net.sim.heap_pushes", "count", "lower", _count("sim_heap_pushes")),
    LayerMetric("net.sim.stale_pops", "count", "lower", _count("sim_stale_pops")),
    # repro.net: flow settlement and water-filling.
    LayerMetric("net.flows.flush_s", "s", "lower", _self("net.flows.flush")),
    LayerMetric("net.flows.flushes", "count", "lower", _count("flushes")),
    LayerMetric("net.flows.waterfill_calls", "count", "lower", _count("waterfill_calls")),
    LayerMetric("net.flows.waterfill_rounds", "count", "lower", _count("waterfill_rounds")),
    LayerMetric("net.flows.mean_component_size", "flows", "lower", _count("mean_component_size")),
    LayerMetric("net.flows.heap_skip_ratio", "fraction", "higher",
                _ratio("flow_heap_skips", "flow_heap_pushes", "flow_heap_skips")),
    # repro.core: control channel, connection nodes, downloads.
    LayerMetric("core.control.request_s", "s", "lower", _self("core.control.request")),
    LayerMetric("core.control.requests", "count", "lower", _count("ctrl_requests")),
    LayerMetric("core.control.attempts", "count", "lower", _count("ctrl_attempts")),
    LayerMetric("core.control.retries", "count", "lower", _count("ctrl_retries")),
    LayerMetric("core.control.retry_ratio", "fraction", "lower", _ratio("ctrl_retries", "ctrl_requests")),
    LayerMetric("core.control.probes", "count", "lower", _count("ctrl_probes")),
    LayerMetric("core.control.probe_fail_ratio", "fraction", "lower",
                _ratio("ctrl_probe_failures", "ctrl_probes")),
    LayerMetric("core.cn.query_s", "s", "lower", _self("core.cn.query")),
    LayerMetric("core.downloads", "count", "higher", _count("downloads")),
    LayerMetric("core.flows_completed", "count", "higher", _count("flows_completed")),
    # repro.invariants: sampled and final audits.
    LayerMetric("invariants.audit_s", "s", "lower", _self("invariants.audit")),
    LayerMetric("invariants.audits", "count", "lower", _count("audits")),
    LayerMetric("invariants.checks", "count", "lower", _count("checks")),
    # repro.faults.
    LayerMetric("faults.injections", "count", "lower", _count("injections")),
    # repro.runner: artifact projection, shard merge, result cache.
    LayerMetric("runner.self_s", "s", "lower", _self("runner.run_scenario_artifact")),
    LayerMetric("runner.artifact_s", "s", "lower", _self("runner.artifact")),
    LayerMetric("runner.shard_merge_s", "s", "lower", _self("runner.shard_merge")),
    LayerMetric("runner.shards", "count", "lower", _count("shards")),
    LayerMetric("runner.cache_put_s", "s", "lower", _self("runner.cache_put")),
    LayerMetric("runner.cache_get_s", "s", "lower", _self("runner.cache_get")),
    LayerMetric("runner.artifact_bytes_per_download", "B", "lower",
                lambda s, c, x: x["artifact_bytes"] / c["downloads"]),
    # repro.analysis: the paper analyses over the trace.
    LayerMetric("analysis.paper_s", "s", "lower", _self("analysis.paper")),
    LayerMetric("analysis.us_per_download", "us", "lower",
                lambda s, c, x: 1e6 * s["analysis.paper"]["self"] / c["downloads"]),
    # The tracer itself: traced wall time minus the untraced median.
    LayerMetric("trace.overhead_s", "s", "lower",
                lambda s, c, x: s["bench.run"]["total"] - x["untraced_wall_s"]),
)

#: Layer prefix -> (end-to-end metrics it should move, on which workloads).
TARGETS = {
    "workload.": "setup_s, wall_s on installed_base_100k; predicted no change "
                 "on trace_small and storm_small",
    "net.sim.": "sim_s, events_per_s on storm_small, then trace_small",
    "net.flows.": "sim_s on trace_small; little on installed_base_100k",
    "core.": "sim_s on storm_small; predicted no change on trace_small, whose "
             "ideal control channel is synchronous",
    "invariants.": "sim_s on storm_small and installed_base_100k; stays 0 on "
                   "trace_small (audits off)",
    "faults.": "correctness only (storm_small)",
    "runner.": "wall_s on installed_base_100k; artifact bytes per download",
    "analysis.": "wall_s on all three workloads",
    "trace.": "none: the tracer's own cost",
}


def layer_values(spans: dict, counters: dict, extra: dict) -> dict[str, float]:
    """Every per-layer metric of one traced run, by name."""
    return {m.name: float(m.value(spans, counters, extra)) for m in LAYER_METRICS}
