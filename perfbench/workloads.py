"""The benchmark's workloads: scenario configs, analyses, output checks.

Each workload is one batch job: a single
:func:`repro.runner.run_scenario_artifact` call in one process and one
thread, then the paper analyses over the resulting trace.  There is no
arrival process.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random

from repro.analysis import (
    build_traffic_matrix, busiest_ases, figure2_peer_distribution,
    figure4_speed_cdfs, figure7_pause_rates, figure10_balance_scatter,
    figure11_pair_balance, locality_shares, offload_summary,
    reliability_outcomes, table1_overall_statistics,
)
from repro.analysis.records import OUTCOME_COMPLETED
from repro.core.config import ControlChannelConfig, InvariantConfig
from repro.experiments.common import standard_config
from repro.experiments.exp_scale import scale_config
from repro.faults.scenarios import build_scenario
from repro.runner import shard_configs
from repro.workload.population import DAY

__all__ = ["config", "paper_analyses", "check_outputs", "counters"]


def _trace_small(seed: int):
    base = standard_config("small", seed)
    # Audits are pure observers (same trace on or off); off keeps the
    # invariant layer out of this workload entirely.
    system = dataclasses.replace(base.system,
                                 invariants=InvariantConfig(mode="off"))
    return dataclasses.replace(base, system=system)


def _installed_base_100k(seed: int):
    # Width 1: all nine region shards and the merge run in this process.
    return scale_config(100_000, seed=seed, shards=1, strict=True)


def _storm_small(seed: int):
    base = standard_config("small", seed)
    # The fault-matrix window: start at 25% of the trace, hold for 25%.
    at = 0.25 * base.duration_days * DAY
    system = dataclasses.replace(
        base.system,
        channel=ControlChannelConfig(latency=0.05, loss_prob=0.02),
        invariants=InvariantConfig(mode="strict"),
    )
    return dataclasses.replace(
        base, system=system,
        faults=build_scenario("perfect_storm", at=at, duration=at),
    )


_BUILDERS = {
    "trace_small": _trace_small,
    "installed_base_100k": _installed_base_100k,
    "storm_small": _storm_small,
}


def config(workload: str, seed: int):
    """The :class:`~repro.workload.ScenarioConfig` of one workload."""
    return _BUILDERS[workload](seed)


def paper_analyses(artifact, order_seed: int) -> dict:
    """Run the paper analyses over a trace, in an order drawn from a seed.

    Covers offload (§5.1), Table 1, Figure 2, Figure 4 for each of the ten
    busiest ASes, Figure 7, reliability, the AS traffic matrix with
    Figures 10 and 11, and the locality shares.  The results do not
    depend on the order.
    """
    logs, geodb = artifact.logstore, artifact.geodb

    def traffic():
        matrix = build_traffic_matrix(logs, geodb)
        return (figure10_balance_scatter(matrix),
                figure11_pair_balance(matrix, artifact.topology,
                                      directly_connected_only=False),
                figure11_pair_balance(matrix, artifact.topology,
                                      directly_connected_only=True))

    steps = [
        ("offload", lambda: offload_summary(logs)),
        ("table1", lambda: table1_overall_statistics(logs, geodb)),
        ("fig2", lambda: figure2_peer_distribution(logs, geodb)),
        ("fig4", lambda: [figure4_speed_cdfs(logs, geodb, asn)
                          for asn in busiest_ases(logs, geodb, n=10)]),
        ("fig7", lambda: figure7_pause_rates(logs)),
        ("reliability", lambda: reliability_outcomes(logs)),
        ("traffic", traffic),
        ("locality", lambda: locality_shares(logs, geodb)),
    ]
    random.Random(order_seed).shuffle(steps)
    return {name: step() for name, step in steps}


def _expected_downloads(cfg) -> int:
    if cfg.sharding is None:
        return cfg.resolved_demand().total_downloads
    return sum(sub.resolved_demand().total_downloads
               for _region, sub in shard_configs(cfg))


def check_outputs(cfg, artifact) -> list[str]:
    """Every way this run's outputs are wrong, as messages (empty = good)."""
    problems: list[str] = []
    downloads = artifact.logstore.downloads
    expected = _expected_downloads(cfg)
    if len(downloads) != expected:
        problems.append(f"{len(downloads)} download records, expected {expected}")
    for rec in downloads:
        if rec.edge_bytes < 0 or rec.peer_bytes < 0 or rec.ended_at < rec.started_at:
            problems.append(f"download {rec.guid}/{rec.cid} has negative bytes or time")
        elif rec.peer_bytes != sum(rec.per_uploader_bytes.values()):
            problems.append(f"download {rec.guid}/{rec.cid}: peer bytes != per-uploader sum")
        elif rec.outcome == OUTCOME_COMPLETED and rec.total_bytes != rec.size:
            problems.append(f"download {rec.guid}/{rec.cid}: completed with "
                            f"{rec.total_bytes} of {rec.size} bytes")
        if len(problems) > 20:
            break
    efficiency = offload_summary(artifact.logstore).byte_weighted_efficiency
    if not 0.0 < efficiency <= 1.0:
        problems.append(f"peer efficiency {efficiency} outside (0, 1]")
    inv = artifact.invariants
    pinned = cfg.system.invariants.mode  # every workload pins one, never "auto"
    if inv.mode != pinned:
        problems.append(f"invariant mode {inv.mode}, expected {pinned}")
    errors = [v for v in artifact.violations if v["severity"] == "error"]
    if inv.errors or errors:
        problems.append(f"{max(inv.errors, len(errors))} error-severity invariant violations")
    return problems


def _trace_digest(downloads) -> str:
    digest = hashlib.sha256()
    for rec in downloads:
        digest.update(repr((rec.guid, rec.cid, rec.outcome, rec.started_at,
                            rec.ended_at, rec.edge_bytes, rec.peer_bytes,
                            sorted(rec.per_uploader_bytes.items()))).encode())
    return digest.hexdigest()


def counters(artifact, populations) -> dict:
    """Deterministic counts of one run, from the program's public APIs.

    ``populations`` are the :class:`~repro.workload.Population` objects the
    run built (the traced run captures them; the untraced run passes none
    and gets no materialization count).
    """
    stats = artifact.stats
    flows = stats.flows
    channel = stats.channel
    out = {
        "events": stats.events_processed,
        "sim_heap_pushes": stats.sim_heap_pushes,
        "sim_stale_pops": stats.sim_stale_pops,
        "flushes": flows.flushes,
        "waterfill_calls": flows.waterfill_calls,
        "waterfill_rounds": flows.waterfill_rounds,
        "mean_component_size": flows.mean_component_size,
        "flow_heap_pushes": flows.heap_pushes,
        "flow_heap_skips": flows.heap_skips,
        "ctrl_requests": channel.requests,
        "ctrl_attempts": channel.attempts,
        "ctrl_retries": channel.retries,
        "ctrl_probes": channel.probes,
        "ctrl_probe_failures": channel.probe_failures,
        "downloads": len(artifact.logstore.downloads),
        "flows_completed": stats.flows_completed,
        "audits": stats.invariants.audits + stats.invariants.final_audits,
        "checks": stats.invariants.checks,
        "injections": len(artifact.timeline),
        "shards": len(artifact.sharding.get("regions", ())) or 1,
        "peers_installed": stats.peers,
        "peer_efficiency": offload_summary(artifact.logstore).byte_weighted_efficiency,
        "trace_sha256": _trace_digest(artifact.logstore.downloads),
    }
    if populations:
        out["peers_materialized"] = sum(
            p.store.materialized_count() if p.store is not None else p.peer_count()
            for p in populations)
    return out

