"""Scale-parity: sharded runs vs the single-process semantics.

**Width independence** — a region-sharded scenario produces the same
value-canonical trace whether its shards run in-process (``shards=1``) or
fanned across a process pool (``shards=4``).  The 2-shard trace itself is
pinned by digest in ``test_pinned_traces.py``.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.runner import run_scenario_artifact
from repro.workload.sharding import ShardingConfig

from tests.scale.conftest import tiny_scenario, trace_digest

pytestmark = pytest.mark.scale


def _sharded(shards: int):
    return tiny_scenario(sharding=ShardingConfig(shards=shards))


def test_shard_width_does_not_change_the_trace():
    a1 = run_scenario_artifact(_sharded(1))
    a4 = run_scenario_artifact(_sharded(4))
    assert trace_digest(a1) == trace_digest(a4)
    # Only the execution-width bookkeeping may differ.
    assert a1.sharding["shards"] == 1 and a4.sharding["shards"] == 4
    assert a1.sharding["regions"] == a4.sharding["regions"]
    assert a1.sharding["peers_per_region"] == a4.sharding["peers_per_region"]


def test_shard_reconciliation_is_clean():
    art = run_scenario_artifact(_sharded(2))
    reconcile = art.sharding["reconcile"]
    assert reconcile["guid_overlap"] == 0
    assert reconcile["cross_region_peer_bytes"] == 0
    assert sum(
        r["peers"] for r in reconcile["per_region"].values()
    ) == art.config.population.n_peers


def test_sharded_and_unsharded_agree_on_totals():
    # Sharding factors the *workload* per region, so per-record traces
    # legitimately differ from the unsharded run — but conservation holds:
    # every download lands, every region keeps its apportioned peers.
    cfg = tiny_scenario()
    flat = run_scenario_artifact(cfg)
    shard = run_scenario_artifact(
        dataclasses.replace(cfg, sharding=ShardingConfig(shards=2))
    )
    assert len(shard.logstore.downloads) == len(flat.logstore.downloads)
    assert sum(shard.sharding["peers_per_region"].values()) == \
        cfg.population.n_peers
