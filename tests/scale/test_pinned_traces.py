"""Pinned traces: the value-canonical digests of two tiny scenarios.

A tiered scenario (device classes live: uplink caps, cache budgets,
class-driven sessions) and a 2-shard scenario (region factoring, shard
seeds, the merge) each hash to a fixed :func:`trace_digest`.  The digests
were recorded when the eager object-graph build and the columnar store
still ran side by side in production, with both stores producing these
same bytes, so they pin the columnar store to the eager semantics on the
two paths the golden experiments do not reach.  They were re-pinned once
since, when session scheduling stopped queueing events past the run's
end: only the ``sim_heap_pushes`` and ``pending_events`` counters moved,
and the digest of everything else stayed the same.

If a deliberate modelling change moves them, regenerate with::

    PYTHONPATH=src:. python -c "
    from repro.runner import run_scenario_artifact
    from tests.scale.conftest import trace_digest
    from tests.scale.test_pinned_traces import SCENARIOS
    for name, build in SCENARIOS.items():
        print(name, trace_digest(run_scenario_artifact(build())))"

and declare the change in CHANGES.md.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.runner import run_scenario_artifact
from repro.workload.devices import default_mix
from repro.workload.sharding import ShardingConfig

from tests.scale.conftest import tiny_scenario, trace_digest

pytestmark = pytest.mark.scale


def _tiered():
    base = tiny_scenario()
    return dataclasses.replace(
        base,
        population=dataclasses.replace(base.population, device=default_mix()),
    )


def _sharded2():
    return tiny_scenario(sharding=ShardingConfig(shards=2))


SCENARIOS = {"tiered": _tiered, "sharded2": _sharded2}

PINNED = {
    "tiered":
        "d592ad0fbc4251872dca95b263b13d3a7576b198ee19cb0eda3d2ff322157b0a",
    "sharded2":
        "a3cb60a1e80c5294e6fb283ccad1ea93ead0bc69aeca50220b06cb6fd9162dfb",
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_trace_digest_is_pinned(name):
    artifact = run_scenario_artifact(SCENARIOS[name]())
    assert trace_digest(artifact) == PINNED[name]
    if name == "tiered":
        # The artifact's device record covers every install.
        assert sum(artifact.devices["census"].values()) == \
            artifact.config.population.n_peers
