"""Pinned traces: the value-canonical digests of two tiny scenarios.

A tiered scenario (device classes live: uplink caps, cache budgets,
class-driven sessions) and a 2-shard scenario (region factoring, shard
seeds, the merge) each hash to a fixed :func:`trace_digest`.  The digests
were recorded when the eager object-graph build and the columnar store
still ran side by side in production, with both stores producing these
same bytes, so they pin the columnar store to the eager semantics on the
two paths the golden experiments do not reach.

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
        "91d45c7ea0bf240b060609fa228a2e33d3862862d07ebbd7da757552d06eea04",
    "sharded2":
        "6364cd78a017b3839a8a3b60ef9e86c0de52908922cac70e931fe7e7f25ace63",
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_trace_digest_is_pinned(name):
    artifact = run_scenario_artifact(SCENARIOS[name]())
    assert trace_digest(artifact) == PINNED[name]
    if name == "tiered":
        # The artifact's device record covers every install.
        assert sum(artifact.devices["census"].values()) == \
            artifact.config.population.n_peers
