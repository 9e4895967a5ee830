"""Shared helpers for the workload-model tests."""

from __future__ import annotations

import random

from repro.workload.columnar import build_columnar_store
from repro.workload.population import Population, PopulationConfig


def store_population(system, n: int, *, uploads_enabled: bool = True,
                     boot: bool = False) -> Population:
    """``n`` plain installs in a columnar store, with no session schedule.

    Unlike :func:`~repro.workload.population.build_population`, nothing is
    scheduled, so a model under test sees only the events it creates.  No
    provider attribution, no broken or attacker machines; every install
    takes ``uploads_enabled``.  ``boot=True`` brings every peer online now.
    """
    cfg = PopulationConfig(n_peers=n, broken_fraction=0.0)
    store = build_columnar_store(system, [], cfg, random.Random(0))
    store.uploads[:] = 1 if uploads_enabled else 0
    system.population_store = store
    population = Population(store=store)
    if boot:
        for peer in population.iter_peers():
            peer.boot()
    return population
