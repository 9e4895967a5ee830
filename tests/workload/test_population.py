"""Tests for population synthesis and the session process."""

from __future__ import annotations

import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import NetSessionSystem
from repro.net.sim import Simulator
from repro.workload.catalog import CatalogConfig, build_catalog
from repro.workload.population import (
    DAY, PopulationConfig, _schedule_peer_days, build_population,
    diurnal_rate,
)


@pytest.fixture
def built():
    system = NetSessionSystem(seed=5)
    catalog = build_catalog(random.Random(1), CatalogConfig(objects_per_provider=10))
    population = build_population(
        system, catalog.providers, PopulationConfig(n_peers=150))
    return system, population


class TestSynthesis:
    def test_population_size(self, built):
        _system, population = built
        assert population.peer_count() == 150

    def test_upload_mix_reflects_providers(self, built):
        _system, population = built
        enabled = sum(1 for p in population.peers if p.uploads_enabled)
        # Weighted mean of Table 4 rates is ~30%; loose bounds at n=150.
        assert 0.1 <= enabled / 150 <= 0.6

    def test_broken_fraction_applied(self):
        system = NetSessionSystem(seed=5)
        catalog = build_catalog(random.Random(1), CatalogConfig(objects_per_provider=5))
        population = build_population(
            system, catalog.providers,
            PopulationConfig(n_peers=300, broken_fraction=0.5,
                             broken_corruption_prob=0.9))
        broken = sum(1 for p in population.peers
                     if p.piece_corruption_prob == 0.9)
        assert 100 <= broken <= 200

    def test_attacker_fraction_applied(self):
        system = NetSessionSystem(seed=5)
        catalog = build_catalog(random.Random(1), CatalogConfig(objects_per_provider=5))
        population = build_population(
            system, catalog.providers,
            PopulationConfig(n_peers=200, attacker_fraction=0.25))
        attackers = sum(1 for p in population.peers if p.accounting_attacker)
        assert 20 <= attackers <= 80

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            PopulationConfig(n_peers=0)
        with pytest.raises(ValueError):
            PopulationConfig(mean_daily_uptime_hours=25.0)


class TestSessions:
    def test_peers_come_online_during_first_day(self, built):
        system, population = built
        system.run(until=1.5 * DAY)
        assert system.online_peer_count() > 0.3 * population.peer_count()

    def test_daily_cycle_produces_multiple_logins(self, built):
        system, population = built
        system.run(until=4 * DAY)
        by_guid = system.logstore.logins_by_guid()
        multi = sum(1 for logins in by_guid.values() if len(logins) >= 2)
        assert multi > 0.3 * len(by_guid)

    def test_always_on_peers_stay_online(self, built):
        system, population = built
        system.run(until=3 * DAY)
        always_on = population.store.always_on
        for i, peer in enumerate(population.iter_peers()):
            if always_on[i]:
                assert peer.online


class _LoggingPeer:
    """Stands in for a peer: logs each lifecycle call with its sim time."""

    def __init__(self, sim: Simulator, log: list):
        self.sim, self.log = sim, log

    def boot(self):
        self.log.append(("boot", self.sim.now))

    def go_offline(self):
        self.log.append(("offline", self.sim.now))


def _days_queued(seed, tz, skip_prob, until):
    """(events in pop order, RNG end state, heap pushes) for one peer."""
    sim = Simulator()
    log: list = []
    rng = random.Random(seed)
    _schedule_peer_days(SimpleNamespace(sim=sim), _LoggingPeer(sim, log), tz,
                        8 * 3600.0, rng, skip_prob=skip_prob, until=until)
    pushes = sim.heap_pushes
    sim.run()
    return log, rng.getstate(), pushes


class TestSessionHorizon:
    @settings(max_examples=40)
    @given(seed=st.integers(0, 2**32 - 1),
           tz=st.floats(-12 * 3600.0, 12 * 3600.0),
           skip_prob=st.sampled_from([0.0, 0.12, 0.6]),
           until=st.floats(0.0, 41 * DAY))
    def test_until_clips_the_queue_not_the_draws(self, seed, tz, skip_prob,
                                                 until):
        full, full_state, _ = _days_queued(seed, tz, skip_prob, None)
        clipped, state, pushes = _days_queued(seed, tz, skip_prob, until)
        assert state == full_state
        assert clipped == [e for e in full if e[1] <= until]
        assert pushes == len(clipped)

    def test_build_population_until_keeps_the_trace(self):
        def build(until):
            system = NetSessionSystem(seed=5)
            catalog = build_catalog(random.Random(1),
                                    CatalogConfig(objects_per_provider=10))
            build_population(system, catalog.providers,
                             PopulationConfig(n_peers=150), until=until)
            return system

        horizon = 1.5 * DAY
        full, clipped = build(None), build(horizon)
        assert clipped.sim.heap_pushes < full.sim.heap_pushes
        for system in (full, clipped):
            system.run(until=horizon)
        assert clipped.logstore.logins == full.logstore.logins
        assert clipped.online_peer_count() == full.online_peer_count()
        assert clipped.rng.getstate() == full.rng.getstate()


class TestDiurnal:
    def test_rate_bounded(self):
        for hour in range(24):
            rate = diurnal_rate(hour * 3600.0)
            assert 0.1 <= rate <= 1.0

    def test_evening_peak_exceeds_morning_trough(self):
        assert diurnal_rate(20 * 3600.0) > 2 * diurnal_rate(4 * 3600.0)

    def test_timezone_shift_moves_peak(self):
        # 8am UTC is evening in a +12h zone.
        assert diurnal_rate(8 * 3600.0, tz_offset=12 * 3600.0) > diurnal_rate(8 * 3600.0)
