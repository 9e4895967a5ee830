"""Fixtures and helpers for the scale-parity test layer.

The contract under test: the columnar population store and the region
sharder are pure *representation* changes — every byte of trace output is
identical to the object-graph, single-process seed implementation.  That
seed implementation survives here as a frozen oracle,
:func:`build_eager_population`: the eager build loop (one
:class:`PeerNode` per install, built up front) with its own copies of
the site carving and the session-scheduling loop.  The helpers below also
canonicalize a scenario's output into a digest that ignores
representation (object identity, pickle memoization, dict iteration
quirks) and captures values only.
"""

from __future__ import annotations

import dataclasses
import hashlib
import pickle
import random
from typing import Iterator

from repro.core.peer import PeerNode
from repro.core.system import NetSessionSystem
from repro.net.lan import LanSite
from repro.net.nat import NATProfile, NATType
from repro.workload import (
    CatalogConfig, DemandConfig, PopulationConfig, ScenarioConfig,
)
from repro.workload.catalog import build_catalog
from repro.workload.population import _schedule_peer_days, build_population


@dataclasses.dataclass
class EagerPopulation:
    """The oracle's installed base: real nodes plus session bookkeeping.

    Mirrors the read-side surface of
    :class:`~repro.workload.population.Population` the parity tests use,
    answered from the eager node list.
    """

    peers: list[PeerNode]
    #: Local-midnight offset (seconds) per peer, derived from longitude.
    tz_offset: dict[str, float]
    always_on: set[str]
    sites: dict[str, LanSite] = dataclasses.field(default_factory=dict)

    def peer_count(self) -> int:
        return len(self.peers)

    def iter_peers(self, device_class: str | None = None) -> Iterator[PeerNode]:
        if device_class is None:
            return iter(self.peers)
        return (p for p in self.peers if p.device_class == device_class)

    def sample_peers(self, rng: random.Random, k: int,
                     device_class: str | None = None) -> list[PeerNode]:
        if device_class is None:
            return rng.sample(list(self.peers), min(k, self.peer_count()))
        indices = [i for i, p in enumerate(self.peers)
                   if p.device_class == device_class]
        picked = rng.sample(indices, min(k, len(indices)))
        return [self.peers[i] for i in picked]

    def device_census(self) -> dict[str, int]:
        census: dict[str, int] = {}
        for peer in self.peers:
            if peer.device is not None:
                census[peer.device.name] = census.get(peer.device.name, 0) + 1
        return census

    def device_classes(self) -> dict[str, str]:
        return {p.guid: p.device.name for p in self.peers
                if p.device is not None}


def build_eager_population(system, providers, cfg: PopulationConfig):
    """The frozen eager build: one :class:`PeerNode` per install, up front.

    Consumes ``system.rng`` (through ``create_peer``), the broadband and
    NAT model streams, and the population RNG in the seed implementation's
    per-peer order; the columnar build must leave every stream where this
    one does.  Do not edit it to follow a change in the production build —
    a divergence here is exactly what the parity tests exist to catch.
    """
    rng = random.Random(system.rng.getrandbits(64))
    peers: list[PeerNode] = []
    tz_offset: dict[str, float] = {}
    always_on: set[str] = set()

    for _ in range(cfg.n_peers):
        installed_from = rng.choice(providers) if providers else None
        peer = system.create_peer(installed_from=installed_from)
        if rng.random() < cfg.broken_fraction:
            peer.piece_corruption_prob = cfg.broken_corruption_prob
        if rng.random() < cfg.attacker_fraction:
            peer.accounting_attacker = True
        peers.append(peer)
        # Local solar time from longitude: 15 degrees per hour.
        tz_offset[peer.guid] = (peer.city.lon / 15.0) * 3600.0
        if rng.random() < cfg.always_on_fraction:
            always_on.add(peer.guid)
        if cfg.device is not None:
            cls = cfg.device.pick(rng.random())
            peer.device = cls
            if rng.random() < cls.always_on_prob:
                always_on.add(peer.guid)
            if cls.nat_open_prob is not None \
                    and rng.random() < cls.nat_open_prob:
                peer.nat_profile = NATProfile(
                    true_type=NATType.OPEN, reported_type=NATType.OPEN)

    population = EagerPopulation(
        peers=peers, tz_offset=tz_offset, always_on=always_on)
    _eager_sites(population, cfg, rng)
    _eager_sessions(system, population, cfg, rng)
    system.device_mix = cfg.device
    if cfg.device is not None:
        weights = cfg.device.rank_weights()
        if weights is not None:
            for cn in system.control.all_cns:
                cn.device_rank_weights = weights
    return population


def _eager_sites(population: EagerPopulation, cfg: PopulationConfig,
                 rng: random.Random) -> None:
    """Corporate LAN site carving over the eager node list (§5.3)."""
    if cfg.corporate_fraction <= 0:
        return
    target = int(round(cfg.corporate_fraction * population.peer_count()))
    buckets: dict[tuple[str, str, int], list[PeerNode]] = {}
    for peer in population.peers:
        key = (peer.country_code, peer.city.name, peer.asn)
        buckets.setdefault(key, []).append(peer)

    placed = 0
    site_index = 0
    for key in sorted(buckets, key=lambda k: -len(buckets[k])):
        if placed >= target:
            break
        pool = buckets[key]
        lo, hi = cfg.site_size_range
        while len(pool) >= lo and placed < target:
            size = min(len(pool), rng.randint(lo, hi), target - placed + lo)
            members, pool[:] = pool[:size], pool[size:]
            site = LanSite(f"site-{site_index:04d}")
            site_index += 1
            for member in members:
                member.lan = site
                site.add_member(member.guid)
            population.sites[site.site_id] = site
            placed += len(members)


def _eager_sessions(system, population: EagerPopulation,
                    cfg: PopulationConfig, rng: random.Random) -> None:
    """Boot/shutdown schedules for every (scheduled) eager node."""
    sim = system.sim
    count = population.peer_count()
    chosen = None
    if cfg.active_peer_cap is not None and cfg.active_peer_cap < count:
        chosen = set(rng.sample(range(count), cfg.active_peer_cap))
    uptime_mean = cfg.mean_daily_uptime_hours * 3600.0
    for index, peer in enumerate(population.peers):
        if chosen is not None and index not in chosen:
            continue
        if peer.guid in population.always_on:
            sim.schedule(rng.uniform(0, 3600.0), peer.boot)
            continue
        tz = population.tz_offset[peer.guid]
        device = peer.device
        if device is None:
            _schedule_peer_days(system, peer, tz, uptime_mean, rng)
        else:
            _schedule_peer_days(
                system, peer, tz, device.uptime_hours_mean * 3600.0, rng,
                skip_prob=device.daily_skip_prob)


def _world(seed: int):
    """A small system with a published catalog, wired as a scenario would.

    The catalog/provider setup mirrors
    :func:`repro.workload.scenario.run_scenario` so the population build
    consumes the exact same RNG streams a scenario would.
    """
    system = NetSessionSystem(seed=seed)
    catalog = build_catalog(
        random.Random(seed ^ 0xCA7), CatalogConfig(objects_per_provider=4)
    )
    for provider in catalog.providers:
        system.register_provider(provider)
    for obj in catalog.objects:
        system.publish(obj)
    return system, catalog


def build_store_world(seed: int = 11, **population_overrides):
    """Build a small system + columnar population.

    Returns ``(system, catalog, population)``.
    """
    system, catalog = _world(seed)
    cfg = PopulationConfig(**population_overrides)
    return system, catalog, build_population(system, catalog.providers, cfg)


def build_eager_world(seed: int = 11, **population_overrides):
    """:func:`build_store_world`, built by the eager oracle instead."""
    system, catalog = _world(seed)
    cfg = PopulationConfig(**population_overrides)
    return system, catalog, build_eager_population(
        system, catalog.providers, cfg)


def session_columns(population) -> tuple[set[str], dict[str, float]]:
    """(always-on guid set, guid → tz offset) read from a store's columns."""
    store = population.store
    always_on = {g for g, flag in zip(store.guids, store.always_on) if flag}
    return always_on, dict(zip(store.guids, store.tz.tolist()))


def tiny_scenario(seed: int = 5, **overrides) -> ScenarioConfig:
    """A sub-second scenario with a real trace (mirrors tests/runner)."""
    base = ScenarioConfig(
        seed=seed,
        duration_days=0.5,
        population=PopulationConfig(n_peers=120),
        demand=DemandConfig(total_downloads=150, duration_days=0.5),
        catalog=CatalogConfig(objects_per_provider=6),
    )
    return dataclasses.replace(base, **overrides) if overrides else base


def trace_digest(artifact) -> str:
    """Value-canonical digest of everything the analysis layer reads.

    Records are hashed one at a time: a whole-list pickle would also hash
    the object-sharing structure (in-process runs intern strings across
    records; pool workers don't), which is representation, not value.
    """
    h = hashlib.sha256()
    store = artifact.logstore
    for records in (store.downloads, store.logins, store.registrations):
        for rec in records:
            h.update(pickle.dumps(rec))
    for ip, record in sorted(artifact.geodb._records.items()):
        h.update(pickle.dumps((ip, record)))
    h.update(pickle.dumps(artifact.stats.as_dict()))
    h.update(pickle.dumps(sorted(artifact.mobility_census.items())))
    h.update(pickle.dumps(sorted(artifact.cloning_census.items())))
    h.update(pickle.dumps(artifact.finalized_downloads))
    return h.hexdigest()
