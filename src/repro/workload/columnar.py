"""Struct-of-arrays population store with lazy peer materialization.

The paper measured NetSession at ~26M installed peers (§4.1); an object
graph with one :class:`~repro.core.peer.PeerNode` (plus its own 2.5KB
``random.Random`` state, control channel, and access-link resources) per
install tops out around the tens of thousands.  This module stores the
installed base as packed numpy columns — interned geography/AS/NAT ids,
link capacities, provider attribution, per-peer RNG seeds — and
materializes a real ``PeerNode`` only for peers something actually
touches: a boot, a download, a fault token, an adversary assignment.
It is the only population store; ``tests/scale/`` holds it byte-for-byte
to a frozen eager oracle (one node per install, built up front):

* **Build draws** replicate the eager build exactly.  The build consumes
  ``system.rng``, the broadband model's stream, the NAT model's stream and
  the population RNG in the precise per-peer order
  :meth:`~repro.core.system.NetSessionSystem.create_peer` plus the
  per-peer flag draws would, so every downstream stream (demand,
  behaviour, catalog) sees the state the eager build left.
* **Materialization is draw-free.**  The 64-bit seed the eager build
  would have fed each peer's private RNG is recorded per row;
  materializing replays ``random.Random(seed)`` through the GUID draw and
  hands the stream to the node, and the control channel re-derives its
  own stream from the GUID string.  A peer materialized at t=0 and one
  materialized mid-run are indistinguishable from eagerly built ones.
* **Release reconciles.**  :meth:`ColumnarPopulationStore.release` writes
  a node's mutated scalars back to the columns, parks the non-columnar
  residue (RNG state, counters, identity history) in a sparse side table,
  and drops the node; re-materializing restores the exact state.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Iterator

import numpy as np

from repro.core.ids import make_guid
from repro.core.peer import PeerNode
from repro.net.links import AccessLink
from repro.net.flows import Resource
from repro.net.nat import NATProfile, NATType

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.content import ContentProvider
    from repro.core.system import NetSessionSystem
    from repro.workload.population import PopulationConfig

__all__ = ["ColumnarPopulationStore", "LazyPeer", "build_columnar_store"]


def _f8(values) -> np.ndarray:
    """A float64 column."""
    return np.asarray(values, dtype=np.float64)


def _i4(values) -> np.ndarray:
    """An int32 column (intern-table indexes, provider codes)."""
    return np.asarray(values, dtype=np.int32)


def _u1(values) -> np.ndarray:
    """A uint8 flag column."""
    return np.asarray(values, dtype=np.uint8)


def _u8(values) -> np.ndarray:
    """A uint64 column (per-peer RNG seeds)."""
    return np.asarray(values, dtype=np.uint64)


class _Interner:
    """Id-keyed object interning: shared model objects become int32 indexes."""

    __slots__ = ("objects", "_index")

    def __init__(self):
        self.objects: list = []
        self._index: dict[int, int] = {}

    def intern(self, obj) -> int:
        key = id(obj)
        idx = self._index.get(key)
        if idx is None:
            idx = len(self.objects)
            self.objects.append(obj)
            self._index[key] = idx
        return idx


class LazyPeer:
    """A handle onto one column row; becomes a :class:`PeerNode` on touch.

    Dormant reads (identity, geography, link tier, NAT, upload setting,
    online=False…) are served straight from the columns, so population-wide
    scans — fault victim selection, demand pool bucketing, behaviour
    sweeps — never materialize anyone.  Any *mutation*, any lifecycle call
    (:meth:`boot`, downloads), and any attribute outside the columnar set
    materializes the real node and delegates to it from then on.
    """

    __slots__ = ("_pop", "_i")

    def __init__(self, pop: "ColumnarPopulationStore", i: int):
        object.__setattr__(self, "_pop", pop)
        object.__setattr__(self, "_i", i)

    # ------------------------------------------------------------- plumbing

    def _node(self):
        """The materialized node, or None while dormant."""
        return self._pop._nodes.get(self._i)

    def _real(self) -> PeerNode:
        """Materialize (idempotent) and return the real node."""
        return self._pop.materialize(self._i)

    def __getattr__(self, name: str):
        node = self._pop._nodes.get(self._i)
        if node is not None:
            return getattr(node, name)
        reader = _COLUMN_READS.get(name)
        if reader is not None:
            return reader(self._pop, self._i)
        # Anything outside the columnar surface (link, channel, cache, the
        # setter methods, identity snapshots…) needs the real node.
        return getattr(self._real(), name)

    def __setattr__(self, name: str, value) -> None:
        setattr(self._real(), name, value)

    # ------------------------------------------ lifecycle (materialize-on-call)

    def boot(self) -> None:
        self._real().boot()

    def go_online(self) -> None:
        self._real().go_online()

    def go_offline(self) -> None:
        # A dormant peer is offline, where go_offline is a no-op, so
        # don't materialize just to do nothing.
        node = self._node()
        if node is not None:
            node.go_offline()

    def churn(self, downtime: float) -> None:
        self._real().churn(downtime)

    def has_complete(self, cid: str) -> bool:
        node = self._node()
        if node is not None:
            return node.has_complete(cid)
        return False  # dormant peers hold nothing (warm seeding materializes)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "live" if self._node() is not None else "dormant"
        return f"<LazyPeer #{self._i} {state} {self.guid[:8]}>"


def _residue_get(pop: "ColumnarPopulationStore", i: int, key: str, default):
    res = pop._residue.get(i)
    return res[key] if res is not None and key in res else default


#: Dormant attribute readers: name -> (store, row) -> value.  Must agree
#: exactly with what a freshly built (or released) PeerNode reports.
_COLUMN_READS = {
    "guid": lambda p, i: p.guids[i],
    "country": lambda p, i: p._countries.objects[p.country_i[i]],
    "city": lambda p, i: p._cities.objects[p.city_i[i]],
    "asys": lambda p, i: p._ases.objects[p.as_i[i]],
    "nat_profile": lambda p, i: p._nats.objects[p.nat_i[i]],
    "uploads_enabled": lambda p, i: bool(p.uploads[i]),
    "installed_from_cp": lambda p, i: int(p.installed_cp[i]),
    "software_version": lambda p, i: f"ns-3.6-cp{int(p.installed_cp[i])}",
    "piece_corruption_prob": lambda p, i: float(p.corruption[i]),
    "accounting_attacker": lambda p, i: bool(p.attacker[i]),
    "adversary_profile": lambda p, i: None,
    "adversary_slow_factor": lambda p, i: 1.0,
    "online": lambda p, i: False,
    "ip": lambda p, i: "",
    "cn": lambda p, i: None,
    "link_busy": lambda p, i: False,
    "active_upload_count": lambda p, i: 0,
    "sessions": lambda p, i: {},
    "lan": lambda p, i: p._lan.get(i),
    "boot_count": lambda p, i: _residue_get(p, i, "boot_count", 0),
    "setting_changes": lambda p, i: _residue_get(p, i, "setting_changes", 0),
    "nat_rebinds": lambda p, i: _residue_get(p, i, "nat_rebinds", 0),
    "uploads_done": lambda p, i: dict(_residue_get(p, i, "uploads_done", ())),
    # Locality shortcuts (PeerNode properties, mirrored here).
    "asn": lambda p, i: p._ases.objects[p.as_i[i]].asn,
    "country_code": lambda p, i: p._countries.objects[p.country_i[i]].code,
    "geo_region": lambda p, i: p._countries.objects[p.country_i[i]].region,
    "network_region": lambda p, i: p._ases.objects[p.as_i[i]].network_region,
    "lan_id": lambda p, i: (
        p._lan[i].site_id if i in p._lan else ""
    ),
    "tz_offset": lambda p, i: float(p.tz[i]),
    "device": lambda p, i: p.device_at(i),
    "device_class": lambda p, i: (
        p._device_classes[p.device_i[i]].name if p.device_i[i] >= 0
        else "desktop"
    ),
}


class _PeerColumnView:
    """Sequence view over the store's rows, yielding cached handles.

    Supports ``len``/index/iterate/``rng.sample`` — everything read-only
    consumers of ``Population.peers`` need.
    """

    __slots__ = ("_store",)

    def __init__(self, store: "ColumnarPopulationStore"):
        self._store = store

    def __len__(self) -> int:
        return len(self._store)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._store.handle(i)
                    for i in range(*index.indices(len(self._store)))]
        if index < 0:
            index += len(self._store)
        return self._store.handle(index)

    def __iter__(self) -> Iterator[LazyPeer]:
        handle = self._store.handle
        return (handle(i) for i in range(len(self._store)))


class ColumnarPopulationStore:
    """The packed installed base: columns, handles, materialized nodes."""

    def __init__(self, system: "NetSessionSystem"):
        self.system = system
        # Intern tables (shared world/topology/NAT value objects).
        self._countries = _Interner()
        self._cities = _Interner()
        self._ases = _Interner()
        self._nats = _Interner()
        self._tier_names: list[str] = []
        self._tier_index: dict[str, int] = {}
        # Columns (filled by build_columnar_store, then frozen into arrays).
        self.guids: list[str] = []
        self.peer_seeds = _u8(())
        self.country_i = _i4(())
        self.city_i = _i4(())
        self.as_i = _i4(())
        self.tier_i = _i4(())
        self.down_bps = _f8(())
        self.up_bps = _f8(())
        self.nat_i = _i4(())
        self.uploads = _u1(())
        self.installed_cp = _i4(())
        self.corruption = _f8(())
        self.attacker = _u1(())
        self.always_on = _u1(())
        self.tz = _f8(())
        #: Device-tier column: index into ``_device_classes`` or -1 for the
        #: homogeneous default (``PopulationConfig.device`` is None).
        self.device_i = _i4(())
        self._device_classes: tuple = ()
        #: First ``peerN`` naming slot this store occupies (normally 0).
        self.name_base = 0
        # Sparse side tables.
        self._lan: dict[int, object] = {}
        self._residue: dict[int, dict] = {}
        # Live state.
        self._nodes: dict[int, PeerNode] = {}
        self._handles: dict[int, LazyPeer] = {}
        #: Peak materialized-node gauge, for the scale benchmark report.
        self.peak_materialized = 0

    # -------------------------------------------------------------- accessors

    def __len__(self) -> int:
        return len(self.guids)

    def handle(self, i: int) -> LazyPeer:
        """The (cached, identity-stable) handle for row ``i``."""
        handle = self._handles.get(i)
        if handle is None:
            handle = self._handles[i] = LazyPeer(self, i)
        return handle

    def handles(self) -> Iterator[LazyPeer]:
        """All handles, in column (creation) order."""
        return iter(_PeerColumnView(self))

    def peers_view(self) -> _PeerColumnView:
        return _PeerColumnView(self)

    def device_at(self, i: int):
        """Row ``i``'s :class:`DeviceClass`, or None without a tier mix."""
        idx = self.device_i[i]
        return self._device_classes[idx] if idx >= 0 else None

    def materialized_nodes(self) -> list[PeerNode]:
        """Materialized nodes in column order (creation-order parity)."""
        return [self._nodes[i] for i in sorted(self._nodes)]

    def materialized_count(self) -> int:
        return len(self._nodes)

    # ---------------------------------------------------------- materialize

    def materialize(self, i: int) -> PeerNode:
        """Build the real node for row ``i`` (idempotent, draw-free).

        Replays the per-peer RNG from its recorded seed through the GUID
        draw — leaving the stream exactly where an eager constructor
        would have left it — and reconstructs the access link with the same ``peerN``
        resource names and byte/s capacities the eager build sampled.
        """
        node = self._nodes.get(i)
        if node is not None:
            return node
        system = self.system
        rng = random.Random(int(self.peer_seeds[i]))
        guid = make_guid(rng)
        name = f"peer{self.name_base + i}"
        link = AccessLink(
            downlink=Resource(f"{name}/down", float(self.down_bps[i])),
            uplink=Resource(f"{name}/up", float(self.up_bps[i])),
            tier=self._tier_names[self.tier_i[i]],
        )
        node = PeerNode(
            system,
            self._countries.objects[self.country_i[i]],
            self._cities.objects[self.city_i[i]],
            self._ases.objects[self.as_i[i]],
            link,
            self._nats.objects[self.nat_i[i]],
            uploads_enabled=bool(self.uploads[i]),
            installed_from_cp=int(self.installed_cp[i]),
            guid=guid,
            rng=rng,
        )
        node.piece_corruption_prob = float(self.corruption[i])
        node.accounting_attacker = bool(self.attacker[i])
        node.device = self.device_at(i)
        if i in self._lan:
            node.lan = self._lan[i]
        node._store_index = i
        residue = self._residue.pop(i, None)
        if residue is not None:
            self._restore_residue(node, residue)
        self._nodes[i] = node
        if len(self._nodes) > self.peak_materialized:
            self.peak_materialized = len(self._nodes)
        system.all_peers.append(node)
        system.peer_by_guid[guid] = node
        return node

    @staticmethod
    def _restore_residue(node: PeerNode, residue: dict) -> None:
        node.rng.setstate(residue["rng_state"])
        node.secondary_history.extend(residue["secondary_history"])
        node.boot_count = residue["boot_count"]
        node.setting_changes = residue["setting_changes"]
        node.nat_rebinds = residue["nat_rebinds"]
        node.uploads_done = dict(residue["uploads_done"])
        node.channel.rng.setstate(residue["channel_rng_state"])
        node.channel.times_degraded = residue["channel_times_degraded"]

    # --------------------------------------------------------------- release

    def release(self, peer) -> None:
        """Reconcile a quiescent node back to the columns and drop it.

        The peer must be offline with no live sessions, uploads, or cached
        (hence registrable) content — i.e. nothing in the running system can
        still point at the node.  Mutated scalars are written back to the
        columns; non-columnar state (RNG position, identity history,
        counters, channel stream) is parked in the sparse residue table and
        restored verbatim on re-materialization.
        """
        i = getattr(peer, "_store_index", None)
        if i is None:
            raise ValueError("peer was not materialized from this store")
        node = self._nodes.get(i)
        if node is None:
            return  # already dormant
        if node.online:
            raise ValueError(f"cannot release online peer {node.guid[:8]}")
        if node.sessions or node.upload_flows or node.active_upload_count:
            raise ValueError(f"peer {node.guid[:8]} has live transfers")
        if node.cache:
            raise ValueError(f"peer {node.guid[:8]} still caches content")
        # Scalars go back to the columns…
        self.country_i[i] = self._countries.intern(node.country)
        self.city_i[i] = self._cities.intern(node.city)
        self.as_i[i] = self._ases.intern(node.asys)
        self.nat_i[i] = self._nats.intern(node.nat_profile)
        self.uploads[i] = 1 if node.uploads_enabled else 0
        self.corruption[i] = node.piece_corruption_prob
        self.attacker[i] = 1 if node.accounting_attacker else 0
        if node.lan is not None:
            self._lan[i] = node.lan
        else:
            self._lan.pop(i, None)
        # …the rest into the residue side table.
        self._residue[i] = {
            "rng_state": node.rng.getstate(),
            "secondary_history": tuple(node.secondary_history),
            "boot_count": node.boot_count,
            "setting_changes": node.setting_changes,
            "nat_rebinds": node.nat_rebinds,
            "uploads_done": dict(node.uploads_done),
            "channel_rng_state": node.channel.rng.getstate(),
            "channel_times_degraded": node.channel.times_degraded,
        }
        del self._nodes[i]
        system = self.system
        system.peer_by_guid.pop(node.guid, None)
        try:
            system.all_peers.remove(node)
        except ValueError:  # pragma: no cover - defensive
            pass


def build_columnar_store(
    system: "NetSessionSystem",
    providers: list["ContentProvider"],
    cfg: "PopulationConfig",
    rng: random.Random,
) -> ColumnarPopulationStore:
    """Sample the installed base straight into columns.

    Consumes ``system.rng``, the broadband/NAT model streams and the
    population RNG in exactly the per-peer order an eager build
    (``create_peer`` + the per-peer flag draws) would, so everything
    downstream of population synthesis sees the same RNG state.
    """
    store = ColumnarPopulationStore(system)
    world, topology = system.world, system.topology
    sys_rng = system.rng
    store.name_base = system._peer_seq

    n = cfg.n_peers
    guids = store.guids
    seeds, country_i, city_i, as_i = [], [], [], []
    tier_i, down, up, nat_i = [], [], [], []
    uploads, installed, corruption, attacker, always, tz = [], [], [], [], [], []
    device_i = []
    default_corruption = system.config.client.piece_corruption_prob
    broadband, nat_model = system.broadband, system.nat_model
    # Profiles are never mutated in place (a rebind binds a new one), so
    # rows with equal (true, reported) types share one interned profile.
    nat_index: dict[tuple[NATType, NATType], int] = {}
    mix = cfg.device
    if mix is not None:
        store._device_classes = mix.classes
        device_index = {cls.name: j for j, cls in enumerate(mix.classes)}

    for _ in range(n):
        installed_from = rng.choice(providers) if providers else None
        country = world.sample_country(sys_rng)
        city = world.sample_city(country, sys_rng)
        asys = topology.sample_as(country.code, sys_rng)
        # Claim the row's peerN slot: materialize names its link resources.
        system.next_peer_name_index()
        tier, down_bps, up_bps = broadband.draw(country.speed_multiplier)
        nat = nat_model.draw()
        if installed_from is not None:
            uploads_enabled = sys_rng.random() < installed_from.upload_default_rate
        else:
            uploads_enabled = True
        peer_seed = sys_rng.getrandbits(64)
        guid = make_guid(random.Random(peer_seed))

        broken = rng.random() < cfg.broken_fraction
        is_attacker = rng.random() < cfg.attacker_fraction
        is_always_on = rng.random() < cfg.always_on_fraction
        if mix is None:
            device_i.append(-1)
        else:
            # Draw order: class pick, always-on override, optional NAT
            # override (only for classes with one).
            cls = mix.pick(rng.random())
            device_i.append(device_index[cls.name])
            if rng.random() < cls.always_on_prob:
                is_always_on = True
            if cls.nat_open_prob is not None and rng.random() < cls.nat_open_prob:
                nat = (NATType.OPEN, NATType.OPEN)

        guids.append(guid)
        seeds.append(peer_seed)
        country_i.append(store._countries.intern(country))
        city_i.append(store._cities.intern(city))
        as_i.append(store._ases.intern(asys))
        t = store._tier_index.get(tier)
        if t is None:
            t = store._tier_index[tier] = len(store._tier_names)
            store._tier_names.append(tier)
        tier_i.append(t)
        down.append(down_bps)
        up.append(up_bps)
        k = nat_index.get(nat)
        if k is None:
            k = nat_index[nat] = store._nats.intern(
                NATProfile(true_type=nat[0], reported_type=nat[1]))
        nat_i.append(k)
        uploads.append(1 if uploads_enabled else 0)
        installed.append(installed_from.cp_code if installed_from else 0)
        corruption.append(cfg.broken_corruption_prob if broken else default_corruption)
        attacker.append(1 if is_attacker else 0)
        always.append(1 if is_always_on else 0)
        tz.append((city.lon / 15.0) * 3600.0)

    store.peer_seeds = _u8(seeds)
    store.country_i = _i4(country_i)
    store.city_i = _i4(city_i)
    store.as_i = _i4(as_i)
    store.tier_i = _i4(tier_i)
    store.down_bps = _f8(down)
    store.up_bps = _f8(up)
    store.nat_i = _i4(nat_i)
    store.uploads = _u1(uploads)
    store.installed_cp = _i4(installed)
    store.corruption = _f8(corruption)
    store.attacker = _u1(attacker)
    store.always_on = _u1(always)
    store.tz = _f8(tz)
    store.device_i = _i4(device_i)
    return store
