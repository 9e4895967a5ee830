"""Flow-level fluid bandwidth model with max-min fair sharing.

Downloads in this reproduction are not simulated packet-by-packet; what the
paper measures (download speed CDFs, peer efficiency, traffic volumes) is
driven entirely by how competing transfers share constrained links.  We model
each transfer as a *flow* that traverses a set of capacity-constrained
*resources* — the uploader's uplink, the downloader's downlink, an edge
server's egress capacity — and allocate rates with the classic progressive
water-filling algorithm, which yields the max-min fair allocation [Bertsekas
& Gallager].  Per-flow rate caps model NetSession's deliberate upload
throttling (paper §3.9).

Between allocation changes every flow progresses linearly, so the engine is
event-driven: rates are only recomputed when a flow starts, finishes, is
aborted, or has its cap changed — and only for the connected component of
flows that actually share resources with the change.

Batched settlement
------------------
Mutations arrive in same-timestamp bursts: the swarm layer opens several
connections inside one completion tick, a session teardown aborts every
connection it holds, and the fault injector degrades whole regions of links
in a single callback.  Recomputing the component's water-filling once per
mutation would be pure waste — no simulated time passes between the
mutations, so only the *final* state of the burst is ever observable.

The engine therefore runs dirty-set batched: every mutation marks the
affected flows dirty and returns immediately; a *settlement pass*
(:meth:`FlowNetwork.flush`) walks the dirty flows' connected components once
and runs one water-filling over their union.  Settlement is triggered

* automatically at the end of every simulator event (a post-event hook, so
  no other event can ever observe stale rates),
* immediately when a mutation happens outside the event loop (direct
  library use keeps its synchronous feel), and
* lazily by the few in-callback readers of live rates
  (:meth:`FlowNetwork.flush` is idempotent and O(1) when clean).

Because settlement happens at the same simulated timestamp as the mutations
it coalesces, the resulting rate trajectories are identical to the
per-mutation engine's — ``batching=False`` restores the per-mutation
behaviour and is kept as the reference for the equivalence test-suite and
the ``benchmarks/test_simcore.py`` baseline.

Water-filling kernels
---------------------
The progressive water-filling itself runs on one of two interchangeable
kernels, selected per network (``FlowNetwork(kernel=...)``, usually via
``SystemConfig.kernel``):

* ``python`` — :func:`_max_min_fair`, the dict-and-set reference
  implementation; and
* ``numpy`` (default) — :class:`_VectorWaterfill`, which rebuilds the
  settling component into flat arrays (per-flow caps, a CSR-style
  flow→resource incidence, per-resource remaining capacity and unfrozen
  counts) and runs each freezing round as vector ops: ``argmin`` over the
  per-resource equal shares, boolean-mask freezing, and an ordered
  scatter-subtract of the frozen rates.

The two kernels perform the *same* IEEE operations in the same order —
components are canonically ordered by flow id before either kernel sees
them — so their results are bit-identical, not merely close; the golden
experiment pipeline produces the same bytes under both.  Unions smaller
than :data:`_VECTOR_MIN_FLOWS` always take the python path (array setup
would cost more than it saves), which keeps the numpy kernel a pure
swarm-scale accelerator: the small-scale trace's components (22 flows on
average, never more than 90) all settle on the python kernel.
"""

from __future__ import annotations

import heapq
import math
from contextlib import contextmanager
from dataclasses import dataclass, replace
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Optional

from repro.net.sim import Simulator

__all__ = ["Resource", "Flow", "FlowNetwork", "FlowNetworkStats", "KERNELS"]

#: Rate assigned to a flow constrained by nothing at all (no resources, no
#: cap).  Finite so completion times stay finite; generous enough (10 GB/s)
#: that it never binds in realistic scenarios.
UNCONSTRAINED_RATE = 10e9

#: Completion-heap entries are compacted (stale entries dropped, heap
#: rebuilt) when more than half the heap is stale — but only past this size,
#: so small heaps never pay the rebuild.
_HEAP_COMPACT_MIN = 64

#: Settling unions with fewer flows than this take the python kernel even
#: when the numpy kernel is selected: below it, building the arrays and the
#: per-round fixed cost of the vector ops outweigh the dict operations they
#: replace.  Set from ``test_kernel_crossover`` in
#: ``benchmarks/test_simcore.py``, which times both kernels on captured
#: components per size bucket: python wins every bucket below 96 flows, the
#: 96-127 bucket is a toss-up, and numpy wins every bucket from 128 up.
#: Both kernels are bit-identical, so the cutover is unobservable except in
#: wall time.
_VECTOR_MIN_FLOWS = 128

#: Sort key putting a settling union into canonical flow-id order.
_flow_id = attrgetter("flow_id")

#: Kernel names accepted by :class:`FlowNetwork` / ``SystemConfig.kernel``.
KERNELS = ("numpy", "python")


class Resource:
    """A capacity constraint shared by flows (a link direction, a server NIC).

    ``capacity`` is in bytes/second.  A resource with ``capacity=None`` is
    unconstrained and never becomes a bottleneck (useful for modelling core
    links we assume are overprovisioned, as the paper implicitly does).

    ``allocated`` is the sum of the current rates of the flows crossing the
    resource.  It is maintained incrementally by the :class:`FlowNetwork`
    (exactly recomputed at each settlement touching the resource), which
    makes :attr:`utilization` O(1) — monitoring and fault gauges poll it in
    loops.
    """

    __slots__ = ("name", "capacity", "flows", "allocated", "_slot", "_stamp")

    def __init__(self, name: str, capacity: Optional[float]):
        if capacity is not None and capacity <= 0:
            raise ValueError(f"resource {name!r} capacity must be positive, got {capacity}")
        self.name = name
        self.capacity = capacity
        self.flows: set["Flow"] = set()
        self.allocated = 0.0
        # Dense local index interned by the vector kernel while it rebuilds
        # a component into arrays (valid only for the stamped settle call).
        self._slot = 0
        self._stamp = 0

    @property
    def utilization(self) -> float:
        """Fraction of capacity currently allocated (0.0 for unconstrained)."""
        if self.capacity is None:
            return 0.0
        return self.allocated / self.capacity

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        cap = "inf" if self.capacity is None else f"{self.capacity:.0f}B/s"
        return f"<Resource {self.name} cap={cap} flows={len(self.flows)}>"


class Flow:
    """A fluid transfer of ``size`` bytes across a set of resources.

    Flows are created through :meth:`FlowNetwork.start_flow`.  ``meta`` is an
    opaque payload for the caller (the swarm layer stores the connection it
    belongs to).
    """

    __slots__ = (
        "flow_id", "resources", "size", "transferred", "rate", "cap",
        "on_complete", "meta", "start_time", "_last_update", "_version",
        "_queued", "active", "end_time",
    )

    def __init__(
        self,
        flow_id: int,
        resources: tuple[Resource, ...],
        size: float,
        cap: Optional[float],
        on_complete: Optional[Callable[["Flow"], None]],
        meta: object,
        now: float,
    ):
        self.flow_id = flow_id
        self.resources = resources
        self.size = float(size)
        self.transferred = 0.0
        self.rate = 0.0
        self.cap = cap
        self.on_complete = on_complete
        self.meta = meta
        self.start_time = now
        self.end_time: Optional[float] = None
        self._last_update = now
        self._version = 0
        self._queued = False  # has a live completion-heap entry
        self.active = True

    @property
    def remaining(self) -> float:
        """Bytes still to transfer."""
        return max(0.0, self.size - self.transferred)

    @property
    def elapsed(self) -> Optional[float]:
        """Transfer duration, or None if still active."""
        if self.end_time is None:
            return None
        return self.end_time - self.start_time

    def average_rate(self, now: Optional[float] = None) -> float:
        """Mean throughput in bytes/s over the flow's lifetime so far."""
        end = self.end_time if self.end_time is not None else now
        if end is None or end <= self.start_time:
            return 0.0
        return self.transferred / (end - self.start_time)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Flow #{self.flow_id} {self.transferred:.0f}/{self.size:.0f}B "
            f"@{self.rate:.0f}B/s {'active' if self.active else 'done'}>"
        )


@dataclass
class FlowNetworkStats:
    """Counters exposing the allocation engine's work (perf observability).

    All counters are cumulative since network creation.  ``snapshot()``
    returns an independent copy; ``as_dict()`` flattens counters plus the
    derived component-size statistics for reports and JSON export.
    """

    #: Mutations received (start/abort/set_cap/set_resource_capacity).
    mutations: int = 0
    #: Settlement passes that found dirty flows to resolve.
    flushes: int = 0
    #: Reallocation calls (one settle + water-filling over a dirty union).
    reallocations: int = 0
    #: Connected components walked across all settlements.
    components: int = 0
    #: Total flows covered by component walks (mean = / components).
    flows_reallocated: int = 0
    #: Largest single component seen.
    max_component: int = 0
    #: Water-filling invocations and total freezing rounds inside them.
    waterfill_calls: int = 0
    waterfill_rounds: int = 0
    #: Completion-heap churn: entries pushed, pushes avoided because the
    #: flow's rate (hence ETA) was unchanged, stale entries popped, and
    #: full compactions performed.
    heap_pushes: int = 0
    heap_skips: int = 0
    heap_stale_pops: int = 0
    heap_compactions: int = 0

    @property
    def mean_component_size(self) -> float:
        """Mean flows per walked component (0.0 before any settlement)."""
        if self.components == 0:
            return 0.0
        return self.flows_reallocated / self.components

    def snapshot(self) -> "FlowNetworkStats":
        """An independent copy of the current counters."""
        return replace(self)

    def as_dict(self) -> dict[str, float]:
        """Counters plus derived statistics, for reports and JSON."""
        return {
            "mutations": self.mutations,
            "flushes": self.flushes,
            "reallocations": self.reallocations,
            "components": self.components,
            "flows_reallocated": self.flows_reallocated,
            "mean_component_size": round(self.mean_component_size, 2),
            "max_component": self.max_component,
            "waterfill_calls": self.waterfill_calls,
            "waterfill_rounds": self.waterfill_rounds,
            "heap_pushes": self.heap_pushes,
            "heap_skips": self.heap_skips,
            "heap_stale_pops": self.heap_stale_pops,
            "heap_compactions": self.heap_compactions,
        }


class FlowNetwork:
    """Manages all active flows and keeps their rates max-min fair.

    The network owns a completion heap inside the simulator: whenever rates
    change, new completion times are computed and stale heap entries are
    invalidated lazily via per-flow version counters.

    ``batching`` selects the settlement policy: ``True`` (default) coalesces
    same-timestamp mutation bursts into one settlement pass per simulator
    event; ``False`` settles after every mutation (the reference engine the
    equivalence tests and benchmarks compare against).

    ``kernel`` selects the water-filling implementation: ``"numpy"``
    (default) settles large components on the vectorized
    :class:`_VectorWaterfill` backend, ``"python"`` always uses the
    dict-based reference :func:`_max_min_fair`.  The two are bit-identical
    (see the module docstring), so the knob only moves wall time.
    """

    def __init__(self, sim: Simulator, *, batching: bool = True,
                 kernel: str = "numpy"):
        if kernel not in KERNELS:
            raise ValueError(f"kernel must be one of {KERNELS}, got {kernel!r}")
        self.sim = sim
        self.batching = batching
        self.kernel = kernel
        self._vector: Optional[_VectorWaterfill] = None
        self._next_id = 0
        self.active_flows: set[Flow] = set()
        # (completion_time, flow_id, version, flow) — lazy invalidation
        self._completions: list[tuple[float, int, int, Flow]] = []
        self._heap_live = 0  # entries whose (flow, version) is still current
        self._completion_event = None
        self.completed_count = 0
        self.aborted_count = 0
        self.stats = FlowNetworkStats()
        # Dirty flows awaiting settlement; a dict preserves mutation order
        # so components are walked in the order the burst touched them.
        self._dirty: dict[Flow, None] = {}
        # Resources whose ``allocated`` sum is stale: a member's rate
        # changed, a member detached, or the capacity changed.  Re-summed
        # exactly at the next settlement.
        self._touched: set[Resource] = set()
        self._need_schedule = False
        self._batch_depth = 0
        sim.add_post_event_hook(self._post_event_flush)

    # ------------------------------------------------------------------ API

    def start_flow(
        self,
        resources: Iterable[Resource],
        size: float,
        *,
        cap: Optional[float] = None,
        on_complete: Optional[Callable[[Flow], None]] = None,
        meta: object = None,
    ) -> Flow:
        """Begin a transfer of ``size`` bytes across ``resources``.

        ``cap`` optionally limits the flow's rate regardless of fair share
        (NetSession's upload throttle).  ``on_complete`` fires, inside the
        simulator, when the last byte is delivered.
        """
        if size <= 0:
            raise ValueError(f"flow size must be positive, got {size}")
        if cap is not None and cap <= 0:
            raise ValueError(f"flow cap must be positive, got {cap}")
        flow = Flow(
            flow_id=self._next_id,
            resources=tuple(resources),
            size=size,
            cap=cap,
            on_complete=on_complete,
            meta=meta,
            now=self.sim.now,
        )
        self._next_id += 1
        self.active_flows.add(flow)
        for res in flow.resources:
            res.flows.add(flow)
        self._dirty[flow] = None
        self._mutated()
        return flow

    def abort_flow(self, flow: Flow) -> None:
        """Stop a flow before completion; already-transferred bytes stand."""
        if not flow.active:
            return
        self._settle(flow)
        self._detach(flow)
        flow.end_time = self.sim.now
        self.aborted_count += 1
        for res in flow.resources:
            if res.capacity is None:
                continue
            for other in res.flows:
                self._dirty.setdefault(other)
        self._need_schedule = True
        self._mutated()

    def set_cap(self, flow: Flow, cap: Optional[float]) -> None:
        """Change a flow's rate cap (used to throttle or pause-ish a flow)."""
        if not flow.active:
            return
        if cap is not None and cap <= 0:
            raise ValueError(f"flow cap must be positive, got {cap}")
        if cap == flow.cap:
            return
        flow.cap = cap
        self._dirty.setdefault(flow)
        self._mutated()

    def set_resource_capacity(self, resource: Resource, capacity: Optional[float]) -> None:
        """Change a shared resource's capacity mid-simulation.

        Used by the fault-injection layer (edge brownouts, link degradation):
        flows currently crossing the resource are settled at their old rates
        and re-allocated under the new capacity.  ``None`` lifts the
        constraint entirely.
        """
        if capacity is not None and capacity <= 0:
            raise ValueError(
                f"resource {resource.name!r} capacity must be positive, got {capacity}"
            )
        if capacity == resource.capacity:
            return
        resource.capacity = capacity
        self._touched.add(resource)
        for flow in list(resource.flows):
            if flow.active:
                self._dirty.setdefault(flow)
        self._mutated()

    def throughput_snapshot(self) -> dict[int, float]:
        """Current rate of every active flow, keyed by flow id."""
        self.flush()
        return {f.flow_id: f.rate for f in self.active_flows}

    def resources_in_use(self) -> set[Resource]:
        """Every resource referenced by at least one active flow.

        Does **not** flush: the invariant auditor calls this at event
        boundaries where the post-event hook has already settled rates, and
        a flush here would perturb the settlement counters it audits.
        """
        resources: set[Resource] = set()
        for flow in self.active_flows:
            resources.update(flow.resources)
        return resources

    @contextmanager
    def batch(self) -> Iterator[None]:
        """Coalesce a block of mutations into one settlement pass.

        Inside the simulator loop this is automatic (the post-event hook
        settles each event's burst); the context manager extends the same
        coalescing to mutation bursts issued *outside* the loop — a fault
        being applied from driver code, a peer re-capping all its upload
        flows.  Nests safely.  In ``batching=False`` reference mode it is a
        no-op: every mutation still settles immediately.
        """
        self._batch_depth += 1
        try:
            yield
        finally:
            self._batch_depth -= 1
            self._maybe_settle()

    def flush(self) -> None:
        """Settle pending mutations now.  Idempotent; O(1) when clean.

        Rates are always settled before any other simulator event runs; the
        few code paths that read live rates *inside* the same callback that
        mutated the network call this first.
        """
        if not self._dirty:
            if self._touched:
                self._resum_touched()
            if self._need_schedule:
                self._need_schedule = False
                self._schedule_next_completion()
            return
        stats = self.stats
        stats.flushes += 1
        dirty, self._dirty = self._dirty, {}
        self._need_schedule = False
        # One walk over every dirty flow's connected component into a single
        # shared set.  Components are disjoint, so the per-component counters
        # are the growth of ``seen`` across each walk.  A resource's members
        # all join the first time the walk reaches it, so each resource is
        # expanded once.
        seen: set[Flow] = set()
        expanded: set[Resource] = set()
        for flow in dirty:
            if not flow.active or flow in seen:
                continue
            before = len(seen)
            seen.add(flow)
            frontier = [flow]
            while frontier:
                for res in frontier.pop().resources:
                    if res.capacity is None or res in expanded:
                        # Unconstrained resources never bind, so they don't
                        # couple allocations — skipping them keeps components
                        # (and reallocation cost) small.
                        continue
                    expanded.add(res)
                    joined = res.flows - seen
                    if joined:
                        seen |= joined
                        frontier.extend(joined)
            size = len(seen) - before
            stats.components += 1
            stats.flows_reallocated += size
            if size > stats.max_component:
                stats.max_component = size
        self._reallocate(seen)

    # ------------------------------------------------------- internal engine

    def _mutated(self) -> None:
        """A mutation happened: settle now or defer to the event boundary."""
        self.stats.mutations += 1
        self._maybe_settle()

    def _maybe_settle(self) -> None:
        if not self.batching:
            self.flush()
            return
        if self._batch_depth == 0 and not self.sim.in_event:
            self.flush()

    def _post_event_flush(self) -> None:
        # Registered with the simulator: runs after every event callback, so
        # the next event (and anything after run()) always sees settled rates.
        if self._dirty or self._need_schedule:
            self.flush()

    def _detach(self, flow: Flow) -> None:
        flow.active = False
        flow._version += 1  # invalidate any heap entry
        if flow._queued:
            flow._queued = False
            self._heap_live -= 1
        self.active_flows.discard(flow)
        self._touched.update(flow.resources)
        for res in flow.resources:
            res.flows.discard(flow)
            if res.flows:
                res.allocated -= flow.rate
            else:
                res.allocated = 0.0  # exact reset: no float residue lingers

    def _settle(self, flow: Flow) -> None:
        """Advance a flow's transferred bytes up to the current time."""
        now = self.sim.now
        dt = now - flow._last_update
        if dt > 0:
            flow.transferred = min(flow.size, flow.transferred + flow.rate * dt)
        flow._last_update = now

    def _reallocate(self, flows: set[Flow]) -> None:
        """Recompute max-min fair rates for a dirty union and reschedule.

        ``flows`` holds only active flows (the component walk starts from
        active flows and resource member sets hold nothing else).  The union
        is sorted once into canonical flow-id order, settled, water-filled,
        and its new rates read back in that order.
        """
        if flows:
            stats = self.stats
            stats.reallocations += 1
            ordered = sorted(flows, key=_flow_id)
            now = self.sim.now
            for f in ordered:
                dt = now - f._last_update
                if dt > 0:
                    f.transferred = min(f.size, f.transferred + f.rate * dt)
                f._last_update = now

            rates = self._waterfill(ordered)
            touched = self._touched
            heap = self._completions
            for f in ordered:
                rate = rates[f]
                if rate == f.rate:
                    # Flows progress linearly, so an unchanged rate means the
                    # existing heap entry's ETA is still exact — skip the
                    # version bump and re-push entirely (no heap bloat).
                    stats.heap_skips += 1
                    continue
                f.rate = rate
                touched.update(f.resources)
                f._version += 1
                if f._queued:
                    f._queued = False
                    self._heap_live -= 1
                left = f.size - f.transferred
                if rate > 0 and left > 0:
                    eta = now + left / rate
                    if eta < math.inf:
                        heapq.heappush(heap, (eta, f.flow_id, f._version, f))
                        f._queued = True
                        self._heap_live += 1
                        stats.heap_pushes += 1
        if self._touched:
            self._resum_touched()
        self._schedule_next_completion()

    def _resum_touched(self) -> None:
        """Recompute ``allocated`` exactly on every touched resource.

        A resource is touched when a member flow's rate changed, a member
        detached, or its capacity changed since the last settlement —
        constrained or not.  Every other resource's member rates are
        unchanged since its last exact sum, so its ``allocated`` still is
        one.  A resource left with no members was reset to 0.0 on detach.
        """
        for res in self._touched:
            if res.flows:
                res.allocated = sum(g.rate for g in res.flows)
        self._touched.clear()

    def _waterfill(self, ordered: list[Flow]) -> dict[Flow, float]:
        """Run the selected kernel over one flow-id-ordered settling union.

        Both kernels receive the union in canonical flow-id order, so their
        per-round freeze/subtract sequences — and therefore every IEEE
        rounding step — coincide exactly.  Unions too small to amortize
        array setup stay on the python path regardless of the selected
        kernel.
        """
        if self.kernel == "numpy" and len(ordered) >= _VECTOR_MIN_FLOWS:
            if self._vector is None:
                self._vector = _VectorWaterfill()
            return self._vector.solve(ordered, self.stats)
        return _max_min_fair(ordered, self.stats)

    def _maybe_compact_heap(self) -> None:
        heap = self._completions
        if len(heap) <= _HEAP_COMPACT_MIN:
            return
        if (len(heap) - self._heap_live) * 2 <= len(heap):
            return
        self._completions = [
            entry for entry in heap
            if entry[3].active and entry[2] == entry[3]._version
        ]
        heapq.heapify(self._completions)
        self.stats.heap_compactions += 1

    def _schedule_next_completion(self) -> None:
        # Drop stale heap entries, then (re)schedule the simulator event for
        # the earliest valid completion.
        self._maybe_compact_heap()
        while self._completions:
            eta, _fid, version, flow = self._completions[0]
            if not flow.active or version != flow._version:
                heapq.heappop(self._completions)
                self.stats.heap_stale_pops += 1
                continue
            break
        if not self._completions:
            if self._completion_event is not None and self._completion_event.pending:
                self._completion_event.cancel()
                self._completion_event = None
            return
        eta = self._completions[0][0]
        delay = max(0.0, eta - self.sim.now)
        if (
            self._completion_event is not None
            and self._completion_event.pending
            and self._completion_event.time == self.sim.now + delay
        ):
            return  # already armed for exactly this instant — keep it
        if self._completion_event is not None and self._completion_event.pending:
            self._completion_event.cancel()
        self._completion_event = self.sim.schedule(delay, self._on_completion_tick)

    def _on_completion_tick(self) -> None:
        now = self.sim.now
        finished: list[Flow] = []
        while self._completions:
            eta, _fid, version, flow = self._completions[0]
            if not flow.active or version != flow._version:
                heapq.heappop(self._completions)
                self.stats.heap_stale_pops += 1
                continue
            if eta > now + 1e-9:
                break
            heapq.heappop(self._completions)
            flow._queued = False
            self._heap_live -= 1
            finished.append(flow)

        affected: set[Flow] = set()
        for flow in finished:
            self._settle(flow)
            flow.transferred = flow.size  # squash float residue
            for res in flow.resources:
                if res.capacity is None:
                    continue
                for other in res.flows:
                    if other is not flow:
                        affected.add(other)
            self._detach(flow)
            flow.end_time = now
            self.completed_count += 1

        for f in affected:
            if f.active:
                self._dirty.setdefault(f)
        self._need_schedule = True
        if not self.batching:
            self.flush()
        # In batched mode even the completion burst defers: the freed
        # capacity, the flows the callbacks below start, and any teardowns
        # they trigger all settle in this event's single settlement pass.
        # Callbacks never observe stale rates — every live-rate reader
        # flushes first.

        for flow in finished:
            if flow.on_complete is not None:
                flow.on_complete(flow)


def _max_min_fair(
    flows: Iterable[Flow], stats: Optional[FlowNetworkStats] = None
) -> dict[Flow, float]:
    """Progressive water-filling with per-flow caps (the python kernel).

    Repeatedly find the binding constraint — either the most-loaded resource's
    equal share or the smallest unfrozen flow cap — and freeze the affected
    flows at that rate.  Each iteration freezes at least one flow, so the
    loop terminates in at most ``len(flows)`` rounds.
    """
    if stats is not None:
        stats.waterfill_calls += 1
    # Count only flows in this component; flows on this resource that are
    # outside the component cannot exist (components are closed under
    # shared resources).
    remaining: dict[Resource, float] = {}
    counts: dict[Resource, int] = {}
    for f in flows:
        for res in f.resources:
            if res.capacity is None:
                continue
            if res not in remaining:
                remaining[res] = res.capacity
                counts[res] = 1
            else:
                counts[res] += 1

    unfrozen = set(flows)
    rates: dict[Flow, float] = {}

    while unfrozen:
        if stats is not None:
            stats.waterfill_rounds += 1
        # Bottleneck share among constrained resources with unfrozen flows.
        share = math.inf
        bottleneck: Optional[Resource] = None
        for res, cap_left in remaining.items():
            n = counts[res]
            if n <= 0:
                continue
            s = cap_left / n
            if s < share:
                share = s
                bottleneck = res

        # Smallest cap among unfrozen flows.
        min_cap = math.inf
        for f in unfrozen:
            if f.cap is not None and f.cap < min_cap:
                min_cap = f.cap

        if min_cap < share:
            # Freeze all flows whose cap equals the minimum at their cap.
            level = min_cap
            frozen = [f for f in unfrozen if f.cap is not None and f.cap <= level]
            for f in frozen:
                rates[f] = f.cap  # type: ignore[assignment]
                unfrozen.discard(f)
                for res in f.resources:
                    if res in remaining:
                        remaining[res] -= f.cap  # type: ignore[operator]
                        counts[res] -= 1
        elif bottleneck is not None:
            level = share
            frozen = [f for f in unfrozen if bottleneck in f.resources]
            for f in frozen:
                rates[f] = level
                unfrozen.discard(f)
                for res in f.resources:
                    if res in remaining:
                        remaining[res] -= level
                        counts[res] -= 1
            remaining[bottleneck] = 0.0
        else:
            # No constrained resource and no cap: unconstrained flows.
            for f in unfrozen:
                rates[f] = f.cap if f.cap is not None else UNCONSTRAINED_RATE
            unfrozen.clear()

    # Guard against tiny negative residue from float subtraction.
    return {f: max(0.0, r) for f, r in rates.items()}


class _VectorWaterfill:
    """Array-based progressive water-filling (the ``numpy`` kernel).

    A settling component is rebuilt into flat arrays — made cheap by the
    interned integer ids both node kinds already carry (``Flow.flow_id``;
    resources are interned into dense local indices in first-encounter
    order over the flow-id-ordered component):

    * ``caps[i]``       — flow *i*'s rate cap (``inf`` when uncapped);
    * ``inc_flow[k]`` / ``inc_res[k]`` — the CSR-style flow→resource
      incidence list, flow-major in flow-id order (so entry order equals
      the reference kernel's iteration order);
    * ``remaining[j]`` / ``counts[j]`` — per-resource capacity left and
      unfrozen-flow occurrence counts.

    Each freezing round is then vector ops: an elementwise divide +
    ``argmin`` finds the bottleneck share, a boolean mask selects the
    flows to freeze (every flow whose cap equals the binding minimum cap,
    or every unfrozen flow crossing the bottleneck), and an *ordered*
    ``np.subtract.at`` scatter-subtracts the frozen rates from their
    resources.  ``subtract.at`` applies repeated indices sequentially in
    entry order, and within a round every subtracted value is identical
    (the frozen caps all equal the minimum cap; the bottleneck freezes at
    one level), so each remaining-capacity cell sees the exact IEEE
    operation sequence the python kernel performs — results are
    bit-identical, which the hypothesis suite and the golden pipeline
    both assert.

    Buffers are owned by the instance and grown geometrically, so steady
    state settles allocate nothing; one instance lives per
    :class:`FlowNetwork` and is reused across all its settle calls.
    """

    #: Settle-call stamps are global so two networks sharing Resource
    #: objects can never mistake each other's interned slots for their own.
    _next_stamp = 0

    __slots__ = ("np", "_caps", "_rates", "_unfrozen", "_frozen",
                 "_inc_flow", "_inc_res", "_remaining", "_counts", "_share")

    def __init__(self):
        import numpy
        self.np = numpy
        self._caps = numpy.empty(0)
        self._rates = numpy.empty(0)
        self._unfrozen = numpy.empty(0, dtype=bool)
        self._frozen = numpy.empty(0, dtype=bool)
        self._inc_flow = numpy.empty(0, dtype=numpy.intp)
        self._inc_res = numpy.empty(0, dtype=numpy.intp)
        self._remaining = numpy.empty(0)
        self._counts = numpy.empty(0, dtype=numpy.int64)
        self._share = numpy.empty(0)

    def _fit(self, name: str, n: int):
        """The named buffer, grown (never shrunk) to hold ``n`` entries."""
        buf = getattr(self, name)
        if len(buf) < n:
            buf = self.np.empty(max(n, 2 * len(buf)), dtype=buf.dtype)
            setattr(self, name, buf)
        return buf

    def solve(
        self, ordered: list[Flow], stats: Optional[FlowNetworkStats] = None
    ) -> dict[Flow, float]:
        """Max-min fair rates for one component, in flow-id order."""
        np = self.np
        if stats is not None:
            stats.waterfill_calls += 1
        nf = len(ordered)

        # ---- rebuild the component into arrays -------------------------
        # Resources are interned to dense local slots via a stamp (no dict,
        # no hashing): a resource whose stamp is stale gets the next slot.
        caps = self._fit("_caps", nf)
        inc_cap = sum(len(f.resources) for f in ordered)
        inc_flow = self._fit("_inc_flow", inc_cap)
        inc_res = self._fit("_inc_res", inc_cap)
        stamp = _VectorWaterfill._next_stamp = _VectorWaterfill._next_stamp + 1
        res_list: list[Resource] = []
        k = 0
        for i, f in enumerate(ordered):
            cap = f.cap
            caps[i] = math.inf if cap is None else cap
            for res in f.resources:
                if res.capacity is None:
                    continue  # never binds; keeping it out shrinks the arrays
                if res._stamp != stamp:
                    res._stamp = stamp
                    res._slot = len(res_list)
                    res_list.append(res)
                inc_flow[k] = i
                inc_res[k] = res._slot
                k += 1
        nr = len(res_list)
        caps = caps[:nf]
        inc_flow = inc_flow[:k]
        inc_res = inc_res[:k]

        remaining = self._fit("_remaining", nr)[:nr]
        counts = self._fit("_counts", nr)[:nr]
        share = self._fit("_share", nr)[:nr]
        for j, res in enumerate(res_list):
            remaining[j] = res.capacity
        counts[:] = 0
        np.add.at(counts, inc_res, 1)

        rates = self._fit("_rates", nf)[:nf]
        rates[:] = 0.0
        unfrozen = self._fit("_unfrozen", nf)[:nf]
        unfrozen[:] = True
        frozen = self._fit("_frozen", nf)[:nf]

        # ---- freezing rounds -------------------------------------------
        # ``caps`` doubles as the live cap array: a frozen flow's entry is
        # overwritten with inf, so the per-round minimum only ever sees
        # unfrozen caps (the reference scans the unfrozen set the same way).
        remaining_flows = nf
        while remaining_flows:
            if stats is not None:
                stats.waterfill_rounds += 1
            # Bottleneck share among constrained resources with unfrozen
            # flows; inactive resources keep inf so argmin (first-minimum,
            # like the reference's strict '<' scan) skips them.  An
            # infinite minimum means no resource binds at all.
            share.fill(math.inf)
            np.divide(remaining, counts, out=share, where=counts > 0)
            if nr:
                b = int(np.argmin(share))
                level = float(share[b])
            else:
                b = -1
                level = math.inf

            # Smallest cap among unfrozen flows (inf when all uncapped;
            # frozen entries were overwritten with inf below).
            min_cap = float(caps.min())

            if min_cap < level:
                # Freeze every flow whose cap equals the binding minimum —
                # ``<=`` like the reference, but every selected cap *is*
                # min_cap exactly, so the scatter subtracts the same value
                # the reference kernel subtracts flow by flow.
                np.less_equal(caps, min_cap, out=frozen)
                rates[frozen] = min_cap
                idx = inc_res[frozen[inc_flow]]
                np.subtract.at(remaining, idx, min_cap)
            elif level < math.inf:
                # Freeze every unfrozen flow crossing the bottleneck at the
                # equal share.
                frozen[:] = False
                touching = inc_res == b
                touching &= unfrozen[inc_flow]
                frozen[inc_flow[touching]] = True
                rates[frozen] = level
                idx = inc_res[frozen[inc_flow]]
                np.subtract.at(remaining, idx, level)
                remaining[b] = 0.0
            else:
                # No constrained resource and no unfrozen cap (min_cap is
                # also inf here, or the cap branch would have taken it):
                # the leftovers are fully unconstrained flows.
                rates[unfrozen] = UNCONSTRAINED_RATE
                break
            np.add.at(counts, idx, -1)
            unfrozen[frozen] = False
            caps[frozen] = math.inf
            remaining_flows -= int(np.count_nonzero(frozen))

        # Guard against tiny negative residue from float subtraction
        # (same final clamp as the reference kernel).
        return {f: max(0.0, float(rates[i])) for i, f in enumerate(ordered)}
