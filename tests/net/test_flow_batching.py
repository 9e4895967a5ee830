"""Batched settlement vs the reference per-mutation engine.

The batched engine (``FlowNetwork(batching=True)``, the default) defers
settlement of same-timestamp mutation bursts to one pass per simulator
event; the reference engine settles after every mutation.  Within a
timestamp no simulated time passes, so the two must produce *identical*
trajectories — these tests assert that, exactly, over randomized
workloads, and pin the golden-seed experiment output.
"""

from __future__ import annotations

import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.invariants.checkers import _ABS, _REL, check_flow_feasibility
from repro.net.flows import FlowNetwork, Resource
from repro.net.sim import Simulator

MBPS = 1e6 / 8.0


# ------------------------------------------------------- randomized parity


def _build_schedule(seed: int, n_peers: int = 24, n_events: int = 50):
    """A deterministic mutation schedule, independent of either engine.

    The schedule is pure data — (time, ops) with flows referenced by the
    order they were started — so applying it cannot entangle the RNG
    stream with engine behaviour.
    """
    rng = random.Random(seed)
    links = [
        (rng.uniform(4.0, 40.0) * MBPS, rng.uniform(0.5, 4.0) * MBPS)
        for _ in range(n_peers)
    ]
    events = []
    t = 0.0
    started = 0
    for _ in range(n_events):
        t += rng.uniform(0.5, 25.0)
        ops = []
        for _ in range(rng.randrange(1, 8)):
            draw = rng.random()
            if draw < 0.55 or started == 0:
                down = rng.randrange(n_peers)
                up = rng.randrange(n_peers)
                if up == down:
                    up = (up + 1) % n_peers
                ops.append(("start", down, up, rng.uniform(1e6, 6e7)))
                started += 1
            elif draw < 0.75:
                ops.append(("abort", rng.randrange(started)))
            elif draw < 0.9:
                ops.append(("cap", rng.randrange(started),
                            rng.uniform(0.2, 8.0) * MBPS))
            else:
                down = rng.randrange(n_peers)
                ops.append(("degrade", down,
                            rng.uniform(0.2, 1.0) * links[down][0]))
        events.append((t, ops))
    return links, events


def _run_engine(links, events, *, batching: bool):
    sim = Simulator()
    net = FlowNetwork(sim, batching=batching)
    downs = [Resource(f"p{i}/down", d) for i, (d, _) in enumerate(links)]
    ups = [Resource(f"p{i}/up", u) for i, (_, u) in enumerate(links)]
    flows: list = []

    def apply(ops) -> None:
        for op in ops:
            if op[0] == "start":
                _, down, up, size = op
                flows.append(net.start_flow((downs[down], ups[up]), size))
            elif op[0] == "abort":
                net.abort_flow(flows[op[1]])
            elif op[0] == "cap":
                net.set_cap(flows[op[1]], op[2])
            else:
                net.set_resource_capacity(downs[op[1]], op[2])

    for t, ops in events:
        sim.schedule_at(t, lambda ops=ops: apply(ops))
    sim.run()
    return net, [(f.start_time, f.end_time, f.transferred, f.active)
                 for f in flows]


@pytest.mark.parametrize("seed", range(6))
def test_randomized_schedules_identical(seed):
    """Same schedule, both engines: identical per-flow trajectories.

    Floats are compared at rel=1e-9: settling a burst as one union
    water-filling can reassociate the same sums the reference computes
    component-by-component, which moves results by a couple of ulp.
    The byte-identical guarantee on *rendered* experiment output is
    pinned separately in ``tests/test_golden_parity.py``.
    """
    links, events = _build_schedule(seed)
    net_b, flows_b = _run_engine(links, events, batching=True)
    net_r, flows_r = _run_engine(links, events, batching=False)

    assert len(flows_b) == len(flows_r)
    for got, want in zip(flows_b, flows_r):
        b_start, b_end, b_transferred, b_active = got
        r_start, r_end, r_transferred, r_active = want
        assert b_active == r_active
        assert b_start == r_start
        if r_end is None:
            assert b_end is None
        else:
            assert b_end == pytest.approx(r_end, rel=1e-9)
        assert b_transferred == pytest.approx(r_transferred, rel=1e-9)
    assert net_b.completed_count == net_r.completed_count
    assert net_b.aborted_count == net_r.aborted_count
    # Batching must not *increase* settlement work.
    assert net_b.stats.waterfill_calls <= net_r.stats.waterfill_calls


def test_burst_settles_once_per_event():
    """One event's worth of mutations costs one settlement, not N."""
    links, _ = _build_schedule(0, n_peers=8)
    sim = Simulator()
    net = FlowNetwork(sim, batching=True)
    shared = Resource("shared", 100.0)

    def burst():
        for _ in range(10):
            net.start_flow([shared], 1e9)

    sim.schedule_at(1.0, burst)
    sim.run(until=2.0)
    assert net.stats.mutations == 10
    assert net.stats.reallocations == 1


def test_reference_settles_per_mutation():
    sim = Simulator()
    net = FlowNetwork(sim, batching=False)
    shared = Resource("shared", 100.0)

    def burst():
        for _ in range(10):
            net.start_flow([shared], 1e9)

    sim.schedule_at(1.0, burst)
    sim.run(until=2.0)
    assert net.stats.reallocations == 10


# ------------------------------------------------------------ batch() / flush


def test_batch_context_defers_settlement():
    sim = Simulator()
    net = FlowNetwork(sim, batching=True)
    shared = Resource("shared", 100.0)
    with net.batch():
        flows = [net.start_flow([shared], 1e6) for _ in range(5)]
        # Inside the batch nothing has settled yet.
        assert net.stats.reallocations == 0
        assert all(f.rate == 0.0 for f in flows)
    assert net.stats.reallocations == 1
    assert all(f.rate == pytest.approx(20.0) for f in flows)


def test_outside_event_settles_immediately():
    sim = Simulator()
    net = FlowNetwork(sim, batching=True)
    shared = Resource("shared", 100.0)
    flow = net.start_flow([shared], 1e6)
    assert flow.rate == pytest.approx(100.0)
    assert net.stats.reallocations == 1


def test_flush_on_read_inside_event():
    """An in-event reader can force settlement with an explicit flush()."""
    sim = Simulator()
    net = FlowNetwork(sim, batching=True)
    shared = Resource("shared", 100.0)
    seen = []

    def burst():
        f = net.start_flow([shared], 1e9)
        net.flush()
        seen.append(f.rate)

    sim.schedule_at(1.0, burst)
    sim.run(until=2.0)
    assert seen == [pytest.approx(100.0)]


def test_nested_batches_settle_at_outermost_exit():
    sim = Simulator()
    net = FlowNetwork(sim, batching=True)
    shared = Resource("shared", 100.0)
    with net.batch():
        net.start_flow([shared], 1e6)
        with net.batch():
            net.start_flow([shared], 1e6)
        assert net.stats.reallocations == 0
    assert net.stats.reallocations == 1


# ------------------------------------------------------------- incrementals


def test_utilization_matches_recomputed_sum():
    sim = Simulator()
    net = FlowNetwork(sim, batching=True)
    shared = Resource("shared", 100.0)
    flows = [net.start_flow([shared], 1e9, cap=float(10 * (i + 1)))
             for i in range(3)]
    net.set_cap(flows[0], 5.0)
    net.abort_flow(flows[2])
    expected = sum(f.rate for f in shared.flows) / 100.0
    assert shared.utilization == pytest.approx(expected)
    assert shared.allocated == pytest.approx(sum(f.rate for f in shared.flows))


def test_utilization_zero_after_all_flows_end():
    sim = Simulator()
    net = FlowNetwork(sim, batching=True)
    shared = Resource("shared", 100.0)
    flow = net.start_flow([shared], 1e6)
    net.abort_flow(flow)
    assert shared.allocated == 0.0
    assert shared.utilization == 0.0


def test_heap_skips_unchanged_rates():
    """Mutating one capped flow must not re-push the whole component."""
    sim = Simulator()
    net = FlowNetwork(sim, batching=True)
    shared = Resource("shared", 1000.0)
    for _ in range(20):
        net.start_flow([shared], 1e9, cap=10.0)
    pushes_before = net.stats.heap_pushes
    # A new capped flow below fair share leaves the others' rates alone.
    net.start_flow([shared], 1e9, cap=10.0)
    assert net.stats.heap_pushes == pushes_before + 1
    assert net.stats.heap_skips >= 20


def test_heap_compaction_bounds_stale_entries():
    sim = Simulator()
    net = FlowNetwork(sim, batching=True)
    shared = Resource("shared", 1000.0)
    flows = [net.start_flow([shared], 1e12) for _ in range(80)]
    # Repeated cap churn re-rates every flow, staling old heap entries.
    for round_ in range(20):
        for f in flows:
            net.set_cap(f, 1.0 + (round_ % 7))
    assert net.stats.heap_compactions > 0
    # The heap stays compact relative to total pushes.
    assert len(net._completions) < net.stats.heap_pushes


def test_completion_burst_settles_in_one_pass():
    """Flows finishing at the same instant settle (and fire) together."""
    sim = Simulator()
    net = FlowNetwork(sim, batching=True)
    done = []
    for i in range(4):
        res = Resource(f"r{i}", 100.0)
        net.start_flow([res], 1000.0, on_complete=lambda f: done.append(sim.now))
    settles_before = net.stats.reallocations
    sim.run()
    assert done == [pytest.approx(10.0)] * 4
    assert net.completed_count == 4
    # All four same-instant completions resolved in one settlement pass.
    assert net.stats.reallocations <= settles_before + 2


def test_unconstrained_resource_allocated_tracks_member_rates():
    """A detach from a shared unconstrained resource leaves no drift.

    ``edge`` never binds, so it couples no allocations; when the short
    flow completes, its rate must still leave ``edge.allocated`` equal to
    the long flow's rate rather than drifting below it.
    """
    sim = Simulator()
    net = FlowNetwork(sim, batching=True)
    edge = Resource("edge", None)
    net.start_flow([edge, Resource("d1", 100.0)], 1e3)
    long_flow = net.start_flow([edge, Resource("d2", 50.0)], 1e6)
    sim.run(until=20.0)
    assert net.completed_count == 1
    assert edge.allocated == long_flow.rate == 50.0
    violations = []
    check_flow_feasibility(SimpleNamespace(flows=net),
                           lambda *violation: violations.append(violation))
    assert violations == []


# ----------------------------------------------------- bookkeeping property

_CAPACITY = st.one_of(st.none(), st.floats(min_value=20.0, max_value=500.0))
_FLOW_CAP = st.one_of(st.none(), st.floats(min_value=5.0, max_value=300.0))
_OPS = st.one_of(
    st.tuples(st.just("start"),
              st.lists(st.integers(0, 5), min_size=1, max_size=3, unique=True),
              st.floats(min_value=100.0, max_value=2e4), _FLOW_CAP),
    st.tuples(st.just("abort"), st.integers(0, 10**6)),
    st.tuples(st.just("cap"), st.integers(0, 10**6), _FLOW_CAP),
    st.tuples(st.just("capacity"), st.integers(0, 5), _CAPACITY),
)


def _brute_force_components(flows) -> list[set]:
    """Connected components of active flows sharing a constrained resource."""
    flows = [f for f in flows if f.active]
    parent = {f: f for f in flows}

    def root(f):
        while parent[f] is not f:
            f = parent[f]
        return f

    for i, f in enumerate(flows):
        for g in flows[i + 1:]:
            if any(r.capacity is not None and r in g.resources
                   for r in f.resources):
                parent[root(g)] = root(f)
    groups: dict = {}
    for f in flows:
        groups.setdefault(root(f), set()).add(f)
    return list(groups.values())


@given(capacities=st.lists(_CAPACITY, min_size=6, max_size=6),
       bursts=st.lists(st.lists(_OPS, min_size=1, max_size=6),
                       min_size=1, max_size=12))
@settings(max_examples=60, deadline=None)
def test_bookkeeping_exact_at_every_event_boundary(capacities, bursts):
    """Random mutation bursts keep ``allocated`` and flush counters exact.

    After every event boundary (bursts and completion ticks alike) each
    resource's ``allocated`` equals its member-rate sum within the
    invariant checker's tolerance, and every flush's component counters
    equal a brute-force recount of the dirty flows' components.
    """
    sim = Simulator()
    net = FlowNetwork(sim, batching=True)
    resources = [Resource(f"r{i}", cap) for i, cap in enumerate(capacities)]
    flows: list = []
    expected = {"components": 0, "flows_reallocated": 0, "max_component": 0}
    settle = net.flush

    def counted_flush() -> None:
        dirty = [f for f in net._dirty if f.active]
        sizes = [len(c) for c in _brute_force_components(net.active_flows)
                 if any(f in c for f in dirty)]
        settle()
        if sizes:
            expected["components"] += len(sizes)
            expected["flows_reallocated"] += sum(sizes)
            expected["max_component"] = max(expected["max_component"],
                                             *sizes)
        assert {k: getattr(net.stats, k) for k in expected} == expected

    net.flush = counted_flush

    def check() -> None:
        for res in resources:
            total = sum(f.rate for f in res.flows)
            assert abs(res.allocated - total) <= max(
                _REL * max(abs(total), 1.0), _ABS), res.name

    sim.add_post_event_hook(check)

    def apply(ops) -> None:
        for op in ops:
            if op[0] == "start":
                _, picked, size, cap = op
                flows.append(net.start_flow(
                    [resources[i] for i in picked], size, cap=cap))
            elif op[0] == "capacity":
                net.set_resource_capacity(resources[op[1]], op[2])
            elif not flows:
                continue
            elif op[0] == "abort":
                net.abort_flow(flows[op[1] % len(flows)])
            else:
                net.set_cap(flows[op[1] % len(flows)], op[2])

    for i, ops in enumerate(bursts):
        sim.schedule_at(5.0 * i, lambda ops=ops: apply(ops))
    sim.run(until=200.0)
    check()
