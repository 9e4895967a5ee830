"""Sim-core benchmarks: the batched allocation engine vs the reference.

Two workloads, both run under the batched (default) and the reference
per-mutation settlement policy (``SystemConfig.flow_batching=False`` /
``FlowNetwork(batching=False)``):

* a **swarm-burst microbenchmark** driving a raw :class:`FlowNetwork`
  with the exact pattern the engine targets — same-timestamp bursts of
  flow starts/aborts/cap changes (swarm connection churn) plus periodic
  capacity waves over half the links (region-style faults);
* an **end-to-end scenario** through :mod:`repro.workload` with a fault
  schedule (link-degradation waves, churn storms, an edge brownout).

Both policies must produce identical completion/abort counts — the
benchmark doubles as a coarse equivalence check (the fine-grained one
lives in ``tests/net/test_flow_batching.py``).  A third workload pits
the numpy water-filling kernel against the python reference at a scale
where components are large enough for the arrays to pay off, and a
fourth times both kernels per component size on captured settle
components to locate their crossover.  Results
land in the ``BENCH_simcore.json`` trajectory at the repo root, which
the CI bench gate checks against the committed baseline on every PR.
"""

from __future__ import annotations

import gc
import random
import time

import pytest

from benchmarks._results import record_results
from repro.core.config import SystemConfig
from repro.faults.spec import EdgeBrownout, LinkDegradation, PeerChurnStorm
from repro.experiments.common import standard_config
from repro.net.flows import (
    _VECTOR_MIN_FLOWS, Flow, FlowNetwork, Resource, _max_min_fair,
    _VectorWaterfill,
)
from repro.net.links import mbps
from repro.net.sim import Simulator
from repro.workload import (
    CatalogConfig, DemandConfig, PopulationConfig, ScenarioConfig, run_scenario,
)
from repro.workload.devices import desktop_only

#: Collected by the tests, dumped once at module teardown.
RESULTS: dict[str, dict] = {}


@pytest.fixture(scope="module", autouse=True)
def _dump_results():
    yield
    record_results(RESULTS)


def _record(name: str, batched, reference) -> None:
    """Store a batched/reference pair plus the derived ratios."""
    b_wall, b_stats = batched
    r_wall, r_stats = reference
    RESULTS[name] = {
        "batched": {"wall_seconds": round(b_wall, 3), **b_stats},
        "reference": {"wall_seconds": round(r_wall, 3), **r_stats},
        "waterfill_ratio": round(
            r_stats["waterfill_calls"] / b_stats["waterfill_calls"], 2
        ),
        "wall_ratio": round(r_wall / b_wall, 2),
    }


# ------------------------------------------------------------- swarm bursts


def _run_swarm_burst(batching: bool, *, kernel: str = "numpy", n: int = 120,
                     horizon: float = 3600.0, starts: int = 10,
                     aborts: int = 6, caps: int = 8):
    """A raw-FlowNetwork swarm: bursty churn plus capacity waves.

    Every 20 s one event aborts up to ``aborts`` flows, starts ``starts``,
    and re-caps ``caps`` — the same-timestamp mutation burst a swarm tick
    produces.  Every 20 min a wave degrades half the downlinks in a single
    event and restores them 10 min later (a region fault).  The RNG stream
    is consumed identically under both policies and both kernels, so the
    schedules are the same workload whichever engine runs it.
    """
    sim = Simulator()
    net = FlowNetwork(sim, batching=batching, kernel=kernel)
    rng = random.Random(0xBEEF)
    downs, ups = [], []
    for i in range(n):
        down = rng.uniform(4.0, 40.0)
        downs.append(Resource(f"peer{i}/down", mbps(down)))
        ups.append(Resource(f"peer{i}/up", mbps(down / rng.uniform(4.0, 12.0))))
    active: list = []

    def burst() -> None:
        for _ in range(aborts):
            if active:
                net.abort_flow(active.pop(rng.randrange(len(active))))
        for _ in range(starts):
            d = rng.randrange(n)
            u = rng.randrange(n)
            if u == d:
                u = (u + 1) % n
            active.append(net.start_flow(
                (downs[d], ups[u]), size=rng.uniform(20.0, 200.0) * 1e6
            ))
        for _ in range(caps):
            if active:
                net.set_cap(rng.choice(active), mbps(rng.uniform(0.5, 8.0)))

    originals = [r.capacity for r in downs]

    def wave(restore: bool) -> None:
        for i in range(0, n, 2):
            cap = originals[i] if restore else originals[i] * 0.3
            net.set_resource_capacity(downs[i], cap)

    for t in range(0, int(horizon), 20):
        sim.schedule_at(float(t), burst)
    for t in range(600, int(horizon), 1200):
        sim.schedule_at(float(t), lambda: wave(False))
        sim.schedule_at(float(t + 600), lambda: wave(True))

    started = time.perf_counter()
    sim.run(until=horizon)
    wall = time.perf_counter() - started
    stats = dict(net.stats.as_dict())
    stats["completed"] = net.completed_count
    stats["aborted"] = net.aborted_count
    return wall, stats


def test_swarm_burst_batching():
    """Burst-heavy swarm: batching must at least halve water-filling work."""
    b_wall, b_stats = _run_swarm_burst(batching=True)
    r_wall, r_stats = _run_swarm_burst(batching=False)
    _record("swarm_burst", (b_wall, b_stats), (r_wall, r_stats))

    # Identical workload, identical outcome under both policies.
    assert b_stats["completed"] == r_stats["completed"]
    assert b_stats["aborted"] == r_stats["aborted"]
    assert b_stats["mutations"] == r_stats["mutations"]

    # The acceptance bar: >= 2x fewer water-filling invocations and a
    # wall-clock win (the measured margin is ~4.5x / ~4x; asserting the
    # bar, not the margin, keeps the test robust on slow CI machines).
    assert r_stats["waterfill_calls"] >= 2 * b_stats["waterfill_calls"]
    assert b_wall < r_wall

    # Heap maintenance: skipping unchanged-rate re-pushes must dominate.
    assert b_stats["heap_skips"] > b_stats["heap_pushes"]


def test_swarm_burst_kernels():
    """Vectorized water-filling: exact parity and >= 1.5x at swarm scale.

    A denser burst (300 peers, 27 starts per tick) keeps the settled
    components large enough that the numpy kernel's per-round fixed cost
    amortizes; the measured margin is ~2x, the asserted bar is the
    acceptance criterion.  Identical completion/abort/round counters are
    the coarse equivalence check — the exact per-rate one lives in
    ``tests/net/test_kernels.py``.
    """
    scale = dict(n=300, horizon=1800.0, starts=27, aborts=18, caps=12)
    p_wall, p_stats = _run_swarm_burst(batching=True, kernel="python", **scale)
    v_wall, v_stats = _run_swarm_burst(batching=True, kernel="numpy", **scale)
    speedup = p_wall / v_wall
    RESULTS["swarm_burst_kernels"] = {
        "numpy": {"wall_seconds": round(v_wall, 3),
                  "waterfill_rounds": v_stats["waterfill_rounds"]},
        "python": {"wall_seconds": round(p_wall, 3),
                   "waterfill_rounds": p_stats["waterfill_rounds"]},
        "completed": v_stats["completed"],
        "aborted": v_stats["aborted"],
        "speedup": round(speedup, 2),
        **{k: v for k, v in scale.items()},
    }

    # Same workload, same trajectory — byte-identical settle results mean
    # every derived counter matches exactly.
    assert v_stats["completed"] == p_stats["completed"]
    assert v_stats["aborted"] == p_stats["aborted"]
    assert v_stats["mutations"] == p_stats["mutations"]
    assert v_stats["waterfill_rounds"] == p_stats["waterfill_rounds"]

    assert speedup >= 1.5, (
        f"numpy kernel only {speedup:.2f}x vs python (bar: 1.5x)"
    )


# ------------------------------------------------------------ kernel cutover

#: Lower edges of the component-size buckets the crossover is timed over.
_BUCKET_EDGES = (1, 8, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512,
                 768, 1024)

#: Components kept per bucket and source, and timing repeats per component.
_PER_BUCKET = 40
_REPEATS = 3


def _bucket(size: int) -> int:
    return max(edge for edge in _BUCKET_EDGES if edge <= size)


def _capture_components(monkeypatch, run):
    """Settle unions ``run`` hands the kernels, frozen and bucketed by size.

    Each captured union is copied into fresh :class:`Flow` /
    :class:`Resource` objects with the caps and capacities of that
    instant, so later mutations of the live network cannot change it.
    Returns the buckets and the largest union seen, captured or not.
    """
    captured: dict[int, list[list[Flow]]] = {}
    largest = [0]
    settle = FlowNetwork._waterfill

    def capture(net, ordered):
        largest[0] = max(largest[0], len(ordered))
        kept = captured.setdefault(_bucket(len(ordered)), [])
        if len(kept) < _PER_BUCKET:
            copies: dict[int, Resource] = {}
            kept.append([
                Flow(f.flow_id, tuple(
                    copies.setdefault(id(r), Resource(r.name, r.capacity))
                    for r in f.resources),
                    f.size, f.cap, None, None, 0.0)
                for f in ordered])
        return settle(net, ordered)

    with monkeypatch.context() as patch:
        patch.setattr(FlowNetwork, "_waterfill", capture)
        run()
    return captured, largest[0]


def _time_kernel(solve, components) -> float:
    """Mean microseconds per component, best of :data:`_REPEATS` each."""
    total = 0.0
    for ordered in components:
        best = float("inf")
        for _ in range(_REPEATS):
            started = time.perf_counter()
            solve(ordered)
            best = min(best, time.perf_counter() - started)
        total += best
    return 1e6 * total / len(components)


def test_kernel_crossover(monkeypatch):
    """Evidence for ``_VECTOR_MIN_FLOWS``: both kernels per component size.

    Settle components are captured from the seed-42 small trace (the
    workload every small-scale table reads) and from the 300-peer swarm
    burst (the scale the numpy kernel exists for), bucketed by flow count,
    and timed on both kernels.  The measured crossover is the smallest
    bucket from which the numpy kernel wins in every larger bucket.  The
    table and the constant in force are recorded in ``BENCH_simcore.json``;
    the only assertion is exact rate equality between the kernels on
    every captured component, so the bench cannot flake on timing.
    """
    sources = {
        "trace_small": _capture_components(
            monkeypatch, lambda: run_scenario(standard_config("small", 42))),
        "swarm_burst_300": _capture_components(
            monkeypatch, lambda: _run_swarm_burst(
                batching=True, n=300, horizon=1800.0, starts=27, aborts=18,
                caps=12)),
    }
    vector = _VectorWaterfill()
    buckets: dict[int, dict] = {}
    for source, (captured, _largest) in sources.items():
        for edge, components in captured.items():
            for ordered in components:
                want = _max_min_fair(ordered)
                got = vector.solve(ordered)
                assert [got[f] for f in ordered] == [want[f] for f in ordered]
            row = buckets.setdefault(edge, {"components": 0, "python_us": 0.0,
                                            "numpy_us": 0.0})
            n = len(components)
            row["python_us"] += n * _time_kernel(_max_min_fair, components)
            row["numpy_us"] += n * _time_kernel(vector.solve, components)
            row["components"] += n
            row.setdefault("sources", []).append(source)

    table = []
    for edge in sorted(buckets):
        row = buckets[edge]
        n = row["components"]
        table.append({
            "min_flows": edge, "components": n, "sources": row["sources"],
            "python_us": round(row["python_us"] / n, 1),
            "numpy_us": round(row["numpy_us"] / n, 1),
        })
    crossover = None
    for entry in reversed(table):
        if entry["numpy_us"] >= entry["python_us"]:
            break
        crossover = entry["min_flows"]
    RESULTS["kernel_crossover"] = {
        "buckets": table,
        "measured_crossover": crossover,
        "vector_min_flows": _VECTOR_MIN_FLOWS,
        "largest_union": {source: largest
                          for source, (_captured, largest) in sources.items()},
        "per_bucket": _PER_BUCKET,
        "repeats": _REPEATS,
    }
    for entry in table:
        print(f"{entry['min_flows']:>5}+ flows  n={entry['components']:>3}  "
              f"python {entry['python_us']:>9.1f} us  "
              f"numpy {entry['numpy_us']:>9.1f} us")
    print(f"measured crossover {crossover}, _VECTOR_MIN_FLOWS "
          f"{_VECTOR_MIN_FLOWS}")


# ------------------------------------------------------- end-to-end scenario

_HOUR = 3600.0

#: Link-degradation waves + churn storms + an edge brownout over half a
#: simulated day: the fault-injection half of the burst story.
_FAULTS = tuple(
    LinkDegradation(name=f"squeeze{i}", start=(1.5 + 2.5 * i) * _HOUR,
                    duration=1.5 * _HOUR, fraction=0.6,
                    down_factor=0.3, up_factor=0.3)
    for i in range(4)
) + (
    PeerChurnStorm(name="storm", start=4 * _HOUR, duration=2 * _HOUR,
                   fraction=0.5),
    EdgeBrownout(name="brownout", start=8 * _HOUR, duration=2 * _HOUR,
                 fraction=1.0, capacity_factor=0.05),
)


def _scenario_config(batching: bool) -> ScenarioConfig:
    return ScenarioConfig(
        seed=7,
        duration_days=0.5,
        system=SystemConfig(flow_batching=batching),
        population=PopulationConfig(n_peers=300),
        demand=DemandConfig(total_downloads=400, duration_days=0.5),
        catalog=CatalogConfig(objects_per_provider=12),
        faults=_FAULTS,
    )


def _run_scenario_mode(batching: bool):
    started = time.perf_counter()
    result = run_scenario(_scenario_config(batching))
    wall = time.perf_counter() - started
    stats = result.system.stats()
    flat = dict(stats.flows.as_dict())
    flat["completed"] = stats.flows_completed
    flat["aborted"] = stats.flows_aborted
    flat["events_processed"] = stats.events_processed
    return wall, flat


def test_scenario_batching():
    """Full workload + faults: deterministic parity and a wall-clock win.

    End to end, chunk completions (one settlement either way) dilute the
    burst savings, so the invocation ratio here is lower than the swarm
    microbenchmark's — the 2x acceptance bar is asserted there; here we
    require parity and a strict reduction in both invocations and time.
    """
    b_wall, b_stats = _run_scenario_mode(batching=True)
    r_wall, r_stats = _run_scenario_mode(batching=False)
    _record("workload_faults", (b_wall, b_stats), (r_wall, r_stats))

    # Both engines must simulate the same run.
    assert b_stats["completed"] == r_stats["completed"]
    assert b_stats["aborted"] == r_stats["aborted"]
    assert b_stats["mutations"] == r_stats["mutations"]

    assert r_stats["waterfill_calls"] > b_stats["waterfill_calls"] * 1.2
    assert b_wall < r_wall


# ------------------------------------------------------- invariant auditing


def _swarm_burst_wall(*, audited: bool, rounds: int = 3) -> float:
    """Min-of-N wall time for the swarm burst, with/without an audit hook.

    The hook mirrors what :class:`repro.invariants.InvariantAuditor` costs
    this raw-simulator workload: the per-event countdown branch plus a
    callback at the default cadence (there is no system here, so the
    callback body is empty — the checkers' own cost is bounded separately
    by the scenario comparison below).
    """
    best = float("inf")
    for _ in range(rounds):
        sim = Simulator()
        if audited:
            sim.set_audit_hook(lambda: None, every_events=20_000)
        net = FlowNetwork(sim, batching=True)
        rng = random.Random(0xBEEF)
        res = [Resource(f"p{i}", mbps(rng.uniform(4.0, 40.0)))
               for i in range(120)]
        active: list = []

        def burst() -> None:
            for _ in range(6):
                if active:
                    net.abort_flow(active.pop(rng.randrange(len(active))))
            for _ in range(10):
                a, b = rng.randrange(120), rng.randrange(120)
                if a == b:
                    b = (b + 1) % 120
                active.append(net.start_flow(
                    (res[a], res[b]), size=rng.uniform(20.0, 200.0) * 1e6))

        for t in range(0, 3600, 20):
            sim.schedule_at(float(t), burst)
        started = time.perf_counter()
        sim.run(until=3600.0)
        best = min(best, time.perf_counter() - started)
    return best


def test_audit_hook_overhead_swarm_burst():
    """Observe-mode plumbing must cost the hot loop < 5% (acceptance bar)."""
    base = _swarm_burst_wall(audited=False)
    audited = _swarm_burst_wall(audited=True)
    overhead = audited / base - 1.0
    RESULTS["audit_hook_overhead"] = {
        "base_wall_seconds": round(base, 3),
        "audited_wall_seconds": round(audited, 3),
        "overhead_fraction": round(overhead, 4),
    }
    assert overhead < 0.05, f"audit hook costs {overhead:.1%} (budget 5%)"


def test_reputation_overhead_scenario():
    """The adversarial defense must cost an honest swarm < 5% wall clock.

    Defense on over a fully honest population is the worst case for
    overhead accounting: every accepted UsageReport is ingested, every
    ``select_peers`` call ranks candidates through the reputation engine,
    and nothing is ever quarantined — pure bookkeeping, zero payoff.  The
    swarm-burst fault workload from the batching comparison doubles as
    the stressor (connection churn means many reports and many queries).
    """
    def run_mode(defense: bool) -> float:
        config = _scenario_config(batching=True)
        config = ScenarioConfig(**{
            **config.__dict__,
            "system": config.system.with_defense(enabled=defense),
        })
        started = time.perf_counter()
        run_scenario(config)
        return time.perf_counter() - started

    # Interleaved min-of-N, same rationale as the observe-mode bench.
    off_wall = on_wall = float("inf")
    for _ in range(3):
        off_wall = min(off_wall, run_mode(False))
        on_wall = min(on_wall, run_mode(True))
    overhead = on_wall / off_wall - 1.0
    RESULTS["reputation_overhead"] = {
        "off_wall_seconds": round(off_wall, 3),
        "defense_wall_seconds": round(on_wall, 3),
        "overhead_fraction": round(overhead, 4),
    }
    assert overhead < 0.05, f"reputation engine costs {overhead:.1%} (budget 5%)"


def test_device_tier_assignment_overhead():
    """Tier assignment must cost a population build < 5% wall clock.

    ``desktop_only()`` is the null mix: every class draw lands on a
    desktop whose knobs match the ``device=None`` defaults (no uplink
    cap, no cache budget, default mobility, zero selection weight), so
    the two builds differ only by the tier machinery itself — the
    per-peer class pick, the always-on OR draw, and the device column.

    The build is the right place to gate: the class draws consume extra
    RNG, so two whole *scenarios* diverge into different (statistically
    equivalent) traces whose solver workloads differ by more than the
    machinery — a wall-clock gate there would measure trace drift.  The
    population build does identical per-peer work plus the tier leaf,
    peer for peer, at either setting.
    """
    from repro.core.system import NetSessionSystem
    from repro.workload.catalog import build_catalog
    from repro.workload.population import build_population

    def build_mode(tiered: bool) -> float:
        system = NetSessionSystem(seed=13)
        catalog = build_catalog(
            random.Random(13 ^ 0xCA7), CatalogConfig(objects_per_provider=4))
        for provider in catalog.providers:
            system.register_provider(provider)
        cfg = PopulationConfig(
            n_peers=20_000, store="columnar",
            device=desktop_only() if tiered else None)
        # The build schedules ~1M session events; fence the collector so
        # a GC pause landing in one arm doesn't masquerade as overhead.
        gc.collect()
        gc.disable()
        try:
            started = time.perf_counter()
            build_population(system, catalog.providers, cfg)
            return time.perf_counter() - started
        finally:
            gc.enable()

    # Interleaved min-of-N, alternating which mode goes first each round:
    # allocator state drifts monotonically over the process lifetime, so a
    # fixed order would bill the drift to whichever mode runs second.
    off_wall = on_wall = float("inf")
    for i in range(6):
        order = (False, True) if i % 2 == 0 else (True, False)
        for tiered in order:
            wall = build_mode(tiered)
            if tiered:
                on_wall = min(on_wall, wall)
            else:
                off_wall = min(off_wall, wall)
    overhead = on_wall / off_wall - 1.0
    RESULTS["device_tier_assignment_overhead"] = {
        "peers": 20_000,
        "off_wall_seconds": round(off_wall, 3),
        "tiered_wall_seconds": round(on_wall, 3),
        "overhead_fraction": round(overhead, 4),
    }
    assert overhead < 0.05, f"tier assignment costs {overhead:.1%} (budget 5%)"


def test_audit_observe_overhead_scenario():
    """End-to-end observe-mode cost (checkers included) stays small.

    The sampled checkers are deliberately bounded (``_SAMPLED_HEAP_SCAN``,
    final-only reconciliation), so a full scenario under observe mode must
    stay within a noise-tolerant envelope of the off-mode run — and audit
    clean while it's at it.
    """
    def run_mode(mode: str):
        config = _scenario_config(batching=True)
        config = ScenarioConfig(**{
            **config.__dict__,
            "system": config.system.with_invariants(mode=mode),
        })
        started = time.perf_counter()
        result = run_scenario(config)
        return time.perf_counter() - started, result

    # Interleaved min-of-N: single-shot wall clocks on shared CI workers
    # swing by >20%, far more than the effect under measurement.
    off_wall = obs_wall = float("inf")
    obs_result = None
    for _ in range(3):
        wall, _ = run_mode("off")
        off_wall = min(off_wall, wall)
        wall, result = run_mode("observe")
        if wall < obs_wall:
            obs_wall, obs_result = wall, result
    overhead = obs_wall / off_wall - 1.0
    RESULTS["audit_observe_overhead"] = {
        "off_wall_seconds": round(off_wall, 3),
        "observe_wall_seconds": round(obs_wall, 3),
        "overhead_fraction": round(overhead, 4),
        "audits": obs_result.system.auditor.audits,
    }
    assert obs_result.system.auditor.error_count() == 0
    # Generous envelope: the measured overhead is ~1-5%; the assert exists
    # to catch an accidentally unbounded checker, not to pin the margin.
    assert overhead < 0.20, f"observe mode costs {overhead:.1%}"
