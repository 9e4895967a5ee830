"""Shared result recording for the benchmark modules.

``BENCH_simcore.json`` is a *trajectory*, not a snapshot: the latest
values live at the top level (so existing consumers — the CI gate, the
README table, humans eyeballing a PR diff — read them exactly as
before), and a ``history`` key holds an append-style series per bench
name so a regression shows up as a trend, not just a one-off diff.

Every benchmark module collects into its own ``RESULTS`` dict and calls
:func:`record_results` once at module teardown; the function
read-merges-writes so modules running in the same (or separate) pytest
invocations compose instead of clobbering each other.
"""

from __future__ import annotations

from pathlib import Path

from repro.experiments.exp_scale import record_curve

#: The trajectory file at the repo root (committed; CI gates against it).
BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_simcore.json"


def record_results(results: dict[str, dict], path: Path = BENCH_PATH) -> None:
    """Merge ``results`` into the trajectory file at ``path``.

    Delegates to :func:`repro.experiments.exp_scale.record_curve`, which
    also writes ``BENCH_scale.json``: each bench's latest values replace its
    top-level entry and a timestamped copy joins its capped ``history``.
    """
    if not results:
        return
    record_curve(results, path)
    print(f"\nwrote {path}")


def wall_seconds(entry: dict) -> float | None:
    """Locate the headline wall-clock metric inside a bench entry.

    Benches differ in shape: ``vod_playback`` is flat, the engine
    comparisons nest the production configuration under ``batched`` or
    ``numpy`` (the reference side is expected to be slower and is not
    gated).  Returns ``None`` when the entry carries no wall metric at
    all (overhead-fraction benches), which the gate treats as ungateable
    rather than as a failure.
    """
    if "wall_seconds" in entry:
        return float(entry["wall_seconds"])
    for key in ("batched", "numpy"):
        sub = entry.get(key)
        if isinstance(sub, dict) and "wall_seconds" in sub:
            return float(sub["wall_seconds"])
    return None
