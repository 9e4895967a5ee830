"""Self-test of the benchmark's own arithmetic and metric names.

``run.py`` runs it before measuring anything; it can also run alone::

    python3 perfbench/selftest.py

It checks, on a synthetic nested span tree with a fake clock, that self
times and parent links come out right and that the self times of a tree
sum to its root's duration; and that every metric name and unit is made
of the allowed characters and agrees with ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import tracing

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


class SelfTestError(AssertionError):
    pass


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise SelfTestError(message)


def _close(a: float, b: float) -> bool:
    return abs(a - b) < 1e-9


def check_trace_arithmetic() -> None:
    # Timestamps 0, 1, 2, ... from the fake clock, one per begin/end.
    ticks = iter(range(100))
    rec = tracing.Recorder(clock=lambda: float(next(ticks)))
    with rec.span("root"):                       # 0 .. 11
        with rec.span("a"):                      # 1 .. 4
            with rec.span("a1"):                 # 2 .. 3
                pass
        inner = rec.wrap(lambda: None, "leaf")
        with rec.span("b"):                      # 5 .. 10
            inner()                              # 6 .. 7
            inner()                              # 8 .. 9
    spans = rec.spans
    names = [s[0] for s in spans]
    _expect(names == ["root", "a", "a1", "b", "leaf", "leaf"],
            f"span order {names}")
    parents = [s[3] for s in spans]
    _expect(parents == [-1, 0, 1, 0, 3, 3], f"parent links {parents}")

    summary = tracing.summarize(spans)
    expected_self = {"root": 11 - 3 - 5, "a": 3 - 1, "a1": 1, "b": 5 - 2, "leaf": 2}
    for name, value in expected_self.items():
        _expect(_close(summary[name]["self"], value),
                f"self time of {name}: {summary[name]['self']} != {value}")
    _expect(summary["leaf"]["count"] == 2, "leaf call count")
    _expect(_close(summary["b"]["total"], 5.0), "inclusive time of b")
    total_self = sum(entry["self"] for entry in summary.values())
    _expect(_close(total_self, summary["root"]["total"]),
            f"self times sum to {total_self}, root lasted {summary['root']['total']}")

    # Children overlapping each other or the parent's edge count once.
    clipped = [["p", 0.0, 10.0, -1], ["c", 2.0, 6.0, 0], ["c", 4.0, 8.0, 0],
               ["c", 9.0, 12.0, 0]]
    _expect(_close(tracing.summarize(clipped)["p"]["self"], 10.0 - 6.0 - 1.0),
            "union of overlapping children")

    # Set-up time: scenario start to the first event-loop entry, per scenario.
    scenario = [["bench.run", 0.0, 20.0, -1],
                [tracing.SCENARIO, 1.0, 9.0, 0], [tracing.SIM_RUN, 3.5, 8.0, 1],
                [tracing.SCENARIO, 10.0, 19.0, 0], [tracing.SIM_RUN, 12.0, 18.0, 3]]
    _expect(_close(tracing.setup_seconds(scenario), 2.5 + 2.0), "setup seconds")

    # A span closed out of order is a tracer bug, not a silent mis-attribution.
    rec = tracing.Recorder()
    outer = rec.begin("outer")
    rec.begin("inner")
    try:
        rec.end(outer)
    except RuntimeError:
        pass
    else:
        raise SelfTestError("out-of-order span end was accepted")


def check_names(metrics: dict[str, str], benchmark_json: Path | None) -> None:
    """``metrics`` maps every emitted metric name to its unit."""
    for name, unit in metrics.items():
        _expect(NAME.fullmatch(name) is not None, f"bad metric name {name!r}")
        _expect(UNIT.fullmatch(unit) is not None, f"bad unit {unit!r} of {name}")
    for bad in ("", "_x", "a b", "a/b", "x" * 65, "naïve"):
        _expect(NAME.fullmatch(bad) is None, f"name pattern accepts {bad!r}")
    if benchmark_json is None or not benchmark_json.is_file():
        return
    spec = json.loads(benchmark_json.read_text())
    declared = {m["name"]: m["unit"] for section in ("end_to_end", "per_layer")
                for m in spec[section]}
    _expect(declared == metrics,
            "BENCHMARK.json disagrees with the emitted metrics: "
            f"{sorted(set(declared.items()) ^ set(metrics.items()))}")


def main(metrics: dict[str, str], benchmark_json: Path | None = None) -> None:
    check_trace_arithmetic()
    check_names(metrics, benchmark_json)


if __name__ == "__main__":
    import run

    main(run.metric_units(), Path("BENCHMARK.json"))
    print("selftest: ok")
