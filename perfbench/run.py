"""The repository benchmark: one workload, measured for a fixed time.

Run from the repository root::

    python3 perfbench/run.py --workload trace_small --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all          # every workload, traced too

Each measured run is a fresh child process (``child.py``) with every
``REPRO_*`` variable cleared and no on-disk result cache, so the flow
kernel, population store, shard width and audit mode are the ones the
workload pins.  Runs repeat until ``--seconds`` is spent; end-to-end
metrics are medians over them.  With ``--trace 1`` one traced run follows
the untraced ones and the per-layer metrics come from it.

Times are the child's CPU seconds (it is single-threaded) scaled to a
reference host speed, measured while it runs by a probe on the same CPU
(``hostspeed.py``); the unscaled medians are printed too.

``--seed`` orders the paper analyses of every run.  The simulated trace
is fixed per workload by ``--scenario-seed`` (42, the trace ``repro
study`` reads; 7 is held out): a scenario's cost changes up to threefold
between scenario seeds, more than any bound this benchmark could hold.

Every run's outputs are checked (``workloads.check_outputs``), and the
work counters of every run, traced or not, must repeat exactly.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every run was correct.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import layers  # noqa: E402
import selftest  # noqa: E402

#: The workloads ``workloads.py`` builds, named here because this parent
#: process never imports the program under test.
WORKLOADS = ("trace_small", "installed_base_100k", "storm_small")

#: name -> (unit, per-run value, power of the run's host-speed scale).
#: Medians of the scaled per-run values are the end-to-end metrics.
END_TO_END = {
    "wall_s": ("s", lambda r: r["wall_s"], 1),
    "setup_s": ("s", lambda r: r["setup_s"], 1),
    "sim_s": ("s", lambda r: r["sim_s"], 1),
    "events_per_s": ("events/s", lambda r: r["counters"]["events"] / r["sim_s"], -1),
    "downloads_per_s": ("downloads/s",
                        lambda r: r["counters"]["downloads"] / r["wall_s"], -1),
    "peak_rss_mb": ("MB", lambda r: r["peak_rss_mb"], 0),
    "peer_efficiency": ("fraction", lambda r: r["counters"]["peer_efficiency"], 0),
}

WORK_COUNTERS = ("events", "downloads", "waterfill_calls", "ctrl_attempts",
                 "audits", "peer_efficiency", "trace_sha256")

#: A traced run takes about this many untraced runs' time (measured).
TRACED_COST = 1.6
#: Every invocation must end well inside three minutes.
HARD_LIMIT_S = 150.0


def metric_units() -> dict[str, str]:
    """Every metric the benchmark emits for one workload, with its unit."""
    units = {name: spec[0] for name, spec in END_TO_END.items()}
    units.update((m.name, m.unit) for m in layers.LAYER_METRICS)
    return units


def host_stamp(root: Path) -> dict:
    """What the numbers were measured on, and which code they measured."""
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "missing"
    digest = hashlib.sha256()
    src = root / "src" / "repro"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": _git_commit(root),
        "src_sha256": digest.hexdigest(),
    }


def _git_commit(root: Path) -> str:
    """HEAD's commit when the checkout is a git work tree, else "none"."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            loose = git / ref
            if loose.is_file():
                return loose.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "none"


def child_env(root: Path) -> dict:
    """The pinned environment of a measured run."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(root / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(root: Path, out_dir: Path, workload: str, scenario_seed: int,
              order_seed: int, trace: bool, timeout: float, probe) -> dict:
    """One measured run; ``{"error": ...}`` when it crashed or timed out."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--scenario-seed", str(scenario_seed), "--order-seed", str(order_seed),
           "--out-dir", str(out_dir), "--cpu", str(probe.cpu)]
    if trace:
        cmd.append("--trace")
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=root, env=child_env(root), text=True,
                              capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout:.0f}s", "elapsed": timeout}
    ended = time.monotonic()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"error": f"exit {proc.returncode}: " + " | ".join(tail),
                "elapsed": ended - started}
    result = json.loads(lines[-1])
    result["elapsed"] = ended - started
    result["interval"] = (started, ended)
    result["host_scale"] = probe.scale(started, ended)
    return result


def measure(root: Path, out_dir: Path, workload: str, scenario_seed: int,
            order_seed: int, seconds: float, trace: bool) -> tuple[list, dict | None, list]:
    """Untraced runs until ``seconds`` is spent, then one traced run if asked."""
    started = time.monotonic()
    runs: list[dict] = []
    traced = None
    # The child and the host-speed probe share one CPU (see hostspeed.py).
    with hostspeed.HostProbe(max(os.sched_getaffinity(0))) as probe:
        while True:
            remaining = HARD_LIMIT_S - (time.monotonic() - started)
            runs.append(run_child(root, out_dir, workload, scenario_seed,
                                  order_seed, False, remaining, probe))
            typical = statistics.median(r["elapsed"] for r in runs)
            reserve = TRACED_COST * typical if trace else 0.0
            elapsed = time.monotonic() - started
            if elapsed + typical + reserve > min(seconds, HARD_LIMIT_S - reserve):
                break
        if trace:
            remaining = HARD_LIMIT_S - (time.monotonic() - started)
            traced = run_child(root, out_dir, workload, scenario_seed, order_seed,
                               True, max(remaining, 1.0), probe)
    return runs, traced, probe.samples


def check_runs(runs: list[dict]) -> list[str]:
    """Mark every run that failed a check; return the reasons."""
    reference = next((r for r in runs if "error" not in r and not r["problems"]), None)
    reasons = []
    for i, run in enumerate(runs):
        problems = [run["error"]] if "error" in run else list(run["problems"])
        if not problems and reference is not None:
            for key in WORK_COUNTERS:
                if run["counters"][key] != reference["counters"][key]:
                    problems.append(f"work counter {key} = {run['counters'][key]}, "
                                    f"first run had {reference['counters'][key]}")
        run["failed"] = bool(problems)
        reasons.extend(f"run {i + 1}: {p}" for p in problems)
    return reasons


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, statistics.median(values), q3


def end_to_end(runs: list[dict]) -> dict[str, dict]:
    """Medians over the good runs, each run scaled to the reference host speed."""
    good = [r for r in runs if not r["failed"]]
    out = {}
    for name, (unit, value, power) in END_TO_END.items():
        values = [value(r) * r["host_scale"] ** power for r in good]
        q1, median, q3 = _quartiles(values)
        out[name] = {"value": median, "unit": unit, "q1": q1, "q3": q3,
                     "n": len(values),
                     "unscaled": statistics.median(value(r) for r in good)}
    return out


#: Per-layer units that are times, scaled like the end-to-end times.
TIME_UNITS = {"s", "us"}


def per_layer(traced: dict, untraced_wall_s: float) -> dict[str, dict]:
    """The traced run's layer metrics, times scaled to the reference speed.

    ``untraced_wall_s`` is the scaled median of the untraced runs.
    """
    scale = traced["host_scale"]
    # Layer values come out in the traced run's own host seconds.
    extra = {"artifact_bytes": traced["artifact_bytes"],
             "untraced_wall_s": untraced_wall_s / scale}
    values = layers.layer_values(traced["spans"], traced["counters"], extra)
    return {m.name: {"value": values[m.name] * (scale if m.unit in TIME_UNITS else 1.0),
                     "unit": m.unit}
            for m in layers.LAYER_METRICS}


def run_workload(root: Path, out_dir: Path, workload: str, args) -> tuple[dict, list]:
    """Measure one workload; returns (report, failed-check reasons)."""
    runs, traced, probe_samples = measure(root, out_dir, workload, args.scenario_seed,
                                          args.seed, args.seconds, args.trace)
    all_runs = runs + ([traced] if traced is not None else [])
    reasons = check_runs(all_runs)
    report = {"workload": workload, "scenario_seed": args.scenario_seed,
              "runs": runs, "traced": traced, "probe_samples": probe_samples}
    if any(not r["failed"] for r in runs):
        report["end_to_end"] = end_to_end(runs)
        if traced is not None and not traced["failed"]:
            report["per_layer"] = per_layer(
                traced, report["end_to_end"]["wall_s"]["value"])
    return report, reasons


def print_report(report: dict) -> None:
    name = report["workload"]
    labelled = [("run", r) for r in report["runs"]]
    if report["traced"] is not None:
        labelled.append(("traced", report["traced"]))
    for i, (kind, run) in enumerate(labelled):
        if "error" in run:
            print(f"{name} {kind} {i + 1}: ERROR {run['error']}")
        else:
            print(f"{name} {kind} {i + 1}: host_scale={run['host_scale']:.3f} "
                  f"wall_s={run['wall_s']:.3f} "
                  f"setup_s={run['setup_s']:.3f} sim_s={run['sim_s']:.3f} "
                  f"events={run['counters']['events']} "
                  f"problems={len(run['problems'])}")
    for metric, m in report.get("end_to_end", {}).items():
        print(f"{name} {metric} = {m['value']:.6g} {m['unit']} "
              f"(median of {m['n']}; q1 {m['q1']:.6g}, q3 {m['q3']:.6g}; "
              f"unscaled median {m['unscaled']:.6g})")
    per_layer = report.get("per_layer", {})
    for prefix, target in layers.TARGETS.items() if per_layer else ():
        print(f"{name} layer {prefix}* should move: {target}")
        for metric, m in per_layer.items():
            if metric.startswith(prefix):
                print(f"{name} {metric} = {m['value']:.6g} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Measure one workload (or all) of the repository benchmark.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0,
                        help="orders the paper analyses of every run")
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="time spent on untraced runs, per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add a traced run and report per-layer metrics")
    parser.add_argument("--scenario-seed", type=int, default=42,
                        help="the simulated trace (42 default, 7 held out)")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under test ({root}/src/repro); run from "
              "the repository root", file=sys.stderr)
        return 2
    selftest.main(metric_units(), root / "BENCHMARK.json")
    out_dir = root / ".bench_build" / "perfbench"
    out_dir.mkdir(parents=True, exist_ok=True)

    host = host_stamp(root)
    print("host: " + json.dumps(host, sort_keys=True))
    if args.workload == "all":
        names, args.trace, prefix = WORKLOADS, 1, "{}."
        sections = ("end_to_end", "per_layer")
    else:
        names, prefix = (args.workload,), ""
        sections = ("per_layer",) if args.trace else ("end_to_end",)
    metrics: dict[str, dict] = {}
    attempted = failed = 0
    all_reasons: list[str] = []
    for name in names:
        report, reasons = run_workload(root, out_dir, name, args)
        report["host"] = host
        (out_dir / f"report-{name}-trace{args.trace}.json").write_text(
            json.dumps(report, indent=1, sort_keys=True))
        print_report(report)
        all_reasons.extend(f"{name} {r}" for r in reasons)
        runs = report["runs"] + ([report["traced"]] if report["traced"] else [])
        attempted += len(runs)
        failed += sum(r["failed"] for r in runs)
        for section in sections:
            for metric, m in report.get(section, {}).items():
                metrics[prefix.format(name) + metric] = {"value": m["value"], "unit": m["unit"]}
    for reason in all_reasons:
        print(f"FAILED CHECK: {reason}", file=sys.stderr)
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
