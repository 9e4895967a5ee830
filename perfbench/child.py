"""One measured run of one workload, in a fresh process.

``run.py`` starts this script once per run, with every ``REPRO_*``
variable cleared, and reads one JSON object from the last line of its
standard output.  A run that raises exits non-zero and prints nothing.

    python3 perfbench/child.py --workload trace_small --scenario-seed 42 \
        --order-seed 1 --out-dir .bench_build/perfbench --cpu 1 [--trace]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
from pathlib import Path

import tracing
import workloads


def _cache_round_trip(recorder, artifact, directory: Path) -> int:
    """Put the artifact into a fresh result cache and read it back.

    Returns the stored payload's size in bytes.
    """
    from repro.runner import ResultCache

    cache = ResultCache(directory)
    try:
        with recorder.span("runner.cache_put"):
            path = cache.put(artifact.fingerprint, artifact)
        with recorder.span("runner.cache_get"):
            loaded = cache.get(artifact.fingerprint)
        size = path.stat().st_size
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    if loaded is None or len(loaded.logstore.downloads) != len(artifact.logstore.downloads):
        raise RuntimeError("result cache round trip lost the artifact")
    return size


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--scenario-seed", type=int, required=True)
    parser.add_argument("--order-seed", type=int, required=True)
    parser.add_argument("--out-dir", type=Path, required=True)
    parser.add_argument("--cpu", type=int, required=True,
                        help="the one CPU to run on (shared with the host-speed probe)")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    os.sched_setaffinity(0, {args.cpu})

    from repro.runner import run_scenario_artifact

    cfg = workloads.config(args.workload, args.scenario_seed)
    recorder = tracing.Recorder()
    populations: list = []
    if args.trace:
        tracing.install_tracing(recorder, populations)
    else:
        tracing.install_boundaries(recorder)

    with recorder.span(tracing.ROOT):
        with recorder.span("runner.run_scenario_artifact"):
            artifact = run_scenario_artifact(cfg)
        with recorder.span("analysis.paper"):
            workloads.paper_analyses(artifact, args.order_seed)

    if args.trace:
        args.out_dir.mkdir(parents=True, exist_ok=True)
        artifact_bytes = _cache_round_trip(
            recorder, artifact, args.out_dir / f"cache-{os.getpid()}")
    spans = tracing.summarize(recorder.spans)
    result = {
        "wall_s": spans[tracing.ROOT]["total"],
        "setup_s": tracing.setup_seconds(recorder.spans),
        "sim_s": spans[tracing.SIM_RUN]["total"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "counters": workloads.counters(artifact, populations),
        "problems": workloads.check_outputs(cfg, artifact),
    }
    if args.trace:
        # Self times partition the root spans' durations exactly.
        self_sum = sum(entry["self"] for entry in spans.values())
        root_sum = sum(end - start for _n, start, end, parent in recorder.spans
                       if parent < 0)
        if abs(self_sum - root_sum) > 1e-6 * max(1.0, root_sum):
            result["problems"].append(
                f"span self times sum to {self_sum}, root spans lasted {root_sum}")
        result["artifact_bytes"] = artifact_bytes
        result["spans"] = spans
        spans_path = args.out_dir / f"spans-{args.workload}.json"
        spans_path.write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent"], "spans": recorder.spans}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
