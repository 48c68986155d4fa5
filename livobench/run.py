"""LiVo benchmark: three workloads, end-to-end metrics, per-layer breakdown.

Usage (from the repository root)::

    python3 livobench/run.py --workload session --seed 1 --seconds 15 --trace 0

Workloads: ``session``, ``session-parallel``, ``service``
(why each exists: ``workloads.py`` and ``NOTES.md``).  ``--trace 0``
measures the end-to-end metrics with no layer wrappers installed;
``--trace 1`` spends half the time untraced and half with every layer
wrapped, and prints the per-layer metrics, the ``unattributed``
residual and the tracing overhead (traced minus untraced wall time per
session-frame).  Every run checks the program's outputs; a failed
check prints no metrics and exits 1.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
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
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

WORKLOADS = ("session", "session-parallel", "service")
# The tail percentile each workload reports: the highest one that keeps
# at least ten tick samples beyond it at the run length in BENCHMARK.json.
TAIL_PERCENTILE = {"session": 80, "session-parallel": 80, "service": 97}
REQUEST_TAIL_PERCENTILE = 95
# A service run fails when the generator's own lateness tail comes this
# close to the request latency tail it is measuring.
LATE_LIMIT = 0.8


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def cpu_times() -> list[int]:
    """The host's aggregate CPU jiffies (user, nice, system, idle, ..., steal)."""
    try:
        with open("/proc/stat") as handle:
            return [int(value) for value in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return []


def steal_share(before: list[int], after: list[int]) -> float | None:
    """Share of CPU time the hypervisor took away during the run."""
    if len(before) < 8 or len(after) < 8:
        return None
    total = sum(after[:8]) - sum(before[:8])
    return (after[7] - before[7]) / total if total > 0 else None


def run_workload(name: str, seed: int, seconds: float, traced: bool):
    """The workload's runs: one timed run, or (untraced, traced) halves."""
    import workloads
    from layers import Recorder

    if traced:
        half = seconds / 2.0
        if name == "service":
            phases = [(half, False, 1), (half, True, 1)]
        else:
            phases = [(half, None, 1), (half, Recorder(), 1)]
    elif name == "service":
        phases = [(seconds, False, workloads.SERVICE_SETUPS)]
    else:
        phases = [(seconds, None, workloads.MIN_REPEATS)]
    if name == "service":
        return workloads.run_service(seed, phases)
    # The program runs in this process and its executor workers.
    with workloads.TreeRss(os.getpid()) as rss:
        runs = workloads.run_session(seed, phases, jobs=2 if name == "session-parallel" else 1)
    runs[0].peak_kb = rss.peak_kb
    return runs


def end_to_end(name: str, run) -> tuple[dict, dict]:
    """(gated metrics, workload-only metrics), each name -> (value, unit)."""
    rates = [frames / wall for frames, wall in run.segments if wall > 0]
    gated = {
        "setup_s": (statistics.median(run.setup_s), "s"),
        "peak_rss_mb": (run.peak_kb / 1024.0, "MB"),
        "session_frames_per_s": (statistics.median(rates) if rates else 0.0, "1/s"),
        "frame_ms_p50": (percentile(run.ticks_ms, 50), "ms"),
        "frame_ms_tail": (percentile(run.ticks_ms, TAIL_PERCENTILE[name]), "ms"),
        "uplink_kb_per_frame": (run.counters["codec.kb_per_frame"], "kB"),
    }
    extra = {}
    if name == "service":
        extra = {
            "request_ms_p50": (percentile(run.request_ms, 50), "ms"),
            "request_ms_tail": (percentile(run.request_ms, REQUEST_TAIL_PERCENTILE), "ms"),
            "loadgen_late_ms_p50": (percentile(run.late_ms, 50), "ms"),
            "loadgen_late_ms_tail": (percentile(run.late_ms, REQUEST_TAIL_PERCENTILE), "ms"),
        }
    elif name.startswith("session"):
        extra = {
            "pssim_geom": (run.quality["pssim_geom"], "score"),
            "pssim_color": (run.quality["pssim_color"], "score"),
            "stall_share": (run.quality["stall_share"], "share"),
            "rendered_share": (run.quality["rendered_share"], "share"),
        }
    return gated, extra


def per_layer(plain, traced) -> dict:
    """Per-layer metrics from the traced half, name -> (value, unit)."""
    from intervals import clip_windows, layer_times
    from layers import LAYERS

    frames = max(traced.window_frames, 1)
    wall_s = sum(hi - lo for lo, hi in traced.windows)
    wall_ms = wall_s * 1e3 / frames
    plain_ms = sum(hi - lo for lo, hi in plain.windows) * 1e3 / max(plain.window_frames, 1)
    spans = clip_windows(traced.spans, traced.windows)
    times = layer_times(spans)
    calls: dict[str, int] = {}
    for span in spans:
        calls[span.layer] = calls.get(span.layer, 0) + 1
    out = {}
    self_ms = {}
    for layer in LAYERS:
        self_ms[layer] = times.get(layer, {"self": 0.0})["self"] * 1e3 / frames
        out[f"{layer}.busy_ms_per_frame"] = (self_ms[layer], "ms/frame")
        out[f"{layer}.calls_per_frame"] = (calls.get(layer, 0) / frames, "calls/frame")
    idle_ms = traced.idle_s * 1e3 / frames
    counters = traced.counters
    handler_p50 = percentile(traced.handler_ms, 50) if traced.handler_ms else 0.0
    request_p50 = percentile(traced.request_ms, 50) if traced.request_ms else 0.0
    out.update({
        "capture.cache_hit_rate": (counters.get("capture.cache_hit_rate", 0.0), "share"),
        "codec.kb_per_frame": (counters.get("codec.kb_per_frame", 0.0), "kB/frame"),
        "batchplane.items_per_bucket": (counters.get("batchplane.items_per_bucket", 0.0),
                                        "items/bucket"),
        "batchplane.fallbacks": (counters.get("batchplane.fallbacks", 0.0), "items/frame"),
        "transport.frames_lost": (counters.get("transport.frames_lost", 0.0), "count/frame"),
        "sfu.cull_cache_hit_rate": (counters.get("sfu.cull_cache_hit_rate", 0.0), "share"),
        "sfu.receivers_per_session": (counters.get("sfu.receivers_per_session", 0.0),
                                      "receivers"),
        "executors.wait_ms_per_frame": (self_ms["runtime.executors"], "ms/frame"),
        "shm.mb_shared_per_frame": (counters.get("shm.mb_shared_per_frame", 0.0), "MB/frame"),
        "http.queue_ms_p50": (request_p50 - handler_p50 if traced.request_ms else 0.0, "ms"),
        "registry.mailbox_ops_per_round": (counters.get("registry.mailbox_ops_per_round", 0.0),
                                           "ops/round"),
        "workers.idle_share": (traced.idle_s / wall_s if wall_s > 0 else 0.0, "share"),
        "wall_ms_per_frame": (wall_ms, "ms/frame"),
        "unattributed.busy_ms_per_frame": (wall_ms - sum(self_ms.values()) - idle_ms,
                                           "ms/frame"),
        "tracing.overhead_ms_per_frame": (wall_ms - plain_ms, "ms/frame"),
        "tracing.overhead_share": ((wall_ms - plain_ms) / plain_ms if plain_ms else 0.0,
                                   "share"),
    })
    return out


def detail(name: str, seed: int, runs, gated: dict) -> dict:
    import numpy
    import scipy
    import workloads

    config = workloads.config_of(name)
    fingerprint = hashlib.sha256(
        json.dumps({"workload": name, "config": config, "seed": seed}, sort_keys=True).encode()
    ).hexdigest()[:16]
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    run = runs[0]
    tail_value = gated["frame_ms_tail"][0]
    return {
        "workload": name,
        "seed": seed,
        "config": config,
        "fingerprint": fingerprint,
        "commit": commit,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "tail_percentile": TAIL_PERCENTILE[name],
        "tick_samples": len(run.ticks_ms),
        "tick_samples_beyond_tail": sum(1 for t in run.ticks_ms if t > tail_value),
        "request_tail_percentile": REQUEST_TAIL_PERCENTILE if run.request_ms else None,
        "request_samples": len(run.request_ms),
        "throughput_slices": len(run.segments),
        "setup_samples_s": [round(value, 4) for value in run.setup_s],
        "digests": sorted(set(d for r in runs for d in r.digests)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import workloads

    cpu_before = cpu_times()
    try:
        runs = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        workloads.stop_children()
    steal = steal_share(cpu_before, cpu_times())
    problems = [problem for run in runs for problem in run.problems]
    attempted = sum(run.attempted for run in runs)
    failed = sum(run.failed for run in runs)

    gated, extra = end_to_end(args.workload, runs[0])
    if args.workload == "service":
        late_tail = extra["loadgen_late_ms_tail"][0]
        if late_tail > LATE_LIMIT * extra["request_ms_tail"][0]:
            problems.append(
                f"load generator ran late: tail {late_tail:.2f} ms against request tail "
                f"{extra['request_ms_tail'][0]:.2f} ms"
            )
    row = detail(args.workload, args.seed, runs, gated)
    row["host_steal_share"] = steal
    if problems:
        for problem in problems[:20]:
            print(f"CHECK FAILED: {problem}")
        print(json.dumps({"correct": False, "attempted": max(attempted, 1),
                          "failed": failed, "metrics": {}}))
        return 1

    shown = per_layer(*runs) if args.trace else gated
    printed = shown if args.trace else {**gated, **extra}
    for metric, (value, unit) in printed.items():
        print(f"{args.workload:16s} {metric:36s} {value:12.4f} {unit}")
    print("detail " + json.dumps(row, sort_keys=True))
    print(json.dumps({
        "correct": True,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {metric: {"value": value, "unit": unit} for metric, (value, unit) in shown.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
