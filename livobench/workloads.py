"""The three workloads.  Each returns a ``Run``: tick times, measured
windows, set-up samples, outputs to check and counters to report.

Why each exists (see NOTES.md for what every layer metric should move):

- ``session``: one paper-config LiVo session, serial, in a closed loop
  on the simulated clock.  Capture, the full-size codec, decode/render
  and PointSSIM do nearly all the work; SFU and service code do none.
- ``session-parallel``: the same inputs with ``jobs=2`` (process
  executor plus the shared-memory lane) and the same report.  The only
  workload where ``runtime.executors``/``runtime.shm`` carry frames.
- ``service``: ``repro serve`` in its own process at its shipped 1/30 s
  pacing, two sessions, under an open-loop seeded request mix.  The
  only workload that exercises http/registry/mailbox/scheduler/obs and
  the SFU and batch plane with small (two-session) buckets.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import random
import select
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from intervals import Span
from layers import LAYERS, probe
from loadgen import POLL_S, SCRAPE_S, WRITES_PER_SESSION_S, make_schedule, run_load
from serve import MARKER

HERE = Path(__file__).resolve().parent

# session / session-parallel: paper config, user 0, trace_1 dithered by --seed.
SESSION_VIDEO = "band2"
TRACE_DITHER = 0.005
SESSION_FRAMES = 20
# service: base sessions, receivers band, request rate and churn.
SERVICE_SESSIONS = 2
SERVICE_BAND = (1, 3)
SERVICE_PAIRS = 2            # create+kill pairs per measured window
SERVICE_WARMUP_S = 1.0
SERVICE_SETUPS = 3           # servers started per run for setup_s
START_TIMEOUT_S = 60.0
RSS_POLL_S = 0.5
MIN_REPEATS = 3              # closed-loop repetitions per run, at least
# A short untimed segment first, so lazy set-up and first calls are paid
# before timing; its set-up time is one of the run's set-up samples.
WARMUP_FRAMES = 6


@dataclass
class Run:
    """What one phase of a workload measured and checked."""

    ticks_ms: list[float] = field(default_factory=list)
    windows: list[tuple[float, float]] = field(default_factory=list)
    # (session-frames, seconds) per throughput slice, see ``slices``
    segments: list[tuple[int, float]] = field(default_factory=list)
    window_frames: int = 0      # session-frames completed in the windows
    setup_s: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    quality: dict = field(default_factory=dict)      # session report quality values
    counters: dict = field(default_factory=dict)     # per-layer values not from spans
    digests: list[str] = field(default_factory=list)
    spans: list[Span] = field(default_factory=list)
    request_ms: list[float] = field(default_factory=list)
    late_ms: list[float] = field(default_factory=list)
    handler_ms: list[float] = field(default_factory=list)
    idle_s: float = 0.0
    peak_kb: int = 0            # peak resident memory of the program's process tree


def slices(marks: list[tuple[float, int]], span: float = 1.0) -> list[tuple[int, float]]:
    """``(frames, seconds)`` for runs of consecutive ticks lasting ``span`` or more.

    ``marks`` holds ``(tick start, session-frames in the tick)``; a tick
    ends where the next one starts, so the last mark only closes a run.
    Throughput is reported as the median over these runs, which a short
    stall of the host moves less than one whole-run average.
    """
    out = []
    first = 0
    for index in range(1, len(marks)):
        if marks[index][0] - marks[first][0] >= span:
            frames = sum(n for _, n in marks[first:index])
            out.append((frames, marks[index][0] - marks[first][0]))
            first = index
    return out


def config_of(name: str) -> dict:
    """The fixed workload configuration (fingerprinted with the seed)."""
    if name in ("session", "session-parallel"):
        return {"video": SESSION_VIDEO, "frames": SESSION_FRAMES, "user": 0,
                "trace": "trace_1", "trace_dither": TRACE_DITHER, "jobs": 2 if name == "session-parallel" else 1}
    return {"sessions": SERVICE_SESSIONS, "band": SERVICE_BAND,
            "writes_per_session_s": WRITES_PER_SESSION_S, "poll_s": POLL_S,
            "scrape_s": SCRAPE_S, "create_kill_pairs": SERVICE_PAIRS,
            "connections": os.cpu_count() or 1, "tick_interval": "shipped"}


def process_tree(root: int) -> set[int]:
    """``root`` and every live descendant of it, read from ``/proc``."""
    parents: dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as handle:
                    fields = handle.read().rsplit(")", 1)[1].split()
                if fields[0] != "Z":
                    parents[int(entry)] = int(fields[1])
            except (OSError, IndexError, ValueError):
                continue
    tree = {root}
    grew = True
    while grew:
        grew = False
        for pid, parent in parents.items():
            if parent in tree and pid not in tree:
                tree.add(pid)
                grew = True
    return tree


def stop_children(grace_s: float = 5.0) -> None:
    """Stop every process this one started and wait until each has ended.

    Executor workers are closed by the session itself; this catches any
    left by a failed run.  multiprocessing's resource tracker (started by
    the first shared-memory segment) is stopped last, through its own
    shutdown: left alone it notices this process's exit only after it,
    and so outlives the run.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    me = os.getpid()
    others = process_tree(me) - {me, tracker._pid}
    for sig in (signal.SIGTERM, signal.SIGKILL):
        for pid in others:
            try:
                os.kill(pid, sig)
            except OSError:
                pass
        deadline = time.monotonic() + grace_s
        while others and time.monotonic() < deadline:
            time.sleep(0.02)
            for pid in others:
                try:
                    os.waitpid(pid, os.WNOHANG)  # reaps a direct child that has ended
                except ChildProcessError:
                    pass
            others &= process_tree(me)
    tracker._stop()  # closes its pipe and waits for it to exit


class TreeRss:
    """Peak resident memory of the process ``root`` and every descendant.

    Polls ``/proc``: each sample sums the high-water mark (``VmHWM``)
    of every live process in the tree, so a peak between polls still
    counts; the run's value is the largest sample.
    """

    def __init__(self, root: int) -> None:
        self.root = root
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._poll, name="rss-poll", daemon=True)

    def __enter__(self) -> "TreeRss":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()
        self.sample()

    def _poll(self) -> None:
        while not self._stop.wait(RSS_POLL_S):
            self.sample()

    def sample(self) -> None:
        total = 0
        for pid in process_tree(self.root):
            try:
                with open(f"/proc/{pid}/status") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            total += int(line.split()[1])
                            break
            except OSError:
                continue
        self.peak_kb = max(self.peak_kb, total)


def shm_segments() -> int:
    from repro.runtime.shm import SHM_NAME_PREFIX

    try:
        return sum(1 for name in os.listdir("/dev/shm") if name.startswith(SHM_NAME_PREFIX))
    except OSError:
        return 0


def _digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True, default=str).encode()).hexdigest()


def _metric_value(registry, name: str) -> float:
    if registry is None or name not in registry.names():
        return 0.0
    return float(registry.get(name).to_dict().get("value", 0.0))


def _plane_counts(per_kind: dict) -> tuple[int, int, int]:
    """(items, scalar items, buckets) from batch-plane per-kind tallies."""
    items = scalar = buckets = 0
    for entry in per_kind.values():
        if isinstance(entry, dict) and "batches" in entry:
            items += entry["hits"] + entry["misses"]
            scalar += entry["misses"]
            buckets += entry["batches"] + entry["misses"]
    return items, scalar, buckets


# ----------------------------------------------------------------------
# session / session-parallel
# ----------------------------------------------------------------------


def run_session(seed: int, phases, jobs: int) -> list[Run]:
    """One ``Run`` per ``(seconds, recorder or None, min_repeats)`` phase."""
    import numpy as np
    from repro.prediction.pose import user_traces_for_video
    from repro.transport.traces import BandwidthTrace, trace_1

    user = user_traces_for_video(SESSION_VIDEO, SESSION_FRAMES + 10)[0]
    # The paper's trace-1 under a seeded +-0.5% capacity dither (the
    # scenario corpus's idiom): the seed changes the input, while the
    # amount of work stays that of the one paper trace.
    base = trace_1(duration_s=SESSION_FRAMES / 30.0 + 10.0)
    dither = np.exp(np.random.default_rng(seed).normal(0.0, TRACE_DITHER, len(base.capacities_mbps)))
    trace = BandwidthTrace(base.capacities_mbps * dither, base.interval_s, name=base.name)
    items: list = []
    probe("repro.runtime.stage:StageGraph.run_item", items)
    warm = _session_phase(0.0, None, 1, jobs, user, trace, items, WARMUP_FRAMES)
    return _with_warmup(warm, [
        _session_phase(seconds, recorder, min_repeats, jobs, user, trace, items, SESSION_FRAMES)
        for seconds, recorder, min_repeats in phases
    ])


def _with_warmup(warm: Run, runs: list[Run]) -> list[Run]:
    """Count the warm-up's set-up sample and checks in the first run."""
    runs[0].setup_s[:0] = warm.setup_s
    runs[0].problems[:0] = warm.problems
    runs[0].attempted += warm.attempted
    runs[0].failed += warm.failed
    return runs


def _session_phase(seconds, recorder, min_repeats, jobs, user, trace, items, frames) -> Run:
    from repro.capture.dataset import load_video
    from repro.core.config import SessionConfig
    from repro.core.session import LiVoSession
    from repro.scenario.invariants import check_report

    run = Run()
    if recorder is not None:
        recorder.install(LAYERS)
    shm_before = shm_segments()
    begin = perf_counter()
    repeats = 0
    totals = {"wire_bytes": 0, "lost": 0.0, "shm_bytes": 0.0, "hits": 0, "lookups": 0,
              "plane_items": 0, "plane_scalar": 0, "plane_buckets": 0}
    while repeats < min_repeats or perf_counter() - begin < seconds:
        repeats += 1
        first = len(items)
        gc.collect()  # each segment starts from the same collector state
        start = perf_counter()
        _, scene = load_video(SESSION_VIDEO, sample_budget=SessionConfig().scene_sample_budget)
        report = LiVoSession(SessionConfig(jobs=jobs)).run(
            scene, user, trace, frames, video_name=SESSION_VIDEO
        )
        end = perf_counter()
        starts = [s for s, _ in items[first:]]
        run.setup_s.append(starts[0] - start)
        run.windows.append((starts[0], end))
        run.ticks_ms.extend((b - a) * 1e3 for a, b in zip(starts, starts[1:]))
        run.segments.extend(slices([(start, 1) for start in starts]))
        run.window_frames += report.num_frames
        run.attempted += report.num_frames
        encode_failed = sum(1 for frame in report.frames if frame.encode_failed)
        run.failed += encode_failed
        if encode_failed:
            run.problems.append(f"{encode_failed} frames failed to encode")
        run.problems.extend(check_report(report))
        run.digests.append(_digest(report.asdict()))
        geometry, _ = report.pssim_geometry()
        color, _ = report.pssim_color()
        run.quality = {
            "pssim_geom": geometry,
            "pssim_color": color,
            "rendered_share": report.rendered_frames / report.num_frames,
            "stall_share": report.stall_rate,
        }
        metrics = report.metrics
        totals["wire_bytes"] += sum(frame.wire_bytes for frame in report.frames)
        totals["lost"] += _metric_value(metrics, "transport.frames_lost")
        totals["shm_bytes"] += _metric_value(metrics, "shm.bytes_shared")
        if _metric_value(metrics, "shm.segments_leaked"):
            run.problems.append("shared-memory segments leaked by the session")
        cache = report.cache_stats or {}
        capture = cache.get("capture_projection", {})
        totals["hits"] += capture.get("hits", 0)
        totals["lookups"] += capture.get("hits", 0) + capture.get("misses", 0)
        items_, scalar, buckets = _plane_counts(
            {k: v for k, v in cache.items() if k.startswith("batchplane_")}
        )
        totals["plane_items"] += items_
        totals["plane_scalar"] += scalar
        totals["plane_buckets"] += buckets
    leaked = shm_segments() - shm_before
    if leaked > 0:
        run.problems.append(f"{leaked} new /dev/shm segments after the run")
    frames = max(run.attempted, 1)
    run.counters.update({
        "capture.cache_hit_rate": totals["hits"] / max(totals["lookups"], 1),
        "codec.kb_per_frame": totals["wire_bytes"] / frames / 1e3,
        "transport.frames_lost": totals["lost"] / frames,
        "shm.mb_shared_per_frame": totals["shm_bytes"] / frames / 1e6,
        "batchplane.items_per_bucket": totals["plane_items"] / max(totals["plane_buckets"], 1),
        "batchplane.fallbacks": totals["plane_scalar"] / frames,
    })
    if recorder is not None:
        run.spans = recorder.spans
    return run


# ----------------------------------------------------------------------
# service
# ----------------------------------------------------------------------


class Server:
    """``repro serve`` (through ``serve.py``) in its own process group."""

    def __init__(self, traced: bool) -> None:
        env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
        self.started = perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-u", str(HERE / "serve.py"), "--trace", "1" if traced else "0",
             "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
            start_new_session=True,
        )
        ready, _, _ = select.select([self.process.stdout], [], [], START_TIMEOUT_S)
        line = self.process.stdout.readline() if ready else ""
        if not line.startswith("session service on http://"):
            self.process.kill()
            _, err = self.process.communicate()
            raise RuntimeError(f"server did not start: {line!r} {err[-2000:]}")
        address = line.split()[3][len("http://"):]
        self.host, port = address.rsplit(":", 1)
        self.port = int(port)

    def request(self, method: str, path: str, body: dict | None = None) -> tuple[int, dict]:
        import http.client

        connection = http.client.HTTPConnection(self.host, self.port, timeout=30)
        try:
            payload = json.dumps(body).encode() if body is not None else None
            connection.request(method, path, body=payload,
                               headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            return response.status, json.loads(response.read() or b"{}")
        finally:
            connection.close()

    def stop(self) -> tuple[int, str, dict]:
        """SIGTERM, drain, and the wrapper's report; always reaps the process."""
        try:
            self.process.send_signal(signal.SIGTERM)
            out, err = self.process.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(self.process.pid, signal.SIGKILL)
            out, err = self.process.communicate()
        report = {}
        for line in out.splitlines():
            if line.startswith(MARKER):
                report = json.loads(line[len(MARKER):])
        return self.process.returncode, out + err, report


def _start_service(traced: bool, seed: int) -> tuple[Server, dict[str, list[str]], float]:
    """Start a server and create the base sessions; returns the set-up time."""
    server = Server(traced)
    sessions = {}
    try:
        for index in range(SERVICE_SESSIONS):
            clients = [f"b{index}-{i}" for i in range(2)]
            status, payload = server.request(
                "POST", "/v1/sessions", {"clients": clients, "seed": seed * 16 + index}
            )
            if status != 201:
                raise RuntimeError(f"create returned {status} {payload}")
            sessions[payload["session"]] = clients
    except BaseException:
        server.stop()
        raise
    return server, sessions, perf_counter() - server.started


def _check_stop(run: Run, server: Server) -> dict:
    code, output, report = server.stop()
    if code != 0 or "stopped (0 leaked drivers)" not in output:
        run.problems.append(f"server exit {code}: {output[-500:]!r}")
    if not report:
        run.problems.append("server wrapper printed no report")
    elif not report["drivers_closed"]:
        run.problems.append("server left conference drivers open")
    return report


def run_service(seed: int, phases) -> list[Run]:
    """One ``Run`` per ``(seconds, traced, setups)`` phase, each its own server."""
    return [_service_phase(seed, *phase) for phase in phases]


def _service_phase(seed: int, seconds: float, traced: bool, setups: int) -> Run:
    run = Run()
    shm_before = shm_segments()
    for _ in range(setups - 1):
        server, _, setup = _start_service(False, seed)
        run.setup_s.append(setup)
        _check_stop(run, server)
    server, sessions, setup = _start_service(traced, seed)
    run.setup_s.append(setup)
    # The program is the server's process tree; this process is the load
    # generator, so it is left out of the memory figure.
    rss = TreeRss(server.process.pid)
    try:
        ops = make_schedule(random.Random(seed), sessions, seconds, SERVICE_BAND,
                            SERVICE_PAIRS, create_receivers=2)
        with rss:
            time.sleep(SERVICE_WARMUP_S)
            outcome, lo, hi = run_load(server.host, server.port, ops, os.cpu_count() or 1)
    finally:
        report = _check_stop(run, server)
    run.peak_kb = rss.peak_kb
    if shm_segments() > shm_before:
        run.problems.append("new /dev/shm segments after the service run")
    run.attempted += len(ops)
    run.failed += len(outcome.failures)
    if outcome.server_errors:
        run.problems.append(f"{outcome.server_errors} responses with status 5xx")
    run.problems.extend(outcome.failures[:5])
    run.request_ms.extend(outcome.latency_ms)
    run.late_ms.extend(outcome.late_ms)
    run.windows.append((lo, hi))
    rounds = [r for r in report.get("rounds", []) if lo <= r[0] and r[1] <= hi]
    run.ticks_ms.extend((end - start) * 1e3 for start, end, _ in rounds)
    run.idle_s += sum(b[0] - a[1] for a, b in zip(rounds, rounds[1:]))
    run.segments.extend(slices([(start, n) for start, _, n in rounds]))
    run.window_frames += sum(n for _, _, n in rounds)
    run.spans.extend(Span(*span) for span in report.get("spans", []))
    run.handler_ms.extend(
        (span[4] - span[3]) * 1e3 for span in report.get("spans", [])
        if span[0] == "service.http" and lo <= span[3] <= hi
    )
    ticked = max(report.get("frames_ticked", 0), 1)
    items_, scalar, buckets = _plane_counts(report.get("batchplane", {}))
    hits, misses = report.get("cull_cache", [0, 0])
    source = report.get("capture_cache", [0, 0])
    run.counters.update({
        "capture.cache_hit_rate": source[0] / max(sum(source), 1),
        "codec.kb_per_frame": report.get("uplink_bytes", 0) / ticked / 1e3,
        "sfu.cull_cache_hit_rate": hits / max(hits + misses, 1),
        "sfu.receivers_per_session": report.get("receiver_frames", 0) / ticked,
        "batchplane.items_per_bucket": items_ / max(buckets, 1),
        "batchplane.fallbacks": scalar / ticked,
        "registry.mailbox_ops_per_round": report.get("mailbox_ops", 0)
        / max(len(report.get("rounds", [])), 1),
    })
    run.digests.append(_digest([op.path for op in ops]))
    return run
