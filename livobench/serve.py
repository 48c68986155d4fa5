"""Run ``repro serve`` with the benchmark's probes installed.

Usage: ``python serve.py --trace 0|1 [repro serve flags...]``

The server is the program's own ``serve`` command; this wrapper only
adds outside timing before handing over to it.  It always records the
``TickWorkerPool.run_round`` intervals (the service's tick) and keeps
the app and every conference driver it built, so counters can be read
after the drain.  With ``--trace 1`` it also installs the per-layer
wrappers.  After the command returns it prints one line,
``LIVOBENCH-SERVER <json>``, and exits with the command's code (non-zero
when drivers leaked).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from layers import LAYERS, Recorder, probe  # noqa: E402

MARKER = "LIVOBENCH-SERVER "


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[0] != "--trace" or argv[1] not in ("0", "1"):
        print("usage: serve.py --trace 0|1 [serve flags...]", file=sys.stderr)
        return 2
    traced = argv[1] == "1"
    from repro.cli import main as repro_main

    rounds: list = []
    sessions_ticked: list[int] = []
    apps: list = []
    drivers: list = []
    mailbox_ops = [0]
    probe(
        "repro.service.workers:TickWorkerPool.run_round",
        rounds,
        on_call=lambda args, ticked: sessions_ticked.append(ticked),
    )
    probe("repro.service.app:ServiceApp.__init__", [], on_call=lambda args, _: apps.append(args[0]))
    probe("repro.service.app:SessionFactory.__call__", [], on_call=lambda args, d: drivers.append(d))
    recorder = Recorder()
    if traced:

        def count_ops(ops) -> None:
            mailbox_ops[0] += len(ops)

        recorder.install(
            LAYERS, hooks={"repro.service.registry:SessionRegistry.take_pending_ops": count_ops}
        )

    code = repro_main(["serve", *argv[2:]])

    plane = apps[0].pool.plane if apps else None
    cull = [0, 0]
    for driver in drivers:
        counters = driver.node.cull_cache.counters if driver.node.cull_cache else None
        if counters is not None:
            cull[0] += counters.hits
            cull[1] += counters.misses
    source = apps[0].factory.source.counters() if apps else None
    payload = {
        "exit_code": code,
        "capture_cache": [source.hits, source.misses] if source else [0, 0],
        "rounds": [[start, end, n] for (start, end), n in zip(rounds, sessions_ticked)],
        "spans": [list(span) for span in recorder.spans],
        "batchplane": plane.stats() if plane is not None else {},
        "uplink_bytes": sum(driver.uplink_bytes for driver in drivers),
        "frames_ticked": sum(driver.frames_ticked for driver in drivers),
        "receiver_frames": sum(driver.receiver_frames for driver in drivers),
        "cull_cache": cull,
        "mailbox_ops": mailbox_ops[0],
        "drivers_closed": all(driver.closed for driver in drivers),
    }
    sys.stdout.write(MARKER + json.dumps(payload) + "\n")
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
