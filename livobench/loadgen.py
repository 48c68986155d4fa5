"""Open-loop HTTP load for the ``service`` workload.

Independent of the program's own client (``repro.service.http.
JsonClient`` is part of the system under test).  The schedule is made
up front from the seed, with the cadence of the traffic model the
program ships (``repro.service.loadgen.build_schedule`` at its default
``LoadgenConfig``), scaled to a steady set of sessions:

- membership writes: that model has each session's clients join and
  later leave, 0.80 joins and 0.57 leaves per session-second (mean of
  seeds 0-2), so writes arrive as a Poisson process at 1.4 per
  session-second.  A model of the membership keeps every session's
  receivers inside a fixed band, so a write joins or leaves with equal
  odds and turns into the other at a band edge;
- dashboard polls: that model sends one stats request on a drawn
  session plus one ``/healthz`` every 5 slots of 0.1 s, i.e. every
  0.5 s;
- ``/metrics`` scrapes: that model reads ``/metrics`` once, at the end
  of a run, which would leave the ``obs`` layer unmeasured in a window.
  The benchmark scrapes once a second, the interval a fixed-interval
  scraper would use, so a traced half-window holds ~16 renders;
- a fixed number of create+kill pairs, one in each equal share of the
  window (a random count moved the service's tick p97 by 28%).

Every request has one correct answer, so no operation is expected to
fail.  Requests go out on at most ``connections`` keep-alive
connections from one asyncio loop.  Each request is timed from when it
was *due*, so a stall in the server also delays the requests queued
behind it.  How late the loop itself woke up for each request is
recorded separately: a generator that runs late measures itself, not
the server.
"""

from __future__ import annotations

import asyncio
import json
import random
from dataclasses import dataclass, field
from time import perf_counter

WRITES_PER_SESSION_S = 1.4   # joins + leaves per session-second
POLL_S = 0.5                 # one stats + one /healthz
SCRAPE_S = 1.0               # one /metrics
CREATED = "{created}"
SPIN_S = 0.0015


@dataclass(eq=False)
class Op:
    due: float                  # seconds after the start of the load
    method: str
    path: str
    body: dict | None
    expect: int                 # the one correct status
    kind: str
    after: "Op | None" = None   # must finish before this one is sent
    session: str = ""           # the id a create returned
    finished: asyncio.Event | None = None


@dataclass
class Outcome:
    latency_ms: list[float] = field(default_factory=list)
    late_ms: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    server_errors: int = 0


def _periodic(rng: random.Random, seconds: float, period: float):
    """Due times every ``period`` over ``seconds``, from a seeded phase."""
    t = rng.uniform(0.0, period)
    while t < seconds:
        yield t
        t += period


def make_schedule(
    rng: random.Random,
    sessions: dict[str, list[str]],
    seconds: float,
    band: tuple[int, int],
    pairs: int,
    create_receivers: int,
) -> list[Op]:
    """The seeded request schedule over ``seconds``.

    ``sessions`` maps the live session ids to their clients and is not
    changed.  Membership writes on one session wait for the previous
    write on it, and a kill waits for its create, so every expected
    status holds whatever order the server answers in.
    """
    members = {sid: list(clients) for sid, clients in sessions.items()}
    ids = sorted(members)
    last_write: dict[str, Op] = {}
    ops: list[Op] = []
    for index in range(pairs):
        due = seconds * (index + rng.uniform(0.25, 0.75)) / pairs
        body = {"clients": [f"x{index}-{i}" for i in range(create_receivers)],
                "seed": 1000 + index}
        create = Op(due, "POST", "/v1/sessions", body, 201, "create")
        ops.append(create)
        ops.append(Op(due + 0.1, "POST", f"/v1/sessions/{CREATED}/kill", {}, 202,
                      "kill", after=create))
    for t in _periodic(rng, seconds, POLL_S):
        ops.append(Op(t, "GET", f"/v1/sessions/{rng.choice(ids)}/stats", None, 200, "stats"))
        ops.append(Op(t, "GET", "/healthz", None, 200, "healthz"))
    for t in _periodic(rng, seconds, SCRAPE_S):
        ops.append(Op(t, "GET", "/metrics", None, 200, "metrics"))
    serial = 0
    rate = WRITES_PER_SESSION_S * len(ids)
    t = rng.expovariate(rate)
    while t < seconds:
        sid = rng.choice(ids)
        clients = members[sid]
        join = rng.random() < 0.5
        if join and len(clients) >= band[1]:
            join = False
        elif not join and len(clients) <= band[0]:
            join = True
        if join:
            serial += 1
            client = f"c{serial}"
            clients.append(client)
            op = Op(t, "POST", f"/v1/sessions/{sid}/join", {"client": client}, 200, "join")
        else:
            client = clients.pop(rng.randrange(len(clients)))
            op = Op(t, "POST", f"/v1/sessions/{sid}/leave", {"client": client}, 200, "leave")
        op.after = last_write.get(sid)
        last_write[sid] = op
        ops.append(op)
        t += rng.expovariate(rate)
    ops.sort(key=lambda op: op.due)
    return ops


async def _request(reader, writer, host: str, op: Op) -> tuple[int, dict]:
    path = op.path.replace(CREATED, op.after.session) if op.kind == "kill" else op.path
    body = json.dumps(op.body).encode() if op.body is not None else b""
    writer.write(
        f"{op.method} {path} HTTP/1.1\r\nHost: {host}\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n".encode()
        + body
    )
    await writer.drain()
    status = int((await reader.readline()).split()[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    payload = json.loads(await reader.readexactly(length)) if length else {}
    return status, payload


async def _run(host: str, port: int, ops: list[Op], connections: int, start: float,
               outcome: Outcome) -> None:
    pool: asyncio.Queue = asyncio.Queue()
    for _ in range(connections):
        pool.put_nowait(await asyncio.open_connection(host, port))
    for op in ops:
        op.finished = asyncio.Event()

    async def fire(op: Op) -> None:
        due = start + op.due
        # The loop's timers wake up to a millisecond late; sleep short
        # and yield the rest of the way.
        delay = due - perf_counter() - SPIN_S
        if delay > 0:
            await asyncio.sleep(delay)
        while perf_counter() < due:
            await asyncio.sleep(0)
        outcome.late_ms.append(max(0.0, perf_counter() - due) * 1e3)
        try:
            if op.after is not None:
                await op.after.finished.wait()
            reader, writer = await pool.get()
            try:
                status, payload = await _request(reader, writer, host, op)
            except (OSError, EOFError, ValueError, IndexError) as error:
                # A broken connection is replaced; the request failed.
                writer.close()
                pool.put_nowait(await asyncio.open_connection(host, port))
                outcome.failures.append(f"{op.method} {op.path}: {error!r}")
                return
            pool.put_nowait((reader, writer))
            outcome.latency_ms.append((perf_counter() - due) * 1e3)
            if status >= 500:
                outcome.server_errors += 1
            if status != op.expect:
                outcome.failures.append(f"{op.method} {op.path}: {status} {payload}")
            elif op.kind == "create":
                op.session = payload["session"]
        finally:
            op.finished.set()

    tasks = [asyncio.create_task(fire(op)) for op in ops]
    try:
        await asyncio.gather(*tasks)
    finally:
        for task in tasks:
            task.cancel()
        while not pool.empty():
            _, writer = pool.get_nowait()
            writer.close()
            await writer.wait_closed()


def run_load(host: str, port: int, ops: list[Op], connections: int) -> tuple[Outcome, float, float]:
    """Send ``ops``; returns the outcome and the load's start and end times."""
    outcome = Outcome()
    start = perf_counter() + 0.05
    asyncio.run(_run(host, port, ops, connections, start, outcome))
    return outcome, start, perf_counter()
