"""Process-level kill drills: real ``repro`` processes, really killed.

Two guarantees are proven here against the CLI entry points, over real TCP:
under ``fsync=always`` every acknowledgement is durable, and a resumed
tenant reproduces one uninterrupted offline run (DISC ≡ DBSCAN after every
stride, carried across the crash). Each drill is one row of ``DRILLS``:

- life 1 ends by SIGKILL (or SIGTERM, or the CLI's own chaos kill);
- life 2 resumes from the same data dir and replays every stream from 0;
- every expected answer comes from the offline reference in ``conftest``.

To add a row, write ``drill_<name>(spawn, data)`` and list it in
``DRILLS`` (docs/testing.md, "Kill drills").
"""

from __future__ import annotations

import asyncio
import itertools
import os
import re
import signal
import socket
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path

import pytest

from repro.common.snapshot import Clustering
from repro.datasets.io import write_stream
from repro.datasets.registry import DATASETS
from repro.query.journal import encode_record
from repro.serve import SessionConfig, place
from repro.serve.client import ServeClient, ServeClientError
from repro.serve.loadgen import tenant_stream

from .conftest import clustered_stream, offline_history, offline_records, offline_run

pytestmark = pytest.mark.chaos

SRC = Path(__file__).resolve().parents[1] / "src"
READY = re.compile(r"listening on [\d.]+:(\d+)")
CONFIG = {
    "eps": 0.8,
    "tau": 4,
    "window": 120,
    "stride": 30,
    "backpressure": "block",  # the lossless policy: exact replay is defined
    "checkpoint_every": 2,
}
WAL = {**CONFIG, "wal": True, "wal_fsync": "always"}
JOURNAL = {**WAL, "journal": True, "journal_fsync": "always", "archive_every": 4}
STREAMS = {"tenant-a": clustered_stream(41, 300), "tenant-b": clustered_stream(42, 300)}


# -------------------------------------------------------------------- harness


class Proc:
    """One ``python -m repro`` child; stdout and stderr go to log files."""

    def __init__(self, log: Path, args) -> None:
        self.out, self.err = log.with_suffix(".out"), log.with_suffix(".err")
        path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
        with open(self.out, "w") as out, open(self.err, "w") as err:
            self.popen = subprocess.Popen(
                [sys.executable, "-m", "repro", *map(str, args)],
                stdout=out,
                stderr=err,
                env={**os.environ, "PYTHONPATH": path},
            )

    def log(self) -> str:
        return self.out.read_text() + self.err.read_text()

    def grep(self, pattern: str) -> bool:
        return re.search(pattern, self.log()) is not None

    def wait_ready(self, timeout: float = 30.0) -> int:
        """The port of the ``listening on host:port`` line."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline and self.popen.poll() is None:
            match = READY.search(self.out.read_text())
            if match:
                return int(match.group(1))
            time.sleep(0.02)
        pytest.fail(f"{self.popen.args[3:]} never got ready:\n{self.log()[-2000:]}")

    def wait(self, timeout: float = 30.0) -> int:
        return self.popen.wait(timeout)

    def kill9(self) -> None:
        kill9(self.popen.pid)
        self.wait()

    def term(self) -> int:
        self.popen.send_signal(signal.SIGTERM)
        return self.wait()


def kill9(pid: int) -> None:
    os.kill(pid, signal.SIGKILL)


def poll(ready, what: str, timeout: float = 20.0) -> None:
    deadline = time.monotonic() + timeout
    while not ready():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.02)


class Spawner:
    """``spawn(log, *argv)`` for one drill; ``reap()`` kills what still runs."""

    def __init__(self, tmp: Path) -> None:
        self.tmp, self.procs = tmp, []

    def __call__(self, log: str, *args) -> Proc:
        self.procs.append(Proc(self.tmp / log, args))
        return self.procs[-1]

    def reap(self) -> None:
        for proc in self.procs:
            if proc.popen.poll() is None:
                proc.popen.kill()
                proc.popen.wait()


def serve(spawn, log: str, data: Path, *flags) -> tuple[Proc, int]:
    server = spawn(log, "serve", "--port", 0, "--data-dir", data, *flags)
    return server, server.wait_ready()


def call(port: int, fn):
    """Run ``await fn(client)`` on one fresh client connection."""

    async def run():
        async with await ServeClient.connect("127.0.0.1", port) as client:
            return await asyncio.wait_for(fn(client), timeout=60)

    return asyncio.run(run())


def labels(history_entry: dict) -> dict:
    return {str(pid): cid for pid, cid in history_entry.items()}


async def feed(client, streams, config, upto=None) -> dict:
    """OPEN every tenant and INGEST its stream, or its first ``upto`` points.

    Returns each tenant's ``replay_offset``: the prefix its session already
    covers and swallows from the re-sent stream.
    """
    offsets = {}
    for name, points in streams.items():
        offsets[name] = (await client.open_session(name, config))["replay_offset"]
        cut = len(points) if upto is None else upto
        for i in range(0, cut, 50):
            batch = points[i : min(i + 50, cut)]
            assert (await client.ingest(name, batch))["accepted"] == len(batch)
    return offsets


async def finish(client, streams, config):
    """Feed every stream in full and flush the tail: each tenant's labels and
    final stride must equal the offline run.

    Returns the replay offsets, per-tenant STATS and the server's STATS.
    """
    offsets = await feed(client, streams, config)
    for name, points in streams.items():
        await client.drain(name, flush_tail=True)
        snapshot = await client.snapshot(name)
        history = offline_history(points, config)
        assert snapshot["labels"] == labels(history[-1]), f"{name} diverged"
        assert snapshot["stride"] == len(history) - 1
    tenants = {name: await client.stats(name) for name in streams}
    return offsets, tenants, await client.stats()


def resume(spawn, data: Path, streams, config, *flags):
    """Life 2: ``serve --resume``, replay every stream from 0, then SIGTERM."""
    server, port = serve(spawn, "life2", data, "--resume", *flags)
    resumed = re.findall(r"resumed (\d+) session", server.log())
    assert sum(map(int, resumed)) == len(streams), server.log()
    result = call(port, lambda client: finish(client, streams, config))
    assert server.term() == 0
    return result


async def read_journal(client, name) -> list[bytes]:
    """The tenant's whole CDC journal, canonically encoded, page by page."""
    records, cursor = [], 0
    while True:
        page = await client.events(name, cursor)
        records += page["events"]
        if page["next_cursor"] >= page["head"]:
            return [encode_record(r) for r in records]
        cursor = page["next_cursor"]


def has(directory: Path, pattern: str) -> bool:
    return bool(list(directory.glob(pattern)))


# ---------------------------------------------------------------------- rows


def drill_checkpoint(spawn, data):
    """No WAL: the checkpointed prefix survives SIGKILL."""
    server, port = serve(spawn, "life1", data)
    call(port, lambda c: feed(c, STREAMS, CONFIG, upto=180))  # no ckpt boundary
    poll(lambda: all(has(data / n / "ckpt", "checkpoint-*.json") for n in STREAMS),
         "a checkpoint per tenant")
    server.kill9()
    offsets, _, _ = resume(spawn, data, STREAMS, CONFIG)
    for name in STREAMS:
        assert 0 < offsets[name] <= 180, f"{name}: no state survived the kill"


def drill_wal(spawn, data):
    """``wal_fsync=always``: zero acknowledged points lost to SIGKILL."""
    server, port = serve(spawn, "life1", data)
    call(port, lambda c: feed(c, STREAMS, WAL, upto=185))  # every reply: fsynced
    server.kill9()
    assert all(has(data / n / "wal", "wal-*.seg") for n in STREAMS)
    offsets, tenants, _ = resume(spawn, data, STREAMS, WAL)
    assert offsets == {name: 185 for name in STREAMS}, "acked points were lost"
    assert sum(stats["wal"]["replayed"] for stats in tenants.values()) > 0


def drill_journal(spawn, data):
    """Every CDC record a ``repro tail`` subscriber printed survives SIGKILL."""
    stream = {"tenant-j": clustered_stream(44, 300)}
    expected = offline_records(stream["tenant-j"], JOURNAL)
    settled = len(offline_records(stream["tenant-j"][:180], JOURNAL))
    server, port = serve(spawn, "life1", data)
    call(port, lambda c: feed(c, stream, JOURNAL, upto=0))
    tail = spawn("tail", "tail", "tenant-j", "--port", port, "--cursor", 0)
    poll(lambda: "subscribed" in tail.err.read_text(), "the tail to subscribe")
    call(port, lambda c: feed(c, stream, JOURNAL, upto=185))
    poll(lambda: tail.out.read_text().count("\n") == settled, "the journal head")
    server.kill9()
    assert tail.wait() != 0 and "tail error:" in tail.err.read_text()
    observed = tail.out.read_bytes().splitlines()
    assert len(observed) == settled
    assert has(data / "tenant-j" / "evj", "evj-*.seg")

    server, port = serve(spawn, "life2", data, "--resume")
    assert server.grep("resumed 1 session")
    recovered = call(port, lambda c: read_journal(c, "tenant-j"))
    assert recovered[: len(observed)] == observed, "an observed record was lost"
    call(port, lambda c: finish(c, stream, JOURNAL))
    mid = len(expected) // 2
    full = call(port, lambda c: read_journal(c, "tenant-j"))
    past = call(port, lambda c: c.query_as_of("tenant-j", stride=mid))
    assert server.term() == 0
    assert full == [encode_record(r) for r in expected]
    then, _ = list(offline_run(stream["tenant-j"], JOURNAL))[mid]
    assert past["stride"] == mid
    assert past["labels"] == {
        str(pid): then.labels.get(pid, Clustering.NOISE_ID) for pid in then.categories
    }


def drill_loadgen(spawn, data):
    """SIGKILL under a paced ``repro loadgen``; a re-run replays from 0."""
    args = ("--tenants", 2, "--points", 400, "--window", 100, "--checkpoint-every", 2)
    server, port = serve(spawn, "life1", data)
    load = spawn("loadgen1", "loadgen", "--port", port, *args, "--rate", 400,
                 "--no-flush-tail")
    poll(lambda: has(data, "*/ckpt/checkpoint-*.json"), "a checkpoint")
    server.kill9()
    assert load.wait() != 0, "the kill landed after loadgen had finished"
    server, port = serve(spawn, "life2", data, "--resume")
    assert server.grep("resumed 2 session")
    assert spawn("loadgen2", "loadgen", "--port", port, *args).wait() == 0
    info = DATASETS["maze"]
    config = SessionConfig(eps=info.eps, tau=info.tau, window=100, stride=10)
    for i in range(2):
        served = call(port, lambda c: c.snapshot(f"tenant-{i}"))
        history = offline_history(tenant_stream("maze", 400, i, 0), config)
        assert served["labels"] == labels(history[-1]), f"tenant-{i} diverged"
    assert server.term() == 0


def drill_graceful(spawn, data):
    """SIGTERM mid-stride: the drain checkpoints every fed point."""
    stream = {"tenant-g": clustered_stream(43, 290)}  # 9 strides + 20 pending
    server, port = serve(spawn, "life1", data)
    call(port, lambda c: feed(c, stream, CONFIG, upto=200))
    assert server.term() == 0
    offsets, _, _ = resume(spawn, data, stream, CONFIG)
    assert offsets == {"tenant-g": 200}


def drill_worker(spawn, data):
    """SIGKILL one shard worker: its neighbour serves, it heals, no ack lost."""
    victim = "tenant-0"
    home = place(victim, 2)
    survivor = next(
        f"tenant-{i}" for i in itertools.count(1) if place(f"tenant-{i}", 2) != home
    )
    streams = {victim: STREAMS["tenant-a"], survivor: STREAMS["tenant-b"]}
    flags = ("--shards", 2, "--restart-backoff", 0.05, "--restart-reset", 0.5)
    router, port = serve(spawn, "life1", data, *flags)
    assert router.grep(r"2 shard\(s\)")

    async def outage(client):
        await feed(client, streams, WAL, upto=185)
        detail = {d["shard"]: d for d in (await client.stats())["shard_detail"]}
        kill9(detail[home]["pid"])
        reply = await client.ingest(survivor, streams[survivor][185:195])
        assert reply["accepted"] == 10
        assert (await client.snapshot(survivor))["stride"] >= 0
        unavailable, deadline = 0, time.monotonic() + 20
        while True:
            try:
                reopened = await client.open_session(victim, WAL)
                break
            except ServeClientError as exc:
                assert exc.code == "shard-unavailable", exc.code
                assert time.monotonic() < deadline, "the victim shard never healed"
                unavailable += 1
                await asyncio.sleep(0.02)
        assert unavailable, "the kill was never observed"
        assert reopened["replay_offset"] == 185
        while (stats := await client.stats())["degraded"]:
            assert time.monotonic() < deadline, f"never healed: {stats}"
            await asyncio.sleep(0.02)
        return stats

    stats = call(port, outage)
    assert stats["worker_restarts"] == 1
    assert {d["shard"]: d["restarts"] for d in stats["shard_detail"]} == {
        home: 1, 1 - home: 0
    }
    assert all(d["alive"] and d["rss_bytes"] > 0 for d in stats["shard_detail"])
    assert router.grep(f"shard-{home} worker died")
    assert router.term() == 0
    assert router.grep(r"stopped 2 shard worker\(s\)")
    assert not router.grep("RuntimeWarning")
    tenant_dir = data / f"shard-{home}" / victim
    assert has(tenant_dir / "ckpt", "checkpoint-*.json")
    assert has(tenant_dir / "wal", "wal-*.seg")

    offsets, _, stats = resume(spawn, data, streams, WAL, *flags)
    assert offsets == {victim: 185, survivor: 195}
    assert stats["shards"] == 2 and len(stats["shard_detail"]) == 2
    assert all(d["rss_bytes"] > 0 for d in stats["shard_detail"])


def drill_busy_port(spawn, data, shards):
    """A taken port is an operator error: one line, exit 1, no traceback."""
    with socket.socket() as held:
        held.bind(("127.0.0.1", 0))
        held.listen()
        port = held.getsockname()[1]
        server = spawn("serve", "serve", "--port", port, "--shards", shards)
        assert server.wait() == 1
    err = server.err.read_text()
    assert err.startswith("serve error:") and "Traceback" not in err, err
    if shards:  # the router stopped its worker rather than orphaning it
        assert "shard: drained" in server.out.read_text()


def drill_cluster(spawn, data):
    """``repro cluster --chaos-kill-at`` exits 3; ``--resume`` is byte-exact."""
    csv = data / "maze.csv"
    write_stream(str(csv), DATASETS["maze"].load(600, seed=0))
    base = ("cluster", "--input", csv, "--eps", 0.8, "--tau", 4, "--window", 300,
            "--stride", 60)
    ckpt = ("--checkpoint-dir", data / "ckpt")
    clean = spawn("clean", *base, "--output", data / "reference.csv")
    killed = spawn("killed", *base, *ckpt, "--checkpoint-every", 2,
                   "--chaos-kill-at", 5)
    assert killed.wait() == 3 and "killed" in killed.err.read_text()
    resumed = spawn("resumed", *base, *ckpt, "--resume",
                    "--output", data / "resumed.csv")
    assert resumed.wait() == 0 and clean.wait() == 0
    assert "resumed 1x" in resumed.out.read_text()
    assert (data / "resumed.csv").read_bytes() == (data / "reference.csv").read_bytes()


# Rows start in this order, so the longest come first.
DRILLS = {
    "worker": drill_worker,
    "loadgen": drill_loadgen,
    "journal": drill_journal,
    "checkpoint": drill_checkpoint,
    "wal": drill_wal,
    "graceful": drill_graceful,
    "cluster": drill_cluster,
    "busy-port --shards 1": partial(drill_busy_port, shards=1),
    "busy-port --shards 0": partial(drill_busy_port, shards=0),
}


def run_drill(row: str, spawn: Spawner) -> None:
    data = spawn.tmp / "data"
    data.mkdir()
    try:
        DRILLS[row](spawn, data)
    finally:
        spawn.reap()


@pytest.fixture(scope="module")
def drills(request, tmp_path_factory):
    """Every selected row, started at once on a small thread pool.

    A drill spends nearly all its time starting and waiting on child
    processes, so rows overlap well; each test waits for its own row and
    re-raises whatever failed in it.
    """
    rows = [item.callspec.params["row"] for item in request.session.items
            if item.module is request.module]
    with ThreadPoolExecutor(max_workers=3) as pool:
        yield {
            row: pool.submit(run_drill, row, Spawner(tmp_path_factory.mktemp(row)))
            for row in rows
        }


@pytest.mark.parametrize("row", DRILLS)
def test_drill(row, drills):
    drills[row].result()
