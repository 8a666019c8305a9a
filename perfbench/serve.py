"""The serve workloads: a ``repro serve`` subprocess and an open-loop load
generator on one asyncio thread of the benchmark process.

``serve-read-mix``: an ephemeral server (no ``--data-dir``) with four maze
tenants. Connection A sends paced INGEST round-robin over the tenants;
connection B sends paced QUERY, alternating pid and coords lookups. A read
waits behind the strides of every co-resident tenant on the server's one
event loop; no WAL, journal or checkpoint runs.

``serve-durable-push``: a ``--data-dir`` server with one DTG tenant, WAL and
journal fsync on every commit, archive snapshots and checkpoints. Connection
A sends paced INGEST and, on every ``as_of_every``-th slot of the same
schedule, an AS_OF(stride, pid) query; connection B holds a SUBSCRIBE from
cursor 0.

Both are open loops: every operation has an intended send time fixed before
the run, and its latency runs from that time, so a stall also delays the
operations queued behind it. How late the generator itself ran is reported.

A calibration sampler (``calibrate.py``) runs on the server's CPU for the
whole run, so the server's CPU time and the set-up times are read in kernel
units.
"""

from __future__ import annotations

import asyncio
import bisect
import json
import os
import random
import shutil
import signal
import sys
import time
from dataclasses import dataclass

from perfbench import calibrate, layers
from perfbench.common import INDEX, ROOT, SETUP_REPEATS, WORK, beyond, median, percentile, pin, ratio, summary

_now = time.perf_counter
READY_TIMEOUT_S = 60.0
REPLY_TIMEOUT_S = 30.0
PREFILL_BATCH = 500


@dataclass(frozen=True)
class Shape:
    dataset: str
    tenants: int
    window: int
    stride: int
    batch: int
    ingest_rate: float  # points per second, all tenants together
    query_rate: float = 0.0  # connection-B queries per second (read mix)
    as_of_every: int = 0  # every n-th connection-A slot is an AS_OF (durable)
    durable: bool = False
    # Tail percentiles reported for ingest acks, reads and push lag: the
    # highest that keeps at least ten samples beyond it at a 25-second run.
    write_tail: float = 95.0
    read_tail: float = 90.0
    push_tail: float = 95.0


SHAPES = {
    "serve-read-mix": {
        "full": Shape("maze", 4, 2000, 200, 50, 1200.0, query_rate=100.0, write_tail=98.0, read_tail=99.0),
        "tiny": Shape("maze", 2, 400, 40, 20, 400.0, query_rate=50.0, write_tail=98.0, read_tail=99.0),
    },
    # One batch per stride: every ack crosses a WAL fsync and a whole stride
    # (journal publish and fsync, archive snapshot, checkpoint, fan-out).
    "serve-durable-push": {
        "full": Shape("dtg", 1, 2000, 100, 100, 1000.0, as_of_every=3, durable=True),
        "tiny": Shape("dtg", 1, 400, 20, 20, 400.0, as_of_every=3, durable=True),
    },
}


def session_config(shape: Shape) -> dict:
    from repro.datasets.registry import DATASETS
    from repro.serve.config import SessionConfig

    info = DATASETS[shape.dataset]
    extra = {}
    if shape.durable:
        extra = dict(
            wal=True,
            wal_fsync="always",
            journal=True,
            journal_fsync="always",
            archive_every=4,
        )
    return SessionConfig(
        eps=info.eps,
        tau=info.tau,
        window=shape.window,
        stride=shape.stride,
        index=INDEX,
        **extra,
    ).as_dict()


# --------------------------------------------------------------- schedule


class Schedule:
    """Every intended send time and payload, fixed from the seed up front."""

    def __init__(self, shape: Shape, seed: int, seconds: float) -> None:
        from repro.datasets.registry import DATASETS

        self.shape = shape
        s = shape
        self.eps = DATASETS[s.dataset].eps
        if s.as_of_every:
            slot_s = s.batch / s.ingest_rate * (s.as_of_every - 1) / s.as_of_every
        else:
            slot_s = s.batch / s.ingest_rate
        n_slots = int(seconds / slot_s)
        self.rng = random.Random(seed)
        # Connection A: (offset_s, tenant, batch_index) for an INGEST, or
        # (offset_s, None, (u, v)) for an AS_OF whose stride and pid are
        # drawn from u and v once the slot is due (see Phase._as_of_frame).
        self.a_slots = []
        next_batch = [0] * s.tenants
        for i in range(n_slots):
            offset = i * slot_s
            if s.as_of_every and i % s.as_of_every == s.as_of_every - 1:
                draws = (self.rng.random(), self.rng.random())
                self.a_slots.append((offset, None, draws))
                continue
            tenant = i % s.tenants
            self.a_slots.append((offset, tenant, next_batch[tenant]))
            next_batch[tenant] += 1
        self.batches_per_tenant = next_batch
        self.names = [f"t{k}" for k in range(s.tenants)]
        self.streams = [
            DATASETS[s.dataset].load(
                s.window + next_batch[k] * s.batch, seed=seed * 1000 + k
            )
            for k in range(s.tenants)
        ]
        self.batch_offset = {}  # (tenant, batch_index) -> intended offset_s
        self.tenant_offsets = [[] for _ in range(s.tenants)]
        for offset, tenant, index in self.a_slots:
            if tenant is not None:
                self.batch_offset[(tenant, index)] = offset
                self.tenant_offsets[tenant].append(offset)
        # Connection B: (offset_s, QUERY frame), alternating pid and coords
        # lookups over the tenants.
        self.b_slots = [
            (j / s.query_rate, self._query_frame(j / s.query_rate, (j // 2) % s.tenants, j % 2))
            for j in range(int(seconds * s.query_rate))
        ]

    def batch_points(self, tenant: int, index: int):
        start = self.shape.window + index * self.shape.batch
        return self.streams[tenant][start : start + self.shape.batch]

    def _query_frame(self, offset: float, tenant: int, kind: int) -> dict:
        """A pid or coords QUERY against the tenant's window at ``offset``."""
        sent = self.sent_index(tenant, offset)
        lo = max(0, sent - self.shape.window)
        point = self.streams[tenant][self.rng.randrange(lo, sent)]
        name = self.names[tenant]
        if kind == 0:
            return {"op": "QUERY", "session": name, "pid": point.pid}
        coords = [c + self.rng.gauss(0.0, self.eps / 4) for c in point.coords]
        return {"op": "QUERY", "session": name, "coords": coords}

    def sent_index(self, tenant: int, offset: float) -> int:
        """Stream points of ``tenant`` due to be sent by ``offset`` seconds."""
        done = bisect.bisect_right(self.tenant_offsets[tenant], offset)
        return self.shape.window + done * self.shape.batch


# ----------------------------------------------------------------- server


class Server:
    """One ``repro serve`` subprocess (plain, or through the launcher)."""

    def __init__(self, workdir, *, durable: bool, traced: bool) -> None:
        self.workdir = workdir
        self.durable = durable
        self.traced = traced
        self.spans_path = workdir / "spans.json"
        self.proc = None
        self.port = None

    async def start(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        serve_args = ["serve", "--host", "127.0.0.1", "--port", "0"]
        if self.durable:
            serve_args += ["--data-dir", str(self.workdir / "data")]
        if self.traced:
            cmd = [
                sys.executable,
                str(ROOT / "perfbench" / "launcher.py"),
                "--spans-out",
                str(self.spans_path),
                *serve_args,
            ]
        else:
            cmd = [sys.executable, "-m", "repro", *serve_args]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
        self._stderr = open(self.workdir / "server.stderr", "wb")
        self.proc = await asyncio.create_subprocess_exec(
            *cmd,
            cwd=str(ROOT),
            env=env,
            stdout=asyncio.subprocess.PIPE,
            stderr=self._stderr,
        )
        pin(self.proc.pid, "server")
        try:
            while True:
                line = await asyncio.wait_for(
                    self.proc.stdout.readline(), READY_TIMEOUT_S
                )
                if not line:
                    raise RuntimeError(f"server exited before ready: {self.stderr_tail()}")
                text = line.decode()
                if "listening on" in text:
                    self.port = int(text.split("listening on ")[1].split()[0].rsplit(":", 1)[1])
                    return
        except BaseException:
            await self.stop()
            raise

    def stderr_tail(self) -> str:
        try:
            return (self.workdir / "server.stderr").read_text()[-2000:]
        except OSError:
            return ""

    def _proc_file(self, name: str) -> str:
        with open(f"/proc/{self.proc.pid}/{name}", encoding="ascii") as handle:
            return handle.read()

    def peak_rss_mb(self) -> float:
        for line in self._proc_file("status").splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def cpu_s(self) -> float:
        """CPU time of every server thread, from the scheduler's ns counter."""
        total = 0
        for task in os.listdir(f"/proc/{self.proc.pid}/task"):
            with open(f"/proc/{self.proc.pid}/task/{task}/schedstat", encoding="ascii") as handle:
                total += int(handle.read().split()[0])
        return total / 1e9

    async def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if it hangs."""
        proc = self.proc
        if proc is None:
            return
        if proc.returncode is None:
            proc.send_signal(signal.SIGTERM)
            try:
                await asyncio.wait_for(proc.wait(), 60.0)
            except asyncio.TimeoutError:
                proc.kill()
                await proc.wait()
        await proc.stdout.read()
        self._stderr.close()
        self.proc = None


# ----------------------------------------------------------------- client


class Conn:
    """One connection: frames out on a schedule, replies matched by id."""

    def __init__(self, reader, writer, parity: int) -> None:
        self.reader = reader
        self.writer = writer
        self._next = parity
        self.pending: dict[int, asyncio.Future] = {}
        self.pushes: list[tuple[float, dict]] = []
        self.push_event = asyncio.Event()
        self.ended = asyncio.Event()
        self._task = asyncio.get_running_loop().create_task(self._receive())

    @classmethod
    async def open(cls, port: int, parity: int) -> "Conn":
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", port, limit=64 * 1024 * 1024
        )
        return cls(reader, writer, parity)

    def send(self, frame: dict) -> tuple[int, asyncio.Future]:
        """Stamp an id, write the frame, return (id, reply future)."""
        self._next += 2
        rid = self._next
        future = asyncio.get_running_loop().create_future()
        self.pending[rid] = future
        self.writer.write(json.dumps({**frame, "id": rid}).encode() + b"\n")
        return rid, future

    async def call(self, frame: dict) -> dict:
        _, future = self.send(frame)
        await self.writer.drain()
        reply = (await asyncio.wait_for(future, REPLY_TIMEOUT_S))[1]
        if not reply.get("ok"):
            raise RuntimeError(f"{frame['op']} failed: {reply.get('error')}")
        return reply

    async def _receive(self) -> None:
        try:
            while True:
                line = await self.reader.readline()
                if not line:
                    break
                t = _now()
                frame = json.loads(line)
                if "push" in frame:
                    self.pushes.append((t, frame))
                    self.push_event.set()
                    if frame["push"] == "end":
                        self.ended.set()
                    continue
                future = self.pending.pop(frame.get("id"), None)
                if future is not None and not future.done():
                    future.set_result((t, frame))
        finally:
            self.ended.set()
            for future in self.pending.values():
                if not future.done():
                    future.set_exception(ConnectionError("connection closed"))

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        self._task.cancel()
        try:
            await self._task
        except (asyncio.CancelledError, ConnectionError):
            pass


# ------------------------------------------------------------- one phase


class Phase:
    """Set-up, measured phase and gates against one server instance."""

    def __init__(self, shape: Shape, schedule: Schedule, workdir, *, traced: bool):
        self.shape = shape
        self.schedule = schedule
        self.server = Server(workdir, durable=shape.durable, traced=traced)
        self.a = self.b = None
        self.config = session_config(shape)

    # -- set-up: server start, session open, window prefill

    async def setup(self) -> float:
        t0 = _now()
        sched = self.schedule
        await self.server.start()
        self.a = await Conn.open(self.server.port, 0)
        self.b = await Conn.open(self.server.port, 1)
        for name in sched.names:
            await self.a.call(
                {"op": "OPEN", "session": name, "config": self.config, "resume": False}
            )
        if self.shape.durable:
            await self.b.call({"op": "SUBSCRIBE", "session": sched.names[0], "cursor": 0})
        window, stride = self.shape.window, self.shape.stride
        for k, name in enumerate(sched.names):
            prefix = sched.streams[k][:window]
            for i in range(0, window, PREFILL_BATCH):
                rows = [encode(p) for p in prefix[i : i + PREFILL_BATCH]]
                await self.a.call({"op": "INGEST", "session": name, "points": rows})
        last = window // stride - 1
        for name in sched.names:
            while True:
                stats = await self.a.call({"op": "STATS", "session": name})
                if stats["stride"] >= last and stats["queue_depth"] == 0:
                    break
                await asyncio.sleep(0.005)
        if self.shape.durable:
            while self.push_strides()[-1:] != [last]:
                self.b.push_event.clear()
                await asyncio.wait_for(self.b.push_event.wait(), REPLY_TIMEOUT_S)
        return _now() - t0

    def push_strides(self) -> list[int]:
        return [f["record"]["stride"] for _, f in self.b.pushes if f["push"] == "event"]

    # -- measured phase

    async def measure(self, seconds: float) -> dict:
        sched, shape = self.schedule, self.shape
        a_ops, b_ops = [], []  # (kind, intended, sent, rid, future, meta)
        self.cpu0 = self.server.cpu_s()
        t0 = _now() + 0.05

        async def drive_a():
            for offset, tenant, index in sched.a_slots:
                intended = t0 + offset
                await _sleep_until(intended)
                if tenant is None:
                    frame, meta = self._as_of_frame(offset, index)
                    kind = "as_of"
                else:
                    rows = [encode(p) for p in sched.batch_points(tenant, index)]
                    frame = {"op": "INGEST", "session": sched.names[tenant], "points": rows}
                    kind, meta = "ingest", (tenant, index, len(rows))
                rid, fut = self.a.send(frame)
                a_ops.append((kind, intended, _now(), rid, fut, meta))
                await self.a.writer.drain()

        async def drive_b():
            for offset, frame in sched.b_slots:
                intended = t0 + offset
                await _sleep_until(intended)
                rid, fut = self.b.send(frame)
                b_ops.append(("query", intended, _now(), rid, fut, None))
                await self.b.writer.drain()

        await asyncio.gather(drive_a(), drive_b())
        ops = a_ops + b_ops
        await asyncio.wait(
            [op[4] for op in ops], timeout=REPLY_TIMEOUT_S
        )
        self.cpu1 = self.server.cpu_s()
        self.t0 = t0
        return self._collect(ops, t0)

    def _as_of_frame(self, offset: float, draws: tuple[float, float]):
        """AS_OF of one of the 20 strides up to the last one closed at least
        a second (of schedule time) before this slot, and of a pid inside
        that stride's window. A stride not yet pushed is never asked for."""
        shape, sched = self.shape, self.schedule
        closed = sched.sent_index(0, offset - 1.0) // shape.stride - 1
        pushed = self.push_strides()
        target = min(closed, pushed[-1]) if pushed else closed
        stride = max(0, target - int(draws[0] * 20))
        hi = (stride + 1) * shape.stride
        lo = max(0, hi - shape.window)
        pid = sched.streams[0][lo + int(draws[1] * (hi - lo))].pid
        frame = {
            "op": "QUERY",
            "session": sched.names[0],
            "as_of": {"stride": stride},
            "pid": pid,
        }
        return frame, (stride, pid)

    def _collect(self, ops, t0: float) -> dict:
        out = {
            "write_ms": [],
            "read_ms": [],
            "late_ms": [],
            "acked_points": 0,
            "last_ack": t0,
            "attempted": len(ops),
            "failed": 0,
            "depth_max": 0,
            "as_of": [],
            "read_by_id": {},
        }
        for kind, intended, sent, rid, fut, meta in ops:
            out["late_ms"].append((sent - intended) * 1e3)
            if not fut.done() or fut.exception() is not None:
                out["failed"] += 1
                continue
            t, reply = fut.result()
            if not reply.get("ok"):
                out["failed"] += 1
                print(f"error reply: {reply.get('error')}", file=sys.stderr)
                continue
            latency = (t - intended) * 1e3
            if kind == "ingest":
                out["write_ms"].append(latency)
                out["acked_points"] += reply["accepted"]
                out["depth_max"] = max(out["depth_max"], reply["depth"])
                out["last_ack"] = max(out["last_ack"], t)
                if reply["accepted"] != meta[2]:
                    out["failed"] += 1
            else:
                out["read_ms"].append(latency)
                out["read_by_id"][rid] = latency
                if kind == "as_of":
                    out["as_of"].append((meta, reply))
        return out

    # -- after the measured phase: stats, drain, snapshots (untimed)

    async def finish(self) -> dict:
        sched = self.schedule
        rss = self.server.peak_rss_mb()
        stats = {}
        for name in sched.names:
            stats[name] = await self.a.call({"op": "STATS", "session": name})
        snapshots = {}
        for name in sched.names:
            await self.a.call({"op": "DRAIN", "session": name, "flush_tail": True})
            snapshots[name] = await self.a.call({"op": "SNAPSHOT", "session": name})
        if self.shape.durable:
            await asyncio.wait_for(self.b.ended.wait(), REPLY_TIMEOUT_S)
        return {"rss_mb": rss, "stats": stats, "snapshots": snapshots}

    async def close(self) -> None:
        for conn in (self.a, self.b):
            if conn is not None:
                await conn.close()
        await self.server.stop()


def encode(point) -> list:
    return [point.pid, list(point.coords), point.time]


async def _sleep_until(deadline: float) -> None:
    delay = deadline - _now()
    if delay > 0:
        await asyncio.sleep(delay)


# ------------------------------------------------------------------ gates


def offline_reference(shape: Shape, points, want_strides=()):
    """Final clustering and the clusterings at ``want_strides`` of an
    offline ``api.cluster_stream`` run over the same stream."""
    from repro.api import cluster_stream
    from repro.common.config import WindowSpec
    from repro.datasets.registry import DATASETS

    info = DATASETS[shape.dataset]
    want = set(want_strides)
    at = {}
    final = None
    for k, (snap, _) in enumerate(
        cluster_stream(
            points, WindowSpec(shape.window, shape.stride), info.eps, info.tau, index=INDEX
        )
    ):
        if k in want:
            at[k] = snap
        final = (k, snap)
    return final, at


def check_gates(report, shape: Shape, schedule: Schedule, measured: dict, done: dict, phase, tag: str):
    """Served results must equal an offline run over the same stream."""
    suffix = f" ({tag})" if tag else ""
    as_of = measured["as_of"]
    for k, name in enumerate(schedule.names):
        sent = shape.window + schedule.batches_per_tenant[k] * shape.batch
        points = schedule.streams[k][:sent]
        strides = [meta[0] for meta, _ in as_of] if k == 0 else []
        (last, final), at = offline_reference(shape, points, strides)
        snap = done["snapshots"][name]
        labels = {str(pid): cid for pid, cid in final.labels.items()}
        cats = {str(pid): cat.value for pid, cat in final.categories.items()}
        ok = snap["stride"] == last and snap["labels"] == labels and snap["categories"] == cats
        report.gate(
            f"{name} drained SNAPSHOT equals offline cluster_stream{suffix}",
            ok,
            f"stride {snap['stride']} vs {last}",
        )
        if shape.durable and k == 0:
            strides_seen = phase.push_strides()
            report.gate(
                f"one event frame per stride, contiguous from 0{suffix}",
                strides_seen == list(range(last + 1)),
                f"{len(strides_seen)} frames for {last + 1} strides",
            )
            bad = [
                (stride, pid)
                for (stride, pid), reply in as_of
                if not reply["present"]
                or reply["label"] != at[stride].label_of(pid)
                or reply["category"] != at[stride].category_of(pid).value
            ]
            report.gate(
                f"sampled AS_OF answers equal offline membership{suffix}",
                not bad and bool(as_of),
                f"{len(bad)} of {len(as_of)} differ, first {bad[:3]}",
            )


def push_lags(shape: Shape, schedule: Schedule, phase) -> list[float]:
    """Per stride closed in the measured phase: arrival of its event frame
    minus the intended send of the batch holding its closing point."""
    lags = []
    arrival = {
        f["record"]["stride"]: t for t, f in phase.b.pushes if f["push"] == "event"
    }
    for stride, t in arrival.items():
        closing = (stride + 1) * shape.stride - 1
        if closing < shape.window:
            continue
        offset = schedule.batch_offset.get((0, (closing - shape.window) // shape.batch))
        if offset is not None:
            lags.append((t - (phase.t0 + offset)) * 1e3)
    return lags


# ------------------------------------------------------------------ run


async def _run_phase(report, shape, schedule, seconds, workdir, *, traced, setups, tag=""):
    setup_s, setup_windows = [], []
    for rep in range(setups):
        phase = Phase(shape, schedule, workdir / f"p{rep}", traced=traced)
        try:
            start = _now()
            setup_s.append(await phase.setup())
            setup_windows.append((start, _now()))
        except BaseException:
            await phase.close()
            raise
        if rep < setups - 1:
            await phase.close()
    try:
        start = _now()
        measured = await phase.measure(seconds)
        measure_window = (start, _now())
        done = await phase.finish()
        lags = push_lags(shape, schedule, phase) if shape.durable else []
        cpu = phase.cpu1 - phase.cpu0
    finally:
        await phase.close()
    check_gates(report, shape, schedule, measured, done, phase, tag)
    report.count(measured["attempted"], measured["failed"])
    spans = None
    if traced:
        with open(phase.server.spans_path, encoding="utf-8") as handle:
            spans = json.load(handle)
    return {
        "setup_s": setup_s,
        "setup_windows": setup_windows,
        "measure_window": measure_window,
        "measured": measured,
        "done": done,
        "lags": lags,
        "cpu_s": cpu,
        "spans": spans,
        "t0": phase.t0,
    }


def run(report, workload: str, seed: int, seconds: float, trace: bool, size: str) -> None:
    shape = SHAPES[workload][size]
    schedule = Schedule(shape, seed, seconds)
    workdir = WORK / f"{workload}-{os.getpid()}"
    pin(0, "bench")
    try:
        asyncio.run(_run(report, shape, schedule, seconds, trace, workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


async def _run(report, shape, schedule, seconds, trace, workdir):
    """Both phases run beside a calibration sampler on the server's CPU, so
    server CPU and set-up times can be read in kernel units."""
    sampler = calibrate.Sampler()
    await sampler.start(lambda pid: pin(pid, "server"))
    try:
        if not trace:
            data = await _run_phase(
                report, shape, schedule, seconds, workdir, traced=False, setups=SETUP_REPEATS
            )
        else:
            plain = await _run_phase(
                report, shape, schedule, seconds, workdir / "plain", traced=False, setups=1, tag="untraced"
            )
            traced = await _run_phase(
                report, shape, schedule, seconds, workdir / "traced", traced=True, setups=1, tag="traced"
            )
    finally:
        await sampler.stop()
    if not trace:
        _report_end_to_end(report, shape, data, sampler)
    else:
        _report_layers(report, shape, plain, traced, sampler)


def _cpu_units(data: dict, sampler) -> float:
    """Server CPU seconds of the measured phase, in kernel units."""
    return data["cpu_s"] / sampler.unit_s(*data["measure_window"])


def _tail_name(prefix: str, q: float) -> str:
    return f"{prefix}_p{q:g}_ms".replace(".", "_")


def _report_end_to_end(report, shape: Shape, data: dict, sampler) -> None:
    m, done = data["measured"], data["done"]
    setup = calibrate.UNIT_S * median(
        took / sampler.unit_s(*window)
        for took, window in zip(data["setup_s"], data["setup_windows"])
    )
    pps = ratio(m["acked_points"], m["last_ack"] - data["t0"])
    read_name = "as_of" if shape.durable else "query"
    families = [  # (name, samples, tail percentile), in report order
        (read_name, m["read_ms"], shape.read_tail),
        ("ingest_ack", m["write_ms"], shape.write_tail),
    ]
    if shape.durable:
        families = [families[1], ("push_lag", data["lags"], shape.push_tail), families[0]]
    report.metric("setup_s", setup, "s")
    report.metric("peak_rss_mb", done["rss_mb"], "MB")
    report.metric("error_ratio", ratio(m["failed"], m["attempted"]), "ratio")
    report.metric("points_per_s", pps, "1/s")
    for name, samples, tail in families:
        report.metric(f"{name}_p50_ms", percentile(samples, 50), "ms")
        report.metric(_tail_name(name, tail), percentile(samples, tail), "ms")
        report.notes[f"{name}_ms"] = {**summary(samples), "beyond_tail": beyond(samples, tail)}
    report.notes.update(
        generator_late_ms_p99=percentile(m["late_ms"], 99),
        setup_runs_s=data["setup_s"],
        offered_points_per_s=shape.ingest_rate,
    )
    cpu_us = 1e6 * ratio(_cpu_units(data, sampler) * calibrate.UNIT_S, m["acked_points"])
    report.metric("cpu_us_per_point", cpu_us, "us")
    slowdown = sampler.unit_s(*data["measure_window"]) / calibrate.UNIT_S
    report.metric("host_slowdown", slowdown, "ratio")
    report.notes.update(
        raw_cpu_us_per_point=1e6 * ratio(data["cpu_s"], m["acked_points"]),
        calibration_samples=len(sampler.samples),
    )
    report.contract("setup_s", setup, "s")
    report.contract("peak_rss_mb", done["rss_mb"], "MB")
    report.contract("points_per_s", pps, "1/s")
    report.contract("cpu_us_per_point", cpu_us, "us")


def _report_layers(report, shape: Shape, plain: dict, traced: dict, sampler) -> None:
    from perfbench.spans import SpanTable

    spans = traced["spans"]
    table = SpanTable(spans["spans"])
    extra = spans["extra"]
    metrics = layers.core_metrics(table, extra.get("core", {}))
    stats = next(iter(traced["done"]["stats"].values()))
    metrics.update(layers.serve_metrics(table, {"wal": stats.get("wal"), "journal": stats.get("journal")}))
    m = traced["measured"]
    dispatch = layers.dispatch_ms_by_id(table)
    waits = [lat - dispatch[rid] for rid, lat in m["read_by_id"].items() if rid in dispatch]
    metrics["serve.loop.query_wait_ms_p99"] = percentile(waits, 99)
    metrics["serve.session.queue_depth_max"] = float(m["depth_max"])
    metrics["loadgen.late_ms_p99"] = percentile(m["late_ms"], 99)
    cost = lambda d: ratio(_cpu_units(d, sampler), d["measured"]["acked_points"])  # noqa: E731
    metrics["trace.overhead_pct"] = 100.0 * (ratio(cost(traced), cost(plain)) - 1.0)
    report.notes.update(
        overhead_basis="server CPU per acknowledged point in kernel units, traced vs untraced phase",
        cpu_units_per_point_untraced=cost(plain),
        cpu_units_per_point_traced=cost(traced),
        spans=len(table.dur),
    )
    for name, value in layers.fill(metrics).items():
        report.metrics[name] = value
        report.metric(name, value["value"], value["unit"])
