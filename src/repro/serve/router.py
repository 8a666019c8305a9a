"""The front-end router of a sharded deployment (``repro serve --shards N``).

The router owns the TCP listener and speaks the *unchanged* JSON-lines
protocol; clients cannot tell a sharded deployment from a single-process
one. Every frame carrying a ``session`` field is proxied — raw line in, raw
line out, no re-encoding — to the worker that owns the tenant
(:func:`repro.serve.shard.place` on the tenant name) over a per-shard
Unix-domain socket. Because the protocol is strict request/response per
connection, proxying preserves ordering and backpressure for free: when a
``block``-policy tenant's queue is full, the worker withholds the reply,
the router's await parks, and the client's socket stops being read —
exactly the chain the in-process server produces.

Only two frames are answered by the router itself:

- a session-less ``STATS`` aggregates every worker's stats plus the
  router's supervision view (per-shard pid/rss/tenants/restarts);
- frames addressed to a shard whose circuit is open (or whose worker is
  mid-restart) get a ``shard-unavailable`` error envelope instead of a
  hang — co-resident shards keep serving.

``SUBSCRIBE`` is proxied like everything else, but a success envelope
flips the upstream socket it travelled on into *streaming mode*: a pump
task copies every worker line verbatim to the client until the worker
sends the terminal end frame. The connection cache hands later requests
for that shard a fresh socket, so pushes and responses never interleave
upstream. If the worker dies mid-subscription the router synthesizes
``{"push": "end", "reason": "shard-unavailable", "cursor": null}`` —
the client resumes from its own counted cursor once the shard returns.
"""

from __future__ import annotations

import asyncio
import json
import signal
import sys

from repro._version import __version__
from repro.serve import protocol
from repro.serve.shard import ShardWorker, ShardedClusterService

_RETRIES = 2  # fresh-connection attempts per forwarded frame


class _Upstreams:
    """One client connection's cached per-shard upstream connections."""

    def __init__(self, sharded: ShardedClusterService) -> None:
        self.sharded = sharded
        self._conns: dict[int, tuple[asyncio.StreamReader, asyncio.StreamWriter]] = {}

    async def forward(self, worker: ShardWorker, line: bytes) -> bytes | None:
        """Send one raw frame line to a worker, return its raw reply line.

        Returns ``None`` when the worker cannot be reached (dead, circuit
        open, restarting) or hangs up mid-request — the caller turns that
        into a ``shard-unavailable`` envelope. A cached connection that
        turns out to be stale (the worker restarted behind it) is dropped
        and retried once on a fresh socket.
        """
        for _ in range(_RETRIES):
            conn = self._conns.get(worker.index)
            if conn is None:
                try:
                    conn = await self.sharded.connect(worker)
                except OSError:
                    return None
                self._conns[worker.index] = conn
            reader, writer = conn
            try:
                writer.write(line)
                await writer.drain()
                reply = await reader.readline()
            except (OSError, asyncio.IncompleteReadError):
                reply = b""
            if reply:
                return reply
            await self._drop(worker.index)
        return None

    def steal(self, index: int):
        """Detach a shard's cached connection (streaming-mode handoff).

        The caller owns the returned ``(reader, writer)`` pair; the next
        request for this shard gets a fresh socket.
        """
        return self._conns.pop(index, None)

    async def _drop(self, index: int) -> None:
        conn = self._conns.pop(index, None)
        if conn is not None:
            conn[1].close()
            try:
                await conn[1].wait_closed()
            except OSError:  # pragma: no cover - close races
                pass

    async def close(self) -> None:
        for index in list(self._conns):
            await self._drop(index)


async def _write_raw(writer, wlock: asyncio.Lock, line: bytes) -> None:
    """Write one raw line to the client under the connection write lock."""
    async with wlock:
        writer.write(line)
        await writer.drain()


def _frame_ok(raw: bytes) -> bool:
    try:
        frame = json.loads(raw)
    except ValueError:  # pragma: no cover - worker always sends JSON
        return False
    return isinstance(frame, dict) and bool(frame.get("ok"))


async def _stream_pump(conn, writer, wlock: asyncio.Lock, name: str) -> None:
    """Copy one streaming upstream verbatim to the client.

    Runs from an ok'd ``SUBSCRIBE`` until the worker's terminal end frame.
    A worker death mid-subscription becomes a synthesized end frame with
    ``reason: shard-unavailable`` so the client knows to resubscribe (from
    its own counted cursor) once the supervisor brings the shard back.
    """
    upstream_reader, upstream_writer = conn
    try:
        while True:
            line = await upstream_reader.readline()
            if not line:
                await _write_raw(
                    writer,
                    wlock,
                    protocol.encode_frame(
                        {
                            "push": "end",
                            "session": name,
                            "reason": "shard-unavailable",
                            "cursor": None,
                        }
                    ),
                )
                return
            await _write_raw(writer, wlock, line)
            try:
                frame = json.loads(line)
            except ValueError:  # pragma: no cover - worker always sends JSON
                continue
            if isinstance(frame, dict) and frame.get("push") == "end":
                return
    except (ConnectionResetError, BrokenPipeError, OSError):
        pass
    finally:
        upstream_writer.close()
        try:
            await upstream_writer.wait_closed()
        except OSError:  # pragma: no cover - close races
            pass


def _shard_unavailable(worker: ShardWorker, rid) -> dict:
    state = worker.degraded or ("down" if not worker.alive else "unreachable")
    return protocol.error_response(
        "shard-unavailable",
        f"shard-{worker.index} is {state}; its tenants are temporarily "
        "unavailable (co-resident shards keep serving)",
        rid,
    )


async def handle_proxy_connection(
    sharded: ShardedClusterService,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    """Serve one client connection: route frames, preserve strict ordering.

    An ok'd ``SUBSCRIBE`` detaches its upstream socket into a pump task
    (see :func:`_stream_pump`); push frames from pumps and responses from
    this loop share the client socket under one write lock.
    """
    upstreams = _Upstreams(sharded)
    wlock = asyncio.Lock()
    pumps: set[asyncio.Task] = set()
    try:
        while True:
            try:
                line = await reader.readline()
            except (asyncio.LimitOverrunError, ValueError):
                await _write_raw(
                    writer,
                    wlock,
                    protocol.encode_frame(
                        protocol.error_response(
                            "bad-frame", "frame exceeds the line limit"
                        )
                    ),
                )
                break
            if not line:
                break  # client hung up
            if line.strip() == b"":
                continue
            response = None
            try:
                frame = protocol.decode_frame(line)
            except protocol.ProtocolError as exc:
                response = protocol.error_response(exc.code, str(exc))
            else:
                rid = frame.get("id")
                op = frame.get("op")
                name = frame.get("session")
                if op not in protocol.OPS:
                    response = protocol.error_response(
                        "unknown-op",
                        f"unknown op {op!r}; expected one of {protocol.OPS}",
                        rid,
                    )
                elif op == "STATS" and name is None:
                    response = protocol.ok_response(op, rid, **await sharded.stats())
                elif not isinstance(name, str) or not name:
                    response = protocol.error_response(
                        "bad-request",
                        f"frame needs a string 'session' field, got {name!r}",
                        rid,
                    )
                else:
                    worker = sharded.shard_for(name)
                    if worker.degraded == "circuit-open":
                        response = _shard_unavailable(worker, rid)
                    else:
                        raw = await upstreams.forward(worker, line)
                        if raw is None:
                            response = _shard_unavailable(worker, rid)
                        else:
                            await _write_raw(writer, wlock, raw)  # verbatim
                            if op == "SUBSCRIBE" and _frame_ok(raw):
                                conn = upstreams.steal(worker.index)
                                if conn is not None:
                                    task = asyncio.create_task(
                                        _stream_pump(conn, writer, wlock, name)
                                    )
                                    pumps.add(task)
                                    task.add_done_callback(pumps.discard)
                            continue
            await _write_raw(writer, wlock, protocol.encode_frame(response))
    except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
        pass
    finally:
        for task in list(pumps):
            task.cancel()
        if pumps:
            await asyncio.gather(*pumps, return_exceptions=True)
        await upstreams.close()
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass


async def run_router(
    sharded: ShardedClusterService,
    host: str = "127.0.0.1",
    port: int = 7171,
    *,
    resume: bool = False,
    ready: asyncio.Event | None = None,
    stop: asyncio.Event | None = None,
) -> None:
    """Run the sharded front end until stopped, then drain every worker.

    Mirrors :func:`repro.serve.server.run_server` — same ready line, same
    signal handling — so drills and harnesses work against either.
    """
    from repro.serve.server import _STREAM_LIMIT

    await sharded.start(resume=resume)
    stop = stop or asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, stop.set)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass
    try:
        server = await asyncio.start_server(
            lambda r, w: handle_proxy_connection(sharded, r, w),
            host,
            port,
            limit=_STREAM_LIMIT,
        )
    except OSError:
        await sharded.stop()  # a busy port must not orphan the workers
        raise
    bound_port = server.sockets[0].getsockname()[1]
    sharded.port = bound_port
    print(
        f"serve: listening on {host}:{bound_port} "
        f"(repro {__version__}, {sharded.shards} shard(s))",
        flush=True,
    )
    if ready is not None:
        ready.set()
    try:
        async with server:
            await stop.wait()
            server.close()
            await server.wait_closed()
    finally:
        await sharded.stop()
    print(f"serve: stopped {sharded.shards} shard worker(s)", flush=True)


def main(args) -> int:
    """Entry point behind ``repro serve --shards N`` (N >= 1)."""
    sharded = ShardedClusterService(
        args.shards,
        data_dir=args.data_dir,
        metrics_dir=args.metrics_dir,
        trace_dir=args.trace_dir,
        restart_budget=args.restart_budget,
        restart_backoff_s=args.restart_backoff,
        restart_reset_s=args.restart_reset,
    )
    try:
        asyncio.run(
            run_router(sharded, args.host, args.port, resume=args.resume)
        )
    except KeyboardInterrupt:  # pragma: no cover - signal handler races
        pass
    except (RuntimeError, OSError) as exc:
        print(f"serve error: {exc}", file=sys.stderr)
        return 1
    return 0
