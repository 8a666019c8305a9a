"""Query-subsystem cost curves: journal overhead, AS-OF latency, fan-out.

Three measurements, one artifact (``benchmarks/results/BENCH_query.json``,
archived by the CI ``serve-bench`` job):

1. **Journal ingest overhead per fsync policy.** The real serve stack under
   identical loadgen workloads with the CDC journal off, then ``always`` /
   ``every_n`` / ``interval`` — the price of the "observed means durable"
   push guarantee, in points/second.
2. **AS-OF latency vs snapshot cadence.** One journaled pipeline history,
   materialised through archives built at several ``archive_every`` values
   (including 0 = pure delta replay) — the latency/space dial operators
   size with the runbook.
3. **Push fan-out vs subscriber count.** The same workload with N live
   subscribers per tenant; every subscriber must receive every stride's
   record, so the delta is the per-subscriber cost of the push path.

No thresholds gate the numbers (shared-runner weather); each mode asserts
its accounting instead — acks, journal appends, and per-subscriber record
counts must be exact.
"""

import asyncio
import json
import os
import shutil
import statistics
import tempfile
import time

from repro.api import cluster_stream
from repro.bench.reporting import RESULTS_DIR, write_result
from repro.common.config import WindowSpec
from repro.datasets.registry import DATASETS
from repro.query.archive import SnapshotArchive
from repro.query.journal import EvolutionJournal, stride_record
from repro.serve.config import SessionConfig
from repro.serve.loadgen import run_loadgen, tenant_stream
from repro.serve.server import run_server
from repro.serve.service import ClusterService

N_TENANTS = 2
POINTS_PER_TENANT = 1500
DATASET = "maze"
BATCH = 25

#: mode name -> SessionConfig journal overrides (overhead measurement).
FSYNC_MODES = {
    "off": {"journal": False},
    "always": {"journal": True, "journal_fsync": "always"},
    "every_n": {"journal": True, "journal_fsync": "every_n"},
    "interval": {"journal": True, "journal_fsync": "interval"},
}

#: archive_every cadences for the AS-OF latency curve (0 = replay-only).
CADENCES = (0, 1, 4, 16)

#: live subscribers per tenant for the fan-out curve.
FANOUTS = (0, 1, 4, 8)


def query_config(**overrides) -> SessionConfig:
    info = DATASETS[DATASET]
    return SessionConfig(
        eps=info.eps,
        tau=info.tau,
        window=info.window,
        stride=max(1, info.window // 10),
        backpressure="block",
        **overrides,
    )


def journaled_strides(config: SessionConfig) -> int:
    """Records per tenant for the workload: full strides + the flushed tail."""
    full, leftover = divmod(POINTS_PER_TENANT, config.stride)
    return full + (1 if leftover else 0)


async def _run_workload(data_dir: str, config: SessionConfig, **kwargs) -> dict:
    service = ClusterService(data_dir=data_dir)
    ready, stop = asyncio.Event(), asyncio.Event()
    server = asyncio.create_task(
        run_server(service, "127.0.0.1", 0, ready=ready, stop=stop)
    )
    await asyncio.wait_for(ready.wait(), timeout=10)
    try:
        report = await run_loadgen(
            "127.0.0.1",
            service.port,
            tenants=N_TENANTS,
            points_per_tenant=POINTS_PER_TENANT,
            dataset=DATASET,
            config=config,
            batch=BATCH,
            query_every=0,
            flush_tail=True,
            **kwargs,
        )
        assert report["accepted_total"] == N_TENANTS * POINTS_PER_TENANT
        assert report["rejected_total"] == 0
        strides = journaled_strides(config)
        if config.journal:
            for name in list(service.sessions):
                session = service.sessions[name]
                assert session.evjournal.stats.appends == strides
    finally:
        stop.set()
        await asyncio.wait_for(server, timeout=30)
    return report


def bench_fsync_overhead(workdir: str) -> dict:
    modes = {}
    for mode, overrides in FSYNC_MODES.items():
        report = asyncio.run(
            _run_workload(
                os.path.join(workdir, f"fsync-{mode}"),
                query_config(**overrides),
            )
        )
        modes[mode] = {
            "ingest_points_per_s": report["ingest_points_per_s"],
            "wall_seconds": report["wall_seconds"],
        }
    baseline = modes["off"]["ingest_points_per_s"]
    for mode, row in modes.items():
        row["overhead_pct"] = (
            0.0
            if mode == "off" or baseline <= 0
            else max(0.0, (1 - row["ingest_points_per_s"] / baseline) * 100)
        )
    return {"baseline_points_per_s": baseline, "modes": modes}


def bench_as_of_latency(workdir: str) -> dict:
    """One pipeline history, archived at every cadence, timed end to end.

    Uses a finer stride than the serving workload so the history is long
    enough (dozens of strides) for the cadence to actually move the replay
    length — the quantity the dial trades against snapshot storage.
    """
    info = DATASETS[DATASET]
    spec = WindowSpec(window=400, stride=30)
    points = tenant_stream(DATASET, POINTS_PER_TENANT, 0, 0)

    journal = EvolutionJournal(os.path.join(workdir, "asof-journal"))
    last = {"time": None}

    def tracked():
        for p in points:
            last["time"] = p.time
            yield p

    prev, history = None, []
    for s, (clustering, summary) in enumerate(
        cluster_stream(tracked(), spec, eps=info.eps, tau=info.tau)
    ):
        journal.publish(stride_record(s, prev, clustering, summary, time=last["time"]))
        prev = clustering
        history.append(clustering)
    journal.commit()

    strides = len(history)
    # Every answerable stride, round-robin, ~200 timed queries per cadence.
    targets = [s % (strides - 1) for s in range(min(200, (strides - 1) * 8))]
    curve = {}
    for every in CADENCES:
        archive = SnapshotArchive(
            os.path.join(workdir, f"asof-archive-{every}"),
            every=every,
            journal=journal,
        )
        if every:
            for s, clustering in enumerate(history):
                archive.maybe_snapshot(s, clustering)
        samples = []
        for s in targets:
            start = time.perf_counter()
            payload = archive.as_of(stride=s)
            samples.append((time.perf_counter() - start) * 1000)
            assert payload["stride"] == s
        samples.sort()
        curve[str(every)] = {
            "snapshots": len(archive.strides()),
            "p50_ms": round(statistics.median(samples), 4),
            "p95_ms": round(samples[int(len(samples) * 0.95) - 1], 4),
        }
    return {"strides": strides, "queries_per_cadence": len(targets), "curve": curve}


def bench_fanout(workdir: str) -> dict:
    config = query_config(journal=True, journal_fsync="always")
    strides = journaled_strides(config)
    curve = {}
    for n in FANOUTS:
        report = asyncio.run(
            _run_workload(
                os.path.join(workdir, f"fanout-{n}"), config, subscribers=n
            )
        )
        # Exact fan-out accounting: every subscriber saw every record.
        assert report["subscribers_per_tenant"] == n
        assert report["subscriber_events_total"] == n * N_TENANTS * strides
        curve[str(n)] = {
            "ingest_points_per_s": report["ingest_points_per_s"],
            "subscriber_events_total": report["subscriber_events_total"],
        }
    baseline = curve["0"]["ingest_points_per_s"]
    for n, row in curve.items():
        row["overhead_pct"] = (
            0.0
            if n == "0" or baseline <= 0
            else max(0.0, (1 - row["ingest_points_per_s"] / baseline) * 100)
        )
    return {"records_per_tenant": strides, "curve": curve}


def run_query_bench() -> tuple[dict, str]:
    workdir = tempfile.mkdtemp(prefix="bench-query-")
    try:
        payload = {
            "workload": f"{DATASET} x {N_TENANTS} tenants, "
            f"{POINTS_PER_TENANT} points each, batch {BATCH}, block policy",
            "journal_fsync_overhead": bench_fsync_overhead(workdir),
            "as_of_latency": bench_as_of_latency(workdir),
            "subscriber_fanout": bench_fanout(workdir),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    path = os.path.join(os.path.abspath(RESULTS_DIR), "BENCH_query.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    return payload, path


def test_query_costs(benchmark):
    payload, path = benchmark.pedantic(run_query_bench, rounds=1, iterations=1)
    lines = [f"Query subsystem costs ({payload['workload']}):"]
    for mode, row in payload["journal_fsync_overhead"]["modes"].items():
        lines.append(
            f"  journal {mode:>8}: {row['ingest_points_per_s']:.0f} points/s "
            f"({row['overhead_pct']:.1f}% overhead)"
        )
    for every, row in payload["as_of_latency"]["curve"].items():
        lines.append(
            f"  as_of every={every:>2}: p50 {row['p50_ms']:.3f} ms "
            f"(p95 {row['p95_ms']:.3f} ms, {row['snapshots']} snapshots)"
        )
    for n, row in payload["subscriber_fanout"]["curve"].items():
        lines.append(
            f"  fanout N={n}: {row['ingest_points_per_s']:.0f} points/s "
            f"({row['overhead_pct']:.1f}% overhead)"
        )
    lines.append(f"[json written to {path}]")
    write_result("query_costs", "\n".join(lines))


if __name__ == "__main__":
    payload, path = run_query_bench()
    print(json.dumps(payload, indent=2))
    print(f"written to {path}")
