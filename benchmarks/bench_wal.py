"""Write-ahead-log ingest overhead, per fsync policy, vs WAL-off.

Boots the real serve stack once per durability mode (same host process,
fresh data directory each time) and drives identical loadgen workloads
through it: ``off`` (checkpoints only), then ``always`` / ``every_n`` /
``interval``. The deltas are the *price of the durability promise* — how
many points/second an ``INGEST`` ack costs when it must also mean
"fsynced", "fsynced within N records", or "fsynced within an interval".

Numbers land in ``benchmarks/results/BENCH_wal.json`` (archived by the CI
``serve-bench`` job). No threshold gates them — fsync latency on shared
runners is weather — but each mode asserts its accounting: every sent
point acknowledged, and (for WAL modes) every acknowledged point appended.
"""

import asyncio
import json
import os
import shutil
import tempfile

from repro.bench.reporting import RESULTS_DIR, write_result
from repro.datasets.registry import DATASETS
from repro.serve.config import SessionConfig
from repro.serve.loadgen import run_loadgen
from repro.serve.server import run_server
from repro.serve.service import ClusterService

N_TENANTS = 2
POINTS_PER_TENANT = 1500
DATASET = "maze"
BATCH = 25

#: mode name -> SessionConfig WAL overrides.
MODES = {
    "off": {"wal": False},
    "always": {"wal": True, "wal_fsync": "always"},
    "every_n": {"wal": True, "wal_fsync": "every_n", "wal_fsync_every": 64},
    "interval": {
        "wal": True,
        "wal_fsync": "interval",
        "wal_fsync_interval_s": 0.05,
    },
}


def wal_config(**overrides) -> SessionConfig:
    info = DATASETS[DATASET]
    return SessionConfig(
        eps=info.eps,
        tau=info.tau,
        window=info.window,
        stride=max(1, info.window // 10),
        backpressure="block",
        **overrides,
    )


async def _run_mode(data_dir: str, config: SessionConfig) -> dict:
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
        )
        assert report["accepted_total"] == N_TENANTS * POINTS_PER_TENANT
        assert report["rejected_total"] == 0
        if config.wal:
            for name in list(service.sessions):
                wal_stats = service.sessions[name].wal.stats
                assert wal_stats.appends == POINTS_PER_TENANT
    finally:
        stop.set()
        await asyncio.wait_for(server, timeout=30)
    return report


def run_wal_bench() -> tuple[dict, str]:
    workdir = tempfile.mkdtemp(prefix="bench-wal-")
    modes = {}
    try:
        for mode, overrides in MODES.items():
            report = asyncio.run(
                _run_mode(os.path.join(workdir, mode), wal_config(**overrides))
            )
            modes[mode] = {
                "ingest_points_per_s": report["ingest_points_per_s"],
                "wall_seconds": report["wall_seconds"],
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    baseline = modes["off"]["ingest_points_per_s"]
    for mode, row in modes.items():
        row["overhead_pct"] = (
            0.0
            if mode == "off" or baseline <= 0
            else max(0.0, (1 - row["ingest_points_per_s"] / baseline) * 100)
        )
    payload = {
        "workload": f"{DATASET} x {N_TENANTS} tenants, "
        f"{POINTS_PER_TENANT} points each, batch {BATCH}, block policy",
        "baseline_points_per_s": baseline,
        "modes": modes,
    }
    path = os.path.join(os.path.abspath(RESULTS_DIR), "BENCH_wal.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    return payload, path


def test_wal_overhead(benchmark):
    payload, path = benchmark.pedantic(run_wal_bench, rounds=1, iterations=1)
    lines = [f"WAL ingest overhead ({payload['workload']}):"]
    for mode, row in payload["modes"].items():
        lines.append(
            f"  {mode:>8}: {row['ingest_points_per_s']:.0f} points/s "
            f"({row['overhead_pct']:.1f}% overhead)"
        )
    lines.append(f"[json written to {path}]")
    write_result("wal_overhead", "\n".join(lines))


if __name__ == "__main__":
    payload, path = run_wal_bench()
    print(json.dumps(payload, indent=2))
    print(f"written to {path}")
