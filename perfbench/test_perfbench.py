"""Tiny-size self-test of the benchmark.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/test_perfbench.py

Each workload runs at ``--size tiny`` for two seconds, untraced and traced.
The test checks the result object against BENCHMARK.json (every metric,
with its unit), that the workload's own named metrics are printed with
their units, that every correctness gate ran and passed, and that the
benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

#: The workload's own metric names, as printed above the result line.
NAMED = {
    "offline-dtg-20k": {
        "setup_s": "s",
        "peak_rss_mb": "MB",
        "error_ratio": "ratio",
        "points_per_s": "1/s",
        "stride_p50_ms": "ms",
        "stride_p80_ms": "ms",
        "snapshot_p50_ms": "ms",
        "snapshot_p80_ms": "ms",
        "cpu_us_per_point": "us",
        "host_slowdown": "ratio",
    },
    "serve-read-mix": {
        "setup_s": "s",
        "peak_rss_mb": "MB",
        "error_ratio": "ratio",
        "points_per_s": "1/s",
        "query_p50_ms": "ms",
        "query_p99_ms": "ms",
        "ingest_ack_p50_ms": "ms",
        "ingest_ack_p98_ms": "ms",
        "cpu_us_per_point": "us",
        "host_slowdown": "ratio",
    },
    "serve-durable-push": {
        "setup_s": "s",
        "peak_rss_mb": "MB",
        "error_ratio": "ratio",
        "points_per_s": "1/s",
        "ingest_ack_p50_ms": "ms",
        "ingest_ack_p95_ms": "ms",
        "push_lag_p50_ms": "ms",
        "push_lag_p95_ms": "ms",
        "as_of_p50_ms": "ms",
        "as_of_p90_ms": "ms",
        "cpu_us_per_point": "us",
        "host_slowdown": "ratio",
    },
}


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "2",
            "--trace",
            str(trace),
            "--size",
            "tiny",
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def _parse(proc: subprocess.CompletedProcess):
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    header, result = json.loads(lines[0]), json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert header["gates"] and all(header["gates"].values())
    fingerprint = header["fingerprint"]
    for key in ("nproc", "python", "numpy", "git_sha", "index", "loadavg_1m"):
        assert key in fingerprint
    named = {}
    for line in lines[1:-1]:
        name, _value, unit = line.split()
        named[name] = unit
    return result, named


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result, named = _parse(_run(workload, 0))
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert named == NAMED[workload]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_per_layer_metrics(workload):
    result, named = _parse(_run(workload, 1))
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    assert set(named) == set(expected)
    # Every workload runs the core layer, so its times are never zero.
    assert result["metrics"]["core.collect.ms_per_stride"]["value"] > 0
    assert result["metrics"]["index.ms_per_stride"]["value"] > 0
    if workload.startswith("serve-"):
        assert result["metrics"]["serve.protocol.decode_us"]["value"] > 0
        assert result["metrics"]["runtime.stride_ms_p50"]["value"] > 0
    if workload == "serve-durable-push":
        assert result["metrics"]["runtime.wal.commit_ms_p50"]["value"] > 0
        assert result["metrics"]["query.journal.publish_ms_p50"]["value"] > 0
        assert result["metrics"]["query.archive.as_of_ms_p50"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns(".work", "__pycache__"),
    )
    proc = _run("offline-dtg-20k", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_offline_gate_rejects_a_stale_window():
    from perfbench import offline
    from repro import DISC
    from repro.datasets.dtg import dtg_stream

    window, stride = 600, 60
    stream = dtg_stream(window + 3 * stride, seed=4)
    disc = DISC(offline.EPS, offline.TAU, index="vectorgrid")
    disc.advance(stream[:window], ())
    ok, _ = offline.gate(disc, stream, window, window)
    assert ok
    disc.advance(stream[window : window + stride], stream[:stride])
    ok, detail = offline.gate(disc, stream, window, window)
    assert not ok and detail


def test_a_failed_gate_fails_the_run(capsys):
    from perfbench.common import Report

    report = Report("offline-dtg-20k", 1, 1.0, False)
    report.gate("always passes", True)
    report.gate("always fails", False, "forced")
    report.count(1, 0)
    assert report.emit() != 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
