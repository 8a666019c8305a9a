"""Helpers shared by the workloads: percentiles, fingerprint, reporting."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

#: Root of the checkout the benchmark runs in (the parent of perfbench/).
ROOT = Path(__file__).resolve().parent.parent
#: Scratch space for server data dirs and span files; removed after a run.
WORK = ROOT / "perfbench" / ".work"
#: The one index backend every workload runs on.
INDEX = "vectorgrid"
#: Full set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3


#: CPUs this run may use, read before anything is pinned.
CPUS = sorted(os.sched_getaffinity(0))


def pin(pid: int, role: str) -> None:
    """Keep the load generator and the server off each other's CPU.

    With two or more CPUs the benchmark process (``role="bench"``) takes the
    first one and the server the last; with one CPU nothing is pinned.
    """
    if len(CPUS) >= 2:
        os.sched_setaffinity(pid, {CPUS[0] if role == "bench" else CPUS[-1]})


def percentile(values, q: float) -> float:
    """Linearly interpolated percentile (numpy's default), q in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    h = (len(ordered) - 1) * q / 100.0
    lo = math.floor(h)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (h - lo)


def beyond(values, q: float) -> int:
    """Samples strictly above the q-th percentile (the tail's support)."""
    cut = percentile(values, q)
    return sum(1 for v in values if v > cut)


def summary(values) -> dict:
    """Sample count, mean and the usual percentiles of one latency family."""
    out = {"n": len(values), "mean": sum(values) / len(values) if values else 0.0}
    for q in (50, 75, 90, 95, 99):
        out[f"p{q}"] = percentile(values, q)
    out["max"] = max(values, default=0.0)
    return out


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def _source_digest() -> str:
    """SHA-1 over every file under src/ — identifies the code measured even
    where the checkout carries no git metadata."""
    digest = hashlib.sha1()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_sha() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def fingerprint() -> dict:
    """Machine and code identity stamped on every result."""
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git_sha(),
        "source_sha1": _source_digest(),
        "index": INDEX,
        "loadavg_1m": os.getloadavg()[0],
        "platform": platform.platform(),
    }


class Report:
    """What one run prints: named metrics with units, gates, fingerprint.

    ``metric`` records a metric under the workload's own name, printed one
    per line; ``contract`` records the metrics every workload shares (the
    end-to-end or per-layer names in BENCHMARK.json), printed last.
    """

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.header = {
            "workload": workload,
            "seed": seed,
            "seconds": seconds,
            "trace": trace,
            "fingerprint": fingerprint(),
        }
        self.named: dict[str, dict] = {}
        self.metrics: dict[str, dict] = {}
        self.gates: dict[str, bool] = {}
        self.notes: dict[str, object] = {}
        self.attempted = 0
        self.failed = 0

    def metric(self, name: str, value: float, unit: str) -> None:
        self.named[name] = {"value": value, "unit": unit}

    def contract(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": value, "unit": unit}

    def gate(self, name: str, ok: bool, detail: str = "") -> None:
        self.gates[name] = bool(ok)
        if not ok:
            print(f"GATE FAILED: {name}: {detail}", file=sys.stderr)

    def count(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed

    @property
    def correct(self) -> bool:
        return bool(self.gates) and all(self.gates.values())

    def emit(self) -> int:
        """Print the report, then the result object as the last line."""
        print(json.dumps({**self.header, "gates": self.gates, "notes": self.notes}))
        for name, m in self.named.items():
            print(f"{name:<34} {m['value']:>14.4f} {m['unit']}")
        print(
            json.dumps(
                {
                    "correct": self.correct,
                    "attempted": self.attempted,
                    "failed": self.failed,
                    "metrics": self.metrics,
                }
            ),
            flush=True,
        )
        return 0 if self.correct else 1
