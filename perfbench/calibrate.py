"""The calibration kernel: how fast a core runs right now.

The host the benchmark runs on is shared. Its neighbours slowed a fixed
CPU loop by up to 2x for minutes at a time, in wall time and in CPU time
alike, so a raw time measures the neighbours as much as the program. The
kernel below calls nothing in the program: pure-Python dict and list work
plus numpy sorts, the mix a DISC stride spends its time in. Timed next to
the program's work on the same core, it gives that core's speed, and the
gated times are read in *kernel units*: the program's time divided by the
kernel's, times ``UNIT_S``. A program change moves the program's time and
not the kernel's, so it shows in full.

Run as a module (``python3 -m perfbench.calibrate``), this is a sampler for
another process's core: once pinned, it prints ``ready``, times the kernel's
CPU time every ``PERIOD_S`` seconds until its standard input closes, and
prints one JSON list of ``[monotonic time, kernel CPU seconds]`` pairs.
"""

from __future__ import annotations

import asyncio
import gc
import json
import select
import sys
import time
from pathlib import Path

import numpy as np

#: Seconds one kernel unit stands for: the kernel's uncontended time on the
#: benchmark host (0.92-0.99 ms on a 2-vCPU Xeon VM), rounded.
UNIT_S = 1e-3
#: Sampler period; the kernel takes about 1 % of the sampled core.
PERIOD_S = 0.1

ROOT = Path(__file__).resolve().parent.parent
_KEYS = 511
_ARRAY = np.random.default_rng(0).random(4096)


def kernel() -> None:
    """About 1 ms of interpreter, dict, list and numpy work.

    The cyclic garbage collector is paused for it: a collection walks every
    object of the process the kernel runs in, so with a 20k-point DISC
    resident it inflated the kernel's mean time by a quarter and would have
    measured that heap rather than the core.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        counts: dict[int, int] = {}
        pairs = []
        for i in range(6000):
            key = i & _KEYS
            counts[key] = counts.get(key, 0) + 1
            pairs.append((key, i))
        for _ in range(10):
            np.sort(_ARRAY)
    finally:
        if enabled:
            gc.enable()


def wall_s() -> float:
    """Wall seconds of one kernel run."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class Sampler:
    """The sampler as a child process pinned to another core (asyncio)."""

    def __init__(self) -> None:
        self.proc = None
        self.samples: list[tuple[float, float]] = []

    async def start(self, pin_to) -> None:
        """Start the sampler; ``pin_to(pid)`` pins it before it samples."""
        self.proc = await asyncio.create_subprocess_exec(
            sys.executable,
            "-m",
            "perfbench.calibrate",
            cwd=str(ROOT),
            stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE,
        )
        try:
            pin_to(self.proc.pid)
            self.proc.stdin.write(b"go\n")
            await self.proc.stdin.drain()
            line = await asyncio.wait_for(self.proc.stdout.readline(), 30.0)
            if line.strip() != b"ready":
                raise RuntimeError(f"calibration sampler did not start: {line!r}")
        except BaseException:
            await self.stop()
            raise

    async def stop(self) -> None:
        """Close its input, collect the samples, wait until it has ended."""
        proc, self.proc = self.proc, None
        if proc is None:
            return
        try:
            proc.stdin.close()
            out = await asyncio.wait_for(proc.stdout.read(), 30.0)
            await asyncio.wait_for(proc.wait(), 30.0)
        except BaseException:
            if proc.returncode is None:
                proc.kill()
            await proc.wait()
            raise
        self.samples = [tuple(s) for s in json.loads(out)]

    def unit_s(self, start: float, end: float) -> float:
        """Mean kernel seconds sampled in [start, end] (all samples if the
        interval holds none)."""
        inside = [s for t, s in self.samples if start <= t <= end]
        chosen = inside or [s for _, s in self.samples]
        return sum(chosen) / len(chosen)


def main() -> int:
    sys.stdin.readline()  # the parent has pinned this process
    print("ready", flush=True)
    samples = []
    while not select.select([sys.stdin], [], [], PERIOD_S)[0]:
        c0 = time.process_time()
        kernel()
        samples.append((time.perf_counter(), time.process_time() - c0))
    json.dump(samples, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
