"""``offline-dtg-20k``: DISC.advance in-process on the DTG stream.

A 20 000-point window on the ``vectorgrid`` backend advances by 1 000-point
(5 %) strides — the paper's per-stride measurement at the 20k scale. After
each advance the window's clustering is read with ``DISC.snapshot()``, as
``api.cluster_stream`` does for its caller every stride. No serve, runtime
or durability layer runs.

The gated rates are read in kernel units (see ``calibrate.py``): around
every stride and every set-up the calibration kernel is timed twice before
and twice after, and a stride's cost is its wall time over the mean of those
four. A rate is taken at the median stride's cost. Replaying strides of
constant cost for four and a half minutes, the 20-second medians of their
raw time spread 0.45 (213-375 ms, interquartile range over median), those
in kernel units 0.06. A few strides per stream carry a split check that
expands a large cluster and cost 2-5x a typical one; how many fall in a run
depends on the seed, hence the median. ``stride_p80_ms`` reports them. The
raw stride and snapshot times are printed beside the gated metrics, with
the measured ``host_slowdown`` (mean kernel time over
``calibrate.UNIT_S``).
"""

from __future__ import annotations

import ctypes
import gc
import math
import resource
import time

from perfbench import calibrate, layers
from perfbench.common import INDEX, SETUP_REPEATS, beyond, median, percentile, pin, ratio, summary

EPS, TAU = 0.05, 10  # the DTG row of the dataset registry
SIZES = {"full": (20_000, 1_000), "tiny": (2_000, 100)}
#: Strides generated per measured second: about twice what the seed code
#: completes on an uncontended core, so a run ends on the clock rather than
#: on the stream.
STRIDES_PER_SECOND = 8
#: Stride tail percentile: the 50-60 strides a 25-second run makes on a core
#: slowed 1.8x still leave ten samples beyond p80.
TAIL = 80


def _unit() -> float:
    """Two kernel runs' wall seconds: one half of a before/after pair."""
    return calibrate.wall_s() + calibrate.wall_s()


def _setup(seed: int, window: int, tracer=None):
    """Stream build for the window, DISC construction and window prefill."""
    from repro import DISC
    from repro.datasets.dtg import dtg_stream

    t0 = time.perf_counter()
    prefix = dtg_stream(window, seed=seed)
    disc = DISC(EPS, TAU, index=INDEX, tracer=tracer)
    disc.advance(prefix, ())
    return disc, time.perf_counter() - t0


def _reset_peak_rss() -> None:
    """Drop the set-ups' garbage, then restart the kernel's count of this
    process's peak resident set.

    The lifetime peak is the transient of the set-ups' 20k-point bulk
    prefill, which doubles the window's resident size and varies with the
    seed's city: over seeds 101-110 its spread was 0.09. Freed set-up heap
    that glibc kept resident, or not, moved the level by 20 MB from run to
    run; ``malloc_trim`` hands it back first. ``peak_rss_mb`` is then the
    peak of the measured phase: the window, its stream and every stride's
    working memory.
    """
    gc.collect()
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (OSError, AttributeError):
        pass  # not glibc: nothing to hand back
    with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
        handle.write("5")


def _measure(disc, stream, window: int, stride: int, seconds: float):
    """Advance stride by stride until the clock runs out; per stride, the
    advance, snapshot and CPU times and the mean kernel time around it."""
    write_ms, read_ms, cpu_ms, kernel_ms = [], [], [], []
    pos = window
    deadline = time.perf_counter() + seconds
    while pos + stride <= len(stream) and time.perf_counter() < deadline:
        delta_in = stream[pos : pos + stride]
        delta_out = stream[pos - window : pos - window + stride]
        before = _unit()
        c0 = time.process_time()
        t0 = time.perf_counter()
        disc.advance(delta_in, delta_out)
        t1 = time.perf_counter()
        disc.snapshot()
        t2 = time.perf_counter()
        c1 = time.process_time()
        kernel_ms.append((before + _unit()) / 4 * 1e3)
        write_ms.append((t1 - t0) * 1e3)
        read_ms.append((t2 - t1) * 1e3)
        cpu_ms.append((c1 - c0) * 1e3)
        pos += stride
    return write_ms, read_ms, cpu_ms, kernel_ms, pos


def gate(disc, stream, pos: int, window: int) -> tuple[bool, str]:
    """The final window must be partition-equivalent to fresh DBSCAN."""
    from repro.baselines.dbscan import SlidingDBSCAN
    from repro.common.config import ClusteringParams
    from repro.metrics.compare import EquivalenceError, assert_equivalent

    final = stream[pos - window : pos]
    reference = SlidingDBSCAN(EPS, TAU, index=INDEX)
    reference.advance(final, ())
    coords = {p.pid: tuple(p.coords) for p in final}
    try:
        assert_equivalent(
            disc.snapshot(), reference.snapshot(), coords, ClusteringParams(EPS, TAU)
        )
    except EquivalenceError as exc:
        return False, str(exc)
    return True, ""


def _phase(report, seed, seconds, size, *, traced: bool, setups: int):
    """One measured phase (set-ups, strides, gate); returns its raw data."""
    from repro.datasets.dtg import dtg_stream

    window, stride = SIZES[size]
    setup_units = []
    for _ in range(setups):
        disc = None  # free the previous set-up before building the next
        before = _unit()
        disc, took = _setup(seed, window)
        setup_units.append(took / ((before + _unit()) / 4))
    n_strides = math.ceil(seconds * STRIDES_PER_SECOND) + 1
    stream = dtg_stream(window + n_strides * stride, seed=seed)
    tracing = None
    if traced:
        from perfbench.spans import SpanRecorder

        tracing = layers.CoreTracing(SpanRecorder())
    _reset_peak_rss()
    write_ms, read_ms, cpu_ms, kernel_ms, pos = _measure(disc, stream, window, stride, seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ok, detail = gate(disc, stream, pos, window)
    report.gate("final window equals DBSCAN" + (" (traced)" if traced else ""), ok, detail)
    report.count(2 * len(write_ms), 0)
    return {
        "setup_units": setup_units,
        "write_ms": write_ms,
        "read_ms": read_ms,
        "cpu_ms": cpu_ms,
        "kernel_ms": kernel_ms,
        "stride": stride,
        "rss_mb": rss_mb,
        "tracing": tracing,
        "disc": disc,
    }


def _units(data, *columns) -> list[float]:
    """Per stride, the summed time columns over the kernel time around it."""
    return [
        sum(data[c][i] for c in columns) / data["kernel_ms"][i]
        for i in range(len(data["kernel_ms"]))
    ]


def run(report, seed: int, seconds: float, trace: bool, size: str) -> None:
    pin(0, "bench")
    if not trace:
        data = _phase(report, seed, seconds, size, traced=False, setups=SETUP_REPEATS)
        write, read = data["write_ms"], data["read_ms"]
        stride_s = median(_units(data, "write_ms", "read_ms")) * calibrate.UNIT_S
        pps = ratio(data["stride"], stride_s)
        cpu_us = 1e6 * ratio(median(_units(data, "cpu_ms")) * calibrate.UNIT_S, data["stride"])
        setup = median(data["setup_units"]) * calibrate.UNIT_S
        slowdown = ratio(sum(data["kernel_ms"]) / len(data["kernel_ms"]), calibrate.UNIT_S * 1e3)
        report.metric("setup_s", setup, "s")
        report.metric("peak_rss_mb", data["rss_mb"], "MB")
        report.metric("error_ratio", 0.0, "ratio")
        report.metric("points_per_s", pps, "1/s")
        for name, samples in (("stride", write), ("snapshot", read)):
            report.metric(f"{name}_p50_ms", percentile(samples, 50), "ms")
            report.metric(f"{name}_p{TAIL}_ms", percentile(samples, TAIL), "ms")
            report.notes[f"{name}_ms"] = {**summary(samples), "beyond_tail": beyond(samples, TAIL)}
        report.metric("cpu_us_per_point", cpu_us, "us")
        report.metric("host_slowdown", slowdown, "ratio")
        report.notes.update(
            kernel_ms=summary(data["kernel_ms"]),
            raw_points_per_s=ratio(data["stride"], median([w + r for w, r in zip(write, read)]) / 1e3),
            setup_units=data["setup_units"],
        )
        report.contract("setup_s", setup, "s")
        report.contract("peak_rss_mb", data["rss_mb"], "MB")
        report.contract("points_per_s", pps, "1/s")
        report.contract("cpu_us_per_point", cpu_us, "us")
        return

    plain = _phase(report, seed, seconds, size, traced=False, setups=1)
    del plain["disc"]
    traced = _phase(report, seed, seconds, size, traced=True, setups=1)
    tracing = traced["tracing"]
    from perfbench.spans import SpanTable

    table = SpanTable.from_recorder(tracing.recorder)
    metrics = layers.core_metrics(table, tracing.counters())
    cost_plain = median(_units(plain, "write_ms"))
    cost_traced = median(_units(traced, "write_ms"))
    metrics["trace.overhead_pct"] = 100.0 * (ratio(cost_traced, cost_plain) - 1.0)
    report.notes.update(
        overhead_basis="median stride advance in kernel units, traced vs untraced phase",
        stride_units_untraced=cost_plain,
        stride_units_traced=cost_traced,
        strides_traced=len(traced["write_ms"]),
    )
    for name, m in layers.fill(metrics).items():
        report.metrics[name] = m
        report.metric(name, m["value"], m["unit"])
