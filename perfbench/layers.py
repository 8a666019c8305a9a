"""Which program functions the traced run wraps, and the per-layer metrics
derived from their spans.

The wrappers are installed from the benchmark's own files: in the benchmark
process for the offline workload, and by ``launcher.py`` inside the server
process for the serve workloads. No program file is edited. Every layer time
is a *self* time: a span's duration minus the spans nested in it, so the
index's time is not counted again inside COLLECT or MS-BFS.
"""

from __future__ import annotations

import importlib
import json

from perfbench.common import ROOT, percentile, ratio
from perfbench.spans import SpanTable

#: (module, attribute, span name) of the functions ``DISC.advance`` calls.
CORE_FUNCTIONS = (
    ("repro.core.disc", "collect", "core.collect"),
    ("repro.core.disc", "process_ex_cores", "core.split"),
    ("repro.core.cluster", "check_connectivity", "core.msbfs"),
    ("repro.core.disc", "process_neo_cores", "core.merge"),
    ("repro.core.disc", "repair_anchors", "core.repair"),
)

#: Public query and update methods of a spatial index instance.
INDEX_METHODS = (
    "insert",
    "delete",
    "insert_many",
    "delete_many",
    "ball",
    "ball_many",
    "count_ball",
    "count_ball_many",
    "ball_pids",
    "ball_many_pids",
    "ball_unvisited",
    "ball_unvisited_pids",
    "mark",
    "new_tick",
    "nearest",
    "coords_of",
    "items",
)

#: Per-layer metric names and units, in report order, from BENCHMARK.json.
PER_LAYER = tuple(
    (m["name"], m["unit"])
    for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
)


def _patch(module_name: str, attr: str, wrapper_factory) -> None:
    module = importlib.import_module(module_name)
    setattr(module, attr, wrapper_factory(getattr(module, attr)))


class CoreTracing:
    """Wraps the core layer and every DISC instance's index.

    ``DISC.advance`` becomes the root span of a stride. On the first advance
    of an instance its index methods are wrapped and, if it has none, a
    :class:`~repro.observability.trace.Tracer` is attached through DISC's
    public ``tracer`` attribute, so the algorithm counters and the
    ``IndexStats`` delta of every stride are aggregated.
    """

    def __init__(self, recorder) -> None:
        from repro.core.disc import DISC
        from repro.observability.trace import Tracer

        self.recorder = recorder
        self.discs: dict[int, object] = {}
        for module, attr, span in CORE_FUNCTIONS:
            _patch(module, attr, lambda fn, span=span: recorder.wrap(span, fn))
        original = DISC.advance

        def advance(disc, *args, **kwargs):
            if id(disc) not in self.discs:
                self.discs[id(disc)] = disc
                if disc.tracer is None:
                    disc.tracer = Tracer()
                self._wrap_index(disc.index)
            return original(disc, *args, **kwargs)

        DISC.advance = recorder.wrap("core.advance", advance)

    def _wrap_index(self, index) -> None:
        for method in INDEX_METHODS:
            fn = getattr(index, method, None)
            if callable(fn):
                setattr(index, method, self.recorder.wrap(f"index.{method}", fn))

    def counters(self) -> dict:
        """Summed algorithm and index counters plus resident store bytes."""
        totals: dict[str, float] = {"store_bytes": 0}
        for disc in self.discs.values():
            agg = disc.tracer.aggregate
            for key, value in agg.counters.items():
                totals[key] = totals.get(key, 0) + value
            for key, value in agg.index.as_dict().items():
                totals[f"index_{key}"] = totals.get(f"index_{key}", 0) + value
            arena = disc.state.columnar()
            if arena is not None:
                totals["store_bytes"] += arena.nbytes()
        return totals


def install_serve(recorder) -> None:
    """Wrap the serve, runtime and query layers (inside the server)."""
    from repro.query.archive import SnapshotArchive
    from repro.query.journal import EvolutionJournal
    from repro.runtime.store import CheckpointStore
    from repro.runtime.supervisor import Supervisor
    from repro.runtime.wal import SegmentedLog, WriteAheadLog
    from repro.serve.session import TenantSession

    def frame_id(frame):
        return frame.get("id") if isinstance(frame, dict) else None

    def op_of(frame):
        op = frame.get("op")
        return f"{op}/as_of" if op == "QUERY" and "as_of" in frame else op

    _patch(
        "repro.serve.protocol",
        "decode_frame",
        lambda fn: recorder.wrap(
            "serve.protocol.decode", fn, rid=lambda a, r: frame_id(r)
        ),
    )
    _patch(
        "repro.serve.protocol",
        "encode_frame",
        lambda fn: recorder.wrap(
            "serve.protocol.encode", fn, rid=lambda a, r: frame_id(a[0])
        ),
    )
    _patch(
        "repro.serve.server",
        "dispatch",
        lambda fn: recorder.wrap_async(
            "serve.dispatch",
            fn,
            rid=lambda a, r: frame_id(a[1]),
            tag=lambda a, r: op_of(a[1]),
        ),
    )
    wrap = recorder.wrap
    TenantSession.offer = recorder.wrap_async("serve.session.offer", TenantSession.offer)
    TenantSession._fanout = recorder.wrap_async(
        "serve.session.fanout", TenantSession._fanout
    )
    Supervisor.feed = wrap(
        "runtime.feed", Supervisor.feed, tag=lambda a, r: bool(r)
    )
    WriteAheadLog.append = wrap("runtime.wal.append", WriteAheadLog.append)
    WriteAheadLog.commit = wrap("runtime.wal.commit", SegmentedLog.commit)
    EvolutionJournal.publish = wrap("query.journal.publish", EvolutionJournal.publish)
    EvolutionJournal.commit = wrap("query.journal.commit", SegmentedLog.commit)
    SnapshotArchive.snapshot = wrap("query.archive.snapshot", SnapshotArchive.snapshot)
    SnapshotArchive.as_of = wrap("query.archive.as_of", SnapshotArchive.as_of)
    CheckpointStore.save = wrap("runtime.checkpoint.save", CheckpointStore.save)


def _durations_ms(table: SpanTable, name: str, *, tag=None) -> list[float]:
    return [
        table.dur[i] / 1e6
        for i in table.indices(name)
        if tag is None or table.tag[i] == tag
    ]


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def core_metrics(table: SpanTable, counters: dict) -> dict:
    """Per-stride core and index metrics from spans plus counters."""
    strides = len(table.indices("core.advance"))
    c = counters
    checks = c.get("connectivity_checks", 0)
    searches = c.get("index_range_searches", 0)
    scanned = c.get("index_entries_scanned", 0)
    return {
        "core.collect.ms_per_stride": ratio(table.self_ms("core.collect"), strides),
        "core.split.ms_per_stride": ratio(table.self_ms("core.split"), strides),
        "core.msbfs.ms_per_stride": ratio(table.self_ms("core.msbfs"), strides),
        "core.merge.ms_per_stride": ratio(table.self_ms("core.merge"), strides),
        "core.repair.ms_per_stride": ratio(table.self_ms("core.repair"), strides),
        "core.other.ms_per_stride": ratio(table.self_ms("core.advance"), strides),
        "index.ms_per_stride": ratio(table.self_ms("index.*"), strides),
        "core.msbfs.checks_per_stride": ratio(checks, strides),
        "core.msbfs.expansions_per_check": ratio(c.get("msbfs_expansions", 0), checks),
        "core.msbfs.early_exit_ratio": ratio(c.get("msbfs_early_exits", 0), checks),
        "core.split.theorem1_skip_ratio": ratio(
            c.get("theorem1_skips", 0), c.get("ex_cores", 0)
        ),
        "index.range_searches_per_stride": ratio(searches, strides),
        "index.entries_scanned_per_search": ratio(scanned, searches),
        "index.epoch_prune_ratio": ratio(c.get("index_epoch_prunes", 0), scanned),
        "core.store.bytes": float(c.get("store_bytes", 0)),
    }


def serve_metrics(table: SpanTable, extra: dict) -> dict:
    """Server-side layer metrics (spans from the launcher) plus the log
    sizes the server reported in ``STATS``."""
    us = 1e3
    strides = _durations_ms(table, "runtime.feed", tag=True)
    commits = _durations_ms(table, "runtime.wal.commit")
    publishes = _durations_ms(table, "query.journal.publish")
    journal_commits = _durations_ms(table, "query.journal.commit")
    query_self = [
        table.self_ns[i] / 1e3
        for i in table.indices("serve.dispatch")
        if str(table.tag[i]).startswith("QUERY")
    ]
    wal, journal = extra.get("wal") or {}, extra.get("journal") or {}
    return {
        "serve.protocol.decode_us": _mean(_durations_ms(table, "serve.protocol.decode")) * us,
        "serve.protocol.encode_us": _mean(_durations_ms(table, "serve.protocol.encode")) * us,
        "serve.dispatch.query_us": _mean(query_self),
        "runtime.stride_ms_p50": percentile(strides, 50),
        "runtime.stride_ms_p99": percentile(strides, 99),
        "serve.session.offer_us": _mean(_durations_ms(table, "serve.session.offer")) * us,
        "runtime.wal.append_us": _mean(_durations_ms(table, "runtime.wal.append")) * us,
        "runtime.wal.commit_ms_p50": percentile(commits, 50),
        "runtime.wal.commit_ms_p99": percentile(commits, 99),
        "runtime.wal.bytes_per_point": ratio(wal.get("bytes", 0), wal.get("appends", 0)),
        "query.journal.publish_ms_p50": percentile(publishes, 50),
        "query.journal.publish_ms_p99": percentile(publishes, 99),
        "query.journal.commit_ms_p50": percentile(journal_commits, 50),
        "query.journal.bytes_per_stride": ratio(
            journal.get("bytes", 0), journal.get("appends", 0)
        ),
        "serve.session.fanout_ms": _mean(_durations_ms(table, "serve.session.fanout")),
        "query.archive.snapshot_ms": _mean(_durations_ms(table, "query.archive.snapshot")),
        "runtime.checkpoint.save_ms": _mean(_durations_ms(table, "runtime.checkpoint.save")),
        "query.archive.as_of_ms_p50": percentile(
            _durations_ms(table, "query.archive.as_of"), 50
        ),
    }


def dispatch_ms_by_id(table: SpanTable) -> dict:
    """Wall time of each request's dispatch, keyed by the frame id."""
    return {
        table.rid[i]: table.dur[i] / 1e6
        for i in table.indices("serve.dispatch")
        if table.rid[i] is not None
    }


def fill(metrics: dict) -> dict:
    """Every per-layer metric, in order; a layer the workload bypasses
    reads 0."""
    unknown = set(metrics) - {name for name, _ in PER_LAYER}
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    return {
        name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
        for name, unit in PER_LAYER
    }
