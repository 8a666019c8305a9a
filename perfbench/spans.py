"""In-memory span recording around calls into the program's layers.

A span is one call of a wrapped function: its name, start and end
(``perf_counter_ns``), the span that was open when it started (its parent),
a request id (the protocol frame ``id`` where one exists) and a small tag
(the request op, or whether a feed closed a stride). Spans live in flat
arrays and are written out once, when the traced process ends; nothing
touches the disk while the workload runs.

The parent of a span is tracked through a :class:`contextvars.ContextVar`,
so every asyncio task has its own chain. A task inherits the context of the
code that created it; a span whose recorded parent had already ended when
the span started is therefore re-rooted (the session writer task is created
inside the ``OPEN`` request and outlives it).
"""

from __future__ import annotations

import contextvars
import functools
import json
import time
from array import array

_now = time.perf_counter_ns


class SpanRecorder:
    """Flat, append-only span storage plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.rid: list = []
        self.tag: list = []
        self._current = contextvars.ContextVar("perfbench_span", default=-1)

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> tuple[int, object]:
        parent = self._current.get()
        if parent >= 0 and self.end[parent] != 0:
            parent = -1
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(parent)
        self.rid.append(None)
        self.tag.append(None)
        self.end.append(0)
        self.start.append(_now())
        return idx, self._current.set(idx)

    def _close(self, idx: int, token) -> None:
        self.end[idx] = _now()
        self._current.reset(token)

    def wrap(self, name: str, fn, *, rid=None, tag=None):
        """Sync wrapper; ``rid(args, result)`` / ``tag(args, result)``
        derive the request id and tag of a span from the call."""
        nid = self._name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx, token = self._open(nid)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._close(idx, token)
                if rid is not None:
                    self.rid[idx] = rid(args, result)
                if tag is not None:
                    self.tag[idx] = tag(args, result)

        return wrapper

    def wrap_async(self, name: str, fn, *, rid=None, tag=None):
        """Coroutine-function wrapper; same hooks as :meth:`wrap`."""
        nid = self._name_id(name)

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            idx, token = self._open(nid)
            result = None
            try:
                result = await fn(*args, **kwargs)
                return result
            finally:
                self._close(idx, token)
                if rid is not None:
                    self.rid[idx] = rid(args, result)
                if tag is not None:
                    self.tag[idx] = tag(args, result)

        return wrapper

    # ------------------------------------------------------------ export

    def as_dict(self) -> dict:
        return {
            "names": self.names,
            "name": self.name.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
            "rid": self.rid,
            "tag": self.tag,
        }

    def dump(self, path, extra: dict | None = None) -> None:
        """Write every span (and ``extra`` counters) as one JSON file."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.as_dict(), "extra": extra or {}}, handle)


class SpanTable:
    """Read side: durations and self times per span, grouped by name."""

    def __init__(self, spans: dict) -> None:
        self.names = spans["names"]
        self.name = spans["name"]
        self.parent = spans["parent"]
        self.rid = spans["rid"]
        self.tag = spans["tag"]
        start, end = spans["start"], spans["end"]
        n = len(start)
        # A span still open at export (a cancelled task) has no end; it
        # counts as zero-length rather than as a negative duration.
        self.dur = [max(0, end[i] - start[i]) if end[i] else 0 for i in range(n)]
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.dur[i]
        self.self_ns = [self.dur[i] - child[i] for i in range(n)]

    @classmethod
    def from_recorder(cls, recorder: SpanRecorder) -> "SpanTable":
        return cls(recorder.as_dict())

    def indices(self, *names: str) -> list[int]:
        """Span indices whose name is one of ``names`` (prefix ``x.*`` ok)."""
        wanted = set()
        for nid, name in enumerate(self.names):
            for pattern in names:
                if name == pattern or (
                    pattern.endswith("*") and name.startswith(pattern[:-1])
                ):
                    wanted.add(nid)
        return [i for i, nid in enumerate(self.name) if nid in wanted]

    def self_ms(self, *names: str) -> float:
        """Total self time, in ms, of every span with one of ``names``."""
        return sum(self.self_ns[i] for i in self.indices(*names)) / 1e6
