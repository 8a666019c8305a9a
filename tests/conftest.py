"""Shared test fixtures and stream-building helpers."""

from __future__ import annotations

import random

import pytest

from repro.common.config import ClusteringParams, WindowSpec
from repro.common.points import StreamPoint


def clustered_stream(
    seed: int,
    n_points: int,
    *,
    dim: int = 2,
    centers=((0.0, 0.0), (3.0, 3.0), (6.0, 0.0), (3.0, -3.0)),
    spread: float = 0.5,
    noise_fraction: float = 0.2,
    start_id: int = 0,
) -> list[StreamPoint]:
    """Deterministic blob-plus-noise stream used across the test suite."""
    rng = random.Random(seed)
    points = []
    for i in range(n_points):
        if rng.random() < noise_fraction:
            coords = tuple(rng.uniform(-2.0, 8.0) for _ in range(dim))
        else:
            center = rng.choice(centers)
            coords = tuple(
                (center[d] if d < len(center) else 0.0) + rng.gauss(0.0, spread)
                for d in range(dim)
            )
        pid = start_id + i
        points.append(StreamPoint(pid, coords, float(pid)))
    return points


def offline_run(points, config):
    """``(clustering, summary)`` per stride of one uninterrupted offline run.

    This is the reference every served, killed or resumed tenant must
    reproduce. ``config`` is a ``SessionConfig`` or its dict form; its
    window, stride, eps, tau and index are used.
    """
    from repro.api import cluster_stream
    from repro.serve.config import SessionConfig

    if isinstance(config, dict):
        config = SessionConfig.from_dict(config)
    spec = WindowSpec(window=config.window, stride=config.stride)
    return cluster_stream(
        points, spec, eps=config.eps, tau=config.tau, index=config.index
    )


def offline_history(points, config) -> list[dict]:
    """Per-stride ``{pid: cluster id}`` of :func:`offline_run`."""
    return [dict(clustering.labels) for clustering, _ in offline_run(points, config)]


def offline_records(points, config) -> list[dict]:
    """The CDC records (``stride_record``) of :func:`offline_run`."""
    from repro.query.journal import stride_record

    last = {"time": None}

    def tracked():
        for p in points:
            last["time"] = p.time
            yield p

    prev, records = None, []
    for s, (clustering, summary) in enumerate(offline_run(tracked(), config)):
        records.append(stride_record(s, prev, clustering, summary, time=last["time"]))
        prev = clustering
    return records


def run_windowed(methods, points, spec: WindowSpec, checker=None):
    """Feed ``points`` through ``spec`` into every method in lockstep.

    ``checker(window_points)`` is invoked after every slide with the live
    window contents, letting tests compare the methods stride by stride.
    """
    from repro.window.sliding import SlidingWindow

    window: list[StreamPoint] = []
    for delta_in, delta_out in SlidingWindow(spec).slides(points):
        window.extend(delta_in)
        out_ids = {sp.pid for sp in delta_out}
        window = [sp for sp in window if sp.pid not in out_ids]
        for method in methods:
            method.advance(delta_in, delta_out)
        if checker is not None:
            checker(window)


@pytest.fixture
def params() -> ClusteringParams:
    return ClusteringParams(eps=0.7, tau=4)


@pytest.fixture
def spec() -> WindowSpec:
    return WindowSpec(window=100, stride=25)
