"""Frozen reference: exact cluster ids and events, stride for stride.

DBSCAN equivalence pins the *partition*; it cannot pin which cluster id a
component carries or which evolution events a stride reports, because any
consistent relabelling is an equally valid clustering. This suite pins
both. Each case drives DISC through a stream and compares, per stride, a
SHA-256 of the canonical JSON of (labels, categories, event kinds with
their cluster ids), plus a SHA-256 of the final checkpoint payload, against
``tests/golden/stride_digests.json``.

The digests deliberately leave out trace and index-stats counters: how a
check probes the index may change without changing a single label.

Regenerate the golden file only for an intended output change::

    PYTHONPATH=src python -m tests.test_golden_digests --write
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from repro.api import cluster_stream
from repro.common.config import WindowSpec
from repro.common.points import StreamPoint
from repro.core.checkpoint import to_checkpoint
from repro.core.disc import DISC
from repro.datasets.maze import maze_stream
from repro.index.registry import available_indexes
from repro.window.sliding import materialize_slides
from tests.conftest import clustered_stream

GOLDEN = Path(__file__).parent / "golden" / "stride_digests.json"


def _sha(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def stride_digest(snapshot, summary) -> str:
    return _sha(
        {
            "labels": sorted(snapshot.labels.items()),
            "categories": sorted(
                (pid, cat.value) for pid, cat in snapshot.categories.items()
            ),
            "events": [
                [event.kind.value, list(event.cluster_ids)]
                for event in summary.events
            ],
        }
    )


def _run_stream(points, spec, eps, tau, *, index=None, time_based=False) -> dict:
    disc = DISC(eps, tau, index=index)
    strides = [
        stride_digest(snap, summary)
        for snap, summary in cluster_stream(
            points, spec, eps, tau, clusterer=disc, time_based=time_based
        )
    ]
    return {"strides": strides, "checkpoint": _sha(to_checkpoint(disc))}


def _run_ablation(multi_starter: bool, epoch_probing: bool) -> dict:
    points = clustered_stream(23, 240)
    disc = DISC(0.7, 4, multi_starter=multi_starter, epoch_probing=epoch_probing)
    strides = []
    for delta_in, delta_out in materialize_slides(
        points, WindowSpec(window=100, stride=25)
    ):
        summary = disc.advance(delta_in, delta_out)
        strides.append(stride_digest(disc.snapshot(), summary))
    return {"strides": strides, "checkpoint": _sha(to_checkpoint(disc))}


def _churn_stream() -> list[StreamPoint]:
    rng = random.Random(9)
    points = []
    for i in range(400):
        if rng.random() < 0.3:
            coords = (rng.uniform(-2.0, 8.0), rng.uniform(-2.0, 8.0))
        else:
            cx = rng.choice([0.0, 3.0, 6.0])
            coords = (cx + rng.gauss(0, 0.4), rng.gauss(0, 0.4))
        points.append(StreamPoint(i, coords, float(i)))
    return points


def _cases() -> dict:
    cases = {
        f"clustered-{index}": lambda index=index: _run_stream(
            clustered_stream(21, 360), WindowSpec(120, 30), 0.7, 4, index=index
        )
        for index in available_indexes()
    }
    cases["maze-600"] = lambda: _run_stream(
        maze_stream(600, seed=3)[0], WindowSpec(200, 50), 0.6, 4
    )
    cases["churn-noise"] = lambda: _run_stream(
        _churn_stream(), WindowSpec(90, 18), 0.55, 3
    )
    cases["time-based"] = lambda: _run_stream(
        clustered_stream(22, 240), WindowSpec(80.0, 20.0), 0.7, 4, time_based=True
    )
    for ms in (True, False):
        for ep in (True, False):
            cases[f"ablation-msbfs={ms}-epoch={ep}"] = (
                lambda ms=ms, ep=ep: _run_ablation(ms, ep)
            )
    return cases


CASES = _cases()


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", sorted(CASES))
def test_matches_golden(case, golden):
    got = CASES[case]()
    want = golden[case]
    assert len(got["strides"]) == len(want["strides"])
    for i, (a, b) in enumerate(zip(got["strides"], want["strides"])):
        assert a == b, f"{case}: stride {i} diverges from the golden run"
    assert got["checkpoint"] == want["checkpoint"]


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.test_golden_digests --write")
    GOLDEN.parent.mkdir(exist_ok=True)
    payload = {name: run() for name, run in sorted(CASES.items())}
    GOLDEN.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(payload)} cases to {GOLDEN}")
