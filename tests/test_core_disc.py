"""Unit tests for the DISC facade and its window state."""

import pytest

from repro.common.config import ClusteringParams
from repro.common.errors import StreamOrderError
from repro.common.points import StreamPoint
from repro.common.snapshot import Category
from repro.core.disc import DISC
from repro.core.state import WindowState
from repro.index.linear import LinearScanIndex


def sp(pid, x, y):
    return StreamPoint(pid, (float(x), float(y)), float(pid))


def blob(start_id, cx, cy, n=6, gap=0.3):
    return [sp(start_id + i, cx + gap * (i % 3), cy + gap * (i // 3)) for i in range(n)]


class TestFacade:
    def test_len_tracks_window(self):
        disc = DISC(eps=1.0, tau=3)
        disc.advance(blob(0, 0, 0), ())
        assert len(disc) == 6
        disc.advance((), blob(0, 0, 0)[:2])
        assert len(disc) == 4

    def test_snapshot_and_labels_agree(self):
        disc = DISC(eps=1.0, tau=3)
        disc.advance(blob(0, 0, 0), ())
        snapshot = disc.snapshot()
        labels = disc.labels()
        for pid, cid in labels.items():
            assert snapshot.label_of(pid) == cid

    def test_repr(self):
        disc = DISC(eps=1.0, tau=3, multi_starter=False)
        assert "msbfs=False" in repr(disc)
        assert "eps=1.0" in repr(disc)

    def test_custom_index_factory(self):
        disc = DISC(eps=1.0, tau=3, index=LinearScanIndex)
        disc.advance(blob(0, 0, 0), ())
        assert isinstance(disc.index, LinearScanIndex)
        assert disc.snapshot().num_clusters == 1

    def test_stats_exposed(self):
        disc = DISC(eps=1.0, tau=3)
        disc.advance(blob(0, 0, 0), ())
        assert disc.stats.range_searches > 0

    def test_invalid_params_rejected(self):
        from repro.common.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            DISC(eps=-1.0, tau=3)

    def test_empty_advance_is_noop(self):
        disc = DISC(eps=1.0, tau=3)
        disc.advance(blob(0, 0, 0), ())
        before = disc.labels()
        summary = disc.advance((), ())
        assert summary.events == []
        assert disc.labels() == before

    def test_delete_unknown_rejected(self):
        disc = DISC(eps=1.0, tau=3)
        with pytest.raises(StreamOrderError):
            disc.advance((), [sp(5, 0, 0)])

    def test_insert_duplicate_rejected(self):
        disc = DISC(eps=1.0, tau=3)
        disc.advance([sp(1, 0, 0)], ())
        with pytest.raises(StreamOrderError):
            disc.advance([sp(1, 2, 2)], ())

    def test_reinsert_after_delete_allowed(self):
        disc = DISC(eps=1.0, tau=3)
        disc.advance([sp(1, 0, 0)], ())
        disc.advance((), [sp(1, 0, 0)])
        disc.advance([sp(1, 2, 2)], ())
        assert len(disc) == 1

    def test_tau_one_all_points_are_singleton_cores(self):
        disc = DISC(eps=0.1, tau=1)
        disc.advance([sp(1, 0, 0), sp(2, 5, 5)], ())
        snapshot = disc.snapshot()
        assert snapshot.num_clusters == 2
        assert snapshot.count(Category.NOISE) == 0

    def test_high_dim_points(self):
        disc = DISC(eps=1.0, tau=2)
        pts = [
            StreamPoint(i, (0.1 * i, 0.0, 0.0, 0.0), float(i)) for i in range(5)
        ]
        disc.advance(pts, ())
        assert disc.snapshot().num_clusters == 1


class TestWindowState:
    def test_category_of(self):
        state = WindowState(ClusteringParams(1.0, 3))
        state.store.insert(1, (0.0, 0.0))
        rec = state.records[1]
        rec.n_eps = 3
        assert state.category_of(rec) is Category.CORE
        rec.n_eps = 2
        rec.c_core = 1
        assert state.category_of(rec) is Category.BORDER
        rec.c_core = 0
        assert state.category_of(rec) is Category.NOISE
        rec.deleted = True
        assert state.category_of(rec) is Category.DELETED

    def test_get_unknown_raises(self):
        state = WindowState(ClusteringParams(1.0, 3))
        with pytest.raises(StreamOrderError):
            state.get(9)

    def test_live_records_skip_deleted(self):
        state = WindowState(ClusteringParams(1.0, 3))
        state.store.insert(1, (0.0, 0.0))
        state.store.insert(2, (1.0, 1.0))
        state.records[2].deleted = True
        assert [r.pid for r in state.live_records()] == [1]


class TestBorderInvariants:
    def test_border_anchor_always_core(self):
        # Drive a few strides and check the internal anchor invariant.
        import random

        rng = random.Random(5)
        disc = DISC(eps=0.7, tau=4)
        alive = []
        next_pid = 0
        for _ in range(10):
            batch = []
            for _ in range(30):
                coords = (rng.gauss(0, 1.5), rng.gauss(0, 1.5))
                batch.append(StreamPoint(next_pid, coords, float(next_pid)))
                next_pid += 1
            out = alive[:10] if len(alive) > 60 else []
            alive = alive[len(out):] + batch
            disc.advance(batch, out)
            for rec in disc.state.live_records():
                category = disc.state.category_of(rec)
                if category is Category.BORDER:
                    anchor = disc.state.records[rec.anchor]
                    assert disc.state.is_core(anchor)
                    assert not anchor.deleted
                elif category is Category.CORE:
                    assert rec.cid is not None
