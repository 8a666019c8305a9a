"""Tenant-session semantics: backpressure, equivalence, drain, failure.

The acceptance bar: under *every* backpressure policy, a served session's
per-stride labels are byte-identical to ``api.cluster_stream`` run over the
same post-admission point sequence (the session journal).
"""

from __future__ import annotations

import asyncio
import itertools

import pytest

from repro.api import cluster_stream
from repro.common.config import WindowSpec
from repro.common.snapshot import Clustering
from repro.datasets.io import MalformedRecord
from repro.query.archive import SnapshotArchive
from repro.query.journal import EvolutionJournal
from repro.serve import ServeError, SessionConfig, TenantSession
from repro.serve.session import SessionView

from .conftest import clustered_stream, offline_history

EPS, TAU = 0.8, 4


def make_config(**overrides) -> SessionConfig:
    base = dict(eps=EPS, tau=TAU, window=120, stride=30)
    base.update(overrides)
    return SessionConfig(**base)


def record_views(session: TenantSession) -> list:
    """Capture every published view, in publication order."""
    views = []
    original = session._publish

    def capture():
        original()
        views.append(session.view)

    session._publish = capture
    return views


async def drive_session(config, points, *, batch=17, drain=True, flush_tail=True):
    """Offer ``points`` to a fresh session in batches; return the evidence."""
    session = TenantSession("t", config, journal=[])
    views = record_views(session)
    session.start()
    outcomes = []
    for i in range(0, len(points), batch):
        outcomes.append(await session.offer(points[i : i + batch]))
    if drain:
        await session.drain(flush_tail=flush_tail)
    await session.close()
    return session, views, outcomes


class TestPolicyEquivalence:
    """Served labels == offline labels on the post-admission sequence."""

    def check_policy(self, policy, queue_limit=2048, batch=17):
        points = clustered_stream(11, 450)
        config = make_config(backpressure=policy, queue_limit=queue_limit)
        session, views, _ = asyncio.run(
            drive_session(config, points, batch=batch)
        )
        # Everything the writer consumed, in order — under `block` that is
        # the whole stream; under shed/reject a subsequence.
        journal = session.journal
        assert journal, "writer consumed nothing"
        served = [dict(v.clustering.labels) for v in views]
        assert served == offline_history(journal, config)
        return session, journal, points

    def test_block_policy_is_lossless_and_exact(self):
        session, journal, points = self.check_policy("block")
        assert journal == points  # block never drops
        assert session.shed == session.rejected == 0

    def test_shed_oldest_policy_is_exact_on_survivors(self):
        # A tiny queue and large bursts force shedding: put_nowait never
        # yields to the writer inside a burst, so the queue overflows.
        session, journal, points = self.check_policy(
            "shed-oldest", queue_limit=8, batch=64
        )
        assert session.shed > 0
        assert len(journal) + session.shed == len(points)

    def test_reject_policy_is_exact_on_survivors(self):
        session, journal, points = self.check_policy(
            "reject", queue_limit=8, batch=64
        )
        assert session.rejected > 0
        assert len(journal) + session.rejected == len(points)

    def test_admission_outcomes_add_up(self):
        points = clustered_stream(12, 300)
        config = make_config(backpressure="reject", queue_limit=16)
        session, _, outcomes = asyncio.run(
            drive_session(config, points, batch=40)
        )
        accepted = sum(o["accepted"] for o in outcomes)
        rejected = sum(o["rejected"] for o in outcomes)
        assert accepted + rejected == len(points) == session.received
        assert session.ingested == accepted  # drained queue: all consumed


class TestViews:
    def test_initial_view_is_empty(self):
        session = TenantSession("t", make_config())
        assert session.view.stride == -1
        assert session.view.clustering.num_points == 0
        assert session.view.classify((0.0, 0.0))["label"] == -1

    def test_views_are_published_per_stride(self):
        points = clustered_stream(13, 300)
        config = make_config()
        _, views, _ = asyncio.run(drive_session(config, points))
        assert [v.stride for v in views] == list(range(len(views)))
        assert len(views) == 300 // config.stride

    def test_view_membership_and_classify_agree_with_snapshot(self):
        points = clustered_stream(14, 240)
        config = make_config()
        session, views, _ = asyncio.run(drive_session(config, points))
        view = views[-1]
        clustering = view.clustering
        for pid, cid in clustering.labels.items():
            assert view.membership(pid)["label"] == cid
        # Every core classifies to its own cluster (distance 0).
        for pid, coords, label in view.cores:
            result = view.classify(coords)
            assert result["label"] == label
            assert result["distance"] == 0.0

    def test_classify_out_of_range_is_noise(self):
        points = clustered_stream(15, 240)
        _, views, _ = asyncio.run(drive_session(make_config(), points))
        result = views[-1].classify((1e6, 1e6))
        assert result["label"] == -1
        assert result["nearest_core"] is None


def make_view(cores, eps=1.5) -> SessionView:
    return SessionView(0, Clustering({}, {}), eps, tuple(cores))


class TestClassifyTieBreak:
    """Regression: classify() must not depend on core iteration order.

    Pre-fix, an exact-distance tie went to whichever core the tuple
    happened to list first — and the tuple's order tracked the clusterer's
    internal iteration order, so two equivalent states could answer the
    same probe differently. The contract now: nearest core wins; exact
    ties break to the lowest cluster label, then the lowest core pid.
    """

    TIED = [(7, (0.0, 0.0), 5), (2, (2.0, 0.0), 3)]  # probe (1,0): both at 1.0

    def test_exact_tie_breaks_to_lowest_label_in_any_order(self):
        # Fails pre-fix: the given order answered label 5, reversed
        # answered label 3.
        for order in itertools.permutations(self.TIED):
            answer = make_view(order).classify((1.0, 0.0))
            assert answer["label"] == 3
            assert answer["nearest_core"] == 2
            assert answer["distance"] == 1.0

    def test_label_tie_breaks_to_lowest_pid(self):
        cores = [(9, (0.0, 0.0), 4), (4, (2.0, 0.0), 4)]
        for order in itertools.permutations(cores):
            answer = make_view(order).classify((1.0, 0.0))
            assert answer["nearest_core"] == 4

    def test_distance_still_dominates_the_tie_break(self):
        # A strictly nearer core beats any label/pid preference.
        cores = [(1, (0.0, 0.0), 1), (2, (1.25, 0.0), 9)]
        answer = make_view(cores).classify((1.0, 0.0))
        assert answer["label"] == 9
        assert answer["nearest_core"] == 2

    def test_order_invariance_under_many_permutations(self):
        cores = [
            (11, (0.0, 0.0), 2),
            (5, (2.0, 0.0), 8),
            (3, (1.0, 1.0), 8),
            (8, (1.0, -1.0), 2),
        ]
        probes = [(1.0, 0.0), (0.5, 0.5), (1.0, 2.0), (9.0, 9.0)]
        for probe in probes:
            answers = {
                tuple(sorted(make_view(order).classify(probe).items()))
                for order in itertools.permutations(cores)
            }
            assert len(answers) == 1, f"probe {probe} is order-dependent"


class TestJournalRetention:
    """Regression: retention GC vs archive cadence (``_compact_journal``).

    Pre-fix, a retention cut with no archive snapshot at-or-before it
    clamped to 0 — the journal never shrank — silently. The contract now:
    compact to the newest *answerable* stride, and when that lags the
    retention cut, say why in STATS (``journal.floor_pinned``).
    """

    def drive(self, tmp_path, *, retention, archive_every, n=300):
        async def scenario():
            evjournal = EvolutionJournal(
                tmp_path / "evj", segment_bytes=1
            )
            archive = SnapshotArchive(
                tmp_path / "arch", every=archive_every, journal=evjournal
            )
            config = make_config(
                journal=True,
                journal_retention=retention,
                archive_every=archive_every,
                checkpoint_every=2,
            )
            session = TenantSession(
                "t",
                config,
                store=str(tmp_path / "ckpt"),
                evjournal=evjournal,
                archive=archive,
            )
            session.start()
            await session.offer(clustered_stream(21, n))
            await session.drain(flush_tail=True)
            await session.close()
            return session, evjournal, archive

        return asyncio.run(scenario())

    def test_fine_cadence_advances_the_floor_unpinned(self, tmp_path):
        # Snapshot cadence (2) <= retention (3): there is always a
        # snapshot at or before the cut, so the floor tracks retention.
        session, evjournal, archive = self.drive(
            tmp_path, retention=3, archive_every=2
        )
        assert session.failed is None
        assert evjournal.floor > 0
        assert session.journal_floor_pinned is None
        assert "floor_pinned" not in session.stats()["journal"]
        # Everything retained is still answerable.
        for stride in range(evjournal.floor, evjournal.head - 1):
            assert archive.materialize(stride) is not None

    def test_coarse_cadence_pins_the_floor_and_says_why(self, tmp_path):
        # Snapshot cadence (8) > retention (2): the cut outruns the
        # newest snapshot, so the floor holds at snapshot+1 — but it
        # must still advance past 0, and STATS must explain the lag.
        # 420 points = 14 strides: the final cut (>= 11) is well past the
        # newest snapshot (8), so the pin is visible in the end state.
        session, evjournal, archive = self.drive(
            tmp_path, retention=2, archive_every=8, n=420
        )
        assert session.failed is None
        assert evjournal.floor > 0  # pre-fix: stuck at 0 forever
        snap = max(archive.strides())
        assert evjournal.floor <= snap + 1
        reason = session.stats()["journal"]["floor_pinned"]
        assert "archive cadence 8" in reason
        assert "retention 2" in reason
        # The floor's stride is answerable: snapshot + delta replay.
        assert archive.materialize(evjournal.floor) is not None

    def test_replay_only_archive_never_compacts_but_reports(self, tmp_path):
        # archive_every=0: AS_OF replays from stride 0, so no prefix is
        # ever cuttable. Retention must not break time travel — and must
        # not be silent about it either.
        session, evjournal, archive = self.drive(
            tmp_path, retention=2, archive_every=0
        )
        assert session.failed is None
        assert evjournal.floor == 0
        reason = session.stats()["journal"]["floor_pinned"]
        assert "replay-only" in reason
        for stride in range(evjournal.head - 1):
            assert archive.materialize(stride) is not None

    def test_no_retention_means_no_gc_and_no_pin(self, tmp_path):
        session, evjournal, _ = self.drive(
            tmp_path, retention=0, archive_every=2
        )
        assert evjournal.floor == 0
        assert session.journal_floor_pinned is None


class TestDrain:
    def test_drain_without_tail_flush_keeps_partial_batch(self):
        points = clustered_stream(16, 310)  # 10 full strides + 10 pending
        config = make_config()
        session, views, _ = asyncio.run(
            drive_session(config, points, flush_tail=False)
        )
        assert views[-1].stride == 9  # the pending 10 points closed no stride
        assert session.ingested == 310

    def test_drain_with_tail_flush_matches_end_of_stream(self):
        points = clustered_stream(16, 310)
        config = make_config()
        session, views, _ = asyncio.run(
            drive_session(config, points, flush_tail=True)
        )
        assert views[-1].stride == 10  # tail stride closed
        assert [dict(v.clustering.labels) for v in views] == (
            offline_history(points, config)
        )

    def test_ingest_after_drain_is_rejected(self):
        async def scenario():
            session = TenantSession("t", make_config())
            session.start()
            await session.offer(clustered_stream(17, 60))
            await session.drain()
            outcome = await session.offer(clustered_stream(17, 30, start_id=60))
            await session.close()
            return session, outcome

        session, outcome = asyncio.run(scenario())
        assert outcome["accepted"] == 0
        assert outcome["rejected"] == 30
        assert session.drained


class TestFailure:
    def test_strict_policy_fault_fails_the_session(self):
        async def scenario():
            session = TenantSession("t", make_config(on_malformed="strict"))
            session.start()
            bad = MalformedRecord(0, "garbage", "unparsable")
            await session.offer([bad])
            await session.drain()  # must not hang on a dead writer
            await session.close()
            return session

        session = asyncio.run(scenario())
        assert session.failed is not None
        with pytest.raises(ServeError) as err:
            session.require_healthy()
        assert err.value.code == "session-failed"

    def test_skip_policy_survives_malformed_items(self):
        async def scenario():
            session = TenantSession(
                "t", make_config(on_malformed="skip"), journal=[]
            )
            session.start()
            stream = list(clustered_stream(18, 120))
            stream.insert(40, MalformedRecord(40, "garbage", "unparsable"))
            await session.offer(stream)
            await session.drain(flush_tail=True)
            await session.close()
            return session

        session = asyncio.run(scenario())
        assert session.failed is None
        assert session.supervisor.stats.points_dead_lettered == 1
        # The journal holds the raw consumed sequence including the bad
        # record; the offline run under the same policy must agree.
        config = make_config(on_malformed="skip")
        spec = WindowSpec(window=config.window, stride=config.stride)
        offline = [
            dict(snapshot.labels)
            for snapshot, _ in cluster_stream(
                session.journal, spec, eps=EPS, tau=TAU, on_malformed="skip"
            )
        ]
        assert dict(session.view.clustering.labels) == offline[-1]

    def test_stats_shape(self):
        points = clustered_stream(19, 240)
        config = make_config(backpressure="reject")
        session, _, _ = asyncio.run(drive_session(config, points))
        stats = session.stats()
        assert stats["session"] == "t"
        assert stats["stride"] == session.view.stride
        assert stats["backpressure"] == "reject"
        assert stats["runtime"]["strides"] == session.view.stride + 1
        assert stats["config"] == config.as_dict()
