"""Unit tests for the columnar PointStore arena and its record façade."""

import numpy as np
import pytest

from repro.core.state import WindowState
from repro.core.store import (
    COUNTER_FIELDS,
    DELETED,
    NO_ID,
    SLAB_SLOTS,
    WAS_CORE,
    PointStore,
    RecordMap,
    RecordView,
)
from repro.common.config import ClusteringParams


def fill(store, n, start=0):
    pids = list(range(start, start + n))
    coords = [(float(p), 0.0) for p in pids]
    times = [float(p) for p in pids]
    return store.bulk_insert(pids, coords, times)


class TestSlabGrowth:
    def test_first_insert_allocates_one_slab(self):
        store = PointStore()
        fill(store, 1)
        assert store.capacity == SLAB_SLOTS
        assert store.slabs == 1
        store.check_invariants()

    def test_growth_is_in_whole_slabs(self):
        store = PointStore()
        fill(store, 3 * SLAB_SLOTS + 5)
        assert store.capacity % SLAB_SLOTS == 0
        assert store.capacity >= 3 * SLAB_SLOTS + 5
        assert len(store) == 3 * SLAB_SLOTS + 5
        store.check_invariants()

    def test_growth_preserves_existing_rows(self):
        store = PointStore()
        fill(store, 10)
        store.n_eps[store.slot_of(3)] = 7
        store.cid[store.slot_of(4)] = 42
        fill(store, 2 * SLAB_SLOTS, start=10)  # forces reallocation
        assert int(store.n_eps[store.slot_of(3)]) == 7
        assert int(store.cid[store.slot_of(4)]) == 42
        assert store.view(5).coords == (5.0, 0.0)
        store.check_invariants()

    def test_steady_state_never_grows(self):
        store = PointStore()
        fill(store, 100)
        cap = store.capacity
        for round_ in range(1, 20):
            store.free(range((round_ - 1) * 100, round_ * 100))
            fill(store, 100, start=round_ * 100)
        assert store.capacity == cap
        store.check_invariants()


class TestFreeListRecycling:
    def test_freed_slots_are_reused(self):
        store = PointStore()
        fill(store, 8)
        freed = {store.slot_of(p) for p in (2, 5)}
        store.free([2, 5])
        new_slots = set(fill(store, 2, start=100).tolist())
        assert new_slots == freed
        assert store.recycled_total == 2
        store.check_invariants()

    def test_fresh_rows_are_reset_after_recycling(self):
        store = PointStore()
        fill(store, 4)
        view = store.view(1)
        view.n_eps = 9
        view.cid = 3
        view.anchor = 0
        view.was_core = True
        store.free([1])
        fill(store, 1, start=50)
        rec = store.view(50)
        assert (rec.n_eps, rec.c_core, rec.cid, rec.anchor) == (1, 0, None, None)
        assert not rec.was_core and not rec.deleted

    def test_counters_shape(self):
        store = PointStore()
        fill(store, 6)
        store.free([0])
        counters = store.counters()
        assert tuple(counters) == COUNTER_FIELDS
        assert counters["slots"] == 5
        assert counters["free"] == 1
        assert counters["capacity"] == SLAB_SLOTS
        assert counters["slabs"] == 1
        assert counters["high_water"] == 6
        assert 0.0 <= counters["occupancy"] <= 1.0
        assert store.nbytes() > 0


class TestSlotStability:
    def test_pid_slot_mapping_survives_other_expiries(self):
        """A resident point's slot never moves, whatever happens around it."""
        store = PointStore()
        fill(store, 50)
        pinned = {p: store.slot_of(p) for p in (10, 25, 49)}
        store.free([p for p in range(50) if p not in pinned])
        fill(store, 47, start=1000)  # recycle every freed slot
        for pid, slot in pinned.items():
            assert store.slot_of(pid) == slot
            assert store.view(pid).pid == pid
        store.check_invariants()

    def test_insertion_order_iteration(self):
        store = PointStore()
        fill(store, 5)
        store.free([1, 3])
        fill(store, 2, start=7)
        assert list(store.iter_pids()) == [0, 2, 4, 7, 8]
        assert store.pid[store.live_slots()].tolist() == [0, 2, 4, 7, 8]

    def test_mark_deleted_keeps_rows_resident(self):
        store = PointStore()
        slots = fill(store, 3)
        store.mark_deleted(slots[:1])
        assert 0 in store
        assert store.view(0).deleted
        assert int(store.n_eps[slots[0]]) == 0
        assert bool(store.flags[slots[0]] & DELETED)


class TestRecordFacade:
    def test_view_roundtrips_every_field(self):
        store = PointStore()
        fill(store, 1)
        rec = store.view(0)
        rec.n_eps, rec.c_core, rec.cid, rec.anchor = 5, 2, 11, 0
        rec.was_core = True
        assert (rec.n_eps, rec.c_core, rec.cid, rec.anchor) == (5, 2, 11, 0)
        rec.cid = None
        rec.anchor = None
        assert rec.cid is None and rec.anchor is None
        assert int(store.cid[store.slot_of(0)]) == NO_ID

    def test_record_map_is_a_mapping(self):
        store = PointStore()
        fill(store, 3)
        records = RecordMap(store)
        assert len(records) == 3
        assert 1 in records and 9 not in records
        assert records.get(9) is None
        assert [pid for pid, _ in records.items()] == [0, 1, 2]
        assert [rec.pid for rec in records.values()] == [0, 1, 2]
        del records[1]
        assert len(records) == 2

    def test_window_state_owns_its_store(self):
        state = WindowState(ClusteringParams(eps=0.5, tau=3))
        assert isinstance(state.store, PointStore)
        assert isinstance(state.records, RecordMap)
        assert state.records.store is state.store
        assert state.columnar() is state.store

    def test_reprs_expose_anchor_and_time(self):
        """Regression: the record repr must show anchor and time."""
        store = PointStore()
        fill(store, 2)
        view = store.view(0)
        view.anchor = 7
        text = repr(view)
        assert "anchor=7" in text and "time=0.0" in text
        view = store.view(1)
        view.time = 2.5
        view.anchor = None
        text = repr(view)
        assert "anchor=None" in text and "time=2.5" in text


class TestInvariants:
    def test_flags_stay_a_bitfield(self):
        store = PointStore()
        slots = fill(store, 2)
        store.flags[slots[0]] |= WAS_CORE
        store.mark_deleted(slots[:1])
        assert bool(store.flags[slots[0]] & WAS_CORE)
        view = store.view(0)
        view.deleted = False
        assert view.was_core and not view.deleted

    def test_slots_of_batches(self):
        store = PointStore()
        fill(store, 6)
        got = store.slots_of([4, 0, 2])
        assert got.dtype == np.int64
        assert got.tolist() == [store.slot_of(4), store.slot_of(0), store.slot_of(2)]
        with pytest.raises(KeyError):
            store.slots_of([99])

    def test_slots_of_accepts_generators_and_arrays(self):
        store = PointStore()
        fill(store, 6)
        want = [store.slot_of(p) for p in (5, 1, 3)]
        assert store.slots_of(p for p in (5, 1, 3)).tolist() == want
        assert store.slots_of(np.array([5, 1, 3])).tolist() == want
        assert store.slots_of(iter(())).tolist() == []
        with pytest.raises(KeyError):
            store.slots_of(p for p in (1, 99))
        with pytest.raises(KeyError):
            store.slots_of((1, 99))
