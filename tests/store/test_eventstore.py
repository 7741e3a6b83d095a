"""Tests for the temporal event store."""

import io

import pytest

from repro.constraints import TCG, EventStructure
from repro.granularity.gregorian import SECONDS_PER_DAY, SECONDS_PER_HOUR
from repro.mining import Event, EventDiscoveryProblem
from repro.store import EventRecord, EventStore

D, H = SECONDS_PER_DAY, SECONDS_PER_HOUR


@pytest.fixture
def store():
    s = EventStore()
    s.append("login", 100, {"user": "ada"})
    s.append("logout", 500, {"user": "ada"})
    s.append("login", 300, {"user": "bob"})  # out of order on purpose
    s.append("alert", 400)
    return s


class TestWrites:
    def test_append_assigns_ids(self, store):
        record = store.append("ping", 900)
        assert record.record_id == 4
        assert record.attributes == {}

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            EventStore().append("x", -1)

    def test_extend_accepts_events_and_tuples(self):
        s = EventStore()
        added = s.extend([Event("a", 1), ("b", 2)])
        assert added == 2
        assert len(s) == 2


class TestReads:
    def test_iteration_is_time_ordered(self, store):
        times = [record.time for record in store]
        assert times == sorted(times)

    def test_types_and_counts(self, store):
        assert store.types() == ["alert", "login", "logout"]
        assert store.count() == 4
        assert store.count("login") == 2
        assert store.count("nope") == 0

    def test_span(self, store):
        assert store.span() == (100, 500)
        with pytest.raises(ValueError):
            EventStore().span()

    def test_query_by_range(self, store):
        hits = store.query(start=300, stop=450)
        assert [r.time for r in hits] == [300, 400]

    def test_query_by_type_and_predicate(self, store):
        hits = store.query(
            types=["login"], where=lambda r: r.attributes.get("user") == "bob"
        )
        assert len(hits) == 1
        assert hits[0].time == 300

    def test_get_by_id(self, store):
        assert store.get(0).etype == "login"
        with pytest.raises(KeyError):
            store.get(99)

    def test_writes_invalidate_index(self, store):
        store.append("early", 50)
        assert [r.time for r in store][0] == 50
        assert store.count("early") == 1


class TestSnapshotAndMining:
    def test_snapshot_projects_events(self, store):
        sequence = store.snapshot(types=["login", "logout"])
        assert [e.etype for e in sequence] == ["login", "login", "logout"]

    def test_snapshot_window(self, store):
        sequence = store.snapshot(start=200, stop=450)
        assert len(sequence) == 2

    def test_mine_against_store(self, system):
        hour = system.get("hour")
        structure = EventStructure(
            ["A", "B"], {("A", "B"): [TCG(0, 1, hour)]}
        )
        store = EventStore()
        for i in range(6):
            base = i * D
            store.append("alert", base)
            store.append("ack", base + 1800)
        problem = EventDiscoveryProblem(structure, 0.8, "alert")
        outcome = store.mine(problem, system)
        assert {"A": "alert", "B": "ack"} in outcome.solution_assignments()


class TestConstructionHelpers:
    def test_from_sequence(self):
        from repro.mining import EventSequence

        store = EventStore.from_sequence(
            EventSequence([("a", 5), ("b", 2)])
        )
        assert len(store) == 2
        assert [r.time for r in store] == [2, 5]

    def test_from_csv(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("event_type,timestamp\nx,2000-01-01 01:00\ny,10\n")
        store = EventStore.from_csv(str(path))
        assert store.types() == ["x", "y"]
        assert store.span() == (10, 3600)


class TestPersistence:
    def test_jsonl_roundtrip_stream(self, store):
        buffer = io.StringIO()
        store.save_jsonl(buffer)
        buffer.seek(0)
        restored = EventStore.load_jsonl(buffer)
        assert len(restored) == len(store)
        assert restored.get(0).attributes == {"user": "ada"}
        assert [r.time for r in restored] == [r.time for r in store]

    def test_jsonl_roundtrip_path(self, store, tmp_path):
        path = str(tmp_path / "events.jsonl")
        store.save_jsonl(path)
        restored = EventStore.load_jsonl(path)
        assert restored.types() == store.types()

    def test_appends_continue_after_load(self, store, tmp_path):
        path = str(tmp_path / "events.jsonl")
        store.save_jsonl(path)
        restored = EventStore.load_jsonl(path)
        record = restored.append("new", 999)
        assert record.record_id == 4  # ids continue past the loaded max


class TestExtendQuarantineRegression:
    """Regression: id-map consistency across failed/quarantined batches.

    ``extend()`` used to have no dead-letter path at all, so a batch
    with one malformed event aborted mid-way; the fix threads a
    ``Quarantine`` through (like ``load_jsonl``) and guarantees the
    O(1) id map and the cached columnar view stay consistent with
    exactly the records that were appended - after clean batches,
    aborted batches, and quarantined batches alike.
    """

    def test_quarantined_batch_then_lookup_by_id(self):
        from repro.resilience import Quarantine

        store = EventStore()
        store.append("seed", 1)
        quarantine = Quarantine()
        added = store.extend(
            [
                ("good", 5),
                ("", 6),          # invalid type -> quarantined
                ("bad-time", -2),  # invalid time -> quarantined
                ("also-good", 7),
                ("short",),        # not a pair -> quarantined
            ],
            quarantine=quarantine,
        )
        assert added == 2
        assert len(quarantine) == 3
        assert len(store) == 3
        # The O(1) id map answers for every appended record...
        assert store.get(0).etype == "seed"
        assert store.get(1).etype == "good"
        assert store.get(2).etype == "also-good"
        # ...and for nothing else.
        with pytest.raises(KeyError):
            store.get(3)

    def test_failed_validation_mid_batch_without_quarantine(self):
        from repro.resilience import EventValidationError

        store = EventStore()
        store.append("seed", 1)
        store.get(0)  # force the index warm so append stays incremental
        with pytest.raises(EventValidationError):
            store.extend([("ok", 2), ("", 3), ("never", 4)])
        # Events before the malformed one stay; the id map agrees.
        assert len(store) == 2
        assert store.get(1).etype == "ok"
        with pytest.raises(KeyError):
            store.get(2)
        # The next id is not burned by the failed append.
        assert store.append("after", 9).record_id == 2

    def test_columnar_view_invalidated_by_partial_batches(self):
        from repro.resilience import Quarantine

        store = EventStore()
        store.append("a", 1)
        stale = store.columnar()
        quarantine = Quarantine()
        store.extend([("b", 2), ("", 3)], quarantine=quarantine)
        fresh = store.columnar()
        assert fresh is not stale
        assert len(fresh) == 2
        assert [fresh.type_at(i) for i in range(2)] == ["a", "b"]
        # Position 1 is record 1, the batch's one valid event.
        assert fresh.event_at(1) == (store.get(1).etype, store.get(1).time)

    def test_quarantined_load_then_extend_then_get(self, tmp_path):
        from repro.resilience import Quarantine

        path = str(tmp_path / "events.jsonl")
        with open(path, "w") as handle:
            handle.write('{"id": 0, "etype": "a", "time": 4}\n')
            handle.write("not json\n")
            handle.write('{"id": 2, "etype": "b", "time": 9}\n')
        quarantine = Quarantine()
        store = EventStore.load_jsonl(path, quarantine=quarantine)
        assert len(quarantine) == 1
        store.extend([("c", 11), ("", 0)], quarantine=quarantine)
        assert len(quarantine) == 2
        assert store.get(0).etype == "a"
        assert store.get(2).etype == "b"
        assert store.get(3).etype == "c"
        assert len(store) == 3
