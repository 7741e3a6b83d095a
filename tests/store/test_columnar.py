"""Columnar store unit + chaos tests (the mmap persistence path).

The persistence contract: a well-formed file round-trips bit-identical
columns (memory-mapped or not); ANY malformed file - truncated, wrong
magic, corrupt header, size mismatch - makes :func:`load_columnar`
return None (rebuild the view from the source of truth) and increments
``repro_columnar_fallback_total``, never raising to the caller.
"""

import os

import pytest

import repro.store.columnar as columnar_module
from repro.mining.events import Event, EventSequence
from repro.obs import counter_deltas, metrics_snapshot
from repro.store import (
    ColumnarEventStore,
    ColumnarFormatError,
    EventStore,
    columnar_kernel,
    load_columnar,
)

KERNELS = ["numpy", "fallback"]


@pytest.fixture(params=KERNELS)
def kernel(request, monkeypatch):
    if request.param == "numpy":
        if columnar_module._np is None:
            pytest.skip("numpy unavailable")
    else:
        monkeypatch.setattr(columnar_module, "_np", None)
    return request.param


def _sample_store():
    store = EventStore()
    store.append("login", 100, {"user": "ada"})
    store.append("login", 164)
    store.append("alert", 164, {"level": 3})
    store.append("logout", 4000)
    return store


def _fallback_delta(before):
    return counter_deltas(before, metrics_snapshot()).get(
        "repro_columnar_fallback_total", 0
    )


# ----------------------------------------------------------------------
# Kernel resolution
# ----------------------------------------------------------------------
class TestResolution:
    def test_kernel_names(self, kernel):
        assert columnar_kernel() == kernel
        assert ColumnarEventStore.from_events([]).kernel == kernel


# ----------------------------------------------------------------------
# Construction and reads
# ----------------------------------------------------------------------
class TestConstruction:
    def test_round_trip_from_store(self, kernel):
        store = _sample_store()
        view = ColumnarEventStore.from_store(store)
        assert len(view) == 4
        assert view.types() == ["alert", "login", "logout"]
        assert view.count("login") == 2
        assert view.count() == 4
        assert view.span() == (100, 4000)
        assert view.event_at(0) == ("login", 100)
        assert view.attributes_at(0) == {"user": "ada"}
        assert view.attributes_at(1) == {}
        assert view.record_id_at(2) == 2
        rebuilt = view.to_event_store()
        assert [
            (r.record_id, r.etype, r.time, r.attributes)
            for r in rebuilt
        ] == [
            (r.record_id, r.etype, r.time, r.attributes)
            for r in store
        ]

    def test_sequence_positions_align(self, kernel):
        sequence = EventSequence(
            [Event("a", 5), Event("b", 5), Event("a", 9)]
        )
        view = ColumnarEventStore.from_sequence(sequence)
        for position in range(len(sequence)):
            assert view.event_at(position) == tuple(
                sequence[position]
            )
        assert view.to_sequence() == sequence

    def test_unsorted_times_rejected(self, kernel):
        with pytest.raises(ValueError):
            ColumnarEventStore([5, 3], [0, 0], ["a"])

    def test_zero_event_store(self, kernel):
        view = ColumnarEventStore.from_events([])
        assert len(view) == 0
        assert view.types() == []
        assert view.count("a") == 0
        assert view.postings("a") == ((), ())
        assert view.screen_anchors([], [("a", 0, 1)]) == []
        with pytest.raises(ValueError):
            view.span()


# ----------------------------------------------------------------------
# Persistence: round trip
# ----------------------------------------------------------------------
class TestPersistence:
    def test_round_trip(self, kernel, tmp_path):
        path = str(tmp_path / "events.col")
        store = _sample_store()
        view = ColumnarEventStore.from_store(store)
        view.save(path)
        for mmap in (True, False):
            loaded = ColumnarEventStore.load(path, mmap=mmap)
            assert len(loaded) == len(view)
            for position in range(len(view)):
                assert loaded.event_at(position) == view.event_at(
                    position
                )
                assert loaded.attributes_at(
                    position
                ) == view.attributes_at(position)
                assert loaded.record_id_at(
                    position
                ) == view.record_id_at(position)

    def test_zero_event_round_trip(self, kernel, tmp_path):
        path = str(tmp_path / "empty.col")
        ColumnarEventStore.from_events([]).save(path)
        loaded = load_columnar(path)
        assert loaded is not None
        assert len(loaded) == 0

    def test_store_larger_than_one_bucket(self, kernel, tmp_path):
        # A multi-year span of two interleaved types: the posting lists
        # must come back position for position after a reload.
        events = [
            ("tick" if t % 3 else "tock", t * 400000) for t in range(200)
        ]
        view = ColumnarEventStore.from_events(events)
        path = str(tmp_path / "big.col")
        view.save(path)
        loaded = load_columnar(path)
        assert loaded is not None
        assert loaded.span() == (0, 199 * 400000)
        for etype in ("tick", "tock"):
            expected = tuple(
                position
                for position, (name, _) in enumerate(events)
                if name == etype
            )
            assert loaded.postings(etype) == (
                expected,
                tuple(events[position][1] for position in expected),
            )
            assert loaded.count(etype) == len(expected)

    def test_mid_iteration_reopen(self, kernel, tmp_path):
        """The recover() idiom: a reader holding a loaded view keeps
        working after the file is atomically replaced and reopened -
        the old view stays consistent, the new one sees new contents."""
        path = str(tmp_path / "live.col")
        ColumnarEventStore.from_events(
            [("a", 1), ("b", 2)]
        ).save(path)
        first = load_columnar(path)
        assert first is not None
        seen = []
        for position in range(len(first)):
            seen.append(first.event_at(position))
            if position == 0:
                # Writer replaces the file mid-iteration.
                replacement = str(tmp_path / "next.col")
                ColumnarEventStore.from_events(
                    [("a", 1), ("b", 2), ("c", 3)]
                ).save(replacement)
                os.replace(replacement, path)
                second = load_columnar(path)
        assert seen == [("a", 1), ("b", 2)]
        assert second is not None
        assert len(second) == 3
        assert second.event_at(2) == ("c", 3)


# ----------------------------------------------------------------------
# Chaos: corrupt files must fall back, counted
# ----------------------------------------------------------------------
class TestChaos:
    def _saved(self, tmp_path):
        path = str(tmp_path / "events.col")
        ColumnarEventStore.from_store(_sample_store()).save(path)
        return path

    def test_truncated_file_falls_back(self, kernel, tmp_path, obs_on):
        path = self._saved(tmp_path)
        size = os.path.getsize(path)
        for keep in (size - 1, size - 8, 20, len(b"RPCOL1\n") + 3, 0):
            with open(path, "r+b") as handle:
                handle.truncate(keep)
            before = metrics_snapshot()
            assert load_columnar(path) is None
            assert _fallback_delta(before) == 1
            # Restore for the next truncation point.
            ColumnarEventStore.from_store(_sample_store()).save(path)

    def test_bad_magic_falls_back(self, kernel, tmp_path, obs_on):
        path = self._saved(tmp_path)
        with open(path, "r+b") as handle:
            handle.write(b"GARBAGE")
        before = metrics_snapshot()
        assert load_columnar(path) is None
        assert _fallback_delta(before) == 1

    def test_corrupt_header_falls_back(self, kernel, tmp_path, obs_on):
        path = self._saved(tmp_path)
        with open(path, "r+b") as handle:
            handle.seek(len(b"RPCOL1\n") + 8)
            handle.write(b"\xff\xfe{{{{")
        before = metrics_snapshot()
        assert load_columnar(path) is None
        assert _fallback_delta(before) == 1

    def test_appended_garbage_falls_back(self, kernel, tmp_path, obs_on):
        # Size mismatch in the other direction: extra trailing bytes.
        path = self._saved(tmp_path)
        with open(path, "ab") as handle:
            handle.write(b"trailing")
        before = metrics_snapshot()
        assert load_columnar(path) is None
        assert _fallback_delta(before) == 1

    def test_missing_file_falls_back(self, kernel, tmp_path, obs_on):
        before = metrics_snapshot()
        assert load_columnar(str(tmp_path / "absent.col")) is None
        assert _fallback_delta(before) == 1

    def test_strict_load_raises_instead(self, kernel, tmp_path):
        path = self._saved(tmp_path)
        with open(path, "r+b") as handle:
            handle.truncate(10)
        with pytest.raises(ColumnarFormatError):
            ColumnarEventStore.load(path)

    def test_fallback_recovers_from_source_of_truth(
        self, kernel, tmp_path
    ):
        """The documented recovery path: when the columnar file is
        corrupt, reload from the JSONL source and rebuild the view."""
        store = _sample_store()
        jsonl = str(tmp_path / "events.jsonl")
        store.save_jsonl(jsonl)
        path = self._saved(tmp_path)
        with open(path, "r+b") as handle:
            handle.truncate(16)
        view = load_columnar(path)
        if view is None:
            recovered = EventStore.load_jsonl(jsonl)
            view = recovered.columnar()
        assert len(view) == len(store)
        assert view.event_at(0) == ("login", 100)
