"""Columnar store unit tests: construction, reads, screening.

A view holds the ``(type, time)`` projection of its source as integer
columns; positions are the source's time-sorted positions, with numpy
present or hidden.
"""

import pytest

from repro.mining.events import Event, EventSequence
from repro.store import ColumnarEventStore, EventStore


def _sample_store():
    store = EventStore()
    store.append("login", 100, {"user": "ada"})
    store.append("login", 164)
    store.append("alert", 164, {"level": 3})
    store.append("logout", 4000)
    return store


# ----------------------------------------------------------------------
# Construction and reads
# ----------------------------------------------------------------------
class TestConstruction:
    def test_round_trip_from_store(self, closure_kernel):
        store = _sample_store()
        view = store.columnar()
        assert len(view) == 4
        assert view.types() == ["alert", "login", "logout"]
        assert view.count("login") == 2
        assert view.count() == 4
        assert view.span() == (100, 4000)
        assert view.event_at(0) == ("login", 100)
        # Position i is the store's i-th record, whatever its attributes.
        assert [view.event_at(i) for i in range(len(view))] == [
            (record.etype, record.time) for record in store
        ]
        assert view.event_at(2) == (store.get(2).etype, store.get(2).time)

    def test_sequence_positions_align(self, closure_kernel):
        sequence = EventSequence(
            [Event("a", 5), Event("b", 5), Event("a", 9)]
        )
        view = ColumnarEventStore.from_sequence(sequence)
        for position in range(len(sequence)):
            assert view.event_at(position) == tuple(
                sequence[position]
            )

    def test_unsorted_times_rejected(self, closure_kernel):
        with pytest.raises(ValueError):
            ColumnarEventStore([5, 3], [0, 0], ["a"])

    def test_zero_event_store(self, closure_kernel):
        view = ColumnarEventStore.from_events([])
        assert len(view) == 0
        assert view.types() == []
        assert view.count("a") == 0
        assert view.postings("a") == ((), ())
        assert view.screen_anchors([], [("a", 0, 1)]) == []
        with pytest.raises(ValueError):
            view.span()


class TestScreening:
    def test_position_sets_evaluate_each_requirement_once(self, monkeypatch):
        view = ColumnarEventStore.from_events(
            [("a", 0), ("b", 30), ("c", 95), ("a", 100), ("b", 160)]
        )
        anchors = [0, 100, 200]
        sets = [
            [("b", 0, 60)],
            [("b", 0, 60), ("c", -10, 0)],
            [("c", -10, 0), ("z", 0, 1)],
            [],
        ]
        witnessed = []
        original = ColumnarEventStore._witnessed

        def counting(self, anchor_times, requirement):
            witnessed.append(requirement)
            return original(self, anchor_times, requirement)

        monkeypatch.setattr(ColumnarEventStore, "_witnessed", counting)
        shared = view.viable_position_sets([7, 8, 9], anchors, sets)
        assert shared == [[7, 8], [8], [], [7, 8, 9]]
        assert sorted(witnessed) == sorted({r for rs in sets for r in rs})
        assert shared == [
            view.viable_positions([7, 8, 9], anchors, r) for r in sets
        ]
