"""Columnar store unit tests: construction, reads, kernels.

A view holds the ``(type, time)`` projection of its source as int64
columns; positions are the source's time-sorted positions, under both
the numpy and the pure-Python ``array`` kernel.
"""

import pytest

import repro.store.columnar as columnar_module
from repro.mining.events import Event, EventSequence
from repro.store import ColumnarEventStore, EventStore, columnar_kernel

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

    def test_sequence_positions_align(self, kernel):
        sequence = EventSequence(
            [Event("a", 5), Event("b", 5), Event("a", 9)]
        )
        view = ColumnarEventStore.from_sequence(sequence)
        for position in range(len(sequence)):
            assert view.event_at(position) == tuple(
                sequence[position]
            )

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
