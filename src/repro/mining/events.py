"""Events and event sequences (paper Section 2).

An event is a pair ``(event type, timestamp)`` with the timestamp a
non-negative integer (seconds of the absolute timeline).  An event
sequence is a time-ordered finite list of events; ties are kept in
insertion order.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, Iterable, Iterator, List, NamedTuple, Set, Tuple


#: ``(positions, times)`` of one event type - see
#: :meth:`EventSequence.postings`.
Postings = Tuple[Tuple[int, ...], Tuple[int, ...]]

_NO_POSTINGS: Postings = ((), ())


class Event(NamedTuple):
    """A typed, timestamped occurrence."""

    etype: str
    time: int

    def __str__(self) -> str:
        return "(%s, %d)" % (self.etype, self.time)


class EventSequence:
    """An immutable, time-sorted sequence of events with index helpers.

    Provides the access paths the mining layer needs: events by type,
    events in a half-open time window, and positional iteration.
    """

    def __init__(self, events: Iterable[Event]):
        events = [
            e if isinstance(e, Event) else Event(*e) for e in events
        ]
        for event in events:
            if event.time < 0:
                raise ValueError("negative timestamp in %s" % (event,))
        self._events: List[Event] = sorted(events, key=lambda e: e.time)
        self._times: List[int] = [e.time for e in self._events]
        by_type: Dict[str, Tuple[List[int], List[int]]] = {}
        for index, event in enumerate(self._events):
            positions, times = by_type.setdefault(event.etype, ([], []))
            positions.append(index)
            times.append(event.time)
        self._postings: Dict[str, Postings] = {
            etype: (tuple(positions), tuple(times))
            for etype, (positions, times) in by_type.items()
        }
        self._columnar = None

    # ------------------------------------------------------------------
    # Sequence protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._events)

    def __getitem__(self, index: int) -> Event:
        return self._events[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EventSequence):
            return NotImplemented
        return self._events == other._events

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        preview = ", ".join(str(e) for e in self._events[:4])
        suffix = ", ..." if len(self._events) > 4 else ""
        return "<EventSequence %d events [%s%s]>" % (
            len(self._events),
            preview,
            suffix,
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def types(self) -> Set[str]:
        """The set of event types occurring in the sequence."""
        return set(self._postings)

    def postings(self, etype: str) -> Postings:
        """``(positions, times)`` of all events of a type, in time order.

        ``times[k]`` is the timestamp of the event at ``positions[k]``;
        both tuples are built once with the sequence, so a bisect on
        ``times`` finds the first occurrence at or after an instant
        without copying anything.
        """
        return self._postings.get(etype, _NO_POSTINGS)

    def occurrence_indices(self, etype: str) -> Tuple[int, ...]:
        """Positions of all events of a type, in time order."""
        return self.postings(etype)[0]

    def count(self, etype: str) -> int:
        """Number of occurrences of a type."""
        return len(self.postings(etype)[0])

    def first_index_at_or_after(self, time: int) -> int:
        """Position of the first event with timestamp >= ``time``."""
        return bisect_left(self._times, time)

    def last_index_at_or_before(self, time: int) -> int:
        """Position just past the last event with timestamp <= ``time``."""
        return bisect_right(self._times, time)

    def window(self, start: int, stop: int) -> List[Event]:
        """Events with ``start <= time <= stop`` (inclusive bounds)."""
        lo = bisect_left(self._times, start)
        hi = bisect_right(self._times, stop)
        return self._events[lo:hi]

    def has_type_in_window(self, etype: str, start: int, stop: int) -> bool:
        """Is there an event of ``etype`` with timestamp in [start, stop]?

        One O(log occurrences) bisect on the per-type timestamp list -
        the hot primitive behind root filtering, candidate screening
        and anchor viability.
        """
        times = self._postings.get(etype, _NO_POSTINGS)[1]
        pos = bisect_left(times, start)
        return pos < len(times) and times[pos] <= stop

    def count_type_in_window(self, etype: str, start: int, stop: int) -> int:
        """Number of ``etype`` events with timestamp in [start, stop]."""
        times = self._postings.get(etype, _NO_POSTINGS)[1]
        if stop < start:
            return 0
        return bisect_right(times, stop) - bisect_left(times, start)

    def columnar(self) -> "ColumnarEventStore":
        """The cached columnar view of this sequence.

        Positions in the view equal positions in the sequence (both are
        time-sorted with ties in insertion order), so the TAG runtime
        and the object reference matcher agree index for index.  Built
        once and cached - the sequence is immutable.
        """
        if self._columnar is None:
            from ..store.columnar import ColumnarEventStore

            self._columnar = ColumnarEventStore.from_sequence(self)
        return self._columnar

    def adopt_columnar(self, store: "ColumnarEventStore") -> None:
        """Install an externally built columnar view for this sequence.

        The parallel engine's workers attach to the parent's columns
        over shared memory (:meth:`~repro.store.columnar.
        ColumnarEventStore.to_shared`) and adopt the attached store
        here instead of rebuilding it.  The store must hold exactly
        this sequence's events in order - positions are the contract
        every consumer relies on - so only the event count is cheap
        enough to verify eagerly.
        """
        if len(store) != len(self._events):
            raise ValueError(
                "columnar view holds %d events, sequence holds %d"
                % (len(store), len(self._events))
            )
        self._columnar = store

    def filtered(self, keep) -> "EventSequence":
        """A new sequence with the events satisfying the predicate."""
        return EventSequence([e for e in self._events if keep(e)])

    def merged_with(self, other: "EventSequence") -> "EventSequence":
        """The union of two sequences (duplicates kept, time-merged)."""
        return EventSequence(list(self._events) + list(other))

    def shifted(self, delta: int) -> "EventSequence":
        """All timestamps moved by ``delta`` seconds (must stay >= 0)."""
        return EventSequence(
            Event(e.etype, e.time + delta) for e in self._events
        )

    def relabelled(self, mapping: Dict[str, str]) -> "EventSequence":
        """Event types renamed through a mapping (others unchanged)."""
        return EventSequence(
            Event(mapping.get(e.etype, e.etype), e.time)
            for e in self._events
        )

    def span(self) -> Tuple[int, int]:
        """(first, last) timestamps; raises on an empty sequence."""
        if not self._events:
            raise ValueError("empty sequence has no span")
        return self._times[0], self._times[-1]
