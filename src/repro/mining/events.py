"""Events and event sequences (paper Section 2).

An event is a pair ``(event type, timestamp)`` with the timestamp a
non-negative integer (seconds of the absolute timeline).  An event
sequence is a time-ordered finite list of events; ties are kept in
insertion order.

A sequence is stored as columns: a type-id column over a vocabulary of
distinct type names, a time column, and each type's postings.  Every
constructor ends in the one column constructor
(:meth:`EventSequence.from_columns`), and :class:`Event` objects are
built only when a caller indexes or iterates the sequence; the mining
layer reads :meth:`~EventSequence.time_at`,
:meth:`~EventSequence.type_at` and the postings instead.

A sequence is immutable, so it builds its columnar view
(:meth:`EventSequence.columnar`, the layout the TAG runtime scans)
once and caches it; the view adopts the sequence's columns and
postings.  The parallel engine builds the view before it forks, and
its workers read the inherited copy.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Sequence,
    Set,
    Tuple,
)


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


def group_postings(
    type_ids: List[int], times: List[int], vocab: Sequence[str]
) -> Tuple[Dict[str, int], List[Postings]]:
    """Each type's postings over time-sorted columns, in one pass.

    Returns ``(index, by_type)``: ``by_type[tid]`` is the ``(positions,
    times)`` of type id ``tid`` (empty when no event has it), and
    ``index`` maps the name of every type that has events to its id.
    """
    positions: List[List[int]] = [[] for _ in vocab]
    add = [posting.append for posting in positions]
    for position, tid in enumerate(type_ids):
        add[tid](position)
    by_type = [
        (tuple(posting), tuple(map(times.__getitem__, posting)))
        for posting in positions
    ]
    index = {name: tid for tid, name in enumerate(vocab) if positions[tid]}
    return index, by_type


def _intern(
    names: Iterable[str], vocab: List[str], index: Dict[str, int]
) -> List[int]:
    """The type id of each name: its index in ``vocab``, which grows by
    the names it lacks (``index`` maps ``vocab``'s names to their ids)."""
    ids = []
    for name in names:
        tid = index.get(name)
        if tid is None:
            tid = index[name] = len(vocab)
            vocab.append(name)
        ids.append(tid)
    return ids


class EventSequence:
    """An immutable, time-sorted sequence of events with index helpers.

    Provides the access paths the mining layer needs: events by type,
    events in a half-open time window, and positional iteration.
    """

    def __init__(self, events: Iterable[Event]):
        names: List[str] = []
        times: List[int] = []
        for event in events:
            etype, time = (
                event if isinstance(event, Event) else Event(*event)
            )
            names.append(etype)
            times.append(time)
        vocab: List[str] = []
        self._adopt(_intern(names, vocab, {}), times, vocab)

    @classmethod
    def from_columns(
        cls,
        type_ids: Sequence[int],
        times: Sequence[int],
        vocab: Sequence[str],
    ) -> "EventSequence":
        """The column constructor: event ``i`` is
        ``(vocab[type_ids[i]], times[i])``.

        ``vocab`` lists distinct names and may name types no event has.
        The columns are adopted, not copied: the caller hands them over.
        They are sorted stably by time only when they are out of order,
        so tied timestamps keep their input order.
        """
        sequence = cls.__new__(cls)
        sequence._adopt(type_ids, times, vocab)
        return sequence

    def _adopt(self, type_ids, times, vocab) -> None:
        """Check, sort if needed, and index the columns (one pass each)."""
        if type(times) is not list:
            times = list(times)
        if type(type_ids) is not list:
            type_ids = list(type_ids)
        if len(type_ids) != len(times):
            raise ValueError("type_ids and times must have equal length")
        vocab = tuple(vocab)
        if times and min(times) < 0:
            first = next(i for i, t in enumerate(times) if t < 0)
            raise ValueError(
                "negative timestamp in (%s, %d)"
                % (vocab[type_ids[first]], times[first])
            )
        if times != sorted(times):
            order = sorted(range(len(times)), key=times.__getitem__)
            times = list(map(times.__getitem__, order))
            type_ids = list(map(type_ids.__getitem__, order))
        self._times: List[int] = times
        self._type_ids: List[int] = type_ids
        self._vocab: Tuple[str, ...] = vocab
        self._index, self._by_type = group_postings(type_ids, times, vocab)
        self._columnar = None

    # ------------------------------------------------------------------
    # Sequence protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._times)

    def __iter__(self) -> Iterator[Event]:
        return map(Event, self._type_names(), self._times)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(
                map(
                    Event,
                    map(self._vocab.__getitem__, self._type_ids[index]),
                    self._times[index],
                )
            )
        return Event(
            self._vocab[self._type_ids[index]], self._times[index]
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EventSequence):
            return NotImplemented
        return self._times == other._times and list(
            self._type_names()
        ) == list(other._type_names())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        preview = ", ".join(str(e) for e in self[:4])
        suffix = ", ..." if len(self) > 4 else ""
        return "<EventSequence %d events [%s%s]>" % (
            len(self),
            preview,
            suffix,
        )

    def _type_names(self) -> Iterator[str]:
        return map(self._vocab.__getitem__, self._type_ids)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def time_at(self, index: int) -> int:
        """Timestamp of the event at ``index`` (no :class:`Event` built)."""
        return self._times[index]

    def type_at(self, index: int) -> str:
        """Event type of the event at ``index`` (no :class:`Event` built)."""
        return self._vocab[self._type_ids[index]]

    def types(self) -> Set[str]:
        """The set of event types occurring in the sequence."""
        return set(self._index)

    def postings(self, etype: str) -> Postings:
        """``(positions, times)`` of all events of a type, in time order.

        ``times[k]`` is the timestamp of the event at ``positions[k]``;
        both tuples are built once with the sequence, so a bisect on
        ``times`` finds the first occurrence at or after an instant
        without copying anything.
        """
        tid = self._index.get(etype)
        return _NO_POSTINGS if tid is None else self._by_type[tid]

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
        return self[lo:hi]

    def has_type_in_window(self, etype: str, start: int, stop: int) -> bool:
        """Is there an event of ``etype`` with timestamp in [start, stop]?

        One O(log occurrences) bisect on the per-type timestamp list -
        the hot primitive behind root filtering, candidate screening
        and anchor viability.
        """
        times = self.postings(etype)[1]
        pos = bisect_left(times, start)
        return pos < len(times) and times[pos] <= stop

    def count_type_in_window(self, etype: str, start: int, stop: int) -> int:
        """Number of ``etype`` events with timestamp in [start, stop]."""
        times = self.postings(etype)[1]
        if stop < start:
            return 0
        return bisect_right(times, stop) - bisect_left(times, start)

    def columnar(self) -> "ColumnarEventStore":
        """The cached columnar view of this sequence.

        The view adopts the sequence's time column, type ids,
        vocabulary and postings, so positions in the view equal
        positions in the sequence and nothing is re-derived.  Built
        once and cached - the sequence is immutable.
        """
        if self._columnar is None:
            from ..store.columnar import ColumnarEventStore

            self._columnar = ColumnarEventStore(
                self._times,
                self._type_ids,
                self._vocab,
                postings=(self._index, self._by_type),
            )
        return self._columnar

    def plan_cache(self) -> Dict[object, object]:
        """The per-sequence memo of matcher plans: the columnar view's
        (:meth:`~repro.store.columnar.ColumnarEventStore.plan_cache`),
        built on first use.  It lives and dies with the sequence."""
        view = self._columnar
        if view is None:
            view = self.columnar()
        return view.plan_cache()

    def gathered(self, positions: Sequence[int]) -> "EventSequence":
        """A new sequence of the events at ascending ``positions``."""
        return EventSequence.from_columns(
            list(map(self._type_ids.__getitem__, positions)),
            list(map(self._times.__getitem__, positions)),
            self._vocab,
        )

    def filtered(self, keep) -> "EventSequence":
        """A new sequence with the events satisfying the predicate."""
        return self.gathered(
            [position for position, event in enumerate(self) if keep(event)]
        )

    def merged_with(self, other: Iterable[Event]) -> "EventSequence":
        """The union of two sequences (duplicates kept, time-merged;
        ties keep this sequence's events first)."""
        if not isinstance(other, EventSequence):
            other = EventSequence(other)
        vocab = list(self._vocab)
        remap = _intern(
            other._vocab, vocab, {name: tid for tid, name in enumerate(vocab)}
        )
        return EventSequence.from_columns(
            self._type_ids + list(map(remap.__getitem__, other._type_ids)),
            self._times + other._times,
            vocab,
        )

    def shifted(self, delta: int) -> "EventSequence":
        """All timestamps moved by ``delta`` seconds (must stay >= 0)."""
        return EventSequence.from_columns(
            self._type_ids, [t + delta for t in self._times], self._vocab
        )

    def relabelled(self, mapping: Dict[str, str]) -> "EventSequence":
        """Event types renamed through a mapping (others unchanged)."""
        vocab: List[str] = []
        remap = _intern(
            [mapping.get(name, name) for name in self._vocab], vocab, {}
        )
        return EventSequence.from_columns(
            list(map(remap.__getitem__, self._type_ids)), self._times, vocab
        )

    def span(self) -> Tuple[int, int]:
        """(first, last) timestamps; raises on an empty sequence."""
        if not self._times:
            raise ValueError("empty sequence has no span")
        return self._times[0], self._times[-1]
