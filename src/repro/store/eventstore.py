"""An in-memory temporal event store.

The paper's sequences come from databases of timed events ("stock
shares during a day, each access to a computer ..., bank
transactions"); this module provides that substrate: an appendable
store of typed, timestamped records with attributes, time/type indexes,
snapshot extraction for the mining layer, and JSON-lines persistence.

Appends may arrive out of time order (real feeds do); indexes are
rebuilt lazily at the first query after a write, so bulk loading stays
linear.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from typing import (
    Any,
    Callable,
    Dict,
    IO,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from ..mining.events import Event, EventSequence
from ..obs import obs_debug
from ..resilience.errors import EventValidationError, validate_event
from ..resilience.quarantine import Quarantine


class EventRecord:
    """One stored event: id, type, timestamp, and free-form attributes.

    Construction validates the event at the edge (non-empty string
    type, non-negative integer timestamp) with the shared
    :class:`~repro.resilience.EventValidationError`, so malformed
    input never corrupts the store's indexes.
    """

    __slots__ = ("record_id", "etype", "time", "attributes")

    def __init__(
        self,
        record_id: int,
        etype: str,
        time: int,
        attributes: Optional[Mapping[str, Any]] = None,
    ):
        validate_event(etype, time)
        self.record_id = record_id
        self.etype = etype
        self.time = time
        self.attributes = dict(attributes) if attributes else {}

    def to_event(self) -> Event:
        """The (type, time) projection used by matching and mining."""
        return Event(self.etype, self.time)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<EventRecord #%d %s@%d>" % (
            self.record_id,
            self.etype,
            self.time,
        )


class EventStore:
    """Appendable, queryable collection of event records."""

    def __init__(self):
        self._records: List[EventRecord] = []
        self._next_id = 0
        self._sorted = True  # records currently in time order
        self._times: List[int] = []
        self._by_type: Dict[str, List[int]] = {}
        self._by_id: Dict[int, EventRecord] = {}
        self._indexed = True
        self._columnar = None

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def append(
        self,
        etype: str,
        time: int,
        attributes: Optional[Mapping[str, Any]] = None,
    ) -> EventRecord:
        """Store one event; returns the record (with its id).

        In-order appends (the common case for feeds) extend the
        posting-list indexes incrementally in O(1) amortised; an
        out-of-order append marks them dirty and the next read rebuilds
        them once.
        """
        record = EventRecord(self._next_id, etype, time, attributes)
        self._next_id += 1
        if self._records and time < self._records[-1].time:
            self._sorted = False
            self._indexed = False
        self._records.append(record)
        self._columnar = None
        if self._indexed:
            position = len(self._records) - 1
            self._times.append(time)
            self._by_type.setdefault(etype, []).append(position)
            self._by_id[record.record_id] = record
            if obs_debug():
                self._check_index_invariants()
        return record

    def extend(
        self,
        events: Iterable[Union[Event, Tuple[str, int]]],
        quarantine: Optional[Quarantine] = None,
    ) -> int:
        """Bulk-append (type, time) pairs; returns the count added.

        Each event is validated at the edge.  Without a ``quarantine``
        the first malformed event aborts the batch with
        :class:`~repro.resilience.EventValidationError` (events before
        it stay appended, and the id map and cached views stay
        consistent with exactly those - the failed event never touches
        the indexes).  With one, every malformed event is recorded
        there - reason, raw payload, batch offset - and the batch
        continues (dead-letter semantics, shared with
        :meth:`load_jsonl` and :func:`repro.io.csvlog.read_events`).
        """
        count = 0
        for offset, event in enumerate(events):
            try:
                etype, time = event[0], event[1]
            except (IndexError, KeyError, TypeError) as exc:
                if quarantine is None:
                    raise
                quarantine.add(
                    "not a (type, time) pair: %s" % exc,
                    raw=repr(event),
                    line=offset,
                )
                continue
            try:
                self.append(etype, time)
            except EventValidationError as exc:
                if quarantine is None:
                    raise
                quarantine.add(str(exc), raw=repr(event), line=offset)
                continue
            count += 1
        return count

    # ------------------------------------------------------------------
    # Index maintenance
    # ------------------------------------------------------------------
    def _reindex(self) -> None:
        if not self._sorted:
            self._records.sort(key=lambda r: (r.time, r.record_id))
            self._sorted = True
        self._times = [record.time for record in self._records]
        self._by_type = {}
        self._by_id = {}
        for position, record in enumerate(self._records):
            self._by_type.setdefault(record.etype, []).append(position)
            self._by_id[record.record_id] = record
        self._indexed = True
        self._columnar = None
        if obs_debug():
            self._check_index_invariants()

    def _ensure_index(self) -> None:
        if not self._indexed:
            self._reindex()

    def _check_index_invariants(self) -> None:
        """Verify the incremental indexes against a from-scratch rebuild.

        O(n) per call, so it only runs under ``REPRO_OBS=debug``.
        Raises AssertionError on any divergence - the contract the
        incremental maintenance in :meth:`append` must uphold.
        """
        assert self._times == [r.time for r in self._records], (
            "time index diverged from records"
        )
        assert all(
            self._times[i] <= self._times[i + 1]
            for i in range(len(self._times) - 1)
        ), "time index not sorted"
        by_type: Dict[str, List[int]] = {}
        for position, record in enumerate(self._records):
            by_type.setdefault(record.etype, []).append(position)
        assert self._by_type == by_type, "posting lists diverged"
        assert self._by_id == {
            r.record_id: r for r in self._records
        }, "id map diverged"

    def columnar(self):
        """The cached columnar snapshot of current contents.

        The snapshot holds each record's ``(etype, time)``; positions in
        it are offsets into the time-sorted records (identical to
        :meth:`snapshot`'s sequence positions), so position ``i`` is
        the record ``list(store)[i]``.  Any write - including a failed
        one mid-batch - invalidates the cache, so a view is never stale
        relative to :meth:`get`.
        """
        self._ensure_index()
        if self._columnar is None:
            from .columnar import ColumnarEventStore

            self._columnar = ColumnarEventStore.from_events(
                (record.etype, record.time) for record in self._records
            )
        return self._columnar

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[EventRecord]:
        self._ensure_index()
        return iter(self._records)

    def types(self) -> List[str]:
        """Event types present, sorted."""
        self._ensure_index()
        return sorted(self._by_type)

    def count(self, etype: Optional[str] = None) -> int:
        """Total records, or records of one type."""
        self._ensure_index()
        if etype is None:
            return len(self._records)
        return len(self._by_type.get(etype, ()))

    def span(self) -> Tuple[int, int]:
        """(first, last) timestamps; raises on an empty store."""
        self._ensure_index()
        if not self._records:
            raise ValueError("empty store has no span")
        return self._times[0], self._times[-1]

    def query(
        self,
        types: Optional[Iterable[str]] = None,
        start: Optional[int] = None,
        stop: Optional[int] = None,
        where: Optional[Callable[[EventRecord], bool]] = None,
    ) -> List[EventRecord]:
        """Records filtered by type set, inclusive time range, predicate."""
        self._ensure_index()
        lo = 0 if start is None else bisect_left(self._times, start)
        hi = (
            len(self._records)
            if stop is None
            else bisect_right(self._times, stop)
        )
        allowed = frozenset(types) if types is not None else None
        result = []
        for record in self._records[lo:hi]:
            if allowed is not None and record.etype not in allowed:
                continue
            if where is not None and not where(record):
                continue
            result.append(record)
        return result

    def get(self, record_id: int) -> EventRecord:
        """Look up a record by id in O(1); raises KeyError when absent.

        Backed by the id map maintained in :meth:`_reindex` (rebuilt
        lazily after writes, like the time/type indexes).
        """
        self._ensure_index()
        return self._by_id[record_id]

    # ------------------------------------------------------------------
    # Mining integration
    # ------------------------------------------------------------------
    def snapshot(
        self,
        types: Optional[Iterable[str]] = None,
        start: Optional[int] = None,
        stop: Optional[int] = None,
    ) -> EventSequence:
        """An immutable EventSequence view for matching/mining."""
        return EventSequence(
            record.to_event()
            for record in self.query(types=types, start=start, stop=stop)
        )

    def mine(self, problem, system, **kwargs):
        """Run a discovery problem against the current contents."""
        from ..mining.discovery import discover

        return discover(problem, self.snapshot(), system, **kwargs)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_sequence(cls, sequence: EventSequence) -> "EventStore":
        """A store populated from an existing event sequence."""
        store = cls()
        store.extend(sequence)
        return store

    @classmethod
    def from_csv(
        cls, source, quarantine: Optional[Quarantine] = None
    ) -> "EventStore":
        """A store loaded from a two-column CSV event log.

        A ``quarantine`` makes the read tolerant of malformed rows;
        see :func:`repro.io.csvlog.read_events`.
        """
        from ..io.csvlog import read_events

        return cls.from_sequence(read_events(source, quarantine=quarantine))

    # ------------------------------------------------------------------
    # Persistence (JSON lines)
    # ------------------------------------------------------------------
    def save_jsonl(self, target: Union[str, IO]) -> None:
        """Write all records, one JSON object per line."""
        if isinstance(target, str):
            with open(target, "w") as handle:
                self.save_jsonl(handle)
            return
        self._ensure_index()
        for record in self._records:
            target.write(
                json.dumps(
                    {
                        "id": record.record_id,
                        "etype": record.etype,
                        "time": record.time,
                        "attributes": record.attributes,
                    },
                    sort_keys=True,
                )
                + "\n"
            )

    @classmethod
    def load_jsonl(
        cls,
        source: Union[str, IO],
        quarantine: Optional[Quarantine] = None,
    ) -> "EventStore":
        """Rebuild a store from :meth:`save_jsonl` output.

        Without a ``quarantine`` the load is strict: the first
        malformed line aborts it (historical behaviour).  With one,
        every malformed line (broken JSON, missing fields, bad types)
        is recorded there - line number, reason, raw text - and the
        load continues with the remaining records (dead-letter
        semantics, shared with :func:`repro.io.csvlog.read_events`).
        """
        if isinstance(source, str):
            with open(source) as handle:
                return cls.load_jsonl(handle, quarantine=quarantine)
        store = cls()
        max_id = -1
        for number, line in enumerate(source, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
                record = EventRecord(
                    int(payload["id"]),
                    payload["etype"],
                    int(payload["time"]),
                    payload.get("attributes"),
                )
            except (KeyError, TypeError, ValueError) as exc:
                if quarantine is None:
                    raise
                reason = (
                    "missing field %s" % exc
                    if isinstance(exc, KeyError)
                    else str(exc)
                )
                quarantine.add(reason, raw=line, line=number)
                continue
            if store._records and record.time < store._records[-1].time:
                store._sorted = False
            store._records.append(record)
            store._indexed = False
            max_id = max(max_id, record.record_id)
        store._next_id = max_id + 1
        return store
