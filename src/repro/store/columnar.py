"""Columnar event storage: the columns stored-sequence matching runs on.

The object-based :class:`~repro.store.eventstore.EventStore` keeps one
Python object per event, which caps matching throughput around 10^5
events.  This module stores the ``(type, time)`` projection of the same
events as two parallel integer columns - times and type ids - plus the
anchor-screening structures as *column offsets*: per-type posting
lists (positions into the time-sorted columns) and their times.  The
TAG runtime (:mod:`repro.automata.dense`) sweeps these
columns with batched select/gather operations instead of per-event
Python dispatch; it is the only runtime that matches over a stored
sequence, with the object NDFA simulation in
:mod:`repro.automata.matching` kept as the reference.

The time and type-id columns are lists and each type's postings a
pair of tuples, grouped in one pass by
:func:`~repro.mining.events.group_postings`; anchor screening bisects
a requirement's posting times at most once per anchor.  No vector
library is involved (at mining sizes numpy's import and per-call
overhead cost more than its vector kernels saved).
``tests/differential/test_columnar_vs_object.py`` holds the view
against the reference.

A view is immutable and built in memory from its source.  A
sequence's view (:meth:`~repro.mining.events.EventSequence.columnar`)
adopts the columns and postings the sequence already holds; an event
store's (:meth:`~repro.store.eventstore.EventStore.columnar`) groups
its records' columns once.  The parallel
engine's forked workers read the parent's view, which they inherit
with the address space.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import compress
from operator import and_
from typing import (
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..mining.events import Postings, group_postings
from ..obs import counter

#: One anchor requirement: an event of ``etype`` must exist with a
#: timestamp in ``[anchor_time + lo, anchor_time + hi]``.
Requirement = Tuple[str, int, int]

#: A source's own grouping of its columns: type name -> type id for the
#: types present, and per type id its postings (see
#: :func:`~repro.mining.events.group_postings`).
PostingIndex = Tuple[Dict[str, int], List[Postings]]

_BUILDS = counter("repro_columnar_builds_total", "Columnar views built")
_EVENTS = counter(
    "repro_columnar_events_total", "Events resident in columnar views"
)
_BATCH_SCREENS = counter(
    "repro_columnar_screens_total",
    "Batched anchor-viability screens over whole columns",
)


class ColumnarEventStore:
    """An immutable, time-sorted columnar snapshot of an event set.

    Positions are *global* offsets into the time-sorted columns - the
    same positions the object-based :class:`~repro.mining.events.
    EventSequence` exposes, so the two backends agree index for index.
    """

    __slots__ = (
        "__weakref__",
        "_times",
        "_type_ids",
        "_type_vocab",
        "_type_index",
        "_postings",
        "_posting_times",
        "_plan_cache",
    )

    def __init__(
        self,
        times: Sequence[int],
        type_ids: Sequence[int],
        type_vocab: Sequence[str],
        postings: Optional[PostingIndex] = None,
    ) -> None:
        """A view of time-sorted columns: ``times[i]`` and
        ``type_vocab[type_ids[i]]`` are event ``i``.  Without
        ``postings`` the columns are copied, checked and grouped here;
        with a source's own grouping they are adopted as they are."""
        n = len(times)
        if len(type_ids) != n:
            raise ValueError("times and type_ids must have equal length")
        self._type_vocab: Tuple[str, ...] = tuple(type_vocab)
        if postings is not None:
            self._times = times
            self._type_ids = type_ids
        else:
            self._times = list(times)
            self._type_ids = list(type_ids)
            if self._times != sorted(self._times):
                raise ValueError("times column must be non-decreasing")
            postings = group_postings(
                self._type_ids, self._times, self._type_vocab
            )
        # Posting lists as column offsets (per-type positions into the
        # time-sorted columns) and their times, indexed by type id.
        self._type_index, by_type = postings
        self._postings = [positions for positions, _ in by_type]
        self._posting_times = [stamps for _, stamps in by_type]
        self._plan_cache: Dict[object, object] = {}
        _BUILDS.inc()
        _EVENTS.add(n)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_events(
        cls, events: Iterable[Tuple[str, int]]
    ) -> "ColumnarEventStore":
        """Build from time-ordered ``(etype, time)`` pairs."""
        vocab: List[str] = []
        index: Dict[str, int] = {}
        times: List[int] = []
        tids: List[int] = []
        for etype, time in events:
            tid = index.get(etype)
            if tid is None:
                tid = len(vocab)
                index[etype] = tid
                vocab.append(etype)
            times.append(time)
            tids.append(tid)
        return cls(times, tids, vocab)

    @classmethod
    def from_sequence(cls, sequence) -> "ColumnarEventStore":
        """The view of an :class:`~repro.mining.events.EventSequence`:
        its cached :meth:`~repro.mining.events.EventSequence.columnar`,
        which adopts the sequence's columns and postings (positions
        match the sequence's indices)."""
        return sequence.columnar()

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._times)

    def time_at(self, position: int) -> int:
        return self._times[position]

    def time_column(self) -> List[int]:
        """The whole time column, indexed by global position (the
        view's own list: read it, do not mutate it)."""
        return self._times

    def type_at(self, position: int) -> str:
        return self._type_vocab[self._type_ids[position]]

    def event_at(self, position: int) -> Tuple[str, int]:
        return self.type_at(position), self.time_at(position)

    def types(self) -> List[str]:
        """Event types present, sorted."""
        return sorted(self._type_index)

    def count(self, etype: Optional[str] = None) -> int:
        if etype is None:
            return len(self._times)
        tid = self._type_index.get(etype)
        if tid is None:
            return 0
        return len(self._postings[tid])

    def span(self) -> Tuple[int, int]:
        if not self._times:
            raise ValueError("empty store has no span")
        return self._times[0], self._times[-1]

    def postings(self, etype: str) -> Postings:
        """(positions, times) of one type - the posting list as column
        offsets (positions equal the source sequence's indices)."""
        tid = self._type_index.get(etype)
        if tid is None:
            return (), ()
        return self._postings[tid], self._posting_times[tid]

    # ------------------------------------------------------------------
    # Batched anchor screening (whole columns at once)
    # ------------------------------------------------------------------
    def screen_anchors(
        self,
        anchor_times: Sequence[int],
        requirements: Sequence[Requirement],
        *,
        _masks: Optional[Dict[Requirement, List[bool]]] = None,
    ) -> List[bool]:
        """Anchor viability for a whole anchor column in one sweep.

        Returns one boolean per anchor, in input order: True iff every
        requirement ``(etype, lo, hi)`` is witnessed by an event of that
        type in ``[anchor + lo, anchor + hi]``.  Requirements come from
        sound over-approximations (propagated windows), so False proves
        no match anchored there; True proves nothing.  Each requirement
        is one pass over the anchors against its type's posting times.
        ``_masks`` is :meth:`viable_position_sets`' memo of requirement
        masks over this one anchor column.
        """
        n = len(anchor_times)
        if not requirements:
            return [True] * n
        _BATCH_SCREENS.inc()
        if _masks is None:
            _masks = {}
        ok = None
        for requirement in requirements:
            mask = _masks.get(requirement)
            if mask is None:
                mask = _masks[requirement] = self._witnessed(
                    anchor_times, requirement
                )
            ok = mask if ok is None else map(and_, ok, mask)
        return list(ok)

    def _witnessed(
        self, anchor_times: Sequence[int], requirement: Requirement
    ) -> List[bool]:
        """Per anchor: is ``requirement`` witnessed in its window?

        At most one bisection per anchor finds the first posting at or
        after the window start.  On a time-sorted anchor column it
        starts from the previous anchor's answer, and is skipped while
        that answer is not before the new start.
        """
        etype, lo, hi = requirement
        tid = self._type_index.get(etype)
        times = self._posting_times[tid] if tid is not None else ()
        if not times:
            return [False] * len(anchor_times)
        size = len(times)
        mask = []
        j = 0
        previous = float("inf")
        for anchor in anchor_times:
            start = anchor + lo
            if start < previous:
                j = bisect_left(times, start)
            elif j < size and times[j] < start:
                j = bisect_left(times, start, j)
            previous = start
            mask.append(j < size and times[j] <= anchor + hi)
        return mask

    def viable_positions(
        self,
        positions: Sequence[int],
        times: Sequence[int],
        requirements: Sequence[Requirement],
    ) -> List[int]:
        """The anchors passing :meth:`screen_anchors`, as positions.

        ``positions[i]`` is the anchor at ``times[i]``; survivors keep
        their input order, and with no requirements every anchor is
        viable (nothing to refute, no screen runs).
        """
        (viable,) = self.viable_position_sets(
            positions, times, (requirements,)
        )
        return viable

    def viable_position_sets(
        self,
        positions: Sequence[int],
        times: Sequence[int],
        requirement_sets: Sequence[Sequence[Requirement]],
    ) -> List[List[int]]:
        """:meth:`viable_positions` for each requirement set, over one
        anchor column: a requirement the sets share is evaluated once.
        """
        masks: Dict[Requirement, List[bool]] = {}
        return [
            list(
                compress(
                    positions,
                    self.screen_anchors(times, requirements, _masks=masks),
                )
            )
            if requirements
            else list(positions)
            for requirements in requirement_sets
        ]

    def plan_cache(self) -> Dict[object, object]:
        """Per-store memo of plans over this store: the TAG runtime's
        column plans and the Section-3 matcher's pattern plans and tick
        columns (:mod:`repro.automata.structmatch`), keyed per plan."""
        return self._plan_cache
