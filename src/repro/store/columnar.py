"""Columnar event storage: the int64 columns stored-sequence matching runs on.

The object-based :class:`~repro.store.eventstore.EventStore` keeps one
Python object per event, which caps matching throughput around 10^5
events.  This module stores the ``(type, time)`` projection of the same
events as two parallel int64 columns - times and type ids - plus the
anchor-screening structures as *column offsets*: per-type posting
lists (positions into the time-sorted columns) and their times.  The
TAG runtime (:mod:`repro.automata.dense`) sweeps these
columns with batched select/gather operations instead of per-event
Python dispatch; it is the only runtime that matches over a stored
sequence, with the object NDFA simulation in
:mod:`repro.automata.matching` kept as the reference.

``REPRO_NO_NUMPY`` (or a missing numpy) selects the ``fallback``
kernel: ``array('q')`` columns and bisect scans instead of vectorized
searchsorted.  Both kernels are bit-identical;
``tests/differential/test_columnar_vs_object.py`` holds them against
the reference.

A view is immutable and built in memory from its source
(:meth:`~repro.mining.events.EventSequence.columnar`,
:meth:`~repro.store.eventstore.EventStore.columnar`); the parallel
engine's forked workers read the parent's view, which they inherit
with the address space.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import (
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from .._numpy import np as _np
from ..obs import counter

#: One anchor requirement: an event of ``etype`` must exist with a
#: timestamp in ``[anchor_time + lo, anchor_time + hi]``.
Requirement = Tuple[str, int, int]

_BUILDS = counter("repro_columnar_builds_total", "Columnar views built")
_EVENTS = counter(
    "repro_columnar_events_total", "Events resident in columnar views"
)
_BATCH_SCREENS = counter(
    "repro_columnar_screens_total",
    "Batched anchor-viability screens over whole columns",
)


def columnar_kernel() -> str:
    """The kernel the columns use: ``numpy`` or ``fallback``."""
    return "numpy" if _np is not None else "fallback"


def _column(values: Sequence[int]):
    """An int64 column from a list of Python ints."""
    if _np is not None:
        return _np.asarray(values, dtype=_np.int64)
    from array import array

    return array("q", values)


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
        "kernel",
    )

    def __init__(
        self,
        times: Sequence[int],
        type_ids: Sequence[int],
        type_vocab: Sequence[str],
    ) -> None:
        n = len(times)
        if len(type_ids) != n:
            raise ValueError("times and type_ids must have equal length")
        self._times = _column(times)
        self._type_ids = _column(type_ids)
        if _np is not None:
            if n and bool(_np.any(self._times[1:] < self._times[:-1])):
                raise ValueError("times column must be non-decreasing")
        else:
            for i in range(1, n):
                if times[i] < times[i - 1]:
                    raise ValueError("times column must be non-decreasing")
        self._type_vocab: Tuple[str, ...] = tuple(type_vocab)
        self._type_index: Dict[str, int] = {
            name: tid for tid, name in enumerate(self._type_vocab)
        }
        self.kernel = columnar_kernel()
        # Posting lists as column offsets (per-type positions into the
        # time-sorted columns): one vectorized group-by under numpy,
        # one pass under the fallback kernel.
        self._postings: Dict[int, object] = {}
        self._posting_times: Dict[int, object] = {}
        if _np is not None:
            for tid in _np.unique(self._type_ids):
                tid = int(tid)
                positions = _np.nonzero(self._type_ids == tid)[0].astype(
                    _np.int64
                )
                self._postings[tid] = positions
                self._posting_times[tid] = self._times[positions]
        else:
            positions: Dict[int, List[int]] = {}
            ptimes: Dict[int, List[int]] = {}
            for position in range(n):
                tid = self._type_ids[position]
                positions.setdefault(tid, []).append(position)
                ptimes.setdefault(tid, []).append(
                    int(self._times[position])
                )
            for tid, values in positions.items():
                self._postings[tid] = _column(values)
                self._posting_times[tid] = _column(ptimes[tid])
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
        """Build from an :class:`~repro.mining.events.EventSequence`
        (positions match the sequence's indices)."""
        return cls.from_events((e.etype, e.time) for e in sequence)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._times)

    def time_at(self, position: int) -> int:
        return int(self._times[position])

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
        if not len(self._times):
            raise ValueError("empty store has no span")
        return int(self._times[0]), int(self._times[-1])

    def postings(self, etype: str) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """(positions, times) of one type - the posting list as column
        offsets (positions equal the source sequence's indices)."""
        tid = self._type_index.get(etype)
        if tid is None:
            return (), ()
        return (
            tuple(int(p) for p in self._postings[tid]),
            tuple(int(t) for t in self._posting_times[tid]),
        )

    # ------------------------------------------------------------------
    # Batched anchor screening (whole columns at once)
    # ------------------------------------------------------------------
    def screen_anchors(
        self,
        anchor_times: Sequence[int],
        requirements: Sequence[Requirement],
    ) -> List[bool]:
        """Anchor viability for a whole anchor column in one sweep.

        Returns one boolean per anchor, in input order: True iff every
        requirement ``(etype, lo, hi)`` is witnessed by an event of that
        type in ``[anchor + lo, anchor + hi]``.  Requirements come from
        sound over-approximations (propagated windows), so False proves
        no match anchored there; True proves nothing.  Evaluated as
        vectorized searchsorted over the posting columns instead of one
        probe per (anchor, requirement).
        """
        n = len(anchor_times)
        if not requirements:
            return [True] * n
        _BATCH_SCREENS.inc()
        if _np is not None:
            anchors = _np.asarray(anchor_times, dtype=_np.int64)
            ok = _np.ones(n, dtype=bool)
            for etype, lo, hi in requirements:
                tid = self._type_index.get(etype)
                if tid is None:
                    ok[:] = False
                    break
                times = self._posting_times[tid]
                idx = _np.searchsorted(times, anchors + lo, side="left")
                hit = idx < len(times)
                witness = _np.where(hit, times[_np.minimum(
                    idx, len(times) - 1
                )], 0)
                ok &= hit & (witness <= anchors + hi)
            return ok.tolist()
        ok = [True] * n
        for etype, lo, hi in requirements:
            tid = self._type_index.get(etype)
            if tid is None:
                return [False] * n
            times = self._posting_times[tid]
            size = len(times)
            for i in range(n):
                if not ok[i]:
                    continue
                j = bisect_left(times, anchor_times[i] + lo)
                ok[i] = j < size and times[j] <= anchor_times[i] + hi
        return ok

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
        if not requirements:
            return list(positions)
        mask = self.screen_anchors(times, requirements)
        return [position for position, keep in zip(positions, mask) if keep]

    def plan_cache(self) -> Dict[object, object]:
        """Per-store memo used by the TAG runtime (keyed per plan)."""
        return self._plan_cache
