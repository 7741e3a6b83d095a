"""Columnar event storage: the int64 columns stored-sequence matching runs on.

The object-based :class:`~repro.store.eventstore.EventStore` keeps one
Python object per event, which caps matching throughput around 10^5
events.  This module stores the same data as four parallel int64
columns - times, type ids, attribute codes, record ids - plus the
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

Stores larger than RAM can be saved with :meth:`ColumnarEventStore.
save` and reopened memory-mapped; a corrupt or truncated file makes
:func:`load_columnar` return None so the caller rebuilds the view from
its source of truth, counted by ``repro_columnar_fallback_total``.
"""

from __future__ import annotations

import json
import os
import sys
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
from ..obs import counter, span

#: One anchor requirement: an event of ``etype`` must exist with a
#: timestamp in ``[anchor_time + lo, anchor_time + hi]``.
Requirement = Tuple[str, int, int]

#: Sentinel for "no attributes" in the attribute-code column.
NO_ATTRS = 0

#: File magic of the persisted column format.
MAGIC = b"RPCOL1\n"

_BUILDS = counter("repro_columnar_builds_total", "Columnar views built")
_EVENTS = counter(
    "repro_columnar_events_total", "Events resident in columnar views"
)
_FALLBACKS = counter(
    "repro_columnar_fallback_total",
    "Column-file loads and shared-memory attaches that fell back to "
    "rebuilding or inheriting the view",
)
_BATCH_SCREENS = counter(
    "repro_columnar_screens_total",
    "Batched anchor-viability screens over whole columns",
)
_SHM_ATTACHES = counter(
    "repro_shm_attach_total",
    "Shared-memory column attaches by pool workers",
)


class ColumnarFormatError(ValueError):
    """A persisted column file is malformed (wrong magic, truncated,
    undecodable header, or size mismatch)."""


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
        "_attr_codes",
        "_record_ids",
        "_type_vocab",
        "_type_index",
        "_attr_vocab",
        "_postings",
        "_posting_times",
        "_plan_cache",
        "_shared",
        "kernel",
    )

    def __init__(
        self,
        times: Sequence[int],
        type_ids: Sequence[int],
        type_vocab: Sequence[str],
        attr_codes: Optional[Sequence[int]] = None,
        attr_vocab: Optional[Sequence[str]] = None,
        record_ids: Optional[Sequence[int]] = None,
    ) -> None:
        n = len(times)
        if len(type_ids) != n:
            raise ValueError("times and type_ids must have equal length")
        self._times = times if _is_column(times) else _column(times)
        self._type_ids = (
            type_ids if _is_column(type_ids) else _column(type_ids)
        )
        if _np is not None and isinstance(self._times, _np.ndarray):
            if n and bool(_np.any(self._times[1:] < self._times[:-1])):
                raise ValueError("times column must be non-decreasing")
        else:
            for i in range(1, n):
                if times[i] < times[i - 1]:
                    raise ValueError("times column must be non-decreasing")
        self._attr_codes = (
            attr_codes
            if attr_codes is not None and _is_column(attr_codes)
            else _column(attr_codes if attr_codes is not None else [0] * n)
        )
        self._record_ids = (
            record_ids
            if record_ids is not None and _is_column(record_ids)
            else _column(
                record_ids if record_ids is not None else range(n)
            )
        )
        self._type_vocab: Tuple[str, ...] = tuple(type_vocab)
        self._type_index: Dict[str, int] = {
            name: tid for tid, name in enumerate(self._type_vocab)
        }
        self._attr_vocab: Tuple[str, ...] = tuple(
            attr_vocab if attr_vocab is not None else ("",)
        )
        self.kernel = columnar_kernel()
        # Posting lists as column offsets (per-type positions into the
        # time-sorted columns): one vectorized group-by under numpy,
        # one pass under the fallback kernel.
        self._postings: Dict[int, object] = {}
        self._posting_times: Dict[int, object] = {}
        if _np is not None and isinstance(self._type_ids, _np.ndarray):
            for tid in _np.unique(self._type_ids):
                tid = int(tid)
                positions = _np.nonzero(self._type_ids == tid)[0].astype(
                    _np.int64
                )
                ptimes = (
                    self._times[positions]
                    if _is_column(self._times)
                    else _np.asarray(
                        [times[p] for p in positions], dtype=_np.int64
                    )
                )
                self._postings[tid] = positions
                self._posting_times[tid] = ptimes
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
        # Keeps an attached SharedMemory mapping alive for stores built
        # by :meth:`from_shared` (the columns are views into its buffer).
        self._shared = None
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

    @classmethod
    def from_store(cls, store) -> "ColumnarEventStore":
        """Build from an :class:`~repro.store.eventstore.EventStore`,
        preserving record ids and attributes (dictionary-encoded)."""
        vocab: List[str] = []
        index: Dict[str, int] = {}
        attr_vocab: List[str] = [""]
        attr_index: Dict[str, int] = {"": NO_ATTRS}
        times: List[int] = []
        tids: List[int] = []
        codes: List[int] = []
        rids: List[int] = []
        for record in store:
            tid = index.get(record.etype)
            if tid is None:
                tid = len(vocab)
                index[record.etype] = tid
                vocab.append(record.etype)
            if record.attributes:
                blob = json.dumps(record.attributes, sort_keys=True)
                code = attr_index.get(blob)
                if code is None:
                    code = len(attr_vocab)
                    attr_index[blob] = code
                    attr_vocab.append(blob)
            else:
                code = NO_ATTRS
            times.append(record.time)
            tids.append(tid)
            codes.append(code)
            rids.append(record.record_id)
        return cls(times, tids, vocab, codes, attr_vocab, rids)

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

    def attributes_at(self, position: int) -> dict:
        code = int(self._attr_codes[position])
        if code == NO_ATTRS:
            return {}
        return json.loads(self._attr_vocab[code])

    def record_id_at(self, position: int) -> int:
        return int(self._record_ids[position])

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

    # ------------------------------------------------------------------
    # Object-path bridges
    # ------------------------------------------------------------------
    def to_sequence(self):
        """The object-based :class:`~repro.mining.events.EventSequence`
        holding the same events (the reference/fallback view)."""
        from ..mining.events import Event, EventSequence

        return EventSequence(
            Event(self.type_at(i), self.time_at(i))
            for i in range(len(self))
        )

    def to_event_store(self):
        """Rebuild an object :class:`~repro.store.eventstore.EventStore`
        with record ids and attributes (the recovery path)."""
        from .eventstore import EventRecord, EventStore

        store = EventStore()
        max_id = -1
        for i in range(len(self)):
            record = EventRecord(
                self.record_id_at(i),
                self.type_at(i),
                self.time_at(i),
                self.attributes_at(i),
            )
            store._records.append(record)
            store._indexed = False
            max_id = max(max_id, record.record_id)
        store._next_id = max_id + 1
        return store

    # ------------------------------------------------------------------
    # Zero-copy worker transfer (multiprocessing.shared_memory)
    # ------------------------------------------------------------------
    def to_shared(self) -> "SharedColumns":
        """Export the four int64 columns for zero-copy worker attach.

        Returns a :class:`SharedColumns` owner whose :meth:`~
        SharedColumns.handle` is a small picklable descriptor workers
        pass to :meth:`from_shared` (or :func:`attach_shared`).  The
        parent owns the OS resources: :meth:`SharedColumns.close` on
        pool shutdown unlinks them (refcounted, so nested exports can
        share one segment), which is what keeps a worker crash
        mid-scan from leaking ``/dev/shm`` segments - the chaos suite
        kills workers and asserts exactly that.
        """
        return SharedColumns(self)

    @classmethod
    def from_shared(cls, handle) -> "ColumnarEventStore":
        """Attach to columns exported by :meth:`to_shared`.

        Under the numpy kernel the four columns are views straight
        into the shared buffer - no copy, no re-encode; the store keeps
        the mapping alive for its own lifetime.  The ``array`` fallback
        kernel copies the bytes (``array('q')`` cannot view a foreign
        buffer) but still skips re-encoding from Python objects.  The
        mmap-file fallback handle reopens the :meth:`save` format
        memory-mapped.
        """
        kind, ref, header = handle
        if kind == "file":
            store = cls.load(ref, mmap=True)
            _SHM_ATTACHES.inc()
            return store
        shm = _open_attached_segment(ref)
        n = int(header["events"])
        if _np is not None:
            base = _np.frombuffer(shm.buf, dtype="<i8", count=4 * n)
            columns = [base[i * n:(i + 1) * n] for i in range(4)]
        else:
            from array import array

            raw = bytes(shm.buf[: 4 * 8 * n])
            columns = []
            for i in range(4):
                column = array("q")
                column.frombytes(raw[i * 8 * n:(i + 1) * 8 * n])
                if sys.byteorder != "little":  # pragma: no cover
                    column.byteswap()
                columns.append(column)
        store = cls(
            columns[0],
            columns[1],
            header.get("type_vocab", []),
            columns[2],
            header.get("attr_vocab", [""]),
            columns[3],
        )
        if _np is not None:
            store._shared = shm
        else:
            # The fallback copied the payload out; release the local
            # mapping immediately (the parent still owns the segment).
            try:
                shm.close()
            except OSError:  # pragma: no cover - platform specific
                pass
        _SHM_ATTACHES.inc()
        return store

    # ------------------------------------------------------------------
    # Persistence (memory-mappable binary columns)
    # ------------------------------------------------------------------
    def save(self, path: str) -> None:
        """Write the columns as ``MAGIC + header + raw little-endian
        int64 columns`` (times, type ids, attr codes, record ids)."""
        header = json.dumps(
            {
                "schema": 1,
                "events": len(self),
                "type_vocab": list(self._type_vocab),
                "attr_vocab": list(self._attr_vocab),
            },
            sort_keys=True,
        ).encode("utf-8")
        with open(path, "wb") as handle:
            handle.write(MAGIC)
            handle.write(len(header).to_bytes(8, "little"))
            handle.write(header)
            for column in (
                self._times,
                self._type_ids,
                self._attr_codes,
                self._record_ids,
            ):
                handle.write(_column_bytes(column))

    @classmethod
    def load(
        cls, path: str, mmap: bool = True
    ) -> "ColumnarEventStore":
        """Reopen a :meth:`save` file, memory-mapping the columns when
        possible (stores beyond RAM stay queryable).

        Raises :class:`ColumnarFormatError` on a malformed file; use
        :func:`load_columnar` for the counted fall-back-to-object-path
        behaviour.
        """
        try:
            size = os.path.getsize(path)
            with open(path, "rb") as handle:
                magic = handle.read(len(MAGIC))
                if magic != MAGIC:
                    raise ColumnarFormatError(
                        "%s: bad magic %r" % (path, magic)
                    )
                raw_len = handle.read(8)
                if len(raw_len) != 8:
                    raise ColumnarFormatError(
                        "%s: truncated header length" % path
                    )
                header_len = int.from_bytes(raw_len, "little")
                blob = handle.read(header_len)
                if len(blob) != header_len:
                    raise ColumnarFormatError(
                        "%s: truncated header" % path
                    )
                try:
                    header = json.loads(blob.decode("utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                    raise ColumnarFormatError(
                        "%s: undecodable header (%s)" % (path, exc)
                    )
                n = int(header.get("events", -1))
                offset = len(MAGIC) + 8 + header_len
                expected = offset + 4 * 8 * n
                if n < 0 or size != expected:
                    raise ColumnarFormatError(
                        "%s: size %d does not match %d events"
                        % (path, size, n)
                    )
                columns = _read_columns(handle, path, offset, n, mmap)
        except OSError as exc:
            raise ColumnarFormatError("%s: %s" % (path, exc))
        times, type_ids, attr_codes, record_ids = columns
        store = cls(
            times,
            type_ids,
            header.get("type_vocab", []),
            attr_codes,
            header.get("attr_vocab", [""]),
            record_ids,
        )
        return store


def _is_column(values) -> bool:
    if _np is not None and isinstance(values, _np.ndarray):
        return True
    from array import array

    return isinstance(values, array)


def _column_bytes(column) -> bytes:
    if _np is not None and isinstance(column, _np.ndarray):
        return column.astype("<i8").tobytes()
    if sys.byteorder == "little":
        return column.tobytes()
    swapped = column[:]
    swapped.byteswap()
    return swapped.tobytes()


def _read_columns(handle, path, offset, n, use_mmap):
    """The four int64 columns, memory-mapped when the platform allows."""
    if use_mmap and _np is not None and n > 0:
        return [
            _np.memmap(
                path,
                dtype="<i8",
                mode="r",
                offset=offset + index * 8 * n,
                shape=(n,),
            )
            for index in range(4)
        ]
    from array import array

    handle.seek(offset)
    columns = []
    for _ in range(4):
        column = array("q")
        blob = handle.read(8 * n)
        if len(blob) != 8 * n:
            raise ColumnarFormatError("%s: truncated column" % path)
        column.frombytes(blob)
        if sys.byteorder != "little":  # pragma: no cover - big-endian
            column.byteswap()
        columns.append(column)
    return columns


class SharedColumns:
    """Parent-side owner of one store's columns in OS shared memory.

    The payload is the four little-endian int64 columns back to back in
    one ``multiprocessing.shared_memory`` segment; the vocabularies and
    event count travel in the (small, picklable) handle.  When
    shared_memory is unavailable or segment creation fails, the export
    falls back to a temporary file in the :meth:`ColumnarEventStore.
    save` format, which workers reopen memory-mapped - same zero-copy
    contract, different transport.

    Lifecycle is refcounted: the creator holds one reference,
    :meth:`acquire` adds more, and the :meth:`close` that drops the
    count to zero unlinks the segment (or deletes the file).  Attaching
    workers never unlink - :meth:`ColumnarEventStore.from_shared`
    opens the segment through :func:`_open_attached_segment`, whose
    only divergence from stock ``SharedMemory`` is teardown tolerance;
    under fork the attach's duplicate resource-tracker registration is
    cleared by the owner's single unlink, so a crashing worker can
    never reap a segment the parent still owns.
    """

    __slots__ = ("_handle", "_shm", "_path", "_refs")

    def __init__(self, store: ColumnarEventStore) -> None:
        self._refs = 1
        self._shm = None
        self._path: Optional[str] = None
        header = {
            "events": len(store),
            "type_vocab": list(store._type_vocab),
            "attr_vocab": list(store._attr_vocab),
        }
        payload = b"".join(
            _column_bytes(column)
            for column in (
                store._times,
                store._type_ids,
                store._attr_codes,
                store._record_ids,
            )
        )
        shm = None
        try:
            from multiprocessing import shared_memory

            shm = shared_memory.SharedMemory(
                create=True, size=max(1, len(payload))
            )
        except (ImportError, OSError):
            shm = None
        if shm is not None:
            shm.buf[: len(payload)] = payload
            self._shm = shm
            self._handle = ("shm", shm.name, header)
        else:  # pragma: no cover - exercised via the forced-file tests
            import tempfile

            fd, path = tempfile.mkstemp(
                prefix="repro-columns-", suffix=".rpcol"
            )
            os.close(fd)
            store.save(path)
            self._path = path
            self._handle = ("file", path, header)

    @property
    def kind(self) -> str:
        """``shm`` or ``file`` (the fallback transport)."""
        return self._handle[0]

    @property
    def name(self) -> str:
        """Segment name (or file path) of the export."""
        return self._handle[1]

    @property
    def refs(self) -> int:
        return self._refs

    def handle(self):
        """The picklable descriptor workers attach with."""
        return self._handle

    def acquire(self) -> "SharedColumns":
        """Add one owner reference (for nested pool lifetimes)."""
        if self._refs <= 0:
            raise RuntimeError("SharedColumns already closed")
        self._refs += 1
        return self

    def close(self) -> None:
        """Release one reference; the last release unlinks the OS
        resources.  Idempotent once fully closed."""
        if self._refs <= 0:
            return
        self._refs -= 1
        if self._refs:
            return
        if self._shm is not None:
            try:
                self._shm.close()
            except OSError:  # pragma: no cover - platform specific
                pass
            try:
                self._shm.unlink()
            except (FileNotFoundError, OSError):  # pragma: no cover
                pass
            self._shm = None
        if self._path is not None:
            try:
                os.remove(self._path)
            except OSError:  # pragma: no cover - already gone
                pass
            self._path = None

    def __enter__(self) -> "SharedColumns":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def _open_attached_segment(name):
    """Attach to a named segment, tolerating live column views.

    Two platform sharp edges live here.  First, numpy views into
    ``shm.buf`` can outlive the wrapper object during interpreter
    teardown, and the stock ``SharedMemory.__del__`` then raises
    ``BufferError`` from ``mmap.close``; the subclass swallows it - the
    mapping is released when the last view dies (``mmap`` closes on
    deallocation), so nothing leaks.  Second, CPython 3.8-3.12
    registers *attaches* with the resource tracker too (bpo-39959);
    under the fork start method the pool uses, a worker's registration
    lands in the parent's tracker cache as a duplicate set-add, and the
    owner's single unlink clears it - so we deliberately do *not*
    unregister here (doing so would remove the creator's entry and make
    the owner's unlink warn).
    """
    from multiprocessing import shared_memory

    class _AttachedSegment(shared_memory.SharedMemory):
        def close(self):
            try:
                super().close()
            except BufferError:
                # Views into .buf still exported; the OS mapping is
                # freed when they are collected.
                pass

    return _AttachedSegment(name=name)


def attach_shared(handle) -> Optional[ColumnarEventStore]:
    """Attach to a :class:`SharedColumns` handle, or None on failure.

    The None return routes the worker to its inherited (or rebuilt)
    view instead - a degraded-performance path, never a correctness
    one - and counts a ``repro_columnar_fallback_total``.
    """
    try:
        return ColumnarEventStore.from_shared(handle)
    except (OSError, ColumnarFormatError, KeyError, ValueError):
        _FALLBACKS.inc()
        return None


def load_columnar(
    path: str, mmap: bool = True
) -> Optional[ColumnarEventStore]:
    """Open a persisted columnar store, or None on any corruption.

    The None return is the *rebuild the view* signal: the caller
    reloads from its JSONL/CSV source of truth instead.  Every fallback
    increments ``repro_columnar_fallback_total``.
    """
    with span("columnar.load", path=os.path.basename(path)) as load_span:
        try:
            store = ColumnarEventStore.load(path, mmap=mmap)
        except ColumnarFormatError as exc:
            _FALLBACKS.inc()
            load_span.set(fallback=True, reason=str(exc))
            return None
        load_span.set(events=len(store))
        return store

