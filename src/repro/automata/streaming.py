"""Online (streaming) complex-event detection.

The batch :class:`~repro.automata.matching.TagMatcher` answers "does
the pattern occur anchored at this index" over a stored sequence; real
monitoring systems instead *consume events as they arrive*.  This
module provides that mode: a :class:`StreamingMatcher` is fed events,
maintains one kernel frontier per live anchor (each root-type event
opens one - the paper's "start one copy of the TAG at every occurrence
of E0"), and emits a detection the first time an anchor's run reaches
acceptance.

Streams run the stored scans' kernel
(:class:`~repro.automata.dense.BankKernel`) over the build's shared
bank, one event at a time, so detections and bindings equal the
stored scan's; its work reaches ``repro_tag_*`` once per feed.

Anchors retire when they accept, when their configuration set dies, or
when the (propagation-derived or user-supplied) horizon passes - so
memory is bounded by the number of anchors inside one horizon window.

Resilience (see :mod:`repro.resilience` and docs/RESILIENCE.md):

* events are validated at the edge (:class:`EventValidationError` on a
  malformed type or timestamp, before any state is touched);
* with ``max_lateness`` set, a bounded reorder buffer with watermarks
  absorbs timestamp jitter: out-of-order events within the lateness
  bound are reordered, events beyond it are counted and dropped
  instead of raising;
* anchor overflow follows a degradation policy (``raise`` keeps the
  historical fail-fast behaviour; ``shed-oldest`` / ``shed-newest`` /
  ``sample`` shed load and count what they dropped);
* the full matcher state checkpoints to a JSON payload
  (:meth:`StreamingMatcher.checkpoint`) and restores with
  :meth:`StreamingMatcher.from_checkpoint` (or :meth:`~StreamingMatcher.
  restore`), so a crashed monitor resumes without replaying the stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..granularity.normalform import clock_tick_of
from ..obs import counter, gauge
from ..resilience.errors import StreamFeedError, validate_event
from ..resilience.policies import apply_overflow, normalize_overflow_policy
from ..resilience.reorder import ReorderBuffer
from .builder import TagBuild
from .dense import MAX_CONFIGURATIONS

# Process-wide stream health metrics.  Counters aggregate across every
# matcher in the process; the gauges reflect the most recently fed
# matcher (one live matcher per process is the normal deployment).
_EVENTS_RECEIVED = counter(
    "repro_stream_events_received_total", "Events offered to feed()"
)
_EVENTS_PROCESSED = counter(
    "repro_stream_events_processed_total",
    "Events advanced through the automaton (post reorder buffer)",
)
_DETECTIONS = counter(
    "repro_stream_detections_total", "Detections emitted"
)
_ANCHORS_SHED = counter(
    "repro_stream_anchors_shed_total",
    "Live anchors dropped by the overflow policy",
)
_LATE_DROPPED = counter(
    "repro_stream_late_events_dropped_total",
    "Events dropped below the reorder watermark",
)
_LIVE_ANCHORS = gauge(
    "repro_stream_live_anchors", "Anchors awaiting completion"
)
_BUFFER_DEPTH = gauge(
    "repro_stream_reorder_buffer_depth",
    "Events held in the reorder buffer",
)
_WATERMARK_LAG = gauge(
    "repro_stream_watermark_lag_seconds",
    "Newest timestamp seen minus the watermark",
)


@dataclass(frozen=True)
class Detection:
    """One detected occurrence: the anchor and its variable bindings."""

    anchor_time: int
    detected_at: int
    bindings: Dict[str, int]


#: The member id of a build's bank of one.
_ONLY = (0,)


class _Anchor:
    """A live anchor: root time and member 0's kernel frontier."""

    __slots__ = ("time", "frontier", "wanted")

    def __init__(self, time: int, frontier: Dict[int, list], wanted):
        self.time = time
        self.frontier = frontier
        self.wanted = wanted


class StreamingMatcher:
    """Feed events one at a time; collect detections as they complete.

    Parameters mirror :class:`~repro.automata.matching.TagMatcher`;
    ``horizon_seconds`` bounds how long an anchor stays live (None
    keeps anchors until their configuration sets die, which for
    patterns with bounded constraints happens naturally but may take
    long on sparse streams - prefer a horizon).

    ``max_lateness`` (seconds) enables the reorder buffer: None means
    the historical strict mode (out-of-order input raises ValueError);
    any value >= 0 means events up to that much behind the newest
    timestamp seen are reordered and fed in order, later ones are
    dropped and counted in :attr:`late_events_dropped`.  Call
    :meth:`flush` at end of stream to drain the buffer.

    ``overflow_policy`` picks the degradation behaviour when live
    anchors exceed ``max_live_anchors``; see
    :mod:`repro.resilience.policies`.
    """

    def __init__(
        self,
        build: TagBuild,
        strict: bool = False,
        horizon_seconds: Optional[int] = None,
        max_live_anchors: int = 10_000,
        max_lateness: Optional[int] = None,
        overflow_policy: str = "raise",
    ):
        self.build = build
        #: The build's advance kernel, shared by every matcher over it.
        self.kernel = build.kernel
        self.strict = strict
        self.horizon_seconds = horizon_seconds
        self.max_live_anchors = max_live_anchors
        self.overflow_policy = normalize_overflow_policy(overflow_policy)
        self._buffer = (
            ReorderBuffer(max_lateness) if max_lateness is not None else None
        )
        self._anchors: List[_Anchor] = []
        self._last_time: Optional[int] = None
        self._max_time_seen: Optional[int] = None
        self.events_received = 0
        self.events_processed = 0
        self.detections_emitted = 0
        self.anchors_shed = 0

    # ------------------------------------------------------------------
    @property
    def max_lateness(self) -> Optional[int]:
        """The reorder-buffer lateness bound (None in strict mode)."""
        return self._buffer.max_lateness if self._buffer else None

    @property
    def late_events_dropped(self) -> int:
        """Events that arrived below the watermark and were dropped."""
        return self._buffer.late_dropped if self._buffer else 0

    @property
    def pending_reordered(self) -> int:
        """Events held in the reorder buffer awaiting the watermark."""
        return self._buffer.pending if self._buffer else 0

    @property
    def watermark(self) -> Optional[int]:
        """Timestamps below this are final (processed or dropped)."""
        if self._buffer is not None:
            return self._buffer.watermark
        return self._last_time

    @property
    def live_anchors(self) -> int:
        """Number of anchors still awaiting completion."""
        return len(self._anchors)

    @property
    def watermark_lag(self) -> int:
        """Seconds between the newest timestamp seen and the watermark.

        How far behind real (stream) time finalisation is running; 0
        in strict mode or before any event arrives.
        """
        mark = self.watermark
        if mark is None or self._max_time_seen is None:
            return 0
        return max(0, self._max_time_seen - mark)

    def _export_gauges(self) -> None:
        _LIVE_ANCHORS.set(len(self._anchors))
        _BUFFER_DEPTH.set(self.pending_reordered)
        _WATERMARK_LAG.set(self.watermark_lag)

    def stats(self) -> Dict[str, Any]:
        """Operational counters, suitable for logging/metrics export."""
        return {
            "events_received": self.events_received,
            "events_processed": self.events_processed,
            "detections_emitted": self.detections_emitted,
            "live_anchors": self.live_anchors,
            "anchors_shed": self.anchors_shed,
            "late_events_dropped": self.late_events_dropped,
            "pending_reordered": self.pending_reordered,
            "watermark": self.watermark,
            "watermark_lag": self.watermark_lag,
        }

    # ------------------------------------------------------------------
    def feed(self, etype: str, time: int) -> List[Detection]:
        """Consume one event; return detections it completed.

        Raises :class:`~repro.resilience.EventValidationError` on a
        malformed event (state untouched).  Without a reorder buffer,
        an out-of-order timestamp raises ValueError as before; with
        one, the event is buffered/reordered/dropped per the watermark.
        """
        validate_event(etype, time)
        self.events_received += 1
        _EVENTS_RECEIVED.inc()
        if self._max_time_seen is None or time > self._max_time_seen:
            self._max_time_seen = time
        if self._buffer is None:
            if self._last_time is not None and time < self._last_time:
                raise ValueError(
                    "events must arrive in non-decreasing timestamp order"
                )
            return self._advance_all([(etype, time)])
        dropped_before = self._buffer.late_dropped
        ready = self._buffer.push(etype, time)
        _LATE_DROPPED.add(self._buffer.late_dropped - dropped_before)
        return self._advance_all(ready)

    def flush(self) -> List[Detection]:
        """Drain the reorder buffer (end of stream); returns detections.

        A no-op (empty list) in strict mode.
        """
        if self._buffer is None:
            return []
        return self._advance_all(self._buffer.flush())

    # ------------------------------------------------------------------
    def _advance_all(self, events) -> List[Detection]:
        """Advance over in-order events, then fold the kernel's work
        into the ``repro_tag_*`` counters once and export the gauges."""
        detections: List[Detection] = []
        for etype, time in events:
            detections.extend(self._advance(etype, time))
        self.kernel.fold()
        self._export_gauges()
        return detections

    def _advance(self, etype: str, time: int) -> List[Detection]:
        """Advance the automaton state on one in-order event."""
        self._last_time = time
        self.events_processed += 1
        _EVENTS_PROCESSED.inc()
        detections: List[Detection] = []
        kernel = self.kernel
        anchors = self._anchors
        if self.horizon_seconds is not None:
            oldest = time - self.horizon_seconds
            anchors = [anchor for anchor in anchors if anchor.time >= oldest]
        opens = etype == kernel.root_symbol
        sid = kernel.batch.symbol_index.get(etype)
        if opens or (anchors and (sid is not None or self.strict)):
            # One conversion per clock serves every anchor.
            now_ticks = [
                clock_tick_of(ttype, time)
                for ttype in kernel.batch.clock_types
            ]
            if self.strict and None in now_ticks:
                # The paper's literal run definition: an uncovered
                # timestamp kills every run, skipped or not.
                anchors = []
        if anchors and sid is not None:
            columns = [[tick] for tick in now_ticks]
            results: Dict[int, tuple] = {}
            survivors: List[_Anchor] = []
            for anchor in anchors:
                kernel.advance(
                    anchor.frontier, anchor.wanted, results, (sid,),
                    (time,), columns, 0, 1, MAX_CONFIGURATIONS,
                )
                if results:
                    detections.append(
                        Detection(anchor.time, time, results.pop(0)[1])
                    )
                else:
                    survivors.append(anchor)
            anchors = survivors
        self._anchors = anchors

        # Open a new anchor if this is a root-type event.
        if opens:
            results = {}
            frontier, wanted = kernel.seed(
                _ONLY, time, now_ticks, self.strict, results
            )
            if results:
                # Single-variable patterns accept immediately.
                detections.append(Detection(time, time, results[0][1]))
            elif frontier:
                anchors.append(_Anchor(time, frontier, wanted))
                if len(anchors) > self.max_live_anchors:
                    self._anchors, shed = apply_overflow(
                        anchors,
                        self.max_live_anchors,
                        self.overflow_policy,
                    )
                    self.anchors_shed += shed
                    _ANCHORS_SHED.add(shed)
        self.detections_emitted += len(detections)
        _DETECTIONS.add(len(detections))
        return detections

    # ------------------------------------------------------------------
    def feed_sequence(self, events) -> List[Detection]:
        """Convenience: feed an iterable of events, collect detections.

        A failure is re-raised as
        :class:`~repro.resilience.StreamFeedError` carrying the
        offending event's position, type and timestamp (the original
        error is chained as ``__cause__``).
        """
        detections: List[Detection] = []
        for index, event in enumerate(events):
            etype = getattr(event, "etype", None)
            time = getattr(event, "time", None)
            if etype is None and time is None:
                try:
                    etype, time = event[0], event[1]
                except (TypeError, IndexError, KeyError) as exc:
                    raise StreamFeedError(index, None, None, exc) from exc
            try:
                detections.extend(self.feed(etype, time))
            except StreamFeedError:
                raise
            except (ValueError, RuntimeError) as exc:
                raise StreamFeedError(index, etype, time, exc) from exc
        return detections

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------
    def checkpoint(self) -> Dict[str, Any]:
        """A JSON-safe snapshot of the full matcher state.

        Includes the pattern (so the TAG can be rebuilt), every live
        anchor's configurations, the reorder buffer, and all counters.
        Restoring with :meth:`from_checkpoint` and feeding the rest of
        the stream yields exactly the detections of an uninterrupted
        run.
        """
        from ..io.serialize import streaming_checkpoint_to_dict

        return streaming_checkpoint_to_dict(self)

    def restore(self, payload: Dict[str, Any]) -> None:
        """Load :meth:`checkpoint` state onto this matcher, which keeps
        its build and parameters (the payload's pattern must be the
        build's: :class:`~repro.io.SerializationError` otherwise)."""
        from ..io.serialize import restore_streaming_checkpoint

        restore_streaming_checkpoint(self, payload)

    @classmethod
    def from_checkpoint(
        cls, payload: Dict[str, Any], system=None
    ) -> "StreamingMatcher":
        """Rebuild a matcher from :meth:`checkpoint` output."""
        from ..io.serialize import streaming_matcher_from_checkpoint

        return streaming_matcher_from_checkpoint(payload, system=system)
