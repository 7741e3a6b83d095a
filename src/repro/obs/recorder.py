"""Flight recorder: a bounded ring buffer of completed spans.

A production "black box": every span closed while a tracer is active
is appended (flattened, without children) to a fixed-size ring, and
spans matching a *trigger* - error status, or duration at or above
``slow_ms`` milliseconds - are copied into a second ring that survives
being scrolled past.  :meth:`FlightRecorder.dump` persists both rings
as schema-versioned JSON; the detection service calls it when a
circuit breaker trips, and chaos tests call it on injected faults, so
a post-mortem always has the last spans that led up to the incident.

Default-on (the ring append is a dict build plus a deque append,
covered by the overhead guard in ``tests/obs/test_overhead.py``);
``capacity=0`` disables it.  The recorder holds no references to live
span trees - records are flat copies - so retaining the ring never
pins a trace in memory.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from typing import Any, Dict, List, Optional

from . import runtime

#: Flight-dump payload format version (bump when the layout changes).
RECORDER_SCHEMA_VERSION = 1

#: Default ring capacity (0 disables the recorder).
DEFAULT_CAPACITY = 256

#: Default slow-span trigger threshold, in milliseconds.
DEFAULT_SLOW_MS = 250.0


def _flatten(span_) -> Dict[str, Any]:
    """A flat, JSON-safe record of one completed span (no children)."""
    attributes = getattr(span_, "attributes", None) or {}
    return {
        "name": span_.name,
        "trace_id": span_.trace_id,
        "span_id": span_.span_id,
        "parent_id": span_.parent_id,
        "duration_ns": span_.duration_ns,
        "status": span_.status,
        "attributes": {
            key: value
            if isinstance(value, (str, int, float, bool, type(None)))
            else str(value)
            for key, value in attributes.items()
        },
        "ended_at": time.time(),
    }


class FlightRecorder:
    """Bounded ring of recent spans plus a ring of triggered captures.

    ``record`` is called by ``Tracer.close_span`` for every completed
    span; ``note`` injects a synthetic record directly (the service
    uses it for rejected events, so error evidence lands in the ring
    even when nobody is tracing).  Thread-safe; both rings share one
    capacity.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 slow_ms: float = DEFAULT_SLOW_MS) -> None:
        self.configure(capacity=capacity, slow_ms=slow_ms)
        self.recorded = 0
        self.triggered = 0
        self.dumps = 0
        self._lock = threading.Lock()

    def configure(self, capacity: int = DEFAULT_CAPACITY,
                  slow_ms: float = DEFAULT_SLOW_MS) -> None:
        """(Re)size the rings / set the slow trigger.

        Resizing clears both rings.
        """
        self.capacity = max(0, int(capacity))
        self.slow_ms = max(0.0, float(slow_ms))
        self.active = self.capacity > 0
        size = max(1, self.capacity)
        self._recent: deque = deque(maxlen=size)
        self._captured: deque = deque(maxlen=size)

    # ------------------------------------------------------------------
    def _trigger(self, record: Dict[str, Any]) -> Optional[str]:
        if record["status"] == "error":
            return "error"
        duration = record.get("duration_ns")
        if duration is not None and duration >= self.slow_ms * 1e6:
            return "slow"
        return None

    def record(self, span_) -> None:
        """Ring-append one completed span; capture it when triggered."""
        if not self.active or not runtime.STATE.enabled:
            return
        record = _flatten(span_)
        trigger = self._trigger(record)
        with self._lock:
            self._recent.append(record)
            self.recorded += 1
            if trigger is not None:
                self._captured.append(dict(record, trigger=trigger))
                self.triggered += 1

    def note(self, name: str, status: str = "ok",
             **attributes: Any) -> None:
        """Inject a synthetic record (no span needed).

        Error-status notes hit the error trigger, so code on a cold
        path (event rejection, breaker trips) can leave evidence in
        the black box without requiring an active tracer.
        """
        if not self.active or not runtime.STATE.enabled:
            return
        record = {
            "name": name,
            "trace_id": None,
            "span_id": None,
            "parent_id": None,
            "duration_ns": None,
            "status": status,
            "attributes": {
                key: value
                if isinstance(value, (str, int, float, bool, type(None)))
                else str(value)
                for key, value in attributes.items()
            },
            "ended_at": time.time(),
        }
        trigger = self._trigger(record)
        with self._lock:
            self._recent.append(record)
            self.recorded += 1
            if trigger is not None:
                self._captured.append(dict(record, trigger=trigger))
                self.triggered += 1

    # ------------------------------------------------------------------
    def recent(self) -> List[Dict[str, Any]]:
        with self._lock:
            return list(self._recent)

    def captured(self) -> List[Dict[str, Any]]:
        with self._lock:
            return list(self._captured)

    def clear(self) -> None:
        """Empty both rings (counters keep their lifetime totals)."""
        with self._lock:
            self._recent.clear()
            self._captured.clear()

    def to_payload(self, reason: str = "manual") -> Dict[str, Any]:
        """The schema-versioned dump body."""
        with self._lock:
            recent = list(self._recent)
            captured = list(self._captured)
        return {
            "schema": RECORDER_SCHEMA_VERSION,
            "reason": reason,
            "created_at": time.time(),
            "capacity": self.capacity,
            "slow_ms": self.slow_ms,
            "recorded": self.recorded,
            "triggered": self.triggered,
            "captured": captured,
            "recent": recent,
        }

    def dump(self, path: Optional[str] = None,
             reason: str = "manual") -> Dict[str, Any]:
        """Snapshot both rings; write JSON when ``path`` is given."""
        payload = self.to_payload(reason)
        if path is not None:
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=2, sort_keys=True)
                handle.write("\n")
        self.dumps += 1
        return payload


def load_flight_dump(path: str) -> Dict[str, Any]:
    """Read a flight dump back (validating the schema field)."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if payload.get("schema") != RECORDER_SCHEMA_VERSION:
        raise ValueError(
            "unsupported flight-dump schema %r in %s (expected %d)"
            % (payload.get("schema"), path, RECORDER_SCHEMA_VERSION)
        )
    return payload


#: The process-wide recorder Tracer.close_span feeds.
_RECORDER = FlightRecorder()


def global_recorder() -> FlightRecorder:
    """The process-wide flight recorder."""
    return _RECORDER


# Wire the close-span hook (kept as a module attribute in trace.py to
# avoid an import cycle).
from . import trace as _trace  # noqa: E402

_trace._install_recorder(_RECORDER)
