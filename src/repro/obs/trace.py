"""Hierarchical spans with monotonic timings and trace identity.

A :class:`Tracer` collects a tree of :class:`Span` records.  Code is
instrumented with the :func:`span` context manager::

    with span("propagate", variables=3):
        with span("stp.close", granularity="day", kind="full"):
            ...

``span()`` is engineered to cost almost nothing when nobody is
listening: without an active tracer (or with ``REPRO_OBS=off``) it
returns a shared no-op context manager - one thread-local read and a
branch.  Tracers are activated per thread with :func:`activate_tracer`
(a context manager), so concurrent pipelines trace independently.

Spans survive exceptions: the ``with`` block re-raises, but the span is
closed with ``status="error"`` and the exception type recorded, so a
trace of a failed run shows *where* it failed.

Every span carries OpenTelemetry-style identity: a 128-bit ``trace_id``
shared by the whole request, its own 64-bit ``span_id``, and the
``span_id`` of its parent (None for roots without a remote parent).  A
:class:`TraceContext` is the compact (trace_id, span_id) pair handed
across process and task boundaries - the parallel engine ships one to
its fork workers and the detection service pins one per tenant - so
:meth:`Tracer.attach` can re-parent foreign spans under the span that
caused them: one request, one tree.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Dict, List, Optional

from .runtime import STATE

#: Trace payload format version (bump when the JSON layout changes).
#: v2 added ``trace_id``/``span_id``/``parent_id`` on every span and
#: ``trace_id`` on the payload envelope; readers accept v1 files too.
TRACE_SCHEMA_VERSION = 2

_local = threading.local()

#: Tracers by owning thread id - the sampling profiler reads this from
#: its own thread to attribute stacks to the victim thread's open span.
#: Maintained by :class:`activate_tracer`; plain dict ops are atomic
#: under the GIL, which is all the (lossy, read-only) profiler needs.
_ACTIVE_TRACERS: Dict[int, "Tracer"] = {}


def new_trace_id() -> str:
    """A fresh 128-bit trace id as 32 lowercase hex chars."""
    return os.urandom(16).hex()


def new_span_id() -> str:
    """A fresh 64-bit span id as 16 lowercase hex chars."""
    return os.urandom(8).hex()


class TraceContext:
    """The compact identity pair carried across execution boundaries.

    Immutable value object: which trace we are in and which span is the
    caller.  Cheap to pickle into fork workers, to stash on a service
    session, or to flatten into a string header (:meth:`to_header`).
    """

    __slots__ = ("trace_id", "span_id")

    _HEADER_PREFIX = "repro1"

    def __init__(self, trace_id: str, span_id: str) -> None:
        self.trace_id = trace_id
        self.span_id = span_id

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TraceContext)
            and other.trace_id == self.trace_id
            and other.span_id == self.span_id
        )

    def __hash__(self) -> int:
        return hash((self.trace_id, self.span_id))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "TraceContext(%r, %r)" % (self.trace_id, self.span_id)

    def to_dict(self) -> Dict[str, str]:
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "TraceContext":
        return cls(str(payload["trace_id"]), str(payload["span_id"]))

    def to_header(self) -> str:
        """``repro1-<trace_id>-<span_id>`` - one propagation string."""
        return "%s-%s-%s" % (self._HEADER_PREFIX, self.trace_id,
                             self.span_id)

    @classmethod
    def from_header(cls, header: str) -> "TraceContext":
        """Parse :meth:`to_header` output; raises ValueError otherwise."""
        parts = header.strip().split("-")
        if (
            len(parts) != 3
            or parts[0] != cls._HEADER_PREFIX
            or len(parts[1]) != 32
            or len(parts[2]) != 16
        ):
            raise ValueError("malformed trace header %r" % (header,))
        for chunk in parts[1:]:
            int(chunk, 16)  # raises ValueError on non-hex
        return cls(parts[1], parts[2])


class Span:
    """One timed region: identity, name, attributes, duration, children."""

    __slots__ = ("name", "attributes", "start_ns", "end_ns", "status",
                 "children", "trace_id", "span_id", "parent_id")

    def __init__(self, name: str, attributes: Optional[Dict[str, Any]] = None):
        self.name = name
        self.attributes: Dict[str, Any] = dict(attributes or {})
        self.start_ns: int = 0
        self.end_ns: Optional[int] = None
        self.status = "ok"
        self.children: List["Span"] = []
        self.trace_id: Optional[str] = None
        self.span_id: Optional[str] = None
        self.parent_id: Optional[str] = None

    def set(self, **attributes: Any) -> None:
        """Attach attributes after the span opened."""
        self.attributes.update(attributes)

    @property
    def duration_ns(self) -> Optional[int]:
        """Elapsed monotonic nanoseconds (None while still open)."""
        if self.end_ns is None:
            return None
        return self.end_ns - self.start_ns

    @property
    def duration_seconds(self) -> Optional[float]:
        duration = self.duration_ns
        return duration / 1e9 if duration is not None else None

    def context(self) -> Optional[TraceContext]:
        """This span's identity as a propagatable pair (None pre-open)."""
        if self.trace_id is None or self.span_id is None:
            return None
        return TraceContext(self.trace_id, self.span_id)

    def total_spans(self) -> int:
        """This span plus all descendants."""
        return 1 + sum(child.total_spans() for child in self.children)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe form (attributes are stringified defensively)."""
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "attributes": {
                key: value
                if isinstance(value, (str, int, float, bool, type(None)))
                else str(value)
                for key, value in self.attributes.items()
            },
            "duration_ns": self.duration_ns,
            "status": self.status,
            "children": [child.to_dict() for child in self.children],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Span":
        """Rebuild a closed span from its :meth:`to_dict` form.

        Used to graft spans recorded in a *different* process (the
        parallel mining workers serialise their local trace and the
        parent re-attaches it under ``mine.scan``).  Start offsets are
        not preserved across processes - only durations are meaningful
        - so the rebuilt span starts at 0.  Schema-1 payloads carry no
        ids; they stay None until :meth:`Tracer.attach` adopts them.
        """
        span_ = cls(str(payload.get("name", "?")),
                    payload.get("attributes") or {})
        duration = payload.get("duration_ns")
        span_.start_ns = 0
        span_.end_ns = int(duration) if duration is not None else 0
        span_.status = str(payload.get("status", "ok"))
        span_.trace_id = payload.get("trace_id")
        span_.span_id = payload.get("span_id")
        span_.parent_id = payload.get("parent_id")
        span_.children = [
            cls.from_dict(child) for child in payload.get("children", ())
        ]
        return span_

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "Span(%r, children=%d)" % (self.name, len(self.children))


class Tracer:
    """Collects a forest of spans for one traced region of work.

    Not thread-safe by itself: activate one tracer per thread (the
    usual shape - ``repro --trace`` activates one around the whole CLI
    command).

    ``parent`` carries a remote :class:`TraceContext` into the tracer:
    worker processes build ``Tracer(parent=ctx)`` so their root spans
    share the originating trace_id and point their ``parent_id`` at the
    span that forked them.
    """

    def __init__(
        self,
        trace_id: Optional[str] = None,
        parent: Optional[TraceContext] = None,
    ) -> None:
        if trace_id is None and parent is not None:
            trace_id = parent.trace_id
        self.trace_id: str = trace_id or new_trace_id()
        self.parent_id: Optional[str] = (
            parent.span_id if parent is not None else None
        )
        self.roots: List[Span] = []
        self._stack: List[Span] = []
        self._by_id: Dict[str, Span] = {}

    def open_span(self, name: str, attributes=None,
                  parent: Optional[TraceContext] = None) -> Span:
        """Open a child of the innermost open span (or a new root).

        An explicit ``parent`` context overrides the stack: when it
        names a span already in this tracer, the new span files under
        it structurally (the detection service uses this to hang
        ``service.route`` under the tenant's originating span even
        though drains happen later, from the event loop).
        """
        span_ = Span(name, attributes)
        span_.trace_id = self.trace_id
        span_.span_id = new_span_id()
        anchor: Optional[Span] = None
        if parent is not None and parent.trace_id == self.trace_id:
            anchor = self._by_id.get(parent.span_id)
        if anchor is None and self._stack:
            anchor = self._stack[-1]
        if anchor is not None:
            span_.parent_id = anchor.span_id
            anchor.children.append(span_)
        else:
            span_.parent_id = self.parent_id
            self.roots.append(span_)
        self._by_id[span_.span_id] = span_
        self._stack.append(span_)
        span_.start_ns = time.perf_counter_ns()
        return span_

    def close_span(self, span_: Span) -> None:
        span_.end_ns = time.perf_counter_ns()
        if self._stack and self._stack[-1] is span_:
            self._stack.pop()
        elif span_ in self._stack:  # pragma: no cover - defensive
            # Mis-nested exit: unwind to (and including) the span.
            while self._stack:
                if self._stack.pop() is span_:
                    break
        if STATE.enabled:
            recorder = _RECORDER_HOOK
            if recorder is not None and recorder.active:
                recorder.record(span_)

    def current_span(self) -> Optional[Span]:
        """The innermost open span, or None (safe from other threads)."""
        stack = self._stack
        try:
            return stack[-1]
        except IndexError:
            return None

    def context(self) -> Optional[TraceContext]:
        """The innermost open span's identity (None when nothing open)."""
        top = self.current_span()
        return top.context() if top is not None else None

    def attach(self, span_: Span) -> None:
        """Graft an already-closed span into this tracer's tree.

        When the foreign span carries this trace's id and a
        ``parent_id`` naming one of our spans, it files under that
        exact span - the parallel engine's workers inherit a
        :class:`TraceContext` so their merged trees land back under
        ``mine.scan``.  Otherwise it falls back to the innermost open
        span (or becomes a root) and is adopted into this trace: ids
        restamped where missing, parent links rewritten to fit.
        """
        anchor: Optional[Span] = None
        if span_.parent_id is not None and span_.trace_id == self.trace_id:
            anchor = self._by_id.get(span_.parent_id)
        if anchor is None and self._stack:
            anchor = self._stack[-1]
        self._adopt(span_, anchor.span_id if anchor is not None
                    else self.parent_id)
        if anchor is not None:
            anchor.children.append(span_)
        else:
            self.roots.append(span_)

    def _adopt(self, span_: Span, parent_id: Optional[str]) -> None:
        """Restamp a foreign subtree into this trace and index it."""
        span_.trace_id = self.trace_id
        if span_.span_id is None:
            span_.span_id = new_span_id()
        span_.parent_id = parent_id
        self._by_id[span_.span_id] = span_
        for child in span_.children:
            self._adopt(child, span_.span_id)

    def total_spans(self) -> int:
        return sum(root.total_spans() for root in self.roots)

    def to_dict(self) -> Dict[str, Any]:
        """The ``--trace`` JSON payload."""
        return {
            "schema": TRACE_SCHEMA_VERSION,
            "trace_id": self.trace_id,
            "spans": [root.to_dict() for root in self.roots],
        }


# ----------------------------------------------------------------------
# Activation
# ----------------------------------------------------------------------
def current_tracer() -> Optional[Tracer]:
    """The tracer active on this thread, or None."""
    return getattr(_local, "tracer", None)


def current_context() -> Optional[TraceContext]:
    """The innermost open span's identity on this thread, or None.

    This is the value to capture before crossing an execution boundary
    (fork pool, asyncio task, queue) and to pass back in as an explicit
    parent - histogram exemplars also read it at observe time.
    """
    tracer = getattr(_local, "tracer", None)
    if tracer is None or not STATE.enabled:
        return None
    return tracer.context()


def active_tracer_for(thread_id: int) -> Optional[Tracer]:
    """The tracer activated on another thread (profiler support)."""
    return _ACTIVE_TRACERS.get(thread_id)


class activate_tracer:
    """Context manager installing a tracer on the current thread::

        tracer = Tracer()
        with activate_tracer(tracer):
            run_pipeline()
        print(format_span_tree(tracer.to_dict()))
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._previous: Optional[Tracer] = None

    def __enter__(self) -> Tracer:
        self._previous = getattr(_local, "tracer", None)
        _local.tracer = self.tracer
        _ACTIVE_TRACERS[threading.get_ident()] = self.tracer
        return self.tracer

    def __exit__(self, exc_type, exc, tb) -> bool:
        _local.tracer = self._previous
        ident = threading.get_ident()
        if self._previous is not None:
            _ACTIVE_TRACERS[ident] = self._previous
        else:
            _ACTIVE_TRACERS.pop(ident, None)
        return False


# ----------------------------------------------------------------------
# The span() entry point
# ----------------------------------------------------------------------
class _NoopSpan:
    """Shared do-nothing span handed out when nobody is tracing."""

    __slots__ = ()

    def set(self, **attributes: Any) -> None:
        pass

    @property
    def attributes(self) -> Dict[str, Any]:
        return {}

    def context(self) -> None:
        return None


class _NoopSpanContext:
    __slots__ = ()

    def __enter__(self) -> _NoopSpan:
        return _NOOP_SPAN

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NOOP_SPAN = _NoopSpan()
_NOOP = _NoopSpanContext()


class _LiveSpanContext:
    __slots__ = ("_tracer", "_name", "_attributes", "_span", "_parent")

    def __init__(self, tracer: Tracer, name: str, attributes,
                 parent: Optional[TraceContext] = None):
        self._tracer = tracer
        self._name = name
        self._attributes = attributes
        self._span: Optional[Span] = None
        self._parent = parent

    def __enter__(self) -> Span:
        self._span = self._tracer.open_span(
            self._name, self._attributes, parent=self._parent
        )
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        span_ = self._span
        if span_ is not None:
            if exc_type is not None:
                span_.status = "error"
                span_.attributes.setdefault(
                    "exception", exc_type.__name__
                )
            self._tracer.close_span(span_)
        return False  # never swallow


def span(name: str, **attributes: Any):
    """Open a span on the active tracer (no-op when none is active)."""
    tracer = getattr(_local, "tracer", None)
    if tracer is None or not STATE.enabled:
        return _NOOP
    return _LiveSpanContext(tracer, name, attributes)


def linked_span(name: str, context: Optional[TraceContext],
                **attributes: Any):
    """Like :func:`span` but parented at an explicit :class:`TraceContext`.

    The context must name a span inside the active tracer to take
    effect (a foreign or None context degrades to plain :func:`span`).
    Use it where the causal parent is not the innermost open span: the
    detection service routes each tenant drain under the span that
    first submitted that tenant's events.
    """
    tracer = getattr(_local, "tracer", None)
    if tracer is None or not STATE.enabled:
        return _NOOP
    return _LiveSpanContext(tracer, name, attributes, parent=context)


# ----------------------------------------------------------------------
# Flight-recorder hook
# ----------------------------------------------------------------------
#: Set by repro.obs.recorder at import; close_span feeds it every
#: completed span.  A module attribute (not an import) keeps this file
#: free of cycles and lets tests stub the hook.
_RECORDER_HOOK = None


def _install_recorder(recorder) -> None:
    global _RECORDER_HOOK
    _RECORDER_HOOK = recorder
