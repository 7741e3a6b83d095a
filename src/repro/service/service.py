"""The multi-tenant streaming detection service.

:class:`DetectionService` multiplexes many independent event feeds
over one process.  Events are submitted as ``(tenant, sequence_key,
etype, time)``; the service routes each to the
:class:`~repro.automata.streaming.StreamingMatcher` session keyed by
``(tenant, sequence_key)`` and collects the detections it completes.
Three robustness mechanisms keep tenants from hurting each other:

**Fault isolation.**  Each tenant gets its own ingress queue, its own
:class:`asyncio` worker task and its own
:class:`~repro.service.breaker.CircuitBreaker`.  Malformed events go
to the shared dead-letter :class:`~repro.resilience.Quarantine` (they
never touch matcher state) and count as breaker failures; a tenant
whose feed keeps failing trips its breaker and has further events
*parked* in its queue - in arrival order, never dropped - until the
cooldown admits probes again.  Other tenants never notice.

**Backpressure.**  Queues are bounded by ``queue_capacity``; overflow
behaviour reuses the anchor-overflow policies (``raise`` surfaces
:class:`~repro.service.errors.TenantOverloadError` to the offending
tenant's producer, ``shed-oldest`` / ``shed-newest`` / ``sample``
shed and count).  The live-anchor and watermark-lag gauges of the
tenant's resident sessions act as a capacity signal: a session running
hot (anchors near ``max_live_anchors``, or watermark lag beyond twice
``max_lateness``) halves the tenant's effective queue capacity so
shedding starts before the matcher itself degrades.

**Checkpoint-backed eviction.**  Session residency is bounded by
``max_resident_sessions``; see :mod:`repro.service.registry` for the
LRU spill / rehydrate / WAL-replay cycle, and
:meth:`DetectionService.recover` for crash recovery from a
:class:`~repro.service.checkpoints.DirectoryCheckpointStore`.

Because parked events keep their arrival order and only invalid events
are quarantined, each session's matcher consumes exactly the valid
subsequence of its feed - so per-tenant detections are *bit-identical*
to a standalone matcher run (the differential suite in
``tests/differential/test_service_vs_direct.py`` enforces this, across
forced evictions and breaker trips).
"""

from __future__ import annotations

import asyncio
import os
import re
from collections import deque
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
)

from ..automata.builder import TagBuild
from ..automata.streaming import Detection, StreamingMatcher
from ..obs import (
    Counter,
    TraceContext,
    counter,
    current_context,
    gauge,
    global_recorder,
    linked_span,
)
from ..resilience import Quarantine, apply_overflow, validate_event
from ..resilience.policies import normalize_overflow_policy
from .breaker import BREAKER_STATES, CLOSED, CircuitBreaker
from .checkpoints import CheckpointStoreBase, open_store
from .errors import ServiceClosedError, TenantOverloadError
from .registry import SessionRegistry

_EVENTS = counter(
    "repro_service_events_total", "Events submitted to the service"
)
_DETECTIONS = counter(
    "repro_service_detections_total", "Detections emitted by the service"
)
_QUARANTINED = counter(
    "repro_service_quarantined_total",
    "Events rejected to the dead-letter channel",
)
_SHED = counter(
    "repro_service_queue_shed_total",
    "Events shed from tenant ingress queues",
)
_QUEUE_DEPTH = gauge(
    "repro_service_queue_depth",
    "Events waiting in tenant ingress queues (all tenants)",
)
_BREAKER_GAUGES = {
    state: gauge(
        "repro_service_breaker_state",
        "Tenants whose circuit breaker is in this state",
        labels={"state": state},
    )
    for state in BREAKER_STATES
}


@dataclass
class ServiceConfig:
    """Knobs of a :class:`DetectionService`."""

    # Backpressure.
    queue_capacity: int = 256
    shed_policy: str = "raise"
    pressure_threshold: float = 0.8
    # Residency / durability.
    max_resident_sessions: int = 64
    checkpoint_dir: Optional[str] = None
    checkpoint_interval: int = 256
    keep_generations: int = 2
    # Circuit breaker.
    breaker_failure_threshold: int = 5
    breaker_reset_seconds: float = 30.0
    breaker_half_open_probes: int = 1
    breaker_clock: Optional[Callable[[], float]] = None
    # Matcher construction (mirrors StreamingMatcher).
    strict: bool = False
    horizon_seconds: Optional[int] = None
    max_live_anchors: int = 10_000
    max_lateness: Optional[int] = None
    overflow_policy: str = "raise"
    # Observability.  ``recorder_dir`` receives a flight-recorder dump
    # whenever a breaker trips; the ``tenant_labels`` top tenants by
    # submitted volume get labelled counter children (0: none).
    recorder_dir: Optional[str] = None
    tenant_labels: int = 0


@dataclass(frozen=True)
class ServiceDetection:
    """One detection with its service coordinates.

    ``seq`` is the per-session sequence number of the event that
    completed the detection; ``ordinal`` is the session's running
    detection count at emission (the matcher's ``detections_emitted``
    counter, which round-trips through checkpoints, so WAL replay
    reproduces it exactly - even for the two *identical* detections a
    duplicated root event can complete on one input).  Rehydration
    replay may re-emit a detection (``replayed=True``); exactly-once
    consumers dedupe on :meth:`dedupe_key`.
    """

    tenant: str
    key: str
    seq: int
    detection: Detection
    replayed: bool = False
    ordinal: int = 0

    def dedupe_key(self) -> Tuple:
        return (
            self.tenant, self.key, self.seq, self.ordinal,
            self.detection.anchor_time, self.detection.detected_at,
            tuple(sorted(self.detection.bindings.items())),
        )


class _TenantCounters:
    """Bounded-cardinality ``{tenant="..."}`` children of the hottest
    service counters (received / detections / shed).

    The aggregate families keep counting regardless; only the ``limit``
    highest-volume tenants (by submitted events) additionally carry a
    labelled child.  When a newcomer outgrows the coldest labelled
    tenant it takes the slot; the demoted tenant's children stay
    registered at their last value (Prometheus counters are
    monotonic), they just stop advancing - so scrape cardinality grows
    only on promotion, never per tenant.
    """

    __slots__ = ("limit", "_volumes", "_members")

    _FAMILIES = (
        ("received", "repro_service_events_total"),
        ("detections", "repro_service_detections_total"),
        ("shed", "repro_service_queue_shed_total"),
    )

    def __init__(self, limit: int) -> None:
        self.limit = max(0, limit)
        self._volumes: Dict[str, int] = {}
        self._members: Dict[str, Dict[str, Counter]] = {}

    def _family(self, tenant: str) -> Dict[str, Counter]:
        return {
            short: counter(name, labels={"tenant": tenant})
            for short, name in self._FAMILIES
        }

    def record(self, tenant: str, received: int = 0,
               detections: int = 0, shed: int = 0) -> None:
        if not self.limit:
            return
        volume = self._volumes.get(tenant, 0) + received
        self._volumes[tenant] = volume
        members = self._members
        family = members.get(tenant)
        if family is None:
            if len(members) < self.limit:
                family = members[tenant] = self._family(tenant)
            else:
                coldest = min(
                    members, key=lambda t: self._volumes.get(t, 0)
                )
                if volume <= self._volumes.get(coldest, 0):
                    return
                del members[coldest]
                family = members[tenant] = self._family(tenant)
        if received:
            family["received"].add(received)
        if detections:
            family["detections"].add(detections)
        if shed:
            family["shed"].add(shed)

    def labelled_tenants(self) -> List[str]:
        return sorted(self._members)


class _TenantState:
    """Everything the service keeps per tenant."""

    __slots__ = (
        "pending", "breaker", "worker", "wake", "stop",
        "submitted", "processed", "quarantined", "shed", "context",
    )

    def __init__(self, breaker: CircuitBreaker):
        self.pending: Deque[Tuple[str, str, int]] = deque()
        self.breaker = breaker
        self.worker: Optional[asyncio.Task] = None
        self.wake: Optional[asyncio.Event] = None
        self.stop = False
        self.submitted = 0
        self.processed = 0
        self.quarantined = 0
        self.shed = 0
        #: Identity of the span that first submitted this tenant's
        #: events: later drains (which run from the event loop, outside
        #: the submitting span) re-parent ``service.route`` under it.
        self.context: Optional[TraceContext] = None


class DetectionService:
    """Route multi-tenant event streams to per-session matchers.

    Use :meth:`submit` / :meth:`drain` / :meth:`close` from a running
    event loop, or the synchronous :func:`serve_events` facade.

    Every session, new or rehydrated, runs over ``build``: the
    service's one compiled pattern.  ``system`` is unused, since no
    checkpoint is decoded into a pattern; it stays for the callers
    that pass it, ``perf/inproc.py`` among them.
    """

    def __init__(
        self,
        build: TagBuild,
        config: Optional[ServiceConfig] = None,
        store: Optional[CheckpointStoreBase] = None,
        system=None,
    ):
        config = config if config is not None else ServiceConfig()
        if config.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        self.build = build
        self.config = config
        self.shed_policy = normalize_overflow_policy(config.shed_policy)
        self.store = store if store is not None else open_store(
            config.checkpoint_dir, config.keep_generations
        )
        self.registry = SessionRegistry(
            self.store,
            self._new_matcher,
            max_resident=config.max_resident_sessions,
            context_for=self._tenant_context,
        )
        self.quarantine = Quarantine(source="service")
        self.detections: List[ServiceDetection] = []
        self._tenants: Dict[str, _TenantState] = {}
        #: Events in every tenant queue: the queue-depth gauge, kept
        #: as a running total wherever a queue grows or shrinks.
        self._queued = 0
        #: Tenants whose breaker may not be closed: each joins on a
        #: trip and leaves when an export reads its breaker closed, so
        #: the breaker gauges never visit the closed majority.
        self._tripped: Set[_TenantState] = set()
        self._tenant_counters = _TenantCounters(config.tenant_labels)
        self._closed = False

    def _tenant_context(self, tenant: str) -> Optional[TraceContext]:
        """The span identity this tenant's work re-parents under."""
        state = self._tenants.get(tenant)
        return state.context if state is not None else None

    def _new_matcher(self) -> StreamingMatcher:
        cfg = self.config
        return StreamingMatcher(
            self.build,
            strict=cfg.strict,
            horizon_seconds=cfg.horizon_seconds,
            max_live_anchors=cfg.max_live_anchors,
            max_lateness=cfg.max_lateness,
            overflow_policy=cfg.overflow_policy,
        )

    # ------------------------------------------------------------------
    # Ingress
    # ------------------------------------------------------------------
    def _tenant(self, tenant: str) -> _TenantState:
        state = self._tenants.get(tenant)
        if state is None:
            state = _TenantState(
                CircuitBreaker(
                    failure_threshold=self.config.breaker_failure_threshold,
                    reset_seconds=self.config.breaker_reset_seconds,
                    half_open_probes=self.config.breaker_half_open_probes,
                    clock=self.config.breaker_clock,
                )
            )
            self._tenants[tenant] = state
        return state

    def _ensure_worker(self, state: _TenantState, tenant: str) -> None:
        if state.wake is None:
            state.wake = asyncio.Event()
        if state.worker is None or state.worker.done():
            # A fresh task also resurrects a worker that died - one
            # tenant's crash never takes the service down.
            state.worker = asyncio.get_running_loop().create_task(
                self._worker_loop(tenant, state)
            )

    def effective_capacity(self, tenant: str) -> int:
        """The tenant's queue bound under the current capacity signal.

        Halved (minimum 1) while any of the tenant's resident sessions
        runs hot: live anchors at ``pressure_threshold`` of the limit,
        or watermark lag beyond twice ``max_lateness``.
        """
        capacity = self.config.queue_capacity
        limit = max(1, self.config.max_live_anchors)
        lateness = self.config.max_lateness
        for session in self.registry.resident_for_tenant(tenant):
            matcher = session.matcher
            if (
                matcher.live_anchors / limit
                >= self.config.pressure_threshold
            ) or (
                lateness is not None
                and matcher.watermark_lag > 2 * lateness
            ):
                return max(1, capacity // 2)
        return capacity

    async def submit(
        self, tenant: str, key: str, etype: Any, time: Any
    ) -> None:
        """Enqueue one event for ``(tenant, key)``.

        Applies the shed policy when the tenant's queue is at its
        effective capacity (``raise`` -> :class:`TenantOverloadError`),
        then yields to the tenant's worker.
        """
        if self._closed:
            raise ServiceClosedError("the service is closed")
        state = self._tenant(tenant)
        if state.context is None:
            state.context = current_context()
        state.submitted += 1
        _EVENTS.inc()
        self._tenant_counters.record(tenant, received=1)
        capacity = self.effective_capacity(tenant)
        if len(state.pending) >= capacity:
            if self.shed_policy == "raise":
                _SHED.inc()
                state.shed += 1
                self._tenant_counters.record(tenant, shed=1)
                raise TenantOverloadError(tenant, capacity)
            items = list(state.pending)
            items.append((key, etype, time))
            kept, shed = apply_overflow(items, capacity, self.shed_policy)
            self._queued += len(kept) - len(state.pending)
            state.pending = deque(kept)
            state.shed += shed
            _SHED.add(shed)
            self._tenant_counters.record(tenant, shed=shed)
        else:
            state.pending.append((key, etype, time))
            self._queued += 1
        self._ensure_worker(state, tenant)
        state.wake.set()
        self._export_gauges()
        await asyncio.sleep(0)  # let the worker run

    # ------------------------------------------------------------------
    # Processing
    # ------------------------------------------------------------------
    async def _worker_loop(self, tenant: str, state: _TenantState) -> None:
        while True:
            await state.wake.wait()
            state.wake.clear()
            self._drain_tenant(tenant, state)
            if state.stop:
                break

    def _drain_tenant(self, tenant: str, state: _TenantState) -> None:
        """Process the tenant's queue until empty or breaker-parked.

        Synchronous (no awaits), so per-tenant event order can never
        interleave - the backbone of the bit-identity guarantee.
        """
        if not state.pending:
            return
        with linked_span(
            "service.route", state.context,
            tenant=tenant, batch=len(state.pending),
        ):
            while state.pending:
                if not state.breaker.allow():
                    break  # parked until cooldown admits probes
                key, etype, time = state.pending.popleft()
                self._queued -= 1
                self._process(tenant, state, key, etype, time)
        self._export_gauges()

    def _process(
        self, tenant: str, state: _TenantState,
        key: str, etype: Any, time: Any,
    ) -> None:
        state.processed += 1
        try:
            validate_event(etype, time)
        except ValueError as exc:
            self._reject(tenant, state, key, etype, time, exc)
            return
        session = self._acquire(tenant, key)
        session.seq += 1
        self.store.append_wal(tenant, key, session.seq, etype, time)
        try:
            found = session.matcher.feed(etype, time)
        except (ValueError, RuntimeError) as exc:
            self._reject(tenant, state, key, etype, time, exc)
            return
        state.breaker.record_success()
        self._emit(session, found)
        self._tenant_counters.record(tenant, detections=len(found))
        self.registry.maybe_checkpoint(
            session, self.config.checkpoint_interval
        )

    def _acquire(self, tenant: str, key: str):
        """The session, after recording what rehydration replayed."""
        session, replayed = self.registry.acquire(tenant, key)
        self.detections.extend(
            ServiceDetection(
                tenant, key, seq, detection, replayed=True, ordinal=ordinal
            )
            for seq, ordinal, detection in replayed
        )
        return session

    def _emit(self, session, found: List[Detection]) -> None:
        """Record detections the session's latest call completed."""
        base = session.matcher.detections_emitted - len(found)
        self.detections.extend(
            ServiceDetection(
                session.tenant, session.key, session.seq, detection,
                ordinal=base + offset,
            )
            for offset, detection in enumerate(found)
        )
        _DETECTIONS.add(len(found))

    def _reject(
        self, tenant: str, state: _TenantState,
        key: str, etype: Any, time: Any, exc: Exception,
    ) -> None:
        reason = "%s: %s" % (type(exc).__name__, exc)
        self.quarantine.add(
            reason=reason,
            raw={"tenant": tenant, "key": key,
                 "etype": etype, "time": time},
        )
        state.quarantined += 1
        _QUARANTINED.inc()
        # Leave evidence in the black box even when nobody is tracing:
        # an error-status note hits the recorder's capture trigger.
        global_recorder().note(
            "service.reject", status="error",
            tenant=tenant, key=key, reason=reason,
        )
        trips_before = state.breaker.trips
        state.breaker.record_failure()
        if state.breaker.trips > trips_before:
            self._tripped.add(state)
            self._on_breaker_trip(tenant, state)

    def _on_breaker_trip(self, tenant: str, state: _TenantState) -> None:
        """Persist a flight-recorder dump when a breaker opens.

        The dump lands in ``config.recorder_dir``; without one the trip
        is still noted in the ring but nothing is written.
        """
        directory = self.config.recorder_dir
        recorder = global_recorder()
        recorder.note(
            "service.breaker_trip", status="error",
            tenant=tenant, trips=state.breaker.trips,
        )
        if not directory or not recorder.active:
            return
        os.makedirs(directory, exist_ok=True)
        safe = re.sub(r"[^A-Za-z0-9._-]", "_", tenant) or "tenant"
        path = os.path.join(
            directory,
            "flightrec-%s-%03d.json" % (safe, state.breaker.trips),
        )
        recorder.dump(path, reason="breaker-trip tenant=%s" % tenant)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def drain(self) -> None:
        """Process until every queue is empty or breaker-parked.

        Re-consults each breaker, so after its cooldown elapses a call
        to drain is what releases a parked backlog.
        """
        while True:
            progressed = False
            for tenant, state in self._tenants.items():
                before = len(state.pending)
                self._drain_tenant(tenant, state)
                if len(state.pending) != before:
                    progressed = True
            await asyncio.sleep(0)
            if not progressed:
                return

    async def flush(self) -> None:
        """Drain, then flush every session's reorder buffer (end of
        stream).

        Sessions are visited only with ``max_lateness`` configured:
        without it no matcher has a reorder buffer, and visiting would
        rehydrate spilled sessions for nothing.  With it, spilled
        sessions are rehydrated to flush too: their buffered events are
        part of the stream, and eviction must not change what gets
        detected.
        """
        await self.drain()
        if self.config.max_lateness is None:
            return
        for tenant, key in self.registry.session_keys():
            session = self._acquire(tenant, key)
            self._emit(session, session.matcher.flush())

    async def close(self) -> None:
        """Stop workers and checkpoint every resident session."""
        if self._closed:
            return
        self._closed = True
        workers = []
        for state in self._tenants.values():
            state.stop = True
            if state.wake is not None:
                state.wake.set()
            if state.worker is not None:
                workers.append(state.worker)
        if workers:
            await asyncio.gather(*workers, return_exceptions=True)
        self.registry.checkpoint_all()
        self._export_gauges()

    def recover(self) -> List[ServiceDetection]:
        """Rehydrate every session the store knows about.

        The crash-recovery entry point: restores each session from its
        last durable checkpoint and replays its WAL suffix, returning
        the re-emitted detections (also appended to
        :attr:`detections`, flagged ``replayed=True``).  At-least-once:
        a detection delivered just before the crash may appear again.
        """
        before = len(self.detections)
        for tenant, key in self.store.sessions():
            self._acquire(tenant, key)
        recovered = self.detections[before:]
        _DETECTIONS.add(len(recovered))
        return recovered

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def _export_gauges(self) -> None:
        """Set the queue-depth and breaker-state gauges.

        Costs the number of tripped tenants, not of all tenants.
        Reading each tripped breaker's ``state`` still applies its lazy
        open -> half-open move, so a cooled-down breaker shows as
        half-open at the first export after its cooldown.
        """
        _QUEUE_DEPTH.set(self._queued)
        counts = dict.fromkeys(BREAKER_STATES, 0)
        for state in list(self._tripped):
            current = state.breaker.state
            if current == CLOSED:
                self._tripped.discard(state)
            else:
                counts[current] += 1
        counts[CLOSED] = len(self._tenants) - len(self._tripped)
        for name, value in counts.items():
            _BREAKER_GAUGES[name].set(value)

    def parked(self, tenant: str) -> int:
        """Events waiting in a tenant's queue (parked or unprocessed)."""
        state = self._tenants.get(tenant)
        return len(state.pending) if state else 0

    def tenants(self) -> List[str]:
        return sorted(self._tenants)

    def stats(self) -> Dict[str, Any]:
        """One JSON-friendly operational snapshot."""
        per_tenant = {}
        for tenant, state in sorted(self._tenants.items()):
            per_tenant[tenant] = {
                "submitted": state.submitted,
                "processed": state.processed,
                "quarantined": state.quarantined,
                "shed": state.shed,
                "parked": len(state.pending),
                "breaker": state.breaker.snapshot(),
            }
        return {
            "tenants": per_tenant,
            "sessions": self.registry.stats(),
            "detections": len(self.detections),
            "quarantined": len(self.quarantine),
            "labelled_tenants": self._tenant_counters.labelled_tenants(),
            "closed": self._closed,
        }


def serve_events(
    build: TagBuild,
    events: Iterable[Tuple[str, str, Any, Any]],
    config: Optional[ServiceConfig] = None,
    store: Optional[CheckpointStoreBase] = None,
    system=None,
) -> DetectionService:
    """Synchronous facade: run a whole multi-tenant stream.

    ``events`` yields ``(tenant, key, etype, time)`` tuples.  Submits
    everything, drains (flushing reorder buffers at end of stream),
    closes, and returns the closed service for inspection
    (``.detections``, ``.stats()``, ``.quarantine``).
    """

    async def _run() -> DetectionService:
        service = DetectionService(
            build, config=config, store=store, system=system
        )
        for tenant, key, etype, time in events:
            await service.submit(tenant, key, etype, time)
        await service.flush()
        await service.close()
        return service

    return asyncio.run(_run())
