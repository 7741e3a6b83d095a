"""Resident-session management: LRU eviction backed by checkpoints.

A thousand tenants cannot all keep live :class:`StreamingMatcher`
state in memory.  The registry keeps at most ``max_resident`` sessions
resident; acquiring one beyond that evicts the least-recently-used
session by checkpointing it to the store and dropping the matcher.
The next event for an evicted session transparently *rehydrates* it
(under a ``service.rehydrate`` span): restore the last durable
checkpoint's state onto a fresh matcher from ``matcher_factory`` - the
service's one compiled pattern and config, so rehydration never
re-parses a pattern or rebuilds a TAG - then replay the WAL suffix
(events accepted after that checkpoint) through it.  A checkpoint of
another pattern fails loudly instead of running that pattern.  Replay
re-emits the detections those events completed, tagged with their
sequence numbers, giving at-least-once delivery across evictions and
crashes; consumers that need exactly-once dedupe on ``(tenant, key,
seq)``.

Recency is the order of the resident map (a session moves to its end
on every acquire, and eviction takes from its front), not wall time,
so eviction order is deterministic and the differential suite can
force churn by setting ``max_resident=1``.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Tuple

from ..automata.streaming import Detection, StreamingMatcher
from ..obs import TraceContext, counter, gauge, linked_span
from .checkpoints import CheckpointStoreBase

_EVICTIONS = counter(
    "repro_service_evictions_total",
    "Resident sessions spilled to the checkpoint store",
)
_REHYDRATIONS = counter(
    "repro_service_rehydrations_total",
    "Sessions restored from the checkpoint store",
)
_REPLAYED_EVENTS = counter(
    "repro_service_replayed_events_total",
    "WAL events replayed during rehydration",
)
_SESSIONS_RESIDENT = gauge(
    "repro_service_sessions",
    "Detection sessions by residency state",
    labels={"state": "resident"},
)
_SESSIONS_EVICTED = gauge(
    "repro_service_sessions",
    "Detection sessions by residency state",
    labels={"state": "evicted"},
)


class Session:
    """One resident ``(tenant, key)`` detection session."""

    __slots__ = ("tenant", "key", "matcher", "seq", "checkpointed_seq")

    def __init__(self, tenant: str, key: str, matcher: StreamingMatcher):
        self.tenant = tenant
        self.key = key
        self.matcher = matcher
        #: Sequence number of the last accepted event (0 before any).
        self.seq = 0
        #: Sequence the last durable checkpoint reflects.
        self.checkpointed_seq = 0


class SessionRegistry:
    """Keyed matchers with bounded residency and transparent spill.

    ``matcher_factory`` builds every session's matcher: a fresh one for
    a session with no durable state, and the one a rehydration restores
    its checkpoint onto.
    """

    def __init__(
        self,
        store: CheckpointStoreBase,
        matcher_factory: Callable[[], StreamingMatcher],
        max_resident: int = 64,
        context_for: Optional[
            Callable[[str], Optional[TraceContext]]
        ] = None,
    ):
        if max_resident < 1:
            raise ValueError("max_resident must be >= 1")
        self.store = store
        self.matcher_factory = matcher_factory
        self.max_resident = max_resident
        #: Maps a tenant to the span identity its rehydrate spans
        #: should parent under (the service wires the tenant's
        #: originating-submit context in) - None falls back to stack
        #: nesting.
        self.context_for = context_for
        #: Resident sessions, least recently used first.
        self._resident: Dict[Tuple[str, str], Session] = OrderedDict()
        #: The same sessions by tenant, then key, so a tenant's lookup
        #: never scans the other tenants' sessions.
        self._by_tenant: Dict[str, Dict[str, Session]] = {}
        self._evicted_keys: set = set()
        self.evictions = 0
        self.rehydrations = 0

    # ------------------------------------------------------------------
    def acquire(
        self, tenant: str, key: str
    ) -> Tuple[Session, List[Tuple[int, int, Detection]]]:
        """The session for ``(tenant, key)``, rehydrating if spilled.

        Returns the session plus any detections re-emitted by WAL
        replay (``(seq, ordinal, detection)`` triples) - non-empty only
        when the durable state was behind the WAL, i.e. after a crash.
        """
        session = self._resident.get((tenant, key))
        replayed: List[Tuple[int, int, Detection]] = []
        if session is None:
            if self.store.has(tenant, key):
                session, replayed = self._rehydrate(tenant, key)
            else:
                session = Session(tenant, key, self.matcher_factory())
            self._resident[(tenant, key)] = session
            self._by_tenant.setdefault(tenant, {})[key] = session
            self._evicted_keys.discard((tenant, key))
            self._enforce_residency(keep=(tenant, key))
        else:
            self._resident.move_to_end((tenant, key))
        self._export_gauges()
        return session, replayed

    def _rehydrate(
        self, tenant: str, key: str
    ) -> Tuple[Session, List[Tuple[int, int, Detection]]]:
        parent = self.context_for(tenant) if self.context_for else None
        with linked_span(
            "service.rehydrate", parent, tenant=tenant, key=key
        ):
            payload = self.store.load(tenant, key)
            # WAL with no checkpoint yet: replay from a fresh matcher.
            session = Session(tenant, key, self.matcher_factory())
            if payload is not None:
                session.matcher.restore(payload["matcher"])
                session.seq = int(payload["seq"])
                session.checkpointed_seq = session.seq
            replayed: List[Tuple[int, int, Detection]] = []
            for seq, etype, time in self.store.wal_suffix(
                tenant, key, session.seq
            ):
                try:
                    found = session.matcher.feed(etype, time)
                except (ValueError, RuntimeError):
                    # The event also failed when first fed; its WAL
                    # entry records the attempt, not a state change.
                    found = []
                session.seq = seq
                base = session.matcher.detections_emitted - len(found)
                replayed.extend(
                    (seq, base + offset, detection)
                    for offset, detection in enumerate(found)
                )
                _REPLAYED_EVENTS.inc()
            self.rehydrations += 1
            _REHYDRATIONS.inc()
            return session, replayed

    # ------------------------------------------------------------------
    def _enforce_residency(self, keep: Tuple[str, str]) -> None:
        while len(self._resident) > self.max_resident:
            victim_key = next(k for k in self._resident if k != keep)
            self.evict(*victim_key)

    def evict(self, tenant: str, key: str) -> None:
        """Checkpoint one resident session and drop its matcher."""
        session = self._resident.pop((tenant, key))
        sessions = self._by_tenant[tenant]
        del sessions[key]
        if not sessions:
            del self._by_tenant[tenant]
        self.checkpoint(session)
        self._evicted_keys.add((tenant, key))
        self.evictions += 1
        _EVICTIONS.inc()
        self._export_gauges()

    def checkpoint(self, session: Session) -> None:
        """Write a session's durable checkpoint (truncates its WAL)."""
        self.store.save(
            session.tenant, session.key, session.seq,
            session.matcher.checkpoint(),
        )
        session.checkpointed_seq = session.seq

    def maybe_checkpoint(self, session: Session, interval: int) -> None:
        """Checkpoint when ``interval`` events accrued since the last,
        bounding how much WAL a crash replays."""
        if interval > 0 and session.seq - session.checkpointed_seq >= interval:
            self.checkpoint(session)

    def checkpoint_all(self) -> None:
        """Flush every resident session to the store (service close)."""
        for session in self._resident.values():
            self.checkpoint(session)

    # ------------------------------------------------------------------
    def session_keys(self) -> List[Tuple[str, str]]:
        """Every session this registry has ever held, resident or
        spilled, as sorted ``(tenant, key)`` pairs."""
        return sorted(set(self._resident) | self._evicted_keys)

    def resident_for_tenant(self, tenant: str) -> List[Session]:
        """The tenant's resident sessions, in no particular order."""
        return list(self._by_tenant.get(tenant, {}).values())

    def is_resident(self, tenant: str, key: str) -> bool:
        return (tenant, key) in self._resident

    def _export_gauges(self) -> None:
        _SESSIONS_RESIDENT.set(len(self._resident))
        _SESSIONS_EVICTED.set(len(self._evicted_keys))

    def stats(self) -> Dict[str, int]:
        return {
            "resident": len(self._resident),
            "evicted": len(self._evicted_keys),
            "evictions": self.evictions,
            "rehydrations": self.rehydrations,
        }
