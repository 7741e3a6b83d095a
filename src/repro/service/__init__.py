"""repro.service: the multi-tenant streaming detection service.

A production front for the streaming layer: many tenants' event feeds
multiplexed over one process, with per-tenant fault isolation (circuit
breakers + the dead-letter quarantine), bounded ingress queues whose
shedding reuses the anchor-overflow policies, and checkpoint-backed
LRU eviction of idle sessions with crash recovery by WAL replay.

The whole layer sits *on top of* the existing modules - nothing
outside this package imports it - and is configured only through
:class:`ServiceConfig`.  See docs/RESILIENCE.md ("Service layer") for
the operational guide.
"""

from .breaker import BREAKER_STATES, CircuitBreaker
from .checkpoints import (
    CheckpointStoreBase,
    DirectoryCheckpointStore,
    MemoryCheckpointStore,
    SESSION_CHECKPOINT_VERSION,
    open_store,
)
from .errors import (
    CheckpointCorruptError,
    ServiceClosedError,
    ServiceError,
    TenantOverloadError,
)
from .registry import Session, SessionRegistry
from .service import (
    DetectionService,
    ServiceConfig,
    ServiceDetection,
    serve_events,
)

__all__ = [
    "DetectionService",
    "ServiceConfig",
    "ServiceDetection",
    "serve_events",
    "CircuitBreaker",
    "BREAKER_STATES",
    "SessionRegistry",
    "Session",
    "CheckpointStoreBase",
    "MemoryCheckpointStore",
    "DirectoryCheckpointStore",
    "SESSION_CHECKPOINT_VERSION",
    "open_store",
    "ServiceError",
    "ServiceClosedError",
    "TenantOverloadError",
    "CheckpointCorruptError",
]
