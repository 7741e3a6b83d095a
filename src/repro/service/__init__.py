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

from .._lazy import lazy_exports

_EXPORTS = {
    "DetectionService": "service",
    "ServiceConfig": "service",
    "ServiceDetection": "service",
    "serve_events": "service",
    "CircuitBreaker": "breaker",
    "BREAKER_STATES": "breaker",
    "SessionRegistry": "registry",
    "Session": "registry",
    "CheckpointStoreBase": "checkpoints",
    "MemoryCheckpointStore": "checkpoints",
    "DirectoryCheckpointStore": "checkpoints",
    "SESSION_CHECKPOINT_VERSION": "checkpoints",
    "open_store": "checkpoints",
    "ServiceError": "errors",
    "ServiceClosedError": "errors",
    "TenantOverloadError": "errors",
    "CheckpointCorruptError": "errors",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
