"""An in-memory temporal event store (the paper's data substrate)."""

from .._lazy import lazy_exports

_EXPORTS = {
    "EventStore": "eventstore",
    "EventRecord": "eventstore",
    "ColumnarEventStore": "columnar",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
