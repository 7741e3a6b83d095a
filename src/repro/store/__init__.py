"""An in-memory temporal event store (the paper's data substrate)."""

from .columnar import ColumnarEventStore, columnar_kernel
from .eventstore import EventRecord, EventStore

__all__ = [
    "EventStore",
    "EventRecord",
    "ColumnarEventStore",
    "columnar_kernel",
]
