"""An in-memory temporal event store (the paper's data substrate)."""

from .columnar import (
    ColumnarEventStore,
    ColumnarFormatError,
    SharedColumns,
    attach_shared,
    columnar_kernel,
    load_columnar,
)
from .eventstore import EventRecord, EventStore

__all__ = [
    "EventStore",
    "EventRecord",
    "ColumnarEventStore",
    "ColumnarFormatError",
    "SharedColumns",
    "attach_shared",
    "columnar_kernel",
    "load_columnar",
]
