"""Resilience layer for the streaming/ingestion path.

The paper's data-mining application consumes real feeds (computer
accesses, bank transactions); real feeds are dirty.  This package
holds the pieces that keep detection running under jitter, bursts and
malformed records:

* :mod:`repro.resilience.errors` - edge validation and the shared
  :class:`EventValidationError` / :class:`StreamFeedError` types;
* :mod:`repro.resilience.reorder` - the bounded reorder buffer with
  watermarks that absorbs timestamp jitter;
* :mod:`repro.resilience.policies` - anchor-overflow degradation
  policies (``raise`` / ``shed-oldest`` / ``shed-newest`` /
  ``sample``);
* :mod:`repro.resilience.quarantine` - the dead-letter channel for
  malformed JSONL/CSV records;
* :mod:`repro.resilience.faults` - the deterministic fault-injection
  harness used by the chaos tests.

See docs/RESILIENCE.md for the operational guide.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "EventValidationError": "errors",
    "StreamFeedError": "errors",
    "validate_event": "errors",
    "describe_invalid": "errors",
    "ReorderBuffer": "reorder",
    "OVERFLOW_POLICIES": "policies",
    "normalize_overflow_policy": "policies",
    "apply_overflow": "policies",
    "Quarantine": "quarantine",
    "QuarantinedRecord": "quarantine",
    "FaultInjector": "faults",
    "InjectionResult": "faults",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
