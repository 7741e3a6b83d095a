"""High-level facade over the paper's primary contribution.

For users who want the headline capabilities without navigating the
sub-packages: build granularity systems and event structures, check
consistency, compile complex event types to TAGs, match them, and run
discovery problems.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "check_consistency": "api",
    "compile_pattern": "api",
    "count_pattern": "api",
    "pattern_frequency": "api",
    "mine": "api",
    "stream_pattern": "api",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
