"""Process-wide memoisation of Figure 3 conversion outcomes.

Interval conversion between granularities (appendix A.1 / the direct
boundary scan) is the single hottest primitive shared by constraint
propagation, mining candidate evaluation and TAG horizon derivation:
the same ``(mu1, mu2, m, n)`` queries recur across every fixpoint
iteration and every candidate.  :class:`ConversionCache` memoises the
outcomes once per process so all of those layers share one table, and
keeps hit/miss/eviction counters that propagation surfaces
on ``PropagationResult``, the benchmark harness records per experiment,
and :mod:`repro.obs` exports process-wide (the global cache registers
callback metrics ``repro_convcache_*`` in the global registry, so the
hot path pays nothing for the mirror).

Keys are namespaced per :class:`~repro.granularity.registry.
GranularitySystem` (two systems may register behaviourally different
types under the same label - e.g. business days over different holiday
lists - so raw label keys would be unsound across systems).
"""

from __future__ import annotations

import itertools
import threading
from typing import Dict, NamedTuple, Optional, Tuple

from ..obs import global_metrics
from .conversion import ConversionOutcome

#: (namespace, m, n, source label, target label, mode)
CacheKey = Tuple[int, int, int, str, str, str]

_namespace_counter = itertools.count()


def new_namespace() -> int:
    """A fresh cache namespace token (one per granularity system)."""
    return next(_namespace_counter)


class CacheStats(NamedTuple):
    """One consistent reading of a cache's counters.

    Subtract two snapshots field-by-field to get the traffic of a
    region of code (what propagation does per call).
    """

    hits: int
    misses: int
    evictions: int
    entries: int


class ConversionCache:
    """A memo table for conversion outcomes with observable counters.

    Counter updates are thread-safe: every read-modify-write happens
    under the instance lock, so concurrent propagations over the same
    system never lose hits/misses (dict get/set themselves stay outside
    the lock - they are atomic under the GIL and overwrites are
    idempotent by design).

    ``max_entries`` optionally bounds the table: inserts beyond the
    bound evict the oldest entry first (insertion-order FIFO) and count
    into ``evictions``.  The default is unbounded, which matches the
    workloads here (key cardinality is small); bounded caches exist for
    long-lived services with unbounded granularity churn.
    """

    def __init__(self, max_entries: Optional[int] = None) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be >= 1 (or None)")
        self._data: Dict[CacheKey, ConversionOutcome] = {}
        self._lock = threading.Lock()
        self.max_entries = max_entries
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    # ------------------------------------------------------------------
    # Counters (read-only views)
    # ------------------------------------------------------------------
    @property
    def hits(self) -> int:
        return self._hits

    @property
    def misses(self) -> int:
        return self._misses

    @property
    def evictions(self) -> int:
        return self._evictions

    def snapshot(self) -> CacheStats:
        """A consistent :class:`CacheStats` reading (taken under the
        lock, so hits/misses/evictions belong to one moment)."""
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                entries=len(self._data),
            )

    def reset(self) -> None:
        """Zero the counters *without* dropping cached entries.

        The differential tests bracket a region with
        ``reset()``/``snapshot()`` instead of reaching into private
        attributes; entries survive so the measured region still sees
        a warm cache.
        """
        with self._lock:
            self._hits = 0
            self._misses = 0
            self._evictions = 0

    def stats(self) -> Dict[str, int]:
        """Counters in a JSON-friendly form (for benchmarks/metrics)."""
        snap = self.snapshot()
        return {
            "entries": snap.entries,
            "hits": snap.hits,
            "misses": snap.misses,
            "evictions": snap.evictions,
        }

    # ------------------------------------------------------------------
    # The memo table
    # ------------------------------------------------------------------
    def get(self, key: CacheKey) -> Optional[ConversionOutcome]:
        """The cached outcome, or None (counts a hit or a miss)."""
        outcome = self._data.get(key)
        with self._lock:
            if outcome is None:
                self._misses += 1
            else:
                self._hits += 1
        return outcome

    def put(self, key: CacheKey, outcome: ConversionOutcome) -> None:
        """Store one outcome (overwrites are idempotent by design)."""
        if self.max_entries is not None:
            with self._lock:
                if (
                    key not in self._data
                    and len(self._data) >= self.max_entries
                ):
                    del self._data[next(iter(self._data))]
                    self._evictions += 1
                self._data[key] = outcome
            return
        self._data[key] = outcome

    def __len__(self) -> int:
        return len(self._data)

    # ------------------------------------------------------------------
    # Merging worker traffic (the parallel engine protocol)
    # ------------------------------------------------------------------
    def merge_counts(
        self, hits: int = 0, misses: int = 0, evictions: int = 0
    ) -> None:
        """Fold a worker's counter deltas into this cache.

        Worker processes accumulate hits/misses in their (forked) cache
        copies; the parent adds the deltas back so process-wide cache
        statistics account for all work, serial or parallel.
        """
        if min(hits, misses, evictions) < 0:
            raise ValueError("cache counter deltas cannot be negative")
        with self._lock:
            self._hits += hits
            self._misses += misses
            self._evictions += evictions

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        with self._lock:
            self._data.clear()
            self._hits = 0
            self._misses = 0
            self._evictions = 0


_GLOBAL = ConversionCache()

# The process-wide cache mirrors its counters into the global metrics
# registry as callbacks: values are read at export time, so get/put pay
# nothing.  Per-test isolated caches are deliberately not mirrored.
_REGISTRY = global_metrics()
_REGISTRY.counter_callback(
    "repro_convcache_hits_total",
    lambda: _GLOBAL.hits,
    "Process-wide conversion cache hits",
)
_REGISTRY.counter_callback(
    "repro_convcache_misses_total",
    lambda: _GLOBAL.misses,
    "Process-wide conversion cache misses",
)
_REGISTRY.counter_callback(
    "repro_convcache_evictions_total",
    lambda: _GLOBAL.evictions,
    "Process-wide conversion cache evictions",
)
_REGISTRY.gauge_callback(
    "repro_convcache_entries",
    lambda: len(_GLOBAL),
    "Process-wide conversion cache resident entries",
)


def global_conversion_cache() -> ConversionCache:
    """The process-wide cache every granularity system shares by
    default (pass ``cache=`` to ``GranularitySystem`` to isolate)."""
    return _GLOBAL


def reset_global_conversion_cache() -> None:
    """Clear the process-wide cache (test isolation hook)."""
    _GLOBAL.clear()
