"""Size tables: ``minsize``, ``maxsize`` and ``mingap`` of temporal types.

The appendix A.1 conversion algorithm of the paper is driven by a table of
three quantities, all expressed in ticks of the primitive type (here:
seconds):

``minsize(mu, k)`` / ``maxsize(mu, k)``
    the minimum / maximum *span* of ``k`` consecutive ticks of ``mu``,
    i.e. ``last instant - first instant + 1`` (0 for ``k = 0``);

``mingap(mu, k)``
    the minimum of ``min(mu(i + k)) - max(mu(i))`` over all ``i`` - the
    smallest possible distance from an instant of a tick to an instant of
    the tick ``k`` positions later.

The paper assumes these values come from a pre-computed table for ``k``
up to some constant and are extended by "a linear combination of the known
values".  :class:`SizeTable` computes values by scanning tick boundaries
up to a horizon; a value is *certified exact* when the window sweep
provably saw every phase of the type - up to the full scan for finite
types, up to ``scanned - period`` for types declaring
``period_info()``, and up to half the horizon otherwise (the documented
``horizon >= 2 * period`` contract).  Beyond the certified range,
values are extended with *sound* combinations: ``minsize`` and
``mingap`` are never over-estimated and ``maxsize`` is never
under-estimated, which is exactly what the soundness of constraint
conversion requires.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional

from ..obs import counter
from .base import TemporalType

#: Default bound on each memo dict of a size table.  Streaming matchers
#: keep tables alive for the life of the process and probe them with
#: ever-new ``k`` values, so the memos must not grow without limit.
DEFAULT_MEMO_ENTRIES = 4096

# Process-wide table traffic, by backend (docs/OBSERVABILITY.md
# catalog).  The per-instance ``probes``/``probe_hits`` ints stay the
# per-table views the benchmark harness records.
_PROBES_SWEEP = counter(
    "repro_sizetable_probes_total",
    "Size-table lookups (minsize/maxsize/mingap), by backend",
    labels={"backend": "sweep"},
)
_EVICTIONS = counter(
    "repro_sizetable_evictions_total",
    "Size-table memo entries evicted by the LRU bound",
)


class BoundedMemo:
    """An LRU-bounded memo dict for size-table values.

    ``get`` refreshes recency; ``put`` beyond the bound evicts the
    least-recently-used entry and counts it (per instance and into
    ``repro_sizetable_evictions_total``).  Values are never None, so
    ``get`` returning None always means a miss.
    """

    __slots__ = ("cap", "_data", "evictions")

    def __init__(self, cap: int = DEFAULT_MEMO_ENTRIES):
        if cap < 1:
            raise ValueError("memo cap must be >= 1")
        self.cap = cap
        self._data: "OrderedDict" = OrderedDict()
        self.evictions = 0

    def get(self, key):
        value = self._data.get(key)
        if value is not None:
            self._data.move_to_end(key)
        return value

    def put(self, key, value) -> None:
        if key in self._data:
            self._data[key] = value
            self._data.move_to_end(key)
            return
        if len(self._data) >= self.cap:
            self._data.popitem(last=False)
            self.evictions += 1
            _EVICTIONS.inc()
        self._data[key] = value

    def __len__(self) -> int:
        return len(self._data)


class TableSearches:
    """The two searches of the Figure 3 conversion over a size table.

    Both tables (the window sweep below and the compiled
    :class:`~repro.granularity.normalform.CompiledSizeTable`) inherit
    them, so a conversion probes either table in the same order.
    """

    def min_k_with_minsize_at_least(
        self, target: int, cap: int = 1 << 24
    ) -> Optional[int]:
        """Smallest ``k`` with ``minsize(k) >= target``, or None past cap.

        ``minsize`` is non-decreasing in ``k``, so an exponential-then-
        binary search applies.
        """
        if target <= 0:
            return 0
        hi = 1
        while self.minsize(hi) < target:
            hi *= 2
            if hi > cap:
                return None
        lo = hi // 2
        while lo < hi:
            mid = (lo + hi) // 2
            if self.minsize(mid) >= target:
                hi = mid
            else:
                lo = mid + 1
        return lo

    def min_k_with_maxsize_greater(
        self, target: int, cap: int = 1 << 24
    ) -> Optional[int]:
        """Smallest ``k`` with ``maxsize(k) > target``, or None past cap."""
        if self.maxsize(0) > target:
            return 0
        hi = 1
        while self.maxsize(hi) <= target:
            hi *= 2
            if hi > cap:
                return None
        lo = hi // 2
        while lo < hi:
            mid = (lo + hi) // 2
            if self.maxsize(mid) > target:
                hi = mid
            else:
                lo = mid + 1
        return lo


class SizeTable(TableSearches):
    """Lazy, memoised min/max-span and min-gap table for one type.

    Parameters
    ----------
    ttype:
        The temporal type to tabulate.
    horizon:
        Number of leading ticks whose boundaries are scanned exactly.
        For (eventually) periodic types, a horizon covering one full
        period makes every in-horizon value exact; the default covers
        e.g. 42 years of months or 512 years outright, far more than one
        leap cycle of everything except bare ``year`` (which is uniform
        enough at this scale for the extrapolation to stay sound).
    memo_entries:
        LRU bound on each of the three memo dicts (see
        :class:`BoundedMemo`); long-lived processes keep probing tables
        with fresh ``k`` values, so the memos must stay bounded.
    """

    #: Backend tag surfaced by :meth:`probe_stats` (the compiled
    #: counterpart reports ``"compiled"``).
    backend = "sweep"

    def __init__(
        self,
        ttype: TemporalType,
        horizon: int = 512,
        memo_entries: int = DEFAULT_MEMO_ENTRIES,
    ):
        if horizon < 8:
            raise ValueError("horizon too small to be useful")
        self.ttype = ttype
        # Types that declare an exact period (see PeriodicPatternType)
        # get provably-exact in-horizon values: a window sweep covering
        # one full period of positions sees every phase.
        self._period_ticks: Optional[int] = None
        period_info = getattr(ttype, "period_info", None)
        if callable(period_info):
            info = period_info()
            if info is not None:
                self._period_ticks = int(info[0])
                horizon = max(horizon, 3 * self._period_ticks + 2)
        self.horizon = horizon
        self._first: List[int] = []
        self._last: List[int] = []
        self._exhausted = False  # the type ran out of ticks before horizon
        self._minsize_cache = BoundedMemo(memo_entries)
        self._maxsize_cache = BoundedMemo(memo_entries)
        self._mingap_cache = BoundedMemo(memo_entries)
        self._max_step_cache: Optional[int] = None
        #: Probe counters: total table lookups vs. the ones answered
        #: from the memo dicts (surfaced by the benchmark harness).
        self.probes = 0
        self.probe_hits = 0

    @property
    def memo_evictions(self) -> int:
        """Entries the LRU bound evicted across the three memos."""
        return (
            self._minsize_cache.evictions
            + self._maxsize_cache.evictions
            + self._mingap_cache.evictions
        )

    def probe_stats(self) -> dict:
        """JSON-friendly counters of table probes and memo hits."""
        return {
            "backend": self.backend,
            "probes": self.probes,
            "memo_hits": self.probe_hits,
            "scanned_ticks": len(self._first),
            "memo_evictions": self.memo_evictions,
        }

    # ------------------------------------------------------------------
    # Boundary scanning
    # ------------------------------------------------------------------
    def _ensure(self, count: int) -> None:
        """Scan tick boundaries until ``count`` ticks are known (or fewer
        if the type runs out of ticks)."""
        count = min(count, self.horizon)
        while len(self._first) < count and not self._exhausted:
            index = len(self._first)
            try:
                first, last = self.ttype.tick_bounds(index)
            except ValueError:
                self._exhausted = True
                break
            if first > last:
                raise ValueError(
                    "tick %d of %r has inverted bounds" % (index, self.ttype)
                )
            if self._last and first <= self._last[-1]:
                raise ValueError(
                    "ticks of %r are not monotonically ordered" % (self.ttype,)
                )
            self._first.append(first)
            self._last.append(last)

    def _scanned(self) -> int:
        self._ensure(self.horizon)
        return len(self._first)

    def _exact_limit(self, n: int, for_gap: bool = False) -> int:
        """Largest k whose scanned value is certifiably the global one.

        With an exhausted (finite) type everything scanned is exact; a
        declared period needs one period's worth of window positions;
        otherwise the half-horizon heuristic applies (the documented
        horizon >= 2 * period contract).
        """
        if self._exhausted:
            return n - 1 if for_gap else n
        if self._period_ticks is not None:
            slack = self._period_ticks + (1 if for_gap else 0)
            return max(1, n - slack + 1)
        return max(1, n // 2)

    def bounds(self, index: int):
        """Cached ``tick_bounds``; None beyond the horizon or the type's
        last tick."""
        if index < 0:
            raise ValueError("tick index must be non-negative")
        self._ensure(index + 1)
        if index < len(self._first):
            return self._first[index], self._last[index]
        return None

    def scanned_ticks(self) -> int:
        """Number of ticks whose boundaries are exactly known."""
        return self._scanned()

    # ------------------------------------------------------------------
    # Table entries
    # ------------------------------------------------------------------
    def minsize(self, k: int) -> int:
        """Minimum span (in seconds) of ``k`` consecutive ticks.

        Exact for ``k`` up to half the scanned horizon (every phase of a
        type whose period fits in the other half is then covered); for
        larger ``k`` the value is *under*-estimated using
        super-additivity of spans, preserving soundness of conversions.
        """
        if k < 0:
            raise ValueError("k must be non-negative")
        if k == 0:
            return 0
        self.probes += 1
        _PROBES_SWEEP.inc()
        cached = self._minsize_cache.get(k)
        if cached is not None:
            self.probe_hits += 1
            return cached
        n = self._scanned()
        if n == 0:
            raise ValueError("type %r has no ticks" % (self.ttype,))
        exact_limit = self._exact_limit(n)
        if k <= exact_limit:
            value = min(
                self._last[i + k - 1] - self._first[i] + 1
                for i in range(n - k + 1)
            )
        else:
            # Split k into blocks of at most exact_limit ticks;
            # consecutive blocks never overlap, so the total span is at
            # least the sum of block minima.
            q, r = divmod(k, exact_limit)
            value = q * self.minsize(exact_limit) + (
                self.minsize(r) if r else 0
            )
        self._minsize_cache.put(k, value)
        return value

    def maxsize(self, k: int) -> int:
        """Maximum span (in seconds) of ``k`` consecutive ticks.

        Exact for ``k`` up to half the scanned horizon; beyond that the
        value is *over*-estimated by extending the largest exact span
        with the largest observed per-tick step.
        """
        if k < 0:
            raise ValueError("k must be non-negative")
        if k == 0:
            return 0
        self.probes += 1
        _PROBES_SWEEP.inc()
        cached = self._maxsize_cache.get(k)
        if cached is not None:
            self.probe_hits += 1
            return cached
        n = self._scanned()
        if n == 0:
            raise ValueError("type %r has no ticks" % (self.ttype,))
        exact_limit = self._exact_limit(n)
        if k <= exact_limit:
            value = max(
                self._last[i + k - 1] - self._first[i] + 1
                for i in range(n - k + 1)
            )
        else:
            value = self.maxsize(exact_limit) + (
                k - exact_limit
            ) * self._max_step()
        self._maxsize_cache.put(k, value)
        return value

    def mingap(self, k: int) -> int:
        """Minimum of ``first(i + k) - last(i)`` over all ``i``.

        Note that ``mingap(0)`` is non-positive except for single-instant
        ticks.  Exact for ``k`` up to half the scanned horizon; beyond
        that the value is *under*-estimated via the identity
        ``gap(a + b) >= gap(a) + gap(b) + minsize(1) - 1``.
        """
        if k < 0:
            raise ValueError("k must be non-negative")
        self.probes += 1
        _PROBES_SWEEP.inc()
        cached = self._mingap_cache.get(k)
        if cached is not None:
            self.probe_hits += 1
            return cached
        n = self._scanned()
        if n == 0:
            raise ValueError("type %r has no ticks" % (self.ttype,))
        exact_limit = self._exact_limit(n, for_gap=True)
        if k <= exact_limit and k < n:
            value = min(
                self._first[i + k] - self._last[i] for i in range(n - k)
            )
        else:
            # Peel off q chunks of size exact_limit using
            # gap(a + b) >= gap(a) + gap(b) + minsize(1) - 1.
            chunk = exact_limit
            if chunk <= 0:
                raise ValueError(
                    "horizon too small to extrapolate mingap for %r"
                    % (self.ttype,)
                )
            q, r = divmod(k, chunk)
            if r > exact_limit:  # unreachable, defensive
                raise AssertionError("remainder exceeds exact limit")
            bridge = self.minsize(1) - 1
            value = q * (self.mingap(chunk) + bridge) + self.mingap(r)
        self._mingap_cache.put(k, value)
        return value

    def _max_step(self) -> int:
        """Largest observed advance of the tick *end* between neighbours."""
        if self._max_step_cache is not None:
            return self._max_step_cache
        n = self._scanned()
        if n < 2:
            raise ValueError(
                "horizon too small to extrapolate maxsize for %r"
                % (self.ttype,)
            )
        value = max(self._last[i + 1] - self._last[i] for i in range(n - 1))
        self._max_step_cache = value
        return value
