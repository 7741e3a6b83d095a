"""Intersection of temporal types: common refinements.

A tick of ``intersection(a, b)`` is a non-empty overlap between a tick
of ``a`` and a tick of ``b`` (restricted to the instants both cover).
The flagship use is **business hours**: intersecting ``b-day`` with a
daily 09:00-17:00 window yields one tick per working day's office
hours - a granularity none of the primitive constructors express.

Tick enumeration walks both boundary streams in order (a merge scan),
caching discovered ticks; lookups beyond the scan extend it on demand.
The walk to the next overlap is bounded, so operands that never meet
leave the type without ticks instead of scanning forever.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import List, Optional, Tuple

from .base import TemporalType
from .normalform import cached_normal_form
from .periodic import PeriodicPatternType


class IntersectionType(TemporalType):
    """Pairwise-overlap refinement of two temporal types.

    For types with interior gaps the instant set of a tick is the set
    intersection; ``tick_of`` requires coverage by *both* operands.
    Requires both operands to keep producing ticks (the scan stops at
    whichever exhausts first).
    """

    def __init__(
        self,
        a: TemporalType,
        b: TemporalType,
        label: Optional[str] = None,
        max_ticks: int = 1_000_000,
    ):
        self.a = a
        self.b = b
        self.label = (
            label if label is not None else "%s*%s" % (a.label, b.label)
        )
        self.max_ticks = max_ticks
        self.alignment_seconds = max(
            1, _gcd(a.alignment_seconds, b.alignment_seconds)
        )
        self.total = a.total and b.total
        # Discovered ticks: parallel lists of (a index, b index) pairs
        # and their [first, last] second bounds, in time order.
        self._pairs: List[Tuple[int, int]] = []
        self._firsts: List[int] = []
        self._lasts: List[int] = []
        self._next_a = 0
        self._next_b = 0
        self._exhausted = False
        self._period_info_cache = False  # False = not computed yet
        self._joint_period_cache = False  # False = not computed yet

    #: Overlap streams wider than this per lcm window get no declared
    #: period (the bounded scan would be as bad as the sweep).
    _PERIOD_SCAN_BOUND = 1 << 20

    def period_info(self):
        """Exact period when both operands declare one.

        The joint boundary configuration repeats every ``lcm(Sa, Sb)``
        seconds, and because each operand is periodic from *its* tick
        0, the overlap stream is periodic from tick 0 too (instants
        before both operands start contain no overlaps at all).  The
        tick count per lcm window is counted by one bounded merge scan
        and cached; None when an operand declares no period, the
        estimated scan exceeds the bound, or the operands exhaust
        before one full window.
        """
        if self._period_info_cache is not False:
            return self._period_info_cache
        info = None
        info_a = getattr(self.a, "period_info", None)
        info_a = info_a() if callable(info_a) else None
        info_b = getattr(self.b, "period_info", None)
        info_b = info_b() if callable(info_b) else None
        if info_a is not None and info_b is not None:
            ticks_a, seconds_a = info_a
            ticks_b, seconds_b = info_b
            window = seconds_a * seconds_b // _gcd(seconds_a, seconds_b)
            estimate = ticks_a * (window // seconds_a) + ticks_b * (
                window // seconds_b
            )
            if 0 < estimate <= min(self._PERIOD_SCAN_BOUND, self.max_ticks):
                try:
                    first0 = self.tick_bounds(0)[0]
                except ValueError:
                    first0 = None
                if first0 is not None:
                    self._ensure_time(first0 + window)
                    if self._lasts and self._lasts[-1] >= first0 + window:
                        count = bisect_right(self._firsts, first0 + window - 1)
                        info = (count, window)
        self._period_info_cache = info
        return info

    # ------------------------------------------------------------------
    # Scanning
    # ------------------------------------------------------------------
    def _joint_period(self) -> Optional[Tuple[int, int, int]]:
        """``(lcm of the operands' periods in seconds, index of a's
        first periodic tick, index of b's)``, or None when an operand
        has no period.

        A declared ``period_info()`` repeats from tick 0.  Otherwise
        the operand's normal form gives the period, which repeats from
        the first tick after the form's aperiodic prefix.
        """
        if self._joint_period_cache is False:
            periods = [_period_of(self.a), _period_of(self.b)]
            if None in periods:
                self._joint_period_cache = None
            else:
                (seconds_a, skip_a), (seconds_b, skip_b) = periods
                self._joint_period_cache = (
                    seconds_a * seconds_b // _gcd(seconds_a, seconds_b),
                    skip_a,
                    skip_b,
                )
        return self._joint_period_cache

    def _extend(self) -> bool:
        """Discover the next overlapping pair; False when exhausted.

        The walk is bounded.  Once it has passed both operands'
        aperiodic prefixes, both repeat every joint period, so a whole
        joint period without an overlap means none will ever come;
        without a period for both operands the walk gives up after
        ``max_ticks`` operand ticks.  Either way the type is exhausted
        from then on.
        """
        if self._exhausted or len(self._pairs) >= self.max_ticks:
            return False
        joint = self._joint_period()
        window = skip_a = skip_b = None
        if joint is not None:
            window, skip_a, skip_b = joint
        start = None
        for _ in range(self.max_ticks):
            try:
                first_a, last_a = self.a.tick_bounds(self._next_a)
                first_b, last_b = self.b.tick_bounds(self._next_b)
            except ValueError:
                break
            lo = max(first_a, first_b)
            if (
                start is None
                and window is not None
                and self._next_a >= skip_a
                and self._next_b >= skip_b
            ):
                start = lo
            if start is not None and min(first_a, first_b) >= start + window:
                break
            hi = min(last_a, last_b)
            advance_a = last_a <= last_b
            advance_b = last_b <= last_a
            if lo <= hi:
                pair = (self._next_a, self._next_b)
                if advance_a:
                    self._next_a += 1
                if advance_b:
                    self._next_b += 1
                self._pairs.append(pair)
                self._firsts.append(lo)
                self._lasts.append(hi)
                return True
            if advance_a:
                self._next_a += 1
            if advance_b:
                self._next_b += 1
        self._exhausted = True
        return False

    def _ensure_time(self, second: int) -> None:
        """Scan until the discovered ticks pass ``second``."""
        while (not self._lasts or self._lasts[-1] < second) and self._extend():
            pass

    def _ensure_count(self, count: int) -> None:
        while len(self._pairs) < count and self._extend():
            pass

    # ------------------------------------------------------------------
    # TemporalType interface
    # ------------------------------------------------------------------
    def tick_of(self, second: int) -> Optional[int]:
        if second < 0:
            return None
        self._ensure_time(second)
        slot = bisect_right(self._firsts, second) - 1
        if slot < 0 or self._lasts[slot] < second:
            return None
        index_a, index_b = self._pairs[slot]
        # Within the bounds overlap, but the instant must belong to
        # both ticks (operands may have interior gaps).
        if self.a.tick_of(second) != index_a:
            return None
        if self.b.tick_of(second) != index_b:
            return None
        return slot

    def tick_bounds(self, index: int) -> Tuple[int, int]:
        if index < 0:
            raise ValueError("tick index must be non-negative")
        self._ensure_count(index + 1)
        if index >= len(self._pairs):
            raise ValueError(
                "tick %d of %r not found (operands exhausted or "
                "disjoint, or max_ticks reached)" % (index, self.label)
            )
        return self._firsts[index], self._lasts[index]


def _period_of(ttype: TemporalType) -> Optional[Tuple[int, int]]:
    """``(period in seconds, index of the first periodic tick)`` of an
    operand, or None when it declares no period and has no normal
    form."""
    info = getattr(ttype, "period_info", None)
    info = info() if callable(info) else None
    if info is not None:
        return info[1], 0
    form = cached_normal_form(ttype)
    if form is None:
        return None
    return form.period_seconds, len(form.prefix_firsts)


def _gcd(a: int, b: int) -> int:
    from math import gcd

    return gcd(a, b)


def business_hours(
    bday: TemporalType,
    start_hour: int = 9,
    end_hour: int = 17,
    label: Optional[str] = None,
) -> IntersectionType:
    """Office hours: working days intersected with a daily time window.

    One tick per working day, covering ``start_hour:00`` to
    ``end_hour:00`` (exclusive) of that day.
    """
    if not 0 <= start_hour < end_hour <= 24:
        raise ValueError("need 0 <= start < end <= 24")
    window = PeriodicPatternType(
        "daily-%02d-%02d" % (start_hour, end_hour),
        cycle_seconds=86400,
        segments=[(start_hour * 3600, (end_hour - start_hour) * 3600)],
    )
    return IntersectionType(
        bday,
        window,
        label=label
        if label is not None
        else "business-hours-%02d-%02d" % (start_hour, end_hour),
    )
