"""Combinators that build new temporal types from existing ones.

The paper's NP-hardness gadget needs ``n-month`` types ("grouping each
consecutive n ticks of month into a single tick"); :class:`GroupedType`
implements exactly that, generalised with an offset so that e.g. fiscal
years (12 months starting in April) are expressible too.
:class:`FilteredType` keeps a sub-sequence of a base type's ticks
(re-indexed), which models types like "Mondays" or "odd days" and is used
by the property tests to exercise unusual granularities.

:class:`ShiftedType` (timezone/fiscal second offsets),
:class:`UnionType` (maximal overlap-chained runs of two types' ticks)
and :class:`NthSubgranuleType` ("the 2nd Tuesday of each month")
complete the calendar algebra of Bettini & Mascetti; each has a
matching normal-form operator in :mod:`repro.granularity.algebra` that
lowers it to a minimal periodic form, with these lazy merge scans as
the differential reference.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from math import gcd
from typing import Callable, List, Optional, Tuple

from .base import TemporalType


class GroupedType(TemporalType):
    """Group each ``n`` consecutive ticks of a base type into one tick.

    Tick *i* of the grouped type is the union of base ticks
    ``offset + i*n .. offset + i*n + n - 1``.  Instants covered by base
    ticks before ``offset`` are gaps of the grouped type.
    """

    def __init__(
        self,
        base: TemporalType,
        n: int,
        label: Optional[str] = None,
        offset: int = 0,
    ):
        if n <= 0:
            raise ValueError("group size must be positive")
        if offset < 0:
            raise ValueError("offset must be non-negative")
        self.base = base
        self.n = n
        self.offset = offset
        if label is None:
            label = "%d-%s" % (n, base.label)
            if offset:
                label += "+%d" % offset
        self.label = label
        self.alignment_seconds = base.alignment_seconds
        # Grouping keeps coverage; an offset uncovers the leading ticks.
        self.total = base.total and offset == 0

    def tick_of(self, second: int) -> Optional[int]:
        b = self.base.tick_of(second)
        if b is None or b < self.offset:
            return None
        return (b - self.offset) // self.n

    def tick_bounds(self, index: int) -> Tuple[int, int]:
        if index < 0:
            raise ValueError("tick index must be non-negative")
        first_base = self.offset + index * self.n
        first, _ = self.base.tick_bounds(first_base)
        _, last = self.base.tick_bounds(first_base + self.n - 1)
        return first, last

    def period_info(self):
        """Exact period when the base declares one: the grouped pattern
        repeats after lcm(base period, group size) base ticks."""
        base_info = getattr(self.base, "period_info", None)
        if not callable(base_info):
            return None
        info = base_info()
        if info is None:
            # A base with a period_info that answers None (e.g. a
            # holiday-laden business day) propagates the non-answer
            # instead of crashing the unpack.
            return None
        base_ticks, base_seconds = info
        lcm = base_ticks * self.n // gcd(base_ticks, self.n)
        return lcm // self.n, lcm // base_ticks * base_seconds


class FilteredType(TemporalType):
    """Keep the base ticks selected by a predicate, re-indexed from 0.

    The predicate receives a base tick index.  Because ranks of an
    arbitrary predicate cannot be computed in closed form, selected base
    indices are enumerated lazily and cached; ``max_base_index`` bounds
    the search so a predicate that is eventually always-false cannot make
    lookups diverge (the paper requires empties only at the end of time,
    which such a predicate would model).
    """

    def __init__(
        self,
        base: TemporalType,
        predicate: Callable[[int], bool],
        label: str,
        max_base_index: int = 1_000_000,
        predicate_period: Optional[int] = None,
    ):
        if predicate_period is not None and predicate_period < 1:
            raise ValueError("predicate_period must be positive")
        self.base = base
        self.predicate = predicate
        self.label = label
        self.max_base_index = max_base_index
        #: Declared period of the predicate in base ticks (a contract,
        #: like ``CustomCalendar.period_years``): the selection pattern
        #: must satisfy ``predicate(i) == predicate(i + period)``.
        #: Enables the calendar algebra's ``select`` lowering (and
        #: :meth:`period_info` for the sweep table).
        self.predicate_period = predicate_period
        self.alignment_seconds = base.alignment_seconds
        self._selected = []  # sorted base indices discovered so far
        self._scanned_upto = 0  # base indices < this have been classified
        self._period_info_cache = False  # False = not computed yet

    #: Selection patterns wider than this are not worth a closed form.
    _PERIOD_SCAN_BOUND = 1 << 20

    def period_info(self):
        """Exact period when both the base and the predicate declare one.

        The joint pattern repeats after ``lcm(base period,
        predicate_period)`` base ticks; the tick count per period is the
        number of selected base indices in one such window (counted
        once and cached).  None when either period is undeclared, the
        window exceeds the scan bound, or no index is selected.
        """
        if self._period_info_cache is not False:
            return self._period_info_cache
        info = None
        m = self.predicate_period
        if m is not None:
            base_info = getattr(self.base, "period_info", None)
            base_period = base_info() if callable(base_info) else None
            if base_period is not None:
                base_ticks, base_seconds = base_period
                window = base_ticks * m // gcd(base_ticks, m)
                if window <= self._PERIOD_SCAN_BOUND:
                    count = sum(
                        1 for i in range(window) if self.predicate(i)
                    )
                    if count:
                        info = (count, window // base_ticks * base_seconds)
        self._period_info_cache = info
        return info

    def _scan_until(self, base_index: int) -> None:
        """Classify base ticks up to and including ``base_index``."""
        limit = min(base_index, self.max_base_index)
        while self._scanned_upto <= limit:
            if self.predicate(self._scanned_upto):
                self._selected.append(self._scanned_upto)
            self._scanned_upto += 1

    def _rank_of_base(self, base_index: int) -> Optional[int]:
        self._scan_until(base_index)
        if base_index > self.max_base_index:
            return None
        from bisect import bisect_left

        pos = bisect_left(self._selected, base_index)
        if pos < len(self._selected) and self._selected[pos] == base_index:
            return pos
        return None

    def tick_of(self, second: int) -> Optional[int]:
        b = self.base.tick_of(second)
        if b is None:
            return None
        return self._rank_of_base(b)

    def tick_bounds(self, index: int) -> Tuple[int, int]:
        if index < 0:
            raise ValueError("tick index must be non-negative")
        while len(self._selected) <= index:
            if self._scanned_upto > self.max_base_index:
                raise ValueError(
                    "tick %d of %r not found within the scan bound; the "
                    "type may have run out of non-empty ticks" % (index, self.label)
                )
            if self.predicate(self._scanned_upto):
                self._selected.append(self._scanned_upto)
            self._scanned_upto += 1
        return self.base.tick_bounds(self._selected[index])


class ShiftedType(TemporalType):
    """Shift every tick of a base type by ``delta`` seconds.

    Models timezone displacement (``delta = -5 * 3600`` for UTC-5
    views of a UTC calendar) and fiscal second offsets.  With a
    negative ``delta`` the leading base ticks that would start before
    instant 0 are dropped and the rest re-indexed from 0, keeping the
    non-negative-timeline contract.
    """

    def __init__(
        self, base: TemporalType, delta: int, label: Optional[str] = None
    ):
        self.base = base
        self.delta = int(delta)
        self.label = (
            label if label is not None else "%s%+ds" % (base.label, delta)
        )
        self.alignment_seconds = max(
            1, gcd(base.alignment_seconds, abs(self.delta))
        )
        self.total = base.total and self.delta == 0
        self._skip: Optional[int] = None

    def _skip_count(self) -> int:
        """Leading base ticks whose shifted start would be negative."""
        if self._skip is None:
            if self.delta >= 0:
                self._skip = 0
            else:
                self._skip = self.base.first_tick_at_or_after(-self.delta)
        return self._skip

    def tick_of(self, second: int) -> Optional[int]:
        if second < 0 or second - self.delta < 0:
            return None
        b = self.base.tick_of(second - self.delta)
        skip = self._skip_count()
        if b is None or b < skip:
            return None
        return b - skip

    def tick_bounds(self, index: int) -> Tuple[int, int]:
        if index < 0:
            raise ValueError("tick index must be non-negative")
        first, last = self.base.tick_bounds(index + self._skip_count())
        return first + self.delta, last + self.delta

    def period_info(self):
        """A shift preserves the base period; only the phase moves.

        This holds for negative shifts too: dropping ``skip`` leading
        ticks rotates the phase, and a phase rotation of a sequence
        that is periodic from tick 0 is again periodic from tick 0.
        """
        base_info = getattr(self.base, "period_info", None)
        if not callable(base_info):
            return None
        return base_info()


class UnionType(TemporalType):
    """Union of two types: ticks are maximal overlap-chained runs.

    Both operands' tick streams are merged in time order; consecutive
    stream ticks whose bounds overlap coalesce into one tick (adjacent
    but non-overlapping ticks stay separate, so ``union(day, day)`` is
    ``day``, not one endless tick).  An instant is covered when either
    operand covers it.
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
            label if label is not None else "%s+%s" % (a.label, b.label)
        )
        self.max_ticks = max_ticks
        self.alignment_seconds = max(
            1, gcd(a.alignment_seconds, b.alignment_seconds)
        )
        self.total = a.total or b.total
        self._firsts: List[int] = []
        self._lasts: List[int] = []
        self._next_a = 0
        self._next_b = 0
        self._done_a = False
        self._done_b = False

    def _peek(self):
        """Earlier of the two streams' next ticks, or None."""
        bounds_a = bounds_b = None
        if not self._done_a:
            try:
                bounds_a = self.a.tick_bounds(self._next_a)
            except ValueError:
                self._done_a = True
        if not self._done_b:
            try:
                bounds_b = self.b.tick_bounds(self._next_b)
            except ValueError:
                self._done_b = True
        if bounds_a is not None and (
            bounds_b is None or bounds_a[0] <= bounds_b[0]
        ):
            return "a", bounds_a
        if bounds_b is not None:
            return "b", bounds_b
        return None

    def _pop(self, which: str) -> None:
        if which == "a":
            self._next_a += 1
        else:
            self._next_b += 1

    def _extend(self) -> bool:
        """Discover the next maximal run; False when exhausted."""
        if len(self._firsts) >= self.max_ticks:
            return False
        head = self._peek()
        if head is None:
            return False
        which, (lo, hi) = head
        self._pop(which)
        merged = 0
        while True:
            head = self._peek()
            if head is None or head[1][0] > hi:
                break
            which, (_, last) = head
            self._pop(which)
            hi = max(hi, last)
            merged += 1
            if merged > self.max_ticks:
                raise ValueError(
                    "a single tick of %r chained more than %d operand "
                    "ticks; the union has no finite ticks here"
                    % (self.label, self.max_ticks)
                )
        self._firsts.append(lo)
        self._lasts.append(hi)
        return True

    def _ensure_time(self, second: int) -> None:
        while (
            not self._lasts or self._lasts[-1] < second
        ) and self._extend():
            pass

    def tick_of(self, second: int) -> Optional[int]:
        if second < 0:
            return None
        self._ensure_time(second)
        slot = bisect_right(self._firsts, second) - 1
        if slot < 0 or self._lasts[slot] < second:
            return None
        # Inside the run's bounds; the instant must belong to at least
        # one operand tick (operands may have interior gaps).
        if self.a.tick_of(second) is None and self.b.tick_of(second) is None:
            return None
        return slot

    def tick_bounds(self, index: int) -> Tuple[int, int]:
        if index < 0:
            raise ValueError("tick index must be non-negative")
        while len(self._firsts) <= index and self._extend():
            pass
        if index >= len(self._firsts):
            raise ValueError(
                "tick %d of %r not found (operands exhausted or "
                "max_ticks reached)" % (index, self.label)
            )
        return self._firsts[index], self._lasts[index]


class NthSubgranuleType(TemporalType):
    """The ``n``-th fine tick fully inside each coarse tick.

    ``NthSubgranuleType(tuesdays, month, 2)`` is "the 2nd Tuesday of
    each month".  Coarse ticks containing fewer than ``n`` fully
    contained fine ticks contribute no tick; the result is re-indexed
    over the qualifying coarse ticks in order.
    """

    def __init__(
        self,
        fine: TemporalType,
        coarse: TemporalType,
        n: int,
        label: Optional[str] = None,
        max_ticks: int = 1_000_000,
    ):
        if n < 1:
            raise ValueError("n must be at least 1")
        self.fine = fine
        self.coarse = coarse
        self.n = n
        self.label = (
            label
            if label is not None
            else "%d@%s/%s" % (n, fine.label, coarse.label)
        )
        self.max_ticks = max_ticks
        self.alignment_seconds = fine.alignment_seconds
        self.total = False
        self._fine_indices: List[int] = []
        self._firsts: List[int] = []
        self._lasts: List[int] = []
        self._next_coarse = 0
        self._fine_ptr = 0
        self._exhausted = False

    def _extend(self) -> bool:
        """Discover the next qualifying coarse tick's nth subgranule."""
        if self._exhausted or len(self._firsts) >= self.max_ticks:
            return False
        while True:
            try:
                coarse_first, coarse_last = self.coarse.tick_bounds(
                    self._next_coarse
                )
                # Fully contained fine ticks form a contiguous index
                # range starting at the first fine tick at or after the
                # coarse tick's start (both streams are time-ordered,
                # so the pointer only moves forward).
                while (
                    self.fine.tick_bounds(self._fine_ptr)[0] < coarse_first
                ):
                    self._fine_ptr += 1
                k = self._fine_ptr + self.n - 1
                fine_first, fine_last = self.fine.tick_bounds(k)
            except ValueError:
                self._exhausted = True
                return False
            self._next_coarse += 1
            if fine_last <= coarse_last:
                self._fine_indices.append(k)
                self._firsts.append(fine_first)
                self._lasts.append(fine_last)
                return True

    def _ensure_time(self, second: int) -> None:
        # The next discovery may lie many coarse ticks ahead; scanning
        # stops once a discovered tick *starts* past ``second`` (a tick
        # ending before a gap instant is not enough to classify it).
        while (
            not self._firsts or self._firsts[-1] <= second
        ) and self._extend():
            pass

    def tick_of(self, second: int) -> Optional[int]:
        if second < 0:
            return None
        self._ensure_time(second)
        slot = bisect_right(self._firsts, second) - 1
        if slot < 0 or self._lasts[slot] < second:
            return None
        if self.fine.tick_of(second) != self._fine_indices[slot]:
            return None
        return slot

    def tick_bounds(self, index: int) -> Tuple[int, int]:
        if index < 0:
            raise ValueError("tick index must be non-negative")
        while len(self._firsts) <= index and self._extend():
            pass
        if index >= len(self._firsts):
            raise ValueError(
                "tick %d of %r not found (operands exhausted or "
                "max_ticks reached)" % (index, self.label)
            )
        return self._firsts[index], self._lasts[index]
