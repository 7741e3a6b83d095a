"""Temporal types (time granularities) over a discrete absolute timeline.

A *temporal type* in the paper is a mapping ``mu`` from tick indices to
sets of absolute time instants such that (1) non-empty ticks are strictly
ordered and (2) once a tick is empty, all later ticks are empty.  This
module implements the discrete-time instantiation the paper notes all
results carry over to: the absolute timeline is the non-negative integers
(*seconds* since the epoch of :mod:`repro.granularity.gregorian`), and a
temporal type is described by two total functions:

``tick_of(second)``
    the index of the tick covering a second, or ``None`` when the second
    falls into a *gap* of the type (e.g. a Saturday for ``business-day``)
    — the paper's "undefined" case of the conversion operator
    ``ceil(z, mu)``;

``tick_bounds(index)``
    the first and last second (inclusive) of a tick.  Ticks may have
    internal gaps (e.g. a ``business-month`` tick excludes its weekends);
    the bounds are the min and max instants of the tick's instant set.

Tick indices are 0-based (the paper's positive integers shifted by one).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional, Tuple

from .gregorian import SECONDS_PER_DAY


class TemporalType(ABC):
    """Abstract base class of all temporal types (granularities).

    Concrete types are immutable and hashable; two types compare equal iff
    they have the same label, which the :class:`~repro.granularity.registry.
    GranularitySystem` keeps unique.
    """

    #: Human-readable unique name, e.g. ``"b-day"``.
    label: str

    #: The coarsest step (in seconds) at which this type's tick boundaries
    #: can move: 1 for second-based types, 86400 for day-based types, etc.
    #: Used by the relation checks of :mod:`repro.granularity.relations`
    #: to scan instants without visiting every second.
    alignment_seconds: int = 1

    #: True when the type covers every non-negative instant (no gaps and
    #: no phase).  Lets feasibility checks short-circuit; subclasses set
    #: it when they can guarantee totality.
    total: bool = False

    @abstractmethod
    def tick_of(self, second: int) -> Optional[int]:
        """Index of the tick covering ``second``, or None in a gap."""

    @abstractmethod
    def tick_bounds(self, index: int) -> Tuple[int, int]:
        """First and last second (inclusive) of tick ``index``.

        Raises :class:`ValueError` for negative indices.
        """

    # ------------------------------------------------------------------
    # Derived helpers
    # ------------------------------------------------------------------
    def covers(self, second: int) -> bool:
        """Return True if ``second`` belongs to some tick of this type."""
        return self.tick_of(second) is not None

    def contains(self, index: int, second: int) -> bool:
        """Return True if ``second`` is an instant of tick ``index``.

        For types with internal tick gaps this is more precise than a
        bounds check: the second must also be *covered* and covered by
        this very tick.
        """
        return self.tick_of(second) == index

    def distance(self, t1: int, t2: int) -> Optional[int]:
        """Tick distance ``tick_of(t2) - tick_of(t1)``, or None.

        This is the quantity constrained by a TCG.  None is returned when
        either second is uncovered.
        """
        z1 = self.tick_of(t1)
        if z1 is None:
            return None
        z2 = self.tick_of(t2)
        if z2 is None:
            return None
        return z2 - z1

    def first_tick_at_or_after(self, second: int) -> int:
        """Index of the first tick whose instants are all >= ``second``...

        More precisely: the smallest index ``i`` with
        ``tick_bounds(i)[0] >= second``.  Used by workload generators to
        sample tick-aligned instants.
        """
        i = self.tick_of(second)
        if i is None:
            # Binary search over indices using tick_bounds.
            lo, hi = 0, 1
            while self.tick_bounds(hi)[0] < second:
                hi *= 2
            while lo < hi:
                mid = (lo + hi) // 2
                if self.tick_bounds(mid)[0] >= second:
                    hi = mid
                else:
                    lo = mid + 1
            return lo
        first, _ = self.tick_bounds(i)
        return i if first >= second else i + 1

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<%s %r>" % (type(self).__name__, self.label)

    def __str__(self) -> str:
        return self.label

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TemporalType):
            return NotImplemented
        return self.label == other.label

    def __hash__(self) -> int:
        return hash(self.label)


class UniformType(TemporalType):
    """A type whose ticks all span the same number of seconds.

    Covers ``second``, ``minute``, ``hour``, ``day`` and ``week`` (our
    epoch day 0 is a Monday, so weeks are Monday-aligned with phase 0).
    An optional ``phase`` shifts tick 0 to start at ``phase`` seconds;
    instants before the phase are uncovered, matching the paper's
    requirement that a type need not cover all of absolute time.
    """

    def __init__(self, label: str, seconds_per_tick: int, phase: int = 0):
        if seconds_per_tick <= 0:
            raise ValueError("seconds_per_tick must be positive")
        if phase < 0:
            raise ValueError("phase must be non-negative")
        self.label = label
        self.seconds_per_tick = seconds_per_tick
        self.phase = phase
        self.alignment_seconds = _alignment_for(seconds_per_tick)
        self.total = phase == 0

    def tick_of(self, second: int) -> Optional[int]:
        if second < self.phase:
            return None
        return (second - self.phase) // self.seconds_per_tick

    def tick_bounds(self, index: int) -> Tuple[int, int]:
        if index < 0:
            raise ValueError("tick index must be non-negative")
        first = self.phase + index * self.seconds_per_tick
        return first, first + self.seconds_per_tick - 1

    def period_info(self) -> Tuple[int, int]:
        """Uniform types repeat trivially: one tick per period."""
        return 1, self.seconds_per_tick


def _alignment_for(seconds_per_tick: int) -> int:
    """Pick the natural boundary alignment for a uniform tick length."""
    for unit in (SECONDS_PER_DAY, 3600, 60):
        if seconds_per_tick % unit == 0:
            return unit
    return 1


class DayBasedType(TemporalType):
    """Base class for types whose ticks are unions of whole days.

    Subclasses implement the mapping between *day indices* and tick
    indices; this class lifts them to seconds.
    """

    alignment_seconds = SECONDS_PER_DAY

    @abstractmethod
    def day_tick_of(self, day_index: int) -> Optional[int]:
        """Tick index covering a day, or None if the day is a gap."""

    @abstractmethod
    def day_tick_bounds(self, index: int) -> Tuple[int, int]:
        """First and last day index (inclusive) of a tick."""

    def tick_of(self, second: int) -> Optional[int]:
        if second < 0:
            return None
        return self.day_tick_of(second // SECONDS_PER_DAY)

    def tick_bounds(self, index: int) -> Tuple[int, int]:
        first_day, last_day = self.day_tick_bounds(index)
        return (
            first_day * SECONDS_PER_DAY,
            (last_day + 1) * SECONDS_PER_DAY - 1,
        )
