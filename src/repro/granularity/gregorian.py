"""Proleptic Gregorian calendar arithmetic, built from scratch.

The absolute timeline of this library is a sequence of integer *seconds*
starting at an epoch.  The epoch is second ``0`` = 00:00:00 on day ``0``,
which is declared to be **Monday, January 1 of epoch year 2000** of a
synthetic proleptic Gregorian calendar (standard Gregorian month lengths
and leap rules; the weekday anchoring is synthetic and documented, since
the library never needs to agree with the real-world calendar, only to be
a *valid temporal-type system* in the sense of the paper).

All functions here work on non-negative day indices and are pure integer
arithmetic; no ``datetime`` is used anywhere in the core library.
"""

from __future__ import annotations

from typing import Tuple

#: Seconds per day on the absolute timeline.
SECONDS_PER_DAY = 86400

#: Seconds per hour / minute, for convenience.
SECONDS_PER_HOUR = 3600
SECONDS_PER_MINUTE = 60

#: Calendar year of day index 0.
EPOCH_YEAR = 2000

#: Weekday of day index 0 (0 = Monday .. 6 = Sunday).
EPOCH_WEEKDAY = 0

#: Days in a full 400-year Gregorian cycle.
DAYS_PER_400_YEARS = 146097

#: Days in a non-leap 100-year sub-cycle.
DAYS_PER_100_YEARS = 36524

#: Days in a leap-every-4 4-year sub-cycle.
DAYS_PER_4_YEARS = 1461

#: Months in a full 400-year Gregorian cycle.
MONTHS_PER_400_YEARS = 4800

#: Days in each month of a non-leap year.
DAYS_IN_MONTH_COMMON = (31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)

_DAYS_IN_MONTH = DAYS_IN_MONTH_COMMON

# Cumulative days before each month in a non-leap year.
_CUM_DAYS = (0, 31, 59, 90, 120, 151, 181, 212, 243, 273, 304, 334)


def is_leap_year(year: int) -> bool:
    """Return True if ``year`` is a Gregorian leap year."""
    return year % 4 == 0 and (year % 100 != 0 or year % 400 == 0)


def days_in_year(year: int) -> int:
    """Return the number of days in ``year`` (365 or 366)."""
    return 366 if is_leap_year(year) else 365


def days_in_month(year: int, month: int) -> int:
    """Return the number of days in ``month`` (1-12) of ``year``."""
    if not 1 <= month <= 12:
        raise ValueError("month must be in 1..12, got %r" % (month,))
    if month == 2 and is_leap_year(year):
        return 29
    return _DAYS_IN_MONTH[month - 1]


def _days_before_year_abs(year: int) -> int:
    """Days from January 1 of proleptic year 1 to January 1 of ``year``."""
    y = year - 1
    return y * 365 + y // 4 - y // 100 + y // 400


#: Day index 0 expressed as days since January 1 of proleptic year 1.
_EPOCH_OFFSET = _days_before_year_abs(EPOCH_YEAR)


def _days_before_year(year: int) -> int:
    """Days between the epoch and January 1 of ``year`` (may be negative)."""
    return _days_before_year_abs(year) - _EPOCH_OFFSET


def _days_before_month(year: int, month: int) -> int:
    """Days between January 1 of ``year`` and the first of ``month``."""
    extra = 1 if month > 2 and is_leap_year(year) else 0
    return _CUM_DAYS[month - 1] + extra


def ymd_to_day(year: int, month: int, day: int) -> int:
    """Convert a calendar date to a day index (day 0 = epoch).

    ``day`` is 1-based within the month, as in ordinary usage.
    """
    if not 1 <= day <= days_in_month(year, month):
        raise ValueError("invalid day %r for %r-%r" % (day, year, month))
    return _days_before_year(year) + _days_before_month(year, month) + day - 1


def day_to_ymd(day_index: int) -> Tuple[int, int, int]:
    """Convert a day index back to a ``(year, month, day)`` tuple.

    Uses the standard year-1-anchored cycle decomposition (the 4-year
    and 400-year sub-cycles end with their leap year, so anchoring at
    year 1 makes all quotient arithmetic exact).
    """
    days = day_index + _EPOCH_OFFSET  # days since Jan 1 of year 1
    n400, days = divmod(days, DAYS_PER_400_YEARS)
    year = n400 * 400 + 1
    n100, days = divmod(days, DAYS_PER_100_YEARS)
    n4, days = divmod(days, DAYS_PER_4_YEARS)
    n1, days = divmod(days, 365)
    year += n100 * 100 + n4 * 4 + n1
    if n1 == 4 or n100 == 4:
        # December 31 of the leap year closing a 4- or 400-year cycle.
        return year - 1, 12, 31
    # ``days`` is now the 0-based ordinal day within ``year``.
    month = 1
    while days >= days_in_month(year, month):
        days -= days_in_month(year, month)
        month += 1
    return year, month, days + 1


def weekday(day_index: int) -> int:
    """Weekday of a day index: 0 = Monday .. 6 = Sunday."""
    return (day_index + EPOCH_WEEKDAY) % 7


def month_index_of_day(day_index: int) -> int:
    """Absolute month index (0 = the epoch month) containing a day index."""
    year, month, _ = day_to_ymd(day_index)
    return (year - EPOCH_YEAR) * 12 + (month - 1)


def month_bounds(month_index: int) -> Tuple[int, int]:
    """First and last day index (inclusive) of an absolute month index."""
    year = EPOCH_YEAR + month_index // 12
    month = month_index % 12 + 1
    first = ymd_to_day(year, month, 1)
    return first, first + days_in_month(year, month) - 1


def year_index_of_day(day_index: int) -> int:
    """Absolute year index (0 = the epoch year) containing a day index."""
    year, _, _ = day_to_ymd(day_index)
    return year - EPOCH_YEAR


def year_bounds(year_index: int) -> Tuple[int, int]:
    """First and last day index (inclusive) of an absolute year index."""
    year = EPOCH_YEAR + year_index
    first = ymd_to_day(year, 1, 1)
    return first, first + days_in_year(year) - 1


# ----------------------------------------------------------------------
# 400-year-cycle length tables (the calendar-algebra lowering source)
# ----------------------------------------------------------------------
# The epoch year 2000 is divisible by 400, so day 0 starts a full
# Gregorian cycle: months and years are exactly periodic with period
# MONTHS_PER_400_YEARS / 400 ticks over DAYS_PER_400_YEARS days, with
# no aperiodic prefix.  The month and year lowerings of
# :mod:`repro.granularity.algebra` build their cycles from these tables.

_CYCLE_CACHE: dict = {}


def cycle_month_lengths() -> Tuple[int, ...]:
    """Day lengths of the 4800 months of one cycle from the epoch."""
    cached = _CYCLE_CACHE.get("months")
    if cached is None:
        cached = tuple(
            days_in_month(year, month)
            for year in range(EPOCH_YEAR, EPOCH_YEAR + 400)
            for month in range(1, 13)
        )
        _CYCLE_CACHE["months"] = cached
    return cached


def cycle_year_lengths() -> Tuple[int, ...]:
    """Day lengths of the 400 years of one cycle from the epoch."""
    cached = _CYCLE_CACHE.get("years")
    if cached is None:
        cached = tuple(
            days_in_year(year)
            for year in range(EPOCH_YEAR, EPOCH_YEAR + 400)
        )
        _CYCLE_CACHE["years"] = cached
    return cached
