"""The calendar algebra: compositional lowering to minimal normal forms.

This module implements the operator layer of Bettini & Mascetti's
"Mapping Calendar Expressions to Minimal Periodic Sets" (PAPERS.md, the
same authors as the source paper) on top of
:class:`~repro.granularity.normalform.PeriodicNormalForm`:

* **Closed operators on normal forms** - :func:`nf_intersect`,
  :func:`nf_union`, :func:`nf_select`, :func:`nf_group`,
  :func:`nf_shift` and :func:`nf_nth_within` each take compiled operand
  forms, take the period ``lcm`` (the common refinement), enumerate a
  bounded window of result ticks, and re-fold the stream into a new
  eventually-periodic form via :func:`eventually_periodic_form`.

* **Direct lowerings** for the stock types whose representation is
  not an operator: Gregorian months/years via the 400-year
  (146097-day) cycle of :mod:`repro.granularity.gregorian`'s length
  tables, custom calendars via their (declared or inferred) leap
  cycle, and the business calendars as week-periodic forms overlaid
  with the finite holiday exception set (possibly empty) folded into
  the aperiodic prefix.

* A **minimization pass** (:func:`minimize_form`): the smallest period
  divisor that reproduces the boundary arrays, then the shortest
  aperiodic prefix (trailing prefix ticks that already obey the
  recurrence rotate into the period), so compiled forms are canonical
  and memo/cache keys stay small.

Every lowering is budgeted by
:data:`~repro.granularity.normalform.MAX_PERIOD_TICKS`: an over-budget
expression raises :class:`~repro.granularity.normalform.NormalFormError`
with ``reason="over-budget"`` and the type keeps the sweep size table
and its own ``tick_of`` (counted by
``repro_sizetable_fallback_total{reason}``).
Lowerings run under a ``sizetable.algebra`` span; minimizations that
shrink a form count into ``repro_sizetable_minimized_total``.
"""

from __future__ import annotations

from math import gcd
from typing import Callable, List, Optional, Tuple

from ..obs import counter, span
from . import gregorian as greg
from . import normalform
from .base import TemporalType
from .business import BusinessDayType, BusinessMonthType, BusinessWeekType
from .calendar import MonthType, YearType
from .customcal import CustomMonthType, CustomYearType
from .combinators import (
    FilteredType,
    GroupedType,
    NthSubgranuleType,
    ShiftedType,
    UnionType,
)
from .intersection import IntersectionType
from .normalform import (
    NormalFormError,
    PeriodicNormalForm,
    cached_normal_form,
)

_MINIMIZED = counter(
    "repro_sizetable_minimized_total",
    "Normal forms the minimization pass shrank (period divisor found or "
    "prefix ticks absorbed into the period)",
)

Bounds = Tuple[int, int]


def _lcm(a: int, b: int) -> int:
    return a * b // gcd(a, b)


def _divisors(n: int) -> List[int]:
    """All divisors of ``n`` in ascending order."""
    small: List[int] = []
    large: List[int] = []
    i = 1
    while i * i <= n:
        if n % i == 0:
            small.append(i)
            if i != n // i:
                large.append(n // i)
        i += 1
    large.reverse()
    return small + large


# ----------------------------------------------------------------------
# Minimization
# ----------------------------------------------------------------------
def _reduce_period(
    form: PeriodicNormalForm,
) -> Tuple[int, int, Tuple[int, ...], Tuple[int, ...]]:
    """Smallest period divisor reproducing the boundary arrays.

    Returns ``(P, S, firsts, lasts)`` - unchanged when no proper
    divisor works.  A divisor ``d`` is valid iff ``S * d`` is a whole
    number of seconds per ``d`` ticks and both boundary arrays are
    slice-shift-invariant by ``d`` (which implies the cyclic wrap too,
    because the slice condition chains across the whole array).
    """
    P, S = form.period_ticks, form.period_seconds
    firsts, lasts = form.firsts, form.lasts
    for d in _divisors(P):
        if d == P:
            break
        if (S * d) % P:
            continue
        Sd = S * d // P
        ok = all(
            firsts[i + d] == firsts[i] + Sd
            and lasts[i + d] == lasts[i] + Sd
            for i in range(P - d)
        )
        if ok:
            return d, Sd, firsts[:d], lasts[:d]
    return P, S, firsts, lasts


def minimize_form(form: PeriodicNormalForm) -> PeriodicNormalForm:
    """Canonicalize: smallest period divisor, shortest aperiodic prefix.

    Idempotent; returns the input unchanged (same object) when it is
    already minimal.  A shrunk form records the original
    ``(period_ticks, prefix_ticks)`` in ``minimized_from`` and counts
    into ``repro_sizetable_minimized_total``.
    """
    P0, B0 = form.period_ticks, form.prefix_ticks
    P, S, firsts, lasts = _reduce_period(form)
    # Absorb trailing prefix ticks that already obey the (reduced)
    # recurrence: prefix tick B - j is absorbable when it equals the
    # virtual periodic tick at offset -j (phase (-j) mod P, shifted by
    # floor(-j / P) periods).
    prefix = list(zip(form.prefix_firsts, form.prefix_lasts))
    absorbed = 0
    while absorbed < len(prefix):
        j = absorbed + 1
        q, r = divmod(-j, P)
        expected = (firsts[r] + q * S, lasts[r] + q * S)
        if prefix[len(prefix) - j] != expected:
            break
        absorbed += 1
    if P == P0 and absorbed == 0:
        return form
    if absorbed:
        # Re-anchor the periodic part ``absorbed`` ticks earlier; the
        # new arrays are the bounds of ticks B - absorbed .. B - 1 then
        # the rotated remainder, all expressed via the old arrays.
        new_firsts = []
        new_lasts = []
        for i in range(P):
            q, r = divmod(i - absorbed, P)
            new_firsts.append(firsts[r] + q * S)
            new_lasts.append(lasts[r] + q * S)
        firsts = tuple(new_firsts)
        lasts = tuple(new_lasts)
        prefix = prefix[: len(prefix) - absorbed]
    minimized = PeriodicNormalForm(
        label=form.label,
        period_ticks=P,
        period_seconds=S,
        firsts=tuple(int(f) for f in firsts),
        lasts=tuple(int(l) for l in lasts),
        prefix_firsts=tuple(int(f) for f, _ in prefix),
        prefix_lasts=tuple(int(l) for _, l in prefix),
        exact_cover=form.exact_cover,
        source=form.source,
        rule=form.rule,
        minimized_from=form.minimized_from or (P0, B0),
    )
    _MINIMIZED.inc()
    return minimized


# ----------------------------------------------------------------------
# Eventually-periodic folding (shared by every enumerating lowering)
# ----------------------------------------------------------------------
def eventually_periodic_form(
    label: str,
    bounds: List[Bounds],
    period_ticks: int,
    period_seconds: int,
    *,
    exact_cover: bool,
    rule: str,
) -> PeriodicNormalForm:
    """Fold an enumerated tick stream into a minimal periodic form.

    ``bounds`` must hold the bounds of ticks ``0 .. W-1`` with ``W``
    at least ``prefix + 2 * period_ticks``: the minimal aperiodic
    prefix is found by scanning the recurrence
    ``bounds[j + P] == bounds[j] + S`` backwards from the end, and one
    full period beyond the prefix must verify or the stream is
    rejected as aperiodic.  The result is minimized before returning.
    """
    P, S = period_ticks, period_seconds
    W = len(bounds)
    if P < 1:
        raise NormalFormError(
            "operator result %r has no ticks per period" % (label,),
            reason="empty",
        )
    if P > normalform.MAX_PERIOD_TICKS:
        raise NormalFormError(
            "period of %r exceeds the compile budget (%d ticks)"
            % (label, P),
            reason="over-budget",
        )
    if W < 2 * P + 1:
        raise NormalFormError(
            "enumerated only %d ticks of %r, need %d to verify the "
            "period" % (W, label, 2 * P + 1),
            reason="verification",
        )
    prefix_len = 0
    for j in range(W - P - 1, -1, -1):
        first, last = bounds[j]
        if bounds[j + P] != (first + S, last + S):
            prefix_len = j + 1
            break
    if W - prefix_len < 2 * P:
        raise NormalFormError(
            "tick stream of %r is not periodic within the enumerated "
            "window (prefix %d of %d ticks)" % (label, prefix_len, W),
            reason="aperiodic",
        )
    if prefix_len + P > normalform.MAX_PERIOD_TICKS:
        raise NormalFormError(
            "form of %r exceeds the compile budget (%d prefix + %d "
            "period ticks)" % (label, prefix_len, P),
            reason="over-budget",
        )
    form = PeriodicNormalForm(
        label=label,
        period_ticks=P,
        period_seconds=S,
        firsts=tuple(int(f) for f, _ in bounds[prefix_len : prefix_len + P]),
        lasts=tuple(int(l) for _, l in bounds[prefix_len : prefix_len + P]),
        prefix_firsts=tuple(int(f) for f, _ in bounds[:prefix_len]),
        prefix_lasts=tuple(int(l) for _, l in bounds[:prefix_len]),
        exact_cover=exact_cover,
        source="algebra",
        rule=rule,
    )
    return minimize_form(form)


def _operand_form(ttype: TemporalType) -> PeriodicNormalForm:
    """Compile an operand, or fail the whole expression with a reason."""
    form = cached_normal_form(ttype)
    if form is None:
        raise NormalFormError(
            "operand %r does not lower to a periodic normal form"
            % (ttype.label,),
            reason="operand",
        )
    return form


def _form_is_contiguous(form: PeriodicNormalForm) -> bool:
    """No gap anywhere after the first tick's start."""
    if form.gap_runs:
        return False
    chain = list(zip(form.prefix_firsts, form.prefix_lasts))
    chain += [(form.firsts[0], form.lasts[0])]
    return all(
        chain[i][1] + 1 == chain[i + 1][0] for i in range(len(chain) - 1)
    )


# ----------------------------------------------------------------------
# Gregorian 400-year-cycle lowerings
# ----------------------------------------------------------------------
def _cycle_bounds(kind: str, label: str) -> List[Bounds]:
    """Second-domain tick bounds of one full cycle plus the wrap tick."""
    if kind == "months":
        lengths = greg.cycle_month_lengths()
    else:
        lengths = greg.cycle_year_lengths()
    day = greg.SECONDS_PER_DAY
    total = 0
    bounds: List[Bounds] = []
    for length in lengths:
        bounds.append((total * day, (total + length) * day - 1))
        total += length
    if total != greg.DAYS_PER_400_YEARS:
        raise NormalFormError(
            "cycle generator for %r produced %d days, expected %d"
            % (label, total, greg.DAYS_PER_400_YEARS),
            reason="verification",
        )
    return bounds


def _lower_cycle(
    ttype: TemporalType,
    kind: str,
    period_ticks: int,
    reference: Callable[[int], Bounds],
) -> PeriodicNormalForm:
    """Shared month/year lowering: one generated cycle, spot-checked."""
    if period_ticks > normalform.MAX_PERIOD_TICKS:
        raise NormalFormError(
            "period of %r exceeds the compile budget (%d ticks)"
            % (ttype.label, period_ticks),
            reason="over-budget",
        )
    bounds = _cycle_bounds(kind, ttype.label)
    day = greg.SECONDS_PER_DAY
    # Spot-check the generator against the day-arithmetic reference at
    # the cycle edges and an interior leap boundary.
    for index in (0, 1, period_ticks // 2, period_ticks - 1):
        first_day, last_day = reference(index)
        expected = (first_day * day, (last_day + 1) * day - 1)
        if bounds[index] != expected:
            raise NormalFormError(
                "cycle generator for %r disagrees with the calendar at "
                "tick %d: %r != %r"
                % (ttype.label, index, bounds[index], expected),
                reason="verification",
            )
    form = PeriodicNormalForm(
        label=ttype.label,
        period_ticks=period_ticks,
        period_seconds=greg.DAYS_PER_400_YEARS * day,
        firsts=tuple(f for f, _ in bounds),
        lasts=tuple(l for _, l in bounds),
        exact_cover=True,
        source="algebra",
        rule="gregorian-cycle",
    )
    return minimize_form(form)


def _lower_month(ttype: MonthType) -> PeriodicNormalForm:
    return _lower_cycle(
        ttype, "months", greg.MONTHS_PER_400_YEARS, greg.month_bounds
    )


def _lower_year(ttype: YearType) -> PeriodicNormalForm:
    return _lower_cycle(ttype, "years", 400, greg.year_bounds)


# ----------------------------------------------------------------------
# Custom calendars (declared or inferred leap cycles)
# ----------------------------------------------------------------------
def _lower_custom(ttype) -> PeriodicNormalForm:
    """Lower a custom calendar over its leap cycle.

    The cycle is the declared ``period_years`` when the calendar has
    one, else inferred from the per-year day counts; either way
    :func:`eventually_periodic_form`'s recurrence check over two cycles
    of actual tick bounds rejects a wrong cycle (an adversarial leap
    rule that breaks past the detection window fails with
    ``reason="aperiodic"`` rather than compiling a wrong form).
    """
    calendar = ttype.calendar
    years = calendar.detect_period_years()
    if years is None:
        raise NormalFormError(
            "calendar of %r has no leap cycle within the detection "
            "window" % (ttype.label,),
            reason="no-period",
        )
    if isinstance(ttype, CustomMonthType):
        P = years * calendar.months_per_year()
    else:
        P = years
    if 2 * P + 1 > normalform.MAX_PERIOD_TICKS:
        raise NormalFormError(
            "inferred period of %r exceeds the compile budget (%d "
            "ticks)" % (ttype.label, P),
            reason="over-budget",
        )
    S = sum(calendar.days_in_year(y) for y in range(years)) * (
        greg.SECONDS_PER_DAY
    )
    bounds = [ttype.tick_bounds(i) for i in range(2 * P + 1)]
    return eventually_periodic_form(
        ttype.label,
        bounds,
        P,
        S,
        exact_cover=ttype.total,
        rule="custom-cycle",
    )


# ----------------------------------------------------------------------
# Business-calendar overlays
# ----------------------------------------------------------------------
def _lower_business_day(ttype: BusinessDayType) -> PeriodicNormalForm:
    """Weekly-periodic pattern with holidays folded into the prefix.

    Enumerating pattern workdays in day order while skipping holidays
    yields exactly the type's tick sequence, aperiodic until the last
    holiday and weekly-periodic beyond it (from tick 0 when the holiday
    set is empty).
    """
    per_week = len(ttype.workdays)
    week_seconds = 7 * greg.SECONDS_PER_DAY
    day = greg.SECONDS_PER_DAY
    cutoff = ttype.holidays[-1] if ttype.holidays else -1
    estimate = (cutoff // 7 + 1) * per_week + 3 * per_week
    if estimate > normalform.MAX_PERIOD_TICKS:
        raise NormalFormError(
            "holiday prefix of %r exceeds the compile budget (~%d "
            "ticks)" % (ttype.label, estimate),
            reason="over-budget",
        )
    bounds: List[Bounds] = []
    needed: Optional[int] = None
    rank = 0
    while needed is None or len(bounds) < needed:
        day_index = ttype._pattern_day(rank)
        rank += 1
        if day_index not in ttype._holiday_set:
            bounds.append((day_index * day, (day_index + 1) * day - 1))
        if needed is None and day_index > cutoff:
            needed = len(bounds) + 2 * per_week + 1
    form = eventually_periodic_form(
        ttype.label,
        bounds,
        per_week,
        week_seconds,
        exact_cover=True,
        rule="business-overlay",
    )
    _spot_check(form, ttype)
    return form


def _week_window_bounds(
    bform: PeriodicNormalForm, label: str, windows: List[Bounds]
) -> List[Bounds]:
    """First/last covered instant of each window over a day-exact form."""
    bounds: List[Bounds] = []
    for start, end in windows:
        first = bform.first_covered_at_or_after(start)
        if first is None or first > end:
            raise NormalFormError(
                "a tick of %r contains no business day; the paper "
                "forbids interior empty ticks" % (label,),
                reason="empty",
            )
        last = bform.last_covered_at_or_before(end)
        bounds.append((first, last))
    return bounds


def _lower_business_week(ttype: BusinessWeekType) -> PeriodicNormalForm:
    """One tick per week, clipped to the business-day form's coverage."""
    bform = _operand_form(ttype.bday)
    week_seconds = 7 * greg.SECONDS_PER_DAY
    holidays = ttype.bday.holidays
    prefix_weeks = (holidays[-1] // 7 + 2) if holidays else 0
    count = prefix_weeks + 3
    windows = [
        (w * week_seconds, (w + 1) * week_seconds - 1) for w in range(count)
    ]
    form = eventually_periodic_form(
        ttype.label,
        _week_window_bounds(bform, ttype.label, windows),
        1,
        week_seconds,
        exact_cover=False,
        rule="business-overlay",
    )
    _spot_check(form, ttype)
    return form


def _lower_business_month(ttype: BusinessMonthType) -> PeriodicNormalForm:
    """One tick per month, clipped to the business-day form's coverage.

    Months and weeks only re-align after a full 400-year cycle
    (146097 is divisible by 7), so the period is 4800 months; the
    month windows come from the same cycle-length table as the month
    lowering, and each window costs two O(log) bisections over the
    business-day form.
    """
    bform = _operand_form(ttype.bday)
    P = greg.MONTHS_PER_400_YEARS
    if 2 * P + 1 > normalform.MAX_PERIOD_TICKS:
        raise NormalFormError(
            "period of %r exceeds the compile budget (%d ticks)"
            % (ttype.label, P),
            reason="over-budget",
        )
    day = greg.SECONDS_PER_DAY
    starts = [0]
    for length in greg.cycle_month_lengths():
        starts.append(starts[-1] + length)
    holidays = ttype.bday.holidays
    prefix_months = (
        greg.month_index_of_day(holidays[-1]) + 2 if holidays else 0
    )
    count = prefix_months + 2 * P + 1
    windows: List[Bounds] = []
    for m in range(count):
        q, r = divmod(m, P)
        start_day = q * greg.DAYS_PER_400_YEARS + starts[r]
        end_day = q * greg.DAYS_PER_400_YEARS + starts[r + 1] - 1
        windows.append((start_day * day, (end_day + 1) * day - 1))
    form = eventually_periodic_form(
        ttype.label,
        _week_window_bounds(bform, ttype.label, windows),
        P,
        greg.DAYS_PER_400_YEARS * day,
        exact_cover=False,
        rule="business-overlay",
    )
    _spot_check(form, ttype)
    return form


def _spot_check(form: PeriodicNormalForm, ttype: TemporalType) -> None:
    """Cross-check a lowered form against the type at a few indices."""
    P = form.period_ticks
    for index in (0, form.prefix_ticks, form.prefix_ticks + P):
        if form.instant_of_tick(index) != ttype.tick_bounds(index):
            raise NormalFormError(
                "lowered form of %r disagrees with the type at tick %d"
                % (ttype.label, index),
                reason="verification",
            )


# ----------------------------------------------------------------------
# Closed operators on normal forms
# ----------------------------------------------------------------------
def nf_group(
    form: PeriodicNormalForm,
    n: int,
    offset: int = 0,
    label: Optional[str] = None,
    exact_cover: Optional[bool] = None,
) -> PeriodicNormalForm:
    """Group each ``n`` consecutive ticks (from ``offset``) into one.

    The fiscal-offset operator: ``nf_group(month_form, 12, offset=3)``
    is an April-anchored fiscal year.  ``exact_cover`` defaults to
    "operand is exact and has no gaps at all" (a grouped tick spanning
    an operand gap cannot certify interior coverage).
    """
    if n < 1 or offset < 0:
        raise NormalFormError(
            "group size must be positive and offset non-negative",
            reason="invalid",
        )
    P0, S0 = form.period_ticks, form.period_seconds
    window = _lcm(P0, n)
    P = window // n
    S = window // P0 * S0
    prefix_groups = (form.prefix_ticks + offset) // n + 1
    count = prefix_groups + 2 * P + 1
    if count > 4 * normalform.MAX_PERIOD_TICKS:
        raise NormalFormError(
            "grouped form would enumerate %d ticks, over the compile "
            "budget" % (count,),
            reason="over-budget",
        )
    bounds = [
        (
            form.instant_of_tick(offset + j * n)[0],
            form.instant_of_tick(offset + j * n + n - 1)[1],
        )
        for j in range(count)
    ]
    if exact_cover is None:
        exact_cover = form.exact_cover and _form_is_contiguous(form)
    return eventually_periodic_form(
        label if label is not None else "%d-%s" % (n, form.label),
        bounds,
        P,
        S,
        exact_cover=exact_cover,
        rule="group",
    )


def nf_select(
    form: PeriodicNormalForm,
    predicate: Callable[[int], bool],
    predicate_period: int,
    label: Optional[str] = None,
) -> PeriodicNormalForm:
    """Keep the operand ticks selected by a periodic predicate.

    ``predicate`` receives operand tick indices and must be periodic
    with ``predicate_period``; the result repeats after
    ``lcm(operand period, predicate_period)`` operand ticks.
    """
    if predicate_period < 1:
        raise NormalFormError(
            "predicate period must be positive", reason="invalid"
        )
    P0, S0 = form.period_ticks, form.period_seconds
    B0 = form.prefix_ticks
    window = _lcm(P0, predicate_period)
    if window > 2 * normalform.MAX_PERIOD_TICKS:
        raise NormalFormError(
            "selection window of %d operand ticks exceeds the compile "
            "budget" % (window,),
            reason="over-budget",
        )
    S = window // P0 * S0
    selected_prefix = [i for i in range(B0) if predicate(i)]
    selected_period = [j for j in range(window) if predicate(B0 + j)]
    P = len(selected_period)
    if P == 0:
        raise NormalFormError(
            "predicate selects no tick in a full period; the result "
            "would run out of ticks",
            reason="empty",
        )
    bounds = [form.instant_of_tick(i) for i in selected_prefix]
    for cycle in range(3):
        shift = cycle * window
        bounds.extend(
            form.instant_of_tick(B0 + j + shift) for j in selected_period
        )
        if len(bounds) >= len(selected_prefix) + 2 * P + 1:
            break
    return eventually_periodic_form(
        label if label is not None else "select(%s)" % (form.label,),
        bounds,
        P,
        S,
        exact_cover=form.exact_cover,
        rule="select",
    )


def nf_shift(
    form: PeriodicNormalForm, delta: int, label: Optional[str] = None
) -> PeriodicNormalForm:
    """Shift every tick by ``delta`` seconds (timezone displacement).

    Negative shifts drop the leading ticks that would start before
    instant 0 and re-index the rest, mirroring
    :class:`~repro.granularity.combinators.ShiftedType`.
    """
    new_label = label if label is not None else "%s%+ds" % (form.label, delta)
    skip = 0
    if delta < 0:
        skip = form.tick_starting_at_or_after(-delta)
    remaining_prefix = max(0, form.prefix_ticks - skip)
    count = remaining_prefix + 2 * form.period_ticks + 1
    bounds = []
    for j in range(count):
        first, last = form.instant_of_tick(skip + j)
        bounds.append((first + delta, last + delta))
    return eventually_periodic_form(
        new_label,
        bounds,
        form.period_ticks,
        form.period_seconds,
        exact_cover=form.exact_cover,
        rule="shift",
    )


def _periodicize_stream(
    label: str,
    ticks: List[Bounds],
    window_seconds: int,
    anchor: int,
    *,
    exact_cover: bool,
    rule: str,
) -> PeriodicNormalForm:
    """Fold a merged tick stream that is periodic past ``anchor``.

    ``ticks`` must extend past ``anchor + 2 * window_seconds``; the
    ticks starting at or after ``anchor`` repeat every
    ``window_seconds``.  Any over-long prefix the anchor estimate
    introduces is rotated away by the minimization pass.
    """
    i0 = 0
    while i0 < len(ticks) and ticks[i0][0] < anchor:
        i0 += 1
    if i0 == len(ticks):
        raise NormalFormError(
            "%r has no ticks past its periodic anchor" % (label,),
            reason="empty",
        )
    first0 = ticks[i0][0]
    P = 0
    for first, _ in ticks[i0:]:
        if first >= first0 + window_seconds:
            break
        P += 1
    return eventually_periodic_form(
        label,
        ticks,
        P,
        window_seconds,
        exact_cover=exact_cover,
        rule=rule,
    )


def _check_refinement_budget(
    label: str, fa: PeriodicNormalForm, fb: PeriodicNormalForm
) -> Tuple[int, int]:
    """lcm window and per-window tick estimate, budget-checked."""
    window = _lcm(fa.period_seconds, fb.period_seconds)
    estimate = fa.period_ticks * (
        window // fa.period_seconds
    ) + fb.period_ticks * (window // fb.period_seconds)
    if estimate > normalform.MAX_PERIOD_TICKS:
        raise NormalFormError(
            "common refinement of %r needs ~%d ticks per window, over "
            "the compile budget" % (label, estimate),
            reason="over-budget",
        )
    return window, estimate


def _merge_scan_limit(
    label: str,
    fa: PeriodicNormalForm,
    fb: PeriodicNormalForm,
    anchor: int,
    estimate: int,
) -> int:
    """Steps a two-operand merge scan may take, budget-checked.

    Every tick of either operand that starts before the periodic
    ``anchor`` - one operand's long aperiodic prefix (a holiday years
    out) spans many periodic ticks of the other - plus eight windows'
    worth past it.
    """
    limit = (
        fa.tick_starting_at_or_after(anchor)
        + fb.tick_starting_at_or_after(anchor)
        + 8 * estimate
        + 64
    )
    if limit > 4 * normalform.MAX_PERIOD_TICKS:
        raise NormalFormError(
            "merge scan of %r would visit %d ticks, over the compile "
            "budget" % (label, limit),
            reason="over-budget",
        )
    return limit


def nf_intersect(
    fa: PeriodicNormalForm,
    fb: PeriodicNormalForm,
    label: Optional[str] = None,
) -> PeriodicNormalForm:
    """Common refinement: one tick per non-empty bounds overlap.

    Replicates the merge scan of
    :class:`~repro.granularity.intersection.IntersectionType` over the
    operand *forms*, then folds the overlap stream - periodic past the
    later operand's periodic start with period ``lcm(Sa, Sb)`` - into
    a minimal form.
    """
    new_label = label if label is not None else "%s*%s" % (fa.label, fb.label)
    window, estimate = _check_refinement_budget(new_label, fa, fb)
    anchor = max(fa.firsts[0], fb.firsts[0])
    stop = anchor + 3 * window
    limit = _merge_scan_limit(new_label, fa, fb, anchor, estimate)
    overlaps: List[Bounds] = []
    index_a = index_b = 0
    for _ in range(limit):
        first_a, last_a = fa.instant_of_tick(index_a)
        first_b, last_b = fb.instant_of_tick(index_b)
        lo = max(first_a, first_b)
        hi = min(last_a, last_b)
        if lo <= hi:
            overlaps.append((lo, hi))
            if lo > stop:
                break
        if last_a <= last_b:
            index_a += 1
        if last_b <= last_a:
            index_b += 1
    else:
        raise NormalFormError(
            "intersection %r found no periodic overlap stream within "
            "its scan bound" % (new_label,),
            reason="aperiodic",
        )
    return _periodicize_stream(
        new_label,
        overlaps,
        window,
        anchor,
        exact_cover=fa.exact_cover and fb.exact_cover,
        rule="intersect",
    )


def nf_union(
    fa: PeriodicNormalForm,
    fb: PeriodicNormalForm,
    label: Optional[str] = None,
) -> PeriodicNormalForm:
    """Union: maximal overlap-chained runs of both operands' ticks.

    Mirrors :class:`~repro.granularity.combinators.UnionType`:
    adjacent-but-disjoint ticks stay separate, overlapping ones
    coalesce.
    """
    new_label = label if label is not None else "%s+%s" % (fa.label, fb.label)
    window, estimate = _check_refinement_budget(new_label, fa, fb)
    anchor = max(fa.firsts[0], fb.firsts[0])
    stop = anchor + 3 * window
    limit = _merge_scan_limit(new_label, fa, fb, anchor, estimate)
    runs: List[Bounds] = []
    index_a = index_b = 0
    consumed = 0
    run: Optional[List[int]] = None
    while consumed < limit:
        consumed += 1
        first_a, _ = fa.instant_of_tick(index_a)
        first_b, _ = fb.instant_of_tick(index_b)
        if first_a <= first_b:
            first, last = fa.instant_of_tick(index_a)
            index_a += 1
        else:
            first, last = fb.instant_of_tick(index_b)
            index_b += 1
        if run is not None and first <= run[1]:
            run[1] = max(run[1], last)
            continue
        if run is not None:
            runs.append((run[0], run[1]))
            if run[0] > stop:
                break
        run = [first, last]
    else:
        raise NormalFormError(
            "union %r found no periodic run stream within its scan "
            "bound" % (new_label,),
            reason="aperiodic",
        )
    return _periodicize_stream(
        new_label,
        runs,
        window,
        anchor,
        exact_cover=fa.exact_cover and fb.exact_cover,
        rule="union",
    )


def nf_nth_within(
    fine: PeriodicNormalForm,
    coarse: PeriodicNormalForm,
    n: int,
    label: Optional[str] = None,
) -> PeriodicNormalForm:
    """The ``n``-th fine tick fully inside each coarse tick.

    The 2nd-Tuesday-of-month operator: coarse ticks with fewer than
    ``n`` fully contained fine ticks contribute nothing and the result
    is re-indexed, mirroring
    :class:`~repro.granularity.combinators.NthSubgranuleType`.
    """
    if n < 1:
        raise NormalFormError("n must be at least 1", reason="invalid")
    new_label = (
        label
        if label is not None
        else "%d@%s/%s" % (n, fine.label, coarse.label)
    )
    window, estimate = _check_refinement_budget(new_label, fine, coarse)
    anchor = max(fine.firsts[0], coarse.firsts[0])
    stop = anchor + 3 * window
    limit = 4 * (
        coarse.period_ticks * (window // coarse.period_seconds) + 1
    ) + coarse.prefix_ticks + 64
    picks: List[Bounds] = []
    coarse_index = 0
    for _ in range(limit):
        coarse_first, coarse_last = coarse.instant_of_tick(coarse_index)
        coarse_index += 1
        k = fine.tick_starting_at_or_after(coarse_first) + n - 1
        fine_first, fine_last = fine.instant_of_tick(k)
        if fine_last <= coarse_last:
            picks.append((fine_first, fine_last))
            if fine_first > stop:
                break
    else:
        raise NormalFormError(
            "nth-subgranule %r found no periodic pick stream within "
            "its scan bound" % (new_label,),
            reason="aperiodic",
        )
    return _periodicize_stream(
        new_label,
        picks,
        window,
        anchor,
        exact_cover=fine.exact_cover,
        rule="nth-subgranule",
    )


# ----------------------------------------------------------------------
# Form-backed granularities (operator results as first-class types)
# ----------------------------------------------------------------------
class FormBackedType(TemporalType):
    """A temporal type realised directly by a normal form.

    Wraps an operator result (``nf_intersect``, ``nf_group``, ...) so
    it can join a :class:`~repro.granularity.registry.GranularitySystem`
    like any other type.  Requires ``exact_cover`` - a boundary-only
    form cannot answer ``tick_of`` for types with interior gaps.
    """

    def __init__(
        self, form: PeriodicNormalForm, label: Optional[str] = None
    ):
        if not form.exact_cover:
            raise ValueError(
                "FormBackedType requires an exact-cover form; %r only "
                "certifies boundaries" % (form.label,)
            )
        self.form = form
        self.label = label if label is not None else form.label
        self.alignment_seconds = 1
        start = (
            form.prefix_firsts[0] if form.prefix_firsts else form.firsts[0]
        )
        self.total = start == 0 and _form_is_contiguous(form)
        # cached_normal_form finds the form without compiling.
        self._normal_form_cache = form

    def tick_of(self, second: int) -> Optional[int]:
        if second < 0:
            return None
        return self.form.tick_of_instant(second)

    def tick_bounds(self, index: int) -> Tuple[int, int]:
        return self.form.instant_of_tick(index)

    def period_info(self):
        """Periodic from tick 0 only when the form has no prefix."""
        if self.form.prefix_firsts:
            return None
        return self.form.period_ticks, self.form.period_seconds


# ----------------------------------------------------------------------
# The dispatcher
# ----------------------------------------------------------------------
def lower_algebraic(ttype: TemporalType) -> Optional[PeriodicNormalForm]:
    """Apply the first matching calendar-algebra rule, or None.

    Called by :func:`~repro.granularity.normalform.compile_normal_form`
    for every type the structural stage does not lower; every firing
    runs under a ``sizetable.algebra`` span carrying the rule name.
    """
    matched = _match_rule(ttype)
    if matched is None:
        return None
    rule, lowering = matched
    with span(
        "sizetable.algebra", label=ttype.label, rule=rule
    ) as algebra_span:
        form = lowering(ttype)
        if form is None:
            # A filter without a declared predicate period declines.
            algebra_span.set(declined=True)
            return None
        algebra_span.set(
            period=form.period_ticks, prefix=form.prefix_ticks
        )
        return form


def _lower_grouped(ttype: GroupedType) -> PeriodicNormalForm:
    # Consecutive ticks of a gapless base form one contiguous run,
    # whatever the offset (``n``-month groups, fiscal years).
    return nf_group(
        _operand_form(ttype.base),
        ttype.n,
        offset=ttype.offset,
        label=ttype.label,
        exact_cover=ttype.base.total,
    )


def _lower_filtered(ttype: FilteredType) -> Optional[PeriodicNormalForm]:
    if ttype.predicate_period is None:
        return None
    return nf_select(
        _operand_form(ttype.base),
        ttype.predicate,
        ttype.predicate_period,
        label=ttype.label,
    )


def _lower_intersection(ttype: IntersectionType) -> PeriodicNormalForm:
    return nf_intersect(
        _operand_form(ttype.a), _operand_form(ttype.b), label=ttype.label
    )


def _lower_union(ttype: UnionType) -> PeriodicNormalForm:
    return nf_union(
        _operand_form(ttype.a), _operand_form(ttype.b), label=ttype.label
    )


def _lower_shifted(ttype: ShiftedType) -> PeriodicNormalForm:
    return nf_shift(
        _operand_form(ttype.base), ttype.delta, label=ttype.label
    )


def _lower_nth(ttype: NthSubgranuleType) -> PeriodicNormalForm:
    return nf_nth_within(
        _operand_form(ttype.fine),
        _operand_form(ttype.coarse),
        ttype.n,
        label=ttype.label,
    )


def _lower_form_backed(ttype: "FormBackedType") -> PeriodicNormalForm:
    return ttype.form


_RULES: List[Tuple[type, str, Callable]] = [
    (MonthType, "gregorian-cycle", _lower_month),
    (CustomMonthType, "custom-cycle", _lower_custom),
    (CustomYearType, "custom-cycle", _lower_custom),
    (YearType, "gregorian-cycle", _lower_year),
    (BusinessDayType, "business-overlay", _lower_business_day),
    (BusinessWeekType, "business-overlay", _lower_business_week),
    (BusinessMonthType, "business-overlay", _lower_business_month),
    (GroupedType, "group", _lower_grouped),
    (FilteredType, "select", _lower_filtered),
    (IntersectionType, "intersect", _lower_intersection),
    (UnionType, "union", _lower_union),
    (ShiftedType, "shift", _lower_shifted),
    (NthSubgranuleType, "nth-subgranule", _lower_nth),
    (FormBackedType, "form", _lower_form_backed),
]


def _match_rule(ttype: TemporalType):
    for klass, rule, lowering in _RULES:
        if isinstance(ttype, klass):
            return rule, lowering
    return None
