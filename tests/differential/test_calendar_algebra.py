"""Differential oracle for the calendar-algebra compiler (PR 10).

The algebra rules (Gregorian 400-year cycle, business-calendar
overlays, custom calendar cycles, and the closed operators) are the
only lowering route, and they are only allowed to exist because their
forms are **bit-identical** to the ground truth: the types' own
``tick_of``/``tick_bounds`` and the sweep size tables wherever the
sweep is exact.  Hypothesis drives random workday and holiday sets,
random instants, random ``k`` and random operator expressions (over
Gregorian, business, uniform, periodic-pattern and custom-calendar
operands) through both paths; a second pass pins the column converter
(:meth:`~repro.granularity.normalform.PeriodicNormalForm.
ticks_of_instants`) against the scalar bisection.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.granularity import (
    BusinessDayType,
    BusinessMonthType,
    BusinessWeekType,
    CompiledSizeTable,
    ConversionCache,
    SizeTable,
    compile_normal_form,
    standard_system,
)
from repro.granularity.combinators import (
    FilteredType,
    GroupedType,
    NthSubgranuleType,
    ShiftedType,
    UnionType,
)
from repro.granularity.customcal import (
    CustomCalendar,
    CustomMonthType,
    CustomYearType,
)
from repro.granularity.intersection import IntersectionType, business_hours
from repro.granularity.calendar import day, hour, minute, month, week, year
from repro.granularity.periodic import PeriodicPatternType
from repro.granularity.gregorian import (
    DAYS_PER_400_YEARS,
    MONTHS_PER_400_YEARS,
    SECONDS_PER_DAY,
)
from repro.granularity.normalform import NormalFormError, clock_ticks_of

DAY = SECONDS_PER_DAY
CYCLE_SECONDS = DAYS_PER_400_YEARS * DAY


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
def fresh(label):
    """A fresh stock type instance (no cross-example cached state)."""
    return standard_system(cache=ConversionCache()).get(label)


@st.composite
def holiday_bdays(draw):
    """Business days over a random workday set with a random (possibly
    empty) holiday set.

    Holidays fall anywhere in days 0-3000, so the holiday-prefix
    lowerings run over aperiodic stretches of up to eight years.
    """
    workdays = draw(
        st.one_of(
            st.just((0, 1, 2, 3, 4)),
            st.sets(
                st.integers(min_value=0, max_value=6), min_size=1
            ).map(sorted),
        )
    )
    days = draw(
        st.lists(
            st.integers(min_value=0, max_value=3000),
            max_size=8,
            unique=True,
        )
    )
    return BusinessDayType(workdays=workdays, holidays=days)


@st.composite
def patterns(draw):
    """A periodic-pattern type: one to three ticks in a six-hour cycle,
    on a 15-minute grid, gaps between them likely."""
    cuts = draw(
        st.lists(
            st.integers(min_value=0, max_value=24),
            min_size=2,
            max_size=6,
            unique=True,
        ).filter(lambda cuts: len(cuts) % 2 == 0)
    )
    cuts.sort()
    segments = [
        (cuts[i] * 900, (cuts[i + 1] - cuts[i]) * 900)
        for i in range(0, len(cuts), 2)
    ]
    return PeriodicPatternType("p", 6 * 3600, segments)


def operands():
    """Operands periodic from tick 0: uniform types, a periodic pattern
    and a holiday-free business day over a random workday set."""
    return st.one_of(
        st.builds(day),
        st.builds(minute),
        st.builds(hour),
        st.builds(week),
        patterns(),
        st.sets(st.integers(min_value=0, max_value=6), min_size=1).map(
            lambda workdays: BusinessDayType(workdays=sorted(workdays))
        ),
    )


@st.composite
def custom_calendars(draw):
    """Months or years of a custom calendar declaring its leap cycle."""
    month_lengths = draw(
        st.lists(st.integers(min_value=20, max_value=40), min_size=1,
                 max_size=13)
    )
    years = draw(st.integers(min_value=1, max_value=6))
    leap_year = draw(st.integers(min_value=0, max_value=years - 1))
    extra = draw(st.integers(min_value=0, max_value=7))
    calendar = CustomCalendar(
        month_lengths,
        leap_days=lambda y: extra if y % years == leap_year else 0,
        leap_month=draw(
            st.integers(min_value=0, max_value=len(month_lengths) - 1)
        ),
        period_years=years,
    )
    if draw(st.booleans()):
        return CustomMonthType(calendar, "c-month")
    return CustomYearType(calendar, "c-year")


@st.composite
def calendar_expressions(draw):
    """Random compilable calendar expressions over small operands.

    Intersections pair an operand with an hour, a week or a pattern (or
    business hours over a holiday business day), so the common
    refinement stays at most a few hundred ticks per window.
    """
    kind = draw(
        st.sampled_from(
            ["group", "filter", "intersect", "union", "shift", "nth", "custom"]
        )
    )
    if kind == "custom":
        return draw(custom_calendars())
    if kind == "group":
        n = draw(st.integers(min_value=2, max_value=9))
        offset = draw(st.integers(min_value=0, max_value=5))
        return GroupedType(draw(operands()), n, offset=offset)
    if kind == "filter":
        modulus = draw(st.integers(min_value=2, max_value=9))
        residues = draw(
            st.sets(
                st.integers(min_value=0, max_value=modulus - 1),
                min_size=1,
                max_size=modulus,
            )
        )
        return FilteredType(
            draw(operands()),
            lambda i, m=modulus, rs=frozenset(residues): i % m in rs,
            "f-%d" % modulus,
            predicate_period=modulus,
        )
    if kind == "intersect":
        if draw(st.booleans()):
            a = draw(operands())
            b = draw(st.one_of(st.builds(hour), st.builds(week), patterns()))
            # Two patterns whose segments never meet intersect to no
            # tick at all: not a calendar (see
            # test_disjoint_patterns_do_not_lower).
            assume(not disjoint_patterns(a, b))
            return IntersectionType(a, b)
        start = draw(st.integers(min_value=0, max_value=11))
        hours = draw(st.integers(min_value=1, max_value=12))
        return business_hours(
            draw(holiday_bdays()), start, start + hours
        )
    if kind == "union":
        bday = draw(holiday_bdays())
        weekend_day = draw(st.integers(min_value=5, max_value=6))
        weekend = FilteredType(
            day(),
            lambda i, w=weekend_day: i % 7 == w,
            "we-%d" % weekend_day,
            predicate_period=7,
        )
        return UnionType(bday, weekend)
    if kind == "shift":
        delta = draw(
            st.integers(min_value=-2 * DAY, max_value=2 * DAY).filter(
                bool
            )
        )
        return ShiftedType(draw(operands()), delta)
    weekday = draw(st.integers(min_value=0, max_value=6))
    n = draw(st.integers(min_value=1, max_value=4))
    weekdays = FilteredType(
        day(),
        lambda i, w=weekday: i % 7 == w,
        "wd-%d" % weekday,
        predicate_period=7,
    )
    return NthSubgranuleType(weekdays, month(), n)


def disjoint_patterns(a, b):
    """Whether ``a`` and ``b`` are patterns of one cycle and phase
    whose segments share no instant."""
    return (
        isinstance(a, PeriodicPatternType)
        and isinstance(b, PeriodicPatternType)
        and (a.cycle_seconds, a.phase) == (b.cycle_seconds, b.phase)
        and not any(
            start < other + other_length and other < start + length
            for start, length in a.segments
            for other, other_length in b.segments
        )
    )


def documented_exact(ttype):
    """Whether the compiler documents ``ttype``'s form as exact cover.

    Every drawn operand covers its tick bounds exactly and every
    operator keeps that, except a group over a base with gaps: its
    ticks span the base's gaps.
    """
    if isinstance(ttype, GroupedType):
        return ttype.base.total
    return True


# ----------------------------------------------------------------------
# Gregorian cycle types: conversions bit-identical to the calendar
# ----------------------------------------------------------------------
@pytest.mark.parametrize("factory", [month, year])
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_gregorian_tick_conversions_identical(factory, data):
    ttype = factory()
    form = compile_normal_form(ttype)
    second = data.draw(
        st.integers(min_value=0, max_value=3 * CYCLE_SECONDS),
        label="second",
    )
    assert form.tick_of_instant(second) == ttype.tick_of(second)
    index = data.draw(
        st.integers(min_value=0, max_value=3 * form.period_ticks),
        label="index",
    )
    assert form.instant_of_tick(index) == ttype.tick_bounds(index)


_SWEEP_REFERENCES = {}


def full_cycle_sweep(label):
    """A sweep whose horizon covers a whole Gregorian cycle.

    The stock sweep horizon (512 ticks) never reaches a non-leap
    century year, so its month/year minima are only minima *within the
    window* - the compiled backend legitimately finds tighter (true)
    extremes, e.g. 37-month windows spanning February 2100.  An exact
    reference needs every cycle phase in view: horizon ``3P + 2`` with
    exact region ``k <= P`` (``n // 2`` for undeclared types).
    """
    sweep = _SWEEP_REFERENCES.get(label)
    if sweep is None:
        ttype = fresh(label)
        period = compile_normal_form(ttype).period_ticks
        sweep = SizeTable(ttype, horizon=3 * period + 2)
        _SWEEP_REFERENCES[label] = sweep
    return sweep


@pytest.mark.parametrize("label", ["month", "year"])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_gregorian_size_tables_match_sweep(label, data):
    """Sampled k: compiled values equal the full-cycle sweep's."""
    sweep = full_cycle_sweep(label)
    compiled = CompiledSizeTable(fresh(label))
    k = data.draw(st.integers(min_value=1, max_value=256), label="k")
    assert compiled.minsize(k) == sweep.minsize(k)
    assert compiled.maxsize(k) == sweep.maxsize(k)
    assert compiled.mingap(k) == sweep.mingap(k)
    span = data.draw(
        st.integers(min_value=1, max_value=sweep.minsize(200)),
        label="span",
    )
    assert compiled.min_k_with_minsize_at_least(
        span, cap=256
    ) == sweep.min_k_with_minsize_at_least(span, cap=256)
    assert compiled.min_k_with_maxsize_greater(
        span, cap=256
    ) == sweep.min_k_with_maxsize_greater(span, cap=256)


# ----------------------------------------------------------------------
# Business days with random holidays
# ----------------------------------------------------------------------
@given(bday=holiday_bdays(), data=st.data())
@settings(max_examples=120, deadline=None)
def test_business_days_with_random_holidays(bday, data):
    form = compile_normal_form(bday)
    assert form.exact_cover
    second = data.draw(
        st.integers(min_value=0, max_value=3100 * DAY), label="second"
    )
    assert form.tick_of_instant(second) == bday.tick_of(second)
    index = data.draw(st.integers(min_value=0, max_value=2300), label="index")
    assert form.instant_of_tick(index) == bday.tick_bounds(index)
    assert form.distance(second, second // 2) == bday.distance(
        second, second // 2
    )


@given(bday=holiday_bdays(), data=st.data())
@settings(max_examples=40, deadline=None)
def test_business_day_tables_match_sweep(bday, data):
    # The sweep is exact only for windows inside its horizon: give it
    # the whole aperiodic stretch plus some periods, twice over.
    stretch = (
        bday.first_tick_at_or_after((bday.holidays[-1] + 1) * DAY)
        if bday.holidays
        else 0
    )
    sweep = SizeTable(bday, horizon=max(512, 2 * (stretch + 16)))
    compiled = CompiledSizeTable(bday)
    limit = sweep._exact_limit(sweep.horizon)
    k = data.draw(st.integers(min_value=1, max_value=limit), label="k")
    assert compiled.minsize(k) == sweep.minsize(k)
    assert compiled.maxsize(k) == sweep.maxsize(k)
    assert compiled.mingap(k) == sweep.mingap(k)


# ----------------------------------------------------------------------
# Random operator expressions
# ----------------------------------------------------------------------
@given(ttype=calendar_expressions(), data=st.data())
@settings(max_examples=120, deadline=None)
def test_random_expressions_compile_identically(ttype, data):
    form = compile_normal_form(ttype)
    if documented_exact(ttype):
        assert form.exact_cover
    index = data.draw(
        st.integers(min_value=0, max_value=2 * form.period_ticks + 20),
        label="index",
    )
    assert form.instant_of_tick(index) == ttype.tick_bounds(index)
    horizon = form.instant_of_tick(form.prefix_ticks + form.period_ticks)[1]
    second = data.draw(
        st.integers(min_value=0, max_value=2 * horizon + 10), label="second"
    )
    if form.exact_cover:
        assert form.tick_of_instant(second) == ttype.tick_of(second)


def test_disjoint_patterns_do_not_lower():
    """An intersection of patterns that never meet has no tick, so it
    has no normal form; lowering says so at once."""
    early = PeriodicPatternType("p", 6 * 3600, [(0, 900)])
    late = PeriodicPatternType("p", 6 * 3600, [(900, 900)])
    assert disjoint_patterns(late, early)
    with pytest.raises(NormalFormError, match="no periodic overlap"):
        compile_normal_form(IntersectionType(late, early))


# ----------------------------------------------------------------------
# Column conversion vs the scalar bisection
# ----------------------------------------------------------------------
@given(
    ttype=st.one_of(
        holiday_bdays(),
        st.builds(month),
        calendar_expressions(),
    ),
    data=st.data(),
)
@settings(max_examples=80, deadline=None)
def test_batch_kernels_bit_identical(ttype, data):
    form = compile_normal_form(ttype)
    horizon = form.instant_of_tick(form.prefix_ticks + form.period_ticks)[1]
    seconds = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=2 * horizon + 10),
            max_size=40,
        ),
        label="seconds",
    )
    ticks, defined = form.ticks_of_instants(seconds)
    for second, tick, ok in zip(seconds, ticks, defined):
        z = form.tick_of_instant(second)
        assert ok == (0 if z is None else 1)
        assert tick == (0 if z is None else z)


def _exact_cover_stock_types():
    """Every stock type whose form certifies exact cover, plus a
    b-day with holidays (an aperiodic prefix before the period)."""
    system = standard_system(cache=ConversionCache())
    types = [
        system.get(label)
        for label in system.labels()
        if compile_normal_form(system.get(label)).exact_cover
    ]
    return types + [
        BusinessDayType(label="b-day-holidays", holidays=[3, 11, 12, 40])
    ]


@st.composite
def instant_columns(draw, form):
    """Instants at tick edges, inside gaps and before the periodic
    start, in drawn, sorted or tied-and-sorted order."""
    span = form.prefix_ticks + 3 * form.period_ticks
    instants = []
    for tick, where, delta in draw(
        st.lists(
            st.tuples(
                st.integers(0, span),
                st.sampled_from(["first", "last", "gap"]),
                st.integers(-2, 2),
            ),
            max_size=50,
        ),
        label="picks",
    ):
        first, last = form.instant_of_tick(tick)
        if where == "gap":
            instants.append((last + form.instant_of_tick(tick + 1)[0]) // 2)
        else:
            instants.append((first if where == "first" else last) + delta)
    start = form.instant_of_tick(0)[0]
    instants += draw(
        st.lists(st.integers(start - 3 * DAY, start - 1), max_size=5),
        label="before tick 0",
    )
    order = draw(st.sampled_from(["drawn", "sorted", "tied"]))
    if order == "tied" and instants:
        instants += draw(st.lists(st.sampled_from(instants), max_size=10))
    if order != "drawn":
        instants.sort()
    return instants


@pytest.mark.parametrize(
    "ttype", _exact_cover_stock_types(), ids=lambda ttype: ttype.label
)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_walked_ticks_equal_per_instant_bisection(ttype, data):
    """The column walk (and the gapless one-granule division) answers
    every instant exactly as the scalar ``tick_of_instant`` does."""
    form = compile_normal_form(ttype)
    assert form.exact_cover
    instants = data.draw(instant_columns(form), label="instants")
    ticks, defined = form.ticks_of_instants(instants)
    expected = [form.tick_of_instant(t) for t in instants]
    assert defined == [0 if z is None else 1 for z in expected]
    assert ticks == [0 if z is None else z for z in expected]


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_clock_ticks_of_matches_type_path(data):
    """The routed batch API vs the per-element reference loop: months
    (an exact-cover form) and business weeks and months over a holiday
    business day (the type's own form for ticks, the business day's for
    coverage)."""
    kind = data.draw(
        st.sampled_from(["month", "business-month", "b-week"]), label="kind"
    )
    if kind == "month":
        ttype = fresh("month")
    else:
        bday = data.draw(holiday_bdays(), label="bday")
        ttype = (
            BusinessMonthType(bday=bday)
            if kind == "business-month"
            else BusinessWeekType(bday=bday)
        )
    seconds = data.draw(
        st.lists(
            st.one_of(
                st.integers(min_value=0, max_value=3200 * DAY),
                st.integers(min_value=0, max_value=2 * CYCLE_SECONDS),
            ),
            max_size=30,
        ),
        label="seconds",
    )
    if data.draw(st.booleans(), label="sorted"):
        seconds.sort()
    ticks, defined = clock_ticks_of(ttype, seconds)
    expected = [ttype.tick_of(s) for s in seconds]
    assert defined == [0 if z is None else 1 for z in expected]
    assert ticks == [0 if z is None else z for z in expected]


# ----------------------------------------------------------------------
# The cycle generator vs calendar arithmetic
# ----------------------------------------------------------------------
def test_cycle_generator_matches_python_reference():
    """One generated 400-year cycle of month and year bounds equals the
    day arithmetic of :mod:`repro.granularity.gregorian` tick by tick."""
    from repro.granularity import algebra
    from repro.granularity.gregorian import month_bounds, year_bounds

    for kind, count, reference in (
        ("months", MONTHS_PER_400_YEARS, month_bounds),
        ("years", 400, year_bounds),
    ):
        bounds = algebra._cycle_bounds(kind, kind)
        assert len(bounds) >= count
        for index in range(count):
            first_day, last_day = reference(index)
            assert bounds[index] == (
                first_day * DAY, (last_day + 1) * DAY - 1
            )
        assert bounds[count - 1][1] + 1 == CYCLE_SECONDS


def test_cycle_generator_fallback_matches():
    """The compiled month form equals the month type's own tick bounds
    over two whole cycles."""
    from repro.granularity import algebra

    ttype = month()
    form = algebra._lower_month(ttype)
    for index in range(2 * MONTHS_PER_400_YEARS):
        assert form.instant_of_tick(index) == ttype.tick_bounds(index)
