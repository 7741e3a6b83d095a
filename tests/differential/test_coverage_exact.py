"""Appendix A.1 coverage against a brute-force truth.

A conversion from ``src`` into ``tgt`` is feasible when ``tgt`` covers
every instant ``src`` covers.  ``GranularitySystem.conversion_feasible``
reads that off the two types' periodic normal forms.  The truth here
knows nothing of normal forms.  From each type's definition it takes:

* the instant from which its coverage repeats (the *stretch*: a phase,
  a grouping offset, the day after the last holiday);
* the period with which it repeats;
* the instants at which its coverage can change (phases, pattern run
  edges, day starts).

Between two consecutive change instants of both types, both coverages
are constant.  So probing, with the types' own ``tick_of``, the start
of each source-covered stretch and every target change instant inside
it, over the stretch plus one joint period, decides coverage for the
whole timeline.

Coverage must be exact whenever both types have a covered-set form (or
the target is total).  For a type that does not lower it must never
certify a false inclusion.  Holidays fall anywhere in days 0-3000, so
aperiodic stretches run up to eight years.
"""

from itertools import chain
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.reference import Unlowered
from repro.constraints import TCG, EventStructure, propagate
from repro.granularity import (
    BusinessDayType,
    BusinessMonthType,
    BusinessWeekType,
    ConversionCache,
    GranularitySystem,
    GroupedType,
    PeriodicPatternType,
    UniformType,
    month,
    standard_system,
)
from repro.granularity.base import DayBasedType
from repro.granularity.gregorian import SECONDS_PER_DAY
from repro.granularity.normalform import covered_set_form

DAY = SECONDS_PER_DAY
WEEK = 7 * DAY
WEEK_DIVISORS = [d for d in range(1, WEEK + 1) if WEEK % d == 0]
#: One month instance, so its 400-year form compiles once per run.
MONTH = month()


# ----------------------------------------------------------------------
# The brute-force truth
# ----------------------------------------------------------------------
def _pattern_runs(ttype):
    """Maximal covered ``[start, end)`` runs of one pattern cycle."""
    runs = []
    for offset, length in ttype.segments:
        if runs and runs[-1][1] == offset:
            runs[-1][1] = offset + length
        else:
            runs.append([offset, offset + length])
    return runs


def _day_starts(lo, hi):
    """Day-based coverage changes only at midnight."""
    return iter(range(-(-lo // DAY) * DAY, hi, DAY))


def _at(instant):
    """Edges of a coverage that changes once, at ``instant``."""
    return lambda lo, hi: iter([instant] if lo <= instant < hi else [])


def coverage_shape(ttype):
    """``(stretch, period, edges)`` of a type's covered instant set.

    From ``stretch`` on, coverage repeats every ``period`` seconds;
    ``edges(lo, hi)`` yields, in increasing order, every instant in
    ``[lo, hi)`` at which coverage may change.
    """
    if isinstance(ttype, Unlowered):
        return coverage_shape(ttype.base)
    if isinstance(ttype, UniformType):
        return ttype.phase, 1, _at(ttype.phase)
    if isinstance(ttype, PeriodicPatternType):
        runs = _pattern_runs(ttype)
        cycle = ttype.cycle_seconds
        if runs == [[0, cycle]]:
            return ttype.phase, 1, _at(ttype.phase)

        def pattern_edges(lo, hi):
            base = ttype.phase + max(0, (lo - ttype.phase) // cycle) * cycle
            while base < hi:
                for start, stop in runs:
                    for edge in (base + start, base + stop):
                        if lo <= edge < hi:
                            yield edge
                base += cycle

        return ttype.phase, cycle, pattern_edges
    if isinstance(ttype, GroupedType):
        # Groups of a gapless base: covered from the first group on.
        assert ttype.base.total
        start = ttype.tick_bounds(0)[0]
        return start, 1, _at(start)
    if isinstance(ttype, (BusinessWeekType, BusinessMonthType)):
        # A business week or month covers exactly its business days.
        return coverage_shape(ttype.bday)
    if isinstance(ttype, BusinessDayType):
        stretch = (ttype.holidays[-1] + 1) * DAY if ttype.holidays else 0
        return stretch, WEEK, _day_starts
    assert isinstance(ttype, DayBasedType) and ttype.total, ttype
    return 0, 1, _at(0)


def covers_truth(target, source) -> bool:
    """Does ``target`` cover every instant ``source`` covers?

    Walks the source's constant-coverage intervals up to the later
    stretch plus one joint period; inside each covered interval, probes
    the target at the interval's start and at each target edge.
    """
    s_stretch, s_period, s_edges = coverage_shape(source)
    t_stretch, t_period, t_edges = coverage_shape(target)
    joint = s_period * t_period // gcd(s_period, t_period)
    end = max(s_stretch, t_stretch) + joint
    start = 0
    for stop in chain(s_edges(1, end), [end]):
        if stop <= start:
            continue
        if source.covers(start):
            for instant in chain([start], t_edges(start + 1, stop)):
                if not target.covers(instant):
                    return False
        start = stop
    return True


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
@st.composite
def uniform_types(draw, label):
    return UniformType(
        label,
        draw(st.integers(min_value=1, max_value=100_000)),
        phase=draw(st.integers(min_value=0, max_value=3 * DAY)),
    )


@st.composite
def pattern_types(draw, label, cycle=None, phase=None):
    if cycle is None:
        cycle = draw(st.sampled_from(WEEK_DIVISORS))
    if phase is None:
        phase = draw(st.integers(min_value=0, max_value=2 * DAY))
    cuts = sorted(
        draw(
            st.sets(
                st.integers(min_value=0, max_value=cycle),
                min_size=2,
                max_size=min(8, cycle + 1),
            )
        )
    )
    if draw(st.booleans()):
        # Gapless: the cuts tile the cycle.
        cuts = sorted(set(cuts) | {0, cycle})
        segments = [(a, b - a) for a, b in zip(cuts, cuts[1:])]
    else:
        segments = [
            (cuts[i], cuts[i + 1] - cuts[i])
            for i in range(0, len(cuts) - 1, 2)
        ]
    return PeriodicPatternType(label, cycle, segments, phase=phase)


workday_sets = st.sets(st.integers(min_value=0, max_value=6), min_size=1)
holiday_lists = st.lists(
    st.integers(min_value=0, max_value=3000), max_size=6, unique=True
)


def business_type(kind, label, workdays, holidays):
    """A b-day, b-week or business-month over one business-day pattern."""
    bday = BusinessDayType(
        label=label if kind == "b-day" else label + "-bd",
        workdays=tuple(workdays),
        holidays=holidays,
    )
    if kind == "b-week":
        return BusinessWeekType(label=label, bday=bday)
    if kind == "business-month":
        return BusinessMonthType(label=label, bday=bday)
    return bday


@st.composite
def business_types(draw, label):
    return business_type(
        draw(st.sampled_from(["b-day", "b-week", "business-month"])),
        label,
        draw(workday_sets),
        draw(holiday_lists),
    )


@st.composite
def grouped_months(draw, label):
    return GroupedType(
        MONTH,
        draw(st.integers(min_value=1, max_value=12)),
        label=label,
        offset=draw(st.integers(min_value=0, max_value=30)),
    )


def lowering_types(label):
    return st.one_of(
        uniform_types(label),
        pattern_types(label),
        business_types(label),
        grouped_months(label),
    )


@st.composite
def any_types(draw, label):
    """Types with a covered-set form; one in four wrapped unlowered."""
    ttype = draw(lowering_types(label))
    return Unlowered(ttype) if draw(st.integers(0, 3)) == 3 else ttype


@st.composite
def related_pairs(draw):
    """Pairs built to sit near an inclusion, either side of it."""
    kind = draw(st.sampled_from(["business", "pattern"]))
    if kind == "business":
        workdays = draw(workday_sets)
        holidays = draw(holiday_lists)
        wider = workdays | draw(workday_sets)
        fewer = [d for d in holidays if draw(st.booleans())]
        extra = draw(st.lists(st.integers(0, 3000), max_size=2))
        kinds = st.sampled_from(["b-day", "b-week", "business-month"])
        source = business_type(draw(kinds), "src", workdays, holidays)
        target = business_type(
            draw(kinds), "tgt", wider, sorted(set(fewer + extra))
        )
        return source, target
    source = draw(pattern_types("src"))
    cycle = source.cycle_seconds * draw(st.sampled_from([1, 2, 3]))
    target = draw(pattern_types("tgt", cycle=cycle, phase=source.phase))
    if draw(st.booleans()):
        # Widen the target by the source's own segments (an inclusion
        # unless a cut lands inside one of them).
        spans = [
            (k * source.cycle_seconds + offset, length)
            for k in range(cycle // source.cycle_seconds)
            for offset, length in source.segments
        ]
        target = PeriodicPatternType("tgt", cycle, spans, phase=source.phase)
    return source, target


# ----------------------------------------------------------------------
# Production against the truth
# ----------------------------------------------------------------------
def check_against_truth(source, target):
    system = GranularitySystem([source, target], cache=ConversionCache())
    feasible = system.conversion_feasible(source.label, target.label)
    truth = covers_truth(target, source)
    exact = target.total or (
        covered_set_form(source) is not None
        and covered_set_form(target) is not None
    )
    if exact:
        assert feasible == truth, (source, target, feasible, truth)
    else:
        assert truth or not feasible, (source, target)
    return feasible, truth


@given(source=any_types("src"), target=any_types("tgt"))
@settings(max_examples=250, deadline=None)
def test_random_pairs_match_brute_force(source, target):
    check_against_truth(source, target)


@given(pair=related_pairs())
@settings(max_examples=200, deadline=None)
def test_near_inclusions_match_brute_force(pair):
    check_against_truth(*pair)


def test_oracle_sees_both_answers():
    """The truth is no constant: stock pairs land on both sides."""
    system = standard_system(cache=ConversionCache())
    get = system.get
    assert covers_truth(get("week"), get("b-day"))
    assert covers_truth(get("b-week"), get("b-day"))
    assert not covers_truth(get("b-day"), get("day"))
    assert not covers_truth(get("business-month"), get("second"))


# ----------------------------------------------------------------------
# The late-holiday soundness case
# ----------------------------------------------------------------------
def late_holiday_system():
    system = standard_system(cache=ConversionCache())
    system.register(BusinessDayType(label="hb-day", holidays=[800]))
    return system


def test_late_holiday_bday_does_not_cover_bday():
    system = late_holiday_system()
    assert not system.conversion_feasible("b-day", "hb-day")
    assert system.conversion_feasible("hb-day", "b-day")
    assert not system.conversion_feasible("second", "business-month")


def test_late_holiday_propagation_is_sound():
    """Theorem 2 on A->B [0,1] b-day, B->C [0,1] holiday-800 b-day.

    A on day 800 (a Wednesday, and the holiday) and B on day 801
    satisfy the first constraint.  Had the holiday b-day been certified
    to cover b-day, propagation would derive A->B [0,1] in it, which A
    on its holiday violates.
    """
    system = late_holiday_system()
    structure = EventStructure(
        ["A", "B", "C"],
        {
            ("A", "B"): [TCG(0, 1, system.get("b-day"))],
            ("B", "C"): [TCG(0, 1, system.get("hb-day"))],
        },
    )
    times = {"A": 800 * DAY, "B": 801 * DAY, "C": 802 * DAY}
    for (x, y), tcgs in structure.constraints.items():
        assert all(tcg.is_satisfied(times[x], times[y]) for tcg in tcgs)
    result = propagate(structure, system)
    assert result.consistent
    for x in structure.variables:
        for y in structure.variables:
            if x == y or not structure.has_path(x, y):
                continue
            for tcg in result.derived_tcgs(x, y):
                assert tcg.is_satisfied(times[x], times[y]), (x, y, tcg)
