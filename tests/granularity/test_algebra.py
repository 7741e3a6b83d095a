"""Unit tests for the calendar-algebra compiler (PR 10).

The differential suites in ``tests/differential`` compare compiled
forms against the sweep reference and the types themselves; these unit
tests pin the algebra layer's own contracts - operator semantics,
minimization, budget fallback, provenance, and the batched conversion
kernel.
"""

import pytest

from repro.granularity import (
    BusinessDayType,
    BusinessMonthType,
    BusinessWeekType,
    ConversionCache,
    FormBackedType,
    NormalFormError,
    PeriodicNormalForm,
    PeriodicPatternType,
    UniformType,
    clock_ticks_of,
    compile_normal_form,
    explain_normal_form,
    minimize_form,
    nf_group,
    nf_intersect,
    nf_nth_within,
    nf_select,
    nf_shift,
    nf_union,
    parse_type,
    standard_system,
)
from repro.granularity.combinators import (
    FilteredType,
    GroupedType,
    NthSubgranuleType,
    ShiftedType,
    UnionType,
)
from repro.granularity.customcal import CustomCalendar, CustomMonthType
from repro.granularity.gregorian import (
    DAYS_PER_400_YEARS,
    MONTHS_PER_400_YEARS,
    SECONDS_PER_DAY,
)
from repro.granularity import normalform
from repro.granularity.normalform import cached_normal_form

from tests.differential.reference import Unlowered, sweep_system

DAY = SECONDS_PER_DAY
WEEK = 7 * DAY
CYCLE_SECONDS = DAYS_PER_400_YEARS * DAY


def day_form():
    return compile_normal_form(UniformType("day", DAY))


def month_form():
    system = standard_system(cache=ConversionCache())
    return compile_normal_form(system.get("month"))


class TestMinimization:
    def test_reducible_period_shrinks(self):
        # Two identical half-cycles: P=2/S=20 is really P=1/S=10.
        form = PeriodicNormalForm(
            label="r",
            period_ticks=2,
            period_seconds=20,
            firsts=(0, 10),
            lasts=(4, 14),
        )
        minimized = minimize_form(form)
        assert minimized.period_ticks == 1
        assert minimized.period_seconds == 10
        assert minimized.minimized_from == (2, 0)

    def test_redundant_prefix_is_absorbed(self):
        # The prefix tick continues the periodic recurrence exactly.
        form = PeriodicNormalForm(
            label="a",
            period_ticks=1,
            period_seconds=10,
            firsts=(10,),
            lasts=(14,),
            prefix_firsts=(0,),
            prefix_lasts=(4,),
        )
        minimized = minimize_form(form)
        assert minimized.prefix_ticks == 0
        assert minimized.firsts == (0,)
        assert minimized.lasts == (4,)
        assert minimized.minimized_from == (1, 1)

    def test_minimal_form_is_returned_unchanged(self):
        form = PeriodicNormalForm(
            label="m",
            period_ticks=2,
            period_seconds=20,
            firsts=(0, 10),
            lasts=(4, 16),
        )
        assert minimize_form(form) is form

    def test_genuine_prefix_survives(self):
        form = PeriodicNormalForm(
            label="g",
            period_ticks=1,
            period_seconds=10,
            firsts=(10,),
            lasts=(14,),
            prefix_firsts=(2,),
            prefix_lasts=(4,),
        )
        minimized = minimize_form(form)
        assert minimized.prefix_ticks == 1

    def test_minimization_preserves_semantics(self):
        form = PeriodicNormalForm(
            label="s",
            period_ticks=4,
            period_seconds=40,
            firsts=(0, 10, 20, 30),
            lasts=(6, 16, 26, 36),
            prefix_firsts=(-20, -10),
            prefix_lasts=(-14, -4),
        )
        minimized = minimize_form(form)
        assert minimized.period_ticks == 1
        assert minimized.prefix_ticks == 0
        for index in range(12):
            assert minimized.instant_of_tick(index) == form.instant_of_tick(
                index
            )
        for second in range(-25, 60):
            assert minimized.tick_of_instant(second) == form.tick_of_instant(
                second
            )


class TestGregorianLowerings:
    def test_month_form_shape(self):
        form = month_form()
        assert form.period_ticks == MONTHS_PER_400_YEARS
        assert form.period_seconds == CYCLE_SECONDS
        assert form.prefix_ticks == 0
        assert form.exact_cover
        assert form.source == "algebra"
        assert form.rule == "gregorian-cycle"

    def test_year_form_shape(self):
        system = standard_system(cache=ConversionCache())
        form = compile_normal_form(system.get("year"))
        assert form.period_ticks == 400
        assert form.period_seconds == CYCLE_SECONDS

    def test_leap_february_tick(self):
        # Month 25 = February of year 2002 (common, 28 days);
        # month 49 = February of 2004 (leap, 29 days).
        form = month_form()
        feb_common = form.instant_of_tick(25)
        feb_leap = form.instant_of_tick(49)
        assert feb_common[1] - feb_common[0] + 1 == 28 * DAY
        assert feb_leap[1] - feb_leap[0] + 1 == 29 * DAY


class TestBusinessLowerings:
    def test_holiday_business_day_has_prefix(self):
        bday = BusinessDayType(holidays=[3, 10])
        form = compile_normal_form(bday)
        assert form.rule == "business-overlay"
        assert form.period_ticks == 5
        assert form.prefix_ticks > 0
        assert form.exact_cover

    def test_holiday_free_business_day_is_a_business_overlay(self):
        form = compile_normal_form(BusinessDayType())
        assert form.source == "algebra"
        assert form.rule == "business-overlay"
        assert form.period_ticks == 5
        assert form.prefix_ticks == 0
        assert form.exact_cover

    def test_business_week_is_week_periodic(self):
        bweek = BusinessWeekType(BusinessDayType())
        form = compile_normal_form(bweek)
        assert form.period_ticks == 1
        assert form.period_seconds == WEEK
        assert not form.exact_cover

    def test_business_month_is_cycle_periodic(self):
        bmonth = BusinessMonthType(BusinessDayType())
        form = compile_normal_form(bmonth)
        assert form.period_ticks == MONTHS_PER_400_YEARS
        assert form.period_seconds == CYCLE_SECONDS


class TestOperators:
    def test_group_takes_period_lcm(self):
        form = nf_group(month_form(), 7)
        # lcm(4800, 7) / 7 = 4800: months per cycle is divisible by 7
        # only after a full extra factor of 7.
        assert form.period_ticks == 4800
        assert form.period_seconds == 7 * CYCLE_SECONDS

    def test_group_fiscal_offset(self):
        fiscal = nf_group(month_form(), 12, offset=3, label="fiscal")
        months = month_form()
        assert fiscal.instant_of_tick(0)[0] == months.instant_of_tick(3)[0]
        assert fiscal.instant_of_tick(0)[1] == months.instant_of_tick(14)[1]
        assert fiscal.period_ticks == 400

    def test_select_residues(self):
        form = nf_select(day_form(), lambda i: i % 7 in (0, 3), 7)
        assert form.period_ticks == 2
        assert form.period_seconds == WEEK
        assert form.instant_of_tick(0) == (0, DAY - 1)
        assert form.instant_of_tick(1) == (3 * DAY, 4 * DAY - 1)
        assert form.instant_of_tick(2) == (WEEK, WEEK + DAY - 1)

    def test_select_empty_raises(self):
        with pytest.raises(NormalFormError) as excinfo:
            nf_select(day_form(), lambda i: False, 7)
        assert excinfo.value.reason == "empty"

    def test_shift_positive(self):
        form = nf_shift(day_form(), 3600)
        assert form.instant_of_tick(0) == (3600, DAY + 3599)

    def test_shift_negative_drops_clipped_ticks(self):
        form = nf_shift(day_form(), -3600)
        # Old tick 0 would start at -3600; it is dropped and old tick 1
        # becomes tick 0.
        assert form.instant_of_tick(0) == (DAY - 3600, 2 * DAY - 3601)

    def test_intersect_matches_type(self):
        hour = compile_normal_form(UniformType("hour", 3600))
        odd_days = nf_select(day_form(), lambda i: i % 2 == 1, 2)
        form = nf_intersect(hour, odd_days)
        assert form.period_ticks == 24
        assert form.period_seconds == 2 * DAY
        assert form.instant_of_tick(0) == (DAY, DAY + 3599)

    def test_union_keeps_adjacent_ticks_separate(self):
        a = nf_select(day_form(), lambda i: i % 7 == 0, 7)
        b = nf_select(day_form(), lambda i: i % 7 == 1, 7)
        form = nf_union(a, b)
        assert form.period_ticks == 2
        assert form.instant_of_tick(0) == (0, DAY - 1)
        assert form.instant_of_tick(1) == (DAY, 2 * DAY - 1)

    def test_union_coalesces_overlaps(self):
        a = compile_normal_form(
            PeriodicPatternType("a", 100, [(0, 30)])
        )
        b = compile_normal_form(
            PeriodicPatternType("b", 100, [(20, 30)])
        )
        form = nf_union(a, b)
        assert form.period_ticks == 1
        assert form.instant_of_tick(0) == (0, 49)

    def test_nth_second_tuesday(self):
        tuesdays = nf_select(day_form(), lambda i: i % 7 == 1, 7)
        form = nf_nth_within(tuesdays, month_form(), 2, label="2nd-tue")
        # Day 0 is Monday, so day 8 is the second Tuesday of month 0.
        assert form.instant_of_tick(0) == (8 * DAY, 9 * DAY - 1)
        assert form.period_ticks == MONTHS_PER_400_YEARS

    def test_operator_results_survive_roundtrip(self):
        form = nf_group(month_form(), 3, label="quarter")
        import pickle

        clone = pickle.loads(pickle.dumps(form))
        assert clone == form


class TestCustomCalendarInference:
    def test_undeclared_cycle_is_inferred(self):
        calendar = CustomCalendar(
            [28] * 13, leap_days=lambda y: 7 if y % 5 == 4 else 0
        )
        form = compile_normal_form(CustomMonthType(calendar, "acct-month"))
        assert form.rule == "custom-cycle"
        assert form.period_ticks == 65

    def test_declared_cycle_lowers_by_custom_cycle(self):
        calendar = CustomCalendar(
            [28] * 13,
            leap_days=lambda y: 7 if y % 5 == 4 else 0,
            period_years=5,
        )
        form = compile_normal_form(CustomMonthType(calendar, "acct-month"))
        assert form.source == "algebra"
        assert form.rule == "custom-cycle"
        assert form.period_ticks == 65


class TestBudgetAndFallback:
    def test_over_budget_reason(self, monkeypatch):
        monkeypatch.setattr(normalform, "MAX_PERIOD_TICKS", 16)
        system = standard_system(cache=ConversionCache())
        with pytest.raises(NormalFormError) as excinfo:
            compile_normal_form(system.get("month"))
        assert excinfo.value.reason == "over-budget"

    def test_smallest_budget_keeps_uniform_types(self, monkeypatch):
        # A one-tick budget: single-phase types still compile,
        # everything larger falls back cleanly.
        monkeypatch.setattr(normalform, "MAX_PERIOD_TICKS", 1)
        assert compile_normal_form(UniformType("u", 10)).period_ticks == 1
        system = standard_system(cache=ConversionCache())
        assert cached_normal_form(system.get("month")) is None
        assert cached_normal_form(system.get("b-day")) is None

    def test_fallback_counter_labels(self, monkeypatch, obs_on):
        from repro.obs import counter_deltas, metrics_snapshot

        monkeypatch.setattr(normalform, "MAX_PERIOD_TICKS", 16)
        before = metrics_snapshot()
        system = standard_system(cache=ConversionCache())
        assert cached_normal_form(system.get("month")) is None
        deltas = counter_deltas(before, metrics_snapshot())
        assert (
            deltas['repro_sizetable_fallback_total{reason="over-budget"}']
            >= 1
        )

    def test_one_tick_budget_converts_like_the_sweep(self, monkeypatch):
        """Every calendar falls back under a one-tick budget, and the
        system then converts exactly like the sweep reference."""
        monkeypatch.setattr(normalform, "MAX_PERIOD_TICKS", 1)
        budget_sys = standard_system(cache=ConversionCache())
        reference = sweep_system(cache=ConversionCache())
        assert compile_normal_form(budget_sys.get("hour")).period_ticks == 1
        for label in ("month", "year", "b-day", "business-month"):
            # Composites report the budgeted operand as their reason.
            with pytest.raises(NormalFormError) as excinfo:
                compile_normal_form(budget_sys.get(label))
            assert excinfo.value.reason in ("over-budget", "operand"), label
            assert cached_normal_form(budget_sys.get(label)) is None
            assert budget_sys.table(label).backend == "sweep", label
        for pair in (("month", "day"), ("year", "month"), ("week", "b-day")):
            for interval in ((0, 0), (0, 2), (1, 5)):
                assert budget_sys.convert(*interval, *pair) == (
                    reference.convert(*interval, *pair)
                ), (pair, interval)


class TestProvenance:
    def test_explain_compiling_type(self):
        system = standard_system(cache=ConversionCache())
        info = explain_normal_form(system.get("month"))
        assert info["compiles"]
        assert info["rule"] == "gregorian-cycle"
        assert info["period_ticks"] == MONTHS_PER_400_YEARS

    def test_explain_non_compiling_type(self):
        filtered = FilteredType(
            UniformType("u", 10), lambda i: i % 2 == 0, "odd"
        )
        info = explain_normal_form(filtered)
        assert not info["compiles"]
        assert info["reason"] == "no-period"
        assert "odd" in info["detail"]

    def test_minimization_savings_reported(self):
        form = PeriodicNormalForm(
            label="r",
            period_ticks=2,
            period_seconds=20,
            firsts=(0, 10),
            lasts=(4, 14),
        )
        info = minimize_form(form).describe()
        assert info["minimized_from_period"] == 2
        assert info["minimized_from_prefix"] == 0


class TestFormBackedType:
    def test_roundtrips_through_compiler(self):
        form = nf_group(month_form(), 3, label="quarter")
        ttype = FormBackedType(form)
        assert cached_normal_form(ttype) is form
        assert ttype.tick_bounds(7) == form.instant_of_tick(7)
        assert ttype.tick_of(form.instant_of_tick(7)[0]) == 7

    def test_rejects_boundary_only_forms(self):
        gappy = PeriodicNormalForm(
            label="g",
            period_ticks=1,
            period_seconds=100,
            firsts=(0,),
            lasts=(49,),
            exact_cover=False,
        )
        with pytest.raises(ValueError):
            FormBackedType(gappy)

    def test_registers_in_a_system(self):
        system = standard_system(cache=ConversionCache())
        quarter = system.register(
            FormBackedType(nf_group(month_form(), 3, label="quarter"))
        )
        outcome = system.convert(0, 0, quarter, system.get("month"))
        assert outcome.interval == (0, 2)


class TestCoveredInstantQueries:
    def test_first_and_last_covered(self):
        bday = BusinessDayType(holidays=[3])
        form = compile_normal_form(bday)
        # Week 0: Mon,Tue,Wed,Fri are working (Thu day 3 is a holiday).
        assert form.first_covered_at_or_after(0) == 0
        assert form.first_covered_at_or_after(3 * DAY) == 4 * DAY
        assert form.last_covered_at_or_before(4 * DAY - 1) == 3 * DAY - 1
        assert form.last_covered_at_or_before(7 * DAY - 1) == 5 * DAY - 1
        # The start of week-1 Monday is itself covered.
        assert form.last_covered_at_or_before(7 * DAY) == 7 * DAY


class TestBatchedConversion:
    def test_matches_scalar_path(self):
        system = standard_system(cache=ConversionCache())
        month = system.get("month")
        seconds = [0, DAY, 31 * DAY, CYCLE_SECONDS + 5, 7 * CYCLE_SECONDS]
        ticks, defined = clock_ticks_of(month, seconds)
        assert list(defined) == [1] * len(seconds)
        assert list(ticks) == [month.tick_of(s) for s in seconds]

    def test_undefined_instants_marked(self):
        bday = BusinessDayType(holidays=[1])
        seconds = [0, DAY, DAY + 5, 2 * DAY, 5 * DAY]
        ticks, defined = clock_ticks_of(bday, seconds)
        assert list(defined) == [1, 0, 0, 1, 0]
        assert list(ticks) == [0, 0, 0, 1, 0]

    def test_sweep_mode_uses_reference_path(self):
        system = standard_system(cache=ConversionCache())
        month = Unlowered(system.get("month"))
        seconds = [0, 40 * DAY]
        ticks, defined = clock_ticks_of(month, seconds)
        assert list(ticks) == [0, 1]
        assert list(defined) == [1, 1]


class TestParserConstructors:
    @pytest.mark.parametrize(
        "expr, klass",
        [
            ("select(day, 7, 0, 3)", FilteredType),
            ("shift(hour, -600)", ShiftedType),
            ("union(b-day, select(day, 7, 5, 6))", UnionType),
            ("nth(select(day, 7, 1), month, 2)", NthSubgranuleType),
        ],
    )
    def test_parse_and_compile(self, expr, klass):
        system = standard_system(cache=ConversionCache())
        ttype = parse_type(expr, system)
        assert isinstance(ttype, klass)
        form = compile_normal_form(ttype)
        for index in range(8):
            assert form.instant_of_tick(index) == ttype.tick_bounds(index)

    def test_select_requires_residues(self):
        from repro.granularity import GranularityParseError

        system = standard_system(cache=ConversionCache())
        with pytest.raises(GranularityParseError):
            parse_type("select(day, 7)", system)
