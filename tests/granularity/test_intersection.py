"""Tests for intersection granularities and business hours."""

import os
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.constraints import TCG
from repro.granularity import (
    BusinessDayType,
    IntersectionType,
    PeriodicPatternType,
    business_hours,
    day,
    hour,
    month,
    standard_system,
    week,
)
from repro.granularity import normalform
from repro.granularity.gregorian import SECONDS_PER_DAY, SECONDS_PER_HOUR

D, H = SECONDS_PER_DAY, SECONDS_PER_HOUR


class TestIntersectionType:
    def test_week_month_overlaps(self):
        overlap = IntersectionType(week(), month())
        # Tick 0: week 0 within January -> the whole week (epoch is a
        # Monday, Jan 1).
        assert overlap.tick_bounds(0) == (0, 7 * D - 1)
        # January has 31 days = 4 weeks + 3 days: tick 4 is the Jan
        # part of week 4, tick 5 the Feb part.
        first4, last4 = overlap.tick_bounds(4)
        assert first4 == 28 * D
        assert last4 == 31 * D - 1
        first5, last5 = overlap.tick_bounds(5)
        assert first5 == 31 * D
        assert last5 == 35 * D - 1

    def test_tick_of_requires_both(self):
        bday = BusinessDayType()
        overlap = IntersectionType(bday, week())
        saturday = 5 * D
        assert overlap.tick_of(saturday) is None  # not a b-day
        assert overlap.tick_of(0) == 0

    def test_default_label(self):
        assert IntersectionType(week(), month()).label == "week*month"

    def test_total_only_if_both_total(self):
        assert IntersectionType(day(), month()).total
        assert not IntersectionType(BusinessDayType(), month()).total

    def test_negative_uncovered(self):
        assert IntersectionType(week(), month()).tick_of(-5) is None

    @given(st.integers(min_value=0, max_value=120))
    @settings(max_examples=30, deadline=None)
    def test_bounds_roundtrip(self, index):
        overlap = IntersectionType(week(), month())
        first, last = overlap.tick_bounds(index)
        assert overlap.tick_of(first) == index
        assert overlap.tick_of(last) == index
        assert first <= last

    def test_ticks_strictly_ordered(self):
        overlap = IntersectionType(week(), month())
        previous_last = -1
        for index in range(60):
            first, last = overlap.tick_bounds(index)
            assert first > previous_last
            previous_last = last


class TestDisjointOperands:
    def test_operands_that_never_meet_have_no_tick(self):
        """Two six-hour patterns whose segments never overlap: one
        joint period without an overlap ends the walk, so the type
        fails loudly instead of scanning forever.  A fresh interpreter
        runs the case under a timeout, so a walk that does not end
        fails the test instead of hanging it."""
        code = textwrap.dedent(
            """
            from repro.granularity import IntersectionType
            from repro.granularity import PeriodicPatternType as P

            never = IntersectionType(
                P("p", 21600, [(900, 900)]), P("p", 21600, [(0, 900)])
            )
            try:
                never.tick_bounds(0)
            except ValueError:
                pass
            else:
                raise SystemExit("tick_bounds(0) found a tick")
            assert never.tick_of(1000) is None
            assert never.period_info() is None
            """
        )
        package_root = os.path.dirname(os.path.dirname(repro.__file__))
        done = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=package_root),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr + done.stdout

    def test_operand_without_declared_period_bounds_the_walk(
        self, monkeypatch
    ):
        """A b-day with holidays declares no period, but its normal form
        is weekly after a short prefix: the walk counts one joint week
        from there and gives up, instead of walking all ``max_ticks``
        pairs (two million operand calls)."""
        bday = BusinessDayType(holidays=[3])
        weekend = PeriodicPatternType("weekend", 7 * D, [(5 * D, 2 * D)])
        assert bday.period_info() is None
        form = normalform.cached_normal_form(bday)
        assert form.period_seconds == 7 * D
        calls = []
        tick_bounds = bday.tick_bounds
        monkeypatch.setattr(
            bday, "tick_bounds", lambda i: calls.append(i) or tick_bounds(i)
        )
        never = IntersectionType(bday, weekend)
        with pytest.raises(ValueError):
            never.tick_bounds(0)
        # The prefix, then a week of b-days; each step of the walk reads
        # the b-day once, and a step advances one operand or both.
        assert len(calls) <= 2 * (len(form.prefix_firsts) + form.period_ticks)


class TestBusinessHours:
    def test_office_day_tick(self):
        office = business_hours(BusinessDayType())
        # Monday (day 0) 09:00-17:00.
        assert office.tick_bounds(0) == (9 * H, 17 * H - 1)
        assert office.tick_of(10 * H) == 0
        assert office.tick_of(8 * H) is None  # before opening
        assert office.tick_of(18 * H) is None  # after closing

    def test_weekend_uncovered(self):
        office = business_hours(BusinessDayType())
        saturday_ten_am = 5 * D + 10 * H
        assert office.tick_of(saturday_ten_am) is None
        # Friday is tick 4, Monday next week tick 5.
        assert office.tick_of(4 * D + 10 * H) == 4
        assert office.tick_of(7 * D + 10 * H) == 5

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError):
            business_hours(BusinessDayType(), 17, 9)

    def test_tcg_over_business_hours(self):
        """'within 2 office-hour days' as a TCG."""
        office = business_hours(BusinessDayType())
        constraint = TCG(0, 1, office)
        # Friday 16:00 to Monday 10:00 = consecutive office ticks.
        friday = 4 * D + 16 * H
        monday = 7 * D + 10 * H
        assert constraint.is_satisfied(friday, monday)
        tuesday = 8 * D + 10 * H
        assert not constraint.is_satisfied(friday, tuesday)

    def test_conversion_from_business_hours(self):
        system = standard_system()
        office = system.register(business_hours(BusinessDayType()))
        outcome = system.convert(1, 1, office, "day")
        # Consecutive office days: next calendar day, or Friday->Monday.
        assert outcome.interval == (1, 3)
        outcome_hours = system.convert(0, 0, office, "hour")
        assert outcome_hours.interval == (0, 7)  # within one office day
