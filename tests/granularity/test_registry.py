"""Tests for GranularitySystem registration and resolution."""

import pytest

from repro.granularity import (
    BusinessDayType,
    BusinessMonthType,
    GranularitySystem,
    GroupedType,
    UniformType,
    compile_normal_form,
    day,
    month,
    standard_system,
)
from repro.io.serialize import granularity_from_dict


class TestRegistration:
    def test_register_and_get(self):
        system = GranularitySystem([day()])
        assert system.get("day").label == "day"
        assert "day" in system
        assert "week" not in system

    def test_reregistering_same_label_is_noop(self):
        system = GranularitySystem([day()])
        again = system.register(day())
        assert again.label == "day"
        assert system.labels() == ["day"]

    def test_conflicting_label_rejected(self):
        system = GranularitySystem([day()])
        impostor = UniformType("day", 3600)
        with pytest.raises(ValueError):
            system.register(impostor)

    @pytest.mark.parametrize("holiday", [15, 800])
    def test_holiday_bday_conflicts_with_stock_bday(self, holiday):
        # Day 15 lies past the leading ticks a prefix comparison sees,
        # and day 800 past any probe window; neither may be dropped.
        with pytest.raises(ValueError):
            granularity_from_dict(
                {"kind": "businessday", "holidays": [holiday]},
                standard_system(),
            )

    def test_same_holidays_reregister_as_noop(self):
        system = standard_system(holidays=[15, 800])
        again = granularity_from_dict(
            {"kind": "businessday", "holidays": [800, 15]}, system
        )
        assert again is system.get("b-day")

    def test_business_month_with_interior_holiday_conflicts(self):
        # A mid-month holiday moves no business-month bound; only the
        # covered-set forms tell the two types apart.
        system = standard_system()
        holiday_month = BusinessMonthType(
            bday=BusinessDayType(label="hb-day", holidays=[15])
        )
        ours = compile_normal_form(holiday_month)
        stock = compile_normal_form(system.get("business-month"))
        assert (ours.prefix_firsts, ours.firsts, ours.lasts) == (
            stock.prefix_firsts,
            stock.firsts,
            stock.lasts,
        )
        with pytest.raises(ValueError):
            system.register(holiday_month)

    def test_structural_reregistration_compiles_nothing(self):
        # Propagation resolves a fresh ``second()`` on every call.
        system = GranularitySystem([day()])
        fresh = day()
        assert system.register(fresh) is system.get("day")
        assert "_normal_form_cache" not in vars(fresh)

    def test_resolve_accepts_type_or_label(self):
        system = GranularitySystem([month()])
        assert system.resolve("month").label == "month"
        grouped = GroupedType(month(), 3)
        resolved = system.resolve(grouped)
        assert resolved.label == "3-month"
        assert "3-month" in system

    def test_resolve_rejects_other_objects(self):
        system = GranularitySystem()
        with pytest.raises(TypeError):
            system.resolve(42)

    def test_unknown_label_raises(self):
        system = GranularitySystem()
        with pytest.raises(KeyError):
            system.get("nope")

    def test_bad_conversion_mode_rejected(self):
        with pytest.raises(ValueError):
            GranularitySystem(conversion_mode="psychic")


class TestStandardSystem:
    def test_contains_paper_types(self, system):
        assert set(
            [
                "second",
                "minute",
                "hour",
                "day",
                "week",
                "month",
                "year",
                "b-day",
                "b-week",
                "business-month",
            ]
        ) <= set(system.labels())

    def test_holidays_flow_into_business_types(self):
        system = standard_system(holidays=[2])
        bday = system.get("b-day")
        assert bday.tick_of(2 * 86400) is None

    def test_tables_are_cached(self, system):
        assert system.table("month") is system.table("month")

    def test_feasibility_is_cached(self, system):
        first = system.conversion_feasible("day", "b-day")
        second = system.conversion_feasible("day", "b-day")
        assert first is second is False

    def test_same_label_feasible(self, system):
        assert system.conversion_feasible("day", "day")
