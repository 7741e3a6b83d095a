"""Temporal types (time granularities) and conversions between them.

This package implements Section 2 and appendix A.1 of the paper: the
formal model of granularities over a discrete absolute timeline, the
standard calendar and business-calendar types, size tables, and the
constraint-conversion algorithm of Figure 3.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "TemporalType": "base",
    "UniformType": "base",
    "DayBasedType": "base",
    "MonthType": "calendar",
    "YearType": "calendar",
    "BusinessDayType": "business",
    "BusinessWeekType": "business",
    "BusinessMonthType": "business",
    "GroupedType": "combinators",
    "FilteredType": "combinators",
    "ShiftedType": "combinators",
    "UnionType": "combinators",
    "NthSubgranuleType": "combinators",
    "FormBackedType": "algebra",
    "nf_group": "algebra",
    "nf_select": "algebra",
    "nf_shift": "algebra",
    "nf_union": "algebra",
    "nf_intersect": "algebra",
    "nf_nth_within": "algebra",
    "minimize_form": "algebra",
    "eventually_periodic_form": "algebra",
    "clock_ticks_of": "normalform",
    "explain_normal_form": "normalform",
    "SizeTable": "sizes",
    "CompiledSizeTable": "normalform",
    "PeriodicNormalForm": "normalform",
    "NormalFormError": "normalform",
    "compile_normal_form": "normalform",
    "ConversionOutcome": "conversion",
    "ConversionCache": "convcache",
    "global_conversion_cache": "convcache",
    "reset_global_conversion_cache": "convcache",
    "convert_interval": "conversion",
    "type_covers": "conversion",
    "GranularitySystem": "registry",
    "standard_system": "registry",
    "PeriodicPatternType": "periodic",
    "shifts": "periodic",
    "weekly_slots": "periodic",
    "parse_type": "parser",
    "GranularityParseError": "parser",
    "CustomCalendar": "customcal",
    "CustomMonthType": "customcal",
    "CustomYearType": "customcal",
    "thirteen_period_calendar": "customcal",
    "retail_445_calendar": "customcal",
    "IntersectionType": "intersection",
    "business_hours": "intersection",
    "finer_than": "relations",
    "groups_into": "relations",
    "partitions": "relations",
    "subgranularity": "relations",
    "second": "calendar",
    "minute": "calendar",
    "hour": "calendar",
    "day": "calendar",
    "week": "calendar",
    "month": "calendar",
    "year": "calendar",
    "business_day": "business",
    "business_week": "business",
    "business_month": "business",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
