"""Temporal types (time granularities) and conversions between them.

This package implements Section 2 and appendix A.1 of the paper: the
formal model of granularities over a discrete absolute timeline, the
standard calendar and business-calendar types, size tables, and the
constraint-conversion algorithm of Figure 3.
"""

from .base import DayBasedType, TemporalType, UniformType
from .business import (
    BusinessDayType,
    BusinessMonthType,
    BusinessWeekType,
    business_day,
    business_month,
    business_week,
)
from .calendar import (
    MonthType,
    YearType,
    day,
    hour,
    minute,
    month,
    second,
    week,
    year,
)
from .algebra import (
    FormBackedType,
    eventually_periodic_form,
    minimize_form,
    nf_group,
    nf_intersect,
    nf_nth_within,
    nf_select,
    nf_shift,
    nf_union,
)
from .combinators import (
    FilteredType,
    GroupedType,
    NthSubgranuleType,
    ShiftedType,
    UnionType,
)
from .convcache import (
    ConversionCache,
    global_conversion_cache,
    reset_global_conversion_cache,
)
from .conversion import ConversionOutcome, convert_interval, type_covers
from .customcal import (
    CustomCalendar,
    CustomMonthType,
    CustomYearType,
    retail_445_calendar,
    thirteen_period_calendar,
)
from .intersection import IntersectionType, business_hours
from .normalform import (
    CompiledSizeTable,
    NormalFormError,
    PeriodicNormalForm,
    clock_ticks_of,
    compile_normal_form,
    explain_normal_form,
)
from .parser import GranularityParseError, parse_type
from .periodic import PeriodicPatternType, shifts, weekly_slots
from .registry import GranularitySystem, standard_system
from .relations import finer_than, groups_into, partitions, subgranularity
from .sizes import SizeTable

__all__ = [
    "TemporalType",
    "UniformType",
    "DayBasedType",
    "MonthType",
    "YearType",
    "BusinessDayType",
    "BusinessWeekType",
    "BusinessMonthType",
    "GroupedType",
    "FilteredType",
    "ShiftedType",
    "UnionType",
    "NthSubgranuleType",
    "FormBackedType",
    "nf_group",
    "nf_select",
    "nf_shift",
    "nf_union",
    "nf_intersect",
    "nf_nth_within",
    "minimize_form",
    "eventually_periodic_form",
    "clock_ticks_of",
    "explain_normal_form",
    "SizeTable",
    "CompiledSizeTable",
    "PeriodicNormalForm",
    "NormalFormError",
    "compile_normal_form",
    "ConversionOutcome",
    "ConversionCache",
    "global_conversion_cache",
    "reset_global_conversion_cache",
    "convert_interval",
    "type_covers",
    "GranularitySystem",
    "standard_system",
    "PeriodicPatternType",
    "shifts",
    "weekly_slots",
    "parse_type",
    "GranularityParseError",
    "CustomCalendar",
    "CustomMonthType",
    "CustomYearType",
    "thirteen_period_calendar",
    "retail_445_calendar",
    "IntersectionType",
    "business_hours",
    "finer_than",
    "groups_into",
    "partitions",
    "subgranularity",
    "second",
    "minute",
    "hour",
    "day",
    "week",
    "month",
    "year",
    "business_day",
    "business_week",
    "business_month",
]
