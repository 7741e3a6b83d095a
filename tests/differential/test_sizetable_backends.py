"""Differential oracle: production size tables vs the window sweep.

A type that lowers gets the compiled table (periodic normal form,
closed-form minsize/maxsize/mingap, bisection tick conversion), which
is only allowed to exist because it is *exactly* equal to the sweep
reference wherever the sweep is exact - same table values, same search
answers, same conversion outcomes.  The sweep reference here is built
with a horizon of at least ``4 * period + 8`` so its exact region
covers every probed ``k`` (up to three periods); the compiled table is
exact for every ``k`` by construction.  System-level comparisons hold
``standard_system`` against :func:`.reference.sweep_system`.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata.builder import build_tag
from repro.automata.matching import TagMatcher
from repro.constraints import TCG, ComplexEventType, EventStructure
from repro.granularity import (
    BusinessDayType,
    CompiledSizeTable,
    ConversionCache,
    GranularitySystem,
    SizeTable,
    compile_normal_form,
    convert_interval,
    standard_system,
)
from repro.granularity.base import UniformType
from repro.granularity.normalform import cached_normal_form
from repro.granularity.periodic import PeriodicPatternType
from repro.mining.events import EventSequence

from .reference import Unlowered, sweep_system


# ----------------------------------------------------------------------
# Generated periodic types
# ----------------------------------------------------------------------
@st.composite
def periodic_types(draw):
    """Small random periodic pattern types (P <= 6 ticks per cycle)."""
    nseg = draw(st.integers(min_value=1, max_value=6))
    # 2*nseg distinct cut points make nseg disjoint ordered segments.
    cycle = draw(st.integers(min_value=2 * nseg, max_value=96))
    cuts = draw(
        st.lists(
            st.integers(min_value=0, max_value=cycle),
            min_size=2 * nseg,
            max_size=2 * nseg,
            unique=True,
        )
    )
    cuts.sort()
    segments = [
        (cuts[2 * i], cuts[2 * i + 1] - cuts[2 * i]) for i in range(nseg)
    ]
    phase = draw(st.integers(min_value=0, max_value=30))
    return PeriodicPatternType("gen", cycle, segments, phase=phase)


@st.composite
def uniform_types(draw):
    seconds = draw(st.integers(min_value=1, max_value=90))
    phase = draw(st.integers(min_value=0, max_value=45))
    return UniformType("genu", seconds, phase=phase)


def sweep_reference(ttype):
    """A sweep table whose exact region covers every probed k.

    The sweep extrapolates (soundly but inexactly) beyond
    ``horizon - period + 1``; probing k up to three periods plus the
    conversion bounds (k <= n + 1 <= 25 here) therefore needs
    ``horizon >= max(4P + 8, 32 + P)``.
    """
    period_ticks, _ = ttype.period_info()
    return SizeTable(
        ttype, horizon=max(4 * period_ticks + 8, 32 + period_ticks)
    )


def production_table(ttype):
    """The table a granularity system picks for ``ttype``."""
    return GranularitySystem([ttype], cache=ConversionCache()).table(ttype)


# The two ways to reach a fast table: "compiled" builds the
# CompiledSizeTable directly from a freshly compiled normal form,
# "auto" is the system's pick (the type's cached form when it lowers).
FAST_TABLES = {"compiled": CompiledSizeTable, "auto": production_table}


# ----------------------------------------------------------------------
# Table-value identity
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", list(FAST_TABLES))
class TestTablesExactlyEqual:
    @given(ttype=periodic_types(), data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_periodic_values_identical(self, backend, ttype, data):
        period_ticks, _ = ttype.period_info()
        reference = sweep_reference(ttype)
        compiled = FAST_TABLES[backend](ttype)
        assert compiled.backend == "compiled"
        k = data.draw(
            st.integers(min_value=1, max_value=3 * period_ticks),
            label="k",
        )
        assert compiled.minsize(k) == reference.minsize(k)
        assert compiled.maxsize(k) == reference.maxsize(k)
        assert compiled.mingap(k) == reference.mingap(k)

    @given(ttype=uniform_types(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_uniform_values_identical(self, backend, ttype, data):
        reference = sweep_reference(ttype)
        compiled = FAST_TABLES[backend](ttype)
        k = data.draw(st.integers(min_value=1, max_value=12), label="k")
        assert compiled.minsize(k) == reference.minsize(k)
        assert compiled.maxsize(k) == reference.maxsize(k)
        assert compiled.mingap(k) == reference.mingap(k)

    @given(ttype=periodic_types(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_searches_identical(self, backend, ttype, data):
        period_ticks, period_seconds = ttype.period_info()
        reference = sweep_reference(ttype)
        compiled = FAST_TABLES[backend](ttype)
        # Targets small enough that both searches resolve inside the
        # sweep's exact region (answers stay below ~3 periods of ticks).
        target = data.draw(
            st.integers(min_value=1, max_value=2 * period_seconds),
            label="target",
        )
        assert compiled.min_k_with_minsize_at_least(
            target
        ) == reference.min_k_with_minsize_at_least(target)
        assert compiled.min_k_with_maxsize_greater(
            target
        ) == reference.min_k_with_maxsize_greater(target)


# ----------------------------------------------------------------------
# Conversion identity (Figure 3 and the direct boundary scan)
# ----------------------------------------------------------------------
class TestConversionsExactlyEqual:
    @pytest.mark.parametrize("backend", list(FAST_TABLES))
    @given(
        ttype=periodic_types(),
        m=st.integers(min_value=0, max_value=12),
        span=st.integers(min_value=0, max_value=12),
        target_seconds=st.integers(min_value=1, max_value=60),
    )
    @settings(max_examples=100, deadline=None)
    def test_figure3_identical(
        self, backend, ttype, m, span, target_seconds
    ):
        target = UniformType("tgt", target_seconds)
        src_sweep = sweep_reference(ttype)
        tgt_sweep = sweep_reference(target)
        src_fast = FAST_TABLES[backend](ttype)
        tgt_fast = FAST_TABLES[backend](target)
        expected = convert_interval(m, m + span, src_sweep, tgt_sweep)
        actual = convert_interval(m, m + span, src_fast, tgt_fast)
        assert actual == expected

    @given(
        ttype=periodic_types(),
        m=st.integers(min_value=0, max_value=8),
        span=st.integers(min_value=0, max_value=8),
        mode=st.sampled_from(["direct", "figure3"]),
    )
    @settings(max_examples=100, deadline=None)
    def test_system_convert_identical(self, ttype, m, span, mode):
        sweep_sys = sweep_system(cache=ConversionCache())
        fast_sys = standard_system(cache=ConversionCache())
        for system in (sweep_sys, fast_sys):
            system.register(ttype)
        for source, target in (
            (ttype.label, "minute"),
            ("minute", ttype.label),
            (ttype.label, "hour"),
        ):
            expected = sweep_sys.convert(m, m + span, source, target, mode)
            actual = fast_sys.convert(m, m + span, source, target, mode)
            assert actual == expected, (source, target, mode)


# ----------------------------------------------------------------------
# tick_of / instant_of identity on exact-cover forms
# ----------------------------------------------------------------------
@given(ttype=periodic_types(), data=st.data())
@settings(max_examples=100, deadline=None)
def test_tick_conversion_identical(ttype, data):
    form = compile_normal_form(ttype)
    assert form.exact_cover
    _, period_seconds = ttype.period_info()
    second = data.draw(
        st.integers(min_value=0, max_value=4 * period_seconds + 60),
        label="second",
    )
    assert form.tick_of_instant(second) == ttype.tick_of(second)
    index = data.draw(st.integers(min_value=0, max_value=40), label="index")
    assert form.instant_of_tick(index) == ttype.tick_bounds(index)
    t1 = data.draw(
        st.integers(min_value=0, max_value=2 * period_seconds), label="t1"
    )
    t2 = data.draw(
        st.integers(min_value=0, max_value=2 * period_seconds), label="t2"
    )
    assert form.distance(t1, t2) == ttype.distance(t1, t2)


# ----------------------------------------------------------------------
# Exhaustive checks for the stock Gregorian/business types
# ----------------------------------------------------------------------
# Since the calendar-algebra compiler, every stock type lowers; the
# value is the period each is expected to lower *to*.
STOCK_EXPECTATIONS = {
    "second": 1,
    "minute": 1,
    "hour": 1,
    "day": 1,
    "week": 1,
    "month": 4800,
    "year": 400,
    "b-day": 5,
    "b-week": 1,
    "business-month": 4800,
}

# Types cheap enough for the exhaustive 3-period sweep comparison
# below (the 4800-tick Gregorian-cycle types are covered by the
# sampled Hypothesis suite in test_calendar_algebra.py instead).
SMALL_STOCK = ["second", "minute", "hour", "day", "week", "b-day"]


def test_stock_types_lower_exactly_as_expected():
    system = standard_system(cache=ConversionCache())
    for label, period_ticks in STOCK_EXPECTATIONS.items():
        form = cached_normal_form(system.get(label))
        assert form is not None, label
        assert form.period_ticks == period_ticks, label


@pytest.mark.parametrize("label", SMALL_STOCK)
def test_stock_types_exhaustively_identical(label):
    system = standard_system(cache=ConversionCache())
    ttype = system.get(label)
    period_ticks, _ = ttype.period_info()
    reference = sweep_reference(ttype)
    compiled = CompiledSizeTable(ttype)
    for k in range(1, 3 * period_ticks + 2):
        assert compiled.minsize(k) == reference.minsize(k), (label, k)
        assert compiled.maxsize(k) == reference.maxsize(k), (label, k)
        assert compiled.mingap(k) == reference.mingap(k), (label, k)
    form = compiled.form
    step = max(1, form.period_seconds // 97)
    for second in range(0, 2 * form.period_seconds, step):
        assert form.tick_of_instant(second) == ttype.tick_of(second), (
            label,
            second,
        )


def test_standard_system_conversions_identical_across_backends():
    """Every stock pair, both modes, a spread of intervals.

    Horizon 2600 keeps every search probe (worst case: years converted
    onto business days, ~2048 ticks) inside the sweep's exact region -
    beyond it the sweep *extrapolates* and the exact compiled values
    may legitimately produce tighter (still sound) intervals.
    """
    sweep_sys = sweep_system(cache=ConversionCache(), horizon=2600)
    fast_sys = standard_system(cache=ConversionCache(), horizon=2600)
    labels = sweep_sys.labels()
    for source in labels:
        for target in labels:
            if source == target:
                continue
            for m, n in ((0, 1), (1, 3), (2, 2)):
                for mode in ("direct", "figure3"):
                    expected = sweep_sys.convert(m, n, source, target, mode)
                    actual = fast_sys.convert(m, n, source, target, mode)
                    assert actual == expected, (source, target, m, n, mode)


# ----------------------------------------------------------------------
# Matcher-level identity: bisection clocks vs the types' own tick_of
# ----------------------------------------------------------------------
def _clock_cases():
    """(granularity, event spread in seconds) per clock shape."""
    day = 86_400
    bday = BusinessDayType(holidays=[3, 10, 11, 40, 61])
    window = PeriodicPatternType(
        "obs-window", 3600, [(i * 90, 40) for i in range(40)]
    )
    month = standard_system(cache=ConversionCache()).get("month")
    return {
        "month": (month, 3 * 366 * day),
        "b-day-holidays": (bday, 90 * day),
        "second-pattern": (window, 6 * 3600),
    }


@pytest.mark.parametrize("strict", [False, True], ids=["lazy", "strict"])
@pytest.mark.parametrize("case", ["month", "b-day-holidays", "second-pattern"])
def test_matcher_results_identical_over_unlowered(case, strict):
    """Strict and lazy matches over ``Unlowered(t)`` - the sweep table
    and the type's own ``tick_of`` - equal those over ``t`` itself."""
    granularity, spread = _clock_cases()[case]
    rng = random.Random(case)
    events = sorted(
        ((rng.choice("abc"), rng.randrange(0, spread)) for _ in range(400)),
        key=lambda event: event[1],
    )
    sequence = EventSequence(events)
    results = []
    for clock in (granularity, Unlowered(granularity)):
        system = GranularitySystem([clock], cache=ConversionCache())
        structure = EventStructure(
            ["X0", "X1", "X2"],
            {
                ("X0", "X1"): [TCG(0, 1, clock)],
                ("X1", "X2"): [TCG(1, 2, clock)],
            },
        )
        cet = ComplexEventType(structure, {"X0": "a", "X1": "b", "X2": "c"})
        matcher = TagMatcher(build_tag(cet, system=system), strict=strict)
        roots = list(matcher.matching_roots(sequence))
        bindings = [matcher.bindings_at(sequence, root) for root in roots]
        results.append((roots, bindings))
    assert results[0][0], "workload must match somewhere"
    assert results[0] == results[1]
