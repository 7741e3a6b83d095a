"""Unit tests for the periodic normal-form compiler and the table and
clock each type chooses by it."""

import os
import pickle

import pytest

from repro.bench.reference import SweepSystem, Unlowered
from repro.granularity import (
    CompiledSizeTable,
    ConversionCache,
    GranularitySystem,
    NormalFormError,
    PeriodicNormalForm,
    SizeTable,
    compile_normal_form,
    standard_system,
)
from repro.granularity import normalform
from repro.granularity.base import UniformType
from repro.granularity.combinators import FilteredType, GroupedType
from repro.granularity.normalform import (
    cached_normal_form,
    clock_distance,
    clock_form,
    clock_tick_of,
)
from repro.granularity.periodic import PeriodicPatternType
from repro.granularity.sizes import BoundedMemo


def table_of(ttype):
    """The size table a fresh granularity system picks for ``ttype``."""
    return GranularitySystem([ttype], cache=ConversionCache()).table(ttype)


class TestCompiler:
    def test_uniform_is_structural(self):
        form = compile_normal_form(UniformType("u", 60, phase=7))
        assert form.source == "structural"
        assert form.period_ticks == 1
        assert form.period_seconds == 60
        assert form.exact_cover
        assert form.firsts == (7,)

    def test_periodic_pattern_is_structural(self):
        ttype = PeriodicPatternType("p", 100, [(10, 20), (50, 5)], phase=3)
        form = compile_normal_form(ttype)
        assert form.source == "structural"
        assert form.period_ticks == 2
        assert form.period_instants == 25
        assert form.exact_cover

    def test_gap_runs_account_for_uncovered_seconds(self):
        ttype = PeriodicPatternType("p", 100, [(10, 20), (50, 5)])
        form = compile_normal_form(ttype)
        assert sum(length for _, length in form.gap_runs) == 75
        info = form.describe()
        assert info["gap_seconds"] == 75
        assert info["period_instants"] == 25

    def test_business_day_is_algebraic_and_exact(self):
        system = standard_system(cache=ConversionCache())
        form = compile_normal_form(system.get("b-day"))
        assert form.source == "algebra"
        assert form.rule == "business-overlay"
        assert form.period_ticks == 5
        assert form.exact_cover

    def test_month_lowers_via_gregorian_cycle(self):
        system = standard_system(cache=ConversionCache())
        form = compile_normal_form(system.get("month"))
        assert form.source == "algebra"
        assert form.rule == "gregorian-cycle"
        assert form.period_ticks == 4800
        assert form.period_seconds == 146097 * 86400
        assert form.prefix_ticks == 0
        assert form.exact_cover

    def test_year_lowers_via_gregorian_cycle(self):
        system = standard_system(cache=ConversionCache())
        form = compile_normal_form(system.get("year"))
        assert form.rule == "gregorian-cycle"
        assert form.period_ticks == 400
        assert form.exact_cover

    def test_filtered_type_does_not_lower(self):
        base = UniformType("u", 10)
        filtered = FilteredType(base, lambda index: index % 2 == 0, "even")
        with pytest.raises(NormalFormError):
            compile_normal_form(filtered)

    def test_grouped_over_gappy_base_is_not_exact_cover(self):
        base = PeriodicPatternType("b", 50, [(0, 10), (25, 10)])
        grouped = GroupedType(base, 2, label="g2")
        form = compile_normal_form(grouped)
        assert not form.exact_cover

    def test_cached_normal_form_memoizes_on_instance(self):
        ttype = UniformType("u", 10)
        first = cached_normal_form(ttype)
        assert cached_normal_form(ttype) is first

    def test_cached_normal_form_none_for_non_lowering(self):
        base = UniformType("u", 10)
        filtered = FilteredType(base, lambda index: index % 2 == 0, "even")
        assert cached_normal_form(filtered) is None

    def test_over_budget_type_does_not_compile(self, monkeypatch):
        monkeypatch.setattr(normalform, "MAX_PERIOD_TICKS", 16)
        system = standard_system(cache=ConversionCache())
        with pytest.raises(NormalFormError) as excinfo:
            compile_normal_form(system.get("month"))
        assert excinfo.value.reason == "over-budget"

    def test_stock_forms_equal_their_minimized_lowering(self):
        """Skipping the minimization pass for one-granule structural
        forms changes no stock type's form in any field."""
        from repro.granularity.algebra import lower_algebraic, minimize_form

        system = standard_system(cache=ConversionCache())
        for label in system.labels():
            ttype = system.get(label)
            lowered = normalform._structural_form(ttype)
            if lowered is None:
                lowered = lower_algebraic(ttype)
            assert compile_normal_form(ttype) == minimize_form(lowered)
        pattern = PeriodicPatternType("p", 100, [(0, 10), (50, 10)])
        assert compile_normal_form(pattern).period_ticks == 1

    def test_forms_are_picklable(self):
        form = compile_normal_form(
            PeriodicPatternType("p", 60, [(0, 20), (30, 10)])
        )
        clone = pickle.loads(pickle.dumps(form))
        assert clone == form
        assert clone.gap_runs == form.gap_runs


class TestPrefixForms:
    """Aperiodic-prefix handling via hand-built normal forms."""

    def form(self):
        # Prefix: one irregular tick [0, 4]; then period 2 ticks / 20 s
        # starting at 10: [10,12], [15,19] then [30,32], [35,39] ...
        return PeriodicNormalForm(
            label="pfx",
            period_ticks=2,
            period_seconds=20,
            firsts=(10, 15),
            lasts=(12, 19),
            prefix_firsts=(0,),
            prefix_lasts=(4,),
            exact_cover=False,
        )

    def test_instant_of_tick(self):
        form = self.form()
        assert form.instant_of_tick(0) == (0, 4)
        assert form.instant_of_tick(1) == (10, 12)
        assert form.instant_of_tick(2) == (15, 19)
        assert form.instant_of_tick(3) == (30, 32)
        assert form.instant_of_tick(4) == (35, 39)

    def test_tick_of_instant(self):
        form = self.form()
        assert form.tick_of_instant(0) == 0
        assert form.tick_of_instant(4) == 0
        assert form.tick_of_instant(5) is None
        assert form.tick_of_instant(11) == 1
        assert form.tick_of_instant(19) == 2
        assert form.tick_of_instant(31) == 3
        assert form.tick_of_instant(36) == 4
        assert form.tick_of_instant(13) is None

    def test_size_queries_match_a_sweeping_reference(self):
        form = self.form()

        from repro.granularity.base import TemporalType

        class _FormBacked(TemporalType):
            """A type realising exactly the hand-built form's ticks."""

            label = "pfx"

            def tick_bounds(self, index):
                return form.instant_of_tick(index)

            def tick_of(self, second):
                return form.tick_of_instant(second)

            def period_info(self):
                return None

        ttype = _FormBacked()
        reference = SizeTable(ttype, horizon=64)
        compiled = CompiledSizeTable(ttype, form=form)
        # horizon 64 over a 2-tick period: exact up to n/2 = 32 probes
        # for a type with no declared period.
        for k in range(1, 12):
            assert compiled.minsize(k) == reference.minsize(k), k
            assert compiled.maxsize(k) == reference.maxsize(k), k
            assert compiled.mingap(k) == reference.mingap(k), k

    def test_validation_rejects_overlapping_prefix(self):
        with pytest.raises(ValueError):
            PeriodicNormalForm(
                label="bad",
                period_ticks=1,
                period_seconds=10,
                firsts=(0,),
                lasts=(4,),
                prefix_firsts=(0,),
                prefix_lasts=(5,),
            )

    def test_validation_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            PeriodicNormalForm(
                label="bad",
                period_ticks=1,
                period_seconds=10,
                firsts=(5,),
                lasts=(3,),
            )

    def test_validation_rejects_window_exceeding_period(self):
        with pytest.raises(ValueError):
            PeriodicNormalForm(
                label="bad",
                period_ticks=1,
                period_seconds=10,
                firsts=(0,),
                lasts=(10,),
            )


class TestBuildSizeTable:
    """The type chooses: compiled when it lowers, the sweep otherwise."""

    def test_sweep_backend(self):
        table = SweepSystem([UniformType("u", 10)]).table("u")
        assert isinstance(table, SizeTable)
        assert table.backend == "sweep"

    def test_auto_compiles_when_possible(self):
        table = table_of(UniformType("u", 10))
        assert isinstance(table, CompiledSizeTable)
        assert table.backend == "compiled"

    def test_auto_falls_back_to_sweep(self, monkeypatch):
        monkeypatch.setattr(normalform, "MAX_PERIOD_TICKS", 16)
        system = standard_system(cache=ConversionCache())
        table = system.table("month")
        assert isinstance(table, SizeTable)
        assert table.backend == "sweep"

    def test_backend_is_compiled_exactly_when_the_type_lowers(self):
        system = standard_system(cache=ConversionCache())
        system.register(
            FilteredType(UniformType("u", 10), lambda i: i % 2, "odd")
        )
        system.register(GroupedType(system.get("month"), 3, label="quarter"))
        system.register(Unlowered(UniformType("bare", 60)))
        backends = {}
        for label in system.labels():
            ttype = system.get(label)
            lowers = cached_normal_form(ttype) is not None
            backends[label] = system.table(ttype).backend
            assert backends[label] == ("compiled" if lowers else "sweep")
        assert backends["quarter"] == "compiled"
        assert backends["odd"] == backends["bare"] == "sweep"

    def test_probe_stats_shape(self):
        table = table_of(UniformType("u", 10))
        table.minsize(3)
        table.minsize(3)
        stats = table.probe_stats()
        assert stats["backend"] == "compiled"
        assert stats["probes"] == 2
        assert stats["memo_hits"] == 1
        assert stats["compiled_hits"] == 1
        assert "memo_evictions" in stats


class TestMemoBounds:
    def test_bounded_memo_evicts_lru(self):
        memo = BoundedMemo(2)
        memo.put(1, "a")
        memo.put(2, "b")
        assert memo.get(1) == "a"  # 1 becomes most recent
        memo.put(3, "c")  # evicts 2
        assert memo.get(2) is None
        assert memo.get(1) == "a"
        assert memo.evictions == 1
        assert len(memo) == 2

    def test_sweep_table_memo_is_bounded(self):
        table = SizeTable(UniformType("u", 10), memo_entries=4)
        for k in range(1, 10):
            table.minsize(k)
        assert table.memo_evictions > 0
        assert table.probe_stats()["memo_evictions"] == table.memo_evictions

    def test_compiled_table_memo_is_bounded(self):
        # Varying segment lengths so the minimization pass cannot
        # reduce the period below 10 ticks.
        ttype = PeriodicPatternType(
            "p", 100, [(i * 10, i % 3 + 1) for i in range(10)]
        )
        table = CompiledSizeTable(ttype, memo_entries=4)
        for k in range(1, 10):
            table.minsize(k)
        assert table.memo_evictions > 0


class TestClockRouting:
    def test_clock_form_none_under_sweep(self):
        # The sweep reference's clock route: a type that does not lower
        # has no clock form, so its own tick_of answers.
        assert clock_form(Unlowered(UniformType("u", 10))) is None
        assert clock_form(UniformType("u", 10)) is not None

    def test_clock_form_none_without_exact_cover(self):
        base = PeriodicPatternType("b", 50, [(0, 10), (25, 10)])
        grouped = GroupedType(base, 2, label="g2")
        assert clock_form(grouped) is None

    def test_clock_helpers_match_type_methods(self):
        ttype = PeriodicPatternType("p", 60, [(0, 20), (30, 10)])
        for clock in (ttype, Unlowered(ttype)):
            for second in range(0, 200, 7):
                assert clock_tick_of(clock, second) == ttype.tick_of(
                    second
                ), (clock, second)
            assert clock_distance(clock, 5, 95) == ttype.distance(5, 95)

    def test_clock_form_reads_no_environment(self, monkeypatch):
        reads = []

        class _Environ(dict):
            def get(self, key, default=None):
                reads.append(key)
                return super().get(key, default)

        ttype = UniformType("u", 10)
        clock_form(ttype)  # compile outside the watched region
        monkeypatch.setattr(os, "environ", _Environ(os.environ))
        for second in range(0, 100, 3):
            clock_tick_of(ttype, second)
        clock_distance(ttype, 0, 95)
        assert reads == []
