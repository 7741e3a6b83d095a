"""Executable summary of the paper-fidelity claims (see EXPERIMENTS.md).

One compact module asserting the headline paper numbers and behaviours,
so a reviewer can confirm the reproduction with a single test file:

    pytest tests/test_paper_fidelity.py -v
"""

import pytest

from repro.constraints import TCG, ComplexEventType, propagate
from repro.granularity import standard_system
from repro.granularity.gregorian import SECONDS_PER_DAY, SECONDS_PER_HOUR

from benchmarks.harness import figure_1a, figure_1b

D, H = SECONDS_PER_DAY, SECONDS_PER_HOUR


class TestSection2:
    def test_temporal_types_with_gaps_and_noncontiguous_ticks(self):
        system = standard_system()
        bday = system.get("b-day")
        bmonth = system.get("business-month")
        saturday = 5 * D
        assert bday.tick_of(saturday) is None  # gap
        first, last = bmonth.tick_bounds(0)
        assert first <= saturday <= last  # inside the bounds ...
        assert bmonth.tick_of(saturday) is None  # ... yet not a member

    def test_ceil_undefined_cases(self):
        """'ceil z month/week is undefined if week z falls between two
        months' - the analogous business-day case."""
        system = standard_system()
        assert system.get("b-day").tick_of(5 * D) is None


class TestSection3:
    def test_one_day_is_not_86400_seconds(self):
        system = standard_system()
        same_day = TCG(0, 0, system.get("day"))
        in_seconds = TCG(0, D - 1, system.get("second"))
        t1, t2 = 23 * H, D + 4 * H  # the paper's 11pm -> 4am example
        assert in_seconds.is_satisfied(t1, t2)
        assert not same_day.is_satisfied(t1, t2)

    def test_month_to_day_uses_28_and_31(self):
        """Appendix A.1: 'from month to day, for the lower bound we use
        28 days as a month, and for the upper bound ... 31 days'."""
        system = standard_system()
        table = system.table("month")
        assert table.minsize(1) == 28 * D
        assert table.maxsize(1) == 31 * D


class TestSection51WorkedNumbers:
    def test_gamma_prime_hour_bound_six_day_week(self):
        """Gamma'(X0,X3) contains [1,175]hour - exact under Mon-Sat."""
        system = standard_system(workdays=(0, 1, 2, 3, 4, 5))
        result = propagate(figure_1a(system), system)
        assert result.interval("X0", "X3", "hour") == (1, 175)

    def test_gamma_prime_week_hull_is_sound(self):
        """Propagation derives a sound convex hull containing the
        paper's [0,1]week (the exact hull {0,1} is verified by the X1
        benchmark's exact enumeration)."""
        system = standard_system(workdays=(0, 1, 2, 3, 4, 5))
        result = propagate(figure_1a(system), system)
        lo, hi = result.interval("X0", "X3", "week")
        assert lo == 0 and hi >= 1


class TestFigure1b:
    def test_disjunction_hull(self):
        system = standard_system()
        result = propagate(figure_1b(system), system)
        assert result.consistent  # sound: the gadget is satisfiable
        assert result.interval("X0", "X2", "month") == (0, 12)


class TestFigure2:
    def test_tag_shape(self):
        from repro.automata import build_tag

        system = standard_system()
        cet = ComplexEventType(
            figure_1a(system),
            {
                "X0": "ibm-rise",
                "X1": "ibm-rep",
                "X2": "hp-rise",
                "X3": "ibm-fall",
            },
        )
        build = build_tag(cet)
        assert len(build.chains) == 2
        assert len(build.tag.states) == 6


class TestTheorem1:
    def test_reduction_decides_coprime_subset_sum(self):
        from repro.hardness import SubsetSumInstance, decide_via_reduction

        system = standard_system()
        yes = decide_via_reduction(SubsetSumInstance((3, 5), 8), system)
        no = decide_via_reduction(SubsetSumInstance((3, 5), 7), system)
        assert yes.completed and yes.consistent
        assert no.completed and not no.consistent
        assert no.nodes_explored > 10 * yes.nodes_explored  # exponential tell

    def test_errata_counterexample(self):
        from repro.hardness import (
            SubsetSumInstance,
            crt_compatible_subset_exists,
            has_subset_sum,
        )

        instance = SubsetSumInstance((2, 3, 4), 9)
        assert has_subset_sum(instance)
        assert not crt_compatible_subset_exists(instance)


class TestTheorem2:
    def test_sound_terminating_fast(self):
        system = standard_system()
        result = propagate(figure_1a(system), system)
        assert result.consistent
        assert result.iterations <= 6  # tiny fixpoint in practice
