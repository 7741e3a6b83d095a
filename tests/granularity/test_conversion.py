"""Tests for constraint conversion between granularities.

The central property (both conversion strategies): conversions are
**implied constraints** - any timestamp pair satisfying the source TCG
satisfies the converted TCG.  Verified here by hypothesis-driven
sampling of satisfying pairs.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.constraints import TCG
from repro.granularity import standard_system
from repro.granularity.conversion import type_covers
from repro.granularity.gregorian import SECONDS_PER_DAY

SYSTEM = standard_system()
SYSTEM_F3 = standard_system(conversion_mode="figure3")

#: (source, target) pairs for which conversion is feasible.
FEASIBLE_PAIRS = [
    ("hour", "day"),
    ("hour", "week"),
    ("hour", "month"),
    ("day", "week"),
    ("day", "month"),
    ("day", "year"),
    ("week", "month"),
    ("month", "week"),
    ("month", "year"),
    ("year", "month"),
    ("b-day", "day"),
    ("b-day", "week"),
    ("b-day", "hour"),
    ("b-day", "month"),
    ("b-week", "week"),
    ("business-month", "month"),
    ("month", "day"),
    ("week", "hour"),
]


class TestFeasibility:
    def test_total_target_always_covers(self):
        assert SYSTEM.conversion_feasible("b-day", "second")
        assert SYSTEM.conversion_feasible("month", "minute")

    def test_gap_target_rejects_total_source(self):
        assert not SYSTEM.conversion_feasible("hour", "b-day")
        assert not SYSTEM.conversion_feasible("day", "b-day")
        assert not SYSTEM.conversion_feasible("week", "b-week")

    def test_bday_into_bweek_feasible(self):
        # Every business day lies in a business week.
        assert SYSTEM.conversion_feasible("b-day", "b-week")

    def test_type_covers_detects_weekend_gap(self):
        assert not type_covers(SYSTEM.get("b-day"), SYSTEM.get("hour"))
        assert type_covers(SYSTEM.get("week"), SYSTEM.get("b-day"))

    @pytest.mark.parametrize("src,tgt", FEASIBLE_PAIRS)
    def test_declared_pairs_feasible(self, src, tgt):
        assert SYSTEM.conversion_feasible(src, tgt)


def _sample_satisfying_pair(source, m, n, base_seed):
    """Deterministically build (t1, t2) satisfying [m, n]_source."""
    tick1 = base_seed % 200
    distance = m + (base_seed // 200) % (n - m + 1)
    first1, last1 = source.tick_bounds(tick1)
    first2, last2 = source.tick_bounds(tick1 + distance)
    # Pick covered instants inside the ticks (bounds are always covered).
    t1 = last1 if base_seed % 2 else first1
    t2 = first2 if base_seed % 3 else last2
    if t2 < t1:
        t1, t2 = first1, last2
    return t1, t2


@pytest.mark.parametrize("mode,system", [("direct", SYSTEM), ("figure3", SYSTEM_F3)])
@pytest.mark.parametrize("src_label,tgt_label", FEASIBLE_PAIRS)
@given(
    m=st.integers(min_value=0, max_value=12),
    span=st.integers(min_value=0, max_value=12),
    base_seed=st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=25, deadline=None)
def test_conversion_is_implied(mode, system, src_label, tgt_label, m, span, base_seed):
    """Soundness: satisfying pairs of the source satisfy the target."""
    source = system.get(src_label)
    target = system.get(tgt_label)
    n = m + span
    outcome = system.convert(m, n, source, target)
    assume(outcome.interval is not None)
    assert not outcome.empty
    t1, t2 = _sample_satisfying_pair(source, m, n, base_seed)
    source_tcg = TCG(m, n, source)
    assume(source_tcg.is_satisfied(t1, t2))
    lo, hi = outcome.interval
    target_tcg = TCG(lo, hi, target)
    assert target_tcg.is_satisfied(t1, t2), (
        "pair (%d, %d) satisfies %s but not converted %s"
        % (t1, t2, source_tcg, target_tcg)
    )


class TestKnownConversions:
    """Hand-checked conversions, including the paper's examples."""

    def test_same_granularity_identity(self):
        outcome = SYSTEM.convert(2, 5, "day", "day")
        assert outcome.interval == (2, 5)

    def test_day_zero_zero_to_seconds(self):
        # The paper: [0,0]day implies second distances 0..86399, and the
        # implied constraint is [0, 86399]second (strictly weaker).
        outcome = SYSTEM.convert(0, 0, "day", "second")
        assert outcome.interval == (0, SECONDS_PER_DAY - 1)

    def test_consecutive_bdays_in_hours(self):
        # [1,1]b-day: as close as adjacent midnight hours, as far as
        # Friday 00h .. Monday 23h = 95 hours.
        outcome = SYSTEM.convert(1, 1, "b-day", "hour")
        assert outcome.interval == (1, 95)

    def test_five_bdays_in_hours(self):
        outcome = SYSTEM.convert(0, 5, "b-day", "hour")
        assert outcome.interval == (0, 191)

    def test_month_to_day_uses_28_and_31(self):
        outcome = SYSTEM.convert(1, 1, "month", "day")
        lo, hi = outcome.interval
        assert lo == 1
        assert hi == 61  # first of a 31-day month to last of the next

    def test_next_month_bounds(self):
        outcome = SYSTEM.convert(1, 2, "month", "week")
        lo, hi = outcome.interval
        assert lo >= 0
        assert hi >= 8  # two 31-day months span at least 8 week ticks

    def test_figure3_weaker_or_equal_direct(self):
        for (m, n) in [(0, 0), (1, 1), (0, 5), (2, 7)]:
            direct = SYSTEM.convert(m, n, "b-day", "hour").interval
            table = SYSTEM_F3.convert(m, n, "b-day", "hour").interval
            assert direct is not None and table is not None
            assert table[0] <= direct[0]
            assert table[1] >= direct[1]

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError):
            SYSTEM.convert(3, 1, "day", "week")
        with pytest.raises(ValueError):
            SYSTEM.convert(-1, 1, "day", "week")

    def test_infeasible_conversion_yields_none(self):
        outcome = SYSTEM.convert(0, 1, "day", "b-day")
        assert outcome.interval is None

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            SYSTEM.convert(0, 1, "day", "week", mode="magic")

    def test_conversions_are_cached(self):
        fresh = standard_system()
        first = fresh.convert(0, 3, "day", "week")
        second = fresh.convert(0, 3, "day", "week")
        assert first is second


class TestGuardsAndFallbacks:
    def test_refusal_when_target_scan_too_costly(self):
        """A non-total 1-second-aligned target with a 97 s period: its
        phase leaves instant 0, which ``day`` covers, uncovered, so
        coverage read off the normal forms refuses the conversion."""
        from repro.granularity import UniformType

        system = standard_system()
        awkward = system.register(UniformType("offbeat", 97, phase=1))
        assert not system.conversion_feasible("day", "offbeat")
        assert system.convert(0, 1, "day", "offbeat").interval is None

    def test_direct_falls_back_beyond_horizon(self):
        """Ranges wider than the boundary-scan horizon use the sound
        Figure 3 tables instead of failing."""
        system = standard_system()
        outcome = system.convert(0, 600, "day", "week")
        assert outcome.interval is not None
        lo, hi = outcome.interval
        assert lo == 0
        assert hi >= 86  # 601 days span at least 85 week boundaries

        # Soundness spot check on a concrete satisfying pair.
        pair = TCG(0, 600, system.get("day"))
        target = TCG(lo, hi, system.get("week"))
        t1, t2 = 0, 600 * SECONDS_PER_DAY
        assert pair.is_satisfied(t1, t2)
        assert target.is_satisfied(t1, t2)
