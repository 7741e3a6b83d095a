"""Tests for the TAG matcher, including TAG-vs-reference equivalence."""

import random

import pytest

from repro.automata import TagMatcher, build_tag
from repro.automata.structmatch import count_occurrences, find_occurrence
from repro.constraints import TCG, ComplexEventType, EventStructure
from repro.granularity import day, hour, week
from repro.granularity.gregorian import SECONDS_PER_DAY, SECONDS_PER_HOUR
from repro.mining.events import Event, EventSequence


@pytest.fixture
def example1_cet(figure_1a):
    return ComplexEventType(
        figure_1a,
        {
            "X0": "IBM-rise",
            "X1": "IBM-earnings-report",
            "X2": "HP-rise",
            "X3": "IBM-fall",
        },
    )


def example1_positive_sequence():
    """A hand-built realisation of Example 1 with noise sprinkled in.

    Day 0 is a Monday: X0 Monday 09:00, X1 Tuesday 10:00 (next b-day),
    X2 Wednesday 11:00 (within 5 b-days of X0), X3 Wednesday 15:00
    (within 8 hours of X2, same week as X1).
    """
    D, H = SECONDS_PER_DAY, SECONDS_PER_HOUR
    return EventSequence(
        [
            Event("NOISE", 0),
            Event("IBM-rise", 9 * H),
            Event("HP-fall", 12 * H),
            Event("IBM-earnings-report", D + 10 * H),
            Event("NOISE", D + 12 * H),
            Event("HP-rise", 2 * D + 11 * H),
            Event("IBM-fall", 2 * D + 15 * H),
        ]
    )


class TestExample1Matching:
    def test_positive(self, example1_cet):
        matcher = TagMatcher(build_tag(example1_cet))
        seq = example1_positive_sequence()
        result = matcher.match_from(seq, 1)
        assert result.matched
        assert result.bindings["X0"] == 9 * SECONDS_PER_HOUR

    def test_negative_late_fall(self, example1_cet):
        D, H = SECONDS_PER_DAY, SECONDS_PER_HOUR
        seq = EventSequence(
            [
                Event("IBM-rise", 9 * H),
                Event("IBM-earnings-report", D + 10 * H),
                Event("HP-rise", 2 * D + 11 * H),
                Event("IBM-fall", 2 * D + 21 * H),  # 10h after HP-rise
            ]
        )
        matcher = TagMatcher(build_tag(example1_cet))
        assert not matcher.occurs_at(seq, 0)

    def test_negative_weekend_root(self, example1_cet):
        """A root on Saturday is uncovered by b-day: no match."""
        D, H = SECONDS_PER_DAY, SECONDS_PER_HOUR
        seq = EventSequence(
            [
                Event("IBM-rise", 5 * D + 9 * H),  # Saturday
                Event("IBM-earnings-report", 7 * D + 10 * H),
                Event("HP-rise", 7 * D + 11 * H),
                Event("IBM-fall", 7 * D + 15 * H),
            ]
        )
        matcher = TagMatcher(build_tag(example1_cet))
        assert not matcher.occurs_at(seq, 0)

    def test_wrong_root_type(self, example1_cet):
        seq = example1_positive_sequence()
        matcher = TagMatcher(build_tag(example1_cet))
        assert not matcher.occurs_at(seq, 0)  # NOISE event

    def test_count_and_accepts(self, example1_cet):
        seq = example1_positive_sequence()
        matcher = TagMatcher(build_tag(example1_cet))
        assert matcher.count_occurrences(seq) == 1
        assert matcher.accepts(seq)

    def test_agrees_with_reference(self, example1_cet):
        seq = example1_positive_sequence()
        matcher = TagMatcher(build_tag(example1_cet))
        for index in range(len(seq)):
            assert matcher.occurs_at(seq, index) == (
                find_occurrence(example1_cet, seq, index) is not None
            )


class TestHorizon:
    def test_horizon_stops_early(self, example1_cet):
        seq = example1_positive_sequence()
        bounded = TagMatcher(
            build_tag(example1_cet), horizon_seconds=14 * SECONDS_PER_DAY
        )
        unbounded = TagMatcher(build_tag(example1_cet))
        assert bounded.occurs_at(seq, 1) == unbounded.occurs_at(seq, 1)
        # A horizon of one hour cuts the scan but keeps soundness for
        # a pattern that needs days: simply no match.
        tight = TagMatcher(build_tag(example1_cet), horizon_seconds=3600)
        result = tight.match_from(seq, 1)
        assert not result.matched
        assert result.events_scanned < len(seq)


class TestRandomEquivalence:
    """The TAG product construction must agree with binding semantics.

    Random chains and diamonds over random granularities, random noise
    sequences with strictly increasing timestamps (ties are the
    documented incompleteness of linear-scan matching).
    """

    def _random_structure(self, rng, system):
        labels = ["hour", "day", "week", "b-day"]
        shape = rng.choice(["chain3", "chain4", "diamond"])
        grab = lambda: system.get(rng.choice(labels))
        bounds = lambda: (
            lambda m: (m, m + rng.randrange(0, 4))
        )(rng.randrange(0, 3))
        if shape == "chain3":
            names = ["A", "B", "C"]
            arcs = [("A", "B"), ("B", "C")]
        elif shape == "chain4":
            names = ["A", "B", "C", "D"]
            arcs = [("A", "B"), ("B", "C"), ("C", "D")]
        else:
            names = ["A", "B", "C", "D"]
            arcs = [("A", "B"), ("A", "C"), ("B", "D"), ("C", "D")]
        constraints = {}
        for arc in arcs:
            m, n = bounds()
            constraints[arc] = [TCG(m, n, grab())]
        return EventStructure(names, constraints)

    def _random_sequence(self, rng, types, length):
        times = sorted(
            rng.sample(range(0, 21 * SECONDS_PER_DAY, 900), length)
        )
        return EventSequence(
            Event(rng.choice(types), t) for t in times
        )

    @pytest.mark.parametrize("seed", range(12))
    def test_tag_equals_reference(self, system, seed):
        rng = random.Random(seed)
        structure = self._random_structure(rng, system)
        types = ["e%d" % i for i in range(3)]
        assignment = {
            v: rng.choice(types) for v in structure.variables
        }
        cet = ComplexEventType(structure, assignment)
        matcher = TagMatcher(build_tag(cet))
        sequence = self._random_sequence(rng, types, 40)
        for index in range(len(sequence)):
            tag_says = matcher.occurs_at(sequence, index)
            ref_says = find_occurrence(cet, sequence, index) is not None
            assert tag_says == ref_says, (
                "disagreement at %d (seed %d): tag=%s ref=%s on %r"
                % (index, seed, tag_says, ref_says, structure)
            )

    @pytest.mark.parametrize("seed", range(12, 16))
    def test_counts_agree(self, system, seed):
        rng = random.Random(seed)
        structure = self._random_structure(rng, system)
        types = ["e%d" % i for i in range(2)]  # heavy type collisions
        assignment = {v: rng.choice(types) for v in structure.variables}
        cet = ComplexEventType(structure, assignment)
        matcher = TagMatcher(build_tag(cet))
        sequence = self._random_sequence(rng, types, 30)
        assert matcher.count_occurrences(sequence) == count_occurrences(
            cet, sequence
        )


class TestStrictMode:
    def test_strict_kills_on_uncovered_skip(self, system):
        """An irrelevant Saturday event kills strict runs of a b-day
        pattern but not lazy ones - the documented divergence."""
        bday = system.get("b-day")
        structure = EventStructure(
            ["A", "B"], {("A", "B"): [TCG(0, 3, bday)]}
        )
        cet = ComplexEventType(structure, {"A": "a", "B": "b"})
        D = SECONDS_PER_DAY
        seq = EventSequence(
            [
                Event("a", 4 * D),        # Friday
                Event("noise", 5 * D),    # Saturday: gap in b-day
                Event("b", 7 * D),        # Monday
            ]
        )
        lazy = TagMatcher(build_tag(cet), strict=False)
        strict = TagMatcher(build_tag(cet), strict=True)
        assert lazy.occurs_at(seq, 0)
        assert not strict.occurs_at(seq, 0)

    def test_strict_equals_lazy_after_reduction(self, system):
        """On sequences with only covered timestamps the two coincide."""
        bday = system.get("b-day")
        structure = EventStructure(
            ["A", "B"], {("A", "B"): [TCG(0, 3, bday)]}
        )
        cet = ComplexEventType(structure, {"A": "a", "B": "b"})
        D = SECONDS_PER_DAY
        seq = EventSequence(
            [Event("a", 4 * D), Event("noise", 7 * D), Event("b", 8 * D)]
        )
        lazy = TagMatcher(build_tag(cet), strict=False)
        strict = TagMatcher(build_tag(cet), strict=True)
        assert lazy.occurs_at(seq, 0) == strict.occurs_at(seq, 0) is True


class TestReferenceMetrics:
    def test_match_from_leaves_tag_counters_unchanged(self, example1_cet):
        """The Theorem-4 reference reports its work in ``MatchResult``
        only; a reference arm must not move the production
        ``repro_tag_*`` counters."""
        from repro.obs import (
            configure,
            counter_deltas,
            metrics_snapshot,
            obs_enabled,
        )

        matcher = TagMatcher(build_tag(example1_cet))
        seq = example1_positive_sequence()
        previous = obs_enabled()
        configure(True)
        try:
            before = metrics_snapshot()
            result = matcher.match_from(seq, 1)
            deltas = counter_deltas(before, metrics_snapshot())
        finally:
            configure(previous)
        assert result.matched and result.events_scanned > 1
        assert {
            name: delta
            for name, delta in deltas.items()
            if name.startswith("repro_tag_")
        } == {}
