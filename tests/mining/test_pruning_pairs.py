"""Focused tests for depth-2 candidate screening (sub-chain pairs)."""

import functools

import pytest

from repro.automata.structmatch import find_occurrence
from repro.constraints import TCG, EventStructure
from repro.granularity.gregorian import SECONDS_PER_DAY, SECONDS_PER_HOUR
from repro.mining import (
    Event,
    EventDiscoveryProblem,
    EventSequence,
    consistency_gate,
    discover,
    screen_candidate_pairs,
)
from repro.mining import pruning
from repro.mining.pruning import chain_pairs

D, H = SECONDS_PER_DAY, SECONDS_PER_HOUR


@pytest.fixture
def chain3(system):
    hour = system.get("hour")
    return EventStructure(
        ["R", "M", "L"],
        {
            ("R", "M"): [TCG(0, 2, hour)],
            ("M", "L"): [TCG(0, 2, hour)],
        },
    )


class TestChainPairs:
    def test_chain_structure_pairs(self, chain3):
        assert chain_pairs(chain3) == [("M", "L")]

    def test_diamond_pairs(self, figure_1a):
        pairs = set(chain_pairs(figure_1a))
        # X1/X3 and X2/X3 lie on common chains; X1/X2 never do.
        assert ("X1", "X3") in pairs or ("X2", "X3") in pairs
        assert ("X1", "X2") not in pairs


class TestScreenCandidatePairs:
    def _sequence(self):
        """Roots at days; 'good' pairs co-occur, 'bad' pairs never do."""
        events = []
        for i in range(8):
            base = i * D
            events.append(Event("r", base))
            events.append(Event("m-good", base + H))
            events.append(Event("l-good", base + 2 * H))
            # Distractors that individually pass depth-1 screening but
            # never appear in a *consistent* pair configuration:
            # m-bad always arrives too late for any l within 2 hours.
            events.append(Event("m-bad", base + 2 * H + 1800))
        return EventSequence(events)

    def test_pairs_screened_by_joint_frequency(self, system, chain3):
        sequence = self._sequence()
        ok, propagation = consistency_gate(chain3, system)
        assert ok
        roots = list(sequence.occurrence_indices("r"))
        survivors = {
            "M": {"m-good", "m-bad"},
            "L": {"l-good"},
        }
        allowed_pairs = screen_candidate_pairs(
            propagation,
            sequence,
            roots,
            len(roots),
            survivors,
            "r",
            min_confidence=0.5,
        )
        kept = allowed_pairs[("M", "L")]
        assert ("m-good", "l-good") in kept
        assert ("m-bad", "l-good") not in kept

    def test_large_pools_are_skipped(self, system, chain3):
        sequence = self._sequence()
        ok, propagation = consistency_gate(chain3, system)
        assert ok
        roots = list(sequence.occurrence_indices("r"))
        survivors = {
            "M": {"t%d" % i for i in range(30)},
            "L": {"t%d" % i for i in range(30)},
        }
        allowed_pairs = screen_candidate_pairs(
            propagation,
            sequence,
            roots,
            len(roots),
            survivors,
            "r",
            min_confidence=0.5,
            max_pair_candidates=100,
        )
        # 30 x 30 exceeds the cap: screening skips the pair (sound).
        assert ("M", "L") not in allowed_pairs

    def test_threshold_boundary(self, system, chain3):
        """Frequency must strictly exceed the threshold (paper: '>')."""
        sequence = self._sequence()
        ok, propagation = consistency_gate(chain3, system)
        roots = list(sequence.occurrence_indices("r"))
        survivors = {"M": {"m-good"}, "L": {"l-good"}}
        at_one = screen_candidate_pairs(
            propagation, sequence, roots, len(roots), survivors, "r", 1.0
        )
        assert at_one[("M", "L")] == set()  # 1.0 is not > 1.0
        just_below = screen_candidate_pairs(
            propagation, sequence, roots, len(roots), survivors, "r", 0.99
        )
        assert ("m-good", "l-good") in just_below[("M", "L")]


class TestSearchBudget:
    """The Section-3 matcher gives up after ``max_nodes`` candidates.
    A depth-2 screen that hits that budget cannot decide the pair, so
    it skips the pair as it skips an oversized one."""

    @pytest.fixture
    def burst(self, system):
        """R->A [0,0]day, A->B [0,0]day, B->C [1,1]day over a one-day
        burst of 60 ``a`` and 60 ``b``, interleaved, with a ``c`` on
        the same day and none the next day.

        The ``c`` keeps C's depth-1 pool and the root's anchor screen
        alive (C's propagated seconds window starts one second after
        the root), so the pair screen runs the matcher.  On the (A, C) and (B, C) sub-structures
        each of the 60 same-day A (or B) candidates satisfies its TCGs
        and leaves C without a next-day candidate: 60 candidates, past a
        budget of 50.  The (A, B) pair matches at its first candidates.
        """
        day = system.get("day")
        structure = EventStructure(
            ["R", "A", "B", "C"],
            {
                ("R", "A"): [TCG(0, 0, day)],
                ("A", "B"): [TCG(0, 0, day)],
                ("B", "C"): [TCG(1, 1, day)],
            },
        )
        events = [Event("r", 0)]
        for i in range(60):
            events += [Event("a", 60 + 2 * i), Event("b", 61 + 2 * i)]
        events += [Event("c", D // 2), Event("x", 3 * D)]
        sequence = EventSequence(events)
        problem = EventDiscoveryProblem(
            structure,
            0.5,
            "r",
            {
                "A": frozenset("ab"),
                "B": frozenset("ab"),
                "C": frozenset("c"),
            },
        )
        return problem, sequence

    def _small_budget(self, monkeypatch):
        monkeypatch.setattr(
            pruning,
            "find_occurrence",
            functools.partial(find_occurrence, max_nodes=50),
        )

    def _screen(self, system, problem, sequence):
        ok, propagation = consistency_gate(problem.structure, system)
        assert ok
        roots = list(sequence.occurrence_indices("r"))
        return screen_candidate_pairs(
            propagation,
            sequence,
            roots,
            len(roots),
            {"A": {"a", "b"}, "B": {"a", "b"}, "C": {"c"}},
            "r",
            min_confidence=0.5,
        )

    def test_exhausted_budget_skips_the_pair(
        self, system, burst, monkeypatch
    ):
        problem, sequence = burst
        # With the default budget every pair is decided.
        decided = self._screen(system, problem, sequence)
        assert decided[("A", "C")] == decided[("B", "C")] == set()
        assert decided[("A", "B")] == {
            ("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")
        }
        self._small_budget(monkeypatch)
        allowed = self._screen(system, problem, sequence)
        assert ("A", "C") not in allowed
        assert ("B", "C") not in allowed
        assert allowed[("A", "B")] == decided[("A", "B")]

    def test_default_screen_answers_like_depth_one(
        self, system, burst, monkeypatch
    ):
        problem, sequence = burst
        self._small_budget(monkeypatch)
        at_two = discover(problem, sequence, system)
        at_one = discover(problem, sequence, system, screen_depth=1)
        assert at_two.stats.pairs_screened == 1
        assert at_two.solution_assignments() == (
            at_one.solution_assignments()
        )
        assert at_two.solutions == []

    def test_other_errors_still_propagate(self, system, burst, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("not a budget")

        problem, sequence = burst
        monkeypatch.setattr(pruning, "find_occurrence", broken)
        with pytest.raises(RuntimeError, match="not a budget"):
            discover(problem, sequence, system)
