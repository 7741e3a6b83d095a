"""Tests for the approximate propagation algorithm (Theorem 2).

Covers the paper's guarantees: soundness (satisfying assignments still
satisfy derived constraints), termination, inconsistency detection, and
the Figure 1(a)/1(b) worked behaviours.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constraints import (
    TCG,
    EventStructure,
    check_consistency_approx,
    propagate,
)
from repro.granularity import second, standard_system
from repro.granularity.gregorian import SECONDS_PER_DAY, SECONDS_PER_HOUR

from benchmarks import harness


class TestFigure1a:
    def test_consistent(self, figure_1a, system):
        result = propagate(figure_1a, system)
        assert result.consistent

    def test_derived_x0_x3(self, figure_1a, system):
        """Mon-Fri business week: tight bounds [1,199]hour, [0,2]week."""
        result = propagate(figure_1a, system)
        assert result.interval("X0", "X3", "hour") == (1, 199)
        assert result.interval("X0", "X3", "week") == (0, 2)

    def test_derived_x0_x3_six_day_week_matches_paper(self):
        """With a Mon-Sat six-day business week the abstract's quoted
        Gamma'(X0,X3) hour bound [1,175] is reproduced exactly (the
        convention the authors evidently used - see EXPERIMENTS.md X1)."""
        system = standard_system(workdays=(0, 1, 2, 3, 4, 5))
        result = propagate(harness.figure_1a(system), system)
        assert result.interval("X0", "X3", "hour") == (1, 175)

    def test_second_windows_via_extra_granularity(self, figure_1a, system):
        result = propagate(figure_1a, system, extra_granularities=[second()])
        lo, hi = result.interval("X0", "X3", "second")
        assert lo >= 1
        assert hi < 10 * 7 * SECONDS_PER_DAY  # bounded by ~2 weeks, loosely

    def test_derived_tcgs_and_structure(self, figure_1a, system):
        result = propagate(figure_1a, system)
        tcgs = result.derived_tcgs("X0", "X3")
        assert tcgs  # non-empty conjunction
        minimal = result.minimal_derived_tcgs("X0", "X3")
        assert len(minimal) <= len(tcgs)
        assert minimal  # never minimises to nothing
        derived = result.derived_structure()
        assert set(derived.variables) == set(figure_1a.variables)
        assert ("X0", "X3") in derived.constraints

    def test_induced_substructure_two_vars(self, figure_1a, system):
        result = propagate(figure_1a, system)
        sub = result.induced_substructure(["X0", "X3"])
        assert sub is not None
        assert sub.root == "X0"
        assert set(sub.arcs()) == {("X0", "X3")}

    def test_induced_substructure_unrelated_vars(self, figure_1a, system):
        # X1 and X2 are siblings: no path, no constraints, no root.
        assert propagate(figure_1a, system).induced_substructure(
            ["X1", "X2"]
        ) is None


class TestFigure1b:
    def test_gadget_not_refuted(self, figure_1b, system):
        """The structure is satisfiable (distance 0 or 12 months), and
        sound propagation must not refute it."""
        result = propagate(figure_1b, system)
        assert result.consistent

    def test_disjunction_invisible_to_propagation(self, figure_1b, system):
        """Propagation keeps the convex hull [0,12]; the true set of
        realisable distances is {0, 12} (see exact-consistency tests)."""
        result = propagate(figure_1b, system)
        assert result.interval("X0", "X2", "month") == (0, 12)


class TestInconsistencyDetection:
    def test_same_granularity_conflict(self, system):
        day = system.get("day")
        structure = EventStructure(
            ["A", "B", "C"],
            {
                ("A", "B"): [TCG(5, 5, day)],
                ("B", "C"): [TCG(5, 5, day)],
                ("A", "C"): [TCG(0, 4, day)],
            },
        )
        assert not check_consistency_approx(structure, system)

    def test_cross_granularity_conflict(self, system):
        """A 10-day gap cannot be within the same week."""
        structure = EventStructure(
            ["A", "B"],
            {
                ("A", "B"): [
                    TCG(10, 10, system.get("day")),
                    TCG(0, 0, system.get("week")),
                ]
            },
        )
        assert not check_consistency_approx(structure, system)

    def test_hour_day_conflict(self, system):
        """Within the same hour but at least two days apart."""
        structure = EventStructure(
            ["A", "B"],
            {
                ("A", "B"): [
                    TCG(0, 0, system.get("hour")),
                    TCG(2, 5, system.get("day")),
                ]
            },
        )
        assert not check_consistency_approx(structure, system)

    def test_empty_intersection_same_arc(self, system):
        structure = EventStructure(
            ["A", "B"],
            {
                ("A", "B"): [
                    TCG(0, 1, system.get("day")),
                    TCG(3, 6, system.get("day")),
                ]
            },
        )
        assert not check_consistency_approx(structure, system)


class TestSoundness:
    """Theorem 2 soundness: any assignment satisfying the original
    structure satisfies every derived constraint."""

    def _random_satisfying_assignment(self, structure, rng):
        """Rejection-sample a satisfying assignment, or None."""
        order = structure.topological_order()
        for _ in range(4000):
            assignment = {}
            base = rng.randrange(0, 30 * SECONDS_PER_DAY)
            ok = True
            for variable in order:
                if variable == structure.root:
                    assignment[variable] = base
                    continue
                parents = [
                    p for p in structure.predecessors(variable)
                    if p in assignment
                ]
                anchor = max(assignment[p] for p in parents)
                assignment[variable] = anchor + rng.randrange(
                    0, 6 * SECONDS_PER_DAY
                )
            if structure.is_satisfied_by(assignment):
                return assignment
        return None

    @pytest.mark.parametrize("seed", range(4))
    def test_figure_1a_soundness(self, figure_1a, system, seed):
        rng = random.Random(seed)
        assignment = self._random_satisfying_assignment(figure_1a, rng)
        assert assignment is not None, "sampler failed to find a witness"
        result = propagate(figure_1a, system, extra_granularities=[second()])
        derived = result.derived_structure()
        assert derived.is_satisfied_by(assignment)

    def test_random_chain_structures_sound(self, system):
        """Random 4-variable chains over random granularities."""
        rng = random.Random(42)
        labels = ["hour", "day", "week", "b-day"]
        for _ in range(10):
            constraints = {}
            names = ["V0", "V1", "V2", "V3"]
            for i in range(3):
                gran = system.get(rng.choice(labels))
                m = rng.randrange(0, 3)
                constraints[(names[i], names[i + 1])] = [
                    TCG(m, m + rng.randrange(0, 4), gran)
                ]
            structure = EventStructure(names, constraints)
            assignment = self._random_satisfying_assignment(structure, rng)
            if assignment is None:
                continue
            result = propagate(structure, system)
            assert result.consistent
            derived = result.derived_structure()
            assert derived.is_satisfied_by(assignment)


class TestExtraGranularities:
    def test_multiple_extra_targets(self, figure_1a, system):
        """Several extra target granularities populate simultaneously
        and remain mutually sound."""
        from repro.granularity import minute, second

        result = propagate(
            figure_1a,
            system,
            extra_granularities=[second(), minute()],
        )
        assert result.consistent
        sec = result.interval("X0", "X3", "second")
        minutes = result.interval("X0", "X3", "minute")
        assert sec is not None and minutes is not None
        # Both lower bounds reflect the b-day step; the minute upper
        # bound (in seconds) must contain the second upper bound.
        # (Lower bounds do NOT scale multiplicatively: tick distance 1
        # in minutes can be a single second across a minute boundary.)
        assert sec[0] >= 1 and minutes[0] >= 1
        assert (minutes[1] + 1) * 60 - 1 >= sec[1]

    def test_extra_granularity_groups_start_empty(self, system):
        from repro.granularity import second

        structure = EventStructure(["A"], {})
        result = propagate(structure, system, extra_granularities=[second()])
        assert result.consistent
        assert result.groups.get("second") == {}


class TestTermination:
    def test_iteration_count_is_small(self, figure_1a, system):
        result = propagate(figure_1a, system)
        assert result.iterations <= 10

    def test_no_constraints(self, system):
        structure = EventStructure(["A"], {})
        result = propagate(structure, system)
        assert result.consistent
        assert result.groups == {}

    def test_max_iterations_guard(self, figure_1a, system):
        with pytest.raises(RuntimeError):
            propagate(figure_1a, system, max_iterations=0)
