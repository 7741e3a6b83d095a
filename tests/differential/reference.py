"""The object reference the stored-sequence differential suites use.

Production matching runs banks of dense transition tables over a
columnar view; the reference is the paper's NDFA simulation,
:meth:`~repro.automata.matching.TagMatcher.match_from`, started at
every root occurrence with no anchor screen and no horizon shortcut
beyond the matcher's own.  Mining outcomes are rebuilt the paper's
naive way on top of it: every candidate assignment, every reference
occurrence.
"""

from repro.automata import TagMatcher, build_tag
from repro.constraints import ComplexEventType
from repro.mining.discovery import candidate_assignments


def reference_outcomes(matcher, sequence):
    """``{root index: (matched, bindings)}`` for every root-type
    occurrence, from :meth:`match_from`."""
    outcomes = {}
    for index in sequence.occurrence_indices(matcher.build.root_symbol):
        result = matcher.match_from(sequence, index)
        outcomes[index] = (result.matched, result.bindings)
    return outcomes


def reference_roots(matcher, sequence):
    """Root indices anchoring a match, in sequence order."""
    return [
        index
        for index, (matched, _) in reference_outcomes(
            matcher, sequence
        ).items()
        if matched
    ]


def reference_solutions(problem, sequence, system):
    """``{sorted assignment items: frequency}`` of every frequent
    candidate: the unscreened candidate set, each matched from every
    reference occurrence."""
    roots = sequence.occurrence_indices(problem.reference_type)
    solutions = {}
    if not roots:
        return solutions
    for assignment in candidate_assignments(problem, sequence):
        matcher = TagMatcher(
            build_tag(
                ComplexEventType(problem.structure, assignment),
                system=system,
            )
        )
        hits = sum(
            1
            for root in roots
            if matcher.match_from(sequence, root).matched
        )
        frequency = hits / len(roots)
        if frequency > problem.min_confidence:
            solutions[tuple(sorted(assignment.items()))] = frequency
    return solutions


def solution_map(outcome):
    """A discovery outcome in :func:`reference_solutions` form."""
    assert len(outcome.solutions) == len(outcome.frequencies)
    return {
        tuple(sorted(cet.assignment.items())): frequency
        for cet, frequency in outcome.frequencies.items()
    }
