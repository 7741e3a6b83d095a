"""The references the differential suites hold production paths against.

Production matching runs banks of dense transition tables over a
columnar view; the reference is the paper's NDFA simulation,
:meth:`~repro.automata.matching.TagMatcher.match_from`, started at
every root occurrence with no anchor screen and no horizon shortcut
beyond the matcher's own.  Mining outcomes are rebuilt the paper's
naive way on top of it: every candidate assignment, every reference
occurrence.

The Section-3 matcher :func:`~repro.automata.structmatch.
find_occurrence` bounds each variable's candidates by a tick window;
:func:`naive_find_occurrence` is the matcher before that window, which
lists every event of the variable's type from the latest predecessor's
timestamp onward and tests the TCGs of each.
"""

from typing import Dict, List, Optional

from repro.automata import TagMatcher, build_tag
from repro.constraints import ComplexEventType
from repro.mining.discovery import candidate_assignments
from repro.mining.events import EventSequence


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


def naive_find_occurrence(
    complex_event_type: ComplexEventType,
    sequence: "EventSequence",
    root_index: int,
    max_nodes: int = 1_000_000,
) -> Optional[Dict[str, int]]:
    """A variable -> event-index binding anchored at ``root_index``.

    Returns None when no occurrence of the complex event type uses the
    event at ``root_index`` as its root.  Raises :class:`RuntimeError`
    when the search budget is exhausted (practically unreachable for
    realistic structures; exists to bound adversarial inputs).
    """
    structure = complex_event_type.structure
    root = structure.root
    root_event = sequence[root_index]
    if root_event.etype != complex_event_type.event_type(root):
        return None
    order = structure.topological_order()
    assert order is not None
    assert order[0] == root

    binding: Dict[str, int] = {root: root_index}
    used = {root_index}
    nodes = [0]

    def candidates(variable: str) -> List[int]:
        etype = complex_event_type.event_type(variable)
        earliest = max(
            sequence[binding[p]].time
            for p in structure.predecessors(variable)
            if p in binding
        )
        return [
            i
            for i in sequence.occurrence_indices(etype)
            if sequence[i].time >= earliest
        ]

    def consistent(variable: str, index: int) -> bool:
        t = sequence[index].time
        for pred in structure.predecessors(variable):
            if pred in binding:
                t_pred = sequence[binding[pred]].time
                for tcg in structure.tcgs(pred, variable):
                    if not tcg.is_satisfied(t_pred, t):
                        return False
        for succ in structure.successors(variable):
            if succ in binding:  # possible only with exotic orders
                t_succ = sequence[binding[succ]].time
                for tcg in structure.tcgs(variable, succ):
                    if not tcg.is_satisfied(t, t_succ):
                        return False
        return True

    def search(depth: int) -> bool:
        if depth == len(order):
            return True
        variable = order[depth]
        for index in candidates(variable):
            nodes[0] += 1
            if nodes[0] > max_nodes:
                raise RuntimeError("structmatch search budget exhausted")
            if index in used:
                continue
            if not consistent(variable, index):
                continue
            binding[variable] = index
            used.add(index)
            if search(depth + 1):
                return True
            del binding[variable]
            used.discard(index)
        return False

    if not search(1):
        return None
    return dict(binding)
