"""Reference matcher: complex events by direct backtracking.

This is the semantic ground truth the TAG construction is tested
against: a complex event matching a structure is a one-to-one mapping
from variables to sequence events satisfying every TCG (paper Section
3).  The matcher assigns variables in topological order, anchoring the
root at a chosen occurrence, and prunes with the non-decreasing-
timestamp property of rooted TCG DAGs.

Each variable's candidates form a window of its type's occurrences.
It starts with one bisect at the latest bound predecessor's timestamp
and ends at the first event whose tick exceeds ``tick(t_P) + n`` for
some TCG ``[m, n]`` on an arc ``(P, X)``.  The window is exact, not a
heuristic: non-empty ticks are strictly ordered (Section 2), so
``tick_of`` never decreases over covered instants, and every later
event fails that TCG too.  An event in a gap of the TCG's granularity
fails it as well, but a later event may be covered again, so such an
event is skipped without ending the window.

Exponential in the worst case, but exact - including for events with
equal timestamps, where the (linear-scan) TAG matcher is documented to
be incomplete when the sequence order contradicts the binding order.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import TYPE_CHECKING, Dict, Iterator, Optional

from ..constraints.structure import ComplexEventType

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..mining.events import EventSequence


def find_occurrence(
    complex_event_type: ComplexEventType,
    sequence: "EventSequence",
    root_index: int,
    max_nodes: int = 1_000_000,
) -> Optional[Dict[str, int]]:
    """A variable -> event-index binding anchored at ``root_index``.

    Returns None when no occurrence of the complex event type uses the
    event at ``root_index`` as its root.  Candidates for a variable X
    are the occurrences of X's type from the latest bound predecessor's
    timestamp up to the first one whose tick lies past ``tick(t_P) + n``
    for a TCG ``[m, n]`` on ``(P, X)``; none when some ``t_P`` is
    uncovered by that TCG's granularity.  Every event cut off this way
    fails a TCG (ticks never decrease over covered instants), so the
    binding is the one an unwindowed search in the same candidate order
    would return.  Raises :class:`RuntimeError` when the search budget
    - ``max_nodes`` candidates tried inside the windows - is exhausted
    (practically unreachable for realistic structures; exists to bound
    adversarial inputs).
    """
    structure = complex_event_type.structure
    root = structure.root
    if sequence.type_at(root_index) != complex_event_type.event_type(root):
        return None
    order = structure.topological_order()
    assert order is not None
    assert order[0] == root

    binding: Dict[str, int] = {root: root_index}
    used = {root_index}
    nodes = [0]

    def candidates(variable: str) -> Iterator[int]:
        positions, times = sequence.postings(
            complex_event_type.event_type(variable)
        )
        earliest = 0
        limits = []
        for pred in structure.predecessors(variable):
            if pred in binding:
                t_pred = sequence.time_at(binding[pred])
                earliest = max(earliest, t_pred)
                for tcg in structure.tcgs(pred, variable):
                    tick = tcg.granularity.tick_of(t_pred)
                    if tick is None:
                        return  # no instant satisfies a TCG from t_pred
                    limits.append((tcg.granularity.tick_of, tick + tcg.n))
        for k in range(bisect_left(times, earliest), len(times)):
            t = times[k]
            for tick_of, last in limits:
                tick = tick_of(t)
                if tick is None:
                    break  # in a gap: skip it, a later event may fit
                if tick > last:
                    return  # past the window, as is every later event
            else:
                yield positions[k]

    def consistent(variable: str, index: int) -> bool:
        t = sequence.time_at(index)
        for pred in structure.predecessors(variable):
            if pred in binding:
                t_pred = sequence.time_at(binding[pred])
                for tcg in structure.tcgs(pred, variable):
                    if not tcg.is_satisfied(t_pred, t):
                        return False
        for succ in structure.successors(variable):
            if succ in binding:  # possible only with exotic orders
                t_succ = sequence.time_at(binding[succ])
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


def occurs_at(
    complex_event_type: ComplexEventType,
    sequence: "EventSequence",
    root_index: int,
) -> bool:
    """Does an occurrence of the type use this root event?"""
    return find_occurrence(complex_event_type, sequence, root_index) is not None


def count_occurrences(
    complex_event_type: ComplexEventType, sequence: "EventSequence"
) -> int:
    """Number of root occurrences anchoring at least one occurrence.

    This is exactly the numerator of the paper's frequency definition:
    occurrences sharing the root event count once.
    """
    root_type = complex_event_type.event_type(
        complex_event_type.structure.root
    )
    return sum(
        1
        for index in sequence.occurrence_indices(root_type)
        if occurs_at(complex_event_type, sequence, index)
    )
