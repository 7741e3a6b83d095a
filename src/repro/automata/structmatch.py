"""Section-3 matcher: complex events by direct backtracking.

This is the semantic ground truth the TAG construction is tested
against: a complex event matching a structure is a one-to-one mapping
from variables to sequence events satisfying every TCG (paper Section
3).  The matcher assigns variables in topological order, anchoring the
root at a chosen occurrence; a variable's predecessors are all bound
when its turn comes.

It searches from two structures, both kept with the sequence (in its
columnar view's :meth:`~repro.store.columnar.ColumnarEventStore.
plan_cache`, so they go when the sequence goes):

- a per-pattern plan: the topological order and, per variable, its
  predecessor arcs as ``(granularity, m, n)``;
- per-(event type, granularity) tick columns over the type's posting
  times, one :func:`~repro.granularity.normalform.clock_ticks_of` walk
  each (the minimal periodic form when the type lowers, its own
  ``tick_of`` otherwise).  An uncovered event carries the tick of the
  covered event before it, so every column is non-decreasing.

A variable X's candidates are a range of its type's posting indices.
For every bound predecessor P and TCG ``[m, n]_G`` on ``(P, X)``, the
range is cut by bisecting X's G column at ``tick_G(t_P) + m`` and
``tick_G(t_P) + n``; it is also cut to timestamps at or after every
``t_P``.  The cuts are exact: non-empty ticks are strictly ordered
(Section 2), so ``tick_of`` never decreases over covered instants.  Of
the range, only events covered by every arc granularity are tried, and
each of those satisfies every TCG to a bound predecessor.  When G does
not cover ``t_P`` itself, X has no candidates.  Candidates are tried in
posting order, so the binding is the one an unwindowed enumeration in
that order returns - including for events with equal timestamps, where
the (linear-scan) TAG matcher is documented to be incomplete when the
sequence order contradicts the binding order.

Exponential in the worst case; the ``max_nodes`` budget bounds it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..constraints.structure import ComplexEventType, EventStructure
from ..granularity.normalform import clock_ticks_of

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..mining.events import EventSequence


class SearchBudgetExhausted(RuntimeError):
    """:func:`find_occurrence` tried ``max_nodes`` candidates without
    deciding whether an occurrence exists."""


class _PatternPlan:
    """One structure's search order over one sequence.

    ``order`` is the topological order and ``arcs[d]`` the predecessor
    arcs of ``order[d]`` as ``(predecessor depth, granularity, m, n)``,
    one per TCG.  ``bound`` memoises, per assignment (types in
    ``order``), the steps :func:`_bind` resolves on the sequence.
    """

    __slots__ = ("order", "arcs", "bound")

    def __init__(self, structure: EventStructure):
        order = structure.topological_order()
        assert order is not None
        assert order[0] == structure.root
        depth = {variable: d for d, variable in enumerate(order)}
        self.order = order
        self.arcs = tuple(
            tuple(
                (depth[pred], tcg.granularity, tcg.m, tcg.n)
                for pred in structure.predecessors(variable)
                for tcg in structure.tcgs(pred, variable)
            )
            for variable in order
        )
        self.bound: Dict[Tuple[str, ...], list] = {}


def _tick_column(sequence, cache, etype: str, granularity):
    """``(ticks, defined)`` of ``granularity`` over ``etype``'s posting
    times: ``ticks`` non-decreasing (an uncovered event repeats the
    tick before it), ``defined`` None when every event is covered."""
    key = ("structmatch.ticks", etype, id(granularity))
    entry = cache.get(key)
    if entry is not None and entry[0] is granularity:
        return entry[1]
    ticks, defined = clock_ticks_of(granularity, sequence.postings(etype)[1])
    if all(defined):
        column = (ticks, None)
    else:
        last = next((z for z, ok in zip(ticks, defined) if ok), 0)
        filled = []
        for z, ok in zip(ticks, defined):
            if ok:
                last = z
            filled.append(last)
        column = (filled, defined)
    # The strong reference to ``granularity`` keeps the id key stable.
    cache[key] = (granularity, column)
    return column


def _bind(plan: _PatternPlan, types: Tuple[str, ...], sequence, cache):
    """Per depth: the type's postings, the predecessor depths, the arcs
    as ``(pred depth, pred ticks, pred defined, ticks, m, n)`` and the
    coverage columns a candidate must pass."""
    steps = []
    for depth, etype in enumerate(types):
        positions, times = sequence.postings(etype)
        arcs = []
        gappy: List[list] = []
        for pred, granularity, m, n in plan.arcs[depth]:
            pticks, pdefined = _tick_column(
                sequence, cache, types[pred], granularity
            )
            ticks, defined = _tick_column(sequence, cache, etype, granularity)
            arcs.append((pred, pticks, pdefined, ticks, m, n))
            if defined is not None and all(
                defined is not other for other in gappy
            ):
                gappy.append(defined)
        preds = tuple({arc[0] for arc in arcs})
        steps.append((positions, times, preds, tuple(arcs), tuple(gappy)))
    return steps


def _steps_for(complex_event_type: ComplexEventType, sequence):
    """The resolved plan of a complex type over ``sequence``, memoised
    in the sequence's plan cache."""
    cache = sequence.plan_cache()
    structure = complex_event_type.structure
    key = ("structmatch.plan", id(structure))
    entry = cache.get(key)
    if entry is None or entry[0] is not structure:
        # The strong reference to ``structure`` keeps the id key stable.
        entry = cache[key] = (structure, _PatternPlan(structure))
    plan = entry[1]
    types = tuple(map(complex_event_type.assignment.__getitem__, plan.order))
    steps = plan.bound.get(types)
    if steps is None:
        steps = plan.bound[types] = _bind(plan, types, sequence, cache)
    return plan.order, steps


def find_occurrence(
    complex_event_type: ComplexEventType,
    sequence: "EventSequence",
    root_index: int,
    max_nodes: int = 1_000_000,
) -> Optional[Dict[str, int]]:
    """A variable -> event-index binding anchored at ``root_index``.

    Returns None when no occurrence of the complex event type uses the
    event at ``root_index`` as its root.  Candidates for a variable X
    are the occurrences of X's type, in sequence order, that satisfy
    every TCG from a bound predecessor; the range holding them is found
    by bisecting tick columns on both bounds of each TCG (module
    docstring), so the binding is the first one in that order.  Raises
    :class:`SearchBudgetExhausted` when the search budget - ``max_nodes``
    such candidates tried - is exhausted: it bounds adversarial inputs,
    such as a burst of same-type events each satisfying one arc and
    each leaving a later variable without candidates.
    """
    structure = complex_event_type.structure
    if sequence.type_at(root_index) != complex_event_type.event_type(
        structure.root
    ):
        return None
    order, steps = _steps_for(complex_event_type, sequence)
    size = len(order)
    if size == 1:
        return {order[0]: root_index}
    root_positions, root_times = steps[0][:2]
    k0 = bisect_left(root_positions, root_index)
    # Per depth: the bound posting index, timestamp and sequence index.
    ks = [k0] * size
    ts = [root_times[k0]] * size
    bound = [root_index] * size
    used = {root_index}
    budget = [max_nodes]

    def search(depth: int) -> bool:
        positions, times, preds, arcs, gappy = steps[depth]
        last = depth == size - 1
        lo, hi = 0, len(times)
        for pred, pticks, pdefined, ticks, m, n in arcs:
            k = ks[pred]
            if pdefined is not None and not pdefined[k]:
                return False  # no instant satisfies a TCG from t_P
            base = pticks[k]
            lo = bisect_left(ticks, base + m, lo, hi)
            hi = bisect_right(ticks, base + n, lo, hi)
            if lo == hi:
                return False
        lo = bisect_left(times, max([ts[pred] for pred in preds]), lo, hi)
        for k in range(lo, hi):
            if gappy and not all([defined[k] for defined in gappy]):
                continue  # in a gap of an arc granularity
            budget[0] -= 1
            if budget[0] < 0:
                raise SearchBudgetExhausted(
                    "structmatch search budget exhausted"
                )
            index = positions[k]
            if index in used:
                continue
            bound[depth] = index
            if last:
                return True
            ks[depth] = k
            ts[depth] = times[k]
            used.add(index)
            if search(depth + 1):
                return True
            used.discard(index)
        return False

    if not search(1):
        return None
    return dict(zip(order, bound))


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
