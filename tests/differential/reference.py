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
timestamp onward and tests the TCGs of each.  The depth-2 pair screen
screens roots and stops each type pair once it is decided;
:func:`reference_pair_screen` is Section 5.1's screen as defined:
:func:`naive_find_occurrence` on every (pair, root).

Stored-log ingest reads a CSV log straight into columns and reduces it
per event type.  :func:`reference_read_events` is the per-row reader
(every row listed first, one :class:`Event` per row),
:func:`reference_sequence` sorts and indexes its events one by one,
and :func:`reference_reduce` is the paper's step-2 rule decided event
by event with each granularity's own ``tick_of``.

Production propagation keeps one STP per granularity group across the
fixpoint iterations and re-closes only the arcs that tightened;
:func:`reference_propagate` is Section 3.2's loop as the paper states
it - every group rebuilt and closed by the Floyd-Warshall triple loop
each iteration, then every interval converted into every other feasible
granularity - with its own grouping, closure and conversion step, so it
shares no code with :mod:`repro.constraints.propagation` or
:mod:`repro.constraints.stp`.

Production lets each granularity choose its size table and clock: a
type that lowers to a periodic normal form gets the compiled table and
the bisection clock, a type that does not gets the window-sweep
:class:`~repro.granularity.sizes.SizeTable` and its own ``tick_of``.
The sweep answer for types that *do* lower is built here without any
switch: :class:`SweepSystem` (:func:`sweep_system`) puts every size
table on the sweep, and :class:`Unlowered` wraps a type so that it has
the same ticks but no lowering route.
"""

import csv
import re
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.automata import TagMatcher, build_tag
from repro.constraints import ComplexEventType
from repro.granularity.base import TemporalType
from repro.granularity.registry import GranularitySystem, standard_system
from repro.granularity.sizes import SizeTable
from repro.mining.discovery import candidate_assignments
from repro.mining.pruning import chain_pairs
from repro.io.csvlog import CsvFormatError, parse_timestamp
from repro.mining.events import Event, EventSequence


class SweepSystem(GranularitySystem):
    """A granularity system whose every size table is the window sweep."""

    def table(self, ttype_or_label) -> SizeTable:
        ttype = self.resolve(ttype_or_label)
        tab = self._tables.get(ttype.label)
        if tab is None:
            tab = SizeTable(ttype, horizon=self.horizon)
            self._tables[ttype.label] = tab
        return tab


def sweep_system(**kwargs) -> SweepSystem:
    """``standard_system(**kwargs)`` with every size table on the sweep."""
    stock = standard_system(**kwargs)
    return SweepSystem(
        [stock.get(label) for label in stock.labels()],
        horizon=stock.horizon,
        conversion_mode=stock.conversion_mode,
        cache=stock.conversion_cache,
    )


class Unlowered(TemporalType):
    """``base`` with every lowering route closed.

    Same label, ticks and coverage as ``base``; it declares no period
    and no calendar-algebra rule knows its class, so
    ``cached_normal_form`` refuses it with ``reason="no-period"`` (and
    counts the fallback, as for any type that does not lower), and
    clocks over it take the real fallback route through ``base``'s
    ``tick_of``.
    """

    def __init__(self, base: TemporalType):
        self.base = base
        self.label = base.label
        self.alignment_seconds = base.alignment_seconds
        self.total = base.total

    def tick_of(self, second: int) -> Optional[int]:
        return self.base.tick_of(second)

    def tick_bounds(self, index: int) -> Tuple[int, int]:
        return self.base.tick_bounds(index)


INF = float("inf")


class ReferencePropagation(NamedTuple):
    """:func:`reference_propagate`'s verdict and its derived groups,
    ``{granularity label: {(x, y): (lo, hi)}}``."""

    consistent: bool
    groups: Dict[str, Dict[Tuple[str, str], Tuple[int, int]]]


def reference_propagate(structure, system, extra_granularities=()):
    """Section 3.2's approximate propagation, to fixpoint.

    The TCGs are grouped per granularity (``extra_granularities`` adds
    empty groups, as mining adds ``second``).  Each iteration closes
    every group afresh and keeps the finite forward intervals of pairs
    the DAG orders, then converts every interval of every group into
    every other granularity it may convert to (appendix A.1, through
    ``system.convert``) and intersects.  The loop stops when no
    conversion tightens anything; an empty interval, a negative cycle
    or an empty conversion refutes the structure.
    """
    groups = {}
    types = {}
    for arc, tcgs in structure.constraints.items():
        for tcg in tcgs:
            types.setdefault(tcg.label, system.resolve(tcg.granularity))
            group = groups.setdefault(tcg.label, {})
            lo, hi = group.get(arc, (0, INF))
            group[arc] = (max(lo, tcg.m), min(hi, tcg.n))
    for extra in extra_granularities:
        ttype = system.resolve(extra)
        types.setdefault(ttype.label, ttype)
        groups.setdefault(ttype.label, {})
    labels = sorted(types)
    variables = structure.variables
    ordered = {
        (x, y)
        for x in variables
        for y in variables
        if x != y and structure.has_path(x, y)
    }
    changed = bool(groups)
    while changed:
        for label in labels:
            closed = _closed_forward_intervals(variables, groups[label])
            if closed is None:
                return ReferencePropagation(False, groups)
            groups[label] = {
                arc: interval
                for arc, interval in closed.items()
                if arc in ordered
            }
        changed = False
        for src in labels:
            for dst in labels:
                if src == dst or not system.conversion_feasible(
                    types[src], types[dst]
                ):
                    continue
                for arc, (lo, hi) in groups[src].items():
                    outcome = system.convert(lo, hi, types[src], types[dst])
                    if outcome.empty:
                        return ReferencePropagation(False, groups)
                    if outcome.interval is None:
                        continue
                    new_lo, new_hi = outcome.interval
                    old = groups[dst].get(arc)
                    if old is not None:
                        new_lo = max(new_lo, old[0])
                        new_hi = min(new_hi, old[1])
                        if new_lo > new_hi:
                            return ReferencePropagation(False, groups)
                    if (new_lo, new_hi) != old:
                        groups[dst][arc] = (new_lo, new_hi)
                        changed = True
    return ReferencePropagation(True, groups)


def _closed_forward_intervals(variables, group):
    """The minimal network of one group's STP, as ``{(x, y): (lo, hi)}``
    over its finite intervals with ``lo >= 0``; None when inconsistent.

    ``dist[i][j]`` bounds ``variables[j] - variables[i]`` from above;
    the triple loop is Floyd-Warshall, and a negative diagonal entry
    is a negative cycle.
    """
    index = {variable: i for i, variable in enumerate(variables)}
    n = len(variables)
    dist = [[0 if i == j else INF for j in range(n)] for i in range(n)]
    for (x, y), (lo, hi) in group.items():
        if lo > hi:
            return None
        i, j = index[x], index[y]
        dist[i][j] = min(dist[i][j], hi)
        dist[j][i] = min(dist[j][i], -lo)
    for k in range(n):
        dk = dist[k]
        for i in range(n):
            dik = dist[i][k]
            if dik == INF:
                continue
            di = dist[i]
            for j in range(n):
                candidate = dik + dk[j]
                if candidate < di[j]:
                    di[j] = candidate
    if any(dist[i][i] < 0 for i in range(n)):
        return None
    closed = {}
    for i in range(n):
        for j in range(n):
            hi, lo = dist[i][j], -dist[j][i]
            if i != j and hi != INF and lo != -INF and lo >= 0:
                closed[(variables[i], variables[j])] = (int(lo), int(hi))
    return closed


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


def reference_pair_screen(
    result,
    sequence,
    root_indices,
    total_roots,
    survivors,
    reference_type,
    min_confidence,
    max_pair_candidates=400,
):
    """Step 4 at depth 2 by its definition (Section 5.1).

    Per pair of variables on a common chain, with the same size cap as
    production, each type pair's frequency on the induced approximated
    sub-structure is counted with :func:`naive_find_occurrence` from
    every root - no anchor screen, no early exit - and the pair is kept
    when it exceeds ``min_confidence * total_roots``.
    """
    structure = result.structure
    root = structure.root
    threshold = min_confidence * total_roots
    allowed = {}
    for x, y in chain_pairs(structure):
        pool_x = survivors.get(x, set())
        pool_y = survivors.get(y, set())
        if len(pool_x) * len(pool_y) > max_pair_candidates:
            continue
        sub = result.induced_substructure([root, x, y])
        if sub is None:
            continue
        kept = set()
        for ex in pool_x:
            for ey in pool_y:
                cet = ComplexEventType(
                    sub, {root: reference_type, x: ex, y: ey}
                )
                hits = sum(
                    1
                    for index in root_indices
                    if naive_find_occurrence(cet, sequence, index)
                    is not None
                )
                if hits > threshold:
                    kept.add((ex, ey))
        allowed[(x, y)] = kept
    return allowed


def reference_read_events(source, has_header=None, quarantine=None):
    """The rows of a CSV log as events, in file order.

    Lists every ``csv.reader`` row, detects a header on the first one,
    and makes one :class:`Event` per good row; a bad row raises
    :class:`CsvFormatError`, or with a ``quarantine`` is recorded there
    (line, reason, raw row).
    """
    rows = list(csv.reader(source))
    events = []
    start = 0
    if rows and has_header is None:
        try:
            _require_two(rows[0], line=1)
            reference_parse_timestamp(rows[0][1])
        except CsvFormatError:
            start = 1
    elif has_header:
        start = 1
    for number, row in enumerate(rows[start:], start=start + 1):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        try:
            _require_two(row, line=number)
            etype = row[0].strip()
            if not etype:
                raise CsvFormatError("line %d: empty event type" % number)
            events.append(Event(etype, reference_parse_timestamp(row[1])))
        except CsvFormatError as exc:
            if quarantine is None:
                raise
            quarantine.add(str(exc), raw=list(row), line=number)
    return events


def reference_parse_timestamp(text):
    """Integer stamps by the ``\\d+`` regex; calendar stamps as
    :func:`~repro.io.csvlog.parse_timestamp` reads them."""
    if re.fullmatch(r"\d+", text.strip()):
        return int(text.strip())
    return parse_timestamp(text)


def _require_two(row, line):
    if len(row) < 2:
        raise CsvFormatError(
            "line %d: expected 'event_type,timestamp', got %r" % (line, row)
        )


def reference_sequence(events):
    """``(ordered, postings)``: the events sorted stably by time (ties
    in input order), and per type the ``(positions, times)`` of its
    events in that order."""
    ordered = sorted(events, key=lambda event: event.time)
    postings = {}
    for position, event in enumerate(ordered):
        positions, times = postings.setdefault(event.etype, ([], []))
        positions.append(position)
        times.append(event.time)
    return ordered, {
        etype: (tuple(positions), tuple(times))
        for etype, (positions, times) in postings.items()
    }


def reference_reduce(structure, events, allowed_types):
    """Step 2 event by event: an event stays when some variable allowing
    its type has every granularity of its incident TCGs defined at the
    event's timestamp (``tick_of`` is not None)."""
    def required(variable):
        return [
            tcg.granularity
            for (src, dst), tcgs in structure.constraints.items()
            if variable in (src, dst)
            for tcg in tcgs
        ]

    kept = []
    for event in events:
        for variable in structure.variables:
            allowed = allowed_types.get(variable)
            if allowed is not None and event.etype not in allowed:
                continue
            if all(
                ttype.tick_of(event.time) is not None
                for ttype in required(variable)
            ):
                kept.append(event)
                break
    return kept
