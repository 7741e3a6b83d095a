"""Search-space reduction for event discovery (paper Section 5, steps 1-4).

Each function implements one optimisation step and returns enough
bookkeeping for the benchmarks to report its effect:

1. :func:`consistency_gate` - discard inconsistent structures before any
   scanning (approximate propagation, Theorem 2);
2. :func:`reduce_sequence` - drop events that cannot instantiate any
   variable (wrong type for every slot, or timestamp in a granularity
   gap required by the slot's constraints);
3. :func:`filter_reference_occurrences` - drop root occurrences whose
   derived per-variable windows contain no candidate event;
4. :func:`screen_candidates` (depth 1) and
   :func:`screen_candidate_pairs` (depth 2) - the MTV95-style a-priori
   screening on induced approximated sub-structures (Section 5.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, compress
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..constraints.propagation import PropagationResult, propagate
from ..constraints.structure import ComplexEventType, EventStructure
from ..granularity.calendar import second
from ..granularity.normalform import clock_ticks_of
from ..granularity.registry import GranularitySystem
from ..automata.structmatch import SearchBudgetExhausted, find_occurrence
from .events import EventSequence

Window = Tuple[int, int]


@dataclass
class PruningStats:
    """Bookkeeping of how much each step removed."""

    consistent: bool = True
    sequence_events_before: int = 0
    sequence_events_after: int = 0
    roots_before: int = 0
    roots_after: int = 0
    candidates_before: Dict[str, int] = field(default_factory=dict)
    candidates_after_depth1: Dict[str, int] = field(default_factory=dict)
    pairs_screened: int = 0
    pairs_kept: int = 0


def consistency_gate(
    structure: EventStructure,
    system: GranularitySystem,
) -> Tuple[bool, PropagationResult]:
    """Step 1: propagate; report detected inconsistency and the derived
    constraints (reused by every later step)."""
    result = propagate(structure, system, extra_granularities=[second()])
    return result.consistent, result


def seconds_windows(result: PropagationResult) -> Dict[str, Window]:
    """Derived [lo, hi] second windows from the root to each variable."""
    root = result.structure.root
    seconds = result.groups.get("second", {})
    windows = {}
    for variable in result.structure.variables:
        if variable == root:
            continue
        interval = seconds.get((root, variable))
        if interval is not None:
            windows[variable] = interval
    return windows


def seconds_horizon(
    structure: EventStructure, windows: Dict[str, Window]
) -> Optional[int]:
    """The root-to-anything bound in seconds of a scan anchored at the
    root: the widest window's upper end, or None unless every non-root
    variable has a window (:func:`seconds_windows`)."""
    if windows and len(windows) == len(structure.variables) - 1:
        return max(hi for _, hi in windows.values())
    return None


def candidate_requirements(
    assignment: Dict[str, str],
    windows: Dict[str, Window],
    root: str,
) -> Tuple[Tuple[str, int, int], ...]:
    """The anchor-screen requirements of one candidate assignment.

    For each non-root variable with a propagated window ``[lo, hi]``
    (seconds from the root), any match must witness an event of the
    *assigned* type inside the window - the per-candidate sharpening of
    the step-3 any-allowed-type filter.
    """
    return tuple(
        (assignment[variable], lo, hi)
        for variable, (lo, hi) in sorted(windows.items())
        if variable != root and variable in assignment
    )


def required_granularities(
    structure: EventStructure,
) -> Dict[str, List]:
    """Per variable: granularities whose coverage any binding needs.

    A TCG on an arc incident to X requires ``ceil(t_X)`` to be defined
    in its granularity, so an event uncovered by one of these types can
    never instantiate X - the generalisation of the paper's "discard
    events not occurring in a business day" rule.
    """
    needed: Dict[str, Dict[str, object]] = {
        v: {} for v in structure.variables
    }
    for (src, dst), tcgs in structure.constraints.items():
        for tcg in tcgs:
            needed[src].setdefault(tcg.label, tcg.granularity)
            needed[dst].setdefault(tcg.label, tcg.granularity)
    return {v: list(types.values()) for v, types in needed.items()}


def reduce_sequence(
    structure: EventStructure,
    sequence: EventSequence,
    allowed_types: Dict[str, Optional[FrozenSet[str]]],
) -> EventSequence:
    """Step 2: keep only events that could instantiate some variable.

    ``allowed_types[X]`` is the candidate set for X (None = any type).
    Sound with the matcher's lazy clock semantics: skipped events never
    influence guards, so removing non-instantiable ones cannot change
    any match.

    Decided per event type: a type no variable allows is dropped whole,
    and otherwise each granularity some allowing variable requires is
    read once over the type's posting times
    (:func:`~repro.granularity.normalform.clock_ticks_of`; a ``total``
    granularity covers every instant and needs no pass).  An event is
    kept when, for some allowing variable, all its required
    granularities cover the event's timestamp.
    """
    required = required_granularities(structure)
    kept: List[Sequence[int]] = []
    for etype in sequence.types():
        needs = [
            [ttype for ttype in required[variable] if not ttype.total]
            for variable in structure.variables
            if allowed_types.get(variable) is None
            or etype in allowed_types[variable]
        ]
        if not needs:
            continue  # no variable allows the type
        positions, times = sequence.postings(etype)
        if not all(needs):
            kept.append(positions)  # some variable needs no coverage
            continue
        covered: Dict[int, List[int]] = {}
        for ttype in chain.from_iterable(needs):
            if id(ttype) not in covered:
                covered[id(ttype)] = clock_ticks_of(ttype, times)[1]
        masks = [
            map(all, zip(*(covered[id(ttype)] for ttype in need)))
            for need in needs
        ]
        kept.append(list(compress(positions, map(any, zip(*masks)))))
    return sequence.gathered(sorted(chain.from_iterable(kept)))


def filter_reference_occurrences(
    structure: EventStructure,
    sequence: EventSequence,
    root_indices: Sequence[int],
    windows: Dict[str, Window],
    allowed_types: Dict[str, Optional[FrozenSet[str]]],
) -> List[int]:
    """Step 3: keep roots whose windows can possibly be filled.

    For each non-root variable with a finite derived window, the window
    anchored at the root occurrence must contain at least one event of
    an allowed type; otherwise no match can anchor there and no
    automaton needs to start (the paper's "no event in the next
    business day of an IBM-rise" rule, generalised).
    """
    all_types = sequence.types()
    survivors = []
    for index in root_indices:
        t0 = sequence.time_at(index)
        viable = True
        for variable, (lo, hi) in windows.items():
            allowed = allowed_types.get(variable)
            types_to_try = allowed if allowed is not None else all_types
            if not any(
                sequence.has_type_in_window(etype, t0 + lo, t0 + hi)
                for etype in types_to_try
            ):
                viable = False
                break
        if viable:
            survivors.append(index)
    return survivors


def screen_candidates(
    structure: EventStructure,
    sequence: EventSequence,
    root_indices: Sequence[int],
    total_roots: int,
    windows: Dict[str, Window],
    allowed_types: Dict[str, Optional[FrozenSet[str]]],
    min_confidence: float,
) -> Dict[str, Set[str]]:
    """Step 4 at depth 1: per-variable type screening.

    For each non-root variable X and candidate type E, the frequency of
    "an E event falls in X's window" over all reference occurrences
    upper-bounds the frequency of any complex type assigning E to X
    (anti-monotonicity); types at or below the confidence threshold are
    screened out.
    """
    all_types = sequence.types()
    survivors: Dict[str, Set[str]] = {}
    for variable in structure.variables:
        if variable == structure.root:
            continue
        window = windows.get(variable)
        allowed = allowed_types.get(variable)
        pool = set(allowed) if allowed is not None else set(all_types)
        pool &= all_types  # a type absent from the data can never match
        if window is None:
            survivors[variable] = pool
            continue
        lo, hi = window
        kept = set()
        threshold = min_confidence * total_roots
        root_times = [sequence.time_at(index) for index in root_indices]
        for etype in pool:
            hits = sum(
                1
                for t0 in root_times
                if sequence.has_type_in_window(etype, t0 + lo, t0 + hi)
            )
            if hits > threshold:
                kept.add(etype)
        survivors[variable] = kept
    return survivors


def chain_pairs(structure: EventStructure) -> List[Tuple[str, str]]:
    """Ordered variable pairs lying on a common root chain (Section 5.1's
    sub-chain condition for k = 2), root excluded."""
    pairs = []
    for chain in structure.chains():
        inner = [v for v in chain if v != structure.root]
        for i, x in enumerate(inner):
            for y in inner[i + 1:]:
                if (x, y) not in pairs:
                    pairs.append((x, y))
    return pairs


def screen_candidate_pairs(
    result: PropagationResult,
    sequence: EventSequence,
    root_indices: Sequence[int],
    total_roots: int,
    survivors: Dict[str, Set[str]],
    reference_type: str,
    min_confidence: float,
    max_pair_candidates: int = 400,
) -> Dict[Tuple[str, str], Set[Tuple[str, str]]]:
    """Step 4 at depth 2: screen pairs of assignments on sub-chains.

    For each pair of variables on a common chain, solve the induced
    3-variable discovery problem exactly (reference matcher on the
    induced approximated sub-structure) and keep only type pairs whose
    frequency clears the threshold.  Each type pair first screens the
    roots against its :func:`candidate_requirements` (the anchor screen
    of :meth:`~repro.store.columnar.ColumnarEventStore.
    viable_position_sets`: a root it refutes anchors no occurrence),
    then runs the matcher root by root and stops as soon as its hits
    clear the threshold or the roots left cannot make them.  Pairs of
    variables whose candidate product exceeds ``max_pair_candidates``,
    or whose matcher runs out of search budget, are skipped (screening
    is an optimisation; skipping is always sound).
    """
    structure = result.structure
    root = structure.root
    windows = seconds_windows(result)
    store = sequence.columnar()
    root_times = [sequence.time_at(index) for index in root_indices]
    allowed_pairs: Dict[Tuple[str, str], Set[Tuple[str, str]]] = {}
    threshold = min_confidence * total_roots
    for x, y in chain_pairs(structure):
        pool_x = survivors.get(x, set())
        pool_y = survivors.get(y, set())
        if len(pool_x) * len(pool_y) > max_pair_candidates:
            continue
        sub = result.induced_substructure([root, x, y])
        if sub is None:
            continue
        type_pairs = [(ex, ey) for ex in pool_x for ey in pool_y]
        viable_sets = store.viable_position_sets(
            root_indices,
            root_times,
            [
                candidate_requirements({x: ex, y: ey}, windows, root)
                for ex, ey in type_pairs
            ],
        )
        kept: Set[Tuple[str, str]] = set()
        try:
            for (ex, ey), viable in zip(type_pairs, viable_sets):
                cet = ComplexEventType(
                    sub, {root: reference_type, x: ex, y: ey}
                )
                hits = 0
                remaining = len(viable)
                for index in viable:
                    if hits > threshold or hits + remaining <= threshold:
                        break  # decided either way
                    remaining -= 1
                    if find_occurrence(cet, sequence, index) is not None:
                        hits += 1
                if hits > threshold:
                    kept.add((ex, ey))
        except SearchBudgetExhausted:
            continue  # undecided, like an oversized pair: not screened
        allowed_pairs[(x, y)] = kept
    return allowed_pairs
