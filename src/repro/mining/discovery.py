"""Event-discovery problems and their solvers (paper Section 5).

An event-discovery problem ``(S, alpha, E0, psi)`` asks for every
complex event type derived from structure ``S`` - root assigned the
reference type ``E0``, other variables assigned within ``psi`` - whose
frequency in a sequence exceeds ``alpha``.  Frequency is the fraction of
``E0`` occurrences anchoring at least one occurrence of the type.

Two solvers are provided:

* :func:`naive_discover` - the paper's baseline: enumerate every
  candidate assignment and run its TAG from every ``E0`` occurrence;
* :func:`discover` - the optimised five-step pipeline (consistency
  gate, sequence reduction, reference reduction, candidate screening at
  depths 1 and 2, then the TAG scan on what is left).

Both return identical solution sets (verified by the test suite); the
benchmarks quantify the difference in work.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

from ..automata.builder import build_tag
from ..automata.matching import TagMatcher
from ..constraints.structure import ComplexEventType, EventStructure
from ..granularity.registry import GranularitySystem
from ..obs import counter, span
from .evaluation import frontier_frequencies
from .events import EventSequence
from .pruning import (
    PruningStats,
    consistency_gate,
    filter_reference_occurrences,
    reduce_sequence,
    screen_candidate_pairs,
    screen_candidates,
    seconds_horizon,
    seconds_windows,
)


_MINE_RUNS = counter(
    "repro_mine_runs_total", "Discovery pipeline invocations"
)
_CANDIDATES_EVALUATED = counter(
    "repro_mine_candidates_evaluated_total",
    "Candidate assignments that reached the TAG scan",
)
_AUTOMATON_STARTS = counter(
    "repro_mine_automaton_starts_total",
    "Anchored automaton runs started by discovery",
)
_SOLUTIONS = counter(
    "repro_mine_solutions_total", "Frequent complex event types found"
)


class TypeConstraint:
    """``same`` or ``distinct`` event types across a group of variables.

    The paper's Section 6: "two or more variables could be constrained
    to be assigned to the same (or different) event types".  Attach
    instances to ``EventDiscoveryProblem.type_constraints``; both
    solvers honour them when enumerating candidates.
    """

    SAME = "same"
    DISTINCT = "distinct"

    def __init__(self, kind: str, variables):
        if kind not in (self.SAME, self.DISTINCT):
            raise ValueError("kind must be 'same' or 'distinct'")
        variables = tuple(variables)
        if len(variables) < 2:
            raise ValueError("a type constraint needs >= 2 variables")
        self.kind = kind
        self.variables = variables

    def is_satisfied(self, assignment: Mapping[str, str]) -> bool:
        """Does a full variable->type assignment satisfy the constraint?"""
        types = [assignment[v] for v in self.variables]
        if self.kind == self.SAME:
            return len(set(types)) == 1
        return len(set(types)) == len(types)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TypeConstraint):
            return NotImplemented
        return (self.kind, self.variables) == (other.kind, other.variables)

    def __hash__(self) -> int:
        return hash((self.kind, self.variables))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "TypeConstraint(%r, %r)" % (self.kind, self.variables)


@dataclass(frozen=True)
class EventDiscoveryProblem:
    """The quadruple ``(S, alpha, E0, psi)``.

    ``candidates`` maps non-root variables to their allowed event types;
    a missing entry (or None value) leaves the variable unrestricted
    (the paper's ``psi = empty`` variant - any type occurring in the
    sequence may be assigned).  ``type_constraints`` optionally require
    groups of variables to share (or differ in) their assigned types
    (Section 6).
    """

    structure: EventStructure
    min_confidence: float
    reference_type: str
    candidates: Mapping[str, Optional[FrozenSet[str]]] = field(
        default_factory=dict
    )
    type_constraints: Tuple[TypeConstraint, ...] = ()

    def __post_init__(self) -> None:
        if not 0 <= self.min_confidence <= 1:
            raise ValueError("min_confidence must be within [0, 1]")
        unknown = set(self.candidates) - set(self.structure.variables)
        if unknown:
            raise ValueError("candidates for unknown variables %r" % unknown)
        if self.structure.root in self.candidates:
            raise ValueError(
                "the root variable is always assigned the reference type"
            )
        object.__setattr__(
            self, "type_constraints", tuple(self.type_constraints)
        )
        constrained = {
            variable
            for constraint in self.type_constraints
            for variable in constraint.variables
        }
        unknown = constrained - set(self.structure.variables)
        if unknown:
            raise ValueError(
                "type constraints on unknown variables %r" % unknown
            )

    def allowed_types(self) -> Dict[str, Optional[FrozenSet[str]]]:
        """Per-variable allowed types (root pinned to the reference)."""
        allowed: Dict[str, Optional[FrozenSet[str]]] = {
            self.structure.root: frozenset([self.reference_type])
        }
        for variable in self.structure.variables:
            if variable == self.structure.root:
                continue
            pool = self.candidates.get(variable)
            allowed[variable] = frozenset(pool) if pool is not None else None
        return allowed


@dataclass
class DiscoveryOutcome:
    """Solutions plus the per-step work statistics of the pipeline.

    ``parallelism`` describes how the TAG scan was executed when more
    than one worker was requested: ``workers`` (processes used),
    ``shards`` (root chunks), ``tasks`` (candidate groups x shards),
    ``batch_groups`` and ``executor`` - ``"pool"`` for forked workers,
    ``"inline"`` when the grid ran in-process (one task, or no fork).
    A serial scan runs the same task grid in-process with one worker,
    and its ``parallelism`` is None.  The field is excluded from
    serial-vs-parallel equivalence comparisons - everything else is
    bit-identical.
    """

    solutions: List[ComplexEventType]
    frequencies: Dict[ComplexEventType, float]
    stats: PruningStats
    automaton_starts: int = 0
    candidates_evaluated: int = 0
    parallelism: Optional[Dict[str, object]] = field(
        default=None, compare=False
    )

    def solution_assignments(self) -> List[Dict[str, str]]:
        """Plain dict form of the solutions, for display and tests."""
        return [dict(cet.assignment) for cet in self.solutions]


def candidate_assignments(
    problem: EventDiscoveryProblem,
    sequence: EventSequence,
    survivors: Optional[Dict[str, set]] = None,
    allowed_pairs: Optional[Dict[Tuple[str, str], set]] = None,
) -> Iterable[Dict[str, str]]:
    """Enumerate candidate assignments (optionally pre-screened).

    Follows the paper: only event types occurring in the sequence are
    considered.  ``survivors`` (per-variable) and ``allowed_pairs``
    (per-chain-pair) restrict the product when screening ran.
    """
    structure = problem.structure
    occurring = sequence.types()
    variables = [v for v in structure.variables if v != structure.root]
    pools = []
    allowed = problem.allowed_types()
    for variable in variables:
        if survivors is not None:
            pool = set(survivors.get(variable, ()))
        else:
            pool = (
                set(allowed[variable])
                if allowed[variable] is not None
                else set(occurring)
            )
            pool &= occurring
        if not pool:
            return
        pools.append(sorted(pool))
    for combo in itertools.product(*pools):
        assignment = dict(zip(variables, combo))
        assignment[structure.root] = problem.reference_type
        if allowed_pairs is not None:
            ok = all(
                (assignment[x], assignment[y]) in kept
                for (x, y), kept in allowed_pairs.items()
            )
            if not ok:
                continue
        if not all(
            constraint.is_satisfied(assignment)
            for constraint in problem.type_constraints
        ):
            continue
        yield assignment


def _frequency(
    matcher: TagMatcher,
    sequence: EventSequence,
    root_indices: Iterable[int],
    total_roots: int,
) -> Tuple[float, int]:
    """Fraction of reference occurrences anchoring a match."""
    hits = 0
    starts = 0
    with span("tag.match", total_roots=total_roots) as match_span:
        for index in root_indices:
            starts += 1
            if matcher.occurs_at(sequence, index):
                hits += 1
        match_span.set(starts=starts, hits=hits)
    if total_roots == 0:
        return 0.0, starts
    return hits / total_roots, starts


def naive_discover(
    problem: EventDiscoveryProblem,
    sequence: EventSequence,
    system: GranularitySystem,
    strict: bool = False,
) -> DiscoveryOutcome:
    """The paper's naive algorithm: every candidate, every root."""
    structure = problem.structure
    with span(
        "mine.naive",
        variables=len(structure.variables),
        events=len(sequence),
    ) as mine_span:
        roots = sequence.occurrence_indices(problem.reference_type)
        total = len(roots)
        stats = PruningStats(
            sequence_events_before=len(sequence),
            sequence_events_after=len(sequence),
            roots_before=total,
            roots_after=total,
        )
        outcome = DiscoveryOutcome(
            solutions=[], frequencies={}, stats=stats
        )
        if total > 0:
            for assignment in candidate_assignments(problem, sequence):
                cet = ComplexEventType(structure, assignment)
                matcher = TagMatcher(
                    build_tag(cet, system=system), strict=strict
                )
                outcome.candidates_evaluated += 1
                frequency, starts = _frequency(
                    matcher, sequence, roots, total
                )
                outcome.automaton_starts += starts
                if frequency > problem.min_confidence:
                    outcome.solutions.append(cet)
                    outcome.frequencies[cet] = frequency
        mine_span.set(
            candidates=outcome.candidates_evaluated,
            solutions=len(outcome.solutions),
        )
    _record_outcome(outcome)
    return outcome


def _record_outcome(outcome: DiscoveryOutcome) -> None:
    """Flush one discovery run's work counts to the registry."""
    _MINE_RUNS.inc()
    _CANDIDATES_EVALUATED.add(outcome.candidates_evaluated)
    _AUTOMATON_STARTS.add(outcome.automaton_starts)
    _SOLUTIONS.add(len(outcome.solutions))


def discover(
    problem: EventDiscoveryProblem,
    sequence: EventSequence,
    system: GranularitySystem,
    screen_depth: int = 2,
    strict: bool = False,
    engine: str = "auto",
    parallel: Optional[object] = None,
    shard_size: Optional[object] = "auto",
    anchor_screen: bool = True,
) -> DiscoveryOutcome:
    """The optimised pipeline (Section 5 steps 1-5).

    ``screen_depth`` 0 disables candidate screening, 1 enables the
    per-variable windows screen, 2 adds the sub-chain pair screen.

    ``parallel`` is the step-5 scan's worker count: an int, ``"auto"``
    (one per CPU), or None (serial).
    ``shard_size`` is roots per chunk of the scan's task grid
    (``"auto"``: one chunk when serial, else load-balanced).
    ``anchor_screen`` toggles the posting-list anchor viability filter.
    Results are bit-identical for any worker count and shard size.
    """
    # perf/inproc.py passes the ``engine`` that ``repro mine``'s parser
    # defaults to; propagation has one path, so "auto" is the only value.
    if engine != "auto":
        raise ValueError("engine must be 'auto', got %r" % (engine,))
    with span(
        "mine",
        variables=len(problem.structure.variables),
        events=len(sequence),
        screen_depth=screen_depth,
    ) as mine_span:
        outcome = _discover(
            problem,
            sequence,
            system,
            screen_depth,
            strict,
            parallel=parallel,
            shard_size=shard_size,
            anchor_screen=anchor_screen,
        )
        mine_span.set(
            consistent=outcome.stats.consistent,
            candidates=outcome.candidates_evaluated,
            automaton_starts=outcome.automaton_starts,
            solutions=len(outcome.solutions),
        )
    _record_outcome(outcome)
    return outcome


def _discover(
    problem: EventDiscoveryProblem,
    sequence: EventSequence,
    system: GranularitySystem,
    screen_depth: int,
    strict: bool,
    parallel: Optional[object] = None,
    shard_size: Optional[object] = "auto",
    anchor_screen: bool = True,
) -> DiscoveryOutcome:
    structure = problem.structure
    allowed = problem.allowed_types()
    roots_all = sequence.occurrence_indices(problem.reference_type)
    total = len(roots_all)
    stats = PruningStats(
        sequence_events_before=len(sequence), roots_before=total
    )
    outcome = DiscoveryOutcome(solutions=[], frequencies={}, stats=stats)
    if total == 0:
        stats.sequence_events_after = len(sequence)
        return outcome

    # Step 1: consistency gate.
    with span("mine.consistency_gate"):
        consistent, propagation = consistency_gate(structure, system)
    stats.consistent = consistent
    if not consistent:
        stats.sequence_events_after = len(sequence)
        return outcome
    windows = seconds_windows(propagation)

    # Step 2: sequence reduction.
    with span("mine.reduce", events_before=len(sequence)) as reduce_span:
        reduced = reduce_sequence(structure, sequence, allowed)
        stats.sequence_events_after = len(reduced)
        roots = list(reduced.occurrence_indices(problem.reference_type))

        # Step 3: reference-occurrence reduction.
        roots = filter_reference_occurrences(
            structure, reduced, roots, windows, allowed
        )
        reduce_span.set(
            events_after=len(reduced), roots_after=len(roots)
        )
    stats.roots_after = len(roots)
    if not roots:
        return outcome

    # Step 4: candidate screening.
    survivors = None
    allowed_pairs = None
    for variable in structure.variables:
        if variable == structure.root:
            continue
        pool = allowed[variable]
        stats.candidates_before[variable] = (
            len(pool & reduced.types())
            if pool is not None
            else len(reduced.types())
        )
    if screen_depth >= 1:
        with span("mine.screen", depth=1):
            survivors = screen_candidates(
                structure,
                reduced,
                roots,
                total,
                windows,
                allowed,
                problem.min_confidence,
            )
        stats.candidates_after_depth1 = {
            v: len(pool) for v, pool in survivors.items()
        }
        if any(not pool for pool in survivors.values()):
            return outcome
    if screen_depth >= 2 and survivors is not None:
        with span("mine.screen", depth=2):
            allowed_pairs = screen_candidate_pairs(
                propagation,
                reduced,
                roots,
                total,
                survivors,
                problem.reference_type,
                problem.min_confidence,
            )
        stats.pairs_screened = len(allowed_pairs)
        stats.pairs_kept = sum(len(kept) for kept in allowed_pairs.values())

    # Step 5: TAG scan over the surviving candidates and roots.
    from ..parallel.engine import parallel_scan, resolve_workers

    workers = resolve_workers(parallel)
    with span("mine.scan", roots=len(roots), workers=workers) as scan_span:
        candidates = list(
            candidate_assignments(
                problem,
                reduced,
                survivors=survivors,
                allowed_pairs=allowed_pairs,
            )
        )
        results, report = parallel_scan(
            reduced,
            system,
            structure,
            candidates,
            windows,
            roots,
            seconds_horizon(structure, windows),
            strict=strict,
            workers=workers,
            shard_size=shard_size,
            anchor_screen=anchor_screen,
        )
        if workers > 1:
            outcome.parallelism = report
        frequencies = frontier_frequencies(
            [result.hits for result in results], total
        )
        # Candidate-enumeration order, whichever executor ran the scan.
        for result, frequency in zip(results, frequencies):
            assignment = result.assignment
            cet = ComplexEventType(structure, assignment)
            outcome.candidates_evaluated += 1
            outcome.automaton_starts += result.starts
            frequent = frequency > problem.min_confidence
            with span(
                "mine.candidate",
                assignment=" ".join(
                    "%s=%s" % item for item in sorted(assignment.items())
                ),
            ) as candidate_span:
                candidate_span.set(
                    frequency=round(frequency, 6), frequent=frequent
                )
            if frequent:
                outcome.solutions.append(cet)
                outcome.frequencies[cet] = frequency
        scan_span.set(candidates=outcome.candidates_evaluated)
    return outcome
