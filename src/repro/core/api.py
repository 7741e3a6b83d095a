"""Convenience entry points tying the layers together."""

from __future__ import annotations

from typing import Dict, FrozenSet, Mapping, Optional

from ..automata.builder import TagBuild, build_tag
from ..automata.matching import TagMatcher
from ..constraints.propagation import propagate
from ..constraints.structure import ComplexEventType, EventStructure
from ..granularity.registry import GranularitySystem, standard_system
from ..mining.discovery import (
    DiscoveryOutcome,
    EventDiscoveryProblem,
    discover,
)
from ..mining.events import EventSequence
from ..mining.pruning import (
    candidate_requirements,
    consistency_gate,
    seconds_horizon,
    seconds_windows,
)


def check_consistency(
    structure: EventStructure,
    system: Optional[GranularitySystem] = None,
) -> bool:
    """Sound consistency check via approximate propagation (Theorem 2).

    False means the structure is *proven* inconsistent (safe to discard
    before mining); True means not refuted - the exact check is NP-hard
    (Theorem 1), see :func:`repro.constraints.check_consistency_exact`.
    """
    system = system if system is not None else standard_system()
    return propagate(structure, system).consistent


def compile_pattern(
    structure: EventStructure,
    assignment: Mapping[str, str],
    system: Optional[GranularitySystem] = None,
) -> TagMatcher:
    """Compile a complex event type into a ready-to-run TAG matcher.

    A seconds horizon is derived by propagation when every variable has
    a finite window, so matching stops scanning as early as possible;
    the same windows become anchor requirements, so
    :meth:`~repro.automata.matching.TagMatcher.matching_roots`
    enumerates only anchors the posting-list index cannot refute.
    """
    system = system if system is not None else standard_system()
    cet = ComplexEventType(structure, assignment)
    build: TagBuild = build_tag(cet, system=system)
    consistent, result = consistency_gate(structure, system)
    windows = seconds_windows(result) if consistent else {}
    return TagMatcher(
        build,
        horizon_seconds=seconds_horizon(structure, windows),
        anchor_requirements=candidate_requirements(
            assignment, windows, structure.root
        ),
    )


def stream_pattern(
    structure: EventStructure,
    assignment: Mapping[str, str],
    system: Optional[GranularitySystem] = None,
    max_lateness: Optional[int] = None,
    overflow_policy: str = "raise",
    max_live_anchors: int = 10_000,
):
    """Compile a pattern into an online :class:`StreamingMatcher`.

    The anchor-retirement horizon is derived by propagation like
    :func:`compile_pattern`'s scan horizon.

    The resilience knobs pass straight through to the matcher:
    ``max_lateness`` enables the reorder buffer (tolerate out-of-order
    events up to that many seconds late), ``overflow_policy`` picks
    the degradation behaviour when live anchors exceed
    ``max_live_anchors`` (``raise`` | ``shed-oldest`` |
    ``shed-newest`` | ``sample``).  See docs/RESILIENCE.md.
    """
    from ..automata.streaming import StreamingMatcher

    batch = compile_pattern(structure, assignment, system)
    return StreamingMatcher(
        batch.build,
        horizon_seconds=batch.horizon_seconds,
        max_lateness=max_lateness,
        overflow_policy=overflow_policy,
        max_live_anchors=max_live_anchors,
    )


def count_pattern(
    matcher: TagMatcher, sequence: EventSequence
) -> int:
    """Root occurrences of the matcher's pattern in a sequence."""
    return matcher.count_occurrences(sequence)


def pattern_frequency(
    matcher: TagMatcher, sequence: EventSequence
) -> float:
    """The paper's frequency: matched roots / reference occurrences."""
    total = sequence.count(matcher.build.root_symbol)
    if total == 0:
        return 0.0
    return matcher.count_occurrences(sequence) / total


def mine(
    structure: EventStructure,
    reference_type: str,
    sequence: EventSequence,
    min_confidence: float,
    candidates: Optional[Mapping[str, FrozenSet[str]]] = None,
    system: Optional[GranularitySystem] = None,
) -> DiscoveryOutcome:
    """Solve an event-discovery problem with the optimised pipeline."""
    system = system if system is not None else standard_system()
    problem = EventDiscoveryProblem(
        structure=structure,
        min_confidence=min_confidence,
        reference_type=reference_type,
        candidates=dict(candidates) if candidates else {},
    )
    return discover(problem, sequence, system)
