"""Incremental event discovery over live streams.

Batch discovery re-scans a stored sequence; this module maintains a
discovery problem's candidate frequencies *online*: one
:class:`~repro.automata.streaming.StreamingMatcher` per candidate
complex event type consumes each arriving event, and per-candidate
matched-anchor counts update as detections fire.  At any moment
:meth:`IncrementalDiscovery.solutions` reports the candidates currently
above the confidence threshold.

Candidates are fixed up front (from the problem's ``psi`` candidate
sets - the screening steps need a stored sequence, so unrestricted
variables are not supported here; pre-screen on a history window and
pass the survivors).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..automata.builder import build_tag
from ..automata.streaming import StreamingMatcher
from ..constraints.structure import ComplexEventType
from ..granularity.registry import GranularitySystem
from .discovery import EventDiscoveryProblem
from .events import Event
from .pruning import consistency_gate, seconds_horizon, seconds_windows


@dataclass
class CandidateState:
    """Live counters for one candidate complex event type."""

    pattern: ComplexEventType
    matcher: StreamingMatcher
    matched_anchors: int = 0

    def frequency(self, total_anchors: int) -> float:
        if total_anchors == 0:
            return 0.0
        return self.matched_anchors / total_anchors


class IncrementalDiscovery:
    """Maintain a discovery problem's answer over an event stream."""

    def __init__(
        self,
        problem: EventDiscoveryProblem,
        system: GranularitySystem,
        horizon_seconds: Optional[int] = None,
    ):
        self.problem = problem
        self.system = system
        structure = problem.structure
        allowed = problem.allowed_types()
        unrestricted = [
            variable
            for variable, pool in allowed.items()
            if pool is None
        ]
        if unrestricted:
            raise ValueError(
                "incremental discovery needs explicit candidate sets; "
                "unrestricted variables: %r (pre-screen on a history "
                "window first)" % (unrestricted,)
            )
        if horizon_seconds is None:
            consistent, result = consistency_gate(structure, self.system)
            if consistent:
                horizon_seconds = seconds_horizon(
                    structure, seconds_windows(result)
                )
        self.horizon_seconds = horizon_seconds
        self.candidates: List[CandidateState] = []
        import itertools

        variables = [
            v for v in structure.variables if v != structure.root
        ]
        pools = [sorted(allowed[v]) for v in variables]
        for combo in itertools.product(*pools):
            assignment = dict(zip(variables, combo))
            assignment[structure.root] = problem.reference_type
            if not all(
                constraint.is_satisfied(assignment)
                for constraint in problem.type_constraints
            ):
                continue
            pattern = ComplexEventType(structure, assignment)
            self.candidates.append(
                CandidateState(
                    pattern=pattern,
                    matcher=StreamingMatcher(
                        build_tag(pattern),
                        horizon_seconds=self.horizon_seconds,
                    ),
                )
            )
        self.total_anchors = 0
        self.events_processed = 0

    # ------------------------------------------------------------------
    def feed(self, etype: str, time: int) -> None:
        """Consume one event (non-decreasing timestamps)."""
        self.events_processed += 1
        if etype == self.problem.reference_type:
            self.total_anchors += 1
        for candidate in self.candidates:
            detections = candidate.matcher.feed(etype, time)
            candidate.matched_anchors += len(detections)

    def feed_sequence(self, events: Iterable[Event]) -> None:
        """Consume an iterable of events."""
        for event in events:
            self.feed(event.etype, event.time)

    # ------------------------------------------------------------------
    def frequencies(self) -> Dict[Tuple[Tuple[str, str], ...], float]:
        """Current frequency of every candidate, keyed by assignment."""
        return {
            tuple(sorted(candidate.pattern.assignment.items())): (
                candidate.frequency(self.total_anchors)
            )
            for candidate in self.candidates
        }

    def solutions(self) -> List[Tuple[ComplexEventType, float]]:
        """Candidates currently above the confidence threshold.

        Note: anchors whose windows are still open may yet complete, so
        a frequency can only grow until its anchors expire; treat the
        report as a monotone lower bound per anchor set.
        """
        result = []
        for candidate in self.candidates:
            frequency = candidate.frequency(self.total_anchors)
            if frequency > self.problem.min_confidence:
                result.append((candidate.pattern, frequency))
        result.sort(key=lambda pair: -pair[1])
        return result
