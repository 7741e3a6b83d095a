"""Timed automata with granularities (TAGs) and matching (Section 4).

Exports the clock-constraint algebra, the TAG structure and run
semantics, the Theorem 3 builder from complex event types, the Theorem 4
online matcher, and the exact reference matcher used to validate the
construction.
"""

from .builder import TagBuild, build_tag, clock_name
from .dense import (
    BatchRuntime,
    DenseBatch,
    DenseTAG,
    compile_dense,
    compile_dense_batch,
)
from .clocks import (
    And,
    Atom,
    Clock,
    ClockConstraint,
    Not,
    Or,
    TrueConstraint,
    evaluate_clocks,
    within,
)
from .matching import MatchResult, TagMatcher, batch_matching_roots
from .streaming import Detection, StreamingMatcher
from .structmatch import count_occurrences, find_occurrence, occurs_at
from .tag import ANY, TAG, Configuration, Transition

__all__ = [
    "Clock",
    "ClockConstraint",
    "TrueConstraint",
    "Atom",
    "And",
    "Or",
    "Not",
    "within",
    "evaluate_clocks",
    "TAG",
    "Transition",
    "Configuration",
    "ANY",
    "TagBuild",
    "build_tag",
    "clock_name",
    "compile_dense",
    "compile_dense_batch",
    "DenseTAG",
    "DenseBatch",
    "BatchRuntime",
    "batch_matching_roots",
    "TagMatcher",
    "MatchResult",
    "StreamingMatcher",
    "Detection",
    "find_occurrence",
    "occurs_at",
    "count_occurrences",
]
