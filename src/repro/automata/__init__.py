"""Timed automata with granularities (TAGs) and matching (Section 4).

Exports the clock-constraint algebra, the TAG structure and run
semantics, the Theorem 3 builder from complex event types, the Theorem 4
online matcher, and the exact reference matcher used to validate the
construction.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "Clock": "clocks",
    "ClockConstraint": "clocks",
    "TrueConstraint": "clocks",
    "Atom": "clocks",
    "And": "clocks",
    "Or": "clocks",
    "Not": "clocks",
    "within": "clocks",
    "evaluate_clocks": "clocks",
    "TAG": "tag",
    "Transition": "tag",
    "Configuration": "tag",
    "ANY": "tag",
    "TagBuild": "builder",
    "build_tag": "builder",
    "clock_name": "builder",
    "compile_dense": "dense",
    "compile_dense_batch": "dense",
    "DenseTAG": "dense",
    "DenseBatch": "dense",
    "BatchRuntime": "dense",
    "TagMatcher": "matching",
    "MatchResult": "matching",
    "StreamingMatcher": "streaming",
    "Detection": "streaming",
    "find_occurrence": "structmatch",
    "occurs_at": "structmatch",
    "count_occurrences": "structmatch",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
