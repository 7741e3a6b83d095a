"""Plain-text reports for discovery outcomes and structure analyses.

Formatting helpers shared by the CLI, the examples and interactive use:
everything returns a string (no printing), fixed-width layout, no
third-party dependencies.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..constraints.analysis import TightnessRow
from ..constraints.propagation import PropagationResult
from .discovery import DiscoveryOutcome


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]]
) -> str:
    """A minimal fixed-width table (left-aligned, two-space gutters)."""
    cells = [[str(value) for value in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in cells))
        if cells
        else len(headers[i])
        for i in range(len(headers))
    ]

    def line(values):
        return "  ".join(
            value.ljust(widths[i]) for i, value in enumerate(values)
        ).rstrip()

    out = [line(headers), line("-" * width for width in widths)]
    out.extend(line(row) for row in cells)
    return "\n".join(out)


def discovery_report(outcome: DiscoveryOutcome) -> str:
    """Solutions plus the per-step pipeline statistics."""
    sections: List[str] = []
    if not outcome.stats.consistent:
        return "structure is inconsistent; nothing to mine"
    if outcome.solutions:
        rows = []
        for cet in outcome.solutions:
            assignment = ", ".join(
                "%s=%s" % (variable, cet.assignment[variable])
                for variable in cet.structure.variables
            )
            rows.append(
                ("%.3f" % outcome.frequencies[cet], assignment)
            )
        sections.append(format_table(("freq", "assignment"), rows))
    else:
        sections.append("no complex event type exceeded the threshold")
    stats = outcome.stats
    rows = [
        ("events", stats.sequence_events_before, stats.sequence_events_after),
        ("anchors", stats.roots_before, stats.roots_after),
    ]
    for variable in sorted(stats.candidates_before):
        rows.append(
            (
                "candidates[%s]" % variable,
                stats.candidates_before[variable],
                stats.candidates_after_depth1.get(
                    variable, stats.candidates_before[variable]
                ),
            )
        )
    sections.append(format_table(("stage", "before", "after"), rows))
    sections.append(
        "candidate types scanned: %d   automaton starts: %d"
        % (outcome.candidates_evaluated, outcome.automaton_starts)
    )
    return "\n\n".join(sections)


def propagation_report(result: PropagationResult) -> str:
    """The derived constraint network, one row per ordered pair."""
    if not result.consistent:
        return "INCONSISTENT (refuted after %d iterations)" % result.iterations
    structure = result.structure
    rows = []
    for x in structure.variables:
        for y in structure.variables:
            if x == y or not structure.has_path(x, y):
                continue
            tcgs = result.derived_tcgs(x, y)
            if tcgs:
                rows.append(
                    ("%s -> %s" % (x, y), " & ".join(str(c) for c in tcgs))
                )
    header = (
        "consistent (fixpoint after %d iterations, %d conversions "
        "attempted: %d cached, %d computed)"
        % (
            result.iterations,
            result.conversions_performed,
            result.conversion_cache_hits,
            result.conversion_cache_misses,
        )
    )
    return header + "\n" + format_table(("pair", "derived TCGs"), rows)


def tightness_table(rows: Sequence[TightnessRow]) -> str:
    """Approximate vs exact minimal intervals, flagged when loose."""
    formatted = []
    for row in rows:
        formatted.append(
            (
                "%s -> %s" % row.pair,
                _interval(row.approximate),
                _interval(row.exact),
                "tight" if row.is_tight else "slack=%s" % row.slack,
            )
        )
    return format_table(
        ("pair", "approximate", "exact", "verdict"), formatted
    )


def _interval(value: Optional[tuple]) -> str:
    if value is None:
        return "-"
    return "[%d, %d]" % value
