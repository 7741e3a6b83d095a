"""Approximate constraint propagation with granularities (Section 3.2).

The algorithm partitions the TCGs of an event structure into one group
per temporal type, runs STP path consistency inside each group, converts
every (closed) constraint of each group into every other feasible
granularity with the appendix A.1 algorithm, and repeats to fixpoint.

Guarantees (Theorem 2, all verified by the test suite):

* **sound** - every complex event matching the input structure matches
  the derived one;
* **terminating** - interval lengths shrink integrally;
* **polynomial** - ``O(n^5 |M|^2 w)`` in the worst case.

It is deliberately *incomplete*: Theorem 1 makes complete propagation
NP-hard, and Figure 1(b)'s month/year gadget (test suite, experiment X2)
exhibits the gap.

Two interchangeable engines implement the loop (``engine=`` parameter):

``python``
    the paper-faithful reference: rebuild and fully re-close every
    granularity group's STP each iteration;
``numpy`` / ``fallback``
    the fast path: per-group distance matrices persist across
    iterations, groups whose arcs did not tighten since their last
    closure are skipped outright, and tightened arcs are relaxed
    incrementally in ``O(n^2)`` per arc instead of a full ``O(n^3)``
    re-closure (``numpy`` additionally vectorises the full closures;
    ``fallback`` is the same fast path on pure Python);
``auto``
    the fast path whose full closures use numpy only where it is
    faster, on structures of at least ten variables (the STP ``auto``
    kernel); ``fallback`` when numpy is not importable.

The engines produce exactly equal derived intervals and consistency
verdicts - the invariant enforced case-by-case by the differential
oracle in ``tests/differential/`` - so callers may treat the engine
choice as a pure performance knob.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..granularity.base import TemporalType
from ..granularity.registry import GranularitySystem
from ..obs import counter, histogram, span
from .stp import (
    ENGINES,
    STP,
    EngineUnavailable,
    InconsistentSTP,
    resolve_kernel,
)
from .structure import EventStructure
from .tcg import TCG

Arc = Tuple[str, str]
Interval = Tuple[int, int]

# Process-wide propagation metrics (docs/OBSERVABILITY.md catalog).
# The per-call counters are added once per propagate() call, from the
# PropagationResult fields - so for any run the registry totals are
# exactly the sum of the per-call fields (the acceptance invariant the
# obs CLI test checks), and the result fields double as per-call views
# over the same counters.
_RUNS = counter("repro_propagation_runs_total", "propagate() calls")
_ITERATIONS = counter(
    "repro_propagation_iterations_total", "Fixpoint iterations"
)
_CLOSURES_FULL = counter(
    "repro_propagation_closures_full_total", "Full STP re-closures"
)
_CLOSURES_INCREMENTAL = counter(
    "repro_propagation_closures_incremental_total",
    "Incremental STP re-closures",
)
_CONVERSIONS = counter(
    "repro_propagation_conversions_total",
    "Attempted cross-granularity conversions",
)
_CACHE_HITS = counter(
    "repro_propagation_conversion_cache_hits_total",
    "Conversion cache hits attributed to propagation",
)
_CACHE_MISSES = counter(
    "repro_propagation_conversion_cache_misses_total",
    "Conversion cache misses attributed to propagation",
)
_INCONSISTENT = counter(
    "repro_propagation_inconsistent_total",
    "Propagations that refuted their structure",
)
_SECONDS = histogram(
    "repro_propagation_seconds", "propagate() wall time per call"
)


def resolve_engine(engine: str) -> str:
    """Normalise an engine name from :data:`~repro.constraints.stp.
    ENGINES`; ``auto`` becomes ``fallback`` when numpy is not
    importable.

    Raises :class:`~repro.constraints.stp.EngineUnavailable` when
    ``numpy`` is requested explicitly but not importable.
    """
    if engine == "auto":
        # The fast path over the STP ``auto`` kernel, which resolves to
        # plain ``python`` - the ``fallback`` engine - without numpy.
        return "fallback" if resolve_kernel("auto") == "python" else "auto"
    if engine not in ENGINES:
        raise ValueError(
            "unknown propagation engine %r (expected one of %r)"
            % (engine, ENGINES)
        )
    if engine == "numpy":
        resolve_kernel("numpy")  # raises EngineUnavailable when absent
    return engine


@dataclass
class PropagationResult:
    """Outcome of the approximate propagation.

    ``consistent`` is False only when an inconsistency was *detected*;
    True means "not refuted" (the check is sound, not complete).

    Work counters: ``conversions_performed`` counts *attempted*
    conversions (every source-interval/target-granularity pair the loop
    visited, whether or not the process-wide cache already knew the
    answer); ``conversion_cache_hits`` / ``conversion_cache_misses``
    split those attempts by cache outcome, so
    ``conversion_cache_misses`` is the number of conversions actually
    computed on behalf of this call.  ``closures_full`` and
    ``closures_incremental`` count STP re-closures by kind (the
    reference engine only ever performs full closures).
    """

    structure: EventStructure
    consistent: bool
    groups: Dict[str, Dict[Arc, Interval]]
    types: Dict[str, TemporalType]
    iterations: int = 0
    conversions_performed: int = 0
    system: Optional[GranularitySystem] = None
    engine: str = "python"
    conversion_cache_hits: int = 0
    conversion_cache_misses: int = 0
    closures_full: int = 0
    closures_incremental: int = 0

    def interval(self, x: str, y: str, label: str) -> Optional[Interval]:
        """Derived ``[lo, hi]`` for ``tick(y) - tick(x)`` in a granularity."""
        return self.groups.get(label, {}).get((x, y))

    def intervals(self, x: str, y: str) -> Dict[str, Interval]:
        """All derived intervals for the ordered pair, keyed by label."""
        result = {}
        for label, group in self.groups.items():
            interval = group.get((x, y))
            if interval is not None:
                result[label] = interval
        return result

    def derived_tcgs(self, x: str, y: str) -> List[TCG]:
        """The derived constraints on an ordered pair, as TCG objects."""
        return [
            TCG(lo, hi, self.types[label])
            for label, (lo, hi) in sorted(self.intervals(x, y).items())
        ]

    def minimal_derived_tcgs(self, x: str, y: str) -> List[TCG]:
        """The derived conjunction with provably redundant entries
        removed (see :mod:`repro.constraints.minimize`)."""
        from .minimize import minimal_tcg_set

        if self.system is None:
            return self.derived_tcgs(x, y)
        return minimal_tcg_set(self.derived_tcgs(x, y), self.system)

    def induced_substructure(
        self, variables: Sequence[str]
    ) -> Optional[EventStructure]:
        """The *induced approximated sub-structure* of Section 5.1.

        Arcs connect pairs (X, Y) from ``variables`` with a path X -> Y
        in the original structure and at least one (original or derived)
        constraint; each such arc carries all the derived TCGs.  Returns
        None when the chosen variables end up with no root reaching all
        of them (the paper requires connected sub-chains).
        """
        chosen = [v for v in self.structure.variables if v in set(variables)]
        constraints: Dict[Arc, List[TCG]] = {}
        for x in chosen:
            for y in chosen:
                if x == y or not self.structure.has_path(x, y):
                    continue
                tcgs = self.derived_tcgs(x, y)
                if tcgs:
                    constraints[(x, y)] = tcgs
        if not constraints and len(chosen) > 1:
            return None
        try:
            return EventStructure(chosen, constraints)
        except ValueError:
            return None

    def derived_structure(self) -> EventStructure:
        """The full derived structure S' = (W, A', Gamma')."""
        substructure = self.induced_substructure(self.structure.variables)
        assert substructure is not None  # the original root still reaches all
        return substructure


def _initial_groups(
    structure: EventStructure, system: GranularitySystem
) -> Tuple[Dict[str, Dict[Arc, Interval]], Dict[str, TemporalType]]:
    groups: Dict[str, Dict[Arc, Interval]] = {}
    types: Dict[str, TemporalType] = {}
    for arc, tcgs in structure.constraints.items():
        for constraint in tcgs:
            label = constraint.label
            types.setdefault(label, system.resolve(constraint.granularity))
            group = groups.setdefault(label, {})
            lo, hi = group.get(arc, (0, float("inf")))
            lo = max(lo, constraint.m)
            hi = min(hi, constraint.n)
            group[arc] = (lo, hi)
    return groups, types


def _close_group(
    variables: Sequence[str],
    group: Dict[Arc, Interval],
    kernel: str = "python",
) -> Optional[Dict[Arc, Interval]]:
    """STP closure of one granularity group; None when inconsistent."""
    stp = STP(variables, kernel=kernel)
    try:
        for (x, y), (lo, hi) in group.items():
            stp.add(x, y, lo, hi)
        stp.closure()
    except InconsistentSTP:
        return None
    return stp.finite_intervals()


class _PropagationSetup:
    """The state both engines share: groups, types, ordered pairs."""

    def __init__(
        self,
        structure: EventStructure,
        system: GranularitySystem,
        extra_granularities: Sequence[TemporalType],
        engine: str,
    ):
        groups, types = _initial_groups(structure, system)
        for extra in extra_granularities:
            resolved = system.resolve(extra)
            types.setdefault(resolved.label, resolved)
            groups.setdefault(resolved.label, {})
        self.groups = groups
        self.types = types
        self.labels = sorted(types)
        self.result = PropagationResult(
            structure=structure,
            consistent=True,
            groups=groups,
            types=types,
            system=system,
            engine=engine,
        )
        # A TCG [m, n]_mu asserts the time order t1 <= t2 in addition to
        # the tick distance, so a derived STP interval is a valid TCG
        # only for pairs ordered by the DAG (timestamps are
        # non-decreasing along paths).  Keeping reversed/unordered pairs
        # would be unsound.
        variables = structure.variables
        self.ordered_pairs = {
            (x, y)
            for x in variables
            for y in variables
            if x != y and structure.has_path(x, y)
        }


def _convert_step(
    setup: _PropagationSetup,
    system: GranularitySystem,
    pending: Optional[Dict[str, List[Tuple[Arc, Interval]]]] = None,
) -> Optional[bool]:
    """Step 2: cross-granularity conversion (shared by both engines).

    Merges every feasible conversion into the destination groups.
    Returns None when an inconsistency was detected (the caller must
    stop), otherwise whether any destination interval changed.  When
    ``pending`` is given, every tightened ``(arc, interval)`` is also
    recorded there per destination label (the fast path's incremental
    re-closure input).
    """
    result = setup.result
    groups = setup.groups
    types = setup.types
    changed = False
    for src_label in setup.labels:
        for dst_label in setup.labels:
            if src_label == dst_label:
                continue
            src_type = types[src_label]
            dst_type = types[dst_label]
            if not system.conversion_feasible(src_type, dst_type):
                continue
            dst_group = groups[dst_label]
            for arc, (lo, hi) in groups[src_label].items():
                outcome = system.convert(lo, hi, src_type, dst_type)
                result.conversions_performed += 1
                if outcome.empty:
                    result.consistent = False
                    return None
                if outcome.interval is None:
                    continue
                new_lo, new_hi = outcome.interval
                old = dst_group.get(arc)
                if old is not None:
                    new_lo = max(new_lo, old[0])
                    new_hi = min(new_hi, old[1])
                    if new_lo > new_hi:
                        result.consistent = False
                        return None
                if old is None or (new_lo, new_hi) != old:
                    dst_group[arc] = (new_lo, new_hi)
                    if pending is not None:
                        pending[dst_label].append((arc, (new_lo, new_hi)))
                    changed = True
    return changed


def _propagate_reference(
    setup: _PropagationSetup,
    system: GranularitySystem,
    max_iterations: int,
) -> PropagationResult:
    """The paper-faithful loop: full re-closure of every group, every
    iteration (pure Python)."""
    result = setup.result
    groups = setup.groups
    variables = setup.result.structure.variables
    for iteration in range(1, max_iterations + 1):
        result.iterations = iteration
        with span("propagate.iteration", iteration=iteration):
            # Step 1: path consistency inside each group.
            for label in setup.labels:
                with span("stp.close", granularity=label, kind="full"):
                    closed = _close_group(variables, groups[label])
                result.closures_full += 1
                if closed is None:
                    result.consistent = False
                    return result
                groups[label] = {
                    arc: interval
                    for arc, interval in closed.items()
                    if arc in setup.ordered_pairs
                }
            setup.result.groups = groups
            # Step 2: cross-granularity conversion.
            with span("propagate.convert", iteration=iteration):
                changed = _convert_step(setup, system)
            if changed is None or not changed:
                return result
    raise RuntimeError(
        "propagation did not converge within %d iterations; this "
        "contradicts Theorem 2 and indicates a conversion-table bug"
        % max_iterations
    )


def _propagate_fast(
    setup: _PropagationSetup,
    system: GranularitySystem,
    max_iterations: int,
    kernel: str,
) -> PropagationResult:
    """The fast path: persistent per-group matrices, clean-group
    skipping, and incremental re-closure of tightened arcs.

    Exactness relies on two provable facts about the reference loop
    (see ``tests/differential/``): every arc a group dict ever holds
    joins DAG-ordered variables whose closed interval is finite with a
    non-negative lower bound, hence survives the per-iteration
    filtering; and therefore the closure matrix of the filtered group
    equals the persisted closure matrix entry-for-entry, so relaxing
    only the arcs that tightened reproduces the reference's full
    re-closure result exactly.
    """
    result = setup.result
    groups = setup.groups
    variables = setup.result.structure.variables
    stps: Dict[str, STP] = {}
    pending: Dict[str, List[Tuple[Arc, Interval]]] = {
        label: [] for label in setup.labels
    }
    for iteration in range(1, max_iterations + 1):
        result.iterations = iteration
        with span("propagate.iteration", iteration=iteration):
            # Step 1: path consistency inside each group - full closure
            # the first time a group is seen, incremental afterwards,
            # skipped entirely when nothing tightened since the last
            # closure.
            for label in setup.labels:
                stp = stps.get(label)
                if stp is None:
                    stp = STP(variables, kernel=kernel)
                    try:
                        with span(
                            "stp.close", granularity=label, kind="full"
                        ):
                            for (x, y), (lo, hi) in groups[label].items():
                                stp.add(x, y, lo, hi)
                            stp.closure()
                    except InconsistentSTP:
                        result.consistent = False
                        return result
                    stps[label] = stp
                    result.closures_full += 1
                else:
                    updates = pending[label]
                    if not updates:
                        # Clean group: its dict already holds the
                        # filtered fixpoint of its own closure -
                        # nothing to do.
                        continue
                    try:
                        with span(
                            "stp.close",
                            granularity=label,
                            kind="incremental",
                            arcs=len(updates),
                        ):
                            stp.tighten_many(
                                [(arc, lo, hi) for arc, (lo, hi) in updates]
                            )
                    except InconsistentSTP:
                        result.consistent = False
                        return result
                    result.closures_incremental += 1
                    pending[label] = []
                groups[label] = {
                    arc: interval
                    for arc, interval in stp.finite_intervals().items()
                    if arc in setup.ordered_pairs
                }
            setup.result.groups = groups
            # Step 2: cross-granularity conversion, recording tightened
            # arcs for the next round's incremental re-closure.
            with span("propagate.convert", iteration=iteration):
                changed = _convert_step(setup, system, pending=pending)
            if changed is None or not changed:
                return result
    raise RuntimeError(
        "propagation did not converge within %d iterations; this "
        "contradicts Theorem 2 and indicates a conversion-table bug"
        % max_iterations
    )


def propagate(
    structure: EventStructure,
    system: GranularitySystem,
    extra_granularities: Sequence[TemporalType] = (),
    max_iterations: int = 10_000,
    engine: str = "auto",
) -> PropagationResult:
    """Run the Section 3.2 approximate propagation to fixpoint.

    ``extra_granularities`` adds target types beyond those appearing in
    the structure (the mining layer passes ``second`` here to obtain
    concrete scan windows).  ``engine`` selects the propagation engine
    (see the module docstring); every engine returns exactly the same
    intervals and consistency verdict.
    """
    resolved = resolve_engine(engine)
    setup = _PropagationSetup(
        structure, system, extra_granularities, resolved
    )
    cache = system.conversion_cache
    before = cache.snapshot()
    started = time.perf_counter()
    result = setup.result
    with span(
        "propagate",
        engine=resolved,
        variables=len(structure.variables),
        granularities=len(setup.labels),
    ) as propagate_span:
        try:
            if not setup.groups:
                return result
            if resolved == "python":
                result = _propagate_reference(setup, system, max_iterations)
            else:
                kernel = "python" if resolved == "fallback" else resolved
                result = _propagate_fast(
                    setup, system, max_iterations, kernel
                )
            return result
        finally:
            after = cache.snapshot()
            result.conversion_cache_hits = after.hits - before.hits
            result.conversion_cache_misses = after.misses - before.misses
            propagate_span.set(
                iterations=result.iterations,
                consistent=result.consistent,
            )
            # Mirror the per-call counters into the process-wide
            # registry; the PropagationResult fields stay the per-call
            # views over exactly these increments.
            _RUNS.inc()
            _ITERATIONS.add(result.iterations)
            _CLOSURES_FULL.add(result.closures_full)
            _CLOSURES_INCREMENTAL.add(result.closures_incremental)
            _CONVERSIONS.add(result.conversions_performed)
            _CACHE_HITS.add(result.conversion_cache_hits)
            _CACHE_MISSES.add(result.conversion_cache_misses)
            if not result.consistent:
                _INCONSISTENT.inc()
            _SECONDS.observe(time.perf_counter() - started)


def check_consistency_approx(
    structure: EventStructure,
    system: GranularitySystem,
    engine: str = "auto",
) -> bool:
    """Sound (incomplete) consistency check: False means *proven*
    inconsistent, True means not refuted."""
    return propagate(structure, system, engine=engine).consistent
