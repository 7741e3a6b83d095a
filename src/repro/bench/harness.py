"""The X1-X18 regression harness behind ``repro bench``.

Unlike the pytest-benchmark suites in ``benchmarks/`` (which exist to
*regenerate paper artifacts* with statistical care), this module is a
fast, dependency-free sweep of the same experiments designed for
regression gating: each experiment runs a small pinned workload a few
times, records the median wall time plus its work counters, and the
result is written as a ``BENCH_*.json`` file that later runs (or CI)
compare against with a configurable tolerance.

Two profiles are provided: ``quick`` (seconds, the CI gate) and
``full`` (larger workloads for local investigation).  Workloads are
pinned by seed, so counter columns are bitwise reproducible; wall times
are machine-dependent, which is why the CI gate compares two runs from
the *same* machine rather than a checked-in timing.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..constraints import (
    TCG,
    ComplexEventType,
    EventStructure,
    propagate,
)
from ..constraints.propagation import resolve_engine
from ..granularity import GranularitySystem, standard_system
from ..obs import (
    Tracer,
    activate_tracer,
    counter_deltas,
    metrics_snapshot,
    span,
    write_trace,
)

#: Payload format version (bump when the JSON layout changes).
SCHEMA_VERSION = 1

#: repeats per experiment, and the scale knob each workload interprets.
PROFILES: Dict[str, Dict[str, int]] = {
    "quick": {"repeats": 3, "scale": 1},
    "full": {"repeats": 7, "scale": 2},
}


class BenchmarkRegression(RuntimeError):
    """Raised (by the CLI path) when a run regresses past tolerance."""


@dataclass
class _Workload:
    """One prepared experiment: a closure to time plus fixed counters."""

    run: Callable[[], Dict[str, object]]


def _figure_1a(system: GranularitySystem) -> EventStructure:
    bday = system.get("b-day")
    hour = system.get("hour")
    week = system.get("week")
    return EventStructure(
        ["X0", "X1", "X2", "X3"],
        {
            ("X0", "X1"): [TCG(1, 1, bday)],
            ("X1", "X3"): [TCG(0, 1, week)],
            ("X0", "X2"): [TCG(0, 5, bday)],
            ("X2", "X3"): [TCG(0, 8, hour)],
        },
    )


def _figure_1b(system: GranularitySystem) -> EventStructure:
    month = system.get("month")
    year = system.get("year")
    return EventStructure(
        ["X0", "X1", "X2", "X3"],
        {
            ("X0", "X1"): [TCG(11, 11, month), TCG(0, 0, year)],
            ("X0", "X2"): [TCG(0, 12, month)],
            ("X2", "X3"): [TCG(11, 11, month), TCG(0, 0, year)],
        },
    )


def _example1_cet(system: GranularitySystem) -> ComplexEventType:
    return ComplexEventType(
        _figure_1a(system),
        {
            "X0": "IBM-rise",
            "X1": "IBM-earnings-report",
            "X2": "HP-rise",
            "X3": "IBM-fall",
        },
    )


def _random_dag(
    n: int, system: GranularitySystem, rng: random.Random
) -> EventStructure:
    """The X4 workload shape: rooted DAG, ~1.5 n arcs, 4 granularities."""
    labels = ["hour", "day", "week", "b-day"]
    names = ["V%d" % i for i in range(n)]
    constraints = {}
    for i in range(1, n):
        parent = names[rng.randrange(0, i)]
        m = rng.randrange(0, 3)
        constraints[(parent, names[i])] = [
            TCG(m, m + rng.randrange(0, 4), system.get(rng.choice(labels)))
        ]
    for _ in range(n // 2):
        a, b = sorted(rng.sample(range(n), 2))
        arc = (names[a], names[b])
        if arc not in constraints:
            constraints[arc] = [TCG(0, 30 * n, system.get("day"))]
    return EventStructure(names, constraints)


def _consistent_random_dag(
    n: int, system: GranularitySystem, rng: random.Random
) -> EventStructure:
    for _ in range(50):
        structure = _random_dag(n, system, rng)
        if propagate(structure, system, engine="python").consistent:
            return structure
    raise RuntimeError("no consistent random structure in 50 draws")


def _planted_workload(
    system: GranularitySystem, n_roots: int, seed: int
):
    from ..mining.generator import planted_sequence

    cet = _example1_cet(system)
    sequence, _ = planted_sequence(
        cet,
        system,
        n_roots=n_roots,
        confidence=0.9,
        rng=random.Random(seed),
        noise_types=["HP-fall", "DEC-rise", "DEC-fall", "SUN-rise"],
    )
    return cet, sequence


# ----------------------------------------------------------------------
# Experiment definitions
# ----------------------------------------------------------------------
def _x1(system, engine, scale) -> _Workload:
    """Figure 1(a) propagation (the Section 5.1 worked numbers)."""
    structure = _figure_1a(system)

    def run():
        result = propagate(structure, system, engine=engine)
        return {
            "iterations": result.iterations,
            "conversions": result.conversions_performed,
            "cache_hits": result.conversion_cache_hits,
        }

    return _Workload(run)


def _x2(system, engine, scale) -> _Workload:
    """Figure 1(b): the gadget propagation provably cannot refute."""
    structure = _figure_1b(system)

    def run():
        result = propagate(structure, system, engine=engine)
        return {
            "iterations": result.iterations,
            "consistent": result.consistent,
        }

    return _Workload(run)


def _x3(system, engine, scale) -> _Workload:
    """A small exact consistency search (the Theorem 1 machinery)."""
    from ..constraints import check_consistency_exact
    from ..granularity.gregorian import SECONDS_PER_DAY

    structure = _figure_1a(system)

    def run():
        report = check_consistency_exact(
            structure, system, window_seconds=30 * SECONDS_PER_DAY
        )
        return {"consistent": report.consistent}

    return _Workload(run)


def _x4(system, engine, scale) -> _Workload:
    """Propagation on a random 48/64-node DAG: the fast-path showcase.

    Times the selected engine but also medians the pure-Python
    reference on the same structure, so the payload records the
    engine's speedup (the PR-2 acceptance number).
    """
    n = 48 * scale
    structure = _consistent_random_dag(n, system, random.Random(n))

    def run():
        reference_times = []
        for _ in range(3):
            start = time.perf_counter()
            propagate(structure, system, engine="python")
            reference_times.append(time.perf_counter() - start)
        start = time.perf_counter()
        result = propagate(structure, system, engine=engine)
        fast_seconds = time.perf_counter() - start
        reference_seconds = statistics.median(reference_times)
        return {
            "n_variables": n,
            "iterations": result.iterations,
            "closures_full": result.closures_full,
            "closures_incremental": result.closures_incremental,
            "reference_median_seconds": reference_seconds,
            "engine_seconds": fast_seconds,
            "speedup_vs_reference": (
                reference_seconds / fast_seconds if fast_seconds else 0.0
            ),
        }

    return _Workload(run)


def _x5(system, engine, scale) -> _Workload:
    """TAG construction for the Example 1 pattern (Theorem 3)."""
    from ..automata.builder import build_tag

    cet = _example1_cet(system)

    def run():
        build = build_tag(cet, system=system)
        return {
            "states": len(build.tag.states),
            "transitions": len(build.tag.transitions),
        }

    return _Workload(run)


def _x6(system, engine, scale) -> _Workload:
    """TAG matching over a planted log (Theorem 4)."""
    from ..automata.builder import build_tag
    from ..automata.matching import TagMatcher

    cet, sequence = _planted_workload(system, n_roots=10 * scale, seed=6)
    matcher = TagMatcher(build_tag(cet, system=system))

    def run():
        return {"matches": matcher.count_occurrences(sequence)}

    return _Workload(run)


def _x7(system, engine, scale) -> _Workload:
    """The optimised discovery pipeline (Section 5 steps 1-5)."""
    from ..mining.discovery import EventDiscoveryProblem, discover

    cet, sequence = _planted_workload(system, n_roots=10 * scale, seed=7)

    def run():
        problem = EventDiscoveryProblem(
            structure=cet.structure,
            min_confidence=0.5,
            reference_type="IBM-rise",
        )
        outcome = discover(problem, sequence, system, engine=engine)
        return {
            "solutions": len(outcome.solutions),
            "candidates_evaluated": outcome.candidates_evaluated,
            "automaton_starts": outcome.automaton_starts,
        }

    return _Workload(run)


def _x8(system, engine, scale) -> _Workload:
    """The naive baseline on the same problem (the X7 contrast)."""
    from ..mining.discovery import EventDiscoveryProblem, naive_discover

    cet, sequence = _planted_workload(system, n_roots=6 * scale, seed=8)

    def run():
        problem = EventDiscoveryProblem(
            structure=cet.structure,
            min_confidence=0.5,
            reference_type="IBM-rise",
        )
        outcome = naive_discover(problem, sequence, system)
        return {
            "solutions": len(outcome.solutions),
            "candidates_evaluated": outcome.candidates_evaluated,
        }

    return _Workload(run)


def _x9(system, engine, scale) -> _Workload:
    """Examples 1 and 2 end to end via the top-level API."""
    from ..core.api import mine

    cet, sequence = _planted_workload(system, n_roots=10 * scale, seed=9)

    def run():
        outcome = mine(
            cet.structure,
            "IBM-rise",
            sequence,
            min_confidence=0.5,
            engine=engine,
        )
        return {"solutions": len(outcome.solutions)}

    return _Workload(run)


def _x10(system, engine, scale) -> _Workload:
    """The sharded-mining showcase.

    Times the pre-index serial scan (anchor screening off, one
    process) against the indexed engine asked for ``parallel=4`` on
    the same discovery problem, asserting the outcomes agree; the
    payload records both wall times and their ratio.  The candidate
    pool is left wide (low confidence threshold, depth-1 screening
    only) so the step-5 TAG scan dominates.

    The parallel arm does not fork.  Its candidates (720 on the quick
    profile) share one clock signature and bank into one group, and
    the auto shard size plans ``ceil(16 / candidates)`` = 1 shard, so
    the grid is one task and runs in-process: the payload reads
    ``workers: 1, shards: 1``, and the speedup is the anchor screen's
    and the bank's, not the pool's.
    Planning shards by the group count instead forked 4 workers over 13
    shards and roughly doubled this arm's time on a 2-vCPU host
    (0.39 s to 0.76 s, medians of 4 alternating runs; see
    :func:`~repro.parallel.shards.resolve_shard_size`).
    """
    from ..mining.discovery import EventDiscoveryProblem, discover
    from ..mining.generator import planted_sequence

    cet = _example1_cet(system)
    sequence, _ = planted_sequence(
        cet,
        system,
        n_roots=60 * scale,
        confidence=0.6,
        rng=random.Random(10),
        noise_types=[
            "HP-fall",
            "DEC-rise",
            "DEC-fall",
            "SUN-rise",
            "MSFT-rise",
            "MSFT-fall",
        ],
        noise_events_per_root=6,
    )
    problem = EventDiscoveryProblem(
        structure=cet.structure,
        min_confidence=0.05,
        reference_type="IBM-rise",
    )

    def run():
        start = time.perf_counter()
        reference = discover(
            problem,
            sequence,
            system,
            screen_depth=1,
            engine=engine,
            anchor_screen=False,
        )
        serial_seconds = time.perf_counter() - start
        start = time.perf_counter()
        outcome = discover(
            problem,
            sequence,
            system,
            screen_depth=1,
            engine=engine,
            parallel=4,
        )
        parallel_seconds = time.perf_counter() - start
        report = outcome.parallelism or {}
        return {
            "solutions": len(outcome.solutions),
            "candidates_evaluated": outcome.candidates_evaluated,
            "workers": report.get("workers", 1),
            "shards": report.get("shards", 0),
            "identical_to_serial": (
                outcome.solution_assignments()
                == reference.solution_assignments()
                and sorted(outcome.frequencies.values())
                == sorted(reference.frequencies.values())
            ),
            "serial_median_seconds": serial_seconds,
            "parallel_seconds": parallel_seconds,
            "speedup_vs_serial": (
                serial_seconds / parallel_seconds if parallel_seconds else 0.0
            ),
        }

    return _Workload(run)


def _x11(system, engine, scale) -> _Workload:
    """Store-scale mining: a generated 10^5-event store end to end.

    Builds an :class:`~repro.store.EventStore` of 100k x scale events
    (planted hour-granularity pattern, rare decoy candidates, heavy
    background noise) and mines it through the parallel engine - the
    posting-list index absorbs the store size, sequence reduction
    strips the noise, and the shard planner spreads the scan.
    """
    from ..mining.discovery import EventDiscoveryProblem
    from ..store import EventStore

    hour = system.get("hour")
    structure = EventStructure(
        ["X0", "X1", "X2"],
        {
            ("X0", "X1"): [TCG(1, 2, hour)],
            ("X1", "X2"): [TCG(0, 3, hour)],
        },
    )
    rng = random.Random(11)
    n_roots = 2000 * scale
    n_events = 100_000 * scale
    span_seconds = n_roots * 7200
    events = []
    for index in range(n_roots):
        t = index * 7200
        events.append(("EV-A", t))
        if rng.random() < 0.7:
            events.append(("EV-B", t + 3600 + rng.randrange(0, 3600)))
            events.append(("EV-C", t + 7200 + rng.randrange(0, 7200)))
    for _ in range(800 * scale):
        events.append(("EV-D", rng.randrange(0, span_seconds)))
        events.append(("EV-E", rng.randrange(0, span_seconds)))
    noise_types = ["BG1", "BG2", "BG3", "BG4", "BG5"]
    while len(events) < n_events:
        events.append(
            (rng.choice(noise_types), rng.randrange(0, span_seconds))
        )
    store = EventStore()
    store.extend(sorted(events, key=lambda event: event[1]))
    problem = EventDiscoveryProblem(
        structure=structure,
        min_confidence=0.5,
        reference_type="EV-A",
        candidates={
            "X1": frozenset(["EV-B", "EV-D"]),
            "X2": frozenset(["EV-C", "EV-E"]),
        },
    )

    def run():
        outcome = store.mine(problem, system, engine=engine, parallel=4)
        report = outcome.parallelism or {}
        return {
            "store_events": len(store),
            "events_after_reduction": outcome.stats.sequence_events_after,
            "roots": outcome.stats.roots_after,
            "solutions": len(outcome.solutions),
            "automaton_starts": outcome.automaton_starts,
            "workers": report.get("workers", 1),
            "shards": report.get("shards", 0),
        }

    return _Workload(run)


def _x12(system, engine, scale) -> _Workload:
    """Ablation: propagation with a cold vs the warm conversion cache."""
    from ..granularity.convcache import ConversionCache

    structure = _consistent_random_dag(24 * scale, system, random.Random(10))

    def run():
        cold_system = standard_system(cache=ConversionCache())
        cold = propagate(structure, cold_system, engine=engine)
        warm = propagate(structure, cold_system, engine=engine)
        return {
            "cold_cache_misses": cold.conversion_cache_misses,
            "warm_cache_misses": warm.conversion_cache_misses,
            "warm_cache_hits": warm.conversion_cache_hits,
        }

    return _Workload(run)


def _x13(system, engine, scale) -> _Workload:
    """Cold size-table construction: compiled normal form vs sweep.

    A second-resolution periodic type (960 telemetry windows per day)
    put through the cold path every table pays once per process or
    fork-pool worker: build the table, answer a spread of
    minsize/maxsize/mingap queries and two searches.  Every probed k
    stays inside the sweep's exact region, so the two backends must
    agree bit for bit (``identical_to_sweep``); the compiled backend
    skips the 3-periods-plus-two boundary scan entirely (structural
    lowering) and answers each residue from the doubled boundary
    arrays (the PR-5 acceptance number).
    """
    from ..granularity.normalform import CompiledSizeTable
    from ..granularity.periodic import PeriodicPatternType
    from ..granularity.sizes import SizeTable

    segments = 960 * scale
    ks = (1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610,
          960, 1500, 1900)

    def make_type():
        return PeriodicPatternType(
            "telemetry-90s",
            86400 * scale,
            [(i * 90, 40) for i in range(segments)],
        )

    def query(table):
        out = []
        for k in ks:
            if k >= 3 * segments:
                continue
            out.append(table.minsize(k))
            out.append(table.maxsize(k))
            out.append(table.mingap(k))
        out.append(table.min_k_with_minsize_at_least(43_200))
        out.append(table.min_k_with_maxsize_greater(20_000))
        return out

    def run():
        start = time.perf_counter()
        sweep_table = SizeTable(make_type())
        sweep_values = query(sweep_table)
        sweep_seconds = time.perf_counter() - start
        start = time.perf_counter()
        compiled_table = CompiledSizeTable(make_type())
        compiled_values = query(compiled_table)
        compiled_seconds = time.perf_counter() - start
        return {
            "period_ticks": segments,
            "queries": len(sweep_values),
            "identical_to_sweep": sweep_values == compiled_values,
            "sweep_seconds": sweep_seconds,
            "compiled_seconds": compiled_seconds,
            "speedup_vs_sweep": (
                sweep_seconds / compiled_seconds if compiled_seconds else 0.0
            ),
            "sweep_probe_stats": sweep_table.probe_stats(),
            "compiled_probe_stats": compiled_table.probe_stats(),
        }

    return _Workload(run)


def _x14(system, engine, scale) -> _Workload:
    """Strict TAG matching with second-granularity clocks.

    Every event of a strict-mode run pays one coverage check and one
    distance per clock; with a second-resolution periodic clock the
    reference pass (the window wrapped in
    :class:`~repro.bench.reference.Unlowered`, so it takes the
    fallback route: the sweep size table and the type's own
    ``tick_of``) walks the pattern per event, while the production
    pass answers by bisection over one period of boundary offsets.
    Both passes must agree on every match.
    """
    from ..automata.builder import build_tag
    from ..automata.matching import TagMatcher
    from ..granularity.convcache import ConversionCache
    from ..granularity.periodic import PeriodicPatternType
    from ..mining.events import EventSequence
    from .reference import Unlowered

    window = PeriodicPatternType(
        "obs-window", 3600, [(i * 90, 40) for i in range(40)]
    )

    def build(reference):
        bench_system = standard_system(cache=ConversionCache())
        clock = bench_system.register(
            Unlowered(window) if reference else window
        )
        structure = EventStructure(
            ["X0", "X1", "X2"],
            {
                ("X0", "X1"): [TCG(0, 6, clock)],
                ("X1", "X2"): [TCG(0, 12, clock)],
            },
        )
        cet = ComplexEventType(
            structure, {"X0": "probe", "X1": "echo", "X2": "ack"}
        )
        return TagMatcher(
            build_tag(cet, system=bench_system), strict=True
        )

    rng = random.Random(14)
    events = []
    for index in range(300 * scale):
        t = index * 450
        events.append(("probe", t))
        events.append(("echo", t + 90 + rng.randrange(0, 180)))
        events.append(("ack", t + 270 + rng.randrange(0, 120)))
    sequence = EventSequence(sorted(events, key=lambda event: event[1]))

    def timed_pass(reference):
        matcher = build(reference)
        start = time.perf_counter()
        matches = matcher.count_occurrences(sequence)
        return matches, time.perf_counter() - start

    def run():
        sweep_matches, sweep_seconds = timed_pass(True)
        compiled_matches, compiled_seconds = timed_pass(False)
        return {
            "events": len(sequence),
            "matches": compiled_matches,
            "identical_to_sweep": compiled_matches == sweep_matches,
            "sweep_seconds": sweep_seconds,
            "compiled_seconds": compiled_seconds,
            "speedup_vs_sweep": (
                sweep_seconds / compiled_seconds if compiled_seconds else 0.0
            ),
        }

    return _Workload(run)


def _x15(system, engine, scale) -> _Workload:
    """Multi-tenant service throughput under eviction churn.

    ``500 * scale`` tenants (1k at the full profile) round-robin one
    three-event chain each through the detection service with only 32
    resident sessions, so nearly every event lands on an evicted
    session: the workload measures the checkpoint / rehydrate cycle
    end to end against the in-memory store.  Every tenant must finish
    with exactly one detection - the bit-identity contract holds at
    fleet scale, not just in the unit tests.
    """
    from ..automata.builder import build_tag
    from ..service import (
        MemoryCheckpointStore,
        ServiceConfig,
        serve_events,
    )

    hour = system.get("hour")
    structure = EventStructure(
        ["A", "B", "C"],
        {
            ("A", "B"): [TCG(0, 2, hour)],
            ("B", "C"): [TCG(0, 2, hour)],
        },
    )
    cet = ComplexEventType(structure, {"A": "a", "B": "b", "C": "c"})
    tenants = 500 * scale
    chain = [("a", 0), ("b", 3600), ("c", 7200)]
    records = [
        ("tenant-%04d" % index, "k", etype, event_time)
        for etype, event_time in chain
        for index in range(tenants)
    ]
    build = build_tag(cet, system=system)

    def run():
        store = MemoryCheckpointStore()
        start = time.perf_counter()
        service = serve_events(
            build,
            records,
            ServiceConfig(max_resident_sessions=32),
            store,
            system=system,
        )
        elapsed = time.perf_counter() - start
        detected = {sd.tenant for sd in service.detections}
        return {
            "tenants": tenants,
            "events": len(records),
            "detections": len(service.detections),
            "evictions": service.registry.evictions,
            "rehydrations": service.registry.rehydrations,
            "events_per_second": (
                len(records) / elapsed if elapsed else 0.0
            ),
            "all_tenants_detected": len(detected) == tenants,
        }

    return _Workload(run)


def _x16(system, engine, scale) -> _Workload:
    """Columnar matching vs the object reference at 10^6 events.

    One million (x scale) events - a planted hour-granularity chain
    drowned in background noise - matched twice through the *same*
    :class:`~repro.automata.matching.TagMatcher`: once by the object
    NDFA reference (``match_from`` from every viable root, one
    per-event loop each) and once by the production
    ``matching_roots`` (dense transition tables advancing over the
    store's typed columns, which never touch a noise event).  The
    columnar view is prebuilt so the passes time matching, not view
    construction, and the run reports whether the two root sets are
    bit-identical - the differential contract at bench scale, not just
    under Hypothesis.
    """
    from ..core.api import compile_pattern
    from ..mining.events import EventSequence

    hour = system.get("hour")
    structure = EventStructure(
        ["X0", "X1", "X2"],
        {
            ("X0", "X1"): [TCG(1, 2, hour)],
            ("X1", "X2"): [TCG(0, 3, hour)],
        },
    )
    rng = random.Random(16)
    n_roots = 3000 * scale
    n_events = 1_000_000 * scale
    span_seconds = n_roots * 7200
    events = []
    for index in range(n_roots):
        t = index * 7200
        events.append(("EV-A", t))
        if rng.random() < 0.7:
            events.append(("EV-B", t + 3600 + rng.randrange(0, 3600)))
            events.append(("EV-C", t + 7200 + rng.randrange(0, 7200)))
    noise_types = ["BG1", "BG2", "BG3", "BG4", "BG5"]
    while len(events) < n_events:
        events.append(
            (rng.choice(noise_types), rng.randrange(0, span_seconds))
        )
    sequence = EventSequence(sorted(events, key=lambda event: event[1]))
    matcher = compile_pattern(
        structure,
        {"X0": "EV-A", "X1": "EV-B", "X2": "EV-C"},
        system=system,
        engine=engine,
    )
    # Prebuild the columnar view both passes screen with, so the timed
    # passes compare matching work only.
    sequence.columnar()

    def reference_pass():
        start = time.perf_counter()
        roots = [
            root
            for root in matcher.viable_root_positions(sequence)
            if matcher.match_from(sequence, root).matched
        ]
        return roots, time.perf_counter() - start

    def columnar_pass():
        start = time.perf_counter()
        roots = list(matcher.matching_roots(sequence))
        return roots, time.perf_counter() - start

    def run():
        object_roots, object_seconds = reference_pass()
        columnar_roots, columnar_seconds = columnar_pass()
        return {
            "events": len(sequence),
            "matches": len(columnar_roots),
            "identical_to_reference": columnar_roots == object_roots,
            "object_seconds": object_seconds,
            "columnar_seconds": columnar_seconds,
            "speedup": (
                object_seconds / columnar_seconds
                if columnar_seconds
                else 0.0
            ),
        }

    return _Workload(run)


def _x17(system, engine, scale) -> _Workload:
    """Batched frontier scanning: 64 candidates, one shared traversal.

    A mining-shaped frontier - 64 candidate assignments of one
    three-variable chain (8 types for ``X1`` x 8 for ``X2``, all
    anchored on the same root type) - scanned three ways over the same
    sequence: the object NDFA reference (``match_from`` from every
    viable root of every candidate), the per-candidate arm
    (``matching_roots`` per matcher: 64 one-member banks, 64
    independent table scans), and the batched arm (the matchers' builds
    banked by :func:`~repro.parallel.engine.compile_groups`, the
    grouping ``repro mine`` scans with, each bank advancing its
    frontier per root in one
    :meth:`~repro.automata.dense.BatchRuntime.scan_roots` sweep).  All
    three must produce identical match sets;
    the gate is the batched arm beating the per-candidate arm >= 3x,
    which is exactly the work the banked tables exist to amortise: one
    traversal and one set of cuts per root instead of 64, and one wake
    per shared ``X1`` prefix instead of one per candidate.
    """
    from ..automata.dense import BatchRuntime
    from ..core.api import compile_pattern
    from ..mining.events import EventSequence
    from ..parallel.engine import compile_groups

    hour = system.get("hour")
    minute = system.get("minute")
    structure = EventStructure(
        ["X0", "X1", "X2"],
        {
            ("X0", "X1"): [TCG(0, 4, hour)],
            ("X1", "X2"): [TCG(0, 10, minute)],
        },
    )
    mids = ["MID%d" % i for i in range(8)]
    tails = ["TAIL%d" % i for i in range(8)]
    rng = random.Random(17)
    n_roots = 600 * scale
    events = []
    # Roots every 200s under a ~5h horizon: each window spans ~90 root
    # events.  The per-candidate arm walks that root stream once per
    # candidate per anchor (none of its configurations can consume ROOT
    # mid-run, so each event costs one routing probe), while the
    # batched sweep walks it once for the whole frontier - the
    # asymmetry the experiment exists to measure.  Mids are sparse
    # (one per ~5 roots) and each wakes the eight candidates sharing
    # it, which the batched sweep advances as one; tails face a
    # 10-minute guard, so most of their wakes reject cheaply.
    for index in range(n_roots):
        t = index * 200
        events.append(("ROOT", t))
        if rng.random() < 0.2:
            events.append((rng.choice(mids), t + rng.randrange(0, 14_400)))
        if rng.random() < 0.5:
            events.append((rng.choice(tails), t + rng.randrange(0, 28_800)))
    sequence = EventSequence(sorted(events, key=lambda event: event[1]))
    matchers = [
        compile_pattern(
            structure,
            {"X0": "ROOT", "X1": mid, "X2": tail},
            system=system,
            engine=engine,
        )
        for mid in mids
        for tail in tails
    ]
    sequence.columnar()

    def timed_pass(scan):
        start = time.perf_counter()
        roots = scan()
        return roots, time.perf_counter() - start

    def reference_scan():
        return [
            [
                root
                for root in matcher.viable_root_positions(sequence)
                if matcher.match_from(sequence, root).matched
            ]
            for matcher in matchers
        ]

    def per_candidate_scan():
        return [list(m.matching_roots(sequence)) for m in matchers]

    def batched_scan():
        found = [None] * len(matchers)
        for members, bank, root_symbol in compile_groups(
            [matcher.build for matcher in matchers]
        ):
            runtime = BatchRuntime(
                bank,
                sequence.columnar(),
                root_symbol,
                structure.root,
                horizon_seconds=matchers[members[0]].horizon_seconds,
            )
            hits = runtime.scan_roots(
                [
                    matchers[member].viable_root_positions(sequence)
                    for member in members
                ]
            )
            for member, roots in zip(members, hits):
                found[member] = roots
        return found

    def run():
        object_roots, object_seconds = timed_pass(reference_scan)
        per_candidate_roots, per_candidate_seconds = timed_pass(
            per_candidate_scan
        )
        batched_roots, batched_seconds = timed_pass(batched_scan)
        return {
            "candidates": len(matchers),
            "events": len(sequence),
            "matches": sum(len(roots) for roots in batched_roots),
            "identical_to_reference": (
                batched_roots == per_candidate_roots == object_roots
            ),
            "object_seconds": object_seconds,
            "per_candidate_seconds": per_candidate_seconds,
            "batched_seconds": batched_seconds,
            "speedup_batched_vs_object": (
                object_seconds / batched_seconds if batched_seconds else 0.0
            ),
            "speedup_batched_vs_per_candidate": (
                per_candidate_seconds / batched_seconds
                if batched_seconds
                else 0.0
            ),
        }

    return _Workload(run)


def _x18(system, engine, scale) -> _Workload:
    """Calendar-algebra clocks: Gregorian and business granularities.

    The calendar algebra lowers every stock type (months and years
    via the 400-year cycle, business calendars as weekly overlays,
    grouped quarters via the operator algebra); this experiment
    exercises the lowered forms on both production paths:

    * **TCG propagation** over month / quarter / business-month
      constraint granularities, compiled tables vs the sweep reference
      system (:func:`~repro.bench.reference.sweep_system`), derived
      interval groups asserted equal;
    * **clock columns**: one month-tick column over a pinned 40-year
      event spread through ``clock_ticks_of``, the converter
      :class:`~repro.automata.dense.ColumnPlan` builds its tick
      columns with - the ``PeriodicNormalForm.ticks_of_instants`` walk
      for a type that lowers vs the per-timestamp ``tick_of`` route it
      takes for one that does not (month wrapped in
      :class:`~repro.bench.reference.Unlowered`), outputs asserted
      bit-identical.

    The month form is compiled outside the timed region (it is cached
    on the type instance, so production pays it once per process); the
    timed compiled pass is the steady-state per-batch cost.
    """
    from ..granularity.combinators import GroupedType
    from ..granularity.convcache import ConversionCache
    from ..granularity.normalform import cached_normal_form, clock_ticks_of
    from .reference import Unlowered, sweep_system

    def build_structure(bench_system):
        month = bench_system.get("month")
        bmonth = bench_system.get("business-month")
        quarter = bench_system.register(
            GroupedType(month, 3, label="quarter")
        )
        return EventStructure(
            ["X0", "X1", "X2", "X3"],
            {
                ("X0", "X1"): [TCG(1, 6, month)],
                ("X1", "X2"): [TCG(0, 2, quarter)],
                ("X0", "X2"): [TCG(1, 9, bmonth)],
                ("X2", "X3"): [TCG(2, 11, month)],
            },
        )

    def propagation_pass(reference):
        make_system = sweep_system if reference else standard_system
        bench_system = make_system(cache=ConversionCache())
        structure = build_structure(bench_system)
        start = time.perf_counter()
        result = propagate(structure, bench_system, engine=engine)
        return result, time.perf_counter() - start

    rng = random.Random(18)
    horizon_seconds = 40 * 366 * 86400
    times = sorted(
        rng.randrange(0, horizon_seconds) for _ in range(20_000 * scale)
    )

    def clock_pass(reference):
        month = standard_system(cache=ConversionCache()).get("month")
        if reference:
            month = Unlowered(month)
        else:
            cached_normal_form(month)
        start = time.perf_counter()
        ticks, defined = clock_ticks_of(month, times)
        elapsed = time.perf_counter() - start
        return [int(v) for v in ticks], [int(v) for v in defined], elapsed

    def run():
        sweep_result, sweep_prop_seconds = propagation_pass(True)
        fast_result, fast_prop_seconds = propagation_pass(False)
        propagation_identical = (
            sweep_result.consistent == fast_result.consistent
            and sweep_result.groups == fast_result.groups
        )
        sweep_ticks, sweep_defined, sweep_clock_seconds = clock_pass(True)
        fast_ticks, fast_defined, fast_clock_seconds = clock_pass(False)
        return {
            "events": len(times),
            "iterations": fast_result.iterations,
            "propagation_identical_to_sweep": propagation_identical,
            "identical_to_sweep": (
                propagation_identical
                and sweep_ticks == fast_ticks
                and sweep_defined == fast_defined
            ),
            "sweep_propagation_seconds": sweep_prop_seconds,
            "compiled_propagation_seconds": fast_prop_seconds,
            "sweep_clock_seconds": sweep_clock_seconds,
            "compiled_clock_seconds": fast_clock_seconds,
            "speedup_clock_vs_sweep": (
                sweep_clock_seconds / fast_clock_seconds
                if fast_clock_seconds
                else 0.0
            ),
            "speedup_propagation_vs_sweep": (
                sweep_prop_seconds / fast_prop_seconds
                if fast_prop_seconds
                else 0.0
            ),
        }

    return _Workload(run)


_EXPERIMENTS: Dict[str, Callable] = {
    "X1": _x1,
    "X2": _x2,
    "X3": _x3,
    "X4": _x4,
    "X5": _x5,
    "X6": _x6,
    "X7": _x7,
    "X8": _x8,
    "X9": _x9,
    "X10": _x10,
    "X11": _x11,
    "X12": _x12,
    "X13": _x13,
    "X14": _x14,
    "X15": _x15,
    "X16": _x16,
    "X17": _x17,
    "X18": _x18,
}

EXPERIMENT_NAMES: Tuple[str, ...] = tuple(_EXPERIMENTS)


# ----------------------------------------------------------------------
# Running and comparing
# ----------------------------------------------------------------------
def slowest_spans(
    trace_payload: Dict[str, object], limit: int = 5
) -> List[Dict[str, object]]:
    """The ``limit`` longest spans of a trace payload, for the BENCH
    record's ``slowest_spans`` table (ties broken by name for stable
    output)."""
    flat: List[Dict[str, object]] = []
    stack = list(trace_payload.get("spans") or [])
    while stack:
        span_ = stack.pop()
        flat.append(span_)
        stack.extend(span_.get("children") or ())
    ranked = sorted(
        flat,
        key=lambda s: (-int(s.get("duration_ns") or 0), s.get("name", "")),
    )
    return [
        {
            "name": span_.get("name"),
            "duration_ms": round(
                int(span_.get("duration_ns") or 0) / 1e6, 3
            ),
            "span_id": span_.get("span_id"),
            "trace_id": span_.get("trace_id"),
        }
        for span_ in ranked[:limit]
    ]


def run_suite(
    engine: str = "auto",
    profile: str = "quick",
    experiments: Optional[Sequence[str]] = None,
    system: Optional[GranularitySystem] = None,
    trace_dir: Optional[str] = None,
) -> Dict[str, object]:
    """Run the suite and return the ``BENCH_*.json`` payload.

    ``experiments`` restricts the run to a subset of names (e.g.
    ``["X1", "X4"]``); the default runs all eighteen.  ``trace_dir``
    additionally records one trace file per experiment (every repeat
    runs under a ``bench.<name>`` span in a dedicated tracer) and adds
    ``trace_file`` plus a ``slowest_spans`` table to each experiment
    record; tracing adds its own overhead, so traced medians are not
    comparable with untraced baselines.
    """
    if profile not in PROFILES:
        raise ValueError(
            "unknown profile %r (expected one of %r)"
            % (profile, sorted(PROFILES))
        )
    chosen = list(experiments) if experiments is not None else list(
        EXPERIMENT_NAMES
    )
    unknown = [name for name in chosen if name not in _EXPERIMENTS]
    if unknown:
        raise ValueError("unknown experiments %r" % (unknown,))
    resolved_engine = resolve_engine(engine)
    repeats = PROFILES[profile]["repeats"]
    scale = PROFILES[profile]["scale"]
    system = system if system is not None else standard_system()
    payload: Dict[str, object] = {
        "schema": SCHEMA_VERSION,
        "profile": profile,
        "engine": resolved_engine,
        "repeats": repeats,
        "experiments": {},
    }
    if trace_dir is not None:
        os.makedirs(trace_dir, exist_ok=True)
    for name in chosen:
        workload = _EXPERIMENTS[name](system, resolved_engine, scale)
        times = []
        counters: Dict[str, object] = {}
        tracer = Tracer() if trace_dir is not None else None
        before_metrics = metrics_snapshot()
        for index in range(repeats):
            if tracer is not None:
                with activate_tracer(tracer):
                    with span("bench.%s" % name, repeat=index):
                        start = time.perf_counter()
                        counters = workload.run()
                        times.append(time.perf_counter() - start)
            else:
                start = time.perf_counter()
                counters = workload.run()
                times.append(time.perf_counter() - start)
        record: Dict[str, object] = {
            "median_seconds": statistics.median(times),
            "repeats": repeats,
            "counters": counters,
            # What this experiment (all repeats) added to the global
            # registry; empty under REPRO_OBS=off.
            "metrics_delta": counter_deltas(
                before_metrics, metrics_snapshot()
            ),
        }
        if tracer is not None:
            trace_file = os.path.join(trace_dir, "%s.json" % name)
            write_trace(tracer, trace_file)
            record["trace_file"] = trace_file
            record["slowest_spans"] = slowest_spans(tracer.to_dict())
        payload["experiments"][name] = record
    payload["conversion_cache"] = system.conversion_cache.stats()
    payload["size_tables"] = system.size_table_stats()
    payload["metrics"] = metrics_snapshot()
    return payload


def compare_payloads(
    current: Dict[str, object],
    baseline: Dict[str, object],
    tolerance: float = 0.25,
    min_delta_seconds: float = 0.005,
) -> List[Dict[str, object]]:
    """Per-experiment comparison rows against a baseline payload.

    An experiment *regresses* when its median wall time exceeds the
    baseline's by more than ``tolerance`` (0.25 = +25%) *and* by more
    than ``min_delta_seconds`` in absolute terms - the floor keeps
    scheduler jitter on sub-millisecond experiments from tripping the
    gate (a 0.4 ms experiment can easily double without meaning
    anything).

    Experiments whose medians sit entirely under the jitter floor (both
    current and baseline below ``min_delta_seconds``) are
    *informational-only*: their row carries ``informational: True``, is
    never pass/fail, and renders as ``info`` in the delta table.  Such
    timings are dominated by scheduler noise, so the comparison is
    reported for the record but can neither pass nor fail the gate.

    The iteration covers the *union* of registered experiment names and
    whatever keys appear in either payload, so nothing is silently
    dropped: an experiment missing from one payload, or one this
    harness version does not know (a baseline recorded by a newer or
    older harness), still produces a row, with a human-readable
    ``warning`` explaining the asymmetry.  Such rows have ``ratio``
    None when unmeasurable and never count as regressions (so suites
    can grow and shrink without tripping the gate).
    """
    if tolerance < 0:
        raise ValueError("tolerance must be non-negative")
    rows: List[Dict[str, object]] = []
    current_runs = current.get("experiments", {})
    baseline_runs = baseline.get("experiments", {})
    extras = sorted(
        (set(current_runs) | set(baseline_runs)) - set(EXPERIMENT_NAMES)
    )
    for name in list(EXPERIMENT_NAMES) + extras:
        cur = current_runs.get(name)
        base = baseline_runs.get(name)
        if cur is None and base is None:
            continue
        warnings = []
        if name not in _EXPERIMENTS:
            warnings.append("unknown experiment (not in this harness)")
        if cur is None:
            warnings.append("missing from current run")
        if base is None:
            warnings.append("missing from baseline")
        warning = "; ".join(warnings) if warnings else None
        if cur is None or base is None:
            rows.append(
                {
                    "experiment": name,
                    "current_seconds": cur and cur["median_seconds"],
                    "baseline_seconds": base and base["median_seconds"],
                    "ratio": None,
                    "regressed": False,
                    "informational": False,
                    "warning": warning,
                }
            )
            continue
        cur_s = float(cur["median_seconds"])
        base_s = float(base["median_seconds"])
        ratio = cur_s / base_s if base_s > 0 else float("inf")
        informational = (
            cur_s < min_delta_seconds and base_s < min_delta_seconds
        )
        rows.append(
            {
                "experiment": name,
                "current_seconds": cur_s,
                "baseline_seconds": base_s,
                "ratio": ratio,
                "regressed": (
                    not informational
                    and ratio > 1.0 + tolerance
                    and cur_s - base_s > min_delta_seconds
                ),
                "informational": informational,
                "warning": warning,
            }
        )
    return rows


def comparison_delta_table(
    current: Dict[str, object],
    baseline: Dict[str, object],
    rows: Sequence[Dict[str, object]],
) -> Dict[str, object]:
    """A nested mapping of the comparison, one subtree per experiment.

    Renders through :func:`repro.obs.format_tree` (the ``repro bench
    --baseline`` output): timing verdicts plus the work-counter deltas
    between the two payloads, so a slowdown can be read next to the
    counter that moved.
    """
    current_runs = current.get("experiments", {})
    baseline_runs = baseline.get("experiments", {})
    table: Dict[str, object] = {}
    for row in rows:
        name = str(row["experiment"])
        ratio = row["ratio"]
        entry: Dict[str, object] = {
            "current_seconds": _fmt_seconds(row["current_seconds"]),
            "baseline_seconds": _fmt_seconds(row["baseline_seconds"]),
            "ratio": "%.2fx" % ratio if ratio is not None else "-",
            "verdict": (
                "REGRESSED"
                if row["regressed"]
                else "info (under jitter floor)"
                if row.get("informational")
                else "ok"
            ),
        }
        if row.get("warning"):
            entry["warning"] = row["warning"]
        cur = current_runs.get(name)
        base = baseline_runs.get(name)
        if cur is not None and base is not None:
            deltas = counter_deltas(
                base.get("counters", {}), cur.get("counters", {})
            )
            if deltas:
                entry["counter_deltas"] = deltas
        table[name] = entry
    return table


def format_comparison(rows: Sequence[Dict[str, object]]) -> str:
    """A fixed-width text table of :func:`compare_payloads` rows."""
    lines = [
        "%-6s %12s %12s %8s %s"
        % ("exp", "current[s]", "baseline[s]", "ratio", "verdict")
    ]
    for row in rows:
        ratio = row["ratio"]
        if row["regressed"]:
            verdict = "REGRESSED"
        elif row.get("informational"):
            verdict = "info (under jitter floor)"
        else:
            verdict = "ok"
        if row.get("warning"):
            verdict += "  [warning: %s]" % row["warning"]
        lines.append(
            "%-6s %12s %12s %8s %s"
            % (
                row["experiment"],
                _fmt_seconds(row["current_seconds"]),
                _fmt_seconds(row["baseline_seconds"]),
                "%.2fx" % ratio if ratio is not None else "-",
                verdict,
            )
        )
    return "\n".join(lines)


def _fmt_seconds(value) -> str:
    return "%.4f" % value if value is not None else "-"


def assert_no_regressions(rows: Sequence[Dict[str, object]]) -> None:
    """Raise :class:`BenchmarkRegression` when any comparison row
    regressed (the programmatic form of the CLI's exit code 1)."""
    regressed = [row["experiment"] for row in rows if row["regressed"]]
    if regressed:
        raise BenchmarkRegression(
            "benchmark regression in %s" % ", ".join(map(str, regressed))
        )


def load_payload(path: str) -> Dict[str, object]:
    """Read a ``BENCH_*.json`` payload (validating the schema field)."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if payload.get("schema") != SCHEMA_VERSION:
        raise ValueError(
            "unsupported benchmark payload schema %r in %s (expected %d)"
            % (payload.get("schema"), path, SCHEMA_VERSION)
        )
    return payload


def save_payload(payload: Dict[str, object], path: str) -> None:
    """Write a payload as stable, diff-friendly JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
