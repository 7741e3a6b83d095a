"""The X1-X18 regression runner, and the workloads the benchmarks share.

Run it from the repository root over any ``src/`` tree::

    PYTHONPATH=src python -m benchmarks.harness --output BENCH.json
    PYTHONPATH=src python -m benchmarks.harness --baseline BENCH.json

Unlike the pytest-benchmark files beside it (which exist to
*regenerate paper artifacts* with statistical care), this module is a
fast, dependency-free sweep of the same experiments designed for
regression gating.  Each experiment has a production arm - the call
users make - and optional reference arms.  The runner times the
production arm :data:`REPEATS` times and records the median as
``median_seconds``; each reference arm then runs once, and the
identity and speedup counters come from the two.  The result is
written as a ``BENCH_*.json`` file that a later run compares against.

Workloads are pinned by seed, so every counter that is not a timing is
reproducible; wall times are machine-dependent, which is why a gate
compares two runs from the *same* machine rather than a checked-in
timing.

The paper's workloads - Figure 1(a), Figure 1(b), the Example 1
pattern, the X4 random DAG and the planted stock feed - are built here
once, for the runner, the pytest-benchmark files and ``make_report.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.constraints import (
    TCG,
    ComplexEventType,
    EventStructure,
    propagate,
)
from repro.granularity import GranularitySystem, standard_system
from repro.obs import (
    Tracer,
    activate_tracer,
    counter_deltas,
    metrics_snapshot,
    span,
    write_trace,
)

#: Payload format version (bump when the JSON layout changes).
SCHEMA_VERSION = 1

#: The one workload size, recorded as the payload's ``profile``.
PROFILE = "quick"

#: Timed runs of each production arm.
REPEATS = 3

#: A median more than 25% over the baseline's regresses...
TOLERANCE = 0.25

#: ...when it is also more than 5 ms over it (the jitter floor).
MIN_DELTA_SECONDS = 0.005

#: Noise types of the planted stock feed.
STOCK_NOISE = ("HP-fall", "DEC-rise", "DEC-fall", "SUN-rise")


class BenchmarkRegression(RuntimeError):
    """Raised by :func:`assert_no_regressions`."""


# ----------------------------------------------------------------------
# The paper's workloads
# ----------------------------------------------------------------------
def figure_1a(system: GranularitySystem) -> EventStructure:
    """The stock event structure of Figure 1(a)."""
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


def figure_1b(system: GranularitySystem) -> EventStructure:
    """The month/year disjunction gadget of Figure 1(b)."""
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


def example1_cet(system: GranularitySystem) -> ComplexEventType:
    """Example 1: Figure 1(a) over the stock event types."""
    return ComplexEventType(
        figure_1a(system),
        {
            "X0": "IBM-rise",
            "X1": "IBM-earnings-report",
            "X2": "HP-rise",
            "X3": "IBM-fall",
        },
    )


def random_dag(
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
            # Loose day-granularity cross arcs: they add propagation
            # work without making the random structure inconsistent.
            constraints[arc] = [TCG(0, 30 * n, system.get("day"))]
    return EventStructure(names, constraints)


def consistent_random_dag(
    n: int, system: GranularitySystem, rng: random.Random
) -> EventStructure:
    """The first :func:`random_dag` draw that propagation does not
    refute, so every timed run performs the full fixpoint."""
    for _ in range(50):
        structure = random_dag(n, system, rng)
        if propagate(structure, system).consistent:
            return structure
    raise RuntimeError("no consistent random structure in 50 draws")


def stock_feed(
    system: GranularitySystem,
    n_roots: int,
    seed: int,
    confidence: float = 0.9,
    noise_types: Sequence[str] = STOCK_NOISE,
    noise_events_per_root: int = 5,
):
    """Example 1 planted under ``n_roots`` IBM-rise anchors: the
    ``(sequence, complete plants)`` pair of
    :func:`~repro.mining.generator.planted_sequence`."""
    from repro.mining.generator import planted_sequence

    return planted_sequence(
        example1_cet(system),
        system,
        n_roots=n_roots,
        confidence=confidence,
        rng=random.Random(seed),
        noise_types=list(noise_types),
        noise_events_per_root=noise_events_per_root,
    )


# ----------------------------------------------------------------------
# Experiment shape
# ----------------------------------------------------------------------
@dataclass
class Arm:
    """One timed call, ``run(*prepare())``.

    ``prepare`` runs untimed before every call and builds the cold state
    the call starts from (a fresh system, matcher or store).
    """

    run: Callable[..., object]
    prepare: Callable[[], tuple] = tuple


@dataclass
class Experiment:
    """Production arms, timed every repeat; reference arms, run once
    after the repeats; and ``counters(results, seconds)``, which reads
    each arm's last result and its seconds (the median, for a
    production arm)."""

    production: Dict[str, Arm]
    counters: Callable[
        [Dict[str, object], Dict[str, float]], Dict[str, object]
    ]
    references: Dict[str, Arm] = field(default_factory=dict)


def _ratio(slow: float, fast: float) -> float:
    return slow / fast if fast else 0.0


def _timed(arm: Arm) -> Tuple[object, float]:
    args = arm.prepare()
    start = time.perf_counter()
    result = arm.run(*args)
    return result, time.perf_counter() - start


# ----------------------------------------------------------------------
# Experiment definitions
# ----------------------------------------------------------------------
def _x1(system) -> Experiment:
    """Figure 1(a) propagation (the Section 5.1 worked numbers)."""
    structure = figure_1a(system)
    return Experiment(
        {"propagate": Arm(lambda: propagate(structure, system))},
        lambda results, _: {
            "iterations": results["propagate"].iterations,
            "conversions": results["propagate"].conversions_performed,
            "cache_hits": results["propagate"].conversion_cache_hits,
        },
    )


def _x2(system) -> Experiment:
    """Figure 1(b): the gadget propagation provably cannot refute."""
    structure = figure_1b(system)
    return Experiment(
        {"propagate": Arm(lambda: propagate(structure, system))},
        lambda results, _: {
            "iterations": results["propagate"].iterations,
            "consistent": results["propagate"].consistent,
        },
    )


def _x3(system) -> Experiment:
    """A small exact consistency search (the Theorem 1 machinery)."""
    from repro.constraints import check_consistency_exact
    from repro.granularity.gregorian import SECONDS_PER_DAY

    structure = figure_1a(system)
    return Experiment(
        {
            "exact": Arm(
                lambda: check_consistency_exact(
                    structure, system, window_seconds=30 * SECONDS_PER_DAY
                )
            )
        },
        lambda results, _: {"consistent": results["exact"].consistent},
    )


def _x4(system) -> Experiment:
    """Propagation on a random 48-node DAG: the fast-path showcase.

    The production arm is :func:`propagate`; the reference arm is the
    paper-faithful loop of ``tests/differential/reference.py`` on the
    same structure, so the payload records the fast path's speedup (the
    X4 CI gate).
    """
    from tests.differential.reference import reference_propagate

    n = 48
    structure = consistent_random_dag(n, system, random.Random(n))

    def counters(results, seconds):
        result = results["engine"]
        return {
            "n_variables": n,
            "iterations": result.iterations,
            "closures_full": result.closures_full,
            "closures_incremental": result.closures_incremental,
            "speedup_vs_reference": _ratio(
                seconds["reference"], seconds["engine"]
            ),
        }

    return Experiment(
        {"engine": Arm(lambda: propagate(structure, system))},
        counters,
        {
            "reference": Arm(
                lambda: reference_propagate(structure, system)
            )
        },
    )


def _x5(system) -> Experiment:
    """TAG construction for the Example 1 pattern (Theorem 3)."""
    from repro.automata.builder import build_tag

    cet = example1_cet(system)
    return Experiment(
        {"build": Arm(lambda: build_tag(cet, system=system))},
        lambda results, _: {
            "states": len(results["build"].tag.states),
            "transitions": len(results["build"].tag.transitions),
        },
    )


def _x6(system) -> Experiment:
    """TAG matching over a planted log (Theorem 4)."""
    from repro.automata.builder import build_tag
    from repro.automata.matching import TagMatcher

    sequence, _ = stock_feed(system, n_roots=10, seed=6)
    matcher = TagMatcher(build_tag(example1_cet(system), system=system))
    return Experiment(
        {"count": Arm(lambda: matcher.count_occurrences(sequence))},
        lambda results, _: {"matches": results["count"]},
    )


def _stock_problem(system, min_confidence):
    from repro.mining.discovery import EventDiscoveryProblem

    return EventDiscoveryProblem(
        structure=figure_1a(system),
        min_confidence=min_confidence,
        reference_type="IBM-rise",
    )


def _x7(system) -> Experiment:
    """The optimised discovery pipeline (Section 5 steps 1-5)."""
    from repro.mining.discovery import discover

    sequence, _ = stock_feed(system, n_roots=10, seed=7)
    problem = _stock_problem(system, 0.5)
    return Experiment(
        {"discover": Arm(lambda: discover(problem, sequence, system))},
        lambda results, _: {
            "solutions": len(results["discover"].solutions),
            "candidates_evaluated": results["discover"].candidates_evaluated,
            "automaton_starts": results["discover"].automaton_starts,
        },
    )


def _x8(system) -> Experiment:
    """The naive baseline on the same problem (the X7 contrast)."""
    from repro.mining.discovery import naive_discover

    sequence, _ = stock_feed(system, n_roots=6, seed=8)
    problem = _stock_problem(system, 0.5)
    return Experiment(
        {"naive": Arm(lambda: naive_discover(problem, sequence, system))},
        lambda results, _: {
            "solutions": len(results["naive"].solutions),
            "candidates_evaluated": results["naive"].candidates_evaluated,
        },
    )


def _x9(system) -> Experiment:
    """Examples 1 and 2 end to end via the top-level API."""
    from repro.core.api import mine

    structure = figure_1a(system)
    sequence, _ = stock_feed(system, n_roots=10, seed=9)
    return Experiment(
        {
            "mine": Arm(
                lambda: mine(
                    structure, "IBM-rise", sequence, min_confidence=0.5
                )
            )
        },
        lambda results, _: {"solutions": len(results["mine"].solutions)},
    )


def _x10(system) -> Experiment:
    """The sharded-mining showcase.

    The production arm is the indexed engine asked for ``parallel=4``;
    the reference arm is the pre-index serial scan (anchor screening
    off, one process) on the same discovery problem, and the outcomes
    must agree.  The candidate pool is left wide (low confidence
    threshold, depth-1 screening only) so the step-5 TAG scan
    dominates.

    The parallel arm does not fork.  Its 720 candidates share one clock
    signature and bank into one group, and the auto shard size plans
    ``ceil(16 / candidates)`` = 1 shard, so the grid is one task and
    runs in-process: the payload reads ``workers: 1, shards: 1``, and
    the speedup is the anchor screen's and the bank's, not the pool's.
    Planning shards by the group count instead forked 4 workers over 13
    shards and roughly doubled this arm's time on a 2-vCPU host
    (0.39 s to 0.76 s, medians of 4 alternating runs; see
    :func:`~repro.parallel.shards.resolve_shard_size`).
    """
    from repro.mining.discovery import discover

    sequence, _ = stock_feed(
        system,
        n_roots=60,
        seed=10,
        confidence=0.6,
        noise_types=STOCK_NOISE + ("MSFT-rise", "MSFT-fall"),
        noise_events_per_root=6,
    )
    problem = _stock_problem(system, 0.05)

    def scan(**options):
        return Arm(
            lambda: discover(
                problem, sequence, system, screen_depth=1, **options
            )
        )

    def counters(results, seconds):
        outcome, serial = results["parallel"], results["serial"]
        report = outcome.parallelism or {}
        return {
            "solutions": len(outcome.solutions),
            "candidates_evaluated": outcome.candidates_evaluated,
            "workers": report.get("workers", 1),
            "shards": report.get("shards", 0),
            "identical_to_serial": (
                outcome.solution_assignments()
                == serial.solution_assignments()
                and sorted(outcome.frequencies.values())
                == sorted(serial.frequencies.values())
            ),
            "speedup_vs_serial": _ratio(
                seconds["serial"], seconds["parallel"]
            ),
        }

    return Experiment(
        {"parallel": scan(parallel=4)},
        counters,
        {"serial": scan(anchor_screen=False)},
    )


def _hour_chain(system) -> EventStructure:
    """X0 -[1,2]hour-> X1 -[0,3]hour-> X2, the store-scale shape."""
    hour = system.get("hour")
    return EventStructure(
        ["X0", "X1", "X2"],
        {
            ("X0", "X1"): [TCG(1, 2, hour)],
            ("X1", "X2"): [TCG(0, 3, hour)],
        },
    )


def _planted_chain_events(rng, n_roots, n_events, decoys=0):
    """``EV-A`` roots every two hours, 70% followed by ``EV-B`` and
    ``EV-C``; ``decoys`` each of ``EV-D`` and ``EV-E``; background noise
    up to ``n_events``."""
    span_seconds = n_roots * 7200
    events = []
    for index in range(n_roots):
        t = index * 7200
        events.append(("EV-A", t))
        if rng.random() < 0.7:
            events.append(("EV-B", t + 3600 + rng.randrange(0, 3600)))
            events.append(("EV-C", t + 7200 + rng.randrange(0, 7200)))
    for _ in range(decoys):
        events.append(("EV-D", rng.randrange(0, span_seconds)))
        events.append(("EV-E", rng.randrange(0, span_seconds)))
    noise_types = ["BG1", "BG2", "BG3", "BG4", "BG5"]
    while len(events) < n_events:
        events.append(
            (rng.choice(noise_types), rng.randrange(0, span_seconds))
        )
    return sorted(events, key=lambda event: event[1])


def _x11(system) -> Experiment:
    """Store-scale mining: a generated 10^5-event store end to end.

    Builds an :class:`~repro.store.EventStore` of 100k events (planted
    hour-granularity pattern, rare decoy candidates, heavy background
    noise) and mines it through the parallel engine - the posting-list
    index absorbs the store size, sequence reduction strips the noise,
    and the shard planner spreads the scan.
    """
    from repro.mining.discovery import EventDiscoveryProblem
    from repro.store import EventStore

    store = EventStore()
    store.extend(
        _planted_chain_events(random.Random(11), 2000, 100_000, decoys=800)
    )
    problem = EventDiscoveryProblem(
        structure=_hour_chain(system),
        min_confidence=0.5,
        reference_type="EV-A",
        candidates={
            "X1": frozenset(["EV-B", "EV-D"]),
            "X2": frozenset(["EV-C", "EV-E"]),
        },
    )

    def counters(results, _):
        outcome = results["mine"]
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

    return Experiment(
        {"mine": Arm(lambda: store.mine(problem, system, parallel=4))},
        counters,
    )


def _x12(system) -> Experiment:
    """Ablation: propagation with a cold vs the warm conversion cache."""
    from repro.granularity.convcache import ConversionCache

    structure = consistent_random_dag(24, system, random.Random(10))

    def cold_then_warm():
        cold_system = standard_system(cache=ConversionCache())
        return (
            propagate(structure, cold_system),
            propagate(structure, cold_system),
        )

    def counters(results, _):
        cold, warm = results["propagate"]
        return {
            "cold_cache_misses": cold.conversion_cache_misses,
            "warm_cache_misses": warm.conversion_cache_misses,
            "warm_cache_hits": warm.conversion_cache_hits,
        }

    return Experiment({"propagate": Arm(cold_then_warm)}, counters)


def _x13(system) -> Experiment:
    """Cold size-table construction: compiled normal form vs sweep.

    A second-resolution periodic type (960 telemetry windows per day)
    put through the cold path every table pays once per process or
    fork-pool worker: build the table, answer a spread of
    minsize/maxsize/mingap queries and two searches.  Every call builds
    a fresh type.  Every probed k stays inside the sweep's exact region,
    so the two backends must agree bit for bit
    (``identical_to_sweep``); the compiled backend skips the
    3-periods-plus-two boundary scan entirely (structural lowering) and
    answers each residue from the doubled boundary arrays (the X13 CI
    gate).
    """
    from repro.granularity.normalform import CompiledSizeTable
    from repro.granularity.periodic import PeriodicPatternType
    from repro.granularity.sizes import SizeTable

    segments = 960
    ks = (1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610,
          960, 1500, 1900)

    def probe(table_class):
        table = table_class(
            PeriodicPatternType(
                "telemetry-90s",
                86400,
                [(i * 90, 40) for i in range(segments)],
            )
        )
        out = []
        for k in ks:
            if k >= 3 * segments:
                continue
            out.append(table.minsize(k))
            out.append(table.maxsize(k))
            out.append(table.mingap(k))
        out.append(table.min_k_with_minsize_at_least(43_200))
        out.append(table.min_k_with_maxsize_greater(20_000))
        return table, out

    def counters(results, seconds):
        compiled_table, compiled_values = results["compiled"]
        sweep_table, sweep_values = results["sweep"]
        return {
            "period_ticks": segments,
            "queries": len(sweep_values),
            "identical_to_sweep": sweep_values == compiled_values,
            "speedup_vs_sweep": _ratio(
                seconds["sweep"], seconds["compiled"]
            ),
            "sweep_probe_stats": sweep_table.probe_stats(),
            "compiled_probe_stats": compiled_table.probe_stats(),
        }

    return Experiment(
        {"compiled": Arm(lambda: probe(CompiledSizeTable))},
        counters,
        {"sweep": Arm(lambda: probe(SizeTable))},
    )


def _x14(system) -> Experiment:
    """Strict TAG matching with second-granularity clocks.

    Every event of a strict-mode run pays one coverage check and one
    distance per clock; with a second-resolution periodic clock the
    reference arm (the window wrapped in ``Unlowered``, so it takes the
    fallback route: the sweep size table and the type's own
    ``tick_of``) walks the pattern per event, while the production arm
    answers by bisection over one period of boundary offsets.  Each
    call matches with a freshly built matcher, and both arms must agree
    on every match.
    """
    from repro.automata.builder import build_tag
    from repro.automata.matching import TagMatcher
    from repro.granularity.convcache import ConversionCache
    from repro.granularity.periodic import PeriodicPatternType
    from repro.mining.events import EventSequence
    from tests.differential.reference import Unlowered

    window = PeriodicPatternType(
        "obs-window", 3600, [(i * 90, 40) for i in range(40)]
    )

    def fresh_matcher(clock_type):
        bench_system = standard_system(cache=ConversionCache())
        clock = bench_system.register(clock_type)
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
        return (TagMatcher(build_tag(cet, system=bench_system), strict=True),)

    rng = random.Random(14)
    events = []
    for index in range(300):
        t = index * 450
        events.append(("probe", t))
        events.append(("echo", t + 90 + rng.randrange(0, 180)))
        events.append(("ack", t + 270 + rng.randrange(0, 120)))
    sequence = EventSequence(sorted(events, key=lambda event: event[1]))
    sequence.columnar()

    def count(matcher):
        return matcher.count_occurrences(sequence)

    return Experiment(
        {"compiled": Arm(count, lambda: fresh_matcher(window))},
        lambda results, seconds: {
            "events": len(sequence),
            "matches": results["compiled"],
            "identical_to_sweep": results["compiled"] == results["sweep"],
            "speedup_vs_sweep": _ratio(
                seconds["sweep"], seconds["compiled"]
            ),
        },
        {"sweep": Arm(count, lambda: fresh_matcher(Unlowered(window)))},
    )


def _x15(system) -> Experiment:
    """Multi-tenant service throughput under eviction churn.

    500 tenants round-robin one three-event chain each through the
    detection service with only 32 resident sessions, so nearly every
    event lands on an evicted session: the workload measures the
    checkpoint / rehydrate cycle end to end against a fresh in-memory
    store.  Every tenant must finish with exactly one detection - the
    bit-identity contract holds at fleet scale, not just in the unit
    tests.
    """
    from repro.automata.builder import build_tag
    from repro.service import (
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
    tenants = 500
    chain = [("a", 0), ("b", 3600), ("c", 7200)]
    records = [
        ("tenant-%04d" % index, "k", etype, event_time)
        for etype, event_time in chain
        for index in range(tenants)
    ]
    build = build_tag(cet, system=system)

    def serve(store):
        return serve_events(
            build,
            records,
            ServiceConfig(max_resident_sessions=32),
            store,
            system=system,
        )

    def counters(results, seconds):
        service = results["serve"]
        return {
            "tenants": tenants,
            "events": len(records),
            "detections": len(service.detections),
            "evictions": service.registry.evictions,
            "rehydrations": service.registry.rehydrations,
            "events_per_second": _ratio(len(records), seconds["serve"]),
            "all_tenants_detected": (
                len({sd.tenant for sd in service.detections}) == tenants
            ),
        }

    return Experiment(
        {"serve": Arm(serve, lambda: (MemoryCheckpointStore(),))},
        counters,
    )


def _reference_roots(matcher, sequence):
    """Root positions anchoring a match by the object NDFA reference:
    ``match_from`` from every viable root, one per-event loop each."""
    return [
        root
        for root in matcher.viable_root_positions(sequence)
        if matcher.match_from(sequence, root).matched
    ]


def _x16(system) -> Experiment:
    """Columnar matching vs the object reference at 10^6 events.

    One million events - a planted hour-granularity chain drowned in
    background noise - matched through the *same*
    :class:`~repro.automata.matching.TagMatcher`: by the production
    ``matching_roots`` (dense transition tables advancing over the
    store's typed columns, which never touch a noise event) and once by
    the object NDFA reference.  The columnar view is prebuilt so the
    arms time matching, not view construction, and the run reports
    whether the two root sets are bit-identical - the differential
    contract at bench scale, not just under Hypothesis.
    """
    from repro.core.api import compile_pattern
    from repro.mining.events import EventSequence

    sequence = EventSequence(
        _planted_chain_events(random.Random(16), 3000, 1_000_000)
    )
    matcher = compile_pattern(
        _hour_chain(system),
        {"X0": "EV-A", "X1": "EV-B", "X2": "EV-C"},
        system=system,
    )
    sequence.columnar()
    return Experiment(
        {"columnar": Arm(lambda: list(matcher.matching_roots(sequence)))},
        lambda results, seconds: {
            "events": len(sequence),
            "matches": len(results["columnar"]),
            "identical_to_reference": (
                results["columnar"] == results["object"]
            ),
            "speedup": _ratio(seconds["object"], seconds["columnar"]),
        },
        {"object": Arm(lambda: _reference_roots(matcher, sequence))},
    )


def _x17(system) -> Experiment:
    """Batched frontier scanning: 64 candidates, one shared traversal.

    A mining-shaped frontier - 64 candidate assignments of one
    three-variable chain (8 types for ``X1`` x 8 for ``X2``, all
    anchored on the same root type) - scanned over the same sequence
    by the production batched arm (the matchers' builds banked by
    :func:`~repro.parallel.engine.compile_groups`, the grouping
    ``repro mine`` scans with, each bank advancing its frontier per
    root in one :meth:`~repro.automata.dense.BatchRuntime.scan_roots`
    sweep) and two reference arms: the object NDFA reference
    (``match_from`` from every viable root of every candidate) and the
    per-candidate arm (``matching_roots`` per matcher: 64 one-member
    banks, 64 independent table scans).  All three must produce
    identical match sets; the gate is the batched arm beating the
    per-candidate arm >= 3x, which is exactly the work the banked
    tables exist to amortise: one traversal and one set of cuts per
    root instead of 64, and one wake per shared ``X1`` prefix instead
    of one per candidate.
    """
    from repro.automata.dense import BatchRuntime
    from repro.core.api import compile_pattern
    from repro.mining.events import EventSequence
    from repro.parallel.engine import compile_groups

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
    for index in range(600):
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
        )
        for mid in mids
        for tail in tails
    ]
    sequence.columnar()

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

    def counters(results, seconds):
        batched = results["batched"]
        return {
            "candidates": len(matchers),
            "events": len(sequence),
            "matches": sum(len(roots) for roots in batched),
            "identical_to_reference": (
                batched == results["per_candidate"] == results["object"]
            ),
            "speedup_batched_vs_object": _ratio(
                seconds["object"], seconds["batched"]
            ),
            "speedup_batched_vs_per_candidate": _ratio(
                seconds["per_candidate"], seconds["batched"]
            ),
        }

    return Experiment(
        {"batched": Arm(batched_scan)},
        counters,
        {
            "per_candidate": Arm(
                lambda: [list(m.matching_roots(sequence)) for m in matchers]
            ),
            "object": Arm(
                lambda: [_reference_roots(m, sequence) for m in matchers]
            ),
        },
    )


def _x18(system) -> Experiment:
    """Calendar-algebra clocks: Gregorian and business granularities.

    The calendar algebra lowers every stock type (months and years
    via the 400-year cycle, business calendars as weekly overlays,
    grouped quarters via the operator algebra); this experiment
    exercises the lowered forms on two production paths, each held
    against the sweep reference of ``tests/differential/reference.py``:

    * **TCG propagation** over month / quarter / business-month
      constraint granularities on a fresh system, compiled tables vs
      ``sweep_system``, derived interval groups asserted equal; each
      call pays the cold compile of the forms;
    * **clock columns**: one month-tick column over a pinned 40-year
      event spread through ``clock_ticks_of``, the converter
      :class:`~repro.automata.dense.ColumnPlan` builds its tick
      columns with - the ``PeriodicNormalForm.ticks_of_instants`` walk
      for a type that lowers vs the per-timestamp ``tick_of`` route it
      takes for one that does not (month wrapped in ``Unlowered``),
      outputs asserted bit-identical.  The month form is compiled
      before the call (it is cached on the type instance, so production
      pays it once per process): the timed call is the steady-state
      per-batch cost.
    """
    from repro.granularity.combinators import GroupedType
    from repro.granularity.convcache import ConversionCache
    from repro.granularity.normalform import cached_normal_form, clock_ticks_of
    from tests.differential.reference import Unlowered, sweep_system

    def fresh_structure(make_system):
        bench_system = make_system(cache=ConversionCache())
        month = bench_system.get("month")
        bmonth = bench_system.get("business-month")
        quarter = bench_system.register(
            GroupedType(month, 3, label="quarter")
        )
        structure = EventStructure(
            ["X0", "X1", "X2", "X3"],
            {
                ("X0", "X1"): [TCG(1, 6, month)],
                ("X1", "X2"): [TCG(0, 2, quarter)],
                ("X0", "X2"): [TCG(1, 9, bmonth)],
                ("X2", "X3"): [TCG(2, 11, month)],
            },
        )
        return structure, bench_system

    rng = random.Random(18)
    horizon_seconds = 40 * 366 * 86400
    times = sorted(rng.randrange(0, horizon_seconds) for _ in range(20_000))

    def fresh_month(lowered):
        month = standard_system(cache=ConversionCache()).get("month")
        if lowered:
            cached_normal_form(month)
            return (month,)
        return (Unlowered(month),)

    def clock(month):
        return clock_ticks_of(month, times)

    def counters(results, seconds):
        fast = results["compiled_propagation"]
        sweep = results["sweep_propagation"]
        propagation_identical = (
            sweep.consistent == fast.consistent
            and sweep.groups == fast.groups
        )
        fast_columns, sweep_columns = (
            [list(map(int, column)) for column in results[arm]]
            for arm in ("compiled_clock", "sweep_clock")
        )
        return {
            "events": len(times),
            "iterations": fast.iterations,
            "propagation_identical_to_sweep": propagation_identical,
            "identical_to_sweep": (
                propagation_identical and fast_columns == sweep_columns
            ),
            "speedup_clock_vs_sweep": _ratio(
                seconds["sweep_clock"], seconds["compiled_clock"]
            ),
            "speedup_propagation_vs_sweep": _ratio(
                seconds["sweep_propagation"],
                seconds["compiled_propagation"],
            ),
        }

    return Experiment(
        {
            "compiled_propagation": Arm(
                propagate, lambda: fresh_structure(standard_system)
            ),
            "compiled_clock": Arm(clock, lambda: fresh_month(True)),
        },
        counters,
        {
            "sweep_propagation": Arm(
                propagate, lambda: fresh_structure(sweep_system)
            ),
            "sweep_clock": Arm(clock, lambda: fresh_month(False)),
        },
    )


_EXPERIMENTS: Dict[str, Callable[[GranularitySystem], Experiment]] = {
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


@contextmanager
def _repeat_span(tracer: Optional[Tracer], name: str, index: int):
    if tracer is None:
        yield
        return
    with activate_tracer(tracer):
        with span("bench.%s" % name, repeat=index):
            yield


def _run_experiment(
    name: str,
    experiment: Experiment,
    tracer: Optional[Tracer] = None,
) -> Tuple[float, Dict[str, object]]:
    """``(median_seconds, counters)`` of one experiment.

    Each repeat runs every production arm once, under one
    ``bench.<name>`` span when ``tracer`` is given; ``median_seconds``
    is the median of the repeats' production time.  The reference arms
    run once afterwards, untraced.  An experiment with reference arms
    also records each arm's seconds as ``<arm>_seconds``.
    """
    times: Dict[str, List[float]] = {arm: [] for arm in experiment.production}
    results: Dict[str, object] = {}
    for index in range(REPEATS):
        with _repeat_span(tracer, name, index):
            for arm_name, arm in experiment.production.items():
                results[arm_name], elapsed = _timed(arm)
                times[arm_name].append(elapsed)
    seconds = {arm: statistics.median(runs) for arm, runs in times.items()}
    median_seconds = statistics.median(map(sum, zip(*times.values())))
    for arm_name, arm in experiment.references.items():
        results[arm_name], seconds[arm_name] = _timed(arm)
    counters = experiment.counters(results, seconds)
    if experiment.references:
        for arm_name, arm_seconds in seconds.items():
            counters["%s_seconds" % arm_name] = arm_seconds
    return median_seconds, counters


def run_suite(
    experiments: Optional[Sequence[str]] = None,
    system: Optional[GranularitySystem] = None,
    trace_dir: Optional[str] = None,
) -> Dict[str, object]:
    """Run the suite and return the ``BENCH_*.json`` payload.

    ``experiments`` restricts the run to a subset of names (e.g.
    ``["X1", "X4"]``); the default runs all eighteen.  An experiment
    that raises is recorded with its ``error`` and no median.
    ``trace_dir`` additionally records one trace file per experiment
    (every repeat runs under a ``bench.<name>`` span in a dedicated
    tracer) and adds ``trace_file`` plus a ``slowest_spans`` table to
    each experiment record; tracing adds its own overhead, so traced
    medians are not comparable with untraced baselines.
    """
    chosen = list(experiments) if experiments is not None else list(
        EXPERIMENT_NAMES
    )
    unknown = [name for name in chosen if name not in _EXPERIMENTS]
    if unknown:
        raise ValueError("unknown experiments %r" % (unknown,))
    system = system if system is not None else standard_system()
    payload: Dict[str, object] = {
        "schema": SCHEMA_VERSION,
        "profile": PROFILE,
        "repeats": REPEATS,
        "experiments": {},
    }
    if trace_dir is not None:
        os.makedirs(trace_dir, exist_ok=True)
    for name in chosen:
        tracer = Tracer() if trace_dir is not None else None
        before_metrics = metrics_snapshot()
        record: Dict[str, object] = {"repeats": REPEATS}
        try:
            record["median_seconds"], record["counters"] = _run_experiment(
                name, _EXPERIMENTS[name](system), tracer
            )
        except Exception as exc:  # recorded; the runner exits 1
            traceback.print_exc()
            record["error"] = "%s: %s" % (type(exc).__name__, exc)
            record["counters"] = {}
        # What this experiment added to the global registry; empty
        # under REPRO_OBS=off.
        record["metrics_delta"] = counter_deltas(
            before_metrics, metrics_snapshot()
        )
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
    tolerance: float = TOLERANCE,
    min_delta_seconds: float = MIN_DELTA_SECONDS,
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

    An experiment that raised has an ``error`` and no median.  In the
    baseline it reads as missing from the baseline (the base tree may
    lack what it measures); in the current run it is a regression.
    """
    if tolerance < 0:
        raise ValueError("tolerance must be non-negative")
    rows: List[Dict[str, object]] = []
    current_runs = current.get("experiments", {})
    baseline_runs = {
        name: record
        for name, record in baseline.get("experiments", {}).items()
        if "error" not in record
    }
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
        elif "error" in cur:
            warnings.append("raised %s" % cur["error"])
        if base is None:
            warnings.append("missing from baseline")
        warning = "; ".join(warnings) if warnings else None
        cur_s = cur and cur.get("median_seconds")
        base_s = base and base["median_seconds"]
        if cur_s is None or base is None:
            rows.append(
                {
                    "experiment": name,
                    "current_seconds": cur_s,
                    "baseline_seconds": base_s,
                    "ratio": None,
                    "regressed": cur is not None and "error" in cur,
                    "informational": False,
                    "warning": warning,
                }
            )
            continue
        cur_s = float(cur_s)
        base_s = float(base_s)
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


def _verdict(row: Dict[str, object]) -> str:
    if row["regressed"]:
        return "REGRESSED"
    if row.get("informational"):
        return "info (under jitter floor)"
    return "ok"


def comparison_delta_table(
    current: Dict[str, object],
    baseline: Dict[str, object],
    rows: Sequence[Dict[str, object]],
) -> Dict[str, object]:
    """A nested mapping of the comparison, one subtree per experiment.

    Renders through :func:`repro.obs.format_tree` (the ``--baseline``
    output): timing verdicts plus the work-counter deltas between the
    two payloads, so a slowdown can be read next to the counter that
    moved.
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
            "verdict": _verdict(row),
        }
        if row.get("warning"):
            entry["warning"] = row["warning"]
        if ratio is not None:  # both sides measured
            deltas = counter_deltas(
                baseline_runs[name].get("counters", {}),
                current_runs[name].get("counters", {}),
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
        verdict = _verdict(row)
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
    regressed (the programmatic form of the runner's exit code 1)."""
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


# ----------------------------------------------------------------------
# Command line
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.harness",
        description="Run the X1-X18 regression experiments "
        "(see docs/PERFORMANCE.md).",
    )
    parser.add_argument(
        "--experiments",
        default="",
        metavar="NAMES",
        help="comma-separated subset (e.g. X1,X4); default: all eighteen",
    )
    parser.add_argument(
        "--output",
        metavar="FILE",
        help="write the run as a BENCH_*.json payload",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        help="compare against a previous BENCH_*.json; exit 1 on "
        "regression",
    )
    parser.add_argument(
        "--trace-dir",
        metavar="DIR",
        help="trace every experiment into DIR/<name>.json and add a "
        "slowest_spans table to the payload",
    )
    parser.add_argument(
        "--profile-stacks",
        action="store_true",
        help="sample the run with the wall-clock profiler and embed its "
        "folded stacks in the payload (render with 'repro obs flame')",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run, print and compare; exit 1 when an experiment raised or
    regressed against ``--baseline``.  The payload is written first."""
    from repro.obs import SamplingProfiler, format_tree

    parser = build_parser()
    args = parser.parse_args(argv)
    names = [n.strip() for n in args.experiments.split(",") if n.strip()]
    unknown = [name for name in names if name not in _EXPERIMENTS]
    if unknown:
        parser.error("unknown experiments %s" % ", ".join(unknown))
    profiler = SamplingProfiler() if args.profile_stacks else None
    if profiler is not None:
        profiler.start()
    try:
        payload = run_suite(names or None, trace_dir=args.trace_dir)
    finally:
        if profiler is not None:
            profiler.stop()
    if profiler is not None:
        payload["profile_stacks"] = profiler.to_dict()
    runs = payload["experiments"]
    summary = {
        name: (
            {"error": record["error"]}
            if "error" in record
            else dict(
                {"median_seconds": "%.4f" % record["median_seconds"]},
                **record["counters"],
            )
        )
        for name, record in runs.items()
    }
    print(format_tree(summary, title="bench"))
    slowest = {
        name: {
            row["name"]: "%sms" % row["duration_ms"]
            for row in record["slowest_spans"]
        }
        for name, record in runs.items()
        if record.get("slowest_spans")
    }
    if slowest:
        print(format_tree(
            slowest, title="slowest spans (traces in %s)" % args.trace_dir
        ))
    if args.output:
        save_payload(payload, args.output)
        print("wrote %s" % args.output, file=sys.stderr)
    status = 0
    failed = [name for name, record in runs.items() if "error" in record]
    if failed:
        print("FAIL: %s raised" % ", ".join(failed), file=sys.stderr)
        status = 1
    if args.baseline:
        baseline = load_payload(args.baseline)
        rows = compare_payloads(payload, baseline)
        print(
            format_tree(
                comparison_delta_table(payload, baseline, rows),
                title="vs baseline %s" % args.baseline,
            )
        )
        if any(row["regressed"] for row in rows):
            print(
                "FAIL: regression beyond %.0f%% tolerance"
                % (TOLERANCE * 100),
                file=sys.stderr,
            )
            return 1
        print("no regression beyond %.0f%% tolerance" % (TOLERANCE * 100))
    return status


if __name__ == "__main__":
    sys.exit(main())
